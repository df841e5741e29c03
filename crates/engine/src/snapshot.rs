//! Immutable, epoch-stamped system snapshots served to readers.

use rxview_core::{DagEval, XmlViewSystem};
use rxview_relstore::Tuple;
use rxview_xmlkit::XPath;

/// One immutable version of the full system state `(I, V, M, L)`.
///
/// Readers obtain a snapshot from [`crate::Engine::snapshot`] and keep using
/// it for as long as they like; commits publish *new* snapshots and never
/// mutate an already-published one. Consecutive snapshots share every page
/// of `(I, V, M)` the commits between them did not write
/// ([`rxview_relstore::PagedMap`]), so holding an old snapshot pins only what has
/// changed since, and dropping the last handle to it frees only that.
#[derive(Debug)]
pub struct Snapshot {
    sys: XmlViewSystem,
    epoch: u64,
}

impl Snapshot {
    /// Wraps a system state as snapshot `epoch`.
    pub(crate) fn new(sys: XmlViewSystem, epoch: u64) -> Self {
        Snapshot { sys, epoch }
    }

    /// The commit epoch this snapshot reflects (0 = initial publication).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying system (read-only): database, views, `M`, `L`.
    pub fn system(&self) -> &XmlViewSystem {
        &self.sys
    }

    /// Evaluates an XPath against this snapshot's maintained structures,
    /// returning the raw DAG evaluation (selected nodes, matched edges,
    /// side-effect inputs). Goes through the scope-aware
    /// [`XmlViewSystem::eval`]: a read of an anchored path costs its cones,
    /// not the view, and returns what the full pass would.
    pub fn eval(&self, path: &XPath) -> DagEval {
        self.sys.eval(path).eval
    }

    /// Evaluates an XPath and returns `(type name, $A)` per selected node —
    /// the reader-facing query API.
    pub fn select(&self, path: &XPath) -> Vec<(String, Tuple)> {
        let vs = self.sys.view();
        self.eval(path)
            .selected
            .iter()
            .map(|&v| {
                (
                    vs.atg().dtd().name(vs.dag().genid().type_of(v)).to_owned(),
                    vs.dag().genid().attr_of(v).clone(),
                )
            })
            .collect()
    }
}
