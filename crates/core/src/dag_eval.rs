//! The result of the two-pass XPath evaluation on DAG-compressed views
//! (§3.2): `r[[p]]`, the matched parent-edges `Ep(r)`, and the matched
//! nodes and edges that decide XML side effects — a side effect exists iff
//! a matched node has an *unmatched* incoming DAG edge, i.e. the affected
//! subtree also occurs in the tree at positions `p` does not select (§2.1).
//! [`crate::plan::eval_plan`] computes it — a complete match through a `//`
//! step is where that step's suffix predicate holds, looked up, not an
//! intersection of `M` runs — and `rxview_reference::eval` is the §3.2
//! transcription it is held equal to.

use crate::viewstore::ViewStore;
use rxview_atg::NodeId;
use std::collections::BTreeSet;

/// The outcome of evaluating an update path on the DAG.
#[derive(Debug, Clone, Default)]
pub struct DagEval {
    /// `r[[p]]`: the selected nodes.
    pub selected: Vec<NodeId>,
    /// `Ep(r)`: matched `(parent, selected)` edges — the pairs `((C,u), v)`
    /// of §3.2, used by deletion translation.
    pub edge_parents: Vec<(NodeId, NodeId)>,
    /// All nodes on complete matched paths (including the root and the
    /// selected nodes).
    pub matched_nodes: BTreeSet<NodeId>,
    /// All edges on complete matched paths.
    pub matched_edges: BTreeSet<(NodeId, NodeId)>,
}

impl DagEval {
    /// The side-effect set `S` (§3.2): nodes with an edge into a matched
    /// node that is not itself matched — each witnesses a tree occurrence of
    /// an affected subtree that `p` does not select.
    ///
    /// For deletions, occurrences of the *selected* nodes themselves are not
    /// side effects (only their matched parents' children lists change), so
    /// edges into selected nodes are ignored when `for_delete` is set.
    pub fn side_effects(&self, vs: &ViewStore, for_delete: bool) -> BTreeSet<NodeId> {
        let selected: BTreeSet<NodeId> = self.selected.iter().copied().collect();
        let mut s = BTreeSet::new();
        for &c in &self.matched_nodes {
            if for_delete && selected.contains(&c) {
                continue;
            }
            for &u in vs.dag().parents(c) {
                if !self.matched_edges.contains(&(u, c)) {
                    s.insert(u);
                }
            }
        }
        s
    }

    /// Whether the evaluation selected nothing.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }
}
