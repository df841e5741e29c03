//! A shrinking view: the subtrees of half the groups of the synthetic view
//! collected, one deletion per group — what `tests/snapshot_alloc.rs`'s
//! release pin and `scale_probe`'s `free ids` row measure.

use rxview_atg::NodeId;
use rxview_core::{SideEffectPolicy, XmlUpdate, XmlViewSystem};
use rxview_relstore::Tuple;
use rxview_workload::{synthetic_atg, synthetic_database, SyntheticConfig};
use rxview_xmlkit::TypeId;

/// Synthetic nodes per group.
const GROUP_SIZE: usize = 40;

/// A published view, its caches warm, the deletions that collect the
/// subtrees of its even groups, and what they collect.
pub struct Collection {
    /// The view, before the deletions.
    pub sys: XmlViewSystem,
    /// `node[id=h]/sub/node` for the head `h` of each even group the
    /// policy lets go.
    pub updates: Vec<XmlUpdate>,
    /// The ids the deletions free, ascending.
    pub collected: Vec<NodeId>,
    /// The sizes of the collected nodes' `$A` allocations, each once.
    pub attr_sizes: Vec<usize>,
    /// Per per-id table, the bytes of one of its pages and how many ranges
    /// of a page's ids held something before the deletions and hold no
    /// live id after: the interner's slots, the `Dag`'s child and parent
    /// slots, `M`'s `anc` handles, `L`'s labels.
    pub emptied: [(usize, usize); 5],
}

/// The bytes of one page of a per-id table whose slots take `slot` bytes:
/// 1 KiB of slots, rounded up to a power of two of them, behind an `Arc`'s
/// two counts.
fn page_bytes(slot: usize) -> usize {
    (1024 / slot).next_power_of_two() * slot + 16
}

impl Collection {
    /// The view of `groups` synthetic groups, after one deletion of an odd
    /// group's subtree that warms the plan and template caches and the
    /// lazy column indexes.
    pub fn of(groups: usize) -> Collection {
        let db = synthetic_database(&SyntheticConfig::with_size(groups * GROUP_SIZE));
        let atg = synthetic_atg(&db).expect("synthetic ATG");
        let mut sys = XmlViewSystem::new(atg, db).expect("synthetic view publishes");
        let deletion = |g: usize| {
            let path = format!("node[id={}]/sub/node", g * GROUP_SIZE);
            XmlUpdate::delete(&path).expect("path parses")
        };
        let accepted = |sys: &XmlViewSystem, u: &XmlUpdate| {
            sys.clone().apply(u, SideEffectPolicy::Proceed).is_ok()
        };
        let mut odd = (1..groups).step_by(2).map(deletion);
        let warm = odd.find(|u| accepted(&sys, u)).expect("a deletable group");
        sys.apply(&warm, SideEffectPolicy::Proceed)
            .expect("accepted");
        let updates: Vec<XmlUpdate> = (0..groups)
            .step_by(2)
            .map(deletion)
            .filter(|u| accepted(&sys, u))
            .collect();

        // What the deletions free, from a dry run on a clone.
        let mut after = sys.clone();
        for u in &updates {
            after.apply(u, SideEffectPolicy::Proceed).expect("accepted");
        }
        let (dag, reach, topo) = (sys.view().dag(), sys.reach(), sys.topo());
        let genid = dag.genid();
        let space = genid.n_allocated();
        let survives = |v: NodeId| after.view().dag().genid().is_live(v);
        let collected: Vec<NodeId> = (0..space as u32)
            .map(NodeId)
            .filter(|&v| genid.is_live(v) && !survives(v))
            .collect();
        // An `Arc<[Value]>`: two counts and 16-byte values.
        let mut attrs: Vec<&Tuple> = collected.iter().map(|&v| genid.attr_of(v)).collect();
        attrs.sort_by_key(|t| t.values().as_ptr());
        attrs.dedup_by_key(|t| t.values().as_ptr());
        let attr_sizes = attrs.iter().map(|t| 16 + 16 * t.arity()).collect();

        let info = std::mem::size_of::<Option<(TypeId, Tuple)>>();
        // A 24-byte adjacency slot, an `Option<Arc<[u64]>>`, a `u32`.
        let tables: [(usize, &dyn Fn(NodeId) -> bool); 5] = [
            (info, &|v| genid.is_live(v)),
            (24, &|v| !dag.children(v).is_empty()),
            (24, &|v| !dag.parents(v).is_empty()),
            (16, &|v| !reach.ancestors(v).is_empty()),
            (4, &|v| topo.position(v).is_some()),
        ];
        let emptied = tables.map(|(slot, held)| {
            let width = (1024 / slot).next_power_of_two();
            let ids = |from: usize| (from..space.min(from + width)).map(|i| NodeId(i as u32));
            let empties = |&from: &usize| ids(from).any(held) && !ids(from).any(survives);
            (
                page_bytes(slot),
                (0..space).step_by(width).filter(empties).count(),
            )
        });
        drop(after);
        Collection {
            sys,
            updates,
            collected,
            attr_sizes,
            emptied,
        }
    }

    /// Bytes of the pages [`Collection::emptied`] counts.
    pub fn page_bytes(&self) -> usize {
        self.emptied.iter().map(|&(bytes, n)| bytes * n).sum()
    }

    /// Applies the deletions.
    pub fn run(&mut self) {
        for u in &self.updates {
            let done = self.sys.apply(u, SideEffectPolicy::Proceed);
            done.expect("accepted in the dry run");
        }
    }
}
