//! The reachability matrix `M` and Algorithm Reach (§3.1, Fig.4).
//!
//! `M` supports the `//` axis on DAGs: `M(anc, desc)` is set iff `anc` is a
//! (strict) ancestor of `desc`. Following the paper, only the set bits are
//! stored — as a relation `M(anc, desc)`, realized here as adjacency sets in
//! both directions so `anc(a)` and `desc(a)` are each one lookup.

use crate::topo::TopoOrder;
use rxview_atg::{Dag, NodeId};
use rxview_relstore::PagedVec;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The stored reachability matrix.
///
/// The adjacency sets sit behind per-node `Arc`s in two copy-on-write
/// [`PagedVec`]s indexed by node id: cloning `M` (which the serving engine
/// does for every published snapshot) copies page pointers and *shares*
/// every set, and a maintenance pass copies only the sets it actually
/// rewrites (`Arc::make_mut`) plus the pages holding their handles. A
/// superseded snapshot's drop therefore frees only what its round replaced
/// — O(∆M), not O(|M|) or O(n).
#[derive(Debug, Clone, Default)]
pub struct Reachability {
    desc: PagedVec<Option<NodeSet>>,
    anc: PagedVec<Option<NodeSet>>,
    n_pairs: usize,
}

type NodeSet = Arc<BTreeSet<NodeId>>;

static EMPTY: BTreeSet<NodeId> = BTreeSet::new();

fn set_of(sets: &PagedVec<Option<NodeSet>>, v: NodeId) -> &BTreeSet<NodeId> {
    match sets.get(v.index()) {
        Some(Some(s)) => s,
        _ => &EMPTY,
    }
}

/// Adds `x` to `v`'s set; `false` if already present.
fn add(sets: &mut PagedVec<Option<NodeSet>>, v: NodeId, x: NodeId) -> bool {
    // Probe before copying: a hit must not clone a shared set or page.
    if set_of(sets, v).contains(&x) {
        return false;
    }
    let set = sets.get_mut(v.index()).get_or_insert_with(NodeSet::default);
    Arc::make_mut(set).insert(x);
    true
}

/// Removes `x` from `v`'s set; `false` if absent.
fn discard(sets: &mut PagedVec<Option<NodeSet>>, v: NodeId, x: NodeId) -> bool {
    // Probe before copying: a miss must not clone a shared set or page.
    if !set_of(sets, v).contains(&x) {
        return false;
    }
    let slot = sets.get_mut(v.index());
    let set = Arc::make_mut(slot.as_mut().expect("probed non-empty"));
    set.remove(&x);
    if set.is_empty() {
        *slot = None;
    }
    true
}

/// Takes `v`'s whole set, leaving it empty.
fn take(sets: &mut PagedVec<Option<NodeSet>>, v: NodeId) -> NodeSet {
    if set_of(sets, v).is_empty() {
        return NodeSet::default();
    }
    sets.get_mut(v.index()).take().expect("probed non-empty")
}

impl Reachability {
    /// Algorithm **Reach** (Fig.4): computes `M` in `O(n |V|)` by dynamic
    /// programming over the backward topological order — for `d` processed
    /// in backward `L` order, the ancestors of `d`'s parents are already
    /// known, so `A_d = ⋃_{p ∈ parent(d)} (anc(p) ∪ {p})`.
    pub fn compute(dag: &Dag, topo: &TopoOrder) -> Self {
        let mut m = Reachability::default();
        // Backward over L = ancestors (later entries) first.
        for k in (0..topo.len()).rev() {
            let d = topo.order()[k];
            let mut ad: BTreeSet<NodeId> = BTreeSet::new();
            for &p in dag.parents(d) {
                if !dag.genid().is_live(p) {
                    continue;
                }
                ad.insert(p);
                ad.extend(m.ancestors(p).iter().copied());
            }
            m.n_pairs += ad.len();
            for &a in &ad {
                add(&mut m.desc, a, d);
            }
            if !ad.is_empty() {
                *m.anc.get_mut(d.index()) = Some(Arc::new(ad));
            }
        }
        m
    }

    /// Naive recomputation baseline: a full BFS/DFS from every node, the
    /// `O(|V|² log |V|)`-style approach the paper contrasts Reach against.
    /// Used by the ablation bench.
    pub fn compute_naive(dag: &Dag) -> Self {
        let mut m = Reachability::default();
        for a in dag.genid().live_ids() {
            let mut seen: BTreeSet<NodeId> = BTreeSet::new();
            let mut stack: Vec<NodeId> = dag.children(a).to_vec();
            while let Some(v) = stack.pop() {
                if !dag.genid().is_live(v) {
                    continue;
                }
                if seen.insert(v) {
                    stack.extend(dag.children(v).iter().copied());
                }
            }
            for &d in &seen {
                m.insert(a, d);
            }
        }
        m
    }

    /// Whether `a` is a strict ancestor of `d`.
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        self.descendants(a).contains(&d)
    }

    /// `desc(a)`: strict descendants of `a`.
    pub fn descendants(&self, a: NodeId) -> &BTreeSet<NodeId> {
        set_of(&self.desc, a)
    }

    /// `anc(d)`: strict ancestors of `d`.
    pub fn ancestors(&self, d: NodeId) -> &BTreeSet<NodeId> {
        set_of(&self.anc, d)
    }

    /// Inserts a pair `(anc, desc)`.
    pub fn insert(&mut self, a: NodeId, d: NodeId) -> bool {
        let new = add(&mut self.desc, a, d);
        if new {
            add(&mut self.anc, d, a);
            self.n_pairs += 1;
        }
        new
    }

    /// Removes a pair.
    pub fn remove(&mut self, a: NodeId, d: NodeId) -> bool {
        let removed = discard(&mut self.desc, a, d);
        if removed {
            discard(&mut self.anc, d, a);
            self.n_pairs -= 1;
        }
        removed
    }

    /// Replaces the ancestor set of `d` wholesale (deletion maintenance,
    /// Fig.8 lines 9–11), returning the pairs removed.
    pub fn set_ancestors(&mut self, d: NodeId, new_anc: BTreeSet<NodeId>) -> Vec<(NodeId, NodeId)> {
        let old = take(&mut self.anc, d);
        let mut removed = Vec::new();
        for a in old.difference(&new_anc) {
            discard(&mut self.desc, *a, d);
            self.n_pairs -= 1;
            removed.push((*a, d));
        }
        for a in new_anc.difference(&old) {
            add(&mut self.desc, *a, d);
            self.n_pairs += 1;
        }
        if !new_anc.is_empty() {
            *self.anc.get_mut(d.index()) = Some(Arc::new(new_anc));
        }
        removed
    }

    /// Drops every pair mentioning `d` (node garbage collection).
    pub fn drop_node(&mut self, d: NodeId) {
        for &a in take(&mut self.anc, d).iter() {
            if discard(&mut self.desc, a, d) {
                self.n_pairs -= 1;
            }
        }
        for &x in take(&mut self.desc, d).iter() {
            if discard(&mut self.anc, x, d) {
                self.n_pairs -= 1;
            }
        }
    }

    /// Number of stored pairs, the `|M|` of Fig.10(b).
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Structural equality with another matrix (testing).
    pub fn same_pairs(&self, other: &Reachability) -> bool {
        if self.n_pairs != other.n_pairs {
            return false;
        }
        (0..self.desc.len() as u32)
            .map(NodeId)
            .all(|a| self.descendants(a).iter().all(|d| other.is_ancestor(a, *d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{publish, registrar_atg, registrar_database};
    use rxview_relstore::tuple;

    fn fixture() -> (Dag, TopoOrder, rxview_atg::Atg) {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let dag = publish(&atg, &db).unwrap();
        let topo = TopoOrder::compute(&dag);
        (dag, topo, atg)
    }

    #[test]
    fn reach_matches_naive() {
        let (dag, topo, _) = fixture();
        let fast = Reachability::compute(&dag, &topo);
        let naive = Reachability::compute_naive(&dag);
        assert!(fast.same_pairs(&naive));
        assert!(naive.same_pairs(&fast));
    }

    #[test]
    fn root_reaches_everything() {
        let (dag, topo, _) = fixture();
        let m = Reachability::compute(&dag, &topo);
        assert_eq!(m.descendants(dag.root()).len(), dag.n_nodes() - 1);
        assert!(m.ancestors(dag.root()).is_empty());
    }

    #[test]
    fn shared_node_has_multiple_ancestor_chains() {
        let (dag, topo, atg) = fixture();
        let m = Reachability::compute(&dag, &topo);
        let course = atg.dtd().type_id("course").unwrap();
        let cs240 = dag
            .genid()
            .lookup(course, &tuple!["CS240", "Data Structures"])
            .unwrap();
        let cs650 = dag
            .genid()
            .lookup(course, &tuple!["CS650", "Advanced DB"])
            .unwrap();
        let cs320 = dag
            .genid()
            .lookup(course, &tuple!["CS320", "Algorithms"])
            .unwrap();
        // CS240 is reachable from CS650 through the shared CS320 subtree.
        assert!(m.is_ancestor(cs650, cs240));
        assert!(m.is_ancestor(cs320, cs240));
        assert!(!m.is_ancestor(cs240, cs320));
    }

    #[test]
    fn insert_remove_roundtrip() {
        let (dag, topo, _) = fixture();
        let mut m = Reachability::compute(&dag, &topo);
        let before = m.n_pairs();
        let a = NodeId(900);
        let d = NodeId(901);
        assert!(m.insert(a, d));
        assert!(!m.insert(a, d));
        assert_eq!(m.n_pairs(), before + 1);
        assert!(m.is_ancestor(a, d));
        assert!(m.remove(a, d));
        assert!(!m.remove(a, d));
        assert_eq!(m.n_pairs(), before);
    }

    #[test]
    fn set_ancestors_reports_removed() {
        let mut m = Reachability::default();
        m.insert(NodeId(1), NodeId(9));
        m.insert(NodeId(2), NodeId(9));
        m.insert(NodeId(3), NodeId(9));
        let removed = m.set_ancestors(NodeId(9), [NodeId(2), NodeId(4)].into_iter().collect());
        let removed: BTreeSet<_> = removed.into_iter().collect();
        assert_eq!(
            removed,
            [(NodeId(1), NodeId(9)), (NodeId(3), NodeId(9))]
                .into_iter()
                .collect()
        );
        assert!(m.is_ancestor(NodeId(4), NodeId(9)));
        assert!(!m.is_ancestor(NodeId(1), NodeId(9)));
        assert_eq!(m.n_pairs(), 2);
    }

    #[test]
    fn drop_node_removes_all_pairs() {
        let mut m = Reachability::default();
        m.insert(NodeId(1), NodeId(2));
        m.insert(NodeId(2), NodeId(3));
        m.insert(NodeId(1), NodeId(3));
        m.drop_node(NodeId(2));
        assert_eq!(m.n_pairs(), 1);
        assert!(m.is_ancestor(NodeId(1), NodeId(3)));
    }
}
