//! The topological order `L` (§3.1).
//!
//! `L` lists all distinct node identities such that *`u` precedes `v` only
//! if `u` is not an ancestor of `v`* — descendants first, the root last.
//! Both evaluation passes (§3.2) and Algorithm Reach (Fig.4) iterate over
//! `L`; the maintenance algorithms (§3.4) update it in place via
//! [`TopoOrder::swap`], the paper's `swap(L, u, v)` primitive.
//!
//! Positions are kept in a dense `Vec<u32>` keyed by [`NodeId`] index
//! rather than a hash map: splices and removals rebuild a suffix of the
//! position table, and on the serving engine's hot path (one ∆(M,L) fold
//! per commit round) that rebuild is a tight array write instead of
//! thousands of hash insertions. It also makes cloning `L` for a snapshot
//! publication a pair of `memcpy`s.

use rxview_atg::{Dag, NodeId};

/// Position sentinel for nodes not present in `L`.
const ABSENT: u32 = u32::MAX;

/// Position lookup: dense for the maintained full `L` (suffix rebuilds are
/// tight array writes, clones are `memcpy`s), sparse for small scoped
/// projections whose node ids span the whole id space (a dense table would
/// cost an `O(max id)` zero-fill per projection).
#[derive(Debug, Clone)]
enum PosMap {
    Dense(Vec<u32>),
    Sparse(std::collections::HashMap<NodeId, u32>),
}

impl Default for PosMap {
    fn default() -> Self {
        PosMap::Dense(Vec::new())
    }
}

// The suffix rebuilds call `get` and `set` once per entry of `L`, so the
// dense hit is kept small enough to inline whatever else the crate holds (a
// call per entry doubles the splice; whether the compiler inlined the whole
// of `set` on its own has changed with edits elsewhere).
impl PosMap {
    #[inline]
    fn get(&self, v: NodeId) -> Option<usize> {
        match self {
            PosMap::Dense(pos) => pos
                .get(v.index())
                .copied()
                .filter(|&p| p != ABSENT)
                .map(|p| p as usize),
            PosMap::Sparse(pos) => pos.get(&v).map(|&p| p as usize),
        }
    }

    #[inline]
    fn set(&mut self, v: NodeId, p: usize) {
        if let PosMap::Dense(pos) = self {
            if let Some(slot) = pos.get_mut(v.index()) {
                *slot = p as u32;
                return;
            }
        }
        self.set_grown(v, p);
    }

    /// [`PosMap::set`] beyond a dense table's end, or in a sparse one.
    #[cold]
    fn set_grown(&mut self, v: NodeId, p: usize) {
        match self {
            PosMap::Dense(pos) => {
                pos.resize(v.index() + 1, ABSENT);
                pos[v.index()] = p as u32;
            }
            PosMap::Sparse(pos) => {
                pos.insert(v, p as u32);
            }
        }
    }

    fn clear(&mut self, v: NodeId) {
        match self {
            PosMap::Dense(pos) => {
                if let Some(slot) = pos.get_mut(v.index()) {
                    *slot = ABSENT;
                }
            }
            PosMap::Sparse(pos) => {
                pos.remove(&v);
            }
        }
    }
}

/// The maintained topological order.
#[derive(Debug, Clone, Default)]
pub struct TopoOrder {
    order: Vec<NodeId>,
    pos: PosMap,
}

impl TopoOrder {
    /// Computes `L` from scratch ([`Dag::leaves_first`]: Kahn's algorithm,
    /// `O(|V| log |V|)`) — leaves first, root last. Deterministic: ties
    /// broken by node id.
    ///
    /// # Panics
    /// Panics if the DAG is cyclic (callers check acyclicity at publish).
    pub fn compute(dag: &Dag) -> Self {
        let order = dag
            .leaves_first()
            .expect("cyclic DAG has no topological order");
        TopoOrder::from_order(order)
    }

    /// Builds an order directly from a node list, which must already be
    /// topologically sorted (descendants before ancestors).
    ///
    /// This is the entry point for *scoped* evaluation: the serving engine
    /// restricts XPath evaluation of a key-anchored update to the anchor's
    /// cone by projecting the maintained `L` onto `{root} ∪ {anchor} ∪
    /// desc(anchor)` — a subset closed under descendants, so the projection
    /// of a valid order is itself valid for the sub-DAG.
    pub fn from_order(order: Vec<NodeId>) -> Self {
        let width = order.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        // Dense only when the ids are reasonably packed (the maintained
        // full L); a sparse projection pays a hash map instead of an
        // `O(max id)` fill.
        let mut pos = if width <= 4 * order.len() {
            PosMap::Dense(vec![ABSENT; width])
        } else {
            PosMap::Sparse(std::collections::HashMap::with_capacity(order.len()))
        };
        for (i, n) in order.iter().enumerate() {
            pos.set(*n, i);
        }
        TopoOrder { order, pos }
    }

    /// The order `L` (index 0 = first = descendant-most).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether `L` is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The position of `v` in `L`.
    pub fn position(&self, v: NodeId) -> Option<usize> {
        self.pos.get(v)
    }

    fn set_pos(&mut self, v: NodeId, p: usize) {
        self.pos.set(v, p);
    }

    /// The paper's `swap(L, u, v)`: called when edge `(u, v)` is inserted
    /// while `u` (the new parent) still precedes `v` (the new child). Moves
    /// the nodes of `L[u..v] ∩ (desc(v) ∪ {v})` immediately in front of `u`,
    /// preserving their relative order. `is_desc_of_v(x)` answers whether
    /// `x` is a (strict) descendant of `v` in the *updated* graph.
    pub fn swap(&mut self, u: NodeId, v: NodeId, is_desc_of_v: &dyn Fn(NodeId) -> bool) {
        let pu = self.position(u).expect("u in L");
        let pv = self.position(v).expect("v in L");
        debug_assert!(pu < pv, "swap requires u before v");
        let segment: Vec<NodeId> = self.order[pu..=pv].to_vec();
        let mut moved = Vec::new();
        let mut kept = Vec::new();
        for &x in &segment {
            if x == v || is_desc_of_v(x) {
                moved.push(x);
            } else {
                kept.push(x);
            }
        }
        debug_assert_eq!(kept.first(), Some(&u));
        let mut rebuilt = Vec::with_capacity(segment.len());
        rebuilt.extend(moved);
        rebuilt.extend(kept);
        self.order[pu..=pv].copy_from_slice(&rebuilt);
        for (i, &n) in rebuilt.iter().enumerate() {
            self.set_pos(n, pu + i);
        }
    }

    /// Removes `v` from `L` (deletion maintenance, Fig.8 line 14). An
    /// element removal never invalidates the order of the rest.
    pub fn remove(&mut self, v: NodeId) {
        self.remove_many(&[v]);
    }

    /// Removes every node of `nodes` that is in `L` with one compaction of
    /// the suffix behind the earliest of them — `O(|L| + |nodes|)` where
    /// repeated [`TopoOrder::remove`] pays `O(|L|)` per node.
    pub fn remove_many(&mut self, nodes: &[NodeId]) {
        let mut first = self.order.len();
        for &v in nodes {
            if let Some(p) = self.position(v) {
                self.pos.clear(v);
                first = first.min(p);
            }
        }
        let mut kept = first;
        for i in first..self.order.len() {
            let n = self.order[i];
            // Entries without a position are the ones just cleared.
            if self.position(n).is_some() {
                self.order[kept] = n;
                self.set_pos(n, kept);
                kept += 1;
            }
        }
        self.order.truncate(kept);
    }

    /// Inserts `v` immediately before position `at` (shifting the suffix).
    pub fn insert_at(&mut self, at: usize, v: NodeId) {
        debug_assert!(self.position(v).is_none(), "node already in L");
        self.order.insert(at, v);
        for i in at..self.order.len() {
            let n = self.order[i];
            self.set_pos(n, i);
        }
    }

    /// Splices a block of nodes (given in their relative order) before
    /// position `at` with a single suffix rebuild — `O(|L| + |nodes|)`
    /// instead of `O(|L| · |nodes|)` for repeated [`TopoOrder::insert_at`].
    pub fn insert_many_at(&mut self, at: usize, nodes: &[NodeId]) {
        debug_assert!(
            nodes.iter().all(|n| self.position(*n).is_none()),
            "node already in L"
        );
        let tail = self.order.split_off(at);
        self.order.extend_from_slice(nodes);
        self.order.extend(tail);
        for i in at..self.order.len() {
            let n = self.order[i];
            self.set_pos(n, i);
        }
    }

    /// Checks the topological invariant against a DAG (test/debug helper):
    /// every live child precedes its parents.
    pub fn is_valid_for(&self, dag: &Dag) -> bool {
        if self.order.len() != dag.genid().live_ids().count() {
            return false;
        }
        for u in dag.genid().live_ids() {
            for &c in dag.children(u) {
                if !dag.genid().is_live(c) {
                    continue;
                }
                match (self.position(c), self.position(u)) {
                    (Some(pc), Some(pu)) if pc < pu => {}
                    _ => return false,
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};

    fn dag() -> Dag {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        rxview_atg::publish(&atg, &db).unwrap()
    }

    #[test]
    fn compute_produces_valid_order() {
        let d = dag();
        let l = TopoOrder::compute(&d);
        assert_eq!(l.len(), d.n_nodes());
        assert!(l.is_valid_for(&d));
        // Root is last.
        assert_eq!(*l.order().last().unwrap(), d.root());
    }

    #[test]
    fn positions_match_order() {
        let d = dag();
        let l = TopoOrder::compute(&d);
        for (i, &n) in l.order().iter().enumerate() {
            assert_eq!(l.position(n), Some(i));
        }
    }

    #[test]
    fn remove_keeps_validity() {
        let d = dag();
        let mut l = TopoOrder::compute(&d);
        let victim = l.order()[0];
        l.remove(victim);
        assert_eq!(l.position(victim), None);
        for (i, &n) in l.order().iter().enumerate() {
            assert_eq!(l.position(n), Some(i));
        }
    }

    #[test]
    fn remove_many_matches_repeated_remove() {
        let d = dag();
        let mut a = TopoOrder::compute(&d);
        let mut b = a.clone();
        // Out of order, one repeated, one that was never in `L`.
        let victims = [a.order()[7], a.order()[2], NodeId(900), a.order()[7]];
        for &v in &victims {
            a.remove(v);
        }
        b.remove_many(&victims);
        assert_eq!(a.order(), b.order());
        assert_eq!(b.len(), d.n_nodes() - 2);
        for &v in &victims {
            assert_eq!(b.position(v), None);
        }
        for (i, &n) in b.order().iter().enumerate() {
            assert_eq!(b.position(n), Some(i));
        }
    }

    #[test]
    fn insert_at_keeps_positions() {
        let d = dag();
        let mut l = TopoOrder::compute(&d);
        let victim = l.order()[3];
        l.remove(victim);
        l.insert_at(3, victim);
        for (i, &n) in l.order().iter().enumerate() {
            assert_eq!(l.position(n), Some(i));
        }
    }

    #[test]
    fn insert_many_matches_repeated_insert() {
        let d = dag();
        let mut a = TopoOrder::compute(&d);
        let mut b = a.clone();
        let new_nodes = [NodeId(900), NodeId(901), NodeId(902)];
        for (k, &n) in new_nodes.iter().enumerate() {
            a.insert_at(2 + k, n);
        }
        b.insert_many_at(2, &new_nodes);
        assert_eq!(a.order(), b.order());
        for (i, &n) in b.order().iter().enumerate() {
            assert_eq!(b.position(n), Some(i));
        }
    }

    #[test]
    fn swap_moves_descendants_before_u() {
        // Synthetic order over ids 0..5: claim 4 is the new child of 0,
        // with descendant 2.
        let l0: Vec<NodeId> = [10u32, 0, 1, 2, 3, 4].iter().map(|&i| NodeId(i)).collect();
        let mut l = TopoOrder::from_order(l0);
        // u = 0 at pos 1, v = 4 at pos 5; desc(v) = {2}.
        l.swap(NodeId(0), NodeId(4), &|x| x == NodeId(2));
        let got: Vec<u32> = l.order().iter().map(|n| n.0).collect();
        assert_eq!(got, vec![10, 2, 4, 0, 1, 3]);
        for (i, &n) in l.order().iter().enumerate() {
            assert_eq!(l.position(n), Some(i));
        }
    }
}
