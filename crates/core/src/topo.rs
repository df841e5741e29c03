//! The topological order `L` (§3.1).
//!
//! `L` lists all distinct node identities such that *`u` precedes `v` only
//! if `u` is not an ancestor of `v`* — descendants first, the root last.
//! Both evaluation passes (§3.2) and Algorithm Reach (Fig.4) iterate over
//! `L`; the maintenance algorithms (§3.4) update it in place via
//! [`TopoOrder::swap`], the paper's `swap(L, u, v)` primitive.
//!
//! The maintained `L` answers "which of `u`, `v` comes first" through
//! *order labels*: a dense table keyed by [`NodeId`] index holds, per node,
//! a `u32` that ascends along `L`, with gaps between neighbours. A splice
//! labels only the nodes it inserts while the gap around the insertion
//! point lasts; when it runs out, the smallest aligned label block around
//! the point whose density is under its level's threshold is relabelled
//! evenly (the list-labelling scheme of Dietz–Sleator, in Bender et al.'s
//! simplified form: a block of `2^i` labels may hold `1.6^i` nodes, so the
//! `2^32` labels hold views of up to ≈ 3.4 M nodes within the thresholds;
//! past that the top block is relabelled whole, still correctly). A
//! one-update splice or removal so writes `O(∆L)` labels amortised (times
//! `log |L|` at worst, at a hot spot), not the suffix of `L` behind it; the order vector itself still shifts its tail
//! (one `memmove`). Labels are ranks, not indices: [`TopoOrder::position`]
//! compares, [`TopoOrder::index_of`] finds a node in [`TopoOrder::order`]
//! by binary search, and [`TopoOrder::slot`] gives evaluation a dense index.
//!
//! Small projections of `L` (evaluation scopes, which are never edited)
//! keep a hash map from node to index instead, since their ids span the
//! whole id space and a dense table would cost an `O(max id)` fill.

use rxview_atg::{Dag, NodeId};
use std::collections::HashMap;

/// Label sentinel for nodes not present in `L`.
const ABSENT: u32 = u32::MAX;

/// Labels live in `[0, SPACE)` — every `u32` but [`ABSENT`]; block
/// arithmetic runs in `u64`, and the top block of `2^LABEL_BITS` labels is
/// clipped to `SPACE`.
const LABEL_BITS: u32 = 32;
const SPACE: u64 = ABSENT as u64;

#[cfg(test)]
thread_local! {
    /// Labels written since the counter was last reset — the cost-model
    /// guard's work counter.
    static LABEL_WRITES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Position lookup: order labels for the maintained full `L`, indices for
/// small scoped projections.
#[derive(Debug, Clone)]
enum PosMap {
    /// Gapped order labels indexed by node id ([`ABSENT`] = not in `L`).
    Labels(Vec<u32>),
    /// Index in `order` per node, for projections whose ids are sparse.
    Sparse(HashMap<NodeId, u32>),
}

impl Default for PosMap {
    fn default() -> Self {
        PosMap::Labels(Vec::new())
    }
}

/// The maintained topological order.
#[derive(Debug, Clone, Default)]
pub struct TopoOrder {
    order: Vec<NodeId>,
    pos: PosMap,
}

/// Whether a label block of `2^level` labels may hold `count` nodes.
fn fits(level: u32, count: usize) -> bool {
    level >= LABEL_BITS || (count as f64) <= 1.6f64.powi(level as i32)
}

/// The exclusive end of the label block of `2^level` labels at `base`.
fn block_end(base: u64, level: u32) -> u64 {
    (base + (1u64 << level)).min(SPACE)
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
        // Labels only when the ids are reasonably packed (the maintained
        // full L); a sparse projection pays a hash map instead of an
        // `O(max id)` fill.
        if width <= 4 * order.len() {
            let mut l = TopoOrder {
                order,
                pos: PosMap::Labels(vec![ABSENT; width]),
            };
            l.spread(0, l.order.len(), 0, SPACE);
            l
        } else {
            let index = order.iter().enumerate().map(|(i, &n)| (n, i as u32));
            TopoOrder {
                pos: PosMap::Sparse(index.collect()),
                order,
            }
        }
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

    /// The rank of `v` in `L`: ranks ascend along [`TopoOrder::order`], so
    /// `position(u) < position(v)` iff `u` precedes `v`. A rank is not an
    /// index ([`TopoOrder::index_of`] is).
    pub fn position(&self, v: NodeId) -> Option<u64> {
        match &self.pos {
            PosMap::Labels(labels) => labels
                .get(v.index())
                .copied()
                .filter(|&l| l != ABSENT)
                .map(u64::from),
            PosMap::Sparse(index) => index.get(&v).map(|&i| u64::from(i)),
        }
    }

    /// The index of `v` in [`TopoOrder::order`] — a binary search over the
    /// labels.
    pub fn index_of(&self, v: NodeId) -> Option<usize> {
        match &self.pos {
            PosMap::Labels(_) => {
                let p = self.position(v)?;
                Some(self.order.partition_point(|&n| self.label(n) < p))
            }
            PosMap::Sparse(index) => index.get(&v).map(|&i| i as usize),
        }
    }

    /// A dense index for `v` below [`TopoOrder::n_slots`], for per-node
    /// arrays over `L` (the evaluator's value matrix): the node id's index
    /// under labels, the index in `order` for a sparse projection. `None`
    /// when `v` is not in `L`.
    #[inline]
    pub fn slot(&self, v: NodeId) -> Option<usize> {
        match &self.pos {
            PosMap::Labels(labels) => match labels.get(v.index()) {
                Some(&l) if l != ABSENT => Some(v.index()),
                _ => None,
            },
            PosMap::Sparse(index) => index.get(&v).map(|&i| i as usize),
        }
    }

    /// The bound of [`TopoOrder::slot`].
    pub fn n_slots(&self) -> usize {
        match &self.pos {
            PosMap::Labels(labels) => labels.len(),
            PosMap::Sparse(_) => self.order.len(),
        }
    }

    /// The label of a node known to be in `L` (labels only).
    #[inline]
    fn label(&self, v: NodeId) -> u64 {
        match &self.pos {
            PosMap::Labels(labels) => u64::from(labels[v.index()]),
            PosMap::Sparse(index) => u64::from(index[&v]),
        }
    }

    fn labels_mut(&mut self) -> &mut Vec<u32> {
        if let PosMap::Sparse(_) = self.pos {
            // The first edit of a projection labels it; nothing edits one in
            // practice.
            let width = self.order.iter().map(|n| n.index() + 1).max().unwrap_or(0);
            self.pos = PosMap::Labels(vec![ABSENT; width]);
            self.spread(0, self.order.len(), 0, SPACE);
        }
        match &mut self.pos {
            PosMap::Labels(labels) => labels,
            PosMap::Sparse(_) => unreachable!("labelled above"),
        }
    }

    /// Sets `v`'s label; `label` is below [`SPACE`] or is [`ABSENT`].
    fn set_label(&mut self, v: NodeId, label: u64) {
        #[cfg(test)]
        LABEL_WRITES.with(|c| c.set(c.get() + 1));
        let labels = self.labels_mut();
        if v.index() >= labels.len() {
            labels.resize(v.index() + 1, ABSENT);
        }
        labels[v.index()] = label as u32;
    }

    /// Labels `order[from..to]` evenly over the labels `[base, end)`.
    fn spread(&mut self, from: usize, to: usize, base: u64, end: u64) {
        let step = (end - base) / (to - from).max(1) as u64;
        for i in from..to {
            let n = self.order[i];
            self.set_label(n, base + (i - from) as u64 * step + step / 2);
        }
    }

    /// The paper's `swap(L, u, v)`: called when edge `(u, v)` is inserted
    /// while `u` (the new parent) still precedes `v` (the new child). Moves
    /// the nodes of `L[u..v] ∩ (desc(v) ∪ {v})` immediately in front of `u`,
    /// preserving their relative order. `is_desc_of_v(x)` answers whether
    /// `x` is a (strict) descendant of `v` in the *updated* graph. The
    /// segment's labels are handed out again in its new order.
    pub fn swap(&mut self, u: NodeId, v: NodeId, is_desc_of_v: &dyn Fn(NodeId) -> bool) {
        let pu = self.index_of(u).expect("u in L");
        let pv = self.index_of(v).expect("v in L");
        debug_assert!(pu < pv, "swap requires u before v");
        let segment: Vec<NodeId> = self.order[pu..=pv].to_vec();
        let labels: Vec<u64> = segment.iter().map(|&n| self.label(n)).collect();
        let (moved, kept): (Vec<NodeId>, Vec<NodeId>) =
            segment.iter().partition(|&&x| x == v || is_desc_of_v(x));
        debug_assert_eq!(kept.first(), Some(&u));
        for (i, n) in moved.into_iter().chain(kept).enumerate() {
            if self.order[pu + i] != n {
                self.order[pu + i] = n;
                self.set_label(n, labels[i]);
            }
        }
    }

    /// Removes `v` from `L` (deletion maintenance, Fig.8 line 14). An
    /// element removal never invalidates the order of the rest.
    pub fn remove(&mut self, v: NodeId) {
        self.remove_many(&[v]);
    }

    /// Removes every node of `nodes` that is in `L`: one label cleared per
    /// node, and one compaction of the order vector behind the earliest.
    pub fn remove_many(&mut self, nodes: &[NodeId]) {
        let mut at: Vec<usize> = nodes.iter().filter_map(|&v| self.index_of(v)).collect();
        if at.is_empty() {
            return;
        }
        at.sort_unstable();
        at.dedup();
        self.labels_mut();
        for &i in &at {
            let v = self.order[i];
            self.set_label(v, ABSENT.into());
        }
        // Shift each kept run between two removed entries down in one copy.
        let mut kept = at[0];
        for (k, &i) in at.iter().enumerate() {
            let end = at.get(k + 1).copied().unwrap_or(self.order.len());
            self.order.copy_within(i + 1..end, kept);
            kept += end - i - 1;
        }
        self.order.truncate(kept);
    }

    /// Inserts `v` immediately before index `at` (shifting the suffix).
    pub fn insert_at(&mut self, at: usize, v: NodeId) {
        self.insert_many_at(at, &[v]);
    }

    /// Splices a block of nodes (given in their relative order) before
    /// index `at`: the block takes labels from the gap there, or the
    /// smallest block of labels around it that may hold it is relabelled.
    pub fn insert_many_at(&mut self, at: usize, nodes: &[NodeId]) {
        debug_assert!(
            nodes.iter().all(|n| self.position(*n).is_none()),
            "node already in L"
        );
        if nodes.is_empty() {
            return;
        }
        self.labels_mut();
        let k = nodes.len();
        self.order.splice(at..at, nodes.iter().copied());
        let lower = match at {
            0 => 0,
            _ => self.label(self.order[at - 1]) + 1,
        };
        let upper = match self.order.get(at + k) {
            Some(&n) => self.label(n),
            None => SPACE,
        };
        if upper - lower >= k as u64 {
            let step = (upper - lower) / k as u64;
            for (i, &n) in nodes.iter().enumerate() {
                self.set_label(n, lower + i as u64 * step + step / 2);
            }
            return;
        }
        // Relabel: the smallest aligned block around the left neighbour (or
        // the right one, at the front) whose level admits its nodes plus
        // the block.
        let around = self.label(self.order[if at > 0 { at - 1 } else { k }]);
        for level in 1..=LABEL_BITS {
            let base = around >> level << level;
            let end = block_end(base, level);
            let from = self.order[..at].partition_point(|&n| self.label(n) < base);
            let to = at + k + self.order[at + k..].partition_point(|&n| self.label(n) < end);
            if fits(level, to - from) {
                self.spread(from, to, base, end);
                return;
            }
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

    /// Ranks ascend along `order`, and `index_of` finds every entry.
    fn assert_ranked(l: &TopoOrder) {
        for (i, &n) in l.order().iter().enumerate() {
            assert_eq!(l.index_of(n), Some(i));
        }
        for w in l.order().windows(2) {
            assert!(l.position(w[0]).unwrap() < l.position(w[1]).unwrap());
        }
    }

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    #[test]
    fn compute_produces_valid_order() {
        let d = dag();
        let l = TopoOrder::compute(&d);
        assert_eq!(l.len(), d.n_nodes());
        assert!(l.is_valid_for(&d));
        // Root is last.
        assert_eq!(*l.order().last().unwrap(), d.root());
        assert_ranked(&l);
    }

    #[test]
    fn remove_keeps_validity() {
        let d = dag();
        let mut l = TopoOrder::compute(&d);
        let victim = l.order()[0];
        l.remove(victim);
        assert_eq!(l.position(victim), None);
        assert_ranked(&l);
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
        assert_ranked(&b);
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
        assert_ranked(&a);
        assert_ranked(&b);
    }

    #[test]
    fn a_hot_spot_relabels_and_stays_ranked() {
        // Thousands of splices at one point exhaust every gap there; the
        // front and the back are edge cases of the same search.
        let mut l = TopoOrder::from_order(ids(0..64));
        for i in 0..3000u32 {
            l.insert_at(32, NodeId(64 + 3 * i));
            l.insert_at(0, NodeId(65 + 3 * i));
            l.insert_at(l.len(), NodeId(66 + 3 * i));
        }
        assert_eq!(l.len(), 64 + 9000);
        assert_ranked(&l);
        assert_eq!(l.order()[l.len() - 1], NodeId(66 + 3 * 2999));
    }

    #[test]
    fn a_projection_answers_slots_and_labels_on_its_first_edit() {
        let mut l = TopoOrder::from_order(vec![NodeId(5000), NodeId(3), NodeId(90_000)]);
        assert_eq!(l.n_slots(), 3);
        assert_eq!(l.slot(NodeId(90_000)), Some(2));
        assert_eq!(l.slot(NodeId(4)), None);
        l.insert_at(1, NodeId(7));
        assert_eq!(
            l.order(),
            [NodeId(5000), NodeId(7), NodeId(3), NodeId(90_000)]
        );
        assert_ranked(&l);
        assert_eq!(l.slot(NodeId(90_000)), Some(90_000));
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
        assert_ranked(&l);
    }

    /// Labels written by `edit` on `l`.
    fn label_writes(l: &mut TopoOrder, edit: impl FnOnce(&mut TopoOrder)) -> usize {
        LABEL_WRITES.with(|c| c.set(0));
        edit(l);
        LABEL_WRITES.with(|c| c.get())
    }

    /// §3.4's `L` part, as a cost model: a one-update splice of `∆L` nodes
    /// and a one-update removal write `O(∆L)` labels amortised — a small
    /// constant on an `L` of 2 000 and of 20 000 nodes (a hot spot's
    /// relabels grow with `log |L|`: ≈ 8.5 and ≈ 10 per update) — where
    /// rebuilding the positions behind the edit wrote half of `L` on
    /// average, 1 000 and 10 000.
    #[test]
    fn a_splice_and_a_removal_write_labels_in_proportion_to_what_they_change() {
        let per_update = |n: u32| {
            let mut l = TopoOrder::from_order(ids(0..n));
            let mut next = n;
            let mut writes = 0;
            let updates = 400;
            for u in 0..updates {
                // A three-node subtree spliced at a spread of points and
                // at one hot point, then one of the three collected.
                let at = if u % 2 == 0 {
                    (u as usize * 7919) % l.len()
                } else {
                    17
                };
                let block = ids(next..next + 3);
                next += 3;
                writes += label_writes(&mut l, |l| l.insert_many_at(at, &block));
                writes += label_writes(&mut l, |l| l.remove_many(&block[..1]));
            }
            assert_ranked(&l);
            writes as f64 / updates as f64
        };
        let (small, large) = (per_update(2_000), per_update(20_000));
        // Four labels per update are the splice and the removal themselves;
        // ten times the view may not cost even half as much again.
        assert!(
            small <= 12.0 && large <= 12.0 && large <= 1.5 * small,
            "{small} / {large} labels per update"
        );
    }
}
