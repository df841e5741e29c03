//! The reachability matrix `M` and Algorithm Reach (§3.1, Fig.4).
//!
//! `M` supports the `//` axis on DAGs: `M(anc, desc)` is set iff `anc` is a
//! (strict) ancestor of `desc`. Following the paper, only the set bits are
//! stored — as a relation `M(anc, desc)`, realized here as adjacency sets in
//! both directions so `anc(a)` and `desc(a)` are each one lookup.
//!
//! # Layout and cost model
//!
//! Each per-node set is one *run*: an immutable, ascending, duplicate-free
//! `Arc<[NodeId]>` — 4 bytes per stored id plus one 16-byte header per
//! non-empty set, against ≈ 25 bytes per pair for a B-tree set. A run is
//! never edited in place: changing a set builds its successor with a linear
//! merge ([`union`], [`minus`], or gather + [`sort_dedup`]) and swaps the
//! handle, so a snapshot that still holds the old handle is unaffected and
//! releasing it frees one allocation, not a tree.
//!
//! That makes the unit of cost "one rewrite of a touched set", `O(|set|)`
//! at `memcpy` speed, and a single-pair insert would cost exactly that —
//! which is why there is none. Everything that writes `M` is a bulk
//! operation:
//!
//! - [`Reachability::compute`], [`Reachability::compute_naive`] and
//!   [`Reachability::from_ancestors`] build one direction run by run and
//!   derive the other with one counting-sort transposition;
//! - maintenance edits ancestor sets wholesale
//!   ([`Reachability::add_ancestors`], [`Reachability::set_ancestors`] and
//!   its recurrence form [`Reachability::set_ancestors_from`],
//!   [`Reachability::collect_node`]). The `anc` direction is written at once
//!   — those runs are small, and later jobs of the same fold read them. The
//!   `desc` half of every changed pair is queued per ancestor in a
//!   [`ReachBatch`] and applied by [`Reachability::flush`] with one merge
//!   per touched ancestor, however many pairs it gained or lost — the root's
//!   run (every node of the view) is rewritten once per flush, not once per
//!   job. Until the flush, `desc` lags `anc`; a reader that must not miss
//!   queued pairs asks [`Reachability::descendants_in`].
//!
//! [`Reachability::n_pairs`] is accounted on the `anc` direction alone, so
//! the lag can neither double- nor under-count.

use crate::topo::TopoOrder;
use rxview_atg::{Dag, NodeId};
use rxview_relstore::PagedVec;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// One stored set: ascending, duplicate-free, never empty.
type Run = Arc<[NodeId]>;

/// Whether `ids` strictly ascend — the invariant of every run and of every
/// input the merge primitives take.
fn is_run(ids: &[NodeId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// The first index `k >= from` with `a[k] >= x`, by doubling probes from
/// `from` and a binary search inside the bracket: `O(log gap)`, so merging a
/// short run into a long one copies the long one in a few large chunks while
/// two runs of similar length still merge in linear time.
fn lower_bound_from(a: &[NodeId], from: usize, x: NodeId) -> usize {
    let mut step = 1;
    let mut lo = from;
    let mut hi = from;
    while hi < a.len() && a[hi] < x {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(a.len());
    lo + a[lo..hi].partition_point(|&y| y < x)
}

/// `out = a ∪ b` for two runs.
pub fn union(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    debug_assert!(is_run(a) && is_run(b), "union takes runs");
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    out.clear();
    out.reserve(long.len() + short.len());
    let mut i = 0;
    for &x in short {
        let k = lower_bound_from(long, i, x);
        out.extend_from_slice(&long[i..k]);
        i = k;
        // An `x` also in `long` is copied with the next chunk.
        if long.get(k) != Some(&x) {
            out.push(x);
        }
    }
    out.extend_from_slice(&long[i..]);
}

/// `out = a \ b` for two runs.
pub fn minus(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    debug_assert!(is_run(a) && is_run(b), "minus takes runs");
    out.clear();
    if a.len() <= b.len() {
        // Look each id of the shorter `a` up in `b`.
        let mut j = 0;
        for &x in a {
            j = lower_bound_from(b, j, x);
            if b.get(j) != Some(&x) {
                out.push(x);
            }
        }
    } else {
        // Copy the longer `a` in chunks that skip `b`'s ids.
        let mut i = 0;
        for &x in b {
            let k = lower_bound_from(a, i, x);
            out.extend_from_slice(&a[i..k]);
            i = k + usize::from(a.get(k) == Some(&x));
        }
        out.extend_from_slice(&a[i..]);
    }
}

/// Turns a gathered buffer into a run.
pub fn sort_dedup(ids: &mut Vec<NodeId>) {
    ids.sort_unstable();
    ids.dedup();
}

fn run_of(sets: &PagedVec<Option<Run>>, v: NodeId) -> &[NodeId] {
    match sets.get(v.index()) {
        Some(Some(run)) => run,
        _ => &[],
    }
}

/// Replaces `v`'s set by `ids`.
fn store(sets: &mut PagedVec<Option<Run>>, v: NodeId, ids: &[NodeId]) {
    debug_assert!(is_run(ids), "a stored set is a run");
    if !ids.is_empty() {
        *sets.get_mut(v.index()) = Some(ids.into());
    } else if !run_of(sets, v).is_empty() {
        // Probed first: emptying an empty slot must not copy a shared page.
        *sets.get_mut(v.index()) = None;
    }
}

/// Marks for gathering a union without repeats: `seen_at[v] == epoch` once
/// the current gather has taken `v`.
#[derive(Debug, Default)]
struct Marks {
    seen_at: Vec<u32>,
    epoch: u32,
}

impl Marks {
    fn start_gather(&mut self) {
        if self.epoch == u32::MAX {
            self.seen_at.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks `v`; whether this gather had not taken it yet.
    fn take(&mut self, v: NodeId) -> bool {
        if v.index() >= self.seen_at.len() {
            self.seen_at.resize(v.index() + 1, 0);
        }
        let seen_at = std::mem::replace(&mut self.seen_at[v.index()], self.epoch);
        seen_at != self.epoch
    }

    /// Whether this gather has taken `v`.
    fn taken(&self, v: NodeId) -> bool {
        self.seen_at.get(v.index()) == Some(&self.epoch)
    }
}

/// A new gather of `⋃_{p ∈ parents} ({p} ∪ anc(p))`: every id of the union
/// once, in the order met.
fn gather_over_parents<'a>(
    anc: &'a PagedVec<Option<Run>>,
    parents: impl IntoIterator<Item = NodeId> + 'a,
    marks: &'a mut Marks,
) -> impl Iterator<Item = NodeId> + 'a {
    marks.start_gather();
    let p_and_above = |p| std::iter::once(p).chain(run_of(anc, p).iter().copied());
    let all = parents.into_iter().flat_map(p_and_above);
    all.filter(|&a| marks.take(a))
}

/// The Reach recurrence `out = ⋃_{p ∈ parents} ({p} ∪ anc(p))`, as a run.
/// The marks keep repeats out, so what gets sorted is the union and not the
/// concatenation (several times longer for a widely shared node).
fn union_over_parents(
    anc: &PagedVec<Option<Run>>,
    parents: impl IntoIterator<Item = NodeId>,
    marks: &mut Marks,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    out.extend(gather_over_parents(anc, parents, marks));
    out.sort_unstable();
}

/// The other direction of a family of sets: `out[x] ∋ v` iff `sets[v] ∋ x`.
/// A counting sort over one flat buffer; visiting `v` in ascending order
/// leaves every bucket a run without sorting it.
fn transpose(sets: &PagedVec<Option<Run>>) -> PagedVec<Option<Run>> {
    let members = || sets.iter().flatten().flat_map(|run| run.iter());
    let width = members().map(|x| x.index() + 1).max().unwrap_or(0);
    // Bucket `x` is `flat[start[x]..start[x + 1]]`.
    let mut start = vec![0usize; width + 1];
    for x in members() {
        start[x.index() + 1] += 1;
    }
    for x in 0..width {
        start[x + 1] += start[x];
    }
    let mut next = start.clone();
    let mut flat = vec![NodeId(0); start[width]];
    for (v, run) in sets.iter().enumerate() {
        for x in run.iter().flat_map(|run| run.iter()) {
            flat[next[x.index()]] = NodeId(v as u32);
            next[x.index()] += 1;
        }
    }
    let mut out = PagedVec::new();
    for x in 0..width {
        let bucket = &flat[start[x]..start[x + 1]];
        if !bucket.is_empty() {
            *out.get_mut(x) = Some(bucket.into());
        }
    }
    out
}

/// The stored reachability matrix.
///
/// The runs sit behind per-node `Arc`s in two copy-on-write [`PagedVec`]s
/// indexed by node id: cloning `M` (which the serving engine does for every
/// published snapshot) copies page pointers and *shares* every run, and a
/// maintenance pass replaces only the runs it rewrites plus the pages
/// holding their handles. A superseded snapshot's drop therefore frees only
/// what its round replaced — O(∆M) allocations, not O(|M|) or O(n).
#[derive(Debug, Clone, Default)]
pub struct Reachability {
    desc: PagedVec<Option<Run>>,
    anc: PagedVec<Option<Run>>,
    /// `Σ_d |anc(d)|`.
    n_pairs: usize,
}

/// The `desc`-direction edits queued by the bulk ancestor writes of one
/// maintenance fold until [`Reachability::flush`] applies them — plus the
/// scratch buffers those writes merge in.
#[derive(Debug, Default)]
pub struct ReachBatch {
    /// Per ancestor `a`, the edits of `desc(a)` in queue order: `(x, true)`
    /// adds `x`, `(x, false)` removes it.
    pending: HashMap<NodeId, Vec<(NodeId, bool)>>,
    gained: Vec<NodeId>,
    lost: Vec<NodeId>,
    merged: Vec<NodeId>,
    marks: Marks,
}

impl ReachBatch {
    /// Queues `d` under every ancestor it just gained or lost.
    fn queue(&mut self, d: NodeId) {
        for &a in &self.gained {
            self.pending.entry(a).or_default().push((d, true));
        }
        for &a in &self.lost {
            self.pending.entry(a).or_default().push((d, false));
        }
    }
}

/// `stored` with the queued `edits` applied, into `out`; `add` and `del` are
/// scratch.
fn apply_edits(
    stored: &[NodeId],
    edits: &mut [(NodeId, bool)],
    [add, del]: [&mut Vec<NodeId>; 2],
    out: &mut Vec<NodeId>,
) {
    // Stable, so an id's edits stay in queue order and its last one decides.
    edits.sort_by_key(|&(x, _)| x);
    add.clear();
    del.clear();
    for of_x in edits.chunk_by(|l, r| l.0 == r.0) {
        let &(x, added) = of_x.last().expect("chunks are non-empty");
        if added {
            add.push(x);
        } else {
            del.push(x);
        }
    }
    match (add.is_empty(), del.is_empty()) {
        (_, true) => union(stored, add, out),
        (true, false) => minus(stored, del, out),
        (false, false) => {
            let mut all = Vec::new();
            union(stored, add, &mut all);
            minus(&all, del, out);
        }
    }
}

impl Reachability {
    /// Algorithm **Reach** (Fig.4): computes `M` in `O(n |V|)` by dynamic
    /// programming over the backward topological order — for `d` processed
    /// in backward `L` order, the ancestors of `d`'s parents are already
    /// known, so `A_d = ⋃_{p ∈ parent(d)} (anc(p) ∪ {p})`.
    pub fn compute(dag: &Dag, topo: &TopoOrder) -> Self {
        let mut anc = PagedVec::new();
        let mut n_pairs = 0;
        let mut marks = Marks::default();
        let mut ad: Vec<NodeId> = Vec::new();
        // Backward over L = ancestors (later entries) first.
        for &d in topo.order().iter().rev() {
            let live_parents = dag.parents(d).iter().copied();
            let live_parents = live_parents.filter(|&p| dag.genid().is_live(p));
            union_over_parents(&anc, live_parents, &mut marks, &mut ad);
            n_pairs += ad.len();
            store(&mut anc, d, &ad);
        }
        Reachability {
            desc: transpose(&anc),
            anc,
            n_pairs,
        }
    }

    /// Naive recomputation baseline: a full BFS/DFS from every node, the
    /// `O(|V|² log |V|)`-style approach the paper contrasts Reach against.
    /// Used by the ablation bench.
    pub fn compute_naive(dag: &Dag) -> Self {
        let mut desc = PagedVec::new();
        let mut n_pairs = 0;
        // `seen_from[v] == a + 1` once the search from `a` has visited `v`.
        let mut seen_from = vec![0u32; dag.genid().n_allocated()];
        let mut seen: Vec<NodeId> = Vec::new();
        for a in dag.genid().live_ids() {
            seen.clear();
            let mut stack: Vec<NodeId> = dag.children(a).to_vec();
            while let Some(v) = stack.pop() {
                if dag.genid().is_live(v) && seen_from[v.index()] != a.0 + 1 {
                    seen_from[v.index()] = a.0 + 1;
                    seen.push(v);
                    stack.extend_from_slice(dag.children(v));
                }
            }
            seen.sort_unstable();
            n_pairs += seen.len();
            store(&mut desc, a, &seen);
        }
        Reachability {
            anc: transpose(&desc),
            desc,
            n_pairs,
        }
    }

    /// Bulk load from per-descendant ancestor sets (the checkpoint's
    /// layout): each run is stored as given and the `desc` direction is
    /// transposed from them. Fails — rather than build a matrix whose
    /// directions or counter disagree — on a `d` listed twice, on ids that
    /// do not strictly ascend, and on a `d` among its own ancestors.
    pub fn from_ancestors<'a>(
        runs: impl IntoIterator<Item = (NodeId, &'a [NodeId])>,
    ) -> Result<Self, String> {
        let mut anc = PagedVec::new();
        let mut n_pairs = 0;
        for (d, run) in runs {
            if !run_of(&anc, d).is_empty() {
                return Err(format!("node {} is listed twice", d.0));
            }
            if !is_run(run) {
                return Err(format!("ancestors of node {} do not ascend", d.0));
            }
            if run.binary_search(&d).is_ok() {
                return Err(format!("node {} is its own ancestor", d.0));
            }
            n_pairs += run.len();
            store(&mut anc, d, run);
        }
        Ok(Reachability {
            desc: transpose(&anc),
            anc,
            n_pairs,
        })
    }

    /// Whether `a` is a strict ancestor of `d`: a binary search in the
    /// shorter of `anc(d)` and `desc(a)`.
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        let (up, down) = (self.ancestors(d), self.descendants(a));
        if up.len() <= down.len() {
            up.binary_search(&a).is_ok()
        } else {
            down.binary_search(&d).is_ok()
        }
    }

    /// `desc(a)`: strict descendants of `a`, ascending.
    pub fn descendants(&self, a: NodeId) -> &[NodeId] {
        run_of(&self.desc, a)
    }

    /// `anc(d)`: strict ancestors of `d`, ascending.
    pub fn ancestors(&self, d: NodeId) -> &[NodeId] {
        run_of(&self.anc, d)
    }

    /// `desc(a)` as a later job of the same fold must see it: the stored
    /// run with `batch`'s queued edits under `a` applied.
    pub fn descendants_in<'a>(&'a self, a: NodeId, batch: &mut ReachBatch) -> Cow<'a, [NodeId]> {
        let stored = self.descendants(a);
        let ReachBatch {
            pending,
            gained,
            lost,
            ..
        } = batch;
        match pending.get_mut(&a) {
            None => Cow::Borrowed(stored),
            Some(edits) => {
                let mut out = Vec::new();
                apply_edits(stored, edits, [gained, lost], &mut out);
                Cow::Owned(out)
            }
        }
    }

    /// `anc(d) ∪= extra` (a run without `d`) — ∆(M,L)insert's write.
    /// Returns the number of pairs added; their `desc` halves are queued
    /// in `batch`.
    pub fn add_ancestors(&mut self, d: NodeId, extra: &[NodeId], batch: &mut ReachBatch) -> usize {
        debug_assert!(extra.binary_search(&d).is_err(), "M is irreflexive");
        let old = run_of(&self.anc, d);
        minus(extra, old, &mut batch.gained);
        if batch.gained.is_empty() {
            return 0;
        }
        batch.lost.clear();
        union(old, &batch.gained, &mut batch.merged);
        store(&mut self.anc, d, &batch.merged);
        self.n_pairs += batch.gained.len();
        batch.queue(d);
        batch.gained.len()
    }

    /// Replaces `anc(d)` by `new` (a run without `d`) wholesale — deletion
    /// maintenance, Fig.8 lines 9–11. Returns the number of pairs removed;
    /// the `desc` halves of every changed pair are queued in `batch`.
    pub fn set_ancestors(&mut self, d: NodeId, new: &[NodeId], batch: &mut ReachBatch) -> usize {
        debug_assert!(new.binary_search(&d).is_err(), "M is irreflexive");
        let old = run_of(&self.anc, d);
        if old == new {
            return 0;
        }
        minus(old, new, &mut batch.lost);
        minus(new, old, &mut batch.gained);
        self.n_pairs = self.n_pairs + batch.gained.len() - batch.lost.len();
        store(&mut self.anc, d, new);
        batch.queue(d);
        batch.lost.len()
    }

    /// [`Reachability::set_ancestors`] to the Reach recurrence over `d`'s
    /// `parents`, `⋃_p ({p} ∪ anc(p))` — what ∆(M,L)delete recomputes for
    /// every node below a deleted edge from the parents it has left.
    pub fn set_ancestors_from(
        &mut self,
        d: NodeId,
        parents: impl IntoIterator<Item = NodeId> + Clone,
        batch: &mut ReachBatch,
    ) -> usize {
        // Deleting edges only takes ancestors away, so the new run is the
        // old one filtered by what the parents still contribute: no sort.
        let marks = &mut batch.marks;
        let contributed = gather_over_parents(&self.anc, parents.clone(), marks).count();
        let mut new = std::mem::take(&mut batch.merged);
        new.clear();
        new.extend(run_of(&self.anc, d).iter().filter(|&&a| marks.taken(a)));
        if new.len() != contributed {
            // Some parent brings an ancestor `d` did not have: the general
            // case, which has to sort.
            union_over_parents(&self.anc, parents, marks, &mut new);
        }
        let removed = self.set_ancestors(d, &new, batch);
        batch.merged = new;
        removed
    }

    /// Forgets a garbage-collected node: `anc(d)` is emptied like any other
    /// ancestor rewrite and `desc(d)` is dropped as it stands. The caller
    /// owes every former descendant a [`Reachability::set_ancestors_from`]
    /// parents that no longer include `d` (∆(M,L)delete visits them all,
    /// ancestors first). Returns the number of pairs `(a, d)` removed.
    pub fn collect_node(&mut self, d: NodeId, batch: &mut ReachBatch) -> usize {
        store(&mut self.desc, d, &[]);
        self.set_ancestors(d, &[], batch)
    }

    /// Applies `batch`'s queued `desc`-direction edits — one rewrite per
    /// touched ancestor — and leaves it empty.
    pub fn flush(&mut self, batch: &mut ReachBatch) {
        let ReachBatch {
            pending,
            gained,
            lost,
            merged,
            ..
        } = batch;
        for (a, mut edits) in pending.drain() {
            apply_edits(run_of(&self.desc, a), &mut edits, [gained, lost], merged);
            store(&mut self.desc, a, merged);
        }
    }

    /// Number of stored pairs, the `|M|` of Fig.10(b).
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Structural equality with another matrix: both directions, node by
    /// node, and both counters against a recount.
    pub fn same_pairs(&self, other: &Reachability) -> bool {
        let width = [&self.desc, &self.anc, &other.desc, &other.anc]
            .map(PagedVec::len)
            .into_iter()
            .max()
            .unwrap_or(0);
        let mut counted = 0;
        let same_runs = (0..width as u32).map(NodeId).all(|v| {
            counted += self.ancestors(v).len();
            self.ancestors(v) == other.ancestors(v) && self.descendants(v) == other.descendants(v)
        });
        same_runs && counted == self.n_pairs && counted == other.n_pairs
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

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn reach_matches_naive() {
        let (dag, topo, _) = fixture();
        let fast = Reachability::compute(&dag, &topo);
        let naive = Reachability::compute_naive(&dag);
        assert!(fast.same_pairs(&naive));
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
    fn merge_primitives_on_edge_shapes() {
        let mut out = Vec::new();
        for (a, b, both, a_only) in [
            (&[][..], &[][..], &[][..], &[][..]),
            (&[1, 2], &[], &[1, 2], &[1, 2]),
            (&[], &[1, 2], &[1, 2], &[]),
            (&[1, 3, 5], &[1, 3, 5], &[1, 3, 5], &[]),
            (&[1, 2, 3], &[7, 8], &[1, 2, 3, 7, 8], &[1, 2, 3]),
            (&[1, 4, 6, 9], &[2, 4, 9, 10], &[1, 2, 4, 6, 9, 10], &[1, 6]),
        ] {
            union(&ids(a), &ids(b), &mut out);
            assert_eq!(out, ids(both), "{a:?} ∪ {b:?}");
            minus(&ids(a), &ids(b), &mut out);
            assert_eq!(out, ids(a_only), "{a:?} \\ {b:?}");
        }
    }

    #[test]
    fn ancestor_edits_reach_both_directions_at_the_flush() {
        let mut m = Reachability::default();
        let mut batch = ReachBatch::default();
        assert_eq!(m.add_ancestors(NodeId(9), &ids(&[1, 2, 3]), &mut batch), 3);
        assert_eq!(m.add_ancestors(NodeId(9), &ids(&[2, 3]), &mut batch), 0);
        assert_eq!(m.n_pairs(), 3);
        // `anc` is written at once; `desc` waits for the flush, but the
        // batch-aware read already sees the queued pair.
        assert_eq!(m.ancestors(NodeId(9)), ids(&[1, 2, 3]));
        assert!(m.descendants(NodeId(1)).is_empty());
        assert_eq!(*m.descendants_in(NodeId(1), &mut batch), ids(&[9]));
        m.flush(&mut batch);
        assert_eq!(m.descendants(NodeId(1)), ids(&[9]));

        assert_eq!(m.set_ancestors(NodeId(9), &ids(&[2, 4]), &mut batch), 2);
        m.flush(&mut batch);
        assert!(m.is_ancestor(NodeId(4), NodeId(9)));
        assert!(!m.is_ancestor(NodeId(1), NodeId(9)));
        assert!(m.descendants(NodeId(3)).is_empty());
        assert_eq!(m.n_pairs(), 2);
        let rebuilt =
            Reachability::from_ancestors([(NodeId(9), &ids(&[2, 4])[..])]).expect("well-formed");
        assert!(m.same_pairs(&rebuilt));
    }

    #[test]
    fn collect_node_removes_all_pairs() {
        let chain = [(NodeId(2), &ids(&[1])[..]), (NodeId(3), &ids(&[1, 2])[..])];
        let mut m = Reachability::from_ancestors(chain).expect("well-formed");
        let mut batch = ReachBatch::default();
        // ∆(M,L)delete on the chain 1 → 2 → 3 once 2 is unreachable and 3
        // keeps its other parent 1.
        assert_eq!(m.collect_node(NodeId(2), &mut batch), 1);
        assert_eq!(m.set_ancestors(NodeId(3), &ids(&[1]), &mut batch), 1);
        m.flush(&mut batch);
        assert_eq!(m.n_pairs(), 1);
        assert!(m.is_ancestor(NodeId(1), NodeId(3)));
        let rebuilt =
            Reachability::from_ancestors([(NodeId(3), &ids(&[1])[..])]).expect("well-formed");
        assert!(m.same_pairs(&rebuilt));
    }

    #[test]
    fn from_ancestors_rejects_what_the_encoder_never_writes() {
        let twice = [(NodeId(5), &ids(&[1])[..]), (NodeId(5), &ids(&[2])[..])];
        assert!(Reachability::from_ancestors(twice).is_err());
        assert!(Reachability::from_ancestors([(NodeId(5), &ids(&[2, 1])[..])]).is_err());
        assert!(Reachability::from_ancestors([(NodeId(5), &ids(&[1, 1])[..])]).is_err());
        assert!(Reachability::from_ancestors([(NodeId(5), &ids(&[1, 5])[..])]).is_err());
    }

    #[test]
    fn same_pairs_compares_both_directions_and_the_counter() {
        let (dag, topo, _) = fixture();
        let m = Reachability::compute(&dag, &topo);
        assert!(m.same_pairs(&m.clone()));
        let victim = (0..dag.genid().n_allocated() as u32)
            .map(NodeId)
            .find(|&v| m.ancestors(v).len() >= 2)
            .expect("some node has two ancestors");

        // `desc` and the counter right, one `anc` run wrong: an id swapped
        // for one that is no ancestor, so the length (and the count) holds.
        let mut wrong_anc = m.clone();
        let mut run = m.ancestors(victim).to_vec();
        run[0] = victim;
        run.sort_unstable();
        *wrong_anc.anc.get_mut(victim.index()) = Some(run.into());
        assert_eq!(wrong_anc.n_pairs, m.n_pairs);
        assert!(!m.same_pairs(&wrong_anc));
        assert!(!wrong_anc.same_pairs(&m));

        let mut wrong_count = m.clone();
        wrong_count.n_pairs += 1;
        assert!(!m.same_pairs(&wrong_count));
        assert!(!wrong_count.same_pairs(&m));
        assert!(!wrong_count.same_pairs(&wrong_count.clone()));
    }
}
