//! The reachability matrix `M` and Algorithm Reach (§3.1, Fig.4), and the
//! walks that answer reachability without it.
//!
//! `M(anc, desc)` is set iff `anc` is a (strict) ancestor of `desc`. The
//! paper keeps `M` beside `L` so that `//` evaluation and the insertion
//! cycle check are lookups. The serving system holds no `M`: every question
//! it asks is a walk over the `Dag` — down the child lists ([`descendants`],
//! the evaluator's `//` steps, the scope builder, the cycle guard, the `L`
//! repair) or up the parent lists (the ancestors of a `//` anchor) — marked
//! in a per-id `Stamps` arena, so a walk costs what it visits. `M` is
//! computed when asked for ([`Reachability::compute`]), and the paper's
//! incremental ∆M (Fig.7/8), which the bench harness runs beside the serving
//! fold (`crates/bench/src/maintain.rs`), edits it through the bulk writes
//! below.
//!
//! # Layout and cost model
//!
//! `M` stores each node's ancestors. Each per-node set is one *run*: an
//! immutable `Arc<[u64]>` of **block
//! words**. The id space is cut into blocks of 32 ids; a word is
//! `block key << 32 | 32-bit mask` (key = `id >> 5`, bit `id & 31` of the
//! mask set iff the id is in the set), a run holds one word per block that
//! has a member, keys strictly ascending, no word with an empty mask — so a
//! set has exactly one representation and runs compare as word slices.
//! Publication and lowest-free-id-first recycling keep a subtree on
//! neighbouring ids, so a word holds several ids (≈ 1.4 bytes per stored id
//! plus one 16-byte header per non-empty set, against 4 for a plain id
//! array and ≈ 25 for a B-tree set). The worst case is a run whose every id
//! sits alone in its block: 8 bytes per id.
//!
//! What each operation costs, per word rather than per id:
//!
//! - membership ([`Run::contains`], [`Reachability::is_ancestor`]): a binary
//!   search over the keys and one bit test;
//! - [`union`] / [`minus`]: one linear merge by key, `|` or `& !` per shared
//!   block, a word emptied by `minus` dropped;
//! - iteration ([`Run::iter`]): `trailing_zeros` per id, ascending;
//! - [`Run::len`]: a popcount per word (not a stored length);
//! - the Reach recurrence `⋃_p ({p} ∪ anc(p))`: every parent's words are
//!   OR-ed into a dense scratch of one mask per block of the id space and
//!   the touched blocks are emitted in key order — block keys are sorted,
//!   no id is.
//!
//! A run is never edited in place: changing a set builds its successor and
//! swaps the handle, so a clone that still holds the old handle is
//! unaffected.
//!
//! Children whose only live parent is `p` all have `anc = anc(p) ∪ {p}`,
//! and they hold that run as **one** allocation: [`Reachability::compute`]
//! stores it once per `p`, and ∆M hands a fresh such child the handle a
//! sibling holds ([`Reachability::share_sibling_run`]). The counters count
//! per node, so they do not depend on what is shared.
//!
//! Everything that writes `M` is a bulk operation: [`Reachability::compute`]
//! builds every run with the recurrence, backward over `L`;
//! [`Reachability::from_ancestors`] (which the reference crate loads its
//! closure through) stores the runs it is given; ∆M edits ancestor sets
//! wholesale ([`Reachability::add_ancestors`],
//! [`Reachability::set_ancestors`] and its recurrence form
//! [`Reachability::set_ancestors_from`], [`Reachability::collect_node`]).
//!
//! A walk costs what it reaches: it visits each node on its side of its
//! sources once and reads each of their adjacency lists once, `O(nodes +
//! edges)`, against `O(words)` for a stored run.

use crate::topo::TopoOrder;
use rxview_atg::{Dag, NodeId};
use rxview_relstore::PagedVec;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// One stored set, as block words; never empty.
type Words = Arc<[u64]>;

fn key_of(word: u64) -> u32 {
    (word >> 32) as u32
}

fn mask_of(word: u64) -> u32 {
    word as u32
}

fn word(key: u32, mask: u32) -> u64 {
    u64::from(key) << 32 | u64::from(mask)
}

/// `id`'s block key and its bit in that block's mask.
fn block_of(id: NodeId) -> (u32, u32) {
    (id.0 >> 5, 1 << (id.0 & 31))
}

/// Whether `words` is a run: keys strictly ascending, no empty mask.
fn is_run(words: &[u64]) -> bool {
    words.iter().all(|&w| mask_of(w) != 0) && words.windows(2).all(|w| key_of(w[0]) < key_of(w[1]))
}

/// A borrowed set of node ids — `anc(d)`, `desc(a)`, or a [`RunBuf`]'s
/// content: ascending, duplicate-free, possibly empty.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Run<'a> {
    words: &'a [u64],
}

impl<'a> Run<'a> {
    /// Number of ids: a popcount per word.
    pub fn len(self) -> usize {
        let ones = |&w: &u64| mask_of(w).count_ones() as usize;
        self.words.iter().map(ones).sum()
    }

    /// Whether the set holds no id.
    pub fn is_empty(self) -> bool {
        self.words.is_empty()
    }

    /// Whether `id` is in the set.
    pub fn contains(self, id: &NodeId) -> bool {
        let (key, bit) = block_of(*id);
        let at = self.words.binary_search_by_key(&key, |&w| key_of(w));
        at.is_ok_and(|i| mask_of(self.words[i]) & bit != 0)
    }

    /// The ids, ascending.
    pub fn iter(self) -> RunIter<'a> {
        RunIter {
            words: self.words.iter(),
            base: 0,
            mask: 0,
        }
    }

    /// Appends the ids, ascending, to `out`.
    pub fn extend_into(self, out: &mut Vec<NodeId>) {
        out.reserve(self.len());
        out.extend(self.iter());
    }
}

impl<'a> IntoIterator for Run<'a> {
    type Item = NodeId;
    type IntoIter = RunIter<'a>;

    fn into_iter(self) -> RunIter<'a> {
        self.iter()
    }
}

/// Equality with a list of ids in ascending order.
impl<T: AsRef<[NodeId]>> PartialEq<T> for Run<'_> {
    fn eq(&self, ids: &T) -> bool {
        self.iter().eq(ids.as_ref().iter().copied())
    }
}

impl fmt::Debug for Run<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|id| id.0)).finish()
    }
}

/// The ids of a [`Run`], ascending.
#[derive(Debug, Clone)]
pub struct RunIter<'a> {
    words: std::slice::Iter<'a, u64>,
    /// First id of the current block, and which of its ids are still to come.
    base: u32,
    mask: u32,
}

impl Iterator for RunIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.mask == 0 {
            let &w = self.words.next()?;
            self.base = key_of(w) << 5;
            self.mask = mask_of(w);
        }
        let bit = self.mask.trailing_zeros();
        self.mask &= self.mask - 1;
        Some(NodeId(self.base | bit))
    }
}

/// An owned run: what the merge primitives write, and the form the bulk
/// edits of [`Reachability`] take a set in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunBuf {
    words: Vec<u64>,
}

impl RunBuf {
    /// The set held.
    pub fn as_run(&self) -> Run<'_> {
        Run { words: &self.words }
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// The largest id held.
    pub fn last(&self) -> Option<NodeId> {
        let &w = self.words.last()?;
        Some(NodeId(key_of(w) << 5 | (31 - mask_of(w).leading_zeros())))
    }

    /// Appends `id`, which must exceed every id held.
    pub fn push(&mut self, id: NodeId) {
        debug_assert!(self.last() < Some(id), "a run is built in ascending order");
        let (key, bit) = block_of(id);
        match self.words.last_mut() {
            Some(w) if key_of(*w) == key => *w |= u64::from(bit),
            _ => self.words.push(word(key, bit)),
        }
    }
}

/// Appends ids that strictly ascend from the largest id held.
impl Extend<NodeId> for RunBuf {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, ids: I) {
        ids.into_iter().for_each(|id| self.push(id));
    }
}

/// Collects ids that strictly ascend.
impl FromIterator<NodeId> for RunBuf {
    fn from_iter<I: IntoIterator<Item = NodeId>>(ids: I) -> Self {
        let mut buf = RunBuf::default();
        buf.extend(ids);
        buf
    }
}

/// `out = a ∪ b`.
pub fn union(a: Run<'_>, b: Run<'_>, out: &mut RunBuf) {
    let (a, b) = (a.words, b.words);
    debug_assert!(is_run(a) && is_run(b), "union takes runs");
    let out = &mut out.words;
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        match key_of(x).cmp(&key_of(y)) {
            Ordering::Less => {
                out.push(x);
                i += 1;
            }
            Ordering::Greater => {
                out.push(y);
                j += 1;
            }
            Ordering::Equal => {
                // Equal keys OR to themselves.
                out.push(x | y);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// `out = a \ b`.
pub fn minus(a: Run<'_>, b: Run<'_>, out: &mut RunBuf) {
    let (a, b) = (a.words, b.words);
    debug_assert!(is_run(a) && is_run(b), "minus takes runs");
    let out = &mut out.words;
    out.clear();
    let mut j = 0;
    for &x in a {
        while j < b.len() && key_of(b[j]) < key_of(x) {
            j += 1;
        }
        let shared = b.get(j).filter(|&&y| key_of(y) == key_of(x));
        let mask = mask_of(x) & !shared.map_or(0, |&y| mask_of(y));
        if mask != 0 {
            out.push(word(key_of(x), mask));
        }
    }
}

/// One mask per block of the id space, in which a union is accumulated a
/// word at a time, and the blocks it touched: 4 bytes per 32 allocated ids.
#[derive(Debug, Default)]
struct BlockScratch {
    masks: Vec<u32>,
    touched: Vec<u32>,
}

impl BlockScratch {
    fn add(&mut self, key: u32, mask: u32) {
        let k = key as usize;
        if k >= self.masks.len() {
            self.masks.resize(k + 1, 0);
        }
        if self.masks[k] == 0 {
            self.touched.push(key);
        }
        self.masks[k] |= mask;
    }

    /// The Reach recurrence `⋃_{v ∈ nodes} ({v} ∪ anc(v))`, into `out`:
    /// `anc(d)` over `d`'s parents. Leaves the scratch blank.
    fn union_over(
        &mut self,
        sets: &PagedVec<Option<Words>>,
        nodes: impl IntoIterator<Item = NodeId>,
        out: &mut RunBuf,
    ) {
        for v in nodes {
            let (key, bit) = block_of(v);
            self.add(key, bit);
            for &w in words_of(sets, v) {
                self.add(key_of(w), mask_of(w));
            }
        }
        let BlockScratch { masks, touched } = self;
        // Block keys, a fifth of the ids or fewer: no id is sorted.
        touched.sort_unstable();
        let emptied = |key: u32| word(key, std::mem::take(&mut masks[key as usize]));
        out.clear();
        out.words.extend(touched.drain(..).map(emptied));
    }
}

fn words_of(sets: &PagedVec<Option<Words>>, v: NodeId) -> &[u64] {
    match sets.get(v.index()) {
        Some(Some(words)) => words,
        _ => &[],
    }
}

/// Replaces `v`'s set by the run `words`, keeping the count of stored words.
fn store(sets: &mut PagedVec<Option<Words>>, n_words: &mut usize, v: NodeId, words: &[u64]) {
    store_handle(sets, n_words, v, (!words.is_empty()).then(|| words.into()));
}

/// [`store`] of a run already allocated, `None` for the empty set.
fn store_handle(
    sets: &mut PagedVec<Option<Words>>,
    n_words: &mut usize,
    v: NodeId,
    words: Option<Words>,
) {
    debug_assert!(words.as_deref().is_none_or(|w| !w.is_empty() && is_run(w)));
    let new = words.as_deref().unwrap_or_default();
    let old = words_of(sets, v).len();
    *n_words = *n_words - old + new.len();
    match words {
        Some(_) => *sets.get_mut(v.index()) = words,
        // A page left with no set is the shared blank page.
        None => sets.clear(v.index()),
    }
}

/// `d`'s live parent when it has exactly one.
pub(crate) fn only_parent(dag: &Dag, d: NodeId) -> Option<NodeId> {
    let mut live = dag
        .parents(d)
        .iter()
        .copied()
        .filter(|&p| dag.genid().is_live(p));
    let p = live.next()?;
    live.next().is_none().then_some(p)
}

/// The stored reachability matrix: per node, its ancestors.
///
/// The runs sit behind per-node `Arc`s in one copy-on-write [`PagedVec`]
/// indexed by node id: cloning `M` (which the serving engine does for every
/// published snapshot) copies page pointers and *shares* every run, and a
/// maintenance pass replaces only the runs it rewrites plus the pages
/// holding their handles. A superseded snapshot's drop therefore frees only
/// what its round replaced — O(∆M) allocations, not O(|M|) or O(n).
#[derive(Debug, Clone, Default)]
pub struct Reachability {
    anc: PagedVec<Option<Words>>,
    /// `Σ_d |anc(d)|`.
    n_pairs: usize,
    /// Words stored.
    n_words: usize,
}

/// The scratch buffers the bulk ancestor writes of one maintenance fold
/// merge in, and what the last of them removed.
#[derive(Debug, Default)]
pub struct ReachBatch {
    gained: RunBuf,
    lost: RunBuf,
    merged: RunBuf,
    scratch: BlockScratch,
}

impl ReachBatch {
    /// The ancestors the last rewrite of an `anc` run removed.
    pub fn lost(&self) -> Run<'_> {
        self.lost.as_run()
    }
}

/// Bulk load of `M` from per-descendant ancestor sets (what
/// [`Reachability::compute`] derives, and what
/// [`Reachability::from_ancestors`] is given), one run per node, stored as
/// given — once for all the children of one `p` that have no other parent
/// when `compute` names `p`.
#[derive(Debug, Default)]
struct AncestorLoad {
    anc: PagedVec<Option<Words>>,
    n_pairs: usize,
    n_words: usize,
    /// At each parent `p`, the run the first of its only-parent children
    /// was given: `anc(p) ∪ {p}` in a consistent matrix. Dropped with the
    /// load.
    by_parent: Vec<Option<Words>>,
}

impl AncestorLoad {
    /// Sets `anc(d)`. Fails — rather than build a matrix whose runs or
    /// counter disagree — on a `d` listed twice and on a `d` among its own
    /// ancestors.
    fn add(&mut self, d: NodeId, ancestors: Run<'_>) -> Result<(), String> {
        if !words_of(&self.anc, d).is_empty() {
            return Err(format!("node {} is listed twice", d.0));
        }
        if ancestors.contains(&d) {
            return Err(format!("node {} is its own ancestor", d.0));
        }
        self.put(d, None, ancestors);
        Ok(())
    }

    /// Sets `anc(d)`, where `only_parent` is `d`'s one live parent if it
    /// has exactly one. A run equal to the one an earlier child of
    /// `only_parent` was given is stored as that child's
    /// allocation; any other run as one of its own.
    fn put(&mut self, d: NodeId, only_parent: Option<NodeId>, ancestors: Run<'_>) {
        self.n_pairs += ancestors.len();
        let words = ancestors.words;
        let handle = match only_parent {
            _ if words.is_empty() => None,
            Some(p) => {
                if self.by_parent.len() <= p.index() {
                    self.by_parent.resize(p.index() + 1, None);
                }
                let sibling = self.by_parent[p.index()].get_or_insert_with(|| words.into());
                Some(if **sibling == *words {
                    sibling.clone()
                } else {
                    words.into()
                })
            }
            None => Some(words.into()),
        };
        store_handle(&mut self.anc, &mut self.n_words, d, handle);
    }

    /// The matrix of the sets added.
    fn finish(self) -> Reachability {
        Reachability {
            anc: self.anc,
            n_pairs: self.n_pairs,
            n_words: self.n_words,
        }
    }
}

impl Reachability {
    /// Algorithm **Reach** (Fig.4): computes `M` in `O(n |V|)` by dynamic
    /// programming over the backward topological order — for `d` processed
    /// in backward `L` order, the ancestors of `d`'s parents are already
    /// known, so `A_d = ⋃_{p ∈ parent(d)} (anc(p) ∪ {p})`.
    pub fn compute(dag: &Dag, topo: &TopoOrder) -> Self {
        let live = |v: &NodeId| dag.genid().is_live(*v);
        let mut scratch = BlockScratch::default();
        let mut run = RunBuf::default();
        let mut load = AncestorLoad::default();
        // Backward over L = ancestors (later entries) first.
        for &d in topo.order().iter().rev() {
            let parents = dag.parents(d).iter().copied().filter(live);
            scratch.union_over(&load.anc, parents, &mut run);
            load.put(d, only_parent(dag, d), run.as_run());
        }
        load.finish()
    }

    /// Bulk load from `(d, anc(d))` lists of ids through an
    /// `AncestorLoad`, with its checks and one more: the ids of a list
    /// must strictly ascend.
    pub fn from_ancestors<I: IntoIterator<Item = NodeId>>(
        runs: impl IntoIterator<Item = (NodeId, I)>,
    ) -> Result<Self, String> {
        let mut load = AncestorLoad::default();
        let mut run = RunBuf::default();
        for (d, ids) in runs {
            run.clear();
            for a in ids {
                if run.last() >= Some(a) {
                    return Err(format!("ancestors of node {} do not ascend", d.0));
                }
                run.push(a);
            }
            load.add(d, run.as_run())?;
        }
        Ok(load.finish())
    }

    /// Whether `a` is a strict ancestor of `d`: one search in `anc(d)`.
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        self.ancestors(d).contains(&a)
    }

    /// `anc(d)`: strict ancestors of `d`.
    pub fn ancestors(&self, d: NodeId) -> Run<'_> {
        let words = words_of(&self.anc, d);
        Run { words }
    }

    /// `anc(d) ∪= extra` (a set without `d`) — ∆(M,L)insert's write.
    /// Returns the number of pairs added.
    pub fn add_ancestors(&mut self, d: NodeId, extra: Run<'_>, batch: &mut ReachBatch) -> usize {
        debug_assert!(!extra.contains(&d), "M is irreflexive");
        let old = self.ancestors(d);
        minus(extra, old, &mut batch.gained);
        if batch.gained.words.is_empty() {
            return 0;
        }
        union(old, batch.gained.as_run(), &mut batch.merged);
        store(&mut self.anc, &mut self.n_words, d, &batch.merged.words);
        let added = batch.gained.as_run().len();
        self.n_pairs += added;
        added
    }

    /// `anc(d) ∖= gone` — ∆(M,L)delete's write when it knows which
    /// ancestors `d` may have lost. Returns the number of pairs removed.
    pub fn remove_ancestors(&mut self, d: NodeId, gone: Run<'_>, batch: &mut ReachBatch) -> usize {
        let old = self.ancestors(d);
        let mut new = std::mem::take(&mut batch.merged);
        minus(old, gone, &mut new);
        let removed = self.set_ancestors(d, new.as_run(), batch);
        batch.merged = new;
        removed
    }

    /// Replaces `anc(d)` by `new` (a set without `d`) wholesale — deletion
    /// maintenance, Fig.8 lines 9–11. Returns the number of pairs removed;
    /// the batch keeps them for the delete pass.
    pub fn set_ancestors(&mut self, d: NodeId, new: Run<'_>, batch: &mut ReachBatch) -> usize {
        debug_assert!(!new.contains(&d), "M is irreflexive");
        let old = self.ancestors(d);
        if old == new {
            return 0;
        }
        minus(old, new, &mut batch.lost);
        minus(new, old, &mut batch.gained);
        let removed = batch.lost.as_run().len();
        self.n_pairs = self.n_pairs + batch.gained.as_run().len() - removed;
        store(&mut self.anc, &mut self.n_words, d, new.words);
        removed
    }

    /// [`Reachability::set_ancestors`] to the Reach recurrence over `d`'s
    /// `parents`, `⋃_p ({p} ∪ anc(p))` — what ∆(M,L)delete recomputes for
    /// every node below a deleted edge from the parents it has left.
    pub fn set_ancestors_from(
        &mut self,
        d: NodeId,
        parents: impl IntoIterator<Item = NodeId>,
        batch: &mut ReachBatch,
    ) -> usize {
        let mut new = std::mem::take(&mut batch.merged);
        batch.scratch.union_over(&self.anc, parents, &mut new);
        let removed = self.set_ancestors(d, new.as_run(), batch);
        batch.merged = new;
        removed
    }

    /// Gives `v`, a node with one live parent `p`, the allocation of the
    /// run another such child of `p` holds, if the two runs are equal — as
    /// they are in an exact matrix, where both are `anc(p) ∪ {p}`. What a
    /// maintenance fold calls on the nodes it makes, once their runs are
    /// exact; it writes no id and keeps the counters.
    pub fn share_sibling_run(&mut self, dag: &Dag, v: NodeId) {
        let Some(p) = only_parent(dag, v) else {
            return;
        };
        let Some(Some(own)) = self.anc.get(v.index()) else {
            return;
        };
        let mut siblings = dag.children(p).iter().copied();
        let sibling = siblings.find(|&c| c != v && only_parent(dag, c) == Some(p));
        let Some(Some(theirs)) = sibling.and_then(|c| self.anc.get(c.index())) else {
            return;
        };
        if !Arc::ptr_eq(own, theirs) && own == theirs {
            let shared = Some(theirs.clone());
            *self.anc.get_mut(v.index()) = shared;
        }
    }

    /// Whether `a` and `b` hold their `anc` runs in one allocation.
    pub fn same_run(&self, a: NodeId, b: NodeId) -> bool {
        match (self.anc.get(a.index()), self.anc.get(b.index())) {
            (Some(Some(x)), Some(Some(y))) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    /// Number of distinct run allocations held.
    #[cfg(test)]
    pub(crate) fn n_allocations(&self) -> usize {
        let runs = self.anc.iter().flatten().map(|w| w.as_ptr());
        runs.collect::<std::collections::HashSet<_>>().len()
    }

    /// Forgets a garbage-collected node: `anc(d)` is emptied like any other
    /// ancestor rewrite. The caller owes every former descendant a
    /// [`Reachability::set_ancestors_from`] parents that no longer include
    /// `d` (∆(M,L)delete visits them all, ancestors first). Returns the
    /// number of pairs `(a, d)` removed.
    pub fn collect_node(&mut self, d: NodeId, batch: &mut ReachBatch) -> usize {
        self.set_ancestors(d, Run::default(), batch)
    }

    /// Number of stored pairs, the `|M|` of Fig.10(b).
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Number of block words stored: `n_pairs / n_words` ids per word.
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// Structural equality with another matrix: the runs, node by node, and
    /// both counters against a recount.
    pub fn same_pairs(&self, other: &Reachability) -> bool {
        let width = self.anc.len().max(other.anc.len());
        let (mut pairs, mut words) = (0, 0);
        let same_runs = (0..width as u32).map(NodeId).all(|v| {
            let up = self.ancestors(v);
            pairs += up.len();
            words += up.words.len();
            up == other.ancestors(v)
        });
        same_runs
            && [self.n_pairs, other.n_pairs] == [pairs; 2]
            && [self.n_words, other.n_words] == [words; 2]
    }
}

/// A per-id generation arena: one `u32` stamp per node id, and the running
/// generation. An id is marked in the running generation iff its stamp is
/// the generation, so starting a new one clears nothing — a user writes a
/// stamp per id it marks, whatever the size of the view. The evaluator's
/// scope and [`DescWalk`]'s reached set are both one.
#[derive(Debug, Default)]
pub(crate) struct Stamps {
    /// Per node id, the generation that last marked it.
    stamp: Vec<u32>,
    /// The running generation; 0 is no generation's.
    generation: u32,
}

impl Stamps {
    /// Starts a new generation over the ids below `n_ids`, growing (never
    /// shrinking) the arena to cover them: no id is marked. Whether the
    /// arena was zeroed whole — once every 2^32 generations, when the
    /// counter wraps and restarts at 1.
    pub(crate) fn begin(&mut self, n_ids: usize) -> bool {
        if self.stamp.len() < n_ids {
            self.stamp.resize(n_ids, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        let wrapped = self.generation == 0;
        if wrapped {
            self.stamp.fill(0);
            self.generation = 1;
        }
        wrapped
    }

    /// Marks `v` — an id below the `n_ids` the generation began with;
    /// whether it was not marked yet. (No growth check here: one in the
    /// walk's inner loop made it half as fast again.)
    pub(crate) fn mark(&mut self, v: NodeId) -> bool {
        let stamp = &mut self.stamp[v.index()];
        std::mem::replace(stamp, self.generation) != self.generation
    }

    /// Whether the running generation marked `v` (any id; one past the
    /// arena was never marked).
    pub(crate) fn holds(&self, v: NodeId) -> bool {
        self.stamp.get(v.index()) == Some(&self.generation)
    }

    /// The arena's length in ids.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.stamp.len()
    }
}

/// A descendant set, now that `M` stores ancestors only: a walk down the
/// `Dag`'s child lists. Each node the walk reaches is marked in the set's
/// generation of a [`Stamps`] arena, so it is reached once. The nodes
/// reached are their own work list — the walk expands its output in order,
/// breadth first. One walk per thread ([`with_walk`]) serves the
/// evaluator's `//` steps, the scope builder and the maintenance fold, so
/// no call allocates `O(|V|)`.
#[derive(Debug, Default)]
pub(crate) struct DescWalk {
    reached: Stamps,
}

impl DescWalk {
    /// Starts a new set over the ids below `n_ids`: no node is reached.
    pub(crate) fn begin(&mut self, n_ids: usize) {
        self.reached.begin(n_ids);
    }

    /// Marks `v` — an id below the `n_ids` the set began with — reached;
    /// whether the set had not reached it yet.
    pub(crate) fn reach(&mut self, v: NodeId) -> bool {
        self.reached.mark(v)
    }

    /// Walks below `out[from..]`, nodes the set has reached: each of
    /// `children(u)` — the children of `u` worth entering — that the set had
    /// not reached is appended to `out` and walked in turn. Stops once `out`
    /// holds more than `limit` nodes, and then returns `false`.
    pub(crate) fn run<I: IntoIterator<Item = NodeId>>(
        &mut self,
        out: &mut Vec<NodeId>,
        from: usize,
        limit: usize,
        mut children: impl FnMut(NodeId) -> I,
    ) -> bool {
        let mut next = from;
        while let Some(&u) = out.get(next) {
            if out.len() > limit {
                return false;
            }
            next += 1;
            for c in children(u) {
                if self.reach(c) {
                    out.push(c);
                }
            }
        }
        out.len() <= limit
    }

    /// Whether the set has reached `v`.
    pub(crate) fn holds(&self, v: NodeId) -> bool {
        self.reached.holds(v)
    }

    /// Starts a new set and appends to `out` each strict ancestor of `a`
    /// once: a walk up the live parent lists, nearest first. Stops past
    /// `limit` like [`DescWalk::run`].
    pub(crate) fn ancestors(
        &mut self,
        dag: &Dag,
        a: NodeId,
        out: &mut Vec<NodeId>,
        limit: usize,
    ) -> bool {
        let n_ids = dag.genid().n_allocated();
        self.begin(n_ids);
        let from = out.len();
        if a.index() < n_ids {
            self.reach(a);
            let live = |p: &NodeId| dag.genid().is_live(*p);
            for p in dag.parents(a).iter().copied().filter(live) {
                if self.reach(p) {
                    out.push(p);
                }
            }
            let within = self.run(out, from, limit, |u| {
                dag.parents(u).iter().copied().filter(live)
            });
            #[cfg(test)]
            ANCESTOR_IDS.with(|c| c.set(c.get() + out.len() - from));
            return within;
        }
        out.len() <= limit
    }

    /// Starts a new set and appends to `out` each node of `sources` and
    /// below them once, sources first: `{s} ∪ desc(s)` over the sources (an
    /// id the interner never handed out names no node, and is skipped).
    /// Stops past `limit` like [`DescWalk::run`].
    pub(crate) fn closure(
        &mut self,
        dag: &Dag,
        sources: impl IntoIterator<Item = NodeId>,
        out: &mut Vec<NodeId>,
        limit: usize,
    ) -> bool {
        let n_ids = dag.genid().n_allocated();
        self.begin(n_ids);
        let from = out.len();
        for s in sources.into_iter().filter(|s| s.index() < n_ids) {
            if self.reach(s) {
                out.push(s);
            }
        }
        self.run(out, from, limit, |u| dag.children(u).iter().copied())
    }
}

thread_local! {
    static WALK: RefCell<DescWalk> = RefCell::new(DescWalk::default());
}

/// Runs `f` on this thread's [`DescWalk`] — or, inside another call that
/// holds it, on a walk of its own.
pub(crate) fn with_walk<R>(f: impl FnOnce(&mut DescWalk) -> R) -> R {
    WALK.with(|walk| match walk.try_borrow_mut() {
        Ok(mut walk) => f(&mut walk),
        Err(_) => f(&mut DescWalk::default()),
    })
}

#[cfg(test)]
thread_local! {
    /// Ids the ancestor walks of this thread reached — the cost-model
    /// guard's count of what a `//` anchor's ancestors cost.
    pub(crate) static ANCESTOR_IDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// `anc(a)`: the strict ancestors of `a` in `dag`, ascending.
pub fn ancestors(dag: &Dag, a: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    with_walk(|walk| walk.ancestors(dag, a, &mut out, usize::MAX));
    out.sort_unstable();
    out
}

#[cfg(test)]
thread_local! {
    /// Child lists the cycle guard read on this thread — the cost-model
    /// guard's work counter.
    pub(crate) static GUARD_CHILD_READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The insertion cycle guard: connecting `targets` to an inserted subtree
/// `ST(A, t)` closes a cycle iff one of its pre-existing nodes — `shared`:
/// only these have edges yet, and fresh nodes reach only through them — is
/// a target or an ancestor of one. One walk down from `shared`, which
/// never enters a node `L` places below every target: a node reaches only
/// nodes `L` lists before it, so none of those reaches a target. `topo`
/// must be valid for `dag` — the updates before this one folded.
pub fn closes_cycle(
    dag: &Dag,
    topo: &TopoOrder,
    shared: impl IntoIterator<Item = NodeId>,
    targets: &[NodeId],
) -> bool {
    let mut targets = targets.to_vec();
    targets.sort_unstable();
    let is_target = |v: &NodeId| targets.binary_search(v).is_ok();
    let floor = targets.iter().map(|&t| topo.position(t).unwrap_or(0)).min();
    let Some(floor) = floor else {
        return false;
    };
    let above = |c: &NodeId| topo.position(*c).is_none_or(|p| p >= floor);
    let mut reached = Vec::new();
    let n_ids = dag.genid().n_allocated();
    with_walk(|walk| {
        walk.begin(n_ids);
        for w in shared.into_iter().filter(|w| w.index() < n_ids && above(w)) {
            if walk.reach(w) {
                reached.push(w);
            }
        }
        walk.run(&mut reached, 0, usize::MAX, |u| {
            #[cfg(test)]
            GUARD_CHILD_READS.with(|c| c.set(c.get() + 1));
            dag.children(u).iter().copied().filter(above)
        });
    });
    reached.iter().any(is_target)
}

/// `desc(a)`: the strict descendants of `a` in `dag`, ascending.
pub fn descendants(dag: &Dag, a: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    with_walk(|walk| walk.closure(dag, [a], &mut out, usize::MAX));
    if !out.is_empty() {
        out.swap_remove(0);
    }
    out.sort_unstable();
    out
}

/// The children of each node that have no other live parent, where there
/// are two or more: the runs each group must hold as one allocation.
#[cfg(test)]
pub(crate) fn only_children(dag: &Dag) -> Vec<Vec<NodeId>> {
    let mut by_parent = std::collections::BTreeMap::<NodeId, Vec<NodeId>>::new();
    for v in dag.genid().live_ids() {
        if let Some(p) = only_parent(dag, v) {
            by_parent.entry(p).or_default().push(v);
        }
    }
    by_parent.into_values().filter(|g| g.len() > 1).collect()
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

    fn run(raw: &[u32]) -> RunBuf {
        raw.iter().copied().map(NodeId).collect()
    }

    /// Whether each group is one allocation, and the groups are distinct
    /// ones.
    fn shared_per_group(m: &Reachability, groups: &[Vec<NodeId>]) -> bool {
        let one_each = groups
            .iter()
            .all(|g| g.iter().all(|&v| m.same_run(g[0], v)));
        let heads = groups.iter().map(|g| g[0]);
        let distinct = heads
            .clone()
            .enumerate()
            .all(|(i, a)| heads.clone().skip(i + 1).all(|b| !m.same_run(a, b)));
        one_each && distinct
    }

    #[test]
    fn only_children_hold_one_run_after_compute_and_after_a_checkpoint_load() {
        use crate::codec::{decode_system, encode_system};
        let db = registrar_database();
        let sys = crate::XmlViewSystem::new(registrar_atg(&db).unwrap(), db).unwrap();
        let dag = sys.view().dag();
        let groups = only_children(dag);
        assert!(groups.len() >= 3, "{groups:?}");
        let computed = Reachability::compute(dag, sys.topo());
        let mut bytes = Vec::new();
        encode_system(&sys, &mut bytes);
        let reader = &mut rxview_relstore::codec::Reader::new(&bytes);
        let back = decode_system(sys.view().atg(), reader).unwrap();
        for m in [&computed, &sys.reach(), &back.reach()] {
            assert!(shared_per_group(m, &groups));
            assert!(m.same_pairs(&computed));
        }
        // Nothing else shares: a node with two parents keeps its own run.
        let shared_nodes: usize = groups.iter().map(Vec::len).sum();
        let runs = dag
            .genid()
            .live_ids()
            .filter(|&v| !computed.ancestors(v).is_empty());
        let saved = runs.count() - computed.n_allocations();
        assert_eq!(saved, shared_nodes - groups.len());
    }

    #[test]
    fn rewriting_one_only_child_leaves_its_siblings_and_a_pinned_clone() {
        let (dag, topo, _) = fixture();
        let mut m = Reachability::compute(&dag, &topo);
        let group = only_children(&dag).swap_remove(0);
        let (v, w) = (group[0], group[1]);
        let was: Vec<NodeId> = m.ancestors(v).iter().collect();
        let pinned = m.clone();
        let fewer: RunBuf = was.iter().copied().skip(1).collect();
        m.set_ancestors(v, fewer.as_run(), &mut ReachBatch::default());
        assert!(!m.same_run(v, w) && m.ancestors(v) == &was[1..]);
        assert!(group[1..]
            .iter()
            .all(|&x| m.same_run(w, x) && m.ancestors(x) == was));
        assert!(pinned.same_run(v, w) && pinned.ancestors(v) == was);
    }

    #[test]
    fn root_reaches_everything() {
        let (dag, topo, _) = fixture();
        let m = Reachability::compute(&dag, &topo);
        let below = descendants(&dag, dag.root());
        assert_eq!(below.len(), dag.n_nodes() - 1);
        assert!(below.iter().all(|&d| m.is_ancestor(dag.root(), d)));
        assert!(m.ancestors(dag.root()).is_empty());
    }

    #[test]
    fn a_walk_stops_past_its_limit_and_a_set_reaches_a_node_once() {
        let (dag, _, _) = fixture();
        let root = dag.root();
        let mut out = Vec::new();
        with_walk(|walk| {
            assert!(!walk.closure(&dag, [root], &mut out, 3));
            assert!(out.len() > 3 && out.len() < dag.n_nodes());
            out.clear();
            assert!(walk.closure(&dag, [root, root], &mut out, usize::MAX));
            assert_eq!(out.len(), dag.n_nodes());
            // A new set reaches every node again.
            assert!(walk.closure(&dag, [root], &mut out, usize::MAX));
            assert_eq!(out.len(), 2 * dag.n_nodes());
        });
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
        let mut out = RunBuf::default();
        for (a, b, both, a_only) in [
            (&[][..], &[][..], &[][..], &[][..]),
            (&[1, 2], &[], &[1, 2], &[1, 2]),
            (&[], &[1, 2], &[1, 2], &[]),
            (&[1, 3, 5], &[1, 3, 5], &[1, 3, 5], &[]),
            (&[1, 2, 3], &[7, 8], &[1, 2, 3, 7, 8], &[1, 2, 3]),
            (&[1, 4, 6, 9], &[2, 4, 9, 10], &[1, 2, 4, 6, 9, 10], &[1, 6]),
            // Across block edges: a word emptied, a word kept in part.
            (&[31, 32, 64], &[32, 64, 65], &[31, 32, 64, 65], &[31]),
            (&[5, 40, 100], &[40], &[5, 40, 100], &[5, 100]),
        ] {
            union(run(a).as_run(), run(b).as_run(), &mut out);
            assert_eq!(out.as_run(), ids(both), "{a:?} ∪ {b:?}");
            assert!(is_run(&out.words));
            minus(run(a).as_run(), run(b).as_run(), &mut out);
            assert_eq!(out.as_run(), ids(a_only), "{a:?} \\ {b:?}");
            assert!(is_run(&out.words));
        }
    }

    #[test]
    fn a_run_reads_as_the_ids_it_was_built_from() {
        let raw = [0, 31, 32, 63, 64, 1000, u32::MAX - 32, u32::MAX];
        let buf = run(&raw);
        assert_eq!(buf.words.len(), 6);
        assert_eq!(buf.as_run(), ids(&raw));
        assert_eq!(buf.as_run().len(), raw.len());
        assert_eq!(buf.last(), Some(NodeId(u32::MAX)));
        for x in raw {
            assert!(buf.as_run().contains(&NodeId(x)));
        }
        for x in [1, 30, 33, 65, 999, u32::MAX - 1] {
            assert!(!buf.as_run().contains(&NodeId(x)));
        }
        assert!(Run::default().is_empty() && Run::default().iter().next().is_none());
    }

    #[test]
    fn ancestor_edits_are_written_at_once() {
        let mut m = Reachability::default();
        let mut batch = ReachBatch::default();
        assert_eq!(
            m.add_ancestors(NodeId(9), run(&[1, 2, 3]).as_run(), &mut batch),
            3
        );
        assert_eq!(
            m.add_ancestors(NodeId(9), run(&[2, 3]).as_run(), &mut batch),
            0
        );
        assert_eq!(m.n_pairs(), 3);
        assert_eq!(m.ancestors(NodeId(9)), ids(&[1, 2, 3]));
        assert!(m.is_ancestor(NodeId(1), NodeId(9)));
        assert_eq!(m.n_words(), 1);

        assert_eq!(
            m.set_ancestors(NodeId(9), run(&[2, 4]).as_run(), &mut batch),
            2
        );
        assert_eq!(batch.lost(), ids(&[1, 3]));
        assert!(m.is_ancestor(NodeId(4), NodeId(9)));
        assert!(!m.is_ancestor(NodeId(1), NodeId(9)));
        assert_eq!(m.n_pairs(), 2);
        let rebuilt =
            Reachability::from_ancestors([(NodeId(9), ids(&[2, 4]))]).expect("well-formed");
        assert!(m.same_pairs(&rebuilt));
    }

    #[test]
    fn collect_node_removes_all_pairs() {
        let chain = [(NodeId(2), ids(&[1])), (NodeId(3), ids(&[1, 2]))];
        let mut m = Reachability::from_ancestors(chain).expect("well-formed");
        let mut batch = ReachBatch::default();
        // ∆(M,L)delete on the chain 1 → 2 → 3 once 2 is unreachable and 3
        // keeps its other parent 1.
        assert_eq!(m.collect_node(NodeId(2), &mut batch), 1);
        assert_eq!(
            m.set_ancestors(NodeId(3), run(&[1]).as_run(), &mut batch),
            1
        );
        assert_eq!(m.n_pairs(), 1);
        assert!(m.is_ancestor(NodeId(1), NodeId(3)));
        let rebuilt = Reachability::from_ancestors([(NodeId(3), ids(&[1]))]).expect("well-formed");
        assert!(m.same_pairs(&rebuilt));
    }

    #[test]
    fn from_ancestors_rejects_what_the_encoder_never_writes() {
        let twice = [(NodeId(5), ids(&[1])), (NodeId(5), ids(&[2]))];
        assert!(Reachability::from_ancestors(twice).is_err());
        assert!(Reachability::from_ancestors([(NodeId(5), ids(&[2, 1]))]).is_err());
        assert!(Reachability::from_ancestors([(NodeId(5), ids(&[1, 1]))]).is_err());
        assert!(Reachability::from_ancestors([(NodeId(5), ids(&[1, 5]))]).is_err());
    }

    #[test]
    fn same_pairs_compares_the_runs_and_the_counters() {
        let (dag, topo, _) = fixture();
        let m = Reachability::compute(&dag, &topo);
        assert!(m.same_pairs(&m.clone()));
        let victim = (0..dag.genid().n_allocated() as u32)
            .map(NodeId)
            .find(|&v| m.ancestors(v).len() >= 2)
            .expect("some node has two ancestors");

        // The counters right, one run wrong: an id swapped for one that is
        // no ancestor, so the length (and the count) holds.
        let mut wrong_anc = m.clone();
        let mut swapped: Vec<NodeId> = m.ancestors(victim).iter().skip(1).collect();
        swapped.push(victim);
        swapped.sort_unstable();
        let swapped: RunBuf = swapped.into_iter().collect();
        *wrong_anc.anc.get_mut(victim.index()) = Some(swapped.words.into());
        assert!(!m.same_pairs(&wrong_anc));
        assert!(!wrong_anc.same_pairs(&m));

        for (pairs, words) in [(1, 0), (0, 1)] {
            let mut wrong_count = m.clone();
            wrong_count.n_pairs += pairs;
            wrong_count.n_words += words;
            assert!(!m.same_pairs(&wrong_count));
            assert!(!wrong_count.same_pairs(&m));
            assert!(!wrong_count.same_pairs(&wrong_count.clone()));
        }
    }
}
