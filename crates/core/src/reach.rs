//! The reachability matrix `M` and Algorithm Reach (§3.1, Fig.4).
//!
//! `M` supports the `//` axis on DAGs: `M(anc, desc)` is set iff `anc` is a
//! (strict) ancestor of `desc`. Following the paper, only the set bits are
//! stored — as a relation `M(anc, desc)`, realized here as adjacency sets in
//! both directions so `anc(a)` and `desc(a)` are each one lookup.
//!
//! # Layout and cost model
//!
//! Each per-node set is one *run*: an immutable `Arc<[u64]>` of **block
//! words**. The id space is cut into blocks of 32 ids; a word is
//! `block key << 32 | 32-bit mask` (key = `id >> 5`, bit `id & 31` of the
//! mask set iff the id is in the set), a run holds one word per block that
//! has a member, keys strictly ascending, no word with an empty mask — so a
//! set has exactly one representation and runs compare as word slices.
//! Publication and lowest-free-id-first recycling keep a subtree on
//! neighbouring ids, so a word holds ≈ 5.6 ids (≈ 1.4 bytes per stored id
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
//! - iteration ([`Run::iter`]): `trailing_zeros` per id, ascending — so what
//!   the evaluators, the `L` repairs and the checkpoint encoder see is the
//!   order an id array gave them;
//! - [`Run::len`]: a popcount per word (not a stored length);
//! - the Reach recurrence `⋃_p ({p} ∪ anc(p))` (and its mirror over
//!   children, `⋃_c ({c} ∪ desc(c))`): every parent's words are OR-ed into
//!   a dense scratch of one mask per block of the id space and the touched
//!   blocks are emitted in key order — block keys are sorted, no id is.
//!
//! A run is never edited in place: changing a set builds its successor and
//! swaps the handle, so a snapshot that still holds the old handle is
//! unaffected and releasing it frees one allocation, not a tree.
//!
//! That makes the unit of cost "one rewrite of a touched set", `O(words)`,
//! and a single-pair insert would cost exactly that — which is why there is
//! none. Everything that writes `M` is a bulk operation:
//!
//! - [`Reachability::compute`] builds both directions run by run with the
//!   recurrence, `anc` backward over `L` and `desc` forward;
//!   `AncestorLoad` (under [`Reachability::from_ancestors`] and the
//!   checkpoint decoder) builds one direction and derives the other with
//!   one counting-sort transposition over words — a loaded `desc` must
//!   mirror the decoded `anc`, whatever the bytes say;
//! - maintenance edits ancestor sets wholesale
//!   ([`Reachability::add_ancestors`], [`Reachability::set_ancestors`] and
//!   its recurrence form [`Reachability::set_ancestors_from`],
//!   [`Reachability::collect_node`]). The `anc` direction is written at once
//!   — those runs are small, and later jobs of the same fold read them. The
//!   `desc` half of every changed pair is queued in a [`ReachBatch`] — one
//!   flat list of `(ancestor, node, add)` — and applied by
//!   [`Reachability::flush`], which sorts the list once and does one merge
//!   per touched ancestor, however many pairs it gained or lost: the root's
//!   run (every node of the view) is rewritten once per flush, not once per
//!   job. Until the flush, `desc` lags `anc`; a reader that must not miss
//!   queued pairs asks [`Reachability::descendants_in`].
//!
//! [`Reachability::n_pairs`] is accounted on the `anc` direction alone, so
//! the lag can neither double- nor under-count; [`Reachability::n_words`]
//! counts what both directions store.

use crate::topo::TopoOrder;
use rxview_atg::{Dag, NodeId};
use rxview_relstore::PagedVec;
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

    /// The Reach recurrence `⋃_{v ∈ nodes} ({v} ∪ sets(v))`, into `out`:
    /// `anc(d)` over `d`'s parents, or `desc(a)` over `a`'s children.
    /// Leaves the scratch blank.
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
    debug_assert!(is_run(words), "a stored set is a run");
    let old = words_of(sets, v).len();
    *n_words = *n_words - old + words.len();
    if !words.is_empty() {
        *sets.get_mut(v.index()) = Some(words.into());
    } else if old != 0 {
        // Probed first: emptying an empty slot must not copy a shared page.
        *sets.get_mut(v.index()) = None;
    }
}

/// The other direction of a family of sets — `out[x] ∋ v` iff `sets[v] ∋ x`
/// — and the number of words it stores. A counting sort over one flat word
/// buffer: visiting `v` in ascending order fills every bucket in key order,
/// and a bucket starts a new word whenever `v` enters a new block.
fn transpose(sets: &PagedVec<Option<Words>>) -> (PagedVec<Option<Words>>, usize) {
    let runs = || {
        let numbered = (0u32..).map(NodeId).zip(sets.iter());
        numbered.filter_map(|(v, words)| {
            let words = words.as_deref()?;
            Some((block_of(v), Run { words }))
        })
    };
    let last_member = |(_, run): (_, Run<'_>)| run.words.last().map(|&w| key_of(w) as usize);
    let width = runs()
        .filter_map(last_member)
        .max()
        .map_or(0, |k| (k + 1) << 5);
    // Bucket `x` is `flat[start[x]..start[x + 1]]`; `in_block[x]` is the
    // block of the last `v` put in it (no block has the key `u32::MAX`).
    let mut start = vec![0usize; width + 1];
    let mut in_block = vec![u32::MAX; width];
    for ((key, _), run) in runs() {
        for x in run {
            if std::mem::replace(&mut in_block[x.index()], key) != key {
                start[x.index() + 1] += 1;
            }
        }
    }
    for x in 0..width {
        start[x + 1] += start[x];
    }
    let mut next = start.clone();
    let mut flat = vec![0u64; start[width]];
    in_block.fill(u32::MAX);
    for ((key, bit), run) in runs() {
        for x in run {
            let x = x.index();
            if std::mem::replace(&mut in_block[x], key) != key {
                flat[next[x]] = word(key, 0);
                next[x] += 1;
            }
            flat[next[x] - 1] |= u64::from(bit);
        }
    }
    let mut out = PagedVec::new();
    for x in 0..width {
        let bucket = &flat[start[x]..start[x + 1]];
        if !bucket.is_empty() {
            *out.get_mut(x) = Some(bucket.into());
        }
    }
    (out, flat.len())
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
    desc: PagedVec<Option<Words>>,
    anc: PagedVec<Option<Words>>,
    /// `Σ_d |anc(d)|`.
    n_pairs: usize,
    /// Words stored, both directions.
    n_words: usize,
}

/// The `desc`-direction edits queued by the bulk ancestor writes of one
/// maintenance fold until [`Reachability::flush`] applies them — plus the
/// scratch buffers those writes merge in.
#[derive(Debug, Default)]
pub struct ReachBatch {
    /// `(a, x, add)` in queue order: add `x` to `desc(a)`, or remove it.
    pending: Vec<(NodeId, NodeId, bool)>,
    gained: RunBuf,
    lost: RunBuf,
    merged: RunBuf,
    /// What [`Reachability::descendants_in`] last answered with, when that
    /// was not a stored run.
    patched: RunBuf,
    scratch: BlockScratch,
}

impl ReachBatch {
    /// Queues `d` under every ancestor it just gained or lost.
    fn queue(&mut self, d: NodeId) {
        let gained = self.gained.as_run().iter().map(|a| (a, d, true));
        self.pending.extend(gained);
        let lost = self.lost.as_run().iter().map(|a| (a, d, false));
        self.pending.extend(lost);
    }
}

/// `stored` with `edits` — one ancestor's, stably sorted by node, so a
/// node's edits are in queue order and its last one decides — applied, into
/// `out`; `add` and `del` are scratch.
fn apply_edits(
    stored: &[u64],
    edits: &[(NodeId, NodeId, bool)],
    [add, del]: [&mut RunBuf; 2],
    out: &mut RunBuf,
) {
    add.clear();
    del.clear();
    for of_x in edits.chunk_by(|l, r| l.1 == r.1) {
        let &(_, x, added) = of_x.last().expect("chunks are non-empty");
        if added {
            add.push(x);
        } else {
            del.push(x);
        }
    }
    let stored = Run { words: stored };
    match (add.words.is_empty(), del.words.is_empty()) {
        (_, true) => union(stored, add.as_run(), out),
        (true, false) => minus(stored, del.as_run(), out),
        (false, false) => {
            let mut all = RunBuf::default();
            union(stored, add.as_run(), &mut all);
            minus(all.as_run(), del.as_run(), out);
        }
    }
}

/// Bulk load of `M` from per-descendant ancestor sets (the checkpoint's
/// layout), one [`AncestorLoad::add`] per node: each run is stored as given
/// and [`AncestorLoad::finish`] transposes the `desc` direction from them.
#[derive(Debug, Default)]
pub(crate) struct AncestorLoad {
    anc: PagedVec<Option<Words>>,
    n_pairs: usize,
    n_words: usize,
}

impl AncestorLoad {
    /// Sets `anc(d)`. Fails — rather than build a matrix whose directions or
    /// counter disagree — on a `d` listed twice and on a `d` among its own
    /// ancestors.
    pub(crate) fn add(&mut self, d: NodeId, ancestors: Run<'_>) -> Result<(), String> {
        if !words_of(&self.anc, d).is_empty() {
            return Err(format!("node {} is listed twice", d.0));
        }
        if ancestors.contains(&d) {
            return Err(format!("node {} is its own ancestor", d.0));
        }
        self.n_pairs += ancestors.len();
        store(&mut self.anc, &mut self.n_words, d, ancestors.words);
        Ok(())
    }

    /// The matrix of the sets added.
    pub(crate) fn finish(self) -> Reachability {
        let (desc, desc_words) = transpose(&self.anc);
        Reachability {
            desc,
            anc: self.anc,
            n_pairs: self.n_pairs,
            n_words: self.n_words + desc_words,
        }
    }
}

impl Reachability {
    /// Algorithm **Reach** (Fig.4): computes `M` in `O(n |V|)` by dynamic
    /// programming over the backward topological order — for `d` processed
    /// in backward `L` order, the ancestors of `d`'s parents are already
    /// known, so `A_d = ⋃_{p ∈ parent(d)} (anc(p) ∪ {p})`. The `desc`
    /// direction is the same recurrence forward over `L`, over children:
    /// `D_a = ⋃_{c ∈ children(a)} (desc(c) ∪ {c})`.
    pub fn compute(dag: &Dag, topo: &TopoOrder) -> Self {
        let live = |v: &NodeId| dag.genid().is_live(*v);
        let mut scratch = BlockScratch::default();
        let mut run = RunBuf::default();
        let (mut anc, mut desc) = (PagedVec::new(), PagedVec::new());
        let (mut n_pairs, mut n_words) = (0, 0);
        // Backward over L = ancestors (later entries) first.
        for &d in topo.order().iter().rev() {
            let parents = dag.parents(d).iter().copied().filter(live);
            scratch.union_over(&anc, parents, &mut run);
            n_pairs += run.as_run().len();
            store(&mut anc, &mut n_words, d, &run.words);
        }
        // Forward over L = descendants first.
        for &a in topo.order() {
            let children = dag.children(a).iter().copied().filter(live);
            scratch.union_over(&desc, children, &mut run);
            store(&mut desc, &mut n_words, a, &run.words);
        }
        Reachability {
            desc,
            anc,
            n_pairs,
            n_words,
        }
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

    /// Whether `a` is a strict ancestor of `d`: a search in the run of fewer
    /// words among `anc(d)` and `desc(a)`.
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        let (up, down) = (self.ancestors(d), self.descendants(a));
        if up.words.len() <= down.words.len() {
            up.contains(&a)
        } else {
            down.contains(&d)
        }
    }

    /// `desc(a)`: strict descendants of `a`.
    pub fn descendants(&self, a: NodeId) -> Run<'_> {
        let words = words_of(&self.desc, a);
        Run { words }
    }

    /// `anc(d)`: strict ancestors of `d`.
    pub fn ancestors(&self, d: NodeId) -> Run<'_> {
        let words = words_of(&self.anc, d);
        Run { words }
    }

    /// `desc(a)` as a later job of the same fold must see it: the stored
    /// run with `batch`'s queued edits under `a` applied.
    pub fn descendants_in<'a>(&'a self, a: NodeId, batch: &'a mut ReachBatch) -> Run<'a> {
        let ReachBatch {
            pending,
            gained,
            lost,
            patched,
            ..
        } = batch;
        let under_a = pending.iter().filter(|edit| edit.0 == a);
        let mut edits: Vec<_> = under_a.copied().collect();
        if edits.is_empty() {
            return self.descendants(a);
        }
        edits.sort_by_key(|edit| edit.1);
        apply_edits(words_of(&self.desc, a), &edits, [gained, lost], patched);
        patched.as_run()
    }

    /// `anc(d) ∪= extra` (a set without `d`) — ∆(M,L)insert's write.
    /// Returns the number of pairs added; their `desc` halves are queued
    /// in `batch`.
    pub fn add_ancestors(&mut self, d: NodeId, extra: Run<'_>, batch: &mut ReachBatch) -> usize {
        debug_assert!(!extra.contains(&d), "M is irreflexive");
        let old = self.ancestors(d);
        minus(extra, old, &mut batch.gained);
        if batch.gained.words.is_empty() {
            return 0;
        }
        batch.lost.clear();
        union(old, batch.gained.as_run(), &mut batch.merged);
        store(&mut self.anc, &mut self.n_words, d, &batch.merged.words);
        let added = batch.gained.as_run().len();
        self.n_pairs += added;
        batch.queue(d);
        added
    }

    /// Replaces `anc(d)` by `new` (a set without `d`) wholesale — deletion
    /// maintenance, Fig.8 lines 9–11. Returns the number of pairs removed;
    /// the `desc` halves of every changed pair are queued in `batch`.
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
        batch.queue(d);
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

    /// Forgets a garbage-collected node: `anc(d)` is emptied like any other
    /// ancestor rewrite and `desc(d)` is dropped as it stands. The caller
    /// owes every former descendant a [`Reachability::set_ancestors_from`]
    /// parents that no longer include `d` (∆(M,L)delete visits them all,
    /// ancestors first). Returns the number of pairs `(a, d)` removed.
    pub fn collect_node(&mut self, d: NodeId, batch: &mut ReachBatch) -> usize {
        store(&mut self.desc, &mut self.n_words, d, &[]);
        self.set_ancestors(d, Run::default(), batch)
    }

    /// Applies `batch`'s queued `desc`-direction edits — one sort of the
    /// queue, one rewrite per touched ancestor — and leaves it empty.
    pub fn flush(&mut self, batch: &mut ReachBatch) {
        let ReachBatch {
            pending,
            gained,
            lost,
            merged,
            ..
        } = batch;
        // Stable: edits of one `(a, x)` stay in queue order.
        pending.sort_by_key(|&(a, x, _)| (a, x));
        for under_a in pending.chunk_by(|l, r| l.0 == r.0) {
            let a = under_a[0].0;
            apply_edits(words_of(&self.desc, a), under_a, [gained, lost], merged);
            store(&mut self.desc, &mut self.n_words, a, &merged.words);
        }
        pending.clear();
    }

    /// Number of stored pairs, the `|M|` of Fig.10(b).
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Number of block words stored, `anc` and `desc` runs together: once
    /// flushed, `2 * n_pairs / n_words` ids per word.
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// Structural equality with another matrix: both directions, node by
    /// node, and both pairs of counters against a recount.
    pub fn same_pairs(&self, other: &Reachability) -> bool {
        let width = [&self.desc, &self.anc, &other.desc, &other.anc]
            .map(PagedVec::len)
            .into_iter()
            .max()
            .unwrap_or(0);
        let (mut pairs, mut words) = (0, 0);
        let same_runs = (0..width as u32).map(NodeId).all(|v| {
            let (up, down) = (self.ancestors(v), self.descendants(v));
            pairs += up.len();
            words += up.words.len() + down.words.len();
            up == other.ancestors(v) && down == other.descendants(v)
        });
        same_runs
            && [self.n_pairs, other.n_pairs] == [pairs; 2]
            && [self.n_words, other.n_words] == [words; 2]
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

    fn run(raw: &[u32]) -> RunBuf {
        raw.iter().copied().map(NodeId).collect()
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
    fn ancestor_edits_reach_both_directions_at_the_flush() {
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
        // `anc` is written at once; `desc` waits for the flush, but the
        // batch-aware read already sees the queued pair.
        assert_eq!(m.ancestors(NodeId(9)), ids(&[1, 2, 3]));
        assert!(m.descendants(NodeId(1)).is_empty());
        assert_eq!(m.descendants_in(NodeId(1), &mut batch), ids(&[9]));
        m.flush(&mut batch);
        assert_eq!(m.descendants(NodeId(1)), ids(&[9]));
        assert_eq!(m.n_words(), 4);

        assert_eq!(
            m.set_ancestors(NodeId(9), run(&[2, 4]).as_run(), &mut batch),
            2
        );
        m.flush(&mut batch);
        assert!(m.is_ancestor(NodeId(4), NodeId(9)));
        assert!(!m.is_ancestor(NodeId(1), NodeId(9)));
        assert!(m.descendants(NodeId(3)).is_empty());
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
        m.flush(&mut batch);
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
    fn same_pairs_compares_both_directions_and_the_counters() {
        let (dag, topo, _) = fixture();
        let m = Reachability::compute(&dag, &topo);
        assert!(m.same_pairs(&m.clone()));
        let victim = (0..dag.genid().n_allocated() as u32)
            .map(NodeId)
            .find(|&v| m.ancestors(v).len() >= 2)
            .expect("some node has two ancestors");

        // `desc` and the counters right, one `anc` run wrong: an id swapped
        // for one that is no ancestor, so the length (and the count) holds.
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
