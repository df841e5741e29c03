//! Page-granular copy-on-write containers: the storage behind every piece
//! of state a published snapshot shares with its successors.
//!
//! The serving engine publishes one immutable version of `(I, V)` per
//! commit round and keeps mutating a private successor. Both containers
//! here make that cheap in all three directions: `clone` copies one `Arc`
//! per page (`O(n ÷ page)`, no element is touched), a write copies the one
//! page it lands on (`Arc::make_mut`), and dropping a version frees only
//! the pages its successor replaced. A page copy clones its elements one by
//! one, so elements should be `Copy` data or `Arc` handles — never owned
//! collections.
//!
//! - [`PagedVec`] holds what is indexed by a dense id (node adjacency,
//!   interner slots, `M`'s per-node sets);
//! - [`PagedMap`] holds what is ordered (table rows, secondary indexes,
//!   the interner's `gen_A` tables): sorted runs with
//!   binary search over the run heads and within a run — two levels, not a
//!   tree, so a split or merge shifts the `O(n ÷ page)` run directory. The
//!   order is the keys' `Ord`, or a comparator the caller hands to every
//!   call (`get_by`, `insert_by`, `try_insert_by`, `remove_by`,
//!   `from_sorted_by`, `range_by`) — how a table orders row handles by the
//!   key columns inside the rows, and a column index the same handles by
//!   one column and then the key, and neither stores a key.
//!
//! Versions never observe each other: a clone and its origin stay equal to
//! their own histories whatever the other does (model-tested in
//! `tests/cow_model.rs`).

use std::cmp::Ordering;
use std::ops::Index;
use std::sync::Arc;

/// Bytes of slots or entries a page holds, give or take rounding: a page
/// of `Arc` handles is then 64–128 of them to copy, a page of plain data a
/// `memcpy`, and a 43 k-node view clones as a few hundred to a thousand
/// page pointers per container.
///
/// Chosen from a sweep of 512 / 1024 / 2048 / 4096 on the 512-group
/// synthetic view (median clone + release per round, cold caches): one-update
/// rounds cost 6.4 / 3.0 / 4.5 / 3.8 ms, 256-update rounds 7.0 / 5.9 / 4.9 /
/// 5.0 ms. What a round pays is the number of cold cache lines it touches —
/// one per page pointer on clone and release, one per handle in every page
/// it copies — so small pages lose on the first count and large ones on the
/// second.
const PAGE_BYTES: usize = 1024;

/// A growable vector of fixed-size pages behind `Arc`s.
///
/// Slots never written read as `T::default()`; [`PagedVec::get_mut`] grows
/// the vector on demand, so a sparse id space costs one shared blank page
/// per gap, and [`PagedVec::clear`] hands a page whose every slot is back
/// at its default over to that same blank page.
#[derive(Debug, Clone)]
pub struct PagedVec<T> {
    /// Every page has exactly [`PagedVec::PAGE`] slots.
    pages: Vec<Arc<[T]>>,
    len: usize,
    /// The page of defaults every blank page of the vector is, made at the
    /// first gap, cleared page or collected page of defaults.
    blank: Option<Arc<[T]>>,
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        PagedVec {
            pages: Vec::new(),
            len: 0,
            blank: None,
        }
    }
}

impl<T> PagedVec<T> {
    /// Slots per page: [`PAGE_BYTES`] worth, rounded up to a power of two
    /// so that indexing is a shift and a mask.
    const PAGE: usize = (PAGE_BYTES / std::mem::size_of::<T>()).next_power_of_two();
}

impl<T: Clone + Default> PagedVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        PagedVec::default()
    }

    /// One past the highest slot ever pushed or written.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot was ever written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot at `i`, if within [`PagedVec::len`].
    pub fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self.pages[i / Self::PAGE][i % Self::PAGE])
    }

    /// Appends a slot.
    pub fn push(&mut self, value: T) {
        *self.get_mut(self.len) = value;
    }

    /// Mutable access to slot `i`, growing the vector to cover it. Copies
    /// the slot's page if another version shares it — probe with
    /// [`PagedVec::get`] first when the write is conditional.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        let page = i / Self::PAGE;
        if self.pages.len() <= page {
            let blank = self.blank();
            self.pages.resize(page + 1, blank);
        }
        self.len = self.len.max(i + 1);
        &mut Arc::make_mut(&mut self.pages[page])[i % Self::PAGE]
    }

    /// The shared blank page.
    fn blank(&mut self) -> Arc<[T]> {
        let page = || (0..Self::PAGE).map(|_| T::default()).collect();
        self.blank.get_or_insert_with(page).clone()
    }

    /// Sets slot `i` back to `T::default()`: the one write that gives
    /// memory back. A slot already at its default is not written (nor its
    /// page copied); a page left with no other slot off its default becomes
    /// the vector's shared blank page — the page it held is released, not
    /// copied, and a version that shares it keeps it. `i` at or past
    /// [`PagedVec::len`] reads as the default already.
    pub fn clear(&mut self, i: usize)
    where
        T: PartialEq,
    {
        if i >= self.len {
            return;
        }
        let (page, at) = (i / Self::PAGE, i % Self::PAGE);
        let blank = T::default();
        let slots = &self.pages[page];
        if slots[at] == blank {
            return;
        }
        if slots
            .iter()
            .enumerate()
            .all(|(j, slot)| j == at || *slot == blank)
        {
            self.pages[page] = self.blank();
        } else {
            Arc::make_mut(&mut self.pages[page])[at] = blank;
        }
    }

    /// The slots `0..len` in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flat_map(|p| p.iter()).take(self.len)
    }

    /// Shortens the vector to `len` slots (a no-op if it is not longer);
    /// the dropped slots read as `T::default()` if it grows back over them.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        for i in len..self.len.min(len.next_multiple_of(Self::PAGE)) {
            *self.get_mut(i) = T::default();
        }
        self.pages.truncate(len.div_ceil(Self::PAGE));
        self.len = len;
    }
}

impl<T: Clone + Default> Index<usize> for PagedVec<T> {
    type Output = T;

    /// # Panics
    /// Panics if `i` is out of range.
    fn index(&self, i: usize) -> &T {
        self.get(i).expect("PagedVec index out of range")
    }
}

impl<T: Clone + Default + PartialEq> FromIterator<T> for PagedVec<T> {
    /// Builds the vector page by page: every page is allocated once at its
    /// final size and written once, where repeated [`PagedVec::push`] looks
    /// up (and unshares) the last page per slot. A page that comes out
    /// all defaults — a range of free ids — is the shared blank page, as
    /// [`PagedVec::clear`] leaves it.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter().fuse();
        let mut vec = PagedVec::new();
        let blank = T::default();
        loop {
            let mut filled = 0;
            let page: Arc<[T]> = (0..Self::PAGE)
                .map(|_| iter.next().inspect(|_| filled += 1).unwrap_or_default())
                .collect();
            if filled == 0 {
                return vec;
            }
            let page = match page.iter().all(|slot| *slot == blank) {
                true => vec.blank(),
                false => page,
            };
            vec.pages.push(page);
            vec.len += filled;
        }
    }
}

/// An ordered map kept as sorted runs behind `Arc`s.
///
/// Iteration and range scans are in key order, exactly as a `BTreeMap`
/// would enumerate the same entries. With `V = ()` it is an ordered set.
#[derive(Debug, Clone)]
pub struct PagedMap<K, V> {
    /// Non-empty runs, ascending and non-overlapping.
    runs: Vec<Run<K, V>>,
    len: usize,
}

/// What [`PagedMap::try_insert_by`] found under the key: the stored entry,
/// and the offered one handed back.
pub(crate) type Occupied<'a, K, V> = (&'a (K, V), (K, V));

#[derive(Debug, Clone)]
struct Run<K, V> {
    /// The run's separator, so locating a run reads the directory only:
    /// above every key of the runs before it and not above any key of its
    /// own (the key it was opened or split at; removals leave it be). The
    /// first run's separator is never consulted.
    head: K,
    entries: Arc<Vec<(K, V)>>,
}

impl<K: Clone, V> Run<K, V> {
    fn single(key: K, value: V) -> Self {
        let mut entries = Vec::with_capacity(PagedMap::<K, V>::RUN_MAX);
        entries.push((key.clone(), value));
        Run {
            head: key,
            entries: Arc::new(entries),
        }
    }
}

impl<K, V> Default for PagedMap<K, V> {
    fn default() -> Self {
        PagedMap {
            runs: Vec::new(),
            len: 0,
        }
    }
}

impl<K, V> PagedMap<K, V> {
    /// Most entries a run holds — [`PAGE_BYTES`] worth, at least 8; a run
    /// that outgrows it splits in half.
    const RUN_MAX: usize = {
        let fit = PAGE_BYTES / std::mem::size_of::<(K, V)>();
        if fit < 8 {
            8
        } else {
            fit
        }
    };

    /// A run shorter than this merges into a neighbour when both fit in
    /// one run, so interleaved removals cannot leave a trail of one-entry
    /// runs.
    const RUN_MIN: usize = Self::RUN_MAX / 4;
}

impl<K: Clone, V: Clone> PagedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        PagedMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where the key that `locate` describes is or belongs: the index of
    /// its run — the last run whose separator is not above it (the first
    /// run for keys below every separator; `0` when empty) — and its
    /// position in that run, `Ok` if present and `Err` of the insertion
    /// point if not. `locate` orders a stored key against the probe.
    fn search(&self, locate: impl Fn(&K) -> Ordering) -> (usize, Result<usize, usize>) {
        let i = self
            .runs
            .partition_point(|r| locate(&r.head).is_le())
            .saturating_sub(1);
        let at = self.runs.get(i).map_or(Err(0), |run| {
            run.entries.binary_search_by(|(k, _)| locate(k))
        });
        (i, at)
    }

    /// Builds the map from entries already in strictly ascending order
    /// under `cmp`: full runs written once each, where repeated
    /// [`PagedMap::insert_by`] searches the directory and the last run per
    /// key. The result is the map an ascending `insert_by` load leaves
    /// behind, run for run.
    ///
    /// # Errors
    /// The index of the first entry whose key is not above its
    /// predecessor's.
    pub fn from_sorted_by<I: IntoIterator<Item = (K, V)>>(
        entries: I,
        cmp: impl Fn(&K, &K) -> Ordering,
    ) -> Result<Self, usize> {
        let mut runs: Vec<Run<K, V>> = Vec::new();
        let mut open: Vec<(K, V)> = Vec::new();
        let mut len = 0;
        let close = |open: Vec<(K, V)>| Run {
            head: open[0].0.clone(),
            entries: Arc::new(open),
        };
        for (key, value) in entries {
            if open.last().is_some_and(|(last, _)| cmp(last, &key).is_ge()) {
                return Err(len);
            }
            if open.len() == Self::RUN_MAX {
                runs.push(close(std::mem::take(&mut open)));
            }
            if open.is_empty() {
                // A run keeps room to fill up in place, as `Run::single`'s.
                open.reserve_exact(Self::RUN_MAX);
            }
            open.push((key, value));
            len += 1;
        }
        if !open.is_empty() {
            runs.push(close(open));
        }
        Ok(PagedMap { runs, len })
    }

    /// The entry whose key `locate` finds `Equal`; it must find the keys
    /// before it `Less` and the keys after it `Greater`: a map ordered by a
    /// comparator is probed by borrowed parts of a key, and the probe
    /// builds no key.
    pub fn get_by(&self, locate: impl Fn(&K) -> Ordering) -> Option<(&K, &V)> {
        let (i, at) = self.search(locate);
        let (key, value) = &self.runs.get(i)?.entries[at.ok()?];
        Some((key, value))
    }

    /// [`PagedMap::search`] for `key` under `cmp`, except that a key above
    /// the last one belongs at the end of the last run: one comparison and
    /// no search, which is every key of an ascending load.
    fn search_key(
        &self,
        key: &K,
        cmp: impl Fn(&K, &K) -> Ordering,
    ) -> (usize, Result<usize, usize>) {
        if let Some(last) = self.runs.last() {
            let end = last.entries.len();
            if cmp(&last.entries[end - 1].0, key).is_lt() {
                return (self.runs.len() - 1, Err(end));
            }
        }
        self.search(|k| cmp(k, key))
    }

    /// A run's entries, to write. Copied first if another version shares
    /// them — with room for a full run plus the entry that splits it, where
    /// a copy at its own length would be regrown by doubling at the next
    /// insert.
    fn unshare(entries: &mut Arc<Vec<(K, V)>>) -> &mut Vec<(K, V)> {
        if Arc::get_mut(entries).is_none() {
            let mut copy = Vec::with_capacity(Self::RUN_MAX + 1);
            copy.extend_from_slice(entries);
            *entries = Arc::new(copy);
        }
        Arc::make_mut(entries)
    }

    /// Puts a new entry at position `at` of run `i`, where
    /// [`PagedMap::search_key`] says it belongs.
    fn insert_at(&mut self, i: usize, at: usize, key: K, value: V) {
        self.len += 1;
        if self.runs.is_empty() || at == Self::RUN_MAX && i + 1 == self.runs.len() {
            // Appending past a full last run: open a new run instead of
            // splitting, so an ascending load leaves full runs behind it.
            self.runs.push(Run::single(key, value));
            return;
        }
        let entries = Self::unshare(&mut self.runs[i].entries);
        entries.insert(at, (key, value));
        if entries.len() > Self::RUN_MAX {
            let upper = entries.split_off(entries.len() / 2);
            self.runs.insert(
                i + 1,
                Run {
                    head: upper[0].0.clone(),
                    entries: Arc::new(upper),
                },
            );
        }
    }

    /// Inserts or replaces under the order `cmp` — the one order every call
    /// on this map must use — returning the value replaced. A replaced
    /// entry keeps its stored key.
    pub fn insert_by(&mut self, key: K, value: V, cmp: impl Fn(&K, &K) -> Ordering) -> Option<V> {
        match self.search_key(&key, cmp) {
            (i, Ok(at)) => {
                let slot = &mut Self::unshare(&mut self.runs[i].entries)[at].1;
                Some(std::mem::replace(slot, value))
            }
            (i, Err(at)) => {
                self.insert_at(i, at, key, value);
                None
            }
        }
    }

    /// Inserts the entry unless one is stored under its key: one search
    /// either way, where [`PagedMap::get_by`] then [`PagedMap::insert_by`]
    /// make two. On a hit the map is left untouched and `Err` holds the
    /// stored entry and the offered one, handed back.
    pub fn try_insert_by(
        &mut self,
        key: K,
        value: V,
        cmp: impl Fn(&K, &K) -> Ordering,
    ) -> Result<(), Occupied<'_, K, V>> {
        match self.search_key(&key, cmp) {
            (i, Ok(at)) => Err((&self.runs[i].entries[at], (key, value))),
            (i, Err(at)) => {
                self.insert_at(i, at, key, value);
                Ok(())
            }
        }
    }

    /// Removes the entry [`PagedMap::get_by`] would find, returning it.
    pub fn remove_by(&mut self, locate: impl Fn(&K) -> Ordering) -> Option<(K, V)> {
        let (i, at) = self.search(locate);
        let at = at.ok()?;
        self.len -= 1;
        let entries = Self::unshare(&mut self.runs[i].entries);
        let removed = entries.remove(at);
        if entries.is_empty() {
            self.runs.remove(i);
        } else {
            self.merge_underfull(i);
        }
        Some(removed)
    }

    /// Merges run `i` into a neighbour if it underflowed and the two fit in
    /// one run.
    fn merge_underfull(&mut self, i: usize) {
        if self.runs[i].entries.len() >= Self::RUN_MIN {
            return;
        }
        let fits = |a: usize, b: usize| {
            self.runs[a].entries.len() + self.runs[b].entries.len() <= Self::RUN_MAX
        };
        let left = if i > 0 && fits(i - 1, i) {
            i - 1
        } else if i + 1 < self.runs.len() && fits(i, i + 1) {
            i
        } else {
            return;
        };
        let right = self.runs.remove(left + 1).entries;
        let entries = Self::unshare(&mut self.runs[left].entries);
        match Arc::try_unwrap(right) {
            Ok(moved) => entries.extend(moved),
            Err(shared) => entries.extend_from_slice(&shared),
        }
    }

    /// All entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.runs
            .iter()
            .flat_map(|r| r.entries.iter())
            .map(|(k, v)| (k, v))
    }

    /// The entries from the first key that is not `below` on, in key order.
    /// `below` must hold for a (possibly empty) prefix of the keys and for
    /// none after it — a lower bound described by comparison, so a probe by
    /// a key prefix or by borrowed parts builds no key.
    pub fn range_by(&self, below: impl Fn(&K) -> bool) -> Range<'_, K, V> {
        // A run's keys are all at or above its separator: the bound falls
        // in the last run whose separator is still below, or in the first.
        let i = self
            .runs
            .partition_point(|r| below(&r.head))
            .saturating_sub(1);
        let mut rest = self.runs[i..].iter();
        let first: &[(K, V)] = rest.next().map_or(&[], |r| &r.entries);
        Range {
            cur: first[first.partition_point(|(k, _)| below(k))..].iter(),
            rest,
        }
    }
}

/// The entries of a [`PagedMap`] from a lower bound on, in key order.
#[derive(Debug)]
pub struct Range<'a, K, V> {
    /// What is left of the run the cursor is in.
    cur: std::slice::Iter<'a, (K, V)>,
    /// The runs after it.
    rest: std::slice::Iter<'a, Run<K, V>>,
}

impl<'a, K, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.cur.next() {
                return Some((k, v));
            }
            self.cur = self.rest.next()?.entries.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = PagedVec::<u32>::PAGE;
    const RUN_MAX: usize = PagedMap::<u32, u32>::RUN_MAX;

    /// The probe for `key` under the keys' own order.
    fn probe<K: Ord>(key: &K) -> impl Fn(&K) -> Ordering + '_ {
        move |k| k.cmp(key)
    }

    #[test]
    fn pages_hold_a_byte_budget() {
        assert_eq!(PagedVec::<bool>::PAGE, 1024);
        assert_eq!(PagedVec::<u64>::PAGE, 128);
        assert_eq!(PagedVec::<[u64; 3]>::PAGE, 64);
        assert_eq!(PagedMap::<u64, u64>::RUN_MAX, 64);
        assert_eq!(PagedMap::<[u64; 32], [u64; 32]>::RUN_MAX, 8);
    }

    #[test]
    fn vec_grows_sparsely_and_defaults() {
        let mut v: PagedVec<u32> = PagedVec::new();
        assert!(v.is_empty());
        assert_eq!(v.get(0), None);
        *v.get_mut(900) = 7;
        assert_eq!(v.len(), 901);
        assert_eq!(v[900], 7);
        assert_eq!(v[0], 0);
        assert_eq!(v.get(901), None);
        v.push(9);
        assert_eq!(v[901], 9);
        assert_eq!(v.iter().count(), 902);
        // The gap pages are one shared blank page.
        assert!(Arc::ptr_eq(&v.pages[0], &v.pages[1]));
        // Truncated slots read as never written when it grows back.
        v.truncate(900);
        *v.get_mut(901) = 1;
        assert_eq!((v[900], v.iter().count()), (0, 902));
        v.truncate(PAGE);
        assert_eq!((v.len(), v.pages.len()), (PAGE, 1));
    }

    #[test]
    fn a_page_cleared_to_defaults_becomes_the_shared_blank_page() {
        let mut v: PagedVec<u32> = PagedVec::new();
        *v.get_mut(3 * PAGE - 1) = 5;
        for i in PAGE..2 * PAGE {
            *v.get_mut(i) = 1;
        }
        let pinned = v.clone();
        for i in PAGE..2 * PAGE - 1 {
            v.clear(i);
        }
        // One slot still off its default: the page is a copy, not blank.
        assert!(!Arc::ptr_eq(&v.pages[1], &v.pages[0]));
        v.clear(2 * PAGE - 1);
        assert!(Arc::ptr_eq(&v.pages[1], &v.pages[0]));
        assert_eq!(
            (v.len(), v[2 * PAGE - 1], v[3 * PAGE - 1]),
            (3 * PAGE, 0, 5)
        );
        // The clone keeps what it held; a cleared page is written afresh.
        assert!(pinned.iter().skip(PAGE).take(PAGE).all(|&x| x == 1));
        *v.get_mut(PAGE) = 2;
        assert_eq!((v[PAGE], v[0]), (2, 0));
        // Clearing a default slot, or one past the end, writes nothing.
        let before = v.clone();
        v.clear(0);
        v.clear(9 * PAGE);
        assert!(Arc::ptr_eq(&v.pages[0], &before.pages[0]));
        assert_eq!(v.len(), 3 * PAGE);
        // The last live slot of a page that is shared: replaced, not copied.
        let mut w: PagedVec<u32> = PagedVec::new();
        *w.get_mut(7) = 1;
        let held = w.clone();
        w.clear(7);
        assert!(Arc::ptr_eq(&w.pages[0], w.blank.as_ref().unwrap()));
        assert_eq!(held[7], 1);
    }

    #[test]
    fn a_collected_page_of_defaults_is_the_shared_blank_page() {
        let slots = (0..3 * PAGE as u32).map(|i| u32::from(i < 5));
        let v: PagedVec<u32> = slots.collect();
        assert_eq!((v.len(), v[4], v[5]), (3 * PAGE, 1, 0));
        assert!(!Arc::ptr_eq(&v.pages[0], &v.pages[1]));
        assert!(Arc::ptr_eq(&v.pages[1], &v.pages[2]));
    }

    #[test]
    fn vec_clone_shares_until_written() {
        let mut a: PagedVec<u32> = PagedVec::new();
        for i in 0..(3 * PAGE as u32) {
            a.push(i);
        }
        let mut b = a.clone();
        *b.get_mut(PAGE + 1) = 1_000;
        assert_eq!(a[PAGE + 1], PAGE as u32 + 1);
        assert_eq!(b[PAGE + 1], 1_000);
        assert!(Arc::ptr_eq(&a.pages[0], &b.pages[0]));
        assert!(!Arc::ptr_eq(&a.pages[1], &b.pages[1]));
        assert!(Arc::ptr_eq(&a.pages[2], &b.pages[2]));
    }

    #[test]
    fn map_splits_at_capacity_and_merges_to_empty() {
        let mut m: PagedMap<u32, u32> = PagedMap::new();
        // Descending load: every insert lands at the front of run 0, so the
        // run fills to capacity and splits in half.
        for k in (0..=RUN_MAX as u32).rev() {
            assert_eq!(m.insert_by(k, k * 2, Ord::cmp), None);
        }
        assert_eq!(m.runs.len(), 2);
        assert_eq!(m.len(), RUN_MAX + 1);
        let keys: Vec<u32> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..=RUN_MAX as u32).collect::<Vec<_>>());
        assert_eq!(m.insert_by(3, 0, Ord::cmp), Some(6));
        for k in 0..=RUN_MAX as u32 {
            assert!(m.remove_by(probe(&k)).is_some());
            assert!(m.remove_by(probe(&k)).is_none());
        }
        assert!(m.is_empty());
        assert!(m.runs.is_empty());
    }

    #[test]
    fn ascending_load_leaves_full_runs() {
        let mut m: PagedMap<u32, u32> = PagedMap::new();
        for k in 0..(4 * RUN_MAX as u32) {
            m.insert_by(k, k, Ord::cmp);
        }
        assert_eq!(m.runs.len(), 4);
        assert!(m.runs.iter().all(|r| r.entries.len() == RUN_MAX));
    }

    #[test]
    fn range_by_starts_inside_a_run() {
        let mut m: PagedMap<u32, ()> = PagedMap::new();
        for k in (0..200).step_by(2) {
            m.insert_by(k, (), Ord::cmp);
        }
        let from = |lo: u32| m.range_by(|k| *k < lo).map(|(k, _)| *k).collect::<Vec<_>>();
        assert_eq!(from(0).len(), 100);
        assert_eq!(from(101)[..2], [102, 104]);
        assert_eq!(from(198), [198]);
        assert!(from(199).is_empty());
        assert!(PagedMap::<u32, ()>::new()
            .range_by(|_| false)
            .next()
            .is_none());
    }

    #[test]
    fn map_clone_shares_runs_until_written() {
        let mut a: PagedMap<u32, u32> = PagedMap::new();
        for k in 0..(3 * RUN_MAX as u32) {
            a.insert_by(k, k, Ord::cmp);
        }
        let mut b = a.clone();
        b.remove_by(probe(&(RUN_MAX as u32 + 1)));
        assert!(a.get_by(probe(&(RUN_MAX as u32 + 1))).is_some());
        assert!(b.get_by(probe(&(RUN_MAX as u32 + 1))).is_none());
        assert!(Arc::ptr_eq(&a.runs[0].entries, &b.runs[0].entries));
        assert!(!Arc::ptr_eq(&a.runs[1].entries, &b.runs[1].entries));
        assert!(Arc::ptr_eq(&a.runs[2].entries, &b.runs[2].entries));
    }

    #[test]
    fn a_comparator_on_part_of_an_entry_leaves_the_runs_its_key_leaves() {
        // One script on plain keys under their own order and on
        // `(noise, key)` entries of the same size ordered by the key alone:
        // the same runs, separators included, while the map grows to a
        // dozen runs and drains again.
        let mut plain: PagedMap<u64, ()> = PagedMap::new();
        let mut by: PagedMap<(u32, u32), ()> = PagedMap::new();
        let mut most_runs = 0;
        let mut x = 99u32;
        for step in 0..8_000u32 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let key = (x >> 8) % 3_000;
            if (x >> 4) % 4 < if step < 4_000 { 3 } else { 1 } {
                let was = plain.insert_by(u64::from(key), (), Ord::cmp);
                assert_eq!(by.insert_by((step, key), (), |a, b| a.1.cmp(&b.1)), was);
            } else {
                let was = plain.remove_by(probe(&u64::from(key))).map(|_| ());
                assert_eq!(by.remove_by(|e| e.1.cmp(&key)).map(|_| ()), was);
            }
            assert_eq!(
                by.get_by(|e| e.1.cmp(&key)).is_some(),
                plain.get_by(probe(&u64::from(key))).is_some()
            );
            if step % 250 == 0 {
                most_runs = most_runs.max(plain.runs.len());
                assert!(by
                    .runs
                    .iter()
                    .map(|r| (u64::from(r.head.1), r.entries.len()))
                    .eq(plain.runs.iter().map(|r| (r.head, r.entries.len()))));
            }
        }
        assert!(most_runs > 8, "{most_runs} runs at most");
        assert!(by
            .iter()
            .map(|(e, ())| u64::from(e.1))
            .eq(plain.iter().map(|(k, ())| *k)));
    }

    #[test]
    fn runs_keep_their_shape_under_churn() {
        // Insert-heavy, then remove-heavy: the map grows to ~20 runs and
        // drains again.
        let mut m: PagedMap<u32, u32> = PagedMap::new();
        let mut x = 12345u32;
        for step in 0..20_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let key = (x >> 8) % 5_000;
            if (x >> 4) % 4 < if step < 10_000 { 3 } else { 1 } {
                m.insert_by(key, step, Ord::cmp);
            } else {
                m.remove_by(probe(&key)).map(|(_, v)| v);
            }
            assert!(m
                .runs
                .iter()
                .all(|r| (1..=RUN_MAX).contains(&r.entries.len())));
            assert!(m.runs.iter().skip(1).all(|r| r.head <= r.entries[0].0));
            assert!(m
                .runs
                .windows(2)
                .all(|w| w[0].entries.last().expect("non-empty").0 < w[1].head));
            assert_eq!(
                m.len(),
                m.runs.iter().map(|r| r.entries.len()).sum::<usize>()
            );
        }
        // Removals merged underfull runs away: no two neighbours are both
        // small enough to share a run.
        let small = |r: &Run<u32, u32>| r.entries.len() < PagedMap::<u32, u32>::RUN_MIN;
        assert!(m.runs.windows(2).all(|w| !(small(&w[0]) && small(&w[1]))));
    }
}
