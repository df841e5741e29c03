//! The Skolem function `gen_id` (§2.3): one node id per live `(type, $A)`.
//!
//! The paper assumes "a compact, unique value associated with each tuple
//! value of semantic attribute `$A`", computed by a Skolem function `gen_id`
//! that is injective across all `(type, tuple)` pairs. We realize it as an
//! interner over the *live* pairs: the first request for a pair gives it a
//! [`NodeId`]; subsequent requests return the same id for as long as the
//! node is in the view. This is what makes equality of semantic attribute
//! values *be* node identity — the property the paper's side-effect
//! semantics relies on (two nodes with the same type and `$A` value are one
//! physical node in the DAG).
//!
//! A node that leaves the view (garbage collection, §3.4; the rollback of a
//! rejected insertion) gives its id back: [`GenId::retire`] releases the
//! pair and frees the id, and [`GenId::gen_id`] hands out the lowest free
//! id before it extends the id space. Everything indexed by [`NodeId`] is
//! therefore bounded by the largest view held plus what one round
//! allocates, not by the updates served — and a [`NodeId`] names a node
//! only within the state (the snapshot epoch) it was read from.

use rxview_relstore::{PagedMap, PagedVec, Tuple};
use rxview_xmlkit::TypeId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Identifier of a node in the published DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What subtree generation needs of an interner: `gen_id` and the pair
/// behind an id. [`GenId`] is the one a view lives on; `GenIdBuilder` the
/// transient one a whole view is first interned into.
pub trait Interner {
    /// `gen_id(ty, $A)`: the id of the pair, and whether it was not live
    /// before the call.
    fn gen_id(&mut self, ty: TypeId, attr: Tuple) -> (NodeId, bool);
    /// The element type of a node.
    fn type_of(&self, id: NodeId) -> TypeId;
    /// The semantic attribute `$A` tuple of a node.
    fn attr_of(&self, id: NodeId) -> &Tuple;
}

/// A hash of an open-addressed key map, per element type.
type MapKey = (TypeId, u64);

/// FxHash (rustc's): one multiply-rotate step per word written, so an
/// integer attribute hashes in a few cycles where SipHash's rounds were
/// half of interning. The interner hashes the view's own attribute values,
/// which need no defence against chosen collisions; the result is the same
/// on every run and build, and ids never depend on it (they are handed out
/// in request order).
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its mixing in the high bits: rotated down, where
    /// a hash table takes its bucket.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` under [`FxHasher`].
type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Where `(ty, $A)` sits in an open-addressed key map, and the id there if
/// interned; otherwise where it belongs — the first stale entry on its probe
/// sequence, or the vacant hash that ends it. `slot` reads the map;
/// `live_pair` gives the pair of a live id and `None` for an entry left
/// behind by a node that was released since.
fn probe<'a>(
    slot: impl Fn(&MapKey) -> Option<NodeId>,
    live_pair: impl Fn(NodeId) -> Option<&'a (TypeId, Tuple)>,
    ty: TypeId,
    attr: &Tuple,
) -> (MapKey, Option<NodeId>) {
    let mut hasher = FxHasher::default();
    attr.hash(&mut hasher);
    // Under test every pair of a type collides with a quarter of the
    // others, so the unit tests walk probe sequences.
    let mut h = if cfg!(test) {
        hasher.finish() % 4
    } else {
        hasher.finish()
    };
    let mut reusable = None;
    loop {
        let Some(id) = slot(&(ty, h)) else {
            return (reusable.unwrap_or((ty, h)), None);
        };
        match live_pair(id) {
            Some((t, a)) if (*t, a) == (ty, attr) => return ((ty, h), Some(id)),
            // Another pair's — of another type even, if the entry's own
            // node went and its id was handed out again.
            Some(_) => {}
            None => reusable = reusable.or(Some((ty, h))),
        }
        h = h.wrapping_add(1);
    }
}

/// A key map written page by page from entries gathered in a hash map.
fn key_map(keys: FxMap<MapKey, NodeId>) -> PagedMap<MapKey, NodeId> {
    let mut keys: Vec<_> = keys.into_iter().collect();
    keys.sort_unstable();
    PagedMap::from_sorted(keys).expect("hashes are distinct map keys")
}

/// The `gen_id` interner.
///
/// All three parts are page-granular copy-on-write
/// ([`rxview_relstore::PagedMap`]): cloning an interner copies page pointers,
/// and interning or retiring a node copies the pages that node lands on.
/// Which ids are free is read off the live bits, so a clone frees and
/// reuses ids on its own: an id recycled by one version still names the old
/// node, or nothing, in every other.
#[derive(Debug, Clone, Default)]
pub struct GenId {
    /// `(type, hash of $A)` → id, with open addressing: a pair whose hash
    /// is taken by another pair of its type sits at the next free hash.
    /// Keying by hash keeps the map's pages plain data — a lookup compares
    /// integers and reads one `$A` — and scatters them: releasing a node
    /// does not write the map (a round that collects a few hundred nodes
    /// would copy every page of it). The entry stays behind, recognisable
    /// by an id that is free or carries another pair by now, keeps its
    /// probe sequence whole, and is taken over by the next pair that
    /// belongs there; once such entries outnumber half the live ones the
    /// map is rebuilt from the live pairs ([`GenId::retire`]).
    map: PagedMap<MapKey, NodeId>,
    /// `(type, $A)` per id of the id space, `None` only for an id loaded
    /// free and in the padding of the last page. A freed id keeps the pair
    /// it had until it is handed out again: a page of this vector is 64
    /// tuple handles, and clearing one slot of it would copy them all (and
    /// release them all again with the displaced snapshot) per collected
    /// node — the pages are written where new nodes land, and no more.
    info: PagedVec<Option<(TypeId, Tuple)>>,
    /// Which ids are live, a byte each: an id of the id space is live or
    /// free.
    live: PagedVec<bool>,
    n_live: usize,
    /// No id below this one is free.
    first_free: usize,
}

impl GenId {
    /// An empty interner.
    pub fn new() -> Self {
        GenId::default()
    }

    /// Rebuilds an interner from its id space — the pair of every id in id
    /// order, `None` for a free one — writing every page once.
    ///
    /// `repeats(ty)` names the type whose `$A` a node of `ty` repeats — its
    /// parent's, under an identity projection rule — if there is one. A
    /// slot of `ty` whose `$A` equals that of a live pair of that type
    /// loaded before it keeps that pair's tuple, so the two are one
    /// allocation, as publication and subtree generation leave them.
    ///
    /// # Errors
    /// The id of the first pair that repeats an earlier one.
    pub fn from_slots(
        slots: impl IntoIterator<Item = Option<(TypeId, Tuple)>>,
        repeats: impl Fn(TypeId) -> Option<TypeId>,
    ) -> Result<GenId, usize> {
        let mut builder = GenIdBuilder::default();
        for (id, slot) in slots.into_iter().enumerate() {
            match slot {
                Some((ty, attr)) => {
                    let donor = repeats(ty).and_then(|of| builder.lookup(of, &attr));
                    let attr = donor.map_or(attr, |d| builder.pair(d).1.clone());
                    if !builder.gen_id(ty, attr).1 {
                        return Err(id);
                    }
                }
                None => builder.info.push(None),
            }
        }
        Ok(builder.finish())
    }

    fn probe(&self, ty: TypeId, attr: &Tuple) -> (MapKey, Option<NodeId>) {
        let live_pair = |id| self.is_live(id).then(|| self.pair(id));
        probe(|k| self.map.get(k).copied(), live_pair, ty, attr)
    }

    /// `gen_id(ty, $A)`: returns the node id for the pair, taking the lowest
    /// free id (or, with none free, the next new one) if the pair is not
    /// live. The boolean is `true` when the node was not live before the
    /// call.
    pub fn gen_id(&mut self, ty: TypeId, attr: Tuple) -> (NodeId, bool) {
        let (key, found) = self.probe(ty, &attr);
        if let Some(id) = found {
            return (id, false);
        }
        // Lowest first, so that the nodes of one subtree — and of one round
        // — land on neighbouring ids and share the pages they write, as
        // they did when every id was new.
        let space = self.info.len();
        let id = match self.n_live < space {
            true => (self.first_free..space).find(|&i| !self.live[i]),
            false => None,
        };
        let id = id.unwrap_or(space);
        self.first_free = id + 1;
        *self.info.get_mut(id) = Some((ty, attr));
        *self.live.get_mut(id) = true;
        let id = NodeId(id as u32);
        self.map.insert(key, id);
        self.n_live += 1;
        (id, true)
    }

    /// Looks up a pair without allocating.
    pub fn lookup(&self, ty: TypeId, attr: &Tuple) -> Option<NodeId> {
        self.probe(ty, attr).1
    }

    fn pair(&self, id: NodeId) -> &(TypeId, Tuple) {
        debug_assert!(self.is_live(id), "node {} is not live", id.0);
        self.info[id.index()].as_ref().expect("an id handed out")
    }

    /// The element type of a live node.
    pub fn type_of(&self, id: NodeId) -> TypeId {
        self.pair(id).0
    }

    /// The semantic attribute `$A` tuple of a live node.
    pub fn attr_of(&self, id: NodeId) -> &Tuple {
        &self.pair(id).1
    }

    /// Whether the id names a node (is not free, nor beyond the id space).
    pub fn is_live(&self, id: NodeId) -> bool {
        self.live.get(id.index()) == Some(&true)
    }

    /// Number of live nodes.
    pub fn n_live(&self) -> usize {
        self.n_live
    }

    /// Size of the id space: live ids plus free ones. Every id is below it.
    pub fn n_allocated(&self) -> usize {
        self.info.len()
    }

    /// Number of free ids.
    pub fn n_free(&self) -> usize {
        self.info.len() - self.n_live
    }

    /// Releases a node that left the view (garbage collection of
    /// unreachable `gen_B` entries, §2.3; rollback): the pair is no longer
    /// interned and the id is free for [`GenId::gen_id`] to hand out. The
    /// caller has already dropped everything it keeps under the id. A free
    /// id is left alone.
    pub fn retire(&mut self, id: NodeId) {
        if !self.is_live(id) {
            return;
        }
        self.n_live -= 1;
        *self.live.get_mut(id.index()) = false;
        self.first_free = self.first_free.min(id.index());
        // Every live pair has one entry of the key map; the rest were left
        // behind by released nodes.
        if self.map.len() - self.n_live > self.n_live / 2 + Self::STALE_KEYS {
            self.rebuild_key_map();
        }
    }

    /// Shrinks the id space back to `len` ids, its length before a rejected
    /// insertion interned a subtree; every id past it must be free. Their
    /// key map entries stay behind as any released node's do.
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(
            (len..self.live.len()).all(|i| !self.live[i]),
            "a live id past {len}"
        );
        self.info.truncate(len);
        self.live.truncate(len);
        self.first_free = self.first_free.min(len);
    }

    /// Entries released nodes may leave in the key map before it is worth
    /// rebuilding, however few nodes are live.
    const STALE_KEYS: usize = if cfg!(test) { 4 } else { 1024 };

    /// The key map of the live pairs alone, each where an empty map would
    /// have put it.
    fn rebuild_key_map(&mut self) {
        let mut keys = FxMap::with_capacity_and_hasher(self.n_live, BuildHasherDefault::default());
        for id in self.live_ids() {
            let slot = |k: &MapKey| keys.get(k).copied();
            let (ty, attr) = (self.type_of(id), self.attr_of(id));
            let (key, found) = probe(slot, |v| Some(self.pair(v)), ty, attr);
            debug_assert_eq!(found, None, "live pairs are distinct");
            keys.insert(key, id);
        }
        self.map = key_map(keys);
    }

    /// All live node ids, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, live)| **live)
            .map(|(i, _)| NodeId(i as u32))
    }
}

impl Interner for GenId {
    fn gen_id(&mut self, ty: TypeId, attr: Tuple) -> (NodeId, bool) {
        GenId::gen_id(self, ty, attr)
    }

    fn type_of(&self, id: NodeId) -> TypeId {
        GenId::type_of(self, id)
    }

    fn attr_of(&self, id: NodeId) -> &Tuple {
        GenId::attr_of(self, id)
    }
}

/// A read-only interner over a [`GenId`], for a dry run of subtree
/// generation: a live pair keeps its id, a pair that is not live gets a
/// provisional id past the id space (the first one asked for gets
/// [`GenId::n_allocated`]), and the interner underneath is never written.
#[derive(Debug)]
pub struct Provisional<'a> {
    genid: &'a GenId,
    ids: FxMap<(TypeId, Tuple), NodeId>,
    /// The pair of provisional id `n_allocated + i` at `i`.
    pairs: Vec<(TypeId, Tuple)>,
}

impl<'a> Provisional<'a> {
    /// A dry run over `genid`, no pair interned yet.
    pub fn new(genid: &'a GenId) -> Self {
        Provisional {
            genid,
            ids: FxMap::default(),
            pairs: Vec::new(),
        }
    }

    fn pair(&self, id: NodeId) -> &(TypeId, Tuple) {
        match id.index().checked_sub(self.genid.n_allocated()) {
            Some(i) => &self.pairs[i],
            None => self.genid.pair(id),
        }
    }
}

impl Interner for Provisional<'_> {
    fn gen_id(&mut self, ty: TypeId, attr: Tuple) -> (NodeId, bool) {
        if let Some(id) = self.genid.lookup(ty, &attr) {
            return (id, false);
        }
        let next = NodeId((self.genid.n_allocated() + self.pairs.len()) as u32);
        match self.ids.entry((ty, attr)) {
            std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.pairs.push(e.key().clone());
                e.insert(next);
                (next, true)
            }
        }
    }

    fn type_of(&self, id: NodeId) -> TypeId {
        self.pair(id).0
    }

    fn attr_of(&self, id: NodeId) -> &Tuple {
        &self.pair(id).1
    }
}

/// The interner while a whole view is built — initial publication, a
/// checkpoint load. It allocates the ids an empty [`GenId`] would (dense,
/// in request order, at the same key-map slots) into flat transient
/// storage, and [`GenIdBuilder::finish`] writes the copy-on-write pages
/// once, full, instead of once per `gen_id`.
#[derive(Debug, Default)]
pub(crate) struct GenIdBuilder {
    keys: FxMap<MapKey, NodeId>,
    /// `None`: a free id of the state being loaded.
    info: Vec<Option<(TypeId, Tuple)>>,
}

impl GenIdBuilder {
    /// The finished interner.
    pub(crate) fn finish(self) -> GenId {
        let is_free = |slot: &Option<_>| slot.is_none();
        let first_free = self.info.iter().position(is_free);
        GenId {
            map: key_map(self.keys),
            first_free: first_free.unwrap_or(self.info.len()),
            live: self.info.iter().map(Option::is_some).collect(),
            n_live: self.info.iter().flatten().count(),
            info: self.info.into_iter().collect(),
        }
    }

    fn pair(&self, id: NodeId) -> &(TypeId, Tuple) {
        self.info[id.index()].as_ref().expect("an interned id")
    }

    /// Where `(ty, $A)` belongs in the key map, and its id if interned.
    fn probe(&self, ty: TypeId, attr: &Tuple) -> (MapKey, Option<NodeId>) {
        let slot = |k: &MapKey| self.keys.get(k).copied();
        probe(slot, |id| Some(self.pair(id)), ty, attr)
    }

    fn lookup(&self, ty: TypeId, attr: &Tuple) -> Option<NodeId> {
        self.probe(ty, attr).1
    }
}

impl Interner for GenIdBuilder {
    fn gen_id(&mut self, ty: TypeId, attr: Tuple) -> (NodeId, bool) {
        match self.probe(ty, &attr) {
            (_, Some(id)) => (id, false),
            (key, None) => {
                let id = NodeId(self.info.len() as u32);
                self.keys.insert(key, id);
                self.info.push(Some((ty, attr)));
                (id, true)
            }
        }
    }

    fn type_of(&self, id: NodeId) -> TypeId {
        self.pair(id).0
    }

    fn attr_of(&self, id: NodeId) -> &Tuple {
        &self.pair(id).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_relstore::tuple;

    const T0: TypeId = TypeId(0);
    const T1: TypeId = TypeId(1);

    #[test]
    fn interning_is_stable() {
        let mut g = GenId::new();
        let (a, fresh_a) = g.gen_id(T0, tuple!["CS320", "Algorithms"]);
        assert!(fresh_a);
        let (b, fresh_b) = g.gen_id(T0, tuple!["CS320", "Algorithms"]);
        assert!(!fresh_b);
        assert_eq!(a, b);
        assert_eq!(g.n_live(), 1);
    }

    #[test]
    fn same_tuple_different_type_distinct() {
        let mut g = GenId::new();
        let (a, _) = g.gen_id(T0, tuple!["x"]);
        let (b, _) = g.gen_id(T1, tuple!["x"]);
        assert_ne!(a, b);
    }

    #[test]
    fn type_and_attr_recoverable() {
        let mut g = GenId::new();
        let (a, _) = g.gen_id(T0, tuple!["k", 1i64]);
        assert_eq!(g.type_of(a), T0);
        assert_eq!(g.attr_of(a), &tuple!["k", 1i64]);
    }

    /// The live ids of a type, ascending.
    fn of_type(g: &GenId, ty: TypeId) -> Vec<NodeId> {
        g.live_ids().filter(|&id| g.type_of(id) == ty).collect()
    }

    #[test]
    fn a_retired_id_is_released_and_handed_out_again() {
        let mut g = GenId::new();
        let (a, _) = g.gen_id(T0, tuple!["a"]);
        let (b, _) = g.gen_id(T0, tuple!["b"]);
        let (c, _) = g.gen_id(T1, tuple!["c"]);
        g.retire(a);
        g.retire(c);
        g.retire(c); // a free id is left alone
        assert!(!g.is_live(a) && !g.is_live(c) && !g.is_live(NodeId(9)));
        assert_eq!(g.lookup(T0, &tuple!["a"]), None);
        assert_eq!(of_type(&g, T0), vec![b]);
        assert_eq!((g.n_live(), g.n_free(), g.n_allocated()), (1, 2, 3));

        // The lowest free id first — to whichever pair asks, the old one
        // included; the id space grows only once none is free.
        assert_eq!(g.gen_id(T0, tuple!["d"]), (a, true));
        assert_eq!((g.type_of(a), g.attr_of(a)), (T0, &tuple!["d"]));
        assert_eq!(g.gen_id(T0, tuple!["a"]), (c, true));
        assert_eq!(g.gen_id(T1, tuple!["c"]), (NodeId(3), true));
        assert_eq!(of_type(&g, T0), vec![a, b, c]);
        assert_eq!((g.n_live(), g.n_free(), g.n_allocated()), (4, 0, 4));
        // Freed below the last one handed out: found again.
        g.retire(b);
        assert_eq!(g.gen_id(T1, tuple!["e"]), (b, true));
    }

    #[test]
    fn a_clone_recycles_on_its_own() {
        let mut g = GenId::new();
        let (a, _) = g.gen_id(T0, tuple!["a"]);
        let (b, _) = g.gen_id(T0, tuple!["b"]);
        let pinned = g.clone();
        g.retire(a);
        assert_eq!(g.gen_id(T1, tuple!["z"]), (a, true));
        assert_eq!((pinned.type_of(a), pinned.attr_of(a)), (T0, &tuple!["a"]));
        assert_eq!(pinned.lookup(T1, &tuple!["z"]), None);
        assert_eq!(pinned.live_ids().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(pinned.n_free(), 0);
    }

    #[test]
    fn a_provisional_run_keeps_live_ids_and_writes_nothing() {
        let mut g = GenId::new();
        let (a, _) = g.gen_id(T0, tuple!["a"]);
        let (b, _) = g.gen_id(T0, tuple!["b"]);
        g.retire(a);
        let mut p = Provisional::new(&g);
        assert_eq!(p.gen_id(T0, tuple!["b"]), (b, false));
        // Past the id space even though `a`'s id is free, and stable.
        assert_eq!(p.gen_id(T1, tuple!["x"]), (NodeId(2), true));
        assert_eq!(p.gen_id(T0, tuple!["a"]), (NodeId(3), true));
        assert_eq!(p.gen_id(T1, tuple!["x"]), (NodeId(2), false));
        assert_eq!(
            (p.type_of(NodeId(3)), p.attr_of(NodeId(3))),
            (T0, &tuple!["a"])
        );
        assert_eq!((p.type_of(b), p.attr_of(b)), (T0, &tuple!["b"]));
        assert_eq!((g.n_live(), g.n_allocated()), (1, 2));
        assert_eq!(g.lookup(T1, &tuple!["x"]), None);
    }

    #[test]
    fn live_ids_iterate_in_order() {
        let mut g = GenId::new();
        let (a, _) = g.gen_id(T0, tuple!["a"]);
        let (b, _) = g.gen_id(T0, tuple!["b"]);
        let (c, _) = g.gen_id(T1, tuple!["c"]);
        g.retire(b);
        assert_eq!(g.live_ids().collect::<Vec<_>>(), vec![a, c]);
        assert_eq!(g.n_allocated(), 3);
        assert_eq!(g.n_live(), 2);
    }

    /// The key-map entries of `ty`: hash and id, in hash order.
    fn entries(g: &GenId, ty: TypeId) -> Vec<(u64, NodeId)> {
        let of_ty = g.map.iter().filter(|((t, _), _)| *t == ty);
        of_ty.map(|((_, h), id)| (*h, *id)).collect()
    }

    #[test]
    fn colliding_pairs_stay_distinct() {
        // Twenty pairs of one type over four test hashes: every lookup
        // walks a probe sequence past other pairs.
        let mut g = GenId::new();
        let ids: Vec<NodeId> = (0..20i64).map(|i| g.gen_id(T0, tuple![i]).0).collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id, NodeId(i as u32));
            assert_eq!(g.lookup(T0, &tuple![i as i64]), Some(id));
            assert_eq!(g.gen_id(T0, tuple![i as i64]), (id, false));
        }
        assert_eq!(g.lookup(T0, &tuple![20i64]), None);
        assert_eq!(g.lookup(T1, &tuple![3i64]), None);
    }

    #[test]
    fn released_pairs_leave_entries_that_keep_probe_sequences_whole() {
        let mut g = GenId::new();
        let ids: Vec<NodeId> = (0..20i64).map(|i| g.gen_id(T0, tuple![i]).0).collect();
        // Twenty entries over four test hashes: one unbroken sequence.
        assert_eq!(entries(&g, T0).len(), 20);
        let at = |g: &GenId, id: NodeId| {
            let found = entries(g, T0).into_iter().find(|e| e.1 == id);
            found.expect("interned").0
        };

        // Releasing a pair does not write the map: its entry stays, every
        // pair behind it is still found, and the pair itself is not.
        let h3 = at(&g, ids[3]);
        g.retire(ids[3]);
        assert!(entries(&g, T0).contains(&(h3, ids[3])));
        assert_eq!(g.lookup(T0, &tuple![3i64]), None);
        for i in (0..20).filter(|&i| i != 3) {
            assert_eq!(g.lookup(T0, &tuple![i as i64]), Some(ids[i]), "pair {i}");
        }
        // The same pair takes the entry over (and the released id) — as
        // does any other pair whose sequence passes it.
        assert_eq!(g.gen_id(T0, tuple![3i64]), (ids[3], true));
        assert_eq!((at(&g, ids[3]), entries(&g, T0).len()), (h3, 20));
        g.retire(ids[3]);
        // (A pair that adds no entry took the one left behind: it is the
        // only one.)
        let passes = |v: &i64| {
            let mut trial = g.clone();
            trial.gen_id(T0, tuple![*v]);
            entries(&trial, T0).len() == 20
        };
        let other = (100..200i64)
            .find(passes)
            .expect("a pair hashing at or before h3");
        assert_eq!(g.gen_id(T0, tuple![other]), (ids[3], true));
        assert_eq!((at(&g, ids[3]), entries(&g, T0).len()), (h3, 20));

        // An entry left behind whose id went to a pair that sits elsewhere
        // — of another type, with the very same `$A` — reads as another
        // pair's: skipped, never matched, never taken.
        g.retire(ids[19]);
        let h19 = at(&g, ids[19]);
        assert_eq!(g.gen_id(T1, tuple![19i64]), (ids[19], true));
        assert!(entries(&g, T0).contains(&(h19, ids[19])), "still there");
        assert_eq!(g.lookup(T0, &tuple![19i64]), None);
        let (back, fresh) = g.gen_id(T0, tuple![19i64]);
        assert!(fresh && at(&g, back) > h19, "placed behind the stale entry");
        assert_eq!(entries(&g, T0).len(), 21);

        // Once the entries left behind outnumber half the live pairs (and
        // the test build's slack of four), the map is rebuilt from the live
        // pairs: one entry each, everything found where it now belongs.
        let live_before: Vec<NodeId> = of_type(&g, T0);
        for &id in &live_before[..14] {
            g.retire(id);
        }
        let survivors: Vec<NodeId> = of_type(&g, T0);
        assert_eq!(survivors.len(), 6);
        assert!(entries(&g, T0).len() < 21, "rebuilt along the way");
        assert_eq!(g.map.len() - g.n_live(), entries(&g, T0).len() - 6);
        for &id in &survivors {
            assert_eq!(g.lookup(T0, &g.attr_of(id).clone()), Some(id));
        }
        for &id in &live_before[..14] {
            assert!(!g.is_live(id));
        }
        assert_eq!(g.lookup(T1, &tuple![19i64]), Some(ids[19]));
    }

    #[test]
    fn a_rebuilt_interner_hands_out_the_ids_it_loaded_free() {
        let slots = [
            Some((T0, tuple!["a"])),
            None,
            Some((T1, tuple!["a"])),
            None,
            None,
        ];
        let mut g = GenId::from_slots(slots, |_| None).expect("distinct pairs");
        assert_eq!((g.n_live(), g.n_free(), g.n_allocated()), (2, 3, 5));
        assert_eq!(g.live_ids().collect::<Vec<_>>(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(g.lookup(T1, &tuple!["a"]), Some(NodeId(2)));
        for want in [1, 3, 4, 5] {
            assert_eq!(g.gen_id(T0, tuple![want as i64]), (NodeId(want), true));
        }
        let twice = [Some((T0, tuple!["a"])), None, Some((T0, tuple!["a"]))];
        assert_eq!(GenId::from_slots(twice, |_| None).err(), Some(2));
    }

    #[test]
    fn a_loaded_slot_keeps_the_tuple_of_the_pair_it_repeats() {
        let same = |a: &Tuple, b: &Tuple| std::ptr::eq(a.values().as_ptr(), b.values().as_ptr());
        const T2: TypeId = TypeId(2);
        let slots = [
            Some((T0, tuple!["a", 1i64])),
            Some((T1, tuple!["a", 1i64])),
            Some((T1, tuple!["b", 2i64])),
            Some((T2, tuple!["a", 1i64])),
            Some((T0, tuple!["b", 2i64])),
        ];
        let repeats = |ty| (ty == T1).then_some(T0);
        let g = GenId::from_slots(slots, repeats).expect("distinct pairs");
        let attr = |i| g.attr_of(NodeId(i));
        // A pair of the repeating type with an equal `$A` loaded before it.
        assert!(same(attr(1), attr(0)));
        // None loaded yet, or a type that repeats nothing: its own tuple.
        assert!(!same(attr(2), attr(4)) && attr(2) == attr(4));
        assert!(!same(attr(3), attr(0)) && attr(3) == attr(0));
        assert_eq!(g.lookup(T1, &tuple!["a", 1i64]), Some(NodeId(1)));
    }
}
