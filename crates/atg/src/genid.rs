//! The Skolem function `gen_id` and the `gen_A` node registries (§2.3).
//!
//! The paper assumes "a compact, unique value associated with each tuple
//! value of semantic attribute `$A`", computed by a Skolem function `gen_id`
//! that is injective across all `(type, tuple)` pairs. We realize it as an
//! interner: the first request for a pair allocates a dense [`NodeId`];
//! subsequent requests return the same id. This is what makes equality of
//! semantic attribute values *be* node identity — the property the paper's
//! side-effect semantics relies on (two nodes with the same type and `$A`
//! value are one physical node in the DAG).

use rxview_relstore::{PagedMap, PagedVec, Tuple};
use rxview_xmlkit::TypeId;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

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
/// behind an id. [`GenId`] is the one a view lives on; [`GenIdBuilder`] the
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

/// Where `(ty, $A)` sits in an open-addressed key map — the first hash at
/// or after the pair's own that is free or holds the pair — and the id
/// there if interned. `slot` reads the map, `attr_of` the pair of an id.
fn probe<'a>(
    slot: impl Fn(&(TypeId, u64)) -> Option<NodeId>,
    attr_of: impl Fn(NodeId) -> &'a Tuple,
    ty: TypeId,
    attr: &Tuple,
) -> ((TypeId, u64), Option<NodeId>) {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    attr.hash(&mut hasher);
    // Under test every pair of a type collides with a quarter of the
    // others, so the unit tests walk probe sequences.
    let mut h = if cfg!(test) {
        hasher.finish() % 4
    } else {
        hasher.finish()
    };
    loop {
        match slot(&(ty, h)) {
            Some(id) if attr_of(id) != attr => h = h.wrapping_add(1),
            found => return ((ty, h), found),
        }
    }
}

/// The `gen_id` interner plus per-type registries (`gen_A` sets).
///
/// All four parts are page-granular copy-on-write
/// ([`rxview_relstore::cow`]): cloning an interner copies page pointers,
/// and interning or retiring a node copies the pages that node lands on.
#[derive(Debug, Clone, Default)]
pub struct GenId {
    /// `(type, hash of $A)` → id, with open addressing: a pair whose hash
    /// is taken by another pair of its type sits at the next free hash.
    /// Entries are never removed (an id keeps its identity when retired),
    /// so a probe sequence never breaks. Keying by hash keeps the map's
    /// pages plain data — a lookup compares integers and reads one `$A`.
    map: PagedMap<(TypeId, u64), NodeId>,
    /// `(type, $A)` per allocated id; `None` only in the padding of the
    /// last page.
    info: PagedVec<Option<(TypeId, Tuple)>>,
    live: PagedVec<bool>,
    n_live: usize,
    /// The `gen_A` sets as one ordered set of `(type, id)`.
    by_type: PagedMap<(TypeId, NodeId), ()>,
}

impl GenId {
    /// An empty interner.
    pub fn new() -> Self {
        GenId::default()
    }

    /// Rebuilds an interner from its allocation sequence — `(type, $A,
    /// live)` per id, in id order — writing every page once.
    ///
    /// # Errors
    /// The slot of the first pair that repeats an earlier one.
    pub fn from_allocations(
        allocations: impl IntoIterator<Item = (TypeId, Tuple, bool)>,
    ) -> Result<GenId, usize> {
        let mut builder = GenIdBuilder::default();
        let mut live = Vec::new();
        for (slot, (ty, attr, is_live)) in allocations.into_iter().enumerate() {
            if !builder.gen_id(ty, attr).1 {
                return Err(slot);
            }
            live.push(is_live);
        }
        Ok(builder.finish(|id| live[id.index()]))
    }

    fn probe(&self, ty: TypeId, attr: &Tuple) -> ((TypeId, u64), Option<NodeId>) {
        probe(
            |k| self.map.get(k).copied(),
            |id| self.attr_of(id),
            ty,
            attr,
        )
    }

    /// `gen_id(ty, $A)`: returns the node id for the pair, allocating (or
    /// reviving) if needed. The boolean is `true` when the node was not live
    /// before the call.
    pub fn gen_id(&mut self, ty: TypeId, attr: Tuple) -> (NodeId, bool) {
        let (id, fresh) = match self.probe(ty, &attr) {
            (_, Some(id)) => (id, !self.live[id.index()]),
            (key, None) => {
                let id = NodeId(self.info.len() as u32);
                self.map.insert(key, id);
                self.info.push(Some((ty, attr)));
                (id, true)
            }
        };
        if fresh {
            *self.live.get_mut(id.index()) = true;
            self.n_live += 1;
            self.by_type.insert((ty, id), ());
        }
        (id, fresh)
    }

    /// Looks up a pair without allocating.
    pub fn lookup(&self, ty: TypeId, attr: &Tuple) -> Option<NodeId> {
        self.probe(ty, attr).1.filter(|id| self.live[id.index()])
    }

    fn info(&self, id: NodeId) -> &(TypeId, Tuple) {
        self.info[id.index()].as_ref().expect("allocated node id")
    }

    /// The element type of a node.
    pub fn type_of(&self, id: NodeId) -> TypeId {
        self.info(id).0
    }

    /// The semantic attribute `$A` tuple of a node.
    pub fn attr_of(&self, id: NodeId) -> &Tuple {
        &self.info(id).1
    }

    /// Whether the node is live (present in the view).
    pub fn is_live(&self, id: NodeId) -> bool {
        self.live[id.index()]
    }

    /// The `gen_A` set: live node ids of a type, ascending.
    pub fn ids_of_type(&self, ty: TypeId) -> impl Iterator<Item = NodeId> + '_ {
        self.by_type
            .range_from(&(ty, NodeId(0)))
            .take_while(move |((t, _), ())| *t == ty)
            .map(|((_, id), ())| *id)
    }

    /// Number of live nodes.
    pub fn n_live(&self) -> usize {
        self.n_live
    }

    /// Total ids ever allocated (live or not).
    pub fn n_allocated(&self) -> usize {
        self.info.len()
    }

    /// Retires a node id (garbage collection of unreachable `gen_B` entries,
    /// §2.3). The id keeps its identity: re-publishing the same `(ty, $A)`
    /// revives the same [`NodeId`].
    pub fn retire(&mut self, id: NodeId) {
        if self.live[id.index()] {
            *self.live.get_mut(id.index()) = false;
            self.n_live -= 1;
            self.by_type.remove(&(self.type_of(id), id));
        }
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

/// The interner while a whole view is built — initial publication, a
/// checkpoint load. It allocates the ids [`GenId`] would (dense, in request
/// order, at the same key-map slots) into flat transient storage, and
/// [`GenIdBuilder::finish`] writes the copy-on-write pages once, full,
/// instead of once per `gen_id`.
#[derive(Debug, Default)]
pub struct GenIdBuilder {
    slots: HashMap<(TypeId, u64), NodeId>,
    info: Vec<(TypeId, Tuple)>,
}

impl GenIdBuilder {
    /// The finished interner; `is_live` says which of the allocated ids
    /// are in the view.
    pub fn finish(self, is_live: impl Fn(NodeId) -> bool) -> GenId {
        let ids = || (0..self.info.len() as u32).map(NodeId);
        let mut slots: Vec<_> = self.slots.into_iter().collect();
        slots.sort_unstable();
        let mut by_type: Vec<_> = ids()
            .filter(|&id| is_live(id))
            .map(|id| ((self.info[id.index()].0, id), ()))
            .collect();
        by_type.sort_unstable();
        GenId {
            map: PagedMap::from_sorted(slots).expect("slots are distinct map keys"),
            live: ids().map(&is_live).collect(),
            n_live: by_type.len(),
            by_type: PagedMap::from_sorted(by_type).expect("ids are distinct"),
            info: self.info.into_iter().map(Some).collect(),
        }
    }
}

impl Interner for GenIdBuilder {
    fn gen_id(&mut self, ty: TypeId, attr: Tuple) -> (NodeId, bool) {
        let slot = |k: &(TypeId, u64)| self.slots.get(k).copied();
        match probe(slot, |id| &self.info[id.index()].1, ty, &attr) {
            (_, Some(id)) => (id, false),
            (key, None) => {
                let id = NodeId(self.info.len() as u32);
                self.slots.insert(key, id);
                self.info.push((ty, attr));
                (id, true)
            }
        }
    }

    fn type_of(&self, id: NodeId) -> TypeId {
        self.info[id.index()].0
    }

    fn attr_of(&self, id: NodeId) -> &Tuple {
        &self.info[id.index()].1
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

    #[test]
    fn gen_sets_track_types() {
        let mut g = GenId::new();
        g.gen_id(T0, tuple!["a"]);
        g.gen_id(T0, tuple!["b"]);
        g.gen_id(T1, tuple!["a"]);
        assert_eq!(g.ids_of_type(T0).count(), 2);
        assert_eq!(g.ids_of_type(T1).count(), 1);
    }

    #[test]
    fn retire_and_revive_keeps_identity() {
        let mut g = GenId::new();
        let (a, _) = g.gen_id(T0, tuple!["a"]);
        g.retire(a);
        assert!(!g.is_live(a));
        assert_eq!(g.lookup(T0, &tuple!["a"]), None);
        assert_eq!(g.ids_of_type(T0).count(), 0);
        let (b, fresh) = g.gen_id(T0, tuple!["a"]);
        assert_eq!(a, b);
        assert!(fresh);
        assert!(g.is_live(a));
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
        g.retire(ids[3]);
        assert_eq!(g.lookup(T0, &tuple![3i64]), None);
        assert_eq!(g.lookup(T0, &tuple![7i64]), Some(ids[7]));
        assert_eq!(g.gen_id(T0, tuple![3i64]), (ids[3], true));
    }
}
