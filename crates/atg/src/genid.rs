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
//! The interner's index is §2.3's relation `gen_A` itself: per element type
//! one [`Table`] of the live nodes' `$A` rows, each carrying its node's id,
//! which the edge views join with. Interning a pair is one ordered insert
//! into its type's table, a lookup one search, a release one removal —
//! there is no second `$A` index to keep in step with it.
//!
//! A node that leaves the view (garbage collection, §3.4; the rollback of a
//! rejected insertion) gives its id back: [`GenId::retire`] removes its
//! `gen_A` row and clears its slot — the `$A` handle goes with it, and a
//! page of slots that holds no live id any more is the shared blank page
//! ([`PagedVec::clear`]) — and [`GenId::gen_id`] hands out the lowest free
//! id before it extends the id space. A free id so holds nothing: what is
//! indexed by [`NodeId`] is bounded by the largest view held plus what one
//! round allocates, not by the updates served, and the pages of a range of
//! free ids are one page. A [`NodeId`] names a node only within the state
//! (the snapshot epoch) it was read from.

use rxview_relstore::{PagedVec, RelError, RelResult, Table, TableSchema, Tuple, Value};
use rxview_xmlkit::TypeId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// FxHash (rustc's): one multiply-rotate step per word written, so an
/// integer attribute hashes in a few cycles where SipHash's rounds were
/// half of interning. The transient interners hash the view's own
/// attribute values, which need no defence against chosen collisions; ids
/// never depend on it (they are handed out in request order).
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

/// The one column of the `gen_A` schema of a type whose `$A` is empty
/// ([`crate::Atg::gen_table_schema`]); no attribute field may take its name.
pub(crate) const UNIT_COLUMN: &str = "__unit";

/// Whether `schema` is the `gen_A` schema of a type whose `$A` is empty.
fn is_unit(schema: &TableSchema) -> bool {
    matches!(schema.columns(), [c] if c.name == UNIT_COLUMN)
}

/// Whether `attr` is a `$A` of the type whose `gen_A` schema is `schema`:
/// the empty tuple exactly when the schema is the unit one, and otherwise a
/// row the schema itself accepts. Checking [`gen_row`]'s image instead
/// would let `(0)` through for a type with an empty `$A`, and `()` for one
/// whose `$A` is a single Int — both would then name another pair's row.
fn fits(schema: &TableSchema, attr: &Tuple) -> RelResult<()> {
    match (is_unit(schema), attr.arity()) {
        (true, 0) => Ok(()),
        (false, _) => schema.check_tuple(attr),
        (true, got) => Err(RelError::ArityMismatch {
            table: schema.name().to_owned(),
            expected: 0,
            got,
        }),
    }
}

/// The `gen_A` row of a node with semantic attribute `attr`: `attr` itself
/// — the same allocation — or, for the empty `$A`, the one-column unit row
/// that makes the relation representable.
fn gen_row(attr: &Tuple) -> Tuple {
    match attr.arity() {
        0 => Tuple::from_values([Value::Int(0)]),
        _ => attr.clone(),
    }
}

/// The key `gen_A` holds `attr`'s row under: its values, or the unit row's.
fn gen_key(attr: &[Value]) -> &[Value] {
    const UNIT: &[Value] = &[Value::Int(0)];
    match attr {
        [] => UNIT,
        _ => attr,
    }
}

/// The `gen_id` interner.
///
/// Every part is page-granular copy-on-write ([`PagedVec`], [`Table`]'s
/// pages): cloning an interner copies page pointers, and interning or
/// retiring a node copies the pages that node lands on. Which ids are free
/// is read off the slots, so a clone frees and reuses ids on its own: an id
/// recycled by one version still names the old node, or nothing, in every
/// other.
#[derive(Debug, Clone, Default)]
pub struct GenId {
    /// Per element type, in type order, the relation `gen_A` of §2.3: one
    /// row per live node of the type — its `$A` ([`gen_row`]) — carrying
    /// the node's id. The edge views join these tables, and they are the
    /// one `$A` → id index: interning a pair is one ordered insert,
    /// looking one up one search, retiring a node one removal.
    tables: Vec<Table<NodeId>>,
    /// `(type, $A)` per id of the id space: the only record of liveness,
    /// `None` for a free id (and in the padding of the last page).
    /// [`GenId::retire`] clears the slot through [`PagedVec::clear`], so a
    /// free id holds no `$A`, and a page of free ids is the vector's one
    /// blank page.
    info: PagedVec<Option<(TypeId, Tuple)>>,
    n_live: usize,
    /// No id below this one is free.
    first_free: usize,
}

impl GenId {
    /// An empty interner over the `gen_A` schemas of a grammar's element
    /// types, in type order ([`crate::Atg::gen_table_schemas`]).
    pub fn new(schemas: Vec<TableSchema>) -> Self {
        GenIdBuilder::new(schemas).finish()
    }

    /// Rebuilds an interner over `schemas` from its id space — the pair of
    /// every id in id order, `None` for a free one — writing every page
    /// once.
    ///
    /// `repeats(ty)` names the type whose `$A` a node of `ty` repeats — its
    /// parent's, under an identity projection rule — if there is one. A
    /// slot of `ty` whose `$A` equals that of a live pair of that type
    /// loaded before it keeps that pair's tuple, so the two are one
    /// allocation, as publication and subtree generation leave them.
    ///
    /// # Errors
    /// The id of the first pair whose type has no `gen_A` schema, whose
    /// `$A` that schema rejects, or that repeats an earlier pair.
    pub fn from_slots(
        schemas: Vec<TableSchema>,
        slots: impl IntoIterator<Item = Option<(TypeId, Tuple)>>,
        repeats: impl Fn(TypeId) -> Option<TypeId>,
    ) -> Result<GenId, usize> {
        let mut builder = GenIdBuilder::new(schemas);
        for (id, slot) in slots.into_iter().enumerate() {
            match slot {
                Some((ty, attr)) => {
                    let schema = builder.schemas.get(ty.index()).ok_or(id)?;
                    fits(schema, &attr).map_err(|_| id)?;
                    let donor = repeats(ty).and_then(|of| builder.ids.get(&(of, attr.clone())));
                    let attr = donor.map_or(attr, |&d| builder.pair(d).1.clone());
                    if !builder.gen_id(ty, attr).1 {
                        return Err(id);
                    }
                }
                None => builder.info.push(None),
            }
        }
        Ok(builder.finish())
    }

    /// The `gen_A` table of `ty`: a row per live node of the type, carrying
    /// its id, in key order.
    pub fn table(&self, ty: TypeId) -> &Table<NodeId> {
        &self.tables[ty.index()]
    }

    /// Whether `attr` is a `$A` of `ty` — empty exactly when the type's
    /// `gen_A` schema is the unit one, else a row that schema accepts — as
    /// every interned `$A` must be: what a caller checks of a `$A` no rule
    /// produced.
    pub fn check(&self, ty: TypeId, attr: &Tuple) -> RelResult<()> {
        fits(self.table(ty).schema(), attr)
    }

    /// `gen_id(ty, $A)`: returns the node id for the pair, taking the lowest
    /// free id (or, with none free, the next new one) if the pair is not
    /// live. The boolean is `true` when the node was not live before the
    /// call.
    ///
    /// # Panics
    /// If `attr` is not a `$A` of `ty` ([`GenId::check`]): always when its
    /// `gen_A` row does not fit the schema, under debug assertions also
    /// when only the empty / unit distinction is wrong.
    pub fn gen_id(&mut self, ty: TypeId, attr: Tuple) -> (NodeId, bool) {
        debug_assert!(self.check(ty, &attr).is_ok(), "a `$A` of its type");
        // Lowest first, so that the nodes of one subtree — and of one round
        // — land on neighbouring ids and share the pages they write, as
        // they did when every id was new.
        let space = self.info.len();
        let id = match self.n_live < space {
            true => (self.first_free..space).find(|&i| self.info[i].is_none()),
            false => None,
        };
        let id = id.unwrap_or(space);
        // Whether or not the pair takes it, every id below `id` is live:
        // a pair that is live already scans no further next time.
        self.first_free = id;
        let table = &mut self.tables[ty.index()];
        let inserted = table.insert_entry(gen_row(&attr), NodeId(id as u32));
        if let Some(&live) = inserted.expect("a `$A` that fits its `gen_A` schema") {
            return (live, false);
        }
        self.first_free = id + 1;
        *self.info.get_mut(id) = Some((ty, attr));
        self.n_live += 1;
        (NodeId(id as u32), true)
    }

    /// Looks up a pair without allocating.
    pub fn lookup(&self, ty: TypeId, attr: &[Value]) -> Option<NodeId> {
        let table = self.tables.get(ty.index())?;
        // The unit row is the empty `$A`'s alone.
        if is_unit(table.schema()) != attr.is_empty() {
            return None;
        }
        table.entry(gen_key(attr)).map(|(_, &id)| id)
    }

    fn pair(&self, id: NodeId) -> &(TypeId, Tuple) {
        let slot = self.info.get(id.index()).and_then(Option::as_ref);
        slot.unwrap_or_else(|| panic!("node {} is not live", id.0))
    }

    /// The element type of a live node.
    pub fn type_of(&self, id: NodeId) -> TypeId {
        self.pair(id).0
    }

    /// The semantic attribute `$A` tuple of a live node.
    pub fn attr_of(&self, id: NodeId) -> &Tuple {
        &self.pair(id).1
    }

    /// The `gen_A` row of a live node: its `$A` — the same allocation —
    /// or the unit row of an empty one.
    pub fn gen_row(&self, id: NodeId) -> Tuple {
        gen_row(self.attr_of(id))
    }

    /// Whether the id names a node (is not free, nor beyond the id space).
    pub fn is_live(&self, id: NodeId) -> bool {
        matches!(self.info.get(id.index()), Some(Some(_)))
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
    /// unreachable `gen_B` entries, §2.3; rollback): its `gen_A` row goes,
    /// its slot is cleared — its `$A` released with it — and the id is free
    /// for [`GenId::gen_id`] to hand out. The caller has already dropped
    /// everything it keeps under the id. A free id is left alone.
    pub fn retire(&mut self, id: NodeId) {
        let Some(Some((ty, attr))) = self.info.get(id.index()) else {
            return;
        };
        let removed = self.tables[ty.index()].remove(gen_key(attr.values()));
        debug_assert_eq!(removed.map(|(_, at)| at), Some(id), "a live node's row");
        self.info.clear(id.index());
        self.n_live -= 1;
        self.first_free = self.first_free.min(id.index());
    }

    /// Shrinks the id space back to `len` ids, its length before a rejected
    /// insertion interned a subtree; every id past it must be free — and
    /// so, retired, without a row.
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(
            self.info.iter().skip(len).all(Option::is_none),
            "a live id past {len}"
        );
        self.info.truncate(len);
        self.first_free = self.first_free.min(len);
    }

    /// All live node ids, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.info
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
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
        if let Some(id) = self.genid.lookup(ty, attr.values()) {
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
/// in request order) through a transient hash map, and
/// [`GenIdBuilder::finish`] writes the copy-on-write pages once, full — the
/// `gen_A` tables sorted per type — instead of once per `gen_id`.
#[derive(Debug)]
pub(crate) struct GenIdBuilder {
    schemas: Vec<TableSchema>,
    ids: FxMap<(TypeId, Tuple), NodeId>,
    /// `None`: a free id of the state being loaded.
    info: Vec<Option<(TypeId, Tuple)>>,
}

impl GenIdBuilder {
    /// An empty builder over the `gen_A` schemas, in type order.
    pub(crate) fn new(schemas: Vec<TableSchema>) -> Self {
        GenIdBuilder {
            schemas,
            ids: FxMap::default(),
            info: Vec::new(),
        }
    }

    /// The finished interner.
    ///
    /// # Panics
    /// If a `$A` does not fit its type's `gen_A` schema.
    pub(crate) fn finish(self) -> GenId {
        let mut rows = vec![Vec::new(); self.schemas.len()];
        let live = self.info.iter().enumerate();
        for (id, (ty, attr)) in live.filter_map(|(id, slot)| Some((id, slot.as_ref()?))) {
            let row = gen_row(attr);
            rows[ty.index()].push((row[0].abbreviation(), row, NodeId(id as u32)));
        }
        let tables = self
            .schemas
            .into_iter()
            .zip(rows)
            .map(|(schema, mut rows)| {
                // On the leading value's abbreviation, kept beside the row
                // (a column holds one type), and on the rows only where two
                // tie: the rows' own order, since a type's rows are distinct.
                rows.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                let rows = rows.into_iter().map(|(_, row, id)| (row, id));
                Table::from_sorted(schema, rows).expect("well-typed, distinct `$A` rows")
            });
        let is_free = |slot: &Option<_>| slot.is_none();
        let first_free = self.info.iter().position(is_free);
        GenId {
            tables: tables.collect(),
            first_free: first_free.unwrap_or(self.info.len()),
            n_live: self.ids.len(),
            info: self.info.into_iter().collect(),
        }
    }

    fn pair(&self, id: NodeId) -> &(TypeId, Tuple) {
        self.info[id.index()].as_ref().expect("an interned id")
    }
}

impl Interner for GenIdBuilder {
    fn gen_id(&mut self, ty: TypeId, attr: Tuple) -> (NodeId, bool) {
        let next = NodeId(self.info.len() as u32);
        match self.ids.entry((ty, attr)) {
            std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.info.push(Some(e.key().clone()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_relstore::{schema, tuple, ColumnDef, ValueType};

    const T0: TypeId = TypeId(0);
    const T1: TypeId = TypeId(1);
    const T2: TypeId = TypeId(2);

    /// An empty interner over three types whose `$A` has the columns
    /// `cols`.
    fn over(cols: &[ValueType]) -> Vec<TableSchema> {
        let named = cols.iter().enumerate();
        let columns: Vec<ColumnDef> = named
            .map(|(i, &c)| ColumnDef::new(format!("c{i}"), c))
            .collect();
        let schema = |ty| {
            TableSchema::new(
                format!("gen_t{ty}"),
                columns.clone(),
                (0..cols.len()).collect(),
            )
        };
        (0..3).map(schema).collect()
    }

    fn strs() -> GenId {
        GenId::new(over(&[ValueType::Str]))
    }

    #[test]
    fn interning_is_stable() {
        let mut g = strs();
        let (a, fresh_a) = g.gen_id(T0, tuple!["CS320"]);
        assert!(fresh_a);
        let (b, fresh_b) = g.gen_id(T0, tuple!["CS320"]);
        assert!(!fresh_b);
        assert_eq!(a, b);
        assert_eq!(g.n_live(), 1);
    }

    #[test]
    fn same_tuple_different_type_distinct() {
        let mut g = strs();
        let (a, _) = g.gen_id(T0, tuple!["x"]);
        let (b, _) = g.gen_id(T1, tuple!["x"]);
        assert_ne!(a, b);
    }

    #[test]
    fn type_and_attr_recoverable() {
        let mut g = GenId::new(over(&[ValueType::Str, ValueType::Int]));
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
        let mut g = strs();
        let (a, _) = g.gen_id(T0, tuple!["a"]);
        let (b, _) = g.gen_id(T0, tuple!["b"]);
        let (c, _) = g.gen_id(T1, tuple!["c"]);
        g.retire(a);
        g.retire(c);
        g.retire(c); // a free id is left alone
        assert!(!g.is_live(a) && !g.is_live(c) && !g.is_live(NodeId(9)));
        assert_eq!(g.lookup(T0, tuple!["a"].values()), None);
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
        // Each type's `gen_A` table is its live pairs, in key order, each
        // row the interned `$A` itself and carrying its id.
        for ty in [T0, T1] {
            let rows: Vec<(&Tuple, NodeId)> =
                g.table(ty).entries().map(|(r, &id)| (r, id)).collect();
            let mut live: Vec<(&Tuple, NodeId)> = of_type(&g, ty)
                .into_iter()
                .map(|id| (g.attr_of(id), id))
                .collect();
            live.sort();
            assert_eq!(rows, live);
            let same = |r: &Tuple, id| std::ptr::eq(r.values(), g.attr_of(id).values());
            assert!(rows.iter().all(|&(r, id)| same(r, id)));
        }
    }

    #[test]
    fn the_empty_attribute_is_the_unit_row() {
        let mut g = GenId::new(vec![schema("gen_root").col_int("__unit").key(&["__unit"])]);
        let (root, _) = g.gen_id(T0, Tuple::empty());
        assert_eq!(g.lookup(T0, Tuple::empty().values()), Some(root));
        let rows: Vec<_> = g.table(T0).entries().collect();
        assert_eq!(rows, [(&tuple![0i64], &root)]);
        assert!(g.check(T0, &Tuple::empty()).is_ok() && g.check(T0, &tuple!["x"]).is_err());
        // The unit row's own value is no `$A` of the type.
        assert!(g.check(T0, &tuple![0i64]).is_err());
        assert_eq!(g.lookup(T0, tuple![0i64].values()), None);
        g.retire(root);
        assert!(g.table(T0).is_empty() && g.lookup(T0, Tuple::empty().values()).is_none());
    }

    /// The empty `$A` is the unit row only where the type's `$A` is empty:
    /// beside a one-Int type's `(0)` it is no `$A` at all.
    #[test]
    fn the_empty_attribute_is_no_row_of_a_type_with_fields() {
        let mut g = GenId::new(over(&[ValueType::Int]));
        let (zero, _) = g.gen_id(T0, tuple![0i64]);
        assert!(g.check(T0, &Tuple::empty()).is_err());
        assert_eq!(g.lookup(T0, Tuple::empty().values()), None);
        assert_eq!(g.lookup(T0, tuple![0i64].values()), Some(zero));
    }

    /// A slot whose `$A` shares its `gen_A` row with another's, though the
    /// pairs differ, is refused like a repeated pair.
    #[test]
    fn from_slots_refuses_an_attribute_that_only_its_row_fits() {
        let unit = || vec![schema("gen_root").col_int("__unit").key(&["__unit"])];
        let slots = [Some((T0, Tuple::empty())), Some((T0, tuple![0i64]))];
        assert_eq!(GenId::from_slots(unit(), slots, |_| None).err(), Some(1));
        let slots = [Some((T0, tuple![0i64])), Some((T0, Tuple::empty()))];
        let ints = over(&[ValueType::Int]);
        assert_eq!(GenId::from_slots(ints, slots, |_| None).err(), Some(1));
    }

    #[test]
    fn a_clone_recycles_on_its_own() {
        let mut g = strs();
        let (a, _) = g.gen_id(T0, tuple!["a"]);
        let (b, _) = g.gen_id(T0, tuple!["b"]);
        let pinned = g.clone();
        g.retire(a);
        assert_eq!(g.gen_id(T1, tuple!["z"]), (a, true));
        assert_eq!((pinned.type_of(a), pinned.attr_of(a)), (T0, &tuple!["a"]));
        assert_eq!(pinned.lookup(T1, tuple!["z"].values()), None);
        assert_eq!(pinned.live_ids().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(pinned.n_free(), 0);
    }

    #[test]
    fn a_provisional_run_keeps_live_ids_and_writes_nothing() {
        let mut g = strs();
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
        assert_eq!(g.lookup(T1, tuple!["x"].values()), None);
    }

    #[test]
    fn live_ids_iterate_in_order() {
        let mut g = strs();
        let (a, _) = g.gen_id(T0, tuple!["a"]);
        let (b, _) = g.gen_id(T0, tuple!["b"]);
        let (c, _) = g.gen_id(T1, tuple!["c"]);
        g.retire(b);
        assert_eq!(g.live_ids().collect::<Vec<_>>(), vec![a, c]);
        assert_eq!(g.n_allocated(), 3);
        assert_eq!(g.n_live(), 2);
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
        let str_cols = || over(&[ValueType::Str]);
        let mut g = GenId::from_slots(str_cols(), slots, |_| None).expect("distinct pairs");
        assert_eq!((g.n_live(), g.n_free(), g.n_allocated()), (2, 3, 5));
        assert_eq!(g.live_ids().collect::<Vec<_>>(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(g.lookup(T1, tuple!["a"].values()), Some(NodeId(2)));
        for want in [1, 3, 4, 5] {
            let attr = tuple![format!("n{want}").as_str()];
            assert_eq!(g.gen_id(T0, attr), (NodeId(want), true));
        }
        let twice = [Some((T0, tuple!["a"])), None, Some((T0, tuple!["a"]))];
        assert_eq!(
            GenId::from_slots(str_cols(), twice, |_| None).err(),
            Some(2)
        );
        // A `$A` its `gen_A` schema rejects names its slot too.
        let mistyped = [Some((T0, tuple!["a"])), Some((T1, tuple![7i64]))];
        assert_eq!(
            GenId::from_slots(str_cols(), mistyped, |_| None).err(),
            Some(1)
        );
    }

    /// `finish` sorts each type's rows on their leading value's
    /// abbreviation and compares whole rows only on a tie: the order of a
    /// full sort, for leading values whose abbreviations tie.
    #[test]
    fn finished_tables_are_in_the_fully_compared_order() {
        let strs = [
            "",
            "\0",
            "\0\0",
            "abcdefgh",
            "abcdefgh\0",
            "abcdefghz",
            "abcdefgi",
            "b",
        ];
        let ints = [i64::MIN, -1, 0, i64::MAX];
        let cases: [(ValueType, Vec<Value>); 3] = [
            (
                ValueType::Str,
                strs.iter().map(|&s| Value::from(s)).collect(),
            ),
            (ValueType::Int, ints.map(Value::Int).to_vec()),
            (ValueType::Bool, vec![Value::Bool(true), Value::Bool(false)]),
        ];
        for (ty, leading) in cases {
            // Every leading value under two second values, requested in an
            // order that is not the rows' own.
            let attrs: Vec<Tuple> = (0..2 * leading.len() as i64)
                .rev()
                .map(|i| {
                    let lead = leading[(i / 2 * 5) as usize % leading.len()].clone();
                    Tuple::from_values([lead, Value::Int(i % 2)])
                })
                .collect();
            let slots = attrs.iter().map(|a| Some((T0, a.clone())));
            let g = GenId::from_slots(over(&[ty, ValueType::Int]), slots, |_| None).unwrap();
            let mut sorted = attrs.clone();
            sorted.sort();
            sorted.dedup();
            let rows: Vec<&Tuple> = g.table(T0).iter().collect();
            assert_eq!(rows, sorted.iter().collect::<Vec<_>>(), "{ty:?}");
            for (row, &id) in g.table(T0).entries() {
                assert_eq!(g.attr_of(id), row);
            }
        }
    }

    #[test]
    fn a_loaded_slot_keeps_the_tuple_of_the_pair_it_repeats() {
        let same = |a: &Tuple, b: &Tuple| std::ptr::eq(a.values().as_ptr(), b.values().as_ptr());
        let slots = [
            Some((T0, tuple!["a", 1i64])),
            Some((T1, tuple!["a", 1i64])),
            Some((T1, tuple!["b", 2i64])),
            Some((T2, tuple!["a", 1i64])),
            Some((T0, tuple!["b", 2i64])),
        ];
        let repeats = |ty| (ty == T1).then_some(T0);
        let cols = over(&[ValueType::Str, ValueType::Int]);
        let g = GenId::from_slots(cols, slots, repeats).expect("distinct pairs");
        let attr = |i| g.attr_of(NodeId(i));
        // A pair of the repeating type with an equal `$A` loaded before it.
        assert!(same(attr(1), attr(0)));
        // None loaded yet, or a type that repeats nothing: its own tuple.
        assert!(!same(attr(2), attr(4)) && attr(2) == attr(4));
        assert!(!same(attr(3), attr(0)) && attr(3) == attr(0));
        assert_eq!(g.lookup(T1, tuple!["a", 1i64].values()), Some(NodeId(1)));
    }
}
