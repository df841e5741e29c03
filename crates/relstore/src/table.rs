//! A base relation: schema plus primary-key-ordered rows.

use crate::cow::PagedMap;
use crate::error::{RelError, RelResult};
use crate::schema::TableSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// A table with set semantics, ordered by primary key, each row carrying a
/// payload `P` — nothing for a base relation, the node id for a `gen_A`
/// table of the interner, whose rows *are* its `$A` → id index.
///
/// Each row is stored once: the rows are a [`PagedMap`] of row handles
/// (and payloads) whose order is the key columns compared where they sit
/// in the row, so that iteration order — and therefore published views,
/// benchmarks, and test output — is deterministic, and so that a clone
/// shares every page of rows with its origin: the copy-on-write `Database`
/// pays for the rows a writer changes, not for the table they live in.
///
/// Point lookups on a column other than the leading key column go through
/// lazily built per-column secondary indexes ([`Table::scan_col_eq`]): the
/// first probe of a column pays one `O(n)` build, subsequent probes are
/// ordered lookups.
/// An index is part of the table's shared state: mutations maintain it
/// incrementally, and a clone carries it along page for page like the rows.
#[derive(Debug, Clone)]
pub struct Table<P = ()> {
    schema: Arc<TableSchema>,
    rows: PagedMap<Tuple, P>,
    /// One slot per column, filled on the first probe of that column. A
    /// slot is either empty or a complete index (an initializer that
    /// panics leaves it empty), so there is no lock to poison.
    col_index: Vec<OnceLock<ColIndex<P>>>,
}

/// One column's secondary index: a handle to every row and its payload,
/// ordered by the row's value in that column and then by its key — a
/// value's rows enumerate in primary-key order, exactly like a full scan
/// would.
type ColIndex<P> = PagedMap<Tuple, P>;

/// Orders two rows by the key columns `key`.
fn cmp_rows(key: &[usize], a: &Tuple, b: &Tuple) -> Ordering {
    key.iter()
        .map(|&c| a[c].cmp(&b[c]))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Orders `row`'s key columns against the key values `probe`, as the two
/// key tuples would compare: a probe of another length than the key equals
/// no row.
fn cmp_row_to_key(key: &[usize], row: &Tuple, probe: &[Value]) -> Ordering {
    key.iter()
        .zip(probe)
        .map(|(&c, p)| row[c].cmp(p))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| key.len().cmp(&probe.len()))
}

/// Orders two rows as column `col`'s index does: by that column, then by
/// the key columns `key`.
fn cmp_indexed(key: &[usize], col: usize, a: &Tuple, b: &Tuple) -> Ordering {
    a[col].cmp(&b[col]).then_with(|| cmp_rows(key, a, b))
}

/// The rows of a donor table, read in key order beside the rows of a table
/// being loaded in the same order: a loaded row equal to the donor's row at
/// its key takes that row's allocation. One merge of the two key orders —
/// each comparison either passes a donor row or ends a loaded row's search,
/// so a load makes at most `|table| + |donor|` of them, and none without a
/// donor. What [`Database::share_equal_rows`](crate::Database::share_equal_rows)
/// and the checkpoint decoder share equal rows through.
pub(crate) struct RowDonors<'d, I: Iterator<Item = &'d Tuple>> {
    key: Vec<usize>,
    rows: std::iter::Peekable<I>,
    shared: usize,
}

impl<'d, I: Iterator<Item = &'d Tuple>> RowDonors<'d, I> {
    /// Donor rows `rows`, ascending under the key columns `key`.
    pub(crate) fn new(key: &[usize], rows: I) -> Self {
        RowDonors {
            key: key.to_vec(),
            rows: rows.peekable(),
            shared: 0,
        }
    }

    /// The donor row equal to `row`, if the donor has one at its key. Rows
    /// are asked about in ascending key order; the donor rows below `row`'s
    /// key are passed for good. `row` is compared where it lies, so a
    /// decoder asks before it allocates anything; a column it lacks orders
    /// first and equals nothing.
    pub(crate) fn equal_to(&mut self, row: &[Value]) -> Option<&'d Tuple> {
        while let Some(donor) = self.rows.peek() {
            #[cfg(test)]
            tests::ROW_COMPARISONS.with(|n| n.set(n.get() + 1));
            let mut cols = self
                .key
                .iter()
                .map(|&c| donor.values().get(c).cmp(&row.get(c)));
            match cols.find(|o| o.is_ne()).unwrap_or(Ordering::Equal) {
                Ordering::Less => {
                    self.rows.next();
                }
                Ordering::Equal => {
                    let equal = |d: &&Tuple| std::ptr::eq(d.values(), row) || d.values() == row;
                    let donor = self.rows.next().filter(equal)?;
                    self.shared += 1;
                    return Some(donor);
                }
                Ordering::Greater => return None,
            }
        }
        None
    }

    /// How many rows [`RowDonors::equal_to`] has handed a donor's row.
    pub(crate) fn shared(&self) -> usize {
        self.shared
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Table::from_sorted(schema, []).expect("no rows to reject")
    }

    /// [`Table::from_sorted`] for rows that carry no payload.
    pub fn from_sorted_rows(
        schema: TableSchema,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> RelResult<Self> {
        Table::from_sorted(schema, rows.into_iter().map(|row| (row, ())))
    }

    /// Inserts a tuple. Re-inserting an identical tuple is a no-op (set
    /// semantics); inserting a different tuple with an existing key is a
    /// [`RelError::DuplicateKey`]. The rows are searched once.
    pub fn insert(&mut self, tuple: Tuple) -> RelResult<bool> {
        Ok(self.insert_entry(tuple, ())?.is_none())
    }
}

impl<P: Clone> Table<P> {
    /// Builds a table from rows already in strictly ascending primary-key
    /// order, each with its payload — what a checkpoint lists and what a
    /// bulk publication sorts: the row pages are written full, once each,
    /// where repeated inserts search for every key. Rows are checked
    /// against the schema like inserted ones.
    pub fn from_sorted(
        schema: TableSchema,
        entries: impl IntoIterator<Item = (Tuple, P)>,
    ) -> RelResult<Self> {
        // The pages are filled straight from `entries`; a row the schema
        // rejects ends the stream and is reported once it has.
        let mut rejected = None;
        let checked = entries.into_iter().map_while(|entry| {
            rejected = schema.check_tuple(&entry.0).err();
            rejected.is_none().then_some(entry)
        });
        let built = PagedMap::from_sorted_by(checked, |a, b| cmp_rows(schema.key(), a, b));
        if let Some(e) = rejected {
            return Err(e);
        }
        let rows = built.map_err(|_| RelError::UnsortedRows {
            table: schema.name().into(),
        })?;
        Ok(Table {
            col_index: (0..schema.arity()).map(|_| OnceLock::new()).collect(),
            schema: Arc::new(schema),
            rows,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a tuple with its payload, searching the rows once: `None`
    /// when it went in, and the payload of an identical tuple already in
    /// the table (set semantics: nothing changes); a different tuple with
    /// the key is a [`RelError::DuplicateKey`].
    pub fn insert_entry(&mut self, tuple: Tuple, payload: P) -> RelResult<Option<&P>> {
        self.schema.check_tuple(&tuple)?;
        let key = self.schema.key();
        // The built column indexes take the row too, once it is in.
        let indexed = self.col_index.iter().any(|slot| slot.get().is_some());
        let entry = indexed.then(|| (tuple.clone(), payload.clone()));
        match self
            .rows
            .try_insert_by(tuple, payload, |a, b| cmp_rows(key, a, b))
        {
            Ok(()) => {
                for (col, slot) in self.col_index.iter_mut().enumerate() {
                    if let (Some(index), Some((row, p))) = (slot.get_mut(), &entry) {
                        index.insert_by(row.clone(), p.clone(), |a, b| cmp_indexed(key, col, a, b));
                    }
                }
                Ok(None)
            }
            Err(((existing, held), (tuple, _))) if *existing == tuple => Ok(Some(held)),
            Err(_) => Err(RelError::DuplicateKey {
                table: self.schema.name().into(),
            }),
        }
    }

    /// Deletes the tuple with the given primary key. Errors if absent.
    pub fn delete(&mut self, key: &Tuple) -> RelResult<Tuple> {
        let removed = self.remove(key.values()).map(|(row, _)| row);
        removed.ok_or_else(|| RelError::MissingKey {
            table: self.schema.name().into(),
        })
    }

    /// Removes the row with primary-key values `key`, if there is one, and
    /// hands it back with its payload.
    pub fn remove(&mut self, key: &[Value]) -> Option<(Tuple, P)> {
        let cols = self.schema.key();
        let removed = self.rows.remove_by(|row| cmp_row_to_key(cols, row, key))?;
        for (col, slot) in self.col_index.iter_mut().enumerate() {
            if let Some(index) = slot.get_mut() {
                index.remove_by(|row| cmp_indexed(cols, col, row, &removed.0));
            }
        }
        Some(removed)
    }

    /// The row with primary-key values `key`, and its payload.
    pub fn entry(&self, key: &[Value]) -> Option<(&Tuple, &P)> {
        let cols = self.schema.key();
        self.rows.get_by(|row| cmp_row_to_key(cols, row, key))
    }

    /// Looks up a tuple by primary key.
    pub fn get(&self, key: &Tuple) -> Option<&Tuple> {
        self.entry(key.values()).map(|(row, _)| row)
    }

    /// Whether a tuple with this primary key exists.
    pub fn contains_key(&self, key: &Tuple) -> bool {
        self.get(key).is_some()
    }

    /// Iterates over rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter().map(|(row, _)| row)
    }

    /// Iterates over rows and their payloads in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&Tuple, &P)> {
        self.rows.iter()
    }

    /// Iterates over the rows (in key order) that `locate` finds `Equal`;
    /// it must read the row's primary-key columns only, and find the rows
    /// before them `Less` and the rows after them `Greater`. Bound to a
    /// key prefix, this is a range scan — a point lookup when the prefix
    /// is the whole key — the index access path that keeps ATG rule
    /// evaluation linear in the *output* rather than the table (e.g. `H`
    /// rows of one `h1`). `locate` compares the prefix values where they
    /// are, against the key columns where they are: no probe key is built.
    pub fn scan_key_range<'a, F>(
        &'a self,
        locate: F,
    ) -> impl Iterator<Item = &'a Tuple> + use<'a, F, P>
    where
        F: Fn(&Tuple) -> Ordering,
    {
        self.rows
            .range_by(|row| locate(row) == Ordering::Less)
            .map(|(row, _)| row)
            .take_while(move |row| locate(row) == Ordering::Equal)
    }

    /// The rows whose column `col` equals `value`, via the lazily built
    /// secondary index — the access path for equality bindings that do not
    /// reach the primary key's prefix (e.g. probing `H` by `h2`). Row order
    /// follows the primary-key order, as for every other scan.
    pub fn scan_col_eq(&self, col: usize, value: &Value) -> Vec<&Tuple> {
        let entries = self.entries_col_eq(col, value).into_iter();
        entries.map(|(row, _)| row).collect()
    }

    /// [`Table::scan_col_eq`] with each row's payload.
    ///
    /// The leading key column needs no index of its own: the primary order
    /// already groups its values, so the probe is a key-prefix range (every
    /// `gen_A` probe of a node's first attribute field takes this path).
    pub fn entries_col_eq(&self, col: usize, value: &Value) -> Vec<(&Tuple, &P)> {
        // Either map orders its rows by column `col` first.
        let index = match self.schema.key().first() == Some(&col) {
            true => &self.rows,
            // `get_or_init` runs one initializer at a time, so concurrent
            // readers (e.g. reader threads probing one shared snapshot)
            // fund a single build instead of racing on duplicates.
            false => self.col_index[col].get_or_init(|| self.build_index(col)),
        };
        index
            .range_by(|row| row[col] < *value)
            .take_while(|(row, _)| row[col] == *value)
            .collect()
    }

    fn build_index(&self, col: usize) -> ColIndex<P> {
        #[cfg(test)]
        tests::INDEX_BUILDS.with(|n| n.set(n.get() + 1));
        let mut entries: Vec<(Tuple, P)> = self
            .entries()
            .map(|(r, p)| (r.clone(), p.clone()))
            .collect();
        // Stable, so a value's rows stay in the key order they were read in.
        // (Sorting on abbreviations kept beside the rows, as the interner's
        // `finish` does, gained nothing here: the rows arrive almost in
        // column order, which the stable sort's run detection exploits.)
        entries.sort_by(|a, b| a.0[col].cmp(&b.0[col]));
        let key = self.schema.key();
        ColIndex::from_sorted_by(entries, |a, b| cmp_indexed(key, col, a, b))
            .expect("primary keys are distinct, so the rows are")
    }

    /// Gives each row equal to `donor`'s row at its key that row's
    /// allocation, in place: one merge of the two key orders
    /// ([`RowDonors`]), and a page written only where a row that is not
    /// already the donor's takes the donor's ([`PagedMap`]'s key
    /// replacement: an equal row orders where the replaced one did). A
    /// column index built on the replaced rows is dropped, to be rebuilt on
    /// its next probe, so nothing keeps them. Returns how many rows equal
    /// the donor's, those already sharing its allocation included.
    pub(crate) fn share_rows_with(&mut self, donor: &Table) -> usize {
        let mut donors = RowDonors::new(self.schema.key(), donor.rows.iter().map(|(row, _)| row));
        let replaced = self.rows.replace_keys(|row| {
            let equal = donors.equal_to(row.values())?;
            (!std::ptr::eq(equal.values(), row.values())).then(|| equal.clone())
        });
        if replaced > 0 {
            self.col_index.iter_mut().for_each(|slot| drop(slot.take()));
        }
        donors.shared()
    }
}

/// How a [`RowSource::scan`] finds its rows.
#[derive(Clone, Copy)]
pub enum Probe<'p> {
    /// The rows the function finds `Equal` ([`Table::scan_key_range`]).
    KeyRange(&'p dyn Fn(&Tuple) -> Ordering),
    /// The rows whose column equals the value ([`Table::scan_col_eq`]).
    ColEq(usize, &'p Value),
    /// Every row.
    All,
}

/// What the evaluators read a FROM entry through: a [`Table`] of any
/// payload, its rows in key order under one of its access paths — so a
/// base relation and a `gen_A` table of the interner join alike.
pub trait RowSource {
    /// The rows' schema.
    fn schema(&self) -> &TableSchema;
    /// Calls `each` on every row `probe` finds, in key order.
    fn scan<'a>(&'a self, probe: Probe<'_>, each: &mut dyn FnMut(&'a Tuple));
}

impl<P: Clone> RowSource for Table<P> {
    fn schema(&self) -> &TableSchema {
        &self.schema
    }

    fn scan<'a>(&'a self, probe: Probe<'_>, each: &mut dyn FnMut(&'a Tuple)) {
        match probe {
            Probe::KeyRange(locate) => self.scan_key_range(locate).for_each(each),
            Probe::ColEq(col, value) => self.scan_col_eq(col, value).into_iter().for_each(each),
            Probe::All => self.iter().for_each(each),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema;
    use crate::tuple;
    use std::cell::Cell;

    thread_local! {
        /// Secondary-index builds on this thread.
        pub(super) static INDEX_BUILDS: Cell<usize> = const { Cell::new(0) };
        /// Donor rows compared with a loaded row on this thread
        /// ([`RowDonors::equal_to`]).
        pub(super) static ROW_COMPARISONS: Cell<usize> = const { Cell::new(0) };
    }

    fn course_table() -> Table {
        Table::new(
            schema("course")
                .col_str("cno")
                .col_str("title")
                .key(&["cno"]),
        )
    }

    #[test]
    fn insert_and_get_by_key() {
        let mut t = course_table();
        assert!(t.insert(tuple!["CS320", "Algorithms"]).unwrap());
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(&tuple!["CS320"]).unwrap(),
            &tuple!["CS320", "Algorithms"]
        );
    }

    #[test]
    fn reinsert_identical_is_noop() {
        let mut t = course_table();
        t.insert(tuple!["CS320", "Algorithms"]).unwrap();
        assert!(!t.insert(tuple!["CS320", "Algorithms"]).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn conflicting_key_is_error() {
        let mut t = course_table();
        t.insert(tuple!["CS320", "Algorithms"]).unwrap();
        assert!(matches!(
            t.insert(tuple!["CS320", "Other"]),
            Err(RelError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn delete_removes_and_errors_when_absent() {
        let mut t = course_table();
        t.insert(tuple!["CS320", "Algorithms"]).unwrap();
        assert_eq!(
            t.delete(&tuple!["CS320"]).unwrap(),
            tuple!["CS320", "Algorithms"]
        );
        assert!(t.is_empty());
        assert!(matches!(
            t.delete(&tuple!["CS320"]),
            Err(RelError::MissingKey { .. })
        ));
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut t = course_table();
        t.insert(tuple!["CS650", "b"]).unwrap();
        t.insert(tuple!["CS240", "a"]).unwrap();
        let keys: Vec<_> = t.iter().map(|r| r[0].clone()).collect();
        assert_eq!(keys, vec!["CS240".into(), "CS650".into()]);
    }

    #[test]
    fn scan_key_prefix_ranges() {
        let mut t = Table::new(
            crate::schema::schema("H")
                .col_int("h1")
                .col_int("h2")
                .key(&["h1", "h2"]),
        );
        for (a, b) in [(1i64, 2i64), (1, 5), (2, 3), (3, 4)] {
            t.insert(tuple![a, b]).unwrap();
        }
        use crate::value::Value;
        let (one, two, three) = (Value::Int(1), Value::Int(2), Value::Int(3));
        let rows: Vec<_> = t.scan_key_range(|r| r[0].cmp(&one)).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[0] == one));
        // Full-key prefix: point lookup.
        let full = |r: &Tuple| (&r[0], &r[1]).cmp(&(&two, &three));
        assert_eq!(t.scan_key_range(full).count(), 1);
        // Missing prefix: empty.
        assert_eq!(t.scan_key_range(|r| r[0].cmp(&Value::Int(9))).count(), 0);
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = course_table();
        assert!(t.insert(tuple!["CS320"]).is_err());
        assert!(t.insert(tuple![1i64, "x"]).is_err());
    }

    /// A table `name` of `(k, v)` integer rows keyed on `k`.
    fn keyed(name: &str, rows: impl IntoIterator<Item = (i64, i64)>) -> Table {
        let schema = schema(name).col_int("k").col_int("v").key(&["k"]);
        Table::from_sorted_rows(schema, rows.into_iter().map(|(k, v)| tuple![k, v])).unwrap()
    }

    #[test]
    fn a_loaded_row_takes_the_donor_row_at_its_key_only_if_equal() {
        // Keys on the donor's side only (1, 4, 9), on the loaded side only
        // (0, 5, 10, 11), on both and equal (2, 6), on both and unequal (3).
        let donor = keyed("a", [(1, 0), (2, 20), (3, 30), (4, 0), (6, 60), (9, 0)]);
        let loaded = [(0, 0), (2, 20), (3, 31), (5, 0), (6, 60), (10, 0), (11, 0)];
        let mut donors = RowDonors::new(&[0], donor.iter());
        let took: Vec<Option<i64>> = loaded
            .iter()
            .map(|&(k, v)| {
                let row = tuple![k, v];
                let found = donors.equal_to(row.values());
                found.map(|d| {
                    assert!(std::ptr::eq(d, donor.get(&tuple![k]).unwrap()));
                    k
                })
            })
            .collect();
        assert_eq!(took, [None, Some(2), None, None, Some(6), None, None]);
        assert_eq!(donors.shared(), 2);
        // A decoded row shorter than the key equals nothing, and panics
        // nowhere.
        let mut donors = RowDonors::new(&[0, 1], donor.iter());
        assert!(donors.equal_to(&[]).is_none());
        assert!(donors.equal_to(&[Value::Int(2)]).is_none());
    }

    #[test]
    fn sharing_compares_each_row_at_most_once_per_side() {
        // `a` is `b`'s donor (same shape, earlier by name): every other key
        // of `b` is in `a`, every third of those equal; `c` has no donor.
        let compared = |n: i64| {
            let mut db = crate::Database::new();
            db.add_table(keyed("a", (0..n).map(|k| (2 * k, k % 3))))
                .unwrap();
            db.add_table(keyed("b", (0..n).map(|k| (k, 0)))).unwrap();
            db.add_table(Table::new(schema("c").col_str("s").key(&["s"])))
                .unwrap();
            let before = ROW_COMPARISONS.with(Cell::get);
            let shared = db.share_equal_rows();
            let (a, b) = (db.table("a").unwrap(), db.table("b").unwrap());
            let equal: Vec<&Tuple> = b
                .iter()
                .filter(|r| a.get(&tuple![r[0].clone()]) == Some(*r))
                .collect();
            assert_eq!(shared, equal.len());
            assert!(equal.iter().all(|r| {
                let donor = a.get(&tuple![r[0].clone()]).unwrap();
                std::ptr::eq(r.values().as_ptr(), donor.values().as_ptr())
            }));
            (ROW_COMPARISONS.with(Cell::get) - before, a.len() + b.len())
        };
        for n in [100, 10_000] {
            let (made, bound) = compared(n);
            assert!(
                made <= bound,
                "{made} comparisons at n = {n}, bound {bound}"
            );
            assert!(
                made >= bound / 2,
                "{made} comparisons at n = {n}: the merge did not run"
            );
        }
        // Without a donor the pass compares nothing, and writes nothing.
        let mut db = crate::Database::new();
        db.add_table(keyed("only", (0..1_000).map(|k| (k, k))))
            .unwrap();
        let pinned = db.clone();
        let before = ROW_COMPARISONS.with(Cell::get);
        assert_eq!(db.share_equal_rows(), 0);
        assert_eq!(ROW_COMPARISONS.with(Cell::get), before);
        let rows = |db: &crate::Database| db.table("only").unwrap().rows.clone();
        assert!(rows(&db).shares_every_run_with(&rows(&pinned)));
    }

    #[test]
    fn rows_that_already_are_the_donors_write_no_page() {
        // `b` holds `a`'s own row handles, as the fixture's `CU` holds
        // `C`'s; `c` holds equal rows of its own.
        let a = keyed("a", (0..1_000).map(|k| (k, k % 5)));
        let own: Vec<Tuple> = a
            .iter()
            .map(|r| r.values().iter().cloned().collect())
            .collect();
        let schema = |name| schema(name).col_int("k").col_int("v").key(&["k"]);
        let b = Table::from_sorted_rows(schema("b"), a.iter().cloned()).unwrap();
        let c = Table::from_sorted_rows(schema("c"), own).unwrap();
        let mut db = crate::Database::new();
        for t in [a, b, c] {
            db.add_table(t).unwrap();
        }
        let pinned = db.clone();
        assert_eq!(db.share_equal_rows(), 2_000);
        let rows = |db: &crate::Database, t| db.table(t).unwrap().rows.clone();
        assert!(rows(&db, "b").shares_every_run_with(&rows(&pinned, "b")));
        // `c` took `a`'s handles in place, its runs copied because the
        // pinned clone shares them; the clone keeps its own handles.
        let (a, c, held) = (rows(&db, "a"), rows(&db, "c"), rows(&pinned, "c"));
        assert!(!c.shares_every_run_with(&held));
        let same = |x: &Tuple, y: &Tuple| std::ptr::eq(x.values(), y.values());
        assert!(a.iter().zip(c.iter()).all(|((x, ()), (y, ()))| same(x, y)));
        assert!(a
            .iter()
            .zip(held.iter())
            .all(|((x, ()), (y, ()))| !same(x, y)));
        // A second pass finds every row already shared: no page written.
        let pinned = db.clone();
        assert_eq!(db.share_equal_rows(), 2_000);
        assert!(rows(&db, "c").shares_every_run_with(&rows(&pinned, "c")));
    }

    #[test]
    fn an_index_is_the_fully_compared_order_where_abbreviations_tie() {
        // Column values that tie on their 8-byte abbreviation
        // (`Value::abbreviation`), under keys in another order than the
        // values.
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
        let check = |table: Table, col: usize| {
            let values: Vec<Value> = table.iter().map(|r| r[col].clone()).collect();
            for v in &values {
                let full: Vec<&Tuple> = table.iter().filter(|r| r[col] == *v).collect();
                assert_eq!(table.scan_col_eq(col, v), full, "value {v:?}");
            }
            let built = table.build_index(col);
            let index: Vec<&Tuple> = built.iter().map(|(r, ())| r).collect();
            let mut sorted: Vec<&Tuple> = table.iter().collect();
            sorted.sort_by(|a, b| cmp_indexed(table.schema().key(), col, a, b));
            assert_eq!(index, sorted);
        };
        let s = schema("s").col_int("k").col_str("v").key(&["k"]);
        let rows = (0..64i64).map(|k| tuple![k, strs[(k * 5 % 8) as usize]]);
        check(Table::from_sorted_rows(s, rows).unwrap(), 1);
        let i = schema("i").col_int("k").col_int("v").key(&["k"]);
        let rows = (0..64i64).map(|k| tuple![k, ints[(k * 3 % 4) as usize]]);
        check(Table::from_sorted_rows(i, rows).unwrap(), 1);
        let bools = vec![Value::Bool(false), Value::Bool(true)];
        let b = schema("b")
            .col_int("k")
            .col_finite("v", crate::ValueType::Bool, bools)
            .key(&["k"]);
        let rows = (0..64i64).map(|k| tuple![k, k % 3 == 0]);
        check(Table::from_sorted_rows(b, rows).unwrap(), 1);
    }

    #[test]
    fn clones_share_a_built_index_and_maintain_it() {
        let mut t = Table::new(schema("H").col_int("h1").col_int("h2").key(&["h1", "h2"]));
        for a in 0..200i64 {
            t.insert(tuple![a, a % 7]).unwrap();
            t.insert(tuple![a, 7 + a % 3]).unwrap();
        }
        let full_scan = |t: &Table, v: i64| -> Vec<Tuple> {
            t.iter()
                .filter(|r| r[1] == Value::Int(v))
                .cloned()
                .collect()
        };
        let probe = |t: &Table, v: i64| -> Vec<Tuple> {
            t.scan_col_eq(1, &Value::Int(v))
                .into_iter()
                .cloned()
                .collect()
        };
        let builds = || INDEX_BUILDS.with(Cell::get);
        let before = builds();
        assert_eq!(probe(&t, 3), full_scan(&t, 3));
        assert_eq!(builds(), before + 1, "the first probe builds the index");

        let mut c = t.clone();
        c.delete(&tuple![3i64, 3i64]).unwrap();
        c.insert(tuple![1_000i64, 3i64]).unwrap();
        c.insert(tuple![1_001i64, 99i64]).unwrap();
        for v in [0, 3, 8, 99, 12345] {
            assert_eq!(probe(&c, v), full_scan(&c, v), "clone, value {v}");
            assert_eq!(probe(&t, v), full_scan(&t, v), "origin, value {v}");
        }
        assert_ne!(probe(&c, 3), probe(&t, 3));
        assert_eq!(builds(), before + 1, "the clone inherited the built index");
    }

    #[test]
    fn a_column_only_readers_probe_is_built_once_per_epoch_at_worst() {
        // The serving engine's worst case for a lazily indexed column that
        // only readers probe: the writer's working clone has already
        // written the table when the epoch's first read builds the index in
        // the published version, so the next epoch starts without it. The
        // cost is one build per epoch — never one per read — and nothing
        // when the probe comes before the clone's first write.
        use crate::database::Database;
        let fresh = || {
            let mut db = Database::new();
            db.create_table(schema("H").col_int("h1").col_int("h2").key(&["h1", "h2"]))
                .unwrap();
            for a in 0..300i64 {
                db.insert("H", tuple![a, a % 7]).unwrap();
            }
            db
        };
        let probe =
            |db: &Database, v: i64| db.table("H").unwrap().scan_col_eq(1, &Value::Int(v)).len();
        let builds = || INDEX_BUILDS.with(Cell::get);
        let (epochs, reads) = (5usize, 20i64);

        let before = builds();
        let mut published = fresh();
        for epoch in 0..epochs as i64 {
            let mut working = published.clone();
            working.insert("H", tuple![1_000 + epoch, 3i64]).unwrap();
            for r in 0..reads {
                assert!(probe(&published, r % 7) >= 42);
            }
            published = working;
        }
        assert_eq!(
            builds() - before,
            epochs,
            "one build per epoch, not per read"
        );

        let before = builds();
        let mut published = fresh();
        for epoch in 0..epochs as i64 {
            for r in 0..reads {
                assert!(probe(&published, r % 7) >= 42);
            }
            let mut working = published.clone();
            working.insert("H", tuple![2_000 + epoch, 3i64]).unwrap();
            published = working;
        }
        assert_eq!(
            builds() - before,
            1,
            "a clone taken after the probe inherits the index"
        );
    }

    #[test]
    fn leading_key_column_probes_the_primary_index() {
        // An all-key table, like every `gen_A` registry.
        let mut t = Table::new(schema("H").col_int("h1").col_int("h2").key(&["h1", "h2"]));
        for a in 0..200i64 {
            t.insert(tuple![a % 50, a]).unwrap();
        }
        let before = INDEX_BUILDS.with(Cell::get);
        for v in [0, 7, 49, 50, -1] {
            let full_scan: Vec<&Tuple> = t.iter().filter(|r| r[0] == Value::Int(v)).collect();
            assert_eq!(t.scan_col_eq(0, &Value::Int(v)), full_scan, "value {v}");
        }
        // The same rows in the same order as the secondary path gives.
        assert_eq!(t.scan_col_eq(0, &Value::Int(7)).len(), 4);
        t.delete(&tuple![7i64, 57i64]).unwrap();
        t.insert(tuple![7i64, 1_000i64]).unwrap();
        let got: Vec<i64> = t
            .scan_col_eq(0, &Value::Int(7))
            .iter()
            .map(|r| r[1].as_int().unwrap())
            .collect();
        assert_eq!(got, vec![7, 107, 157, 1_000]);
        assert_eq!(
            INDEX_BUILDS.with(Cell::get),
            before,
            "no secondary index is built for the leading key column"
        );
    }
}
