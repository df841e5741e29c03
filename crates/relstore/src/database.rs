//! The database: a catalog of named tables plus atomic group updates.

use crate::error::{RelError, RelResult};
use crate::schema::TableSchema;
use crate::table::Table;
use crate::tuple::Tuple;
use crate::update::{GroupUpdate, TupleOp};
use crate::value::ValueType;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An in-memory relational database instance `I` of a schema `R`.
///
/// Tables are stored behind [`Arc`], so cloning a `Database` is `O(#tables)`
/// regardless of row counts, and a [`Table`] keeps its rows and indexes in
/// page-granular copy-on-write containers ([`PagedMap`](crate::PagedMap)), so the first
/// write to a shared table copies its page directory and then one page per
/// row it changes. The serving engine relies on this to publish immutable
/// snapshots cheaply: a snapshot and the writer's working copy share every
/// page of every table the writer has not written.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a table from a schema.
    pub fn create_table(&mut self, schema: TableSchema) -> RelResult<()> {
        self.add_table(Table::new(schema))
    }

    /// Adds an already populated table (a bulk load) under its schema's
    /// name.
    pub fn add_table(&mut self, table: Table) -> RelResult<()> {
        let name = table.schema().name().to_owned();
        if self.tables.contains_key(&name) {
            return Err(RelError::TableExists(name));
        }
        self.tables.insert(name, Arc::new(table));
        Ok(())
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> RelResult<&Table> {
        self.tables
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| RelError::UnknownTable(name.into()))
    }

    /// Looks up a table mutably (copy-on-write: a table shared with a
    /// snapshot is unshared on first mutation — a copy of page pointers, not
    /// of rows).
    pub fn table_mut(&mut self, name: &str) -> RelResult<&mut Table> {
        self.tables
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| RelError::UnknownTable(name.into()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// The first table of the same shape as `schema` — the same column
    /// types and the same key — in name order: the donor whose equal rows
    /// a table of that shape loads as its own (a universe table beside its
    /// subset, a join partner repeating its columns).
    pub(crate) fn same_shape(&self, schema: &TableSchema) -> Option<&Table> {
        Self::first_of_shape(self.tables.values(), schema).map(Arc::as_ref)
    }

    /// The first of `tables` of the same shape as `schema`.
    fn first_of_shape<'t>(
        mut tables: impl Iterator<Item = &'t Arc<Table>>,
        schema: &TableSchema,
    ) -> Option<&'t Arc<Table>> {
        fn types(s: &TableSchema) -> impl Iterator<Item = ValueType> + '_ {
            s.columns().iter().map(|c| c.ty)
        }
        tables.find(|t| t.schema().key() == schema.key() && types(t.schema()).eq(types(schema)))
    }

    /// Stores once what same-shape tables repeat, as a checkpoint load
    /// does: in name order, a row equal to the row at its key in the first
    /// table before it of the same shape (column types and key) takes that
    /// row's allocation, in place. A table with no donor is not read, and
    /// one whose rows already are its donor's is not written: nothing is
    /// rebuilt, re-checked or re-sorted. No value, order or byte on disk
    /// moves. A column index built on replaced rows is dropped, to be
    /// rebuilt on its next probe. Returns how many rows equal their
    /// donor's.
    pub fn share_equal_rows(&mut self) -> usize {
        let mut shared = 0;
        let names: Vec<String> = self.tables.keys().cloned().collect();
        for name in &names {
            let before = self.tables.range::<String, _>(..name);
            let schema = self.tables[name].schema();
            let Some(donor) = Self::first_of_shape(before.map(|(_, t)| t), schema).cloned() else {
                continue;
            };
            let table = self.tables.get_mut(name).expect("a listed name");
            shared += Arc::make_mut(table).share_rows_with(&donor);
        }
        shared
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Inserts a tuple into a table.
    pub fn insert(&mut self, table: &str, tuple: Tuple) -> RelResult<bool> {
        self.table_mut(table)?.insert(tuple)
    }

    /// Deletes a tuple by primary key.
    pub fn delete(&mut self, table: &str, key: &Tuple) -> RelResult<Tuple> {
        self.table_mut(table)?.delete(key)
    }

    /// Applies a group update atomically: either every operation succeeds or
    /// the database is left unchanged.
    ///
    /// Operations are validated in order against an *overlay* of the group's
    /// net per-key effects — `O(|∆R| log |∆R|)` plus point lookups, never a
    /// copy of a table — and only then committed. Duplicate-insert of an
    /// identical tuple and delete-of-already-deleted within the same group
    /// are tolerated (the paper's ∆V→∆R translation can legitimately produce
    /// overlapping ops for shared subtrees).
    pub fn apply(&mut self, update: &GroupUpdate) -> RelResult<()> {
        // Phase 1: validate. `overlay` maps (table, key) to the row the
        // group leaves there (`None` = deleted); a key absent from the
        // overlay still has its live-table value.
        let mut overlay: BTreeMap<(&str, Tuple), Option<Tuple>> = BTreeMap::new();
        for op in update.ops() {
            let table = self.table(op.table())?;
            match op {
                TupleOp::Insert { tuple, .. } => {
                    table.schema().check_tuple(tuple)?;
                    let key = table.schema().key_of(tuple);
                    let current = match overlay.get(&(op.table(), key.clone())) {
                        Some(pending) => pending.clone(),
                        None => table.get(&key).cloned(),
                    };
                    match current {
                        Some(existing) if existing == *tuple => {} // set semantics
                        Some(_) => {
                            return Err(RelError::DuplicateKey {
                                table: op.table().into(),
                            })
                        }
                        None => {
                            overlay.insert((op.table(), key), Some(tuple.clone()));
                        }
                    }
                }
                TupleOp::Delete { key, .. } => {
                    overlay.insert((op.table(), key.clone()), None);
                }
            }
        }
        // Phase 2: commit the net effects.
        for ((name, key), effect) in overlay {
            let table = self.table_mut(name)?;
            match effect {
                Some(tuple) => {
                    // A delete-then-insert of the same key nets out to a row
                    // replacement.
                    if table.get(&key) != Some(&tuple) {
                        if table.contains_key(&key) {
                            table.delete(&key)?;
                        }
                        table.insert(tuple)?;
                    }
                }
                None => {
                    if table.contains_key(&key) {
                        table.delete(&key)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema;
    use crate::tuple;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(
            schema("course")
                .col_str("cno")
                .col_str("title")
                .key(&["cno"]),
        )
        .unwrap();
        d.create_table(
            schema("prereq")
                .col_str("cno1")
                .col_str("cno2")
                .key(&["cno1", "cno2"]),
        )
        .unwrap();
        d
    }

    #[test]
    fn create_and_lookup_tables() {
        let d = db();
        assert!(d.table("missing").is_err());
        assert_eq!(
            d.table_names().collect::<Vec<_>>(),
            vec!["course", "prereq"]
        );
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut d = db();
        assert!(matches!(
            d.create_table(schema("course").col_str("x").key(&["x"])),
            Err(RelError::TableExists(_))
        ));
    }

    #[test]
    fn apply_commits_all_ops() {
        let mut d = db();
        let mut g = GroupUpdate::new();
        g.insert("course", tuple!["CS240", "Data Structures"]);
        g.insert("prereq", tuple!["CS320", "CS240"]);
        d.apply(&g).unwrap();
        assert_eq!(d.table("course").unwrap().len(), 1);
        assert_eq!(d.table("prereq").unwrap().len(), 1);
        assert_eq!(d.total_rows(), 2);
    }

    #[test]
    fn apply_is_atomic_on_failure() {
        let mut d = db();
        d.insert("course", tuple!["CS240", "Data Structures"])
            .unwrap();
        let mut g = GroupUpdate::new();
        g.insert("course", tuple!["CS320", "Algorithms"]);
        // Conflicts with the existing CS240 row (same key, different payload).
        g.insert("course", tuple!["CS240", "Conflicting"]);
        assert!(d.apply(&g).is_err());
        // The valid first op must not have been committed.
        assert_eq!(d.table("course").unwrap().len(), 1);
        assert!(d.table("course").unwrap().get(&tuple!["CS320"]).is_none());
    }

    #[test]
    fn apply_tolerates_double_delete() {
        let mut d = db();
        d.insert("course", tuple!["CS240", "Data Structures"])
            .unwrap();
        let mut g = GroupUpdate::new();
        g.delete("course", tuple!["CS240"]);
        // The same logical delete appearing again must not abort the group.
        g.push(TupleOp::Delete {
            table: "course".into(),
            key: tuple!["CS240"],
        });
        d.apply(&g).unwrap();
        assert!(d.table("course").unwrap().is_empty());
    }

    #[test]
    fn apply_unknown_table_fails_before_mutation() {
        let mut d = db();
        let mut g = GroupUpdate::new();
        g.insert("nope", tuple!["x"]);
        assert!(matches!(d.apply(&g), Err(RelError::UnknownTable(_))));
    }
}
