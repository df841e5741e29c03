//! Layout guards for the resident state under tier-1: what a cell and a row
//! handle cost, that a table keeps the row it was given — once — that both
//! constructors store a row equal to the row at its key in an earlier table
//! of the same shape once, and that a `sub` node's `$A` is its `node`'s
//! allocation however the state was built.
//!
//! Every row of `I`, every `gen_A` row, every interner attribute and every
//! column-index entry is an array of `Value`s behind a `Tuple` handle, so a
//! byte on either is a byte on all of `(I, V)` (ARCHITECTURE.md, "What the
//! state costs"; the per-row and per-node byte counts are held by
//! `crates/bench/tests/snapshot_alloc.rs`, which needs its own allocator).

use rxview::atg::{registrar_atg, registrar_database, NodeId};
use rxview::core::codec::{decode_system, encode_system};
use rxview::prelude::*;
use rxview::relstore::{schema, tuple, Reader, Table};
use rxview::workload::{synthetic_atg, synthetic_database, SyntheticConfig};
use std::collections::BTreeSet;

#[test]
fn a_cell_and_a_row_handle_are_sixteen_bytes() {
    assert_eq!(std::mem::size_of::<Value>(), 16);
    assert_eq!(std::mem::size_of::<Tuple>(), 16);
}

#[test]
fn a_table_stores_the_row_it_was_given_and_nothing_beside_it() {
    let mut h = Table::new(schema("H").col_int("h1").col_int("h2").key(&["h1"]));
    let row = tuple![7i64, 9i64];
    let cells = row.values().as_ptr();
    h.insert(row).expect("fresh key");
    // By key, by key range, by full scan and through a column index: the
    // one allocation, never a copy or a key built from it.
    let found = [
        h.get(&tuple![7i64]).expect("by key"),
        h.scan_key_range(|row| row[0].cmp(&Value::Int(7)))
            .next()
            .expect("by key range"),
        h.iter().next().expect("by scan"),
        h.scan_col_eq(1, &Value::Int(9))[0],
    ];
    for row in found {
        assert!(std::ptr::eq(row.values().as_ptr(), cells));
    }
    let back = h.delete(&tuple![7i64]).expect("present");
    assert!(std::ptr::eq(back.values().as_ptr(), cells));
    assert!(h.is_empty() && h.scan_col_eq(1, &Value::Int(9)).is_empty());
}

/// Whether two rows are one allocation.
fn same_cells(a: &Tuple, b: &Tuple) -> bool {
    std::ptr::eq(a.values().as_ptr(), b.values().as_ptr())
}

/// The keys (`c1`) at which `F`'s row is `C`'s allocation.
fn f_keys_sharing_c(base: &Database) -> BTreeSet<Value> {
    let (c, f) = (base.table("C").unwrap(), base.table("F").unwrap());
    let at_key = |row: &Tuple| c.get(&tuple![row[0].clone()]);
    let shared = f
        .iter()
        .filter(|&row| at_key(row).is_some_and(|c| same_cells(c, row)));
    shared.map(|row| row[0].clone()).collect()
}

#[test]
fn construction_stores_equal_rows_of_same_shape_tables_once_as_a_checkpoint_load_does() {
    let db = synthetic_database(&SyntheticConfig::with_size(10 * 40));
    let given = db.clone();
    let sys = XmlViewSystem::new(synthetic_atg(&db).unwrap(), db).unwrap();
    let base = sys.base();

    // `F` (after `C` and `CU` in name order, and of their shape) takes
    // `C`'s allocation wherever its row equals `C`'s — which most do — and
    // keeps an allocation of its own wherever it does not.
    let (c, f) = (base.table("C").unwrap(), base.table("F").unwrap());
    let (mut equal, mut unequal) = (0, 0);
    for (c_row, f_row) in c.iter().zip(f.iter()) {
        assert_eq!(c_row[0], f_row[0], "one F row per C row, by key");
        if c_row == f_row {
            assert!(
                same_cells(c_row, f_row),
                "F row {f_row} equals C's and is a copy"
            );
            equal += 1;
        } else {
            let was = given.table("F").unwrap().get(&tuple![f_row[0].clone()]);
            assert!(
                was.is_some_and(|was| same_cells(was, f_row)),
                "F row {f_row}"
            );
            unequal += 1;
        }
    }
    assert!(
        equal > 4 * unequal && unequal > 0,
        "{equal} equal, {unequal} not"
    );

    // `C` and `H` have no earlier table of their shape: their rows are the
    // allocations they were given. `CU` was given `C`'s.
    for name in ["C", "H", "CU"] {
        let (kept, was) = (base.table(name).unwrap(), given.table(name).unwrap());
        assert_eq!(kept.len(), was.len());
        assert!(
            kept.iter().zip(was.iter()).all(|(a, b)| same_cells(a, b)),
            "{name}"
        );
    }
    let cu = base.table("CU").unwrap();
    assert!(c.iter().zip(cu.iter()).all(|(a, b)| same_cells(a, b)));

    // A checkpoint load shares at exactly the same keys.
    let mut bytes = Vec::new();
    encode_system(&sys, &mut bytes);
    let back = decode_system(sys.view().atg(), &mut Reader::new(&bytes)).unwrap();
    let shared = f_keys_sharing_c(base);
    assert_eq!(shared.len(), equal);
    assert_eq!(f_keys_sharing_c(back.base()), shared);
}

/// The `sub` nodes whose `$A` is their parent `node`'s allocation — which
/// must be every one of them.
fn subs_sharing_their_node(sys: &XmlViewSystem) -> BTreeSet<NodeId> {
    let (dag, dtd) = (sys.view().dag(), sys.view().atg().dtd());
    let genid = dag.genid();
    let (node, sub) = (dtd.type_id("node").unwrap(), dtd.type_id("sub").unwrap());
    let subs: Vec<NodeId> = genid
        .live_ids()
        .filter(|&v| genid.type_of(v) == sub)
        .collect();
    let gen_sub = genid.table(sub);
    let mut sharing = BTreeSet::new();
    for &v in &subs {
        let &[parent] = dag.parents(v) else {
            panic!("sub {v:?} has one parent");
        };
        assert_eq!(genid.type_of(parent), node);
        let attr = genid.attr_of(v);
        if same_cells(attr, genid.attr_of(parent)) {
            sharing.insert(v);
        }
        // The `gen_sub` row is the same allocation again.
        let row = gen_sub.get(attr).expect("registered");
        assert!(same_cells(row, attr), "gen_sub row of {v:?}");
    }
    assert_eq!(sharing.len(), subs.len(), "every sub shares its node's $A");
    sharing
}

#[test]
fn a_sub_keeps_its_nodes_attribute_published_loaded_and_maintained() {
    let db = synthetic_database(&SyntheticConfig::with_size(10 * 40));
    let mut sys = XmlViewSystem::new(synthetic_atg(&db).unwrap(), db).unwrap();
    let published = subs_sharing_their_node(&sys);
    assert!(published.len() > 100, "{} subs", published.len());

    // A checkpoint load shares at exactly the same nodes.
    let mut bytes = Vec::new();
    encode_system(&sys, &mut bytes);
    let back = decode_system(sys.view().atg(), &mut Reader::new(&bytes)).unwrap();
    assert_eq!(subs_sharing_their_node(&back), published);

    // So does a subtree an insertion generates.
    let insert = XmlUpdate::insert("node", tuple![400i64, 0i64], "node[id=0]/sub").unwrap();
    sys.apply(&insert, SideEffectPolicy::Proceed).unwrap();
    let maintained = subs_sharing_their_node(&sys);
    assert!(maintained.len() > published.len());
}

/// Each type's `gen_A` table is its live nodes: one row per live node, the
/// interner's own `$A` allocation (the unit row for an empty `$A`),
/// carrying the node's id.
fn assert_rows_are_the_live_nodes(sys: &XmlViewSystem) {
    let (genid, dtd) = (sys.view().dag().genid(), sys.view().atg().dtd());
    let mut rows = 0;
    for ty in dtd.types() {
        for (row, &id) in genid.table(ty).entries() {
            let name = dtd.name(ty);
            assert!(genid.is_live(id), "gen_{name} names free id {}", id.0);
            assert_eq!(
                genid.type_of(id),
                ty,
                "gen_{name} names a node of another type"
            );
            match genid.attr_of(id) {
                attr if attr.arity() == 0 => assert_eq!(row, &tuple![0i64], "gen_{name}"),
                attr => assert!(same_cells(row, attr), "gen_{name} row of {id:?}"),
            }
            rows += 1;
        }
    }
    assert_eq!(rows, genid.n_live(), "a live node without a row");
}

#[test]
fn the_gen_tables_are_the_live_nodes_after_a_collection_and_a_rollback() {
    let db = registrar_database();
    let mut sys = XmlViewSystem::new(registrar_atg(&db).unwrap(), db).unwrap();
    assert_rows_are_the_live_nodes(&sys);
    let root = sys.view().dag().root();
    assert!(sys.view().dag().genid().attr_of(root).arity() == 0);

    // A fold that collects the student and its two text nodes.
    let delete = XmlUpdate::delete("course[cno=CS650]/takenBy/student[ssn=S01]").unwrap();
    let report = sys.apply(&delete, SideEffectPolicy::Proceed).unwrap();
    assert!(report.maintain.gc_nodes >= 3, "{:?}", report.maintain);
    assert_rows_are_the_live_nodes(&sys);

    // A rejected insertion: its fresh nodes were interned — rows and all —
    // before `I` refused the course's new title, and are rolled back.
    let space = sys.view().dag().genid().n_allocated();
    let insert = XmlUpdate::insert(
        "course",
        tuple!["CS320", "Another title"],
        "course[cno=CS650]/prereq",
    )
    .unwrap();
    assert!(sys.apply(&insert, SideEffectPolicy::Proceed).is_err());
    assert_eq!(sys.view().dag().genid().n_allocated(), space);
    assert_rows_are_the_live_nodes(&sys);
    sys.consistency_check().unwrap();
}
