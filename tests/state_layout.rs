//! Layout guards for the resident state under tier-1: what a cell and a row
//! handle cost, and that a table keeps the row it was given — once.
//!
//! Every row of `I`, every `gen_A` row, every interner attribute and every
//! column-index entry is an array of `Value`s behind a `Tuple` handle, so a
//! byte on either is a byte on all of `(I, V)` (ARCHITECTURE.md, "What the
//! state costs"; the per-row and per-node byte counts are held by
//! `crates/bench/tests/snapshot_alloc.rs`, which needs its own allocator).

use rxview::prelude::*;
use rxview::relstore::{schema, tuple, Table};

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
    // By key, by key prefix, by full scan and through a column index: the
    // one allocation, never a copy or a key built from it.
    let found = [
        h.get(&tuple![7i64]).expect("by key"),
        h.scan_key_prefix(&[Value::Int(7)])
            .next()
            .expect("by prefix"),
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
