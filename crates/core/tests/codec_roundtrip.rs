//! Codec round-trip property tests and the golden-bytes pin of the on-disk
//! format.
//!
//! `decode(encode(u)) == u` must hold for every [`GroupUpdate`] — all op
//! variants, empty groups, large text payloads — and the exact byte layout
//! is pinned so that a change to the format cannot slip through silently:
//! WAL segments and checkpoints written by one build must stay readable by
//! the next, or bump their version magic.

use proptest::prelude::*;
use rxview_core::codec;
use rxview_relstore::codec::Reader;
use rxview_relstore::{tuple, GroupUpdate, Tuple, TupleOp, Value};

fn value_strategy() -> BoxedStrategy<Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[ -~]{0,24}".prop_map(Value::from),
        any::<bool>().prop_map(Value::Bool),
    ]
    .boxed()
}

fn tuple_strategy() -> BoxedStrategy<Tuple> {
    prop::collection::vec(value_strategy(), 0..5)
        .prop_map(Tuple::from_values)
        .boxed()
}

fn op_strategy() -> BoxedStrategy<TupleOp> {
    (any::<bool>(), "[a-z_]{1,12}", tuple_strategy())
        .prop_map(|(ins, table, tuple)| {
            if ins {
                TupleOp::Insert { table, tuple }
            } else {
                TupleOp::Delete { table, key: tuple }
            }
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode(encode(g)) == g` for arbitrary groups (both op variants,
    /// empty groups included via the 0-length vec case).
    #[test]
    fn group_update_round_trips(ops in prop::collection::vec(op_strategy(), 0..12)) {
        let g = GroupUpdate::from_ops(ops);
        let bytes = g.encode();
        let back = GroupUpdate::decode(&bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(&back, &g);
        // And no strict prefix may decode to a full group.
        if !bytes.is_empty() {
            prop_assert!(GroupUpdate::decode(&bytes[..bytes.len() - 1]).is_err());
        }
    }

    /// Single values and tuples round-trip through the low-level codec.
    #[test]
    fn tuples_round_trip(t in tuple_strategy()) {
        let mut out = Vec::new();
        rxview_relstore::codec::put_tuple(&mut out, &t);
        let mut r = Reader::new(&out);
        let back = rxview_relstore::codec::read_tuple(&mut r)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back, t);
        prop_assert!(r.is_empty());
    }
}

#[test]
fn empty_group_is_one_byte() {
    let g = GroupUpdate::new();
    assert_eq!(g.encode(), vec![0x00]);
    assert_eq!(GroupUpdate::decode(&[0x00]).unwrap(), g);
}

#[test]
fn large_text_payloads_round_trip() {
    // A megabyte-scale string value and a wide tuple: varint length
    // prefixes must hold up well past one-byte lengths.
    let big = "x".repeat(1_000_000) + "∆R≠∅"; // multi-byte UTF-8 tail
    let mut g = GroupUpdate::new();
    g.insert("blob", tuple![big.as_str(), 7i64]);
    g.delete(
        "blob",
        Tuple::from_values(vec![Value::from("k".repeat(70_000))]),
    );
    let bytes = g.encode();
    assert!(bytes.len() > 1_000_000);
    assert_eq!(GroupUpdate::decode(&bytes).unwrap(), g);
}

/// Pins the exact on-disk byte layout of a representative group. If this
/// test fails, the format changed: bump the WAL/checkpoint magic instead of
/// silently breaking old files.
#[test]
fn golden_bytes_pin_the_format() {
    let mut g = GroupUpdate::new();
    g.insert("course", tuple!["CS240", "DS"]);
    g.delete("enroll", tuple![-3i64, true]);

    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        0x02,                                            // 2 ops
        // op 1: insert (tag 0)
        0x00,
        0x06, b'c', b'o', b'u', b'r', b's', b'e',        // table "course"
        0x02,                                            // tuple arity 2
        0x01, 0x05, b'C', b'S', b'2', b'4', b'0',        // Str "CS240"
        0x01, 0x02, b'D', b'S',                          // Str "DS"
        // op 2: delete (tag 1)
        0x01,
        0x06, b'e', b'n', b'r', b'o', b'l', b'l',        // table "enroll"
        0x02,                                            // key arity 2
        0x00, 0x05,                                      // Int(-3), zigzag = 5
        0x03,                                            // Bool(true)
    ];
    assert_eq!(g.encode(), expected);
    assert_eq!(GroupUpdate::decode(&expected).unwrap(), g);
}

/// The logical-update encoding (what WAL records carry) is pinned too.
#[test]
fn golden_bytes_pin_logged_updates() {
    use rxview_core::{SideEffectPolicy, XmlUpdate};
    let u = XmlUpdate::insert("course", tuple!["CS240"], "course/prereq").unwrap();
    let mut out = Vec::new();
    codec::put_policy(&mut out, SideEffectPolicy::Proceed);
    codec::put_update(&mut out, &u);

    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        0x01,                                            // policy Proceed
        0x00,                                            // insert tag
        0x06, b'c', b'o', b'u', b'r', b's', b'e',        // element type
        0x01,                                            // attr arity 1
        0x01, 0x05, b'C', b'S', b'2', b'4', b'0',        // Str "CS240"
        0x0D, b'c', b'o', b'u', b'r', b's', b'e', b'/',  // path, display form
        b'p', b'r', b'e', b'r', b'e', b'q',
    ];
    assert_eq!(out, expected);
    let mut r = Reader::new(&out);
    assert_eq!(
        codec::read_policy(&mut r).unwrap(),
        SideEffectPolicy::Proceed
    );
    assert_eq!(codec::read_update(&mut r).unwrap(), u);
    assert!(r.is_empty());
}
