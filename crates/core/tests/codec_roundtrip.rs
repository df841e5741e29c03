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

/// A registrar update from a small pool: enrolments, prerequisite links and
/// the deletions that undo them — delete-then-insert sequences release node
/// ids and hand them out again.
fn registrar_update(kind: usize, a: usize, b: usize) -> rxview_core::XmlUpdate {
    use rxview_core::XmlUpdate;
    const COURSES: [(&str, &str); 4] = [
        ("CS650", "Advanced DB"),
        ("CS320", "Algorithms"),
        ("CS240", "Data Structures"),
        ("MA100", "Calculus"),
    ];
    let (cno, _) = COURSES[a % 4];
    let (cno2, title2) = COURSES[b % 4];
    let student = tuple![format!("S{:02}", b % 6), format!("Student {}", b % 6)];
    match kind % 4 {
        0 => XmlUpdate::insert("student", student, &format!("course[cno={cno}]/takenBy")),
        1 => XmlUpdate::insert(
            "course",
            tuple![cno2, title2],
            &format!("//course[cno={cno}]/prereq"),
        ),
        2 => XmlUpdate::delete(&format!("//student[ssn=S{:02}]", b % 6)),
        _ => XmlUpdate::delete(&format!("course[cno={cno}]/prereq/course[cno={cno2}]")),
    }
    .expect("path parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A state with free node ids — written as three-byte slots — decodes to
    /// the same live nodes under the same ids and as many free ones,
    /// re-encodes to the same bytes, and goes on serving: the decoded copy
    /// and the original may hand their free ids out in another order, so
    /// what they are held to after further updates is the republication
    /// oracle and each other's view by `(type, $A)`.
    #[test]
    fn states_with_free_slots_round_trip(
        before in prop::collection::vec((0usize..4, 0usize..4, 0usize..12), 4..16),
        after in prop::collection::vec((0usize..4, 0usize..4, 0usize..12), 1..8),
    ) {
        use rxview_core::{SideEffectPolicy, XmlViewSystem};
        let db = rxview_atg::registrar_database();
        let atg = rxview_atg::registrar_atg(&db).expect("valid ATG");
        let mut sys = XmlViewSystem::new(atg.clone(), db).expect("publishes");
        for &(k, a, b) in &before {
            let _ = sys.apply(&registrar_update(k, a, b), SideEffectPolicy::Proceed);
        }
        let mut bytes = Vec::new();
        codec::encode_system(&sys, &mut bytes);
        let mut r = Reader::new(&bytes);
        let mut back = codec::decode_system(&atg, &mut r).expect("decodes");
        prop_assert!(r.is_empty());
        let mut again = Vec::new();
        codec::encode_system(&back, &mut again);
        prop_assert!(again == bytes, "re-encoded bytes");
        let (ours, theirs) = (sys.view().dag().genid(), back.view().dag().genid());
        prop_assert_eq!(ours.n_free(), theirs.n_free());
        prop_assert!(ours.live_ids().eq(theirs.live_ids()));
        back.consistency_check().map_err(TestCaseError::fail)?;

        let named = |sys: &XmlViewSystem| {
            let genid = sys.view().dag().genid();
            let name = |v| (genid.type_of(v), genid.attr_of(v).clone());
            let edges = sys.view().dag().all_edges().map(|(u, v)| (name(u), name(v)));
            edges.collect::<std::collections::BTreeSet<_>>()
        };
        for &(k, a, b) in &after {
            let u = registrar_update(k, a, b);
            let here = sys.apply(&u, SideEffectPolicy::Proceed).is_ok();
            let there = back.apply(&u, SideEffectPolicy::Proceed).is_ok();
            prop_assert_eq!(here, there, "`{}`", u);
        }
        prop_assert_eq!(named(&sys), named(&back));
        back.consistency_check().map_err(TestCaseError::fail)?;
    }
}
