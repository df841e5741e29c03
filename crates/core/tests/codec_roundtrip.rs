//! Codec round-trip property tests and the golden-bytes pin of the on-disk
//! format.
//!
//! `decode(encode(t)) == t` must hold for every [`Tuple`] a checkpoint
//! writes — every value kind, large text payloads — and for every logged
//! [`XmlUpdate`], whatever its path's AST holds, as a round record, as a
//! segment of records sharing their tables, and on its own; the update
//! decoder is total over hostile bytes; and the exact byte layout is pinned
//! so that a change to the format cannot slip through silently: WAL segments
//! and checkpoints written by one build must stay readable by the next, or
//! bump their version magic.

mod common;

use common::{constant_strategy, filter_strategy, label_strategy, path_strategy, refill_path};
use proptest::prelude::*;
use rxview_core::codec::{self, LoggedUpdate, ReadTables, RecordTables};
use rxview_core::{SideEffectPolicy, XmlUpdate};
use rxview_relstore::codec::{put_tuple, put_varint, read_tuple, CodecError, Reader};
use rxview_relstore::{tuple, Tuple, Value};
use rxview_xmlkit::xpath::MAX_FILTER_DEPTH;
use rxview_xmlkit::xpath::{Filter, Step, XPath};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single values and tuples round-trip through the low-level codec.
    #[test]
    fn tuples_round_trip(t in tuple_strategy()) {
        let mut out = Vec::new();
        put_tuple(&mut out, &t);
        let mut r = Reader::new(&out);
        let back = read_tuple(&mut r)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back, t);
        prop_assert!(r.is_empty());
    }
}

/// `tuples`, written back to back the way a checkpoint writes a table's rows.
fn tuple_bytes(tuples: &[Tuple]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tuples {
        put_tuple(&mut out, t);
    }
    out
}

/// Reads back as many tuples as were written, requiring every byte used.
fn read_tuples(bytes: &[u8], n: usize) -> Vec<Tuple> {
    let mut r = Reader::new(bytes);
    let back = (0..n)
        .map(|_| read_tuple(&mut r).expect("decodes"))
        .collect();
    assert!(r.is_empty());
    back
}

#[test]
fn large_text_payloads_round_trip() {
    // A megabyte-scale string value and a wide tuple: varint length
    // prefixes must hold up well past one-byte lengths.
    let big = "x".repeat(1_000_000) + "∆R≠∅"; // multi-byte UTF-8 tail
    let tuples = [
        tuple![big.as_str(), 7i64],
        Tuple::from_values(vec![Value::from("k".repeat(70_000))]),
    ];
    let bytes = tuple_bytes(&tuples);
    assert!(bytes.len() > 1_000_000);
    assert_eq!(read_tuples(&bytes, tuples.len()), tuples);
}

/// Pins the exact on-disk byte layout of the rows a checkpoint writes. If
/// this test fails, the format changed: bump the checkpoint magic instead
/// of silently breaking old files.
#[test]
fn golden_bytes_pin_the_format() {
    let tuples = [tuple!["CS240", "DS"], tuple![-3i64, true]];

    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        // row 1
        0x02,                                            // tuple arity 2
        0x01, 0x05, b'C', b'S', b'2', b'4', b'0',        // Str "CS240"
        0x01, 0x02, b'D', b'S',                          // Str "DS"
        // row 2
        0x02,                                            // tuple arity 2
        0x00, 0x05,                                      // Int(-3), zigzag = 5
        0x03,                                            // Bool(true)
    ];
    assert_eq!(tuple_bytes(&tuples), expected);
    assert_eq!(read_tuples(&expected, tuples.len()), tuples);
}

/// The round records of a segment (what an `RXWALv5` segment frames) are
/// pinned too. The first: an insertion and a deletion of one round, the
/// second spelling none of its labels again, then an update of each one's
/// shape, written as the shape's index, the inserted value untagged and the
/// literals — `"007"` as text, `4096` as its difference from the `320` its
/// shape's slot holds. The second names what the first spelled: a shaped
/// insertion of the first one's shape, a deletion of a new shape over the
/// first record's labels, and one whose label joins the table. The third
/// spells an insertion of `Int` values, which fill its shape's slots. The
/// fourth is all shaped: an update whose slots repeat their last binding
/// costs its head, its index and a byte a slot, and one a step away no more.
#[test]
fn golden_bytes_pin_logged_updates() {
    let first: Vec<LoggedUpdate> = vec![
        (
            XmlUpdate::insert("course", tuple!["CS240"], "course[cno=CS650]/prereq").unwrap(),
            SideEffectPolicy::Proceed,
        ),
        (
            XmlUpdate::delete("//course[cno=320]").unwrap(),
            SideEffectPolicy::Abort,
        ),
        (
            XmlUpdate::insert("course", tuple!["CS999"], "course[cno=007]/prereq").unwrap(),
            SideEffectPolicy::Abort,
        ),
        (
            XmlUpdate::delete("//course[cno=4096]").unwrap(),
            SideEffectPolicy::Proceed,
        ),
    ];
    let keyed = |id: i64| {
        let path = format!("course[cno={id}]/prereq");
        XmlUpdate::insert("node", tuple![id, -7i64], &path).unwrap()
    };
    let second: Vec<LoggedUpdate> = vec![
        (
            XmlUpdate::insert("course", tuple!["CS111"], "course[cno=CS650]/prereq").unwrap(),
            SideEffectPolicy::Proceed,
        ),
        (
            XmlUpdate::delete("course[cno=320]/prereq").unwrap(),
            SideEffectPolicy::Abort,
        ),
        (
            XmlUpdate::delete("//title").unwrap(),
            SideEffectPolicy::Abort,
        ),
    ];
    let third: Vec<LoggedUpdate> = vec![(keyed(2_000_000_000), SideEffectPolicy::Abort)];
    let fourth: Vec<LoggedUpdate> = vec![
        (keyed(2_000_000_000), SideEffectPolicy::Abort),
        (keyed(2_000_000_001), SideEffectPolicy::Abort),
        (
            XmlUpdate::delete("//course[cno=4096]").unwrap(),
            SideEffectPolicy::Abort,
        ),
        (
            XmlUpdate::delete("course[cno=319]/prereq").unwrap(),
            SideEffectPolicy::Abort,
        ),
    ];
    let segment = vec![(7, first), (8, second), (9, third), (10, fourth)];
    let records = segment_bytes(&segment);

    #[rustfmt::skip]
    let expected_first: Vec<u8> = vec![
        0x07,                                            // epoch 7
        0x04,                                            // 4 updates
        // update 1
        0x02,                                            // head: insert, Proceed
        0x00, 0x06, b'c', b'o', b'u', b'r', b's', b'e',  // new label 1: the type
        0x01,                                            // attr arity 1
        0x01, 0x05, b'C', b'S', b'2', b'4', b'0',        // Str "CS240"
        0x02,                                            // path: 2 steps
        0x05, 0x01,                                      // child step, 1 filter; label 1
        0x01,                                            // filter: path = "string"
        0x01,                                            //   path: 1 step
        0x01, 0x00, 0x03, b'c', b'n', b'o',              //   child step; new label 2
        0x05, b'C', b'S', b'6', b'5', b'0',              //   "CS650"
        0x01, 0x00, 0x06, b'p', b'r', b'e', b'r', b'e', b'q', // child step; new label 3
        // update 2
        0x01,                                            // head: delete, Abort
        0x02,                                            // path: 2 steps
        0x03,                                            // `//`
        0x05, 0x01,                                      // child step, 1 filter; label 1
        0x06, 0x02, 0xC0, 0x02,                          // filter: [label 2 = "320"]
        // update 3: update 1's shape
        0x04,                                            // head: shaped insert, Abort
        0x00,                                            // shape 0
        0x05, b'C', b'S', b'9', b'9', b'9',              // "CS999", untagged
        0x07, b'0', b'0', b'7',                          // literal: 3 bytes of text
        // update 4: update 2's shape
        0x07,                                            // head: shaped delete, Proceed
        0x01,                                            // shape 1
        0x80, 0x76,                                      // literal: zigzag(4096 − 320) << 1
    ];
    #[rustfmt::skip]
    let expected_second: Vec<u8> = vec![
        0x08,                                            // epoch 8
        0x03,                                            // 3 updates
        // update 1: the first record's shape 0
        0x06,                                            // head: shaped insert, Proceed
        0x00,                                            // shape 0
        0x05, b'C', b'S', b'1', b'1', b'1',              // "CS111", untagged
        0x0B, b'C', b'S', b'6', b'5', b'0',              // literal: 5 bytes of text
        // update 2: a new shape (shape 2), every label the first record's
        0x01,                                            // head: delete, Abort
        0x02,                                            // path: 2 steps
        0x05, 0x01,                                      // child step, 1 filter; label 1
        0x06, 0x02, 0xC0, 0x02,                          // filter: [label 2 = "320"]
        0x01, 0x03,                                      // child step; label 3
        // update 3: shape 3, and a new label 4
        0x01,                                            // head: delete, Abort
        0x02,                                            // path: 2 steps
        0x03,                                            // `//`
        0x01, 0x00, 0x05, b't', b'i', b't', b'l', b'e',  // child step; new label 4
    ];
    #[rustfmt::skip]
    let expected_third: Vec<u8> = vec![
        0x09,                                            // epoch 9
        0x01,                                            // 1 update
        // shape 4, and a new label 5
        0x00,                                            // head: insert, Abort
        0x00, 0x04, b'n', b'o', b'd', b'e',              // new label 5: the type
        0x02,                                            // attr arity 2
        0x00, 0x80, 0xD0, 0xAC, 0xF3, 0x0E,              // Int(2 000 000 000)
        0x00, 0x0D,                                      // Int(-7)
        0x02,                                            // path: 2 steps
        0x05, 0x01,                                      // child step, 1 filter; label 1
        0x06, 0x02, 0x80, 0xA8, 0xD6, 0xB9, 0x07,        // [label 2 = "2000000000"]
        0x01, 0x03,                                      // child step; label 3
    ];
    #[rustfmt::skip]
    let expected_fourth: Vec<u8> = vec![
        0x0A,                                            // epoch 10
        0x04,                                            // 4 updates
        0x04, 0x04, 0x00, 0x00, 0x00,                    // shape 4, its slots as they were
        0x04, 0x04, 0x02, 0x00, 0x04,                    // shape 4: Int +1, -7 again, literal +1
        0x05, 0x01, 0x00,                                // shape 1: 4096 again
        0x05, 0x02, 0x02,                                // shape 2: 320 − 1
    ];
    assert_eq!(
        records,
        [
            expected_first,
            expected_second,
            expected_third,
            expected_fourth
        ]
    );
    assert_eq!(read_segment(&records), (segment, None));
}

/// `segment`'s records as one segment writes them: one [`RecordTables`],
/// committed after every record.
fn segment_bytes(segment: &[(u64, Vec<LoggedUpdate>)]) -> Vec<Vec<u8>> {
    let mut tables = RecordTables::default();
    let record = |(epoch, round): &(u64, Vec<LoggedUpdate>)| {
        let mut out = Vec::new();
        codec::put_round(&mut out, &mut tables, *epoch, round);
        tables.commit();
        out
    };
    segment.iter().map(record).collect()
}

/// Reads a segment's records in order, each of them whole, up to the first
/// that does not decode: the rounds before it, and why it did not.
fn read_segment(records: &[Vec<u8>]) -> (Vec<(u64, Vec<LoggedUpdate>)>, Option<CodecError>) {
    let mut read = ReadTables::default();
    let mut rounds = Vec::new();
    for bytes in records {
        let mut r = Reader::new(bytes);
        match codec::read_round(&mut r, &mut read) {
            Ok(round) if r.is_empty() => rounds.push(round),
            Ok(_) => return (rounds, Some(CodecError::Invalid("trailing bytes".into()))),
            Err(e) => return (rounds, Some(e)),
        }
    }
    (rounds, None)
}

// ---------------------------------------------------------------------------
// Logged updates: injective over the AST, total over bytes.
// ---------------------------------------------------------------------------

fn update_strategy() -> BoxedStrategy<XmlUpdate> {
    let path = || path_strategy(filter_strategy());
    prop_oneof![
        (label_strategy(), tuple_strategy(), path())
            .prop_map(|(ty, attr, path)| XmlUpdate::Insert { ty, attr, path }),
        path().prop_map(|path| XmlUpdate::Delete { path }),
    ]
    .boxed()
}

fn policy_strategy() -> BoxedStrategy<SideEffectPolicy> {
    any::<bool>()
        .prop_map(|proceed| match proceed {
            true => SideEffectPolicy::Proceed,
            false => SideEffectPolicy::Abort,
        })
        .boxed()
}

/// `template` with fresh literals and, for an insertion, fresh values of
/// the same types: an update of the template's shape.
fn of_shape(template: &XmlUpdate, constants: Vec<String>, seed: u64) -> XmlUpdate {
    let path = refill_path(template.path(), &mut constants.into_iter());
    match template {
        XmlUpdate::Delete { .. } => XmlUpdate::Delete { path },
        XmlUpdate::Insert { ty, attr, .. } => {
            let fresh = attr.iter().zip(seed..).map(|(v, n)| match v {
                Value::Int(_) => Value::Int(n as i64),
                Value::Str(_) => Value::from(n.to_string()),
                Value::Bool(_) => Value::Bool(n % 2 == 0),
            });
            XmlUpdate::Insert {
                ty: ty.clone(),
                attr: fresh.collect(),
                path,
            }
        }
    }
}

/// Rounds of independent updates, and rounds that repeat one to three
/// shapes with fresh literals and values — an engine's rounds, whose later
/// updates of a shape are written shaped.
fn round_strategy() -> BoxedStrategy<Vec<LoggedUpdate>> {
    let independent = prop::collection::vec((update_strategy(), policy_strategy()), 0..6);
    let refills = (
        0usize..3,
        prop::collection::vec(constant_strategy(), 0..6),
        any::<u64>(),
        policy_strategy(),
    );
    let repeated = (
        prop::collection::vec(update_strategy(), 1..4),
        prop::collection::vec(refills, 1..8),
    )
        .prop_map(|(templates, refills)| {
            let refilled = refills.into_iter().map(|(i, constants, seed, policy)| {
                let template = &templates[i % templates.len()];
                (of_shape(template, constants, seed), policy)
            });
            refilled.collect()
        });
    prop_oneof![independent, repeated].boxed()
}

fn round_bytes(epoch: u64, round: &[LoggedUpdate]) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_round(&mut out, &mut RecordTables::default(), epoch, round);
    out
}

fn read_whole_round(bytes: &[u8]) -> Result<(u64, Vec<LoggedUpdate>), CodecError> {
    let mut r = Reader::new(bytes);
    let round = codec::read_round(&mut r, &mut ReadTables::default())?;
    match r.is_empty() {
        true => Ok(round),
        false => Err(CodecError::Invalid("trailing bytes".into())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `decode(encode(u)) == u`, the updates of a round sharing its tables
    /// and each update on its own; tables reused without a commit write the
    /// same bytes again.
    #[test]
    fn logged_updates_round_trip(epoch in any::<u64>(), round in round_strategy()) {
        let bytes = round_bytes(epoch, &round);
        let back = read_whole_round(&bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(&back, &(epoch, round.clone()));
        let mut tables = RecordTables::default();
        for _ in 0..2 {
            let mut again = Vec::new();
            codec::put_round(&mut again, &mut tables, epoch, &round);
            prop_assert!(again == bytes, "uncommitted tables write the same bytes");
        }
        for (u, _) in &round {
            let mut out = vec![0xAA]; // whatever the buffer held before
            codec::put_update(&mut out, u);
            let mut r = Reader::new(&out[1..]);
            let back = codec::read_update(&mut r)
                .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
            prop_assert_eq!(&back, u);
            prop_assert!(r.is_empty());
        }
    }

    /// No strict prefix of a record decodes, and no single changed byte
    /// makes the decoder panic: hostile bytes are an `Err` or some other
    /// round, which then encodes and decodes to itself.
    #[test]
    fn truncated_and_flipped_records_error_or_decode(
        round in round_strategy(),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 8..9),
    ) {
        let bytes = round_bytes(3, &round);
        for cut in 0..bytes.len() {
            prop_assert!(read_whole_round(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
        for (at, xor) in flips {
            let mut hostile = bytes.clone();
            hostile[at % bytes.len()] ^= xor;
            if let Ok((epoch, other)) = read_whole_round(&hostile) {
                let again = read_whole_round(&round_bytes(epoch, &other));
                prop_assert_eq!(again.ok(), Some((epoch, other)));
            }
        }
    }
}

/// One to eight rounds of a segment, epochs 1, 2, …: each refills shapes
/// the whole segment shares with fresh literals and values, then adds
/// updates of its own over the label pool — so a later round names shapes
/// and labels an earlier one spelled, as an engine's trickle rounds do.
fn segment_strategy() -> BoxedStrategy<Vec<(u64, Vec<LoggedUpdate>)>> {
    let refill = (
        0usize..3,
        prop::collection::vec(constant_strategy(), 0..6),
        any::<u64>(),
        policy_strategy(),
    );
    (
        prop::collection::vec(update_strategy(), 1..4),
        prop::collection::vec(prop::collection::vec(refill, 0..4), 1..9),
        prop::collection::vec(round_strategy(), 0..9),
    )
        .prop_map(|(templates, refills, mut own)| {
            own.resize(refills.len(), Vec::new());
            let rounds = refills.into_iter().zip(own).map(|(refills, own)| {
                let shared = refills.into_iter().map(|(i, constants, seed, policy)| {
                    let template = &templates[i % templates.len()];
                    (of_shape(template, constants, seed), policy)
                });
                shared.chain(own).collect()
            });
            (1..).zip(rounds).collect()
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A segment's records, written over one set of tables, read back over
    /// one set of tables to the rounds they hold; its first record is a
    /// record of its own.
    #[test]
    fn segments_round_trip(segment in segment_strategy()) {
        let records = segment_bytes(&segment);
        let (back, error) = read_segment(&records);
        prop_assert!(error.is_none(), "decode failed: {:?}", error);
        prop_assert_eq!(&back, &segment);
        prop_assert!(segment_bytes(&segment) == records, "the same bytes again");
        prop_assert_eq!(read_whole_round(&records[0]).ok(), segment.first().cloned());
    }

    /// A segment cut anywhere reads back to exactly the records before the
    /// cut: a cut record is an error, never a round, and those before it
    /// are whole.
    #[test]
    fn truncated_segments_read_to_their_record_prefix(segment in segment_strategy()) {
        let records = segment_bytes(&segment);
        for k in 0..records.len() {
            let (whole, error) = read_segment(&records[..k]);
            prop_assert!(error.is_none() && whole == segment[..k], "boundary {}", k);
            for cut in 0..records[k].len() {
                let mut torn = records[..k].to_vec();
                torn.push(records[k][..cut].to_vec());
                let (prefix, error) = read_segment(&torn);
                prop_assert!(error.is_some(), "record {} cut at {}", k, cut);
                prop_assert_eq!(&prefix[..], &segment[..k]);
            }
        }
    }

    /// No changed byte in any record of a segment makes the reader panic:
    /// the records before it read as written, and whatever the changed one
    /// and those after it read as is some segment, which writes and reads
    /// back to itself.
    #[test]
    fn flipped_segments_error_or_decode(
        segment in segment_strategy(),
        flips in prop::collection::vec((any::<usize>(), any::<usize>(), 1u8..=255), 8..9),
    ) {
        let records = segment_bytes(&segment);
        for (record, at, xor) in flips {
            let k = record % records.len();
            let mut hostile = records.clone();
            let bytes = &mut hostile[k];
            if bytes.is_empty() {
                continue;
            }
            let at = at % bytes.len();
            bytes[at] ^= xor;
            let (read, _) = read_segment(&hostile);
            prop_assert!(read.len() >= k, "record {} flipped at {}", k, at);
            prop_assert_eq!(&read[..k], &segment[..k]);
            let again = read_segment(&segment_bytes(&read));
            prop_assert_eq!(again, (read, None));
        }
    }

    /// What a record stages and never commits — its append was refused or
    /// failed — reaches no later record: the segment's other records are
    /// the bytes a segment without it writes, and read back without it.
    /// The aborted round first rebinds the slots of every shape the records
    /// before it committed, with fresh literals and values, then adds
    /// updates of its own.
    #[test]
    fn an_uncommitted_record_leaves_nothing_behind(
        segment in segment_strategy(),
        own in round_strategy(),
        at in any::<usize>(),
        constants in prop::collection::vec(constant_strategy(), 0..6),
        seed in any::<u64>(),
    ) {
        let at = at % segment.len();
        let committed = segment[..at].iter().flat_map(|(_, round)| round);
        let rebound = committed.map(|(u, policy)| (of_shape(u, constants.clone(), seed), *policy));
        let aborted: Vec<LoggedUpdate> = rebound.chain(own).collect();
        let mut tables = RecordTables::default();
        let mut records = Vec::new();
        for (k, (epoch, round)) in segment.iter().enumerate() {
            if k == at {
                codec::put_round(&mut Vec::new(), &mut tables, 0, &aborted);
            }
            let mut out = Vec::new();
            codec::put_round(&mut out, &mut tables, *epoch, round);
            tables.commit();
            records.push(out);
        }
        prop_assert!(records == segment_bytes(&segment), "aborted at {}", at);
        prop_assert_eq!(read_segment(&records), (segment, None));
    }
}

/// Paths whose keys collided while the shape key spelled labels as they
/// are and left `and`s unbracketed — `and`s grouped either way, a label
/// spelling the key of a filter — are different shapes with keys of their
/// own: the second of each pair is spelled in full and comes back as
/// itself.
#[test]
fn updates_whose_shape_keys_collide_round_trip() {
    let label = |l: &str| Filter::LabelIs(l.into());
    let node = |f: Filter| XPath::from_steps(vec![Step::label("node").with_filter(f)]);
    let left = node(Filter::and(Filter::and(label("a"), label("b")), label("c")));
    let right = node(Filter::and(label("a"), Filter::and(label("b"), label("c"))));
    let odd = XPath::from_steps(vec![Step::label("a[/b=?]")]);
    let keyed = rxview_xmlkit::parse_xpath("a[b=1]").unwrap();
    for (first, second) in [(left, right), (keyed, odd)] {
        let round: Vec<LoggedUpdate> = [first, second]
            .into_iter()
            .map(|path| (XmlUpdate::Delete { path }, SideEffectPolicy::Abort))
            .collect();
        let bytes = round_bytes(1, &round);
        assert_eq!(read_whole_round(&bytes).unwrap(), (1, round));
    }
}

/// A step with more filters than its head byte counts (63 and up) escapes to
/// a varint, on either side of the boundary.
#[test]
fn wide_steps_round_trip() {
    for k in [62, 63, 64, 200] {
        let mut step = Step::label("node");
        step.filters = vec![Filter::LabelIs("node".into()); k];
        let u = XmlUpdate::Delete {
            path: XPath::from_steps(vec![step]),
        };
        let round = vec![(u, SideEffectPolicy::Proceed)];
        assert_eq!(
            read_whole_round(&round_bytes(1, &round)).unwrap(),
            (1, round)
        );
    }
}

/// One shape's literal slot moved across the edges of the number form
/// round-trips: `0`; 2⁶² − 1, the largest number, its delta from 0 and back
/// the largest a literal writes; 2⁶² and `007`, text, which leave the slot
/// as it was.
#[test]
fn literals_at_the_edges_of_the_number_form_round_trip() {
    let (largest, text) = ("4611686018427387903", "4611686018427387904");
    let keys = ["0", largest, text, "007", "0", largest, "0"];
    let round: Vec<LoggedUpdate> = keys
        .iter()
        .map(|k| {
            let u = XmlUpdate::delete(&format!("node[id={k}]")).unwrap();
            (u, SideEffectPolicy::Proceed)
        })
        .collect();
    let bytes = round_bytes(1, &round);
    assert_eq!(read_whole_round(&bytes).unwrap(), (1, round));
    let spelled = |k: &str| {
        bytes
            .windows(k.len())
            .filter(|w| *w == k.as_bytes())
            .count()
    };
    assert_eq!((spelled(text), spelled("007"), spelled(largest)), (1, 1, 0));
}

/// `delete node[f]`, as record bytes with `f` left to the caller: epoch 1,
/// one update, one child step on a new label, one filter.
fn delete_with_filter(filter: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0x01, 0x01, 0x03, 0x01, 0x05, 0x00, 0x04];
    bytes.extend_from_slice(b"node");
    bytes.extend_from_slice(filter);
    bytes
}

/// What no encoder writes is a `CodecError`, never a panic, an allocation
/// sized by a hostile count, or a stack as deep as the input is long.
#[test]
fn hostile_records_error_not_panic() {
    let invalid = |bytes: &[u8]| matches!(read_whole_round(bytes), Err(CodecError::Invalid(_)));
    let truncated = |bytes: &[u8]| matches!(read_whole_round(bytes), Err(CodecError::Truncated));
    // The frame itself decodes: `node[label()=node]`, the label referred back to.
    let sane = delete_with_filter(&[0x02, 0x01]);
    assert_eq!(read_whole_round(&sane).unwrap().1.len(), 1);
    // A back-reference past the table (it holds one label), at a step and
    // in a filter; an update head, a filter tag nobody writes.
    assert!(invalid(&delete_with_filter(&[0x02, 0x02])));
    assert!(invalid(&[0x01, 0x01, 0x03, 0x01, 0x01, 0x01]));
    assert!(invalid(&[0x01, 0x01, 0x08]));
    assert!(invalid(&delete_with_filter(&[0x07])));
    // A shaped update naming an entry of an empty table.
    assert!(invalid(&[0x01, 0x01, 0x04]));
    // Counts larger than the input: updates, steps, filters (escaped).
    let mut huge = Vec::new();
    put_varint(&mut huge, u64::MAX);
    assert!(truncated(&[&[0x01][..], &huge].concat()));
    assert!(truncated(&[&[0x01, 0x01, 0x03][..], &huge].concat()));
    assert!(truncated(
        &[&[0x01, 0x01, 0x03, 0x01, 0xFF][..], &huge].concat()
    ));
    assert!(truncated(&[0x01, 0x01, 0x03, 0x01, 0xFF, 0x05]));
    // A nest at the cap decodes; one level more — or a million — does not,
    // and is refused level by level, not by the stack running out.
    let nest = |levels: usize| {
        let mut filter = vec![0x05; levels - 1]; // not(not(…
        filter.extend_from_slice(&[0x02, 0x01]); // …label()=node))
        delete_with_filter(&filter)
    };
    let (_, deepest) = read_whole_round(&nest(MAX_FILTER_DEPTH)).unwrap();
    assert_eq!(deepest[0].0.path().filter_depth(), MAX_FILTER_DEPTH);
    assert!(invalid(&nest(MAX_FILTER_DEPTH + 1)));
    assert!(invalid(&nest(1_000_000)));
    // The same through paths nested in filters: node[node[node[…]]].
    let mut paths = Vec::new();
    for _ in 0..100_000 {
        paths.extend_from_slice(&[0x00, 0x01, 0x05, 0x01]); // path filter: 1 child step, 1 filter
    }
    assert!(invalid(&delete_with_filter(&paths)));
    // An update on its own has no policy bit.
    assert!(codec::read_update(&mut Reader::new(&sane[2..])).is_err());

    // A shaped update names an entry of the record's own shape table, of its
    // own kind and light enough to clone; its literals are UTF-8 and no
    // longer than the input. `delete node[id = "x"]` is shape 0.
    #[rustfmt::skip]
    let spelled: &[u8] = &[
        0x01, 0x01, 0x05, 0x00, 0x04, b'n', b'o', b'd', b'e', // delete: `node`, 1 filter
        0x01, 0x01, 0x01, 0x00, 0x02, b'i', b'd', 0x01, b'x', // [id = "x"]
    ];
    let record = |shaped: &[u8]| [&[0x01, 0x02][..], spelled, shaped].concat();
    let (_, sane) = read_whole_round(&record(&[0x05, 0x00, 0x03, b'y'])).unwrap();
    let keyed_y = Step::label("node").with_filter(Filter::PathEq(
        XPath::from_steps(vec![Step::label("id")]),
        "y".into(),
    ));
    let delete_y = XmlUpdate::Delete {
        path: XPath::from_steps(vec![keyed_y]),
    };
    assert_eq!(sane[1], (delete_y, SideEffectPolicy::Abort));
    // An index past the table; an insertion naming a deletion's shape.
    assert!(invalid(&record(&[0x05, 0x01, 0x03, b'y'])));
    assert!(invalid(&record(&[
        0x05, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01
    ])));
    assert!(invalid(&record(&[0x04, 0x00, 0x03, b'y'])));
    // A literal that is not UTF-8; one longer than the input.
    assert!(invalid(&record(&[0x05, 0x00, 0x03, 0xFF])));
    assert!(truncated(&record(&[0x05, 0x00, 0xC9, 0x01, b'y'])));
    // A deletion naming an insertion's shape; an untagged `Bool` byte no
    // encoder writes.
    let insert = |flag: bool| XmlUpdate::Insert {
        ty: "node".into(),
        attr: tuple![flag],
        path: XPath::from_steps(vec![Step::label("sub")]),
    };
    let mut spelled_insert = vec![0x01, 0x02];
    codec::put_update(&mut spelled_insert, &insert(true));
    let with = |shaped: &[u8]| [&spelled_insert[..], shaped].concat();
    let (_, back) = read_whole_round(&with(&[0x04, 0x00, 0x00])).unwrap();
    assert_eq!(back[1].0, insert(false));
    assert!(invalid(&with(&[0x05, 0x00])));
    assert!(invalid(&with(&[0x04, 0x00, 0x02])));

    // A literal is its delta from its slot, `zigzag(d) << 1`, and must land
    // in [0, 2⁶²). `delete node[id = 5]` is shape 0, its slot at 5.
    let zigzag = |d: i64| ((d << 1) ^ (d >> 63)) as u64;
    let put = |v: u64| {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, v);
        bytes
    };
    #[rustfmt::skip]
    let spelled_5: &[u8] = &[
        0x01, 0x01, 0x05, 0x00, 0x04, b'n', b'o', b'd', b'e', // delete: `node`, 1 filter
        0x06, 0x00, 0x02, b'i', b'd', 0x05,                   // [id = 5]
    ];
    let shaped_5 = [&[0x01, 0x02][..], spelled_5, &[0x05, 0x00]].concat(); // …, shape 0
    let literal = |d: i64| [shaped_5.clone(), put(zigzag(d) << 1)].concat();
    let delete_id = |k: &str| XmlUpdate::delete(&format!("node[id={k}]")).unwrap();
    let (_, bottom) = read_whole_round(&literal(-5)).unwrap();
    assert_eq!(bottom[1].0, delete_id("0"));
    assert!(invalid(&literal(-6)));
    let largest = (1i64 << 62) - 1;
    let (_, top) = read_whole_round(&literal(largest - 5)).unwrap();
    assert_eq!(top[1].0, delete_id(&largest.to_string()));
    assert!(invalid(&literal(largest - 4)));
    assert!(invalid(&literal(largest)));
    // An `Int` is its delta from its slot, zigzag-coded, and wraps: from 5,
    // `i64::MAX` and `i64::MIN` decode, and the rounds they decode to write
    // the same bytes again.
    let insert_int = |i: i64| XmlUpdate::Insert {
        ty: "node".into(),
        attr: tuple![i],
        path: XPath::from_steps(vec![Step::label("sub")]),
    };
    let mut spelled_int = vec![0x01, 0x02];
    codec::put_update(&mut spelled_int, &insert_int(5));
    for d in [i64::MAX, i64::MIN] {
        let bytes = [&spelled_int[..], &[0x04, 0x00], &put(zigzag(d))].concat();
        let (_, back) = read_whole_round(&bytes).unwrap();
        assert_eq!(back[1].0, insert_int(5i64.wrapping_add(d)));
        assert_eq!(round_bytes(1, &back), bytes);
    }
    // A template heavier than a reference may clone: 200 `*` steps. The
    // encoder spells every repeat of it in full instead.
    let wildcard = Step::new(rxview_xmlkit::xpath::StepKind::Child(
        rxview_xmlkit::xpath::NodeTest::Wildcard,
    ));
    let heavy = XmlUpdate::Delete {
        path: XPath::from_steps(vec![wildcard; 200]),
    };
    let mut spelled_heavy = vec![0x01, 0x02];
    codec::put_update(&mut spelled_heavy, &heavy);
    assert!(invalid(&[&spelled_heavy[..], &[0x05, 0x00]].concat()));
    let repeated = vec![(heavy, SideEffectPolicy::Abort); 2];
    let bytes = round_bytes(1, &repeated);
    assert_eq!(bytes, [&spelled_heavy[..], &spelled_heavy[2..]].concat());
    assert_eq!(read_whole_round(&bytes).unwrap().1, repeated);

    // Across the records of a segment: the first spells `delete node[id =
    // "x"]` (labels 1 `node` and 2 `id`, shape 0); the second may name
    // those, and nothing past them.
    let segment = |second: &[u8]| {
        let records = [[&[0x01, 0x01][..], spelled].concat(), second.to_vec()];
        let (rounds, error) = read_segment(&records);
        assert!(!rounds.is_empty(), "the first record reads");
        (rounds.len(), error)
    };
    let named = |second: &[u8]| match segment(second) {
        (2, None) => true,
        (1, Some(CodecError::Invalid(_))) => false,
        other => panic!("{second:?}: {other:?}"),
    };
    // Shape 0 is named, shape 1 is past the segment's table.
    let delete_shaped = |k: u8| [0x02, 0x01, 0x05, k, 0x03, b'y'];
    assert!(named(&delete_shaped(0)));
    assert!(!named(&delete_shaped(1)));
    // `delete id`: label 2 is the first record's, label 3 past the table.
    let delete_label = |k: u8| [0x02, 0x01, 0x01, 0x01, 0x01, k];
    assert!(named(&delete_label(2)));
    assert!(!named(&delete_label(3)));
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
