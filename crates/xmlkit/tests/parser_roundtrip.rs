//! Property test: `parse(display(p)) == p` for randomly generated XPath
//! ASTs (filters attached only to child/self steps — the display form of a
//! filtered `//` step is not grammatical, matching the paper's syntax where
//! filters qualify node tests).

use proptest::prelude::*;
use rxview_xmlkit::xpath::normalize;
use rxview_xmlkit::xpath::parse_xpath;
use rxview_xmlkit::xpath::{Filter, NodeTest, Step, StepKind, XPath};

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("reserved words", |s| {
        !matches!(s.as_str(), "and" | "or" | "not")
    })
}

fn arb_value() -> impl Strategy<Value = String> {
    "[A-Za-z0-9][A-Za-z0-9_.-]{0,8}"
}

fn arb_simple_path() -> impl Strategy<Value = XPath> {
    prop::collection::vec(
        (arb_label(), any::<u8>()).prop_map(|(l, k)| match k % 4 {
            0 => Step::new(StepKind::DescendantOrSelf),
            1 => Step::new(StepKind::Child(NodeTest::Wildcard)),
            _ => Step::label(l),
        }),
        1..4,
    )
    .prop_map(XPath::from_steps)
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        (arb_simple_path(), arb_value()).prop_map(|(p, v)| Filter::PathEq(p, v)),
        arb_simple_path().prop_map(Filter::Path),
        arb_label().prop_map(Filter::LabelIs),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Filter::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Filter::or(a, b)),
            inner.prop_map(Filter::not),
        ]
    })
}

fn arb_xpath() -> impl Strategy<Value = XPath> {
    prop::collection::vec(
        (
            arb_label(),
            prop::collection::vec(arb_filter(), 0..2),
            any::<u8>(),
        )
            .prop_map(|(l, filters, k)| {
                let kind = match k % 5 {
                    0 => StepKind::DescendantOrSelf,
                    1 => StepKind::Child(NodeTest::Wildcard),
                    _ => StepKind::Child(NodeTest::Label(l)),
                };
                let mut s = Step::new(kind);
                // Filters on `//` have no surface syntax: skip them there.
                if !matches!(s.kind, StepKind::DescendantOrSelf) {
                    s.filters = filters;
                }
                s
            }),
        1..5,
    )
    .prop_map(XPath::from_steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn display_then_parse_round_trips(p in arb_xpath()) {
        let text = p.to_string();
        let reparsed = parse_xpath(&text)
            .unwrap_or_else(|e| panic!("`{text}` failed to reparse: {e}"));
        prop_assert_eq!(&reparsed, &p, "display: {}", text);
    }

    #[test]
    fn normalization_is_idempotent_on_size(p in arb_xpath()) {
        // Normalization must stay linear: at most one ε-filter step per
        // original step plus the steps themselves.
        let n = normalize(&p);
        prop_assert!(n.steps.len() <= 2 * p.steps.len());
    }

    #[test]
    fn parse_rejects_garbage_gracefully(s in "[\\[\\]/=a-z ]{0,12}") {
        // Never panics; any Ok result must display–reparse stably.
        if let Ok(p) = parse_xpath(&s) {
            let text = p.to_string();
            let again = parse_xpath(&text).expect("display of parsed path reparses");
            prop_assert_eq!(again, p);
        }
    }
}
