//! Strategies over the public XPath AST — any label, any constant, every
//! step kind and filter form — shared by the log codec's property tests
//! (`codec_roundtrip.rs`) and the plan cache's literal-order pin
//! (`src/plan.rs`, which includes this file).

use proptest::prelude::*;
use rxview_xmlkit::xpath::{Filter, NodeTest, Step, StepKind, XPath};

/// Labels that repeat (the pool: later occurrences are back-references) and
/// labels that do not, with every character the text form could not carry.
pub fn label_strategy() -> BoxedStrategy<String> {
    const POOL: [&str; 6] = ["node", "id", "sub", "", "né/[x]", "it's \"q\""];
    prop_oneof![
        (0usize..POOL.len()).prop_map(|i| POOL[i].to_owned()),
        (0usize..POOL.len()).prop_map(|i| POOL[i].to_owned()),
        "[ -~]{0,6}".prop_map(|s: String| s),
    ]
    .boxed()
}

/// Constants on either side of "the canonical decimal form of a `u64`", of
/// 2⁶², below which a log record writes one as a number, and of 2⁶³, below
/// which an older one did.
pub fn constant_strategy() -> BoxedStrategy<String> {
    const EDGES: [&str; 13] = [
        "0",
        "007",
        "18446744073709551615",
        "18446744073709551616",
        "4611686018427387903",
        "4611686018427387904",
        "9223372036854775807",
        "9223372036854775808",
        "-1",
        "+5",
        "",
        "00",
        "4000000959",
    ];
    prop_oneof![
        (0usize..EDGES.len()).prop_map(|i| EDGES[i].to_owned()),
        any::<u64>().prop_map(|n| n.to_string()),
        "[ -~]{0,8}".prop_map(|s: String| s),
    ]
    .boxed()
}

pub fn path_strategy(filter: BoxedStrategy<Filter>) -> BoxedStrategy<XPath> {
    let kind = prop_oneof![
        Just(StepKind::SelfAxis),
        label_strategy().prop_map(|l| StepKind::Child(NodeTest::Label(l))),
        label_strategy().prop_map(|l| StepKind::Child(NodeTest::Label(l))),
        Just(StepKind::Child(NodeTest::Wildcard)),
        Just(StepKind::DescendantOrSelf),
    ];
    let step = (kind, prop::collection::vec(filter, 0..3))
        .prop_map(|(kind, filters)| Step { kind, filters });
    prop::collection::vec(step, 0..4)
        .prop_map(XPath::from_steps)
        .boxed()
}

pub fn filter_strategy() -> BoxedStrategy<Filter> {
    let child = || label_strategy().prop_map(|l| XPath::from_steps(vec![Step::label(l)]));
    let leaf = prop_oneof![
        (child(), constant_strategy()).prop_map(|(p, c)| Filter::PathEq(p, c)),
        (child(), constant_strategy()).prop_map(|(p, c)| Filter::PathEq(p, c)),
        label_strategy().prop_map(Filter::LabelIs),
        child().prop_map(Filter::Path),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Filter::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Filter::or(a, b)),
            inner.clone().prop_map(Filter::not),
            path_strategy(inner.clone()).prop_map(Filter::Path),
            (path_strategy(inner), constant_strategy()).prop_map(|(p, c)| Filter::PathEq(p, c)),
        ]
    })
}
