//! Strategies over the public XPath AST — any label, any constant, every
//! step kind and filter form — shared by the log codec's property tests
//! (`codec_roundtrip.rs`), by the plan cache's literal-order pin and the
//! shape key's property test (`src/plan.rs`, `src/shape.rs`; `src/lib.rs`
//! includes this file), and by the facade's admission test
//! (`tests/end_to_end.rs`).
#![allow(dead_code)] // each includer uses its own subset

use proptest::prelude::*;
use rxview_xmlkit::xpath::{Filter, NodeTest, Step, StepKind, XPath, MAX_FILTER_DEPTH};

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

/// Short labels over the shape key's punctuation, digits and the colon of
/// its length prefixes, a space and NUL: labels that spell one another's
/// keys, or a key's filters.
pub fn key_label_strategy() -> BoxedStrategy<String> {
    const ALPHABET: [char; 20] = [
        'a', 'b', '1', ':', '/', '[', ']', '(', ')', '{', '}', '<', '>', ',', '=', '?', '.', '*',
        ' ', '\0',
    ];
    prop::collection::vec(0..ALPHABET.len(), 0..4)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
        .boxed()
}

/// The registrar DTD's labels, the synthetic DTD's, and two that neither
/// DTD has.
pub fn schema_label_strategy() -> BoxedStrategy<String> {
    const LABELS: [&str; 15] = [
        "db", "course", "cno", "title", "prereq", "takenBy", "student", "ssn", "name", "node",
        "id", "payload", "sub", "nothing", "né/[x]",
    ];
    (0usize..LABELS.len())
        .prop_map(|i| LABELS[i].to_owned())
        .boxed()
}

/// Paths, every step kind and filter form, over [`schema_label_strategy`]'s
/// labels: paths §2.4's schema check reaches types with.
pub fn schema_path_strategy() -> BoxedStrategy<XPath> {
    path_over(schema_label_strategy, filter_over(schema_label_strategy))
}

pub fn path_strategy(filter: BoxedStrategy<Filter>) -> BoxedStrategy<XPath> {
    path_over(label_strategy, filter)
}

fn path_over(
    labels: fn() -> BoxedStrategy<String>,
    filter: BoxedStrategy<Filter>,
) -> BoxedStrategy<XPath> {
    let kind = prop_oneof![
        Just(StepKind::SelfAxis),
        labels().prop_map(|l| StepKind::Child(NodeTest::Label(l))),
        labels().prop_map(|l| StepKind::Child(NodeTest::Label(l))),
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
    filter_over(label_strategy)
}

fn leaf_over(labels: fn() -> BoxedStrategy<String>) -> BoxedStrategy<Filter> {
    let child = || labels().prop_map(|l| XPath::from_steps(vec![Step::label(l)]));
    prop_oneof![
        (child(), constant_strategy()).prop_map(|(p, c)| Filter::PathEq(p, c)),
        (child(), constant_strategy()).prop_map(|(p, c)| Filter::PathEq(p, c)),
        labels().prop_map(Filter::LabelIs),
        child().prop_map(Filter::Path),
    ]
    .boxed()
}

fn filter_over(labels: fn() -> BoxedStrategy<String>) -> BoxedStrategy<Filter> {
    leaf_over(labels).prop_recursive(4, 32, 3, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Filter::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Filter::or(a, b)),
            inner.clone().prop_map(Filter::not),
            path_over(labels, inner.clone()).prop_map(Filter::Path),
            (path_over(labels, inner), constant_strategy()).prop_map(|(p, c)| Filter::PathEq(p, c)),
        ]
    })
}

/// A filter nested as deep as the parser allows: a leaf under up to one
/// level fewer than `MAX_FILTER_DEPTH` of `and`, `or` and `not`, each
/// connective's other operand a leaf.
fn spine_over(labels: fn() -> BoxedStrategy<String>) -> BoxedStrategy<Filter> {
    let level = (0usize..3, leaf_over(labels));
    (
        prop::collection::vec(level, 0..MAX_FILTER_DEPTH),
        leaf_over(labels),
    )
        .prop_map(|(levels, leaf)| {
            levels.into_iter().fold(leaf, |f, (op, side)| match op {
                0 => Filter::and(f, side),
                1 => Filter::or(side, f),
                _ => Filter::not(f),
            })
        })
        .boxed()
}

/// `p` with its `p = "s"` literals replaced by `constants` while they last.
pub fn refill_path(p: &XPath, constants: &mut impl Iterator<Item = String>) -> XPath {
    let steps = p.steps.iter().map(|s| Step {
        kind: s.kind.clone(),
        filters: s.filters.iter().map(|f| refill(f, constants)).collect(),
    });
    XPath::from_steps(steps.collect())
}

fn refill(f: &Filter, constants: &mut impl Iterator<Item = String>) -> Filter {
    match f {
        Filter::Path(p) => Filter::Path(refill_path(p, constants)),
        Filter::PathEq(p, old) => {
            let p = refill_path(p, constants);
            Filter::PathEq(p, constants.next().unwrap_or_else(|| old.clone()))
        }
        Filter::LabelIs(l) => Filter::LabelIs(l.clone()),
        Filter::And(a, b) => Filter::and(refill(a, constants), refill(b, constants)),
        Filter::Or(a, b) => Filter::or(refill(a, constants), refill(b, constants)),
        Filter::Not(a) => Filter::not(refill(a, constants)),
    }
}

/// `p` with its first two child steps in a row, the first without filters,
/// joined into one step labelled `a/b`.
fn join_steps(p: &XPath) -> XPath {
    let label = |s: &Step| match &s.kind {
        StepKind::Child(NodeTest::Label(l)) => Some(l.clone()),
        _ => None,
    };
    let mut p = p.clone();
    let at = (1..p.steps.len()).find(|&i| {
        let (s, t) = (&p.steps[i - 1], &p.steps[i]);
        s.filters.is_empty() && label(s).is_some() && label(t).is_some()
    });
    if let Some(i) = at {
        let t = p.steps.remove(i);
        let joined = format!("{}/{}", label(&p.steps[i - 1]).unwrap(), label(&t).unwrap());
        p.steps[i - 1] = Step {
            kind: StepKind::Child(NodeTest::Label(joined)),
            filters: t.filters,
        };
    }
    p
}

/// `p` with the first child step whose first filter is `[m = "s"]`, `m` a
/// label, labelled `l[/m=?]` and that filter dropped.
fn fold_filter(p: &XPath) -> XPath {
    let mut p = p.clone();
    for s in &mut p.steps {
        let (StepKind::Child(NodeTest::Label(l)), Some(Filter::PathEq(q, _))) =
            (&mut s.kind, s.filters.first())
        else {
            continue;
        };
        if let [Step {
            kind: StepKind::Child(NodeTest::Label(m)),
            filters,
        }] = q.steps.as_slice()
        {
            if filters.is_empty() {
                *l = format!("{l}[/{m}=?]");
                s.filters.remove(0);
                return p;
            }
        }
    }
    p
}

/// `f` regrouped the other way if it nests an `and` in an `and`, or an `or`
/// in an `or`.
fn regrouped(f: &Filter) -> Option<Filter> {
    let (op, a, b): (fn(Filter, Filter) -> Filter, _, _) = match f {
        Filter::And(a, b) => (Filter::and, a, b),
        Filter::Or(a, b) => (Filter::or, a, b),
        _ => return None,
    };
    let same_op = |g: &Filter| std::mem::discriminant(g) == std::mem::discriminant(f);
    let split = |g: &Filter| match g {
        Filter::And(x, y) | Filter::Or(x, y) => ((**x).clone(), (**y).clone()),
        _ => unreachable!("an `and` or an `or`"),
    };
    if same_op(b) {
        let (y, z) = split(b);
        Some(op(op((**a).clone(), y), z))
    } else if same_op(a) {
        let (x, y) = split(a);
        Some(op(x, op(y, (**b).clone())))
    } else {
        None
    }
}

/// `p` with its first step filter that [`regrouped`] changes, changed.
fn regroup(p: &XPath) -> XPath {
    let mut p = p.clone();
    for f in p.steps.iter_mut().flat_map(|s| &mut s.filters) {
        if let Some(g) = regrouped(f) {
            *f = g;
            break;
        }
    }
    p
}

/// Pairs of paths over [`key_label_strategy`]'s labels, with filters nested
/// as deep as the parser allows: `b` is a path of its own, or `a` with
/// fresh literals (one shape), or `a` changed where a key that spelled
/// labels as they are, or wrote `and`s without brackets, would not show it
/// — two steps joined into one label, a filter folded into its step's
/// label, an `and` or `or` regrouped.
pub fn path_pair_strategy() -> BoxedStrategy<(XPath, XPath)> {
    let filter = prop_oneof![
        filter_over(key_label_strategy),
        spine_over(key_label_strategy),
    ]
    .boxed();
    let path = || path_over(key_label_strategy, filter.clone());
    let constants = prop::collection::vec(constant_strategy(), 0..8);
    (path(), path(), 0usize..5, constants)
        .prop_map(|(a, other, how, constants)| {
            let b = match how {
                0 => other,
                1 => refill_path(&a, &mut constants.into_iter()),
                2 => join_steps(&a),
                3 => fold_filter(&a),
                _ => regroup(&a),
            };
            (a, b)
        })
        .boxed()
}
