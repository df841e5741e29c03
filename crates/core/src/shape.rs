//! The shape of an update — what a compiled plan ([`crate::plan`]) and a
//! log segment's shape table ([`crate::codec`]) depend on — as one key: the
//! AST with every `p = "s"` literal a slot, written in this grammar:
//!
//! ```text
//! path   = step*
//! step   = ("." | "/*" | "//" | "/" label) ("[" filter "]")*
//! filter = "(" path ")" | path "=?" | "label()=" label | "not<" filter ">"
//!        | "and<" filter "," filter ">" | "or<" filter "," filter ">"
//! label  = decimal byte length ":" bytes
//! ```
//!
//! Each production is told apart by its first bytes, and a label ends by
//! its length, not at a byte it may hold, so a key parses back to one
//! shape: the key is **injective**. Two paths share a key exactly when they
//! differ at most in their literals, so that binding one's literals into
//! the other ([`bind`]) rebuilds it, and a hit on the key is a same-shape
//! hit. An update's key ([`update_key`]) appends a NUL (a deletion), or a
//! `\u{1}`, the inserted type as a label and a letter per value type (an
//! insertion); no step or filter starts with either byte.

use crate::update::XmlUpdate;
use rxview_relstore::ValueType;
use rxview_xmlkit::xpath::{Filter, NodeTest, Step, StepKind, XPath};

/// Appends `label` to `key`, its byte length in decimal and a colon first
/// (digit by digit: `fmt` costs more than writing the rest of the key).
fn push_label(key: &mut String, label: &str) {
    let len = label.len();
    let digits = (0..=len.checked_ilog10().unwrap_or(0)).rev();
    key.extend(digits.map(|i| char::from(b'0' + (len / 10usize.pow(i) % 10) as u8)));
    key.push(':');
    key.push_str(label);
}

/// Appends the path's shape key to `key` and its `p = "s"` literals, in
/// pre-order traversal order, to `vals`. The traversal order here and in
/// [`bind`] must match: slot `i` binds the `i`-th literal either walk
/// encounters — of a compiled plan, and of a shaped update in a log record.
pub(crate) fn shape_path<'a>(p: &'a XPath, key: &mut String, vals: &mut Vec<&'a str>) {
    for step in &p.steps {
        match &step.kind {
            StepKind::SelfAxis => key.push('.'),
            StepKind::Child(NodeTest::Label(l)) => {
                key.push('/');
                push_label(key, l);
            }
            StepKind::Child(NodeTest::Wildcard) => key.push_str("/*"),
            StepKind::DescendantOrSelf => key.push_str("//"),
        }
        for f in &step.filters {
            key.push('[');
            shape_filter(f, key, vals);
            key.push(']');
        }
    }
}

fn shape_filter<'a>(f: &'a Filter, key: &mut String, vals: &mut Vec<&'a str>) {
    match f {
        Filter::Path(p) => {
            key.push('(');
            shape_path(p, key, vals);
            key.push(')');
        }
        Filter::PathEq(p, v) => {
            shape_path(p, key, vals);
            key.push_str("=?");
            vals.push(v);
        }
        Filter::LabelIs(l) => {
            key.push_str("label()=");
            push_label(key, l);
        }
        Filter::And(a, b) | Filter::Or(a, b) => {
            let and = matches!(f, Filter::And(..));
            key.push_str(if and { "and<" } else { "or<" });
            shape_filter(a, key, vals);
            key.push(',');
            shape_filter(b, key, vals);
            key.push('>');
        }
        Filter::Not(a) => {
            key.push_str("not<");
            shape_filter(a, key, vals);
            key.push('>');
        }
    }
}

/// The shape key and literal bindings of a path — the hot-path half of a
/// plan-cache probe (no AST allocation).
pub(crate) fn shape_of(p: &XPath) -> (String, Vec<String>) {
    let mut key = String::with_capacity(64);
    let mut vals = Vec::new();
    shape_path(p, &mut key, &mut vals);
    (key, vals.into_iter().map(str::to_owned).collect())
}

/// Writes `update`'s key — its path's, then its kind, and an insertion's
/// type and value types — over `key`, and its path's literals over
/// `literals`, in the order a shaped log update writes them.
pub(crate) fn update_key<'a>(update: &'a XmlUpdate, key: &mut String, literals: &mut Vec<&'a str>) {
    key.clear();
    literals.clear();
    shape_path(update.path(), key, literals);
    match update {
        XmlUpdate::Delete { .. } => key.push('\u{0}'),
        XmlUpdate::Insert { ty, attr, .. } => {
            key.push('\u{1}');
            push_label(key, ty);
            key.extend(attr.iter().map(|v| match v.value_type() {
                ValueType::Int => 'i',
                ValueType::Str => 's',
                ValueType::Bool => 'b',
            }));
        }
    }
}

/// Rebuilds `p` with its `p = "s"` literals replaced, in [`shape_path`]'s
/// order, by what successive calls of `literal` return; `p`'s own literals
/// are not read. With a plan's slot sentinels, it is the path the plan
/// compiles; with the literals of a path `q` of `p`'s shape, it is `q` — how
/// a log record's shaped update is read.
pub(crate) fn bind(p: &XPath, literal: &mut impl FnMut() -> String) -> XPath {
    XPath {
        steps: p
            .steps
            .iter()
            .map(|s| Step {
                kind: s.kind.clone(),
                filters: s.filters.iter().map(|f| bind_filter(f, literal)).collect(),
            })
            .collect(),
    }
}

fn bind_filter(f: &Filter, literal: &mut impl FnMut() -> String) -> Filter {
    match f {
        Filter::Path(p) => Filter::Path(bind(p, literal)),
        Filter::PathEq(p, _) => {
            let p = bind(p, literal);
            Filter::PathEq(p, literal())
        }
        Filter::LabelIs(l) => Filter::LabelIs(l.clone()),
        Filter::And(a, b) => Filter::and(bind_filter(a, literal), bind_filter(b, literal)),
        Filter::Or(a, b) => Filter::or(bind_filter(a, literal), bind_filter(b, literal)),
        Filter::Not(a) => Filter::not(bind_filter(a, literal)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast_strategies::path_pair_strategy;
    use proptest::prelude::*;
    use rxview_relstore::{Tuple, Value};

    fn key(u: &XmlUpdate) -> String {
        let mut key = String::new();
        update_key(u, &mut key, &mut Vec::new());
        key
    }

    /// A deletion (`kind` 0); an insertion of `a` and values of `types` (1),
    /// or of `a` and the first type's letter, and the other values (2).
    fn update(kind: usize, path: XPath, types: &[usize]) -> XmlUpdate {
        let value = |t: usize| [Value::Int(1), Value::from("1"), Value::Bool(true)][t].clone();
        let (ty, attr) = match (kind, types) {
            (2, [t, rest @ ..]) => (format!("a{}", ['i', 's', 'b'][*t]), rest),
            _ => ("a".to_owned(), types),
        };
        let attr = Tuple::from_values(attr.iter().map(|&t| value(t)));
        match kind {
            0 => XmlUpdate::Delete { path },
            _ => XmlUpdate::Insert { ty, attr, path },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Two paths have one key exactly when binding one's literals into
        /// the other rebuilds it, and binding keeps a path's key; two
        /// updates, exactly when their paths do and their kinds, types and
        /// value types agree.
        #[test]
        fn two_keys_are_equal_exactly_when_one_rebuilds_the_other(
            (p, q) in path_pair_strategy(),
            kinds in (0usize..3, 0usize..3),
            types in prop::collection::vec(0usize..3, 0..3),
        ) {
            let (q_key, literals) = shape_of(&q);
            let mut literals = literals.into_iter();
            let rebuilt = bind(&p, &mut || literals.next().unwrap_or_default());
            prop_assert_eq!(shape_of(&p).0 == q_key, rebuilt == q);
            prop_assert_eq!(shape_of(&rebuilt).0, shape_of(&p).0);
            let (a, b) = (update(kinds.0, p, &types), update(kinds.1, q, &types));
            let typed = |u: &XmlUpdate| match u {
                XmlUpdate::Delete { .. } => None,
                XmlUpdate::Insert { ty, attr, .. } => {
                    Some((ty.clone(), attr.iter().map(Value::value_type).collect::<Vec<_>>()))
                }
            };
            let one_shape = typed(&a) == typed(&b) && rebuilt == *b.path();
            prop_assert_eq!(key(&a) == key(&b), one_shape, "{:?} / {:?}", a, b);
        }
    }
}
