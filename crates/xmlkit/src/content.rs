//! Normalization of arbitrary DTD content models (footnote ① of §2.2).
//!
//! The paper's machinery assumes DTDs in the normal form
//! `α ::= pcdata | ε | B₁,…,Bₙ | B₁+…+Bₙ | B*`. Real DTDs use arbitrary
//! regular expressions over element names; footnote ① notes that any DTD
//! can be normalized into the restricted form *in linear time by
//! introducing additional element types*. This module implements that
//! transformation: composite sub-expressions are hoisted into synthesized
//! auxiliary element types (`A__seq1`, `A__opt2`, …), `e+` is rewritten as
//! `(e, e*)` and `e?` as `(ε + e)`.

use crate::dtd::{Dtd, DtdBuilder, DtdError};

/// An arbitrary DTD content model (the right-hand side of an `<!ELEMENT>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentModel {
    /// `#PCDATA`.
    PcData,
    /// `EMPTY`.
    Empty,
    /// A reference to an element name.
    Name(String),
    /// `(e₁, e₂, …)`.
    Seq(Vec<ContentModel>),
    /// `(e₁ | e₂ | …)`.
    Choice(Vec<ContentModel>),
    /// `e*`.
    Star(Box<ContentModel>),
    /// `e+` — rewritten as `(e, e*)`.
    Plus(Box<ContentModel>),
    /// `e?` — rewritten as `(ε | e)`.
    Opt(Box<ContentModel>),
}

impl ContentModel {
    /// `(a, b, …)` helper.
    pub fn seq(items: impl IntoIterator<Item = ContentModel>) -> Self {
        ContentModel::Seq(items.into_iter().collect())
    }

    /// `(a | b | …)` helper.
    pub fn choice(items: impl IntoIterator<Item = ContentModel>) -> Self {
        ContentModel::Choice(items.into_iter().collect())
    }

    /// Element-name helper.
    pub fn name(n: impl Into<String>) -> Self {
        ContentModel::Name(n.into())
    }

    /// `e*` helper.
    pub fn star(e: ContentModel) -> Self {
        ContentModel::Star(Box::new(e))
    }

    /// `e+` helper.
    pub fn plus(e: ContentModel) -> Self {
        ContentModel::Plus(Box::new(e))
    }

    /// `e?` helper.
    pub fn opt(e: ContentModel) -> Self {
        ContentModel::Opt(Box::new(e))
    }

    /// Size of the expression tree (normalization is linear in this).
    pub fn size(&self) -> usize {
        match self {
            ContentModel::PcData | ContentModel::Empty | ContentModel::Name(_) => 1,
            ContentModel::Seq(xs) | ContentModel::Choice(xs) => {
                1 + xs.iter().map(ContentModel::size).sum::<usize>()
            }
            ContentModel::Star(x) | ContentModel::Plus(x) | ContentModel::Opt(x) => 1 + x.size(),
        }
    }
}

/// Normalizes a DTD given as `(element name, arbitrary content model)`
/// pairs into the paper's restricted form, synthesizing auxiliary types as
/// needed. Elements mentioned but not defined default to `pcdata`, as in
/// [`DtdBuilder`].
pub fn normalize_dtd(root: &str, defs: &[(&str, ContentModel)]) -> Result<Dtd, DtdError> {
    let mut b = Dtd::builder(root);
    let mut counter = 0usize;
    for (name, cm) in defs {
        define(&mut b, name, cm, &mut counter)?;
    }
    b.build()
}

/// Defines `name` with the normalized form of `cm`, hoisting composites.
fn define(
    b: &mut DtdBuilder,
    name: &str,
    cm: &ContentModel,
    counter: &mut usize,
) -> Result<(), DtdError> {
    match cm {
        ContentModel::PcData => {
            b.pcdata(name)?;
        }
        ContentModel::Empty => {
            b.empty(name)?;
        }
        // A bare name: a singleton sequence.
        ContentModel::Name(n) => {
            b.sequence(name, &[n])?;
        }
        ContentModel::Seq(items) => {
            let refs = items
                .iter()
                .map(|i| hoist(b, name, i, counter))
                .collect::<Result<Vec<_>, _>>()?;
            let refs: Vec<&str> = refs.iter().map(String::as_str).collect();
            b.sequence(name, &refs)?;
        }
        ContentModel::Choice(items) => {
            let refs = items
                .iter()
                .map(|i| hoist(b, name, i, counter))
                .collect::<Result<Vec<_>, _>>()?;
            let refs: Vec<&str> = refs.iter().map(String::as_str).collect();
            b.alternation(name, &refs)?;
        }
        ContentModel::Star(inner) => {
            let r = hoist(b, name, inner, counter)?;
            b.star(name, &r)?;
        }
        // e+ ≡ (e, e*): a sequence of e and an auxiliary star type.
        ContentModel::Plus(inner) => {
            let e = hoist(b, name, inner, counter)?;
            let star_aux = fresh(name, "rep", counter);
            b.star(&star_aux, &e)?;
            b.sequence(name, &[&e, &star_aux])?;
        }
        // e? ≡ (ε | e): an alternation with an auxiliary empty type.
        ContentModel::Opt(inner) => {
            let e = hoist(b, name, inner, counter)?;
            let none_aux = fresh(name, "none", counter);
            b.empty(&none_aux)?;
            b.alternation(name, &[&none_aux, &e])?;
        }
    }
    Ok(())
}

/// Returns an element name for `cm` in the context of `owner`: names pass
/// through; composites are hoisted into a synthesized auxiliary type.
fn hoist(
    b: &mut DtdBuilder,
    owner: &str,
    cm: &ContentModel,
    counter: &mut usize,
) -> Result<String, DtdError> {
    match cm {
        ContentModel::Name(n) => Ok(n.clone()),
        other => {
            let kind = match other {
                ContentModel::Seq(_) => "seq",
                ContentModel::Choice(_) => "alt",
                ContentModel::Star(_) => "star",
                ContentModel::Plus(_) => "plus",
                ContentModel::Opt(_) => "opt",
                ContentModel::PcData => "text",
                ContentModel::Empty => "empty",
                ContentModel::Name(_) => unreachable!(),
            };
            let aux = fresh(owner, kind, counter);
            define(b, &aux, other, counter)?;
            Ok(aux)
        }
    }
}

fn fresh(owner: &str, kind: &str, counter: &mut usize) -> String {
    *counter += 1;
    format!("{owner}__{kind}{counter}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::Production;

    #[test]
    fn already_normal_forms_pass_through() {
        let d = normalize_dtd(
            "db",
            &[
                ("db", ContentModel::star(ContentModel::name("course"))),
                (
                    "course",
                    ContentModel::seq([ContentModel::name("cno"), ContentModel::name("title")]),
                ),
                ("cno", ContentModel::PcData),
            ],
        )
        .unwrap();
        assert!(matches!(d.production(d.root()), Production::Star(_)));
        let course = d.type_id("course").unwrap();
        assert!(matches!(d.production(course), Production::Sequence(ts) if ts.len() == 2));
        // No auxiliary types were needed.
        assert!(d.types().all(|t| !d.name(t).contains("__")));
    }

    #[test]
    fn plus_becomes_seq_with_star_aux() {
        let d = normalize_dtd(
            "list",
            &[("list", ContentModel::plus(ContentModel::name("item")))],
        )
        .unwrap();
        let list = d.root();
        let Production::Sequence(ts) = d.production(list) else {
            panic!("expected sequence")
        };
        assert_eq!(ts.len(), 2);
        assert_eq!(d.name(ts[0]), "item");
        assert!(matches!(d.production(ts[1]), Production::Star(t) if d.name(*t) == "item"));
    }

    #[test]
    fn opt_becomes_alternation_with_empty_aux() {
        let d = normalize_dtd(
            "field",
            &[("field", ContentModel::opt(ContentModel::name("value")))],
        )
        .unwrap();
        let Production::Alternation(ts) = d.production(d.root()) else {
            panic!("expected alternation")
        };
        assert_eq!(ts.len(), 2);
        assert!(matches!(d.production(ts[0]), Production::Empty));
        assert_eq!(d.name(ts[1]), "value");
    }

    #[test]
    fn nested_composites_are_hoisted() {
        // doc ::= (head, (a | b)*, foot)
        let d = normalize_dtd(
            "doc",
            &[(
                "doc",
                ContentModel::seq([
                    ContentModel::name("head"),
                    ContentModel::star(ContentModel::choice([
                        ContentModel::name("a"),
                        ContentModel::name("b"),
                    ])),
                    ContentModel::name("foot"),
                ]),
            )],
        )
        .unwrap();
        let Production::Sequence(ts) = d.production(d.root()) else {
            panic!("expected sequence")
        };
        assert_eq!(ts.len(), 3);
        // The middle child is an auxiliary star over an auxiliary choice.
        let mid = ts[1];
        assert!(d.name(mid).contains("__"));
        let Production::Star(alt) = d.production(mid) else {
            panic!("expected star")
        };
        assert!(matches!(d.production(*alt), Production::Alternation(xs) if xs.len() == 2));
    }

    #[test]
    fn recursion_survives_normalization() {
        // part ::= (name, part*)? — recursive through an optional group.
        let d = normalize_dtd(
            "part",
            &[(
                "part",
                ContentModel::opt(ContentModel::seq([
                    ContentModel::name("name"),
                    ContentModel::star(ContentModel::name("part")),
                ])),
            )],
        )
        .unwrap();
        assert!(d.is_recursive());
        let part = d.root();
        assert!(d.children_of(part).iter().any(|&c| d.can_reach(c, part)));
    }

    #[test]
    fn normalization_size_is_linear() {
        // Deeply nested expression: count of synthesized types is bounded
        // by the expression size.
        let mut cm = ContentModel::name("x");
        for _ in 0..20 {
            cm = ContentModel::opt(ContentModel::star(cm));
        }
        let before = cm.size();
        let d = normalize_dtd("top", &[("top", cm)]).unwrap();
        assert!(
            d.n_types() <= 2 * before + 2,
            "{} types for size {}",
            d.n_types(),
            before
        );
    }

    #[test]
    fn size_counts_nodes() {
        let cm = ContentModel::seq([
            ContentModel::name("a"),
            ContentModel::plus(ContentModel::name("b")),
        ]);
        assert_eq!(cm.size(), 4);
    }
}
