//! Normal form for XPath expressions (§3.2).
//!
//! Any path `p` can be rewritten in `O(|p|)` time into `η₁/…/ηₙ` where each
//! `ηᵢ` is (a) `ε[qᵢ]`, (b) a label `A`, (c) the wildcard `*`, or (d) `//`,
//! using the rules `p[q] ≡ p/ε[q]` and `ε[q₁]…[qₙ] ≡ ε[q₁ ∧ … ∧ qₙ]`.
//! Both evaluation passes of the paper's algorithm run over this form.

use super::ast::{Filter, NodeTest, Step, StepKind, XPath};

/// One normalized step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NormStep {
    /// `ε[q]`: a filter applied at the current nodes.
    FilterStep(Filter),
    /// A child step on label `A`.
    Label(String),
    /// A child step on `*`.
    Wildcard,
    /// `//`.
    DescendantOrSelf,
}

/// A path in normal form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NormPath {
    /// Normalized steps in order.
    pub steps: Vec<NormStep>,
}

impl NormPath {
    /// Collects every filter appearing in the normalized steps.
    pub fn filters(&self) -> Vec<&Filter> {
        self.steps
            .iter()
            .filter_map(|s| match s {
                NormStep::FilterStep(f) => Some(f),
                _ => None,
            })
            .collect()
    }
}

/// Rewrites `p` into normal form.
pub fn normalize(p: &XPath) -> NormPath {
    let mut steps = Vec::with_capacity(p.steps.len() * 2);
    for step in &p.steps {
        push_step(step, &mut steps);
    }
    NormPath { steps }
}

fn push_step(step: &Step, out: &mut Vec<NormStep>) {
    match &step.kind {
        StepKind::SelfAxis => {}
        StepKind::Child(NodeTest::Label(l)) => out.push(NormStep::Label(l.clone())),
        StepKind::Child(NodeTest::Wildcard) => out.push(NormStep::Wildcard),
        StepKind::DescendantOrSelf => out.push(NormStep::DescendantOrSelf),
    }
    // p[q₁]…[qₙ] ≡ p/ε[q₁ ∧ … ∧ qₙ]; merge with a preceding ε[q] if present.
    if let Some(combined) = conjoin(&step.filters) {
        match out.last_mut() {
            Some(NormStep::FilterStep(existing)) => {
                *existing = Filter::and(existing.clone(), combined);
            }
            _ => out.push(NormStep::FilterStep(combined)),
        }
    } else if matches!(step.kind, StepKind::SelfAxis) && out.is_empty() {
        // A bare leading `.` must still constrain evaluation to the context
        // node; represent as a no-op filter-free ε, dropped entirely.
    }
}

fn conjoin(filters: &[Filter]) -> Option<Filter> {
    let mut it = filters.iter().cloned();
    let first = it.next()?;
    Some(it.fold(first, Filter::and))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::parse_xpath;

    #[test]
    fn plain_path_maps_one_to_one() {
        let p = parse_xpath("db/course/prereq").unwrap();
        let n = normalize(&p);
        assert_eq!(
            n.steps,
            vec![
                NormStep::Label("db".into()),
                NormStep::Label("course".into()),
                NormStep::Label("prereq".into()),
            ]
        );
    }

    #[test]
    fn filters_become_epsilon_steps() {
        let p = parse_xpath("course[cno=CS650]/prereq").unwrap();
        let n = normalize(&p);
        assert_eq!(n.steps.len(), 3);
        assert!(matches!(n.steps[0], NormStep::Label(_)));
        assert!(matches!(n.steps[1], NormStep::FilterStep(_)));
        assert!(matches!(n.steps[2], NormStep::Label(_)));
    }

    #[test]
    fn multiple_filters_conjoined() {
        let p = parse_xpath("course[cno=CS650][title=DB]").unwrap();
        let n = normalize(&p);
        assert_eq!(n.steps.len(), 2);
        match &n.steps[1] {
            NormStep::FilterStep(Filter::And(_, _)) => {}
            other => panic!("expected conjoined filter, got {other:?}"),
        }
    }

    #[test]
    fn self_axis_disappears_but_filters_remain() {
        let p = parse_xpath("course/.[cno=CS650]").unwrap();
        let n = normalize(&p);
        assert_eq!(n.steps.len(), 2);
        assert!(matches!(n.steps[1], NormStep::FilterStep(_)));
    }

    #[test]
    fn adjacent_epsilon_filters_merge() {
        // course[a]/.[b] — the ε[b] merges into the filter of course.
        let p = parse_xpath("course[cno=X]/.[title=Y]").unwrap();
        let n = normalize(&p);
        assert_eq!(n.steps.len(), 2);
        match &n.steps[1] {
            NormStep::FilterStep(Filter::And(_, _)) => {}
            other => panic!("expected merged conjunction, got {other:?}"),
        }
    }

    #[test]
    fn descendant_preserved() {
        let p = parse_xpath("//course[cno=CS320]//prereq").unwrap();
        let n = normalize(&p);
        assert_eq!(n.steps.len(), 5);
        assert!(matches!(n.steps[0], NormStep::DescendantOrSelf));
        assert!(matches!(n.steps[3], NormStep::DescendantOrSelf));
    }

    #[test]
    fn filters_accessor() {
        let p = parse_xpath("a[x=1]/b[y=2]").unwrap();
        let n = normalize(&p);
        assert_eq!(n.filters().len(), 2);
    }

    #[test]
    fn normalization_size_linear() {
        let p = parse_xpath("a[q1]/b[q2][q3]//c").unwrap();
        let n = normalize(&p);
        // a, ε[q1], b, ε[q2∧q3], //, c
        assert_eq!(n.steps.len(), 6);
    }
}
