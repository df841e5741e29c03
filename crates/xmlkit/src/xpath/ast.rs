//! Abstract syntax of the paper's XPath fragment (§2.1):
//!
//! ```text
//! p ::= ε | A | * | // | p/p | p[q]
//! q ::= p | p = "s" | label() = A | q ∧ q | q ∨ q | ¬q
//! ```
//!
//! `//` abbreviates `/descendant-or-self::node()/`.

use std::fmt;

/// The node test of a child step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// A label (element type name) `A`.
    Label(String),
    /// The wildcard `*`.
    Wildcard,
}

/// The axis/test part of a step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// The self axis `ε` (written `.`).
    SelfAxis,
    /// A child step with a node test.
    Child(NodeTest),
    /// `//` — descendant-or-self.
    DescendantOrSelf,
}

/// One step with its attached filters (`p[q₁][q₂]…`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Step {
    /// The axis and node test.
    pub kind: StepKind,
    /// The filters attached to this step, conjunctive.
    pub filters: Vec<Filter>,
}

impl Step {
    /// A step without filters.
    pub fn new(kind: StepKind) -> Self {
        Step {
            kind,
            filters: Vec::new(),
        }
    }

    /// A child step on a label.
    pub fn label(name: impl Into<String>) -> Self {
        Step::new(StepKind::Child(NodeTest::Label(name.into())))
    }

    /// Attaches a filter.
    pub fn with_filter(mut self, f: Filter) -> Self {
        self.filters.push(f);
        self
    }
}

/// A filter (qualifier) `q`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Filter {
    /// Existential path: `q = p` holds if `p` selects at least one node.
    Path(XPath),
    /// Value comparison: `p = "s"` — some node selected by `p` has string
    /// value `s`.
    PathEq(XPath, String),
    /// `label() = A`.
    LabelIs(String),
    /// Conjunction.
    And(Box<Filter>, Box<Filter>),
    /// Disjunction.
    Or(Box<Filter>, Box<Filter>),
    /// Negation.
    Not(Box<Filter>),
}

impl Filter {
    /// `a ∧ b`.
    pub fn and(a: Filter, b: Filter) -> Filter {
        Filter::And(Box::new(a), Box::new(b))
    }

    /// `a ∨ b`.
    pub fn or(a: Filter, b: Filter) -> Filter {
        Filter::Or(Box::new(a), Box::new(b))
    }

    /// `¬a`.
    #[allow(clippy::should_implement_trait)] // constructor, not an operator
    pub fn not(a: Filter) -> Filter {
        Filter::Not(Box::new(a))
    }
}

/// An XPath expression: a sequence of steps evaluated from a context node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct XPath {
    /// Steps in order.
    pub steps: Vec<Step>,
}

impl XPath {
    /// The empty path `ε` (selects the context node).
    pub fn empty() -> Self {
        XPath::default()
    }

    /// Builds from steps.
    pub fn from_steps(steps: Vec<Step>) -> Self {
        XPath { steps }
    }

    /// Appends a step.
    pub fn then(mut self, step: Step) -> Self {
        self.steps.push(step);
        self
    }

    /// Whether any step (recursively, through filters) uses `//`.
    pub fn uses_recursion(&self) -> bool {
        fn filter_uses(f: &Filter) -> bool {
            match f {
                Filter::Path(p) | Filter::PathEq(p, _) => p.uses_recursion(),
                Filter::LabelIs(_) => false,
                Filter::And(a, b) | Filter::Or(a, b) => filter_uses(a) || filter_uses(b),
                Filter::Not(a) => filter_uses(a),
            }
        }
        self.steps.iter().any(|s| {
            matches!(s.kind, StepKind::DescendantOrSelf) || s.filters.iter().any(filter_uses)
        })
    }

    /// Size of the expression (steps plus filter operators), the `|p|` of
    /// the paper's complexity bounds.
    pub fn size(&self) -> usize {
        fn fsize(f: &Filter) -> usize {
            match f {
                Filter::Path(p) | Filter::PathEq(p, _) => 1 + p.size(),
                Filter::LabelIs(_) => 1,
                Filter::And(a, b) | Filter::Or(a, b) => 1 + fsize(a) + fsize(b),
                Filter::Not(a) => 1 + fsize(a),
            }
        }
        self.steps
            .iter()
            .map(|s| 1 + s.filters.iter().map(fsize).sum::<usize>())
            .sum()
    }

    /// Depth of the deepest filter tree on any step (0 for a filter-free
    /// path): every filter, negation and connective is a level. It is how
    /// deep the printer, the evaluators' compilers and `Drop` recurse over
    /// this path, which is why the parser bounds it.
    pub fn filter_depth(&self) -> usize {
        fn fdepth(f: &Filter) -> usize {
            1 + match f {
                Filter::Path(p) | Filter::PathEq(p, _) => p.filter_depth(),
                Filter::LabelIs(_) => 0,
                Filter::And(a, b) | Filter::Or(a, b) => fdepth(a).max(fdepth(b)),
                Filter::Not(a) => fdepth(a),
            }
        }
        self.steps
            .iter()
            .flat_map(|s| s.filters.iter().map(fdepth))
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for XPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for step in &self.steps {
            match &step.kind {
                StepKind::DescendantOrSelf => {
                    write!(f, "//")?;
                    first = true; // '//' includes the separator
                    for q in &step.filters {
                        write!(f, "[{q}]")?;
                    }
                    continue;
                }
                kind => {
                    if !first {
                        write!(f, "/")?;
                    }
                    match kind {
                        StepKind::SelfAxis => write!(f, ".")?,
                        StepKind::Child(NodeTest::Label(l)) => write!(f, "{l}")?,
                        StepKind::Child(NodeTest::Wildcard) => write!(f, "*")?,
                        StepKind::DescendantOrSelf => unreachable!(),
                    }
                }
            }
            for q in &step.filters {
                write!(f, "[{q}]")?;
            }
            first = false;
        }
        Ok(())
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::Path(p) => write!(f, "{p}"),
            // A literal holds at most one kind of quote (it was delimited by
            // the other); print it inside the kind it does not hold.
            Filter::PathEq(p, s) if s.contains('"') => write!(f, "{p}='{s}'"),
            Filter::PathEq(p, s) => write!(f, "{p}=\"{s}\""),
            Filter::LabelIs(l) => write!(f, "label()={l}"),
            Filter::And(a, b) => write!(f, "({a} and {b})"),
            Filter::Or(a, b) => write!(f, "({a} or {b})"),
            Filter::Not(a) => write!(f, "not({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recursion_detection() {
        let p = XPath::from_steps(vec![Step::label("course")]);
        assert!(!p.uses_recursion());
        let p = XPath::from_steps(vec![
            Step::new(StepKind::DescendantOrSelf),
            Step::label("a"),
        ]);
        assert!(p.uses_recursion());
        // Recursion inside a filter counts.
        let inner = XPath::from_steps(vec![Step::new(StepKind::DescendantOrSelf)]);
        let p = XPath::from_steps(vec![Step::label("a").with_filter(Filter::Path(inner))]);
        assert!(p.uses_recursion());
    }

    #[test]
    fn size_counts_steps_and_filters() {
        let p = XPath::from_steps(vec![
            Step::label("course").with_filter(Filter::PathEq(
                XPath::from_steps(vec![Step::label("cno")]),
                "CS650".into(),
            )),
            Step::label("prereq"),
        ]);
        assert_eq!(p.size(), 2 + 1 + 1); // two steps, PathEq node, inner path step
    }

    #[test]
    fn display_round_trips_shape() {
        let p = XPath::from_steps(vec![
            Step::label("course").with_filter(Filter::PathEq(
                XPath::from_steps(vec![Step::label("cno")]),
                "CS650".into(),
            )),
            Step::new(StepKind::DescendantOrSelf),
            Step::label("prereq"),
        ]);
        assert_eq!(p.to_string(), "course[cno=\"CS650\"]//prereq");
    }

    #[test]
    fn filter_combinators() {
        let f = Filter::and(
            Filter::LabelIs("a".into()),
            Filter::not(Filter::LabelIs("b".into())),
        );
        assert_eq!(f.to_string(), "(label()=a and not(label()=b))");
    }
}
