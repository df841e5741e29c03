//! Recursive-descent parser for the XPath fragment of §2.1.
//!
//! Accepted syntax (the paper's, plus common spellings):
//!
//! ```text
//! path   := ('//' | '/')? step (('/' | '//') step)*
//! step   := ('.' | '*' | NAME) ('[' filter ']')*
//! filter := or
//! or     := and (('or' | '||') and)*
//! and    := unary (('and' | '&&') unary)*
//! unary  := ('not' | '!') '(' filter ')' | '(' filter ')' | atom
//! atom   := 'label()' '=' NAME
//!         | path ('=' value)?
//! value  := '"' chars '"' | '\'' chars '\'' | bareword
//! ```
//!
//! Bare values after `=` (as in the paper's `course[cno=CS650]`) are allowed.
//!
//! The parser is total: any input is `Ok` or `Err`, never a panic or a
//! stack overflow, and whatever it accepts prints to text it accepts again
//! as the same tree (`tests/parser_totality.rs`). The parser, the printer,
//! the evaluators' compilers and `Drop` all recurse over the AST, and path
//! text comes from callers, so the tree's depth is bounded
//! ([`MAX_FILTER_DEPTH`]) — a property of the tree, not of how it was
//! spelled, so printing preserves it — and two looser syntactic bounds keep
//! the parser itself shallow until the tree exists to be measured.

use super::ast::{Filter, NodeTest, Step, StepKind, XPath};
use std::fmt;

/// Parse errors with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub pos: usize,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest filter tree ([`XPath::filter_depth`]) a path may carry. Real
/// paths nest a handful of levels.
pub const MAX_FILTER_DEPTH: usize = 64;

/// Deepest syntactic nesting — brackets, parentheses, negations — the
/// parser descends into; each level costs it seven frames. Redundant
/// parentheses nest without deepening the tree, so this is checked on the
/// way down. The printed form of an accepted tree nests one level per tree
/// level plus the atom, well inside it.
const MAX_NESTING: usize = 2 * MAX_FILTER_DEPTH;

/// Most `and` / `or` connectives the parser consumes: a chain of them
/// parses into a left-deep tree as deep as it is long, which must stay
/// shallow enough to be measured (and dropped) recursively.
const MAX_CONNECTIVES: usize = 1024;

/// Parses an XPath expression.
///
/// ```
/// use rxview_xmlkit::parse_xpath;
/// let p = parse_xpath("course[cno=CS650]//course[cno=CS320]/prereq").unwrap();
/// assert!(p.uses_recursion());
/// assert_eq!(p.steps.len(), 4);
/// ```
pub fn parse_xpath(input: &str) -> Result<XPath, ParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
        connectives: 0,
    };
    p.skip_ws();
    let path = p.parse_path()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input"));
    }
    if path.steps.is_empty() {
        return Err(p.err("empty path"));
    }
    if path.filter_depth() > MAX_FILTER_DEPTH {
        return Err(p.err("filters nested too deeply"));
    }
    Ok(path)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Filter levels open at `pos`.
    depth: usize,
    /// Connectives consumed so far.
    connectives: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.peek(),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.bump(1);
        }
    }

    fn parse_path(&mut self) -> Result<XPath, ParseError> {
        let mut steps = Vec::new();
        self.skip_ws();
        // A leading single '/' is tolerated (absolute-path spelling); `//`
        // groups are handled uniformly in the loop, including the paper's
        // trailing abbreviation (`p1//` for `p1/ //`).
        if self.peek() == Some(b'/') && !self.starts_with("//") {
            self.bump(1);
        }
        loop {
            // Consume any run of '//' separators — each is a
            // descendant-or-self step.
            let mut consumed_desc = false;
            while self.starts_with("//") {
                self.bump(2);
                steps.push(Step::new(StepKind::DescendantOrSelf));
                self.skip_ws();
                consumed_desc = true;
            }
            if !self.at_step_start() {
                if consumed_desc {
                    break; // trailing `//`
                }
                return Err(self.err("expected step ('.', '*', or a label)"));
            }
            steps.push(self.parse_step()?);
            self.skip_ws();
            if self.starts_with("//") {
                continue;
            }
            if self.peek() == Some(b'/') {
                self.bump(1);
                self.skip_ws();
                continue;
            }
            break;
        }
        Ok(XPath::from_steps(steps))
    }

    fn at_step_start(&self) -> bool {
        if matches!(self.peek(), Some(b'.') | Some(b'*')) {
            return true;
        }
        if !matches!(self.peek(), Some(c) if is_name_start(c)) {
            return false;
        }
        // `or` / `and` at a word boundary are boolean connectives, not
        // labels — disambiguates `p// or q` inside filters.
        for kw in ["or", "and"] {
            if self.starts_with(kw) {
                let after = self.input.get(self.pos + kw.len()).copied();
                if !matches!(after, Some(c) if is_name_char(c)) {
                    return false;
                }
            }
        }
        true
    }

    fn parse_step(&mut self) -> Result<Step, ParseError> {
        self.skip_ws();
        let kind = match self.peek() {
            Some(b'.') => {
                self.bump(1);
                StepKind::SelfAxis
            }
            Some(b'*') => {
                self.bump(1);
                StepKind::Child(NodeTest::Wildcard)
            }
            Some(c) if is_name_start(c) => {
                let name = self.parse_name()?;
                StepKind::Child(NodeTest::Label(name))
            }
            _ => return Err(self.err("expected step ('.', '*', or a label)")),
        };
        let mut step = Step::new(kind);
        loop {
            self.skip_ws();
            if self.peek() == Some(b'[') {
                self.bump(1);
                let f = self.parse_filter()?;
                self.skip_ws();
                if self.peek() != Some(b']') {
                    return Err(self.err("expected ']'"));
                }
                self.bump(1);
                step.filters.push(f);
            } else {
                break;
            }
        }
        Ok(step)
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => self.bump(1),
            _ => return Err(self.err("expected a name")),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            self.bump(1);
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .expect("ascii names")
            .to_owned())
    }

    fn parse_filter(&mut self) -> Result<Filter, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Filter, ParseError> {
        let mut left = self.parse_and()?;
        loop {
            self.skip_ws();
            if self.keyword("or") || self.symbol("||") {
                self.connective()?;
                let right = self.parse_and()?;
                left = Filter::or(left, right);
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_and(&mut self) -> Result<Filter, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            self.skip_ws();
            if self.keyword("and") || self.symbol("&&") {
                self.connective()?;
                let right = self.parse_unary()?;
                left = Filter::and(left, right);
            } else {
                return Ok(left);
            }
        }
    }

    fn connective(&mut self) -> Result<(), ParseError> {
        self.connectives += 1;
        if self.connectives > MAX_CONNECTIVES {
            return Err(self.err("too many boolean connectives"));
        }
        Ok(())
    }

    /// Every level of nesting — a bracket, a parenthesis, a negation —
    /// passes through here, so this is where it is bounded.
    fn parse_unary(&mut self) -> Result<Filter, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err("filters nested too deeply"));
        }
        self.depth += 1;
        let filter = self.parse_unary_at_depth();
        self.depth -= 1;
        filter
    }

    fn parse_unary_at_depth(&mut self) -> Result<Filter, ParseError> {
        self.skip_ws();
        if self.keyword_before_paren("not") || self.symbol("!") {
            self.skip_ws();
            if self.peek() == Some(b'(') {
                self.bump(1);
                let f = self.parse_filter()?;
                self.skip_ws();
                if self.peek() != Some(b')') {
                    return Err(self.err("expected ')'"));
                }
                self.bump(1);
                return Ok(Filter::not(f));
            }
            let f = self.parse_unary()?;
            return Ok(Filter::not(f));
        }
        if self.peek() == Some(b'(') {
            self.bump(1);
            let f = self.parse_filter()?;
            self.skip_ws();
            if self.peek() != Some(b')') {
                return Err(self.err("expected ')'"));
            }
            self.bump(1);
            return Ok(f);
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<Filter, ParseError> {
        self.skip_ws();
        if self.starts_with("label()") {
            self.bump("label()".len());
            self.skip_ws();
            if self.peek() != Some(b'=') {
                return Err(self.err("expected '=' after label()"));
            }
            self.bump(1);
            self.skip_ws();
            let name = self.parse_name()?;
            return Ok(Filter::LabelIs(name));
        }
        let path = self.parse_path()?;
        self.skip_ws();
        if self.peek() == Some(b'=') {
            self.bump(1);
            self.skip_ws();
            let value = self.parse_value()?;
            Ok(Filter::PathEq(path, value))
        } else {
            Ok(Filter::Path(path))
        }
    }

    fn parse_value(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.bump(1);
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == q {
                        let s = std::str::from_utf8(&self.input[start..self.pos])
                            .map_err(|_| self.err("non-UTF8 string"))?
                            .to_owned();
                        self.bump(1);
                        return Ok(s);
                    }
                    self.bump(1);
                }
                Err(self.err("unterminated string literal"))
            }
            Some(c) if is_bare_value_char(c) => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if is_bare_value_char(c)) {
                    self.bump(1);
                }
                Ok(std::str::from_utf8(&self.input[start..self.pos])
                    .expect("ascii bareword")
                    .to_owned())
            }
            _ => Err(self.err("expected a value")),
        }
    }

    /// Consumes `kw` if present as a whole word.
    fn keyword(&mut self, kw: &str) -> bool {
        if self.starts_with(kw) {
            let after = self.input.get(self.pos + kw.len()).copied();
            if !matches!(after, Some(c) if is_name_char(c)) {
                self.bump(kw.len());
                return true;
            }
        }
        false
    }

    /// Consumes `kw` only when followed (after spaces) by `(` — used for
    /// `not(...)` so a path starting with label `notation` still parses.
    fn keyword_before_paren(&mut self, kw: &str) -> bool {
        if self.starts_with(kw) {
            let mut i = self.pos + kw.len();
            while matches!(self.input.get(i), Some(b' ') | Some(b'\t')) {
                i += 1;
            }
            if self.input.get(i) == Some(&b'(') {
                self.bump(kw.len());
                return true;
            }
        }
        false
    }

    fn symbol(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.bump(s.len());
            true
        } else {
            false
        }
    }
}

fn is_name_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_name_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'-'
}

fn is_bare_value_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_p0() {
        // P₀ from Example 1.
        let p = parse_xpath("course[cno=CS650]//course[cno=CS320]/prereq").unwrap();
        assert_eq!(p.steps.len(), 4); // course, //, course, prereq
        assert!(p.uses_recursion());
        assert_eq!(
            p.to_string(),
            "course[cno=\"CS650\"]//course[cno=\"CS320\"]/prereq"
        );
    }

    #[test]
    fn paper_example_deletion() {
        let p = parse_xpath("//course[cno=CS320]//student[ssn=S02]").unwrap();
        assert_eq!(p.steps.len(), 4); // //, course, //, student
        assert!(matches!(p.steps[0].kind, StepKind::DescendantOrSelf));
    }

    #[test]
    fn quoted_and_bare_values_agree() {
        let a = parse_xpath("course[cno=\"CS650\"]").unwrap();
        let b = parse_xpath("course[cno=CS650]").unwrap();
        let c = parse_xpath("course[cno='CS650']").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn wildcard_and_self() {
        let p = parse_xpath("*/.").unwrap();
        assert_eq!(p.steps.len(), 2);
        assert!(matches!(
            p.steps[0].kind,
            StepKind::Child(NodeTest::Wildcard)
        ));
        assert!(matches!(p.steps[1].kind, StepKind::SelfAxis));
    }

    #[test]
    fn boolean_filters_with_precedence() {
        let p = parse_xpath("course[cno=CS1 or cno=CS2 and not(title=X)]").unwrap();
        let f = &p.steps[0].filters[0];
        // or is the top-level operator (and binds tighter).
        assert!(matches!(f, Filter::Or(_, _)));
        if let Filter::Or(_, rhs) = f {
            assert!(matches!(**rhs, Filter::And(_, _)));
        }
    }

    #[test]
    fn label_filter() {
        let p = parse_xpath("*[label()=course]").unwrap();
        assert_eq!(p.steps[0].filters[0], Filter::LabelIs("course".into()));
    }

    #[test]
    fn existential_path_filter() {
        let p = parse_xpath("course[prereq/course]").unwrap();
        match &p.steps[0].filters[0] {
            Filter::Path(inner) => assert_eq!(inner.steps.len(), 2),
            other => panic!("expected Path filter, got {other:?}"),
        }
    }

    #[test]
    fn nested_filters() {
        let p = parse_xpath("course[prereq/course[cno=CS240]]").unwrap();
        match &p.steps[0].filters[0] {
            Filter::Path(inner) => {
                assert_eq!(inner.steps[1].filters.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn filter_with_descendant_path() {
        let p = parse_xpath("course[.//cno=CS240]").unwrap();
        match &p.steps[0].filters[0] {
            Filter::PathEq(inner, v) => {
                assert!(inner.uses_recursion());
                assert_eq!(v, "CS240");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn leading_slash_forms() {
        assert!(parse_xpath("/db/course").is_ok());
        assert!(parse_xpath("//course").is_ok());
        assert!(parse_xpath("db//course").is_ok());
    }

    #[test]
    fn double_negation_and_symbols() {
        let p = parse_xpath("a[!(b) && c || d]").unwrap();
        assert!(matches!(p.steps[0].filters[0], Filter::Or(_, _)));
    }

    #[test]
    fn trailing_descendant_abbreviation() {
        // The paper: "we abbreviate p1/ // as p1//".
        let p = parse_xpath("course//").unwrap();
        assert_eq!(p.steps.len(), 2);
        assert!(matches!(p.steps[1].kind, StepKind::DescendantOrSelf));
        let p = parse_xpath("//").unwrap();
        assert_eq!(p.steps.len(), 1);
    }

    #[test]
    fn errors_reported() {
        assert!(parse_xpath("").is_err());
        assert!(parse_xpath("a[").is_err());
        assert!(parse_xpath("a[b").is_err());
        assert!(parse_xpath("a]").is_err());
        assert!(parse_xpath("a[label()=]").is_err());
        assert!(parse_xpath("a['unterminated]").is_err());
    }

    #[test]
    fn name_starting_with_not_is_a_label() {
        let p = parse_xpath("a[notation]").unwrap();
        match &p.steps[0].filters[0] {
            Filter::Path(inner) => {
                assert_eq!(inner.steps[0], Step::label("notation"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let p = parse_xpath("  course [ cno = CS650 ] / prereq ").unwrap();
        assert_eq!(p.steps.len(), 2);
    }
}
