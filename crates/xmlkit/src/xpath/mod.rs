//! The XPath fragment of §2.1: AST, parser and normal form.

mod ast;
mod normalize;
mod parser;

pub use ast::{Filter, NodeTest, Step, StepKind, XPath};
pub use normalize::{normalize, NormPath, NormStep};
pub use parser::{parse_xpath, ParseError, MAX_FILTER_DEPTH};
