//! `rxview-xmlkit` — the XML substrate of the rxview reproduction:
//!
//! - [`dtd`]: normalized, possibly recursive DTDs (§2.2) with recursion
//!   analysis;
//! - [`dtd_validate`]: schema-level update validation in `O(|p||D|²)` (§2.4);
//! - [`tree`]: arena XML trees, serialization, and structural equality;
//! - [`xpath`]: the paper's XPath fragment — parser, AST, and the normal
//!   form `η₁/…/ηₙ` used by both evaluation passes (§3.2).

#![warn(missing_docs)]

pub mod content;
pub mod dtd;
pub mod dtd_validate;
pub mod tree;
pub mod tree_parse;
pub mod xpath;

pub use content::{normalize_dtd, ContentModel};
pub use dtd::{registrar_dtd, Dtd, DtdBuilder, DtdError, Production, TypeId};
pub use dtd_validate::{schema_eval, validate_delete, validate_insert, SchemaViolation};
pub use tree::{Node, NodeId, XmlTree};
pub use tree_parse::{parse_tree, XmlParseError};
pub use xpath::{normalize, parse_xpath, Filter, NormPath, NormStep, XPath};
