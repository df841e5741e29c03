//! `rxview-xmlkit` — the XML substrate of the rxview reproduction:
//!
//! - [`Dtd`]: normalized, possibly recursive DTDs (§2.2) with their
//!   descendant-or-self type closure ([`Dtd::can_reach`]), computed once,
//!   and [`normalize_dtd`] for DTDs that are not yet normalized;
//! - [`validate_insert`] / [`validate_delete`]: schema-level update
//!   validation in `O(|p||D|²)` (§2.4), the walk over the type graph
//!   ([`SchemaReach`]) and the verdict on what it reached;
//! - [`XmlTree`]: arena XML trees and their serialization (the view
//!   expanded for printing);
//! - [`xpath`]: the paper's XPath fragment — parser, AST, and the normal
//!   form `η₁/…/ηₙ` used by both evaluation passes (§3.2).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod content;
mod dtd;
mod dtd_validate;
mod tree;
pub mod xpath;

pub use content::{normalize_dtd, ContentModel};
pub use dtd::{registrar_dtd, Dtd, DtdBuilder, DtdError, Production, TypeId};
pub use dtd_validate::{validate_delete, validate_insert, SchemaReach, SchemaViolation};
pub use tree::{Node, NodeId, XmlTree};
pub use xpath::{normalize, parse_xpath, Filter, NormPath, NormStep, XPath};
