//! `rxview-atg` — attribute translation grammars and DAG-compressed XML
//! publishing (§2.2–2.3 of *Updating Recursive XML Views of Relations*).
//!
//! - [`Atg`]: the grammar itself — semantic attributes, query/projection
//!   rules, validation (including the §4.1 key-preservation condition), and
//!   derivation of the relational *edge views* `Q_edge_A_B`;
//! - [`GenId`]: the Skolem `gen_id` interner;
//! - [`publish()`]: generation of the view `σ(I)` directly as a [`Dag`],
//!   subtree generation `ST(A,t)` ([`generate_subtree`]), tree expansion,
//!   and acyclicity checking;
//! - [`registrar_atg`]: the paper's running example (`I₀`, `D₀`, `σ₀`).
//!
//! The static bound behind `//`-path planning, the descendant-or-self
//! closure of the production graph, is the DTD's own
//! ([`rxview_xmlkit::Dtd::can_reach`]).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod genid;
mod grammar;
mod publish;
mod registrar;

pub use genid::{GenId, Interner, NodeId, Provisional};
pub use grammar::{Atg, AtgBuilder, AtgError, RuleBody};
pub use publish::{generate_subtree, publish, publish_leaves_first, Dag, PublishError, SubtreeDag};
pub use registrar::{registrar_atg, registrar_database, registrar_schema};
