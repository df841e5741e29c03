//! `rxview-atg` — attribute translation grammars and DAG-compressed XML
//! publishing (§2.2–2.3 of *Updating Recursive XML Views of Relations*).
//!
//! - [`grammar`]: the ATG itself — semantic attributes, query/projection
//!   rules, validation (including the §4.1 key-preservation condition), and
//!   derivation of the relational *edge views* `Q_edge_A_B`;
//! - [`genid`]: the Skolem `gen_id` interner and `gen_A` registries;
//! - [`mod@publish`]: generation of the view `σ(I)` directly as a DAG, subtree
//!   generation `ST(A,t)`, tree expansion, and acyclicity checking;
//! - [`registrar`]: the paper's running example (`I₀`, `D₀`, `σ₀`);
//! - [`typereach`]: the type-level descendant-or-self closure of the
//!   production graph — the static bound behind `//`-path planning.

#![warn(missing_docs)]

pub mod genid;
pub mod grammar;
pub mod publish;
pub mod registrar;
pub mod typereach;

pub use genid::{GenId, GenIdBuilder, Interner, NodeId, Provisional};
pub use grammar::{Atg, AtgBuilder, AtgError, RuleBody};
pub use publish::{generate_subtree, publish, publish_leaves_first, Dag, PublishError, SubtreeDag};
pub use registrar::{registrar_atg, registrar_database, registrar_schema};
pub use typereach::TypeReach;
