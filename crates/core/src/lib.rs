//! `rxview-core` — the primary contribution of *Updating Recursive XML
//! Views of Relations* (Choi, Cong, Fan, Viglas; ICDE 2007):
//!
//! - [`ViewStore`]: the relational coding `V_σ` of the DAG-compressed view
//!   (§2.3) — the DAG's child lists, `gen_A` tables, derived edge-view
//!   queries;
//! - [`TopoOrder`] / [`Reachability`]: the auxiliary structures `L` and `M`
//!   with Algorithm Reach (§3.1, Fig.4). The system maintains `L` and holds
//!   no `M`: [`reach`]'s walks over the DAG answer what `M` would;
//! - [`DagEval`]: the result of the two-pass XPath evaluation on DAGs and
//!   its side-effect set (§3.2), which [`eval_plan`] computes;
//! - `xinsert` / [`xdelete`]: Algorithms Xinsert/Xdelete, ∆X → ∆V (§3.3,
//!   Fig.5–6);
//! - [`XmlViewSystem::fold_maintenance`]: incremental maintenance of `L`
//!   (the `L` halves of ∆(M,L)insert / ∆(M,L)delete) and garbage
//!   collection (§3.4, Fig.7–8), one fold per update;
//! - [`translate_deletions`]: Algorithm delete — PTIME group deletions under
//!   key preservation (§4.2, Fig.9, Theorem 1);
//! - `translate_insertions`: Algorithm insert — the SAT-based heuristic
//!   for group insertions (§4.3, Appendix A, Theorems 2 & 4);
//! - [`RelFootprint`]: typed `(table, column, value)` conflict footprints
//!   read off the translation layer — the planned write sets `rxbench`'s
//!   conflict analysis scores, and the realized ones they are held to;
//! - [`classify`]: target-path classification into bounded cones —
//!   key-anchored, type-indexed multi-anchor (`//`-headed), or global —
//!   plus the evaluation scope of a cone union, its nodes in `L` order;
//! - [`PlanCache`]: compiled update plans — each `(path shape, grammar)`
//!   pair is compiled once into a classified, executable program and cached
//!   in the `Arc`-shared engine-wide cache, with an allocation-reusing
//!   execution arena;
//! - [`TranslationTemplates`]: compiled translation templates — per
//!   production edge, its edge view's one cell program (insert-side tuple
//!   templates and delete-side candidate sources) and side-effect plans,
//!   hosted in the same [`PlanCache`];
//! - [`codec`]: the hand-rolled binary encodings of updates and full system
//!   state that the serving engine's write-ahead log and checkpoints are
//!   built on;
//! - [`XmlViewSystem`]: the end-to-end framework of Fig.3, including the
//!   republication oracle `∆X(T) = σ(∆R(I))`;
//! - [`Exact`] / [`Observed`]: the two digests of a state
//!   ([`XmlViewSystem::exact_digest`], [`XmlViewSystem::observed_digest`])
//!   through which every comparison of two states runs.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod codec;
mod dag_eval;
mod digest;
mod footprint;
mod maintain;
mod pathclass;
mod plan;
mod processor;
pub mod reach;
mod rel_delete;
mod rel_insert;
mod shape;
mod template;
mod topo;
mod translate;
mod update;
mod viewstore;

/// The AST strategies the property tests share (`tests/common/mod.rs`).
#[cfg(test)]
#[allow(unreachable_pub)]
#[path = "../tests/common/mod.rs"]
mod ast_strategies;

pub use codec::{decode_system, encode_system, put_update};
pub use dag_eval::DagEval;
pub use digest::{Exact, Observed, StateDigest};
pub use footprint::{planned_delete_writes, planned_insert_writes, RelFootprint};
pub use maintain::{delete_pass, insert_job, MaintainReport};
pub use pathclass::{
    classify, resolve_anchors, scope_of_anchors, sub_steps, union_scope, Anchors, PathClass,
    SubStep, MAX_CONE_ANCHORS,
};
pub use plan::{eval_plan, PlanCache, PlanCacheStats, UpdatePlan};
pub use processor::{
    Admitted, DeferredMaintenance, Evaluated, PhaseTimings, UpdateError, UpdateOutcome,
    UpdateReport, XmlViewSystem,
};
pub use reach::Reachability;
pub use rel_delete::{translate_deletions, DeleteRejection};
pub use rel_insert::InsertRejection;
pub use template::{EdgeCell, EdgeRecord, TranslationTemplates};
pub use topo::TopoOrder;
pub use translate::xdelete;
pub use update::{SideEffectPolicy, ViewDelta, XmlUpdate};
pub use viewstore::ViewStore;
