//! `rxview-core` — the primary contribution of *Updating Recursive XML
//! Views of Relations* (Choi, Cong, Fan, Viglas; ICDE 2007):
//!
//! - [`viewstore`]: the relational coding `V_σ` of the DAG-compressed view
//!   (§2.3) — edge relations, `gen_A` tables, derived edge-view queries;
//! - [`topo`] / [`reach`]: the auxiliary structures `L` and `M` with
//!   Algorithm Reach (§3.1, Fig.4);
//! - [`dag_eval`]: the result of the two-pass XPath evaluation on DAGs and
//!   its side-effect set (§3.2), which [`plan::eval_plan`] computes;
//! - [`translate`]: Algorithms Xinsert/Xdelete, ∆X → ∆V (§3.3, Fig.5–6);
//! - [`maintain`]: incremental maintenance ∆(M,L)insert / ∆(M,L)delete and
//!   garbage collection (§3.4, Fig.7–8);
//! - [`rel_delete`]: Algorithm delete — PTIME group deletions under key
//!   preservation (§4.2, Fig.9, Theorem 1);
//! - [`rel_insert`]: Algorithm insert — the SAT-based heuristic for group
//!   insertions (§4.3, Appendix A, Theorems 2 & 4);
//! - [`footprint`]: typed `(table, column, value)` conflict footprints read
//!   off the translation layer — the planned write sets a serving engine
//!   partitions updates by, and the realized ones they are held to;
//! - [`pathclass`]: target-path classification into bounded cones —
//!   key-anchored, type-indexed multi-anchor (`//`-headed), or global —
//!   plus the scoped-evaluation projection of `L` over a cone union;
//! - [`plan`]: compiled update plans — each `(path shape, grammar)` pair is
//!   compiled once into a classified, executable program and cached in the
//!   `Arc`-shared engine-wide [`plan::PlanCache`], with an
//!   allocation-reusing execution arena;
//! - [`template`]: compiled translation templates — per production edge,
//!   the precompiled insert-side ∆R skeleton and delete-side
//!   candidate-source program, hosted in the same [`plan::PlanCache`];
//! - [`codec`]: the hand-rolled binary encodings of updates and full system
//!   state that the serving engine's write-ahead log and checkpoints are
//!   built on;
//! - [`processor`]: the end-to-end framework of Fig.3, including the
//!   republication oracle `∆X(T) = σ(∆R(I))`.

#![warn(missing_docs)]

pub mod codec;
pub mod dag_eval;
pub mod footprint;
pub mod maintain;
pub mod pathclass;
pub mod plan;
pub mod processor;
pub mod reach;
pub mod rel_delete;
pub mod rel_insert;
pub mod republish;
pub mod template;
pub mod topo;
pub mod translate;
pub mod update;
pub mod viewstore;

pub use codec::{decode_system, encode_system, put_update, read_update};
pub use dag_eval::DagEval;
pub use footprint::{planned_delete_writes, planned_insert_writes, ColKey, RelFootprint};
pub use maintain::{maintain_delete, maintain_insert, MaintainReport};
pub use pathclass::{
    classify, filter_keys, resolve_anchors, scope_of_anchors, sub_steps, union_scope, Anchors,
    PathClass, SubStep, MAX_CONE_ANCHORS,
};
pub use plan::{eval_plan, shape_of, PlanCache, PlanCacheStats, UpdatePlan};
pub use processor::{
    DeferredMaintenance, Evaluated, PhaseTimings, UpdateError, UpdateOutcome, UpdateReport,
    XmlViewSystem,
};
pub use reach::Reachability;
pub use rel_delete::{candidate_source_keys, translate_deletions, DeleteRejection};
pub use rel_insert::{
    edge_template_keys, translate_insertions, EdgeClosure, InsertRejection, InsertTranslation,
};
pub use republish::{apply_relational_update, RepublishReport};
pub use template::TranslationTemplates;
pub use topo::TopoOrder;
pub use translate::{apply_delta, rollback_subtree, xdelete, xinsert};
pub use update::{SideEffectPolicy, ViewDelta, XmlUpdate};
pub use viewstore::ViewStore;
