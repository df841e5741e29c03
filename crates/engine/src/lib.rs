//! `rxview-engine` — a concurrent serving layer over the paper's Fig.3
//! update framework.
//!
//! The core [`rxview_core::XmlViewSystem`] reproduces the paper faithfully
//! but serially: one mutable `(I, V, L)` state, one update at a time.
//! This crate wraps it in a production-shaped engine:
//!
//! - **Snapshot isolation** ([`Snapshot`], [`Engine::snapshot`]): the whole
//!   system state — database `I`, views `V`, order `L` —
//!   is published behind an epoch-stamped [`std::sync::Arc`] that a write
//!   commit swaps atomically. Any number of reader threads evaluate XPath
//!   (§3.2's two-pass DAG evaluation) or SPJ queries against an immutable
//!   snapshot while the writer works; `(I, V)` live in page-granular
//!   copy-on-write containers ([`rxview_relstore::PagedMap`]), so the writer's
//!   working clone, its first writes, and the release of a displaced
//!   snapshot each cost in proportion to what the round changed, and a
//!   snapshot is freed the moment its last reader lets go.
//! - **Serial group commit** ([`Engine::submit`],
//!   [`Engine::commit_pending`]): a submitted [`rxview_core::XmlUpdate`] is
//!   admitted on the submitter's thread
//!   ([`rxview_core::XmlViewSystem::admit`]: schema-checked, its plan
//!   resolved; a refusal resolves its ticket there), queues in a bounded
//!   admission queue and commits through one *round pipeline*. A round is
//!   the queue's next prefix of up to [`MAX_BATCH`] updates, in submission
//!   order; on the committing thread each update in turn is evaluated
//!   against the round's working state through its admitted plan
//!   ([`rxview_core::XmlViewSystem::eval_admitted`] — scope-aware like the
//!   reads' `eval`: anchors probe the maintained `gen_A` registries, and
//!   `L` is projected onto their cones), applied
//!   ([`rxview_core::XmlViewSystem::apply_admitted`]) and folded
//!   ([`rxview_core::XmlViewSystem::fold_maintenance`] of its one job) — the
//!   paper's one-update-at-a-time semantics, so every update sees the state
//!   the one before it left and a round is conflict-free by construction.
//!   The round then pays one log record and one published epoch, so readers
//!   keep a single coherent, epoch-ordered snapshot stream
//!   (`WAL(k) ≺ publish(k) ≺ ack(k)`). Per-update accept/reject outcomes
//!   are reported back through [`UpdateTicket`]s as each round publishes.
//!   Deterministic schedules are testable through [`StageHooks`].
//! - **Durability** ([`Durability`], [`Engine::with_durability`],
//!   [`Engine::recover`]): the pipeline appends each committed round —
//!   `(epoch, applied updates in submission order)` — to a checksummed,
//!   epoch-ordered replay log *before* the round's snapshot becomes
//!   visible, under a configurable fsync policy; a background checkpointer
//!   serializes recent `Arc` snapshots (fuzzy — writers never block) and
//!   truncates the log behind them. One module, `logdir`, owns the log
//!   directory and describes it: each file, who creates and deletes it, and
//!   the fsync order that makes each deletion safe. Recovery loads the
//!   newest valid checkpoint, replays the log suffix record by record —
//!   each record as the serial application it logs, one fold of `L` per
//!   update — and resumes serving at the recovered epoch
//!   ([`RecoveryReport`]).
//! - **rxbench-only names**: [`Analysis`], [`BatchFootprint`] and
//!   [`evaluation_scope`] are the conflict analysis the round planner used
//!   before rounds became serial. The engine calls none of them; `rxbench`
//!   still times them, and ROADMAP item 4(h) deletes them.
//! - **Observability** ([`EngineStats`]): an engine-wide telemetry layer
//!   built on the dependency-free [`obs`] module — lock-free counters and
//!   log₂-bucketed latency histograms declared once, in one metric table
//!   that is also the list of their exported names
//!   ([`EngineStats::metrics`]), phase-attributed round timing extending
//!   the Fig.11 constituents ([`rxview_core::PhaseTimings`]) with plan /
//!   translate / fold / WAL-append / fsync / publish buckets, a
//!   ring-buffer *flight recorder* of structured round and durability
//!   events ([`Engine::flight_recording`]). Telemetry leaves the engine only
//!   when a caller reads it: the engine starts no thread but the
//!   checkpointer and reads no environment variable. See
//!   [`Engine::telemetry_report`] and [`PhaseBreakdown`].
//!
//! Mapping back to the paper's Fig.3 phases: schema validation (§2.4) runs
//! once per update, at `submit`, before anything is evaluated; translation
//! ∆X→∆V→∆R (§3.3, §4) runs unchanged per update inside
//! [`rxview_core::XmlViewSystem::apply_admitted`]; XPath evaluation +
//! side-effect detection (§3.2) runs per update but scoped where the
//! resolved anchors bound the path; background maintenance (§3.4) runs per
//! update, inside the round, before the next update evaluates — and the
//! round's log record and publication are what group commit amortises.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod analyze;
mod checkpoint;
mod engine;
mod logdir;
pub mod obs;
mod pipeline;
mod publisher;
mod recovery;
mod snapshot;
mod stats;
mod wal;

pub use analyze::{evaluation_scope, Analysis, BatchFootprint};
pub use engine::{
    CommitSummary, Engine, EngineConfig, EngineError, UpdateTicket, MAX_BATCH, MAX_QUEUE,
};
pub use pipeline::{Stage, StageHooks};
pub use recovery::{RecoverError, RecoveryReport};
pub use snapshot::Snapshot;
pub use stats::{EngineReport, EngineStats, PhaseBreakdown};
pub use wal::Durability;
