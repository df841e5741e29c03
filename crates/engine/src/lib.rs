//! `rxview-engine` — a concurrent serving layer over the paper's Fig.3
//! update framework.
//!
//! The core [`rxview_core::XmlViewSystem`] reproduces the paper faithfully
//! but serially: one mutable `(I, V, M, L)` state, one update at a time.
//! This crate wraps it in a production-shaped engine:
//!
//! - **Snapshot isolation** ([`Snapshot`], [`Engine::snapshot`]): the whole
//!   system state — database `I`, views `V`, reachability `M`, order `L` —
//!   is published behind an epoch-stamped [`std::sync::Arc`] that a write
//!   commit swaps atomically. Any number of reader threads evaluate XPath
//!   (§3.2's two-pass DAG evaluation) or SPJ queries against an immutable
//!   snapshot while the writer works; `(I, V, M)` live in page-granular
//!   copy-on-write containers ([`rxview_relstore::PagedMap`]), so the writer's
//!   working clone, its first writes, and the release of a displaced
//!   snapshot each cost in proportion to what the round changed, and a
//!   snapshot is freed the moment its last reader lets go.
//! - **Group commit in conflict-free rounds** ([`Engine::submit`],
//!   [`Engine::commit_pending`]): submitted [`rxview_core::XmlUpdate`]s
//!   queue in a bounded admission queue and commit through one *round
//!   pipeline* — plan → translate → fold → log → publish → ack. The router
//!   plans a round of up to `max_batch` updates whose
//!   [`Analysis`] footprints are disjoint — key-anchored
//!   target-path cones (anchors probe the maintained `gen_A` registries)
//!   plus the typed relational footprint ([`rxview_core::RelFootprint`]) of
//!   a footprint-only dry run of the §3.3/§4 translation: the `(table,
//!   column, value)` keys the update reads and may write. Each round runs
//!   the paper's phases with two amortizations: evaluation of a classified
//!   path is *scoped* to its anchor cones (a projection of `L`,
//!   [`rxview_core::XmlViewSystem::eval`] — the same entry point readers
//!   and recovery replay evaluate through) and reused from the dry run, and
//!   phase 6 — maintenance of `M` and `L` (§3.4) — is *folded* into a
//!   single ∆(M,L) pass per round
//!   ([`rxview_core::XmlViewSystem::fold_maintenance`]), followed by one
//!   log record and one published epoch — so readers keep a single
//!   coherent, epoch-ordered snapshot stream. Per-update accept/reject
//!   outcomes are reported back through [`UpdateTicket`]s as each round
//!   publishes. Leading-`//` and wildcard-rooted updates resolve to bounded
//!   multi-anchor cones through the grammar's type-level reachability
//!   closure and typed `gen_A` probes ([`rxview_core::classify`]), so they
//!   ride ordinary rounds; only a genuinely untypeable (⊤-footprint) path
//!   commits alone.
//! - **One translate executor**: a round's updates run
//!   [`rxview_core::XmlViewSystem::apply_deferred`] one after another on the
//!   round's working clone, on the committing thread, each reusing its dry
//!   run's evaluation. Rounds run one at a time: a round is planned against
//!   the latest published snapshot and applied, folded, logged and
//!   published before the next is planned, so readers, the WAL, and acks
//!   observe one epoch stream (`WAL(k) ≺ publish(k) ≺ ack(k)`).
//!   Deterministic schedules are testable through [`StageHooks`].
//!   The round pipeline is property-tested observationally equivalent to
//!   sequential application.
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
//!   each record as the round it logs, one fold of `M` and `L` per record —
//!   and resumes serving at the recovered epoch ([`RecoveryReport`]).
//! - **Observability** ([`EngineStats`]): an engine-wide telemetry layer
//!   built on the dependency-free [`obs`] module — lock-free counters and
//!   log₂-bucketed latency histograms declared once, in one metric table
//!   that is also the list of their exported names
//!   ([`EngineStats::metrics`]), phase-attributed round timing extending
//!   the Fig.11 constituents ([`rxview_core::PhaseTimings`]) with plan /
//!   translate / fold / WAL-append / fsync / publish buckets, a
//!   ring-buffer *flight recorder* of structured round and durability
//!   events ([`Engine::flight_recording`]), and an optional background
//!   exporter appending that listing as JSONL
//!   ([`EngineConfig::metrics_path`], `RXVIEW_METRICS_PATH`). See
//!   [`Engine::telemetry_report`] and [`PhaseBreakdown`].
//!
//! Mapping back to the paper's Fig.3 phases: schema validation (§2.4) and
//! translation ∆X→∆V→∆R (§3.3, §4) run unchanged per update inside
//! [`rxview_core::XmlViewSystem::apply_deferred`]; XPath evaluation +
//! side-effect detection (§3.2) runs per update but scoped where the
//! conflict analysis proves it sound; background maintenance (§3.4) runs
//! once per round — which is exactly the "background" role the paper assigns
//! it, made concrete as group commit.

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
mod router;
mod snapshot;
mod stats;
mod wal;

pub use analyze::{evaluation_scope, plan_insert, Analysis, BatchFootprint};
pub use engine::{
    CommitSummary, Engine, EngineConfig, EngineError, UpdateTicket, WriterHandle, MAX_QUEUE,
};
pub use pipeline::{Stage, StageHooks};
pub use recovery::{RecoverError, RecoveryReport};
pub use snapshot::Snapshot;
pub use stats::{EngineReport, EngineStats, PhaseBreakdown};
pub use wal::Durability;
