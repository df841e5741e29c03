//! Engine observability: every counter and phase timer lives in a
//! [`rxview_obs::Registry`], with typed `Arc` handles held here so the hot
//! paths never touch the registry lock.
//!
//! Three layers share this module:
//!
//! - **metrics** — lock-free counters plus log2 latency [`Histogram`]s for
//!   each commit phase (`plan`, `translate`, `merge`, `fold`, `wal_append`,
//!   `fsync`, `publish`), per-shard busy/idle time, and each update's
//!   admission→ack latency;
//! - **flight recorder** — a bounded ring of structured events (round
//!   planned / committed / requeued, global-lane fallback, checkpoint
//!   start/end, WAL rotation, recovery replay progress), dumpable as JSONL;
//! - **reports** — [`EngineReport`] is a point-in-time read of the registry,
//!   and [`PhaseBreakdown`] attributes a run's wall clock to phases.
//!
//! Telemetry is on by default and cheap enough to stay on (the bench
//! publishes the measured on/off overhead); [`EngineConfig::telemetry`]
//! turns every `record_*` into an early return for the zero-cost baseline.
//!
//! [`EngineConfig::telemetry`]: crate::EngineConfig::telemetry

use crate::wal::SyncReason;
use rxview_core::{MaintainReport, PhaseTimings, PlanCache, PlanCacheStats, XmlViewSystem};
use rxview_obs::{fields, Counter, FieldValue, FlightRecorder, Gauge, Histogram, Registry};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Events retained by the engine's flight recorder.
const FLIGHT_CAPACITY: usize = 1024;

/// The one guarded divide every mean/fraction helper shares: `0.0` on an
/// empty (or non-positive) denominator, so a fresh engine's report never
/// emits `NaN` into a display or a bench JSON.
fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Cumulative engine counters and phase histograms, registry-backed. All
/// `record_*` methods are lock-free (the registry lock is taken once, at
/// construction); readers, the shard writers and the committing thread
/// update them concurrently. Phase nanoseconds are summed across
/// threads where noted: per-update `translate` measures total effort, the
/// per-round `*_wall` and publisher-side phases measure wall clock.
#[derive(Debug)]
pub struct EngineStats {
    enabled: bool,
    registry: Arc<Registry>,
    recorder: Arc<FlightRecorder>,
    // --- update lifecycle ---
    submitted: Arc<Counter>,
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    update_latency_ns: Arc<Histogram>,
    // --- commits / snapshots ---
    commits: Arc<Counter>,
    batches: Arc<Counter>,
    max_batch: Arc<Counter>,
    snapshots_published: Arc<Counter>,
    snapshot_reads: Arc<Counter>,
    // --- size of the published state ---
    state_base_rows: Arc<Gauge>,
    state_live_nodes: Arc<Gauge>,
    state_allocated_ids: Arc<Gauge>,
    state_free_ids: Arc<Gauge>,
    state_m_pairs: Arc<Gauge>,
    state_m_words: Arc<Gauge>,
    // --- evaluation ---
    scoped_evals: Arc<Counter>,
    full_evals: Arc<Counter>,
    // --- compiled update plans (ARCHITECTURE.md §8) + translation
    //     templates (§10): the cache Arc plus this engine's baselines for
    //     the plan counters and the template counters ---
    plan_compile_ns: Arc<Histogram>,
    plan_cache: OnceLock<(Arc<PlanCache>, PlanCacheStats, PlanCacheStats)>,
    // --- phase timers (nanoseconds per round, except translate/eval which
    //     are per update and summed across shard threads) ---
    eval_ns: Arc<Histogram>,
    plan_ns: Arc<Histogram>,
    translate_ns: Arc<Histogram>,
    translate_wall_ns: Arc<Histogram>,
    merge_ns: Arc<Histogram>,
    fold_ns: Arc<Histogram>,
    // --- fold sub-spans (the instrumented fold loop, ARCHITECTURE.md §10):
    //     what part of each folded ∆(M,L) pass went to per-node M-rewrite
    //     (ancestor-set recompute) vs L-splice (topo splice/repair + GC) ---
    fold_m_rewrite_ns: Arc<Histogram>,
    fold_l_splice_ns: Arc<Histogram>,
    cone_folds: Arc<Counter>,
    wal_append_ns: Arc<Histogram>,
    fsync_ns: Arc<Histogram>,
    publish_ns: Arc<Histogram>,
    // --- sharded pipeline ---
    rounds: Arc<Counter>,
    global_lane_rounds: Arc<Counter>,
    multi_cone_rounds: Arc<Counter>,
    multi_cone_updates: Arc<Counter>,
    multi_cone_width: Arc<Counter>,
    // --- hot-cone fission (ARCHITECTURE.md §9) ---
    fission_admits: Arc<Counter>,
    fission_denies: Arc<Counter>,
    sub_rounds: Arc<Counter>,
    sub_width: Arc<Counter>,
    adaptive_shards: Arc<Gauge>,
    requeued: Arc<Counter>,
    analyses_reused: Arc<Counter>,
    shard_updates: Vec<Arc<Counter>>,
    shard_busy_ns: Arc<Histogram>,
    shard_idle_ns: Arc<Histogram>,
    // --- pipelined commit (ARCHITECTURE.md §7) ---
    pipeline_inflight: Arc<Gauge>,
    pipeline_admits: Arc<Counter>,
    pipeline_stalls: Arc<Counter>,
    pipeline_fixups: Arc<Counter>,
    pipeline_fixup_evictions: Arc<Counter>,
    overlap_ns: Arc<Histogram>,
    // --- conflict-round widths (both write paths) ---
    width_rounds: Arc<Counter>,
    planned_width: Arc<Counter>,
    realized_width: Arc<Counter>,
    // --- durability ---
    wal_records: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_syncs: Arc<Counter>,
    wal_sync_rounds: Arc<Counter>,
    wal_sync_age: Arc<Counter>,
    checkpoints: Arc<Counter>,
}

impl EngineStats {
    /// Counters for an engine with `n_shards` shard writers (one per-shard
    /// update counter each; at `n_shards == 1` every round runs inline).
    /// With `enabled == false` every `record_*` call is an early return and
    /// the registry stays at zero. A pre-populated `recorder` (recovery
    /// hands one over so replay-progress events survive into the serving
    /// engine) is adopted instead of creating a fresh ring.
    pub(crate) fn new(
        n_shards: usize,
        enabled: bool,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Self {
        let registry = Arc::new(Registry::new());
        let r = &registry;
        EngineStats {
            enabled,
            recorder: recorder.unwrap_or_else(|| Arc::new(FlightRecorder::new(FLIGHT_CAPACITY))),
            submitted: r.counter("updates.submitted"),
            accepted: r.counter("updates.accepted"),
            rejected: r.counter("updates.rejected"),
            update_latency_ns: r.histogram("update.latency_ns"),
            commits: r.counter("commit.calls"),
            batches: r.counter("commit.batches"),
            max_batch: r.counter("commit.max_batch"),
            snapshots_published: r.counter("snapshot.published"),
            snapshot_reads: r.counter("snapshot.reads"),
            state_base_rows: r.gauge("state.base_rows"),
            state_live_nodes: r.gauge("state.live_nodes"),
            state_allocated_ids: r.gauge("state.allocated_ids"),
            state_free_ids: r.gauge("state.free_ids"),
            state_m_pairs: r.gauge("state.m_pairs"),
            state_m_words: r.gauge("state.m_words"),
            scoped_evals: r.counter("eval.scoped"),
            full_evals: r.counter("eval.full"),
            plan_compile_ns: r.histogram("plan.compile_ns"),
            plan_cache: OnceLock::new(),
            eval_ns: r.histogram("phase.eval_ns"),
            plan_ns: r.histogram("phase.plan_ns"),
            translate_ns: r.histogram("phase.translate_ns"),
            translate_wall_ns: r.histogram("phase.translate_wall_ns"),
            merge_ns: r.histogram("phase.merge_ns"),
            fold_ns: r.histogram("phase.fold_ns"),
            fold_m_rewrite_ns: r.histogram("phase.fold_m_rewrite_ns"),
            fold_l_splice_ns: r.histogram("phase.fold_l_splice_ns"),
            cone_folds: r.counter("fold.cone_folds"),
            wal_append_ns: r.histogram("phase.wal_append_ns"),
            fsync_ns: r.histogram("phase.fsync_ns"),
            publish_ns: r.histogram("phase.publish_ns"),
            rounds: r.counter("round.planned"),
            global_lane_rounds: r.counter("round.global_lane"),
            multi_cone_rounds: r.counter("round.multi_cone"),
            multi_cone_updates: r.counter("round.multi_cone_updates"),
            multi_cone_width: r.counter("round.multi_cone_width"),
            fission_admits: r.counter("fission.admits"),
            fission_denies: r.counter("fission.denies"),
            sub_rounds: r.counter("round.sub_rounds"),
            sub_width: r.counter("round.sub_width"),
            adaptive_shards: r.gauge("router.adaptive_shards"),
            requeued: r.counter("round.requeued"),
            analyses_reused: r.counter("round.analyses_reused"),
            shard_updates: (0..n_shards.max(1))
                .map(|s| r.counter(&format!("shard.updates.{s:02}")))
                .collect(),
            shard_busy_ns: r.histogram("shard.busy_ns"),
            shard_idle_ns: r.histogram("shard.idle_ns"),
            pipeline_inflight: r.gauge("pipeline.inflight"),
            pipeline_admits: r.counter("pipeline.admits"),
            pipeline_stalls: r.counter("pipeline.stalls"),
            pipeline_fixups: r.counter("pipeline.fixups"),
            pipeline_fixup_evictions: r.counter("pipeline.fixup_evictions"),
            overlap_ns: r.histogram("phase.overlap_ns"),
            width_rounds: r.counter("round.width_rounds"),
            planned_width: r.counter("round.planned_width"),
            realized_width: r.counter("round.realized_width"),
            wal_records: r.counter("wal.records"),
            wal_bytes: r.counter("wal.bytes"),
            wal_syncs: r.counter("wal.syncs"),
            wal_sync_rounds: r.counter("wal.sync_reason.rounds"),
            wal_sync_age: r.counter("wal.sync_reason.age"),
            checkpoints: r.counter("checkpoint.completed"),
            registry,
        }
    }

    /// Whether telemetry recording is on (the [`crate::EngineConfig::telemetry`]
    /// flag this stats object was built under).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The metric registry backing these stats — for exporters and ad-hoc
    /// inspection ([`rxview_obs::text_report`] renders it for humans).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The engine's flight recorder (bounded ring of structured events).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Records one flight-recorder event (no-op when telemetry is off).
    pub(crate) fn event(&self, kind: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        if self.enabled {
            self.recorder.record(kind, fields);
        }
    }

    /// A round (or batch) failed mid-commit: record the failure event and,
    /// if `RXVIEW_FLIGHT_DUMP` names a file, append the retained flight
    /// window there — the post-mortem a crash-looped engine leaves behind.
    pub(crate) fn record_round_failure(&self, reason: &str, updates: usize) {
        if !self.enabled {
            return;
        }
        self.recorder
            .record("round.failed", fields![reason: reason, updates: updates]);
        if let Some(path) = std::env::var_os("RXVIEW_FLIGHT_DUMP") {
            use std::io::Write as _;
            let dumped = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| f.write_all(self.recorder.dump_jsonl().as_bytes()));
            if let Err(e) = dumped {
                eprintln!("rxview: flight dump to {path:?} failed: {e}");
            }
        }
    }

    /// Adopts the engine's (possibly shared) plan cache for reporting:
    /// snapshots its counters as this engine's baseline — several engines
    /// built from clones of one system share the `Arc`'d cache, so a report
    /// must subtract what other engines (or warmup) already accounted — and
    /// installs the compile-time histogram as the cache's observer (first
    /// engine on a cache wins; the histogram is per-engine either way
    /// because compiles after attach land here). With telemetry off this is
    /// a no-op and the report's plan-cache fields stay zero, matching every
    /// other counter.
    pub(crate) fn attach_plan_cache(&self, cache: Arc<PlanCache>) {
        if !self.enabled {
            return;
        }
        let hist = Arc::clone(&self.plan_compile_ns);
        cache.set_observer(Box::new(move |d| hist.record_duration(d)));
        let baseline = cache.stats();
        // The template registry hangs off the same cache; baseline its
        // counters too so a report shows only this engine's probes (a
        // registry compiled by an earlier engine on the shared cache
        // reports zero compiles here, correctly).
        let template_baseline = cache.template_stats();
        let _ = self.plan_cache.set((cache, baseline, template_baseline));
    }

    pub(crate) fn record_round(&self) {
        if self.enabled {
            self.rounds.incr();
        }
    }

    pub(crate) fn record_global_lane_round(&self) {
        if self.enabled {
            self.global_lane_rounds.incr();
        }
    }

    /// Records one commit round that admitted `updates` multi-cone
    /// (`//`-headed or wildcard-rooted) updates and realized `width` merged
    /// translations — the direct observable of the type-indexed prefilter:
    /// `//` traffic riding shared rounds instead of one-update ⊤ rounds.
    pub(crate) fn record_multi_cone_round(&self, updates: usize, width: usize) {
        if !self.enabled {
            return;
        }
        self.multi_cone_rounds.incr();
        self.multi_cone_updates.add(updates as u64);
        self.multi_cone_width.add(width as u64);
    }

    /// An update admitted into a round whose anchor cone it *shares* with
    /// an earlier admission, because their realized sub-cone footprints
    /// (pinned keys, touched edges, extension slots) are disjoint — the
    /// hot-cone fission path (ARCHITECTURE.md §9).
    pub(crate) fn record_fission_admit(&self) {
        if self.enabled {
            self.fission_admits.incr();
        }
    }

    /// A fission-eligible update that shared an anchor cone with the round
    /// but was denied because its sub-cone footprint overlaps an earlier
    /// admission's — the pair genuinely touches the same nodes or the same
    /// extension slot and must serialize across rounds.
    pub(crate) fn record_fission_deny(&self) {
        if self.enabled {
            self.fission_denies.incr();
        }
    }

    /// One committed round's fold structure: `groups` maintenance groups
    /// were folded (co-admitted updates under one cone coalesce to a single
    /// ∆(M,L) pass) covering `updates` merged translations. `updates /
    /// groups` > 1 is the publisher-side observable of fission: several
    /// updates riding one fold.
    pub(crate) fn record_sub_rounds(&self, groups: usize, updates: usize) {
        if !self.enabled {
            return;
        }
        self.sub_rounds.add(groups as u64);
        self.sub_width.add(updates as u64);
    }

    /// The adaptive fan-out controller's latest decision: how many shards
    /// the next round will actually be planned across (≤ the configured
    /// pool size; see `AdaptiveFanout`).
    pub(crate) fn record_adaptive_shards(&self, n: usize) {
        if self.enabled {
            self.adaptive_shards.set(n as i64);
        }
    }

    pub(crate) fn record_requeued(&self) {
        if self.enabled {
            self.requeued.incr();
        }
    }

    pub(crate) fn record_analysis_reused(&self) {
        if self.enabled {
            self.analyses_reused.incr();
        }
    }

    pub(crate) fn record_shard_updates(&self, shard: usize, n: usize) {
        if !self.enabled {
            return;
        }
        if let Some(c) = self.shard_updates.get(shard) {
            c.add(n as u64);
        }
    }

    /// One shard's share of a round: `busy` is the time its worker spent
    /// translating, `idle` is the *starvation* gap between the worker
    /// finishing its previous round of this commit and the next round
    /// being dispatched to it (zero for a shard's first round). With the
    /// pipeline at depth 1 the gap is the publisher's whole serial
    /// section; a filled pipeline drives it toward zero because round k+1
    /// is dispatched while round k's serial section runs. Dispatch→pickup
    /// delay is excluded — that is CPU scheduling contention, not
    /// publisher-induced idleness. Only shards that received jobs report;
    /// a shard skipped by the round entirely is not "idle", it is unused.
    pub(crate) fn record_shard_round(&self, busy: Duration, idle: Duration) {
        if !self.enabled {
            return;
        }
        self.shard_busy_ns.record_duration(busy);
        self.shard_idle_ns.record_duration(idle);
    }

    /// Current number of dispatched-but-unmerged rounds (the pipeline
    /// occupancy gauge).
    pub(crate) fn record_pipeline_inflight(&self, inflight: usize) {
        if self.enabled {
            self.pipeline_inflight.set(inflight as i64);
        }
    }

    /// A round was dispatched to shard translation while at least one
    /// older round was still unmerged — true pipeline overlap.
    pub(crate) fn record_pipeline_admit(&self) {
        if self.enabled {
            self.pipeline_admits.incr();
        }
    }

    /// A planning pass admitted nothing because everything scanned
    /// conflicts with in-flight rounds: the pipeline must drain one before
    /// lookahead planning can proceed.
    pub(crate) fn record_pipeline_stall(&self) {
        if self.enabled {
            self.pipeline_stalls.incr();
        }
    }

    /// A staged plan was re-checked against footprints published after it
    /// was formed (the router's footprint-diff fixup), evicting `evicted`
    /// updates back to the queue (normally zero — lookahead plans are
    /// disjoint from in-flight work by construction).
    pub(crate) fn record_pipeline_fixup(&self, evicted: usize) {
        if !self.enabled {
            return;
        }
        self.pipeline_fixups.incr();
        self.pipeline_fixup_evictions.add(evicted as u64);
    }

    /// One overlapped round's serial section (merge→publish span that ran
    /// while younger rounds were translating on the shard pool).
    pub(crate) fn record_overlap(&self, d: Duration) {
        if self.enabled {
            self.overlap_ns.record_duration(d);
        }
    }

    /// Records one conflict round's *planned* width (updates admitted by
    /// conflict analysis) and *realized* width (translations actually merged
    /// — planned minus rejects and requeues), once per round on either
    /// executor. Round widening is the structural lever of group commit, so
    /// both are first-class observables.
    pub(crate) fn record_round_width(&self, planned: usize, realized: usize) {
        if !self.enabled {
            return;
        }
        self.width_rounds.incr();
        self.planned_width.add(planned as u64);
        self.realized_width.add(realized as u64);
    }

    pub(crate) fn record_submitted(&self) {
        if self.enabled {
            self.submitted.incr();
        }
    }

    /// One update's outcome delivered to its ticket; `submitted_at` (stamped
    /// at admission when telemetry is on) closes the end-to-end
    /// admission→ack latency sample.
    pub(crate) fn record_outcome(&self, accepted: bool, submitted_at: Option<Instant>) {
        if !self.enabled {
            return;
        }
        if accepted {
            &self.accepted
        } else {
            &self.rejected
        }
        .incr();
        if let Some(t0) = submitted_at {
            self.update_latency_ns.record_duration(t0.elapsed());
        }
    }

    pub(crate) fn record_commit(&self) {
        if self.enabled {
            self.commits.incr();
        }
    }

    pub(crate) fn record_batch(&self, size: usize) {
        if !self.enabled {
            return;
        }
        self.batches.incr();
        self.max_batch.fetch_max(size as u64);
    }

    pub(crate) fn record_snapshot_published(&self) {
        if self.enabled {
            self.snapshots_published.incr();
        }
    }

    /// The size of the state an epoch serves: rows of `I`, live nodes of
    /// the view, the interner's id space and how much of it is free — a
    /// collected node's id is handed out again, so the id space stops at
    /// the largest view served plus a round's allocations — and the pairs of
    /// `M` with the block words both its directions store them in, whose
    /// ratio falls if recycling ever scatters subtrees over the id space.
    /// All are counts the structures already keep.
    pub(crate) fn record_state(&self, sys: &XmlViewSystem) {
        if self.enabled {
            let genid = sys.view().dag().genid();
            self.state_base_rows.set(sys.base().total_rows() as i64);
            self.state_live_nodes.set(genid.n_live() as i64);
            self.state_allocated_ids.set(genid.n_allocated() as i64);
            self.state_free_ids.set(genid.n_free() as i64);
            self.state_m_pairs.set(sys.reach().n_pairs() as i64);
            self.state_m_words.set(sys.reach().n_words() as i64);
        }
    }

    pub(crate) fn record_snapshot_read(&self) {
        if self.enabled {
            self.snapshot_reads.incr();
        }
    }

    /// One path evaluation, counted by how it ran
    /// ([`rxview_core::Evaluated::scope_nodes`]): over a scope, or — `None`
    /// — over all of `L`.
    pub(crate) fn record_eval(&self, scope_nodes: Option<usize>, d: Duration) {
        if !self.enabled {
            return;
        }
        if scope_nodes.is_some() {
            &self.scoped_evals
        } else {
            &self.full_evals
        }
        .incr();
        self.eval_ns.record_duration(d);
    }

    pub(crate) fn record_translate(&self, d: Duration) {
        if self.enabled {
            self.translate_ns.record_duration(d);
        }
    }

    /// One round's translation *wall clock*: first shard pickup→last bundle
    /// on a sharded round, the apply loop on an inline round. The
    /// per-update [`EngineStats::record_translate`] sums effort across
    /// threads; this is the round's critical-path view of the same phase.
    pub(crate) fn record_translate_wall(&self, d: Duration) {
        if self.enabled {
            self.translate_wall_ns.record_duration(d);
        }
    }

    /// One round's merge phase: cloning the working state, then re-interning
    /// and applying shard translations to it (sharded rounds only; an inline
    /// round applies as it translates and records no merge).
    pub(crate) fn record_merge(&self, d: Duration) {
        if self.enabled {
            self.merge_ns.record_duration(d);
        }
    }

    /// One folded ∆(M,L) maintenance pass: its wall clock plus the
    /// sub-span attribution the fold loop measured itself — per-node
    /// M-rewrite time, L-splice/GC time, and how many per-cone folds the
    /// pass coalesced (`MaintainReport::cone_folds`).
    pub(crate) fn record_maintain(&self, d: Duration, m: &MaintainReport) {
        if !self.enabled {
            return;
        }
        self.fold_ns.record_duration(d);
        self.fold_m_rewrite_ns
            .record_duration(Duration::from_nanos(m.m_rewrite_ns));
        self.fold_l_splice_ns
            .record_duration(Duration::from_nanos(m.l_splice_ns));
        self.cone_folds.add(m.cone_folds);
    }

    pub(crate) fn record_plan(&self, d: Duration) {
        if self.enabled {
            self.plan_ns.record_duration(d);
        }
    }

    pub(crate) fn record_publish(&self, d: Duration) {
        if self.enabled {
            self.publish_ns.record_duration(d);
        }
    }

    /// One replay-log record appended: `bytes` on disk, the write and fsync
    /// portions of the append, and — when this append fsynced — which
    /// watermark tripped it.
    pub(crate) fn record_wal_append(
        &self,
        bytes: u64,
        write: Duration,
        sync: Duration,
        reason: Option<SyncReason>,
    ) {
        if !self.enabled {
            return;
        }
        self.wal_records.incr();
        self.wal_bytes.add(bytes);
        self.wal_append_ns.record_duration(write);
        if let Some(reason) = reason {
            self.wal_syncs.incr();
            self.fsync_ns.record_duration(sync);
            match reason {
                SyncReason::RoundWatermark => self.wal_sync_rounds.incr(),
                SyncReason::AgeWatermark => self.wal_sync_age.incr(),
                SyncReason::Policy => {}
            }
        }
    }

    /// One checkpoint made durable.
    pub(crate) fn record_checkpoint(&self) {
        if self.enabled {
            self.checkpoints.incr();
        }
    }

    /// A consistent-enough point-in-time copy of all counters.
    pub fn report(&self) -> EngineReport {
        let ns = |h: &Histogram| Duration::from_nanos(h.sum());
        let plans = self
            .plan_cache
            .get()
            .map(|(cache, base, _)| cache.stats().delta_since(base))
            .unwrap_or_default();
        let templates = self
            .plan_cache
            .get()
            .map(|(cache, _, tbase)| cache.template_stats().delta_since(tbase))
            .unwrap_or_default();
        EngineReport {
            submitted: self.submitted.get(),
            accepted: self.accepted.get(),
            rejected: self.rejected.get(),
            commits: self.commits.get(),
            batches: self.batches.get(),
            snapshots_published: self.snapshots_published.get(),
            snapshot_reads: self.snapshot_reads.get(),
            base_rows: self.state_base_rows.get().max(0) as u64,
            live_nodes: self.state_live_nodes.get().max(0) as u64,
            allocated_ids: self.state_allocated_ids.get().max(0) as u64,
            free_ids: self.state_free_ids.get().max(0) as u64,
            m_pairs: self.state_m_pairs.get().max(0) as u64,
            m_words: self.state_m_words.get().max(0) as u64,
            scoped_evals: self.scoped_evals.get(),
            full_evals: self.full_evals.get(),
            plan_cache: plans,
            template_cache: templates,
            plan_compile: ns(&self.plan_compile_ns),
            max_batch: self.max_batch.get(),
            phases: PhaseTimings {
                eval: ns(&self.eval_ns),
                translate: ns(&self.translate_ns),
                maintain: ns(&self.fold_ns),
            },
            plan: ns(&self.plan_ns),
            translate_wall: ns(&self.translate_wall_ns),
            merge: ns(&self.merge_ns),
            fold_m_rewrite: ns(&self.fold_m_rewrite_ns),
            fold_l_splice: ns(&self.fold_l_splice_ns),
            cone_folds: self.cone_folds.get(),
            wal_append: ns(&self.wal_append_ns),
            fsync: ns(&self.fsync_ns),
            publish: ns(&self.publish_ns),
            shard_busy: ns(&self.shard_busy_ns),
            shard_idle: ns(&self.shard_idle_ns),
            overlap: ns(&self.overlap_ns),
            pipeline_admits: self.pipeline_admits.get(),
            pipeline_stalls: self.pipeline_stalls.get(),
            pipeline_fixups: self.pipeline_fixups.get(),
            pipeline_fixup_evictions: self.pipeline_fixup_evictions.get(),
            latency: self.update_latency_ns.snapshot(),
            rounds: self.rounds.get(),
            global_lane_rounds: self.global_lane_rounds.get(),
            multi_cone_rounds: self.multi_cone_rounds.get(),
            multi_cone_updates: self.multi_cone_updates.get(),
            multi_cone_width: self.multi_cone_width.get(),
            fission_admits: self.fission_admits.get(),
            fission_denies: self.fission_denies.get(),
            sub_rounds: self.sub_rounds.get(),
            sub_width: self.sub_width.get(),
            adaptive_shards: self.adaptive_shards.get().max(0) as u64,
            requeued: self.requeued.get(),
            analyses_reused: self.analyses_reused.get(),
            shard_updates: self.shard_updates.iter().map(|c| c.get()).collect(),
            width_rounds: self.width_rounds.get(),
            planned_width: self.planned_width.get(),
            realized_width: self.realized_width.get(),
            wal_records: self.wal_records.get(),
            wal_bytes: self.wal_bytes.get(),
            wal_syncs: self.wal_syncs.get(),
            wal_sync_rounds: self.wal_sync_rounds.get(),
            wal_sync_age: self.wal_sync_age.get(),
            checkpoints: self.checkpoints.get(),
        }
    }
}

/// A point-in-time view of [`EngineStats`].
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Updates admitted to the queue.
    pub submitted: u64,
    /// Updates accepted by a commit.
    pub accepted: u64,
    /// Updates rejected by a commit.
    pub rejected: u64,
    /// `commit_pending` rounds that found work.
    pub commits: u64,
    /// Conflict-free batches committed.
    pub batches: u64,
    /// Snapshots published (= epochs advanced).
    pub snapshots_published: u64,
    /// Snapshot handles handed to readers.
    pub snapshot_reads: u64,
    /// Rows of `I` in the latest published epoch.
    pub base_rows: u64,
    /// Live nodes of the view in the latest published epoch.
    pub live_nodes: u64,
    /// Size of the node-id space in the latest published epoch: live ids
    /// plus free ones.
    pub allocated_ids: u64,
    /// Ids of that space waiting to be handed out again.
    pub free_ids: u64,
    /// Pairs of `M` in the latest published epoch.
    pub m_pairs: u64,
    /// 32-id block words `M` stores those pairs in, both directions: each
    /// pair is one id in an `anc` run and one in a `desc` run.
    pub m_words: u64,
    /// Evaluations the commit paths ran over a scope (a projection of `L`
    /// onto the path's anchor cones) — counted from what ran, on every
    /// executor: the planner's dry run, the shards, the inline fallback.
    pub scoped_evals: u64,
    /// Evaluations that ran the full pass over `L`: a path nothing bounds,
    /// or a cone union too large to be worth projecting — the first thing
    /// to look at when an update was slow.
    pub full_evals: u64,
    /// Plan-cache counters as *this engine's delta* since it attached to
    /// its (possibly shared) cache: hits, misses, evictions, compiles, and
    /// total compile nanoseconds (ARCHITECTURE.md §8). All zero when
    /// telemetry is off.
    pub plan_cache: PlanCacheStats,
    /// Translation-template registry counters as this engine's delta since
    /// attach (ARCHITECTURE.md §10): `hits` counts template instantiations,
    /// `compiles` and `compile_ns` the one-time registry build. All zero
    /// when telemetry is off.
    pub template_cache: PlanCacheStats,
    /// Total plan compile time observed by this engine's compile-time
    /// histogram (post-attach compiles on this cache).
    pub plan_compile: Duration,
    /// Largest batch committed.
    pub max_batch: u64,
    /// Cumulative per-phase time — the Fig.11 constituents (a) evaluation,
    /// (b) translation + execution, (c) maintenance — across all commits.
    /// `translate` sums per-update effort across shard threads; see
    /// [`EngineReport::translate_wall`] for the critical-path view.
    pub phases: PhaseTimings,
    /// Time spent in conflict analysis / round planning (the `plan` phase).
    pub plan: Duration,
    /// Translation wall clock per round (first shard pickup→last bundle; the
    /// apply loop on an inline round).
    pub translate_wall: Duration,
    /// Time merging shard translations into the round's working state
    /// (sharded rounds only — an inline round adds nothing here: its apply
    /// loop *is* the translate phase).
    pub merge: Duration,
    /// Fold sub-span: time the folded ∆(M,L) passes spent rewriting
    /// reachability (per-node ancestor-set recompute — ∆M steps (a)/(b) on
    /// insert, the Fig.8 ancestor rewrite on delete). Part of
    /// `phases.maintain`, not an extra phase.
    pub fold_m_rewrite: Duration,
    /// Fold sub-span: time the folded ∆(M,L) passes spent splicing the
    /// topological order (fresh-interval splice + L-repair on insert,
    /// unreferenced-node GC cascade on delete). Part of `phases.maintain`.
    pub fold_l_splice: Duration,
    /// Per-cone ∆(M,L) fold invocations summed across all folded passes
    /// (each `fold_maintenance` call contributes its coalesced group
    /// count) — the denominator for mean per-cone fold cost.
    pub cone_folds: u64,
    /// Time writing replay-log records (fsync excluded).
    pub wal_append: Duration,
    /// Time fsyncing the replay log.
    pub fsync: Duration,
    /// Time spent cloning + publishing snapshots.
    pub publish: Duration,
    /// Total time shard workers spent translating (shards that received
    /// jobs only).
    pub shard_busy: Duration,
    /// Total time shard workers sat between consecutive rounds of a
    /// commit (the gap from finishing one round to picking up the next;
    /// zero for each shard's first round). This is the time pipelining
    /// reclaims: at depth 1 the gap is the publisher's serial section, at
    /// depth ≥ 2 the next round is already dispatched while the serial
    /// section runs.
    pub shard_idle: Duration,
    /// Total serial-section time (merge→publish) that ran *overlapped* —
    /// while at least one younger round was translating on the shard pool.
    /// Zero at pipeline depth 1.
    pub overlap: Duration,
    /// Rounds dispatched to shard translation while an older round was
    /// still unmerged (true pipeline overlap events).
    pub pipeline_admits: u64,
    /// Planning passes that admitted nothing because everything scanned
    /// conflicts with in-flight rounds.
    pub pipeline_stalls: u64,
    /// Staged plans re-checked against footprints published after they
    /// were formed (the router's footprint-diff fixup path).
    pub pipeline_fixups: u64,
    /// Updates evicted back to the queue by those fixups (normally zero —
    /// lookahead plans are disjoint from in-flight work by construction).
    pub pipeline_fixup_evictions: u64,
    /// End-to-end admission→ack latency distribution, nanoseconds.
    pub latency: rxview_obs::HistogramSnapshot,
    /// Commit rounds planned by the router (either executor).
    pub rounds: u64,
    /// One-update rounds of a ⊤-footprint update (run inline on a drained
    /// pipeline at any shard count). Before the type-indexed `//`
    /// prefilter this counted *every* leading-`//` update; now it counts
    /// only genuinely untypeable paths.
    pub global_lane_rounds: u64,
    /// Commit rounds that admitted at least one multi-cone (`//`-headed or
    /// wildcard-rooted) update — `//` traffic riding ordinary shardable
    /// rounds.
    pub multi_cone_rounds: u64,
    /// Multi-cone updates admitted into conflict rounds. Like
    /// [`EngineReport::planned_width`] this counts *admissions*: an update
    /// requeued at merge time and re-admitted next round counts once per
    /// admission.
    pub multi_cone_updates: u64,
    /// Total realized width of the multi-cone rounds (see
    /// [`EngineReport::mean_multi_cone_width`]).
    pub multi_cone_width: u64,
    /// Updates admitted into a round *sharing* an anchor cone with an
    /// earlier admission because their sub-cone footprints are disjoint
    /// (hot-cone fission, ARCHITECTURE.md §9).
    pub fission_admits: u64,
    /// Fission-eligible updates denied co-admission because their sub-cone
    /// footprint overlaps an earlier admission's under the same cone.
    pub fission_denies: u64,
    /// Maintenance fold groups committed across all measured rounds:
    /// co-admitted updates under one cone coalesce to a single ∆(M,L)
    /// fold, so with fission this runs *below* `realized_width`.
    pub sub_rounds: u64,
    /// Total merged translations covered by those fold groups (the
    /// numerator of [`EngineReport::mean_sub_width`]).
    pub sub_width: u64,
    /// The adaptive fan-out controller's latest decision — shards the most
    /// recent round was planned across (= configured pool size when the
    /// controller is off or no sharded round has run).
    pub adaptive_shards: u64,
    /// Updates sent back to the router for a later round (cross-update
    /// coupling or realized-write overlap detected at merge time; inline
    /// rounds never requeue).
    pub requeued: u64,
    /// Deferred-update conflict analyses reused across rounds instead of
    /// recomputed.
    pub analyses_reused: u64,
    /// Updates *applied* per shard writer (whose translation the merge
    /// applied — rejects and requeues are not counted). Inline rounds
    /// involve no shard writer and add nothing: a one-shard engine reports
    /// one always-zero entry.
    pub shard_updates: Vec<u64>,
    /// Conflict rounds measured for width: every planned round that reached
    /// the serial tail, on either executor.
    pub width_rounds: u64,
    /// Total updates *admitted* into conflict rounds by the analysis.
    pub planned_width: u64,
    /// Total translations actually merged (planned minus rejects/requeues).
    pub realized_width: u64,
    /// Replay-log records appended (= epochs made durable; 0 when
    /// durability is off).
    pub wal_records: u64,
    /// Replay-log bytes written (frames included).
    pub wal_bytes: u64,
    /// Appends that fsynced under the durability policy.
    pub wal_syncs: u64,
    /// Fsyncs tripped by the [`crate::Durability::GroupCommit`] round
    /// watermark.
    pub wal_sync_rounds: u64,
    /// Fsyncs tripped by the [`crate::Durability::GroupCommit`] age
    /// watermark.
    pub wal_sync_age: u64,
    /// Checkpoints made durable (initial + background + manual).
    pub checkpoints: u64,
}

/// One run's commit wall clock attributed to the phase taxonomy — the
/// fractions are computed over the sum of the measured phases, so they sum
/// to 1 whenever any phase time was recorded at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Conflict analysis / round planning.
    pub plan: Duration,
    /// Translation wall clock (the parallel section of a sharded round).
    pub translate: Duration,
    /// Merging shard translations into the working state (sharded rounds
    /// only).
    pub merge: Duration,
    /// The folded ∆(M,L) maintenance pass.
    pub fold: Duration,
    /// Replay-log record writes.
    pub wal_append: Duration,
    /// Replay-log fsyncs.
    pub fsync: Duration,
    /// Snapshot clone + publication.
    pub publish: Duration,
    /// Serial-section time that ran overlapped with younger rounds'
    /// translation (pipelined commit). **Not** an eighth phase: every
    /// overlap nanosecond is already counted inside merge/fold/wal/fsync/
    /// publish, so it is excluded from [`PhaseBreakdown::total`] and
    /// [`PhaseBreakdown::fractions`]; see
    /// [`PhaseBreakdown::overlap_fraction`].
    pub overlap: Duration,
}

impl PhaseBreakdown {
    /// Sum of all measured phases (the denominator of every fraction).
    pub fn total(&self) -> Duration {
        self.plan
            + self.translate
            + self.merge
            + self.fold
            + self.wal_append
            + self.fsync
            + self.publish
    }

    /// `(name, seconds, fraction-of-total)` per phase, in pipeline order.
    /// Fractions sum to 1 (up to rounding) when any time was measured.
    pub fn fractions(&self) -> [(&'static str, f64, f64); 7] {
        let total = self.total().as_secs_f64();
        let f = |d: Duration| (d.as_secs_f64(), ratio(d.as_secs_f64(), total));
        let [plan, translate, merge, fold, wal_append, fsync, publish] = [
            self.plan,
            self.translate,
            self.merge,
            self.fold,
            self.wal_append,
            self.fsync,
            self.publish,
        ]
        .map(f);
        [
            ("plan", plan.0, plan.1),
            ("translate", translate.0, translate.1),
            ("merge", merge.0, merge.1),
            ("fold", fold.0, fold.1),
            ("wal_append", wal_append.0, wal_append.1),
            ("fsync", fsync.0, fsync.1),
            ("publish", publish.0, publish.1),
        ]
    }

    /// Fraction of the phase total spent in the publisher's serialized
    /// section (everything after translation: merge + fold + wal + fsync +
    /// publish) — the Amdahl ceiling on shard scaling that motivates
    /// pipelined epoch commit.
    pub fn publisher_serial_fraction(&self) -> f64 {
        let serial = self.merge + self.fold + self.wal_append + self.fsync + self.publish;
        ratio(serial.as_secs_f64(), self.total().as_secs_f64())
    }

    /// Fraction of the publisher's serial section that ran *overlapped*
    /// with younger rounds' shard translation — the pipelined-commit
    /// payoff: 0.0 at depth 1 (and for inline rounds), approaching
    /// 1.0 when the pipeline keeps a round in flight through every serial
    /// section. The overlapped span is measured wall-to-wall per round and
    /// so includes a sliver of bookkeeping (result sorting, ticket
    /// resolution) outside the phase buckets in the denominator; the ratio
    /// is clamped so fully-overlapped runs read exactly 1.0.
    pub fn overlap_fraction(&self) -> f64 {
        let serial = self.merge + self.fold + self.wal_append + self.fsync + self.publish;
        ratio(self.overlap.as_secs_f64(), serial.as_secs_f64()).min(1.0)
    }
}

impl EngineReport {
    /// Average committed batch size.
    pub fn mean_batch(&self) -> f64 {
        ratio((self.accepted + self.rejected) as f64, self.batches as f64)
    }

    /// Average *planned* conflict-round width (admitted updates per round).
    pub fn mean_planned_width(&self) -> f64 {
        ratio(self.planned_width as f64, self.width_rounds as f64)
    }

    /// Average *realized* conflict-round width (merged updates per round).
    pub fn mean_realized_width(&self) -> f64 {
        ratio(self.realized_width as f64, self.width_rounds as f64)
    }

    /// Average realized width of the rounds that carried `//`-headed or
    /// wildcard-rooted traffic — the headline of the type-indexed
    /// prefilter: > 1 means such updates commit in shared rounds instead of
    /// singleton ⊤ rounds.
    pub fn mean_multi_cone_width(&self) -> f64 {
        ratio(self.multi_cone_width as f64, self.multi_cone_rounds as f64)
    }

    /// Average merged translations per maintenance fold group (the mean
    /// *sub-round width*): 1.0 means every update folded alone; > 1 means
    /// hot-cone fission coalesced same-cone co-admissions into shared
    /// folds. 0.0 when no round was measured.
    pub fn mean_sub_width(&self) -> f64 {
        ratio(self.sub_width as f64, self.sub_rounds as f64)
    }

    /// Fraction of shard-round time spent starved (per worker, the gap
    /// between finishing one round and the next round's *dispatch*):
    /// `idle / (busy + idle)`, 0.0 when no sharded round ran. High values
    /// mean workers have no work available while the publisher's serial
    /// section runs — exactly what a deeper pipeline reclaims by
    /// dispatching round k+1 before round k's serial section completes.
    pub fn shard_idle_fraction(&self) -> f64 {
        ratio(
            self.shard_idle.as_secs_f64(),
            (self.shard_busy + self.shard_idle).as_secs_f64(),
        )
    }

    /// This report's wall clock attributed to the commit phase taxonomy.
    /// `translate` is the wall-clock view ([`EngineReport::translate_wall`]);
    /// the summed per-update effort stays in `phases.translate`.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            plan: self.plan,
            translate: self.translate_wall,
            merge: self.merge,
            fold: self.phases.maintain,
            wal_append: self.wal_append,
            fsync: self.fsync,
            publish: self.publish,
            overlap: self.overlap,
        }
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "updates: {} submitted, {} accepted, {} rejected",
            self.submitted, self.accepted, self.rejected
        )?;
        writeln!(
            f,
            "commits: {} ({} batches, mean size {:.1}, max {})",
            self.commits,
            self.batches,
            self.mean_batch(),
            self.max_batch
        )?;
        writeln!(
            f,
            "snapshots: {} published, {} reader acquisitions",
            self.snapshots_published, self.snapshot_reads
        )?;
        writeln!(
            f,
            "state: {} base rows, node ids {} allocated / {} live / {} free, \
             M {} pairs in {} words ({:.2} ids per word)",
            self.base_rows,
            self.allocated_ids,
            self.live_nodes,
            self.free_ids,
            self.m_pairs,
            self.m_words,
            (2 * self.m_pairs) as f64 / self.m_words.max(1) as f64
        )?;
        writeln!(
            f,
            "evals: {} scoped, {} full",
            self.scoped_evals, self.full_evals
        )?;
        if self.plan_cache.hits + self.plan_cache.misses > 0 {
            writeln!(
                f,
                "plan cache: {} hits, {} misses ({:.1}% hit rate), {} compiles in {:?}, {} evictions",
                self.plan_cache.hits,
                self.plan_cache.misses,
                100.0 * self.plan_cache.hit_rate(),
                self.plan_cache.compiles,
                Duration::from_nanos(self.plan_cache.compile_ns),
                self.plan_cache.evictions
            )?;
        }
        if self.template_cache.hits + self.template_cache.compiles > 0 {
            writeln!(
                f,
                "template cache: {} instantiations ({:.1}% hit rate), {} edge templates compiled in {:?}",
                self.template_cache.hits,
                100.0 * self.template_cache.hit_rate(),
                self.template_cache.compiles,
                Duration::from_nanos(self.template_cache.compile_ns),
            )?;
        }
        writeln!(
            f,
            "phase time: eval {:?}, translate {:?} ({:?} wall), maintain {:?}, plan {:?}, merge {:?}, publish {:?}",
            self.phases.eval,
            self.phases.translate,
            self.translate_wall,
            self.phases.maintain,
            self.plan,
            self.merge,
            self.publish
        )?;
        if self.cone_folds > 0 {
            writeln!(
                f,
                "fold detail: {} cone folds, M-rewrite {:?}, L-splice {:?}",
                self.cone_folds, self.fold_m_rewrite, self.fold_l_splice
            )?;
        }
        if self.latency.count > 0 {
            writeln!(
                f,
                "latency: {} acks, p50 {:?}, p95 {:?}, p99 {:?}, max {:?}",
                self.latency.count,
                Duration::from_nanos(self.latency.quantile(0.5)),
                Duration::from_nanos(self.latency.quantile(0.95)),
                Duration::from_nanos(self.latency.quantile(0.99)),
                Duration::from_nanos(self.latency.max),
            )?;
        }
        writeln!(
            f,
            "rounds: {} measured, mean width {:.1} planned / {:.1} realized",
            self.width_rounds,
            self.mean_planned_width(),
            self.mean_realized_width()
        )?;
        if self.multi_cone_rounds > 0 || self.global_lane_rounds > 0 {
            writeln!(
                f,
                "`//` traffic: {} multi-cone updates over {} rounds (mean realized width {:.1}), {} global-lane rounds",
                self.multi_cone_updates,
                self.multi_cone_rounds,
                self.mean_multi_cone_width(),
                self.global_lane_rounds
            )?;
        }
        if self.fission_admits > 0 || self.fission_denies > 0 {
            writeln!(
                f,
                "fission: {} co-admits, {} denies, {} fold groups (mean sub-width {:.1}), adaptive fan-out {}",
                self.fission_admits,
                self.fission_denies,
                self.sub_rounds,
                self.mean_sub_width(),
                self.adaptive_shards
            )?;
        }
        if self.shard_updates.len() > 1 || self.rounds > 0 {
            writeln!(
                f,
                "shards: {:?} updates/shard, {} rounds, {} via global lane, {} requeued, {} analyses reused, {:.0}% idle",
                self.shard_updates, self.rounds, self.global_lane_rounds, self.requeued,
                self.analyses_reused, 100.0 * self.shard_idle_fraction()
            )?;
        }
        if self.pipeline_admits > 0 || self.pipeline_stalls > 0 || self.pipeline_fixups > 0 {
            writeln!(
                f,
                "pipeline: {} overlapped admits, {} stalls, {} fixups ({} evictions), {:.0}% of serial section overlapped",
                self.pipeline_admits, self.pipeline_stalls, self.pipeline_fixups,
                self.pipeline_fixup_evictions,
                100.0 * self.phase_breakdown().overlap_fraction()
            )?;
        }
        if self.wal_records > 0 || self.checkpoints > 0 {
            writeln!(
                f,
                "durability: {} log records ({} bytes, {} fsyncs: {} round-watermark, {} age-watermark), {} checkpoints, append {:?}, fsync {:?}",
                self.wal_records, self.wal_bytes, self.wal_syncs, self.wal_sync_rounds,
                self.wal_sync_age, self.checkpoints, self.wal_append, self.fsync
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_guards_empty_denominators() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }

    #[test]
    fn fresh_report_means_are_zero_not_nan() {
        let stats = EngineStats::new(4, true, None);
        let report = stats.report();
        for v in [
            report.mean_batch(),
            report.mean_planned_width(),
            report.mean_realized_width(),
            report.mean_multi_cone_width(),
            report.shard_idle_fraction(),
            report.phase_breakdown().publisher_serial_fraction(),
        ] {
            assert_eq!(v, 0.0);
            assert!(v.is_finite());
        }
    }

    #[test]
    fn disabled_stats_record_nothing() {
        let stats = EngineStats::new(2, false, None);
        stats.record_submitted();
        stats.record_outcome(true, Some(Instant::now()));
        stats.record_batch(5);
        stats.record_eval(Some(7), Duration::from_micros(10));
        stats.record_wal_append(100, Duration::from_micros(1), Duration::ZERO, None);
        stats.event("round.committed", fields![epoch: 1u64]);
        let report = stats.report();
        assert_eq!(report.submitted, 0);
        assert_eq!(report.accepted, 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.wal_records, 0);
        assert!(stats.recorder().is_empty());
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        let b = PhaseBreakdown {
            plan: Duration::from_millis(10),
            translate: Duration::from_millis(40),
            merge: Duration::from_millis(5),
            fold: Duration::from_millis(20),
            wal_append: Duration::from_millis(3),
            fsync: Duration::from_millis(7),
            publish: Duration::from_millis(15),
            overlap: Duration::from_millis(25),
        };
        let sum: f64 = b.fractions().iter().map(|(_, _, frac)| frac).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        let serial = b.publisher_serial_fraction();
        assert!((0.0..=1.0).contains(&serial));
        assert!((serial - 0.5).abs() < 1e-9); // 50ms serial of 100ms total
                                              // Overlap is *within* the serial section, not an eighth phase:
                                              // excluded from the fraction sum, reported as serial-relative.
        assert!((b.overlap_fraction() - 0.5).abs() < 1e-9); // 25ms of 50ms
    }

    #[test]
    fn overlap_fraction_guards_and_bounds() {
        let fresh = PhaseBreakdown::default();
        assert_eq!(fresh.overlap_fraction(), 0.0);
        let b = PhaseBreakdown {
            merge: Duration::from_millis(10),
            overlap: Duration::from_millis(10),
            ..PhaseBreakdown::default()
        };
        assert!((b.overlap_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_shard_counters_are_independent() {
        let stats = EngineStats::new(3, true, None);
        stats.record_shard_updates(0, 2);
        stats.record_shard_updates(2, 5);
        stats.record_shard_updates(9, 1); // out of range: ignored
        assert_eq!(stats.report().shard_updates, vec![2, 0, 5]);
    }
}
