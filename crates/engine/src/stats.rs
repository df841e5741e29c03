//! Engine observability: every counter and phase timer is a handle in
//! [`EngineStats`], built from the [`crate::obs`] primitives.
//!
//! Three layers share this module:
//!
//! - **metrics** — one table (`metric_table!` below) declares each metric
//!   once: its doc, its field, its kind and its exported name. The table
//!   generates the [`EngineStats`] handles, the name-sorted listing
//!   ([`EngineStats::metrics`]) the text report reads, and
//!   the [`EngineReport`] fields with the copy between them. Recording is a
//!   relaxed atomic on the handle at the call site; the `record_*` methods
//!   are the ones that feed several metrics or compute what they record.
//! - **flight recorder** — a bounded ring of structured events (round
//!   formed / committed / failed, checkpoint start/end, WAL rotation,
//!   recovery replay progress), dumpable as JSONL on demand;
//! - **reports** — [`EngineReport`] is a point-in-time read of the handles,
//!   and [`PhaseBreakdown`] attributes a run's wall clock to phases.
//!
//! Recording is always on: there is one configuration, and every number the
//! benchmark reports includes its cost.

use crate::obs::{Counter, FlightRecorder, Gauge, Histogram, HistogramSnapshot, MetricSnapshot};
use crate::wal::SyncReason;
use rxview_core::{MaintainReport, PhaseTimings, PlanCache, PlanCacheStats, XmlViewSystem};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events retained by the engine's flight recorder.
const FLIGHT_CAPACITY: usize = 1024;

/// An empty flight recorder of the engine's capacity. Recovery creates the
/// ring before the engine exists, so replay-progress events land in the one
/// the serving engine keeps.
pub(crate) fn flight_recorder() -> Arc<FlightRecorder> {
    Arc::new(FlightRecorder::new(FLIGHT_CAPACITY))
}

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

/// Declares the engine's metrics — `doc · field: kind "exported.name"` —
/// and generates [`EngineStats`] (one handle per entry), its name-sorted
/// `metrics()` listing, [`EngineReport`] (one field per `reported` entry,
/// under the entry's doc) and `report()`'s copy between them. A `counter`
/// or `gauge` reads as `u64`, a `timer` (a nanosecond [`Histogram`]) as the
/// `Duration` its samples sum to. `by_hand` entries are listed and recorded
/// the same way but read irregularly — into `phases`, into `latency`, or
/// not at all; those fields, the cache deltas and the inert `requeued` are
/// written out in the macro body.
macro_rules! metric_table {
    (@handle counter) => { Counter };
    (@handle gauge) => { Gauge };
    (@handle timer) => { Histogram };
    (@value counter) => { u64 };
    (@value gauge) => { u64 };
    (@value timer) => { Duration };
    (@snap counter $h:expr) => { MetricSnapshot::Counter($h.get()) };
    (@snap gauge $h:expr) => { MetricSnapshot::Gauge($h.get()) };
    (@snap timer $h:expr) => { MetricSnapshot::Histogram(Box::new($h.snapshot())) };
    (@read counter $h:expr) => { $h.get() };
    (@read gauge $h:expr) => { $h.get().max(0) as u64 };
    (@read timer $h:expr) => { Duration::from_nanos($h.sum()) };
    (
        reported { $( $(#[$doc:meta])* $field:ident: $kind:ident $name:literal, )* }
        by_hand { $( $(#[$hdoc:meta])* $hfield:ident: $hkind:ident $hname:literal, )* }
    ) => {
        /// Cumulative engine counters and phase histograms. Recording is
        /// lock-free: readers, submitters and the committing thread update
        /// the handles concurrently. Per-update `translate` sums each
        /// update's translation, the per-round `*_wall` and publisher-side
        /// phases measure wall clock.
        #[derive(Debug)]
        pub struct EngineStats {
            recorder: Arc<FlightRecorder>,
            /// The (possibly shared) plan cache with this engine's baselines
            /// for its plan counters (ARCHITECTURE.md §8) and its template
            /// counters (§10).
            plan_cache: (Arc<PlanCache>, PlanCacheStats, PlanCacheStats),
            $( $(#[$doc])* pub(crate) $field: metric_table!(@handle $kind), )*
            $( $(#[$hdoc])* pub(crate) $hfield: metric_table!(@handle $hkind), )*
        }

        impl EngineStats {
            /// Stats recording events into `recorder`. Several
            /// engines built from clones of one system share the `Arc`'d
            /// `plan_cache`, so its counters — and those of the template
            /// registry hanging off it — are snapshotted here as this
            /// engine's baseline: a report subtracts what other engines (or
            /// warm-up) already accounted.
            pub(crate) fn new(recorder: Arc<FlightRecorder>, plan_cache: Arc<PlanCache>) -> Self {
                let (plans, templates) = (plan_cache.stats(), plan_cache.template_stats());
                EngineStats {
                    recorder,
                    plan_cache: (plan_cache, plans, templates),
                    $( $field: Default::default(), )*
                    $( $hfield: Default::default(), )*
                }
            }

            /// Every metric as `(exported name, value)`, name-sorted: the
            /// text report's rows. Each cell
            /// is read relaxed, so concurrent recording may skew
            /// cross-metric relationships by in-flight updates.
            pub fn metrics(&self) -> Vec<(&'static str, MetricSnapshot)> {
                let mut all = vec![
                    $( ($name, metric_table!(@snap $kind self.$field)), )*
                    $( ($hname, metric_table!(@snap $hkind self.$hfield)), )*
                ];
                all.sort_unstable_by_key(|&(name, _)| name);
                all
            }

            /// A consistent-enough point-in-time copy of all counters.
            pub fn report(&self) -> EngineReport {
                let (cache, plans, templates) = &self.plan_cache;
                EngineReport {
                    $( $field: metric_table!(@read $kind self.$field), )*
                    phases: PhaseTimings {
                        eval: metric_table!(@read timer self.eval_ns),
                        translate: metric_table!(@read timer self.translate_ns),
                        maintain: metric_table!(@read timer self.fold_ns),
                    },
                    latency: self.update_latency_ns.snapshot(),
                    plan_cache: cache.stats().delta_since(plans),
                    template_cache: cache.template_stats().delta_since(templates),
                    requeued: 0,
                }
            }
        }

        /// A point-in-time view of [`EngineStats`].
        #[derive(Debug, Clone)]
        pub struct EngineReport {
            $( $(#[$doc])* pub $field: metric_table!(@value $kind), )*
            /// Cumulative per-phase time — the Fig.11 constituents (a)
            /// evaluation, (b) translation + execution, (c) maintenance —
            /// across all commits. `translate` sums per-update translation;
            /// see [`EngineReport::translate_wall`] for the round's wall
            /// clock.
            pub phases: PhaseTimings,
            /// End-to-end admission→ack latency distribution, nanoseconds.
            pub latency: HistogramSnapshot,
            /// Plan-cache counters as *this engine's delta* since it was
            /// built over its (possibly shared) cache: hits, misses,
            /// evictions, compiles, and total compile nanoseconds
            /// (ARCHITECTURE.md §8).
            pub plan_cache: PlanCacheStats,
            /// Translation-template registry counters as this engine's delta
            /// (ARCHITECTURE.md §10): `hits` counts template instantiations,
            /// `compiles` and `compile_ns` the one-time registry build — zero
            /// when an earlier engine on the shared cache compiled it.
            pub template_cache: PlanCacheStats,
            /// Always 0: nothing plans a round, so nothing is sent back.
            /// Kept, as that constant, because `rxbench` still reads it
            /// (ROADMAP item 4(g) drops both).
            pub requeued: u64,
        }
    };
}

metric_table! {
    reported {
        // --- update lifecycle ---
        /// Updates submitted: queued, or refused at admission.
        submitted: counter "updates.submitted",
        /// Updates accepted by a commit.
        accepted: counter "updates.accepted",
        /// Updates rejected, at admission or by a commit.
        rejected: counter "updates.rejected",
        // --- commits / snapshots ---
        /// `commit_pending` rounds that found work.
        commits: counter "commit.calls",
        /// Rounds committed (queue prefixes of at most `MAX_BATCH` updates).
        batches: counter "commit.batches",
        /// Largest round committed.
        max_batch: counter "commit.max_batch",
        /// Snapshots published (= epochs advanced).
        snapshots_published: counter "snapshot.published",
        /// Snapshot handles handed to readers.
        snapshot_reads: counter "snapshot.reads",
        // --- size of the published state ---
        /// Rows of `I` in the latest published epoch.
        base_rows: gauge "state.base_rows",
        /// Live nodes of the view in the latest published epoch.
        live_nodes: gauge "state.live_nodes",
        /// Size of the node-id space in the latest published epoch: live ids
        /// plus free ones.
        allocated_ids: gauge "state.allocated_ids",
        /// Ids of that space waiting to be handed out again.
        free_ids: gauge "state.free_ids",
        // --- evaluation ---
        /// Evaluations the commit path ran over a scope (a projection of `L`
        /// onto the path's anchor cones), one per update a round evaluated.
        scoped_evals: counter "eval.scoped",
        /// Evaluations that ran the full pass over `L`: a path nothing bounds,
        /// or a cone union too large to be worth projecting — the first thing
        /// to look at when an update was slow.
        full_evals: counter "eval.full",
        // --- phase timers, one sample per round ---
        /// Always empty: a round is a queue prefix, and nothing plans it.
        /// Kept because `rxbench` still reads it (ROADMAP item 4(g)).
        plan: timer "phase.plan_ns",
        /// Translation wall clock per round: its apply loop, less the
        /// evaluations and folds it ran (recorded as `phase.eval_ns` and
        /// `phase.fold_ns`).
        translate_wall: timer "phase.translate_wall_ns",
        /// Fold sub-span: time the folded passes spent inside `L`'s
        /// maintenance (fresh-block splice + `swap` repair on insert,
        /// unreferenced-node GC cascade and compaction on delete), as the
        /// fold loop measured it. Part of `phases.maintain`.
        fold_l_splice: timer "phase.fold_l_splice_ns",
        /// Maintenance passes the folds ran ([`MaintainReport::cone_folds`]):
        /// one per applied update.
        cone_folds: counter "fold.cone_folds",
        /// Time writing replay-log records (fsync excluded).
        wal_append: timer "phase.wal_append_ns",
        /// Time fsyncing the replay log.
        fsync: timer "phase.fsync_ns",
        /// Time spent publishing snapshots.
        publish: timer "phase.publish_ns",
        // --- rounds ---
        /// Commit rounds formed from the queue. (The exported name predates
        /// serial rounds.)
        rounds: counter "round.planned",
        /// Always 0: nothing admits an update into a round by its footprint
        /// any more. Kept because `rxbench` still reads it (ROADMAP item
        /// 4(g)).
        fission_admits: counter "fission.admits",
        /// Always 0, as `fission.admits`.
        fission_denies: counter "fission.denies",
        // --- round widths ---
        /// Rounds measured for width: every round formed.
        width_rounds: counter "round.width_rounds",
        /// Total updates taken into rounds.
        planned_width: counter "round.planned_width",
        /// Total updates actually applied (planned minus rejects).
        realized_width: counter "round.realized_width",
        // --- durability ---
        /// Replay-log records appended (= epochs made durable; 0 when
        /// durability is off).
        wal_records: counter "wal.records",
        /// Replay-log bytes written (frames included).
        wal_bytes: counter "wal.bytes",
        /// Appends that fsynced under the durability policy.
        wal_syncs: counter "wal.syncs",
        /// Fsyncs tripped by the [`crate::Durability::GroupCommit`] round
        /// watermark.
        wal_sync_rounds: counter "wal.sync_reason.rounds",
        /// Fsyncs tripped by the [`crate::Durability::GroupCommit`] age
        /// watermark.
        wal_sync_age: counter "wal.sync_reason.age",
        /// Checkpoints made durable (initial + background + manual).
        checkpoints: counter "checkpoint.completed",
    }
    by_hand {
        /// Path evaluation, one sample per evaluation that ran:
        /// `phases.eval`.
        eval_ns: timer "phase.eval_ns",
        /// ∆X→∆V→∆R translation, one sample per update: `phases.translate`.
        translate_ns: timer "phase.translate_ns",
        /// The fold, one sample per applied update: `phases.maintain`.
        fold_ns: timer "phase.fold_ns",
        /// Admission→ack, one sample per resolved ticket: `latency`.
        update_latency_ns: timer "update.latency_ns",
    }
}

impl EngineStats {
    /// The engine's flight recorder (bounded ring of structured events).
    pub(crate) fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Records one round's *planned* width (updates taken from the queue)
    /// and *realized* width (updates applied — planned minus rejects), once
    /// per round: how many updates share a log record and a publication.
    pub(crate) fn record_round_width(&self, planned: usize, realized: usize) {
        self.width_rounds.incr();
        self.planned_width.add(planned as u64);
        self.realized_width.add(realized as u64);
    }

    /// One update's outcome delivered to its ticket; `submitted_at` (stamped
    /// at admission) closes the end-to-end admission→ack latency sample.
    pub(crate) fn record_outcome(&self, accepted: bool, submitted_at: Instant) {
        if accepted {
            &self.accepted
        } else {
            &self.rejected
        }
        .incr();
        self.update_latency_ns
            .record_duration(submitted_at.elapsed());
    }

    /// One round of `size` updates handed to translation.
    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.incr();
        self.max_batch.fetch_max(size as u64);
    }

    /// The size of the state an epoch serves: rows of `I`, live nodes of
    /// the view, the interner's id space and how much of it is free — a
    /// collected node's id is handed out again, so the id space stops at
    /// the largest view served plus a round's allocations. All are counts
    /// the structures already keep.
    pub(crate) fn record_state(&self, sys: &XmlViewSystem) {
        let genid = sys.view().dag().genid();
        self.base_rows.set(sys.base().total_rows() as i64);
        self.live_nodes.set(genid.n_live() as i64);
        self.allocated_ids.set(genid.n_allocated() as i64);
        self.free_ids.set(genid.n_free() as i64);
    }

    /// One path evaluation, counted by how it ran
    /// ([`rxview_core::Evaluated::scope_nodes`]): over a scope, or — `None`
    /// — over all of `L`.
    pub(crate) fn record_eval(&self, scope_nodes: Option<usize>, d: Duration) {
        if scope_nodes.is_some() {
            &self.scoped_evals
        } else {
            &self.full_evals
        }
        .incr();
        self.eval_ns.record_duration(d);
    }

    /// One folded maintenance pass: its wall clock plus the `L`/GC time
    /// the fold loop measured itself, and how many passes it ran
    /// (`MaintainReport::cone_folds`).
    pub(crate) fn record_maintain(&self, d: Duration, m: &MaintainReport) {
        self.fold_ns.record_duration(d);
        self.fold_l_splice
            .record_duration(Duration::from_nanos(m.l_splice_ns));
        self.cone_folds.add(m.cone_folds);
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
        self.wal_records.incr();
        self.wal_bytes.add(bytes);
        self.wal_append.record_duration(write);
        if let Some(reason) = reason {
            self.wal_syncs.incr();
            self.fsync.record_duration(sync);
            match reason {
                SyncReason::RoundWatermark => self.wal_sync_rounds.incr(),
                SyncReason::AgeWatermark => self.wal_sync_age.incr(),
                SyncReason::Policy => {}
            }
        }
    }
}

/// One run's commit wall clock attributed to the phase taxonomy — the
/// fractions are computed over the sum of the measured phases, so they sum
/// to 1 whenever any phase time was recorded at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Always zero: nothing plans a round ([`EngineStats`]' `phase.plan_ns`).
    pub plan: Duration,
    /// Translation wall clock (each round's apply loop, less its
    /// evaluations and folds).
    pub translate: Duration,
    /// Always zero: there is no merge phase, and it is in no sum or
    /// fraction. Kept, as that constant, because `rxbench` still reads it
    /// (ROADMAP item 4(g) drops both).
    pub merge: Duration,
    /// The per-update folds.
    pub fold: Duration,
    /// Replay-log record writes.
    pub wal_append: Duration,
    /// Replay-log fsyncs.
    pub fsync: Duration,
    /// Snapshot clone + publication.
    pub publish: Duration,
}

impl PhaseBreakdown {
    /// Sum of all measured phases (the denominator of every fraction).
    pub fn total(&self) -> Duration {
        self.plan + self.translate + self.fold + self.wal_append + self.fsync + self.publish
    }

    /// `(name, seconds, fraction-of-total)` per phase, in pipeline order.
    /// Fractions sum to 1 (up to rounding) when any time was measured.
    pub fn fractions(&self) -> [(&'static str, f64, f64); 6] {
        let total = self.total().as_secs_f64();
        let f = |d: Duration| (d.as_secs_f64(), ratio(d.as_secs_f64(), total));
        let [plan, translate, fold, wal_append, fsync, publish] = [
            self.plan,
            self.translate,
            self.fold,
            self.wal_append,
            self.fsync,
            self.publish,
        ]
        .map(f);
        [
            ("plan", plan.0, plan.1),
            ("translate", translate.0, translate.1),
            ("fold", fold.0, fold.1),
            ("wal_append", wal_append.0, wal_append.1),
            ("fsync", fsync.0, fsync.1),
            ("publish", publish.0, publish.1),
        ]
    }

    /// Fraction of the publisher's serial section that ran overlapped with
    /// a younger round's translation: always `0.0`, because a round is
    /// planned only after its predecessor has published (ARCHITECTURE.md
    /// §3). Kept, as that constant, because `rxbench` still reads it
    /// (ROADMAP item 4(g) drops both).
    pub fn overlap_fraction(&self) -> f64 {
        0.0
    }
}

impl EngineReport {
    /// Average committed batch size.
    pub fn mean_batch(&self) -> f64 {
        ratio((self.accepted + self.rejected) as f64, self.batches as f64)
    }

    /// Average *planned* round width (updates taken per round).
    pub fn mean_planned_width(&self) -> f64 {
        ratio(self.planned_width as f64, self.width_rounds as f64)
    }

    /// Average *realized* round width (applied updates per round).
    pub fn mean_realized_width(&self) -> f64 {
        ratio(self.realized_width as f64, self.width_rounds as f64)
    }

    /// Always `0.0`: no translation thread waits on the committing one.
    /// Kept, as that constant, because `rxbench` still reads it (ROADMAP
    /// item 4(g) drops both).
    pub fn shard_idle_fraction(&self) -> f64 {
        0.0
    }

    /// This report's wall clock attributed to the commit phase taxonomy.
    /// `translate` is the wall-clock view ([`EngineReport::translate_wall`]);
    /// the summed per-update effort stays in `phases.translate`.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            plan: self.plan,
            translate: self.translate_wall,
            merge: Duration::ZERO,
            fold: self.phases.maintain,
            wal_append: self.wal_append,
            fsync: self.fsync,
            publish: self.publish,
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
            "state: {} base rows, node ids {} allocated / {} live / {} free",
            self.base_rows, self.allocated_ids, self.live_nodes, self.free_ids,
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
            "phase time: eval {:?}, translate {:?} ({:?} wall), maintain {:?}, publish {:?}",
            self.phases.eval,
            self.phases.translate,
            self.translate_wall,
            self.phases.maintain,
            self.publish
        )?;
        if self.cone_folds > 0 {
            writeln!(
                f,
                "fold detail: {} cone folds, L-splice {:?}",
                self.cone_folds, self.fold_l_splice
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
            self.mean_realized_width(),
        )?;
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
        let stats = EngineStats::new(flight_recorder(), Arc::default());
        let report = stats.report();
        for v in [
            report.mean_batch(),
            report.mean_planned_width(),
            report.mean_realized_width(),
            report.shard_idle_fraction(),
            report.phase_breakdown().overlap_fraction(),
        ] {
            assert_eq!(v, 0.0);
            assert!(v.is_finite());
        }
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        let b = PhaseBreakdown {
            plan: Duration::from_millis(10),
            translate: Duration::from_millis(40),
            merge: Duration::ZERO,
            fold: Duration::from_millis(25),
            wal_append: Duration::from_millis(3),
            fsync: Duration::from_millis(7),
            publish: Duration::from_millis(15),
        };
        let sum: f64 = b.fractions().iter().map(|(_, _, frac)| frac).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        assert_eq!(b.overlap_fraction(), 0.0);
    }
}
