//! The cross-shard coordinator's *merge* half: applies shard translations
//! to the persistent master state in submission order and publishes one
//! snapshot per round, so readers keep a single coherent, epoch-ordered
//! `Arc<Snapshot>` stream no matter how many writers produced the round.
//!
//! Since PR 7 the commit loop is **pipelined** (ARCHITECTURE.md §7): the
//! router keeps planning rounds ahead against the last published snapshot,
//! and a round whose planned footprint is disjoint from everything still
//! in flight is dispatched to shard translation while its predecessors are
//! still in the merge/fold/publish serial section — up to
//! [`crate::EngineConfig::pipeline_depth`] rounds overlap. Per iteration
//! the coordinator:
//!
//! 1. **plans** ahead when nothing is staged: asks [`crate::router`] for a
//!    conflict-free round against the latest snapshot, seeding the blocker
//!    set with the union footprint of every in-flight round — so a
//!    lookahead round is disjoint from everything unmerged *by
//!    construction*, and an update conflicting with in-flight work defers
//!    (a recorded **pipeline stall**) until the pipeline drains one round;
//! 2. **dispatches** the staged round to the [`crate::shard`] pool when a
//!    pipeline slot is free, tagged with the epoch it was planned against.
//!    A slot frees when a round's bundles are *collected* — its
//!    translation is over — not when it publishes, so the successor
//!    translates through the collected round's entire serial section and
//!    the shards never starve behind the round barrier (at depth 1 the
//!    loop degenerates to that barrier: nothing dispatches while a
//!    collected round awaits publication). If a publish landed after the
//!    plan was staged, the router's footprint-diff fixup
//!    ([`crate::router::fixup_stale_plan`]) first evicts any update whose
//!    analysis now conflicts with what committed — the release-mode
//!    counterpart of the debug coverage assert;
//! 3. **collects** the *oldest* in-flight round's bundles, then — after
//!    giving the dispatch arm its shot at the freed slot — runs the
//!    round's serial section: applies the translations in **submission
//!    order** — re-interning each
//!    translation's fresh allocations from its shard's catalog, remapping
//!    it into master ids, applying ∆R/∆V
//!    ([`rxview_core::XmlViewSystem::apply_translated`]). The only
//!    merge-time hazard is shard-detected coupling between same-round
//!    insertions through freshly interned nodes; a requeued update
//!    re-translates against a later snapshot, restoring exact sequential
//!    semantics. One folded ∆(M,L) pass per round, one WAL append, one
//!    publication — merges never reorder, so the write-ahead invariant is
//!    epoch-strict under overlap: `WAL(k) ≺ publish(k) ≺ ack(k+1)`;
//! 4. resolves the round's tickets (accepted ones only after their
//!    snapshot is visible, preserving read-your-writes) and revalidates
//!    cached analyses of still-deferred updates against the round's
//!    footprint.
//!
//! A global-footprint update (a genuinely untypeable path — the rare
//! fallback since typed `//` planning) still serializes: the coordinator
//! drains the whole pipeline, then applies it directly to the master
//! through the **global lane**.
//!
//! The master state persists across rounds and commits: it is cloned once
//! per publication instead of once per shard batch, which — together with
//! the `n_shards * max_batch`-wide analysis rounds and the
//! translation/serial-section overlap — is where the sharded path's
//! advantage over the single-writer path comes from.
//!
//! Deterministic overlap schedules for tests inject
//! [`crate::pipeline::StageHooks`] through the config; the coordinator
//! announces plan/dispatch/merge/publish transitions and blocks on held
//! gates (`crates/engine/tests/pipeline.rs`).

use crate::analyze::Analysis;
use crate::analyze::BatchFootprint;
use crate::engine::{CommitSummary, Inner, Pending};
use crate::pipeline::{Stage, StageHooks};
use crate::router::{self, PendingUpdate, Round, RoundPlan};
use crate::shard::{PendingDispatch, ShardPool, ShardResult};
use crate::snapshot::Snapshot;
use rxview_atg::NodeId;
use rxview_core::RelFootprint;
use rxview_core::{DeferredMaintenance, UpdateError, UpdateOutcome, UpdateReport, XmlViewSystem};
use rxview_obs::fields;
use rxview_relstore::{RelError, Tuple};
use std::collections::{HashSet, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Per-cone fold coalescing (ARCHITECTURE.md §9): merges the deferred
/// *deletion* obligations of same-round jobs admitted under one cone
/// (matching `cone_key`s — hot-cone fission is what puts several of them
/// in one round), so the folded maintenance pass takes the cone's ∆(M,L)
/// exactly once per cone instead of once per update. Insert jobs keep
/// their positions — their maintenance is order-dependent — and deletion
/// maintenance is a function of the deduplicated target union, so merging
/// the selections changes nothing observable. Returns the coalesced job
/// list plus the number of distinct *sub-rounds* (cone groups) the round
/// decomposed into — keyless jobs count as singleton groups.
pub(crate) fn coalesce_cone_folds(
    jobs: Vec<DeferredMaintenance>,
    cone_keys: &[Option<NodeId>],
) -> (Vec<DeferredMaintenance>, usize) {
    debug_assert_eq!(jobs.len(), cone_keys.len());
    let mut groups = 0usize;
    let mut out: Vec<DeferredMaintenance> = Vec::with_capacity(jobs.len());
    // cone key → slot in `out` holding the group's folded delete job.
    let mut delete_slot: std::collections::HashMap<NodeId, usize> =
        std::collections::HashMap::new();
    // Cone keys that already counted as a group (deletes and inserts under
    // one cone are one sub-round: one cone's worth of ∆(M,L) context).
    let mut seen: HashSet<NodeId> = HashSet::new();
    for (job, key) in jobs.into_iter().zip(cone_keys) {
        match key {
            Some(k) if !job.is_insert() => {
                if seen.insert(*k) {
                    groups += 1;
                }
                match delete_slot.get(k) {
                    Some(&slot) => out[slot].absorb_delete(job),
                    None => {
                        delete_slot.insert(*k, out.len());
                        out.push(job);
                    }
                }
            }
            Some(k) => {
                if seen.insert(*k) {
                    groups += 1;
                }
                out.push(job);
            }
            None => {
                groups += 1;
                out.push(job);
            }
        }
    }
    (out, groups)
}

/// Publisher-side adaptive fan-out (ARCHITECTURE.md §9): an EWMA of
/// realized round widths decides how many shard writers the next round
/// actually spans, and an EWMA of admitted multi-anchor cone counts can
/// raise (never lower) the `//`-path anchor cap. Narrow rounds on an
/// oversubscribed box waste more in dispatch/park wake-ups — and translate
/// wall — than surplus shards return; the configured `n_shards` stays the
/// ceiling, so wide traffic re-expands the fan-out within a few rounds.
pub(crate) struct AdaptiveFanout {
    enabled: bool,
    ceiling: usize,
    width_ewma: f64,
    cones_ewma: f64,
}

impl AdaptiveFanout {
    /// Jobs one shard writer is worth waking for: below this per-shard
    /// load, dispatch overhead dominates the parallel translate win.
    const TARGET_JOBS_PER_SHARD: f64 = 4.0;
    const ALPHA: f64 = 0.2;

    pub(crate) fn new(enabled: bool, ceiling: usize) -> Self {
        AdaptiveFanout {
            enabled,
            ceiling,
            // Optimistic start: full fan-out until observed widths say
            // otherwise.
            width_ewma: ceiling as f64 * Self::TARGET_JOBS_PER_SHARD,
            cones_ewma: 0.0,
        }
    }

    /// Feeds one merged round's realized width and the largest admitted
    /// multi-anchor cone count.
    pub(crate) fn observe(&mut self, realized_width: usize, max_cones: usize) {
        self.width_ewma =
            Self::ALPHA * realized_width as f64 + (1.0 - Self::ALPHA) * self.width_ewma;
        self.cones_ewma = Self::ALPHA * max_cones as f64 + (1.0 - Self::ALPHA) * self.cones_ewma;
    }

    /// Shard writers the next round should span.
    pub(crate) fn effective_shards(&self) -> usize {
        if !self.enabled {
            return self.ceiling;
        }
        ((self.width_ewma / Self::TARGET_JOBS_PER_SHARD).ceil() as usize).clamp(1, self.ceiling)
    }

    /// The anchor cap the next plan should use: never below the configured
    /// cap (lowering it would degrade updates that used to shard), raised
    /// when observed multi-anchor traffic runs close to it.
    pub(crate) fn effective_max_cone_anchors(&self, configured: usize) -> usize {
        if !self.enabled {
            return configured;
        }
        configured.max((2.0 * self.cones_ewma).ceil() as usize)
    }
}

/// A round's ticket table: the reply channel and admission timestamp of
/// every update in this commit, indexed by submission order.
struct Tickets {
    txs: Vec<Option<mpsc::Sender<UpdateOutcome>>>,
    submitted_ats: Vec<Option<Instant>>,
}

/// Delivers an outcome to its ticket and updates counters (including the
/// admission→ack latency sample).
fn resolve(
    inner: &Inner,
    summary: &mut CommitSummary,
    tickets: &mut Tickets,
    idx: usize,
    outcome: UpdateOutcome,
) {
    let accepted = outcome.is_ok();
    inner
        .stats
        .record_outcome(accepted, tickets.submitted_ats[idx]);
    if accepted {
        summary.accepted += 1;
    } else {
        summary.rejected += 1;
    }
    if let Some(tx) = tickets.txs[idx].take() {
        let _ = tx.send(outcome); // receiver may have given up
    }
}

/// A planned round not yet handed to the shard pool (global rounds stage
/// here too; they dispatch through the serialized lane instead).
struct StagedRound {
    plan: RoundPlan,
    /// The snapshot the plan's analyses (and dry-run evaluations) ran
    /// against — the shards must translate against this very state.
    snap: Arc<Snapshot>,
    /// Union footprint of every round that published after this plan was
    /// formed; [`router::fixup_stale_plan`] re-checks against it at
    /// dispatch time.
    stale: BatchFootprint,
    made_stale: bool,
}

/// A dispatched-but-uncollected round: its shards are translating (or
/// done) while older rounds occupy the serial section.
struct InflightRound {
    footprint: BatchFootprint,
    admitted: Vec<PendingUpdate>,
    planned: Vec<(usize, Analysis)>,
    multi_cone_admitted: usize,
    plan_epoch: u64,
    pending: PendingDispatch,
}

/// A round whose shard bundles have been collected but whose serial
/// merge/fold/WAL/publish section has not run yet. Collection frees the
/// round's translation slot: the staged successor dispatches *before* the
/// serial section, so the shards translate straight through it instead of
/// starving behind the round barrier. The round's footprint still blocks
/// planning until it publishes.
struct CollectedRound {
    footprint: BatchFootprint,
    admitted: Vec<PendingUpdate>,
    planned: Vec<(usize, Analysis)>,
    multi_cone_admitted: usize,
    plan_epoch: u64,
    bundles: Vec<crate::shard::ShardBundle>,
}

/// Blocks until every shard of the oldest in-flight round reports, ending
/// the round's translation stage (its pipeline slot frees here, not after
/// the merge).
fn collect_round(stats: &crate::stats::EngineStats, round: InflightRound) -> CollectedRound {
    let InflightRound {
        footprint,
        admitted,
        planned,
        multi_cone_admitted,
        plan_epoch,
        pending,
    } = round;
    let bundles = pending.collect();
    if let (Some(first), Some(last)) = (
        bundles.iter().map(|b| b.started_at).min(),
        bundles.iter().map(|b| b.finished_at).max(),
    ) {
        stats.record_translate_wall(last.saturating_duration_since(first));
    }
    CollectedRound {
        footprint,
        admitted,
        planned,
        multi_cone_admitted,
        plan_epoch,
        bundles,
    }
}

/// The pipelined sharded commit loop (see the module docs). Called by
/// [`crate::Engine::commit_pending`] with the commit mutex held.
pub(crate) fn commit_sharded(inner: &Inner, pending: Vec<Pending>) -> CommitSummary {
    let n_shards = inner.config.n_shards;
    let depth = inner.config.pipeline_depth;
    let hooks = inner.config.stage_hooks.clone();
    let hooks = hooks.as_ref();
    let stats = &inner.stats;
    let mut summary = CommitSummary {
        updates: pending.len(),
        ..CommitSummary::default()
    };

    let mut entries: Vec<PendingUpdate> = Vec::with_capacity(pending.len());
    let mut tickets = Tickets {
        txs: Vec::with_capacity(pending.len()),
        submitted_ats: Vec::with_capacity(pending.len()),
    };
    for (idx, p) in pending.into_iter().enumerate() {
        tickets.submitted_ats.push(p.submitted_at);
        let (pu, tx) = PendingUpdate::new(idx, p);
        entries.push(pu);
        tickets.txs.push(Some(tx));
    }

    let pool: &ShardPool = inner
        .pool
        .get_or_init(|| ShardPool::new(n_shards, Arc::clone(&inner.stats)));
    // The persistent master: always content-equal to the latest snapshot.
    let mut master: XmlViewSystem = inner
        .master
        .lock()
        .expect("master lock poisoned")
        .take()
        .unwrap_or_else(|| inner.current().system().clone());
    // Per-shard finish time of that shard's previous round of this commit:
    // idle time is the starvation gap between a worker finishing a round
    // and the *dispatch* of its next (zero for its first), which a filled
    // pipeline drives toward zero.
    let mut last_finish: Vec<Option<Instant>> = vec![None; n_shards];
    let mut fanout = AdaptiveFanout::new(inner.config.adaptive_shards, n_shards);
    let mut staged: Option<StagedRound> = None;
    let mut inflight: VecDeque<InflightRound> = VecDeque::new();
    let mut collected: Option<CollectedRound> = None;

    while !entries.is_empty() || staged.is_some() || !inflight.is_empty() || collected.is_some() {
        // --- Plan ahead: keep one round staged whenever work is queued. ---
        let mut plan_stalled = false;
        if staged.is_none() && !entries.is_empty() {
            let current = inner.current();
            let t_part = Instant::now();
            // Everything unpublished blocks planning: rounds still
            // translating AND the collected round awaiting its serial
            // section — its writes are not in any snapshot yet.
            let inflight_foot = (!inflight.is_empty() || collected.is_some()).then(|| {
                let mut fp = BatchFootprint::default();
                if let Some(c) = &collected {
                    fp.absorb_batch(&c.footprint);
                }
                for r in &inflight {
                    fp.absorb_batch(&r.footprint);
                }
                fp
            });
            // Adaptive fan-out: the EWMA of realized widths decides how
            // many of the pooled shard writers this round spans (empty
            // assignment lists are never dispatched), and sustained
            // multi-anchor traffic can raise the `//`-path anchor cap.
            let eff_shards = fanout.effective_shards();
            let mut opts = inner.config.analyze_options();
            opts.max_cone_anchors = fanout.effective_max_cone_anchors(opts.max_cone_anchors);
            stats.record_adaptive_shards(eff_shards);
            let plan = router::plan_round(
                current.system(),
                &mut entries,
                eff_shards,
                inner.config.max_batch,
                &opts,
                inflight_foot.as_ref(),
                stats,
            );
            // Dry-run evaluation time inside plan_round is recorded as
            // eval; keep the plan bucket to pure conflict-analysis work.
            stats.record_plan(t_part.elapsed().saturating_sub(plan.analysis_eval));
            if let Some(h) = hooks {
                h.reached(Stage::Plan);
            }
            let empty_sharded = matches!(plan.round, Round::Sharded(_)) && plan.admitted.is_empty();
            if empty_sharded {
                // Everything scanned conflicts with in-flight rounds: the
                // pipeline must drain one before planning can admit again.
                plan_stalled = true;
                stats.record_pipeline_stall();
                stats.event(
                    "pipeline.stall",
                    fields![inflight: inflight.len(), deferred: entries.len()],
                );
            } else {
                stats.record_round();
                if matches!(plan.round, Round::Sharded(_)) {
                    stats.event(
                        "round.planned",
                        fields![
                            admitted: plan.admitted.len(),
                            deferred: entries.len(),
                            multi_cone: plan.multi_cone_admitted,
                            path: "sharded"
                        ],
                    );
                }
                staged = Some(StagedRound {
                    plan,
                    snap: current,
                    stale: BatchFootprint::default(),
                    made_stale: false,
                });
            }
        }

        // --- Global lane: serialized, runs only on a drained pipeline. ---
        if matches!(
            staged.as_ref().map(|s| &s.plan.round),
            Some(Round::Global(_))
        ) {
            if let Some(c) = collected.take() {
                let overlapped = !inflight.is_empty();
                let foot = merge_round(
                    inner,
                    &mut summary,
                    &mut tickets,
                    &mut entries,
                    &mut master,
                    &mut last_finish,
                    &mut fanout,
                    c,
                    overlapped,
                    hooks,
                );
                finish_round(&mut entries, staged.as_mut(), &foot);
                continue;
            }
            if let Some(round) = inflight.pop_front() {
                stats.record_pipeline_inflight(inflight.len());
                collected = Some(collect_round(stats, round));
                continue;
            }
            let s = staged.take().expect("global round staged");
            let Round::Global(pu) = s.plan.round else {
                unreachable!("matched above")
            };
            // The lane publishes this snapshot's successor; let go first.
            drop(s.snap);
            run_global_lane(inner, &mut summary, &mut tickets, &mut master, *pu, hooks);
            finish_round(&mut entries, None, &s.plan.footprint);
            continue;
        }

        // --- Dispatch the staged sharded round while a slot is free. ---
        // A slot frees when a round's bundles are *collected* (its
        // translation is over), not when it publishes — so at depth ≥ 2
        // the successor translates through the collected round's entire
        // serial section and the shards never wait for work. Depth 1 is
        // the serial baseline: the collected round must publish before
        // anything new dispatches (no overlap at all).
        if staged.is_some()
            && !plan_stalled
            && inflight.len() < depth
            && (depth > 1 || collected.is_none())
        {
            let mut s = staged.take().expect("checked");
            if s.made_stale {
                // One or more rounds published after this plan was formed:
                // re-check the plan against their union footprint and
                // evict anything newly conflicting back to the queue.
                let evicted = router::fixup_stale_plan(&mut s.plan, &s.stale);
                stats.record_pipeline_fixup(evicted.len());
                stats.event(
                    "pipeline.fixup",
                    fields![evicted: evicted.len(), kept: s.plan.admitted.len()],
                );
                if !evicted.is_empty() {
                    entries.extend(evicted);
                    entries.sort_by_key(|pu| pu.idx);
                }
                if s.plan.admitted.is_empty() {
                    continue; // the whole round was evicted; replan
                }
            }
            let RoundPlan {
                round,
                footprint,
                admitted,
                planned,
                multi_cone_admitted,
                ..
            } = s.plan;
            let Round::Sharded(assignments) = round else {
                unreachable!("global rounds handled above")
            };
            let plan_epoch = s.snap.epoch();
            let pending = pool.dispatch(&s.snap, plan_epoch, assignments);
            if !inflight.is_empty() {
                // True overlap: this round translates while older rounds
                // are still unmerged.
                stats.record_pipeline_admit();
                stats.event(
                    "pipeline.admit",
                    fields![inflight: inflight.len() + 1, plan_epoch: plan_epoch],
                );
            }
            inflight.push_back(InflightRound {
                footprint,
                admitted,
                planned,
                multi_cone_admitted,
                plan_epoch,
                pending,
            });
            stats.record_pipeline_inflight(inflight.len());
            if let Some(h) = hooks {
                h.reached(Stage::Dispatch);
            }
            continue; // fill the pipeline before blocking on a merge
        }

        // --- Run the collected round's serial section. ---
        // Rounds dispatched by the arm above are already translating, so
        // the merge/fold/WAL/publish below is overlapped whenever the
        // pipeline holds anything.
        if let Some(c) = collected.take() {
            let overlapped = !inflight.is_empty();
            let foot = merge_round(
                inner,
                &mut summary,
                &mut tickets,
                &mut entries,
                &mut master,
                &mut last_finish,
                &mut fanout,
                c,
                overlapped,
                hooks,
            );
            finish_round(&mut entries, staged.as_mut(), &foot);
            continue;
        }

        // --- Collect the oldest in-flight round's bundles. ---
        // This ends the round's translation stage; the next iteration
        // dispatches the staged successor into the freed slot before the
        // serial section runs.
        if let Some(round) = inflight.pop_front() {
            stats.record_pipeline_inflight(inflight.len());
            collected = Some(collect_round(stats, round));
            continue;
        }

        // Unreachable: with an empty pipeline the plan arm always stages
        // (a nonempty queue admits its first update or goes global), and a
        // staged round always dispatches into an empty pipeline. Guard
        // against a logic error rather than spinning; the ticket safety
        // net below fails anything left.
        debug_assert!(false, "pipelined commit loop made no progress");
        break;
    }

    *inner.master.lock().expect("master lock poisoned") = Some(master);

    // Every ticket must resolve (safety net mirroring the single-writer
    // path's "update lost" outcome).
    for (tx, submitted_at) in tickets.txs.iter_mut().zip(&tickets.submitted_ats) {
        if let Some(tx) = tx.take() {
            inner.stats.record_outcome(false, *submitted_at);
            summary.rejected += 1;
            let _ = tx.send(Err(UpdateError::Rel(RelError::MalformedQuery(
                "update lost by engine".into(),
            ))));
        }
    }
    summary
}

/// Post-round bookkeeping shared by the merge and global-lane paths:
/// whatever the round committed invalidates cached analyses whose
/// footprint it touched, and marks the staged plan (if any) stale so the
/// dispatch arm re-checks it before handing it to the shards. Absorbing on
/// *failed* rounds too is conservative — over-blocking only costs a
/// replan, never correctness.
fn finish_round(
    entries: &mut [PendingUpdate],
    staged: Option<&mut StagedRound>,
    committed: &BatchFootprint,
) {
    for e in entries.iter_mut() {
        if e.cached.as_ref().is_some_and(|c| !c.survives(committed)) {
            e.cached = None;
        }
    }
    if let Some(s) = staged {
        s.stale.absorb_batch(committed);
        s.made_stale = true;
    }
}

/// Runs one collected round's serial section: merge in submission order,
/// one folded ∆(M,L) pass, one WAL append, one publication, then ticket
/// resolution and requeues. Returns the round's planned union footprint
/// for cache invalidation and staleness marking.
#[allow(clippy::too_many_arguments)]
fn merge_round(
    inner: &Inner,
    summary: &mut CommitSummary,
    tickets: &mut Tickets,
    entries: &mut Vec<PendingUpdate>,
    master: &mut XmlViewSystem,
    last_finish: &mut [Option<Instant>],
    fanout: &mut AdaptiveFanout,
    round: CollectedRound,
    overlapped: bool,
    hooks: Option<&StageHooks>,
) -> BatchFootprint {
    let stats = &inner.stats;
    if let Some(h) = hooks {
        h.reached(Stage::Merge);
    }
    let CollectedRound {
        footprint,
        admitted,
        planned,
        multi_cone_admitted,
        plan_epoch,
        bundles,
    } = round;
    summary.batches += bundles.len();
    let t_serial = Instant::now();
    let mut flat: Vec<(usize, usize, ShardResult)> = Vec::new();
    type Catalog = Vec<(rxview_xmlkit::TypeId, Tuple)>;
    let mut catalogs: Vec<(usize, usize, Catalog)> = Vec::new();
    for b in bundles {
        debug_assert_eq!(
            b.plan_epoch, plan_epoch,
            "bundle merged into the wrong pipeline slot"
        );
        stats.record_batch(b.results.len());
        // Idle = starvation: how long this shard sat between finishing its
        // previous round of this commit and this round being *dispatched*
        // (zero for its first round, or when round k+1 was dispatched
        // before round k finished). A filled pipeline keeps the gap near
        // zero because dispatch happens while the serial section runs.
        // The dispatch→pickup delay is deliberately excluded: that is CPU
        // scheduling contention, not publisher-induced idleness, and on a
        // small core count it cannot drop no matter how the commit loop is
        // arranged.
        let idle = last_finish[b.shard]
            .map(|prev| b.dispatched_at.saturating_duration_since(prev))
            .unwrap_or_default();
        stats.record_shard_round(b.finished_at.saturating_duration_since(b.started_at), idle);
        last_finish[b.shard] = Some(b.finished_at);
        let slot = catalogs.len();
        catalogs.push((b.shard, b.base_alloc, b.catalog));
        for (idx, res) in b.results {
            flat.push((idx, slot, res));
        }
    }
    // Merge in submission order so that requeue decisions and base-delta
    // application order match the sequential semantics.
    flat.sort_by_key(|(idx, _, _)| *idx);

    let mut applied: Vec<(usize, UpdateReport)> = Vec::new();
    let mut jobs: Vec<DeferredMaintenance> = Vec::new();
    let mut cone_keys: Vec<Option<NodeId>> = Vec::new();
    let mut requeue: HashSet<usize> = HashSet::new();
    // Union of the realized write rows applied so far this round. Optimistic
    // fission admission tolerates *planned* write∩write overlap between
    // same-cone peers (candidate-source rows are conservative); genuine
    // overlap must be caught here, on the realized footprints, and the later
    // update requeued for the next round (ARCHITECTURE.md §9).
    let mut realized_union = RelFootprint::default();
    let t_merge = Instant::now();
    for (idx, slot, res) in flat {
        match res {
            ShardResult::Reject(e) => resolve(inner, summary, tickets, idx, Err(e)),
            ShardResult::Requeue => {
                requeue.insert(idx);
            }
            ShardResult::Translated(t) => {
                // `planned` is idx-sorted (admission preserves submission
                // order); its analysis carries the job's cone-coalescing
                // key, and — in debug builds — the typed footprint the
                // realized writes are asserted against.
                let planned_slot = planned.binary_search_by_key(&idx, |(i, _)| *i).ok();
                // Same-round base writes are disjoint by the router's typed
                // footprints: assert the realized footprint was covered by
                // the planned one.
                #[cfg(debug_assertions)]
                {
                    let planned_fp = planned_slot.map(|slot| planned[slot].1.rel());
                    debug_assert!(
                        planned_fp.is_some_and(|fp| fp.covers_writes(&t.rel_footprint)),
                        "update {idx}: realized footprint not covered by plan"
                    );
                }
                let (shard, base_alloc, catalog) = &catalogs[slot];
                if t.rel_footprint.writes_conflict(&realized_union) {
                    // An earlier merge this round realized a write to the
                    // same row: the optimistic co-admission was wrong for
                    // this pair. Submission order wins; this update re-plans
                    // against the committed round.
                    requeue.insert(idx);
                    continue;
                }
                let realized_fp = t.rel_footprint.clone();
                match master.apply_translated(*t, *base_alloc, catalog) {
                    Ok((report, job)) => {
                        stats.record_shard_updates(*shard, 1);
                        applied.push((idx, report));
                        jobs.push(job);
                        cone_keys.push(planned_slot.and_then(|s| planned[s].1.cone_key()));
                        realized_union.absorb(&realized_fp);
                    }
                    Err(e) => resolve(inner, summary, tickets, idx, Err(e)),
                }
            }
        }
    }
    stats.record_merge(t_merge.elapsed());
    stats.record_round_width(admitted.len(), applied.len());
    if multi_cone_admitted > 0 {
        stats.record_multi_cone_round(multi_cone_admitted, applied.len());
    }
    let max_cones = planned
        .iter()
        .filter(|(_, a)| a.is_multi_cone())
        .map(|(_, a)| a.n_cones())
        .max()
        .unwrap_or(0);
    fanout.observe(applied.len(), max_cones);

    // One folded ∆(M,L) pass for the whole round, then one publication.
    if !applied.is_empty() {
        // Per-cone fold coalescing: delete jobs admitted under one (hot)
        // cone merge their deferred obligations, so the fold takes the
        // cone's ∆(M,L) once per cone, not once per update.
        let (jobs, sub_rounds) = coalesce_cone_folds(jobs, &cone_keys);
        stats.record_sub_rounds(sub_rounds, applied.len());
        let t2 = Instant::now();
        match master.fold_maintenance(jobs) {
            Ok(m) => {
                stats.record_maintain(t2.elapsed(), &m);
                // Write-ahead: log the round's merged updates, submission
                // order, before the snapshot swap (and before any ticket
                // resolves) — merges never reorder, so appends stay
                // epoch-strict even while younger rounds translate.
                let logged: Vec<crate::wal::LoggedUpdate> = if inner.wal_enabled() {
                    let merged: HashSet<usize> = applied.iter().map(|(idx, _)| *idx).collect();
                    admitted
                        .iter()
                        .filter(|pu| merged.contains(&pu.idx))
                        .map(|pu| (pu.update.clone(), pu.policy))
                        .collect()
                } else {
                    Vec::new()
                };
                match inner.log_round(&logged) {
                    Err(msg) => {
                        // Not durable: restore the master from the last
                        // *published* snapshot (under pipelining that is
                        // NOT this round's plan snapshot) and fail the
                        // round's merged updates. Later in-flight rounds
                        // stay valid — nothing new published. Control
                        // falls through so requeued updates still
                        // re-enter routing below.
                        *master = inner.current().system().clone();
                        stats.record_round_failure("wal_append", applied.len());
                        for (idx, _) in applied {
                            resolve(
                                inner,
                                summary,
                                tickets,
                                idx,
                                Err(UpdateError::Rel(RelError::MalformedQuery(msg.clone()))),
                            );
                        }
                    }
                    Ok(()) => {
                        summary.maintain.absorb(&m);
                        let t3 = Instant::now();
                        let snap = inner.publish(master.clone());
                        stats.record_publish(t3.elapsed());
                        if let Some(h) = hooks {
                            h.reached(Stage::Publish);
                        }
                        stats.event(
                            "round.committed",
                            fields![
                                epoch: snap.epoch(),
                                updates: applied.len(),
                                path: "sharded"
                            ],
                        );
                        if let [(_, report)] = applied.as_mut_slice() {
                            // A singleton round attributes maintenance
                            // exactly, like a singleton batch.
                            report.maintain = m;
                        }
                        for (idx, report) in applied {
                            resolve(inner, summary, tickets, idx, Ok(report));
                        }
                    }
                }
            }
            Err(e) => {
                // The master is inconsistent: drop it, restore from the
                // last published snapshot, fail the round's applied
                // updates.
                *master = inner.current().system().clone();
                stats.record_round_failure("fold_maintenance", applied.len());
                let msg = format!("round maintenance failed: {e}");
                for (idx, _) in applied {
                    resolve(
                        inner,
                        summary,
                        tickets,
                        idx,
                        Err(UpdateError::Rel(RelError::MalformedQuery(msg.clone()))),
                    );
                }
            }
        }
    }

    // The serial section of an overlapped round is exactly the span
    // younger rounds were translating "for free".
    if overlapped {
        stats.record_overlap(t_serial.elapsed());
    }

    // Requeued updates re-enter routing, in submission order.
    if !requeue.is_empty() {
        let mut back: Vec<PendingUpdate> = admitted
            .into_iter()
            .filter(|pu| requeue.contains(&pu.idx))
            .collect();
        stats.event("round.requeued", fields![count: back.len()]);
        for _ in 0..back.len() {
            stats.record_requeued();
        }
        back.append(entries);
        back.sort_by_key(|pu| pu.idx);
        *entries = back;
    }

    footprint
}

/// The serialized global lane: one update whose *footprint* nothing bounds,
/// applied directly to the master. Its evaluation still goes through the
/// scope-aware entry point — the full §3.2 pass for a genuinely untypeable
/// path, a scope for one that only its planned writes made global. Only
/// runs on a drained pipeline, so the master equals the latest published
/// snapshot.
fn run_global_lane(
    inner: &Inner,
    summary: &mut CommitSummary,
    tickets: &mut Tickets,
    master: &mut XmlViewSystem,
    pu: PendingUpdate,
    hooks: Option<&StageHooks>,
) {
    let stats = &inner.stats;
    stats.record_global_lane_round();
    stats.event("lane.global", fields![idx: pu.idx]);
    stats.record_batch(1);
    summary.batches += 1;
    let t0 = Instant::now();
    let eval = master.eval(pu.update.path());
    stats.record_eval(eval.scope_nodes, t0.elapsed());
    let t1 = Instant::now();
    let applied = master.apply_deferred(&pu.update, pu.policy, eval);
    stats.record_translate(t1.elapsed());
    // The serialized lane's whole eval+translate section is its round's
    // translation wall clock.
    stats.record_translate_wall(t0.elapsed());
    stats.record_round_width(1, usize::from(applied.is_ok()));
    match applied {
        Ok((mut report, job)) => {
            let t2 = Instant::now();
            match master.fold_maintenance(vec![job]) {
                Ok(m) => {
                    stats.record_maintain(t2.elapsed(), &m);
                    // Write-ahead: the global-lane round is one update; log
                    // it before it becomes visible.
                    let logged: Vec<crate::wal::LoggedUpdate> = if inner.wal_enabled() {
                        vec![(pu.update.clone(), pu.policy)]
                    } else {
                        Vec::new()
                    };
                    match inner.log_round(&logged) {
                        Err(msg) => {
                            // Not durable: restore the master and fail the
                            // update instead of acknowledging a lie.
                            *master = inner.current().system().clone();
                            stats.record_round_failure("wal_append", 1);
                            resolve(
                                inner,
                                summary,
                                tickets,
                                pu.idx,
                                Err(UpdateError::Rel(RelError::MalformedQuery(msg))),
                            );
                        }
                        Ok(()) => {
                            summary.maintain.absorb(&m);
                            report.maintain = m;
                            let t3 = Instant::now();
                            let snap = inner.publish(master.clone());
                            stats.record_publish(t3.elapsed());
                            if let Some(h) = hooks {
                                h.reached(Stage::Publish);
                            }
                            stats.event(
                                "round.committed",
                                fields![epoch: snap.epoch(), updates: 1u64, path: "global"],
                            );
                            resolve(inner, summary, tickets, pu.idx, Ok(report));
                        }
                    }
                }
                Err(e) => {
                    // The master is inconsistent: restore it from the last
                    // published snapshot.
                    *master = inner.current().system().clone();
                    stats.record_round_failure("fold_maintenance", 1);
                    let msg = format!("global-lane maintenance failed: {e}");
                    resolve(
                        inner,
                        summary,
                        tickets,
                        pu.idx,
                        Err(UpdateError::Rel(RelError::MalformedQuery(msg))),
                    );
                }
            }
        }
        Err(e) => resolve(inner, summary, tickets, pu.idx, Err(e)),
    }
}
