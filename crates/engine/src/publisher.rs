//! The round pipeline: the one commit path. Every drained queue, at every
//! shard count, commits as a sequence of conflict-free *rounds*, one at a
//! time, and every round runs the same stages:
//!
//! ```text
//! plan → translate → fold → log → publish → ack
//! ```
//!
//! - **plan** — [`crate::router::plan_round`] admits a conflict-free round
//!   against the latest published snapshot (the only planner);
//! - **translate** — one of two executors turns the round into ∆R/∆V on a
//!   working state, chosen by what the code observes:
//!   - *inline* (`n_shards == 1`, and the one-update round of a ⊤-footprint
//!     update at any shard count): each job reuses its dry-run evaluation
//!     and applies sequentially (`apply_deferred`) to the working state;
//!   - *sharded* (`n_shards >= 2`): the round is dispatched to the
//!     [`crate::shard`] pool, translated speculatively against the plan
//!     snapshot, waited for, and merged in **submission order**
//!     (`apply_translated`), requeueing any update whose realized writes
//!     overlap an earlier merge of the round or that a shard found coupled
//!     to a same-round insertion;
//! - **fold → log → publish → ack** — one serial tail
//!   (`Commit::finish_round`) for both: per-cone fold coalescing, one folded
//!   ∆(M,L) pass, one WAL append, one publication, then ticket resolution,
//!   requeues, and revalidation of cached analyses.
//!   `WAL(k) ≺ publish(k) ≺ ack(k)` and read-your-writes live there and
//!   nowhere else. A round that applied nothing publishes no epoch and
//!   appends no record.
//!
//! A round is planned only after its predecessor has published
//! (ARCHITECTURE.md §7), so the snapshot a plan ran against is the latest
//! one until the round itself publishes: the shards translate against it,
//! and the working state is cloned from it.
//!
//! The round's working state is a local: the latest snapshot's system,
//! cloned once when translation results start landing, moved into the
//! publication on success and dropped on any failure — so a failed fold or
//! append leaves the previous snapshot current and later rounds proceed.
//!
//! Deterministic schedules for tests inject
//! [`crate::pipeline::StageHooks`] through the config; the coordinator
//! announces each round's plan and publish and blocks on held gates
//! (`crates/engine/tests/pipeline.rs`).

use crate::engine::{CommitSummary, Inner, Pending};
use crate::pipeline::{Stage, StageHooks};
use crate::router::{self, PendingUpdate, RoundPlan};
use crate::shard::{ShardBundle, ShardPool, ShardResult};
use rxview_atg::NodeId;
use rxview_core::{
    DeferredMaintenance, RelFootprint, UpdateError, UpdateOutcome, UpdateReport, XmlViewSystem,
    MAX_CONE_ANCHORS,
};
use rxview_obs::fields;
use rxview_relstore::RelError;
use std::collections::HashSet;
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

/// Adaptive fan-out of the sharded executor (ARCHITECTURE.md §9): an EWMA
/// of realized round widths decides how many shard writers the next round
/// actually spans, and an EWMA of admitted multi-anchor cone counts can
/// raise (never lower) the `//`-path anchor cap. Narrow rounds on an
/// oversubscribed box waste more in dispatch/park wake-ups — and translate
/// wall — than surplus shards return; the configured `n_shards` stays the
/// ceiling, so wide traffic re-expands the fan-out within a few rounds.
/// Inline rounds never feed it, so at one shard both values stay put.
pub(crate) struct AdaptiveFanout {
    ceiling: usize,
    width_ewma: f64,
    cones_ewma: f64,
}

impl AdaptiveFanout {
    /// Jobs one shard writer is worth waking for: below this per-shard
    /// load, dispatch overhead dominates the parallel translate win.
    const TARGET_JOBS_PER_SHARD: f64 = 4.0;
    const ALPHA: f64 = 0.2;

    pub(crate) fn new(ceiling: usize) -> Self {
        AdaptiveFanout {
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
        ((self.width_ewma / Self::TARGET_JOBS_PER_SHARD).ceil() as usize).clamp(1, self.ceiling)
    }

    /// The anchor cap the next plan should use: never below
    /// [`MAX_CONE_ANCHORS`], the cap reads and replay resolve under
    /// (lowering it would degrade updates that used to shard), raised when
    /// observed multi-anchor traffic runs close to it.
    pub(crate) fn effective_max_cone_anchors(&self) -> usize {
        MAX_CONE_ANCHORS.max((2.0 * self.cones_ewma).ceil() as usize)
    }
}

/// What a translate executor leaves for the serial tail: the round's
/// working state with every applied update's ∆R/∆V in it, and what became
/// of each admitted update.
struct Translated {
    /// The latest snapshot's system plus this round's applied updates;
    /// published by the tail, or dropped with the round.
    working: XmlViewSystem,
    /// Applied updates in submission order, with their deferred ∆(M,L)
    /// obligations and cone-coalescing keys alongside.
    applied: Vec<(usize, UpdateReport)>,
    jobs: Vec<DeferredMaintenance>,
    cone_keys: Vec<Option<NodeId>>,
    rejected: Vec<(usize, UpdateError)>,
    /// Updates the sharded executor sends back to routing (always empty
    /// for inline rounds).
    requeue: HashSet<usize>,
}

impl Translated {
    fn on(working: XmlViewSystem) -> Self {
        Translated {
            working,
            applied: Vec::new(),
            jobs: Vec::new(),
            cone_keys: Vec::new(),
            rejected: Vec::new(),
            requeue: HashSet::new(),
        }
    }

    fn push_applied(
        &mut self,
        idx: usize,
        (report, job): (UpdateReport, DeferredMaintenance),
        cone_key: Option<NodeId>,
    ) {
        self.applied.push((idx, report));
        self.jobs.push(job);
        self.cone_keys.push(cone_key);
    }
}

/// One `commit_pending` call's state: the ticket table (reply channel and
/// admission timestamp per update, indexed by submission order) and the
/// still-pending updates.
struct Commit<'a> {
    inner: &'a Inner,
    hooks: Option<&'a StageHooks>,
    summary: CommitSummary,
    txs: Vec<Option<mpsc::Sender<UpdateOutcome>>>,
    submitted_ats: Vec<Instant>,
    entries: Vec<PendingUpdate>,
    /// Per-shard finish time of that shard's previous round of this commit:
    /// idle time is the starvation gap between a worker finishing a round
    /// and the *dispatch* of its next (zero for its first) — the serial
    /// tail of its round and the planning of the next.
    last_finish: Vec<Option<Instant>>,
    fanout: AdaptiveFanout,
}

/// Commits a drained queue through the round pipeline (see the module
/// docs). Called by [`crate::Engine::commit_pending`] with the commit mutex
/// held.
pub(crate) fn commit(inner: &Inner, pending: Vec<Pending>) -> CommitSummary {
    let n_shards = inner.config.n_shards;
    let mut c = Commit {
        inner,
        hooks: inner.config.stage_hooks.as_ref(),
        summary: CommitSummary {
            updates: pending.len(),
            ..CommitSummary::default()
        },
        txs: Vec::with_capacity(pending.len()),
        submitted_ats: Vec::with_capacity(pending.len()),
        entries: Vec::with_capacity(pending.len()),
        last_finish: vec![None; n_shards],
        fanout: AdaptiveFanout::new(n_shards),
    };
    for (idx, p) in pending.into_iter().enumerate() {
        c.submitted_ats.push(p.submitted_at);
        let (pu, tx) = PendingUpdate::new(idx, p);
        c.entries.push(pu);
        c.txs.push(Some(tx));
    }

    while !c.entries.is_empty() {
        let Some(mut plan) = c.plan_next() else {
            // Unreachable: nothing unpublished blocks a plan, so a nonempty
            // queue admits its first update. Guard against a logic error
            // rather than spinning; the ticket safety net below fails
            // anything left.
            debug_assert!(false, "a round plan admitted nothing");
            break;
        };
        let translated = if c.runs_inline(&plan) {
            c.translate_inline(&mut plan)
        } else {
            c.translate_sharded(&mut plan)
        };
        c.finish_round(plan, translated);
    }

    // Every ticket must resolve.
    for idx in 0..c.txs.len() {
        if c.txs[idx].is_some() {
            c.resolve(
                idx,
                Err(UpdateError::Rel(RelError::MalformedQuery(
                    "update lost by engine".into(),
                ))),
            );
        }
    }
    c.summary
}

impl Commit<'_> {
    /// Which translate executor runs `plan`: inline when the engine has one
    /// shard or the round is a ⊤ update's, sharded otherwise. The measured
    /// reason both exist is in ARCHITECTURE.md §3.
    fn runs_inline(&self, plan: &RoundPlan) -> bool {
        self.inner.config.n_shards == 1 || plan.footprint.is_global()
    }

    /// The executor's name in flight-recorder events.
    fn exec_name(&self, plan: &RoundPlan) -> &'static str {
        if self.runs_inline(plan) {
            "inline"
        } else {
            "sharded"
        }
    }

    /// Delivers an outcome to its ticket and updates counters (including
    /// the admission→ack latency sample).
    fn resolve(&mut self, idx: usize, outcome: UpdateOutcome) {
        let accepted = outcome.is_ok();
        self.inner
            .stats
            .record_outcome(accepted, self.submitted_ats[idx]);
        if accepted {
            self.summary.accepted += 1;
        } else {
            self.summary.rejected += 1;
        }
        if let Some(tx) = self.txs[idx].take() {
            let _ = tx.send(outcome); // receiver may have given up
        }
    }

    /// Plans the next round against the latest snapshot — which stays the
    /// latest until the round publishes, because only a round's own publish
    /// replaces it. Returns `None` if the plan admitted nothing, which a
    /// nonempty queue never does.
    fn plan_next(&mut self) -> Option<RoundPlan> {
        let stats = &self.inner.stats;
        let config = &self.inner.config;
        let current = self.inner.current();
        let t_plan = Instant::now();
        // Adaptive fan-out: the EWMA of realized widths decides how many
        // of the pooled shard writers this round spans (empty assignment
        // lists are never dispatched), and sustained multi-anchor traffic
        // can raise the `//`-path anchor cap. One shard plans for the
        // inline executor.
        let shards = (config.n_shards > 1).then(|| self.fanout.effective_shards());
        let max_cone_anchors = self.fanout.effective_max_cone_anchors();
        stats.adaptive_shards.set(shards.unwrap_or(1) as i64);
        let plan = router::plan_round(
            current.system(),
            &mut self.entries,
            shards,
            config.max_batch,
            max_cone_anchors,
            stats,
        );
        // Dry-run evaluation time inside plan_round is recorded as eval;
        // keep the plan bucket to pure conflict-analysis work.
        stats
            .plan
            .record_duration(t_plan.elapsed().saturating_sub(plan.analysis_eval));
        if let Some(h) = self.hooks {
            h.reached(Stage::Plan);
        }
        if plan.admitted.is_empty() {
            return None;
        }
        stats.rounds.incr();
        stats.recorder().record(
            "round.planned",
            fields![
                admitted: plan.admitted.len(),
                deferred: self.entries.len(),
                multi_cone: plan.multi_cone_admitted,
                exec: self.exec_name(&plan),
            ],
        );
        Some(plan)
    }

    /// The inline translate executor: applies the round's jobs one after
    /// another to a clone of the latest snapshot — the state the plan's dry
    /// runs evaluated against, so their evaluations are reused
    /// (conflict-freeness keeps them exact on the round-mutated working
    /// state too).
    fn translate_inline(&mut self, plan: &mut RoundPlan) -> Translated {
        let stats = &self.inner.stats;
        let jobs: Vec<_> = std::mem::take(&mut plan.assignments)
            .into_iter()
            .flatten()
            .collect();
        if plan.footprint.is_global() {
            stats.global_lane_rounds.incr();
            stats
                .recorder()
                .record("lane.global", fields![idx: jobs[0].idx]);
        }
        stats.record_batch(jobs.len());
        self.summary.batches += 1;
        let mut out = Translated::on(self.inner.current().system().clone());
        // The apply loop *is* an inline round's translation wall clock.
        let t_wall = Instant::now();
        for job in jobs {
            let eval = job.eval.unwrap_or_else(|| {
                // A ⊤ update has no dry run: this is its §3.2 evaluation.
                let t0 = Instant::now();
                let eval = out.working.eval(job.update.path());
                stats.record_eval(eval.scope_nodes, t0.elapsed());
                eval
            });
            let t1 = Instant::now();
            match out.working.apply_deferred(&job.update, job.policy, eval) {
                Ok(done) => out.push_applied(job.idx, done, job.cone_key),
                Err(e) => out.rejected.push((job.idx, e)),
            }
            stats.translate_ns.record_duration(t1.elapsed());
        }
        stats.translate_wall.record_duration(t_wall.elapsed());
        out
    }

    /// The sharded translate executor: dispatches the round's job lists to
    /// the shard pool against the latest snapshot — the one the round was
    /// planned against — waits for every shard, and merges.
    fn translate_sharded(&mut self, plan: &mut RoundPlan) -> Translated {
        let inner = self.inner;
        let pool = inner
            .pool
            .get_or_init(|| ShardPool::new(inner.config.n_shards, Arc::clone(&inner.stats)));
        let bundles = pool.dispatch(&inner.current(), std::mem::take(&mut plan.assignments));
        if let (Some(first), Some(last)) = (
            bundles.iter().map(|b| b.started_at).min(),
            bundles.iter().map(|b| b.finished_at).max(),
        ) {
            inner
                .stats
                .translate_wall
                .record_duration(last.saturating_duration_since(first));
        }
        self.merge_sharded(plan, bundles)
    }

    /// The sharded translate executor's merge half: applies the shard
    /// translations to a clone of the latest snapshot in **submission
    /// order** — re-interning each translation's fresh pairs and remapping
    /// it into the working state's ids — so requeue decisions and base-delta
    /// application order match the sequential semantics.
    fn merge_sharded(&mut self, plan: &RoundPlan, bundles: Vec<ShardBundle>) -> Translated {
        let stats = &self.inner.stats;
        self.summary.batches += bundles.len();
        let mut flat: Vec<(usize, usize, ShardResult)> = Vec::new();
        for b in bundles {
            stats.record_batch(b.results.len());
            // Idle = starvation: how long this shard sat between finishing its
            // previous round of this commit and this round being *dispatched*
            // (zero for its first round) — its round's serial tail and the
            // next plan. The dispatch→pickup delay is deliberately excluded:
            // that is CPU scheduling contention, not publisher-induced
            // idleness, and on a small core count it cannot drop no matter
            // how the commit loop is arranged.
            let idle = self.last_finish[b.shard]
                .map(|prev| b.dispatched_at.saturating_duration_since(prev))
                .unwrap_or_default();
            stats.record_shard_round(b.finished_at.saturating_duration_since(b.started_at), idle);
            self.last_finish[b.shard] = Some(b.finished_at);
            let shard = b.shard;
            flat.extend(b.results.into_iter().map(|(idx, res)| (idx, shard, res)));
        }
        flat.sort_by_key(|(idx, _, _)| *idx);

        let t_merge = Instant::now();
        let mut out = Translated::on(self.inner.current().system().clone());
        // Union of the realized write rows applied so far this round:
        // admission tolerated *planned* write∩write overlap between
        // same-cone peers, so genuine overlap is caught here and the later
        // update requeued for the next round (see `router::plan_round`).
        let mut realized_union = RelFootprint::default();
        for (idx, shard, res) in flat {
            let t = match res {
                ShardResult::Translated(t) => t,
                ShardResult::Reject(e) => {
                    out.rejected.push((idx, e));
                    continue;
                }
                ShardResult::Requeue => {
                    out.requeue.insert(idx);
                    continue;
                }
            };
            // `planned` is idx-sorted (admission preserves submission
            // order); its analysis carries the job's cone-coalescing key,
            // and — in debug builds — the typed footprint the realized
            // writes are asserted against.
            let analysis = plan
                .planned
                .binary_search_by_key(&idx, |(i, _)| *i)
                .ok()
                .map(|s| &plan.planned[s].1);
            debug_assert!(
                analysis.is_some_and(|a| a.rel().covers_writes(&t.rel_footprint)),
                "update {idx}: realized footprint not covered by plan"
            );
            if t.rel_footprint.writes_conflict(&realized_union) {
                // An earlier merge this round realized a write to the same
                // row: submission order wins; this update re-plans against
                // the committed round.
                out.requeue.insert(idx);
                continue;
            }
            let realized_fp = t.rel_footprint.clone();
            match out.working.apply_translated(*t) {
                Ok(done) => {
                    stats.record_shard_updates(shard, 1);
                    out.push_applied(idx, done, analysis.and_then(|a| a.cone_key()));
                    realized_union.absorb(&realized_fp);
                }
                Err(e) => out.rejected.push((idx, e)),
            }
        }
        stats.merge.record_duration(t_merge.elapsed());
        let max_cones = plan
            .planned
            .iter()
            .filter(|(_, a)| a.is_multi_cone())
            .map(|(_, a)| a.n_cones())
            .max()
            .unwrap_or(0);
        self.fanout.observe(out.applied.len(), max_cones);
        out
    }

    /// The serial tail every round ends in, whichever executor translated
    /// it: fold → log → publish → ack, then requeues and revalidation.
    ///
    /// This is the one place the commit invariants live. Write-ahead: the
    /// round's record is appended (and synced, per the policy) before its
    /// snapshot becomes visible, and accepted tickets resolve only after
    /// it is — `WAL(k) ≺ publish(k) ≺ ack(k)`, with read-your-writes as the
    /// consequence; rounds reach here one at a time in plan order, so
    /// appends are epoch-strict. A failed fold or append fails the round's
    /// applied tickets and drops the working state: nothing new is visible,
    /// the previous snapshot stays current, and later rounds proceed. A
    /// round that applied nothing publishes no epoch and appends no record.
    fn finish_round(&mut self, plan: RoundPlan, translated: Translated) {
        let inner = self.inner;
        let stats = &inner.stats;
        let exec = self.exec_name(&plan);
        let Translated {
            mut working,
            mut applied,
            jobs,
            cone_keys,
            rejected,
            requeue,
        } = translated;
        stats.record_round_width(plan.admitted.len(), applied.len());
        if plan.multi_cone_admitted > 0 {
            stats.record_multi_cone_round(plan.multi_cone_admitted, applied.len());
        }
        // What became of each admitted update decides where it goes: the
        // applied ones form the round's log record (`applied` and
        // `admitted` are both idx-sorted; their jobs are gone, so the
        // unwrap moves), the requeued ones re-enter routing, the rejected
        // ones are done.
        let mut logged: Vec<crate::wal::LoggedUpdate> = Vec::with_capacity(applied.len());
        let mut back: Vec<PendingUpdate> = Vec::new();
        let mut ok = applied.iter().map(|(idx, _)| *idx).peekable();
        for pu in plan.admitted {
            if ok.next_if_eq(&pu.idx).is_some() {
                logged.push((Arc::unwrap_or_clone(pu.update), pu.policy));
            } else if requeue.contains(&pu.idx) {
                back.push(pu);
            }
        }
        for (idx, e) in rejected {
            self.resolve(idx, Err(e));
        }

        if !applied.is_empty() {
            // Per-cone fold coalescing: delete jobs admitted under one
            // (hot) cone merge their deferred obligations, so the fold
            // takes the cone's ∆(M,L) once per cone, not once per update.
            let (jobs, sub_rounds) = coalesce_cone_folds(jobs, &cone_keys);
            stats.record_sub_rounds(sub_rounds, applied.len());
            let t_fold = Instant::now();
            let durable = working
                .fold_maintenance(jobs)
                .map_err(|e| ("fold_maintenance", format!("round maintenance failed: {e}")))
                .and_then(|m| {
                    stats.record_maintain(t_fold.elapsed(), &m);
                    inner
                        .log_round(&logged)
                        .map_err(|msg| ("wal_append", msg))?;
                    Ok(m)
                });
            // The record is written: free its updates here, not behind the
            // acks — what a commit frees last, the next reader's first
            // allocation pays to consolidate.
            drop(logged);
            match durable {
                Ok(m) => {
                    self.summary.maintain.absorb(&m);
                    let t_publish = Instant::now();
                    let snap = inner.publish(working);
                    stats.publish.record_duration(t_publish.elapsed());
                    if let Some(h) = self.hooks {
                        h.reached(Stage::Publish);
                    }
                    stats.recorder().record(
                        "round.committed",
                        fields![
                            epoch: snap.epoch(),
                            updates: applied.len(),
                            exec: exec,
                        ],
                    );
                    if let [(_, report)] = applied.as_mut_slice() {
                        // A singleton round attributes maintenance exactly.
                        report.maintain = m;
                    }
                    for (idx, report) in applied {
                        self.resolve(idx, Ok(report));
                    }
                }
                Err((stage, msg)) => {
                    stats.record_round_failure(stage, applied.len());
                    for (idx, _) in applied {
                        let e = UpdateError::Rel(RelError::MalformedQuery(msg.clone()));
                        self.resolve(idx, Err(e));
                    }
                }
            }
        }

        // Requeued updates re-enter routing, in submission order.
        if !back.is_empty() {
            stats
                .recorder()
                .record("round.requeued", fields![count: back.len()]);
            stats.requeued.add(back.len() as u64);
            back.append(&mut self.entries);
            back.sort_by_key(|pu| pu.idx);
            self.entries = back;
        }
        // Whatever the round committed invalidates cached analyses whose
        // footprint it touched. Doing so for *failed* rounds too is
        // conservative — a dropped cache only costs a re-analysis.
        for e in self.entries.iter_mut() {
            if e.cached
                .as_ref()
                .is_some_and(|c| !c.survives(&plan.footprint))
            {
                e.cached = None;
            }
        }
    }
}
