//! The round pipeline: the one commit path. Every drained queue commits as
//! a sequence of conflict-free *rounds*, one at a time, and every round runs
//! the same stages on the committing thread:
//!
//! ```text
//! plan → translate → fold → log → publish → ack
//! ```
//!
//! - **plan** — [`crate::router::plan_round`] admits a conflict-free round
//!   against the latest published snapshot (the only planner);
//! - **translate** — the round's jobs apply one after another
//!   (`apply_deferred`) to a working clone of that snapshot, each reusing
//!   the evaluation its plan's dry run made;
//! - **fold → log → publish → ack** — the serial tail
//!   (`Commit::finish_round`): one folded ∆(M,L) pass over the round's
//!   jobs in application order, one WAL append, one publication, then
//!   ticket resolution and revalidation of cached analyses.
//!   `WAL(k) ≺ publish(k) ≺ ack(k)`
//!   and read-your-writes live there and nowhere else. A round that applied
//!   nothing publishes no epoch and appends no record.
//!
//! A round is planned only after its predecessor has published
//! (ARCHITECTURE.md §3), so the snapshot a plan ran against is the latest
//! one until the round itself publishes, and the working state is cloned
//! from it. The working state is a local, moved into the publication on
//! success and dropped on any failure — so a failed fold or append leaves
//! the previous snapshot current and later rounds proceed.
//!
//! Deterministic schedules for tests inject
//! [`crate::pipeline::StageHooks`] through the config; the coordinator
//! announces each round's plan and publish and blocks on held gates
//! (`crates/engine/tests/pipeline.rs`).

use crate::engine::{CommitSummary, Inner, Pending};
use crate::obs::fields;
use crate::pipeline::{Stage, StageHooks};
use crate::router::{self, PendingUpdate, RoundPlan};
use rxview_core::{DeferredMaintenance, UpdateError, UpdateOutcome, UpdateReport, XmlViewSystem};
use rxview_relstore::RelError;
use std::sync::mpsc;
use std::time::Instant;

/// What a round's translation leaves for the serial tail: the round's
/// working state with every applied update's ∆R/∆V in it, and what became
/// of each admitted update.
struct Translated {
    /// The latest snapshot's system plus this round's applied updates;
    /// published by the tail, or dropped with the round.
    working: XmlViewSystem,
    /// Applied updates in submission order, with their deferred ∆(M,L)
    /// obligations alongside.
    applied: Vec<(usize, UpdateReport)>,
    jobs: Vec<DeferredMaintenance>,
    rejected: Vec<(usize, UpdateError)>,
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
}

/// Commits a drained queue through the round pipeline (see the module
/// docs). Called by [`crate::Engine::commit_pending`] with the commit mutex
/// held.
pub(crate) fn commit(inner: &Inner, pending: Vec<Pending>) -> CommitSummary {
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
        let translated = c.translate(&mut plan);
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
        let current = self.inner.current();
        let t_plan = Instant::now();
        let plan = router::plan_round(
            current.system(),
            &mut self.entries,
            self.inner.config.max_batch,
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
        if plan.jobs.is_empty() {
            return None;
        }
        stats.rounds.incr();
        stats.recorder().record(
            "round.planned",
            fields![
                admitted: plan.jobs.len(),
                deferred: self.entries.len(),
                multi_cone: plan.multi_cone_admitted,
            ],
        );
        Some(plan)
    }

    /// Translates the round: applies its jobs one after another to a clone
    /// of the latest snapshot — the state the plan's dry runs evaluated
    /// against, so their evaluations are reused (conflict-freeness keeps
    /// them exact on the round-mutated working state too).
    fn translate(&mut self, plan: &mut RoundPlan) -> Translated {
        let stats = &self.inner.stats;
        if plan.footprint.is_global() {
            stats.global_lane_rounds.incr();
            stats
                .recorder()
                .record("lane.global", fields![idx: plan.jobs[0].pending.idx]);
        }
        stats.record_batch(plan.jobs.len());
        self.summary.batches += 1;
        let mut out = Translated {
            working: self.inner.current().system().clone(),
            applied: Vec::new(),
            jobs: Vec::new(),
            rejected: Vec::new(),
        };
        // The apply loop *is* a round's translation wall clock.
        let t_wall = Instant::now();
        for job in &mut plan.jobs {
            let pu = &job.pending;
            let eval = job.eval.take().unwrap_or_else(|| {
                // A ⊤ update has no dry run: this is its §3.2 evaluation.
                let t0 = Instant::now();
                let eval = out.working.eval(pu.update.path());
                stats.record_eval(eval.scope_nodes, t0.elapsed());
                eval
            });
            let t1 = Instant::now();
            match out.working.apply_deferred(&pu.update, pu.policy, eval) {
                Ok((report, maintenance)) => {
                    out.applied.push((pu.idx, report));
                    out.jobs.push(maintenance);
                }
                Err(e) => out.rejected.push((pu.idx, e)),
            }
            stats.translate_ns.record_duration(t1.elapsed());
        }
        stats.translate_wall.record_duration(t_wall.elapsed());
        out
    }

    /// The serial tail every round ends in: fold → log → publish → ack,
    /// then revalidation of cached analyses.
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
        let Translated {
            mut working,
            mut applied,
            jobs,
            rejected,
        } = translated;
        stats.record_round_width(plan.jobs.len(), applied.len());
        if plan.multi_cone_admitted > 0 {
            stats.record_multi_cone_round(plan.multi_cone_admitted, applied.len());
        }
        // The applied updates form the round's log record (`applied` and
        // the plan's jobs are both in submission order); the rejected ones
        // are done.
        let mut logged: Vec<crate::wal::LoggedUpdate> = Vec::with_capacity(applied.len());
        let mut ok = applied.iter().map(|(idx, _)| *idx).peekable();
        for job in plan.jobs {
            let pu = job.pending;
            if ok.next_if_eq(&pu.idx).is_some() {
                logged.push((pu.update, pu.policy));
            }
        }
        for (idx, e) in rejected {
            self.resolve(idx, Err(e));
        }

        if !applied.is_empty() {
            // The jobs go in application order, as recovery replays them:
            // how a round's ∆(M,L) work is grouped is `fold_maintenance`'s
            // business alone.
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
                        fields![epoch: snap.epoch(), updates: applied.len()],
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
