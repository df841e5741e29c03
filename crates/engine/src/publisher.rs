//! The round pipeline: the one commit path. A drained queue commits as a
//! sequence of *rounds* — consecutive prefixes of the queue, up to
//! `max_batch` updates each, in submission order — one at a time, and
//! every round runs the same stages on the committing thread:
//!
//! ```text
//! (eval → apply → fold) per update → log → publish → ack
//! ```
//!
//! - **the apply loop** — each update in turn is evaluated against the
//!   round's working state (`XmlViewSystem::eval`), applied with its
//!   maintenance deferred (`apply_deferred`), and folded on its own
//!   (`fold_maintenance(vec![job])`): the paper's one-update-at-a-time
//!   semantics (§3.2–§3.4), so every update sees the state the one before
//!   it left. Nothing is planned: a round is conflict-free by construction.
//! - **log → publish → ack** — the serial tail (`Commit::finish_round`):
//!   one WAL append, one publication, then ticket resolution.
//!   `WAL(k) ≺ publish(k) ≺ ack(k)`
//!   and read-your-writes live there and nowhere else. A round that applied
//!   nothing publishes no epoch and appends no record.
//!
//! A round is formed only after its predecessor has published
//! (ARCHITECTURE.md §3), and its working state is cloned from the latest
//! snapshot. The working state is a local, moved into the publication on
//! success and dropped on any failure — so a failed fold or append leaves
//! the previous snapshot current and later rounds proceed.
//!
//! Deterministic schedules for tests inject
//! [`crate::pipeline::StageHooks`] through the config; the coordinator
//! announces each round's formation and publish and blocks on held gates
//! (`crates/engine/tests/pipeline.rs`).

use crate::engine::{CommitSummary, Inner, Pending};
use crate::obs::fields;
use crate::pipeline::{Stage, StageHooks};
use crate::wal::LoggedUpdate;
use rxview_core::{
    MaintainReport, SideEffectPolicy, UpdateError, UpdateOutcome, UpdateReport, XmlUpdate,
    XmlViewSystem,
};
use rxview_relstore::RelError;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A pending update inside one commit, keyed by its submission index. The
/// round that applies it builds its replay-log record from it.
struct PendingUpdate {
    idx: usize,
    update: XmlUpdate,
    policy: SideEffectPolicy,
}

/// What a round's apply loop leaves for the serial tail.
struct Applied {
    /// The latest snapshot's system plus this round's applied updates, each
    /// folded; published by the tail, or dropped with the round.
    working: XmlViewSystem,
    /// Applied updates in submission order, each with its own fold in its
    /// report.
    reports: Vec<(usize, UpdateReport)>,
    /// The round's log record: the applied updates, in the same order.
    logged: Vec<LoggedUpdate>,
    /// The round's folds, summed.
    maintain: MaintainReport,
    /// A fold failed: the working state is not to be published.
    failed: Option<String>,
}

/// One `commit_pending` call's state: the ticket table (reply channel and
/// admission timestamp per update, indexed by submission order).
struct Commit<'a> {
    inner: &'a Inner,
    hooks: Option<&'a StageHooks>,
    summary: CommitSummary,
    txs: Vec<Option<mpsc::Sender<UpdateOutcome>>>,
    submitted_ats: Vec<Instant>,
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
    };
    let mut entries = Vec::with_capacity(pending.len());
    for (idx, p) in pending.into_iter().enumerate() {
        c.submitted_ats.push(p.submitted_at);
        c.txs.push(Some(p.tx));
        entries.push(PendingUpdate {
            idx,
            update: p.update,
            policy: p.policy,
        });
    }

    let mut queue = entries.into_iter();
    loop {
        let round: Vec<PendingUpdate> = queue.by_ref().take(inner.config.max_batch).collect();
        if round.is_empty() {
            break;
        }
        let applied = c.apply_round(round);
        c.finish_round(applied);
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

    /// The apply loop: evaluates, applies and folds the round's updates one
    /// after another on a clone of the latest snapshot. A rejected update is
    /// resolved here and leaves nothing behind; after a failed fold the
    /// rest of the round fails with it.
    fn apply_round(&mut self, round: Vec<PendingUpdate>) -> Applied {
        let stats = &self.inner.stats;
        if let Some(h) = self.hooks {
            h.reached(Stage::Plan);
        }
        stats.rounds.incr();
        stats
            .recorder()
            .record("round.planned", fields![admitted: round.len()]);
        stats.record_batch(round.len());
        self.summary.batches += 1;
        let width = round.len();
        let mut out = Applied {
            working: self.inner.current().system().clone(),
            reports: Vec::with_capacity(width),
            logged: Vec::with_capacity(width),
            maintain: MaintainReport::default(),
            failed: None,
        };
        // The loop's wall clock, less its evaluations and folds, is the
        // round's translation: the three rows partition it.
        let t_wall = Instant::now();
        let mut eval_and_fold = Duration::ZERO;
        for pu in round {
            if let Some(msg) = &out.failed {
                let e = UpdateError::Rel(RelError::MalformedQuery(msg.clone()));
                self.resolve(pu.idx, Err(e));
                continue;
            }
            let t_eval = Instant::now();
            let eval = out.working.eval(pu.update.path());
            let d_eval = t_eval.elapsed();
            stats.record_eval(eval.scope_nodes, d_eval);
            let t_apply = Instant::now();
            let applied = out.working.apply_deferred(&pu.update, pu.policy, eval);
            stats.translate_ns.record_duration(t_apply.elapsed());
            let (mut report, job) = match applied {
                Ok(applied) => applied,
                Err(e) => {
                    eval_and_fold += d_eval;
                    self.resolve(pu.idx, Err(e));
                    continue;
                }
            };
            let t_fold = Instant::now();
            let folded = out.working.fold_maintenance(vec![job]);
            let d_fold = t_fold.elapsed();
            eval_and_fold += d_eval + d_fold;
            match folded {
                Ok(m) => {
                    stats.record_maintain(d_fold, &m);
                    out.maintain.absorb(&m);
                    report.maintain = m;
                    out.reports.push((pu.idx, report));
                    out.logged.push((pu.update, pu.policy));
                }
                Err(e) => {
                    let msg = format!("update maintenance failed: {e}");
                    stats.record_round_failure("fold_maintenance", out.reports.len() + 1);
                    let e = UpdateError::Rel(RelError::MalformedQuery(msg.clone()));
                    self.resolve(pu.idx, Err(e));
                    out.failed = Some(msg);
                }
            }
        }
        stats
            .translate_wall
            .record_duration(t_wall.elapsed().saturating_sub(eval_and_fold));
        stats.record_round_width(width, out.reports.len());
        out
    }

    /// The serial tail every round ends in: log → publish → ack.
    ///
    /// This is the one place the commit invariants live. Write-ahead: the
    /// round's record is appended (and synced, per the policy) before its
    /// snapshot becomes visible, and accepted tickets resolve only after
    /// it is — `WAL(k) ≺ publish(k) ≺ ack(k)`, with read-your-writes as the
    /// consequence; rounds reach here one at a time in queue order, so
    /// appends are epoch-strict. A failed fold or append fails the round's
    /// applied tickets and drops the working state: nothing new is visible,
    /// the previous snapshot stays current, and later rounds proceed. A
    /// round that applied nothing publishes no epoch and appends no record.
    fn finish_round(&mut self, applied: Applied) {
        let inner = self.inner;
        let stats = &inner.stats;
        let Applied {
            working,
            reports,
            logged,
            maintain,
            failed,
        } = applied;
        if reports.is_empty() {
            return;
        }
        let durable = match failed {
            Some(msg) => Err(msg),
            None => inner
                .log_round(&logged)
                .inspect_err(|_| stats.record_round_failure("wal_append", reports.len())),
        };
        // The record is written: free its updates here, not behind the
        // acks — what a commit frees last, the next reader's first
        // allocation pays to consolidate.
        drop(logged);
        match durable {
            Ok(()) => {
                self.summary.maintain.absorb(&maintain);
                let t_publish = Instant::now();
                let snap = inner.publish(working);
                stats.publish.record_duration(t_publish.elapsed());
                if let Some(h) = self.hooks {
                    h.reached(Stage::Publish);
                }
                stats.recorder().record(
                    "round.committed",
                    fields![epoch: snap.epoch(), updates: reports.len()],
                );
                for (idx, report) in reports {
                    self.resolve(idx, Ok(report));
                }
            }
            Err(msg) => {
                for (idx, _) in reports {
                    let e = UpdateError::Rel(RelError::MalformedQuery(msg.clone()));
                    self.resolve(idx, Err(e));
                }
            }
        }
    }
}
