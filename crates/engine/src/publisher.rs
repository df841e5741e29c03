//! The round pipeline: the one commit path. A drained queue commits as a
//! sequence of *rounds* — consecutive prefixes of the queue, up to
//! [`MAX_BATCH`] updates each, in submission order — one at a time, and
//! every round runs the same stages on the committing thread:
//!
//! ```text
//! (eval → apply → fold) per update → log → publish → ack
//! ```
//!
//! Every queued update was admitted at `submit` (`XmlViewSystem::admit`:
//! schema-checked, its plan resolved), on the submitter's thread; an
//! update admission refused never reaches a round.
//!
//! - **the apply loop** — each update in turn is evaluated against the
//!   round's working state through the plan it was admitted with
//!   (`eval_admitted`), applied with its maintenance deferred
//!   (`apply_admitted`), and folded on its own
//!   (`fold_maintenance(vec![job])`): the paper's one-update-at-a-time
//!   semantics (§3.2–§3.4), so every update sees the state the one before
//!   it left. Nothing is planned, validated or looked up: a round is
//!   conflict-free by construction.
//! - **log → publish → ack** — the serial tail (`Commit::finish_round`):
//!   one WAL append, one publication, then ticket resolution.
//!   `WAL(k) ≺ publish(k) ≺ ack(k)`
//!   and read-your-writes live there and nowhere else. A round that applied
//!   nothing publishes no epoch and appends no record.
//!
//! A round is formed only after its predecessor has published
//! (ARCHITECTURE.md §3), and its working state is cloned from the latest
//! snapshot. The working state is a local, moved into the publication on
//! success and dropped if the log append fails — the one way a round can
//! fail — so the previous snapshot stays current and later rounds proceed.
//!
//! Deterministic schedules for tests inject
//! [`crate::pipeline::StageHooks`] through the config; the coordinator
//! announces each round's formation and publish and blocks on held gates
//! (`crates/engine/tests/pipeline.rs`).

use crate::engine::{CommitSummary, Inner, Pending, Reply, MAX_BATCH};
use crate::obs::fields;
use crate::pipeline::{Stage, StageHooks};
use crate::wal::LoggedUpdate;
use rxview_core::{MaintainReport, UpdateError, UpdateOutcome, UpdateReport, XmlViewSystem};
use rxview_relstore::RelError;
use std::time::{Duration, Instant};

/// What a round's apply loop leaves for the serial tail.
struct Applied {
    /// The latest snapshot's system plus this round's applied updates, each
    /// folded; published by the tail, or dropped with the round.
    working: XmlViewSystem,
    /// Applied updates in submission order, each with its own fold in its
    /// report.
    reports: Vec<(Reply, UpdateReport)>,
    /// The round's log record: the applied updates, in the same order.
    logged: Vec<LoggedUpdate>,
    /// The round's folds, summed.
    maintain: MaintainReport,
}

/// One `commit_pending` call's state.
struct Commit<'a> {
    inner: &'a Inner,
    hooks: Option<&'a StageHooks>,
    summary: CommitSummary,
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
    };
    let mut queue = pending.into_iter();
    loop {
        let round: Vec<Pending> = queue.by_ref().take(MAX_BATCH).collect();
        if round.is_empty() {
            break;
        }
        let applied = c.apply_round(round);
        c.finish_round(applied);
    }
    c.summary
}

impl Commit<'_> {
    /// Delivers an outcome to its ticket and counts it.
    fn resolve(&mut self, reply: Reply, outcome: UpdateOutcome) {
        if reply.resolve(&self.inner.stats, outcome) {
            self.summary.accepted += 1;
        } else {
            self.summary.rejected += 1;
        }
    }

    /// The apply loop: evaluates, applies and folds the round's updates one
    /// after another on a clone of the latest snapshot, each through the
    /// plan it was admitted with. A rejected update is resolved here and
    /// leaves nothing behind.
    fn apply_round(&mut self, round: Vec<Pending>) -> Applied {
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
        };
        // The loop's wall clock, less its evaluations and folds, is the
        // round's translation: the three rows partition it.
        let t_wall = Instant::now();
        let mut eval_and_fold = Duration::ZERO;
        for p in round {
            let t_eval = Instant::now();
            let eval = out.working.eval_admitted(&p.admitted);
            let d_eval = t_eval.elapsed();
            stats.record_eval(eval.scope_nodes, d_eval);
            let t_apply = Instant::now();
            let applied = out.working.apply_admitted(&p.update, p.policy, eval);
            stats.translate_ns.record_duration(t_apply.elapsed());
            let (mut report, job) = match applied {
                Ok(applied) => applied,
                Err(e) => {
                    eval_and_fold += d_eval;
                    self.resolve(p.reply, Err(e));
                    continue;
                }
            };
            let t_fold = Instant::now();
            let Ok(m) = out.working.fold_maintenance(vec![job]);
            let d_fold = t_fold.elapsed();
            eval_and_fold += d_eval + d_fold;
            stats.record_maintain(d_fold, &m);
            out.maintain.absorb(&m);
            report.maintain = m;
            out.reports.push((p.reply, report));
            out.logged.push((p.update, p.policy));
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
    /// appends are epoch-strict. A failed append fails the round's applied
    /// tickets, records `round.failed` and drops the working state: nothing
    /// new is visible,
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
        } = applied;
        if reports.is_empty() {
            return;
        }
        let durable = inner.log_round(&logged);
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
                for (reply, report) in reports {
                    self.resolve(reply, Ok(report));
                }
            }
            Err(msg) => {
                stats.recorder().record(
                    "round.failed",
                    fields![reason: "wal_append", updates: reports.len()],
                );
                for (reply, _) in reports {
                    let e = UpdateError::Rel(RelError::MalformedQuery(msg.clone()));
                    self.resolve(reply, Err(e));
                }
            }
        }
    }
}
