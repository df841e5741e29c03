//! The traced run's per-layer numbers: the engine's own public ledger read
//! against the measured commit wall, and a *library replay* of the burst's
//! first updates on a private [`XmlViewSystem`], layer by layer in the
//! paper's order, one span per call.

use crate::catalogue::Measured;
use crate::streams::Op;
use crate::summary::{mean, median, ms};
use crate::trace::{Recorder, NO_OP};
use crate::workloads::Spec;
use rxview_core::{
    decode_system, encode_system, put_update, DagEval, SideEffectPolicy, XmlViewSystem,
};
use rxview_engine::{evaluation_scope, Analysis, BatchFootprint, EngineReport};
use rxview_relstore::codec::Reader;
use rxview_xmlkit::parse_xpath;
use std::time::{Duration, Instant};

/// Burst windows the library replay covers (2 048 updates at `W` = 256).
const REPLAY_WINDOWS: usize = 8;

/// Rounds the library replay runs at most. Conflicting traffic cuts rounds
/// short (a hot anchor's chain is one update per round), and every round
/// pays an O(view) clone, fold and release.
const REPLAY_ROUNDS: usize = 64;

/// The full-view evaluation is a probe the commit path does not run for
/// anchored updates, and at ~10 ms a call the costliest thing in the
/// replay: one update in this many gets it.
const FULL_EVAL_EVERY: usize = 16;

fn span_mean_us(rec: &Recorder, name: &str) -> f64 {
    mean(&rec.durations(name)) / 1e3
}

fn span_sum_s(rec: &Recorder, name: &str) -> f64 {
    rec.durations(name).iter().sum::<f64>() / 1e9
}

/// Layer metrics from the session's engine-level spans and from
/// `engine.stats().report()`, plus the printed ledger: the phases the
/// engine attributes, their sum, the commit wall the benchmark measured
/// around the same calls, and the remainder nobody accounts for.
pub fn engine_level(
    rec: &Recorder,
    ledger: &EngineReport,
    commit_wall: Duration,
    layers: &mut Vec<Measured>,
    report: &mut Vec<String>,
) {
    layers.push(("atg.publish_s", span_sum_s(rec, "atg.publish")));
    layers.push(("core.topo.compute_s", span_sum_s(rec, "core.topo.compute")));
    layers.push((
        "core.reach.compute_s",
        span_sum_s(rec, "core.reach.compute"),
    ));
    layers.push((
        "workload.generate_s",
        span_sum_s(rec, "workload.synthetic_database") + span_sum_s(rec, "workload.stream"),
    ));

    let b = ledger.phase_breakdown();
    let phases = [
        ("plan", b.plan),
        // On the single-writer path the dry-run evaluation is booked
        // apart from `plan`; on the sharded path shards evaluate inside
        // their translate wall and this line double-counts a little.
        ("eval", ledger.phases.eval),
        ("translate", b.translate),
        ("merge", b.merge),
        ("fold", b.fold),
        ("wal_append", b.wal_append),
        ("fsync", b.fsync),
        ("publish", b.publish),
    ];
    let attributed: Duration = phases.iter().map(|(_, d)| *d).sum();
    let wall = commit_wall.as_secs_f64();
    let unattributed = wall - attributed.as_secs_f64();
    report.push(format!(
        "engine ledger vs measured commit wall ({wall:.3} s over {} commits):",
        ledger.commits
    ));
    for (name, d) in phases {
        report.push(format!(
            "  {name:<12} {:>9.3} s {:>6.1} %",
            d.as_secs_f64(),
            100.0 * d.as_secs_f64() / wall
        ));
    }
    report.push(format!(
        "  {:<12} {unattributed:>9.3} s {:>6.1} %  (commit wall - attributed phases)",
        "unattributed",
        100.0 * unattributed / wall
    ));
    layers.push(("engine.commit.unattributed_s", unattributed));
    layers.push(("engine.ledger.plan_s", b.plan.as_secs_f64()));
    layers.push(("engine.ledger.translate_s", b.translate.as_secs_f64()));
    layers.push(("engine.ledger.merge_s", b.merge.as_secs_f64()));
    layers.push(("engine.ledger.fold_s", b.fold.as_secs_f64()));
    layers.push(("engine.ledger.wal_append_s", b.wal_append.as_secs_f64()));
    layers.push(("engine.ledger.fsync_s", b.fsync.as_secs_f64()));
    layers.push(("engine.ledger.publish_s", b.publish.as_secs_f64()));
    layers.push(("engine.ledger.rounds", ledger.width_rounds as f64));
    layers.push(("engine.ledger.requeued", ledger.requeued as f64));
    layers.push(("engine.ledger.fission_admits", ledger.fission_admits as f64));
    layers.push(("engine.ledger.fission_denies", ledger.fission_denies as f64));
    layers.push((
        "engine.ledger.mean_realized_width",
        ledger.mean_realized_width(),
    ));
    layers.push((
        "engine.ledger.template_hit_rate",
        ledger.template_cache.hit_rate(),
    ));
    layers.push((
        "engine.ledger.shard_idle_fraction",
        ledger.shard_idle_fraction(),
    ));
    layers.push(("engine.ledger.overlap_fraction", b.overlap_fraction()));
}

/// What the replay learned per update, beyond its spans.
#[derive(Default)]
struct PerOp {
    translate_us: Vec<f64>,
    eval_in_apply_us: Vec<f64>,
    delete_translate_us: Vec<f64>,
    insert_translate_us: Vec<f64>,
    sat_used: usize,
    scope_nodes: Vec<f64>,
    global: usize,
    multi_cone: usize,
    update_bytes: Vec<f64>,
}

/// Replays `ops` on `sys` the way the single-writer commit loop does — a
/// round is a snapshot clone, then per update analyse → check → evaluate
/// (scoped to the anchor cone where the analysis allows) → translate and
/// apply with maintenance deferred, then one folded ∆(M,L) pass and the
/// snapshot's release — cutting the round at the first update whose
/// footprint conflicts with it, so the result equals one-at-a-time
/// application. Returns the accept/reject outcome per update replayed
/// (all of `ops`, or as many as `max_rounds` rounds took).
fn replay(
    sys: &mut XmlViewSystem,
    ops: &[Op],
    window: usize,
    max_rounds: usize,
    rec: &mut Recorder,
    per_op: &mut PerOp,
    folds: &mut Vec<rxview_core::MaintainReport>,
) -> Vec<bool> {
    let mut accepted = Vec::with_capacity(ops.len());
    // Mirrors `I` so `Database::apply` can be timed on its own (its first
    // writes pay the copy that unshares it from the system).
    let mut scratch = sys.base().clone();
    let mut buf = Vec::new();
    let mut i = 0;
    let mut rounds = 0;
    while i < ops.len() && rounds < max_rounds {
        rounds += 1;
        let round = rec.enter("replay.round", NO_OP);
        let pin = rec.time("engine.snapshot.clone", NO_OP, || sys.clone());
        let mut foot = BatchFootprint::default();
        let mut jobs = Vec::new();
        let mut in_round = 0;
        while i < ops.len() && in_round < window {
            let op = &ops[i];
            let id = i as u32;
            let text = op.update.path().to_string();
            let parsed = rec.time("xmlkit.parse_xpath", id, || parse_xpath(&text));
            debug_assert!(parsed.is_ok(), "printed paths parse back");
            let path = op.update.path();
            let dtd = pin.view().atg().dtd();
            rec.time("core.plan.lookup", id, || {
                std::hint::black_box(pin.view().plan_cache().plan(dtd, path));
            });
            let mut a = rec.time("engine.analyze.of", id, || Analysis::of(&pin, &op.update));
            if op.policy != SideEffectPolicy::Proceed {
                a.demote_to_cone(); // as the engine does for `Abort`
            }
            let s = rec.enter("engine.analyze.check", id);
            let admit = in_round == 0 || foot.check(&a, true).admits();
            if admit {
                foot.absorb(&a);
            }
            rec.exit(s);
            if !admit {
                break; // round boundary; re-analysed against the next snapshot
            }
            per_op.global += usize::from(a.is_global());
            per_op.multi_cone += usize::from(a.is_multi_cone());
            let s = rec.enter("core.eval.scoped", id);
            let scope = evaluation_scope(&pin, path);
            let eval: DagEval = match &scope {
                Some(scope) => pin.evaluate_scoped(path, scope),
                None => pin.evaluate(path),
            };
            rec.exit(s);
            per_op
                .scope_nodes
                .push(scope.map_or(pin.topo().len(), |s| s.len()) as f64);
            if i % FULL_EVAL_EVERY == 0 {
                rec.time("core.eval.full", id, || {
                    std::hint::black_box(pin.evaluate(path));
                });
            }
            buf.clear();
            rec.time("core.codec.put_update", id, || {
                put_update(&mut buf, &op.update)
            });
            per_op.update_bytes.push(buf.len() as f64);
            // The first write after a clone that is still alive pays the
            // copy-on-write of whatever it touches.
            let name = if in_round == 0 {
                "engine.snapshot.cow_first_write"
            } else {
                "core.apply_deferred"
            };
            let s = rec.enter(name, id);
            let applied = sys.apply_deferred(&op.update, op.policy, eval);
            rec.exit(s);
            match applied {
                Ok((report, job)) => {
                    let translate = report.timings.translate.as_secs_f64() * 1e6;
                    per_op.translate_us.push(translate);
                    per_op
                        .eval_in_apply_us
                        .push(report.timings.eval.as_secs_f64() * 1e6);
                    if op.update.is_insert() {
                        per_op.insert_translate_us.push(translate);
                        per_op.sat_used += usize::from(report.sat_used);
                    } else {
                        per_op.delete_translate_us.push(translate);
                    }
                    rec.time("relstore.apply", id, || {
                        scratch
                            .apply(&report.delta_r)
                            .expect("the mirror accepts what the base accepted");
                    });
                    jobs.push(job);
                    accepted.push(true);
                }
                Err(_) => accepted.push(false),
            }
            i += 1;
            in_round += 1;
        }
        let fold = rec.time("core.fold", NO_OP, || {
            sys.fold_maintenance(jobs).expect("fold of applied updates")
        });
        folds.push(fold);
        rec.time("engine.snapshot.release", NO_OP, || drop(pin));
        rec.exit(round);
    }
    accepted
}

/// Runs the library replay of the burst's first [`REPLAY_WINDOWS`] windows and
/// reports its layer metrics and self-time table. Returns one line per
/// update whose outcome differs from what the engine's ticket said. `sys`
/// is the state the burst started in.
pub fn library_replay(
    spec: &Spec,
    rec: &mut Recorder,
    mut sys: XmlViewSystem,
    burst: &[Op],
    engine_outcomes: &[bool],
    layers: &mut Vec<Measured>,
    report: &mut Vec<String>,
) -> Vec<String> {
    let ops = &burst[..burst.len().min(REPLAY_WINDOWS * spec.window)];
    let cache_before = sys.view().plan_cache().stats();
    let mut per_op = PerOp::default();
    let mut folds = Vec::new();
    let root = rec.enter("replay", NO_OP);
    let outcomes = replay(
        &mut sys,
        ops,
        spec.window,
        REPLAY_ROUNDS,
        rec,
        &mut per_op,
        &mut folds,
    );
    let ops = &ops[..outcomes.len()];
    rec.exit(root);
    let cache = sys.view().plan_cache().stats().delta_since(&cache_before);

    let n = ops.len() as f64;
    let us = |name: &str| span_mean_us(rec, name);
    layers.push(("xmlkit.parse_xpath_us", us("xmlkit.parse_xpath")));
    layers.push(("core.plan.lookup_us", us("core.plan.lookup")));
    layers.push(("core.plan.hit_rate", cache.hit_rate()));
    layers.push(("engine.analyze.of_us", us("engine.analyze.of")));
    layers.push(("engine.analyze.check_us", us("engine.analyze.check")));
    layers.push(("engine.analyze.global_share", per_op.global as f64 / n));
    layers.push((
        "engine.analyze.multi_cone_share",
        per_op.multi_cone as f64 / n,
    ));
    layers.push(("core.eval.scoped_us", us("core.eval.scoped")));
    layers.push(("core.eval.full_us", us("core.eval.full")));
    layers.push(("core.eval.scope_nodes", mean(&per_op.scope_nodes)));
    layers.push(("core.apply_deferred_us", us("core.apply_deferred")));
    layers.push(("core.translate_us", mean(&per_op.translate_us)));
    layers.push(("core.eval_in_apply_us", mean(&per_op.eval_in_apply_us)));
    layers.push((
        "core.rel_delete.translate_us",
        mean(&per_op.delete_translate_us),
    ));
    layers.push((
        "core.rel_insert.translate_us",
        mean(&per_op.insert_translate_us),
    ));
    layers.push((
        "core.rel_insert.sat_used_share",
        per_op.sat_used as f64 / per_op.insert_translate_us.len().max(1) as f64,
    ));
    layers.push(("relstore.apply_us", us("relstore.apply")));
    layers.push(("core.fold_us", us("core.fold")));
    let rounds = folds.len().max(1) as f64;
    layers.push((
        "core.fold.m_rewrite_us",
        folds.iter().map(|f| f.m_rewrite_ns).sum::<u64>() as f64 / 1e3 / rounds,
    ));
    layers.push((
        "core.fold.l_splice_us",
        folds.iter().map(|f| f.l_splice_ns).sum::<u64>() as f64 / 1e3 / rounds,
    ));
    layers.push((
        "core.fold.cone_folds",
        folds.iter().map(|f| f.cone_folds).sum::<u64>() as f64,
    ));
    layers.push(("engine.snapshot.clone_us", us("engine.snapshot.clone")));
    layers.push((
        "engine.snapshot.cow_first_write_us",
        us("engine.snapshot.cow_first_write"),
    ));
    layers.push(("engine.snapshot.release_us", us("engine.snapshot.release")));
    layers.push(("core.codec.put_update_us", us("core.codec.put_update")));
    layers.push(("core.codec.update_bytes", mean(&per_op.update_bytes)));

    // Checkpoint codec on the replay's final state: one-shot timings, so
    // the median of three.
    let atg = sys.view().atg().clone();
    let mut bytes = Vec::new();
    let (mut enc_ms, mut dec_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        bytes.clear();
        let t = Instant::now();
        rec.time("core.codec.encode_system", NO_OP, || {
            encode_system(&sys, &mut bytes)
        });
        enc_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let decoded = rec.time("core.codec.decode_system", NO_OP, || {
            decode_system(&atg, &mut Reader::new(&bytes))
        });
        dec_ms.push(ms(t.elapsed()));
        assert!(decoded.is_ok(), "an encoded system decodes");
    }
    layers.push(("core.codec.encode_system_ms", median(&enc_ms)));
    layers.push(("core.codec.decode_system_ms", median(&dec_ms)));
    layers.push(("core.codec.system_bytes", bytes.len() as f64));
    layers.push(("core.reach.pairs", sys.reach().n_pairs() as f64));

    // The self-time table: every row is a share of the replay's wall, and
    // the rows sum to it.
    let times = rec.self_times(root);
    let wall_ns = times.get("replay").map_or(0, |t| t.total_ns).max(1) as f64;
    let mut rows: Vec<_> = times.iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    report.push(format!(
        "library replay: {} updates in {} rounds, {:.3} s; self time by layer:",
        ops.len(),
        folds.len(),
        wall_ns / 1e9
    ));
    let mut sum = 0.0;
    for (name, t) in rows {
        let share = 100.0 * t.self_ns as f64 / wall_ns;
        sum += share;
        let label = match *name {
            "replay" | "replay.round" => format!("{name} (loop, unaccounted)"),
            _ => (*name).to_owned(),
        };
        report.push(format!(
            "  {label:<36} {:>7} calls {:>10.3} ms {share:>6.2} %",
            t.count,
            t.self_ns as f64 / 1e6
        ));
    }
    report.push(format!("  {:<36} {:>32.2} %", "sum", sum));
    let loop_ns: u64 = ["replay", "replay.round"]
        .iter()
        .filter_map(|n| times.get(n))
        .map(|t| t.self_ns)
        .sum();
    layers.push(("replay.accounted_share", 1.0 - loop_ns as f64 / wall_ns));
    layers.push(("replay.wall_s", wall_ns / 1e9));

    outcomes
        .iter()
        .zip(engine_outcomes)
        .enumerate()
        .filter(|(_, (lib, eng))| lib != eng)
        .map(|(i, (lib, eng))| {
            format!(
                "burst op {i} ({}): engine {} it, one-at-a-time replay {} it",
                ops[i].update,
                if *eng { "accepted" } else { "rejected" },
                if *lib { "accepts" } else { "rejects" },
            )
        })
        .collect()
}
