//! Deterministic interleaving tests for the pipelined commit loop, built
//! on the [`StageHooks`] barrier harness (`EngineConfig::stage_hooks`).
//!
//! Each test drives `commit_pending` on a background thread while the test
//! thread holds and releases stage gates, freezing the coordinator at a
//! chosen point of the round lifecycle:
//!
//! - **disjoint rounds proceed** — with round k held in merge, a
//!   footprint-disjoint round k+1 still reaches shard dispatch;
//! - **overlapping rounds stall** — a round that conflicts with the
//!   in-flight footprint is *not* dispatched while the conflict lives;
//! - **publish-mid-plan fixup** — a publish landing between planning and
//!   dispatching a lookahead round routes it through the fixup path;
//! - **ack per round** — at one shard (inline rounds announce plan and
//!   publish too) a round's tickets resolve when it publishes, not when the
//!   whole commit ends.

use rxview_core::{SideEffectPolicy, XmlUpdate, XmlViewSystem};
use rxview_engine::{Engine, EngineConfig, Stage, StageHooks};
use rxview_workload::{
    base_fingerprint, edge_fingerprint, reference_apply, synthetic_atg, synthetic_database,
    ChurnGen, SyntheticConfig,
};
use std::time::Duration;

fn system(n: usize, seed: u64) -> XmlViewSystem {
    let mut cfg = SyntheticConfig::with_size(n);
    cfg.seed = seed;
    let db = synthetic_database(&cfg);
    let atg = synthetic_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

/// One guaranteed-deletable edge path per group — distinct groups have
/// disjoint cones, so these updates never conflict with each other.
fn group_edge_deletions(sys: &XmlViewSystem, n: i64) -> Vec<XmlUpdate> {
    use rxview_relstore::Value;
    let h = sys.base().table("H").expect("H table");
    (0..n / 40)
        .filter_map(|g| {
            let head = g * 40;
            let prefix = [Value::Int(head)];
            let row = h.scan_key_prefix(&prefix).next()?;
            let child = row[1].as_int().expect("int h2");
            let u = XmlUpdate::delete(&format!("node[id={head}]/sub/node[id={child}]"))
                .expect("parses");
            (!sys.evaluate(u.path()).is_empty()).then_some(u)
        })
        .collect()
}

fn pipelined_config(hooks: &StageHooks) -> EngineConfig {
    EngineConfig {
        n_shards: 2,
        max_batch: 1, // rounds of at most n_shards * max_batch = 2 updates
        stage_hooks: Some(hooks.clone()),
        ..EngineConfig::default()
    }
}

/// With round k frozen in merge, the footprint-disjoint round k+1 must
/// still translate: the pipeline dispatches it, records the admit, and the
/// merge section later reports genuine overlap.
#[test]
fn disjoint_lookahead_round_dispatches_while_merge_is_held() {
    let sys = system(400, 9);
    let deletions = group_edge_deletions(&sys, 400);
    assert!(deletions.len() >= 4, "enough deletable group edges");
    let deletions: Vec<XmlUpdate> = deletions.into_iter().take(4).collect();

    let mut oracle = sys.clone();
    for u in &deletions {
        oracle
            .apply(u, SideEffectPolicy::Proceed)
            .expect("oracle applies");
    }

    let hooks = StageHooks::new();
    hooks.hold(Stage::Merge);
    let engine = Engine::with_config(sys, pipelined_config(&hooks));
    let tickets: Vec<_> = deletions
        .iter()
        .map(|u| {
            engine
                .submit(u.clone(), SideEffectPolicy::Proceed)
                .expect("queue not full")
        })
        .collect();
    let committer = {
        let engine = engine.clone();
        std::thread::spawn(move || engine.commit_pending())
    };

    // Round 1 is frozen at the merge gate...
    hooks.wait_arrivals(Stage::Merge, 1);
    // ...and round 2 (disjoint) still reached shard dispatch behind it.
    hooks.wait_arrivals(Stage::Dispatch, 2);
    assert_eq!(
        engine.snapshot().epoch(),
        0,
        "nothing published while merge is held"
    );
    assert!(
        engine.stats().report().pipeline_admits >= 1,
        "the lookahead dispatch must be recorded as a pipeline admit"
    );

    hooks.release(Stage::Merge);
    let summary = committer.join().expect("committer panicked");
    assert_eq!(summary.updates, deletions.len());
    for t in tickets {
        t.wait().expect("disjoint group-edge deletion commits");
    }

    let report = engine.stats().report();
    assert!(
        report.overlap > Duration::ZERO,
        "a merge ran with a round in flight, so overlap time was recorded"
    );
    let snap = engine.snapshot();
    assert_eq!(base_fingerprint(&oracle), base_fingerprint(snap.system()));
    assert_eq!(edge_fingerprint(&oracle), edge_fingerprint(snap.system()));
    snap.system().consistency_check().expect("consistent");
}

/// A lookahead round whose footprint overlaps the in-flight round must NOT
/// be dispatched while the conflict lives: the planner records a pipeline
/// stall and the update waits for the conflicting publish.
#[test]
fn conflicting_lookahead_round_stalls_until_publish() {
    let sys = system(400, 9);
    let deletions = group_edge_deletions(&sys, 400);
    assert!(!deletions.is_empty(), "a deletable group edge");
    // The same delete twice: maximal conflict, and the second outcome
    // depends on the first's effect, so dispatch order is observable.
    let u = deletions[0].clone();

    let mut oracle = sys.clone();
    let first_ok = oracle.apply(&u, SideEffectPolicy::Proceed).is_ok();
    let second_ok = oracle.apply(&u, SideEffectPolicy::Proceed).is_ok();
    assert!(first_ok, "the edge exists, the first delete succeeds");

    let hooks = StageHooks::new();
    hooks.hold(Stage::Merge);
    let engine = Engine::with_config(sys, pipelined_config(&hooks));
    let t1 = engine
        .submit(u.clone(), SideEffectPolicy::Proceed)
        .expect("queue not full");
    let t2 = engine
        .submit(u.clone(), SideEffectPolicy::Proceed)
        .expect("queue not full");
    let committer = {
        let engine = engine.clone();
        std::thread::spawn(move || engine.commit_pending())
    };

    // Round 1 (the first delete) is frozen at the merge gate. The planner
    // already tried to form round 2 before falling through to the merge —
    // and must have stalled it instead of dispatching.
    hooks.wait_arrivals(Stage::Merge, 1);
    assert_eq!(
        hooks.arrivals(Stage::Dispatch),
        1,
        "the conflicting duplicate must not be dispatched alongside round 1"
    );
    assert!(
        engine.stats().report().pipeline_stalls >= 1,
        "the deferred plan is recorded as a pipeline stall"
    );

    hooks.release(Stage::Merge);
    committer.join().expect("committer panicked");
    assert_eq!(t1.wait().is_ok(), first_ok);
    assert_eq!(t2.wait().is_ok(), second_ok);
    assert_eq!(
        hooks.arrivals(Stage::Dispatch),
        2,
        "the duplicate dispatches in its own round after the publish"
    );
    let snap = engine.snapshot();
    assert_eq!(edge_fingerprint(&oracle), edge_fingerprint(snap.system()));
    snap.system().consistency_check().expect("consistent");
}

/// When a publish lands between planning and dispatching a lookahead round,
/// the staged plan is revalidated through the fixup path. With disjoint
/// rounds nothing is evicted — but the fixup must run and the result must
/// still equal the sequential oracle.
#[test]
fn publish_mid_plan_routes_through_the_fixup_path() {
    let sys = system(400, 9);
    let deletions = group_edge_deletions(&sys, 400);
    assert!(deletions.len() >= 8, "enough deletable group edges");
    let deletions: Vec<XmlUpdate> = deletions.into_iter().take(8).collect();

    let mut oracle = sys.clone();
    for u in &deletions {
        oracle
            .apply(u, SideEffectPolicy::Proceed)
            .expect("oracle applies");
    }

    // No gates: with four rounds and depth 2, round 3 dispatches into the
    // slot round 1 frees at collection (before round 1 publishes), but
    // round 4 is staged while round 1's serial section runs — its publish
    // lands before round 4 dispatches, exactly the staleness the fixup
    // revalidates.
    let hooks = StageHooks::new();
    let engine = Engine::with_config(sys, pipelined_config(&hooks));
    let tickets: Vec<_> = deletions
        .iter()
        .map(|u| {
            engine
                .submit(u.clone(), SideEffectPolicy::Proceed)
                .expect("queue not full")
        })
        .collect();
    let summary = engine.commit_pending();
    assert_eq!(summary.updates, deletions.len());
    for t in tickets {
        t.wait().expect("disjoint group-edge deletion commits");
    }

    let report = engine.stats().report();
    assert!(
        report.pipeline_fixups >= 1,
        "a staged plan went stale across a publish and was revalidated"
    );
    assert_eq!(
        report.pipeline_fixup_evictions, 0,
        "disjoint rounds survive the fixup untouched"
    );
    let snap = engine.snapshot();
    assert_eq!(base_fingerprint(&oracle), base_fingerprint(snap.system()));
    assert_eq!(edge_fingerprint(&oracle), edge_fingerprint(snap.system()));
    snap.system().consistency_check().expect("consistent");
}

/// Tickets resolve round by round at every shard count: with the second
/// round of an inline (`n_shards = 1`) commit frozen at its publish gate,
/// the first round's ticket has already resolved and the second's has not.
#[test]
fn inline_rounds_ack_as_each_round_publishes() {
    use rxview_relstore::Value;
    let sys = system(400, 9);
    // Two deletable edges under one group head: the same cone.
    let h = sys.base().table("H").expect("H table");
    let pair: Vec<XmlUpdate> = (0..10i64)
        .map(|g| g * 40)
        .find_map(|head| {
            let mut probe = sys.clone();
            let ok: Vec<XmlUpdate> = h
                .scan_key_prefix(&[Value::Int(head)])
                .map(|row| row[1].as_int().expect("int h2"))
                .filter_map(|child| {
                    let u = XmlUpdate::delete(&format!("node[id={head}]/sub/node[id={child}]"))
                        .expect("parses");
                    probe.apply(&u, SideEffectPolicy::Proceed).ok().map(|_| u)
                })
                .take(2)
                .collect();
            (ok.len() == 2).then_some(ok)
        })
        .expect("a group with two deletable edges");

    let hooks = StageHooks::new();
    hooks.hold(Stage::Publish);
    let engine = Engine::with_config(
        sys,
        EngineConfig {
            n_shards: 1,
            max_batch: 1, // one update per round
            stage_hooks: Some(hooks.clone()),
            ..EngineConfig::default()
        },
    );
    let t1 = engine
        .submit(pair[0].clone(), SideEffectPolicy::Proceed)
        .expect("queue not full");
    let t2 = engine
        .submit(pair[1].clone(), SideEffectPolicy::Proceed)
        .expect("queue not full");
    let committer = {
        let engine = engine.clone();
        std::thread::spawn(move || engine.commit_pending())
    };

    // Walk the coordinator to round 2's publish gate: round 1 is parked
    // after its snapshot swap; park it next at round 2's plan, re-arm the
    // publish gate, and let it run into that.
    hooks.wait_arrivals(Stage::Publish, 1);
    hooks.hold(Stage::Plan);
    hooks.release(Stage::Publish);
    hooks.wait_arrivals(Stage::Plan, 2);
    hooks.hold(Stage::Publish);
    hooks.release(Stage::Plan);
    hooks.wait_arrivals(Stage::Publish, 2);

    assert_eq!(engine.snapshot().epoch(), 2, "both rounds published");
    assert!(
        matches!(t1.try_wait(), Some(Ok(_))),
        "round 1's ticket resolved when round 1 published"
    );
    assert!(
        t2.try_wait().is_none(),
        "round 2's ticket waits for its own round's ack"
    );

    hooks.release(Stage::Publish);
    let summary = committer.join().expect("committer panicked");
    assert_eq!((summary.accepted, summary.batches), (2, 2));
    t2.wait().expect("second deletion commits");
    engine
        .snapshot()
        .system()
        .consistency_check()
        .expect("consistent");
}

/// Recycled ids under lookahead: the whole churn stream is committed at
/// once, so round k+1's insertions are translated on replicas of a
/// snapshot whose free ids round k's merge is handing out at the same
/// time, and are merged after round k's fold has released more. A
/// translation's fresh ids mean something on its replica only — the merge
/// re-interns the pairs — and the pipelined engine ends where the
/// sequential reference ends.
#[test]
fn lookahead_rounds_on_recycled_ids_equal_the_reference() {
    let sys = system(400, 11);
    let mut gen = ChurnGen::new(&sys, 10, 40);
    let ops: Vec<XmlUpdate> = (0..24).flat_map(|_| gen.window(4)).collect();
    let mut oracle = sys.clone();
    for u in &ops {
        reference_apply(&mut oracle, u, SideEffectPolicy::Proceed)
            .unwrap_or_else(|e| panic!("`{u}` rejected: {e}"));
    }

    let config = EngineConfig {
        n_shards: 2,
        max_batch: 2,
        ..EngineConfig::default()
    };
    let engine = Engine::with_config(sys, config);
    let submit = |u: &XmlUpdate| {
        let ticket = engine.submit(u.clone(), SideEffectPolicy::Proceed);
        ticket.expect("queue not full")
    };
    let tickets: Vec<_> = ops.iter().map(submit).collect();
    let summary = engine.commit_pending();
    assert_eq!(summary.updates, ops.len());
    for t in tickets {
        t.wait().expect("accepted");
    }
    let report = engine.stats().report();
    assert!(report.pipeline_admits >= 1, "rounds overlapped");
    assert!(report.free_ids + report.live_nodes == report.allocated_ids);
    let snap = engine.snapshot();
    assert_eq!(
        edge_fingerprint(snap.system()),
        edge_fingerprint(&oracle),
        "view edges"
    );
    assert_eq!(
        base_fingerprint(snap.system()),
        base_fingerprint(&oracle),
        "base rows"
    );
    snap.system().consistency_check().expect("republication");
    let (ours, theirs) = (snap.system().view().dag(), oracle.view().dag());
    assert_eq!(ours.genid().n_live(), theirs.genid().n_live());
    assert!(
        ours.genid().n_allocated() <= theirs.genid().n_allocated() + 4 * 2 * 4,
        "{} ids against the reference's {}",
        ours.genid().n_allocated(),
        theirs.genid().n_allocated()
    );
}
