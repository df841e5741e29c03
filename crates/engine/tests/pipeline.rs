//! Deterministic round-lifecycle tests for the commit loop, built on the
//! [`StageHooks`] barrier harness (`EngineConfig::stage_hooks`).
//!
//! Each test drives `commit_pending` on a background thread while the test
//! thread holds and releases stage gates, freezing the coordinator at a
//! chosen point of a round:
//!
//! - **ack per round** — a round's tickets resolve when it publishes, not
//!   when the whole commit ends (a commit of more than `MAX_BATCH` updates
//!   runs two rounds; deletions that select nothing fill round 1);
//! - **one round at a time** — no round is formed while a round is
//!   unpublished: with round 1 held at its publish, the coordinator has
//!   formed exactly one round, and a duplicate deletion in it is already
//!   rejected;
//! - **recycled ids** — a churn stream committed four updates at a time
//!   ends where the sequential reference ends, however its rounds recycle
//!   node ids.

use rxview_core::{SideEffectPolicy, XmlUpdate, XmlViewSystem};
use rxview_engine::{Engine, EngineConfig, Stage, StageHooks, MAX_BATCH};
use rxview_reference::reference_apply;
use rxview_workload::{synthetic_atg, synthetic_database, ChurnGen, SyntheticConfig};

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
            let h1 = Value::Int(head);
            let row = h.scan_key_range(|row| row[0].cmp(&h1)).next()?;
            let child = row[1].as_int().expect("int h2");
            let u = XmlUpdate::delete(&format!("node[id={head}]/sub/node[id={child}]"))
                .expect("parses");
            (!sys.evaluate(u.path()).is_empty()).then_some(u)
        })
        .collect()
}

/// `n` admitted deletions that select nothing: each takes a round slot,
/// resolves `EmptyTarget` and leaves the state as it was.
fn empty_deletions(n: usize) -> Vec<XmlUpdate> {
    let u = XmlUpdate::delete("node[id=999999999]/sub/node").expect("parses");
    vec![u; n]
}

/// Tickets resolve round by round: two disjoint group-edge deletions, then
/// updates that select nothing up to `MAX_BATCH`, then two more deletions,
/// all in one commit; with the coordinator walked to round 2's publish
/// gate, round 1's tickets resolved when round 1 published while round 2's
/// wait for their own round.
#[test]
fn inline_rounds_ack_as_each_round_publishes() {
    let sys = system(400, 9);
    let deletions: Vec<XmlUpdate> = group_edge_deletions(&sys, 400)
        .into_iter()
        .take(4)
        .collect();
    assert_eq!(deletions.len(), 4, "enough deletable group edges");

    let hooks = StageHooks::new();
    hooks.hold(Stage::Publish);
    let engine = Engine::with_config(
        sys,
        EngineConfig {
            stage_hooks: Some(hooks.clone()),
            ..EngineConfig::default()
        },
    );
    let submit = |u: &XmlUpdate| {
        let ticket = engine.submit(u.clone(), SideEffectPolicy::Proceed);
        ticket.expect("queue not full")
    };
    let mut tickets: Vec<_> = deletions[..2].iter().map(submit).collect();
    let fillers: Vec<_> = empty_deletions(MAX_BATCH - 2).iter().map(submit).collect();
    tickets.extend(deletions[2..].iter().map(submit));
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
    for t in &tickets[..2] {
        assert!(
            matches!(t.try_wait(), Some(Ok(_))),
            "round 1's tickets resolved when round 1 published"
        );
    }
    for t in &tickets[2..] {
        assert!(
            t.try_wait().is_none(),
            "round 2's tickets wait for their own round's ack"
        );
    }

    for t in fillers {
        assert!(
            matches!(t.try_wait(), Some(Err(_))),
            "fillers select nothing"
        );
    }

    hooks.release(Stage::Publish);
    let summary = committer.join().expect("committer panicked");
    assert_eq!(summary.accepted, 4);
    assert_eq!(
        engine.stats().report().rounds,
        2,
        "rounds of `MAX_BATCH` and 2"
    );
    for t in tickets.into_iter().skip(2) {
        t.wait().expect("round 2's deletions commit");
    }
    engine
        .snapshot()
        .system()
        .consistency_check()
        .expect("consistent");
}

/// No round is formed while a round is unpublished, and a duplicate
/// deletion is rejected inside the round it shares with its twin: with
/// round 1 — the delete, its duplicate, and updates that select nothing up
/// to `MAX_BATCH` — held at its publish gate, the coordinator has formed
/// one round, the duplicate is already rejected (it was evaluated after
/// its twin's fold), and the last update waits for round 2, formed only
/// once round 1's writes are in the latest snapshot.
#[test]
fn no_plan_runs_while_a_round_is_unpublished() {
    let sys = system(400, 9);
    let deletions = group_edge_deletions(&sys, 400);
    assert!(deletions.len() >= 2, "deletable group edges");
    // The same delete twice — the second outcome depends on the first's
    // effect — then an independent one.
    let mut ops = vec![deletions[0].clone(), deletions[0].clone()];
    ops.extend(empty_deletions(MAX_BATCH - 2));
    ops.push(deletions[1].clone());
    let mut oracle = sys.clone();
    let expected: Vec<bool> = ops
        .iter()
        .map(|u| oracle.apply(u, SideEffectPolicy::Proceed).is_ok())
        .collect();
    let last = MAX_BATCH;
    assert_eq!(
        expected.iter().filter(|&&ok| ok).count(),
        2,
        "the duplicate and the fillers are rejected"
    );
    assert!(expected[0] && !expected[1] && expected[last]);

    let hooks = StageHooks::new();
    hooks.hold(Stage::Publish);
    let engine = Engine::with_config(
        sys,
        EngineConfig {
            stage_hooks: Some(hooks.clone()),
            ..EngineConfig::default()
        },
    );
    let tickets: Vec<_> = ops
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

    hooks.wait_arrivals(Stage::Publish, 1);
    assert_eq!(
        hooks.arrivals(Stage::Plan),
        1,
        "no round is formed while round 1 is unpublished"
    );
    assert!(
        tickets[0].try_wait().is_none(),
        "round 1 acks after its publish"
    );
    assert!(
        matches!(tickets[1].try_wait(), Some(Err(_))),
        "the duplicate is rejected inside round 1"
    );
    assert!(
        tickets[last].try_wait().is_none(),
        "round 2 is not formed yet"
    );

    hooks.release(Stage::Publish);
    committer.join().expect("committer panicked");
    let outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
    assert_eq!(outcomes, expected);
    assert_eq!(
        hooks.arrivals(Stage::Plan),
        2,
        "round 2 is formed after round 1's publish"
    );
    let snap = engine.snapshot();
    let observed = (oracle.observed_digest(), snap.system().observed_digest());
    assert_eq!(observed.0.first_difference(&observed.1), None);
    snap.system().consistency_check().expect("consistent");
}

/// Recycled ids across rounds: the churn stream is committed four updates
/// at a time, one round each, so each round's insertions are handed the
/// ids the previous round's fold released, and the engine ends where the
/// sequential reference ends. (The name predates the round pipeline's
/// single executor; the test id is kept stable.)
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

    let engine = Engine::new(sys);
    let submit = |u: &XmlUpdate| {
        let ticket = engine.submit(u.clone(), SideEffectPolicy::Proceed);
        ticket.expect("queue not full")
    };
    for window in ops.chunks(4) {
        let tickets: Vec<_> = window.iter().map(submit).collect();
        let summary = engine.commit_pending();
        assert_eq!((summary.updates, summary.batches), (4, 1));
        for t in tickets {
            t.wait().expect("accepted");
        }
    }
    let report = engine.stats().report();
    assert!(report.free_ids + report.live_nodes == report.allocated_ids);
    let snap = engine.snapshot();
    let observed = (snap.system().observed_digest(), oracle.observed_digest());
    assert_eq!(
        observed.0.first_difference(&observed.1),
        None,
        "base rows, gen_A rows, view edges"
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
