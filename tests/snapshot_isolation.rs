//! Snapshot isolation over shared pages, through the engine: a snapshot a
//! reader holds keeps observing exactly the state it was taken in while
//! fifty commit rounds rewrite pages it shares with every successor — and
//! the engine's final state still equals one-at-a-time application. With
//! the container model tests in `crates/relstore/tests/cow_model.rs` this
//! is the executable form of ARCHITECTURE.md invariant 10. Reads go
//! through the scope-resolved `Snapshot::eval`, whose anchors come from
//! probes of the `gen_A` registries — pages a snapshot shares with its
//! successors like any others — so what the held snapshot's reads select is
//! held fixed too.

use rxview::prelude::*;
use rxview::relstore::tuple;
use rxview::workload::{
    assert_observationally_equal, mixed_updates, synthetic_atg, synthetic_database, ChurnGen,
    SyntheticConfig,
};
use rxview::xmlkit::parse_xpath;

const ROUNDS: usize = 50;
const HOLD_FROM: usize = 10;

/// What the four read shapes select under every group head, as `(type, $A)`
/// pairs — through `Snapshot::select`, the reader-facing path.
fn reads(snap: &Snapshot, groups: usize) -> Vec<Vec<(String, Tuple)>> {
    (0..groups)
        .flat_map(|g| {
            let k = g * 40;
            [
                format!("node[id={k}]"),
                format!("node[id={k}]/sub/node"),
                format!("node[id={k}]/payload"),
                format!("node[id={k}]//node"),
            ]
        })
        .map(|path| snap.select(&parse_xpath(&path).expect("parses")))
        .collect()
}

#[test]
fn held_snapshot_is_untouched_by_fifty_rounds() {
    let db = synthetic_database(&SyntheticConfig::with_size(400));
    let atg = synthetic_atg(&db).expect("valid ATG");
    let sys = XmlViewSystem::new(atg, db).expect("publishes");
    let mut oracle = sys.clone();
    let engine = Engine::new(sys);

    let mut held = None;
    let mut accepted = 0;
    for round in 0..ROUNDS {
        if round == HOLD_FROM {
            let snap = engine.snapshot();
            let seen = snap.system().exact_digest();
            let read = reads(&snap, 10);
            assert!(read.iter().filter(|r| !r.is_empty()).count() >= 30);
            held = Some((snap, seen, read));
        }
        // Sampled against the state the round commits on, so targets
        // exist; inserts and deletes of all three path classes.
        let flips = [round % 2 == 0, round % 3 == 0, round % 5 != 0];
        let ops = mixed_updates(engine.snapshot().system(), 1_000 + round as u64, &flips);
        let tickets: Vec<_> = ops
            .iter()
            .map(|u| {
                engine
                    .submit(u.clone(), SideEffectPolicy::Proceed)
                    .expect("queue has room")
            })
            .collect();
        engine.commit_pending();
        for (u, ticket) in ops.iter().zip(tickets) {
            let engine_ok = ticket.wait().is_ok();
            let oracle_ok = oracle.apply(u, SideEffectPolicy::Proceed).is_ok();
            assert_eq!(engine_ok, oracle_ok, "round {round}: `{u}`");
            accepted += usize::from(engine_ok);
        }
    }
    assert!(
        accepted >= ROUNDS,
        "the rounds must change the state ({accepted} accepted)"
    );

    let (snap, seen, read) = held.expect("taken in round HOLD_FROM");
    let latest = engine.snapshot();
    assert!(snap.epoch() < latest.epoch());
    let changed = seen.first_difference(&snap.system().exact_digest());
    assert_eq!(changed, None, "the held snapshot changed under its reader");
    let edges = |s: &Snapshot| s.system().observed_digest().section("edges");
    assert!(
        edges(&snap) != edges(&latest),
        "the rounds never diverged from the held snapshot"
    );
    assert!(
        read == reads(&snap, 10),
        "the held snapshot's reads changed under its reader"
    );
    assert!(
        read != reads(&latest, 10),
        "the latest snapshot reads like the held one"
    );
    snap.system()
        .consistency_check()
        .unwrap_or_else(|e| panic!("held snapshot: {e}"));
    // Checks the latest snapshot and the oracle against republication
    // too.
    assert_observationally_equal(latest.system(), &oracle, "engine vs one-at-a-time apply");
}

/// A node id means a node within one epoch. A reader pinned on the epoch in
/// which id `x` is a fresh node keeps reading that node through the round
/// that collects it (the id is free in the engine's newer epochs) and the round
/// that hands `x` out again to an unrelated node under another head: the
/// recycled id is written into pages of the newer epochs only.
#[test]
fn a_pinned_reader_never_sees_a_recycled_id_mean_two_nodes() {
    let db = synthetic_database(&SyntheticConfig::with_size(400));
    let atg = synthetic_atg(&db).expect("valid ATG");
    let sys = XmlViewSystem::new(atg, db).expect("publishes");
    let mut gen = ChurnGen::new(&sys, 10, 40);
    let engine = Engine::new(sys);
    let commit = |window: Vec<XmlUpdate>| {
        for u in window {
            engine
                .apply_now(u, SideEffectPolicy::Proceed)
                .expect("the churn's updates are accepted");
        }
    };
    let node = |snap: &Snapshot, key: i64| {
        let vs = snap.system().view();
        let ty = vs.atg().dtd().type_id("node").expect("synthetic type");
        vs.dag().genid().lookup(ty, tuple![key, 7i64].values())
    };

    // Two fresh nodes; the reader pins the epoch they are live in.
    commit(gen.window(2));
    let pinned = engine.snapshot();
    let first_key = 4_000_000_001;
    let x = node(&pinned, first_key).expect("the first fresh node");
    let (seen, read) = (pinned.system().exact_digest(), reads(&pinned, 10));

    // The next window deletes the older one — `x` is collected — and
    // its insertion, under another head, is the next to ask for an id.
    commit(gen.window(2));
    let latest = engine.snapshot();
    assert!(node(&latest, first_key).is_none(), "collected");
    assert!(
        node(&latest, first_key + 2).is_some(),
        "the third fresh node"
    );
    let genid = latest.system().view().dag().genid();
    assert!(genid.is_live(x), "the id is in use again");
    assert_ne!(genid.attr_of(x), &tuple![first_key, 7i64]);
    assert!(
        genid.n_allocated() == pinned.system().view().dag().genid().n_allocated(),
        "the second insertion drew on the first one's ids"
    );

    // In the pinned epoch `x` is still the first fresh node, whole.
    assert_eq!(node(&pinned, first_key), Some(x));
    assert!(node(&pinned, first_key + 2).is_none());
    assert_eq!(seen.first_difference(&pinned.system().exact_digest()), None);
    assert!(read == reads(&pinned, 10));
    assert!(read != reads(&latest, 10));
    pinned
        .system()
        .consistency_check()
        .unwrap_or_else(|e| panic!("pinned epoch: {e}"));
    latest
        .system()
        .consistency_check()
        .unwrap_or_else(|e| panic!("latest epoch: {e}"));
}
