//! The flat line under tier-1: delete / re-insert churn with fresh keys
//! leaves the node-id space the size of the view. A collected node's id is
//! handed out again, so `allocated ids − live nodes` stays within two
//! rounds' worth of allocations however many updates are served — through
//! one-at-a-time `XmlViewSystem::apply` and through the engine's round
//! pipeline — and both end on the same view. This is the short cut (as many updates as the view has nodes, 64
//! groups); `crates/bench/tests/snapshot_alloc.rs` holds the ten-fold soak
//! and the allocated bytes.

use rxview::prelude::*;
use rxview::workload::{
    assert_observationally_equal, synthetic_atg, synthetic_database, ChurnGen, SyntheticConfig,
    NODES_PER_INSERT,
};

const GROUPS: usize = 64;
const GROUP_SIZE: usize = 40;
/// Updates per window (and per engine round).
const WINDOW: usize = 32;

/// Ids a window may leave free: what its deletions collected, twice over.
const SLACK: usize = 2 * (WINDOW / 2) * NODES_PER_INSERT;

fn assert_bounded(sys: &XmlViewSystem, at: &str) {
    let genid = sys.view().dag().genid();
    assert_eq!(genid.n_allocated(), genid.n_live() + genid.n_free());
    assert!(
        genid.n_free() <= SLACK,
        "{at}: {} ids free of {} allocated for {} live nodes",
        genid.n_free(),
        genid.n_allocated(),
        genid.n_live()
    );
}

#[test]
fn churn_leaves_the_id_space_the_size_of_the_view() {
    let db = synthetic_database(&SyntheticConfig::with_size(GROUPS * GROUP_SIZE));
    let atg = synthetic_atg(&db).expect("valid ATG");
    let sys = XmlViewSystem::new(atg, db).expect("publishes");
    let windows = sys.view().n_nodes().div_ceil(WINDOW);
    let stream = |sys: &XmlViewSystem| {
        let mut gen = ChurnGen::new(sys, GROUPS, GROUP_SIZE);
        (0..windows).map(move |_| gen.window(WINDOW))
    };

    let mut oracle = sys.clone();
    for (w, window) in stream(&sys).enumerate() {
        for u in &window {
            oracle
                .apply(u, SideEffectPolicy::Proceed)
                .unwrap_or_else(|e| panic!("`{u}` rejected: {e}"));
        }
        assert_bounded(&oracle, &format!("apply, window {w}"));
    }
    let published = sys.view().dag().genid().n_allocated();
    let served = oracle.view().dag().genid().n_allocated();
    assert!(
        served <= published + (WINDOW / 2) * NODES_PER_INSERT + SLACK,
        "{served} ids after {} updates on a view of {published}",
        windows * WINDOW
    );

    let engine = Engine::new(sys.clone());
    for (w, window) in stream(&sys).enumerate() {
        let tickets: Vec<_> = window
            .into_iter()
            .map(|u| engine.submit(u, SideEffectPolicy::Proceed).expect("room"))
            .collect();
        engine.commit_pending();
        for t in tickets {
            t.wait().unwrap_or_else(|e| panic!("engine: rejected: {e}"));
        }
        assert_bounded(engine.snapshot().system(), &format!("engine, window {w}"));
    }
    let report = engine.stats().report();
    assert_eq!(report.live_nodes + report.free_ids, report.allocated_ids);
    assert_observationally_equal(engine.snapshot().system(), &oracle, "engine");
}
