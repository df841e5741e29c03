//! Engine-level telemetry: the metric table, the text report and the
//! flight recorder, exercised through real commits.

use rxview_core::{SideEffectPolicy, XmlUpdate, XmlViewSystem};
use rxview_engine::{Engine, EngineConfig};
use rxview_workload::{synthetic_atg, synthetic_database, SyntheticConfig};

fn system(n: usize) -> XmlViewSystem {
    let cfg = SyntheticConfig::with_size(n);
    let db = synthetic_database(&cfg);
    let atg = synthetic_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

/// One deletable `(head, child)` edge path per group (see
/// `tests/concurrent.rs`): anchored, `//`-free, so independent updates
/// share rounds.
fn group_edges(sys: &XmlViewSystem, n: i64, group: i64) -> Vec<(i64, i64)> {
    use rxview_relstore::Value;
    use rxview_xmlkit::parse_xpath;
    let h = sys.base().table("H").expect("H table");
    (0..n / group)
        .filter_map(|g| {
            let head = g * group;
            let h1 = Value::Int(head);
            let row = h.scan_key_range(|row| row[0].cmp(&h1)).next()?;
            Some((head, row[1].as_int().expect("int h2")))
        })
        .filter(|&(h1, h2)| {
            let p = parse_xpath(&format!("node[id={h1}]/sub/node[id={h2}]")).expect("parses");
            !sys.evaluate(&p).is_empty()
        })
        .collect()
}

fn delete(h: i64, c: i64) -> XmlUpdate {
    XmlUpdate::delete(&format!("node[id={h}]/sub/node[id={c}]")).expect("parses")
}

/// The ledger of commits of four independent deletions each: one round
/// per commit, one latency sample per ticket, phase fractions summing to 1,
/// one fold per applied update and the fold's sub-spans inside the folds,
/// and no plan time (a round is a queue prefix).
#[test]
fn round_phases_and_fold_spans_are_well_formed() {
    let n = 800;
    let sys = system(n);
    let edges = group_edges(&sys, n as i64, 40);
    assert!(edges.len() >= 8, "need several independent groups");
    let engine = Engine::new(sys);

    let mut accepted = 0u64;
    for chunk in edges.chunks(4) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|&(h, c)| {
                engine
                    .submit(delete(h, c), SideEffectPolicy::Proceed)
                    .expect("queue accepts")
            })
            .collect();
        engine.commit_pending();
        for t in tickets {
            t.wait().expect("independent group deletes commit");
            accepted += 1;
        }
    }

    let report = engine.stats().report();
    assert_eq!(report.accepted, accepted);
    assert_eq!(report.realized_width, accepted);
    assert_eq!(
        report.rounds as usize,
        edges.chunks(4).count(),
        "one round per commit of independent deletions"
    );
    assert_eq!(
        report.plan,
        std::time::Duration::ZERO,
        "nothing plans a round"
    );
    // Every accepted update produced one admission→ack latency sample.
    assert_eq!(report.latency.count, accepted + report.rejected);
    // The phase breakdown is a well-formed attribution: non-negative
    // fractions summing to 1 once any phase time was recorded.
    let phases = report.phase_breakdown();
    assert!(
        phases.total() > std::time::Duration::ZERO,
        "commits must record phase time"
    );
    let sum: f64 = phases.fractions().iter().map(|(_, _, f)| f).sum();
    assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
    // The fold's sub-span is timed inside the fold: deletions collect and
    // compact `L`, and that stays within the folds' wall clock.
    assert_eq!(report.cone_folds, accepted, "one fold per applied update");
    let sub_spans = report.fold_l_splice;
    assert!(sub_spans > std::time::Duration::ZERO);
    assert!(
        sub_spans <= phases.fold,
        "fold sub-spans {sub_spans:?} exceed the fold {:?}",
        phases.fold
    );
}

/// The metric listing, `telemetry_report` and the flight recording expose
/// the round history.
#[test]
fn telemetry_report_and_flight_recording() {
    let n = 400;
    let sys = system(n);
    let edges = group_edges(&sys, n as i64, 40);
    assert!(edges.len() >= 2);
    let engine = Engine::new(sys);
    for &(h, c) in &edges[..2] {
        let t = engine
            .submit(delete(h, c), SideEffectPolicy::Proceed)
            .expect("queue accepts");
        engine.commit_pending();
        t.wait().expect("commits");
    }

    let metrics = engine.stats().metrics();
    let metric = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, m)| m)
            .unwrap_or_else(|| panic!("no metric {name}"))
    };
    use rxview_engine::obs::MetricSnapshot::{Counter, Histogram};
    for name in ["updates.accepted", "round.planned", "snapshot.published"] {
        assert!(
            matches!(metric(name), Counter(2)),
            "{name}: {:?}",
            metric(name)
        );
    }
    assert!(matches!(metric("update.latency_ns"), Histogram(h) if h.count > 0));
    assert!(matches!(metric("phase.plan_ns"), Histogram(_)));

    let report = engine.telemetry_report();
    for needle in [
        "updates.accepted",
        "phase.translate_wall_ns",
        "update.latency_ns",
    ] {
        assert!(
            report.contains(needle),
            "report missing {needle}:\n{report}"
        );
    }

    let flight = engine.flight_recording();
    assert!(
        flight
            .lines()
            .any(|l| l.contains("\"event\": \"round.planned\"")),
        "flight recording missing round.planned:\n{flight}"
    );
    assert!(
        flight
            .lines()
            .any(|l| l.contains("\"event\": \"round.committed\"")),
        "flight recording missing round.committed:\n{flight}"
    );
    // Every line is one JSON object with the envelope keys.
    for line in flight.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line {line}"
        );
        assert!(line.contains("\"seq\": ") && line.contains("\"event\": "));
    }
}

/// The metric listing of a fresh engine, name-sorted: the text report's
/// rows. A metric is renamed or dropped here, deliberately, or not at all —
/// dashboards and `rxbench`'s trace read these names. Strictly ascending
/// means no name is declared twice in the metric table.
#[test]
fn registry_names_are_pinned() {
    use rxview_engine::obs::MetricSnapshot::{self, Counter as C, Gauge as G, Histogram as H};
    let engine = Engine::new(system(200));
    let kind = |m: &MetricSnapshot| match m {
        C(_) => 'c',
        G(_) => 'g',
        H(_) => 'h',
    };
    let registered: Vec<(&str, char)> = engine
        .stats()
        .metrics()
        .iter()
        .map(|&(name, ref m)| (name, kind(m)))
        .collect();
    for pair in registered.windows(2) {
        assert!(pair[0].0 < pair[1].0, "{:?} then {:?}", pair[0], pair[1]);
    }
    let expected = [
        ("checkpoint.completed", 'c'),
        ("commit.batches", 'c'),
        ("commit.calls", 'c'),
        ("commit.max_batch", 'c'),
        ("eval.full", 'c'),
        ("eval.scoped", 'c'),
        ("fission.admits", 'c'),
        ("fission.denies", 'c'),
        ("fold.cone_folds", 'c'),
        ("phase.eval_ns", 'h'),
        ("phase.fold_l_splice_ns", 'h'),
        ("phase.fold_ns", 'h'),
        ("phase.fsync_ns", 'h'),
        ("phase.plan_ns", 'h'),
        ("phase.publish_ns", 'h'),
        ("phase.translate_ns", 'h'),
        ("phase.translate_wall_ns", 'h'),
        ("phase.wal_append_ns", 'h'),
        ("round.planned", 'c'),
        ("round.planned_width", 'c'),
        ("round.realized_width", 'c'),
        ("round.width_rounds", 'c'),
        ("snapshot.published", 'c'),
        ("snapshot.reads", 'c'),
        ("state.allocated_ids", 'g'),
        ("state.base_rows", 'g'),
        ("state.free_ids", 'g'),
        ("state.live_nodes", 'g'),
        ("update.latency_ns", 'h'),
        ("updates.accepted", 'c'),
        ("updates.rejected", 'c'),
        ("updates.submitted", 'c'),
        ("wal.bytes", 'c'),
        ("wal.records", 'c'),
        ("wal.sync_reason.age", 'c'),
        ("wal.sync_reason.rounds", 'c'),
        ("wal.syncs", 'c'),
    ];
    assert_eq!(registered, expected);
}

/// The engine re-baselines the shared plan cache at build time: its report
/// shows only probes made *through this engine*, even when the cache `Arc`
/// arrives pre-warmed (engines built over clones of one system share it, so
/// without the baseline each would inherit its predecessors' cumulative
/// hits). Over a warm cache that delta is the steady state: every probe a
/// hit, and the template registry instantiating without compiling.
#[test]
fn plan_cache_report_rebaselines_per_engine() {
    let n = 400;
    let sys = system(n);
    let edges = group_edges(&sys, n as i64, 40);
    assert!(edges.len() >= 3);

    // Warm the shared cache outside any engine: `clone` shares the same
    // `Arc<PlanCache>`, and sequential `apply` probes it.
    let mut warm = sys.clone();
    let (h, c) = edges[0];
    warm.apply(&delete(h, c), SideEffectPolicy::Proceed)
        .expect("warmup applies");
    let pre = sys.view().plan_cache().stats();
    assert!(pre.hits + pre.misses > 0, "warmup must probe the cache");

    // A fresh engine over the warmed system starts its delta at zero.
    let engine = Engine::new(sys);
    let before = engine.stats().report().plan_cache;
    assert_eq!(
        before.hits + before.misses,
        0,
        "report must re-baseline the pre-warmed cache (saw {} probes)",
        before.hits + before.misses
    );
    assert_eq!(before.compiles, 0);

    // And counts exactly its own traffic afterwards.
    for &(h, c) in &edges[1..3] {
        let t = engine
            .submit(delete(h, c), SideEffectPolicy::Proceed)
            .expect("queue accepts");
        engine.commit_pending();
        t.wait().expect("commits");
    }
    let after = engine.stats().report().plan_cache;
    assert!(
        after.hits + after.misses > 0,
        "the engine's own probes must show up in the delta"
    );
    let total = engine.snapshot().system().view().plan_cache().stats();
    assert!(
        after.hits + after.misses <= (total.hits + total.misses) - (pre.hits + pre.misses),
        "delta exceeds the engine's own share of the shared counters"
    );
    // Steady state: the warm-up compiled the one path shape this traffic
    // has, and the registry with it.
    assert!(
        after.hit_rate() > 0.9,
        "steady-state plan hit rate {}",
        after.hit_rate()
    );
    let templates = engine.stats().report().template_cache;
    assert!(templates.hits > 0, "translation instantiates templates");
    assert_eq!(
        templates.compiles, 0,
        "the registry compiles once per family"
    );
    // A shape the warm-up never saw compiles through this engine — the
    // second user of the cache — and the compile shows in its own delta.
    let (h, c) = edges[2];
    let headed = XmlUpdate::delete(&format!("//node[id={h}]/sub/node[id={c}]")).expect("parses");
    let _ = engine.apply_now(headed, SideEffectPolicy::Proceed); // gone already: rejected
    let compiled = engine.stats().report().plan_cache;
    assert_eq!(compiled.compiles, after.compiles + 1);
    assert!(compiled.compile_ns > after.compile_ns);
}

/// `scoped_evals` / `full_evals` and `UpdateReport::scope_nodes` say how
/// each path was evaluated — what ran — for a bounded path and for one
/// nothing bounds alike.
#[test]
fn eval_counters_report_what_ran() {
    let n = 800;
    let sys = system(n);
    let edges = group_edges(&sys, n as i64, 40);
    assert!(edges.len() >= 3);
    let engine = Engine::new(sys.clone());
    // Anchored deletes: a scope of about one group.
    for &(h, c) in &edges[..2] {
        let report = engine
            .apply_now(delete(h, c), SideEffectPolicy::Proceed)
            .expect("anchored delete commits");
        let scope = report.scope_nodes.expect("an anchored path has a scope");
        assert!(scope > 1 && scope < sys.topo().len() / 4, "scope {scope}");
    }
    let report = engine.stats().report();
    assert_eq!((report.scoped_evals, report.full_evals), (2, 0));
    // A path nothing bounds runs the full pass.
    let (h, c) = edges[2];
    let unbounded = XmlUpdate::delete(&format!("*/sub/node[id={c}]")).expect("parses");
    let outcome = engine
        .apply_now(unbounded, SideEffectPolicy::Proceed)
        .expect("the wildcard delete finds the edge");
    assert_eq!(outcome.scope_nodes, None, "group {h}");
    let report = engine.stats().report();
    assert_eq!((report.scoped_evals, report.full_evals), (2, 1));
}

/// The `state.*` gauges follow the published epoch: an engine reports its
/// starting state before any commit; after deletions the id space stays
/// where it was while the live nodes and base rows fall, and what the
/// deletions collected shows as free ids — which the next insertions take
/// before the id space grows.
#[test]
fn state_gauges_follow_the_published_epoch() {
    let n = 400;
    let sys = system(n);
    let edges = group_edges(&sys, n as i64, 40);
    let engine = Engine::with_config(sys.clone(), EngineConfig::default());
    let sizes = |sys: &XmlViewSystem| {
        let genid = sys.view().dag().genid();
        (
            sys.base().total_rows() as u64,
            genid.n_live() as u64,
            genid.n_allocated() as u64,
            genid.n_free() as u64,
        )
    };
    let reported = |engine: &Engine| {
        let r = engine.stats().report();
        (r.base_rows, r.live_nodes, r.allocated_ids, r.free_ids)
    };
    assert_eq!(reported(&engine), sizes(&sys), "the starting epoch");
    assert_eq!(sizes(&sys).3, 0, "a published view has no free id");

    for &(h, c) in &edges[..3] {
        engine
            .apply_now(delete(h, c), SideEffectPolicy::Proceed)
            .expect("anchored delete commits");
    }
    let snap = engine.snapshot();
    let (rows, live, allocated, free) = reported(&engine);
    assert_eq!((rows, live, allocated, free), sizes(snap.system()));
    assert!(rows < sizes(&sys).0, "deletions removed base rows");
    assert_eq!(allocated, sizes(&sys).2, "the id space keeps its size");
    assert_eq!(live + free, allocated, "an id is live or free");

    // A fresh node, its deletion, another fresh node: the second takes the
    // ids the first gave back, and the id space ends where it was.
    let fresh_under = |head: i64, key: i64| {
        let path = format!("node[id={head}]/sub");
        XmlUpdate::insert("node", rxview_relstore::tuple![key, 7i64], &path).expect("parses")
    };
    let accepts = |h: &i64| {
        let mut sys = snap.system().clone();
        sys.apply(&fresh_under(*h, 900_001), SideEffectPolicy::Proceed)
            .is_ok()
    };
    let heads = edges.iter().map(|&(h, _)| h);
    let head = heads
        .into_iter()
        .find(accepts)
        .expect("a head takes children");
    let apply = |u: XmlUpdate| {
        engine
            .apply_now(u, SideEffectPolicy::Proceed)
            .expect("commits");
        reported(&engine)
    };
    let (_, live_1, allocated_1, free_1) = apply(fresh_under(head, 900_001));
    let interned = live_1 - live;
    assert!(interned > 0);
    assert_eq!(allocated_1 - allocated, interned.saturating_sub(free));
    let gone = apply(delete(head, 900_001));
    assert_eq!(
        (gone.1, gone.2, gone.3),
        (live, allocated_1, free_1 + interned)
    );
    let again = apply(fresh_under(head, 900_002));
    assert_eq!((again.1, again.2, again.3), (live_1, allocated_1, free_1));
    let text = engine.telemetry_report();
    for needle in [
        "state.base_rows",
        "state.live_nodes",
        "state.allocated_ids",
        "state.free_ids",
    ] {
        assert!(text.contains(needle), "report missing {needle}:\n{text}");
    }
    let report = engine.stats().report().to_string();
    assert!(report.contains("state: ") && report.contains("free"));
}
