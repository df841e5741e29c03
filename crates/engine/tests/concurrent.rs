//! Readers-during-writes smoke test: reader threads continuously evaluate
//! against engine snapshots while batches commit, and must never observe a
//! partially applied batch.

use rxview_core::{SideEffectPolicy, XmlUpdate, XmlViewSystem};
use rxview_engine::Engine;
use rxview_workload::{synthetic_atg, synthetic_database, SyntheticConfig};
use rxview_xmlkit::parse_xpath;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn system(n: usize) -> XmlViewSystem {
    let cfg = SyntheticConfig::with_size(n);
    let db = synthetic_database(&cfg);
    let atg = synthetic_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

/// One deletable `(head, child)` edge path per group: the edge of the
/// group head's first `H` child — `node[id=h]/sub/node[id=c]` — which
/// translates to a safe `H`-row deletion.
fn group_edges(sys: &XmlViewSystem, n: i64, group: i64) -> Vec<(i64, i64)> {
    use rxview_relstore::Value;
    let h = sys.base().table("H").expect("H table");
    (0..n / group)
        .filter_map(|g| {
            let head = g * group;
            let h1 = Value::Int(head);
            let row = h.scan_key_range(|row| row[0].cmp(&h1)).next()?;
            Some((head, row[1].as_int().expect("int h2")))
        })
        // Keep only edges the published view actually contains (an `H` row
        // yields an edge only if the head's C/F join survives).
        .filter(|&(h1, h2)| {
            let p = parse_xpath(&format!("node[id={h1}]/sub/node[id={h2}]")).expect("parses");
            !sys.evaluate(&p).is_empty()
        })
        .collect()
}

/// Deletes one edge in each of two distinct groups per round; the two
/// deletions are independent, so the partitioner puts them in one batch and
/// readers must see both deletions or neither.
#[test]
fn readers_never_observe_partial_batches() {
    let group = 40; // SyntheticConfig::with_size default group_size
    let n = 800;
    let sys = system(n);
    let edges = group_edges(&sys, n as i64, group);
    let engine = Engine::new(sys);

    // Pair up edges of adjacent groups: ((h0, c0), (h1, c1)), …
    let pairs: Vec<((i64, i64), (i64, i64))> = edges
        .chunks(2)
        .filter_map(|w| match w {
            [a, b] => Some((*a, *b)),
            _ => None,
        })
        .collect();
    assert!(pairs.len() >= 4, "need several pairs for a meaningful test");

    let stop = Arc::new(AtomicBool::new(false));
    let violations: Arc<std::sync::Mutex<Vec<String>>> = Arc::default();
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let engine = engine.clone();
            let stop = Arc::clone(&stop);
            let pairs = pairs.clone();
            let violations = Arc::clone(&violations);
            std::thread::spawn(move || {
                let edge_path = |(h, c): (i64, i64)| {
                    parse_xpath(&format!("node[id={h}]/sub/node[id={c}]")).expect("parses")
                };
                let paths: Vec<_> = pairs
                    .iter()
                    .map(|&(a, b)| (edge_path(a), edge_path(b)))
                    .collect();
                let mut i = r; // stagger readers
                while !stop.load(Ordering::Relaxed) {
                    let snap = engine.snapshot();
                    let (pa, pb) = &paths[i % paths.len()];
                    let has_a = !snap.select(pa).is_empty();
                    let has_b = !snap.select(pb).is_empty();
                    if has_a != has_b {
                        violations.lock().expect("no panics").push(format!(
                            "epoch {}: pair {:?} half-deleted ({has_a} vs {has_b})",
                            snap.epoch(),
                            pairs[i % paths.len()],
                        ));
                    }
                    i += 1;
                }
            })
        })
        .collect();

    // Writer: one pair per commit round, both deletes in the same batch.
    let del = |(h, c): (i64, i64)| {
        XmlUpdate::delete(&format!("node[id={h}]/sub/node[id={c}]")).expect("parses")
    };
    for &(a, b) in &pairs {
        let ta = engine
            .submit(del(a), SideEffectPolicy::Proceed)
            .expect("queue accepts");
        let tb = engine
            .submit(del(b), SideEffectPolicy::Proceed)
            .expect("queue accepts");
        let summary = engine.commit_pending();
        assert_eq!(summary.batches, 1, "independent pair must form one batch");
        ta.wait().expect("edge in distinct groups deletes cleanly");
        tb.wait().expect("edge in distinct groups deletes cleanly");
        std::thread::sleep(Duration::from_millis(2)); // give readers air
    }

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader panicked");
    }
    let violations = violations.lock().expect("no panics");
    assert!(
        violations.is_empty(),
        "partial batches observed: {violations:?}"
    );

    // Post-conditions: all deleted, state consistent, stats plausible.
    let snap = engine.snapshot();
    for &(a, b) in &pairs {
        for (h, c) in [a, b] {
            let p = parse_xpath(&format!("node[id={h}]/sub/node[id={c}]")).expect("parses");
            assert!(snap.select(&p).is_empty(), "edge {h}->{c} should be gone");
        }
    }
    snap.system()
        .consistency_check()
        .expect("consistent after concurrent run");
    let report = engine.stats().report();
    assert_eq!(report.accepted, 2 * pairs.len() as u64);
    assert!(report.snapshots_published >= pairs.len() as u64);
    assert!(
        report.scoped_evals > 0,
        "anchored deletes should evaluate scoped"
    );
}

/// Rounds of four publish one epoch-ordered snapshot stream. Readers must
/// observe (a) monotonically non-decreasing epochs and (b)
/// *prefix-complete* histories — a snapshot that reflects a later-committed
/// deletion may never be missing an earlier-committed one, whichever
/// rounds committed either.
#[test]
fn epoch_stream_is_monotonic_and_prefix_complete() {
    let group = 40;
    let n = 800;
    let sys = system(n);
    let edges = group_edges(&sys, n as i64, group);
    assert!(edges.len() >= 8, "need several groups");
    let engine = Engine::new(sys);

    // The global deletion order: edges commit in this sequence, four per
    // commit round.
    let order: Vec<(i64, i64)> = edges;
    let stop = Arc::new(AtomicBool::new(false));
    let violations: Arc<std::sync::Mutex<Vec<String>>> = Arc::default();
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let engine = engine.clone();
            let stop = Arc::clone(&stop);
            let order = order.clone();
            let violations = Arc::clone(&violations);
            std::thread::spawn(move || {
                let paths: Vec<_> = order
                    .iter()
                    .map(|&(h, c)| {
                        parse_xpath(&format!("node[id={h}]/sub/node[id={c}]")).expect("parses")
                    })
                    .collect();
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = engine.snapshot();
                    if snap.epoch() < last_epoch {
                        violations
                            .lock()
                            .expect("no panics")
                            .push(format!("epoch went backwards: {}", snap.epoch()));
                    }
                    last_epoch = snap.epoch();
                    // Deleted edges must form a prefix of the commit order:
                    // no present edge may precede a deleted one.
                    let present: Vec<bool> =
                        paths.iter().map(|p| !snap.select(p).is_empty()).collect();
                    if let Some(first_present) = present.iter().position(|&b| b) {
                        if let Some(later_deleted) =
                            present[first_present..].iter().position(|&b| !b)
                        {
                            violations.lock().expect("no panics").push(format!(
                                "epoch {}: edge {:?} still present but later edge {:?} deleted",
                                snap.epoch(),
                                order[first_present],
                                order[first_present + later_deleted],
                            ));
                        }
                    }
                }
            })
        })
        .collect();

    for chunk in order.chunks(4) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|&(h, c)| {
                engine
                    .submit(
                        XmlUpdate::delete(&format!("node[id={h}]/sub/node[id={c}]"))
                            .expect("parses"),
                        SideEffectPolicy::Proceed,
                    )
                    .expect("queue accepts")
            })
            .collect();
        engine.commit_pending();
        for t in tickets {
            t.wait().expect("independent group deletes commit");
        }
        std::thread::sleep(Duration::from_millis(2)); // give readers air
    }

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader panicked");
    }
    let violations = violations.lock().expect("no panics");
    assert!(violations.is_empty(), "epoch stream broken: {violations:?}");

    let report = engine.stats().report();
    assert_eq!(
        report.rounds as usize,
        order.len().div_ceil(4),
        "four independent deletions a round"
    );
    engine
        .snapshot()
        .system()
        .consistency_check()
        .expect("consistent after the run");
}

/// A writer thread looping on `commit_pending` group-commits submissions
/// from the test thread while readers poll; nothing deadlocks and every
/// ticket resolves.
#[test]
fn background_writer_drains_queue() {
    let sys = system(200);
    let edges = group_edges(&sys, 200, 40);
    assert!(edges.len() >= 5);
    let engine = Engine::new(sys);
    let writer_stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let engine = engine.clone();
        let stop = Arc::clone(&writer_stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                engine.commit_pending();
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let reader_stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let engine = engine.clone();
        let stop = Arc::clone(&reader_stop);
        std::thread::spawn(move || {
            let p = parse_xpath("node").expect("parses");
            let mut last_epoch = 0;
            while !stop.load(Ordering::Relaxed) {
                let snap = engine.snapshot();
                assert!(snap.epoch() >= last_epoch, "epochs must be monotonic");
                last_epoch = snap.epoch();
                let _ = snap.eval(&p);
            }
        })
    };

    let tickets: Vec<_> = edges[..5]
        .iter()
        .map(|&(h, c)| {
            engine
                .submit(
                    XmlUpdate::delete(&format!("node[id={h}]/sub/node[id={c}]")).expect("parses"),
                    SideEffectPolicy::Proceed,
                )
                .expect("queue accepts")
        })
        .collect();
    for t in tickets {
        t.wait().expect("background writer commits edge deletions");
    }
    writer_stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer panicked");
    reader_stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader panicked");
    engine
        .snapshot()
        .system()
        .consistency_check()
        .expect("consistent");
}

/// A displaced snapshot lives exactly as long as its readers: with no
/// writer thread committing on a tick, eight `apply_now` rounds must leave
/// the initial snapshot dead, while one a reader still holds stays alive
/// and unchanged.
#[test]
fn displaced_snapshots_are_released_with_their_last_reader() {
    let sys = system(400);
    let edges = group_edges(&sys, 400, 40);
    assert!(edges.len() >= 8, "one deletable edge per round");
    let engine = Engine::new(sys);
    let initial = Arc::downgrade(&engine.snapshot());
    let mut held = None;
    for (round, &(h, c)) in edges[..8].iter().enumerate() {
        if round == 3 {
            let snap = engine.snapshot();
            let seen = snap.system().exact_digest();
            held = Some((snap, seen));
        }
        let delete = XmlUpdate::delete(&format!("node[id={h}]/sub/node[id={c}]")).expect("parses");
        engine
            .apply_now(delete, SideEffectPolicy::Proceed)
            .expect("edge deletion commits");
    }
    assert_eq!(engine.snapshot().epoch(), 8);
    assert!(
        initial.upgrade().is_none(),
        "epoch 0 outlived its last reader"
    );
    let (snap, seen) = held.expect("taken in round 3");
    assert_eq!(snap.epoch(), 3);
    let changed = seen.first_difference(&snap.system().exact_digest());
    assert_eq!(changed, None, "a held snapshot changed");
    snap.system().consistency_check().expect("held snapshot");
    let pinned = Arc::downgrade(&snap);
    drop(snap);
    assert!(
        pinned.upgrade().is_none(),
        "epoch 3 outlived its last reader"
    );
}
