//! Serial group commit must be *observationally equivalent* to applying
//! the same updates one at a time, in submission order: identical
//! accept/reject pattern, identical final base database, identical final
//! view — however many updates share a round and whether evaluation ran
//! scoped or full. A round is the queue's next `max_batch` updates, and
//! every applied update is folded on its own, so a commit of `n` updates
//! runs `⌈n / max_batch⌉` rounds and one fold per applied update. The
//! sequential side of the property tests is the paper's algorithm, not the
//! code under test: `rxview_reference::reference_apply` evaluates by §3.2
//! verbatim (`eval_xpath_on_dag` over all of `L` — no scope, no compiled
//! plan) and folds each update.

use proptest::prelude::*;
use rxview_core::{SideEffectPolicy, XmlUpdate, XmlViewSystem};
use rxview_engine::{Engine, EngineConfig};
use rxview_reference::reference_apply;
use rxview_workload::{
    mixed_updates, synthetic_atg, synthetic_database, ChurnGen, DescendantConfig, DescendantGen,
    ShardSkewGen, SkewConfig, SyntheticConfig, WorkloadClass, WorkloadGen, NODES_PER_INSERT,
};

fn system(n: usize, seed: u64) -> XmlViewSystem {
    let mut cfg = SyntheticConfig::with_size(n);
    cfg.seed = seed;
    let db = synthetic_database(&cfg);
    let atg = synthetic_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

/// The first section of the [`Observed`](rxview_core::Observed) digest —
/// `I`, `gen_A`, edges by `((type, $A), (type, $B))` — in which two states
/// differ: node-id independent.
fn diverges(a: &XmlViewSystem, b: &XmlViewSystem) -> Option<&'static str> {
    a.observed_digest().first_difference(&b.observed_digest())
}

fn check_equivalence(n: usize, seed: u64, flips: &[bool], max_batch: usize) -> Result<(), String> {
    let sys = system(n, seed);
    let ops = mixed_updates(&sys, seed ^ 0xbeef, flips);
    check_ops_equivalence(sys, &ops, max_batch)
}

fn check_ops_equivalence(
    sys: XmlViewSystem,
    ops: &[XmlUpdate],
    max_batch: usize,
) -> Result<(), String> {
    if ops.is_empty() {
        return Ok(());
    }

    // Sequential reference: §3.2 verbatim, one update at a time.
    let mut seq = sys.clone();
    let seq_outcomes: Vec<bool> = ops
        .iter()
        .map(|u| reference_apply(&mut seq, u, SideEffectPolicy::Proceed).is_ok())
        .collect();

    // Batched engine: rounds of up to `max_batch` updates.
    let engine = Engine::with_config(
        sys,
        EngineConfig {
            max_batch,
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
    let summary = engine.commit_pending();
    if summary.updates != ops.len() {
        return Err(format!(
            "drained {} of {} updates",
            summary.updates,
            ops.len()
        ));
    }
    if summary.batches != ops.len().div_ceil(max_batch) {
        return Err(format!(
            "{} updates at max_batch {max_batch} ran {} rounds",
            ops.len(),
            summary.batches
        ));
    }
    let eng_outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
    let folds = engine.stats().report().cone_folds;
    if folds != summary.accepted as u64 {
        return Err(format!(
            "{folds} folds for {} applied updates",
            summary.accepted
        ));
    }

    if seq_outcomes != eng_outcomes {
        return Err(format!(
            "acceptance diverged:\n  seq {seq_outcomes:?}\n  eng {eng_outcomes:?}\n  ops: {}",
            ops.iter()
                .map(|u| u.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
    let snap = engine.snapshot();
    if let Some(section) = diverges(&seq, snap.system()) {
        return Err(format!(
            "final state diverged in Observed section `{section}`"
        ));
    }
    snap.system()
        .consistency_check()
        .map_err(|e| format!("engine state fails republication oracle: {e}"))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random mixed workloads, random round caps — from one update a round
    /// to wider than the stream: the round-by-round commit is
    /// observationally equivalent to applying the updates one at a time.
    #[test]
    fn batched_commit_equals_sequential(
        seed in 0u64..200,
        flips in prop::collection::vec(any::<bool>(), 8..20),
        max_batch in 1usize..56,
    ) {
        if let Err(e) = check_equivalence(220, seed, &flips, max_batch) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// Skewed hot-anchor workloads — chains of updates under a few anchors,
    /// each reading what the one before it wrote, inside one round — stay
    /// equivalent to sequential application.
    #[test]
    fn hot_anchor_commit_equals_sequential(
        seed in 0u64..200,
        n_ops in 8usize..28,
        hot in 0u32..=10,
        max_batch in 2usize..56,
    ) {
        let sys = system(200, seed);
        let mut gen = ShardSkewGen::new(SkewConfig {
            groups: 200 / 40,
            hot_fraction: f64::from(hot) / 10.0,
            hot_groups: 2,
            payload_domain: 8,
            seed,
            ..SkewConfig::default()
        });
        let ops = gen.ops(n_ops);
        if let Err(e) = check_ops_equivalence(sys, &ops, max_batch) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// Multi-cone scoped evaluation of `//`-headed (and wildcard-rooted)
    /// paths must equal the full unscoped §3.2 evaluation on random DAGs —
    /// selected nodes, matched parent edges, and side-effect sets alike.
    #[test]
    fn multi_cone_scoped_eval_equals_full(
        seed in 0u64..300,
        picks in prop::collection::vec((0usize..10_000, 0i64..50), 1..5),
    ) {
        let sys = system(180, seed);
        let vs = sys.view();
        let node_ty = vs.atg().dtd().type_id("node").expect("synthetic DTD");
        let genid = vs.dag().genid();
        let ids: Vec<i64> = genid
            .live_ids()
            .filter(|&v| genid.type_of(v) == node_ty)
            .map(|v| genid.attr_of(v)[0].as_int().expect("int id"))
            .collect();
        if ids.is_empty() {
            return Ok(());
        }
        for (pick, payload) in picks {
            let id = ids[pick % ids.len()];
            for path in [
                format!("//node[id={id}]"),
                format!("//node[id={id}]/sub/node"),
                format!("//node[payload={payload}]"),
                format!("//node[id={id}]//node[payload={payload}]"),
                format!("//sub/node[id={id}]"),
                format!("*[id={id}]/sub/node"),
            ] {
                let p = rxview_xmlkit::parse_xpath(&path).expect("path parses");
                // `None` = the path degraded to a global footprint (e.g. a
                // candidate set past the cap); the engine evaluates those
                // unscoped, so there is nothing to compare. The cone-union
                // projection is built directly: containment must hold for
                // every union, including the ones `scope_of` would judge too
                // large a share of this small view to be worth projecting.
                let Some(anchors) = rxview_core::resolve_anchors(
                    vs,
                    &sys.class_of(&p),
                    rxview_core::MAX_CONE_ANCHORS,
                    None,
                ) else {
                    continue;
                };
                let scope = rxview_core::union_scope(
                    vs,
                    sys.topo(),
                    &anchors.nodes,
                    anchors.with_ancestors,
                );
                let scoped = sys.evaluate_scoped(&p, &scope);
                let full = sys.evaluate(&p);
                prop_assert_eq!(&scoped.selected, &full.selected, "selected on {}", path);
                prop_assert_eq!(
                    &scoped.edge_parents, &full.edge_parents,
                    "edges on {}", path
                );
                prop_assert_eq!(
                    scoped.side_effects(vs, true),
                    full.side_effects(vs, true),
                    "delete side effects on {}", path
                );
                prop_assert_eq!(
                    scoped.side_effects(vs, false),
                    full.side_effects(vs, false),
                    "insert side effects on {}", path
                );
            }
        }
    }

    /// `//`-headed updates riding shared rounds preserve the batched ==
    /// sequential equivalence (skewed hot-group workloads put dependent
    /// updates side by side).
    #[test]
    fn descendant_commit_equals_sequential(
        seed in 0u64..200,
        n_ops in 8usize..28,
        desc_fraction in 0u32..=10,
        max_batch in 1usize..56,
    ) {
        let sys = system(220, seed);
        let mut gen = DescendantGen::new(DescendantConfig {
            groups: 220 / 40,
            descendant_fraction: f64::from(desc_fraction) / 10.0,
            hot_fraction: 0.4,
            hot_groups: 2,
            seed,
            ..DescendantConfig::default()
        });
        let ops = gen.ops(n_ops);
        if let Err(e) = check_ops_equivalence(sys, &ops, max_batch) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// A purely `//`-headed stream over independent groups commits in one
/// *shared* round — serial rounds never split a queue prefix by path class
/// — with one fold per applied update, and still observationally
/// equivalent to sequential.
#[test]
fn descendant_updates_ride_shared_rounds() {
    let sys = system(400, 23);
    let mut gen = DescendantGen::new(DescendantConfig {
        groups: 10,
        descendant_fraction: 1.0,
        hot_fraction: 0.0, // independent groups: maximal sharing potential
        ..DescendantConfig::default()
    });
    let ops = gen.ops(40);
    let mut seq = sys.clone();
    let seq_outcomes: Vec<bool> = ops
        .iter()
        .map(|u| seq.apply(u, SideEffectPolicy::Proceed).is_ok())
        .collect();
    let engine = Engine::new(sys);
    let tickets: Vec<_> = ops
        .iter()
        .map(|u| {
            engine
                .submit(u.clone(), SideEffectPolicy::Proceed)
                .expect("queue not full")
        })
        .collect();
    engine.commit_pending();
    let eng_outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
    assert_eq!(seq_outcomes, eng_outcomes);
    assert_eq!(diverges(&seq, engine.snapshot().system()), None);
    let report = engine.stats().report();
    assert_eq!(
        report.rounds, 1,
        "40 updates under max_batch 256: one round"
    );
    let applied = eng_outcomes.iter().filter(|&&ok| ok).count() as u64;
    assert!(applied > 1, "independent `//` updates share the round");
    assert_eq!(report.cone_folds, applied, "one fold per applied update");
}

/// Updates under ONE anchor cone share a round, dependent ones included: a
/// delete of the very node an earlier insert of the round creates finds it,
/// because each update is evaluated against the state the one before it
/// left. (The name is older than serial rounds; what it serializes is the
/// round's apply loop.)
#[test]
fn hot_anchor_fission_co_admits_disjoint_serializes_overlapping() {
    use rxview_relstore::{tuple, Value};
    let sys = system(200, 11);
    // Three inserts of distinct fresh nodes under the same group head, then
    // a delete of the first — the delete reads the typed key the first
    // insert writes, so it must wait a round.
    let fresh: i64 = 3_000_000_000;
    let mut ops: Vec<XmlUpdate> = (0..3)
        .map(|k| {
            XmlUpdate::insert("node", tuple![fresh + k, Value::Int(k)], "node[id=0]/sub").unwrap()
        })
        .collect();
    ops.push(XmlUpdate::delete(&format!("node[id=0]/sub/node[id={fresh}]")).unwrap());

    let mut seq = sys.clone();
    let seq_outcomes: Vec<bool> = ops
        .iter()
        .map(|u| seq.apply(u, SideEffectPolicy::Proceed).is_ok())
        .collect();
    let engine = Engine::new(sys);
    let tickets: Vec<_> = ops
        .iter()
        .map(|u| {
            engine
                .submit(u.clone(), SideEffectPolicy::Proceed)
                .expect("queue not full")
        })
        .collect();
    engine.commit_pending();
    let eng_outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
    assert_eq!(seq_outcomes, eng_outcomes);
    assert!(eng_outcomes.iter().all(|&ok| ok), "all four ops apply");
    assert_eq!(diverges(&seq, engine.snapshot().system()), None);
    engine.snapshot().system().consistency_check().unwrap();
    let report = engine.stats().report();
    assert_eq!(
        report.rounds, 1,
        "the dependent delete shares its insert's round"
    );
    assert_eq!(report.cone_folds, 4, "one fold per applied update");
}

/// Four inserts of distinct fresh nodes under one group head share one
/// round: the whole-cone conflict unit would give each its own.
#[test]
fn disjoint_same_cone_inserts_share_one_round() {
    use rxview_relstore::{tuple, Value};
    let sys = system(200, 11);
    let fresh: i64 = 3_000_000_000;
    let engine = Engine::new(sys);
    let tickets: Vec<_> = (0..4)
        .map(|k| {
            let u = XmlUpdate::insert("node", tuple![fresh + k, Value::Int(k)], "node[id=0]/sub")
                .unwrap();
            engine
                .submit(u, SideEffectPolicy::Proceed)
                .expect("queue not full")
        })
        .collect();
    engine.commit_pending();
    assert!(tickets.into_iter().all(|t| t.wait().is_ok()));
    engine.snapshot().system().consistency_check().unwrap();
    let report = engine.stats().report();
    assert_eq!(
        report.rounds, 1,
        "four disjoint same-cone inserts share one round"
    );
    assert_eq!(report.cone_folds, 4, "one fold per applied update");
}

/// A deterministic large-ish case exercising multi-batch commits.
#[test]
fn large_independent_batch_is_equivalent() {
    let flips: Vec<bool> = (0..40).map(|i| i % 4 == 0).collect();
    check_equivalence(400, 7, &flips, 16).unwrap();
}

/// Insertion-heavy deterministic sweep: fresh subtrees inserted up to twelve
/// to a round.
#[test]
fn insert_heavy_batches_are_equivalent() {
    let flips: Vec<bool> = (0..32).map(|i| i % 4 != 0).collect();
    check_equivalence(400, 13, &flips, 12).unwrap();
}

/// Updates with deliberately colliding targets, together with typed
/// leading-`//` paths and an unfilterable wildcard, serialize correctly in
/// one round: an exact duplicate of an applied deletion is rejected inside
/// the round, because it is evaluated after its twin's fold. (The name is
/// older than serial rounds; nothing is sharded.)
#[test]
fn conflicting_updates_serialize_sharded() {
    let sys = system(200, 11);
    let mut gen = WorkloadGen::new(sys.view(), 5);
    let mut ops: Vec<XmlUpdate> = Vec::new();
    ops.extend(gen.deletions(WorkloadClass::W2, 3));
    ops.extend(gen.deletions(WorkloadClass::W1, 2));
    ops.extend(ops.clone()); // exact duplicates: second run must see first's effect
                             // Two typed leading-`//` deletes (payload values are drawn from 0..50),
                             // each resolving to a bounded multi-anchor cone.
    ops.push(XmlUpdate::delete("//node[payload=7]/sub/node").unwrap());
    ops.push(XmlUpdate::delete("//node[payload=11]/sub/node").unwrap());
    // An unfilterable wildcard root: genuinely untypeable, evaluated over
    // all of `L`.
    ops.push(XmlUpdate::delete("*/sub/node[payload=13]").unwrap());
    let mut seq = sys.clone();
    let seq_outcomes: Vec<bool> = ops
        .iter()
        .map(|u| seq.apply(u, SideEffectPolicy::Proceed).is_ok())
        .collect();
    let engine = Engine::new(sys);
    let tickets: Vec<_> = ops
        .iter()
        .map(|u| {
            engine
                .submit(u.clone(), SideEffectPolicy::Proceed)
                .expect("queue not full")
        })
        .collect();
    engine.commit_pending();
    let eng_outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
    assert_eq!(seq_outcomes, eng_outcomes);
    assert_eq!(diverges(&seq, engine.snapshot().system()), None);
    engine.snapshot().system().consistency_check().unwrap();
    let report = engine.stats().report();
    assert_eq!(
        report.rounds, 1,
        "13 updates under max_batch 256: one round"
    );
    let applied = eng_outcomes.iter().filter(|&&ok| ok).count() as u64;
    assert_eq!(report.cone_folds, applied, "one fold per applied update");
    for i in 0..5 {
        if eng_outcomes[i] {
            assert!(
                !eng_outcomes[i + 5],
                "`{}` applied twice in one round",
                ops[i]
            );
        }
    }
}

/// Updates with deliberately colliding targets must serialize correctly.
#[test]
fn conflicting_updates_serialize() {
    let sys = system(200, 11);
    // Same anchor twice plus a global `//` delete in between.
    let mut gen = WorkloadGen::new(sys.view(), 5);
    let mut ops: Vec<XmlUpdate> = Vec::new();
    ops.extend(gen.deletions(WorkloadClass::W2, 3));
    ops.extend(gen.deletions(WorkloadClass::W1, 2));
    ops.extend(ops.clone()); // exact duplicates: second run must see first's effect
    let mut seq = sys.clone();
    let seq_outcomes: Vec<bool> = ops
        .iter()
        .map(|u| seq.apply(u, SideEffectPolicy::Proceed).is_ok())
        .collect();
    let engine = Engine::new(sys);
    let tickets: Vec<_> = ops
        .iter()
        .map(|u| {
            engine
                .submit(u.clone(), SideEffectPolicy::Proceed)
                .expect("queue not full")
        })
        .collect();
    engine.commit_pending();
    let eng_outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
    assert_eq!(seq_outcomes, eng_outcomes);
    assert_eq!(diverges(&seq, engine.snapshot().system()), None);
    engine.snapshot().system().consistency_check().unwrap();
}

/// Node ids are recycled: every round of this stream collects the fresh
/// nodes an earlier round inserted, and its own insertions are handed the
/// ids the previous round's fold released. What the engine ends on is what
/// the sequential reference ends on, and its id space never outgrew the
/// published view by more than a few rounds' allocations.
#[test]
fn rounds_inserting_on_ids_the_previous_round_freed_equal_sequential() {
    let sys = system(400, 3);
    let published = sys.view().dag().genid().n_allocated();
    let mut gen = ChurnGen::new(&sys, 10, 40);
    let windows: Vec<Vec<XmlUpdate>> = (0..16).map(|_| gen.window(4)).collect();

    let mut seq = sys.clone();
    for u in windows.iter().flatten() {
        reference_apply(&mut seq, u, SideEffectPolicy::Proceed)
            .unwrap_or_else(|e| panic!("`{u}` rejected: {e}"));
    }

    let engine = Engine::with_config(
        sys,
        EngineConfig {
            max_batch: 4,
            ..EngineConfig::default()
        },
    );
    for (k, window) in windows.iter().enumerate() {
        let submit = |u: &XmlUpdate| {
            let ticket = engine.submit(u.clone(), SideEffectPolicy::Proceed);
            ticket.expect("queue not full")
        };
        let tickets: Vec<_> = window.iter().map(submit).collect();
        engine.commit_pending();
        for t in tickets {
            t.wait().expect("accepted");
        }
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), k as u64 + 1, "one round per window");
        let genid = snap.system().view().dag().genid();
        assert!(
            genid.n_allocated() <= published + 3 * 2 * NODES_PER_INSERT,
            "{} ids for {} live nodes",
            genid.n_allocated(),
            genid.n_live()
        );
    }
    let snap = engine.snapshot();
    assert_eq!(diverges(&seq, snap.system()), None);
    snap.system().consistency_check().expect("republication");
}

/// `valid`, interleaved with updates §2.4's validation refuses (flagged
/// `true`) — deletions and insertions of a type the target does not hold,
/// paths that reach no type, an unknown inserted type — with the updates
/// of `valid` under a shape not seen before (an `[id]` filter, which every
/// `node` satisfies, on the first step), and with updates that select
/// nothing.
fn admission_stream(valid: &[XmlUpdate]) -> Vec<(XmlUpdate, bool)> {
    use rxview_relstore::tuple;
    use rxview_xmlkit::xpath::Filter;
    let fresh: i64 = 3_000_000_000;
    let refused = [
        XmlUpdate::delete("node[id=0]/sub").unwrap(),
        XmlUpdate::insert("sub", tuple![fresh, 0], "node[id=0]/sub").unwrap(),
        XmlUpdate::delete("node[id=0]/sub/nothing").unwrap(),
        XmlUpdate::insert("node", tuple![fresh, 0], "nothing[id=0]/sub").unwrap(),
        XmlUpdate::insert("nothing", tuple![fresh], "node[id=0]/sub").unwrap(),
    ];
    let empty = [
        XmlUpdate::delete("node[id=999999999]/sub/node").unwrap(),
        XmlUpdate::insert("node", tuple![fresh + 1, 1], "node[id=999999999]/sub").unwrap(),
    ];
    let reshaped = |u: &XmlUpdate| {
        let mut u = u.clone();
        let (XmlUpdate::Insert { path, .. } | XmlUpdate::Delete { path }) = &mut u;
        let id = rxview_xmlkit::parse_xpath("id").unwrap();
        path.steps[0].filters.push(Filter::Path(id));
        u
    };
    let mut stream = Vec::new();
    for (i, u) in valid.iter().enumerate() {
        stream.push((u.clone(), false));
        if i % 2 == 0 {
            stream.push((refused[i / 2 % refused.len()].clone(), true));
        }
        if i % 3 == 1 {
            stream.push((reshaped(u), false));
        }
        if i % 4 == 2 {
            stream.push((empty[i / 4 % empty.len()].clone(), false));
        }
    }
    stream
}

/// An outcome as the battery compares it: accepted, or the rejection.
fn verdict<T>(outcome: &Result<T, rxview_core::UpdateError>) -> String {
    match outcome {
        Ok(_) => "accepted".to_owned(),
        Err(e) => format!("{e:?}"),
    }
}

/// Plan-cache probes so far: hits and misses, and compiles.
fn probes(sys: &XmlViewSystem) -> u64 {
    let s = sys.view().plan_cache().stats();
    s.hits + s.misses + s.compiles
}

/// The admission battery: an update is schema-checked and its plan looked
/// up once, at `submit`, on the submitter's thread. A refused update's
/// ticket is resolved before any commit; the rest reach the verdicts and
/// the state of one-at-a-time `apply` and of `reference_apply`, by the
/// Exact digest, and `commit_pending` probes the plan cache not once —
/// it evaluates through the plans the updates were admitted with. A read
/// looks its plan up once.
#[test]
fn admission_refuses_at_submit_and_the_commit_loop_looks_nothing_up() {
    use rxview_engine::EngineError;
    let sys = system(200, 5);
    let flips: Vec<bool> = (0..24).map(|i| i % 3 == 0).collect();
    let valid = mixed_updates(&sys, 0x5eed, &flips);
    let stream = admission_stream(&valid);
    let n_refused = stream.iter().filter(|(_, refused)| *refused).count();
    assert!(n_refused >= 5, "every kind of refusal is in the stream");

    let mut by_apply = sys.clone();
    let mut by_reference = sys.clone();
    let mut expected = Vec::new();
    for (u, refused) in &stream {
        let applied = verdict(&by_apply.apply(u, SideEffectPolicy::Proceed));
        let reference = verdict(&reference_apply(
            &mut by_reference,
            u,
            SideEffectPolicy::Proceed,
        ));
        assert_eq!(applied, reference, "`{u}`");
        assert_eq!(*refused, applied.starts_with("Schema("), "`{u}`: {applied}");
        expected.push(applied);
    }
    assert!(expected.iter().any(|v| v == "EmptyTarget"));
    assert!(expected.iter().filter(|v| *v == "accepted").count() > valid.len() / 2);

    let engine = Engine::with_config(
        sys,
        EngineConfig {
            max_batch: 4,
            ..EngineConfig::default()
        },
    );
    let tickets: Vec<_> = stream
        .iter()
        .map(|(u, _)| engine.submit(u.clone(), SideEffectPolicy::Proceed).unwrap())
        .collect();
    let mut verdicts: Vec<Option<String>> = tickets
        .iter()
        .map(|t| {
            t.try_wait().map(|outcome| match outcome {
                Err(EngineError::Update(e)) => verdict::<()>(&Err(e)),
                other => panic!("resolved at submit as {other:?}"),
            })
        })
        .collect();
    let at_submit: Vec<bool> = verdicts.iter().map(Option::is_some).collect();
    let refused: Vec<bool> = stream.iter().map(|(_, refused)| *refused).collect();
    assert_eq!(
        at_submit, refused,
        "exactly the refused tickets resolve at submit"
    );

    let probed = probes(engine.snapshot().system());
    let summary = engine.commit_pending();
    assert_eq!(
        probes(engine.snapshot().system()),
        probed,
        "the commit loop probed the plan cache"
    );
    assert_eq!(
        summary.updates,
        stream.len() - n_refused,
        "a refusal takes no queue slot"
    );
    assert_eq!(summary.batches, summary.updates.div_ceil(4));
    for (v, t) in verdicts.iter_mut().zip(tickets) {
        if v.is_none() {
            *v = Some(verdict(&t.wait().map_err(|e| match e {
                EngineError::Update(e) => e,
                other => panic!("{other}"),
            })));
        }
    }
    let verdicts: Vec<String> = verdicts.into_iter().map(Option::unwrap).collect();
    assert_eq!(verdicts, expected);
    let report = engine.stats().report();
    assert_eq!(report.submitted, stream.len() as u64);
    let accepted = expected.iter().filter(|v| *v == "accepted").count() as u64;
    assert_eq!(
        (report.accepted, report.rejected),
        (accepted, stream.len() as u64 - accepted)
    );

    let snap = engine.snapshot();
    assert_eq!(snap.system().exact_digest(), by_apply.exact_digest());
    assert_eq!(snap.system().exact_digest(), by_reference.exact_digest());

    let path = valid[0].path();
    let lookups = || {
        let s = snap.system().view().plan_cache().stats();
        s.hits + s.misses
    };
    let before = lookups();
    snap.system().eval(path);
    assert_eq!(
        lookups() - before,
        1,
        "`XmlViewSystem::eval` looks its plan up once"
    );
    let before = lookups();
    snap.eval(path);
    assert_eq!(
        lookups() - before,
        1,
        "`Snapshot::eval` looks its plan up once"
    );
}

/// A durable engine's log directory is the same, byte for byte, whether or
/// not the stream held the updates admission refuses: a refusal takes no
/// round and writes no log byte. Rounds of 4 updates, so a refusal that
/// took a queue slot would move the rounds' boundaries.
#[test]
fn refused_updates_leave_the_log_directory_byte_identical() {
    let sys = system(200, 5);
    let flips: Vec<bool> = (0..24).map(|i| i % 3 == 0).collect();
    let stream = admission_stream(&mixed_updates(&sys, 0x5eed, &flips));
    let logged = |tag: &str, with_refused: bool| {
        let dir =
            std::env::temp_dir().join(format!("rxview-admission-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            max_batch: 4,
            ..EngineConfig::default()
        };
        let engine = Engine::with_durability(sys.clone(), config, &dir).unwrap();
        let tickets: Vec<_> = stream
            .iter()
            .filter(|(_, refused)| with_refused || !refused)
            .map(|(u, _)| engine.submit(u.clone(), SideEffectPolicy::Proceed).unwrap())
            .collect();
        engine.commit_pending();
        let waited = tickets.into_iter().map(|t| t.wait().is_ok());
        let accepted = waited.filter(|&ok| ok).count();
        drop(engine);
        let mut files: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        std::fs::remove_dir_all(&dir).unwrap();
        (accepted, files)
    };
    let (accepted, with) = logged("with", true);
    assert!(accepted > 0);
    assert!(with
        .iter()
        .any(|(name, _)| name.to_string_lossy().ends_with(".rxlog")));
    assert_eq!(logged("without", false), (accepted, with));
}
