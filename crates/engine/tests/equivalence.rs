//! Serial group commit must be *observationally equivalent* to applying
//! the same updates one at a time, in submission order: identical
//! accept/reject pattern, identical final base database, identical final
//! view — however many updates share a round and whether evaluation ran
//! scoped or full. A round is the queue's next `max_batch` updates, and
//! every applied update is folded on its own, so a commit of `n` updates
//! runs `⌈n / max_batch⌉` rounds and one ∆(M,L) fold per applied update. The
//! sequential side of the property tests is the paper's algorithm, not the
//! code under test: `rxview_reference::reference_apply` evaluates by §3.2
//! verbatim (`eval_xpath_on_dag` over all of `L` — no scope, no compiled
//! plan) and folds ∆(M,L) per update.

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
                    sys.reach(),
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
