//! Batched group commit must be *observationally equivalent* to applying
//! the same updates one at a time through `XmlViewSystem::apply`, in
//! submission order: identical accept/reject pattern, identical final base
//! database, identical final view — regardless of how the conflict
//! partitioner groups them, whether evaluation ran scoped or full, and how
//! maintenance was folded.

use proptest::prelude::*;
use rxview_core::{SideEffectPolicy, XmlUpdate, XmlViewSystem};
use rxview_engine::{Engine, EngineConfig};
use rxview_workload::{
    synthetic_atg, synthetic_database, DescendantConfig, DescendantGen, ShardSkewGen, SkewConfig,
    SyntheticConfig, WorkloadClass, WorkloadGen,
};
use std::collections::BTreeSet;

fn system(n: usize, seed: u64) -> XmlViewSystem {
    let mut cfg = SyntheticConfig::with_size(n);
    cfg.seed = seed;
    let db = synthetic_database(&cfg);
    let atg = synthetic_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

/// View edges as `((type, $A), (type, $B))` pairs — node-id independent.
fn edge_set(sys: &XmlViewSystem) -> BTreeSet<(String, String)> {
    let vs = sys.view();
    let render = |v| {
        format!(
            "{}:{}",
            vs.atg().dtd().name(vs.dag().genid().type_of(v)),
            vs.dag().genid().attr_of(v)
        )
    };
    vs.dag()
        .all_edges()
        .map(|(u, v)| (render(u), render(v)))
        .collect()
}

fn base_rows(sys: &XmlViewSystem) -> BTreeSet<(String, String)> {
    let base = sys.base();
    base.table_names()
        .flat_map(|t| {
            base.table(t)
                .expect("listed table exists")
                .iter()
                .map(move |row| (t.to_owned(), row.to_string()))
        })
        .collect()
}

fn workload(sys: &XmlViewSystem, seed: u64, flips: &[bool]) -> Vec<XmlUpdate> {
    let mut gen = WorkloadGen::new(sys.view(), seed);
    let mut ops = Vec::new();
    for (i, &ins) in flips.iter().enumerate() {
        // W1 paths use `//` (global footprint, forces serialization);
        // W2/W3 are `/`-anchored (batchable, scoped evaluation).
        let class = WorkloadClass::all()[i % 3];
        let op = if ins {
            gen.insertion(class)
        } else {
            gen.deletion(class)
        };
        if let Some(u) = op {
            ops.push(u);
        }
    }
    ops
}

fn check_equivalence(
    n: usize,
    seed: u64,
    flips: &[bool],
    max_batch: usize,
    n_shards: usize,
    pipeline_depth: usize,
) -> Result<(), String> {
    let sys = system(n, seed);
    let ops = workload(&sys, seed ^ 0xbeef, flips);
    check_ops_equivalence(sys, &ops, max_batch, n_shards, pipeline_depth)
}

fn check_ops_equivalence(
    sys: XmlViewSystem,
    ops: &[XmlUpdate],
    max_batch: usize,
    n_shards: usize,
    pipeline_depth: usize,
) -> Result<(), String> {
    if ops.is_empty() {
        return Ok(());
    }

    // Sequential reference.
    let mut seq = sys.clone();
    let seq_outcomes: Vec<bool> = ops
        .iter()
        .map(|u| seq.apply(u, SideEffectPolicy::Proceed).is_ok())
        .collect();

    // Batched engine (single-writer when `n_shards <= 1`, sharded above;
    // `pipeline_depth == 1` forces strictly sequential rounds, deeper
    // values let later rounds translate while earlier ones publish).
    let engine = Engine::with_config(
        sys,
        EngineConfig {
            max_batch,
            n_shards,
            pipeline_depth,
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
    let eng_outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();

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
    if base_rows(&seq) != base_rows(snap.system()) {
        return Err("final base database diverged".into());
    }
    if edge_set(&seq) != edge_set(snap.system()) {
        return Err("final view diverged".into());
    }
    snap.system()
        .consistency_check()
        .map_err(|e| format!("engine state fails republication oracle: {e}"))?;
    Ok(())
}

/// Runs the same ops through a plans-on engine, a plans-off engine, and a
/// plans-off sequential oracle; all three must agree on the acceptance
/// pattern, the final base database, and the final view. The `use_plans`
/// knob swaps the compiled-plan runtime (ARCHITECTURE.md §8) for the
/// verbatim `dag_eval`/`classify` reference path, so this is the
/// equivalence proof for the whole plan layer: shape keying, slot
/// rebinding, plan-bound classification, and the arena-backed executor.
fn check_plans_knob_equivalence(
    sys: XmlViewSystem,
    ops: &[XmlUpdate],
    max_batch: usize,
    n_shards: usize,
    pipeline_depth: usize,
) -> Result<(), String> {
    if ops.is_empty() {
        return Ok(());
    }
    let mut seq = sys.clone();
    seq.set_plans_enabled(false);
    let seq_outcomes: Vec<bool> = ops
        .iter()
        .map(|u| seq.apply(u, SideEffectPolicy::Proceed).is_ok())
        .collect();

    let run = |use_plans: bool| -> Result<_, String> {
        let engine = Engine::with_config(
            sys.clone(),
            EngineConfig {
                max_batch,
                n_shards,
                pipeline_depth,
                use_plans,
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
        engine.commit_pending();
        let outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
        let snap = engine.snapshot();
        snap.system()
            .consistency_check()
            .map_err(|e| format!("plans={use_plans}: republication oracle fails: {e}"))?;
        let probes = {
            let s = engine.stats().report().plan_cache;
            s.hits + s.misses
        };
        Ok((
            outcomes,
            base_rows(snap.system()),
            edge_set(snap.system()),
            probes,
        ))
    };
    let (on_out, on_base, on_edges, on_probes) = run(true)?;
    let (off_out, off_base, off_edges, off_probes) = run(false)?;

    if on_out != seq_outcomes || off_out != seq_outcomes {
        return Err(format!(
            "acceptance diverged:\n  seq(plans off) {seq_outcomes:?}\n  engine(plans on) {on_out:?}\n  engine(plans off) {off_out:?}"
        ));
    }
    if on_base != off_base {
        return Err("final base database diverged between plans on/off".into());
    }
    if on_edges != off_edges {
        return Err("final view diverged between plans on/off".into());
    }
    // The knob is real: the plans-on engine ran through the cache, the
    // plans-off engine never touched it.
    if on_probes == 0 {
        return Err("plans-on engine never probed the plan cache".into());
    }
    if off_probes != 0 {
        return Err(format!(
            "plans-off engine probed the plan cache {off_probes} times"
        ));
    }
    Ok(())
}

/// Runs the same ops through a templates-on engine, a templates-off
/// engine, and a templates-off sequential oracle; all three must agree on
/// the acceptance pattern, the final base database, and the final view.
/// The `use_templates` knob swaps the precompiled ∆R skeletons
/// (ARCHITECTURE.md §10: insert-side closure templates, delete-side
/// candidate-source programs) for the verbatim per-update equality-closure
/// / source-derivation path, so this is the equivalence proof for the
/// whole template layer — pin replay order, conflict detection, source
/// program precedence, and the not-key-preserving verdict alike. The
/// `cone_fission` flag rides along so the sweep also covers coalesced
/// per-cone folds over template-translated updates.
fn check_templates_knob_equivalence(
    sys: XmlViewSystem,
    ops: &[XmlUpdate],
    max_batch: usize,
    n_shards: usize,
    pipeline_depth: usize,
    cone_fission: bool,
) -> Result<(), String> {
    if ops.is_empty() {
        return Ok(());
    }
    let mut seq = sys.clone();
    seq.set_templates_enabled(false);
    let seq_outcomes: Vec<bool> = ops
        .iter()
        .map(|u| seq.apply(u, SideEffectPolicy::Proceed).is_ok())
        .collect();

    let run = |use_templates: bool| -> Result<_, String> {
        let engine = Engine::with_config(
            sys.clone(),
            EngineConfig {
                max_batch,
                n_shards,
                pipeline_depth,
                cone_fission,
                use_templates,
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
        engine.commit_pending();
        let outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
        let snap = engine.snapshot();
        snap.system()
            .consistency_check()
            .map_err(|e| format!("templates={use_templates}: republication oracle fails: {e}"))?;
        let probes = engine.stats().report().template_cache.hits;
        Ok((
            outcomes,
            base_rows(snap.system()),
            edge_set(snap.system()),
            probes,
        ))
    };
    let (on_out, on_base, on_edges, on_probes) = run(true)?;
    let (off_out, off_base, off_edges, off_probes) = run(false)?;

    if on_out != seq_outcomes || off_out != seq_outcomes {
        return Err(format!(
            "acceptance diverged:\n  seq(templates off) {seq_outcomes:?}\n  engine(templates on) {on_out:?}\n  engine(templates off) {off_out:?}\n  ops: {}",
            ops.iter()
                .map(|u| u.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
    if on_base != off_base {
        return Err("final base database diverged between templates on/off".into());
    }
    if on_edges != off_edges {
        return Err("final view diverged between templates on/off".into());
    }
    // The knob is real: the templates-on engine instantiated from the
    // registry, the templates-off engine never touched it.
    if on_probes == 0 {
        return Err("templates-on engine never instantiated a template".into());
    }
    if off_probes != 0 {
        return Err(format!(
            "templates-off engine probed the template registry {off_probes} times"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random mixed workloads, random batch caps: batched == sequential.
    #[test]
    fn batched_commit_equals_sequential(
        seed in 0u64..200,
        flips in prop::collection::vec(any::<bool>(), 8..20),
        max_batch in 1usize..12,
    ) {
        if let Err(e) = check_equivalence(220, seed, &flips, max_batch, 1, 2) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// The same property under sharded parallel writers: the router, the
    /// shard translations, and the merging publisher must be observationally
    /// equivalent to applying the updates one at a time — at every pipeline
    /// depth, from strictly sequential rounds (depth 1) through deep
    /// lookahead (depth 3).
    #[test]
    fn sharded_commit_equals_sequential(
        seed in 0u64..200,
        flips in prop::collection::vec(any::<bool>(), 8..20),
        max_batch in 1usize..12,
        n_shards in 2usize..6,
        pipeline_depth in 1usize..4,
    ) {
        if let Err(e) =
            check_equivalence(220, seed, &flips, max_batch, n_shards, pipeline_depth)
        {
            return Err(TestCaseError::fail(e));
        }
    }

    /// Compiled plans are an optimization, not a semantics change: the
    /// `use_plans` knob flipped either way yields identical acceptance
    /// patterns and final states across random mixed workloads, on both
    /// write paths and at every pipeline depth (1–3).
    #[test]
    fn plans_on_equals_plans_off(
        seed in 0u64..200,
        flips in prop::collection::vec(any::<bool>(), 8..20),
        max_batch in 1usize..12,
        n_shards in 1usize..6,
        pipeline_depth in 1usize..4,
    ) {
        let sys = system(220, seed);
        let ops = workload(&sys, seed ^ 0xbeef, &flips);
        if let Err(e) =
            check_plans_knob_equivalence(sys, &ops, max_batch, n_shards, pipeline_depth)
        {
            return Err(TestCaseError::fail(e));
        }
    }

    /// Compiled translation templates are an optimization, not a semantics
    /// change: the `use_templates` knob flipped either way yields identical
    /// acceptance patterns and final states across random mixed workloads,
    /// on both write paths, at every pipeline depth (1–3), with hot-cone
    /// fission on and off.
    #[test]
    fn templates_on_equals_templates_off(
        seed in 0u64..200,
        flips in prop::collection::vec(any::<bool>(), 8..20),
        max_batch in 1usize..12,
        n_shards in 1usize..6,
        pipeline_depth in 1usize..4,
        cone_fission in any::<bool>(),
    ) {
        let sys = system(220, seed);
        let ops = workload(&sys, seed ^ 0xbeef, &flips);
        if let Err(e) = check_templates_knob_equivalence(
            sys, &ops, max_batch, n_shards, pipeline_depth, cone_fission,
        ) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// Runs the same ops through a fission-on engine, a fission-off engine,
/// and the sequential oracle; all three must agree on the acceptance
/// pattern, the final base database, and the final view. The
/// `cone_fission` knob swaps the sub-cone conflict unit (ARCHITECTURE.md
/// §9) for the whole-cone one, so this is the equivalence proof for the
/// whole fission path: sub-key derivation, optimistic write∩write
/// admission, per-cone fold coalescing, and the publisher's realized-write
/// re-check.
fn check_fission_knob_equivalence(
    sys: XmlViewSystem,
    ops: &[XmlUpdate],
    max_batch: usize,
    n_shards: usize,
    pipeline_depth: usize,
) -> Result<(), String> {
    if ops.is_empty() {
        return Ok(());
    }
    let mut seq = sys.clone();
    let seq_outcomes: Vec<bool> = ops
        .iter()
        .map(|u| seq.apply(u, SideEffectPolicy::Proceed).is_ok())
        .collect();

    let run = |cone_fission: bool| -> Result<_, String> {
        let engine = Engine::with_config(
            sys.clone(),
            EngineConfig {
                max_batch,
                n_shards,
                pipeline_depth,
                cone_fission,
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
        engine.commit_pending();
        let outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
        let snap = engine.snapshot();
        snap.system()
            .consistency_check()
            .map_err(|e| format!("fission={cone_fission}: republication oracle fails: {e}"))?;
        let report = engine.stats().report();
        Ok((
            outcomes,
            base_rows(snap.system()),
            edge_set(snap.system()),
            report.fission_admits,
        ))
    };
    let (on_out, on_base, on_edges, _on_admits) = run(true)?;
    let (off_out, off_base, off_edges, off_admits) = run(false)?;

    if on_out != seq_outcomes || off_out != seq_outcomes {
        return Err(format!(
            "acceptance diverged:\n  seq {seq_outcomes:?}\n  engine(fission on) {on_out:?}\n  engine(fission off) {off_out:?}\n  ops: {}",
            ops.iter()
                .map(|u| u.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
    if on_base != off_base {
        return Err("final base database diverged between fission on/off".into());
    }
    if on_edges != off_edges {
        return Err("final view diverged between fission on/off".into());
    }
    // The knob is real: the fission-off engine never co-admits.
    if off_admits != 0 {
        return Err(format!(
            "fission-off engine recorded {off_admits} co-admissions"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Hot-cone fission is an optimization, not a semantics change: the
    /// `cone_fission` knob flipped either way yields identical acceptance
    /// patterns and final states over skewed hot-anchor workloads — the
    /// traffic shape the sub-cone conflict unit exists for — on the
    /// sharded write path at every pipeline depth (1–3).
    #[test]
    fn fission_on_equals_fission_off(
        seed in 0u64..200,
        n_ops in 8usize..28,
        hot in 0u32..=10,
        max_batch in 1usize..12,
        n_shards in 2usize..6,
        pipeline_depth in 1usize..4,
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
        if let Err(e) =
            check_fission_knob_equivalence(sys, &ops, max_batch, n_shards, pipeline_depth)
        {
            return Err(TestCaseError::fail(e));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

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
        let ids: Vec<i64> = vs
            .dag()
            .genid()
            .ids_of_type(node_ty)
            .map(|v| vs.dag().genid().attr_of(v)[0].as_int().expect("int id"))
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

    /// `//`-headed updates riding shared conflict rounds preserve the
    /// batched == sequential equivalence, on both write paths and at every
    /// pipeline depth (skewed hot-group workloads maximise the chance a
    /// lookahead plan goes stale mid-flight and must take the fixup path).
    #[test]
    fn descendant_commit_equals_sequential(
        seed in 0u64..200,
        n_ops in 8usize..28,
        desc_fraction in 0u32..=10,
        max_batch in 1usize..12,
        n_shards in 1usize..6,
        pipeline_depth in 1usize..4,
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
        if let Err(e) =
            check_ops_equivalence(sys, &ops, max_batch, n_shards, pipeline_depth)
        {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// A purely `//`-headed stream over independent groups must commit in
/// *shared* rounds — the acceptance criterion of the type-indexed
/// prefilter: no global-lane singletons, realized multi-cone round width
/// above 1, and still observationally equivalent to sequential.
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
    let engine = Engine::with_config(
        sys,
        EngineConfig {
            n_shards: 4,
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
    engine.commit_pending();
    let eng_outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
    assert_eq!(seq_outcomes, eng_outcomes);
    assert_eq!(edge_set(&seq), edge_set(engine.snapshot().system()));
    let report = engine.stats().report();
    assert_eq!(
        report.global_lane_rounds, 0,
        "typed `//` updates never ride the global lane"
    );
    assert!(report.multi_cone_rounds > 0, "multi-cone rounds recorded");
    assert!(
        report.mean_multi_cone_width() > 1.0,
        "independent `//` updates must share rounds (got width {:.2})",
        report.mean_multi_cone_width()
    );
}

/// Deterministic plans-on == plans-off sweep covering skewed `//`-heavy
/// descendant traffic (multi-anchor cones, scoped plan evaluation, stale
/// fixups) on both write paths at every pipeline depth.
#[test]
fn plans_knob_is_invisible_across_write_paths_and_depths() {
    for (n_shards, depth) in [(1, 1), (1, 2), (4, 1), (4, 2), (4, 3)] {
        let sys = system(300, 17);
        let mut gen = DescendantGen::new(DescendantConfig {
            groups: 300 / 40,
            descendant_fraction: 0.5,
            hot_fraction: 0.4,
            hot_groups: 2,
            seed: 17,
            ..DescendantConfig::default()
        });
        let ops = gen.ops(24);
        check_plans_knob_equivalence(sys, &ops, 6, n_shards, depth)
            .unwrap_or_else(|e| panic!("shards={n_shards} depth={depth}: {e}"));
    }
}

/// Deterministic templates-on == templates-off sweep covering skewed
/// `//`-heavy descendant traffic (multi-anchor cones, scoped evaluation,
/// stale fixups) on both write paths at every pipeline depth, with fission
/// toggled — the shapes whose translations lean hardest on the precompiled
/// skeletons.
#[test]
fn templates_knob_is_invisible_across_write_paths_and_depths() {
    for (n_shards, depth, fission) in [
        (1, 1, false),
        (1, 2, true),
        (4, 1, true),
        (4, 2, false),
        (4, 3, true),
    ] {
        let sys = system(300, 17);
        let mut gen = DescendantGen::new(DescendantConfig {
            groups: 300 / 40,
            descendant_fraction: 0.5,
            hot_fraction: 0.4,
            hot_groups: 2,
            seed: 17,
            ..DescendantConfig::default()
        });
        let ops = gen.ops(24);
        check_templates_knob_equivalence(sys, &ops, 6, n_shards, depth, fission)
            .unwrap_or_else(|e| panic!("shards={n_shards} depth={depth} fission={fission}: {e}"));
    }
}

/// The hot-cone fission acceptance shape, deterministically: updates under
/// ONE anchor cone with disjoint realized sub-keys must co-admit into a
/// shared round, while overlapping sub-keys (a delete of the very node an
/// earlier insert creates) must NOT share a round — the read/write typed
/// dependency serializes them even though fission shares the cone.
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
    let engine = Engine::with_config(
        sys,
        EngineConfig {
            n_shards: 3,
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
    engine.commit_pending();
    let eng_outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
    assert_eq!(seq_outcomes, eng_outcomes);
    assert!(eng_outcomes.iter().all(|&ok| ok), "all four ops apply");
    assert_eq!(edge_set(&seq), edge_set(engine.snapshot().system()));
    engine.snapshot().system().consistency_check().unwrap();
    let report = engine.stats().report();
    assert!(
        report.fission_admits >= 2,
        "three same-cone inserts with disjoint sub-keys co-admit (got {} co-admits)",
        report.fission_admits
    );
    assert!(
        report.rounds >= 2,
        "the dependent delete must not share its insert's round (got {} rounds)",
        report.rounds
    );
}

/// The same stream with fission disabled serializes the whole cone: every
/// same-anchor update takes its own round, so the round count strictly
/// exceeds the fission run's — the structural evidence the skew sweep's
/// acceptance gate checks at bench scale.
#[test]
fn fission_off_serializes_the_whole_cone() {
    use rxview_relstore::{tuple, Value};
    let rounds_with = |cone_fission: bool| {
        let sys = system(200, 11);
        let fresh: i64 = 3_000_000_000;
        let ops: Vec<XmlUpdate> = (0..4)
            .map(|k| {
                XmlUpdate::insert("node", tuple![fresh + k, Value::Int(k)], "node[id=0]/sub")
                    .unwrap()
            })
            .collect();
        let engine = Engine::with_config(
            sys,
            EngineConfig {
                n_shards: 3,
                cone_fission,
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
        engine.commit_pending();
        assert!(tickets.into_iter().all(|t| t.wait().is_ok()));
        engine.snapshot().system().consistency_check().unwrap();
        engine.stats().report().rounds
    };
    let on = rounds_with(true);
    let off = rounds_with(false);
    assert!(
        on < off,
        "fission must commit fewer rounds on a hot cone (on {on}, off {off})"
    );
    assert_eq!(on, 1, "four disjoint same-cone inserts share one round");
}

/// A deterministic large-ish case exercising multi-batch commits.
#[test]
fn large_independent_batch_is_equivalent() {
    let flips: Vec<bool> = (0..40).map(|i| i % 4 == 0).collect();
    check_equivalence(400, 7, &flips, 16, 1, 2).unwrap();
}

/// The same deterministic case across four shard writers (multi-round,
/// multi-bundle commits with fresh-subtree insertions to remap), at every
/// pipeline depth.
#[test]
fn large_independent_batch_is_equivalent_sharded() {
    let flips: Vec<bool> = (0..40).map(|i| i % 4 == 0).collect();
    for depth in 1..=3 {
        check_equivalence(400, 7, &flips, 4, 4, depth).unwrap();
    }
}

/// Insertion-heavy deterministic sweep: fresh-subtree insertions are the
/// source of intra-round coupling requeues, so this exercises the
/// requeue → re-entry → replan path while later rounds are in flight.
#[test]
fn insert_heavy_batches_are_equivalent_at_every_depth() {
    let flips: Vec<bool> = (0..32).map(|i| i % 4 != 0).collect();
    for depth in 1..=3 {
        check_equivalence(400, 13, &flips, 3, 4, depth).unwrap();
    }
}

/// Updates with deliberately colliding targets must serialize correctly on
/// the sharded path too: duplicates defer across rounds, typed leading-`//`
/// updates resolve to bounded multi-anchor cones (riding ordinary rounds),
/// and only genuinely untypeable paths serialize through the global lane.
/// Run at every pipeline depth: the global-lane update must drain the
/// pipeline before running regardless of how deep the lookahead is.
#[test]
fn conflicting_updates_serialize_sharded() {
    for depth in 1..=3 {
        conflicting_updates_serialize_sharded_at(depth);
    }
}

fn conflicting_updates_serialize_sharded_at(pipeline_depth: usize) {
    let sys = system(200, 11);
    let mut gen = WorkloadGen::new(sys.view(), 5);
    let mut ops: Vec<XmlUpdate> = Vec::new();
    ops.extend(gen.deletions(WorkloadClass::W2, 3));
    ops.extend(gen.deletions(WorkloadClass::W1, 2));
    ops.extend(ops.clone()); // exact duplicates: second run must see first's effect
                             // Two typed leading-`//` deletes (payload values are drawn from 0..50):
                             // since PR 5 these resolve to bounded multi-anchor cones.
    ops.push(XmlUpdate::delete("//node[payload=7]/sub/node").unwrap());
    ops.push(XmlUpdate::delete("//node[payload=11]/sub/node").unwrap());
    // An unfilterable wildcard root: genuinely untypeable, global lane.
    ops.push(XmlUpdate::delete("*/sub/node[payload=13]").unwrap());
    let mut seq = sys.clone();
    let seq_outcomes: Vec<bool> = ops
        .iter()
        .map(|u| seq.apply(u, SideEffectPolicy::Proceed).is_ok())
        .collect();
    let engine = Engine::with_config(
        sys,
        EngineConfig {
            n_shards: 3,
            pipeline_depth,
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
    engine.commit_pending();
    let eng_outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
    assert_eq!(seq_outcomes, eng_outcomes);
    assert_eq!(edge_set(&seq), edge_set(engine.snapshot().system()));
    engine.snapshot().system().consistency_check().unwrap();
    let report = engine.stats().report();
    assert_eq!(
        report.global_lane_rounds, 1,
        "only the unfilterable wildcard uses the global lane"
    );
    assert!(
        report.multi_cone_updates >= 2,
        "typed `//`-deletes ride multi-cone rounds"
    );
    assert!(report.rounds >= 2, "duplicates must defer across rounds");
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
    assert_eq!(edge_set(&seq), edge_set(engine.snapshot().system()));
    engine.snapshot().system().consistency_check().unwrap();
}
