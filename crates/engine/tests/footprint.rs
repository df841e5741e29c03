//! The planned [`rxview_core::RelFootprint`] must be *conservative*: every
//! relational row an update actually touches when applied — its `∆R` writes
//! and the `gen_A` rows of nodes it interns, read off the applied update by
//! [`RelFootprint::realized`] — must be covered by the footprint the
//! conflict analysis planned against the same state. The engine no longer
//! plans rounds (they are queue prefixes, applied serially); the analysis
//! stays, rxbench-only, until ROADMAP item 4(h) deletes it, and this is its
//! contract.
//!
//! For the subtree an insertion generates, coverage is equality: the
//! analysis walks `ST(A, t)` with the translation's own walk, so it plans
//! exactly the `gen_A` rows the translation interns and the live nodes it
//! splices.

use proptest::prelude::*;
use rxview_atg::Atg;
use rxview_core::{
    DeferredMaintenance, RelFootprint, SideEffectPolicy, UpdateReport, XmlUpdate, XmlViewSystem,
};
use rxview_engine::Analysis;
use rxview_relstore::{schema, tuple, Database, SpjQuery};
use rxview_workload::{
    synthetic_atg, synthetic_database, ShardSkewGen, SkewConfig, SyntheticConfig, WorkloadClass,
    WorkloadGen,
};
use rxview_xmlkit::Dtd;
use std::collections::BTreeSet;

fn system(n: usize, seed: u64) -> XmlViewSystem {
    let mut cfg = SyntheticConfig::with_size(n);
    cfg.seed = seed;
    let db = synthetic_database(&cfg);
    let atg = synthetic_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

/// Applies `ops` sequentially, one fold each; before each apply, plans the
/// footprint against the current state, and checks that it covers every
/// write — row and key column — the applied update realized.
fn check_conservative(sys: &mut XmlViewSystem, ops: &[XmlUpdate]) -> Result<(), String> {
    for u in ops {
        let a = Analysis::of(sys, u);
        let eval = sys.eval(u.path());
        let Ok((report, job)) = sys.apply_deferred(u, SideEffectPolicy::Proceed, eval) else {
            continue; // rejected updates write nothing
        };
        let realized = realized(sys, &report, &job);
        sys.fold_maintenance(vec![job]).map_err(|e| e.to_string())?;
        if a.is_global() {
            continue; // global footprints conflict with everything
        }
        if !a.rel().covers_writes(&realized) {
            let mut rows = realized.write_rows();
            let missed = rows.find(|(table, key)| !a.rel().covers_row(table, key));
            return Err(format!("unplanned write {missed:?} by `{u}`"));
        }
    }
    Ok(())
}

/// What `report` and `job`, just applied to `sys`, wrote: the `∆R` rows
/// and the `gen_A` rows of the nodes the update interned.
fn realized(sys: &XmlViewSystem, report: &UpdateReport, job: &DeferredMaintenance) -> RelFootprint {
    RelFootprint::realized(sys.view(), sys.base(), &report.delta_r, job.subtree())
        .expect("the tables an applied update wrote exist")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random mixed workloads: planned footprints cover realized writes.
    #[test]
    fn planned_footprint_is_conservative(
        seed in 0u64..200,
        flips in prop::collection::vec(any::<bool>(), 8..24),
    ) {
        let mut sys = system(220, seed);
        let ops: Vec<XmlUpdate> = {
            let mut gen = WorkloadGen::new(sys.view(), seed ^ 0xfee1);
            flips
                .iter()
                .enumerate()
                .filter_map(|(i, &ins)| {
                    let class = WorkloadClass::all()[i % 3];
                    if ins { gen.insertion(class) } else { gen.deletion(class) }
                })
                .collect()
        };
        if let Err(e) = check_conservative(&mut sys, &ops) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// The skewed sharding workload (hot anchor cones, fresh-node insert/delete
/// chains) — the traffic shape whose rounds the typed footprints widen.
#[test]
fn skewed_workload_footprints_are_conservative() {
    let mut sys = system(400, 3);
    let mut gen = ShardSkewGen::new(SkewConfig {
        groups: 10,
        hot_fraction: 0.8,
        hot_groups: 2,
        ..SkewConfig::default()
    });
    let ops = gen.ops(60);
    check_conservative(&mut sys, &ops).unwrap();
}

/// `//`-headed updates resolved to multi-anchor cones plan footprints the
/// same way anchored updates do — their realized writes must be covered
/// too (the contract that lets them ride shardable rounds).
#[test]
fn descendant_workload_footprints_are_conservative() {
    use rxview_workload::{DescendantConfig, DescendantGen};
    let mut sys = system(400, 9);
    let mut gen = DescendantGen::new(DescendantConfig {
        groups: 10,
        descendant_fraction: 0.8,
        hot_fraction: 0.5,
        hot_groups: 2,
        ..DescendantConfig::default()
    });
    let mut ops = gen.ops(60);
    // Plus payload-filtered probes over interior nodes (multi-match cones).
    ops.push(XmlUpdate::delete("//node[payload=7]/sub/node").unwrap());
    ops.push(XmlUpdate::delete("//node[payload=11]").unwrap());
    check_conservative(&mut sys, &ops).unwrap();
}

/// The `gen_A` rows among a footprint's writes.
fn gen_writes(fp: &RelFootprint) -> BTreeSet<(String, rxview_relstore::Tuple)> {
    let gen = fp
        .write_rows()
        .filter(|(table, _)| table.starts_with("gen_"));
    gen.cloned().collect()
}

/// For a fresh-head insertion `u`, the analysis' dry run and the
/// translation walk one subtree: the planned `gen_A` writes are the rows
/// the translation interns, the planned splices its
/// `SubtreeDag::shared_nodes` — read off `u` applied to a clone of `sys`.
/// Returns how many nodes the subtree splices, `None` when `u` is not a
/// fresh-head insertion the translation accepts.
fn walks_agree(sys: &XmlViewSystem, u: &XmlUpdate) -> Option<usize> {
    let XmlUpdate::Insert { ty, attr, .. } = u else {
        return None;
    };
    let ty = sys.view().atg().dtd().type_id(ty)?;
    if sys.view().dag().genid().lookup(ty, attr).is_some() {
        return None;
    }
    let eval = sys.eval(u.path());
    let mut planned = RelFootprint::default();
    let links = Analysis::plan_insert(sys, ty, attr, &eval.eval.selected, &mut planned)
        .expect("a fresh subtree's writes are derivable");
    let mut applied = sys.clone();
    let (report, job) = applied
        .apply_deferred(u, SideEffectPolicy::Proceed, eval)
        .ok()?;
    let subtree = job.subtree().expect("an insertion's subtree");
    assert_eq!(links, subtree.shared_nodes(), "spliced nodes of `{u}`");
    assert_eq!(
        gen_writes(&planned),
        gen_writes(&realized(&applied, &report, &job)),
        "gen rows of `{u}`"
    );
    Some(links.len())
}

/// `db → box*`, `box → item*`, `item → (tag, tag)`: a production naming a
/// child type twice, and `tag` nodes shared by every item with the same
/// `a` — interior nodes a fresh item's subtree splices when its `a` is
/// taken.
fn twice_named_system() -> XmlViewSystem {
    let mut db = Database::new();
    db.create_table(schema("B").col_int("id").key(&["id"]))
        .expect("fresh database");
    db.create_table(
        schema("I")
            .col_int("k")
            .col_int("box")
            .col_int("a")
            .key(&["k"]),
    )
    .expect("fresh database");
    db.insert("B", tuple![1i64]).expect("valid row");
    db.insert("I", tuple![1i64, 1i64, 5i64]).expect("valid row");
    let q_db_box = SpjQuery::builder("Qdb_box")
        .from("B", "b")
        .project(("b", "id"), "id")
        .build(&db)
        .expect("valid query");
    let q_box_item = SpjQuery::builder("Qbox_item")
        .from("I", "i")
        .where_col_eq_param(("i", "box"), 0)
        .project(("i", "k"), "k")
        .project(("i", "a"), "a")
        .build(&db)
        .expect("valid query");
    let mut dtd = Dtd::builder("db");
    dtd.star("db", "box").expect("fresh builder");
    dtd.star("box", "item").expect("fresh builder");
    dtd.sequence("item", &["tag", "tag"])
        .expect("fresh builder");
    dtd.empty("tag").expect("fresh builder");
    let mut b = Atg::builder(dtd.build().expect("valid DTD"));
    b.attr("db", &[])
        .attr("box", &["id"])
        .attr("item", &["k", "a"])
        .attr("tag", &["a"]);
    b.rule_query("db", "box", q_db_box, &[])
        .rule_query("box", "item", q_box_item, &["id"])
        .rule_project("item", "tag", &["a"]);
    let atg = b.build(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

#[test]
fn the_analysis_walks_the_subtree_the_translation_interns() {
    // A production naming `tag` twice; the second insertion's subtree
    // splices the live `tag(5)`.
    let mut sys = twice_named_system();
    for (k, a, links) in [(3i64, 6i64, 0), (2, 5, 1)] {
        let u = XmlUpdate::insert("item", tuple![k, a], "box").expect("parses");
        assert_eq!(walks_agree(&sys, &u), Some(links), "`{u}`");
        sys.apply(&u, SideEffectPolicy::Proceed).expect("accepted");
    }

    // The synthetic stream: fresh nodes splice shared `payload` text nodes
    // and, once their keys have `H` rows, live `node` subtrees.
    let mut sys = system(300, 5);
    let ops: Vec<XmlUpdate> = {
        let mut gen = WorkloadGen::new(sys.view(), 17);
        (0..30)
            .filter_map(|i| gen.insertion(WorkloadClass::all()[i % 3]))
            .collect()
    };
    let (mut checked, mut spliced) = (0, 0);
    for u in &ops {
        if let Some(links) = walks_agree(&sys, u) {
            checked += 1;
            spliced += links;
        }
        let _ = sys.apply(u, SideEffectPolicy::Proceed);
    }
    assert!(
        checked > 10 && spliced > 0,
        "{checked} checked, {spliced} splices"
    );
}
