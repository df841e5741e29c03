//! End-to-end integration tests across all crates: every update that the
//! system accepts must satisfy the paper's correctness criterion
//! `∆X(T) = σ(∆R(I))`, checked by republication, with `gen_A` equal to the
//! live nodes and `L` a topological order. Three tests hold the
//! plan cache and the log's shape table to paths whose labels spell the
//! shape key's punctuation; the last three hold the oracle and the two
//! state digests to states forged one part wrong.

use rxview::atg::{Dag, GenId, NodeId};
use rxview::core::{
    Reachability, SideEffectPolicy, TopoOrder, UpdateError, ViewStore, XmlUpdate, XmlViewSystem,
};
use rxview::engine::{Durability, Engine, EngineConfig, EngineError};
use rxview::relstore::tuple;
use rxview::relstore::Database;
use rxview::workload::{
    registrar_atg, registrar_database, synthetic_atg, synthetic_database, SyntheticConfig,
    WorkloadClass, WorkloadGen,
};
use rxview::xmlkit::xpath::{Filter, Step, XPath};
use rxview::xmlkit::{parse_xpath, SchemaViolation};

fn registrar_system() -> XmlViewSystem {
    let db = registrar_database();
    let atg = registrar_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

fn synthetic_system(n: usize, seed: u64) -> XmlViewSystem {
    let mut cfg = SyntheticConfig::with_size(n);
    cfg.seed = seed;
    let db = synthetic_database(&cfg);
    let atg = synthetic_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

#[test]
fn registrar_update_sequences_stay_consistent() {
    let mut sys = registrar_system();
    let updates = [
        XmlUpdate::insert(
            "course",
            tuple!["MA100", "Calculus"],
            "course[cno=CS650]/prereq",
        )
        .unwrap(),
        XmlUpdate::insert(
            "student",
            tuple!["S50", "Eve"],
            "//course[cno=CS240]/takenBy",
        )
        .unwrap(),
        XmlUpdate::delete("course[cno=CS650]/prereq/course[cno=CS320]").unwrap(),
        XmlUpdate::insert(
            "course",
            tuple!["CS320", "Algorithms"],
            "course[cno=CS650]/prereq",
        )
        .unwrap(),
        XmlUpdate::delete("//student[ssn=S02]").unwrap(),
        XmlUpdate::delete("//course[cno=MA100]").unwrap(),
    ];
    for (i, u) in updates.iter().enumerate() {
        if let Err(e) = sys.apply(u, SideEffectPolicy::Proceed) {
            panic!("update {i} (`{u}`) rejected: {e}");
        }
        sys.consistency_check()
            .unwrap_or_else(|e| panic!("after update {i} (`{u}`): {e}"));
    }
}

#[test]
fn synthetic_workload_all_classes_consistent() {
    let mut sys = synthetic_system(300, 1);
    let ops: Vec<XmlUpdate> = {
        let mut gen = WorkloadGen::new(sys.view(), 5);
        let mut ops = Vec::new();
        for class in WorkloadClass::all() {
            ops.extend(gen.insertions(class, 2));
            ops.extend(gen.deletions(class, 2));
        }
        ops
    };
    assert!(ops.len() >= 10, "workload generation too sparse");
    let mut accepted = 0;
    for u in &ops {
        // Rejections are legitimate (no safe source, key conflicts); the
        // view must remain untouched and consistent either way.
        if sys.apply(u, SideEffectPolicy::Proceed).is_ok() {
            accepted += 1;
        }
        sys.consistency_check()
            .unwrap_or_else(|e| panic!("inconsistent after `{u}`: {e}"));
    }
    assert!(
        accepted * 2 >= ops.len(),
        "accepted only {accepted}/{} ops",
        ops.len()
    );
}

#[test]
fn rejected_updates_leave_no_trace() {
    let mut sys = registrar_system();
    let before = sys.exact_digest();
    let rejects = [
        // Schema violation: cno is a sequence child.
        XmlUpdate::delete("course/cno").unwrap(),
        // Empty target.
        XmlUpdate::delete("course[cno=ZZZ]/prereq/course").unwrap(),
        // Key conflict: wrong title for an existing course.
        XmlUpdate::insert(
            "course",
            tuple!["CS240", "Wrong"],
            "course[cno=CS650]/prereq",
        )
        .unwrap(),
        // Unsafe deletion: removing only the top-level CS240 listing while
        // it is still a prerequisite of CS320 — course(CS240) is shared.
        XmlUpdate::delete("course[cno=CS240]").unwrap(),
    ];
    for u in &rejects {
        assert!(
            sys.apply(u, SideEffectPolicy::Proceed).is_err(),
            "`{u}` should be rejected"
        );
    }
    assert_eq!(sys.exact_digest().first_difference(&before), None);
    sys.consistency_check().unwrap();
}

#[test]
fn insertion_closing_a_cycle_at_a_shared_descendant_is_rejected() {
    // MA200 is in `I` but not in the view; its prerequisite CS240 is.
    let mut db = registrar_database();
    db.insert("course", tuple!["MA200", "Statistics", "Math"])
        .unwrap();
    db.insert("prereq", tuple!["MA200", "CS240"]).unwrap();
    let atg = registrar_atg(&db).unwrap();
    let mut sys = XmlViewSystem::new(atg, db).unwrap();
    let before = sys.exact_digest();
    let before_nodes = sys.view().n_nodes();
    // ST(course, MA200) is all fresh down to the old CS240 it shares —
    // below which the target sits: CS240 → prereq → MA200 → prereq → CS240.
    let u = XmlUpdate::insert(
        "course",
        tuple!["MA200", "Statistics"],
        "course[cno=CS240]/prereq",
    )
    .unwrap();
    let err = sys.apply(&u, SideEffectPolicy::Proceed).unwrap_err();
    assert!(matches!(err, UpdateError::Cycle), "got: {err}");
    assert_eq!(sys.view().n_nodes(), before_nodes);
    // Down to the id space the interning grew: a recovered engine, whose
    // log holds accepted updates only, rebuilds these bytes.
    assert_eq!(
        sys.exact_digest().first_difference(&before),
        None,
        "a rejected insertion changed the system"
    );
    sys.consistency_check().unwrap();
}

#[test]
fn abort_policy_respects_side_effects_proceed_applies_everywhere() {
    let mut sys = registrar_system();
    let u = XmlUpdate::insert(
        "student",
        tuple!["S60", "Frank"],
        "course[cno=CS650]//course[cno=CS320]/takenBy",
    )
    .unwrap();
    let err = sys.apply(&u, SideEffectPolicy::Abort).unwrap_err();
    assert!(matches!(err, UpdateError::SideEffects { .. }));
    let report = sys.apply(&u, SideEffectPolicy::Proceed).unwrap();
    assert!(report.side_effects > 0);
    // Frank appears under *every* CS320 occurrence in the expanded tree.
    let tree = sys.expand_tree();
    let s = tree.serialize(sys.view().atg().dtd());
    assert_eq!(s.matches("Frank").count(), 2, "tree:\n{s}");
    sys.consistency_check().unwrap();
}

#[test]
fn deep_recursive_chain_updates() {
    // A linear prerequisite chain c0 <- c1 <- ... <- c19 published from a
    // registrar-style schema; delete the middle link and verify the chain
    // splits correctly.
    let mut db = registrar_database();
    for i in 0..20 {
        db.insert(
            "course",
            tuple![format!("X{i:02}"), format!("Chain {i}"), "CS"],
        )
        .unwrap();
    }
    for i in 0..19 {
        db.insert(
            "prereq",
            tuple![format!("X{i:02}"), format!("X{:02}", i + 1)],
        )
        .unwrap();
    }
    let atg = registrar_atg(&db).unwrap();
    let mut sys = XmlViewSystem::new(atg, db).unwrap();
    let u = XmlUpdate::delete("//course[cno=X09]/prereq/course[cno=X10]").unwrap();
    sys.apply(&u, SideEffectPolicy::Proceed).unwrap();
    sys.consistency_check().unwrap();
    assert!(!sys
        .base()
        .table("prereq")
        .unwrap()
        .contains_key(&tuple!["X09", "X10"]));
    // X10 survives as a top-level course.
    let course = sys.view().atg().dtd().type_id("course").unwrap();
    assert!(sys
        .view()
        .dag()
        .genid()
        .lookup(course, &tuple!["X10", "Chain 10"])
        .is_some());
}

#[test]
fn sat_solver_engages_on_unpinned_finite_columns() {
    use rxview::atg::Atg;
    use rxview::relstore::{schema, Database, SpjQuery, Value, ValueType};
    use rxview::xmlkit::Dtd;

    // R1(a, b∈{0,1}) joins R2(c, d∈{0,1}) on b=d. With r1 = {a0: b=0} and
    // r2 empty, inserting the pair (a3, c9) leaves the shared b=d variable
    // unpinned; the side-effect row (a0, c9) [requires d=0] forces d=1 via
    // SAT.
    let mut db = Database::new();
    db.create_table(
        schema("r1")
            .col_str("a")
            .col_finite("b", ValueType::Int, vec![Value::Int(0), Value::Int(1)])
            .key(&["a"]),
    )
    .unwrap();
    db.create_table(
        schema("r2")
            .col_str("c")
            .col_finite("d", ValueType::Int, vec![Value::Int(0), Value::Int(1)])
            .key(&["c"]),
    )
    .unwrap();
    db.insert("r1", tuple!["a0", 0i64]).unwrap();

    let mut b = Dtd::builder("doc");
    b.star("doc", "row").unwrap();
    b.sequence("row", &["left", "right"]).unwrap();
    let dtd = b.build().unwrap();
    let q = SpjQuery::builder("Q")
        .from("r1", "x")
        .from("r2", "y")
        .where_col_eq_col(("x", "b"), ("y", "d"))
        .project(("x", "a"), "a")
        .project(("y", "c"), "c")
        .build(&db)
        .unwrap();
    let mut ab = Atg::builder(dtd);
    ab.attr("doc", &[])
        .attr("row", &["a", "c"])
        .attr("left", &["a"])
        .attr("right", &["c"]);
    ab.rule_query("doc", "row", q, &[])
        .rule_project("row", "left", &["a"])
        .rule_project("row", "right", &["c"]);
    let atg = ab.build(&db).unwrap();

    let mut sys = XmlViewSystem::new(atg, db).unwrap();
    let u = XmlUpdate::insert("row", tuple!["a3", "c9"], ".").unwrap();
    let report = sys.apply(&u, SideEffectPolicy::Proceed).unwrap();
    assert!(report.sat_used, "expected the SAT solver to run");
    // d must be 1 (d=0 would pair a0 with c9).
    assert_eq!(
        sys.base().table("r2").unwrap().get(&tuple!["c9"]).unwrap()[1],
        Value::Int(1)
    );
    assert_eq!(
        sys.base().table("r1").unwrap().get(&tuple!["a3"]).unwrap()[1],
        Value::Int(1)
    );
    sys.consistency_check().unwrap();
}

#[test]
fn unsatisfiable_insertion_rejected() {
    use rxview::atg::Atg;
    use rxview::relstore::{schema, Database, SpjQuery, Value, ValueType};
    use rxview::xmlkit::Dtd;

    // Like above but with r2 = {c0: d=1, c1: d=0}: any value of b pairs the
    // new a3 with an unwanted partner — the SAT instance is UNSAT.
    let mut db = Database::new();
    db.create_table(
        schema("r1")
            .col_str("a")
            .col_finite("b", ValueType::Int, vec![Value::Int(0), Value::Int(1)])
            .key(&["a"]),
    )
    .unwrap();
    db.create_table(
        schema("r2")
            .col_str("c")
            .col_finite("d", ValueType::Int, vec![Value::Int(0), Value::Int(1)])
            .key(&["c"]),
    )
    .unwrap();
    db.insert("r2", tuple!["c0", 1i64]).unwrap();
    db.insert("r2", tuple!["c1", 0i64]).unwrap();

    let mut b = Dtd::builder("doc");
    b.star("doc", "row").unwrap();
    b.sequence("row", &["left", "right"]).unwrap();
    let dtd = b.build().unwrap();
    let q = SpjQuery::builder("Q")
        .from("r1", "x")
        .from("r2", "y")
        .where_col_eq_col(("x", "b"), ("y", "d"))
        .project(("x", "a"), "a")
        .project(("y", "c"), "c")
        .build(&db)
        .unwrap();
    let mut ab = Atg::builder(dtd);
    ab.attr("doc", &[])
        .attr("row", &["a", "c"])
        .attr("left", &["a"])
        .attr("right", &["c"]);
    ab.rule_query("doc", "row", q, &[])
        .rule_project("row", "left", &["a"])
        .rule_project("row", "right", &["c"]);
    let atg = ab.build(&db).unwrap();

    let mut sys = XmlViewSystem::new(atg, db).unwrap();
    // Inserting (a3, c0) forces b=1, which also creates (a3, c0)... wait:
    // b=1 pairs a3 with c0 (wanted) only. But inserting (a3, c9) with a NEW
    // c9 forces d9: b=d9 for the wanted pair; b=1 pairs with c0, b=0 with
    // c1 — both unwanted. UNSAT.
    let u = XmlUpdate::insert("row", tuple!["a3", "c9"], ".").unwrap();
    let err = sys.apply(&u, SideEffectPolicy::Proceed).unwrap_err();
    assert!(matches!(err, UpdateError::Insert(_)), "got: {err}");
    sys.consistency_check().unwrap();
}

#[test]
fn mixed_long_session_on_synthetic_data() {
    let mut sys = synthetic_system(200, 9);
    let ops: Vec<XmlUpdate> = {
        let mut gen = WorkloadGen::new(sys.view(), 17);
        let mut ops = Vec::new();
        for i in 0..12 {
            let class = WorkloadClass::all()[i % 3];
            if i % 2 == 0 {
                ops.extend(gen.insertions(class, 1));
            } else {
                ops.extend(gen.deletions(class, 1));
            }
        }
        ops
    };
    for u in &ops {
        let _ = sys.apply(u, SideEffectPolicy::Proceed);
    }
    sys.consistency_check().unwrap();
}

/// `course[/cno=?]/prereq`, written as two steps of which the first is
/// labelled `course[/cno=?]`: a label may hold any character, the shape
/// key's own punctuation included. It selects nothing.
fn odd_path() -> XPath {
    XPath::from_steps(vec![Step::label("course[/cno=?]"), Step::label("prereq")])
}

/// Evaluating a path whose label spells `course[cno=…]`'s shape key leaves
/// `course[cno=CS650]` selecting what it selects on a fresh system: the
/// odd path is a shape of its own, with a plan of its own.
#[test]
fn a_label_spelling_a_shape_key_gets_its_own_plan() {
    let course = parse_xpath("course[cno=CS650]").unwrap();
    let fresh = registrar_system().eval(&course).eval.selected;
    assert_eq!(fresh.len(), 1);
    let sys = registrar_system();
    let odd = XPath::from_steps(vec![Step::label("course[/cno=?]")]);
    assert!(sys.eval(&odd).eval.selected.is_empty());
    assert_eq!(sys.eval(&course).eval.selected, fresh);
}

/// The same through an engine. The insertion on the odd path is refused
/// at admission: its first label names no type of the DTD, so §2.4's
/// validation finds it `Unreachable`, and its ticket is resolved at
/// `submit`, before any commit, without a probe of the plan cache. An
/// insertion under `course[cno=CS650]/prereq` is then accepted with the ∆R
/// a fresh engine derives, and a snapshot read of `course[cno=CS650]`
/// returns its node.
#[test]
fn an_engine_that_saw_the_odd_path_commits_what_a_fresh_one_does() {
    let insert = |path: XPath| XmlUpdate::Insert {
        ty: "course".into(),
        attr: tuple!["MA100", "Calculus"],
        path,
    };
    let target = parse_xpath("course[cno=CS650]/prereq").unwrap();
    let fresh = Engine::new(registrar_system())
        .apply_now(insert(target.clone()), SideEffectPolicy::Proceed)
        .expect("a fresh engine accepts the insertion");
    let engine = Engine::new(registrar_system());
    let lookups = || {
        let s = engine.snapshot().system().view().plan_cache().stats();
        s.hits + s.misses
    };
    let before = lookups();
    let odd = engine
        .submit(insert(odd_path()), SideEffectPolicy::Proceed)
        .unwrap();
    let verdict = odd.try_wait();
    assert!(
        matches!(
            verdict,
            Some(Err(EngineError::Update(UpdateError::Schema(
                SchemaViolation::Unreachable
            ))))
        ),
        "refused at submit as unreachable, not {verdict:?}"
    );
    engine.commit_pending();
    assert_eq!(
        lookups(),
        before,
        "the refused update reached the plan cache"
    );
    let report = engine
        .apply_now(insert(target), SideEffectPolicy::Proceed)
        .expect("the insertion is accepted after the odd path");
    assert_eq!(report.delta_r, fresh.delta_r);
    let course = parse_xpath("course[cno=CS650]").unwrap();
    let read = engine.snapshot().select(&course);
    assert_eq!(
        read,
        [("course".to_owned(), tuple!["CS650", "Advanced DB"])]
    );
}

/// `course[cno=CS650][not(prereq/course)]/prereq`, the filter under `not`
/// written as two steps, or (`odd`) as one step labelled `prereq/course`,
/// which no node has: only the odd form's `not` holds at CS650, though the
/// two look alike but for their labels.
fn guarded(odd: bool) -> XPath {
    let inner = match odd {
        true => XPath::from_steps(vec![Step::label("prereq/course")]),
        false => parse_xpath("prereq/course").unwrap(),
    };
    let mut path = parse_xpath("course[cno=CS650]/prereq").unwrap();
    path.steps[0].filters.push(Filter::not(Filter::Path(inner)));
    path
}

/// Through the log: a durable engine accepts an insertion on the odd form
/// of `guarded`, rejects one on the other form after it, and accepts one
/// under `course[cno=CS320]/prereq`; recovery reads the segment and replays
/// both accepted updates to the engine's state.
#[test]
fn a_log_holding_the_odd_path_recovers_to_the_engines_state() {
    let dir = std::env::temp_dir().join(format!("rxview-odd-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = EngineConfig {
        durability: Durability::PerRound,
        ..EngineConfig::default()
    };
    let engine = Engine::with_durability(registrar_system(), durable, &dir).unwrap();
    let insert = |cno: &str, path: XPath| XmlUpdate::Insert {
        ty: "course".into(),
        attr: tuple![cno, "Calculus"],
        path,
    };
    let accepted = |u| engine.apply_now(u, SideEffectPolicy::Proceed).is_ok();
    let cs320 = parse_xpath("course[cno=CS320]/prereq").unwrap();
    let outcomes = [
        accepted(insert("MA100", guarded(true))),
        accepted(insert("MA300", guarded(false))),
        accepted(insert("MA100", cs320)),
    ];
    assert_eq!(outcomes, [true, false, true]);
    let atg = engine.snapshot().system().view().atg().clone();
    let (recovered, report) = Engine::recover(atg, &dir, EngineConfig::default()).unwrap();
    assert_eq!((report.replayed_updates, report.replay_rejected), (2, 0));
    let state = engine.snapshot().system().exact_digest();
    let back = recovered.snapshot().system().exact_digest();
    assert_eq!(back.first_difference(&state), None);
    drop((engine, recovered));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A system's parts, to forge a copy with one of them changed through the
/// public `from_parts` doors.
struct Parts {
    base: Database,
    dag: Dag,
    topo: TopoOrder,
}

type Edge = (NodeId, NodeId);

/// `sys` rebuilt from its parts after `change`.
fn forge(sys: &XmlViewSystem, change: impl FnOnce(&mut Parts)) -> XmlViewSystem {
    let mut p = Parts {
        base: sys.base().clone(),
        dag: sys.view().dag().clone(),
        topo: sys.topo().clone(),
    };
    change(&mut p);
    let vs = ViewStore::from_parts(sys.view().atg().clone(), p.dag);
    XmlViewSystem::from_parts(p.base, vs, p.topo, Reachability::default())
}

/// The first row of `table` in `db`, deleted.
fn delete_first_row(db: &mut Database, table: &str) {
    let t = db.table(table).unwrap();
    let key = t.schema().key_of(t.iter().next().expect("a row"));
    db.delete(table, &key).unwrap();
}

/// A live node no parent links — garbage collection missed it — is
/// refused: republication has no such node, though it adds no edge and
/// `L` accounts for it (its `gen_A` row is its interning's).
#[test]
fn the_oracle_refuses_a_node_that_outlived_its_last_parent() {
    let sys = registrar_system();
    let orphan = forge(&sys, |p| {
        let course = sys.view().atg().dtd().type_id("course").unwrap();
        let ghost = tuple!["CS999", "Orphan"];
        let mut genid = p.dag.genid().clone();
        let (id, _) = genid.gen_id(course, ghost.clone());
        let edges: Vec<_> = p.dag.all_edges().collect();
        p.dag = Dag::from_adjacency(genid, Some(p.dag.root()), &edges).unwrap();
        let order = [&[id], p.topo.order()].concat();
        p.topo = TopoOrder::from_order(order);
    });
    let err = orphan.consistency_check().unwrap_err();
    assert!(err.contains("gen_A"), "{err}");
}

/// One part changed at a time through the public doors: each digest names
/// the section the change lands in first — `Exact` every section, and
/// `Observed` none of what depends on ids or order alone.
#[test]
fn each_digest_names_the_section_a_change_lands_in() {
    let sys = registrar_system();
    let (dag, genid) = (sys.view().dag(), sys.view().dag().genid());
    let differs = |change: &dyn Fn(&mut Parts)| {
        let forged = forge(&sys, change);
        let exact = forged.exact_digest().first_difference(&sys.exact_digest());
        (
            exact,
            forged
                .observed_digest()
                .first_difference(&sys.observed_digest()),
        )
    };
    let relink = |p: &mut Parts, genid: GenId, change: &dyn Fn(&mut [Edge])| {
        let mut edges: Vec<_> = dag.all_edges().collect();
        change(&mut edges);
        p.dag = Dag::from_adjacency(genid, Some(dag.root()), &edges).expect("an adjacency");
    };
    let student = sys.view().atg().dtd().type_id("student").unwrap();
    let first = genid
        .live_ids()
        .find(|&v| genid.type_of(v) == student)
        .unwrap();
    let parent = genid
        .live_ids()
        .find(|&v| dag.children(v).len() > 1)
        .unwrap();
    // A student edge retargeted to a student its parent lacks.
    let (u, v, w) = (dag
        .all_edges()
        .filter(|&(_, v)| genid.type_of(v) == student))
    .find_map(|(u, v)| {
        let other = |&w: &NodeId| genid.type_of(w) == student && !dag.has_edge(u, w);
        genid.live_ids().find(other).map(|w| (u, v, w))
    })
    .expect("a student another parent lacks");

    assert_eq!(differs(&|_| ()), (None, None));
    let base = differs(&|p| delete_first_row(&mut p.base, "enroll"));
    assert_eq!(base, (Some("I"), Some("I")));
    // A slot's `$A`: its `gen_A` row with it.
    let renamed = differs(&|p| {
        let slots = (0..genid.n_allocated() as u32).map(NodeId).map(|v| {
            let attr = if v == first {
                tuple!["S99", "Renamed"]
            } else {
                genid.attr_of(v).clone()
            };
            genid.is_live(v).then(|| (genid.type_of(v), attr))
        });
        let schemas = sys.view().atg().gen_table_schemas();
        relink(
            p,
            GenId::from_slots(schemas, slots, |_| None).unwrap(),
            &|_| (),
        );
    });
    assert_eq!(renamed, (Some("ids"), Some("gen_A")));
    let reordered = differs(&|p| {
        let at = |e: &[Edge]| e.iter().position(|e| e.0 == parent).unwrap();
        relink(p, genid.clone(), &|e| e.swap(at(e), at(e) + 1));
    });
    assert_eq!(reordered, (Some("children"), None));
    let retargeted = differs(&|p| {
        let at = |e: &[Edge]| e.iter().position(|e| *e == (u, v)).unwrap();
        relink(p, genid.clone(), &|e| e[at(e)].1 = w);
    });
    assert_eq!(retargeted, (Some("children"), Some("edges")));
    // Two independent entries of `L`: its first two, both leaves.
    let swapped = differs(&|p| {
        let mut order = sys.topo().order().to_vec();
        assert!(order[..2].iter().all(|&n| dag.children(n).is_empty()));
        order.swap(0, 1);
        p.topo = TopoOrder::from_order(order);
        assert!(p.topo.is_valid_for(dag));
    });
    assert_eq!(swapped, (Some("L"), None));
}
