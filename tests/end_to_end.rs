//! End-to-end integration tests across all crates: every update that the
//! system accepts must satisfy the paper's correctness criterion
//! `∆X(T) = σ(∆R(I))`, checked by republication, with `gen_A` equal to the
//! live nodes and `L` a topological order. Six tests drive §4.3's SAT
//! path: a satisfiable and an unsatisfiable instance, a side-effect row
//! skipped for an avoidable condition wherever it sits among its
//! conditions, a condition on a `Bool` column sent to SAT, not to a fresh
//! constant, a fresh constant that avoids one an earlier translation
//! wrote, and insertion verdicts and states that do not depend on how a
//! rule query orders its FROM entries and predicates. One holds an
//! insertion under a parent that a rule's guard on its parameters excludes
//! to a rejection. Three tests hold the
//! plan cache and the log's shape table to paths whose labels spell the
//! shape key's punctuation; three hold admission's schema verdict, read
//! from the plan, to the one-shot check and to one compile per shape; the
//! last three hold the oracle and the two state digests to states forged
//! one part wrong.

use rxview::atg::{Atg, Dag, GenId, NodeId, RuleBody};
use rxview::core::{
    InsertRejection, Reachability, SideEffectPolicy, TopoOrder, UpdateError, ViewStore, XmlUpdate,
    XmlViewSystem,
};
use rxview::engine::{Durability, Engine, EngineConfig, EngineError};
use rxview::relstore::{
    schema, tuple, ColRef, ColumnDef, Database, EqPred, Operand, SpjQuery, TableRef, TableSchema,
    Value, ValueType,
};
use rxview::workload::{
    registrar_atg, registrar_database, synthetic_atg, synthetic_database, SyntheticConfig,
    WorkloadClass, WorkloadGen,
};
use rxview::xmlkit::xpath::{Filter, Step, XPath};
use rxview::xmlkit::{parse_xpath, Dtd, SchemaViolation};

#[path = "../crates/core/tests/common/mod.rs"]
mod strategies;

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
        .lookup(course, tuple!["X10", "Chain 10"].values())
        .is_some());
}

/// Example 8's shape: `R1(a, b ∈ 0..n)` joins `R2(c, d ∈ 0..n)` on `b = d`,
/// published as `doc → row*`, `row → (left, right)`, a `row` per joined
/// pair.
fn sat_grammar(n: i64, r1: &[(&str, i64)], r2: &[(&str, i64)]) -> (Database, Atg) {
    let mut db = Database::new();
    for (table, key, finite) in [("r1", "a", "b"), ("r2", "c", "d")] {
        db.create_table(
            schema(table)
                .col_str(key)
                .col_finite(finite, ValueType::Int, (0..n).map(Value::Int).collect())
                .key(&[key]),
        )
        .unwrap();
    }
    for &(a, b) in r1 {
        db.insert("r1", tuple![a, b]).unwrap();
    }
    for &(c, d) in r2 {
        db.insert("r2", tuple![c, d]).unwrap();
    }
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
    (db, atg)
}

fn sat_system(r1: &[(&str, i64)], r2: &[(&str, i64)]) -> XmlViewSystem {
    let (db, atg) = sat_grammar(2, r1, r2);
    XmlViewSystem::new(atg, db).unwrap()
}

#[test]
fn sat_solver_engages_on_unpinned_finite_columns() {
    // With r1 = {a0: b=0} and r2 empty, inserting the pair (a3, c9) leaves
    // the shared b=d variable unpinned; the side-effect row (a0, c9)
    // [requires d=0] forces d=1 via SAT.
    let mut sys = sat_system(&[("a0", 0)], &[]);
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
    // With r2 = {c0: d=1, c1: d=0}, inserting (a3, c9) with a new c9 needs
    // b = d9 for the wanted pair; b=1 pairs a3 with c0, b=0 with c1 — both
    // unwanted. UNSAT.
    let mut sys = sat_system(&[], &[("c0", 1), ("c1", 0)]);
    let u = XmlUpdate::insert("row", tuple!["a3", "c9"], ".").unwrap();
    let err = sys.apply(&u, SideEffectPolicy::Proceed).unwrap_err();
    assert!(matches!(err, UpdateError::Insert(_)), "got: {err}");
    sys.consistency_check().unwrap();
}

/// Two groups' worth of one insertion, each group joining `r1` and `r2`
/// rows of its own: `grp(g, h, sel) → (sel, rows)`, `rows(g, h) → row*`
/// pairs `r1(a, g, b, e)` with `r2(c, h, d, f)` on `b = d` (finite) and
/// `e = f` (infinite), in that predicate order. Inserting `row(a1, c1)`
/// under `rows(g1, h1)` and `rows(g2, h2)` makes two templates per table
/// with variables of their own, and `rows(g1, h2)` pairs the first
/// group's `r1` template with the second's `r2` template on the
/// conditions `[v₁ = v₂, w₁ = w₂]`: finite first, then infinite. Fresh
/// constants for `w₁`, `w₂` avoid that row.
fn two_group_system() -> XmlViewSystem {
    let mut db = Database::new();
    db.create_table(
        schema("grps")
            .col_str("g")
            .col_str("h")
            .col_str("sel")
            .key(&["g", "h"]),
    )
    .unwrap();
    let finite = || vec![Value::Int(0), Value::Int(1)];
    db.create_table(
        schema("r1")
            .col_str("a")
            .col_str("g")
            .col_finite("b", ValueType::Int, finite())
            .col_str("e")
            .key(&["a", "g"]),
    )
    .unwrap();
    db.create_table(
        schema("r2")
            .col_str("c")
            .col_str("h")
            .col_finite("d", ValueType::Int, finite())
            .col_str("f")
            .key(&["c", "h"]),
    )
    .unwrap();
    for (g, h, sel) in [("g1", "h1", "yes"), ("g2", "h2", "yes"), ("g1", "h2", "no")] {
        db.insert("grps", tuple![g, h, sel]).unwrap();
    }
    let mut b = Dtd::builder("doc");
    b.star("doc", "grp").unwrap();
    b.sequence("grp", &["sel", "rows"]).unwrap();
    b.star("rows", "row").unwrap();
    b.sequence("row", &["left", "right"]).unwrap();
    let q_grp = SpjQuery::builder("Qdoc_grp")
        .from("grps", "s")
        .project(("s", "g"), "g")
        .project(("s", "h"), "h")
        .project(("s", "sel"), "sel")
        .build(&db)
        .unwrap();
    let q_row = SpjQuery::builder("Qrows_row")
        .from("r1", "x")
        .from("r2", "y")
        .where_col_eq_param(("x", "g"), 0)
        .where_col_eq_param(("y", "h"), 1)
        .where_col_eq_col(("x", "b"), ("y", "d"))
        .where_col_eq_col(("x", "e"), ("y", "f"))
        .project(("x", "a"), "a")
        .project(("y", "c"), "c")
        .build(&db)
        .unwrap();
    let mut ab = Atg::builder(b.build().unwrap());
    ab.attr("doc", &[])
        .attr("grp", &["g", "h", "sel"])
        .attr("sel", &["sel"])
        .attr("rows", &["g", "h"])
        .attr("row", &["a", "c"])
        .attr("left", &["a"])
        .attr("right", &["c"]);
    ab.rule_query("doc", "grp", q_grp, &[])
        .rule_project("grp", "sel", &["sel"])
        .rule_project("grp", "rows", &["g", "h"])
        .rule_query("rows", "row", q_row, &["g", "h"])
        .rule_project("row", "left", &["a"])
        .rule_project("row", "right", &["c"]);
    XmlViewSystem::new(ab.build(&db).unwrap(), db).unwrap()
}

/// §4.3 phase 3: a side-effect row with an avoidable condition is skipped
/// wherever that condition sits among its conditions — here after a
/// finite variable-to-variable one, which alone the encoder would refuse
/// (`UnsupportedCondition`).
#[test]
fn an_avoidable_condition_skips_its_row_wherever_it_sits() {
    for policy in [SideEffectPolicy::Abort, SideEffectPolicy::Proceed] {
        let mut sys = two_group_system();
        let u = XmlUpdate::insert("row", tuple!["a1", "c1"], "grp[sel=yes]/rows").unwrap();
        let report = sys
            .apply(&u, policy)
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert_eq!(report.delta_r.len(), 4, "{policy:?}: one row per template");
        assert!(!report.sat_used, "{policy:?}: no clause is left");
        sys.consistency_check()
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
    }
}

/// `r(k, b)` published as `doc → (items, flags)`: `items → item*` with an
/// `item` per row of `r`, and `flags → flag*` with a `flag` per row whose
/// `b` is `true`. `b` is a `Bool` column declared with an infinite domain,
/// as `ColumnDef::new` makes it. Holds `r(a, false)`.
fn flag_system() -> XmlViewSystem {
    let mut db = Database::new();
    let columns = vec![
        ColumnDef::new("k", ValueType::Str),
        ColumnDef::new("b", ValueType::Bool),
    ];
    db.create_table(TableSchema::new("r", columns, vec![0]))
        .unwrap();
    db.insert("r", tuple!["a", false]).unwrap();
    let mut d = Dtd::builder("doc");
    d.sequence("doc", &["items", "flags"]).unwrap();
    d.star("items", "item").unwrap();
    d.star("flags", "flag").unwrap();
    let q_item = SpjQuery::builder("Qitems_item")
        .from("r", "x")
        .project(("x", "k"), "k")
        .build(&db)
        .unwrap();
    let q_flag = SpjQuery::builder("Qflags_flag")
        .from("r", "x")
        .where_col_eq_const(("x", "b"), true)
        .project(("x", "k"), "k")
        .build(&db)
        .unwrap();
    let mut ab = Atg::builder(d.build().unwrap());
    for (ty, fields) in [("doc", &[][..]), ("items", &[]), ("flags", &[])] {
        ab.attr(ty, fields);
    }
    ab.attr("item", &["k"]).attr("flag", &["k"]);
    ab.rule_project("doc", "items", &[])
        .rule_project("doc", "flags", &[])
        .rule_query("items", "item", q_item, &[])
        .rule_query("flags", "flag", q_flag, &[]);
    XmlViewSystem::new(ab.build(&db).unwrap(), db).unwrap()
}

/// §4.3 phase 3: a `Bool` variable ranges over `{false, true}` whatever
/// its column declares, so no fresh constant avoids a condition on it.
/// Inserting `item(z)` makes `r(z, b)`; `b = true` would add `flag(z)`, so
/// SAT picks `b = false`.
#[test]
fn a_bool_condition_goes_to_sat_not_to_a_fresh_constant() {
    for policy in [SideEffectPolicy::Abort, SideEffectPolicy::Proceed] {
        let mut sys = flag_system();
        let u = XmlUpdate::insert("item", tuple!["z"], "items").unwrap();
        let report = sys
            .apply(&u, policy)
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert!(report.sat_used, "{policy:?}: the condition is a clause");
        let row = sys.base().table("r").unwrap().get(&tuple!["z"]).cloned();
        assert_eq!(row, Some(tuple!["z", false]), "{policy:?}");
        sys.consistency_check()
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
    }
}

/// `r(k, b)` and `s(c, d)`, all `Str`, published as `doc → (items, sitems,
/// pairs)`: an `item` per row of `r`, an `sitem` per row of `s`, and a
/// `pair` per `r ⋈ s` on `b = d`. Starts empty.
fn pair_system() -> XmlViewSystem {
    let mut db = Database::new();
    db.create_table(schema("r").col_str("k").col_str("b").key(&["k"]))
        .unwrap();
    db.create_table(schema("s").col_str("c").col_str("d").key(&["c"]))
        .unwrap();
    let mut d = Dtd::builder("doc");
    d.sequence("doc", &["items", "sitems", "pairs"]).unwrap();
    d.star("items", "item").unwrap();
    d.star("sitems", "sitem").unwrap();
    d.star("pairs", "pair").unwrap();
    let scan = |name: &str, table: &str, key: &str| {
        SpjQuery::builder(name)
            .from(table, "x")
            .project(("x", key), key)
            .build(&db)
            .unwrap()
    };
    let q_pair = SpjQuery::builder("Qpairs_pair")
        .from("r", "x")
        .from("s", "y")
        .where_col_eq_col(("x", "b"), ("y", "d"))
        .project(("x", "k"), "k")
        .project(("y", "c"), "c")
        .build(&db)
        .unwrap();
    let mut ab = Atg::builder(d.build().unwrap());
    for ty in ["doc", "items", "sitems", "pairs"] {
        ab.attr(ty, &[]);
    }
    ab.attr("item", &["k"])
        .attr("sitem", &["c"])
        .attr("pair", &["k", "c"]);
    for child in ["items", "sitems", "pairs"] {
        ab.rule_project("doc", child, &[]);
    }
    ab.rule_query("items", "item", scan("Qitems_item", "r", "k"), &[])
        .rule_query("sitems", "sitem", scan("Qsitems_sitem", "s", "c"), &[])
        .rule_query("pairs", "pair", q_pair, &[]);
    XmlViewSystem::new(ab.build(&db).unwrap(), db).unwrap()
}

/// §4.3 phase 4: a fresh constant differs from every constant its
/// variable was compared with in a skipped condition. `item(z1)` writes
/// `r(z1, f)` with `f` fresh; `sitem(w1)` then makes `s(w1, d)`, whose
/// join with `r(z1, f)` on `d = f` is avoided only if `d`'s fresh constant
/// is not `f` — fresh constants are numbered from 1 in every translation.
#[test]
fn a_fresh_constant_avoids_what_an_earlier_translation_wrote() {
    let mut sys = pair_system();
    for (ty, key, at) in [("item", "z1", "items"), ("sitem", "w1", "sitems")] {
        let u = XmlUpdate::insert(ty, tuple![key], at).unwrap();
        let report = sys.apply(&u, SideEffectPolicy::Abort).unwrap();
        assert!(!report.sat_used, "{ty}: no clause is left");
        sys.consistency_check()
            .unwrap_or_else(|e| panic!("after {ty}({key}): {e}"));
    }
    let b = &sys.base().table("r").unwrap().get(&tuple!["z1"]).unwrap()[1];
    let d = &sys.base().table("s").unwrap().get(&tuple!["w1"]).unwrap()[1];
    assert_ne!(b, d, "the two fresh constants differ");
}

/// `grps(g, h)` and `r(k, v)`, all `Str`, published as `doc → grp*`,
/// `grp → (gid, items)`, `items → item*`: an `item` per row of `r` whose
/// `v` is the group's `g`, under a guard on the group's parameters alone —
/// `$0 = 'x'`, or `$0 = $1` when `pair_guard`. Holds the groups `(y, w)`,
/// which fails either guard, and `(x, x)`, which passes both; `r` starts
/// empty.
fn guarded_system(pair_guard: bool) -> XmlViewSystem {
    let mut db = Database::new();
    db.create_table(schema("grps").col_str("g").col_str("h").key(&["g"]))
        .unwrap();
    db.create_table(schema("r").col_str("k").col_str("v").key(&["k"]))
        .unwrap();
    for (g, h) in [("y", "w"), ("x", "x")] {
        db.insert("grps", tuple![g, h]).unwrap();
    }
    let mut d = Dtd::builder("doc");
    d.star("doc", "grp").unwrap();
    d.sequence("grp", &["gid", "items"]).unwrap();
    d.star("items", "item").unwrap();
    let q_grp = SpjQuery::builder("Qdoc_grp")
        .from("grps", "s")
        .project(("s", "g"), "g")
        .project(("s", "h"), "h")
        .build(&db)
        .unwrap();
    let guard = EqPred {
        left: Operand::Param(0),
        right: match pair_guard {
            false => Operand::Const(Value::from("x")),
            true => Operand::Param(1),
        },
    };
    let (k, v) = (ColRef { rel: 0, col: 0 }, ColRef { rel: 0, col: 1 });
    let of_group = EqPred {
        left: Operand::Col(v),
        right: Operand::Param(0),
    };
    let q_item = SpjQuery::from_parts(
        "Qitems_item",
        vec![TableRef {
            table: "r".into(),
            alias: "x".into(),
        }],
        vec![of_group, guard],
        vec![k],
        vec!["k".into()],
        2,
        &db,
    )
    .unwrap();
    let mut ab = Atg::builder(d.build().unwrap());
    ab.attr("doc", &[])
        .attr("grp", &["g", "h"])
        .attr("gid", &["g"])
        .attr("items", &["g", "h"])
        .attr("item", &["k"]);
    ab.rule_query("doc", "grp", q_grp, &[])
        .rule_project("grp", "gid", &["g"])
        .rule_project("grp", "items", &["g", "h"])
        .rule_query("items", "item", q_item, &["g", "h"]);
    XmlViewSystem::new(ab.build(&db).unwrap(), db).unwrap()
}

/// §4.3 phase 1: a rule's guard on its parameters alone is a `gen_A`
/// column of the edge view, pinned by the parent's `$A`. An insertion
/// under a parent the guard excludes has no row in the view, so it is
/// rejected as an inconsistent derivation; under a parent that passes the
/// guard, the same insertion writes `r(z, x)`.
#[test]
fn a_rule_guard_on_the_parent_rejects_an_insertion_it_excludes() {
    for pair_guard in [false, true] {
        for policy in [SideEffectPolicy::Abort, SideEffectPolicy::Proceed] {
            let ctx = format!("pair guard {pair_guard}, {policy:?}");
            let mut sys = guarded_system(pair_guard);
            let excluded = XmlUpdate::insert("item", tuple!["z"], "grp[gid=y]/items").unwrap();
            match sys.apply(&excluded, policy) {
                Err(UpdateError::Insert(InsertRejection::KeyConflict { .. })) => {}
                other => panic!("{ctx}: {:?}", other.map(|r| r.delta_r)),
            }
            sys.consistency_check()
                .unwrap_or_else(|e| panic!("{ctx}, after the rejection: {e}"));
            let passing = XmlUpdate::insert("item", tuple!["z"], "grp[gid=x]/items").unwrap();
            sys.apply(&passing, policy)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let r = sys.base().table("r").unwrap();
            assert_eq!(r.get(&tuple!["z"]), Some(&tuple!["z", "x"]), "{ctx}");
            assert_eq!(r.len(), 1, "{ctx}");
            sys.consistency_check()
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
    }
}

/// `q` with its FROM entries and its predicates in reverse order.
fn reversed(q: &SpjQuery, db: &Database) -> SpjQuery {
    let n = q.from().len();
    let flip = |c: &ColRef| ColRef {
        rel: n - 1 - c.rel,
        col: c.col,
    };
    let operand = |o: &Operand| match o {
        Operand::Col(c) => Operand::Col(flip(c)),
        o => o.clone(),
    };
    SpjQuery::from_parts(
        q.name(),
        q.from().iter().rev().cloned().collect(),
        q.predicates()
            .iter()
            .rev()
            .map(|p| EqPred {
                left: operand(&p.left),
                right: operand(&p.right),
            })
            .collect(),
        q.projection().iter().map(flip).collect(),
        q.out_names().to_vec(),
        q.n_params(),
        db,
    )
    .unwrap()
}

/// `atg` with each rule query written the other way round ([`reversed`]).
fn reversed_rules(atg: &Atg, db: &Database) -> Atg {
    let dtd = atg.dtd();
    let fields = |ty, at: &[usize]| -> Vec<&str> {
        at.iter()
            .map(|&i| atg.attr_fields(ty)[i].as_str())
            .collect()
    };
    let mut b = Atg::builder(dtd.clone());
    for ty in dtd.types() {
        let all: Vec<usize> = (0..atg.attr_fields(ty).len()).collect();
        b.attr(dtd.name(ty), &fields(ty, &all));
    }
    for p in dtd.types() {
        for &c in dtd.children_of(p) {
            let (pn, cn) = (dtd.name(p), dtd.name(c));
            match atg.rule(p, c) {
                Some(RuleBody::Project { fields: at }) => {
                    b.rule_project(pn, cn, &fields(p, at));
                }
                Some(RuleBody::Query {
                    query,
                    param_fields,
                    ..
                }) => {
                    b.rule_query(pn, cn, reversed(query, db), &fields(p, param_fields));
                }
                None => {}
            }
        }
    }
    b.build(db).unwrap()
}

/// Algorithm insert decides nothing by how a rule query is written: with
/// each rule's FROM entries and predicates reversed, insertion streams on
/// the registrar, synthetic and SAT grammars are accepted and rejected
/// alike, and leave the same state by the `Exact` digest after every
/// update. (Insertions only: Algorithm delete takes the first safe source
/// in FROM order by design.)
#[test]
fn insertion_verdicts_do_not_depend_on_rule_order() {
    let registrar_stream: Vec<XmlUpdate> = {
        let courses = [("CS650", "Advanced DB"), ("CS240", "Data Structures")];
        let new = [("CS777", "Seminar"), ("CS240", "Wrong")];
        let mut ops = Vec::new();
        for (cno, title) in courses.iter().chain(&new) {
            for at in [
                "course[cno=CS650]/prereq",
                "//prereq",
                "course[cno=CS320]/prereq",
            ] {
                ops.push(XmlUpdate::insert("course", tuple![*cno, *title], at).unwrap());
            }
        }
        for (ssn, name) in [("S01", "Alice"), ("S99", "Zed"), ("S02", "Wrong")] {
            for at in ["course[cno=CS320]/takenBy", "//takenBy"] {
                ops.push(XmlUpdate::insert("student", tuple![ssn, name], at).unwrap());
            }
        }
        ops
    };
    let registrar_db = registrar_database();
    let registrar = registrar_atg(&registrar_db).unwrap();
    let synthetic_db = {
        let mut cfg = SyntheticConfig::with_size(200);
        cfg.seed = 4;
        synthetic_database(&cfg)
    };
    let synthetic = synthetic_atg(&synthetic_db).unwrap();
    let synthetic_stream = {
        let sys = XmlViewSystem::new(synthetic.clone(), synthetic_db.clone()).unwrap();
        let mut gen = WorkloadGen::new(sys.view(), 23);
        WorkloadClass::all()
            .map(|class| gen.insertions(class, 8))
            .concat()
    };
    // Over five values, `(a5, c6)` must avoid the values of `a0`, `a1` and
    // `c0`: three clauses and two models, of which WalkSAT picks by clause
    // order unless the formula is canonical.
    let sat_stream: Vec<XmlUpdate> = [("a1", "c4"), ("a1", "c7"), ("a5", "c6"), ("a6", "c1")]
        .into_iter()
        .chain([("a5", "c0"), ("a7", "c8")])
        .map(|(a, c)| XmlUpdate::insert("row", tuple![a, c], ".").unwrap())
        .collect();
    let (sat_db, sat) = sat_grammar(5, &[("a0", 1), ("a1", 4)], &[("c0", 2)]);
    let grammars = [
        ("registrar", registrar_db, registrar, registrar_stream),
        ("synthetic", synthetic_db, synthetic, synthetic_stream),
        ("sat", sat_db, sat, sat_stream),
    ];
    let (mut rejected, mut solved) = (0, 0);
    for (name, db, atg, stream) in grammars {
        let mut sys = XmlViewSystem::new(atg.clone(), db.clone()).unwrap();
        let mut other = XmlViewSystem::new(reversed_rules(&atg, &db), db).unwrap();
        let mut accepted = 0;
        for (i, u) in stream.iter().enumerate() {
            let policy = [SideEffectPolicy::Abort, SideEffectPolicy::Proceed][i % 2];
            let verdict = sys.apply(u, policy).map(|r| r.sat_used).ok();
            assert_eq!(
                other.apply(u, policy).map(|r| r.sat_used).ok(),
                verdict,
                "{name}: `{u}` under {policy:?}"
            );
            let diff = sys.exact_digest().first_difference(&other.exact_digest());
            assert_eq!(diff, None, "{name}: after `{u}`");
            accepted += usize::from(verdict.is_some());
            rejected += usize::from(verdict.is_none());
            solved += usize::from(verdict == Some(true));
        }
        assert!(accepted > 0, "{name}: nothing accepted");
    }
    assert!(rejected > 0, "no stream has a rejection");
    assert!(solved > 1, "the SAT step decided {solved} insertions");
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
/// validation over its plan's walk finds it `Unreachable`, and its ticket
/// is resolved at `submit`, before any commit, by one probe of the plan
/// cache that compiles the odd shape's own plan. An
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
    let stats = || engine.snapshot().system().view().plan_cache().stats();
    let before = stats();
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
    let probed = stats().delta_since(&before);
    assert_eq!(
        (probed.hits, probed.misses, probed.compiles),
        (0, 1, 1),
        "the refused update compiles its own shape, once"
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

/// `admit`'s verdict on `u`: admitted, or its schema violation.
fn admitted(sys: &XmlViewSystem, u: &XmlUpdate) -> Result<(), SchemaViolation> {
    match sys.admit(u) {
        Ok(_) => Ok(()),
        Err(UpdateError::Schema(v)) => Err(v),
        Err(e) => panic!("`{u}` refused at admission as {e:?}"),
    }
}

/// A verdict's kind, for the tally of kinds a test reached.
fn verdict_kind(verdict: &Result<(), SchemaViolation>) -> &'static str {
    match verdict {
        Ok(()) => "admitted",
        Err(SchemaViolation::Unreachable) => "Unreachable",
        Err(SchemaViolation::InvalidInsertTarget { .. }) => "InvalidInsertTarget",
        Err(SchemaViolation::InvalidDeleteTarget { .. }) => "InvalidDeleteTarget",
        Err(SchemaViolation::UnknownType(_)) => "UnknownType",
    }
}

/// Admission reads §2.4's verdict off the walk its plan compiled once per
/// shape; that verdict, payload included, is the one-shot `validate_insert`
/// / `validate_delete`'s. The paths use the registrar and synthetic DTDs'
/// labels and two that neither has, with `//`, `*`, `.` and every filter
/// form; each is admitted again with its literals replaced (a hit on the
/// same plan), and inserts name types each grammar allows, forbids or
/// lacks.
#[test]
fn admission_returns_the_one_shot_schema_verdict() {
    use proptest::prelude::{Strategy, TestRng};
    use rxview::xmlkit::{validate_delete, validate_insert};
    const TYPES: [&str; 6] = ["course", "student", "cno", "node", "sub", "nothing"];
    let systems = [registrar_system(), synthetic_system(20, 1)];
    let paths = strategies::schema_path_strategy();
    let constants = strategies::constant_strategy();
    let mut seen = std::collections::BTreeSet::new();
    for case in 0..400 {
        let mut rng = TestRng::deterministic(case);
        let Some(path) = paths.gen_value(&mut rng) else {
            continue;
        };
        let mut literals = std::iter::from_fn(|| constants.gen_value(&mut rng));
        let refilled = strategies::refill_path(&path, &mut literals);
        for sys in &systems {
            let dtd = sys.view().atg().dtd();
            for p in [&path, &refilled] {
                let delete = XmlUpdate::Delete { path: p.clone() };
                let expected = validate_delete(dtd, p);
                assert_eq!(admitted(sys, &delete), expected, "`{delete}`");
                seen.insert(("delete", verdict_kind(&expected)));
                for ty in TYPES {
                    let insert = XmlUpdate::Insert {
                        ty: ty.into(),
                        attr: tuple![0],
                        path: p.clone(),
                    };
                    let expected = validate_insert(dtd, p, ty);
                    assert_eq!(admitted(sys, &insert), expected, "`{insert}`");
                    seen.insert(("insert", verdict_kind(&expected)));
                }
            }
        }
    }
    let every = [
        ("delete", "admitted"),
        ("delete", "InvalidDeleteTarget"),
        ("delete", "Unreachable"),
        ("insert", "InvalidInsertTarget"),
        ("insert", "UnknownType"),
        ("insert", "Unreachable"),
        ("insert", "admitted"),
    ];
    assert_eq!(seen, every.into_iter().collect());
}

/// One path, `course[cno=CS650]/prereq`, one plan, three verdicts: an
/// inserted `course` is admitted (`prereq → course*`), an inserted
/// `student` is refused at `prereq`, and deleting the `prereq` is refused
/// under `course`, whose production is a sequence — each the one-shot
/// check's verdict.
#[test]
fn one_plan_gives_each_update_on_its_path_its_own_verdict() {
    use rxview::xmlkit::{validate_delete, validate_insert};
    let sys = registrar_system();
    let dtd = sys.view().atg().dtd();
    let path = parse_xpath("course[cno=CS650]/prereq").unwrap();
    let insert = |ty: &str| XmlUpdate::Insert {
        ty: ty.into(),
        attr: tuple!["MA100", "Calculus"],
        path: path.clone(),
    };
    let before = sys.view().plan_cache().stats();
    assert_eq!(admitted(&sys, &insert("course")), Ok(()));
    let student = Err(SchemaViolation::InvalidInsertTarget {
        target: "prereq".into(),
        inserted: "student".into(),
    });
    assert_eq!(admitted(&sys, &insert("student")), student);
    let delete = XmlUpdate::Delete { path: path.clone() };
    let prereq = Err(SchemaViolation::InvalidDeleteTarget {
        parent: "course".into(),
        target: "prereq".into(),
    });
    assert_eq!(admitted(&sys, &delete), prereq);
    assert_eq!(validate_insert(dtd, &path, "course"), Ok(()));
    assert_eq!(validate_insert(dtd, &path, "student"), student);
    assert_eq!(validate_delete(dtd, &path), prereq);
    let probed = sys.view().plan_cache().stats().delta_since(&before);
    assert_eq!(
        (probed.compiles, probed.hits),
        (1, 2),
        "one plan, three probes"
    );
}

/// Through an engine, a shape is compiled once however often it is
/// admitted, and so is a refused one: an update schema-refused at `submit`
/// twice gets the same violation both times, takes no queue slot, and
/// counts in `updates.rejected`.
#[test]
fn a_shape_compiles_once_whether_admitted_or_refused() {
    let engine = Engine::new(registrar_system());
    let stats = || engine.snapshot().system().view().plan_cache().stats();
    let before = stats();
    let refused = XmlUpdate::delete("course[cno=CS650]/cno").unwrap();
    let verdicts: Vec<_> = (0..2)
        .map(|_| {
            let ticket = engine
                .submit(refused.clone(), SideEffectPolicy::Proceed)
                .unwrap();
            match ticket.try_wait() {
                Some(Err(EngineError::Update(UpdateError::Schema(v)))) => v,
                other => panic!("`{refused}` resolved at submit as {other:?}"),
            }
        })
        .collect();
    let cno = SchemaViolation::InvalidDeleteTarget {
        parent: "course".into(),
        target: "cno".into(),
    };
    assert_eq!(verdicts, [cno.clone(), cno]);
    let probed = stats().delta_since(&before);
    assert_eq!((probed.compiles, probed.misses, probed.hits), (1, 1, 1));
    let summary = engine.commit_pending();
    assert_eq!(
        (summary.updates, summary.batches),
        (0, 0),
        "a refusal takes no queue slot"
    );
    let report = engine.stats().report();
    assert_eq!((report.submitted, report.rejected), (2, 2));

    let before = stats();
    let tickets: Vec<_> = ["CS650", "CS320"]
        .into_iter()
        .map(|cno| {
            let path = format!("course[cno={cno}]/prereq");
            let u = XmlUpdate::insert("course", tuple!["MA100", "Calculus"], &path).unwrap();
            engine.submit(u, SideEffectPolicy::Proceed).unwrap()
        })
        .collect();
    let probed = stats().delta_since(&before);
    assert_eq!((probed.compiles, probed.misses, probed.hits), (1, 1, 1));
    assert_eq!(engine.commit_pending().updates, 2);
    assert_eq!(
        stats().delta_since(&before),
        probed,
        "the commit loop probed nothing"
    );
    for t in tickets {
        t.wait().expect("the insertion is accepted");
    }
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
