//! The compiled paths held equal to the reference implementations they
//! replaced. The shipped system has one evaluator (compiled
//! [`rxview::core::UpdatePlan`]s) and one ∆R derivation (the compiled
//! [`TranslationTemplates`] registry); the interpretive code each was
//! derived from lives in the dev-only `rxview-reference` crate, one module
//! per paper section, and this file is where it earns its keep:
//!
//! - **evaluation** — a compiled plan's result equals
//!   [`eval_xpath_on_dag`] (§3.2 verbatim) on every field, and its class
//!   equals [`classify`], for every path of random registrar and synthetic
//!   update streams, re-checked as the updates change the state;
//! - **translation** — for every production edge of the registrar and
//!   synthetic grammars, of a grammar whose rule queries pin equality
//!   classes twice and guard their parameters (so a closure can be
//!   inconsistent) and of a self-join chain, the registry holds one record,
//!   whose view is the edge view [`Atg::edge_view_query`] derives, and
//!   nothing else; the cells `EdgeRecord::cells` reads off an edge row
//!   are those [`compute_edge_closure`] derives for it — same known values,
//!   one variable per open class, same rejection — and
//!   `EdgeRecord::source_keys` equals [`closure_source_keys`], over random
//!   attribute tuples;
//! - **Algorithm delete** (§4.2, Fig. 9) — its ∆R or rejection equals the
//!   first source per deleted edge that [`source_is_safe`], the safety
//!   test read off the whole view, accepts, on registrar, synthetic and
//!   self-join deletions;
//! - **Algorithm insert** (§4.3) on a self-join, where one template set
//!   covers both occurrences of a table: a side-effect-free insertion, and
//!   one whose new row joins an existing row through the other occurrence.

mod common;

use common::{arb_op, descendant_headed, registrar, registrar_update, synthetic, Op, COURSES};
use proptest::prelude::*;
use rxview::atg::Atg;
use rxview::core::{
    classify, translate_deletions, xdelete, DeleteRejection, EdgeCell, InsertRejection,
    SideEffectPolicy, TranslationTemplates, UpdateError, ViewDelta, ViewStore, XmlUpdate,
    XmlViewSystem,
};
use rxview::relstore::{
    schema, ColRef, Database, EqPred, GroupUpdate, Operand, SpjQuery, TableRef, Tuple, Value,
    ValueType,
};
use rxview::workload::{
    mixed_updates, registrar_atg, registrar_database, synthetic_atg, synthetic_database,
    SyntheticConfig,
};
use rxview::xmlkit::{parse_xpath, Dtd, TypeId, XPath};
use rxview_reference::delete::SourceRef;
use rxview_reference::{
    closure_source_keys, compute_edge_closure, eval_xpath_on_dag, source_is_safe,
};
use std::collections::{BTreeMap, BTreeSet};

/// The compiled full pass equals §3.2 verbatim on every field of the
/// result, and the plan's class equals the direct classification.
fn assert_plan_equals_reference(sys: &XmlViewSystem, path: &XPath, ctx: &str) {
    let want = eval_xpath_on_dag(sys.view(), sys.topo(), &sys.reach(), path);
    let got = sys.evaluate(path);
    assert_eq!(got.selected, want.selected, "selected, `{path}` {ctx}");
    assert_eq!(
        got.edge_parents, want.edge_parents,
        "edge_parents, `{path}` {ctx}"
    );
    assert_eq!(
        got.matched_nodes, want.matched_nodes,
        "matched_nodes, `{path}` {ctx}"
    );
    assert_eq!(
        got.matched_edges, want.matched_edges,
        "matched_edges, `{path}` {ctx}"
    );
    assert_eq!(
        sys.class_of(path),
        classify(sys.view().atg().dtd(), path),
        "class, `{path}` {ctx}"
    );
}

/// Paths no generated update phrases: filters the classifier cannot key,
/// unions, negation, wildcards, unknown labels.
const REGISTRAR_READS: &[&str] = &[
    "course[prereq/course]/takenBy",
    "course[not(prereq/course)]",
    "//course[cno=CS320 or cno=CS240]",
    "//takenBy/student[name=Bob]",
    "course[.//cno=CS240]",
    "*[label()=course]/prereq",
    "course/*",
    "//*",
    "nonexistent/x",
];

const SYNTHETIC_READS: &[&str] = &[
    "node[sub/node]/sub/node",
    "node/sub/node[payload=3]",
    "//node[payload=3]/sub",
    "//payload",
    "*/sub/node",
    "node[id=0]//node[not(sub/node)]",
    "node[id=007]",
    "//nonexistent[id=3]",
];

fn check_reads(sys: &XmlViewSystem, reads: &[&str], ctx: &str) {
    for text in reads {
        let path = parse_xpath(text).expect("read path parses");
        assert_plan_equals_reference(sys, &path, ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random registrar streams: every update's path before the update is
    /// applied, the fixed read paths after it.
    #[test]
    fn compiled_plans_equal_the_reference_evaluator_on_registrar_streams(
        ops in proptest::collection::vec(arb_op(), 1..12),
    ) {
        let mut sys = registrar();
        check_reads(&sys, REGISTRAR_READS, "at publication");
        for (i, (op, phrasing, abort)) in ops.iter().enumerate() {
            let Some(update) = registrar_update(op, *phrasing) else { continue };
            assert_plan_equals_reference(&sys, update.path(), &format!("before op {i}"));
            let policy = if *abort { SideEffectPolicy::Abort } else { SideEffectPolicy::Proceed };
            if sys.apply(&update, policy).is_ok() {
                check_reads(&sys, REGISTRAR_READS, &format!("after op {i}"));
            }
        }
    }

    /// Random W1–W3 streams (anchored and `//`-headed) on random synthetic
    /// views.
    #[test]
    fn compiled_plans_equal_the_reference_evaluator_on_workload_streams(
        seed in 0u64..500,
        flips in prop::collection::vec((any::<bool>(), any::<bool>()), 6..14),
    ) {
        let mut sys = synthetic(240, seed);
        check_reads(&sys, SYNTHETIC_READS, "at publication");
        for (i, (insert, descendant)) in flips.iter().enumerate() {
            let Some(u) = mixed_updates(&sys, seed ^ i as u64, &[*insert]).pop() else { continue };
            let u = if *descendant { descendant_headed(&u) } else { u };
            assert_plan_equals_reference(&sys, u.path(), &format!("before op {i}"));
            let _ = sys.apply(&u, SideEffectPolicy::Proceed);
        }
        check_reads(&sys, SYNTHETIC_READS, "after the stream");
    }
}

/// A grammar whose rule queries pin equality classes more than once, so an
/// inserted edge's closure can be inconsistent: `db → item` pins `{t.k,
/// t.w}` by two projected columns and `{t.f}` by a projected column and a
/// constant; `item → part` pins `{p.pk}` by a projected column and the
/// parameter `$0`, and guards its parent with `$1 = 1` and `$0 = $2`
/// (`$A`'s `f` and `k = w`, which every published `item` passes).
fn twice_pinned_grammar() -> (Database, Atg) {
    let mut db = Database::new();
    db.create_table(
        schema("T")
            .col_int("k")
            .col_int("w")
            .col_int("f")
            .key(&["k"]),
    )
    .expect("fresh database");
    db.create_table(schema("P").col_int("pk").col_int("x").key(&["pk", "x"]))
        .expect("fresh database");
    let q_db_item = SpjQuery::builder("Qdb_item")
        .from("T", "t")
        .where_col_eq_col(("t", "k"), ("t", "w"))
        .where_col_eq_const(("t", "f"), 1i64)
        .project(("t", "k"), "k")
        .project(("t", "w"), "w")
        .project(("t", "f"), "f")
        .build(&db)
        .expect("valid query");
    let (pk, x) = (ColRef { rel: 0, col: 0 }, ColRef { rel: 0, col: 1 });
    let q_item_part = SpjQuery::from_parts(
        "Qitem_part",
        vec![TableRef {
            table: "P".into(),
            alias: "p".into(),
        }],
        vec![
            EqPred {
                left: Operand::Col(pk),
                right: Operand::Param(0),
            },
            EqPred {
                left: Operand::Param(1),
                right: Operand::Const(Value::Int(1)),
            },
            EqPred {
                left: Operand::Param(0),
                right: Operand::Param(2),
            },
        ],
        vec![pk, x],
        vec!["pk".into(), "x".into()],
        3,
        &db,
    )
    .expect("valid query");
    let mut dtd = Dtd::builder("db");
    dtd.star("db", "item").expect("fresh builder");
    dtd.star("item", "part").expect("fresh builder");
    dtd.empty("part").expect("fresh builder");
    let mut b = Atg::builder(dtd.build().expect("valid DTD"));
    b.attr("db", &[])
        .attr("item", &["k", "w", "f"])
        .attr("part", &["pk", "x"]);
    b.rule_query("db", "item", q_db_item, &[]).rule_query(
        "item",
        "part",
        q_item_part,
        &["k", "f", "w"],
    );
    let atg = b.build(&db).expect("valid ATG");
    (db, atg)
}

fn grammars() -> Vec<(&'static str, Database, Atg)> {
    let registrar_db = registrar_database();
    let registrar = registrar_atg(&registrar_db).expect("valid ATG");
    let synthetic_db = synthetic_database(&SyntheticConfig::with_size(40));
    let synthetic = synthetic_atg(&synthetic_db).expect("valid ATG");
    let (twice_db, twice) = twice_pinned_grammar();
    let (chain_db, chain) = chain_grammar(&[("a", "b"), ("b", "c")]);
    vec![
        ("registrar", registrar_db, registrar),
        ("synthetic", synthetic_db, synthetic),
        ("twice-pinned", twice_db, twice),
        ("chain", chain_db, chain),
    ]
}

/// A value of type `ty` from a three-value domain, so that two pins of one
/// class agree in about a third of the draws.
fn small_value(ty: ValueType, pick: u8) -> Value {
    match ty {
        ValueType::Int => Value::Int(i64::from(pick % 3)),
        ValueType::Str => Value::from(format!("v{}", pick % 3)),
        ValueType::Bool => Value::Bool(pick.is_multiple_of(2)),
    }
}

fn small_tuple(types: &[ValueType], picks: &mut impl Iterator<Item = u8>) -> Tuple {
    Tuple::from_values(
        types
            .iter()
            .map(|&ty| small_value(ty, picks.next().expect("picks cycle"))),
    )
}

/// A random edge `a → b`: its `$A`, its `$B`, and the edge view's row
/// (`$A` fields, the unit column when `$A` is empty, ++ `$B` fields).
fn edge_row(
    atg: &Atg,
    a: TypeId,
    b: TypeId,
    picks: &mut impl Iterator<Item = u8>,
) -> (Tuple, Tuple, Tuple) {
    let parent = small_tuple(atg.attr_types(a), picks);
    let child = small_tuple(atg.attr_types(b), picks);
    let gen = match parent.arity() {
        0 => Tuple::from_values([Value::Int(0)]),
        _ => parent.clone(),
    };
    let out = gen.concat(&child);
    (parent, child, out)
}

/// The registry is the edge views' one home: a record for exactly the
/// production edges with a rule, each holding the edge view that
/// [`Atg::edge_view_query`] derives — same name, FROM, predicates and
/// projection. It numbers exactly the base tables some edge view's FROM
/// names, in name order, and each record's base FROM entry carries the
/// number of its table; on the chain grammar a self-loop's two sources
/// collapse to one `(table, key)`.
#[test]
fn the_registry_holds_one_record_per_edge_view() {
    for (name, _db, atg) in grammars() {
        let compiled = TranslationTemplates::compile(&atg);
        let provider = atg.augmented_schemas();
        let mut want = BTreeMap::new();
        for a in atg.dtd().types() {
            for &b in atg.dtd().children_of(a) {
                if let Some(q) = atg.edge_view_query(a, b, &provider) {
                    assert!(atg.rule(a, b).is_some(), "{name}: a view without a rule");
                    want.insert((a, b), q);
                } else {
                    assert!(atg.rule(a, b).is_none(), "{name}: a rule without a view");
                }
            }
        }
        let got: Vec<_> = compiled.edges().map(|(edge, _)| edge).collect();
        let want_edges: Vec<_> = want.keys().copied().collect();
        assert_eq!(got, want_edges, "{name}: the records' edges");
        // Entry 0 of an edge view is its `gen_A`, never a base table.
        let read: BTreeSet<&str> = want
            .values()
            .flat_map(|q| q.from()[1..].iter().map(|tr| tr.table.as_str()))
            .collect();
        let tables: Vec<&str> = compiled.tables().iter().map(String::as_str).collect();
        assert_eq!(tables, Vec::from_iter(read), "{name}: the numbered tables");
        for ((a, b), record) in compiled.edges() {
            let (view, q) = (record.view(), &want[&(a, b)]);
            assert_eq!(view.name(), q.name(), "{name}");
            assert_eq!(view.from(), q.from(), "{name}: {}", q.name());
            assert_eq!(view.predicates(), q.predicates(), "{name}: {}", q.name());
            assert_eq!(view.projection(), q.projection(), "{name}: {}", q.name());
            let numbered: Vec<&str> = record.tables().map(|n| tables[n]).collect();
            let named: Vec<&str> = q.from()[1..].iter().map(|tr| tr.table.as_str()).collect();
            assert_eq!(numbered, named, "{name}: {}: the entries' tables", q.name());
        }
        if name == "chain" {
            let doc = atg.dtd().type_id("doc").expect("chain type");
            let pair = atg.dtd().type_id("pair").expect("chain type");
            let record = compiled.edge((doc, pair)).expect("a rule's record");
            let a = Tuple::from_values(["a", "a"].map(Value::from));
            let sources = record.source_keys(&[], a.values());
            let n = tables.binary_search(&"n").expect("n is numbered");
            let want = vec![(n, Tuple::from_values([Value::from("a")]))];
            assert_eq!(
                sources,
                Some(want),
                "chain: n(a) is both sources of pair(a, a)"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Insert side: the cells a record's cell program reads off an edge
    /// row are those the interpretive closure of the edge view derives for
    /// it — a column's pinned value, else a variable shared with exactly
    /// the columns of its class — or the same rejection.
    #[test]
    fn instantiate_insert_matches_compute_edge_closure(
        picks in prop::collection::vec(any::<u8>(), 16..48),
    ) {
        let (mut accepted, mut rejected) = (0, 0);
        for (name, _db, atg) in grammars() {
            let compiled = TranslationTemplates::compile(&atg);
            let provider = atg.augmented_schemas();
            let mut picks = picks.iter().copied().cycle();
            for ((a, b), record) in compiled.edges() {
                let q = atg.edge_view_query(a, b, &provider).expect("a record's edge view");
                for _ in 0..6 {
                    let (parent, child, out) = edge_row(&atg, a, b, &mut picks);
                    let ctx = format!("{name}: {}, row {out}", q.name());
                    let (got, want) = match (
                        record.cells(parent.values(), child.values()),
                        compute_edge_closure(&q, &provider, &out),
                    ) {
                        (Ok(got), Ok(want)) => (got, want),
                        (Err(got), Err(want)) => {
                            prop_assert_eq!(got, want, "{}", ctx);
                            rejected += 1;
                            continue;
                        }
                        (got, want) => {
                            prop_assert!(false, "{}: accepted {} != {}", ctx, got.is_ok(), want.is_ok());
                            continue;
                        }
                    };
                    let (mut var_of_class, mut class_of_var) = (BTreeMap::new(), BTreeMap::new());
                    let mut entries = 0;
                    for (rel, (table, cells)) in (1..).zip(got) {
                        prop_assert_eq!(&compiled.tables()[table], &q.from()[rel].table, "{}", ctx);
                        for (col, cell) in cells.enumerate() {
                            let r = want.classes.rep(ColRef { rel, col });
                            match (cell, want.known.get(&r)) {
                                (EdgeCell::Known(v), Some(w)) => {
                                    prop_assert_eq!(v, w, "{}: {}.{}", ctx, rel, col);
                                }
                                (EdgeCell::Var(k), None) => {
                                    let class = *class_of_var.entry(k).or_insert(r);
                                    let var = *var_of_class.entry(r).or_insert(k);
                                    prop_assert_eq!((class, var), (r, k), "{}: {}.{}", ctx, rel, col);
                                }
                                (cell, known) => prop_assert!(
                                    false, "{}: {}.{}: {:?}, reference {:?}", ctx, rel, col, cell, known
                                ),
                            }
                        }
                        entries = rel;
                    }
                    prop_assert_eq!(entries, q.from().len() - 1, "{}: base entries", ctx);
                    accepted += 1;
                }
            }
        }
        prop_assert!(accepted > 0, "no consistent closure drawn");
        prop_assert!(rejected > 0, "no inconsistent closure drawn");
    }

    /// Delete side: the source keys a record's cell program reads off an
    /// edge row are the sources the interpretive derivation reconstructs
    /// from it — and `None` exactly when that returns `Ok(None)`.
    #[test]
    fn delete_program_matches_interpretive_sources(
        picks in prop::collection::vec(any::<u8>(), 16..48),
    ) {
        let mut instantiated = 0;
        for (name, _db, atg) in grammars() {
            let compiled = TranslationTemplates::compile(&atg);
            let provider = atg.augmented_schemas();
            let mut picks = picks.iter().copied().cycle();
            for ((a, b), record) in compiled.edges() {
                let q = atg.edge_view_query(a, b, &provider).expect("a record's edge view");
                for _ in 0..4 {
                    let (parent, child, out) = edge_row(&atg, a, b, &mut picks);
                    let want = closure_source_keys(&q, &provider, &out, &[0])
                        .expect("arity-correct row over known tables");
                    let named = |(n, key): (usize, Tuple)| SourceRef {
                        table: compiled.tables()[n].clone(),
                        key,
                    };
                    let got = record.source_keys(parent.values(), child.values());
                    let got = got.map(|sources| sources.into_iter().map(named).collect());
                    prop_assert_eq!(&got, &want, "{}: {}, row {}", name, q.name(), out);
                    instantiated += usize::from(got.is_some());
                }
            }
        }
        prop_assert!(instantiated > 0, "no key-preserving edge view exercised");
    }
}

/// The self-join grammar of §4.2's regression cases (ARCHITECTURE §1, the
/// §4.2 row): `doc → pair*`, `pair → (l, r)`, one `pair` per link `x → y`
/// of table `n(id, next)` whose target is itself a row — `n x ⋈ n y` on
/// `x.next = y.id`. Each `pair` has two sources in one table, `n(x)` and
/// `n(y)`.
fn chain_grammar(links: &[(&str, &str)]) -> (Database, Atg) {
    let mut db = Database::new();
    db.create_table(schema("n").col_str("id").col_str("next").key(&["id"]))
        .expect("fresh database");
    for &(id, next) in links {
        db.insert(
            "n",
            Tuple::from_values([Value::from(id), Value::from(next)]),
        )
        .expect("distinct ids");
    }
    let q_doc_pair = SpjQuery::builder("Qdoc_pair")
        .from("n", "x")
        .from("n", "y")
        .where_col_eq_col(("x", "next"), ("y", "id"))
        .project(("x", "id"), "l")
        .project(("y", "id"), "r")
        .build(&db)
        .expect("valid query");
    let mut dtd = Dtd::builder("doc");
    dtd.star("doc", "pair").expect("fresh builder");
    dtd.sequence("pair", &["l", "r"]).expect("fresh builder");
    let mut b = Atg::builder(dtd.build().expect("valid DTD"));
    b.attr("doc", &[])
        .attr("pair", &["l", "r"])
        .attr("l", &["l"])
        .attr("r", &["r"]);
    b.rule_query("doc", "pair", q_doc_pair, &[])
        .rule_project("pair", "l", &["l"])
        .rule_project("pair", "r", &["r"]);
    let atg = b.build(&db).expect("valid ATG");
    (db, atg)
}

fn chain(links: &[(&str, &str)]) -> XmlViewSystem {
    let (db, atg) = chain_grammar(links);
    XmlViewSystem::new(atg, db).expect("publishes")
}

/// Fig. 9 on a self-join: `pair(b, c)`'s sources are `n(b)` and `n(c)`,
/// and `n(b)` is also the `y` source of `pair(a, b)`, which stays — so the
/// only safe source is `n(c)`. A probe that binds both occurrences of `n`
/// to `b` at once finds no other pair and deletes `n(b)`, taking `pair(a,
/// b)` with it.
#[test]
fn a_self_join_deletes_the_source_no_remaining_pair_shares() {
    let mut sys = chain(&[("a", "b"), ("b", "c"), ("c", "z")]);
    let delete = XmlUpdate::delete("pair[l=b]").expect("path parses");
    let report = sys
        .apply(&delete, SideEffectPolicy::Abort)
        .expect("n(c) is a safe source");
    let mut want = GroupUpdate::new();
    want.delete("n", Tuple::from_values([Value::from("c")]));
    assert_eq!(report.delta_r, want);
    sys.consistency_check()
        .expect("view equals its republication");
}

/// Fig. 9 on a cycle: `pair(a, b)`'s sources `n(a)` and `n(b)` are both
/// sources of `pair(b, a)`, so the deletion has no safe source under
/// either policy.
#[test]
fn a_self_join_cycle_has_no_safe_source() {
    for policy in [SideEffectPolicy::Abort, SideEffectPolicy::Proceed] {
        let mut sys = chain(&[("a", "b"), ("b", "a")]);
        let delete = XmlUpdate::delete("pair[l=a]").expect("path parses");
        let err = sys.apply(&delete, policy).expect_err("no safe source");
        assert!(
            matches!(
                err,
                UpdateError::Delete(DeleteRejection::NoSafeSource { .. })
            ),
            "{policy:?}: {err}"
        );
        sys.consistency_check().expect("a rejection writes nothing");
    }
}

/// §4.3 phase 2 on a self-join, where one template set covers both
/// occurrences of `n`: `pair(z, a)` needs the new row `n(z, a)`, which
/// joins the existing `n(a, b)` through `y` — the pair asked for — and
/// through `x` nothing (no row points at `z`), so it is side-effect free.
#[test]
fn a_self_join_insertion_joining_only_its_own_pair_is_accepted() {
    for policy in [SideEffectPolicy::Abort, SideEffectPolicy::Proceed] {
        let mut sys = chain(&[("a", "b"), ("b", "c")]);
        let insert =
            XmlUpdate::insert("pair", Tuple::from_values(["z", "a"].map(Value::from)), ".")
                .expect("path parses");
        let report = sys
            .apply(&insert, policy)
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        let mut want = GroupUpdate::new();
        want.insert("n", Tuple::from_values(["z", "a"].map(Value::from)));
        assert_eq!(report.delta_r, want, "{policy:?}");
        sys.consistency_check()
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
    }
}

/// §4.3 phase 2 on a self-join: `pair(c, a)` needs the new row `n(c, a)`,
/// and the existing `n(b, c)` joins it through the other occurrence, `y`,
/// into `pair(b, c)`, which nobody asked for and no instantiation avoids.
#[test]
fn a_self_join_insertion_joining_an_existing_row_through_the_other_occurrence_is_rejected() {
    for policy in [SideEffectPolicy::Abort, SideEffectPolicy::Proceed] {
        let mut sys = chain(&[("a", "b"), ("b", "c")]);
        let insert =
            XmlUpdate::insert("pair", Tuple::from_values(["c", "a"].map(Value::from)), ".")
                .expect("path parses");
        let err = sys
            .apply(&insert, policy)
            .expect_err("pair(b, c) is a side effect");
        assert!(
            matches!(err, UpdateError::Insert(InsertRejection::SideEffect { .. })),
            "{policy:?}: {err}"
        );
        sys.consistency_check()
            .unwrap_or_else(|e| panic!("{policy:?}: a rejection writes nothing: {e}"));
    }
}

/// Algorithm delete (Fig. 9) over the reference's safety test: per deleted
/// edge in order, the first candidate source that test finds safe, or
/// `NoSafeSource`.
fn fig9_reference(
    vs: &ViewStore,
    base: &Database,
    delta: &ViewDelta,
) -> Result<GroupUpdate, DeleteRejection> {
    let provider = vs.atg().augmented_schemas();
    let deleted = delta.deletes.iter().copied().collect();
    let genid = vs.dag().genid();
    let mut out = GroupUpdate::new();
    for &(u, v) in &delta.deletes {
        let q = vs
            .atg()
            .edge_view_query(genid.type_of(u), genid.type_of(v), &provider)
            .expect("the fixtures delete query edges");
        let row = genid.gen_row(u).concat(genid.attr_of(v));
        let sources = closure_source_keys(&q, &provider, &row, &[0])
            .expect("arity-correct row over known tables")
            .expect("the fixtures' edge views are key-preserving");
        let mut safe = sources
            .into_iter()
            .filter(|sr| source_is_safe(vs, base, sr, &deleted).expect("views evaluate"));
        match safe.next() {
            Some(sr) => out.delete(sr.table, sr.key),
            None => {
                return Err(DeleteRejection::NoSafeSource {
                    view: q.name().to_owned(),
                    tuple: row.to_string(),
                })
            }
        }
    }
    Ok(out)
}

/// Production's Algorithm delete equals [`fig9_reference`] on `update`'s
/// ∆V in `sys`'s current state; `tally` counts (accepted, rejected).
fn check_deletion(sys: &XmlViewSystem, update: &XmlUpdate, tally: &mut (usize, usize)) {
    let delta = xdelete(&sys.evaluate(update.path()));
    if delta.deletes.is_empty() {
        return;
    }
    let got = translate_deletions(sys.view(), sys.base(), &delta);
    let want = fig9_reference(sys.view(), sys.base(), &delta);
    assert_eq!(got, want, "`{}`", update.path());
    match got {
        Ok(_) => tally.0 += 1,
        Err(_) => tally.1 += 1,
    }
}

/// Fig. 9's verdicts (ARCHITECTURE §1, the §4.2 row): production's bound
/// probes choose the source — or reject — exactly as the safety test read
/// off the whole view does, on the registrar deletions, on synthetic W1–W3
/// deletion streams and on self-joins (chains, a cycle, a self-loop).
#[test]
fn algorithm_delete_equals_the_transcribed_safety_test() {
    let mut tally = (0, 0);
    let registrar = registrar();
    for phrasing in 0..3 {
        for a in 0..6 {
            for b in 0..4 {
                let ops = [
                    Op::DeletePrereq {
                        parent: a % 4,
                        child: b,
                    },
                    Op::DeleteStudentEverywhere { ssn: a },
                    Op::DeleteStudentOf { ssn: a, course: b },
                ];
                for op in &ops {
                    if let Some(u) = registrar_update(op, phrasing) {
                        check_deletion(&registrar, &u, &mut tally);
                    }
                }
            }
        }
    }
    for (cno, _) in COURSES {
        let u = XmlUpdate::delete(&format!("course[cno={cno}]")).expect("path parses");
        check_deletion(&registrar, &u, &mut tally);
    }
    for seed in 0..4 {
        let mut sys = synthetic(240, seed);
        for u in mixed_updates(&sys, seed, &[false; 12]) {
            check_deletion(&sys, &u, &mut tally);
            let _ = sys.apply(&u, SideEffectPolicy::Proceed);
        }
    }
    let chains: [&[(&str, &str)]; 3] = [
        &[("a", "b"), ("b", "c"), ("c", "z")],
        &[("a", "b"), ("b", "a")],
        &[("a", "b"), ("b", "c"), ("c", "a"), ("d", "d"), ("e", "b")],
    ];
    for links in chains {
        let sys = chain(links);
        for id in ["a", "b", "c", "d", "e"] {
            for path in [format!("pair[l={id}]"), format!("pair[r={id}]")] {
                let u = XmlUpdate::delete(&path).expect("path parses");
                check_deletion(&sys, &u, &mut tally);
            }
        }
        check_deletion(
            &sys,
            &XmlUpdate::delete("pair").expect("parses"),
            &mut tally,
        );
    }
    assert!(tally.0 > 0 && tally.1 > 0, "accepted, rejected: {tally:?}");
}
