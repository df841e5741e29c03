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
//!   synthetic grammars, and of a grammar whose rule queries pin equality
//!   classes twice (so a closure can be inconsistent),
//!   [`TranslationTemplates::instantiate_insert`] equals
//!   [`compute_edge_closure`] — same closure, same rejection — and
//!   [`TranslationTemplates::source_keys`] equals [`closure_source_keys`],
//!   over random attribute tuples and output rows.

mod common;

use common::{arb_op, descendant_headed, registrar, registrar_update, synthetic};
use proptest::prelude::*;
use rxview::atg::{Atg, RuleBody};
use rxview::core::{classify, SideEffectPolicy, TranslationTemplates, XmlViewSystem};
use rxview::relstore::{schema, Database, SchemaProvider, SpjQuery, Tuple, Value, ValueType};
use rxview::workload::{
    mixed_updates, registrar_atg, registrar_database, synthetic_atg, synthetic_database,
    SyntheticConfig,
};
use rxview::xmlkit::{parse_xpath, Dtd, XPath};
use rxview_reference::{closure_source_keys, compute_edge_closure, eval_xpath_on_dag};

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
/// parameter.
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
    let q_item_part = SpjQuery::builder("Qitem_part")
        .from("P", "p")
        .where_col_eq_param(("p", "pk"), 0)
        .project(("p", "pk"), "pk")
        .project(("p", "x"), "x")
        .build(&db)
        .expect("valid query");
    let mut dtd = Dtd::builder("db");
    dtd.star("db", "item").expect("fresh builder");
    dtd.star("item", "part").expect("fresh builder");
    dtd.empty("part").expect("fresh builder");
    let mut b = Atg::builder(dtd.build().expect("valid DTD"));
    b.attr("db", &[])
        .attr("item", &["k", "w", "f"])
        .attr("part", &["pk", "x"]);
    b.rule_query("db", "item", q_db_item, &[])
        .rule_query("item", "part", q_item_part, &["k"]);
    let atg = b.build(&db).expect("valid ATG");
    (db, atg)
}

fn grammars() -> Vec<(&'static str, Database, Atg)> {
    let registrar_db = registrar_database();
    let registrar = registrar_atg(&registrar_db).expect("valid ATG");
    let synthetic_db = synthetic_database(&SyntheticConfig::with_size(40));
    let synthetic = synthetic_atg(&synthetic_db).expect("valid ATG");
    let (twice_db, twice) = twice_pinned_grammar();
    vec![
        ("registrar", registrar_db, registrar),
        ("synthetic", synthetic_db, synthetic),
        ("twice-pinned", twice_db, twice),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Insert side: the compiled skeleton instantiated with a pair of
    /// attribute tuples is the closure the interpretive derivation computes
    /// for them, or the same rejection.
    #[test]
    fn instantiate_insert_matches_compute_edge_closure(
        picks in prop::collection::vec(any::<u8>(), 16..48),
    ) {
        let (mut accepted, mut rejected) = (0, 0);
        for (name, db, atg) in grammars() {
            let compiled = TranslationTemplates::compile(&atg);
            let mut picks = picks.iter().copied().cycle();
            for a in atg.dtd().types() {
                for &b in atg.dtd().children_of(a) {
                    let Some(RuleBody::Query { query, param_fields, .. }) = atg.rule(a, b) else {
                        continue;
                    };
                    let schemas: Vec<_> = query
                        .from()
                        .iter()
                        .map(|tr| db.schema_of(&tr.table).expect("FROM table known"))
                        .collect();
                    for _ in 0..6 {
                        let parent = small_tuple(atg.attr_types(a), &mut picks);
                        let child = small_tuple(atg.attr_types(b), &mut picks);
                        let want =
                            compute_edge_closure(&schemas, query, param_fields, &parent, &child);
                        let got = compiled.instantiate_insert((a, b), &parent, &child);
                        prop_assert_eq!(
                            got.as_ref().map(|c| (c.classes(), c.known())),
                            want.as_ref().map(|c| (&c.classes, &c.known)),
                            "{}: edge {:?}->{:?}, parent {}, child {}", name, a, b, parent, child
                        );
                        match got {
                            Ok(_) => accepted += 1,
                            Err(_) => rejected += 1,
                        }
                    }
                }
            }
        }
        prop_assert!(accepted > 0, "no consistent closure drawn");
        prop_assert!(rejected > 0, "no inconsistent closure drawn");
    }

    /// Delete side: the compiled source program run on an output row names
    /// the sources the interpretive derivation reconstructs from it — and
    /// is `None` exactly when that returns `Ok(None)`.
    #[test]
    fn delete_program_matches_interpretive_sources(
        picks in prop::collection::vec(any::<u8>(), 16..48),
    ) {
        let mut instantiated = 0;
        for (name, _db, atg) in grammars() {
            let compiled = TranslationTemplates::compile(&atg);
            let provider = atg.augmented_schemas();
            let mut picks = picks.iter().copied().cycle();
            for a in atg.dtd().types() {
                for &b in atg.dtd().children_of(a) {
                    let Some(q) = atg.edge_view_query(a, b) else {
                        continue;
                    };
                    // `$A` fields (a unit column when `$A` is empty) ++ `$B`.
                    let unit = [ValueType::Int];
                    let parent_types = match atg.attr_types(a) {
                        [] => &unit[..],
                        types => types,
                    };
                    for _ in 0..4 {
                        let out = small_tuple(parent_types, &mut picks)
                            .concat(&small_tuple(atg.attr_types(b), &mut picks));
                        let want = closure_source_keys(&q, &provider, &out, &[0])
                            .expect("arity-correct row over known tables");
                        let got = compiled.source_keys((a, b), &out);
                        prop_assert_eq!(
                            &got, &want,
                            "{}: edge {:?}->{:?}, row {}", name, a, b, out
                        );
                        instantiated += usize::from(got.is_some());
                    }
                }
            }
        }
        prop_assert!(instantiated > 0, "no key-preserving edge view exercised");
    }
}
