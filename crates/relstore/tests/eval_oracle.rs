//! Property test: the compiled SPJ evaluator — its key-prefix, column-index
//! and scan access paths, whatever join order it picks — must agree with a
//! naive materialize-the-cross-product reference implementation on random
//! databases and random queries: key and non-key joins, self-joins,
//! predicates over constants and parameters only. The reference is the
//! evaluator's only oracle.

use proptest::prelude::*;
use rxview_relstore::{
    eval_spj, schema, ColRef, Database, EqPred, Operand, RelError, SpjPlan, SpjQuery, TableRef,
    Tuple, Value,
};
use std::collections::BTreeSet;

/// Small random database: r1(a,b,c) key a; r2(d,e) key (d,e).
fn build_db(r1: &[(i64, i64, i64)], r2: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.create_table(
        schema("r1")
            .col_int("a")
            .col_int("b")
            .col_int("c")
            .key(&["a"]),
    )
    .unwrap();
    db.create_table(schema("r2").col_int("d").col_int("e").key(&["d", "e"]))
        .unwrap();
    let mut seen = BTreeSet::new();
    for &(a, b, c) in r1 {
        if seen.insert(a) {
            db.insert(
                "r1",
                Tuple::from_values([Value::Int(a), Value::Int(b), Value::Int(c)]),
            )
            .unwrap();
        }
    }
    let mut seen2 = BTreeSet::new();
    for &(d, e) in r2 {
        if seen2.insert((d, e)) {
            db.insert("r2", Tuple::from_values([Value::Int(d), Value::Int(e)]))
                .unwrap();
        }
    }
    db
}

/// Naive reference: nested loops over the cross product, then filter and
/// project with set semantics.
fn naive_eval(db: &Database, q: &SpjQuery, params: &[Value]) -> Vec<Tuple> {
    let tables: Vec<Vec<Tuple>> = q
        .from()
        .iter()
        .map(|tr| db.table(&tr.table).unwrap().iter().cloned().collect())
        .collect();
    let mut offsets = Vec::new();
    let mut width = 0;
    for tr in q.from() {
        offsets.push(width);
        width += db.table(&tr.table).unwrap().schema().arity();
    }
    let mut out: BTreeSet<Tuple> = BTreeSet::new();
    // Generic k-way nested loop via index vector.
    let mut idxs = vec![0usize; tables.len()];
    if tables.iter().any(|t| t.is_empty()) {
        return Vec::new();
    }
    loop {
        // Materialize the row.
        let mut row: Vec<Value> = Vec::with_capacity(width);
        for (ti, t) in tables.iter().enumerate() {
            row.extend(t[idxs[ti]].values().iter().cloned());
        }
        let value_of = |o: &Operand| -> Value {
            match o {
                Operand::Col(ColRef { rel, col }) => row[offsets[*rel] + col].clone(),
                Operand::Const(v) => v.clone(),
                Operand::Param(i) => params[*i].clone(),
            }
        };
        if q.predicates()
            .iter()
            .all(|EqPred { left, right }| value_of(left) == value_of(right))
        {
            out.insert(Tuple::from_values(
                q.projection()
                    .iter()
                    .map(|c| row[offsets[c.rel] + c.col].clone()),
            ));
        }
        // Advance odometer.
        let mut k = tables.len();
        loop {
            if k == 0 {
                return out.into_iter().collect();
            }
            k -= 1;
            idxs[k] += 1;
            if idxs[k] < tables[k].len() {
                break;
            }
            idxs[k] = 0;
        }
    }
}

fn arb_operand(max_param: usize) -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0usize..2, 0usize..2).prop_map(|(rel, col)| Operand::Col(ColRef { rel, col })),
        (-2i64..5).prop_map(|v| Operand::Const(Value::Int(v))),
        (0..max_param).prop_map(Operand::Param),
    ]
}

/// An operand of a query over `n_from` entries: mostly columns (of any
/// entry, any position — clamped to the entry's arity by the caller).
fn arb_operand_over(n_from: usize) -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0..n_from, 0usize..3).prop_map(|(rel, col)| Operand::Col(ColRef { rel, col })),
        (0..n_from, 0usize..3).prop_map(|(rel, col)| Operand::Col(ColRef { rel, col })),
        (-2i64..5).prop_map(|v| Operand::Const(Value::Int(v))),
        (0usize..2).prop_map(Operand::Param),
    ]
}

/// The tables a FROM list of up to three entries draws from — repeats are
/// self-joins.
const FROM_LISTS: [&[&str]; 6] = [
    &["r1", "r1"],
    &["r2", "r2"],
    &["r2", "r1"],
    &["r1", "r2", "r1"],
    &["r2", "r1", "r2"],
    &["r2", "r2", "r2"],
];

fn arity_of(table: &str) -> usize {
    if table == "r1" {
        3
    } else {
        2
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn evaluator_matches_naive_reference(
        r1 in prop::collection::vec((-2i64..5, -2i64..5, -2i64..5), 0..8),
        r2 in prop::collection::vec((-2i64..5, -2i64..5), 0..8),
        preds in prop::collection::vec((arb_operand(1), arb_operand(1)), 0..4),
        proj in prop::collection::vec((0usize..2, 0usize..2), 1..4),
        param in -2i64..5,
    ) {
        let db = build_db(&r1, &r2);
        // Clamp column indices to each table's arity.
        let clamp = |c: ColRef| ColRef { rel: c.rel, col: if c.rel == 0 { c.col.min(2) } else { c.col.min(1) } };
        let predicates: Vec<EqPred> = preds
            .into_iter()
            .map(|(l, r)| {
                let fix = |o: Operand| match o {
                    Operand::Col(c) => Operand::Col(clamp(c)),
                    other => other,
                };
                EqPred { left: fix(l), right: fix(r) }
            })
            .collect();
        let projection: Vec<ColRef> =
            proj.into_iter().map(|(rel, col)| clamp(ColRef { rel, col })).collect();
        let out_names = (0..projection.len()).map(|i| format!("o{i}")).collect();
        let q = SpjQuery::from_parts(
            "prop",
            vec![
                TableRef { table: "r1".into(), alias: "x".into() },
                TableRef { table: "r2".into(), alias: "y".into() },
            ],
            predicates,
            projection,
            out_names,
            1,
            &db,
        )
        .expect("query is well-formed by construction");
        let params = [Value::Int(param)];
        let fast = eval_spj(&db, &q, &params).expect("evaluates");
        let slow = naive_eval(&db, &q, &params);
        prop_assert_eq!(fast, slow);
    }

    /// Two- and three-way joins with self-joins, joins on non-key columns
    /// (`r1.b`, `r1.c`, `r2.e` alone — the column-index path), and guards
    /// over two parameters; one compiled plan run on two parameter vectors.
    #[test]
    fn compiled_plan_matches_naive_reference_on_self_and_non_key_joins(
        r1 in prop::collection::vec((-2i64..5, -2i64..5, -2i64..5), 0..7),
        r2 in prop::collection::vec((-2i64..5, -2i64..5), 0..9),
        from in 0usize..FROM_LISTS.len(),
        preds in prop::collection::vec((arb_operand_over(3), arb_operand_over(3)), 0..5),
        proj in prop::collection::vec((0usize..3, 0usize..3), 1..4),
        params in prop::collection::vec((-2i64..5, -2i64..5), 2..=2),
    ) {
        let db = build_db(&r1, &r2);
        let tables = FROM_LISTS[from];
        let clamp = |c: ColRef| {
            let rel = c.rel.min(tables.len() - 1);
            ColRef { rel, col: c.col.min(arity_of(tables[rel]) - 1) }
        };
        let fix = |o: Operand| match o {
            Operand::Col(c) => Operand::Col(clamp(c)),
            other => other,
        };
        let predicates: Vec<EqPred> = preds
            .into_iter()
            .map(|(l, r)| EqPred { left: fix(l), right: fix(r) })
            .collect();
        let projection: Vec<ColRef> =
            proj.into_iter().map(|(rel, col)| clamp(ColRef { rel, col })).collect();
        let out_names = (0..projection.len()).map(|i| format!("o{i}")).collect();
        let from = tables
            .iter()
            .enumerate()
            .map(|(i, t)| TableRef { table: (*t).into(), alias: format!("t{i}") })
            .collect();
        let q = SpjQuery::from_parts("prop", from, predicates, projection, out_names, 2, &db)
            .expect("query is well-formed by construction");
        let plan = SpjPlan::compile(&q, &db).expect("compiles");
        for (p0, p1) in params {
            let params = [Value::Int(p0), Value::Int(p1)];
            let fast = plan.run(&db, &params).expect("runs");
            prop_assert_eq!(&fast, &naive_eval(&db, &q, &params));
            prop_assert_eq!(fast, eval_spj(&db, &q, &params).expect("evaluates"));
        }
    }
}

fn query(
    db: &Database,
    from: &[&str],
    predicates: Vec<EqPred>,
    projection: Vec<ColRef>,
    n_params: usize,
) -> SpjQuery {
    let from = from
        .iter()
        .enumerate()
        .map(|(i, t)| TableRef {
            table: (*t).into(),
            alias: format!("t{i}"),
        })
        .collect();
    let out_names = (0..projection.len()).map(|i| format!("o{i}")).collect();
    SpjQuery::from_parts("q", from, predicates, projection, out_names, n_params, db)
        .expect("well-formed")
}

fn col(rel: usize, col: usize) -> Operand {
    Operand::Col(ColRef { rel, col })
}

fn int(v: i64) -> Operand {
    Operand::Const(Value::Int(v))
}

fn eq(left: Operand, right: Operand) -> EqPred {
    EqPred { left, right }
}

#[test]
fn predicates_without_columns_gate_the_whole_result() {
    let db = build_db(&[(1, 2, 3), (2, 2, 4)], &[(1, 2), (2, 2)]);
    let proj = vec![ColRef { rel: 0, col: 0 }];
    let all = vec![
        Tuple::from_values([Value::Int(1)]),
        Tuple::from_values([Value::Int(2)]),
    ];

    // Constant against constant: decided when the plan is compiled.
    let q = query(&db, &["r1"], vec![eq(int(1), int(1))], proj.clone(), 0);
    assert_eq!(eval_spj(&db, &q, &[]).unwrap(), all);
    let q = query(&db, &["r1"], vec![eq(int(1), int(2))], proj.clone(), 0);
    assert!(eval_spj(&db, &q, &[]).unwrap().is_empty());
    // ... also when another predicate would have matched rows.
    let preds = vec![eq(col(0, 1), int(2)), eq(int(0), int(3))];
    let q = query(&db, &["r1"], preds, proj.clone(), 0);
    assert_eq!(eval_spj(&db, &q, &[]).unwrap(), naive_eval(&db, &q, &[]));

    // Parameter against constant or parameter: decided per run.
    let preds = vec![
        eq(Operand::Param(0), int(7)),
        eq(Operand::Param(1), Operand::Param(0)),
    ];
    let q = query(&db, &["r1"], preds, proj, 2);
    let plan = SpjPlan::compile(&q, &db).unwrap();
    let run = |a: i64, b: i64| plan.run(&db, &[Value::Int(a), Value::Int(b)]).unwrap();
    assert_eq!(run(7, 7), all);
    assert!(run(7, 8).is_empty());
    assert!(run(6, 6).is_empty());
}

#[test]
fn unbound_parameters_are_errors_not_panics() {
    let db = build_db(&[(1, 2, 3)], &[(1, 2)]);
    let proj = vec![ColRef { rel: 0, col: 0 }];
    let q = query(
        &db,
        &["r1"],
        vec![eq(col(0, 0), Operand::Param(1))],
        proj.clone(),
        2,
    );
    // Too few bindings: the first missing index is reported, whichever
    // parameters the predicates mention.
    assert_eq!(eval_spj(&db, &q, &[]), Err(RelError::UnboundParam(0)));
    assert_eq!(
        eval_spj(&db, &q, &[Value::Int(1)]),
        Err(RelError::UnboundParam(1))
    );
    let plan = SpjPlan::compile(&q, &db).unwrap();
    assert_eq!(
        plan.run(&db, &[Value::Int(1)]),
        Err(RelError::UnboundParam(1))
    );
    assert_eq!(
        plan.run(&db, &[Value::Int(0), Value::Int(1)])
            .unwrap()
            .len(),
        1
    );

    // A predicate naming a parameter the query does not declare never
    // compiles.
    let undeclared = SpjQuery::from_parts(
        "q",
        vec![TableRef {
            table: "r1".into(),
            alias: "x".into(),
        }],
        vec![eq(col(0, 0), Operand::Param(2))],
        proj,
        vec!["o".into()],
        2,
        &db,
    );
    assert_eq!(undeclared.err(), Some(RelError::UnboundParam(2)));
}

#[test]
fn a_plan_refuses_tables_of_another_shape() {
    let db = build_db(&[(1, 2, 3)], &[(1, 2)]);
    let q = query(&db, &["r2"], vec![], vec![ColRef { rel: 0, col: 1 }], 0);
    let plan = SpjPlan::compile(&q, &db).unwrap();
    assert_eq!(plan.run(&db, &[]).unwrap().len(), 1);
    let mut other = Database::new();
    other
        .create_table(schema("r2").col_int("d").key(&["d"]))
        .unwrap();
    assert!(matches!(
        plan.run(&other, &[]),
        Err(RelError::MalformedQuery(_))
    ));
    assert!(matches!(
        plan.run(&Database::new(), &[]),
        Err(RelError::UnknownTable(_))
    ));
}
