//! §4.2 as specifications. [`deletable_source`] is `Sr(Q,t)` read off a
//! key-preserving view's projection. [`closure_source_keys`] derives
//! deletable sources through the equality closure (Fig. 9) interpretively: the specification
//! `EdgeRecord::source_keys` (the edge view's cell program, as every
//! deletion runs it) is held equal to
//! (`tests/reference_oracles.rs`). It keeps its own union-find; production
//! derives classes once per query (`SpjQuery::eq_closure`).
//! [`source_is_safe`] is Fig. 9's safety test read off the whole view, and
//! [`translate_deletions_minimal`] is Theorem 3's minimal view deletion as a
//! greedy set cover over the sources it finds safe; production translates
//! with Algorithm delete alone (`rxview_core::translate_deletions`), whose
//! bound probes `tests/reference_oracles.rs` holds to this test.

use rxview_atg::NodeId;
use rxview_core::{DeleteRejection, ViewDelta, ViewStore};
use rxview_relstore::{
    eval_spj, ColRef, Database, GroupUpdate, Operand, RelError, RelResult, SchemaProvider,
    SpjQuery, Tuple, Value,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One element of `Sr(Q,t)` (§4.2), the *deletable source* of a view row
/// `t`: a base table and the key of the tuple that contributes to `t`.
/// Deleting that tuple removes `t` from the view.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceRef {
    /// Base table name.
    pub table: String,
    /// Primary key of the contributing tuple in that table.
    pub key: Tuple,
}

/// Computes the deletable source `Sr(Q,t)` of view tuple `t` of a
/// key-preserving SPJ view `V_Q = Q(I)`: for each FROM entry `Sⱼ`, key
/// preservation identifies the *unique* base tuple `tⱼ` whose key appears in
/// `t` such that `t₁,…,tₗ` produce `t` via `Q`. Deleting any `tⱼ` from `Sⱼ`
/// removes `t` from the view.
///
/// Distinct FROM entries referring to the same base table (self-joins) yield
/// one [`SourceRef`] each; duplicates (same table, same key) are collapsed,
/// since deleting the base tuple once removes every copy.
pub fn deletable_source(
    query: &SpjQuery,
    provider: &impl SchemaProvider,
    t: &Tuple,
) -> RelResult<Vec<SourceRef>> {
    let positions =
        query
            .source_key_positions(provider)?
            .ok_or_else(|| RelError::NotKeyPreserving {
                query: query.name().into(),
            })?;
    if t.arity() != query.projection().len() {
        return Err(RelError::ArityMismatch {
            table: query.name().into(),
            expected: query.projection().len(),
            got: t.arity(),
        });
    }
    let mut out: Vec<SourceRef> = Vec::with_capacity(positions.len());
    for (rel, pos) in positions.iter().enumerate() {
        let sr = SourceRef {
            table: query.from()[rel].table.clone(),
            key: Tuple::from_values(pos.iter().map(|&p| t[p].clone())),
        };
        if !out.contains(&sr) {
            out.push(sr);
        }
    }
    Ok(out)
}

/// Resolves a [`SourceRef`] to the full base tuple, if it still exists.
pub fn resolve_source<'a>(db: &'a Database, sr: &SourceRef) -> RelResult<Option<&'a Tuple>> {
    Ok(db.table(&sr.table)?.get(&sr.key))
}

/// Computes source keys for a view tuple via the *equality closure* of the
/// query's predicates.
///
/// [`deletable_source`] requires every base-table key
/// column to appear in the projection verbatim. Edge views (§2.3) often
/// determine key columns *indirectly*: a key column may be equated
/// (through a chain of equality predicates) to a projected column or to a
/// constant — e.g. in
/// `Q_edge_takenBy_student`, `enroll.cno` equals the projected `gen_takenBy`
/// attribute and `enroll.ssn` equals the projected `student.ssn`. This
/// function propagates values through equality classes and returns, for each
/// FROM entry not in `skip_rels`, the reconstructed primary key — or `None`
/// if some key column's value cannot be determined (the view is not
/// key-preserving in the generalized sense).
///
/// `skip_rels` lists FROM positions to exclude (derived relations such as
/// `gen_A`, which are not base tables and are maintained separately, §2.3).
pub fn closure_source_keys(
    query: &SpjQuery,
    provider: &impl SchemaProvider,
    out: &Tuple,
    skip_rels: &[usize],
) -> RelResult<Option<Vec<SourceRef>>> {
    if out.arity() != query.projection().len() {
        return Err(RelError::ArityMismatch {
            table: query.name().into(),
            expected: query.projection().len(),
            got: out.arity(),
        });
    }

    // Union-find over (rel, col) nodes.
    let mut arity_offsets: Vec<usize> = Vec::with_capacity(query.from().len());
    let mut total = 0usize;
    for tr in query.from() {
        arity_offsets.push(total);
        let schema = provider
            .schema_of(&tr.table)
            .ok_or_else(|| RelError::UnknownTable(tr.table.clone()))?;
        total += schema.arity();
    }
    let idx = |c: ColRef| arity_offsets[c.rel] + c.col;
    let mut parent: Vec<usize> = (0..total).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    // Union columns linked by Col=Col predicates.
    for p in query.predicates() {
        if let (Operand::Col(a), Operand::Col(b)) = (&p.left, &p.right) {
            let (ra, rb) = (find(&mut parent, idx(*a)), find(&mut parent, idx(*b)));
            parent[ra] = rb;
        }
    }
    // Known values: projected columns and Col=Const predicates.
    let mut values: HashMap<usize, Value> = HashMap::new();
    let mut assign = |parent: &mut [usize], c: ColRef, v: Value| {
        let r = find(parent, idx(c));
        values.entry(r).or_insert(v);
    };
    for (pos, c) in query.projection().iter().enumerate() {
        assign(&mut parent, *c, out[pos].clone());
    }
    for p in query.predicates() {
        match (&p.left, &p.right) {
            (Operand::Col(c), Operand::Const(v)) | (Operand::Const(v), Operand::Col(c)) => {
                assign(&mut parent, *c, v.clone());
            }
            _ => {}
        }
    }
    // Reconstruct keys.
    let mut result: Vec<SourceRef> = Vec::new();
    for (rel, tr) in query.from().iter().enumerate() {
        if skip_rels.contains(&rel) {
            continue;
        }
        let schema = provider.schema_of(&tr.table).expect("checked above");
        let mut key_vals = Vec::with_capacity(schema.key().len());
        for &kc in schema.key() {
            let root = find(&mut parent, idx(ColRef { rel, col: kc }));
            match values.get(&root) {
                Some(v) => key_vals.push(v.clone()),
                None => return Ok(None),
            }
        }
        let sr = SourceRef {
            table: tr.table.clone(),
            key: Tuple::from_values(key_vals),
        };
        if !result.contains(&sr) {
            result.push(sr);
        }
    }
    Ok(Some(result))
}

/// Fig. 9's safety test, transcribed: a source `(S, k)` is safe for the
/// group deletion `deleted` iff no live edge outside it has `(S, k)` in its
/// deletable source. Every edge view whose FROM mentions `S` is evaluated
/// in full over the augmented database, its projection extended by each
/// FROM entry's key (§4.1's repair, [`SpjQuery::make_key_preserving`]), so
/// that [`deletable_source`] reads `Sr(Q, t)` off each row.
pub fn source_is_safe(
    vs: &ViewStore,
    base: &Database,
    sr: &SourceRef,
    deleted: &BTreeSet<(NodeId, NodeId)>,
) -> RelResult<bool> {
    let (aug, atg) = (vs.augmented(base), vs.atg());
    let provider = atg.augmented_schemas();
    for a in atg.dtd().types() {
        for &b in atg.dtd().children_of(a) {
            let Some(mut q) = atg.edge_view_query(a, b, &provider) else {
                continue;
            };
            if q.from().iter().all(|tr| tr.table != sr.table) {
                continue;
            }
            let arity = q.projection().len();
            q.make_key_preserving(&aug)?;
            for row in eval_spj(&aug, &q, &[])? {
                if !deletable_source(&q, &aug, &row)?.contains(sr) {
                    continue;
                }
                if vs
                    .edge_from_row(a, b, &row.values()[..arity])
                    .is_some_and(|edge| !deleted.contains(&edge))
                {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// The *minimal view deletion* problem (§4.2): find the smallest `∆R`.
/// NP-complete even under key preservation (Theorem 3, by reduction from
/// minimal set cover), so this is a greedy set-cover heuristic: it
/// repeatedly deletes the safe source that covers the most not-yet-covered
/// view deletions. Always returns a `∆R` at most as large as
/// [`rxview_core::translate_deletions`]'s (and often smaller when one base
/// tuple, e.g. a `student` row, underlies many deleted edges).
pub fn translate_deletions_minimal(
    vs: &ViewStore,
    base: &Database,
    delta: &ViewDelta,
) -> Result<GroupUpdate, DeleteRejection> {
    let provider = vs.atg().augmented_schemas();
    let deleted: BTreeSet<(NodeId, NodeId)> = delta.deletes.iter().copied().collect();

    // Safe-source candidates per deleted edge.
    let mut verdict: BTreeMap<SourceRef, bool> = BTreeMap::new();
    let mut safe_sources_of: Vec<(usize, Vec<SourceRef>)> = Vec::new();
    for (i, &(u, v)) in delta.deletes.iter().enumerate() {
        let a = vs.dag().genid().type_of(u);
        let b = vs.dag().genid().type_of(v);
        let Some(q) = vs.atg().edge_view_query(a, b, &provider) else {
            return Err(DeleteRejection::NotDeletable {
                view: format!("edge_{}_{}", vs.atg().dtd().name(a), vs.atg().dtd().name(b)),
            });
        };
        if q.from().len() <= 1 {
            return Err(DeleteRejection::NotDeletable {
                view: q.name().to_owned(),
            });
        }
        let row = vs
            .dag()
            .genid()
            .gen_row(u)
            .concat(vs.dag().genid().attr_of(v));
        let sources = closure_source_keys(&q, &provider, &row, &[0])?.ok_or_else(|| {
            DeleteRejection::Rel(RelError::NotKeyPreserving {
                query: q.name().to_owned(),
            })
        })?;
        let mut safe = Vec::new();
        for sr in sources {
            let ok = match verdict.get(&sr) {
                Some(&ok) => ok,
                None => {
                    let ok = source_is_safe(vs, base, &sr, &deleted)?;
                    verdict.insert(sr.clone(), ok);
                    ok
                }
            };
            if ok {
                safe.push(sr);
            }
        }
        if safe.is_empty() {
            return Err(DeleteRejection::NoSafeSource {
                view: q.name().to_owned(),
                tuple: row.to_string(),
            });
        }
        safe_sources_of.push((i, safe));
    }

    // Greedy set cover: invert to source → covered edges.
    let mut covers: BTreeMap<SourceRef, BTreeSet<usize>> = BTreeMap::new();
    for (i, safe) in &safe_sources_of {
        for sr in safe {
            covers.entry(sr.clone()).or_default().insert(*i);
        }
    }
    let mut uncovered: BTreeSet<usize> = (0..delta.deletes.len()).collect();
    let mut out = GroupUpdate::new();
    while !uncovered.is_empty() {
        let (best, gain) = covers
            .iter()
            .map(|(sr, es)| (sr.clone(), es.intersection(&uncovered).count()))
            .max_by_key(|(sr, gain)| (*gain, std::cmp::Reverse(sr.clone())))
            .expect("every edge has a safe source");
        debug_assert!(gain > 0, "cover must make progress");
        for e in &covers[&best] {
            uncovered.remove(e);
        }
        out.delete(best.table.clone(), best.key.clone());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_xpath_on_dag;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_core::{translate_deletions, xdelete, Reachability, TopoOrder};
    use rxview_relstore::{eval_spj, schema, tuple, TupleOp};
    use rxview_xmlkit::parse_xpath;

    /// A `course` / `prereq` pair joined into a key-preserving view.
    fn lineage_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            schema("course")
                .col_str("cno")
                .col_str("title")
                .col_str("dept")
                .key(&["cno"]),
        )
        .unwrap();
        db.create_table(
            schema("prereq")
                .col_str("cno1")
                .col_str("cno2")
                .key(&["cno1", "cno2"]),
        )
        .unwrap();
        db.insert("course", tuple!["CS650", "Advanced DB", "CS"])
            .unwrap();
        db.insert("course", tuple!["CS320", "Algorithms", "CS"])
            .unwrap();
        db.insert("prereq", tuple!["CS650", "CS320"]).unwrap();
        db
    }

    fn kp_query(db: &Database) -> SpjQuery {
        let mut q = SpjQuery::builder("Q")
            .from("prereq", "p")
            .from("course", "c")
            .where_col_eq_col(("p", "cno2"), ("c", "cno"))
            .project(("c", "cno"), "cno")
            .project(("c", "title"), "title")
            .build(db)
            .unwrap();
        q.make_key_preserving(db).unwrap();
        q
    }

    #[test]
    fn sources_extracted_from_view_tuple() {
        let db = lineage_db();
        let q = kp_query(&db);
        let rows = eval_spj(&db, &q, &[]).unwrap();
        assert_eq!(rows.len(), 1);
        let srcs = deletable_source(&q, &db, &rows[0]).unwrap();
        assert_eq!(srcs.len(), 2);
        assert_eq!(
            srcs[0],
            SourceRef {
                table: "prereq".into(),
                key: tuple!["CS650", "CS320"]
            }
        );
        assert_eq!(
            srcs[1],
            SourceRef {
                table: "course".into(),
                key: tuple!["CS320"]
            }
        );
        // Both resolve to live tuples.
        for s in &srcs {
            assert!(resolve_source(&db, s).unwrap().is_some());
        }
    }

    #[test]
    fn non_key_preserving_query_rejected() {
        let db = lineage_db();
        let q = SpjQuery::builder("bad")
            .from("course", "c")
            .project(("c", "title"), "title")
            .build(&db)
            .unwrap();
        assert!(matches!(
            deletable_source(&q, &db, &tuple!["Algorithms"]),
            Err(RelError::NotKeyPreserving { .. })
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let db = lineage_db();
        let q = kp_query(&db);
        assert!(matches!(
            deletable_source(&q, &db, &tuple!["x"]),
            Err(RelError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn self_join_sources_deduplicated_when_keys_coincide() {
        let db = lineage_db();
        let q = SpjQuery::builder("self")
            .from("course", "c1")
            .from("course", "c2")
            .where_col_eq_col(("c1", "cno"), ("c2", "cno"))
            .project(("c1", "cno"), "k1")
            .project(("c2", "cno"), "k2")
            .build(&db)
            .unwrap();
        let srcs = deletable_source(&q, &db, &tuple!["CS320", "CS320"]).unwrap();
        assert_eq!(srcs.len(), 1); // same (table, key) collapses
    }

    /// The Q_edge_takenBy_student shape: the enroll key (ssn, cno) is only
    /// determined through equality with projected columns.
    fn edge_view(db: &Database) -> SpjQuery {
        SpjQuery::builder("Qedge_takenBy_student")
            .from("gen_takenBy", "gt")
            .from("enroll", "e")
            .from("student", "s")
            .where_col_eq_col(("e", "cno"), ("gt", "cno"))
            .where_col_eq_col(("e", "ssn"), ("s", "ssn"))
            .project(("gt", "cno"), "parent_cno")
            .project(("s", "ssn"), "ssn")
            .project(("s", "name"), "name")
            .build(db)
            .unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(schema("gen_takenBy").col_str("cno").key(&["cno"]))
            .unwrap();
        db.create_table(
            schema("enroll")
                .col_str("ssn")
                .col_str("cno")
                .key(&["ssn", "cno"]),
        )
        .unwrap();
        db.create_table(
            schema("student")
                .col_str("ssn")
                .col_str("name")
                .key(&["ssn"]),
        )
        .unwrap();
        db
    }

    #[test]
    fn keys_reconstructed_through_equalities() {
        let db = db();
        let q = edge_view(&db);
        // Note: plain deletable_source would fail (enroll's key not projected).
        assert!(!q.is_key_preserving(&db).unwrap());
        let out = tuple!["CS650", "S01", "Alice"];
        let srcs = closure_source_keys(&q, &db, &out, &[0]).unwrap().unwrap();
        assert_eq!(srcs.len(), 2);
        assert_eq!(
            srcs[0],
            SourceRef {
                table: "enroll".into(),
                key: tuple!["S01", "CS650"]
            }
        );
        assert_eq!(
            srcs[1],
            SourceRef {
                table: "student".into(),
                key: tuple!["S01"]
            }
        );
    }

    #[test]
    fn skip_rels_excludes_derived_tables() {
        let db = db();
        let q = edge_view(&db);
        let out = tuple!["CS650", "S01", "Alice"];
        let srcs = closure_source_keys(&q, &db, &out, &[]).unwrap().unwrap();
        assert_eq!(srcs.len(), 3); // gen_takenBy included when not skipped
        assert_eq!(srcs[0].table, "gen_takenBy");
    }

    #[test]
    fn constant_predicates_supply_key_values() {
        let mut db = Database::new();
        db.create_table(schema("t").col_str("k").col_str("v").key(&["k"]))
            .unwrap();
        let q = SpjQuery::builder("q")
            .from("t", "t")
            .where_col_eq_const(("t", "k"), "fixed")
            .project(("t", "v"), "v")
            .build(&db)
            .unwrap();
        let srcs = closure_source_keys(&q, &db, &tuple!["payload"], &[])
            .unwrap()
            .unwrap();
        assert_eq!(srcs[0].key, tuple!["fixed"]);
    }

    #[test]
    fn undeterminable_key_returns_none() {
        let mut db = Database::new();
        db.create_table(schema("t").col_str("k").col_str("v").key(&["k"]))
            .unwrap();
        let q = SpjQuery::builder("q")
            .from("t", "t")
            .project(("t", "v"), "v")
            .build(&db)
            .unwrap();
        assert!(closure_source_keys(&q, &db, &tuple!["payload"], &[])
            .unwrap()
            .is_none());
    }

    /// The registrar view, published, with `M` and `L`.
    fn registrar() -> (Database, ViewStore, TopoOrder, Reachability) {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let vs = ViewStore::publish(atg, &db).unwrap();
        let topo = TopoOrder::compute(vs.dag());
        let reach = Reachability::compute(vs.dag(), &topo);
        (db, vs, topo, reach)
    }

    fn delta_for(vs: &ViewStore, topo: &TopoOrder, reach: &Reachability, path: &str) -> ViewDelta {
        let p = parse_xpath(path).unwrap();
        xdelete(&eval_xpath_on_dag(vs, topo, reach, &p))
    }

    #[test]
    fn minimal_covers_shared_source_once() {
        let (db, vs, topo, reach) = registrar();
        // Both S02 edges share the safe source student(S02): the greedy
        // cover deletes a single base tuple where the arbitrary-choice
        // algorithm deletes two enroll tuples.
        let delta = delta_for(&vs, &topo, &reach, "//student[ssn=S02]");
        assert_eq!(delta.deletes.len(), 2);
        let arbitrary = translate_deletions(&vs, &db, &delta).unwrap();
        let minimal = translate_deletions_minimal(&vs, &db, &delta).unwrap();
        assert!(minimal.len() <= arbitrary.len());
        assert_eq!(minimal.len(), 1);
        assert_eq!(
            minimal.ops()[0],
            TupleOp::Delete {
                table: "student".into(),
                key: tuple!["S02"]
            }
        );
        // The minimal ∆R is still correct under republication.
        let mut db2 = db.clone();
        db2.apply(&minimal).unwrap();
        let atg = registrar_atg(&db2).unwrap();
        let vs2 = ViewStore::publish(atg, &db2).unwrap();
        let student = vs2.atg().dtd().type_id("student").unwrap();
        assert!(vs2
            .dag()
            .genid()
            .lookup(student, tuple!["S02", "Bob"].values())
            .is_none());
    }

    #[test]
    fn a_source_is_safe_once_every_edge_it_feeds_is_deleted() {
        let (db, vs, topo, reach) = registrar();
        // course(CS240) feeds the top-level listing and CS320's prereq.
        let sr = SourceRef {
            table: "course".into(),
            key: tuple!["CS240"],
        };
        let deleted = |path| -> BTreeSet<_> {
            let delta = delta_for(&vs, &topo, &reach, path);
            delta.deletes.into_iter().collect()
        };
        let top = deleted("course[cno=CS240]");
        assert!(!source_is_safe(&vs, &db, &sr, &top).unwrap());
        let every = deleted("//course[cno=CS240]");
        assert!(source_is_safe(&vs, &db, &sr, &every).unwrap());
    }

    #[test]
    fn minimal_rejects_when_arbitrary_rejects() {
        let (db, vs, _topo, _reach) = registrar();
        let course = vs.atg().dtd().type_id("course").unwrap();
        let root = vs.dag().root();
        let cs320 = vs
            .dag()
            .genid()
            .lookup(course, tuple!["CS320", "Algorithms"].values())
            .unwrap();
        let delta = ViewDelta {
            inserts: vec![],
            deletes: vec![(root, cs320)],
        };
        assert!(translate_deletions_minimal(&vs, &db, &delta).is_err());
    }

    #[test]
    fn minimal_equals_arbitrary_on_singletons() {
        let (db, vs, topo, reach) = registrar();
        let delta = delta_for(
            &vs,
            &topo,
            &reach,
            "course[cno=CS650]/prereq/course[cno=CS320]",
        );
        let a = translate_deletions(&vs, &db, &delta).unwrap();
        let m = translate_deletions_minimal(&vs, &db, &delta).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(m.len(), 1);
    }
}
