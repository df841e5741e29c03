//! Deletable sources through the equality closure (§4.2, Fig. 9), derived
//! interpretively: the specification `TranslationTemplates::source_keys`
//! (the compiled candidate-source program every deletion runs) is held
//! equal to (`tests/reference_oracles.rs`). It keeps its own union-find;
//! production derives classes once per query (`SpjQuery::eq_closure`).

use rxview_relstore::{
    ColRef, Operand, RelError, RelResult, SchemaProvider, SourceRef, SpjQuery, Tuple, Value,
};
use std::collections::HashMap;

/// Computes source keys for a view tuple via the *equality closure* of the
/// query's predicates.
///
/// [`rxview_relstore::deletable_source`] requires every base-table key
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
    if out.arity() != query.out_arity() {
        return Err(RelError::ArityMismatch {
            table: query.name().into(),
            expected: query.out_arity(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_relstore::{schema, tuple, Database};

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
}
