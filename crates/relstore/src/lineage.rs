//! Deletable sources (§4.2): lineage extraction under key preservation.
//!
//! For a key-preserving SPJ view `V_Q = Q(I)` and a view tuple `t`, key
//! preservation lets us identify, for each FROM entry `Sⱼ`, the *unique* base
//! tuple `tⱼ` whose key appears in `t` such that `t₁,…,tₗ` produce `t` via
//! `Q`. The set of pairs `(Sⱼ, tⱼ)` is `Sr(Q,t)`, the *deletable source* of
//! `t` in `V_Q`: deleting any `tⱼ` from `Sⱼ` removes `t` from the view.

use crate::database::Database;
use crate::error::{RelError, RelResult};
use crate::spj::{SchemaProvider, SpjQuery};
use crate::tuple::Tuple;

/// One element of `Sr(Q,t)`: a base table and the key of the source tuple.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceRef {
    /// Base table name.
    pub table: String,
    /// Primary key of the contributing tuple in that table.
    pub key: Tuple,
}

/// Computes the deletable source `Sr(Q,t)` of view tuple `t`.
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
    if t.arity() != query.out_arity() {
        return Err(RelError::ArityMismatch {
            table: query.name().into(),
            expected: query.out_arity(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_spj;
    use crate::schema::schema;
    use crate::tuple;

    fn db() -> Database {
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
        let db = db();
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
        let db = db();
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
        let db = db();
        let q = kp_query(&db);
        assert!(matches!(
            deletable_source(&q, &db, &tuple!["x"]),
            Err(RelError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn self_join_sources_deduplicated_when_keys_coincide() {
        let db = db();
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
}
