//! The running example of the paper: the registrar database `I₀`, DTD `D₀`,
//! and ATG `σ₀` of Example 1 / Fig.1 / Fig.2.
//!
//! Used throughout the workspace's tests, docs, and examples; the data is
//! the Fig.1 instance (CS650 → CS320 → CS240 prerequisite chain, with CS320
//! and CS240 also published as top-level courses — the shared subtrees that
//! motivate DAG compression).

use crate::grammar::{Atg, AtgError};
use rxview_relstore::{schema, Database, SpjQuery, Tuple, Value};
use rxview_xmlkit::registrar_dtd;

/// Creates the relational schema `R₀` of Example 1.
pub fn registrar_schema(db: &mut Database) {
    db.create_table(
        schema("course")
            .col_str("cno")
            .col_str("title")
            .col_str("dept")
            .key(&["cno"]),
    )
    .expect("fresh database");
    db.create_table(
        schema("project")
            .col_str("cno")
            .col_str("title")
            .col_str("dept")
            .key(&["cno"]),
    )
    .expect("fresh database");
    db.create_table(
        schema("student")
            .col_str("ssn")
            .col_str("name")
            .key(&["ssn"]),
    )
    .expect("fresh database");
    db.create_table(
        schema("enroll")
            .col_str("ssn")
            .col_str("cno")
            .key(&["ssn", "cno"]),
    )
    .expect("fresh database");
    db.create_table(
        schema("prereq")
            .col_str("cno1")
            .col_str("cno2")
            .key(&["cno1", "cno2"]),
    )
    .expect("fresh database");
}

/// Creates the registrar instance of Fig.1.
pub fn registrar_database() -> Database {
    let mut db = Database::new();
    registrar_schema(&mut db);
    let t = |vals: &[&str]| Tuple::from_values(vals.iter().map(|&v| Value::from(v)));
    for c in [
        &["CS650", "Advanced DB", "CS"][..],
        &["CS320", "Algorithms", "CS"],
        &["CS240", "Data Structures", "CS"],
        &["MA100", "Calculus", "Math"],
    ] {
        db.insert("course", t(c)).expect("valid row");
    }
    for p in [&["CS650", "CS320"][..], &["CS320", "CS240"]] {
        db.insert("prereq", t(p)).expect("valid row");
    }
    for s in [&["S01", "Alice"][..], &["S02", "Bob"]] {
        db.insert("student", t(s)).expect("valid row");
    }
    for e in [&["S01", "CS650"][..], &["S02", "CS320"], &["S02", "CS240"]] {
        db.insert("enroll", t(e)).expect("valid row");
    }
    db
}

/// Builds the ATG `σ₀` of Fig.2 over the registrar schema.
///
/// All three query rules are key-preserving in the generalized sense of
/// §4.1: e.g. in `Q_takenBy_student`, `enroll`'s key `(ssn, cno)` is
/// determined by the projected `s.ssn` (via `e.ssn = s.ssn`) and the
/// parameter `$takenBy` (via `e.cno = $takenBy`).
pub fn registrar_atg(db: &Database) -> Result<Atg, AtgError> {
    let dtd = registrar_dtd();

    let q_db_course = SpjQuery::builder("Qdb_course")
        .from("course", "c")
        .where_col_eq_const(("c", "dept"), "CS")
        .project(("c", "cno"), "cno")
        .project(("c", "title"), "title")
        .build(db)?;

    let q_prereq_course = SpjQuery::builder("Qprereq_course")
        .from("prereq", "p")
        .from("course", "c")
        .where_col_eq_param(("p", "cno1"), 0)
        .where_col_eq_col(("p", "cno2"), ("c", "cno"))
        .project(("c", "cno"), "cno")
        .project(("c", "title"), "title")
        .build(db)?;

    let q_takenby_student = SpjQuery::builder("QtakenBy_student")
        .from("enroll", "e")
        .from("student", "s")
        .where_col_eq_param(("e", "cno"), 0)
        .where_col_eq_col(("e", "ssn"), ("s", "ssn"))
        .project(("s", "ssn"), "ssn")
        .project(("s", "name"), "name")
        .build(db)?;

    let mut b = Atg::builder(dtd);
    b.attr("db", &[])
        .attr("course", &["cno", "title"])
        .attr("cno", &["cno"])
        .attr("title", &["title"])
        .attr("prereq", &["cno"])
        .attr("takenBy", &["cno"])
        .attr("student", &["ssn", "name"])
        .attr("ssn", &["ssn"])
        .attr("name", &["name"]);
    b.rule_query("db", "course", q_db_course, &[])
        .rule_project("course", "cno", &["cno"])
        .rule_project("course", "title", &["title"])
        .rule_project("course", "prereq", &["cno"])
        .rule_project("course", "takenBy", &["cno"])
        .rule_query("prereq", "course", q_prereq_course, &["cno"])
        .rule_query("takenBy", "student", q_takenby_student, &["cno"])
        .rule_project("student", "ssn", &["ssn"])
        .rule_project("student", "name", &["name"]);
    b.build(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publish::publish;
    use rxview_relstore::tuple;

    #[test]
    fn atg_builds_and_is_recursive() {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        assert!(atg.dtd().is_recursive());
        let course = atg.dtd().type_id("course").unwrap();
        assert_eq!(atg.attr_fields(course), &["cno", "title"]);
    }

    #[test]
    fn text_eq_agrees_with_the_rendered_text() {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let cno = atg.dtd().type_id("cno").unwrap();
        for attr in [
            tuple!["CS320"],
            tuple![""],
            tuple![-40i64],
            tuple![true],
            tuple!["CS", 320i64],
            tuple!["a b", "c"],
        ] {
            let text = atg.text_of(cno, &attr);
            assert!(atg.text_eq(cno, &attr, &text), "{attr}");
            for other in ["", "CS32", "CS3200", "CS 320", "-4", "tru", "a b c d", "a"] {
                assert_eq!(
                    atg.text_eq(cno, &attr, other),
                    text == other,
                    "{attr} vs `{other}`"
                );
            }
        }
    }

    #[test]
    fn publishes_fig1_dag() {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let dag = publish(&atg, &db).unwrap();
        assert!(dag.leaves_first().is_some());
        let course = atg.dtd().type_id("course").unwrap();
        // Three distinct CS course nodes, each stored once despite the
        // shared prerequisite subtrees.
        let genid = dag.genid();
        let is_course = |&id: &crate::NodeId| genid.type_of(id) == course;
        assert_eq!(genid.live_ids().filter(is_course).count(), 3);
        // db -> course edges: 3; prereq -> course edges: 2 (CS650->CS320,
        // CS320->CS240).
        let dbty = atg.dtd().root();
        let prereq = atg.dtd().type_id("prereq").unwrap();
        let typed = |a, b| {
            let ty = |v| dag.genid().type_of(v);
            dag.all_edges()
                .filter(|&(u, v)| (ty(u), ty(v)) == (a, b))
                .count()
        };
        assert_eq!(typed(dbty, course), 3);
        assert_eq!(typed(prereq, course), 2);
    }

    #[test]
    fn shared_course_has_multiple_parents() {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let dag = publish(&atg, &db).unwrap();
        let course = atg.dtd().type_id("course").unwrap();
        let cs320 = dag
            .genid()
            .lookup(course, tuple!["CS320", "Algorithms"].values())
            .expect("CS320 published");
        // Parents: the db root and CS650's prereq node.
        assert_eq!(dag.parents(cs320).len(), 2);
    }

    #[test]
    fn expansion_matches_fig1_shape() {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let dag = publish(&atg, &db).unwrap();
        let tree = dag.expand(&atg);
        let dtd = atg.dtd();
        // Expanded tree duplicates shared subtrees: CS320 appears twice,
        // CS240 three times (top-level + under CS320 twice).
        let course = dtd.type_id("course").unwrap();
        let course_nodes = tree
            .descendants(tree.root())
            .into_iter()
            .filter(|&n| tree.node(n).ty() == course)
            .count();
        // top: CS650, CS320, CS240; CS650: CS320 -> CS240; CS320: CS240.
        assert_eq!(course_nodes, 6);
        let s = tree.serialize(dtd);
        assert!(s.contains("<cno>CS650</cno>"));
        assert!(!s.contains("MA100")); // non-CS filtered out
    }

    #[test]
    fn edge_views_derivable_for_all_rules() {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let dtd = atg.dtd();
        let provider = atg.augmented_schemas();
        for parent in dtd.types() {
            for &child in dtd.children_of(parent) {
                let q = atg.edge_view_query(parent, child, &provider);
                assert!(
                    q.is_some(),
                    "missing edge view for {} -> {}",
                    dtd.name(parent),
                    dtd.name(child)
                );
            }
        }
    }

    #[test]
    fn non_key_preserving_rule_rejected() {
        let db = registrar_database();
        // Project away the course key: not key-preserving.
        let bad = SpjQuery::builder("bad")
            .from("course", "c")
            .project(("c", "title"), "title")
            .build(&db)
            .unwrap();
        let mut b = Atg::builder(registrar_dtd());
        b.attr("db", &[]).attr("course", &["title"]);
        b.rule_query("db", "course", bad, &[]);
        let err = b.build(&db).unwrap_err();
        assert!(matches!(err, AtgError::NotKeyPreserving { .. }));
    }

    /// `__unit` names the one column of an empty `$A`'s `gen_A`: a field
    /// of that name would make a one-field `$A` look empty.
    #[test]
    fn the_unit_column_name_is_no_field_name() {
        let db = registrar_database();
        let mut b = Atg::builder(registrar_dtd());
        b.attr("db", &[]).attr("course", &["__unit"]);
        let err = b.build(&db).unwrap_err();
        assert!(matches!(err, AtgError::AttrMismatch { .. }), "{err}");
    }

    #[test]
    fn missing_rule_detected() {
        let db = registrar_database();
        let q = SpjQuery::builder("q")
            .from("course", "c")
            .project(("c", "cno"), "cno")
            .build(&db)
            .unwrap();
        let mut b = Atg::builder(registrar_dtd());
        b.attr("db", &[]).attr("course", &["cno"]);
        b.rule_query("db", "course", q, &[]);
        // course's sequence children have no rules.
        let err = b.build(&db).unwrap_err();
        assert!(matches!(err, AtgError::MissingRule { .. }));
    }
}
