//! Translating XML view updates to relational view updates (§3.3):
//! Algorithms **Xinsert** (Fig.5) and **Xdelete** (Fig.6).
//!
//! A single XML update maps to a *group* update `∆V` over the edge
//! relations. The DAG representation makes the paper's revised side-effect
//! semantics free: two tree occurrences with the same type and semantic
//! attribute are one DAG node, so inserting below / deleting an edge of that
//! node updates every occurrence at once; and set semantics on the edge
//! relations stores a newly inserted subtree exactly once.

use crate::dag_eval::DagEval;
use crate::update::ViewDelta;
use crate::viewstore::ViewStore;
use rxview_atg::SubtreeDag;
use rxview_relstore::{RelError, TableSource, Tuple};
use rxview_xmlkit::TypeId;

/// Algorithm **Xinsert** (Fig.5): translates `insert (A, t) into p`.
///
/// Computes the edge set `E_A` of the new subtree `ST(A, t)` (generated from
/// the current database via the ATG and `gen_id`), then adds one connecting
/// edge `(uᵢ, r_A)` for every target `(B, uᵢ) ∈ r[[p]]`.
///
/// New nodes are interned into the view's `gen_id` immediately; the returned
/// [`SubtreeDag`] records which were fresh so a rejected update can be
/// rolled back (see [`rollback_subtree`]).
pub(crate) fn xinsert(
    vs: &mut ViewStore,
    base: &impl TableSource,
    ty: TypeId,
    attr: Tuple,
    eval: &DagEval,
) -> Result<(ViewDelta, SubtreeDag), RelError> {
    // The one `$A` no rule produced: it must fit its `gen_A` table before
    // it is interned into it.
    vs.dag().genid().check(ty, &attr)?;
    let subtree = vs.generate_subtree(base, ty, attr).map_err(|e| match e {
        rxview_atg::PublishError::Rel(r) => r,
        rxview_atg::PublishError::CyclicData => {
            RelError::MalformedQuery("inserted subtree is cyclic".into())
        }
    })?;
    let mut delta = ViewDelta::default();
    // Inner edges of ST(A, t) — stored once regardless of how many targets
    // receive the subtree (set semantics of V).
    for &(u, v) in &subtree.edges {
        if !vs.dag().has_edge(u, v) {
            delta.inserts.push((u, v));
        }
    }
    // Connecting edges: one per node in r[[p]].
    for &target in &eval.selected {
        if !vs.dag().has_edge(target, subtree.root) {
            delta.inserts.push((target, subtree.root));
        }
    }
    Ok((delta, subtree))
}

/// Undoes [`xinsert`]'s interning when the update is rejected after it (a
/// cycle, no ∆R, or `I` refusing ∆R; a side-effect abort comes earlier and
/// interns nothing): the fresh nodes give their ids back, and the id space
/// returns to `space`, its length before [`xinsert`].
pub(crate) fn rollback_subtree(vs: &mut ViewStore, subtree: &SubtreeDag, space: usize) {
    let genid = vs.dag_mut().genid_mut();
    for &n in &subtree.fresh {
        genid.retire(n);
    }
    genid.truncate(space);
}

/// Algorithm **Xdelete** (Fig.6): translates `delete p` into the group
/// deletion `∆V = {(uᵢ, vᵢ) : ((C, uᵢ), vᵢ) ∈ Ep(r)}` — only the matched
/// parent-child edges are removed; shared subtrees are never physically
/// deleted (their unreachable remains are garbage-collected in the
/// background, §2.3/§3.4).
pub fn xdelete(eval: &DagEval) -> ViewDelta {
    ViewDelta {
        inserts: Vec::new(),
        deletes: eval.edge_parents.clone(),
    }
}

/// Applies a `∆V` to the DAG's edges; an inserted subtree's fresh nodes
/// entered their `gen_A` tables when [`xinsert`] interned them.
pub(crate) fn apply_delta(vs: &mut ViewStore, delta: &ViewDelta) {
    for &(u, v) in &delta.inserts {
        vs.dag_mut().add_edge(u, v);
    }
    for &(u, v) in &delta.deletes {
        vs.dag_mut().remove_edge(u, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::eval_path;
    use crate::topo::TopoOrder;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::{tuple, Database};
    use rxview_xmlkit::parse_xpath;

    fn fixture() -> (Database, ViewStore, TopoOrder) {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let vs = ViewStore::publish(atg, &db).unwrap();
        let topo = TopoOrder::compute(vs.dag());
        (db, vs, topo)
    }

    #[test]
    fn xdelete_example5_single_edge() {
        // ∆X: delete course[cno=CS650]//course[cno=CS320]/takenBy/student[ssn=S02]
        let (_db, vs, topo) = fixture();
        let p =
            parse_xpath("course[cno=CS650]//course[cno=CS320]/takenBy/student[ssn=S02]").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let delta = xdelete(&eval);
        assert_eq!(delta.deletes.len(), 1);
        let takenby320 = vs
            .dag()
            .genid()
            .lookup(
                vs.atg().dtd().type_id("takenBy").unwrap(),
                tuple!["CS320"].values(),
            )
            .unwrap();
        assert_eq!(delta.deletes[0].0, takenby320);
    }

    #[test]
    fn xdelete_example5_group() {
        // ∆X2 = delete //student[ssn=S02] → edges from every takenBy parent.
        let (_db, vs, topo) = fixture();
        let p = parse_xpath("//student[ssn=S02]").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let delta = xdelete(&eval);
        assert_eq!(delta.deletes.len(), 2); // takenBy(CS320) and takenBy(CS240)
    }

    #[test]
    fn xinsert_existing_course_adds_single_edge() {
        // Insert CS240 (already a published course: its subtree is shared)
        // as a prerequisite of CS650.
        let (db, mut vs, topo) = fixture();
        let p = parse_xpath("course[cno=CS650]/prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, st) = xinsert(
            &mut vs,
            &db,
            course,
            tuple!["CS240", "Data Structures"],
            &eval,
        )
        .unwrap();
        // CS240 exists: no fresh nodes, no inner edges, one connecting edge.
        assert!(st.fresh.is_empty());
        assert_eq!(delta.inserts.len(), 1);
        let prereq650 = vs
            .dag()
            .genid()
            .lookup(
                vs.atg().dtd().type_id("prereq").unwrap(),
                tuple!["CS650"].values(),
            )
            .unwrap();
        assert_eq!(delta.inserts[0], (prereq650, st.root));
    }

    #[test]
    fn xinsert_new_course_generates_subtree() {
        let (mut db, mut vs, topo) = fixture();
        let space = vs.dag().genid().n_allocated();
        // Add a brand-new course to the base data first, then insert it into
        // the view under CS650's prereq.
        db.insert("course", tuple!["CS100", "Intro", "CS"]).unwrap();
        let p = parse_xpath("course[cno=CS650]/prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, st) = xinsert(&mut vs, &db, course, tuple!["CS100", "Intro"], &eval).unwrap();
        // Fresh: course, cno, title, prereq, takenBy = 5 nodes.
        assert_eq!(st.fresh.len(), 5);
        // Inner edges (4) + connecting edge (1).
        assert_eq!(delta.inserts.len(), 5);
        // Interned, the new course is in `gen_course` at once.
        let row = |vs: &ViewStore| {
            vs.dag()
                .genid()
                .table(course)
                .contains_key(&tuple!["CS100", "Intro"])
        };
        assert!(row(&vs));
        // Rollback releases the fresh nodes, rows and all.
        rollback_subtree(&mut vs, &st, space);
        assert!(!vs.dag().genid().is_live(st.root) && !row(&vs));
        assert_eq!(vs.dag().genid().n_allocated(), space);
    }

    #[test]
    fn xinsert_refuses_an_attribute_its_gen_table_rejects() {
        let (db, mut vs, topo) = fixture();
        let eval = eval_path(
            &vs,
            &topo,
            &parse_xpath("course[cno=CS650]/prereq").unwrap(),
        );
        let course = vs.atg().dtd().type_id("course").unwrap();
        let space = vs.dag().genid().n_allocated();
        // A mistyped `$A`, and one a field short of `gen_course`'s row.
        for attr in [tuple![1i64, 2i64], tuple!["CS999"]] {
            assert!(xinsert(&mut vs, &db, course, attr, &eval).is_err());
        }
        // The root's `$A` is empty: its unit row's value is no `$A` of it,
        // though `gen_db` would take the row.
        let root = vs.dag().root();
        let db_ty = vs.dag().genid().type_of(root);
        assert!(xinsert(&mut vs, &db, db_ty, tuple![0i64], &eval).is_err());
        assert_eq!(vs.dag().genid().n_allocated(), space, "nothing interned");
    }

    #[test]
    fn xinsert_at_multiple_targets() {
        let (db, mut vs, topo) = fixture();
        // Every prereq node (3 of them).
        let p = parse_xpath("//prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        assert_eq!(eval.selected.len(), 3);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, _st) =
            xinsert(&mut vs, &db, course, tuple!["MA100", "Calculus"], &eval).unwrap();
        // MA100 is new to the view (was filtered out by dept != CS):
        // 4 inner edges + 2 connecting edges... except one target is
        // MA100's own prereq? No: MA100 was not published, so 3 targets.
        let connecting = delta
            .inserts
            .iter()
            .filter(|&&(_, v)| v == _st.root)
            .count();
        assert_eq!(connecting, 3);
    }

    #[test]
    fn apply_delta_updates_dag_and_gen() {
        let (db, mut vs, topo) = fixture();
        let p = parse_xpath("course[cno=CS650]/prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, _) = xinsert(
            &mut vs,
            &db,
            course,
            tuple!["CS240", "Data Structures"],
            &eval,
        )
        .unwrap();
        let n_edges = vs.dag().n_edges();
        apply_delta(&mut vs, &delta);
        assert_eq!(vs.dag().n_edges(), n_edges + 1);
        // Deleting it again restores the count.
        let d = ViewDelta {
            inserts: vec![],
            deletes: delta.inserts.clone(),
        };
        apply_delta(&mut vs, &d);
        assert_eq!(vs.dag().n_edges(), n_edges);
    }
}
