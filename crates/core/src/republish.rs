//! Incremental re-publishing: propagating *relational* updates to the XML
//! view.
//!
//! The paper's framework assumes the published view is kept in sync with
//! `I` — its substrate reference \[8\] (Bohannon, Choi, Fan, *Incremental
//! evaluation of schema-directed XML publishing*, SIGMOD 2004) provides the
//! direction opposite to view updating: given base-table changes `∆R`
//! applied directly to `I` (by an application that bypasses the XML view),
//! update the DAG, the `gen` tables, `M`, and `L` without republishing from
//! scratch.
//!
//! The algorithm evaluates, for every edge view whose definition mentions a
//! touched base table, the view *bound to the touched key* before and after
//! applying `∆R`; the difference is the set of edges to add and remove.
//! New child nodes are generated with the ATG subtree generator (which
//! recursively discovers everything below them), and the §3.4 maintenance
//! algorithms keep `M`/`L` current.

use crate::maintain::{maintain_delete, maintain_insert, MaintainReport};
use crate::reach::Reachability;
use crate::topo::TopoOrder;
use crate::viewstore::ViewStore;
use rxview_atg::{NodeId, SubtreeDag};
use rxview_relstore::{Database, GroupUpdate, RelError, RelResult, Tuple, TupleOp};
use rxview_xmlkit::TypeId;
use std::collections::BTreeSet;

/// What incremental republishing did.
#[derive(Debug, Clone, Default)]
pub struct RepublishReport {
    /// Edges added to the DAG.
    pub edges_added: usize,
    /// Edges removed from the DAG.
    pub edges_removed: usize,
    /// Nodes newly created (with their subtrees).
    pub nodes_created: usize,
    /// Nodes garbage-collected.
    pub gc_nodes: usize,
}

/// Applies `update` to `base` and incrementally propagates it to the view.
///
/// Returns an error if the updated data would publish a cyclic view, or
/// if `base` rejects the update; the arguments are then left part-way
/// updated (`base` may hold the update while the view does not), so
/// [`crate::XmlViewSystem::apply_relational`] runs this on a clone it
/// drops on error.
pub(crate) fn apply_relational_update(
    base: &mut Database,
    vs: &mut ViewStore,
    topo: &mut TopoOrder,
    reach: &mut Reachability,
    update: &GroupUpdate,
) -> RelResult<RepublishReport> {
    let templates = vs.templates();

    // Touched (table, key) pairs.
    let mut touched: BTreeSet<(String, Tuple)> = BTreeSet::new();
    for op in update.ops() {
        let key = match op {
            TupleOp::Insert { table, tuple } => base.table(table)?.schema().key_of(tuple),
            TupleOp::Delete { table, key } => {
                let _ = table;
                key.clone()
            }
        };
        touched.insert((op.table().to_owned(), key));
    }

    // Bound edge-view rows before and after.
    let snapshot =
        |base: &Database, vs: &ViewStore| -> RelResult<BTreeSet<(TypeId, TypeId, Tuple)>> {
            let aug = vs.augmented(base);
            let mut rows = BTreeSet::new();
            for (table, key) in &touched {
                for ((a, b), bound) in templates.bound_views(table) {
                    for row in bound.run(&aug, key.values())? {
                        rows.insert((*a, *b, row));
                    }
                }
            }
            Ok(rows)
        };

    let before = snapshot(base, vs)?;
    base.apply(update)?;
    let after = snapshot(base, vs)?;

    let mut report = RepublishReport::default();

    // --- Added edges: create missing child subtrees, splice, maintain. ---
    for (a, b, row) in after.difference(&before) {
        let p_arity = vs.atg().attr_fields(*a).len().max(1);
        let parent_attr = if vs.atg().attr_fields(*a).is_empty() {
            Tuple::empty()
        } else {
            Tuple::from_values(row.values()[..p_arity].iter().cloned())
        };
        let child_attr = Tuple::from_values(row.values()[p_arity..].iter().cloned());
        let Some(parent) = vs.dag().genid().lookup(*a, &parent_attr) else {
            // Parent not in the view (e.g. unreached part of the data):
            // nothing to splice.
            continue;
        };
        let subtree = child_subtree(vs, base, *b, child_attr)?;
        report.nodes_created += subtree.fresh.len();
        if vs.dag().has_edge(parent, subtree.root) {
            continue;
        }
        for &(u, v) in &subtree.edges {
            if vs.dag_mut().add_edge(u, v) {
                report.edges_added += 1;
            }
        }
        for &n in &subtree.fresh {
            vs.register_node(n)?;
        }
        vs.dag_mut().add_edge(parent, subtree.root);
        report.edges_added += 1;
        // Cycle guard: splicing a subtree that reaches an ancestor of the
        // parent would make the view infinite.
        let cyclic = subtree
            .shared_nodes()
            .into_iter()
            .any(|w| w == parent || reach.is_ancestor(w, parent));
        if cyclic {
            // Roll the splice back and report.
            vs.dag_mut().remove_edge(parent, subtree.root);
            for &(u, v) in &subtree.edges {
                vs.dag_mut().remove_edge(u, v);
            }
            for &n in &subtree.fresh {
                vs.unregister_node(n)?;
            }
            return Err(RelError::MalformedQuery(
                "relational update publishes a cyclic view".into(),
            ));
        }
        maintain_insert(vs, topo, reach, &subtree, &[parent]);
    }

    // --- Removed edges: unlink and let deletion maintenance GC. ---
    let mut orphans: Vec<NodeId> = Vec::new();
    for (a, b, row) in before.difference(&after) {
        let Some((u, v)) = vs.edge_from_row(*a, *b, row) else {
            continue;
        };
        if vs.dag_mut().remove_edge(u, v) {
            report.edges_removed += 1;
            orphans.push(v);
        }
    }
    if !orphans.is_empty() {
        let m: MaintainReport = maintain_delete(vs, topo, reach, &orphans)?;
        report.gc_nodes = m.gc_nodes;
    }
    Ok(report)
}

/// Looks up the child node or generates its subtree from the updated base.
fn child_subtree(
    vs: &mut ViewStore,
    base: &Database,
    ty: TypeId,
    attr: Tuple,
) -> RelResult<SubtreeDag> {
    vs.generate_subtree(base, ty, attr).map_err(|e| match e {
        rxview_atg::PublishError::Rel(r) => r,
        rxview_atg::PublishError::CyclicData => {
            RelError::MalformedQuery("cyclic data while generating subtree".into())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::tuple;

    struct Sys {
        base: Database,
        vs: ViewStore,
        topo: TopoOrder,
        reach: Reachability,
    }

    fn fixture() -> Sys {
        let base = registrar_database();
        let atg = registrar_atg(&base).unwrap();
        let vs = ViewStore::publish(atg, &base).unwrap();
        let topo = TopoOrder::compute(vs.dag());
        let reach = Reachability::compute(vs.dag(), &topo);
        Sys {
            base,
            vs,
            topo,
            reach,
        }
    }

    fn check(sys: &Sys) {
        // Republication oracle.
        let fresh = ViewStore::publish(sys.vs.atg().clone(), &sys.base).unwrap();
        let key = |vs: &ViewStore, u: NodeId, v: NodeId| {
            (
                (
                    vs.dag().genid().type_of(u),
                    vs.dag().genid().attr_of(u).clone(),
                ),
                (
                    vs.dag().genid().type_of(v),
                    vs.dag().genid().attr_of(v).clone(),
                ),
            )
        };
        let mine: BTreeSet<_> = sys
            .vs
            .dag()
            .all_edges()
            .map(|(u, v)| key(&sys.vs, u, v))
            .collect();
        let theirs: BTreeSet<_> = fresh
            .dag()
            .all_edges()
            .map(|(u, v)| key(&fresh, u, v))
            .collect();
        assert_eq!(mine, theirs, "incremental view diverged from republication");
        assert!(sys.topo.is_valid_for(sys.vs.dag()));
        let t = TopoOrder::compute(sys.vs.dag());
        let m = Reachability::compute(sys.vs.dag(), &t);
        assert!(sys.reach.same_pairs(&m));
    }

    fn apply(sys: &mut Sys, g: GroupUpdate) -> RepublishReport {
        apply_relational_update(
            &mut sys.base,
            &mut sys.vs,
            &mut sys.topo,
            &mut sys.reach,
            &g,
        )
        .unwrap()
    }

    #[test]
    fn inserting_prereq_tuple_adds_edge() {
        let mut sys = fixture();
        let mut g = GroupUpdate::new();
        g.insert("prereq", tuple!["CS650", "CS240"]);
        let r = apply(&mut sys, g);
        assert_eq!(r.edges_added, 1);
        assert_eq!(r.nodes_created, 0); // CS240 already published
        check(&sys);
    }

    #[test]
    fn inserting_new_course_and_link_builds_subtree() {
        let mut sys = fixture();
        let mut g = GroupUpdate::new();
        g.insert("course", tuple!["CS100", "Intro", "CS"]);
        g.insert("enroll", tuple!["S01", "CS100"]);
        let r = apply(&mut sys, g);
        // CS100 appears top-level (dept=CS) with Alice enrolled.
        assert!(r.nodes_created >= 5);
        assert!(r.edges_added >= 5);
        check(&sys);
        let course = sys.vs.atg().dtd().type_id("course").unwrap();
        assert!(sys
            .vs
            .dag()
            .genid()
            .lookup(course, &tuple!["CS100", "Intro"])
            .is_some());
    }

    #[test]
    fn deleting_enroll_tuple_removes_edge_and_gcs() {
        let mut sys = fixture();
        let mut g = GroupUpdate::new();
        g.delete("enroll", tuple!["S01", "CS650"]);
        let r = apply(&mut sys, g);
        assert_eq!(r.edges_removed, 1);
        // Alice had a single enrollment: node + pcdata children collected.
        assert_eq!(r.gc_nodes, 3);
        check(&sys);
    }

    #[test]
    fn deleting_prereq_keeps_shared_course() {
        let mut sys = fixture();
        let mut g = GroupUpdate::new();
        g.delete("prereq", tuple!["CS650", "CS320"]);
        let r = apply(&mut sys, g);
        assert_eq!(r.edges_removed, 1);
        assert_eq!(r.gc_nodes, 0); // CS320 survives as a top-level course
        check(&sys);
    }

    #[test]
    fn updating_dept_moves_course_in_and_out_of_view() {
        let mut sys = fixture();
        // MA100 becomes a CS course: it appears top-level.
        let mut g = GroupUpdate::new();
        g.delete("course", tuple!["MA100"]);
        g.insert("course", tuple!["MA100", "Calculus", "CS"]);
        apply(&mut sys, g);
        check(&sys);
        let course = sys.vs.atg().dtd().type_id("course").unwrap();
        assert!(sys
            .vs
            .dag()
            .genid()
            .lookup(course, &tuple!["MA100", "Calculus"])
            .is_some());
        // And back out again.
        let mut g = GroupUpdate::new();
        g.delete("course", tuple!["MA100"]);
        g.insert("course", tuple!["MA100", "Calculus", "Math"]);
        let r = apply(&mut sys, g);
        assert!(r.gc_nodes >= 1);
        check(&sys);
        assert!(sys
            .vs
            .dag()
            .genid()
            .lookup(course, &tuple!["MA100", "Calculus"])
            .is_none());
    }

    #[test]
    fn mixed_group_update_stays_consistent() {
        let mut sys = fixture();
        let mut g = GroupUpdate::new();
        g.insert("student", tuple!["S77", "Grace"]);
        g.insert("enroll", tuple!["S77", "CS320"]);
        g.delete("enroll", tuple!["S02", "CS240"]);
        apply(&mut sys, g);
        check(&sys);
    }

    #[test]
    fn cyclic_publication_rejected() {
        let mut sys = fixture();
        // CS240 -> CS650 closes the cycle CS650 -> CS320 -> CS240 -> CS650.
        let mut g = GroupUpdate::new();
        g.insert("prereq", tuple!["CS240", "CS650"]);
        let err = apply_relational_update(
            &mut sys.base,
            &mut sys.vs,
            &mut sys.topo,
            &mut sys.reach,
            &g,
        )
        .unwrap_err();
        assert!(matches!(err, RelError::MalformedQuery(_)));
        // The view itself must still be the pre-update one and acyclic.
        assert!(sys.vs.dag().is_acyclic());
        assert!(sys.topo.is_valid_for(sys.vs.dag()));
    }

    #[test]
    fn cyclic_publication_through_a_fresh_subtree_rejected() {
        let mut sys = fixture();
        // MA200 is not in the view; its prerequisite CS240 is.
        let mut g = GroupUpdate::new();
        g.insert("course", tuple!["MA200", "Statistics", "Math"]);
        g.insert("prereq", tuple!["MA200", "CS240"]);
        apply(&mut sys, g);
        check(&sys);
        // CS240 -> MA200 publishes MA200's subtree afresh, and the cycle
        // closes at the old node that subtree shares: MA200 -> CS240.
        let mut g = GroupUpdate::new();
        g.insert("prereq", tuple!["CS240", "MA200"]);
        let err = apply_relational_update(
            &mut sys.base,
            &mut sys.vs,
            &mut sys.topo,
            &mut sys.reach,
            &g,
        )
        .unwrap_err();
        assert!(matches!(err, RelError::MalformedQuery(_)));
        assert!(sys.vs.dag().is_acyclic());
        assert!(sys.topo.is_valid_for(sys.vs.dag()));
    }
}
