//! Algorithm **delete** (§4.2, Fig.9): translating group view deletions
//! `∆V` to base-table deletions `∆R` — PTIME under key preservation
//! (Theorem 1).
//!
//! For a deleted edge tuple `t` of edge view `Q`, key preservation lets us
//! read off the *deletable source* `Sr(Q, t)`: for each base relation in the
//! view definition, the unique contributing tuple identified by its key.
//! Deleting any source tuple removes `t`; the deletion is side-effect free
//! iff that source is not in the deletable source of any view tuple that
//! must *remain*. The algorithm picks, for each deleted tuple, an arbitrary
//! side-effect-free source (finding a *minimal* `∆R` is NP-complete,
//! Theorem 3; its greedy cover is a specification in `rxview-reference`)
//! and rejects the group if some tuple has none.
//!
//! The remaining-tuple check is done with *database queries* rather than a
//! scan of the whole view: for a candidate source `(S, k)`, every edge view
//! whose definition mentions `S` is re-evaluated with `S`'s key bound to
//! `k` (one plan per view and table, compiled in the
//! [`TranslationTemplates`] registry and run on `k`); the candidate is safe
//! iff every produced edge is itself in `∆V`
//! (this is the "more database queries as `|Ep(r)|` grows" behaviour the
//! paper reports in Fig.11(g)).

use crate::template::{SourceRef, TranslationTemplates};
use crate::update::ViewDelta;
use crate::viewstore::ViewStore;
use rxview_atg::NodeId;
use rxview_relstore::{Database, GroupUpdate, RelError, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a group deletion was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeleteRejection {
    /// Some deleted view tuple has no side-effect-free source: every way of
    /// deleting it would also delete a view tuple that must remain.
    NoSafeSource {
        /// The edge view involved.
        view: String,
        /// The view tuple that cannot be deleted cleanly.
        tuple: String,
    },
    /// The edge corresponds to a projection rule: it exists whenever its
    /// parent exists and cannot be removed by a base deletion.
    NotDeletable {
        /// The edge view involved.
        view: String,
    },
    /// Underlying relational error.
    Rel(RelError),
}

impl fmt::Display for DeleteRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeleteRejection::NoSafeSource { view, tuple } => {
                write!(f, "no side-effect-free source for {tuple} in view {view}")
            }
            DeleteRejection::NotDeletable { view } => {
                write!(
                    f,
                    "edges of view {view} are not deletable (projection rule)"
                )
            }
            DeleteRejection::Rel(e) => write!(f, "relational error: {e}"),
        }
    }
}

impl std::error::Error for DeleteRejection {}

impl From<RelError> for DeleteRejection {
    fn from(e: RelError) -> Self {
        DeleteRejection::Rel(e)
    }
}

/// The edge-view output row for an edge: `$A` fields ++ `$B` fields.
fn edge_row(vs: &ViewStore, u: NodeId, v: NodeId) -> Tuple {
    vs.gen_row(u).concat(vs.dag().genid().attr_of(v))
}

/// The union of *candidate* deletable sources over the group deletion: for
/// every deleted edge, every `(table, key)` in its `Sr(Q, t)` — a superset
/// of whatever `∆R` [`translate_deletions`] can choose, derivable without
/// any safety queries. This is the planned write
/// footprint of a deletion; `None` means lineage could not be derived for
/// some edge (the caller should treat the update's footprint as global).
///
/// Edges with no base source (projection rules, missing rules) make the
/// real translation reject the whole group — which writes nothing — so they
/// contribute no keys here.
pub(crate) fn candidate_source_keys(vs: &ViewStore, delta: &ViewDelta) -> Option<Vec<SourceRef>> {
    let templates = vs.templates();
    let mut out = Vec::new();
    for &(u, v) in &delta.deletes {
        let a = vs.dag().genid().type_of(u);
        let b = vs.dag().genid().type_of(v);
        let Some(q) = vs.edge_query(a, b) else {
            continue; // NotDeletable: the translation rejects, writes nothing
        };
        if q.from().len() <= 1 {
            continue; // projection rule: same
        }
        out.extend(templates.source_keys((a, b), &edge_row(vs, u, v))?);
    }
    Some(out)
}

/// Algorithm **delete**: computes `∆R` for the group edge deletions in
/// `delta`, or rejects.
pub fn translate_deletions(
    vs: &ViewStore,
    base: &Database,
    delta: &ViewDelta,
) -> Result<GroupUpdate, DeleteRejection> {
    let aug = vs.augmented(base);
    let templates = vs.templates();
    let deleted: BTreeSet<(NodeId, NodeId)> = delta.deletes.iter().copied().collect();

    // Cache of source-safety verdicts.
    let mut verdict: BTreeMap<SourceRef, bool> = BTreeMap::new();
    let mut out = GroupUpdate::new();

    for &(u, v) in &delta.deletes {
        let a = vs.dag().genid().type_of(u);
        let b = vs.dag().genid().type_of(v);
        let Some(q) = vs.edge_query(a, b) else {
            return Err(DeleteRejection::NotDeletable {
                view: format!("edge_{}_{}", vs.atg().dtd().name(a), vs.atg().dtd().name(b)),
            });
        };
        // Projection-rule edges join only the gen table: no base source.
        let has_base = q.from().len() > 1;
        if !has_base {
            return Err(DeleteRejection::NotDeletable {
                view: q.name().to_owned(),
            });
        }
        let row = edge_row(vs, u, v);
        let sources = templates.source_keys((a, b), &row).ok_or_else(|| {
            DeleteRejection::Rel(RelError::NotKeyPreserving {
                query: q.name().to_owned(),
            })
        })?;

        // Find a side-effect-free source (Fig.9 lines 6–9).
        let mut chosen: Option<SourceRef> = None;
        for sr in sources {
            if let Some(&ok) = verdict.get(&sr) {
                if ok {
                    chosen = Some(sr);
                    break;
                }
                continue;
            }
            let safe = source_is_safe(vs, &aug, &templates, &sr, &deleted)?;
            verdict.insert(sr.clone(), safe);
            if safe {
                chosen = Some(sr);
                break;
            }
        }
        match chosen {
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

/// A source `(S, k)` is safe iff every view tuple whose deletable source
/// contains it is itself scheduled for deletion (Fig. 9's safety test).
pub fn source_is_safe(
    vs: &ViewStore,
    aug: &rxview_relstore::Augmented<'_>,
    templates: &TranslationTemplates,
    sr: &SourceRef,
    deleted: &BTreeSet<(NodeId, NodeId)>,
) -> Result<bool, DeleteRejection> {
    for ((a, b), bound) in templates.bound_views(&sr.table) {
        let rows = bound
            .run(aug, sr.key.values())
            .map_err(DeleteRejection::Rel)?;
        for row in rows {
            // A produced row only matters if *this source actually appears*
            // in its deletable source (self-joins may bind one occurrence).
            // This per-evaluated-row probe is the delete path's hottest
            // call site: a few indexed clones per source.
            let srcs = templates.source_keys((*a, *b), &row);
            let uses = srcs.map(|s| s.contains(sr)).unwrap_or(true);
            if !uses {
                continue;
            }
            match vs.edge_from_row(*a, *b, &row) {
                Some(edge) => {
                    if !deleted.contains(&edge) {
                        return Ok(false);
                    }
                }
                // Row does not correspond to a live edge (parent or child
                // not in the view): deleting the source cannot hurt it.
                None => continue,
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::eval_path;
    use crate::topo::TopoOrder;
    use crate::translate::xdelete;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::{tuple, TupleOp};
    use rxview_xmlkit::parse_xpath;

    fn fixture() -> (Database, ViewStore, TopoOrder) {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let vs = ViewStore::publish(atg, &db).unwrap();
        let topo = TopoOrder::compute(vs.dag());
        (db, vs, topo)
    }

    fn delta_for(vs: &ViewStore, topo: &TopoOrder, path: &str) -> ViewDelta {
        let p = parse_xpath(path).unwrap();
        let eval = eval_path(vs, topo, &p);
        xdelete(&eval)
    }

    #[test]
    fn prereq_edge_deletes_prereq_tuple() {
        let (db, vs, topo) = fixture();
        // Deleting CS320 from CS650's prerequisites must delete the
        // prereq(CS650, CS320) tuple — not the course itself (which would
        // side-effect the top-level CS320).
        let delta = delta_for(&vs, &topo, "course[cno=CS650]/prereq/course[cno=CS320]");
        let dr = translate_deletions(&vs, &db, &delta).unwrap();
        assert_eq!(dr.len(), 1);
        assert_eq!(
            dr.ops()[0],
            TupleOp::Delete {
                table: "prereq".into(),
                key: tuple!["CS650", "CS320"]
            }
        );
    }

    #[test]
    fn student_everywhere_can_delete_enrolls() {
        let (db, vs, topo) = fixture();
        // Deleting S02 from every takenBy: enroll tuples go; the student
        // tuple must NOT be touched if... actually deleting the student
        // tuple would remove both edges at once and is also safe here.
        // The algorithm picks the first safe source per edge.
        let delta = delta_for(&vs, &topo, "//student[ssn=S02]");
        assert_eq!(delta.deletes.len(), 2);
        let dr = translate_deletions(&vs, &db, &delta).unwrap();
        // Either one student deletion covers both, or two enroll deletions.
        assert!(!dr.is_empty());
        let mut db2 = db.clone();
        db2.apply(&dr).unwrap();
        // Republishing must show S02 gone from every takenBy.
        let atg = registrar_atg(&db2).unwrap();
        let vs2 = ViewStore::publish(atg, &db2).unwrap();
        let student = vs2.atg().dtd().type_id("student").unwrap();
        assert!(vs2
            .dag()
            .genid()
            .lookup(student, &tuple!["S02", "Bob"])
            .is_none());
    }

    #[test]
    fn single_occurrence_deletion_is_clean() {
        let (db, vs, topo) = fixture();
        let delta = delta_for(&vs, &topo, "course[cno=CS650]/takenBy/student[ssn=S01]");
        let dr = translate_deletions(&vs, &db, &delta).unwrap();
        // Must delete enroll(S01, CS650) — deleting student S01 would also
        // work; check that the chosen ops, when applied, do exactly ∆V.
        let mut db2 = db.clone();
        db2.apply(&dr).unwrap();
        let atg = registrar_atg(&db2).unwrap();
        let vs2 = ViewStore::publish(atg, &db2).unwrap();
        let takenby = vs2.atg().dtd().type_id("takenBy").unwrap();
        let student = vs2.atg().dtd().type_id("student").unwrap();
        let tb650 = vs2.dag().genid().lookup(takenby, &tuple!["CS650"]).unwrap();
        assert!(vs2
            .dag()
            .children(tb650)
            .iter()
            .all(|&c| vs2.dag().genid().type_of(c) != student
                || vs2.dag().genid().attr_of(c) != &tuple!["S01", "Alice"]));
    }

    #[test]
    fn partial_deletion_of_shared_edge_rejected_when_unavoidable() {
        let (db, vs, _topo) = fixture();
        // Deleting the db→CS320 edge (the top-level course listing) while
        // keeping CS320 as a prerequisite: sources are course(CS320) —
        // deleting it would also kill the prereq edge (side effect) — so
        // the update must be rejected.
        let dbty = vs.atg().dtd().root();
        let course = vs.atg().dtd().type_id("course").unwrap();
        let root = vs.dag().root();
        let cs320 = vs
            .dag()
            .genid()
            .lookup(course, &tuple!["CS320", "Algorithms"])
            .unwrap();
        let delta = ViewDelta {
            inserts: vec![],
            deletes: vec![(root, cs320)],
        };
        let _ = dbty;
        let err = translate_deletions(&vs, &db, &delta).unwrap_err();
        assert!(matches!(err, DeleteRejection::NoSafeSource { .. }));
    }

    #[test]
    fn deleting_all_occurrences_of_course_succeeds() {
        let (db, vs, topo) = fixture();
        // //course[cno=CS240] matches the top-level listing AND the prereq
        // occurrence; deleting both edges lets course(CS240) itself go.
        let delta = delta_for(&vs, &topo, "//course[cno=CS240]");
        assert_eq!(delta.deletes.len(), 2);
        let dr = translate_deletions(&vs, &db, &delta).unwrap();
        let mut db2 = db.clone();
        db2.apply(&dr).unwrap();
        let atg = registrar_atg(&db2).unwrap();
        let vs2 = ViewStore::publish(atg, &db2).unwrap();
        let course = vs2.atg().dtd().type_id("course").unwrap();
        assert!(vs2
            .dag()
            .genid()
            .lookup(course, &tuple!["CS240", "Data Structures"])
            .is_none());
    }

    #[test]
    fn projection_edge_not_deletable() {
        let (db, vs, _topo) = fixture();
        let course = vs.atg().dtd().type_id("course").unwrap();
        let cno = vs.atg().dtd().type_id("cno").unwrap();
        let cs320 = vs
            .dag()
            .genid()
            .lookup(course, &tuple!["CS320", "Algorithms"])
            .unwrap();
        let cno320 = vs.dag().genid().lookup(cno, &tuple!["CS320"]).unwrap();
        let delta = ViewDelta {
            inserts: vec![],
            deletes: vec![(cs320, cno320)],
        };
        let err = translate_deletions(&vs, &db, &delta).unwrap_err();
        assert!(matches!(err, DeleteRejection::NotDeletable { .. }));
    }
}
