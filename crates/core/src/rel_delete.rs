//! Algorithm **delete** (§4.2, Fig.9): translating group view deletions
//! `∆V` to base-table deletions `∆R` — PTIME under key preservation
//! (Theorem 1).
//!
//! For a deleted edge tuple `t` of edge view `Q`, key preservation lets us
//! read off the *deletable source* `Sr(Q, t)`: for each base relation in the
//! view definition, the unique contributing tuple identified by its key.
//! The edge's record in the registry reads it off the parent's `$A` and the
//! child's `$B` through the view's cell program
//! ([`EdgeRecord::source_keys`]), with no edge row built: a key per table
//! number.
//! Deleting any source tuple removes `t`; the deletion is side-effect free
//! iff that source is not in the deletable source of any view tuple that
//! must *remain*. The algorithm picks, for each deleted tuple, an arbitrary
//! side-effect-free source (finding a *minimal* `∆R` is NP-complete,
//! Theorem 3; its greedy cover is a specification in `rxview-reference`)
//! and rejects the group if some tuple has none.
//!
//! The remaining-tuple check is done with *database queries* rather than a
//! scan of the whole view: for a candidate source `(S, k)`, every edge view
//! is re-evaluated once per FROM occurrence of `S`, that occurrence's key
//! bound to `k` (one plan per view and occurrence, compiled in the
//! [`TranslationTemplates`] registry, bound once per translation and run on
//! `k`); the candidate is safe iff every produced edge is itself in `∆V`
//! (this is the "more database queries as `|Ep(r)|` grows" behaviour the
//! paper reports in Fig.11(g)).

use crate::template::{EdgeProbe, EdgeRecord, TranslationTemplates};
use crate::update::ViewDelta;
use crate::viewstore::ViewStore;
use rxview_atg::NodeId;
use rxview_relstore::{BoundPlan, Database, GroupUpdate, RelError, TableSource, Tuple};
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

/// A deletable source: a base table's number in the registry and the key
/// of the tuple that contributes to a view row.
type Source = (usize, Tuple);

/// The record of deleted edge `(u, v)`'s view, or why no base deletion
/// removes the edge.
fn deletable(vs: &ViewStore, u: NodeId, v: NodeId) -> Result<&EdgeRecord, DeleteRejection> {
    let (a, b) = (vs.dag().genid().type_of(u), vs.dag().genid().type_of(v));
    let Some(record) = vs.templates().edge((a, b)) else {
        return Err(DeleteRejection::NotDeletable {
            view: format!("edge_{}_{}", vs.atg().dtd().name(a), vs.atg().dtd().name(b)),
        });
    };
    // Projection-rule edges join only the gen table: no base source.
    match record.view().from().len() {
        1 => Err(DeleteRejection::NotDeletable {
            view: record.view().name().to_owned(),
        }),
        _ => Ok(record),
    }
}

/// Edge `(u, v)`'s deletable sources `Sr(Q, t)`, read off its `$A` and `$B`
/// by the record's cell program.
fn sources(vs: &ViewStore, record: &EdgeRecord, u: NodeId, v: NodeId) -> Option<Vec<Source>> {
    let genid = vs.dag().genid();
    record.source_keys(genid.attr_of(u).values(), genid.attr_of(v).values())
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
pub(crate) fn candidate_source_keys(vs: &ViewStore, delta: &ViewDelta) -> Option<Vec<Source>> {
    let mut out = Vec::new();
    for &(u, v) in &delta.deletes {
        if let Ok(record) = deletable(vs, u, v) {
            out.extend(sources(vs, record, u, v)?);
        }
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

    // Cache of source-safety verdicts, and per table the probes bound so far.
    let mut verdict: BTreeMap<Source, bool> = BTreeMap::new();
    let mut bound: Vec<Option<_>> = templates.tables().iter().map(|_| None).collect();
    let mut rows = Vec::new();
    let mut out = GroupUpdate::new();

    for &(u, v) in &delta.deletes {
        let record = deletable(vs, u, v)?;
        let q = record.view();
        let sources = sources(vs, record, u, v).ok_or_else(|| {
            DeleteRejection::Rel(RelError::NotKeyPreserving {
                query: q.name().to_owned(),
            })
        })?;

        // Find a side-effect-free source (Fig.9 lines 6–9).
        let mut chosen = None;
        for sr in sources {
            if !verdict.contains_key(&sr) {
                let safe =
                    source_is_safe(vs, &aug, templates, &mut bound, &mut rows, &sr, &deleted)?;
                verdict.insert(sr.clone(), safe);
            }
            if verdict[&sr] {
                chosen = Some(sr);
                break;
            }
        }
        let Some((table, key)) = chosen else {
            let genid = vs.dag().genid();
            return Err(DeleteRejection::NoSafeSource {
                view: q.name().to_owned(),
                tuple: genid.gen_row(u).concat(genid.attr_of(v)).to_string(),
            });
        };
        out.delete(templates.tables()[table].as_str(), key);
    }
    Ok(out)
}

/// Fig. 9's safety test: `(S, k)` is safe iff every live view tuple with
/// `(S, k)` in its deletable source is itself in `∆V`. A probe of `S` binds
/// one FROM occurrence of `S` to `k`, so each row it yields has `(S, k)` in
/// its `Sr(Q, t)`. `S`'s probes are bound on its first candidate and kept
/// in `bound`, at `S`'s number; every run refills `rows`.
fn source_is_safe<'a>(
    vs: &ViewStore,
    aug: &'a impl TableSource,
    templates: &'a TranslationTemplates,
    bound: &mut [Option<Vec<EdgeProbe<BoundPlan<'a>>>>],
    rows: &mut Vec<Tuple>,
    (table, key): &Source,
    deleted: &BTreeSet<(NodeId, NodeId)>,
) -> Result<bool, DeleteRejection> {
    let probes = match &mut bound[*table] {
        Some(probes) => probes,
        slot => slot.insert(templates.bind_probes(*table, aug)?),
    };
    for ((a, b), probe) in probes.iter() {
        probe.run_into(key.values(), rows)?;
        // A row whose parent or child is not in the view is no live edge:
        // deleting the source cannot hurt it.
        let live = |row: &Tuple| vs.edge_from_row(*a, *b, row.values());
        if rows.iter().filter_map(live).any(|e| !deleted.contains(&e)) {
            return Ok(false);
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
            .lookup(student, tuple!["S02", "Bob"].values())
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
        let tb650 = vs2
            .dag()
            .genid()
            .lookup(takenby, tuple!["CS650"].values())
            .unwrap();
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
            .lookup(course, tuple!["CS320", "Algorithms"].values())
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
            .lookup(course, tuple!["CS240", "Data Structures"].values())
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
            .lookup(course, tuple!["CS320", "Algorithms"].values())
            .unwrap();
        let cno320 = vs
            .dag()
            .genid()
            .lookup(cno, tuple!["CS320"].values())
            .unwrap();
        let delta = ViewDelta {
            inserts: vec![],
            deletes: vec![(cs320, cno320)],
        };
        let err = translate_deletions(&vs, &db, &delta).unwrap_err();
        assert!(matches!(err, DeleteRejection::NotDeletable { .. }));
    }
}
