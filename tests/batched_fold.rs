//! Multi-job folds: several updates applied with `apply_deferred` and then
//! maintained by **one** `fold_maintenance` call must leave `(V, L)` as
//! the same updates applied one at a time do — and, byte for byte, as the
//! same fold with its deletion jobs in another order, since a fold runs one
//! delete pass over all of them. The paper's ∆M, run on the same jobs
//! beside each fold (`rxview_bench::maintain`), must leave `M` equal to
//! Algorithm Reach's recomputation after every fold.
//!
//! Inside one fold ∆M writes each ancestor run at once and reads a
//! descendant set by walking the DAG, where every job of the fold has
//! already put its edges, so a job can meet what an earlier job of the same
//! fold added below a shared node. The serving engine hands
//! `fold_maintenance` whole rounds; this file does it from the library, on
//! the registrar view, where students and prerequisite courses are shared
//! and the jobs of a batch therefore meet at shared nodes.

mod common;

use proptest::prelude::*;
use rxview::atg::NodeId;
use rxview::core::reach::descendants;
use rxview::core::{DeferredMaintenance, Reachability, SideEffectPolicy, XmlUpdate, XmlViewSystem};
use rxview::relstore::{tuple, Tuple};
use rxview::workload::{registrar_atg, registrar_database};
use rxview_bench::maintain::{apply_tracked, TrackedM};
use std::collections::BTreeSet;

/// The registrar instance plus rows that are in `I` but not (yet) in the
/// view: a Math course whose prerequisite is the shared CS240, and two
/// students, one enrolled in it.
fn system() -> XmlViewSystem {
    let mut db = registrar_database();
    db.insert("course", tuple!["MA200", "Statistics", "Math"])
        .expect("valid row");
    db.insert("prereq", tuple!["MA200", "CS240"])
        .expect("valid row");
    for s in [tuple!["S03", "Carol"], tuple!["S04", "Dan"]] {
        db.insert("student", s).expect("valid row");
    }
    db.insert("enroll", tuple!["S03", "MA200"])
        .expect("valid row");
    let atg = registrar_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

const COURSES: [(&str, &str); 5] = [
    ("CS650", "Advanced DB"),
    ("CS320", "Algorithms"),
    ("CS240", "Data Structures"),
    ("MA100", "Calculus"),
    ("MA200", "Statistics"),
];
const STUDENTS: [(&str, &str); 4] = [
    ("S01", "Alice"),
    ("S02", "Bob"),
    ("S03", "Carol"),
    ("S04", "Dan"),
];

/// The `k`-th update of a pool of enrolments, prerequisite insertions and
/// the deletions that undo them — anchored and `//`-headed.
fn update(kind: usize, course: usize, other: usize) -> XmlUpdate {
    let (cno, _) = COURSES[course % COURSES.len()];
    let (cno2, title2) = COURSES[other % COURSES.len()];
    let (ssn, name) = STUDENTS[other % STUDENTS.len()];
    let built = match kind % 6 {
        0 | 1 => XmlUpdate::insert(
            "student",
            tuple![ssn, name],
            &format!("course[cno={cno}]/takenBy"),
        ),
        2 => XmlUpdate::insert(
            "course",
            tuple![cno2, title2],
            &format!("//course[cno={cno}]/prereq"),
        ),
        3 => XmlUpdate::delete(&format!("//course[cno={cno}]/takenBy/student[ssn={ssn}]")),
        4 => XmlUpdate::delete(&format!("course[cno={cno}]/prereq/course[cno={cno2}]")),
        _ => XmlUpdate::delete(&format!("//student[ssn={ssn}]")),
    };
    built.expect("path parses")
}

/// `ids` as `type:$A` strings. The two sides of a comparison release and
/// reuse ids at different times (a fold per update against a fold per
/// batch), so nodes are compared by what they are, never by id.
fn named(sys: &XmlViewSystem, ids: impl IntoIterator<Item = NodeId>) -> BTreeSet<String> {
    let (genid, dtd) = (sys.view().dag().genid(), sys.view().atg().dtd());
    let name = |v| format!("{}:{}", dtd.name(genid.type_of(v)), genid.attr_of(v));
    ids.into_iter().map(name).collect()
}

/// Whether `m` is the closure of `sys`'s view, as Algorithm Reach computes
/// it.
fn is_reach(m: &TrackedM, sys: &XmlViewSystem) -> bool {
    m.m()
        .same_pairs(&Reachability::compute(sys.view().dag(), sys.topo()))
}

/// Folds `jobs` into `batched` in one call, ∆M into `m` beside it, and
/// compares with `single`, which applied the same updates one at a time.
fn fold_and_compare(
    batched: &mut XmlViewSystem,
    m: &mut TrackedM,
    jobs: Vec<DeferredMaintenance>,
    single: &XmlViewSystem,
) -> Result<(), TestCaseError> {
    let n_jobs = jobs.len();
    m.fold(batched.view().dag(), &jobs);
    batched.fold_maintenance(jobs).expect("fold");
    prop_assert!(is_reach(m, batched), "∆M after a fold of {} jobs", n_jobs);
    let live = |sys: &XmlViewSystem| named(sys, sys.view().dag().genid().live_ids());
    prop_assert_eq!(
        live(batched),
        live(single),
        "live nodes after a fold of {} jobs",
        n_jobs
    );
    prop_assert_eq!(
        batched
            .observed_digest()
            .first_difference(&single.observed_digest()),
        None,
        "(I, gen_A, V) after a fold of {} jobs",
        n_jobs
    );
    // `M` is held to its recomputation from `V` above; equal `V`s then
    // have equal `M`s, and the pair counts say so without an id.
    prop_assert_eq!(
        m.m().n_pairs(),
        single.reach().n_pairs(),
        "M after a fold of {} jobs",
        n_jobs
    );
    prop_assert_eq!(batched.topo().len(), single.topo().len());
    if let Err(e) = batched.consistency_check() {
        return Err(TestCaseError::fail(format!(
            "after a fold of {n_jobs} jobs: {e}"
        )));
    }
    Ok(())
}

/// Folds `jobs` into `reordered` with the deletion jobs reversed and moved
/// ahead of the insert jobs, and holds the result to `batched`, which folded
/// the same jobs in application order, down to the `Exact` digest.
fn fold_reordered_and_compare(
    reordered: &mut XmlViewSystem,
    jobs: Vec<DeferredMaintenance>,
    batched: &XmlViewSystem,
) -> Result<(), TestCaseError> {
    let (inserts, mut jobs): (Vec<_>, Vec<_>) =
        jobs.into_iter().partition(|j| j.subtree().is_some());
    jobs.reverse();
    let n_deletes = jobs.len();
    jobs.extend(inserts);
    reordered.fold_maintenance(jobs).expect("fold");
    prop_assert_eq!(
        reordered
            .exact_digest()
            .first_difference(&batched.exact_digest()),
        None,
        "a fold with its {} deletion jobs moved first",
        n_deletes
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_fold_of_a_batch_equals_one_fold_per_update(
        picks in prop::collection::vec((0usize..6, 0usize..5, 0usize..20), 8..28),
        sizes in prop::collection::vec(2usize..9, 12),
    ) {
        let mut single = system();
        let mut batched = single.clone();
        let mut m = TrackedM::of(&batched);
        let mut reordered = single.clone();
        // The states the open batch started from, one per side: as in an
        // engine round, every update of a batch is evaluated there.
        let mut start = (single.clone(), batched.clone(), reordered.clone());
        let mut jobs: Vec<DeferredMaintenance> = Vec::new();
        let mut reordered_jobs: Vec<DeferredMaintenance> = Vec::new();
        let mut sizes = sizes.into_iter().cycle();
        let mut room = sizes.next().expect("cycled");
        for (kind, course, other) in picks {
            let u = update(kind, course, other);
            // An update belongs in the open batch if it is independent of
            // it: it matches at the batch's start what it matches now, and
            // its translation comes out as it does one at a time (the
            // engine's conflict analysis admits no other). What is under
            // test is phase 6 on the batches that remain.
            let independent = |start: &(XmlViewSystem, XmlViewSystem, XmlViewSystem)| {
                let (then, now) = (start.0.evaluate(u.path()), single.evaluate(u.path()));
                let edges = |sys, eval: &rxview::core::DagEval| {
                    let ends = eval.matched_edges.iter().map(|&(p, c)| [p, c]);
                    ends.map(|e| named(sys, e)).collect::<BTreeSet<_>>()
                };
                named(&start.0, then.selected.iter().copied())
                    == named(&single, now.selected.iter().copied())
                    && edges(&start.0, &then) == edges(&single, &now)
                    && batched
                        .clone()
                        .apply_deferred(&u, SideEffectPolicy::Proceed, start.1.evaluate(u.path()))
                        .is_ok()
                        == single.clone().apply(&u, SideEffectPolicy::Proceed).is_ok()
            };
            if room == 0 || !independent(&start) {
                fold_and_compare(&mut batched, &mut m, std::mem::take(&mut jobs), &single)?;
                let reordered_batch = std::mem::take(&mut reordered_jobs);
                fold_reordered_and_compare(&mut reordered, reordered_batch, &batched)?;
                start = (single.clone(), batched.clone(), reordered.clone());
                room = sizes.next().expect("cycled");
            }
            let eval = start.1.evaluate(u.path());
            let deferred = batched.apply_deferred(&u, SideEffectPolicy::Proceed, eval);
            let eval = start.2.evaluate(u.path());
            let again = reordered.apply_deferred(&u, SideEffectPolicy::Proceed, eval);
            let applied = single.apply(&u, SideEffectPolicy::Proceed);
            prop_assert_eq!(deferred.is_ok(), applied.is_ok(), "`{}`", u);
            prop_assert_eq!(again.is_ok(), applied.is_ok(), "`{}`", u);
            if let (Ok((_, job)), Ok((_, again))) = (deferred, again) {
                jobs.push(job);
                reordered_jobs.push(again);
                room -= 1;
            }
        }
        fold_and_compare(&mut batched, &mut m, jobs, &single)?;
        fold_reordered_and_compare(&mut reordered, reordered_jobs, &batched)?;
    }
}

/// Hazard: job 1 inserts below an *old* node that job 2's inserted subtree
/// reaches as a shared node. Job 2 computes its fresh nodes' descendants
/// by a walk through CS240, which must pass job 1's new edge — a set read
/// as it stood before job 1, and MA200 never learns it reaches Alice.
#[test]
fn a_job_sees_what_an_earlier_job_of_its_fold_queued() {
    let mut sys = system();
    let mut m = TrackedM::of(&sys);
    let enroll = XmlUpdate::insert(
        "student",
        tuple!["S01", "Alice"],
        "course[cno=CS240]/takenBy",
    )
    .expect("path parses");
    let require = XmlUpdate::insert(
        "course",
        tuple!["MA200", "Statistics"],
        "course[cno=CS650]/prereq",
    )
    .expect("path parses");
    // Independent targets: both evaluate against the state before the batch.
    let evals = [&enroll, &require].map(|u| sys.evaluate(u.path()));
    let mut jobs = Vec::new();
    for (u, eval) in [&enroll, &require].into_iter().zip(evals) {
        let (_, job) = sys
            .apply_deferred(u, SideEffectPolicy::Proceed, eval)
            .unwrap_or_else(|e| panic!("`{u}` rejected: {e}"));
        jobs.push(job);
    }
    m.fold(sys.view().dag(), &jobs);
    sys.fold_maintenance(jobs).expect("fold");

    let genid = sys.view().dag().genid();
    let dtd = sys.view().atg().dtd();
    let node = |ty: &str, attr: Tuple| {
        genid
            .lookup(dtd.type_id(ty).expect("registrar type"), attr.values())
            .expect("in the view")
    };
    let ma200 = node("course", tuple!["MA200", "Statistics"]);
    let cs240 = node("course", tuple!["CS240", "Data Structures"]);
    let alice = node("student", tuple!["S01", "Alice"]);
    assert!(m.m().is_ancestor(ma200, cs240));
    assert!(m.m().is_ancestor(cs240, alice));
    assert!(
        m.m().is_ancestor(ma200, alice),
        "MA200 → prereq → CS240 → takenBy → Alice"
    );
    let below_ma200 = descendants(sys.view().dag(), ma200);
    assert!(below_ma200.contains(&alice));
    assert!(is_reach(&m, &sys), "∆M equals recomputation");
    sys.consistency_check().expect("V and L after the fold");
}

/// Hazard: a node made fresh by one job of a fold and collected by the
/// delete pass of the same fold. Its id goes back to the interner only once
/// the fold has dropped everything under it — the fold itself hands out no
/// id — so the next insertion may take the id and find nothing there.
#[test]
fn a_node_made_fresh_and_collected_in_one_fold_leaves_nothing_under_its_id() {
    let mut sys = system();
    let mut m = TrackedM::of(&sys);
    let apply = |sys: &mut XmlViewSystem, m: &mut TrackedM, u: &XmlUpdate| {
        apply_tracked(sys, m, u, SideEffectPolicy::Proceed)
            .unwrap_or_else(|e| panic!("`{u}` rejected: {e}"));
    };
    let require = XmlUpdate::insert(
        "course",
        tuple!["MA200", "Statistics"],
        "course[cno=CS650]/prereq",
    );
    apply(&mut sys, &mut m, &require.expect("path parses"));

    // One batch: Dan enrols in MA200, and MA200 — reachable through that
    // one prerequisite edge — is dropped, taking Dan with it.
    let under_ma200 = "course[cno=CS650]/prereq/course[cno=MA200]";
    let enrol = XmlUpdate::insert(
        "student",
        tuple!["S04", "Dan"],
        &format!("{under_ma200}/takenBy"),
    )
    .expect("path parses");
    let unrequire = XmlUpdate::delete(under_ma200).expect("path parses");
    let evals = [&enrol, &unrequire].map(|u| sys.evaluate(u.path()));
    let mut jobs = Vec::new();
    for (u, eval) in [&enrol, &unrequire].into_iter().zip(evals) {
        let (_, job) = sys
            .apply_deferred(u, SideEffectPolicy::Proceed, eval)
            .unwrap_or_else(|e| panic!("`{u}` rejected: {e}"));
        jobs.push(job);
    }
    let student = sys.view().atg().dtd().type_id("student").expect("type");
    let dan_of = |sys: &XmlViewSystem| {
        let genid = sys.view().dag().genid();
        genid.lookup(student, tuple!["S04", "Dan"].values())
    };
    let dan = dan_of(&sys).expect("interned by the first job");
    let (space, live) = (sys.view().dag().genid().n_allocated(), sys.view().n_nodes());

    m.fold(sys.view().dag(), &jobs);
    let report = sys.fold_maintenance(jobs).expect("fold");
    let genid = sys.view().dag().genid();
    assert_eq!(genid.n_allocated(), space, "a fold hands out no id");
    assert_eq!(genid.n_free(), report.gc_nodes);
    assert_eq!(sys.view().n_nodes(), live - report.gc_nodes);
    assert!(!genid.is_live(dan) && dan_of(&sys).is_none());
    assert!(m.m().ancestors(dan).is_empty());
    assert!(is_reach(&m, &sys));
    assert!(descendants(sys.view().dag(), dan).is_empty());
    assert_eq!(sys.topo().position(dan), None);
    let dag = sys.view().dag();
    assert!(dag.parents(dan).is_empty() && dag.children(dan).is_empty());
    sys.consistency_check().expect("after the fold");

    // The next insertion draws on the released ids, Dan's among them, and
    // the structures indexed by them come out as a recomputation's.
    let again = XmlUpdate::insert("student", tuple!["S04", "Dan"], "course[cno=CS320]/takenBy");
    apply(&mut sys, &mut m, &again.expect("path parses"));
    let genid = sys.view().dag().genid();
    assert_eq!(genid.n_allocated(), space, "released ids first");
    assert_eq!(genid.n_free(), report.gc_nodes - 3, "student, ssn, name");
    let dan = dan_of(&sys).expect("back in the view");
    let cs320 = genid
        .lookup(
            sys.view().atg().dtd().type_id("course").expect("type"),
            tuple!["CS320", "Algorithms"].values(),
        )
        .expect("in the view");
    assert!(m.m().is_ancestor(cs320, dan));
    assert!(is_reach(&m, &sys));
    sys.consistency_check().expect("after reuse");
}
