//! The paper's ∆M: the `M` halves of Algorithms **∆(M,L)insert** (Fig.7)
//! and **∆(M,L)delete** (Fig.8), run beside the serving fold, which keeps
//! `L` only ([`rxview_core::XmlViewSystem::fold_maintenance`]). The serving
//! system holds no `M`; this module keeps one for it, so that the
//! reproduction still runs and measures what the paper maintains: Table 1's
//! incremental columns time it, `ablation-reach` weighs its upkeep against
//! the walks that replaced it, and the oracles (this module's tests,
//! `tests/batched_fold.rs`, `tests/random_dag.rs`) hold it equal to
//! Algorithm Reach after every update.
//!
//! ∆M runs after `apply_deferred` has put an update's `∆V` into the DAG and
//! *before* the serving fold: the fold's insert jobs change no edge, and
//! its delete pass cascades the edges of what it collects, which ∆M's
//! delete half simulates instead — a parent it has collected counts as
//! gone. Every ancestor set is written at once, a bulk edit of
//! [`Reachability`]'s runs, and a later job reads what an earlier one
//! wrote.

use rxview_atg::{Dag, NodeId, SubtreeDag};
use rxview_core::reach::{descendants, ReachBatch, RunBuf};
use rxview_core::{
    DeferredMaintenance, Reachability, SideEffectPolicy, UpdateError, UpdateReport, XmlUpdate,
    XmlViewSystem,
};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// What one run of ∆M wrote, and how long it took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaMReport {
    /// Pairs added (`∆M` insertions).
    pub inserted: usize,
    /// Pairs removed (`∆M` deletions).
    pub removed: usize,
    /// Ids of the runs it stored: the size of what it rewrote.
    pub ids_written: usize,
    /// Wall clock.
    pub took: Duration,
}

impl DeltaMReport {
    fn absorb(&mut self, other: DeltaMReport) {
        self.inserted += other.inserted;
        self.removed += other.removed;
        self.ids_written += other.ids_written;
        self.took += other.took;
    }
}

#[cfg(test)]
thread_local! {
    /// Surviving parents whose `anc` runs the delete half read — the
    /// cost-model guard's work counter.
    static PARENT_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_parent_runs(n: usize) {
    PARENT_RUNS.with(|c| c.set(c.get() + n));
}

fn sort_dedup(ids: &mut Vec<NodeId>) {
    ids.sort_unstable();
    ids.dedup();
}

/// `M` of a system, kept by the paper's ∆M.
#[derive(Debug, Default)]
pub struct TrackedM {
    m: Reachability,
    batch: ReachBatch,
}

impl TrackedM {
    /// `M` of `sys` as Algorithm Reach computes it.
    pub fn of(sys: &XmlViewSystem) -> Self {
        Self::from(Reachability::compute(sys.view().dag(), sys.topo()))
    }

    /// The matrix kept.
    pub fn m(&self) -> &Reachability {
        &self.m
    }

    /// ∆M for `jobs` — updates `apply_deferred` applied to `dag` that the
    /// serving fold has not folded yet — in the fold's order: each
    /// insertion's half in turn, then one delete half over all deletions.
    pub fn fold(&mut self, dag: &Dag, jobs: &[DeferredMaintenance]) -> DeltaMReport {
        let mut report = DeltaMReport::default();
        let mut deleted = Vec::new();
        for job in jobs {
            match job.subtree() {
                Some(st) => report.absorb(self.insert(dag, st, job.selected())),
                None => deleted.extend_from_slice(job.selected()),
            }
        }
        if !deleted.is_empty() {
            report.absorb(self.delete(dag, &deleted));
        }
        report
    }

    /// ∆M of ∆(M,L)insert for one inserted subtree `ST(A, t)`, its edges
    /// and those onto `targets` in `dag`:
    ///
    /// - part (a): every fresh node of the subtree becomes an ancestor of
    ///   what a walk down the DAG reaches from it, old nodes below the
    ///   subtree boundary included;
    /// - part (b): every ancestor-or-self of a target gains the subtree's
    ///   root and all its descendants.
    ///
    /// A fresh node with one parent then holds the run a sibling holds, as
    /// after [`Reachability::compute`].
    pub fn insert(&mut self, dag: &Dag, st: &SubtreeDag, targets: &[NodeId]) -> DeltaMReport {
        let t0 = Instant::now();
        let (m, batch) = (&mut self.m, &mut self.batch);
        let mut report = DeltaMReport::default();
        // The new pairs as `(desc, anc)`, so that sorting groups them by the
        // node whose `anc` run they extend.
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for &v in &st.fresh {
            pairs.extend(descendants(dag, v).into_iter().map(|x| (x, v)));
        }
        let mut up: Vec<NodeId> = targets.to_vec();
        for &t in targets {
            m.ancestors(t).extend_into(&mut up);
        }
        sort_dedup(&mut up);
        let mut below = descendants(dag, st.root);
        below.push(st.root);
        for &d in &below {
            pairs.extend(up.iter().filter(|&&a| a != d).map(|&a| (d, a)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut ancs = RunBuf::default();
        for of_d in pairs.chunk_by(|l, r| l.0 == r.0) {
            ancs.clear();
            ancs.extend(of_d.iter().map(|&(_, a)| a));
            let added = m.add_ancestors(of_d[0].0, ancs.as_run(), batch);
            if added > 0 {
                report.inserted += added;
                report.ids_written += m.ancestors(of_d[0].0).len();
            }
        }
        for &v in &st.fresh {
            m.share_sibling_run(dag, v);
        }
        report.took = t0.elapsed();
        report
    }

    /// ∆M of ∆(M,L)delete for the children of deleted edges, `selected`,
    /// once `dag` has lost the edges but before the collector cascades
    /// anything. Visits the targets and their descendants ancestors first,
    /// bringing each node's ancestor set up to date with its surviving
    /// parents; a node left with none is collected — `anc` emptied — and
    /// stops counting as a parent. A target has its `anc` recomputed from
    /// the parents it has left (Fig.8 lines 9–11). Below the targets a node
    /// `d` can only lose an ancestor that a collected parent `r`
    /// contributed — `r` or `anc(r)` — or one that a surviving parent lost
    /// earlier in the pass, so only those candidates are checked: one stays
    /// iff a surviving parent of `d` lies below it, searched in the
    /// survivors' exact `anc` runs.
    pub fn delete(&mut self, dag: &Dag, selected: &[NodeId]) -> DeltaMReport {
        let t0 = Instant::now();
        let (m, batch) = (&mut self.m, &mut self.batch);
        let mut report = DeltaMReport::default();
        let mut targets = selected.to_vec();
        sort_dedup(&mut targets);
        // What each visited node lost from `anc` (all of it, when
        // collected), and which collected parents each node lost.
        let mut lost: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        let mut cut_from: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        let mut collected: HashSet<NodeId> = HashSet::new();
        let mut open: Vec<NodeId> = Vec::new();
        for d in ancestors_first(dag, &targets) {
            let live = |a: &NodeId| dag.genid().is_live(*a) && !collected.contains(a);
            let survivors = || dag.parents(d).iter().copied().filter(live);
            let orphaned = survivors().next().is_none();
            let removed = if orphaned {
                m.collect_node(d, batch)
            } else if targets.binary_search(&d).is_ok() {
                #[cfg(test)]
                count_parent_runs(survivors().count());
                m.set_ancestors_from(d, survivors(), batch)
            } else {
                // The candidates; a collected one reaches nothing now.
                open.clear();
                for r in cut_from.get(&d).into_iter().flatten() {
                    open.push(*r);
                    open.extend(lost.get(r).into_iter().flatten());
                }
                // `y` is a surviving parent of `d`: scan the shorter of
                // `y`'s children and `d`'s parents.
                let n_parents = dag.parents(d).len();
                let reaches_d = |y: NodeId| {
                    let below = dag.children(y);
                    live(&y)
                        && if below.len() <= n_parents {
                            below.contains(&d)
                        } else {
                            dag.parents(d).contains(&y)
                        }
                };
                // What the surviving parents lost, from whichever side is
                // smaller: few nodes have lost anything, many may be
                // parents.
                if lost.len() < n_parents {
                    for (s, l) in &lost {
                        if reaches_d(*s) {
                            open.extend_from_slice(l);
                        }
                    }
                } else {
                    for s in survivors() {
                        open.extend(lost.get(&s).into_iter().flatten());
                    }
                }
                sort_dedup(&mut open);
                open.retain(|&x| {
                    if collected.contains(&x) {
                        return true;
                    }
                    if reaches_d(x) {
                        return false;
                    }
                    // `x` still reaches `d` iff a surviving parent lies
                    // below it: a search in each survivor's exact `anc` run.
                    !survivors().any(|s| {
                        #[cfg(test)]
                        count_parent_runs(1);
                        m.ancestors(s).contains(&x)
                    })
                });
                if open.is_empty() {
                    0
                } else {
                    let gone: RunBuf = open.iter().copied().collect();
                    m.remove_ancestors(d, gone.as_run(), batch)
                }
            };
            if removed > 0 {
                let mut was = Vec::with_capacity(removed);
                batch.lost().extend_into(&mut was);
                lost.insert(d, was);
                report.removed += removed;
                report.ids_written += m.ancestors(d).len();
            }
            if orphaned {
                collected.insert(d);
                for &c in dag.children(d) {
                    cut_from.entry(c).or_default().push(d);
                }
            }
        }
        report.took = t0.elapsed();
        report
    }
}

impl From<Reachability> for TrackedM {
    fn from(m: Reachability) -> Self {
        TrackedM {
            m,
            batch: ReachBatch::default(),
        }
    }
}

/// `targets` and their descendants in `dag`, each after all its parents
/// among them: Kahn's algorithm over the sub-DAG they span, which is what
/// the pass visits whatever `L` says of the nodes an unfolded insertion
/// left out of it.
fn ancestors_first(dag: &Dag, targets: &[NodeId]) -> Vec<NodeId> {
    let mut span = targets.to_vec();
    for &t in targets {
        span.extend(descendants(dag, t));
    }
    sort_dedup(&mut span);
    let at = |v: NodeId| span.binary_search(&v).ok();
    let mut waiting: Vec<usize> = span
        .iter()
        .map(|&v| dag.parents(v).iter().filter(|&&p| at(p).is_some()).count())
        .collect();
    let mut order: Vec<NodeId> = span
        .iter()
        .zip(&waiting)
        .filter(|&(_, &w)| w == 0)
        .map(|(&v, _)| v)
        .collect();
    let mut next = 0;
    while let Some(&u) = order.get(next) {
        next += 1;
        for &c in dag.children(u) {
            if let Some(k) = at(c) {
                waiting[k] -= 1;
                if waiting[k] == 0 {
                    order.push(c);
                }
            }
        }
    }
    order
}

/// `sys.apply(update, policy)` with ∆M run on `m` between `∆V` and the
/// serving fold: the update evaluated by [`XmlViewSystem::eval`], applied
/// by `apply_deferred`, its `M` half run here and its `L` half folded by
/// the system. The report's `timings.maintain` is the serving fold's.
pub fn apply_tracked(
    sys: &mut XmlViewSystem,
    m: &mut TrackedM,
    update: &XmlUpdate,
    policy: SideEffectPolicy,
) -> Result<(UpdateReport, DeltaMReport), UpdateError> {
    let eval = sys.eval(update.path());
    let (mut report, job) = sys.apply_deferred(update, policy, eval)?;
    let delta = m.fold(sys.view().dag(), std::slice::from_ref(&job));
    let t0 = Instant::now();
    let Ok(maintain) = sys.fold_maintenance(vec![job]);
    report.timings.maintain = t0.elapsed();
    report.maintain = maintain;
    Ok((report, delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_core::TopoOrder;
    use rxview_relstore::{tuple, Database};

    fn system(db: Database) -> (XmlViewSystem, TrackedM) {
        let sys = XmlViewSystem::new(registrar_atg(&db).unwrap(), db).unwrap();
        let m = TrackedM::of(&sys);
        (sys, m)
    }

    fn apply(sys: &mut XmlViewSystem, m: &mut TrackedM, u: XmlUpdate) -> DeltaMReport {
        let (report, delta) = apply_tracked(sys, m, &u, SideEffectPolicy::Proceed).unwrap();
        assert!(report.maintain.cone_folds > 0);
        delta
    }

    fn insert(ty: &str, attr: rxview_relstore::Tuple, path: &str) -> XmlUpdate {
        XmlUpdate::insert(ty, attr, path).unwrap()
    }

    fn delete(path: &str) -> XmlUpdate {
        XmlUpdate::delete(path).unwrap()
    }

    /// Oracle: after maintenance, `L` is valid and `M` equals
    /// recomputation.
    fn assert_consistent(sys: &XmlViewSystem, m: &TrackedM) {
        assert!(sys.topo().is_valid_for(sys.view().dag()), "L invalid");
        let fresh_topo = TopoOrder::compute(sys.view().dag());
        let fresh = Reachability::compute(sys.view().dag(), &fresh_topo);
        assert!(m.m().same_pairs(&fresh), "M diverged from recomputation");
    }

    fn node(sys: &XmlViewSystem, ty: &str, attr: rxview_relstore::Tuple) -> NodeId {
        let ty = sys.view().atg().dtd().type_id(ty).unwrap();
        sys.view().dag().genid().lookup(ty, &attr).unwrap()
    }

    #[test]
    fn insert_existing_shared_subtree_maintains_m_and_l() {
        let (mut sys, mut m) = system(registrar_database());
        // Alice (S01, currently only under CS650) joins CS320's takenBy:
        // the shared student node gains a parent.
        let u = insert(
            "student",
            tuple!["S01", "Alice"],
            "course[cno=CS320]/takenBy",
        );
        let report = apply(&mut sys, &mut m, u);
        // takenBy320 (and CS320, its ancestors) now reach Alice's subtree.
        assert!(report.inserted > 0);
        assert_consistent(&sys, &m);
    }

    /// Rows a test inserts through the view: a course that is no
    /// top-level (CS) course, so the view does not list it yet.
    fn with_intro(db: &mut Database) {
        db.insert("course", tuple!["CS100", "Intro", "Math"])
            .unwrap();
    }

    #[test]
    fn insert_fresh_subtree_maintains_m_and_l() {
        let mut db = registrar_database();
        with_intro(&mut db);
        db.insert("enroll", tuple!["S01", "CS100"]).unwrap();
        let (mut sys, mut m) = system(db);
        let u = insert(
            "course",
            tuple!["CS100", "Intro"],
            "course[cno=CS320]/prereq",
        );
        apply(&mut sys, &mut m, u);
        assert_consistent(&sys, &m);
        // The new course's takenBy shares student S01 (Alice) — an edge onto
        // a pre-existing node, exercising the swap repair.
        let alice = node(&sys, "student", tuple!["S01", "Alice"]);
        assert!(sys.view().dag().parents(alice).len() >= 2);
    }

    /// The fresh nodes of an anchored insert that have one parent hold
    /// their run in the allocation a sibling holds, as `compute` would
    /// have stored them: the new course's `cno`, `prereq` and `takenBy`.
    #[test]
    fn an_insert_fold_gives_fresh_only_children_one_run() {
        let mut db = registrar_database();
        with_intro(&mut db);
        let (mut sys, mut m) = system(db);
        let u = insert(
            "course",
            tuple!["CS100", "Intro"],
            "course[cno=CS320]/prereq",
        );
        apply(&mut sys, &mut m, u);
        assert_consistent(&sys, &m);

        let dag = sys.view().dag();
        let only = |v: NodeId| match dag.parents(v) {
            [p] => Some(*p),
            _ => None,
        };
        let new_course = node(&sys, "course", tuple!["CS100", "Intro"]);
        let group: Vec<NodeId> = dag.children(new_course).to_vec();
        assert!(group.iter().all(|&v| only(v) == Some(new_course)));
        assert!(group.len() >= 3, "{group:?}");
        assert!(group.iter().all(|&v| m.m().same_run(group[0], v)));
        // And every other group of only children still is one allocation.
        for p in dag.genid().live_ids() {
            let g: Vec<NodeId> = dag
                .children(p)
                .iter()
                .copied()
                .filter(|&c| only(c) == Some(p))
                .collect();
            assert!(g.iter().all(|&v| m.m().same_run(g[0], v)), "{g:?}");
        }
    }

    #[test]
    fn delete_edge_keeps_shared_node() {
        let (mut sys, mut m) = system(registrar_database());
        // Remove CS320 from CS650's prereq; CS320 survives (db still links it).
        let u = delete("course[cno=CS650]/prereq/course[cno=CS320]");
        let (report, delta) =
            apply_tracked(&mut sys, &mut m, &u, SideEffectPolicy::Proceed).unwrap();
        assert_eq!(report.maintain.gc_nodes, 0);
        assert!(delta.removed > 0); // prereq650 no longer reaches CS320's subtree
        assert_consistent(&sys, &m);
    }

    #[test]
    fn delete_last_edge_garbage_collects() {
        let (mut sys, mut m) = system(registrar_database());
        // Delete every occurrence of S01 (only under CS650's takenBy): the
        // student node becomes unreachable and is collected, together with
        // its pcdata children.
        let u = delete("//student[ssn=S01]");
        let (report, _) = apply_tracked(&mut sys, &mut m, &u, SideEffectPolicy::Proceed).unwrap();
        assert_eq!(report.maintain.gc_nodes, 3); // student + ssn + name
        assert!(report.maintain.cascaded_edges >= 2);
        let student = sys.view().atg().dtd().type_id("student").unwrap();
        let genid = sys.view().dag().genid();
        assert!(genid.lookup(student, &tuple!["S01", "Alice"]).is_none());
        assert!(!genid.table(student).contains_key(&tuple!["S01", "Alice"]));
        assert_consistent(&sys, &m);
    }

    #[test]
    fn delete_shared_child_updates_reachability_of_all_ancestors() {
        // Example 6: deleting S02 below CS320 also severs CS650's
        // reachability to S02 (the CS320 subtree is shared).
        let (mut sys, mut m) = system(registrar_database());
        let cs650 = node(&sys, "course", tuple!["CS650", "Advanced DB"]);
        let s02 = node(&sys, "student", tuple!["S02", "Bob"]);
        assert!(m.m().is_ancestor(cs650, s02));
        let u = delete("//course[cno=CS320]/takenBy/student[ssn=S02]");
        apply(&mut sys, &mut m, u);
        // S02 still taken by CS240 (kept), so the node survives...
        assert!(sys.view().dag().genid().is_live(s02));
        // ...and CS650 still reaches S02 through CS320→prereq→CS240.
        assert!(
            m.m().is_ancestor(cs650, s02),
            "S02 still reachable via CS240's takenBy"
        );
        assert_consistent(&sys, &m);
    }

    /// §3.4's ∆(M,L)delete, as a cost model: a student enrolled in `p`
    /// courses has `p` parents; deleting one course's `takenBy` edge to it
    /// collects nothing, but deleting the course's listing collects its
    /// `takenBy`, whose ancestors every sibling `takenBy` still reaches.
    /// The pass reads fewer than `p` parent runs — the same count at
    /// `p` = 20 and 200 — where the Fig.8 recompute merged all `p - 1`
    /// survivors.
    #[test]
    fn deleting_one_of_p_parents_reads_fewer_than_p_runs() {
        let runs_read = |p: usize| {
            let mut db = registrar_database();
            for i in 0..p {
                let cno = format!("X{i}");
                let row = tuple![cno.as_str(), format!("T{i}").as_str(), "CS"];
                db.insert("course", row).unwrap();
                db.insert("enroll", tuple!["S01", cno.as_str()]).unwrap();
            }
            let (sys, mut m) = system(db);
            let alice = node(&sys, "student", tuple!["S01", "Alice"]);
            assert_eq!(sys.view().dag().parents(alice).len(), p + 1);
            // The course's listing edge, cut in `V` as the fold finds it.
            let eval = sys.eval(&rxview_xmlkit::parse_xpath("course[cno=X0]").unwrap());
            let mut dag = sys.view().dag().clone();
            for &(u, v) in &eval.eval.edge_parents {
                dag.remove_edge(u, v);
            }
            PARENT_RUNS.with(|c| c.set(0));
            m.delete(&dag, &eval.eval.selected);
            let mut topo = sys.topo().clone();
            let report = rxview_core::delete_pass(&mut dag, &mut topo, &eval.eval.selected);
            assert!(report.gc_nodes >= 3, "the course, its prereq and takenBy");
            assert!(topo.is_valid_for(&dag));
            let fresh = Reachability::compute(&dag, &topo);
            assert!(m.m().same_pairs(&fresh));
            PARENT_RUNS.with(|c| c.get())
        };
        let (small, large) = (runs_read(20), runs_read(200));
        assert!(
            small < 20 && large < 200,
            "{small} / {large} parent runs read"
        );
        assert_eq!(small, large, "the work does not grow with p");
    }

    /// §3.4's ∆(M,L)insert, as a cost model: an anchored insert writes the
    /// `anc` runs of the subtree it adds and nothing above it — the same
    /// ids of `M` under a 101-node and a 10 001-node star. Storing `desc`
    /// as well rewrote the root's run, every node of the view, per insert.
    #[test]
    fn an_anchored_insert_writes_the_same_m_ids_at_two_view_sizes() {
        let written = |n: usize| {
            let mut db = Database::new();
            rxview_atg::registrar_schema(&mut db);
            for i in 0..n {
                let (cno, title) = (format!("C{i}"), format!("T{i}"));
                db.insert("course", tuple![cno.as_str(), title.as_str(), "CS"])
                    .unwrap();
            }
            db.insert("course", tuple!["NEW", "Fresh", "Math"]).unwrap();
            let (mut sys, mut m) = system(db);
            assert_eq!(sys.topo().len(), 5 * n + 1);
            let u = insert("course", tuple!["NEW", "Fresh"], "course[cno=C7]/prereq");
            let report = apply(&mut sys, &mut m, u);
            assert_eq!(
                report.ids_written, report.inserted,
                "only the new subtree's runs"
            );
            assert_consistent(&sys, &m);
            report.ids_written
        };
        let (small, large) = (written(20), written(2_000));
        assert!(small > 0 && small <= 32, "{small} ids written");
        assert_eq!(small, large, "the ids written grow with the view");
    }

    #[test]
    fn delete_then_reinsert_round_trips() {
        let (mut sys, mut m) = system(registrar_database());
        apply(
            &mut sys,
            &mut m,
            delete("course[cno=CS650]/prereq/course[cno=CS320]"),
        );
        let u = insert(
            "course",
            tuple!["CS320", "Algorithms"],
            "course[cno=CS650]/prereq",
        );
        apply(&mut sys, &mut m, u);
        assert_consistent(&sys, &m);
    }
}
