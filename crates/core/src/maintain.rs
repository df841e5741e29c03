//! Incremental maintenance of the auxiliary structures (§3.4):
//! Algorithms **∆(M,L)insert** (Fig.7) and **∆(M,L)delete** (Fig.8),
//! plus the background garbage collection of unreachable `gen_B` entries
//! (§2.3).
//!
//! In the paper's framework this work runs in the background after the
//! foreground update completes; here it is an explicit deferred phase so
//! experiments can time it separately (the (c) constituent of Fig.11).
//!
//! # Cost model
//!
//! `M`'s sets are immutable ancestor runs ([`crate::reach`]), so both
//! algorithms are written as bulk edits of whole ancestor sets, and a
//! *fold* — all the jobs one [`crate::XmlViewSystem::fold_maintenance`]
//! call is handed — shares one [`ReachBatch`] of merge buffers:
//!
//! - **`M`:** every `anc(x)` an insert job or the delete pass changes is
//!   rewritten at once, one merge per `x` per job. These runs are short
//!   (the depth of the view, a few thousand ids for a widely shared node),
//!   and later jobs of the same fold read them: `anc(target)` for ∆M part
//!   (b), and the `swap` repair's "is `x` below `v`" test. An insert writes
//!   the runs of the nodes below its target and nothing else — no run of an
//!   ancestor, so the work does not grow with the view;
//! - **descendant sets** — ∆M part (a)'s `desc(v)` of each fresh node, part
//!   (b)'s subtree below the inserted root, and the delete pass's `LR` — are
//!   walks down the DAG's child lists ([`crate::reach::DescWalk`]) as the
//!   fold finds it: every edge of the fold's updates is already in place, so
//!   nothing a job reads waits on another job's write;
//! - **`L`:** an insert job splices and repairs as it goes (the next job
//!   needs positions); the delete pass only *names* its garbage-collected
//!   nodes and compacts `L` once, since nothing reads a position after
//!   `LR` is sorted;
//! - **ids:** a collected node's id goes back to the interner last, after
//!   that compaction — until then `L` still names it.
//!
//! [`maintain_insert`] and [`maintain_delete`] are folds of one job.

use crate::reach::{with_walk, ReachBatch, Reachability, RunBuf};
use crate::topo::TopoOrder;
use crate::viewstore::ViewStore;
use rxview_atg::{NodeId, SubtreeDag};
use rxview_relstore::RelResult;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Instant;

/// What maintenance did — counts for reporting and the cascaded deletions
/// `∆'V` handed to the garbage collector, plus sub-span timings attributing
/// the fold phase (`M`-rewrite vs `L`-splice) so the serial section's cost
/// is visible per constituent, not just in aggregate.
#[derive(Debug, Clone, Default)]
pub struct MaintainReport {
    /// Reachability pairs added (`∆M` insertions).
    pub m_inserted: usize,
    /// Reachability pairs removed (`∆M` deletions).
    pub m_removed: usize,
    /// Nodes garbage-collected (removed from `L`, `M`, and `gen_A`).
    pub gc_nodes: usize,
    /// Cascaded edge deletions `∆'V` applied by the collector.
    pub cascaded_edges: usize,
    /// Nanoseconds spent rewriting `M` (∆M parts (a)/(b) on insert, their
    /// descendant walks included; building `LR` and the per-node
    /// ancestor-set recomputation on delete).
    pub m_rewrite_ns: u64,
    /// Nanoseconds spent splicing/repairing `L` (block splice + swap repair
    /// on insert; edge cascade and `gen_A` collection of unreachable nodes,
    /// then the one compaction of `L`, on delete).
    pub l_splice_ns: u64,
    /// ∆(M,L) passes folded into this report: one per insert job, plus one
    /// per delete pass (a fold runs at most one, over all its deletions).
    pub cone_folds: u64,
}

impl MaintainReport {
    /// Accumulates another report's counters (batch folding).
    pub fn absorb(&mut self, other: &MaintainReport) {
        self.m_inserted += other.m_inserted;
        self.m_removed += other.m_removed;
        self.gc_nodes += other.gc_nodes;
        self.cascaded_edges += other.cascaded_edges;
        self.m_rewrite_ns += other.m_rewrite_ns;
        self.l_splice_ns += other.l_splice_ns;
        self.cone_folds += other.cone_folds;
    }
}

/// Algorithm **∆(M,L)insert** (Fig.7) for one inserted subtree. Call
/// *after* the `∆V` insertions have been applied to the DAG.
///
/// - `∆M` part (a): every fresh node of the inserted `ST(A,t)` becomes an
///   ancestor of what a walk down the DAG reaches from it, old nodes below
///   the subtree boundary included;
/// - `∆M` part (b): every ancestor-or-self of a target in `r[[p]]` gains all
///   of `ST(A,t)`'s nodes and their descendants;
/// - `L` part: fresh nodes are spliced in (children before parents, before
///   the earliest target) and order violations from edges onto pre-existing
///   nodes are repaired with the paper's `swap(L, u, v)` primitive
///   (Fig.7 lines 8–13).
pub(crate) fn maintain_insert(
    vs: &ViewStore,
    topo: &mut TopoOrder,
    reach: &mut Reachability,
    subtree: &SubtreeDag,
    targets: &[NodeId],
) -> MaintainReport {
    insert_job(
        vs,
        topo,
        reach,
        &mut ReachBatch::default(),
        subtree,
        targets,
    )
}

/// Turns gathered ids into a set in ascending order.
fn sort_dedup(ids: &mut Vec<NodeId>) {
    ids.sort_unstable();
    ids.dedup();
}

/// One ∆(M,L)insert job of a fold: `L` is left valid and `M` exact for
/// the jobs so far.
pub(crate) fn insert_job(
    vs: &ViewStore,
    topo: &mut TopoOrder,
    reach: &mut Reachability,
    batch: &mut ReachBatch,
    subtree: &SubtreeDag,
    targets: &[NodeId],
) -> MaintainReport {
    let mut report = MaintainReport {
        cone_folds: 1,
        ..MaintainReport::default()
    };
    let dag = vs.dag();
    let fresh: BTreeSet<NodeId> = subtree.fresh.iter().copied().collect();

    // ---- L: splice fresh nodes in parents-first at the earliest target. ----
    let t_splice = Instant::now();
    if !fresh.is_empty() {
        // Post-order DFS over fresh nodes gives children-first; reverse for
        // parents-first insertion at a fixed index.
        let mut order = Vec::with_capacity(fresh.len());
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        fn post_order(
            dag: &rxview_atg::Dag,
            v: NodeId,
            fresh: &BTreeSet<NodeId>,
            seen: &mut BTreeSet<NodeId>,
            out: &mut Vec<NodeId>,
        ) {
            if !seen.insert(v) {
                return;
            }
            for &c in dag.children(v) {
                if fresh.contains(&c) {
                    post_order(dag, c, fresh, seen, out);
                }
            }
            out.push(v);
        }
        post_order(dag, subtree.root, &fresh, &mut seen, &mut order);
        // `order` is children-first, which is exactly the relative order the
        // block needs inside L; splice it in before the earliest target in
        // one pass.
        let at = targets
            .iter()
            .filter_map(|&t| topo.position(t).map(|p| (p, t)))
            .min()
            .and_then(|(_, t)| topo.index_of(t))
            .unwrap_or(topo.len());
        let block: Vec<NodeId> = order
            .iter()
            .copied()
            .filter(|v| topo.position(*v).is_none())
            .collect();
        topo.insert_many_at(at, &block);
    }
    report.l_splice_ns += t_splice.elapsed().as_nanos() as u64;

    // ---- ∆M (a): descendants of every fresh node. ----
    let t_m = Instant::now();
    // The new pairs as `(desc, anc)`, so that sorting groups them by the
    // node whose `anc` run they extend.
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    // `{root} ∪ desc(root)`, which part (b) reads, then each fresh node's
    // `{v} ∪ desc(v)`: a walk of the DAG as the fold has left it.
    let mut closure = Vec::new();
    let mut below = Vec::new();
    with_walk(|walk| {
        walk.closure(dag, [subtree.root], &mut closure, usize::MAX);
        for &v in &subtree.fresh {
            let desc = if v == subtree.root {
                &closure[1..]
            } else {
                below.clear();
                walk.closure(dag, [v], &mut below, usize::MAX);
                &below[1..]
            };
            pairs.extend(desc.iter().map(|&x| (x, v)));
        }
    });

    // ---- ∆M (b): ancestors of targets reach the whole subtree. ----
    let mut anc_targets: Vec<NodeId> = targets.to_vec();
    for &t in targets {
        reach.ancestors(t).extend_into(&mut anc_targets);
    }
    sort_dedup(&mut anc_targets);
    for &d in &closure {
        pairs.extend(anc_targets.iter().filter(|&&a| a != d).map(|&a| (d, a)));
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut ancs = RunBuf::default();
    for of_d in pairs.chunk_by(|l, r| l.0 == r.0) {
        ancs.clear();
        ancs.extend(of_d.iter().map(|&(_, a)| a));
        report.m_inserted += reach.add_ancestors(of_d[0].0, ancs.as_run(), batch);
    }
    report.m_rewrite_ns += t_m.elapsed().as_nanos() as u64;

    // ---- L repair for edges onto pre-existing nodes (Fig.7 lines 8–13). ----
    let t_repair = Instant::now();
    // Connecting edges (target, root) when the root pre-existed, and subtree
    // edges into shared old nodes, can violate the order; repair with swap.
    let repair = |topo: &mut TopoOrder, u: NodeId, v: NodeId| {
        if let (Some(pu), Some(pv)) = (topo.position(u), topo.position(v)) {
            if pu < pv {
                topo.swap(u, v, &|x| reach.ancestors(x).contains(&v));
            }
        }
    };
    for &t in targets {
        repair(topo, t, subtree.root);
    }
    for &(u, v) in &subtree.edges {
        repair(topo, u, v);
    }
    report.l_splice_ns += t_repair.elapsed().as_nanos() as u64;
    report
}

/// Algorithm **∆(M,L)delete** (Fig.8). Call *after* the `∆V` deletions have
/// been applied to the DAG.
///
/// Traverses the descendants of the deleted targets in backward topological
/// order (ancestors first), bringing each node's ancestor set up to date
/// with its surviving parents. Nodes left with no surviving parents are
/// unreachable: they are removed from `L`, dropped from `M`, their outgoing
/// edges are cascaded (`∆'V`), and their `gen` entries are collected — the
/// paper's background garbage collection.
pub(crate) fn maintain_delete(
    vs: &mut ViewStore,
    topo: &mut TopoOrder,
    reach: &mut Reachability,
    selected: &[NodeId],
) -> RelResult<MaintainReport> {
    delete_pass(vs, topo, reach, &mut ReachBatch::default(), selected)
}

#[cfg(test)]
thread_local! {
    /// Surviving parents whose `anc` runs the delete pass read — the
    /// cost-model guard's work counter.
    static PARENT_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_parent_runs(n: usize) {
    PARENT_RUNS.with(|c| c.set(c.get() + n));
}

/// The ∆(M,L)delete pass of a fold over all its deletion targets.
///
/// A target (the child of a deleted edge) has its `anc` recomputed from the
/// parents it has left, Fig.8 lines 9–11. Below the targets that recompute
/// is avoided: a node `d` can only lose an ancestor that a *removed* parent
/// `r` (a node this pass collected) contributed — `r` or `anc(r)` — or one
/// that a surviving parent lost earlier in the pass, so only those
/// candidates are checked: a candidate stays iff a surviving parent of `d`
/// lies below it, searched in the survivors' exact `anc` runs. A node with
/// no candidate is not touched.
pub(crate) fn delete_pass(
    vs: &mut ViewStore,
    topo: &mut TopoOrder,
    reach: &mut Reachability,
    batch: &mut ReachBatch,
    selected: &[NodeId],
) -> RelResult<MaintainReport> {
    let mut report = MaintainReport {
        cone_folds: 1,
        ..MaintainReport::default()
    };

    // LR: the targets and all their descendants — one walk down from the
    // deleted edges' children, whose subtrees are still whole — sorted by L.
    let t_lr = Instant::now();
    let mut targets = selected.to_vec();
    sort_dedup(&mut targets);
    let mut lr = Vec::new();
    with_walk(|walk| walk.closure(vs.dag(), targets.iter().copied(), &mut lr, usize::MAX));
    lr.sort_unstable_by_key(|&v| (topo.position(v).unwrap_or(u64::MAX), v));
    report.m_rewrite_ns += t_lr.elapsed().as_nanos() as u64;

    // What each visited node lost from `anc` (all of it, when collected),
    // and which collected parents each node lost.
    let mut lost: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    let mut cut_from: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    let mut collected: Vec<NodeId> = Vec::new();
    let mut is_collected: HashSet<NodeId> = HashSet::new();
    let mut open: Vec<NodeId> = Vec::new();
    // Backward traversal: ancestors first.
    for &d in lr.iter().rev() {
        // Surviving parents: edges already removed from the DAG (a
        // collected parent's were cascaded when it was visited).
        let t_m = Instant::now();
        let dag = vs.dag();
        let live = |a: &NodeId| dag.genid().is_live(*a);
        let survivors = || dag.parents(d).iter().copied().filter(live);
        let orphaned = survivors().next().is_none();
        let removed = if orphaned {
            reach.collect_node(d, batch)
        } else if targets.binary_search(&d).is_ok() {
            #[cfg(test)]
            count_parent_runs(survivors().count());
            reach.set_ancestors_from(d, survivors(), batch)
        } else {
            // The candidates; a collected one reaches nothing now.
            open.clear();
            for r in cut_from.get(&d).into_iter().flatten() {
                open.push(*r);
                open.extend(lost.get(r).into_iter().flatten());
            }
            // `y` is a surviving parent of `d`: scan the shorter of `y`'s
            // children and `d`'s parents.
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
            // smaller: few nodes have lost anything, many may be parents.
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
                if is_collected.contains(&x) {
                    return true;
                }
                if reaches_d(x) {
                    return false;
                }
                // `x` still reaches `d` iff a surviving parent lies below
                // it: a search in each survivor's exact `anc` run.
                !survivors().any(|s| {
                    #[cfg(test)]
                    count_parent_runs(1);
                    reach.ancestors(s).contains(&x)
                })
            });
            if open.is_empty() {
                0
            } else {
                let gone: RunBuf = open.iter().copied().collect();
                reach.remove_ancestors(d, gone.as_run(), batch)
            }
        };
        if removed > 0 {
            let mut was = Vec::with_capacity(removed);
            batch.lost().extend_into(&mut was);
            lost.insert(d, was);
        }
        report.m_removed += removed;
        report.m_rewrite_ns += t_m.elapsed().as_nanos() as u64;
        if orphaned {
            let t_gc = Instant::now();
            collected.push(d);
            is_collected.insert(d);
            // Cascade outgoing edges (∆'V) and collect the node.
            let children: Vec<NodeId> = vs.dag().children(d).to_vec();
            for c in children {
                vs.dag_mut().remove_edge(d, c);
                cut_from.entry(c).or_default().push(d);
                report.cascaded_edges += 1;
            }
            report.gc_nodes += 1;
            report.l_splice_ns += t_gc.elapsed().as_nanos() as u64;
        }
    }
    let t_l = Instant::now();
    topo.remove_many(&collected);
    report.l_splice_ns += t_l.elapsed().as_nanos() as u64;
    // Only now is nothing kept under a collected id — its edges are gone,
    // its `anc` run is empty, `L` is compacted — so only now may the
    // interner hand it out again (a fold allocates nothing itself).
    let t_gc = Instant::now();
    for &d in &collected {
        vs.unregister_node(d)?;
    }
    report.l_splice_ns += t_gc.elapsed().as_nanos() as u64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::eval_path;
    use crate::translate::{apply_delta, xdelete, xinsert};
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::{tuple, Database};
    use rxview_xmlkit::parse_xpath;

    fn fixture() -> (Database, ViewStore, TopoOrder, Reachability) {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let vs = ViewStore::publish(atg, &db).unwrap();
        let topo = TopoOrder::compute(vs.dag());
        let reach = Reachability::compute(vs.dag(), &topo);
        (db, vs, topo, reach)
    }

    /// Oracle: after maintenance, L and M must equal recomputation.
    fn assert_consistent(vs: &ViewStore, topo: &TopoOrder, reach: &Reachability) {
        assert!(topo.is_valid_for(vs.dag()), "L invalid after maintenance");
        let fresh_topo = TopoOrder::compute(vs.dag());
        let fresh_reach = Reachability::compute(vs.dag(), &fresh_topo);
        assert!(
            reach.same_pairs(&fresh_reach),
            "M diverged from recomputation"
        );
    }

    #[test]
    fn insert_existing_shared_subtree_maintains_m_and_l() {
        let (db, mut vs, mut topo, mut reach) = fixture();
        // Alice (S01, currently only under CS650) joins CS320's takenBy:
        // the shared student node gains a parent.
        let p = parse_xpath("course[cno=CS320]/takenBy").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let student = vs.atg().dtd().type_id("student").unwrap();
        let (delta, st) = xinsert(&mut vs, &db, student, tuple!["S01", "Alice"], &eval).unwrap();
        apply_delta(&mut vs, &delta, Some(&st)).unwrap();
        let report = maintain_insert(&vs, &mut topo, &mut reach, &st, &eval.selected);
        // takenBy320 (and CS320, its ancestors) now reach Alice's subtree.
        assert!(report.m_inserted > 0);
        assert_consistent(&vs, &topo, &reach);
    }

    #[test]
    fn insert_fresh_subtree_maintains_m_and_l() {
        let (mut db, mut vs, mut topo, mut reach) = fixture();
        db.insert("course", tuple!["CS100", "Intro", "CS"]).unwrap();
        db.insert("enroll", tuple!["S01", "CS100"]).unwrap();
        let p = parse_xpath("course[cno=CS320]/prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, st) = xinsert(&mut vs, &db, course, tuple!["CS100", "Intro"], &eval).unwrap();
        apply_delta(&mut vs, &delta, Some(&st)).unwrap();
        maintain_insert(&vs, &mut topo, &mut reach, &st, &eval.selected);
        assert_consistent(&vs, &topo, &reach);
        // The new course's takenBy shares student S01 (Alice) — an edge onto
        // a pre-existing node, exercising the swap repair.
        let student = vs.atg().dtd().type_id("student").unwrap();
        let alice = vs
            .dag()
            .genid()
            .lookup(student, &tuple!["S01", "Alice"])
            .unwrap();
        assert!(vs.dag().parents(alice).len() >= 2);
    }

    #[test]
    fn delete_edge_keeps_shared_node() {
        let (_db, mut vs, mut topo, mut reach) = fixture();
        // Remove CS320 from CS650's prereq; CS320 survives (db still links it).
        let p = parse_xpath("course[cno=CS650]/prereq/course[cno=CS320]").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let delta = xdelete(&eval);
        apply_delta(&mut vs, &delta, None).unwrap();
        let report = maintain_delete(&mut vs, &mut topo, &mut reach, &eval.selected).unwrap();
        assert_eq!(report.gc_nodes, 0);
        assert!(report.m_removed > 0); // prereq650 no longer reaches CS320's subtree
        assert_consistent(&vs, &topo, &reach);
    }

    #[test]
    fn delete_last_edge_garbage_collects() {
        let (_db, mut vs, mut topo, mut reach) = fixture();
        // Delete every occurrence of S01 (only under CS650's takenBy):
        // the student node becomes unreachable and is collected, together
        // with its pcdata children.
        let p = parse_xpath("//student[ssn=S01]").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let delta = xdelete(&eval);
        apply_delta(&mut vs, &delta, None).unwrap();
        let report = maintain_delete(&mut vs, &mut topo, &mut reach, &eval.selected).unwrap();
        assert_eq!(report.gc_nodes, 3); // student + ssn + name
        assert!(report.cascaded_edges >= 2);
        let student = vs.atg().dtd().type_id("student").unwrap();
        assert!(vs
            .dag()
            .genid()
            .lookup(student, &tuple!["S01", "Alice"])
            .is_none());
        assert!(!vs
            .gen_db()
            .table("gen_student")
            .unwrap()
            .contains_key(&tuple!["S01", "Alice"]));
        assert_consistent(&vs, &topo, &reach);
    }

    #[test]
    fn delete_shared_child_updates_reachability_of_all_ancestors() {
        // Example 6: deleting S02 below CS320 also severs CS650's
        // reachability to S02 (the CS320 subtree is shared).
        let (_db, mut vs, mut topo, mut reach) = fixture();
        let course = vs.atg().dtd().type_id("course").unwrap();
        let student = vs.atg().dtd().type_id("student").unwrap();
        let cs650 = vs
            .dag()
            .genid()
            .lookup(course, &tuple!["CS650", "Advanced DB"])
            .unwrap();
        let s02 = vs
            .dag()
            .genid()
            .lookup(student, &tuple!["S02", "Bob"])
            .unwrap();
        assert!(reach.is_ancestor(cs650, s02));
        let p = parse_xpath("//course[cno=CS320]/takenBy/student[ssn=S02]").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let delta = xdelete(&eval);
        apply_delta(&mut vs, &delta, None).unwrap();
        maintain_delete(&mut vs, &mut topo, &mut reach, &eval.selected).unwrap();
        // S02 still taken by CS240 (kept), so the node survives...
        assert!(vs.dag().genid().is_live(s02));
        // ...but CS320 (and CS650 through it) no longer reach S02 via CS320's
        // takenBy. CS650 still reaches S02 through CS320→prereq→CS240!
        let cs240_path = reach.is_ancestor(cs650, s02);
        assert!(cs240_path, "S02 still reachable via CS240's takenBy");
        assert_consistent(&vs, &topo, &reach);
    }

    /// §3.4's ∆(M,L)delete, as a cost model: a student enrolled in `p`
    /// courses has `p` parents; deleting one course collects its `takenBy`
    /// parent, whose ancestors every sibling `takenBy` still reaches. The
    /// pass reads fewer than `p` parent runs — the same count at `p` = 20
    /// and 200 — where the Fig.8 recompute merged all `p - 1` survivors.
    #[test]
    fn deleting_one_of_p_parents_reads_fewer_than_p_runs() {
        let runs_read = |p: usize| {
            let mut db = registrar_database();
            for i in 0..p {
                let cno = format!("X{i}");
                db.insert(
                    "course",
                    tuple![cno.as_str(), format!("T{i}").as_str(), "CS"],
                )
                .unwrap();
                db.insert("enroll", tuple!["S01", cno.as_str()]).unwrap();
            }
            let atg = registrar_atg(&db).unwrap();
            let mut vs = ViewStore::publish(atg, &db).unwrap();
            let mut topo = TopoOrder::compute(vs.dag());
            let mut reach = Reachability::compute(vs.dag(), &topo);
            let student = vs.atg().dtd().type_id("student").unwrap();
            let alice = vs
                .dag()
                .genid()
                .lookup(student, &tuple!["S01", "Alice"])
                .unwrap();
            assert_eq!(vs.dag().parents(alice).len(), p + 1);

            let eval = eval_path(&vs, &topo, &parse_xpath("course[cno=X0]").unwrap());
            apply_delta(&mut vs, &xdelete(&eval), None).unwrap();
            PARENT_RUNS.with(|c| c.set(0));
            let report = maintain_delete(&mut vs, &mut topo, &mut reach, &eval.selected).unwrap();
            assert!(report.gc_nodes >= 3, "the course, its prereq and takenBy");
            assert_consistent(&vs, &topo, &reach);
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
    /// (Ids, not words: how many words the same ids take depends on whether
    /// the anchor's ids share a block with the root's, which the star's
    /// size decides.)
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
            let atg = registrar_atg(&db).unwrap();
            let mut vs = ViewStore::publish(atg, &db).unwrap();
            let mut topo = TopoOrder::compute(vs.dag());
            let mut reach = Reachability::compute(vs.dag(), &topo);
            assert_eq!(topo.len(), 5 * n + 1);
            let p = parse_xpath("course[cno=C7]/prereq").unwrap();
            let eval = eval_path(&vs, &topo, &p);
            let course = vs.atg().dtd().type_id("course").unwrap();
            let (delta, st) = xinsert(&mut vs, &db, course, tuple!["NEW", "Fresh"], &eval).unwrap();
            apply_delta(&mut vs, &delta, Some(&st)).unwrap();
            let before = crate::reach::IDS_WRITTEN.with(|c| c.get());
            let report = maintain_insert(&vs, &mut topo, &mut reach, &st, &eval.selected);
            let ids = crate::reach::IDS_WRITTEN.with(|c| c.get()) - before;
            assert_eq!(ids, report.m_inserted, "only the new subtree's runs");
            assert_consistent(&vs, &topo, &reach);
            ids
        };
        let (small, large) = (written(20), written(2_000));
        assert!(small > 0 && small <= 32, "{small} ids written");
        assert_eq!(small, large, "the ids written grow with the view");
    }

    #[test]
    fn delete_then_reinsert_round_trips() {
        let (db, mut vs, mut topo, mut reach) = fixture();
        let p = parse_xpath("course[cno=CS650]/prereq/course[cno=CS320]").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let delta = xdelete(&eval);
        apply_delta(&mut vs, &delta, None).unwrap();
        maintain_delete(&mut vs, &mut topo, &mut reach, &eval.selected).unwrap();

        let p2 = parse_xpath("course[cno=CS650]/prereq").unwrap();
        let eval2 = eval_path(&vs, &topo, &p2);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta2, st) =
            xinsert(&mut vs, &db, course, tuple!["CS320", "Algorithms"], &eval2).unwrap();
        apply_delta(&mut vs, &delta2, Some(&st)).unwrap();
        maintain_insert(&vs, &mut topo, &mut reach, &st, &eval2.selected);
        assert_consistent(&vs, &topo, &reach);
    }
}
