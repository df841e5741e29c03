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
//! `M`'s sets are immutable runs ([`crate::reach`]), so both algorithms are
//! written as bulk edits of whole ancestor sets, and a *fold* — all the
//! jobs one [`crate::XmlViewSystem::fold_maintenance`] call is handed —
//! shares one [`ReachBatch`]:
//!
//! - **eager:** every `anc(x)` an insert job or the delete pass changes is
//!   rewritten at once, one merge per `x` per job. These runs are short
//!   (the depth of the view, a few thousand ids for a widely shared node),
//!   and later jobs of the same fold read them: `anc(target)` for ∆M part
//!   (b), and the `swap` repair's "is `x` below `v`" test, which therefore
//!   asks the `anc` direction only;
//! - **batched:** the `desc` half of those pairs is queued in one flat list
//!   and flushed with one sort and one merge per touched ancestor — after
//!   the last insert job (the delete pass builds `LR` from `descendants`)
//!   and again after the delete pass. The root's run, which every job of a fold touches,
//!   is thus copied once or twice per fold. An insert job that reads
//!   `desc(v)` of an old node `v` shared into its subtree reads it through
//!   the batch ([`Reachability::descendants_in`]), or it would miss what an
//!   earlier job of the same fold queued under `v`;
//! - **`L`:** an insert job splices and repairs as it goes (the next job
//!   needs positions); the delete pass only *names* its garbage-collected
//!   nodes and compacts `L` once, since nothing reads a position after
//!   `LR` is sorted;
//! - **ids:** a collected node's id goes back to the interner last, after
//!   that compaction and the final flush — until then `L` and the batch
//!   still name it.
//!
//! [`maintain_insert`] and [`maintain_delete`] are folds of one job.

use crate::reach::{ReachBatch, Reachability, RunBuf};
use crate::topo::TopoOrder;
use crate::viewstore::ViewStore;
use rxview_atg::{NodeId, SubtreeDag};
use rxview_relstore::RelResult;
use std::collections::{BTreeSet, HashMap};
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
    /// Nanoseconds spent rewriting `M` (∆M parts (a)/(b) on insert; building
    /// `LR` and the per-node ancestor-set recomputation on delete; the
    /// flushes of the batched `desc` direction).
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
/// - `∆M` part (a): reachability inside the inserted `ST(A,t)` is computed
///   by the Reach recurrence over the fresh nodes (memoizing into existing
///   descendant sets at the subtree boundary);
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
    let mut batch = ReachBatch::default();
    let mut report = insert_job(vs, topo, reach, &mut batch, subtree, targets);
    flush(reach, &mut batch, &mut report);
    report
}

/// Turns gathered ids into a set in ascending order.
fn sort_dedup(ids: &mut Vec<NodeId>) {
    ids.sort_unstable();
    ids.dedup();
}

/// Applies the fold's queued `desc`-direction edits, on the `M` clock.
pub(crate) fn flush(reach: &mut Reachability, batch: &mut ReachBatch, report: &mut MaintainReport) {
    let t_m = Instant::now();
    reach.flush(batch);
    report.m_rewrite_ns += t_m.elapsed().as_nanos() as u64;
}

/// One ∆(M,L)insert job of a fold: `L` is left valid and `anc` exact for
/// the jobs so far, `desc` is owed `batch`'s flush.
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
            .filter_map(|&t| topo.position(t))
            .min()
            .unwrap_or(topo.len());
        let block: Vec<NodeId> = order
            .iter()
            .copied()
            .filter(|v| topo.position(*v).is_none())
            .collect();
        topo.insert_many_at(at.min(topo.len()), &block);
    }
    report.l_splice_ns += t_splice.elapsed().as_nanos() as u64;

    // ---- ∆M (a): descendants of every fresh node. ----
    let t_m = Instant::now();
    // Memoized DFS: desc(v) = ∪_c ({c} ∪ desc(c)); old nodes answer from M
    // as the fold so far has left it.
    let mut below: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    fn desc_of_fresh(
        dag: &rxview_atg::Dag,
        reach: &Reachability,
        batch: &mut ReachBatch,
        fresh: &BTreeSet<NodeId>,
        below: &mut HashMap<NodeId, Vec<NodeId>>,
        v: NodeId,
    ) {
        if below.contains_key(&v) {
            return;
        }
        let mut out = Vec::new();
        for &c in dag.children(v) {
            out.push(c);
            if fresh.contains(&c) {
                desc_of_fresh(dag, reach, batch, fresh, below, c);
                out.extend_from_slice(&below[&c]);
            } else {
                // The DAG may have just gained edges below old nodes only
                // via the subtree root connections; those are handled by (b).
                reach.descendants_in(c, batch).extend_into(&mut out);
            }
        }
        sort_dedup(&mut out);
        below.insert(v, out);
    }
    for &v in &subtree.fresh {
        desc_of_fresh(dag, reach, batch, &fresh, &mut below, v);
    }
    // The new pairs as `(desc, anc)`, so that sorting groups them by the
    // node whose `anc` run they extend.
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for (&v, desc) in &below {
        pairs.extend(desc.iter().filter(|&&x| x != v).map(|&x| (x, v)));
    }

    // ---- ∆M (b): ancestors of targets reach the whole subtree. ----
    let mut anc_targets: Vec<NodeId> = targets.to_vec();
    for &t in targets {
        reach.ancestors(t).extend_into(&mut anc_targets);
    }
    sort_dedup(&mut anc_targets);
    let mut below_targets =
        |d: NodeId| pairs.extend(anc_targets.iter().filter(|&&a| a != d).map(|&a| (d, a)));
    below_targets(subtree.root);
    match below.get(&subtree.root) {
        Some(desc) => desc.iter().copied().for_each(below_targets),
        None => reach
            .descendants_in(subtree.root, batch)
            .iter()
            .for_each(below_targets),
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
                // `anc` is exact here; `desc(v)` still waits for the flush.
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
/// order (ancestors first), recomputing each node's ancestor set from its
/// surviving parents. Nodes left with no surviving parents are unreachable:
/// they are removed from `L`, dropped from `M`, their outgoing edges are
/// cascaded (`∆'V`), and their `gen` entries are collected — the paper's
/// background garbage collection.
pub(crate) fn maintain_delete(
    vs: &mut ViewStore,
    topo: &mut TopoOrder,
    reach: &mut Reachability,
    selected: &[NodeId],
) -> RelResult<MaintainReport> {
    delete_pass(vs, topo, reach, &mut ReachBatch::default(), selected)
}

/// The ∆(M,L)delete pass of a fold over all its deletion targets. `batch`
/// must be flushed (the pass reads `descendants`); it is flushed again
/// before returning.
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

    // LR: the targets and all their descendants, sorted by L.
    let t_lr = Instant::now();
    let mut lr: Vec<NodeId> = selected.to_vec();
    for &v in selected {
        reach.descendants(v).extend_into(&mut lr);
    }
    sort_dedup(&mut lr);
    lr.sort_by_key(|v| topo.position(*v).unwrap_or(usize::MAX));
    report.m_rewrite_ns += t_lr.elapsed().as_nanos() as u64;

    let mut collected: Vec<NodeId> = Vec::new();
    // Backward traversal: ancestors first.
    for &d in lr.iter().rev() {
        // Surviving parents: edges already removed from the DAG (a
        // collected parent's were cascaded when it was visited).
        let t_m = Instant::now();
        let dag = vs.dag();
        let live = |a: &NodeId| dag.genid().is_live(*a);
        let survivors = || dag.parents(d).iter().copied().filter(live);
        let orphaned = survivors().next().is_none();
        report.m_removed += if orphaned {
            reach.collect_node(d, batch)
        } else {
            reach.set_ancestors_from(d, survivors(), batch)
        };
        report.m_rewrite_ns += t_m.elapsed().as_nanos() as u64;
        if orphaned {
            let t_gc = Instant::now();
            collected.push(d);
            // Cascade outgoing edges (∆'V) and collect the node.
            let children: Vec<NodeId> = vs.dag().children(d).to_vec();
            for c in children {
                vs.dag_mut().remove_edge(d, c);
                report.cascaded_edges += 1;
            }
            report.gc_nodes += 1;
            report.l_splice_ns += t_gc.elapsed().as_nanos() as u64;
        }
    }
    let t_l = Instant::now();
    topo.remove_many(&collected);
    report.l_splice_ns += t_l.elapsed().as_nanos() as u64;
    flush(reach, batch, &mut report);
    // Only now is nothing kept under a collected id — its edges are gone,
    // `L` is compacted, `batch` holds no edit naming it — so only now may
    // the interner hand it out again (a fold allocates nothing itself).
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
        let eval = eval_path(&vs, &topo, &reach, &p);
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
        let eval = eval_path(&vs, &topo, &reach, &p);
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
        let eval = eval_path(&vs, &topo, &reach, &p);
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
        let eval = eval_path(&vs, &topo, &reach, &p);
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
        let eval = eval_path(&vs, &topo, &reach, &p);
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

    #[test]
    fn delete_then_reinsert_round_trips() {
        let (db, mut vs, mut topo, mut reach) = fixture();
        let p = parse_xpath("course[cno=CS650]/prereq/course[cno=CS320]").unwrap();
        let eval = eval_path(&vs, &topo, &reach, &p);
        let delta = xdelete(&eval);
        apply_delta(&mut vs, &delta, None).unwrap();
        maintain_delete(&mut vs, &mut topo, &mut reach, &eval.selected).unwrap();

        let p2 = parse_xpath("course[cno=CS650]/prereq").unwrap();
        let eval2 = eval_path(&vs, &topo, &reach, &p2);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta2, st) =
            xinsert(&mut vs, &db, course, tuple!["CS320", "Algorithms"], &eval2).unwrap();
        apply_delta(&mut vs, &delta2, Some(&st)).unwrap();
        maintain_insert(&vs, &mut topo, &mut reach, &st, &eval2.selected);
        assert_consistent(&vs, &topo, &reach);
    }
}
