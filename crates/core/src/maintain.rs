//! Incremental maintenance of `L` (§3.4): the `L` halves of Algorithms
//! **∆(M,L)insert** (Fig.7) and **∆(M,L)delete** (Fig.8), plus the
//! background garbage collection of unreachable `gen_B` entries (§2.3).
//!
//! In the paper's framework this work runs in the background after the
//! foreground update completes; here it is an explicit deferred phase so
//! experiments can time it separately (the (c) constituent of Fig.11).
//!
//! The serving system holds no reachability matrix `M`, so the `M` halves
//! of Fig.7/8 are not run here: the bench harness runs them beside this
//! fold (`crates/bench/src/maintain.rs`), for Table 1 and the oracles that
//! hold them to Algorithm Reach. What the paper reads `M` for, this fold
//! answers by walking the DAG ([`crate::reach`]).
//!
//! # Cost model
//!
//! A *fold* is all the jobs one [`crate::XmlViewSystem::fold_maintenance`]
//! call is handed:
//!
//! - **insert:** a job splices its fresh nodes into `L` as one block and
//!   repairs each edge onto a pre-existing node that `L` orders the wrong
//!   way with `swap`, whose "below `v`" is a walk down from `v`
//!   ([`crate::reach::DescWalk`]) — run only for an edge that needs the
//!   repair, and uncut, so it is exact whatever later edges of the fold
//!   still wait for theirs. The next job needs positions, so each job
//!   splices as it goes;
//! - **delete:** the pass reads no ancestor set. A node is collected when
//!   no live parent links it any more; the candidates are the deleted
//!   edges' children and the children of what was collected, visited
//!   ancestors first (latest in `L` first), so each is decided once. The
//!   work is the collected nodes and their child lists, not the subtree
//!   below a deleted edge. `L` is compacted once, since nothing reads a
//!   position after the candidates are ordered;
//! - **ids:** a collected node's id goes back to the interner last, after
//!   that compaction — until then `L` still names it.
//!
//! A fold runs one [`insert_job`] per insertion and one [`delete_pass`]
//! over all its deletions; a single update's maintenance is a fold of one
//! job.

use crate::reach::with_walk;
use crate::topo::TopoOrder;
use rxview_atg::{Dag, NodeId, SubtreeDag};
use std::collections::{BTreeSet, BinaryHeap};
use std::time::Instant;

/// What maintenance did — counts for reporting and the cascaded deletions
/// `∆'V` handed to the garbage collector, plus the fold's time.
#[derive(Debug, Clone, Default)]
pub struct MaintainReport {
    /// Nodes garbage-collected (removed from `L` and `gen_A`).
    pub gc_nodes: usize,
    /// Cascaded edge deletions `∆'V` applied by the collector.
    pub cascaded_edges: usize,
    /// Always 0: the fold rewrites no `M`. Kept for `rxbench`'s
    /// `core.fold.m_rewrite_us` until ROADMAP 4(h).
    pub m_rewrite_ns: u64,
    /// Nanoseconds of the fold: the block splice and `swap` repairs of an
    /// insert; the collection of unreachable nodes, their edge cascade and
    /// the one compaction of `L` of a delete pass.
    pub l_splice_ns: u64,
    /// Passes folded into this report: one per insert job, plus one per
    /// delete pass (a fold runs at most one, over all its deletions).
    pub cone_folds: u64,
}

impl MaintainReport {
    /// Accumulates another report's counters (batch folding).
    pub fn absorb(&mut self, other: &MaintainReport) {
        self.gc_nodes += other.gc_nodes;
        self.cascaded_edges += other.cascaded_edges;
        self.m_rewrite_ns += other.m_rewrite_ns;
        self.l_splice_ns += other.l_splice_ns;
        self.cone_folds += other.cone_folds;
    }
}

#[cfg(test)]
thread_local! {
    /// Nodes the `swap` repairs' walks reached on this thread — the
    /// cost-model guard's work counter.
    static SWAP_WALKED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The `L` half of Algorithm **∆(M,L)insert** (Fig.7) for one inserted
/// subtree, one job of a fold: `L` is left valid for the jobs so far. Call
/// *after* the `∆V` insertions have been applied to the DAG. Fresh nodes
/// are spliced in (children before parents, before the earliest target)
/// and order violations from edges onto pre-existing nodes are repaired
/// with the paper's `swap(L, u, v)` primitive (Fig.7 lines 8–13).
pub fn insert_job(
    dag: &Dag,
    topo: &mut TopoOrder,
    subtree: &SubtreeDag,
    targets: &[NodeId],
) -> MaintainReport {
    let t_splice = Instant::now();
    let fresh: BTreeSet<NodeId> = subtree.fresh.iter().copied().collect();

    // ---- L: splice fresh nodes in parents-first at the earliest target. ----
    if !fresh.is_empty() {
        // Post-order DFS over fresh nodes gives children-first; reverse for
        // parents-first insertion at a fixed index.
        let mut order = Vec::with_capacity(fresh.len());
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        fn post_order(
            dag: &Dag,
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

    // ---- L repair for edges onto pre-existing nodes (Fig.7 lines 8–13). ----
    // Connecting edges (target, root) when the root pre-existed, and subtree
    // edges into shared old nodes, can violate the order; repair with swap,
    // whose "x is below v" is a walk down from `v` over the whole DAG: a
    // walk cut at `L` positions could miss a path through an edge of this
    // fold that is not repaired yet.
    let mut below = Vec::new();
    let mut repair = |u: NodeId, v: NodeId| {
        let (Some(pu), Some(pv)) = (topo.position(u), topo.position(v)) else {
            return;
        };
        if pu < pv {
            with_walk(|walk| {
                below.clear();
                walk.closure(dag, [v], &mut below, usize::MAX);
                #[cfg(test)]
                SWAP_WALKED.with(|c| c.set(c.get() + below.len()));
                topo.swap(u, v, &|x| walk.holds(x));
            });
        }
    };
    for &t in targets {
        repair(t, subtree.root);
    }
    for &(u, v) in &subtree.edges {
        repair(u, v);
    }
    MaintainReport {
        cone_folds: 1,
        l_splice_ns: t_splice.elapsed().as_nanos() as u64,
        ..MaintainReport::default()
    }
}

/// The delete pass of a fold, over all its deletion targets (the children
/// of its deleted edges): the paper's background garbage collection, and
/// the `L` half of Algorithm **∆(M,L)delete** (Fig.8). Call *after* the
/// `∆V` deletions have been applied to the DAG.
///
/// A candidate with no live parent left is unreachable: its outgoing edges
/// are cascaded (`∆'V`), its children become candidates, and it leaves `L`
/// and its `gen` table. Candidates are visited latest in `L` first —
/// ancestors first — and a node's parents all precede it there, so when a
/// candidate is visited every parent that will be collected already is.
pub fn delete_pass(dag: &mut Dag, topo: &mut TopoOrder, selected: &[NodeId]) -> MaintainReport {
    let t_gc = Instant::now();
    let mut report = MaintainReport {
        cone_folds: 1,
        ..MaintainReport::default()
    };
    let ranked = |topo: &TopoOrder, v: NodeId| (topo.position(v).unwrap_or(u64::MAX), v);
    let mut open: BinaryHeap<(u64, NodeId)> = selected.iter().map(|&v| ranked(topo, v)).collect();
    let mut collected: Vec<NodeId> = Vec::new();
    let mut last = None;
    while let Some(next) = open.pop() {
        // Equal entries pop together: the node is decided once.
        if last.replace(next) == Some(next) {
            continue;
        }
        let d = next.1;
        let live = |p: &NodeId| dag.genid().is_live(*p);
        if dag.parents(d).iter().any(live) {
            continue;
        }
        // Cascade outgoing edges (∆'V) and collect the node.
        let children: Vec<NodeId> = dag.children(d).to_vec();
        for c in children {
            dag.remove_edge(d, c);
            open.push(ranked(topo, c));
            report.cascaded_edges += 1;
        }
        collected.push(d);
    }
    report.gc_nodes = collected.len();
    topo.remove_many(&collected);
    // Only now is nothing kept under a collected id — its edges are gone,
    // `L` is compacted — so only now may the interner hand it out again (a
    // fold allocates nothing itself).
    for &d in &collected {
        dag.genid_mut().retire(d);
    }
    report.l_splice_ns = t_gc.elapsed().as_nanos() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::eval_path;
    use crate::translate::{apply_delta, xdelete, xinsert};
    use crate::viewstore::ViewStore;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::{tuple, Database};
    use rxview_xmlkit::parse_xpath;

    /// The registrar view with `n` more courses, `S01` enrolled in each.
    fn star(n: usize) -> (Database, ViewStore, TopoOrder) {
        let mut db = registrar_database();
        for i in 0..n {
            let cno = format!("X{i}");
            db.insert(
                "course",
                tuple![cno.as_str(), format!("T{i}").as_str(), "CS"],
            )
            .unwrap();
            db.insert("enroll", tuple!["S01", cno.as_str()]).unwrap();
        }
        let vs = ViewStore::publish(registrar_atg(&db).unwrap(), &db).unwrap();
        let topo = TopoOrder::compute(vs.dag());
        (db, vs, topo)
    }

    /// The delete pass as a cost model: deleting one of `n` courses that
    /// each list the shared student `S01` collects the course's subtree and
    /// visits its candidates only — the same nodes and cascaded edges at
    /// `n` = 20 and 200, where `S01` has `n + 1` parents — and leaves `L`
    /// valid.
    #[test]
    fn a_delete_pass_visits_what_it_collects_at_two_view_sizes() {
        let pass = |n: usize| {
            let (_, mut vs, mut topo) = star(n);
            let eval = eval_path(&vs, &topo, &parse_xpath("course[cno=X0]").unwrap());
            apply_delta(&mut vs, &xdelete(&eval));
            let report = delete_pass(vs.dag_mut(), &mut topo, &eval.selected);
            assert!(topo.is_valid_for(vs.dag()));
            assert_eq!(topo.len(), vs.n_nodes());
            (report.gc_nodes, report.cascaded_edges)
        };
        let (small, large) = (pass(20), pass(200));
        assert!(
            small.0 >= 3,
            "the course, its prereq and takenBy: {small:?}"
        );
        assert_eq!(small, large, "the pass grows with the view");
    }

    /// The `swap` repair as a cost model: linking an existing course under
    /// another's `prereq` walks below the linked course when `L` orders
    /// the edge the wrong way, and nothing else — the same nodes under a
    /// 21- and a 2 001-course view.
    #[test]
    fn a_swap_repair_walks_below_its_edge_only_at_two_view_sizes() {
        let walked = |n: usize| {
            let (db, mut vs, mut topo) = star(n);
            let mut total = 0;
            for i in 0..n.min(10) {
                // Both directions, so some edges need the repair.
                let (a, b) = if i % 2 == 0 { (i, i + 1) } else { (i + 1, i) };
                let p = parse_xpath(&format!("course[cno=X{a}]/prereq")).unwrap();
                let eval = eval_path(&vs, &topo, &p);
                let course = vs.atg().dtd().type_id("course").unwrap();
                let (cno, title) = (format!("X{b}"), format!("T{b}"));
                let attr = tuple![cno.as_str(), title.as_str()];
                let (delta, st) = xinsert(&mut vs, &db, course, attr, &eval).unwrap();
                apply_delta(&mut vs, &delta);
                SWAP_WALKED.with(|c| c.set(0));
                insert_job(vs.dag(), &mut topo, &st, &eval.selected);
                total += SWAP_WALKED.with(|c| c.get());
                assert!(topo.is_valid_for(vs.dag()));
            }
            total
        };
        let (small, large) = (walked(20), walked(2_000));
        assert!(small > 0, "some edge needed the repair");
        assert_eq!(small, large, "the repairs' walks grow with the view");
    }

    #[test]
    fn a_fresh_subtree_is_spliced_before_its_target() {
        let (mut db, mut vs, mut topo) = star(0);
        db.insert("course", tuple!["CS100", "Intro", "CS"]).unwrap();
        db.insert("enroll", tuple!["S01", "CS100"]).unwrap();
        let p = parse_xpath("course[cno=CS320]/prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, st) = xinsert(&mut vs, &db, course, tuple!["CS100", "Intro"], &eval).unwrap();
        apply_delta(&mut vs, &delta);
        let report = insert_job(vs.dag(), &mut topo, &st, &eval.selected);
        assert_eq!((report.cone_folds, report.m_rewrite_ns), (1, 0));
        assert!(topo.is_valid_for(vs.dag()));
        assert_eq!(topo.len(), vs.n_nodes());
        let target = eval.selected[0];
        let below = |v| topo.position(v).unwrap() < topo.position(target).unwrap();
        assert!(st.fresh.iter().all(|&v| below(v)));
    }
}
