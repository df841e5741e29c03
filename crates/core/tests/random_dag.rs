//! Randomized tests of the auxiliary structures (§3.1, §3.4) on synthetic
//! DAGs built directly through the `Dag` API: Algorithm Reach against the
//! naive closure and the bulk load the reference crate stores its closure
//! through (`Reachability::from_ancestors`), `M`'s one direction
//! (`is_ancestor`) and the descendant walk that stands in for the other
//! against a model closure — also over free and recycled ids — the
//! `swap(L, u, v)` repair under random edge insertions, and the serving
//! fold's `L` half (`insert_job`, `delete_pass`) with the paper's ∆M
//! (`rxview_bench::maintain`) beside it on deep-chain and wide-sharing
//! DAGs, held after every job to a valid `L` and to Algorithm Reach.

use proptest::prelude::*;
use rxview_atg::{Dag, GenId, NodeId, SubtreeDag};
use rxview_bench::maintain::TrackedM;
use rxview_core::reach::{closes_cycle, descendants};
use rxview_core::{delete_pass, insert_job, Reachability, TopoOrder};
use rxview_reference::compute_naive;
use rxview_relstore::{schema, Tuple, Value};
use rxview_xmlkit::TypeId;
use std::collections::BTreeSet;

/// Builds a DAG with `n` nodes and the given forward edges `(i, j)` with
/// `i < j` (guaranteeing acyclicity). Node 0 is the root; every node is
/// additionally connected from the root so all nodes are live and reachable.
fn build_dag(n: usize, edges: &[(usize, usize)]) -> Dag {
    let mut dag = Dag::new(GenId::new(vec![schema("gen_t").col_int("i").key(&["i"])]));
    let ty = TypeId(0);
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            dag.genid_mut()
                .gen_id(ty, Tuple::from_values([Value::Int(i as i64)]))
                .0
        })
        .collect();
    dag.set_root(ids[0]);
    for &id in &ids[1..] {
        dag.add_edge(ids[0], id);
    }
    for &(i, j) in edges {
        let (i, j) = (i.min(j), i.max(j).min(n - 1));
        if i != j {
            dag.add_edge(ids[i], ids[j]);
        }
    }
    dag
}

/// The model closure: every `(a, d)` with `d` strictly below `a`, by one
/// search down the child lists per live node.
fn closure(dag: &Dag) -> BTreeSet<(NodeId, NodeId)> {
    let mut pairs = BTreeSet::new();
    for a in dag.genid().live_ids() {
        let mut stack = dag.children(a).to_vec();
        while let Some(d) = stack.pop() {
            if pairs.insert((a, d)) {
                stack.extend_from_slice(dag.children(d));
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reach_equals_naive_closure(
        n in 2usize..20,
        edges in prop::collection::vec((0usize..20, 0usize..20), 0..40),
    ) {
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let dag = build_dag(n, &edges);
        prop_assert!(dag.leaves_first().is_some());
        let topo = TopoOrder::compute(&dag);
        prop_assert!(topo.is_valid_for(&dag));
        let fast = Reachability::compute(&dag, &topo);
        let naive = compute_naive(&dag);
        prop_assert!(fast.same_pairs(&naive));
        // Each live `d` with its ascending `anc(d)` bulk-loads back to the
        // same matrix.
        let listed = dag.genid().live_ids().map(|d| (d, fast.ancestors(d)));
        let loaded = Reachability::from_ancestors(listed).expect("runs of a computed M");
        prop_assert!(loaded.same_pairs(&fast));
    }

    /// `M` stores ancestors only: on DAGs whose id space has free ids and
    /// ids recycled to nodes that sit anywhere in `L`, `is_ancestor` answers
    /// the model closure for every pair of ids, the descendant walk returns
    /// the closure's `desc(a)` for every id, and the bulk load of the
    /// computed runs is the same matrix, word for word.
    #[test]
    fn the_walk_and_is_ancestor_match_the_closure_over_recycled_ids(
        n in 3usize..24,
        edges in prop::collection::vec((0usize..24, 0usize..24), 0..48),
        victims in prop::collection::vec(1usize..24, 0..6),
        reborn in prop::collection::vec((0usize..24, 0usize..24, 0usize..24), 0..6),
    ) {
        // A node's rank orders the edges: every edge climbs in rank, so any
        // id can sit anywhere in `L`.
        let ty = TypeId(0);
        let node = |label: usize| Tuple::from_values([Value::Int(label as i64)]);
        let edges: Vec<(usize, usize)> = edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let mut dag = build_dag(n, &edges);
        let mut rank: Vec<(NodeId, usize)> = (0..n)
            .map(|i| (dag.genid().lookup(ty, node(i).values()).expect("built"), i))
            .collect();
        // Free some ids: every edge of the victim goes, then the node.
        for v in victims.into_iter().map(|v| v % n).filter(|&v| v != 0) {
            let Some(at) = rank.iter().position(|&(_, r)| r == v) else { continue };
            let (id, _) = rank.swap_remove(at);
            for p in dag.parents(id).to_vec() {
                dag.remove_edge(p, id);
            }
            for c in dag.children(id).to_vec() {
                dag.remove_edge(id, c);
            }
            dag.genid_mut().retire(id);
        }
        // Recycle some: a new node takes the lowest free id, under the root
        // and between two live nodes in rank.
        for (k, (at, up, down)) in reborn.into_iter().enumerate() {
            let (id, fresh) = dag.genid_mut().gen_id(ty, node(1_000 + k));
            prop_assert!(fresh);
            let r = at % n;
            dag.add_edge(dag.root(), id);
            for (other, other_rank) in [rank[up % rank.len()], rank[down % rank.len()]] {
                if other_rank < r {
                    dag.add_edge(other, id);
                } else if other_rank > r {
                    dag.add_edge(id, other);
                }
            }
            rank.push((id, r));
        }
        prop_assert!(dag.leaves_first().is_some());
        let topo = TopoOrder::compute(&dag);
        let fast = Reachability::compute(&dag, &topo);
        let model = closure(&dag);
        let ids = || (0..dag.genid().n_allocated() as u32 + 1).map(NodeId);
        for a in ids() {
            for d in ids() {
                prop_assert_eq!(fast.is_ancestor(a, d), model.contains(&(a, d)), "({}, {})", a.0, d.0);
            }
            let below: Vec<NodeId> = model.range((a, NodeId(0))..=(a, NodeId(u32::MAX))).map(|&(_, d)| d).collect();
            prop_assert_eq!(descendants(&dag, a), below, "desc({})", a.0);
        }
        let listed = dag.genid().live_ids().map(|d| (d, fast.ancestors(d)));
        let loaded = Reachability::from_ancestors(listed).expect("runs of a computed M");
        prop_assert!(loaded.same_pairs(&fast));
        prop_assert_eq!(fast.n_words(), loaded.n_words());
        prop_assert_eq!(fast.n_pairs(), model.len());
        prop_assert!(fast.same_pairs(&compute_naive(&dag)));
    }

    #[test]
    fn swap_repair_keeps_topological_validity(
        n in 3usize..16,
        base_edges in prop::collection::vec((0usize..16, 0usize..16), 0..20),
        new_edges in prop::collection::vec((0usize..16, 0usize..16), 1..8),
    ) {
        let base: Vec<(usize, usize)> =
            base_edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let mut dag = build_dag(n, &base);
        let mut topo = TopoOrder::compute(&dag);
        let ty = TypeId(0);
        let id_of = |dag: &Dag, i: usize| {
            dag.genid()
                .lookup(ty, Tuple::from_values([Value::Int(i as i64)]).values())
                .expect("node exists")
        };
        for (a, b) in new_edges {
            let (i, j) = ((a % n).min(b % n), (a % n).max(b % n));
            if i == j {
                continue;
            }
            let (u, v) = (id_of(&dag, i), id_of(&dag, j));
            // Forward edges only: acyclicity is preserved by construction.
            if dag.has_edge(u, v) {
                continue;
            }
            dag.add_edge(u, v);
            // Maintain M by recomputation (the paper's incremental ∆M is
            // tested end-to-end elsewhere; here the subject is swap).
            let fresh_topo = TopoOrder::compute(&dag);
            let reach = Reachability::compute(&dag, &fresh_topo);
            // Repair L with the paper's swap primitive if violated.
            if let (Some(pu), Some(pv)) = (topo.position(u), topo.position(v)) {
                if pu < pv {
                    topo.swap(u, v, &|x| reach.is_ancestor(v, x));
                }
            }
            prop_assert!(
                topo.is_valid_for(&dag),
                "L invalid after inserting edge {i}->{j}"
            );
        }
    }

    #[test]
    fn topo_remove_preserves_validity(
        n in 2usize..16,
        edges in prop::collection::vec((0usize..16, 0usize..16), 0..24),
        victim in 1usize..16,
    ) {
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let mut dag = build_dag(n, &edges);
        let topo_before = TopoOrder::compute(&dag);
        let ty = TypeId(0);
        let victim = victim % n;
        if victim == 0 {
            return Ok(()); // never remove the root
        }
        let v = dag
            .genid()
            .lookup(ty, Tuple::from_values([Value::Int(victim as i64)]).values())
            .expect("exists");
        // Remove all edges touching the victim, retire it, and drop it from L.
        let parents: Vec<NodeId> = dag.parents(v).to_vec();
        for p in parents {
            dag.remove_edge(p, v);
        }
        let children: Vec<NodeId> = dag.children(v).to_vec();
        for c in children {
            dag.remove_edge(v, c);
        }
        dag.genid_mut().retire(v);
        let mut topo = topo_before;
        topo.remove(v);
        prop_assert!(topo.is_valid_for(&dag));

        // The next node takes the victim's id, and lands in `L` and `M`
        // like any new one: under the root, above some older node.
        let (reborn, fresh) = dag
            .genid_mut()
            .gen_id(ty, Tuple::from_values([Value::Int(1_000)]));
        prop_assert!(fresh);
        prop_assert_eq!(reborn, v, "a released id is handed out first");
        let root = dag.root();
        let below = dag.genid().live_ids().find(|&c| c != root && c != reborn);
        dag.add_edge(root, reborn);
        if let Some(c) = below {
            dag.add_edge(reborn, c);
        }
        // Descendants first: behind everything but the root.
        topo.insert_at(topo.len() - 1, reborn);
        prop_assert!(topo.is_valid_for(&dag));
        let reach = Reachability::compute(&dag, &topo);
        prop_assert!(reach.same_pairs(&compute_naive(&dag)));
        prop_assert_eq!(reach.ancestors(reborn), &[root][..]);
    }

    /// Jobs of several edges on a deep chain and on a DAG of wide sharing:
    /// a fresh node linked under several targets and onto several old
    /// nodes, an old node linked under several targets — so a job's later
    /// edges still wait for their `swap` while an earlier one is repaired
    /// — folded `batch` insertions at a time, as `fold_maintenance` folds a
    /// batch, so a job's edges also wait on the jobs before it; and edge
    /// deletions, which may collect. After every fold `L` is a valid order
    /// of the live nodes and ∆M's `M` is Algorithm Reach's; between folds
    /// the cycle guard answers what `M` does for reversed edges.
    #[test]
    fn folds_keep_l_valid_and_delta_m_exact_on_deep_and_wide_dags(
        deep in 0usize..2,
        n in 4usize..40,
        batch in 1usize..4,
        jobs in prop::collection::vec(
            (0usize..3, prop::collection::vec(0usize..1_000, 1..5), 0usize..1_000),
            1..16,
        ),
    ) {
        let ty = TypeId(0);
        let node = |label: usize| Tuple::from_values([Value::Int(label as i64)]);
        let edges: Vec<(usize, usize)> = if deep == 1 {
            (2..n).map(|j| (j - 1, j)).collect()
        } else {
            // Up to three more parents per node, spread over the nodes
            // before it, besides the root.
            let spread = |j: usize, salt: usize| j.wrapping_mul(2_654_435_761 + salt).rotate_left(13) % j;
            (1..n).flat_map(|j| [(spread(j, 0), j), (spread(j, 1), j), (j / 2, j)]).collect()
        };
        let mut dag = build_dag(n, &[]);
        let id = |dag: &Dag, i: usize| dag.genid().lookup(ty, node(i).values()).expect("built");
        if deep == 1 {
            // One chain under the root: its edges go, but to node 1.
            let (root, first) = (dag.root(), id(&dag, 1));
            for v in dag.children(root).to_vec() {
                if v != first {
                    dag.remove_edge(root, v);
                }
            }
        }
        for &(i, j) in &edges {
            let (u, v) = (id(&dag, i), id(&dag, j));
            if !dag.has_edge(u, v) {
                dag.add_edge(u, v);
            }
        }
        // A node's rank orders every edge, so none closes a cycle.
        let mut rank: Vec<(NodeId, usize)> = (0..n).map(|i| (id(&dag, i), i * 1_000)).collect();
        let mut topo = TopoOrder::compute(&dag);
        let mut m = TrackedM::from(Reachability::compute(&dag, &topo));
        let mut pending: Vec<(SubtreeDag, Vec<NodeId>)> = Vec::new();
        let total = jobs.len();
        for (k, (kind, picks, at)) in jobs.into_iter().enumerate() {
            rank.retain(|&(v, _)| dag.genid().is_live(v));
            let pick = |i: usize| rank[i % rank.len()];
            match kind {
                // A fresh node at rank `at`, under the picks below it and
                // above the picks over it.
                0 => {
                    let r = at * n + 1;
                    let (f, fresh) = dag.genid_mut().gen_id(ty, node(100_000 + k));
                    prop_assert!(fresh);
                    let (mut targets, mut below) = (Vec::new(), Vec::new());
                    for (v, rv) in picks.iter().map(|&i| pick(i)) {
                        if rv < r && !targets.contains(&v) {
                            targets.push(v);
                        } else if rv > r && !below.contains(&v) {
                            below.push(v);
                        }
                    }
                    if targets.is_empty() {
                        targets.push(dag.root());
                    }
                    for &t in &targets {
                        dag.add_edge(t, f);
                    }
                    for &x in &below {
                        dag.add_edge(f, x);
                    }
                    rank.push((f, r));
                    let st = SubtreeDag {
                        root: f,
                        edges: below.iter().map(|&x| (f, x)).collect(),
                        nodes: [f].into_iter().chain(below).collect(),
                        fresh: vec![f],
                    };
                    pending.push((st, targets));
                }
                // An old node under the picks ranked below it that are not
                // its parents yet.
                1 => {
                    let (v, rv) = pick(at);
                    let mut targets = Vec::new();
                    for (u, ru) in picks.iter().map(|&i| pick(i)) {
                        if ru < rv && !dag.has_edge(u, v) && !targets.contains(&u) {
                            targets.push(u);
                        }
                    }
                    if targets.is_empty() {
                        continue;
                    }
                    // Between folds `L` is valid, and the guard refuses the
                    // reversed edges exactly when `M` does.
                    for &t in targets.iter().filter(|_| pending.is_empty()) {
                        prop_assert_eq!(
                            closes_cycle(&dag, &topo, [t], &[v]),
                            m.m().is_ancestor(t, v),
                            "guard on ({}, {})", v.0, t.0
                        );
                        prop_assert!(!closes_cycle(&dag, &topo, [v], &[t]));
                    }
                    for &t in &targets {
                        dag.add_edge(t, v);
                    }
                    let st = SubtreeDag { root: v, edges: Vec::new(), nodes: vec![v], fresh: Vec::new() };
                    pending.push((st, targets));
                }
                // The edge into a pick from one of its parents, in a fold
                // of its own.
                _ => {
                    fold_inserts(&dag, &mut topo, &mut m, &mut pending);
                    let (c, _) = pick(at);
                    let Some(&p) = dag.parents(c).first() else { continue };
                    dag.remove_edge(p, c);
                    m.delete(&dag, &[c]);
                    delete_pass(&mut dag, &mut topo, &[c]);
                }
            }
            if pending.len() >= batch || k + 1 == total {
                fold_inserts(&dag, &mut topo, &mut m, &mut pending);
            }
            if pending.is_empty() {
                prop_assert!(topo.is_valid_for(&dag), "L after job {}", k);
                prop_assert_eq!(topo.len(), dag.genid().n_live());
                let recomputed = Reachability::compute(&dag, &topo);
                prop_assert!(m.m().same_pairs(&recomputed), "M after job {}", k);
            }
        }
    }
}

/// One fold of the insertions `pending` holds, whose edges are all in
/// `dag`: ∆M's halves in order, then the serving fold's `insert_job`s in
/// order, as `TrackedM::fold` and `fold_maintenance` run them.
fn fold_inserts(
    dag: &Dag,
    topo: &mut TopoOrder,
    m: &mut TrackedM,
    pending: &mut Vec<(SubtreeDag, Vec<NodeId>)>,
) {
    for (st, targets) in pending.iter() {
        m.insert(dag, st, targets);
    }
    for (st, targets) in pending.drain(..) {
        insert_job(dag, topo, &st, &targets);
    }
}
