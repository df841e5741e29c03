//! Shared experiment harness: system construction, workload execution with
//! per-phase timing, and the row types each figure/table prints.

use crate::maintain::{apply_tracked, TrackedM};
use rxview_core::{
    Reachability, SideEffectPolicy, TopoOrder, UpdateError, XmlUpdate, XmlViewSystem,
};
use rxview_reference::{compute_naive, eval_on_tree, eval_xpath_on_dag};
use rxview_workload::{
    dataset_stats, detached_chain_heads, synthetic_atg, synthetic_database, DatasetStats,
    SyntheticConfig, WorkloadClass, WorkloadGen,
};
use std::time::{Duration, Instant};

/// A constructed system plus its generator configuration.
pub struct BuiltSystem {
    /// Generator parameters used.
    pub cfg: SyntheticConfig,
    /// The published system.
    pub sys: XmlViewSystem,
    /// Wall-clock time to publish the view.
    pub publish_time: Duration,
    /// Wall-clock time to build `L` and compute `M`.
    pub aux_time: Duration,
}

/// Builds a synthetic system of size `n` (with optional detached chains).
pub fn build_system(n: usize, detached_chains: Vec<usize>, seed: u64) -> BuiltSystem {
    let mut cfg = SyntheticConfig::with_size(n);
    cfg.seed = seed;
    cfg.detached_chains = detached_chains;
    let db = synthetic_database(&cfg);
    let atg = synthetic_atg(&db).expect("synthetic ATG builds");
    let t0 = Instant::now();
    let vs = rxview_core::ViewStore::publish(atg.clone(), &db).expect("publishes");
    let publish_time = t0.elapsed();
    let t1 = Instant::now();
    let topo = TopoOrder::compute(vs.dag());
    let _reach = Reachability::compute(vs.dag(), &topo);
    let aux_time = t1.elapsed();
    // XmlViewSystem builds `L` itself and holds no `M`; the timings above
    // are reported separately for Fig.10(b)/Table 1 context.
    let sys = XmlViewSystem::new(atg, db).expect("publishes");
    BuiltSystem {
        cfg,
        sys,
        publish_time,
        aux_time,
    }
}

/// Aggregated per-phase timings over a batch of updates — the (a)/(b)/(c)
/// constituents of Fig.11.
#[derive(Debug, Clone, Default)]
pub struct PhaseAgg {
    /// (a) XPath evaluation on the DAG.
    pub eval: Duration,
    /// (b) ∆X→∆V and ∆V→∆R translation + execution.
    pub translate: Duration,
    /// (c) background maintenance of `M`/`L` + GC.
    pub maintain: Duration,
    /// Updates accepted.
    pub accepted: usize,
    /// Updates rejected (side effects unavoidable, key conflicts, ...).
    pub rejected: usize,
    /// Insertions for which the SAT solver produced an assignment.
    pub sat_used: usize,
    /// Total `∆V` edge operations across accepted updates.
    pub delta_v_total: usize,
    /// Total `∆R` tuple operations across accepted updates.
    pub delta_r_total: usize,
}

impl PhaseAgg {
    /// Total foreground + background time.
    pub fn total(&self) -> Duration {
        self.eval + self.translate + self.maintain
    }
}

/// Applies `ops` to `sys`, accumulating phase timings.
pub fn run_updates(sys: &mut XmlViewSystem, ops: &[XmlUpdate]) -> PhaseAgg {
    let mut agg = PhaseAgg::default();
    for u in ops {
        match sys.apply(u, SideEffectPolicy::Proceed) {
            Ok(report) => {
                agg.accepted += 1;
                agg.eval += report.timings.eval;
                agg.translate += report.timings.translate;
                agg.maintain += report.timings.maintain;
                agg.delta_v_total += report.delta_v_len;
                agg.delta_r_total += report.delta_r.len();
                if report.sat_used {
                    agg.sat_used += 1;
                }
            }
            Err(UpdateError::EmptyTarget) | Err(_) => {
                agg.rejected += 1;
            }
        }
    }
    agg
}

/// One row of the Fig.10(b) statistics table.
pub fn fig10b_row(n: usize, seed: u64) -> DatasetStats {
    let built = build_system(n, Vec::new(), seed);
    let topo = built.sys.topo();
    let reach = Reachability::compute(built.sys.view().dag(), topo);
    dataset_stats(&built.cfg, built.sys.base(), built.sys.view(), topo, &reach)
}

/// One Fig.11(a–f) cell: run one workload class (deletions or insertions)
/// of `ops_per_class` operations at size `n`.
pub fn fig11_cell(
    n: usize,
    class: WorkloadClass,
    insertions: bool,
    ops_per_class: usize,
    seed: u64,
) -> PhaseAgg {
    let mut built = build_system(n, Vec::new(), seed);
    let ops: Vec<XmlUpdate> = {
        let mut gen = WorkloadGen::new(built.sys.view(), seed ^ 0xabcd);
        if insertions {
            gen.insertions(class, ops_per_class)
        } else {
            gen.deletions(class, ops_per_class)
        }
    };
    run_updates(&mut built.sys, &ops)
}

/// Fig.11(g): vary the update size `|r[[p]]|` (insertions) or `|Ep(r)|`
/// (deletions) at fixed `|C|` by widening a payload disjunction filter.
/// Returns `(measured update size, phases)`.
pub fn fig11g_point(n: usize, k_payloads: usize, deletion: bool, seed: u64) -> (usize, PhaseAgg) {
    let chains = if deletion {
        Vec::new()
    } else {
        vec![1usize; 1]
    };
    let mut built = build_system(n, chains, seed);
    // Build the payload disjunction p=0 or p=1 or ...
    let disj = (0..k_payloads)
        .map(|p| format!("payload={p}"))
        .collect::<Vec<_>>()
        .join(" or ");
    // Deletions target nodes strictly below the top level (`node//node[...]`)
    // so every affected edge has a dedicated H-tuple source; top-level
    // listing edges would require deleting the C tuple itself, which is
    // unsafe whenever the node still has children.
    let op = if deletion {
        XmlUpdate::delete(&format!("node//node[{disj}]")).expect("parses")
    } else {
        let head = detached_chain_heads(&built.cfg)[0];
        XmlUpdate::insert(
            "node",
            chain_head_attr(&built.sys, head),
            &format!("//node[{disj}][sub/node]/sub"),
        )
        .expect("parses")
    };
    // Measure the selection size first (read-only).
    let (vs, topo) = (built.sys.view(), built.sys.topo());
    let eval = eval_xpath_on_dag(vs, topo, &Reachability::compute(vs.dag(), topo), op.path());
    let size = if deletion {
        eval.edge_parents.len()
    } else {
        eval.selected.len()
    };
    let agg = run_updates(&mut built.sys, std::slice::from_ref(&op));
    (size, agg)
}

/// Fig.11(h): vary `|ST(A,t)|` with `|r[[p]]| = 1`, inserting detached
/// chains of increasing length under a single internal node.
pub fn fig11h_point(n: usize, subtree_size: usize, seed: u64) -> (usize, PhaseAgg) {
    let mut built = build_system(n, vec![subtree_size], seed);
    let head = detached_chain_heads(&built.cfg)[0];
    // A single target: the first internal root's sub.
    let target = {
        let mut gen = WorkloadGen::new(built.sys.view(), seed);
        gen.insertions(WorkloadClass::W2, 1)
            .into_iter()
            .next()
            .and_then(|u| match u {
                XmlUpdate::Insert { path, .. } => Some(path),
                _ => None,
            })
    };
    let Some(path) = target else {
        return (0, PhaseAgg::default());
    };
    let path_str = path.to_string();
    let op =
        XmlUpdate::insert("node", chain_head_attr(&built.sys, head), &path_str).expect("parses");
    let agg = run_updates(&mut built.sys, std::slice::from_ref(&op));
    (subtree_size, agg)
}

/// The `$node` attribute `(c1, c5)` of a detached-chain head, read from the
/// base `CU` relation (the payload is generator-chosen).
fn chain_head_attr(sys: &XmlViewSystem, head: i64) -> rxview_relstore::Tuple {
    let row = sys
        .base()
        .table("CU")
        .expect("CU exists")
        .get(&rxview_relstore::Tuple::from_values([
            rxview_relstore::Value::Int(head),
        ]))
        .expect("chain head generated")
        .clone();
    rxview_relstore::Tuple::from_values([row[0].clone(), row[4].clone()])
}

/// One Table-1 row: incremental maintenance cost for one insertion and one
/// deletion — the serving fold's `L` half and the paper's ∆M
/// ([`crate::maintain`]), apart — vs recomputing `L` and `M` from scratch.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// |C|.
    pub n: usize,
    /// The serving fold (`L` and collection) of an insertion.
    pub incr_insert: Duration,
    /// ∆M of the same insertion.
    pub delta_m_insert: Duration,
    /// The serving fold (`L` and collection) of a deletion.
    pub incr_delete: Duration,
    /// ∆M of the same deletion.
    pub delta_m_delete: Duration,
    /// Recomputing `L` from scratch.
    pub recompute_l: Duration,
    /// Recomputing `M` from scratch.
    pub recompute_m: Duration,
}

/// Runs the Table-1 comparison at size `n`, and checks the incremental `M`
/// against the recomputed one.
pub fn table1_row(n: usize, seed: u64) -> Table1Row {
    let mut built = build_system(n, Vec::new(), seed);
    let (ins, del) = {
        let mut gen = WorkloadGen::new(built.sys.view(), seed ^ 0x77);
        (
            gen.insertions(WorkloadClass::W2, 1).pop().expect("op"),
            gen.deletions(WorkloadClass::W2, 1).pop().expect("op"),
        )
    };
    let mut m = TrackedM::of(&built.sys);
    let mut timed = |u: &XmlUpdate| {
        apply_tracked(&mut built.sys, &mut m, u, SideEffectPolicy::Proceed)
            .map(|(r, delta)| (r.timings.maintain, delta.took))
            .unwrap_or_default()
    };
    let (incr_insert, delta_m_insert) = timed(&ins);
    let (incr_delete, delta_m_delete) = timed(&del);
    let t0 = Instant::now();
    let topo = TopoOrder::compute(built.sys.view().dag());
    let recompute_l = t0.elapsed();
    let t1 = Instant::now();
    let recomputed = Reachability::compute(built.sys.view().dag(), &topo);
    let recompute_m = t1.elapsed();
    assert!(m.m().same_pairs(&recomputed), "∆M equals Algorithm Reach");
    Table1Row {
        n,
        incr_insert,
        delta_m_insert,
        incr_delete,
        delta_m_delete,
        recompute_l,
        recompute_m,
    }
}

/// One `ablation-reach` row: computing `M` by Algorithm Reach (Fig.4,
/// `O(n |V|)` over the backward topological order) vs the naive per-node
/// closure.
#[derive(Debug, Clone)]
pub struct ReachAblationRow {
    /// |C|.
    pub n: usize,
    /// [`Reachability::compute`].
    pub algorithm_reach: Duration,
    /// [`compute_naive`].
    pub naive_closure: Duration,
}

/// Runs the Reach ablation at size `n`.
pub fn ablation_reach_row(n: usize, seed: u64) -> ReachAblationRow {
    let built = build_system(n, Vec::new(), seed);
    let dag = built.sys.view().dag();
    let t0 = Instant::now();
    let m = Reachability::compute(dag, built.sys.topo());
    let algorithm_reach = t0.elapsed();
    let t1 = Instant::now();
    let naive = compute_naive(dag);
    let naive_closure = t1.elapsed();
    assert_eq!(m.n_pairs(), naive.n_pairs(), "both compute the same M");
    ReachAblationRow {
        n,
        algorithm_reach,
        naive_closure,
    }
}

/// Largest expanded tree `ablation-dag` builds: past this the tree side is
/// skipped (the tree grows ~800 nodes per unit of |C|; 30 000 is 20 M).
pub const ABLATION_TREE_CAP: u128 = 3_000_000;

/// One `ablation-dag` row: one update-path shape evaluated on the
/// compressed DAG by the serving evaluator (§3.2,
/// [`XmlViewSystem::evaluate`]) vs on the expanded tree by the naive tree
/// evaluator — the cost the compression avoids.
#[derive(Debug, Clone)]
pub struct DagAblationRow {
    /// |C|.
    pub n: usize,
    /// The path evaluated.
    pub path: &'static str,
    /// Evaluation on the DAG (the plan already compiled).
    pub dag: Duration,
    /// Evaluation on the expanded tree (expansion itself excluded); `None`
    /// when the tree would exceed [`ABLATION_TREE_CAP`] nodes.
    pub tree: Option<Duration>,
    /// Nodes of the expanded tree.
    pub tree_nodes: u128,
}

/// Runs the DAG-vs-tree ablation at size `n`, one row per path shape.
pub fn ablation_dag_rows(n: usize, seed: u64) -> Vec<DagAblationRow> {
    const PATHS: [&str; 3] = [
        "//node[payload=7]",
        "node/sub/node/sub/node",
        "node[sub/node]/sub/node[payload=3]",
    ];
    let built = build_system(n, Vec::new(), seed);
    let (sys, vs) = (&built.sys, built.sys.view());
    let m = Reachability::compute(vs.dag(), sys.topo());
    let tree_nodes = dataset_stats(&built.cfg, sys.base(), vs, sys.topo(), &m).tree_nodes;
    let tree = (tree_nodes <= ABLATION_TREE_CAP).then(|| vs.dag().expand(vs.atg()));
    PATHS
        .iter()
        .map(|&path| {
            let xpath = rxview_xmlkit::parse_xpath(path).expect("parses");
            sys.evaluate(&xpath); // compiles the shape's plan, as serving has
            let t0 = Instant::now();
            let on_dag = sys.evaluate(&xpath);
            let dag = t0.elapsed();
            std::hint::black_box(on_dag);
            let tree = tree.as_ref().map(|tree| {
                let t1 = Instant::now();
                let on_tree = eval_on_tree(tree, vs.atg().dtd(), &xpath);
                let elapsed = t1.elapsed();
                std::hint::black_box(on_tree);
                elapsed
            });
            DagAblationRow {
                n,
                path,
                dag,
                tree,
                tree_nodes,
            }
        })
        .collect()
}

/// Formats a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}
