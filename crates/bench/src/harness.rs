//! Shared experiment harness: system construction, workload execution with
//! per-phase timing, and the row types each figure/table prints.

use crate::maintain::{apply_tracked, DeltaMReport, TrackedM};
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
    /// Wall-clock time to publish the view (`ViewStore::publish`).
    pub publish_time: Duration,
    /// `M`, computed once the system is built. The system holds none, so
    /// the rows that report `M` read this one.
    pub m: Reachability,
}

/// Builds a synthetic system of size `n` (with optional detached chains)
/// in [`XmlViewSystem::new`]'s order: the view published once, timed, then
/// equal rows shared in place, and the system assembled from the store and
/// `L` — the state `new` builds (`build_system_is_the_state_new_publishes`).
/// `M` is computed beside it.
pub fn build_system(n: usize, detached_chains: Vec<usize>, seed: u64) -> BuiltSystem {
    let mut cfg = SyntheticConfig::with_size(n);
    cfg.seed = seed;
    cfg.detached_chains = detached_chains;
    let mut db = synthetic_database(&cfg);
    let atg = synthetic_atg(&db).expect("synthetic ATG builds");
    let t0 = Instant::now();
    let vs = rxview_core::ViewStore::publish(atg, &db).expect("publishes");
    let publish_time = t0.elapsed();
    db.share_equal_rows();
    let topo = TopoOrder::compute(vs.dag());
    let m = Reachability::compute(vs.dag(), &topo);
    let sys = XmlViewSystem::from_parts(db, vs, topo, Reachability::default());
    BuiltSystem {
        cfg,
        sys,
        publish_time,
        m,
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

/// One row of the Fig.10(b) statistics table, and the time its view took
/// to publish.
pub fn fig10b_row(n: usize, seed: u64) -> (DatasetStats, Duration) {
    let built = build_system(n, Vec::new(), seed);
    let sys = &built.sys;
    let stats = dataset_stats(&built.cfg, sys.base(), sys.view(), sys.topo(), &built.m);
    (stats, built.publish_time)
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

/// What one of a Table-1 row's updates measured.
#[derive(Debug, Clone)]
pub enum Table1Update {
    /// It changed `M`: the serving fold (`L` and collection) and ∆M of it.
    Timed(Duration, DeltaMReport),
    /// Accepted, but it changed no pair of `M`: its time would measure no
    /// maintenance.
    NoPair,
    /// Rejected: nothing was applied.
    Rejected,
}

/// One Table-1 row: incremental maintenance cost for one insertion and one
/// deletion — the serving fold's `L` half and the paper's ∆M
/// ([`crate::maintain`]), apart — vs recomputing `L` and `M` from scratch.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// |C|.
    pub n: usize,
    /// The W2 insertion.
    pub insert: Table1Update,
    /// The W2 deletion, run after the insertion.
    pub delete: Table1Update,
    /// Recomputing `L` from scratch.
    pub recompute_l: Duration,
    /// Recomputing `M` from scratch.
    pub recompute_m: Duration,
    /// Block words the recomputed `M` stores: what a recompute writes.
    pub recompute_m_words: usize,
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
    let mut timed =
        |u: &XmlUpdate| match apply_tracked(&mut built.sys, &mut m, u, SideEffectPolicy::Proceed) {
            Ok((r, delta)) if delta.inserted + delta.removed > 0 => {
                Table1Update::Timed(r.timings.maintain, delta)
            }
            Ok(_) => Table1Update::NoPair,
            Err(_) => Table1Update::Rejected,
        };
    let (insert, delete) = (timed(&ins), timed(&del));
    let t0 = Instant::now();
    let topo = TopoOrder::compute(built.sys.view().dag());
    let recompute_l = t0.elapsed();
    let t1 = Instant::now();
    let recomputed = Reachability::compute(built.sys.view().dag(), &topo);
    let recompute_m = t1.elapsed();
    assert!(m.m().same_pairs(&recomputed), "∆M equals Algorithm Reach");
    Table1Row {
        n,
        insert,
        delete,
        recompute_l,
        recompute_m,
        recompute_m_words: recomputed.n_words(),
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
    let tree_nodes = dataset_stats(&built.cfg, sys.base(), vs, sys.topo(), &built.m).tree_nodes;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_system_is_the_state_new_publishes() {
        let built = build_system(300, vec![6], 7);
        let db = synthetic_database(&built.cfg);
        let atg = synthetic_atg(&db).expect("synthetic ATG builds");
        let sys = XmlViewSystem::new(atg, db).expect("publishes");
        let (exact, new) = (built.sys.exact_digest(), sys.exact_digest());
        assert_eq!(exact.first_difference(&new), None);
        assert_eq!(exact, new);
    }

    /// Table 1's shape in counters (§3.4, through ARCHITECTURE §1's §3.4
    /// row), on the row `paper_tables table1` prints, at |C| = 1 000 and
    /// 4 000: ∆M equals a recompute at both sizes (`table1_row` asserts
    /// `same_pairs`); a recompute writes `n_words`, which grows ≈ 4.9×;
    /// ∆M of the W2 insertion adds pairs that grow by less than half that
    /// factor and writes under a tenth of a recompute's words, and ∆M of
    /// the W2 deletion, where it changes a pair, writes less than a
    /// recompute (at |C| = 1 000 it changes none: marked `NoPair`, not
    /// timed). The ids ∆M writes do not themselves grow that slowly: a run
    /// is rewritten whole, and the insertion's runs are 368 → 1 388 ids
    /// (3.8×).
    #[test]
    fn table1_delta_m_stays_below_a_recompute_at_two_sizes() {
        let (small, large) = (table1_row(1_000, 42), table1_row(4_000, 42));
        let growth = |a: usize, b: usize| b as f64 / a as f64;
        let recompute = growth(small.recompute_m_words, large.recompute_m_words);
        let inserted = |row: &Table1Row| match &row.insert {
            Table1Update::Timed(_, delta) => *delta,
            other => panic!("|C| = {}: the W2 insert is {other:?}", row.n),
        };
        let (ins_small, ins_large) = (inserted(&small), inserted(&large));
        assert!(
            ins_small.inserted > 0
                && growth(ins_small.inserted, ins_large.inserted) < recompute / 2.0,
            "∆M of the W2 insert added {} -> {} pairs while a recompute grew {recompute:.1}x",
            ins_small.inserted,
            ins_large.inserted
        );
        for (row, ins) in [(&small, ins_small), (&large, ins_large)] {
            let words = row.recompute_m_words;
            let ins = ins.ids_written;
            assert!(
                ins > 0 && ins * 10 < words,
                "|C| = {}: ∆M of the W2 insert wrote {ins} ids against {words} words",
                row.n
            );
            if let Table1Update::Timed(_, del) = &row.delete {
                assert!(
                    del.ids_written < words,
                    "|C| = {}: ∆M of the W2 delete wrote {} ids against {words} words",
                    row.n,
                    del.ids_written
                );
            }
        }
    }

    #[test]
    fn the_fig10b_row_counts_the_m_of_its_system() {
        let (row, _) = fig10b_row(300, 7);
        let built = build_system(300, Vec::new(), 7);
        let fresh = Reachability::compute(built.sys.view().dag(), built.sys.topo());
        assert_eq!(row.m_pairs, fresh.n_pairs());
        assert!(built.m.same_pairs(&fresh));
    }
}
