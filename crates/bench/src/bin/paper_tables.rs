//! Regenerates every table and figure of the paper's evaluation (§5) as
//! text tables.
//!
//! ```text
//! cargo run --release -p rxview-bench --bin paper_tables -- all
//! cargo run --release -p rxview-bench --bin paper_tables -- fig10b fig11-del
//! cargo run --release -p rxview-bench --bin paper_tables -- all --sizes 1000,10000 --large
//! ```
//!
//! Experiments: `fig10b`, `fig11-del` (Fig.11 a–c), `fig11-ins` (Fig.11 d–f),
//! `fig11g`, `fig11h`, `table1`, or `all`. `--large` appends 100K (and, for
//! table1, exercises the same sizes) to the sweep. The two ablations run by
//! name only: `ablation-reach` (D1: Algorithm Reach vs the naive closure,
//! then D1b: the serving system's walks vs keeping `M`, on the workload
//! fixtures at 256 and 512 groups and on a deep chain and a wide-sharing
//! DAG — its own sizes) and `ablation-dag` (D2).

use rxview_bench::walks::{dag_row, workload_row, Cost, WalkRow};
use rxview_bench::{
    ablation_dag_rows, ablation_reach_row, fig10b_row, fig11_cell, fig11g_point, fig11h_point,
    fmt_dur, table1_row, PhaseAgg,
};
use rxview_workload::WorkloadClass;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments: Vec<String> = Vec::new();
    let mut sizes: Vec<usize> = vec![1_000, 3_000, 10_000, 30_000];
    let mut ops_per_class = 10usize;
    let mut large = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                i += 1;
                sizes = args[i]
                    .split(',')
                    .map(|s| s.parse().expect("size list like 1000,10000"))
                    .collect();
            }
            "--ops" => {
                i += 1;
                ops_per_class = args[i].parse().expect("op count");
            }
            "--large" => large = true,
            other => experiments.push(other.to_string()),
        }
        i += 1;
    }
    if large {
        sizes.push(100_000);
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = vec![
            "fig10b".into(),
            "fig11-del".into(),
            "fig11-ins".into(),
            "fig11g".into(),
            "fig11h".into(),
            "table1".into(),
        ];
    }
    for e in &experiments {
        match e.as_str() {
            "fig10b" => fig10b(&sizes),
            "fig11-del" => fig11(&sizes, false, ops_per_class),
            "fig11-ins" => fig11(&sizes, true, ops_per_class),
            "fig11g" => fig11g(),
            "fig11h" => fig11h(),
            "table1" => table1(&sizes),
            "ablation-reach" => ablation_reach(&sizes),
            "ablation-dag" => ablation_dag(&sizes),
            other => eprintln!("unknown experiment `{other}` (skipped)"),
        }
    }
}

fn fig10b(sizes: &[usize]) {
    println!("== Fig.10(b): dataset statistics ==");
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>9} {:>10} {:>12} {:>10} {:>9}",
        "|C|",
        "base rows",
        "DAG nodes",
        "DAG edges",
        "nodes(C)",
        "shared",
        "tree nodes",
        "|M|",
        "|L|"
    );
    for &n in sizes {
        let s = fig10b_row(n, 42);
        let tree = if s.tree_nodes == u128::MAX {
            "~inf".to_string()
        } else {
            s.tree_nodes.to_string()
        };
        println!(
            "{:>9} {:>10} {:>10} {:>10} {:>9} {:>9.1}% {:>12} {:>10} {:>9}",
            s.n_c,
            s.total_rows,
            s.dag_nodes,
            s.dag_edges,
            s.published_nodes,
            s.sharing_pct(),
            tree,
            s.m_pairs,
            s.l_len
        );
    }
    println!();
}

fn phase_row(n: usize, class: &str, agg: &PhaseAgg) {
    println!(
        "{:>9} {:>5} {:>11} {:>11} {:>11} {:>11} {:>5}/{:<5} {:>6} {:>6}",
        n,
        class,
        fmt_dur(agg.eval),
        fmt_dur(agg.translate),
        fmt_dur(agg.maintain),
        fmt_dur(agg.total()),
        agg.accepted,
        agg.accepted + agg.rejected,
        agg.delta_v_total,
        agg.delta_r_total,
    );
}

fn fig11(sizes: &[usize], insertions: bool, ops: usize) {
    let what = if insertions {
        "insertions (Fig.11 d–f)"
    } else {
        "deletions (Fig.11 a–c)"
    };
    println!("== Fig.11: {what}, {ops} ops/class ==");
    println!(
        "{:>9} {:>5} {:>11} {:>11} {:>11} {:>11} {:>11} {:>6} {:>6}",
        "|C|", "class", "(a) eval", "(b) trans", "(c) maint", "total", "acc/total", "|dV|", "|dR|"
    );
    for &n in sizes {
        for class in WorkloadClass::all() {
            let agg = fig11_cell(n, class, insertions, ops, 42);
            phase_row(n, class.name(), &agg);
        }
    }
    if insertions {
        println!("(SAT solver engaged on demand; rejected ops include key conflicts — see README.md and ARCHITECTURE.md §1)");
    }
    println!();
}

fn fig11g() {
    let n = 20_000;
    println!("== Fig.11(g): varying |Ep(r)| (deletions) and |r[[p]]| (insertions), |C|={n} ==");
    println!(
        "{:>4} {:>10} {:>11} {:>11} {:>11} {:>11}",
        "k", "|target|", "(a) eval", "(b) trans", "(c) maint", "total"
    );
    for deletion in [true, false] {
        println!(
            "-- {} --",
            if deletion { "deletions" } else { "insertions" }
        );
        for k in [1usize, 2, 4, 8, 16] {
            let (size, agg) = fig11g_point(n, k, deletion, 42);
            println!(
                "{:>4} {:>10} {:>11} {:>11} {:>11} {:>11} {:>4}",
                k,
                size,
                fmt_dur(agg.eval),
                fmt_dur(agg.translate),
                fmt_dur(agg.maintain),
                fmt_dur(agg.total()),
                if agg.accepted > 0 { "ok" } else { "REJ" },
            );
        }
    }
    println!();
}

fn fig11h() {
    let n = 20_000;
    println!("== Fig.11(h): varying |ST(A,t)| with |r[[p]]|=1, |C|={n} ==");
    println!(
        "{:>10} {:>11} {:>11} {:>11} {:>11}",
        "|ST(A,t)|", "(a) eval", "(b) trans", "(c) maint", "total"
    );
    for s in [1usize, 10, 100, 1_000, 5_000] {
        let (size, agg) = fig11h_point(n, s, 42);
        println!(
            "{:>10} {:>11} {:>11} {:>11} {:>11} {:>4}",
            size,
            fmt_dur(agg.eval),
            fmt_dur(agg.translate),
            fmt_dur(agg.maintain),
            fmt_dur(agg.total()),
            if agg.accepted > 0 { "ok" } else { "REJ" },
        );
    }
    println!();
}

fn table1(sizes: &[usize]) {
    println!("== Table 1: incremental maintenance of L and M vs recomputation ==");
    println!("   (L: the serving fold; ∆M: the paper's M halves, run beside it)");
    println!(
        "{:>9} {:>11} {:>11} {:>11} {:>11} {:>12} {:>12}",
        "|C|", "L ins", "∆M ins", "L del", "∆M del", "recompute L", "recompute M"
    );
    for &n in sizes {
        let r = table1_row(n, 42);
        println!(
            "{:>9} {:>11} {:>11} {:>11} {:>11} {:>12} {:>12}",
            r.n,
            fmt_dur(r.incr_insert),
            fmt_dur(r.delta_m_insert),
            fmt_dur(r.incr_delete),
            fmt_dur(r.delta_m_delete),
            fmt_dur(r.recompute_l),
            fmt_dur(r.recompute_m),
        );
    }
    println!();
}

fn ablation_reach(sizes: &[usize]) {
    reach_vs_naive(sizes);
    walks_vs_m();
}

/// The walks the serving system answers reachability with, against `M`'s
/// upkeep and reads: per update of each workload fixture at 256 and 512
/// groups, and per call on a deep chain and a wide-sharing DAG.
fn walks_vs_m() {
    println!("== Ablation D1b: walks over the DAG vs keeping M (ns per update) ==");
    println!(
        "{:<28} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "shape",
        "ops",
        "anc walk",
        "anc M",
        "guard wk",
        "guard M",
        "fold L",
        "∆M",
        "walks",
        "+fold L",
        "M total"
    );
    let print = |r: &WalkRow| {
        let per = |c: &Cost| format!("{:.0}", c.ns_per(r.updates));
        println!(
            "{:<28} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9.0} {:>9.0} {:>9.0}",
            r.shape,
            r.updates,
            per(&r.anc_walk),
            per(&r.anc_read),
            per(&r.guard_walk),
            per(&r.guard_read),
            per(&r.fold_l),
            per(&r.delta_m),
            r.walks_ns(false),
            r.walks_ns(true),
            r.m_ns(),
        );
    };
    for groups in [256, 512] {
        for workload in ["uniform_wide", "skew_sharded", "paper_classes"] {
            print(&workload_row(workload, groups, 256));
        }
    }
    let dags = [dag_row(2_000, true, 200), dag_row(2_000, false, 200)];
    for r in &dags {
        print(r);
    }
    println!("   worst case per call (ns):");
    for r in &dags {
        let call = |c: &Cost| {
            format!(
                "{:.0} mean / {} worst",
                c.ns_per(c.calls),
                c.worst.as_nanos()
            )
        };
        println!(
            "   {:<28} anc walk {}, anc M {}; guard walk {}, guard M {}",
            r.shape,
            call(&r.anc_walk),
            call(&r.anc_read),
            call(&r.guard_walk),
            call(&r.guard_read),
        );
    }
    println!();
}

fn reach_vs_naive(sizes: &[usize]) {
    println!("== Ablation D1: Algorithm Reach (Fig.4) vs naive per-node closure ==");
    println!(
        "{:>9} {:>16} {:>16}",
        "|C|", "algorithm reach", "naive closure"
    );
    for &n in sizes {
        let r = ablation_reach_row(n, 42);
        println!(
            "{:>9} {:>16} {:>16}",
            r.n,
            fmt_dur(r.algorithm_reach),
            fmt_dur(r.naive_closure)
        );
    }
    println!();
}

fn ablation_dag(sizes: &[usize]) {
    println!("== Ablation D2: evaluation on the DAG (§3.2) vs on the expanded tree ==");
    println!(
        "{:>9} {:>12} {:>36} {:>11} {:>11}",
        "|C|", "tree nodes", "path", "on DAG", "on tree"
    );
    for &n in sizes {
        for r in ablation_dag_rows(n, 42) {
            println!(
                "{:>9} {:>12} {:>36} {:>11} {:>11}",
                r.n,
                r.tree_nodes,
                r.path,
                fmt_dur(r.dag),
                r.tree.map_or("too large".into(), fmt_dur),
            );
        }
    }
    println!();
}
