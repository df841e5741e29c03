//! `ablation-reach`'s second table: what the walks the serving system
//! answers reachability with cost, against what keeping `M` would cost —
//! its upkeep (the paper's ∆M, [`crate::maintain`]) plus its reads —
//! per update of a workload and per call on two adversarial DAGs.
//!
//! The serving system asks the DAG three things `M` used to answer:
//!
//! - the ancestors of a `//` anchor (the scope builder): a walk up the
//!   parent lists against a read of `anc(a)`;
//! - the insertion cycle guard: a walk down from the subtree's pre-existing
//!   nodes, cut at the targets' place in `L`, against one `is_ancestor`
//!   per (node, target);
//! - the `swap` repair's "below `v`", inside the `L` fold, which is shown
//!   whole (`fold L`) beside ∆M: both designs pay its splice.
//!
//! A deletion asks nothing: the collector reads parent lists only.

use crate::maintain::TrackedM;
use rxview_atg::{Dag, GenId, NodeId, SubtreeDag};
use rxview_core::reach::{ancestors, closes_cycle};
use rxview_core::{
    delete_pass, insert_job, resolve_anchors, SideEffectPolicy, TopoOrder, XmlUpdate,
    XmlViewSystem, MAX_CONE_ANCHORS,
};
use rxview_relstore::{schema, Tuple, Value};
use rxview_workload::{
    synthetic_atg, synthetic_database, ChurnGen, DescendantConfig, DescendantGen, SyntheticConfig,
    WorkloadClass, WorkloadGen,
};
use rxview_xmlkit::TypeId;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time of one side of a question: the sum, the calls, the worst call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Summed over the calls.
    pub total: Duration,
    /// Calls timed.
    pub calls: usize,
    /// The slowest call.
    pub worst: Duration,
}

impl Cost {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        self.total += took;
        self.calls += 1;
        self.worst = self.worst.max(took);
        out
    }

    /// Nanoseconds per `per` (an update, or a call).
    pub fn ns_per(&self, per: usize) -> f64 {
        self.total.as_nanos() as f64 / per.max(1) as f64
    }
}

/// One row: a shape, and per question both sides' costs.
#[derive(Debug, Clone, Default)]
pub struct WalkRow {
    /// The shape: a workload fixture and its size, or a synthetic DAG.
    pub shape: String,
    /// Updates applied (or edges inserted and deleted, on a bare DAG).
    pub updates: usize,
    /// A `//` anchor's ancestors by walk / read from `M`.
    pub anc_walk: Cost,
    /// The same, read from `M`.
    pub anc_read: Cost,
    /// The cycle guard by walk.
    pub guard_walk: Cost,
    /// The cycle guard by `is_ancestor`.
    pub guard_read: Cost,
    /// The serving fold (`L` and collection, the `swap` walks included).
    pub fold_l: Cost,
    /// ∆M's upkeep of `M`.
    pub delta_m: Cost,
}

impl WalkRow {
    /// What the walks cost per update: the two walks, and — at most — the
    /// whole `L` fold, whose `swap` walks are the third.
    pub fn walks_ns(&self, with_fold: bool) -> f64 {
        let fold = if with_fold {
            self.fold_l.total
        } else {
            Duration::ZERO
        };
        let sum = self.anc_walk.total + self.guard_walk.total + fold;
        sum.as_nanos() as f64 / self.updates.max(1) as f64
    }

    /// What keeping `M` costs per update: ∆M and the two reads.
    pub fn m_ns(&self) -> f64 {
        let sum = self.delta_m.total + self.anc_read.total + self.guard_read.total;
        sum.as_nanos() as f64 / self.updates.max(1) as f64
    }
}

/// The traffic of one `rxbench` workload, by the generators its streams
/// stratify: `uniform_wide` anchored insert/delete pairs over every group,
/// `skew_sharded` hot anchors phrased `//` 60 % of the time,
/// `paper_classes` the W1/W2/W3 insertions and deletions.
fn traffic(workload: &str, sys: &XmlViewSystem, groups: usize, n: usize) -> Vec<XmlUpdate> {
    const GROUP_SIZE: usize = 40;
    match workload {
        "uniform_wide" => {
            let mut gen = ChurnGen::new(sys, groups, GROUP_SIZE);
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                out.extend(gen.window(32));
            }
            out.truncate(n);
            out
        }
        "skew_sharded" => DescendantGen::new(DescendantConfig {
            groups,
            ..DescendantConfig::default()
        })
        .ops(n),
        _ => {
            let mut gen = WorkloadGen::new(sys.view(), 0x5eed);
            let classes = [WorkloadClass::W1, WorkloadClass::W2, WorkloadClass::W3];
            let mut out = Vec::with_capacity(n);
            for &class in classes.iter().cycle().take(n.div_ceil(2)) {
                out.extend(gen.insertions(class, 1));
                out.extend(gen.deletions(class, 1));
            }
            out.truncate(n);
            out
        }
    }
}

/// One workload fixture at `groups` groups: `n` updates of its traffic,
/// each asked both ways.
pub fn workload_row(workload: &str, groups: usize, n: usize) -> WalkRow {
    let db = synthetic_database(&SyntheticConfig::with_size(groups * 40));
    let atg = synthetic_atg(&db).expect("synthetic ATG");
    let mut sys = XmlViewSystem::new(atg, db).expect("publishes");
    let mut m = TrackedM::of(&sys);
    let ops = traffic(workload, &sys, groups, n);
    let mut row = WalkRow {
        shape: format!("{workload} @ {groups}"),
        ..WalkRow::default()
    };
    for u in &ops {
        let class = sys.class_of(u.path());
        let anchors = resolve_anchors(sys.view(), &class, MAX_CONE_ANCHORS, None);
        for &a in anchors
            .iter()
            .filter(|a| a.with_ancestors)
            .flat_map(|a| &a.nodes)
        {
            let dag = sys.view().dag();
            black_box(row.anc_walk.time(|| ancestors(dag, a)));
            black_box(row.anc_read.time(|| {
                let mut up = Vec::new();
                m.m().ancestors(a).extend_into(&mut up);
                up
            }));
        }
        let eval = sys.eval(u.path());
        let Ok((_, job)) = sys.apply_deferred(u, SideEffectPolicy::Proceed, eval) else {
            continue;
        };
        row.updates += 1;
        if let Some(st) = job.subtree() {
            // The guard as the translation ran it: no edge of `∆V` leaves a
            // pre-existing node, so the walk meets none of them.
            let (dag, topo, targets) = (sys.view().dag(), sys.topo(), job.selected());
            let shared = st.shared_nodes();
            black_box(
                row.guard_walk
                    .time(|| closes_cycle(dag, topo, shared.clone(), targets)),
            );
            black_box(row.guard_read.time(|| {
                shared
                    .iter()
                    .any(|&w| targets.iter().any(|&t| w == t || m.m().is_ancestor(w, t)))
            }));
        }
        let dag = sys.view().dag();
        row.delta_m.time(|| m.fold(dag, std::slice::from_ref(&job)));
        let Ok(_) = row.fold_l.time(|| sys.fold_maintenance(vec![job]));
    }
    row
}

/// A bare DAG of `n` nodes built through the `Dag` API, as
/// `tests/random_dag.rs` builds them: node `i` is interned `i`-th, and
/// every edge climbs in that order. `deep` is one chain under the root;
/// otherwise each node below the root has up to eight parents drawn among
/// the nodes before it (wide sharing).
fn bare_dag(n: usize, deep: bool, seed: u64) -> (Dag, Vec<NodeId>) {
    let mut dag = Dag::new(GenId::new(vec![schema("gen_t").col_int("i").key(&["i"])]));
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            let attr = Tuple::from_values([Value::Int(i as i64)]);
            dag.genid_mut().gen_id(TypeId(0), attr).0
        })
        .collect();
    dag.set_root(ids[0]);
    let mut rng = seed;
    let mut next = |below: usize| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as usize % below
    };
    for j in 1..n {
        if deep {
            dag.add_edge(ids[j - 1], ids[j]);
        } else {
            for _ in 0..j.min(8) {
                let i = next(j);
                if !dag.has_edge(ids[i], ids[j]) {
                    dag.add_edge(ids[i], ids[j]);
                }
            }
        }
    }
    (dag, ids)
}

/// One bare-DAG row: every node's ancestors both ways, then `ops` edge
/// insertions — each guarded both ways, then folded into `L` and `M` — and
/// as many deletions of an inserted edge.
pub fn dag_row(n: usize, deep: bool, ops: usize) -> WalkRow {
    let (mut dag, ids) = bare_dag(n, deep, 42);
    let mut topo = TopoOrder::compute(&dag);
    let mut m = TrackedM::from(rxview_core::Reachability::compute(&dag, &topo));
    let mut row = WalkRow {
        shape: format!(
            "{} DAG, {n} nodes",
            if deep { "deep chain" } else { "wide-sharing" }
        ),
        ..WalkRow::default()
    };
    for &a in &ids {
        black_box(row.anc_walk.time(|| ancestors(&dag, a)));
        black_box(row.anc_read.time(|| {
            let mut up = Vec::new();
            m.m().ancestors(a).extend_into(&mut up);
            up
        }));
    }
    let mut seed = 7u64;
    let mut next = |below: usize| {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as usize % below
    };
    let mut inserted = Vec::new();
    while inserted.len() < ops {
        let (i, j) = (next(n - 1), next(n - 1) + 1);
        let (u, v) = (ids[i.min(j)], ids[i.max(j)]);
        if u == v || dag.has_edge(u, v) {
            continue;
        }
        // Asked as the reversed insertion: would `(v, u)` close a cycle?
        // It would — `u` climbs to `v` only through edges in rank order, so
        // both walks search — and the forward edge is the one inserted.
        black_box(row.guard_walk.time(|| closes_cycle(&dag, &topo, [u], &[v])));
        black_box(row.guard_read.time(|| m.m().is_ancestor(u, v)));
        dag.add_edge(u, v);
        let st = SubtreeDag {
            root: v,
            edges: Vec::new(),
            nodes: vec![v],
            fresh: Vec::new(),
        };
        row.delta_m.time(|| m.insert(&dag, &st, &[u]));
        row.fold_l.time(|| insert_job(&dag, &mut topo, &st, &[u]));
        inserted.push((u, v));
        row.updates += 1;
    }
    for (u, v) in inserted {
        dag.remove_edge(u, v);
        row.delta_m.time(|| m.delete(&dag, &[v]));
        row.fold_l.time(|| delete_pass(&mut dag, &mut topo, &[v]));
        row.updates += 1;
    }
    assert!(topo.is_valid_for(&dag), "L stays valid");
    let recomputed = rxview_core::Reachability::compute(&dag, &topo);
    assert!(m.m().same_pairs(&recomputed), "∆M equals Algorithm Reach");
    row
}
