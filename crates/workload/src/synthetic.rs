//! The synthetic dataset of §5.
//!
//! Four base relations (keys underlined in the paper):
//! `C(c1, …, c16)`, `F(f1, …, f16)`, `H(h1, h2)`, `CU(c′1, …, c′16)`.
//!
//! - the domain of `f1` equals the domain of `c1`/`c′1`;
//! - `c2..c4 = f2..f4` control how many joining `C`/`F` pairs survive
//!   (i.e. which nodes have children);
//! - every `c` has on average three `H` tuples with `c1 = h1`, and
//!   `h1 < h2`, which guarantees the published view is acyclic;
//! - `CU` is the universe of `C`-tuples: whenever `h2` joins it always
//!   yields a tuple. The paper materializes 100M tuples; we set `CU = C`
//!   and draw `h2` from live keys — the same invariant at laptop scale.
//!
//! The recursively defined view of Fig.10(a) is, per recursion step,
//! `π_{c1,f1,h1,h2} σ_{c1=f1 ∧ f1=h1 ∧ h2=c′1 ∧ c2=f2 ∧ c3=f3 ∧ c4=f4}
//! (C × F × H × CU)`.
//!
//! DTD (recursive through `sub`):
//! ```text
//! <!ELEMENT db   (node*)>
//! <!ELEMENT node (id, payload, sub)>
//! <!ELEMENT sub  (node*)>
//! ```
//! `$node = (c1, c5)`: the key plus a small-domain payload used by the
//! value filters of the W1–W3 workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rxview_atg::{Atg, AtgError};
use rxview_relstore::{schema, Database, SpjQuery, Table, Tuple, Value};
use rxview_xmlkit::Dtd;

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of `C` tuples — the `|C|` the paper reports as dataset size.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
    /// Nodes are partitioned into groups of this size; edges stay within a
    /// group and the group head is a top-level node. This bounds the DAG
    /// depth and keeps ancestor sets — and therefore `|M|` — linear in `|C|`
    /// (the paper's "|M| ≪ n²" observation, §3.1), while windows inside the
    /// group produce the local subtree sharing of Fig.10(b).
    pub group_size: usize,
    /// Probability that a node's `F` partner matches on `c2..c4`
    /// (mismatch ⇒ the node is a leaf).
    pub match_probability: f64,
    /// Mean number of `H` children per node (paper: 3).
    pub mean_children: f64,
    /// Window after `h1` from which `h2` is drawn — smaller windows mean
    /// more sharing (paper's dataset: 31.4% shared C instances).
    pub child_window: usize,
    /// Cardinality of the `payload` (`c5`) value domain.
    pub payload_values: usize,
    /// Sizes of *detached subtrees*: complete binary trees of `C`/`F`/`H`
    /// rows present in the base data but not reachable from any published
    /// root. Inserting a subtree's head into the view materializes an
    /// `ST(A,t)` of exactly that many nodes — the knob behind the
    /// Fig.11(h) sweep. (Binary shape keeps the subtree's reachability
    /// matrix `Θ(s log s)`, matching the paper's bushy data; a chain would
    /// make `|M|` quadratic in the subtree size.)
    pub detached_chains: Vec<usize>,
}

impl SyntheticConfig {
    /// Defaults tuned so the published DAG has roughly the paper's sharing
    /// ratio (~31%) at any size.
    pub fn with_size(n: usize) -> Self {
        SyntheticConfig {
            n,
            seed: 42,
            group_size: 40,
            match_probability: 0.85,
            mean_children: 3.0,
            child_window: 8,
            payload_values: 50,
            detached_chains: Vec::new(),
        }
    }
}

/// The head node ids of the detached chains of `cfg`, in declaration order.
pub fn detached_chain_heads(cfg: &SyntheticConfig) -> Vec<i64> {
    let mut heads = Vec::with_capacity(cfg.detached_chains.len());
    let mut base = cfg.n as i64;
    for &s in &cfg.detached_chains {
        heads.push(base);
        base += s as i64;
    }
    heads
}

/// Generates the base database. Every row is generated in key order and
/// each table is loaded in bulk ([`Table::from_sorted_rows`]), its pages
/// written full once; `CU` holds `C`'s row handles.
pub fn synthetic_database(cfg: &SyntheticConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.n as i64;

    let group = cfg.group_size.max(2) as i64;
    let mut c_rows = Vec::with_capacity(cfg.n);
    let mut f_rows = Vec::with_capacity(cfg.n);
    let mut h_rows = Vec::new();
    for i in 0..n {
        let is_root = i % group == 0;
        let matches = rng.gen_bool(cfg.match_probability);
        let payload = rng.gen_range(0..cfg.payload_values as i64);
        // c2..c4: join-control columns; the F row uses the same values when
        // the node should have children, and shifted values otherwise.
        let (c2, c3, c4) = (i % 7, i % 11, i % 13);
        let mut c = vec![
            Value::Int(i),
            Value::Int(c2),
            Value::Int(c3),
            Value::Int(c4),
            Value::Int(payload),
            Value::Int(if is_root { 1 } else { 0 }), // c6: root flag
        ];
        for k in 7..=16 {
            c.push(Value::Int(i.wrapping_mul(k as i64) % 1000));
        }
        c_rows.push(Tuple::from_values(c));

        let mut f = vec![
            Value::Int(i),
            Value::Int(if matches { c2 } else { c2 + 1 }),
            Value::Int(if matches { c3 } else { c3 + 1 }),
            Value::Int(if matches { c4 } else { c4 + 1 }),
            Value::Int(payload),
            Value::Int(0),
        ];
        for k in 7..=16 {
            f.push(Value::Int(i.wrapping_mul(k as i64) % 1000));
        }
        f_rows.push(Tuple::from_values(f));
    }

    // H edges: h1 < h2, drawn from a window after h1 but confined to the
    // node's group (acyclic by construction; overlapping windows create
    // shared children; group confinement bounds depth and ancestor sets).
    for i in 0..n {
        let group_end = (i / group + 1) * group;
        let upper = (i + cfg.child_window as i64 + 1).min(n).min(group_end);
        if upper <= i + 1 {
            continue;
        }
        // Poisson-ish: 2..=4 children, mean ≈ cfg.mean_children.
        let k = {
            let lo = (cfg.mean_children - 1.0).max(0.0) as i64;
            let hi = (cfg.mean_children + 1.0) as i64;
            rng.gen_range(lo..=hi)
        };
        // Drawn in any order, kept in key order.
        let mut children = std::collections::BTreeSet::new();
        for _ in 0..k {
            children.insert(rng.gen_range(i + 1..upper));
        }
        let edge = |h2| Tuple::from_values([Value::Int(i), Value::Int(h2)]);
        h_rows.extend(children.into_iter().map(edge));
    }
    // Detached subtrees (unpublished until explicitly inserted): every node
    // matches its F partner; H edges form a complete binary tree over the
    // block (node j -> 2j+1, 2j+2).
    let mut base = n;
    for &s in &cfg.detached_chains {
        for j in 0..s as i64 {
            let i = base + j;
            let payload = rng.gen_range(0..cfg.payload_values as i64);
            let (c2, c3, c4) = (i % 7, i % 11, i % 13);
            let mut c = vec![
                Value::Int(i),
                Value::Int(c2),
                Value::Int(c3),
                Value::Int(c4),
                Value::Int(payload),
                Value::Int(0),
            ];
            for k in 7..=16 {
                c.push(Value::Int(i.wrapping_mul(k as i64) % 1000));
            }
            c_rows.push(Tuple::from_values(c));
            let mut f = vec![
                Value::Int(i),
                Value::Int(c2),
                Value::Int(c3),
                Value::Int(c4),
                Value::Int(payload),
                Value::Int(0),
            ];
            for k in 7..=16 {
                f.push(Value::Int(i.wrapping_mul(k as i64) % 1000));
            }
            f_rows.push(Tuple::from_values(f));
            for child in [2 * j + 1, 2 * j + 2] {
                if child < s as i64 {
                    h_rows.push(Tuple::from_values([
                        Value::Int(i),
                        Value::Int(base + child),
                    ]));
                }
            }
        }
        base += s as i64;
    }

    let wide = |name: &str| {
        let mut b = schema(name).col_int("c1");
        for i in 2..=16 {
            b = b.col_int(format!("c{i}"));
        }
        b.key(&["c1"])
    };
    let h = schema("H").col_int("h1").col_int("h2").key(&["h1", "h2"]);
    let mut db = Database::new();
    let tables = [
        (wide("C"), c_rows.clone()),
        (wide("CU"), c_rows),
        (wide("F"), f_rows),
        (h, h_rows),
    ];
    for (schema, rows) in tables {
        let table = Table::from_sorted_rows(schema, rows).expect("generated in key order");
        db.add_table(table).expect("fresh db");
    }
    db
}

/// The recursive DTD of Fig.10(a).
pub(crate) fn synthetic_dtd() -> Dtd {
    let mut b = Dtd::builder("db");
    b.star("db", "node").expect("fresh builder");
    b.sequence("node", &["id", "payload", "sub"])
        .expect("fresh builder");
    b.star("sub", "node").expect("fresh builder");
    b.build().expect("valid DTD")
}

/// The ATG over the synthetic schema.
///
/// - `db → node*`: all `C` tuples flagged as roots (`c6 = 1`);
/// - `sub → node*`: the paper's recursion
///   `π σ_{c1=f1 ∧ f1=h1 ∧ h2=c′1 ∧ c2=f2 ∧ c3=f3 ∧ c4=f4}(C×F×H×CU)`.
///
/// Both rules are key-preserving: each relation's key is determined by the
/// parameter (`C`, `F`, `H.h1`), the projection (`CU.c1 = H.h2`), or both.
pub fn synthetic_atg(db: &Database) -> Result<Atg, AtgError> {
    let q_db_node = SpjQuery::builder("Qdb_node")
        .from("C", "c")
        .where_col_eq_const(("c", "c6"), 1i64)
        .project(("c", "c1"), "c1")
        .project(("c", "c5"), "c5")
        .build(db)?;

    let q_sub_node = SpjQuery::builder("Qsub_node")
        .from("C", "c")
        .from("F", "f")
        .from("H", "h")
        .from("CU", "u")
        .where_col_eq_param(("c", "c1"), 0)
        .where_col_eq_col(("c", "c1"), ("f", "c1"))
        .where_col_eq_col(("c", "c2"), ("f", "c2"))
        .where_col_eq_col(("c", "c3"), ("f", "c3"))
        .where_col_eq_col(("c", "c4"), ("f", "c4"))
        .where_col_eq_col(("h", "h1"), ("f", "c1"))
        .where_col_eq_col(("h", "h2"), ("u", "c1"))
        .project(("u", "c1"), "c1")
        .project(("u", "c5"), "c5")
        .build(db)?;

    let mut b = Atg::builder(synthetic_dtd());
    b.attr("db", &[])
        .attr("node", &["c1", "c5"])
        .attr("id", &["c1"])
        .attr("payload", &["c5"])
        .attr("sub", &["c1", "c5"]);
    b.rule_query("db", "node", q_db_node, &[])
        .rule_project("node", "id", &["c1"])
        .rule_project("node", "payload", &["c5"])
        .rule_project("node", "sub", &["c1", "c5"])
        .rule_query("sub", "node", q_sub_node, &["c1"]);
    b.build(db)
}

/// Dataset statistics for Fig.10(b): published subtrees, DAG size, sharing.
#[derive(Debug, Clone)]
pub struct DatasetStats {
    /// |C| — base relation size.
    pub n_c: usize,
    /// Total base rows.
    pub total_rows: usize,
    /// Published (live) DAG nodes.
    pub dag_nodes: usize,
    /// DAG edges (the size of the relational views |V|).
    pub dag_edges: usize,
    /// Published `node` elements.
    pub published_nodes: usize,
    /// `node` elements with more than one parent (shared subtrees).
    pub shared_nodes: usize,
    /// Tree size after expansion — *estimated* as the number of
    /// root-to-node paths (the uncompressed |T|), computed without
    /// materializing the tree.
    pub tree_nodes: u128,
    /// |M| — reachability pairs.
    pub m_pairs: usize,
    /// |L| — topological order length (= live nodes).
    pub l_len: usize,
}

impl DatasetStats {
    /// Percentage of node elements that are shared (the paper reports 31.4%).
    pub fn sharing_pct(&self) -> f64 {
        if self.published_nodes == 0 {
            0.0
        } else {
            100.0 * self.shared_nodes as f64 / self.published_nodes as f64
        }
    }
}

/// Computes Fig.10(b)-style statistics for a published system.
pub fn dataset_stats(
    cfg: &SyntheticConfig,
    base: &Database,
    vs: &rxview_core::ViewStore,
    topo: &rxview_core::TopoOrder,
    reach: &rxview_core::Reachability,
) -> DatasetStats {
    let node_ty = vs.atg().dtd().type_id("node").expect("synthetic DTD");
    let genid = vs.dag().genid();
    let node_ids: Vec<_> = genid
        .live_ids()
        .filter(|&v| genid.type_of(v) == node_ty)
        .collect();
    let shared = node_ids
        .iter()
        .filter(|&&v| vs.dag().parents(v).len() > 1)
        .count();
    // Path counts in topological order (children first): paths(v) = Σ paths(parent).
    let mut paths: std::collections::HashMap<rxview_atg::NodeId, u128> =
        std::collections::HashMap::new();
    let root = vs.dag().root();
    let mut tree_nodes: u128 = 0;
    for &v in topo.order().iter().rev() {
        let p = if v == root {
            1
        } else {
            // Occurrence counts can be astronomically large (the paper's
            // "at times even exponentially smaller" compression claim), so
            // saturate.
            vs.dag().parents(v).iter().fold(0u128, |acc, u| {
                acc.saturating_add(paths.get(u).copied().unwrap_or(0))
            })
        };
        paths.insert(v, p);
        tree_nodes = tree_nodes.saturating_add(p);
    }
    DatasetStats {
        n_c: cfg.n,
        total_rows: base.total_rows(),
        dag_nodes: vs.n_nodes(),
        dag_edges: vs.n_edges(),
        published_nodes: node_ids.len(),
        shared_nodes: shared,
        tree_nodes,
        m_pairs: reach.n_pairs(),
        l_len: topo.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_core::{Reachability, TopoOrder, ViewStore};

    fn publish(n: usize) -> (SyntheticConfig, Database, ViewStore) {
        let cfg = SyntheticConfig::with_size(n);
        let db = synthetic_database(&cfg);
        let atg = synthetic_atg(&db).unwrap();
        let vs = ViewStore::publish(atg, &db).unwrap();
        (cfg, db, vs)
    }

    #[test]
    fn generator_respects_sizes() {
        let cfg = SyntheticConfig::with_size(500);
        let db = synthetic_database(&cfg);
        assert_eq!(db.table("C").unwrap().len(), 500);
        assert_eq!(db.table("F").unwrap().len(), 500);
        assert_eq!(db.table("CU").unwrap().len(), 500);
        let h = db.table("H").unwrap().len();
        assert!(h > 500 && h < 2500, "H size {h} out of expected band");
    }

    #[test]
    fn h_edges_are_forward_only() {
        let cfg = SyntheticConfig::with_size(300);
        let db = synthetic_database(&cfg);
        for row in db.table("H").unwrap().iter() {
            assert!(row[0].as_int().unwrap() < row[1].as_int().unwrap());
        }
    }

    #[test]
    fn view_publishes_acyclically_with_sharing() {
        let (cfg, db, vs) = publish(800);
        assert!(vs.dag().leaves_first().is_some());
        let topo = TopoOrder::compute(vs.dag());
        let reach = Reachability::compute(vs.dag(), &topo);
        let stats = dataset_stats(&cfg, &db, &vs, &topo, &reach);
        assert!(stats.published_nodes > 100, "too few published nodes");
        // Sharing in the paper's ballpark (31.4%); accept a broad band.
        let pct = stats.sharing_pct();
        assert!((10.0..70.0).contains(&pct), "sharing {pct:.1}% out of band");
        // Compression: the expanded tree is larger than the DAG.
        assert!(stats.tree_nodes > stats.dag_nodes as u128);
    }

    #[test]
    fn atg_is_recursive_and_key_preserving() {
        let (_, db, _) = publish(100);
        let atg = synthetic_atg(&db).unwrap();
        assert!(atg.dtd().is_recursive());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SyntheticConfig::with_size(200);
        let a = synthetic_database(&cfg);
        let b = synthetic_database(&cfg);
        assert_eq!(a.table("H").unwrap().len(), b.table("H").unwrap().len());
        let ra: Vec<_> = a.table("C").unwrap().iter().cloned().collect();
        let rb: Vec<_> = b.table("C").unwrap().iter().cloned().collect();
        assert_eq!(ra, rb);
    }
}
