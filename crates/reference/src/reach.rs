//! The baseline Algorithm Reach (§3.1, Fig. 4) is contrasted against: `M`
//! recomputed by one graph search per node. `Reachability::compute` is held
//! equal to it (`crates/core/tests/random_dag.rs`), and the ablation bench
//! (`paper_tables ablation-reach`) times the two side by side.

use rxview_atg::{Dag, NodeId};
use rxview_core::Reachability;

/// Naive recomputation baseline: a full DFS from every node, the
/// `O(|V|² log |V|)`-style approach the paper contrasts Reach against. Each
/// search collects one node's ancestors; the matrix is loaded through
/// [`Reachability::from_ancestors`], which stores them as they are.
pub fn compute_naive(dag: &Dag) -> Reachability {
    // `seen_from[v] == d + 1` once the search from `d` has visited `v`.
    let mut seen_from = vec![0u32; dag.genid().n_allocated()];
    let runs = dag.genid().live_ids().map(|d| {
        let mut seen = Vec::new();
        let mut stack: Vec<NodeId> = dag.parents(d).to_vec();
        while let Some(v) = stack.pop() {
            if dag.genid().is_live(v) && seen_from[v.index()] != d.0 + 1 {
                seen_from[v.index()] = d.0 + 1;
                seen.push(v);
                stack.extend_from_slice(dag.parents(v));
            }
        }
        seen.sort_unstable();
        (d, seen)
    });
    Reachability::from_ancestors(runs)
        .expect("a DAG lists each node once, above none of its ancestors")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{publish, registrar_atg, registrar_database};
    use rxview_core::TopoOrder;

    #[test]
    fn reach_matches_naive() {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let dag = publish(&atg, &db).unwrap();
        let topo = TopoOrder::compute(&dag);
        let fast = Reachability::compute(&dag, &topo);
        let naive = compute_naive(&dag);
        assert!(fast.same_pairs(&naive));
    }
}
