//! The DTD's descendant-or-self closure (`Dtd::can_reach`): it must agree
//! with a naive per-type graph search on arbitrary DTDs, and admit every
//! ancestor/descendant pair that can occur in a published instance.

use proptest::prelude::*;
use rxview_atg::{publish, registrar_atg, registrar_database};
use rxview_xmlkit::{Dtd, TypeId};
use std::collections::BTreeSet;

/// Naive oracle: BFS over the production graph from one type.
fn naive_reachable(dtd: &Dtd, from: TypeId) -> BTreeSet<TypeId> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(t) = stack.pop() {
        if seen.insert(t) {
            stack.extend(dtd.children_of(t));
        }
    }
    seen
}

/// Builds a random DTD over `n` types with edges drawn from `edges`
/// (pairs of type indices). Every type gets a production; indices out of
/// range wrap. Types never mentioned default to pcdata via the builder.
fn random_dtd(n: usize, edges: &[(usize, usize)]) -> Dtd {
    let name = |i: usize| format!("t{i}");
    let mut b = Dtd::builder(name(0));
    // Group edges by parent; parent i gets a sequence of its children (or a
    // star of the first child when it has exactly one).
    let mut children: Vec<Vec<String>> = vec![Vec::new(); n];
    for &(p, c) in edges {
        children[p % n].push(name(c % n));
    }
    for (i, kids) in children.iter().enumerate() {
        match kids.as_slice() {
            [] => {
                b.pcdata(&name(i)).unwrap();
            }
            [one] => {
                b.star(&name(i), one).unwrap();
            }
            many => {
                let refs: Vec<&str> = many.iter().map(|s| s.as_str()).collect();
                b.sequence(&name(i), &refs).unwrap();
            }
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On arbitrary production graphs (including cyclic ones, and past one
    /// 64-bit word of types), the closure equals the naive per-type BFS, and
    /// the DTD is recursive iff some type is reachable from one of its
    /// children.
    #[test]
    fn closure_matches_naive_bfs(
        n in 1usize..80,
        edges in prop::collection::vec((0usize..80, 0usize..80), 0..120),
    ) {
        let dtd = random_dtd(n, &edges);
        for a in dtd.types() {
            let naive = naive_reachable(&dtd, a);
            prop_assert!(dtd.reachable_from(a).eq(naive.iter().copied()));
            for d in dtd.types() {
                prop_assert_eq!(
                    dtd.can_reach(a, d),
                    naive.contains(&d),
                    "{} -> {}", dtd.name(a), dtd.name(d)
                );
            }
        }
        let in_cycle = dtd.types().any(|t| {
            dtd.children_of(t)
                .iter()
                .any(|&c| naive_reachable(&dtd, c).contains(&t))
        });
        prop_assert_eq!(dtd.is_recursive(), in_cycle);
    }
}

/// Instance-level soundness on a published DAG: every concrete
/// ancestor/descendant pair is admitted by the type closure — the invariant
/// the engine's `//`-path planner relies on (a `//label` match below a node
/// of type `A` exists only if `can_reach(A, label)`).
#[test]
fn published_dag_pairs_are_admitted() {
    let db = registrar_database();
    let atg = registrar_atg(&db).unwrap();
    let dag = publish(&atg, &db).unwrap();
    let genid = dag.genid();
    for a in genid.live_ids() {
        // DFS to all concrete descendants of `a`.
        let mut seen = BTreeSet::new();
        let mut stack: Vec<_> = dag.children(a).to_vec();
        while let Some(v) = stack.pop() {
            if genid.is_live(v) && seen.insert(v) {
                stack.extend(dag.children(v).iter().copied());
            }
        }
        for d in seen {
            assert!(
                atg.dtd().can_reach(genid.type_of(a), genid.type_of(d)),
                "instance pair not admitted by type closure: {:?} -> {:?}",
                genid.type_of(a),
                genid.type_of(d)
            );
        }
    }
}
