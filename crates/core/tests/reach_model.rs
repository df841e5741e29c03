//! Model tests of the compact reachability matrix: the block-word run
//! primitives against `BTreeSet` algebra, and `Reachability`'s bulk edits
//! of ancestor runs against a plain set of `(anc, desc)` pairs. The
//! *clone-then-diverge* case pins that a clone of `M` is a deep copy: each
//! run is owned by its node, so an edit to either side that reached the
//! other would show up as one of the two no longer matching its own model.
//!
//! The facade's `tests/reach_model.rs` includes this file and runs it.

use proptest::prelude::*;
use rxview_atg::NodeId;
use rxview_core::reach::{minus, union, ReachBatch, Reachability, RunBuf};
use std::collections::BTreeSet;

type Pairs = BTreeSet<(NodeId, NodeId)>;

/// The ids as a set, in ascending order.
fn run(ids: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
    let ids: BTreeSet<u32> = ids.into_iter().collect();
    ids.into_iter().map(NodeId).collect()
}

fn packed(ids: &[NodeId]) -> RunBuf {
    ids.iter().copied().collect()
}

fn ancestors_in(model: &Pairs, d: NodeId) -> Vec<NodeId> {
    let above = model.iter().filter(|&&(_, x)| x == d);
    above.map(|&(a, _)| a).collect()
}

fn descendants_in(model: &Pairs, a: NodeId) -> Vec<NodeId> {
    model
        .range((a, NodeId(0))..=(a, NodeId(u32::MAX)))
        .map(|&(_, d)| d)
        .collect()
}

/// One bulk edit. Ancestor ids are reduced below the edited node's, so the
/// modelled relation stays irreflexive and acyclic like a real `M`.
#[derive(Debug, Clone)]
enum Edit {
    /// `add_ancestors(d, extra)`.
    Add(u32, Vec<u32>),
    /// `set_ancestors(d, new)`.
    Set(u32, Vec<u32>),
    /// `set_ancestors_from(d, parents)`.
    SetFrom(u32, Vec<u32>),
    /// `collect_node(d)`, then the rewrite it owes every former descendant.
    Collect(u32),
}

const N: u32 = 24;

/// Ids around block edges — 31 / 32 / 63 / 64, the last block below
/// `u32::MAX` — among dense and scattered ones.
fn id_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..130,
        28u32..36,
        60u32..68,
        u32::MAX - 40..=u32::MAX,
        0u32..1 << 20,
    ]
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    let node = 1u32..N;
    let above = || prop::collection::vec(0u32..N, 0..6);
    prop_oneof![
        // Twice, so that the sets grow faster than `Set`/`Collect` cut them.
        (node.clone(), above()).prop_map(|(d, ids)| Edit::Add(d, ids)),
        (node.clone(), above()).prop_map(|(d, ids)| Edit::Add(d, ids)),
        (node.clone(), above()).prop_map(|(d, ids)| Edit::Set(d, ids)),
        (node.clone(), above()).prop_map(|(d, ids)| Edit::SetFrom(d, ids)),
        node.prop_map(Edit::Collect),
    ]
}

/// Applies `edit` to the matrix and to the model, checking every count the
/// matrix reports and every run along the way.
fn apply(
    m: &mut Reachability,
    batch: &mut ReachBatch,
    model: &mut Pairs,
    edit: &Edit,
) -> Result<(), TestCaseError> {
    let below = |d: u32, ids: &[u32]| run(ids.iter().map(|a| a % d));
    let before = model.len();
    match edit {
        Edit::Add(d, ids) => {
            let extra = below(*d, ids);
            model.extend(extra.iter().map(|&a| (a, NodeId(*d))));
            let added = m.add_ancestors(NodeId(*d), packed(&extra).as_run(), batch);
            prop_assert_eq!(added, model.len() - before);
        }
        Edit::Set(d, ids) | Edit::SetFrom(d, ids) => {
            let d = NodeId(*d);
            let new = if matches!(edit, Edit::Set(..)) {
                below(d.0, ids)
            } else {
                let parents = below(d.0, ids);
                let above = parents.iter().flat_map(|&p| ancestors_in(model, p));
                run(above.chain(parents.iter().copied()).map(|a| a.0))
            };
            let old = ancestors_in(model, d);
            model.retain(|&(_, x)| x != d);
            model.extend(new.iter().map(|&a| (a, d)));
            let removed = if matches!(edit, Edit::Set(..)) {
                m.set_ancestors(d, packed(&new).as_run(), batch)
            } else {
                m.set_ancestors_from(d, below(d.0, ids), batch)
            };
            let gone = old.iter().filter(|a| !new.contains(a)).count();
            prop_assert_eq!(removed, gone);
        }
        Edit::Collect(d) => {
            let d = NodeId(*d);
            let orphans = descendants_in(model, d);
            prop_assert_eq!(m.collect_node(d, batch), ancestors_in(model, d).len());
            model.retain(|&(a, x)| a != d && x != d);
            for x in orphans {
                m.set_ancestors(x, packed(&ancestors_in(model, x)).as_run(), batch);
            }
        }
    }
    // Every run and the counter are exact at once.
    prop_assert_eq!(m.n_pairs(), model.len());
    for v in (0..N).map(NodeId) {
        prop_assert_eq!(m.ancestors(v), ancestors_in(model, v), "anc({})", v.0);
    }
    Ok(())
}

/// The matrix equals a bulk load of the model, and answers `is_ancestor` as
/// the model does for every pair.
fn check_loaded(m: &Reachability, model: &Pairs) -> Result<(), TestCaseError> {
    let runs: Vec<(NodeId, Vec<NodeId>)> = (0..N)
        .map(NodeId)
        .map(|d| (d, ancestors_in(model, d)))
        .collect();
    let loaded = Reachability::from_ancestors(runs).expect("the model is well-formed");
    prop_assert!(m.same_pairs(&loaded));
    for a in (0..N).map(NodeId) {
        for d in (0..N).map(NodeId) {
            prop_assert_eq!(m.is_ancestor(a, d), model.contains(&(a, d)));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The run primitives against `BTreeSet`: building from ascending ids,
    /// `iter`, `len`, `contains`, equality, `union` and `minus` — over ids
    /// that straddle block edges and shapes that leave a word in part, empty
    /// a word, or empty the run: empty, identical, disjoint, interleaved, a
    /// subset, and a short run against a long one.
    #[test]
    fn run_primitives_match_btreeset(
        a in prop::collection::vec(id_strategy(), 0..24),
        b in prop::collection::vec(id_strategy(), 0..24),
        long in prop::collection::vec(0u32..4096, 0..400),
        shape in 0usize..7,
    ) {
        let (a, b): (Vec<u32>, Vec<u32>) = match shape {
            0 => (a, Vec::new()),
            1 => (a.clone(), a),
            2 => (a.iter().map(|x| x / 2).collect(), b.iter().map(|x| x / 2 + (1 << 31)).collect()),
            3 => (a.iter().map(|x| x & !1).collect(), b.iter().map(|x| x | 1).collect()),
            4 => (long, b.iter().map(|x| x % 64 * 64).collect()),
            5 => (a.iter().chain(&b).copied().collect(), b),
            _ => (a, b),
        };
        let (set_a, set_b): (BTreeSet<u32>, BTreeSet<u32>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        let (run_a, run_b) = (packed(&run(a)), packed(&run(b)));
        let ids_of = |set: &BTreeSet<u32>| set.iter().copied().map(NodeId).collect::<Vec<_>>();
        let mut out: RunBuf = [NodeId(7)].into_iter().collect(); // stale content must not survive
        for (x, y, set_x, set_y) in [(&run_a, &run_b, &set_a, &set_b), (&run_b, &run_a, &set_b, &set_a)] {
            let x = x.as_run();
            prop_assert_eq!(x.iter().collect::<Vec<_>>(), ids_of(set_x));
            prop_assert_eq!(x.len(), set_x.len());
            prop_assert_eq!(x.is_empty(), set_x.is_empty());
            for probe in set_x.iter().chain(set_y).flat_map(|&id| [id.saturating_sub(1), id, id.saturating_add(1)]) {
                prop_assert_eq!(x.contains(&NodeId(probe)), set_x.contains(&probe), "contains({})", probe);
            }
            prop_assert_eq!(x == y.as_run(), set_x == set_y);
            union(x, y.as_run(), &mut out);
            let both: BTreeSet<u32> = set_x.union(set_y).copied().collect();
            prop_assert_eq!(out.as_run(), ids_of(&both));
            // One set, one representation: whichever way it was built.
            prop_assert_eq!(&out, &packed(&ids_of(&both)));
            minus(x, y.as_run(), &mut out);
            let x_only: BTreeSet<u32> = set_x.difference(set_y).copied().collect();
            prop_assert_eq!(out.as_run(), ids_of(&x_only));
            prop_assert_eq!(&out, &packed(&ids_of(&x_only)));
        }
    }

    /// Any sequence of bulk edits keeps the matrix equal to the pair model:
    /// every `anc` run and `n_pairs` after each edit, and `is_ancestor` for
    /// every pair at the end.
    #[test]
    fn bulk_edits_match_the_pair_model(
        edits in prop::collection::vec(edit_strategy(), 1..40),
    ) {
        let (mut m, mut batch, mut model) =
            (Reachability::default(), ReachBatch::default(), Pairs::new());
        for edit in &edits {
            apply(&mut m, &mut batch, &mut model, edit)?;
        }
        check_loaded(&m, &model)?;
    }

    /// Clone-then-diverge: a clone is a deep copy, so each side must keep
    /// matching its own model whatever the other rewrites.
    #[test]
    fn a_clone_and_its_origin_diverge_independently(
        shared in prop::collection::vec(edit_strategy(), 1..24),
        here in prop::collection::vec(edit_strategy(), 1..16),
        there in prop::collection::vec(edit_strategy(), 1..16),
    ) {
        let (mut m, mut batch, mut model) =
            (Reachability::default(), ReachBatch::default(), Pairs::new());
        for edit in &shared {
            apply(&mut m, &mut batch, &mut model, edit)?;
        }
        let (mut fork, mut fork_batch, mut fork_model) =
            (m.clone(), ReachBatch::default(), model.clone());
        // Interleaved, so each side writes while the other's runs are live.
        for i in 0..here.len().max(there.len()) {
            if let Some(edit) = here.get(i) {
                apply(&mut m, &mut batch, &mut model, edit)?;
            }
            if let Some(edit) = there.get(i) {
                apply(&mut fork, &mut fork_batch, &mut fork_model, edit)?;
            }
        }
        check_loaded(&m, &model)?;
        check_loaded(&fork, &fork_model)?;
    }
}

/// A recycled slot: node 9 is collected and its id handed to a new node —
/// other ancestors, other descendants — in the same sequence of edits. The
/// new node's run holds its own ancestors only, and no run above or below
/// it keeps a pair of the old node.
#[test]
fn a_slot_collected_and_reused_holds_the_new_node_only() {
    let (mut m, mut batch, mut model) =
        (Reachability::default(), ReachBatch::default(), Pairs::new());
    let script = [
        Edit::Add(9, vec![1, 2, 3]),
        Edit::Add(12, vec![9, 3]),
        // Collected: 12 is rewritten from the parents it has left.
        Edit::Collect(9),
        // Reused: other ancestors, another descendant.
        Edit::Add(9, vec![2, 4]),
        Edit::Add(15, vec![9]),
    ];
    for edit in &script {
        apply(&mut m, &mut batch, &mut model, edit).expect("matches the model");
    }
    check_loaded(&m, &model).expect("matches the model");
    assert_eq!(m.ancestors(NodeId(9)), run([2, 4]));
    assert_eq!(m.ancestors(NodeId(12)), run([3]));
    assert_eq!(m.ancestors(NodeId(15)), run([9]));
    assert!(!m.is_ancestor(NodeId(1), NodeId(9)));
    assert!(!m.is_ancestor(NodeId(9), NodeId(12)));
}
