//! Workload and observation helpers for the equivalence and
//! crash-recovery test batteries (`crates/engine/tests/{equivalence,
//! recovery}.rs`, `tests/scoped_eval.rs`).
//!
//! Recovery correctness is *observational*: the recovered system must be
//! indistinguishable from a sequential oracle replay of the acknowledged
//! update prefix. Node ids are engine-internal (an insertion replayed after
//! recovery may intern fresh subtrees in a different allocation order than
//! the crashed run did), so two such states are compared through
//! [`XmlViewSystem::observed_digest`], which keys the view by
//! `(type, semantic attribute)` identities and never reads an id.

use crate::workloads::{WorkloadClass, WorkloadGen};
use rxview_core::{XmlUpdate, XmlViewSystem};
use std::collections::BTreeSet;

/// A mixed W1/W2/W3 insertion/deletion stream driven by `flips` (one update
/// attempted per flip: `true` = insertion, `false` = deletion; classes
/// cycle, so roughly a third of the stream is `//`-headed W1 traffic,
/// evaluated over every anchor its type index admits).
pub fn mixed_updates(sys: &XmlViewSystem, seed: u64, flips: &[bool]) -> Vec<XmlUpdate> {
    let mut gen = WorkloadGen::new(sys.view(), seed);
    let mut ops = Vec::new();
    for (i, &ins) in flips.iter().enumerate() {
        let class = WorkloadClass::all()[i % 3];
        let op = if ins {
            gen.insertion(class)
        } else {
            gen.deletion(class)
        };
        if let Some(u) = op {
            ops.push(u);
        }
    }
    ops
}

/// The view's edges as `(type:$A, type:$B)` strings — node-id independent.
/// Kept, body unchanged, for `rxbench`'s `state_hashes` and the
/// `edge_hash` its checked-in expectations hold; no test compares through
/// it (tests use [`XmlViewSystem::observed_digest`]). The `[benchmark]`
/// change that points `state_hashes` at the digest removes it (ROADMAP
/// item 4(f)).
pub fn edge_fingerprint(sys: &XmlViewSystem) -> BTreeSet<(String, String)> {
    let vs = sys.view();
    let render = |v| {
        format!(
            "{}:{}",
            vs.atg().dtd().name(vs.dag().genid().type_of(v)),
            vs.dag().genid().attr_of(v)
        )
    };
    vs.dag()
        .all_edges()
        .map(|(u, v)| (render(u), render(v)))
        .collect()
}

/// Every base-table row as `(table, row)` strings. Kept for `rxbench`'s
/// `base_hash` alone, as [`edge_fingerprint`] is, and removed with it
/// (ROADMAP item 4(f)).
pub fn base_fingerprint(sys: &XmlViewSystem) -> BTreeSet<(String, String)> {
    let base = sys.base();
    base.table_names()
        .flat_map(|t| {
            base.table(t)
                .expect("listed table exists")
                .iter()
                .map(move |row| (t.to_owned(), row.to_string()))
        })
        .collect()
}

/// Asserts two systems observationally equal (equal
/// [`XmlViewSystem::observed_digest`]s — base rows, `gen_A` rows, view
/// edges — and the republication oracle on both), with a context tag for
/// diagnostics.
///
/// # Panics
/// Panics with `context` and the first differing section if any
/// observation differs.
pub fn assert_observationally_equal(a: &XmlViewSystem, b: &XmlViewSystem, context: &str) {
    let differs = a.observed_digest().first_difference(&b.observed_digest());
    assert!(
        differs.is_none(),
        "states diverged in Observed section {differs:?}: {context}"
    );
    a.consistency_check()
        .unwrap_or_else(|e| panic!("oracle state inconsistent ({context}): {e}"));
    b.consistency_check()
        .unwrap_or_else(|e| panic!("recovered state inconsistent ({context}): {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthetic_atg, synthetic_database, SyntheticConfig};
    use rxview_core::SideEffectPolicy;

    #[test]
    fn the_observed_digest_detects_change() {
        let cfg = SyntheticConfig::with_size(160);
        let db = synthetic_database(&cfg);
        let atg = synthetic_atg(&db).unwrap();
        let sys = XmlViewSystem::new(atg, db).unwrap();
        let mut mutated = sys.clone();
        let flips = [false, false, true, false, true];
        let ops = mixed_updates(&sys, 17, &flips);
        assert!(!ops.is_empty());
        let mut changed = false;
        for u in &ops {
            changed |= mutated.apply(u, SideEffectPolicy::Proceed).is_ok();
        }
        assert!(changed, "workload must land at least one update");
        let (before, after) = (sys.observed_digest(), mutated.observed_digest());
        assert_ne!(before.section("edges"), after.section("edges"));
        assert_observationally_equal(&mutated, &mutated.clone(), "self");
    }
}
