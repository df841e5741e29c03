//! Workload and observation helpers for the equivalence and
//! crash-recovery test batteries (`crates/engine/tests/{equivalence,
//! recovery}.rs`, `tests/scoped_eval.rs`).
//!
//! Recovery correctness is *observational*: the recovered system must be
//! indistinguishable from a sequential oracle replay of the acknowledged
//! update prefix. Node ids are engine-internal (an insertion replayed after
//! recovery may intern fresh subtrees in a different allocation order than
//! the crashed run did), so the fingerprints here describe state purely in
//! terms of `(type, semantic attribute)` identities and base rows — the
//! same id-independent rendering the engine equivalence tests use.

use crate::workloads::{WorkloadClass, WorkloadGen};
use rxview_core::{XmlUpdate, XmlViewSystem};
use std::collections::BTreeSet;

/// A mixed W1/W2/W3 insertion/deletion stream driven by `flips` (one update
/// attempted per flip: `true` = insertion, `false` = deletion; classes
/// cycle, so roughly a third of the stream is unanchored `//` traffic that
/// exercises the global lane).
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

/// Every base-table row as `(table, row)` strings.
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

/// Asserts two systems observationally equal (base rows, view edges, and
/// the republication oracle on both), with a context tag for diagnostics.
///
/// # Panics
/// Panics with `context` if any observation differs.
pub fn assert_observationally_equal(a: &XmlViewSystem, b: &XmlViewSystem, context: &str) {
    assert_eq!(
        base_fingerprint(a),
        base_fingerprint(b),
        "base databases diverged: {context}"
    );
    assert_eq!(
        edge_fingerprint(a),
        edge_fingerprint(b),
        "views diverged: {context}"
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
    fn fingerprints_detect_change() {
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
        assert_ne!(edge_fingerprint(&sys), edge_fingerprint(&mutated));
        assert_observationally_equal(&mutated, &mutated.clone(), "self");
    }
}
