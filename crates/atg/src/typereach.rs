//! Type-level reachability over the ATG production graph.
//!
//! The DTD statically bounds where a `//label` step can ever land: a node of
//! type `B` can occur below a node of type `A` only if `B` is reachable from
//! `A` through zero or more production edges. [`TypeReach`] materializes
//! that descendant-or-self closure once per grammar — `O(|E|³)` worst case
//! on a type set that is tiny compared to any instance — so a serving
//! engine's path classifier can answer "which node types can contain a
//! match of `//label`?" and "can `//label` match anything at all?" without
//! touching the data.
//!
//! Soundness invariant (checked by `crates/atg/tests/typereach.rs` against
//! published DAGs and random grammars): whenever a node `d` is a descendant
//! of a node `a` in *any* instance published under the grammar,
//! `can_reach(type(a), type(d))` holds. The converse need not hold — the
//! closure is a static over-approximation.

use rxview_xmlkit::{Dtd, TypeId};

/// The descendant-or-self closure of the DTD's production graph (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct TypeReach {
    n: usize,
    /// Row-major `n × n` matrix: `reach[a * n + d]` iff type `d` is
    /// reachable from type `a` via zero or more production edges.
    reach: Vec<bool>,
}

impl TypeReach {
    /// Computes the closure for `dtd` by saturation over the production
    /// edges (the type graph is a few dozen nodes at most, so the cubic
    /// worst case is irrelevant; the closure is computed once per grammar).
    pub fn compute(dtd: &Dtd) -> Self {
        let n = dtd.n_types();
        let mut reach = vec![false; n * n];
        for t in dtd.types() {
            reach[t.index() * n + t.index()] = true; // self
        }
        // Saturate: a → child, then transitively.
        let mut changed = true;
        while changed {
            changed = false;
            for a in dtd.types() {
                for c in dtd.children_of(a) {
                    for d in 0..n {
                        if reach[c.index() * n + d] && !reach[a.index() * n + d] {
                            reach[a.index() * n + d] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        TypeReach { n, reach }
    }

    /// Whether an instance node of type `desc` can occur at or below an
    /// instance node of type `anc` (descendant-or-self at the type level).
    pub fn can_reach(&self, anc: TypeId, desc: TypeId) -> bool {
        self.reach[anc.index() * self.n + desc.index()]
    }

    /// The types reachable from `source` (including itself) — the node
    /// types a `//` axis starting below a `source` node can ever visit.
    pub fn reachable_from(&self, source: TypeId) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.n as u32)
            .map(TypeId)
            .filter(move |d| self.can_reach(source, *d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_xmlkit::registrar_dtd;

    #[test]
    fn registrar_closure_matches_intuition() {
        let dtd = registrar_dtd();
        let tr = TypeReach::compute(&dtd);
        let ty = |n: &str| dtd.type_id(n).unwrap();
        assert!(tr.can_reach(ty("db"), ty("student")));
        assert!(tr.can_reach(ty("course"), ty("course"))); // recursive via prereq
        assert!(tr.can_reach(ty("takenBy"), ty("ssn")));
        assert!(!tr.can_reach(ty("student"), ty("course")));
        assert!(!tr.can_reach(ty("ssn"), ty("name")));
    }

    #[test]
    fn closure_agrees_with_dtd_reachable_from() {
        let dtd = registrar_dtd();
        let tr = TypeReach::compute(&dtd);
        for a in dtd.types() {
            let naive = dtd.reachable_from(a);
            for d in dtd.types() {
                assert_eq!(
                    tr.can_reach(a, d),
                    naive.contains(&d),
                    "{} -> {}",
                    dtd.name(a),
                    dtd.name(d)
                );
            }
        }
    }

    #[test]
    fn containers_are_the_transpose() {
        let dtd = registrar_dtd();
        let tr = TypeReach::compute(&dtd);
        let student = dtd.type_id("student").unwrap();
        let containers: Vec<String> = dtd
            .types()
            .filter(|&t| tr.can_reach(t, student))
            .map(|t| dtd.name(t).to_owned())
            .collect();
        for expect in ["db", "course", "prereq", "takenBy", "student"] {
            assert!(containers.iter().any(|c| c == expect), "missing {expect}");
        }
        assert!(!containers.iter().any(|c| c == "ssn"));
    }
}
