//! The one definition of "same state": two digests of an
//! [`XmlViewSystem`], each a fixed array of named 128-bit sections, each
//! section one `std::hash` stream over the state with no allocation.
//! [`Exact`] is the state by id: what [`encode_system`](crate::encode_system)
//! writes, and the `gen_A` tables a load rebuilds. [`Observed`] is
//! id-free, for states of different histories (an engine against
//! `reference_apply`, a recovery against its oracle): `I`, `gen_A`, and the
//! edges by `((type, $A), (type, $B))` hashed one by one and summed —
//! wrapping addition, which keeps an edge counted twice where XOR would
//! cancel it. [`StateDigest::first_difference`] names the first differing
//! section.

use crate::processor::XmlViewSystem;
use crate::viewstore::ViewStore;
use rxview_atg::{GenId, NodeId};
use rxview_relstore::{Database, Table};
use std::hash::{DefaultHasher, Hash, Hasher};

/// A digest: one 128-bit hash per named section, compared in name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateDigest<const N: usize> {
    names: &'static [&'static str; N],
    sections: [u128; N],
}

/// [`XmlViewSystem::exact_digest`]'s sections.
pub type Exact = StateDigest<5>;

/// [`XmlViewSystem::observed_digest`]'s sections.
pub type Observed = StateDigest<3>;

const EXACT: [&str; 5] = ["I", "ids", "children", "gen_A", "L"];
const OBSERVED: [&str; 3] = ["I", "gen_A", "edges"];

impl<const N: usize> StateDigest<N> {
    /// The name of the first section in which `self` and `other` differ,
    /// or `None` when they are equal.
    pub fn first_difference(&self, other: &Self) -> Option<&'static str> {
        let differs = |i: &usize| self.sections[*i] != other.sections[*i];
        (0..N).find(differs).map(|i| self.names[i])
    }

    /// The hash of the section called `name`, if there is one.
    pub fn section(&self, name: &str) -> Option<u128> {
        let at = self.names.iter().position(|&n| n == name)?;
        Some(self.sections[at])
    }
}

/// Two SipHash streams fed the same bytes, the second keyed apart by a
/// byte written first.
struct Wide([DefaultHasher; 2]);

impl Hasher for Wide {
    fn write(&mut self, bytes: &[u8]) {
        self.0.iter_mut().for_each(|h| h.write(bytes));
    }

    fn finish(&self) -> u64 {
        self.0[0].finish()
    }
}

/// One section: what `feed` writes, 128 bits of it.
fn section(feed: impl FnOnce(&mut Wide)) -> u128 {
    let mut second = DefaultHasher::new();
    second.write_u8(0xa5);
    let mut h = Wide([DefaultHasher::new(), second]);
    feed(&mut h);
    (u128::from(h.0[0].finish()) << 64) | u128::from(h.0[1].finish())
}

/// Tables under their names, each with its row count and its rows in key
/// order.
fn tables<'a, P: Clone + 'a>(named: impl Iterator<Item = (&'a str, &'a Table<P>)>) -> u128 {
    section(|h| {
        for (name, table) in named {
            name.hash(h);
            table.len().hash(h);
            table.iter().for_each(|row| row.hash(h));
        }
    })
}

/// A database: its tables by name.
pub(crate) fn database(db: &Database) -> u128 {
    let table = |name| (name, db.table(name).expect("a listed table exists"));
    tables(db.table_names().map(table))
}

/// The interner's `gen_A` tables, per type under its type's name — the ids
/// they carry are the `ids` section's business.
pub(crate) fn gen_tables(vs: &ViewStore) -> u128 {
    let (dtd, genid) = (vs.atg().dtd(), vs.dag().genid());
    tables(dtd.types().map(|ty| (dtd.name(ty), genid.table(ty))))
}

/// One edge by `((type, $A), (type, $B))`.
fn edge(genid: &GenId, (u, v): (NodeId, NodeId)) -> u128 {
    section(|h| {
        (genid.type_of(u), genid.attr_of(u)).hash(h);
        (genid.type_of(v), genid.attr_of(v)).hash(h);
    })
}

/// The edges of `vs`, each hashed on its own, the hashes summed.
pub(crate) fn edges(vs: &ViewStore) -> u128 {
    let genid = vs.dag().genid();
    let each = vs.dag().all_edges().map(|e| edge(genid, e));
    each.fold(0, u128::wrapping_add)
}

impl XmlViewSystem {
    /// The [`Exact`] digest: `I` (tables by name, rows in key order); the
    /// id space (its size, each id's liveness, a live one's type and `$A`);
    /// the root and each id's child list; `gen_A`; `L`'s order.
    pub fn exact_digest(&self) -> Exact {
        let vs = self.view();
        let (dag, dtd) = (vs.dag(), vs.atg().dtd());
        let genid = dag.genid();
        let ids = (0..genid.n_allocated() as u32).map(NodeId);
        StateDigest {
            names: &EXACT,
            sections: [
                database(self.base()),
                section(|h| {
                    dtd.types().for_each(|ty| dtd.name(ty).hash(h));
                    genid.n_allocated().hash(h);
                    let slot = |id| {
                        genid
                            .is_live(id)
                            .then(|| (genid.type_of(id), genid.attr_of(id)))
                    };
                    ids.clone().for_each(|id| slot(id).hash(h));
                }),
                section(|h| {
                    (dag.n_nodes() > 0).then(|| dag.root()).hash(h);
                    ids.clone().for_each(|id| dag.children(id).hash(h));
                }),
                gen_tables(vs),
                section(|h| self.topo().order().hash(h)),
            ],
        }
    }

    /// The [`Observed`] digest: `I`, `gen_A` and the edge multiset, nothing
    /// that names an id.
    pub fn observed_digest(&self) -> Observed {
        let vs = self.view();
        StateDigest {
            names: &OBSERVED,
            sections: [database(self.base()), gen_tables(vs), edges(vs)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};

    /// The edge section is a sum: the order edges are listed in does not
    /// enter, and an edge counted twice moves it.
    #[test]
    fn the_edge_section_is_a_multiset_sum() {
        let db = registrar_database();
        let sys = XmlViewSystem::new(registrar_atg(&db).unwrap(), db).unwrap();
        let (vs, genid) = (sys.view(), sys.view().dag().genid());
        let all: Vec<_> = vs.dag().all_edges().collect();
        let reversed = all.iter().rev().map(|&e| edge(genid, e));
        assert_eq!(reversed.fold(0, u128::wrapping_add), edges(vs));
        assert_ne!(edge(genid, all[0]).wrapping_mul(2), 0);
    }
}
