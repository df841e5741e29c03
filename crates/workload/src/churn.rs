//! Steady delete / re-insert churn with fresh keys: the traffic under which
//! a served state must stay the size of its view.
//!
//! Each window deletes the fresh nodes inserted longest ago and inserts as
//! many brand-new ones (keys never repeat) under the group heads idle
//! longest, so the view's size is constant from the second window on while
//! every window collects nodes and interns new pairs. What only grows under
//! this traffic grows with the updates served — the soak tests
//! (`crates/bench/tests/snapshot_alloc.rs`, `tests/bounded_state.rs`) hold
//! the id space and the allocated bytes flat under it.

use rxview_core::{SideEffectPolicy, XmlUpdate, XmlViewSystem};
use rxview_relstore::tuple;
use std::collections::VecDeque;

/// Most nodes one insertion of the generator interns: the `node`, its `id`,
/// its (empty) `sub` and — unless the view holds that text node already —
/// its `payload`.
pub const NODES_PER_INSERT: usize = 4;

/// The churn generator over a synthetic view's group heads.
#[derive(Debug)]
pub struct ChurnGen {
    /// Heads without a live fresh node, idle longest first.
    idle: VecDeque<i64>,
    /// `(head, key)` of the live fresh nodes, oldest first.
    live: VecDeque<(i64, i64)>,
    next_key: i64,
}

impl ChurnGen {
    /// A generator over the heads `0, group_size, 2 · group_size, …` of
    /// `sys`'s `groups` groups that take children (a head whose `C`/`F`
    /// join fails is a leaf, and an insertion under it rightly rejected),
    /// so that every update it hands out is accepted.
    pub fn new(sys: &XmlViewSystem, groups: usize, group_size: usize) -> Self {
        let mut gen = ChurnGen {
            idle: VecDeque::new(),
            live: VecDeque::new(),
            next_key: 4_000_000_000,
        };
        let heads = (0..groups).map(|g| (g * group_size) as i64);
        let takes_children = |&head: &i64| {
            let probe = gen.insert_under(head, gen.next_key);
            sys.clone().apply(&probe, SideEffectPolicy::Proceed).is_ok()
        };
        gen.idle = heads.filter(takes_children).collect();
        gen
    }

    fn insert_under(&self, head: i64, key: i64) -> XmlUpdate {
        XmlUpdate::insert("node", tuple![key, 7i64], &format!("node[id={head}]/sub"))
            .expect("generated path parses")
    }

    /// The next window of `w` updates, no two under one head: `w / 2`
    /// deletions of the oldest live fresh nodes, then `w / 2` insertions of
    /// new ones — all insertions while fewer than `w / 2` are live.
    ///
    /// # Panics
    /// If the window needs more idle heads than there are.
    pub fn window(&mut self, w: usize) -> Vec<XmlUpdate> {
        let deletes = if self.live.len() >= w / 2 { w / 2 } else { 0 };
        let mut out = Vec::with_capacity(w);
        let mut freed = Vec::with_capacity(deletes);
        for (head, key) in self.live.drain(..deletes) {
            let path = format!("node[id={head}]/sub/node[id={key}]");
            out.push(XmlUpdate::delete(&path).expect("generated path parses"));
            freed.push(head);
        }
        for _ in deletes..w {
            let head = self.idle.pop_front().expect("an idle head per insertion");
            self.next_key += 1;
            out.push(self.insert_under(head, self.next_key));
            self.live.push_back((head, self.next_key));
        }
        self.idle.extend(freed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthetic_atg, synthetic_database, SyntheticConfig};

    #[test]
    fn every_update_is_accepted_and_the_view_keeps_its_size() {
        let db = synthetic_database(&SyntheticConfig::with_size(16 * 40));
        let atg = synthetic_atg(&db).expect("valid ATG");
        let mut sys = XmlViewSystem::new(atg, db).expect("publishes");
        let mut gen = ChurnGen::new(&sys, 16, 40);
        let heads = gen.idle.len() + gen.live.len();
        assert!(heads >= 8, "{heads} heads take children");
        let published = sys.view().n_nodes();
        let mut sizes = Vec::new();
        for _ in 0..6 {
            for u in gen.window(4) {
                sys.apply(&u, SideEffectPolicy::Proceed)
                    .unwrap_or_else(|e| panic!("`{u}` rejected: {e}"));
            }
            sizes.push(sys.view().n_nodes());
        }
        // Four insertions, then two out and two in per window.
        let interned = sizes[0] - published;
        assert!((4 * 3..=4 * NODES_PER_INSERT).contains(&interned));
        assert!(sizes.iter().all(|&n| n == sizes[0]), "{sizes:?}");
        sys.consistency_check().expect("consistent");
    }
}
