//! The W1/W2/W3 update workloads of §5.
//!
//! Each class contains randomly generated update operations characterized by
//! the XPath shape of the update:
//!
//! - **W1**: XPaths using `//` and value-based filters;
//! - **W2**: XPaths using `/` and value-based filters;
//! - **W3**: XPaths using `/` with both structural and value filters.
//!
//! Operations are sampled against the *published* view so that targets are
//! non-empty, and insertion targets are internal nodes (nodes whose `C`/`F`
//! join survives — a leaf cannot gain children without modifying its `F`
//! tuple, which an insertion must not do).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rxview_atg::NodeId;
use rxview_core::{ViewStore, XmlUpdate};
use rxview_relstore::{Tuple, Value};

/// The workload classes of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// `//` + value filters.
    W1,
    /// `/` + value filters.
    W2,
    /// `/` + structural and value filters.
    W3,
}

impl WorkloadClass {
    /// All classes in paper order.
    pub fn all() -> [WorkloadClass; 3] {
        [WorkloadClass::W1, WorkloadClass::W2, WorkloadClass::W3]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadClass::W1 => "W1",
            WorkloadClass::W2 => "W2",
            WorkloadClass::W3 => "W3",
        }
    }
}

/// Samples update operations over a published synthetic view.
pub struct WorkloadGen<'a> {
    vs: &'a ViewStore,
    rng: StdRng,
    node_ty: rxview_xmlkit::TypeId,
    sub_ty: rxview_xmlkit::TypeId,
    fresh_counter: i64,
    /// Repeated path shapes (same root / same target) are parsed once.
    cache: crate::path_cache::PathCache,
}

impl<'a> WorkloadGen<'a> {
    /// Creates a generator with a fixed seed.
    pub fn new(vs: &'a ViewStore, seed: u64) -> Self {
        WorkloadGen {
            vs,
            rng: StdRng::seed_from_u64(seed),
            node_ty: vs.atg().dtd().type_id("node").expect("synthetic DTD"),
            sub_ty: vs.atg().dtd().type_id("sub").expect("synthetic DTD"),
            fresh_counter: 1_000_000_000,
            cache: crate::path_cache::PathCache::new(),
        }
    }

    fn id_of(&self, v: NodeId) -> i64 {
        self.vs.dag().genid().attr_of(v)[0]
            .as_int()
            .expect("int id")
    }

    fn payload_of(&self, v: NodeId) -> i64 {
        self.vs.dag().genid().attr_of(v)[1]
            .as_int()
            .expect("int payload")
    }

    fn sub_of(&self, v: NodeId) -> Option<NodeId> {
        self.vs
            .dag()
            .children(v)
            .iter()
            .copied()
            .find(|&c| self.vs.dag().genid().type_of(c) == self.sub_ty)
    }

    fn node_children(&self, v: NodeId) -> Vec<NodeId> {
        self.sub_of(v)
            .map(|s| self.vs.dag().children(s).to_vec())
            .unwrap_or_default()
    }

    fn is_internal(&self, v: NodeId) -> bool {
        !self.node_children(v).is_empty()
    }

    /// Random top-level node, preferring ones with children.
    fn sample_root(&mut self) -> Option<NodeId> {
        let roots: Vec<NodeId> = self
            .vs
            .dag()
            .children(self.vs.dag().root())
            .iter()
            .copied()
            .filter(|&v| self.vs.dag().genid().type_of(v) == self.node_ty)
            .collect();
        if roots.is_empty() {
            return None;
        }
        // Prefer internal roots.
        for _ in 0..16 {
            let v = roots[self.rng.gen_range(0..roots.len())];
            if self.is_internal(v) {
                return Some(v);
            }
        }
        Some(roots[self.rng.gen_range(0..roots.len())])
    }

    /// Random walk below `v` of at most `depth` node-steps; returns the walk
    /// (excluding `v`).
    fn sample_walk(&mut self, v: NodeId, depth: usize) -> Vec<NodeId> {
        let mut walk = Vec::new();
        let mut cur = v;
        for _ in 0..depth {
            let kids = self.node_children(cur);
            if kids.is_empty() {
                break;
            }
            cur = kids[self.rng.gen_range(0..kids.len())];
            walk.push(cur);
        }
        walk
    }

    /// Random descendant (≥1 level below) of `v`, if any.
    fn sample_descendant(&mut self, v: NodeId) -> Option<NodeId> {
        let depth = 1 + self.rng.gen_range(0..3usize);
        let walk = self.sample_walk(v, depth);
        walk.last().copied()
    }

    /// A deletion operation of the given class, or `None` if the view is too
    /// small to sample the required shape.
    pub fn deletion(&mut self, class: WorkloadClass) -> Option<XmlUpdate> {
        let root = self.sample_root()?;
        let rid = self.id_of(root);
        match class {
            WorkloadClass::W1 => {
                let d = self.sample_descendant(root)?;
                let p = self.payload_of(d);
                self.cache
                    .delete(&format!("node[id={rid}]//node[payload={p}]"))
                    .ok()
            }
            WorkloadClass::W2 => {
                let walk = self.sample_walk(root, 2);
                match walk.as_slice() {
                    [] => None,
                    [c] => {
                        let p = self.payload_of(*c);
                        self.cache
                            .delete(&format!("node[id={rid}]/sub/node[payload={p}]"))
                            .ok()
                    }
                    [c1, c2, ..] => {
                        let i1 = self.id_of(*c1);
                        let p = self.payload_of(*c2);
                        self.cache
                            .delete(&format!(
                                "node[id={rid}]/sub/node[id={i1}]/sub/node[payload={p}]"
                            ))
                            .ok()
                    }
                }
            }
            WorkloadClass::W3 => {
                let kids = self.node_children(root);
                if kids.is_empty() {
                    return None;
                }
                let c = kids[self.rng.gen_range(0..kids.len())];
                let p = self.payload_of(c);
                let structural = if self.is_internal(c) {
                    "sub/node"
                } else {
                    "not(sub/node)"
                };
                self.cache
                    .delete(&format!(
                        "node[id={rid}][sub/node]/sub/node[payload={p}][{structural}]"
                    ))
                    .ok()
            }
        }
    }

    /// An insertion operation of the given class: a brand-new node becomes a
    /// child of the selected `sub` element(s).
    pub fn insertion(&mut self, class: WorkloadClass) -> Option<XmlUpdate> {
        self.fresh_counter += 1;
        let attr = Tuple::from_values([
            Value::Int(self.fresh_counter),
            Value::Int(self.rng.gen_range(0..50)),
        ]);
        let root = self.sample_root()?;
        let rid = self.id_of(root);
        let path = match class {
            WorkloadClass::W1 => {
                // Internal descendant reached via //.
                let mut d = None;
                for _ in 0..8 {
                    if let Some(cand) = self.sample_descendant(root) {
                        if self.is_internal(cand) {
                            d = Some(cand);
                            break;
                        }
                    }
                }
                match d {
                    Some(d) => format!("node[id={rid}]//node[id={}]/sub", self.id_of(d)),
                    None if self.is_internal(root) => format!("node[id={rid}]/sub"),
                    None => return None,
                }
            }
            WorkloadClass::W2 => {
                let internal_kid = self
                    .node_children(root)
                    .into_iter()
                    .find(|&c| self.is_internal(c));
                match internal_kid {
                    Some(c) => {
                        format!("node[id={rid}]/sub/node[id={}]/sub", self.id_of(c))
                    }
                    None if self.is_internal(root) => format!("node[id={rid}]/sub"),
                    None => return None,
                }
            }
            WorkloadClass::W3 => {
                if !self.is_internal(root) {
                    return None;
                }
                format!(
                    "node[id={rid}][sub/node][payload={}]/sub",
                    self.payload_of(root)
                )
            }
        };
        self.cache.insert("node", attr, &path).ok()
    }

    /// A batch of `count` operations (retrying failed samples).
    pub fn deletions(&mut self, class: WorkloadClass, count: usize) -> Vec<XmlUpdate> {
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0;
        while out.len() < count && attempts < count * 20 {
            attempts += 1;
            if let Some(u) = self.deletion(class) {
                out.push(u);
            }
        }
        out
    }

    /// A batch of `count` insertion operations.
    pub fn insertions(&mut self, class: WorkloadClass, count: usize) -> Vec<XmlUpdate> {
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0;
        while out.len() < count && attempts < count * 20 {
            attempts += 1;
            if let Some(u) = self.insertion(class) {
                out.push(u);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{synthetic_atg, synthetic_database, SyntheticConfig};
    use rxview_core::{Reachability, SideEffectPolicy, TopoOrder, XmlViewSystem};
    use rxview_reference::eval_xpath_on_dag;

    fn view() -> ViewStore {
        let cfg = SyntheticConfig::with_size(600);
        let db = synthetic_database(&cfg);
        let atg = synthetic_atg(&db).unwrap();
        ViewStore::publish(atg, &db).unwrap()
    }

    #[test]
    fn workloads_generate_requested_counts() {
        let vs = view();
        let mut gen = WorkloadGen::new(&vs, 7);
        for class in WorkloadClass::all() {
            let dels = gen.deletions(class, 10);
            assert_eq!(dels.len(), 10, "class {}", class.name());
            let inss = gen.insertions(class, 10);
            assert_eq!(inss.len(), 10, "class {}", class.name());
        }
    }

    #[test]
    fn w1_uses_recursion_w2_w3_do_not() {
        let vs = view();
        let mut gen = WorkloadGen::new(&vs, 7);
        for u in gen.deletions(WorkloadClass::W1, 5) {
            assert!(u.path().uses_recursion());
        }
        for u in gen.deletions(WorkloadClass::W2, 5) {
            assert!(!u.path().uses_recursion());
        }
        for u in gen.deletions(WorkloadClass::W3, 5) {
            assert!(!u.path().uses_recursion());
        }
    }

    #[test]
    fn sampled_deletions_select_nonempty_targets() {
        let vs = view();
        let topo = TopoOrder::compute(vs.dag());
        let reach = Reachability::compute(vs.dag(), &topo);
        let mut gen = WorkloadGen::new(&vs, 11);
        for class in WorkloadClass::all() {
            for u in gen.deletions(class, 5) {
                let eval = eval_xpath_on_dag(&vs, &topo, &reach, u.path());
                assert!(!eval.is_empty(), "empty target for {} op {u}", class.name());
            }
        }
    }

    #[test]
    fn end_to_end_workload_application() {
        let cfg = SyntheticConfig::with_size(400);
        let db = synthetic_database(&cfg);
        let atg = synthetic_atg(&db).unwrap();
        let mut sys = XmlViewSystem::new(atg, db).unwrap();
        let ops: Vec<XmlUpdate> = {
            let mut gen = WorkloadGen::new(sys.view(), 3);
            let mut ops = gen.insertions(WorkloadClass::W2, 3);
            ops.extend(gen.deletions(WorkloadClass::W2, 3));
            ops
        };
        let mut accepted = 0;
        for u in &ops {
            if sys.apply(u, SideEffectPolicy::Proceed).is_ok() {
                accepted += 1;
            }
        }
        assert!(
            accepted >= ops.len() / 2,
            "too many rejections: {accepted}/{}",
            ops.len()
        );
        sys.consistency_check().unwrap();
    }
}
