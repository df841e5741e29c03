//! Schema-directed publishing of relational data into DAG-compressed XML
//! views (§2.2–2.3).
//!
//! The ATG generates the view *directly as a DAG*: node identity is the
//! Skolem id of `(type, $A)`, so a subtree shared by many parents is
//! generated and stored once — this is the compression of Fig.1. Expansion
//! to an ordinary [`XmlTree`] is provided for oracles and baselines.

use crate::genid::{GenId, GenIdBuilder, Interner, NodeId};
use crate::grammar::{Atg, RuleBody};
use rxview_relstore::{BoundPlan, PagedVec, RelError, TableSource, Tuple};
use rxview_xmlkit::{TypeId, XmlTree};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::fmt;
use std::sync::Arc;

/// Errors during publishing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// The generated node graph has a cycle (the "view" would be an infinite
    /// tree); the paper assumes acyclic data (e.g. prerequisite hierarchies).
    CyclicData,
    /// Underlying relational error.
    Rel(RelError),
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::CyclicData => {
                write!(
                    f,
                    "published node graph is cyclic; the XML view would be infinite"
                )
            }
            PublishError::Rel(e) => write!(f, "relational error during publishing: {e}"),
        }
    }
}

impl std::error::Error for PublishError {}

impl From<RelError> for PublishError {
    fn from(e: RelError) -> Self {
        PublishError::Rel(e)
    }
}

/// A DAG-compressed XML view: nodes are Skolem ids, edges are parent→child.
///
/// The edges are the child lists, and the parent lists mirror them; both
/// are page-granular copy-on-write ([`rxview_relstore::PagedVec`]) with one
/// 24-byte slot per node, so a clone copies page pointers and an edge
/// change rewrites the two endpoint slots and the pages they sit on —
/// nothing proportional to the view.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    genid: GenId,
    root: Option<NodeId>,
    children: PagedVec<Adjacent>,
    parents: PagedVec<Adjacent>,
    n_edges: usize,
}

/// Neighbour ids an [`Adjacent`] slot holds without an allocation.
const INLINE: usize = 4;

/// One node's ordered neighbour list: up to [`INLINE`] ids in the slot
/// itself, a longer list behind one shared allocation. 24 B either way.
#[derive(Debug, Clone, Default, PartialEq)]
enum Adjacent {
    #[default]
    Empty,
    /// The first `.0` ids of `.1`.
    Inline(u8, [NodeId; INLINE]),
    Shared(Arc<[NodeId]>),
}

impl Adjacent {
    fn collect(ids: impl ExactSizeIterator<Item = NodeId>) -> Adjacent {
        match ids.len() {
            0 => Adjacent::Empty,
            n if n <= INLINE => {
                let mut inline = [NodeId(0); INLINE];
                for (slot, id) in inline.iter_mut().zip(ids) {
                    *slot = id;
                }
                Adjacent::Inline(n as u8, inline)
            }
            _ => Adjacent::Shared(ids.collect()),
        }
    }

    fn as_slice(&self) -> &[NodeId] {
        match self {
            Adjacent::Empty => &[],
            Adjacent::Inline(n, ids) => &ids[..usize::from(*n)],
            Adjacent::Shared(ids) => ids,
        }
    }
}

fn neighbours(lists: &PagedVec<Adjacent>, v: NodeId) -> &[NodeId] {
    lists.get(v.index()).map_or(&[], Adjacent::as_slice)
}

/// Appends `w` to `v`'s list.
fn link(lists: &mut PagedVec<Adjacent>, v: NodeId, w: NodeId) {
    let slot = lists.get_mut(v.index());
    *slot = match std::mem::take(slot) {
        Adjacent::Empty => Adjacent::Inline(1, [w; INLINE]),
        Adjacent::Inline(n, mut ids) if usize::from(n) < INLINE => {
            ids[usize::from(n)] = w;
            Adjacent::Inline(n + 1, ids)
        }
        full => Adjacent::Shared(full.as_slice().iter().copied().chain([w]).collect()),
    };
}

/// Removes the first `w` from `v`'s list; `false` if absent. An emptied
/// list is cleared ([`PagedVec::clear`]), so a page of nodes without
/// neighbours is the shared blank page.
fn unlink(lists: &mut PagedVec<Adjacent>, v: NodeId, w: NodeId) -> bool {
    let ids = neighbours(lists, v);
    let Some(at) = ids.iter().position(|&x| x == w) else {
        return false;
    };
    match Adjacent::collect((0..ids.len() - 1).map(|i| ids[i + usize::from(i >= at)])) {
        Adjacent::Empty => lists.clear(v.index()),
        rest => *lists.get_mut(v.index()) = rest,
    }
    true
}

impl Dag {
    /// A DAG without edges over `genid`.
    pub fn new(genid: GenId) -> Self {
        Dag {
            genid,
            ..Dag::default()
        }
    }

    /// Builds a DAG over `genid` from its whole edge list, writing every
    /// adjacency list once — where [`Dag::add_edge`] rewrites both endpoint
    /// lists per edge. `edges` lists each parent's edges together, in child
    /// order; a node's parents come out in the order their edges are listed.
    ///
    /// # Errors
    /// The first edge that repeats an earlier one, reopens a parent whose
    /// edges were already listed, or names an id that is not live in
    /// `genid`.
    pub fn from_adjacency(
        genid: GenId,
        root: Option<NodeId>,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Dag, (NodeId, NodeId)> {
        let n = genid.n_allocated();
        // Per parent, where its edges sit in `edges`.
        let mut group: Vec<Option<std::ops::Range<usize>>> = vec![None; n];
        // Per child, the last parent an edge to it was listed under.
        let mut listed_under: Vec<Option<NodeId>> = vec![None; n];
        let mut n_parents = vec![0usize; n];
        let mut at = 0;
        while let Some(&(u, _)) = edges.get(at) {
            let end = at + edges[at..].iter().take_while(|e| e.0 == u).count();
            match group.get_mut(u.index()) {
                Some(slot @ None) if genid.is_live(u) => *slot = Some(at..end),
                _ => return Err(edges[at]),
            }
            for &(_, v) in &edges[at..end] {
                match listed_under.get_mut(v.index()) {
                    Some(last) if *last != Some(u) && genid.is_live(v) => *last = Some(u),
                    _ => return Err((u, v)),
                }
                n_parents[v.index()] += 1;
            }
            at = end;
        }
        let children = group
            .iter()
            .map(|g| Adjacent::collect(edges[g.clone().unwrap_or_default()].iter().map(|e| e.1)))
            .collect();

        // The parent lists, by a counting sort of the edges on their child.
        let mut fill: Vec<usize> = n_parents
            .iter()
            .scan(0, |next, &k| Some(std::mem::replace(next, *next + k)))
            .collect();
        let mut by_child = vec![NodeId(0); edges.len()];
        for &(u, v) in edges {
            by_child[fill[v.index()]] = u;
            fill[v.index()] += 1;
        }
        let parents = (0..n)
            .map(|v| Adjacent::collect(by_child[fill[v] - n_parents[v]..fill[v]].iter().copied()))
            .collect();
        Ok(Dag {
            genid,
            root,
            children,
            parents,
            n_edges: edges.len(),
        })
    }

    /// The Skolem interner.
    pub fn genid(&self) -> &GenId {
        &self.genid
    }

    /// Mutable access to the interner (update translation allocates ids for
    /// newly inserted subtrees).
    pub fn genid_mut(&mut self) -> &mut GenId {
        &mut self.genid
    }

    /// The root node.
    ///
    /// # Panics
    /// Panics if the DAG is empty.
    pub fn root(&self) -> NodeId {
        self.root.expect("empty DAG has no root")
    }

    /// Sets the root (used when building incrementally).
    pub fn set_root(&mut self, root: NodeId) {
        self.root = Some(root);
    }

    /// Ordered children of a node.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        neighbours(&self.children, v)
    }

    /// Parents of a node (a DAG node may have several, §3.2).
    pub fn parents(&self, v: NodeId) -> &[NodeId] {
        neighbours(&self.parents, v)
    }

    /// Whether edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.children(u).contains(&v)
    }

    /// Adds edge `(u, v)`, appending `v` as the rightmost child of `u`
    /// (the paper's insertion semantics, §2.1). No-op if present.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.has_edge(u, v) {
            return false;
        }
        link(&mut self.children, u, v);
        link(&mut self.parents, v, u);
        self.n_edges += 1;
        true
    }

    /// Removes edge `(u, v)`. No-op if absent.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !unlink(&mut self.children, u, v) {
            return false;
        }
        unlink(&mut self.parents, v, u);
        self.n_edges -= 1;
        true
    }

    /// All edges, by parent id, then in each parent's child order.
    pub fn all_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let parents = (0..).map(NodeId);
        parents
            .zip(self.children.iter())
            .flat_map(|(u, list)| list.as_slice().iter().map(move |&v| (u, v)))
    }

    /// Number of live nodes.
    pub fn n_nodes(&self) -> usize {
        self.genid.n_live()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Expands the DAG into an (uncompressed) [`XmlTree`].
    ///
    /// Shared subtrees are copied once per occurrence, exactly undoing the
    /// compression; the result is `σ(I)` as a tree.
    pub fn expand(&self, atg: &Atg) -> XmlTree {
        let root = self.root();
        let mut tree = XmlTree::new(self.genid.type_of(root));
        self.expand_node(atg, root, tree.root(), &mut tree, 0);
        tree
    }

    fn expand_node(
        &self,
        atg: &Atg,
        v: NodeId,
        tv: rxview_xmlkit::NodeId,
        tree: &mut XmlTree,
        depth: usize,
    ) {
        assert!(depth < 10_000, "cycle while expanding DAG");
        for &c in self.children(v) {
            let ty = self.genid.type_of(c);
            if atg.dtd().is_pcdata(ty) {
                let text = atg.text_of(ty, self.genid.attr_of(c));
                tree.add_text_child(tv, ty, text);
            } else {
                let tc = tree.add_child(tv, ty);
                self.expand_node(atg, c, tc, tree, depth + 1);
            }
        }
    }

    /// The live nodes leaves first — every node after all of its children,
    /// the root last, the smallest ready id next: the topological order `L`
    /// of §3.1, by Kahn's algorithm on out-degrees. `None` if the live
    /// nodes hold a cycle.
    pub fn leaves_first(&self) -> Option<Vec<NodeId>> {
        let genid = &self.genid;
        // Per live node, how many of its live children are not listed yet.
        let mut unlisted = vec![0usize; genid.n_allocated()];
        let mut ready = BinaryHeap::new();
        for v in genid.live_ids() {
            let live = |c: &&NodeId| genid.is_live(**c);
            unlisted[v.index()] = self.children(v).iter().filter(live).count();
            if unlisted[v.index()] == 0 {
                ready.push(Reverse(v));
            }
        }
        let mut order = Vec::with_capacity(genid.n_live());
        while let Some(Reverse(v)) = ready.pop() {
            order.push(v);
            for &p in self.parents(v).iter().filter(|p| genid.is_live(**p)) {
                unlisted[p.index()] -= 1;
                if unlisted[p.index()] == 0 {
                    ready.push(Reverse(p));
                }
            }
        }
        (order.len() == genid.n_live()).then_some(order)
    }
}

/// The edges and nodes of a freshly generated subtree `ST(A, t)`.
#[derive(Debug, Clone)]
pub struct SubtreeDag {
    /// The subtree root.
    pub root: NodeId,
    /// Distinct edges, parent before child order of discovery.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Distinct nodes, root first.
    pub nodes: Vec<NodeId>,
    /// The subset of `nodes` that were newly allocated (not previously live);
    /// used for rollback when the update is later rejected, and by the
    /// incremental maintenance of `L` (§3.4).
    pub fresh: Vec<NodeId>,
}

impl SubtreeDag {
    /// The nodes of the subtree that were live before it was generated: the
    /// root when it is shared, and every node outside `fresh` that a subtree
    /// edge lands on (`nodes` lists the root and the fresh nodes only).
    /// Connecting the subtree below a node that one of these reaches closes
    /// a cycle. Ascending, without repeats.
    pub fn shared_nodes(&self) -> Vec<NodeId> {
        let fresh: BTreeSet<NodeId> = self.fresh.iter().copied().collect();
        let landed_on = self.edges.iter().map(|&(_, v)| v);
        let mut shared: Vec<NodeId> = std::iter::once(self.root)
            .chain(landed_on)
            .filter(|v| !fresh.contains(v))
            .collect();
        shared.sort_unstable();
        shared.dedup();
        shared
    }
}

/// A rule bound to the source a subtree is generated from: a projection,
/// or a query rule's plan with its tables resolved
/// ([`rxview_relstore::SpjPlan::bind`]).
enum BoundRule<'a> {
    Project(&'a [usize]),
    Query(BoundPlan<'a>),
}

/// `parent`'s rules ([`Atg::rules_of`]), bound to `src`.
fn bind_rules<'a, S: TableSource>(
    atg: &'a Atg,
    src: &'a S,
    parent: TypeId,
) -> Result<Vec<(TypeId, BoundRule<'a>)>, PublishError> {
    let bind = |(child, rule): &'a (TypeId, RuleBody)| {
        let bound = match rule {
            RuleBody::Project { fields } => BoundRule::Project(fields),
            RuleBody::Query { plan, .. } => BoundRule::Query(plan.bind(src)?),
        };
        Ok((*child, bound))
    };
    atg.rules_of(parent).iter().map(bind).collect()
}

/// Generates the subtree `ST(A, t)` (the paper's `insert (A, t)` payload and
/// the publishing workhorse): nodes are interned into `genid`; recursion
/// stops at nodes that are already live (their subtrees are already in the
/// view — the subtree property of XML publishing). Each type's rules are
/// bound to `src` once, when the first node of the type is expanded, and
/// every rule run refills one buffer of child tuples.
pub fn generate_subtree(
    atg: &Atg,
    src: &impl TableSource,
    genid: &mut impl Interner,
    ty: TypeId,
    attr: Tuple,
) -> Result<SubtreeDag, PublishError> {
    let (root, root_fresh) = genid.gen_id(ty, attr);
    let mut out = SubtreeDag {
        root,
        edges: Vec::new(),
        nodes: vec![root],
        fresh: Vec::new(),
    };
    if !root_fresh {
        return Ok(out);
    }
    out.fresh.push(root);
    let mut rules: Vec<Option<Vec<(TypeId, BoundRule<'_>)>>> = Vec::new();
    rules.resize_with(atg.dtd().n_types(), || None);
    let mut tuples = Vec::new();
    let mut stack = vec![root];
    while let Some(u) = stack.pop() {
        let uty = genid.type_of(u);
        let uattr = genid.attr_of(u).clone();
        let bound = match &mut rules[uty.index()] {
            Some(bound) => bound,
            unbound => unbound.insert(bind_rules(atg, src, uty)?),
        };
        // A node is expanded once, one rule yields distinct tuples,
        // `gen_id` is injective and a type's rules name each child type
        // once, so no edge repeats.
        for (cty, rule) in bound.iter() {
            match rule {
                BoundRule::Project(fields) => {
                    tuples.clear();
                    tuples.push(uattr.project(fields));
                }
                BoundRule::Query(plan) => plan.run_into(uattr.values(), &mut tuples)?,
            }
            for t in tuples.drain(..) {
                let (v, fresh) = genid.gen_id(*cty, t);
                out.edges.push((u, v));
                if fresh {
                    out.nodes.push(v);
                    out.fresh.push(v);
                    stack.push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Publishes the full XML view `σ(I)` as a DAG: the walk interns into a
/// transient `GenIdBuilder`, and the interner and the adjacency are laid
/// out in their pages once the whole view is known.
pub fn publish(atg: &Atg, src: &impl TableSource) -> Result<Dag, PublishError> {
    publish_leaves_first(atg, src).map(|(dag, _)| dag)
}

/// [`publish`], and the view's nodes leaves first ([`Dag::leaves_first`]):
/// the order the acyclicity check computes, which is the topological order
/// `L` of §3.1 — so a caller that builds `L` need not compute it again.
pub fn publish_leaves_first(
    atg: &Atg,
    src: &impl TableSource,
) -> Result<(Dag, Vec<NodeId>), PublishError> {
    let mut genid = GenIdBuilder::new(atg.gen_table_schemas());
    let sub = generate_subtree(atg, src, &mut genid, atg.dtd().root(), Tuple::empty())?;
    let dag = Dag::from_adjacency(genid.finish(), Some(sub.root), &sub.edges)
        .expect("a subtree lists each node's edges once, together");
    let order = dag.leaves_first().ok_or(PublishError::CyclicData)?;
    Ok((dag, order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A few nodes on one page, so an edit to one slot copies its
    /// neighbours' slots along with it.
    const NODES: u32 = 3;

    fn lists_match(lists: &PagedVec<Adjacent>, model: &[Vec<NodeId>]) -> bool {
        model.iter().enumerate().all(|(v, ids)| {
            let slot = lists.get(v).cloned().unwrap_or_default();
            // Four ids or fewer sit in the slot, more behind one handle.
            slot.as_slice() == ids.as_slice()
                && matches!(slot, Adjacent::Shared(_)) == (ids.len() > INLINE)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `link` / `unlink` against a `Vec` per node, across lengths 0–6:
        /// growing past four ids moves a list behind a handle, shrinking
        /// back to four brings it into the slot, and a clone taken before
        /// each edit does not see it.
        #[test]
        fn a_slot_matches_a_vec_on_both_sides_of_the_inline_bound(
            steps in prop::collection::vec((any::<bool>(), 0..NODES, 0u32..8), 0..300),
        ) {
            let mut lists = PagedVec::<Adjacent>::new();
            let mut model = vec![Vec::new(); NODES as usize];
            for (grow, v, w) in steps {
                let (v, w) = (NodeId(v), NodeId(w));
                let before = (lists.clone(), model.clone());
                let ids = &mut model[v.index()];
                if grow && ids.len() < 6 {
                    link(&mut lists, v, w);
                    ids.push(w);
                } else {
                    let at = ids.iter().position(|&x| x == w);
                    prop_assert_eq!(unlink(&mut lists, v, w), at.is_some());
                    if let Some(at) = at {
                        ids.remove(at);
                    }
                }
                prop_assert!(lists_match(&lists, &model));
                prop_assert!(lists_match(&before.0, &before.1), "a clone saw the edit");
            }
        }

        /// `add_edge` / `remove_edge` keep the edge count, the edges the
        /// child lists give, and the parent lists in step with a model
        /// edge list; a clone taken before each edit does not see it.
        #[test]
        fn edges_are_the_child_lists_and_their_count(
            steps in prop::collection::vec((any::<bool>(), 0u32..8, 0u32..8), 0..300),
        ) {
            let mut dag = Dag::default();
            let mut model: Vec<(NodeId, NodeId)> = Vec::new();
            for (add, u, v) in steps {
                let (u, v) = (NodeId(u), NodeId(v));
                let before = (dag.clone(), model.clone());
                let at = model.iter().position(|&e| e == (u, v));
                if add {
                    prop_assert_eq!(dag.add_edge(u, v), at.is_none());
                    if at.is_none() {
                        model.push((u, v));
                    }
                } else {
                    prop_assert_eq!(dag.remove_edge(u, v), at.is_some());
                    if let Some(at) = at {
                        model.remove(at);
                    }
                }
                for (dag, model) in [(&dag, &model), (&before.0, &before.1)] {
                    let listed: usize = (0..8).map(|u| dag.children(NodeId(u)).len()).sum();
                    prop_assert_eq!(dag.n_edges(), model.len());
                    prop_assert_eq!(dag.all_edges().count(), listed);
                    prop_assert_eq!(listed, model.len());
                    // By parent id, then in each parent's child order.
                    let mut by_parent = model.clone();
                    by_parent.sort_by_key(|e| e.0);
                    prop_assert!(dag.all_edges().eq(by_parent));
                    for w in (0..8).map(NodeId) {
                        let parents: Vec<NodeId> =
                            model.iter().filter(|e| e.1 == w).map(|e| e.0).collect();
                        prop_assert_eq!(dag.parents(w), parents.as_slice());
                    }
                }
            }
        }
    }

    #[test]
    fn a_slot_is_three_words() {
        assert_eq!(std::mem::size_of::<Adjacent>(), 24);
    }
}
