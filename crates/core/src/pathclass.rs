//! Path classification and anchor resolution: which bounded region of the
//! view can a path touch, and so which nodes must an evaluation visit?
//!
//! A *cone* is a node set closed enough under the DAG structure that a
//! path's matches, and the edges it matches, lie inside it. This module owns
//! the classification ([`classify`]) and the one resolver
//! ([`resolve_anchors`]) that turns a class into concrete anchor nodes by
//! probing the maintained `gen_A` registries — single key-anchored cones,
//! and **bounded multi-anchor cones** for leading-`//` and wildcard-rooted
//! paths:
//!
//! - [`PathClass::Anchored`] — the first normalized step is a labelled
//!   child step: every match lies under a *top-level* node of that type
//!   satisfying the step's `field = value` filters. One cone per anchor.
//! - [`PathClass::Descendant`] — the path leads with `//label`. The DTD's
//!   descendant-or-self closure ([`rxview_xmlkit::Dtd::can_reach`])
//!   statically bounds where such a match can sit, and — when the filter
//!   pins a single-field `pcdata` projection — the maintained `gen_label`
//!   table is probed with the typed `(table, column, value)` key to
//!   enumerate the *concrete* candidate matches. The cone is the union over
//!   those anchors of `{anchor} ∪ desc(anchor) ∪ anc(anchor)` — ancestors
//!   included because a `//`-match's parent edges and matched root-paths
//!   climb above the anchor.
//! - [`PathClass::WildcardRoot`] — the path leads with `*`: matches are
//!   top-level nodes of any root-child type; with usable filter keys the
//!   anchors resolve per candidate type, like `Anchored` but multi-typed.
//! - [`PathClass::Global`] — nothing bounds the path (unfilterable
//!   wildcard, `//` not followed by a label, unknown label, empty path):
//!   it is evaluated over the whole view.
//!
//! The same anchor set doubles as an **evaluation scope**
//! ([`scope_of_anchors`], [`union_scope`]): the nodes of `{root} ∪ cones`
//! in the maintained topological order `L` are a valid order for the
//! sub-DAG, and the §3.2 two-pass evaluation over that subsequence returns
//! exactly the matches of the full evaluation (`tests/scoped_eval.rs` and
//! the engine's property tests assert this equality). Every evaluation in
//! the system — reads, `apply`, recovery replay — resolves its scope here,
//! through [`crate::XmlViewSystem::eval`]; so does `rxbench`'s conflict
//! analysis (`rxview_engine::Analysis`), which also records the reads a
//! resolution makes.

use crate::footprint::{pin_filter, FilterPin};
use crate::reach::with_walk;
use crate::topo::TopoOrder;
use crate::viewstore::ViewStore;
use rxview_atg::NodeId;
use rxview_xmlkit::xpath::{Filter, NodeTest, StepKind};
use rxview_xmlkit::{normalize, Dtd, NormStep, TypeId, XPath};
use std::collections::BTreeSet;

/// The `field = value` pairs usable for anchor detection, extracted from
/// the filter immediately qualifying a path step.
pub(crate) fn filter_keys(filter: &Filter, out: &mut Vec<(String, String)>) {
    match filter {
        Filter::PathEq(p, v) => {
            if let [step] = p.steps.as_slice() {
                if step.filters.is_empty() {
                    if let StepKind::Child(NodeTest::Label(field)) = &step.kind {
                        out.push((field.clone(), v.clone()));
                    }
                }
            }
        }
        // A conjunction anchors if either side does (superset of matches).
        Filter::And(a, b) => {
            filter_keys(a, out);
            filter_keys(b, out);
        }
        _ => {}
    }
}

/// How a target path's matches are bounded (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathClass {
    /// First step `A[f = v]…`: matches lie under top-level `A` anchors.
    Anchored {
        /// The first labelled step's element type.
        first_ty: TypeId,
        /// The `field = value` filters qualifying the first step.
        keys: Vec<(String, String)>,
    },
    /// Leading `//A[f = v]…`: matches lie at live `A` nodes anywhere.
    Descendant {
        /// The type the `//` step lands on.
        target_ty: TypeId,
        /// The `field = value` filters qualifying it.
        keys: Vec<(String, String)>,
    },
    /// Leading `*[f = v]…`: matches are top-level nodes of any root-child
    /// type satisfying the filters.
    WildcardRoot {
        /// The `field = value` filters qualifying the wildcard step.
        keys: Vec<(String, String)>,
    },
    /// Nothing bounds the path.
    Global,
}

/// Collects the `field = value` keys of the filter steps immediately
/// following the classified head step.
fn leading_keys<'a>(steps: impl Iterator<Item = &'a NormStep>) -> Vec<(String, String)> {
    let mut keys = Vec::new();
    for step in steps {
        let NormStep::FilterStep(f) = step else { break };
        filter_keys(f, &mut keys);
    }
    keys
}

/// Classifies a target path by its normalized head (see [`PathClass`]).
pub fn classify(dtd: &Dtd, path: &XPath) -> PathClass {
    let norm = normalize(path);
    let mut steps = norm.steps.iter();
    match steps.next() {
        Some(NormStep::Label(first)) => match dtd.type_id(first) {
            Some(first_ty) => PathClass::Anchored {
                first_ty,
                keys: leading_keys(steps),
            },
            None => PathClass::Global, // unknown label: same fallback as before
        },
        Some(NormStep::DescendantOrSelf) => match steps.next() {
            Some(NormStep::Label(label)) => match dtd.type_id(label) {
                Some(target_ty) => PathClass::Descendant {
                    target_ty,
                    keys: leading_keys(steps),
                },
                None => PathClass::Global,
            },
            // `//*`, `//[q]`, `////`, bare `//`: untypeable.
            _ => PathClass::Global,
        },
        Some(NormStep::Wildcard) => PathClass::WildcardRoot {
            keys: leading_keys(steps),
        },
        // Empty path or `.[q]`: the target is the root itself.
        Some(NormStep::FilterStep(_)) | None => PathClass::Global,
    }
}

/// One post-anchor step of a *fission-decomposable* path: an input of
/// `rxbench`'s conflict analysis (`rxview_engine::Analysis`) only — no
/// engine path plans with it; a round is a serial group commit. That
/// analysis splits a hot anchor's cone into sub-cone conflict keys when
/// every step below the anchor head is accountable either through typed
/// relational reads or through a per-anchor extension key; [`sub_steps`]
/// walks the normalized path and says which discipline each step falls
/// under — or refuses, in which case the update keeps the whole-cone
/// conflict unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubStep {
    /// The step's `field = value` filters pin its match set to the typed
    /// reads recorded by the walk: any concurrent update that could change
    /// which nodes this step matches must write one of the recorded
    /// `(table, column, value)` keys (interning / splicing a node of this
    /// type with the pinned value) or one of the recorded whole tables
    /// (unpinnable filters read their rule's base tables wholesale).
    Pinned(TypeId),
    /// Unfiltered (or only structurally filtered) labelled step: its match
    /// set is "all children of type `T` under the previous step's matches",
    /// which is typed-visible only when those parents are known exactly —
    /// so the walker accepts an open step *immediately after the anchor
    /// head only* (parents = the resolved anchors), and the analysis keys
    /// it with per-`(anchor, type)` extension read/write keys instead of
    /// relational ones.
    Open(TypeId),
}

/// The `field = value` keys of a filter usable for the conflict analysis'
/// sub-cone keys ([`SubStep`]), or `None`-like `false` when the filter has
/// any conjunct that does **not** decompose into single-field equality keys
/// (existential sub-paths, disjunction, negation, label tests): those can
/// flip on structural changes the typed keys cannot see, so the path must
/// keep its whole-cone conflict unit. Contrast [`filter_keys`], which
/// extracts a best-effort subset — fine for anchor *narrowing* (a superset
/// of matches stays sound) but not for sub-cone keys, where missing a
/// conjunct widens the set of invisible writers.
fn strict_filter_keys(filter: &Filter, out: &mut Vec<(String, String)>) -> bool {
    match filter {
        Filter::PathEq(p, v) => match p.steps.as_slice() {
            [step] if step.filters.is_empty() => {
                if let StepKind::Child(NodeTest::Label(field)) = &step.kind {
                    out.push((field.clone(), v.clone()));
                    true
                } else {
                    false
                }
            }
            _ => false,
        },
        Filter::And(a, b) => strict_filter_keys(a, out) && strict_filter_keys(b, out),
        _ => false,
    }
}

/// Decomposes the post-anchor suffix of `path` into fission sub-steps,
/// recording in `rel` the typed reads each pinned step's stability depends
/// on. Returns `None` when any suffix step is not decomposable — a
/// wildcard or mid-path `//` step, a non-strict filter (see
/// `strict_filter_keys`), an unknown label, or an open (unpinned) step
/// anywhere but directly after the anchor head. `None` leaves `rel`
/// partially extended with reads; callers must record into a scratch
/// footprint and absorb it only on success.
///
/// The head step group (first `Label`/`//Label`/`*` plus its filter steps)
/// is skipped: its reads are the anchor-resolution reads the caller
/// already records ([`resolve_anchors`] through
/// `RelFootprint::add_anchor_reads`).
pub fn sub_steps(
    vs: &ViewStore,
    path: &XPath,
    rel: &mut crate::footprint::RelFootprint,
) -> Option<Vec<SubStep>> {
    let atg = vs.atg();
    let dtd = atg.dtd();
    let norm = normalize(path);
    let mut steps = norm.steps.iter().peekable();
    // Skip the head group the classifier already consumed.
    match steps.next() {
        Some(NormStep::Label(_)) | Some(NormStep::Wildcard) => {}
        Some(NormStep::DescendantOrSelf) => match steps.next() {
            Some(NormStep::Label(_)) => {}
            _ => return None, // untypeable head: global, never fissions
        },
        _ => return None,
    }
    while matches!(steps.peek(), Some(NormStep::FilterStep(_))) {
        steps.next();
    }

    let mut out: Vec<SubStep> = Vec::new();
    while let Some(step) = steps.next() {
        let NormStep::Label(label) = step else {
            // Mid-path `//` or `*`: the step's parents are unbounded.
            return None;
        };
        let ty = dtd.type_id(label)?;
        let mut keys: Vec<(String, String)> = Vec::new();
        while let Some(NormStep::FilterStep(f)) = steps.peek() {
            if !strict_filter_keys(f, &mut keys) {
                return None;
            }
            steps.next();
        }
        // A step is pinned when at least one key yields a Column probe
        // (additions must write the probed `(gen_ty, col, value)` row), a
        // Never pin (the step provably never matches), or an Unpinnable
        // filter (whose recorded wholesale table reads cover *any* write
        // involving the type). Structural-only / keyless steps are open.
        let pinned = keys
            .iter()
            .any(|(field, value)| match pin_filter(atg, ty, field, value) {
                FilterPin::Column(..) | FilterPin::Never | FilterPin::Unpinnable { .. } => true,
                FilterPin::Structural => false,
            });
        if pinned {
            rel.add_anchor_reads(vs, ty, &keys);
            out.push(SubStep::Pinned(ty));
        } else {
            if !out.is_empty() {
                // An open step below position 1: its parent set is a
                // *derived* match set, not the anchor set, so per-anchor
                // extension keys cannot bound it.
                return None;
            }
            out.push(SubStep::Open(ty));
        }
    }
    Some(out)
}

/// Largest candidate-anchor set a `//`-headed or wildcard-rooted path may
/// resolve to before it is treated as global: the bound reads, `apply` and
/// replay all resolve under.
pub const MAX_CONE_ANCHORS: usize = 64;

/// The resolved anchor set of a classified path ([`resolve_anchors`]): a
/// superset of the nodes its head step can match.
#[derive(Debug, Clone)]
pub struct Anchors {
    /// The anchor nodes.
    pub nodes: Vec<NodeId>,
    /// `//`-headed: matched root-paths and parent edges climb above the
    /// anchors, so cones and scopes close over ancestors too.
    pub with_ancestors: bool,
    /// Resolved through the multi-anchor (`//`-headed or wildcard-rooted)
    /// classifier rather than one top-level anchor pattern.
    pub multi_cone: bool,
}

/// Resolves the anchor set of a classified path against the current state —
/// the **one** resolver behind reads, `apply`, replay and the conflict
/// analysis.
/// Every head is answered from the maintained `gen_A` registries through
/// their lazy column indexes:
///
/// - [`PathClass::Anchored`] — the live *top-level* nodes of the head type
///   satisfying the usable filter keys: a typed probe, then "is a child of
///   the root"; a scan of the root's children only where no filter pins a
///   column. Never capped (an unfiltered `course/…` anchors at every course,
///   as it always has).
/// - [`PathClass::WildcardRoot`] with at least one key — the same, per
///   root-child type; `None` past `cap` anchors.
/// - [`PathClass::Descendant`] — every live node of the target type that
///   can satisfy the keys, wherever it occurs; `None` when the candidate
///   set cannot be bounded at or below `cap` (no usable key and too many
///   instances, or a too-popular key).
/// - anything else — `None`: nothing bounds the path.
///
/// `None` means the caller treats the path as global; `Some` with no nodes
/// means the path provably selects nothing.
///
/// The typed reads the resolution depends on are recorded in `rel` when the
/// caller plans with them (reads and replay plan nothing and pass `None`):
/// the probe keys when a filter pins a column, a wholesale `gen_A` read when
/// a `//` head is bounded only by the type's instance count (then any
/// interning or GC of the type would change the answer). Probes are
/// classified by the same `pin_filter` the read recording uses — the probe
/// must consult exactly the keys recorded as reads, or a planned footprint
/// could miss a read the resolution made.
///
/// Soundness: unusable filter conjuncts only narrow the real match set
/// further, a top-level match is by definition a child of the root, and
/// the DTD's closure ([`rxview_xmlkit::Dtd::can_reach`]) guarantees no `//`
/// match can exist outside the type's instance set.
pub fn resolve_anchors(
    vs: &ViewStore,
    class: &PathClass,
    cap: usize,
    mut rel: Option<&mut crate::footprint::RelFootprint>,
) -> Option<Anchors> {
    let dtd = vs.atg().dtd();
    match class {
        PathClass::Anchored { first_ty, keys } => Some(Anchors {
            nodes: candidates(vs, *first_ty, keys, true, usize::MAX, rel)?,
            with_ancestors: false,
            multi_cone: false,
        }),
        PathClass::WildcardRoot { keys } if !keys.is_empty() => {
            // Matches are top-level nodes of any root-child type. The type
            // list is deduplicated — a Sequence production may repeat a
            // child type, and duplicate anchors would double cones and
            // spuriously trip the anchor cap.
            let types: BTreeSet<TypeId> = dtd.children_of(dtd.root()).into_iter().collect();
            let mut nodes = Vec::new();
            for ty in types {
                nodes.extend(candidates(
                    vs,
                    ty,
                    keys,
                    true,
                    usize::MAX,
                    rel.as_deref_mut(),
                )?);
            }
            (nodes.len() <= cap).then_some(Anchors {
                nodes,
                with_ancestors: false,
                multi_cone: true,
            })
        }
        PathClass::Descendant { target_ty, keys } => {
            // The root can never be matched by a `//` step onto its own
            // type, and its gen row is a synthetic unit tuple; degrade
            // rather than probe.
            if *target_ty == dtd.root() {
                return None;
            }
            Some(Anchors {
                nodes: candidates(vs, *target_ty, keys, false, cap, rel)?,
                with_ancestors: true,
                multi_cone: true,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
thread_local! {
    /// `gen_A` rows an unfiltered candidate set mapped to ids — the cost
    /// model's count.
    static GEN_ROWS_READ: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The live nodes of `ty` that can satisfy `keys` — among the root's
/// children when `top_level`, anywhere otherwise. `None` when more than
/// `cap` candidates would have to be enumerated.
fn candidates(
    vs: &ViewStore,
    ty: TypeId,
    keys: &[(String, String)],
    top_level: bool,
    cap: usize,
    mut rel: Option<&mut crate::footprint::RelFootprint>,
) -> Option<Vec<NodeId>> {
    let atg = vs.atg();
    let dag = vs.dag();
    let (genid, root) = (dag.genid(), dag.root());
    // The key-pinned (and conservative whole-table) reads of the filters.
    if let Some(rel) = rel.as_deref_mut() {
        rel.add_anchor_reads(vs, ty, keys);
    }
    // Static bound: a type unreachable from the root has no live instances
    // and never will have.
    if !top_level && !atg.dtd().can_reach(atg.dtd().root(), ty) {
        return Some(Vec::new());
    }
    let mut probes: Vec<(usize, rxview_relstore::Value)> = Vec::new();
    for (field, value) in keys {
        match pin_filter(atg, ty, field, value) {
            FilterPin::Column(col, v) => probes.push((col, v)),
            FilterPin::Never => return Some(Vec::new()),
            // Structural / unpinnable filters have no (usable) pruning
            // power; the remaining probes still bound a superset.
            FilterPin::Structural | FilterPin::Unpinnable { .. } => {}
        }
    }

    let Some(((col, value), rest)) = probes.split_first() else {
        if top_level {
            return Some(
                dag.children(root)
                    .iter()
                    .copied()
                    .filter(|&c| genid.is_live(c) && genid.type_of(c) == ty)
                    .collect(),
            );
        }
        // No pinnable filter: the candidate set is the type's whole
        // instance set, so the resolution reads the entire `gen_A`
        // registry — any interning or GC of this type changes the answer.
        if let Some(rel) = rel {
            rel.add_table_read(atg.gen_table_name(ty));
        }
        // The registry lists the type's live nodes: its length decides the
        // cap before a row is read, and every row carries its node's id.
        let table = genid.table(ty);
        if table.len() > cap {
            return None;
        }
        let node_of = |(_, &id): (_, &NodeId)| {
            #[cfg(test)]
            GEN_ROWS_READ.with(|c| c.set(c.get() + 1));
            id
        };
        let mut nodes: Vec<NodeId> = table.entries().map(node_of).collect();
        nodes.sort_unstable();
        return Some(nodes);
    };

    let rows = genid.table(ty).entries_col_eq(*col, value);
    if rows.len() > cap {
        return None;
    }
    Some(
        rows.into_iter()
            .filter(|(row, _)| rest.iter().all(|(c, v)| &row[*c] == v))
            .map(|(_, &id)| id)
            .filter(|&c| !top_level || dag.parents(c).contains(&root))
            .collect(),
    )
}

/// A cone union is gathered into a scope only while it is at most
/// `1 / SCOPE_SHARE` of `L`; above that it is evaluated on the full `L`.
/// Measured at 512 groups (43 473 nodes) over four path shapes, building
/// the scope plus the scoped passes against the full pass: 0.23–0.41× at
/// |L|/4, 0.46–0.89× at |L|/2, 0.97–2.0× at |L| — building the scope
/// (gather, sort by position) is what a scope near the view cannot pay
/// back. Every keyed head of the benchmark traffic (≈ 10² nodes) is far
/// below the line; an unfiltered anchored head (every top-level cone: the
/// view) and a `//` head on the widely shared `payload` type (≈ 300
/// parents, ≈ 6 k ancestors per node) are well above it.
const SCOPE_SHARE: usize = 2;

/// The evaluation scope of a resolved anchor set ([`union_scope`]), or
/// `None` when the cone union could exceed `|L| / 2` — decided from
/// `Σ (1 + |desc(a)| + |anc(a)|)` over the anchors, an upper bound on the
/// union (cones that overlap are counted twice, so a `None` can be
/// pessimistic; a `Some` never is). Each `anc(a)` and `desc(a)` is a walk
/// that stops as soon as the sum passes the budget, so a scope that is not
/// built costs at most `|L| / 2` steps of the walks. One rule for writes,
/// reads and replay.
pub fn scope_of_anchors(
    vs: &ViewStore,
    topo: &TopoOrder,
    anchors: &Anchors,
) -> Option<Vec<NodeId>> {
    let (nodes, up) = (&anchors.nodes, anchors.with_ancestors);
    gather_scope(vs, topo, nodes, up, topo.len() / SCOPE_SHARE)
}

/// The scope for a union of anchor cones: the nodes of `{root} ∪ ⋃ₐ ({a}
/// ∪ desc(a) [∪ anc(a)])` in `L` order, a subsequence of `L` — text nodes
/// included, because evaluation needs them for value filters.
/// `with_ancestors` must be set for `//`-headed paths: their matched
/// root-paths and parent edges climb above the anchors, so exact scoped
/// evaluation needs the ancestor chains in scope.
pub fn union_scope(
    vs: &ViewStore,
    topo: &TopoOrder,
    anchors: &[NodeId],
    with_ancestors: bool,
) -> Vec<NodeId> {
    gather_scope(vs, topo, anchors, with_ancestors, usize::MAX).unwrap_or_default()
}

/// [`union_scope`], or `None` once `Σ (1 + |desc(a)| [+ |anc(a)|])` over
/// the anchors passes `budget`.
fn gather_scope(
    vs: &ViewStore,
    topo: &TopoOrder,
    anchors: &[NodeId],
    with_ancestors: bool,
    budget: usize,
) -> Option<Vec<NodeId>> {
    let dag = vs.dag();
    let mut cone = vec![dag.root()];
    let mut spent = 0usize;
    with_walk(|walk| {
        for &a in anchors {
            // One set per anchor and direction: a node two cones share
            // counts in both.
            let start = cone.len();
            if with_ancestors {
                let left = budget.checked_sub(spent)?;
                if !walk.ancestors(dag, a, &mut cone, start.saturating_add(left)) {
                    return None;
                }
            }
            let below = cone.len();
            spent += below - start;
            let left = budget.checked_sub(spent)?;
            if !walk.closure(dag, [a], &mut cone, below.saturating_add(left)) {
                return None;
            }
            spent += cone.len() - below;
        }
        Some(())
    })?;
    // Gathered as `(rank in L, node)`, so one sort orders the union and
    // puts duplicates (shared descendants, the root above every `//`
    // anchor) side by side; nodes `L` does not hold are not live.
    let mut ranked = Vec::with_capacity(cone.len());
    ranked.extend(cone.iter().filter_map(|&v| Some((topo.position(v)?, v))));
    ranked.sort_unstable();
    ranked.dedup();
    cone.clear();
    cone.extend(ranked.into_iter().map(|(_, v)| v));
    Some(cone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::tuple;
    use rxview_xmlkit::parse_xpath;

    fn store() -> ViewStore {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        ViewStore::publish(atg, &db).unwrap()
    }

    #[test]
    fn classification_by_head_shape() {
        let vs = store();
        let dtd = vs.atg().dtd();
        let course = dtd.type_id("course").unwrap();
        let student = dtd.type_id("student").unwrap();
        match classify(dtd, &parse_xpath("course[cno=CS650]/prereq").unwrap()) {
            PathClass::Anchored { first_ty, keys } => {
                assert_eq!(first_ty, course);
                assert_eq!(keys, vec![("cno".into(), "CS650".into())]);
            }
            other => panic!("expected Anchored, got {other:?}"),
        }
        match classify(dtd, &parse_xpath("//student[ssn=S02]").unwrap()) {
            PathClass::Descendant { target_ty, keys } => {
                assert_eq!(target_ty, student);
                assert_eq!(keys, vec![("ssn".into(), "S02".into())]);
            }
            other => panic!("expected Descendant, got {other:?}"),
        }
        match classify(dtd, &parse_xpath("*[cno=CS650]/prereq").unwrap()) {
            PathClass::WildcardRoot { keys } => {
                assert_eq!(keys.len(), 1);
            }
            other => panic!("expected WildcardRoot, got {other:?}"),
        }
        assert_eq!(
            classify(dtd, &parse_xpath("//*").unwrap()),
            PathClass::Global
        );
        assert_eq!(
            classify(dtd, &parse_xpath("nonexistent/x").unwrap()),
            PathClass::Global
        );
    }

    /// ROADMAP item 17's cost model for an unfiltered `//` head: the
    /// `gen_A` registry's length decides the cap before any row is read,
    /// and under the cap the rows map to the type's live ids, ascending —
    /// the root's stand-in row to the root.
    #[test]
    fn an_unfiltered_head_reads_no_row_past_its_cap() {
        let vs = store();
        let genid = vs.dag().genid();
        let rows_read = || GEN_ROWS_READ.with(|c| c.get());
        for ty in vs.atg().dtd().types() {
            let live: Vec<NodeId> = genid
                .live_ids()
                .filter(|&v| genid.type_of(v) == ty)
                .collect();
            let name = vs.atg().dtd().name(ty);
            let before = rows_read();
            let found = candidates(&vs, ty, &[], false, live.len(), None);
            assert_eq!(found.as_ref(), Some(&live), "`//{name}`");
            assert_eq!(rows_read() - before, live.len(), "`//{name}`");
            if let Some(cap) = live.len().checked_sub(1) {
                let before = rows_read();
                assert_eq!(candidates(&vs, ty, &[], false, cap, None), None);
                assert_eq!(rows_read(), before, "`//{name}` past its cap");
            }
        }
        let db = vs.atg().dtd().root();
        let root = candidates(&vs, db, &[], false, 1, None);
        assert_eq!(root, Some(vec![vs.dag().root()]));
    }

    /// `//ty[keys]` resolved under `cap`, reads recorded into `rel`.
    fn descendant(
        vs: &ViewStore,
        target_ty: TypeId,
        keys: &[(&str, &str)],
        cap: usize,
        rel: &mut crate::footprint::RelFootprint,
    ) -> Option<Vec<NodeId>> {
        let keys = keys
            .iter()
            .map(|(f, v)| (f.to_string(), v.to_string()))
            .collect();
        let class = PathClass::Descendant { target_ty, keys };
        resolve_anchors(vs, &class, cap, Some(rel)).map(|a| {
            assert!(a.with_ancestors && a.multi_cone);
            a.nodes
        })
    }

    #[test]
    fn descendant_probe_finds_all_instances() {
        let vs = store();
        let dtd = vs.atg().dtd();
        let course = dtd.type_id("course").unwrap();
        // cno=CS320 pins one concrete course node (shared: top level + as a
        // prereq of CS650) — one anchor, wherever it occurs.
        let mut rel = crate::footprint::RelFootprint::default();
        let anchors = descendant(&vs, course, &[("cno", "CS320")], 64, &mut rel).expect("bounded");
        let expect = vs
            .dag()
            .genid()
            .lookup(course, &tuple!["CS320", "Algorithms"])
            .unwrap();
        assert_eq!(anchors, vec![expect]);
    }

    #[test]
    fn descendant_probe_caps_and_empties() {
        let vs = store();
        let dtd = vs.atg().dtd();
        let course = dtd.type_id("course").unwrap();
        let rel = &mut crate::footprint::RelFootprint::default();
        // Unfiltered `//course`: three live instances; cap 2 degrades.
        assert!(descendant(&vs, course, &[], 2, rel).is_none());
        let all = descendant(&vs, course, &[], 64, rel).expect("bounded");
        assert_eq!(all.len(), 3);
        // Unknown field / unmatched value: provably empty.
        assert_eq!(
            descendant(&vs, course, &[("zzz", "1")], 64, rel),
            Some(Vec::new())
        );
        assert_eq!(
            descendant(&vs, course, &[("cno", "NOPE")], 64, rel),
            Some(Vec::new())
        );
        // Root type never resolves.
        assert!(descendant(&vs, dtd.root(), &[], 64, rel).is_none());
    }

    #[test]
    fn anchored_heads_resolve_to_top_level_nodes_only() {
        let vs = store();
        let dtd = vs.atg().dtd();
        let course = dtd.type_id("course").unwrap();
        let student = dtd.type_id("student").unwrap();
        let root = vs.dag().root();
        let resolve = |path: &str| {
            let class = classify(dtd, &parse_xpath(path).unwrap());
            resolve_anchors(&vs, &class, 64, None)
        };
        // A keyed head is a typed probe; CS320 is top-level (and shared).
        let a = resolve("course[cno=CS320]/prereq").expect("anchored");
        assert!(!a.with_ancestors && !a.multi_cone);
        assert_eq!(a.nodes.len(), 1);
        assert!(vs.dag().parents(a.nodes[0]).contains(&root));
        // The same probe finds student S02 — who is nobody's top-level
        // node, so the anchored head has no anchors where `//` has one.
        assert!(resolve("student[ssn=S02]").unwrap().nodes.is_empty());
        let mut rel = crate::footprint::RelFootprint::default();
        assert_eq!(
            descendant(&vs, student, &[("ssn", "S02")], 64, &mut rel).map(|n| n.len()),
            Some(1)
        );
        // No pinning filter: the root's children of the type, by scan.
        let all = resolve("course/prereq").unwrap().nodes;
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|&c| vs.dag().genid().type_of(c) == course));
        let structural = resolve("course[prereq]/takenBy").unwrap().nodes;
        assert_eq!(structural, all);
        // A second key filters the probed rows; a miss and an unknown field
        // are provably empty.
        assert_eq!(
            resolve("course[cno=CS320 and title=Algorithms]")
                .unwrap()
                .nodes,
            a.nodes
        );
        assert!(resolve("course[cno=CS320 and title=Nope]")
            .unwrap()
            .nodes
            .is_empty());
        assert!(resolve("course[cno=NOPE]").unwrap().nodes.is_empty());
        assert!(resolve("course[zzz=1]").unwrap().nodes.is_empty());
        // Wildcard-rooted: per root-child type, needs a key.
        let w = resolve("*[cno=CS650]/prereq").expect("keyed wildcard");
        assert!(w.multi_cone && !w.with_ancestors);
        assert_eq!(w.nodes.len(), 1);
        assert!(resolve("*/prereq").is_none());
        assert!(resolve("//*").is_none());
    }

    #[test]
    fn union_scope_is_a_subsequence_of_l() {
        let vs = store();
        let topo = TopoOrder::compute(vs.dag());
        let dtd = vs.atg().dtd();
        let student = dtd.type_id("student").unwrap();
        let anchors = descendant(
            &vs,
            student,
            &[("ssn", "S02")],
            64,
            &mut crate::footprint::RelFootprint::default(),
        )
        .expect("bounded");
        assert_eq!(anchors.len(), 1);
        let scope = union_scope(&vs, &topo, &anchors, true);
        // The scope respects the maintained order and contains the anchor,
        // its descendants, its ancestors, and the root.
        let m = anchors[0];
        assert!(scope.contains(&m));
        assert!(scope.contains(&vs.dag().root()));
        for d in crate::reach::descendants(vs.dag(), m) {
            assert!(scope.contains(&d));
        }
        let up = crate::reach::ancestors(vs.dag(), m);
        assert!(up.contains(&vs.dag().root()) && up.len() > 2, "{up:?}");
        for a in up {
            assert!(scope.contains(&a));
        }
        for w in scope.windows(2) {
            assert!(topo.position(w[0]).unwrap() < topo.position(w[1]).unwrap());
        }
    }

    /// A `//` anchor's ancestors are a walk up the parent lists that
    /// reaches `|anc(a)|` ids and no more — counted under a 21- and a
    /// 201-course view where the anchor, a student enrolled in every
    /// course, has ancestors in proportion to the view.
    #[test]
    fn a_descendant_anchors_ancestor_walk_reaches_its_ancestors_only() {
        use crate::reach::{Reachability, ANCESTOR_IDS};
        let reached = |n: usize| {
            let mut db = registrar_database();
            for i in 0..n {
                let cno = format!("X{i}");
                let row = tuple![cno.as_str(), format!("T{i}").as_str(), "CS"];
                db.insert("course", row).unwrap();
                db.insert("enroll", tuple!["S01", cno.as_str()]).unwrap();
            }
            let vs = ViewStore::publish(registrar_atg(&db).unwrap(), &db).unwrap();
            let topo = TopoOrder::compute(vs.dag());
            let path = parse_xpath("//student[ssn=S01]/name").unwrap();
            let class = classify(vs.atg().dtd(), &path);
            let anchors = resolve_anchors(&vs, &class, 64, None).expect("classified");
            assert!(anchors.with_ancestors && anchors.nodes.len() == 1);
            let before = ANCESTOR_IDS.with(|c| c.get());
            let scope = union_scope(&vs, &topo, &anchors.nodes, true);
            let walked = ANCESTOR_IDS.with(|c| c.get()) - before;
            let m = Reachability::compute(vs.dag(), &topo);
            let anc = m.ancestors(anchors.nodes[0]);
            assert_eq!(walked, anc.len(), "the walk reaches anc(a)");
            assert!(anc.iter().all(|a| scope.contains(&a)));
            walked
        };
        let (small, large) = (reached(20), reached(200));
        assert!(large >= small + 2 * 180, "{small} / {large} ancestors");
    }

    #[test]
    fn a_scope_near_the_view_is_not_built() {
        let vs = store();
        let topo = TopoOrder::compute(vs.dag());
        let dtd = vs.atg().dtd();
        let scope = |path: &str| {
            let class = classify(dtd, &parse_xpath(path).unwrap());
            let anchors = resolve_anchors(&vs, &class, 64, None).expect("classified");
            scope_of_anchors(&vs, &topo, &anchors)
        };
        // CS650's cone is most of the registrar view; a leaf course's (its
        // three text/container children) is not; no anchors, no cones.
        assert!(scope("course[cno=CS650]/prereq").is_none());
        assert!(scope("//course").is_none());
        let small = scope("course[cno=NOPE]/prereq").expect("empty anchor set");
        assert_eq!(small, [vs.dag().root()]);
    }
}
