//! **rxbench-only; ROADMAP 4(h) deletes them.** The conflict analysis the
//! engine's round planner used before rounds became serial: the engine
//! calls nothing here. `rxbench`'s traced library replay still times
//! [`Analysis::of`], [`BatchFootprint`] and [`evaluation_scope`], so those
//! three names — and only those — stay exported, in this one place, until
//! the `[benchmark]` PR stops naming them.
//!
//! An [`Analysis`] is a conservative footprint of one update against one
//! state, from two views of the update:
//!
//! - **Cone union** (view structure): the target path is classified by
//!   [`rxview_core::classify`] — *anchored* (`{anchor} ∪ desc(anchor)`
//!   per top-level node satisfying the first step's filters),
//!   *multi-anchor* (a leading-`//label` or wildcard-rooted path whose
//!   candidates the typed `gen_A` probes enumerate; their ancestors join
//!   the cone), or *global* (nothing bounds the path; it conflicts with
//!   everything).
//! - **Typed relational footprint** ([`rxview_core::RelFootprint`]): a
//!   footprint-only dry run of the §3.3/§4 translation — nothing applied,
//!   nothing interned — yields the `(table, column, value)` keys the update
//!   reads and may write. Read/read never conflicts; read/write and
//!   write/write on the same key do.
//!
//! A fission-eligible update also carries a sub-cone footprint
//! ([`SubFootprint`]) at node granularity, so two updates under one hot
//! anchor can be told apart. `crates/engine/tests/footprint.rs` holds
//! planned footprints conservative against what the translation realizes.

use rxview_atg::{generate_subtree, NodeId, Provisional};
use rxview_core::reach::{ancestors, descendants};
use rxview_core::{
    planned_delete_writes, planned_insert_writes, resolve_anchors, sub_steps, Anchors, Evaluated,
    RelFootprint, SubStep, XmlUpdate, XmlViewSystem, MAX_CONE_ANCHORS,
};
use rxview_relstore::Tuple;
use rxview_xmlkit::{TypeId, XPath};
use std::collections::HashSet;

/// The sub-cone footprint of a fission-eligible update: the exact view
/// regions its evaluation read and its translation writes, at node (not
/// cone) granularity. Two eligible updates under one hot anchor whose
/// sub-footprints (and typed keys) are disjoint commute — different
/// subtrees of the shared cone — and may ride the same round even though
/// their cones coincide.
///
/// Soundness of the four sets:
/// - `node_reads` — every node whose structure the analysis depended on:
///   the anchors themselves (a concurrent delete *of* the anchor must
///   conflict even with an unfiltered anchored path), every node on a
///   complete matched path of the dry-run evaluation, and — for
///   insertions — the pre-existing subtrees the generated subtree would
///   splice (their closures decide link targets).
/// - `node_writes` — deletions only: per deleted matched edge `(p, c)`,
///   the child `c` and its descendant closure (detachment, the GC
///   candidates, and the delete pass all stay inside it). Insertions
///   write no *existing* node's subtree — fresh nodes are invisible until
///   publish, and splice targets appear as extension writes.
/// - `ext_reads` / `ext_writes` — per-`(node, type)` *extension* keys
///   guarding match sets that typed relational keys cannot pin: an open
///   (unfiltered) step directly below the anchor head reads `(anchor,
///   step type)`; a deletion of edge `(p, c)` writes `(p, type(c))`; an
///   insertion splicing a `ty` head under target `t` writes `(t, ty)`.
///   Partial-match frontiers of *pinned* steps are guarded relationally
///   instead: [`rxview_core::sub_steps`] records the step's typed probe
///   reads, and an eligible insertion explicitly marks the gen rows of
///   spliced heads and interior links as written.
///
/// Text (`pcdata`) nodes are excluded from the node sets for the same
/// reason they are excluded from cones: immutable, childless, unsharable
/// as targets — and so heavily shared under small text domains that their
/// inclusion would re-serialize exactly the hot-anchor traffic fission
/// exists to split.
#[derive(Debug, Clone, Default)]
pub struct SubFootprint {
    node_reads: HashSet<NodeId>,
    node_writes: HashSet<NodeId>,
    ext_reads: HashSet<(NodeId, TypeId)>,
    ext_writes: HashSet<(NodeId, TypeId)>,
}

fn overlaps<T: std::hash::Hash + Eq>(a: &HashSet<T>, b: &HashSet<T>) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().any(|x| large.contains(x))
}

impl SubFootprint {
    /// Read/write or write/write overlap at node or extension granularity.
    /// Read/read never conflicts; extension write/write does not either —
    /// two writers under one parent touch *different* child edges, and
    /// same-edge writers already clash on typed keys or node sets.
    pub fn conflicts(&self, other: &SubFootprint) -> bool {
        overlaps(&self.node_writes, &other.node_writes)
            || overlaps(&self.node_writes, &other.node_reads)
            || overlaps(&self.node_reads, &other.node_writes)
            || overlaps(&self.ext_reads, &other.ext_writes)
            || overlaps(&self.ext_writes, &other.ext_reads)
    }

    /// Unions another sub-footprint into this one.
    pub fn absorb(&mut self, other: &SubFootprint) {
        self.node_reads.extend(other.node_reads.iter().copied());
        self.node_writes.extend(other.node_writes.iter().copied());
        self.ext_reads.extend(other.ext_reads.iter().copied());
        self.ext_writes.extend(other.ext_writes.iter().copied());
    }
}

/// Conservative footprint of one update against a given system state.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Union of the anchor cones the update can read or write; `None` =
    /// global. (Pairwise disjointness of two cone *sets* is exactly
    /// disjointness of their unions, so the union is stored flat.)
    cone: Option<HashSet<NodeId>>,
    /// Number of anchor cones the union was built from.
    n_cones: usize,
    /// Whether the path resolved through the multi-anchor (`//`-headed or
    /// wildcard-rooted) classifier rather than a single top-level anchor
    /// pattern.
    multi_cone: bool,
    /// Typed relational footprint: filter-probe reads plus the planned
    /// (conservative) write keys of the dry-run translation.
    rel: RelFootprint,
    /// Sub-cone footprint when the update is fission-eligible (`None`:
    /// whole-cone conflict unit).
    sub: Option<SubFootprint>,
}

/// Everything one conflict analysis produces: the footprint, and — for
/// classified updates — the §3.2 evaluation the dry run performed against
/// the planning state, which the write path reuses instead of evaluating
/// again.
pub struct AnalysisParts {
    /// The conflict footprint.
    pub analysis: Analysis,
    /// The dry-run evaluation and how it ran (`None` for global-footprint
    /// updates).
    pub eval: Option<Evaluated>,
}

impl Analysis {
    /// Analyzes `update` against the current state of `sys` under the
    /// default anchor cap ([`MAX_CONE_ANCHORS`]).
    ///
    /// Text (`pcdata`) nodes are excluded from the cone even when shared:
    /// their text and identity are immutable, the DTD guarantees they never
    /// gain children, and schema validation rejects updates targeting them
    /// — so two updates can only interact through a shared text node via
    /// its parent edges, which already lie in the respective interior
    /// cones. Without this exclusion, small-domain text values (the
    /// synthetic dataset's `payload`) would put every pair of anchors in
    /// conflict and reduce every batch to a singleton.
    pub fn of(sys: &XmlViewSystem, update: &XmlUpdate) -> Analysis {
        Analysis::parts(sys, update, MAX_CONE_ANCHORS).analysis
    }

    /// Full analysis: the footprint plus the dry-run evaluation. Anchor
    /// candidates probe the maintained `gen_A` registries, whose lazy
    /// column indexes persist across rounds; a `//`-path resolving to more
    /// than `max_cone_anchors` of them degrades to a global footprint.
    pub fn parts(
        sys: &XmlViewSystem,
        update: &XmlUpdate,
        max_cone_anchors: usize,
    ) -> AnalysisParts {
        let dtd = sys.view().atg().dtd();
        let dag = sys.view().dag();
        let genid = dag.genid();
        let root = sys.view().dag().root();
        let interior = |v: &NodeId| !dtd.is_pcdata(genid.type_of(*v));
        let global = || AnalysisParts {
            analysis: Analysis {
                cone: None,
                n_cones: 0,
                multi_cone: false,
                rel: RelFootprint::default(),
                sub: None,
            },
            eval: None,
        };

        let class = sys.class_of(update.path());
        // The resolver records the typed reads its probes depend on.
        let mut rel = RelFootprint::default();
        let Some(resolved) = resolve_anchors(sys.view(), &class, max_cone_anchors, Some(&mut rel))
        else {
            return global();
        };

        // The dry-run evaluation: exact on the cone-union scope.
        let evaluated = sys.eval_within(update.path(), &resolved);
        let eval = &evaluated.eval;
        let Anchors {
            nodes: anchors,
            with_ancestors,
            multi_cone,
        } = resolved;

        let mut cone = HashSet::new();
        let n_cones = anchors.len();
        for &a in &anchors {
            cone.insert(a);
            cone.extend(descendants(dag, a).into_iter().filter(|v| interior(v)));
            if with_ancestors {
                // A `//`-match's parent edges and matched root-paths climb
                // above it: its ancestor chain (minus the root, which every
                // cone would share) joins the footprint.
                let up = ancestors(dag, a).into_iter();
                cone.extend(up.filter(|v| *v != root && interior(v)));
            }
        }

        // Pre-existing nodes an insertion would splice (a live head, or the
        // live nodes a fresh subtree links): kept aside for the
        // sub-footprint derivation below.
        let mut linked: Vec<NodeId> = Vec::new();
        let planned_ok = match update {
            XmlUpdate::Delete { .. } => {
                planned_delete_writes(sys.view(), sys.base(), &eval.edge_parents, &mut rel)
            }
            XmlUpdate::Insert { ty, attr, .. } => match dtd.type_id(ty) {
                // Unknown type: schema validation rejects the update before
                // it writes anything.
                None => true,
                // The live nodes the subtree splices (and their descendants)
                // join the cone.
                Some(ty_id) => {
                    match Self::plan_insert(sys, ty_id, attr, &eval.selected, &mut rel) {
                        Some(links) => {
                            for &live in links.iter().filter(|v| interior(v)) {
                                cone.insert(live);
                                let desc = descendants(dag, live);
                                cone.extend(desc.into_iter().filter(|v| interior(v)));
                            }
                            linked = links;
                            true
                        }
                        None => false,
                    }
                }
            },
        };
        if !planned_ok {
            // Footprint underivable: degrade to a global footprint, which
            // serializes the update (always sound).
            return global();
        }

        // Hot-cone fission: when every post-anchor step is typed-
        // accountable, derive the exact sub-cone footprint so updates
        // sharing a hot anchor can still ride one round. The sub-step walk
        // records its pinned-probe reads into a scratch footprint that is
        // absorbed only on success — a refused walk must not widen the
        // relational footprint of a whole-cone update.
        let mut sub = None;
        if !anchors.is_empty() {
            let mut scratch = RelFootprint::default();
            if let Some(steps) = sub_steps(sys.view(), update.path(), &mut scratch) {
                let mut f = SubFootprint::default();
                f.node_reads.extend(anchors.iter().copied());
                f.node_reads.extend(
                    eval.matched_nodes
                        .iter()
                        .filter(|v| **v != root && interior(v))
                        .copied(),
                );
                for s in &steps {
                    if let SubStep::Open(ty) = s {
                        f.ext_reads.extend(anchors.iter().map(|&a| (a, *ty)));
                    }
                }
                let mut eligible = true;
                match update {
                    XmlUpdate::Delete { .. } => {
                        for &(p, c) in &eval.edge_parents {
                            f.ext_writes.insert((p, genid.type_of(c)));
                            if interior(&c) {
                                f.node_writes.insert(c);
                                f.node_writes.extend(
                                    descendants(dag, c).into_iter().filter(|v| interior(v)),
                                );
                            }
                        }
                    }
                    XmlUpdate::Insert { ty, .. } => match dtd.type_id(ty) {
                        // Unknown type: schema validation rejects before any
                        // write; nothing to fission.
                        None => eligible = false,
                        Some(ty_id) => {
                            for &t in &eval.selected {
                                f.ext_writes.insert((t, ty_id));
                            }
                            // Spliced pre-existing subtrees are reads (their
                            // closures decided the plan), and their gen rows
                            // count as *written* so concurrent pinned-step
                            // probes of the spliced values see the splice —
                            // splicing re-parents a node the translation
                            // never re-interns.
                            for &l in linked.iter().filter(|v| interior(v)) {
                                f.node_reads.insert(l);
                                f.node_reads.extend(
                                    descendants(dag, l).into_iter().filter(|v| interior(v)),
                                );
                                scratch.add_gen_write(
                                    sys.view(),
                                    genid.type_of(l),
                                    genid.attr_of(l),
                                );
                            }
                        }
                    },
                }
                if eligible {
                    rel.absorb(&scratch);
                    sub = Some(f);
                }
            }
        }
        AnalysisParts {
            analysis: Analysis {
                cone: Some(cone),
                n_cones,
                multi_cone,
                rel,
                sub,
            },
            eval: Some(evaluated),
        }
    }

    /// Whether the update is global (conflicts with everything).
    pub fn is_global(&self) -> bool {
        self.cone.is_none()
    }

    /// Whether the path resolved through the multi-anchor (`//`-headed or
    /// wildcard-rooted) classifier.
    pub fn is_multi_cone(&self) -> bool {
        self.multi_cone
    }

    /// Number of anchor cones the footprint was built from (0 for global
    /// footprints and provably-empty candidate sets).
    pub fn n_cones(&self) -> usize {
        self.n_cones
    }

    /// The typed relational footprint (planned reads and writes).
    pub fn rel(&self) -> &RelFootprint {
        &self.rel
    }

    /// The sub-cone footprint, when eligible.
    pub fn sub(&self) -> Option<&SubFootprint> {
        self.sub.as_ref()
    }

    /// The dry run of `insert (ty, attr)` into `targets` against `sys`: the
    /// translation's own walk of `ST(A, t)` (`rxview_atg::generate_subtree`)
    /// over a [`Provisional`] interner, so nothing is interned, with its fresh
    /// pairs' `gen_A` rows and every edge's template keys added to `rel` as
    /// planned writes. Returns the live nodes the subtree splices
    /// ([`rxview_atg::SubtreeDag::shared_nodes`]: a live head, or the live
    /// nodes a fresh subtree links), or `None` when a write key cannot be
    /// derived — the update's footprint is then global.
    pub fn plan_insert(
        sys: &XmlViewSystem,
        ty: TypeId,
        attr: &Tuple,
        targets: &[NodeId],
        rel: &mut RelFootprint,
    ) -> Option<Vec<NodeId>> {
        let (vs, base) = (sys.view(), sys.base());
        let mut ids = Provisional::new(vs.dag().genid());
        let st = generate_subtree(vs.atg(), base, &mut ids, ty, attr.clone()).ok()?;
        planned_insert_writes(vs, base, &st, &ids, targets, rel).then(|| st.shared_nodes())
    }

    /// Drops the sub-cone footprint, restoring the whole-cone conflict
    /// unit. A batch of non-`Proceed` updates needs it: an `Abort`-policy
    /// side-effect set is computed against the batch's start state, and
    /// only the coarse cone unit guarantees no co-admitted peer perturbs
    /// it.
    pub fn demote_to_cone(&mut self) {
        self.sub = None;
    }
}

/// The outcome of testing one update against a batch footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No overlap with the batch at any level.
    Admit,
    /// Cones overlapped fission-eligible members only, and the sub-cone
    /// footprints (and typed keys) are disjoint: the update co-admits
    /// under a shared (hot) cone.
    FissionAdmit,
    /// Conflict through the coarse units — global footprint, whole-cone
    /// overlap, or typed keys with no shared-cone context.
    Conflict,
    /// The update was fission-eligible and overlapped eligible cones, but
    /// its sub-footprint or typed keys clashed: fission was tried and
    /// denied.
    FissionDeny,
}

impl Verdict {
    /// Whether the update may join the batch.
    pub fn admits(self) -> bool {
        matches!(self, Verdict::Admit | Verdict::FissionAdmit)
    }
}

/// The union footprint of the updates already placed in one batch. Two
/// levels: *hard* cone nodes (whole-cone members — any overlap conflicts)
/// and *soft* cone nodes (fission-eligible members — overlap falls through
/// to the union of their sub-cone footprints).
#[derive(Debug, Default)]
pub struct BatchFootprint {
    global: bool,
    hard_nodes: HashSet<NodeId>,
    soft_nodes: HashSet<NodeId>,
    sub: SubFootprint,
    rel: RelFootprint,
}

impl BatchFootprint {
    /// Classifies how an update with footprint `a` relates to the batch.
    ///
    /// `optimistic` governs the write/write half of the typed-key check for
    /// fission-eligible pairs under a shared cone. Planned delete footprints
    /// name every candidate-source row the translation *could* touch —
    /// including group-shared rows every sibling under the same hot anchor
    /// also names — so a planned write∩write overlap there is usually
    /// spurious. A check inside one batch whose members apply one after
    /// another passes `true` (only read/write dependencies deny: a later
    /// translation sees every earlier realized write); a check against
    /// updates deferred past the batch passes `false` — an update never
    /// overtakes an earlier one it might conflict with.
    pub fn check(&self, a: &Analysis, optimistic: bool) -> Verdict {
        let Some(cone) = a.cone.as_ref().filter(|_| !self.global) else {
            return Verdict::Conflict;
        };
        match &a.sub {
            Some(sub) => {
                // Eligible: a whole-cone member's overlap is fatal; an
                // eligible member's overlap defers to the sub-footprints.
                if overlaps(cone, &self.hard_nodes) {
                    return Verdict::Conflict;
                }
                let shared_cone = overlaps(cone, &self.soft_nodes);
                let rel_conflict = if shared_cone && optimistic {
                    self.rel.rw_conflicts(&a.rel)
                } else {
                    self.rel.conflicts(&a.rel)
                };
                if rel_conflict {
                    return if shared_cone {
                        Verdict::FissionDeny
                    } else {
                        Verdict::Conflict
                    };
                }
                if !shared_cone {
                    Verdict::Admit
                } else if self.sub.conflicts(sub) {
                    Verdict::FissionDeny
                } else {
                    Verdict::FissionAdmit
                }
            }
            None => {
                if overlaps(cone, &self.hard_nodes)
                    || overlaps(cone, &self.soft_nodes)
                    || self.rel.conflicts(&a.rel)
                {
                    Verdict::Conflict
                } else {
                    Verdict::Admit
                }
            }
        }
    }

    /// Whether adding an update with footprint `a` would conflict (strict:
    /// planned write/write overlaps deny).
    pub fn conflicts(&self, a: &Analysis) -> bool {
        !self.check(a, false).admits()
    }

    /// Adds an update's footprint to the batch.
    pub fn absorb(&mut self, a: &Analysis) {
        match &a.cone {
            None => self.global = true,
            Some(c) => match &a.sub {
                Some(sub) => {
                    self.soft_nodes.extend(c.iter().copied());
                    self.sub.absorb(sub);
                }
                None => self.hard_nodes.extend(c.iter().copied()),
            },
        }
        self.rel.absorb(&a.rel);
    }
}

/// The evaluation scope of `path` against the *current* state of `sys`
/// ([`XmlViewSystem::scope_of`]): the nodes of `{root} ∪ cones` (ancestor
/// chains included for `//`-headed paths) in `L` order. Returns `None` when
/// the full pass is the right evaluation — the path stays global, or its
/// cone union is too large a share of `L` to be worth gathering — in which
/// case the caller must run the full evaluation.
pub fn evaluation_scope(sys: &XmlViewSystem, path: &XPath) -> Option<Vec<NodeId>> {
    sys.scope_of(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_core::{SideEffectPolicy, XmlViewSystem};
    use rxview_relstore::tuple;

    fn system() -> XmlViewSystem {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        XmlViewSystem::new(atg, db).unwrap()
    }

    #[test]
    fn anchored_delete_has_bounded_cone() {
        let sys = system();
        let u = XmlUpdate::delete("course[cno=CS650]/prereq/course[cno=CS320]").unwrap();
        let a = Analysis::of(&sys, &u);
        assert!(!a.is_global());
        assert!(!a.is_multi_cone());
    }

    #[test]
    fn anchored_delete_footprint_covers_chosen_source() {
        // The dry run plans *candidate* sources; the real translation's ∆R
        // must be covered by them.
        let mut sys = system();
        let u = XmlUpdate::delete("course[cno=CS650]/prereq/course[cno=CS320]").unwrap();
        let a = Analysis::of(&sys, &u);
        let report = sys.apply(&u, SideEffectPolicy::Proceed).unwrap();
        for op in report.delta_r.ops() {
            let key = match op {
                rxview_relstore::TupleOp::Delete { key, .. } => key.clone(),
                rxview_relstore::TupleOp::Insert { tuple, .. } => tuple.clone(),
            };
            assert!(
                a.rel().covers_row(op.table(), &key),
                "unplanned write {}({key})",
                op.table()
            );
        }
    }

    #[test]
    fn fresh_insert_footprint_covers_gen_and_base_writes() {
        let sys = system();
        let u = XmlUpdate::insert(
            "course",
            tuple!["MA100", "Calculus"],
            "course[cno=CS650]/prereq",
        )
        .unwrap();
        let a = Analysis::of(&sys, &u);
        assert!(!a.is_global());
        assert!(a
            .rel()
            .covers_row("gen_course", &tuple!["MA100", "Calculus"]));
        assert!(a.rel().covers_row("prereq", &tuple!["CS650", "MA100"]));
    }

    #[test]
    fn filtered_recursive_path_resolves_to_bounded_cones() {
        // Pre-PR-5 behavior: every leading-`//` path was global. The typed
        // prefilter now bounds `//student[ssn=S02]` to the one matching
        // node's cone.
        let sys = system();
        let u = XmlUpdate::delete("//student[ssn=S02]").unwrap();
        let a = Analysis::of(&sys, &u);
        assert!(!a.is_global());
        assert!(a.is_multi_cone());
        assert_eq!(a.n_cones(), 1);
    }

    #[test]
    fn untypeable_paths_stay_global() {
        let sys = system();
        // `*` without a usable key.
        let a = Analysis::of(&sys, &XmlUpdate::delete("*/prereq/course").unwrap());
        assert!(a.is_global());
        // A candidate set past the cap degrades too (3 courses, cap 1).
        let parts = Analysis::parts(&sys, &XmlUpdate::delete("//course").unwrap(), 1);
        assert!(parts.analysis.is_global());
    }

    #[test]
    fn descendant_cone_includes_ancestors() {
        // `//course[cno=CS320]` matches the shared CS320 node; its cone
        // must contain the ancestors its parent edges climb through
        // (CS650's prereq node), so an update anchored at CS650 conflicts.
        let sys = system();
        let desc = Analysis::of(&sys, &XmlUpdate::delete("//course[cno=CS320]").unwrap());
        assert!(!desc.is_global());
        let anchored = Analysis::of(
            &sys,
            &XmlUpdate::delete("course[cno=CS650]/prereq/course").unwrap(),
        );
        let mut batch = BatchFootprint::default();
        batch.absorb(&anchored);
        assert!(
            batch.conflicts(&desc),
            "`//CS320` must conflict with CS650's cone"
        );
    }

    #[test]
    fn disjoint_descendant_cones_commute() {
        // Two typed probes on different students resolve independently.
        let sys = system();
        let a = Analysis::of(&sys, &XmlUpdate::delete("//student[ssn=S01]").unwrap());
        let b = Analysis::of(&sys, &XmlUpdate::delete("//student[ssn=S02]").unwrap());
        assert!(!a.is_global() && !b.is_global());
        // Both climb to shared ancestors (takenBy nodes under shared
        // courses), so conflict here is expected iff the cones overlap —
        // just assert the analysis is consistent both ways.
        let mut batch = BatchFootprint::default();
        batch.absorb(&a);
        let ab = batch.conflicts(&b);
        let mut batch2 = BatchFootprint::default();
        batch2.absorb(&b);
        assert_eq!(ab, batch2.conflicts(&a), "conflict must be symmetric");
    }

    #[test]
    fn disjoint_anchors_do_not_conflict_shared_subtrees_do() {
        let sys = system();
        // CS650's cone contains the shared CS320 subtree, so an update
        // anchored at top-level CS320 conflicts with one anchored at CS650.
        let a = Analysis::of(
            &sys,
            &XmlUpdate::delete("course[cno=CS650]/prereq/course").unwrap(),
        );
        let b = Analysis::of(
            &sys,
            &XmlUpdate::delete("course[cno=CS320]/prereq/course").unwrap(),
        );
        let mut batch = BatchFootprint::default();
        batch.absorb(&a);
        assert!(batch.conflicts(&b), "shared CS320 subtree must conflict");
    }

    #[test]
    fn insert_of_anchor_value_conflicts_with_later_anchor() {
        // Inserting course MA100 writes the (gen_course, cno, MA100) key; a
        // later update anchored at course[cno=MA100] reads it — the typed
        // replacement for the old textual value-key serialization.
        let sys = system();
        let ins = XmlUpdate::insert(
            "course",
            tuple!["MA100", "Calculus"],
            "course[cno=CS650]/prereq",
        )
        .unwrap();
        let del = XmlUpdate::delete("course[cno=MA100]").unwrap();
        let a = Analysis::of(&sys, &ins);
        let mut batch = BatchFootprint::default();
        batch.absorb(&a);
        assert!(batch.conflicts(&Analysis::of(&sys, &del)));
    }

    #[test]
    fn insert_conflicts_with_descendant_probe_of_same_key() {
        // The `//` analogue: `//course[cno=MA100]` reads the same typed
        // (gen_course, cno, MA100) key the insertion writes, so the probe
        // cannot go stale inside a round.
        let sys = system();
        let ins = XmlUpdate::insert(
            "course",
            tuple!["MA100", "Calculus"],
            "course[cno=CS650]/prereq",
        )
        .unwrap();
        let probe = XmlUpdate::delete("//course[cno=MA100]").unwrap();
        let a = Analysis::of(&sys, &ins);
        let b = Analysis::of(&sys, &probe);
        assert!(!b.is_global());
        assert!(a.rel().conflicts(b.rel()), "probe read vs gen write");
    }

    #[test]
    fn unfiltered_descendant_reads_whole_registry() {
        // `//student` under the cap resolves, but depends on the whole
        // gen_student registry: any student interning conflicts.
        let sys = system();
        let a = Analysis::of(&sys, &XmlUpdate::delete("//student").unwrap());
        assert!(!a.is_global());
        let ins = XmlUpdate::insert(
            "student",
            tuple!["S77", "Carol"],
            "course[cno=CS650]/takenBy",
        )
        .unwrap();
        let b = Analysis::of(&sys, &ins);
        assert!(
            a.rel().conflicts(b.rel()),
            "whole-registry read vs student interning"
        );
    }

    #[test]
    fn same_value_different_column_does_not_conflict() {
        // The textual heuristic's false positive: inserting a student whose
        // *name* text equals a course number must not produce a typed-key
        // conflict with an update anchored on that cno value.
        let sys = system();
        let ins = XmlUpdate::insert(
            "student",
            tuple!["S77", "CS320"], // name textually equals a course number
            "course[cno=CS650]/takenBy",
        )
        .unwrap();
        let del = XmlUpdate::delete("course[cno=CS320]/takenBy/student[ssn=S02]").unwrap();
        let a = Analysis::of(&sys, &ins);
        let b = Analysis::of(&sys, &del);
        // Cones may overlap through shared structure; the *typed keys* must
        // not be the reason for a conflict.
        assert!(
            !a.rel().conflicts(b.rel()),
            "name value matching a cno filter is not a typed conflict"
        );
    }

    #[test]
    fn equal_pair_insertions_serialize() {
        // Two insertions interning the same (A, t) write the same gen row.
        let sys = system();
        let a = Analysis::of(
            &sys,
            &XmlUpdate::insert(
                "course",
                tuple!["MA100", "Calculus"],
                "course[cno=CS650]/prereq",
            )
            .unwrap(),
        );
        let b = Analysis::of(
            &sys,
            &XmlUpdate::insert(
                "course",
                tuple!["MA100", "Calculus"],
                "course[cno=CS320]/prereq",
            )
            .unwrap(),
        );
        assert!(a.rel().conflicts(b.rel()), "same gen row must conflict");
    }

    #[test]
    fn scoped_evaluation_matches_full_evaluation() {
        let mut sys = system();
        // Exercise on a state with an extra prereq edge.
        let u = XmlUpdate::insert(
            "course",
            tuple!["CS240", "Data Structures"],
            "course[cno=CS650]/prereq",
        )
        .unwrap();
        sys.apply(&u, SideEffectPolicy::Proceed).unwrap();
        for path in [
            "course[cno=CS650]/prereq/course[cno=CS320]",
            "course[cno=CS650]//course[cno=CS320]/prereq",
            "course[cno=CS320]/takenBy/student[ssn=S02]",
            "course[cno=CS650]/prereq/course",
            "course[cno=NOPE]/prereq",
            // `//`-headed paths now evaluate scoped to their cone unions.
            "//course[cno=CS320]",
            "//course[cno=CS320]/prereq/course",
            "//student[ssn=S02]",
            "//course[cno=CS320]//student[ssn=S02]",
            "//course[cno=NOPE]",
            "//student",
            "//course",
            // Wildcard-rooted with a usable key.
            "*[cno=CS650]/prereq/course",
        ] {
            let p = rxview_xmlkit::parse_xpath(path).unwrap();
            // The cone-union projection itself, whether or not a cone this
            // large a share of the small registrar view would be built.
            let anchors = resolve_anchors(sys.view(), &sys.class_of(&p), MAX_CONE_ANCHORS, None)
                .expect("classified path");
            let scope = rxview_core::union_scope(
                sys.view(),
                sys.topo(),
                &anchors.nodes,
                anchors.with_ancestors,
            );
            let scoped = sys.evaluate_scoped(&p, &scope);
            let full = sys.evaluate(&p);
            assert_eq!(
                evaluation_scope(&sys, &p).map(|s| s.len()),
                sys.eval(&p).scope_nodes,
                "scope_of and eval disagree on {path}"
            );
            assert_eq!(
                scoped.selected, full.selected,
                "selected mismatch on {path}"
            );
            assert_eq!(
                scoped.edge_parents, full.edge_parents,
                "edges mismatch on {path}"
            );
            assert_eq!(
                scoped.side_effects(sys.view(), true),
                full.side_effects(sys.view(), true),
                "side effects mismatch on {path}"
            );
        }
    }
}
