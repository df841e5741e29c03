//! The end-to-end update-processing framework of §2.4 (Fig.3).
//!
//! An [`XmlViewSystem`] owns the published database `I`, the relational
//! views `V` (the DAG coding), and the topological order `L`. The paper's
//! second auxiliary structure, the reachability matrix `M`, is not held:
//! what it answers (a `//` anchor's ancestors, the insertion cycle check,
//! the `L` repair's "below `v`") is a walk over the DAG
//! ([`crate::reach`]). Each XML update flows through the paper's phases:
//!
//! 1. **admission** ([`XmlViewSystem::admit`]): the path's compiled plan,
//!    then DTD validation at the schema level (§2.4) over the type-graph
//!    walk the plan holds — neither reads the state;
//! 2. **XPath evaluation on the DAG**, through the admitted plan, +
//!    side-effect detection (§3.2);
//! 3. **∆X → ∆V** (Xinsert / Xdelete, §3.3);
//! 4. **∆V → ∆R** (Algorithm delete / insert, §4);
//! 5. apply `∆R` to `I` and `∆V` to `V`;
//! 6. **background maintenance** of `L` and the `gen` tables (§3.4), timed
//!    separately — the (c) constituent of Fig.11.

use crate::dag_eval::DagEval;
use crate::maintain::{delete_pass, insert_job, MaintainReport};
use crate::pathclass::{resolve_anchors, scope_of_anchors, Anchors, PathClass, MAX_CONE_ANCHORS};
use crate::plan::{eval_plan, UpdatePlan};
use crate::reach::{closes_cycle, Reachability}; // `rxbench`'s surface until ROADMAP 4(h)
use crate::rel_delete::{translate_deletions, DeleteRejection};
use crate::rel_insert::{translate_insertions, InsertRejection};
use crate::topo::TopoOrder;
use crate::translate::{apply_delta, rollback_subtree, xdelete, xinsert};
use crate::update::{SideEffectPolicy, ViewDelta, XmlUpdate};
use crate::viewstore::ViewStore;
use rxview_atg::{Atg, NodeId, PublishError};
use rxview_relstore::{Database, GroupUpdate, RelError, Tuple};
use rxview_xmlkit::{validate_delete, validate_insert, SchemaViolation, XmlTree};
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an update was rejected.
#[derive(Debug)]
#[allow(missing_docs)] // variant payloads are self-describing
pub enum UpdateError {
    /// Schema-level violation (§2.4).
    Schema(SchemaViolation),
    /// The XPath selects nothing: rejected as early as possible.
    EmptyTarget,
    /// The update has XML side effects and the policy is [`SideEffectPolicy::Abort`].
    SideEffects { affected: usize },
    /// The insertion would create a cycle in the DAG — the "view" would be
    /// an infinite tree (the paper assumes acyclic published data, §2.3).
    Cycle,
    /// Deletion translation failed (§4.2).
    Delete(DeleteRejection),
    /// Insertion translation failed (§4.3).
    Insert(InsertRejection),
    /// Underlying relational error.
    Rel(RelError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Schema(v) => write!(f, "schema validation failed: {v}"),
            UpdateError::EmptyTarget => write!(f, "the XPath selects no node"),
            UpdateError::SideEffects { affected } => {
                write!(
                    f,
                    "update aborted: side effects at {affected} unmatched occurrences"
                )
            }
            UpdateError::Cycle => {
                write!(
                    f,
                    "insertion would make the view cyclic (infinite XML tree)"
                )
            }
            UpdateError::Delete(e) => write!(f, "deletion not translatable: {e}"),
            UpdateError::Insert(e) => write!(f, "insertion not translatable: {e}"),
            UpdateError::Rel(e) => write!(f, "relational error: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<RelError> for UpdateError {
    fn from(e: RelError) -> Self {
        UpdateError::Rel(e)
    }
}

/// Per-phase wall-clock timings — the constituents reported in Fig.11:
/// (a) XPath evaluation, (b) translation + execution, (c) maintenance.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// XPath evaluation on the DAG (incl. side-effect detection).
    pub eval: Duration,
    /// ∆X→∆V and ∆V→∆R translation plus applying both.
    pub translate: Duration,
    /// Background maintenance of `L` and the gen tables.
    pub maintain: Duration,
}

impl PhaseTimings {
    /// Foreground time (evaluation + translation).
    pub fn foreground(&self) -> Duration {
        self.eval + self.translate
    }

    /// Total including background maintenance.
    pub fn total(&self) -> Duration {
        self.foreground() + self.maintain
    }
}

/// What an accepted update did. Anything id-valued reported with it (the
/// nodes of a [`DeferredMaintenance`]'s subtree, a [`ViewDelta`]) is valid
/// for the epoch the update committed in and no later: ids are recycled.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// Number of edge operations in `∆V`.
    pub delta_v_len: usize,
    /// The relational update `∆R` that was applied to `I`.
    pub delta_r: GroupUpdate,
    /// Number of side-effect witnesses (0 = clean; >0 means the revised
    /// semantics applied the update at every shared occurrence).
    pub side_effects: usize,
    /// Maintenance counters.
    pub maintain: MaintainReport,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Whether insertion translation invoked the SAT solver.
    pub sat_used: bool,
    /// How the update's path was evaluated ([`Evaluated::scope_nodes`]):
    /// the size of the scope order, `None` for the full pass over `L`.
    pub scope_nodes: Option<usize>,
}

/// A §3.2 evaluation together with how it ran — what
/// [`XmlViewSystem::eval`] returns and every write path carries from the
/// point of evaluation to the [`UpdateReport`].
#[derive(Debug, Clone, Default)]
pub struct Evaluated {
    /// The evaluation.
    pub eval: DagEval,
    /// Number of nodes in the scope the passes ran over; `None` when they
    /// ran over all of `L` (a global path, a cone union too large to be
    /// worth gathering, or an evaluation whose caller did not say).
    pub scope_nodes: Option<usize>,
}

impl From<DagEval> for Evaluated {
    fn from(eval: DagEval) -> Self {
        Evaluated {
            eval,
            scope_nodes: None,
        }
    }
}

/// Alias kept for API symmetry with the paper's terminology.
pub type UpdateOutcome = Result<UpdateReport, UpdateError>;

/// An update past [`XmlViewSystem::admit`]: schema-valid (§2.4), with its
/// path's compiled plan and literal bindings. Neither depends on the state,
/// so it holds on every state of its grammar.
#[derive(Debug, Clone)]
pub struct Admitted {
    plan: Arc<UpdatePlan>,
    bindings: Vec<String>,
}

/// The phase-6 obligation left behind by [`XmlViewSystem::apply_deferred`]:
/// everything the `L` halves of ∆(M,L)insert / ∆(M,L)delete need to run
/// later, possibly folded with the obligations of other updates in the same
/// batch.
#[derive(Debug)]
pub struct DeferredMaintenance {
    /// `r[[p]]` — the selected target nodes.
    selected: Vec<rxview_atg::NodeId>,
    /// The inserted subtree (insertions only).
    subtree: Option<rxview_atg::SubtreeDag>,
}

impl DeferredMaintenance {
    /// `r[[p]]`: the nodes the update's path selected.
    pub fn selected(&self) -> &[NodeId] {
        &self.selected
    }

    /// The inserted subtree `ST(A, t)` (insertions only): what the update
    /// spliced, and in `fresh` the nodes it interned.
    pub fn subtree(&self) -> Option<&rxview_atg::SubtreeDag> {
        self.subtree.as_ref()
    }
}

/// A translated-but-unapplied update: the output of phases 2b–4
/// (side-effect detection, ∆X→∆V and ∆V→∆R translation), which phase 5
/// applies to the state it was translated on.
struct TranslatedUpdate {
    /// The edge delta `∆V`.
    delta_v: ViewDelta,
    /// The relational delta `∆R`.
    delta_r: GroupUpdate,
    /// The generated subtree `ST(A,t)` (insertions only).
    subtree: Option<rxview_atg::SubtreeDag>,
    /// The selected target nodes `r[[p]]`.
    selected: Vec<rxview_atg::NodeId>,
    /// Number of side-effect witnesses.
    side_effects: usize,
    /// Whether insertion translation invoked the SAT solver.
    sat_used: bool,
    /// How the path was evaluated ([`Evaluated::scope_nodes`]).
    scope_nodes: Option<usize>,
    /// Side-effect detection time (the part of phase 2 translation runs).
    eval_time: Duration,
}

/// The complete system: database, views, auxiliary structures.
///
/// Cloning is cheap — `I` and `V` live in page-granular copy-on-write
/// containers ([`rxview_relstore::PagedMap`]), so a clone copies page pointers
/// plus `L`'s order, and a clone and its origin then diverge at
/// the cost of the pages each one writes. The serving engine's snapshots
/// are exactly such clones.
///
/// ```
/// use rxview_core::{SideEffectPolicy, XmlUpdate, XmlViewSystem};
/// use rxview_atg::{registrar_atg, registrar_database};
/// use rxview_relstore::tuple;
///
/// let db = registrar_database();
/// let atg = registrar_atg(&db).unwrap();
/// let mut sys = XmlViewSystem::new(atg, db).unwrap();
///
/// // delete p — Example 5's group deletion.
/// let u = XmlUpdate::delete("//student[ssn=S02]").unwrap();
/// let report = sys.apply(&u, SideEffectPolicy::Proceed).unwrap();
/// assert_eq!(report.delta_r.len(), 2); // two enroll tuples
/// sys.consistency_check().unwrap();    // ∆X(T) = σ(∆R(I))
/// ```
#[derive(Debug, Clone)]
pub struct XmlViewSystem {
    base: Database,
    vs: ViewStore,
    topo: TopoOrder,
}

impl XmlViewSystem {
    /// Publishes `σ(I)`, takes `L` from the order publication's acyclicity
    /// check already computed, which is [`TopoOrder::compute`]'s, then
    /// stores `I` as a checkpoint load does: equal rows of same-shape
    /// tables once ([`Database::share_equal_rows`], in place). Publication
    /// reads values, and every `$A` is a projection, so sharing after it
    /// moves no id, edge, `gen_A` row or digest — and publication runs
    /// before the replaced rows are freed, not among their chunks.
    pub fn new(atg: Atg, mut base: Database) -> Result<Self, PublishError> {
        let (vs, leaves_first) = ViewStore::publish_leaves_first(atg, &base)?;
        let topo = TopoOrder::from_order(leaves_first);
        base.share_equal_rows();
        Ok(XmlViewSystem { base, vs, topo })
    }

    /// A system from its parts, `topo` a valid order of the store's live
    /// DAG: what a checkpoint load builds.
    pub(crate) fn with_order(base: Database, vs: ViewStore, topo: TopoOrder) -> Self {
        XmlViewSystem { base, vs, topo }
    }

    /// Reassembles a system from checkpointed parts without re-publishing
    /// `σ(I)` — the recovery path's constructor. The caller (the durability
    /// codec) is responsible for the parts being mutually consistent: `topo`
    /// a valid order of the store's live DAG. Recovery tests validate the
    /// result against the republication oracle
    /// ([`XmlViewSystem::consistency_check`]). The last argument is dropped
    /// unread: the system holds no `M`, and the parameter stays for
    /// `rxbench`'s caller until ROADMAP 4(h).
    #[rustfmt::skip]
    pub fn from_parts(base: Database, vs: ViewStore, topo: TopoOrder, _: Reachability) -> Self { // ROADMAP 4(h)
        Self::with_order(base, vs, topo)
    }

    /// The underlying database `I`.
    pub fn base(&self) -> &Database {
        &self.base
    }

    /// The relational views `V`.
    pub fn view(&self) -> &ViewStore {
        &self.vs
    }

    /// The topological order `L`.
    pub fn topo(&self) -> &TopoOrder {
        &self.topo
    }

    /// The reachability matrix `M` of the current view, computed by
    /// Algorithm Reach backward over `L` at each call: `O(|M|)`, for
    /// inspection and for `rxbench`'s caller until ROADMAP 4(h).
    #[rustfmt::skip]
    pub fn reach(&self) -> Reachability { // ROADMAP 4(h)
        Reachability::compute(self.vs.dag(), &self.topo) // ROADMAP 4(h)
    }

    /// Expands the current view to an XML tree (mostly for inspection).
    pub fn expand_tree(&self) -> XmlTree {
        self.vs.dag().expand(self.vs.atg())
    }

    /// Applies an XML view update end-to-end: admission
    /// ([`XmlViewSystem::admit`]), then phase 2 through the admitted plan
    /// ([`XmlViewSystem::eval_admitted`]), so an anchored update costs its
    /// cones, not the view.
    pub fn apply(&mut self, update: &XmlUpdate, policy: SideEffectPolicy) -> UpdateOutcome {
        let admitted = self.admit(update)?;

        // Phase 2: evaluate the XPath on the DAG.
        let t0 = Instant::now();
        let eval = self.eval_admitted(&admitted);
        let d_eval = t0.elapsed();

        // Phases 2b–5 plus inline phase 6.
        let (mut report, job) = self.apply_admitted(update, policy, eval)?;
        let t2 = Instant::now();
        let Ok(maintain) = self.fold_maintenance(vec![job]);
        report.maintain = maintain;
        report.timings.eval += d_eval;
        report.timings.maintain = t2.elapsed();
        Ok(report)
    }

    /// **The** admission of an update, run first by [`XmlViewSystem::apply`]
    /// (so by recovery replay) and by the serving engine's `submit`: one
    /// plan-cache lookup, then schema-level validation (§2.4) — the verdict
    /// for the update's kind over the walk its plan compiled once per shape,
    /// equal to [`validate_insert`] / [`validate_delete`] on the update.
    pub fn admit(&self, update: &XmlUpdate) -> Result<Admitted, UpdateError> {
        let (plan, bindings) = self.plan_of(update.path());
        let dtd = self.vs.atg().dtd();
        match update {
            XmlUpdate::Insert { ty, .. } => plan.schema.check_insert(dtd, ty),
            XmlUpdate::Delete { .. } => plan.schema.check_delete(dtd),
        }
        .map_err(UpdateError::Schema)?;
        Ok(Admitted { plan, bindings })
    }

    fn plan_of(&self, path: &rxview_xmlkit::XPath) -> (Arc<UpdatePlan>, Vec<String>) {
        self.vs.plan_cache().plan(self.vs.atg().dtd(), path)
    }

    /// The full §3.2 two-pass evaluation over all of `L` — the paper's
    /// algorithm, `O(|p|·|V|)`: the reference [`XmlViewSystem::eval`] is
    /// held equal to, and its fallback for paths nothing bounds. Runs the
    /// path's compiled plan from the shared cache, like every evaluation.
    pub fn evaluate(&self, path: &rxview_xmlkit::XPath) -> DagEval {
        let (plan, bindings) = self.plan_of(path);
        self.run_passes(&plan, &bindings, None)
    }

    /// Evaluates a path over the nodes of `scope` only: a subsequence of
    /// `L` (ascending along [`XmlViewSystem::topo`]) closed under
    /// descendants, as [`XmlViewSystem::scope_of`] returns. Nodes outside
    /// the scope never satisfy a filter, so the caller must guarantee every
    /// possible match lies inside the scope; the scopes `scope_of` builds
    /// do.
    pub fn evaluate_scoped(&self, path: &rxview_xmlkit::XPath, scope: &[NodeId]) -> DagEval {
        let (plan, bindings) = self.plan_of(path);
        self.run_passes(&plan, &bindings, Some(scope))
    }

    /// The §3.2 passes of `plan` over `scope`, or over all of `L`.
    fn run_passes(
        &self,
        plan: &UpdatePlan,
        bindings: &[String],
        scope: Option<&[NodeId]>,
    ) -> DagEval {
        let Some(scope) = scope else {
            return eval_plan(&self.vs, self.topo.order(), plan, bindings);
        };
        debug_assert!(
            scope.windows(2).all(|w| {
                let rank = |v| self.topo.position(v).expect("a scope node is in L");
                rank(w[0]) < rank(w[1])
            }),
            "a scope ascends along L"
        );
        eval_plan(&self.vs, scope, plan, bindings)
    }

    /// The [`PathClass`] of `path`, through the shared plan cache: the
    /// slotted class is compiled once per path shape and re-bound to this
    /// path's literals — equal to [`crate::pathclass::classify`] on the
    /// concrete path (`tests/reference_oracles.rs`).
    pub fn class_of(&self, path: &rxview_xmlkit::XPath) -> PathClass {
        let (plan, bindings) = self.plan_of(path);
        plan.class(&bindings)
    }

    /// The evaluation scope of `path` against the current state: the nodes
    /// of `{root} ∪ cones` of its resolved anchors (ancestor chains included
    /// for `//`-headed paths), in `L` order. `None` when the full pass is
    /// the right evaluation — nothing bounds the path, or its cone union is
    /// too large a share of `L` to be worth gathering ([`scope_of_anchors`]).
    pub fn scope_of(&self, path: &rxview_xmlkit::XPath) -> Option<Vec<NodeId>> {
        self.scope_of_class(&self.class_of(path))
    }

    /// [`XmlViewSystem::scope_of`] of a class: nothing planned, so no reads
    /// recorded, under the default anchor cap.
    fn scope_of_class(&self, class: &PathClass) -> Option<Vec<NodeId>> {
        let anchors = resolve_anchors(&self.vs, class, MAX_CONE_ANCHORS, None)?;
        scope_of_anchors(&self.vs, &self.topo, &anchors)
    }

    /// **The** evaluation entry point of reads: one plan-cache lookup gives
    /// the path's class — its anchors, resolved from the `gen_A` registries,
    /// and their cones in `L` order — and the §3.2 passes run on that scope,
    /// or on all of `L` ([`XmlViewSystem::scope_of`]). Returns exactly what
    /// [`XmlViewSystem::evaluate`] returns (`tests/scoped_eval.rs`), at a
    /// cost proportional to what the path can touch.
    pub fn eval(&self, path: &rxview_xmlkit::XPath) -> Evaluated {
        let (plan, bindings) = self.plan_of(path);
        let scope = self.scope_of_class(&plan.class(&bindings));
        self.eval_over(&plan, &bindings, scope)
    }

    /// [`XmlViewSystem::eval`] through an admitted update's plan, looking
    /// nothing up: the evaluation of writes and replay.
    pub fn eval_admitted(&self, admitted: &Admitted) -> Evaluated {
        let Admitted { plan, bindings } = admitted;
        let scope = self.scope_of_class(&plan.class(bindings));
        self.eval_over(plan, bindings, scope)
    }

    /// [`XmlViewSystem::eval`] for a caller that has already resolved the
    /// path's anchors (the conflict analyzer, which needs them for cones).
    pub fn eval_within(&self, path: &rxview_xmlkit::XPath, anchors: &Anchors) -> Evaluated {
        let (plan, bindings) = self.plan_of(path);
        let scope = scope_of_anchors(&self.vs, &self.topo, anchors);
        self.eval_over(&plan, &bindings, scope)
    }

    fn eval_over(
        &self,
        plan: &UpdatePlan,
        bindings: &[String],
        scope: Option<Vec<NodeId>>,
    ) -> Evaluated {
        Evaluated {
            eval: self.run_passes(plan, bindings, scope.as_deref()),
            scope_nodes: scope.as_ref().map(Vec::len),
        }
    }

    /// Schema validation, one-shot ([`validate_insert`] /
    /// [`validate_delete`]: no plan is looked up), then
    /// [`XmlViewSystem::apply_admitted`] with an
    /// evaluation the caller made some other way — the reference's §3.2
    /// verbatim, or a batch evaluated against its start state, whose jobs
    /// one fold can take together (all its deletions' upkeep in a single
    /// delete pass). `eval` is an [`Evaluated`] or a bare
    /// [`DagEval`].
    pub fn apply_deferred(
        &mut self,
        update: &XmlUpdate,
        policy: SideEffectPolicy,
        eval: impl Into<Evaluated>,
    ) -> Result<(UpdateReport, DeferredMaintenance), UpdateError> {
        let dtd = self.vs.atg().dtd();
        match update {
            XmlUpdate::Insert { ty, path, .. } => validate_insert(dtd, path, ty),
            XmlUpdate::Delete { path } => validate_delete(dtd, path),
        }
        .map_err(UpdateError::Schema)?;
        self.apply_admitted(update, policy, eval.into())
    }

    /// Runs the deferred phase-6 work of a batch: per-subtree `L` splice and
    /// repair (∆(M,L)insert's `L` half) in submission order, then one delete
    /// pass over the union of all deletion targets (garbage collection and
    /// `L`'s compaction). This is the one place a batch's maintenance is
    /// grouped: where the deletion jobs sit in `jobs` changes nothing.
    ///
    /// The engine hands it one job at a time. A batch of several is updates
    /// that were each evaluated against the state the batch started from,
    /// so no job targets a node another job of the batch created
    /// (`tests/batched_fold.rs` holds one fold of such a batch equal to one
    /// fold per update, and to a fold of the same jobs with the deletions
    /// reordered).
    ///
    /// A fold cannot fail: the `Result` is [`Infallible`], so callers bind
    /// it with `let Ok(report) = …`.
    pub fn fold_maintenance(
        &mut self,
        jobs: Vec<DeferredMaintenance>,
    ) -> Result<MaintainReport, Infallible> {
        let mut agg = MaintainReport::default();
        let mut delete_targets: Vec<rxview_atg::NodeId> = Vec::new();
        for job in jobs {
            match job.subtree {
                Some(st) => agg.absorb(&insert_job(
                    self.vs.dag(),
                    &mut self.topo,
                    &st,
                    &job.selected,
                )),
                None => delete_targets.extend(job.selected),
            }
        }
        if !delete_targets.is_empty() {
            let dag = self.vs.dag_mut();
            agg.absorb(&delete_pass(dag, &mut self.topo, &delete_targets));
        }
        Ok(agg)
    }

    /// Phases 2b–5 of an admitted update, given its evaluation, deferring
    /// phase 6: side-effect detection, ∆X→∆V, ∆V→∆R, and application of
    /// both deltas. The returned [`DeferredMaintenance`] must be handed
    /// (possibly batched with others) to [`XmlViewSystem::fold_maintenance`]
    /// before the next evaluation that depends on a fresh `L`. The
    /// serving engine's commit loop applies through it.
    pub fn apply_admitted(
        &mut self,
        update: &XmlUpdate,
        policy: SideEffectPolicy,
        eval: Evaluated,
    ) -> Result<(UpdateReport, DeferredMaintenance), UpdateError> {
        let t1 = Instant::now();
        let space = self.vs.dag().genid().n_allocated();
        let t = match update {
            XmlUpdate::Insert { ty, attr, .. } => {
                translate_insert(&mut self.vs, &self.base, &self.topo, ty, attr, policy, eval)
            }
            XmlUpdate::Delete { .. } => translate_delete(&self.vs, &self.base, policy, eval),
        }?;
        // Phase 5: apply ∆R to I and ∆V to V.
        if let Err(e) = self.base.apply(&t.delta_r) {
            if let Some(st) = &t.subtree {
                rollback_subtree(&mut self.vs, st, space);
            }
            return Err(UpdateError::Rel(e));
        }
        apply_delta(&mut self.vs, &t.delta_v);
        let timings = PhaseTimings {
            eval: t.eval_time,
            translate: t1.elapsed() - t.eval_time,
            maintain: Duration::ZERO,
        };

        let report = UpdateReport {
            delta_v_len: t.delta_v.len(),
            delta_r: t.delta_r,
            side_effects: t.side_effects,
            maintain: MaintainReport::default(),
            timings,
            sat_used: t.sat_used,
            scope_nodes: t.scope_nodes,
        };
        Ok((
            report,
            DeferredMaintenance {
                selected: t.selected,
                subtree: t.subtree,
            },
        ))
    }

    /// The **republication oracle**: republishes `σ(I)` from scratch and
    /// compares against the incrementally maintained view — edges and
    /// `gen_A` (the live nodes) through the [`Observed`](crate::Observed)
    /// digest's sections, so no node outlives its last parent — and checks
    /// that `L` is a topological order of the view. This is the paper's
    /// correctness criterion `∆X(T) = σ(∆R(I))` made executable.
    pub fn consistency_check(&self) -> Result<(), String> {
        let fresh = ViewStore::publish(self.vs.atg().clone(), &self.base)
            .map_err(|e| format!("republication failed: {e}"))?;
        if crate::digest::edges(&self.vs) != crate::digest::edges(&fresh) {
            return Err(format!(
                "view diverged from republication: {} edges maintained, {} republished, \
                 the Observed `edges` section differs",
                self.vs.n_edges(),
                fresh.n_edges()
            ));
        }
        if crate::digest::gen_tables(&self.vs) != crate::digest::gen_tables(&fresh) {
            return Err("live nodes diverged from republication: `gen_A` differs".into());
        }
        if !self.topo.is_valid_for(self.vs.dag()) {
            return Err("topological order invalid".into());
        }
        Ok(())
    }
}

/// Phase 2b: side-effect detection (part of the evaluation constituent of
/// Fig.11) and the policy's verdict on it. Returns the number of witnesses
/// and the time detection took.
fn screen(
    vs: &ViewStore,
    eval: &DagEval,
    deletion: bool,
    policy: SideEffectPolicy,
) -> Result<(usize, Duration), UpdateError> {
    let t0 = Instant::now();
    let side_effects = eval.side_effects(vs, deletion);
    let eval_time = t0.elapsed();
    if eval.is_empty() {
        return Err(UpdateError::EmptyTarget);
    }
    if !side_effects.is_empty() && policy == SideEffectPolicy::Abort {
        return Err(UpdateError::SideEffects {
            affected: side_effects.len(),
        });
    }
    Ok((side_effects.len(), eval_time))
}

/// Phases 2b–4 of `delete p`: Xdelete and Algorithm delete, nothing
/// applied. A deletion interns nothing, so this reads `vs` — the state
/// [`XmlViewSystem::apply`], `apply_deferred` and recovery are about to
/// write.
fn translate_delete(
    vs: &ViewStore,
    base: &Database,
    policy: SideEffectPolicy,
    eval: Evaluated,
) -> Result<TranslatedUpdate, UpdateError> {
    let Evaluated { eval, scope_nodes } = eval;
    let (side_effects, eval_time) = screen(vs, &eval, true, policy)?;
    let delta_v = xdelete(&eval);
    let delta_r = translate_deletions(vs, base, &delta_v).map_err(UpdateError::Delete)?;
    Ok(TranslatedUpdate {
        delta_v,
        delta_r,
        subtree: None,
        selected: eval.selected,
        side_effects,
        sat_used: false,
        scope_nodes,
        eval_time,
    })
}

/// Phases 2b–4 of `insert (ty, attr) into p`: Xinsert and Algorithm insert,
/// nothing applied but the subtree's interning into `vs`, which a rejection
/// rolls back.
fn translate_insert(
    vs: &mut ViewStore,
    base: &Database,
    topo: &TopoOrder,
    ty: &str,
    attr: &Tuple,
    policy: SideEffectPolicy,
    eval: Evaluated,
) -> Result<TranslatedUpdate, UpdateError> {
    let Evaluated { eval, scope_nodes } = eval;
    let (side_effects, eval_time) = screen(vs, &eval, false, policy)?;
    let ty_id =
        vs.atg()
            .dtd()
            .type_id(ty)
            .ok_or(UpdateError::Schema(SchemaViolation::UnknownType(
                ty.to_owned(),
            )))?;
    let space = vs.dag().genid().n_allocated();
    let (delta_v, st) = xinsert(vs, base, ty_id, attr.clone(), &eval)?;
    if closes_cycle(vs.dag(), topo, st.shared_nodes(), &eval.selected) {
        rollback_subtree(vs, &st, space);
        return Err(UpdateError::Cycle);
    }
    let translation = match translate_insertions(vs, base, &delta_v) {
        Ok(t) => t,
        Err(e) => {
            rollback_subtree(vs, &st, space);
            return Err(UpdateError::Insert(e));
        }
    };
    Ok(TranslatedUpdate {
        delta_v,
        delta_r: translation.delta_r,
        subtree: Some(st),
        selected: eval.selected,
        side_effects,
        sat_used: translation.sat_used,
        scope_nodes,
        eval_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::tuple;

    fn system() -> XmlViewSystem {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        XmlViewSystem::new(atg, db).unwrap()
    }

    #[test]
    fn example1_insert_with_side_effects() {
        // ∆X of Example 1 (with MA100 standing in for CS240, which is
        // already a prerequisite of CS320 in the Fig.1 instance): insert a
        // course into course[cno=CS650]//course[cno=CS320]/prereq.
        let mut sys = system();
        let u = XmlUpdate::insert(
            "course",
            tuple!["MA100", "Calculus"],
            "course[cno=CS650]//course[cno=CS320]/prereq",
        )
        .unwrap();
        // With Abort policy the side effect (top-level CS320) rejects it.
        let err = sys.apply(&u, SideEffectPolicy::Abort).unwrap_err();
        assert!(matches!(err, UpdateError::SideEffects { .. }));
        sys.consistency_check().unwrap();

        // With Proceed it is applied at every CS320 occurrence (they are one
        // DAG node, so this costs nothing extra).
        let report = sys.apply(&u, SideEffectPolicy::Proceed).unwrap();
        assert!(report.side_effects > 0);
        assert!(!report.delta_r.is_empty());
        assert!(sys
            .base()
            .table("prereq")
            .unwrap()
            .contains_key(&tuple!["CS320", "MA100"]));
        sys.consistency_check().unwrap();
    }

    #[test]
    fn delete_prereq_edge_end_to_end() {
        let mut sys = system();
        let u = XmlUpdate::delete("course[cno=CS650]/prereq/course[cno=CS320]").unwrap();
        let report = sys.apply(&u, SideEffectPolicy::Abort).unwrap();
        assert_eq!(report.side_effects, 0);
        assert!(!sys
            .base()
            .table("prereq")
            .unwrap()
            .contains_key(&tuple!["CS650", "CS320"]));
        sys.consistency_check().unwrap();
    }

    #[test]
    fn delete_students_everywhere() {
        let mut sys = system();
        let u = XmlUpdate::delete("//student[ssn=S02]").unwrap();
        let report = sys.apply(&u, SideEffectPolicy::Abort).unwrap();
        assert!(report.delta_v_len >= 2);
        // Bob's student node is garbage collected.
        assert!(report.maintain.gc_nodes >= 1);
        sys.consistency_check().unwrap();
    }

    #[test]
    fn schema_invalid_update_rejected_before_touching_data() {
        let mut sys = system();
        let u = XmlUpdate::delete("course/cno").unwrap();
        let err = sys.apply(&u, SideEffectPolicy::Proceed).unwrap_err();
        assert!(matches!(err, UpdateError::Schema(_)));
        sys.consistency_check().unwrap();
    }

    #[test]
    fn empty_target_rejected() {
        let mut sys = system();
        let u = XmlUpdate::delete("course[cno=NOPE]/prereq/course").unwrap();
        let err = sys.apply(&u, SideEffectPolicy::Proceed).unwrap_err();
        assert!(matches!(err, UpdateError::EmptyTarget));
        sys.consistency_check().unwrap();
    }

    #[test]
    fn rejected_insert_rolls_back_interned_nodes() {
        let mut sys = system();
        let n_before = sys.view().dag().genid().n_live();
        // Wrong title for an existing course: key conflict in translation.
        let u = XmlUpdate::insert(
            "course",
            tuple!["CS240", "Wrong Title"],
            "course[cno=CS650]/prereq",
        )
        .unwrap();
        let err = sys.apply(&u, SideEffectPolicy::Proceed).unwrap_err();
        assert!(matches!(err, UpdateError::Insert(_)));
        assert_eq!(sys.view().dag().genid().n_live(), n_before);
        sys.consistency_check().unwrap();
    }

    #[test]
    fn insert_then_delete_round_trip() {
        let mut sys = system();
        let ins = XmlUpdate::insert(
            "course",
            tuple!["CS240", "Data Structures"],
            "course[cno=CS650]/prereq",
        )
        .unwrap();
        sys.apply(&ins, SideEffectPolicy::Proceed).unwrap();
        sys.consistency_check().unwrap();
        let del = XmlUpdate::delete("course[cno=CS650]/prereq/course[cno=CS240]").unwrap();
        sys.apply(&del, SideEffectPolicy::Proceed).unwrap();
        sys.consistency_check().unwrap();
        assert!(!sys
            .base()
            .table("prereq")
            .unwrap()
            .contains_key(&tuple!["CS650", "CS240"]));
    }

    #[test]
    fn new_student_insert_end_to_end() {
        let mut sys = system();
        let u = XmlUpdate::insert(
            "student",
            tuple!["S77", "Carol"],
            "course[cno=CS650]/takenBy",
        )
        .unwrap();
        let report = sys.apply(&u, SideEffectPolicy::Abort).unwrap();
        assert_eq!(report.side_effects, 0);
        assert!(sys
            .base()
            .table("student")
            .unwrap()
            .contains_key(&tuple!["S77"]));
        assert!(sys
            .base()
            .table("enroll")
            .unwrap()
            .contains_key(&tuple!["S77", "CS650"]));
        sys.consistency_check().unwrap();
    }

    #[test]
    fn planning_dry_run_feeds_translation_closure_cache() {
        // The footprint-only dry run grounds template keys through the same
        // compiled skeletons the real translation instantiates; both count
        // as registry hits on the one-shot compilation.
        let mut sys = system();
        let u = XmlUpdate::insert(
            "course",
            tuple!["MA100", "Calculus"],
            "course[cno=CS650]/prereq",
        )
        .unwrap();
        let eval = sys.evaluate(u.path());
        let mut fp = crate::footprint::RelFootprint::default();
        let course = sys.view().atg().dtd().type_id("course").unwrap();
        let mut ids = rxview_atg::Provisional::new(sys.view().dag().genid());
        let attr = tuple!["MA100", "Calculus"];
        let st = rxview_atg::generate_subtree(sys.view().atg(), sys.base(), &mut ids, course, attr)
            .unwrap();
        assert!(crate::footprint::planned_insert_writes(
            sys.view(),
            sys.base(),
            &st,
            &ids,
            &eval.selected,
            &mut fp,
        ));
        let after_plan = sys.view().plan_cache().template_stats();
        assert!(after_plan.compiles > 0, "the dry run compiles the registry");
        assert!(after_plan.hits > 0, "the dry run instantiates templates");
        sys.apply(&u, SideEffectPolicy::Proceed).unwrap();
        let after_apply = sys.view().plan_cache().template_stats();
        assert_eq!(
            after_apply.compiles, after_plan.compiles,
            "real translation must reuse the planner's compilation"
        );
        assert!(
            after_apply.hits > after_plan.hits,
            "real translation instantiates the same templates"
        );
    }

    /// The cycle guard as a cost model: over an anchored stream — each
    /// insert links an existing course below another's `prereq`, so its
    /// subtree is all shared — the walk reads the same child lists under a
    /// 21- and a 2 001-course view: it never enters what `L` places below
    /// the target.
    #[test]
    fn the_cycle_guard_reads_the_same_child_lists_at_two_view_sizes() {
        let reads = |n: usize| {
            let mut db = registrar_database();
            for i in 0..n {
                let (cno, title) = (format!("X{i}"), format!("T{i}"));
                db.insert("course", tuple![cno.as_str(), title.as_str(), "CS"])
                    .unwrap();
            }
            let mut sys = XmlViewSystem::new(registrar_atg(&db).unwrap(), db).unwrap();
            crate::reach::GUARD_CHILD_READS.with(|c| c.set(0));
            for i in 0..10 {
                let (cno, title) = (format!("X{}", i + 1), format!("T{}", i + 1));
                let path = format!("course[cno=X{i}]/prereq");
                let u = XmlUpdate::insert("course", tuple![cno.as_str(), title.as_str()], &path)
                    .unwrap();
                sys.apply(&u, SideEffectPolicy::Proceed).unwrap();
            }
            // The chain closed: X10 above X0 is a cycle.
            let u =
                XmlUpdate::insert("course", tuple!["X0", "T0"], "course[cno=X10]/prereq").unwrap();
            let err = sys.apply(&u, SideEffectPolicy::Proceed).unwrap_err();
            assert!(matches!(err, UpdateError::Cycle), "{err}");
            sys.consistency_check().unwrap();
            crate::reach::GUARD_CHILD_READS.with(|c| c.get())
        };
        let (small, large) = (reads(20), reads(2_000));
        assert!(small > 0 && small <= 400, "{small} child lists read");
        assert_eq!(small, large, "the guard's reads grow with the view");
    }

    #[test]
    fn timings_are_recorded() {
        let mut sys = system();
        let u = XmlUpdate::delete("//student[ssn=S01]").unwrap();
        let report = sys.apply(&u, SideEffectPolicy::Proceed).unwrap();
        // All phases ran (durations may be tiny but the struct is filled).
        let _ = report.timings.foreground();
        let _ = report.timings.total();
    }
}
