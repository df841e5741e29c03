//! The end-to-end update-processing framework of §2.4 (Fig.3).
//!
//! An [`XmlViewSystem`] owns the published database `I`, the relational
//! views `V` (the DAG coding), and the auxiliary structures `M` and `L`.
//! Each XML update flows through the paper's phases:
//!
//! 1. **DTD validation** at the schema level (§2.4);
//! 2. **XPath evaluation on the DAG** + side-effect detection (§3.2);
//! 3. **∆X → ∆V** (Xinsert / Xdelete, §3.3);
//! 4. **∆V → ∆R** (Algorithm delete / insert, §4);
//! 5. apply `∆R` to `I` and `∆V` to `V`;
//! 6. **background maintenance** of `M`, `L`, and the `gen` tables (§3.4),
//!    timed separately — the (c) constituent of Fig.11.

use crate::dag_eval::DagEval;
use crate::maintain::{delete_pass, insert_job, MaintainReport};
use crate::pathclass::{resolve_anchors, scope_of_anchors, Anchors, PathClass, MAX_CONE_ANCHORS};
use crate::reach::{ReachBatch, Reachability};
use crate::rel_delete::{translate_deletions, DeleteRejection};
use crate::rel_insert::{translate_insertions, InsertRejection};
use crate::topo::TopoOrder;
use crate::translate::{apply_delta, rollback_subtree, xdelete, xinsert};
use crate::update::{SideEffectPolicy, ViewDelta, XmlUpdate};
use crate::viewstore::ViewStore;
use rxview_atg::{Atg, NodeId, PublishError};
use rxview_relstore::{Database, GroupUpdate, RelError, Tuple};
use rxview_satsolver::WalkSatConfig;
use rxview_xmlkit::{validate_delete, validate_insert, SchemaViolation, XmlTree};
use std::fmt;
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
    /// Background maintenance of `M`, `L`, gen tables.
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

/// The phase-6 obligation left behind by [`XmlViewSystem::apply_deferred`]:
/// everything ∆(M,L)insert / ∆(M,L)delete needs to run later, possibly
/// folded with the obligations of other updates in the same batch.
#[derive(Debug)]
pub struct DeferredMaintenance {
    /// `r[[p]]` — the selected target nodes.
    selected: Vec<rxview_atg::NodeId>,
    /// The inserted subtree (insertions only).
    subtree: Option<rxview_atg::SubtreeDag>,
}

impl DeferredMaintenance {
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
/// Cloning is cheap — `I`, `V` and `M` live in page-granular copy-on-write
/// containers ([`rxview_relstore::PagedMap`]), so a clone copies page pointers
/// plus `L`'s two dense arrays, and a clone and its origin then diverge at
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
    reach: Reachability,
}

impl XmlViewSystem {
    /// Publishes `σ(I)` and builds `M` and `L` — `L` from the order
    /// publication's acyclicity check already computed, which is
    /// [`TopoOrder::compute`]'s.
    pub fn new(atg: Atg, base: Database) -> Result<Self, PublishError> {
        let (vs, leaves_first) = ViewStore::publish_leaves_first(atg, &base)?;
        let topo = TopoOrder::from_order(leaves_first);
        let reach = Reachability::compute(vs.dag(), &topo);
        Ok(XmlViewSystem {
            base,
            vs,
            topo,
            reach,
        })
    }

    /// Reassembles a system from checkpointed parts without re-publishing
    /// `σ(I)` — the recovery path's constructor. The caller (the durability
    /// codec) is responsible for the parts being mutually consistent: `topo`
    /// a valid order of the store's live DAG and `reach` its transitive
    /// closure. Recovery tests validate the result against the
    /// republication oracle ([`XmlViewSystem::consistency_check`]).
    pub fn from_parts(base: Database, vs: ViewStore, topo: TopoOrder, reach: Reachability) -> Self {
        XmlViewSystem {
            base,
            vs,
            topo,
            reach,
        }
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

    /// The reachability matrix `M`.
    pub fn reach(&self) -> &Reachability {
        &self.reach
    }

    /// Expands the current view to an XML tree (mostly for inspection).
    pub fn expand_tree(&self) -> XmlTree {
        self.vs.dag().expand(self.vs.atg())
    }

    /// Applies an XML view update end-to-end. Phase 2 runs through the
    /// scope-aware [`XmlViewSystem::eval`], so an anchored update costs its
    /// cones, not the view.
    pub fn apply(&mut self, update: &XmlUpdate, policy: SideEffectPolicy) -> UpdateOutcome {
        let mut timings = PhaseTimings::default();
        // Phase 1: schema-level validation.
        self.validate_schema(update)?;

        // Phase 2: evaluate the XPath on the DAG.
        let t0 = Instant::now();
        let eval = self.eval(update.path());
        timings.eval = t0.elapsed();

        // Phases 2b–5 plus inline phase 6.
        let (mut report, job) = self.apply_phases(update, policy, eval, &mut timings)?;
        let t2 = Instant::now();
        report.maintain = self.fold_maintenance(vec![job])?;
        timings.maintain = t2.elapsed();
        report.timings = timings;
        Ok(report)
    }

    /// Phase 1 on its own: schema-level validation (§2.4).
    pub fn validate_schema(&self, update: &XmlUpdate) -> Result<(), UpdateError> {
        let dtd = self.vs.atg().dtd();
        match update {
            XmlUpdate::Insert { ty, path, .. } => {
                validate_insert(dtd, path, ty).map_err(UpdateError::Schema)
            }
            XmlUpdate::Delete { path } => validate_delete(dtd, path).map_err(UpdateError::Schema),
        }
    }

    /// The full §3.2 two-pass evaluation over all of `L` — the paper's
    /// algorithm, `O(|p|·|V|)`: the reference [`XmlViewSystem::eval`] is
    /// held equal to, and its fallback for paths nothing bounds. Runs the
    /// path's compiled plan from the shared cache, like every evaluation.
    pub fn evaluate(&self, path: &rxview_xmlkit::XPath) -> DagEval {
        self.run_passes(path, self.topo.order())
    }

    /// Evaluates a path over the nodes of `scope` only: a subsequence of
    /// `L` (ascending along [`XmlViewSystem::topo`]) closed under
    /// descendants, as [`XmlViewSystem::scope_of`] returns. Nodes outside
    /// the scope never satisfy a filter, so the caller must guarantee every
    /// possible match lies inside the scope; the scopes `scope_of` builds
    /// do.
    pub fn evaluate_scoped(&self, path: &rxview_xmlkit::XPath, scope: &[NodeId]) -> DagEval {
        debug_assert!(
            scope.windows(2).all(|w| {
                let rank = |v| self.topo.position(v).expect("a scope node is in L");
                rank(w[0]) < rank(w[1])
            }),
            "a scope ascends along L"
        );
        self.run_passes(path, scope)
    }

    fn run_passes(&self, path: &rxview_xmlkit::XPath, order: &[NodeId]) -> DagEval {
        let (plan, bindings) = self.vs.plan_cache().plan(self.vs.atg().dtd(), path);
        crate::plan::eval_plan(&self.vs, order, &plan, &bindings)
    }

    /// The [`PathClass`] of `path`, through the shared plan cache: the
    /// slotted class is compiled once per path shape and re-bound to this
    /// path's literals — equal to [`crate::pathclass::classify`] on the
    /// concrete path (`tests/reference_oracles.rs`).
    pub fn class_of(&self, path: &rxview_xmlkit::XPath) -> PathClass {
        let (plan, bindings) = self.vs.plan_cache().plan(self.vs.atg().dtd(), path);
        plan.class(&bindings)
    }

    /// The evaluation scope of `path` against the current state: the nodes
    /// of `{root} ∪ cones` of its resolved anchors (ancestor chains included
    /// for `//`-headed paths), in `L` order. `None` when the full pass is
    /// the right evaluation — nothing bounds the path, or its cone union is
    /// too large a share of `L` to be worth gathering ([`scope_of_anchors`]).
    pub fn scope_of(&self, path: &rxview_xmlkit::XPath) -> Option<Vec<NodeId>> {
        scope_of_anchors(&self.vs, &self.topo, &self.reach, &self.anchors_of(path)?)
    }

    /// The anchors of `path` as reads and replay resolve them: nothing
    /// planned, so no reads recorded, under the default anchor cap.
    fn anchors_of(&self, path: &rxview_xmlkit::XPath) -> Option<Anchors> {
        resolve_anchors(&self.vs, &self.class_of(path), MAX_CONE_ANCHORS, None)
    }

    /// **The** evaluation entry point of writes, reads and replay: resolve
    /// the path's anchors from the `gen_A` registries, gather their cones in
    /// `L` order, run the §3.2 passes on that scope — or on all of
    /// `L` when [`XmlViewSystem::scope_of`] has no scope to offer. Returns
    /// exactly what [`XmlViewSystem::evaluate`] returns (every match of a
    /// classified path lies inside its cones; `tests/scoped_eval.rs` holds
    /// the two equal), at a cost proportional to what the path can touch.
    pub fn eval(&self, path: &rxview_xmlkit::XPath) -> Evaluated {
        match self.anchors_of(path) {
            Some(anchors) => self.eval_within(path, &anchors),
            None => self.evaluate(path).into(),
        }
    }

    /// [`XmlViewSystem::eval`] for a caller that has already resolved the
    /// path's anchors (the conflict analyzer, which needs them for cones).
    pub fn eval_within(&self, path: &rxview_xmlkit::XPath, anchors: &Anchors) -> Evaluated {
        match scope_of_anchors(&self.vs, &self.topo, &self.reach, anchors) {
            Some(scope) => Evaluated {
                eval: self.evaluate_scoped(path, &scope),
                scope_nodes: Some(scope.len()),
            },
            None => self.evaluate(path).into(),
        }
    }

    /// Phases 2b–5 with a caller-supplied evaluation, deferring phase 6:
    /// side-effect detection, ∆X→∆V, ∆V→∆R, and application of both deltas.
    /// The returned [`DeferredMaintenance`] must be handed (possibly batched
    /// with others) to [`XmlViewSystem::fold_maintenance`] before the next
    /// evaluation that depends on fresh `M`/`L` state.
    ///
    /// The serving engine folds each update's job before it evaluates the
    /// next one; a caller that evaluated a whole batch against the batch's
    /// start state may fold the batch's jobs together instead, and the
    /// `M`/`L` upkeep of all its deletions collapses into a single
    /// ∆(M,L)delete pass.
    ///
    /// `eval` is an [`Evaluated`] — what [`XmlViewSystem::eval`] returned,
    /// so the report can say how the path was evaluated — or a bare
    /// [`DagEval`] from a caller that evaluated some other way.
    pub fn apply_deferred(
        &mut self,
        update: &XmlUpdate,
        policy: SideEffectPolicy,
        eval: impl Into<Evaluated>,
    ) -> Result<(UpdateReport, DeferredMaintenance), UpdateError> {
        let mut timings = PhaseTimings::default();
        self.validate_schema(update)?;
        self.apply_phases(update, policy, eval.into(), &mut timings)
    }

    /// Runs the deferred phase-6 work of a batch: per-subtree ∆(M,L)insert
    /// in submission order, then one ∆(M,L)delete pass over the union of all
    /// deletion targets (including garbage collection). This is the one
    /// place a batch's ∆(M,L) work is grouped: where the deletion jobs sit
    /// in `jobs` changes nothing.
    ///
    /// The engine hands it one job at a time. A batch of several is updates
    /// that were each evaluated against the state the batch started from,
    /// so no job targets a node another job of the batch created
    /// (`tests/batched_fold.rs` holds one fold of such a batch equal to one
    /// fold per update, and to a fold of the same jobs with the deletions
    /// reordered).
    pub fn fold_maintenance(
        &mut self,
        jobs: Vec<DeferredMaintenance>,
    ) -> Result<MaintainReport, UpdateError> {
        let mut agg = MaintainReport::default();
        if jobs.is_empty() {
            return Ok(agg);
        }
        // One batch of merge buffers per fold (see `maintain`'s cost model).
        let mut batch = ReachBatch::default();
        let mut delete_targets: Vec<rxview_atg::NodeId> = Vec::new();
        for job in jobs {
            match job.subtree {
                Some(st) => agg.absorb(&insert_job(
                    &self.vs,
                    &mut self.topo,
                    &mut self.reach,
                    &mut batch,
                    &st,
                    &job.selected,
                )),
                None => delete_targets.extend(job.selected),
            }
        }
        if !delete_targets.is_empty() {
            agg.absorb(&delete_pass(
                &mut self.vs,
                &mut self.topo,
                &mut self.reach,
                &mut batch,
                &delete_targets,
            )?);
        }
        Ok(agg)
    }

    /// Phases 2b–5: side-effect detection, translation, and application.
    fn apply_phases(
        &mut self,
        update: &XmlUpdate,
        policy: SideEffectPolicy,
        eval: Evaluated,
        timings: &mut PhaseTimings,
    ) -> Result<(UpdateReport, DeferredMaintenance), UpdateError> {
        let t1 = Instant::now();
        let t = match update {
            XmlUpdate::Insert { ty, attr, .. } => translate_insert(
                &mut self.vs,
                &self.base,
                &self.reach,
                ty,
                attr,
                policy,
                eval,
            ),
            XmlUpdate::Delete { .. } => translate_delete(&self.vs, &self.base, policy, eval),
        }?;
        timings.eval += t.eval_time;
        // Phase 5: apply ∆R to I and ∆V to V.
        if let Err(e) = self.base.apply(&t.delta_r) {
            if let Some(st) = &t.subtree {
                rollback_subtree(&mut self.vs, st);
            }
            return Err(UpdateError::Rel(e));
        }
        apply_delta(&mut self.vs, &t.delta_v, t.subtree.as_ref())?;
        timings.translate = t1.elapsed() - t.eval_time;

        let report = UpdateReport {
            delta_v_len: t.delta_v.len(),
            delta_r: t.delta_r,
            side_effects: t.side_effects,
            maintain: MaintainReport::default(),
            timings: *timings,
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

    /// Applies a *relational* group update directly to `I` and propagates
    /// it to the view incrementally (the reverse direction of
    /// [`XmlViewSystem::apply`]). Lets applications that update base tables
    /// directly keep the published view, `M`, and `L` in sync without
    /// republishing.
    ///
    /// An `Err` — a rejected operation, or data that would publish a
    /// cyclic view — leaves the system as it was: the update runs on a
    /// clone, kept only if it succeeds. The clone shares `I`, the view and
    /// `M` page by page and copies `L`'s two arrays.
    pub fn apply_relational(
        &mut self,
        update: &rxview_relstore::GroupUpdate,
    ) -> rxview_relstore::RelResult<crate::republish::RepublishReport> {
        let mut next = self.clone();
        let report = crate::republish::apply_relational_update(
            &mut next.base,
            &mut next.vs,
            &mut next.topo,
            &mut next.reach,
            update,
        )?;
        *self = next;
        Ok(report)
    }

    /// The **republication oracle**: republishes `σ(I)` from scratch and
    /// compares against the incrementally maintained view — edges compared
    /// as `((type, $A), (type, $B))` pairs, and `M`/`L` against
    /// recomputation. This is the paper's correctness criterion
    /// `∆X(T) = σ(∆R(I))` made executable.
    pub fn consistency_check(&self) -> Result<(), String> {
        let fresh = ViewStore::publish(self.vs.atg().clone(), &self.base)
            .map_err(|e| format!("republication failed: {e}"))?;
        let edge_key = |vs: &ViewStore, u, v| {
            (
                (
                    vs.dag().genid().type_of(u),
                    vs.dag().genid().attr_of(u).clone(),
                ),
                (
                    vs.dag().genid().type_of(v),
                    vs.dag().genid().attr_of(v).clone(),
                ),
            )
        };
        let mine: std::collections::BTreeSet<_> = self
            .vs
            .dag()
            .all_edges()
            .map(|(u, v)| edge_key(&self.vs, u, v))
            .collect();
        let theirs: std::collections::BTreeSet<_> = fresh
            .dag()
            .all_edges()
            .map(|(u, v)| edge_key(&fresh, u, v))
            .collect();
        if mine != theirs {
            let extra = mine.difference(&theirs).count();
            let missing = theirs.difference(&mine).count();
            return Err(format!(
                "view diverged from republication: {extra} extra, {missing} missing edges"
            ));
        }
        if !self.topo.is_valid_for(self.vs.dag()) {
            return Err("topological order invalid".into());
        }
        let fresh_topo = TopoOrder::compute(self.vs.dag());
        let fresh_reach = Reachability::compute(self.vs.dag(), &fresh_topo);
        if !self.reach.same_pairs(&fresh_reach) {
            return Err("reachability matrix diverged from recomputation".into());
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
    reach: &Reachability,
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
    let (delta_v, st) = xinsert(vs, base, ty_id, attr.clone(), &eval)?;
    // Cycle guard: connecting a target to a subtree that reaches (an
    // ancestor of) the target would make the DAG cyclic. Only pre-existing
    // nodes of ST(A,t) can close a cycle.
    for w in st.shared_nodes() {
        if eval
            .selected
            .iter()
            .any(|&t| w == t || reach.is_ancestor(w, t))
        {
            rollback_subtree(vs, &st);
            return Err(UpdateError::Cycle);
        }
    }
    let translation =
        match translate_insertions(vs, base, &delta_v, &st.fresh, &WalkSatConfig::default()) {
            Ok(t) => t,
            Err(e) => {
                rollback_subtree(vs, &st);
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
        let after_plan = sys.view().template_stats();
        assert!(after_plan.compiles > 0, "the dry run compiles the registry");
        assert!(after_plan.hits > 0, "the dry run instantiates templates");
        sys.apply(&u, SideEffectPolicy::Proceed).unwrap();
        let after_apply = sys.view().template_stats();
        assert_eq!(
            after_apply.compiles, after_plan.compiles,
            "real translation must reuse the planner's compilation"
        );
        assert!(
            after_apply.hits > after_plan.hits,
            "real translation instantiates the same templates"
        );
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
