//! Compiled update plans and the engine-wide plan cache.
//!
//! Every update path the engine serves goes through the same three steps —
//! normalize, classify ([`crate::pathclass::classify`]), and compile the
//! filter predicates of the two-pass §3.2 evaluation — and all three depend
//! only on the *shape* of the path and the grammar, never on the view
//! contents or the literal values inside `p = "s"` filters. This module
//! compiles each `(shape, grammar)` pair **once** into an [`UpdatePlan`]
//! and caches it in a sharded,
//! `Arc`-shared [`PlanCache`] (which also hosts the per-grammar
//! [`TranslationTemplates`] registry): the plan carries the slotted
//! [`PathClass`] (filter-key values abstracted into binding slots) and the
//! compiled predicate program; per call the engine only re-derives the
//! *bindings* — the literal values — and executes the program over a
//! thread-local predicate value matrix (`EvalScratch`). From its first
//! `//` on, a path's steps compile into suffix predicates, so the backward
//! pass prunes a `//` step by lookups in that matrix, and the forward `//`
//! closure is a walk down the DAG's child lists ([`crate::reach::DescWalk`]):
//! evaluation reads no `M` run, and hashes nothing.
//!
//! **Cache key.** The key is the path's shape key ([`crate::shape`]): its
//! AST with every `p = "s"` literal a slot, in a grammar that keys two
//! paths alike exactly when they differ at most in those literals. Two
//! paths of one shape share one compiled plan; the literals are re-bound
//! per evaluation. Workloads that touch millions of distinct keys
//! (`node[id=…]/sub`) therefore hit a handful of cache entries. A log
//! record keys its shape table by the same key and writes a repeated shape
//! as its literals, in the same order ([`crate::codec`]).
//!
//! **Invalidation contract.** A plan depends only on the [`Dtd`] (type-name
//! resolution) — not on the DAG, the gen tables, or the topological order —
//! so entries never invalidate while the grammar is fixed. A [`ViewStore`]
//! owns (an `Arc` of) its cache and the grammar is immutable per store, so
//! coherence holds by construction: *every plan in a cache was compiled
//! under the grammar of the store(s) sharing that cache*. Stores for a
//! different grammar start from a fresh cache
//! ([`ViewStore::publish`]/[`ViewStore::from_parts`] both allocate one).
//!
//! [`eval_plan`] is the only evaluation route of the shipped system. It is
//! semantically identical to §3.2 verbatim, `rxview_reference::eval`: that
//! crate's tests hold the two equal on the registrar view, and
//! `tests/reference_oracles.rs` (with [`UpdatePlan::class`] equal to
//! [`classify`]) over random update streams.

use crate::dag_eval::DagEval;
use crate::pathclass::{classify, PathClass};
use crate::reach::{with_walk, Stamps};
use crate::shape::{bind, shape_of};
use crate::template::TranslationTemplates;
#[cfg(test)]
use crate::topo::TopoOrder;
use crate::viewstore::ViewStore;
use rxview_atg::{Atg, Dag, NodeId};
use rxview_xmlkit::xpath::{normalize, NormStep};
use rxview_xmlkit::xpath::{Filter, XPath};
use rxview_xmlkit::{Dtd, TypeId};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Slots: the sentinel AST a plan compiles.
// ---------------------------------------------------------------------------

/// Slot sentinels survive a round-trip through [`classify`]'s key
/// extraction; NUL can't appear in parsed path literals, so sentinels never
/// collide with real values.
fn slot_sentinel(slot: usize) -> String {
    format!("\u{0}slot{slot}\u{0}")
}

fn parse_sentinel(s: &str) -> Option<usize> {
    s.strip_prefix('\u{0}')?
        .strip_suffix('\u{0}')?
        .strip_prefix("slot")?
        .parse()
        .ok()
}

/// `p` with its `p = "s"` literals replaced by slot sentinels, and how many
/// there are: the path a plan compiles (cache miss).
fn slotted(p: &XPath) -> (XPath, usize) {
    let mut n_slots = 0;
    let path = bind(p, &mut || {
        n_slots += 1;
        slot_sentinel(n_slots - 1)
    });
    (path, n_slots)
}

// ---------------------------------------------------------------------------
// The compiled evaluation program.
// ---------------------------------------------------------------------------

/// Compiled predicate slots — `rxview_reference::eval`'s bottom-up recurrences
/// with every text literal a binding slot.
pub(crate) enum PPred {
    /// `label() = name`, resolved against the grammar (unknown: const-false).
    TypeIs(Option<TypeId>),
    /// `text(v) == bindings[slot]`.
    TextSlot(usize),
    /// Constant true (terminal of existential path filters).
    True,
    /// `∃ child c: label(c) = ty ∧ P_next(c)`.
    SuffixLabel {
        ty: Option<TypeId>,
        next: usize,
    },
    /// `∃ child c: P_next(c)`.
    SuffixWildcard {
        next: usize,
    },
    /// `P_filter(v) ∧ P_next(v)`.
    SuffixFilter {
        filter: usize,
        next: usize,
    },
    /// `P_next(v) ∨ ∃ child c: P_self(c)`.
    SuffixDesc {
        next: usize,
    },
    /// Boolean combinations.
    And(usize, usize),
    Or(usize, usize),
    Not(usize),
}

/// One compiled top-level step (normalized form, names resolved).
pub(crate) enum PStep {
    /// `ε[q]` with the predicate index of `q`.
    Filter(usize),
    /// Child step on a resolved label.
    Label(Option<TypeId>),
    /// Child step on `*`.
    Wildcard,
    /// `//`, with its suffix predicate — "this step and the rest of the
    /// path match at or below the node", a `SuffixDesc` — and that of the
    /// steps after it.
    Desc { suffix: usize, next: usize },
}

/// The executable program: resolved steps plus the predicate table the
/// bottom-up pass fills.
pub(crate) struct EvalProgram {
    pub(crate) steps: Vec<PStep>,
    pub(crate) preds: Vec<PPred>,
}

struct ProgramCompiler<'a> {
    dtd: &'a Dtd,
    preds: Vec<PPred>,
}

impl<'a> ProgramCompiler<'a> {
    fn push(&mut self, p: PPred) -> usize {
        self.preds.push(p);
        self.preds.len() - 1
    }

    fn compile_path(&mut self, path: &XPath, terminal: usize) -> usize {
        let norm = normalize(path);
        let mut next = terminal;
        for step in norm.steps.iter().rev() {
            next = match step {
                NormStep::Label(name) => {
                    let ty = self.dtd.type_id(name);
                    self.push(PPred::SuffixLabel { ty, next })
                }
                NormStep::Wildcard => self.push(PPred::SuffixWildcard { next }),
                NormStep::DescendantOrSelf => self.push(PPred::SuffixDesc { next }),
                NormStep::FilterStep(f) => {
                    let filter = self.compile_filter(f);
                    self.push(PPred::SuffixFilter { filter, next })
                }
            };
        }
        next
    }

    fn compile_filter(&mut self, f: &Filter) -> usize {
        match f {
            Filter::LabelIs(name) => {
                let ty = self.dtd.type_id(name);
                self.push(PPred::TypeIs(ty))
            }
            Filter::Path(p) => {
                let t = self.push(PPred::True);
                self.compile_path(p, t)
            }
            Filter::PathEq(p, s) => {
                // A plan compiles `slotted(path)`, every literal of which is a
                // sentinel; past the bindings, a slot reads as unbound.
                let slot = parse_sentinel(s).unwrap_or(usize::MAX);
                let t = self.push(PPred::TextSlot(slot));
                self.compile_path(p, t)
            }
            Filter::And(a, b) => {
                let (ia, ib) = (self.compile_filter(a), self.compile_filter(b));
                self.push(PPred::And(ia, ib))
            }
            Filter::Or(a, b) => {
                let (ia, ib) = (self.compile_filter(a), self.compile_filter(b));
                self.push(PPred::Or(ia, ib))
            }
            Filter::Not(a) => {
                let ia = self.compile_filter(a);
                self.push(PPred::Not(ia))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The plan itself.
// ---------------------------------------------------------------------------

/// A `(shape, grammar)` pair compiled once: the slotted classification and
/// the executable predicate program. Shared via `Arc` from the cache;
/// immutable after compilation.
pub struct UpdatePlan {
    /// The shape key this plan was compiled under.
    pub shape: String,
    /// Number of literal binding slots.
    pub n_slots: usize,
    /// Classification with slot sentinels in place of filter-key values.
    class: PathClass,
    /// The compiled two-pass evaluation program.
    pub(crate) program: EvalProgram,
}

impl std::fmt::Debug for UpdatePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdatePlan")
            .field("shape", &self.shape)
            .field("n_slots", &self.n_slots)
            .finish()
    }
}

fn bind_keys(keys: &[(String, String)], bindings: &[String]) -> Vec<(String, String)> {
    keys.iter()
        .map(|(f, v)| {
            let bound = match parse_sentinel(v) {
                Some(slot) => bindings.get(slot).cloned().unwrap_or_else(|| v.clone()),
                None => v.clone(),
            };
            (f.clone(), bound)
        })
        .collect()
}

impl UpdatePlan {
    fn compile(dtd: &Dtd, path: &XPath, shape: String) -> UpdatePlan {
        let (path, n_slots) = slotted(path);
        let class = classify(dtd, &path);
        let norm = normalize(&path);
        let mut compiler = ProgramCompiler {
            dtd,
            preds: Vec::new(),
        };
        let mut steps: Vec<PStep> = norm
            .steps
            .iter()
            .map(|step| match step {
                NormStep::FilterStep(f) => PStep::Filter(compiler.compile_filter(f)),
                NormStep::Label(name) => PStep::Label(dtd.type_id(name)),
                NormStep::Wildcard => PStep::Wildcard,
                NormStep::DescendantOrSelf => PStep::Desc { suffix: 0, next: 0 },
            })
            .collect();
        // From the first `//` on, the steps compile into the suffix chain a
        // filter path compiles into, so the bottom-up pass also decides at
        // every node whether the rest of the path matches at or below it —
        // what the backward pass looks up to prune a `//` step. A top-level
        // filter step's chain link reuses the predicate the step holds.
        if let Some(first) = steps.iter().position(|s| matches!(s, PStep::Desc { .. })) {
            let mut rest = compiler.push(PPred::True);
            for step in steps[first..].iter_mut().rev() {
                rest = match step {
                    PStep::Filter(filter) => compiler.push(PPred::SuffixFilter {
                        filter: *filter,
                        next: rest,
                    }),
                    PStep::Label(ty) => compiler.push(PPred::SuffixLabel {
                        ty: *ty,
                        next: rest,
                    }),
                    PStep::Wildcard => compiler.push(PPred::SuffixWildcard { next: rest }),
                    PStep::Desc { suffix, next } => {
                        *next = rest;
                        *suffix = compiler.push(PPred::SuffixDesc { next: rest });
                        *suffix
                    }
                };
            }
        }
        UpdatePlan {
            shape,
            n_slots,
            class,
            program: EvalProgram {
                steps,
                preds: compiler.preds,
            },
        }
    }

    /// The concrete [`PathClass`] for one call's literal bindings — equal to
    /// `classify(dtd, path)` on the original path (pinned by tests).
    pub fn class(&self, bindings: &[String]) -> PathClass {
        match &self.class {
            PathClass::Anchored { first_ty, keys } => PathClass::Anchored {
                first_ty: *first_ty,
                keys: bind_keys(keys, bindings),
            },
            PathClass::Descendant { target_ty, keys } => PathClass::Descendant {
                target_ty: *target_ty,
                keys: bind_keys(keys, bindings),
            },
            PathClass::WildcardRoot { keys } => PathClass::WildcardRoot {
                keys: bind_keys(keys, bindings),
            },
            PathClass::Global => PathClass::Global,
        }
    }
}

// ---------------------------------------------------------------------------
// The sharded, Arc-shared cache.
// ---------------------------------------------------------------------------

/// Snapshot of the cache's counters (cumulative since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Probes that found a compiled plan.
    pub hits: u64,
    /// Probes that had to compile.
    pub misses: u64,
    /// Entries dropped by capacity eviction.
    pub evictions: u64,
    /// Plans compiled (== misses; kept separate for clarity in reports).
    pub compiles: u64,
    /// Total nanoseconds spent compiling.
    pub compile_ns: u64,
}

impl PlanCacheStats {
    /// Hit rate over all probes (`NaN`-free: 0 when no probes).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference (for per-engine deltas on a shared cache).
    pub fn delta_since(&self, base: &PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            evictions: self.evictions.saturating_sub(base.evictions),
            compiles: self.compiles.saturating_sub(base.compiles),
            compile_ns: self.compile_ns.saturating_sub(base.compile_ns),
        }
    }
}

const CACHE_SHARDS: usize = 16;
const CACHE_CAP_PER_SHARD: usize = 512;

/// The engine-wide plan cache: shape key → compiled [`UpdatePlan`], sharded
/// by key hash. One `Arc` lives in every [`ViewStore`] clone of a published
/// store (round working states, snapshot readers, recovery replay and
/// workload generators share it). Compilation happens under the shard lock,
/// so a shape is compiled exactly once even under concurrent probes.
pub struct PlanCache {
    shards: Vec<Mutex<HashMap<String, Arc<UpdatePlan>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    compiles: AtomicU64,
    compile_ns: AtomicU64,
    /// The per-grammar translation-template registry, compiled on first
    /// demand. Lives here (not its own cache) so every consumer sharing
    /// the plan cache — analyze, the engine's rounds, recovery — shares
    /// one compilation, with its own counters separate
    /// from the plan counters.
    templates: OnceLock<Arc<TranslationTemplates>>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            compile_ns: AtomicU64::new(0),
            templates: OnceLock::new(),
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl PlanCache {
    /// The compiled plan for `path` under `dtd`, plus this call's literal
    /// bindings. Compiles on first sight of the shape.
    pub fn plan(&self, dtd: &Dtd, path: &XPath) -> (Arc<UpdatePlan>, Vec<String>) {
        let (key, bindings) = shape_of(path);
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let shard = &self.shards[(h.finish() as usize) % CACHE_SHARDS];
        let mut map = shard.lock().expect("plan cache shard");
        if let Some(p) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(p), bindings);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let plan = Arc::new(UpdatePlan::compile(dtd, path, key.clone()));
        let dt = t0.elapsed();
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.compile_ns
            .fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
        if map.len() >= CACHE_CAP_PER_SHARD {
            // Shapes are grammar-bounded in practice; overflow means an
            // adversarial key stream, and recompilation is cheap — drop the
            // shard wholesale rather than track recency.
            self.evictions
                .fetch_add(map.len() as u64, Ordering::Relaxed);
            map.clear();
        }
        map.insert(key, Arc::clone(&plan));
        (plan, bindings)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            compile_ns: self.compile_ns.load(Ordering::Relaxed),
        }
    }

    /// The translation-template registry for `atg`, compiled on first call.
    /// The cache-coherence argument is the plan one verbatim: one grammar
    /// per cache, so the first caller's `atg` is every caller's `atg`.
    pub fn templates(&self, atg: &Atg) -> Arc<TranslationTemplates> {
        Arc::clone(
            self.templates
                .get_or_init(|| Arc::new(TranslationTemplates::compile(atg))),
        )
    }

    /// Counters of the template registry (zero until first compiled).
    pub fn template_stats(&self) -> PlanCacheStats {
        self.templates.get().map(|t| t.stats()).unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// Plan execution.
// ---------------------------------------------------------------------------

/// Per-thread scratch arena for [`eval_plan`]: the predicate value matrix.
/// The passes' working sets are sorted `Vec<NodeId>`s built per
/// evaluation; value filters compare a `pcdata` node's attribute values in
/// place ([`Atg::text_eq`]), so there is no text memo.
///
/// The matrix is indexed by node id, `np` cells per id over the interner's
/// id space ([`rxview_atg::GenId::n_allocated`]), so evaluation needs no
/// position lookup. Nothing in it is cleared between evaluations: a node
/// is in the running evaluation's scope iff its stamp is the evaluation's
/// generation, and the bottom-up pass writes all `np` cells of a node
/// before anything reads them. An evaluation so writes `(np + 1) × |scope|`
/// cells, whatever the size of the view.
#[derive(Default)]
struct EvalScratch {
    /// Predicate values: `val[v.index() * np + pi]`.
    val: Vec<bool>,
    /// The running evaluation's scope: the ids it marked.
    scope: Stamps,
}

impl EvalScratch {
    /// Starts an evaluation over `n_ids` node ids with `np` predicates: a
    /// fresh scope generation, and the arena grown (never shrunk) to cover
    /// them.
    fn begin(&mut self, n_ids: usize, np: usize) {
        self.val.resize(self.val.len().max(n_ids * np), false);
        if self.scope.begin(n_ids) {
            // Every 2^32 evaluations on a thread the stamps are zeroed.
            #[cfg(test)]
            tests::ARENA_CELLS.with(|c| c.set(c.get() + self.scope.len()));
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::default());
}

/// Forward-pass record for backward pruning: a child step keeps its edges,
/// a `//` step its closure, and filter and `//` steps the indices of the
/// predicates they look up (the value matrix outlives the pass).
enum PRec {
    Filter {
        pred: usize,
    },
    Child {
        edges: Vec<(NodeId, NodeId)>,
    },
    Desc {
        suffix: usize,
        next: usize,
        closure: Vec<NodeId>,
    },
}

/// Executes a compiled plan over `order`: all of `L`
/// ([`crate::TopoOrder::order`]) or a scope, a subsequence of it closed
/// under descendants. Semantically identical to
/// `rxview_reference::eval_xpath_on_dag` on the plan's original path with
/// `bindings` substituted back into its `p = "s"` literals, when every match
/// lies inside `order`.
pub fn eval_plan(
    vs: &ViewStore,
    order: &[NodeId],
    plan: &UpdatePlan,
    bindings: &[String],
) -> DagEval {
    SCRATCH.with(|s| eval_plan_with(&mut s.borrow_mut(), vs, order, plan, bindings))
}

/// Compiles `p` through the store's cache and runs it over `topo`: the
/// evaluation in-crate tests translate from.
#[cfg(test)]
pub(crate) fn eval_path(vs: &ViewStore, topo: &TopoOrder, p: &XPath) -> DagEval {
    let (plan, bindings) = vs.plan_cache().plan(vs.atg().dtd(), p);
    eval_plan(vs, topo.order(), &plan, &bindings)
}

fn sort_dedup<T: Ord>(v: &mut Vec<T>) {
    v.sort_unstable();
    v.dedup();
}

/// The children of `u` a step over the scope `order` follows that `keep`
/// admits: from `u`'s child list, or — when `u` has more children than the
/// scope has nodes (the root, under an anchored head) — from the scope's
/// members that list `u` as a parent; a child outside the scope lies on no
/// complete match. A `//` step under the root of a 10²-node scope so
/// examines 10² ids, not the root's |V|-long child list.
fn scope_kids<'a>(
    dag: &'a Dag,
    order: &'a [NodeId],
    u: NodeId,
    keep: impl Fn(NodeId) -> bool + Copy + 'a,
) -> impl Iterator<Item = NodeId> + 'a {
    let kids = dag.children(u);
    #[cfg(test)]
    tests::STEP_IDS.with(|c| c.set(c.get() + kids.len().min(order.len())));
    let (list, scan) = if kids.len() <= order.len() {
        (kids, &[][..])
    } else {
        (&[][..], order)
    };
    let below_u = scan
        .iter()
        .filter(move |&&d| keep(d) && dag.parents(d).contains(&u));
    list.iter()
        .filter(move |&&c| keep(c))
        .chain(below_u)
        .copied()
}

fn eval_plan_with(
    scratch: &mut EvalScratch,
    vs: &ViewStore,
    order: &[NodeId],
    plan: &UpdatePlan,
    bindings: &[String],
) -> DagEval {
    let program = &plan.program;
    let preds = &program.preds;
    let np = preds.len();

    // ---- Bottom-up pass over the scope order. ----
    let atg = vs.atg();
    let genid = vs.dag().genid();
    scratch.begin(genid.n_allocated(), np);
    // The matrix and stamps move out of the arena for the call and return
    // before exit: indexed through a borrow of the arena, the loop below
    // ran anchored full passes ≈ 7 % slower.
    let mut val = std::mem::take(&mut scratch.val);
    let mut scope = std::mem::take(&mut scratch.scope);
    #[cfg(test)]
    tests::ARENA_CELLS.with(|c| c.set(c.get() + (np + 1) * order.len()));
    for &v in order {
        let vi = v.index() * np;
        scope.mark(v);
        let vty = genid.type_of(v);
        let text_is = |s: &str| atg.dtd().is_pcdata(vty) && atg.text_eq(vty, genid.attr_of(v), s);
        for (pi, pred) in preds.iter().enumerate() {
            // A child's cells hold this evaluation's values iff it is in
            // scope.
            let child_holds = |pi: usize, c: NodeId| scope.holds(c) && val[c.index() * np + pi];
            let value = match pred {
                PPred::True => true,
                PPred::TypeIs(ty) => Some(vty) == *ty,
                PPred::TextSlot(slot) => text_is(bindings.get(*slot).map_or("", String::as_str)),
                PPred::And(a, b) => val[vi + *a] && val[vi + *b],
                PPred::Or(a, b) => val[vi + *a] || val[vi + *b],
                PPred::Not(a) => !val[vi + *a],
                PPred::SuffixFilter { filter, next } => val[vi + *filter] && val[vi + *next],
                PPred::SuffixLabel { ty, next } => match ty {
                    None => false,
                    Some(ty) => vs
                        .dag()
                        .children(v)
                        .iter()
                        .any(|&c| genid.type_of(c) == *ty && child_holds(*next, c)),
                },
                PPred::SuffixWildcard { next } => {
                    vs.dag().children(v).iter().any(|&c| child_holds(*next, c))
                }
                PPred::SuffixDesc { next } => {
                    val[vi + *next] || vs.dag().children(v).iter().any(|&c| child_holds(pi, c))
                }
            };
            val[vi + pi] = value;
        }
    }
    let in_scope = |v: NodeId| scope.holds(v);
    let holds = |pi: usize, v: NodeId| in_scope(v) && val[v.index() * np + pi];
    let dag = vs.dag();

    // ---- Top-down forward pass, over sorted, deduplicated node sets. ----
    let mut cur = vec![vs.dag().root()];
    let mut records: Vec<PRec> = Vec::with_capacity(program.steps.len());
    for step in &program.steps {
        match step {
            PStep::Filter(pred) => {
                cur.retain(|&v| holds(*pred, v));
                records.push(PRec::Filter { pred: *pred });
            }
            PStep::Label(_) | PStep::Wildcard => {
                let wanted = |c: NodeId| match step {
                    PStep::Label(ty) => ty.is_some_and(|t| genid.type_of(c) == t),
                    _ => true,
                };
                let mut edges = Vec::new();
                for &u in &cur {
                    edges.extend(scope_kids(dag, order, u, &wanted).map(|c| (u, c)));
                }
                cur = edges.iter().map(|&(_, c)| c).collect();
                sort_dedup(&mut cur);
                records.push(PRec::Child { edges });
            }
            PStep::Desc { suffix, next } => {
                // `cur ∪ desc(cur)`: one walk down from every source,
                // restricted to the evaluation scope (the caller's exactness
                // contract — see `XmlViewSystem::evaluate_scoped`). This is
                // the only descendant set an evaluation builds; it reads no
                // `M` run.
                with_walk(|walk| {
                    walk.begin(genid.n_allocated());
                    cur.iter().for_each(|&u| _ = walk.reach(u));
                    walk.run(&mut cur, 0, usize::MAX, |u| {
                        scope_kids(dag, order, u, &in_scope)
                    });
                });
                sort_dedup(&mut cur);
                records.push(PRec::Desc {
                    suffix: *suffix,
                    next: *next,
                    closure: cur.clone(),
                });
            }
        }
        if cur.is_empty() {
            break;
        }
    }
    if cur.is_empty() {
        scratch.val = val;
        scratch.scope = scope;
        return DagEval::default();
    }

    // ---- Backward pruning: keep only complete matches. ----
    // `useful` holds, per record from the last back, the nodes reached
    // before it that lie on a complete match (a `//` step's also holds
    // closure nodes that are no source; the step before it is a filter,
    // whose `retain` drops them, or a child step, whose edges never reach
    // them).
    let mut useful = cur.clone();
    let mut matched = cur.clone();
    let mut matched_edges = Vec::new();
    let mut edge_parents = Vec::new();
    // Whether only filter steps follow the record: its matched edges into
    // a selected node are then `Ep(r)`'s.
    let mut only_filters_after = true;
    for record in records.into_iter().rev() {
        let filter = matches!(record, PRec::Filter { .. });
        match record {
            PRec::Filter { pred } => useful.retain(|&v| holds(pred, v)),
            PRec::Child { edges } => {
                let mut prev = Vec::new();
                for (u, c) in edges {
                    if useful.binary_search(&c).is_ok() {
                        matched_edges.push((u, c));
                        if only_filters_after {
                            edge_parents.push((u, c));
                        }
                        prev.push(u);
                    }
                }
                sort_dedup(&mut prev);
                useful = prev;
            }
            PRec::Desc {
                suffix,
                next,
                mut closure,
            } => {
                // A closure node is an ancestor-or-self of a node that
                // completes the match iff the step's suffix predicate holds
                // there — and then so is every source above it, so the
                // complete matches through this step are exactly where it
                // holds. An edge is on one iff it holds at both ends.
                closure.retain(|&x| holds(suffix, x));
                for &x in &closure {
                    for &c in vs.dag().children(x) {
                        if holds(suffix, c) {
                            matched_edges.push((x, c));
                            if only_filters_after && holds(next, c) {
                                edge_parents.push((x, c));
                            }
                        }
                    }
                }
                useful = closure;
            }
        }
        only_filters_after &= filter;
        matched.extend_from_slice(&useful);
    }
    sort_dedup(&mut edge_parents);
    scratch.val = val;
    scratch.scope = scope;

    DagEval {
        selected: cur,
        edge_parents,
        matched_nodes: matched.into_iter().collect(),
        matched_edges: matched_edges.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::{tuple, Database};
    use rxview_xmlkit::parse_xpath;
    use std::cell::Cell;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slot `i` of a compiled plan and literal `i` of a shaped log
        /// update are one literal: binding a path's literals, in the order
        /// `shape_of` collects them, into its slotted form rebuilds the path
        /// — over every AST the log codec's strategy draws.
        #[test]
        fn binding_a_paths_literals_into_its_slotted_form_rebuilds_it(
            p in crate::ast_strategies::path_strategy(crate::ast_strategies::filter_strategy()),
        ) {
            let (slotted, n_slots) = slotted(&p);
            let (key, literals) = shape_of(&p);
            prop_assert_eq!(literals.len(), n_slots);
            prop_assert_eq!(shape_of(&slotted).0, key);
            let mut literals = literals.into_iter();
            let back = bind(&slotted, &mut || literals.next().expect("a literal per slot"));
            prop_assert_eq!(back, p);
        }
    }

    thread_local! {
        /// Ids the `//` and child steps examined on this thread: per node
        /// a step expands — a child step's sources, every node a `//`
        /// step's walk reaches — the shorter of its child list and the
        /// scope.
        pub(super) static STEP_IDS: Cell<usize> = const { Cell::new(0) };
        /// Arena cells (predicate values and scope stamps) evaluations on
        /// this thread wrote or reset.
        pub(super) static ARENA_CELLS: Cell<usize> = const { Cell::new(0) };
    }

    fn fixture() -> (Database, ViewStore, TopoOrder) {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let vs = ViewStore::publish(atg, &db).unwrap();
        let topo = TopoOrder::compute(vs.dag());
        (db, vs, topo)
    }

    const PATHS: &[&str] = &[
        "course",
        "course[cno=CS320]",
        "//course",
        "//student",
        "//course[cno=CS320]//student[ssn=S02]",
        "course[cno=CS650]//course[cno=CS320]/prereq",
        "course/*",
        "course[prereq/course]",
        "course[not(prereq/course)]",
        "//course[cno=CS320 or cno=CS240]",
        "//takenBy/student[name=Bob]",
        "course[.//cno=CS240]",
        "*[label()=course]/prereq",
        "//prereq/course[takenBy/student]",
        "course[cno=CS650]/prereq/course[cno=CS320]",
        "nonexistent",
        "student/course",
    ];

    /// `n` top-level courses with nothing below them but their own four
    /// children: a star of `5n + 1` nodes in which every cone has 5.
    fn star(n: usize) -> (ViewStore, TopoOrder) {
        let mut db = Database::new();
        rxview_atg::registrar_schema(&mut db);
        for i in 0..n {
            db.insert("course", tuple![format!("C{i}"), format!("T{i}"), "CS"])
                .unwrap();
        }
        let atg = registrar_atg(&db).unwrap();
        let vs = ViewStore::publish(atg, &db).unwrap();
        let topo = TopoOrder::compute(vs.dag());
        (vs, topo)
    }

    /// `n` courses in one prerequisite chain, `prereq(Cᵢ, Cᵢ₊₁)`, under the
    /// one top-level course `C0` (the others are in Math): `5n + 1` nodes,
    /// as deep as the chain is long.
    fn chain(n: usize) -> (ViewStore, TopoOrder) {
        let mut db = Database::new();
        rxview_atg::registrar_schema(&mut db);
        for i in 0..n {
            let dept = if i == 0 { "CS" } else { "Math" };
            db.insert("course", tuple![format!("C{i}"), format!("T{i}"), dept])
                .unwrap();
            if i > 0 {
                db.insert("prereq", tuple![format!("C{}", i - 1), format!("C{i}")])
                    .unwrap();
            }
        }
        let atg = registrar_atg(&db).unwrap();
        let vs = ViewStore::publish(atg, &db).unwrap();
        let topo = TopoOrder::compute(vs.dag());
        (vs, topo)
    }

    /// §3.2's O(|p| · |V|) bound, as a cost model: the full pass of
    /// `//course` walks each node of the view once and reads each child
    /// list once — at most `|L| + |E|` ids over a chain of either length,
    /// so ≈ 10× the ids over one 10× longer. Pruning the `//` step by
    /// unioning every target's `anc` run reads Σ |anc| — quadratic in the
    /// chain's length — and reading the root's `desc` run alone would be
    /// `|L|` ids of `M`.
    #[test]
    fn a_full_desc_pass_walks_the_view_once() {
        let p = parse_xpath("//course").unwrap();
        let mut read = Vec::new();
        for n in [40, 400] {
            let (vs, topo) = chain(n);
            assert_eq!(topo.len(), 5 * n + 1);
            let ids = STEP_IDS.with(Cell::get);
            let out = eval_path(&vs, &topo, &p);
            let walked = STEP_IDS.with(Cell::get) - ids;
            assert_eq!(out.selected.len(), n);
            assert_eq!(out.matched_nodes.len(), 2 * n);
            assert!(
                walked <= topo.len() + vs.dag().n_edges(),
                "{walked} ids over {} nodes and {} edges",
                topo.len(),
                vs.dag().n_edges()
            );
            read.push(walked);
        }
        assert!(
            read[1] <= 11 * read[0],
            "ids read grew {} → {} over a 10× longer chain",
            read[0],
            read[1]
        );
    }

    #[test]
    fn step_work_follows_the_scope_not_the_view() {
        // Over a 6-node scope the `//` step's walk and the child step under
        // the root must examine the scope, not the root's children — the
        // same handful of ids in a 101-node star and a 10 001-node one.
        for path in ["//course[cno=C7]/prereq", "course[cno=C7]/prereq"] {
            step_work_is_the_same_in_a_small_and_a_large_star(path);
        }
    }

    /// §3.2 on a scope, as a cost model: the ids the steps examine and the
    /// arena cells the passes write are the same in a 101-node and a
    /// 10 001-node star. Clearing the value matrix per evaluation would
    /// write `np × |id space|` cells here, and fail the second check.
    fn step_work_is_the_same_in_a_small_and_a_large_star(path: &str) {
        let p = parse_xpath(path).unwrap();
        let mut examined = Vec::new();
        let mut written = Vec::new();
        let mut bound = 0;
        for n in [20, 2_000] {
            let (vs, topo) = star(n);
            assert_eq!(topo.len(), 5 * n + 1);
            let cache = PlanCache::default();
            let (plan, bindings) = cache.plan(vs.atg().dtd(), &p);
            let anchors =
                crate::pathclass::resolve_anchors(&vs, &plan.class(&bindings), 64, None).unwrap();
            assert_eq!(anchors.nodes.len(), 1);
            let scope = crate::pathclass::scope_of_anchors(&vs, &topo, &anchors)
                .expect("a 6-node cone is worth projecting");
            assert_eq!(scope.len(), 6);
            bound = (plan.program.preds.len() + 1) * scope.len();
            let (ids, cells) = (STEP_IDS.with(Cell::get), ARENA_CELLS.with(Cell::get));
            let scoped = eval_plan(&vs, &scope, &plan, &bindings);
            examined.push(STEP_IDS.with(Cell::get) - ids);
            written.push(ARENA_CELLS.with(Cell::get) - cells);
            assert_eq!(scoped.selected.len(), 1);
        }
        assert_eq!(
            examined[0], examined[1],
            "`{path}`: work grew with the star"
        );
        // At most the scope per source: `//` under the root, then a child
        // step from each of its 6 members, then one from the match.
        assert!(examined[0] <= 24, "`{path}`: {} ids", examined[0]);
        assert_eq!(
            written[0], written[1],
            "`{path}`: arena writes grew with the star"
        );
        assert!(
            written[0] <= bound,
            "`{path}`: {} arena cells past (np + 1) × |scope| = {bound}",
            written[0]
        );
    }

    #[test]
    fn plan_class_matches_direct_classification() {
        let (_db, vs, _topo) = fixture();
        let cache = PlanCache::default();
        let dtd = vs.atg().dtd();
        for path in PATHS {
            let p = parse_xpath(path).unwrap();
            let (plan, bindings) = cache.plan(dtd, &p);
            assert_eq!(
                plan.class(&bindings),
                classify(dtd, &p),
                "class on `{path}`"
            );
        }
    }

    #[test]
    fn shapes_share_plans_across_literals() {
        let (_db, vs, _topo) = fixture();
        let cache = PlanCache::default();
        let dtd = vs.atg().dtd();
        let a = parse_xpath("course[cno=CS320]").unwrap();
        let b = parse_xpath("course[cno=CS650]").unwrap();
        let (pa, ba) = cache.plan(dtd, &a);
        let (pb, bb) = cache.plan(dtd, &b);
        assert!(Arc::ptr_eq(&pa, &pb), "same shape shares one plan");
        assert_eq!(ba, vec!["CS320".to_string()]);
        assert_eq!(bb, vec!["CS650".to_string()]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.compiles), (1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn distinct_shapes_do_not_collide() {
        let pairs = [
            ("course[cno=CS320]", "course[cno=CS320]/prereq"),
            ("//course", "course"),
            ("course[prereq/course]", "course[prereq/course=x]"),
            ("course[not(cno=a)]", "course[cno=a]"),
            ("*", "course"),
        ];
        for (x, y) in pairs {
            let px = parse_xpath(x).unwrap();
            let py = parse_xpath(y).unwrap();
            assert_ne!(shape_of(&px).0, shape_of(&py).0, "`{x}` vs `{y}`");
        }
    }

    #[test]
    fn stats_delta_and_eviction_counters() {
        let base = PlanCacheStats {
            hits: 10,
            misses: 4,
            evictions: 0,
            compiles: 4,
            compile_ns: 100,
        };
        let now = PlanCacheStats {
            hits: 110,
            misses: 5,
            evictions: 2,
            compiles: 5,
            compile_ns: 150,
        };
        let d = now.delta_since(&base);
        assert_eq!(d.hits, 100);
        assert_eq!(d.misses, 1);
        assert_eq!(d.evictions, 2);
        assert!(d.hit_rate() > 0.99 * 100.0 / 101.0);
        assert_eq!(PlanCacheStats::default().hit_rate(), 0.0);
    }
}
