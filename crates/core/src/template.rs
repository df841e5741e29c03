//! Compiled translation templates: precompiled ∆R skeletons per production
//! edge.
//!
//! The §4.2/§4.3 translation algorithms rest on one static fact per rule
//! and per edge view: the equality closure of the query's `Col = Col`
//! predicates ([`rxview_relstore::SpjQuery::eq_closure`]). It depends on
//! neither table contents nor attribute values — only on the grammar and
//! the table schemas, both fixed for the lifetime of a store family — so
//! it is computed **once per production edge**, here, and lowered into a
//! [`TranslationTemplates`] registry:
//!
//! - the insert side keeps, per edge, the rule query's closure and an
//!   ordered *pin program* (which class is pinned by which child
//!   attribute position, parent attribute field, or constant) —
//!   instantiation replays the pins against the literal attribute tuples
//!   and yields the [`EdgeClosure`] `rxview_reference::compute_edge_closure`
//!   derives, without re-walking predicates or re-running the union-find;
//! - per edge view and non-empty set of its non-derived FROM entries,
//!   phase 2 of Algorithm insert (side-effect detection) gets an
//!   [`SpjPlan`] with those entries placed first
//!   ([`SpjPlan::compile_first`]): the join it walks when those entries
//!   read the phase-1 templates — the relstore's one planner, compiled
//!   once, never per call;
//! - the delete side keeps, per edge view, a `SourceProgram`: for every
//!   non-derived FROM entry, a `(table, key-cell…)` spec whose cells name
//!   the output position (or constant) each key column's equality class
//!   resolves to — instantiation is a few indexed clones per source where
//!   `rxview_reference::closure_source_keys` re-runs the whole union-find
//!   per candidate row;
//! - per edge view and non-derived FROM occurrence, Algorithm delete's
//!   safety probe ([`compile_bound`]): each row it yields has the bound
//!   key among its sources, as every key cell of the `SourceProgram` is an
//!   output column or a constant of the bound column's class.
//!
//! The registry lives in the engine-wide [`crate::plan::PlanCache`] behind
//! a `OnceLock`, so the analyze dry run, the engine's rounds and recovery
//! replay all share one compilation (and the
//! planner's instantiations warm nothing — there is nothing left to warm).
//! It is the only derivation the translation runs; `tests/reference_oracles.rs`
//! holds it equal to the interpretive `rxview_reference::compute_edge_closure`
//! (§4.3) and `rxview_reference::closure_source_keys` (§4.2).
//!
//! **Cache-coherence invariant:** a template depends only on the `Atg`
//! (rules, edge-view queries) and the base/`gen_A` *schemas* — never on
//! table contents, node identity, or attribute values. Both inputs are
//! immutable for a published store family (grammar evolution would rebuild
//! the `ViewStore`, and with it the `PlanCache`), so templates are never
//! invalidated, only compiled once.

use crate::plan::PlanCacheStats;
use crate::rel_insert::{EdgeClosure, InsertRejection};
use rxview_atg::{Atg, RuleBody};
use rxview_relstore::{
    BoundPlan, ColRef, EqClosure, EqPred, Operand, RelResult, SchemaProvider, SpjPlan, SpjQuery,
    TableSchema, TableSource, Tuple, Value,
};
use rxview_xmlkit::TypeId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Where one equality-class pin gets its value at instantiation time.
#[derive(Debug, Clone, PartialEq)]
enum PinSource {
    /// The child attribute tuple at this position (a projected column).
    ChildAttr(usize),
    /// A constant predicate's literal.
    Const(Value),
    /// The parent attribute tuple at this field (a parameter predicate,
    /// already resolved through `param_fields`).
    ParentAttr(usize),
}

/// The compiled insert-side skeleton of one production edge: the resolved
/// equality closure of its rule query with the value *sources* kept
/// symbolic. Replaying `pins` in order against concrete attribute tuples
/// reproduces `compute_edge_closure`'s result exactly — the `Col = Col`
/// unions all happen before any value is learned there, so the
/// representatives baked in here are final.
#[derive(Debug)]
pub(crate) struct EdgeTemplate {
    closure: EqClosure,
    /// `(flat column, value source)` in the interpretive learn order:
    /// projections by position, then constant/parameter predicates in
    /// predicate order.
    pins: Vec<(usize, PinSource)>,
}

impl EdgeTemplate {
    fn compile(closure: EqClosure, query: &SpjQuery, param_fields: &[usize]) -> EdgeTemplate {
        let mut pins = Vec::new();
        for (pos, c) in query.projection().iter().enumerate() {
            pins.push((closure.flat(*c), PinSource::ChildAttr(pos)));
        }
        for p in query.predicates() {
            match (&p.left, &p.right) {
                (Operand::Col(c), Operand::Const(v)) | (Operand::Const(v), Operand::Col(c)) => {
                    pins.push((closure.flat(*c), PinSource::Const(v.clone())));
                }
                (Operand::Col(c), Operand::Param(i)) | (Operand::Param(i), Operand::Col(c)) => {
                    pins.push((closure.flat(*c), PinSource::ParentAttr(param_fields[*i])));
                }
                _ => {}
            }
        }
        EdgeTemplate { closure, pins }
    }

    /// Replays the pin program against concrete attribute tuples. Exactly
    /// `rxview_reference::compute_edge_closure`'s outcome, including the
    /// rejection on a contradictory derivation (two pins of one class
    /// disagreeing).
    fn instantiate(
        &self,
        parent_attr: &Tuple,
        child_attr: &Tuple,
    ) -> Result<EdgeClosure, InsertRejection> {
        let mut known: HashMap<usize, Value> = HashMap::with_capacity(self.pins.len());
        for (flat, src) in &self.pins {
            let v = match src {
                PinSource::ChildAttr(pos) => child_attr[*pos].clone(),
                PinSource::Const(v) => v.clone(),
                PinSource::ParentAttr(field) => parent_attr[*field].clone(),
            };
            let r = self.closure.reps[*flat];
            match known.get(&r) {
                Some(x) if *x != v => {
                    return Err(InsertRejection::KeyConflict {
                        table: "<inconsistent edge derivation>".into(),
                    })
                }
                _ => {
                    known.insert(r, v);
                }
            }
        }
        Ok(EdgeClosure {
            classes: self.closure.clone(),
            known,
        })
    }
}

/// One element of `Sr(Q,t)` (§4.2), the *deletable source* of an edge-view
/// row `t`: a base table and the key of the tuple that contributes to `t`.
/// Deleting that tuple removes `t` from the view.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceRef {
    /// Base table name.
    pub table: String,
    /// Primary key of the contributing tuple in that table.
    pub key: Tuple,
}

/// One cell of a reconstructed source key.
#[derive(Debug, Clone, PartialEq)]
enum KeyCell {
    /// Clone the edge-view output row at this position.
    Out(usize),
    /// A constant pinned by a predicate.
    Const(Value),
}

/// One candidate source: a base table and the program for its key.
#[derive(Debug)]
struct SourceSpec {
    table: String,
    cells: Vec<KeyCell>,
}

/// The compiled delete-side program of one edge view: how to reconstruct
/// every non-derived FROM entry's primary key from an output row, in FROM
/// order. Compiled with the derived `gen_parent` entry (FROM position 0)
/// skipped — it is never a base source. `None` at compile time means some
/// key column's equality class is pinned by neither a projected column nor
/// a constant — `closure_source_keys` would return `Ok(None)` for every
/// row, so the edge is *not key-preserving* in the generalized sense and
/// stays `None` forever.
#[derive(Debug)]
pub(crate) struct SourceProgram {
    specs: Vec<SourceSpec>,
    out_arity: usize,
}

impl SourceProgram {
    fn compile(
        provider: &impl SchemaProvider,
        query: &SpjQuery,
        closure: &EqClosure,
        skip_rels: &[usize],
    ) -> Option<SourceProgram> {
        // First assignment wins per class, mirroring the interpretive
        // `values.entry(r).or_insert(v)`: projections by position, then
        // constant predicates in order.
        let mut cells: HashMap<usize, KeyCell> = HashMap::new();
        for (pos, c) in query.projection().iter().enumerate() {
            cells.entry(closure.rep(*c)).or_insert(KeyCell::Out(pos));
        }
        for p in query.predicates() {
            match (&p.left, &p.right) {
                (Operand::Col(c), Operand::Const(v)) | (Operand::Const(v), Operand::Col(c)) => {
                    cells
                        .entry(closure.rep(*c))
                        .or_insert(KeyCell::Const(v.clone()));
                }
                _ => {}
            }
        }
        let mut specs = Vec::new();
        for (rel, tr) in query.from().iter().enumerate() {
            if skip_rels.contains(&rel) {
                continue;
            }
            let schema = provider.schema_of(&tr.table).expect("FROM table known");
            let mut key_cells = Vec::with_capacity(schema.key().len());
            for &col in schema.key() {
                key_cells.push(cells.get(&closure.rep(ColRef { rel, col }))?.clone());
            }
            specs.push(SourceSpec {
                table: tr.table.clone(),
                cells: key_cells,
            });
        }
        Some(SourceProgram {
            specs,
            out_arity: query.out_arity(),
        })
    }

    /// Reconstructs the candidate sources for one output row. Duplicates
    /// (self-joins resolving to the same key) collapse, as interpretively.
    fn instantiate(&self, out: &Tuple) -> Vec<SourceRef> {
        debug_assert_eq!(out.arity(), self.out_arity, "edge row arity");
        let mut result: Vec<SourceRef> = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            let sr = SourceRef {
                table: spec.table.clone(),
                key: Tuple::from_values(spec.cells.iter().map(|c| match c {
                    KeyCell::Out(pos) => out[*pos].clone(),
                    KeyCell::Const(v) => v.clone(),
                })),
            };
            if !result.contains(&sr) {
                result.push(sr);
            }
        }
        result
    }
}

/// A delete probe of edge `(A, B)`: its plan, compiled or bound.
pub(crate) type EdgeProbe<P> = ((TypeId, TypeId), P);

/// Edge view `q` with FROM occurrence `rel`'s key columns equated to
/// parameters — `$i` after `q`'s own is the `i`-th key column — compiled:
/// run on a key `k` of that occurrence's table, the plan yields exactly the
/// view's rows whose `rel` source is `k`.
fn compile_bound(provider: &impl SchemaProvider, q: &SpjQuery, rel: usize) -> SpjPlan {
    let tr = &q.from()[rel];
    let key = provider
        .schema_of(&tr.table)
        .expect("FROM table known")
        .key();
    let mut predicates = q.predicates().to_vec();
    predicates.extend(key.iter().enumerate().map(|(i, &col)| EqPred {
        left: Operand::Col(ColRef { rel, col }),
        right: Operand::Param(q.n_params() + i),
    }));
    let bound = SpjQuery::from_parts(
        format!("{}__bound_{}", q.name(), tr.alias),
        q.from().to_vec(),
        predicates,
        q.projection().to_vec(),
        q.out_names().to_vec(),
        q.n_params() + key.len(),
        provider,
    )
    .expect("bound query stays valid");
    SpjPlan::compile(&bound, provider).expect("validated just above")
}

/// The per-grammar registry of compiled translation templates: insert-side
/// `EdgeTemplate`s, and per edge view its phase-2 side-effect plans and
/// delete-side `SourceProgram`, compiled in one pass over the `Atg`.
/// Cached in the engine-wide [`crate::plan::PlanCache`] (one registry per
/// store family) and consulted by every translation consumer.
#[derive(Debug)]
pub struct TranslationTemplates {
    insert: HashMap<(TypeId, TypeId), EdgeTemplate>,
    /// Per edge view, phase 2's side-effect plans: the plan for the set of
    /// FROM entries `S` read from templates (entry `i` is bit `i - 1`) at
    /// index `S - 1`.
    side_effect: HashMap<(TypeId, TypeId), Vec<SpjPlan>>,
    /// `None` payload: the edge view exists but is not key-preserving in
    /// the generalized sense.
    delete: HashMap<(TypeId, TypeId), Option<SourceProgram>>,
    /// Per base table, the delete side's safety probes: one per FROM
    /// occurrence of the table in an edge view ([`compile_bound`]), in edge
    /// order.
    bound: HashMap<String, Vec<EdgeProbe<SpjPlan>>>,
    /// Registry entries used: insert templates and source programs
    /// instantiated, side-effect plans run, delete probes bound.
    hits: AtomicU64,
    /// Templates compiled (fixed after construction).
    compiles: u64,
    /// Wall nanoseconds of the one-shot compile pass.
    compile_ns: u64,
}

impl TranslationTemplates {
    /// Compiles the full registry from the grammar. Schemas come from
    /// [`Atg::augmented_schemas`] — identical to the live base/`gen_A`
    /// schemas by construction of the store.
    pub fn compile(atg: &Atg) -> TranslationTemplates {
        let t0 = Instant::now();
        let provider: Vec<TableSchema> = atg.augmented_schemas();
        let closure_of = |q: &SpjQuery| q.eq_closure(&provider).expect("FROM tables known");
        let mut insert = HashMap::new();
        let mut side_effect = HashMap::new();
        let mut delete = HashMap::new();
        let mut bound: HashMap<String, Vec<_>> = HashMap::new();
        let mut compiles = 0u64;
        for a in atg.dtd().types() {
            for &b in atg.dtd().children_of(a) {
                if let Some(RuleBody::Query {
                    query,
                    param_fields,
                    ..
                }) = atg.rule(a, b)
                {
                    if let Entry::Vacant(slot) = insert.entry((a, b)) {
                        slot.insert(EdgeTemplate::compile(
                            closure_of(query),
                            query,
                            param_fields,
                        ));
                        compiles += 1;
                    }
                }
                if let Entry::Vacant(slot) = delete.entry((a, b)) {
                    if let Some(q) = atg.edge_view_query(a, b) {
                        let closure = closure_of(&q);
                        slot.insert(SourceProgram::compile(&provider, &q, &closure, &[0]));
                        compiles += 1;
                        let n_base = q.from().len() - 1;
                        let plans: Vec<SpjPlan> = (1..1usize << n_base)
                            .map(|set| {
                                let first: Vec<usize> =
                                    (1..=n_base).filter(|i| set & 1 << (i - 1) != 0).collect();
                                SpjPlan::compile_first(&q, &provider, &first)
                                    .expect("edge views are valid")
                            })
                            .collect();
                        compiles += plans.len() as u64;
                        side_effect.insert((a, b), plans);
                        // Entry 0 is the derived `gen_parent`, never a source.
                        for (rel, tr) in q.from().iter().enumerate().skip(1) {
                            let probes: &mut Vec<_> = bound.entry(tr.table.clone()).or_default();
                            probes.push(((a, b), compile_bound(&provider, &q, rel)));
                            compiles += 1;
                        }
                    }
                }
            }
        }
        for probes in bound.values_mut() {
            probes.sort_by_key(|(edge, _)| *edge);
        }
        TranslationTemplates {
            insert,
            side_effect,
            delete,
            bound,
            hits: AtomicU64::new(0),
            compiles,
            compile_ns: t0.elapsed().as_nanos() as u64,
        }
    }

    /// Instantiates the insert-side closure of `edge`, a production edge
    /// with a query rule: what `rxview_reference::compute_edge_closure`
    /// derives for the same attribute tuples, rejection included.
    ///
    /// # Panics
    /// If `edge` has no query rule in the grammar the registry was compiled
    /// from — [`TranslationTemplates::compile`] covers every one that has.
    pub fn instantiate_insert(
        &self,
        edge: (TypeId, TypeId),
        parent_attr: &Tuple,
        child_attr: &Tuple,
    ) -> Result<EdgeClosure, InsertRejection> {
        let t = self
            .insert
            .get(&edge)
            .expect("every query-rule edge is compiled");
        self.hits.fetch_add(1, Ordering::Relaxed);
        t.instantiate(parent_attr, child_attr)
    }

    /// The side-effect plan of `edge`'s view with the non-empty set of
    /// FROM entries `set` (entry `i` is bit `i - 1`) placed first.
    ///
    /// # Panics
    /// If `edge` has no edge view in the grammar the registry was compiled
    /// from — [`TranslationTemplates::compile`] covers every one that has —
    /// or `set` names an entry the view does not have.
    pub(crate) fn side_effect_plan(&self, edge: (TypeId, TypeId), set: usize) -> &SpjPlan {
        let plans = self
            .side_effect
            .get(&edge)
            .expect("every edge view is compiled");
        self.hits.fetch_add(1, Ordering::Relaxed);
        &plans[set - 1]
    }

    /// Reconstructs the candidate sources of one output row of `edge`'s
    /// view, the derived `gen_parent` entry skipped. `None`: the view is
    /// not key-preserving in the generalized sense — exactly when
    /// `rxview_reference::closure_source_keys` returns `Ok(None)`.
    ///
    /// # Panics
    /// If `edge` has no edge view in the grammar the registry was compiled
    /// from — [`TranslationTemplates::compile`] covers every one that has.
    pub fn source_keys(&self, edge: (TypeId, TypeId), out: &Tuple) -> Option<Vec<SourceRef>> {
        let program = self.delete.get(&edge).expect("every edge view is compiled");
        self.hits.fetch_add(1, Ordering::Relaxed);
        program.as_ref().map(|p| p.instantiate(out))
    }

    /// Binds `table`'s delete probes to `source`: run on a key `k` of
    /// `table`, a probe of edge `(A, B)` yields the rows of that edge view
    /// with `(table, k)` in their deletable source through one FROM
    /// occurrence. In edge order; empty for a table no edge view reads.
    pub(crate) fn bind_probes<'a, S: TableSource + ?Sized>(
        &'a self,
        table: &str,
        source: &'a S,
    ) -> RelResult<Vec<EdgeProbe<BoundPlan<'a>>>> {
        let probes = self.bound.get(table).map_or(&[][..], Vec::as_slice);
        self.hits.fetch_add(probes.len() as u64, Ordering::Relaxed);
        probes
            .iter()
            .map(|(edge, plan)| Ok((*edge, plan.bind(source)?)))
            .collect()
    }

    /// Counters in the plan-cache shape: `hits` are registry entries used
    /// (instantiations, side-effect plans run and probes bound);
    /// `misses`/`compiles` are the one-shot compile pass (fixed after
    /// construction, so steady-state hit rate → 1).
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.compiles,
            evictions: 0,
            compiles: self.compiles,
            compile_ns: self.compile_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};

    fn atg() -> Atg {
        let db = registrar_database();
        registrar_atg(&db).unwrap()
    }

    #[test]
    fn registry_compiles_every_query_rule_edge() {
        let atg = atg();
        let reg = TranslationTemplates::compile(&atg);
        let mut query_edges = 0;
        for a in atg.dtd().types() {
            for &b in atg.dtd().children_of(a) {
                if let Some(RuleBody::Query { .. }) = atg.rule(a, b) {
                    query_edges += 1;
                    assert!(reg.insert.contains_key(&(a, b)), "insert template missing");
                }
                if atg.edge_view_query(a, b).is_some() {
                    assert!(reg.delete.contains_key(&(a, b)), "delete program missing");
                }
            }
        }
        assert!(query_edges > 0, "fixture has query rules");
        let s = reg.stats();
        assert_eq!(s.compiles, reg.compiles);
        assert!(s.compile_ns > 0);
    }
}
