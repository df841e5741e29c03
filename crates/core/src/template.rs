//! The translation registry: the one home of the edge views.
//!
//! §2.3 codes a recursive view as a bounded set of edge views `Q_edge_A_B`
//! (`gen_A` joined with the rule of `A → B`, one row per `A → B` edge), and
//! §4.2/§4.3 translate every update through them and through the equality
//! closure of their `Col = Col` predicates
//! ([`rxview_relstore::SpjQuery::eq_closure`]). Both depend only on the
//! grammar and the table schemas, so [`TranslationTemplates::compile`]
//! derives each edge view **once**, and keeps one [`EdgeRecord`] per
//! production edge with what is compiled from it:
//!
//! - the rule query's closure and an ordered *pin program* (which class is
//!   pinned by which child attribute position, parent attribute field, or
//!   constant): phase 1 of Algorithm insert replays the pins against the
//!   literal attribute tuples and gets the [`EdgeClosure`]
//!   `rxview_reference::compute_edge_closure` derives;
//! - per non-empty set of the view's non-derived FROM entries, phase 2's
//!   side-effect [`SpjPlan`] with those entries placed first
//!   ([`SpjPlan::compile_first`], the relstore's one planner);
//! - a `SourceProgram`: per non-derived FROM entry, the output position
//!   (or constant) each key column's class resolves to, so a deleted row's
//!   candidate sources are a few indexed clones where
//!   `rxview_reference::closure_source_keys` re-runs the union-find.
//!
//! Per base table the registry also keeps Algorithm delete's safety probes
//! ([`compile_bound`]), one per FROM occurrence in an edge view.
//! `tests/reference_oracles.rs` holds the records to `Atg::edge_view_query`
//! and to the interpretive references.
//!
//! **Cache-coherence invariant:** a record depends only on the `Atg` and
//! the base/`gen_A` *schemas* — never on table contents, node identity, or
//! attribute values. Both are fixed for a published store family, so the
//! registry, held once in the engine-wide [`crate::plan::PlanCache`]'s
//! `OnceLock`, is compiled once and never invalidated; no load derives an
//! edge view.

use crate::plan::PlanCacheStats;
use crate::rel_insert::{EdgeClosure, InsertRejection};
use rxview_atg::{Atg, RuleBody};
use rxview_relstore::{
    BoundPlan, ColRef, EqClosure, EqPred, Operand, RelResult, SchemaProvider, SpjPlan, SpjQuery,
    TableSchema, TableSource, Tuple, Value,
};
use rxview_xmlkit::TypeId;
use std::collections::{BTreeMap, HashMap};
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
struct EdgeTemplate {
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
struct SourceProgram {
    specs: Vec<SourceSpec>,
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
        Some(SourceProgram { specs })
    }

    /// Reconstructs the candidate sources for one output row. Duplicates
    /// (self-joins resolving to the same key) collapse, as interpretively.
    fn instantiate(&self, out: &Tuple) -> Vec<SourceRef> {
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

/// One production edge `A → B` in the registry: its edge view
/// `Q_edge_A_B` (§2.3) and what the translation compiled from it.
#[derive(Debug)]
pub struct EdgeRecord {
    view: SpjQuery,
    /// Phase 1's skeleton of the rule query; `None` for a projection rule.
    template: Option<EdgeTemplate>,
    /// `None`: the view is not key-preserving in the generalized sense.
    source: Option<SourceProgram>,
    /// Phase 2's side-effect plans: the plan for the set of FROM entries
    /// `S` read from templates (entry `i` is bit `i - 1`) at index `S - 1`.
    side_effect: Vec<SpjPlan>,
    /// Template and source program instantiated, side-effect plans run.
    hits: AtomicU64,
}

impl EdgeRecord {
    /// The edge view: `gen_A` joined with the rule of `A → B`, whose rows
    /// (`$A` fields ++ `$B` fields) are the DAG's `A → B` edges.
    pub fn view(&self) -> &SpjQuery {
        &self.view
    }

    /// Instantiates the insert-side closure of the edge's rule query: what
    /// `rxview_reference::compute_edge_closure` derives for the same
    /// attribute tuples, rejection included.
    ///
    /// # Panics
    /// If the edge has a projection rule, not a query rule.
    pub fn instantiate_insert(
        &self,
        parent_attr: &Tuple,
        child_attr: &Tuple,
    ) -> Result<EdgeClosure, InsertRejection> {
        let t = self.template.as_ref().expect("a query-rule edge");
        self.hits.fetch_add(1, Ordering::Relaxed);
        t.instantiate(parent_attr, child_attr)
    }

    /// The side-effect plan of the view with the non-empty set of FROM
    /// entries `set` (entry `i` is bit `i - 1`) placed first.
    ///
    /// # Panics
    /// If `set` names an entry the view does not have.
    pub(crate) fn side_effect_plan(&self, set: usize) -> &SpjPlan {
        self.hits.fetch_add(1, Ordering::Relaxed);
        &self.side_effect[set - 1]
    }

    /// Reconstructs the candidate sources of one output row of the view,
    /// the derived `gen_parent` entry skipped. `None`: the view is not
    /// key-preserving in the generalized sense — exactly when
    /// `rxview_reference::closure_source_keys` returns `Ok(None)`.
    pub fn source_keys(&self, out: &Tuple) -> Option<Vec<SourceRef>> {
        debug_assert_eq!(out.arity(), self.view.out_arity(), "edge row arity");
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.source.as_ref().map(|p| p.instantiate(out))
    }
}

/// The per-grammar registry of compiled translation templates: one
/// [`EdgeRecord`] per production edge with a rule, and per base table the
/// delete probes, compiled in one pass over the `Atg`. Cached in the
/// engine-wide [`crate::plan::PlanCache`] (one registry per store family)
/// and consulted by every translation consumer.
#[derive(Debug)]
pub struct TranslationTemplates {
    /// In `(parent, child)` type order.
    edges: BTreeMap<(TypeId, TypeId), EdgeRecord>,
    /// Per base table, the delete side's safety probes: one per FROM
    /// occurrence of the table in an edge view ([`compile_bound`]), in edge
    /// order.
    bound: HashMap<String, Vec<EdgeProbe<SpjPlan>>>,
    /// Delete probes bound.
    probe_hits: AtomicU64,
    /// Templates compiled (fixed after construction).
    compiles: u64,
    /// Wall nanoseconds of the one-shot compile pass.
    compile_ns: u64,
}

impl TranslationTemplates {
    /// Compiles the full registry from the grammar, each edge view derived
    /// once. Schemas come from [`Atg::augmented_schemas`] — identical to
    /// the live base/`gen_A` schemas by construction of the store.
    pub fn compile(atg: &Atg) -> TranslationTemplates {
        let t0 = Instant::now();
        let provider: Vec<TableSchema> = atg.augmented_schemas();
        let closure_of = |q: &SpjQuery| q.eq_closure(&provider).expect("FROM tables known");
        let mut edges = BTreeMap::new();
        let mut compiles = 0u64;
        for a in atg.dtd().types() {
            for &b in atg.dtd().children_of(a) {
                if edges.contains_key(&(a, b)) {
                    continue;
                }
                let Some(view) = atg.edge_view_query(a, b, &provider) else {
                    continue;
                };
                let template = match atg.rule(a, b) {
                    Some(RuleBody::Query {
                        query,
                        param_fields,
                        ..
                    }) => Some(EdgeTemplate::compile(
                        closure_of(query),
                        query,
                        param_fields,
                    )),
                    _ => None,
                };
                let source = SourceProgram::compile(&provider, &view, &closure_of(&view), &[0]);
                let n_base = view.from().len() - 1;
                let side_effect: Vec<SpjPlan> = (1..1usize << n_base)
                    .map(|set| {
                        let first: Vec<usize> =
                            (1..=n_base).filter(|i| set & 1 << (i - 1) != 0).collect();
                        SpjPlan::compile_first(&view, &provider, &first)
                            .expect("edge views are valid")
                    })
                    .collect();
                compiles += u64::from(template.is_some()) + 1 + side_effect.len() as u64;
                let record = EdgeRecord {
                    view,
                    template,
                    source,
                    side_effect,
                    hits: AtomicU64::new(0),
                };
                edges.insert((a, b), record);
            }
        }
        let mut bound: HashMap<String, Vec<_>> = HashMap::new();
        for (&edge, record) in &edges {
            // Entry 0 is the derived `gen_parent`, never a source.
            for (rel, tr) in record.view.from().iter().enumerate().skip(1) {
                let probe = compile_bound(&provider, &record.view, rel);
                bound
                    .entry(tr.table.clone())
                    .or_default()
                    .push((edge, probe));
                compiles += 1;
            }
        }
        TranslationTemplates {
            edges,
            bound,
            probe_hits: AtomicU64::new(0),
            compiles,
            compile_ns: t0.elapsed().as_nanos() as u64,
        }
    }

    /// The record of production edge `edge`; `None` when the edge has no
    /// rule.
    pub fn edge(&self, edge: (TypeId, TypeId)) -> Option<&EdgeRecord> {
        self.edges.get(&edge)
    }

    /// Every record, in `(parent, child)` type order.
    pub fn edges(&self) -> impl Iterator<Item = ((TypeId, TypeId), &EdgeRecord)> {
        self.edges.iter().map(|(&edge, record)| (edge, record))
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
        self.probe_hits
            .fetch_add(probes.len() as u64, Ordering::Relaxed);
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
        let record_hits = self.edges.values().map(|r| r.hits.load(Ordering::Relaxed));
        PlanCacheStats {
            hits: record_hits.sum::<u64>() + self.probe_hits.load(Ordering::Relaxed),
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
                let record = reg.edge((a, b)).expect("every edge has a rule");
                let is_query = matches!(atg.rule(a, b), Some(RuleBody::Query { .. }));
                assert_eq!(record.template.is_some(), is_query, "insert template");
                query_edges += usize::from(is_query);
            }
        }
        assert!(query_edges > 0, "fixture has query rules");
        let s = reg.stats();
        assert_eq!(s.compiles, reg.compiles);
        assert!(s.compile_ns > 0);
    }
}
