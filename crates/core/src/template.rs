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
//! - a *cell program*: per base FROM entry of the view and per column,
//!   where the cell takes its value when the view's row is the edge row
//!   `$A(u) ++ $B(v)` — a field of `$A` or `$B`, a constant, or a class no
//!   pin determines — and the equalities the row must satisfy. Phase 1 of
//!   Algorithm insert reads its tuple templates through it, Algorithm
//!   delete its deletable sources `Sr(Q, t)`, and the planner its planned
//!   footprints; `rxview_reference::compute_edge_closure` and
//!   `closure_source_keys` derive the same interpretively;
//! - per non-empty set of the view's non-derived FROM entries, phase 2's
//!   side-effect [`SpjPlan`] with those entries placed first
//!   ([`SpjPlan::compile_first`], the relstore's one planner).
//!
//! Per base table the registry also keeps Algorithm delete's safety probes
//! ([`compile_bound`]), one per FROM occurrence in an edge view.
//! `tests/reference_oracles.rs` holds the records to `Atg::edge_view_query`
//! and to the interpretive references. Translation names a base table by
//! its number here ([`TranslationTemplates::tables`], in name order, so
//! Algorithm insert's templates stay in `(table, key)` order), and reads
//! the name back only for a `∆R` op, a rejection or a footprint row.
//!
//! **Cache-coherence invariant:** a record depends only on the `Atg` and
//! the base/`gen_A` *schemas* — never on table contents, node identity, or
//! attribute values. Both are fixed for a published store family, so the
//! registry, held once in the engine-wide [`crate::plan::PlanCache`]'s
//! `OnceLock`, is compiled once and never invalidated; no load derives an
//! edge view.

use crate::plan::PlanCacheStats;
use crate::rel_insert::InsertRejection;
use rxview_atg::Atg;
use rxview_relstore::{
    BoundPlan, ColRef, EqPred, Operand, RelResult, SchemaProvider, SpjPlan, SpjQuery, TableSchema,
    TableSource, Tuple, Value,
};
use rxview_xmlkit::TypeId;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Where the cell program reads a cell of a base FROM entry's row.
#[derive(Debug, Clone, PartialEq)]
enum Cell {
    /// The parent's `$A` at this field.
    Parent(usize),
    /// The child's `$B` at this field.
    Child(usize),
    /// A constant predicate's literal.
    Const(Value),
    /// The `k`-th class no pin determines.
    Var(usize),
}

/// A cell of a base FROM entry's row, read off one edge row by its
/// record's cell program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeCell<'a> {
    /// A field of the edge row, or a constant.
    Known(&'a Value),
    /// The `k`-th equality class of the view's columns that nothing pins,
    /// classes numbered by first occurrence in (entry, column) order: a
    /// value the row leaves open.
    Var(usize),
}

/// A base FROM entry of an edge view, as the cell program reads it.
#[derive(Debug)]
struct BaseEntry {
    /// The table's number in the registry.
    table: usize,
    /// The table's key columns.
    key: Vec<usize>,
    /// Per column.
    cells: Vec<Cell>,
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

/// Compiles the cell program of edge view `view`, whose parent type has
/// `fields` attribute fields, its base tables numbered by their index in
/// `tables`. Each equality class of the view's columns takes its value
/// from its first pin — the projections by position, then the constant
/// predicates in predicate order — and every further pin of the class is a
/// check against that one. An empty `$A`'s unit column pins nothing: no
/// rule reads it. The classes no pin reaches are numbered by first
/// occurrence in (entry, column) order.
fn compile_cells(
    provider: &impl SchemaProvider,
    tables: &[String],
    view: &SpjQuery,
    fields: usize,
) -> (Vec<(Cell, Cell)>, Vec<BaseEntry>) {
    let closure = view.eq_closure(provider).expect("FROM tables known");
    let gen_arity = fields.max(1);
    let projected = view.projection().iter().enumerate();
    let projected = projected.filter_map(|(pos, &c)| match pos.checked_sub(gen_arity) {
        Some(j) => Some((c, Cell::Child(j))),
        None => (pos < fields).then_some((c, Cell::Parent(pos))),
    });
    let constants = view
        .predicates()
        .iter()
        .filter_map(|p| match (&p.left, &p.right) {
            (Operand::Col(c), Operand::Const(v)) | (Operand::Const(v), Operand::Col(c)) => {
                Some((*c, Cell::Const(v.clone())))
            }
            _ => None,
        });
    let mut pins: HashMap<usize, Cell> = HashMap::new();
    let mut checks = Vec::new();
    for (c, cell) in projected.chain(constants) {
        match pins.entry(closure.rep(c)) {
            Entry::Occupied(first) => checks.push((first.get().clone(), cell)),
            Entry::Vacant(slot) => {
                slot.insert(cell);
            }
        }
    }
    let mut vars: HashMap<usize, usize> = HashMap::new();
    let mut entries = Vec::with_capacity(view.from().len() - 1);
    // Entry 0 is the derived `gen_A`, never a base row.
    for (rel, tr) in view.from().iter().enumerate().skip(1) {
        let schema = provider.schema_of(&tr.table).expect("FROM table known");
        let cells = (0..schema.arity())
            .map(|col| {
                let r = closure.rep(ColRef { rel, col });
                pins.get(&r).cloned().unwrap_or_else(|| {
                    let k = vars.len();
                    Cell::Var(*vars.entry(r).or_insert(k))
                })
            })
            .collect();
        entries.push(BaseEntry {
            table: tables.binary_search(&tr.table).expect("a numbered table"),
            key: schema.key().to_vec(),
            cells,
        });
    }
    (checks, entries)
}

/// Cell `cell` of the edge row `(parent, child)`.
fn read<'a>(cell: &'a Cell, parent: &'a [Value], child: &'a [Value]) -> EdgeCell<'a> {
    match cell {
        Cell::Parent(i) => EdgeCell::Known(&parent[*i]),
        Cell::Child(j) => EdgeCell::Known(&child[*j]),
        Cell::Const(v) => EdgeCell::Known(v),
        Cell::Var(k) => EdgeCell::Var(*k),
    }
}

/// One production edge `A → B` in the registry: its edge view
/// `Q_edge_A_B` (§2.3) and what the translation compiled from it.
#[derive(Debug)]
pub struct EdgeRecord {
    view: SpjQuery,
    /// The cell program's checks: pairs of pins of one class, its first
    /// pin and a further one, on which a row of the view agrees.
    checks: Vec<(Cell, Cell)>,
    /// The cell program per base FROM entry, in FROM order.
    entries: Vec<BaseEntry>,
    /// Phase 2's side-effect plans: the plan for the set of FROM entries
    /// `S` read from templates (entry `i` is bit `i - 1`) at index `S - 1`.
    side_effect: Vec<SpjPlan>,
    /// Cell programs run, side-effect plans handed out.
    hits: AtomicU64,
}

impl EdgeRecord {
    /// The edge view: `gen_A` joined with the rule of `A → B`, whose rows
    /// (`$A` fields ++ `$B` fields) are the DAG's `A → B` edges.
    pub fn view(&self) -> &SpjQuery {
        &self.view
    }

    /// Runs the cell program on the edge row of a parent with `$A` `parent`
    /// and a child with `$B` `child` — the row split as
    /// [`crate::ViewStore::edge_from_row`] splits it: the checks, then per
    /// base FROM entry of the view, in FROM order, its table's number (see
    /// [`TranslationTemplates::tables`]) and cells.
    /// A failed check means no row of the view is that edge row, and
    /// phase 1 of Algorithm insert rejects it as an inconsistent
    /// derivation — what `rxview_reference::compute_edge_closure` derives
    /// for the same row, rejection included.
    pub fn cells<'a>(
        &'a self,
        parent: &'a [Value],
        child: &'a [Value],
    ) -> Result<
        impl Iterator<Item = (usize, impl Iterator<Item = EdgeCell<'a>> + 'a)> + 'a,
        InsertRejection,
    > {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.check(parent, child)?;
        Ok(self
            .entries
            .iter()
            .map(move |e| (e.table, e.cells.iter().map(move |c| read(c, parent, child)))))
    }

    /// The table number of each base FROM entry, in FROM order (see
    /// [`TranslationTemplates::tables`]).
    pub fn tables(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().map(|e| e.table)
    }

    /// The table number of base FROM entry `rel` (entry 0 is `gen_A`).
    pub(crate) fn table(&self, rel: usize) -> usize {
        self.entries[rel - 1].table
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

    /// The candidate sources of the view's row on the edge row `(parent,
    /// child)`, split as for [`EdgeRecord::cells`]: per base FROM entry its
    /// table's number and the key its key cells read, each class's first
    /// pin read and no check run — one element `(S, k)` of `Sr(Q, t)`
    /// (§4.2) each, whose deletion removes the row from the view.
    /// Duplicates (self-joins resolving to the same key) collapse. `None`:
    /// a key cell is a class no pin determines, so the view is not
    /// key-preserving in the generalized sense — exactly when
    /// `rxview_reference::closure_source_keys` returns `Ok(None)`.
    pub fn source_keys(&self, parent: &[Value], child: &[Value]) -> Option<Vec<(usize, Tuple)>> {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.keys(parent, child)
    }

    /// The keys of the base rows phase 1's templates would hold for the
    /// edge row `(parent, child)` — the planned base-write footprint of
    /// inserting that edge, read without evaluating or applying anything:
    /// [`EdgeRecord::source_keys`] once the checks pass. `None` when a
    /// check fails (the translation rejects and writes nothing) or the view
    /// is not key-preserving.
    pub(crate) fn template_keys(
        &self,
        parent: &[Value],
        child: &[Value],
    ) -> Option<Vec<(usize, Tuple)>> {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.check(parent, child).ok()?;
        self.keys(parent, child)
    }

    /// Whether the edge row agrees on every check.
    fn check(&self, parent: &[Value], child: &[Value]) -> Result<(), InsertRejection> {
        let agree = |(x, y): &(Cell, Cell)| read(x, parent, child) == read(y, parent, child);
        match self.checks.iter().all(agree) {
            true => Ok(()),
            false => Err(InsertRejection::KeyConflict {
                table: "<inconsistent edge derivation>".into(),
            }),
        }
    }

    fn keys(&self, parent: &[Value], child: &[Value]) -> Option<Vec<(usize, Tuple)>> {
        let open = |e: &BaseEntry| e.key.iter().any(|&k| matches!(e.cells[k], Cell::Var(_)));
        if self.entries.iter().any(open) {
            return None;
        }
        let mut result = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let key = e
                .key
                .iter()
                .map(|&k| match read(&e.cells[k], parent, child) {
                    EdgeCell::Known(v) => v.clone(),
                    EdgeCell::Var(_) => unreachable!("every key cell is pinned"),
                });
            let sr = (e.table, Tuple::from_values(key));
            if !result.contains(&sr) {
                result.push(sr);
            }
        }
        Some(result)
    }
}

/// The per-grammar registry of compiled translation templates: the base
/// tables the edge views read, numbered; one [`EdgeRecord`] per production
/// edge with a rule; and per base table the delete probes — compiled in one
/// pass over the `Atg`. Cached in the engine-wide
/// [`crate::plan::PlanCache`] (one registry per store family) and consulted
/// by every translation consumer.
#[derive(Debug)]
pub struct TranslationTemplates {
    /// The base tables some edge view's FROM names, in name order: a
    /// table's number is its index here.
    tables: Vec<String>,
    /// In `(parent, child)` type order.
    edges: BTreeMap<(TypeId, TypeId), EdgeRecord>,
    /// Per table number, the delete side's safety probes: one per FROM
    /// occurrence of the table in an edge view ([`compile_bound`]), in edge
    /// order.
    bound: Vec<Vec<EdgeProbe<SpjPlan>>>,
    /// Delete probes bound.
    probe_hits: AtomicU64,
    /// Cell programs and plans compiled (fixed after construction).
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
        let mut views = BTreeMap::new();
        for a in atg.dtd().types() {
            for &b in atg.dtd().children_of(a) {
                if let Some(view) = atg.edge_view_query(a, b, &provider) {
                    views.insert((a, b), view);
                }
            }
        }
        // Entry 0 is the derived `gen_parent`, never a base table.
        let base = views.values().flat_map(|view| &view.from()[1..]);
        let tables: BTreeSet<&String> = base.map(|tr| &tr.table).collect();
        let tables: Vec<String> = tables.into_iter().cloned().collect();
        let (mut edges, mut compiles) = (BTreeMap::new(), 0u64);
        let mut bound: Vec<Vec<_>> = tables.iter().map(|_| Vec::new()).collect();
        for ((a, b), view) in views {
            let fields = atg.attr_fields(a).len();
            let (checks, entries) = compile_cells(&provider, &tables, &view, fields);
            let n_base = entries.len();
            let side_effect: Vec<SpjPlan> = (1..1usize << n_base)
                .map(|set| {
                    let first: Vec<usize> =
                        (1..=n_base).filter(|i| set & 1 << (i - 1) != 0).collect();
                    SpjPlan::compile_first(&view, &provider, &first).expect("edge views are valid")
                })
                .collect();
            for (rel, e) in (1..).zip(&entries) {
                bound[e.table].push(((a, b), compile_bound(&provider, &view, rel)));
            }
            compiles += 1 + side_effect.len() as u64 + n_base as u64;
            let hits = AtomicU64::new(0);
            let record = EdgeRecord {
                view,
                checks,
                entries,
                side_effect,
                hits,
            };
            edges.insert((a, b), record);
        }
        TranslationTemplates {
            tables,
            edges,
            bound,
            probe_hits: AtomicU64::new(0),
            compiles,
            compile_ns: t0.elapsed().as_nanos() as u64,
        }
    }

    /// The base tables the edge views read, in name order: the table
    /// numbered `n` in [`EdgeRecord::cells`] and [`EdgeRecord::source_keys`]
    /// is `tables()[n]`.
    pub fn tables(&self) -> &[String] {
        &self.tables
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

    /// Binds the delete probes of the table numbered `table` to `source`:
    /// run on a key `k` of the table, a probe of edge `(A, B)` yields the
    /// rows of that edge view with `(table, k)` in their deletable source
    /// through one FROM occurrence. In edge order.
    pub(crate) fn bind_probes<'a, S: TableSource + ?Sized>(
        &'a self,
        table: usize,
        source: &'a S,
    ) -> RelResult<Vec<EdgeProbe<BoundPlan<'a>>>> {
        let probes = &self.bound[table];
        self.probe_hits
            .fetch_add(probes.len() as u64, Ordering::Relaxed);
        probes
            .iter()
            .map(|(edge, plan)| Ok((*edge, plan.bind(source)?)))
            .collect()
    }

    /// Counters in the plan-cache shape: `hits` are registry entries used
    /// (cell programs run, side-effect plans run and probes bound);
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
    use rxview_atg::{registrar_atg, registrar_database, RuleBody};

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
                assert_eq!(!record.entries.is_empty(), is_query, "base FROM entries");
                query_edges += usize::from(is_query);
            }
        }
        assert!(query_edges > 0, "fixture has query rules");
        let s = reg.stats();
        assert_eq!(s.compiles, reg.compiles);
        assert!(s.compile_ns > 0);
    }
}
