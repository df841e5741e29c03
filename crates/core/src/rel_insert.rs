//! Algorithm **insert** (§4.3, Appendix A): translating group view
//! insertions `∆V` to base-table insertions `∆R` via SAT.
//!
//! Insertion updatability is NP-complete even under key preservation
//! (Theorem 2), so the algorithm is a heuristic:
//!
//! 1. **Tuple templates.** For every inserted edge, the defining rule query
//!    determines — through the equality closure of its predicates — a tuple
//!    template for each base relation: key fields are always known (key
//!    preservation), other fields are constants or fresh *variables*.
//!    Templates with the same key are unified (Appendix A preprocessing);
//!    templates whose key already exists in the base relation are checked
//!    for consistency and dropped (the tuple is already there).
//! 2. **Side-effect detection.** Every edge view is "evaluated" over the
//!    database incremented by the templates: all combinations that use at
//!    least one template are joined symbolically, producing candidate view
//!    tuples with associated *conditions* (equalities on variables). A
//!    candidate not in `V ∪ ∆V` is a side effect: with no condition the
//!    update is rejected outright; with a condition on an infinite-domain
//!    variable it is avoided by choosing a fresh constant; with conditions
//!    on finite-domain variables only, the negated condition becomes a SAT
//!    clause. The fresh nodes' `gen_A` rows join as a key-sorted list read
//!    after the live `gen_A` table's.
//! 3. **SAT.** Finite-domain variables are encoded as `x = c` propositions
//!    with domain and mutual-exclusion clauses; the formula goes to WalkSAT
//!    (the paper's solver \[30\]), with a complete DPLL fallback on small
//!    instances.
//! 4. **Decode `∆R`.** Templates are instantiated from the model; unpinned
//!    infinite-domain variables get fresh constants outside the active
//!    domain (Theorem 4's construction).
//!
//! The translation derives no equality closure (the interpretive
//! `rxview_reference::compute_edge_closure` is the reference it is tested
//! against): both phases read the one
//! [`rxview_relstore::SpjQuery::eq_closure`] computed per rule and per edge
//! view when the [`TranslationTemplates`] registry compiles. What phase 2
//! still does per call is what reads the tables — the greedy join order,
//! whose tie-break is table size, and the join itself.

use crate::template::{TranslationTemplates, ViewClasses};
use crate::update::ViewDelta;
use crate::viewstore::ViewStore;
use rxview_atg::{NodeId, RuleBody};
use rxview_relstore::{
    ColRef, Database, Domain, EqClosure, GroupUpdate, Operand, RelError, SpjQuery, Table,
    TableSchema, Tuple, Value, ValueType,
};
use rxview_satsolver::{
    dpll, walksat, CnfFormula, DpllResult, Var as PropVar, WalkSatConfig, WalkSatResult,
};
use rxview_xmlkit::TypeId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Why a group insertion was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertRejection {
    /// An unavoidable side effect: some unintended view tuple is produced
    /// under every instantiation of the templates.
    SideEffect {
        /// The edge view producing the unintended tuple.
        view: String,
    },
    /// The SAT instance has no (found) satisfying assignment.
    Unsatisfiable,
    /// A required base tuple conflicts with an existing tuple on its key.
    KeyConflict {
        /// The base table.
        table: String,
    },
    /// The edge has no producing rule (or a projection rule whose attribute
    /// flow contradicts the requested child).
    NotInsertable {
        /// Description of the offending edge.
        edge: String,
    },
    /// A finite-domain variable-to-variable condition the encoder does not
    /// support (conservatively rejected; see module docs).
    UnsupportedCondition,
    /// Underlying relational error.
    Rel(RelError),
}

impl fmt::Display for InsertRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsertRejection::SideEffect { view } => {
                write!(f, "unavoidable side effect through view {view}")
            }
            InsertRejection::Unsatisfiable => write!(f, "no satisfying instantiation found"),
            InsertRejection::KeyConflict { table } => {
                write!(f, "key conflict with an existing tuple in `{table}`")
            }
            InsertRejection::NotInsertable { edge } => write!(f, "edge not insertable: {edge}"),
            InsertRejection::UnsupportedCondition => {
                write!(
                    f,
                    "finite-domain variable equality not encodable; rejected conservatively"
                )
            }
            InsertRejection::Rel(e) => write!(f, "relational error: {e}"),
        }
    }
}

impl std::error::Error for InsertRejection {}

impl From<RelError> for InsertRejection {
    fn from(e: RelError) -> Self {
        InsertRejection::Rel(e)
    }
}

/// Outcome of a successful translation.
#[derive(Debug, Clone)]
pub(crate) struct InsertTranslation {
    /// The base-table insertions.
    pub delta_r: GroupUpdate,
    /// Whether a SAT solver ran.
    pub sat_used: bool,
}

/// A symbolic cell value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Sym {
    Known(Value),
    Var(usize),
}

/// Book-keeping for symbolic variables (with union-find and bindings).
#[derive(Debug, Default)]
struct Vars {
    parent: Vec<usize>,
    domain: Vec<Domain>,
    ty: Vec<ValueType>,
    binding: Vec<Option<Value>>,
}

impl Vars {
    fn fresh(&mut self, ty: ValueType, domain: Domain) -> usize {
        self.parent.push(self.parent.len());
        self.domain.push(domain);
        self.ty.push(ty);
        self.binding.push(None);
        self.parent.len() - 1
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    fn union(&mut self, a: usize, b: usize) -> Result<(), ()> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return Ok(());
        }
        match (self.binding[ra].clone(), self.binding[rb].clone()) {
            (Some(x), Some(y)) if x != y => return Err(()),
            (Some(x), None) => self.binding[rb] = Some(x),
            _ => {}
        }
        // Intersect domains conservatively: finite wins.
        if matches!(self.domain[ra], Domain::Finite(_)) {
            self.domain[rb] = self.domain[ra].clone();
        }
        self.parent[ra] = rb;
        Ok(())
    }

    fn bind(&mut self, v: usize, value: Value) -> Result<(), ()> {
        let r = self.find(v);
        match &self.binding[r] {
            Some(x) if *x != value => Err(()),
            Some(_) => Ok(()),
            None => {
                if !self.domain[r].contains(&value) {
                    return Err(());
                }
                self.binding[r] = Some(value);
                Ok(())
            }
        }
    }

    fn resolve(&mut self, s: &Sym) -> Sym {
        match s {
            Sym::Known(v) => Sym::Known(v.clone()),
            Sym::Var(v) => {
                let r = self.find(*v);
                match &self.binding[r] {
                    Some(val) => Sym::Known(val.clone()),
                    None => Sym::Var(r),
                }
            }
        }
    }

    fn is_finite(&mut self, v: usize) -> bool {
        let r = self.find(v);
        matches!(self.domain[r], Domain::Finite(_))
    }

    fn domain_values(&mut self, v: usize) -> Vec<Value> {
        let r = self.find(v);
        match &self.domain[r] {
            Domain::Finite(vs) => vs.clone(),
            Domain::Infinite => Vec::new(),
        }
    }
}

/// A pending base-table insertion with possibly-symbolic cells.
#[derive(Debug, Clone)]
struct Template {
    table: String,
    cells: Vec<Sym>,
}

/// An equality condition attached to a symbolic join row.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Cond {
    VarConst(usize, Value),
    VarVar(usize, usize),
}

/// Main entry: translates the edge insertions of `delta` into `∆R`.
///
/// `fresh_nodes` are the nodes interned by `Xinsert` for the new subtree;
/// their `gen_A` rows participate in side-effect detection (they will be
/// parents of view edges once applied).
pub(crate) fn translate_insertions(
    vs: &ViewStore,
    base: &Database,
    delta: &ViewDelta,
    fresh_nodes: &[NodeId],
    sat_config: &WalkSatConfig,
) -> Result<InsertTranslation, InsertRejection> {
    let atg = vs.atg();
    let mut vars = Vars::default();
    let compiled = vs.templates();

    // ---- Phase 1: derive and unify tuple templates. ----
    let mut templates: BTreeMap<(String, Tuple), Template> = BTreeMap::new();
    for &(u, v) in &delta.inserts {
        let a = vs.dag().genid().type_of(u);
        let b = vs.dag().genid().type_of(v);
        let edge_desc = || format!("{} -> {}", atg.dtd().name(a), atg.dtd().name(b));
        match atg.rule(a, b) {
            None => return Err(InsertRejection::NotInsertable { edge: edge_desc() }),
            Some(RuleBody::Project { fields }) => {
                // The edge is implied by the parent's existence; just check
                // consistency of the attribute flow.
                let expect = vs.dag().genid().attr_of(u).project(fields);
                if &expect != vs.dag().genid().attr_of(v) {
                    return Err(InsertRejection::NotInsertable { edge: edge_desc() });
                }
            }
            Some(RuleBody::Query { query, .. }) => {
                derive_templates(
                    base,
                    &compiled,
                    (a, b),
                    query,
                    vs.dag().genid().attr_of(u),
                    vs.dag().genid().attr_of(v),
                    &mut vars,
                    &mut templates,
                )?;
            }
        }
    }

    if templates.is_empty() {
        // Everything already derivable: ∆R is empty.
        return Ok(InsertTranslation {
            delta_r: GroupUpdate::new(),
            sat_used: false,
        });
    }

    // ---- Phase 2: side-effect detection over the incremented database. ----
    // The fresh nodes' gen rows, per type in key order, are read beside the
    // maintained gen tables (their keys are new by construction): nothing
    // is copied, so the per-insertion cost stays linear in the insertion.
    let mut fresh_rows: HashMap<TypeId, Vec<Tuple>> = HashMap::new();
    for &n in fresh_nodes {
        let ty = vs.dag().genid().type_of(n);
        fresh_rows.entry(ty).or_default().push(vs.gen_row(n));
    }
    for rows in fresh_rows.values_mut() {
        rows.sort_unstable();
    }
    let mut by_table: BTreeMap<&str, Vec<&Template>> = BTreeMap::new();
    for t in templates.values() {
        by_table.entry(t.table.as_str()).or_default().push(t);
    }
    let side = SideEffects {
        vs,
        by_table,
        wanted: delta.inserts.iter().copied().collect(),
    };

    let mut clauses: Vec<Vec<Cond>> = Vec::new(); // each to be negated
    for (&(a, b), q) in vs.edge_queries() {
        // Entry 0 is the maintained gen table, never a template.
        let template_slots: Vec<usize> = (1..q.from().len())
            .filter(|&i| side.by_table.contains_key(q.from()[i].table.as_str()))
            .collect();
        if template_slots.is_empty() {
            continue;
        }
        let mut tables = vec![vs.gen_db().table(&q.from()[0].table)?];
        for tr in &q.from()[1..] {
            tables.push(base.table(&tr.table)?);
        }
        let view = JoinView {
            q,
            edge: (a, b),
            classes: compiled.view_classes((a, b)),
            tables,
            fresh: fresh_rows.get(&a).map_or(&[], Vec::as_slice),
        };
        // Every non-empty subset of the template slots.
        for mask in 1..1usize << template_slots.len() {
            let mut as_template = vec![false; q.from().len()];
            for (bit, &slot) in template_slots.iter().enumerate() {
                as_template[slot] = mask & (1 << bit) != 0;
            }
            eval_combination(&side, &view, &as_template, &mut vars, &mut clauses)?;
        }
    }

    // ---- Phase 3: SAT encoding and solving. ----
    let mut formula = CnfFormula::new();
    let mut prop: BTreeMap<(usize, Value), PropVar> = BTreeMap::new();
    let mut used_vars: BTreeSet<usize> = BTreeSet::new();
    {
        // Collect propositions per clause.
        let mut pending: Vec<Vec<(usize, Value)>> = Vec::new();
        for conds in &clauses {
            let mut atoms = Vec::new();
            let mut skip = false;
            for c in conds {
                match c {
                    Cond::VarConst(v, val) => {
                        let r = vars.find(*v);
                        if !vars.is_finite(r) {
                            // Avoidable with a fresh constant.
                            skip = true;
                            break;
                        }
                        atoms.push((r, val.clone()));
                    }
                    Cond::VarVar(x, y) => {
                        let (rx, ry) = (vars.find(*x), vars.find(*y));
                        if !vars.is_finite(rx) || !vars.is_finite(ry) {
                            skip = true; // fresh constants differ
                            break;
                        }
                        return Err(InsertRejection::UnsupportedCondition);
                    }
                }
            }
            if !skip {
                if atoms.is_empty() {
                    // Unconditional side effect slipped through (defensive).
                    return Err(InsertRejection::SideEffect {
                        view: "<encoded>".into(),
                    });
                }
                for (v, _) in &atoms {
                    used_vars.insert(*v);
                }
                pending.push(atoms);
            }
        }
        // Allocate propositions.
        for &v in &used_vars {
            for val in vars.domain_values(v) {
                let pv = formula.new_var();
                prop.insert((v, val), pv);
            }
        }
        // Domain + exclusion clauses.
        for &v in &used_vars {
            let vals = vars.domain_values(v);
            let lits: Vec<_> = vals.iter().map(|c| prop[&(v, c.clone())].pos()).collect();
            formula.add_clause(lits);
            for i in 0..vals.len() {
                for j in i + 1..vals.len() {
                    formula.add_not_both(prop[&(v, vals[i].clone())], prop[&(v, vals[j].clone())]);
                }
            }
        }
        // Negated side-effect conditions.
        for atoms in pending {
            let mut lits = Vec::new();
            let mut tautology = false;
            for (v, val) in atoms {
                match prop.get(&(v, val.clone())) {
                    Some(p) => lits.push(p.neg()),
                    // Value outside the variable's domain: condition can
                    // never hold.
                    None => {
                        tautology = true;
                        break;
                    }
                }
            }
            if !tautology {
                formula.add_clause(lits);
            }
        }
    }

    let mut sat_used = false;
    let model: Option<rxview_satsolver::Assignment> = if formula.clauses().is_empty() {
        None
    } else {
        sat_used = true;
        match walksat(&formula, sat_config) {
            WalkSatResult::Sat(m) => Some(m),
            WalkSatResult::Unknown => {
                // Complete fallback on small instances.
                if formula.n_vars() <= 24 {
                    match dpll(&formula) {
                        DpllResult::Sat(m) => Some(m),
                        DpllResult::Unsat => return Err(InsertRejection::Unsatisfiable),
                    }
                } else {
                    return Err(InsertRejection::Unsatisfiable);
                }
            }
        }
    };

    // ---- Phase 4: decode ∆R. ----
    let mut fresh_counter = 0usize;
    let mut fresh_values: HashMap<usize, Value> = HashMap::new();
    let mut delta_r = GroupUpdate::new();
    let template_list: Vec<Template> = templates.into_values().collect();
    for t in &template_list {
        let mut cells = Vec::with_capacity(t.cells.len());
        for s in &t.cells {
            let value = match vars.resolve(s) {
                Sym::Known(v) => v,
                Sym::Var(r) => {
                    if let Some(v) = fresh_values.get(&r) {
                        v.clone()
                    } else {
                        let v = decode_var(&mut vars, r, model.as_ref(), &prop, &mut fresh_counter);
                        fresh_values.insert(r, v.clone());
                        v
                    }
                }
            };
            cells.push(value);
        }
        delta_r.insert(t.table.clone(), Tuple::from_values(cells));
    }

    Ok(InsertTranslation { delta_r, sat_used })
}

fn decode_var(
    vars: &mut Vars,
    r: usize,
    model: Option<&rxview_satsolver::Assignment>,
    prop: &BTreeMap<(usize, Value), PropVar>,
    fresh_counter: &mut usize,
) -> Value {
    if vars.is_finite(r) {
        let domain = vars.domain_values(r);
        if let Some(m) = model {
            for c in &domain {
                if let Some(p) = prop.get(&(r, c.clone())) {
                    if m.get(*p) {
                        return c.clone();
                    }
                }
            }
        }
        // Unconstrained finite variable: any domain value works.
        domain.into_iter().next().expect("finite domain non-empty")
    } else {
        *fresh_counter += 1;
        match vars.ty[r] {
            ValueType::Str => Value::from(format!("__rx_fresh_{fresh_counter}")),
            // Far outside any realistic active domain.
            ValueType::Int => Value::Int(i64::MAX / 2 + *fresh_counter as i64),
            ValueType::Bool => Value::Bool(true),
        }
    }
}

/// The resolved equality closure of one inserted edge's rule query: for
/// every flat column of the query's FROM entries, its equality-class
/// representative (union-find over `Col = Col` predicates, fully resolved),
/// and the constant each class is pinned to by the child attribute
/// (projection), the parent attribute (parameters), and constant
/// predicates. Shared by template derivation and by footprint planning
/// (`edge_template_keys`).
///
/// The closure depends only on the grammar, the table *schemas*, and the
/// two attribute tuples — never on table contents — so its *structure*
/// (offsets, representatives, value sources) compiles once per production
/// edge into a `template::EdgeTemplate`; instantiating the
/// template with the literal attribute tuples
/// ([`TranslationTemplates::instantiate_insert`]) is how the translation
/// gets this struct, and reproduces exactly what the interpretive
/// `rxview_reference::compute_edge_closure` derives.
#[derive(Debug, PartialEq)]
pub struct EdgeClosure {
    /// The equality classes of the rule query's columns.
    pub(crate) classes: EqClosure,
    /// Pinned value per class representative.
    pub(crate) known: HashMap<usize, Value>,
}

impl EdgeClosure {
    /// The equality classes of the rule query's columns.
    pub fn classes(&self) -> &EqClosure {
        &self.classes
    }

    /// Pinned value per class representative.
    pub fn known(&self) -> &HashMap<usize, Value> {
        &self.known
    }

    /// The value pinning column `c`'s class, if any.
    pub(crate) fn known_at(&self, c: ColRef) -> Option<&Value> {
        self.known.get(&self.classes.rep(c))
    }
}

/// A closure plus the schemas of its FROM entries (borrowed from `base`,
/// looked up per call).
struct EdgeBinding<'a> {
    schemas: Vec<&'a TableSchema>,
    closure: EdgeClosure,
}

fn edge_binding<'a>(
    base: &'a Database,
    templates: &TranslationTemplates,
    edge: (TypeId, TypeId),
    query: &SpjQuery,
    parent_attr: &Tuple,
    child_attr: &Tuple,
) -> Result<EdgeBinding<'a>, InsertRejection> {
    let mut schemas: Vec<&TableSchema> = Vec::with_capacity(query.from().len());
    for tr in query.from() {
        schemas.push(
            base.table(&tr.table)
                .map_err(InsertRejection::Rel)?
                .schema(),
        );
    }
    let closure = templates.instantiate_insert(edge, parent_attr, child_attr)?;
    Ok(EdgeBinding { schemas, closure })
}

/// The ground primary key of every base row the rule query's templates
/// would touch for one inserted edge — derivable *without evaluating or
/// applying anything* because the rule queries are key-preserving (§4.1:
/// every key column sits in an equality class pinned by the output, a
/// parameter, or a constant). This is the planned base-write footprint of
/// the edge; the realized `∆R` (after unification, existing-row dropping,
/// and SAT instantiation) only ever writes a subset of these keys.
///
/// `edge` is the `(parent type, child type)` production edge whose rule
/// query is `query`: the planner's dry run instantiates the same compiled
/// skeleton the real translation of the edge instantiates moments later.
pub(crate) fn edge_template_keys(
    base: &Database,
    templates: &TranslationTemplates,
    edge: (TypeId, TypeId),
    query: &SpjQuery,
    parent_attr: &Tuple,
    child_attr: &Tuple,
) -> Result<Vec<(String, Tuple)>, InsertRejection> {
    let b = edge_binding(base, templates, edge, query, parent_attr, child_attr)?;
    let mut out = Vec::with_capacity(query.from().len());
    for (rel, tr) in query.from().iter().enumerate() {
        let mut key_vals = Vec::with_capacity(b.schemas[rel].key().len());
        for &col in b.schemas[rel].key() {
            match b.closure.known_at(ColRef { rel, col }) {
                Some(v) => key_vals.push(v.clone()),
                None => {
                    return Err(InsertRejection::Rel(RelError::NotKeyPreserving {
                        query: query.name().to_owned(),
                    }))
                }
            }
        }
        out.push((tr.table.clone(), Tuple::from_values(key_vals)));
    }
    Ok(out)
}

/// Derives the per-table templates for one inserted edge using the equality
/// closure of the rule query with `$parent` bound to `params` and the output
/// bound to `child`.
#[allow(clippy::too_many_arguments)]
fn derive_templates(
    base: &Database,
    compiled: &TranslationTemplates,
    edge: (TypeId, TypeId),
    query: &SpjQuery,
    parent_attr: &Tuple,
    child_attr: &Tuple,
    vars: &mut Vars,
    templates: &mut BTreeMap<(String, Tuple), Template>,
) -> Result<(), InsertRejection> {
    let binding = edge_binding(base, compiled, edge, query, parent_attr, child_attr)?;
    // Variables per undetermined class.
    let mut class_var: HashMap<usize, usize> = HashMap::new();
    for (rel, tr) in query.from().iter().enumerate() {
        let schema = binding.schemas[rel];
        let mut cells = Vec::with_capacity(schema.arity());
        for col in 0..schema.arity() {
            let r = binding.closure.classes.rep(ColRef { rel, col });
            match binding.closure.known.get(&r) {
                Some(v) => cells.push(Sym::Known(v.clone())),
                None => {
                    let vid = *class_var.entry(r).or_insert_with(|| {
                        vars.fresh(
                            schema.columns()[col].ty,
                            schema.columns()[col].domain.clone(),
                        )
                    });
                    cells.push(Sym::Var(vid));
                }
            }
        }
        // Key must be ground (key preservation).
        let key_vals: Vec<Value> = schema
            .key()
            .iter()
            .map(|&k| match &cells[k] {
                Sym::Known(v) => v.clone(),
                Sym::Var(_) => unreachable!("key preservation guarantees ground keys"),
            })
            .collect();
        let key = Tuple::from_values(key_vals);
        let table: &Table = base.table(&tr.table).map_err(InsertRejection::Rel)?;
        if let Some(existing) = table.get(&key) {
            // The tuple already exists: constants must agree; variables
            // unify with the existing values.
            for (i, cell) in cells.iter().enumerate() {
                match cell {
                    Sym::Known(v) => {
                        if existing[i] != *v {
                            return Err(InsertRejection::KeyConflict {
                                table: tr.table.clone(),
                            });
                        }
                    }
                    Sym::Var(vid) => {
                        vars.bind(*vid, existing[i].clone()).map_err(|_| {
                            InsertRejection::KeyConflict {
                                table: tr.table.clone(),
                            }
                        })?;
                    }
                }
            }
            continue;
        }
        // Merge with a pending template of the same key.
        match templates.get_mut(&(tr.table.clone(), key.clone())) {
            None => {
                templates.insert(
                    (tr.table.clone(), key),
                    Template {
                        table: tr.table.clone(),
                        cells,
                    },
                );
            }
            Some(existing) => {
                for (i, cell) in cells.into_iter().enumerate() {
                    match (&existing.cells[i], cell) {
                        (Sym::Known(a), Sym::Known(b)) => {
                            if *a != b {
                                return Err(InsertRejection::KeyConflict {
                                    table: tr.table.clone(),
                                });
                            }
                        }
                        (Sym::Known(a), Sym::Var(v)) => {
                            let a = a.clone();
                            vars.bind(v, a).map_err(|_| InsertRejection::KeyConflict {
                                table: tr.table.clone(),
                            })?;
                        }
                        (Sym::Var(v), Sym::Known(b)) => {
                            let v = *v;
                            vars.bind(v, b).map_err(|_| InsertRejection::KeyConflict {
                                table: tr.table.clone(),
                            })?;
                        }
                        (Sym::Var(a), Sym::Var(b)) => {
                            let a = *a;
                            vars.union(a, b).map_err(|_| InsertRejection::KeyConflict {
                                table: tr.table.clone(),
                            })?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// What phase 2 joins every edge view against: the phase-1 templates per
/// table, and the edges `∆V` asks for (a produced edge among them, or
/// already in the view, is no side effect).
struct SideEffects<'a> {
    vs: &'a ViewStore,
    by_table: BTreeMap<&'a str, Vec<&'a Template>>,
    wanted: BTreeSet<(NodeId, NodeId)>,
}

/// One edge view as phase 2 joins it.
struct JoinView<'a> {
    q: &'a SpjQuery,
    edge: (TypeId, TypeId),
    classes: &'a ViewClasses,
    /// The live table of every FROM entry (entry 0: the maintained gen
    /// table of the parent type).
    tables: Vec<&'a Table>,
    /// The fresh nodes' rows of entry 0's gen table, in key order.
    fresh: &'a [Tuple],
}

/// One row in the symbolic join.
#[derive(Debug, Clone)]
struct SymRow {
    cells: Vec<Sym>,
    conds: Vec<Cond>,
}

/// Symbolically evaluates one edge view over `I ∪ templates` for one
/// combination — the FROM entries marked in `as_template` read the phase-1
/// templates, every other entry its live table — and classifies the
/// produced rows: harmless, a SAT clause, or an unavoidable side effect.
fn eval_combination(
    side: &SideEffects<'_>,
    view: &JoinView<'_>,
    as_template: &[bool],
    vars: &mut Vars,
    clauses: &mut Vec<Vec<Cond>>,
) -> Result<(), InsertRejection> {
    let q = view.q;
    let n_from = q.from().len();
    let schemas: Vec<&TableSchema> = view.tables.iter().map(|t| t.schema()).collect();
    // The equality classes let the join order see bindings like
    // `gen.c1 ~ c.c1 ~ f.c1 ~ h.h1 = <const>` that the direct predicate
    // graph only exposes one hop at a time.
    let offsets = &view.classes.closure.offsets;
    let root_of = &view.classes.closure.reps;
    let class_const = &view.classes.consts;
    let total = root_of.len();
    let idx = |c: ColRef| view.classes.closure.flat(c);

    // Greedy join order: templates first (most selective); then repeatedly
    // the entry whose primary-key prefix is best bound — through the
    // equality closure — to placed entries or constants (index lookups
    // instead of full scans). Ties prefer entries with *some* bound column
    // (their scan filters rows immediately), then smaller tables.
    let table_len = |e: usize| match as_template[e] {
        true => 0,
        false => view.tables[e].len(),
    };
    let mut order: Vec<usize> = (0..n_from).filter(|&i| as_template[i]).collect();
    let mut placed: Vec<bool> = as_template.to_vec();
    while order.len() < n_from {
        let mut bound: Vec<bool> = class_const.iter().map(Option::is_some).collect();
        for e in (0..n_from).filter(|&e| placed[e]) {
            for c in 0..schemas[e].arity() {
                bound[root_of[offsets[e] + c]] = true;
            }
        }
        // (key-prefix score, has any bound column, smaller table) — best wins.
        type Rank = (usize, bool, std::cmp::Reverse<usize>);
        let mut best: Option<(Rank, usize)> = None;
        for e in (0..n_from).filter(|&e| !placed[e]) {
            let is_bound = |c: &usize| bound[root_of[offsets[e] + c]];
            let score = schemas[e].key().iter().take_while(|c| is_bound(c)).count();
            let any_bound = (0..schemas[e].arity()).any(|c| is_bound(&c));
            let rank = (score, any_bound, std::cmp::Reverse(table_len(e)));
            if best.is_none_or(|(br, _)| rank > br) {
                best = Some((rank, e));
            }
        }
        let (_, e) = best.expect("an unplaced entry exists");
        placed[e] = true;
        order.push(e);
    }

    let mut rows: Vec<SymRow> = vec![SymRow {
        cells: vec![Sym::Known(Value::Int(0)); total],
        conds: vec![],
    }];
    let mut filled = vec![false; total];

    for &entry in &order {
        let tr = &q.from()[entry];
        let arity = schemas[entry].arity();
        // Predicates that become fully bound once this entry fills.
        let mut now_applicable: Vec<usize> = Vec::new();
        for (pi, p) in q.predicates().iter().enumerate() {
            let cols: Vec<ColRef> = [&p.left, &p.right]
                .iter()
                .filter_map(|o| match o {
                    Operand::Col(c) => Some(*c),
                    _ => None,
                })
                .collect();
            let touches = cols.iter().any(|c| c.rel == entry);
            let all_bound = cols.iter().all(|c| c.rel == entry || filled[idx(*c)]);
            if touches && all_bound {
                now_applicable.push(pi);
            }
        }
        // For concrete entries: per-row ground constraints covering a key
        // prefix give an index scan.
        enum KeySrc {
            Const(Value),
            Abs(usize),
        }
        let key_srcs: Vec<KeySrc> = if as_template[entry] {
            Vec::new()
        } else {
            // Bind each key column through its equality class: a class
            // constant, or any already-filled column of the class.
            let mut srcs = Vec::new();
            'kc: for &kc in schemas[entry].key() {
                let r = root_of[offsets[entry] + kc];
                if let Some(v) = &class_const[r] {
                    srcs.push(KeySrc::Const(v.clone()));
                    continue 'kc;
                }
                for g in 0..total {
                    if filled[g] && root_of[g] == r {
                        srcs.push(KeySrc::Abs(g));
                        continue 'kc;
                    }
                }
                break;
            }
            srcs
        };
        // No key-prefix binding: any other bound column still gives a
        // secondary-index probe (`Table::scan_col_eq`) instead of a full
        // scan — e.g. probing `H` by `h2` when the template binds the
        // child's id but the parent is unknown.
        let alt_src: Option<(usize, KeySrc)> = if as_template[entry] || !key_srcs.is_empty() {
            None
        } else {
            (0..arity).find_map(|c| {
                let r = root_of[offsets[entry] + c];
                if let Some(v) = &class_const[r] {
                    return Some((c, KeySrc::Const(v.clone())));
                }
                (0..total)
                    .find(|&g| filled[g] && root_of[g] == r)
                    .map(|g| (c, KeySrc::Abs(g)))
            })
        };
        // The fresh gen rows read after the maintained gen table's (their
        // keys are disjoint from it).
        let fresh: &[Tuple] = if entry == 0 { view.fresh } else { &[] };

        enum Cand<'a> {
            Template(Vec<Sym>),
            Concrete(&'a Tuple),
        }
        let mut next: Vec<SymRow> = Vec::new();
        for row in &rows {
            // Indexed-path inputs (concrete entries): every key-prefix
            // source must be *ground* for this row.
            let mut prefix: Vec<Value> = Vec::with_capacity(key_srcs.len());
            let mut ground = true;
            if !as_template[entry] {
                for ks in &key_srcs {
                    match ks {
                        KeySrc::Const(v) => prefix.push(v.clone()),
                        KeySrc::Abs(a) => match vars.resolve(&row.cells[*a]) {
                            Sym::Known(v) => prefix.push(v),
                            Sym::Var(_) => {
                                ground = false;
                                break;
                            }
                        },
                    }
                }
            }
            // Candidates for this row.
            let candidates: Vec<Cand<'_>> = if as_template[entry] {
                side.by_table[tr.table.as_str()]
                    .iter()
                    .map(|t| Cand::Template(t.cells.iter().map(|s| vars.resolve(s)).collect()))
                    .collect()
            } else {
                let table = view.tables[entry];
                // Secondary-index value for this row, if the prefix path is
                // unavailable but some column is bound.
                let alt: Option<(usize, Value)> = if ground && !prefix.is_empty() {
                    None
                } else {
                    match &alt_src {
                        Some((c, KeySrc::Const(v))) => Some((*c, v.clone())),
                        Some((c, KeySrc::Abs(g))) => match vars.resolve(&row.cells[*g]) {
                            Sym::Known(v) => Some((*c, v)),
                            Sym::Var(_) => None,
                        },
                        None => None,
                    }
                };
                let found: Vec<&Tuple> = if ground && !prefix.is_empty() {
                    let fresh = fresh
                        .iter()
                        .filter(|t| t.values()[..prefix.len()] == prefix[..]);
                    table.scan_key_prefix(&prefix).chain(fresh).collect()
                } else if let Some((c, v)) = &alt {
                    let mut found = table.scan_col_eq(*c, v);
                    found.extend(fresh.iter().filter(|t| t[*c] == *v));
                    found
                } else {
                    table.iter().chain(fresh).collect()
                };
                found.into_iter().map(Cand::Concrete).collect()
            };
            'cand: for cand in candidates {
                // Clone-free ground rejection: a concrete candidate whose
                // fully-known applicable predicates mismatch is dropped
                // before the joined row is materialized — this is the whole
                // cost of a scan that proves a side effect *cannot* occur.
                if let Cand::Concrete(t) = &cand {
                    for &pi in &now_applicable {
                        let p = &q.predicates()[pi];
                        let known = |o: &Operand, vars: &mut Vars| -> Option<Value> {
                            match o {
                                Operand::Const(v) => Some(v.clone()),
                                Operand::Param(_) => None,
                                Operand::Col(c) if c.rel == entry => Some(t[c.col].clone()),
                                Operand::Col(c) => match vars.resolve(&row.cells[idx(*c)]) {
                                    Sym::Known(v) => Some(v),
                                    Sym::Var(_) => None,
                                },
                            }
                        };
                        if let (Some(x), Some(y)) = (known(&p.left, vars), known(&p.right, vars)) {
                            if x != y {
                                continue 'cand;
                            }
                        }
                    }
                }
                let cand: Vec<Sym> = match cand {
                    Cand::Template(cells) => cells,
                    Cand::Concrete(t) => t.values().iter().map(|v| Sym::Known(v.clone())).collect(),
                };
                let mut new_row = row.clone();
                new_row.cells[offsets[entry]..offsets[entry] + arity].clone_from_slice(&cand);
                for &pi in &now_applicable {
                    let p = &q.predicates()[pi];
                    let lv = operand_value(&p.left, &new_row, idx, vars);
                    let rv = operand_value(&p.right, &new_row, idx, vars);
                    match (lv, rv) {
                        (Sym::Known(x), Sym::Known(y)) => {
                            if x != y {
                                continue 'cand;
                            }
                        }
                        (Sym::Known(x), Sym::Var(v)) | (Sym::Var(v), Sym::Known(x)) => {
                            let dv = vars.domain_values(v);
                            if vars.is_finite(v) && !dv.contains(&x) {
                                continue 'cand;
                            }
                            new_row.conds.push(Cond::VarConst(v, x));
                        }
                        (Sym::Var(x), Sym::Var(y)) => {
                            if x != y {
                                new_row.conds.push(Cond::VarVar(x, y));
                            }
                        }
                    }
                }
                next.push(new_row);
            }
        }
        for col in 0..arity {
            filled[offsets[entry] + col] = true;
        }
        rows = next;
        if rows.is_empty() {
            return Ok(());
        }
    }

    // Classify produced rows.
    for row in rows {
        let out: Vec<Sym> = q
            .projection()
            .iter()
            .map(|c| match &row.cells[idx(*c)] {
                Sym::Known(v) => Sym::Known(v.clone()),
                Sym::Var(v) => vars.resolve(&Sym::Var(*v)),
            })
            .collect();
        let ground: Option<Tuple> = out
            .iter()
            .map(|s| match s {
                Sym::Known(v) => Some(v.clone()),
                Sym::Var(_) => None,
            })
            .collect::<Option<Vec<_>>>()
            .map(Tuple::from_values);
        let (a, b) = view.edge;
        let harmless = match &ground {
            Some(t) => match side.vs.edge_from_row(a, b, t) {
                Some(edge) => side.wanted.contains(&edge) || side.vs.dag().has_edge(edge.0, edge.1),
                None => false,
            },
            None => false,
        };
        if harmless {
            continue;
        }
        if row.conds.is_empty() {
            // Unconditional unintended view tuple.
            return Err(InsertRejection::SideEffect {
                view: q.name().to_owned(),
            });
        }
        clauses.push(row.conds);
    }
    Ok(())
}

fn operand_value(
    op: &Operand,
    row: &SymRow,
    idx: impl Fn(ColRef) -> usize,
    vars: &mut Vars,
) -> Sym {
    match op {
        Operand::Col(c) => vars.resolve(&row.cells[idx(*c)]),
        Operand::Const(v) => Sym::Known(v.clone()),
        Operand::Param(_) => unreachable!("edge views are parameter-free"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::eval_path;
    use crate::topo::TopoOrder;
    use crate::translate::xinsert;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::{tuple, TupleOp};
    use rxview_xmlkit::parse_xpath;

    fn fixture() -> (Database, ViewStore, TopoOrder) {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let vs = ViewStore::publish(atg, &db).unwrap();
        let topo = TopoOrder::compute(vs.dag());
        (db, vs, topo)
    }

    fn cfg() -> WalkSatConfig {
        WalkSatConfig {
            max_flips: 10_000,
            max_tries: 5,
            ..Default::default()
        }
    }

    #[test]
    fn insert_existing_course_as_prereq_yields_prereq_tuple() {
        let (db, mut vs, topo) = fixture();
        let p = parse_xpath("course[cno=CS650]/prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, st) = xinsert(
            &mut vs,
            &db,
            course,
            tuple!["CS240", "Data Structures"],
            &eval,
        )
        .unwrap();
        let tr = translate_insertions(&vs, &db, &delta, &st.fresh, &cfg()).unwrap();
        assert_eq!(tr.delta_r.len(), 1);
        assert_eq!(
            tr.delta_r.ops()[0],
            TupleOp::Insert {
                table: "prereq".into(),
                tuple: tuple!["CS650", "CS240"]
            }
        );
        assert!(!tr.sat_used);
    }

    #[test]
    fn round_trip_through_republication() {
        let (db, mut vs, topo) = fixture();
        let p = parse_xpath("course[cno=CS650]/prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, st) = xinsert(
            &mut vs,
            &db,
            course,
            tuple!["CS240", "Data Structures"],
            &eval,
        )
        .unwrap();
        let tr = translate_insertions(&vs, &db, &delta, &st.fresh, &cfg()).unwrap();
        let mut db2 = db.clone();
        db2.apply(&tr.delta_r).unwrap();
        // Republication oracle: σ(∆R(I)) has CS240 under CS650's prereq.
        let atg2 = registrar_atg(&db2).unwrap();
        let vs2 = ViewStore::publish(atg2, &db2).unwrap();
        let prereq = vs2.atg().dtd().type_id("prereq").unwrap();
        let course2 = vs2.atg().dtd().type_id("course").unwrap();
        let pr650 = vs2.dag().genid().lookup(prereq, &tuple!["CS650"]).unwrap();
        let cs240 = vs2
            .dag()
            .genid()
            .lookup(course2, &tuple!["CS240", "Data Structures"])
            .unwrap();
        assert!(vs2.dag().has_edge(pr650, cs240));
    }

    #[test]
    fn insert_student_creates_enroll_only() {
        let (db, mut vs, topo) = fixture();
        // Alice (S01) starts taking CS320.
        let p = parse_xpath("course[cno=CS320]/takenBy").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let student = vs.atg().dtd().type_id("student").unwrap();
        let (delta, st) = xinsert(&mut vs, &db, student, tuple!["S01", "Alice"], &eval).unwrap();
        let tr = translate_insertions(&vs, &db, &delta, &st.fresh, &cfg()).unwrap();
        assert_eq!(tr.delta_r.len(), 1);
        assert_eq!(
            tr.delta_r.ops()[0],
            TupleOp::Insert {
                table: "enroll".into(),
                tuple: tuple!["S01", "CS320"]
            }
        );
    }

    #[test]
    fn insert_unknown_student_fills_free_columns() {
        let (db, mut vs, topo) = fixture();
        // A brand-new student S99/Zed taking CS320: needs a student tuple
        // (fully determined) and an enroll tuple.
        let p = parse_xpath("course[cno=CS320]/takenBy").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let student = vs.atg().dtd().type_id("student").unwrap();
        let (delta, st) = xinsert(&mut vs, &db, student, tuple!["S99", "Zed"], &eval).unwrap();
        let tr = translate_insertions(&vs, &db, &delta, &st.fresh, &cfg()).unwrap();
        let tables: BTreeSet<&str> = tr.delta_r.ops().iter().map(|o| o.table()).collect();
        assert!(tables.contains("student"));
        assert!(tables.contains("enroll"));
        // Oracle: republish and verify the view gained exactly this student.
        let mut db2 = db.clone();
        db2.apply(&tr.delta_r).unwrap();
        let atg2 = registrar_atg(&db2).unwrap();
        let vs2 = ViewStore::publish(atg2, &db2).unwrap();
        let takenby = vs2.atg().dtd().type_id("takenBy").unwrap();
        let tb320 = vs2.dag().genid().lookup(takenby, &tuple!["CS320"]).unwrap();
        let student2 = vs2.atg().dtd().type_id("student").unwrap();
        let s99 = vs2
            .dag()
            .genid()
            .lookup(student2, &tuple!["S99", "Zed"])
            .unwrap();
        assert!(vs2.dag().has_edge(tb320, s99));
    }

    #[test]
    fn side_effect_free_insertion_detected() {
        // Inserting a *new non-CS course* under db's course list is
        // impossible without a side effect... actually dept must be "CS"
        // for Qdb_course; the dept column is free and gets pinned by the
        // selection predicate — inserting course CS777 works with dept=CS.
        let (db, mut vs, topo) = fixture();
        // Target: the root's course list is not reachable by an XPath with
        // steps (db is the root context itself): use //prereq for multiple
        // targets instead.
        let p = parse_xpath("course[cno=CS650]/prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, st) = xinsert(&mut vs, &db, course, tuple!["CS777", "Seminar"], &eval).unwrap();
        let tr = translate_insertions(&vs, &db, &delta, &st.fresh, &cfg()).unwrap();
        let mut db2 = db.clone();
        db2.apply(&tr.delta_r).unwrap();
        // The new course tuple must carry dept=CS — otherwise Qdb_course
        // would not republish it... note: dept=CS *creates* a db→CS777 edge
        // (the top-level course list shows every CS course). That edge is a
        // *side effect* of making CS777 a CS course. The encoder must have
        // pinned dept: check what it chose.
        let course_row = db2.table("course").unwrap().get(&tuple!["CS777"]).unwrap();
        // dept is a free infinite-domain column; the fresh constant avoids
        // the db→course side effect (CS777 will NOT appear top-level).
        assert_ne!(course_row[2], Value::from("CS"));
    }

    #[test]
    fn conflicting_attribute_rejected() {
        let (db, mut vs, topo) = fixture();
        // Insert "CS240" with a *different title* than the stored course:
        // the course table has (CS240, Data Structures); the edge demands
        // (CS240, Wrong Title) — key conflict.
        let p = parse_xpath("course[cno=CS650]/prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, st) = xinsert(&mut vs, &db, course, tuple!["CS240", "Wrong"], &eval).unwrap();
        let err = translate_insertions(&vs, &db, &delta, &st.fresh, &cfg()).unwrap_err();
        assert!(matches!(err, InsertRejection::KeyConflict { .. }));
    }

    #[test]
    fn duplicate_edge_insertions_unify_templates() {
        // Two targets demand the same new course CS777: templates for
        // course(CS777) from both derivations must unify into one insert.
        let (db, mut vs, topo) = fixture();
        let p = parse_xpath("//prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        assert!(eval.selected.len() >= 3);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, st) = xinsert(&mut vs, &db, course, tuple!["CS777", "Seminar"], &eval).unwrap();
        let tr = translate_insertions(&vs, &db, &delta, &st.fresh, &cfg()).unwrap();
        let course_inserts = tr
            .delta_r
            .ops()
            .iter()
            .filter(|o| o.table() == "course")
            .count();
        assert_eq!(course_inserts, 1, "course template must be unified");
        // One prereq tuple per target.
        let prereq_inserts = tr
            .delta_r
            .ops()
            .iter()
            .filter(|o| o.table() == "prereq")
            .count();
        assert_eq!(prereq_inserts, eval.selected.len());
    }

    #[test]
    fn free_infinite_columns_get_fresh_values() {
        // Inserting a new course: its dept column is free; the decode must
        // choose a value that does NOT create a db→course side effect
        // (i.e. anything but "CS").
        let (db, mut vs, topo) = fixture();
        let p = parse_xpath("course[cno=CS320]/prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, st) = xinsert(&mut vs, &db, course, tuple!["CS888", "Lab"], &eval).unwrap();
        let tr = translate_insertions(&vs, &db, &delta, &st.fresh, &cfg()).unwrap();
        let course_row = tr
            .delta_r
            .ops()
            .iter()
            .find_map(|o| match o {
                rxview_relstore::TupleOp::Insert { table, tuple } if table == "course" => {
                    Some(tuple.clone())
                }
                _ => None,
            })
            .expect("course template");
        assert_ne!(course_row[2], rxview_relstore::Value::from("CS"));
        // Applying ∆R republished leaves exactly the requested change.
        let mut db2 = db.clone();
        db2.apply(&tr.delta_r).unwrap();
        let atg2 = registrar_atg(&db2).unwrap();
        let vs2 = ViewStore::publish(atg2, &db2).unwrap();
        // CS888 appears under CS320's prereq but NOT top-level.
        let dbty = vs2.atg().dtd().root();
        let c888 = vs2
            .dag()
            .genid()
            .lookup(course, &tuple!["CS888", "Lab"])
            .expect("published under prereq");
        assert!(!vs2.dag().children(vs2.dag().root()).contains(&c888));
        let _ = dbty;
    }

    #[test]
    fn empty_delta_translates_to_empty() {
        let (db, vs, _topo) = fixture();
        let delta = ViewDelta::default();
        let tr = translate_insertions(&vs, &db, &delta, &[], &cfg()).unwrap();
        assert!(tr.delta_r.is_empty());
    }
}
