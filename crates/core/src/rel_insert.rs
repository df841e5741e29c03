//! Algorithm **insert** (§4.3, Appendix A): translating group view
//! insertions `∆V` to base-table insertions `∆R` via SAT.
//!
//! Insertion updatability is NP-complete even under key preservation
//! (Theorem 2), so the algorithm is a heuristic:
//!
//! 1. **Tuple templates.** For every inserted edge, its edge view
//!    determines — through the equality closure of its predicates, the
//!    rule's guards on its parameters included — a tuple template for each
//!    base relation: key fields are always known (key preservation), other
//!    fields are constants or fresh *variables*. An edge the view cannot
//!    hold (two pins of one class disagree on its row) is rejected.
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
//!    clause. A `Bool` variable is finite, `{true, false}`, whatever its
//!    column declares. The fresh nodes join through their `gen_A` tables, which
//!    they entered when `Xinsert` interned them.
//! 3. **SAT.** Finite-domain variables are encoded as `x = c` propositions
//!    with domain and mutual-exclusion clauses; the formula goes to WalkSAT
//!    (the paper's solver \[30\], at fixed noise, flip budget and seed),
//!    with a complete DPLL fallback on instances of at most 24 propositions.
//!    The formula is canonical — variables numbered by first occurrence in
//!    the templates, literals and clauses sorted and deduplicated — so `∆R`
//!    is a function of the clause set, not of the order the join found it.
//! 4. **Decode `∆R`.** Templates are instantiated from the model; unpinned
//!    infinite-domain variables get fresh constants (Theorem 4's
//!    construction), numbered from 1 in every translation and skipping
//!    every constant, and every value of a finite variable, that their
//!    variable was compared with in a skipped condition — the values the
//!    join read, which may include an earlier translation's fresh ones.
//!
//! The translation compiles nothing per call. Both phases read their
//! edge's record in the [`TranslationTemplates`](crate::TranslationTemplates)
//! registry: phase 1 the edge view's cell program
//! ([`EdgeRecord::cells`]; the interpretive
//! `rxview_reference::compute_edge_closure` is the reference it is tested
//! against), phase 2 one [`SpjPlan`] per (edge view, set of FROM entries
//! read from the templates), compiled by the relstore's one planner with
//! those entries placed first. Phase 2 walks that plan's steps over
//! symbolic rows ([`SymJoin`]); what it still does per call is read the
//! tables, each resolved once from the registry's number that templates
//! carry beside their key.

use crate::template::{EdgeCell, EdgeRecord};
use crate::update::ViewDelta;
use crate::viewstore::ViewStore;
use rxview_atg::{NodeId, RuleBody};
use rxview_relstore::{
    Database, Domain, GroupUpdate, PlanAccess, PlanSrc, PlanStep, Probe, RelError, RowSource,
    SpjPlan, Table, Tuple, Value, ValueType,
};
use rxview_satsolver::{dpll, walksat, CnfFormula, DpllResult, Lit, Var as PropVar, WalkSatResult};
use rxview_xmlkit::TypeId;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
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
        // A `Bool` ranges over two values, whatever its column declares: no
        // fresh constant can avoid both.
        let domain = match (ty, domain) {
            (ValueType::Bool, Domain::Infinite) => {
                Domain::Finite(vec![Value::Bool(true), Value::Bool(false)])
            }
            (_, domain) => domain,
        };
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

/// A pending base-table insertion with possibly-symbolic cells, its table
/// numbered by the registry.
#[derive(Debug, Clone)]
struct Template {
    table: usize,
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
/// The nodes `Xinsert` interned for the new subtree are in their `gen_A`
/// tables already, so side-effect detection joins them as parents of view
/// edges like every live node.
pub(crate) fn translate_insertions(
    vs: &ViewStore,
    base: &Database,
    delta: &ViewDelta,
) -> Result<InsertTranslation, InsertRejection> {
    let atg = vs.atg();
    let mut vars = Vars::default();
    let compiled = vs.templates();
    let names = compiled.tables();
    // Per table number, the table, resolved once.
    let tables = names.iter().map(|name| base.table(name));
    let tables: Vec<&Table> = tables.collect::<Result<_, _>>()?;

    // ---- Phase 1: derive and unify tuple templates, per (table, key). ----
    let mut templates: BTreeMap<(usize, Tuple), Vec<Sym>> = BTreeMap::new();
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
            Some(RuleBody::Query { .. }) => {
                derive_templates(
                    &tables,
                    names,
                    compiled.edge((a, b)).expect("a rule's edge has a record"),
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
    // Phase 2 binds no variable, so each cell resolves once. The templates
    // are in (table, key) order, the tables numbered in name order.
    let templates: Vec<Template> = templates
        .into_iter()
        .map(|((table, _), cells)| Template {
            table,
            cells: cells.iter().map(|s| vars.resolve(s)).collect(),
        })
        .collect();
    let of_table: Vec<&[Template]> = (0..names.len())
        .map(|n| {
            let lo = templates.partition_point(|t| t.table < n);
            &templates[lo..templates.partition_point(|t| t.table <= n)]
        })
        .collect();
    let wanted: BTreeSet<(NodeId, NodeId)> = delta.inserts.iter().copied().collect();
    let mut clauses: Vec<Vec<Cond>> = Vec::new(); // each to be negated
    for (edge, record) in compiled.edges() {
        // Bit `i - 1` is entry `i`, read from its templates; entry 0 is the
        // maintained gen table, never a template.
        let slots = (record.tables().enumerate())
            .filter(|&(_, n)| !of_table[n].is_empty())
            .fold(0usize, |slots, (i, _)| slots | 1 << i);
        if slots == 0 {
            continue;
        }
        // Every non-empty subset of the template slots, in increasing order.
        let mut mask = 0usize;
        loop {
            mask = mask.wrapping_sub(slots) & slots;
            if mask == 0 {
                break;
            }
            let plan = record.side_effect_plan(mask);
            SymJoin {
                plan,
                record,
                gen: vs.dag().genid().table(edge.0),
                tables: &tables,
                templates: &of_table,
                mask: mask << 1,
                vars: &vars,
                bound: vec![Cell::new(None); plan.steps().len()],
                vs,
                wanted: &wanted,
                edge,
            }
            .run(&mut clauses)?;
        }
    }

    // ---- Phase 3: SAT encoding and solving. ----
    let finite = |v: usize| matches!(vars.domain[v], Domain::Finite(_));
    let mut pending: Vec<Vec<(usize, &Value)>> = Vec::new();
    let mut used_vars: BTreeSet<usize> = BTreeSet::new();
    // Per infinite-domain variable, the values its fresh constant avoids.
    let mut avoid: HashMap<usize, Vec<Value>> = HashMap::new();
    for conds in &clauses {
        // A condition on an infinite-domain variable is avoided by a fresh
        // constant (two fresh constants differ), wherever it sits: one that
        // differs from the constant, or from every value of the finite
        // variable, it is compared with.
        let avoidable = |c: &Cond| match *c {
            Cond::VarConst(v, _) => !finite(v),
            Cond::VarVar(x, y) => !finite(x) || !finite(y),
        };
        if conds.iter().any(avoidable) {
            for c in conds {
                match c {
                    Cond::VarConst(v, val) if !finite(*v) => {
                        avoid.entry(*v).or_default().push(val.clone());
                    }
                    &Cond::VarVar(x, y) => {
                        for (x, y) in [(x, y), (y, x)] {
                            if let (false, Domain::Finite(values)) = (finite(x), &vars.domain[y]) {
                                avoid.entry(x).or_default().extend(values.iter().cloned());
                            }
                        }
                    }
                    Cond::VarConst(..) => {}
                }
            }
            continue;
        }
        let atoms = conds.iter().map(|c| match c {
            Cond::VarConst(v, val) => Some((*v, val)),
            Cond::VarVar(..) => None,
        });
        let atoms: Vec<_> = atoms
            .collect::<Option<_>>()
            .ok_or(InsertRejection::UnsupportedCondition)?;
        used_vars.extend(atoms.iter().map(|&(v, _)| v));
        pending.push(atoms);
    }
    // Propositions per used variable, in the order the variables first
    // occur in the templates, one per domain value in domain order.
    let mut formula = CnfFormula::new();
    let mut prop: BTreeMap<(usize, Value), PropVar> = BTreeMap::new();
    for t in &templates {
        for s in &t.cells {
            let Sym::Var(v) = *s else { continue };
            if !used_vars.remove(&v) {
                continue;
            }
            let vals = vars.domain_values(v);
            let props: Vec<PropVar> = vals.iter().map(|_| formula.new_var()).collect();
            // Domain + exclusion clauses.
            formula.add_clause(props.iter().map(|p| p.pos()));
            for i in 0..props.len() {
                for j in i + 1..props.len() {
                    formula.add_not_both(props[i], props[j]);
                }
            }
            prop.extend(vals.into_iter().map(|val| (v, val)).zip(props));
        }
    }
    // Negated side-effect conditions, canonical: each clause's literals and
    // the clauses sorted and deduplicated. (Phase 2 keeps a row only if
    // each value is in its variable's domain, so each has a proposition.)
    let mut negated: Vec<Vec<Lit>> = pending
        .into_iter()
        .map(|atoms| {
            let mut lits: Vec<Lit> = atoms
                .into_iter()
                .map(|(v, val)| prop[&(v, val.clone())].neg())
                .collect();
            lits.sort_unstable();
            lits.dedup();
            lits
        })
        .collect();
    negated.sort_unstable();
    negated.dedup();
    for lits in negated {
        formula.add_clause(lits);
    }

    let mut sat_used = false;
    let model: Option<rxview_satsolver::Assignment> = if formula.clauses().is_empty() {
        None
    } else {
        sat_used = true;
        match walksat(&formula) {
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
    let mut fresh = 0usize;
    let mut fresh_values: HashMap<usize, Value> = HashMap::new();
    let mut delta_r = GroupUpdate::new();
    for t in templates {
        let mut cells = Vec::with_capacity(t.cells.len());
        for s in t.cells {
            let value = match s {
                Sym::Known(v) => v,
                Sym::Var(r) => {
                    if let Some(v) = fresh_values.get(&r) {
                        v.clone()
                    } else {
                        let avoid = avoid.get(&r).map_or(&[][..], Vec::as_slice);
                        let v = decode_var(&mut vars, r, model.as_ref(), &prop, avoid, &mut fresh);
                        fresh_values.insert(r, v.clone());
                        v
                    }
                }
            };
            cells.push(value);
        }
        delta_r.insert(names[t.table].as_str(), Tuple::from_values(cells));
    }

    Ok(InsertTranslation { delta_r, sat_used })
}
/// The value of variable `r`: its model value, any domain value when the
/// model leaves it free, or — for an infinite domain — the next fresh
/// constant not in `avoid`.
fn decode_var(
    vars: &mut Vars,
    r: usize,
    model: Option<&rxview_satsolver::Assignment>,
    prop: &BTreeMap<(usize, Value), PropVar>,
    avoid: &[Value],
    fresh: &mut usize,
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
        return domain.into_iter().next().expect("finite domain non-empty");
    }
    loop {
        *fresh += 1;
        let v = match vars.ty[r] {
            ValueType::Str => Value::from(format!("__rx_fresh_{fresh}")),
            // Far outside any realistic active domain.
            ValueType::Int => Value::Int(i64::MAX / 2 + *fresh as i64),
            ValueType::Bool => unreachable!("a Bool variable is finite"),
        };
        if !avoid.contains(&v) {
            return v;
        }
    }
}

/// Derives the templates of one inserted edge: the cells its record's cell
/// program reads off the edge row, a fresh variable per class the row
/// leaves open, each table numbered by the registry and resolved in
/// `tables`.
fn derive_templates(
    tables: &[&Table],
    names: &[String],
    record: &EdgeRecord,
    parent_attr: &Tuple,
    child_attr: &Tuple,
    vars: &mut Vars,
    templates: &mut BTreeMap<(usize, Tuple), Vec<Sym>>,
) -> Result<(), InsertRejection> {
    // The program numbers its open classes in the order it reads them, so
    // the `k`-th is new exactly when `k` variables were made for the edge.
    let first = vars.parent.len();
    for (n, entry) in record.cells(parent_attr.values(), child_attr.values())? {
        let schema = tables[n].schema();
        let cells: Vec<Sym> = entry
            .zip(schema.columns())
            .map(|(cell, column)| match cell {
                EdgeCell::Known(v) => Sym::Known(v.clone()),
                EdgeCell::Var(k) => {
                    if first + k == vars.parent.len() {
                        vars.fresh(column.ty, column.domain.clone());
                    }
                    Sym::Var(first + k)
                }
            })
            .collect();
        // Key must be ground (key preservation).
        let key = Tuple::from_values(schema.key().iter().map(|&k| match &cells[k] {
            Sym::Known(v) => v.clone(),
            Sym::Var(_) => unreachable!("key preservation guarantees ground keys"),
        }));
        let conflict = |()| InsertRejection::KeyConflict {
            table: names[n].clone(),
        };
        if let Some(existing) = tables[n].get(&key) {
            // The tuple already exists: constants must agree; variables
            // unify with the existing values.
            for (v, cell) in existing.values().iter().zip(cells) {
                unify(vars, &Sym::Known(v.clone()), cell).map_err(conflict)?;
            }
            continue;
        }
        // Merge with a pending template of the same key.
        match templates.entry((n, key)) {
            Entry::Vacant(slot) => {
                slot.insert(cells);
            }
            Entry::Occupied(slot) => {
                for (have, cell) in slot.get().iter().zip(cells) {
                    unify(vars, have, cell).map_err(conflict)?;
                }
            }
        }
    }
    Ok(())
}

/// Unifies a new template cell with the cell `have` an existing tuple or a
/// pending template holds at its column; `Err` when they cannot agree.
fn unify(vars: &mut Vars, have: &Sym, cell: Sym) -> Result<(), ()> {
    match (have, cell) {
        (Sym::Known(a), Sym::Known(b)) => (*a == b).then_some(()).ok_or(()),
        (Sym::Known(a), Sym::Var(v)) => vars.bind(v, a.clone()),
        (Sym::Var(v), Sym::Known(b)) => vars.bind(*v, b),
        (Sym::Var(a), Sym::Var(b)) => vars.union(*a, b),
    }
}

/// A cell as phase 2's join reads it: a value of a live row or a template,
/// or a template's (resolved) variable.
#[derive(Clone, Copy)]
enum SymRef<'a> {
    Known(&'a Value),
    Var(usize),
}

/// What a step of phase 2's join has bound: a live row or a template's
/// cells.
#[derive(Clone, Copy)]
enum Bound<'a> {
    Row(&'a Tuple),
    Template(&'a [Sym]),
}

/// Phase 2's join of one edge view, with the FROM entries in `mask` read
/// from the phase-1 templates and every other entry from its live table:
/// the registry's [`SpjPlan`] for that mask, its steps descended as the
/// relstore's own runs descend them, over symbolic rows. A template step
/// iterates its table's templates and tests its access path's equalities
/// and its checks; a live step probes its access path while the sources
/// are known (a key prefix as far as they are) and tests the rest. An
/// equality with a variable side becomes a condition of the row.
struct SymJoin<'a> {
    plan: &'a SpjPlan,
    /// The edge's record: its view and its base FROM entries' tables.
    record: &'a EdgeRecord,
    /// FROM entry 0's live table: the interner's gen table of the parent
    /// type.
    gen: &'a dyn RowSource,
    /// Per table number, its live table and its templates.
    tables: &'a [&'a Table],
    templates: &'a [&'a [Template]],
    /// The FROM entries read from their templates, as bit `entry`.
    mask: usize,
    vars: &'a Vars,
    /// Per step, what it has bound while the steps below it run.
    bound: Vec<Cell<Option<Bound<'a>>>>,
    vs: &'a ViewStore,
    /// The edges `∆V` asks for: a produced edge among them, or already in
    /// the view, is no side effect.
    wanted: &'a BTreeSet<(NodeId, NodeId)>,
    edge: (TypeId, TypeId),
}

/// The equalities of `step`'s access path, as `(column, source)` pairs.
fn access_eqs(step: &PlanStep) -> (&[usize], &[PlanSrc]) {
    match step.access() {
        PlanAccess::KeyPrefix(srcs) => (&step.key()[..srcs.len()], srcs),
        PlanAccess::ColEq(col, src) => (std::slice::from_ref(col), std::slice::from_ref(src)),
        PlanAccess::Scan => (&[], &[]),
    }
}

impl<'a> SymJoin<'a> {
    /// Joins, and classifies each produced row: harmless, a clause pushed
    /// on `clauses`, or an unavoidable side effect.
    fn run(&self, clauses: &mut Vec<Vec<Cond>>) -> Result<(), InsertRejection> {
        let mut conds = Vec::new();
        for (x, y) in self.plan.guards() {
            if !self.unify(self.value(x), self.value(y), &mut conds) {
                return Ok(());
            }
        }
        self.descend(0, &mut conds, clauses)
    }

    fn value(&self, src: &'a PlanSrc) -> SymRef<'a> {
        match src {
            PlanSrc::Const(v) => SymRef::Known(v),
            PlanSrc::Param(_) => unreachable!("edge views are parameter-free"),
            PlanSrc::Row { step, col } => self.cell(*step, *col),
        }
    }

    fn cell(&self, step: usize, col: usize) -> SymRef<'a> {
        match self.bound[step].get().expect("an earlier step is bound") {
            Bound::Row(row) => SymRef::Known(&row[col]),
            Bound::Template(cells) => match &cells[col] {
                Sym::Known(v) => SymRef::Known(v),
                Sym::Var(v) => SymRef::Var(*v),
            },
        }
    }

    /// Whether `x = y` can hold; the condition it rests on, if any, is
    /// pushed on `conds`.
    fn unify(&self, x: SymRef<'a>, y: SymRef<'a>, conds: &mut Vec<Cond>) -> bool {
        match (x, y) {
            (SymRef::Known(a), SymRef::Known(b)) => a == b,
            (SymRef::Known(c), SymRef::Var(v)) | (SymRef::Var(v), SymRef::Known(c)) => {
                let admits = self.vars.domain[v].contains(c);
                if admits {
                    conds.push(Cond::VarConst(v, c.clone()));
                }
                admits
            }
            (SymRef::Var(a), SymRef::Var(b)) => {
                if a != b {
                    conds.push(Cond::VarVar(a, b));
                }
                true
            }
        }
    }

    /// Binds every row or template step `at` admits, in turn, and joins the
    /// rest below.
    fn descend(
        &self,
        at: usize,
        conds: &mut Vec<Cond>,
        clauses: &mut Vec<Vec<Cond>>,
    ) -> Result<(), InsertRejection> {
        let Some(step) = self.plan.steps().get(at) else {
            return self.classify(conds, clauses);
        };
        let rel = step.rel();
        // Entry 0, the gen table, is never in the mask.
        if self.mask & 1 << rel != 0 {
            for t in self.templates[self.record.table(rel)] {
                self.bound[at].set(Some(Bound::Template(&t.cells)));
                self.admit(step, at, 0, conds, clauses)?;
            }
            return Ok(());
        }
        let (cols, srcs) = access_eqs(step);
        let known = srcs
            .iter()
            .take_while(|s| matches!(self.value(s), SymRef::Known(_)))
            .count();
        let ground = |src: &'a PlanSrc| match self.value(src) {
            SymRef::Known(v) => v,
            SymRef::Var(_) => unreachable!("a probe reads known sources only"),
        };
        let locate = |row: &Tuple| {
            cols[..known]
                .iter()
                .zip(srcs)
                .map(|(&kc, src)| row[kc].cmp(ground(src)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        let probe = match step.access() {
            _ if known == 0 => Probe::All,
            PlanAccess::KeyPrefix(_) => Probe::KeyRange(&locate),
            PlanAccess::ColEq(col, src) => Probe::ColEq(*col, ground(src)),
            PlanAccess::Scan => unreachable!("a scan has no sources"),
        };
        let table = match rel {
            0 => self.gen,
            _ => self.tables[self.record.table(rel)],
        };
        let mut result = Ok(());
        table.scan(probe, &mut |row| {
            if result.is_ok() {
                self.bound[at].set(Some(Bound::Row(row)));
                result = self.admit(step, at, known, conds, clauses);
            }
        });
        result
    }

    /// Tests what step `at` has bound — its access path's equalities past
    /// the first `probed`, which its probe implies, its checks and its
    /// same-row tests — and joins the steps below if they can hold.
    fn admit(
        &self,
        step: &'a PlanStep,
        at: usize,
        probed: usize,
        conds: &mut Vec<Cond>,
        clauses: &mut Vec<Vec<Cond>>,
    ) -> Result<(), InsertRejection> {
        let mark = conds.len();
        let (cols, srcs) = access_eqs(step);
        let checks = step.checks().iter().map(|(col, src)| (col, src));
        let holds = cols
            .iter()
            .zip(srcs)
            .skip(probed)
            .chain(checks)
            .all(|(&col, src)| self.unify(self.cell(at, col), self.value(src), conds))
            && step
                .same_row()
                .iter()
                .all(|&(a, b)| self.unify(self.cell(at, a), self.cell(at, b), conds));
        let result = match holds {
            true => self.descend(at + 1, conds, clauses),
            false => Ok(()),
        };
        conds.truncate(mark);
        result
    }

    /// A produced row: harmless when it is a wanted or existing edge, else
    /// a clause — or, with no condition, an unavoidable side effect.
    fn classify(
        &self,
        conds: &[Cond],
        clauses: &mut Vec<Vec<Cond>>,
    ) -> Result<(), InsertRejection> {
        let projection = self.plan.projection();
        let ground = projection
            .iter()
            .all(|&(s, c)| matches!(self.cell(s, c), SymRef::Known(_)));
        let harmless = ground && {
            let row = Tuple::from_values(projection.iter().map(|&(s, c)| match self.cell(s, c) {
                SymRef::Known(v) => v.clone(),
                SymRef::Var(_) => unreachable!("the row is ground"),
            }));
            let (a, b) = self.edge;
            self.vs
                .edge_from_row(a, b, row.values())
                .is_some_and(|e| self.wanted.contains(&e) || self.vs.dag().has_edge(e.0, e.1))
        };
        if harmless {
            return Ok(());
        }
        if conds.is_empty() {
            // Unconditional unintended view tuple.
            return Err(InsertRejection::SideEffect {
                view: self.record.view().name().to_owned(),
            });
        }
        clauses.push(conds.to_vec());
        Ok(())
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

    #[test]
    fn insert_existing_course_as_prereq_yields_prereq_tuple() {
        let (db, mut vs, topo) = fixture();
        let p = parse_xpath("course[cno=CS650]/prereq").unwrap();
        let eval = eval_path(&vs, &topo, &p);
        let course = vs.atg().dtd().type_id("course").unwrap();
        let (delta, _) = xinsert(
            &mut vs,
            &db,
            course,
            tuple!["CS240", "Data Structures"],
            &eval,
        )
        .unwrap();
        let tr = translate_insertions(&vs, &db, &delta).unwrap();
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
        let (delta, _) = xinsert(
            &mut vs,
            &db,
            course,
            tuple!["CS240", "Data Structures"],
            &eval,
        )
        .unwrap();
        let tr = translate_insertions(&vs, &db, &delta).unwrap();
        let mut db2 = db.clone();
        db2.apply(&tr.delta_r).unwrap();
        // Republication oracle: σ(∆R(I)) has CS240 under CS650's prereq.
        let atg2 = registrar_atg(&db2).unwrap();
        let vs2 = ViewStore::publish(atg2, &db2).unwrap();
        let prereq = vs2.atg().dtd().type_id("prereq").unwrap();
        let course2 = vs2.atg().dtd().type_id("course").unwrap();
        let pr650 = vs2
            .dag()
            .genid()
            .lookup(prereq, tuple!["CS650"].values())
            .unwrap();
        let cs240 = vs2
            .dag()
            .genid()
            .lookup(course2, tuple!["CS240", "Data Structures"].values())
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
        let (delta, _) = xinsert(&mut vs, &db, student, tuple!["S01", "Alice"], &eval).unwrap();
        let tr = translate_insertions(&vs, &db, &delta).unwrap();
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
        let (delta, _) = xinsert(&mut vs, &db, student, tuple!["S99", "Zed"], &eval).unwrap();
        let tr = translate_insertions(&vs, &db, &delta).unwrap();
        let tables: BTreeSet<&str> = tr.delta_r.ops().iter().map(|o| o.table()).collect();
        assert!(tables.contains("student"));
        assert!(tables.contains("enroll"));
        // Oracle: republish and verify the view gained exactly this student.
        let mut db2 = db.clone();
        db2.apply(&tr.delta_r).unwrap();
        let atg2 = registrar_atg(&db2).unwrap();
        let vs2 = ViewStore::publish(atg2, &db2).unwrap();
        let takenby = vs2.atg().dtd().type_id("takenBy").unwrap();
        let tb320 = vs2
            .dag()
            .genid()
            .lookup(takenby, tuple!["CS320"].values())
            .unwrap();
        let student2 = vs2.atg().dtd().type_id("student").unwrap();
        let s99 = vs2
            .dag()
            .genid()
            .lookup(student2, tuple!["S99", "Zed"].values())
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
        let (delta, _) = xinsert(&mut vs, &db, course, tuple!["CS777", "Seminar"], &eval).unwrap();
        let tr = translate_insertions(&vs, &db, &delta).unwrap();
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
        let (delta, _) = xinsert(&mut vs, &db, course, tuple!["CS240", "Wrong"], &eval).unwrap();
        let err = translate_insertions(&vs, &db, &delta).unwrap_err();
        let want = InsertRejection::KeyConflict {
            table: "course".into(),
        };
        assert_eq!(err, want);
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
        let (delta, _) = xinsert(&mut vs, &db, course, tuple!["CS777", "Seminar"], &eval).unwrap();
        let tr = translate_insertions(&vs, &db, &delta).unwrap();
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
        let (delta, _) = xinsert(&mut vs, &db, course, tuple!["CS888", "Lab"], &eval).unwrap();
        let tr = translate_insertions(&vs, &db, &delta).unwrap();
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
            .lookup(course, tuple!["CS888", "Lab"].values())
            .expect("published under prereq");
        assert!(!vs2.dag().children(vs2.dag().root()).contains(&c888));
        let _ = dbty;
    }

    #[test]
    fn empty_delta_translates_to_empty() {
        let (db, vs, _topo) = fixture();
        let delta = ViewDelta::default();
        let tr = translate_insertions(&vs, &db, &delta).unwrap();
        assert!(tr.delta_r.is_empty());
    }
}
