//! SPJ query evaluation: compile once ([`SpjPlan::compile`]), run many
//! ([`SpjPlan::run`]) — left-deep index nested-loop joins with
//! set-semantics output. This is the only join planner: rule evaluation,
//! Algorithm delete's probes and Algorithm insert's side-effect join
//! (which walks a plan's [`PlanStep`]s over symbolic rows) all run its
//! plans.
//!
//! Compilation orders the FROM entries greedily — after any the caller
//! places first ([`SpjPlan::compile_first`]) — and gives each a *step*.
//! The predicates that become fully bound at a step — column =
//! constant/parameter, column = column of an earlier entry, or two columns
//! of the same entry — are split between the step's access path (a
//! primary-key prefix range when they bind one, else the table's lazy
//! column index, else a scan) and the tests run on each candidate row.

use crate::database::Database;
use crate::error::{RelError, RelResult};
use crate::spj::{ColRef, EqPred, Operand, SchemaProvider, SpjQuery};
use crate::table::{Probe, RowSource};
use crate::tuple::Tuple;
use crate::value::Value;
use std::cell::Cell;
use std::cmp::Ordering;

/// A source of named tables for query evaluation.
///
/// Besides plain [`Database`]s, the update-translation algorithms evaluate
/// edge views over the *augmented* database — base relations plus the
/// interner's `gen_A` node tables (§2.3) — without copying either side:
/// every table is read through [`RowSource`], whatever its payload.
pub trait TableSource: SchemaProvider {
    /// Resolves a table by name.
    fn table_src(&self, name: &str) -> Option<&dyn RowSource>;
}

impl TableSource for Database {
    fn table_src(&self, name: &str) -> Option<&dyn RowSource> {
        self.table(name).ok().map(|t| t as &dyn RowSource)
    }
}

/// Where a plan step reads a value from.
#[derive(Debug, Clone)]
pub enum PlanSrc {
    /// A constant of the query.
    Const(Value),
    /// The run's parameter at this index.
    Param(usize),
    /// Column `col` of the row an earlier step bound.
    Row {
        /// The earlier step.
        step: usize,
        /// The column of its row.
        col: usize,
    },
}

/// How a step finds its candidate rows.
#[derive(Debug, Clone)]
pub enum PlanAccess {
    /// The leading key columns equal these values: a primary-key range — a
    /// point lookup when the whole key is bound.
    KeyPrefix(Vec<PlanSrc>),
    /// A column off the key's prefix equals the value: the table's lazy
    /// column index ([`crate::Table::scan_col_eq`]).
    ColEq(usize, PlanSrc),
    /// Nothing is bound: every row.
    Scan,
}

/// One FROM entry in join order.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The FROM entry.
    rel: usize,
    table: String,
    /// The table shape the access path was chosen for; a run checks it.
    arity: usize,
    key: Vec<usize>,
    access: PlanAccess,
    /// `row[col] == value` tests the access path does not already imply.
    checks: Vec<(usize, PlanSrc)>,
    /// `row[a] == row[b]` tests.
    same_row: Vec<(usize, usize)>,
}

impl PlanStep {
    /// The FROM entry this step binds.
    pub fn rel(&self) -> usize {
        self.rel
    }

    /// The step's access path; a [`PlanAccess::KeyPrefix`] binds the first
    /// [`PlanStep::key`] columns, in key order.
    pub fn access(&self) -> &PlanAccess {
        &self.access
    }

    /// The table's primary-key columns.
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// The `row[col] == value` tests the access path does not imply.
    pub fn checks(&self) -> &[(usize, PlanSrc)] {
        &self.checks
    }

    /// The `row[a] == row[b]` tests.
    pub fn same_row(&self) -> &[(usize, usize)] {
        &self.same_row
    }
}

/// A compiled SPJ query: everything [`eval_spj`] would decide per call that
/// depends only on the query and the table schemas — validation, the join
/// order, each step's access path and residual tests — decided once.
///
/// A run is an index nested-loop join over *row handles*: the register
/// file holds one `&Tuple` per placed FROM entry, a column read is `(step,
/// col)` through it, and no value is copied until a result row is
/// projected. An ATG's rules and edge views (§2.2–2.3) are a bounded set of
/// such queries evaluated once per generated node, so each is compiled
/// where it is defined and this is the only evaluator.
#[derive(Debug, Clone)]
pub struct SpjPlan {
    name: String,
    n_params: usize,
    /// Predicates over parameters and constants only, tested once per run.
    guards: Vec<(PlanSrc, PlanSrc)>,
    steps: Vec<PlanStep>,
    /// `(step, col)` per output column.
    projection: Vec<(usize, usize)>,
}

/// A predicate with its operands sorted by kind.
enum Pred {
    ColVal(ColRef, PlanSrc),
    ColCol(ColRef, ColRef),
}

impl SpjPlan {
    /// Compiles `query` against the schemas of `provider`.
    pub fn compile(query: &SpjQuery, provider: &impl SchemaProvider) -> RelResult<SpjPlan> {
        SpjPlan::compile_first(query, provider, &[])
    }

    /// [`SpjPlan::compile`] with the distinct FROM entries `first` placed
    /// first, in that order, and the rest ordered greedily after them.
    /// Algorithm insert's side-effect join reads those entries from its
    /// templates, not from their tables.
    pub fn compile_first(
        query: &SpjQuery,
        provider: &impl SchemaProvider,
        first: &[usize],
    ) -> RelResult<SpjPlan> {
        query.validate(provider)?;
        let schema_of = |rel: usize| {
            provider
                .schema_of(&query.from()[rel].table)
                .expect("validated above")
        };
        let n_from = query.from().len();

        let mut guards = Vec::new();
        let mut preds = Vec::new();
        let value_src = |o: &Operand| match o {
            Operand::Const(v) => PlanSrc::Const(v.clone()),
            Operand::Param(i) => PlanSrc::Param(*i),
            Operand::Col(_) => unreachable!("columns are matched before values"),
        };
        for EqPred { left, right } in query.predicates() {
            match (left, right) {
                (Operand::Col(a), Operand::Col(b)) => preds.push(Pred::ColCol(*a, *b)),
                (Operand::Col(c), v) | (v, Operand::Col(c)) => {
                    preds.push(Pred::ColVal(*c, value_src(v)))
                }
                (a, b) => guards.push((value_src(a), value_src(b))),
            }
        }

        // Greedy join order: repeatedly place the entry whose primary-key
        // prefix is best bound by constants, parameters and joins to
        // already-placed entries, then the best connected one — the
        // difference between scanning a 100K-row `gen` table per update and
        // a handful of point lookups.
        let mut step_of: Vec<Option<usize>> = vec![None; n_from];
        let mut order = Vec::with_capacity(n_from);
        for &e in first {
            step_of[e] = Some(order.len());
            order.push(e);
        }
        while order.len() < n_from {
            let binds = |e: usize, p: &Pred| match p {
                Pred::ColVal(c, _) => (c.rel == e).then_some(c.col),
                Pred::ColCol(a, b) if a.rel == e && step_of[b.rel].is_some() => Some(a.col),
                Pred::ColCol(a, b) if b.rel == e && step_of[a.rel].is_some() => Some(b.col),
                Pred::ColCol(..) => None,
            };
            let best = (0..n_from)
                .filter(|&e| step_of[e].is_none())
                .max_by_key(|&e| {
                    let prefix = schema_of(e)
                        .key()
                        .iter()
                        .take_while(|&&kc| preds.iter().any(|p| binds(e, p) == Some(kc)))
                        .count();
                    let connected = preds.iter().filter(|p| binds(e, p).is_some()).count();
                    // The smaller entry index wins ties.
                    (prefix, connected, std::cmp::Reverse(e))
                })
                .expect("an unplaced entry exists");
            step_of[best] = Some(order.len());
            order.push(best);
        }

        let mut applied = vec![false; preds.len()];
        let mut steps = Vec::with_capacity(n_from);
        for (at, &rel) in order.iter().enumerate() {
            let placed = |r: usize| step_of[r].filter(|&s| s < at);
            let row = |c: ColRef, step: usize| PlanSrc::Row { step, col: c.col };
            let mut binds: Vec<(usize, PlanSrc)> = Vec::new();
            let mut same_row = Vec::new();
            for (p, done) in preds.iter().zip(&mut applied) {
                let bind = match p {
                    _ if *done => continue,
                    Pred::ColVal(c, v) if c.rel == rel => (c.col, v.clone()),
                    Pred::ColCol(a, b) if a.rel == rel && b.rel == rel => {
                        same_row.push((a.col, b.col));
                        *done = true;
                        continue;
                    }
                    Pred::ColCol(a, b) if a.rel == rel => match placed(b.rel) {
                        Some(step) => (a.col, row(*b, step)),
                        None => continue,
                    },
                    Pred::ColCol(a, b) if b.rel == rel => match placed(a.rel) {
                        Some(step) => (b.col, row(*a, step)),
                        None => continue,
                    },
                    _ => continue,
                };
                binds.push(bind);
                *done = true;
            }
            let schema = schema_of(rel);
            // The access path takes the binds it implies out of `binds`;
            // what is left is tested per candidate row.
            let mut prefix = Vec::new();
            for &kc in schema.key() {
                match binds.iter().position(|(col, _)| *col == kc) {
                    Some(i) => prefix.push(binds.remove(i).1),
                    None => break,
                }
            }
            let access = if !prefix.is_empty() {
                PlanAccess::KeyPrefix(prefix)
            } else if binds.is_empty() {
                PlanAccess::Scan
            } else {
                let (col, src) = binds.remove(0);
                PlanAccess::ColEq(col, src)
            };
            steps.push(PlanStep {
                rel,
                table: query.from()[rel].table.clone(),
                arity: schema.arity(),
                key: schema.key().to_vec(),
                access,
                checks: binds,
                same_row,
            });
        }
        debug_assert!(applied.iter().all(|&a| a), "every predicate is placed");

        Ok(SpjPlan {
            name: query.name().to_owned(),
            n_params: query.n_params(),
            guards,
            steps,
            projection: query
                .projection()
                .iter()
                .map(|c| (step_of[c.rel].expect("every entry is placed"), c.col))
                .collect(),
        })
    }

    /// The steps, in join order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// The predicates over parameters and constants only: a run yields no
    /// row unless each pair is equal.
    pub fn guards(&self) -> &[(PlanSrc, PlanSrc)] {
        &self.guards
    }

    /// `(step, col)` per output column.
    pub fn projection(&self) -> &[(usize, usize)] {
        &self.projection
    }

    /// Runs the plan against `db` with the given parameter bindings: binds
    /// it ([`SpjPlan::bind`]) and runs it once ([`BoundPlan::run_into`]).
    ///
    /// Returns distinct output tuples in sorted order (set semantics,
    /// matching the paper's view relations; §3.3 relies on set semantics so
    /// that "a newly inserted subtree is stored only once").
    pub fn run(&self, db: &impl TableSource, params: &[Value]) -> RelResult<Vec<Tuple>> {
        let mut out = Vec::new();
        self.bind(db)?.run_into(params, &mut out)?;
        Ok(out)
    }

    /// Resolves the plan's FROM tables in `source` and checks each is the
    /// shape the plan was compiled for, once: a plan run many times over
    /// one source — a rule over the whole publication walk — is bound once
    /// and run through the [`BoundPlan`].
    pub fn bind<'a, S: TableSource + ?Sized>(&'a self, source: &'a S) -> RelResult<BoundPlan<'a>> {
        let mut tables = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let table = source
                .table_src(&step.table)
                .ok_or_else(|| RelError::UnknownTable(step.table.clone()))?;
            if table.schema().arity() != step.arity || table.schema().key() != step.key {
                return Err(RelError::MalformedQuery(format!(
                    "{}: table `{}` is not the shape the plan was compiled for",
                    self.name, step.table
                )));
            }
            tables.push((table, Cell::new(None)));
        }
        Ok(BoundPlan { plan: self, tables })
    }
}

/// An [`SpjPlan`] bound to the tables of one source ([`SpjPlan::bind`]):
/// its tables resolved and shape-checked, and its register file — per
/// step, the row it has bound while the steps below it run — allocated,
/// so that a run allocates nothing but its result rows.
pub struct BoundPlan<'a> {
    plan: &'a SpjPlan,
    /// Per step, its table and its register. A `Cell`, so that a step's
    /// access path can read the registers above it while those below are
    /// rebound.
    tables: Vec<(&'a dyn RowSource, Cell<Option<&'a Tuple>>)>,
}

impl BoundPlan<'_> {
    /// Runs the plan with the given parameter bindings, refilling `out`
    /// with its distinct output tuples in sorted order ([`SpjPlan::run`]).
    pub fn run_into(&self, params: &[Value], out: &mut Vec<Tuple>) -> RelResult<()> {
        out.clear();
        let plan = self.plan;
        if params.len() < plan.n_params {
            return Err(RelError::UnboundParam(params.len()));
        }
        let run = Run {
            plan,
            slots: &self.tables,
            params,
        };
        if plan
            .guards
            .iter()
            .all(|(a, b)| run.value(a) == run.value(b))
        {
            run.descend(0, out);
        }
        out.sort_unstable();
        out.dedup();
        Ok(())
    }
}

/// The state of one [`BoundPlan::run_into`].
struct Run<'a, 'r> {
    plan: &'a SpjPlan,
    /// The bound plan's tables and registers.
    slots: &'r [(&'a dyn RowSource, Cell<Option<&'a Tuple>>)],
    params: &'r [Value],
}

impl<'a, 'r> Run<'a, 'r> {
    fn value(&self, src: &'r PlanSrc) -> &'r Value {
        match src {
            PlanSrc::Const(v) => v,
            PlanSrc::Param(i) => &self.params[*i],
            PlanSrc::Row { step, col } => &self.row(*step)[*col],
        }
    }

    fn row(&self, step: usize) -> &'a Tuple {
        self.slots[step].1.get().expect("an earlier step is bound")
    }

    /// Binds every row step `at` admits, in turn, and joins the rest below.
    fn descend(&self, at: usize, out: &mut Vec<Tuple>) {
        let Some(step) = self.plan.steps.get(at) else {
            let row = self.plan.projection.iter();
            out.push(Tuple::from_values(
                row.map(|&(s, c)| self.row(s)[c].clone()),
            ));
            return;
        };
        let (table, bound) = &self.slots[at];
        let mut admit = |row: &'a Tuple| {
            if step
                .checks
                .iter()
                .all(|(col, src)| row[*col] == *self.value(src))
                && step.same_row.iter().all(|&(a, b)| row[a] == row[b])
            {
                bound.set(Some(row));
                self.descend(at + 1, out);
            }
        };
        match &step.access {
            PlanAccess::KeyPrefix(srcs) => {
                let locate = |row: &Tuple| {
                    step.key
                        .iter()
                        .zip(srcs)
                        .map(|(&kc, src)| row[kc].cmp(self.value(src)))
                        .find(|o| o.is_ne())
                        .unwrap_or(Ordering::Equal)
                };
                table.scan(Probe::KeyRange(&locate), &mut admit);
            }
            PlanAccess::ColEq(col, src) => {
                table.scan(Probe::ColEq(*col, self.value(src)), &mut admit)
            }
            PlanAccess::Scan => table.scan(Probe::All, &mut admit),
        }
    }
}

/// Evaluates `query` against `db` with the given parameter bindings:
/// compiles it and runs the plan once. A query evaluated repeatedly keeps
/// its [`SpjPlan`] instead.
pub fn eval_spj(
    db: &impl TableSource,
    query: &SpjQuery,
    params: &[Value],
) -> RelResult<Vec<Tuple>> {
    SpjPlan::compile(query, db)?.run(db, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema;
    use crate::tuple;

    /// The registrar database of Example 1.
    fn registrar() -> Database {
        let mut db = Database::new();
        db.create_table(
            schema("course")
                .col_str("cno")
                .col_str("title")
                .col_str("dept")
                .key(&["cno"]),
        )
        .unwrap();
        db.create_table(
            schema("prereq")
                .col_str("cno1")
                .col_str("cno2")
                .key(&["cno1", "cno2"]),
        )
        .unwrap();
        db.create_table(
            schema("student")
                .col_str("ssn")
                .col_str("name")
                .key(&["ssn"]),
        )
        .unwrap();
        db.create_table(
            schema("enroll")
                .col_str("ssn")
                .col_str("cno")
                .key(&["ssn", "cno"]),
        )
        .unwrap();
        for c in [
            ("CS650", "Advanced DB", "CS"),
            ("CS320", "Algorithms", "CS"),
            ("CS240", "Data Structures", "CS"),
            ("MA100", "Calculus", "Math"),
        ] {
            db.insert("course", tuple![c.0, c.1, c.2]).unwrap();
        }
        for p in [("CS650", "CS320"), ("CS320", "CS240")] {
            db.insert("prereq", tuple![p.0, p.1]).unwrap();
        }
        for s in [("S01", "Alice"), ("S02", "Bob")] {
            db.insert("student", tuple![s.0, s.1]).unwrap();
        }
        for e in [("S01", "CS650"), ("S02", "CS320"), ("S02", "CS240")] {
            db.insert("enroll", tuple![e.0, e.1]).unwrap();
        }
        db
    }

    #[test]
    fn selection_with_constant() {
        let db = registrar();
        let q = SpjQuery::builder("cs_courses")
            .from("course", "c")
            .where_col_eq_const(("c", "dept"), "CS")
            .project(("c", "cno"), "cno")
            .build(&db)
            .unwrap();
        let out = eval_spj(&db, &q, &[]).unwrap();
        assert_eq!(out, vec![tuple!["CS240"], tuple!["CS320"], tuple!["CS650"]]);
    }

    #[test]
    fn parameterized_join_mirrors_atg_rule() {
        let db = registrar();
        // Qprereq_course(c1): prerequisites of $c1 (Fig.2).
        let q = SpjQuery::builder("Qprereq_course")
            .from("prereq", "p")
            .from("course", "c")
            .where_col_eq_param(("p", "cno1"), 0)
            .where_col_eq_col(("p", "cno2"), ("c", "cno"))
            .project(("c", "cno"), "cno")
            .project(("c", "title"), "title")
            .build(&db)
            .unwrap();
        let out = eval_spj(&db, &q, &[Value::from("CS650")]).unwrap();
        assert_eq!(out, vec![tuple!["CS320", "Algorithms"]]);
        let out = eval_spj(&db, &q, &[Value::from("CS240")]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn three_way_join() {
        let db = registrar();
        // Students enrolled in prerequisites of CS650.
        let q = SpjQuery::builder("takers")
            .from("prereq", "p")
            .from("enroll", "e")
            .from("student", "s")
            .where_col_eq_param(("p", "cno1"), 0)
            .where_col_eq_col(("p", "cno2"), ("e", "cno"))
            .where_col_eq_col(("e", "ssn"), ("s", "ssn"))
            .project(("s", "name"), "name")
            .build(&db)
            .unwrap();
        let out = eval_spj(&db, &q, &[Value::from("CS650")]).unwrap();
        assert_eq!(out, vec![tuple!["Bob"]]);
    }

    #[test]
    fn missing_param_is_error() {
        let db = registrar();
        let q = SpjQuery::builder("q")
            .from("course", "c")
            .where_col_eq_param(("c", "cno"), 0)
            .project(("c", "title"), "t")
            .build(&db)
            .unwrap();
        assert!(matches!(
            eval_spj(&db, &q, &[]),
            Err(RelError::UnboundParam(0))
        ));
    }

    #[test]
    fn set_semantics_deduplicates() {
        let db = registrar();
        let q = SpjQuery::builder("depts")
            .from("course", "c")
            .project(("c", "dept"), "dept")
            .build(&db)
            .unwrap();
        let out = eval_spj(&db, &q, &[]).unwrap();
        assert_eq!(out, vec![tuple!["CS"], tuple!["Math"]]);
    }

    #[test]
    fn self_join_finds_transitive_prereqs() {
        let db = registrar();
        let q = SpjQuery::builder("trans")
            .from("prereq", "p1")
            .from("prereq", "p2")
            .where_col_eq_col(("p1", "cno2"), ("p2", "cno1"))
            .project(("p1", "cno1"), "a")
            .project(("p2", "cno2"), "b")
            .build(&db)
            .unwrap();
        let out = eval_spj(&db, &q, &[]).unwrap();
        assert_eq!(out, vec![tuple!["CS650", "CS240"]]);
    }

    #[test]
    fn contradictory_const_predicate_yields_empty() {
        let db = registrar();
        let q = SpjQuery::builder("never")
            .from("course", "c")
            .where_col_eq_const(("c", "dept"), "CS")
            .where_col_eq_const(("c", "dept"), "Math")
            .project(("c", "cno"), "cno")
            .build(&db)
            .unwrap();
        assert!(eval_spj(&db, &q, &[]).unwrap().is_empty());
    }

    #[test]
    fn local_col_col_predicate() {
        let mut db = Database::new();
        db.create_table(schema("pairs").col_int("a").col_int("b").key(&["a"]))
            .unwrap();
        db.insert("pairs", tuple![1i64, 1i64]).unwrap();
        db.insert("pairs", tuple![2i64, 3i64]).unwrap();
        let q = SpjQuery::builder("diag")
            .from("pairs", "p")
            .where_col_eq_col(("p", "a"), ("p", "b"))
            .project(("p", "a"), "a")
            .build(&db)
            .unwrap();
        assert_eq!(eval_spj(&db, &q, &[]).unwrap(), vec![tuple![1i64]]);
    }

    #[test]
    fn cartesian_product_when_no_join_predicate() {
        let mut db = Database::new();
        db.create_table(schema("l").col_int("x").key(&["x"]))
            .unwrap();
        db.create_table(schema("r").col_int("y").key(&["y"]))
            .unwrap();
        db.insert("l", tuple![1i64]).unwrap();
        db.insert("l", tuple![2i64]).unwrap();
        db.insert("r", tuple![10i64]).unwrap();
        let q = SpjQuery::builder("cross")
            .from("l", "l")
            .from("r", "r")
            .project(("l", "x"), "x")
            .project(("r", "y"), "y")
            .build(&db)
            .unwrap();
        let out = eval_spj(&db, &q, &[]).unwrap();
        assert_eq!(out, vec![tuple![1i64, 10i64], tuple![2i64, 10i64]]);
    }
}
