//! CNF formulas: variables, literals, clauses, assignments.

use std::fmt;

/// A propositional variable, identified by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn pos(self) -> Lit {
        Lit {
            var: self,
            positive: true,
        }
    }

    /// The negative literal of this variable.
    #[allow(clippy::should_implement_trait)] // constructor, not arithmetic negation
    pub fn neg(self) -> Lit {
        Lit {
            var: self,
            positive: false,
        }
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit {
    /// The variable.
    pub var: Var,
    /// `true` for `x`, `false` for `¬x`.
    pub positive: bool,
}

impl Lit {
    /// The complementary literal.
    pub fn negated(self) -> Lit {
        Lit {
            var: self.var,
            positive: !self.positive,
        }
    }

    /// Whether this literal is satisfied under `assignment`.
    pub fn eval(self, assignment: &Assignment) -> bool {
        assignment.get(self.var) == self.positive
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "x{}", self.var.0)
        } else {
            write!(f, "!x{}", self.var.0)
        }
    }
}

/// A disjunction of literals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Clause {
    /// The literals of the clause.
    pub lits: Vec<Lit>,
}

impl Clause {
    /// Builds a clause from literals.
    pub fn new(lits: impl IntoIterator<Item = Lit>) -> Self {
        Clause {
            lits: lits.into_iter().collect(),
        }
    }

    /// Whether the clause is satisfied under `assignment`.
    pub fn eval(&self, assignment: &Assignment) -> bool {
        self.lits.iter().any(|l| l.eval(assignment))
    }

    /// Whether the clause is empty (unsatisfiable).
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

/// A CNF formula with a variable allocator.
#[derive(Debug, Clone, Default)]
pub struct CnfFormula {
    n_vars: u32,
    clauses: Vec<Clause>,
}

impl CnfFormula {
    /// An empty formula (trivially satisfiable).
    pub fn new() -> Self {
        CnfFormula::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.n_vars);
        self.n_vars += 1;
        v
    }

    /// Number of allocated variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars as usize
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Adds a clause. Tautological clauses (containing `x` and `¬x`) are
    /// silently dropped; duplicate literals are deduplicated.
    ///
    /// # Panics
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let mut seen: Vec<Lit> = Vec::new();
        for l in lits {
            assert!(
                l.var.0 < self.n_vars,
                "literal references unallocated variable"
            );
            if seen.contains(&l.negated()) {
                return; // tautology
            }
            if !seen.contains(&l) {
                seen.push(l);
            }
        }
        self.clauses.push(Clause { lits: seen });
    }

    /// Adds `¬a ∨ ¬b` (at most one of `a`, `b`).
    pub fn add_not_both(&mut self, a: Var, b: Var) {
        self.add_clause([a.neg(), b.neg()]);
    }

    /// Whether the formula is satisfied by `assignment`.
    pub fn eval(&self, assignment: &Assignment) -> bool {
        self.clauses.iter().all(|c| c.eval(assignment))
    }

    /// Whether any clause is empty (making the formula trivially UNSAT).
    pub fn has_empty_clause(&self) -> bool {
        self.clauses.iter().any(Clause::is_empty)
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A complete truth assignment over a formula's variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    values: Vec<bool>,
}

impl Assignment {
    /// All-false assignment over `n` variables.
    pub fn all_false(n: usize) -> Self {
        Assignment {
            values: vec![false; n],
        }
    }

    /// Builds from explicit values.
    pub fn from_values(values: Vec<bool>) -> Self {
        Assignment { values }
    }

    /// The value of `v`.
    pub fn get(&self, v: Var) -> bool {
        self.values[v.index()]
    }

    /// Sets the value of `v`.
    pub fn set(&mut self, v: Var, value: bool) {
        self.values[v.index()] = value;
    }

    /// Flips the value of `v`.
    pub fn flip(&mut self, v: Var) {
        self.values[v.index()] = !self.values[v.index()];
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the assignment covers zero variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_evaluation() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let mut asg = Assignment::all_false(1);
        assert!(!a.pos().eval(&asg));
        assert!(a.neg().eval(&asg));
        asg.flip(a);
        assert!(a.pos().eval(&asg));
    }

    #[test]
    fn clause_and_formula_eval() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause([a.pos(), b.pos()]);
        f.add_clause([a.neg(), b.neg()]);
        // a=T, b=F satisfies both.
        let mut asg = Assignment::all_false(2);
        asg.set(a, true);
        assert!(f.eval(&asg));
        // a=F, b=F violates the first clause.
        asg.set(a, false);
        assert!(!f.eval(&asg));
    }

    #[test]
    fn tautologies_dropped_duplicates_merged() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        f.add_clause([a.pos(), a.neg()]);
        assert!(f.clauses().is_empty());
        f.add_clause([a.pos(), a.pos()]);
        assert_eq!(f.clauses()[0].lits.len(), 1);
    }

    #[test]
    fn empty_clause_detected() {
        let mut f = CnfFormula::new();
        f.add_clause([]);
        assert!(f.has_empty_clause());
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn unallocated_variable_panics() {
        let mut f = CnfFormula::new();
        f.add_clause([Var(3).pos()]);
    }

    #[test]
    fn display_formats() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause([a.pos(), b.neg()]);
        assert_eq!(f.to_string(), "(x0 | !x1)");
    }
}
