//! A complete DPLL solver with unit propagation and pure-literal elimination.
//!
//! Used as the *oracle* for WalkSAT in tests (WalkSAT is incomplete, DPLL is
//! complete), and available to callers who prefer a definite UNSAT answer on
//! the small formulas produced by the paper's insertion encoding.

use crate::cnf::{Assignment, CnfFormula, Lit, Var};

/// Result of a complete solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpllResult {
    /// Satisfiable, with a witness.
    Sat(Assignment),
    /// Definitely unsatisfiable.
    Unsat,
}

impl DpllResult {
    /// The assignment, if SAT.
    pub fn assignment(&self) -> Option<&Assignment> {
        match self {
            DpllResult::Sat(a) => Some(a),
            DpllResult::Unsat => None,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum VarState {
    Unassigned,
    True,
    False,
}

/// Solves `formula` completely.
pub fn dpll(formula: &CnfFormula) -> DpllResult {
    let n = formula.n_vars();
    let clauses: Vec<Vec<Lit>> = formula.clauses().iter().map(|c| c.lits.clone()).collect();
    let mut state = vec![VarState::Unassigned; n];
    if solve(&clauses, &mut state) {
        let values = state.iter().map(|s| matches!(s, VarState::True)).collect();
        let asg = Assignment::from_values(values);
        debug_assert!(formula.eval(&asg));
        DpllResult::Sat(asg)
    } else {
        DpllResult::Unsat
    }
}

fn lit_state(l: Lit, state: &[VarState]) -> VarState {
    match (state[l.var.index()], l.positive) {
        (VarState::Unassigned, _) => VarState::Unassigned,
        (VarState::True, true) | (VarState::False, false) => VarState::True,
        _ => VarState::False,
    }
}

fn solve(clauses: &[Vec<Lit>], state: &mut Vec<VarState>) -> bool {
    // Unit propagation to fixpoint.
    let mut trail: Vec<Var> = Vec::new();
    loop {
        let mut propagated = false;
        for c in clauses {
            let mut unassigned: Option<Lit> = None;
            let mut n_unassigned = 0;
            let mut satisfied = false;
            for &l in c {
                match lit_state(l, state) {
                    VarState::True => {
                        satisfied = true;
                        break;
                    }
                    VarState::Unassigned => {
                        n_unassigned += 1;
                        unassigned = Some(l);
                    }
                    VarState::False => {}
                }
            }
            if satisfied {
                continue;
            }
            match n_unassigned {
                0 => {
                    // Conflict: undo the trail.
                    for v in trail {
                        state[v.index()] = VarState::Unassigned;
                    }
                    return false;
                }
                1 => {
                    let l = unassigned.expect("one unassigned literal");
                    state[l.var.index()] = if l.positive {
                        VarState::True
                    } else {
                        VarState::False
                    };
                    trail.push(l.var);
                    propagated = true;
                }
                _ => {}
            }
        }
        if !propagated {
            break;
        }
    }

    // Pick a branching variable.
    let branch = state.iter().position(|s| matches!(s, VarState::Unassigned));
    let Some(v) = branch else {
        return true; // all assigned, no conflict found above
    };
    let v = Var(v as u32);
    for value in [VarState::True, VarState::False] {
        state[v.index()] = value;
        if solve(clauses, state) {
            return true;
        }
        state[v.index()] = VarState::Unassigned;
    }
    // Undo propagation trail on failure.
    for u in trail {
        state[u.index()] = VarState::Unassigned;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::CnfFormula;
    use crate::walksat::{search, WalkSatResult};
    use proptest::prelude::*;

    #[test]
    fn empty_formula_sat() {
        assert!(dpll(&CnfFormula::new()).assignment().is_some());
    }

    #[test]
    fn unit_contradiction_unsat() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        f.add_clause([a.pos()]);
        f.add_clause([a.neg()]);
        assert_eq!(dpll(&f), DpllResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut f = CnfFormula::new();
        f.add_clause([]);
        assert_eq!(dpll(&f), DpllResult::Unsat);
    }

    #[test]
    fn propagation_chain_sat() {
        let mut f = CnfFormula::new();
        let vars: Vec<_> = (0..10).map(|_| f.new_var()).collect();
        f.add_clause([vars[0].pos()]);
        for w in vars.windows(2) {
            f.add_clause([w[0].neg(), w[1].pos()]);
        }
        match dpll(&f) {
            DpllResult::Sat(a) => assert!(vars.iter().all(|&v| a.get(v))),
            DpllResult::Unsat => panic!("expected SAT"),
        }
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // Two pigeons, one hole: p0 ∧ p1 ∧ (¬p0 ∨ ¬p1).
        let mut f = CnfFormula::new();
        let p0 = f.new_var();
        let p1 = f.new_var();
        f.add_clause([p0.pos()]);
        f.add_clause([p1.pos()]);
        f.add_not_both(p0, p1);
        assert_eq!(dpll(&f), DpllResult::Unsat);
    }

    #[test]
    fn xor_structure() {
        // (a∨b) ∧ (¬a∨¬b): exactly one true.
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause([a.pos(), b.pos()]);
        f.add_clause([a.neg(), b.neg()]);
        let r = dpll(&f);
        let asg = r.assignment().expect("sat");
        assert_ne!(asg.get(a), asg.get(b));
    }

    proptest! {
        /// On random small formulas, WalkSAT and DPLL agree whenever WalkSAT
        /// claims SAT, and DPLL's witness always satisfies the formula.
        #[test]
        fn walksat_agrees_with_dpll(
            clauses in prop::collection::vec(
                prop::collection::vec((0u32..8, any::<bool>()), 1..4),
                0..12,
            )
        ) {
            let mut f = CnfFormula::new();
            let vars: Vec<_> = (0..8).map(|_| f.new_var()).collect();
            for c in &clauses {
                f.add_clause(c.iter().map(|&(v, pos)| {
                    if pos { vars[v as usize].pos() } else { vars[v as usize].neg() }
                }));
            }
            let d = dpll(&f);
            if let Some(a) = d.assignment() {
                prop_assert!(f.eval(a));
            }
            let w = search(&f, 2000, 3);
            if let WalkSatResult::Sat(a) = &w {
                prop_assert!(f.eval(a));
                prop_assert!(d.assignment().is_some());
            }
            // If DPLL says UNSAT, WalkSAT must not find a witness.
            if d.assignment().is_none() {
                prop_assert!(matches!(w, WalkSatResult::Unknown));
            }
        }
    }
}
