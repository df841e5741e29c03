//! WalkSAT (Selman–Kautz), the solver the paper's Algorithm `insert` uses
//! to process the encoded side-effect formula (§4.3, reference \[30\]).
//!
//! WalkSAT is an incomplete stochastic local-search solver: starting from a
//! random assignment, it repeatedly picks an unsatisfied clause and flips one
//! of its variables — with probability `NOISE` a random one, otherwise the
//! variable whose flip *breaks* the fewest currently satisfied clauses. It
//! may fail to find a satisfying assignment even when one exists; the paper
//! reports success "within a certain percentage" (78% in its experiments) and
//! rejects the update otherwise, which is exactly how `rxview` consumes it.

use crate::cnf::{Assignment, CnfFormula};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probability of a random walk move (the classic 0.5).
const NOISE: f64 = 0.5;
/// Flips per try.
const MAX_FLIPS: usize = 100_000;
/// Restarts.
const MAX_TRIES: usize = 10;
/// RNG seed: fixed, so a formula always gets the same answer.
const SEED: u64 = 0x5eed;

/// Result of a WalkSAT run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkSatResult {
    /// A satisfying assignment was found.
    Sat(Assignment),
    /// No satisfying assignment found within the flip/try budget. The
    /// formula may still be satisfiable (WalkSAT is incomplete).
    Unknown,
}

impl WalkSatResult {
    /// The assignment, if SAT.
    pub fn assignment(&self) -> Option<&Assignment> {
        match self {
            WalkSatResult::Sat(a) => Some(a),
            WalkSatResult::Unknown => None,
        }
    }
}

/// Runs WalkSAT on `formula`: noise 0.5, ten tries of 100 000 flips each,
/// from a fixed seed.
///
/// ```
/// use rxview_satsolver::{walksat, CnfFormula, WalkSatResult};
/// let mut f = CnfFormula::new();
/// let x = f.new_var();
/// let y = f.new_var();
/// f.add_clause([x.pos(), y.pos()]);
/// f.add_clause([x.neg()]);
/// match walksat(&f) {
///     WalkSatResult::Sat(m) => assert!(!m.get(x) && m.get(y)),
///     WalkSatResult::Unknown => unreachable!("trivially satisfiable"),
/// }
/// ```
pub fn walksat(formula: &CnfFormula) -> WalkSatResult {
    search(formula, MAX_FLIPS, MAX_TRIES)
}

/// [`walksat`] under a flip and try budget of the caller's choosing.
pub(crate) fn search(formula: &CnfFormula, max_flips: usize, max_tries: usize) -> WalkSatResult {
    if formula.has_empty_clause() {
        return WalkSatResult::Unknown;
    }
    if formula.clauses().is_empty() {
        return WalkSatResult::Sat(Assignment::all_false(formula.n_vars()));
    }
    let n = formula.n_vars();
    let mut rng = StdRng::seed_from_u64(SEED);

    // occurrence lists: clauses containing each literal polarity
    let mut occ_pos: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut occ_neg: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, c) in formula.clauses().iter().enumerate() {
        for l in &c.lits {
            if l.positive {
                occ_pos[l.var.index()].push(ci);
            } else {
                occ_neg[l.var.index()].push(ci);
            }
        }
    }

    for _try in 0..max_tries {
        // Random initial assignment.
        let mut asg = Assignment::from_values((0..n).map(|_| rng.gen_bool(0.5)).collect());
        // true-literal counts per clause, and the unsatisfied clause list.
        let mut true_count: Vec<usize> = formula
            .clauses()
            .iter()
            .map(|c| c.lits.iter().filter(|l| l.eval(&asg)).count())
            .collect();
        let mut unsat: Vec<usize> = (0..formula.clauses().len())
            .filter(|&ci| true_count[ci] == 0)
            .collect();

        for _flip in 0..max_flips {
            if unsat.is_empty() {
                debug_assert!(formula.eval(&asg));
                return WalkSatResult::Sat(asg);
            }
            // Pick a random unsatisfied clause.
            let ci = unsat[rng.gen_range(0..unsat.len())];
            let clause = &formula.clauses()[ci];

            // Choose the variable to flip (SKC heuristic): compute break
            // counts for every literal; if some flip breaks nothing, take it
            // ("freebie", no coin toss); otherwise with probability `NOISE`
            // flip a random literal, else flip a minimum-break literal with
            // ties broken randomly (unbiased ties are essential — always
            // taking the first literal biases the walk and livelocks on
            // implication chains).
            let breaks: Vec<usize> = clause
                .lits
                .iter()
                .map(|l| {
                    let v = l.var;
                    // Flipping v breaks clauses where v currently provides
                    // the only true literal.
                    let providing = if asg.get(v) {
                        &occ_pos[v.index()]
                    } else {
                        &occ_neg[v.index()]
                    };
                    providing.iter().filter(|&&c| true_count[c] == 1).count()
                })
                .collect();
            let min_break = *breaks.iter().min().expect("non-empty clause");
            let var = if min_break == 0 || !rng.gen_bool(NOISE) {
                let candidates: Vec<usize> = (0..clause.lits.len())
                    .filter(|&i| breaks[i] == min_break)
                    .collect();
                clause.lits[candidates[rng.gen_range(0..candidates.len())]].var
            } else {
                clause.lits[rng.gen_range(0..clause.lits.len())].var
            };

            // Flip and update counts incrementally.
            let was = asg.get(var);
            let (losing, gaining) = if was {
                (&occ_pos[var.index()], &occ_neg[var.index()])
            } else {
                (&occ_neg[var.index()], &occ_pos[var.index()])
            };
            for &c in losing {
                true_count[c] -= 1;
                if true_count[c] == 0 {
                    unsat.push(c);
                }
            }
            for &c in gaining {
                if true_count[c] == 0 {
                    // Remove from unsat list (swap-remove by search; the
                    // list is short in practice).
                    if let Some(pos) = unsat.iter().position(|&u| u == c) {
                        unsat.swap_remove(pos);
                    }
                }
                true_count[c] += 1;
            }
            asg.flip(var);
        }
    }
    WalkSatResult::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::CnfFormula;

    /// WalkSAT at a small budget: 5 tries of 10 000 flips.
    fn solve(f: &CnfFormula) -> WalkSatResult {
        search(f, 10_000, 5)
    }

    #[test]
    fn empty_formula_is_sat() {
        let f = CnfFormula::new();
        assert!(matches!(solve(&f), WalkSatResult::Sat(_)));
    }

    #[test]
    fn single_unit_clause() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        f.add_clause([a.pos()]);
        match solve(&f) {
            WalkSatResult::Sat(asg) => assert!(asg.get(a)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn contradiction_returns_unknown() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        f.add_clause([a.pos()]);
        f.add_clause([a.neg()]);
        assert_eq!(solve(&f), WalkSatResult::Unknown);
    }

    #[test]
    fn empty_clause_returns_unknown() {
        let mut f = CnfFormula::new();
        f.add_clause([]);
        assert_eq!(solve(&f), WalkSatResult::Unknown);
    }

    #[test]
    fn solves_implication_chain() {
        // x0 & (¬x0|x1) & (¬x1|x2) & ... forces all true.
        let mut f = CnfFormula::new();
        let vars: Vec<_> = (0..20).map(|_| f.new_var()).collect();
        f.add_clause([vars[0].pos()]);
        for w in vars.windows(2) {
            f.add_clause([w[0].neg(), w[1].pos()]);
        }
        match solve(&f) {
            WalkSatResult::Sat(asg) => {
                assert!(vars.iter().all(|&v| asg.get(v)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn solves_random_3sat_under_threshold() {
        // 40 vars, 120 clauses (ratio 3.0 < 4.27): satisfiable w.h.p. and
        // easy for WalkSAT. Seeded generation keeps the test deterministic.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut f = CnfFormula::new();
        let vars: Vec<_> = (0..40).map(|_| f.new_var()).collect();
        // Plant a solution so the instance is certainly satisfiable.
        let planted: Vec<bool> = (0..40).map(|_| rng.gen_bool(0.5)).collect();
        for _ in 0..120 {
            let mut lits = Vec::new();
            for _ in 0..3 {
                let vi = rng.gen_range(0..vars.len());
                let pos = rng.gen_bool(0.5);
                lits.push(if pos { vars[vi].pos() } else { vars[vi].neg() });
            }
            // Force at least one literal to agree with the planted solution.
            let vi = rng.gen_range(0..vars.len());
            lits.push(if planted[vi] {
                vars[vi].pos()
            } else {
                vars[vi].neg()
            });
            f.add_clause(lits);
        }
        match solve(&f) {
            WalkSatResult::Sat(asg) => assert!(f.eval(&asg)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause([a.pos(), b.pos()]);
        let r1 = solve(&f);
        let r2 = solve(&f);
        assert_eq!(r1, r2);
    }
}
