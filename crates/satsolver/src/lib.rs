//! `rxview-satsolver` — the SAT substrate for the paper's insertion
//! translation (§4.3).
//!
//! Algorithm `insert` reduces group view insertions to SAT and hands the
//! formula to Walksat \[30\]. That binary is not available offline, so this
//! crate implements:
//!
//! - [`CnfFormula`]: CNF formulas, clauses, assignments;
//! - [`walksat()`]: the Selman–Kautz stochastic local-search solver the
//!   paper uses (incomplete, fast, seeded for reproducibility);
//! - [`dpll()`]: a complete DPLL solver used as a test oracle and for callers
//!   that need a definite UNSAT answer on small encodings.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cnf;
mod dpll;
mod walksat;

pub use cnf::{Assignment, Clause, CnfFormula, Lit, Var};
pub use dpll::{dpll, DpllResult};
pub use walksat::{walksat, WalkSatResult};
