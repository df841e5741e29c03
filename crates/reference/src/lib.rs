//! `rxview-reference` — the paper's steps transcribed as specifications, one
//! module per section: [`tree`] (XPath on the tree, §2.1), [`eval`] (the
//! two-pass evaluation on the DAG, §3.2), [`reach`] (the naive closure Fig. 4
//! improves on), [`delete`] (§4.2's `Sr(Q,t)`, its source keys, Fig. 9's
//! safety test and Theorem 3's greedy minimal cover), [`insert`] (§4.3's edge closure) and [`apply`] (Fig. 3,
//! one update at a time). Tests and the ablation harness cite them; no
//! serving path calls them, and a production
//! crate lists this one under `[dev-dependencies]` only
//! (`tests/reference_boundary.rs`).

#![warn(missing_docs)]

pub mod apply;
pub mod delete;
pub mod eval;
pub mod insert;
pub mod reach;
pub mod tree;

pub use apply::reference_apply;
pub use delete::{closure_source_keys, source_is_safe, translate_deletions_minimal};
pub use eval::eval_xpath_on_dag;
pub use insert::{compute_edge_closure, EdgeClosure};
pub use reach::compute_naive;
pub use tree::{eval_filter, eval_from, eval_on_tree};
