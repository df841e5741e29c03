//! `rxview-bench` — the harness that regenerates every table and figure of
//! the paper's evaluation (§5). ARCHITECTURE.md maps the paper to the code,
//! and the `paper_tables` binary's docs list the experiments it prints.
//!
//! Everything runs from the `paper_tables` binary
//! (`cargo run --release -p rxview-bench --bin paper_tables -- all`),
//! including, by name, the two ablations (`ablation-reach`: Algorithm
//! Reach vs naive closure; `ablation-dag`: DAG evaluation vs tree
//! expansion). The `pairs` binary runs the alternating parent/change
//! protocol of the `BENCH_*.json` files over `rxbench` ([`pairs`]).

#![warn(missing_docs)]

pub mod alloc_count;
pub mod collect;
pub mod harness;
pub mod pairs;

pub use harness::*;
