//! `rxbench` — the repository's end-to-end benchmark: a single-threaded,
//! phase-structured session per workload whose numbers repeat, plus a
//! traced run that yields per-layer numbers. See `README.md`.

#![warn(missing_docs)]

pub mod calibrate;
pub mod catalogue;
pub mod cli;
mod conc;
pub mod json;
mod layers;
pub mod machine;
pub mod session;
pub mod streams;
pub mod summary;
pub mod trace;
pub mod verify;
pub mod workloads;
