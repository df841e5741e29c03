//! The one run of the randomized tests of `L` and `M` on synthetic DAGs:
//! Algorithm Reach and the descendant walk — over free and recycled ids —
//! held to the naive closure and the bulk load
//! `Reachability::from_ancestors`.
//!
//! The file lives with the crate it tests; `crates/core/Cargo.toml` leaves
//! it to this runner (`autotests = false`), so `cargo test` compiles and
//! runs it once.

#[path = "../crates/core/tests/random_dag.rs"]
mod random_dag;
