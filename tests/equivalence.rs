//! The one run of the engine's equivalence battery: batched group commit —
//! every executor, scoped or full evaluation, folded maintenance — held to
//! one-at-a-time application of the same updates.
//!
//! The file lives with the crate it tests; `crates/engine/Cargo.toml`
//! leaves it to this runner (`autotests = false`), so `cargo test` compiles
//! and runs it once.

#[path = "../crates/engine/tests/equivalence.rs"]
mod equivalence;
