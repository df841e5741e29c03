//! Tier-1 run of the engine's equivalence battery, so that the default
//! `cargo test -q` holds batched group commit — every executor, scoped or
//! full evaluation, folded maintenance — to one-at-a-time application of
//! the same updates (ROADMAP item 6a): the tests live with the crate they
//! test.

#[path = "../crates/engine/tests/equivalence.rs"]
mod equivalence;
