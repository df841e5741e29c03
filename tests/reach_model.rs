//! Tier-1 run of the model test of `M`'s block-word runs, so that the
//! default `cargo test -q` holds the representation to its `BTreeSet` model
//! (ROADMAP item 6a): the test lives with the crate it tests.

#[path = "../crates/core/tests/reach_model.rs"]
mod reach_model;
