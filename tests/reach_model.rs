//! The one run of the model test of `M`'s block-word runs against its
//! `BTreeSet` model.
//!
//! The file lives with the crate it tests; `crates/core/Cargo.toml` leaves
//! it to this runner (`autotests = false`), so `cargo test` compiles and
//! runs it once.

#[path = "../crates/core/tests/reach_model.rs"]
mod reach_model;
