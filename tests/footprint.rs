//! The one run of the engine's footprint battery: the conflict analysis'
//! planned footprints held to the writes the translation realizes, and its
//! subtree walk to the translation's.
//!
//! The file lives with the crate it tests; `crates/engine/Cargo.toml`
//! leaves it to this runner (`autotests = false`), so `cargo test` compiles
//! and runs it once.

#[path = "../crates/engine/tests/footprint.rs"]
mod footprint;
