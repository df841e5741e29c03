//! The one run of the engine's stage-gated round-lifecycle tests: ack per
//! round, no plan while a round is unpublished, recycled ids across the
//! rounds of one commit.
//!
//! The file lives with the crate it tests; `crates/engine/Cargo.toml`
//! leaves it to this runner (`autotests = false`), so `cargo test` compiles
//! and runs it once.

#[path = "../crates/engine/tests/pipeline.rs"]
mod pipeline;
