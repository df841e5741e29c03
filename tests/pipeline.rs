//! Tier-1 run of the engine's stage-gated round-lifecycle tests, so that
//! the default `cargo test -q` holds them — ack per round, no plan while a
//! round is unpublished, recycled ids across the rounds of one commit
//! (ROADMAP item 6a): the tests live with the crate they test.

#[path = "../crates/engine/tests/pipeline.rs"]
mod pipeline;
