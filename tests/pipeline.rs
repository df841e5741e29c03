//! Tier-1 run of the engine's pipelined-commit interleaving tests, so that
//! the default `cargo test -q` holds the stage-gated round lifecycle —
//! disjoint rounds proceed, overlapping rounds stall, publish-mid-plan
//! fixups, ack per round (ROADMAP item 6a): the tests live with the crate
//! they test.

#[path = "../crates/engine/tests/pipeline.rs"]
mod pipeline;
