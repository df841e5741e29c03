//! Tier-1 run of the engine's footprint battery, so that the default
//! `cargo test -q` holds the conflict analysis' planned footprints to the
//! writes the translation realizes, and its subtree walk to the
//! translation's (ROADMAP item 6a): the tests live with the crate they
//! test.

#[path = "../crates/engine/tests/footprint.rs"]
mod footprint;
