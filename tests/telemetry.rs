//! Tier-1 run of the engine's telemetry tests, so that the default
//! `cargo test -q` holds the metric table to the ledger partition, the
//! flight recording, the exporter and the pinned metric names (ROADMAP
//! item 6a): the tests live with the crate they test.

#[path = "../crates/engine/tests/telemetry.rs"]
mod telemetry;
