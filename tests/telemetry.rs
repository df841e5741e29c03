//! The one run of the engine's telemetry tests: the metric table held to
//! the ledger partition, the flight recording and the pinned metric names.
//!
//! The file lives with the crate it tests; `crates/engine/Cargo.toml`
//! leaves it to this runner (`autotests = false`), so `cargo test` compiles
//! and runs it once.

#[path = "../crates/engine/tests/telemetry.rs"]
mod telemetry;
