//! The one run of the engine's crash-recovery battery: recovery held to the
//! acknowledged-prefix oracle — torn tails at every byte, both log formats'
//! checked-in directories, one fold per replayed record.
//!
//! The file lives with the crate it tests; `crates/engine/Cargo.toml`
//! leaves it to this runner (`autotests = false`), so `cargo test` compiles
//! and runs it once.

#[path = "../crates/engine/tests/recovery.rs"]
mod recovery;
