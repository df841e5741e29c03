//! Tier-1 run of the engine's crash-recovery battery, so that the default
//! `cargo test -q` holds recovery to the acknowledged-prefix oracle — torn
//! tails at every byte, both log formats' checked-in directories, one fold
//! per replayed record (ROADMAP item 6a): the tests live with the crate
//! they test.

#[path = "../crates/engine/tests/recovery.rs"]
mod recovery;
