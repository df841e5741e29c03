//! Tier-1 run of the randomized tests of `L` and `M` on synthetic DAGs, so
//! that the default `cargo test -q` holds Algorithm Reach and the
//! descendant walk — over free and recycled ids — to the naive closure and
//! the checkpoint's bulk load: the test lives with the crate it tests.

#[path = "../crates/core/tests/random_dag.rs"]
mod random_dag;
