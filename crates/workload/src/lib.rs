//! `rxview-workload` — the datasets and update workloads of the paper's
//! evaluation (§5):
//!
//! - [`synthetic`]: the `C`/`F`/`H`/`CU` generator, the recursive view of
//!   Fig.10(a), and Fig.10(b)-style dataset statistics;
//! - [`workloads`]: the W1/W2/W3 insertion and deletion workloads;
//! - [`path_cache`]: the parsed-XPath cache the generators draw from;
//! - [`shard_skew`]: anchor-cone-partitioned update streams with a
//!   controllable hot spot, for the engine's round-width sweeps;
//! - [`descendant`]: mixed anchored + `//`-headed update streams over hot
//!   and cold anchor cones, for the type-indexed `//` planning sweeps;
//! - [`churn`]: steady delete / re-insert traffic with fresh keys, for the
//!   bounded-state soaks;
//! - [`recovery`]: mixed workloads and id-independent state fingerprints
//!   for the equivalence and crash-recovery batteries (their sequential
//!   oracle is `rxview_reference::reference_apply`);
//! - the registrar running example is re-exported from `rxview-atg`.

#![warn(missing_docs)]

pub mod churn;
pub mod descendant;
pub mod path_cache;
pub mod recovery;
pub mod shard_skew;
pub mod synthetic;
pub mod workloads;

pub use churn::{ChurnGen, NODES_PER_INSERT};
pub use descendant::{is_descendant_headed, DescendantConfig, DescendantGen};
pub use path_cache::PathCache;
pub use recovery::{
    assert_observationally_equal, base_fingerprint, edge_fingerprint, mixed_updates,
};
pub use rxview_atg::{registrar_atg, registrar_database};
pub use shard_skew::{ShardSkewGen, SkewConfig};
pub use synthetic::{
    dataset_stats, detached_chain_heads, synthetic_atg, synthetic_database, synthetic_dtd,
    DatasetStats, SyntheticConfig,
};
pub use workloads::{WorkloadClass, WorkloadGen};
