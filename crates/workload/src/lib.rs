//! `rxview-workload` — the datasets and update workloads of the paper's
//! evaluation (§5):
//!
//! - [`synthetic_database`] / [`synthetic_atg`]: the `C`/`F`/`H`/`CU`
//!   generator, the recursive view of Fig.10(a), and Fig.10(b)-style
//!   dataset statistics ([`dataset_stats`]);
//! - [`WorkloadGen`]: the W1/W2/W3 insertion and deletion workloads;
//! - [`ShardSkewGen`]: anchor-cone-partitioned update streams with a
//!   controllable hot spot, for the engine's round-width sweeps;
//! - [`DescendantGen`]: mixed anchored + `//`-headed update streams over hot
//!   and cold anchor cones, for the type-indexed `//` planning sweeps;
//! - [`ChurnGen`]: steady delete / re-insert traffic with fresh keys, for
//!   the bounded-state soaks;
//! - [`mixed_updates`] and the id-independent state fingerprints
//!   ([`edge_fingerprint`], [`base_fingerprint`]) for the equivalence and
//!   crash-recovery batteries (their sequential oracle is
//!   `rxview_reference::reference_apply`);
//! - the registrar running example is re-exported from `rxview-atg`.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod churn;
mod descendant;
mod path_cache;
mod recovery;
mod shard_skew;
mod synthetic;
mod workloads;

pub use churn::{ChurnGen, NODES_PER_INSERT};
pub use descendant::{DescendantConfig, DescendantGen};
pub use recovery::{
    assert_observationally_equal, base_fingerprint, edge_fingerprint, mixed_updates,
};
pub use rxview_atg::{registrar_atg, registrar_database};
pub use shard_skew::{ShardSkewGen, SkewConfig};
pub use synthetic::{
    dataset_stats, detached_chain_heads, synthetic_atg, synthetic_database, DatasetStats,
    SyntheticConfig,
};
pub use workloads::{WorkloadClass, WorkloadGen};
