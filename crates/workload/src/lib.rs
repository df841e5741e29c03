//! `rxview-workload` — the datasets and update workloads of the paper's
//! evaluation (§5):
//!
//! - [`synthetic_database`] / [`synthetic_atg`]: the `C`/`F`/`H`/`CU`
//!   generator, the recursive view of Fig.10(a), and Fig.10(b)-style
//!   dataset statistics ([`dataset_stats`]);
//! - [`WorkloadGen`]: the W1/W2/W3 insertion and deletion workloads;
//! - [`ShardSkewGen`]: anchored insert/delete streams whose traffic
//!   concentrates on a controllable hot spot of group heads;
//! - [`DescendantGen`]: mixed anchored + `//`-headed update streams over hot
//!   and cold group heads, whose `//` anchors are resolved from the
//!   `gen_A` tables and evaluated over their cones;
//! - [`ChurnGen`]: steady delete / re-insert traffic with fresh keys, for
//!   the bounded-state soaks;
//! - [`mixed_updates`] and [`assert_observationally_equal`] (on
//!   `XmlViewSystem::observed_digest`) for the equivalence and
//!   crash-recovery batteries (their sequential oracle is
//!   `rxview_reference::reference_apply`); the string fingerprints
//!   ([`edge_fingerprint`], [`base_fingerprint`]) remain for `rxbench`
//!   alone;
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
