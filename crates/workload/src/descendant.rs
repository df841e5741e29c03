//! Descendant-axis update workloads: mixed anchored and `//`-headed traffic
//! over hot and cold anchor cones.
//!
//! Before the type-indexed reachability prefilter, every leading-`//`
//! update paid a full §3.2 evaluation. This generator produces that
//! stream: per sampled group it alternates inserting a fresh node under the
//! group head with deleting it again (the same op shape as
//! [`crate::shard_skew`]), but a configurable fraction of the operations
//! phrase their target path with a leading `//` — `//node[id=H]/sub`
//! instead of `node[id=H]/sub` — semantically identical updates that
//! exercise the evaluator's `//` anchor resolution. Group sampling is
//! skewed (`hot_fraction` of traffic on `hot_groups` groups), so the sweep
//! covers hot cones (each update rewriting what the one before it wrote)
//! and cold ones alike.
//!
//! A `//node[id=H]`-headed update resolves through the `gen_node` registry
//! to the one concrete anchor, and its evaluation costs that anchor's cone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rxview_core::XmlUpdate;
use rxview_relstore::{tuple, Value};

/// Tuning of the descendant-axis generator.
#[derive(Debug, Clone)]
pub struct DescendantConfig {
    /// Number of top-level groups in the synthetic dataset (anchors are the
    /// group heads `node[id = g * group_size]`).
    pub groups: usize,
    /// `C`-rows per group (the synthetic generator's `group_size`).
    pub group_size: usize,
    /// Fraction of operations phrased with a leading `//` (0.0 = all
    /// anchored, 1.0 = all `//`-headed).
    pub descendant_fraction: f64,
    /// Fraction of updates aimed at the hot cluster (0.0 = uniform).
    pub hot_fraction: f64,
    /// Number of groups in the hot cluster.
    pub hot_groups: usize,
    /// Distinct payload values inserted nodes draw from.
    pub payload_domain: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DescendantConfig {
    fn default() -> Self {
        DescendantConfig {
            groups: 256,
            group_size: 40,
            descendant_fraction: 0.6,
            hot_fraction: 0.3,
            hot_groups: 8,
            payload_domain: 32,
            seed: 13,
        }
    }
}

/// Generator state: per-group insert/delete alternation plus the skewed
/// group sampler and the anchored/`//` phrasing choice.
#[derive(Debug)]
pub struct DescendantGen {
    cfg: DescendantConfig,
    rng: StdRng,
    /// Per group: the fresh id inserted and not yet deleted, if any.
    live_fresh: Vec<Option<i64>>,
    next_fresh: i64,
}

impl DescendantGen {
    /// A generator over `cfg.groups` anchor cones.
    pub fn new(cfg: DescendantConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        DescendantGen {
            live_fresh: vec![None; cfg.groups],
            next_fresh: 4_000_000_000,
            rng,
            cfg,
        }
    }

    /// Samples the next target group under the configured skew.
    fn group(&mut self) -> usize {
        let hot = self.cfg.hot_groups.clamp(1, self.cfg.groups);
        if self.rng.gen_range(0..1000u64) < (self.cfg.hot_fraction * 1000.0) as u64 {
            self.rng.gen_range(0..hot as u64) as usize
        } else {
            self.rng.gen_range(0..self.cfg.groups as u64) as usize
        }
    }

    /// The next update: an insertion of a fresh node under the sampled
    /// group's head (or the deletion of the group's previous fresh node),
    /// phrased `//`-headed with probability `descendant_fraction`.
    pub fn op(&mut self) -> XmlUpdate {
        let g = self.group();
        let head = (g * self.cfg.group_size) as i64;
        let descendant =
            self.rng.gen_range(0..1000u64) < (self.cfg.descendant_fraction * 1000.0) as u64;
        let prefix = if descendant { "//" } else { "" };
        match self.live_fresh[g].take() {
            Some(fresh) => {
                XmlUpdate::delete(&format!("{prefix}node[id={head}]/sub/node[id={fresh}]"))
                    .expect("generated path parses")
            }
            None => {
                self.next_fresh += 1;
                let fresh = self.next_fresh;
                self.live_fresh[g] = Some(fresh);
                let payload = self.rng.gen_range(0..self.cfg.payload_domain.max(1) as u64) as i64;
                XmlUpdate::insert(
                    "node",
                    tuple![fresh, Value::Int(payload)],
                    &format!("{prefix}node[id={head}]/sub"),
                )
                .expect("generated op parses")
            }
        }
    }

    /// A batch of `n` updates.
    pub fn ops(&mut self, n: usize) -> Vec<XmlUpdate> {
        (0..n).map(|_| self.op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_xmlkit::xpath::StepKind;

    /// Whether an update's path leads with `//`.
    fn is_descendant_headed(u: &XmlUpdate) -> bool {
        matches!(
            u.path().steps.first().map(|s| &s.kind),
            Some(StepKind::DescendantOrSelf)
        )
    }

    #[test]
    fn fraction_controls_phrasing() {
        let mut gen = DescendantGen::new(DescendantConfig {
            groups: 32,
            descendant_fraction: 0.5,
            ..DescendantConfig::default()
        });
        let ops = gen.ops(2000);
        let desc = ops.iter().filter(|u| is_descendant_headed(u)).count();
        assert!(
            (700..=1300).contains(&desc),
            "expected ~50% `//`-headed, got {desc}/2000"
        );
        // Deterministic given the seed.
        let mut gen2 = DescendantGen::new(DescendantConfig {
            groups: 32,
            descendant_fraction: 0.5,
            ..DescendantConfig::default()
        });
        assert_eq!(ops, gen2.ops(2000));
    }

    #[test]
    fn extremes_are_pure() {
        let mut all_desc = DescendantGen::new(DescendantConfig {
            descendant_fraction: 1.0,
            ..DescendantConfig::default()
        });
        assert!(all_desc.ops(100).iter().all(is_descendant_headed));
        let mut none = DescendantGen::new(DescendantConfig {
            descendant_fraction: 0.0,
            ..DescendantConfig::default()
        });
        assert!(!none.ops(100).iter().any(is_descendant_headed));
    }

    #[test]
    fn alternates_insert_delete_per_group() {
        let mut gen = DescendantGen::new(DescendantConfig {
            groups: 4,
            hot_fraction: 0.0,
            ..DescendantConfig::default()
        });
        let ops = gen.ops(400);
        let inserts = ops.iter().filter(|u| u.is_insert()).count();
        assert!((120..=280).contains(&inserts), "mixed ops, got {inserts}");
    }
}
