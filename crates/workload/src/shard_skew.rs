//! Shard-skew update workloads: anchored traffic with a controllable hot
//! spot.
//!
//! A fraction `hot_fraction` of updates targets a small cluster of
//! `hot_groups` group heads of the synthetic dataset, the rest spread
//! uniformly over the cold groups. The engine commits a round as a serial
//! group commit — each update of the queue's next `MAX_BATCH` evaluated,
//! applied and folded in turn, then one log record and one publication —
//! so the skew decides how often consecutive updates meet in one cone, not
//! how rounds are formed (`rxbench`'s conflict analysis still scores it).
//!
//! Each group alternates insertions of a fresh node under the group head
//! with deletions of the previously inserted node, so every operation has a
//! non-empty, translatable target and consecutive operations on the *same*
//! group depend on each other, while operations on distinct groups are
//! independent — `rxbench`'s anchored-pair op shape, with the group choice
//! skewed instead of round-robin.
//!
//! Inserted payloads are drawn from a small domain (`payload_domain`),
//! modelling realistic categorical value reuse: many insertions carry the
//! *same* payload text in unrelated groups, which a textual conflict key
//! would confuse and a typed `(table, column, value)` footprint tells
//! apart.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rxview_core::XmlUpdate;
use rxview_relstore::{tuple, Value};

/// Tuning of the skewed generator.
#[derive(Debug, Clone)]
pub struct SkewConfig {
    /// Number of top-level groups in the synthetic dataset (anchors are the
    /// group heads `node[id = g * group_size]`).
    pub groups: usize,
    /// `C`-rows per group (the synthetic generator's `group_size`).
    pub group_size: usize,
    /// Fraction of updates aimed at the hot cluster (0.0 = uniform).
    pub hot_fraction: f64,
    /// Number of groups in the hot cluster.
    pub hot_groups: usize,
    /// Distinct payload values inserted nodes draw from (small = realistic
    /// categorical reuse; textual conflict keys serialize equal payloads,
    /// typed footprints do not).
    pub payload_domain: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            groups: 512,
            group_size: 40,
            hot_fraction: 0.9,
            hot_groups: 4,
            payload_domain: 32,
            seed: 7,
        }
    }
}

/// Skewed generator state: per-group insert/delete alternation plus the
/// skewed group sampler.
#[derive(Debug)]
pub struct ShardSkewGen {
    cfg: SkewConfig,
    rng: StdRng,
    /// Per group: the fresh id inserted and not yet deleted, if any.
    live_fresh: Vec<Option<i64>>,
    next_fresh: i64,
}

impl ShardSkewGen {
    /// A generator over `cfg.groups` anchor cones.
    pub fn new(cfg: SkewConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        ShardSkewGen {
            live_fresh: vec![None; cfg.groups],
            next_fresh: 3_000_000_000,
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
    /// group's head, or — if that group still has a fresh node live — the
    /// deletion of it.
    pub fn op(&mut self) -> XmlUpdate {
        let g = self.group();
        let head = (g * self.cfg.group_size) as i64;
        match self.live_fresh[g].take() {
            Some(fresh) => XmlUpdate::delete(&format!("node[id={head}]/sub/node[id={fresh}]"))
                .expect("generated path parses"),
            None => {
                self.next_fresh += 1;
                let fresh = self.next_fresh;
                self.live_fresh[g] = Some(fresh);
                // Payloads reuse a small value domain across groups —
                // unrelated inserts share payload text, which only a typed
                // footprint can tell apart from a real conflict.
                let payload = self.rng.gen_range(0..self.cfg.payload_domain.max(1) as u64) as i64;
                XmlUpdate::insert(
                    "node",
                    tuple![fresh, Value::Int(payload)],
                    &format!("node[id={head}]/sub"),
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

    #[test]
    fn hot_fraction_concentrates_traffic() {
        let mut gen = ShardSkewGen::new(SkewConfig {
            groups: 64,
            hot_groups: 2,
            hot_fraction: 0.9,
            ..SkewConfig::default()
        });
        let ops = gen.ops(2000);
        let hot = ops
            .iter()
            .filter(|u| {
                let p = u.path().to_string();
                // Heads 0 and 40 (group_size 40).
                p.starts_with("node[id=\"0\"]") || p.starts_with("node[id=\"40\"]")
            })
            .count();
        assert!(hot > 1600, "expected ~90% hot traffic, got {hot}/2000");
    }

    #[test]
    fn uniform_when_cold() {
        let mut gen = ShardSkewGen::new(SkewConfig {
            groups: 8,
            hot_fraction: 0.0,
            ..SkewConfig::default()
        });
        let ops = gen.ops(800);
        assert_eq!(ops.len(), 800);
        // Inserts and deletes alternate per group, so roughly half each.
        let inserts = ops.iter().filter(|u| u.is_insert()).count();
        assert!((300..=500).contains(&inserts), "mixed ops, got {inserts}");
    }
}
