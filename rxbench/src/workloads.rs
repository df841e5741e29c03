//! The three workloads: what traffic, how big a view, which engine
//! configuration, and how long each phase runs.

use rxview_engine::{Durability, EngineConfig};

/// `C` rows per top-level group of the synthetic dataset (its
/// `group_size`); group `g`'s permanent head is `node[id = g * 40]`.
pub const GROUP_SIZE: usize = 40;

/// Updates per commit in the `recover` phase's tail.
pub const TAIL_WINDOW: usize = 32;

/// Rounds the `burst`, `trickle` and `serve` phases are interleaved in.
pub const SLICES: usize = 4;

/// Updates of the untimed window at the head of each slice that the
/// library applies one at a time beside the engine (two policy × class
/// cycles of `paper_classes`).
pub const CHECK_OPS: usize = 24;

/// The seed every checked-in oracle file was produced with.
pub const DEFAULT_SEED: u64 = 1;

/// `--seconds` value the phase lengths below are sized for (the
/// `run_seconds` of `BENCHMARK.json`); other values scale the phase
/// lengths linearly.
pub const DEFAULT_SECONDS: u64 = 20;

/// The largest `--seconds` accepted (the driver's ceiling for
/// `run_seconds`); `streams`' tests generate a session this long.
pub const MAX_SECONDS: u64 = 60;

/// Which generator feeds the engine (see [`crate::streams`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Conflict-free anchored insert/delete pairs, round-robin over groups.
    Uniform,
    /// Hot anchors plus `//`-headed phrasing.
    Skew,
    /// The paper's W1/W2/W3 × {delete, insert} classes.
    PaperClasses,
}

/// One workload, fully sized.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// Top-level groups of the dataset (`|C| = groups * 40`).
    pub groups: usize,
    /// Traffic generator.
    pub traffic: Traffic,
    /// Updates per commit (`W`).
    pub window: usize,
    /// `EngineConfig::n_shards`.
    pub n_shards: usize,
    /// `EngineConfig::durability`.
    pub durability: Durability,
    /// `burst` windows.
    pub burst_windows: usize,
    /// `trickle` single-update rounds (`K`).
    pub trickle_ops: usize,
    /// `serve` cycles (`C`).
    pub serve_cycles: usize,
    /// Reads per `serve` cycle (`R`).
    pub serve_reads: usize,
    /// Commits of [`TAIL_WINDOW`] updates after the checkpoint, replayed
    /// by recovery (`T` = `tail_windows * TAIL_WINDOW`).
    pub tail_windows: usize,
    /// Windows the writer commits in one pass of the traced run's
    /// concurrent diagnostics.
    pub conc_windows: usize,
}

const GROUP_COMMIT: Durability = Durability::GroupCommit {
    max_rounds: 8,
    max_micros: 5_000,
};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["uniform_wide", "skew_sharded", "paper_classes"];

/// The full-size workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "uniform_wide" => Spec {
            name: "uniform_wide",
            why: "conflict-free anchored pairs on the largest view: translate, fold (L-splice) and the O(view) publish do the work; planning and WAL cost are amortised away",
            groups: 512,
            traffic: Traffic::Uniform,
            window: 256,
            n_shards: 1,
            durability: GROUP_COMMIT,
            burst_windows: 28,
            trickle_ops: 100,
            serve_cycles: 16,
            serve_reads: 20,
            tail_windows: 5,
            conc_windows: 12,
        },
        "skew_sharded" => Spec {
            name: "skew_sharded",
            why: "90% of traffic on 4 hot anchors, 60% //-headed, 2 shards: analyze/router/fission and the router-shard-publisher path dominate on a half-size view; the only sharded workload",
            groups: 256,
            traffic: Traffic::Skew,
            window: 256,
            n_shards: 2,
            durability: GROUP_COMMIT,
            burst_windows: 24,
            trickle_ops: 100,
            serve_cycles: 16,
            serve_reads: 20,
            tail_windows: 8,
            conc_windows: 8,
        },
        "paper_classes" => Spec {
            name: "paper_classes",
            why: "the paper's W1/W2/W3 x delete/insert classes, Abort/Proceed alternating, fsync per round: unscoped evaluation, side-effect checks, prescribed rejections, WAL on the critical path",
            groups: 256,
            traffic: Traffic::PaperClasses,
            window: 60,
            n_shards: 1,
            durability: Durability::PerRound,
            burst_windows: 32,
            trickle_ops: 200,
            serve_cycles: 24,
            serve_reads: 20,
            tail_windows: 48,
            conc_windows: 8,
        },
        _ => return None,
    })
}

impl Spec {
    /// Phase lengths multiplied by `scale` (the `--seconds` knob), never
    /// below the sample counts the metric definitions need. View size and
    /// window width — what the per-window numbers depend on — stay fixed.
    pub fn scaled(mut self, scale: f64) -> Spec {
        let s = |n: usize, floor: usize| ((n as f64 * scale).round() as usize).max(floor);
        self.burst_windows = s(self.burst_windows, 8);
        self.trickle_ops = s(self.trickle_ops, 20);
        self.serve_cycles = s(self.serve_cycles, 4);
        self.tail_windows = s(self.tail_windows, 1);
        self
    }

    /// The traced run's size: the per-window and per-update numbers it
    /// reports do not need the gating run's sample counts, and it has a
    /// library replay and the concurrent diagnostics to fit in as well.
    pub fn traced(mut self) -> Spec {
        self.trickle_ops = (self.trickle_ops / 2).max(12);
        self.serve_cycles = (self.serve_cycles / 2).max(3);
        self.conc_windows = self.conc_windows * 2 / 3;
        self
    }

    /// The `--smoke` size: view, windows and phase lengths ÷ 8.
    pub fn smoke(mut self) -> Spec {
        self.groups /= 8;
        // Class windows stay whole policy × class cycles (12 ops).
        self.window = match self.traffic {
            Traffic::PaperClasses => 12,
            _ => self.window / 8,
        };
        self.burst_windows = (self.burst_windows / 8).max(4);
        self.trickle_ops = (self.trickle_ops / 8).max(12);
        self.serve_cycles = (self.serve_cycles / 8).max(3);
        self.serve_reads = 8;
        self.tail_windows = (self.tail_windows / 8).max(1);
        self.conc_windows = 4;
        self
    }

    /// The engine configuration of this workload: checkpoints only where
    /// the session asks (no background checkpointer fires mid-phase),
    /// telemetry on (the default users get), everything else default.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            n_shards: self.n_shards,
            durability: self.durability,
            checkpoint_rounds: 0,
            ..EngineConfig::default()
        }
    }

    /// Updates the session submits outside `setup`.
    pub fn session_updates(&self) -> usize {
        self.window * (self.burst_windows + self.serve_cycles)
            + self.trickle_ops
            + SLICES * CHECK_OPS
            + self.tail_windows * TAIL_WINDOW
    }
}
