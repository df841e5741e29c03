//! One benchmark session: `setup`, `burst`, `trickle`, `serve`, `recover`.
//!
//! All load comes from the one thread that runs this file (the engine's own
//! shard and checkpoint threads are the program's business). Nothing is
//! paced by sleeping. Every phase is the same for every workload; only the
//! traffic, the view size and the `EngineConfig` differ.

use crate::calibrate::QUIET_STEAL;
use crate::catalogue::Measured;
use crate::machine::CpuTimes;
use crate::streams::{Fnv, Op, Stream};
use crate::summary::{mean, median, ms, quantile};
use crate::trace::{Recorder, NO_OP};
use crate::workloads::{Spec, Traffic, CHECK_OPS, GROUP_SIZE, SLICES, TAIL_WINDOW};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rxview_atg::Atg;
use rxview_core::{Reachability, TopoOrder, UpdateError, ViewStore, XmlViewSystem};
use rxview_engine::{Durability, Engine, EngineConfig, EngineError, RecoveryReport};
use rxview_relstore::RelError;
use rxview_workload::{
    base_fingerprint, edge_fingerprint, synthetic_atg, synthetic_database, SyntheticConfig,
};
use rxview_xmlkit::{parse_xpath, XPath};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What a session is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload, already scaled.
    pub spec: Spec,
    /// Seed of the op stream and the read keys.
    pub seed: u64,
    /// Record spans and run the traced extras (library replay, ledger,
    /// concurrent diagnostics) instead of the gating measurement.
    pub trace: bool,
    /// Scratch directory for log directories and the trace dump.
    pub out_dir: PathBuf,
    /// Keep every op and its outcome for `rxbench verify`.
    pub keep_ops: bool,
}

/// What the oracle compares: inputs, outcomes and final state of a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// Updates submitted, warm-up included.
    pub ops: u64,
    /// Hash of every submitted update and policy, in submission order.
    pub stream_hash: String,
    /// Updates accepted.
    pub accepted: u64,
    /// Hash of the accept/reject bitmap, in submission order.
    pub accept_hash: String,
    /// Hash of the final view's edges (`edge_fingerprint`).
    pub edge_hash: String,
    /// Hash of the final base rows (`base_fingerprint`).
    pub base_hash: String,
}

/// What a session reports.
#[derive(Debug)]
pub struct Outcome {
    /// Measured metrics: the end-to-end ones and the session's timings,
    /// and in a traced run the per-layer ones as well.
    pub metrics: Vec<Measured>,
    /// Operations attempted: updates, reads and recoveries.
    pub attempted: u64,
    /// Operations failed (see `README.md`, "What counts as failed").
    pub failed: u64,
    /// What went wrong, one line each (empty when `failed == 0` and every
    /// state check passed).
    pub problems: Vec<String>,
    /// Inputs, outcomes and final state, for the oracle.
    pub digest: Digest,
    /// Every op with its outcome, when asked for.
    pub ops: Vec<(Op, bool)>,
    /// Human-readable lines of the traced run (ledger, self-time table,
    /// concurrent diagnostics).
    pub report: Vec<String>,
}

/// The dataset: a fixture, not an input — the seed varies the traffic.
pub fn fixture(spec: &Spec) -> SyntheticConfig {
    SyntheticConfig::with_size(spec.groups * GROUP_SIZE)
}

/// A timed engine commit of one window.
pub(crate) struct Window {
    /// Submit + commit + ticket resolution.
    pub(crate) wall: Duration,
    /// The `submit` calls alone.
    submit: Duration,
    /// `commit_pending` alone.
    commit: Duration,
    /// Outcome per op, submission order.
    outcomes: Vec<bool>,
}

impl Window {
    pub(crate) fn accepted(&self) -> usize {
        self.outcomes.iter().filter(|&&ok| ok).count()
    }
}

/// What a session has attempted, what failed, and the running digest.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    stream_hash: Fnv,
    accept_hash: Fnv,
    submitted: u64,
    accepted: u64,
    log: Option<Vec<(Op, bool)>>,
    /// Σ wall of every timed engine commit (`commit_pending` windows and
    /// `apply_now` rounds) — what the engine's phase ledger should explain.
    commit_wall: Duration,
    /// Σ wall of the untimed check windows (engine commit, one-at-a-time
    /// application and state comparison).
    check_wall: Duration,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// The live engine of a session and everything that feeds and books it.
pub(crate) struct Session {
    pub(crate) spec: Spec,
    pub(crate) rec: Recorder,
    pub(crate) engine: Engine,
    stream: Stream,
    atg: Atg,
    tally: Tally,
}

/// Whether a rejection is the engine failing rather than the paper's
/// semantics refusing the update: lost updates, failed log appends and
/// failed folds all surface as `Rel(MalformedQuery)`.
fn engine_failure(e: &UpdateError) -> bool {
    matches!(e, UpdateError::Rel(RelError::MalformedQuery(_)))
}

impl Session {
    /// Books one update's outcome. On the two workloads whose every update
    /// is valid by construction a rejection is a failure; on
    /// `paper_classes` rejections are the paper's semantics at work.
    fn book(&mut self, op: &Op, outcome: Result<(), EngineError>) -> bool {
        let t = &mut self.tally;
        t.attempted += 1;
        t.submitted += 1;
        let ok = outcome.is_ok();
        match outcome {
            Ok(()) => t.accepted += 1,
            Err(EngineError::Update(e))
                if !engine_failure(&e) && self.spec.traffic == Traffic::PaperClasses => {}
            Err(e) => t.fail(format!("{}: {e}", op.update)),
        }
        t.accept_hash.write(if ok { b"1" } else { b"0" });
        if let Some(log) = &mut t.log {
            log.push((op.clone(), ok));
        }
        ok
    }

    /// Submits `ops`, commits, resolves every ticket; timed as a whole.
    pub(crate) fn commit_window(&mut self, ops: Vec<Op>, first_op: u32) -> Window {
        for op in &ops {
            self.tally.stream_hash.write_op(op);
        }
        let booked: Vec<Op> = ops.clone();
        let t = Instant::now();
        let span = self.rec.enter("session.window", NO_OP);
        let mut tickets = Vec::with_capacity(ops.len());
        for (i, op) in ops.into_iter().enumerate() {
            let s = self.rec.enter("engine.submit", first_op + i as u32);
            tickets.push(self.engine.submit(op.update, op.policy));
            self.rec.exit(s);
        }
        let submit = t.elapsed();
        let s = self.rec.enter("engine.commit_pending", NO_OP);
        self.engine.commit_pending();
        self.rec.exit(s);
        let commit = t.elapsed() - submit;
        let s = self.rec.enter("engine.ticket.try_wait", NO_OP);
        let results: Vec<Result<(), EngineError>> = tickets
            .into_iter()
            .map(|t| match t {
                Ok(ticket) => match ticket.try_wait() {
                    Some(r) => r.map(drop),
                    None => Err(EngineError::Canceled), // commit left it queued
                },
                Err(e) => Err(e),
            })
            .collect();
        self.rec.exit(s);
        self.rec.exit(span);
        let wall = t.elapsed();
        self.tally.commit_wall += wall;
        let outcomes: Vec<bool> = booked
            .iter()
            .zip(results)
            .map(|(op, r)| self.book(op, r))
            .collect();
        Window {
            wall,
            submit,
            commit,
            outcomes,
        }
    }

    /// The next `n` windows of `w` updates, sampled (where the generator
    /// samples) against the view as it stands now.
    pub(crate) fn view_windows(&mut self, n: usize, w: usize) -> Vec<Vec<Op>> {
        let snap = self.engine.snapshot();
        self.stream.windows(snap.system().view(), n, w)
    }

    /// The next window of `w` updates.
    pub(crate) fn view_window(&mut self, w: usize) -> Vec<Op> {
        let snap = self.engine.snapshot();
        self.stream.window(snap.system().view(), w)
    }

    /// One untimed window that the library applies one update at a time
    /// (`XmlViewSystem::apply`, the oracle `rxbench verify` uses for whole
    /// sessions) to a private copy of the state the engine commits it on:
    /// every run, whatever its seed, so checks a sample of the engine's
    /// accept/reject decisions, and with `compare_state` the state they
    /// leave, against the reference. The copy is alive while the engine
    /// commits, which is why no timed window doubles as a check.
    fn check_window(&mut self, compare_state: bool) {
        let t = Instant::now();
        let mut lib = self.engine.snapshot().system().clone();
        let ops = self.view_window(CHECK_OPS);
        let win = self.commit_window(ops.clone(), 0);
        for (i, (op, engine_ok)) in ops.iter().zip(&win.outcomes).enumerate() {
            let lib_ok = lib.apply(&op.update, op.policy).is_ok();
            if lib_ok != *engine_ok {
                self.tally.fail(format!(
                    "check op {i} ({}): engine {}, one-at-a-time application {}",
                    op.update,
                    if *engine_ok { "accepted" } else { "rejected" },
                    if lib_ok { "accepts" } else { "rejects" },
                ));
            }
        }
        if compare_state && state_hashes(&lib) != state_hashes(self.engine.snapshot().system()) {
            self.tally
                .fail("check window: engine state differs from one-at-a-time application".into());
        }
        self.tally.check_wall += t.elapsed();
    }
}

/// Publishes the fixture and wraps it in a durable engine. With the
/// recorder on, the layers are built one by one so each gets a span.
fn build_engine(spec: &Spec, dir: &Path, rec: &mut Recorder) -> (Engine, Atg) {
    let db = rec.time("workload.synthetic_database", NO_OP, || {
        synthetic_database(&fixture(spec))
    });
    let atg = synthetic_atg(&db).expect("the synthetic ATG is well-formed");
    let sys = if rec.enabled() {
        let vs = rec.time("atg.publish", NO_OP, || {
            ViewStore::publish(atg.clone(), &db).expect("fixture publishes")
        });
        let topo = rec.time("core.topo.compute", NO_OP, || TopoOrder::compute(vs.dag()));
        let reach = rec.time("core.reach.compute", NO_OP, || {
            Reachability::compute(vs.dag(), &topo)
        });
        XmlViewSystem::from_parts(db, vs, topo, reach)
    } else {
        XmlViewSystem::new(atg.clone(), db).expect("fixture publishes")
    };
    let _ = std::fs::remove_dir_all(dir);
    let engine = rec.time("engine.with_durability", NO_OP, || {
        Engine::with_durability(sys, spec.engine_config(), dir).expect("fresh log directory")
    });
    (engine, atg)
}

/// Zipf(0.99)-ranked group heads and the four anchored read shapes.
pub(crate) struct Reads {
    rng: StdRng,
    keys: Vec<i64>,
    cdf: Vec<f64>,
}

impl Reads {
    /// Popularity ranks are fixed (group 0's head is the hottest key) and
    /// the seed drives only the draws: which keys are hot decides what a
    /// read costs, so a seed-dependent ranking would make every seed a
    /// different workload rather than another sample of the same one.
    pub(crate) fn new(groups: usize, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed ^ 0x05EE_D0F4_EAD5);
        let keys: Vec<i64> = (0..groups).map(|g| (g * GROUP_SIZE) as i64).collect();
        let mut acc = 0.0;
        let cdf = (0..keys.len())
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(0.99);
                acc
            })
            .collect();
        Reads { rng, keys, cdf }
    }

    fn key(&mut self) -> i64 {
        let total = *self.cdf.last().expect("at least one group");
        let u = self.rng.gen_range(0..u32::MAX) as f64 / u32::MAX as f64 * total;
        self.keys[self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1)]
    }

    /// The `i`-th read of a cycle: shapes cycle, keys are drawn.
    pub(crate) fn path(&mut self, i: usize) -> (usize, XPath) {
        let k = self.key();
        let shape = i % 4;
        let text = match shape {
            0 => format!("node[id={k}]"),
            1 => format!("node[id={k}]/sub/node"),
            2 => format!("node[id={k}]/payload"),
            _ => format!("node[id={k}]//node"),
        };
        (shape, parse_xpath(&text).expect("generated path parses"))
    }
}

fn hash_pairs(pairs: &std::collections::BTreeSet<(String, String)>) -> String {
    let mut h = Fnv::default();
    for (a, b) in pairs {
        h.write(a.as_bytes());
        h.write(b"\x1f");
        h.write(b.as_bytes());
        h.write(b"\x1e");
    }
    h.hex()
}

/// `(edge hash, base hash)` of a system state.
pub fn state_hashes(sys: &XmlViewSystem) -> (String, String) {
    (
        hash_pairs(&edge_fingerprint(sys)),
        hash_pairs(&base_fingerprint(sys)),
    )
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".rxlog"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Constructions `setup_s` is the median of.
const SETUP_REPS: usize = 3;

/// An update's kind, for latency accounting: path class, insert or delete,
/// accepted or rejected.
type Kind = (&'static str, bool, bool);

/// The raw samples of the interleaved phases.
#[derive(Default)]
struct Samples {
    /// Accepted ÷ wall per burst window.
    burst_rates: Vec<f64>,
    burst_accepted: usize,
    burst_wall: Duration,
    /// `apply_now` latency per trickle update.
    ack_ms: Vec<(Kind, f64)>,
    /// Accepted ÷ wall per commit under a pinned snapshot.
    serve_rates: Vec<f64>,
    /// Read latency per shape.
    read_ms: [Vec<f64>; 4],
    /// Reads ÷ (read time + pin-release time) per serve cycle.
    read_rates: Vec<f64>,
    /// Wall of each `drop(pin)`.
    release_ms: Vec<f64>,
    // Traced run only: burst window walls with the recorder on and off,
    // per-update submit time and `commit_pending` wall per window.
    walls_traced: Vec<f64>,
    walls_plain: Vec<f64>,
    submit_us: Vec<f64>,
    commit_ms: Vec<f64>,
}

impl Samples {
    /// `(p50, p90)` of the trickle latencies. Update kinds differ in cost
    /// (a delete's fold is not an insert's, a rejection stops early), so
    /// the mix is multi-modal and a plain median flips between modes: p50
    /// is the kinds' medians averaged by their share of the samples, and
    /// p90 is taken over all samples after centring each on its kind's
    /// median.
    fn ack_quantiles(&self) -> (f64, f64) {
        let mut kinds: Vec<(Kind, Vec<f64>)> = Vec::new();
        for (kind, v) in &self.ack_ms {
            match kinds.iter_mut().find(|(k, _)| k == kind) {
                Some((_, vs)) => vs.push(*v),
                None => kinds.push((*kind, vec![*v])),
            }
        }
        let medians: Vec<(Kind, f64)> = kinds.iter().map(|(k, vs)| (*k, median(vs))).collect();
        let p50 = kinds
            .iter()
            .zip(&medians)
            .map(|((_, vs), (_, m))| m * vs.len() as f64)
            .sum::<f64>()
            / self.ack_ms.len() as f64;
        let centred: Vec<f64> = self
            .ack_ms
            .iter()
            .map(|(kind, v)| {
                let (_, m) = medians.iter().find(|(k, _)| k == kind).expect("seen above");
                v - m
            })
            .collect();
        (p50, p50 + quantile(&centred, 0.9))
    }
}

/// `setup`: [`SETUP_REPS`] constructions back to back, the last one kept
/// (the traced run builds once, layer by layer). Returns the session and each
/// construction's wall in seconds.
fn setup(opts: &Options, dir: &Path, mut rec: Recorder) -> (Session, Vec<f64>) {
    let spec = &opts.spec;
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut walls = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take()); // the previous engine's teardown is not set-up
        let t = Instant::now();
        let span = rec.enter("session.setup", NO_OP);
        let (engine, atg) = build_engine(spec, dir, &mut rec);
        let stream = rec.time("workload.stream", NO_OP, || {
            Stream::new(spec, opts.seed, engine.snapshot().system().view())
        });
        let mut s = Session {
            spec: spec.clone(),
            rec: Recorder::new(false),
            engine,
            stream,
            atg,
            tally: Tally {
                log: opts.keep_ops.then(Vec::new),
                ..Tally::default()
            },
        };
        // Two warm-up windows: plan and template caches fill, the pair
        // rings reach their steady state.
        for ops in s.view_windows(2, spec.window) {
            s.commit_window(ops, 0);
        }
        rec.exit(span);
        walls.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let mut s = kept.expect("at least one construction");
    s.rec = rec;
    (s, walls)
}

/// What the traced run's library replay needs from the first burst slice:
/// the state it started in (a copy-on-write clone — the engine's own
/// snapshots share it), its ops, and the engine's outcome for each.
#[derive(Default)]
struct ReplayInput {
    base: Option<XmlViewSystem>,
    ops: Vec<Op>,
    outcomes: Vec<bool>,
}

/// `burst`, `trickle` and `serve`, interleaved in [`SLICES`] rounds. A slow
/// spell of the machine (they last seconds to minutes on a shared box)
/// then hits a part of every metric's samples instead of all of one
/// metric's, and the quartile statistics look past it.
fn interleaved(s: &mut Session, opts: &Options) -> (Samples, ReplayInput) {
    let spec = opts.spec.clone();
    let w = spec.window;
    let mut reads = Reads::new(spec.groups, opts.seed);
    let mut b = Samples::default();
    let mut replay = ReplayInput::default();
    for slice in 0..SLICES {
        let share = |n: usize| n * (slice + 1) / SLICES - n * slice / SLICES;
        s.rec.set_enabled(false);
        s.check_window(slice + 1 == SLICES);
        if opts.trace && slice == 0 {
            replay.base = Some(s.engine.snapshot().system().clone());
        }

        // burst: closed loop, no reader.
        for ops in s.view_windows(share(spec.burst_windows), w) {
            // The traced run records every other window, so the same run
            // yields traced and untraced walls of the same op mix.
            let i = b.burst_rates.len();
            let traced = opts.trace && i % 2 == 0;
            s.rec.set_enabled(traced);
            if opts.trace && slice == 0 {
                replay.ops.extend(ops.iter().cloned());
            }
            let win = s.commit_window(ops, (i * w) as u32);
            if opts.trace {
                let walls = if traced {
                    &mut b.walls_traced
                } else {
                    &mut b.walls_plain
                };
                walls.push(win.wall.as_secs_f64());
                b.submit_us.push(win.submit.as_secs_f64() * 1e6 / w as f64);
                b.commit_ms.push(ms(win.commit));
                if slice == 0 {
                    replay.outcomes.extend(&win.outcomes);
                }
            }
            b.burst_rates
                .push(win.accepted() as f64 / win.wall.as_secs_f64());
            b.burst_accepted += win.accepted();
            b.burst_wall += win.wall;
        }
        s.rec.set_enabled(opts.trace);

        // trickle: one update per round through `apply_now`.
        for op in s.view_window(share(spec.trickle_ops)) {
            s.tally.stream_hash.write_op(&op);
            let booked = op.clone();
            let t = Instant::now();
            let span = s.rec.enter("engine.apply_now", NO_OP);
            let r = s.engine.apply_now(op.update, op.policy);
            s.rec.exit(span);
            let wall = t.elapsed();
            s.tally.commit_wall += wall;
            let accepted = s.book(&booked, r.map(drop));
            b.ack_ms.push((
                (booked.class, booked.update.is_insert(), accepted),
                ms(wall),
            ));
        }

        // serve: commits under a pinned snapshot, reads after each, then
        // the pin's release — "reads beside writes" with the scheduler
        // taken out.
        for ops in s.view_windows(share(spec.serve_cycles), w) {
            let pin = s.engine.snapshot();
            let win = s.commit_window(ops, 0);
            b.serve_rates
                .push(win.accepted() as f64 / win.wall.as_secs_f64());
            let mut cycle_wall = Duration::ZERO;
            for r in 0..spec.serve_reads {
                let (shape, path) = reads.path(r);
                let t = Instant::now();
                let span = s.rec.enter("engine.snapshot+eval", NO_OP);
                let snap = s.engine.snapshot();
                let eval = snap.eval(&path);
                drop(snap);
                s.rec.exit(span);
                let wall = t.elapsed();
                cycle_wall += wall;
                b.read_ms[shape].push(ms(wall));
                s.tally.attempted += 1;
                // Group heads are permanent: a point read must find its node.
                if shape == 0 && eval.is_empty() {
                    s.tally.fail(format!("point read {path} selected nothing"));
                }
            }
            let t = Instant::now();
            let span = s.rec.enter("snapshot.release", NO_OP);
            drop(pin);
            s.rec.exit(span);
            let wall = t.elapsed();
            cycle_wall += wall;
            b.release_ms.push(ms(wall));
            b.read_rates
                .push(spec.serve_reads as f64 / cycle_wall.as_secs_f64());
        }
    }
    (b, replay)
}

/// What the first half of `recover` measures.
struct Tail {
    checkpoint_ms: f64,
    sync_wal_ms: f64,
    wal_bytes_per_update: f64,
}

/// `recover`, before the crash: checkpoint, then a logged tail of updates
/// that recovery will have to replay, synced to disk.
fn checkpoint_and_tail(s: &mut Session, dir: &Path) -> Tail {
    // The checkpoint deletes the segments it covers: what the session
    // logged so far is read off before it, the tail's segment after.
    let logged_before = wal_bytes(dir);
    let t = Instant::now();
    let span = s.rec.enter("engine.checkpoint_now", NO_OP);
    if let Err(e) = s.engine.checkpoint_now() {
        s.tally.fail(format!("checkpoint_now: {e}"));
    }
    s.rec.exit(span);
    let checkpoint_ms = ms(t.elapsed());
    for ops in s.view_windows(s.spec.tail_windows, TAIL_WINDOW) {
        s.commit_window(ops, 0);
    }
    let t = Instant::now();
    let span = s.rec.enter("engine.sync_wal", NO_OP);
    if let Err(e) = s.engine.sync_wal() {
        s.tally.fail(format!("sync_wal: {e}"));
    }
    s.rec.exit(span);
    Tail {
        checkpoint_ms,
        sync_wal_ms: ms(t.elapsed()),
        wal_bytes_per_update: (logged_before + wal_bytes(dir)) as f64
            / s.tally.accepted.max(1) as f64,
    }
}

/// The state recovery must reproduce.
struct PreCrash {
    epoch: u64,
    hashes: (String, String),
}

/// `recover`, after the crash: times `Engine::recover` + first `snapshot()`
/// on each copy of the log directory and checks what came back. Recovery
/// only reads its directory (durability off), so what is timed is
/// checkpoint load plus replay of the tail, not the re-anchoring checkpoint
/// a durable restart would write on top.
fn recover_copies(
    spec: &Spec,
    atg: &Atg,
    copies: &[PathBuf],
    want: &PreCrash,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> (Vec<f64>, Option<RecoveryReport>) {
    let config = EngineConfig {
        durability: Durability::Off,
        ..spec.engine_config()
    };
    let mut walls = Vec::with_capacity(copies.len());
    let mut last_report = None;
    for copy in copies {
        tally.attempted += 1;
        let atg = atg.clone();
        let t = Instant::now();
        let span = rec.enter("engine.recover", NO_OP);
        let recovered = Engine::recover(atg, copy, config.clone()).map(|(engine, report)| {
            let first = engine.snapshot();
            (engine, report, first)
        });
        rec.exit(span);
        walls.push(t.elapsed().as_secs_f64());
        match recovered {
            Ok((_engine, report, snap)) => {
                let mut bad = Vec::new();
                if snap.epoch() != want.epoch {
                    bad.push(format!("epoch {} != {}", snap.epoch(), want.epoch));
                }
                if state_hashes(snap.system()) != want.hashes {
                    bad.push("state differs from the pre-crash state".into());
                }
                if let Err(e) = snap.system().consistency_check() {
                    bad.push(format!("inconsistent: {e}"));
                }
                if !bad.is_empty() {
                    tally.fail(format!("recovery: {}", bad.join("; ")));
                }
                last_report = Some(report);
            }
            Err(e) => tally.fail(format!("recovery failed: {e}")),
        }
    }
    (walls, last_report)
}

/// Runs one session.
pub fn run(opts: &Options) -> Outcome {
    let spec = &opts.spec;
    let mut m: Vec<Measured> = Vec::new();
    let mut report: Vec<String> = Vec::new();
    // Log directories are this process's own, so sessions can run side by
    // side (the test suite's do).
    let scratch = opts.out_dir.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch directory is writable");
    let dir = scratch.join("log");

    let machine = CpuTimes::now();
    let mut phase_clock = Instant::now();
    let mut phase_walls: Vec<(&str, f64)> = Vec::new();
    let mut lap = |name: &'static str| {
        phase_walls.push((name, phase_clock.elapsed().as_secs_f64()));
        phase_clock = Instant::now();
    };

    let (mut s, setup_s) = setup(opts, &dir, Recorder::new(opts.trace));
    m.push(("setup_s", median(&setup_s)));
    lap("setup");

    let (b, replay) = interleaved(&mut s, opts);
    m.push(("updates_per_s", quantile(&b.burst_rates, 0.75)));
    let (ack_p50, ack_p90) = b.ack_quantiles();
    m.push(("ack_p50_ms", ack_p50));
    m.push(("ack_p90_ms", ack_p90));
    m.push(("serve_updates_per_s", quantile(&b.serve_rates, 0.75)));
    m.push(("reads_per_s", quantile(&b.read_rates, 0.75)));
    let shape_medians: Vec<f64> = b.read_ms.iter().map(|v| median(v)).collect();
    m.push(("read_p50_ms", mean(&shape_medians)));
    m.push(("pin_release_ms", median(&b.release_ms)));
    lap("burst + trickle + serve + check windows");
    report.push(format!(
        "check windows: {SLICES} x {CHECK_OPS} updates applied one at a time beside the engine, {:.2} s (untimed)",
        s.tally.check_wall.as_secs_f64()
    ));

    // Traced extras that run on the live engine, before the crash.
    let mut conc = Vec::new();
    if opts.trace {
        crate::conc::diagnose(&mut s, opts.seed, &mut conc, &mut report);
        lap("conc (diagnostic)");
    }

    let tail = checkpoint_and_tail(&mut s, &dir);
    m.push(("wal_bytes_per_update", tail.wal_bytes_per_update));
    lap("recover: checkpoint + tail");

    // The pre-crash state: what recovery must reproduce, and what the
    // oracle compares.
    let final_snap = s.engine.snapshot();
    let want = PreCrash {
        epoch: final_snap.epoch(),
        hashes: state_hashes(final_snap.system()),
    };
    if let Err(e) = final_snap.system().consistency_check() {
        s.tally.fail(format!("final snapshot inconsistent: {e}"));
    }
    drop(final_snap);
    lap("checks: final state");

    // The copies are the crash — only flushed bytes — and the serving
    // engine is gone before recovery starts.
    let ledger = s.engine.stats().report();
    let copies: Vec<PathBuf> = (0..if opts.trace { 1 } else { 3 })
        .map(|i| scratch.join(format!("crash-{i}")))
        .collect();
    for copy in &copies {
        copy_dir(&dir, copy).expect("log directory copies");
    }
    let Session {
        mut rec,
        engine,
        atg,
        mut tally,
        ..
    } = s;
    drop(engine);
    let (recover_s, recovery) = recover_copies(spec, &atg, &copies, &want, &mut rec, &mut tally);
    let _ = std::fs::remove_dir_all(&scratch);
    m.push(("recover_s", median(&recover_s)));
    m.push(("peak_rss_mb", peak_rss_mib()));
    lap("recover: recoveries + their checks");

    if opts.trace {
        let mut layers = conc;
        crate::layers::engine_level(&rec, &ledger, tally.commit_wall, &mut layers, &mut report);
        layers.push(("engine.submit_us", mean(&b.submit_us)));
        layers.push(("engine.commit_pending_ms", mean(&b.commit_ms)));
        layers.push(("engine.checkpoint_now_ms", tail.checkpoint_ms));
        layers.push(("engine.sync_wal_ms", tail.sync_wal_ms));
        layers.push((
            "burst.mean_updates_per_s",
            b.burst_accepted as f64 / b.burst_wall.as_secs_f64(),
        ));
        layers.push((
            "trace.overhead_ratio",
            mean(&b.walls_traced) / mean(&b.walls_plain),
        ));
        if let Some(r) = &recovery {
            layers.push((
                "engine.recover.checkpoint_load_s",
                r.checkpoint_load.as_secs_f64(),
            ));
            layers.push(("engine.recover.replay_s", r.wal_replay.as_secs_f64()));
            layers.push(("engine.recover.replayed_updates", r.replayed_updates as f64));
        }
        let mismatches = crate::layers::library_replay(
            spec,
            &mut rec,
            replay
                .base
                .expect("the traced run kept the burst's start state"),
            &replay.ops,
            &replay.outcomes,
            &mut layers,
            &mut report,
        );
        for line in mismatches {
            tally.fail(line);
        }
        let path = opts.out_dir.join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, rec.to_json().compact()).expect("trace dump is writable");
        report.push(format!(
            "trace: {} spans written to {}",
            rec.spans().len(),
            path.display()
        ));
        m.extend(layers);
        lap("library replay");
    }
    if let Some(stolen) = machine.and_then(CpuTimes::stolen_share_since) {
        report.push(format!(
            "machine: the host stole {:.2} % of the CPU time during the session{}",
            100.0 * stolen,
            if stolen < QUIET_STEAL {
                ""
            } else {
                " - DISTURBED: timings of this run are inflated"
            }
        ));
    }
    report.push(format!(
        "session wall by phase: {}",
        phase_walls
            .iter()
            .map(|(n, s)| format!("{n} {s:.2} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    Outcome {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        digest: Digest {
            ops: tally.submitted,
            stream_hash: tally.stream_hash.hex(),
            accepted: tally.accepted,
            accept_hash: tally.accept_hash.hex(),
            edge_hash: want.hashes.0,
            base_hash: want.hashes.1,
        },
        ops: tally.log.unwrap_or_default(),
        report,
    }
}
