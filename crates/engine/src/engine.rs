//! The engine: admission queue, snapshot publication, durability wiring.
//!
//! [`Engine::submit`] admits an update on the caller's thread and queues it;
//! [`Engine::commit_pending`] drains the queue into the round pipeline
//! (`publisher`): one commit path — a round is the queue's next prefix, the
//! committing thread evaluates, applies and folds its updates one after
//! another, and one serial tail logs, publishes and acks it.

use crate::checkpoint::Checkpointer;
use crate::logdir::{Log, LogDir};
use crate::obs::{FlightRecorder, MetricSnapshot};
use crate::publisher;
use crate::recovery::{self, RecoverError, RecoveryReport};
use crate::snapshot::Snapshot;
use crate::stats::{self, EngineStats};
use crate::wal::{Durability, LoggedUpdate};
use rxview_core::{
    Admitted, SideEffectPolicy, UpdateError, UpdateOutcome, UpdateReport, XmlUpdate, XmlViewSystem,
};
use std::fmt::{self, Write as _};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

/// Bound of the admission queue: [`Engine::submit`] returns
/// [`EngineError::Saturated`] while this many updates wait for a commit.
pub const MAX_QUEUE: usize = 65_536;

/// Updates per commit round: a round takes the next `MAX_BATCH` queued
/// updates and pays one log record and one snapshot publication for them.
pub const MAX_BATCH: usize = 256;

/// Engine configuration: four fields, three with callers that set them
/// differently, and `n_shards`, which has no effect (ARCHITECTURE.md,
/// "Configuration").
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Has no effect: every round is applied on the committing thread, and
    /// [`MAX_BATCH`] alone sizes it. Kept only because `rxbench` still sets
    /// it (ROADMAP item 4(g) removes it).
    pub n_shards: usize,
    /// Write-ahead logging / fsync policy. Anything but [`Durability::Off`]
    /// requires a log directory — construct with
    /// [`Engine::with_durability`] (or [`Engine::recover`]) instead of
    /// [`Engine::with_config`].
    pub durability: Durability,
    /// Epochs between automatic background checkpoints of a durable engine
    /// (`0` disables automatic checkpoints; the initial checkpoint and
    /// [`Engine::checkpoint_now`] still work). Ignored when durability is
    /// off.
    pub checkpoint_rounds: u64,
    /// Deterministic interleaving gates for the round pipeline
    /// ([`crate::pipeline::StageHooks`]) — a test-only instrument; leave
    /// `None` in production (the default). When set, every round announces
    /// its plan and its publish and blocks on held gates, letting a test
    /// freeze the commit between round `k`'s publish and its acks, or
    /// before round `k+1` is planned.
    pub stage_hooks: Option<crate::pipeline::StageHooks>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_shards: 1,
            durability: Durability::Off,
            checkpoint_rounds: 1024,
            stage_hooks: None,
        }
    }
}

/// Why the engine could not serve a request.
#[derive(Debug)]
pub enum EngineError {
    /// The admission queue is full; commit or retry later.
    Saturated,
    /// The engine dropped the update without an outcome (shutdown).
    Canceled,
    /// The update was processed and rejected.
    Update(UpdateError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Saturated => write!(f, "admission queue is full"),
            EngineError::Canceled => write!(f, "update canceled before commit"),
            EngineError::Update(e) => write!(f, "update rejected: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A claim check for a submitted update's outcome.
#[derive(Debug)]
pub struct UpdateTicket {
    rx: mpsc::Receiver<UpdateOutcome>,
}

impl UpdateTicket {
    /// Blocks until the update's batch commits (or the engine drops it).
    ///
    /// The returned [`UpdateReport`]'s `maintain` is the update's own fold
    /// of `L`.
    pub fn wait(self) -> Result<UpdateReport, EngineError> {
        match self.rx.recv() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(EngineError::Update(e)),
            Err(_) => Err(EngineError::Canceled),
        }
    }

    /// Non-blocking probe: `None` while the update is still queued.
    pub fn try_wait(&self) -> Option<Result<UpdateReport, EngineError>> {
        match self.rx.try_recv() {
            Ok(Ok(report)) => Some(Ok(report)),
            Ok(Err(e)) => Some(Err(EngineError::Update(e))),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(EngineError::Canceled)),
        }
    }
}

/// What one [`Engine::commit_pending`] round did.
#[derive(Debug, Clone, Default)]
pub struct CommitSummary {
    /// Updates drained from the queue.
    pub updates: usize,
    /// Rounds they were committed in.
    pub batches: usize,
    /// Updates accepted.
    pub accepted: usize,
    /// Updates rejected.
    pub rejected: usize,
    /// Maintenance totals across the published rounds of this
    /// commit (each update's report carries its own).
    pub maintain: rxview_core::MaintainReport,
}

/// A queued update, admitted at `submit`: the commit loop evaluates
/// through `admitted`'s plan, and validates and looks up nothing.
pub(crate) struct Pending {
    pub(crate) update: XmlUpdate,
    pub(crate) policy: SideEffectPolicy,
    pub(crate) admitted: Admitted,
    pub(crate) reply: Reply,
}

/// The sending half of an [`UpdateTicket`], and its submission time.
pub(crate) struct Reply {
    tx: mpsc::Sender<UpdateOutcome>,
    submitted_at: Instant,
}

impl Reply {
    /// Delivers `outcome` and counts it, with its submit→resolve latency.
    /// Returns whether it was accepted.
    pub(crate) fn resolve(self, stats: &EngineStats, outcome: UpdateOutcome) -> bool {
        let accepted = outcome.is_ok();
        stats.record_outcome(accepted, self.submitted_at);
        let _ = self.tx.send(outcome); // receiver may have given up
        accepted
    }
}

/// A durable engine's logging + checkpointing machinery.
pub(crate) struct DurabilityState {
    /// The open log, shared with the checkpointer.
    pub(crate) log: Arc<Log>,
    /// Epoch of the last checkpoint *requested* (the trigger's debounce;
    /// completion is the checkpointer's business).
    last_ckpt_request: AtomicU64,
    /// The background checkpoint thread.
    ckpt: Checkpointer,
}

impl DurabilityState {
    /// Anchors `dir` on `sys` at `epoch` and starts a checkpointer behind it.
    /// The anchoring checkpoint is counted here, where the stats object is new.
    fn start(
        dir: LogDir,
        sys: &XmlViewSystem,
        epoch: u64,
        config: &EngineConfig,
        stats: &Arc<EngineStats>,
    ) -> io::Result<Self> {
        let log = Arc::new(dir.anchor(epoch, sys, config.durability)?);
        stats.checkpoints.incr();
        Ok(DurabilityState {
            ckpt: Checkpointer::spawn(Arc::clone(&log), Arc::clone(stats))?,
            log,
            last_ckpt_request: AtomicU64::new(epoch),
        })
    }
}

pub(crate) struct Inner {
    pub(crate) snapshot: RwLock<Arc<Snapshot>>,
    pub(crate) queue: Mutex<Vec<Pending>>,
    pub(crate) commit_mx: Mutex<()>,
    pub(crate) epoch: AtomicU64,
    pub(crate) stats: Arc<EngineStats>,
    pub(crate) config: EngineConfig,
    /// Replay log + checkpointer (durable engines only).
    pub(crate) durability: Option<DurabilityState>,
}

impl Inner {
    /// The latest snapshot without counting as a reader acquisition
    /// (internal commit-path use). The lock guards one pointer swap, which
    /// a panic cannot leave half done, so a poisoned lock is taken as it is.
    pub(crate) fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The admission queue. Each edit of it is one `push` or one `take`,
    /// so a panic cannot leave it torn, and a poisoned lock is taken as it
    /// is.
    fn queue(&self) -> MutexGuard<'_, Vec<Pending>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends the replay-log record for the epoch the *next* [`Inner::publish`]
    /// will stamp — the write-ahead step. Must run with the commit mutex
    /// held (the round pipeline's serial tail does), so the upcoming epoch
    /// is stable. A no-op without durability. On error the round must not
    /// publish; the caller fails its updates instead.
    pub(crate) fn log_round(&self, updates: &[LoggedUpdate]) -> Result<(), String> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        match d.log.wal().and_then(|mut wal| wal.append(epoch, updates)) {
            Ok(out) => {
                self.stats
                    .record_wal_append(out.bytes, out.write_time, out.sync_time, out.reason);
                Ok(())
            }
            Err(e) => Err(format!("write-ahead log append failed: {e}")),
        }
    }

    /// Stamps `sys` with the next epoch and publishes it as the new
    /// snapshot, returning it. The displaced snapshot's handle drops here,
    /// outside the lock: snapshots share every page their successor did not
    /// rewrite, so a last-holder drop frees O(∆), and no snapshot outlives
    /// its readers.
    pub(crate) fn publish(&self, sys: XmlViewSystem) -> Arc<Snapshot> {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.record_state(&sys);
        let snap = Arc::new(Snapshot::new(sys, epoch));
        let displaced = {
            let mut guard = self
                .snapshot
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *guard, Arc::clone(&snap))
        };
        drop(displaced);
        self.stats.snapshots_published.incr();
        self.maybe_checkpoint(&snap);
        snap
    }

    /// Hands the snapshot to the background checkpointer when the
    /// configured epoch interval has elapsed (fuzzy: writers never wait).
    fn maybe_checkpoint(&self, snap: &Arc<Snapshot>) {
        let Some(d) = &self.durability else { return };
        let rounds = self.config.checkpoint_rounds;
        if rounds == 0 {
            return;
        }
        let last = d.last_ckpt_request.load(Ordering::Relaxed);
        if snap.epoch().saturating_sub(last) >= rounds
            && d.last_ckpt_request
                .compare_exchange(last, snap.epoch(), Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            d.ckpt.request(Arc::clone(snap));
        }
    }
}

/// The concurrent view-serving engine: snapshot-isolated readers over an
/// epoch-ordered stream of immutable [`Snapshot`]s, and writes
/// group-committed in rounds, each applied update by update on the
/// committing thread.
///
/// Cheap to clone (handles share one underlying engine); all methods take
/// `&self`.
pub struct Engine {
    inner: Arc<Inner>,
}

impl Clone for Engine {
    fn clone(&self) -> Self {
        Engine {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("epoch", &self.inner.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

impl Engine {
    /// Wraps a published system with the default configuration.
    pub fn new(sys: XmlViewSystem) -> Self {
        Engine::with_config(sys, EngineConfig::default())
    }

    /// Wraps a published system with explicit tuning.
    ///
    /// # Panics
    /// Panics if `config.durability` is on: a replay log needs a directory,
    /// so durable engines are built with [`Engine::with_durability`] or
    /// [`Engine::recover`].
    pub fn with_config(sys: XmlViewSystem, config: EngineConfig) -> Self {
        assert!(
            !config.durability.is_on(),
            "durability needs a log directory: use Engine::with_durability"
        );
        let stats = engine_stats(&sys, stats::flight_recorder());
        Engine::build(sys, 0, config, stats, None)
    }

    /// Wraps a published system as a **durable** engine logging into `dir`
    /// (created if absent): every committed round is appended to an
    /// epoch-ordered replay log under `config.durability`'s fsync policy
    /// (an `Off` policy is promoted to [`Durability::PerRound`] — a log
    /// directory implies logging) before its tickets resolve, a checkpoint
    /// of the initial state is written immediately, and a background
    /// checkpointer re-checkpoints every [`EngineConfig::checkpoint_rounds`]
    /// epochs, truncating the covered log behind itself. After a crash,
    /// [`Engine::recover`] rebuilds the state from the directory.
    ///
    /// Fails if `dir` already contains log or checkpoint files — recovering
    /// an existing directory must go through [`Engine::recover`], not
    /// silently restart history.
    pub fn with_durability(
        sys: XmlViewSystem,
        mut config: EngineConfig,
        dir: impl AsRef<Path>,
    ) -> io::Result<Self> {
        if !config.durability.is_on() {
            config.durability = Durability::PerRound; // a durability dir implies logging
        }
        let dir = LogDir::create(dir.as_ref())?;
        let stats = engine_stats(&sys, stats::flight_recorder());
        let durability = DurabilityState::start(dir, &sys, 0, &config, &stats)?;
        Ok(Engine::build(sys, 0, config, stats, Some(durability)))
    }

    /// Rebuilds a durable engine from its log directory after a crash: the
    /// newest valid checkpoint is loaded, the replay-log suffix past it is
    /// replayed in epoch order, update by update as the engine applied it,
    /// and the engine resumes serving at the recovered epoch. `atg` must be the
    /// grammar the original engine ran under — like the relational schema
    /// it is code, not data, and the checkpoint's embedded type table is
    /// validated against it.
    ///
    /// Returns the engine plus a [`RecoveryReport`] describing what was
    /// replayed and what (if anything) was discarded as torn or corrupt.
    /// If `config.durability` keeps logging on, the recovered state is
    /// re-checkpointed and the segments it was read from are deleted before
    /// serving resumes, making recovery idempotent; with durability off the
    /// directory is only read.
    ///
    /// # Errors
    /// With durability on, a directory the recovery could not read in full
    /// ([`RecoveryReport::stops_short`]: dropped rounds, undecodable records
    /// or segments, rejected replays) is [`RecoverError::StopsShort`], and
    /// no file is touched: a torn tail is the only loss recovery deletes.
    /// Recover with durability off to serve the prefix it read.
    pub fn recover(
        atg: rxview_atg::Atg,
        dir: impl AsRef<Path>,
        config: EngineConfig,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let dir = LogDir::new(dir.as_ref());
        // The recorder is created before recovery so replay-progress events
        // land in the ring the serving engine will keep — a post-recovery
        // `flight_recording()` shows what recovery did.
        let recorder = stats::flight_recorder();
        let (sys, report) = recovery::recover_state(&atg, &dir, &recorder)?;
        if config.durability.is_on() && report.stops_short() {
            return Err(RecoverError::StopsShort(Box::new(report)));
        }
        let epoch = report.resumed_epoch;
        let stats = engine_stats(&sys, recorder);
        let durability = if config.durability.is_on() {
            Some(DurabilityState::start(dir, &sys, epoch, &config, &stats)?)
        } else {
            None
        };
        Ok((Engine::build(sys, epoch, config, stats, durability), report))
    }

    /// Common construction: state, starting epoch, the stats object, and a
    /// durable engine's log and checkpointer.
    fn build(
        sys: XmlViewSystem,
        epoch: u64,
        config: EngineConfig,
        stats: Arc<EngineStats>,
        durability: Option<DurabilityState>,
    ) -> Self {
        stats.record_state(&sys);
        Engine {
            inner: Arc::new(Inner {
                snapshot: RwLock::new(Arc::new(Snapshot::new(sys, epoch))),
                queue: Mutex::new(Vec::new()),
                commit_mx: Mutex::new(()),
                epoch: AtomicU64::new(epoch),
                stats,
                config,
                durability,
            }),
        }
    }

    /// Synchronously checkpoints the *currently published* snapshot and
    /// truncates the log behind it. Returns the checkpointed epoch. A
    /// checkpoint that fails deletes nothing and records `checkpoint.failed`
    /// ([`Engine::flight_recording`]). Fails with
    /// [`io::ErrorKind::Unsupported`] on a non-durable engine.
    pub fn checkpoint_now(&self) -> io::Result<u64> {
        let Some(d) = &self.inner.durability else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "engine has no durability directory",
            ));
        };
        d.log
            .checkpoint(&self.inner.current(), "manual", &self.inner.stats)
    }

    /// Forces any unsynced replay-log tail to disk (useful before a planned
    /// shutdown under [`Durability::GroupCommit`]). A no-op without
    /// durability.
    pub fn sync_wal(&self) -> io::Result<()> {
        if let Some(d) = &self.inner.durability {
            d.log.wal()?.sync()?;
        }
        Ok(())
    }

    /// The current snapshot. The read lock is held only for the `Arc` bump;
    /// evaluation runs lock-free on the returned snapshot, which stays
    /// valid (and immutable) for as long as the caller keeps it.
    ///
    /// ```
    /// use rxview_atg::{registrar_atg, registrar_database};
    /// use rxview_core::XmlViewSystem;
    /// use rxview_engine::Engine;
    ///
    /// let db = registrar_database();
    /// let atg = registrar_atg(&db)?;
    /// let engine = Engine::new(XmlViewSystem::new(atg, db)?);
    ///
    /// let snap = engine.snapshot();
    /// assert_eq!(snap.epoch(), 0); // initial publication
    /// let bob = rxview_xmlkit::parse_xpath("//student[ssn=S02]")?;
    /// let want = ("student".to_owned(), rxview_relstore::tuple!["S02", "Bob"]);
    /// assert_eq!(snap.select(&bob), [want]); // (type, $A) per selected node
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.inner.stats.snapshot_reads.incr();
        self.inner.current()
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.inner.stats
    }

    /// A human-readable snapshot of the whole telemetry layer: the
    /// [`crate::EngineReport`] summary, every metric by name
    /// ([`EngineStats::metrics`]), and the flight-recorder state.
    /// Intended for consoles and bug reports; the machine-readable
    /// equivalents are [`EngineStats::metrics`], [`EngineStats::report`] and
    /// [`Engine::flight_recording`].
    pub fn telemetry_report(&self) -> String {
        let stats = &self.inner.stats;
        let recorder = stats.recorder();
        format!(
            "{}\n-- metrics --\n{}-- flight recorder --\n{} events retained, {} evicted\n",
            stats.report(),
            text_report(&stats.metrics()),
            recorder.len(),
            recorder.evicted(),
        )
    }

    /// The flight recorder's retained event window as JSONL (one structured
    /// event per line, oldest first) — the machine-readable "what just
    /// happened" dump.
    pub fn flight_recording(&self) -> String {
        self.inner.stats.recorder().dump_jsonl()
    }

    /// Admits an update on the caller's thread and enqueues it for the
    /// next group commit, returning an [`UpdateTicket`] that resolves once
    /// the update's snapshot is visible (read-your-writes).
    ///
    /// Admission ([`XmlViewSystem::admit`]) reads only the grammar: an
    /// update it refuses (a schema violation, §2.4) comes back as a ticket
    /// that is already resolved `Err`, and takes no queue slot, no round
    /// and no log byte. An admitted update carries its compiled plan, so
    /// the commit loop looks nothing up.
    ///
    /// ```
    /// use rxview_atg::{registrar_atg, registrar_database};
    /// use rxview_core::{SideEffectPolicy, XmlUpdate, XmlViewSystem};
    /// use rxview_engine::Engine;
    ///
    /// let db = registrar_database();
    /// let atg = registrar_atg(&db)?;
    /// let engine = Engine::new(XmlViewSystem::new(atg, db)?);
    ///
    /// // Example 5's edge deletion, group-committed.
    /// let u = XmlUpdate::delete("course[cno=CS650]/prereq/course[cno=CS320]")?;
    /// let ticket = engine.submit(u, SideEffectPolicy::Abort)?;
    /// engine.commit_pending();
    /// let report = ticket.wait()?;
    /// assert_eq!(report.side_effects, 0);
    /// assert!(!report.delta_r.is_empty()); // the relational ∆R it became
    /// assert_eq!(engine.snapshot().epoch(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn submit(
        &self,
        update: XmlUpdate,
        policy: SideEffectPolicy,
    ) -> Result<UpdateTicket, EngineError> {
        let (tx, rx) = mpsc::channel();
        let reply = Reply {
            tx,
            submitted_at: Instant::now(),
        };
        let stats = &self.inner.stats;
        let admission = self.inner.current().system().admit(&update);
        match admission {
            Ok(admitted) => {
                let mut queue = self.inner.queue();
                if queue.len() >= MAX_QUEUE {
                    return Err(EngineError::Saturated);
                }
                queue.push(Pending {
                    update,
                    policy,
                    admitted,
                    reply,
                });
            }
            Err(e) => _ = reply.resolve(stats, Err(e)),
        }
        stats.submitted.incr();
        Ok(UpdateTicket { rx })
    }

    /// Submits and synchronously commits everything pending, returning this
    /// update's outcome.
    pub fn apply_now(
        &self,
        update: XmlUpdate,
        policy: SideEffectPolicy,
    ) -> Result<UpdateReport, EngineError> {
        let ticket = self.submit(update, policy)?;
        self.commit_pending();
        ticket.wait()
    }

    /// Drains the admission queue and commits it through the round
    /// pipeline (`ARCHITECTURE.md` §3): the queue is cut into *rounds* of up
    /// to [`MAX_BATCH`] updates in submission order; each update of a round is
    /// evaluated, applied and folded against the state the one before it
    /// left, on a working clone of the latest snapshot, and the round then
    /// pays one log record and one publication.
    ///
    /// Outcomes equal one-at-a-time application in submission order.
    /// Tickets resolve round by round: a round's outcomes are delivered as
    /// soon as its snapshot is visible, so a caller that observed its
    /// ticket can read its own write. A round in which nothing applied
    /// (every update rejected) publishes no epoch and logs nothing.
    pub fn commit_pending(&self) -> CommitSummary {
        let _guard = self.inner.commit_mx.lock().expect("commit lock poisoned");
        let pending: Vec<Pending> = {
            let mut queue = self.inner.queue();
            std::mem::take(&mut *queue)
        };
        if pending.is_empty() {
            return CommitSummary::default();
        }
        self.inner.stats.commits.incr();
        publisher::commit(&self.inner, pending)
    }
}

/// Renders a metric listing as an aligned text table — counters and gauges
/// as bare numbers, histograms as `count / mean / p50 / p95 / p99 / max`.
fn text_report(snap: &[(&str, MetricSnapshot)]) -> String {
    let width = snap.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, value) in snap {
        let _ = match value {
            MetricSnapshot::Counter(v) => writeln!(out, "{name:width$}  {v}"),
            MetricSnapshot::Gauge(v) => writeln!(out, "{name:width$}  {v}"),
            MetricSnapshot::Histogram(h) => writeln!(
                out,
                "{name:width$}  n={} mean={:.0} p50={} p95={} p99={} max={}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max
            ),
        };
    }
    out
}

fn engine_stats(sys: &XmlViewSystem, recorder: Arc<FlightRecorder>) -> Arc<EngineStats> {
    Arc::new(EngineStats::new(
        recorder,
        Arc::clone(sys.view().plan_cache()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};

    /// A panic while the log's lock is held poisons the lock; what needs the
    /// log afterwards fails instead of panicking: the next commit resolves
    /// its tickets `Err`, publishes nothing and records one `round.failed`
    /// event naming the append, and `sync_wal` and `checkpoint_now` return
    /// errors.
    #[test]
    fn a_poisoned_log_fails_the_round_instead_of_panicking() {
        let dir = std::env::temp_dir().join(format!("rxview-poisoned-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = registrar_database();
        let sys = XmlViewSystem::new(registrar_atg(&db).unwrap(), db).unwrap();
        let engine = Engine::with_durability(sys, EngineConfig::default(), &dir).unwrap();
        let log = Arc::clone(&engine.inner.durability.as_ref().unwrap().log);
        let panicked = std::thread::spawn(move || {
            let _held = log.wal.lock();
            panic!("a panic mid-append");
        })
        .join();
        assert!(panicked.is_err());

        let u = XmlUpdate::delete("course[cno=CS650]/prereq/course[cno=CS320]").unwrap();
        let ticket = engine.submit(u, SideEffectPolicy::Abort).unwrap();
        let summary = engine.commit_pending();
        assert_eq!((summary.accepted, summary.rejected), (0, 1));
        assert!(matches!(ticket.wait(), Err(EngineError::Update(_))));
        assert_eq!(engine.snapshot().epoch(), 0, "nothing published");
        let recording = engine.flight_recording();
        let failed: Vec<&str> = recording
            .lines()
            .filter(|l| l.contains("\"event\": \"round.failed\""))
            .collect();
        assert_eq!(failed.len(), 1, "{recording}");
        assert!(
            failed[0].contains("\"reason\": \"wal_append\""),
            "{}",
            failed[0]
        );
        assert!(engine.sync_wal().is_err());
        assert!(engine.checkpoint_now().is_err());
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn text_report_lists_everything() {
        let h = crate::obs::Histogram::default();
        h.record(2048);
        let snap = [
            (
                "round.plan_ns",
                MetricSnapshot::Histogram(Box::new(h.snapshot())),
            ),
            ("updates.accepted", MetricSnapshot::Counter(12)),
        ];
        let report = text_report(&snap);
        assert!(report.contains("updates.accepted"));
        assert!(report.contains("12"));
        assert!(report.contains("round.plan_ns"));
        assert!(report.contains("n=1"));
    }
}
