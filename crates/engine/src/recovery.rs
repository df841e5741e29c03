//! Crash recovery: latest valid checkpoint + epoch-ordered WAL replay.
//!
//! `Engine::recover` reassembles the serving state a durable engine had at
//! its last logged round:
//!
//! 1. **Checkpoint.** The newest checkpoint file that passes its CRC and
//!    decodes under the caller's grammar anchors recovery; invalid or torn
//!    checkpoints are skipped (and counted) in favor of older ones.
//! 2. **Replay.** Every WAL segment (of any format, `crate::wal`) is
//!    scanned from its magic up to its last checksummed-complete, decodable
//!    record; records
//!    with epochs past the checkpoint are replayed **in epoch order**, each
//!    one **as the round it logs**: every update evaluated against the state
//!    the record starts from (`XmlViewSystem::eval`), applied in logged order
//!    with maintenance deferred (`apply_deferred`), then one
//!    `fold_maintenance` over the record's jobs — the round pipeline's loop.
//!    That is sound because a record holds one conflict-free round (the
//!    engine logs nothing else), the round pipeline is held observationally
//!    equal to one-at-a-time application by the equivalence battery, and one
//!    fold of such a batch equal to one fold per update by
//!    `tests/batched_fold.rs` — so "replay of the acknowledged prefix" and
//!    "what the engine actually did" are the same state. Torn or corrupt
//!    log tails end their segment's contribution and are reported, never
//!    panicked on; so is a checksummed record that does not decode, apart.
//! 3. **Resume.** The engine restarts at the recovered epoch; a durable one
//!    first anchors the directory on the recovered state (`crate::logdir`),
//!    which makes recovery idempotent. Recovery itself only reads.
//!
//! The recovery invariant, asserted end-to-end by
//! `crates/engine/tests/recovery.rs`: *the recovered system is
//! observationally equivalent to a sequential oracle replay of the
//! acknowledged, durable prefix of the update history.*

use crate::logdir::LogDir;
use crate::obs::{fields, FlightRecorder};
use crate::wal::{self, LoggedUpdate, WalRecord};
use rxview_atg::Atg;
use rxview_core::XmlViewSystem;
use std::fmt;
use std::io;
use std::time::{Duration, Instant};

/// Why recovery could not produce an engine.
#[derive(Debug)]
pub enum RecoverError {
    /// Filesystem access failed.
    Io(io::Error),
    /// No checkpoint in the directory decoded under the given grammar —
    /// there is nothing sound to anchor replay on. (A durable engine
    /// writes its first checkpoint at creation, so this means the
    /// directory never belonged to one, or lost its checkpoints.)
    NoCheckpoint,
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery I/O failed: {e}"),
            RecoverError::NoCheckpoint => {
                write!(f, "no valid checkpoint found to anchor recovery")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// What a recovery run found and did — the durability subsystem's audit
/// trail, returned alongside the recovered engine.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint recovery anchored on.
    pub checkpoint_epoch: u64,
    /// Checkpoint files that failed validation and were skipped.
    pub invalid_checkpoints: usize,
    /// Log records replayed (== epochs advanced past the checkpoint).
    pub replayed_rounds: usize,
    /// Updates replayed across those rounds.
    pub replayed_updates: usize,
    /// Folds of `M` and `L` the replay ran: one per replayed round that
    /// applied anything, however many updates the round holds.
    pub replay_folds: usize,
    /// Replayed updates the apply path rejected. Always `0` when the log
    /// and checkpoint belong together (acknowledged updates replay
    /// cleanly); non-zero values indicate a mixed-up directory and are
    /// surfaced rather than hidden.
    pub replay_rejected: usize,
    /// Replayed updates whose path was evaluated by the full pass over `L`
    /// instead of a scope ([`rxview_core::Evaluated::scope_nodes`] was
    /// `None`) — the answer to "why did this replay take so long". `0` for
    /// a log of anchored and keyed-`//` traffic.
    pub replay_full_evals: usize,
    /// Bytes past the last record read, summed over all segments: a torn or
    /// corrupt suffix, or everything from an undecodable record on.
    pub discarded_bytes: u64,
    /// Segments that ended in such a suffix.
    pub torn_segments: usize,
    /// Records that passed their checksum and did not decode (at most one
    /// per segment: its valid prefix ends there). The bytes are what was
    /// written, so this is a codec or version fault, not a crash mid-write;
    /// `0` for a directory this engine wrote.
    pub undecodable_records: usize,
    /// Log records at or below the checkpoint epoch, skipped as already
    /// reflected in the checkpoint.
    pub skipped_rounds: usize,
    /// Complete, checksummed records that could **not** be replayed because
    /// an earlier epoch was missing (a lost segment or duplicate epoch cut
    /// the durable prefix short). Always `0` for a directory only ever
    /// written by this engine; non-zero means whole acknowledged rounds
    /// were lost and must not be mistaken for a clean recovery.
    pub dropped_rounds: usize,
    /// The epoch the recovered engine resumes serving at.
    pub resumed_epoch: u64,
    /// Wall clock spent finding and decoding the anchoring checkpoint.
    pub checkpoint_load: Duration,
    /// Wall clock spent scanning segments and replaying the WAL suffix.
    pub wal_replay: Duration,
}

/// Replays one record the way the engine committed its round: the
/// updates are evaluated against the state the round starts from, applied in
/// logged order with maintenance deferred, and folded once (module docs).
fn replay_round(sys: &mut XmlViewSystem, updates: &[LoggedUpdate], report: &mut RecoveryReport) {
    let paths = updates.iter().map(|(update, _)| update.path());
    let evals: Vec<_> = paths.map(|path| sys.eval(path)).collect();
    let mut jobs = Vec::with_capacity(updates.len());
    for ((update, policy), eval) in updates.iter().zip(evals) {
        report.replay_full_evals += usize::from(eval.scope_nodes.is_none());
        match sys.apply_deferred(update, *policy, eval) {
            Ok((_, job)) => jobs.push(job),
            Err(_) => report.replay_rejected += 1,
        }
    }
    report.replayed_updates += updates.len();
    report.replayed_rounds += 1;
    if !jobs.is_empty() {
        report.replay_folds += 1;
        let folded = jobs.len();
        if sys.fold_maintenance(jobs).is_err() {
            report.replay_rejected += folded;
        }
    }
}

/// The state reassembly half of recovery (everything except engine
/// construction): checkpoint load + suffix replay. Returns the recovered
/// system and the report.
pub(crate) fn recover_state(
    atg: &Atg,
    dir: &LogDir,
    recorder: &FlightRecorder,
) -> Result<(XmlViewSystem, RecoveryReport), RecoverError> {
    let mut report = RecoveryReport::default();

    // --- 1. Newest valid checkpoint. ---
    let t_ckpt = Instant::now();
    let mut listing = dir.list()?;
    let (ckpt_epoch, mut sys) = loop {
        let (_, path) = listing
            .checkpoints
            .pop()
            .ok_or(RecoverError::NoCheckpoint)?;
        match dir.load_checkpoint(&path, atg)? {
            Some(loaded) => break loaded,
            None => report.invalid_checkpoints += 1,
        }
    };
    report.checkpoint_epoch = ckpt_epoch;
    report.checkpoint_load = t_ckpt.elapsed();
    recorder.record(
        "recovery.checkpoint_loaded",
        fields![
            epoch: ckpt_epoch,
            invalid: report.invalid_checkpoints,
            micros: report.checkpoint_load.as_micros() as u64
        ],
    );

    // --- 2. Scan segments, gather the replayable suffix. ---
    let t_replay = Instant::now();
    let mut records: Vec<WalRecord> = Vec::new();
    for (seq, path) in &listing.segments {
        let scan = wal::scan_segment(&dir.read(path)?);
        if scan.discarded > 0 {
            report.torn_segments += 1;
            report.discarded_bytes += scan.discarded;
        }
        if let Some((offset, error)) = scan.undecodable {
            report.undecodable_records += 1;
            recorder.record(
                "recovery.undecodable_record",
                fields![segment: *seq, offset: offset, error: error.to_string()],
            );
        }
        for rec in scan.records {
            if rec.epoch > ckpt_epoch {
                records.push(rec);
            } else {
                report.skipped_rounds += 1;
            }
        }
    }
    records.sort_by_key(|r| r.epoch);

    // --- 3. Replay in epoch order, a record as the round it logs. ---
    let mut resumed = ckpt_epoch;
    for (i, rec) in records.iter().enumerate() {
        if rec.epoch != resumed + 1 {
            // A gap (lost segment) or a duplicate epoch (a directory mixing
            // histories) means everything from here on post-dates state we
            // cannot reconstruct: the durable prefix ends at the last
            // contiguous record, and the remainder is *reported*, not
            // silently swallowed.
            report.dropped_rounds = records.len() - i;
            break;
        }
        replay_round(&mut sys, &rec.updates, &mut report);
        resumed = rec.epoch;
        // Periodic progress marks so a long replay's flight recording shows
        // where time went.
        if report.replayed_rounds % 64 == 0 {
            recorder.record(
                "recovery.replay_progress",
                fields![rounds: report.replayed_rounds, epoch: resumed],
            );
        }
    }
    report.resumed_epoch = resumed;
    report.wal_replay = t_replay.elapsed();
    recorder.record(
        "recovery.completed",
        fields![
            resumed_epoch: resumed,
            replayed_rounds: report.replayed_rounds,
            replayed_updates: report.replayed_updates,
            full_evals: report.replay_full_evals,
            dropped_rounds: report.dropped_rounds,
            micros: report.wal_replay.as_micros() as u64
        ],
    );
    Ok((sys, report))
}
