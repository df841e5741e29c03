//! Crash recovery: latest valid checkpoint + epoch-ordered WAL replay.
//!
//! `Engine::recover` reassembles the serving state a durable engine had at
//! its last logged round:
//!
//! 1. **Checkpoint.** The newest checkpoint file that passes its CRC and
//!    decodes under the caller's grammar anchors recovery; invalid or torn
//!    checkpoints are skipped (and counted) in favor of older ones.
//! 2. **Replay.** Every WAL segment (a format `crate::wal`'s `FORMATS` reads)
//!    is scanned from its magic up to its last checksummed-complete, decodable
//!    record; records with epochs past the checkpoint are replayed **in
//!    epoch order**, each one **as the serial application it logs**: every
//!    update in logged order is evaluated against the state the one before
//!    it left, applied and folded on its own (`XmlViewSystem::apply`) — the
//!    round pipeline's apply loop, and `rxview_reference::reference_apply`'s
//!    semantics. So "replay of the acknowledged prefix" and "what the engine
//!    actually did" are the same state by construction. Records written by
//!    older engines, whose rounds were planned conflict-free, replay the
//!    same way: within such a round no update reads what another writes, so
//!    serial application reaches the state the engine published. Torn or
//!    corrupt log tails end their segment's contribution and are reported,
//!    never panicked on; so is a checksummed record that does not decode,
//!    apart, and a segment whose magic this binary does not read.
//! 3. **Resume.** The engine restarts at the recovered epoch; a durable one
//!    first anchors the directory on the recovered state (`crate::logdir`),
//!    which makes recovery idempotent. Recovery itself only reads.
//!
//! The anchor deletes every segment, so a durable recovery anchors only on
//! a directory it read in full: one whose report shows dropped rounds,
//! undecodable records or rejected replays
//! ([`RecoveryReport::stops_short`]) is refused with
//! [`RecoverError::StopsShort`], and no file is touched. A torn tail is the
//! one loss the anchor may delete: its bytes were never acknowledged. A
//! read-only recovery (durability off) serves the prefix it read, for
//! inspection.
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
    /// A durable recovery read less than the directory holds
    /// ([`RecoveryReport::stops_short`]), so it did not anchor, which would
    /// delete what it could not read: the directory is as it was. The report
    /// says what stopped it; a read-only recovery serves the prefix.
    StopsShort(Box<RecoveryReport>),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery I/O failed: {e}"),
            RecoverError::NoCheckpoint => {
                write!(f, "no valid checkpoint found to anchor recovery")
            }
            RecoverError::StopsShort(r) => write!(
                f,
                "recovery stopped short of the log at epoch {} ({} rounds dropped, {} \
                 undecodable records, {} replayed updates rejected); the directory is \
                 left as it is",
                r.resumed_epoch, r.dropped_rounds, r.undecodable_records, r.replay_rejected
            ),
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
    /// Folds of `L` the replay ran: one per replayed update that
    /// applied, as the engine folded it.
    pub replay_folds: usize,
    /// Replayed updates the apply path rejected. Always `0` when the log
    /// and checkpoint belong together (acknowledged updates replay
    /// cleanly); non-zero values indicate a mixed-up directory and are
    /// surfaced rather than hidden.
    pub replay_rejected: usize,
    /// Replayed updates that applied after their path was evaluated by the
    /// full pass over `L` instead of a scope
    /// ([`rxview_core::UpdateReport::scope_nodes`] was `None`) — the answer
    /// to "why did this replay take so long". `0` for
    /// a log of anchored and keyed-`//` traffic.
    pub replay_full_evals: usize,
    /// Bytes past the last record read, summed over all segments: a torn or
    /// corrupt suffix, or everything from an undecodable record on.
    pub discarded_bytes: u64,
    /// Segments that ended in such a suffix.
    pub torn_segments: usize,
    /// Records that passed their checksum and did not decode, and segments
    /// whose magic this binary does not read (at most one per segment: its
    /// valid prefix ends there, at offset 0 for a magic). The bytes are what
    /// was written, so this is a codec or version fault, not a crash
    /// mid-write; `0` for a directory this engine or the one before it wrote.
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

impl RecoveryReport {
    /// Whether the directory holds acknowledged history this recovery did
    /// not reach: `dropped_rounds`, `undecodable_records` or
    /// `replay_rejected` is non-zero. A torn tail alone is not such history.
    pub fn stops_short(&self) -> bool {
        self.dropped_rounds > 0 || self.undecodable_records > 0 || self.replay_rejected > 0
    }
}

/// Replays one record the way the engine committed its round: each update
/// in logged order is admitted, evaluated through its admitted plan,
/// applied and folded against the state the one before it left —
/// `XmlViewSystem::apply` (module docs).
fn replay_round(sys: &mut XmlViewSystem, updates: &[LoggedUpdate], report: &mut RecoveryReport) {
    for (update, policy) in updates {
        match sys.apply(update, *policy) {
            Ok(applied) => {
                report.replay_folds += 1;
                report.replay_full_evals += usize::from(applied.scope_nodes.is_none());
            }
            Err(_) => report.replay_rejected += 1,
        }
    }
    report.replayed_updates += updates.len();
    report.replayed_rounds += 1;
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

    // --- 3. Replay in epoch order, a record as the serial application it logs. ---
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
