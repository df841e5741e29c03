//! The epoch-ordered replay log (write-ahead log).
//!
//! The round pipeline's serial tail is the single point where a commit
//! round becomes final, so durability hooks there: immediately **before** a
//! round's snapshot is published (and therefore before any ticket is
//! acknowledged), the round is appended to the log as one record — its
//! epoch plus the round's applied updates in submission order, in their
//! *logical* form (`XmlUpdate` + side-effect policy). The log is the round:
//! recovery replays a record the way the round pipeline committed it
//! (`crate::recovery`), re-deriving ∆V, ∆R, and the `L` maintenance.
//!
//! ## On-disk format
//!
//! A log is a directory of segment files `wal-<seq>.rxlog`. Each segment is
//! an 8-byte magic followed by length-prefixed, checksummed records:
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload]
//! ```
//!
//! Segments open with `RXWALv5\n`, and a payload is
//! [`rxview_core::codec::put_round`]'s: the epoch, the update count, and the
//! updates with their paths as ASTs over the segment's label table, an
//! update whose shape the segment has spelled before written as the shape's
//! index and its literals, each integer among them as its difference from
//! the shape's last binding of that slot. The tables and the slot state
//! live for the segment: a record may name what an earlier record of its
//! segment spelled or bound, never anything in another file, so a segment
//! is self-describing and is read without the XPath parser, from its magic,
//! as recovery reads it. `Wal` owns the one
//! encoder (a frame buffer whose header is patched in place, and the
//! segment's tables), reused round after round; a record's additions to the
//! tables are committed only once the record is written (and synced, when
//! the policy asks), and dropped with a refused or failed append. Once the
//! tables hold more than `MAX_TABLE_ENTRIES` labels and shapes, the next
//! append first seals the segment and opens a fresh one, which bounds the
//! encoder's memory and the reader's.
//!
//! A record with zero updates is legal in a segment — older engines logged
//! one for a round whose updates were all rejected; today such a round
//! publishes no epoch and appends nothing.
//!
//! Scanning is prefix-tolerant: the first record whose length overruns the
//! file or whose checksum mismatches ends the segment's valid prefix — a
//! torn or corrupt tail, what a crash mid-append leaves. A record that
//! passes its checksum and still does not decode ends the prefix too, but
//! is reported apart ([`crate::RecoveryReport::undecodable_records`]): the
//! bytes are what the writer wrote, so the fault is a codec's or a
//! version's, not the disk's. So is a segment that opens with a full magic
//! this binary does not read: it is reported as undecodable at offset 0, and
//! a durable recovery refuses the directory (`crate::recovery`). A file
//! shorter than a magic is a crash inside segment creation, and torn.
//! Corrupt bytes can never panic (the codec is total) and never resurrect
//! as phantom rounds (the CRC guards the frame).
//!
//! ## Fsync policy
//!
//! [`Durability`] picks when `fsync` runs: per round, by group commit (once
//! `max_rounds` rounds are unsynced or the oldest is `max_micros` old), or
//! never (logging off entirely). Under group commit a crash can lose the
//! trailing unsynced acknowledged rounds — the recovered state is still a
//! *prefix* of the acknowledged history, just possibly a shorter one than
//! `PerRound` guarantees.
//!
//! Segments rotate when a checkpoint completes (`Wal::compact`) and when
//! the segment's tables reach their cap; the log is truncated by deleting
//! whole sealed segments, never by rewriting one. Who creates and deletes
//! each file, and the fsync order that makes a deletion safe:
//! `crate::logdir`.

use crate::logdir::LogDir;
use rxview_core::codec::{self, ReadTables, RecordTables};
use rxview_relstore::codec::{crc32, CodecError, CodecResult, Reader};
use rxview_xmlkit::xpath::MAX_FILTER_DEPTH;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::PathBuf;

/// When the replay log reaches disk (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No write-ahead logging at all. A crash loses the whole in-memory
    /// state (the pre-durability behavior).
    #[default]
    Off,
    /// Append **and fsync** every committed round before its tickets
    /// resolve: every acknowledged update survives a crash.
    PerRound,
    /// Group-commit fsync: append every round, fsync when either
    /// `max_rounds` rounds have accumulated since the last sync or the
    /// oldest unsynced round is `max_micros` microseconds old — whichever
    /// watermark trips first, checked at append time (the commit mutex
    /// already serializes appends, so the watermark needs no timer thread).
    /// Under load this batches many rounds into one `fsync`; under trickle
    /// traffic the age bound keeps the unsynced window short. Bounded loss:
    /// a crash forfeits at most the trailing unsynced rounds, and recovery
    /// still lands on a prefix of the acknowledged history. A zero field
    /// disables that watermark (`max_rounds: 0, max_micros: 0` never
    /// fsyncs: the OS decides).
    GroupCommit {
        /// Fsync once this many rounds are unsynced (0 = no round bound).
        max_rounds: u64,
        /// Fsync once the oldest unsynced round is this old, in
        /// microseconds, checked at the next append (0 = no age bound).
        max_micros: u64,
    },
}

impl Durability {
    /// Whether logging is enabled at all.
    pub fn is_on(&self) -> bool {
        !matches!(self, Durability::Off)
    }
}

/// Magic bytes opening every segment file this engine writes.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"RXWALv5\n";

/// Each magic [`scan_segment`] reads: this binary's, and one format back
/// once the format next changes.
const FORMATS: [&[u8; 8]; 1] = [WAL_MAGIC];

/// The labels and shapes a segment's tables may hold before the next append
/// starts a new segment.
const MAX_TABLE_ENTRIES: usize = 4096;

/// Why an append fsynced — the observable behind the GroupCommit flush
/// accounting (`wal.sync_reason.*` metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncReason {
    /// The policy syncs every round ([`Durability::PerRound`]).
    Policy,
    /// [`Durability::GroupCommit`]: `max_rounds` unsynced rounds accumulated.
    RoundWatermark,
    /// [`Durability::GroupCommit`]: the oldest unsynced round aged past
    /// `max_micros`.
    AgeWatermark,
}

/// What one [`Wal::append`] did: bytes framed on disk, the write and fsync
/// wall clock (fsync zero when the policy skipped it), and why it synced.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AppendOutcome {
    /// Record bytes written (frame included).
    pub(crate) bytes: u64,
    /// Time spent writing the record.
    pub(crate) write_time: std::time::Duration,
    /// Time spent in `fsync` (zero when `reason` is `None`).
    pub(crate) sync_time: std::time::Duration,
    /// `Some` iff this append fsynced, with the watermark that tripped it.
    pub(crate) reason: Option<SyncReason>,
}

/// What one [`Wal::compact`] did, for the `wal.rotate` flight event.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CompactOutcome {
    /// Whether the active segment was sealed and a fresh one opened.
    pub(crate) rotated: bool,
    /// Sealed segments deleted as fully covered by the checkpoint.
    pub(crate) deleted: usize,
}

pub(crate) use codec::LoggedUpdate;

/// One decoded log record: a committed round.
#[derive(Debug)]
pub(crate) struct WalRecord {
    /// The epoch the round published.
    pub(crate) epoch: u64,
    /// The round's applied updates, submission order.
    pub(crate) updates: Vec<LoggedUpdate>,
}

/// The log's one encoder: frames a round as a `[len][crc][payload]` record
/// in a buffer it keeps, the header patched in once the payload is written,
/// over the current segment's tables.
#[derive(Debug, Default)]
struct RecordEncoder {
    frame: Vec<u8>,
    tables: RecordTables,
}

impl RecordEncoder {
    /// The round's record. Refuses a round [`scan_segment`] could not read
    /// back — a path whose filters nest deeper than the decoder follows (no
    /// parsed path does), a payload past the frame's `u32` — so that what is
    /// acknowledged is always replayable.
    fn encode(&mut self, epoch: u64, updates: &[LoggedUpdate]) -> io::Result<&[u8]> {
        if let Some((u, _)) = updates
            .iter()
            .find(|(u, _)| u.path().filter_depth() > MAX_FILTER_DEPTH)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("`{u}` nests filters deeper than {MAX_FILTER_DEPTH}: not loggable"),
            ));
        }
        self.frame.clear();
        self.frame.extend_from_slice(&[0; 8]);
        codec::put_round(&mut self.frame, &mut self.tables, epoch, updates);
        let (header, payload) = self.frame.split_at_mut(8);
        let len = u32::try_from(payload.len()).map_err(io::Error::other)?;
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        Ok(&self.frame)
    }
}

fn decode_payload<'a>(payload: &'a [u8], tables: &mut ReadTables<'a>) -> CodecResult<WalRecord> {
    let mut r = Reader::new(payload);
    let (epoch, updates) = codec::read_round(&mut r, tables)?;
    if !r.is_empty() {
        return Err(CodecError::Invalid(
            "trailing bytes in record payload".into(),
        ));
    }
    Ok(WalRecord { epoch, updates })
}

/// What scanning one segment file found.
#[derive(Debug, Default)]
pub(crate) struct SegmentScan {
    /// The records of the segment's valid prefix, in file order.
    pub(crate) records: Vec<WalRecord>,
    /// Bytes past the valid prefix: a torn or corrupt tail, or everything
    /// from an undecodable record on.
    pub(crate) discarded: u64,
    /// Set when the prefix ended at a record that passed its checksum and
    /// did not decode: its offset in the file and the codec's error.
    pub(crate) undecodable: Option<(u64, CodecError)>,
}

/// Scans a segment's bytes, stopping at the first torn, corrupt or
/// undecodable record. A file shorter than a magic is torn whole; one whose
/// magic `FORMATS` does not list is undecodable from offset 0.
pub(crate) fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan {
        discarded: bytes.len() as u64,
        ..SegmentScan::default()
    };
    let Some(magic) = bytes.get(..WAL_MAGIC.len()) else {
        return scan;
    };
    if !FORMATS.iter().any(|m| magic == &m[..]) {
        let why = format!("unknown segment magic {:?}", String::from_utf8_lossy(magic));
        scan.undecodable = Some((0, CodecError::Invalid(why)));
        return scan;
    }
    let mut tables = ReadTables::default();
    let mut pos = WAL_MAGIC.len();
    while let Some((len, rest)) = bytes[pos..].split_first_chunk::<4>() {
        let Some((crc, rest)) = rest.split_first_chunk::<4>() else {
            break;
        };
        let Some(payload) = rest.get(..u32::from_le_bytes(*len) as usize) else {
            break; // torn tail: the record never finished writing
        };
        if crc32(payload) != u32::from_le_bytes(*crc) {
            break; // corrupt record: stop trusting the file here
        }
        match decode_payload(payload, &mut tables) {
            Ok(rec) => scan.records.push(rec),
            Err(e) => {
                scan.undecodable = Some((pos as u64, e));
                break;
            }
        }
        pos += 8 + payload.len();
    }
    scan.discarded = (bytes.len() - pos) as u64;
    scan
}

/// A sealed (no longer appended-to) segment awaiting checkpoint coverage.
#[derive(Debug)]
struct SealedSegment {
    path: PathBuf,
    max_epoch: u64,
}

/// The append side of the log. One `Wal` exists per durable engine, in its
/// `crate::logdir::Log`.
#[derive(Debug)]
pub(crate) struct Wal {
    dir: LogDir,
    policy: Durability,
    file: File,
    path: PathBuf,
    seq: u64,
    /// Rounds appended since the last fsync (the `GroupCommit` round
    /// watermark).
    unsynced: u64,
    /// When the oldest unsynced round was appended (the `GroupCommit` age
    /// watermark); `None` = everything synced.
    first_unsynced: Option<std::time::Instant>,
    /// Highest epoch written to the current segment (`None` = empty).
    max_epoch: Option<u64>,
    /// File length up to the last *successful* append (header included).
    /// A failed append rolls the file back to this watermark, so its bytes
    /// can never collide with the retried epoch's record or wedge the
    /// segment's scannable prefix mid-file.
    committed_len: u64,
    /// Set when a failed append could not be rolled back: the tail of the
    /// segment is unreliable, so every further append must fail rather
    /// than write acknowledged rounds after an unscannable point.
    poisoned: bool,
    sealed: Vec<SealedSegment>,
    encoder: RecordEncoder,
}

impl Wal {
    /// Opens a fresh segment `wal-<seq>.rxlog` in `dir` for appending, its
    /// magic and its directory entry durable. `policy` must have logging on.
    pub(crate) fn create(dir: &LogDir, policy: Durability, seq: u64) -> io::Result<Wal> {
        debug_assert!(policy.is_on());
        let (file, path) = dir.create_segment(seq, WAL_MAGIC)?;
        Ok(Wal {
            dir: dir.clone(),
            policy,
            file,
            path,
            seq,
            unsynced: 0,
            first_unsynced: None,
            max_epoch: None,
            committed_len: WAL_MAGIC.len() as u64,
            poisoned: false,
            sealed: Vec::new(),
            encoder: RecordEncoder::default(),
        })
    }

    /// Appends one round and applies the fsync policy. Returns an
    /// [`AppendOutcome`]: bytes written, write/fsync timing, and the sync
    /// reason if this append fsynced.
    ///
    /// On failure (write *or* fsync) the segment is rolled back to the end
    /// of the last successful record, and the tables to what that record
    /// left: the caller fails the round and the epoch number will be
    /// reused, so no trace of the failed round may stay in the file or be
    /// named by a later record. If even the rollback fails, the log poisons
    /// itself and every further append errors out immediately.
    ///
    /// A segment whose tables hold more than `MAX_TABLE_ENTRIES` entries is
    /// sealed first, and the round opens the next one.
    pub(crate) fn append(
        &mut self,
        epoch: u64,
        updates: &[LoggedUpdate],
    ) -> io::Result<AppendOutcome> {
        use std::io::Seek as _;
        if self.poisoned {
            return Err(io::Error::other(
                "replay log poisoned by an earlier unrecoverable append failure",
            ));
        }
        if self.encoder.tables.entries() > MAX_TABLE_ENTRIES {
            self.rotate()?;
        }
        let record = self.encoder.encode(epoch, updates)?;
        let bytes = record.len() as u64;
        let reason = match self.policy {
            Durability::Off => None,
            Durability::PerRound => Some(SyncReason::Policy),
            Durability::GroupCommit {
                max_rounds,
                max_micros,
            } => {
                let rounds_hit = max_rounds > 0 && self.unsynced + 1 >= max_rounds;
                let age_hit = max_micros > 0
                    && self
                        .first_unsynced
                        .is_some_and(|t| t.elapsed().as_micros() as u64 >= max_micros);
                // The round watermark takes attribution priority: when both
                // trip on the same append, load (not trickle age) forced it.
                if rounds_hit {
                    Some(SyncReason::RoundWatermark)
                } else if age_hit {
                    Some(SyncReason::AgeWatermark)
                } else {
                    None
                }
            }
        };
        let t_write = std::time::Instant::now();
        let mut write_time = std::time::Duration::ZERO;
        let mut sync_time = std::time::Duration::ZERO;
        let appended = (|| {
            self.file.write_all(record)?;
            write_time = t_write.elapsed();
            if reason.is_some() {
                let t_sync = std::time::Instant::now();
                self.file.sync_data()?;
                sync_time = t_sync.elapsed();
            }
            Ok::<_, io::Error>(())
        })();
        if let Err(e) = appended {
            // The tables' staged entries go with the next `put_round`.
            let rolled_back = self
                .file
                .set_len(self.committed_len)
                .and_then(|()| self.file.seek(io::SeekFrom::Start(self.committed_len)));
            if rolled_back.is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.committed_len += bytes;
        self.encoder.tables.commit();
        self.max_epoch = Some(self.max_epoch.map_or(epoch, |m| m.max(epoch)));
        if reason.is_some() {
            self.unsynced = 0;
            self.first_unsynced = None;
        } else {
            self.unsynced += 1;
            self.first_unsynced
                .get_or_insert_with(std::time::Instant::now);
        }
        Ok(AppendOutcome {
            bytes,
            write_time,
            sync_time,
            reason,
        })
    }

    /// Forces the segment to disk.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        self.first_unsynced = None;
        Ok(())
    }

    /// Seals the current segment, if it has records, and opens the next one
    /// with empty tables; the sealed segment waits in `sealed` for a
    /// checkpoint to cover it. Returns whether it rotated.
    fn rotate(&mut self) -> io::Result<bool> {
        let Some(max_epoch) = self.max_epoch else {
            return Ok(false);
        };
        self.sync()?;
        let next = Wal::create(&self.dir, self.policy, self.seq + 1)?;
        let old = std::mem::replace(self, next);
        self.sealed = old.sealed;
        self.sealed.push(SealedSegment {
            path: old.path,
            max_epoch,
        });
        Ok(true)
    }

    /// Called after a checkpoint at `epoch` became durable: seals the
    /// current segment (if it has records), starts the next one, and
    /// deletes every sealed segment fully covered by the checkpoint.
    /// Returns what rotated/was deleted, for the `wal.rotate` flight event.
    pub(crate) fn compact(&mut self, epoch: u64) -> io::Result<CompactOutcome> {
        let mut outcome = CompactOutcome {
            rotated: self.rotate()?,
            ..CompactOutcome::default()
        };
        self.sealed.retain(|s| {
            if s.max_epoch <= epoch {
                self.dir.remove(&s.path);
                outcome.deleted += 1;
                false
            } else {
                true
            }
        });
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_core::{SideEffectPolicy, XmlUpdate};
    use rxview_relstore::tuple;
    use std::fs;
    use std::path::Path;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rxview-wal-test-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    impl AppendOutcome {
        /// Whether this append fsynced.
        fn synced(&self) -> bool {
            self.reason.is_some()
        }
    }

    fn segment_files(dir: &Path) -> Vec<(u64, PathBuf)> {
        LogDir::new(dir).list().unwrap().segments
    }

    fn scan_file(path: &Path) -> SegmentScan {
        scan_segment(&fs::read(path).unwrap())
    }

    /// Where each record of a segment's bytes starts, then where the last
    /// one ends.
    fn record_bounds(segment: &[u8]) -> Vec<usize> {
        let mut bounds = vec![WAL_MAGIC.len()];
        let mut pos = WAL_MAGIC.len();
        while pos + 8 <= segment.len() {
            pos += 8 + u32::from_le_bytes(segment[pos..pos + 4].try_into().unwrap()) as usize;
            bounds.push(pos);
        }
        bounds
    }

    fn sample_updates() -> Vec<LoggedUpdate> {
        vec![
            (
                XmlUpdate::delete("node[id=3]/sub/node[id=7]").unwrap(),
                SideEffectPolicy::Proceed,
            ),
            (
                XmlUpdate::insert("node", tuple![9i64, 1i64], "node[id=3]/sub").unwrap(),
                SideEffectPolicy::Abort,
            ),
            // The first update's shape again: written as its literals.
            (
                XmlUpdate::delete("node[id=4]/sub/node[id=8]").unwrap(),
                SideEffectPolicy::Proceed,
            ),
        ]
    }

    #[test]
    fn append_scan_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut wal = Wal::create(&LogDir::new(&dir), Durability::PerRound, 0).unwrap();
        wal.append(1, &sample_updates()).unwrap();
        wal.append(2, &[]).unwrap(); // all-rejected round: epoch only
        wal.append(3, &sample_updates()[..1]).unwrap();
        let segs = segment_files(&dir);
        assert_eq!(segs.len(), 1);
        let scan = scan_file(&segs[0].1);
        assert_eq!(scan.discarded, 0);
        assert_eq!(
            scan.records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(scan.records[0].updates, sample_updates());
        assert!(scan.records[1].updates.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_at_every_boundary() {
        let dir = temp_dir("torn");
        let mut wal = Wal::create(&LogDir::new(&dir), Durability::PerRound, 0).unwrap();
        wal.append(1, &sample_updates()).unwrap();
        wal.append(2, &sample_updates()[1..]).unwrap();
        let path = segment_files(&dir)[0].1.clone();
        let full = fs::read(&path).unwrap();
        let rec2_start = record_bounds(&full)[1];
        for cut in rec2_start..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_file(&path);
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.records[0].epoch, 1);
            assert_eq!(scan.discarded, (cut - rec2_start) as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_byte_in_last_record_never_panics() {
        let dir = temp_dir("corrupt");
        let mut wal = Wal::create(&LogDir::new(&dir), Durability::PerRound, 0).unwrap();
        wal.append(1, &sample_updates()).unwrap();
        wal.append(2, &sample_updates()).unwrap();
        let path = segment_files(&dir)[0].1.clone();
        let full = fs::read(&path).unwrap();
        let start = record_bounds(&full)[1];
        for i in start..full.len() {
            let mut bytes = full.clone();
            bytes[i] ^= 0x5A;
            fs::write(&path, &bytes).unwrap();
            let scan = scan_file(&path);
            // The flipped record (or its frame) must not survive as epoch 2
            // with altered content unless the flip landed in the length
            // field and re-framed to garbage — either way, epoch 1 is intact
            // and nothing panicked.
            assert_eq!(scan.records[0].epoch, 1, "flip at {i}");
            assert!(scan.records.len() <= 2);
            if scan.records.len() == 2 {
                // Only reachable if the flip produced a frame whose CRC
                // still matches its payload — i.e. the flip undid itself.
                assert_eq!(scan.records[1].updates, sample_updates());
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A record whose bytes are what its checksum says and whose payload
    /// still does not decode is not a torn tail: the prefix ends there, and
    /// the scan says where and why.
    #[test]
    fn checksummed_undecodable_record_is_reported_apart() {
        let dir = temp_dir("undecodable");
        let mut wal = Wal::create(&LogDir::new(&dir), Durability::PerRound, 0).unwrap();
        wal.append(1, &sample_updates()).unwrap();
        wal.append(2, &sample_updates()).unwrap();
        wal.append(3, &sample_updates()).unwrap();
        let path = segment_files(&dir)[0].1.clone();
        let mut bytes = fs::read(&path).unwrap();
        let clean = scan_file(&path);
        assert_eq!((clean.records.len(), clean.discarded), (3, 0));
        assert!(clean.undecodable.is_none());
        // Record 2: its first update's head byte (after the one-byte epoch
        // and count) becomes one no encoder writes; the CRC is re-stamped.
        let (start, end) = (record_bounds(&bytes)[1], record_bounds(&bytes)[2]);
        bytes[start + 8 + 2] = 0xFF;
        let crc = crc32(&bytes[start + 8..end]);
        bytes[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let scan = scan_file(&path);
        assert_eq!(scan.records.len(), 1, "the prefix ends at the record");
        let discarded = (bytes.len() - start) as u64;
        assert_eq!(scan.discarded, discarded);
        let (offset, error) = scan.undecodable.expect("reported");
        assert_eq!(offset, start as u64);
        assert!(matches!(error, CodecError::Invalid(_)), "{error}");
        // The same flip without the re-stamp is a corrupt tail, as before.
        bytes[start + 4] ^= 1;
        fs::write(&path, &bytes).unwrap();
        let scan = scan_file(&path);
        assert_eq!((scan.records.len(), scan.discarded), (1, discarded));
        assert!(scan.undecodable.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What the decoder would refuse is refused before it is written: a
    /// filter nest at the decoder's cap is logged and read back, one level
    /// deeper fails the append and leaves the segment as it was. Neither
    /// that round nor a record encoded and never written (what a failed
    /// write leaves) adds to the segment's tables: the round after them,
    /// of the labels and shapes they would have added, is spelled in full,
    /// and the segment is byte for byte the one a log that never saw them
    /// writes.
    #[test]
    fn a_round_the_decoder_would_refuse_is_not_appended() {
        use rxview_xmlkit::xpath::{Filter, Step, XPath};
        let nested = |levels: usize| {
            let mut filter = Filter::LabelIs("node".into());
            for _ in 1..levels {
                filter = Filter::not(filter);
            }
            let path = XPath::from_steps(vec![Step::label("node").with_filter(filter)]);
            vec![(XmlUpdate::Delete { path }, SideEffectPolicy::Proceed)]
        };
        let leaves = |id: i64| {
            let insert = XmlUpdate::insert("leaf", tuple![id], "node[id=5]/sub").unwrap();
            let delete = XmlUpdate::delete(&format!("node[id=5]/sub/leaf[id={id}]")).unwrap();
            vec![
                (insert, SideEffectPolicy::Proceed),
                (delete, SideEffectPolicy::Abort),
            ]
        };
        let dir = temp_dir("depth");
        let mut wal = Wal::create(&LogDir::new(&dir), Durability::PerRound, 0).unwrap();
        wal.append(1, &nested(MAX_FILTER_DEPTH)).unwrap();
        let path = segment_files(&dir)[0].1.clone();
        let before = fs::read(&path).unwrap();
        let too_deep = [leaves(0), nested(MAX_FILTER_DEPTH + 1)].concat();
        let refused = wal.append(2, &too_deep).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(fs::read(&path).unwrap(), before);
        wal.encoder.encode(2, &leaves(1)).unwrap();
        wal.append(2, &leaves(2)).unwrap();
        let scan = scan_file(&path);
        assert_eq!((scan.records.len(), scan.discarded), (2, 0));
        assert_eq!(scan.records[0].updates, nested(MAX_FILTER_DEPTH));
        assert_eq!(scan.records[1].updates, leaves(2));

        let twin = temp_dir("depth-twin");
        let mut clean = Wal::create(&LogDir::new(&twin), Durability::PerRound, 0).unwrap();
        clean.append(1, &nested(MAX_FILTER_DEPTH)).unwrap();
        clean.append(2, &leaves(2)).unwrap();
        let written = fs::read(&segment_files(&twin)[0].1).unwrap();
        assert!(fs::read(&path).unwrap() == written);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&twin).unwrap();
    }

    /// Once a segment's tables hold more than `MAX_TABLE_ENTRIES` labels and
    /// shapes, the next append seals the segment and opens the next one over
    /// empty tables — a round the old segment would have written shaped is
    /// spelled in full; a checkpoint that covers both segments deletes both.
    #[test]
    fn full_tables_rotate_to_a_fresh_segment() {
        // A label and a shape per update: 2 000 entries a round.
        let round = |n: u64| -> Vec<LoggedUpdate> {
            let delete = |i| XmlUpdate::delete(&format!("r{n}n{i}")).unwrap();
            (0..1000)
                .map(|i| (delete(i), SideEffectPolicy::Abort))
                .collect()
        };
        let dir = temp_dir("cap");
        let mut wal = Wal::create(&LogDir::new(&dir), Durability::PerRound, 0).unwrap();
        for epoch in 1..=3 {
            wal.append(epoch, &round(epoch)).unwrap();
        }
        assert_eq!(segment_files(&dir).len(), 1, "rotation is lazy");
        wal.append(4, &round(3)).unwrap();
        let segments = segment_files(&dir);
        assert_eq!(segments.len(), 2, "6 000 entries > {MAX_TABLE_ENTRIES}");
        let epochs = |path: &Path| {
            let scan = scan_file(path);
            assert_eq!(scan.discarded, 0);
            scan.records.iter().map(|r| r.epoch).collect::<Vec<_>>()
        };
        assert_eq!(epochs(&segments[0].1), [1, 2, 3]);
        assert_eq!(epochs(&segments[1].1), [4]);
        let mut fresh = RecordEncoder::default();
        let fresh = [&WAL_MAGIC[..], fresh.encode(4, &round(3)).unwrap()].concat();
        assert!(
            fs::read(&segments[1].1).unwrap() == fresh,
            "spelled in full"
        );
        let compacted = wal.compact(4).unwrap();
        assert_eq!((compacted.rotated, compacted.deleted), (true, 2));
        assert_eq!(segment_files(&dir).len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A file shorter than a magic is what a crash inside segment creation
    /// leaves: torn, the whole file discarded.
    #[test]
    fn missing_magic_discards_whole_file() {
        let scan = scan_segment(b"RXWAL");
        assert!(scan.records.is_empty() && scan.undecodable.is_none());
        assert_eq!(scan.discarded, 5);
    }

    /// A full magic this binary does not read — another file, a newer
    /// binary's segment, a format it no longer reads — is not a torn tail:
    /// the segment is undecodable from offset 0, whatever its records hold.
    #[test]
    fn an_unknown_magic_is_unreadable_not_torn() {
        let mut v4 = b"RXWALv4\n".to_vec();
        v4.extend_from_slice(
            RecordEncoder::default()
                .encode(1, &sample_updates())
                .unwrap(),
        );
        for bytes in [&b"not a log"[..], b"RXWALv9\n", &v4] {
            let scan = scan_segment(bytes);
            assert!(scan.records.is_empty());
            assert_eq!(scan.discarded, bytes.len() as u64);
            let (offset, error) = scan.undecodable.expect("reported");
            assert_eq!(offset, 0);
            assert!(
                error.to_string().contains("unknown segment magic"),
                "{error}"
            );
        }
    }

    /// Every magic `scan_segment` reads opens the segment of a checked-in
    /// directory under `tests/fixtures/`, and every magic a checkpoint load
    /// reads (`logdir::FORMATS`) one of its checkpoints; the newest
    /// directory's segment opens with `WAL_MAGIC` and its checkpoints with
    /// `CKPT_MAGIC`: neither format can change without a fixture of the
    /// bytes it writes. The directories are named `pr<N>_…`, N ascending in
    /// the order they were written.
    #[test]
    fn every_format_keeps_a_fixture() {
        use crate::logdir::{CKPT_MAGIC, FORMATS as CKPT_FORMATS};
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        // The magic each segment and each checkpoint opens with, by the
        // number of its directory.
        let (mut segments, mut checkpoints) = (Vec::new(), Vec::new());
        for entry in fs::read_dir(&fixtures).unwrap() {
            let dir = entry.unwrap().path();
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            let n: u32 = name
                .strip_prefix("pr")
                .and_then(|s| s.split('_').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("`{name}` is not named pr<N>_…"));
            let listing = LogDir::new(&dir).list().unwrap();
            let magic = |(_, path): (u64, PathBuf)| (n, fs::read(path).unwrap()[..8].to_vec());
            segments.extend(listing.segments.into_iter().map(magic));
            checkpoints.extend(listing.checkpoints.into_iter().map(magic));
        }
        let read = [
            (FORMATS.to_vec(), WAL_MAGIC, &segments, "segment"),
            (
                CKPT_FORMATS.iter().map(|(magic, _)| *magic).collect(),
                CKPT_MAGIC,
                &checkpoints,
                "checkpoint",
            ),
        ];
        let newest = segments.iter().map(|(n, _)| *n).max().expect("fixtures");
        for (magics, this_tree, opened, kind) in read {
            for magic in magics {
                let tag = String::from_utf8_lossy(magic);
                assert!(
                    opened.iter().any(|(_, m)| m == magic),
                    "no fixture {kind} opens with {}",
                    tag.trim_end()
                );
            }
            let mut newest_files = opened.iter().filter(|(n, _)| *n == newest).peekable();
            assert!(
                newest_files.peek().is_some() && newest_files.all(|(_, m)| m == this_tree),
                "pr{newest}'s {kind}s are not this tree's"
            );
        }
    }

    #[test]
    fn compact_rotates_and_deletes_covered_segments() {
        let dir = temp_dir("compact");
        let mut wal = Wal::create(&LogDir::new(&dir), Durability::PerRound, 0).unwrap();
        wal.append(1, &[]).unwrap();
        wal.append(2, &[]).unwrap();
        // Checkpoint at epoch 2 covers everything written so far.
        wal.compact(2).unwrap();
        assert_eq!(segment_files(&dir).len(), 1, "old segment gone");
        wal.append(3, &[]).unwrap();
        // Checkpoint at epoch 2 again: segment with epoch 3 must survive.
        wal.compact(2).unwrap();
        let segs = segment_files(&dir);
        assert_eq!(segs.len(), 2, "uncovered sealed segment kept + fresh one");
        wal.compact(3).unwrap();
        assert_eq!(segment_files(&dir).len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_syncs_on_round_watermark() {
        // (max_rounds, appends, fsyncs): a count that is not a multiple
        // leaves its remainder unsynced.
        for (max_rounds, appends, want) in [(4, 12, 3), (3, 7, 2)] {
            let dir = temp_dir("groupcommit-rounds");
            // Age bound off: only the round watermark trips.
            let policy = Durability::GroupCommit {
                max_rounds,
                max_micros: 0,
            };
            let mut wal = Wal::create(&LogDir::new(&dir), policy, 0).unwrap();
            let mut syncs = 0;
            for epoch in 1..=appends {
                let out = wal.append(epoch, &[]).unwrap();
                assert!(
                    out.reason.is_none() || out.reason == Some(SyncReason::RoundWatermark),
                    "only the round watermark can trip with max_micros=0"
                );
                syncs += u64::from(out.synced());
            }
            assert_eq!(syncs, want, "{appends} appends at max_rounds={max_rounds}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn group_commit_syncs_on_age_watermark() {
        let dir = temp_dir("groupcommit-age");
        // Round bound far away; a tiny age bound trips on the next append
        // after the oldest unsynced round gets old enough.
        let mut wal = Wal::create(
            &LogDir::new(&dir),
            Durability::GroupCommit {
                max_rounds: 1_000,
                max_micros: 1, // any measurable delay exceeds this
            },
            0,
        )
        .unwrap();
        let first = wal.append(1, &[]).unwrap();
        assert!(!first.synced(), "first append has nothing old to flush");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let second = wal.append(2, &[]).unwrap();
        assert_eq!(
            second.reason,
            Some(SyncReason::AgeWatermark),
            "age watermark forces (and is attributed) the sync"
        );
        let third = wal.append(3, &[]).unwrap();
        assert!(!third.synced(), "watermark reset after the sync");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_log_scans_like_any_other() {
        let dir = temp_dir("groupcommit-scan");
        let mut wal = Wal::create(
            &LogDir::new(&dir),
            Durability::GroupCommit {
                max_rounds: 8,
                max_micros: 0,
            },
            0,
        )
        .unwrap();
        for epoch in 1..=5 {
            wal.append(epoch, &sample_updates()).unwrap();
        }
        wal.sync().unwrap();
        let segs = segment_files(&dir);
        let scan = scan_file(&segs[0].1);
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.discarded, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
