//! The log directory: the one owner of a durable engine's files.
//!
//! [`LogDir`] is the only code that names, creates, lists, reads, renames,
//! syncs or deletes a file of a durable engine (`Wal` writes, fsyncs and
//! truncates the segment it was handed). The directory holds:
//!
//! - `wal-<seq>.rxlog`, a log segment (records: `crate::wal`). Created when
//!   a log opens (the anchor) or rotates (`Wal::compact`, or full tables);
//!   deleted by `Wal::compact` once a checkpoint covers all its records, and
//!   by the anchor, which a durable recovery runs only on a directory it read
//!   in full (`crate::recovery`).
//! - `ckpt-<epoch>.rxck`, the state at a published epoch: `RXCKPv2\n`, the
//!   payload's length (u64 LE) and CRC-32 (u32 LE), then the payload,
//!   `varint epoch` · [`rxview_core::codec::encode_system`] — `I`, `V` and
//!   `L`; the load rebuilds `gen_A` from them. One format back,
//!   `RXCKPv1\n` (which also held `gen_A` and `M`), is read and never
//!   written (`FORMATS`). Written only by `LogDir::write_checkpoint`;
//!   pruned to the newest [`KEEP_CHECKPOINTS`] after every checkpoint and
//!   anchor.
//! - `ckpt-<epoch>.rxck.tmp`, a checkpoint being written, renamed into place
//!   when whole. One a crash left is ignored by recovery and pruned.
//!
//! Each deletion is safe because of the fsync order before it:
//!
//! 1. A checkpoint's tmp file is fsynced, renamed into place, and the
//!    directory fsynced; only then may what it covers be deleted. A
//!    checkpoint that fails deletes nothing.
//! 2. A segment's magic is fsynced, then the directory, before a record
//!    reaches it: no rotation loses the file holding acknowledged rounds.
//! 3. Deletions come last and are best effort: a file that survives one is
//!    covered by the next checkpoint, and recovery skips records at or
//!    below the checkpoint it loads.
//!
//! Two procedures write the directory. The *anchor* ([`LogDir::anchor`])
//! starts a log before any other thread can reach it, at epoch 0 on an empty
//! directory (`Engine::with_durability`) or at the recovered epoch (a
//! durable `Engine::recover`). The *checkpoint* ([`Log::checkpoint`]) serves
//! `Engine::checkpoint_now` and the background checkpointer, one at a time.
//! Recovery only reads.

use crate::obs::fields;
use crate::snapshot::Snapshot;
use crate::stats::EngineStats;
use crate::wal::{Durability, Wal};
use rxview_atg::Atg;
use rxview_core::{codec, XmlViewSystem};
use rxview_relstore::codec::{crc32, put_varint, CodecResult, Reader};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Magic bytes opening every checkpoint file this engine writes.
pub(crate) const CKPT_MAGIC: &[u8; 8] = b"RXCKPv2\n";

/// Decodes a checkpoint's system under its grammar.
type DecodeSystem = fn(&Atg, &mut Reader<'_>) -> CodecResult<XmlViewSystem>;

/// Each magic [`LogDir::load_checkpoint`] reads, this binary's and one back,
/// with the decoder of its layout.
pub(crate) const FORMATS: [(&[u8; 8], DecodeSystem); 2] = [
    (CKPT_MAGIC, codec::decode_system),
    (b"RXCKPv1\n", codec::decode_system_v1),
];

/// Checkpoints a prune keeps: the newest, and a spare in case the newest is
/// lost to a corruption its CRC later rejects.
const KEEP_CHECKPOINTS: usize = 2;

/// What a log directory holds, each kind ascending by its number.
#[derive(Debug, Default)]
pub(crate) struct Listing {
    /// `wal-<seq>.rxlog`, by sequence number.
    pub(crate) segments: Vec<(u64, PathBuf)>,
    /// `ckpt-<epoch>.rxck`, by epoch.
    pub(crate) checkpoints: Vec<(u64, PathBuf)>,
    /// Checkpoint tmp files a crashed writer left behind.
    tmps: Vec<PathBuf>,
}

/// A log directory (see the module docs), by its path.
#[derive(Debug, Clone)]
pub(crate) struct LogDir(PathBuf);

impl LogDir {
    /// The directory at `path`, as it is.
    pub(crate) fn new(path: &Path) -> LogDir {
        LogDir(path.to_path_buf())
    }

    /// The directory at `path`, created if absent, for a log to start in:
    /// one holding a log must go through `Engine::recover`.
    pub(crate) fn create(path: &Path) -> io::Result<LogDir> {
        fs::create_dir_all(path)?;
        let dir = LogDir::new(path);
        let listing = dir.list()?;
        if !listing.segments.is_empty() || !listing.checkpoints.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "`{}` already holds a replay log; use Engine::recover",
                    path.display()
                ),
            ));
        }
        Ok(dir)
    }

    /// The segments, checkpoints and tmp files in the directory.
    pub(crate) fn list(&self) -> io::Result<Listing> {
        let mut listing = Listing::default();
        for entry in fs::read_dir(&self.0)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let number = |prefix: &str, suffix: &str| -> Option<u64> {
                name.strip_prefix(prefix)?
                    .strip_suffix(suffix)?
                    .parse()
                    .ok()
            };
            if let Some(seq) = number("wal-", ".rxlog") {
                listing.segments.push((seq, entry.path()));
            } else if let Some(epoch) = number("ckpt-", ".rxck") {
                listing.checkpoints.push((epoch, entry.path()));
            } else if name.starts_with("ckpt-") && name.ends_with(".tmp") {
                listing.tmps.push(entry.path());
            }
        }
        listing.segments.sort();
        listing.checkpoints.sort();
        Ok(listing)
    }

    /// A file's bytes.
    pub(crate) fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    /// Deletes a file, best effort (module docs, 3).
    pub(crate) fn remove(&self, path: &Path) {
        let _ = fs::remove_file(path);
    }

    /// Fsyncs the directory, making the entries created or renamed in it
    /// durable.
    fn sync(&self) -> io::Result<()> {
        File::open(&self.0)?.sync_all()
    }

    /// Creates `wal-<seq>.rxlog` holding `magic`, durably (module docs, 2).
    pub(crate) fn create_segment(&self, seq: u64, magic: &[u8]) -> io::Result<(File, PathBuf)> {
        let path = self.0.join(format!("wal-{seq:010}.rxlog"));
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(magic)?;
        file.sync_data()?;
        self.sync()?;
        Ok((file, path))
    }

    /// Writes `sys` as the checkpoint at `epoch`, the one function that does
    /// (module docs, 1).
    pub(crate) fn write_checkpoint(&self, epoch: u64, sys: &XmlViewSystem) -> io::Result<()> {
        let mut payload = Vec::new();
        put_varint(&mut payload, epoch);
        codec::encode_system(sys, &mut payload);
        let path = self.0.join(format!("ckpt-{epoch:020}.rxck"));
        let tmp = path.with_extension("rxck.tmp");
        {
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            file.write_all(CKPT_MAGIC)?;
            file.write_all(&(payload.len() as u64).to_le_bytes())?;
            file.write_all(&crc32(&payload).to_le_bytes())?;
            file.write_all(&payload)?;
            file.sync_data()?;
        }
        fs::rename(&tmp, &path)?;
        self.sync()
    }

    /// Decodes a checkpoint file under `atg`, in the layout its magic names.
    /// Returns the epoch and the reassembled system, or `None` if the file
    /// is torn, corrupt, of a format `FORMATS` does not list, or encoded
    /// under a different grammar — recovery then falls back to an older one.
    pub(crate) fn load_checkpoint(
        &self,
        path: &Path,
        atg: &Atg,
    ) -> io::Result<Option<(u64, XmlViewSystem)>> {
        let bytes = self.read(path)?;
        // The length field is untrusted: it only selects a slice, so a
        // corrupt header is skipped, never trusted with arithmetic.
        Ok((|| {
            let (magic, rest) = bytes.split_first_chunk::<8>()?;
            let (len, rest) = rest.split_first_chunk::<8>()?;
            let (crc, rest) = rest.split_first_chunk::<4>()?;
            let payload = rest.get(..usize::try_from(u64::from_le_bytes(*len)).ok()?)?;
            let (_, decode) = FORMATS.iter().find(|(m, _)| magic == *m)?;
            if crc32(payload) != u32::from_le_bytes(*crc) {
                return None;
            }
            let mut r = Reader::new(payload);
            let epoch = r.read_varint().ok()?;
            let sys = decode(atg, &mut r).ok()?;
            r.is_empty().then_some((epoch, sys))
        })())
    }

    /// Deletes `listing`'s tmp files and all but its newest checkpoints,
    /// where no checkpoint is being written: in the anchor or the checkpoint.
    fn prune(&self, listing: Listing) {
        let stale = listing.checkpoints.len().saturating_sub(KEEP_CHECKPOINTS);
        let checkpoints = listing.checkpoints.into_iter().take(stale);
        for path in checkpoints.map(|(_, path)| path).chain(listing.tmps) {
            self.remove(&path);
        }
    }

    /// The anchor: checkpoints `sys` at `epoch`, deletes every segment, opens
    /// the next one under `policy` and prunes.
    pub(crate) fn anchor(
        self,
        epoch: u64,
        sys: &XmlViewSystem,
        policy: Durability,
    ) -> io::Result<Log> {
        self.write_checkpoint(epoch, sys)?;
        let listing = self.list()?;
        for (_, path) in &listing.segments {
            self.remove(path);
        }
        let seq = listing.segments.last().map_or(0, |(seq, _)| seq + 1);
        let wal = Wal::create(&self, policy, seq)?;
        self.prune(listing);
        Ok(Log {
            dir: self,
            wal: Mutex::new(wal),
            checkpointing: Mutex::new(()),
        })
    }
}

/// A durable engine's open log: its directory, the segment rounds append
/// to, and the lock that runs one checkpoint at a time (it guards nothing a
/// panic could leave invalid, so a poisoned one is used as it is).
#[derive(Debug)]
pub(crate) struct Log {
    dir: LogDir,
    pub(crate) wal: Mutex<Wal>,
    checkpointing: Mutex<()>,
}

impl Log {
    /// Locks the open segment. A lock poisoned by a panic mid-append is an
    /// error, not a panic: the panic may have left the segment's tables half
    /// staged, so nothing appends to the log, syncs it or compacts it again.
    pub(crate) fn wal(&self) -> io::Result<MutexGuard<'_, Wal>> {
        self.wal
            .lock()
            .map_err(|_| io::Error::other("replay log lock poisoned by a panic"))
    }

    /// The checkpoint procedure: writes `snap` as a checkpoint, compacts the
    /// log behind it and prunes, recording `checkpoint.start`,
    /// `checkpoint.end` and `wal.rotate`, or `checkpoint.failed` with the
    /// error it returns. `trigger` is `manual` or `background`.
    pub(crate) fn checkpoint(
        &self,
        snap: &Snapshot,
        trigger: &'static str,
        stats: &EngineStats,
    ) -> io::Result<u64> {
        let _one_at_a_time = self
            .checkpointing
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (epoch, recorder) = (snap.epoch(), stats.recorder());
        recorder.record("checkpoint.start", fields![epoch: epoch, trigger: trigger]);
        let t0 = Instant::now();
        let done = (|| {
            self.dir.write_checkpoint(epoch, snap.system())?;
            stats.checkpoints.incr();
            let micros = t0.elapsed().as_micros() as u64;
            recorder.record("checkpoint.end", fields![epoch: epoch, micros: micros]);
            let compacted = self.wal()?.compact(epoch)?;
            if compacted.rotated || compacted.deleted > 0 {
                recorder.record(
                    "wal.rotate",
                    fields![
                        epoch: epoch,
                        rotated: u64::from(compacted.rotated),
                        deleted_segments: compacted.deleted,
                    ],
                );
            }
            self.dir.prune(self.dir.list()?);
            Ok::<_, io::Error>(epoch)
        })();
        if let Err(e) = &done {
            recorder.record(
                "checkpoint.failed",
                fields![epoch: epoch, trigger: trigger, error: e.to_string()],
            );
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_workload::{synthetic_atg, synthetic_database, SyntheticConfig};

    fn temp_dir(tag: &str) -> LogDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "rxview-logdir-test-{tag}-{}-{n}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).expect("temp dir");
        LogDir::new(&dir)
    }

    fn system(n: usize) -> XmlViewSystem {
        let cfg = SyntheticConfig::with_size(n);
        let db = synthetic_database(&cfg);
        let atg = synthetic_atg(&db).expect("valid ATG");
        XmlViewSystem::new(atg, db).expect("publishes")
    }

    #[test]
    fn write_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let sys = system(120);
        let atg = sys.view().atg().clone();
        dir.write_checkpoint(7, &sys).unwrap();
        let path = dir.list().unwrap().checkpoints.remove(0).1;
        let (epoch, back) = dir.load_checkpoint(&path, &atg).unwrap().expect("valid");
        assert_eq!(epoch, 7);
        assert_eq!(
            back.exact_digest().first_difference(&sys.exact_digest()),
            None
        );
        back.consistency_check().unwrap();
        fs::remove_dir_all(&dir.0).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_not_panicking() {
        let dir = temp_dir("corrupt");
        let sys = system(80);
        let atg = sys.view().atg().clone();
        dir.write_checkpoint(3, &sys).unwrap();
        let path = dir.list().unwrap().checkpoints.remove(0).1;
        let bytes = fs::read(&path).unwrap();
        // Truncations and a scatter of bit flips must all be rejected.
        for cut in [0, 4, 20, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                dir.load_checkpoint(&path, &atg).unwrap().is_none(),
                "cut {cut}"
            );
        }
        for i in (0..bytes.len()).step_by(101) {
            let mut b = bytes.clone();
            b[i] ^= 0x40;
            fs::write(&path, &b).unwrap();
            let loaded = dir.load_checkpoint(&path, &atg).unwrap();
            // A flip anywhere in magic/frame/payload breaks the CRC or the
            // magic; flips in the len field either truncate or shift the
            // CRC window.
            assert!(loaded.is_none(), "flip at {i} must not load");
        }
        fs::remove_dir_all(&dir.0).unwrap();
    }

    /// A prune keeps the newest two checkpoints and reaps tmp files, of
    /// this tree's name and of the numbered name older trees wrote.
    #[test]
    fn prune_keeps_the_newest_two_and_reaps_tmps() {
        let dir = temp_dir("prune");
        let sys = system(60);
        for epoch in [1, 5, 9] {
            dir.write_checkpoint(epoch, &sys).unwrap();
        }
        for tmp in [
            "ckpt-00000000000000000011.rxck.tmp",
            "ckpt-00000000000000000012.rxck.3.tmp",
        ] {
            fs::write(dir.0.join(tmp), b"torn").unwrap();
        }
        let listing = dir.list().unwrap();
        assert_eq!(listing.tmps.len(), 2);
        dir.prune(listing);
        let left = dir.list().unwrap();
        let epochs: Vec<u64> = left.checkpoints.iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, [5, 9]);
        assert!(left.tmps.is_empty() && left.segments.is_empty());
        fs::remove_dir_all(&dir.0).unwrap();
    }
}
