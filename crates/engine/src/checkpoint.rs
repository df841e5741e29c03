//! Fuzzy snapshot checkpoints.
//!
//! A checkpoint is one file `ckpt-<epoch>.rxck` holding the complete system
//! state `(I, V, M, L)` at a published epoch, serialized with
//! [`rxview_core::codec::encode_system`] and CRC-guarded like a WAL record.
//! Because the engine's snapshots are immutable behind an `Arc`, the
//! background checkpointer serializes a *recent* snapshot while writers
//! keep committing — the "fuzzy" part costs nothing beyond holding one
//! `Arc` alive; no write path ever blocks on checkpoint I/O.
//!
//! Checkpoints are written to a temporary name, fsynced, then renamed into
//! place, so a crash mid-checkpoint leaves at most a stale `.tmp` file that
//! recovery ignores. After a checkpoint at epoch `E` is durable, the WAL
//! rotates and drops every segment whose records are all `<= E`
//! (`Wal::compact`), bounding log growth.

use crate::obs::fields;
use crate::snapshot::Snapshot;
use crate::stats::EngineStats;
use crate::wal::Wal;
use rxview_atg::Atg;
use rxview_core::codec;
use rxview_core::XmlViewSystem;
use rxview_relstore::codec::{crc32, Reader};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Magic bytes opening every checkpoint file.
pub(crate) const CKPT_MAGIC: &[u8; 8] = b"RXCKPv1\n";

fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("ckpt-{epoch:020}.rxck"))
}

/// Serializes `sys` at `epoch` into `dir`, atomically (tmp + rename) and
/// durably (fsync before rename). Returns the final path.
pub(crate) fn write_checkpoint(dir: &Path, epoch: u64, sys: &XmlViewSystem) -> io::Result<PathBuf> {
    let mut payload = Vec::new();
    rxview_relstore::codec::put_varint(&mut payload, epoch);
    codec::encode_system(sys, &mut payload);

    let path = checkpoint_path(dir, epoch);
    // Unique tmp per writer: `checkpoint_now` and the background
    // checkpointer may both serialize the same epoch concurrently, and a
    // shared tmp path would let their truncate+write streams interleave
    // into a corrupt installed file.
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "rxck.{}.tmp",
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
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
    // Make the rename itself durable (directory entry).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_data();
    }
    Ok(path)
}

/// Decodes a checkpoint file under `atg`. Returns the epoch and the
/// reassembled system, or `None` if the file is torn, corrupt, or encoded
/// under a different grammar — recovery then falls back to an older one.
pub(crate) fn load_checkpoint(path: &Path, atg: &Atg) -> io::Result<Option<(u64, XmlViewSystem)>> {
    let bytes = fs::read(path)?;
    if bytes.len() < CKPT_MAGIC.len() + 12 || &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Ok(None);
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    // The length field is untrusted: bound it against the file before any
    // arithmetic so a corrupt header cannot overflow (and panic under
    // overflow checks) instead of being skipped.
    if len > (bytes.len() - 20) as u64 {
        return Ok(None);
    }
    let payload = &bytes[20..20 + len as usize];
    if crc32(payload) != crc {
        return Ok(None);
    }
    let mut r = Reader::new(payload);
    let decoded = (|| {
        let epoch = r.read_varint()?;
        let sys = codec::decode_system(atg, &mut r)?;
        Ok::<_, rxview_relstore::CodecError>((epoch, sys))
    })();
    Ok(match decoded {
        Ok((epoch, sys)) if r.is_empty() => Some((epoch, sys)),
        _ => None,
    })
}

/// Checkpoint files in `dir`, ascending by epoch.
pub(crate) fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(epoch) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".rxck"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((epoch, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Deletes all but the newest `keep` checkpoint files. Keeping one spare
/// guards against the newest file being lost to partial-write corruption
/// the CRC later rejects. `.tmp` files are deliberately left alone — a
/// concurrent writer (`checkpoint_now` racing the background thread) may
/// still be filling one; stale leftovers are reaped by
/// [`clean_stale_tmps`] at recovery time, when no writer can be live.
pub(crate) fn prune_checkpoints(dir: &Path, keep: usize) -> io::Result<()> {
    let mut ckpts = list_checkpoints(dir)?;
    let n = ckpts.len().saturating_sub(keep);
    for (_, path) in ckpts.drain(..n) {
        let _ = fs::remove_file(path);
    }
    Ok(())
}

/// Reaps `.tmp` leftovers of checkpoints whose writer crashed mid-write.
/// Only safe when no engine is writing into `dir` (engine construction and
/// recovery — never from a live checkpointer).
pub(crate) fn clean_stale_tmps(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("ckpt-") && name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// The hand-off slot between the commit path and the checkpoint thread: a
/// one-deep "latest snapshot wins" mailbox. If requests arrive faster than
/// checkpoints serialize, newer snapshots *replace* queued ones instead of
/// piling up — an unbounded queue would pin arbitrarily many full system
/// versions in memory, and a fuzzy checkpoint only ever wants a recent one
/// anyway.
///
/// A panic while the lock is held cannot leave the state invalid (it is an
/// `Option` and a `bool`), so a poisoned lock is used as it is: a request
/// is still served, and dropping the handle still shuts the thread down.
#[derive(Debug, Default)]
struct Mailbox {
    slot: Mutex<MailboxState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct MailboxState {
    next: Option<Arc<Snapshot>>,
    shutdown: bool,
}

/// The background checkpointer: a thread that serializes snapshots the
/// commit path hands it, then compacts the WAL behind each durable
/// checkpoint. Dropping the handle signals shutdown and joins the thread
/// (finishing any checkpoint already in progress).
#[derive(Debug)]
pub(crate) struct Checkpointer {
    mailbox: Arc<Mailbox>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Checkpointer {
    pub(crate) fn spawn(dir: PathBuf, wal: Arc<Mutex<Wal>>, stats: Arc<EngineStats>) -> Self {
        let mailbox = Arc::new(Mailbox::default());
        let inbox = Arc::clone(&mailbox);
        let thread = std::thread::Builder::new()
            .name("rxview-checkpoint".into())
            .spawn(move || loop {
                let snap = {
                    let mut st = inbox.slot.lock().unwrap_or_else(PoisonError::into_inner);
                    loop {
                        if let Some(s) = st.next.take() {
                            break s;
                        }
                        if st.shutdown {
                            return;
                        }
                        st = inbox.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                stats.recorder().record(
                    "checkpoint.start",
                    fields![epoch: snap.epoch(), source: "background"],
                );
                let t0 = std::time::Instant::now();
                match write_checkpoint(&dir, snap.epoch(), snap.system()) {
                    Ok(_) => {
                        stats.checkpoints.incr();
                        stats.recorder().record(
                            "checkpoint.end",
                            fields![
                                epoch: snap.epoch(),
                                micros: t0.elapsed().as_micros() as u64
                            ],
                        );
                        // A poisoned log is reported here and left as it is.
                        let compacted =
                            crate::wal::lock(&wal).and_then(|mut w| w.compact(snap.epoch()));
                        match compacted {
                            Err(e) => eprintln!("rxview: WAL compaction failed: {e}"),
                            Ok(out) if out.rotated => stats.recorder().record(
                                "wal.rotate",
                                fields![
                                    upto_epoch: snap.epoch(),
                                    deleted_segments: out.deleted
                                ],
                            ),
                            Ok(_) => {}
                        }
                        let _ = prune_checkpoints(&dir, 2);
                    }
                    Err(e) => eprintln!("rxview: checkpoint failed: {e}"),
                }
            })
            .expect("spawn checkpointer");
        Checkpointer {
            mailbox,
            thread: Some(thread),
        }
    }

    /// Hands a snapshot to the background thread, replacing any queued one
    /// (never blocks on I/O; backlog is at most one snapshot).
    pub(crate) fn request(&self, snap: Arc<Snapshot>) {
        let mut st = self
            .mailbox
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.next = Some(snap);
        self.mailbox.cv.notify_one();
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        {
            let mut st = self
                .mailbox
                .slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.shutdown = true;
            self.mailbox.cv.notify_one();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_workload::{synthetic_atg, synthetic_database, SyntheticConfig};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rxview-ckpt-test-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir
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
        let path = write_checkpoint(&dir, 7, &sys).unwrap();
        let (epoch, back) = load_checkpoint(&path, &atg).unwrap().expect("valid");
        assert_eq!(epoch, 7);
        assert_eq!(back.view().n_nodes(), sys.view().n_nodes());
        assert_eq!(back.topo().order(), sys.topo().order());
        back.consistency_check().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_not_panicking() {
        let dir = temp_dir("corrupt");
        let sys = system(80);
        let atg = sys.view().atg().clone();
        let path = write_checkpoint(&dir, 3, &sys).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Truncations and a scatter of bit flips must all be rejected.
        for cut in [0, 4, 20, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(load_checkpoint(&path, &atg).unwrap().is_none(), "cut {cut}");
        }
        for i in (0..bytes.len()).step_by(101) {
            let mut b = bytes.clone();
            b[i] ^= 0x40;
            fs::write(&path, &b).unwrap();
            let loaded = load_checkpoint(&path, &atg).unwrap();
            // A flip anywhere in magic/frame/payload breaks the CRC or the
            // magic; flips in the len field either truncate or shift the
            // CRC window.
            assert!(loaded.is_none(), "flip at {i} must not load");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A log whose lock a panic poisoned is reported by the checkpointer and
    /// left as it is: the checkpoint is written, compaction is skipped, and
    /// the thread does not panic.
    #[test]
    fn a_poisoned_log_skips_compaction() {
        use crate::wal::{list_segments, Durability};
        let dir = temp_dir("poisoned");
        let sys = system(60);
        let wal = Wal::create(&dir, Durability::PerRound, 0).unwrap();
        let wal = Arc::new(Mutex::new(wal));
        let held = Arc::clone(&wal);
        let panicked = std::thread::spawn(move || {
            let _held = held.lock();
            panic!("a panic mid-append");
        })
        .join();
        assert!(panicked.is_err());
        let stats = EngineStats::new(
            crate::stats::flight_recorder(),
            Arc::clone(sys.view().plan_cache()),
        );
        let mut ckpt = Checkpointer::spawn(dir.clone(), wal, Arc::new(stats));
        ckpt.request(Arc::new(Snapshot::new(sys, 4)));
        {
            let mut st = ckpt.mailbox.slot.lock().unwrap();
            st.shutdown = true;
            ckpt.mailbox.cv.notify_one();
        }
        let thread = ckpt.thread.take().unwrap();
        assert!(thread.join().is_ok(), "the checkpointer did not panic");
        let written: Vec<u64> = list_checkpoints(&dir)
            .unwrap()
            .iter()
            .map(|c| c.0)
            .collect();
        assert_eq!(written, [4]);
        assert_eq!(list_segments(&dir).unwrap().len(), 1, "no rotation");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A mailbox whose lock a panic poisoned still hands a snapshot over, and
    /// dropping the handle still shuts the thread down and joins it: the
    /// checkpoint is written, and nothing panics (a panic inside `drop`
    /// while another panic unwinds would abort the process).
    #[test]
    fn a_poisoned_mailbox_still_checkpoints_and_shuts_down() {
        use crate::wal::Durability;
        let dir = temp_dir("poisoned-mailbox");
        let sys = system(60);
        let wal = Wal::create(&dir, Durability::PerRound, 0).unwrap();
        let stats = EngineStats::new(
            crate::stats::flight_recorder(),
            Arc::clone(sys.view().plan_cache()),
        );
        let ckpt = Checkpointer::spawn(dir.clone(), Arc::new(Mutex::new(wal)), Arc::new(stats));
        let mailbox = Arc::clone(&ckpt.mailbox);
        let panicked = std::thread::spawn(move || {
            let _held = mailbox.slot.lock();
            panic!("a panic while the mailbox is held");
        })
        .join();
        assert!(panicked.is_err());
        assert!(ckpt.mailbox.slot.is_poisoned());
        ckpt.request(Arc::new(Snapshot::new(sys, 5)));
        drop(ckpt);
        let written: Vec<u64> = list_checkpoints(&dir)
            .unwrap()
            .iter()
            .map(|c| c.0)
            .collect();
        assert_eq!(written, [5]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = temp_dir("prune");
        let sys = system(60);
        for epoch in [1, 5, 9] {
            write_checkpoint(&dir, epoch, &sys).unwrap();
        }
        prune_checkpoints(&dir, 2).unwrap();
        let left: Vec<u64> = list_checkpoints(&dir)
            .unwrap()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(left, vec![5, 9]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
