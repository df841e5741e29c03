//! The background checkpointer: fuzzy snapshot checkpoints.
//!
//! Snapshots are immutable behind an `Arc`, so the checkpointer thread
//! serializes a *recent* one while writers keep committing; no write path
//! ever blocks on checkpoint I/O. It runs `Engine::checkpoint_now`'s
//! procedure, `Log::checkpoint` (`crate::logdir`).

use crate::logdir::Log;
use crate::snapshot::Snapshot;
use crate::stats::EngineStats;
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

impl Mailbox {
    fn lock(&self) -> MutexGuard<'_, MailboxState> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The background checkpointer: a thread that checkpoints the snapshots the
/// commit path hands it. Dropping the handle signals shutdown and joins the
/// thread (finishing any checkpoint already in progress).
#[derive(Debug)]
pub(crate) struct Checkpointer {
    mailbox: Arc<Mailbox>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Checkpointer {
    /// Starts the thread. A failure is the caller's: the engine is not built.
    pub(crate) fn spawn(log: Arc<Log>, stats: Arc<EngineStats>) -> io::Result<Self> {
        let mailbox = Arc::new(Mailbox::default());
        let inbox = Arc::clone(&mailbox);
        let thread = std::thread::Builder::new()
            .name("rxview-checkpoint".into())
            .spawn(move || loop {
                let idle = |st: &mut MailboxState| st.next.is_none() && !st.shutdown;
                let waited = inbox.cv.wait_while(inbox.lock(), idle);
                // A queued snapshot is served even after shutdown is signalled.
                let Some(snap) = waited.unwrap_or_else(PoisonError::into_inner).next.take() else {
                    return;
                };
                // A failure is a `checkpoint.failed` flight event; the next
                // request tries again.
                let _ = log.checkpoint(&snap, "background", &stats);
            })?;
        Ok(Checkpointer {
            mailbox,
            thread: Some(thread),
        })
    }

    /// Hands a snapshot to the background thread, replacing any queued one
    /// (never blocks on I/O; backlog is at most one snapshot).
    pub(crate) fn request(&self, snap: Arc<Snapshot>) {
        self.mailbox.lock().next = Some(snap);
        self.mailbox.cv.notify_one();
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.mailbox.lock().shutdown = true;
        self.mailbox.cv.notify_one();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logdir::LogDir;
    use crate::wal::Durability;
    use rxview_core::XmlViewSystem;
    use rxview_workload::{synthetic_atg, synthetic_database, SyntheticConfig};
    use std::path::PathBuf;

    /// A durable log anchored at epoch 0 in a fresh directory, and its
    /// system and stats.
    fn anchored(tag: &str) -> (PathBuf, Arc<Log>, XmlViewSystem, Arc<EngineStats>) {
        let dir =
            std::env::temp_dir().join(format!("rxview-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = synthetic_database(&SyntheticConfig::with_size(60));
        let sys =
            XmlViewSystem::new(synthetic_atg(&db).expect("valid ATG"), db).expect("publishes");
        let log = LogDir::create(&dir)
            .unwrap()
            .anchor(0, &sys, Durability::PerRound)
            .unwrap();
        let plans = Arc::clone(sys.view().plan_cache());
        let stats = EngineStats::new(crate::stats::flight_recorder(), plans);
        (dir, Arc::new(log), sys, Arc::new(stats))
    }

    /// The epochs of the checkpoints in `dir`, and how many segments it holds.
    fn files(dir: &std::path::Path) -> (Vec<u64>, usize) {
        let listing = LogDir::new(dir).list().unwrap();
        let epochs = listing.checkpoints.iter().map(|c| c.0).collect();
        (epochs, listing.segments.len())
    }

    /// A log whose lock a panic poisoned makes the background checkpoint
    /// fail after its write, and the thread does not panic: the checkpoint
    /// is written, compaction and pruning are skipped, and the failure is a
    /// `checkpoint.failed` flight event.
    #[test]
    fn a_poisoned_log_skips_compaction() {
        let (dir, log, sys, stats) = anchored("poisoned");
        let held = Arc::clone(&log);
        let panicked = std::thread::spawn(move || {
            let _held = held.wal.lock();
            panic!("a panic mid-append");
        })
        .join();
        assert!(panicked.is_err());
        let mut ckpt = Checkpointer::spawn(log, Arc::clone(&stats)).unwrap();
        ckpt.request(Arc::new(Snapshot::new(sys, 4)));
        {
            let mut st = ckpt.mailbox.slot.lock().unwrap();
            st.shutdown = true;
            ckpt.mailbox.cv.notify_one();
        }
        let thread = ckpt.thread.take().unwrap();
        assert!(thread.join().is_ok(), "the checkpointer did not panic");
        assert_eq!(files(&dir), (vec![0, 4], 1), "written, and nothing rotated");
        let recording = stats.recorder().dump_jsonl();
        assert!(recording.contains("\"event\": \"checkpoint.failed\", \"epoch\": 4"));
        assert!(recording
            .contains("\"trigger\": \"background\", \"error\": \"replay log lock poisoned"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A mailbox whose lock a panic poisoned still hands a snapshot over, and
    /// dropping the handle still shuts the thread down and joins it: the
    /// checkpoint is written, and nothing panics (a panic inside `drop`
    /// while another panic unwinds would abort the process).
    #[test]
    fn a_poisoned_mailbox_still_checkpoints_and_shuts_down() {
        let (dir, log, sys, stats) = anchored("poisoned-mailbox");
        let ckpt = Checkpointer::spawn(log, stats).unwrap();
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
        assert_eq!(files(&dir), (vec![0, 5], 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
