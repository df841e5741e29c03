//! Shard writer threads: parallel, apply-free translation of conflict-free
//! updates against a shared snapshot.
//!
//! Each worker receives one round's job list together with the `Arc` of the
//! snapshot the round was planned against — the latest published one, which
//! stays the latest until the round publishes, because the publisher
//! dispatches a round and waits for every shard before it plans the next
//! (ARCHITECTURE.md §7) — and runs phases 1–4 per update —
//! schema validation, (scoped) §3.2 evaluation, side-effect detection, and
//! the ∆X→∆V→∆R translation of §3.3/§4 — without touching shared state:
//!
//! - evaluation and deletion translation read the snapshot directly;
//! - insertion translation interns its generated subtree, so the worker
//!   lazily clones the snapshot's [`ViewStore`] (page pointers only — the
//!   replica shares every page it does not write) on the first insertion
//!   of a round; the ids the replica hands out — free ones of the snapshot,
//!   then new ones — mean something on the replica alone, so every
//!   translation carries the `(type, $A)` pairs it interned and the
//!   publisher re-interns them on the round's working state and remaps the
//!   translation (see [`rxview_core::XmlViewSystem::apply_translated`]).
//!
//! Translations are speculative: the publisher merges them in submission
//! order and requeues any that an earlier merge of the same round
//! invalidates. One invalidation the worker detects itself: if a
//! translation references a node interned by an *earlier update of the same
//! round* (possible when two insertions would generate overlapping fresh
//! subtrees — the planned footprints catch pair-for-pair overlap, but a
//! later update may still *link* a node an earlier one freshly interned),
//! the later update's semantics depend on whether the earlier one commits —
//! the worker rolls its interning back and reports [`ShardResult::Requeue`]
//! so the router retries it against the next snapshot, where the answer is
//! known.
//!
//! Each translated update carries its *realized* typed footprint
//! ([`rxview_core::RelFootprint`], computed by the translation layer), so
//! every bundle ships exactly which relational rows its translations write
//! — the publisher checks them against the router's planned footprints in
//! debug builds.
//!
//! Under hot-cone fission (ARCHITECTURE.md §9) a round may carry several
//! updates sharing one anchor cone on *different* shards: the router
//! admitted them because their sub-cone footprints were disjoint, and the
//! planned write∩write overlap on shared candidate rows was optimistic.
//! Workers need no coordination for this — translation is still read-only
//! against the round snapshot — but the publisher re-checks the realized
//! footprints at merge and requeues any update whose realized writes
//! overlap an earlier merge of the same round.

use crate::snapshot::Snapshot;
use crate::stats::EngineStats;
use rxview_atg::NodeId;
use rxview_core::{
    Evaluated, SideEffectPolicy, TranslatedUpdate, UpdateError, ViewStore, XmlUpdate,
};
use std::collections::HashSet;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// One update of a planned round, together with the router's dry-run
/// evaluation against the round snapshot (both executors translate against
/// that very state, so re-evaluating would repeat the work; `None`
/// evaluates in the executor). Shard workers and the publisher's inline
/// executor consume the same job.
pub(crate) struct ShardJob {
    pub(crate) idx: usize,
    pub(crate) update: Arc<XmlUpdate>,
    pub(crate) policy: SideEffectPolicy,
    pub(crate) eval: Option<Evaluated>,
    /// The planned analysis' cone-coalescing key
    /// ([`crate::Analysis::cone_key`]), for the round's fold.
    pub(crate) cone_key: Option<NodeId>,
}

/// Per-update outcome of a shard's translation pass.
pub(crate) enum ShardResult {
    /// Translated successfully; ready for the publisher to merge (boxed:
    /// the translation carries deltas, subtree, and footprint).
    Translated(Box<TranslatedUpdate>),
    /// Coupled to an earlier update of the same round — retry next round.
    Requeue,
    /// Rejected during validation/evaluation/translation.
    Reject(UpdateError),
}

/// Everything a shard produced for one round.
pub(crate) struct ShardBundle {
    pub(crate) shard: usize,
    pub(crate) results: Vec<(usize, ShardResult)>,
    /// When the publisher made this round available to the shard. Idle
    /// (starvation) time is the gap between a shard finishing one round
    /// and the *dispatch* of its next — the slack the publisher's serial
    /// section induces. Scheduling delay between dispatch and pickup is
    /// CPU contention, not publisher-induced idleness, and belongs to
    /// neither bucket.
    pub(crate) dispatched_at: Instant,
    /// When this shard picked the round up / finished translating it
    /// (`Instant` is process-monotonic, so the publisher can compare
    /// timestamps across worker threads). Busy time is the difference.
    pub(crate) started_at: Instant,
    pub(crate) finished_at: Instant,
}

struct RoundMsg {
    snap: Arc<Snapshot>,
    dispatched_at: Instant,
    jobs: Vec<ShardJob>,
    reply: mpsc::Sender<ShardBundle>,
}

/// A pool of shard writer threads, spawned once per engine and fed one
/// round at a time. Dropping the pool closes the channels and joins the
/// workers.
pub(crate) struct ShardPool {
    txs: Vec<mpsc::Sender<RoundMsg>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("n_shards", &self.txs.len())
            .finish()
    }
}

impl ShardPool {
    pub(crate) fn new(n_shards: usize, stats: Arc<EngineStats>) -> Self {
        let mut txs = Vec::with_capacity(n_shards);
        let mut handles = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let (tx, rx) = mpsc::channel::<RoundMsg>();
            let stats = Arc::clone(&stats);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rxview-shard-{shard}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            let bundle =
                                run_round(shard, &msg.snap, msg.dispatched_at, msg.jobs, &stats);
                            // Release the round snapshot before reporting:
                            // once the publisher has every bundle, no
                            // shard still pins the state it planned on.
                            drop(msg.snap);
                            if msg.reply.send(bundle).is_err() {
                                break; // publisher gone
                            }
                        }
                    })
                    .expect("spawn shard worker"),
            );
            txs.push(tx);
        }
        ShardPool {
            txs,
            handles: Mutex::new(handles),
        }
    }

    /// Sends each non-empty job list to its shard, translating against
    /// `snap`, and blocks until every dispatched shard reports. Returns the
    /// bundles sorted by shard id.
    pub(crate) fn dispatch(
        &self,
        snap: &Arc<Snapshot>,
        assignments: Vec<Vec<ShardJob>>,
    ) -> Vec<ShardBundle> {
        let (reply, inbox) = mpsc::channel();
        let dispatched_at = Instant::now();
        let mut expected = 0usize;
        for (shard, jobs) in assignments.into_iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            expected += 1;
            self.txs[shard]
                .send(RoundMsg {
                    snap: Arc::clone(snap),
                    dispatched_at,
                    jobs,
                    reply: reply.clone(),
                })
                .expect("shard worker alive");
        }
        // The workers hold the only senders left: the inbox ends when each
        // has reported (or died).
        drop(reply);
        let mut bundles: Vec<ShardBundle> = inbox.iter().collect();
        assert_eq!(bundles.len(), expected, "all shards must report");
        bundles.sort_by_key(|b| b.shard);
        bundles
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.txs.clear(); // closes the channels; workers exit their loops
        for h in self.handles.lock().expect("no poisoned pool").drain(..) {
            let _ = h.join();
        }
    }
}

/// Translates one round's jobs against the snapshot.
fn run_round(
    shard: usize,
    snap: &Arc<Snapshot>,
    dispatched_at: Instant,
    jobs: Vec<ShardJob>,
    stats: &EngineStats,
) -> ShardBundle {
    let t_round = Instant::now();
    let sys = snap.system();
    // Lazy ViewStore replica: only insertions need to intern nodes.
    let mut vs_work: Option<ViewStore> = None;
    // Nodes interned by earlier updates of this round on this shard (kept
    // translations never release theirs, so the replica does not hand these
    // ids out again) — referencing one couples the updates.
    let mut interned: HashSet<NodeId> = HashSet::new();
    let mut results = Vec::with_capacity(jobs.len());

    for job in jobs {
        if let Err(e) = sys.validate_schema(&job.update) {
            results.push((job.idx, ShardResult::Reject(e)));
            continue;
        }
        let eval = match job.eval {
            // The router's dry run already evaluated against this snapshot.
            Some(eval) => eval,
            None => {
                let t0 = Instant::now();
                let eval = sys.eval(job.update.path());
                stats.record_eval(eval.scope_nodes, t0.elapsed());
                eval
            }
        };

        let t1 = Instant::now();
        let out = sys.translate(&mut vs_work, &job.update, job.policy, eval);
        stats.translate_ns.record_duration(t1.elapsed());

        results.push((
            job.idx,
            match out {
                Ok(t) => {
                    if t.subtree_nodes().any(|n| interned.contains(&n)) {
                        // Coupled to an earlier update of this round: roll
                        // back this translation's interning and retry the
                        // update against the next snapshot.
                        if let (Some(vsw), Some(st)) = (vs_work.as_mut(), t.subtree.as_ref()) {
                            rxview_core::rollback_subtree(vsw, st);
                        }
                        ShardResult::Requeue
                    } else {
                        interned.extend(t.fresh_nodes().iter().copied());
                        ShardResult::Translated(Box::new(t))
                    }
                }
                Err(e) => ShardResult::Reject(e),
            },
        ));
    }

    ShardBundle {
        shard,
        results,
        dispatched_at,
        started_at: t_round,
        finished_at: Instant::now(),
    }
}
