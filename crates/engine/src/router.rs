//! The round pipeline's *planning* half: forms one conflict-free commit
//! round at a time, as the list of jobs the publisher applies.
//!
//! A round admits up to `max_batch` pending updates whose [`Analysis`]
//! footprints (anchor cones + typed relational read/write keys) are
//! pairwise disjoint, as one job list in submission order. Updates that
//! conflict with an admitted or already-deferred update wait for a later
//! round — an update deferred by a conflict also blocks its own later
//! conflicters, so submission order is preserved between conflicting
//! updates.
//!
//! The analysis is a footprint-only *dry run* of the translation against the
//! round's snapshot: it evaluates the path (scoped to the anchor cone) and
//! derives the candidate write keys without applying or interning anything.
//! Each admitted update ships that evaluation with its job: the publisher
//! translates against the very state the analysis ran on.
//!
//! Updates whose paths cannot be bounded — unfilterable wildcards, bare
//! `//`, candidate sets past [`MAX_CONE_ANCHORS`] — have a *global* (⊤)
//! footprint and conflict with everything: once at the front of the queue
//! they form a one-update round. Typed leading-`//` and wildcard-rooted
//! paths resolve to bounded multi-anchor cones instead (see
//! [`crate::analyze`]) and are routed like any other update.
//!
//! The publisher plans a round only after its predecessor has published
//! (ARCHITECTURE.md §3), so a plan's snapshot holds every earlier round's
//! writes and the only blockers are the updates the scan itself defers.
//!
//! Deferred **deletions** keep their analysis (and dry-run evaluation)
//! across rounds: a cached analysis stays valid while its cone and keys are
//! disjoint from everything later rounds committed, which the publisher
//! revalidates against each round's union footprint. Insertions re-analyze
//! every round — their footprint includes splice links discovered through
//! the ATG rules, which committed rounds can invalidate without touching
//! the cached cone.

use crate::analyze::{Analysis, BatchFootprint, Verdict};
use crate::engine::Pending;
use crate::stats::EngineStats;
use rxview_core::{Evaluated, SideEffectPolicy, XmlUpdate, XmlViewSystem, MAX_CONE_ANCHORS};

/// A pending update inside one commit, keyed by its submission index. The
/// round that applies it builds its replay-log record from it.
pub(crate) struct PendingUpdate {
    pub(crate) idx: usize,
    pub(crate) update: XmlUpdate,
    pub(crate) policy: SideEffectPolicy,
    pub(crate) cached: Option<CachedAnalysis>,
}

impl PendingUpdate {
    pub(crate) fn new(
        idx: usize,
        p: Pending,
    ) -> (Self, std::sync::mpsc::Sender<rxview_core::UpdateOutcome>) {
        (
            PendingUpdate {
                idx,
                update: p.update,
                policy: p.policy,
                cached: None,
            },
            p.tx,
        )
    }
}

/// One admitted update of a planned round, with the router's dry-run
/// evaluation against the round snapshot: the publisher translates against
/// that very state, so re-evaluating would repeat the work (`None`: a ⊤
/// update has no dry run and evaluates in the publisher).
pub(crate) struct RoundJob {
    pub(crate) pending: PendingUpdate,
    pub(crate) eval: Option<Evaluated>,
}

/// A deferred deletion's conflict analysis and dry-run evaluation, kept
/// across rounds until invalidated by a committed footprint.
pub(crate) struct CachedAnalysis {
    pub(crate) analysis: Analysis,
    pub(crate) eval: Option<Evaluated>,
    /// What every node of the evaluation named when it was analysed. Ids
    /// are recycled; an id the translation will use still means its node
    /// because collecting a matched node conflicts with the footprint that
    /// read it ([`Self::survives`]) — which debug builds check on reuse.
    /// (The cone may go on naming a node a fission peer collected: cone
    /// members only ever answer conflict checks, where a recycled id can
    /// over-block and nothing else.)
    #[cfg(debug_assertions)]
    named: Vec<(
        rxview_atg::NodeId,
        rxview_xmlkit::TypeId,
        rxview_relstore::Tuple,
    )>,
}

impl CachedAnalysis {
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn new(sys: &XmlViewSystem, analysis: Analysis, eval: Option<Evaluated>) -> Self {
        CachedAnalysis {
            #[cfg(debug_assertions)]
            named: {
                let genid = sys.view().dag().genid();
                let matched = eval.iter().flat_map(|e| e.eval.matched_nodes.iter());
                let named = |&v| (v, genid.type_of(v), genid.attr_of(v).clone());
                matched.map(named).collect()
            },
            analysis,
            eval,
        }
    }

    /// Whether the cache stays valid after committing a round with
    /// footprint `committed`: everything the cached analysis depends on —
    /// cone contents, anchor reads, candidate write keys — is untouched iff
    /// the footprints are disjoint.
    pub(crate) fn survives(&self, committed: &BatchFootprint) -> bool {
        !committed.conflicts(&self.analysis)
    }

    /// Whether every id of the evaluation still carries, in `sys`, the
    /// pair it was analysed with.
    #[cfg(debug_assertions)]
    fn names_what_it_named(&self, sys: &XmlViewSystem) -> bool {
        let genid = sys.view().dag().genid();
        let same = |(v, ty, attr): &(_, _, _)| {
            genid.is_live(*v) && genid.type_of(*v) == *ty && genid.attr_of(*v) == attr
        };
        self.named.iter().all(same)
    }
}

/// A planned round: its jobs, the union footprint of everything admitted,
/// and what the publisher records about it. A round whose footprint
/// [`BatchFootprint::is_global`] is the one-update round of a ⊤ update.
pub(crate) struct RoundPlan {
    /// The admitted updates (analysis caches dropped), in submission order.
    pub(crate) jobs: Vec<RoundJob>,
    /// Revalidates cached analyses of the updates that stayed behind.
    pub(crate) footprint: BatchFootprint,
    /// Admitted updates whose paths resolved through the multi-anchor
    /// (`//`-headed / wildcard-rooted) classifier — the publisher records
    /// rounds carrying such traffic.
    pub(crate) multi_cone_admitted: usize,
    /// Time the planning pass spent in dry-run evaluations (already
    /// recorded as evaluation time; the publisher subtracts it from the
    /// plan phase so the two buckets do not double-count).
    pub(crate) analysis_eval: std::time::Duration,
}

/// Plans the next round against `sys` (the state the round will apply to) —
/// the engine's only planner. Admitted updates are removed from `pending`;
/// everything else stays, in submission order, with deletion analyses
/// cached for reuse. The round holds at most `max_batch` updates and closes
/// early after `max_batch` consecutive conflicts.
///
/// Two rules live here and nowhere else:
///
/// - **Planned write∩write overlap between same-cone peers is tolerated at
///   admission** (`footprint.check(.., true)`): the publisher applies a
///   round's members one after another against the evolving working state,
///   so a later translation sees every earlier realized write
///   (ARCHITECTURE.md §9).
/// - **A non-`Proceed` update keeps the whole-cone conflict unit**: its
///   side-effect set is computed against the round's planning state, and
///   only the coarse unit guarantees no co-admitted peer under a shared
///   cone perturbs it.
pub(crate) fn plan_round(
    sys: &XmlViewSystem,
    pending: &mut Vec<PendingUpdate>,
    max_batch: usize,
    stats: &EngineStats,
) -> RoundPlan {
    debug_assert!(!pending.is_empty());
    // Analysis is per-update work proportional to the cone: bound the scan
    // so routing stays O(round width) rather than O(pending). The round
    // closes when it is full or when it stalls — a long run of consecutive
    // conflicts means the queue head has hit a dependency wall and further
    // scanning mostly re-analyzes updates that cannot be admitted anyway.
    // Everything left defers unanalyzed, which preserves submission order
    // between conflicting updates, so stopping early is always sound.
    let stall_limit = max_batch;
    let mut stalled = 0usize;
    let mut plan = RoundPlan {
        jobs: Vec::new(),
        footprint: BatchFootprint::default(),
        multi_cone_admitted: 0,
        analysis_eval: std::time::Duration::ZERO,
    };
    let mut blocked = BatchFootprint::default();
    let mut any_blocked = false;
    let mut deferred: Vec<PendingUpdate> = Vec::new();

    let mut drain = std::mem::take(pending).into_iter();
    for mut pu in drain.by_ref() {
        if plan.jobs.len() >= max_batch || stalled >= stall_limit {
            // Admitting past a full round could reorder conflicting
            // updates; everything else waits for the next round.
            deferred.push(pu);
            break;
        }
        // Reuse a still-valid cached analysis (deletions only; the
        // publisher invalidates caches against each committed footprint).
        let (mut analysis, eval) = match pu.cached.take() {
            Some(c) => {
                #[cfg(debug_assertions)]
                debug_assert!(
                    c.names_what_it_named(sys),
                    "update {}: a reused analysis names a recycled id",
                    pu.idx
                );
                stats.analyses_reused.incr();
                (c.analysis, c.eval)
            }
            None => {
                let parts = Analysis::parts(sys, &pu.update, MAX_CONE_ANCHORS);
                if let Some(eval) = &parts.eval {
                    // The dry run evaluated the path; the publisher reuses
                    // the result instead of evaluating again. Only the
                    // evaluation itself counts as eval time; cone and
                    // write-key derivation stay plan work.
                    plan.analysis_eval += parts.eval_time;
                    stats.record_eval(eval.scope_nodes, parts.eval_time);
                }
                (parts.analysis, parts.eval)
            }
        };
        if pu.policy != SideEffectPolicy::Proceed {
            analysis.demote_to_cone();
        }

        // Two-level admission: the round and blocker footprints classify
        // the update — plain admit, fission admit (cone shared with
        // eligible peers, sub-footprints disjoint), or a conflict. Fission
        // attempts are counted either way. A ⊤ update conflicts with
        // everything, so these same checks admit it only as the first
        // update of a round nothing blocks; it then closes the round.
        let mut verdict = if plan.jobs.is_empty() {
            Verdict::Admit
        } else {
            plan.footprint.check(&analysis, true)
        };
        if verdict.admits() && any_blocked {
            // Strict: the round must stay disjoint from deferred
            // conflicters (FIFO order).
            let blocked_verdict = blocked.check(&analysis, false);
            if verdict == Verdict::Admit || !blocked_verdict.admits() {
                verdict = blocked_verdict;
            }
        }
        match verdict {
            Verdict::FissionAdmit => stats.fission_admits.incr(),
            Verdict::FissionDeny => stats.fission_denies.incr(),
            _ => {}
        }
        if !verdict.admits() {
            blocked.absorb(&analysis);
            any_blocked = true;
            stalled += 1;
            if !pu.update.is_insert() {
                pu.cached = Some(CachedAnalysis::new(sys, analysis, eval));
            }
            deferred.push(pu);
            continue;
        }
        stalled = 0;
        plan.footprint.absorb(&analysis);
        plan.multi_cone_admitted += usize::from(analysis.is_multi_cone());
        let closes_round = analysis.is_global();
        plan.jobs.push(RoundJob { pending: pu, eval });
        if closes_round {
            break;
        }
    }
    deferred.extend(drain);
    *pending = deferred;
    plan
}
