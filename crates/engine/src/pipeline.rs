//! Deterministic interleaving hooks for the round pipeline.
//!
//! A commit runs on whichever thread calls `commit_pending`, while readers
//! and submitters run on others, so "round 1's ticket resolved before
//! round 2 published" or "nothing was planned while round 1 was
//! unpublished" is a statement about a schedule the OS picks. [`StageHooks`]
//! makes the schedule *controllable*: the coordinator calls the
//! crate-internal `StageHooks::reached` at fixed points of each round
//! ([`Stage`]), and a test that holds a stage gate blocks the coordinator
//! right there, then inspects tickets, snapshots and arrival counts, and
//! releases the gate. The round-lifecycle tests in
//! `crates/engine/tests/pipeline.rs` are built on these gates.
//!
//! Production engines leave [`crate::EngineConfig::stage_hooks`] at `None`;
//! the commit path then pays one `Option` check per stage and nothing else.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a blocked coordinator (or a waiting test) tolerates a gate
/// before panicking — a missed `release` should fail the test, not hang CI.
const GATE_TIMEOUT: Duration = Duration::from_secs(60);

/// Fixed instrumentation points of the round pipeline, in the order one
/// round passes through them. A round that applied
/// nothing publishes nothing, so it announces `Plan` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// A round was formed from the queue's next prefix, after its
    /// predecessor published (before its first update is evaluated).
    Plan,
    /// A round's snapshot was published (the epoch advanced); its tickets
    /// have not resolved yet.
    Publish,
}

#[derive(Default)]
struct HookState {
    /// Stages whose gate is currently held: `reached` blocks on them.
    held: HashSet<Stage>,
    /// How many times the coordinator has arrived at each stage.
    arrivals: HashMap<Stage, u64>,
}

/// A shared set of stage gates (cheaply cloneable; clones share state).
/// See the module docs for the protocol: the test side [`StageHooks::hold`]s
/// and [`StageHooks::release`]s gates and observes
/// [`StageHooks::arrivals`], the engine side calls `StageHooks::reached`.
#[derive(Clone, Default)]
pub struct StageHooks {
    inner: Arc<(Mutex<HookState>, Condvar)>,
}

impl fmt::Debug for StageHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.inner.0.lock().expect("stage hooks poisoned");
        f.debug_struct("StageHooks")
            .field("held", &state.held)
            .field("arrivals", &state.arrivals)
            .finish()
    }
}

impl StageHooks {
    /// A fresh set of hooks with no gates held.
    pub fn new() -> Self {
        StageHooks::default()
    }

    /// Engine side: record an arrival at `stage`, then block while the
    /// stage's gate is held. Panics (failing the test, not hanging it) if
    /// the gate stays held past the timeout.
    pub(crate) fn reached(&self, stage: Stage) {
        let (lock, cv) = &*self.inner;
        let mut state = lock.lock().expect("stage hooks poisoned");
        *state.arrivals.entry(stage).or_insert(0) += 1;
        cv.notify_all();
        let t0 = Instant::now();
        while state.held.contains(&stage) {
            assert!(
                t0.elapsed() < GATE_TIMEOUT,
                "stage gate {stage:?} held past {GATE_TIMEOUT:?} — missing release?"
            );
            let (guard, _) = cv
                .wait_timeout(state, Duration::from_millis(50))
                .expect("stage hooks poisoned");
            state = guard;
        }
    }

    /// Test side: hold `stage`'s gate — the next coordinator arrival there
    /// blocks until [`StageHooks::release`].
    pub fn hold(&self, stage: Stage) {
        let (lock, cv) = &*self.inner;
        lock.lock()
            .expect("stage hooks poisoned")
            .held
            .insert(stage);
        cv.notify_all();
    }

    /// Test side: release `stage`'s gate, unblocking a coordinator waiting
    /// there (idempotent).
    pub fn release(&self, stage: Stage) {
        let (lock, cv) = &*self.inner;
        lock.lock()
            .expect("stage hooks poisoned")
            .held
            .remove(&stage);
        cv.notify_all();
    }

    /// How many times the coordinator has arrived at `stage` (arrivals are
    /// counted before any blocking, so a coordinator parked on a held gate
    /// has already been counted).
    pub fn arrivals(&self, stage: Stage) -> u64 {
        let (lock, _) = &*self.inner;
        *self
            .inner
            .0
            .lock()
            .expect("stage hooks poisoned")
            .arrivals
            .get(&stage)
            .unwrap_or(&{
                let _ = lock;
                0
            })
    }

    /// Test side: block until `stage` has been arrived at `count` times in
    /// total. Panics after the gate timeout — a schedule that never gets
    /// there is a failed test, not a hung one.
    pub fn wait_arrivals(&self, stage: Stage, count: u64) {
        let (lock, cv) = &*self.inner;
        let mut state = lock.lock().expect("stage hooks poisoned");
        let t0 = Instant::now();
        while state.arrivals.get(&stage).copied().unwrap_or(0) < count {
            assert!(
                t0.elapsed() < GATE_TIMEOUT,
                "stage {stage:?} never reached {count} arrivals ({} so far)",
                state.arrivals.get(&stage).copied().unwrap_or(0)
            );
            let (guard, _) = cv
                .wait_timeout(state, Duration::from_millis(50))
                .expect("stage hooks poisoned");
            state = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_count_without_any_gate() {
        let hooks = StageHooks::new();
        hooks.reached(Stage::Plan);
        hooks.reached(Stage::Plan);
        assert_eq!(hooks.arrivals(Stage::Plan), 2);
        assert_eq!(hooks.arrivals(Stage::Publish), 0);
    }

    #[test]
    fn held_gate_blocks_until_release() {
        let hooks = StageHooks::new();
        hooks.hold(Stage::Plan);
        let worker = {
            let hooks = hooks.clone();
            std::thread::spawn(move || {
                hooks.reached(Stage::Plan); // blocks here
                Instant::now()
            })
        };
        hooks.wait_arrivals(Stage::Plan, 1);
        // The worker has arrived but must still be parked on the gate.
        std::thread::sleep(Duration::from_millis(30));
        let released_at = Instant::now();
        hooks.release(Stage::Plan);
        let resumed_at = worker.join().expect("worker exits");
        assert!(
            resumed_at >= released_at,
            "the gate must hold the worker until release"
        );
    }

    #[test]
    fn release_is_idempotent_and_unheld_gates_pass() {
        let hooks = StageHooks::new();
        hooks.release(Stage::Publish); // never held: fine
        hooks.hold(Stage::Publish);
        hooks.release(Stage::Publish);
        hooks.release(Stage::Publish);
        hooks.reached(Stage::Publish); // must not block
        assert_eq!(hooks.arrivals(Stage::Publish), 1);
    }
}
