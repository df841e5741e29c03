//! Serial group commit against the paper's one-at-a-time semantics, state
//! for state. A round is the queue's next `max_batch` updates, each
//! evaluated against the state the one before it left, applied and folded
//! on its own, so the engine must reach *exactly* what
//! `rxview_reference::reference_apply` — §3.2 verbatim, then translation,
//! then ∆(M,L) for that one update — reaches: the same accept bitmap and the
//! same `(I, V, M, L)`, down to the checkpoint encoding's bytes (node ids,
//! `L`'s order and `M`'s runs included), after every commit and at every
//! round cap. And a durable engine killed after any record recovers to that
//! same state for the prefix the log holds.
//!
//! The stream is a hot anchor's: every commit inserts fresh nodes under one
//! group head and deletes them again in the same commit — through anchored
//! and `//` paths, under `Abort` and `Proceed` — so most updates read what
//! an earlier update of their round wrote. Each commit also carries
//! prescribed rejections (a deletion replayed behind itself, a top-level
//! node with no safe source), and one carries an unfilterable wildcard
//! that the full §3.2 pass evaluates.

use rxview::core::encode_system;
use rxview::prelude::*;
use rxview::workload::{synthetic_atg, synthetic_database, SyntheticConfig};
use rxview_reference::reference_apply;
use std::path::{Path, PathBuf};

type Commit = Vec<(XmlUpdate, SideEffectPolicy)>;

fn system() -> XmlViewSystem {
    let db = synthetic_database(&SyntheticConfig::with_size(400));
    let atg = synthetic_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

/// The checkpoint encoding of `(I, V, M, L)`.
fn state(sys: &XmlViewSystem) -> Vec<u8> {
    let mut out = Vec::new();
    encode_system(sys, &mut out);
    out
}

/// Six commits of the hot-anchor stream (module docs).
fn commits() -> Vec<Commit> {
    use SideEffectPolicy::{Abort, Proceed};
    let insert = |fresh: i64, slash: &str| {
        let row = rxview::relstore::tuple![fresh, Value::Int(fresh % 7)];
        XmlUpdate::insert("node", row, &format!("{slash}node[id=0]/sub")).expect("parses")
    };
    let delete = |fresh: i64, slash: &str| {
        XmlUpdate::delete(&format!("{slash}node[id=0]/sub/node[id={fresh}]")).expect("parses")
    };
    (0..6i64)
        .map(|k| {
            let (a, b) = (5_000_000 + 2 * k, 5_000_001 + 2 * k);
            let mut commit = vec![
                (insert(a, ""), Proceed),
                (insert(b, "//"), Abort),
                (delete(a, ""), Abort),
                (delete(a, ""), Proceed), // replayed behind itself: rejected
                (XmlUpdate::delete("node[id=40]").expect("parses"), Proceed),
                (delete(b, "//"), Proceed),
                (insert(a, "//"), Proceed),
            ];
            if k == 3 {
                let wildcard = XmlUpdate::delete("*/sub/node[payload=13]").expect("parses");
                commit.insert(2, (wildcard, Proceed));
            }
            commit
        })
        .collect()
}

/// Each commit through the reference, one update at a time: the accept
/// bitmap per commit and the state after it.
fn reference(sys: &XmlViewSystem, commits: &[Commit]) -> (Vec<Vec<bool>>, Vec<Vec<u8>>) {
    let mut oracle = sys.clone();
    commits
        .iter()
        .map(|commit| {
            let accepted = commit
                .iter()
                .map(|(u, p)| reference_apply(&mut oracle, u, *p).is_ok())
                .collect();
            (accepted, state(&oracle))
        })
        .unzip()
}

/// Submits `commit` and commits it; the accept bitmap.
fn commit_all(engine: &Engine, commit: &Commit) -> Vec<bool> {
    let tickets: Vec<_> = commit
        .iter()
        .map(|(u, p)| engine.submit(u.clone(), *p).expect("queue has room"))
        .collect();
    engine.commit_pending();
    tickets.into_iter().map(|t| t.wait().is_ok()).collect()
}

#[test]
fn every_round_cap_reaches_the_reference_state_after_every_commit() {
    let sys = system();
    let commits = commits();
    let (accepted, states) = reference(&sys, &commits);
    let all: Vec<bool> = accepted.iter().flatten().copied().collect();
    assert!(all.iter().filter(|ok| **ok).count() >= 24, "{accepted:?}");
    assert!(all.iter().filter(|ok| !**ok).count() >= 12, "{accepted:?}");
    for max_batch in [1, 4, 256] {
        let config = EngineConfig {
            max_batch,
            ..EngineConfig::default()
        };
        let engine = Engine::with_config(sys.clone(), config);
        for (c, commit) in commits.iter().enumerate() {
            let at = format!("max_batch {max_batch}, commit {c}");
            assert_eq!(commit_all(&engine, commit), accepted[c], "{at}");
            assert!(
                state(engine.snapshot().system()) == states[c],
                "{at}: (I, V, M, L)"
            );
        }
        let report = engine.stats().report();
        let rounds: usize = commits.iter().map(|c| c.len().div_ceil(max_batch)).sum();
        assert_eq!(report.rounds as usize, rounds, "max_batch {max_batch}");
        assert_eq!(report.cone_folds, report.accepted, "one fold per update");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rxview-serial-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A copy of the log directory as it stands: what a crash leaves.
fn crash_copy(dir: &Path, tag: &str) -> PathBuf {
    let copy = temp_dir(tag);
    std::fs::create_dir_all(&copy).expect("copy directory");
    for entry in std::fs::read_dir(dir).expect("log directory") {
        let entry = entry.expect("directory entry");
        std::fs::copy(entry.path(), copy.join(entry.file_name())).expect("copied file");
    }
    copy
}

/// Rounds of four, committed one round at a time, so that every commit
/// that applies anything appends one record: a copy of the directory taken
/// after it is a crash after that record, and recovers to the reference's
/// state for every update through it.
#[test]
fn a_crash_after_any_record_recovers_the_acknowledged_prefix() {
    let sys = system();
    let atg = sys.view().atg().clone();
    let rounds: Vec<Commit> = commits().concat().chunks(4).map(<[_]>::to_vec).collect();
    let (accepted, states) = reference(&sys, &rounds);
    let dir = temp_dir("log");
    let config = EngineConfig {
        max_batch: 4,
        checkpoint_rounds: 0,
        ..EngineConfig::default()
    };
    let engine = Engine::with_durability(sys, config, &dir).expect("durable engine");
    let mut records = 0;
    for (r, round) in rounds.iter().enumerate() {
        assert_eq!(commit_all(&engine, round), accepted[r], "round {r}");
        records += usize::from(accepted[r].contains(&true));
        assert_eq!(engine.snapshot().epoch(), records as u64, "round {r}");
        let copy = crash_copy(&dir, "crash");
        let (recovered, report) =
            Engine::recover(atg.clone(), &copy, EngineConfig::default()).expect("recovers");
        assert_eq!(report.replayed_rounds, records, "round {r}");
        assert_eq!(report.replay_rejected, 0, "round {r}");
        let applied = accepted[..=r].iter().flatten().filter(|ok| **ok).count();
        assert_eq!(report.replay_folds, applied, "round {r}: a fold per update");
        assert!(
            state(recovered.snapshot().system()) == states[r],
            "round {r}"
        );
        drop(recovered);
        std::fs::remove_dir_all(&copy).expect("removed copy");
    }
    drop(engine);
    std::fs::remove_dir_all(&dir).expect("removed log");
}
