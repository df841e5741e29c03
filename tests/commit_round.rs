//! The commit path under tier-1: one deterministic mixed stream, committed
//! through the engine's round pipeline at a narrow and a wide commit
//! cadence (`k` submissions, then `commit_pending`), must
//! end where one-at-a-time `XmlViewSystem::apply` ends — same accept/reject
//! vector, same view edges, same base rows — with the republication oracle
//! green; and `EngineConfig::n_shards` changes no round and no logged byte.
//!
//! The stream covers what the pipeline branches on: anchored and
//! `//`-headed paths, insertions and deletions, `Abort` and `Proceed`,
//! updates that must be rejected (replayed deletions, a top-level node with
//! no safe source), one unfilterable wildcard root (evaluated over all of
//! `L`), and a commit in which *every* update is rejected — which must
//! publish no epoch. A commit of `n` updates runs `⌈n / MAX_BATCH⌉` rounds,
//! and every applied update is folded on its own; one commit of
//! `MAX_BATCH + 1` updates is the one schedule that splits a drained queue.

use rxview::prelude::*;
use rxview::workload::{
    assert_observationally_equal, mixed_updates, synthetic_atg, synthetic_database, SyntheticConfig,
};

use rxview::engine::MAX_BATCH;

type Commit = Vec<(XmlUpdate, SideEffectPolicy)>;

/// The accepting part of the stream, as commits, plus every deletion in it.
fn accepting_commits(sys: &XmlViewSystem) -> (Vec<Commit>, Vec<XmlUpdate>) {
    // Inserts and deletes cycling through the W1/W2/W3 path classes (W2 and
    // W3 are `//`-headed), policies alternating.
    let flips: Vec<bool> = (0..36).map(|i| i % 3 != 1).collect();
    let policy = |i: usize| match i % 2 {
        0 => SideEffectPolicy::Proceed,
        _ => SideEffectPolicy::Abort,
    };
    let mut stream: Commit = mixed_updates(sys, 17, &flips)
        .into_iter()
        .enumerate()
        .map(|(i, u)| (u, policy(i)))
        .collect();
    let mut deletions: Vec<XmlUpdate> = stream
        .iter()
        .filter(|(u, _)| !u.is_insert())
        .map(|(u, _)| u.clone())
        .collect();
    assert!(deletions.len() >= 8 && stream.len() > deletions.len() + 8);
    // Prescribed rejections inside an otherwise accepting commit: a
    // deletion replayed behind itself, and a top-level node (no safe
    // source to delete from).
    stream.push((deletions[0].clone(), SideEffectPolicy::Proceed));
    let top_level = XmlUpdate::delete("node[id=40]").expect("parses");
    stream.push((top_level.clone(), SideEffectPolicy::Proceed));
    deletions.push(top_level);
    // The ⊤ update: an unfilterable wildcard root nothing bounds.
    let wildcard = XmlUpdate::delete("*/sub/node[payload=13]").expect("parses");
    stream.insert(stream.len() / 2, (wildcard, SideEffectPolicy::Proceed));
    (stream.chunks(14).map(<[_]>::to_vec).collect(), deletions)
}

#[test]
fn every_executor_commits_what_one_at_a_time_apply_commits() {
    let db = synthetic_database(&SyntheticConfig::with_size(400));
    let atg = synthetic_atg(&db).expect("valid ATG");
    let sys = XmlViewSystem::new(atg, db).expect("publishes");
    let (mut commits, deletions) = accepting_commits(&sys);

    let mut oracle = sys.clone();
    let mut expected: Vec<Vec<bool>> = commits
        .iter()
        .map(|c| c.iter().map(|(u, p)| oracle.apply(u, *p).is_ok()).collect())
        .collect();
    assert!(expected.iter().all(|c| c.contains(&true)));
    assert!(expected.iter().flatten().filter(|ok| !**ok).count() >= 2);
    // The all-rejected commit: the stream's deletions whose targets are gone
    // by now (a rejected update leaves no trace, so rejected one by one is
    // rejected in sequence).
    let rejected: Commit = deletions
        .into_iter()
        .filter(|u| oracle.clone().apply(u, SideEffectPolicy::Proceed).is_err())
        .map(|u| (u, SideEffectPolicy::Proceed))
        .collect();
    assert!(rejected.len() >= 4, "enough spent deletions to replay");
    expected.push(vec![false; rejected.len()]);
    commits.push(rejected);

    // Each window committed four updates at a time, and whole. (The test's
    // name is older than the round pipeline's single executor.)
    for cadence in [4, MAX_BATCH] {
        let at = format!("cadence {cadence}");
        let engine = Engine::new(sys.clone());
        for (c, (commit, expected)) in commits.iter().zip(&expected).enumerate() {
            let epoch = engine.snapshot().epoch();
            let (mut outcomes, mut accepted) = (Vec::new(), 0);
            for part in commit.chunks(cadence) {
                let tickets: Vec<_> = part
                    .iter()
                    .map(|(u, p)| engine.submit(u.clone(), *p).expect("queue has room"))
                    .collect();
                accepted += engine.commit_pending().accepted;
                outcomes.extend(tickets.into_iter().map(|t| t.wait().is_ok()));
            }
            assert_eq!(&outcomes, expected, "{at}: window {c}");
            assert_eq!(accepted, expected.iter().filter(|ok| **ok).count());
            assert_eq!(
                engine.snapshot().epoch() > epoch,
                expected.contains(&true),
                "{at}: window {c} publishes iff something applied"
            );
        }
        // Checks both sides against republication too.
        assert_observationally_equal(engine.snapshot().system(), &oracle, &at);
        let report = engine.stats().report();
        let rounds: usize = commits.iter().map(|c| c.len().div_ceil(cadence)).sum();
        assert_eq!(
            report.rounds as usize, rounds,
            "{at}: rounds are queue prefixes"
        );
        assert_eq!(
            report.cone_folds, report.accepted,
            "{at}: a fold per applied update"
        );
        assert_eq!(report.snapshots_published, engine.snapshot().epoch());
    }
}

/// The configuration surface is four fields (who sets each: ARCHITECTURE.md,
/// "Configuration"), one of them inert: `n_shards` selects nothing and
/// sizes nothing (`n_shards_changes_no_round_and_no_log_byte`), and stays
/// only while `rxbench` sets it. A fifth must name, here, the two callers
/// existing outside tests and examples that need different values of it —
/// a value only one caller sets is a constant, and a switch that turns a
/// shipped path off is a second path to test, benchmark and keep working.
#[test]
fn engine_config_has_four_fields() {
    let EngineConfig {
        n_shards: _,
        durability: _,
        checkpoint_rounds: _,
        stage_hooks: _,
    } = EngineConfig::default();
}

/// `n_shards` has no effect: a durable engine configured with four shards
/// and one configured with one commit the same stream, four updates at a
/// time, to the same acks, the same epoch after every window — more epochs
/// than windows, so the rounds are four wide — and the same bytes in their
/// log directories.
#[test]
fn n_shards_changes_no_round_and_no_log_byte() {
    let db = synthetic_database(&SyntheticConfig::with_size(400));
    let atg = synthetic_atg(&db).expect("valid ATG");
    let sys = XmlViewSystem::new(atg, db).expect("publishes");
    let (commits, _) = accepting_commits(&sys);
    let run = |n_shards: usize| {
        let dir = std::env::temp_dir().join(format!(
            "rxview-commit-round-{n_shards}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            n_shards,
            durability: Durability::PerRound,
            checkpoint_rounds: 0,
            ..EngineConfig::default()
        };
        let engine = Engine::with_durability(sys.clone(), config, &dir).expect("durable engine");
        let (mut acks, mut epochs) = (Vec::new(), Vec::new());
        for commit in &commits {
            for part in commit.chunks(4) {
                let tickets: Vec<_> = part
                    .iter()
                    .map(|(u, p)| engine.submit(u.clone(), *p).expect("queue has room"))
                    .collect();
                engine.commit_pending();
                acks.extend(tickets.into_iter().map(|t| t.wait().is_ok()));
            }
            epochs.push(engine.snapshot().epoch());
        }
        drop(engine);
        let mut files: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("log directory")
            .map(|entry| {
                let entry = entry.expect("directory entry");
                let bytes = std::fs::read(entry.path()).expect("readable file");
                (entry.file_name(), bytes)
            })
            .collect();
        files.sort();
        let _ = std::fs::remove_dir_all(&dir);
        (acks, epochs, files)
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(one.0, four.0, "acks");
    assert_eq!(one.1, four.1, "epoch after each commit");
    assert!(
        one.1.last() > Some(&(commits.len() as u64)),
        "rounds of four split the commits: epochs {:?}",
        one.1
    );
    assert!(one
        .2
        .iter()
        .any(|(name, _)| name.to_string_lossy().ends_with(".rxlog")));
    assert!(one.2 == four.2, "the log directories differ");
}

/// One commit of `MAX_BATCH + 1` admitted updates is two rounds, `MAX_BATCH`
/// wide and one wide: each applied update folds once, each round that
/// applied something publishes once, and the engine ends at one-at-a-time
/// `apply`'s Exact digest. Deletions that select nothing (`EmptyTarget`)
/// fill the first round. In the first commit both rounds apply an
/// insertion; in the second only the first round does, and the second
/// publishes nothing.
#[test]
fn a_commit_past_max_batch_splits_into_two_rounds() {
    let db = synthetic_database(&SyntheticConfig::with_size(200));
    let atg = synthetic_atg(&db).expect("valid ATG");
    let sys = XmlViewSystem::new(atg, db).expect("publishes");
    let inserts = mixed_updates(&sys, 5, &[true; 4]);
    let empty = XmlUpdate::delete("node[id=999999999]/sub/node").expect("parses");
    let fill = |n: usize| vec![empty.clone(); n];
    let mut first = vec![inserts[0].clone()];
    first.extend(fill(MAX_BATCH - 2));
    first.extend([inserts[1].clone(), inserts[2].clone()]);
    let mut second = vec![inserts[3].clone()];
    second.extend(fill(MAX_BATCH));
    let commits = [first, second];

    let mut oracle = sys.clone();
    let engine = Engine::new(sys);
    for (c, commit) in commits.iter().enumerate() {
        assert_eq!(commit.len(), MAX_BATCH + 1);
        let expected: Vec<bool> = commit
            .iter()
            .map(|u| oracle.apply(u, SideEffectPolicy::Proceed).is_ok())
            .collect();
        let applied = expected.iter().filter(|ok| **ok).count();
        assert_eq!(applied, [3, 1][c], "commit {c}: the insertions apply");
        let before = engine.stats().report();
        let tickets: Vec<_> = commit
            .iter()
            .map(|u| engine.submit(u.clone(), SideEffectPolicy::Proceed))
            .collect();
        let summary = engine.commit_pending();
        let outcomes: Vec<bool> = tickets
            .into_iter()
            .map(|t| t.expect("queue has room").wait().is_ok())
            .collect();
        assert_eq!(outcomes, expected, "commit {c}");
        let report = engine.stats().report();
        assert_eq!(
            (summary.updates, summary.batches, report.max_batch),
            (MAX_BATCH + 1, 2, MAX_BATCH as u64),
            "commit {c}: rounds {MAX_BATCH} and 1 wide"
        );
        assert_eq!(
            report.cone_folds - before.cone_folds,
            applied as u64,
            "commit {c}: a fold per applied update"
        );
        assert_eq!(
            report.snapshots_published - before.snapshots_published,
            [2, 1][c],
            "commit {c}: a publication per round that applied something"
        );
        assert_eq!(
            engine.snapshot().system().exact_digest(),
            oracle.exact_digest(),
            "commit {c}"
        );
    }
}

/// The admission queue holds `MAX_QUEUE` un-committed updates and no more:
/// the next `submit` is refused with `Saturated`, nothing is lost, and a
/// commit makes room again.
#[test]
fn a_full_admission_queue_refuses_until_a_commit_drains_it() {
    use rxview::engine::{EngineError, MAX_QUEUE};
    let db = rxview::workload::registrar_database();
    let atg = rxview::workload::registrar_atg(&db).expect("valid ATG");
    let engine = Engine::new(XmlViewSystem::new(atg, db).expect("publishes"));
    // Matches nothing: rejected at commit, so the drain publishes no epoch.
    let nothing = XmlUpdate::delete("course[cno=NONE]/prereq/course[cno=NONE]").expect("parses");
    let submit = || engine.submit(nothing.clone(), SideEffectPolicy::Proceed);
    let tickets: Vec<_> = (0..MAX_QUEUE)
        .map(|i| submit().unwrap_or_else(|e| panic!("update {i} of {MAX_QUEUE}: {e}")))
        .collect();
    assert!(matches!(submit(), Err(EngineError::Saturated)));
    assert_eq!(engine.stats().report().submitted, MAX_QUEUE as u64);
    let summary = engine.commit_pending();
    assert_eq!((summary.updates, summary.rejected), (MAX_QUEUE, MAX_QUEUE));
    assert!(tickets.into_iter().all(|t| t.wait().is_err()));
    submit().expect("a drained queue admits again");
}
