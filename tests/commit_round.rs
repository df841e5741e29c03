//! The commit path under tier-1: one deterministic mixed stream, committed
//! through the engine's round pipeline in narrow and in wide rounds, must
//! end where one-at-a-time `XmlViewSystem::apply` ends — same accept/reject
//! vector, same view edges, same base rows — with the republication oracle
//! green; and `EngineConfig::n_shards` changes no round and no logged byte.
//!
//! The stream covers what the pipeline branches on: anchored and
//! `//`-headed paths, insertions and deletions, `Abort` and `Proceed`,
//! updates that must be rejected (replayed deletions, a top-level node with
//! no safe source), one unfilterable wildcard root (evaluated over all of
//! `L`), and a commit in which *every* update is rejected — which must
//! publish no epoch. A commit of `n` updates runs `⌈n / max_batch⌉` rounds,
//! and every applied update is folded on its own.

use rxview::prelude::*;
use rxview::workload::{
    assert_observationally_equal, mixed_updates, synthetic_atg, synthetic_database, SyntheticConfig,
};

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

    // Rounds of up to four updates, and rounds as wide as a commit. (The
    // test's name is older than the round pipeline's single executor.)
    for max_batch in [4, 256] {
        let at = format!("max_batch {max_batch}");
        let engine = Engine::with_config(
            sys.clone(),
            EngineConfig {
                max_batch,
                ..EngineConfig::default()
            },
        );
        for (c, (commit, expected)) in commits.iter().zip(&expected).enumerate() {
            let epoch = engine.snapshot().epoch();
            let tickets: Vec<_> = commit
                .iter()
                .map(|(u, p)| engine.submit(u.clone(), *p).expect("queue has room"))
                .collect();
            let summary = engine.commit_pending();
            let outcomes: Vec<bool> = tickets.into_iter().map(|t| t.wait().is_ok()).collect();
            assert_eq!(&outcomes, expected, "{at}: commit {c}");
            assert_eq!(summary.accepted, expected.iter().filter(|ok| **ok).count());
            assert_eq!(
                engine.snapshot().epoch() > epoch,
                expected.contains(&true),
                "{at}: commit {c} publishes iff something applied"
            );
        }
        // Checks both sides against republication too.
        assert_observationally_equal(engine.snapshot().system(), &oracle, &at);
        let report = engine.stats().report();
        let rounds: usize = commits.iter().map(|c| c.len().div_ceil(max_batch)).sum();
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

/// The configuration surface is six fields (who sets each: ARCHITECTURE.md,
/// "Configuration"), one of them inert: `n_shards` selects nothing and
/// sizes nothing (`n_shards_changes_no_round_and_no_log_byte`), and stays
/// only while `rxbench` sets it. A seventh must name, here, the two callers
/// existing outside tests and examples that need different values of it —
/// a value only one caller sets is a constant, and a switch that turns a
/// shipped path off is a second path to test, benchmark and keep working.
#[test]
fn engine_config_has_six_fields() {
    let EngineConfig {
        max_batch: _,
        n_shards: _,
        durability: _,
        checkpoint_rounds: _,
        metrics_path: _,
        stage_hooks: _,
    } = EngineConfig::default();
}

/// `n_shards` has no effect: with `max_batch: 4`, a durable engine
/// configured with four shards and one configured with one commit the same
/// stream to the same acks, the same epoch after every commit — more epochs
/// than commits, so the rounds are `max_batch` wide — and the same bytes in
/// their log directories.
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
            max_batch: 4,
            n_shards,
            durability: Durability::PerRound,
            checkpoint_rounds: 0,
            ..EngineConfig::default()
        };
        let engine = Engine::with_durability(sys.clone(), config, &dir).expect("durable engine");
        let (mut acks, mut epochs) = (Vec::new(), Vec::new());
        for commit in &commits {
            let tickets: Vec<_> = commit
                .iter()
                .map(|(u, p)| engine.submit(u.clone(), *p).expect("queue has room"))
                .collect();
            engine.commit_pending();
            acks.extend(tickets.into_iter().map(|t| t.wait().is_ok()));
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
