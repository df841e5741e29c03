//! The crash-recovery battery for the durability subsystem.
//!
//! The invariant under test, end to end: **a recovered engine is
//! observationally equivalent to a sequential oracle replay of the
//! acknowledged, durable prefix of the update history** — no matter when
//! the crash happened, how wide the committed rounds were, where
//! checkpoints interleaved, or how the log's tail was torn or corrupted. The oracle is `rxview_reference::reference_apply` — §3.2
//! verbatim, one update at a time, one fold each — where replay runs a
//! record as the round it logs: scoped evaluations, one fold per record.
//!
//! "Crash" is simulated by dropping the engine without any graceful
//! shutdown and recovering from its directory; torn-tail tests additionally
//! rewrite the log file byte by byte, the way a real power cut truncates an
//! in-flight append.

use rxview_core::{Observed, SideEffectPolicy, XmlUpdate, XmlViewSystem};
use rxview_engine::{Durability, Engine, EngineConfig, RecoverError};
use rxview_reference::reference_apply;
use rxview_workload::{
    assert_observationally_equal, mixed_updates, synthetic_atg, synthetic_database, SyntheticConfig,
};
use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

fn system(n: usize, seed: u64) -> (XmlViewSystem, rxview_atg::Atg) {
    let mut cfg = SyntheticConfig::with_size(n);
    cfg.seed = seed;
    let db = synthetic_database(&cfg);
    let atg = synthetic_atg(&db).expect("valid ATG");
    let sys = XmlViewSystem::new(atg.clone(), db).expect("publishes");
    (sys, atg)
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("rxview-recovery-{tag}-{}-{n}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn copy_dir(src: &Path, tag: &str) -> PathBuf {
    let dst = temp_dir(tag);
    for entry in fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
    }
    dst
}

/// `crates/engine/tests/fixtures`, from the facade's manifest root (its
/// `tests/recovery.rs` includes this file).
fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/engine/tests/fixtures")
}

fn durable_config(checkpoint_rounds: u64) -> EngineConfig {
    EngineConfig {
        durability: Durability::PerRound,
        checkpoint_rounds,
        ..EngineConfig::default()
    }
}

/// One guaranteed-deletable edge path per group — `node[id=h]/sub/node[id=c]`
/// for the group head's first `H` child whose edge the published view
/// actually contains (the same selection `tests/concurrent.rs` uses).
fn group_edge_deletions(sys: &XmlViewSystem, n: i64) -> Vec<XmlUpdate> {
    use rxview_relstore::Value;
    let h = sys.base().table("H").expect("H table");
    (0..n / 40)
        .filter_map(|g| {
            let head = g * 40;
            let h1 = Value::Int(head);
            let row = h.scan_key_range(|row| row[0].cmp(&h1)).next()?;
            let child = row[1].as_int().expect("int h2");
            let u = XmlUpdate::delete(&format!("node[id={head}]/sub/node[id={child}]"))
                .expect("parses");
            (!sys.evaluate(u.path()).is_empty()).then_some(u)
        })
        .collect()
}

/// Read-only recovery (leaves the directory untouched, so one crashed
/// directory can be recovered repeatedly).
fn recover_readonly(atg: &rxview_atg::Atg, dir: &Path) -> (Engine, rxview_engine::RecoveryReport) {
    Engine::recover(
        atg.clone(),
        dir,
        EngineConfig {
            durability: Durability::Off,
            ..EngineConfig::default()
        },
    )
    .expect("recovery succeeds")
}

// ---------------------------------------------------------------------------
// 1. Crash-recovery property: kill after an arbitrary round, recover,
//    compare against the acknowledged-prefix oracle.
// ---------------------------------------------------------------------------

fn check_crash_recovery(
    seed: u64,
    flips: &[bool],
    kill_after_chunks: usize,
    checkpoint_rounds: u64,
) -> Result<(), String> {
    let (sys, atg) = system(220, seed);
    let ops = mixed_updates(&sys, seed ^ 0xD00D, flips);
    if ops.is_empty() {
        return Ok(());
    }
    let dir = temp_dir("prop");

    // The engine under test: durable, killed mid-history.
    let engine = Engine::with_durability(sys.clone(), durable_config(checkpoint_rounds), &dir)
        .map_err(|e| format!("with_durability: {e}"))?;
    let chunks: Vec<&[XmlUpdate]> = ops.chunks(5).collect();
    let committed = chunks.len().min(kill_after_chunks.max(1));
    let mut acknowledged: Vec<(XmlUpdate, bool)> = Vec::new();
    for chunk in &chunks[..committed] {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|u| {
                engine
                    .submit(u.clone(), SideEffectPolicy::Proceed)
                    .expect("queue not full")
            })
            .collect();
        engine.commit_pending();
        for (u, t) in chunk.iter().zip(tickets) {
            acknowledged.push((u.clone(), t.wait().is_ok()));
        }
    }
    let epoch_at_kill = engine.snapshot().epoch();
    drop(engine); // the crash: no sync, no checkpoint, no farewell

    // Oracle: sequential replay of the acknowledged history.
    let mut oracle = sys;
    for (u, accepted) in &acknowledged {
        let outcome = reference_apply(&mut oracle, u, SideEffectPolicy::Proceed);
        if outcome.is_ok() != *accepted {
            return Err(format!(
                "oracle acceptance diverged from engine for `{u}` (engine {accepted})"
            ));
        }
    }

    // Recover and compare.
    let (recovered, report) = Engine::recover(atg.clone(), &dir, durable_config(checkpoint_rounds))
        .map_err(|e| format!("recover: {e}"))?;
    if report.replay_rejected != 0 {
        return Err(format!(
            "{} acknowledged updates were rejected on replay",
            report.replay_rejected
        ));
    }
    if report.resumed_epoch != epoch_at_kill {
        return Err(format!(
            "resumed at epoch {} but the engine died at {epoch_at_kill}",
            report.resumed_epoch
        ));
    }
    let snap = recovered.snapshot();
    if snap.epoch() != epoch_at_kill {
        return Err("recovered snapshot epoch mismatch".into());
    }
    if let Some(section) = observed_difference(snap.system(), &oracle.observed_digest()) {
        return Err(format!("recovered state diverged in `{section}`"));
    }
    snap.system()
        .consistency_check()
        .map_err(|e| format!("recovered state fails republication oracle: {e}"))?;

    // The recovered engine keeps serving correctly: run the uncommitted
    // suffix through it and through the oracle; they must stay equivalent.
    drop(snap);
    let rest: Vec<XmlUpdate> = chunks[committed..]
        .iter()
        .flat_map(|c| c.to_vec())
        .collect();
    if !rest.is_empty() {
        let tickets: Vec<_> = rest
            .iter()
            .map(|u| {
                recovered
                    .submit(u.clone(), SideEffectPolicy::Proceed)
                    .expect("queue not full")
            })
            .collect();
        recovered.commit_pending();
        for (u, t) in rest.iter().zip(tickets) {
            let engine_ok = t.wait().is_ok();
            let oracle_ok = reference_apply(&mut oracle, u, SideEffectPolicy::Proceed).is_ok();
            if engine_ok != oracle_ok {
                return Err(format!("post-recovery acceptance diverged for `{u}`"));
            }
        }
        let snap = recovered.snapshot();
        if let Some(section) = observed_difference(snap.system(), &oracle.observed_digest()) {
            return Err(format!("post-recovery state diverged in `{section}`"));
        }
    }
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random mixed workloads, random kill points: recovery reproduces
    /// exactly the acknowledged prefix.
    #[test]
    fn recovery_equals_acknowledged_prefix_oracle(
        seed in 0u64..500,
        flips in prop::collection::vec(any::<bool>(), 10..22),
        kill_after_chunks in 1usize..6,
        checkpoint_rounds in 0u64..4,
    ) {
        if let Err(e) = check_crash_recovery(seed, &flips, kill_after_chunks, checkpoint_rounds) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// Kill-at-every-round sweep over a deterministic large-ish history
/// (global-lane traffic, background checkpoints every 2 epochs), the crash
/// landing after every chunk of it in turn: the acknowledged-prefix oracle
/// holds at every kill point only if each round's record was appended in
/// epoch order before its snapshot became visible. (The name is older than
/// the round pipeline's single executor.)
#[test]
fn pipelined_sharded_crash_recovery_kill_at_every_round() {
    let flips: Vec<bool> = (0..30).map(|i| i % 3 == 0).collect();
    for kill_after_chunks in 1..=6 {
        check_crash_recovery(42, &flips, kill_after_chunks, 2).unwrap();
    }
}

// ---------------------------------------------------------------------------
// 2. Torn tails: truncate / corrupt the final record at every byte.
// ---------------------------------------------------------------------------

/// Commits `rounds` single-batch rounds on a durable engine — one deletion
/// each, the last two, all of one shape — recording the Observed digest
/// after each epoch. The first record spells its deletion; every
/// later one writes its deletions *shaped*, naming the first record's shape
/// (checked here, head by head), so that a cut or a flip in any of them
/// lands in a record that depends on an earlier one. Returns the directory
/// and the per-epoch digests (index 0 = epoch 0, the initial state);
/// the history logs `rounds + 1` updates.
fn build_logged_history(rounds: usize) -> (PathBuf, rxview_atg::Atg, Vec<Observed>) {
    let (sys, atg) = system(400, 9);
    let deletions = group_edge_deletions(&sys, 400);
    assert!(deletions.len() > rounds, "enough deletable group edges");
    let dir = temp_dir("torn");
    // No automatic checkpoints: the whole history lives in one segment.
    let engine = Engine::with_durability(sys, durable_config(0), &dir).expect("durable engine");
    let mut digests = vec![engine.snapshot().system().observed_digest()];
    // Deletions against distinct group cones: every commit is one round,
    // i.e. exactly one epoch and one log record.
    let mut commits: Vec<&[XmlUpdate]> = deletions[..rounds - 1].chunks(1).collect();
    commits.push(&deletions[rounds - 1..=rounds]);
    for (r, commit) in commits.into_iter().enumerate() {
        let tickets: Vec<_> = commit
            .iter()
            .map(|u| {
                engine
                    .submit(u.clone(), SideEffectPolicy::Proceed)
                    .expect("queue not full")
            })
            .collect();
        engine.commit_pending();
        for t in tickets {
            t.wait().expect("group-edge deletion commits");
        }
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), (r + 1) as u64, "one epoch per round");
        digests.push(snap.system().observed_digest());
    }
    drop(engine);
    // Each record's payload: its epoch and count, then — after the first
    // record's spelled deletion — shaped Proceed deletions naming shape 0,
    // each with its two literals.
    let segment = fs::read(the_only_segment(&dir)).expect("read segment");
    let mut pos = 8;
    for r in 1..=rounds {
        let len = u32::from_le_bytes(segment[pos..pos + 4].try_into().unwrap()) as usize;
        let mut payload = rxview_relstore::codec::Reader::new(&segment[pos + 8..pos + 8 + len]);
        let varint = |p: &mut rxview_relstore::codec::Reader<'_>| p.read_varint().unwrap();
        assert_eq!(varint(&mut payload), r as u64, "epoch");
        let n = varint(&mut payload);
        assert_eq!(n, if r == rounds { 2 } else { 1 });
        if r > 1 {
            for _ in 0..n {
                assert_eq!(payload.read_u8().unwrap(), 0b111, "record {r}: shaped");
                assert_eq!(
                    varint(&mut payload),
                    0,
                    "record {r}: the first record's shape"
                );
                assert_eq!(varint(&mut payload) & 1, 0, "a numeric literal");
                assert_eq!(varint(&mut payload) & 1, 0, "a numeric literal");
            }
            assert!(payload.is_empty(), "record {r}: nothing spelled");
        }
        pos += 8 + len;
    }
    assert_eq!(pos, segment.len());
    (dir, atg, digests)
}

fn the_only_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| {
            let p = e.expect("entry").path();
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().ends_with(".rxlog"))
                .then_some(p)
        })
        .collect();
    assert_eq!(segs.len(), 1, "history must live in one segment");
    segs.pop().expect("one segment")
}

/// Where each record of a segment's bytes starts (walking the `[u32 len][u32
/// crc]` frames from the magic), then where the last one ends.
fn record_bounds(segment: &[u8]) -> Vec<usize> {
    let mut bounds = vec![8];
    let mut pos = 8;
    while pos + 8 <= segment.len() {
        pos += 8 + u32::from_le_bytes(segment[pos..pos + 4].try_into().unwrap()) as usize;
        bounds.push(pos);
    }
    bounds
}

#[test]
fn torn_tail_recovers_last_complete_round_at_every_byte_boundary() {
    let rounds = 3;
    let (dir, atg, digests) = build_logged_history(rounds);
    let seg_path = the_only_segment(&dir);
    let full = fs::read(&seg_path).expect("read segment");
    let boundaries = record_bounds(&full);
    assert_eq!(boundaries.len(), rounds + 1, "one record per round");
    assert_eq!(*boundaries.last().unwrap(), full.len());

    // Truncate at EVERY byte of the log and recover each time.
    for cut in 8..=full.len() {
        fs::write(&seg_path, &full[..cut]).expect("truncate");
        let (engine, report) = recover_readonly(&atg, &dir);
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(
            report.resumed_epoch, complete as u64,
            "cut at {cut}: must resume at the last checksummed-complete round"
        );
        assert_eq!(
            report.discarded_bytes,
            (cut - boundaries[complete]) as u64,
            "cut at {cut}: discarded suffix reported"
        );
        assert_eq!(
            report.torn_segments,
            usize::from(cut != boundaries[complete])
        );
        assert_eq!(report.replay_rejected, 0);
        assert_eq!(
            report.replayed_updates,
            complete + usize::from(complete == rounds),
            "cut at {cut}: the last record holds two updates"
        );
        assert_eq!(
            report.replay_full_evals, 0,
            "anchored deletions replay through their scopes"
        );
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), complete as u64);
        let want = &digests[complete];
        let differs = observed_difference(snap.system(), want);
        assert_eq!(differs, None, "cut at {cut}");
        snap.system().consistency_check().expect("consistent");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Torn tails of a log of multi-update rounds: six disjoint deletions are
/// committed two at a time, as three two-update rounds. Truncating the log at every byte and recovering proves the WAL
/// append stayed *epoch-strict*: every cut lands on a contiguous
/// submission-order prefix — if round k+1's record could ever beat round
/// k's into the log, some cut would recover a state with a hole in it and
/// diverge from the prefix oracle. (The name is older than the round
/// pipeline's single executor.)
#[test]
fn sharded_torn_tail_recovers_epoch_strict_prefix_at_every_byte() {
    // A commit every two submissions, so six deletions drain as three
    // two-update rounds (epochs).
    let n_updates = 6;
    let per_round = 2;
    let rounds = n_updates / per_round;
    let (sys, atg) = system(400, 9);
    let deletions = group_edge_deletions(&sys, 400);
    assert!(deletions.len() >= n_updates, "enough deletable group edges");
    let deletions: Vec<XmlUpdate> = deletions.into_iter().take(n_updates).collect();

    // Prefix oracle: rounds form in submission order, so the state after
    // epoch k is the sequential application of the first `k * per_round`
    // deletions.
    let mut oracle = sys.clone();
    let mut digests = vec![oracle.observed_digest()];
    for epoch in deletions.chunks(per_round) {
        for u in epoch {
            reference_apply(&mut oracle, u, SideEffectPolicy::Proceed).expect("oracle applies");
        }
        digests.push(oracle.observed_digest());
    }

    let dir = temp_dir("torn-rounds");
    let engine = Engine::with_durability(sys, durable_config(0), &dir).expect("durable engine");
    for round in deletions.chunks(per_round) {
        let tickets: Vec<_> = round
            .iter()
            .map(|u| {
                engine
                    .submit(u.clone(), SideEffectPolicy::Proceed)
                    .expect("queue not full")
            })
            .collect();
        engine.commit_pending();
        for t in tickets {
            t.wait().expect("group-edge deletion commits");
        }
    }
    assert_eq!(engine.snapshot().epoch(), rounds as u64);
    drop(engine);

    let seg_path = the_only_segment(&dir);
    let full = fs::read(&seg_path).expect("read segment");
    let boundaries = record_bounds(&full);
    assert_eq!(boundaries.len(), rounds + 1, "one record per round");
    assert_eq!(*boundaries.last().unwrap(), full.len());

    for cut in 8..=full.len() {
        fs::write(&seg_path, &full[..cut]).expect("truncate");
        let (engine, report) = recover_readonly(&atg, &dir);
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(
            report.resumed_epoch, complete as u64,
            "cut at {cut}: resume at the last complete round"
        );
        assert_eq!(report.replay_rejected, 0, "cut at {cut}");
        let snap = engine.snapshot();
        let want = &digests[complete];
        let differs = observed_difference(snap.system(), want);
        assert_eq!(differs, None, "cut at {cut}");
        snap.system().consistency_check().expect("consistent");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_final_record_recovers_prefix_never_panics() {
    let rounds = 3;
    let (dir, atg, digests) = build_logged_history(rounds);
    let seg_path = the_only_segment(&dir);
    let full = fs::read(&seg_path).expect("read segment");
    let last_record_start = record_bounds(&full)[rounds - 1];

    // Flip every byte of the final record, one at a time.
    for i in last_record_start..full.len() {
        let mut bytes = full.clone();
        bytes[i] ^= 0xA5;
        fs::write(&seg_path, &bytes).expect("corrupt");
        let (engine, report) = recover_readonly(&atg, &dir);
        // The CRC (or the frame) rejects the flipped record: recovery lands
        // on the previous round.
        assert_eq!(
            report.resumed_epoch,
            (rounds - 1) as u64,
            "flip at byte {i}"
        );
        assert!(report.discarded_bytes > 0, "flip at byte {i}");
        let snap = engine.snapshot();
        let want = &digests[rounds - 1];
        let differs = observed_difference(snap.system(), want);
        assert_eq!(differs, None, "flip at byte {i}");
    }
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 3. Checkpoint / replay interleaving.
// ---------------------------------------------------------------------------

/// Checkpoints taken at several epochs mid-workload: recovery from a copy
/// of the directory at each stage must land on exactly that stage's state
/// (prefix-complete, epoch-monotonic), anchoring on the newest checkpoint
/// at or below the stage's epoch and replaying only the suffix.
#[test]
fn checkpoint_interleaving_recovers_every_stage() {
    let (sys, atg) = system(400, 23);
    let deletions = group_edge_deletions(&sys, 400);
    assert!(deletions.len() >= 5, "enough deletable group edges");
    let dir = temp_dir("interleave");
    let engine = Engine::with_durability(sys, durable_config(0), &dir).expect("durable engine");

    type Stage = (PathBuf, u64, Observed);
    let mut stages: Vec<Stage> = Vec::new();
    let mut checkpointed_at: Vec<u64> = vec![0];
    for (r, u) in deletions.into_iter().take(5).enumerate() {
        let t = engine
            .submit(u, SideEffectPolicy::Proceed)
            .expect("queue not full");
        engine.commit_pending();
        t.wait().expect("group deletion commits");
        if r == 1 || r == 3 {
            // Mid-workload fuzzy checkpoints (synchronous here so the copy
            // below deterministically contains them).
            let at = engine.checkpoint_now().expect("checkpoint");
            assert_eq!(at, engine.snapshot().epoch());
            checkpointed_at.push(at);
        }
        let snap = engine.snapshot();
        stages.push((
            copy_dir(&dir, "stage"),
            snap.epoch(),
            snap.system().observed_digest(),
        ));
    }
    drop(engine);

    let mut last_epoch = 0;
    for (stage_dir, epoch, want) in &stages {
        let (engine, report) = recover_readonly(&atg, stage_dir);
        // Epoch monotonicity across the stage sequence.
        assert!(*epoch >= last_epoch);
        last_epoch = *epoch;
        assert_eq!(report.resumed_epoch, *epoch, "stage at epoch {epoch}");
        // The anchor is the newest checkpoint at or below this stage.
        let expect_anchor = checkpointed_at
            .iter()
            .copied()
            .filter(|&c| c <= *epoch)
            .max()
            .expect("initial checkpoint");
        assert_eq!(report.checkpoint_epoch, expect_anchor);
        // Only the suffix past the anchor replays.
        assert_eq!(
            report.replayed_rounds,
            (*epoch - expect_anchor) as usize,
            "stage at epoch {epoch}"
        );
        // Prefix-complete: the recovered view is exactly the stage's.
        let snap = engine.snapshot();
        assert_eq!(observed_difference(snap.system(), want), None);
        snap.system().consistency_check().expect("consistent");
        drop(snap);
        drop(engine);
        let _ = fs::remove_dir_all(stage_dir);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Checkpoint compaction truncates covered segments, and recovery after
/// compaction still reproduces the full history (checkpoint + short
/// suffix, not the deleted prefix).
#[test]
fn compaction_after_checkpoint_preserves_recoverability() {
    let (sys, atg) = system(400, 31);
    let dir = temp_dir("compact");
    let engine =
        Engine::with_durability(sys.clone(), durable_config(0), &dir).expect("durable engine");
    let deletions = group_edge_deletions(&sys, 400);
    assert!(deletions.len() >= 4, "enough deletable group edges");
    let mut oracle = sys;
    for (r, u) in deletions.into_iter().take(4).enumerate() {
        let t = engine
            .submit(u.clone(), SideEffectPolicy::Proceed)
            .expect("queue not full");
        engine.commit_pending();
        t.wait().expect("commits");
        reference_apply(&mut oracle, &u, SideEffectPolicy::Proceed).expect("oracle agrees");
        if r == 2 {
            engine.checkpoint_now().expect("checkpoint");
        }
    }
    drop(engine);
    let (recovered, report) = recover_readonly(&atg, &dir);
    assert_eq!(report.checkpoint_epoch, 3);
    assert_eq!(report.replayed_rounds, 1, "only the post-checkpoint suffix");
    assert_eq!(
        report.skipped_rounds, 0,
        "covered records were compacted away"
    );
    assert_eq!(report.resumed_epoch, 4);
    assert_observationally_equal(&oracle, recovered.snapshot().system(), "after compaction");
    let _ = fs::remove_dir_all(&dir);
}

/// A directory squatting on the name of the checkpoint at `epoch`: its
/// rename fails, and so does the checkpoint.
fn squat_checkpoint(dir: &Path, epoch: u64) -> PathBuf {
    let squatter = dir.join(format!("ckpt-{epoch:020}.rxck"));
    fs::create_dir(&squatter).expect("squat");
    squatter
}

/// A checkpoint that fails deletes nothing. With the next checkpoint's name
/// taken, `checkpoint_now` returns the error and records `checkpoint.failed`;
/// every segment and older checkpoint is still there, byte for byte; the
/// engine keeps committing; and recovery, from the older checkpoint and the
/// whole log, equals the acknowledged prefix. Once the fault clears, the
/// next checkpoint succeeds and its prune reaps the failed one's tmp file.
#[test]
fn a_failed_checkpoint_deletes_nothing() {
    use SideEffectPolicy::Proceed;
    let (sys, atg) = system(400, 31);
    let deletions = group_edge_deletions(&sys, 400);
    assert!(deletions.len() >= 4, "enough deletable group edges");
    let dir = temp_dir("failed-ckpt");
    let engine =
        Engine::with_durability(sys.clone(), durable_config(0), &dir).expect("durable engine");
    let mut oracle = sys;
    let mut commit = |u: &XmlUpdate| {
        engine.apply_now(u.clone(), Proceed).expect("commits");
        reference_apply(&mut oracle, u, Proceed).expect("oracle agrees");
    };
    commit(&deletions[0]);
    engine.checkpoint_now().expect("checkpoint at epoch 1");
    commit(&deletions[1]);
    let before = dir_bytes(&dir);
    let squatter = squat_checkpoint(&dir, 2);
    assert!(engine.checkpoint_now().is_err(), "the rename fails");
    let recording = engine.flight_recording();
    assert!(
        recording.contains(r#""event": "checkpoint.failed", "epoch": 2, "trigger": "manual""#),
        "{recording}"
    );
    let mut after = dir_bytes(&dir);
    after.retain(|(name, _)| !name.ends_with(".tmp"));
    assert!(after == before, "a failed checkpoint deletes nothing");
    commit(&deletions[2]);
    commit(&deletions[3]);
    assert_eq!(engine.snapshot().epoch(), 4, "the engine keeps committing");

    fs::remove_dir(&squatter).expect("the fault clears");
    let crashed = copy_dir(&dir, "failed-ckpt-crash");
    assert_eq!(engine.checkpoint_now().expect("checkpoint at epoch 4"), 4);
    assert!(
        dir_bytes(&dir)
            .iter()
            .all(|(name, _)| !name.ends_with(".tmp")),
        "the prune reaped the tmp file"
    );
    drop(engine);
    let (recovered, report) = recover_readonly(&atg, &crashed);
    assert_eq!(
        (report.checkpoint_epoch, report.replayed_rounds),
        (1, 3),
        "the older checkpoint, then every round after it"
    );
    assert_observationally_equal(&oracle, recovered.snapshot().system(), "after the failure");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crashed);
}

/// The same failure on the background path is a `checkpoint.failed` flight
/// event, and deletes nothing either.
#[test]
fn a_failed_background_checkpoint_is_a_flight_event() {
    let (sys, _) = system(200, 31);
    let deletions = group_edge_deletions(&sys, 200);
    let dir = temp_dir("failed-background");
    let engine = Engine::with_durability(sys, durable_config(1), &dir).expect("durable engine");
    let names = |dir: &Path| -> Vec<String> {
        let files = dir_bytes(dir).into_iter().map(|(name, _)| name);
        files.filter(|name| !name.ends_with(".tmp")).collect()
    };
    let initial = names(&dir);
    squat_checkpoint(&dir, 1);
    engine
        .apply_now(deletions[0].clone(), SideEffectPolicy::Proceed)
        .expect("commits");
    // The checkpointer runs on its own thread: wait for its event.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let failed = r#""event": "checkpoint.failed", "epoch": 1, "trigger": "background", "error": "#;
    while !engine.flight_recording().contains(failed) {
        assert!(
            std::time::Instant::now() < deadline,
            "no failure event: {}",
            engine.flight_recording()
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let recording = engine.flight_recording();
    assert!(
        recording.contains(r#""event": "checkpoint.start", "epoch": 1, "trigger": "background""#),
        "{recording}"
    );
    drop(engine);
    assert_eq!(names(&dir), initial, "nothing deleted");
    let _ = fs::remove_dir_all(&dir);
}

/// A manual and a background checkpoint never overlap: `checkpoint_now` runs
/// in a loop while the checkpointer checkpoints every epoch and another
/// thread commits. Every checkpoint left installed loads on its own, to the
/// prefix oracle's state at its epoch; no tmp file is left; and recovery
/// equals the acknowledged prefix.
#[test]
fn manual_and_background_checkpoints_run_one_at_a_time() {
    use SideEffectPolicy::Proceed;
    let (sys, atg) = system(800, 5);
    let deletions = group_edge_deletions(&sys, 800);
    assert!(deletions.len() >= 12, "enough deletable group edges");
    let mut oracle = sys.clone();
    let mut prefix = vec![oracle.observed_digest()];
    for u in &deletions {
        reference_apply(&mut oracle, u, Proceed).expect("oracle applies");
        prefix.push(oracle.observed_digest());
    }
    let dir = temp_dir("ckpt-race");
    let engine = Engine::with_durability(sys, durable_config(1), &dir).expect("durable engine");
    let committed = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for u in &deletions {
                engine.apply_now(u.clone(), Proceed).expect("commits");
            }
            committed.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        while !committed.load(std::sync::atomic::Ordering::SeqCst) {
            engine.checkpoint_now().expect("manual checkpoint");
        }
    });
    drop(engine); // crash; the checkpointer finishes what it started

    let files = dir_bytes(&dir);
    assert!(files.iter().all(|(name, _)| !name.ends_with(".tmp")));
    let checkpoints: Vec<&(String, Vec<u8>)> = files
        .iter()
        .filter(|(name, _)| name.ends_with(".rxck"))
        .collect();
    assert!(!checkpoints.is_empty());
    for (name, bytes) in checkpoints {
        let alone = temp_dir("ckpt-race-alone");
        fs::write(alone.join(name), bytes).expect("copy");
        let (recovered, report) = recover_readonly(&atg, &alone);
        let epoch = report.checkpoint_epoch;
        assert_eq!(
            (report.invalid_checkpoints, report.replayed_rounds),
            (0, 0),
            "{name}"
        );
        assert_eq!(name, &format!("ckpt-{epoch:020}.rxck"));
        let differs = observed_difference(recovered.snapshot().system(), &prefix[epoch as usize]);
        assert_eq!(differs, None, "{name}: the prefix at its epoch");
        let _ = fs::remove_dir_all(&alone);
    }
    let (recovered, report) = recover_readonly(&atg, &dir);
    assert_eq!(report.resumed_epoch, deletions.len() as u64);
    assert_observationally_equal(&oracle, recovered.snapshot().system(), "after the race");
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 4. Directory hygiene.
// ---------------------------------------------------------------------------

#[test]
fn recover_requires_a_checkpoint_and_with_durability_a_fresh_dir() {
    let (sys, atg) = system(120, 3);
    // Empty directory: nothing to anchor on.
    let empty = temp_dir("empty");
    match Engine::recover(atg.clone(), &empty, EngineConfig::default()) {
        Err(RecoverError::NoCheckpoint) => {}
        other => panic!("expected NoCheckpoint, got {other:?}"),
    }
    // A used directory refuses a fresh durable engine.
    let dir = temp_dir("used");
    let engine =
        Engine::with_durability(sys.clone(), durable_config(0), &dir).expect("first engine");
    drop(engine);
    assert!(
        Engine::with_durability(sys, durable_config(0), &dir).is_err(),
        "existing log directory must route through Engine::recover"
    );
    let _ = fs::remove_dir_all(&empty);
    let _ = fs::remove_dir_all(&dir);
}

/// Recovering with durability on re-anchors the directory (fresh checkpoint
/// + empty log) and is idempotent: recover∘recover = recover.
#[test]
fn durable_recovery_is_idempotent() {
    let (sys, atg) = system(400, 5);
    let dir = temp_dir("idem");
    let deletions = group_edge_deletions(&sys, 400);
    assert!(deletions.len() >= 3, "enough deletable group edges");
    let engine = Engine::with_durability(sys, durable_config(0), &dir).expect("engine");
    for u in deletions.into_iter().take(3) {
        let t = engine
            .submit(u, SideEffectPolicy::Proceed)
            .expect("submits");
        engine.commit_pending();
        t.wait().expect("commits");
    }
    drop(engine);

    let (first, r1) = Engine::recover(atg.clone(), &dir, durable_config(0)).expect("recover 1");
    assert_eq!(r1.resumed_epoch, 3);
    let first_state = first.snapshot().system().observed_digest();
    drop(first);

    let (second, r2) = Engine::recover(atg, &dir, durable_config(0)).expect("recover 2");
    assert_eq!(r2.resumed_epoch, 3);
    assert_eq!(
        r2.replayed_rounds, 0,
        "second recovery anchors on the re-checkpointed state"
    );
    let differs = observed_difference(second.snapshot().system(), &first_state);
    assert_eq!(differs, None);
    drop(second);
    let _ = fs::remove_dir_all(&dir);
}

/// The first section in which a state's [`Observed`] digest differs from
/// one taken earlier.
fn observed_difference(sys: &XmlViewSystem, want: &Observed) -> Option<&'static str> {
    sys.observed_digest().first_difference(want)
}

/// Recovers `dir`, which holds acknowledged history no recovery can read in
/// full. A durable recovery errs with a report that stops at `epoch` with
/// `(dropped_rounds, undecodable_records)` = `lost`, and leaves every file
/// byte for byte as it was; a read-only one serves that prefix, `want`.
fn assert_refused_and_left_as_it_is(
    atg: &rxview_atg::Atg,
    dir: &Path,
    epoch: u64,
    lost: (usize, usize),
    want: &Observed,
) {
    let before = dir_bytes(dir);
    match Engine::recover(atg.clone(), dir, durable_config(0)) {
        Err(RecoverError::StopsShort(report)) => {
            assert_eq!(report.resumed_epoch, epoch);
            assert_eq!((report.dropped_rounds, report.undecodable_records), lost);
        }
        other => panic!("expected StopsShort, got {:?}", other.map(|(_, r)| r)),
    }
    assert!(
        dir_bytes(dir) == before,
        "a refused recovery touches no file"
    );
    let (engine, report) = recover_readonly(atg, dir);
    assert!(report.stops_short());
    assert_eq!(report.resumed_epoch, epoch);
    assert_eq!((report.dropped_rounds, report.undecodable_records), lost);
    let snap = engine.snapshot();
    let differs = observed_difference(snap.system(), want);
    assert_eq!(differs, None, "the prefix at {epoch}");
    snap.system().consistency_check().expect("consistent");
}

/// A durable recovery deletes only what it has read. Each of three
/// directories holds `build_logged_history`'s epoch-0 checkpoint and one
/// segment that no recovery reads in full: the segment under a newer
/// binary's magic, `RXWALv9`; with its second record re-checksummed around a
/// head byte no encoder writes; and framed by hand as `RXWALv4`, a format
/// this binary no longer reads. Each is
/// refused and left as it is, and a read-only recovery serves its prefix.
#[test]
fn a_segment_recovery_cannot_read_in_full_is_refused_and_left_as_it_is() {
    use rxview_core::codec::{put_round, RecordTables};
    use rxview_relstore::codec::crc32;
    use SideEffectPolicy::Proceed;
    let (dir, atg, _) = build_logged_history(3);
    let path = the_only_segment(&dir);
    let full = fs::read(&path).expect("read segment");
    let bounds = record_bounds(&full);
    // The history's first two rounds, one deletion each, and the prefix
    // oracle's state before and after the first.
    let (mut oracle, _) = system(400, 9);
    let deletions = group_edge_deletions(&oracle, 400);
    let mut prefix = vec![oracle.observed_digest()];
    reference_apply(&mut oracle, &deletions[0], Proceed).expect("oracle applies");
    prefix.push(oracle.observed_digest());

    fs::write(&path, [b"RXWALv9\n", &full[8..]].concat()).expect("write");
    assert_refused_and_left_as_it_is(&atg, &dir, 0, (0, 1), &prefix[0]);

    let (start, end) = (bounds[1], bounds[2]);
    let mut bytes = full.clone();
    bytes[start + 8 + 2] = 0xFF; // after the one-byte epoch and count
    let crc = crc32(&bytes[start + 8..end]);
    bytes[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    fs::write(&path, &bytes).expect("write");
    assert_refused_and_left_as_it_is(&atg, &dir, 1, (0, 1), &prefix[1]);

    // The first two rounds framed under `RXWALv4`; the first record is
    // this tree's.
    let mut v4 = b"RXWALv4\n".to_vec();
    for (epoch, u) in (1..).zip(&deletions[..2]) {
        let round = [(u.clone(), Proceed)];
        let mut payload = Vec::new();
        put_round(&mut payload, &mut RecordTables::default(), epoch, &round);
        v4.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v4.extend_from_slice(&crc32(&payload).to_le_bytes());
        v4.extend_from_slice(&payload);
    }
    assert!(v4[8..bounds[1]] == full[8..bounds[1]], "the first record");
    fs::write(&path, &v4).expect("write");
    assert_refused_and_left_as_it_is(&atg, &dir, 0, (0, 1), &prefix[0]);
    let _ = fs::remove_dir_all(&dir);
}

/// A log missing a middle segment: four deletions over three segments —
/// rounds 1–2, 3 and 4 — beside the epoch-0 checkpoint, each segment as the
/// engine wrote it, kept before a checkpoint's compaction deleted it. Whole,
/// the directory recovers every round; without the middle segment a durable
/// recovery is refused and leaves it as it is, and a read-only one replays
/// rounds 1–2 and reports round 4 dropped.
#[test]
fn a_log_missing_a_middle_segment_is_refused_and_left_as_it_is() {
    use SideEffectPolicy::Proceed;
    let (sys, atg) = system(400, 9);
    let deletions = group_edge_deletions(&sys, 400);
    let mut oracle = sys.clone();
    let mut digests = vec![oracle.observed_digest()];
    let written = temp_dir("middle-written");
    let engine = Engine::with_durability(sys, durable_config(0), &written).expect("durable");
    let mut kept = dir_bytes(&written);
    kept.retain(|(name, _)| name.ends_with(".rxck"));
    for (r, u) in deletions[..4].iter().enumerate() {
        engine.apply_now(u.clone(), Proceed).expect("commits");
        reference_apply(&mut oracle, u, Proceed).expect("oracle agrees");
        digests.push(oracle.observed_digest());
        if r > 0 {
            let segments = dir_bytes(&written).into_iter();
            kept.extend(segments.filter(|(name, _)| name.ends_with(".rxlog")));
            engine.checkpoint_now().expect("checkpoint");
        }
    }
    drop(engine);
    let dir = temp_dir("middle");
    for (name, bytes) in &kept {
        fs::write(dir.join(name), bytes).expect("write");
    }
    let names: Vec<&str> = kept.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names.len(), 4, "a checkpoint and three segments: {names:?}");
    let (whole, report) = recover_readonly(&atg, &dir);
    assert_eq!((report.replayed_rounds, report.stops_short()), (4, false));
    let differs = observed_difference(whole.snapshot().system(), &digests[4]);
    assert_eq!(differs, None);
    drop(whole);

    fs::remove_file(dir.join(names[2])).expect("the middle segment");
    assert_refused_and_left_as_it_is(&atg, &dir, 2, (1, 0), &digests[2]);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&written);
}

/// Crash recovery on hot cones. A skewed hot-anchor stream makes rounds
/// that apply several updates under one cone, each reading what the one
/// before it wrote — this test asserts rounds that wide committed before
/// the crash — then the engine dies without ceremony, at several kill
/// points. The WAL logs a round's applied updates in submission order, and
/// replay applies them in that order; the recovered state must equal the
/// acknowledged-prefix oracle. (The name is older than serial rounds.)
#[test]
fn crash_recovery_with_fission_on_hot_cones() {
    use rxview_workload::{ShardSkewGen, SkewConfig};
    for kill_after_chunks in 1usize..=3 {
        let (sys, atg) = system(200, 31);
        let mut gen = ShardSkewGen::new(SkewConfig {
            groups: 200 / 40,
            hot_fraction: 0.9,
            hot_groups: 2,
            payload_domain: 8,
            seed: 31,
            ..SkewConfig::default()
        });
        let ops = gen.ops(24);
        let dir = temp_dir("fission");
        let engine =
            Engine::with_durability(sys.clone(), durable_config(0), &dir).expect("durable engine");
        let chunks: Vec<&[XmlUpdate]> = ops.chunks(8).collect();
        let committed = chunks.len().min(kill_after_chunks);
        let mut acknowledged: Vec<(XmlUpdate, bool)> = Vec::new();
        for chunk in &chunks[..committed] {
            let tickets: Vec<_> = chunk
                .iter()
                .map(|u| {
                    engine
                        .submit(u.clone(), SideEffectPolicy::Proceed)
                        .expect("queue not full")
                })
                .collect();
            engine.commit_pending();
            for (u, t) in chunk.iter().zip(tickets) {
                acknowledged.push((u.clone(), t.wait().is_ok()));
            }
        }
        let report = engine.stats().report();
        assert_eq!(
            report.rounds as usize, committed,
            "one round per commit of 8"
        );
        assert!(
            report.realized_width > report.rounds,
            "kill={kill_after_chunks}: some round applied several hot-cone updates"
        );
        let epoch_at_kill = engine.snapshot().epoch();
        drop(engine); // crash

        let mut oracle = sys;
        for (u, accepted) in &acknowledged {
            let ok = reference_apply(&mut oracle, u, SideEffectPolicy::Proceed).is_ok();
            assert_eq!(ok, *accepted, "oracle acceptance diverged for `{u}`");
        }

        let (recovered, rep) =
            Engine::recover(atg, &dir, durable_config(0)).expect("recovery succeeds");
        assert_eq!(rep.replay_rejected, 0);
        assert_eq!(rep.resumed_epoch, epoch_at_kill);
        assert_observationally_equal(
            &oracle,
            recovered.snapshot().system(),
            &format!("kill={kill_after_chunks}"),
        );
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// A round that applied nothing leaves no trace: no epoch, no record, no sync.
// ---------------------------------------------------------------------------

/// Every file of a log directory, by name, with its bytes.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| entry.expect("dir entry"))
        .filter(|entry| entry.path().is_file())
        .map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, fs::read(entry.path()).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn all_rejected_round_publishes_nothing_and_logs_nothing() {
    // A commit per rejected update, and one commit for both.
    for cadence in [1usize, 2] {
        let (sys, atg) = system(200, 31);
        let deletions = group_edge_deletions(&sys, 200);
        assert!(deletions.len() >= 2, "two deletable group edges");
        let dir = temp_dir("allrej");
        // Manual checkpoints only, so the directory changes exactly when a
        // round is logged.
        let engine = Engine::with_durability(sys, durable_config(0), &dir).expect("durable engine");
        for u in &deletions[..2] {
            engine
                .apply_now(u.clone(), SideEffectPolicy::Proceed)
                .expect("first deletion commits");
        }
        let epoch = engine.snapshot().epoch();
        let records = engine.stats().report().wal_records;
        let before = dir_bytes(&dir);

        // The same deletions again: their edges are gone, so every update of
        // the commit is rejected — one round at a time or all together.
        let mut rejected = 0;
        for round in deletions[..2].chunks(cadence) {
            let tickets: Vec<_> = round
                .iter()
                .map(|u| {
                    engine
                        .submit(u.clone(), SideEffectPolicy::Proceed)
                        .expect("queue not full")
                })
                .collect();
            rejected += engine.commit_pending().rejected;
            for t in tickets {
                assert!(t.wait().is_err(), "cadence {cadence}: ticket resolves Err");
            }
        }
        assert_eq!(rejected, 2, "cadence {cadence}");
        assert_eq!(
            engine.snapshot().epoch(),
            epoch,
            "cadence {cadence}: a round that applied nothing publishes no epoch"
        );
        assert_eq!(
            engine.stats().report().wal_records,
            records,
            "cadence {cadence}: and appends no record"
        );
        assert_eq!(
            dir_bytes(&dir),
            before,
            "cadence {cadence}: log directory byte-identical"
        );

        drop(engine); // crash
        let (recovered, report) = recover_readonly(&atg, &dir);
        assert_eq!(report.resumed_epoch, epoch, "cadence {cadence}");
        assert_eq!(recovered.snapshot().epoch(), epoch, "cadence {cadence}");
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// The on-disk format is older than the in-memory one.
// ---------------------------------------------------------------------------

/// The history behind `tests/fixtures/pr{34,45}_log_dir`, committed on a
/// durable engine over `dir`: a deletion, a checkpoint, then a
/// deletion and an insertion left in the log's tail. Returns the ATG and the
/// oracle's final state.
fn fixture_history(dir: &Path) -> (rxview_atg::Atg, XmlViewSystem) {
    let (sys, atg) = system(80, 1);
    let mut ops = group_edge_deletions(&sys, 80);
    assert_eq!(ops.len(), 2, "a deletable edge in either group");
    // Under the first group head that takes children (a head whose C/F
    // join fails is a leaf, and an insertion under it rightly rejected).
    let insert_under = |head: i64| {
        let fresh = rxview_relstore::tuple![900_001i64, 7i64];
        XmlUpdate::insert("node", fresh, &format!("node[id={head}]/sub")).expect("parses")
    };
    let accepts = |u: &XmlUpdate| sys.clone().apply(u, SideEffectPolicy::Proceed).is_ok();
    let head = [0, 40].into_iter().find(|&h| accepts(&insert_under(h)));
    ops.push(insert_under(head.expect("some head is insertable")));
    let engine =
        Engine::with_durability(sys.clone(), durable_config(0), dir).expect("durable engine");
    let mut oracle = sys;
    for (r, u) in ops.into_iter().enumerate() {
        engine
            .apply_now(u.clone(), SideEffectPolicy::Proceed)
            .expect("commits");
        reference_apply(&mut oracle, &u, SideEffectPolicy::Proceed).expect("oracle agrees");
        if r == 0 {
            engine.checkpoint_now().expect("checkpoint");
        }
    }
    (atg, oracle)
}

/// `tests/fixtures/pr45_log_dir` is the directory `fixture_history` leaves
/// behind on this tree: it writes the same bytes for the same history (its
/// segment opens `RXWALv5`, its checkpoints `RXCKPv2`), and recovers them to
/// the oracle's state.
///
/// The directory one format back stays readable: `tests/fixtures/pr34_log_dir`
/// is what `fixture_history` left behind while a checkpoint also held the
/// `gen_A` tables and `M` (`RXCKPv1`). The log's format did not change, so
/// its segment is this tree's byte for byte; its checkpoints are larger, and
/// load to the same state.
#[test]
fn this_tree_and_one_format_back_recover_and_this_tree_rewrites_its_own() {
    let written = temp_dir("rewritten");
    let (atg, oracle) = fixture_history(&written);
    let ours = dir_bytes(&fixtures().join("pr45_log_dir"));
    let names: Vec<&str> = ours.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names.len(),
        3,
        "two checkpoints and a log segment: {names:?}"
    );
    assert!(
        dir_bytes(&written) == ours,
        "this tree writes other bytes than the fixture's {names:?}"
    );
    let files = |fixture: &str, suffix: &str| {
        let mut dir = dir_bytes(&fixtures().join(fixture));
        dir.retain(|(name, _)| name.ends_with(suffix));
        dir
    };
    let (segment, back) = (
        files("pr45_log_dir", ".rxlog"),
        files("pr34_log_dir", ".rxlog"),
    );
    assert_eq!((segment.len(), back.len()), (1, 1), "one segment each");
    assert!(segment == back, "the log format did not change");
    let (checkpoints, back) = (
        files("pr45_log_dir", ".rxck"),
        files("pr34_log_dir", ".rxck"),
    );
    assert_eq!(checkpoints.len(), back.len());
    for ((name, ours), (back_name, theirs)) in checkpoints.iter().zip(&back) {
        assert_eq!(name, back_name);
        assert!(ours.starts_with(b"RXCKPv2\n") && theirs.starts_with(b"RXCKPv1\n"));
        assert!(
            ours.len() < theirs.len(),
            "{name}: {} B against {} B one format back",
            ours.len(),
            theirs.len()
        );
    }

    let free_ids = oracle.view().dag().genid().n_free();
    assert!(free_ids > 0, "the history collects nodes");
    let mut states = Vec::new();
    for fixture in ["pr45_log_dir", "pr34_log_dir"] {
        let dir = copy_dir(&fixtures().join(fixture), fixture);
        let (recovered, report) = recover_readonly(&atg, &dir);
        assert_eq!(
            (report.checkpoint_epoch, report.replayed_rounds),
            (1, 2),
            "{fixture}: the checkpoint, then the tail"
        );
        assert_eq!(
            (report.replay_rejected, report.undecodable_records),
            (0, 0),
            "{fixture}"
        );
        let snapshot = recovered.snapshot();
        assert_observationally_equal(&oracle, snapshot.system(), fixture);
        assert_eq!(
            snapshot.system().view().dag().genid().n_free(),
            free_ids,
            "{fixture}: collected nodes' slots are free ids"
        );
        states.push(snapshot.system().exact_digest());
        let _ = fs::remove_dir_all(&dir);
    }
    let differs = states[0].first_difference(&states[1]);
    assert_eq!(differs, None, "both formats recover one state");
    let _ = fs::remove_dir_all(&written);
}

/// The `RXCKPv1` decoder takes bytes from disk: `pr34_log_dir`'s checkpoint
/// payloads, cut short at every 53rd byte, are each an error, and with a
/// byte flipped at every 53rd position decode or fail without a panic.
#[test]
fn a_checkpoint_one_format_back_cut_or_flipped_is_an_error_not_a_panic() {
    use rxview_core::codec::decode_system_v1;
    use rxview_relstore::codec::Reader;
    let (_, atg) = system(80, 1);
    let decode = |payload: &[u8]| {
        let mut r = Reader::new(payload);
        r.read_varint()?; // the epoch
        decode_system_v1(&atg, &mut r).map(|sys| (sys, r.is_empty()))
    };
    let mut checkpoints = dir_bytes(&fixtures().join("pr34_log_dir"));
    checkpoints.retain(|(name, _)| name.ends_with(".rxck"));
    assert_eq!(checkpoints.len(), 2);
    for (name, bytes) in &checkpoints {
        assert!(bytes.starts_with(b"RXCKPv1\n"), "{name}");
        // Magic, payload length (u64) and CRC-32 (u32), then the payload.
        let payload = &bytes[20..];
        let (whole, consumed) = decode(payload).expect("the intact payload decodes");
        assert!(consumed, "{name}: the payload is read to its end");
        whole.consistency_check().unwrap();
        for cut in (0..payload.len()).step_by(53) {
            assert!(decode(&payload[..cut]).is_err(), "{name}: cut at {cut}");
        }
        for i in (0..payload.len()).step_by(53) {
            let mut flipped = payload.to_vec();
            flipped[i] ^= 0x5a;
            let _ = decode(&flipped);
        }
    }
}

/// Commits `rounds` on a durable engine over `dir`, every round through one
/// `commit_pending` that must publish exactly one epoch — one log record —
/// and every update accepted; `oracle` follows one update at a time.
fn commit_rounds(
    engine: &Engine,
    oracle: &mut XmlViewSystem,
    rounds: &[Vec<(XmlUpdate, SideEffectPolicy)>],
) {
    for round in rounds {
        let epoch = engine.snapshot().epoch();
        let tickets: Vec<_> = round
            .iter()
            .map(|(u, policy)| engine.submit(u.clone(), *policy).expect("queue not full"))
            .collect();
        engine.commit_pending();
        for (t, (u, policy)) in tickets.into_iter().zip(round) {
            t.wait().unwrap_or_else(|e| panic!("`{u}` commits: {e}"));
            reference_apply(oracle, u, *policy).expect("oracle agrees");
        }
        assert_eq!(engine.snapshot().epoch(), epoch + 1, "one record per round");
    }
}

/// A deletion and a checkpoint, then a tail of four records — two anchored
/// deletions in one
/// round, a `//`-headed filtered deletion, an insertion under a path with a
/// structural and a negated filter committed under `Abort`, and a round of
/// an insertion under a `//`-headed path beside a deletion. Committed on a
/// durable engine over `dir`; returns the ATG and the oracle's final state.
fn tail_history(dir: &Path) -> (rxview_atg::Atg, XmlViewSystem) {
    let (sys, atg) = system(200, 7);
    let deletions = group_edge_deletions(&sys, 200);
    assert!(deletions.len() >= 5, "a deletable edge in five groups");
    let fresh = |k: i64| rxview_relstore::tuple![900_000 + k, 7i64];
    let insert = |k: i64, path: String| XmlUpdate::insert("node", fresh(k), &path).expect("parses");
    let accepts = |u: &XmlUpdate| sys.clone().apply(u, SideEffectPolicy::Proceed).is_ok();
    // Group heads that take children (a head whose C/F join fails is a leaf).
    let heads: Vec<i64> = (0..5)
        .map(|g| g * 40)
        .filter(|h| accepts(&insert(0, format!("node[id={h}]/sub"))))
        .collect();
    assert!(heads.len() >= 2, "two insertable heads: {heads:?}");
    let descendant = |u: &XmlUpdate| XmlUpdate::delete(&format!("//{}", u.path())).expect("parses");
    use SideEffectPolicy::{Abort, Proceed};
    let filtered = format!("node[id={}][sub/node][not(payload=\"none\")]/sub", heads[0]);
    let rounds = [
        vec![(deletions[0].clone(), Proceed)],
        vec![
            (deletions[1].clone(), Proceed),
            (deletions[2].clone(), Proceed),
        ],
        vec![(descendant(&deletions[3]), Proceed)],
        vec![(insert(1, filtered), Abort)],
        vec![
            (insert(2, format!("//node[id={}]/sub", heads[1])), Proceed),
            (deletions[4].clone(), Proceed),
        ],
    ];
    let engine =
        Engine::with_durability(sys.clone(), durable_config(0), dir).expect("durable engine");
    let mut oracle = sys;
    commit_rounds(&engine, &mut oracle, &rounds[..1]);
    engine.checkpoint_now().expect("checkpoint");
    commit_rounds(&engine, &mut oracle, &rounds[1..]);
    (atg, oracle)
}

/// `tail_history`'s log — a two-update record, `//`-headed and filtered
/// paths, an `Abort` — replays record by record, one fold per update, to the
/// oracle's state.
#[test]
fn a_tail_of_descendant_filtered_and_abort_rounds_replays_as_logged() {
    let dir = temp_dir("tail");
    let (atg, oracle) = tail_history(&dir);
    let (recovered, report) = recover_readonly(&atg, &dir);
    assert_eq!((report.checkpoint_epoch, report.resumed_epoch), (1, 5));
    assert_eq!(
        (
            report.replayed_rounds,
            report.replayed_updates,
            report.replay_folds
        ),
        (4, 6, 6),
        "a record is a round, and each update one fold"
    );
    assert_eq!(
        (
            report.replay_rejected,
            report.torn_segments,
            report.undecodable_records
        ),
        (0, 0, 0)
    );
    assert_eq!(report.replay_full_evals, 0, "keyed `//` paths scope");
    assert_observationally_equal(&oracle, recovered.snapshot().system(), "the tail");
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The log is the round: a record is replayed as the serial application the
// engine ran, one fold per update, however wide the rounds were.
// ---------------------------------------------------------------------------

/// A mixed W1/W2/W3 stream with an unfilterable wildcard in its middle,
/// committed four updates at a time and fourteen at a time, a round per
/// commit, crashes, and is replayed record by
/// record: as many records as published rounds — fewer than updates —, one
/// fold per applied update as the engine folded it, nothing rejected, and
/// the state of the one-at-a-time oracle. (The name is older than serial
/// replay: a record now costs one fold per update.)
#[test]
fn replay_folds_once_per_record_on_every_executors_log() {
    let (sys, atg) = system(400, 9);
    let flips: Vec<bool> = (0..36).map(|i| i % 3 != 1).collect();
    let mut stream = mixed_updates(&sys, 17, &flips);
    // An unfilterable wildcard root nothing bounds: replay evaluates it over
    // all of `L`.
    let wildcard = (0..50)
        .map(|k| XmlUpdate::delete(&format!("*/sub/node[payload={k}]")).expect("parses"))
        .find(|u| sys.clone().apply(u, SideEffectPolicy::Proceed).is_ok());
    stream.insert(stream.len() / 2, wildcard.expect("some payload deletes"));

    let mut oracle = sys.clone();
    let expected: Vec<bool> = stream
        .iter()
        .map(|u| reference_apply(&mut oracle, u, SideEffectPolicy::Proceed).is_ok())
        .collect();
    let accepted = expected.iter().filter(|ok| **ok).count();

    for cadence in [4, 14] {
        let at = format!("cadence {cadence}");
        let dir = temp_dir("folds");
        let config = durable_config(0);
        let engine = Engine::with_durability(sys.clone(), config, &dir).expect("durable engine");
        let mut outcomes = Vec::new();
        for commit in stream.chunks(cadence) {
            let tickets: Vec<_> = commit
                .iter()
                .map(|u| engine.submit(u.clone(), SideEffectPolicy::Proceed))
                .collect();
            engine.commit_pending();
            outcomes.extend(tickets.into_iter().map(|t| t.expect("room").wait().is_ok()));
        }
        assert_eq!(outcomes, expected, "{at}");
        let epoch = engine.snapshot().epoch();
        let engine_report = engine.stats().report();
        let rounds = stream.len().div_ceil(cadence);
        assert_eq!(
            engine_report.rounds as usize, rounds,
            "{at}: rounds are queue prefixes"
        );
        assert_eq!(engine_report.cone_folds as usize, accepted, "{at}");
        drop(engine); // crash

        let (recovered, report) = recover_readonly(&atg, &dir);
        assert_eq!(report.replayed_rounds as u64, epoch, "{at}");
        assert_eq!(report.replayed_updates, accepted, "{at}");
        assert_eq!(
            report.replay_folds, report.replayed_updates,
            "{at}: one fold per applied update"
        );
        assert!(
            report.replayed_rounds < report.replayed_updates,
            "{at}: the records hold more than one update"
        );
        assert_eq!(report.replay_rejected, 0, "{at}");
        assert!(report.replay_full_evals >= 1, "{at}: the wildcard");
        assert_observationally_equal(&oracle, recovered.snapshot().system(), &at);
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Whatever the AST can hold, the log can hold.
// ---------------------------------------------------------------------------

/// The registrar view with one more course, `CS777`, under `title`; a
/// durable engine over it in `dir`.
fn registrar_with_course(title: &str, dir: &Path) -> (Engine, rxview_atg::Atg, XmlViewSystem) {
    let mut db = rxview_workload::registrar_database();
    db.insert("course", rxview_relstore::tuple!["CS777", title, "CS"])
        .expect("valid row");
    let atg = rxview_workload::registrar_atg(&db).expect("valid ATG");
    let sys = XmlViewSystem::new(atg.clone(), db).expect("publishes");
    let engine =
        Engine::with_durability(sys.clone(), durable_config(0), dir).expect("durable engine");
    (engine, atg, sys)
}

/// `label[child = "constant"]`, built without the parser.
fn keyed(label: &str, child: &str, constant: &str) -> rxview_xmlkit::xpath::Step {
    use rxview_xmlkit::xpath::{Filter, Step, XPath};
    let child = XPath::from_steps(vec![Step::label(child)]);
    Step::label(label).with_filter(Filter::PathEq(child, constant.into()))
}

/// Crashes `engine`, recovers `dir` and holds the result to `oracle`, with
/// every one of the `rounds` committed rounds replayed from a whole log.
fn crash_and_compare(
    engine: Engine,
    atg: &rxview_atg::Atg,
    dir: &Path,
    oracle: &XmlViewSystem,
    rounds: usize,
) {
    drop(engine);
    let (recovered, report) = recover_readonly(atg, dir);
    assert_eq!(
        (report.torn_segments, report.undecodable_records),
        (0, 0),
        "every record written is read back"
    );
    assert_eq!(
        (report.replayed_rounds, report.replay_rejected),
        (rounds, 0),
        "every acknowledged round replays"
    );
    assert_observationally_equal(oracle, recovered.snapshot().system(), "after the crash");
    let _ = fs::remove_dir_all(dir);
}

/// An accepted update must never become an undecodable record. The course
/// title holds both kinds of quote, so the path that selects by it — built
/// through the AST, evaluated and accepted — has no display form the parser
/// reads back (`course[title='it's a "quoted" title']` stops at byte 17).
/// While the log recorded paths as text (until e219fe9, PR 23) this round
/// was written as a CRC-valid record that recovery could not decode, which
/// ended the segment's valid prefix: the quoted round **and the three
/// acknowledged rounds after it** were lost. The log records the AST.
#[test]
fn a_constant_with_both_quotes_survives_a_crash_and_so_do_the_rounds_after_it() {
    use rxview_xmlkit::xpath::{Step, XPath};
    let title = "it's a \"quoted\" title";
    let dir = temp_dir("quoted");
    let (engine, atg, sys) = registrar_with_course(title, &dir);
    let quoted = XPath::from_steps(vec![
        keyed("course", "title", title),
        Step::label("takenBy"),
    ]);
    assert!(
        rxview_xmlkit::parse_xpath(&quoted.to_string()).is_err(),
        "the path has no text form"
    );
    let enrol = |ssn: &str, name: &str, path: XPath| XmlUpdate::Insert {
        ty: "student".into(),
        attr: rxview_relstore::tuple![ssn, name],
        path,
    };
    let parsed = |path: &str| rxview_xmlkit::parse_xpath(path).expect("parses");
    use SideEffectPolicy::Proceed;
    let rounds = [
        vec![(enrol("S77", "Zed", quoted), Proceed)],
        vec![(
            enrol("S78", "Yan", parsed("course[cno=CS650]/takenBy")),
            Proceed,
        )],
        vec![(
            XmlUpdate::delete("//student[ssn=S02]").expect("parses"),
            Proceed,
        )],
        vec![(
            enrol("S01", "Alice", parsed("//course[cno=CS240]/takenBy")),
            Proceed,
        )],
    ];
    let mut oracle = sys;
    commit_rounds(&engine, &mut oracle, &rounds);
    crash_and_compare(engine, &atg, &dir, &oracle, rounds.len());
}

/// Labels and constants holding `/`, `[`, `]`, either quote, nothing at all,
/// or non-ASCII text come back from the log as they went in: an inserted
/// `$A` tuple and the constants that later select it, and — in filters that
/// hold of no node, negated — labels no DTD has.
#[test]
fn odd_labels_and_constants_survive_a_crash() {
    use rxview_xmlkit::xpath::{Filter, Step, StepKind, XPath};
    let odd = "S/[]'\"é";
    let dir = temp_dir("odd");
    let (engine, atg, sys) = registrar_with_course("", &dir);
    let child = |label: &str| XPath::from_steps(vec![Step::label(label)]);
    let no_such = |label: &str| {
        let here = Filter::LabelIs(label.into());
        Filter::not(Filter::or(here, Filter::Path(child(label))))
    };
    let enrol = XmlUpdate::Insert {
        ty: "student".into(),
        attr: rxview_relstore::tuple![odd, ""],
        path: XPath::from_steps(vec![
            keyed("course", "title", "")
                .with_filter(no_such("we/[ird]'\"é"))
                .with_filter(no_such(""))
                .with_filter(Filter::not(Filter::PathEq(child("cno"), odd.into()))),
            Step::label("takenBy"),
        ]),
    };
    let student =
        keyed("student", "ssn", odd).with_filter(Filter::PathEq(child("name"), "".into()));
    let expel = XmlUpdate::Delete {
        path: XPath::from_steps(vec![Step::new(StepKind::DescendantOrSelf), student]),
    };
    use SideEffectPolicy::Proceed;
    let rounds = [vec![(enrol, Proceed)], vec![(expel, Proceed)]];
    let mut oracle = sys;
    commit_rounds(&engine, &mut oracle, &rounds);
    crash_and_compare(engine, &atg, &dir, &oracle, rounds.len());
}
