//! Quickstart: publish the paper's registrar database (Example 1) as a
//! recursive XML view, run an insertion and a deletion through the full
//! pipeline, and verify `∆X(T) = σ(∆R(I))`.
//!
//! Run with: `cargo run --example quickstart`

use rxview::prelude::*;
use rxview::relstore::tuple;
use rxview::workload::{registrar_atg, registrar_database};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The relational database I₀ of Example 1 (Fig.1 instance).
    let db = registrar_database();
    println!("Base relations:");
    for t in ["course", "prereq", "student", "enroll"] {
        println!("  {t}: {} rows", db.table(t)?.len());
    }

    // 2. The ATG σ₀ of Fig.2, mapping I₀ to the recursive DTD D₀.
    let atg = registrar_atg(&db)?;
    println!(
        "\nDTD D₀ (recursive: {}):\n{}",
        atg.dtd().is_recursive(),
        atg.dtd()
    );

    // 3. Publish: the view is generated directly as a DAG; shared subtrees
    //    (CS320, CS240, their students) are stored once.
    let mut sys = XmlViewSystem::new(atg, db)?;
    println!(
        "Published DAG: {} nodes, {} edges (expanded tree would have {} nodes)",
        sys.view().n_nodes(),
        sys.view().n_edges(),
        sys.expand_tree().len(),
    );
    println!(
        "\nThe XML view, expanded:\n{}",
        sys.expand_tree().serialize(sys.view().atg().dtd())
    );

    // 4. An insertion with recursive XPath: make MA100 a prerequisite of
    //    every CS320 below CS650. CS320 also occurs top-level, so this has a
    //    *side effect* — with `Proceed`, the paper's revised semantics
    //    applies it at every occurrence (one DAG node, zero extra cost).
    let insert = XmlUpdate::insert(
        "course",
        tuple!["MA100", "Calculus"],
        "course[cno=CS650]//course[cno=CS320]/prereq",
    )?;
    println!("∆X = {insert}");
    match sys.apply(&insert, SideEffectPolicy::Abort) {
        Err(e) => println!("  with Abort policy: {e}"),
        Ok(_) => unreachable!("this update has side effects"),
    }
    let report = sys.apply(&insert, SideEffectPolicy::Proceed)?;
    println!(
        "  applied: ∆V = {} edge ops, ∆R = {} tuple ops, side effects at {} node(s)",
        report.delta_v_len,
        report.delta_r.len(),
        report.side_effects
    );
    print!("  {}", report.delta_r);

    // 5. A group deletion: S02 disappears from every takenBy list.
    let delete = XmlUpdate::delete("//student[ssn=S02]")?;
    println!("∆X = {delete}");
    let report = sys.apply(&delete, SideEffectPolicy::Proceed)?;
    println!(
        "  applied: ∆V = {} edge ops, garbage-collected {} unreachable node(s)",
        report.delta_v_len, report.maintain.gc_nodes
    );
    print!("  {}", report.delta_r);

    // 6. The correctness criterion of the paper, ∆X(T) = σ(∆R(I)):
    //    republish from scratch and compare against the incrementally
    //    maintained view (plus M and L against recomputation).
    sys.consistency_check()
        .map_err(|e| -> Box<dyn std::error::Error> { e.into() })?;
    println!("\nConsistency check passed: ∆X(T) = σ(∆R(I)), M and L maintained correctly.");

    // 7. Serving: wrap the system in the concurrent engine — readers get
    //    immutable snapshots, writers group-commit batches.
    let engine = Engine::new(sys);
    let snapshot = engine.snapshot();
    let course_count = snapshot
        .select(&rxview::xmlkit::parse_xpath("//course")?)
        .len();
    println!(
        "\nEngine snapshot (epoch {}): {course_count} course occurrences",
        snapshot.epoch()
    );
    let ticket = engine.submit(
        XmlUpdate::insert(
            "student",
            tuple!["S99", "Dana"],
            "course[cno=CS650]/takenBy",
        )?,
        SideEffectPolicy::Proceed,
    )?;
    engine.commit_pending();
    let report: UpdateReport = ticket.wait()?;
    println!(
        "group commit applied the insert: ∆V = {} edge ops, ∆R = {} tuple ops",
        report.delta_v_len,
        report.delta_r.len()
    );
    // The old snapshot is untouched; a fresh one sees the write.
    assert_eq!(
        snapshot
            .select(&rxview::xmlkit::parse_xpath("//student[ssn=S99]")?)
            .len(),
        0
    );
    assert_eq!(
        engine
            .snapshot()
            .select(&rxview::xmlkit::parse_xpath("//student[ssn=S99]")?)
            .len(),
        1
    );
    println!(
        "snapshot isolation: old epoch unchanged, new epoch {}",
        engine.snapshot().epoch()
    );
    engine
        .snapshot()
        .system()
        .consistency_check()
        .map_err(|e| -> Box<dyn std::error::Error> { e.into() })?;

    // 8. Durability: the same serving engine, but every committed round is
    //    appended to an epoch-ordered replay log before it becomes visible,
    //    and crash recovery rebuilds the exact acknowledged state.
    use rxview::prelude::Durability;
    let dir = std::env::temp_dir().join(format!("rxview-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db2 = registrar_database();
    let atg2 = registrar_atg(&db2)?;
    let durable = rxview::engine::Engine::with_durability(
        XmlViewSystem::new(atg2.clone(), db2)?,
        rxview::engine::EngineConfig {
            durability: Durability::PerRound,
            ..rxview::engine::EngineConfig::default()
        },
        &dir,
    )?;
    durable
        .apply_now(
            XmlUpdate::delete("//student[ssn=S02]")?,
            SideEffectPolicy::Proceed,
        )
        .map_err(|e| -> Box<dyn std::error::Error> { e.to_string().into() })?;
    drop(durable); // simulate a crash: no graceful shutdown
    let (recovered, recovery) = rxview::engine::Engine::recover(
        atg2,
        &dir,
        rxview::engine::EngineConfig {
            durability: Durability::PerRound,
            ..rxview::engine::EngineConfig::default()
        },
    )?;
    assert_eq!(
        recovered
            .snapshot()
            .select(&rxview::xmlkit::parse_xpath("//student[ssn=S02]")?)
            .len(),
        0
    );
    println!(
        "durability: recovered to epoch {} ({} round replayed after the checkpoint)",
        recovery.resumed_epoch, recovery.replayed_rounds
    );
    println!(
        "  recovery time: {:?} loading the checkpoint, {:?} replaying the WAL suffix",
        recovery.checkpoint_load, recovery.wal_replay
    );
    // Replay evaluates each logged path through its scope where it has one;
    // on a view this small a cone is most of `L`, so the full pass runs.
    println!(
        "  of {} replayed update(s), {} evaluated by the full pass over L",
        recovery.replayed_updates, recovery.replay_full_evals
    );

    // 9. Observability: every engine carries lock-free metrics and
    //    a flight recorder; `telemetry_report` renders both human-readably.
    println!("\n{}", recovered.telemetry_report());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
