//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` is generated from this table (`rxbench
//! manifest`) and `tests/contract.rs` checks the two agree; definitions
//! and the interaction table live in `README.md`.

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression — the
    /// issue's table value; `CALIBRATION.json` may only widen it.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, "lower", 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, "higher", 0.0)
}

/// The gating end-to-end metrics, reported by every workload's untraced
/// run: the ones that repeat on a shared box. `setup_s` is a wall-clock
/// time like the [`TIMINGS`], but the driver's contract requires it, spares
/// it the spread check and asks that it get the largest bound.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.05),
    e2e("wal_bytes_per_update", "B", "lower", 0.01),
];

/// The session's wall-clock metrics — the issue's other eight end-to-end
/// metrics. Every run measures and prints them, and `calibrate` records
/// their spread, but they do not gate: on the box this was calibrated on
/// they moved 10–40 % between runs of the same code and the same seed (see
/// `README.md`), which no bound of 20 % survives. The bound here is the
/// issue's, the one a later calibration has to show a metric holds before
/// it is moved up into [`END_TO_END`].
pub const TIMINGS: [MetricDef; 8] = [
    e2e("updates_per_s", "1/s", "higher", 0.10),
    e2e("ack_p50_ms", "ms", "lower", 0.10),
    e2e("ack_p90_ms", "ms", "lower", 0.15),
    e2e("serve_updates_per_s", "1/s", "higher", 0.10),
    e2e("reads_per_s", "1/s", "higher", 0.10),
    e2e("read_p50_ms", "ms", "lower", 0.10),
    e2e("pin_release_ms", "ms", "lower", 0.15),
    e2e("recover_s", "s", "lower", 0.10),
];

/// The per-layer metrics of the traced run (layer = crate.module); the
/// traced run reports the [`TIMINGS`] beside them.
pub const PER_LAYER: [MetricDef; 73] = [
    // Parsing and plan lookup.
    lower("xmlkit.parse_xpath_us", "us"),
    lower("core.plan.lookup_us", "us"),
    higher("core.plan.hit_rate", "ratio"),
    // Conflict analysis and round planning.
    lower("engine.analyze.of_us", "us"),
    lower("engine.analyze.check_us", "us"),
    lower("engine.analyze.global_share", "ratio"),
    lower("engine.analyze.multi_cone_share", "ratio"),
    lower("engine.ledger.plan_s", "s"),
    lower("engine.ledger.requeued", "count"),
    higher("engine.ledger.fission_admits", "count"),
    lower("engine.ledger.fission_denies", "count"),
    higher("engine.ledger.mean_realized_width", "count"),
    // Path evaluation.
    lower("core.eval.scoped_us", "us"),
    lower("core.eval.full_us", "us"),
    lower("core.eval.scope_nodes", "count"),
    // Translation and relational apply.
    lower("core.apply_deferred_us", "us"),
    lower("core.translate_us", "us"),
    lower("core.eval_in_apply_us", "us"),
    lower("core.rel_delete.translate_us", "us"),
    lower("core.rel_insert.translate_us", "us"),
    lower("core.rel_insert.sat_used_share", "ratio"),
    lower("relstore.apply_us", "us"),
    lower("engine.ledger.translate_s", "s"),
    higher("engine.ledger.template_hit_rate", "ratio"),
    // Maintenance of M and L.
    lower("core.fold_us", "us"),
    lower("core.fold.m_rewrite_us", "us"),
    lower("core.fold.l_splice_us", "us"),
    lower("core.fold.cone_folds", "count"),
    lower("engine.ledger.fold_s", "s"),
    // Snapshots.
    lower("engine.snapshot.clone_us", "us"),
    lower("engine.snapshot.cow_first_write_us", "us"),
    lower("engine.snapshot.release_us", "us"),
    lower("engine.ledger.publish_s", "s"),
    lower("engine.ledger.merge_s", "s"),
    // The commit loop as a whole.
    lower("engine.submit_us", "us"),
    lower("engine.commit_pending_ms", "ms"),
    lower("engine.commit.unattributed_s", "s"),
    lower("engine.ledger.rounds", "count"),
    lower("engine.ledger.shard_idle_fraction", "ratio"),
    higher("engine.ledger.overlap_fraction", "ratio"),
    // Write-ahead log.
    lower("core.codec.put_update_us", "us"),
    lower("core.codec.update_bytes", "B"),
    lower("engine.ledger.wal_append_s", "s"),
    lower("engine.ledger.fsync_s", "s"),
    lower("engine.sync_wal_ms", "ms"),
    // Checkpoint and recovery.
    lower("engine.checkpoint_now_ms", "ms"),
    lower("core.codec.encode_system_ms", "ms"),
    lower("core.codec.decode_system_ms", "ms"),
    lower("core.codec.system_bytes", "B"),
    lower("engine.recover.checkpoint_load_s", "s"),
    lower("engine.recover.replay_s", "s"),
    lower("engine.recover.replayed_updates", "count"),
    // Set-up.
    lower("atg.publish_s", "s"),
    lower("core.topo.compute_s", "s"),
    lower("core.reach.compute_s", "s"),
    lower("core.reach.pairs", "count"),
    lower("workload.generate_s", "s"),
    // Whole-phase and tracing bookkeeping.
    higher("burst.mean_updates_per_s", "1/s"),
    lower("trace.overhead_ratio", "ratio"),
    lower("replay.accounted_share", "ratio"),
    lower("replay.wall_s", "s"),
    // Non-gating concurrent diagnostics: one real reader thread beside the
    // closed-loop writer, median of three passes with min and max.
    higher("conc.updates_per_s", "1/s"),
    higher("conc.updates_per_s.min", "1/s"),
    higher("conc.updates_per_s.max", "1/s"),
    higher("conc.reads_per_s", "1/s"),
    higher("conc.reads_per_s.min", "1/s"),
    higher("conc.reads_per_s.max", "1/s"),
    lower("conc.read_p50_ms", "ms"),
    lower("conc.read_p50_ms.min", "ms"),
    lower("conc.read_p50_ms.max", "ms"),
    lower("conc.read_p99_ms", "ms"),
    lower("conc.read_p99_ms.min", "ms"),
    lower("conc.read_p99_ms.max", "ms"),
];

/// A measured value, named as in the catalogue.
pub type Measured = (&'static str, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all = || END_TO_END.iter().chain(&TIMINGS).chain(&PER_LAYER);
        let mut names: Vec<&str> = all().map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
        for m in all() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(TIMINGS.len() + PER_LAYER.len() <= 128);
    }
}
