//! Calibration: how much each end-to-end metric moves between runs of the
//! same code, and the bound that follows from it.
//!
//! Three sets of [`RUNS`] runs per workload: seeds 1–10 and seeds 11–20,
//! which is what the acceptance driver does (it takes the spread of ten
//! seeds, twice, and compares the two medians), and seed 1 ten times, which
//! separates the machine's noise from what the seed contributes.
//!
//! The box this was written on has slow spells (see `README.md`): for
//! minutes at a time the host takes CPU time away from the guest and every
//! timing inflates by 20–100 %. A spell says nothing about the benchmark,
//! and the guest can see it — `/proc/stat` reports the stolen time — so
//! calibration repeats, once, a run during which more than [`QUIET_STEAL`]
//! of the CPU time was stolen.
//! Nothing is hidden by that: `CALIBRATION.json` holds the summary of the
//! runs kept, from which the bounds follow, *and* of every run made, and
//! the driver's own runs are not gated at all (each prints its stolen
//! share, so a disturbed one can be told from a regression).

use crate::catalogue::{MetricDef, END_TO_END, TIMINGS};
use crate::json::Json;
use crate::machine::CpuTimes;
use crate::summary::{max, median, min, quantile};
use crate::workloads::NAMES;
use std::path::Path;
use std::process::Command;

/// Runs per set and workload.
const RUNS: usize = 10;

/// The widest bound a metric whose spread the driver checks may have. A
/// metric that calibrates wider gets its phase lengthened or its statistic
/// changed, or leaves the end-to-end list (as the session's timings have);
/// it does not get a wider bound.
const MAX_BOUND: f64 = 0.20;

/// A bound is at least this multiple of the interquartile spread ÷ median
/// seen in calibration (the spread stays below a third of the bound).
const HEADROOM: f64 = 3.0;

/// The machine counts as quiet while less than this share of its CPU time
/// is stolen by the host: quiet stretches of this box show 0.1–0.6 %,
/// spells 5–13 %.
pub const QUIET_STEAL: f64 = 0.01;

/// How often a disturbed run is repeated before calibration keeps it
/// regardless (and says so). Waiting for a quiet machine first is not an
/// option: time is only stolen from a CPU that wants to run, so an idle
/// guest cannot see a spell.
const MAX_REPEATS: usize = 1;

/// What calibration records: the gating metrics and the session's timings.
fn recorded() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().chain(&TIMINGS)
}

/// One run's values of the [`recorded`] metrics, in that order, read off
/// the `metric <name> <value> <unit>` lines an untraced run prints.
fn run_once(exe: &Path, name: &str, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let out = Command::new(exe)
        .args(["--workload", name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result =
        Json::parse(last).map_err(|e| format!("{name} seed {seed}: no result line ({e})"))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{name} seed {seed}: run not correct:\n{stdout}"));
    }
    recorded()
        .map(|def| {
            stdout
                .lines()
                .find_map(|l| {
                    let mut words = l.split_whitespace();
                    (words.next() == Some("metric") && words.next() == Some(def.name))
                        .then(|| words.next()?.parse::<f64>().ok())
                        .flatten()
                })
                .ok_or_else(|| format!("{name} seed {seed}: {} missing", def.name))
        })
        .collect()
}

/// Per-metric summary of `runs` (each in [`recorded`] order).
fn summarise(runs: &[Vec<f64>]) -> Json {
    Json::obj(recorded().enumerate().map(|(i, def)| {
        let v: Vec<f64> = runs.iter().map(|r| r[i]).collect();
        let (p25, med, p75) = (quantile(&v, 0.25), median(&v), quantile(&v, 0.75));
        (
            def.name,
            Json::obj([
                ("unit", Json::Str(def.unit.into())),
                ("median", Json::Num(med)),
                ("p25", Json::Num(p25)),
                ("p75", Json::Num(p75)),
                ("min", Json::Num(min(&v))),
                ("max", Json::Num(max(&v))),
                ("n", Json::Num(v.len() as f64)),
                ("iqr_over_median", Json::Num((p75 - p25) / med)),
                ("range_over_median", Json::Num((max(&v) - min(&v)) / med)),
            ]),
        )
    }))
}

/// Runs the three sets on every workload and writes `path`.
pub fn calibrate(seconds: u64, path: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let sets: [(&str, Vec<u64>); 3] = [
        ("seeds_1_10", (1..=RUNS as u64).collect()),
        ("seeds_11_20", (RUNS as u64 + 1..=2 * RUNS as u64).collect()),
        ("seed_1_repeated", vec![1; RUNS]),
    ];
    let (mut repeated, mut unquiet) = (0usize, 0usize);
    // Per workload and set: the runs kept, and every run made. Sets run one
    // after the other, as the driver's two do; within a set the workloads
    // alternate, so each workload's ten runs are spread over the set.
    let mut kept = vec![vec![Vec::new(); sets.len()]; NAMES.len()];
    let mut all = kept.clone();
    for (s, (set, seeds)) in sets.iter().enumerate() {
        for &seed in seeds {
            for (w, name) in NAMES.iter().enumerate() {
                for attempt in 0.. {
                    let before = CpuTimes::now();
                    let values = run_once(&exe, name, seed, seconds)?;
                    let stolen = before.and_then(|b| b.stolen_share_since());
                    let quiet = stolen.is_none_or(|s| s < QUIET_STEAL);
                    println!(
                        "{name} {set} seed {seed}: stolen {} {}{}",
                        stolen.map_or("n/a".into(), |s| format!("{:.2} %", 100.0 * s)),
                        if quiet { "quiet" } else { "DISTURBED" },
                        recorded()
                            .zip(&values)
                            .map(|(d, v)| format!(" {}={v:.4}", d.name))
                            .collect::<String>()
                    );
                    all[w][s].push(values.clone());
                    if quiet || attempt == MAX_REPEATS {
                        unquiet += usize::from(!quiet);
                        kept[w][s].push(values);
                        break;
                    }
                    repeated += 1;
                }
            }
        }
    }
    let workloads = NAMES.iter().enumerate().map(|(w, name)| {
        let by_set = sets.iter().enumerate().map(|(s, (set, _))| {
            (
                *set,
                Json::obj([
                    ("quiet", summarise(&kept[w][s])),
                    ("all_runs", summarise(&all[w][s])),
                ]),
            )
        });
        (*name, Json::obj(by_set))
    });
    let doc = Json::obj([
        ("runs_per_set", Json::Num(RUNS as f64)),
        ("seconds", Json::Num(seconds as f64)),
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("quiet_means_stolen_share_below", Json::Num(QUIET_STEAL)),
        ("runs_repeated_as_disturbed", Json::Num(repeated as f64)),
        ("runs_kept_though_disturbed", Json::Num(unquiet as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::write(path, doc.pretty()).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    for def in recorded() {
        let c = Calibrated::of(&doc, def.name);
        let gating = END_TO_END.iter().any(|e| e.name == def.name);
        println!(
            "{:<22} kept runs: iqr/median {:>6.2} %  range/median {:>6.2} %  median shift {:>6.2} %   all runs: iqr/median {:>6.2} %   {}",
            def.name,
            100.0 * c.iqr,
            100.0 * c.range,
            100.0 * c.shift,
            100.0 * c.iqr_all,
            match calibrated(def, &c) {
                Ok(b) if gating => format!("bound {:.0} %", 100.0 * b),
                Ok(b) => format!("non-gating; could be promoted with a bound of {:.0} %", 100.0 * b),
                Err(e) if gating => e,
                Err(e) => format!("non-gating: {e}"),
            }
        );
    }
    Ok(())
}

/// What a calibration document says about one metric: the worst over the
/// workloads and the two ten-seed sets.
struct Calibrated {
    /// Interquartile spread ÷ median of the quiet runs.
    iqr: f64,
    /// (max − min) ÷ median of the quiet runs.
    range: f64,
    /// |median of seeds 11–20 − median of seeds 1–10| ÷ the latter.
    shift: f64,
    /// Interquartile spread ÷ median over every run made.
    iqr_all: f64,
}

impl Calibrated {
    fn of(doc: &Json, metric: &str) -> Calibrated {
        let mut c = Calibrated {
            iqr: 0.0,
            range: 0.0,
            shift: 0.0,
            iqr_all: 0.0,
        };
        for (_, w) in doc.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
            let get = |set: &str, which: &str, k: &str| {
                w.get(set)?.get(which)?.get(metric)?.get(k)?.as_f64()
            };
            for set in ["seeds_1_10", "seeds_11_20"] {
                c.iqr = c
                    .iqr
                    .max(get(set, "quiet", "iqr_over_median").unwrap_or(0.0));
                c.range = c
                    .range
                    .max(get(set, "quiet", "range_over_median").unwrap_or(0.0));
                c.iqr_all = c
                    .iqr_all
                    .max(get(set, "all_runs", "iqr_over_median").unwrap_or(0.0));
            }
            if let (Some(a), Some(b)) = (
                get("seeds_1_10", "quiet", "median"),
                get("seeds_11_20", "quiet", "median"),
            ) {
                c.shift = c.shift.max(((b - a) / a).abs());
            }
        }
        c
    }
}

/// A metric's bound: the table's value, widened to [`HEADROOM`] × the worst
/// interquartile spread calibration saw, rounded up to a whole percent. A
/// metric that needs more than [`MAX_BOUND`] is an error: it cannot gate.
fn bound(table: f64, iqr_over_median: f64) -> Result<f64, String> {
    let widened = (HEADROOM * iqr_over_median * 100.0 - 1e-9).ceil() / 100.0;
    let b = table.max(widened);
    if b > MAX_BOUND {
        return Err(format!(
            "needs a bound of {:.0} % (> {:.0} %): lengthen its phase, change its statistic or make it non-gating",
            100.0 * b,
            100.0 * MAX_BOUND
        ));
    }
    Ok(b)
}

/// `def`'s bound given what calibration saw. The driver does not check
/// the spread of `setup_s` (and asks that it get the largest bound), so its
/// table value stands.
fn calibrated(def: &MetricDef, c: &Calibrated) -> Result<f64, String> {
    if def.name == "setup_s" {
        Ok(def.bound)
    } else {
        bound(def.bound, c.iqr)
    }
}

/// The bound of the gating metric `def` given the calibration document at
/// `path` (the table's value if there is none).
pub fn calibrated_bound(path: &Path, def: &MetricDef) -> Result<f64, String> {
    match std::fs::read_to_string(path) {
        Err(_) => Ok(def.bound),
        Ok(text) => {
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            calibrated(def, &Calibrated::of(&doc, def.name))
                .map_err(|e| format!("{} {e}", def.name))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_only_widens_and_refuses_to_exceed_the_cap() {
        assert_eq!(bound(0.10, 0.01), Ok(0.10));
        assert_eq!(bound(0.10, 0.05), Ok(0.15));
        assert_eq!(bound(0.01, 0.004), Ok(0.02));
        assert_eq!(bound(0.10, 0.066), Ok(0.20));
        assert!(bound(0.10, 0.07).is_err());
    }
}
