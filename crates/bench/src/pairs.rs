//! The pair protocol's arithmetic, std-only: the summary of a set of
//! alternating parent/change pairs (inclusive quartiles, the parent's
//! interquartile distance, pairs won, lost and tied) and the verdicts a
//! prediction list and `BENCHMARK.json`'s bounds score against them. JSON
//! is `rxbench`'s own module, compiled in here from its source file.
//!
//! The `pairs` binary writes `crates/bench/BENCH_<name>.json` through this
//! module, and the facade's `tests/bench_pairs.rs` includes the same file to
//! recompute every such file's summary and verdicts from its own pairs, so
//! a summary block is never hand-written and never drifts from its runs.
//!
//! A file's shape:
//!
//! - `workloads.<w>.pairs`: `{seed, first, parent, change}` per pair, each
//!   side one run's record (`stolen_pct`, the end-to-end metrics, `digest`,
//!   `oracle`, `ops_failed`, `correct`);
//! - `workloads.<w>.unused_seed`: one more pair, at a seed no run used
//!   while the change was written;
//! - `workloads.<w>.traced`: traced pairs, whose records carry the
//!   per-layer metrics the predictions name — `traced_pairs` of them
//!   ([`traced_pairs`]), which the file records;
//! - `workloads.<w>.summary` / `traced_summary`: per metric, derived from
//!   the pairs by [`summarize`];
//! - `predictions` / `verdicts`: the checked-in prediction list, and what
//!   [`verdicts`] scores for each entry and for every end-to-end metric on
//!   every workload.

#[path = "../../../rxbench/src/json.rs"]
mod json;

pub use json::Json;

/// The alternating pairs per workload a file records, and the fewest a
/// `claim` is scored on.
pub const PAIRS: usize = 10;

/// Traced pairs per workload, unless the prediction file sets
/// `"traced_pairs"` — from this up to [`PAIRS`], so that a traced row can
/// be claimed.
pub const TRACED: usize = 3;

/// The traced pairs a prediction file asks for: its `"traced_pairs"`, a
/// whole number from [`TRACED`] to [`PAIRS`], or [`TRACED`] when absent.
pub fn traced_pairs(predictions: &Json) -> Result<usize, String> {
    let Some(n) = predictions.get("traced_pairs") else {
        return Ok(TRACED);
    };
    match n.as_f64() {
        Some(n) if n.fract() == 0.0 && (TRACED as f64..=PAIRS as f64).contains(&n) => {
            Ok(n as usize)
        }
        _ => Err(format!(
            "`traced_pairs` must be a whole number from {TRACED} to {PAIRS}, not {}",
            n.compact()
        )),
    }
}

/// The elements of `value` when it is an array (none otherwise).
pub fn arr(value: Option<&Json>) -> &[Json] {
    value.and_then(Json::as_arr).unwrap_or_default()
}

/// The members of `value` when it is an object (none otherwise).
pub fn members(value: Option<&Json>) -> &[(String, Json)] {
    value.and_then(Json::as_obj).unwrap_or_default()
}

/// Sets `key` of an object, replacing a member of that name in place.
pub fn set(object: &mut Json, key: &str, value: Json) {
    if let Json::Obj(members) = object {
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => members.push((key.to_owned(), value)),
        }
    }
}

/// `x` to `places` decimals, as the files record every derived figure:
/// rounded from the exact binary value, as decimal formatting does (so
/// 79.00975, stored a hair below, rounds down).
pub fn round(x: f64, places: usize) -> f64 {
    format!("{x:.places$}").parse().unwrap_or(x)
}

/// Inclusive-method quartiles `[q1, median, q3]` of a non-empty sample:
/// the `i`-th quartile sits at position `i · (n − 1) / 4` of the sorted
/// sample, interpolated between its neighbours in the same floating-point
/// steps as Python's `statistics.quantiles(method="inclusive")`, which
/// computed the files written before this module.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len() - 1;
    [1, 2, 3].map(|i| {
        let (j, delta) = ((i * m) / 4, (i * m) % 4);
        match sorted.get(j + 1) {
            Some(&next) => (sorted[j] * (4 - delta) as f64 + next * delta as f64) / 4.0,
            None => sorted[j],
        }
    })
}

/// Which way a metric improves, and the bound the benchmark gates it by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Direction {
    /// Lower values are better.
    pub lower: bool,
    /// For one of `BENCHMARK.json`'s `end_to_end` metrics, its `bound`: the
    /// fraction of the parent's value the change may be worse by.
    pub bound: Option<f64>,
}

/// Every metric `BENCHMARK.json` declares, with its direction.
pub fn directions(benchmark: &Json) -> Vec<(String, Direction)> {
    let mut out = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        for m in arr(benchmark.get(list)) {
            let (Some(name), Some(better)) = (
                m.get("name").and_then(Json::as_str),
                m.get("better").and_then(Json::as_str),
            ) else {
                continue;
            };
            let lower = better == "lower";
            let bound = m.get("bound").and_then(Json::as_f64);
            out.push((name.to_owned(), Direction { lower, bound }));
        }
    }
    out
}

/// The values of `metric` on each side of `pairs`, pair by pair; pairs
/// where a side did not record it are skipped.
fn sides(pairs: &[Json], metric: &str) -> Vec<(f64, f64)> {
    let value = |pair: &Json, side: &str| pair.get(side)?.get(metric)?.as_f64();
    pairs
        .iter()
        .filter_map(|p| Some((value(p, "parent")?, value(p, "change")?)))
        .collect()
}

fn spread(values: &[f64]) -> Json {
    let [q1, median, q3] = quartiles(values);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Json::obj([
        ("q1", Json::Num(round(q1, 4))),
        ("median", Json::Num(round(median, 4))),
        ("q3", Json::Num(round(q3, 4))),
        ("min", Json::Num(min)),
        ("max", Json::Num(max)),
    ])
}

/// One metric's summary over `pairs`, or `None` when no pair recorded it
/// on both sides: both sides' spreads, the parent's interquartile distance
/// (the noise floor), the change of the median, and per pair which side
/// did better — an exact tie counts for neither.
pub fn summarize(pairs: &[Json], metric: &str, dir: Direction) -> Option<Json> {
    let both = sides(pairs, metric);
    if both.is_empty() {
        return None;
    }
    let parent: Vec<f64> = both.iter().map(|p| p.0).collect();
    let change: Vec<f64> = both.iter().map(|p| p.1).collect();
    let (p, c) = (spread(&parent), spread(&change));
    let q = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let parent_iqr = round(q(&p, "q3") - q(&p, "q1"), 4);
    let (pm, cm) = (q(&p, "median"), q(&c, "median"));
    let pct = if pm == 0.0 {
        0.0
    } else {
        round((cm - pm) / pm * 100.0, 2)
    };
    let better = |(p, c): &(f64, f64)| if dir.lower { c < p } else { c > p };
    let worse = |(p, c): &(f64, f64)| if dir.lower { c > p } else { c < p };
    let count =
        |f: &dyn Fn(&(f64, f64)) -> bool| Json::Num(both.iter().filter(|x| f(x)).count() as f64);
    Some(Json::obj([
        (
            "better",
            Json::Str(if dir.lower { "lower" } else { "higher" }.into()),
        ),
        ("gating", Json::Bool(dir.bound.is_some())),
        ("parent", p),
        ("change", c),
        ("parent_iqr", Json::Num(parent_iqr)),
        ("median_change_pct", Json::Num(pct)),
        ("pairs_change_better", count(&better)),
        ("pairs_change_worse", count(&worse)),
        ("pairs_tied", count(&|(p, c): &(f64, f64)| p == c)),
    ]))
}

/// The summary block of `pairs`: every metric `BENCHMARK.json` declares
/// that the pairs recorded, in the order it declares them.
pub fn summary(pairs: &[Json], dirs: &[(String, Direction)]) -> Json {
    let rows = dirs
        .iter()
        .filter_map(|(name, dir)| Some((name.clone(), summarize(pairs, name, *dir)?)));
    Json::Obj(rows.collect())
}

/// Fills in every workload's `summary` and `traced_summary` and the file's
/// `verdicts` from its pairs and `predictions`.
pub fn derive(file: &mut Json, dirs: &[(String, Direction)]) {
    if let Json::Obj(members) = file {
        for (_, workloads) in members.iter_mut().filter(|(k, _)| k == "workloads") {
            if let Json::Obj(workloads) = workloads {
                for (_, w) in workloads.iter_mut() {
                    let pairs = summary(arr(w.get("pairs")), dirs);
                    let traced = summary(arr(w.get("traced")), dirs);
                    set(w, "summary", pairs);
                    set(w, "traced_summary", traced);
                }
            }
        }
    }
    let scored = verdicts(file, dirs);
    set(file, "verdicts", scored);
}

fn fmt(x: f64) -> String {
    format!("{}", round(x, 4))
}

/// Scores every entry of the file's `predictions`, then every end-to-end
/// metric of `dirs` on every workload. An entry names a `kind` and, where
/// it applies, a `metric`, the `workloads` it covers (all of the file's
/// when absent) and the runs it reads (`"traced"` for the traced pairs,
/// else the untraced ones and the unused-seed pair):
///
/// - `claim`: over at least [`PAIRS`] pairs, the change does better by at
///   least `at_least` in the metric's own unit, median against median,
///   wins at least 9 in 10 pairs, and the medians differ by more than the
///   parent's IQR; on the unused-seed pair it does better by `at_least` too;
/// - `no_worse`: the change's median is not worse than the parent's by
///   more than the parent's IQR, and neither is the unused-seed pair's
///   change value;
/// - `identical`: every pair (the unused-seed pair included) reads the
///   same value on both sides;
/// - `lower`: reported, with the prediction that the change's median is
///   below the parent's;
/// - `within_iqr`: reported, with the prediction that the change's median
///   is not worse than the parent's by more than the parent's IQR;
/// - `correct`: the digests are equal in every pair, every default-seed
///   run matches its `expected/` oracle and no run failed an operation;
/// - `report`: the figures, with no prediction.
///
/// The rows the file's predictions do not write: per end-to-end metric
/// and workload, the change's median — and its unused-seed value — is not
/// worse than the parent's by more than the metric's `bound` times the
/// parent's, whether or not a prediction names the metric.
///
/// Where the parent's own runs spread wider than the bound (their IQR
/// against the bound times their median), such a row is `unresolved`
/// unless every change run reads better than every parent run.
///
/// A verdict is `met` or `missed`, `reported` for a `report`, or
/// `unresolved`.
pub fn verdicts(file: &Json, dirs: &[(String, Direction)]) -> Json {
    let workloads = members(file.get("workloads"));
    let mut out = Vec::new();
    let mut row = |text: String, verdict: &str, evidence: String| {
        out.push(Json::obj([
            ("prediction", Json::Str(text)),
            ("verdict", Json::Str(verdict.into())),
            ("evidence", Json::Str(evidence)),
        ]));
    };
    for pred in arr(file.get("predictions")) {
        let field = |k: &str| pred.get(k).and_then(Json::as_str).unwrap_or_default();
        let (kind, metric) = (field("kind"), field("metric"));
        let traced = field("runs") == "traced";
        let dir = dirs.iter().find(|(n, _)| n == metric).map_or(
            Direction {
                lower: true,
                bound: None,
            },
            |&(_, d)| d,
        );
        let named: Vec<&str> = match pred.get("workloads") {
            Some(w) => arr(Some(w)).iter().filter_map(Json::as_str).collect(),
            None => workloads.iter().map(|(n, _)| n.as_str()).collect(),
        };
        let mut met = true;
        let mut evidence = Vec::new();
        for (name, w) in workloads
            .iter()
            .filter(|(n, _)| named.contains(&n.as_str()))
        {
            let pairs = arr(w.get(if traced { "traced" } else { "pairs" }));
            let unused = w.get("unused_seed").filter(|_| !traced);
            let (ok, said) = score(kind, pred, pairs, unused, metric, dir);
            met &= ok || kind == "report";
            evidence.push(format!("{name}: {said}"));
        }
        if evidence.is_empty() {
            met = false;
            evidence.push("no workload recorded".into());
        }
        let verdict = match (kind, met) {
            ("report", true) => "reported",
            (_, true) => "met",
            (_, false) => "missed",
        };
        row(field("prediction").into(), verdict, evidence.join("; "));
    }
    for (metric, dir) in dirs {
        let Some(bound) = dir.bound else { continue };
        for (name, w) in workloads {
            let rule = Json::Null;
            let unused = w.get("unused_seed");
            let pairs = arr(w.get("pairs"));
            let (ok, said) = score("bound", &rule, pairs, unused, metric, *dir);
            let text = format!(
                "no regression: {metric} on {name} not worse than the parent's by more than \
                 its BENCHMARK.json bound ({} %)",
                round(100.0 * bound, 2)
            );
            let verdict = match (ok, resolved(pairs, metric, *dir, bound)) {
                (_, false) => "unresolved",
                (true, true) => "met",
                (false, true) => "missed",
            };
            row(text, verdict, said);
        }
    }
    Json::Arr(out)
}

/// Whether `pairs` can resolve a difference of `bound` times the parent's
/// median in `metric`: the parent's IQR is within it, or every change run
/// reads better than every parent run.
fn resolved(pairs: &[Json], metric: &str, dir: Direction, bound: f64) -> bool {
    let both = sides(pairs, metric);
    let parent: Vec<f64> = both.iter().map(|p| p.0).collect();
    if parent.is_empty() {
        return true;
    }
    let [q1, median, q3] = quartiles(&parent);
    let better = |c: f64, p: f64| if dir.lower { c < p } else { c > p };
    q3 - q1 <= bound * median.abs()
        || both
            .iter()
            .all(|&(_, c)| parent.iter().all(|&p| better(c, p)))
}

/// One prediction on one workload: whether it held, and the figures.
fn score(
    kind: &str,
    pred: &Json,
    pairs: &[Json],
    unused: Option<&Json>,
    metric: &str,
    dir: Direction,
) -> (bool, String) {
    let record =
        |pair: &Json, side: &str, key: &str| pair.get(side).and_then(|r| r.get(key)).cloned();
    if kind == "correct" {
        let all: Vec<&Json> = pairs.iter().chain(unused).collect();
        let digests = all.iter().all(|p| {
            record(p, "parent", "digest").is_some()
                && record(p, "parent", "digest") == record(p, "change", "digest")
        });
        let runs = || {
            all.iter()
                .flat_map(|p| [p.get("parent"), p.get("change")])
                .flatten()
        };
        let failed = runs()
            .map(|r| {
                r.get("ops_failed")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            })
            .fold(0f64, f64::max);
        let failed_ok = runs().all(|r| r.get("ops_failed").and_then(Json::as_f64) == Some(0.0));
        let oracles_ok = pairs
            .iter()
            .flat_map(|p| [p.get("parent"), p.get("change")])
            .flatten()
            .all(|r| {
                r.get("oracle")
                    .and_then(Json::as_str)
                    .is_some_and(|o| o.starts_with("matches"))
            });
        let ok = digests && failed_ok && oracles_ok;
        return (
            ok,
            format!(
                "digests equal in all {} pairs {digests}, default-seed oracles match {oracles_ok}, max ops_failed {failed}",
                all.len()
            ),
        );
    }
    let both = sides(pairs, metric);
    let Some(s) = summarize(pairs, metric, dir) else {
        return (false, format!("{metric} not recorded"));
    };
    let q = |side: &str, k: &str| {
        s.get(side)
            .and_then(|x| x.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let n = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0) as usize;
    let (pm, cm, iqr) = (
        q("parent", "median"),
        q("change", "median"),
        s.get("parent_iqr").and_then(Json::as_f64).unwrap_or(0.0),
    );
    // How much better the change is: positive when it improved.
    let gain = |p: f64, c: f64| if dir.lower { p - c } else { c - p };
    let unused_pair = unused.and_then(|u| {
        Some((
            record(u, "parent", metric)?.as_f64()?,
            record(u, "change", metric)?.as_f64()?,
        ))
    });
    let figures = format!(
        "{} -> {} ({:+.2} %), {} won / {} lost / {} tied, parent IQR {}; change {}..{}, parent {}..{}",
        fmt(pm),
        fmt(cm),
        s.get("median_change_pct").and_then(Json::as_f64).unwrap_or(0.0),
        n("pairs_change_better"),
        n("pairs_change_worse"),
        n("pairs_tied"),
        fmt(iqr),
        fmt(q("change", "min")),
        fmt(q("change", "max")),
        fmt(q("parent", "min")),
        fmt(q("parent", "max")),
    );
    let unused_said = unused_pair.map_or(String::new(), |(p, c)| {
        format!("; unused seed: {} -> {}", fmt(p), fmt(c))
    });
    let ok = match kind {
        "claim" => {
            let at_least = pred.get("at_least").and_then(Json::as_f64).unwrap_or(0.0);
            both.len() >= PAIRS
                && gain(pm, cm) >= at_least
                && n("pairs_change_better") * 10 >= 9 * both.len()
                && (cm - pm).abs() > iqr
                && unused_pair.is_some_and(|(p, c)| gain(p, c) >= at_least)
        }
        "no_worse" => gain(pm, cm) >= -iqr && unused_pair.is_none_or(|(p, c)| gain(p, c) >= -iqr),
        "bound" => {
            let bound = dir.bound.unwrap_or(0.0);
            gain(pm, cm) >= -bound * pm.abs()
                && unused_pair.is_none_or(|(p, c)| gain(p, c) >= -bound * p.abs())
        }
        "identical" => both.iter().chain(&unused_pair).all(|(p, c)| p == c),
        "lower" => cm < pm,
        "within_iqr" => gain(pm, cm) >= -iqr,
        _ => false,
    };
    (ok, figures + &unused_said)
}
