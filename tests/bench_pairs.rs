//! The pair files hold their own evidence: every `crates/bench/BENCH_*.json`
//! the `pairs` tool wrote (`"generator": "pairs"`) must have exactly the
//! summaries and verdicts its own pairs and predictions give, and the
//! summary arithmetic must reproduce a file assembled before the tool
//! existed — its medians, parent IQRs and pair counts.

#[allow(dead_code)]
#[path = "../crates/bench/src/pairs.rs"]
mod pairs;

use pairs::{
    arr, derive, directions, members, summarize, traced_pairs, verdicts, Direction, Json, PAIRS,
    TRACED,
};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap();
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark_directions() -> Vec<(String, Direction)> {
    directions(&read(&root().join("BENCHMARK.json")))
}

#[test]
fn every_pairs_file_follows_from_its_pairs() {
    let dirs = benchmark_directions();
    let mut checked = 0;
    for entry in std::fs::read_dir(root().join("crates/bench")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let written = read(&path);
        if written.get("generator").and_then(Json::as_str) != Some("pairs") {
            continue;
        }
        let mut derived = written.clone();
        derive(&mut derived, &dirs);
        for (key, value) in members(Some(&derived)) {
            assert_eq!(written.get(key), Some(value), "{name}: `{key}`");
        }
        assert_eq!(derived, written, "{name}");
        checked += 1;
    }
    assert!(checked >= 1, "no file written by `pairs`");
}

/// A file records the traced pairs its prediction file asked for — three
/// unless it set `"traced_pairs"` — and holds that many per workload.
#[test]
fn every_pairs_file_holds_the_traced_pairs_it_records() {
    for entry in std::fs::read_dir(root().join("crates/bench")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let written = read(&path);
        if written.get("generator").and_then(Json::as_str) != Some("pairs") {
            continue;
        }
        let recorded = written.get("traced_pairs").and_then(Json::as_f64);
        let n = recorded.map_or(TRACED, |n| n as usize);
        for (workload, w) in members(written.get("workloads")) {
            assert_eq!(arr(w.get("traced")).len(), n, "{name}: {workload}");
        }
    }
}

/// `"traced_pairs"` runs from 3 to 10; anything else is refused.
#[test]
fn a_prediction_file_asks_for_three_to_ten_traced_pairs() {
    let asking = |n: Json| Json::obj([("traced_pairs", n)]);
    assert_eq!(traced_pairs(&Json::obj::<&str>([])), Ok(TRACED));
    for n in TRACED..=PAIRS {
        assert_eq!(traced_pairs(&asking(Json::Num(n as f64))), Ok(n));
    }
    for bad in [
        Json::Num(2.0),
        Json::Num(11.0),
        Json::Num(4.5),
        Json::Str("ten".into()),
    ] {
        assert!(traced_pairs(&asking(bad.clone())).is_err(), "{bad:?}");
    }
}

/// `BENCH_edge_ids.json` was assembled by hand before the tool: recomputed
/// from its own pairs, every untraced summary row keeps its medians, its
/// parent IQR and its pair counts.
#[test]
fn the_summary_reproduces_a_hand_assembled_file() {
    let dirs = benchmark_directions();
    let file = read(&root().join("crates/bench/BENCH_edge_ids.json"));
    let mut rows = 0;
    for (workload, w) in members(file.get("workloads")) {
        let pairs = arr(w.get("pairs"));
        assert_eq!(pairs.len(), PAIRS, "{workload}");
        for (metric, written) in members(w.get("summary")) {
            let dir = dirs.iter().find(|(n, _)| n == metric).unwrap().1;
            let derived = summarize(pairs, metric, dir).unwrap();
            let at = |s: &Json, path: &[&str]| {
                path.iter()
                    .try_fold(s, |s, k| s.get(k))
                    .and_then(Json::as_f64)
            };
            for path in [
                &["parent", "median"][..],
                &["change", "median"],
                &["parent_iqr"],
                &["pairs_change_better"],
                &["pairs_change_worse"],
                &["pairs_tied"],
            ] {
                let (got, want) = (at(&derived, path).unwrap(), at(written, path).unwrap());
                assert!(
                    (got - want).abs() < 1e-9,
                    "{workload} {metric} {path:?}: {got} recomputed, {want} written"
                );
            }
            rows += 1;
        }
    }
    assert_eq!(rows, 33);
}

/// A pair whose sides read `parent` and `change` for `metric`.
fn pair(metric: &str, parent: f64, change: f64) -> Json {
    let side = |v: f64| Json::obj([(metric, Json::Num(v))]);
    Json::obj([("parent", side(parent)), ("change", side(change))])
}

/// A file with one workload whose pairs read `values`, and one prediction.
fn file(metric: &str, values: &[(f64, f64)], unused: (f64, f64), prediction: Json) -> Json {
    let pairs = values.iter().map(|&(p, c)| pair(metric, p, c)).collect();
    let w = Json::obj([
        ("pairs", Json::Arr(pairs)),
        ("unused_seed", pair(metric, unused.0, unused.1)),
    ]);
    Json::obj([
        ("workloads", Json::obj([("w", w)])),
        ("predictions", Json::Arr(vec![prediction])),
    ])
}

fn verdict_of(scored: &Json, prefix: &str) -> String {
    arr(Some(scored))
        .iter()
        .find(|v| {
            v.get("prediction")
                .and_then(Json::as_str)
                .is_some_and(|p| p.starts_with(prefix))
        })
        .and_then(|v| v.get("verdict")?.as_str())
        .unwrap_or_else(|| panic!("no verdict for `{prefix}`"))
        .to_owned()
}

#[test]
fn a_claim_needs_the_full_count_of_pairs() {
    let dirs = benchmark_directions();
    let claim = Json::obj([
        ("prediction", Json::Str("claim".into())),
        ("kind", Json::Str("claim".into())),
        ("metric", Json::Str("peak_rss_mb".into())),
        ("at_least", Json::Num(2.0)),
    ]);
    let won = |n: usize| {
        let values: Vec<(f64, f64)> = (0..n).map(|i| (80.0 + i as f64 * 0.01, 75.0)).collect();
        let scored = verdicts(
            &file("peak_rss_mb", &values, (80.0, 75.0), claim.clone()),
            &dirs,
        );
        verdict_of(&scored, "claim")
    };
    assert_eq!(won(PAIRS - 7), "missed", "three pairs won of three");
    assert_eq!(won(PAIRS - 1), "missed");
    assert_eq!(won(PAIRS), "met");
}

/// Every end-to-end metric on every workload is scored against the bound
/// `BENCHMARK.json` sets, whether or not a prediction names it.
#[test]
fn every_end_to_end_metric_is_held_to_its_benchmark_bound() {
    let dirs = benchmark_directions();
    let bounded: Vec<(&str, f64)> = dirs
        .iter()
        .filter_map(|(n, d)| Some((n.as_str(), d.bound?)))
        .collect();
    assert_eq!(
        bounded,
        [
            ("setup_s", 0.25),
            ("peak_rss_mb", 0.1),
            ("wal_bytes_per_update", 0.03)
        ]
    );
    let report = Json::obj([
        ("prediction", Json::Str("something else".into())),
        ("kind", Json::Str("report".into())),
        ("metric", Json::Str("updates_per_s".into())),
    ]);
    for (metric, bound) in bounded {
        let rows = |worse_by: f64, unused_worse_by: f64| {
            let values = vec![(100.0, 100.0 * (1.0 + worse_by)); PAIRS];
            let unused = (100.0, 100.0 * (1.0 + unused_worse_by));
            let scored = verdicts(&file(metric, &values, unused, report.clone()), &dirs);
            let rows = arr(Some(&scored)).len();
            (
                rows,
                verdict_of(&scored, &format!("no regression: {metric} on w ")),
            )
        };
        let n_rows = 1 + dirs.iter().filter(|(_, d)| d.bound.is_some()).count();
        assert_eq!(rows(0.0, 0.0), (n_rows, "met".to_owned()), "{metric}");
        assert_eq!(rows(bound * 0.9, 0.0).1, "met", "{metric}");
        assert_eq!(rows(bound * 1.1, 0.0).1, "missed", "{metric}");
        assert_eq!(rows(0.0, bound * 1.1).1, "missed", "{metric}: unused seed");
    }
}

/// A parent whose own runs spread wider than the bound cannot show a
/// regression of that size: such a row reads `unresolved`, unless every
/// change run is better than every parent run.
#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let dirs = benchmark_directions();
    let report = Json::obj([
        ("prediction", Json::Str("nothing".into())),
        ("kind", Json::Str("report".into())),
    ]);
    // `setup_s`, bound 25 %: parents from 60 to 140 around a median of 100.
    let parent = |i: usize| 60.0 + 80.0 * i as f64 / (PAIRS - 1) as f64;
    let row = |change: &dyn Fn(usize) -> f64| {
        let values: Vec<(f64, f64)> = (0..PAIRS).map(|i| (parent(i), change(i))).collect();
        let scored = verdicts(
            &file("setup_s", &values, (100.0, 100.0), report.clone()),
            &dirs,
        );
        verdict_of(&scored, "no regression: setup_s on w ")
    };
    assert_eq!(row(&parent), "unresolved");
    assert_eq!(
        row(&|_| 50.0),
        "met",
        "every change run below every parent run"
    );
    let narrow = |i: usize| 99.0 + 2.0 * i as f64 / (PAIRS - 1) as f64;
    let values: Vec<(f64, f64)> = (0..PAIRS).map(|i| (narrow(i), narrow(i))).collect();
    let scored = verdicts(&file("setup_s", &values, (100.0, 100.0), report), &dirs);
    assert_eq!(verdict_of(&scored, "no regression: setup_s on w "), "met");
}
