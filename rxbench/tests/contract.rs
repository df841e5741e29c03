//! The benchmark's contract with its driver: `BENCHMARK.json` says what the
//! catalogue says, and a (smoke-sized) session of every workload prints
//! exactly the declared metrics, fails nothing and repeats its counts.

use rxbench::catalogue::{MetricDef, END_TO_END, PER_LAYER, TIMINGS};
use rxbench::json::Json;
use rxbench::workloads::{spec, DEFAULT_SECONDS, NAMES};
use std::path::Path;
use std::process::Command;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("string member `{key}`"))
}

fn check_metrics(listed: &[Json], catalogue: &[&MetricDef], bounded: bool) {
    assert_eq!(listed.len(), catalogue.len());
    for (j, def) in listed.iter().zip(catalogue) {
        assert_eq!(text(j, "name"), def.name);
        assert_eq!(text(j, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(j, "better"), def.better, "{}", def.name);
        let keys = j.as_obj().expect("metric object").len();
        if bounded {
            let bound = j.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(
                bound >= def.bound && bound <= if def.name == "setup_s" { 0.25 } else { 0.20 },
                "{}: calibration only widens the table's bound, to at most 0.20",
                def.name
            );
            assert_eq!(keys, 4);
        } else {
            assert_eq!(keys, 3);
        }
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        m.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS as f64)
    );
    assert_eq!(
        m.get("paths").and_then(Json::as_arr),
        Some(&[Json::Str("rxbench".into())][..])
    );
    let command: Vec<&str> = m
        .get("command")
        .and_then(Json::as_arr)
        .expect("command")
        .iter()
        .map(|c| c.as_str().expect("string"))
        .collect();
    assert!(command.contains(&"rxbench/Cargo.toml") && command.last() == Some(&"--"));

    let workloads = m
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), NAMES.len());
    for (j, name) in workloads.iter().zip(NAMES) {
        let s = spec(name).expect("a real workload");
        assert_eq!(text(j, "name"), name);
        assert_eq!(text(j, "why"), s.why);
        assert!(s.why.len() <= 200 && !s.why.contains('\n'));
    }
    check_metrics(
        m.get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end"),
        &END_TO_END.iter().collect::<Vec<_>>(),
        true,
    );
    check_metrics(
        m.get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer"),
        &traced_metrics(),
        false,
    );
    let setup = &END_TO_END[0];
    assert_eq!(
        (setup.name, setup.unit, setup.better),
        ("setup_s", "s", "lower")
    );
}

/// What a traced run's result holds: the session's non-gating timings and
/// the per-layer metrics.
fn traced_metrics() -> Vec<&'static MetricDef> {
    TIMINGS.iter().chain(&PER_LAYER).collect()
}

/// Runs the binary the way the driver does and returns `(stdout, result)`.
fn session(workload: &str, seed: u64, trace: bool) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_rxbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &DEFAULT_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("rxbench runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e} in `{last}`"));
    (stdout, result)
}

/// The result object holds exactly `catalogue`'s metrics, each printed
/// once by name with its declared unit, and nothing failed.
fn check_result(workload: &str, stdout: &str, result: &Json, catalogue: &[&MetricDef]) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{stdout}");
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert!(stdout.contains("\nops_failed 0\n"));
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    assert_eq!(metrics.len(), catalogue.len(), "{workload}");
    for ((name, m), def) in metrics.iter().zip(catalogue) {
        assert_eq!(name, def.name);
        assert_eq!(text(m, "unit"), def.unit, "{name}");
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
        let printed = stdout
            .lines()
            .filter(|l| {
                let mut words = l.split_whitespace();
                words.next() == Some("metric")
                    && words.next() == Some(def.name)
                    && words.nth(1) == Some(def.unit)
            })
            .count();
        assert_eq!(
            printed, 1,
            "{workload}: `metric {name} … {}` lines",
            def.unit
        );
    }
}

/// The `digest:` line: inputs, outcomes and final state of a session.
fn digest(stdout: &str) -> Option<String> {
    stdout
        .lines()
        .find(|l| l.starts_with("digest:"))
        .map(str::to_owned)
}

#[test]
fn smoke_sessions_print_every_end_to_end_metric_and_repeat_their_counts() {
    for workload in NAMES {
        let (stdout, first) = session(workload, 3, false);
        check_result(
            workload,
            &stdout,
            &first,
            &END_TO_END.iter().collect::<Vec<_>>(),
        );
        for def in &END_TO_END {
            let v = first
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .expect("checked above");
            assert!(v > 0.0, "{workload}: {} is never 0", def.name);
        }
        // The timings are printed for people, marked, and not in the result.
        for def in &TIMINGS {
            let printed = stdout
                .lines()
                .filter(|l| {
                    l.starts_with(&format!("metric {} ", def.name)) && l.ends_with("(non-gating)")
                })
                .count();
            assert_eq!(printed, 1, "{workload}: {} printed once", def.name);
        }
        // Same seed, same inputs: the counts repeat exactly.
        let (again_out, again) = session(workload, 3, false);
        let count = |r: &Json| {
            r.get("metrics")
                .and_then(|m| m.get("wal_bytes_per_update"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(
            count(&first),
            count(&again),
            "{workload}: wal_bytes_per_update"
        );
        assert_eq!(digest(&stdout), digest(&again_out), "{workload}: digest");
        assert_eq!(first.get("attempted"), again.get("attempted"));
    }
}

#[test]
fn smoke_traces_print_every_per_layer_metric_and_write_the_spans() {
    for workload in NAMES {
        let (stdout, result) = session(workload, 4, true);
        check_result(workload, &stdout, &result, &traced_metrics());
        assert!(stdout.contains("NON-GATING"), "conc.* marked non-gating");
        assert!(
            stdout.contains("unattributed"),
            "the ledger states its remainder"
        );
        let sum = stdout
            .lines()
            .find(|l| l.trim_start().starts_with("sum "))
            .expect("the self-time table prints its sum");
        assert!(
            sum.contains("100.00 %"),
            "self times sum to the replay wall: {sum}"
        );
        let dump = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.json"));
        let trace = Json::parse(&std::fs::read_to_string(&dump).expect("trace dump"))
            .expect("trace dump parses");
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(spans.len() > 100, "{workload}: {} spans", spans.len());
        // The concurrent passes commit a fixed number of windows, so a
        // traced run's inputs do not depend on the machine's speed either.
        let (again, _) = session(workload, 4, true);
        assert_eq!(digest(&stdout), digest(&again), "{workload}: traced digest");
    }
}

#[test]
fn usage_errors_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--bogus"][..],
        &["--workload", "uniform_wide", "--seconds", "61"][..],
        &["--workload", "uniform_wide", "--trace", "2"][..],
        &["run", "uniform_wide"][..],
        &[][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rxbench"))
            .args(args)
            .output()
            .expect("rxbench runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
