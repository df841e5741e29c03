//! The command line: one session in the acceptance driver's flag form
//! (`--workload W --seed N --seconds S --trace 0|1`), and the subcommands
//! `verify`, `calibrate` and `manifest`.

use crate::calibrate::{calibrate, calibrated_bound};
use crate::catalogue::{MetricDef, END_TO_END, PER_LAYER, TIMINGS};
use crate::json::Json;
use crate::session::{self, Options, Outcome};
use crate::verify::{compare, verify, Expected};
use crate::workloads::{spec, DEFAULT_SECONDS, DEFAULT_SEED, MAX_SECONDS, NAMES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  rxbench --workload <name> [--seed N] [--seconds 1..60] [--trace 0|1] [--smoke]
                              one session: --trace 0 the gating measurement,
                              --trace 1 the traced, per-layer run
  rxbench verify [<name>]     replay through the oracle, write expected/
  rxbench calibrate           10 runs per workload, twice; write CALIBRATION.json
  rxbench manifest            print BENCHMARK.json from the catalogue
workloads: uniform_wide, skew_sharded, paper_classes";

/// The benchmark's own directory: `rxbench/` under the current directory
/// when run from a checkout's root (as the driver does), else where the
/// package was built.
fn home() -> PathBuf {
    let here = PathBuf::from("rxbench");
    if here.join("Cargo.toml").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

struct Args {
    /// `None`: measure one session.
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    if it.peek().is_some_and(|first| !first.starts_with("--")) {
        args.command = it.next().cloned();
        if it.peek().is_some_and(|next| !next.starts_with("--")) {
            args.workload = it.next().cloned();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        let number = |v: String, range: std::ops::RangeInclusive<u64>| {
            v.parse::<u64>()
                .ok()
                .filter(|n| range.contains(n))
                .ok_or_else(|| {
                    format!(
                        "{flag}: `{v}` is not a number in {}..={}",
                        range.start(),
                        range.end()
                    )
                })
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(value("a number")?, 0..=u64::MAX)?,
            "--seconds" => args.seconds = number(value("a number")?, 1..=MAX_SECONDS)?,
            "--trace" => args.trace = number(value("0 or 1")?, 0..=1)? == 1,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Entry point of the `rxbench` binary.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rxbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_deref() {
        None => measure(&args),
        Some("verify") => {
            let names: Vec<&str> = match args.workload.as_deref() {
                None => NAMES.to_vec(),
                Some(one) => vec![one],
            };
            names.into_iter().try_for_each(|name| {
                let spec = spec(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                verify(
                    spec,
                    DEFAULT_SEED,
                    DEFAULT_SECONDS,
                    &home().join("out"),
                    &home().join("expected"),
                )
            })
        }
        Some("calibrate") => calibrate(DEFAULT_SECONDS, &home().join("CALIBRATION.json")),
        Some("manifest") => manifest().map(|m| print!("{}", m.pretty())),
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rxbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn measure(args: &Args) -> Result<(), String> {
    let name = args
        .workload
        .as_deref()
        .ok_or_else(|| format!("no workload given\n{USAGE}"))?;
    let full = spec(name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
    let sized = if args.smoke {
        full.smoke()
    } else {
        full.scaled(args.seconds as f64 / DEFAULT_SECONDS as f64)
    };
    let sized = if args.trace { sized.traced() } else { sized };
    println!(
        "rxbench {name}: seed {} seconds {} trace {} smoke {} ({} groups, window {}, {} session updates, {} cores)",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        sized.groups,
        sized.window,
        sized.session_updates(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut outcome = session::run(&Options {
        spec: sized,
        seed: args.seed,
        trace: args.trace,
        out_dir: home().join("out"),
        keep_ops: false,
    });

    // The checked-in oracle covers the default seed at the default size.
    let oracle = match Expected::load(&home().join("expected"), name) {
        Some(e)
            if !args.smoke && !args.trace && (e.seed, e.seconds) == (args.seed, args.seconds) =>
        {
            let diffs = compare(&outcome.digest, &e.digest);
            outcome.failed += diffs.len() as u64;
            let verdict = if diffs.is_empty() {
                "matches"
            } else {
                "DIFFERS"
            };
            outcome.problems.extend(diffs);
            format!("{verdict} expected/{name}.json")
        }
        Some(_) => {
            "not applicable (expected/ covers the default seed, size and untraced run)".into()
        }
        None => format!("no expected/{name}.json"),
    };
    print_outcome(&outcome, args.trace, &oracle)
}

fn print_outcome(outcome: &Outcome, trace: bool, oracle: &str) -> Result<(), String> {
    for line in &outcome.report {
        println!("{line}");
    }
    // What the result object holds: the gating metrics, or the traced run's
    // non-gating ones. An untraced run prints its timings too, for people.
    let (wanted, also): (Vec<&MetricDef>, &[MetricDef]) = if trace {
        (TIMINGS.iter().chain(&PER_LAYER).collect(), &[])
    } else {
        (END_TO_END.iter().collect(), &TIMINGS)
    };
    let value_of = |def: &MetricDef| {
        outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {} was not measured", def.name))
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for def in wanted {
        let value = value_of(def)?;
        println!("metric {:<38} {value:>16.4} {}", def.name, def.unit);
        metrics.push((
            def.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.into())),
            ]),
        ));
    }
    for def in also {
        println!(
            "metric {:<38} {:>16.4} {} (non-gating)",
            def.name,
            value_of(def)?,
            def.unit
        );
    }
    let d = &outcome.digest;
    println!(
        "digest: {} updates (stream {}), {} accepted (bitmap {}), edges {}, base {}",
        d.ops, d.stream_hash, d.accepted, d.accept_hash, d.edge_hash, d.base_hash
    );
    println!("oracle: {oracle}");
    for p in &outcome.problems {
        println!("problem: {p}");
    }
    println!("ops_attempted {}", outcome.attempted);
    println!("ops_failed {}", outcome.failed);
    let correct = outcome.failed == 0;
    println!("correct {correct}");
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    );
    Ok(())
}

/// `BENCHMARK.json`, from the catalogue and (if present) the calibration.
fn manifest() -> Result<Json, String> {
    let calibration = home().join("CALIBRATION.json");
    let workloads = NAMES.iter().map(|n| {
        let s = spec(n).expect("NAMES lists real workloads");
        Json::obj([
            ("name", Json::Str(s.name.into())),
            ("why", Json::Str(s.why.into())),
        ])
    });
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Ok(Json::obj([
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(m.better.into())),
                ("bound", Json::Num(calibrated_bound(&calibration, m)?)),
            ]))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let per_layer = TIMINGS.iter().chain(&PER_LAYER).map(|m| {
        Json::obj([
            ("name", Json::Str(m.name.into())),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(m.better.into())),
        ])
    });
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "rxbench/Cargo.toml",
        "--",
    ];
    Ok(Json::obj([
        (
            "command",
            Json::Arr(command.map(|c| Json::Str(c.into())).to_vec()),
        ),
        ("paths", Json::Arr(vec![Json::Str("rxbench".into())])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS as f64)),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer.collect())),
    ]))
}
