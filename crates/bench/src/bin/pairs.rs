//! `pairs` — the alternating parent/change protocol behind every
//! `crates/bench/BENCH_<name>.json`, std-only, driving `rxbench` unchanged.
//!
//! ```text
//! pairs run --name <name> --parent <rev> --scratch <dir> --predictions <file>
//!           --unused-seed <N>
//! ```
//!
//! `run` exports the parent revision (`git archive`) and a copy of the
//! working tree's tracked and untracked, not ignored, files into `<dir>`,
//! builds `rxbench` in each into its own target directory, then runs each
//! session from its own checkout root, one process at a time, over the
//! workloads `BENCHMARK.json` lists, at `rxbench`'s default seed and
//! length unless said otherwise: per pair index ([`PAIRS`] of them) every
//! workload once per side, the parent first on even indexes; then one pair
//! per workload at `--unused-seed` — a seed no run used while the change
//! was written — the change first; then the traced pairs — three, or the
//! prediction file's `"traced_pairs"` (3 to 10, [`traced_pairs`]) — the
//! change first on even indexes. Around every run it
//! reads the stolen share of the CPU from `/proc/stat`, and runs a session
//! during which more than 1 % was stolen once more, keeping the second.
//! It parses each session's `metric` lines, digest, oracle and result
//! line (and, traced, the engine ledger block), and writes
//! `crates/bench/BENCH_<name>.json` with the summaries and verdicts
//! [`rxview_bench::pairs`] derives — the prediction file's entries scored.
//! `tests/bench_pairs.rs` re-derives them from every file this tool wrote.

use rxview_bench::pairs::{arr, derive, directions, round, traced_pairs, Json, PAIRS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// A run during which more of the CPU was stolen is run once more.
const QUIET_STEAL: f64 = 0.01;

/// The metrics every traced record keeps, beside those the predictions
/// name.
const TRACED_ALWAYS: [&str; 3] = ["updates_per_s", "ack_p50_ms", "pin_release_ms"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        _ => Err(
            "usage: pairs run --name <name> --parent <rev> --scratch <dir> \
                  --predictions <file> --unused-seed <N>"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pairs: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn sh(script: &str, dir: &Path) -> Result<String, String> {
    let out = Command::new("sh")
        .arg("-c")
        .arg(script)
        .current_dir(dir)
        .output()
        .map_err(|e| format!("{script}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{script}: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The machine's cumulative CPU time and its stolen part, in ticks.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map_while(|f| f.parse().ok())
        .collect();
    Some((fields.get(..8)?.iter().sum(), fields[7]))
}

/// One side of the comparison: its checkout and its `rxbench` binary.
struct Side {
    root: PathBuf,
    bin: PathBuf,
}

/// One `rxbench` session — at `seed`, or the default one — and the seed
/// it ran at, read from its header line; what it printed, parsed into a
/// record.
fn session(
    side: &Side,
    workload: &str,
    seed: Option<u64>,
    traced: Option<&[String]>,
) -> Result<(u64, Json), String> {
    let mut stolen = 0.0;
    let mut out = String::new();
    for attempt in 0..2 {
        let before = cpu_times();
        let ran = Command::new(&side.bin)
            .args(["--workload", workload])
            .args(
                seed.iter()
                    .flat_map(|s| ["--seed".to_owned(), s.to_string()]),
            )
            .args(["--trace", if traced.is_some() { "1" } else { "0" }])
            .current_dir(&side.root)
            .output()
            .map_err(|e| format!("{}: {e}", side.bin.display()))?;
        out = String::from_utf8_lossy(&ran.stdout).into_owned();
        stolen = match (before, cpu_times()) {
            (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        if stolen <= QUIET_STEAL || attempt == 1 {
            break;
        }
        eprintln!(
            "pairs: {:.2} % stolen during a {workload} session, run again",
            100.0 * stolen
        );
    }
    let seed = out
        .lines()
        .find_map(|l| {
            l.split(": seed ")
                .nth(1)?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .ok_or_else(|| format!("{workload}: no header line"))?;
    let result = out
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{workload} seed {seed}: no result line"))?;
    let result = Json::parse(result)?;
    let metric = |name: &str| {
        let m = result.get("metrics")?.get(name)?.get("value")?.as_f64();
        Some(Json::Num(round(m?, 4)))
    };
    let line = |prefix: &str| {
        let l = out.lines().find_map(|l| l.strip_prefix(prefix))?;
        Some(l.trim().to_owned())
    };
    let mut record = vec![("stolen_pct".to_owned(), Json::Num(round(100.0 * stolen, 2)))];
    match traced {
        None => {
            // The result line holds the gating metrics; the `metric` lines
            // every end-to-end one, to four decimals.
            for l in out.lines().filter_map(|l| l.strip_prefix("metric ")) {
                let mut words = l.split_whitespace();
                if let (Some(name), Some(value)) = (words.next(), words.next()) {
                    let value = metric(name).or_else(|| value.parse().ok().map(Json::Num));
                    record.push((name.to_owned(), value.unwrap_or(Json::Null)));
                }
            }
        }
        Some(names) => {
            for name in names {
                record.push((name.clone(), metric(name).unwrap_or(Json::Null)));
            }
            // The engine ledger: seconds per commit phase.
            let ledger = out
                .lines()
                .skip_while(|l| !l.starts_with("engine ledger"))
                .skip(1)
                .take_while(|l| l.starts_with("  "))
                .filter_map(|l| {
                    let mut words = l.split_whitespace();
                    let phase = words.next()?;
                    Some((phase.to_owned(), Json::Num(words.next()?.parse().ok()?)))
                });
            record.push(("ledger".to_owned(), Json::Obj(ledger.collect())));
        }
    }
    record.push((
        "digest".to_owned(),
        Json::Str(line("digest:").unwrap_or_default()),
    ));
    record.push((
        "oracle".to_owned(),
        Json::Str(line("oracle:").unwrap_or_default()),
    ));
    if traced.is_none() {
        let attempted = result.get("attempted").cloned().unwrap_or(Json::Null);
        record.push(("ops_attempted".to_owned(), attempted));
    }
    let failed = result.get("failed").cloned().unwrap_or(Json::Null);
    record.push(("ops_failed".to_owned(), failed));
    let correct = result.get("correct").cloned().unwrap_or(Json::Null);
    record.push(("correct".to_owned(), correct));
    Ok((seed, Json::Obj(record)))
}

/// One pair: both sides at `seed` (the default when `None`), the parent
/// first when `parent_first`.
fn pair(
    sides: [&Side; 2],
    workload: &str,
    seed: Option<u64>,
    parent_first: bool,
    traced: Option<&[String]>,
) -> Result<Json, String> {
    let [parent, change] = sides;
    let run = |side: &Side| session(side, workload, seed, traced);
    let ((seed, p), (_, c)) = if parent_first {
        let p = run(parent)?;
        (p, run(change)?)
    } else {
        let c = run(change)?;
        (run(parent)?, c)
    };
    eprintln!(
        "pairs: {workload} seed {seed}: {} / {}",
        p.get("peak_rss_mb")
            .or(p.get("updates_per_s"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
        c.get("peak_rss_mb")
            .or(c.get("updates_per_s"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
    );
    Ok(Json::obj([
        ("seed", Json::Num(seed as f64)),
        (
            "first",
            Json::Str(if parent_first { "parent" } else { "change" }.into()),
        ),
        ("parent", p),
        ("change", c),
    ]))
}

fn run(args: &[String]) -> Result<(), String> {
    let need = |name| flag(args, name).ok_or_else(|| format!("{name} is required"));
    let (name, rev) = (need("--name")?, need("--parent")?);
    let scratch = PathBuf::from(need("--scratch")?);
    let predictions = read(Path::new(need("--predictions")?))?;
    let n_traced = traced_pairs(&predictions)?;
    let unused_seed = need("--unused-seed")?;
    let unused_seed: u64 = unused_seed
        .parse()
        .map_err(|_| format!("--unused-seed: `{unused_seed}`"))?;

    let root = PathBuf::from(sh("git rev-parse --show-toplevel", Path::new("."))?);
    let benchmark = read(&root.join("BENCHMARK.json"))?;
    let dirs = directions(&benchmark);
    let workloads: Vec<String> = arr(benchmark.get("workloads"))
        .iter()
        .filter_map(|w| Some(w.get("name")?.as_str()?.to_owned()))
        .collect();
    let parent_desc = sh(&format!("git log -1 --format=%h {rev}"), &root)?;
    let mut sides = Vec::new();
    for (side, export) in [
        ("parent", format!("git archive {rev} | tar -x -C {{dir}}")),
        (
            "change",
            "git ls-files -co --exclude-standard -z | xargs -0 tar -cf - | tar -x -C {dir}".into(),
        ),
    ] {
        let dir = scratch.join(side);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        sh(&export.replace("{dir}", &dir.display().to_string()), &root)?;
        let target = scratch.join(format!("target-{side}"));
        eprintln!("pairs: building {side} rxbench in {}", target.display());
        let built = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--quiet",
                "--manifest-path",
                "rxbench/Cargo.toml",
            ])
            .env("CARGO_TARGET_DIR", &target)
            .current_dir(&dir)
            .status()
            .map_err(|e| format!("cargo: {e}"))?;
        if !built.success() {
            return Err(format!("the {side} rxbench does not build"));
        }
        sides.push(Side {
            root: dir,
            bin: target.join("release").join("rxbench"),
        });
    }
    let sides = [&sides[0], &sides[1]];

    let mut traced_metrics: Vec<String> = TRACED_ALWAYS.iter().map(|m| m.to_string()).collect();
    for p in arr(predictions.get("predictions")) {
        if p.get("runs").and_then(Json::as_str) == Some("traced") {
            if let Some(m) = p.get("metric").and_then(Json::as_str) {
                if !traced_metrics.iter().any(|t| t == m) {
                    traced_metrics.push(m.to_owned());
                }
            }
        }
    }

    // Per workload: the seed pairs, the unused-seed pair, the traced pairs.
    let mut runs: Vec<[Vec<Json>; 3]> = workloads.iter().map(|_| Default::default()).collect();
    for i in 0..PAIRS {
        for (w, runs) in workloads.iter().zip(&mut runs) {
            runs[0].push(pair(sides, w, None, i % 2 == 0, None)?);
        }
    }
    for (w, runs) in workloads.iter().zip(&mut runs) {
        runs[1].push(pair(sides, w, Some(unused_seed), false, None)?);
    }
    for i in 0..n_traced {
        for (w, runs) in workloads.iter().zip(&mut runs) {
            let traced = Some(&traced_metrics[..]);
            runs[2].push(pair(sides, w, None, i % 2 == 1, traced)?);
        }
    }
    let per_workload = workloads
        .iter()
        .zip(runs)
        .map(|(w, [pairs, unused, traced])| {
            let unused = unused.into_iter().next().unwrap_or(Json::Null);
            let record = [
                ("pairs", Json::Arr(pairs)),
                ("unused_seed", unused),
                ("traced", Json::Arr(traced)),
            ];
            (w.clone(), Json::obj(record))
        });

    let mut file = Json::obj([
        ("generator", Json::Str("pairs".into())),
        (
            "bench",
            Json::Str(format!(
                "rxbench, {PAIRS} alternating parent/change pairs per workload at its default \
                 seed (untraced), one pair per workload at an unused seed ({unused_seed}), \
                 {n_traced} traced pairs per workload at the default seed"
            )),
        ),
        ("traced_pairs", Json::Num(n_traced as f64)),
        ("parent", Json::Str(parent_desc)),
        (
            "change",
            predictions
                .get("change")
                .cloned()
                .unwrap_or(Json::Str("the working tree".into())),
        ),
        (
            "claim",
            predictions.get("claim").cloned().unwrap_or(Json::Null),
        ),
        (
            "protocol",
            Json::Str(format!(
                "Written by `pairs run` (crates/bench/src/bin/pairs.rs). The parent exported with \
                 `git archive {rev}`, the change a copy of the working tree's tracked and \
                 untracked, not ignored, files; each built once with `cargo build --release \
                 --manifest-path rxbench/Cargo.toml` into its own target directory, each session \
                 `rxbench --workload <w> [--seed <unused seed>] --trace <0|1>` (its default \
                 length) started from its own checkout root, one process at a time. Untraced: workloads \
                 interleaved inside a pair index, the parent first on even indexes (`first`); \
                 then one pair per workload at the unused seed, the change first; then the traced \
                 pairs, the change first on even indexes. `stolen_pct` is the share of the \
                 machine's CPU time /proc/stat reports stolen during the run; a run above 1 % is \
                 run once more and the second kept."
            )),
        ),
        (
            "noise_floor",
            Json::Str(
                "The parent's interquartile distance per metric (`parent_iqr`); a win is counted \
                 per pair, ties count for neither side; quartiles are inclusive-method quartiles."
                    .into(),
            ),
        ),
        ("workloads", Json::Obj(per_workload.collect())),
        (
            "predictions",
            predictions
                .get("predictions")
                .cloned()
                .unwrap_or(Json::Arr(Vec::new())),
        ),
    ]);
    derive(&mut file, &dirs);
    let path = root.join("crates/bench").join(format!("BENCH_{name}.json"));
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    for v in arr(file.get("verdicts")) {
        eprintln!(
            "pairs: {} — {}",
            v.get("verdict").and_then(Json::as_str).unwrap_or_default(),
            v.get("prediction")
                .and_then(Json::as_str)
                .unwrap_or_default()
        );
    }
    println!("{}", path.display());
    Ok(())
}
