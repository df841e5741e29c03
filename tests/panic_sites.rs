//! Ratchets on what production code may do, each read from the code before a
//! file's `mod tests`, comments removed, the way `tests/public_api.rs` reads
//! a crate root:
//!
//! - the engine's panic sites (ROADMAP item 6(b)): a failed disk write or a
//!   poisoned lock should surface as an error, not a panic. This pins, per
//!   file of `crates/engine/src`, how many `.expect(`, `.unwrap()`, `panic!`
//!   and `unreachable!` it holds. A file that gains a site fails; a file that
//!   loses one fails until its pin is lowered, so the count only goes down;
//! - no production crate reads the environment, so a variable cannot change
//!   what a run does without its command line showing it;
//! - the engine starts one thread of its own, the checkpointer;
//! - no serving source holds or maintains the reachability matrix `M`: a
//!   line of the engine's sources or of core's commit, evaluation and load
//!   path that names `Reachability` or `ReachBatch` must cite ROADMAP 4(h),
//!   the `rxbench` surface kept until then.

use std::path::Path;

/// Files of `crates/engine/src` with a panic site, and how many; every other
/// file has none. The one left is the commit lock (a panic mid-round leaves
/// the working state half applied).
const PINNED: [(&str, usize); 1] = [("engine.rs", 1)];

const SITES: [&str; 4] = [".expect(", ".unwrap()", "panic!", "unreachable!"];

/// The production crates (CI's reference-boundary step lists the same
/// seven).
const PRODUCTION: [&str; 7] = [
    "atg",
    "core",
    "engine",
    "relstore",
    "satsolver",
    "workload",
    "xmlkit",
];

/// What reads an environment variable: `std::env::{var, var_os, vars,
/// vars_os}`, however the path is imported.
const ENV_READS: [&str; 1] = ["env::var"];

/// What starts a thread.
const SPAWNS: [&str; 2] = ["thread::spawn", "thread::Builder"];

/// The one file of `crates/engine/src` that may start a thread.
const SPAWNING: &str = "checkpoint.rs";

/// The files of `crates/core/src` an update, a read or a checkpoint load
/// runs through, beside the whole engine.
const SERVING_CORE: [&str; 5] = [
    "codec.rs",
    "maintain.rs",
    "pathclass.rs",
    "plan.rs",
    "processor.rs",
];

/// The names of the stored closure and of its maintenance's buffers.
const CLOSURE: [&str; 2] = ["Reachability", "ReachBatch"];

/// `src` before its `mod tests`, `//` comments removed.
fn production(src: &str) -> String {
    let code: Vec<&str> = src
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect();
    let code = code.join("\n");
    code[..code.find("mod tests {").unwrap_or(code.len())].to_owned()
}

/// How often the production code of `src` holds any of `needles`.
fn count(src: &str, needles: &[&str]) -> usize {
    let code = production(src);
    needles.iter().map(|s| code.matches(s).count()).sum()
}

/// Every `.rs` file under `crates/<krate>/src`, by its path relative to
/// that directory, in name order.
fn crate_sources(krate: &str) -> Vec<(String, String)> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates")
        .join(krate)
        .join("src");
    let mut files = Vec::new();
    sources(&src, &src, &mut files);
    files.sort();
    files
}

/// Every `.rs` file under `dir`, by its path relative to `root`.
fn sources(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let name = path.strip_prefix(root).unwrap().to_string_lossy();
            out.push((
                name.replace('\\', "/"),
                std::fs::read_to_string(&path).unwrap(),
            ));
        }
    }
}

#[test]
fn engine_panic_sites_only_go_down() {
    let files = crate_sources("engine");
    let mut wrong = Vec::new();
    for (name, text) in &files {
        let found = count(text, &SITES);
        let pinned = PINNED.iter().find(|(f, _)| f == name).map_or(0, |p| p.1);
        if found > pinned {
            wrong.push(format!("{name} gained a panic site: {found} > {pinned}"));
        } else if found < pinned {
            wrong.push(format!(
                "{name} has {found} panic sites: lower its pin from {pinned}"
            ));
        }
    }
    for (name, _) in PINNED {
        assert!(files.iter().any(|(f, _)| f == name), "no file {name}");
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn no_production_crate_reads_the_environment() {
    let mut wrong = Vec::new();
    for krate in PRODUCTION {
        let files = crate_sources(krate);
        assert!(!files.is_empty(), "no sources for crate {krate}");
        for (name, text) in &files {
            let found = count(text, &ENV_READS);
            if found > 0 {
                wrong.push(format!(
                    "crates/{krate}/src/{name} reads the environment {found}×"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn only_the_checkpointer_starts_an_engine_thread() {
    let files = crate_sources("engine");
    let wrong: Vec<String> = files
        .iter()
        .filter(|(name, text)| name != SPAWNING && count(text, &SPAWNS) > 0)
        .map(|(name, _)| format!("crates/engine/src/{name} starts a thread"))
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    let (_, checkpointer) = files
        .iter()
        .find(|(name, _)| name == SPAWNING)
        .expect("the checkpointer's file");
    assert_eq!(
        count(checkpointer, &SPAWNS),
        1,
        "{SPAWNING} starts one thread"
    );
}

#[test]
fn no_serving_source_names_the_stored_closure() {
    let core = crate_sources("core");
    let serving: Vec<_> = core
        .iter()
        .filter(|(name, _)| SERVING_CORE.contains(&name.as_str()))
        .map(|(name, text)| (format!("crates/core/src/{name}"), text))
        .collect();
    assert_eq!(serving.len(), SERVING_CORE.len(), "a serving file is gone");
    let engine = crate_sources("engine");
    let engine = engine
        .iter()
        .map(|(name, text)| (format!("crates/engine/src/{name}"), text));
    let mut wrong = Vec::new();
    for (name, text) in serving.into_iter().chain(engine) {
        let code = &text[..text.find("mod tests {").unwrap_or(text.len())];
        for line in code.lines() {
            let names = CLOSURE
                .iter()
                .any(|c| line.split("//").next().unwrap_or("").contains(c));
            if names && !line.contains("ROADMAP 4(h)") {
                wrong.push(format!("{name}: {}", line.trim()));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "serving code names the stored closure:\n{}",
        wrong.join("\n")
    );
}
