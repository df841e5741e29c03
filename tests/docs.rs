//! A ratchet for the top-level docs (ROADMAP item 11(a)): ARCHITECTURE.md's
//! size is pinned and only goes down — a change that adds prose removes as
//! much elsewhere, and one that removes more lowers the pin — and every
//! `crates/…` path that ARCHITECTURE.md, README.md or ROADMAP.md cites
//! exists, so a change that deletes or moves a file cannot leave a citation
//! of it behind.

use std::path::Path;

/// ARCHITECTURE.md's size in bytes.
const ARCHITECTURE_BYTES: usize = 93_236;

const CITING: [&str; 3] = ["ARCHITECTURE.md", "README.md", "ROADMAP.md"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn architecture_md_only_shrinks() {
    let bytes = std::fs::read(root().join("ARCHITECTURE.md")).unwrap().len();
    assert!(
        bytes <= ARCHITECTURE_BYTES,
        "ARCHITECTURE.md grew to {bytes} B past its {ARCHITECTURE_BYTES} B: remove as much as it adds"
    );
    assert!(
        bytes == ARCHITECTURE_BYTES,
        "ARCHITECTURE.md shrank to {bytes} B: lower its pin from {ARCHITECTURE_BYTES}"
    );
}

/// The `crates/…` paths a line cites: each run of path characters that
/// starts a word with `crates/`, trailing punctuation dropped.
fn cited(line: &str) -> Vec<&str> {
    let in_path = |c: char| c.is_ascii_alphanumeric() || "_-./<>*{},".contains(c);
    let mut paths = Vec::new();
    for (at, _) in line.match_indices("crates/") {
        let before = line[..at].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric() || "_-./".contains(c)) {
            continue;
        }
        let rest = &line[at..];
        let end = rest.find(|c| !in_path(c)).unwrap_or(rest.len());
        paths.push(rest[..end].trim_end_matches(['.', ',']));
    }
    paths
}

/// What a cited path must name to exist: each alternative of a `{a,b}`
/// group, and for a pattern (`*`, `<name>`) the directory it lies in.
fn must_exist(path: &str) -> Vec<String> {
    if let Some(pattern) = path.find(['*', '<']) {
        return vec![path[..path[..pattern].rfind('/').map_or(0, |i| i + 1)].to_owned()];
    }
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .flat_map(|alt| must_exist(&format!("{}{alt}{}", &path[..open], &path[close + 1..])))
            .collect(),
        _ => vec![path.to_owned()],
    }
}

#[test]
fn every_cited_crate_path_exists() {
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in CITING {
        let text = std::fs::read_to_string(root().join(doc)).unwrap();
        for (n, line) in text.lines().enumerate() {
            for path in cited(line).into_iter().flat_map(must_exist) {
                checked += 1;
                if !root().join(&path).exists() {
                    missing.push(format!("{doc}:{}: {path}", n + 1));
                }
            }
        }
    }
    assert!(checked > 50, "only {checked} citations found");
    assert!(
        missing.is_empty(),
        "cited paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn citations_are_read_as_written() {
    assert_eq!(
        cited("(`crates/engine/src/wal.rs`, see crates/core.) and xcrates/no"),
        ["crates/engine/src/wal.rs", "crates/core"]
    );
    assert_eq!(
        must_exist("crates/bench/BENCH_{a,b}.json"),
        ["crates/bench/BENCH_a.json", "crates/bench/BENCH_b.json"]
    );
    assert_eq!(
        must_exist("crates/bench/BENCH_<name>.json"),
        ["crates/bench/"]
    );
    assert_eq!(must_exist("crates/shims/*"), ["crates/shims/"]);
}
