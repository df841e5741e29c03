//! A ratchet for the top-level docs (ROADMAP item 11(a)): ARCHITECTURE.md's
//! size, its sections titled by PR number and its stub sections are pinned
//! and only go down — a change that adds prose removes as much elsewhere,
//! and one that removes more lowers the pin — every `crates/…` path that
//! ARCHITECTURE.md, README.md or ROADMAP.md cites exists, so a change that
//! deletes or moves a file cannot leave a citation of it behind, every
//! `*.md` file an inner doc comment (`//!`) under `src/` or `crates/` names
//! exists, every ROADMAP item cited in code or docs is one ROADMAP.md
//! lists, and every metric name ARCHITECTURE.md §6 cites is one the engine
//! exports.

use rxview::atg::{registrar_atg, registrar_database};
use rxview::prelude::{Engine, XmlViewSystem};
use std::path::Path;

/// ARCHITECTURE.md's size in bytes.
const ARCHITECTURE_BYTES: usize = 89_632;

/// ARCHITECTURE.md's `## ` sections titled by PR number ("…, PR 8: …").
const PR_TITLED_SECTIONS: usize = 1;

/// ARCHITECTURE.md's `## ` sections with fewer than three lines of body —
/// a pointer to another section, not a description.
const STUB_SECTIONS: usize = 0;

const CITING: [&str; 3] = ["ARCHITECTURE.md", "README.md", "ROADMAP.md"];

/// Where ROADMAP items are cited besides [`CITING`]: every `.rs` / `.md`
/// file under these directories. CHANGES.md is history and is not read.
const ITEM_CITING_DIRS: [&str; 2] = ["crates", "tests"];

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

/// ARCHITECTURE.md's `## ` sections: title and non-blank body lines.
fn sections(text: &str) -> Vec<(&str, usize)> {
    let mut out: Vec<(&str, usize)> = Vec::new();
    for line in text.lines() {
        if let Some(title) = line.strip_prefix("## ") {
            out.push((title, 0));
        } else if let Some(last) = out.last_mut() {
            last.1 += usize::from(!line.trim().is_empty());
        }
    }
    out
}

/// Whether a section title names a PR: "PR" followed by a number.
fn titled_by_pr(title: &str) -> bool {
    title
        .match_indices("PR ")
        .any(|(at, _)| title[at + 3..].starts_with(|c: char| c.is_ascii_digit()))
}

#[test]
fn architecture_sections_by_pr_and_stubs_only_go_down() {
    let text = std::fs::read_to_string(root().join("ARCHITECTURE.md")).unwrap();
    let sections = sections(&text);
    assert!(sections.len() > 10, "only {} sections", sections.len());
    let count = |keep: &dyn Fn(&(&str, usize)) -> bool| {
        let hits: Vec<&str> = sections.iter().filter(|s| keep(s)).map(|s| s.0).collect();
        (hits.len(), hits)
    };
    for (what, pin, (found, titles)) in [
        (
            "sections titled by PR number",
            PR_TITLED_SECTIONS,
            count(&|s| titled_by_pr(s.0)),
        ),
        ("stub sections", STUB_SECTIONS, count(&|s| s.1 < 3)),
    ] {
        assert!(
            found <= pin,
            "ARCHITECTURE.md gained {what}: {found} > {pin} ({titles:?})"
        );
        assert!(
            found == pin,
            "ARCHITECTURE.md has {found} {what}: lower its pin from {pin}"
        );
    }
}

/// The number `s` starts with, and what follows it.
fn leading_number(s: &str) -> Option<(u32, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// The item numbers ROADMAP.md lists: each numbered item (`N. **…`) and
/// each entry of its "Closed so far" list (`- N (…`).
fn listed_items(roadmap: &str) -> Vec<u32> {
    roadmap
        .lines()
        .filter_map(|line| match leading_number(line) {
            Some((n, rest)) if rest.starts_with(". **") => Some(n),
            _ => match leading_number(line.strip_prefix("- ")?) {
                Some((n, rest)) if rest.starts_with(" (") => Some(n),
                _ => None,
            },
        })
        .collect()
}

/// The ROADMAP item numbers a line cites: `ROADMAP item N…` and
/// `ROADMAP N(x)`.
fn cited_items(line: &str) -> Vec<u32> {
    line.match_indices("ROADMAP ")
        .filter_map(|(at, m)| {
            let rest = &line[at + m.len()..];
            let rest = rest.strip_prefix("item ").unwrap_or(rest);
            Some(leading_number(rest)?.0)
        })
        .collect()
}

/// Every `.rs` and `.md` file under `dir`, `target` directories skipped.
fn text_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                text_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "md") {
            out.push(path);
        }
    }
}

#[test]
fn every_cited_roadmap_item_is_listed() {
    let listed = listed_items(&std::fs::read_to_string(root().join("ROADMAP.md")).unwrap());
    assert!(listed.len() > 15, "only {} items listed", listed.len());
    let mut files: Vec<_> = CITING.iter().map(|f| root().join(f)).collect();
    for dir in ITEM_CITING_DIRS {
        text_files(&root().join(dir), &mut files);
    }
    let (mut checked, mut unlisted) = (0, Vec::new());
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for (n, line) in text.lines().enumerate() {
            for item in cited_items(line) {
                checked += 1;
                if !listed.contains(&item) {
                    let name = file.strip_prefix(root()).unwrap().display();
                    unlisted.push(format!("{name}:{}: item {item}", n + 1));
                }
            }
        }
    }
    assert!(checked > 20, "only {checked} item citations found");
    assert!(
        unlisted.is_empty(),
        "ROADMAP items cited but not listed:\n{}",
        unlisted.join("\n")
    );
}

#[test]
fn items_and_sections_are_read_as_written() {
    assert_eq!(
        cited_items("(ROADMAP item 6a; ROADMAP 4(h), ROADMAP's x, ROADMAP item)"),
        [6, 4]
    );
    assert_eq!(
        listed_items("1. **A.**\n2. x\n- 5 (done);\n- 18 (a) and 19 (b)\n17. **B.**"),
        [1, 5, 18, 17]
    );
    assert!(titled_by_pr("8. Compiled update plans, PR 8: a cache"));
    assert!(!titled_by_pr("11. Evaluation cost model: PRs"));
    assert_eq!(
        sections("# A\n## 1. x\n\none\ntwo\n## 2. y\n"),
        [("1. x", 2), ("2. y", 0)]
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

/// The `*.md` files a line names: each run of path characters that ends in
/// `.md` and has a name before it.
fn md_files(line: &str) -> Vec<&str> {
    let in_path = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    line.match_indices(".md")
        .filter(|&(at, _)| !line[at + 3..].starts_with(|c: char| in_path(c) && c != '.'))
        .map(|(at, _)| &line[line[..at].trim_end_matches(in_path).len()..at + 3])
        .filter(|name| name.len() > 3)
        .collect()
}

/// Every line of the `.rs` files under `src/` and `crates/` — inner docs,
/// comments and string literals alike — names only `*.md` files that exist.
#[test]
fn every_md_file_an_inner_doc_names_exists() {
    let mut files = Vec::new();
    for dir in ["src", "crates"] {
        text_files(&root().join(dir), &mut files);
    }
    let (mut checked, mut missing) = (0, Vec::new());
    for file in files
        .iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs"))
    {
        let text = std::fs::read_to_string(file).unwrap();
        for (n, line) in text.lines().enumerate() {
            for name in md_files(line) {
                checked += 1;
                if !root().join(name).exists() {
                    let file = file.strip_prefix(root()).unwrap().display();
                    missing.push(format!("{file}:{}: {name}", n + 1));
                }
            }
        }
    }
    assert!(checked > 5, "only {checked} `*.md` names found");
    assert!(
        missing.is_empty(),
        "`*.md` files named in source lines that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn citations_are_read_as_written() {
    assert_eq!(
        md_files("//! See DESIGN.md, `crates/x/README.md`. Not *.md, a.mdx or b.md_x."),
        ["DESIGN.md", "crates/x/README.md"]
    );
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

/// The text of ARCHITECTURE.md's section `## {number}` up to the next one.
fn section(text: &str, number: &str) -> String {
    let start = text.find(&format!("\n## {number} ")).unwrap() + 1;
    let body = &text[start..];
    body[..body[3..].find("\n## ").map_or(body.len(), |end| end + 3)].to_owned()
}

/// Each alternative of a path's first `{a, b}` group, recursively.
fn expand(name: &str) -> Vec<String> {
    match (name.find('{'), name.find('}')) {
        (Some(open), Some(close)) if open < close => name[open + 1..close]
            .split(',')
            .flat_map(|alt| {
                expand(&format!(
                    "{}{}{}",
                    &name[..open],
                    alt.trim(),
                    &name[close + 1..]
                ))
            })
            .collect(),
        _ => vec![name.to_owned()],
    }
}

/// The metric names a text cites: every backticked span shaped like a
/// dotted name — lower-case words joined by dots, `{a, b}` groups allowed,
/// spanning lines or not — each group expanded. A span with any other
/// character (a path, a call, a pattern) names no metric. The flight
/// recorder's bullet names events, not metrics, and is skipped.
fn metric_names(text: &str) -> Vec<String> {
    let shaped = |span: &str| {
        let word = |w: &str| {
            !w.is_empty()
                && w.chars()
                    .all(|c| c.is_ascii_lowercase() || "_{}, ".contains(c) || c.is_ascii_digit())
        };
        span.contains('.') && span.split('.').all(word)
    };
    let mut names = Vec::new();
    for block in text
        .split("\n- ")
        .filter(|b| !b.starts_with("**Flight recorder**"))
    {
        for span in block.split('`').skip(1).step_by(2) {
            let span = span.split_whitespace().collect::<Vec<_>>().join(" ");
            if shaped(&span) {
                names.extend(expand(&span));
            }
        }
    }
    names
}

#[test]
fn every_metric_architecture_section_6_names_is_exported() {
    let text = std::fs::read_to_string(root().join("ARCHITECTURE.md")).unwrap();
    let cited = metric_names(&section(&text, "6."));
    let db = registrar_database();
    let engine = Engine::new(XmlViewSystem::new(registrar_atg(&db).unwrap(), db).unwrap());
    let exported: Vec<&str> = engine
        .stats()
        .metrics()
        .iter()
        .map(|&(name, _)| name)
        .collect();
    assert!(
        cited.len() >= 10,
        "only {} metric names found: {cited:?}",
        cited.len()
    );
    let unknown: Vec<&String> = cited
        .iter()
        .filter(|n| !exported.contains(&n.as_str()))
        .collect();
    assert!(
        unknown.is_empty(),
        "ARCHITECTURE.md §6 names metrics EngineStats::metrics() does not export: {unknown:?}"
    );
}

#[test]
fn metric_names_are_read_as_written() {
    let text = "x\n- **A** `wal.syncs` and `state.{base_rows,\n  m_pairs}`, `stats.rounds.incr()`,\n  \
                `engine/src/stats.rs`, `obs::Exporter`, `recovery.*`, `a.{b,c}.{d, e}`, `RXVIEW_X`\n\
                - **Flight recorder** `round.committed`";
    assert_eq!(
        metric_names(text),
        [
            "wal.syncs",
            "state.base_rows",
            "state.m_pairs",
            "a.b.d",
            "a.b.e",
            "a.c.d",
            "a.c.e"
        ]
    );
    assert_eq!(
        section("# T\n## 5. a\nx\n## 6. b\ny\n## 7. c\n", "6."),
        "## 6. b\ny"
    );
}
