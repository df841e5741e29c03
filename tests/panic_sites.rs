//! A ratchet for the engine's panic sites (ROADMAP item 6(b)): a failed disk
//! write or a poisoned lock should surface as an error, not a panic. This pins,
//! per file of `crates/engine/src`, how many `.expect(`, `.unwrap()`, `panic!`
//! and `unreachable!` its production code holds — the code before its
//! `mod tests`, comments removed, read the way `tests/public_api.rs` reads a
//! crate root. A file that gains a site fails; a file that loses one fails
//! until its pin is lowered, so the count only goes down.

use std::path::Path;

/// Files of `crates/engine/src` with a panic site, and how many; every other
/// file has none. The one left is the commit lock (a panic mid-round leaves
/// the working state half applied).
const PINNED: [(&str, usize); 1] = [("engine.rs", 1)];

const SITES: [&str; 4] = [".expect(", ".unwrap()", "panic!", "unreachable!"];

/// The panic sites in `src` before its `mod tests`, `//` comments removed.
fn panic_sites(src: &str) -> usize {
    let code: Vec<&str> = src
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect();
    let code = code.join("\n");
    let production = &code[..code.find("mod tests {").unwrap_or(code.len())];
    SITES.iter().map(|s| production.matches(s).count()).sum()
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
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/engine/src");
    let mut files = Vec::new();
    sources(&src, &src, &mut files);
    files.sort();
    let mut wrong = Vec::new();
    for (name, text) in &files {
        let found = panic_sites(text);
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
