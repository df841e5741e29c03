//! The production crates ship one implementation per paper step: the
//! paper's transcriptions live in `rxview-reference`, which each of them may
//! list under `[dev-dependencies]` and nowhere else. This reads their
//! manifests (no `cargo` subprocess).

const PRODUCTION: &str = "atg core engine relstore satsolver xmlkit workload";

/// The TOML table of each mention of `rxview-reference` in `manifest`: as a
/// key (`rxview-reference = ...`), a dotted header
/// (`[dependencies.rxview-reference]`) or a renamed package.
fn tables_naming_reference(manifest: &str) -> Vec<String> {
    let (mut table, mut found) = (String::new(), Vec::new());
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let key = line
            .split('=')
            .next()
            .unwrap_or("")
            .trim()
            .trim_matches('"');
        if let Some(header) = line.strip_prefix('[') {
            table = header.trim_end_matches(']').trim().to_owned();
            if let Some(outer) = table.strip_suffix(".rxview-reference") {
                found.push(outer.to_owned());
            }
        } else if key == "rxview-reference" || line.contains("package = \"rxview-reference\"") {
            found.push(table.clone());
        }
    }
    found
}

#[test]
fn production_crates_take_the_reference_only_as_a_dev_dependency() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for name in PRODUCTION.split(' ') {
        let path = root.join("crates").join(name).join("Cargo.toml");
        let tables = tables_naming_reference(&std::fs::read_to_string(path).unwrap());
        let dev_only = tables.iter().all(|t| t == "dev-dependencies");
        assert!(dev_only, "crates/{name} lists it under {tables:?}");
        // `core`'s oracle tests need it: finding nothing there means the
        // scan has stopped reading manifests.
        assert!(name != "core" || !tables.is_empty(), "scan found nothing");
    }
}

#[test]
fn the_scan_sees_every_way_of_writing_a_normal_dependency() {
    for manifest in [
        "[dependencies]\nrxview-reference = { path = \"../reference\" }\n",
        "[dependencies.rxview-reference]\npath = \"../reference\"\n",
        "[target.'cfg(unix)'.dependencies]\n\"rxview-reference\" = \"0.1\"\n",
        "[build-dependencies]\nrxview-reference = { path = \"../reference\" }\n",
        "[dependencies]\nspec = { package = \"rxview-reference\", path = \"../reference\" }\n",
    ] {
        let tables = tables_naming_reference(manifest);
        assert!(
            tables.len() == 1 && tables[0] != "dev-dependencies",
            "{manifest}"
        );
    }
    let dev = "[dev-dependencies]\nrxview-reference = { path = \"../reference\" } # oracle\n";
    assert_eq!(tables_naming_reference(dev), ["dev-dependencies"]);
}
