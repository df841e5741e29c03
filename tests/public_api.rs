//! Each production crate exports only what its callers use: its modules are
//! private unless a caller outside the crate names one by path, and
//! `#![warn(unreachable_pub)]` (binding under clippy's `-D warnings`) keeps
//! every item that is neither exported nor reachable through an exported
//! signature `pub(crate)`, where `dead_code` sees it. This pins each crate's
//! root names, read from its `lib.rs` (no `cargo` subprocess), so that growing
//! an API is a deliberate edit of this list. A name is here because another
//! crate, `rxbench`, an example, the facade or a test names it, or because it
//! appears in the signature of a name that is.
//!
//! A second ratchet holds the crates' `pub fn`s that no production code,
//! harness, example or `rxbench` calls to a pinned list that only shrinks.

/// `crate: names`, sorted: `m::` is a public module, `m!` an exported macro.
const PINNED: [(&str, &str); 7] = [
    (
        "atg",
        "Atg AtgBuilder AtgError Dag GenId Interner NodeId Provisional PublishError RuleBody \
         SubtreeDag generate_subtree publish publish_leaves_first registrar_atg \
         registrar_database registrar_schema",
    ),
    (
        "core",
        "Admitted Anchors DagEval DeferredMaintenance DeleteRejection EdgeClosure Evaluated Exact \
         InsertRejection MAX_CONE_ANCHORS MaintainReport Observed PathClass PhaseTimings \
         PlanCache PlanCacheStats Reachability RelFootprint SideEffectPolicy SourceRef \
         StateDigest SubStep TopoOrder \
         TranslationTemplates UpdateError UpdateOutcome UpdatePlan UpdateReport ViewDelta \
         ViewStore XmlUpdate XmlViewSystem classify codec:: decode_system delete_pass \
         encode_system eval_plan insert_job planned_delete_writes planned_insert_writes \
         put_update reach:: rel_delete:: resolve_anchors scope_of_anchors sub_steps \
         translate_deletions union_scope xdelete",
    ),
    (
        "engine",
        "Analysis BatchFootprint CommitSummary Durability Engine EngineConfig EngineError \
         EngineReport EngineStats MAX_QUEUE PhaseBreakdown RecoverError RecoveryReport Snapshot \
         Stage StageHooks UpdateTicket evaluation_scope obs::",
    ),
    (
        "relstore",
        "CodecError CodecResult ColRef ColumnDef Database Domain EqClosure EqPred GroupUpdate \
         Operand PagedMap PagedVec Probe Reader RelError RelResult RowSource SchemaBuilder \
         SchemaProvider SpjBuilder SpjPlan SpjQuery Table TableRef TableSchema TableSource Tuple \
         TupleOp Value ValueType codec:: crc32 eval_spj schema tuple!",
    ),
    (
        "satsolver",
        "Assignment Clause CnfFormula DpllResult Lit Var WalkSatConfig WalkSatResult dpll walksat",
    ),
    (
        "workload",
        "ChurnGen DatasetStats DescendantConfig DescendantGen NODES_PER_INSERT ShardSkewGen \
         SkewConfig SyntheticConfig WorkloadClass WorkloadGen \
         assert_observationally_equal base_fingerprint dataset_stats detached_chain_heads \
         edge_fingerprint mixed_updates registrar_atg registrar_database synthetic_atg \
         synthetic_database",
    ),
    (
        "xmlkit",
        "ContentModel Dtd DtdBuilder DtdError Filter Node NodeId NormPath NormStep Production \
         SchemaViolation TypeId XPath XmlTree normalize normalize_dtd parse_xpath registrar_dtd validate_delete validate_insert xpath::",
    ),
];

/// `src` with its `//` comments (doc comments included) removed.
fn code(src: &str) -> String {
    src.lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The names a crate root exports: `pub mod m;` as `m::`, every name a
/// `pub use` brings in, and every `#[macro_export]` macro of the crate as
/// `m!`.
fn root_names(src_dir: &std::path::Path) -> Vec<String> {
    let lib = code(&std::fs::read_to_string(src_dir.join("lib.rs")).unwrap());
    let mut names = Vec::new();
    for stmt in lib.split(';') {
        // A statement may follow the crate's inner attributes.
        let stmt = &stmt[stmt.find("pub ").unwrap_or(stmt.len())..];
        if let Some(m) = stmt.strip_prefix("pub mod ") {
            names.push(format!("{}::", m.trim()));
        } else if let Some(body) = stmt.strip_prefix("pub use ") {
            let items = match (body.find('{'), body.rfind('}')) {
                (Some(open), Some(close)) => &body[open + 1..close],
                _ => body.rsplit("::").next().unwrap_or(body),
            };
            for item in items.split(',').map(str::trim).filter(|i| !i.is_empty()) {
                names.push(item.rsplit(" as ").next().unwrap().to_owned());
            }
        }
    }
    let mut dirs = vec![src_dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = code(&std::fs::read_to_string(&path).unwrap());
                for exported in src.split("#[macro_export]").skip(1) {
                    let rest = exported.trim_start().strip_prefix("macro_rules!").unwrap();
                    let mut name = rest.trim_start().split(|c: char| !c.is_alphanumeric());
                    names.push(format!("{}!", name.next().unwrap()));
                }
            }
        }
    }
    names.sort();
    names
}

#[test]
fn each_production_crate_exports_its_pinned_names() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for (name, pinned) in PINNED {
        let src = root.join("crates").join(name).join("src");
        let lib = std::fs::read_to_string(src.join("lib.rs")).unwrap();
        assert!(
            lib.contains("#![warn(unreachable_pub)]"),
            "crates/{name} does not lint unreachable `pub` items"
        );
        let mut expected: Vec<&str> = pinned.split_whitespace().collect();
        expected.sort();
        assert_eq!(root_names(&src), expected, "crates/{name}'s root names");
    }
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// `src` without its `use` statements (an import or a re-export is no
/// call) and, when `cut`, without what follows its `mod tests {`.
fn callers_text(src: &str, cut: bool) -> String {
    let mut code = code(src);
    if cut {
        code.truncate(code.find("mod tests {").unwrap_or(code.len()));
    }
    let mut out = String::new();
    let mut rest = code.as_str();
    while let Some(at) = rest.find("use ") {
        let line_start = rest[..at].rfind('\n').map_or(0, |i| i + 1);
        let head = rest[line_start..at].trim();
        if matches!(head, "" | "pub" | "pub(crate)") {
            out.push_str(&rest[..line_start]);
            rest = &rest[at + rest[at..].find(';').unwrap_or(rest.len() - at)..];
        } else {
            out.push_str(&rest[..at + 4]);
            rest = &rest[at + 4..];
        }
    }
    out.push_str(rest);
    out
}

/// The identifiers of `text`, each with whether `fn` precedes it (a
/// definition, not a call).
fn identifiers(text: &str) -> impl Iterator<Item = (&str, bool)> {
    let mut after_fn = false;
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .map(move |w| {
            let defined = after_fn;
            after_fn = w == "fn";
            (w, defined)
        })
}

/// The seven production crates' `pub fn`s that nothing calls, one a line
/// with why it stays: no line of their `src/` (before `mod tests`), of the
/// facade's `src/`, of `examples/`, of the harness (`crates/bench/src/`) or
/// of `rxbench/src/` names it but its definition and `use` statements. Only
/// shrinks: test gates, battery generators, the reference crate's helpers
/// and an operator door are here on purpose; anything else uncalled is
/// deleted, not pinned.
const UNCALLED: &str = "\
    add_unit: clause builder of the SAT solver's own tests
    assert_observationally_equal: test oracle the batteries compare states by
    choice: content-model constructor `normalize_dtd`'s tests build with
    col_bool: schema builder for a finite-domain column the codec tests use
    contains_tuple: row membership the table and codec tests check
    covers_row: footprint contract the footprint battery checks
    covers_writes: footprint contract the footprint battery checks
    eval_spj: one-shot SPJ evaluation of the reference crate and the oracle test
    flight_recording: operator door: the flight recorder's event window
    fractions: phase shares the telemetry tests sum
    from_ancestors: bulk load the reference crate stores its closure through
    is_key_preserving: §4.1 check of the reference crate's deletion
    make_key_preserving: §4.1 repair of the reference crate's deletion
    mixed_updates: battery generator of update streams
    read_update: single-update decoder the codec round-trip test reads with
    union_scope: scope builder the scoped-evaluation tests compare against
    wait_arrivals: test gate of the stage-hook harness
    with_filter: XPath step builder of the codec and recovery tests
";

#[test]
fn no_new_public_function_goes_uncalled() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut defined = std::collections::BTreeSet::new();
    let mut text = String::new();
    for (name, _) in PINNED {
        for path in rust_files(&root.join("crates").join(name).join("src")) {
            let src = callers_text(&std::fs::read_to_string(path).unwrap(), true);
            for line in src.lines() {
                let line = line.trim_start();
                if let Some(sig) = ["pub fn ", "pub const fn "]
                    .iter()
                    .find_map(|p| line.strip_prefix(p))
                {
                    let name = sig.split(|c: char| !(c.is_alphanumeric() || c == '_'));
                    defined.insert(name.into_iter().next().unwrap().to_owned());
                }
            }
            text.push_str(&src);
        }
    }
    for dir in ["src", "examples", "crates/bench/src", "rxbench/src"] {
        for path in rust_files(&root.join(dir)) {
            text.push_str(&callers_text(
                &std::fs::read_to_string(path).unwrap(),
                false,
            ));
        }
    }
    let called: std::collections::BTreeSet<&str> = identifiers(&text)
        .filter(|&(_, definition)| !definition)
        .map(|(w, _)| w)
        .collect();
    let uncalled: Vec<&str> = defined
        .iter()
        .map(String::as_str)
        .filter(|name| !called.contains(name))
        .collect();
    let pinned: Vec<&str> = UNCALLED
        .lines()
        .map(|line| line.split(':').next().unwrap().trim())
        .collect();
    assert_eq!(
        uncalled, pinned,
        "uncalled `pub fn`s: delete a new one (or call it); unpin one that gained a caller or is gone"
    );
}
