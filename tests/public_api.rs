//! Each production crate exports only what its callers use: its modules are
//! private unless a caller outside the crate names one by path, and
//! `#![warn(unreachable_pub)]` (binding under clippy's `-D warnings`) keeps
//! every item that is neither exported nor reachable through an exported
//! signature `pub(crate)`, where `dead_code` sees it. This pins each crate's
//! root names, read from its `lib.rs` (no `cargo` subprocess), so that growing
//! an API is a deliberate edit of this list. A name is here because another
//! crate, `rxbench`, an example, the facade or a test names it, or because it
//! appears in the signature of a name that is.

/// `crate: names`, sorted: `m::` is a public module, `m!` an exported macro.
const PINNED: [(&str, &str); 7] = [
    (
        "atg",
        "Atg AtgBuilder AtgError Dag GenId Interner NodeId Provisional PublishError RuleBody \
         SubtreeDag TypeReach generate_subtree publish publish_leaves_first registrar_atg \
         registrar_database registrar_schema",
    ),
    (
        "core",
        "Anchors DagEval DeferredMaintenance DeleteRejection EdgeClosure Evaluated \
         InsertRejection MAX_CONE_ANCHORS MaintainReport PathClass PhaseTimings PlanCache \
         PlanCacheStats Reachability RelFootprint RepublishReport SideEffectPolicy SourceRef \
         SubStep TopoOrder TranslationTemplates UpdateError UpdateOutcome UpdatePlan UpdateReport \
         ViewDelta ViewStore XmlUpdate XmlViewSystem classify codec:: decode_system encode_system \
         eval_plan planned_delete_writes planned_insert_writes put_update reach:: read_update \
         rel_delete:: resolve_anchors scope_of_anchors sub_steps translate_deletions union_scope \
         xdelete",
    ),
    (
        "engine",
        "Analysis BatchFootprint CommitSummary Durability Engine EngineConfig EngineError \
         EngineReport EngineStats MAX_QUEUE PhaseBreakdown RecoverError RecoveryReport Snapshot \
         Stage StageHooks UpdateTicket WriterHandle evaluation_scope obs::",
    ),
    (
        "relstore",
        "Augmented CodecError CodecResult ColRef ColumnDef Database Domain EqClosure EqPred \
         GroupUpdate Operand PagedMap PagedVec Reader RelError RelResult SchemaBuilder \
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
         SchemaViolation TypeId XPath XmlParseError XmlTree normalize normalize_dtd parse_tree \
         parse_xpath registrar_dtd validate_delete validate_insert xpath::",
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
