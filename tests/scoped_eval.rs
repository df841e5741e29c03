//! The oracle for scope-resolved evaluation — one that does not share the
//! optimisation. Reads (`Snapshot::eval`), `XmlViewSystem::apply` and with
//! it recovery replay all evaluate through `XmlViewSystem::eval`: resolve
//! the path's anchors from the `gen_A` registries, gather their cones in
//! `L` order, run the §3.2 passes on that scope. This file holds that entry
//! point equal to the full pass over all of `L` (`XmlViewSystem::evaluate`)
//! on every field of the result, and `apply` equal to the paper's
//! one-at-a-time algorithm — §3.2 verbatim over all of `L` →
//! `apply_deferred` → a fold of that one job
//! (`rxview_reference::reference_apply`, the reference of ARCHITECTURE.md
//! invariant 1, shared with the engine's equivalence and recovery
//! batteries) — on accept/reject, `∆R`, side effects and the final
//! `(I, V, M, L)`.
//!
//! **Mutation-checked.** Each of these edits was made, this file run, and
//! the edit reverted; each fails it:
//!
//! - *dropping the ancestor closure for `//` heads* (`with_ancestors: false`
//!   for `PathClass::Descendant` in `pathclass::resolve_anchors`): the
//!   parents a `//` match is reached through fall out of the scope, so
//!   `//node[id=c]` selects nothing — `scoped_eval_equals_the_full_pass`
//!   fails on `selected`, and the registrar stream test on
//!   `delete //student[ssn=…]` (`apply` says `EmptyTarget`, the reference
//!   accepts). The workload streams only put `//` in front of top-level
//!   heads, whose one parent is the root, and do not notice.
//! - *omitting the root from the scope* (`union_scope` without
//!   `cone.insert(root)`): no classified path puts a predicate on the root
//!   (a leading filter step classifies `Global`), so the evaluation result
//!   survives; what fails is the scope's stated shape — `root in scope` in
//!   `assert_same_eval`, on the first anchored path.
//!
//! It also holds a checkpoint of a view whose id space is mostly free to
//! the system it was taken from (`a_sparse_id_space_decodes_whole`).
//! - *skipping the top-level filter on anchored probes* (`candidates`
//!   without the `parents(c).contains(&root)` test): `node[id=c]` for an
//!   inner node `c` anchors at `c` — evaluation stays exact (the scope only
//!   grows) but the anchor set, and with it every cone the planner builds,
//!   is wrong: the `RootOnly` expectation on a non-top-level key fails
//!   (`Some(108)` nodes against `Some(1)`).
//! - *mapping an unfiltered `//` head's `gen_A` rows back with
//!   `lookup(ty, row)`, only the root's stand-in row special-cased*: the
//!   one-column row of `catalog__star1`, whose `$A` is empty, resolves to
//!   nothing and the head anchors nowhere —
//!   `a_descendant_head_onto_an_empty_attribute_type_finds_its_node` fails
//!   on its anchors (`Some([])` against the star node).

mod common;

use common::{arb_op, descendant_headed, registrar, registrar_update, synthetic};
use proptest::prelude::*;
use rxview::core::{
    classify, decode_system, encode_system, resolve_anchors, SideEffectPolicy, XmlUpdate,
    XmlViewSystem, MAX_CONE_ANCHORS,
};
use rxview::relstore::{tuple, Reader};
use rxview::workload::{mixed_updates, WorkloadClass, WorkloadGen};
use rxview::workload::{registrar_atg, registrar_database};
use rxview::xmlkit::parse_xpath;
use rxview_reference::reference_apply;

const ROUNDS: usize = 50;
const GROUP_SIZE: i64 = 40;

/// What the scope-aware entry point is expected to have run on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ran {
    /// A scope, a subsequence of `L` (any size).
    Scoped,
    /// A scope holding the root alone: the anchor set is empty.
    RootOnly,
    /// All of `L`.
    Full,
    /// Not asserted (depends on how large the sampled cone is).
    Either,
}

/// `eval` equals `evaluate` on every field of the result, `scope_of` agrees
/// with what `eval` ran on, and a scope is `{root} ∪ cones`.
fn assert_same_eval(sys: &XmlViewSystem, path: &str, ran: Ran, ctx: &str) {
    let p = parse_xpath(path).unwrap_or_else(|e| panic!("`{path}` parses: {e}"));
    let got = sys.eval(&p);
    let full = sys.evaluate(&p);
    assert_eq!(got.eval.selected, full.selected, "selected, `{path}` {ctx}");
    assert_eq!(
        got.eval.edge_parents, full.edge_parents,
        "edge_parents, `{path}` {ctx}"
    );
    assert_eq!(
        got.eval.matched_nodes, full.matched_nodes,
        "matched_nodes, `{path}` {ctx}"
    );
    assert_eq!(
        got.eval.matched_edges, full.matched_edges,
        "matched_edges, `{path}` {ctx}"
    );
    let scope = sys.scope_of(&p);
    assert_eq!(
        scope.as_ref().map(|s| s.len()),
        got.scope_nodes,
        "scope_of vs eval, `{path}` {ctx}"
    );
    if let Some(scope) = &scope {
        let root = sys.view().dag().root();
        assert!(scope.contains(&root), "root in scope, `{path}`");
        let class = classify(sys.view().atg().dtd(), &p);
        let anchors = resolve_anchors(sys.view(), &class, MAX_CONE_ANCHORS, None)
            .expect("a scope has anchors");
        let mut cone: std::collections::BTreeSet<_> = [root].into();
        for &a in &anchors.nodes {
            cone.insert(a);
            let genid = sys.view().dag().genid();
            cone.extend(genid.live_ids().filter(|&d| sys.reach().is_ancestor(a, d)));
            if anchors.with_ancestors {
                cone.extend(sys.reach().ancestors(a));
            }
        }
        assert_eq!(
            scope.len(),
            cone.len(),
            "scope = root + cones, `{path}` {ctx}"
        );
    }
    match ran {
        Ran::Scoped => assert!(
            got.scope_nodes.is_some(),
            "`{path}` {ctx} ran the full pass"
        ),
        Ran::RootOnly => assert_eq!(got.scope_nodes, Some(1), "`{path}` {ctx}"),
        Ran::Full => assert_eq!(got.scope_nodes, None, "`{path}` {ctx}"),
        Ran::Either => {}
    }
}

/// A group head with children, one of its children, and that child's
/// payload — sampled from the current state.
fn sample(sys: &XmlViewSystem, group: i64) -> Option<(i64, i64, i64)> {
    let head = group * GROUP_SIZE;
    let p = parse_xpath(&format!("node[id={head}]/sub/node")).expect("parses");
    let kids = sys.evaluate(&p).selected;
    let genid = sys.view().dag().genid();
    // A child that is not itself top level (fresh inserted nodes are not).
    let child = kids
        .iter()
        .map(|&c| genid.attr_of(c))
        .find(|a| a[0].as_int().expect("int id") % GROUP_SIZE != 0)?;
    Some((
        head,
        child[0].as_int().expect("int id"),
        child[1].as_int().expect("int payload"),
    ))
}

fn check_synthetic_paths(sys: &XmlViewSystem, ctx: &str) {
    let mut sampled = 0;
    for group in 0..sys.base().table("C").expect("C").len() as i64 / GROUP_SIZE {
        let Some((k, c, p)) = sample(sys, group) else {
            continue;
        };
        sampled += 1;
        if sampled > 4 {
            break;
        }
        for (path, ran) in [
            // The four read shapes.
            (format!("node[id={k}]"), Ran::Scoped),
            (format!("node[id={k}]/sub/node"), Ran::Scoped),
            (format!("node[id={k}]/payload"), Ran::Scoped),
            (format!("node[id={k}]//node"), Ran::Scoped),
            // `//`-headed: the anchor's ancestors are in scope.
            (format!("//node[id={k}]/sub"), Ran::Scoped),
            (format!("//node[id={c}]"), Ran::Scoped),
            (format!("//node[id={c}]/sub/node"), Ran::Scoped),
            (format!("//node[id={k}]//node[payload={p}]"), Ran::Scoped),
            (format!("//node[id={c} and payload={p}]"), Ran::Scoped),
            // Wildcard-rooted.
            (format!("*[id={k}]/sub/node"), Ran::Scoped),
            (format!("*[id={k}]//node[id={c}]"), Ran::Scoped),
            // W1–W3 shapes (value and structural filters below the head).
            (format!("node[id={k}]//node[payload={p}]"), Ran::Scoped),
            (format!("node[id={k}]/sub/node[payload={p}]"), Ran::Scoped),
            (
                format!("node[id={k}][sub/node]/sub/node[payload={p}][not(sub/node)]"),
                Ran::Scoped,
            ),
            (
                format!("node[id={k}][sub/node][payload={p}]/sub"),
                Ran::Either,
            ),
            // A non-leading column pins the head (secondary index).
            (format!("node[payload={p}]/sub/node"), Ran::Either),
            // An inner node's key at an anchored head: the probe finds the
            // node, the top-level filter drops it.
            (format!("node[id={c}]"), Ran::RootOnly),
            (format!("*[id={c}]/sub"), Ran::RootOnly),
        ] {
            assert_same_eval(sys, &path, ran, ctx);
        }
    }
    assert!(
        sampled >= 3,
        "{ctx}: only {sampled} groups could be sampled"
    );
    for (path, ran) in [
        // No column pins the head: the root's children are scanned, and
        // their cones are the view (hazard 1's fallback).
        ("node[sub/node]/sub/node", Ran::Full),
        ("node/sub/node[payload=3]", Ran::Full),
        // A `//` head on the widely shared text type: ≤ 64 anchors, each
        // under hundreds of parents.
        ("//payload", Ran::Full),
        // Past the anchor cap, untypeable, unknown label: global.
        ("//node[payload=3]/sub", Ran::Either),
        ("//sub/node[id=41]", Ran::Full),
        ("*/sub/node", Ran::Full),
        ("//*", Ran::Full),
        ("nonexistent/x", Ran::Full),
        ("//nonexistent[id=3]", Ran::Full),
        // An unknown field, a missing key, an unparseable typed literal:
        // provably empty.
        ("node[zzz=1]/sub", Ran::RootOnly),
        ("node[id=999999]/sub", Ran::RootOnly),
        ("//node[id=999999]/sub", Ran::RootOnly),
        ("node[id=007]", Ran::RootOnly),
        ("node[id=0]/nonexistent", Ran::Scoped),
    ] {
        assert_same_eval(sys, path, ran, ctx);
    }
    // Whatever the generators phrase.
    let mut gen = WorkloadGen::new(sys.view(), 99);
    for class in WorkloadClass::all() {
        for u in gen
            .deletions(class, 6)
            .into_iter()
            .chain(gen.insertions(class, 6))
        {
            assert_same_eval(sys, &u.path().to_string(), Ran::Scoped, ctx);
        }
    }
}

fn check_registrar_paths(sys: &XmlViewSystem, ctx: &str) {
    for path in [
        "course[cno=CS320]",
        "course[cno=CS320]/prereq/course",
        "course[cno=CS650]//course[cno=CS320]/prereq",
        "course[cno=CS240]/takenBy/student[ssn=S02]",
        "//course[cno=CS320]",
        "//course[cno=CS320]/prereq/course",
        "//student[ssn=S02]",
        "//course[cno=CS320]//student[ssn=S02]",
        "//takenBy/student[name=Bob]",
        "*[cno=CS650]/prereq/course",
        "course[prereq/course]/takenBy",
        "course[not(prereq/course)]",
        "//course[cno=CS320 or cno=CS240]",
        "//student",
        "//course",
        "course[cno=NOPE]/prereq",
        "//course[cno=NOPE]",
        "student[ssn=S02]",
        "nonexistent",
        "student/course",
    ] {
        assert_same_eval(sys, path, Ran::Either, ctx);
    }
    assert_same_eval(sys, "course[cno=NOPE]/prereq", Ran::RootOnly, ctx);
    // Students are never top level: the probe's hit is filtered out.
    assert_same_eval(sys, "student[ssn=S02]", Ran::RootOnly, ctx);
}

/// Applies `update` through `apply` on `sys` and through the reference on
/// `oracle`; the two must agree on everything an observer can see.
fn apply_both(
    sys: &mut XmlViewSystem,
    oracle: &mut XmlViewSystem,
    update: &XmlUpdate,
    policy: SideEffectPolicy,
) -> bool {
    let got = sys.apply(update, policy);
    let want = reference_apply(oracle, update, policy);
    match (&got, &want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.delta_r.ops(), w.delta_r.ops(), "∆R of `{update}`");
            assert_eq!(g.side_effects, w.side_effects, "side effects of `{update}`");
            assert_eq!(g.delta_v_len, w.delta_v_len, "∆V of `{update}`");
            assert_eq!(w.scope_nodes, None, "the reference ran the full pass");
        }
        (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "rejection of `{update}`"),
        _ => panic!("`{update}` ({policy:?}): apply {got:?}, reference {want:?}"),
    }
    got.is_ok()
}

/// `(I, V, M, L)` equal — by id, not only observationally: both systems ran
/// the same accepted updates in the same order from clones of one state.
fn assert_same_state(sys: &XmlViewSystem, oracle: &XmlViewSystem, ctx: &str) {
    let differs = sys.exact_digest().first_difference(&oracle.exact_digest());
    assert_eq!(differs, None, "{ctx}");
    sys.consistency_check()
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// Fifty rounds of mixed W1–W3 inserts and deletes (each also phrased
/// `//`-headed), policies alternating, `apply` beside the reference.
fn fifty_rounds(sys: &mut XmlViewSystem, oracle: &mut XmlViewSystem) -> (usize, usize) {
    let (mut accepted, mut scoped) = (0, 0);
    for round in 0..ROUNDS {
        let flips = [round % 2 == 0, round % 3 == 0, round % 5 != 0];
        for (i, u) in mixed_updates(sys, 2_000 + round as u64, &flips)
            .into_iter()
            .enumerate()
        {
            let policy = if (round + i) % 2 == 0 {
                SideEffectPolicy::Proceed
            } else {
                SideEffectPolicy::Abort
            };
            // Every other round the same update arrives `//`-headed.
            let u = if round % 2 == 1 {
                descendant_headed(&u)
            } else {
                u
            };
            scoped += usize::from(sys.eval(u.path()).scope_nodes.is_some());
            accepted += usize::from(apply_both(sys, oracle, &u, policy));
        }
    }
    (accepted, scoped)
}

#[test]
fn scoped_eval_equals_the_full_pass() {
    let mut sys = synthetic(1_200, 42);
    let mut oracle = sys.clone();
    check_synthetic_paths(&sys, "at publication");
    let (accepted, scoped) = fifty_rounds(&mut sys, &mut oracle);
    assert!(accepted >= ROUNDS, "only {accepted} updates accepted");
    assert!(scoped >= ROUNDS, "only {scoped} updates evaluated scoped");
    check_synthetic_paths(&sys, "after fifty rounds");
    assert_same_state(&sys, &oracle, "synthetic, fifty rounds");

    let mut reg = registrar();
    let mut reg_oracle = reg.clone();
    check_registrar_paths(&reg, "at publication");
    for (u, policy) in [
        (
            XmlUpdate::insert(
                "course",
                rxview::relstore::tuple!["MA100", "Calculus"],
                "course[cno=CS650]//course[cno=CS320]/prereq",
            ),
            SideEffectPolicy::Proceed,
        ),
        (
            XmlUpdate::delete("//student[ssn=S02]"),
            SideEffectPolicy::Abort,
        ),
        (
            XmlUpdate::delete("course[cno=CS650]/prereq/course[cno=CS320]"),
            SideEffectPolicy::Abort,
        ),
    ] {
        assert!(apply_both(
            &mut reg,
            &mut reg_oracle,
            &u.expect("parses"),
            policy
        ));
    }
    check_registrar_paths(&reg, "after three updates");
    assert_same_state(&reg, &reg_oracle, "registrar");
}

/// A checkpoint of a view whose id space is mostly free — live ids spanning
/// more than four times the live nodes — decodes into the one form of `L`: it is
/// consistent, its scoped evaluation equals its full pass, and an anchored
/// insert folds into it exactly as into the system it was taken from.
#[test]
fn a_sparse_id_space_decodes_whole() {
    const EXTRA: usize = 60;
    let mut db = registrar_database();
    for i in 0..EXTRA {
        db.insert("course", tuple![format!("X{i}"), format!("T{i}"), "CS"])
            .unwrap();
    }
    let atg = registrar_atg(&db).expect("valid ATG");
    let mut sys = XmlViewSystem::new(atg, db).expect("publishes");
    for i in 0..EXTRA {
        let u = XmlUpdate::delete(&format!("course[cno=X{i}]")).expect("parses");
        sys.apply(&u, SideEffectPolicy::Abort)
            .unwrap_or_else(|e| panic!("`{u}`: {e}"));
    }
    // The ids `L` holds span more than four times its length.
    let span = |sys: &XmlViewSystem| {
        let genid = sys.view().dag().genid();
        let top = genid.live_ids().map(|v| v.index() + 1).max().unwrap_or(0);
        (top, genid.n_live())
    };
    let (top, live) = span(&sys);
    assert!(top > 4 * live, "ids up to {top} for {live} live nodes");

    let mut bytes = Vec::new();
    encode_system(&sys, &mut bytes);
    let mut decoded = decode_system(sys.view().atg(), &mut Reader::new(&bytes)).expect("decodes");
    assert_eq!(span(&decoded), (top, live), "ids stay sparse");
    decoded.consistency_check().unwrap();
    let differs = decoded.exact_digest().first_difference(&sys.exact_digest());
    assert_eq!(differs, None, "decoded");
    check_registrar_paths(&decoded, "decoded from a sparse id space");

    let insert = XmlUpdate::insert(
        "course",
        tuple!["MA200", "Algebra"],
        "course[cno=CS240]/prereq",
    )
    .expect("parses");
    let want = sys.apply(&insert, SideEffectPolicy::Proceed).unwrap();
    let got = decoded.apply(&insert, SideEffectPolicy::Proceed).unwrap();
    assert!(got.scope_nodes.is_some(), "the insert evaluated scoped");
    let fold = |r: &rxview::core::UpdateReport| {
        let m = &r.maintain;
        (m.m_inserted, m.m_removed, m.gc_nodes, m.cascaded_edges)
    };
    assert_eq!(fold(&got), fold(&want), "fold");
    let differs = decoded.exact_digest().first_difference(&sys.exact_digest());
    assert_eq!(differs, None, "(I, V, M, L)");
    decoded.consistency_check().unwrap();
}

/// The catalog view of `examples/normalized_dtd.rs`: DTD normalization
/// synthesizes `catalog__star1`, a type below the root whose `$A` is empty.
fn catalog() -> XmlViewSystem {
    use rxview::relstore::{schema, Database, SpjQuery};
    use rxview::xmlkit::{normalize_dtd, ContentModel as Cm};
    let dtd = normalize_dtd(
        "catalog",
        &[
            (
                "catalog",
                Cm::seq([Cm::name("vendor"), Cm::star(Cm::name("item"))]),
            ),
            ("item", Cm::seq([Cm::name("sku"), Cm::name("title")])),
            ("vendor", Cm::PcData),
        ],
    )
    .expect("normalizes");
    let mut db = Database::new();
    let vendor = schema("vendor").col_str("vid").col_str("vname");
    db.create_table(vendor.key(&["vid"])).unwrap();
    let item = schema("item").col_str("sku").col_str("title");
    db.create_table(item.key(&["sku"])).unwrap();
    db.insert("vendor", tuple!["v1", "ACME"]).unwrap();
    db.insert("item", tuple!["sku-1", "Anvil"]).unwrap();
    db.insert("item", tuple!["sku-2", "Rocket Skates"]).unwrap();
    let q_items = SpjQuery::builder("Qitems")
        .from("item", "i")
        .project(("i", "sku"), "sku")
        .project(("i", "title"), "title")
        .build(&db)
        .unwrap();
    let q_vendor = SpjQuery::builder("Qvendor")
        .from("vendor", "v")
        .where_col_eq_const(("v", "vid"), "v1")
        .project(("v", "vname"), "vname")
        .build(&db)
        .unwrap();
    let mut b = rxview::atg::Atg::builder(dtd);
    b.attr("catalog", &[])
        .attr("vendor", &["vname"])
        .attr("catalog__star1", &[])
        .attr("item", &["sku", "title"])
        .attr("sku", &["sku"])
        .attr("title", &["title"]);
    b.rule_query("catalog", "vendor", q_vendor, &[])
        .rule_project("catalog", "catalog__star1", &[])
        .rule_query("catalog__star1", "item", q_items, &[])
        .rule_project("item", "sku", &["sku"])
        .rule_project("item", "title", &["title"]);
    let atg = b.build(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

/// A `//` head onto a non-root type whose `$A` is empty — its `gen_A` row is
/// the one-column stand-in, not its `$A` — anchors at that type's node:
/// reads and updates under it match what the full pass matches.
#[test]
fn a_descendant_head_onto_an_empty_attribute_type_finds_its_node() {
    let mut sys = catalog();
    let mut oracle = sys.clone();
    let star = sys.view().atg().dtd().type_id("catalog__star1").unwrap();
    let genid = sys.view().dag().genid();
    let want: Vec<_> = genid
        .live_ids()
        .filter(|&v| genid.type_of(v) == star)
        .collect();
    assert_eq!(want.len(), 1);
    let p = parse_xpath("//catalog__star1").unwrap();
    let class = classify(sys.view().atg().dtd(), &p);
    let anchors = resolve_anchors(sys.view(), &class, MAX_CONE_ANCHORS, None);
    assert_eq!(anchors.map(|a| a.nodes), Some(want));
    // The star's cone is most of this small view: whether it runs scoped
    // is the `|L| / 2` budget's call, what it selects is not.
    for path in [
        "//catalog__star1",
        "//catalog__star1/item",
        "//catalog__star1/item[sku=sku-2]",
    ] {
        assert_same_eval(&sys, path, Ran::Either, "catalog");
    }
    for u in [
        XmlUpdate::insert("item", tuple!["sku-3", "Tornado Seeds"], "//catalog__star1"),
        XmlUpdate::delete("//catalog__star1/item[sku=sku-1]"),
    ] {
        let u = u.expect("parses");
        assert!(apply_both(
            &mut sys,
            &mut oracle,
            &u,
            SideEffectPolicy::Abort
        ));
    }
    assert_same_state(&sys, &oracle, "catalog");
    assert_same_eval(&sys, "//catalog__star1/item", Ran::Either, "catalog, after");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random registrar streams under both policies: `apply` and the
    /// reference agree update by update and on the final state.
    #[test]
    fn apply_equals_the_full_pass_reference_on_registrar_streams(
        ops in proptest::collection::vec(arb_op(), 1..12),
    ) {
        let mut sys = registrar();
        let mut oracle = sys.clone();
        for (op, phrasing, abort) in &ops {
            let Some(update) = registrar_update(op, *phrasing) else { continue };
            let policy = if *abort { SideEffectPolicy::Abort } else { SideEffectPolicy::Proceed };
            apply_both(&mut sys, &mut oracle, &update, policy);
        }
        assert_same_state(&sys, &oracle, "registrar stream");
    }

    /// Random W1–W3 streams on random synthetic views under both policies.
    #[test]
    fn apply_equals_the_full_pass_reference_on_workload_streams(
        seed in 0u64..500,
        flips in prop::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 6..16),
    ) {
        let mut sys = synthetic(240, seed);
        let mut oracle = sys.clone();
        for (i, (insert, abort, descendant)) in flips.iter().enumerate() {
            let Some(u) = mixed_updates(&sys, seed ^ i as u64, &[*insert]).pop() else { continue };
            let u = if *descendant { descendant_headed(&u) } else { u };
            let policy = if *abort { SideEffectPolicy::Abort } else { SideEffectPolicy::Proceed };
            apply_both(&mut sys, &mut oracle, &u, policy);
        }
        assert_same_state(&sys, &oracle, "workload stream");
    }
}
