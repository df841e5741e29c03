//! The O(∆) guard for snapshot sharing, counted rather than timed: how many
//! bytes and allocator calls a system clone costs, and how many the round
//! trip "clone, write through `apply` while the clone is alive, drop the
//! clone" costs — the three things the serving engine does to `(I, V)`
//! on every commit round (`working = current.clone()`, the first write
//! after a publish, the displaced snapshot's release).
//!
//! The tests take turns (`SERIAL`) and each runs on one thread, so the
//! counts repeat run to run (to within the iteration order of a few
//! `HashMap`s inside translation).
//!
//! Figures at 128 groups (5 120 `C` rows, 10 807 view nodes), this file run
//! on each tree:
//!
//! | | whole-structure CoW | paged sharing | `M` as sorted runs | rows stored once, 16-byte cells | `M` as 32-id block words | what the grammar repeats stored once |
//! |---|---|---|---|---|---|---|
//! | `sys.clone()` | 3 183 445 B in 43 653 calls | 120 403 B in 22 calls | 123 091 B in 22 calls | 115 131 B in 22 calls | 115 131 B in 22 calls | 104 075 B in 19 calls |
//! | clone + anchored insert + fold + drop | 9 698 226 B in 107 692 calls | 426 019 B in 2 720 calls | 387 647 B in 793 calls | 329 559 B in 646 calls | 242 659 B in 644 calls | 182 232 B in 391 calls |
//! | `M` after `Reachability::compute`, per pair | — | 25.5 B | 9.9 B | 9.9 B | 4.6 B | 1.78 B |
//! | `I` after `synthetic_database`, per base row | — | — | 246.3 B | 145.2 B | 145.2 B | 145.2 B |
//! | `I`, live allocations per distinct row | — | — | 1.77 | 1.05 | 1.05 | 1.05 |
//! | `V` after `ViewStore::publish`, per view node | — | — | 280.1 B | 245.4 B | 245.4 B | 156.3 B |
//! | `read_database`, allocator calls per row | — | — | 2.62 | 1.04 | 0.70 (equal rows share on load) | 0.70 |
//! | ten-fold soak, `M` words per pair, first → last sample | — | — | — | — | 2.76 B → 2.76 B on all three executors (1.38 B → 1.38 B once `M` is one way) | 1.38 B → 1.38 B |
//!
//! (The last four rows' third column is this file run on PR 19's tree,
//! where the round row read 358 711 B in 647 calls: a row sat beside a
//! separately allocated key tuple in a 32-byte entry, a cell was 24 bytes,
//! and a decoded row was a `Vec`, a copy of it behind the `Arc`, and a key.
//! `CU` shares `C`'s rows in this fixture, hence "distinct". What is left
//! above one allocation per row is the pages. The ceilings are the measured
//! figures + 5 %.)
//!
//! (At rxbench's 512 groups the left column is ≈ 15 MB and ≈ 52 MB.) Of the
//! right columns, 87 KB of the clone was `L`'s two dense arrays; with its
//! labels paged (and a free id's slot cleared) the clone is 61 701 B in 22
//! calls, 43 KB of it `L`'s order, the O(view) remainder ARCHITECTURE.md §8
//! names, and the round 130 398 B in 359 calls. The `M` row is what stays
//! allocated, the handle pages included, divided by `n_pairs()`: one id per
//! pair at 8 B per ≈ 5.6-id word plus 16 B of `Arc` header per non-empty
//! set (two ids per pair until `M` kept its `anc` runs only). The clone
//! ceilings are a tenth of the left column; the round's call ceiling was
//! re-based when `M` went from B-tree sets to runs, its byte ceiling and the
//! per-pair ceiling (each the measured figure + 5 %) when the runs went
//! from ids to block words and again when `M` dropped its `desc` runs.
//!
//! Evaluating the round's path, `node[id=k]/sub`, on the same fixture —
//! what every read, `apply` and replayed update pays before it translates
//! anything (PR 15; the clone and round rows did not move, 22 and 791
//! calls):
//!
//! | | `M` as sorted runs (PR 14) | scope-resolved evaluation (PR 15) |
//! |---|---|---|
//! | full `evaluate` (all of `L`, 10 807 nodes) | 14 487 calls | 11 calls |
//! | scope-aware evaluation, anchor resolution and scope projection included | 839 calls (`evaluation_scope` + `evaluate_scoped`) | 31 calls (`XmlViewSystem::eval`) |
//!
//! The left column is a `String` per value, a `Vec`, a `join` and two memo
//! clones per text node visited, plus — scoped — a top-level scan that
//! rendered every group head's text children; the right column compares
//! attribute values in place and probes `gen_node`'s primary order. The
//! ceilings (100 and 150) leave room for a deeper path, not for a renderer.
//!
//! Cold start, at 64 groups (2 560 `C` rows, 5 946 view nodes, 1 965
//! evaluations of the recursive rule `Qsub_node` = `C ⋈ F ⋈ H ⋈ CU` at 2.06
//! result rows each), this file run on both trees:
//!
//! | | interpreted `eval_spj`, keyed inserts (PR 17) | compiled plan, bulk pages (PR 18) |
//! |---|---|---|
//! | one run of `Qsub_node` | 43.3 calls | 3.9 calls |
//! | `ViewStore::publish`, per published node | 22.2 calls | 5.3 calls |
//!
//! The left column re-validated the query, re-derived the join order and
//! cloned a 50-column `Vec<Value>` per partial row on every call, then
//! interned, linked and registered one key at a time; the right column is
//! the run's register file, the result vector and one `Arc` per result row,
//! then one attribute tuple per node plus the projection rules' results.
//! The ceilings (8, and 10 until the change below) leave room for a wider
//! result, not for an interpreter. The round row above fell to 648 calls
//! on the way (the subtree walk and the delete side's safety probes run
//! compiled plans).
//!
//! Keeping `V`'s edges as ids only — no typed edge-relation copy beside
//! the child lists, up to four neighbour ids inside the 24-byte adjacency
//! slot instead of behind an `Arc` per list, a column index of row handles
//! instead of `(value, row)` pairs — moved these figures, this file run on
//! both trees: `V` per view node 245.4 → 180.8 B; `ViewStore::publish`
//! 5.3 → 3.6 calls per published node; `sys.clone()` 115 131 B in 22 calls
//! → 108 171 B in 21; the round 220 180 B in 427 calls → 199 748 B in 412.
//! The two ceilings are now 190 B (the measured figure + 5 %) and 4.0
//! calls: a second copy of the edges (≈ 29 B per node) or an `Arc` per
//! neighbour list again (≈ 1.6 calls and ≈ 27 B per node) fails them.
//!
//! Storing `M` one way — each node's `anc` run only, a descendant set a
//! walk down the child lists — moved these figures, this file run on both
//! trees: `M` per pair 4.6 → 2.39 B; `sys.clone()` 108 171 B in 21 calls
//! → 105 467 B in 20; the round 199 748 B in 412 calls → 189 192 B in 400
//! (the root's `desc` run, ≈ 5 KB rewritten by every inserting fold, is
//! gone); the soak's words per pair 2.76 → 1.38 B. The ceilings are now
//! 2.51 B per pair and 198 652 B per round: a second direction again
//! (≈ 2.2 B per pair) fails the first.
//!
//! Storing once what the grammar repeats — a `sub`'s `$A` is its `node`'s
//! tuple, the children of a node that have no other parent hold one `anc`
//! run, and the interner keeps no `(type, id)` set beside the `gen_A`
//! tables — moved these figures, this file run on both trees: `V` per
//! view node 180.8 → 156.3 B; `M` per pair 2.39 → 1.78 B;
//! `ViewStore::publish` 3.61 → 3.26 calls per published node;
//! `sys.clone()` 105 467 B in 20 calls → 104 075 B in 19; the round
//! 186 936 B in 400 calls → 182 232 B in 391. The ceilings are now the
//! measured figures + 5 %: 164.1 B per node, 1.87 B per pair, 3.42 calls
//! per published node and 191 344 B per round. A copy of each `sub`'s `$A`
//! again (≈ 16 B per node) fails the first, a run per node again the
//! second.
//!
//! Binding each rule once per walk (`SpjPlan::bind`, then
//! `BoundPlan::run_into` refilling one buffer) moved these figures, this
//! file run on both trees: a `Qsub_node` run 3.9 allocator calls for its
//! 2.06 rows → one call per row, which the test now holds exactly;
//! `ViewStore::publish` 3.22 → 1.63 calls per published node (ceiling
//! 1.71, the measured figure + 5 %). Loading the fixture's `H` in key order
//! moved `I` as generated 145.2 → 138.7 B per base row; after
//! `XmlViewSystem::new`, which no longer rebuilds `H`, it stays 97.2 B.
//!
//! Storing `M` as one owned run per node — no `Arc` header, no run shared
//! among the children of one parent, no pages, and room in the vector of
//! runs for a sixteenth more ids, so that ∆M's first insertion does not
//! copy it — moved `M` per pair 1.78 → 1.90 B. No serving state holds `M`,
//! so what held it to one run per parent is gone: the ceiling is now
//! 1.99 B (the measured figure + 5 %), and
//! `computing_m_allocates_one_run_per_node_with_ancestors` counts one
//! allocation per non-empty run.
//!
//! Binding each of Algorithm delete's probes once per translation — where
//! each candidate source bound every probe of its table again, and each
//! row a probe yielded rebuilt its sources — moved the largest of sixteen
//! anchored W1 delete translations at 32 groups (five edges) 421 → 175
//! allocator calls, this file run on both trees; the ceiling is 184.

use rxview_atg::RuleBody;
use rxview_bench::alloc_count::{allocated_by, kept_by, live_bytes, Counting};
use rxview_bench::collect::Collection;
use rxview_core::codec::{decode_system, encode_system};
use rxview_core::{
    translate_deletions, xdelete, Reachability, SideEffectPolicy, ViewStore, XmlUpdate,
    XmlViewSystem,
};
use rxview_engine::Engine;
use rxview_relstore::codec::{put_database, read_database};
use rxview_relstore::{tuple, Database, Reader, Tuple};
use rxview_workload::{
    synthetic_atg, synthetic_database, ChurnGen, SyntheticConfig, WorkloadClass, WorkloadGen,
    NODES_PER_INSERT,
};
use std::sync::{Mutex, PoisonError};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const GROUPS: usize = 128;
const GROUP_SIZE: usize = 40;

/// Allocator calls per node `ViewStore::publish` may make at 64 groups.
const PUBLISH_CALLS_PER_NODE: f64 = 1.71;

/// The counters are the process's: one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn clone_write_and_release_allocate_in_proportion_to_the_change() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // What `(I, V)` keep allocated — O(state) figures, counted before
    // anything else is alive. The fixture's `CU` shares `C`'s rows, so the
    // distinct rows are those of `C`, `F` and `H`.
    let cfg = SyntheticConfig::with_size(GROUPS * GROUP_SIZE);
    let (mut db, base) = kept_by(|| synthetic_database(&cfg));
    let (base_bytes, base_allocs) = (base.bytes, base.allocs);
    let rows_in = |db: &Database, t: &str| db.table(t).expect("synthetic table").len();
    let distinct_rows = rows_in(&db, "C") + rows_in(&db, "F") + rows_in(&db, "H");
    let allocs_per_row = base_allocs as f64 / distinct_rows as f64;
    // `I` as `XmlViewSystem::new` keeps it: the `F` rows equal to `C`'s
    // give their allocations back.
    let (shared, shared_bytes) = kept_by(|| db.share_equal_rows());
    let built_bytes_per_row = (base_bytes + shared_bytes.bytes) as f64 / db.total_rows() as f64;
    let atg = synthetic_atg(&db).expect("synthetic ATG");
    let (vs, view) = {
        let atg = atg.clone();
        kept_by(|| ViewStore::publish(atg, &db).expect("fixture publishes"))
    };
    let bytes_per_row = base_bytes as f64 / db.total_rows() as f64;
    let view_bytes = view.bytes;
    let bytes_per_node = view_bytes as f64 / vs.n_nodes() as f64;
    println!(
        "I: {base_bytes} B live in {base_allocs} allocations for {} rows ({distinct_rows} \
         distinct): {bytes_per_row:.1} B per row, {allocs_per_row:.3} allocations per distinct \
         row; {built_bytes_per_row:.1} B per row once {shared} rows share; V: {view_bytes} B \
         live for {} nodes, {bytes_per_node:.2} B per node",
        db.total_rows(),
        vs.n_nodes()
    );
    drop(vs);
    assert!(
        bytes_per_row <= 152.0,
        "I keeps {bytes_per_row:.1} B per base row allocated"
    );
    assert!(
        built_bytes_per_row <= 102.0,
        "I after XmlViewSystem::new keeps {built_bytes_per_row:.1} B per base row allocated"
    );
    assert!(
        allocs_per_row <= 1.10,
        "I keeps {allocs_per_row:.3} allocations per distinct row"
    );
    assert!(
        bytes_per_node <= 164.1,
        "V keeps {bytes_per_node:.1} B per view node allocated"
    );

    // Checkpoint load of `I`: a decoded row is one allocation, made once.
    let mut bytes = Vec::new();
    put_database(&mut bytes, &db);
    let (decoded, _, decode_calls) =
        allocated_by(|| read_database(&mut Reader::new(&bytes)).expect("decodes"));
    let decode_calls_per_row = decode_calls as f64 / decoded.total_rows() as f64;
    println!(
        "read_database: {decode_calls} calls for {} rows, {decode_calls_per_row:.3} per row",
        decoded.total_rows()
    );
    drop(decoded);
    assert!(
        decode_calls_per_row <= 1.10,
        "decoding I made {decode_calls_per_row:.3} allocator calls per row"
    );
    let mut sys = XmlViewSystem::new(atg, db).expect("fixture publishes");

    // A group head that takes children (about one in seven is a leaf whose
    // C/F join fails, under which an insertion is rightly rejected).
    let insert_under = |head: usize, fresh: i64| {
        XmlUpdate::insert("node", tuple![fresh, 7i64], &format!("node[id={head}]/sub"))
            .expect("path parses")
    };
    let head = (0..GROUPS)
        .map(|g| g * GROUP_SIZE)
        .find(|&h| {
            sys.clone()
                .apply(&insert_under(h, 1_999_999_999), SideEffectPolicy::Proceed)
                .is_ok()
        })
        .expect("some head is insertable");
    // Warm the plan and template caches and the lazy column indexes, so the
    // measured round is a steady-state one.
    sys.apply(
        &insert_under(head, 2_000_000_000),
        SideEffectPolicy::Proceed,
    )
    .expect("warm-up insert");

    // What `M` keeps allocated once built — an O(|M|) figure, so counted
    // on its own before the O(∆) ones.
    let (m, m_kept) = kept_by(|| Reachability::compute(sys.view().dag(), sys.topo()));
    let bytes_per_pair = m_kept.bytes as f64 / m.n_pairs() as f64;
    drop(m);

    let (pin, clone_bytes, clone_calls) = allocated_by(|| sys.clone());
    drop(pin);

    // The round the commit loop runs: the path is evaluated first (it only
    // reads), then clone, translate + apply, fold, release. The two
    // evaluations are counted on their own: the full §3.2 pass, and the
    // scope-aware entry point every read, `apply` and replayed update goes
    // through (anchor probe and scope projection included).
    let update = insert_under(head, 2_000_000_001);
    let (eval, _, full_eval_calls) = allocated_by(|| sys.evaluate(update.path()));
    let (scoped, _, scoped_eval_calls) = allocated_by(|| sys.eval(update.path()));
    assert_eq!(scoped.eval.selected, eval.selected);
    assert!(scoped.scope_nodes.is_some_and(|n| n < 200));
    let ((), round_bytes, round_calls) = allocated_by(|| {
        let pin = sys.clone();
        let (_, job) = sys
            .apply_deferred(&update, SideEffectPolicy::Proceed, eval)
            .expect("anchored insert under an insertable head");
        sys.fold_maintenance(vec![job]).expect("fold");
        drop(pin);
    });
    sys.consistency_check().expect("the written copy is sound");

    // Cold start (64 groups): what `σ(I)` allocates per node it publishes,
    // and what one evaluation of the recursive rule `Qsub_node` allocates —
    // the query the walk runs once per `sub` node.
    let db = synthetic_database(&SyntheticConfig::with_size(64 * GROUP_SIZE));
    let atg = synthetic_atg(&db).expect("synthetic ATG");
    let (vs, _, publish_calls) = {
        let atg = atg.clone();
        allocated_by(|| ViewStore::publish(atg, &db).expect("fixture publishes"))
    };
    let publish_calls_per_node = publish_calls as f64 / vs.n_nodes() as f64;
    let (sub, node) = (
        atg.dtd().type_id("sub").expect("synthetic DTD"),
        atg.dtd().type_id("node").expect("synthetic DTD"),
    );
    let gen_sub = vs.dag().genid().table(sub);
    let subs: Vec<&Tuple> = gen_sub.iter().collect();
    let Some(RuleBody::Query { plan, .. }) = atg.rule(sub, node) else {
        panic!("`sub -> node` is a query rule");
    };
    let bound = plan.bind(&db).expect("binds");
    // The buffer grows to the widest result once, before the count.
    let mut out = Vec::new();
    for attr in &subs {
        bound.run_into(attr.values(), &mut out).expect("runs");
    }
    let (rows, _, rule_calls) = allocated_by(|| {
        let mut rows = 0;
        for attr in &subs {
            bound.run_into(attr.values(), &mut out).expect("runs");
            rows += out.len();
        }
        rows
    });
    let calls_per_rule = rule_calls as f64 / subs.len() as f64;
    println!(
        "publish: {publish_calls} calls for {} nodes, {publish_calls_per_node:.2} per node; \
         Qsub_node: {calls_per_rule:.2} calls per bound evaluation ({} of them, {:.2} rows \
         each)",
        vs.n_nodes(),
        subs.len(),
        rows as f64 / subs.len() as f64
    );
    assert_eq!(
        rule_calls, rows,
        "bound Qsub_node runs made {rule_calls} allocator calls for {rows} result rows"
    );
    assert!(
        publish_calls_per_node <= PUBLISH_CALLS_PER_NODE,
        "publication made {publish_calls_per_node:.2} allocator calls per node"
    );

    println!(
        "M after compute: {} B live, {bytes_per_pair:.3} B per pair",
        m_kept.bytes
    );
    println!("sys.clone(): {clone_bytes} B in {clone_calls} calls");
    println!("clone + anchored insert + fold + drop: {round_bytes} B in {round_calls} calls");
    println!("full evaluate: {full_eval_calls} calls; scope-aware eval: {scoped_eval_calls} calls");
    assert!(
        full_eval_calls <= 100,
        "a full evaluation made {full_eval_calls} allocator calls"
    );
    assert!(
        scoped_eval_calls <= 150,
        "a scope-aware evaluation made {scoped_eval_calls} allocator calls"
    );
    assert!(clone_bytes <= 318_344, "clone allocated {clone_bytes} B");
    assert!(
        clone_calls <= 4_365,
        "clone made {clone_calls} allocator calls"
    );
    assert!(round_bytes <= 191_344, "round allocated {round_bytes} B");
    assert!(
        round_calls <= 1_000,
        "round made {round_calls} allocator calls"
    );
    assert!(
        bytes_per_pair <= 1.99,
        "M keeps {bytes_per_pair:.1} B per pair allocated"
    );
}

/// A state loaded from its checkpoint keeps allocated what the same state
/// keeps once published, to within 2 % either way: `decode_system` gives
/// every `gen_A` row the interner's `$A` tuple, and both constructors give
/// a row equal to the row at its key in an earlier table of its shape that
/// row's allocation (`CU`'s rows are `C`'s, and so are most of `F`'s). The
/// published state holds the `C.c6` index its publication built, which a
/// loaded one builds on its first probe: the loaded state is counted with
/// that probe made, so both hold the same parts. (Before the decoder
/// shared, the ratio was 1.16; while only the decoder shared, 0.82. While
/// the state held `M`, the probe was left out: `M`'s equal share on both
/// sides kept the missing index inside the band, which read 0.979 once `M`
/// was gone, and 1.000 with the probe.)
#[test]
fn a_decoded_state_keeps_what_the_published_state_keeps() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let publish = || {
        let db = synthetic_database(&SyntheticConfig::with_size(GROUPS * GROUP_SIZE));
        let atg = synthetic_atg(&db).expect("synthetic ATG");
        XmlViewSystem::new(atg, db).expect("fixture publishes")
    };
    let (sys, published) = kept_by(publish);
    let mut bytes = Vec::new();
    encode_system(&sys, &mut bytes);
    let atg = sys.view().atg();
    let decode = || {
        let back = decode_system(atg, &mut Reader::new(&bytes)).expect("decodes");
        // The first probe of the root's rule, which reads `C` by `c6`.
        let (dag, dtd) = (back.view().dag(), atg.dtd());
        let root = dag.genid().attr_of(dag.root());
        let node = dtd.type_id("node").expect("synthetic DTD");
        let Some(RuleBody::Query { plan, .. }) = atg.rule(dtd.root(), node) else {
            panic!("`db -> node` is a query rule");
        };
        plan.run(back.base(), root.values()).expect("runs");
        back
    };
    let (back, decoded) = kept_by(decode);
    let (published, decoded) = (published.bytes, decoded.bytes);
    let ratio = decoded as f64 / published as f64;
    println!("published state: {published} B live; decoded: {decoded} B live ({ratio:.3} x)");
    assert!(
        (0.98..=1.02).contains(&ratio),
        "a decoded state keeps {ratio:.3} x the published"
    );
    drop(back);
}

/// Comparing two states allocates nothing however large they are (a cost
/// model pinned as a count, ROADMAP item 17): each digest makes the same
/// number of allocator calls — none — at 32 groups and at four times that,
/// where a string or set entry per edge or row would grow with both.
#[test]
fn the_digests_make_no_allocator_call_at_either_size() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let calls = |groups: usize| {
        let db = synthetic_database(&SyntheticConfig::with_size(groups * GROUP_SIZE));
        let sys = XmlViewSystem::new(synthetic_atg(&db).expect("synthetic ATG"), db).unwrap();
        let (_, _, exact) = allocated_by(|| sys.exact_digest());
        let (_, _, observed) = allocated_by(|| sys.observed_digest());
        [exact, observed]
    };
    let (small, large) = (calls(GROUPS / 4), calls(GROUPS));
    assert_eq!(
        (small, large),
        ([0, 0], [0, 0]),
        "calls of [Exact, Observed]"
    );
}

/// `Reachability::compute` stores one run per node with a non-empty
/// ancestor set, each its own allocation (a cost model pinned as a count,
/// ROADMAP item 17), at 32 groups and at four times that: exactly one
/// allocation per such node kept, beside the vector of runs, and at most 64
/// allocator calls beyond them for that vector and the scratch the
/// recurrence merges in.
#[test]
fn computing_m_allocates_one_run_per_node_with_ancestors() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for groups in [GROUPS / 4, GROUPS] {
        let db = synthetic_database(&SyntheticConfig::with_size(groups * GROUP_SIZE));
        let sys = XmlViewSystem::new(synthetic_atg(&db).expect("synthetic ATG"), db).unwrap();
        let ((m, kept), _, calls) =
            allocated_by(|| kept_by(|| Reachability::compute(sys.view().dag(), sys.topo())));
        let genid = sys.view().dag().genid();
        let runs = genid
            .live_ids()
            .filter(|&v| !m.ancestors(v).is_empty())
            .count();
        println!(
            "{groups} groups: M computed in {calls} allocator calls, {} kept, for {runs} \
             non-empty runs",
            kept.allocs
        );
        assert_eq!(
            kept.allocs,
            runs as isize + 1,
            "{groups} groups: M keeps {} allocations for {runs} non-empty runs",
            kept.allocs
        );
        assert!(
            (runs..=runs + 64).contains(&calls),
            "{groups} groups: M took {calls} allocator calls for {runs} non-empty runs"
        );
    }
}

/// Collecting a subtree gives its memory back (a cost model pinned as a
/// count, ROADMAP item 17), at 32 groups and at four times that: the
/// deletions of half the groups' subtrees ([`Collection`]) make live bytes
/// fall by at least the collected nodes' `$A` allocations plus one page for
/// each range of ids they empty in each per-id table — the interner's
/// slots and the `Dag`'s child and parent slots (64 ids a page), `L`'s
/// labels (256). A free id that kept its `$A` until it
/// was handed out again, and a page of free ids that stayed a page of its
/// own, fell 64 896 B at 32 groups against the 75 152 B asked.
#[test]
fn collecting_subtrees_releases_their_pairs_and_pages() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for groups in [GROUPS / 4, GROUPS] {
        let mut c = Collection::of(groups);
        let ((), kept) = kept_by(|| c.run());
        c.sys
            .consistency_check()
            .expect("sound after the collections");
        let (fell, pairs, pages) = (
            -kept.bytes,
            c.attr_sizes.iter().sum::<usize>() as isize,
            c.page_bytes() as isize,
        );
        let collected = c.collected.len();
        println!(
            "{groups} groups: {collected} nodes collected, live bytes fell {fell} B; their \
             `$A` {pairs} B, the pages they empty {pages} B"
        );
        assert!(
            fell >= pairs + pages,
            "{groups} groups: live bytes fell {fell} B, under the {pairs} B of `$A` and \
             {pages} B of pages the {collected} collected nodes held"
        );
    }
}

/// Allocator calls an anchored W1 delete translation may make at 32
/// groups: the largest of the sixteen drawn, 91 for five edges, + 5 %.
/// When each source carried its table's name, the same five-edge deletion
/// made 124.
const DELETE_TRANSLATION_CALLS: usize = 96;

/// §4.2's Algorithm delete as a cost model (ARCHITECTURE §1, the §4.2 row;
/// ROADMAP item 17): the safety test of an anchored W1 deletion binds each
/// of the registry's delete probes — one per FROM occurrence of a base
/// table in an edge view — at most once, however many candidate sources it
/// tries, and the whole translation stays under an allocator-call ceiling.
/// Binds are read off the registry's hits: a translation runs one cell
/// program per deleted edge and counts each probe it binds.
#[test]
fn a_delete_translation_binds_each_probe_at_most_once() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let db = synthetic_database(&SyntheticConfig::with_size(GROUPS / 4 * GROUP_SIZE));
    let sys = XmlViewSystem::new(synthetic_atg(&db).expect("synthetic ATG"), db).unwrap();
    let (vs, base) = (sys.view(), sys.base());
    let views = vs.templates().edges().map(|(_, record)| record.view());
    let probes: usize = views.map(|q| q.from().len() - 1).sum();
    let deletions = WorkloadGen::new(vs, 7).deletions(WorkloadClass::W1, 16);
    let (mut translated, mut most_calls, mut most_binds) = (0, 0, 0);
    for u in &deletions {
        let delta = xdelete(&sys.evaluate(u.path()));
        // The first translation compiles the registry; count the rest.
        translate_deletions(vs, base, &delta).expect("W1 deletions translate");
        let hits = vs.templates().stats().hits;
        let (_, _, calls) = allocated_by(|| translate_deletions(vs, base, &delta));
        let binds = (vs.templates().stats().hits - hits) as usize - delta.deletes.len();
        println!(
            "`{}`: {} edges, {binds} binds, {calls} allocator calls",
            u.path(),
            delta.deletes.len()
        );
        assert!(
            binds <= probes,
            "`{}` bound {binds} probes; the registry holds {probes}",
            u.path()
        );
        translated += 1;
        most_calls = most_calls.max(calls);
        most_binds = most_binds.max(binds);
    }
    println!(
        "{translated} translations: at most {most_binds} binds of {probes} probes, \
         {most_calls} allocator calls"
    );
    assert!(translated > 0, "no W1 deletion drawn");
    assert!(
        most_calls <= DELETE_TRANSLATION_CALLS,
        "a W1 delete translation made {most_calls} allocator calls"
    );
}

/// Allocator calls an anchored W1 or W2 insertion's `apply_deferred` may
/// make at 32 groups: the largest of the sixteen drawn, 205 (the first;
/// the rest made 89–97), + 5 %. When each template carried its table's
/// name, the same sixteen made 219 and 103–111; when phase 2 planned its
/// join per call and materialised its rows, 294–410.
const INSERT_TRANSLATION_CALLS: usize = 216;

/// §4.3's Algorithm insert as a cost model (ARCHITECTURE §1, the §4.3 row;
/// ROADMAP items 1(d) and 17): an anchored W1 or W2 insertion of a fresh
/// node through `apply_deferred` — Xinsert, the side-effect join over the
/// registry's side-effect plans, compiled once, and `∆R` applied; the fold
/// and the evaluation are outside the count — stays under an
/// allocator-call ceiling. The translation itself is crate-private, so the
/// count holds Xinsert and the relational apply too; neither changes with
/// how phase 2 joins.
#[test]
fn an_insert_translation_stays_under_its_allocation_ceiling() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let db = synthetic_database(&SyntheticConfig::with_size(GROUPS / 4 * GROUP_SIZE));
    let mut sys = XmlViewSystem::new(synthetic_atg(&db).expect("synthetic ATG"), db).unwrap();
    let insertions = {
        let mut gen = WorkloadGen::new(sys.view(), 7);
        [WorkloadClass::W1, WorkloadClass::W2].map(|class| gen.insertions(class, 8))
    };
    // The registry compiles on its first use; count what follows it.
    sys.view().templates();
    let mut most_calls = 0;
    for u in insertions.concat() {
        let eval = sys.eval(u.path());
        let (applied, _, calls) =
            allocated_by(|| sys.apply_deferred(&u, SideEffectPolicy::Proceed, eval));
        let (report, job) = applied.expect("fresh-node insertions translate");
        let Ok(_) = sys.fold_maintenance(vec![job]);
        println!(
            "`{}`: {} edges, ∆R of {}, {calls} allocator calls",
            u.path(),
            report.delta_v_len,
            report.delta_r.len()
        );
        most_calls = most_calls.max(calls);
    }
    println!("at most {most_calls} allocator calls");
    assert!(
        most_calls <= INSERT_TRANSLATION_CALLS,
        "a W1/W2 insertion made {most_calls} allocator calls"
    );
}

/// Updates per window of the soak, and per engine round.
const WINDOW: usize = 32;

/// What a state counts: the id space's size, the live nodes, the rows of
/// `I`.
fn sizes(sys: &XmlViewSystem) -> [usize; 3] {
    let genid = sys.view().dag().genid();
    [genid.n_allocated(), genid.n_live(), sys.base().total_rows()]
}

/// Bytes of block words per pair of the state's `M`, as Algorithm Reach
/// computes it.
fn m_words_per_pair(sys: &XmlViewSystem) -> f64 {
    let m = Reachability::compute(sys.view().dag(), sys.topo());
    (8 * m.n_words()) as f64 / m.n_pairs() as f64
}

/// Serves ten times the view's node count in delete / re-insert churn with
/// fresh keys through `serve` — which commits a window and reports the
/// [`sizes`] of the state it leaves — in ten samples of one view-size of
/// updates each, after one more that grows the state to its working size
/// (caches, lazy indexes, the first fresh nodes): the free ids never exceed
/// two rounds' allocations, the process holds through the last sample
/// what it held through the first, and a pair of the state's `M` as
/// Algorithm Reach computes it — stored once, in its descendant's `anc`
/// run — costs at the last sample at most 1.25 × the words it cost at the
/// first — recycled ids keep subtrees on neighbouring ids, or `M`'s block
/// words would thin out towards their worst case of one id each. `serve`
/// also reports that cost when asked, for the last window of a sample.
///
/// "Holds" is a band, not a number: the paged runs of the tables and the
/// interner split as new rows land and merge as rows go — so a sample's
/// lowest reading is compared with the first sample's lowest, and highest
/// with highest.
///
/// Less one thing. `I` keeps the `CU` row of every key ever inserted: the
/// deletion of a fresh node removes its `H` row, the minimal `∆R` the paper
/// asks for, and leaves the node's own row to the application. Those rows
/// are counted, and what they keep (`row_bytes` each) is taken off.
fn soak(
    at: &str,
    sys: &XmlViewSystem,
    row_bytes: f64,
    mut serve: impl FnMut(Vec<XmlUpdate>, bool) -> ([usize; 3], f64),
) {
    let mut gen = ChurnGen::new(sys, GROUPS, GROUP_SIZE);
    let per_sample = sys.view().n_nodes().div_ceil(WINDOW);
    let slack = 2 * (WINDOW / 2) * NODES_PER_INSERT;
    let rows_at_start = sizes(sys)[2];
    let mut held = Vec::with_capacity(11);
    let mut m_bytes_per_pair = Vec::with_capacity(11);
    for sample in 0..=10 {
        let (mut most_free, mut rows) = (0, 0);
        let (mut lowest, mut highest) = (f64::MAX, 0f64);
        let mut per_pair = 0.0;
        for window in 0..per_sample {
            let last = window + 1 == per_sample;
            let ([allocated, live, base_rows], words) = serve(gen.window(WINDOW), last);
            most_free = most_free.max(allocated - live);
            rows = base_rows - rows_at_start;
            per_pair = words;
            let beside = live_bytes() as f64 - rows as f64 * row_bytes;
            (lowest, highest) = (lowest.min(beside), highest.max(beside));
        }
        held.push([lowest, highest]);
        m_bytes_per_pair.push(per_pair);
        println!(
            "{at}: {} updates served, at most {most_free} ids free, {lowest:.0} to \
             {highest:.0} B live beside {rows} kept rows, M {per_pair:.2} B of words per pair",
            (sample + 1) * per_sample * WINDOW,
        );
        assert!(most_free <= slack, "{at}: {most_free} ids free at once");
    }
    let (first, last) = (m_bytes_per_pair[1], m_bytes_per_pair[10]);
    assert!(
        last <= 1.25 * first,
        "{at}: a pair of M went {first:.2} -> {last:.2} B of words over nine view-sizes of updates"
    );
    for (end, what) in ["lowest", "highest"].into_iter().enumerate() {
        let (first, last) = (held[1][end], held[10][end]);
        let drift = last / first;
        assert!(
            (0.97..=1.03).contains(&drift),
            "{at}: a sample's {what} live bytes went {first:.0} -> {last:.0} ({drift:.3} x) over \
             nine view-sizes of updates"
        );
    }
}

#[test]
#[ignore = "the ten-fold soak takes minutes unoptimized; CI runs it in release"]
fn ten_view_sizes_of_churn_leave_ids_and_bytes_where_they_were() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let db = synthetic_database(&SyntheticConfig::with_size(GROUPS * GROUP_SIZE));
    let atg = synthetic_atg(&db).expect("synthetic ATG");
    let sys = XmlViewSystem::new(atg, db).expect("fixture publishes");

    // What one more `CU` row keeps — the row, its slot in a run, its entry
    // in every column index built so far — when the table is written
    // straight through, and when it is pinned by a snapshot once per round
    // (288.6 B and 289.6 B; a run copied on write has room for a full run,
    // where a copy at its length, regrown by doubling, kept 297.4 B).
    let row_bytes = |pinned: bool| {
        let mut base = sys.base().clone();
        let wide = |k: i64| Tuple::from_values((0..16).map(|c| (k * (c == 0) as i64).into()));
        base.insert("CU", wide(5_000_000_000)).expect("unshares");
        let n = 4096;
        let ((), kept) = kept_by(|| {
            let mut pin = None;
            for k in 1..=n {
                if pinned && (k as usize).is_multiple_of(WINDOW / 2) {
                    pin = Some(base.clone());
                }
                base.insert("CU", wide(5_000_000_000 + k))
                    .expect("fresh key");
            }
            drop(pin);
        });
        kept.bytes as f64 / n as f64
    };
    let (written_through, pinned) = (row_bytes(false), row_bytes(true));
    println!("a kept row of `CU`: {written_through:.1} B, {pinned:.1} B under snapshots");

    let mut applied = sys.clone();
    soak("apply", &sys, written_through, |window, last| {
        for u in &window {
            let done = applied.apply(u, SideEffectPolicy::Proceed);
            done.unwrap_or_else(|e| panic!("`{u}` rejected: {e}"));
        }
        let words = if last {
            m_words_per_pair(&applied)
        } else {
            0.0
        };
        (sizes(&applied), words)
    });
    applied.consistency_check().expect("after the soak");
    drop(applied);

    let engine = Engine::new(sys.clone());
    soak("engine", &sys, pinned, |window, last| {
        let submit = |u| engine.submit(u, SideEffectPolicy::Proceed).expect("room");
        let tickets: Vec<_> = window.into_iter().map(submit).collect();
        engine.commit_pending();
        for t in tickets {
            t.wait().expect("accepted");
        }
        let snap = engine.snapshot();
        let words = if last {
            m_words_per_pair(snap.system())
        } else {
            0.0
        };
        (sizes(snap.system()), words)
    });
    let snapshot = engine.snapshot();
    snapshot
        .system()
        .consistency_check()
        .expect("after the soak");
}
