//! State census: what each part of `(I, V, L)` keeps allocated at 256 and
//! 512 groups of the synthetic dataset, and how long building it took.
//!
//! The binary runs under the counting allocator of
//! [`rxview_bench::alloc_count`] and prints, per part, the bytes it keeps
//! live, the same bytes rounded up to glibc's malloc chunks — what resident
//! memory pays — the live allocations, and the allocator calls made while
//! building it. `V` is counted as published, and `I` as generated and
//! after `Database::share_equal_rows`, which `XmlViewSystem::new` runs
//! once it has published; `V` is then split by part (`V by part`). The
//! system holds no reachability matrix `M`; the first line still names it
//! as Algorithm Reach computes it — pairs and words, and, counted like the
//! parts, the bytes and allocations it keeps and the ms `compute` took. It
//! then prints the state's checkpoint: the bytes of
//! each section `encode_system` writes — `I`, `V` (the interner's id space
//! and the child lists), `L` — and the medians of three `encode_system` and
//! `decode_system` runs, and what each way of comparing two states costs:
//! allocator calls and median ms of the `Exact` and `Observed` digests,
//! `consistency_check` and the two string fingerprints, and the
//! construction row: the ms of publication's walk, the interner's pages,
//! `Dag::from_adjacency`, the whole publication, the equal-row pass, the
//! first `H.h2` probe and the translation registry's compile (with the
//! base tables it numbers, its edge records and what it compiled: one cell
//! program per record, its side-effect plans and its delete probes) on a
//! fresh fixture. Last, at 512
//! groups, the `free ids` row: what the state still holds per free id once
//! the subtrees of half the groups are deleted. ARCHITECTURE.md §15's
//! table reads these figures.
//!
//! `--json <file>` also writes what it prints to `<file>`, one object per
//! size (`parts`, `v_by_part`, `m`, `checkpoint`, `comparison`, `construction`)
//! and `free_ids`,
//! the same names and figures as the printed rows.
//!
//! ```text
//! cargo run --release -p rxview-bench --bin scale_probe
//! cargo run --release -p rxview-bench --bin scale_probe -- --json census.json
//! ```

use rxview_atg::{generate_subtree, Dag, GenId, Interner, NodeId, Provisional};
use rxview_bench::alloc_count::{allocated_by, chunk, kept_by, Counting, Kept};
use rxview_bench::collect::Collection;
use rxview_bench::pairs::Json;
use rxview_core::codec::{decode_system, encode_system};
use rxview_core::{Reachability, TopoOrder, ViewStore, XmlViewSystem};
use rxview_relstore::codec::{put_database, put_varint, Reader};
use rxview_relstore::{PagedVec, Tuple, Value};
use rxview_workload::{
    base_fingerprint, edge_fingerprint, synthetic_atg, synthetic_database, SyntheticConfig,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What building one part kept and cost.
struct Census {
    kept: Kept,
    calls: usize,
    took: Duration,
}

/// Runs `f`, counting what its result keeps allocated.
fn census<T>(f: impl FnOnce() -> T) -> (T, Census) {
    let t0 = Instant::now();
    let ((out, kept), _, calls) = allocated_by(|| kept_by(f));
    let took = t0.elapsed();
    (out, Census { kept, calls, took })
}

/// One row of the parts table: the part, what building it kept and cost,
/// and its chunk bytes per row or node.
struct Part<'a> {
    name: &'static str,
    census: &'a Census,
    per: String,
}

/// The parts table as printed: a header and one line per part.
fn parts_table(parts: &[Part<'_>]) -> String {
    let mut out = format!(
        "  {:<14} {:>11} {:>11} {:>9} {:>9} {:>11}\n",
        "part", "live B", "chunk B", "allocs", "calls", "built in"
    );
    for Part { name, census, per } in parts {
        out.push_str(&format!(
            "  {name:<14} {:>11} {:>11} {:>9} {:>9} {:>8.1} ms  {per}\n",
            census.kept.bytes,
            census.kept.chunks,
            census.kept.allocs,
            census.calls,
            ms(census.took)
        ));
    }
    out
}

/// The parts table as JSON, the same names and figures.
fn parts_json(parts: &[Part<'_>]) -> Json {
    Json::Arr(
        parts
            .iter()
            .map(|Part { name, census, .. }| {
                Json::obj([
                    ("part", Json::Str((*name).into())),
                    ("live_b", num(census.kept.bytes)),
                    ("chunk_b", num(census.kept.chunks)),
                    ("allocs", num(census.kept.allocs)),
                    ("calls", num(census.calls)),
                    ("build_ms", Json::Num(ms(census.took))),
                ])
            })
            .collect(),
    )
}

fn num(n: impl TryInto<i64>) -> Json {
    Json::Num(n.try_into().unwrap_or(i64::MAX) as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median of three runs of `f`, in ms.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[1]
}

/// The `V by part` row, in chunk bytes per node: the `Dag`'s child slots
/// and their parent mirror, the interner's `(type, $A)` slots, the
/// `$A` → id index (the `gen_A` tables), and the rest of `V` — the `$A`
/// allocations not shared with `I`, and the grammar's edge views. Each part
/// but the rest is rebuilt alone from handles into `vs`, so it counts what
/// it holds beside the tuples they share.
fn v_parts_row(vs: &ViewStore, v: &Census) -> Json {
    let (dag, genid) = (vs.dag(), vs.dag().genid());
    let edges: Vec<_> = dag.all_edges().collect();
    let ids = (0..genid.n_allocated() as u32).map(NodeId);
    let slots: Vec<_> = ids
        .map(|id| {
            genid
                .is_live(id)
                .then(|| (genid.type_of(id), genid.attr_of(id).clone()))
        })
        .collect();
    let kept = |c: Census| c.kept.chunks;
    let handles = kept(census(|| genid.clone()).1);
    let adjacency = kept(census(|| Dag::from_adjacency(genid.clone(), Some(dag.root()), &edges)).1);
    let adjacency = adjacency - handles;
    let info = kept(census(|| slots.iter().cloned().collect::<PagedVec<_>>()).1);
    let schemas = vs.atg().gen_table_schemas();
    let interner = kept(census(|| GenId::from_slots(schemas, slots.iter().cloned(), |_| None)).1);
    let parts = [
        ("Dag slots", adjacency),
        ("interner slots", info),
        ("$A index", interner - info),
        (
            "rest ($A not in I, edge views)",
            v.kept.chunks - adjacency - interner,
        ),
    ]
    .map(|(part, b)| (part, b as f64 / vs.n_nodes() as f64));
    let per_node = parts.map(|(part, b)| format!("{part} {b:.1}"));
    println!("  V by part (chunk B per node): {}", per_node.join(", "));
    Json::obj(parts.map(|(part, b)| (part, Json::Num(b))))
}

/// The checkpoint row: `encode_system`'s bytes per section and its and
/// `decode_system`'s time. `I` and `L` are measured as the codec writes
/// them; `V` is what the payload holds beside them.
fn checkpoint_row(sys: &XmlViewSystem) -> Json {
    let mut bytes = Vec::new();
    encode_system(sys, &mut bytes);
    let mut i = Vec::new();
    put_database(&mut i, sys.base());
    let mut l = Vec::new();
    put_varint(&mut l, sys.topo().len() as u64);
    for &n in sys.topo().order() {
        put_varint(&mut l, n.0 as u64);
    }
    let v = bytes.len() - i.len() - l.len();
    let encode = median_ms(|| encode_system(sys, &mut Vec::with_capacity(bytes.len())));
    let atg = sys.view().atg();
    let decode = median_ms(|| {
        decode_system(atg, &mut Reader::new(&bytes)).expect("decodes");
    });
    println!(
        "  checkpoint: {} B (I {} B, V {v} B, L {} B); encode_system {encode:.1} ms, \
         decode_system {decode:.1} ms",
        bytes.len(),
        i.len(),
        l.len()
    );
    Json::obj([
        ("bytes", num(bytes.len())),
        ("i_bytes", num(i.len())),
        ("v_bytes", num(v)),
        ("l_bytes", num(l.len())),
        ("encode_system_ms", Json::Num(encode)),
        ("decode_system_ms", Json::Num(decode)),
    ])
}

/// The comparison row, ungated: per way of deciding "same state" — the two
/// digests, the republication oracle and the two string fingerprints
/// `rxbench`'s `state_hashes` still builds — the allocator calls of one run
/// and the median of three runs' ms.
fn comparison_row(sys: &XmlViewSystem) -> Json {
    let ways: [(&str, &dyn Fn()); 5] = [
        ("Exact", &|| _ = black_box(sys.exact_digest())),
        ("Observed", &|| _ = black_box(sys.observed_digest())),
        ("consistency_check", &|| {
            sys.consistency_check().expect("consistent")
        }),
        ("edge_fingerprint", &|| _ = black_box(edge_fingerprint(sys))),
        ("base_fingerprint", &|| _ = black_box(base_fingerprint(sys))),
    ];
    let costs = ways.map(|(name, f)| {
        let ((), _, calls) = allocated_by(f);
        (name, calls, median_ms(f))
    });
    let text = costs.map(|(name, calls, ms)| format!("{name} {calls} calls {ms:.1} ms"));
    println!("  comparison: {}", text.join("; "));
    Json::Arr(
        costs
            .iter()
            .map(|&(name, calls, ms)| {
                Json::obj([
                    ("way", Json::Str(name.into())),
                    ("calls", num(calls)),
                    ("ms", Json::Num(ms)),
                ])
            })
            .collect(),
    )
}

/// The `free ids` row, at 512 groups once the subtrees of half of them are
/// deleted ([`Collection`]): per free id, in chunk bytes, what the state
/// still holds of the collected nodes' `$A` — their allocations less what
/// the deletions released of them, which a second run that keeps its own
/// handle on every collected `$A` tells apart from the rest — and what the
/// deletions gave back beyond it, beside the pages of the per-id tables
/// whose ids they left all free.
fn free_ids_row(groups: usize) -> Json {
    let fell = |hold: bool| {
        let mut c = Collection::of(groups);
        let genid = c.sys.view().dag().genid();
        let held: Vec<_> = match hold {
            true => c
                .collected
                .iter()
                .map(|&v| genid.attr_of(v).clone())
                .collect(),
            false => Vec::new(),
        };
        let ((), kept) = kept_by(|| c.run());
        drop(held);
        (c, -kept.chunks)
    };
    let ((c, all), (_, beyond)) = (fell(false), fell(true));
    let genid = c.sys.view().dag().genid();
    let free = genid.n_free() as f64;
    let attrs: isize = c.attr_sizes.iter().map(|&size| chunk(size)).sum();
    let pages: isize = c.emptied.iter().map(|&(b, n)| chunk(b) * n as isize).sum();
    let n_pages: usize = c.emptied.iter().map(|&(_, n)| n).sum();
    let [held, collected, beyond, pages_per_id] =
        [attrs - (all - beyond), attrs, beyond, pages].map(|b| b as f64 / free);
    println!(
        "  free ids (the subtrees of {} of {groups} groups deleted): {} of {} ids free; per \
         free id the state still holds `$A` {held:.1} B of the {collected:.1} B collected, and \
         the deletions gave back {beyond:.1} B beyond it; the {n_pages} pages of ids they left \
         free are {pages_per_id:.1} B",
        c.updates.len(),
        genid.n_free(),
        genid.n_allocated(),
    );
    Json::obj([
        ("groups", num(groups)),
        ("deletions", num(c.updates.len())),
        ("free_ids", num(genid.n_free())),
        ("allocated_ids", num(genid.n_allocated())),
        ("a_held_b_per_free_id", Json::Num(held)),
        ("a_collected_b_per_free_id", Json::Num(collected)),
        ("given_back_beyond_b_per_free_id", Json::Num(beyond)),
        ("emptied_pages", num(n_pages)),
        ("emptied_pages_b_per_free_id", Json::Num(pages_per_id)),
    ])
}

/// The construction row, ungated: how long each step `XmlViewSystem::new`
/// and the first warm-up take, in ms, on a fresh fixture — publication's
/// walk (`generate_subtree` interning into a `Provisional` over an empty
/// interner: the rule runs and the hashed interning, no page), the
/// interner's pages (`GenId::from_slots` over the walk's id space: its
/// builder and `finish`, which sorts the `gen_A` tables),
/// `Dag::from_adjacency`, the whole publication, the equal-row pass after
/// it, the first probe of `H` by `h2`, which builds that column's index,
/// and the translation registry's compile — every edge view derived once
/// — with the base tables it numbers, its edge records and its compiled
/// cell programs and plans.
fn construction_row(groups: usize) -> Json {
    const GROUP_SIZE: usize = 40;
    let mut db = synthetic_database(&SyntheticConfig::with_size(groups * GROUP_SIZE));
    let atg = synthetic_atg(&db).expect("synthetic ATG");
    let timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        ms(t0.elapsed())
    };
    let empty = GenId::new(atg.gen_table_schemas());
    let mut walked = None;
    let walk = timed(&mut || {
        let mut interner = Provisional::new(&empty);
        let root = atg.dtd().root();
        let sub = generate_subtree(&atg, &db, &mut interner, root, Tuple::empty());
        let sub = sub.expect("publishes");
        let slots: Vec<_> = sub
            .nodes
            .iter()
            .map(|&v| Some((interner.type_of(v), interner.attr_of(v).clone())))
            .collect();
        walked = Some((sub.root, sub.edges, slots));
    });
    let (root, edges, slots) = walked.expect("walked");
    let mut genid = None;
    let finish = timed(&mut || {
        let schemas = atg.gen_table_schemas();
        genid = Some(GenId::from_slots(schemas, slots.iter().cloned(), |_| None).expect("loads"));
    });
    let genid = genid.expect("built");
    let adjacency = timed(&mut || {
        let dag = Dag::from_adjacency(genid.clone(), Some(root), &edges);
        black_box(dag.expect("a walk's edges"));
    });
    let mut vs = None;
    let publish =
        timed(&mut || vs = Some(ViewStore::publish(atg.clone(), &db).expect("publishes")));
    let share = timed(&mut || _ = black_box(db.share_equal_rows()));
    let h = db.table("H").expect("synthetic table");
    let probe = timed(&mut || _ = black_box(h.scan_col_eq(1, &Value::Int(1))));
    let vs = vs.expect("published");
    let registry = timed(&mut || _ = black_box(vs.templates()));
    let (tables, records, compiled) = (
        vs.templates().tables().len(),
        vs.templates().edges().count(),
        vs.templates().stats().compiles,
    );
    let steps = [
        ("walk", walk),
        ("from_slots", finish),
        ("from_adjacency", adjacency),
        ("publish", publish),
        ("share", share),
        ("first_h2_probe", probe),
        ("registry", registry),
    ];
    let text = steps.map(|(name, ms)| format!("{name} {ms:.1} ms"));
    println!(
        "  construction: {} ({tables} base tables, {records} edge records, {compiled} compiled)",
        text.join(", ")
    );
    let counts = [
        ("registry_tables", num(tables)),
        ("registry_records", num(records)),
        ("registry_compiled", num(compiled)),
    ];
    Json::obj(
        steps
            .map(|(name, ms)| (name, Json::Num(ms)))
            .into_iter()
            .chain(counts),
    )
}

/// One size's census: prints its rows and returns them as JSON.
fn probe(groups: usize) -> Json {
    const GROUP_SIZE: usize = 40;
    let cfg = SyntheticConfig::with_size(groups * GROUP_SIZE);
    let (mut db, generated) = census(|| synthetic_database(&cfg));
    let atg = synthetic_atg(&db).expect("synthetic ATG");
    let (vs, v) = census(|| ViewStore::publish(atg, &db).expect("publishes"));
    let (shared, sharing) = census(|| db.share_equal_rows());
    let (topo, l) = census(|| TopoOrder::compute(vs.dag()));
    let (rows, nodes) = (db.total_rows(), vs.n_nodes());
    let (m, m_built) = census(|| Reachability::compute(vs.dag(), &topo));
    let shared_i = Census {
        kept: generated.kept + sharing.kept,
        calls: sharing.calls,
        took: sharing.took,
    };
    println!(
        "{groups} groups: {rows} base rows ({shared} share an equal row), {nodes} view \
         nodes, {} edges; M, not held, would be {} pairs in {} words: {} B live, {} B in \
         chunks, {} allocations, compute {:.1} ms",
        vs.n_edges(),
        m.n_pairs(),
        m.n_words(),
        m_built.kept.bytes,
        m_built.kept.chunks,
        m_built.kept.allocs,
        ms(m_built.took)
    );
    let m_json = Json::obj([
        ("pairs", num(m.n_pairs())),
        ("words", num(m.n_words())),
        ("live_b", num(m_built.kept.bytes)),
        ("chunk_b", num(m_built.kept.chunks)),
        ("allocs", num(m_built.kept.allocs)),
        ("compute_ms", Json::Num(ms(m_built.took))),
    ]);
    drop(m);
    let per_row = |c: &Census| format!("{:.1} B per row", c.kept.chunks as f64 / rows as f64);
    let per_node = |c: &Census| format!("{:.1} B per node", c.kept.chunks as f64 / nodes as f64);
    let parts = [
        ("I generated", &generated, per_row(&generated)),
        ("I shared", &shared_i, per_row(&shared_i)),
        ("V", &v, per_node(&v)),
        ("L", &l, per_node(&l)),
    ]
    .map(|(name, census, per)| Part { name, census, per });
    print!("{}", parts_table(&parts));
    let v_by_part = v_parts_row(&vs, &v);
    let total = shared_i.kept.chunks + v.kept.chunks + l.kept.chunks;
    println!("  (I, V, L): {total} B in chunks");
    let parts = parts_json(&parts);
    let sys = XmlViewSystem::from_parts(db, vs, topo, Reachability::default());
    Json::obj([
        ("groups", num(groups)),
        ("base_rows", num(rows)),
        ("view_nodes", num(nodes)),
        ("parts", parts),
        ("v_by_part", v_by_part),
        ("state_chunk_b", num(total)),
        ("m", m_json),
        ("checkpoint", checkpoint_row(&sys)),
        ("comparison", comparison_row(&sys)),
        ("construction", construction_row(groups)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--json" => Some(path.clone()),
        _ => {
            eprintln!("usage: scale_probe [--json <file>]");
            std::process::exit(2);
        }
    };
    let sizes: Vec<Json> = [256, 512].into_iter().map(probe).collect();
    let free_ids = free_ids_row(512);
    if let Some(path) = json_path {
        let out = Json::obj([("sizes", Json::Arr(sizes)), ("free_ids", free_ids)]);
        std::fs::write(&path, out.pretty()).expect("the census file is writable");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSON names the parts the printed table names, in its order, with
    /// the same figures.
    #[test]
    fn the_json_names_the_printed_parts() {
        let c = |n: isize| Census {
            kept: Kept {
                bytes: n,
                chunks: n + 8,
                allocs: 1,
            },
            calls: 2,
            took: Duration::from_millis(3),
        };
        let censuses = [c(100), c(200), c(300), c(400)];
        let names = ["I generated", "I shared", "V", "L"];
        let parts: Vec<Part<'_>> = names
            .iter()
            .zip(&censuses)
            .map(|(&name, census)| Part {
                name,
                census,
                per: "1.0 B per node".into(),
            })
            .collect();
        let printed: Vec<(String, String)> = parts_table(&parts)
            .lines()
            .skip(1)
            .map(|line| {
                let (name, figures) = line.trim().split_at(14);
                let live = figures.split_whitespace().next().unwrap_or_default();
                (name.trim().to_owned(), live.to_owned())
            })
            .collect();
        let json = Json::parse(&parts_json(&parts).compact()).expect("JSON parses back");
        let written: Vec<(String, String)> = json
            .as_arr()
            .expect("an array of parts")
            .iter()
            .map(|p| {
                let name = p.get("part").and_then(Json::as_str).unwrap_or_default();
                let live = p.get("live_b").and_then(Json::as_f64).unwrap_or_default();
                (name.to_owned(), format!("{live}"))
            })
            .collect();
        assert_eq!(printed, written);
        assert_eq!(printed.len(), names.len());
    }
}
