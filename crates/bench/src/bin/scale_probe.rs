//! State census: what each part of `(I, V, L, M)` keeps allocated at 256
//! and 512 groups of the synthetic dataset, and how long building it took.
//!
//! The binary runs under the counting allocator of
//! [`rxview_bench::alloc_count`] and prints, per part, the bytes it keeps
//! live, the same bytes rounded up to glibc's malloc chunks — what resident
//! memory pays — the live allocations, and the allocator calls made while
//! building it. `I` is counted as generated and
//! after `Database::share_equal_rows`, which `XmlViewSystem::new` runs
//! before it publishes; `V` is then split by part (`V by part`). It then prints the state's checkpoint: the bytes of
//! each section `encode_system` writes — `I`, `V` (the interner's id space
//! and the child lists), `L` — and the medians of three `encode_system` and
//! `decode_system` runs, and what each way of comparing two states costs:
//! allocator calls and median ms of the `Exact` and `Observed` digests,
//! `consistency_check` and the two string fingerprints. Last, at 512
//! groups, the `free ids` row: what the state still holds per free id once
//! the subtrees of half the groups are deleted. ARCHITECTURE.md §15's
//! table reads these figures.
//!
//! ```text
//! cargo run --release -p rxview-bench --bin scale_probe
//! ```

use rxview_atg::{Dag, GenId, NodeId};
use rxview_bench::alloc_count::{allocated_by, chunk, kept_by, Counting, Kept};
use rxview_bench::collect::Collection;
use rxview_core::codec::{decode_system, encode_system};
use rxview_core::{Reachability, TopoOrder, ViewStore, XmlViewSystem};
use rxview_relstore::codec::{put_database, put_varint, Reader};
use rxview_relstore::PagedVec;
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

fn row(part: &str, c: &Census, per: &str) {
    println!(
        "  {part:<14} {:>11} {:>11} {:>9} {:>9} {:>8.1} ms  {per}",
        c.kept.bytes,
        c.kept.chunks,
        c.kept.allocs,
        c.calls,
        c.took.as_secs_f64() * 1e3
    );
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
fn v_parts_row(vs: &ViewStore, v: &Census) {
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
    ];
    let per_node = parts.map(|(part, b)| format!("{part} {:.1}", b as f64 / vs.n_nodes() as f64));
    println!("  V by part (chunk B per node): {}", per_node.join(", "));
}

/// The checkpoint row: `encode_system`'s bytes per section and its and
/// `decode_system`'s time. `I` and `L` are measured as the codec writes
/// them; `V` is what the payload holds beside them.
fn checkpoint_row(sys: &XmlViewSystem) {
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
}

/// The comparison row, ungated: per way of deciding "same state" — the two
/// digests, the republication oracle and the two string fingerprints
/// `rxbench`'s `state_hashes` still builds — the allocator calls of one run
/// and the median of three runs' ms.
fn comparison_row(sys: &XmlViewSystem) {
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
        format!("{name} {calls} calls {:.1} ms", median_ms(f))
    });
    println!("  comparison: {}", costs.join("; "));
}

/// The `free ids` row, at 512 groups once the subtrees of half of them are
/// deleted ([`Collection`]): per free id, in chunk bytes, what the state
/// still holds of the collected nodes' `$A` — their allocations less what
/// the deletions released of them, which a second run that keeps its own
/// handle on every collected `$A` tells apart from the rest — and what the
/// deletions gave back beyond it, beside the pages of the per-id tables
/// whose ids they left all free.
fn free_ids_row(groups: usize) {
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
    println!(
        "  free ids (the subtrees of {} of {groups} groups deleted): {} of {} ids free; per \
         free id the state still holds `$A` {:.1} B of the {:.1} B collected, and the \
         deletions gave back {:.1} B beyond it; the {n_pages} pages of ids they left free \
         are {:.1} B",
        c.updates.len(),
        genid.n_free(),
        genid.n_allocated(),
        (attrs - (all - beyond)) as f64 / free,
        attrs as f64 / free,
        beyond as f64 / free,
        pages as f64 / free,
    );
}

fn main() {
    const GROUP_SIZE: usize = 40;
    for groups in [256, 512] {
        let cfg = SyntheticConfig::with_size(groups * GROUP_SIZE);
        let (mut db, generated) = census(|| synthetic_database(&cfg));
        let (shared, sharing) = census(|| db.share_equal_rows());
        let atg = synthetic_atg(&db).expect("synthetic ATG");
        let (vs, v) = census(|| ViewStore::publish(atg, &db).expect("publishes"));
        let (topo, l) = census(|| TopoOrder::compute(vs.dag()));
        let (m, reach) = census(|| Reachability::compute(vs.dag(), &topo));
        let (rows, nodes, pairs) = (db.total_rows(), vs.n_nodes(), m.n_pairs());
        let shared_i = Census {
            kept: generated.kept + sharing.kept,
            calls: sharing.calls,
            took: sharing.took,
        };
        println!(
            "{groups} groups: {rows} base rows ({shared} share an equal row), {nodes} view \
             nodes, {} edges, {pairs} pairs of M in {} words",
            vs.n_edges(),
            m.n_words()
        );
        println!(
            "  {:<14} {:>11} {:>11} {:>9} {:>9} {:>11}",
            "part", "live B", "chunk B", "allocs", "calls", "built in"
        );
        let per_row = |c: &Census| format!("{:.1} B per row", c.kept.chunks as f64 / rows as f64);
        row("I generated", &generated, &per_row(&generated));
        row("I shared", &shared_i, &per_row(&shared_i));
        let per_node =
            |c: &Census| format!("{:.1} B per node", c.kept.chunks as f64 / nodes as f64);
        row("V", &v, &per_node(&v));
        row("L", &l, &per_node(&l));
        let per_pair = format!("{:.2} B per pair", reach.kept.chunks as f64 / pairs as f64);
        row("M", &reach, &per_pair);
        v_parts_row(&vs, &v);
        let total = shared_i.kept.chunks + v.kept.chunks + l.kept.chunks + reach.kept.chunks;
        println!("  (I, V, L, M): {total} B in chunks");
        let sys = XmlViewSystem::from_parts(db, vs, topo, m);
        checkpoint_row(&sys);
        comparison_row(&sys);
    }
    free_ids_row(512);
}
