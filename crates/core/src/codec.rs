//! Binary codec for the core update and system-state types — the durability
//! subsystem's serialization layer.
//!
//! Builds on the byte-level primitives and relational encodings of
//! [`rxview_relstore::codec`] (re-exported here) and adds:
//!
//! - [`put_update`]/[`read_update`]: the logical [`XmlUpdate`] + its
//!   [`SideEffectPolicy`] — what the engine's write-ahead log records per
//!   acknowledged round. Replaying the *logical* update through the normal
//!   apply path re-derives ∆V, ∆R, and the `M`/`L` maintenance; logging ∆R
//!   alone could rebuild the base tables but not the view. (The ∆R codec,
//!   [`rxview_relstore::update::GroupUpdate::encode`], lives beside the
//!   type and serves relational-level consumers.)
//! - [`encode_system`]/[`decode_system`]: the full checkpoint payload — the
//!   base database `I`, the `gen_A` tables, the DAG `V` (interner + edges),
//!   the topological order `L`, and the reachability matrix `M`. The
//!   grammar σ itself is *not* serialized: like the relational schema, it
//!   is code, and [`decode_system`] takes it as input — validating that the
//!   checkpoint's element-type table matches the grammar's DTD before
//!   trusting any [`rxview_xmlkit::TypeId`] on disk.
//!
//! XPath targets are encoded as their display form and re-parsed on decode;
//! the parser/printer round-trip is pinned by the xmlkit test suite.

use crate::processor::XmlViewSystem;
use crate::reach::{AncestorLoad, Reachability, RunBuf};
use crate::topo::TopoOrder;
use crate::update::{SideEffectPolicy, XmlUpdate};
use crate::viewstore::{gen_rows, ViewStore};
use rxview_atg::{Atg, Dag, GenId, NodeId};
use rxview_relstore::codec::{
    put_database, put_str, put_tuple, put_varint, read_database, read_table_sharing, read_tuple,
    skip_database, CodecError, Reader,
};
use rxview_relstore::Database;
use rxview_xmlkit::TypeId;

pub use rxview_relstore::codec::{crc32, CodecResult};

// ---------------------------------------------------------------------------
// Logical updates (WAL records).
// ---------------------------------------------------------------------------

const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;
const TAG_POLICY_ABORT: u8 = 0;
const TAG_POLICY_PROCEED: u8 = 1;

/// Encodes a [`SideEffectPolicy`] (one byte).
pub fn put_policy(out: &mut Vec<u8>, policy: SideEffectPolicy) {
    out.push(match policy {
        SideEffectPolicy::Abort => TAG_POLICY_ABORT,
        SideEffectPolicy::Proceed => TAG_POLICY_PROCEED,
    });
}

/// Decodes a [`SideEffectPolicy`].
pub fn read_policy(r: &mut Reader<'_>) -> CodecResult<SideEffectPolicy> {
    match r.read_u8()? {
        TAG_POLICY_ABORT => Ok(SideEffectPolicy::Abort),
        TAG_POLICY_PROCEED => Ok(SideEffectPolicy::Proceed),
        t => Err(CodecError::Invalid(format!("unknown policy tag {t}"))),
    }
}

/// Encodes an [`XmlUpdate`] (tag + payload; the target path in its display
/// form).
pub fn put_update(out: &mut Vec<u8>, update: &XmlUpdate) {
    match update {
        XmlUpdate::Insert { ty, attr, path } => {
            out.push(TAG_INSERT);
            put_str(out, ty);
            put_tuple(out, attr);
            put_str(out, &path.to_string());
        }
        XmlUpdate::Delete { path } => {
            out.push(TAG_DELETE);
            put_str(out, &path.to_string());
        }
    }
}

/// Decodes an [`XmlUpdate`], re-parsing the target path.
pub fn read_update(r: &mut Reader<'_>) -> CodecResult<XmlUpdate> {
    let parse = |s: &str| {
        rxview_xmlkit::parse_xpath(s)
            .map_err(|e| CodecError::Invalid(format!("logged path `{s}` does not parse: {e}")))
    };
    match r.read_u8()? {
        TAG_INSERT => {
            let ty = r.read_str()?.to_owned();
            let attr = read_tuple(r)?;
            let path = parse(r.read_str()?)?;
            Ok(XmlUpdate::Insert { ty, attr, path })
        }
        TAG_DELETE => Ok(XmlUpdate::Delete {
            path: parse(r.read_str()?)?,
        }),
        t => Err(CodecError::Invalid(format!("unknown update tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// DAG, L, M (checkpoint payloads).
// ---------------------------------------------------------------------------

/// Encodes the published [`Dag`]: the DTD's type-name table (validated on
/// decode), the `gen_id` interner's id space in id order — `(type, $A, 1)`
/// for a live id; a free one as the three bytes of `(0, (), 0)` — the root,
/// and every ordered child list.
fn put_dag(out: &mut Vec<u8>, dag: &Dag, dtd: &rxview_xmlkit::Dtd) {
    put_varint(out, dtd.n_types() as u64);
    for ty in dtd.types() {
        put_str(out, dtd.name(ty));
    }
    let genid = dag.genid();
    let n_alloc = genid.n_allocated();
    put_varint(out, n_alloc as u64);
    for id in (0..n_alloc as u32).map(NodeId) {
        if genid.is_live(id) {
            put_varint(out, genid.type_of(id).0 as u64);
            put_tuple(out, genid.attr_of(id));
            out.push(1);
        } else {
            out.extend_from_slice(&[0, 0, 0]);
        }
    }
    if dag.n_nodes() > 0 {
        out.push(1);
        put_varint(out, dag.root().0 as u64);
    } else {
        out.push(0);
    }
    let parents: Vec<NodeId> = (0..n_alloc as u32)
        .map(NodeId)
        .filter(|&u| !dag.children(u).is_empty())
        .collect();
    put_varint(out, parents.len() as u64);
    for u in parents {
        put_varint(out, u.0 as u64);
        let children = dag.children(u);
        put_varint(out, children.len() as u64);
        for &c in children {
            put_varint(out, c.0 as u64);
        }
    }
}

/// Reads the id of a live node.
fn read_node(r: &mut Reader<'_>, genid: &GenId) -> CodecResult<NodeId> {
    let id = r.read_varint()?;
    let node = u32::try_from(id).map(NodeId);
    node.ok()
        .filter(|&n| genid.is_live(n))
        .ok_or_else(|| CodecError::Invalid(format!("node id {id} names no live node")))
}

/// Decodes a [`Dag`], bulk-loading the interner from its id space (every
/// live node gets the [`NodeId`] it was written under; every slot written
/// dead — whatever pair an older writer left in it — is a free id) and the
/// adjacency from the child lists (which reproduces their order and the
/// typed edge relations).
fn read_dag(r: &mut Reader<'_>, dtd: &rxview_xmlkit::Dtd) -> CodecResult<Dag> {
    let n_types = r.read_varint()? as usize;
    if n_types != dtd.n_types() {
        return Err(CodecError::Invalid(format!(
            "checkpoint has {n_types} element types, grammar has {}",
            dtd.n_types()
        )));
    }
    for ty in dtd.types() {
        let name = r.read_str()?;
        if name != dtd.name(ty) {
            return Err(CodecError::Invalid(format!(
                "element type {} is `{name}` on disk but `{}` in the grammar",
                ty.0,
                dtd.name(ty)
            )));
        }
    }
    let n_alloc = r.read_varint()? as usize;
    if n_alloc > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let mut slots = Vec::with_capacity(n_alloc);
    for _ in 0..n_alloc {
        let ty = r.read_varint()?;
        if ty >= n_types as u64 {
            return Err(CodecError::Invalid(format!("type id {ty} out of range")));
        }
        let attr = read_tuple(r)?;
        slots.push(match r.read_u8()? {
            0 => None,
            1 => Some((TypeId(ty as u32), attr)),
            b => return Err(CodecError::Invalid(format!("bad liveness byte {b}"))),
        });
    }
    let genid = GenId::from_slots(slots).map_err(|slot| {
        CodecError::Invalid(format!(
            "duplicate (type, attr) pair at interner slot {slot}"
        ))
    })?;
    let root = match r.read_u8()? {
        1 => Some(read_node(r, &genid)?),
        _ => None,
    };
    let n_parents = r.read_varint()? as usize;
    if n_parents > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let mut edges = Vec::new();
    for _ in 0..n_parents {
        let u = read_node(r, &genid)?;
        let n_children = r.read_varint()? as usize;
        if n_children > r.remaining() {
            return Err(CodecError::Truncated);
        }
        for _ in 0..n_children {
            edges.push((u, read_node(r, &genid)?));
        }
    }
    // Rejects what the encoder never writes and a per-edge load would have
    // absorbed silently: an edge or a parent listed twice.
    Dag::from_adjacency(genid, root, &edges)
        .map_err(|(u, v)| CodecError::Invalid(format!("edge ({}, {}) listed twice", u.0, v.0)))
}

/// Encodes the reachability matrix `M` as per-descendant ancestor sets
/// (delta-coded, ascending — the paper's "only set bits" representation).
fn put_reach(out: &mut Vec<u8>, dag: &Dag, reach: &Reachability) {
    let entries: Vec<NodeId> = dag
        .genid()
        .live_ids()
        .filter(|&d| !reach.ancestors(d).is_empty())
        .collect();
    put_varint(out, entries.len() as u64);
    let mut pairs = 0usize;
    for d in entries {
        let anc = reach.ancestors(d);
        put_varint(out, d.0 as u64);
        put_varint(out, anc.len() as u64);
        let mut prev = 0u64;
        for a in anc {
            put_varint(out, a.0 as u64 - prev);
            prev = a.0 as u64;
        }
        pairs += anc.len();
    }
    debug_assert_eq!(pairs, reach.n_pairs(), "M pairs confined to live nodes");
}

/// Decodes the reachability matrix: every listed ancestor set is packed into
/// block words as its ids are read and stored as written; the `desc`
/// direction is derived from them once.
fn read_reach(r: &mut Reader<'_>, genid: &GenId) -> CodecResult<Reachability> {
    let n_alloc = genid.n_allocated();
    let n_entries = r.read_varint()? as usize;
    if n_entries > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let mut load = AncestorLoad::default();
    let mut anc = RunBuf::default();
    for _ in 0..n_entries {
        let d = read_node(r, genid)?;
        let n_anc = r.read_varint()? as usize;
        if n_anc > r.remaining() {
            return Err(CodecError::Truncated);
        }
        anc.clear();
        let mut prev = 0u64;
        for i in 0..n_anc {
            let delta = r.read_varint()?;
            // Checked: a hostile delta must become a CodecError, not an
            // overflow panic (the codec is total over arbitrary bytes).
            let a = prev
                .checked_add(delta)
                .ok_or_else(|| CodecError::Invalid("ancestor delta overflows".into()))?;
            // The first id is absolute (delta from 0); later ids must
            // strictly ascend.
            if (i > 0 && delta == 0) || a >= n_alloc as u64 {
                return Err(CodecError::Invalid(format!(
                    "ancestor id {a} out of order or range"
                )));
            }
            anc.push(NodeId(a as u32));
            prev = a;
        }
        // Rejects what the encoder never writes and a per-pair load would
        // have absorbed silently: a `d` listed twice, a `d` among its own
        // ancestors.
        load.add(d, anc.as_run()).map_err(CodecError::Invalid)?;
    }
    Ok(load.finish())
}

// ---------------------------------------------------------------------------
// Full system state.
// ---------------------------------------------------------------------------

/// Serializes the complete system state `(I, V, M, L)` — base database,
/// `gen_A` tables, DAG, topological order, reachability matrix — into
/// `out`. The grammar is intentionally excluded (see the module docs).
pub fn encode_system(sys: &XmlViewSystem, out: &mut Vec<u8>) {
    let vs = sys.view();
    put_database(out, sys.base());
    put_database(out, vs.gen_db());
    put_dag(out, vs.dag(), vs.atg().dtd());
    let order = sys.topo().order();
    put_varint(out, order.len() as u64);
    for &n in order {
        put_varint(out, n.0 as u64);
    }
    put_reach(out, vs.dag(), sys.reach());
}

/// Decodes the `gen_A` tables against the interner they register: a type's
/// table must list exactly the `$A` tuples of its live nodes, and its rows
/// *are* those tuples (one allocation per attribute, as after
/// [`ViewStore::publish`]) — each is compared where it was decoded against
/// the interner's next tuple in key order, and nothing is allocated for it.
fn read_gen_db(r: &mut Reader<'_>, atg: &Atg, dag: &Dag) -> CodecResult<Database> {
    let types = atg.dtd().types();
    let registries: Vec<_> = types
        .map(|ty| (atg.gen_table_name(ty), gen_rows(dag, ty)))
        .collect();
    // The nodes a table registers, by its name — none, and then nothing is
    // shared and the table refused, if it names no type.
    let rows_of = |name: &str| {
        let named = registries.iter().find(|(table, _)| table == name);
        named.map_or(&[][..], |(_, rows)| rows)
    };
    let n_tables = r.read_varint()? as usize;
    if n_tables != registries.len() {
        return Err(CodecError::Invalid(format!(
            "{n_tables} gen tables for {} element types",
            registries.len()
        )));
    }
    let mut gen_db = Database::new();
    for _ in 0..n_tables {
        let (table, shared) = read_table_sharing(r, |schema| rows_of(schema.name()).iter())?;
        let registered = rows_of(table.schema().name()).len();
        if (shared, table.len()) != (registered, registered) {
            return Err(CodecError::Invalid(format!(
                "`{}` does not list the interner's live nodes of its type",
                table.schema().name()
            )));
        }
        gen_db
            .add_table(table)
            .map_err(|e| CodecError::Invalid(format!("duplicate table: {e}")))?;
    }
    Ok(gen_db)
}

/// Reassembles a system from [`encode_system`] bytes under `atg`, which
/// must be the grammar the state was produced with (the embedded type-name
/// table is checked against it).
pub fn decode_system(atg: &Atg, r: &mut Reader<'_>) -> CodecResult<XmlViewSystem> {
    let base = read_database(r)?;
    // The `gen_A` tables are written before the interner whose tuples their
    // rows are: step over them, and decode them once it is rebuilt.
    let mut gen_section = r.fork();
    skip_database(r)?;
    let gen_end = r.position();
    let dag = read_dag(r, atg.dtd())?;
    let gen_db = read_gen_db(&mut gen_section, atg, &dag)?;
    if gen_section.position() != gen_end {
        return Err(CodecError::Invalid(
            "gen tables decode to another length".into(),
        ));
    }
    let n_order = r.read_varint()? as usize;
    if n_order > r.remaining() {
        return Err(CodecError::Truncated);
    }
    if n_order != dag.n_nodes() {
        return Err(CodecError::Invalid(format!(
            "L has {n_order} entries for {} live nodes",
            dag.n_nodes()
        )));
    }
    let mut order = Vec::with_capacity(n_order);
    for _ in 0..n_order {
        order.push(read_node(r, dag.genid())?);
    }
    let topo = TopoOrder::from_order(order);
    let reach = read_reach(r, dag.genid())?;
    let vs = ViewStore::from_parts(atg.clone(), dag, gen_db);
    Ok(XmlViewSystem::from_parts(base, vs, topo, reach))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::tuple;

    fn system() -> XmlViewSystem {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        XmlViewSystem::new(atg, db).unwrap()
    }

    #[test]
    fn updates_round_trip() {
        let cases = [
            XmlUpdate::delete("//student[ssn=S02]").unwrap(),
            XmlUpdate::delete("course[cno=CS650]/prereq/course[cno=CS320]").unwrap(),
            XmlUpdate::insert(
                "course",
                tuple!["CS240", "Data Structures"],
                "course[cno=CS650]//course[cno=CS320]/prereq",
            )
            .unwrap(),
        ];
        for u in &cases {
            for policy in [SideEffectPolicy::Abort, SideEffectPolicy::Proceed] {
                let mut out = Vec::new();
                put_policy(&mut out, policy);
                put_update(&mut out, u);
                let mut r = Reader::new(&out);
                assert_eq!(read_policy(&mut r).unwrap(), policy);
                assert_eq!(&read_update(&mut r).unwrap(), u);
                assert!(r.is_empty());
            }
        }
    }

    #[test]
    fn truncated_updates_error_not_panic() {
        let u = XmlUpdate::insert("course", tuple!["CS240", "DS"], "//course").unwrap();
        let mut out = Vec::new();
        put_update(&mut out, &u);
        for cut in 0..out.len() {
            assert!(read_update(&mut Reader::new(&out[..cut])).is_err());
        }
    }

    #[test]
    fn system_state_round_trips() {
        let mut sys = system();
        // Mutate past the initial publication so free ids and reused ones
        // are exercised.
        sys.apply(
            &XmlUpdate::delete("//student[ssn=S02]").unwrap(),
            SideEffectPolicy::Proceed,
        )
        .unwrap();
        sys.apply(
            &XmlUpdate::insert(
                "course",
                tuple!["CS999", "Recovery"],
                "course[cno=CS650]/prereq",
            )
            .unwrap(),
            SideEffectPolicy::Proceed,
        )
        .unwrap();

        let mut bytes = Vec::new();
        encode_system(&sys, &mut bytes);
        let atg = sys.view().atg().clone();
        let mut r = Reader::new(&bytes);
        let back = decode_system(&atg, &mut r).unwrap();
        assert!(r.is_empty());

        assert_eq!(back.view().n_nodes(), sys.view().n_nodes());
        assert_eq!(back.view().n_edges(), sys.view().n_edges());
        assert_eq!(back.topo().order(), sys.topo().order());
        assert!(back.reach().same_pairs(sys.reach()));
        assert_eq!(back.base().total_rows(), sys.base().total_rows());
        back.consistency_check().unwrap();

        // The decoded system keeps evolving correctly: the live nodes kept
        // their ids, so the same logical update hits the same nodes.
        let mut a = sys.clone();
        let mut b = back;
        let u = XmlUpdate::delete("course[cno=CS650]/prereq/course[cno=CS999]").unwrap();
        a.apply(&u, SideEffectPolicy::Proceed).unwrap();
        b.apply(&u, SideEffectPolicy::Proceed).unwrap();
        assert_eq!(a.view().n_edges(), b.view().n_edges());
        b.consistency_check().unwrap();
    }

    #[test]
    fn reach_round_trips_through_the_bulk_load() {
        let sys = system();
        let dag = sys.view().dag();
        let mut bytes = Vec::new();
        put_reach(&mut bytes, dag, sys.reach());
        let mut r = Reader::new(&bytes);
        let back = read_reach(&mut r, dag.genid()).unwrap();
        assert!(r.is_empty());
        assert!(back.same_pairs(sys.reach()));
    }

    /// `M` bytes as the encoder lays them out: each `d` with its ancestor
    /// ids delta-coded.
    fn reach_bytes(entries: &[(u64, &[u64])]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, entries.len() as u64);
        for (d, anc) in entries {
            put_varint(&mut out, *d);
            put_varint(&mut out, anc.len() as u64);
            let mut prev = 0;
            for a in *anc {
                put_varint(&mut out, a - prev);
                prev = *a;
            }
        }
        out
    }

    #[test]
    fn hostile_reach_entries_error_not_panic() {
        let ten = (0..10i64).map(|i| Some((TypeId(0), tuple![i])));
        let genid = GenId::from_slots(ten).unwrap();
        let decode =
            |entries: &[(u64, &[u64])]| read_reach(&mut Reader::new(&reach_bytes(entries)), &genid);
        let m = decode(&[(5, &[1, 2]), (7, &[1, 5])]).unwrap();
        assert_eq!(m.n_pairs(), 4);
        // What the encoder never writes and a per-pair load would absorb:
        // a `d` listed twice, a `d` among its own ancestors.
        let twice: &[(u64, &[u64])] = &[(5, &[1]), (5, &[2])];
        let own_ancestor: &[(u64, &[u64])] = &[(5, &[1, 5])];
        // Rejected before the bulk load, and still: a repeated id, ids
        // beyond the interner.
        let repeated: &[(u64, &[u64])] = &[(5, &[2, 2])];
        let anc_out_of_range: &[(u64, &[u64])] = &[(5, &[1, 10])];
        let d_out_of_range: &[(u64, &[u64])] = &[(10, &[1])];
        for hostile in [
            twice,
            own_ancestor,
            repeated,
            anc_out_of_range,
            d_out_of_range,
        ] {
            assert!(
                matches!(decode(hostile), Err(CodecError::Invalid(_))),
                "{hostile:?} must be rejected"
            );
        }
    }

    #[test]
    fn grammar_mismatch_is_detected() {
        let sys = system();
        let mut bytes = Vec::new();
        encode_system(&sys, &mut bytes);
        // A different grammar (the synthetic one) must be rejected by the
        // type-name table check, not trusted blindly.
        let other_db = registrar_database();
        let other = registrar_atg(&other_db).unwrap();
        // Same grammar decodes fine…
        assert!(decode_system(&other, &mut Reader::new(&bytes)).is_ok());
        // …while corrupting one type name in place is caught.
        let name = sys.view().atg().dtd().name(sys.view().atg().dtd().root());
        let pos = bytes
            .windows(name.len())
            .position(|w| w == name.as_bytes())
            .unwrap();
        bytes[pos] ^= 0xFF;
        assert!(matches!(
            decode_system(&other, &mut Reader::new(&bytes)),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn corrupt_system_bytes_error_not_panic() {
        let sys = system();
        let mut bytes = Vec::new();
        encode_system(&sys, &mut bytes);
        let atg = sys.view().atg().clone();
        // Every truncation point must fail cleanly.
        for cut in (0..bytes.len()).step_by(7) {
            assert!(decode_system(&atg, &mut Reader::new(&bytes[..cut])).is_err());
        }
    }
}
