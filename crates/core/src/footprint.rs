//! Typed relational conflict footprints.
//!
//! The §3.3/§4 translation layer knows exactly which relational rows an
//! update reads and writes: deletion translation picks its `∆R` from the
//! *deletable sources* of the matched edges (key preservation, §4.1), and
//! insertion translation derives ground row keys for every template through
//! the equality closure of the edge views (Appendix A) — both read through
//! the edge's one cell program in the translation registry. A [`RelFootprint`]
//! captures that knowledge as a set of typed `(table, column, value)` keys,
//! replacing the serving layer's former *textual* value-key heuristic — which
//! both over-serialized (any textual reuse of an inserted attribute value
//! forced ordering, even across unrelated columns) and under-detected
//! (relational key overlap between two updates' `∆R`s was only caught at
//! merge time).
//!
//! Two footprints are computed per update:
//!
//! - the **planned** footprint, extracted *without applying anything* by a
//!   footprint-only dry run against the snapshot a commit round will apply
//!   to ([`planned_delete_writes`], [`planned_insert_writes`],
//!   [`RelFootprint::add_anchor_reads`]). It is conservative: a superset of
//!   everything the real translation can write (candidate sources instead of
//!   the chosen one; template keys for possibly-already-present rows). An
//!   insertion's subtree is not planned by a walk of its own: the dry run
//!   runs the translation's `rxview_atg::generate_subtree` over a
//!   [`rxview_atg::Provisional`] interner, so the `gen_A` rows it plans are
//!   exactly the ones the translation interns;
//! - the **realized** footprint, read off an applied translation's `∆R` and
//!   subtree ([`RelFootprint::realized`]) — the oracle the planned one is
//!   held to: it must cover every write the realized one records
//!   ([`RelFootprint::covers_writes`], `crates/engine/tests/footprint.rs`).
//!
//! Conflict semantics ([`RelFootprint::conflicts`]): read/read never
//! conflicts; read/write conflicts on the same `(table, column, value)` key;
//! write/write conflicts on the same `(table, row key)` — two writes to
//! *different* rows of one table commute.

use crate::rel_delete::candidate_source_keys;
use crate::update::ViewDelta;
use crate::viewstore::ViewStore;
use rxview_atg::{Interner, NodeId, RuleBody, SubtreeDag};
use rxview_relstore::{Database, GroupUpdate, RelResult, Tuple, TupleOp, Value, ValueType};
use rxview_xmlkit::TypeId;
use std::collections::BTreeSet;

/// One typed column binding of one table: the unit of read/write overlap.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct ColKey {
    /// Table name (a base relation or a `gen_A` node table).
    pub table: String,
    /// Column index within that table.
    pub column: usize,
    /// The typed value bound at that column.
    pub value: Value,
}

/// The typed relational footprint of one update (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct RelFootprint {
    /// `(table, column, value)` predicates the update's target resolution
    /// reads (anchor-filter probes against the `gen_A` tables).
    reads: BTreeSet<ColKey>,
    /// Tables read wholesale (conservative fallback where a filter cannot be
    /// pinned to one column); any write to such a table conflicts.
    read_tables: BTreeSet<String>,
    /// Key-column projections of every row the update may write.
    write_cols: BTreeSet<ColKey>,
    /// Full row identities the update may write, as `(table, row key)`.
    write_rows: BTreeSet<(String, Tuple)>,
}

impl RelFootprint {
    /// Whether the footprint records no reads and no writes.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
            && self.read_tables.is_empty()
            && self.write_cols.is_empty()
            && self.write_rows.is_empty()
    }

    /// Records a row write: the full row identity plus one typed key per
    /// key column. `key` must be the row's primary key in `key_cols` order.
    pub fn add_write_row(&mut self, table: &str, key_cols: &[usize], key: Tuple) {
        for (j, &kc) in key_cols.iter().enumerate() {
            self.write_cols.insert(ColKey {
                table: table.to_owned(),
                column: kc,
                value: key[j].clone(),
            });
        }
        self.write_rows.insert((table.to_owned(), key));
    }

    /// Records the `gen_A` row write for interning the pair `(ty, attr)`.
    /// Gen tables are all-key, so every column becomes a typed key.
    pub fn add_gen_write(&mut self, vs: &ViewStore, ty: TypeId, attr: &Tuple) {
        let table = vs.atg().gen_table_name(ty);
        let row = if attr.arity() == 0 {
            Tuple::from_values([Value::Int(0)])
        } else {
            attr.clone()
        };
        let cols: Vec<usize> = (0..row.arity()).collect();
        self.add_write_row(&table, &cols, row);
    }

    /// Records the typed reads of an anchor pattern: the path's first
    /// labelled step has type `first_ty` and is qualified by `field = value`
    /// filters. A filter on a single-field projection child reads exactly
    /// one `(gen_first_ty, column, value)` key — the only way a new node can
    /// start matching it is a write of that key. Filters that cannot be
    /// pinned to a column (multi-field projections, query-rule children)
    /// degrade to whole-table reads of the gen table and the rule's base
    /// tables.
    pub fn add_anchor_reads(
        &mut self,
        vs: &ViewStore,
        first_ty: TypeId,
        keys: &[(String, String)],
    ) {
        let atg = vs.atg();
        let gen_table = atg.gen_table_name(first_ty);
        for (field, value) in keys {
            match pin_filter(atg, first_ty, field, value) {
                FilterPin::Column(column, value) => {
                    self.reads.insert(ColKey {
                        table: gen_table.clone(),
                        column,
                        value,
                    });
                }
                // `Never` can stay never (no write revives an unknown field
                // or renders a typed cell to an unparseable literal), and a
                // structural filter has no pruning power either way: no
                // reads needed for either.
                FilterPin::Never | FilterPin::Structural => {}
                FilterPin::Unpinnable { rule_tables } => {
                    self.read_tables.insert(gen_table.clone());
                    self.read_tables.extend(rule_tables);
                }
            }
        }
    }

    /// Records a wholesale read of `table`: any write to it conflicts. The
    /// conservative fallback for target resolutions that depend on a
    /// table's entire contents — an unfiltered `//label` head reads the
    /// whole `gen_label` registry, because any interning or garbage
    /// collection of that type changes its match set.
    pub fn add_table_read(&mut self, table: String) {
        self.read_tables.insert(table);
    }

    /// Whether this footprint conflicts with `other`: a shared written row,
    /// or a read key of one matching a write key of the other.
    pub fn conflicts(&self, other: &RelFootprint) -> bool {
        self.writes_conflict(other) || self.rw_conflicts(other)
    }

    /// The read/write half of [`conflicts`](Self::conflicts): a read key of
    /// one side matching a write key of the other (either direction),
    /// including the wholesale table-read fallback. These are the true
    /// dependencies — one update's writes would change what the other
    /// resolved against.
    pub fn rw_conflicts(&self, other: &RelFootprint) -> bool {
        intersects(&self.reads, &other.write_cols)
            || intersects(&other.reads, &self.write_cols)
            || self.touches_tables(&other.read_tables)
            || other.touches_tables(&self.read_tables)
    }

    /// The write/write half of [`conflicts`](Self::conflicts): a row key
    /// written by both sides. A *planned* overlap here may be spurious
    /// (candidate-source rows name every row the translation could touch),
    /// so the router tolerates it for fission-eligible peers under a shared
    /// cone: their round applies them one after another, so the later
    /// translation sees what the earlier one really wrote.
    pub fn writes_conflict(&self, other: &RelFootprint) -> bool {
        intersects(&self.write_rows, &other.write_rows)
    }

    /// Whether any write of `self` lands in one of `tables`.
    fn touches_tables(&self, tables: &BTreeSet<String>) -> bool {
        !tables.is_empty() && self.write_rows.iter().any(|(t, _)| tables.contains(t))
    }

    /// Merges `other` into `self` (batch-footprint accumulation).
    pub fn absorb(&mut self, other: &RelFootprint) {
        self.reads.extend(other.reads.iter().cloned());
        self.read_tables.extend(other.read_tables.iter().cloned());
        self.write_cols.extend(other.write_cols.iter().cloned());
        self.write_rows.extend(other.write_rows.iter().cloned());
    }

    /// Whether every write recorded in `realized` was planned here — the
    /// conservativeness contract between a planned footprint and the
    /// translation it admitted (checked by the footprint battery).
    pub fn covers_writes(&self, realized: &RelFootprint) -> bool {
        realized.write_rows.is_subset(&self.write_rows)
            && realized.write_cols.is_subset(&self.write_cols)
    }

    /// Whether the row write `(table, key)` is covered by this footprint.
    pub fn covers_row(&self, table: &str, key: &Tuple) -> bool {
        self.write_rows.contains(&(table.to_owned(), key.clone()))
    }

    /// The realized footprint of a finished translation: the `∆R` rows it
    /// writes plus the `gen_A` rows of the subtree nodes it interned
    /// (`subtree.fresh`, read through `vs`, where they are live).
    pub fn realized(
        vs: &ViewStore,
        base: &Database,
        delta_r: &GroupUpdate,
        subtree: Option<&SubtreeDag>,
    ) -> RelResult<RelFootprint> {
        let mut fp = RelFootprint::default();
        for op in delta_r.ops() {
            match op {
                TupleOp::Insert { table, tuple } => {
                    let schema = base.table(table)?.schema();
                    fp.add_write_row(table, schema.key(), schema.key_of(tuple));
                }
                TupleOp::Delete { table, key } => {
                    let schema = base.table(table)?.schema();
                    fp.add_write_row(table, schema.key(), key.clone());
                }
            }
        }
        if let Some(st) = subtree {
            let genid = vs.dag().genid();
            for &n in &st.fresh {
                fp.add_gen_write(vs, genid.type_of(n), genid.attr_of(n));
            }
        }
        Ok(fp)
    }

    /// Test/diagnostic access: the full row keys this footprint writes.
    pub fn write_rows(&self) -> impl Iterator<Item = &(String, Tuple)> {
        self.write_rows.iter()
    }
}

fn intersects<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().any(|k| large.contains(k))
}

/// What one `field = value` filter on nodes of `ty` pins down. This is the
/// *single* source of filter-pinning semantics, shared by
/// [`RelFootprint::add_anchor_reads`] and the anchor resolver's probes
/// ([`crate::pathclass::resolve_anchors`], for anchored, wildcard-rooted and
/// `//` heads alike) — the conflict-freeness of planning depends on the
/// probe consulting exactly the keys the footprint records as reads, so the
/// two must never diverge.
pub(crate) enum FilterPin {
    /// Single-field `pcdata` projection: the filter matches exactly the
    /// nodes whose gen-table `column` holds `value`.
    Column(usize, Value),
    /// The filter can never match (unknown field, or no typed cell of the
    /// column renders to the literal).
    Never,
    /// Structural (non-`pcdata`) filter: no pruning power; ignoring it
    /// keeps any candidate set a superset.
    Structural,
    /// A `pcdata` child not pinnable to one column (query rule or
    /// multi-field projection): resolution must not prune on it, and a
    /// footprint depending on it reads the gen table plus the rule's base
    /// tables wholesale.
    Unpinnable {
        /// Base tables of the child's query rule (empty for multi-field
        /// projections).
        rule_tables: Vec<String>,
    },
}

/// Classifies one anchor-filter key against the grammar (see [`FilterPin`]).
pub(crate) fn pin_filter(atg: &rxview_atg::Atg, ty: TypeId, field: &str, value: &str) -> FilterPin {
    let dtd = atg.dtd();
    let Some(field_ty) = dtd.type_id(field) else {
        return FilterPin::Never;
    };
    if !dtd.is_pcdata(field_ty) {
        return FilterPin::Structural;
    }
    match atg.rule(ty, field_ty) {
        Some(RuleBody::Project { fields }) if fields.len() == 1 => {
            let col = fields[0];
            match parse_as(atg.attr_types(ty)[col], value) {
                Some(v) => FilterPin::Column(col, v),
                None => FilterPin::Never,
            }
        }
        Some(RuleBody::Query { query, .. }) => FilterPin::Unpinnable {
            rule_tables: query.from().iter().map(|tr| tr.table.clone()).collect(),
        },
        _ => FilterPin::Unpinnable {
            rule_tables: Vec::new(),
        },
    }
}

/// Parses an XPath filter literal as a typed cell value. `None` means no
/// typed value of that column type renders to this text, so the filter can
/// never match it.
fn parse_as(ty: ValueType, text: &str) -> Option<Value> {
    match ty {
        ValueType::Str => Some(Value::from(text)),
        // Round-trip check: `Value::Int(40)` renders as "40", never "+40"
        // or "040".
        ValueType::Int => {
            let v: i64 = text.parse().ok()?;
            (v.to_string() == text).then_some(Value::Int(v))
        }
        ValueType::Bool => match text {
            "true" => Some(Value::Bool(true)),
            "false" => Some(Value::Bool(false)),
            _ => None,
        },
    }
}

/// Adds the planned write keys of `delete p` given its matched edges
/// `Ep(r)`: for every edge, *all* candidate deletable sources — a superset
/// of whichever source Algorithm delete (Fig.9) will pick. Returns `false`
/// when lineage cannot be derived (the caller should degrade the update to a
/// global footprint).
pub fn planned_delete_writes(
    vs: &ViewStore,
    base: &Database,
    edge_parents: &[(NodeId, NodeId)],
    out: &mut RelFootprint,
) -> bool {
    let delta = ViewDelta {
        inserts: Vec::new(),
        deletes: edge_parents.to_vec(),
    };
    candidate_source_keys(vs, &delta).is_some_and(|sources| add_sources(vs, base, sources, out))
}

/// Adds a write of each source's row, its table named by the registry;
/// `false` if a table is unknown.
fn add_sources(
    vs: &ViewStore,
    base: &Database,
    sources: Vec<(usize, Tuple)>,
    out: &mut RelFootprint,
) -> bool {
    let names = vs.templates().tables();
    for (table, key) in sources {
        let Ok(t) = base.table(&names[table]) else {
            return false;
        };
        out.add_write_row(&names[table], t.schema().key(), key);
    }
    true
}

/// Adds the planned write keys of `insert (A, t) into p`, given `st`, the
/// subtree `ST(A, t)` that `rxview_atg::generate_subtree` walks into `ids`
/// — a [`rxview_atg::Provisional`] interner over the snapshot, so the walk
/// is the translation's own and writes nothing:
///
/// - the `gen_A` rows of every node of `st.fresh`;
/// - the ground template keys of every subtree edge and of every
///   connecting edge `(target, root)` — derivable without evaluation because
///   the edge views are key-preserving (§4.1).
///
/// Returns `false` when a template key cannot be grounded, or an edge's
/// row contradicts its edge view so the translation rejects (the caller
/// should degrade the update to a global footprint).
pub fn planned_insert_writes(
    vs: &ViewStore,
    base: &Database,
    st: &SubtreeDag,
    ids: &impl Interner,
    targets: &[NodeId],
    out: &mut RelFootprint,
) -> bool {
    let genid = vs.dag().genid();
    let pair = |n: NodeId| (ids.type_of(n), ids.attr_of(n));
    let subtree_edges = st.edges.iter().map(|&(u, v)| (pair(u), pair(v)));
    let connecting = targets.iter().map(|&t| {
        let target = (genid.type_of(t), genid.attr_of(t));
        (target, pair(st.root))
    });
    for ((pty, pattr), (cty, cattr)) in subtree_edges.chain(connecting) {
        if !add_edge_keys(vs, base, pty, pattr, cty, cattr, out) {
            return false;
        }
    }
    for &n in &st.fresh {
        out.add_gen_write(vs, ids.type_of(n), ids.attr_of(n));
    }
    true
}

/// Adds the ground template keys of one production edge (see
/// [`planned_insert_writes`]). Projection edges (implied by the parent row)
/// and missing rules (the real translation rejects, writing nothing)
/// contribute no keys.
fn add_edge_keys(
    vs: &ViewStore,
    base: &Database,
    pty: TypeId,
    pattr: &Tuple,
    cty: TypeId,
    cattr: &Tuple,
    out: &mut RelFootprint,
) -> bool {
    match vs.atg().rule(pty, cty) {
        Some(RuleBody::Query { .. }) => {
            let record = vs.templates().edge((pty, cty));
            let record = record.expect("a rule's edge has a record");
            let keys = record.template_keys(pattr.values(), cattr.values());
            keys.is_some_and(|keys| add_sources(vs, base, keys, out))
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::tuple;

    fn store() -> (Database, ViewStore) {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let vs = ViewStore::publish(atg, &db).unwrap();
        (db, vs)
    }

    #[test]
    fn reads_conflict_with_writes_on_the_same_key_only() {
        let (_db, vs) = store();
        let course = vs.atg().dtd().type_id("course").unwrap();
        let mut reader = RelFootprint::default();
        reader.add_anchor_reads(&vs, course, &[("cno".into(), "MA100".into())]);

        let mut writer = RelFootprint::default();
        writer.add_gen_write(&vs, course, &tuple!["MA100", "Calculus"]);
        assert!(reader.conflicts(&writer), "read of written key conflicts");

        let mut other = RelFootprint::default();
        other.add_gen_write(&vs, course, &tuple!["CS999", "Other"]);
        assert!(
            !reader.conflicts(&other),
            "same column, different value: no conflict"
        );

        // The same *value* in a different column must not conflict — the
        // textual heuristic's false positive.
        let title = RelFootprint::default();
        let mut title_writer = title.clone();
        title_writer.add_gen_write(&vs, course, &tuple!["CS998", "MA100"]);
        assert!(
            !reader.conflicts(&title_writer),
            "cno filter vs title value: typed keys keep them independent"
        );
    }

    #[test]
    fn write_write_conflicts_on_the_same_row_only() {
        let mut a = RelFootprint::default();
        a.add_write_row("enroll", &[0, 1], tuple!["S01", "CS320"]);
        let mut b = RelFootprint::default();
        b.add_write_row("enroll", &[0, 1], tuple!["S01", "CS650"]);
        assert!(!a.conflicts(&b), "different rows of one table commute");
        let mut c = RelFootprint::default();
        c.add_write_row("enroll", &[0, 1], tuple!["S01", "CS320"]);
        assert!(a.conflicts(&c), "same row conflicts");
    }

    #[test]
    fn conflict_halves_partition_the_full_check() {
        let (_db, vs) = store();
        let course = vs.atg().dtd().type_id("course").unwrap();

        // Pure write/write overlap: writes_conflict fires, rw_conflicts
        // does not — the half optimistic fission admission tolerates.
        let mut a = RelFootprint::default();
        a.add_write_row("enroll", &[0, 1], tuple!["S01", "CS320"]);
        let mut b = RelFootprint::default();
        b.add_write_row("enroll", &[0, 1], tuple!["S01", "CS320"]);
        assert!(a.writes_conflict(&b));
        assert!(!a.rw_conflicts(&b));
        assert!(a.conflicts(&b));

        // Pure read/write dependency: rw_conflicts fires, writes_conflict
        // does not — never tolerated, in either admission mode.
        let mut reader = RelFootprint::default();
        reader.add_anchor_reads(&vs, course, &[("cno".into(), "MA100".into())]);
        let mut writer = RelFootprint::default();
        writer.add_gen_write(&vs, course, &tuple!["MA100", "Calculus"]);
        assert!(reader.rw_conflicts(&writer));
        assert!(!reader.writes_conflict(&writer));
        assert!(reader.conflicts(&writer));

        // The wholesale table-read fallback is a dependency, not a write
        // overlap.
        let mut table_reader = RelFootprint::default();
        table_reader.add_table_read("enroll".into());
        assert!(table_reader.rw_conflicts(&a));
        assert!(!table_reader.writes_conflict(&a));
    }

    #[test]
    fn planned_delete_covers_all_candidate_sources() {
        let (db, vs) = store();
        let course = vs.atg().dtd().type_id("course").unwrap();
        let prereq = vs.atg().dtd().type_id("prereq").unwrap();
        let p650 = vs
            .dag()
            .genid()
            .lookup(prereq, tuple!["CS650"].values())
            .unwrap();
        let c320 = vs
            .dag()
            .genid()
            .lookup(course, tuple!["CS320", "Algorithms"].values())
            .unwrap();
        let mut fp = RelFootprint::default();
        assert!(planned_delete_writes(&vs, &db, &[(p650, c320)], &mut fp));
        // Candidate sources of the prereq edge: the prereq tuple and the
        // course tuple.
        assert!(fp.covers_row("prereq", &tuple!["CS650", "CS320"]));
    }

    #[test]
    fn planned_insert_covers_gen_and_template_rows() {
        let (db, vs) = store();
        let course = vs.atg().dtd().type_id("course").unwrap();
        let prereq = vs.atg().dtd().type_id("prereq").unwrap();
        let p650 = vs
            .dag()
            .genid()
            .lookup(prereq, tuple!["CS650"].values())
            .unwrap();
        let attr = tuple!["MA100", "Calculus"];
        let mut ids = rxview_atg::Provisional::new(vs.dag().genid());
        let st =
            rxview_atg::generate_subtree(vs.atg(), &db, &mut ids, course, attr.clone()).unwrap();
        assert!(st.fresh.contains(&st.root));
        assert_eq!(
            st.root.index(),
            vs.dag().genid().n_allocated(),
            "provisional"
        );
        let mut fp = RelFootprint::default();
        assert!(planned_insert_writes(&vs, &db, &st, &ids, &[p650], &mut fp));
        // The connecting edge prereq(CS650) -> course(MA100) writes the
        // prereq tuple; interning writes the gen_course row.
        assert!(fp.covers_row("prereq", &tuple!["CS650", "MA100"]));
        assert!(fp.covers_row("gen_course", &attr));
    }

    #[test]
    fn parse_as_round_trips() {
        assert_eq!(parse_as(ValueType::Int, "40"), Some(Value::Int(40)));
        assert_eq!(parse_as(ValueType::Int, "+40"), None);
        assert_eq!(parse_as(ValueType::Int, "040"), None);
        assert_eq!(parse_as(ValueType::Str, "x"), Some(Value::from("x")));
    }
}
