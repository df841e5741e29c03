//! Binary codec for the core update and system-state types — the durability
//! subsystem's serialization layer.
//!
//! Builds on the byte-level primitives and relational encodings of
//! [`rxview_relstore::codec`] (re-exported here) and adds:
//!
//! - [`put_round`]/[`read_round`]: one committed round — its epoch and its
//!   logical [`XmlUpdate`]s with their [`SideEffectPolicy`] — as the payload
//!   of a write-ahead log record; [`put_update`]/[`read_update`] are the same
//!   encoding of one update on its own. Replaying the *logical* update
//!   re-derives ∆V, ∆R, and the `L` maintenance; logging ∆R alone could
//!   rebuild the base tables but not the view, so ∆R has no encoding.
//! - [`encode_system`]/[`decode_system`]: the checkpoint payload — what
//!   only the system's history decides: the base database `I`, the DAG `V`
//!   (the interner's id space and the child lists) and the topological
//!   order `L`. The `gen_A` tables follow from them, and [`decode_system`]
//!   rebuilds them with the code publication builds them with; the system
//!   holds no reachability matrix `M`. The grammar σ itself is *not*
//!   serialized: like the relational schema, it is code, and
//!   [`decode_system`] takes it as input — validating that the
//!   checkpoint's element-type table matches the grammar's DTD before
//!   trusting any [`rxview_xmlkit::TypeId`] on disk.
//!   [`decode_system_v1`] reads the layout one format back.
//!
//! ## The round record
//!
//! A target path is written as its AST, never as text, so whatever the
//! public AST can hold — any label, any constant — comes back as it went in
//! and decoding never meets the XPath parser:
//!
//! ```text
//! round  = varint epoch · varint n · update*n
//! update = head · [insert: label(type) · tuple($A)] · path      — spelled
//!        | head · varint k · [insert: value*] · literal*        — shaped
//!          head bit 0: 0 insert / 1 delete; bit 1: 0 Abort / 1 Proceed;
//!          bit 2: 0 spelled / 1 shaped, the shape table's k-th entry
//! value  = varint zigzag(i − last)     — an Int i; `last` its slot's state
//!        | str | u8                    — a Str, a Bool, untagged
//! literal = varint (zigzag(n − last) << 1)  — n a canonical u64 below 2⁶²
//!         | varint (len << 1 | 1) · UTF-8 bytes
//! path   = varint n_steps · step*
//! step   = head · [child-label: label] · [k = 63: varint (k − 63)] · filter*k
//!          head bits 0–1: 0 self / 1 child-label / 2 child-* / 3 `//`;
//!          bits 2–7: the filter count k, 63 = read the rest as a varint
//! filter = 0 · path | 1 · path · str | 2 · label | 3 · filter · filter (and)
//!        | 4 · filter · filter (or) | 5 · filter (not)
//!        | 6 · label · varint          — [label = "n"], n a canonical u64
//! label  = 0 · str                     — first occurrence: joins the table
//!        | varint k ≥ 1                — the table's k-th label
//! ```
//!
//! Every label (element types, the inserted type, `label()=`) goes through
//! the segment's **label table**, which the segment itself spells out, so a
//! segment needs no grammar to be read. Tag 6 is the overwhelmingly common
//! filter `[child = "decimal"]`; a constant that is not the canonical
//! decimal form of a `u64` (`"007"`, `"+5"`, `"18446744073709551616"`)
//! stays a string under tag 1 and comes back byte for byte.
//!
//! Every update spelled in full joins the segment's **shape table**, keyed
//! by its update key (`shape::update_key`): the plan cache's key of its
//! path, then its kind, and an insertion's type and value types. The key is
//! injective, so a later update with an entry's key is of that entry's
//! shape — the same kind, type and value types, and a path that differs
//! only in its `p = "s"` literals — and is written *shaped*: the table
//! index, the inserted values without their tags (the shape fixes their
//! types), and the path's literals in the order the plan cache binds its
//! slots (`shape::bind` puts them back). A segment of rounds over a handful
//! of shapes so costs about their literals per update, however few updates
//! each round holds.
//!
//! ## Tables that live for a segment
//!
//! Both tables belong to a log segment (`RXWALv5`), the log's unit of
//! reading — recovery scans a segment from its magic — and of deletion —
//! compaction deletes whole files. The writer's [`RecordTables`] and the
//! reader's [`ReadTables`] start empty at a segment's magic and grow record
//! by record, so a record may name an entry that a record before it in the
//! same segment spelled, and never one after it: a torn tail costs only
//! itself. [`put_round`] *stages* what its record adds;
//! [`RecordTables::commit`] keeps it once the record is in the log, and the
//! next [`put_round`] drops whatever was staged and not committed (a refused
//! or failed append), so no entry of a record that never reached the log
//! reaches a later record. The writer caps the tables by starting a new
//! segment once they hold more than a fixed number of entries.
//!
//! **Slot state.** Every entry of the shape table also holds the last value
//! bound to each of its integer slots: an insertion's `Int` values, then the
//! path's literals in `shape::bind`'s order. The update that spells the entry
//! sets them (a literal that is text sets its slot to 0). A shaped update
//! writes each integer as its zigzag-coded difference from its slot and
//! leaves itself there; a text literal leaves its slot as it was. The keys
//! that consecutive updates of one shape bind lie a few apart, so a slot
//! costs about a byte where the key itself took five. The state is staged
//! like the entries: [`put_round`] logs every committed slot it rebinds,
//! [`RecordTables::commit`] forgets the log, and the next [`put_round`]
//! undoes it if the record never reached the log. An `Int` delta wraps, so
//! every one decodes; a literal stays in [0, 2⁶²) — a larger one is written
//! as text, so `zigzag(d) << 1` cannot overflow — and a literal delta that
//! leaves that range is refused.
//!
//! Decoding is total: counts, table indices and literal lengths are bounded
//! by the input that remains, filters nest at most [`MAX_FILTER_DEPTH`]
//! deep (the bound the parser puts on the same tree), a shaped update must
//! name an entry of its own kind, and only an entry that weighs at most
//! `MAX_TEMPLATE_WEIGHT` AST nodes and label bytes (the encoder spells
//! heavier ones in full), so that a hostile record cannot clone one large
//! entry once per two bytes. The reader's tables hold slices of the
//! segment's bytes and the updates light enough to name, so they stay
//! within a constant factor of the segment's size.

use crate::processor::XmlViewSystem;
use crate::shape::{bind, update_key};
use crate::topo::TopoOrder;
use crate::update::{SideEffectPolicy, XmlUpdate};
use crate::viewstore::ViewStore;
use rxview_atg::{Atg, Dag, GenId, NodeId, RuleBody};
use rxview_relstore::codec::{
    put_database, put_str, put_tuple, put_value_untagged, put_varint, read_database, read_tuple,
    read_value_of, skip_database, CodecError, Reader,
};
use rxview_relstore::{Tuple, Value, ValueType};
use rxview_xmlkit::xpath::MAX_FILTER_DEPTH;
use rxview_xmlkit::xpath::{Filter, NodeTest, Step, StepKind, XPath};
use rxview_xmlkit::TypeId;
use std::collections::HashMap;

use rxview_relstore::codec::CodecResult;

// ---------------------------------------------------------------------------
// Logical updates (WAL records).
// ---------------------------------------------------------------------------

const HEAD_DELETE: u8 = 1;
const HEAD_PROCEED: u8 = 2;
const HEAD_SHAPED: u8 = 4;

/// The most a template may weigh ([`weighs_at_most`]) and still be named by
/// a shaped update: decoding one clones at most this much of its template
/// for the two bytes its head and index cost. The encoder spells heavier
/// updates in full.
const MAX_TEMPLATE_WEIGHT: usize = 128;

const STEP_SELF: u8 = 0;
const STEP_LABEL: u8 = 1;
const STEP_WILDCARD: u8 = 2;
const STEP_DESCENDANT: u8 = 3;
/// A step head's filter count that means "a varint of the rest follows".
const FILTERS_ESCAPE: usize = 63;

const FILTER_PATH: u8 = 0;
const FILTER_PATH_EQ: u8 = 1;
const FILTER_LABEL_IS: u8 = 2;
const FILTER_AND: u8 = 3;
const FILTER_OR: u8 = 4;
const FILTER_NOT: u8 = 5;
const FILTER_CHILD_EQ_U64: u8 = 6;

/// One logged update: the logical update plus its side-effect policy.
pub type LoggedUpdate = (XmlUpdate, SideEffectPolicy);

/// The label and shape tables of the segment being written (module docs):
/// committed entries, which the segment's records have spelled, and the
/// entries the last [`put_round`] staged.
#[derive(Debug, Default)]
pub struct RecordTables {
    /// Label → its index in the label table.
    labels: HashMap<String, usize>,
    /// Update key (`shape::update_key`) → the shape's entry.
    shapes: HashMap<String, Shape>,
    /// The shape table's length: every update spelled in full, named or not.
    n_shapes: usize,
    /// The slot state of every entry in `shapes`.
    slots: Slots,
    /// The label and shape tables' lengths at the last commit.
    committed: (usize, usize),
    /// The key of the update being written.
    key: String,
}

/// A shape the segment's later updates may name.
#[derive(Debug)]
struct Shape {
    /// Its index in the shape table.
    index: usize,
    /// Where its slots start in [`Slots::values`].
    first_slot: usize,
}

/// The slot state of a segment's shapes (module docs), one run of slots
/// per shape in the order they joined, and an undo log of what the staged
/// record rebound.
#[derive(Debug, Default)]
struct Slots {
    values: Vec<u64>,
    /// A committed slot the staged record rebound, and the value it held.
    undo: Vec<(usize, u64)>,
    /// `values`' length at the last commit.
    committed: usize,
}

impl Slots {
    /// Binds `value` to slot `k`; returns the value it replaces.
    fn rebind(&mut self, k: usize, value: u64) -> u64 {
        let last = std::mem::replace(&mut self.values[k], value);
        if k < self.committed {
            self.undo.push((k, last));
        }
        last
    }

    fn commit(&mut self) {
        self.undo.clear();
        self.committed = self.values.len();
    }

    fn roll_back(&mut self) {
        for (k, last) in self.undo.drain(..).rev() {
            self.values[k] = last;
        }
        self.values.truncate(self.committed);
    }
}

impl RecordTables {
    /// Keeps what the last [`put_round`] staged: its record is in the log,
    /// and later records of the segment may name its entries.
    pub fn commit(&mut self) {
        self.committed = (self.labels.len(), self.n_shapes);
        self.slots.commit();
    }

    /// The committed labels and shapes: what a reader of the segment holds.
    pub fn entries(&self) -> usize {
        self.committed.0 + self.committed.1
    }

    /// Drops what was staged since the last commit.
    fn roll_back(&mut self) {
        let (labels, shapes) = self.committed;
        if (self.labels.len(), self.n_shapes) != (labels, shapes) {
            self.labels.retain(|_, k| *k < labels);
            self.shapes.retain(|_, s| s.index < shapes);
            self.n_shapes = shapes;
        }
        self.slots.roll_back();
    }
}

/// A label table being written: the segment's, or an update's own.
trait Labels<'u> {
    /// `label`'s index in the table, or `None` once it has joined it.
    fn index_or_add(&mut self, label: &'u str) -> Option<usize>;
}

impl Labels<'_> for HashMap<String, usize> {
    fn index_or_add(&mut self, label: &str) -> Option<usize> {
        let k = self.get(label).copied();
        if k.is_none() {
            self.insert(label.to_owned(), self.len());
        }
        k
    }
}

/// The table of an update on its own: a handful of labels, borrowed.
impl<'u> Labels<'u> for Vec<&'u str> {
    fn index_or_add(&mut self, label: &'u str) -> Option<usize> {
        let k = self.iter().position(|&l| l == label);
        if k.is_none() {
            self.push(label);
        }
        k
    }
}

struct Encoder<'a, L> {
    out: &'a mut Vec<u8>,
    labels: &'a mut L,
}

/// `Some(n)` iff `s` is the canonical decimal form of the `u64` `n`.
fn canonical_u64(s: &str) -> Option<u64> {
    let canonical = s == "0" || (!s.starts_with('0') && s.bytes().all(|b| b.is_ascii_digit()));
    s.parse().ok().filter(|_| canonical)
}

/// Literals at or above this are written as text, so that a delta between
/// two others, zigzag-coded and shifted past the tag bit, fits a `u64`.
const LITERAL_LIMIT: u64 = 1 << 62;

/// `Some(n)` iff the literal `s` is written as a number: the canonical
/// decimal form of an `n` below [`LITERAL_LIMIT`].
fn literal_number(s: &str) -> Option<u64> {
    canonical_u64(s).filter(|&n| n < LITERAL_LIMIT)
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Appends the slot state that `update`, spelled in full, gives its entry:
/// its `Int` values, then its path's `literals` (0 for one that is text).
fn push_slots(slots: &mut Vec<u64>, update: &XmlUpdate, literals: &[&str]) {
    if let XmlUpdate::Insert { attr, .. } = update {
        slots.extend(attr.iter().filter_map(|v| match v {
            Value::Int(i) => Some(*i as u64),
            _ => None,
        }));
    }
    slots.extend(literals.iter().map(|s| literal_number(s).unwrap_or(0)));
}

/// Whether what a shaped update clones of `template` — one unit per AST
/// node and per byte of a label, its type included — is at most `budget`.
/// Stops counting once over, so the answer costs at most `budget` steps.
fn weighs_at_most(template: &XmlUpdate, budget: usize) -> bool {
    fn spend(left: &mut usize, n: usize) -> bool {
        left.checked_sub(n).map(|l| *left = l).is_some()
    }
    fn path(p: &XPath, left: &mut usize) -> bool {
        p.steps.iter().all(|s| {
            let label = match &s.kind {
                StepKind::Child(NodeTest::Label(l)) => l.len(),
                _ => 0,
            };
            spend(left, 1 + label) && s.filters.iter().all(|f| filter(f, left))
        })
    }
    fn filter(f: &Filter, left: &mut usize) -> bool {
        spend(left, 1)
            && match f {
                Filter::Path(p) | Filter::PathEq(p, _) => path(p, left),
                Filter::LabelIs(l) => spend(left, l.len()),
                Filter::And(a, b) | Filter::Or(a, b) => filter(a, left) && filter(b, left),
                Filter::Not(a) => filter(a, left),
            }
    }
    let mut left = budget;
    let ty = match template {
        XmlUpdate::Insert { ty, .. } => ty.len(),
        XmlUpdate::Delete { .. } => 0,
    };
    spend(&mut left, ty) && path(template.path(), &mut left)
}

/// The body of a shaped update naming `shape`: an insertion's values
/// untagged, each `Int` as its delta from its slot, then the path's
/// `literals`, a number as its delta from its slot and anything else as
/// text. Rebinds the slots it writes.
fn put_shaped(
    out: &mut Vec<u8>,
    slots: &mut Slots,
    shape: &Shape,
    update: &XmlUpdate,
    literals: &[&str],
) {
    let mut k = shape.first_slot;
    if let XmlUpdate::Insert { attr, .. } = update {
        for v in attr.iter() {
            match v {
                Value::Int(i) => {
                    let last = slots.rebind(k, *i as u64);
                    put_varint(out, zigzag(i.wrapping_sub(last as i64)));
                    k += 1;
                }
                v => put_value_untagged(out, v),
            }
        }
    }
    for s in literals {
        match literal_number(s) {
            Some(n) => {
                let last = slots.rebind(k, n);
                put_varint(out, zigzag(n as i64 - last as i64) << 1);
            }
            None => {
                put_varint(out, (s.len() as u64) << 1 | 1);
                out.extend_from_slice(s.as_bytes());
            }
        }
        k += 1;
    }
}

impl<'u, L: Labels<'u>> Encoder<'_, L> {
    fn label(&mut self, label: &'u str) {
        match self.labels.index_or_add(label) {
            Some(k) => put_varint(self.out, k as u64 + 1),
            None => {
                self.out.push(0);
                put_str(self.out, label);
            }
        }
    }

    fn update(&mut self, update: &'u XmlUpdate, policy_bit: u8) {
        match update {
            XmlUpdate::Insert { ty, attr, path } => {
                self.out.push(policy_bit);
                self.label(ty);
                put_tuple(self.out, attr);
                self.path(path);
            }
            XmlUpdate::Delete { path } => {
                self.out.push(HEAD_DELETE | policy_bit);
                self.path(path);
            }
        }
    }

    fn path(&mut self, path: &'u XPath) {
        put_varint(self.out, path.steps.len() as u64);
        for step in &path.steps {
            let (kind, label) = match &step.kind {
                StepKind::SelfAxis => (STEP_SELF, None),
                StepKind::Child(NodeTest::Label(l)) => (STEP_LABEL, Some(l)),
                StepKind::Child(NodeTest::Wildcard) => (STEP_WILDCARD, None),
                StepKind::DescendantOrSelf => (STEP_DESCENDANT, None),
            };
            let k = step.filters.len();
            self.out.push(kind | (k.min(FILTERS_ESCAPE) as u8) << 2);
            if let Some(l) = label {
                self.label(l);
            }
            if k >= FILTERS_ESCAPE {
                put_varint(self.out, (k - FILTERS_ESCAPE) as u64);
            }
            for f in &step.filters {
                self.filter(f);
            }
        }
    }

    fn filter(&mut self, filter: &'u Filter) {
        match filter {
            Filter::Path(p) => {
                self.out.push(FILTER_PATH);
                self.path(p);
            }
            Filter::PathEq(p, s) => {
                if let ([step], Some(n)) = (p.steps.as_slice(), canonical_u64(s)) {
                    if let (StepKind::Child(NodeTest::Label(l)), []) =
                        (&step.kind, step.filters.as_slice())
                    {
                        self.out.push(FILTER_CHILD_EQ_U64);
                        self.label(l);
                        put_varint(self.out, n);
                        return;
                    }
                }
                self.out.push(FILTER_PATH_EQ);
                self.path(p);
                put_str(self.out, s);
            }
            Filter::LabelIs(l) => {
                self.out.push(FILTER_LABEL_IS);
                self.label(l);
            }
            Filter::And(a, b) => {
                self.out.push(FILTER_AND);
                self.filter(a);
                self.filter(b);
            }
            Filter::Or(a, b) => {
                self.out.push(FILTER_OR);
                self.filter(a);
                self.filter(b);
            }
            Filter::Not(a) => {
                self.out.push(FILTER_NOT);
                self.filter(a);
            }
        }
    }
}

/// Appends one round's record payload to `out`: epoch, update count, the
/// updates in order, over `tables` — the label and shape tables of the
/// segment the record joins (module docs). What the record adds to them is
/// staged: [`RecordTables::commit`] keeps it once the record is in the log,
/// and the next call drops it otherwise. A round whose paths nest filters
/// deeper than [`MAX_FILTER_DEPTH`] ([`XPath::filter_depth`]) encodes, but
/// [`read_round`] refuses it: the caller checks before it acknowledges
/// anything.
pub fn put_round(
    out: &mut Vec<u8>,
    tables: &mut RecordTables,
    epoch: u64,
    updates: &[LoggedUpdate],
) {
    tables.roll_back();
    let RecordTables {
        labels,
        shapes,
        n_shapes,
        slots,
        key,
        ..
    } = tables;
    put_varint(out, epoch);
    put_varint(out, updates.len() as u64);
    let mut literals = Vec::new();
    for (update, policy) in updates {
        let proceed = *policy == SideEffectPolicy::Proceed;
        let policy_bit = if proceed { HEAD_PROCEED } else { 0 };
        update_key(update, key, &mut literals);
        match shapes.get(key.as_str()) {
            Some(shape) => {
                let kind_bit = match update {
                    XmlUpdate::Insert { .. } => 0,
                    XmlUpdate::Delete { .. } => HEAD_DELETE,
                };
                out.push(HEAD_SHAPED | kind_bit | policy_bit);
                put_varint(out, shape.index as u64);
                put_shaped(out, slots, shape, update, &literals);
            }
            None => {
                Encoder { out, labels }.update(update, policy_bit);
                if weighs_at_most(update, MAX_TEMPLATE_WEIGHT) {
                    let first_slot = slots.values.len();
                    push_slots(&mut slots.values, update, &literals);
                    let shape = Shape {
                        index: *n_shapes,
                        first_slot,
                    };
                    shapes.insert(key.clone(), shape);
                }
                *n_shapes += 1;
            }
        }
    }
}

/// Encodes an [`XmlUpdate`] on its own: the round record's update form with
/// a label table of its own and no policy (the policy bit is clear).
pub fn put_update(out: &mut Vec<u8>, update: &XmlUpdate) {
    let labels = &mut Vec::new();
    Encoder { out, labels }.update(update, 0);
}

/// The label and shape tables of the segment being read (module docs): the
/// labels as slices of the segment's bytes, and every update spelled in
/// full with its slot state — `None` for one too heavy for a shaped update
/// to name.
#[derive(Debug, Default)]
pub struct ReadTables<'a> {
    labels: Vec<&'a str>,
    shapes: Vec<Option<(XmlUpdate, Vec<u64>)>>,
}

/// A shaped update's integers: deltas from the slots of its entry, in
/// [`push_slots`]' order, which they then replace.
struct Ints<'s>(std::slice::IterMut<'s, u64>);

impl Ints<'_> {
    /// The next slot.
    fn slot(&mut self) -> CodecResult<&mut u64> {
        self.0
            .next()
            .ok_or_else(|| CodecError::Invalid("more integers than slots".into()))
    }

    /// An insertion's `Int` value.
    fn int(&mut self, r: &mut Reader<'_>) -> CodecResult<i64> {
        let d = r.read_varint_i64()?;
        let last = self.slot()?;
        *last = last.wrapping_add(d as u64);
        Ok(*last as i64)
    }

    /// A literal ([`put_shaped`]).
    fn literal(&mut self, r: &mut Reader<'_>) -> CodecResult<String> {
        let last = self.slot()?;
        let v = r.read_varint()?;
        if v & 1 == 1 {
            let len = usize::try_from(v >> 1).map_err(|_| CodecError::Truncated)?;
            return std::str::from_utf8(r.read_slice(len)?)
                .map(str::to_owned)
                .map_err(|_| CodecError::Invalid("literal is not UTF-8".into()));
        }
        let n = (*last as i64)
            .checked_add(unzigzag(v >> 1))
            .and_then(|n| u64::try_from(n).ok())
            .filter(|&n| n < LITERAL_LIMIT)
            .ok_or_else(|| {
                CodecError::Invalid(format!("a literal delta leaves [0, 2⁶²) from {last}"))
            })?;
        *last = n;
        Ok(n.to_string())
    }
}

struct Decoder<'r, 'a> {
    r: &'r mut Reader<'a>,
    tables: &'r mut ReadTables<'a>,
}

/// A count of things that each take at least a byte.
fn read_count(r: &mut Reader<'_>) -> CodecResult<usize> {
    let n = r.read_varint()?;
    match usize::try_from(n) {
        Ok(n) if n <= r.remaining() => Ok(n),
        _ => Err(CodecError::Truncated),
    }
}

impl<'a> Decoder<'_, 'a> {
    fn label(&mut self) -> CodecResult<&'a str> {
        let labels = &mut self.tables.labels;
        match self.r.read_varint()? {
            0 => {
                let label = self.r.read_str()?;
                labels.push(label);
                Ok(label)
            }
            k => usize::try_from(k - 1)
                .ok()
                .and_then(|k| labels.get(k).copied())
                .ok_or_else(|| {
                    CodecError::Invalid(format!("label {k} of a table of {}", labels.len()))
                }),
        }
    }

    /// Reads the next update and its head's policy; one spelled in full
    /// joins the shape table.
    fn update(&mut self) -> CodecResult<LoggedUpdate> {
        let head = self.r.read_u8()?;
        if head & !(HEAD_DELETE | HEAD_PROCEED | HEAD_SHAPED) != 0 {
            return Err(CodecError::Invalid(format!("unknown update head {head}")));
        }
        let delete = head & HEAD_DELETE != 0;
        let update = if head & HEAD_SHAPED != 0 {
            self.shaped(delete)?
        } else {
            let update = if delete {
                XmlUpdate::Delete {
                    path: self.path(0)?,
                }
            } else {
                XmlUpdate::Insert {
                    ty: self.label()?.to_owned(),
                    attr: read_tuple(self.r)?,
                    path: self.path(0)?,
                }
            };
            let template = weighs_at_most(&update, MAX_TEMPLATE_WEIGHT).then(|| {
                let (mut key, mut literals, mut slots) = (String::new(), Vec::new(), Vec::new());
                update_key(&update, &mut key, &mut literals);
                push_slots(&mut slots, &update, &literals);
                (update.clone(), slots)
            });
            self.tables.shapes.push(template);
            update
        };
        let policy = match head & HEAD_PROCEED {
            0 => SideEffectPolicy::Abort,
            _ => SideEffectPolicy::Proceed,
        };
        Ok((update, policy))
    }

    /// The body of a shaped update: the index of its template in the shape
    /// table, an insertion's values untagged, and the path's literals.
    fn shaped(&mut self, delete: bool) -> CodecResult<XmlUpdate> {
        let r = &mut *self.r;
        let shapes = &mut self.tables.shapes;
        if shapes.is_empty() {
            return Err(CodecError::Invalid(
                "a shaped update before any shape".into(),
            ));
        }
        let n_shapes = shapes.len();
        let k = r.read_varint()?;
        let entry = usize::try_from(k)
            .ok()
            .and_then(|k| shapes.get_mut(k))
            .ok_or_else(|| CodecError::Invalid(format!("shape {k} of a table of {n_shapes}")))?;
        let (template, slots) = entry.as_mut().ok_or_else(|| {
            CodecError::Invalid(format!("shape {k} weighs more than {MAX_TEMPLATE_WEIGHT}"))
        })?;
        let mut ints = Ints(slots.iter_mut());
        let (inserted, path) = match (&*template, delete) {
            (XmlUpdate::Delete { path }, true) => (None, path),
            (XmlUpdate::Insert { ty, attr, path }, false) => {
                let values = attr.iter().map(|v| match v.value_type() {
                    ValueType::Int => ints.int(r).map(Value::Int),
                    ty => read_value_of(r, ty),
                });
                (Some((ty, values.collect::<CodecResult<Tuple>>()?)), path)
            }
            (_, true) => {
                let why = format!("a deletion names shape {k}, an insertion's");
                return Err(CodecError::Invalid(why));
            }
            (_, false) => {
                let why = format!("an insertion names shape {k}, a deletion's");
                return Err(CodecError::Invalid(why));
            }
        };
        // A literal that does not decode ends the record; `bind` still
        // takes a string for it, and the path it builds is dropped.
        let mut failed = None;
        let path = bind(path, &mut || {
            ints.literal(r).unwrap_or_else(|e| {
                failed.get_or_insert(e);
                String::new()
            })
        });
        if let Some(e) = failed {
            return Err(e);
        }
        Ok(match inserted {
            None => XmlUpdate::Delete { path },
            Some((ty, attr)) => XmlUpdate::Insert {
                ty: ty.clone(),
                attr,
                path,
            },
        })
    }

    /// A path sitting under `depth` levels of filter. Its vectors grow as
    /// they fill: sized up front from a count, each level of a hostile nest
    /// could reserve the whole remaining input again.
    fn path(&mut self, depth: usize) -> CodecResult<XPath> {
        let n_steps = read_count(self.r)?;
        let mut steps = Vec::new();
        for _ in 0..n_steps {
            let head = self.r.read_u8()?;
            let kind = match head & 3 {
                STEP_SELF => StepKind::SelfAxis,
                STEP_LABEL => StepKind::Child(NodeTest::Label(self.label()?.to_owned())),
                STEP_WILDCARD => StepKind::Child(NodeTest::Wildcard),
                _ => StepKind::DescendantOrSelf,
            };
            let mut k = (head >> 2) as usize;
            if k == FILTERS_ESCAPE {
                k = read_count(self.r)?
                    .checked_add(FILTERS_ESCAPE)
                    .ok_or(CodecError::Truncated)?;
            }
            if k > self.r.remaining() {
                return Err(CodecError::Truncated);
            }
            let mut filters = Vec::new();
            for _ in 0..k {
                filters.push(self.filter(depth + 1)?);
            }
            steps.push(Step { kind, filters });
        }
        Ok(XPath { steps })
    }

    /// A filter that is the `depth`-th level of its nest.
    fn filter(&mut self, depth: usize) -> CodecResult<Filter> {
        if depth > MAX_FILTER_DEPTH {
            return Err(CodecError::Invalid(format!(
                "filters nest deeper than {MAX_FILTER_DEPTH}"
            )));
        }
        Ok(match self.r.read_u8()? {
            FILTER_PATH => Filter::Path(self.path(depth)?),
            FILTER_PATH_EQ => Filter::PathEq(self.path(depth)?, self.r.read_str()?.to_owned()),
            FILTER_LABEL_IS => Filter::LabelIs(self.label()?.to_owned()),
            FILTER_AND => Filter::and(self.filter(depth + 1)?, self.filter(depth + 1)?),
            FILTER_OR => Filter::or(self.filter(depth + 1)?, self.filter(depth + 1)?),
            FILTER_NOT => Filter::not(self.filter(depth + 1)?),
            FILTER_CHILD_EQ_U64 => {
                let child = XPath::from_steps(vec![Step::label(self.label()?)]);
                Filter::PathEq(child, self.r.read_varint()?.to_string())
            }
            t => return Err(CodecError::Invalid(format!("unknown filter tag {t}"))),
        })
    }
}

/// Decodes a [`put_round`] payload — the epoch and the round's updates —
/// over `tables`, those of the segment the record belongs to: the record
/// may name what the segment's earlier records spelled, and what it spells
/// joins them.
pub fn read_round<'a>(
    r: &mut Reader<'a>,
    tables: &mut ReadTables<'a>,
) -> CodecResult<(u64, Vec<LoggedUpdate>)> {
    let epoch = r.read_varint()?;
    let n = read_count(r)?;
    let mut dec = Decoder { r, tables };
    let mut updates = Vec::with_capacity(n);
    for _ in 0..n {
        updates.push(dec.update()?);
    }
    Ok((epoch, updates))
}

/// Decodes a [`put_update`] encoding.
pub fn read_update(r: &mut Reader<'_>) -> CodecResult<XmlUpdate> {
    let tables = &mut ReadTables::default();
    match (Decoder { r, tables }).update()? {
        (update, SideEffectPolicy::Abort) => Ok(update),
        _ => Err(CodecError::Invalid(
            "an update on its own has no policy".into(),
        )),
    }
}

// ---------------------------------------------------------------------------
// DAG (checkpoint payload).
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

/// The type whose `$A` a node of `ty` repeats: a parent type whose rule for
/// `ty` is the identity projection (`node → sub` in the synthetic grammar).
fn repeated_type(atg: &Atg, ty: TypeId) -> Option<TypeId> {
    let identity = |parent: TypeId| match atg.rule(parent, ty) {
        Some(RuleBody::Project { fields }) => {
            fields.iter().copied().eq(0..atg.attr_fields(parent).len())
        }
        _ => false,
    };
    atg.dtd().types().find(|&parent| identity(parent))
}

/// Decodes a [`Dag`], bulk-loading the interner from its id space (every
/// live node gets the [`NodeId`] it was written under; every slot written
/// dead — whatever pair an older writer left in it — is a free id) and the
/// adjacency from the child lists (which reproduces their order). A node
/// whose `$A` its parent's identity rule copied keeps its parent's tuple,
/// as after publication: a parent's id precedes its children's there and
/// in a generated subtree, so the parent is loaded first.
fn read_dag(r: &mut Reader<'_>, atg: &Atg) -> CodecResult<Dag> {
    let dtd = atg.dtd();
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
    let repeats: Vec<_> = dtd.types().map(|ty| repeated_type(atg, ty)).collect();
    let genid = GenId::from_slots(atg.gen_table_schemas(), slots, |ty| repeats[ty.index()])
        .map_err(|slot| {
            CodecError::Invalid(format!(
                "interner slot {slot} repeats a (type, attr) pair or breaks its gen_A schema"
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

/// Steps over an `RXCKPv1` checkpoint's `M` section, bounds-checked: the
/// per-descendant ancestor sets, each `d` with its count and its ids
/// delta-coded.
fn skip_reach(r: &mut Reader<'_>) -> CodecResult<()> {
    for _ in 0..read_count(r)? {
        r.read_varint()?;
        for _ in 0..read_count(r)? {
            r.read_varint()?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Full system state.
// ---------------------------------------------------------------------------

/// Serializes what only the system's history decides — the base database
/// `I`, the DAG `V` (the interner's id space and the child lists) and the
/// topological order `L` — into `out` (`RXCKPv2`). The `gen_A` tables
/// follow from them and are rebuilt on load; the grammar is intentionally
/// excluded (see the module docs).
pub fn encode_system(sys: &XmlViewSystem, out: &mut Vec<u8>) {
    let vs = sys.view();
    put_database(out, sys.base());
    put_dag(out, vs.dag(), vs.atg().dtd());
    let order = sys.topo().order();
    put_varint(out, order.len() as u64);
    for &n in order {
        put_varint(out, n.0 as u64);
    }
}

/// Reassembles a system from [`encode_system`] bytes under `atg`, which
/// must be the grammar the state was produced with (the embedded type-name
/// table is checked against it).
pub fn decode_system(atg: &Atg, r: &mut Reader<'_>) -> CodecResult<XmlViewSystem> {
    decode_sections(atg, r, false)
}

/// [`decode_system`] for a checkpoint one format back (`RXCKPv1`), which
/// also wrote the `gen_A` tables after `I` and `M` after `L`: both are
/// stepped over; the `gen_A` tables are rebuilt as [`decode_system`]
/// rebuilds them, and `M` is not kept.
pub fn decode_system_v1(atg: &Atg, r: &mut Reader<'_>) -> CodecResult<XmlViewSystem> {
    decode_sections(atg, r, true)
}

/// Reads `I`, `V` and `L` — over the `gen_A` and `M` sections too when
/// `v1` — then rebuilds the `gen_A` tables with the code publication builds
/// them with (the interner, [`GenId::from_slots`]), and checks that `L`
/// lists every live node once, children before parents.
fn decode_sections(atg: &Atg, r: &mut Reader<'_>, v1: bool) -> CodecResult<XmlViewSystem> {
    let base = read_database(r)?;
    if v1 {
        skip_database(r)?;
    }
    let dag = read_dag(r, atg)?;
    let n_order = read_count(r)?;
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
    if !topo.is_valid_for(&dag) {
        return Err(CodecError::Invalid(
            "L repeats a node or is not a topological order of V".into(),
        ));
    }
    if v1 {
        skip_reach(r)?;
    }
    let vs = ViewStore::from_parts(atg.clone(), dag);
    Ok(XmlViewSystem::with_order(base, vs, topo))
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
            let mut out = Vec::new();
            put_update(&mut out, u);
            let mut r = Reader::new(&out);
            assert_eq!(&read_update(&mut r).unwrap(), u);
            assert!(r.is_empty());
        }
        // As one round, under either policy: the three updates share a label
        // table, so `course` is spelled once.
        for policy in [SideEffectPolicy::Abort, SideEffectPolicy::Proceed] {
            let round: Vec<LoggedUpdate> = cases.iter().map(|u| (u.clone(), policy)).collect();
            let mut out = Vec::new();
            put_round(&mut out, &mut RecordTables::default(), 7, &round);
            let mut r = Reader::new(&out);
            let back = read_round(&mut r, &mut ReadTables::default()).unwrap();
            assert_eq!(back, (7, round));
            assert!(r.is_empty());
            assert_eq!(out.windows(6).filter(|w| w == b"course").count(), 1);
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

        assert_eq!(
            back.exact_digest().first_difference(&sys.exact_digest()),
            None
        );
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

    /// A slot written dead with the pair it held still in it, `(type, $A,
    /// 0)` — what trees before recycled ids wrote — loads as a free id: the
    /// pair is not interned, the next node takes the slot, and the DAG is
    /// written back with the slot as `(0, (), 0)`.
    #[test]
    fn a_dead_slot_holding_its_pair_loads_as_a_free_id() {
        let sys = system();
        let dtd = sys.view().atg().dtd();
        let genid = sys.view().dag().genid();
        let root = sys.view().dag().root();
        let (ty, pair) = (TypeId(1), tuple!["CS999", "Ghost"]);
        let mut bytes = Vec::new();
        put_varint(&mut bytes, dtd.n_types() as u64);
        for t in dtd.types() {
            put_str(&mut bytes, dtd.name(t));
        }
        put_varint(&mut bytes, 2);
        put_varint(&mut bytes, genid.type_of(root).0 as u64);
        put_tuple(&mut bytes, genid.attr_of(root));
        bytes.push(1);
        let dead = bytes.len();
        put_varint(&mut bytes, ty.0 as u64);
        put_tuple(&mut bytes, &pair);
        bytes.push(0);
        let tail = bytes.len();
        bytes.extend_from_slice(&[1, 0, 0]); // root id 0, no child lists
        let dag = read_dag(&mut Reader::new(&bytes), sys.view().atg()).unwrap();
        let loaded = dag.genid();
        assert!(loaded.is_live(NodeId(0)) && !loaded.is_live(NodeId(1)));
        assert_eq!((loaded.n_free(), loaded.lookup(ty, &pair)), (1, None));
        assert_eq!(loaded.clone().gen_id(ty, pair), (NodeId(1), true));
        let mut back = Vec::new();
        put_dag(&mut back, &dag, dtd);
        assert_eq!(back, [&bytes[..dead], &[0, 0, 0], &bytes[tail..]].concat());
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

    /// Each interner slot is checked to be a `$A` of its type, not only to
    /// have a `gen_A` row that fits: a slot `(root, (0))` beside the root's
    /// `(root, ())` — the one unit row for two pairs — is refused, not
    /// loaded into one table twice.
    #[test]
    fn a_checkpoint_whose_slot_repeats_the_unit_row_is_refused() {
        let sys = system();
        let atg = sys.view().atg();
        let dtd = atg.dtd();
        let root_ty = sys.view().dag().genid().type_of(sys.view().dag().root());
        let mut bytes = Vec::new();
        put_database(&mut bytes, sys.base());
        put_varint(&mut bytes, dtd.n_types() as u64);
        for ty in dtd.types() {
            put_str(&mut bytes, dtd.name(ty));
        }
        put_varint(&mut bytes, 2);
        for attr in [Tuple::empty(), tuple![0i64]] {
            put_varint(&mut bytes, root_ty.0 as u64);
            put_tuple(&mut bytes, &attr);
            bytes.push(1);
        }
        // The root is node 0, nothing has children, and `L` is (1, 0).
        bytes.extend_from_slice(&[1, 0, 0, 2, 1, 0]);
        let decoded = decode_system(atg, &mut Reader::new(&bytes));
        assert!(matches!(decoded, Err(CodecError::Invalid(_))));
    }

    /// The maintenance of `L` assumes it valid, so an `L` that lists a node
    /// twice or puts a parent before its child is refused, not loaded into
    /// a system that fails its own consistency check.
    #[test]
    fn a_checkpoint_whose_l_is_not_a_topological_order_is_refused() {
        let sys = system();
        let mut bytes = Vec::new();
        encode_system(&sys, &mut bytes);
        let l_bytes = |order: &[NodeId]| {
            let mut out = Vec::new();
            put_varint(&mut out, order.len() as u64);
            for n in order {
                put_varint(&mut out, n.0 as u64);
            }
            out
        };
        let order = sys.topo().order();
        assert!(bytes.ends_with(&l_bytes(order)), "L is the last section");
        let before_l = &bytes[..bytes.len() - l_bytes(order).len()];
        let reversed: Vec<NodeId> = order.iter().rev().copied().collect();
        let mut repeated = order.to_vec();
        repeated[1] = repeated[0];
        let atg = sys.view().atg();
        for forged in [reversed, repeated] {
            let bytes = [before_l, &l_bytes(&forged)].concat();
            let decoded = decode_system(atg, &mut Reader::new(&bytes));
            assert!(
                matches!(decoded, Err(CodecError::Invalid(_))),
                "{forged:?} must be refused"
            );
        }
    }

    /// `n` courses in one prerequisite chain under one top-level course:
    /// `5n + 1` view nodes, and `M` quadratic in `n`.
    fn chain(n: usize) -> XmlViewSystem {
        let mut db = rxview_relstore::Database::new();
        rxview_atg::registrar_schema(&mut db);
        for i in 0..n {
            let dept = if i == 0 { "CS" } else { "Math" };
            db.insert("course", tuple![format!("C{i}"), format!("T{i}"), dept])
                .unwrap();
            if i > 0 {
                db.insert("prereq", tuple![format!("C{}", i - 1), format!("C{i}")])
                    .unwrap();
            }
        }
        XmlViewSystem::new(registrar_atg(&db).unwrap(), db).unwrap()
    }

    /// A checkpoint grows with `V`, not with `M` (ROADMAP item 17): over a
    /// 201- and a 2 001-node chain, where `M`'s pairs grow ≈ 100×, its
    /// bytes grow at most 12× — 10× the nodes, and ids and keys a byte
    /// longer (11.3× measured).
    #[test]
    fn a_checkpoint_grows_with_the_view_not_with_m() {
        let mut sizes = Vec::new();
        for n in [40, 400] {
            let sys = chain(n);
            assert_eq!(sys.view().n_nodes(), 5 * n + 1);
            let mut bytes = Vec::new();
            encode_system(&sys, &mut bytes);
            let m = crate::reach::Reachability::compute(sys.view().dag(), sys.topo());
            sizes.push((bytes.len(), m.n_pairs()));
        }
        let [(small, small_m), (large, large_m)] = sizes[..] else {
            unreachable!()
        };
        assert!(large_m > 50 * small_m, "M: {small_m} → {large_m} pairs");
        assert!(
            large <= 12 * small,
            "checkpoint bytes grew {small} → {large} over a 10× longer chain"
        );
    }
}
