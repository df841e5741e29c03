//! Hand-rolled binary codec for the relational layer.
//!
//! The container this workspace builds in has no registry access, so there
//! is no `serde`/`bincode`; durability is built on an explicit, versioned
//! little-endian format instead. This module provides the byte-level
//! primitives (LEB128 varints, zigzag integers, length-prefixed byte
//! strings, CRC-32) and the encodings of every relational type a checkpoint
//! persists: [`Value`], [`Tuple`], [`TableSchema`], [`Table`], and
//! [`Database`]. The log records logical XML updates, not `∆R`
//! (`rxview_core::codec`).
//!
//! Conventions, shared by every `encode_*`/`decode_*` pair:
//!
//! - unsigned integers are LEB128 varints; signed integers are zigzag-coded
//!   first, so small magnitudes stay small on disk;
//! - strings and tuples are length-prefixed, never delimited;
//! - every enum is a one-byte tag followed by its payload — except a value
//!   whose type the reader already knows ([`put_value_untagged`] /
//!   [`read_value_of`], which a log record uses for an update whose shape
//!   it has written before);
//! - decoding is total: any byte sequence either decodes or returns a
//!   [`CodecError`] — corrupt input must never panic, because the recovery
//!   path feeds torn log tails straight into these functions.
//!
//! The on-disk format is pinned by golden-byte tests (see
//! `crates/core/tests/codec_roundtrip.rs`); change it only with a new
//! version tag in the enclosing file headers.

use crate::schema::{ColumnDef, TableSchema};
use crate::table::{RowDonors, Table};
use crate::tuple::Tuple;
use crate::value::{Domain, Value, ValueType};
use crate::Database;
use std::fmt;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value it promised.
    Truncated,
    /// The bytes decoded structurally but describe an invalid value.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated mid-value"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Shorthand for decode results.
pub type CodecResult<T> = Result<T, CodecError>;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial) for record checksums.
// ---------------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the byte-at-a-time table; `CRC32_TABLES[k][b]` is
/// the checksum state byte `b` leaves after `k` further zero bytes, so
/// eight lookups — one per table — advance the state over eight input
/// bytes at once (slicing-by-8).
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every WAL record and
/// checkpoint payload against torn writes and bit rot. Eight bytes per
/// step; the tail of fewer goes a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-coded signed varint.
pub(crate) fn put_varint_i64(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends a length-prefixed byte string.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked cursor over an immutable byte slice. All `read_*`
/// methods advance the cursor on success and leave it unspecified on error
/// (decoders abandon the reader once any error surfaces).
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Where [`read_tuple`] collects a tuple's values: one buffer for all
    /// the tuples of a checkpoint, empty between calls.
    values: Vec<Value>,
}

impl<'a> Reader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            values: Vec::new(),
        }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> CodecResult<u8> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn read_slice(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a LEB128 varint (max 10 bytes).
    pub fn read_varint(&mut self) -> CodecResult<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.read_u8()?;
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Invalid("varint longer than 10 bytes".into()))
    }

    /// Reads a zigzag-coded signed varint.
    pub fn read_varint_i64(&mut self) -> CodecResult<i64> {
        let z = self.read_varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a length-prefixed byte string. The length is sanity-checked
    /// against the remaining input before any allocation, so a corrupt
    /// length cannot trigger a huge reservation.
    pub fn read_bytes(&mut self) -> CodecResult<&'a [u8]> {
        let n = self.read_varint()? as usize;
        self.read_slice(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> CodecResult<&'a str> {
        std::str::from_utf8(self.read_bytes()?)
            .map_err(|_| CodecError::Invalid("string is not UTF-8".into()))
    }
}

// ---------------------------------------------------------------------------
// Values and tuples.
// ---------------------------------------------------------------------------

const TAG_INT: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_BOOL_FALSE: u8 = 2;
const TAG_BOOL_TRUE: u8 = 3;

/// Encodes a [`Value`] (tag byte + payload).
pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(TAG_INT);
            put_varint_i64(out, *i);
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
    }
}

/// Decodes a [`Value`].
pub(crate) fn read_value(r: &mut Reader<'_>) -> CodecResult<Value> {
    match r.read_u8()? {
        TAG_INT => read_value_of(r, ValueType::Int),
        TAG_STR => read_value_of(r, ValueType::Str),
        TAG_BOOL_FALSE => Ok(Value::Bool(false)),
        TAG_BOOL_TRUE => Ok(Value::Bool(true)),
        t => Err(CodecError::Invalid(format!("unknown value tag {t}"))),
    }
}

/// Encodes a [`Value`] without its tag, for a reader that knows its type
/// ([`read_value_of`]): an `Int` zigzag-coded, a `Str` length-prefixed, a
/// `Bool` as one byte 0 or 1. Every value takes at least a byte.
pub fn put_value_untagged(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => put_varint_i64(out, *i),
        Value::Str(s) => put_str(out, s),
        Value::Bool(b) => out.push(u8::from(*b)),
    }
}

/// Decodes what [`put_value_untagged`] wrote for a value of type `ty`.
pub fn read_value_of(r: &mut Reader<'_>, ty: ValueType) -> CodecResult<Value> {
    match ty {
        ValueType::Int => Ok(Value::Int(r.read_varint_i64()?)),
        ValueType::Str => Ok(Value::from(r.read_str()?)),
        ValueType::Bool => match r.read_u8()? {
            b @ (0 | 1) => Ok(Value::Bool(b == 1)),
            b => Err(CodecError::Invalid(format!("bool byte {b}"))),
        },
    }
}

/// Encodes a [`Tuple`] (arity + values).
pub fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_varint(out, t.arity() as u64);
    for v in t.iter() {
        put_value(out, v);
    }
}

/// Decodes a [`Tuple`].
pub fn read_tuple(r: &mut Reader<'_>) -> CodecResult<Tuple> {
    read_values(r)?;
    Ok(Tuple::from_values(r.values.drain(..)))
}

/// Decodes a tuple's values into the reader's buffer, for the caller to
/// drain into the tuple's one allocation (which only an iterator of known
/// length fills directly; collecting through a fallible closure does too,
/// at twice the time per value) — or to find that a tuple with these values
/// exists already. The buffer is left empty on error.
fn read_values(r: &mut Reader<'_>) -> CodecResult<()> {
    let n = r.read_varint()? as usize;
    if n > r.remaining() {
        // Each value takes at least one byte: an arity beyond the input is
        // corrupt, and rejecting it here avoids a bogus huge allocation.
        return Err(CodecError::Truncated);
    }
    let mut values = std::mem::take(&mut r.values);
    let decoded = (0..n).try_for_each(|_| read_value(r).map(|v| values.push(v)));
    if decoded.is_err() {
        values.clear();
    }
    r.values = values;
    decoded
}

/// Steps over an encoded [`Tuple`].
fn skip_tuple(r: &mut Reader<'_>) -> CodecResult<()> {
    for _ in 0..r.read_varint()? {
        match r.read_u8()? {
            TAG_INT => {
                r.read_varint()?;
            }
            TAG_STR => {
                r.read_bytes()?;
            }
            TAG_BOOL_FALSE | TAG_BOOL_TRUE => {}
            t => return Err(CodecError::Invalid(format!("unknown value tag {t}"))),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Schemas, tables, databases (checkpoint payloads).
// ---------------------------------------------------------------------------

const TAG_TY_INT: u8 = 0;
const TAG_TY_STR: u8 = 1;
const TAG_TY_BOOL: u8 = 2;
const TAG_DOM_INFINITE: u8 = 0;
const TAG_DOM_FINITE: u8 = 1;

fn put_value_type(out: &mut Vec<u8>, ty: ValueType) {
    out.push(match ty {
        ValueType::Int => TAG_TY_INT,
        ValueType::Str => TAG_TY_STR,
        ValueType::Bool => TAG_TY_BOOL,
    });
}

fn read_value_type(r: &mut Reader<'_>) -> CodecResult<ValueType> {
    match r.read_u8()? {
        TAG_TY_INT => Ok(ValueType::Int),
        TAG_TY_STR => Ok(ValueType::Str),
        TAG_TY_BOOL => Ok(ValueType::Bool),
        t => Err(CodecError::Invalid(format!("unknown value-type tag {t}"))),
    }
}

/// Encodes a [`TableSchema`] (name, columns with domains, key positions).
pub(crate) fn put_schema(out: &mut Vec<u8>, schema: &TableSchema) {
    put_str(out, schema.name());
    put_varint(out, schema.arity() as u64);
    for col in schema.columns() {
        put_str(out, &col.name);
        put_value_type(out, col.ty);
        match &col.domain {
            Domain::Infinite => out.push(TAG_DOM_INFINITE),
            Domain::Finite(vs) => {
                out.push(TAG_DOM_FINITE);
                put_varint(out, vs.len() as u64);
                for v in vs {
                    put_value(out, v);
                }
            }
        }
    }
    put_varint(out, schema.key().len() as u64);
    for &k in schema.key() {
        put_varint(out, k as u64);
    }
}

/// Decodes a [`TableSchema`].
pub(crate) fn read_schema(r: &mut Reader<'_>) -> CodecResult<TableSchema> {
    let name = r.read_str()?.to_owned();
    let arity = r.read_varint()? as usize;
    if arity > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        let cname = r.read_str()?.to_owned();
        let ty = read_value_type(r)?;
        let domain = match r.read_u8()? {
            TAG_DOM_INFINITE => Domain::Infinite,
            TAG_DOM_FINITE => {
                let n = r.read_varint()? as usize;
                if n > r.remaining() {
                    return Err(CodecError::Truncated);
                }
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(read_value(r)?);
                }
                Domain::Finite(vs)
            }
            t => return Err(CodecError::Invalid(format!("unknown domain tag {t}"))),
        };
        columns.push(ColumnDef::with_domain(cname, ty, domain));
    }
    let n_key = r.read_varint()? as usize;
    if n_key == 0 || n_key > arity {
        return Err(CodecError::Invalid(format!(
            "schema `{name}` key has {n_key} columns for arity {arity}"
        )));
    }
    let mut key = Vec::with_capacity(n_key);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..n_key {
        let k = r.read_varint()? as usize;
        if k >= arity || !seen.insert(k) {
            return Err(CodecError::Invalid(format!(
                "schema `{name}` key column {k} out of range or duplicated"
            )));
        }
        key.push(k);
    }
    // `TableSchema::new` panics on malformed inputs; everything it asserts
    // was validated above, so this cannot fire on corrupt bytes.
    Ok(TableSchema::new(name, columns, key))
}

/// Encodes a [`Table`] (schema + rows in key order).
pub(crate) fn put_table(out: &mut Vec<u8>, table: &Table) {
    put_schema(out, table.schema());
    put_varint(out, table.len() as u64);
    for row in table.iter() {
        put_tuple(out, row);
    }
}

/// Decodes a [`Table`], bulk-loading the rows in the key order they were
/// written in. Rows are checked against the schema, and rows out of order
/// (which no encoder writes) are rejected, so a decoded table upholds the
/// same invariants as a live one. Some of the table's rows may be in memory
/// already: `donors` lists, for the decoded schema, rows in this table's key
/// order, and a decoded row equal to the donor at its key takes the donor's
/// allocation in place of one of its own — through the key-order merge
/// [`Database::share_equal_rows`] runs too, comparing a row's values where
/// they were decoded, before anything is allocated for them.
fn read_table_sharing<'d, I>(
    r: &mut Reader<'_>,
    donors: impl FnOnce(&TableSchema) -> I,
) -> CodecResult<Table>
where
    I: Iterator<Item = &'d Tuple>,
{
    let schema = read_schema(r)?;
    let n = r.read_varint()? as usize;
    if n > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let mut donors = RowDonors::new(schema.key(), donors(&schema));
    // Rows go from the input to their pages, with no list in between; a
    // row that fails to decode ends the stream.
    let mut failed = None;
    let rows = (0..n).map_while(|_| {
        if let Err(e) = read_values(r) {
            failed = Some(e);
            return None;
        }
        Some(match donors.equal_to(&r.values) {
            Some(donor) => {
                r.values.clear();
                donor.clone()
            }
            None => Tuple::from_values(r.values.drain(..)),
        })
    });
    let table = Table::from_sorted_rows(schema, rows);
    if let Some(e) = failed {
        return Err(e);
    }
    table.map_err(|e| CodecError::Invalid(format!("rows rejected: {e}")))
}

/// Encodes a whole [`Database`] (table count + tables, name order).
pub fn put_database(out: &mut Vec<u8>, db: &Database) {
    let names: Vec<&str> = db.table_names().collect();
    put_varint(out, names.len() as u64);
    for name in names {
        put_table(out, db.table(name).expect("listed table exists"));
    }
}

/// Decodes a whole [`Database`]. A row equal to the row at the same key of
/// the first earlier table of the same shape (column types and key) shares
/// that row's allocation — the donor and the merge
/// [`Database::share_equal_rows`] uses, so a decoded `I` is stored as the
/// one `XmlViewSystem::new` builds.
pub fn read_database(r: &mut Reader<'_>) -> CodecResult<Database> {
    let n = r.read_varint()? as usize;
    if n > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let mut db = Database::new();
    for _ in 0..n {
        let donor = |schema: &TableSchema| db.same_shape(schema).into_iter().flat_map(Table::iter);
        let table = read_table_sharing(r, donor)?;
        db.add_table(table)
            .map_err(|e| CodecError::Invalid(format!("duplicate table: {e}")))?;
    }
    Ok(db)
}

/// Steps over an encoded [`Database`] without building it.
pub fn skip_database(r: &mut Reader<'_>) -> CodecResult<()> {
    for _ in 0..r.read_varint()? {
        read_schema(r)?;
        for _ in 0..r.read_varint()? {
            skip_tuple(r)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema;
    use crate::tuple;

    #[test]
    fn varints_round_trip() {
        let mut out = Vec::new();
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &cases {
            out.clear();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.read_varint().unwrap(), v);
            assert!(r.is_empty());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            out.clear();
            put_varint_i64(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.read_varint_i64().unwrap(), v);
        }
    }

    #[test]
    fn truncated_varint_errors() {
        let mut r = Reader::new(&[0x80]);
        assert_eq!(r.read_varint(), Err(CodecError::Truncated));
        let mut r = Reader::new(&[0x80; 11]);
        assert!(matches!(r.read_varint(), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn values_and_tuples_round_trip() {
        let t = tuple![42i64, "héllo", true, false, -7i64, ""];
        let mut out = Vec::new();
        put_tuple(&mut out, &t);
        let mut r = Reader::new(&out);
        assert_eq!(read_tuple(&mut r).unwrap(), t);
        assert!(r.is_empty());
    }

    #[test]
    fn untagged_values_round_trip_under_their_type() {
        let values = [
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::from("héllo"),
            Value::from(""),
            Value::Bool(false),
            Value::Bool(true),
        ];
        for v in &values {
            let mut out = Vec::new();
            put_value_untagged(&mut out, v);
            assert!(!out.is_empty(), "{v:?} takes a byte");
            let mut r = Reader::new(&out);
            assert_eq!(&read_value_of(&mut r, v.value_type()).unwrap(), v);
            assert!(r.is_empty());
        }
        let bool_of = |byte: u8| read_value_of(&mut Reader::new(&[byte]), ValueType::Bool);
        assert!(matches!(bool_of(2), Err(CodecError::Invalid(_))));
        assert_eq!(
            read_value_of(&mut Reader::new(&[0x05, b'a']), ValueType::Str),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn schema_and_table_round_trip() {
        let mut table = Table::new(
            schema("flags")
                .col_str("id")
                .col_finite(
                    "on",
                    ValueType::Bool,
                    vec![Value::Bool(false), Value::Bool(true)],
                )
                .col_finite(
                    "state",
                    ValueType::Int,
                    vec![Value::Int(0), Value::Int(1), Value::Int(2)],
                )
                .key(&["id"]),
        );
        table.insert(tuple!["a", true, 0i64]).unwrap();
        table.insert(tuple!["b", false, 2i64]).unwrap();
        let mut out = Vec::new();
        put_table(&mut out, &table);
        let mut r = Reader::new(&out);
        let back = read_table_sharing(&mut r, |_| std::iter::empty()).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.schema(), table.schema());
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(&tuple!["b"]), Some(&tuple!["b", false, 2i64]));
    }

    #[test]
    fn database_round_trips() {
        let mut db = Database::new();
        db.create_table(
            schema("course")
                .col_str("cno")
                .col_str("title")
                .key(&["cno"]),
        )
        .unwrap();
        db.create_table(
            schema("prereq")
                .col_str("cno1")
                .col_str("cno2")
                .key(&["cno1", "cno2"]),
        )
        .unwrap();
        db.insert("course", tuple!["CS320", "Algorithms"]).unwrap();
        db.insert("prereq", tuple!["CS320", "CS240"]).unwrap();
        let mut out = Vec::new();
        put_database(&mut out, &db);
        let mut r = Reader::new(&out);
        let back = read_database(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(
            back.table_names().collect::<Vec<_>>(),
            db.table_names().collect::<Vec<_>>()
        );
        assert_eq!(back.total_rows(), db.total_rows());
        assert_eq!(
            back.table("course").unwrap().get(&tuple!["CS320"]),
            Some(&tuple!["CS320", "Algorithms"])
        );
    }

    #[test]
    fn corrupt_schema_key_rejected_not_panicking() {
        // Valid schema bytes, then break the key column index.
        let s = schema("t").col_int("a").key(&["a"]);
        let mut out = Vec::new();
        put_schema(&mut out, &s);
        // Last varint is the key position (0) — set it out of range.
        *out.last_mut().unwrap() = 9;
        let mut r = Reader::new(&out);
        assert!(matches!(read_schema(&mut r), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        let bytewise = |bytes: &[u8]| {
            let step =
                |c: u32, &b: &u8| CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            bytes.iter().fold(0xFFFF_FFFFu32, step) ^ 0xFFFF_FFFF
        };
        let mut x = 0x2545_F491u32;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        let buf: Vec<u8> = (0..4096 + 64).map(|_| next() as u8).collect();
        // Every length around the word size at every alignment, then
        // random windows of the buffer.
        for start in 0..9 {
            for len in 0..40 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
            }
        }
        for _ in 0..500 {
            let start = next() as usize % 64;
            let len = next() as usize % 4096;
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
        }
    }
}
