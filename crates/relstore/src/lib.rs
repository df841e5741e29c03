//! `rxview-relstore` — an in-memory relational engine purpose-built for
//! *Updating Recursive XML Views of Relations* (Choi, Cong, Fan, Viglas;
//! ICDE 2007).
//!
//! It provides:
//! - typed schemas with primary keys and finite/infinite column domains
//!   ([`mod@schema`], [`value`]);
//! - key-indexed tables and databases with atomic group updates ([`table`],
//!   [`database`], [`update`]), stored in the page-granular copy-on-write
//!   containers of [`cow`] so that versions share everything they did not
//!   change;
//! - parameterized select-project-join queries, compiled once into index
//!   nested-loop plans and run many times ([`spj`], [`eval`]);
//! - the paper's *key preservation* analysis (§4.1) and deletable-source
//!   lineage (§4.2) ([`spj`], [`lineage`]).
//!
//! Everything is deterministic: tables iterate in key order and query output
//! is sorted, so publishing and benchmarks are reproducible.

#![warn(missing_docs)]

pub mod codec;
pub mod cow;
pub mod database;
pub mod error;
pub mod eval;
pub mod lineage;
pub mod schema;
pub mod spj;
pub mod table;
pub mod tuple;
pub mod update;
pub mod value;

pub use codec::{crc32, CodecError, CodecResult, Reader};
pub use cow::{PagedMap, PagedVec};
pub use database::Database;
pub use error::{RelError, RelResult};
pub use eval::{eval_spj, Augmented, SpjPlan, TableSource};
pub use lineage::{deletable_source, resolve_source, SourceRef};
pub use schema::{schema, ColumnDef, SchemaBuilder, TableSchema};
pub use spj::{ColRef, EqClosure, EqPred, Operand, SchemaProvider, SpjBuilder, SpjQuery, TableRef};
pub use table::Table;
pub use tuple::Tuple;
pub use update::{GroupUpdate, TupleOp};
pub use value::{Domain, Value, ValueType};
