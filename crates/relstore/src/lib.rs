//! `rxview-relstore` — an in-memory relational engine purpose-built for
//! *Updating Recursive XML Views of Relations* (Choi, Cong, Fan, Viglas;
//! ICDE 2007).
//!
//! It provides:
//! - typed schemas with primary keys and finite/infinite column domains
//!   ([`schema()`], [`Value`]);
//! - key-indexed tables and databases with atomic group updates ([`Table`],
//!   [`Database`], [`GroupUpdate`]), stored in the page-granular
//!   copy-on-write containers [`PagedMap`] and [`PagedVec`] so that versions
//!   share everything they did not change;
//! - parameterized select-project-join queries, compiled once into index
//!   nested-loop plans and run many times ([`SpjQuery`], [`SpjPlan`]);
//! - the paper's *key preservation* analysis (§4.1,
//!   [`SpjQuery::is_key_preserving`]);
//! - the binary encoding the checkpoint and log formats are built from
//!   ([`codec`]).
//!
//! Everything is deterministic: tables iterate in key order and query output
//! is sorted, so publishing and benchmarks are reproducible.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod codec;
mod cow;
mod database;
mod error;
mod eval;
mod schema;
mod spj;
mod table;
mod tuple;
mod update;
mod value;

pub use codec::{crc32, CodecError, CodecResult, Reader};
pub use cow::{PagedMap, PagedVec};
pub use database::Database;
pub use error::{RelError, RelResult};
pub use eval::{eval_spj, BoundPlan, PlanAccess, PlanSrc, PlanStep, SpjPlan, TableSource};
pub use schema::{schema, ColumnDef, SchemaBuilder, TableSchema};
pub use spj::{ColRef, EqClosure, EqPred, Operand, SchemaProvider, SpjBuilder, SpjQuery, TableRef};
pub use table::{Probe, RowSource, Table};
pub use tuple::Tuple;
pub use update::{GroupUpdate, TupleOp};
pub use value::{Domain, Value, ValueType};
