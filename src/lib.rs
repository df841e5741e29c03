//! `rxview` — facade crate for the full reproduction of *Updating Recursive
//! XML Views of Relations* (Choi, Cong, Fan, Viglas; ICDE 2007 / JCST 2008).
//!
//! This crate re-exports the production crates so applications can depend on
//! a single crate (not `rxview-reference`, the paper's transcriptions the
//! tests hold them to, which no production crate links):
//!
//! - [`relstore`]: in-memory relational engine, SPJ queries, key preservation.
//! - [`xmlkit`]: DTDs, XML trees, and the paper's XPath fragment.
//! - [`satsolver`]: CNF + WalkSAT/DPLL used by insertion translation.
//! - [`atg`]: attribute translation grammars and DAG publishing (§2.2–2.3).
//! - [`core`]: XPath-on-DAG evaluation, side effects, update translation, and
//!   the end-to-end processor (§3–§4).
//! - [`engine`]: the concurrent serving layer — snapshot-isolated readers
//!   and writes group-committed in conflict-free rounds through one round
//!   pipeline over the core processor.
//! - [`workload`]: the registrar example, the synthetic dataset of §5,
//!   concurrent reader/writer mixes, and hot-anchor skewed traffic.
//!
//! See `examples/quickstart.rs` for an end-to-end tour, `README.md` for the
//! project overview, and `ARCHITECTURE.md` for the paper→code map and the
//! serving pipeline.

pub use rxview_atg as atg;
pub use rxview_core as core;
pub use rxview_engine as engine;
pub use rxview_relstore as relstore;
pub use rxview_satsolver as satsolver;
pub use rxview_workload as workload;
pub use rxview_xmlkit as xmlkit;

/// Commonly used items for applications.
pub mod prelude {
    pub use rxview_atg::{Atg, AtgBuilder};
    pub use rxview_core::{
        RelFootprint, SideEffectPolicy, UpdateOutcome, UpdateReport, ViewStore, XmlUpdate,
        XmlViewSystem,
    };
    pub use rxview_engine::{
        Durability, Engine, EngineConfig, RecoveryReport, Snapshot, UpdateTicket,
    };
    pub use rxview_relstore::{schema, Database, GroupUpdate, SpjQuery, Tuple, Value};
    pub use rxview_xmlkit::{Dtd, XPath};
}
