//! The engine's telemetry primitives.
//!
//! Hand-rolled and dependency-free (the container is offline), this module
//! supplies what [`crate::EngineStats`] is built from:
//!
//! - **Metrics** ([`Histogram`], and the crate's counters and gauges):
//!   atomics all the way down. Counters and gauges are single
//!   `AtomicU64`/`AtomicI64` cells; histograms are fixed arrays of 64 log2
//!   buckets (one per bit width of the recorded value) plus count/sum/max,
//!   so recording is a handful of relaxed atomic adds and never allocates,
//!   locks, or resizes. Quantiles (p50/p95/p99) are extracted from the
//!   bucket cumulative distribution at read time. The engine's metric table
//!   (`stats.rs`) owns every handle and is the one list of their names:
//!   [`crate::EngineStats::metrics`] reads them out, name-sorted.
//! - **The flight recorder** ([`FlightRecorder`]): a fixed-capacity ring
//!   buffer of structured [`Event`]s (round committed, checkpoint start,
//!   WAL rotation, …) that can be dumped as JSONL on demand — the last N
//!   things the engine did, always available, never growing.
//!
//! Nothing here starts a thread or writes a file: telemetry leaves the
//! engine only when a caller asks ([`crate::EngineStats::metrics`],
//! [`crate::Engine::telemetry_report`], [`crate::Engine::flight_recording`]).
//!
//! Everything is always on: recording is relaxed atomics and there is no
//! off switch, so every measured number includes its cost (which has not
//! been measured on its own).

mod hist;
mod json;
mod metrics;
mod recorder;

pub use hist::{Histogram, HistogramSnapshot};
pub(crate) use metrics::{Counter, Gauge};
pub(crate) use recorder::fields;
pub use recorder::{Event, FieldValue, FlightRecorder};

/// A point-in-time value of one metric (see [`crate::EngineStats::metrics`]).
#[derive(Debug, Clone)]
pub enum MetricSnapshot {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(i64),
    /// A histogram's full distribution. Boxed: the 65-bucket snapshot is
    /// ~70× the size of the scalar variants, and snapshots are cold-path.
    Histogram(Box<HistogramSnapshot>),
}
