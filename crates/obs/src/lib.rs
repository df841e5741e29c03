//! `rxview-obs` — the engine-wide telemetry layer.
//!
//! Hand-rolled and dependency-free (like the PR-4 codec: the container is
//! offline), this crate supplies the four observability primitives the
//! serving engine is instrumented with:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]): atomics all the
//!   way down. Counters and gauges are single `AtomicU64`/`AtomicI64`
//!   cells; histograms are fixed arrays of 64 log2 buckets (one per bit
//!   width of the recorded value) plus count/sum/max, so recording is a
//!   handful of relaxed atomic adds and never allocates, locks, or
//!   resizes. Quantiles (p50/p95/p99) are extracted from the bucket
//!   cumulative distribution at read time.
//! - **The registry** ([`Registry`]): a name → metric map. Registration
//!   (start-up) takes a lock; the *hot path never does* — callers hold the
//!   returned `Arc` handles and update them directly. [`Registry::snapshot`]
//!   produces a consistent-enough point-in-time listing for export.
//! - **The flight recorder** ([`FlightRecorder`]): a fixed-capacity ring
//!   buffer of structured [`Event`]s (round committed, checkpoint start,
//!   WAL rotation, …) that can be dumped as JSONL on demand or when
//!   something goes wrong — the last N things the engine did, always
//!   available, never growing.
//! - **The exporter** ([`Exporter`]): a background thread that periodically
//!   snapshots a registry to a JSONL metrics file (one self-contained JSON
//!   object per line, timestamped), plus [`text_report`] for a
//!   human-readable rendering of the same snapshot.
//!
//! Everything is always on: recording is relaxed atomics and there is no
//! off switch, so every measured number includes its cost (which has not
//! been measured on its own).

#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod registry;

pub use export::{text_report, Exporter};
pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use recorder::{Event, FieldValue, FlightRecorder};
pub use registry::{MetricSnapshot, Registry};
