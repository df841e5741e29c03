//! Exporting the metric listing: periodic JSONL snapshots + a text report.
//!
//! The [`Exporter`] is a background thread that appends one self-contained
//! JSON object per tick to a metrics file — each line carries a timestamp
//! and every metric of [`EngineStats::metrics`], so any line alone
//! reconstructs the state and consecutive lines give rates. Dropping the
//! exporter writes one final snapshot and joins the thread, so short-lived
//! processes (benches, tests) still leave a complete file.
//!
//! [`text_report`] renders the same snapshot for humans.

use super::json::{push_f64, push_str_escaped};
use super::{HistogramSnapshot, MetricSnapshot};
use crate::stats::EngineStats;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

fn push_histogram_json(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, ",
        h.count, h.sum, h.max
    );
    out.push_str("\"mean\": ");
    push_f64(out, h.mean());
    for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
        let _ = write!(out, ", \"{label}\": {}", h.quantile(q));
    }
    out.push('}');
}

/// Renders one metric listing as a single JSON object (no newline):
/// `{"at_micros": ..., "metrics": {...}}`.
fn snapshot_json(snap: &[(&str, MetricSnapshot)], at_micros: u64) -> String {
    let mut out = String::with_capacity(64 + snap.len() * 48);
    let _ = write!(out, "{{\"at_micros\": {at_micros}, \"metrics\": {{");
    for (i, (name, value)) in snap.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_escaped(&mut out, name);
        out.push_str(": ");
        match value {
            MetricSnapshot::Counter(v) => {
                let _ = write!(out, "{v}");
            }
            MetricSnapshot::Gauge(v) => {
                let _ = write!(out, "{v}");
            }
            MetricSnapshot::Histogram(h) => push_histogram_json(&mut out, h),
        }
    }
    out.push_str("}}");
    out
}

/// Renders a metric listing as an aligned text table — counters and gauges
/// as bare numbers, histograms as `count / mean / p50 / p95 / p99 / max`.
pub(crate) fn text_report(snap: &[(&str, MetricSnapshot)]) -> String {
    let width = snap.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, value) in snap {
        match value {
            MetricSnapshot::Counter(v) => {
                let _ = writeln!(out, "{name:width$}  {v}");
            }
            MetricSnapshot::Gauge(v) => {
                let _ = writeln!(out, "{name:width$}  {v}");
            }
            MetricSnapshot::Histogram(h) => {
                let _ = writeln!(
                    out,
                    "{name:width$}  n={} mean={:.0} p50={} p95={} p99={} max={}",
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.max
                );
            }
        }
    }
    out
}

#[derive(Debug, Default)]
struct ExporterSignal {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl ExporterSignal {
    /// The stop flag. A `bool` cannot be left torn, so a poisoned lock is
    /// taken as it is.
    fn stopped(&self) -> MutexGuard<'_, bool> {
        self.stopped.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The periodic JSONL exporter thread (see the module docs).
#[derive(Debug)]
pub(crate) struct Exporter {
    signal: Arc<ExporterSignal>,
    thread: Option<std::thread::JoinHandle<()>>,
    path: PathBuf,
}

impl Exporter {
    /// Spawns an exporter appending `stats`' metric listing to `path`
    /// every `interval` (and once at shutdown). The file is created (or
    /// appended to) lazily by the thread; I/O errors are reported to
    /// stderr once and the exporter keeps trying — telemetry must never
    /// take the engine down.
    ///
    /// # Errors
    /// The thread could not be spawned.
    pub(crate) fn spawn(
        stats: Arc<EngineStats>,
        path: impl AsRef<Path>,
        interval: Duration,
    ) -> io::Result<Exporter> {
        let path = path.as_ref().to_path_buf();
        let signal = Arc::new(ExporterSignal::default());
        let thread_signal = Arc::clone(&signal);
        let thread_path = path.clone();
        let epoch = std::time::Instant::now();
        let thread = std::thread::Builder::new()
            .name("rxview-metrics".into())
            .spawn(move || {
                let mut warned = false;
                loop {
                    let stopped = {
                        let guard = thread_signal.stopped();
                        let waited =
                            thread_signal
                                .cv
                                .wait_timeout_while(guard, interval, |stopped| !*stopped);
                        *waited.unwrap_or_else(PoisonError::into_inner).0
                    };
                    let at = u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
                    let line = snapshot_json(&stats.metrics(), at);
                    if let Err(e) = append_line(&thread_path, &line) {
                        if !warned {
                            eprintln!(
                                "rxview: metrics export to {} failed: {e}",
                                thread_path.display()
                            );
                            warned = true;
                        }
                    }
                    if stopped {
                        return;
                    }
                }
            })?;
        Ok(Exporter {
            signal,
            thread: Some(thread),
            path,
        })
    }

    /// Where this exporter writes.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

fn append_line(path: &Path, line: &str) -> io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())?;
    f.write_all(b"\n")
}

impl Drop for Exporter {
    fn drop(&mut self) {
        {
            let mut stopped = self.signal.stopped();
            *stopped = true;
            self.signal.cv.notify_one();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(v: u64) -> MetricSnapshot {
        let h = super::super::Histogram::default();
        h.record(v);
        MetricSnapshot::Histogram(Box::new(h.snapshot()))
    }

    #[test]
    fn snapshot_json_covers_all_kinds() {
        let snap = [
            ("c", MetricSnapshot::Counter(5)),
            ("g", MetricSnapshot::Gauge(-3)),
            ("h", histogram(100)),
        ];
        let line = snapshot_json(&snap, 42);
        assert!(line.starts_with("{\"at_micros\": 42, \"metrics\": {"));
        assert!(line.contains("\"c\": 5"));
        assert!(line.contains("\"g\": -3"));
        assert!(line.contains("\"h\": {\"count\": 1, \"sum\": 100"));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn exporter_writes_final_snapshot_on_drop() {
        let stats = Arc::new(EngineStats::new(
            crate::stats::flight_recorder(),
            Arc::default(),
        ));
        stats.wal_bytes.add(9);
        let path = std::env::temp_dir().join(format!(
            "rxview-obs-export-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            // Interval far beyond the test's lifetime: only the shutdown
            // snapshot is guaranteed deterministic.
            let _exporter = Exporter::spawn(Arc::clone(&stats), &path, Duration::from_secs(3600))
                .expect("spawns");
        }
        let contents = std::fs::read_to_string(&path).expect("metrics file written");
        let lines: Vec<&str> = contents.lines().collect();
        assert!(!lines.is_empty());
        assert!(lines.last().unwrap().contains("\"wal.bytes\": 9"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn text_report_lists_everything() {
        let snap = [
            ("round.plan_ns", histogram(2048)),
            ("updates.accepted", MetricSnapshot::Counter(12)),
        ];
        let report = text_report(&snap);
        assert!(report.contains("updates.accepted"));
        assert!(report.contains("12"));
        assert!(report.contains("round.plan_ns"));
        assert!(report.contains("n=1"));
    }
}
