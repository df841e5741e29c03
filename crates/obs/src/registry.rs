//! The metric registry: names → metrics, lock-free after registration.
//!
//! Callers register each metric once (usually at construction) and hold the
//! returned `Arc` handle; every subsequent increment/record goes straight
//! to the atomic cells without touching the registry. The registry's lock
//! is taken only by registration itself and by [`Registry::snapshot`] — the
//! exporter's once-a-second read — so the hot path never serializes on it.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::metrics::{Counter, Gauge};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A metric slot in the registry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A point-in-time value of one metric (see [`Registry::snapshot`]).
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

/// A name → metric map (see the module docs). Cheap to share behind an
/// `Arc`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct Registry {
    // BTreeMap: snapshots come out name-sorted for free, which keeps the
    // exported JSONL and the text report stable across runs.
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The metric registered under `name`, created by `fresh` on first use;
    /// the typed getters below check its kind.
    fn get_or_register(&self, name: &str, fresh: fn() -> Metric) -> Metric {
        let mut m = self.metrics.write().expect("registry lock poisoned");
        m.entry(name.to_owned()).or_insert_with(fresh).clone()
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind —
    /// a naming collision is a bug at the instrumentation site, not a
    /// runtime condition to limp through.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_register(name, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            _ => kind_collision(name),
        }
    }

    /// The gauge registered under `name`, creating it on first use (same
    /// kind-collision contract as [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_register(name, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            _ => kind_collision(name),
        }
    }

    /// The histogram registered under `name`, creating it on first use
    /// (same kind-collision contract as [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_register(name, || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            _ => kind_collision(name),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.read().expect("registry lock poisoned").len()
    }

    /// Whether nothing is registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A name-sorted point-in-time copy of every metric. Individual cells
    /// are read relaxed, so concurrent recording may skew cross-metric
    /// relationships by in-flight updates — fine for export, not a barrier.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let m = self.metrics.read().expect("registry lock poisoned");
        m.iter()
            .map(|(name, metric)| {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(Box::new(h.snapshot())),
                };
                (name.clone(), snap)
            })
            .collect()
    }
}

fn kind_collision(name: &str) -> ! {
    panic!("metric `{name}` already registered with a different kind")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_cell() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_collision_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("zeta").add(1);
        r.gauge("alpha").set(-2);
        r.histogram("mid").record(10);
        let names: Vec<String> = r.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
