//! Atomic counters and gauges — the scalar metrics.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter. All operations are relaxed atomic
/// adds/loads: concurrent writers never contend beyond the cache line.
#[derive(Debug, Default)]
pub(crate) struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub(crate) fn incr(&self) {
        self.add(1);
    }

    /// Raises the counter to `v` if `v` is larger (for high-watermark
    /// counters like "largest batch seen").
    #[inline]
    pub(crate) fn fetch_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge (sizes of the published state).
#[derive(Debug, Default)]
pub(crate) struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub(crate) fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub(crate) fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::default();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.fetch_max(10); // smaller: no effect
        assert_eq!(c.get(), 42);
        c.fetch_max(100);
        assert_eq!(c.get(), 100);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.set(-3);
        assert_eq!(g.get(), -3);
        g.set(7);
        assert_eq!(g.get(), 7);
    }
}
