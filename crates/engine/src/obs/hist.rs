//! Fixed-bucket log2 latency histograms.
//!
//! A [`Histogram`] is 65 atomic buckets — one per bit width of the recorded
//! value (`bucket(v) = 64 - v.leading_zeros()`, with 0 in bucket 0) — plus
//! count, sum, and max cells. Recording is four relaxed atomic operations:
//! no locks, no allocation, no resizing, which is what lets per-round and
//! per-update phase timers stay on by default. The trade-off is bucket
//! resolution: each bucket spans one power of two, so an individual
//! quantile is exact only up to its bucket (the estimator interpolates
//! linearly inside the bucket and clamps to the observed max), while
//! `count`/`sum`/`max` — and therefore means and totals — are exact.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: bit widths 0..=64.
pub(crate) const N_BUCKETS: usize = 65;

/// The bucket index a value lands in: its bit width.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive value range `[lo, hi]` of bucket `i`.
pub(crate) fn bucket_range(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// A lock-free log2 histogram (see the module docs).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating past
    /// ~584 years).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (exact, unlike the quantiles).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the whole distribution. Concurrent recording
    /// makes this "consistent enough": each cell is read once, relaxed, so
    /// totals may disagree with buckets by in-flight updates, never more.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (index = bit width of the value).
    pub buckets: [u64; N_BUCKETS],
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean of recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`): walks the bucket CDF to the
    /// bucket holding the rank, interpolates linearly inside it, and clamps
    /// to the observed max. Exact up to bucket resolution (one power of
    /// two); returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the quantile observation.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bucket_range(i);
                // Position of the rank inside this bucket, interpolated
                // over the bucket's value span.
                let into = (rank - seen - 1) as f64 / n as f64;
                let est = lo as f64 + into * (hi - lo) as f64;
                return (est as u64).min(self.max.max(lo)).max(lo);
            }
            seen += n;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Bit-width bucketing: 0 | 1 | 2,3 | 4..7 | 8..15 | ...
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..N_BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_of(hi), i, "hi of bucket {i}");
            if hi < u64::MAX {
                assert_eq!(bucket_of(hi + 1), i + 1, "hi+1 leaves bucket {i}");
            }
        }
    }

    #[test]
    fn exact_totals() {
        let h = Histogram::default();
        for v in [0, 1, 1, 5, 1000, 65_536] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 66_543);
        assert_eq!(h.max(), 65_536);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 1); // the 0
        assert_eq!(snap.buckets[1], 2); // the 1s
        assert_eq!(snap.buckets[3], 1); // 5
        assert_eq!(snap.buckets[10], 1); // 1000 (bit width 10)
        assert_eq!(snap.buckets[17], 1); // 65536 = 2^16 (bit width 17)
    }

    #[test]
    fn quantiles_within_bucket_resolution() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Log2 buckets: any quantile estimate must be within a factor of 2
        // of the true order statistic.
        for (q, truth) in [(0.5, 500u64), (0.95, 950), (0.99, 990)] {
            let est = h.snapshot().quantile(q);
            assert!(
                est >= truth / 2 && est <= truth * 2,
                "q={q}: est {est} vs true {truth}"
            );
        }
        assert_eq!(h.snapshot().quantile(1.0), h.max());
        assert!(h.snapshot().quantile(0.0) <= 2);
    }

    #[test]
    fn quantile_degenerate_cases() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile(0.5), 0, "empty histogram");
        h.record(42);
        // A single observation is every quantile, up to bucket resolution.
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = h.snapshot().quantile(q);
            assert!((32..=42).contains(&est), "q={q}: {est}");
        }
    }

    #[test]
    fn duration_recording_saturates() {
        let h = Histogram::default();
        h.record_duration(std::time::Duration::from_nanos(1500));
        assert_eq!(h.sum(), 1500);
        h.record_duration(std::time::Duration::MAX); // > u64::MAX nanos
        assert_eq!(h.max(), u64::MAX);
    }
}
