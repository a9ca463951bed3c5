//! The three metric kinds: monotone counters, settable gauges, and
//! fixed-bucket histograms. All are cheap clonable handles over atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default buckets for durations in seconds (100µs … 100s).
pub const DURATION_BUCKETS: &[f64] = &[
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0, 30.0, 100.0,
];

/// Default buckets for byte sizes (64 B … 16 MiB).
pub const SIZE_BUCKETS: &[f64] = &[
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0, 16777216.0,
];

/// Monotonically increasing event count.
#[derive(Debug, Clone)]
pub struct Counter {
    pub(crate) value: Arc<AtomicU64>,
}

impl Counter {
    pub(crate) fn new() -> Counter {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways, stored as `f64` bits in an atomic.
#[derive(Debug, Clone)]
pub struct Gauge {
    pub(crate) bits: Arc<AtomicU64>,
}

impl Gauge {
    pub(crate) fn new() -> Gauge {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Replace the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative) with a compare-and-swap loop.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramData {
    /// Ascending upper bounds; the final `+Inf` bucket is implicit.
    pub(crate) bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; `counts.len() ==
    /// bounds.len() + 1`, the last slot being the `+Inf` overflow.
    pub(crate) counts: Vec<AtomicU64>,
    /// Sum of all observations, as `f64` bits.
    pub(crate) sum_bits: AtomicU64,
}

/// Distribution of observations over fixed buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) data: Arc<HistogramData>,
}

impl Histogram {
    pub(crate) fn new(buckets: &[f64]) -> Histogram {
        assert!(
            buckets.windows(2).all(|w| w[0] < w[1]),
            "histogram buckets must be strictly ascending"
        );
        Histogram {
            data: Arc::new(HistogramData {
                bounds: buckets.to_vec(),
                counts: (0..=buckets.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .data
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.data.bounds.len());
        self.data.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.data.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.data.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.data
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observations.
    pub(crate) fn sum(&self) -> f64 {
        f64::from_bits(self.data.sum_bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 55.5).abs() < 1e-12);
        let raw: Vec<u64> = h
            .data
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        assert_eq!(raw, vec![1, 1, 1]);
    }
}
