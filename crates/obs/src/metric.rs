//! The three metric primitives: atomic counters, gauges, and sharded
//! log-bucketed latency histograms.
//!
//! Everything here is wait-free on the record path: a counter increment or a
//! histogram observation is **one relaxed atomic op** (the histogram derives
//! its total count and approximate sum from the buckets at scrape time, so
//! recording touches exactly one bucket cell). Histograms additionally shard
//! their bucket arrays by thread so concurrent recorders on different cores
//! do not fight over one cache line.

use abase_util::histogram::{self, LatencyHistogram};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (connection counts, lag, queue depths).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket shards: concurrent recorders hash their thread onto one of these
/// so a hot histogram does not serialize every core on one cache line.
pub const HISTO_SHARDS: usize = 8;

/// A stable per-thread shard index (threads are striped round-robin).
#[inline]
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    IDX.with(|i| *i) & (HISTO_SHARDS - 1)
}

/// A concurrent log-bucketed latency histogram (microsecond domain).
///
/// The bucket layout is [`abase_util::histogram`]'s (10 µs .. 100 s at 5 %
/// growth), so a snapshot converts into a [`LatencyHistogram`] bucket for
/// bucket and reuses its quantile math. Recording computes the bucket index
/// (pure arithmetic) and performs a single relaxed `fetch_add` on the
/// recorder thread's shard.
#[derive(Debug)]
pub struct Histo {
    shards: Box<[Box<[AtomicU64]>]>,
}

impl Default for Histo {
    fn default() -> Self {
        Self::new()
    }
}

impl Histo {
    /// An empty histogram with the shared latency layout.
    pub fn new() -> Self {
        let shards = (0..HISTO_SHARDS)
            .map(|_| {
                (0..histogram::BUCKETS)
                    .map(|_| AtomicU64::new(0))
                    .collect::<Vec<_>>()
                    .into_boxed_slice()
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self { shards }
    }

    /// Record one observation of `micros`. One relaxed atomic op.
    #[inline]
    pub fn record(&self, micros: u64) {
        let idx = histogram::bucket_index(micros as f64);
        self.shards[shard_index()][idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Per-bucket totals summed across shards.
    pub fn bucket_counts(&self) -> Vec<u64> {
        let mut out = vec![0u64; histogram::BUCKETS];
        for shard in self.shards.iter() {
            for (total, cell) in out.iter_mut().zip(shard.iter()) {
                *total += cell.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Convert to a [`LatencyHistogram`] over the same buckets, reusing its
    /// quantile math. Approximate sum/mean come from bucket midpoints
    /// (bounded relative error, same contract as the quantiles).
    pub fn to_latency_histogram(&self) -> LatencyHistogram {
        LatencyHistogram::from_bucket_counts(&self.bucket_counts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histo_layout_matches_latency_histogram() {
        let h = Histo::new();
        for i in 1..=10_000u64 {
            h.record(i * 10); // 10 µs .. 100 ms uniformly
        }
        assert_eq!(h.count(), 10_000);
        let lat = h.to_latency_histogram();
        assert_eq!(lat.count(), 10_000);
        let p50 = lat.quantile(0.5).unwrap();
        let p99 = lat.quantile(0.99).unwrap();
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.07, "p50={p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.07, "p99={p99}");
    }

    #[test]
    fn histo_midpoints_map_back_to_their_bucket() {
        // Below bucket ~20 the bucket width drops under 1 µs, so integer
        // micros cannot distinguish neighbours; recording is integer-valued,
        // but the f64 midpoints used by `to_latency_histogram` must round-trip
        // everywhere integers can represent the bucket.
        for i in [0usize, 30, 60, 100, 200, 331] {
            let mid = histogram::bucket_mid(i);
            let h = Histo::new();
            h.record(mid as u64);
            let counts = h.bucket_counts();
            assert_eq!(counts[i], 1, "bucket {i} mid {mid}");
        }
    }

    #[test]
    fn histo_concurrent_records_land_in_shards() {
        let h = std::sync::Arc::new(Histo::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        h.record(500);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }
}
