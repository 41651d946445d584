//! Log-bucketed latency histogram.
//!
//! Figure 4a of the paper reports per-tenant P99 latency relative to the SLA.
//! Recording every request latency exactly would dominate simulation memory, so
//! the simulator uses a histogram with logarithmically spaced buckets: constant
//! relative error (~5 %) at any latency magnitude.
//!
//! This module owns the one bucket layout in the workspace — 10 µs .. 100 s
//! at 5 % growth — and its bucket math. `abase_obs::Histo` records into the
//! same layout through [`bucket_index`], so its snapshots convert into a
//! [`LatencyHistogram`] bucket for bucket.

/// Lower clamp of the layout in µs: values at or below land in bucket 0.
const MIN_MICROS: f64 = 10.0;
/// `1.05f64.ln()` (5 % bucket growth), spelled out because `f64::ln` is not
/// `const`; a test pins it bit-for-bit.
const LOG_GROWTH: f64 = 0.04879016416943205;
/// Bucket count up to the 100 s upper clamp:
/// `ceil(ln(1e8 / MIN_MICROS) / LOG_GROWTH) + 1`, pinned by a test. Values
/// beyond the clamp land in the last bucket.
pub const BUCKETS: usize = 332;

/// The bucket holding `value` µs: bucket `i` covers
/// `[MIN * growth^i, MIN * growth^(i+1))`.
#[inline]
pub fn bucket_index(value: f64) -> usize {
    if value <= MIN_MICROS {
        return 0;
    }
    let idx = ((value / MIN_MICROS).ln() / LOG_GROWTH) as usize;
    idx.min(BUCKETS - 1)
}

/// The geometric midpoint of bucket `i` (the value a bucketed observation
/// stands for in approximate sums).
pub fn bucket_mid(i: usize) -> f64 {
    MIN_MICROS * (LOG_GROWTH * (i as f64 + 0.5)).exp()
}

/// The upper bound of bucket `i` (Prometheus `le` boundary).
pub fn bucket_upper(i: usize) -> f64 {
    MIN_MICROS * (LOG_GROWTH * (i as f64 + 1.0)).exp()
}

/// A histogram of request latencies in microseconds over the shared
/// log-spaced layout.
///
/// Values are clamped into 10 µs .. 100 s. Quantile queries return the
/// geometric midpoint of the bucket containing the requested rank, giving
/// ~5 % bounded relative error.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn for_latency_micros() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0.0,
        }
    }

    /// A histogram holding per-bucket `counts` (at most [`BUCKETS`] of them)
    /// recorded elsewhere in the same layout; each observation counts at
    /// its bucket's midpoint toward the mean.
    pub fn from_bucket_counts(counts: &[u64]) -> Self {
        let mut h = Self::for_latency_micros();
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                h.counts[i] = c;
                h.total += c;
                h.sum += bucket_mid(i) * c as f64;
            }
        }
        h
    }

    /// Record one observation.
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Record `n` identical observations.
    pub fn record_n(&mut self, value: f64, n: u64) {
        self.counts[bucket_index(value.max(0.0))] += n;
        self.total += n;
        self.sum += value * n as f64;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded observations (exact, not bucketed). 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Approximate quantile `q ∈ [0,1]`; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                // Geometric midpoint of bucket i.
                let lo = MIN_MICROS * (LOG_GROWTH * i as f64).exp();
                let hi = lo * LOG_GROWTH.exp();
                return Some((lo * hi).sqrt());
            }
        }
        unreachable!("cumulative count must reach total");
    }

    /// Merge another histogram's observations into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Reset all counts to zero.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = LatencyHistogram::for_latency_micros();
        for i in 1..=10_000u64 {
            h.record(i as f64 * 10.0); // 10 µs .. 100 ms uniformly
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.06, "p50={p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.06, "p99={p99}");
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let h = LatencyHistogram::for_latency_micros();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::for_latency_micros();
        h.record(100.0);
        h.record(300.0);
        assert!((h.mean() - 200.0).abs() < 1e-12);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = LatencyHistogram::for_latency_micros();
        let mut b = LatencyHistogram::for_latency_micros();
        for _ in 0..7 {
            a.record(555.0);
        }
        b.record_n(555.0, 7);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::for_latency_micros();
        let mut b = LatencyHistogram::for_latency_micros();
        a.record(100.0);
        b.record(10_000.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        // p0 should be near 100, p100 near 10_000.
        assert!(a.quantile(0.01).unwrap() < 200.0);
        assert!(a.quantile(1.0).unwrap() > 5_000.0);
    }

    #[test]
    fn layout_constants_match_their_formulas() {
        assert_eq!(LOG_GROWTH.to_bits(), 1.05f64.ln().to_bits());
        let buckets = ((100_000_000.0 / MIN_MICROS).ln() / LOG_GROWTH).ceil() as usize + 1;
        assert_eq!(BUCKETS, buckets);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut h = LatencyHistogram::for_latency_micros();
        h.record(1.0); // below min
        h.record(1e12); // above max
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.0).unwrap() >= 10.0);
        assert_eq!(bucket_index(1e12), BUCKETS - 1);
        assert!(h.quantile(1.0).unwrap() <= bucket_upper(BUCKETS - 1));
    }

    #[test]
    fn bucket_counts_round_trip_through_midpoints() {
        let mut counts = vec![0u64; BUCKETS];
        counts[0] = 3;
        counts[120] = 5;
        counts[BUCKETS - 1] = 1;
        let direct = LatencyHistogram::from_bucket_counts(&counts);
        let mut recorded = LatencyHistogram::for_latency_micros();
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                recorded.record_n(bucket_mid(i), c);
            }
        }
        assert_eq!(direct.counts, recorded.counts);
        assert_eq!(direct.count(), 9);
        assert_eq!(direct.mean().to_bits(), recorded.mean().to_bits());
    }

    #[test]
    fn clear_resets() {
        let mut h = LatencyHistogram::for_latency_micros();
        h.record(42.0);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }
}
