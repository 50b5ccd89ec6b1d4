//! Fixed-bucket log-scale wall-time histograms.
//!
//! Buckets are powers of two of nanoseconds: bucket `i` counts
//! durations in `[2^i, 2^(i+1))` ns (bucket 0 additionally absorbs 0 ns;
//! the last bucket saturates). The bucket layout is a compile-time
//! constant, so every export has the same shape, and a histogram's
//! counts are sums over `u64`, which do not depend on the order the
//! spans were recorded in.

/// Number of log₂ buckets. Bucket 31 starts at `2^31` ns ≈ 2.1 s;
/// anything longer saturates there.
pub(crate) const HIST_BUCKETS: usize = 32;

/// A fixed-bucket log₂(ns) histogram with exact count and sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Per-bucket sample counts (`buckets[i]` covers `[2^i, 2^(i+1))` ns).
    buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    count: u64,
    /// Exact sum of all recorded durations, in nanoseconds.
    sum_ns: u64,
}

impl Hist {
    /// An empty histogram.
    pub(crate) const fn new() -> Self {
        Self { buckets: [0; HIST_BUCKETS], count: 0, sum_ns: 0 }
    }

    /// The bucket index a duration of `ns` nanoseconds falls into.
    #[inline]
    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            return 0;
        }
        ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Inclusive lower bound (ns) of bucket `i`.
    fn bucket_floor_ns(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Records one duration.
    #[inline]
    pub(crate) fn record_ns(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Total samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded durations, ns.
    pub(crate) fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Floor (ns) of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or 0 when empty. Log-bucketed, so this is a
    /// lower bound with ≤ 2× resolution — enough to spot phase-time
    /// cliffs without storing samples.
    pub(crate) fn quantile_floor_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor_ns(i);
            }
        }
        Self::bucket_floor_ns(HIST_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 0);
        assert_eq!(Hist::bucket_of(2), 1);
        assert_eq!(Hist::bucket_of(3), 1);
        assert_eq!(Hist::bucket_of(4), 2);
        assert_eq!(Hist::bucket_of(1023), 9);
        assert_eq!(Hist::bucket_of(1024), 10);
        assert_eq!(Hist::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantile_floor_is_monotone() {
        let mut h = Hist::new();
        for i in 0..1000u64 {
            h.record_ns(i * 37);
        }
        let q50 = h.quantile_floor_ns(0.5);
        let q90 = h.quantile_floor_ns(0.9);
        let q99 = h.quantile_floor_ns(0.99);
        assert!(q50 <= q90 && q90 <= q99, "{q50} {q90} {q99}");
        assert_eq!(Hist::new().quantile_floor_ns(0.5), 0);
    }
}
