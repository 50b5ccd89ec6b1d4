//! Zipf-distributed channel popularity.
//!
//! Measurement studies of deployed multi-channel P2P systems (PPLive,
//! UUSee — the systems cited in the paper's introduction) consistently
//! report Zipf-like channel popularity: the `k`-th most popular channel
//! attracts a share proportional to `1/k^s`. The multi-channel workload
//! generator uses this distribution to assign peers to channels.

use rand::Rng;

/// A Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Sampling is O(log n) via binary search over the precomputed CDF.
///
/// # Example
///
/// ```
/// use rths_stoch::Zipf;
/// use rths_stoch::rng::seeded_rng;
///
/// let zipf = Zipf::new(10, 1.0);
/// let mut rng = seeded_rng(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 10);
/// // Rank 0 is the most likely outcome.
/// assert!(zipf.pmf(0) > zipf.pmf(9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
    pmf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// `s = 0` gives the uniform distribution; `s = 1` is classic Zipf.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(s.is_finite() && s >= 0.0, "exponent must be finite and non-negative");
        let mut pmf: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = pmf.iter().sum();
        for w in &mut pmf {
            *w /= total;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &p in &pmf {
            acc += p;
            cdf.push(acc);
        }
        // Guard against floating-point shortfall at the end.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Self { cdf, pmf }
    }

    /// Number of ranks.
    pub(crate) fn len(&self) -> usize {
        self.pmf.len()
    }

    /// Probability of rank `k` (0-based; rank 0 is the most popular).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        self.pmf[k]
    }

    /// Samples a rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).expect("CDF has no NaN")) {
            Ok(i) => (i + 1).min(self.len() - 1),
            Err(i) => i.min(self.len() - 1),
        }
    }

    /// Partitions `total` items into per-rank counts proportional to the
    /// pmf, using largest-remainder rounding so the counts sum to `total`
    /// exactly.
    pub fn allocate(&self, total: usize) -> Vec<usize> {
        let mut counts: Vec<usize> =
            self.pmf.iter().map(|p| (p * total as f64) as usize).collect();
        let assigned: usize = counts.iter().sum();
        let mut remainders: Vec<(usize, f64)> = self
            .pmf
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p * total as f64 - counts[i] as f64))
            .collect();
        remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN remainders"));
        for (i, _) in remainders.into_iter().take(total - assigned) {
            counts[i] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn pmf_sums_to_one() {
        for &(n, s) in &[(1usize, 1.0), (5, 0.0), (100, 1.2), (10, 2.5)] {
            let z = Zipf::new(n, s);
            let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
            assert!((total - 1.0).abs() < 1e-12, "n={n} s={s}: total {total}");
        }
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_is_monotone_decreasing() {
        let z = Zipf::new(20, 1.0);
        for k in 1..20 {
            assert!(z.pmf(k) <= z.pmf(k - 1));
        }
    }

    #[test]
    fn classic_zipf_ratio() {
        let z = Zipf::new(10, 1.0);
        // pmf(0)/pmf(1) = 2 for s=1.
        assert!((z.pmf(0) / z.pmf(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn samples_match_pmf() {
        let z = Zipf::new(5, 1.0);
        let mut rng = seeded_rng(20);
        let n = 200_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let freq = count as f64 / n as f64;
            assert!((freq - z.pmf(k)).abs() < 0.01, "rank {k}: {freq} vs {}", z.pmf(k));
        }
    }

    #[test]
    fn sample_always_in_range() {
        let z = Zipf::new(3, 1.5);
        let mut rng = seeded_rng(21);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    fn allocate_sums_exactly() {
        let z = Zipf::new(7, 1.0);
        for &total in &[0usize, 1, 10, 97, 1000] {
            let alloc = z.allocate(total);
            assert_eq!(alloc.iter().sum::<usize>(), total);
            assert_eq!(alloc.len(), 7);
        }
    }

    #[test]
    fn allocate_respects_popularity_order() {
        let z = Zipf::new(4, 1.0);
        let alloc = z.allocate(1000);
        for k in 1..4 {
            assert!(alloc[k] <= alloc[k - 1], "alloc {alloc:?} not ordered");
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
