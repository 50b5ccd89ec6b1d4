//! Order statistics for repeated measurements.
//!
//! Timings are reported as a median with quartiles and a sample count,
//! never as a mean or a single shot. The quartile rule is the one Python's
//! `statistics.quantiles(values, n=4)` uses (the "exclusive" method), so a
//! spread computed here equals the one computed from the printed values.

/// Median and quartiles of one metric over its repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty or any value is not finite.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles_sorted(&sorted);
        Some(Self {
            n: sorted.len(),
            q1,
            median,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        })
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// The three quartile cut points of ascending `sorted` data, by the
/// exclusive method: position `i·(n+1)/4`, linearly interpolated, clamped
/// to the data. One sample is its own quartiles.
fn quartiles_sorted(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// A tail statistic that is honest about its sample count: the highest
/// percentile of `values` that still has at least ten samples beyond it.
/// With `n` samples that is the `(n − 10)`-th smallest, percentile
/// `(n − 10) / n` — p98 needs 500 samples, p90 needs 100. `None` with fewer
/// than eleven samples: there is no tail to speak of.
pub fn tail(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[n - 11])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: with two
        // samples Python extrapolates beyond the data, and so does this.
        let s = Summary::of(&[10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn summary_edge_cases() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        let one = Summary::of(&[4.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3, one.spread()), (4.0, 4.0, 4.0, 0.0));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0, 9.0]), 4.0);
        let s = Summary::of(&[90.0, 100.0, 110.0, 100.0, 100.0]).unwrap();
        assert!((s.spread() - 0.1).abs() < 1e-12, "spread {}", s.spread());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert!(tail(&[1.0; 10]).is_none());
        // 11 samples: only the smallest has ten beyond it.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some(0.0));
        // 100 samples 0..99: the 90th smallest (value 89) has exactly the
        // ten samples 90..99 beyond it — p90.
        let hundred: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!(t, 89.0);
        assert_eq!(hundred.iter().filter(|&&v| v > t).count(), 10);
        // 500 samples reach p98.
        let many: Vec<f64> = (0..500).map(f64::from).collect();
        assert_eq!(tail(&many), Some(489.0));
    }
}
