//! The streaming server.
//!
//! "When the sum of peers' streaming demands exceeds … helpers'
//! provisioned bandwidth, the surplus requests are referred to the
//! streaming server" (§IV). The server therefore absorbs every peer's
//! residual demand `max(0, d_i − r_i)`. Fig. 5 compares this actual load
//! with the **minimum bandwidth deficit**: the surplus that would remain
//! even if every helper's *minimum* bandwidth were fully utilized —
//! `max(0, Σ_i d_i − Σ_j C_j^min)`.

/// Per-epoch server accounting.
#[derive(Debug)]
pub(crate) struct ServerEpoch {
    /// Actual server load: `Σ_i max(0, d_i − r_i)` (kbps).
    pub(crate) load: f64,
    /// Minimum bandwidth deficit bound with helpers at their *minimum*
    /// levels: `max(0, Σ d − Σ C_min)`.
    pub(crate) min_deficit: f64,
    /// Deficit bound with the helpers' *current* capacities:
    /// `max(0, Σ d − Σ C(t))` — the tightest achievable load this epoch.
    pub(crate) current_deficit: f64,
}

/// Adds one peer's unmet demand `max(0, d_i − r_i)` to the epoch's
/// server `load`, which starts at `-0.0` (the start of a `f64` sum).
///
/// # Panics
///
/// Panics if the residual is negative or non-finite.
#[inline]
pub(crate) fn absorb(load: &mut f64, residual: f64) {
    assert!(
        residual.is_finite() && residual >= 0.0,
        "residual demands must be finite and non-negative"
    );
    *load += residual;
}

/// Settles one epoch at the streaming server.
///
/// * `load` — `Σ_i max(0, d_i − r_i)`, folded by [`absorb`] in peer order.
/// * `total_demand` — `Σ_i d_i` this epoch.
/// * `helper_min_capacity` — `Σ_j C_j^min`.
/// * `helper_current_capacity` — `Σ_j C_j(t)`.
pub(crate) fn settle_epoch(
    load: f64,
    total_demand: f64,
    helper_min_capacity: f64,
    helper_current_capacity: f64,
) -> ServerEpoch {
    ServerEpoch {
        load,
        min_deficit: (total_demand - helper_min_capacity).max(0.0),
        current_deficit: (total_demand - helper_current_capacity).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One epoch's accounting for these residuals, folded as
    /// `EpochMetrics::settle` folds them.
    fn settle(residuals: &[f64], total: f64, min: f64, now: f64) -> ServerEpoch {
        let mut load = -0.0;
        for &r in residuals {
            absorb(&mut load, r);
        }
        settle_epoch(load, total, min, now)
    }

    #[test]
    fn settle_accumulates() {
        let e1 = settle(&[100.0, 0.0, 50.0], 1200.0, 1400.0, 1600.0);
        assert_eq!(e1.load, 150.0);
        assert_eq!(e1.min_deficit, 0.0);
        assert_eq!(e1.current_deficit, 0.0);
        let e2 = settle(&[300.0], 2000.0, 1400.0, 1600.0);
        assert_eq!(e2.load, 300.0);
        assert_eq!(e2.min_deficit, 600.0);
        assert_eq!(e2.current_deficit, 400.0);
    }

    #[test]
    fn empty_epoch_is_free() {
        let e = settle(&[], 0.0, 100.0, 100.0);
        assert_eq!(e.load, 0.0);
    }

    #[test]
    fn deficit_bounds_are_ordered() {
        // current capacity >= min capacity, so current deficit <= min
        // deficit always.
        let e = settle(&[10.0], 3000.0, 2100.0, 2400.0);
        assert!(e.current_deficit <= e.min_deficit);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_residual_panics() {
        let _ = settle(&[-1.0], 0.0, 0.0, 0.0);
    }
}
