//! Multi-channel policy: what a K > 1 deployment adds to the engine.
//!
//! The paper's setting is a multi-channel system — every helper serves a
//! subset of channels and balances its (stochastic) upload capacity
//! across them, while every viewer runs an RTHS learner over the helpers
//! serving *its* channel with bandit feedback. [`SimConfig`] describes
//! such a run for any K (a Zipf-distributed audience by
//! [`SimConfig::standard`], matching measurements of deployed systems),
//! and [`crate::System`] runs it. This module holds what is genuinely
//! multi-channel:
//!
//! * [`AllocationPolicy`] — how a helper splits capacity over the
//!   channels it serves. The three informed/static policies are the
//!   paper's setting; demand-aware water-filling is the default;
//! * [`MultiChannelSystem`] — the engine without the single-channel
//!   diagnostics, plus the per-channel [`MultiChannelOutcome`] view.

use rths_core::ConvergenceSeries;

use crate::config::SimConfig;
use crate::system::System;

/// How a helper divides its upload capacity among the channels it serves
/// ([`helper::allocate`](crate::helper::allocate) applies it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationPolicy {
    /// Equal share per served channel regardless of viewership — the
    /// naive static split.
    EvenSplit,
    /// Proportional to the number of connected viewers per channel
    /// (global even split across viewers).
    LoadProportional,
    /// Demand-proportional water-filling: channel `c` gets
    /// `D_c · min(1, C/ΣD)` where `D_c = n_c · bitrate_c` — delivers the
    /// maximum feasible total. **Default.**
    #[default]
    WaterFilling,
}

/// Per-epoch and summary results of a multi-channel run.
#[derive(Debug, Clone)]
pub struct MultiChannelOutcome {
    /// Epochs executed.
    pub epochs: u64,
    /// Total delivered rate per epoch.
    pub welfare: ConvergenceSeries,
    /// Server load per epoch (sum over channels).
    pub server_load: ConvergenceSeries,
    /// Delivered rate per channel (time-averaged).
    pub mean_channel_rates: Vec<f64>,
    /// Continuity index per channel (mean over its viewers).
    pub channel_continuity: Vec<f64>,
    /// Jain fairness across all viewers' lifetime mean rates.
    pub viewer_fairness: f64,
    /// Worst-viewer empirical regret per epoch.
    pub worst_empirical_regret: ConvergenceSeries,
}

/// A K-channel deployment: the engine built from a [`SimConfig`] without
/// the diagnostics only [`Outcome`](crate::Outcome) reports, reported per
/// channel. It owns nothing but the [`System`] and derefs to it — every
/// epoch is [`System::step_epoch`].
#[derive(Debug)]
pub struct MultiChannelSystem {
    engine: System,
}

impl MultiChannelSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`System::new`]).
    pub fn new(config: SimConfig) -> Self {
        Self { engine: System::assemble(config, false) }
    }

    /// Unwraps the engine, e.g. to drive it through
    /// [`WorkloadPhase`](crate::WorkloadPhase)s.
    pub(crate) fn into_engine(self) -> System {
        self.engine
    }

    /// Runs `epochs` epochs, returning cumulative results.
    pub fn run(&mut self, epochs: u64) -> MultiChannelOutcome {
        for _ in 0..epochs {
            self.engine.step_epoch();
        }
        self.outcome()
    }

    /// Snapshot of cumulative results: the per-channel view of the engine.
    pub fn outcome(&self) -> MultiChannelOutcome {
        let k = self.num_channels();
        let peers = self.peers();
        let denom = self.epoch().max(1) as f64;
        let mut continuity_sums = vec![0.0; k];
        let mut continuity_counts = vec![0usize; k];
        let mut viewer_rates = Vec::with_capacity(peers.len());
        for slot in 0..peers.len() {
            let c = peers.channel(slot);
            continuity_sums[c] += peers.continuity(slot);
            continuity_counts[c] += 1;
            viewer_rates.push(peers.mean_rate(slot));
        }
        let metrics = self.metrics();
        MultiChannelOutcome {
            epochs: self.epoch(),
            welfare: metrics.welfare.clone(),
            server_load: metrics.server_load.clone(),
            mean_channel_rates: self.channel_rate_sums().iter().map(|s| s / denom).collect(),
            channel_continuity: continuity_sums
                .iter()
                .zip(&continuity_counts)
                .map(|(&s, &c)| if c == 0 { 1.0 } else { s / c as f64 })
                .collect(),
            viewer_fairness: rths_math::stats::jain_index(&viewer_rates),
            worst_empirical_regret: metrics.worst_empirical_regret.clone(),
        }
    }
}

/// Everything but the outcome view is the engine's own API
/// (`step_epoch`, `migrate_viewers`, `set_shards`, `epoch`, `peers`, …).
impl std::ops::Deref for MultiChannelSystem {
    type Target = System;

    fn deref(&self) -> &System {
        &self.engine
    }
}

impl std::ops::DerefMut for MultiChannelSystem {
    fn deref_mut(&mut self) -> &mut System {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The budgets `policy` gives channels `0..loads.len()` of a helper
    /// with capacity `cap`.
    fn split(
        policy: AllocationPolicy,
        cap: f64,
        loads: &[usize],
        bitrates: &[f64],
    ) -> Vec<f64> {
        let (serves, demands): (Vec<usize>, Vec<_>) =
            bitrates.iter().enumerate().map(|(c, &b)| (c, Some(b))).unzip();
        let mut budgets = Vec::new();
        crate::helper::allocate(policy, cap, &serves, loads, &demands, |_, b, _| {
            budgets.push(b)
        });
        budgets
    }

    fn standard(alloc: AllocationPolicy, seed: u64) -> MultiChannelSystem {
        MultiChannelSystem::new(SimConfig::standard(4, 400.0, 8, 2, 80, 1.0, alloc, seed))
    }

    #[test]
    fn allocation_policies_split_capacity_exactly_or_less() {
        for policy in [
            AllocationPolicy::EvenSplit,
            AllocationPolicy::LoadProportional,
            AllocationPolicy::WaterFilling,
        ] {
            let split = split(policy, 900.0, &[3, 1, 0], &[400.0, 400.0, 400.0]);
            let total: f64 = split.iter().sum();
            assert!(total <= 900.0 + 1e-9, "{policy:?} oversubscribed: {total}");
            assert!(split.iter().all(|&b| b >= 0.0));
        }
    }

    #[test]
    fn water_filling_caps_at_demand() {
        let split = split(AllocationPolicy::WaterFilling, 10_000.0, &[2, 1], &[400.0, 300.0]);
        // Demands are 800 and 300; capacity is abundant so split == demand.
        assert!((split[0] - 800.0).abs() < 1e-9);
        assert!((split[1] - 300.0).abs() < 1e-9);
    }

    #[test]
    fn water_filling_scales_down_proportionally() {
        let split = split(AllocationPolicy::WaterFilling, 550.0, &[2, 1], &[400.0, 300.0]);
        // Total demand 1100, capacity 550 -> scale 0.5.
        assert!((split[0] - 400.0).abs() < 1e-9);
        assert!((split[1] - 150.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_population_sums() {
        let pop = SimConfig::zipf_population(5, 100, 1.0);
        assert_eq!(pop.iter().sum::<usize>(), 100);
        assert!(pop[0] >= pop[4], "popularity should be rank-ordered: {pop:?}");
    }

    #[test]
    fn system_runs_and_reports() {
        let mut sys = standard(AllocationPolicy::WaterFilling, 1);
        let out = sys.run(200);
        assert_eq!(out.epochs, 200);
        assert_eq!(out.mean_channel_rates.len(), 4);
        assert_eq!(out.channel_continuity.len(), 4);
        assert!(out.viewer_fairness > 0.0 && out.viewer_fairness <= 1.0);
        assert_eq!(sys.num_peers(), 80);
    }

    #[test]
    fn welfare_bounded_by_capacity_and_demand() {
        let mut sys = standard(AllocationPolicy::WaterFilling, 2);
        let out = sys.run(100);
        let cap_bound: f64 = 8.0 * 900.0;
        let demand_bound: f64 = 80.0 * 400.0;
        for &w in out.welfare.values() {
            assert!(w <= cap_bound.min(demand_bound) + 1e-6);
        }
    }

    #[test]
    fn water_filling_beats_even_split() {
        // The headline of the extension experiment: demand-aware
        // allocation delivers more than the naive static split. The gap
        // widens with popularity skew, so use Zipf(1.5).
        let run = |alloc| {
            let mut sys =
                MultiChannelSystem::new(SimConfig::standard(4, 400.0, 8, 2, 80, 1.5, alloc, 3));
            sys.run(1500).welfare.tail_mean(300)
        };
        let tail_even = run(AllocationPolicy::EvenSplit);
        let tail_wf = run(AllocationPolicy::WaterFilling);
        assert!(
            tail_wf > tail_even * 1.02,
            "water-filling {tail_wf} not better than even split {tail_even}"
        );
    }

    #[test]
    fn migration_moves_viewers() {
        let mut sys = standard(AllocationPolicy::WaterFilling, 4);
        let on_channel = |sys: &MultiChannelSystem, c| {
            (0..sys.num_peers()).filter(|&i| sys.peers().channel(i) == c).count()
        };
        let before = on_channel(&sys, 0);
        sys.migrate_viewers(0, 3, 5);
        let after = on_channel(&sys, 0);
        assert_eq!(before - 5, after);
        // System still runs after migration.
        let out = sys.run(50);
        assert_eq!(out.epochs, 50);
    }

    #[test]
    #[should_panic(expected = "has viewers but no helper")]
    fn uncovered_channel_rejected() {
        let mut config =
            SimConfig::standard(3, 400.0, 2, 1, 30, 1.0, AllocationPolicy::EvenSplit, 0);
        // Helpers serve channels 0 and 1 only; channel 2 has viewers.
        config.helper_channels = vec![vec![0], vec![1]];
        let _ = MultiChannelSystem::new(config);
    }
}
