//! Multi-channel policy: what a K > 1 deployment adds to the engine.
//!
//! The paper's setting is a multi-channel system — every helper serves a
//! subset of channels and balances its (stochastic) upload capacity
//! across them, while every viewer runs an RTHS learner over the helpers
//! serving *its* channel with bandit feedback. [`crate::System`] runs
//! that two-level pipeline for any K; this module holds only what is
//! genuinely multi-channel *policy*:
//!
//! * [`AllocationPolicy`] — how a helper splits capacity over the
//!   channels it serves. The three informed/static policies are the
//!   paper's setting; demand-aware water-filling is the default;
//! * [`MultiChannelConfig`] — channels, the helper → channels map and the
//!   initial audience (Zipf-distributed by default,
//!   [`MultiChannelConfig::zipf_population`], matching measurements of
//!   deployed systems);
//! * [`MultiChannelSystem`] — the constructor from that configuration
//!   plus the per-channel [`MultiChannelOutcome`] view over the engine.

use rths_core::ConvergenceSeries;
use rths_stoch::process::ChurnProcess;
use rths_stoch::Zipf;

use crate::channel::Channel;
use crate::config::{BandwidthSpec, LearnerSpec};
use crate::impairment::ImpairmentPlan;
use crate::system::{Blueprint, System};

/// How a helper divides its upload capacity among the channels it serves.
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

impl AllocationPolicy {
    /// Splits capacity `cap` over channels with viewer counts `loads` and
    /// per-viewer demands `bitrates`. Returns per-channel bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `loads` and `bitrates` differ in length.
    pub fn split(&self, cap: f64, loads: &[usize], bitrates: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(loads.len());
        self.split_into(cap, loads, bitrates, &mut out);
        out
    }

    /// Allocation-free variant of [`split`](Self::split): appends the
    /// per-channel bandwidths to `out` (cleared first), reusing its
    /// capacity — the engine's per-epoch path.
    ///
    /// # Panics
    ///
    /// Same contract as [`split`](Self::split).
    pub fn split_into(&self, cap: f64, loads: &[usize], bitrates: &[f64], out: &mut Vec<f64>) {
        assert_eq!(loads.len(), bitrates.len(), "loads/bitrates length mismatch");
        out.clear();
        let k = loads.len();
        if k == 0 {
            return;
        }
        match self {
            AllocationPolicy::EvenSplit => out.resize(k, cap / k as f64),
            AllocationPolicy::LoadProportional => {
                let total: usize = loads.iter().sum();
                if total == 0 {
                    out.resize(k, cap / k as f64);
                } else {
                    out.extend(loads.iter().map(|&n| cap * n as f64 / total as f64));
                }
            }
            AllocationPolicy::WaterFilling => {
                let total: f64 = loads.iter().zip(bitrates).map(|(&n, &b)| n as f64 * b).sum();
                if total <= 0.0 {
                    out.resize(k, cap / k as f64);
                } else {
                    let scale = (cap / total).min(1.0);
                    out.extend(loads.iter().zip(bitrates).map(|(&n, &b)| n as f64 * b * scale));
                }
            }
        }
    }
}

/// Configuration of the multi-channel system.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChannelConfig {
    /// The channels (id + bitrate = per-viewer demand).
    pub channels: Vec<Channel>,
    /// Helper bandwidth processes.
    pub helpers: Vec<BandwidthSpec>,
    /// `helper_channels[j]` — channel ids helper `j` serves.
    pub helper_channels: Vec<Vec<usize>>,
    /// Initial viewers per channel.
    pub viewers: Vec<usize>,
    /// Capacity split policy at helpers.
    pub allocation: AllocationPolicy,
    /// Learner parameters for viewers.
    pub learner: LearnerSpec,
    /// RNG seed.
    pub seed: u64,
}

impl MultiChannelConfig {
    /// Builds a standard instance: `k` channels at `bitrate` kbps,
    /// `num_helpers` paper-chain helpers each serving a contiguous block
    /// of channels (wrap-around) of size `channels_per_helper`, and
    /// `num_viewers` viewers allocated by Zipf(`zipf_s`) popularity.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `channels_per_helper > k`.
    #[allow(clippy::too_many_arguments)]
    pub fn standard(
        k: usize,
        bitrate: f64,
        num_helpers: usize,
        channels_per_helper: usize,
        num_viewers: usize,
        zipf_s: f64,
        allocation: AllocationPolicy,
        seed: u64,
    ) -> Self {
        assert!(k > 0 && num_helpers > 0 && channels_per_helper > 0, "counts must be positive");
        assert!(channels_per_helper <= k, "helpers cannot serve more channels than exist");
        let channels = crate::channel::uniform_channels(k, bitrate);
        let helper_channels: Vec<Vec<usize>> = (0..num_helpers)
            .map(|j| (0..channels_per_helper).map(|o| (j + o) % k).collect())
            .collect();
        let viewers = Self::zipf_population(k, num_viewers, zipf_s);
        Self {
            channels,
            helpers: vec![BandwidthSpec::Paper { stay: 0.98 }; num_helpers],
            helper_channels,
            viewers,
            allocation,
            learner: LearnerSpec::default(),
            seed,
        }
    }

    /// Splits `total` viewers over `k` channels with Zipf(`s`) popularity.
    pub fn zipf_population(k: usize, total: usize, s: f64) -> Vec<usize> {
        Zipf::new(k, s).allocate(total)
    }

    fn validate(&self) {
        assert!(!self.channels.is_empty(), "need at least one channel");
        assert_eq!(
            self.helpers.len(),
            self.helper_channels.len(),
            "one channel set per helper"
        );
        assert_eq!(self.viewers.len(), self.channels.len(), "one viewer count per channel");
        for (j, chans) in self.helper_channels.iter().enumerate() {
            assert!(!chans.is_empty(), "helper {j} serves no channels");
            assert!(
                chans.iter().all(|&c| c < self.channels.len()),
                "helper {j} serves an unknown channel"
            );
        }
        // Every channel with viewers needs at least one helper.
        for (c, &v) in self.viewers.iter().enumerate() {
            if v > 0 {
                assert!(
                    self.helper_channels.iter().any(|chans| chans.contains(&c)),
                    "channel {c} has viewers but no helper"
                );
            }
        }
    }
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

/// A K-channel deployment: the engine built from a
/// [`MultiChannelConfig`], reported per channel. It owns nothing but the
/// [`System`] and derefs to it — every epoch is [`System::step_epoch`].
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
    /// [`MultiChannelConfig`] invariants).
    pub fn new(config: MultiChannelConfig) -> Self {
        config.validate();
        // Rate scale for μ derivation: the system-wide fair share,
        // capped by the smallest channel bitrate.
        let total_viewers: usize = config.viewers.iter().sum();
        let min_bitrate =
            config.channels.iter().map(Channel::bitrate).fold(f64::INFINITY, f64::min);
        let total_cap: f64 = config.helpers.iter().map(BandwidthSpec::mean_level).sum();
        let engine = System::assemble(Blueprint {
            seed: config.seed,
            helpers: config.helpers,
            helper_channels: config.helper_channels,
            demands: config.channels.iter().map(|c| Some(c.bitrate())).collect(),
            viewers: config.viewers,
            allocation: config.allocation,
            learner: config.learner,
            rate_scale: (total_cap / total_viewers.max(1) as f64).min(min_bitrate),
            churn: ChurnProcess::none(),
            impairment: ImpairmentPlan::none(),
            diagnostics: false,
            record_joint_from: 0,
            record_peer_rates: false,
        });
        Self { engine }
    }

    /// Unwraps the engine, e.g. to drive it through
    /// [`WorkloadPhase`](crate::WorkloadPhase)s.
    pub fn into_engine(self) -> System {
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

    fn standard(alloc: AllocationPolicy, seed: u64) -> MultiChannelSystem {
        MultiChannelSystem::new(MultiChannelConfig::standard(
            4, 400.0, 8, 2, 80, 1.0, alloc, seed,
        ))
    }

    #[test]
    fn allocation_policies_split_capacity_exactly_or_less() {
        for policy in [
            AllocationPolicy::EvenSplit,
            AllocationPolicy::LoadProportional,
            AllocationPolicy::WaterFilling,
        ] {
            let split = policy.split(900.0, &[3, 1, 0], &[400.0, 400.0, 400.0]);
            let total: f64 = split.iter().sum();
            assert!(total <= 900.0 + 1e-9, "{policy:?} oversubscribed: {total}");
            assert!(split.iter().all(|&b| b >= 0.0));
        }
    }

    #[test]
    fn water_filling_caps_at_demand() {
        let split = AllocationPolicy::WaterFilling.split(10_000.0, &[2, 1], &[400.0, 300.0]);
        // Demands are 800 and 300; capacity is abundant so split == demand.
        assert!((split[0] - 800.0).abs() < 1e-9);
        assert!((split[1] - 300.0).abs() < 1e-9);
    }

    #[test]
    fn water_filling_scales_down_proportionally() {
        let split = AllocationPolicy::WaterFilling.split(550.0, &[2, 1], &[400.0, 300.0]);
        // Total demand 1100, capacity 550 -> scale 0.5.
        assert!((split[0] - 400.0).abs() < 1e-9);
        assert!((split[1] - 150.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_population_sums() {
        let pop = MultiChannelConfig::zipf_population(5, 100, 1.0);
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
            let mut sys = MultiChannelSystem::new(MultiChannelConfig::standard(
                4, 400.0, 8, 2, 80, 1.5, alloc, 3,
            ));
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
        let mut config = MultiChannelConfig::standard(
            3,
            400.0,
            2,
            1,
            30,
            1.0,
            AllocationPolicy::EvenSplit,
            0,
        );
        // Helpers serve channels 0 and 1 only; channel 2 has viewers.
        config.helper_channels = vec![vec![0], vec![1]];
        let _ = MultiChannelSystem::new(config);
    }
}
