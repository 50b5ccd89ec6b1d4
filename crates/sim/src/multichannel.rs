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
//!   paper's setting; [`AllocationPolicy::Learned`] (per-helper RTHS
//!   learners over split templates, `HelperAllocator`) is the one
//!   future-work extension of §V: "extend the RTHS to the problem of
//!   joint bandwidth allocation in the helper level to the video channels
//!   and helper selection in the peer level";
//! * [`MultiChannelConfig`] — channels, the helper → channels map and the
//!   initial audience (Zipf-distributed by default,
//!   [`MultiChannelConfig::zipf_population`], matching measurements of
//!   deployed systems);
//! * [`MultiChannelSystem`] — the constructor from that configuration
//!   plus the per-channel [`MultiChannelOutcome`] view over the engine.

use rths_core::{ConvergenceSeries, Learner};
use rths_stoch::process::ChurnProcess;
use rths_stoch::rng::entity_rng;
use rths_stoch::Zipf;

use crate::channel::Channel;
use crate::config::{BandwidthSpec, LearnerSpec};
use crate::helper::Helper;
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
    /// **Learned** (the paper's future work, attempted faithfully): each
    /// helper runs its own RTHS learner over discrete split templates,
    /// scored by its own delivered throughput on a slow timescale (each
    /// template held ~100 epochs so viewers can adapt to it).
    ///
    /// This is a documented **negative result** (see `rths_bench
    /// ext_multichannel`): selfish throughput feedback under-performs even
    /// the static even split, because a helper's misallocation cost is
    /// largely borne by *other* helpers — viewers migrate away and the
    /// explorer's own throughput barely drops (and under overload every split
    /// saturates, erasing the gradient entirely). Demand-aware allocation
    /// needs demand information; the paper's future work is not achievable by
    /// naively reusing the peer-level machinery at the helper level.
    Learned,
}

impl AllocationPolicy {
    /// Splits capacity `cap` over channels with viewer counts `loads` and
    /// per-viewer demands `bitrates`. Returns per-channel bandwidth.
    ///
    /// # Panics
    ///
    /// Panics for [`AllocationPolicy::Learned`], whose splits are chosen
    /// by per-helper learners inside the engine.
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
            AllocationPolicy::Learned => {
                panic!("learned allocation is resolved by the engine, not split()")
            }
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
#[derive(Debug, Clone)]
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
    /// Learner parameters for viewers. Helper-level allocation
    /// ([`AllocationPolicy::Learned`]) runs RTHS with its own fixed
    /// parameters: `ε = 0.05`, `δ = 0.1`, `μ` = the mean helper capacity.
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

/// Mean long-run capacity across helpers (800 kbps fallback).
fn mean_helper_capacity(helpers: &[Helper]) -> f64 {
    if helpers.is_empty() {
        return 800.0;
    }
    helpers.iter().map(|h| h.mean_capacity().unwrap_or(800.0)).sum::<f64>()
        / helpers.len() as f64
}

/// A helper's allocation learner (the future-work extension): an RTHS
/// learner over split templates, run on a slower timescale than the
/// viewers — each chosen template is **held for a window of epochs** so
/// the viewer population can adapt to it before the helper scores it
/// (classic two-timescale learning for coupled games). Feedback is the
/// helper's own mean delivered throughput over the window.
#[derive(Debug)]
pub(crate) struct HelperAllocator {
    learner: crate::config::AnyLearner,
    templates: Vec<Vec<f64>>,
    rng: rand::rngs::StdRng,
    /// Epochs each template is held before being scored.
    window: u32,
    current: usize,
    acc: f64,
    count: u32,
}

impl HelperAllocator {
    /// One allocator per helper over the split templates of the channels
    /// it serves, each an RTHS learner tuned for the helper's utility
    /// scale: `ε = 0.05`, `δ = 0.1`, `μ` = the mean helper capacity. RNG
    /// stream ids sit between the viewers' and the helpers' own.
    pub(crate) fn for_helpers(
        helpers: &[Helper],
        helper_channels: &[Vec<usize>],
        seed: u64,
    ) -> Vec<Self> {
        let mean_capacity = mean_helper_capacity(helpers);
        let spec = LearnerSpec {
            epsilon: 0.05,
            delta: 0.1,
            mu: Some(mean_capacity),
            ..LearnerSpec::default()
        };
        helper_channels
            .iter()
            .enumerate()
            .map(|(j, served)| {
                let templates = split_templates(served.len());
                let learner = spec
                    .instantiate(templates.len(), mean_capacity)
                    .expect("validated learner spec");
                let rng = entity_rng(seed, crate::helper::HELPER_STREAM_BASE / 2 + j as u64);
                Self { learner, templates, rng, window: 100, current: 0, acc: 0.0, count: 0 }
            })
            .collect()
    }

    /// The template weights to use this epoch (advances the learner at
    /// window boundaries).
    pub(crate) fn weights(&mut self) -> &[f64] {
        if self.count == 0 {
            self.current = self.learner.select_action(&mut self.rng);
        }
        &self.templates[self.current]
    }

    /// Records this epoch's delivered throughput; closes the window when
    /// due.
    pub(crate) fn record(&mut self, delivered: f64) {
        self.acc += delivered;
        self.count += 1;
        if self.count >= self.window {
            self.learner.observe(self.acc / self.count as f64);
            self.acc = 0.0;
            self.count = 0;
        }
    }
}

/// Weight templates over `c` served channels with grid granularity 4:
/// all non-negative integer compositions of 4 into `c` parts, scaled to
/// sum to 1 (e.g. for 2 channels: 100/0, 75/25, 50/50, 25/75, 0/100).
fn split_templates(channels: usize) -> Vec<Vec<f64>> {
    const GRID: usize = 4;
    let mut out = Vec::new();
    let mut stack = vec![0usize; channels];
    fn rec(out: &mut Vec<Vec<f64>>, stack: &mut Vec<usize>, j: usize, left: usize) {
        if j == stack.len() - 1 {
            stack[j] = left;
            out.push(stack.iter().map(|&w| w as f64 / 4.0).collect());
            return;
        }
        for take in 0..=left {
            stack[j] = take;
            rec(out, stack, j + 1, left - take);
        }
    }
    if channels == 0 {
        return out;
    }
    rec(&mut out, &mut stack, 0, GRID);
    out
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
        let rate_scale = |helpers: &[Helper]| {
            let total_cap: f64 =
                helpers.iter().map(|h| h.mean_capacity().unwrap_or(800.0)).sum();
            (total_cap / total_viewers.max(1) as f64).min(min_bitrate)
        };
        let engine = System::assemble(
            Blueprint {
                seed: config.seed,
                helpers: config.helpers,
                helper_channels: config.helper_channels,
                demands: config.channels.iter().map(|c| Some(c.bitrate())).collect(),
                viewers: config.viewers,
                allocation: config.allocation,
                learner: config.learner,
                churn: ChurnProcess::none(),
                impairment: ImpairmentPlan::none(),
                diagnostics: false,
                record_joint_from: 0,
                record_peer_rates: false,
            },
            rate_scale,
        );
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
    fn learned_allocation_runs_and_stays_sane() {
        // The negative-result configuration: learned helper allocation is
        // implemented and stable, but does not beat informed policies (see
        // the AllocationPolicy::Learned docs). We assert sanity and the
        // documented band: within [80%, 110%] of the even split.
        let run = |policy| {
            let mut sys = MultiChannelSystem::new(MultiChannelConfig::standard(
                4, 300.0, 12, 2, 24, 1.5, policy, 13,
            ));
            sys.run(8000).welfare.tail_mean(1500)
        };
        let even = run(AllocationPolicy::EvenSplit);
        let learned = run(AllocationPolicy::Learned);
        assert!(
            learned > 0.8 * even && learned < 1.1 * even,
            "learned {learned:.0} outside the documented band around even {even:.0}"
        );
    }

    #[test]
    fn split_templates_are_distributions() {
        for c in 1..5 {
            let ts = split_templates(c);
            assert!(!ts.is_empty());
            for t in &ts {
                assert_eq!(t.len(), c);
                let sum: f64 = t.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "template {t:?}");
                assert!(t.iter().all(|&w| (0.0..=1.0).contains(&w)));
            }
            // Compositions of 4 into c parts: C(4+c-1, c-1).
            let expected = match c {
                1 => 1,
                2 => 5,
                3 => 15,
                4 => 35,
                _ => unreachable!(),
            };
            assert_eq!(ts.len(), expected);
        }
    }

    #[test]
    #[should_panic(expected = "resolved by the engine")]
    fn split_panics_for_learned() {
        let _ = AllocationPolicy::Learned.split(800.0, &[1, 2], &[300.0, 300.0]);
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
