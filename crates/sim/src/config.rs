//! Simulation configuration.

use rths_core::{
    ConfigError, Exp3Config, Exp3Learner, Learner, RecencyMode, RthsConfig, SlabLearner,
};
use rths_stoch::bandwidth::{
    BandwidthProcess, ConstantBandwidth, GilbertElliott, MarkovBandwidth, RegimeShiftBandwidth,
    PAPER_LEVELS,
};
use rths_stoch::process::ChurnProcess;
use rths_stoch::Zipf;

use crate::impairment::ImpairmentPlan;
use crate::multichannel::AllocationPolicy;

/// Declarative description of one helper's bandwidth process, turned into
/// a live process per helper at system construction. `Paper` is the
/// paper's model (§IV); `Constant` serves the equilibrium checks and the
/// helper-cascade scenario, `GilbertElliott` the backend equivalence
/// tests, and `RegimeShift` the tracking-vs-matching ablation.
#[derive(Debug, Clone, PartialEq)]
pub enum BandwidthSpec {
    /// The paper's `[700, 800, 900]` sticky Markov chain with the given
    /// stay probability (0.98 reproduces "slowly changing").
    Paper {
        /// Probability of remaining at the current level each epoch.
        stay: f64,
    },
    /// Constant capacity (kbps).
    Constant(f64),
    /// Two-state Gilbert–Elliott burst model.
    GilbertElliott {
        /// Capacity in the good state.
        good: f64,
        /// Capacity in the bad state.
        bad: f64,
        /// P(good → bad) per epoch.
        p_gb: f64,
        /// P(bad → good) per epoch.
        p_bg: f64,
    },
    /// Deterministic regime shift at a fixed epoch (ablation workload).
    RegimeShift {
        /// Capacity before the shift.
        before: f64,
        /// Capacity after the shift.
        after: f64,
        /// Epoch of the shift.
        at: u64,
    },
}

impl BandwidthSpec {
    /// Instantiates the live process (using `rng` for any random initial
    /// state).
    pub(crate) fn instantiate<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Box<dyn BandwidthProcess> {
        match self {
            BandwidthSpec::Paper { stay } => {
                Box::new(MarkovBandwidth::paper_with_stay(rng, *stay))
            }
            BandwidthSpec::Constant(level) => Box::new(ConstantBandwidth::new(*level)),
            BandwidthSpec::GilbertElliott { good, bad, p_gb, p_bg } => {
                Box::new(GilbertElliott::new(*good, *bad, *p_gb, *p_bg))
            }
            BandwidthSpec::RegimeShift { before, after, at } => {
                Box::new(RegimeShiftBandwidth::new(*before, *after, *at))
            }
        }
    }

    /// Checks what [`instantiate`](Self::instantiate)'s constructors
    /// assert, so that a scenario file is refused at load instead of
    /// panicking at run time. On failure returns the offending field, by
    /// its scenario-file key, and what it requires.
    pub(crate) fn check(&self) -> Result<(), (&'static str, &'static str)> {
        let level = |x: f64| x.is_finite() && x >= 0.0;
        let prob = |p: f64| (0.0..=1.0).contains(&p);
        let stay = |s: f64| (0.0..1.0).contains(&s);
        const LEVEL: &str = "must be finite and ≥ 0";
        const PROB: &str = "must be in [0, 1]";
        const STAY: &str = "must be in [0, 1)";
        match self {
            BandwidthSpec::Paper { stay: s } if !stay(*s) => Err(("stay", STAY)),
            BandwidthSpec::Constant(l) if !level(*l) => Err(("level", LEVEL)),
            BandwidthSpec::GilbertElliott { good, .. } if !level(*good) => Err(("good", LEVEL)),
            BandwidthSpec::GilbertElliott { bad, .. } if !level(*bad) => Err(("bad", LEVEL)),
            BandwidthSpec::GilbertElliott { p_gb, .. } if !prob(*p_gb) => Err(("p_gb", PROB)),
            BandwidthSpec::GilbertElliott { p_bg, .. } if !prob(*p_bg) => Err(("p_bg", PROB)),
            BandwidthSpec::RegimeShift { before, .. } if !level(*before) => {
                Err(("before", LEVEL))
            }
            BandwidthSpec::RegimeShift { after, .. } if !level(*after) => Err(("after", LEVEL)),
            _ => Ok(()),
        }
    }

    /// Long-run mean capacity (calibrates `μ`).
    pub(crate) fn mean_level(&self) -> f64 {
        match self {
            // 800.0 exactly: every product and partial sum is exact.
            BandwidthSpec::Paper { .. } => {
                rths_math::vector::dot(&PAPER_LEVELS, &MarkovBandwidth::STATIONARY)
            }
            BandwidthSpec::Constant(level) => *level,
            BandwidthSpec::GilbertElliott { good, bad, p_gb, p_bg } => {
                let denom = p_gb + p_bg;
                if denom == 0.0 {
                    *good
                } else {
                    good * p_bg / denom + bad * p_gb / denom
                }
            }
            BandwidthSpec::RegimeShift { before, after, .. } => 0.5 * (before + after),
        }
    }
}

/// Which learning algorithm peers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Recursive regret tracking (paper Algorithm 2). **Default.**
    #[default]
    Rths,
    /// Uniform-averaging regret matching (ablation baseline).
    RegretMatching,
    /// EXP3 exponential-weights bandit (external-regret baseline), with
    /// a forgetting factor matched to the RTHS step size.
    Exp3,
}

/// Learner parameters for the peer population.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnerSpec {
    /// Algorithm choice.
    pub algorithm: Algorithm,
    /// Step size `ε`.
    pub epsilon: f64,
    /// Exploration `δ`.
    pub delta: f64,
    /// Normalisation `μ`; `None` derives `4 × the per-peer fair-share
    /// rate` (see [`SimConfig::rate_scale`](crate::SimConfig::rate_scale)).
    pub mu: Option<f64>,
    /// Enables conditional-regret normalisation (helper-failure
    /// recovery extension; see `rths_core::RthsConfig::conditional`).
    pub conditional: bool,
}

impl Default for LearnerSpec {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::Rths,
            epsilon: 0.01,
            delta: 0.1,
            mu: None,
            conditional: false,
        }
    }
}

impl Algorithm {
    /// Whether the algorithm is the recursive RTHS update (regret
    /// tracking, or regret matching — the same update under
    /// [`RecencyMode::Uniform`]), whose state lives in a
    /// [`LearnerSlab`](rths_core::LearnerSlab) slot. The other one, EXP3,
    /// keeps its state in the learner value itself.
    pub(crate) fn slab_hosted(self) -> bool {
        matches!(self, Algorithm::Rths | Algorithm::RegretMatching)
    }
}

/// A peer-side learner of any supported algorithm.
///
/// Every peer pays for the largest variant, and nearly every peer is a
/// slab slot, so the EXP3 baseline, which keeps its state by value, is
/// boxed: the enum is the size of a [`SlabLearner`].
#[derive(Debug, Clone)]
pub enum AnyLearner {
    /// Recursive RTHS (Algorithm 2) or, under uniform averaging, the
    /// regret-matching baseline: one slot of a
    /// [`LearnerSlab`](rths_core::LearnerSlab).
    SlabRths(SlabLearner),
    /// EXP3 baseline.
    Exp3(Box<Exp3Learner>),
}

impl Learner for AnyLearner {
    fn num_actions(&self) -> usize {
        match self {
            AnyLearner::SlabRths(l) => l.num_actions(),
            AnyLearner::Exp3(l) => l.num_actions(),
        }
    }

    fn probabilities(&self) -> &[f64] {
        match self {
            AnyLearner::SlabRths(l) => l.probabilities(),
            AnyLearner::Exp3(l) => l.probabilities(),
        }
    }

    fn select_action(&mut self, rng: &mut dyn rand::RngCore) -> usize {
        match self {
            AnyLearner::SlabRths(l) => l.select_action(rng),
            AnyLearner::Exp3(l) => l.select_action(rng),
        }
    }

    fn observe(&mut self, utility: f64) {
        match self {
            AnyLearner::SlabRths(l) => l.observe(utility),
            AnyLearner::Exp3(l) => l.observe(utility),
        }
    }

    fn max_regret(&self) -> f64 {
        match self {
            AnyLearner::SlabRths(l) => l.max_regret(),
            AnyLearner::Exp3(l) => l.max_regret(),
        }
    }

    fn stage(&self) -> u64 {
        match self {
            AnyLearner::SlabRths(l) => l.stage(),
            AnyLearner::Exp3(l) => l.stage(),
        }
    }

    fn pending_action(&self) -> Option<usize> {
        match self {
            AnyLearner::SlabRths(l) => l.pending_action(),
            AnyLearner::Exp3(l) => l.pending_action(),
        }
    }

    fn reset_actions(&mut self, num_actions: usize) {
        match self {
            AnyLearner::SlabRths(l) => l.reset_actions(num_actions),
            AnyLearner::Exp3(l) => l.reset_actions(num_actions),
        }
    }
}

impl LearnerSpec {
    /// The shared [`RthsConfig`] learners of this spec run against for
    /// `num_actions` actions, deriving `μ` from `rate_scale` when unset
    /// ([`RecencyMode::Uniform`] for regret matching). The sharded peer
    /// stores build this **once per channel**.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if parameters are invalid.
    pub fn rths_config(
        &self,
        num_actions: usize,
        rate_scale: f64,
    ) -> Result<RthsConfig, ConfigError> {
        let mu = self.mu.unwrap_or(4.0 * rate_scale);
        let recency = match self.algorithm {
            Algorithm::RegretMatching => RecencyMode::Uniform,
            _ => RecencyMode::Exponential,
        };
        RthsConfig::builder(num_actions)
            .epsilon(self.epsilon)
            .delta(self.delta)
            .mu(mu)
            .recency(recency)
            .conditional(self.conditional)
            .build()
    }

    /// Builds a live learner over `num_actions` actions, deriving `μ`
    /// from `rate_scale` — the typical per-peer received rate (fair
    /// share, possibly demand-capped) — when `mu` is unset. A
    /// slab-hosted learner gets a one-slot slab
    /// of its own (a population shares one through
    /// [`PeerStore`](crate::PeerStore)).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if parameters are invalid.
    pub fn instantiate(
        &self,
        num_actions: usize,
        rate_scale: f64,
    ) -> Result<AnyLearner, ConfigError> {
        let config = self.rths_config(num_actions, rate_scale)?;
        Ok(match self.algorithm {
            Algorithm::Rths | Algorithm::RegretMatching => {
                AnyLearner::SlabRths(SlabLearner::standalone(config))
            }
            Algorithm::Exp3 => AnyLearner::Exp3(Box::new(Exp3Learner::new(
                self.exp3_config(num_actions, rate_scale),
            ))),
        })
    }

    /// The [`Exp3Config`] an EXP3 learner of this spec runs over
    /// `num_actions` actions: exploration `max(δ, 0.01)`, forgetting `ε`,
    /// and rewards scaled by four `rate_scale`s (rewards are rates; a few
    /// fair shares bound them). The peer store builds this once per
    /// channel.
    pub(crate) fn exp3_config(&self, num_actions: usize, rate_scale: f64) -> Exp3Config {
        Exp3Config {
            num_actions,
            gamma: self.delta.max(0.01),
            reward_scale: 4.0 * rate_scale,
            forgetting: self.epsilon,
        }
    }
}

/// The run configuration: K channels, the helpers that serve them, the
/// viewers that watch them, and how peers learn, churn and lose packets.
/// The paper's system is multi-channel; [`SimConfig::builder`] lays out
/// its K = 1 case (the single-channel evaluation of §IV, and the canned
/// [`Scenario`](crate::Scenario)s) and [`SimConfig::standard`] a K-channel
/// deployment. [`System::new`](crate::System::new) and
/// [`MultiChannelSystem::new`](crate::MultiChannelSystem::new) both run
/// it; `assemble` checks the layout once for both.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Initial viewers per channel; its length is the channel count K.
    pub viewers: Vec<usize>,
    /// One bandwidth spec per helper.
    pub helpers: Vec<BandwidthSpec>,
    /// `helper_channels[j]` — the channels helper `j` serves.
    pub helper_channels: Vec<Vec<usize>>,
    /// How a helper splits its capacity over the channels it serves.
    pub allocation: AllocationPolicy,
    /// Every channel's per-viewer streaming demand (kbps); `None` =
    /// uncapped utilities (the paper's default game).
    pub demand: Option<f64>,
    /// Peer churn process. Arrivals join channel 0.
    pub churn: ChurnProcess,
    /// Learner parameters.
    pub learner: LearnerSpec,
    /// RNG seed; every run with the same config is bit-identical.
    pub seed: u64,
    /// Link impairments: loss, rate limiting and link bandwidth, each of
    /// which shapes the rate a peer receives; [`ImpairmentPlan::none`] by
    /// default. Shared with the `rths_net` runtimes: `NetConfig::from_sim`
    /// inherits this plan, and the simulator and both net backends apply
    /// it bit-identically.
    pub impairment: ImpairmentPlan,
    /// The sum of `viewers`, which every constructor keeps and `assemble`
    /// checks; read [`SimConfig::num_peers()`] instead.
    #[doc(hidden)]
    pub num_peers: usize, // benchmark shim (ROADMAP 23): its tests read the field
}

impl SimConfig {
    /// Starts a builder for the K = 1 layout: `num_peers` viewers of
    /// channel 0, which every helper serves and splits evenly (`cap / 1`,
    /// its whole capacity).
    pub fn builder(num_peers: usize, helpers: Vec<BandwidthSpec>) -> SimConfigBuilder {
        let helper_channels = vec![vec![0]; helpers.len()];
        let config = Self::layout(
            vec![num_peers],
            helpers,
            helper_channels,
            AllocationPolicy::EvenSplit,
        );
        SimConfigBuilder { config }
    }

    /// Builds a standard K-channel instance: `k` channels at `bitrate`
    /// kbps, `num_helpers` paper-chain helpers each serving a contiguous
    /// block of channels (wrap-around) of size `channels_per_helper`, and
    /// `num_viewers` viewers allocated by Zipf(`zipf_s`) popularity.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, `channels_per_helper > k`, or
    /// `bitrate` is not positive and finite.
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
        assert!(bitrate > 0.0 && bitrate.is_finite(), "bitrate must be positive and finite");
        let helper_channels: Vec<Vec<usize>> = (0..num_helpers)
            .map(|j| (0..channels_per_helper).map(|o| (j + o) % k).collect())
            .collect();
        let viewers = Self::zipf_population(k, num_viewers, zipf_s);
        let helpers = vec![BandwidthSpec::Paper { stay: 0.98 }; num_helpers];
        Self {
            demand: Some(bitrate),
            seed,
            ..Self::layout(viewers, helpers, helper_channels, allocation)
        }
    }

    /// Splits `total` viewers over `k` channels with Zipf(`s`) popularity.
    pub fn zipf_population(k: usize, total: usize, s: f64) -> Vec<usize> {
        Zipf::new(k, s).allocate(total)
    }

    /// A layout with every other value at its default.
    fn layout(
        viewers: Vec<usize>,
        helpers: Vec<BandwidthSpec>,
        helper_channels: Vec<Vec<usize>>,
        allocation: AllocationPolicy,
    ) -> Self {
        SimConfig {
            num_peers: viewers.iter().sum(),
            viewers,
            helpers,
            helper_channels,
            allocation,
            demand: None,
            churn: ChurnProcess::none(),
            learner: LearnerSpec::default(),
            seed: 0,
            impairment: ImpairmentPlan::none(),
        }
    }

    /// Initial population: the viewers of every channel.
    pub fn num_peers(&self) -> usize {
        self.viewers.iter().sum()
    }

    /// Mean of the helpers' long-run mean capacities
    /// ([`BandwidthSpec::mean_level`]); 0 with no helpers.
    pub(crate) fn mean_capacity(&self) -> f64 {
        if self.helpers.is_empty() {
            return 0.0;
        }
        let total: f64 = self.helpers.iter().map(BandwidthSpec::mean_level).sum();
        total / self.helpers.len() as f64
    }

    /// Typical per-peer received rate: the fair share of total mean
    /// helper capacity over the initial population, capped by the demand
    /// if one is set. Calibrates every channel's learners' `μ` (see
    /// [`LearnerSpec::instantiate`]).
    pub fn rate_scale(&self) -> f64 {
        let total_cap = self.mean_capacity() * self.helpers.len() as f64;
        let fair = total_cap / self.num_peers().max(1) as f64;
        match self.demand {
            Some(d) => fair.min(d),
            None => fair,
        }
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets per-peer streaming demand (kbps).
    pub fn demand(mut self, demand: f64) -> Self {
        self.config.demand = Some(demand);
        self
    }

    /// Sets the churn process.
    pub fn churn(mut self, churn: ChurnProcess) -> Self {
        self.config.churn = churn;
        self
    }

    /// Sets learner parameters.
    pub fn learner(mut self, learner: LearnerSpec) -> Self {
        self.config.learner = learner;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the link-impairment plan (see [`crate::impairment`]).
    pub fn impairment(mut self, plan: ImpairmentPlan) -> Self {
        self.config.impairment = plan;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    ///
    /// Panics if there are no helpers.
    pub fn build(self) -> SimConfig {
        assert!(!self.config.helpers.is_empty(), "need at least one helper");
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rths_stoch::rng::seeded_rng;

    #[test]
    fn paper_spec_mean_is_800() {
        assert_eq!(BandwidthSpec::Paper { stay: 0.98 }.mean_level(), 800.0);
    }

    #[test]
    fn instantiate_produces_live_processes() {
        let mut rng = seeded_rng(1);
        let specs = [
            BandwidthSpec::Paper { stay: 0.98 },
            BandwidthSpec::Constant(500.0),
            BandwidthSpec::GilbertElliott { good: 900.0, bad: 200.0, p_gb: 0.05, p_bg: 0.2 },
            BandwidthSpec::RegimeShift { before: 800.0, after: 400.0, at: 10 },
        ];
        for spec in &specs {
            let mut p = spec.instantiate(&mut rng);
            let before = p.level();
            p.step(&mut rng);
            assert!(p.level().is_finite());
            assert!(before >= p.min_level() && before <= p.max_level());
        }
    }

    #[test]
    fn learner_spec_builds_each_algorithm() {
        for alg in [Algorithm::Rths, Algorithm::RegretMatching, Algorithm::Exp3] {
            let spec = LearnerSpec { algorithm: alg, ..LearnerSpec::default() };
            let l = spec.instantiate(4, 800.0).unwrap();
            assert_eq!(l.num_actions(), 4);
            assert_eq!(matches!(l, AnyLearner::SlabRths(_)), alg.slab_hosted());
        }
    }

    #[test]
    fn learner_spec_derives_mu() {
        let spec = LearnerSpec::default();
        let l = spec.instantiate(2, 800.0).unwrap();
        if let AnyLearner::SlabRths(inner) = &l {
            assert_eq!(inner.config().mu(), 3200.0);
        } else {
            panic!("expected RTHS learner");
        }
    }

    /// 300 stages of a regret-matching learner built from a spec, held
    /// to a standalone slab learner of the spec's own config; returns the
    /// final strategy.
    fn matching_trajectory(conditional: bool) -> Vec<u64> {
        let spec = LearnerSpec {
            algorithm: Algorithm::RegretMatching,
            conditional,
            ..LearnerSpec::default()
        };
        let config = spec.rths_config(3, 100.0).unwrap();
        assert_eq!(config.recency(), RecencyMode::Uniform);
        let mut learner = spec.instantiate(3, 100.0).unwrap();
        let mut oracle = SlabLearner::standalone(config);
        let mut rng = seeded_rng(5);
        let mut replay = seeded_rng(5);
        for s in 0..300 {
            let a = learner.select_action(&mut rng);
            assert_eq!(a, oracle.select_action(&mut replay), "stage {s}");
            let u = if a == 0 { 120.0 } else { 30.0 + (s % 5) as f64 };
            learner.observe(u);
            oracle.observe(u);
        }
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(learner.probabilities()), bits(oracle.probabilities()));
        bits(learner.probabilities())
    }

    /// `algorithm = "regret_matching"` with `conditional = true` reaches
    /// the learner as exactly that config — not as unconditional matching.
    #[test]
    fn conditional_regret_matching_is_honoured() {
        assert_ne!(matching_trajectory(true), matching_trajectory(false));
    }

    #[test]
    fn builder_defaults() {
        let c = SimConfig::builder(10, vec![BandwidthSpec::Paper { stay: 0.98 }; 4]).build();
        assert_eq!((c.num_peers(), &c.viewers[..]), (10, &[10][..]));
        assert_eq!(c.helper_channels, vec![vec![0]; 4]);
        assert_eq!(c.allocation, AllocationPolicy::EvenSplit);
        assert_eq!(c.helpers.len(), 4);
        assert_eq!(c.demand, None);
        assert_eq!(c.seed, 0);
        assert_eq!(c.mean_capacity(), 800.0);
    }

    #[test]
    #[should_panic(expected = "bitrate must be positive and finite")]
    fn standard_rejects_a_bad_bitrate() {
        let _ = SimConfig::standard(2, 0.0, 2, 1, 10, 1.0, AllocationPolicy::EvenSplit, 0);
    }

    #[test]
    #[should_panic(expected = "at least one helper")]
    fn empty_helpers_rejected() {
        let _ = SimConfig::builder(10, vec![]).build();
    }
}
