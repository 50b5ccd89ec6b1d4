//! Helper upload-bandwidth processes.
//!
//! The paper's evaluation drives helper capacity with a slowly changing
//! Markov chain over `[700, 800, 900]` kbps ([`MarkovBandwidth`]). Three
//! other processes serve the experiments beside it: constant capacity
//! ([`ConstantBandwidth`]: unit tests, the equilibrium checks and the
//! helper-cascade scenario), a two-state Gilbert–Elliott burst model
//! ([`GilbertElliott`]: the backend equivalence tests), and a
//! deterministic regime shift ([`RegimeShiftBandwidth`]: the
//! tracking-vs-matching ablation).

use rand::Rng;

use crate::markov::MarkovChain;

/// The paper's bandwidth levels, in kbps (§IV).
pub(crate) const PAPER_LEVELS: [f64; 3] = [700.0, 800.0, 900.0];

/// A discrete-time stochastic process describing one helper's upload
/// capacity.
///
/// Implementors are advanced once per simulation epoch via
/// [`step`](BandwidthProcess::step); [`level`](BandwidthProcess::level)
/// reads the current capacity without advancing.
pub trait BandwidthProcess: Send {
    /// Current upload capacity (kbps).
    fn level(&self) -> f64;

    /// Advances the process one epoch.
    fn step(&mut self, rng: &mut dyn rand::RngCore);

    /// Smallest capacity the process can ever produce. Used by the
    /// minimum-bandwidth-deficit bound in Fig. 5.
    fn min_level(&self) -> f64;

    /// Largest capacity the process can ever produce.
    fn max_level(&self) -> f64;
}

/// Markov-modulated bandwidth: a [`MarkovChain`] over a fixed ladder of
/// capacity levels. This is the paper's model.
#[derive(Debug, Clone)]
pub struct MarkovBandwidth {
    chain: MarkovChain,
    levels: Vec<f64>,
}

impl MarkovBandwidth {
    /// Creates a Markov-modulated process.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != chain.num_states()`, if `levels` is
    /// empty, or if any level is negative or non-finite.
    pub fn new(chain: MarkovChain, levels: Vec<f64>) -> Self {
        assert_eq!(levels.len(), chain.num_states(), "one level per chain state");
        assert!(!levels.is_empty(), "need at least one level");
        assert!(
            levels.iter().all(|&l| l.is_finite() && l >= 0.0),
            "levels must be finite and non-negative"
        );
        Self { chain, levels }
    }

    /// The paper's process: a sticky birth–death chain over
    /// `[700, 800, 900]` kbps with stay-probability `stay` (0.98 in every
    /// scenario that does not set it), started in a uniformly random state.
    ///
    /// # Panics
    ///
    /// Panics if `stay` is outside `[0, 1)`.
    pub fn paper_with_stay<R: Rng + ?Sized>(rng: &mut R, stay: f64) -> Self {
        let initial = rng.gen_range(0..PAPER_LEVELS.len());
        let chain = MarkovChain::sticky_birth_death(PAPER_LEVELS.len(), stay, initial);
        Self::new(chain, PAPER_LEVELS.to_vec())
    }

    /// The underlying chain (for stationary analysis in the MDP benchmark).
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    /// The capacity ladder.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }
}

impl BandwidthProcess for MarkovBandwidth {
    fn level(&self) -> f64 {
        self.levels[self.chain.state()]
    }

    fn step(&mut self, rng: &mut dyn rand::RngCore) {
        self.chain.step(rng);
    }

    fn min_level(&self) -> f64 {
        self.levels.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn max_level(&self) -> f64 {
        self.levels.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Constant capacity — the degenerate baseline used in unit tests and the
/// §III.B oscillation example (two equal fixed-capacity helpers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantBandwidth {
    level: f64,
}

impl ConstantBandwidth {
    /// Creates a constant process at `level` kbps.
    ///
    /// # Panics
    ///
    /// Panics if `level` is negative or non-finite.
    pub fn new(level: f64) -> Self {
        assert!(level.is_finite() && level >= 0.0, "level must be finite and non-negative");
        Self { level }
    }
}

impl BandwidthProcess for ConstantBandwidth {
    fn level(&self) -> f64 {
        self.level
    }

    fn step(&mut self, _rng: &mut dyn rand::RngCore) {}

    fn min_level(&self) -> f64 {
        self.level
    }

    fn max_level(&self) -> f64 {
        self.level
    }
}

/// Two-state Gilbert–Elliott burst model: a `good` capacity and a degraded
/// `bad` capacity with asymmetric switching probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    good_level: f64,
    bad_level: f64,
    p_good_to_bad: f64,
    p_bad_to_good: f64,
    in_good: bool,
}

impl GilbertElliott {
    /// Creates the model, starting in the good state.
    ///
    /// # Panics
    ///
    /// Panics if levels are negative/non-finite or probabilities are
    /// outside `[0, 1]`.
    pub fn new(
        good_level: f64,
        bad_level: f64,
        p_good_to_bad: f64,
        p_bad_to_good: f64,
    ) -> Self {
        assert!(good_level.is_finite() && good_level >= 0.0, "good level invalid");
        assert!(bad_level.is_finite() && bad_level >= 0.0, "bad level invalid");
        assert!((0.0..=1.0).contains(&p_good_to_bad), "p_good_to_bad not a probability");
        assert!((0.0..=1.0).contains(&p_bad_to_good), "p_bad_to_good not a probability");
        Self { good_level, bad_level, p_good_to_bad, p_bad_to_good, in_good: true }
    }
}

impl BandwidthProcess for GilbertElliott {
    fn level(&self) -> f64 {
        if self.in_good {
            self.good_level
        } else {
            self.bad_level
        }
    }

    fn step(&mut self, rng: &mut dyn rand::RngCore) {
        let u: f64 = rand::Rng::gen(rng);
        if self.in_good {
            if u < self.p_good_to_bad {
                self.in_good = false;
            }
        } else if u < self.p_bad_to_good {
            self.in_good = true;
        }
    }

    fn min_level(&self) -> f64 {
        self.good_level.min(self.bad_level)
    }

    fn max_level(&self) -> f64 {
        self.good_level.max(self.bad_level)
    }
}

/// Deterministic regime shift: capacity `before` until epoch `shift_at`,
/// then `after` forever. Drives the tracking-vs-matching ablation, where
/// regret *matching*'s uniform averaging fails to adapt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeShiftBandwidth {
    before: f64,
    after: f64,
    shift_at: u64,
    epoch: u64,
}

impl RegimeShiftBandwidth {
    /// Creates the shift process.
    ///
    /// # Panics
    ///
    /// Panics if either level is negative or non-finite.
    pub fn new(before: f64, after: f64, shift_at: u64) -> Self {
        assert!(before.is_finite() && before >= 0.0, "before level invalid");
        assert!(after.is_finite() && after >= 0.0, "after level invalid");
        Self { before, after, shift_at, epoch: 0 }
    }
}

impl BandwidthProcess for RegimeShiftBandwidth {
    fn level(&self) -> f64 {
        if self.epoch < self.shift_at {
            self.before
        } else {
            self.after
        }
    }

    fn step(&mut self, _rng: &mut dyn rand::RngCore) {
        self.epoch += 1;
    }

    fn min_level(&self) -> f64 {
        self.before.min(self.after)
    }

    fn max_level(&self) -> f64 {
        self.before.max(self.after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn paper_default_visits_only_paper_levels() {
        let mut rng = seeded_rng(1);
        let mut bw = MarkovBandwidth::paper_with_stay(&mut rng, 0.98);
        for _ in 0..1000 {
            assert!(PAPER_LEVELS.contains(&bw.level()));
            bw.step(&mut rng);
        }
        assert_eq!(bw.min_level(), 700.0);
        assert_eq!(bw.max_level(), 900.0);
    }

    #[test]
    fn sticky_chain_changes_rarely() {
        let mut rng = seeded_rng(3);
        let mut bw = MarkovBandwidth::paper_with_stay(&mut rng, 0.98);
        let mut switches = 0;
        let mut prev = bw.level();
        let steps = 10_000;
        for _ in 0..steps {
            bw.step(&mut rng);
            if bw.level() != prev {
                switches += 1;
                prev = bw.level();
            }
        }
        let rate = switches as f64 / steps as f64;
        assert!(rate < 0.05, "switch rate {rate} not 'slowly changing'");
        assert!(rate > 0.005, "switch rate {rate} suspiciously low");
    }

    #[test]
    fn constant_process_never_moves() {
        let mut rng = seeded_rng(4);
        let mut bw = ConstantBandwidth::new(500.0);
        for _ in 0..10 {
            bw.step(&mut rng);
            assert_eq!(bw.level(), 500.0);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn constant_rejects_negative() {
        let _ = ConstantBandwidth::new(-1.0);
    }

    #[test]
    fn gilbert_elliott_switches_states() {
        let mut rng = seeded_rng(6);
        let mut ge = GilbertElliott::new(1000.0, 200.0, 0.2, 0.2);
        let mut saw_bad = false;
        let mut saw_good = false;
        for _ in 0..500 {
            ge.step(&mut rng);
            if ge.level() == 1000.0 {
                saw_good = true;
            } else {
                saw_bad = true;
            }
        }
        assert!(saw_good && saw_bad);
    }

    #[test]
    fn regime_shift_happens_exactly_once() {
        let mut rng = seeded_rng(7);
        let mut bw = RegimeShiftBandwidth::new(900.0, 300.0, 5);
        let mut seen = Vec::new();
        for _ in 0..10 {
            seen.push(bw.level());
            bw.step(&mut rng);
        }
        assert_eq!(seen, vec![900.0; 5].into_iter().chain(vec![300.0; 5]).collect::<Vec<_>>());
        assert_eq!(bw.min_level(), 300.0);
        assert_eq!(bw.max_level(), 900.0);
    }

    #[test]
    fn processes_are_object_safe() {
        let mut rng = seeded_rng(8);
        let mut procs: Vec<Box<dyn BandwidthProcess>> = vec![
            Box::new(ConstantBandwidth::new(100.0)),
            Box::new(MarkovBandwidth::paper_with_stay(&mut rng, 0.98)),
            Box::new(GilbertElliott::new(900.0, 100.0, 0.05, 0.2)),
            Box::new(RegimeShiftBandwidth::new(800.0, 400.0, 100)),
        ];
        for p in &mut procs {
            p.step(&mut rng);
            assert!(p.level() >= p.min_level() && p.level() <= p.max_level());
        }
    }
}
