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

/// The paper's bandwidth levels, in kbps (§IV).
pub const PAPER_LEVELS: [f64; 3] = [700.0, 800.0, 900.0];

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

/// The paper's model: a sticky birth–death Markov chain over
/// [`PAPER_LEVELS`]. With probability `stay` the level is unchanged;
/// otherwise it moves to a uniformly chosen neighbour, reflecting at the
/// ends. `stay` close to 1 makes the environment quasi-static between
/// rare shifts — the workspace's reading of the paper's "slowly changing
/// random process".
#[derive(Debug, Clone)]
pub struct MarkovBandwidth {
    /// Transition rows `P[i][j]`, built once from `stay`.
    rows: [[f64; 3]; 3],
    /// Index into [`PAPER_LEVELS`].
    state: usize,
}

impl MarkovBandwidth {
    /// The chain's stationary law `π` with `π P = π`, for every
    /// `stay < 1`. By detailed balance: each end level sends all of its
    /// move mass to the middle, and the middle sends half of its move
    /// mass to each end, so `π₀ = π₁ / 2 = π₂`. The §IV.A MDP benchmark
    /// weights the optimum by it.
    pub const STATIONARY: [f64; 3] = [0.25, 0.5, 0.25];

    /// The paper's process with stay-probability `stay` (0.98 in every
    /// scenario that does not set it), started in a uniformly random state.
    ///
    /// # Panics
    ///
    /// Panics if `stay` is outside `[0, 1)`.
    pub fn paper_with_stay<R: Rng + ?Sized>(rng: &mut R, stay: f64) -> Self {
        let state = rng.gen_range(0..PAPER_LEVELS.len());
        assert!((0.0..1.0).contains(&stay), "stay probability must be in [0,1)");
        let move_mass = 1.0 - stay;
        let rows = [
            [stay, move_mass, 0.0],
            [move_mass / 2.0, stay, move_mass / 2.0],
            [0.0, move_mass, stay],
        ];
        Self { rows, state }
    }
}

impl BandwidthProcess for MarkovBandwidth {
    fn level(&self) -> f64 {
        PAPER_LEVELS[self.state]
    }

    /// One uniform draw against the cumulative sum of the current row, the
    /// last state on a fall-through: every seeded trajectory is pinned to
    /// this exact arithmetic.
    fn step(&mut self, rng: &mut dyn rand::RngCore) {
        let u: f64 = rand::Rng::gen(rng);
        let row = &self.rows[self.state];
        let mut acc = 0.0;
        let mut next = row.len() - 1;
        for (j, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                next = j;
                break;
            }
        }
        self.state = next;
    }

    fn min_level(&self) -> f64 {
        PAPER_LEVELS[0]
    }

    fn max_level(&self) -> f64 {
        PAPER_LEVELS[PAPER_LEVELS.len() - 1]
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
    fn stationary_is_invariant_under_kernel() {
        let mut rng = seeded_rng(2);
        let bw = MarkovBandwidth::paper_with_stay(&mut rng, 0.9);
        let pi = MarkovBandwidth::STATIONARY;
        for (j, &pi_j) in pi.iter().enumerate() {
            let pushed: f64 = pi.iter().zip(&bw.rows).map(|(p, row)| p * row[j]).sum();
            assert!((pushed - pi_j).abs() < 1e-9, "state {j}: {pushed} vs {pi_j}");
        }
    }

    #[test]
    fn sticky_chain_is_ergodic() {
        let mut rng = seeded_rng(2);
        let bw = MarkovBandwidth::paper_with_stay(&mut rng, 0.98);
        let n = PAPER_LEVELS.len();
        // Every state reaches every other along edges of positive mass.
        for from in 0..n {
            let mut reached = [false; 3];
            reached[from] = true;
            let mut frontier = vec![from];
            while let Some(i) = frontier.pop() {
                for (j, seen) in reached.iter_mut().enumerate() {
                    if bw.rows[i][j] > 0.0 && !*seen {
                        *seen = true;
                        frontier.push(j);
                    }
                }
            }
            assert!(reached.iter().all(|&r| r), "state {from} reaches only {reached:?}");
        }
        // A self-loop on every state makes an irreducible chain aperiodic.
        assert!((0..n).all(|i| bw.rows[i][i] > 0.0));
    }

    #[test]
    fn step_is_deterministic_given_seed() {
        let mut ra = seeded_rng(5);
        let mut rb = seeded_rng(5);
        let mut a = MarkovBandwidth::paper_with_stay(&mut ra, 0.7);
        let mut b = MarkovBandwidth::paper_with_stay(&mut rb, 0.7);
        for _ in 0..50 {
            assert_eq!(a.level(), b.level());
            a.step(&mut ra);
            b.step(&mut rb);
        }
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
