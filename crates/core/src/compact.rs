//! The scalar oracle of the RTHS update: one peer, one dense matrix.
//!
//! [`RthsState`] is Algorithm 2 (Eqs. 3-4…3-6) written the plain way — a
//! dense `m × m` [`Matrix`] per peer, every entry visited, no masks, no
//! shared arena — and exists to be compared against. The production
//! learner is [`LearnerSlab`](crate::LearnerSlab) (behind the `Learner`
//! trait: [`SlabLearner`](crate::SlabLearner)), which packs a population
//! into flat columns and touches played columns only; its unit tests and
//! the proptest sweeps in `tests/properties.rs` replay this type
//! **bit-for-bit** in every recency × conditional mode, at arities up to
//! 256. Nothing in the simulator or the net runtimes holds an
//! `RthsState`.
//!
//! The state keeps only what is genuinely per-peer — `T`, the mixed
//! strategy, the play-frequency average, the stage counter and the
//! pending action — and takes the shared [`RthsConfig`] plus a reusable
//! row scratch as arguments on every step. The regret row of the played
//! action and the worst-regret metric are derived from `T` on demand
//! (`Q` is a pure function of `T`, Eq. 3-6, and never materialised).
//!
//! The exponential decay of `T` is **lazy** ([`crate::lazy`]): the state
//! stores `S` and a scalar `scale` with `T = scale · S`, in lock-step with
//! the slab — same float expressions in the same order, which is what
//! keeps this type its bitwise oracle.

use rand::RngCore;
use rths_math::Matrix;

use crate::config::{RecencyMode, RthsConfig};
use crate::lazy::{self, Decay};
use crate::policy;

/// The per-peer mutable state of the recursive R2HS learner (Algorithm 2)
/// in scalar form — the test-side oracle of
/// [`LearnerSlab`](crate::LearnerSlab), see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct RthsState {
    /// Stored proxy matrix `S`; the proxy matrix of Eq. 3-4 is
    /// `T = scale · S`. Entry `(j, k)` accumulates importance-weighted
    /// utilities of stages where `k` was played.
    t: Matrix,
    /// Lazy decay factor (see [`crate::lazy`]); 1 outside
    /// `RecencyMode::Exponential`.
    scale: f64,
    /// Current mixed strategy `pⁿ`.
    probs: Vec<f64>,
    /// Recency-weighted empirical play frequency per action (same
    /// averaging mode as `T`); drives conditional-regret normalisation.
    freq: Vec<f64>,
    stage: u64,
    /// Action sampled by [`select_action`](Self::select_action) and not
    /// yet observed (`u32`: action sets are helper sets, far below 2³²).
    pending: Option<u32>,
}

impl RthsState {
    /// Uniform initial strategy with zero regrets (`T⁰ = 0`, Algorithm 2
    /// initialisation) for `config`'s action count.
    pub fn new(config: &RthsConfig) -> Self {
        let m = config.num_actions();
        Self {
            t: Matrix::zeros(m, m),
            scale: 1.0,
            probs: vec![1.0 / m as f64; m],
            freq: vec![1.0 / m as f64; m],
            stage: 0,
            pending: None,
        }
    }

    /// The current mixed strategy.
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Stages observed so far.
    pub fn stage(&self) -> u64 {
        self.stage
    }

    /// The proxy matrix `Tⁿ = scale · S`, materialised.
    pub fn proxy_matrix(&self) -> Matrix {
        self.t.scaled(self.scale)
    }

    /// The averaging factor turning proxy differences into regrets: `ε`
    /// for the tracking modes (Eq. 3-6), `1/n` for uniform matching.
    fn factor(&self, config: &RthsConfig) -> f64 {
        match config.recency() {
            RecencyMode::Exponential | RecencyMode::PaperLiteral => config.epsilon(),
            RecencyMode::Uniform => 1.0 / self.stage.max(1) as f64,
        }
    }

    /// Regret `Qⁿ(j, k)` (Eq. 3-6), derived from `T` on demand. The
    /// diagonal is zero by definition.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn regret(&self, config: &RthsConfig, j: usize, k: usize) -> f64 {
        if j == k {
            return 0.0;
        }
        (self.factor(config) * self.scale * (self.t[(j, k)] - self.t[(j, j)])).max(0.0)
    }

    /// Largest entry of the derived regret matrix (row-major scan of `T`).
    pub fn max_regret(&self, config: &RthsConfig) -> f64 {
        let m = self.probs.len();
        let factor = self.factor(config) * self.scale;
        let mut max = f64::NEG_INFINITY;
        for j in 0..m {
            let s_jj = self.t[(j, j)];
            for k in 0..m {
                let q = if j == k { 0.0 } else { (factor * (self.t[(j, k)] - s_jj)).max(0.0) };
                max = max.max(q);
            }
        }
        if max.is_finite() {
            max.max(0.0)
        } else {
            0.0
        }
    }

    /// Samples an action from the current strategy, recording it as
    /// pending.
    ///
    /// # Panics
    ///
    /// Panics if an observation is already pending.
    pub fn select_action(&mut self, rng: &mut dyn RngCore) -> usize {
        assert!(self.pending.is_none(), "select_action called with an observation pending");
        let u: f64 = rand::Rng::gen(rng);
        let mut acc = 0.0;
        let mut chosen = self.probs.len() - 1;
        for (a, &p) in self.probs.iter().enumerate() {
            acc += p;
            if u < acc {
                chosen = a;
                break;
            }
        }
        self.pending = Some(chosen as u32);
        chosen
    }

    /// Feeds the pending action's realized utility through Eqs. (3-5) and
    /// (3-6) and the probability update. `row_scratch` is caller-provided
    /// (shared per shard/learner) so steady-state stages allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if no action is pending or `utility` is not finite.
    pub fn observe(&mut self, config: &RthsConfig, utility: f64, row_scratch: &mut Vec<f64>) {
        assert!(utility.is_finite(), "utility must be finite, got {utility}");
        let j = self.pending.take().expect("observe called without a pending action") as usize;
        self.stage += 1;

        // Eq. (3-5): T ← decay(T); column j += (u/pⁿ(j)) · pⁿ — with
        // T = scale · S the decay goes into `scale` and the rank-1
        // coefficient is divided by it.
        if config.recency() == RecencyMode::Exponential {
            match lazy::decay(&mut self.scale, 1.0 - config.epsilon()) {
                Decay::Keep => {}
                Decay::Renormalise => {
                    self.t.scale(lazy::RENORM_BELOW);
                    self.t.map_inplace(lazy::flush_subnormal);
                }
                Decay::Wipe => self.t.fill(0.0),
            }
        }
        let p_j = self.probs[j];
        debug_assert!(p_j > 0.0, "played action had zero probability");
        let coef = utility / p_j / self.scale;
        let m = config.num_actions();
        for r in 0..m {
            self.t[(r, j)] += coef * self.probs[r];
        }

        // Play-frequency average (same weighting scheme as T).
        match config.recency() {
            RecencyMode::Exponential => {
                let eps = config.epsilon();
                for (a, f) in self.freq.iter_mut().enumerate() {
                    *f = (1.0 - eps) * *f + if a == j { eps } else { 0.0 };
                }
            }
            RecencyMode::PaperLiteral | RecencyMode::Uniform => {
                // Uniform 1/n play counts (literal mode reuses them).
                let n = self.stage as f64;
                for (a, f) in self.freq.iter_mut().enumerate() {
                    let count = *f * (n - 1.0) + if a == j { 1.0 } else { 0.0 };
                    *f = count / n;
                }
            }
        }

        // Eq. (3-6) for the played row only, derived straight from T.
        let factor = self.factor(config) * self.scale;
        let s_jj = self.t[(j, j)];
        row_scratch.clear();
        for k in 0..m {
            row_scratch.push(if j == k {
                0.0
            } else {
                (factor * (self.t[(j, k)] - s_jj)).max(0.0)
            });
        }
        if config.conditional() {
            // Conditional regret: normalise row j by the play frequency
            // of j (floored at the exploration rate to stay bounded).
            let floor = policy::exploration_floor(m, config.delta());
            let f_j = self.freq[j].max(floor);
            for r in row_scratch.iter_mut() {
                *r /= f_j;
            }
        }
        policy::update_probabilities(
            &mut self.probs,
            j,
            row_scratch,
            config.delta(),
            config.mu(),
        );
    }

    /// Reinitialises the state for a new action count (channel switch).
    ///
    /// # Panics
    ///
    /// Panics if an observation is pending or `num_actions` is zero.
    pub fn reset_actions(&mut self, num_actions: usize) {
        assert!(self.pending.is_none(), "cannot reset actions with an observation pending");
        assert!(num_actions > 0, "reset_actions requires at least one action");
        self.t = Matrix::zeros(num_actions, num_actions);
        self.scale = 1.0;
        self.probs = vec![1.0 / num_actions as f64; num_actions];
        self.freq = vec![1.0 / num_actions as f64; num_actions];
        // Restart the stage clock so Uniform-mode averaging matches a
        // fresh learner (and stays consistent with HistoryRths).
        self.stage = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn config(m: usize, recency: RecencyMode, conditional: bool) -> RthsConfig {
        RthsConfig::builder(m)
            .epsilon(0.05)
            .delta(0.1)
            .mu(150.0)
            .recency(recency)
            .conditional(conditional)
            .build()
            .unwrap()
    }

    #[test]
    fn regret_diagonal_is_zero_and_entries_nonnegative() {
        let cfg = config(3, RecencyMode::Exponential, false);
        let mut state = RthsState::new(&cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut scratch = Vec::new();
        for s in 0..100 {
            let a = state.select_action(&mut rng);
            state.observe(&cfg, (a + s % 3) as f64, &mut scratch);
        }
        for j in 0..3 {
            assert_eq!(state.regret(&cfg, j, j), 0.0);
            for k in 0..3 {
                assert!(state.regret(&cfg, j, k) >= 0.0);
            }
        }
    }

    #[test]
    fn reset_matches_fresh_state() {
        let cfg = config(3, RecencyMode::Exponential, false);
        let big = RthsConfig::builder(5).epsilon(0.05).delta(0.1).mu(150.0).build().unwrap();
        let mut state = RthsState::new(&cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut scratch = Vec::new();
        for _ in 0..10 {
            let _ = state.select_action(&mut rng);
            state.observe(&cfg, 5.0, &mut scratch);
        }
        state.reset_actions(5);
        assert_eq!(state, RthsState::new(&big));
    }

    #[test]
    #[should_panic(expected = "observation pending")]
    fn double_select_panics() {
        let cfg = config(2, RecencyMode::Exponential, false);
        let mut state = RthsState::new(&cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let _ = state.select_action(&mut rng);
        let _ = state.select_action(&mut rng);
    }

    #[test]
    #[should_panic(expected = "without a pending action")]
    fn observe_without_select_panics() {
        let cfg = config(2, RecencyMode::Exponential, false);
        let mut state = RthsState::new(&cfg);
        state.observe(&cfg, 1.0, &mut Vec::new());
    }
}
