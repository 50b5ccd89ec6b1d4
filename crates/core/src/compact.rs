//! The scalar oracle of the RTHS update: one peer, one dense matrix.
//!
//! [`RthsState`] is Algorithm 2 (Eqs. 3-4…3-6) written the plain way — a
//! dense `m × m` [`Matrix`] per peer, every entry visited, no masks, no
//! shared arena — and exists to be compared against. The production
//! learner is [`LearnerSlab`](crate::LearnerSlab) (behind the `Learner`
//! trait: [`SlabLearner`](crate::SlabLearner)), which packs a population
//! into flat columns and touches played columns only; its unit tests and
//! the proptest sweeps below replay this type **bit-for-bit** in every
//! recency × conditional mode, at arities up to 256. The type is compiled
//! in this crate's test build only.
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
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::learner::Learner;
    use crate::slab::{LearnerSlab, SlabLearner};
    use proptest::prelude::*;
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

    /// Random configs (2 to 5 actions, ε, δ, μ) in all three recency modes
    /// and both conditional-regret settings — the full mode matrix the slab
    /// must replay bit-for-bit.
    fn arb_config_all_modes() -> impl Strategy<Value = RthsConfig> {
        (2usize..6, 0.005..0.5f64, 0.02..0.5f64, 10.0..10000.0f64, 0usize..3, 0usize..2)
            .prop_map(all_modes_config)
    }

    fn all_modes_config(
        (m, eps, delta, mu, mode, cond): (usize, f64, f64, f64, usize, usize),
    ) -> RthsConfig {
        let recency = match mode {
            0 => RecencyMode::Exponential,
            1 => RecencyMode::PaperLiteral,
            _ => RecencyMode::Uniform,
        };
        RthsConfig::builder(m)
            .epsilon(eps)
            .delta(delta)
            .mu(mu)
            .recency(recency)
            .conditional(cond == 1)
            .build()
            .unwrap()
    }

    /// `(arity, stride)` pairs for the played-mask walks: one, two, four
    /// (last one partial) and four full bitmask words, `stride == arity` and
    /// `stride > arity`, both row-gather forms (a stride of at most 8 gathers
    /// densely, see `slab.rs`) and both block layouts — strides 22 and 23 sit
    /// on either side of the page that packs a block's played columns, and
    /// `(8, 23)` packs a few columns into a wide block.
    const MASK_GEOMETRIES: [(usize, usize); 12] = [
        (3, 5),
        (8, 8),
        (8, 11),
        (22, 22),
        (23, 23),
        (8, 23),
        (64, 64),
        (64, 67),
        (70, 70),
        (70, 75),
        (200, 203),
        (256, 256),
    ];

    /// Whether a slab of this stride packs its blocks' played columns: a
    /// block larger than a 4 KB page does.
    fn packs(stride: usize) -> bool {
        stride * stride * 8 > 4096
    }

    /// A one-draw RNG that makes `select_action` pick a chosen action: its
    /// `f64` draw (the top 53 bits of one `next_u64` in the vendored `rand`)
    /// is the middle of the action's bin. A draw that lands anywhere else
    /// shows up as a different sampled action, which the callers assert.
    struct Picks(u64);

    impl Picks {
        /// The draw that samples action `a` from `probs`, whose bins are
        /// summed in `select_action`'s order.
        fn action(probs: &[f64], a: usize) -> Self {
            let below = probs[..a].iter().fold(0.0, |acc, p| acc + p);
            let u = below + probs[a] / 2.0;
            Self(((u * (1u64 << 53) as f64) as u64) << 11)
        }
    }

    impl rand::RngCore for Picks {
        fn next_u32(&mut self) -> u32 {
            unreachable!("select_action draws one f64")
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("select_action draws one f64")
        }
    }

    /// [`arb_config_all_modes`] at the arities of [`MASK_GEOMETRIES`], with ε
    /// up to 0.95 so that the lazy decay renormalises within a short run
    /// (every 60 stages at the top of the range). Yields the config and the
    /// slab stride to host it in.
    fn arb_mask_geometry_config() -> impl Strategy<Value = (RthsConfig, usize)> {
        (
            0..MASK_GEOMETRIES.len(),
            0.005..0.95f64,
            0.02..0.5f64,
            10.0..10000.0f64,
            0usize..3,
            0usize..2,
        )
            .prop_map(|(g, eps, delta, mu, mode, cond)| {
                let (m, stride) = MASK_GEOMETRIES[g];
                (all_modes_config((m, eps, delta, mu, mode, cond)), stride)
            })
    }

    /// Learners sharing the slab of
    /// `interleaved_slab_learners_replay_their_oracles_bitwise`.
    const REPLAYED: usize = 11;

    /// One of them: a [`SlabLearner`] beside the scalar oracle it must replay.
    struct Replayed {
        learner: SlabLearner,
        oracle: RthsState,
        rng: rand::rngs::StdRng,
        pending: bool,
    }

    impl Replayed {
        fn new(slab: &Arc<Mutex<LearnerSlab>>, cfg: &RthsConfig, stream: u64) -> Self {
            Self {
                learner: SlabLearner::new(Arc::clone(slab), cfg.clone()),
                oracle: RthsState::new(cfg),
                rng: rand::rngs::StdRng::seed_from_u64(stream),
                pending: false,
            }
        }

        /// An independent copy of learner and oracle, on its own stream.
        fn duplicate(&self, stream: u64) -> Self {
            Self {
                learner: self.learner.clone(),
                oracle: self.oracle.clone(),
                rng: rand::rngs::StdRng::seed_from_u64(stream),
                pending: self.pending,
            }
        }

        /// The next move of the stage protocol: select, or observe `utility`.
        fn step(&mut self, cfg: &RthsConfig, utility: f64) {
            if self.pending {
                self.learner.observe(utility);
                self.oracle.observe(cfg, utility, &mut Vec::new());
            } else {
                let mut replay = self.rng.clone();
                let a = self.learner.select_action(&mut self.rng);
                assert_eq!(a, self.oracle.select_action(&mut replay), "sampled action");
            }
            self.pending = !self.pending;
        }

        fn check_strategy(&self) {
            let (got, want) = (self.learner.probabilities(), self.oracle.probabilities());
            assert_eq!(got.len(), want.len());
            for (x, y) in got.iter().zip(want) {
                assert_eq!(x.to_bits(), y.to_bits(), "strategy");
            }
        }

        fn check_scalars(&self, cfg: &RthsConfig) {
            assert_eq!(
                self.learner.max_regret().to_bits(),
                self.oracle.max_regret(cfg).to_bits(),
                "estimate"
            );
            assert_eq!(self.learner.stage(), self.oracle.stage(), "stage");
            assert_eq!(self.learner.pending_action().is_some(), self.pending, "pending action");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn slab_learner_replays_recursive_learner_bitwise(
            cfg in arb_config_all_modes(),
            seed in any::<u64>(),
            utilities in prop::collection::vec(0.0..1000.0f64, 40..120),
        ) {
            // Slab-backed learners must replay the scalar oracle bit-for-bit
            // over randomized trajectories in every recency × conditional
            // mode. Two slots share the slab so the strided layout (not just
            // a lone slot) is exercised.
            let slab = Arc::new(Mutex::new(LearnerSlab::new(cfg.num_actions())));
            let _neighbor = SlabLearner::new(Arc::clone(&slab), cfg.clone());
            let mut slabbed = SlabLearner::new(Arc::clone(&slab), cfg.clone());
            let mut oracle = RthsState::new(&cfg);
            let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed);
            let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed);
            let mut scratch = Vec::new();
            for (s, &u) in utilities.iter().enumerate() {
                let a = oracle.select_action(&mut rng_a);
                let b = slabbed.select_action(&mut rng_b);
                prop_assert_eq!(a, b, "action diverged at stage {}", s);
                oracle.observe(&cfg, u, &mut scratch);
                slabbed.observe(u);
                for (x, y) in oracle.probabilities().iter().zip(slabbed.probabilities()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "probs diverged at stage {}", s);
                }
                prop_assert_eq!(
                    oracle.max_regret(&cfg).to_bits(),
                    slabbed.max_regret().to_bits(),
                    "max_regret diverged at stage {}",
                    s
                );
            }
        }

        #[test]
        fn slab_mask_walks_replay_oracle_bitwise_on_sparse_played_sets(
            (cfg, stride) in arb_mask_geometry_config(),
            seed in any::<u64>(),
            utilities in prop::collection::vec(-250.0..750.0f64, 40..160),
            track_from in 0usize..80,
        ) {
            // The slab reads only played columns (row gather and regret
            // scan); the oracle reads all m². At m = 64/70 a run this short
            // leaves most columns never played; at m = 3 all of them fill.
            // Negative utilities make diagonal entries negative, which is
            // when a never-played (all-zero) column carries the regret max —
            // and they lower a column, which is when the maintained row
            // maxima are rebuilt instead of raised.
            // Slot 1 of 2, so the mask and column offsets are not slot 0's.
            // Two slabs take the one trajectory: `scanned` is never asked
            // through `LearnerSlab::max_regret`, so its shard view answers by
            // the scan; `slab` is first asked at stage `track_from` and reads
            // its maintained rows from then on.
            let m = cfg.num_actions();
            let mut slab = LearnerSlab::new(stride);
            slab.alloc(m);
            let slot = slab.alloc(m) as usize;
            let mut scanned = slab.clone();
            let mut oracle = RthsState::new(&cfg);
            let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed);
            let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed);
            let mut scratch = Vec::new();
            for (s, &u) in utilities.iter().enumerate() {
                let mut replay = rng_a.clone();
                let a = slab.select_action(slot, &mut rng_a);
                let b = oracle.select_action(&mut rng_b);
                prop_assert_eq!(a, b, "m={} action diverged at stage {}", m, s);
                prop_assert_eq!(a, scanned.select_action(slot, &mut replay));
                // Every third stage pays nothing (a lost payload).
                let u = if s % 3 == 0 { 0.0 } else { u + a as f64 };
                slab.observe(slot, &cfg, u);
                scanned.observe(slot, &cfg, u);
                oracle.observe(&cfg, u, &mut scratch);
                for (x, y) in slab.probabilities(slot).iter().zip(oracle.probabilities()) {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "m={} stride={} probs diverged at stage {}", m, stride, s
                    );
                }
                let want = oracle.max_regret(&cfg).to_bits();
                prop_assert_eq!(
                    scanned.split().max_regret(slot, &cfg, &mut scratch).to_bits(),
                    want,
                    "m={} stride={} scanned max_regret diverged at stage {}", m, stride, s
                );
                if s >= track_from {
                    prop_assert_eq!(
                        slab.max_regret(slot, &cfg).to_bits(),
                        want,
                        "m={} stride={} maintained max_regret diverged at stage {}", m, stride, s
                    );
                }
            }
        }

        #[test]
        fn descending_first_plays_replay_oracle_bitwise(
            (cfg, stride) in arb_mask_geometry_config(),
            steps in prop::collection::vec((-250.0..750.0f64, any::<bool>(), any::<usize>()), 40..160),
            track_from in 0usize..80,
        ) {
            // Each action's first play comes below every action played before
            // it, so in a packed slab the pool hands out columns in the
            // reverse of the mask walks' ascending action order, and every
            // walk has to follow the handles. The other stages replay an
            // action already played. Slot 1 of 2, so the block is not the arena's first; the
            // estimate is read by the scan until stage `track_from` and from
            // the maintained rows after it.
            let m = cfg.num_actions();
            let mut slab = LearnerSlab::new(stride);
            slab.alloc(m);
            let slot = slab.alloc(m) as usize;
            let mut oracle = RthsState::new(&cfg);
            let mut played: Vec<usize> = Vec::new();
            let (mut opened, mut scratch) = (0, Vec::new());
            for (s, &(u, first, pick)) in steps.iter().enumerate() {
                let lowest = played.last().copied().unwrap_or(m);
                let a = if played.is_empty() || (first && lowest > 0) {
                    played.push(pick % lowest);
                    played[played.len() - 1]
                } else {
                    played[pick % played.len()]
                };
                let b = slab.select_action(slot, &mut Picks::action(oracle.probabilities(), a));
                prop_assert_eq!(b, a, "m={} stride={} stage {}: scripted draw missed", m, stride, s);
                prop_assert_eq!(oracle.select_action(&mut Picks::action(oracle.probabilities(), a)), a);
                let u = if s % 3 == 0 { 0.0 } else { u + a as f64 };
                opened += usize::from(slab.observe(slot, &cfg, u));
                oracle.observe(&cfg, u, &mut scratch);
                for (x, y) in slab.probabilities(slot).iter().zip(oracle.probabilities()) {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "m={} stride={} probs diverged at stage {}", m, stride, s
                    );
                }
                let want = oracle.max_regret(&cfg).to_bits();
                let got = if s < track_from {
                    slab.split().max_regret(slot, &cfg, &mut scratch)
                } else {
                    slab.max_regret(slot, &cfg)
                };
                prop_assert_eq!(
                    got.to_bits(), want,
                    "m={} stride={} max_regret diverged at stage {}", m, stride, s
                );
            }
            prop_assert_eq!(opened, if packs(stride) { played.len() } else { 0 });
            let t = oracle.proxy_matrix();
            for (j, k) in (0..m).flat_map(|j| (0..m).map(move |k| (j, k))) {
                prop_assert_eq!(slab.proxy(slot, j, k).to_bits(), t[(j, k)].to_bits());
                prop_assert_eq!(
                    slab.regret(slot, &cfg, j, k).to_bits(),
                    oracle.regret(&cfg, j, k).to_bits()
                );
            }
        }

        #[test]
        fn interleaved_slab_learners_replay_their_oracles_bitwise(
            cfg in arb_config_all_modes(),
            wide in 0usize..3,
            seed in any::<u64>(),
            ops in prop::collection::vec((0usize..10, 0usize..REPLAYED, 0.0..1000.0f64), 80..240),
        ) {
            // Learners sharing one slab: whatever the interleaving of steps,
            // reads, clones and departures, every learner replays its own
            // oracle — single steps, and rounds of everybody selecting and
            // then everybody observing. The slab's stride is the config's own
            // arity (≤ 5) or one of two wider ones.
            let stride = [cfg.num_actions(), 9, 16][wide];
            let slab = Arc::new(Mutex::new(LearnerSlab::new(stride)));
            let mut peers: Vec<Replayed> =
                (0..REPLAYED as u64).map(|p| Replayed::new(&slab, &cfg, seed ^ p)).collect();
            for (n, &(op, p, u)) in ops.iter().enumerate() {
                let stream = seed ^ ((n as u64 + 1) << 8);
                match op {
                    // Half of all operations advance one learner.
                    0..=3 => peers[p].step(&cfg, u),
                    4 => peers[p].check_strategy(),
                    5 => peers[p].check_scalars(&cfg),
                    6 => {
                        // The neighbour leaves; a copy of this learner, on a
                        // stream of its own, takes its place.
                        peers[(p + 1) % REPLAYED] = peers[p].duplicate(stream);
                    }
                    7 => peers[p] = Replayed::new(&slab, &cfg, stream),
                    _ => {
                        let observing = op == 9;
                        for peer in peers.iter_mut().filter(|peer| peer.pending == observing) {
                            peer.step(&cfg, u);
                        }
                    }
                }
            }
            for peer in &peers {
                peer.check_strategy();
                peer.check_scalars(&cfg);
            }
        }
    }
}
