//! Property-based tests for the RTHS learners.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::SeedableRng;
use rths_core::{
    HistoryRths, Learner, LearnerSlab, RecencyMode, RthsConfig, RthsState, SlabLearner,
};

fn arb_config() -> impl Strategy<Value = RthsConfig> {
    (2usize..6, 0.005..0.5f64, 0.02..0.5f64, 10.0..10000.0f64).prop_map(
        |(m, eps, delta, mu)| {
            RthsConfig::builder(m).epsilon(eps).delta(delta).mu(mu).build().unwrap()
        },
    )
}

/// Like [`arb_config`] but additionally sweeping all three recency modes
/// and the conditional-regret flag — the full mode matrix the slab must
/// replay bit-for-bit.
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
    fn probabilities_always_valid_with_floor(
        cfg in arb_config(),
        seed in any::<u64>(),
        utilities in prop::collection::vec(0.0..1000.0f64, 50..150),
    ) {
        let m = cfg.num_actions();
        let floor = cfg.delta() / m as f64;
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for &u in &utilities {
            let _ = l.select_action(&mut rng);
            l.observe(u);
            prop_assert!(rths_math::vector::is_distribution(l.probabilities(), 1e-9));
            for &p in l.probabilities() {
                prop_assert!(p >= floor - 1e-12, "probability {p} under floor {floor}");
            }
        }
    }

    #[test]
    fn regrets_always_nonnegative_and_finite(
        cfg in arb_config(),
        seed in any::<u64>(),
        utilities in prop::collection::vec(0.0..1000.0f64, 30..100),
    ) {
        let m = cfg.num_actions();
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for &u in &utilities {
            let _ = l.select_action(&mut rng);
            l.observe(u);
            for j in 0..m {
                for k in 0..m {
                    let q = l.regret(j, k);
                    prop_assert!(q >= 0.0 && q.is_finite());
                }
            }
            prop_assert!(l.max_regret() >= 0.0);
        }
    }

    #[test]
    fn history_equals_recursive_for_any_config(
        cfg in arb_config(),
        seed in any::<u64>(),
        utilities in prop::collection::vec(0.0..100.0f64, 20..60),
    ) {
        let mut hist = HistoryRths::new(cfg.clone());
        let mut rec = SlabLearner::standalone(cfg);
        let mut rng_h = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng_r = rand::rngs::StdRng::seed_from_u64(seed);
        for &u in &utilities {
            let a_h = hist.select_action(&mut rng_h);
            let a_r = rec.select_action(&mut rng_r);
            prop_assert_eq!(a_h, a_r);
            // Make utility depend on action to surface any divergence.
            let payoff = u + a_h as f64;
            hist.observe(payoff);
            rec.observe(payoff);
            for (p_h, p_r) in hist.probabilities().iter().zip(rec.probabilities()) {
                prop_assert!((p_h - p_r).abs() < 1e-9, "probs diverged: {p_h} vs {p_r}");
            }
        }
    }

    #[test]
    fn deterministic_trajectories(cfg in arb_config(), seed in any::<u64>()) {
        let run = |cfg: RthsConfig, seed: u64| {
            let mut l = SlabLearner::standalone(cfg);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut actions = Vec::new();
            for s in 0..40 {
                let a = l.select_action(&mut rng);
                actions.push(a);
                l.observe((a + s % 3) as f64 * 7.0);
            }
            actions
        };
        prop_assert_eq!(run(cfg.clone(), seed), run(cfg, seed));
    }

    #[test]
    fn constant_utilities_keep_strategy_near_uniform(
        cfg in arb_config(),
        seed in any::<u64>(),
        u in 1.0..500.0f64,
    ) {
        // With identical utilities for every action there is nothing to
        // regret *in expectation*; the strategy should not collapse onto a
        // single action. (Importance-weighting noise allows transient
        // tilt, so the assertion is deliberately loose.)
        let m = cfg.num_actions();
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sum_entropyish = 0.0;
        let stages = 400;
        for _ in 0..stages {
            let _ = l.select_action(&mut rng);
            l.observe(u);
            let max_p = l.probabilities().iter().copied().fold(0.0f64, f64::max);
            sum_entropyish += max_p;
        }
        let avg_max_p = sum_entropyish / stages as f64;
        prop_assert!(
            avg_max_p < 0.995,
            "strategy collapsed under constant utility: avg max prob {avg_max_p} (m={m})"
        );
    }

    #[test]
    fn matching_learner_keeps_uniform_invariants(
        seed in any::<u64>(),
        utilities in prop::collection::vec(0.0..100.0f64, 20..80),
    ) {
        let cfg = RthsConfig::builder(3)
            .epsilon(0.05)
            .delta(0.1)
            .mu(100.0)
            .recency(RecencyMode::Uniform)
            .build()
            .unwrap();
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for &u in &utilities {
            let _ = l.select_action(&mut rng);
            l.observe(u);
            prop_assert!(rths_math::vector::is_distribution(l.probabilities(), 1e-9));
            prop_assert!(l.max_regret() >= 0.0);
        }
    }

    #[test]
    fn reset_actions_gives_fresh_uniform_state(
        cfg in arb_config(),
        seed in any::<u64>(),
        new_m in 1usize..7,
    ) {
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            let _ = l.select_action(&mut rng);
            l.observe(42.0);
        }
        l.reset_actions(new_m);
        prop_assert_eq!(l.num_actions(), new_m);
        prop_assert_eq!(l.stage(), 0);
        prop_assert_eq!(l.max_regret(), 0.0);
        let expect = 1.0 / new_m as f64;
        for &p in l.probabilities() {
            prop_assert!((p - expect).abs() < 1e-12);
        }
    }

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
            slab.observe(slot, &cfg, u, &mut scratch);
            scanned.observe(slot, &cfg, u, &mut scratch);
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
        // it, so in a packed block every first play opens its column at
        // position 0 and shifts all the stored ones up — the order that
        // shifts the most. The other stages replay an action already
        // played. Slot 1 of 2, so the block is not the arena's first; the
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
            opened += usize::from(slab.observe(slot, &cfg, u, &mut scratch));
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

    #[test]
    fn uniform_mode_regrets_bounded_by_max_utility(
        seed in any::<u64>(),
        utilities in prop::collection::vec(0.0..200.0f64, 30..100),
    ) {
        // Under uniform averaging the regret is an average of bounded
        // per-stage differences with importance weights ≤ m/δ; sanity
        // bound: max_regret ≤ max_u · m / δ.
        let cfg = RthsConfig::builder(3)
            .epsilon(0.05)
            .delta(0.2)
            .mu(100.0)
            .recency(RecencyMode::Uniform)
            .build()
            .unwrap();
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let max_u = utilities.iter().copied().fold(0.0f64, f64::max);
        for &u in &utilities {
            let _ = l.select_action(&mut rng);
            l.observe(u);
        }
        let bound = max_u * 3.0 / 0.2 + 1e-9;
        prop_assert!(l.max_regret() <= bound, "{} > {bound}", l.max_regret());
    }
}
