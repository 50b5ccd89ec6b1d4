//! Probes of the bottom layers: `rths_math::kernels`, `rths_core::slab`,
//! `rths_stoch::bandwidth`, `rths_par`.

use std::hint::black_box;

use rths_core::{LearnerSlab, RthsConfig};
use rths_math::kernels;
use rths_par::par_sharded;
use rths_sim::LearnerSpec;
use rths_stoch::bandwidth::{BandwidthProcess, MarkovBandwidth};
use rths_stoch::rng::seeded_rng;

use super::{median_of_passes, secs, Readings, PASSES, PROBE_SEED};
use crate::workload::{self, Workload};

pub(super) fn probe(out: &mut Readings) {
    kernels_probe(out);
    slab_probe(out);
    slab_m8_probe(out);
    slab_memory_probe(out);
    bandwidth_probe(out);
    dispatch_probe(out);
}

/// The learner configuration `workload`'s peers run with.
fn learner_config(workload: Workload) -> RthsConfig {
    let sim = workload::sim_config(workload, PROBE_SEED);
    LearnerSpec::default()
        .rths_config(workload.helpers(), sim.rate_scale())
        .expect("the default learner spec is valid")
}

/// The three batched kernels over 64-element slices (one T column at
/// m = 64) walking an arena far larger than any cache, as the slab sweep
/// of `reactor_dense` does.
fn kernels_probe(out: &mut Readings) {
    const COLUMN: usize = 64;
    const ELEMS: usize = (64 << 20) / std::mem::size_of::<f64>();
    let mut arena = vec![1.0f64; ELEMS];
    let probs = vec![1.0 / COLUMN as f64; COLUMN];
    let per_elem = |secs: f64| secs * 1e9 / ELEMS as f64;
    out.insert(
        "math.kernels.scale_ns_per_elem".into(),
        per_elem(median_of_passes(|| {
            secs(|| arena.chunks_exact_mut(COLUMN).for_each(|col| kernels::scale(col, 0.98))).0
        })),
    );
    out.insert(
        "math.kernels.axpy_ns_per_elem".into(),
        per_elem(median_of_passes(|| {
            secs(|| {
                arena.chunks_exact_mut(COLUMN).for_each(|col| kernels::axpy(col, 0.5, &probs))
            })
            .0
        })),
    );
    out.insert(
        "math.kernels.regret_max_ns_per_elem".into(),
        per_elem(median_of_passes(|| {
            let (elapsed, max) = secs(|| {
                arena
                    .chunks_exact(COLUMN)
                    .map(|col| kernels::shifted_regret_max(col, &probs, 0.02))
                    .fold(f64::NEG_INFINITY, f64::max)
            });
            black_box(max);
            elapsed
        })),
    );
}

/// One select + observe round over every slot of `slab`: returns the
/// seconds of the select sweep, the seconds of the decay + observe sweep,
/// and the T columns the decay touched.
fn slab_round(
    slab: &mut LearnerSlab,
    config: &RthsConfig,
    rng: &mut rand::rngs::StdRng,
    row: &mut Vec<f64>,
) -> (f64, f64, u64) {
    let mut cols = slab.split();
    let slots = cols.len();
    let (select_s, ()) = secs(|| {
        for i in 0..slots {
            black_box(cols.select_action(i, rng));
        }
    });
    let (observe_s, touched) = secs(|| {
        let touched = cols.decay(1.0 - config.epsilon());
        for i in 0..slots {
            // A plausible per-peer share; the update's cost does not
            // depend on the value.
            cols.observe_predecayed(i, config, 2.5 + (i % 7) as f64 * 0.125, row);
        }
        touched
    });
    (select_s, observe_s, touched)
}

/// A slab of `slots` fresh learners over `m` actions, played for `rounds`
/// rounds so its T matrices have the played columns a running workload's
/// would.
fn warmed_slab(
    m: usize,
    slots: usize,
    rounds: usize,
    config: &RthsConfig,
    rng: &mut rand::rngs::StdRng,
) -> LearnerSlab {
    let mut slab = LearnerSlab::with_capacity(m, slots);
    for _ in 0..slots {
        slab.alloc(m);
    }
    let mut row = Vec::new();
    for _ in 0..rounds {
        slab_round(&mut slab, config, rng, &mut row);
    }
    slab
}

/// `reactor_dense`'s learner state: m = 64, 19,936 slots, 32 KB of T per
/// slot — DRAM-resident, which is the point.
fn slab_probe(out: &mut Readings) {
    let w = Workload::ReactorDense;
    let (m, slots) = (w.helpers(), w.population());
    let config = learner_config(w);
    let mut rng = seeded_rng(PROBE_SEED);
    let mut slab = warmed_slab(m, slots, 12, &config, &mut rng);
    let mut row = Vec::new();
    let mut select = Vec::with_capacity(PASSES);
    let mut observe = Vec::with_capacity(PASSES);
    let mut touched = 0;
    for _ in 0..PASSES {
        let (s, o, t) = slab_round(&mut slab, &config, &mut rng, &mut row);
        select.push(s * 1e9 / slots as f64);
        observe.push(o * 1e9 / slots as f64);
        touched = t;
    }
    out.insert("core.slab.select_ns".into(), crate::stats::median(&select));
    out.insert("core.slab.observe_ns".into(), crate::stats::median(&observe));
    out.insert("core.slab.columns_touched_per_observe".into(), touched as f64 / slots as f64);
    // The metrics-path scan reads a slot's whole 32 KB; a 4,096-slot
    // sample (128 MB) prices it without re-reading the full 650 MB.
    let sample = 4096.min(slots);
    let mut diag = Vec::new();
    out.insert(
        "core.slab.max_regret_ns".into(),
        median_of_passes(|| {
            let mut cols = slab.split();
            let (elapsed, max) = secs(|| {
                (0..sample)
                    .map(|i| cols.max_regret(i, &config, &mut diag))
                    .fold(0.0f64, f64::max)
            });
            black_box(max);
            elapsed * 1e9 / sample as f64
        }),
    );
}

/// `reactor_wide`'s learner state: m = 8, 99,992 slots, 512 B of T each.
fn slab_m8_probe(out: &mut Readings) {
    let w = Workload::ReactorWide;
    let (m, slots) = (w.helpers(), w.population());
    let config = learner_config(w);
    let mut rng = seeded_rng(PROBE_SEED);
    let mut slab = warmed_slab(m, slots, 8, &config, &mut rng);
    let mut row = Vec::new();
    out.insert(
        "core.slab.observe_ns_m8".into(),
        median_of_passes(|| {
            slab_round(&mut slab, &config, &mut rng, &mut row).1 * 1e9 / slots as f64
        }),
    );
}

/// What construction and churn pay the slab: the lazily mapped
/// reservation, and a slot's trip through the free list.
fn slab_memory_probe(out: &mut Readings) {
    let w = Workload::ReactorDense;
    out.insert(
        "core.slab.reserve_ms".into(),
        median_of_passes(|| {
            secs(|| drop(black_box(LearnerSlab::with_capacity(w.helpers(), w.population())))).0
                * 1e3
        }),
    );
    // One mailbox shard's worth of slots in free-list mode, each played a
    // few times so `release` has columns to wipe.
    const SLOTS: usize = 1024;
    let m = w.helpers();
    let config = learner_config(w);
    let mut rng = seeded_rng(PROBE_SEED);
    let mut slab = warmed_slab(m, SLOTS, 4, &config, &mut rng);
    let mut row = Vec::new();
    out.insert(
        "core.slab.alloc_release_ns".into(),
        median_of_passes(|| {
            let (elapsed, ()) = secs(|| {
                for slot in 0..SLOTS as u32 {
                    slab.release(slot);
                }
                for _ in 0..SLOTS {
                    black_box(slab.alloc(m));
                }
            });
            for _ in 0..4 {
                slab_round(&mut slab, &config, &mut rng, &mut row);
            }
            elapsed * 1e9 / SLOTS as f64
        }),
    );
}

fn bandwidth_probe(out: &mut Readings) {
    const STEPS: usize = 1_000_000;
    let mut rng = seeded_rng(PROBE_SEED);
    let mut process = MarkovBandwidth::paper_with_stay(&mut rng, 0.98);
    out.insert(
        "stoch.bandwidth.step_ns".into(),
        median_of_passes(|| {
            let (elapsed, ()) = secs(|| {
                for _ in 0..STEPS {
                    process.step(&mut rng);
                }
            });
            black_box(process.level());
            elapsed * 1e9 / STEPS as f64
        }),
    );
}

/// The fork/join itself: `par_sharded` over `sim_multichannel`'s 400,000
/// items with a body that does nothing.
fn dispatch_probe(out: &mut Readings) {
    const CALLS: usize = 200;
    let items = Workload::SimMultichannel.population();
    let mut column = vec![0u8; items];
    let mut scratch = [0u64; 2];
    for shards in [1usize, 2] {
        let us = median_of_passes(|| {
            let (elapsed, ()) = secs(|| {
                for _ in 0..CALLS {
                    par_sharded(
                        items,
                        shards,
                        &mut column[..],
                        &mut scratch[..],
                        |shard, _, s| {
                            *s += shard.len() as u64;
                        },
                    );
                }
            });
            elapsed * 1e6 / CALLS as f64
        });
        out.insert(format!("par.dispatch_us_t{shards}"), us);
    }
    black_box(scratch);
}
