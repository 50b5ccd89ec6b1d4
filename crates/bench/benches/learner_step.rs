//! Criterion: per-stage cost of the learners.
//!
//! Measures the `select_action` + `observe` cycle for the recursive R2HS
//! learner (Algorithm 2, `O(m²)` per stage) and the history-based RTHS
//! (Algorithm 1, `O(n·m²)` per stage — the cost the paper's recursive
//! re-expression removes). Regret matching is the recursive learner
//! under uniform averaging: the same kernel, not a third measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rths_core::{HistoryRths, Learner, RthsConfig, SlabLearner};

fn config(m: usize) -> RthsConfig {
    RthsConfig::builder(m).epsilon(0.01).delta(0.1).mu(1280.0).build().unwrap()
}

fn bench_recursive(c: &mut Criterion) {
    let mut group = c.benchmark_group("learner_step/recursive_r2hs");
    for m in [2usize, 4, 8, 20, 50] {
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            let mut learner = SlabLearner::standalone(config(m));
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            b.iter(|| {
                let a = learner.select_action(&mut rng);
                learner.observe(100.0 + a as f64);
                learner.max_regret()
            });
        });
    }
    group.finish();
}

fn bench_history(c: &mut Criterion) {
    let mut group = c.benchmark_group("learner_step/history_rths");
    group.sample_size(10);
    for m in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            // History cost grows with the stage count; bench at a fixed
            // 500-stage history to show the O(n·m²) burden.
            let mut learner = HistoryRths::new(config(m));
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            for _ in 0..500 {
                let a = learner.select_action(&mut rng);
                learner.observe(100.0 + a as f64);
            }
            b.iter(|| {
                let a = learner.select_action(&mut rng);
                learner.observe(100.0 + a as f64);
                learner.max_regret()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_recursive, bench_history);
criterion_main!(benches);
