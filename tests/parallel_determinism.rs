//! The parallel runtime's contract: `RTHS_THREADS` changes wall-clock
//! time, never results. Both engines are run at 1, 2, and 4 workers —
//! and, separately, at 1, 2, and 4 pinned peer-store *shards* — and
//! every recorded series must be **bit-for-bit** identical (`f64::to_bits`
//! equality, not tolerance) — the property every golden/trajectory-pinned
//! test in this repository relies on.
//!
//! Thread sweeps use the scoped `rths_par::with_threads` override
//! (thread-local, so no racy `std::env::set_var`); the `RTHS_THREADS`
//! environment variable stays the outermost default.
//!
//! The thread sweeps run populations below
//! `rths_par::MIN_ITEMS_PER_WORKER`, where the stores fold to one shard
//! by default; the pinned-shard sweep (`set_shards`, which that cutoff
//! does not cap) is what drives the multi-shard fork/join path.

use rths_suite::par::with_threads;
use rths_suite::sim::{
    AllocationPolicy, BandwidthSpec, LearnerSpec, MultiChannelConfig, MultiChannelSystem,
    Outcome, SimConfig, System,
};
use rths_suite::stoch::process::ChurnProcess;

#[track_caller]
fn assert_bit_identical(label: &str, threads: usize, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{label}: length diverged at {threads} threads");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}[{i}]: {x} != {y} at {threads} threads vs sequential"
        );
    }
}

/// The outcome and the helpers' final capacities.
fn single_channel_outcome() -> (Outcome, Vec<f64>) {
    // Big enough to engage the pool, with demand (residual/server path),
    // churn (population changes across epochs), and the conditional
    // learner extension all exercised.
    let config = SimConfig::builder(200, vec![BandwidthSpec::Paper { stay: 0.98 }; 12])
        .demand(60.0)
        .churn(ChurnProcess::new(1.0, 0.005))
        .learner(LearnerSpec { conditional: true, ..LearnerSpec::default() })
        .seed(4242)
        .build();
    let mut system = System::new(config);
    (system.run(400), system.capacities())
}

#[test]
fn system_outcome_is_thread_count_invariant() {
    let (sequential, sequential_capacities) = with_threads(1, single_channel_outcome);
    for threads in [2usize, 4] {
        let (parallel, parallel_capacities) = with_threads(threads, single_channel_outcome);
        assert_eq!(parallel.epochs, sequential.epochs);
        assert_eq!(parallel.final_population, sequential.final_population);
        let pairs: [(&str, &[f64], &[f64]); 7] = [
            ("welfare", parallel.metrics.welfare.values(), sequential.metrics.welfare.values()),
            (
                "server_load",
                parallel.metrics.server_load.values(),
                sequential.metrics.server_load.values(),
            ),
            ("jain", parallel.metrics.jain.values(), sequential.metrics.jain.values()),
            (
                "worst_empirical_regret",
                parallel.metrics.worst_empirical_regret.values(),
                sequential.metrics.worst_empirical_regret.values(),
            ),
            (
                "population",
                parallel.metrics.population.values(),
                sequential.metrics.population.values(),
            ),
            (
                "mean_peer_rates",
                &parallel.metrics.mean_peer_rates,
                &sequential.metrics.mean_peer_rates,
            ),
            ("final_capacities", &parallel_capacities, &sequential_capacities),
        ];
        for (label, par_series, seq_series) in pairs {
            assert_bit_identical(label, threads, par_series, seq_series);
        }
        for (j, (par_loads, seq_loads)) in parallel
            .metrics
            .helper_loads
            .iter()
            .zip(&sequential.metrics.helper_loads)
            .enumerate()
        {
            assert_bit_identical(
                &format!("helper_loads[{j}]"),
                threads,
                par_loads.values(),
                seq_loads.values(),
            );
        }
    }
}

fn multi_channel_outcome(policy: AllocationPolicy) -> rths_suite::sim::MultiChannelOutcome {
    let config = MultiChannelConfig::standard(8, 400.0, 24, 3, 240, 1.2, policy, 99);
    MultiChannelSystem::new(config).run(300)
}

/// The SoA peer stores' second axis: the pinned **shard count** must not
/// change results either, independently of the worker count executing the
/// shards. Sweeps both engines at 1, 2 and 4 shards (worker count left at
/// the ambient default, so CI's `RTHS_THREADS=2` leg exercises
/// shards ≠ workers).
#[test]
fn engines_are_shard_count_invariant() {
    let single = |shards: usize| {
        let config = SimConfig::builder(150, vec![BandwidthSpec::Paper { stay: 0.98 }; 8])
            .demand(80.0)
            .churn(ChurnProcess::new(0.6, 0.004))
            .seed(1717)
            .build();
        let mut sys = System::new(config);
        sys.set_shards(Some(shards));
        let out = sys.run(250);
        (
            out.metrics.welfare.values().to_vec(),
            out.metrics.worst_empirical_regret.values().to_vec(),
            out.metrics.mean_peer_rates,
            out.metrics.population.values().to_vec(),
        )
    };
    let multi = |shards: usize| {
        let config = MultiChannelConfig::standard(
            6,
            400.0,
            18,
            2,
            180,
            1.3,
            AllocationPolicy::WaterFilling,
            55,
        );
        let mut sys = MultiChannelSystem::new(config);
        sys.set_shards(Some(shards));
        let out = sys.run(200);
        (
            out.welfare.values().to_vec(),
            out.worst_empirical_regret.values().to_vec(),
            out.mean_channel_rates,
            out.viewer_fairness,
        )
    };
    let single_base = single(1);
    let multi_base = multi(1);
    for shards in [2usize, 4] {
        let s = single(shards);
        assert_bit_identical("single/welfare", shards, &s.0, &single_base.0);
        assert_bit_identical("single/worst_emp", shards, &s.1, &single_base.1);
        assert_bit_identical("single/mean_peer_rates", shards, &s.2, &single_base.2);
        assert_bit_identical("single/population", shards, &s.3, &single_base.3);
        let m = multi(shards);
        assert_bit_identical("multi/welfare", shards, &m.0, &multi_base.0);
        assert_bit_identical("multi/worst_emp", shards, &m.1, &multi_base.1);
        assert_bit_identical("multi/mean_channel_rates", shards, &m.2, &multi_base.2);
        assert_eq!(
            m.3.to_bits(),
            multi_base.3.to_bits(),
            "multi/viewer_fairness at {shards} shards"
        );
    }
}

#[test]
fn multichannel_outcome_is_thread_count_invariant() {
    let policy = AllocationPolicy::WaterFilling;
    let sequential = with_threads(1, || multi_channel_outcome(policy));
    for threads in [2usize, 4] {
        let parallel = with_threads(threads, || multi_channel_outcome(policy));
        assert_eq!(parallel.epochs, sequential.epochs, "{policy:?}");
        assert_eq!(
            parallel.viewer_fairness.to_bits(),
            sequential.viewer_fairness.to_bits(),
            "{policy:?} viewer_fairness at {threads} threads"
        );
        let pairs: [(&str, &[f64], &[f64]); 5] = [
            ("welfare", parallel.welfare.values(), sequential.welfare.values()),
            ("server_load", parallel.server_load.values(), sequential.server_load.values()),
            (
                "worst_empirical_regret",
                parallel.worst_empirical_regret.values(),
                sequential.worst_empirical_regret.values(),
            ),
            (
                "mean_channel_rates",
                &parallel.mean_channel_rates,
                &sequential.mean_channel_rates,
            ),
            (
                "channel_continuity",
                &parallel.channel_continuity,
                &sequential.channel_continuity,
            ),
        ];
        for (label, par_series, seq_series) in pairs {
            assert_bit_identical(
                &format!("{policy:?}/{label}"),
                threads,
                par_series,
                seq_series,
            );
        }
    }
}
