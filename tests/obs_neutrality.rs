//! The observability layer's cardinal contract: **tracing is
//! bit-neutral**. Enabling `rths_obs` must not change a single bit of
//! any trajectory on any backend at any thread count — timing is read,
//! never fed back. Each test runs the same seeded workload twice inside
//! one `RTHS_THREADS` guard (untraced, then traced) and compares the
//! full metric series by `f64::to_bits`, the same zero-tolerance
//! standard `sim_net_equivalence` holds the three engines to.
//!
//! The traced run must also *record something* — a neutrality test
//! against a silently disabled tracer would be vacuous — so every test
//! asserts the drained [`rths_obs::TraceReport`] is non-empty.

use rths_net::{Backend, NetConfig};
use rths_obs as obs;
use rths_sim::{
    AllocationPolicy, MultiChannelSystem, Scenario, ScenarioSpec, SimConfig, System,
};

/// Pins `RTHS_THREADS` for the duration of `f` via the workspace's one
/// sanctioned env-mutation helper ([`rths_par::env::with_var`]). Its
/// process-wide guard doubles as the serialization point for the global
/// obs enable flag: every test in this binary runs its untraced *and*
/// traced passes inside one `with_threads` window, so an interleaved
/// traced test can never contaminate another test's "untraced" run.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rths_par::env::with_var("RTHS_THREADS", Some(&n.to_string()), f)
}

/// Runs `f` with tracing globally enabled, drains the registry, and
/// asserts the run actually recorded spans or counters.
fn traced<R>(tag: &str, f: impl FnOnce() -> R) -> R {
    let _on = obs::scoped_enable(true);
    let result = f();
    let report = obs::take_report();
    assert!(
        !report.is_empty(),
        "{tag}: traced run recorded nothing — neutrality test is vacuous"
    );
    assert!(!report.spans.is_empty(), "{tag}: traced run recorded no spans");
    result
}

/// Bit-pattern view of a float series: equality here is exact.
fn bits(series: &[f64]) -> Vec<u64> {
    series.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn sim_system_is_bit_neutral_under_tracing() {
    for threads in [1usize, 2] {
        with_threads(threads, || {
            let run = || System::new(Scenario::paper_small().seed(41).build()).run(60);
            let plain = run();
            let shadow = traced(&format!("sim RTHS_THREADS={threads}"), run);
            assert_eq!(plain.epochs, shadow.epochs);
            assert_eq!(
                bits(plain.metrics.welfare.values()),
                bits(shadow.metrics.welfare.values()),
                "welfare diverged under tracing at RTHS_THREADS={threads}"
            );
            assert_eq!(
                bits(plain.metrics.server_load.values()),
                bits(shadow.metrics.server_load.values()),
                "server load diverged under tracing at RTHS_THREADS={threads}"
            );
            assert_eq!(
                bits(plain.metrics.worst_empirical_regret.values()),
                bits(shadow.metrics.worst_empirical_regret.values()),
                "regret diverged under tracing at RTHS_THREADS={threads}"
            );
            assert_eq!(
                bits(plain.metrics.jain.values()),
                bits(shadow.metrics.jain.values()),
                "Jain fairness diverged under tracing at RTHS_THREADS={threads}"
            );
        });
    }
}

/// Churn under tracing: still bit-neutral, and `free_list_reuse` counts
/// what it names — the arrivals served from a departed peer's T block.
/// Departures and arrivals are scripted between epochs, so the expected
/// count follows from the population alone: an arrival reuses a block
/// exactly when a departed one is still free. `regret_exact_reads`
/// counts the peer-epochs whose regret row the epoch's worst-peer fold
/// read: at least one, and fewer than all of them.
#[test]
fn churned_system_is_bit_neutral_and_counts_block_reuses() {
    with_threads(2, || {
        let run = || {
            let mut system = System::new(Scenario::paper_small().seed(45).build());
            let (mut free, mut reused, mut arrived) = (0u64, 0u64, 0u64);
            for _ in 0..12 {
                let _ = system.run(5);
                let ids = system.peers().ids().to_vec();
                for &id in ids.iter().step_by(4).take(2) {
                    free += u64::from(system.depart_peer(id));
                }
                let before = system.peers().len();
                system.inject_arrivals(2.0);
                let arrivals = (system.peers().len() - before) as u64;
                let served = arrivals.min(free);
                free -= served;
                reused += served;
                arrived += arrivals;
            }
            (system.run(5), reused, arrived)
        };
        let (plain, ..) = run();
        let _on = obs::scoped_enable(true);
        let (shadow, reused, arrived) = run();
        let report = obs::take_report();
        assert_eq!(
            bits(plain.metrics.welfare.values()),
            bits(shadow.metrics.welfare.values()),
            "welfare diverged under tracing with churn"
        );
        assert_eq!(
            bits(plain.metrics.worst_empirical_regret.values()),
            bits(shadow.metrics.worst_empirical_regret.values()),
            "regret diverged under tracing with churn"
        );
        assert_eq!(plain.final_population, shadow.final_population);
        let peer_epochs: f64 = shadow.metrics.population.values().iter().sum();
        let reads = report.counters[obs::Counter::RegretExactReads.index()];
        assert!(
            reads > 0 && (reads as f64) < peer_epochs,
            "{reads} exact regret reads in {peer_epochs} peer-epochs"
        );
        assert!(reused > 0 && reused <= arrived, "script reused {reused} of {arrived}");
        assert_eq!(
            report.counters[obs::Counter::FreeListReuse.index()],
            reused,
            "free_list_reuse must count arrivals served from a departed peer's block"
        );
    });
}

#[test]
fn multichannel_system_is_bit_neutral_under_tracing() {
    for threads in [1usize, 2] {
        with_threads(threads, || {
            let run = || {
                let config = SimConfig::standard(
                    4,
                    400.0,
                    8,
                    2,
                    120,
                    1.2,
                    AllocationPolicy::WaterFilling,
                    19,
                );
                MultiChannelSystem::new(config).run(25)
            };
            let plain = run();
            let shadow = traced(&format!("multichannel RTHS_THREADS={threads}"), run);
            assert_eq!(
                bits(plain.welfare.values()),
                bits(shadow.welfare.values()),
                "multi-channel welfare diverged under tracing at RTHS_THREADS={threads}"
            );
            assert_eq!(
                bits(plain.server_load.values()),
                bits(shadow.server_load.values()),
                "multi-channel server load diverged under tracing at RTHS_THREADS={threads}"
            );
        });
    }
}

/// Total wall time the report's spans of `phase` cover.
fn phase_ns(report: &obs::TraceReport, phase: obs::Phase) -> u64 {
    report.spans.iter().filter(|s| s.phase == phase).map(|s| s.dur_ns).sum()
}

/// The reactor under tracing: bit-neutral, and its mailbox shards'
/// learner passes show up as `choose`, `slab_observe` and `regret_fold`
/// time (recorded on the draining worker, inside its `mailbox_drain`).
#[test]
fn reactor_backend_is_bit_neutral_under_tracing() {
    for threads in [1usize, 2] {
        with_threads(threads, || {
            let sim = Scenario::paper_small().seed(44).build();
            let config = || NetConfig::from_sim(sim.clone()).with_backend(Backend::Reactor);
            let plain = rths_net::run(config(), 40);
            // The `with_trace` config knob (rather than ambient enable)
            // exercises the runtime's own scoped guard.
            let shadow = rths_net::run(config().with_trace(true), 40);
            let report = obs::take_report();
            let at = format!("reactor RTHS_THREADS={threads}");
            assert!(!report.spans.is_empty(), "{at}: traced run recorded no spans");
            for phase in [obs::Phase::Choose, obs::Phase::SlabObserve, obs::Phase::RegretFold] {
                assert!(phase_ns(&report, phase) > 0, "{at}: no {} time", phase.name());
            }
            assert_eq!(
                bits(plain.metrics.welfare.values()),
                bits(shadow.metrics.welfare.values()),
                "reactor welfare diverged under tracing at RTHS_THREADS={threads}"
            );
            assert_eq!(
                plain.messages, shadow.messages,
                "reactor message totals diverged under tracing at RTHS_THREADS={threads}"
            );
        });
    }
}

#[test]
fn scenario_spec_run_is_bit_neutral_under_tracing() {
    // The zoo path covers churn, impairments, and the spec-level trace
    // plumbing in one go.
    with_threads(2, || {
        let spec = ScenarioSpec::load("scenarios/flash_crowd_spike.toml")
            .expect("zoo spec parses")
            .with_epoch_cap(40);
        let plain = spec.run();
        let shadow = traced("scenario spec", || spec.run());
        assert_eq!(
            bits(&plain.welfare),
            bits(&shadow.welfare),
            "scenario welfare diverged under tracing"
        );
        assert_eq!(
            bits(&plain.worst_empirical_regret),
            bits(&shadow.worst_empirical_regret),
            "scenario regret diverged under tracing"
        );
    });
}
