//! Workspace-level determinism regression tests.
//!
//! The golden tests in `tests/golden.rs` pin exact values, but a pin only
//! catches drift *between* commits. These tests catch nondeterminism
//! *within* one binary: every seeded subsystem — the single-channel
//! simulator, the message-passing runtime, and the multi-channel engine —
//! is run twice from identical configs and must agree exactly, per epoch,
//! not just in aggregate. Any use of unseeded entropy, iteration-order
//! dependence (e.g. hashing), or cross-thread ordering leaks fails here
//! long before a golden constant needs re-pinning.

use rths_net::NetConfig;
use rths_sim::{
    AllocationPolicy, BandwidthSpec, MultiChannelSystem, Scenario, SimConfig, System,
};

#[test]
fn simulator_golden_scenario_is_deterministic_per_epoch() {
    let run = || {
        let mut system = System::new(Scenario::paper_small().seed(42).build());
        system.run(50)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.metrics.welfare.values(), b.metrics.welfare.values());
    assert_eq!(a.metrics.server_load.values(), b.metrics.server_load.values());
    assert_eq!(
        a.metrics.worst_empirical_regret.values(),
        b.metrics.worst_empirical_regret.values()
    );
    for (x, y) in a.metrics.helper_loads.iter().zip(&b.metrics.helper_loads) {
        assert_eq!(x.values(), y.values());
    }
}

#[test]
fn simulator_is_deterministic_across_configs_built_twice() {
    // Building the config twice must also be deterministic (no entropy in
    // builders), not just running the same instance twice.
    let build =
        || SimConfig::builder(8, vec![BandwidthSpec::Paper { stay: 0.95 }; 3]).seed(7).build();
    let mut first = System::new(build());
    let mut second = System::new(build());
    assert_eq!(first.run(40).metrics.welfare.values(), second.run(40).metrics.welfare.values());
}

#[test]
fn net_runtime_is_deterministic_per_epoch() {
    let run = || {
        let sim =
            SimConfig::builder(6, vec![BandwidthSpec::Paper { stay: 0.9 }; 2]).seed(11).build();
        rths_net::run(NetConfig::from_sim(sim), 30)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.metrics.welfare.values(), b.metrics.welfare.values());
    assert_eq!(a.metrics.server_load.values(), b.metrics.server_load.values());
}

#[test]
fn multichannel_engine_is_deterministic_per_epoch() {
    let run = || {
        let config =
            SimConfig::standard(4, 400.0, 6, 2, 30, 1.0, AllocationPolicy::WaterFilling, 13);
        MultiChannelSystem::new(config).run(25)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.welfare.values(), b.welfare.values());
    assert_eq!(a.server_load.values(), b.server_load.values());
    assert_eq!(a.mean_channel_rates, b.mean_channel_rates);
    assert_eq!(a.viewer_fairness, b.viewer_fairness);
}
