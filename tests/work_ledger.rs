//! The work ledger: what a run *does*, counted, not timed. A count at a
//! fixed seed and epoch count is the same on every host, so it is pinned
//! exactly here, as `golden.rs` pins trajectories. A change that claims
//! to do the same work (a refactor, a deletion) leaves every number
//! below alone; a change that moves one says so, and which.
//!
//! Four reduced workloads run traced at `RTHS_THREADS` 1 and 2:
//! - a `System` under churn and the link-impairment stack, shaped like
//!   the benchmark's `sim_churn_impaired` (32 helpers, so T blocks are
//!   packed and first plays open columns);
//! - a K-channel `MultiChannelSystem` with viewer migrations between
//!   blocks, shaped like `sim_multichannel`;
//! - a reactor run at 8 helpers, shaped like `reactor_wide`;
//! - a reactor run at 64 helpers, shaped like `reactor_dense` (packed
//!   blocks too).
//!
//! Each pins `TraceReport::counters` and `TraceReport::gauges`; the
//! reactor runs pin `NetOutcome::messages` too. At these sizes only one
//! count depends on the thread count: the multichannel run's
//! `regret_exact_reads`, whose store phases split in two. A reactor
//! records true regret in its mailbox shards' stores, so it folds exactly
//! the stretches `System` folds on the same run, and reads the regret rows
//! that each shard's own running maximum cannot bound. The obs registry
//! is process-global, so every run sits inside one
//! `rths_par::env::with_var` window, which serialises the tests of this
//! binary.

use rths_net::{MessageTotals, NetConfig};
use rths_obs::{self as obs, Counter, Gauge, TraceReport};
use rths_sim::{
    AllocationPolicy, BandwidthSpec, ImpairmentPlan, LearnerSpec, MultiChannelSystem,
    SimConfig, System,
};
use rths_stoch::process::ChurnProcess;

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rths_par::env::with_var("RTHS_THREADS", Some(&n.to_string()), f)
}

/// The counters and gauges of `report`, by name, in canonical order.
fn ledger(report: &TraceReport) -> Vec<(&'static str, u64)> {
    let counters = Counter::ALL.iter().map(|c| (c.name(), report.counters[c.index()]));
    let gauges = Gauge::ALL.iter().map(|g| (g.name(), report.gauges[g.index()]));
    counters.chain(gauges).collect()
}

/// 320 peers × 32 helpers with Poisson(4) arrivals and 1 % departures
/// (equilibrium 400), under `sim_churn_impaired`'s impairment plan. The
/// step size is 0.99 rather than 0.01 so that the lazy decay's scale
/// crosses its renormalisation threshold (2⁻²⁵⁶) after 39 epochs: the
/// renormalisation is the only work `slab_columns_touched` counts.
fn churn_impaired_config() -> SimConfig {
    let plan = ImpairmentPlan::builder(99)
        .gilbert_loss(0.04, 0.3, 0.8, 0.01)
        .token_bucket(500.0, 1000.0)
        .link_bandwidth(vec![300.0, 600.0, 900.0], 0.92)
        .build()
        .expect("valid plan");
    SimConfig::builder(320, vec![BandwidthSpec::Paper { stay: 0.98 }; 32])
        .seed(7)
        .churn(ChurnProcess::new(4.0, 0.01))
        .impairment(plan)
        .learner(LearnerSpec { epsilon: 0.99, ..LearnerSpec::default() })
        .build()
}

#[test]
fn churn_impaired_system_does_the_pinned_work() {
    for threads in [1usize, 2] {
        let report = with_threads(threads, || {
            let _on = obs::scoped_enable(true);
            obs::begin_run("ledger_sim");
            let out = System::new(churn_impaired_config()).run(45);
            assert_eq!(out.epochs, 45);
            obs::take_report()
        });
        let expected: [(&str, u64); 12] = [
            ("messages_enqueued", 0),
            ("messages_delivered", 0),
            ("ring_grow_events", 0),
            ("slab_columns_touched", 1129),
            ("slab_columns_opened", 1899),
            ("stretch_folds", 1472),
            ("regret_exact_reads", 620),
            // 10,054 survivor relocations × 224 bytes of scalars (68 of
            // the store's columns, 88 of its link column's `LinkShaper`,
            // 24 of the slab slot's, 44 of the ledger entry's; every
            // per-peer epoch counter is a `u32`): 2,252,096. The rest,
            // 2,273,600, is the passes that closed the row holes
            // departures left: 1,960 rows of the slab's, 904 bytes each
            // (a 256-byte strategy row, a 512-byte estimate row, the
            // 128-byte row of 32 column handles and the 8-byte mask;
            // these learners are unconditional, so no frequency row), and
            // 1,960 of the ledger's (256 bytes each).
            ("departure_bytes_moved", 4_525_696),
            // The played T columns of the departed peers.
            ("departure_columns_wiped", 370),
            ("ring_capacity_hwm", 0),
            ("ring_occupancy_hwm", 0),
            ("slab_rows_hwm", 370),
        ];
        assert_eq!(ledger(&report), expected, "RTHS_THREADS={threads}");
    }
}

/// 5,000 viewers over 10 channels (Zipf 1.2), 100 helpers with one
/// channel each, water-filling, as in `sim_multichannel`: three blocks of
/// eight epochs with 400 viewers moved off channel 0 between blocks. The
/// population is above `2 × rths_par::MIN_ITEMS_PER_WORKER`, so the store
/// phases split at two threads.
#[test]
fn multichannel_system_does_the_pinned_work() {
    for threads in [1usize, 2] {
        let report = with_threads(threads, || {
            let config = SimConfig::standard(
                10,
                400.0,
                100,
                1,
                5_000,
                1.2,
                AllocationPolicy::WaterFilling,
                7,
            );
            let _on = obs::scoped_enable(true);
            obs::begin_run("ledger_multichannel");
            let mut sys = MultiChannelSystem::new(config);
            for block in 0..3 {
                if block > 0 {
                    sys.migrate_viewers(0, block, 400);
                }
                sys.run(8);
            }
            assert_eq!(sys.epoch(), 24);
            obs::take_report()
        });
        // Each worker's shard keeps its own running maximum, so a second
        // shard reads more rows exactly before its maximum catches up.
        let exact_reads = if threads == 1 { 2104 } else { 2229 };
        let expected: [(&str, u64); 12] = [
            ("messages_enqueued", 0),
            ("messages_delivered", 0),
            ("ring_grow_events", 0),
            ("slab_columns_touched", 0),
            ("slab_columns_opened", 0),
            ("stretch_folds", 10702),
            ("regret_exact_reads", exact_reads),
            ("departure_bytes_moved", 0),
            ("departure_columns_wiped", 0),
            ("ring_capacity_hwm", 0),
            ("ring_occupancy_hwm", 0),
            ("slab_rows_hwm", 5000),
        ];
        assert_eq!(ledger(&report), expected, "RTHS_THREADS={threads}");
    }
}

/// `reactor_wide`'s shape: 992 peers × 8 helpers.
fn wide_config() -> SimConfig {
    SimConfig::builder(992, vec![BandwidthSpec::Paper { stay: 0.98 }; 8]).seed(7).build()
}

/// `reactor_dense`'s shape: 1,024 peers × 64 helpers.
fn dense_config() -> SimConfig {
    SimConfig::builder(1024, vec![BandwidthSpec::Paper { stay: 0.98 }; 64]).seed(7).build()
}

/// `sim` on the reactor for 20 epochs, estimates off, traced.
fn traced_reactor(sim: SimConfig) -> (TraceReport, MessageTotals) {
    let config = NetConfig::from_sim(sim).with_track_estimate(false).with_trace(true);
    let out = rths_net::run(config, 20);
    assert_eq!(out.epochs, 20);
    (obs::take_report(), out.messages)
}

/// The wide config on the reactor, estimates off, as in `reactor_wide`.
/// Its 992 peers are actors 10–1001, one mailbox shard: one running
/// maximum, as when the coordinator recorded for everybody.
#[test]
fn wide_reactor_does_the_pinned_work() {
    for threads in [1usize, 2] {
        let (report, messages) = with_threads(threads, || traced_reactor(wide_config()));
        let expected: [(&str, u64); 12] = [
            // 20 of them `JoinRates`: one to the one mailbox shard per
            // epoch.
            ("messages_enqueued", 41234),
            ("messages_delivered", 41234),
            ("ring_grow_events", 1),
            ("slab_columns_touched", 0),
            ("slab_columns_opened", 0),
            // `System`'s count on the same run (see
            // `reactor_folds_the_stretches_system_folds`).
            ("stretch_folds", 1780),
            ("regret_exact_reads", 139),
            ("departure_bytes_moved", 0),
            ("departure_columns_wiped", 0),
            ("ring_capacity_hwm", 1024),
            ("ring_occupancy_hwm", 1000),
            ("slab_rows_hwm", 992),
        ];
        assert_eq!(ledger(&report), expected, "RTHS_THREADS={threads}");
        assert_eq!(
            messages,
            MessageTotals { control: 20_320, data: 19_840 },
            "RTHS_THREADS={threads}"
        );
    }
}

/// The dense config on the reactor, estimates off, as in
/// `reactor_dense`: T blocks are packed, so first plays open columns. Its
/// 1,024 peers are actors 66–1089, two mailbox shards of 958 and 66 peers.
#[test]
fn dense_reactor_does_the_pinned_work() {
    for threads in [1usize, 2] {
        let (report, messages) = with_threads(threads, || traced_reactor(dense_config()));
        let expected: [(&str, u64); 12] = [
            // 40 of them `JoinRates`: one to each of the two mailbox
            // shards per epoch.
            ("messages_enqueued", 45966),
            ("messages_delivered", 45966),
            ("ring_grow_events", 1),
            ("slab_columns_touched", 0),
            ("slab_columns_opened", 2948),
            // `System`'s count on the same run.
            ("stretch_folds", 1954),
            // Each shard folds its own running maximum from zero, so the
            // second shard reads rows the first one's maximum would bound.
            ("regret_exact_reads", 872),
            ("departure_bytes_moved", 0),
            ("departure_columns_wiped", 0),
            ("ring_capacity_hwm", 1024),
            ("ring_occupancy_hwm", 1024),
            ("slab_rows_hwm", 958),
        ];
        assert_eq!(ledger(&report), expected, "RTHS_THREADS={threads}");
        assert_eq!(
            messages,
            MessageTotals { control: 24_320, data: 20_480 },
            "RTHS_THREADS={threads}"
        );
    }
}

/// Both engines record true regret in the store's observe phase, so on a
/// K = 1 churn-free run the reactor folds exactly the stretches `System`
/// folds — the count follows the peers' selections alone.
#[test]
fn reactor_folds_the_stretches_system_folds() {
    let folds = |report: &TraceReport| report.counters[Counter::StretchFolds.index()];
    for threads in [1usize, 2] {
        for sim in [wide_config(), dense_config()] {
            let (system, reactor) = with_threads(threads, || {
                let _on = obs::scoped_enable(true);
                obs::begin_run("ledger_folds_sim");
                System::new(sim.clone()).run(20);
                let system = obs::take_report();
                (system, traced_reactor(sim.clone()).0)
            });
            let at = format!("{} helpers, RTHS_THREADS={threads}", sim.helpers.len());
            assert!(folds(&system) > 0, "{at}: no stretch folded");
            assert_eq!(folds(&reactor), folds(&system), "{at}");
        }
    }
}
