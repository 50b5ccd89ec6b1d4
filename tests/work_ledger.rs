//! The work ledger: what a run *does*, counted, not timed. A count at a
//! fixed seed and epoch count is the same on every host, so it is pinned
//! exactly here, as `golden.rs` pins trajectories. A change that claims
//! to do the same work (a refactor, a deletion) leaves every number
//! below alone; a change that moves one says so, and which.
//!
//! Two reduced workloads run traced at `RTHS_THREADS` 1 and 2:
//! - a `System` under churn and the link-impairment stack, shaped like
//!   the benchmark's `sim_churn_impaired` (32 helpers, so T blocks are
//!   packed and first plays open columns);
//! - a reactor run at 8 helpers, shaped like `reactor_wide`.
//!
//! Each pins `TraceReport::counters` and `TraceReport::gauges`; the
//! reactor run pins `NetOutcome::messages` too. At these sizes no count
//! depends on the thread count. The obs registry is process-global, so
//! every run sits inside one `rths_par::env::with_var` window, which
//! serialises the tests of this binary.

use rths_net::{MessageTotals, NetConfig};
use rths_obs::{self as obs, Counter, Gauge, TraceReport};
use rths_sim::{BandwidthSpec, ImpairmentPlan, LearnerSpec, SimConfig, System};
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
        let expected: [(&str, u64); 11] = [
            ("messages_enqueued", 0),
            ("messages_delivered", 0),
            ("ring_grow_events", 0),
            ("slab_columns_touched", 1129),
            ("free_list_reuse", 132),
            ("slab_columns_opened", 1899),
            ("stretch_folds", 1472),
            ("regret_exact_reads", 620),
            ("ring_capacity_hwm", 0),
            ("ring_occupancy_hwm", 0),
            ("slab_rows_hwm", 370),
        ];
        assert_eq!(ledger(&report), expected, "RTHS_THREADS={threads}");
    }
}

/// 992 peers × 8 helpers on the reactor, estimates off, as in
/// `reactor_wide`.
#[test]
fn wide_reactor_does_the_pinned_work() {
    for threads in [1usize, 2] {
        let (report, messages) = with_threads(threads, || {
            let sim = SimConfig::builder(992, vec![BandwidthSpec::Paper { stay: 0.98 }; 8])
                .seed(7)
                .build();
            let config = NetConfig::from_sim(sim).with_track_estimate(false).with_trace(true);
            let out = rths_net::run(config, 20);
            assert_eq!(out.epochs, 20);
            (obs::take_report(), out.messages)
        });
        let expected: [(&str, u64); 11] = [
            ("messages_enqueued", 61034),
            ("messages_delivered", 61034),
            ("ring_grow_events", 1),
            ("slab_columns_touched", 0),
            ("free_list_reuse", 0),
            ("slab_columns_opened", 0),
            ("stretch_folds", 0),
            ("regret_exact_reads", 139),
            ("ring_capacity_hwm", 1024),
            ("ring_occupancy_hwm", 1000),
            ("slab_rows_hwm", 992),
        ];
        assert_eq!(ledger(&report), expected, "RTHS_THREADS={threads}");
        assert_eq!(
            messages,
            MessageTotals { control: 40_160, data: 19_840 },
            "RTHS_THREADS={threads}"
        );
    }
}
