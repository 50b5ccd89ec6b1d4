//! Property-based tests for the streaming-system simulator.

use proptest::prelude::*;
use rths_sim::helper::allocate;
use rths_sim::{
    AllocationPolicy, BandwidthSpec, LearnerSpec, MultiChannelSystem, SimConfig, System,
};
use rths_stoch::process::ChurnProcess;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_laws_hold(
        n in 1usize..25,
        h in 1usize..6,
        seed in any::<u64>(),
        demand in prop::option::of(100.0..600.0f64),
    ) {
        let mut builder =
            SimConfig::builder(n, vec![BandwidthSpec::Paper { stay: 0.95 }; h]).seed(seed);
        if let Some(d) = demand {
            builder = builder.demand(d);
        }
        let mut sys = System::new(builder.build());
        let out = sys.run(60);
        let cap_bound = 900.0 * h as f64;
        for e in 0..60 {
            // Welfare never exceeds total capacity (or total demand).
            let w = out.metrics.welfare.values()[e];
            prop_assert!(w <= cap_bound + 1e-6);
            if let Some(d) = demand {
                prop_assert!(w <= d * n as f64 + 1e-6);
                // Delivered + server load == total demand.
                let sl = out.metrics.server_load.values()[e];
                prop_assert!((w + sl - d * n as f64).abs() < 1e-6,
                    "conservation violated: {w} + {sl} != {}", d * n as f64);
                // Server load at least the current-capacity deficit bound.
                let bound = out.metrics.current_deficit.values()[e];
                prop_assert!(sl >= bound - 1e-6);
            }
            // Loads sum to population.
            let lsum: f64 = out.metrics.helper_loads.iter().map(|s| s.values()[e]).sum();
            prop_assert_eq!(lsum as usize, n);
            // Jain index well-formed.
            let j = out.metrics.jain.values()[e];
            prop_assert!((0.0..=1.0 + 1e-9).contains(&j));
        }
    }

    #[test]
    fn determinism_across_identical_configs(seed in any::<u64>()) {
        let build = || {
            SimConfig::builder(8, vec![BandwidthSpec::Paper { stay: 0.98 }; 3])
                .seed(seed)
                .churn(ChurnProcess::new(0.3, 0.02))
                .build()
        };
        let out_a = System::new(build()).run(80);
        let out_b = System::new(build()).run(80);
        prop_assert_eq!(out_a.metrics.welfare.values(), out_b.metrics.welfare.values());
        prop_assert_eq!(out_a.final_population, out_b.final_population);
    }

    #[test]
    fn churn_population_never_negative(
        seed in any::<u64>(),
        arrivals in 0.0..3.0f64,
        dep in 0.0..0.3f64,
    ) {
        let config = SimConfig::builder(10, vec![BandwidthSpec::Paper { stay: 0.98 }; 2])
            .churn(ChurnProcess::new(arrivals, dep))
            .seed(seed)
            .build();
        let mut sys = System::new(config);
        let out = sys.run(100);
        for &p in out.metrics.population.values() {
            prop_assert!(p >= 0.0);
        }
    }

    #[test]
    fn multichannel_allocation_never_oversubscribes(
        cap in 100.0..2000.0f64,
        loads in prop::collection::vec(0usize..20, 1..6),
        bitrate in 100.0..600.0f64,
    ) {
        let bitrates = vec![bitrate; loads.len()];
        for policy in [
            AllocationPolicy::EvenSplit,
            AllocationPolicy::LoadProportional,
            AllocationPolicy::WaterFilling,
        ] {
            let serves: Vec<usize> = (0..loads.len()).collect();
            let demands: Vec<Option<f64>> = bitrates.iter().copied().map(Some).collect();
            let mut split = Vec::new();
            allocate(policy, cap, &serves, &loads, &demands, |_, b, _| split.push(b));
            prop_assert_eq!(split.len(), loads.len());
            let total: f64 = split.iter().sum();
            prop_assert!(total <= cap + 1e-6, "{policy:?} oversubscribed");
            prop_assert!(split.iter().all(|&b| b >= -1e-12));
        }
    }

    #[test]
    fn multichannel_system_invariants(
        seed in any::<u64>(),
        k in 2usize..5,
        viewers in 10usize..60,
    ) {
        let mut sys = MultiChannelSystem::new(SimConfig::standard(
            k, 400.0, k + 2, 2, viewers, 1.0, AllocationPolicy::WaterFilling, seed,
        ));
        let out = sys.run(40);
        prop_assert_eq!(out.epochs, 40);
        prop_assert!(out.viewer_fairness > 0.0 && out.viewer_fairness <= 1.0 + 1e-9);
        for &w in out.welfare.values() {
            prop_assert!(w >= 0.0);
            prop_assert!(w <= 400.0 * viewers as f64 + 1e-6);
        }
        for c in out.channel_continuity {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
        }
    }

    #[test]
    fn learner_spec_mu_derivation_positive(
        n in 1usize..300,
        h in 1usize..30,
        demand in prop::option::of(100.0..800.0f64),
    ) {
        let mut builder = SimConfig::builder(n, vec![BandwidthSpec::Paper { stay: 0.98 }; h]);
        if let Some(d) = demand {
            builder = builder.demand(d);
        }
        let config = builder.build();
        prop_assert!(config.rate_scale() > 0.0);
        let learner = LearnerSpec::default().instantiate(h, config.rate_scale());
        prop_assert!(learner.is_ok());
    }
}
