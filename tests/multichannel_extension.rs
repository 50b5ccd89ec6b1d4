//! Tests of the multi-channel future-work extension.

use rths_sim::{AllocationPolicy, MultiChannelSystem, SimConfig};

/// A *provisioned* instance: 24 viewers × 300 kbps = 7200 kbps demand
/// against 12 helpers × ~800 kbps ≈ 9600 kbps supply, so full continuity
/// is achievable and continuity assertions are meaningful.
fn standard(alloc: AllocationPolicy, seed: u64) -> MultiChannelSystem {
    MultiChannelSystem::new(SimConfig::standard(4, 300.0, 12, 2, 24, 1.0, alloc, seed))
}

/// Allocation-policy ordering: water-filling ≥ load-proportional ≥
/// even-split in delivered welfare (demand-aware beats demand-blind).
#[test]
fn allocation_policy_ordering() {
    let mut results = Vec::new();
    for policy in [
        AllocationPolicy::EvenSplit,
        AllocationPolicy::LoadProportional,
        AllocationPolicy::WaterFilling,
    ] {
        let mut sys =
            MultiChannelSystem::new(SimConfig::standard(4, 400.0, 8, 2, 80, 1.5, policy, 31));
        let out = sys.run(2000);
        results.push((policy, out.welfare.tail_mean(400)));
    }
    let even = results[0].1;
    let load = results[1].1;
    let wf = results[2].1;
    assert!(load >= even * 0.98, "load-prop {load:.0} worse than even {even:.0}");
    assert!(wf >= load * 0.99, "water-filling {wf:.0} worse than load-prop {load:.0}");
    assert!(wf > even * 1.02, "water-filling shows no gain over even split");
}

/// Viewer regret decays in the multi-channel system too — RTHS composes
/// with per-channel action sets.
#[test]
fn multichannel_regret_decays() {
    let mut sys = standard(AllocationPolicy::WaterFilling, 32);
    let out = sys.run(2500);
    let series = out.worst_empirical_regret;
    let early = rths_math::stats::mean(&series.values()[20..120]);
    let late = series.tail_mean(300);
    assert!(late < early * 0.5, "no decay: early {early:.1}, late {late:.1}");
}

/// Popularity shift: the system tracks the audience as it migrates
/// between channels, keeping continuity high on the destination channel.
#[test]
fn popularity_shift_is_tracked() {
    let mut sys = standard(AllocationPolicy::WaterFilling, 33);
    let pre = sys.run(1200);
    let pre_ch3 = pre.mean_channel_rates[3];
    sys.migrate_viewers(0, 3, 6);
    sys.migrate_viewers(1, 3, 3);
    let out = sys.run(2400);
    assert_eq!(out.epochs, 3600);
    // mean_channel_rates are cumulative time averages; recover the
    // post-shift average from the two snapshots.
    let post_ch3 = (out.mean_channel_rates[3] * 3600.0 - pre_ch3 * 1200.0) / 2400.0;
    // The audience of channel 3 grew from 2 to 11 viewers; its delivered
    // aggregate rate must follow (allocation + helper selection adapt).
    assert!(
        post_ch3 > 2.5 * pre_ch3,
        "delivery did not follow the audience: pre {pre_ch3:.0} -> post {post_ch3:.0}"
    );
    // The destination channel is genuinely served, not trickle-fed.
    assert!(
        out.channel_continuity[3] > 0.25,
        "destination channel starved: continuity {:.2}",
        out.channel_continuity[3]
    );
    // Fairness across all viewers remains reasonable.
    assert!(out.viewer_fairness > 0.6, "fairness {:.2}", out.viewer_fairness);
}

/// Zipf populations put the most viewers on channel 0 and the system
/// still serves tail channels (no starvation of unpopular content).
#[test]
fn unpopular_channels_not_starved() {
    let mut sys = standard(AllocationPolicy::WaterFilling, 34);
    let out = sys.run(2000);
    for (c, &cont) in out.channel_continuity.iter().enumerate() {
        assert!(cont > 0.3, "channel {c} starved: continuity {cont:.2}");
    }
    // The most popular channel receives the largest aggregate rate.
    let r = &out.mean_channel_rates;
    assert!(r[0] >= r[3], "popular channel outdelivered by tail channel: {r:?}");
}

/// The claim the one-engine design rests on: a single channel is the
/// K = 1 configuration of the multi-channel system. With one channel the
/// demand-blind policies hand a helper's whole capacity to it (`cap / 1`),
/// so the K = 1 deployment and the demand-capped single-channel
/// `SimConfig` must produce the same trajectory to the bit — both
/// constructors feed the same epoch pipeline, and this guards against
/// them drifting apart. Under the even split the two are one
/// configuration, as a value.
#[test]
fn k1_multichannel_is_the_single_channel_system() {
    use rths_sim::{BandwidthSpec, System};
    let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let config = SimConfig::builder(30, vec![BandwidthSpec::Paper { stay: 0.98 }; 6])
        .demand(400.0)
        .seed(42)
        .build();
    assert_eq!(
        SimConfig::standard(1, 400.0, 6, 1, 30, 1.0, AllocationPolicy::EvenSplit, 42),
        config
    );
    let single = System::new(config).run(300);
    for policy in [AllocationPolicy::EvenSplit, AllocationPolicy::LoadProportional] {
        let multi =
            MultiChannelSystem::new(SimConfig::standard(1, 400.0, 6, 1, 30, 1.0, policy, 42))
                .run(300);
        assert_eq!(
            bits(multi.welfare.values()),
            bits(single.metrics.welfare.values()),
            "{policy:?}: welfare"
        );
        assert_eq!(
            bits(multi.server_load.values()),
            bits(single.metrics.server_load.values()),
            "{policy:?}: server load"
        );
        assert_eq!(
            bits(multi.worst_empirical_regret.values()),
            bits(single.metrics.worst_empirical_regret.values()),
            "{policy:?}: worst empirical regret"
        );
    }
}
