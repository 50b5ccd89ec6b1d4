//! A flash crowd hits a live channel: the audience surges 10×, helper
//! capacity saturates, the streaming server absorbs the deficit, and the
//! system drains back to normal when the event ends — all while every
//! peer keeps selecting helpers with only local feedback.
//!
//! Run with: `cargo run --release --example flash_crowd`

use rths_stoch::process::ChurnProcess;
use rths_stoch::rng::seeded_rng;
use rths_suite::prelude::*;
use rths_suite::sparkline;

fn main() {
    let config = SimConfig::builder(40, vec![BandwidthSpec::Paper { stay: 0.98 }; 8])
        .churn(ChurnProcess::new(0.8, 0.02))
        .demand(300.0)
        .seed(9)
        .build();
    let mut system = System::new(config);

    println!("flash crowd: arrivals x10 during epochs [1000, 1600)\n");
    // The phase draws nothing from its RNG argument: only channel surfing does.
    WorkloadPhase::FlashCrowd { epochs: 3000, start: 1000, end: 1600, surge: 10.0 }.run(
        &mut system,
        0.0,
        &mut seeded_rng(0),
    );
    let outcome = system.outcome();

    let m = &outcome.metrics;
    println!("population   {}", sparkline(m.population.values(), 66));
    println!("server load  {}", sparkline(m.server_load.values(), 66));
    println!("welfare      {}", sparkline(m.welfare.values(), 66));
    println!("jain index   {}", sparkline(m.jain.values(), 66));

    let phase = |label: &str, range: std::ops::Range<usize>| {
        let pop = rths_math::stats::mean(&m.population.values()[range.clone()]);
        let load = rths_math::stats::mean(&m.server_load.values()[range.clone()]);
        let welfare = rths_math::stats::mean(&m.welfare.values()[range]);
        println!("{label:<12} population {pop:6.0}   server load {load:8.0} kbps   delivered {welfare:8.0} kbps");
    };
    println!();
    phase("before", 800..1000);
    phase("during", 1300..1600);
    phase("after", 2800..3000);

    println!(
        "\nhelpers cushioned the surge: the server covered only the residual demand\n\
         (total demand during the crowd was ~{:.0} kbps).",
        rths_math::stats::mean(&m.population.values()[1300..1600]) * 300.0
    );
}
