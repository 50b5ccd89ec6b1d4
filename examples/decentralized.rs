//! The fully distributed deployment: every peer and every helper is an
//! actor of its own on the event-loop runtime (the default backend), and
//! the only communication is message passing — bootstrap via a tracker,
//! per-epoch requests and rate replies. An impairment plan injects
//! data-plane loss, and the runtime's delivery jitter delays messages
//! (seeded delays through the timer wheel).
//!
//! A fault-free run reproduces the monolithic simulator bit-for-bit —
//! checked live at the end.
//!
//! Run with: `cargo run --release --example decentralized`

use rths_suite::prelude::*;
use rths_suite::sparkline;

fn main() {
    let epochs = 800;
    let sim_config = Scenario::paper_small().seed(3).build();

    println!("10 peer actors + 4 helper actors + tracker + coordinator…\n");
    let config = || NetConfig::from_sim(sim_config.clone());
    let clean = rths_suite::net::run(config(), epochs);
    println!("clean run      welfare {}", sparkline(clean.metrics.welfare.values(), 56));

    let lossy_plan = ImpairmentPlan::builder(77).uniform_loss(0.2).build().unwrap();
    let lossy_sim = SimConfig { impairment: lossy_plan, ..sim_config.clone() };
    let lossy_config = NetConfig::from_sim(lossy_sim).with_delivery_jitter(50);
    let lossy = rths_suite::net::run(lossy_config, epochs);
    println!("20% loss+jitter welfare {}", sparkline(lossy.metrics.welfare.values(), 56));

    println!(
        "\nconverged welfare: clean {:.0} kbps, lossy {:.0} kbps",
        clean.metrics.tail_welfare(200),
        lossy.metrics.tail_welfare(200),
    );
    println!(
        "worst-peer empirical regret: clean {:.1}, lossy {:.1}",
        clean.metrics.worst_empirical_regret.tail_mean(200),
        lossy.metrics.worst_empirical_regret.tail_mean(200),
    );

    // Live cross-check against the monolithic simulator.
    let mut reference = System::new(sim_config);
    let sim_out = reference.run(epochs);
    let identical = sim_out
        .metrics
        .welfare
        .values()
        .iter()
        .zip(clean.metrics.welfare.values())
        .all(|(a, b)| a == b);
    println!(
        "\nmessage-passing runtime vs simulator, same seed: {}",
        if identical { "bit-for-bit IDENTICAL" } else { "DIVERGED (bug!)" }
    );
    assert!(identical);
}
