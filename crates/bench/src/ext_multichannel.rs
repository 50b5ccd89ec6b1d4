//! Extension ext-mc: the multi-channel system — helper-level bandwidth
//! allocation policies × peer-level helper selection.

use crate::harness::write_csv;
use rths_sim::{AllocationPolicy, MultiChannelSystem, SimConfig};

pub(crate) fn run() -> Result<(), String> {
    println!("Extension — multi-channel joint allocation: K=4 channels (Zipf 1.5),");
    println!("12 helpers x 2 channels, 240 viewers at 400 kbps, 2500 epochs\n");
    println!(
        "{:<22} {:>11} {:>11} {:>10} {:>9}",
        "allocation policy", "delivered", "server", "fairness", "regret"
    );
    let policies = [
        ("even split", AllocationPolicy::EvenSplit),
        ("load proportional", AllocationPolicy::LoadProportional),
        ("water filling", AllocationPolicy::WaterFilling),
    ];
    // One allocation policy per worker.
    let outs = rths_par::par_map(&policies, |_, &(_, policy)| {
        let config = SimConfig::standard(4, 400.0, 12, 2, 240, 1.5, policy, 13);
        let mut system = MultiChannelSystem::new(config);
        system.run(2500)
    });
    let mut rows = Vec::new();
    for (idx, ((name, _), out)) in policies.iter().zip(&outs).enumerate() {
        let delivered = out.welfare.tail_mean(400);
        let server = out.server_load.tail_mean(400);
        let regret = out.worst_empirical_regret.tail_mean(400);
        println!(
            "{name:<22} {delivered:>9.0}k {server:>9.0}k {:>10.3} {regret:>9.1}",
            out.viewer_fairness
        );
        rows.push(vec![idx as f64, delivered, server, out.viewer_fairness, regret]);
    }
    let path = write_csv(
        "ext_multichannel",
        &["policy", "delivered", "server_load", "fairness", "regret"],
        &rows,
    );

    println!("\nper-channel view under water filling:");
    let config =
        SimConfig::standard(4, 400.0, 12, 2, 240, 1.5, AllocationPolicy::WaterFilling, 13);
    let viewers = config.viewers.clone();
    let mut system = MultiChannelSystem::new(config);
    let out = system.run(2500);
    println!("{:>9} {:>9} {:>12} {:>11}", "channel", "viewers", "delivered", "continuity");
    for (c, &v) in viewers.iter().enumerate() {
        println!(
            "{c:>9} {v:>9} {:>10.0}k {:>11.2}",
            out.mean_channel_rates[c], out.channel_continuity[c]
        );
    }
    println!("csv: {}", path.display());
    Ok(())
}
