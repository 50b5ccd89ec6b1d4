//! Figure 4: "The upload bandwidth of helpers is evenly distributed
//! among peers" (N = 10, |H| = 4).
//!
//! We report each peer's lifetime mean received rate and Jain's fairness
//! index over those rates.

use crate::harness::{per_seed, write_csv, SEEDS};
use rths_sim::{Scenario, System};

pub(crate) fn run() -> Result<(), String> {
    let epochs = 5000u64;
    let seeds = &SEEDS[..10];
    println!("Figure 4 — per-peer bandwidth shares, N=10, H=4, {} seeds", seeds.len());

    let n = 10usize;
    let runs = per_seed(seeds, |seed| {
        let mut system = System::new(Scenario::paper_small().seed(seed).build());
        let out = system.run(epochs);
        (out.metrics.mean_peer_rates.clone(), out.metrics.long_run_fairness())
    });
    let mut per_peer: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut jains = Vec::new();
    for (rates, jain) in runs {
        for (i, &rate) in rates.iter().enumerate() {
            per_peer[i].push(rate);
        }
        jains.push(jain);
    }

    println!("\n{:>6} {:>12} {:>8} (fair share: 320 kbps)", "peer", "mean rate", "std");
    let mut rows = Vec::new();
    for (i, rates) in per_peer.iter().enumerate() {
        let mean = rths_math::stats::mean(rates);
        let std = rths_math::stats::std_dev(rates);
        println!("{i:>6} {mean:>12.1} {std:>8.1}");
        rows.push(vec![i as f64, mean, std]);
    }
    let path = write_csv("fig4_peer_rates", &["peer", "mean_rate_kbps", "std"], &rows);

    let jain = rths_math::stats::mean(&jains);
    println!("\nJain fairness index of long-run rates: {jain:.4} (1 = perfectly fair)");
    println!(
        "paper's shape: near-equal shares from the helper pool — {}",
        if jain > 0.95 { "REPRODUCED" } else { "NOT reproduced" }
    );
    println!("csv: {}", path.display());
    Ok(())
}
