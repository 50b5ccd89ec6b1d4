//! Figure 3: "The RTHS algorithm evenly distribute loads on the
//! helpers" (N = 10, |H| = 4).
//!
//! We report the time-averaged number of peers per helper (with the
//! across-seed spread) and the load-balance coefficient of variation.

use crate::harness::{per_seed, write_csv, SEEDS};
use rths_sim::{Scenario, System};

pub(crate) fn run() -> Result<(), String> {
    let epochs = 5000u64;
    let seeds = &SEEDS[..10];
    println!("Figure 3 — load distribution on helpers, N=10, H=4, {} seeds", seeds.len());

    let h = 4usize;
    let runs = per_seed(seeds, |seed| {
        let mut system = System::new(Scenario::paper_small().seed(seed).build());
        let out = system.run(epochs);
        (out.metrics.mean_helper_loads.clone(), out.metrics.load_balance_cv())
    });
    let mut per_helper: Vec<Vec<f64>> = vec![Vec::new(); h];
    let mut cvs = Vec::new();
    for (loads, cv) in runs {
        for (j, &load) in loads.iter().enumerate() {
            per_helper[j].push(load);
        }
        cvs.push(cv);
    }

    println!("\n{:>8} {:>12} {:>8} (target: N/H = 2.5 each)", "helper", "mean load", "std");
    let mut rows = Vec::new();
    for (j, loads) in per_helper.iter().enumerate() {
        let mean = rths_math::stats::mean(loads);
        let std = rths_math::stats::std_dev(loads);
        println!("{j:>8} {mean:>12.3} {std:>8.3}");
        rows.push(vec![j as f64, mean, std]);
    }
    let path = write_csv("fig3_helper_loads", &["helper", "mean_load", "std"], &rows);

    let mean_cv = rths_math::stats::mean(&cvs);
    println!("\nload-balance coefficient of variation: {mean_cv:.4} (0 = perfectly even)");
    println!(
        "paper's shape: loads evenly distributed — {}",
        if mean_cv < 0.1 { "REPRODUCED" } else { "NOT reproduced" }
    );
    println!("csv: {}", path.display());
    Ok(())
}
