//! Figure 5: "The real server workload against the minimum bandwidth
//! deficit of helpers."
//!
//! N = 10 peers each demanding 400 kbps (total 4000) against 4 helpers
//! whose minimum aggregate bandwidth is 2800 — so at least 1200 kbps must
//! always come from the server. The paper's claim: the real server load
//! stays close to that lower bound, i.e. helpers are utilized nearly
//! fully.

use crate::harness::{mean_series, per_seed, print_series, sample_points, write_csv, SEEDS};
use rths_sim::{Scenario, System};

pub(crate) fn run() -> Result<(), String> {
    let epochs = 5000u64;
    let seeds = &SEEDS[..5];
    println!("Figure 5 — server workload vs minimum bandwidth deficit, {} seeds", seeds.len());

    let runs = per_seed(seeds, |seed| {
        let mut system = System::new(Scenario::paper_server_load().seed(seed).build());
        let out = system.run(epochs);
        (
            out.metrics.server_load.values().to_vec(),
            out.metrics.min_deficit.values().to_vec(),
            out.metrics.current_deficit.values().to_vec(),
        )
    });
    let mut loads = Vec::new();
    let mut min_deficits = Vec::new();
    let mut cur_deficits = Vec::new();
    for (load, min_d, cur_d) in runs {
        loads.push(load);
        min_deficits.push(min_d);
        cur_deficits.push(cur_d);
    }
    let load = mean_series(&loads);
    let min_deficit = mean_series(&min_deficits);
    let cur_deficit = mean_series(&cur_deficits);

    let rows: Vec<Vec<f64>> = (0..load.len())
        .map(|i| vec![i as f64, load[i], min_deficit[i], cur_deficit[i]])
        .collect();
    let path = write_csv(
        "fig5_server_load",
        &["epoch", "server_load", "min_deficit", "current_deficit"],
        &rows,
    );

    print_series("server load (mean over seeds)", ("epoch", "kbps"), &sample_points(&load, 20));
    let tail_load = rths_math::stats::mean(&load[load.len() - 1000..]);
    let bound = min_deficit[0];
    println!("\ntotal demand:                 4000 kbps");
    println!("minimum bandwidth deficit:    {bound:6.0} kbps (= 4000 - 4x700)");
    println!(
        "converged real server load:   {tail_load:6.0} kbps ({:.2}x the bound)",
        tail_load / bound
    );
    println!(
        "paper's shape: real load close to the deficit bound — {}",
        if tail_load < 1.6 * bound { "REPRODUCED" } else { "NOT reproduced" }
    );
    println!("csv: {}", path.display());
    Ok(())
}
