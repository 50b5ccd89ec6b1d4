//! Figure 2: RTHS vs the centralized MDP benchmark (N = 10, |H| = 4).
//!
//! The paper: "RTHS algorithm converges to the near-the-optimal solution
//! for the dynamic helper selection game." We plot per-epoch social
//! welfare (smoothed) against the exact occupation-measure optimum
//! `Σ_y π(y)·W*(y)` computed by `rths_oracle::MdpBenchmark`.

use crate::harness::{mean_series, per_seed, print_series, sample_points, write_csv, SEEDS};
use rths_oracle::MdpBenchmark;
use rths_sim::{Scenario, System};

pub(crate) fn run() -> Result<(), String> {
    let epochs = 6000u64;
    let seeds = &SEEDS[..5];
    println!("Figure 2 — RTHS vs centralized MDP, N=10, H=4, {} seeds", seeds.len());

    // Exact benchmark: every helper follows the paper's chain, so the
    // optimum is Σ_j E[C_j] = 4 × 800 = 3200.
    let bench = MdpBenchmark::paper(4, 10, None);
    let optimum = bench.optimal_welfare();

    let runs = per_seed(seeds, |seed| {
        let mut system = System::new(Scenario::paper_small().seed(seed).build());
        system.run(epochs).metrics.welfare.values().to_vec()
    });
    let welfare = mean_series(&runs);
    // 100-epoch moving average for the plot (the paper plots smoothed
    // utility curves).
    let smooth: Vec<f64> = welfare
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let lo = i.saturating_sub(99);
            rths_math::stats::mean(&welfare[lo..=i])
        })
        .collect();

    let rows: Vec<Vec<f64>> =
        smooth.iter().enumerate().map(|(i, &w)| vec![i as f64, w, optimum]).collect();
    let path =
        write_csv("fig2_welfare_vs_mdp", &["epoch", "rths_welfare", "mdp_optimum"], &rows);

    print_series(
        "social welfare, 100-epoch moving average (mean over seeds)",
        ("epoch", "welfare (kbps)"),
        &sample_points(&smooth, 24),
    );
    let converged = rths_math::stats::mean(&smooth[smooth.len() - 1000..]);
    println!("\nMDP optimum:        {optimum:8.0} kbps");
    println!(
        "RTHS converged:     {converged:8.0} kbps  ({:.1}% of optimum)",
        100.0 * converged / optimum
    );
    println!(
        "paper's shape: near-optimal convergence — {}",
        if converged > 0.9 * optimum { "REPRODUCED" } else { "NOT reproduced" }
    );
    println!("csv: {}", path.display());
    Ok(())
}
