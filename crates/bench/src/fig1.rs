//! Figure 1: evolution of the regret value of the worst player in a
//! large-scale scenario (N = 200 peers, |H| = 20 helpers).
//!
//! The paper: "the regret value approaches to the zero, when the
//! algorithm converges". We plot the worst peer's time-averaged true
//! regret (the quantity Hart & Mas-Colell's theorem controls), averaged
//! over 5 seeds, plus the learners' internal estimates for reference.

use crate::harness::{mean_series, per_seed, print_series, sample_points, write_csv, SEEDS};
use rths_sim::{Scenario, System};

pub(crate) fn run() -> Result<(), String> {
    let epochs = 3000u64;
    let seeds = &SEEDS[..5];
    println!(
        "Figure 1 — worst-player regret, N=200, H=20, levels [700,800,900], {} seeds",
        seeds.len()
    );

    let runs = per_seed(seeds, |seed| {
        let mut system = System::new(Scenario::paper_large().seed(seed).build());
        let out = system.run(epochs);
        (
            out.metrics.worst_empirical_regret.values().to_vec(),
            out.metrics.worst_regret_estimate.values().to_vec(),
            out.metrics.worst_empirical_regret.tail_mean(200),
        )
    });
    let mut empirical = Vec::new();
    let mut estimates = Vec::new();
    for (&seed, (emp, est, tail)) in seeds.iter().zip(runs) {
        println!("  seed {seed:>4}: start {:8.2} kbps -> end {tail:6.2} kbps", emp[10]);
        empirical.push(emp);
        estimates.push(est);
    }
    let mean_emp = mean_series(&empirical);
    let mean_est = mean_series(&estimates);

    let rows: Vec<Vec<f64>> = mean_emp
        .iter()
        .zip(&mean_est)
        .enumerate()
        .map(|(i, (&e, &q))| vec![i as f64, e, q])
        .collect();
    let path =
        write_csv("fig1_worst_regret", &["epoch", "empirical_regret", "estimate"], &rows);

    print_series(
        "worst-player empirical regret (mean over seeds)",
        ("epoch", "regret (kbps)"),
        &sample_points(&mean_emp, 24),
    );

    let early = rths_math::stats::mean(&mean_emp[20..120]);
    let late = rths_math::stats::mean(&mean_emp[mean_emp.len() - 300..]);
    println!(
        "\nsummary: early {early:.2} kbps -> late {late:.2} kbps ({:.1}x reduction)",
        early / late
    );
    println!(
        "paper's shape: regret decays toward zero — {}",
        if late < 0.35 * early { "REPRODUCED" } else { "NOT reproduced" }
    );
    println!("csv: {}", path.display());
    Ok(())
}
