//! Ablation abl-churn: helper outage/recovery under static and churning
//! populations, with and without the conditional-regret extension.
//!
//! Run with: `cargo run --release -p rths_bench --bin ablation_churn`

use rths_bench::write_csv;
use rths_sim::{BandwidthSpec, LearnerSpec, SimConfig, System};
use rths_stoch::process::ChurnProcess;

struct Row {
    churn: bool,
    conditional: bool,
    healthy: f64,
    outage: f64,
    recovered: f64,
    jain: f64,
}

fn run(churn: bool, conditional: bool) -> Row {
    let churn_process = if churn { ChurnProcess::new(2.0, 0.02) } else { ChurnProcess::none() };
    let config = SimConfig::builder(100, vec![BandwidthSpec::Paper { stay: 0.98 }; 10])
        .churn(churn_process)
        .learner(LearnerSpec { conditional, ..LearnerSpec::default() })
        .seed(77)
        .build();
    let mut system = System::new(config);
    let _ = system.run(2000);
    system.set_helper_online(0, false);
    let _ = system.run(1500);
    system.set_helper_online(0, true);
    let out = system.run(1500);

    let dead = out.metrics.helper_loads[0].values();
    let pop = out.metrics.population.values();
    let share = |lo: usize, hi: usize| {
        rths_math::stats::mean(&dead[lo..hi]) / rths_math::stats::mean(&pop[lo..hi])
    };
    Row {
        churn,
        conditional,
        healthy: share(1700, 2000),
        outage: share(3000, 3500),
        recovered: share(4700, 5000),
        jain: out.metrics.long_run_fairness(),
    }
}

fn main() {
    println!("Ablation — helper 0 outage [2000, 3500) then recovery, N≈100, H=10");
    println!("(share of online peers sitting on helper 0; exploration floor δ/H = 1%)\n");
    println!(
        "{:>6} {:>12} | {:>9} {:>9} {:>10} {:>7}",
        "churn", "conditional", "healthy", "outage", "recovered", "jain"
    );
    let combos = [(false, false), (false, true), (true, false), (true, true)];
    let results =
        rths_par::par_map(&combos, |_, &(churn, conditional)| run(churn, conditional));
    let mut rows = Vec::new();
    for r in results {
        println!(
            "{:>6} {:>12} | {:>8.1}% {:>8.1}% {:>9.1}% {:>7.3}",
            r.churn,
            r.conditional,
            100.0 * r.healthy,
            100.0 * r.outage,
            100.0 * r.recovered,
            r.jain
        );
        rows.push(vec![
            r.churn as u8 as f64,
            r.conditional as u8 as f64,
            r.healthy,
            r.outage,
            r.recovered,
            r.jain,
        ]);
    }
    let path = write_csv(
        "ablation_churn",
        &["churn", "conditional", "healthy_share", "outage_share", "recovered_share", "jain"],
        &rows,
    );
    println!("\nreading: the paper's literal update keeps peers flipping back to a dead");
    println!("helper (rarely-played rows carry frequency-weighted, near-zero proxy");
    println!("regret, yet inertia parks all residual mass on the last-played action);");
    println!("conditional normalisation (DESIGN.md §2) cuts the outage share roughly in");
    println!("half. Churn masks the effect partially because fresh peers start uniform.");
    println!("csv: {}", path.display());
}
