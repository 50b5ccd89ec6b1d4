//! Quickstart: the paper's small-scale scenario in ~30 lines.
//!
//! Ten peers select among four helpers whose upload bandwidth wanders
//! over `[700, 800, 900]` kbps. Every peer runs RTHS with nothing but its
//! own realized streaming rate; we watch the worst peer's regret fall and
//! compare the social welfare against the centralized MDP optimum.
//!
//! Run with: `cargo run --release --example quickstart`

use rths_suite::prelude::*;
use rths_suite::sparkline;

fn main() {
    let config = Scenario::paper_small().seed(7).build();
    let mut system = System::new(config);
    let outcome = system.run(5000);

    // Centralized benchmark (§IV.A): expected optimum is Σ_j E[C_j].
    let bench = MdpBenchmark::paper(4, 10, None);
    let optimum = bench.optimal_welfare();

    let regret = &outcome.metrics.worst_empirical_regret;
    let welfare = &outcome.metrics.welfare;
    println!("RTHS on the paper's N=10, H=4 scenario (5000 epochs)\n");
    println!("worst-peer regret  {}", sparkline(regret.values(), 60));
    println!(
        "                   start {:8.1} -> end {:8.1} kbps",
        regret.values()[10],
        regret.tail_mean(200)
    );
    println!("social welfare     {}", sparkline(welfare.values(), 60));
    println!(
        "                   converged {:6.0} kbps vs MDP optimum {:6.0} kbps ({:.1}%)",
        welfare.tail_mean(500),
        optimum,
        100.0 * welfare.tail_mean(500) / optimum
    );
    println!("\nhelper load (mean peers per helper, target 2.5 each):");
    for (j, load) in outcome.metrics.mean_helper_loads.iter().enumerate() {
        println!("  helper {j}: {load:5.2}  {}", "#".repeat((load * 8.0) as usize));
    }
    println!("\nper-peer mean rates (fair share 320 kbps):");
    for (i, rate) in outcome.metrics.mean_peer_rates.iter().enumerate() {
        println!("  peer {i}: {rate:6.1} kbps");
    }
    println!(
        "\nJain fairness index of long-run rates: {:.4}",
        outcome.metrics.long_run_fairness()
    );
}
