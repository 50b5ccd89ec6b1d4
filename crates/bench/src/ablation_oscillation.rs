//! Ablation abl-osc: the §III.B oscillation counter-example.
//!
//! "Assume that in the first iteration, all peers are connected to the
//! helper h1. … all peers switch to the helper h2. But this simultaneous
//! switching makes the helper h2 over-loaded and all peers will switch
//! back … frequent interruption in the streaming flow." We reproduce the
//! flapping under synchronous best response and show RTHS peers on the
//! simulation engine converging to a stable split on the same instance.

use crate::harness::write_csv;
use rths_oracle::{best_response, HelperSelectionGame};
use rths_sim::{BandwidthSpec, LearnerSpec, SimConfig, System};

pub(crate) fn run() -> Result<(), String> {
    let n = 20usize;
    let caps = vec![800.0, 800.0];
    let stages = 3000usize;
    println!(
        "Ablation — §III.B oscillation: {n} peers, two 800 kbps helpers, all start on h1\n"
    );

    // Myopic synchronous best response.
    let game = HelperSelectionGame::new(caps.clone());
    let trace = best_response::synchronous(&game, &vec![0usize; n], stages);
    let br_rate = trace.total_switches() as f64 / (n * trace.switches.len()) as f64;

    // RTHS on the same instance.
    let config =
        SimConfig::builder(n, caps.iter().map(|&c| BandwidthSpec::Constant(c)).collect())
            .learner(LearnerSpec {
                epsilon: 0.01,
                delta: 0.1,
                mu: Some(4.0 * 80.0),
                ..LearnerSpec::default()
            })
            .seed(5)
            .build();
    let result = System::new(config).run(stages as u64);
    let switch_series = result.metrics.switches.values();

    let rows: Vec<Vec<f64>> = (0..stages)
        .map(|i| {
            let br = if trace.converged { 0.0 } else { n as f64 };
            vec![i as f64, br, switch_series.get(i).copied().unwrap_or(0.0)]
        })
        .collect();
    let path = write_csv(
        "ablation_oscillation",
        &["stage", "best_response_switches", "rths_switches"],
        &rows,
    );

    println!("synchronous best response:");
    println!("  converged: {}", trace.converged);
    println!("  switches per peer per stage: {br_rate:.3} (1.0 = everyone flaps every stage)");
    println!("  first profiles: all-h1 -> all-h2 -> all-h1 -> … (period-2 herd)");

    let early = rths_math::stats::mean(&switch_series[..200]) / n as f64;
    let late = result.metrics.switches.tail_mean(500) / n as f64;
    println!("\nRTHS:");
    println!("  switches per peer per stage: early {early:.3} -> converged {late:.3}");
    println!("  final mean loads: {:?} (stable near 10/10)", result.metrics.mean_helper_loads);
    println!("\ninterruption ratio BR/RTHS at convergence: {:.0}x", br_rate / late.max(1e-6));
    println!("csv: {}", path.display());
    Ok(())
}
