//! Ablation abl-param: sensitivity of convergence to ε (step size),
//! δ (exploration) and μ (normalisation).

use crate::harness::write_csv;
use rths_sim::{BandwidthSpec, LearnerSpec, SimConfig, System};

fn sweep_point(epsilon: f64, delta: f64, mu: Option<f64>) -> (f64, f64, f64) {
    let config = SimConfig::builder(50, vec![BandwidthSpec::Paper { stay: 0.98 }; 5])
        .learner(LearnerSpec { epsilon, delta, mu, ..LearnerSpec::default() })
        .seed(31)
        .build();
    let mut system = System::new(config);
    let out = system.run(4000);
    (
        out.metrics.worst_empirical_regret.tail_mean(400),
        out.metrics.tail_welfare(400),
        out.metrics.switches.tail_mean(400) / 50.0,
    )
}

pub(crate) fn run() -> Result<(), String> {
    println!("Ablation — parameter sensitivity, N=50, H=5 (4000 epochs, tail means)\n");
    println!(
        "{:>8} {:>8} {:>8} | {:>12} {:>12} {:>14}",
        "epsilon", "delta", "mu", "tail regret", "tail welfare", "switch rate"
    );
    let mut rows = Vec::new();

    // One (ε, δ, μ) point per worker; results come back in sweep order.
    let defaults = (0.01f64, 0.1f64);
    let eps_values = [0.002, 0.005, 0.01, 0.05, 0.2];
    let delta_values = [0.02, 0.05, 0.1, 0.2, 0.4];
    let mu_values = [80.0, 160.0, 320.0, 1280.0, 5120.0];
    let mut sweep: Vec<(f64, f64, Option<f64>)> = Vec::new();
    sweep.extend(eps_values.iter().map(|&eps| (eps, defaults.1, None)));
    sweep.extend(delta_values.iter().map(|&delta| (defaults.0, delta, None)));
    sweep.extend(mu_values.iter().map(|&mu| (defaults.0, defaults.1, Some(mu))));
    let results = rths_par::par_map(&sweep, |_, &(eps, delta, mu)| sweep_point(eps, delta, mu));

    for (i, (&(eps, delta, mu), &(r, w, s))) in sweep.iter().zip(&results).enumerate() {
        if i == eps_values.len() || i == eps_values.len() + delta_values.len() {
            println!();
        }
        match mu {
            None => {
                println!("{eps:>8} {delta:>8} {:>8} | {r:>12.2} {w:>12.0} {s:>14.3}", "auto")
            }
            Some(mu) => println!("{eps:>8} {delta:>8} {mu:>8} | {r:>12.2} {w:>12.0} {s:>14.3}"),
        }
        rows.push(vec![eps, delta, mu.unwrap_or(0.0), r, w, s]);
    }

    let path = write_csv(
        "ablation_params",
        &["epsilon", "delta", "mu", "tail_regret", "tail_welfare", "switch_rate"],
        &rows,
    );
    println!("\nreading: small ε lowers the regret floor (estimator noise ~ ε·m/δ) but slows");
    println!("tracking; δ trades exploration overhead for estimator stability; μ must sit");
    println!("within an order of magnitude of the per-peer rate scale (here 320 kbps).");
    println!("csv: {}", path.display());
    Ok(())
}
