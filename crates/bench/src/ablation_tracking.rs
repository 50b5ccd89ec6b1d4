//! Ablation abl-track: regret *tracking* vs regret *matching* under a
//! mid-run capacity collapse (the design choice §II motivates).

use crate::harness::write_csv;
use rths_sim::{Algorithm, LearnerSpec, Scenario, System};

fn degraded_series(out: &rths_sim::Outcome) -> Vec<f64> {
    (0..out.metrics.epochs())
        .map(|e| [0usize, 2, 4].iter().map(|&j| out.metrics.helper_loads[j].values()[e]).sum())
        .collect()
}

pub(crate) fn run() -> Result<(), String> {
    let shift = 3000u64;
    let epochs = 6000u64;
    println!("Ablation — tracking vs matching; helpers 0/2/4 drop 900->100 kbps at {shift}");

    let run = |alg: Algorithm| {
        let config = Scenario::regime_shift(shift)
            .learner(LearnerSpec { algorithm: alg, ..LearnerSpec::default() })
            .seed(42)
            .build();
        System::new(config).run(epochs)
    };
    let algorithms = [Algorithm::Rths, Algorithm::RegretMatching, Algorithm::Exp3];
    let mut outs = rths_par::par_map(&algorithms, |_, &alg| run(alg)).into_iter();
    let (tracking, matching, exp3) =
        (outs.next().unwrap(), outs.next().unwrap(), outs.next().unwrap());
    let t = degraded_series(&tracking);
    let m = degraded_series(&matching);
    let x = degraded_series(&exp3);

    let rows: Vec<Vec<f64>> = (0..t.len()).map(|i| vec![i as f64, t[i], m[i], x[i]]).collect();
    let path = write_csv(
        "ablation_tracking",
        &["epoch", "tracking_degraded_load", "matching_degraded_load", "exp3_degraded_load"],
        &rows,
    );

    let s = shift as usize;
    let mean = |v: &[f64], lo: usize, hi: usize| rths_math::stats::mean(&v[lo..hi]);
    println!("\nload on degraded helpers (out of 60 peers):");
    println!("{:>22} {:>10} {:>10} {:>10}", "", "tracking", "matching", "exp3");
    for (label, lo, hi) in [
        ("pre-shift", s - 300, s),
        ("+300 epochs", s + 200, s + 400),
        ("+1000 epochs", s + 900, s + 1100),
        ("+3000 epochs (end)", epochs as usize - 300, epochs as usize),
    ] {
        println!(
            "{label:>22} {:>10.1} {:>10.1} {:>10.1}",
            mean(&t, lo, hi),
            mean(&m, lo, hi),
            mean(&x, lo, hi)
        );
    }
    let evac_t = mean(&t, s - 300, s) - mean(&t, s + 200, s + 400);
    let evac_m = mean(&m, s - 300, s) - mean(&m, s + 200, s + 400);
    println!("\npeers evacuated within 300 epochs: tracking {evac_t:.1}, matching {evac_m:.1} ({:.1}x)", evac_t / evac_m.max(0.1));
    println!("csv: {}", path.display());
    Ok(())
}
