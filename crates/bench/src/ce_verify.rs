//! Experiment ce-verify: quantitative check that converged RTHS play on
//! the simulation engine (static helpers, no demand cap) is an
//! approximate correlated equilibrium, compared against the exact CE
//! polytope computed by LP on a small instance. Fails (exit status 1) when
//! the relative residual is not below 0.10.

use crate::harness::write_csv;
use rths_oracle::equilibrium::{
    cce_residual_congestion, ce_residual_congestion, max_welfare_ce,
};
use rths_oracle::HelperSelectionGame;
use rths_sim::{BandwidthSpec, LearnerSpec, SimConfig, System};

pub(crate) fn run() -> Result<(), String> {
    println!("CE verification — 5 peers, 3 helpers [800, 800, 600] kbps\n");
    let caps = vec![800.0, 800.0, 600.0];
    let game = HelperSelectionGame::new(caps.clone()).with_peers(5);

    // Exact best CE (LP over 3^5 = 243 profiles).
    let ce = max_welfare_ce(&game).expect("CE LP solves");
    println!("exact max-welfare CE (LP, 243 profiles): welfare {:.0} kbps", ce.welfare());

    // Learned play, discarding the transient.
    let config =
        SimConfig::builder(5, caps.iter().map(|&c| BandwidthSpec::Constant(c)).collect())
            .learner(LearnerSpec {
                epsilon: 0.01,
                delta: 0.1,
                mu: Some(4.0 * 2200.0 / 5.0),
                ..LearnerSpec::default()
            })
            .seed(17)
            .record_joint_from(2000)
            .build();
    let result = System::new(config).run(10_000);
    let joint = result.joint.expect("a churn-free run records its joint play");

    let report = ce_residual_congestion(&game, &joint);
    let cce = cce_residual_congestion(&game, &joint);
    let learned_welfare = result.metrics.welfare.tail_mean(2000);
    let converged = report.relative_residual() < 0.1;
    println!("\nlearned play over epochs [2000, 10000):");
    println!("  distinct joint profiles observed: {}", joint.support_size());
    println!("  max CE residual:      {:.2} kbps", report.max_residual);
    println!("  max CCE residual:     {:.2} kbps (external regret)", cce.max_residual);
    println!("  mean utility:         {:.1} kbps", report.mean_utility);
    println!("  relative residual:    {:.4}", report.relative_residual());
    println!(
        "  welfare:              {:.0} kbps ({:.1}% of best CE)",
        learned_welfare,
        100.0 * learned_welfare / ce.welfare()
    );
    if let Some((i, j, k)) = report.worst {
        println!("  worst incentive: peer {i} playing helper {j} vs helper {k}");
    }
    println!(
        "\nverdict: play is an ε-CE with ε = {:.1} kbps (relative {:.2}%) — {}",
        report.max_residual,
        100.0 * report.relative_residual(),
        if converged { "converged to the CE set" } else { "NOT converged" }
    );

    let rows = vec![vec![
        report.max_residual,
        report.mean_utility,
        report.relative_residual(),
        learned_welfare,
        ce.welfare(),
    ]];
    let path = write_csv(
        "ce_verify",
        &[
            "max_residual",
            "mean_utility",
            "relative_residual",
            "learned_welfare",
            "best_ce_welfare",
        ],
        &rows,
    );
    println!("csv: {}", path.display());
    if converged {
        Ok(())
    } else {
        Err(format!("relative CE residual {:.4} is not below 0.10", report.relative_residual()))
    }
}
