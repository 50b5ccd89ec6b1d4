//! Runs every figure/ablation binary's workload in-process and writes all
//! CSVs — the one-shot reproduction entry point.
//!
//! Run with: `cargo run --release -p rths_bench --bin all_figures`

use std::process::Command;

const TARGETS: [&str; 11] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "ablation_tracking",
    "ablation_oscillation",
    "ablation_params",
    "ablation_churn",
    "ablation_qoe",
    "ext_multichannel",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let bin_dir = exe.parent().expect("bin dir");
    println!("reproducing all figures into ./results/ …\n");
    let mut failures = Vec::new();
    for target in TARGETS {
        println!("==================== {target} ====================");
        let path = bin_dir.join(target);
        let status = if path.exists() {
            Command::new(&path).status()
        } else {
            // Fallback: go through cargo when run via `cargo run`.
            Command::new("cargo")
                .args(["run", "--release", "-p", "rths_bench", "--bin", target])
                .status()
        };
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => failures.push(format!("{target}: exit {s}")),
            Err(e) => failures.push(format!("{target}: {e}")),
        }
        println!();
    }
    println!("==================== ce_verify ====================");
    let path = bin_dir.join("ce_verify");
    let status = if path.exists() {
        Command::new(&path).status()
    } else {
        Command::new("cargo")
            .args(["run", "--release", "-p", "rths_bench", "--bin", "ce_verify"])
            .status()
    };
    if !matches!(status, Ok(s) if s.success()) {
        failures.push("ce_verify failed".into());
    }

    if failures.is_empty() {
        println!("\nall figure harnesses completed; CSVs in ./results/");
    } else {
        eprintln!("\nfailures: {failures:?}");
        std::process::exit(1);
    }
}
