//! Runs every figure/ablation binary and the CE check (`ce_verify`), each
//! as a child process, and writes all CSVs — the one-shot reproduction
//! entry point. Exits with status 1 if any of them fails.
//!
//! Run with: `cargo run --release -p rths_bench --bin all_figures`

use std::process::Command;

const TARGETS: [&str; 12] = [
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
    "ce_verify",
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
    if failures.is_empty() {
        println!("\nall figure harnesses completed; CSVs in ./results/");
    } else {
        eprintln!("\nfailures: {failures:?}");
        std::process::exit(1);
    }
}
