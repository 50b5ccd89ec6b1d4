//! `rths_bench` regenerates the paper's evaluation (arXiv:1406.2479, §IV).
//! Each figure, ablation and the CE check is one subcommand: it prints the
//! series the figure plots and writes a CSV under `results/` (override
//! with `RTHS_RESULTS_DIR`).
//!
//! ```sh
//! cargo run --release -p rths_bench -- fig2   # one figure
//! cargo run --release -p rths_bench -- all    # every figure and the CE check
//! cargo run --release -p rths_bench -- run_scenario scenarios/diurnal.toml
//! ```
//!
//! A figure that fails exits 1; `all` runs every figure in this process,
//! records each error or panic, and exits 1 at the end if any failed. An
//! unknown name prints the usage and exits 2.

#![forbid(unsafe_code)]

mod ablation_churn;
mod ablation_oscillation;
mod ablation_params;
mod ablation_qoe;
mod ablation_tracking;
mod ce_verify;
mod ext_multichannel;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod harness;
mod run_scenario;

/// A subcommand's name and the figure it runs.
type Figure = (&'static str, fn() -> Result<(), String>);

/// Every subcommand, in the order `all` runs them.
const FIGURES: [Figure; 13] = [
    ("fig1", fig1::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("ablation_tracking", ablation_tracking::run),
    ("ablation_oscillation", ablation_oscillation::run),
    ("ablation_params", ablation_params::run),
    ("ablation_churn", ablation_churn::run),
    ("ablation_qoe", ablation_qoe::run),
    ("ext_multichannel", ext_multichannel::run),
    ("ce_verify", ce_verify::run),
    ("run_scenario", run_scenario::run),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    std::process::exit(dispatch(&name, &FIGURES));
}

/// Runs the subcommand `name` and returns the process's exit status.
fn dispatch(name: &str, figures: &[Figure]) -> i32 {
    if name == "all" {
        println!("reproducing all figures into ./results/ …\n");
        let failures = run_all(figures);
        if failures.is_empty() {
            println!("\nall figure harnesses completed; CSVs in ./results/");
            return 0;
        }
        eprintln!("\nfailures: {failures:?}");
        return 1;
    }
    let Some((_, run)) = figures.iter().find(|(figure, _)| *figure == name) else {
        eprintln!("{}", usage(figures));
        return 2;
    };
    match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{name}: {e}");
            1
        }
    }
}

/// One line naming every subcommand.
fn usage(figures: &[Figure]) -> String {
    let names: Vec<&str> = figures.iter().map(|(name, _)| *name).collect();
    format!("usage: rths_bench <{}|all> [args]", names.join("|"))
}

/// What `all` runs: every figure but `run_scenario`, which needs spec files.
fn all_figures(figures: &[Figure]) -> impl Iterator<Item = &Figure> {
    figures.iter().filter(|(name, _)| *name != "run_scenario")
}

/// Runs `all`'s figures one after another, past any that fails, and
/// returns one line per failure: an `Err` or a panic.
fn run_all(figures: &[Figure]) -> Vec<String> {
    let mut failures = Vec::new();
    for &(name, run) in all_figures(figures) {
        println!("==================== {name} ====================");
        match std::panic::catch_unwind(run) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push(format!("{name}: {e}")),
            Err(_) => failures.push(format!("{name}: panicked")),
        }
        println!();
    }
    failures
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    #[test]
    fn figure_names_are_unique() {
        let mut names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        names.push("all");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len() + 1);
    }

    #[test]
    fn all_runs_every_figure_but_run_scenario_in_order() {
        let names: Vec<&str> = all_figures(&FIGURES).map(|(name, _)| *name).collect();
        let expected = "fig1 fig2 fig3 fig4 fig5 ablation_tracking ablation_oscillation \
                        ablation_params ablation_churn ablation_qoe ext_multichannel ce_verify";
        assert_eq!(names, expected.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn unknown_name_prints_usage_and_exits_2() {
        assert_eq!(dispatch("fig6", &FIGURES), 2);
        assert_eq!(dispatch("", &FIGURES), 2);
        let usage = usage(&FIGURES);
        assert!(FIGURES.iter().all(|(name, _)| usage.contains(name)), "{usage}");
    }

    #[test]
    fn all_records_errors_and_panics_and_runs_on() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        fn fails() -> Result<(), String> {
            RUNS.fetch_add(1, Ordering::Relaxed);
            Err("no CE".to_string())
        }
        fn panics() -> Result<(), String> {
            RUNS.fetch_add(1, Ordering::Relaxed);
            panic!("stub figure panics on purpose")
        }
        fn passes() -> Result<(), String> {
            RUNS.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        let stubs: [Figure; 3] = [("fails", fails), ("panics", panics), ("passes", passes)];
        assert_eq!(run_all(&stubs), ["fails: no CE", "panics: panicked"]);
        assert_eq!(RUNS.load(Ordering::Relaxed), 3);
        assert_eq!(dispatch("all", &stubs), 1);
        assert_eq!(dispatch("passes", &stubs), 0);
        assert_eq!(dispatch("fails", &stubs), 1);
    }
}
