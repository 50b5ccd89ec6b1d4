//! Runs one scenario from the zoo (or any `ScenarioSpec` TOML) and
//! writes its welfare and regret series as CSVs.
//!
//! Usage: `cargo run --release -p rths_bench -- run_scenario <spec.toml>...`
//! (exit status 2 on a usage or environment error, 1 on an invalid spec).
//!
//! * `RTHS_SCENARIO_MAX_EPOCHS` — optional positive epoch cap; phases are
//!   truncated cumulatively (CI smoke runs set a small budget here).
//! * `RTHS_RESULTS_DIR` — where `<name>_welfare.csv` and
//!   `<name>_regret.csv` land (default `results/`).
//! * `RTHS_TRACE=1` (or a spec's `trace = true` knob) enables `rths_obs`
//!   tracing: the run additionally writes `<name>_trace.jsonl` and a
//!   Chrome-loadable `<name>_trace.json`, both validated on export.
//!   Traced runs are bit-identical to untraced ones.
//!
//! The welfare CSV always carries the per-epoch phase-timing column
//! group (`us_<phase>` for every `rths_obs::Phase`, in declaration
//! order); the columns are zero when tracing is off.

use std::collections::BTreeMap;
use std::num::NonZeroU64;

use crate::harness::{export_trace, print_series, sample_points, write_csv};
use rths_obs::{self as obs, TraceReport};
use rths_sim::ScenarioSpec;

pub(crate) fn run() -> Result<(), String> {
    obs::init_from_env();
    let paths: Vec<String> = std::env::args().skip(2).collect();
    if paths.is_empty() {
        eprintln!("usage: rths_bench run_scenario <spec.toml>...");
        std::process::exit(2);
    }
    let cap = epoch_cap(std::env::var("RTHS_SCENARIO_MAX_EPOCHS").ok().as_deref())
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });

    for path in &paths {
        let mut spec = ScenarioSpec::load(path).map_err(|e| format!("{path}: {e}"))?;
        if let Some(cap) = cap {
            spec = spec.with_epoch_cap(cap);
        }
        println!(
            "scenario `{}` — {} epochs, seed {}\n  {}",
            spec.name(),
            spec.total_epochs(),
            spec.seed(),
            spec.description(),
        );

        let traced = obs::enabled() || spec.trace();
        let report = spec.run();
        // Drained unconditionally: an untraced run yields an empty
        // report, which pads the phase columns with zeros below.
        let trace = obs::take_report();

        let profile: BTreeMap<u64, Vec<u64>> = trace.epoch_profile().into_iter().collect();
        let profile_headers = TraceReport::profile_headers();
        let zeros = vec![0u64; profile_headers.len()];
        let mut headers = vec!["epoch", "welfare_kbps", "server_load_kbps"];
        headers.extend(profile_headers.iter().map(String::as_str));
        let welfare_rows: Vec<Vec<f64>> = report
            .welfare
            .iter()
            .zip(&report.server_load)
            .enumerate()
            .map(|(i, (&w, &s))| {
                let mut row = vec![i as f64, w, s];
                let us = profile.get(&(i as u64)).unwrap_or(&zeros);
                row.extend(us.iter().map(|&v| v as f64));
                row
            })
            .collect();
        let welfare_csv =
            write_csv(&format!("{}_welfare", report.name), &headers, &welfare_rows);

        // Multi-channel runs don't track the internal estimator; pad the
        // column with NaN so the CSV shape is uniform across the zoo.
        let regret_rows: Vec<Vec<f64>> = report
            .worst_empirical_regret
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                let est = report.worst_regret_estimate.get(i).copied().unwrap_or(f64::NAN);
                vec![i as f64, e, est]
            })
            .collect();
        let regret_csv = write_csv(
            &format!("{}_regret", report.name),
            &["epoch", "empirical_regret", "estimate"],
            &regret_rows,
        );

        print_series("welfare (kbps)", ("epoch", "kbps"), &sample_points(&report.welfare, 16));
        println!(
            "  final population {}, tail welfare {:.1} kbps",
            report.final_population,
            report.welfare.iter().rev().take(20).sum::<f64>()
                / report.welfare.len().clamp(1, 20) as f64,
        );
        if traced {
            let (jsonl, chrome) = export_trace(&trace);
            println!("  trace: {} | {}", jsonl.display(), chrome.display());
        }
        println!("  csv: {} | {}\n", welfare_csv.display(), regret_csv.display());
    }
    Ok(())
}

/// Parses `RTHS_SCENARIO_MAX_EPOCHS`: unset means no cap, and anything
/// but a positive integer is an error.
fn epoch_cap(value: Option<&str>) -> Result<Option<u64>, String> {
    value
        .map(|v| {
            v.parse::<NonZeroU64>().map(u64::from).map_err(|_| {
                format!("RTHS_SCENARIO_MAX_EPOCHS must be a positive integer, got `{v}`")
            })
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::epoch_cap;

    #[test]
    fn epoch_cap_accepts_only_positive_integers() {
        assert_eq!(epoch_cap(None), Ok(None));
        assert_eq!(epoch_cap(Some("60")), Ok(Some(60)));
        for bad in ["0", "x"] {
            let err = epoch_cap(Some(bad)).unwrap_err();
            assert!(err.contains("must be a positive integer") && err.contains(bad), "{err}");
        }
    }
}
