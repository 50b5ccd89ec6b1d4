//! `rths_benchmark` — the repository's benchmark harness.
//!
//! ```text
//! rths_benchmark run [--seed N] [--only WORKLOAD] [--out DIR]
//! rths_benchmark compare A.json B.json
//! rths_benchmark cell --workload W --seed N --seconds S --trace 0|1
//! rths_benchmark manifest | dictionary
//! ```
//!
//! `run` is the whole suite for a person; `cell` is one cell of it for the
//! driver that `BENCHMARK.json` addresses. See `README.md` beside this
//! package for the metric dictionary, the workload table and the layer →
//! end-to-end map.

#![forbid(unsafe_code)]

mod cell;
mod checks;
mod child;
mod clock;
mod compare;
mod digest;
mod host;
mod json;
mod metrics;
mod probes;
mod refkernel;
mod repeat;
mod spans;
mod stats;
mod suite;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use child::Harness;
use workload::Workload;

const USAGE: &str = "usage:
  rths_benchmark run [--seed N] [--only WORKLOAD] [--out DIR]
  rths_benchmark compare A.json B.json
  rths_benchmark cell --workload WORKLOAD --seed N --seconds S --trace 0|1 [--out DIR]
  rths_benchmark manifest | dictionary";

/// Where results go unless `--out` says otherwise: relative to the
/// repository root, which is where the benchmark is run from.
const DEFAULT_OUT: &str = "benchmark/out";

/// `--key value` pairs.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key.strip_prefix("--").filter(|n| allowed.contains(n));
            let name = name.ok_or_else(|| format!("unknown argument {key}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Self(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("--{name} is required"))
    }

    fn workload(&self, name: &str) -> Result<Option<Workload>, String> {
        self.get(name)
            .map(|w| {
                Workload::from_name(w).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {w} (known: {})", known.join(", "))
                })
            })
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed").map_or(Ok(suite::DEFAULT_SEED), |s| {
            s.parse().map_err(|_| format!("--seed {s}: not an unsigned 64-bit number"))
        })
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or(DEFAULT_OUT))
    }

    fn switch(&self, name: &str) -> Result<bool, String> {
        match self.required(name)? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("--{name} {other}: expected 0 or 1")),
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" => {
            let flags = Flags::parse(rest, &["seed", "only", "out"])?;
            let harness = Harness::locate(&flags.out())?;
            let ok = suite::run(&harness, flags.seed()?, flags.workload("only")?)?;
            Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        "compare" => match rest {
            [a, b] => {
                let ok = compare::run(Path::new(a), Path::new(b))?;
                Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
            }
            _ => Err(USAGE.to_string()),
        },
        "cell" => {
            let flags = Flags::parse(rest, &["workload", "seed", "seconds", "trace", "out"])?;
            let seconds = flags.required("seconds")?;
            let request = cell::Request {
                workload: flags.workload("workload")?.ok_or("--workload is required")?,
                seed: flags.seed()?,
                seconds: seconds
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| {
                        format!("--seconds {seconds}: expected a positive number")
                    })?,
                trace: flags.switch("trace")?,
            };
            cell::run(&Harness::locate(&flags.out())?, request)?;
            Ok(ExitCode::SUCCESS)
        }
        // What `Harness::repeat` starts: one repeat in this fresh process.
        "repeat" => {
            let flags = Flags::parse(rest, &["workload", "seed", "epochs", "trace", "out"])?;
            let epochs = flags.required("epochs")?;
            let spec = repeat::Spec {
                workload: flags.workload("workload")?.ok_or("--workload is required")?,
                seed: flags.seed()?,
                timed_epochs: epochs
                    .parse()
                    .map_err(|_| format!("--epochs {epochs}: not a count"))?,
                traced: flags.switch("trace")?,
            };
            let (record, log) = repeat::run(spec);
            if spec.traced {
                let path = flags.out().join(format!("trace_{}.json", spec.workload.name()));
                std::fs::write(&path, log.to_chrome_trace().render())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            println!("{}", record.to_json().render());
            Ok(ExitCode::SUCCESS)
        }
        "manifest" => {
            print!("{}", metrics::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        "dictionary" => {
            print!("{}", metrics::dictionary_md());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|message| {
        eprintln!("rths_benchmark: {message}");
        ExitCode::from(2)
    })
}
