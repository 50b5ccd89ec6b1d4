//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Every `src/bin/figN.rs` binary regenerates one of the paper's figures:
//! it prints the series the figure plots (so the shape can be inspected
//! in the terminal) and writes a CSV under `results/` for external
//! plotting. `src/bin/all_figures.rs` runs the full set; EXPERIMENTS.md
//! records the measured numbers against the paper's claims.

#![forbid(unsafe_code)]

use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// Seeds used when a figure averages across repetitions.
pub const SEEDS: [u64; 10] = [11, 23, 37, 41, 53, 67, 79, 83, 97, 101];

/// Runs `f` once per seed — one seed per worker when `RTHS_THREADS` > 1 —
/// and returns the results in seed order, so downstream averaging is
/// identical at any thread count. The figure/ablation binaries route
/// their repetition loops through this; see `rths_par` for the threading
/// model.
pub fn per_seed<R, F>(seeds: &[u64], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    rths_par::par_map(seeds, |_, &seed| f(seed))
}

/// Directory where CSV outputs land (override with `RTHS_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("RTHS_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    fs::create_dir_all(&path).expect("can create results directory");
    path
}

/// Writes a CSV with the given headers and rows; returns the path.
///
/// # Panics
///
/// Panics on I/O errors (harness binaries should fail loudly) or if a row
/// length does not match the header count.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<f64>]) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    // Buffered: an unbuffered File issues one write syscall per row, which
    // dominates the harness runtime for long per-epoch series.
    let mut file = BufWriter::new(fs::File::create(&path).expect("can create CSV file"));
    writeln!(file, "{}", headers.join(",")).expect("can write header");
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row length mismatch in {name}");
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(file, "{}", line.join(",")).expect("can write row");
    }
    file.flush().expect("can flush CSV file");
    path
}

/// Uniformly downsamples `(index, value)` points from a series for
/// printing — keeps terminal output readable for long runs.
pub fn sample_points(values: &[f64], max_points: usize) -> Vec<(usize, f64)> {
    if values.is_empty() || max_points == 0 {
        return Vec::new();
    }
    let stride = values.len().div_ceil(max_points).max(1);
    let mut out: Vec<(usize, f64)> =
        values.iter().step_by(stride).enumerate().map(|(i, &v)| (i * stride, v)).collect();
    let last = values.len() - 1;
    if out.last().map(|&(i, _)| i) != Some(last) {
        out.push((last, values[last]));
    }
    out
}

/// Element-wise mean of several equally long series.
///
/// # Panics
///
/// Panics if the series are empty or lengths differ.
pub fn mean_series(series: &[Vec<f64>]) -> Vec<f64> {
    assert!(!series.is_empty(), "need at least one series");
    let len = series[0].len();
    assert!(series.iter().all(|s| s.len() == len), "series lengths differ");
    (0..len).map(|i| series.iter().map(|s| s[i]).sum::<f64>() / series.len() as f64).collect()
}

/// Prints a two-column series table with an optional third column.
pub fn print_series(title: &str, header: (&str, &str), points: &[(usize, f64)]) {
    println!("\n{title}");
    println!("{:>10}  {:>14}", header.0, header.1);
    for (x, y) in points {
        println!("{x:>10}  {y:>14.3}");
    }
}

/// Writes `text` verbatim to `<results_dir>/<name>`; returns the path.
///
/// # Panics
///
/// Panics on I/O errors (harness binaries should fail loudly).
pub fn write_text(name: &str, text: &str) -> PathBuf {
    let path = results_dir().join(name);
    fs::write(&path, text).expect("can write results file");
    path
}

/// Structural JSON well-formedness scan: braces/brackets balanced and
/// properly nested outside string literals, escapes honoured. Not a full
/// parser — it is the shape check the trace-smoke CI job needs without
/// dragging a JSON dependency into the no-registry build.
fn json_balanced(text: &str) -> Result<(), String> {
    let mut stack: Vec<char> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in text.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => stack.push('}'),
            '[' => stack.push(']'),
            '}' | ']' if stack.pop() != Some(c) => {
                return Err(format!("unbalanced `{c}` at byte {i}"));
            }
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string literal".to_string());
    }
    if let Some(open) = stack.pop() {
        return Err(format!("unclosed scope (expected `{open}`)"));
    }
    Ok(())
}

/// Validates an `rths_obs` JSONL trace export: every line is one
/// balanced JSON object carrying a recognized record key (`phase`,
/// `counter`, `gauge`, or `hist`). Returns the line count.
///
/// # Errors
///
/// Returns the first malformed line (or "empty trace").
pub fn validate_trace_jsonl(text: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err(format!("line {}: not a JSON object: {line}", i + 1));
        }
        json_balanced(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if !["\"phase\"", "\"counter\"", "\"gauge\"", "\"hist\""]
            .iter()
            .any(|k| line.contains(k))
        {
            return Err(format!("line {}: no recognized record key: {line}", i + 1));
        }
        lines += 1;
    }
    if lines == 0 {
        return Err("empty trace".to_string());
    }
    Ok(lines)
}

/// Validates an `rths_obs` Chrome `trace_event` export: one balanced
/// JSON document with a `traceEvents` array of complete (`"ph":"X"`)
/// events. Returns the event count.
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let text = text.trim();
    if !text.starts_with('{') || !text.ends_with('}') {
        return Err("not a JSON object".to_string());
    }
    json_balanced(text)?;
    if !text.contains("\"traceEvents\"") {
        return Err("missing traceEvents array".to_string());
    }
    let events = text.matches("\"ph\":\"X\"").count();
    if events == 0 {
        return Err("no complete events".to_string());
    }
    Ok(events)
}

/// Exports a finished [`rths_obs::TraceReport`] as
/// `<name>_trace.jsonl` + `<name>_trace.json` (Chrome `trace_event`)
/// under the results directory, validating both on the way out. Returns
/// the two paths.
///
/// # Panics
///
/// Panics if the report is empty or either export fails validation —
/// a harness that asked for a trace and got a malformed one should fail
/// loudly, which is exactly what the `trace-smoke` CI job checks.
pub fn export_trace(report: &rths_obs::TraceReport) -> (PathBuf, PathBuf) {
    assert!(!report.is_empty(), "trace report `{}` is empty", report.name);
    let jsonl = report.to_jsonl();
    validate_trace_jsonl(&jsonl)
        .unwrap_or_else(|e| panic!("invalid JSONL trace for `{}`: {e}", report.name));
    let chrome = report.to_chrome_trace();
    validate_chrome_trace(&chrome)
        .unwrap_or_else(|e| panic!("invalid Chrome trace for `{}`: {e}", report.name));
    let jsonl_path = write_text(&format!("{}_trace.jsonl", report.name), &jsonl);
    let chrome_path = write_text(&format!("{}_trace.json", report.name), &chrome);
    (jsonl_path, chrome_path)
}

/// Parsed view of a `BENCH_sim.json` throughput report — enough structure
/// for the perf regression gate to compare two reports scenario by
/// scenario. The format is this workspace's own (written by the
/// `bench_sim` binary), so a small line-oriented reader beats dragging a
/// JSON dependency into the no-registry build.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSimReport {
    /// `available_parallelism` of the host that produced the report.
    pub host_cores: usize,
    /// Whether the quick (CI-sized) grid was used.
    pub quick: bool,
    /// One entry per grid point.
    pub scenarios: Vec<BenchSimScenario>,
}

/// One grid point of a [`BenchSimReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSimScenario {
    /// Engine name (`single_channel` / `multi_channel`).
    pub engine: String,
    /// Peer population.
    pub peers: usize,
    /// Helper count.
    pub helpers: usize,
    /// Channel count.
    pub channels: usize,
    /// Epochs each run executed. Two reports' scenarios are only
    /// throughput-comparable when this matches (warm-up amortizes over
    /// the epoch count, so epochs/sec reads systematically low on short
    /// runs).
    pub epochs: u64,
    /// Process peak RSS (`VmHWM`, kB) recorded right after this
    /// scenario's runs (monotone high-water mark; the grid runs
    /// smallest-first). 0 in reports written before the field existed or
    /// on hosts that cannot read it.
    pub peak_rss_kb: u64,
    /// `(threads, epochs_per_sec)` per timed run.
    pub runs: Vec<(usize, f64)>,
}

impl BenchSimScenario {
    /// Stable identity of a grid point across reports.
    pub fn key(&self) -> (String, usize, usize, usize) {
        (self.engine.clone(), self.peers, self.helpers, self.channels)
    }

    /// Epochs/sec recorded at `threads`, if that run exists.
    pub fn epochs_per_sec(&self, threads: usize) -> Option<f64> {
        self.runs.iter().find(|(t, _)| *t == threads).map(|&(_, e)| e)
    }
}

/// Extracts the number following `"key": ` on `line`, if present.
fn json_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"').to_string())
}

fn json_usize(line: &str, key: &str) -> Option<usize> {
    json_field(line, key)?.parse().ok()
}

fn json_f64(line: &str, key: &str) -> Option<f64> {
    json_field(line, key)?.parse().ok()
}

/// Parses a `BENCH_sim.json` report.
///
/// # Errors
///
/// Returns a description of the first structural problem (missing header
/// fields or no scenarios).
pub fn parse_bench_sim(text: &str) -> Result<BenchSimReport, String> {
    let mut host_cores = None;
    let mut quick = false;
    let mut scenarios: Vec<BenchSimScenario> = Vec::new();
    for line in text.lines() {
        if host_cores.is_none() {
            if let Some(cores) = json_usize(line, "host_cores") {
                host_cores = Some(cores);
            }
        }
        if let Some(q) = json_field(line, "quick") {
            quick = q == "true";
        }
        if let Some(engine) = json_field(line, "engine") {
            scenarios.push(BenchSimScenario {
                engine,
                peers: 0,
                helpers: 0,
                channels: 0,
                epochs: 0,
                peak_rss_kb: 0,
                runs: Vec::new(),
            });
        }
        if let Some(current) = scenarios.last_mut() {
            // `peers`/`helpers`/`channels`/`epochs` appear once per
            // scenario, before the runs array; run lines carry `threads`
            // + `epochs_per_sec`.
            if let Some(threads) = json_usize(line, "threads") {
                if let Some(eps) = json_f64(line, "epochs_per_sec") {
                    current.runs.push((threads, eps));
                    continue;
                }
            }
            if current.runs.is_empty() {
                if let Some(peers) = json_usize(line, "peers") {
                    current.peers = peers;
                }
                if let Some(helpers) = json_usize(line, "helpers") {
                    current.helpers = helpers;
                }
                if let Some(channels) = json_usize(line, "channels") {
                    current.channels = channels;
                }
                if let Some(epochs) = json_usize(line, "epochs") {
                    current.epochs = epochs as u64;
                }
                if let Some(rss) = json_usize(line, "peak_rss_kb") {
                    current.peak_rss_kb = rss as u64;
                }
            }
        }
    }
    let host_cores = host_cores.ok_or("missing host_cores field")?;
    if scenarios.is_empty() {
        return Err("no scenarios found".to_string());
    }
    if scenarios.iter().any(|s| s.runs.is_empty()) {
        return Err("scenario without runs".to_string());
    }
    Ok(BenchSimReport { host_cores, quick, scenarios })
}

/// Peak resident set size of this process so far (`VmHWM`, in kB), read
/// from `/proc/self/status`. Returns 0 where the file is unavailable
/// (non-Linux), so callers can record it unconditionally.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Parsed view of a `BENCH_net.json` backend-throughput report, for the
/// perf gate's scenario-by-scenario comparison (same hand-rolled reader
/// rationale as [`parse_bench_sim`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchNetReport {
    /// `available_parallelism` of the host that produced the report.
    pub host_cores: usize,
    /// Whether the quick (CI-sized) grid was used.
    pub quick: bool,
    /// One entry per grid point.
    pub scenarios: Vec<BenchNetScenario>,
}

/// One grid point of a [`BenchNetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchNetScenario {
    /// Peer population.
    pub peers: usize,
    /// Helper count.
    pub helpers: usize,
    /// Total actors (peers + helpers).
    pub actors: usize,
    /// Epochs each run executed (throughput comparability key, as in
    /// [`BenchSimScenario::epochs`]).
    pub epochs: u64,
    /// Process peak RSS (`VmHWM`, kB) recorded right after this
    /// scenario's runs. The grid runs smallest-first, so the first
    /// scenario that bumps the high-water mark owns it; 0 when the
    /// producing host could not read it.
    pub peak_rss_kb: u64,
    /// One entry per timed run.
    pub runs: Vec<BenchNetRun>,
}

/// One timed run of a [`BenchNetScenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchNetRun {
    /// Backend name (`reactor` / `multiprocN`).
    pub backend: String,
    /// Worker threads the run used.
    pub threads: usize,
    /// OS processes hosting the mesh; `None` in reports written before
    /// the multi-process backend existed (always 1 then).
    pub processes: Option<usize>,
    /// Epoch throughput (actor-epochs per second).
    pub actors_per_sec: f64,
    /// Mesh-construction throughput (actors per second), `None` in
    /// reports written before construction was recorded and for
    /// multi-process runs (construction overlaps the worker handshake
    /// there).
    pub construct_actors_per_sec: Option<f64>,
    /// Summed per-process peak RSS (kB) of a multi-process run; `None`
    /// for in-process runs, which the scenario-level `peak_rss_kb`
    /// covers.
    pub rss_total_kb: Option<u64>,
    /// Largest single-process peak RSS (kB) of a multi-process run.
    pub rss_max_kb: Option<u64>,
}

impl BenchNetScenario {
    /// Stable identity of a grid point across reports.
    pub fn key(&self) -> (usize, usize, usize) {
        (self.peers, self.helpers, self.actors)
    }

    /// Actors/sec recorded for `backend`, if that run exists.
    pub fn actors_per_sec(&self, backend: &str) -> Option<f64> {
        self.runs.iter().find(|r| r.backend == backend).map(|r| r.actors_per_sec)
    }

    /// Construction actors/sec recorded for `backend`, if that run
    /// exists and the report is recent enough to carry the field.
    pub fn construct_actors_per_sec(&self, backend: &str) -> Option<f64> {
        self.runs.iter().find(|r| r.backend == backend)?.construct_actors_per_sec
    }
}

/// Parses a `BENCH_net.json` report.
///
/// # Errors
///
/// Returns a description of the first structural problem (missing header
/// fields or no scenarios).
pub fn parse_bench_net(text: &str) -> Result<BenchNetReport, String> {
    let mut host_cores = None;
    let mut quick = false;
    let mut scenarios: Vec<BenchNetScenario> = Vec::new();
    let mut in_scenarios = false;
    for line in text.lines() {
        if line.contains("\"scenarios\"") {
            in_scenarios = true;
        }
        if host_cores.is_none() {
            if let Some(cores) = json_usize(line, "host_cores") {
                host_cores = Some(cores);
            }
        }
        if let Some(q) = json_field(line, "quick") {
            quick = q == "true";
        }
        if let Some(backend) = json_field(line, "backend") {
            let (Some(threads), Some(aps)) =
                (json_usize(line, "threads"), json_f64(line, "actors_per_sec"))
            else {
                return Err("run line missing threads/actors_per_sec".to_string());
            };
            let Some(current) = scenarios.last_mut() else {
                return Err("run line before any scenario".to_string());
            };
            current.runs.push(BenchNetRun {
                backend,
                threads,
                processes: json_usize(line, "processes"),
                actors_per_sec: aps,
                construct_actors_per_sec: json_f64(line, "construct_actors_per_sec"),
                rss_total_kb: json_usize(line, "rss_total_kb").map(|v| v as u64),
                rss_max_kb: json_usize(line, "rss_max_kb").map(|v| v as u64),
            });
            continue;
        }
        if in_scenarios {
            if let Some(peers) = json_usize(line, "peers") {
                scenarios.push(BenchNetScenario {
                    peers,
                    helpers: 0,
                    actors: 0,
                    epochs: 0,
                    peak_rss_kb: 0,
                    runs: Vec::new(),
                });
                continue;
            }
        }
        if let Some(current) = scenarios.last_mut() {
            if let Some(helpers) = json_usize(line, "helpers") {
                current.helpers = helpers;
            }
            if let Some(actors) = json_usize(line, "actors") {
                current.actors = actors;
            }
            if let Some(epochs) = json_usize(line, "epochs") {
                current.epochs = epochs as u64;
            }
            if let Some(rss) = json_usize(line, "peak_rss_kb") {
                current.peak_rss_kb = rss as u64;
            }
        }
    }
    let host_cores = host_cores.ok_or("missing host_cores field")?;
    if scenarios.is_empty() {
        return Err("no scenarios found".to_string());
    }
    if scenarios.iter().any(|s| s.runs.is_empty()) {
        return Err("scenario without runs".to_string());
    }
    Ok(BenchNetReport { host_cores, quick, scenarios })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_points_keeps_endpoints() {
        let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let pts = sample_points(&v, 20);
        assert!(pts.len() <= 21);
        assert_eq!(pts[0], (0, 0.0));
        assert_eq!(*pts.last().unwrap(), (999, 999.0));
    }

    #[test]
    fn mean_series_averages() {
        let m = mean_series(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m, vec![2.0, 3.0]);
    }

    #[test]
    fn parses_the_bench_sim_format() {
        let text = r#"{
  "bench": "sim_scale_grid",
  "host_cores": 4,
  "quick": false,
  "scenarios": [
    {
      "engine": "single_channel",
      "peers": 200,
      "helpers": 20,
      "channels": 1,
      "epochs": 600,
      "peak_rss_kb": 10240,
      "identical_output": true,
      "speedup_best": 1.0000,
      "runs": [
        {"threads": 1, "secs": 0.50, "epochs_per_sec": 1200.0, "welfare_checksum": 9599400.0},
        {"threads": 2, "secs": 0.25, "epochs_per_sec": 2400.0, "welfare_checksum": 9599400.0}
      ]
    },
    {
      "engine": "multi_channel",
      "peers": 2000,
      "helpers": 48,
      "channels": 16,
      "epochs": 80,
      "identical_output": true,
      "speedup_best": 1.0,
      "runs": [
        {"threads": 1, "secs": 0.1, "epochs_per_sec": 800.0, "welfare_checksum": 1.0}
      ]
    }
  ]
}"#;
        let report = parse_bench_sim(text).unwrap();
        assert_eq!(report.host_cores, 4);
        assert!(!report.quick);
        assert_eq!(report.scenarios.len(), 2);
        let first = &report.scenarios[0];
        assert_eq!(first.key(), ("single_channel".to_string(), 200, 20, 1));
        assert_eq!(first.epochs, 600);
        assert_eq!(first.peak_rss_kb, 10240);
        assert_eq!(first.epochs_per_sec(2), Some(2400.0));
        assert_eq!(first.epochs_per_sec(8), None);
        assert_eq!(report.scenarios[1].channels, 16);
        assert_eq!(report.scenarios[1].epochs, 80);
        // A second scenario without the field degrades to 0 (old report).
        assert_eq!(report.scenarios[1].peak_rss_kb, 0);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_bench_sim("{}").is_err());
        assert!(parse_bench_sim("{\"host_cores\": 2}").is_err());
    }

    #[test]
    fn parses_the_bench_net_format() {
        let text = r#"{
  "bench": "net_backend_grid",
  "host_cores": 4,
  "quick": true,
  "scenarios": [
    {
      "peers": 152,
      "helpers": 8,
      "actors": 160,
      "epochs": 50,
      "peak_rss_kb": 20480,
      "identical_output": true,
      "runs": [
        {"backend": "threaded", "threads": 1, "secs": 0.3, "actors_per_sec": 26666.0, "welfare_checksum": 1.0},
        {"backend": "reactor", "threads": 1, "construct_secs": 0.002, "construct_actors_per_sec": 80000.0, "secs": 0.01, "actors_per_sec": 800000.0, "welfare_checksum": 1.0}
      ]
    },
    {
      "peers": 99936,
      "helpers": 64,
      "actors": 100000,
      "epochs": 8,
      "peak_rss_kb": 4194304,
      "identical_output": true,
      "runs": [
        {"backend": "reactor", "threads": 1, "secs": 10.0, "actors_per_sec": 80000.0, "welfare_checksum": 2.0},
        {"backend": "multiproc2", "threads": 1, "processes": 2, "secs": 6.0, "actors_per_sec": 133333.0, "rss_total_kb": 4800000, "rss_max_kb": 2500000, "welfare_checksum": 2.0}
      ]
    }
  ]
}"#;
        let report = parse_bench_net(text).unwrap();
        assert_eq!(report.host_cores, 4);
        assert!(report.quick);
        assert_eq!(report.scenarios.len(), 2);
        let first = &report.scenarios[0];
        assert_eq!(first.key(), (152, 8, 160));
        assert_eq!(first.epochs, 50);
        assert_eq!(first.peak_rss_kb, 20480);
        assert_eq!(first.actors_per_sec("reactor"), Some(800000.0));
        assert_eq!(first.actors_per_sec("carrier-pigeon"), None);
        // New-format runs carry construction throughput; old-format run
        // lines (the threaded one above) degrade to None.
        assert_eq!(first.construct_actors_per_sec("reactor"), Some(80000.0));
        assert_eq!(first.construct_actors_per_sec("threaded"), None);
        assert_eq!(report.scenarios[1].actors, 100000);
        // Multi-process runs carry process counts and aggregated RSS;
        // in-process runs (and old reports) degrade to None.
        let large = &report.scenarios[1];
        let mp = large.runs.iter().find(|r| r.backend == "multiproc2").unwrap();
        assert_eq!(mp.processes, Some(2));
        assert_eq!(mp.rss_total_kb, Some(4800000));
        assert_eq!(mp.rss_max_kb, Some(2500000));
        assert_eq!(large.runs[0].processes, None);
        assert_eq!(large.runs[0].rss_total_kb, None);
    }

    #[test]
    fn bench_net_parser_rejects_garbage() {
        assert!(parse_bench_net("{}").is_err());
        assert!(parse_bench_net("{\"host_cores\": 2}").is_err());
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        // On Linux the test process certainly has a nonzero high-water
        // mark; elsewhere the helper degrades to 0 by contract.
        let rss = peak_rss_kb();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0, "VmHWM should be positive, got {rss}");
        }
    }

    #[test]
    fn trace_jsonl_validator_accepts_real_exports() {
        let mut report = rths_obs::TraceReport::empty("unit");
        report.counters[0] = 3;
        let lines = validate_trace_jsonl(&report.to_jsonl()).unwrap();
        // One line per counter and gauge (no spans or hists recorded).
        assert!(lines >= 2, "expected counter+gauge lines, got {lines}");
    }

    #[test]
    fn trace_jsonl_validator_rejects_garbage() {
        assert!(validate_trace_jsonl("").is_err());
        assert!(validate_trace_jsonl("{\"phase\":\"x\"").is_err());
        assert!(validate_trace_jsonl("{\"unrelated\":1}").is_err());
        assert!(validate_trace_jsonl("{\"phase\":\"a}{\"}{").is_err());
    }

    #[test]
    fn chrome_trace_validator_counts_events() {
        let mut report = rths_obs::TraceReport::empty("unit");
        report.spans.push(rths_obs::SpanRecord {
            phase: rths_obs::Phase::Choose,
            epoch: 0,
            worker: 0,
            start_ns: 10,
            dur_ns: 20,
        });
        assert_eq!(validate_chrome_trace(&report.to_chrome_trace()), Ok(1));
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}").is_err());
    }

    #[test]
    fn csv_written_to_results() {
        // Routed through the sanctioned env guard: a bare set_var here
        // raced any concurrently running test that reads the results dir.
        let dir = std::env::temp_dir().join("rths-test-results");
        let content = rths_par::env::with_var("RTHS_RESULTS_DIR", dir.to_str(), || {
            let p = write_csv("unit_test", &["a", "b"], &[vec![1.0, 2.0]]);
            std::fs::read_to_string(p).unwrap()
        });
        assert!(content.starts_with("a,b\n1,2"));
    }
}
