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
fn results_dir() -> PathBuf {
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
fn write_text(name: &str, text: &str) -> PathBuf {
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
fn validate_trace_jsonl(text: &str) -> Result<usize, String> {
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
fn validate_chrome_trace(text: &str) -> Result<usize, String> {
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
