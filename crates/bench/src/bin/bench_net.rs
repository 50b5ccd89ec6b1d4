//! Decentralized-runtime throughput: emits `BENCH_net.json`.
//!
//! Runs a peers×helpers grid through the reactor event loop and records
//! wall-clock **actors/sec** (actor-epochs processed per second: every
//! actor takes part in every epoch) plus a welfare checksum per run.
//!
//! The grid starts at **20,000 actors** in one process and, with
//! `RTHS_BENCH_LARGE=1`, goes to **100,000 actors** at a fixed epoch
//! count. Every point also times the **multi-process reactor**
//! (`rths_net::run_multiproc`) at 2 and 4 OS processes — recorded as
//! backends `multiproc2`/`multiproc4` with per-process peak RSS
//! aggregated as `rss_total_kb` (sum) and `rss_max_kb`, since the
//! workers' high-water marks never show up in the parent's `VmHWM` —
//! and the checksum pins the headline property: however the mesh is
//! partitioned, the trajectory is bit-for-bit the same.
//!
//! The per-shard learner slabs (`rths_core::slab`) plus the
//! stretch-folded `O(n·h)` regret ledger (`rths_sim::regret`) and the
//! reactor's per-shard mailbox rings are what keep 10⁵ `PeerMachine`s
//! inside a sane footprint — each scenario records the process peak RSS
//! (`VmHWM`) so the memory trajectory is visible alongside throughput,
//! and each run records mesh-construction time separately from epoch
//! throughput (`construct_secs` / `construct_actors_per_sec`).
//! Run with: `cargo run --release -p rths_bench --bin bench_net`
//!
//! * `RTHS_BENCH_QUICK=1` shrinks epochs (CI smoke).
//! * `RTHS_BENCH_LARGE=1` appends the 10⁵-actor point at a
//!   **fixed** epoch count ([`LARGE_EPOCHS`]), identical in quick and
//!   full mode so `perf_gate`'s per-scenario epoch matching can compare
//!   a CI run against the committed full-grid baseline.
//! * `RTHS_THREADS` shards the reactor's rounds (recorded in the JSON;
//!   results are identical at any value).
//! * `RTHS_TRACE=1` exports an `rths_obs` trace of the **last** grid
//!   run (each runtime's `run()` begins a fresh trace) as
//!   `net_reactor_trace.jsonl` / `.json`. Tracing adds measurement
//!   overhead — traced numbers are for profiling, not baselines.
//! * Output lands in `results/BENCH_net.json` (see `RTHS_RESULTS_DIR`).
//!
//! Learner-estimate tracking (`NetConfig::track_estimate`) is disabled:
//! the per-peer estimate is a metrics feature, not protocol work, and
//! the committed baselines predate it.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use rths_bench::{export_trace, peak_rss_kb, results_dir};
use rths_net::{NetConfig, ReactorRuntime};
use rths_obs as obs;
use rths_sim::{BandwidthSpec, SimConfig};

/// Fixed epoch count of the `RTHS_BENCH_LARGE` 10⁵-actor point — the
/// same in quick and full mode, so the CI smoke run is epoch-comparable
/// with the committed baseline.
const LARGE_EPOCHS: u64 = 12;

/// One grid point.
struct Scenario {
    peers: usize,
    helpers: usize,
    epochs: u64,
}

impl Scenario {
    fn actors(&self) -> usize {
        self.peers + self.helpers
    }
}

/// One timed run.
struct Run {
    backend: String,
    threads: usize,
    /// OS processes hosting the mesh (1 for the in-process reactor).
    processes: usize,
    /// `(secs, actors/sec)` of mesh construction. `None` for the
    /// multi-process backend, where spawning workers, the config
    /// handshake, and partition construction all overlap inside the
    /// measured run.
    construct: Option<(f64, f64)>,
    secs: f64,
    actors_per_sec: f64,
    /// `(sum, max)` of per-process peak RSS (`VmHWM`, kB) for
    /// multi-process runs: the children's high-water marks are invisible
    /// in the parent's `/proc/self/status`, so the scenario-level figure
    /// alone would undercount a sharded run by roughly
    /// `(processes-1)/processes`. `None` for in-process runs, which the
    /// scenario-level mark covers.
    rss_kb: Option<(u64, u64)>,
    welfare_checksum: f64,
}

fn grid(quick: bool, large: bool) -> Vec<Scenario> {
    let scale = if quick { 4 } else { 1 };
    let mut grid = vec![Scenario { peers: 19_936, helpers: 64, epochs: (40 / scale).max(10) }];
    if large {
        // 10⁵ actors at the same 64-helper density as the 2×10⁴ point:
        // the O(n·h) regret ledger + mailbox rings keep it in memory
        // (the dense n·h² table alone would be ~3.3 GB here). Fixed
        // epoch count for cross-report comparability.
        grid.push(Scenario { peers: 99_936, helpers: 64, epochs: LARGE_EPOCHS });
    }
    grid
}

fn config(s: &Scenario) -> NetConfig {
    let sim = SimConfig::builder(s.peers, vec![BandwidthSpec::Paper { stay: 0.98 }; s.helpers])
        .seed(7)
        .build();
    NetConfig::from_sim(sim).with_track_estimate(false)
}

/// Times mesh construction and epoch processing (run + result
/// aggregation) separately: construction is allocation-bound (the learner
/// slabs), epochs are protocol-bound, and `perf_gate` gates both.
fn time_reactor(s: &Scenario) -> Run {
    let t0 = Instant::now();
    let rt = ReactorRuntime::new(config(s));
    let construct_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let out = rt.run(s.epochs);
    let secs = t1.elapsed().as_secs_f64();
    Run {
        backend: "reactor".to_string(),
        threads: rths_par::threads(),
        processes: 1,
        construct: Some((construct_secs, s.actors() as f64 / construct_secs.max(1e-12))),
        secs,
        actors_per_sec: (s.actors() as u64 * s.epochs) as f64 / secs.max(1e-12),
        rss_kb: None,
        welfare_checksum: out.metrics.welfare.values().iter().sum(),
    }
}

/// Process counts measured for the multi-process reactor (every grid
/// point is tens of shards at the default span, enough to partition).
const MULTIPROC_PROCESSES: [usize; 2] = [2, 4];

fn time_multiproc(s: &Scenario, processes: usize) -> Run {
    let t0 = Instant::now();
    let report = rths_net::run_multiproc(config(s), s.epochs, processes);
    let secs = t0.elapsed().as_secs_f64();
    Run {
        backend: format!("multiproc{processes}"),
        threads: rths_par::threads(),
        processes,
        construct: None,
        secs,
        actors_per_sec: (s.actors() as u64 * s.epochs) as f64 / secs.max(1e-12),
        rss_kb: Some((report.total_rss_kb(), report.max_rss_kb())),
        welfare_checksum: report.outcome.metrics.welfare.values().iter().sum(),
    }
}

fn main() {
    obs::init_from_env();
    if obs::enabled() {
        println!("rths_obs tracing enabled — throughput numbers are not baseline-comparable");
    }
    let quick = std::env::var("RTHS_BENCH_QUICK").is_ok_and(|v| v != "0");
    let large = std::env::var("RTHS_BENCH_LARGE").is_ok_and(|v| v != "0");
    let threads = rths_par::threads();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scenarios = grid(quick, large);
    println!(
        "BENCH_net — decentralized runtime throughput ({} scenarios, reactor threads {}, \
         {} host cores{}{})",
        scenarios.len(),
        threads,
        host_cores,
        if quick { ", quick mode" } else { "" },
        if large { ", +large grid point" } else { "" }
    );
    println!(
        "\n{:<6} {:>8} {:>7} {:>7} | {:>9} {:>8} {:>9} {:>9} {:>14} {:>12}",
        "peers",
        "helpers",
        "actors",
        "epochs",
        "backend",
        "threads",
        "build(s)",
        "secs",
        "actors/sec",
        "peakRSS(MB)"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"net_backend_grid\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"scenarios\": [");

    for (si, s) in scenarios.iter().enumerate() {
        let mut runs = vec![time_reactor(s)];
        for processes in MULTIPROC_PROCESSES {
            runs.push(time_multiproc(s, processes));
        }

        // Peak RSS right after the scenario's runs. VmHWM is a process
        // high-water mark (monotone); the grid runs smallest-first, so
        // the first scenario to raise it owns the number.
        let rss_kb = peak_rss_kb();
        let identical = runs
            .iter()
            .all(|r| r.welfare_checksum.to_bits() == runs[0].welfare_checksum.to_bits());
        for (ri, r) in runs.iter().enumerate() {
            if ri == 0 {
                print!("{:<6} {:>8} {:>7} {:>7} |", s.peers, s.helpers, s.actors(), s.epochs);
            } else {
                print!("{:<6} {:>8} {:>7} {:>7} |", "", "", "", "");
            }
            print!(
                " {:>9} {:>8} {:>9.3} {:>9.3} {:>14.0}",
                r.backend,
                r.threads,
                r.construct.map_or(0.0, |(cs, _)| cs),
                r.secs,
                r.actors_per_sec
            );
            if let Some((total, max)) = r.rss_kb {
                // Summed over the worker processes (max per process in
                // parentheses) — the scenario-level VmHWM only sees the
                // parent.
                println!(" {:>8.0}Σ ({:.0})", total as f64 / 1024.0, max as f64 / 1024.0);
            } else {
                println!(" {:>12.0}", rss_kb as f64 / 1024.0);
            }
        }
        assert!(identical, "backends diverged at {} actors", s.actors());

        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"peers\": {},", s.peers);
        let _ = writeln!(json, "      \"helpers\": {},", s.helpers);
        let _ = writeln!(json, "      \"actors\": {},", s.actors());
        let _ = writeln!(json, "      \"epochs\": {},", s.epochs);
        let _ = writeln!(json, "      \"peak_rss_kb\": {rss_kb},");
        let _ = writeln!(json, "      \"identical_output\": {identical},");
        let _ = writeln!(json, "      \"runs\": [");
        for (ri, r) in runs.iter().enumerate() {
            let mut line = format!(
                "        {{\"backend\": \"{}\", \"threads\": {}, \"processes\": {}",
                r.backend, r.threads, r.processes
            );
            if let Some((construct_secs, construct_aps)) = r.construct {
                let _ = write!(
                    line,
                    ", \"construct_secs\": {construct_secs:.6}, \
                     \"construct_actors_per_sec\": {construct_aps:.3}"
                );
            }
            let _ = write!(
                line,
                ", \"secs\": {:.6}, \"actors_per_sec\": {:.3}",
                r.secs, r.actors_per_sec
            );
            if let Some((total, max)) = r.rss_kb {
                let _ = write!(line, ", \"rss_total_kb\": {total}, \"rss_max_kb\": {max}");
            }
            let _ = writeln!(
                json,
                "{line}, \"welfare_checksum\": {:.6}}}{}",
                r.welfare_checksum,
                if ri + 1 < runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(json, "    }}{}", if si + 1 < scenarios.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let path = results_dir().join("BENCH_net.json");
    let mut file = std::fs::File::create(&path).expect("can create BENCH_net.json");
    file.write_all(json.as_bytes()).expect("can write BENCH_net.json");
    println!("\nbackend outputs identical per scenario; json: {}", path.display());
    if obs::enabled() {
        let (jsonl, chrome) = export_trace(&obs::take_report());
        println!("trace (last grid run): {} | {}", jsonl.display(), chrome.display());
    }
}
