//! `rths_benchmark run`: the whole benchmark, for a person at a terminal.
//!
//! One command does, in order: the untraced end-to-end runs — [`REPEATS`]
//! full-size repeats per workload, every one in a fresh child process, the
//! workloads interleaved round-robin so that drift of the host lands on all
//! of them alike; one traced run per workload; the layer probes. It then
//! prints every metric by name with unit, median, quartiles and sample
//! count (timings at reference speed where the workload follows the
//! reference kernel, see `refkernel`), runs the output checks, writes `results.json` and the Chrome
//! traces to the output directory, regenerates `LAYERS.md`, and reports
//! whether every check passed.

use std::fmt::Write as _;
use std::path::Path;

use crate::cell::{accounted_share, layer_values};
use crate::checks::{self, Verdict};
use crate::child::Harness;
use crate::digest::to_hex;
use crate::host;
use crate::json::Json;
use crate::metrics::{self, LayerValue, END_TO_END};
use crate::probes::{self, Readings};
use crate::repeat::{Record, Spec};
use crate::stats::Summary;
use crate::workload::Workload;

/// Untraced repeats per workload.
pub const REPEATS: usize = 5;
/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 7;
/// Format tag of `results.json`.
pub const SCHEMA: &str = "rths_benchmark/1";

/// Everything measured for one workload.
struct Measured {
    workload: Workload,
    untraced: Vec<Record>,
    traced: Record,
}

impl Measured {
    /// Median timed region of the untraced repeats, at reference speed.
    fn timed_s_median(&self) -> f64 {
        let timed: Vec<f64> =
            self.untraced.iter().map(|r| r.at_reference_speed(r.timed_s)).collect();
        crate::stats::median(&timed)
    }
}

/// Whether `path` holds a Chrome `trace_event` document with at least one
/// complete event.
fn chrome_trace_problem(path: &Path) -> Option<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return Some(format!("{}: {e}", path.display())),
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => return Some(format!("{}: not JSON: {e}", path.display())),
    };
    let complete = |e: &Json| {
        e.get("ph").and_then(Json::as_str) == Some("X")
            && e.get("name").and_then(Json::as_str).is_some()
            && e.get("ts").and_then(Json::as_f64).is_some()
            && e.get("dur").and_then(Json::as_f64).is_some()
    };
    match doc.get("traceEvents").and_then(Json::as_array) {
        Some(events) if !events.is_empty() && events.iter().all(complete) => None,
        _ => Some(format!("{}: not a Chrome trace_event document", path.display())),
    }
}

fn summary_json(m: &metrics::EndToEnd, samples: &[f64], s: &Summary) -> Json {
    Json::obj([
        ("name", Json::from(m.name)),
        ("unit", Json::from(m.unit)),
        ("better", Json::from(m.better.name())),
        ("bound", Json::from(m.bound)),
        ("n", Json::from(s.n)),
        ("median", Json::from(s.median)),
        ("q1", Json::from(s.q1)),
        ("q3", Json::from(s.q3)),
        ("values", Json::from(samples.to_vec())),
    ])
}

fn as_measured_json(records: &[Record]) -> Json {
    let list = |of: fn(&Record) -> f64| Json::from(records.iter().map(of).collect::<Vec<_>>());
    Json::obj([
        ("setup_s", list(|r| r.setup_s)),
        ("timed_s", list(|r| r.timed_s)),
        ("wall_s", list(|r| r.wall_s)),
        ("host_slowdown", list(Record::slowdown)),
    ])
}

fn layer_json(values: &[LayerValue]) -> Json {
    Json::Arr(
        values
            .iter()
            .map(|v| {
                Json::obj([
                    ("name", Json::from(v.name.as_str())),
                    ("unit", Json::from(v.unit)),
                    ("value", Json::from(v.value)),
                ])
            })
            .collect(),
    )
}

/// Runs the suite. Returns whether every output check passed.
///
/// # Errors
///
/// A run could not be made or a file could not be written.
pub fn run(harness: &Harness, seed: u64, only: Option<Workload>) -> Result<bool, String> {
    let workloads: Vec<Workload> = only.map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let host = host::describe(Path::new("."));
    let steal_before = host::steal_ticks();
    println!(
        "rths_benchmark run: seed {seed}, {REPEATS} repeats per workload, host {}",
        host.render()
    );

    // 1. Untraced end-to-end runs, interleaved round-robin.
    let mut untraced: Vec<Vec<Record>> = vec![Vec::new(); workloads.len()];
    for round in 0..REPEATS {
        for (records, &w) in untraced.iter_mut().zip(&workloads) {
            let spec = Spec { workload: w, seed, timed_epochs: w.full_epochs(), traced: false };
            let r = harness.repeat(spec)?;
            println!(
                "  [{}/{REPEATS}] {:<20} {:>12.0} peer-epochs/s  wall {:.3} s  setup {:.3} s  host slowdown {:.3}",
                round + 1,
                w.name(),
                r.peer_epochs_per_s(),
                r.wall_at_reference_speed(),
                r.setup_s,
                r.slowdown()
            );
            records.push(r);
        }
    }
    // 2. One traced run per workload.
    let mut measured = Vec::with_capacity(workloads.len());
    for (records, &w) in untraced.into_iter().zip(&workloads) {
        let spec = Spec { workload: w, seed, timed_epochs: w.full_epochs(), traced: true };
        let traced = harness.repeat(spec)?;
        println!("  [traced] {:<20} wall {:.3} s", w.name(), traced.wall_s);
        measured.push(Measured { workload: w, untraced: records, traced });
    }
    // 3. The layer probes.
    let readings = probes::run_all();
    let steal_ticks = host::steal_ticks().saturating_sub(steal_before);

    // Output checks: repeats (and the traced run) agree, the leading
    // epochs match the reference engine, multiproc equals the reactor.
    let dense_digest = measured
        .iter()
        .find(|m| m.workload == Workload::ReactorDense)
        .map(|m| m.untraced[0].digest);
    let mut total = Verdict::default();
    let mut workload_docs = Vec::new();
    let mut probe_values = Vec::new();
    println!();
    for m in &measured {
        let w = m.workload;
        let mut runs = m.untraced.clone();
        runs.push(m.traced.clone());
        let whole_run = dense_digest.filter(|_| w == Workload::Multiproc2Dense);
        let mut verdict = checks::check(&runs, checks::reference_prefix(w, seed), whole_run);
        let accounted = accounted_share(&m.traced);
        if (accounted - 1.0).abs() > 0.01 {
            verdict.problems.push(format!(
                "{}: the trace accounts for {accounted:.4} of its epochs, not 1",
                w.name()
            ));
        }
        verdict.problems.extend(chrome_trace_problem(&harness.trace_path(w)));

        println!(
            "{} — {} warm-up + {} timed epochs, digest {}, {} of {} operations failed",
            w.name(),
            w.warmup_epochs(),
            w.full_epochs(),
            to_hex(m.untraced[0].digest),
            verdict.failed,
            verdict.attempted
        );
        let mut e2e = Vec::new();
        for metric in END_TO_END {
            let samples: Vec<f64> = m.untraced.iter().map(metric.of).collect();
            let s = Summary::of(&samples)
                .ok_or_else(|| format!("{}: not a number", metric.name))?;
            println!(
                "  {:<42} {:>16.6} {:<6} q1 {:.6}  q3 {:.6}  n {}",
                metric.name, s.median, metric.unit, s.q1, s.q3, s.n
            );
            e2e.push(summary_json(&metric, &samples, &s));
        }
        let (probe_layers, run_layers): (Vec<LayerValue>, Vec<LayerValue>) =
            layer_values(&m.traced, m.timed_s_median(), &readings)?
                .into_iter()
                .partition(|v| v.probe);
        for v in &run_layers {
            println!("  {:<42} {:>16.6} {:<6} n 1 (traced run)", v.name, v.value, v.unit);
        }
        // The probes read the same on every workload; keep one copy.
        probe_values = probe_layers;
        workload_docs.push(Json::obj([
            ("name", Json::from(w.name())),
            ("why", Json::from(w.why())),
            ("engine", Json::from(w.engine())),
            ("warmup_epochs", Json::from(w.warmup_epochs())),
            ("timed_epochs", Json::from(w.full_epochs())),
            ("trajectory_digest", Json::from(to_hex(m.untraced[0].digest))),
            ("ops_attempted", Json::from(verdict.attempted)),
            ("ops_failed", Json::from(verdict.failed)),
            ("end_to_end", Json::Arr(e2e)),
            // What the timings above were made from, per untraced repeat:
            // seconds as measured and the host's slowdown beside them.
            ("as_measured", as_measured_json(&m.untraced)),
            ("per_layer", layer_json(&run_layers)),
        ]));
        total.absorb(verdict);
    }
    println!("layer probes — medians of {} passes", probes::PASSES);
    for v in &probe_values {
        println!("  {:<42} {:>16.6} {:<6} n {}", v.name, v.value, v.unit, probes::PASSES);
    }
    for problem in &total.problems {
        println!("CHECK FAILED: {problem}");
    }

    let results = Json::obj([
        ("schema", Json::from(SCHEMA)),
        ("seed", Json::from(seed.to_string())),
        ("repeats", Json::from(REPEATS)),
        ("host", host),
        ("steal_ticks", Json::from(steal_ticks)),
        ("ops_attempted", Json::from(total.attempted)),
        ("ops_failed", Json::from(total.failed)),
        ("workloads", Json::Arr(workload_docs)),
        ("probes", layer_json(&probe_values)),
        ("problems", Json::from(total.problems.clone())),
    ]);
    let path = harness.out_dir().join("results.json");
    std::fs::write(&path, results.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "\nresults: {}  traces: {}/trace_<workload>.json",
        path.display(),
        harness.out_dir().display()
    );
    if only.is_none() {
        let layers = Path::new(env!("CARGO_MANIFEST_DIR")).join("LAYERS.md");
        std::fs::write(&layers, layers_md(&measured, &readings, seed))
            .map_err(|e| format!("cannot write {}: {e}", layers.display()))?;
        println!("layer table: {}", layers.display());
    }
    println!(
        "{} of {} operations failed; steal ticks during the run: {steal_ticks}",
        total.failed, total.attempted
    );
    Ok(total.correct())
}

/// One row of the per-epoch budget of a reactor workload.
struct BudgetRow {
    layer: &'static str,
    how: String,
    ms: f64,
}

/// Prices one epoch of a reactor workload from the probes: unit cost ×
/// the count the workload pays per epoch.
fn reactor_budget(m: &Measured, probes: &Readings) -> Vec<BudgetRow> {
    let p = |name: &str| probes.get(name).copied().unwrap_or(0.0);
    let n = m.workload.population() as f64;
    let trace = m.traced.trace.as_ref();
    let msgs = n * trace.map_or(0.0, |t| t.msgs_per_peer_epoch);
    let (kernel_ns, kernel_how) = if m.workload.helpers() == 64 {
        (
            p("core.slab.select_ns") + p("core.slab.observe_ns"),
            "n × (core.slab.select_ns + core.slab.observe_ns), m = 64",
        )
    } else {
        (p("core.slab.observe_ns_m8"), "n × core.slab.observe_ns_m8")
    };
    // The machine probes run m = 8 learners; their learner part is priced
    // by the kernel row, so it is taken out here.
    let peer_ns = (p("net.machines.peer_tick_ns") + p("net.machines.peer_rate_ns")
        - p("core.slab.observe_ns_m8"))
    .max(0.0);
    vec![
        BudgetRow { layer: "kernel + slab", how: kernel_how.to_string(), ms: n * kernel_ns * 1e-6 },
        BudgetRow {
            layer: "machines",
            how: "n × (peer_tick_ns + peer_rate_ns − observe_ns_m8 + helper_settle_ns_per_req) + coord_epoch_us".to_string(),
            ms: n * (peer_ns + p("net.machines.helper_settle_ns_per_req")) * 1e-6
                + p("net.machines.coord_epoch_us") * 1e-3,
        },
        BudgetRow {
            layer: "mailbox",
            how: format!("{msgs:.0} messages × reactor.mailbox.ns_per_msg"),
            ms: msgs * p("reactor.mailbox.ns_per_msg") * 1e-6,
        },
        BudgetRow {
            layer: "wheel",
            how: "1 barrier timer × (schedule_ns + fire_ns)".to_string(),
            ms: (p("reactor.wheel.schedule_ns") + p("reactor.wheel.fire_ns")) * 1e-6,
        },
    ]
}

/// The contents of `LAYERS.md`: where an epoch goes, layer by layer.
fn layers_md(measured: &[Measured], probes: &Readings, seed: u64) -> String {
    let mut md = String::new();
    let p = |name: &str| probes.get(name).copied().unwrap_or(0.0);
    let _ = writeln!(
        md,
        "# Where the time goes, layer by layer\n\n\
         Generated by `rths_benchmark run` (seed {seed}, {REPEATS} untraced repeats per workload, one traced\n\
         run, probes at the median of {} passes) on {} logical CPUs. Do not edit: run the\n\
         benchmark again. The probes are the authoritative per-layer numbers; the `rths_obs`\n\
         shares are shown beside them as a cross-check (its `mailbox_drain` contains the actor\n\
         handlers, i.e. the kernel and the machines, and the bridge, codec and sockets emit no\n\
         spans).\n",
        probes::PASSES,
        host::nproc()
    );
    let _ =
        writeln!(md, "## Unit costs: kernel → slab → mailbox → wheel → wire → socket/fence\n");
    let _ = writeln!(md, "| layer | probe | cost |\n|---|---|---|");
    let dictionary = metrics::per_layer();
    for (layer, name) in [
        ("kernel", "math.kernels.scale_ns_per_elem"),
        ("kernel", "math.kernels.axpy_ns_per_elem"),
        ("kernel", "math.kernels.regret_max_ns_per_elem"),
        ("slab sweep", "core.slab.select_ns"),
        ("slab sweep", "core.slab.observe_ns"),
        ("slab sweep", "core.slab.observe_ns_m8"),
        ("store sweep", "sim.store.choose_ns_per_peer"),
        ("store sweep", "sim.store.observe_ns_per_peer"),
        ("store compaction", "sim.store.spawn_remove_ns_per_peer"),
        ("mailbox", "reactor.mailbox.ns_per_msg"),
        ("mailbox", "reactor.mailbox.ns_per_msg_t2"),
        ("wheel", "reactor.wheel.schedule_ns"),
        ("wheel", "reactor.wheel.fire_ns"),
        ("machines", "net.machines.peer_tick_ns"),
        ("machines", "net.machines.peer_rate_ns"),
        ("machines", "net.machines.helper_settle_ns_per_req"),
        ("machines", "net.machines.coord_epoch_us"),
        ("bridge", "reactor.bridge.round_us"),
        ("bridge", "reactor.bridge.ns_per_remote_msg"),
        ("bridge", "reactor.bridge.fence_wait_frac"),
        ("wire", "net.wire.encode_ns_per_msg"),
        ("wire", "net.wire.decode_ns_per_msg"),
        ("wire", "net.wire.bytes_per_msg"),
        ("socket", "net.socket.frame_rtt_us"),
        ("socket", "net.socket.mb_per_s"),
    ] {
        let unit = dictionary.iter().find(|m| m.name == name).map_or("", |m| m.unit);
        let _ = writeln!(md, "| {layer} | `{name}` | {:.3} {unit} |", p(name));
    }
    for m in measured {
        let w = m.workload;
        let epoch_ms = m.timed_s_median() * 1e3 / w.full_epochs() as f64;
        let trace = m.traced.trace.as_ref();
        let _ = writeln!(
            md,
            "\n## `{}` — {:.2} ms per epoch (median untraced run{} ÷ {} epochs)\n",
            w.name(),
            epoch_ms,
            if w.follows_reference() { " at reference speed" } else { ", as measured," },
            w.full_epochs()
        );
        if matches!(w, Workload::ReactorDense | Workload::ReactorWide) {
            let _ =
                writeln!(md, "From the probes (unit cost × count per epoch ÷ epoch time):\n");
            let _ =
                writeln!(md, "| layer | priced as | ms per epoch | share |\n|---|---|---|---|");
            let rows = reactor_budget(m, probes);
            let mut priced = 0.0;
            for row in &rows {
                priced += row.ms;
                let _ = writeln!(
                    md,
                    "| {} | {} | {:.3} | {:.1} % |",
                    row.layer,
                    row.how,
                    row.ms,
                    100.0 * row.ms / epoch_ms
                );
            }
            let _ = writeln!(
                md,
                "| remainder | epoch − Σ rows: what no probe prices (cache effects of running the layers together, not apart; staging and timer flush) | {:.3} | {:.1} % |",
                epoch_ms - priced,
                100.0 * (epoch_ms - priced) / epoch_ms
            );
        }
        if let Some(t) = trace {
            let _ = writeln!(
                md,
                "\nFrom the traced run (`rths_obs`, innermost span wins; sums to 1):\n"
            );
            let _ = writeln!(md, "| phase | share of the timed epochs |\n|---|---|");
            for phase in rths_obs::Phase::ALL {
                let share = t.phase_frac[phase.index()];
                if share > 0.0005 {
                    let _ = writeln!(md, "| `{}` | {:.1} % |", phase.name(), 100.0 * share);
                }
            }
            let _ = writeln!(md, "| unattributed | {:.1} % |", 100.0 * t.unattributed_frac);
            let _ = writeln!(
                md,
                "\nCPU kept busy during the timed region: {:.2} cores of {} used by the workload; tracing overhead {:+.1} %.",
                m.traced.cpu_s / m.traced.timed_s.max(1e-12),
                w.threads(),
                100.0
                    * (m.traced.at_reference_speed(m.traced.timed_s)
                        / m.timed_s_median().max(1e-12)
                        - 1.0)
            );
        }
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_files_are_validated() {
        let dir =
            std::env::temp_dir().join(format!("rths_benchmark_suite_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let mut log = crate::spans::SpanLog::new(1);
        let run = log.open("run", None);
        log.close(run);
        std::fs::write(&path, log.to_chrome_trace().render()).unwrap();
        assert_eq!(chrome_trace_problem(&path), None);
        std::fs::write(&path, "{\"traceEvents\":[]}").unwrap();
        assert!(chrome_trace_problem(&path).is_some());
        std::fs::write(&path, "{\"traceEvents\":[{\"ph\":\"X\"}]}").unwrap();
        assert!(chrome_trace_problem(&path).is_some());
        std::fs::write(&path, "not json").unwrap();
        assert!(chrome_trace_problem(&path).is_some());
        assert!(chrome_trace_problem(&dir.join("missing.json")).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
