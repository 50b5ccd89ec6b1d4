//! One cell of the driver's grid: one workload, one seed, one trace
//! setting, one JSON line.
//!
//! `rths_benchmark cell --workload W --seed N --seconds S --trace 0|1` is
//! the command `BENCHMARK.json` names. Untraced, a cell is [`REPEATS`]
//! fresh-process repeats whose timed regions add up to `S` seconds, and it
//! prints the median of every end-to-end metric (timings at reference
//! speed, see `refkernel`). Traced, it is one untraced
//! and one traced repeat of `S / 2` seconds each (at most full size) plus
//! the layer probes, and it prints every per-layer metric. Either way the outputs are checked
//! (`checks`) and the last line of standard output is the result object.

use std::collections::BTreeMap;

use rths_obs::Phase;

use crate::checks::{self, Verdict};
use crate::child::Harness;
use crate::json::Json;
use crate::metrics::{self, LayerValue, END_TO_END};
use crate::probes::{self, Readings};
use crate::repeat::{Record, Spec};
use crate::stats::{self, Summary};
use crate::workload::{Workload, FULL_SECONDS};

/// Repeats in an untraced cell: each pays its own set-up in its own
/// process, and the cell reports the median.
pub const REPEATS: usize = 5;

/// What the driver asks for.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// The workload.
    pub workload: Workload,
    /// The seed every input is made from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Per-layer metrics (traced) or end-to-end metrics (untraced).
    pub trace: bool,
}

/// The per-layer values of one traced run: its `engine.*` and `obs.*`
/// metrics, joined with the probes' readings. `untraced_timed_s` is the
/// untraced timed region at reference speed.
///
/// # Errors
///
/// Names a metric of the dictionary that nothing measured.
pub fn layer_values(
    traced: &Record,
    untraced_timed_s: f64,
    probes: &Readings,
) -> Result<Vec<LayerValue>, String> {
    let trace = traced.trace.as_ref().ok_or("the traced repeat carries no trace")?;
    let mut values: BTreeMap<String, f64> = probes.clone();
    let mut put = |name: &str, value: f64| values.insert(name.to_string(), value);
    put("engine.construct_s", trace.construct_s);
    put("engine.warmup_s", trace.warmup_s);
    put("engine.finish_s", trace.finish_s);
    put("engine.epoch_ms_p50", stats::median(&trace.epoch_ms));
    // With too few epochs for a tail, the slowest epoch stands in.
    put(
        "engine.epoch_ms_tail",
        stats::tail(&trace.epoch_ms)
            .unwrap_or_else(|| trace.epoch_ms.iter().copied().fold(0.0, f64::max)),
    );
    put("engine.msgs_per_peer_epoch", trace.msgs_per_peer_epoch);
    put("engine.rounds_per_epoch", trace.rounds_per_epoch);
    put("engine.cpu_util", traced.cpu_s / traced.timed_s.max(1e-12));
    put("engine.rss_max_mb", traced.rss_max_kb as f64 / 1024.0);
    put("engine.worst_regret_tail", traced.worst_regret_tail);
    put("host.slowdown", traced.slowdown());
    put(
        "obs.overhead_frac",
        traced.at_reference_speed(traced.timed_s) / untraced_timed_s.max(1e-12) - 1.0,
    );
    put("obs.unattributed_frac", trace.unattributed_frac);
    for phase in Phase::ALL {
        put(&metrics::phase_metric(phase), trace.phase_frac[phase.index()]);
    }
    metrics::per_layer()
        .into_iter()
        .map(|m| match values.get(&m.name) {
            Some(&value) if value.is_finite() => {
                Ok(LayerValue { probe: m.is_probe(), name: m.name, unit: m.unit, value })
            }
            Some(v) => Err(format!("per-layer metric {} is not a number: {v}", m.name)),
            None => Err(format!("per-layer metric {} was not measured", m.name)),
        })
        .collect()
}

/// Share of the traced run's timed epochs that the `rths_obs` phases and
/// the uncovered remainder account for; 1 when the trace accounts for
/// itself.
pub fn accounted_share(traced: &Record) -> f64 {
    traced
        .trace
        .as_ref()
        .map_or(0.0, |t| t.phase_frac.iter().sum::<f64>() + t.unattributed_frac)
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(verdict: &Verdict, values: &[(String, f64, &str)]) -> Json {
    Json::obj([
        ("correct", Json::from(verdict.correct())),
        ("attempted", Json::from(verdict.attempted)),
        ("failed", Json::from(verdict.failed)),
        (
            "metrics",
            Json::Obj(
                values
                    .iter()
                    .map(|(name, value, unit)| {
                        let entry = Json::obj([
                            ("value", Json::from(*value)),
                            ("unit", Json::from(*unit)),
                        ]);
                        (name.clone(), entry)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_problems(verdict: &Verdict) {
    for problem in &verdict.problems {
        println!("CHECK FAILED: {problem}");
    }
}

fn untraced(harness: &Harness, request: Request) -> Result<Json, String> {
    let w = request.workload;
    let spec = Spec {
        workload: w,
        seed: request.seed,
        timed_epochs: w.timed_epochs(request.seconds / REPEATS as f64),
        traced: false,
    };
    println!(
        "{}: seed {}, {REPEATS} repeats × ({} warm-up + {} timed epochs), each in a fresh process",
        w.name(),
        spec.seed,
        w.warmup_epochs(),
        spec.timed_epochs
    );
    let records = (0..REPEATS).map(|_| harness.repeat(spec)).collect::<Result<Vec<_>, _>>()?;
    let verdict = checks::check(&records, checks::reference_prefix(w, spec.seed), None);
    let mut values = Vec::with_capacity(END_TO_END.len());
    for m in END_TO_END.iter().filter(|m| m.seed_stable) {
        let samples: Vec<f64> = records.iter().map(m.of).collect();
        let s = Summary::of(&samples).ok_or_else(|| format!("{}: not a number", m.name))?;
        println!(
            "  {:<20} {:>16.6} {:<5} (median of {}; quartiles {:.6} .. {:.6})",
            m.name, s.median, m.unit, s.n, s.q1, s.q3
        );
        values.push((m.name.to_string(), s.median, m.unit));
    }
    let slowdowns: Vec<f64> = records.iter().map(Record::slowdown).collect();
    println!(
        "  host.slowdown        {:>16.6} ratio (median; {})",
        stats::median(&slowdowns),
        if w.follows_reference() {
            "divided out of peer_epochs_per_s and of wall_s after set-up"
        } else {
            "not divided out: the timings above are as measured"
        }
    );
    println!("  trajectory_digest    {}", crate::digest::to_hex(records[0].digest));
    print_problems(&verdict);
    Ok(result_line(&verdict, &values))
}

fn traced(harness: &Harness, request: Request) -> Result<Json, String> {
    let w = request.workload;
    let mut spec = Spec {
        workload: w,
        seed: request.seed,
        // Two runs share the time asked for; more than a full-size run
        // each would only repeat what the untraced cells measure.
        timed_epochs: w.timed_epochs((request.seconds / 2.0).min(FULL_SECONDS)),
        traced: false,
    };
    println!(
        "{}: seed {}, one untraced and one traced run of {} warm-up + {} timed epochs, then the layer probes",
        w.name(),
        spec.seed,
        w.warmup_epochs(),
        spec.timed_epochs
    );
    let plain = harness.repeat(spec)?;
    spec.traced = true;
    let runs = [plain, harness.repeat(spec)?];
    let [plain, stepped] = &runs;
    let readings = probes::run_all();
    // Equal digests here are `obs_neutrality` seen from outside: stepping
    // the engine and switching `rths_obs` on changed no bit.
    let mut verdict = checks::check(&runs, checks::reference_prefix(w, spec.seed), None);
    let accounted = accounted_share(stepped);
    if (accounted - 1.0).abs() > 0.01 {
        verdict.problems.push(format!(
            "{}: the trace accounts for {accounted:.4} of its epochs, not 1",
            w.name()
        ));
    }
    let mut out = Vec::new();
    for v in layer_values(stepped, plain.at_reference_speed(plain.timed_s), &readings)? {
        println!("  {:<42} {:>16.6} {}", v.name, v.value, v.unit);
        out.push((v.name, v.value, v.unit));
    }
    println!("  trace: {}", harness.trace_path(w).display());
    print_problems(&verdict);
    Ok(result_line(&verdict, &out))
}

/// Runs one cell and prints its result object as the last line.
///
/// # Errors
///
/// A repeat could not be run or a metric could not be measured; nothing
/// that looks like a result has been printed then.
pub fn run(harness: &Harness, request: Request) -> Result<(), String> {
    let line =
        if request.trace { traced(harness, request)? } else { untraced(harness, request)? };
    println!("{}", line.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repeat::TraceRecord;

    fn traced_record() -> Record {
        let mut phase_frac = vec![0.0; Phase::COUNT];
        phase_frac[Phase::MailboxDrain.index()] = 0.75;
        phase_frac[Phase::MailboxSort.index()] = 0.125;
        Record {
            spec: Spec {
                workload: Workload::ReactorWide,
                seed: 1,
                timed_epochs: 12,
                traced: true,
            },
            epochs_seen: 16,
            bad_epochs: 0,
            setup_s: 0.5,
            timed_s: 2.2,
            wall_s: 3.0,
            peer_epochs: 1_199_904,
            peak_rss_kb: 204_800,
            rss_max_kb: 102_400,
            cpu_s: 1.1,
            ref_blocks: 120_000,
            ref_s: 0.06552,
            welfare_tail_kbps: 1.0,
            worst_regret_tail: 1.0,
            fairness_jain: 1.0,
            digest: 1,
            prefix_digest: 2,
            trace: Some(TraceRecord {
                construct_s: 0.25,
                warmup_s: 0.125,
                finish_s: 0.0625,
                epoch_ms: (1..=12).map(f64::from).collect(),
                msgs_per_peer_epoch: 5.0,
                rounds_per_epoch: 6.0,
                phase_frac,
                unattributed_frac: 0.125,
                obs_spans: 99,
            }),
        }
    }

    fn probe_readings() -> Readings {
        metrics::per_layer()
            .into_iter()
            .filter(metrics::PerLayer::is_probe)
            .map(|m| (m.name, 1.5))
            .collect()
    }

    #[test]
    fn layer_values_cover_the_dictionary_in_order() {
        let values = layer_values(&traced_record(), 2.0, &probe_readings()).unwrap();
        let names: Vec<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(values.iter().map(|v| v.name.clone()).collect::<Vec<_>>(), names);
        let get = |name: &str| values.iter().find(|v| v.name == name).unwrap().value;
        assert_eq!(get("engine.epoch_ms_p50"), 6.5);
        // Twelve epochs: the second smallest has ten beyond it.
        assert_eq!(get("engine.epoch_ms_tail"), 2.0);
        assert_eq!(get("engine.cpu_util"), 0.5);
        assert_eq!(get("engine.rss_max_mb"), 100.0);
        assert_eq!(get("engine.worst_regret_tail"), 1.0);
        // 0.06552 s for 120,000 blocks is 546 ns a block against
        // `reactor_wide`'s 455: the host ran a fifth slow, and the overhead
        // is priced with that taken out (2.2 s ÷ 1.2 against 2.0 s
        // untraced).
        assert!((get("host.slowdown") - 1.2).abs() < 1e-12);
        assert!((get("obs.overhead_frac") - (2.2 / 1.2 / 2.0 - 1.0)).abs() < 1e-12);
        assert_eq!(get("obs.mailbox_drain_frac"), 0.75);
        assert_eq!(get("obs.churn_frac"), 0.0);
        assert_eq!(get("reactor.wheel.fire_ns"), 1.5);
        assert!((accounted_share(&traced_record()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_probe_that_measured_nothing_is_an_error_not_a_zero() {
        let mut readings = probe_readings();
        readings.remove("net.wire.bytes_per_msg");
        let err = layer_values(&traced_record(), 2.0, &readings).unwrap_err();
        assert!(err.contains("net.wire.bytes_per_msg"), "{err}");
        let mut untraced = traced_record();
        untraced.trace = None;
        assert!(layer_values(&untraced, 2.0, &probe_readings()).is_err());
        assert_eq!(accounted_share(&untraced), 0.0);
    }

    #[test]
    fn the_result_line_has_exactly_the_contracted_keys() {
        let verdict = Verdict { attempted: 48, failed: 0, problems: Vec::new() };
        let line = result_line(&verdict, &[("wall_s".to_string(), 1.25, "s")]);
        assert_eq!(
            line.render(),
            r#"{"correct":true,"attempted":48,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
        let failed = Verdict { attempted: 48, failed: 16, problems: vec!["x".to_string()] };
        assert_eq!(result_line(&failed, &[]).get("correct"), Some(&Json::Bool(false)));
    }
}
