//! The metric dictionary: every metric the benchmark prints, with its unit,
//! its direction, and — for the end-to-end ones — the bound by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` at the
//! repository root is generated from these tables (`rths_benchmark
//! manifest`) and a unit test holds the two together.

use rths_obs::Phase;

use crate::json::Json;
use crate::repeat::Record;
use crate::workload::Workload;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What it measures.
    pub what: &'static str,
    /// Whether the metric holds still when the seed changes. The driver
    /// behind `BENCHMARK.json` gives every run another seed and refuses a
    /// metric whose spread over them exceeds its bound, so only these are
    /// listed there; `run` and `compare` work at one seed and use all.
    pub seed_stable: bool,
    /// How to read it off one repeat.
    pub of: fn(&Record) -> f64,
}

/// The seven end-to-end metrics, per workload, each the median of the
/// repeats of a run.
///
/// The timing bounds are as wide as this host needs, not as narrow as one
/// would like: its last-level cache is shared with other tenants, and the
/// DRAM-bound workloads drift by ten per cent and more over minutes (see
/// the README's host caveat). The bounds of the outcome statistics cover
/// their spread over seeds (`welfare_tail_kbps` moves 5–8 % with the draw
/// of `reactor_wide`'s eight helper chains); at one seed they repeat to
/// the bit, and the digest is the sharper check.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "peer_epochs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "work completed per second: Σ population over the timed epochs ÷ timed wall seconds; at reference speed (the seconds divided by the run's host.slowdown) everywhere but on multiproc2_dense, which reads as measured",
        seed_stable: true,
        of: Record::peer_epochs_per_s,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "one run end to end in a fresh process: configuration, construction, warm-up, timed region, outcome aggregation; setup_s as measured plus the rest at reference speed, as for peer_epochs_per_s",
        seed_stable: true,
        of: Record::wall_at_reference_speed,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "everything before the timed region, as measured: configuration, construction, warm-up epochs (multiproc2_dense: the 0-epoch run_multiproc call)",
        seed_stable: true,
        of: |r| r.setup_s,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        what: "peak resident set (VmHWM) of the run's process, summed over ranks for multiproc2_dense, less the 32 MB arena of the harness's reference kernel",
        seed_stable: true,
        of: |r| r.peak_rss_kb as f64 / 1024.0,
    },
    EndToEnd {
        name: "welfare_tail_kbps",
        unit: "kbps",
        better: Better::Higher,
        bound: 0.25,
        what: "the paper's sustainable-rate claim: mean total delivered rate over the last quarter of the epochs",
        seed_stable: true,
        of: |r| r.welfare_tail_kbps,
    },
    EndToEnd {
        name: "worst_regret_tail",
        unit: "kbps",
        better: Better::Lower,
        bound: 0.25,
        what: "the paper's convergence claim: mean worst-peer empirical regret over the last quarter of the epochs (an extreme-value statistic: it moves 10–25 % with the seed on reactor_wide and sim_multichannel, so the driver gets it as engine.worst_regret_tail, without a bound)",
        seed_stable: false,
        of: |r| r.worst_regret_tail,
    },
    EndToEnd {
        name: "fairness_jain",
        unit: "index",
        better: Better::Higher,
        bound: 0.05,
        what: "the paper's load-spread claim: Jain index of the per-peer lifetime mean rates",
        seed_stable: true,
        of: |r| r.fairness_jain,
    },
];

/// One per-layer metric. A *probe* metric is measured by the harness
/// calling the layer's public functions on inputs shaped like a named
/// workload; an *engine* or *obs* metric comes from the traced run of the
/// workload at hand.
#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    /// Name, as printed: `crate.module.metric`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// What it measures.
    pub what: String,
    /// The end-to-end metric it should move, and on which workload —
    /// written down before measuring.
    pub moves: &'static str,
}

fn layer(
    name: &str,
    unit: &'static str,
    better: Better,
    what: &str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name: name.to_string(), unit, better, what: what.to_string(), moves }
}

impl PerLayer {
    /// Whether a layer probe measures this metric (the same on every
    /// workload), as opposed to the traced run of one workload.
    pub fn is_probe(&self) -> bool {
        !["engine.", "obs.", "host."].iter().any(|run| self.name.starts_with(run))
    }
}

/// One measured per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerValue {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// What was measured.
    pub value: f64,
    /// Whether a probe measured it (see [`PerLayer::is_probe`]).
    pub probe: bool,
}

/// Name of the `obs.<phase>_frac` metric of `phase`.
pub fn phase_metric(phase: Phase) -> String {
    format!("obs.{}_frac", phase.name())
}

/// Every per-layer metric, in printing order: the layer probes bottom-up
/// (kernel → slab → … → socket), then the engine of the traced workload,
/// then the `rths_obs` phase shares.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    const DENSE: &str =
        "peer_epochs_per_s on reactor_dense and multiproc2_dense; flat on reactor_wide";
    const SLAB: &str =
        "peer_epochs_per_s on reactor_dense (most of an epoch) and sim_churn_impaired";
    const SLAB_MEM: &str =
        "setup_s and peak_rss_mb everywhere; peer_epochs_per_s on sim_churn_impaired";
    const PAR: &str = "peer_epochs_per_s on sim_multichannel only";
    const STORE: &str =
        "peer_epochs_per_s on sim_multichannel (sweep) and sim_churn_impaired (compaction); none on the reactor workloads";
    const IMPAIR: &str = "peer_epochs_per_s on sim_churn_impaired only";
    const MAILBOX: &str = "peer_epochs_per_s on reactor_wide (most) and reactor_dense (some)";
    const WIDE: &str = "peer_epochs_per_s on reactor_wide";
    const MULTIPROC: &str = "peer_epochs_per_s on multiproc2_dense only; flat on reactor_dense";
    const SPLIT: &str = "splits setup_s and wall_s of the traced workload";
    const OBS: &str = "explains peer_epochs_per_s of the traced workload; the shares sum to 1";
    let mut all = vec![
        layer("math.kernels.scale_ns_per_elem", "ns", Lower, "kernels::scale over 64-element slices walking a 64 MB arena", DENSE),
        layer("math.kernels.axpy_ns_per_elem", "ns", Lower, "kernels::axpy, same walk", DENSE),
        layer("math.kernels.regret_max_ns_per_elem", "ns", Lower, "kernels::shifted_regret_max, same walk", DENSE),
        layer("core.slab.select_ns", "ns", Lower, "SlabCols::select_action per slot, m = 64, 19,936 slots", SLAB),
        layer("core.slab.observe_ns", "ns", Lower, "one SlabCols::decay + observe_predecayed per slot, m = 64, 19,936 slots", SLAB),
        layer("core.slab.observe_ns_m8", "ns", Lower, "the same at m = 8, 99,992 slots", WIDE),
        layer("core.slab.max_regret_ns", "ns", Lower, "SlabCols::max_regret per slot, m = 64", "none of the five (track_estimate is off); guards the metrics path"),
        layer("core.slab.columns_touched_per_observe", "count", Lower, "T columns the batched decay touches per slot (decay's return value)", SLAB),
        layer("core.slab.alloc_release_ns", "ns", Lower, "LearnerSlab::alloc + release of a played slot through the free list", SLAB_MEM),
        layer("core.slab.reserve_ms", "ms", Lower, "LearnerSlab::with_capacity(64, 19,936) and its drop", SLAB_MEM),
        layer("stoch.bandwidth.step_ns", "ns", Lower, "one step of the paper's Markov bandwidth process", "none measurably (guards helper-dynamics regressions)"),
        layer("par.dispatch_us_t1", "us", Lower, "par_sharded over 400,000 items with a trivial body, 1 shard", PAR),
        layer("par.dispatch_us_t2", "us", Lower, "the same with 2 shards: one scoped spawn + join", PAR),
        layer("sim.store.choose_ns_per_peer", "ns", Lower, "PeerStore::choose_phase per peer, 100,000 peers on 100 channels × 10 helpers", STORE),
        layer("sim.store.observe_ns_per_peer", "ns", Lower, "PeerStore::observe_phase per peer, same store", STORE),
        layer("sim.store.spawn_remove_ns_per_peer", "ns", Lower, "PeerStore::remove_slots + spawn per churned peer, 8,000 peers × 32 helpers, 1 % per pass", STORE),
        layer("sim.regret.record_ns_per_peer", "ns", Lower, "regret::record_counted per peer-epoch, 8,000 peers × 32 arms", STORE),
        layer("sim.regret.folds_per_peer_epoch", "count", Lower, "stretch folds per peer-epoch in that sweep", STORE),
        layer("sim.impairment.is_lost_ns", "ns", Lower, "ImpairmentPlan::is_lost per link-epoch under the workload's plan", IMPAIR),
        layer("sim.impairment.shape_ns", "ns", Lower, "LinkShaper::shape per link-epoch under the workload's plan", IMPAIR),
        layer("sim.impairment.loss_frac", "frac", Lower, "share of link-epochs the plan drops (a property of the plan, not a speed)", IMPAIR),
        layer("sim.spec.parse_us", "us", Lower, "ScenarioSpec::from_toml_str over the six scenarios/*.toml, per file", "none of the five; guards the run_scenario user path"),
        layer("sim.multichannel.migrate_us_per_viewer", "us", Lower, "MultiChannelSystem::migrate_viewers per viewer moved, 40,000 viewers", "peer_epochs_per_s on sim_multichannel only"),
        layer("reactor.mailbox.ns_per_msg", "ns", Lower, "Reactor<ProbeActor> with 99,992 leaves + 8 hubs replaying the 5-message epoch pattern with empty handlers, 1 thread", MAILBOX),
        layer("reactor.mailbox.ns_per_msg_t2", "ns", Lower, "the same with rounds sharded over 2 threads", "none of the five (they run the reactor on 1 thread)"),
        layer("reactor.mailbox.rounds_per_s", "1/s", Higher, "rounds per second in that replay (ReactorStats)", MAILBOX),
        layer("reactor.mailbox.ring_grow_events", "count", Lower, "mailbox-ring reallocations in that replay (ReactorStats)", MAILBOX),
        layer("reactor.mailbox.ring_capacity_hwm", "count", Lower, "largest ring capacity reached, slots (ReactorStats)", "peak_rss_mb on reactor_wide"),
        layer("reactor.wheel.schedule_ns", "ns", Lower, "TimerWheel::schedule per timer, 100,000 timers over 64 ticks", WIDE),
        layer("reactor.wheel.fire_ns", "ns", Lower, "TimerWheel::fire_due per timer fired, same wheel", WIDE),
        layer("reactor.bridge.round_us", "us", Lower, "one lockstep round of two Reactor::partitioned halves under bridge::drive/follow over an in-memory link", MULTIPROC),
        layer("reactor.bridge.ns_per_remote_msg", "ns", Lower, "that replay's wall time per message crossing the partition boundary", MULTIPROC),
        layer("reactor.bridge.fence_wait_frac", "frac", Lower, "share of the controller's wall time spent blocked in recv_reply", MULTIPROC),
        layer("net.wire.encode_ns_per_msg", "ns", Lower, "wire::encode_frame of a Frame::Step carrying 10,000 NetMsg in the epoch's mix, per message", MULTIPROC),
        layer("net.wire.decode_ns_per_msg", "ns", Lower, "wire::decode_frame of the same frame, per message", MULTIPROC),
        layer("net.wire.bytes_per_msg", "B", Lower, "encoded bytes per message of that frame", MULTIPROC),
        layer("net.socket.frame_rtt_us", "us", Lower, "write_frame + read_frame of a Fence reply and back over UnixStream::pair, two threads", MULTIPROC),
        layer("net.socket.mb_per_s", "MB/s", Higher, "the 10,000-message frame through write_frame/read_frame over UnixStream::pair", MULTIPROC),
        layer("net.machines.peer_tick_ns", "ns", Lower, "PeerMachine::on_tick (slab learner, m = 8)", WIDE),
        layer("net.machines.peer_rate_ns", "ns", Lower, "PeerMachine::on_rate (slab learner, m = 8)", WIDE),
        layer("net.machines.helper_settle_ns_per_req", "ns", Lower, "HelperMachine::on_request + on_settle per request, 12,499 requests per helper", WIDE),
        layer("net.machines.coord_epoch_us", "us", Lower, "CoordinatorMachine: begin_epoch, 99,992 on_selected + on_observed, 8 reports, finish_epoch", WIDE),
        layer("engine.construct_s", "s", Lower, "constructing the workload's engine (multiproc2_dense: the 0-epoch call — spawn, handshake, construction, teardown)", SPLIT),
        layer("engine.warmup_s", "s", Lower, "the warm-up epochs (multiproc2_dense: call entry to the first timed epoch, which holds a spawn and a construction too)", SPLIT),
        layer("engine.finish_s", "s", Lower, "aggregating the outcome after the last epoch (multiproc2_dense: summaries, reaping the worker, finalize)", SPLIT),
        layer("engine.epoch_ms_p50", "ms", Lower, "median timed epoch of the traced run, one engine call per epoch", "peer_epochs_per_s of the traced workload"),
        layer("engine.epoch_ms_tail", "ms", Lower, "the highest epoch-time percentile with ten samples beyond it (p87 at 80 epochs, p95 at 200)", "peer_epochs_per_s of the traced workload, when stalls rather than the typical epoch set it"),
        layer("engine.msgs_per_peer_epoch", "count", Lower, "protocol messages per peer-epoch (MessageTotals); 0 on the simulator engines", MAILBOX),
        layer("engine.rounds_per_epoch", "count", Lower, "reactor rounds per timed epoch (mailbox_sort spans); 0 on the simulator engines", MAILBOX),
        layer("engine.cpu_util", "cores", Higher, "CPU seconds (threads and waited-for children) per wall second of the timed region; 2 − this is what multiproc2_dense and sim_multichannel leave idle", "peer_epochs_per_s on multiproc2_dense and sim_multichannel"),
        layer("engine.rss_max_mb", "MB", Lower, "largest single-process peak resident set of the run", "peak_rss_mb"),
        layer("engine.worst_regret_tail", "kbps", Lower, "the end-to-end worst_regret_tail of the traced run: the seventh end-to-end metric, which varies too much across seeds to carry a bound", "nothing: it is an outcome, listed here so that the driver sees it"),
        layer("host.slowdown", "ratio", Lower, "time per block of the harness's reference kernel, run in bursts between the traced run's epochs, ÷ what a block takes beside that workload at the host's median speed", "nothing of the program: it is the host; peer_epochs_per_s and wall_s have it divided out everywhere but on multiproc2_dense"),
        layer("obs.overhead_frac", "frac", Lower, "traced (stepped, rths_obs on) timed seconds ÷ untraced timed seconds − 1, both at reference speed", "none: it prices the tracing itself"),
        layer("obs.unattributed_frac", "frac", Lower, "share of the timed epochs' wall time no rths_obs span covers", OBS),
    ];
    for phase in Phase::ALL {
        all.push(PerLayer {
            name: phase_metric(phase),
            unit: "frac",
            better: Lower,
            what: format!(
                "share of the timed epochs' wall time whose innermost rths_obs span is `{}`",
                phase.name()
            ),
            moves: OBS,
        });
    }
    all
}

/// The metric dictionary as the Markdown tables `README.md` carries
/// (`rths_benchmark dictionary` prints it; a unit test keeps the README's
/// copy current).
pub fn dictionary_md() -> String {
    use std::fmt::Write as _;
    let mut md = String::from(
        "| end-to-end metric | unit | better | bound | what it measures |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {} % | {} |",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0,
            m.what
        );
    }
    md.push_str(
        "\n| per-layer metric | unit | better | what it measures | should move |\n|---|---|---|---|---|\n",
    );
    for m in per_layer() {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.name(),
            m.what,
            m.moves
        );
    }
    md
}

#[cfg(test)]
/// Whether `name` is a name `BENCHMARK.json` may carry: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn is_plain_name(name: &str) -> bool {
    name.len() <= 64
        && name.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
/// Whether `unit` is a unit `BENCHMARK.json` may carry.
pub fn is_plain_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`):
/// five repeats of three timed seconds each. With set-up, the output
/// checks and the reference kernel's bursts a cell takes 15–20 s when the
/// host is calm and up to half as much again when it is loud (20-second
/// cells were seen to take 37 s), which keeps the driver's 92 runs inside
/// its time cap with a quarter to spare even then. Longer cells would buy
/// nothing: the reference kernel steadies the timings, not the length of
/// a run.
pub const RUN_SECONDS: u64 = 15;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    // A script, not `cargo run`: the multiproc workload needs both of the
    // package's binaries built, and `cargo run` builds only the one it runs.
    let command = ["sh", "benchmark/run.sh", "cell"];
    Json::obj([
        ("command", Json::from(command.to_vec())),
        ("paths", Json::from(vec!["benchmark"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .filter(|w| w.driven())
                    .map(|w| {
                        Json::obj([
                            ("name", Json::from(w.name())),
                            ("why", Json::from(w.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.seed_stable)
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.name())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name.as_str())),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_and_unit_is_plain_and_used_once() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(is_plain_name(w.name()) && seen.insert(w.name().to_string()));
        }
        for m in END_TO_END {
            assert!(is_plain_name(m.name), "{}", m.name);
            assert!(is_plain_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name.to_string()), "{} used twice", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
            assert!(!m.what.is_empty());
        }
        for m in per_layer() {
            assert!(is_plain_name(&m.name), "{}", m.name);
            assert!(is_plain_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
            assert!(!m.what.is_empty() && !m.moves.is_empty());
        }
        assert!(!is_plain_name("") && !is_plain_name(".x") && !is_plain_name("a b"));
        assert!(!is_plain_name(&"x".repeat(65)) && is_plain_name(&"x".repeat(64)));
        assert!(!is_plain_unit("") && !is_plain_unit("peer epochs") && is_plain_unit("MB/s"));
    }

    #[test]
    fn the_dictionary_has_the_contracted_shape() {
        assert_eq!(END_TO_END.len(), 7);
        let unstable: Vec<&str> =
            END_TO_END.iter().filter(|m| !m.seed_stable).map(|m| m.name).collect();
        assert_eq!(unstable, ["worst_regret_tail"]);
        let setup =
            END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // setup_s carries the largest bound: it is the noisiest metric.
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let layers = per_layer();
        assert!(layers.len() <= 128);
        assert_eq!(
            layers.iter().filter(|m| m.name.starts_with("obs.")).count(),
            2 + Phase::COUNT
        );
        for phase in Phase::ALL {
            assert!(layers.iter().any(|m| m.name == phase_metric(phase)));
        }
        for b in [Better::Lower, Better::Higher] {
            assert_eq!(Better::from_name(b.name()), Some(b));
        }
        assert_eq!(Better::from_name("sideways"), None);
    }

    #[test]
    fn the_readme_carries_this_dictionary() {
        let readme = include_str!("../README.md");
        assert!(
            readme.contains(&dictionary_md()),
            "README.md's metric dictionary is stale: paste `rths_benchmark dictionary` into it"
        );
        for w in Workload::ALL {
            assert!(
                readme.contains(&format!("`{}`", w.name())),
                "{} is not in the README",
                w.name()
            );
        }
    }

    #[test]
    fn benchmark_json_is_this_dictionary() {
        let committed =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate it: rths_benchmark manifest > BENCHMARK.json"
        );
        assert!(include_str!("../../BENCHMARK.json").len() <= 64 * 1024);
        let Json::Obj(pairs) = &committed else { panic!("BENCHMARK.json is not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
    }
}
