//! One repeat of one workload, in this process.
//!
//! The harness runs every repeat in a fresh child process of itself (a
//! second in-process construction would reuse warm pages), so this module
//! is what `rths_benchmark repeat ...` executes: build the configuration,
//! construct the engine, warm up, run the timed region, aggregate the
//! outcome, digest it — each step a span of the harness's own log — and
//! hand the parent one [`Record`].
//!
//! With `traced` set the timed region is stepped one epoch per call (each
//! an `epoch[i]` span), `rths_obs` is switched on, and the program's own
//! spans are hung under the harness span that contains them. Stepping and
//! tracing are both trajectory-neutral; the parent checks that by digest.
//!
//! Between the steps of every repeat, traced or not, the harness runs
//! bursts of its reference kernel (`refkernel`): they say how fast the host
//! was during this very run. Their time is taken out of every timing the
//! record carries, and the record carries their totals beside it.

use rths_math::stats::jain_index;
use rths_net::multiproc::peak_rss_kb;
use rths_net::{run_multiproc, NetOutcome, ReactorRuntime};
use rths_obs::{self as obs, Phase, TraceReport};
use rths_sim::{MultiChannelSystem, System};

use crate::digest::{self, trajectory_digest};
use crate::host;
use crate::json::Json;
use crate::refkernel::{self, RefKernel, ARENA_BYTES};
use crate::spans::{attribute, Classed, SpanId, SpanLog};
use crate::workload::{self, Workload, MIGRATE_BLOCK, MIGRATE_VIEWERS};

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Seed of every random stream of the run.
    pub seed: u64,
    /// Epochs in the timed region.
    pub timed_epochs: u64,
    /// Step the timed region and record spans.
    pub traced: bool,
}

impl Spec {
    /// Epochs the outcome must contain: warm-up plus timed.
    pub fn epochs_expected(&self) -> u64 {
        self.workload.warmup_epochs() + self.timed_epochs
    }
}

/// What only a traced repeat measures: the `engine.*` and `obs.*`
/// per-layer metrics of its workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Engine construction (for multiproc: the 0-epoch call).
    pub construct_s: f64,
    /// Warm-up epochs (for multiproc: call entry to the first timed
    /// epoch, which contains spawn, handshake and a second construction).
    pub warmup_s: f64,
    /// Outcome aggregation after the last epoch.
    pub finish_s: f64,
    /// Duration of every timed epoch, in order (ms).
    pub epoch_ms: Vec<f64>,
    /// Protocol messages per peer-epoch (0 for the simulator engines).
    pub msgs_per_peer_epoch: f64,
    /// Reactor rounds per timed epoch (0 for the simulator engines).
    pub rounds_per_epoch: f64,
    /// Share of the timed epochs' wall time attributed to each
    /// `rths_obs::Phase`, innermost span first, in `Phase::ALL` order.
    pub phase_frac: Vec<f64>,
    /// Share of the timed epochs' wall time no `rths_obs` span covers.
    pub unattributed_frac: f64,
    /// `rths_obs` spans recorded.
    pub obs_spans: usize,
}

/// What one repeat reports to its parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// What ran.
    pub spec: Spec,
    /// Epochs the outcome's series actually hold.
    pub epochs_seen: u64,
    /// Epochs whose welfare sample is not a finite, non-negative number.
    pub bad_epochs: u64,
    /// Everything before the timed region: configuration, construction,
    /// warm-up (for multiproc: the 0-epoch `run_multiproc` call). This and
    /// the two timings below are seconds as measured on this host, the
    /// reference kernel's bursts excluded.
    pub setup_s: f64,
    /// The timed region.
    pub timed_s: f64,
    /// Configuration build to aggregated outcome.
    pub wall_s: f64,
    /// Σ population over the timed epochs.
    pub peer_epochs: u64,
    /// Peak resident set, kB, summed over the processes of the run.
    pub peak_rss_kb: u64,
    /// Largest single-process peak resident set, kB.
    pub rss_max_kb: u64,
    /// CPU seconds used during the timed region, children included.
    pub cpu_s: f64,
    /// Blocks of the reference kernel run between the run's steps.
    pub ref_blocks: u64,
    /// Seconds those blocks took (part of none of the timings above).
    pub ref_s: f64,
    /// Mean welfare over the last quarter of the epochs (kbps).
    pub welfare_tail_kbps: f64,
    /// Mean worst empirical regret over the last quarter of the epochs.
    pub worst_regret_tail: f64,
    /// Jain index of the per-peer lifetime mean rates.
    pub fairness_jain: f64,
    /// Digest of the welfare, regret and server-load series.
    pub digest: u64,
    /// Digest of their first `check_prefix` epochs.
    pub prefix_digest: u64,
    /// Present on traced repeats.
    pub trace: Option<TraceRecord>,
}

/// The series and scalars every engine's outcome exposes.
struct EngineOutcome {
    welfare: Vec<f64>,
    regret: Vec<f64>,
    server_load: Vec<f64>,
    fairness: f64,
    /// Per-epoch population, when it varies.
    population: Option<Vec<f64>>,
    /// Control + data messages of the whole run (0 for the simulators).
    messages: u64,
    /// Peak RSS per process of the run, kB.
    rss_kb: Vec<u64>,
}

impl EngineOutcome {
    fn from_net(out: NetOutcome, rss_kb: Vec<u64>) -> Self {
        Self {
            welfare: out.metrics.welfare.values().to_vec(),
            regret: out.metrics.worst_empirical_regret.values().to_vec(),
            server_load: out.metrics.server_load.values().to_vec(),
            fairness: jain_index(&out.peer_mean_rates),
            population: None,
            messages: out.messages.control + out.messages.data,
            rss_kb,
        }
    }
}

/// Where the steps of a run sit in the span log.
struct Marks {
    /// `setup.construct` (multiproc: the 0-epoch call).
    construct: SpanId,
    /// End of set-up = start of the timed region (ns).
    timed: SpanId,
    /// Warm-up interval (ns).
    warmup: (u64, u64),
    /// One interval per timed epoch; empty on untraced repeats.
    epochs: Vec<(u64, u64)>,
    /// Outcome aggregation interval (ns).
    finish: (u64, u64),
    /// CPU seconds used inside the timed region, the bursts excluded.
    cpu_s: f64,
    /// Seconds of reference-kernel bursts before the timed region.
    ref_before_s: f64,
    /// Seconds of reference-kernel bursts inside the timed region.
    ref_inside_s: f64,
}

/// What [`timed_region`] measured.
struct Timed {
    /// The `timed` span.
    span: SpanId,
    /// One interval per timed epoch; empty on untraced repeats.
    epochs: Vec<Interval>,
    /// CPU seconds used inside the region, the bursts excluded.
    cpu_s: f64,
    /// Seconds of reference-kernel bursts before the region.
    ref_before_s: f64,
    /// Seconds of reference-kernel bursts inside the region.
    ref_inside_s: f64,
}

impl Marks {
    /// The marks of an in-process engine: every step is a harness span.
    fn of_spans(
        log: &SpanLog,
        construct: SpanId,
        warmup: SpanId,
        timed: Timed,
        finish: SpanId,
    ) -> Self {
        Self {
            construct,
            timed: timed.span,
            warmup: span_interval(log, warmup),
            epochs: timed.epochs,
            finish: span_interval(log, finish),
            cpu_s: timed.cpu_s,
            ref_before_s: timed.ref_before_s,
            ref_inside_s: timed.ref_inside_s,
        }
    }
}

/// Log-relative time at which `rths_obs` pinned its origin.
type ObsOrigin = u64;

/// A `(start, end)` pair of log-relative nanoseconds.
type Interval = (u64, u64);

fn begin_obs(log: &SpanLog, name: &str) -> ObsOrigin {
    obs::begin_run(name);
    log.now_ns()
}

/// What the timed region asks of an engine.
enum Act<'a> {
    /// Run this many epochs.
    Epochs(u64),
    /// A chunk of epochs has ended `done` epochs into the region: do what
    /// the workload does between chunks, as a child span of `timed`.
    ChunkDone { log: &'a mut SpanLog, timed: SpanId, done: u64 },
}

/// Runs the timed region as one span, in chunks of `chunk` epochs with an
/// [`Act::ChunkDone`] after each. Untraced, a chunk is one call into the
/// engine; traced, every epoch is its own call and its own `epoch[i]`
/// child span. After every chunk the reference kernel runs one burst per
/// epoch of the chunk, outside every span.
fn timed_region(
    log: &mut SpanLog,
    run: SpanId,
    spec: &Spec,
    chunk: u64,
    kernel: &mut RefKernel,
    mut engine: impl FnMut(Act<'_>),
) -> Timed {
    let cpu0 = host::cpu_seconds();
    let ref0 = kernel.mark();
    let timed = log.open("timed", Some(run));
    let mut epochs = Vec::new();
    let mut done = 0;
    while done < spec.timed_epochs {
        let n = chunk.min(spec.timed_epochs - done);
        if spec.traced {
            for i in done..done + n {
                let e = log.open(format!("epoch[{i}]"), Some(timed));
                engine(Act::Epochs(1));
                log.close(e);
                epochs.push(span_interval(log, e));
            }
        } else {
            engine(Act::Epochs(n));
        }
        // The same pattern traced and untraced: how much of its arena the
        // kernel finds in the cache depends on what ran since its last
        // burst.
        kernel.bursts(n);
        done += n;
        engine(Act::ChunkDone { log: &mut *log, timed, done });
    }
    log.close(timed);
    let ref_inside_s = kernel.mark().since(ref0).secs;
    Timed {
        span: timed,
        epochs,
        cpu_s: host::cpu_seconds() - cpu0 - ref_inside_s,
        ref_before_s: ref0.secs,
        ref_inside_s,
    }
}

/// Bursts at a step boundary outside the timed region (before and after
/// construction, after the outcome): enough to price a step that cannot be
/// interleaved.
const BOUNDARY_BURSTS: u64 = 2;
/// Bursts around each `run_multiproc` call, which runs as one piece.
const MULTIPROC_BURSTS: u64 = 10;

fn span_interval(log: &SpanLog, id: SpanId) -> (u64, u64) {
    (log.get(id).start_ns, log.get(id).end_ns)
}

fn run_reactor(
    log: &mut SpanLog,
    run: SpanId,
    spec: &Spec,
    kernel: &mut RefKernel,
) -> (EngineOutcome, Marks, ObsOrigin) {
    let origin = begin_obs(log, spec.workload.name());
    kernel.bursts(BOUNDARY_BURSTS);
    let config =
        log.time("setup.config", Some(run), || workload::net_config(spec.workload, spec.seed));
    let construct = log.open("setup.construct", Some(run));
    let mut rt = ReactorRuntime::new(config);
    log.close(construct);
    kernel.bursts(BOUNDARY_BURSTS);
    let warmup = log.open("warmup", Some(run));
    rt.run_epochs(spec.workload.warmup_epochs());
    log.close(warmup);
    kernel.bursts(spec.workload.warmup_epochs());
    // `run_epochs(1)` is the same protocol work as one epoch of
    // `run_epochs(n)`, so the region is stepped and a burst follows every
    // epoch.
    let timed = timed_region(log, run, spec, 1, kernel, |act| {
        if let Act::Epochs(n) = act {
            rt.run_epochs(n);
        }
    });
    let finish = log.open("finish", Some(run));
    let out = rt.finish();
    log.close(finish);
    kernel.bursts(BOUNDARY_BURSTS);
    let marks = Marks::of_spans(log, construct, warmup, timed, finish);
    (EngineOutcome::from_net(out, vec![peak_rss_kb()]), marks, origin)
}

fn run_multiproc2(
    log: &mut SpanLog,
    run: SpanId,
    spec: &Spec,
    kernel: &mut RefKernel,
) -> (EngineOutcome, Marks, ObsOrigin) {
    let processes = spec.workload.threads();
    // Each call runs as one piece on both cores, so the host's speed is
    // sampled around the calls, not inside them.
    kernel.bursts(MULTIPROC_BURSTS);
    let config =
        log.time("setup.config", Some(run), || workload::net_config(spec.workload, spec.seed));
    // Users pay spawn + handshake + construction on every run and cannot
    // separate them from the epochs, so set-up is priced by a call that
    // runs none.
    let construct = log.open("setup.spawn0", Some(run));
    let idle = run_multiproc(config.clone(), 0, processes);
    log.close(construct);
    assert_eq!(idle.outcome.epochs, 0, "a 0-epoch call ran epochs");
    kernel.bursts(MULTIPROC_BURSTS);
    let ref_before_s = kernel.mark().secs;
    let cpu0 = host::cpu_seconds();
    // `run_multiproc` begins the obs run itself, first thing.
    let origin = log.now_ns();
    let timed = log.open("timed", Some(run));
    let report =
        run_multiproc(config.with_trace(spec.traced), spec.epochs_expected(), processes);
    log.close(timed);
    let cpu_s = host::cpu_seconds() - cpu0;
    kernel.bursts(MULTIPROC_BURSTS);
    let end = log.get(timed).end_ns;
    // Warm-up, epochs and finish happen inside the one call; a traced
    // repeat recovers them from the epoch tags of rank 0's spans (see
    // `multiproc_epochs`).
    let marks = Marks {
        construct,
        timed,
        warmup: (end, end),
        epochs: Vec::new(),
        finish: (end, end),
        cpu_s,
        ref_before_s,
        ref_inside_s: 0.0,
    };
    let rss_kb = report.rss_kb.clone();
    (EngineOutcome::from_net(report.outcome, rss_kb), marks, origin)
}

fn run_multichannel(
    log: &mut SpanLog,
    run: SpanId,
    spec: &Spec,
    kernel: &mut RefKernel,
) -> (EngineOutcome, Marks, ObsOrigin) {
    let origin = begin_obs(log, spec.workload.name());
    kernel.bursts(BOUNDARY_BURSTS);
    let config =
        log.time("setup.config", Some(run), || workload::multichannel_config(spec.seed));
    let construct = log.open("setup.construct", Some(run));
    let mut sys = MultiChannelSystem::new(config);
    log.close(construct);
    kernel.bursts(BOUNDARY_BURSTS);
    let warmup = log.open("warmup", Some(run));
    sys.run(spec.workload.warmup_epochs());
    log.close(warmup);
    kernel.bursts(spec.workload.warmup_epochs());
    let total = spec.timed_epochs;
    // `run(n)` aggregates an outcome over all 400,000 viewers per call, so
    // an untraced run keeps the issue's `run(8)` blocks and eight bursts
    // follow each.
    let timed = timed_region(log, run, spec, MIGRATE_BLOCK, kernel, |act| match act {
        Act::Epochs(n) => {
            sys.run(n);
        }
        // A popularity shift between blocks: viewers leave channel 0 for
        // a channel that rotates with the block index.
        Act::ChunkDone { log, timed, done } if done < total => {
            let block = done / MIGRATE_BLOCK - 1;
            log.time(&format!("migrate[{block}]"), Some(timed), || {
                sys.migrate_viewers(0, 1 + block as usize % 99, MIGRATE_VIEWERS);
            });
        }
        Act::ChunkDone { .. } => {}
    });
    let finish = log.open("finish", Some(run));
    let out = sys.outcome();
    log.close(finish);
    kernel.bursts(BOUNDARY_BURSTS);
    let marks = Marks::of_spans(log, construct, warmup, timed, finish);
    let outcome = EngineOutcome {
        welfare: out.welfare.values().to_vec(),
        regret: out.worst_empirical_regret.values().to_vec(),
        server_load: out.server_load.values().to_vec(),
        fairness: out.viewer_fairness,
        population: None,
        messages: 0,
        rss_kb: vec![peak_rss_kb()],
    };
    (outcome, marks, origin)
}

fn run_churn(
    log: &mut SpanLog,
    run: SpanId,
    spec: &Spec,
    kernel: &mut RefKernel,
) -> (EngineOutcome, Marks, ObsOrigin) {
    let origin = begin_obs(log, spec.workload.name());
    kernel.bursts(BOUNDARY_BURSTS);
    let config = log.time("setup.config", Some(run), || workload::churn_config(spec.seed));
    let construct = log.open("setup.construct", Some(run));
    let mut sys = System::new(config);
    log.close(construct);
    kernel.bursts(BOUNDARY_BURSTS);
    let warmup = log.open("warmup", Some(run));
    for _ in 0..spec.workload.warmup_epochs() {
        sys.step_epoch();
    }
    log.close(warmup);
    kernel.bursts(spec.workload.warmup_epochs());
    // The engine's API is one epoch per call; a burst follows each.
    let timed = timed_region(log, run, spec, 1, kernel, |act| {
        if let Act::Epochs(n) = act {
            for _ in 0..n {
                sys.step_epoch();
            }
        }
    });
    let finish = log.open("finish", Some(run));
    let out = sys.outcome();
    log.close(finish);
    kernel.bursts(BOUNDARY_BURSTS);
    let marks = Marks::of_spans(log, construct, warmup, timed, finish);
    let outcome = EngineOutcome {
        fairness: out.metrics.long_run_fairness(),
        welfare: out.metrics.welfare.values().to_vec(),
        regret: out.metrics.worst_empirical_regret.values().to_vec(),
        server_load: out.metrics.server_load.values().to_vec(),
        population: Some(out.metrics.population.values().to_vec()),
        messages: 0,
        rss_kb: vec![peak_rss_kb()],
    };
    (outcome, marks, origin)
}

/// Mean of the last quarter (at least one) of `series`; 0 when empty.
pub fn tail_quarter_mean(series: &[f64]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let window = (series.len() / 4).max(1);
    let tail = &series[series.len() - window..];
    tail.iter().sum::<f64>() / window as f64
}

/// Epochs whose welfare sample is not a finite, non-negative number.
pub fn bad_epochs(welfare: &[f64]) -> u64 {
    welfare.iter().filter(|w| !(w.is_finite() && **w >= 0.0)).count() as u64
}

/// The multiproc call is one span to the harness, but rank 0's reactor
/// rounds carry the epoch in flight as a tag: epoch `e` runs from the
/// first span tagged `e` to the first tagged `e + 1` (the last one to its
/// own last span's end). Returns the `(warm-up, timed epochs, finish)`
/// intervals, or `None` when the tags do not cover the run.
fn multiproc_epochs(
    report: &TraceReport,
    origin: ObsOrigin,
    call: (u64, u64),
    spec: &Spec,
) -> Option<(Interval, Vec<Interval>, Interval)> {
    let total = usize::try_from(spec.epochs_expected()).ok()?;
    let warm = usize::try_from(spec.workload.warmup_epochs()).ok()?;
    let mut first = vec![u64::MAX; total];
    let mut last_end = call.0;
    for s in &report.spans {
        let tag = usize::try_from(s.epoch).ok()?;
        if tag >= total {
            return None;
        }
        let start = origin + s.start_ns;
        first[tag] = first[tag].min(start);
        last_end = last_end.max(start + s.dur_ns);
    }
    if first.contains(&u64::MAX) || first.windows(2).any(|w| w[0] > w[1]) {
        return None;
    }
    let last_end = last_end.min(call.1);
    let epochs = (warm..total)
        .map(|e| (first[e], if e + 1 < total { first[e + 1] } else { last_end }))
        .collect();
    Some(((call.0, first[warm]), epochs, (last_end, call.1)))
}

/// Hangs the program's `rths_obs` spans under the harness spans that
/// contain them and prices the timed epochs phase by phase.
fn fold_trace(
    log: &mut SpanLog,
    report: &TraceReport,
    origin: ObsOrigin,
    mut marks: Marks,
    spec: &Spec,
    outcome: &EngineOutcome,
) -> TraceRecord {
    if spec.workload == Workload::Multiproc2Dense {
        let call = span_interval(log, marks.timed);
        if let Some((warmup, epochs, finish)) = multiproc_epochs(report, origin, call, spec) {
            for (i, &(s, e)) in epochs.iter().enumerate() {
                log.add(format!("epoch[{i}]"), s, e, Some(marks.timed), 0);
            }
            (marks.warmup, marks.epochs, marks.finish) = (warmup, epochs, finish);
        }
    }
    // Innermost harness span containing each obs span's start.
    let harness: Vec<(SpanId, u64, u64)> =
        log.spans().iter().enumerate().map(|(id, s)| (id, s.start_ns, s.end_ns)).collect();
    let mut classed = Vec::with_capacity(report.spans.len());
    for s in &report.spans {
        let start = origin + s.start_ns;
        let end = start + s.dur_ns;
        let parent = harness
            .iter()
            .filter(|&&(_, hs, he)| hs <= start && start < he)
            .max_by_key(|&&(_, hs, _)| hs)
            .map(|&(id, _, _)| id);
        log.add(format!("obs.{}", s.phase.name()), start, end, parent, s.worker);
        classed.push(Classed { start_ns: start, end_ns: end, class: s.phase.index() });
    }
    let windows: Vec<(u64, u64)> = if marks.epochs.is_empty() {
        vec![span_interval(log, marks.timed)]
    } else {
        marks.epochs.clone()
    };
    let total: u64 = windows.iter().map(|(s, e)| e - s).sum();
    let (per_phase, uncovered) = attribute(&windows, &classed, Phase::COUNT);
    let share = |ns: u64| if total == 0 { 0.0 } else { ns as f64 / total as f64 };
    let in_windows = |start: u64| windows.iter().any(|&(s, e)| s <= start && start < e);
    let rounds = classed
        .iter()
        .filter(|c| c.class == Phase::MailboxSort.index() && in_windows(c.start_ns))
        .count();
    let secs = |(s, e): (u64, u64)| (e - s) as f64 * 1e-9;
    let peer_epochs = spec.workload.population() as f64 * spec.epochs_expected() as f64;
    TraceRecord {
        construct_s: log.get(marks.construct).secs(),
        warmup_s: secs(marks.warmup),
        finish_s: secs(marks.finish),
        epoch_ms: marks.epochs.iter().map(|&w| secs(w) * 1e3).collect(),
        msgs_per_peer_epoch: outcome.messages as f64 / peer_epochs,
        rounds_per_epoch: rounds as f64 / spec.timed_epochs as f64,
        phase_frac: per_phase.into_iter().map(share).collect(),
        unattributed_frac: share(uncovered),
        obs_spans: report.spans.len(),
    }
}

/// Runs one repeat and returns its record and span log.
pub fn run(spec: Spec) -> (Record, SpanLog) {
    // One id per run, carried by every span of its log; 48 bits, so it
    // survives the trace file's JSON numbers.
    let mut id = digest::Fnv::default();
    id.bytes(spec.workload.name().as_bytes());
    id.bytes(&spec.seed.to_le_bytes());
    id.bytes(&spec.timed_epochs.to_le_bytes());
    let run_id = id.finish() >> 16;
    let mut log = SpanLog::new(run_id);
    let mut kernel = RefKernel::new();
    let _obs_on = spec.traced.then(|| obs::scoped_enable(true));
    let run = log.open("run", None);
    let (mut outcome, marks, origin) =
        rths_par::with_threads(spec.workload.threads(), || match spec.workload {
            Workload::ReactorDense | Workload::ReactorWide => {
                run_reactor(&mut log, run, &spec, &mut kernel)
            }
            Workload::Multiproc2Dense => run_multiproc2(&mut log, run, &spec, &mut kernel),
            Workload::SimMultichannel => run_multichannel(&mut log, run, &spec, &mut kernel),
            Workload::SimChurnImpaired => run_churn(&mut log, run, &spec, &mut kernel),
        });
    // The run ends where the outcome is in hand; digesting is the
    // harness's own work and stays outside `wall_s`.
    let outcome_at = log.now_ns();
    let reference = kernel.mark();
    // The first entry is this process, and its peak holds the reference
    // kernel's arena from before the run to after it: the harness's own
    // memory, not the program's.
    if let Some(own) = outcome.rss_kb.first_mut() {
        *own = own.saturating_sub(ARENA_BYTES as u64 / 1024);
    }
    let digest_span = log.open("digest", Some(run));
    let series = [&outcome.welfare[..], &outcome.regret[..], &outcome.server_load[..]];
    let digest = trajectory_digest(series, usize::MAX);
    let prefix = usize::try_from(spec.workload.check_prefix()).unwrap_or(usize::MAX);
    let prefix_digest = trajectory_digest(series, prefix);
    log.close(digest_span);
    log.close(run);

    let warm = usize::try_from(spec.workload.warmup_epochs()).unwrap_or(usize::MAX);
    let peer_epochs = match &outcome.population {
        Some(population) => population.iter().skip(warm).sum::<f64>() as u64,
        None => spec.workload.population() as u64 * spec.timed_epochs,
    };
    let run_start = log.get(run).start_ns;
    let timed_span = log.get(marks.timed).clone();
    let cpu_s = marks.cpu_s;
    let (ref_before_s, ref_inside_s) = (marks.ref_before_s, marks.ref_inside_s);
    let trace = spec.traced.then(|| {
        let report = obs::take_report();
        fold_trace(&mut log, &report, origin, marks, &spec, &outcome)
    });
    let record = Record {
        spec,
        epochs_seen: outcome
            .welfare
            .len()
            .min(outcome.regret.len())
            .min(outcome.server_load.len()) as u64,
        bad_epochs: bad_epochs(&outcome.welfare),
        setup_s: (timed_span.start_ns - run_start) as f64 * 1e-9 - ref_before_s,
        timed_s: timed_span.secs() - ref_inside_s,
        wall_s: (outcome_at - run_start) as f64 * 1e-9 - reference.secs,
        peer_epochs,
        peak_rss_kb: outcome.rss_kb.iter().sum(),
        rss_max_kb: outcome.rss_kb.iter().copied().max().unwrap_or(0),
        cpu_s,
        ref_blocks: reference.blocks,
        ref_s: reference.secs,
        welfare_tail_kbps: tail_quarter_mean(&outcome.welfare),
        worst_regret_tail: tail_quarter_mean(&outcome.regret),
        fairness_jain: outcome.fairness,
        digest,
        prefix_digest,
        trace,
    };
    (record, log)
}

impl TraceRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("construct_s", Json::from(self.construct_s)),
            ("warmup_s", Json::from(self.warmup_s)),
            ("finish_s", Json::from(self.finish_s)),
            ("epoch_ms", Json::from(self.epoch_ms.clone())),
            ("msgs_per_peer_epoch", Json::from(self.msgs_per_peer_epoch)),
            ("rounds_per_epoch", Json::from(self.rounds_per_epoch)),
            ("phase_frac", Json::from(self.phase_frac.clone())),
            ("unattributed_frac", Json::from(self.unattributed_frac)),
            ("obs_spans", Json::from(self.obs_spans)),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        let num = |key: &str| v.get(key).and_then(Json::as_f64);
        let list = |key: &str| -> Option<Vec<f64>> {
            v.get(key)?.as_array()?.iter().map(Json::as_f64).collect()
        };
        Some(Self {
            construct_s: num("construct_s")?,
            warmup_s: num("warmup_s")?,
            finish_s: num("finish_s")?,
            epoch_ms: list("epoch_ms")?,
            msgs_per_peer_epoch: num("msgs_per_peer_epoch")?,
            rounds_per_epoch: num("rounds_per_epoch")?,
            phase_frac: list("phase_frac").filter(|f| f.len() == Phase::COUNT)?,
            unattributed_frac: num("unattributed_frac")?,
            obs_spans: usize::try_from(v.get("obs_spans")?.as_u64()?).ok()?,
        })
    }
}

impl Record {
    /// The record as the one JSON line a repeat child prints.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.spec.workload.name())),
            // Seeds and digests are full 64-bit values: as text, since a
            // JSON number is a double.
            ("seed", Json::from(self.spec.seed.to_string())),
            ("timed_epochs", Json::from(self.spec.timed_epochs)),
            ("traced", Json::from(self.spec.traced)),
            ("epochs_seen", Json::from(self.epochs_seen)),
            ("bad_epochs", Json::from(self.bad_epochs)),
            ("setup_s", Json::from(self.setup_s)),
            ("timed_s", Json::from(self.timed_s)),
            ("wall_s", Json::from(self.wall_s)),
            ("peer_epochs", Json::from(self.peer_epochs)),
            ("peak_rss_kb", Json::from(self.peak_rss_kb)),
            ("rss_max_kb", Json::from(self.rss_max_kb)),
            ("cpu_s", Json::from(self.cpu_s)),
            ("ref_blocks", Json::from(self.ref_blocks)),
            ("ref_s", Json::from(self.ref_s)),
            ("welfare_tail_kbps", Json::from(self.welfare_tail_kbps)),
            ("worst_regret_tail", Json::from(self.worst_regret_tail)),
            ("fairness_jain", Json::from(self.fairness_jain)),
            ("digest", Json::from(digest::to_hex(self.digest))),
            ("prefix_digest", Json::from(digest::to_hex(self.prefix_digest))),
            ("trace", self.trace.as_ref().map_or(Json::Null, TraceRecord::to_json)),
        ])
    }

    /// Parses a record back; `None` when a field is missing or mistyped.
    pub fn from_json(v: &Json) -> Option<Self> {
        let num = |key: &str| v.get(key).and_then(Json::as_f64);
        let count = |key: &str| v.get(key).and_then(Json::as_u64);
        let hex = |key: &str| {
            v.get(key).and_then(Json::as_str).and_then(|s| u64::from_str_radix(s, 16).ok())
        };
        let trace = match v.get("trace")? {
            Json::Null => None,
            t => Some(TraceRecord::from_json(t)?),
        };
        Some(Self {
            spec: Spec {
                workload: Workload::from_name(v.get("workload")?.as_str()?)?,
                seed: v.get("seed")?.as_str()?.parse().ok()?,
                timed_epochs: count("timed_epochs")?,
                traced: v.get("traced")?.as_bool()?,
            },
            epochs_seen: count("epochs_seen")?,
            bad_epochs: count("bad_epochs")?,
            setup_s: num("setup_s")?,
            timed_s: num("timed_s")?,
            wall_s: num("wall_s")?,
            peer_epochs: count("peer_epochs")?,
            peak_rss_kb: count("peak_rss_kb")?,
            rss_max_kb: count("rss_max_kb")?,
            cpu_s: num("cpu_s")?,
            ref_blocks: count("ref_blocks")?,
            ref_s: num("ref_s")?,
            welfare_tail_kbps: num("welfare_tail_kbps")?,
            worst_regret_tail: num("worst_regret_tail")?,
            fairness_jain: num("fairness_jain")?,
            digest: hex("digest")?,
            prefix_digest: hex("prefix_digest")?,
            trace,
        })
    }

    /// How much slower than the reference speed the host ran during this
    /// run, by the reference kernel's bursts between its steps.
    pub fn slowdown(&self) -> f64 {
        let nominal = self.spec.workload.reference_block_ns();
        refkernel::slowdown(self.ref_blocks, self.ref_s, nominal)
    }

    /// `seconds` of this run's epochs at reference speed: divided by the
    /// run's slowdown where the workload follows the reference kernel, as
    /// measured where it does not.
    pub fn at_reference_speed(&self, seconds: f64) -> f64 {
        if self.spec.workload.follows_reference() {
            seconds / self.slowdown()
        } else {
            seconds
        }
    }

    /// Timed peer-epochs per second at reference speed.
    pub fn peer_epochs_per_s(&self) -> f64 {
        self.peer_epochs as f64 / self.at_reference_speed(self.timed_s).max(1e-12)
    }

    /// The run end to end: set-up as measured (construction and first-touch
    /// page faults are the operating system's work and do not follow the
    /// reference kernel), everything after it at reference speed.
    pub fn wall_at_reference_speed(&self) -> f64 {
        self.setup_s + self.at_reference_speed(self.wall_s - self.setup_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(traced: bool) -> Record {
        Record {
            spec: Spec {
                workload: Workload::ReactorWide,
                seed: u64::MAX - 3,
                timed_epochs: 67,
                traced,
            },
            epochs_seen: 71,
            bad_epochs: 0,
            setup_s: 0.25,
            timed_s: 3.5,
            wall_s: 3.875,
            peer_epochs: 6_699_464,
            peak_rss_kb: 123_456,
            rss_max_kb: 123_456,
            cpu_s: 3.25,
            ref_blocks: 400_000,
            ref_s: 0.182,
            welfare_tail_kbps: 6400.5,
            worst_regret_tail: 0.125,
            fairness_jain: 0.999,
            digest: 0xdead_beef_0123_4567,
            prefix_digest: 7,
            trace: traced.then(|| TraceRecord {
                construct_s: 0.125,
                warmup_s: 0.25,
                finish_s: 0.5,
                epoch_ms: vec![50.0, 52.5],
                msgs_per_peer_epoch: 5.0,
                rounds_per_epoch: 6.0,
                phase_frac: (0..Phase::COUNT).map(|i| i as f64 / 256.0).collect(),
                unattributed_frac: 0.03125,
                obs_spans: 1234,
            }),
        }
    }

    #[test]
    fn records_survive_the_trip_to_the_parent() {
        for traced in [false, true] {
            let record = sample(traced);
            let line = record.to_json().render();
            assert!(!line.contains('\n'));
            let back = Record::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, record);
        }
        // 0.182 s for 400,000 blocks is `reactor_wide`'s 455 ns a block:
        // reference speed.
        assert!((sample(false).slowdown() - 1.0).abs() < 1e-12);
        assert!((sample(false).peer_epochs_per_s() - 6_699_464.0 / 3.5).abs() < 1e-3);
        assert!((sample(false).wall_at_reference_speed() - 3.875).abs() < 1e-9);
        // A host a quarter slower after set-up: the same run reads the
        // same at reference speed.
        let slow = Record {
            timed_s: 3.5 * 1.25,
            wall_s: 0.25 + 3.625 * 1.25,
            ref_s: 0.182 * 1.25,
            ..sample(false)
        };
        assert!((slow.slowdown() - 1.25).abs() < 1e-12);
        assert!((slow.peer_epochs_per_s() - sample(false).peer_epochs_per_s()).abs() < 1e-3);
        assert!((slow.at_reference_speed(slow.timed_s) - 3.5).abs() < 1e-9);
        assert!((slow.wall_at_reference_speed() - 3.875).abs() < 1e-9);
        // A workload that does not follow the kernel reads as measured.
        let mut multiproc = slow.clone();
        multiproc.spec.workload = Workload::Multiproc2Dense;
        assert_eq!(multiproc.at_reference_speed(multiproc.timed_s), multiproc.timed_s);
        assert_eq!(multiproc.wall_at_reference_speed(), multiproc.wall_s);
        // A record with a field missing is refused, not defaulted.
        let Json::Obj(mut pairs) = sample(false).to_json() else { unreachable!() };
        pairs.retain(|(k, _)| k != "digest");
        assert!(Record::from_json(&Json::Obj(pairs)).is_none());
    }

    #[test]
    fn tail_mean_takes_the_last_quarter() {
        assert_eq!(tail_quarter_mean(&[]), 0.0);
        assert_eq!(tail_quarter_mean(&[3.0]), 3.0);
        assert_eq!(tail_quarter_mean(&[9.0, 9.0, 9.0, 1.0, 2.0, 3.0, 4.0, 6.0]), 5.0);
        assert_eq!(bad_epochs(&[1.0, 0.0, -0.5, f64::NAN, f64::INFINITY, 2.0]), 3);
    }

    #[test]
    fn multiproc_epochs_come_from_the_epoch_tags() {
        let spec = Spec {
            workload: Workload::Multiproc2Dense,
            seed: 1,
            timed_epochs: 2,
            traced: true,
        };
        // 4 warm-up + 2 timed epochs, each 100 ns apart starting at 1000,
        // two spans per epoch; the obs origin sits 500 ns into the log.
        let mut report = TraceReport::empty("t");
        for e in 0..6u64 {
            for k in 0..2u64 {
                report.spans.push(obs::SpanRecord {
                    phase: Phase::MailboxDrain,
                    epoch: e,
                    worker: 1,
                    start_ns: 500 + e * 100 + k * 40,
                    dur_ns: 30,
                });
            }
        }
        let (warmup, epochs, finish) =
            multiproc_epochs(&report, 500, (600, 2000), &spec).unwrap();
        assert_eq!(warmup, (600, 1400));
        assert_eq!(epochs, vec![(1400, 1500), (1500, 1570)]);
        assert_eq!(finish, (1570, 2000));
        // A tag beyond the run, or an epoch with no span, is not guessed at.
        report.spans[0].epoch = 9;
        assert!(multiproc_epochs(&report, 500, (600, 2000), &spec).is_none());
        report.spans[0].epoch = 1;
        assert!(multiproc_epochs(&report, 500, (600, 2000), &spec).is_none());
    }
}
