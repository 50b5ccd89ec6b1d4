//! `rths_obs` — deterministic, dependency-free observability for the
//! RTHS engines: phase-scoped tracing spans, per-shard counters and
//! gauges, fixed-bucket log-scale wall-time histograms, and export to
//! JSONL / Chrome `trace_event` / per-epoch CSV profiles.
//!
//! # The determinism contract
//!
//! Observability is **bit-exact neutral**: a traced run's welfare,
//! regret, and message trajectories are `f64::to_bits`-identical to an
//! untraced run's (the `obs_neutrality` integration suite pins this on
//! the simulator and on the reactor backend). The contract has two
//! halves:
//!
//! 1. **Timing never flows back into the computation.** Spans read the
//!    monotonic clock and write into side buffers; no timer value ever
//!    reaches an RNG draw, a float reduction, or a scheduling decision.
//! 2. **Exports have deterministic shape.** Ordered state (the span
//!    stream) is recorded into per-worker buffers and merged in
//!    **worker-index order** at each join barrier; unordered state
//!    (counters, gauges, histogram buckets) is reduced with commutative,
//!    associative `u64` operators (sum / max), which are merge-order
//!    independent by construction. Wall-time *values* differ run to
//!    run; line structure, event ordering, and column layout do not.
//!
//! The disabled path is near-zero cost: every span/counter site guards
//! on [`enabled`], a single relaxed atomic load, before touching the
//! clock or the registry.
//!
//! # Usage shape
//!
//! Orchestrator-thread phases (the common case):
//!
//! ```
//! use rths_obs::{self as obs, Phase};
//!
//! let _restore = obs::scoped_enable(true);
//! obs::begin_run("demo");
//! let t = obs::span_start();
//! // ... run the choose phase of epoch 3 ...
//! if let Some(t) = t {
//!     obs::span_end(Phase::Choose, 3, t);
//! }
//! let report = obs::take_report();
//! assert_eq!(report.spans.len(), 1);
//! ```
//!
//! Worker-side recording goes through an [`ObsScratch`] owned by each
//! shard's scratch struct; after the join the orchestrator calls
//! [`absorb_scratch`] for each shard **in shard-index order**.
//!
//! Enablement: bins call [`init_from_env`] (the `RTHS_TRACE` variable:
//! unset, empty, `0`, `off`, or `false` mean disabled, anything else
//! enabled); engine knobs (`ScenarioSpec`, `NetConfig`) use
//! [`scoped_enable`] so a traced run inside a larger process restores
//! the prior state on drop.

#![forbid(unsafe_code)]

mod counters;
mod hist;
mod phase;
mod sink;
mod span;

pub use counters::{Counter, Gauge, ObsScratch};
pub use hist::Hist;
pub use phase::Phase;
pub use sink::TraceReport;
pub use span::{SpanBuf, SpanRecord, SpanStart};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A span/counter/histogram collector: the state behind the
/// process-global instance the free functions ([`span_start`],
/// [`counter_add`], [`take_report`], …) use. Owned instances make the
/// merge-determinism properties unit-testable in isolation.
#[derive(Debug)]
struct Registry {
    name: String,
    origin: Option<Instant>,
    spans: Vec<SpanRecord>,
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
    hists: Vec<Hist>,
}

impl Registry {
    /// An empty registry (const, so it can back a `static`).
    const fn new() -> Self {
        Self {
            name: String::new(),
            origin: None,
            spans: Vec::new(),
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            hists: Vec::new(),
        }
    }

    /// Clears all recorded state, names the run, and pins the time
    /// origin to now.
    fn begin(&mut self, name: &str) {
        self.name.clear();
        self.name.push_str(name);
        self.origin = Some(Instant::now());
        self.spans.clear();
        self.counters = [0; Counter::COUNT];
        self.gauges = [0; Gauge::COUNT];
        self.hists.clear();
    }

    fn origin(&mut self) -> Instant {
        *self.origin.get_or_insert_with(Instant::now)
    }

    fn hist_mut(&mut self, phase: Phase) -> &mut Hist {
        if self.hists.is_empty() {
            self.hists.resize(Phase::COUNT, Hist::new());
        }
        &mut self.hists[phase.index()]
    }

    /// Closes `start` as an orchestrator-thread (`worker` 0) span.
    fn push_span(&mut self, phase: Phase, epoch: u64, start: SpanStart) {
        let dur_ns = u64::try_from(start.0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let origin = self.origin();
        let start_ns =
            u64::try_from(start.0.duration_since(origin).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(SpanRecord { phase, epoch, worker: 0, start_ns, dur_ns });
        self.hist_mut(phase).record_ns(dur_ns);
    }

    /// Drains a worker-owned span buffer, tagging each span with
    /// `epoch` and worker index `worker`. Callers drain buffers in
    /// worker-index order — that order is the merged stream's order.
    fn merge_buf(&mut self, worker: u32, epoch: u64, buf: &mut SpanBuf) {
        let origin = self.origin();
        if self.hists.is_empty() {
            self.hists.resize(Phase::COUNT, Hist::new());
        }
        for raw in buf.raw.drain(..) {
            let start_ns =
                u64::try_from(raw.start.duration_since(origin).as_nanos()).unwrap_or(u64::MAX);
            self.spans.push(SpanRecord {
                phase: raw.phase,
                epoch,
                worker,
                start_ns,
                dur_ns: raw.dur_ns,
            });
            self.hists[raw.phase.index()].record_ns(raw.dur_ns);
        }
    }

    /// Adds `v` to counter `c`.
    fn counter_add(&mut self, c: Counter, v: u64) {
        self.counters[c.index()] += v;
    }

    /// Raises gauge `g` to at least `v`.
    fn gauge_max(&mut self, g: Gauge, v: u64) {
        let slot = &mut self.gauges[g.index()];
        if v > *slot {
            *slot = v;
        }
    }

    /// Reduces one worker's [`ObsScratch`] into the registry (counters
    /// summed, gauges maxed, spans merged tagged with `worker` and
    /// `epoch`) and clears the scratch. Call once per shard after a
    /// join, in shard-index order.
    fn absorb(&mut self, worker: u32, epoch: u64, scratch: &mut ObsScratch) {
        for (i, v) in scratch.counts.iter().enumerate() {
            self.counters[i] += v;
        }
        for (i, &v) in scratch.gauges.iter().enumerate() {
            if v > self.gauges[i] {
                self.gauges[i] = v;
            }
        }
        if !scratch.spans.is_empty() {
            self.merge_buf(worker, epoch, &mut scratch.spans);
        }
        scratch.counts = [0; Counter::COUNT];
        scratch.gauges = [0; Gauge::COUNT];
    }

    /// Takes everything recorded so far as a [`TraceReport`], leaving
    /// the registry empty (origin and name reset too).
    fn report(&mut self) -> TraceReport {
        let mut hists = std::mem::take(&mut self.hists);
        if hists.is_empty() {
            hists.resize(Phase::COUNT, Hist::new());
        }
        let report = TraceReport {
            name: std::mem::take(&mut self.name),
            spans: std::mem::take(&mut self.spans),
            counters: self.counters,
            gauges: self.gauges,
            hists,
        };
        self.counters = [0; Counter::COUNT];
        self.gauges = [0; Gauge::COUNT];
        self.origin = None;
        report
    }
}

// ---------------------------------------------------------------------------
// Global enable state + registry
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static CURRENT_EPOCH: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether tracing is currently enabled — one relaxed atomic load; this
/// is the per-span disabled-path cost.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the global enable flag, returning the prior value.
fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::Relaxed)
}

/// RAII restore of the global enable flag: returned by [`scoped_enable`].
#[derive(Debug)]
pub struct EnabledGuard {
    prior: bool,
}

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        ENABLED.store(self.prior, Ordering::Relaxed);
    }
}

/// Enables (or disables) tracing for a scope; the prior state is
/// restored when the guard drops. This is what engine-level knobs
/// (`ScenarioSpec` trace flag, `NetConfig::with_trace`) use, so a
/// traced run embedded in a larger process leaves no residue.
#[must_use = "the guard restores the prior state on drop"]
pub fn scoped_enable(on: bool) -> EnabledGuard {
    EnabledGuard { prior: set_enabled(on) }
}

/// Sets the global flag from the `RTHS_TRACE` environment variable and
/// returns it: unset, empty, `0`, `off`, or `false` mean disabled;
/// anything else enabled. Bins call this once at startup.
pub fn init_from_env() -> bool {
    let on = match std::env::var("RTHS_TRACE") {
        Ok(v) => !matches!(v.to_ascii_lowercase().as_str(), "" | "0" | "off" | "false"),
        Err(_) => false,
    };
    set_enabled(on);
    on
}

/// Tags subsequent epoch-agnostic spans (reactor rounds, `rths_par`
/// dispatch) with `epoch`. The engines set this at each epoch start;
/// layers below the epoch protocol read it via [`current_epoch`].
pub fn set_epoch(epoch: u64) {
    CURRENT_EPOCH.store(epoch, Ordering::Relaxed);
}

/// The epoch tag last set with [`set_epoch`] (0 before any).
pub fn current_epoch() -> u64 {
    CURRENT_EPOCH.load(Ordering::Relaxed)
}

/// Clears the global registry and names the run. Call before a traced
/// run whose report you intend to [`take_report`]. Resets the
/// [`set_epoch`] tag too.
pub fn begin_run(name: &str) {
    set_epoch(0);
    registry().begin(name);
}

/// Drains the global registry into a [`TraceReport`].
pub fn take_report() -> TraceReport {
    registry().report()
}

/// Opens a span: `None` (for free) when tracing is disabled, otherwise
/// a clock capture to close with [`span_end`] or
/// [`SpanBuf::record`].
#[inline]
pub fn span_start() -> Option<SpanStart> {
    if enabled() {
        Some(SpanStart::now())
    } else {
        None
    }
}

/// Closes an orchestrator-thread span into the global registry.
pub fn span_end(phase: Phase, epoch: u64, start: SpanStart) {
    registry().push_span(phase, epoch, start);
}

/// Adds `v` to counter `c` in the global registry (no-op when
/// disabled).
pub fn counter_add(c: Counter, v: u64) {
    if enabled() {
        registry().counter_add(c, v);
    }
}

/// Raises gauge `g` to at least `v` in the global registry (no-op when
/// disabled).
pub fn gauge_max(g: Gauge, v: u64) {
    if enabled() {
        registry().gauge_max(g, v);
    }
}

/// Reduces one worker's [`ObsScratch`] into the global registry and
/// clears it. Call once per shard after a join, in shard-index order.
/// When tracing is disabled the scratch is cleared without touching the
/// registry, so stale deltas never leak into a later traced run.
pub fn absorb_scratch(worker: u32, epoch: u64, scratch: &mut ObsScratch) {
    if scratch.is_empty() {
        return;
    }
    if enabled() {
        registry().absorb(worker, epoch, scratch);
    } else {
        scratch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the process-global enable flag.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_span_start_is_none() {
        let _l = lock();
        let _restore = scoped_enable(false);
        assert!(span_start().is_none());
    }

    #[test]
    fn scoped_enable_restores_prior_state() {
        let _l = lock();
        let _outer = scoped_enable(false);
        {
            let _g = scoped_enable(true);
            assert!(enabled());
        }
        assert!(!enabled());
    }

    #[test]
    fn counter_reduction_is_shard_order_independent() {
        // Three workers' scratches absorbed in every permutation give
        // the same totals and gauge marks: sums and maxes commute.
        let make = || {
            let mut s = [ObsScratch::new(), ObsScratch::new(), ObsScratch::new()];
            s[0].add(Counter::MessagesEnqueued, 5);
            s[1].add(Counter::MessagesEnqueued, 7);
            s[2].add(Counter::StretchFolds, 2);
            s[0].raise(Gauge::RingCapacityHwm, 64);
            s[1].raise(Gauge::RingCapacityHwm, 512);
            s[2].raise(Gauge::RingCapacityHwm, 128);
            s
        };
        let orders: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let mut reports = Vec::new();
        for order in orders {
            let mut reg = Registry::new();
            reg.begin("perm");
            let mut scratches = make();
            for &w in &order {
                reg.absorb(w as u32, 0, &mut scratches[w]);
            }
            let r = reg.report();
            reports.push((r.counters, r.gauges));
        }
        for window in reports.windows(2) {
            assert_eq!(window[0], window[1], "reduction depended on absorb order");
        }
        assert_eq!(reports[0].0[Counter::MessagesEnqueued.index()], 12);
        assert_eq!(reports[0].1[Gauge::RingCapacityHwm.index()], 512);
    }

    #[test]
    fn worker_index_order_merge_is_deterministic() {
        // Two registries fed the same worker buffers in worker-index
        // order produce span streams with identical (phase, epoch,
        // worker) sequences — the shape contract for JSONL/trace_event.
        let run = || {
            let mut reg = Registry::new();
            reg.begin("merge");
            let mut bufs = [SpanBuf::default(), SpanBuf::default()];
            for (w, buf) in bufs.iter_mut().enumerate() {
                for phase in [Phase::SlabDecay, Phase::SlabObserve] {
                    let t = SpanStart::now();
                    buf.record(phase, t);
                    let _ = w;
                }
            }
            for (w, buf) in bufs.iter_mut().enumerate() {
                reg.merge_buf(w as u32 + 1, 3, buf);
            }
            reg.report().spans.iter().map(|s| (s.phase, s.epoch, s.worker)).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![
                (Phase::SlabDecay, 3, 1),
                (Phase::SlabObserve, 3, 1),
                (Phase::SlabDecay, 3, 2),
                (Phase::SlabObserve, 3, 2),
            ]
        );
    }

    #[test]
    fn merge_feeds_histograms() {
        let mut reg = Registry::new();
        reg.begin("hist");
        let mut buf = SpanBuf::default();
        buf.record(Phase::MailboxDrain, SpanStart::now());
        buf.record(Phase::MailboxDrain, SpanStart::now());
        reg.merge_buf(1, 0, &mut buf);
        let t = SpanStart::now();
        reg.push_span(Phase::MailboxDrain, 0, t);
        let report = reg.report();
        assert_eq!(report.hists[Phase::MailboxDrain.index()].count(), 3);
        assert_eq!(report.spans.len(), 3);
    }

    #[test]
    fn global_roundtrip_with_scratch() {
        let _l = lock();
        let _restore = scoped_enable(true);
        begin_run("global");
        let t = span_start().expect("enabled");
        span_end(Phase::Epoch, 0, t);
        counter_add(Counter::MessagesDelivered, 9);
        gauge_max(Gauge::SlabRowsHwm, 77);
        let mut scratch = ObsScratch::new();
        scratch.add(Counter::MessagesDelivered, 1);
        if let Some(t) = span_start() {
            scratch.spans.record(Phase::MailboxDrain, t);
        }
        absorb_scratch(1, 0, &mut scratch);
        assert!(scratch.is_empty());
        let report = take_report();
        assert_eq!(report.name, "global");
        assert_eq!(report.counters[Counter::MessagesDelivered.index()], 10);
        assert_eq!(report.gauges[Gauge::SlabRowsHwm.index()], 77);
        assert_eq!(report.spans.len(), 2);
        assert!(!report.to_jsonl().is_empty());
    }

    #[test]
    fn disabled_absorb_clears_scratch_without_recording() {
        let _l = lock();
        let _restore = scoped_enable(false);
        begin_run("drop");
        let mut scratch = ObsScratch::new();
        scratch.add(Counter::RingGrowEvents, 4);
        absorb_scratch(0, 0, &mut scratch);
        assert!(scratch.is_empty());
        let report = take_report();
        assert_eq!(report.counters[Counter::RingGrowEvents.index()], 0);
    }
}
