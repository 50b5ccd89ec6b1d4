//! The harness's own span log.
//!
//! A traced run records, in memory, one span per step of the run (`run` →
//! `setup.config`, `setup.construct`, `warmup`, `epoch[i]`, `finish`,
//! `digest`): name, start, end, the span that caused it, and one id shared
//! by every span of the run. The program's own `rths_obs` spans are hung
//! under the harness span that contains them as `obs.<phase>` children. The
//! log is written out as a Chrome trace only after the run has ended.

use std::time::Instant;

use crate::clock;
use crate::json::Json;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin (equal to `start_ns` while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Thread lane in the exported trace (0 = the harness thread).
    pub lane: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.dur_ns() as f64 * 1e-9
    }
}

/// An in-memory span log for one run.
#[derive(Debug)]
pub struct SpanLog {
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose spans all carry `run_id`; the origin is now.
    pub fn new(run_id: u64) -> Self {
        Self { run_id, origin: clock::now(), spans: Vec::new() }
    }

    /// Nanoseconds from the origin to now.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(clock::now().duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.add(name, now, now, parent, 0)
    }

    /// Closes `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a child span of `parent`. `f` cannot reach the log, so
    /// a span with children of its own uses [`open`](Self::open) and
    /// [`close`](Self::close) instead.
    pub fn time<R>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span timed elsewhere (the program's `rths_obs` spans).
    pub fn add(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        lane: u32,
    ) -> SpanId {
        self.spans.push(Span { name: name.into(), start_ns, end_ns, parent, lane });
        self.spans.len() - 1
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span `id`.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// The log as a Chrome `trace_event` document (complete events, µs).
    /// Open it at `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_trace(&self) -> Json {
        let us = |ns: u64| ns as f64 / 1000.0;
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::from(s.name.as_str())),
                    (
                        "cat",
                        Json::from(if s.name.starts_with("obs.") {
                            "rths_obs"
                        } else {
                            "harness"
                        }),
                    ),
                    ("ph", Json::from("X")),
                    ("pid", Json::from(0u64)),
                    ("tid", Json::from(u64::from(s.lane))),
                    ("ts", Json::from(us(s.start_ns))),
                    ("dur", Json::from(us(s.dur_ns()))),
                    (
                        "args",
                        Json::obj([
                            ("run", Json::from(self.run_id)),
                            ("span", Json::from(id)),
                            ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("displayTimeUnit", Json::from("ms")), ("traceEvents", Json::Arr(events))])
    }
}

/// One classified interval for [`attribute`].
#[derive(Debug, Clone, Copy)]
pub struct Classed {
    /// Start (ns).
    pub start_ns: u64,
    /// End (ns).
    pub end_ns: u64,
    /// Class index (`< classes`).
    pub class: usize,
}

/// Splits the wall time of `windows` (disjoint intervals) among `classes`
/// span classes: every instant goes to the innermost span covering it —
/// the one that started last, the shorter one on a tie — and to no class
/// when nothing covers it. Returns the nanoseconds per class and the
/// uncovered remainder; together they sum to the windows' total exactly.
///
/// This is self time generalised to spans that arrive flat and from
/// several threads: nested phases do not double-count, and two worker
/// spans that overlap in time share the wall clock instead of adding up.
pub fn attribute(windows: &[(u64, u64)], spans: &[Classed], classes: usize) -> (Vec<u64>, u64) {
    let mut per_class = vec![0u64; classes];
    let mut uncovered = 0u64;
    for &(w_start, w_end) in windows {
        let inside: Vec<&Classed> =
            spans.iter().filter(|s| s.end_ns > w_start && s.start_ns < w_end).collect();
        let mut cuts: Vec<u64> = vec![w_start, w_end];
        for s in &inside {
            cuts.push(s.start_ns.clamp(w_start, w_end));
            cuts.push(s.end_ns.clamp(w_start, w_end));
        }
        cuts.sort_unstable();
        cuts.dedup();
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let innermost = inside
                .iter()
                .filter(|s| s.start_ns <= a && s.end_ns >= b)
                .max_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
            match innermost {
                Some(s) => per_class[s.class] += b - a,
                None => uncovered += b - a,
            }
        }
    }
    (per_class, uncovered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: &[(&str, u64, u64, Option<SpanId>)]) -> SpanLog {
        let mut log = SpanLog::new(7);
        for &(name, s, e, parent) in spans {
            log.add(name, s, e, parent, 0);
        }
        log
    }

    #[test]
    fn open_close_records_monotonic_times() {
        let mut log = SpanLog::new(1);
        let run = log.open("run", None);
        let got = log.time("child", Some(run), || 42);
        log.close(run);
        assert_eq!(got, 42);
        let (run, child) = (log.get(0), log.get(1));
        assert!(run.start_ns <= child.start_ns && child.end_ns <= run.end_ns);
        assert_eq!(child.parent, Some(0));
    }

    #[test]
    fn attribution_is_innermost_and_sums_to_the_window() {
        // Window 0..100. Class 0 wraps 10..90; class 1 nests at 20..40;
        // two class-2 "worker" spans overlap each other at 50..70 and
        // 60..80; nothing covers 0..10 and 90..100.
        let spans = [
            Classed { start_ns: 10, end_ns: 90, class: 0 },
            Classed { start_ns: 20, end_ns: 40, class: 1 },
            Classed { start_ns: 50, end_ns: 70, class: 2 },
            Classed { start_ns: 60, end_ns: 80, class: 2 },
        ];
        let (per_class, uncovered) = attribute(&[(0, 100)], &spans, 3);
        assert_eq!(per_class, vec![80 - 20 - 30, 20, 30]);
        assert_eq!(uncovered, 20);
        assert_eq!(per_class.iter().sum::<u64>() + uncovered, 100);
        // Spans are clipped to each window; time between windows is
        // nobody's.
        let (per_class, uncovered) = attribute(&[(0, 15), (85, 100)], &spans, 3);
        assert_eq!((per_class, uncovered), (vec![10, 0, 0], 20));
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut log =
            log_with(&[("run", 0, 2_500, None), ("obs.choose", 1_000, 2_000, Some(0))]);
        log.spans[1].lane = 2;
        let doc = log.to_chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        let e = &events[1];
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(e.get("dur").and_then(Json::as_f64), Some(1.0));
        assert_eq!(e.get("tid").and_then(Json::as_u64), Some(2));
        assert_eq!(e.get("cat").and_then(Json::as_str), Some("rths_obs"));
        let args = e.get("args").unwrap();
        assert_eq!(args.get("run").and_then(Json::as_u64), Some(7));
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
