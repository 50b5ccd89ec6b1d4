//! Trace export: the [`TraceReport`] a finished run yields, and its
//! JSONL / Chrome `trace_event` / per-epoch CSV projections.
//!
//! All three formats are derived from the same deterministic state
//! (spans in orchestrator-then-worker-index order, counters and gauges
//! reduced with order-independent operators), so two exports of the
//! same report are byte-identical. Wall-time *values* naturally differ
//! between runs; the shape — line structure, event ordering, column
//! layout — does not.

use std::fmt::Write as _;

use crate::counters::{Counter, Gauge};
use crate::hist::Hist;
use crate::phase::Phase;
use crate::span::SpanRecord;

/// Everything one traced run recorded. Produced by
/// [`take_report`](crate::take_report).
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Run label (scenario or bench name; file-name friendly).
    pub name: String,
    /// Every span, in record/merge order: orchestrator spans interleave
    /// with worker spans merged in worker-index order at each barrier.
    pub spans: Vec<SpanRecord>,
    /// Final counter totals, indexed by [`Counter::index`].
    pub counters: [u64; Counter::COUNT],
    /// Final gauge high-water marks, indexed by [`Gauge::index`].
    pub gauges: [u64; Gauge::COUNT],
    /// Per-phase wall-time histograms, indexed by [`Phase::index`].
    pub hists: Vec<Hist>,
}

impl TraceReport {
    /// An empty report with the given name.
    pub fn empty(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            spans: Vec::new(),
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            hists: vec![Hist::new(); Phase::COUNT],
        }
    }

    /// Whether the run recorded nothing at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.iter().all(|&v| v == 0)
            && self.gauges.iter().all(|&v| v == 0)
    }

    // -- JSONL ----------------------------------------------------------

    /// One JSON object per line: every span
    /// (`{"phase":…,"epoch":…,"worker":…,"start_ns":…,"dur_ns":…}`),
    /// then counter totals (`{"counter":…,"value":…}`), gauge marks
    /// (`{"gauge":…,"value":…}`), and per-phase histogram summaries
    /// (`{"hist":…,"count":…,"sum_ns":…,"p50_ns":…,"p99_ns":…}`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"phase\":\"{}\",\"epoch\":{},\"worker\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.phase.name(),
                s.epoch,
                s.worker,
                s.start_ns,
                s.dur_ns
            );
        }
        for c in Counter::ALL {
            let _ = writeln!(
                out,
                "{{\"counter\":\"{}\",\"value\":{}}}",
                c.name(),
                self.counters[c.index()]
            );
        }
        for g in Gauge::ALL {
            let _ = writeln!(
                out,
                "{{\"gauge\":\"{}\",\"value\":{}}}",
                g.name(),
                self.gauges[g.index()]
            );
        }
        for p in Phase::ALL {
            let h = &self.hists[p.index()];
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{{\"hist\":\"{}\",\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                p.name(),
                h.count(),
                h.sum_ns(),
                h.quantile_floor_ns(0.5),
                h.quantile_floor_ns(0.99)
            );
        }
        out
    }

    // -- Chrome trace_event ---------------------------------------------

    /// A Chrome-loadable trace (open with `chrome://tracing` or
    /// <https://ui.perfetto.dev>): one complete (`"ph":"X"`) event per
    /// span, `pid` 0, `tid` = worker index, timestamps in microseconds
    /// relative to the run origin.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"rths\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"epoch\":{}}}}}",
                s.phase.name(),
                s.worker,
                s.start_ns / 1_000,
                s.start_ns % 1_000,
                s.dur_ns / 1_000,
                s.dur_ns % 1_000,
                s.epoch
            );
        }
        out.push_str("]}");
        out
    }

    // -- Per-epoch CSV profile ------------------------------------------

    /// Header names for the per-epoch phase-time column group:
    /// `us_<phase>` for every phase in [`Phase::ALL`] order. The set is
    /// fixed — consumers can rely on every column existing in every
    /// profile regardless of which phases a backend actually ran.
    pub fn profile_headers() -> Vec<String> {
        Phase::ALL.iter().map(|p| format!("us_{}", p.name())).collect()
    }

    /// Per-epoch wall-time totals: for each epoch that recorded at
    /// least one span (ascending), the summed span microseconds per
    /// phase in [`Phase::ALL`] order.
    pub fn epoch_profile(&self) -> Vec<(u64, Vec<u64>)> {
        let mut rows: std::collections::BTreeMap<u64, Vec<u64>> =
            std::collections::BTreeMap::new();
        for s in &self.spans {
            let row = rows.entry(s.epoch).or_insert_with(|| vec![0u64; Phase::COUNT]);
            row[s.phase.index()] += s.dur_ns;
        }
        rows.into_iter()
            .map(|(e, ns)| (e, ns.into_iter().map(|v| v / 1_000).collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceReport {
        let mut r = TraceReport::empty("t");
        r.spans.push(SpanRecord {
            phase: Phase::Choose,
            epoch: 0,
            worker: 0,
            start_ns: 1_500,
            dur_ns: 2_750,
        });
        r.spans.push(SpanRecord {
            phase: Phase::Observe,
            epoch: 1,
            worker: 2,
            start_ns: 9_000,
            dur_ns: 1_000,
        });
        r.counters[Counter::MessagesDelivered.index()] = 42;
        r.gauges[Gauge::RingCapacityHwm.index()] = 1024;
        r.hists[Phase::Choose.index()].record_ns(2_750);
        r
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let text = sample().to_jsonl();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
        }
        assert!(text.contains("\"phase\":\"choose\""));
        assert!(text.contains("\"counter\":\"messages_delivered\",\"value\":42"));
        assert!(text.contains("\"gauge\":\"ring_capacity_hwm\",\"value\":1024"));
        assert!(text.contains("\"hist\":\"choose\""));
    }

    #[test]
    fn chrome_trace_shape() {
        let text = sample().to_chrome_trace();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ts\":1.500"));
        assert!(text.contains("\"dur\":2.750"));
        assert!(text.contains("\"tid\":2"));
    }

    #[test]
    fn epoch_profile_is_fixed_width_and_sorted() {
        let report = sample();
        let headers = TraceReport::profile_headers();
        assert_eq!(headers.len(), Phase::COUNT);
        assert!(headers.contains(&"us_choose".to_string()));
        let rows = report.epoch_profile();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 0);
        assert_eq!(rows[1].0, 1);
        for (_, cols) in &rows {
            assert_eq!(cols.len(), Phase::COUNT);
        }
        assert_eq!(rows[0].1[Phase::Choose.index()], 2);
        assert_eq!(rows[1].1[Phase::Observe.index()], 1);
    }
}
