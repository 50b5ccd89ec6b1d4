//! Span recording: wall-clock timing of [`Phase`]s.
//!
//! A span is opened with [`span_start`](crate::span_start) (a bare
//! `Instant` capture — no lock, no allocation) and closed either into
//! the global registry ([`span_end`](crate::span_end), orchestrator
//! thread) or into a worker-owned [`SpanBuf`] that the orchestrator
//! later merges **in worker-index order**. Timing never flows back into
//! the computation: a traced run's outputs are bit-identical to an
//! untraced run's.

use std::time::Instant;

use crate::phase::Phase;

/// An open span: the capture of `Instant::now()` at phase entry.
/// Obtained from [`span_start`](crate::span_start), which returns `None`
/// when tracing is disabled — the disabled path is a single relaxed
/// atomic load.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(pub(crate) Instant);

impl SpanStart {
    /// Captures the current instant. Prefer
    /// [`span_start`](crate::span_start), which folds in the enabled
    /// check.
    pub(crate) fn now() -> Self {
        SpanStart(Instant::now())
    }
}

/// A closed span as a worker records it: phase, entry instant, and
/// duration. The run-relative timestamp is resolved against the
/// registry's origin at merge time, and the epoch/worker tags are
/// applied then too — workers don't need to know either.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawSpan {
    /// The phase this span timed.
    pub phase: Phase,
    /// Phase entry instant.
    pub start: Instant,
    /// Wall time between entry and close, nanoseconds (saturating).
    pub dur_ns: u64,
}

/// A fully resolved span in a [`TraceReport`](crate::TraceReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The phase this span timed.
    pub phase: Phase,
    /// Epoch the span belongs to.
    pub epoch: u64,
    /// Worker index (0 = the orchestrating thread; workers are
    /// shard-index + 1).
    pub worker: u32,
    /// Nanoseconds from the run origin to phase entry.
    pub start_ns: u64,
    /// Wall time between entry and close, nanoseconds.
    pub dur_ns: u64,
}

/// A worker-owned span buffer: plain owned memory, so recording is
/// lock-free by construction. The orchestrator drains every worker's
/// buffer after the join, in worker-index order, as part of
/// [`absorb_scratch`](crate::absorb_scratch) — that fixed order is what
/// makes the merged span sequence deterministic.
#[derive(Debug, Default, Clone)]
pub struct SpanBuf {
    pub(crate) raw: Vec<RawSpan>,
}

impl SpanBuf {
    /// Closes `start` as a `phase` span into this buffer.
    #[inline]
    pub fn record(&mut self, phase: Phase, start: SpanStart) {
        let dur_ns = u64::try_from(start.0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.raw.push(RawSpan { phase, start: start.0, dur_ns });
    }

    /// Whether the buffer is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Drops all buffered spans.
    pub(crate) fn clear(&mut self) {
        self.raw.clear();
    }
}
