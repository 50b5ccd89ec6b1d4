//! Counters, gauges, and the thread-affine scratch they accumulate in.
//!
//! Like [`Phase`](crate::Phase), the counter and gauge sets are closed
//! enums so every export has the same shape. Counters are additive
//! (merge = sum); gauges are high-water marks (merge = max). Both
//! operations are commutative and associative over `u64`, so reduced
//! totals are identical regardless of merge order — the *span* buffers
//! are where merge order matters, and those are merged in worker-index
//! order (see [`SpanBuf`](crate::SpanBuf)).

use crate::span::SpanBuf;

/// An additive event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Messages staged for delivery (reactor sends + timer posts).
    MessagesEnqueued,
    /// Messages handed to an actor's `on_message`.
    MessagesDelivered,
    /// Mailbox-ring reallocations (a batch exceeded ring capacity).
    RingGrowEvents,
    /// Learner-slab T columns rewritten by the batched lazy decay: the
    /// played columns of the slots it renormalised (zero on most epochs).
    SlabColumnsTouched,
    /// Learner-slab allocations served from a departed learner's T block
    /// (a released slot's or a compacted-away slot's) instead of fresh
    /// arena.
    FreeListReuse,
    /// Learner-slab columns opened in a packed T block: first plays of an
    /// action, each of which shifted the slot's later columns up one
    /// (`rths_core::SlabCols::observe`).
    SlabColumnsOpened,
    /// Regret-ledger stretch closes (arm switches, window folds,
    /// migrations).
    StretchFolds,
    /// Peer-epochs whose regret row the epoch's worst-peer fold had to
    /// read because the peer's `O(1)` bound exceeded the running max
    /// (`rths_sim::regret::record_max`); every other peer-epoch skipped it.
    RegretExactReads,
    /// Bytes that departures' order-preserving compactions copied, over
    /// the peer store's, the learner slab's and the regret ledger's
    /// columns (`rths_sim::PeerStore::remove_slots`).
    DepartureBytesMoved,
    /// Learner-slab T columns that departures zeroed: the played columns
    /// of departed slots' blocks (`rths_core::LearnerSlab::remove_slots`).
    DepartureColumnsWiped,
}

impl Counter {
    /// Every counter, in canonical order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::MessagesEnqueued,
        Counter::MessagesDelivered,
        Counter::RingGrowEvents,
        Counter::SlabColumnsTouched,
        Counter::FreeListReuse,
        Counter::SlabColumnsOpened,
        Counter::StretchFolds,
        Counter::RegretExactReads,
        Counter::DepartureBytesMoved,
        Counter::DepartureColumnsWiped,
    ];

    /// Number of counters.
    pub(crate) const COUNT: usize = 10;

    /// Stable snake_case name used in every export format.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MessagesEnqueued => "messages_enqueued",
            Counter::MessagesDelivered => "messages_delivered",
            Counter::RingGrowEvents => "ring_grow_events",
            Counter::SlabColumnsTouched => "slab_columns_touched",
            Counter::FreeListReuse => "free_list_reuse",
            Counter::SlabColumnsOpened => "slab_columns_opened",
            Counter::StretchFolds => "stretch_folds",
            Counter::RegretExactReads => "regret_exact_reads",
            Counter::DepartureBytesMoved => "departure_bytes_moved",
            Counter::DepartureColumnsWiped => "departure_columns_wiped",
        }
    }

    /// Index into [`Counter::ALL`] (and every counter-indexed array).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A high-water-mark gauge (merge = max).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Largest mailbox-ring capacity reached by any shard.
    RingCapacityHwm,
    /// Largest single-round message batch staged into any shard's ring.
    RingOccupancyHwm,
    /// Largest learner-slab row count reached by any shard's arena.
    SlabRowsHwm,
}

impl Gauge {
    /// Every gauge, in canonical order.
    pub const ALL: [Gauge; Gauge::COUNT] =
        [Gauge::RingCapacityHwm, Gauge::RingOccupancyHwm, Gauge::SlabRowsHwm];

    /// Number of gauges.
    pub(crate) const COUNT: usize = 3;

    /// Stable snake_case name used in every export format.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::RingCapacityHwm => "ring_capacity_hwm",
            Gauge::RingOccupancyHwm => "ring_occupancy_hwm",
            Gauge::SlabRowsHwm => "slab_rows_hwm",
        }
    }

    /// Index into [`Gauge::ALL`] (and every gauge-indexed array).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Thread-affine observability scratch: one per worker/shard, owned by
/// whatever per-shard scratch struct the host already threads through
/// its parallel regions. Accumulation is plain (lock-free) arithmetic on
/// owned memory; the orchestrating thread reduces every shard's scratch
/// **in shard-index order** after the join via
/// [`absorb_scratch`](crate::absorb_scratch).
#[derive(Debug, Default, Clone)]
pub struct ObsScratch {
    /// Additive counter deltas since the last absorb.
    pub(crate) counts: [u64; Counter::COUNT],
    /// Gauge high-water candidates since the last absorb.
    pub(crate) gauges: [u64; Gauge::COUNT],
    /// Spans recorded by this worker since the last absorb.
    pub spans: SpanBuf,
}

impl ObsScratch {
    /// A zeroed scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to counter `c`.
    #[inline]
    pub fn add(&mut self, c: Counter, v: u64) {
        self.counts[c.index()] += v;
    }

    /// Raises gauge `g` to at least `v`.
    #[inline]
    pub fn raise(&mut self, g: Gauge, v: u64) {
        let slot = &mut self.gauges[g.index()];
        if v > *slot {
            *slot = v;
        }
    }

    /// Moves everything `other` recorded into this scratch (counters
    /// summed, gauges maxed, spans appended in order) and clears `other`:
    /// how a phase that keeps scratches of its own hands them to the
    /// worker it ran on.
    pub fn take_from(&mut self, other: &mut ObsScratch) {
        for (total, part) in self.counts.iter_mut().zip(&mut other.counts) {
            *total += std::mem::take(part);
        }
        for (mark, part) in self.gauges.iter_mut().zip(&mut other.gauges) {
            *mark = (*mark).max(std::mem::take(part));
        }
        self.spans.raw.append(&mut other.spans.raw);
    }

    /// Whether nothing has been recorded since the last absorb.
    pub(crate) fn is_empty(&self) -> bool {
        self.counts.iter().all(|&v| v == 0)
            && self.gauges.iter().all(|&v| v == 0)
            && self.spans.is_empty()
    }

    /// Zeroes the scratch (spans included).
    pub(crate) fn clear(&mut self) {
        self.counts = [0; Counter::COUNT];
        self.gauges = [0; Gauge::COUNT];
        self.spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enums_are_index_aligned() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
    }

    #[test]
    fn scratch_accumulates_and_clears() {
        let mut s = ObsScratch::new();
        assert!(s.is_empty());
        s.add(Counter::MessagesEnqueued, 3);
        s.add(Counter::MessagesEnqueued, 4);
        s.raise(Gauge::RingCapacityHwm, 10);
        s.raise(Gauge::RingCapacityHwm, 7);
        assert_eq!(s.counts[Counter::MessagesEnqueued.index()], 7);
        assert_eq!(s.gauges[Gauge::RingCapacityHwm.index()], 10);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn take_from_moves_everything_and_empties_the_source() {
        let mut worker = ObsScratch::new();
        worker.add(Counter::MessagesDelivered, 2);
        worker.raise(Gauge::SlabRowsHwm, 9);
        worker.spans.record(crate::Phase::MailboxDrain, crate::SpanStart::now());
        let mut phase = ObsScratch::new();
        phase.add(Counter::MessagesDelivered, 5);
        phase.raise(Gauge::SlabRowsHwm, 4);
        phase.spans.record(crate::Phase::Choose, crate::SpanStart::now());
        worker.take_from(&mut phase);
        assert!(phase.is_empty());
        assert_eq!(worker.counts[Counter::MessagesDelivered.index()], 7);
        assert_eq!(worker.gauges[Gauge::SlabRowsHwm.index()], 9);
        let phases: Vec<_> = worker.spans.raw.iter().map(|s| s.phase).collect();
        assert_eq!(phases, [crate::Phase::MailboxDrain, crate::Phase::Choose]);
    }
}
