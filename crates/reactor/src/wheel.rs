//! The logical-time timer wheel.
//!
//! Timers carry a message to an actor and a logical tick at which to fire.
//! The wheel hashes each entry into `fire_at % slots` (the classic timing
//! wheel layout), so firing one tick touches a single bucket instead of
//! every pending timer. Logical time never advances tick-by-tick: the
//! reactor asks for [`next_deadline`](TimerWheel::next_deadline) and jumps
//! straight to it, so a sparse schedule costs nothing.
//!
//! Firing order is deterministic: entries that share a deadline fire in
//! schedule order (a monotone sequence number breaks ties), independent of
//! bucket layout and worker count.
//!
//! # Stale deadlines
//!
//! The wheel tracks the latest tick it has fired
//! ([`now`](TimerWheel::now)). Scheduling a deadline **at or before** that
//! tick is well-defined: the entry is clamped to `now` and fires on the
//! next poll. Without the clamp a stale entry would hash into a bucket
//! whose tick may already have been drained, where
//! [`fire_due`](TimerWheel::fire_due) could never match it again — the
//! reactor's idle loop would then spin on a deadline that never clears.

use crate::reactor::ActorId;

/// Default bucket count — enough to spread epoch-scale schedules without
/// measurable collision scans.
const DEFAULT_SLOTS: usize = 64;

/// One pending timer.
#[derive(Debug)]
struct Entry<M> {
    fire_at: u64,
    seq: u64,
    to: ActorId,
    msg: M,
}

/// A hashed timing wheel over logical ticks.
#[derive(Debug)]
pub struct TimerWheel<M> {
    buckets: Vec<Vec<Entry<M>>>,
    pending: usize,
    seq: u64,
    /// Latest tick [`fire_due`](Self::fire_due) has drained; stale
    /// schedules clamp to it.
    now: u64,
}

impl<M> Default for TimerWheel<M> {
    fn default() -> Self {
        Self::with_buckets(DEFAULT_SLOTS)
    }
}

impl<M> TimerWheel<M> {
    /// Creates an empty wheel with the default bucket count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty wheel with `buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    fn with_buckets(buckets: usize) -> Self {
        assert!(buckets > 0, "timer wheel needs at least one bucket");
        Self { buckets: (0..buckets).map(|_| Vec::new()).collect(), pending: 0, seq: 0, now: 0 }
    }

    /// Number of pending timers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.pending
    }

    /// Whether no timers are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// The latest tick this wheel has fired (0 before the first firing).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `msg` for delivery to `to` at logical tick `fire_at`.
    ///
    /// A `fire_at` at or before the wheel's [`now`](Self::now) is
    /// **clamped to `now`**: the tick's bucket may already have been
    /// drained, so re-hashing the entry into it would strand the timer
    /// (and spin the reactor's idle loop forever). The clamped entry
    /// fires on the next poll of its deadline, after everything already
    /// scheduled there (schedule order is preserved).
    pub fn schedule(&mut self, fire_at: u64, to: ActorId, msg: M) {
        let fire_at = fire_at.max(self.now);
        let bucket = (fire_at % self.buckets.len() as u64) as usize;
        self.buckets[bucket].push(Entry { fire_at, seq: self.seq, to, msg });
        self.seq += 1;
        self.pending += 1;
    }

    /// Earliest pending deadline, if any.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        self.buckets.iter().flatten().map(|e| e.fire_at).min()
    }

    /// Removes and returns every timer due exactly at `now`, in schedule
    /// order. Timers hashed into the same bucket but due later stay put.
    /// Advances the wheel's clock: later [`schedule`](Self::schedule)
    /// calls clamp to the highest tick fired so far.
    pub fn fire_due(&mut self, now: u64) -> Vec<(ActorId, M)> {
        self.now = self.now.max(now);
        let bucket = (now % self.buckets.len() as u64) as usize;
        let slot = &mut self.buckets[bucket];
        if slot.iter().all(|e| e.fire_at != now) {
            return Vec::new();
        }
        let mut due: Vec<Entry<M>> = Vec::new();
        let mut keep: Vec<Entry<M>> = Vec::with_capacity(slot.len());
        for entry in slot.drain(..) {
            if entry.fire_at == now {
                due.push(entry);
            } else {
                keep.push(entry);
            }
        }
        *slot = keep;
        self.pending -= due.len();
        due.sort_by_key(|e| e.seq);
        due.into_iter().map(|e| (e.to, e.msg)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_wheel_has_no_deadline() {
        let w: TimerWheel<u32> = TimerWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn schedules_and_fires_in_order() {
        let mut w = TimerWheel::with_buckets(4);
        w.schedule(5, ActorId(0), "b");
        w.schedule(3, ActorId(1), "a");
        w.schedule(5, ActorId(2), "c");
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_deadline(), Some(3));
        assert_eq!(w.fire_due(3), vec![(ActorId(1), "a")]);
        assert_eq!(w.next_deadline(), Some(5));
        // Same deadline fires in schedule order.
        assert_eq!(w.fire_due(5), vec![(ActorId(0), "b"), (ActorId(2), "c")]);
        assert!(w.is_empty());
    }

    #[test]
    fn colliding_buckets_do_not_fire_early() {
        // Ticks 1 and 5 share bucket 1 in a 4-bucket wheel.
        let mut w = TimerWheel::with_buckets(4);
        w.schedule(1, ActorId(0), 10u32);
        w.schedule(5, ActorId(0), 50u32);
        assert_eq!(w.fire_due(1), vec![(ActorId(0), 10)]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_deadline(), Some(5));
        assert_eq!(w.fire_due(5), vec![(ActorId(0), 50)]);
    }

    #[test]
    fn fire_due_on_quiet_tick_is_empty() {
        let mut w = TimerWheel::with_buckets(8);
        w.schedule(9, ActorId(3), ());
        assert!(w.fire_due(1).is_empty());
        assert_eq!(w.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = TimerWheel::<()>::with_buckets(0);
    }

    #[test]
    fn stale_deadline_clamps_to_now_and_still_fires() {
        // Ticks 1 and 5 share bucket 1 in a 4-bucket wheel. After tick 5
        // has fired, a schedule for tick 1 would re-hash into the already
        // drained bucket and never match fire_due again — the clamp pins
        // it to the wheel's current tick instead.
        let mut w = TimerWheel::with_buckets(4);
        w.schedule(5, ActorId(0), "on-time");
        assert_eq!(w.fire_due(5), vec![(ActorId(0), "on-time")]);
        assert_eq!(w.now(), 5);

        w.schedule(1, ActorId(1), "stale");
        assert_eq!(w.len(), 1);
        // The entry is observable at the clamped deadline, not the stale
        // one: the reactor's idle loop can reach it.
        assert_eq!(w.next_deadline(), Some(5));
        assert_eq!(w.fire_due(5), vec![(ActorId(1), "stale")]);
        assert!(w.is_empty());
    }

    #[test]
    fn stale_deadline_fires_after_entries_already_at_now() {
        let mut w = TimerWheel::with_buckets(8);
        let _ = w.fire_due(9);
        w.schedule(9, ActorId(0), 1u32);
        w.schedule(2, ActorId(0), 2u32); // clamped to 9, scheduled later
        assert_eq!(w.fire_due(9), vec![(ActorId(0), 1), (ActorId(0), 2)]);
    }

    #[test]
    fn clock_does_not_move_backwards() {
        let mut w: TimerWheel<()> = TimerWheel::with_buckets(4);
        let _ = w.fire_due(7);
        let _ = w.fire_due(3);
        assert_eq!(w.now(), 7);
    }
}
