//! The reactor: actors, per-shard mailbox rings, and the round scheduler.
//!
//! # Mailbox layout
//!
//! Historically every actor owned a `VecDeque` inbox — a 32-byte handle
//! plus one heap block per actor, which at 10⁵ actors is pure overhead:
//! the allocator touches one scattered block per actor per round.
//! Mailboxes are now flattened into **one power-of-two message ring per
//! shard** of [`SHARD_SPAN`]-actor ranges, with two `u32` cursors per
//! actor:
//!
//! ```text
//! shard s hosts actors [s·SPAN, (s+1)·SPAN)
//! ┌─────────────── ring (power-of-two capacity) ───────────────┐
//! │ … a₃ a₃ │ a₇ │ a₁ a₁ a₁ │ (free) … wraps around            │
//! └──────────┴────┴──────────┴────────────────────────────────-┘
//!     heads[3]  heads[7]  heads[1]   ← per-actor head/len cursors
//! ```
//!
//! Each delivery batch (a round's merged sends, fired timers, external
//! injections) is *packed*: per-destination counts first, then every
//! actor's messages are placed contiguously at its `head`, in source
//! order. A round drains each actor's span in place while new sends go
//! to the shard's per-round buffer, so the ring is never mutated
//! concurrently with a drain ("drain-while-push" is buffered, not
//! interleaved). The ring grows (next power of two) only when a batch
//! exceeds capacity — all spans are empty at pack time, so growth never
//! copies live messages — and otherwise the write cursor just keeps
//! wrapping.
//!
//! # Determinism
//!
//! A round processes shards in index order (sharded across `rths_par`
//! workers), actors in index order within a shard, and each actor's span
//! in FIFO order; every send is buffered in its *sender's* shard buffer,
//! and buffers merge shard-by-shard — i.e. in global sender-index order.
//! Neither the worker count nor [`SHARD_SPAN`] can therefore perturb a
//! single bit of any trajectory (the unit tests sweep both).

use crate::wheel::TimerWheel;
use rths_obs::{self as obs, Counter, Gauge, ObsScratch, Phase};

/// Actors per mailbox shard (power of two). One shard is the unit of
/// round-parallelism: ~10³ actor-messages amortize a worker spawn, and a
/// 10⁵-actor mesh still fans out across ~100 shards. The value never
/// affects results; [`Reactor::with_shard_span`] overrides it (tests
/// sweep tiny spans to exercise wraparound and multi-shard merges).
pub const SHARD_SPAN: usize = 1024;

/// Index of an actor inside a [`Reactor`] — assigned densely by
/// [`Reactor::add_actor`] and used as the message address. Under a
/// partitioned reactor ([`Reactor::partitioned`]) the id is **global**:
/// every process numbers the same actor identically, and ids outside the
/// local partition address actors owned by other processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub usize);

/// One local mailbox shard's round output bound for actors owned by
/// *other* processes: the remote-destined subsequence of the shard's
/// send buffer, in send order.
///
/// `sender_shard` is the **global** shard index (`actor id / span`), so a
/// receiving process can merge remote batches into its rings in global
/// sender-index order — exactly the order a single-process reactor would
/// have used — regardless of which process produced them.
#[derive(Debug)]
pub struct RemoteBatch<M> {
    /// Global shard index of the sending shard.
    pub sender_shard: usize,
    /// `(destination, message)` pairs in send order.
    pub msgs: Vec<(ActorId, M)>,
}

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor-{}", self.0)
    }
}

/// A poll-driven state machine hosted by a [`Reactor`].
///
/// Actors never block and share no state with other shards: all
/// interaction goes through messages. The actors of one mailbox shard may
/// share one value `S` of *shard state*, which the reactor lends to
/// whichever of them is handling a message ([`Ctx::shard`]); `S` is `()`
/// unless the host installs one ([`Reactor::shard_state_mut`]). `Send` is
/// required because the reactor may shard a round's processing across
/// `rths_par` workers.
pub trait Actor<S = ()>: Send {
    /// The message type this actor exchanges (one type per reactor; use an
    /// enum to multiplex roles).
    type Msg: Send;

    /// Handles one delivered message. Outgoing sends and timers go through
    /// `ctx` and take effect after the current round.
    fn on_message(&mut self, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg, S>);
}

/// Per-delivery handle an actor uses to send messages, schedule timers
/// and reach its shard's state.
///
/// Sends are buffered per shard (actors within a shard run sequentially
/// in index order) and merged into destination mailboxes in sender-index
/// order after the round — never delivered re-entrantly — so handling
/// stays deterministic at any worker count.
#[derive(Debug)]
pub struct Ctx<'a, M, S = ()> {
    now: u64,
    me: ActorId,
    actors: usize,
    sends: &'a mut Vec<(ActorId, M)>,
    timers: &'a mut Vec<(u64, ActorId, M)>,
    state: &'a mut S,
    obs: &'a mut ObsScratch,
}

impl<M, S> Ctx<'_, M, S> {
    /// The state of the handling actor's mailbox shard, and the
    /// observability scratch of the worker draining it. A shard is
    /// drained by exactly one worker per round, one actor at a time, so
    /// the borrow is exclusive by construction. Spans and counters
    /// recorded into the scratch merge into the trace in worker order
    /// after the round, as the drain's own do.
    pub fn shard(&mut self) -> (&mut S, &mut ObsScratch) {
        (self.state, self.obs)
    }

    /// Current logical time (advances only via the timer wheel).
    #[cfg(test)]
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// The id of the actor handling the current message.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Sends `msg` to `to`, delivered at the start of the next round.
    ///
    /// # Panics
    ///
    /// Panics if `to` does not name an actor of this reactor.
    pub fn send(&mut self, to: ActorId, msg: M) {
        assert!(to.0 < self.actors, "send to unknown {to} ({} actors)", self.actors);
        self.sends.push((to, msg));
    }

    /// Schedules `msg` for delivery to `to` after `delay` logical ticks.
    /// A zero delay is an ordinary [`send`](Self::send).
    ///
    /// # Panics
    ///
    /// Panics if `to` does not name an actor of this reactor.
    pub fn send_after(&mut self, delay: u64, to: ActorId, msg: M) {
        if delay == 0 {
            self.send(to, msg);
            return;
        }
        assert!(to.0 < self.actors, "send to unknown {to} ({} actors)", self.actors);
        self.timers.push((self.now + delay, to, msg));
    }
}

/// One mailbox shard: a contiguous actor range, their shared message
/// ring with per-actor cursors, the shard's per-round outgoing buffers,
/// and the state its actors share.
#[derive(Debug)]
struct MailShard<A: Actor<S>, S> {
    actors: Vec<A>,
    /// Lent to the actor handling a message ([`Ctx::shard`]).
    state: S,
    /// The shared message ring (power-of-two capacity; `None` = empty
    /// slot). `Option` costs nothing for niche-rich message enums and
    /// lets a drain move messages out without `unsafe`.
    ring: Vec<Option<A::Msg>>,
    /// Next free ring position (wraps with the capacity mask).
    tail: usize,
    /// Occupied ring slots.
    live: usize,
    /// Per-actor span start in the ring (meaningful while `lens > 0`).
    heads: Vec<u32>,
    /// Per-actor pending message count.
    lens: Vec<u32>,
    /// Per-actor pack cursor (scratch; always back to 0 after a round).
    cursors: Vec<u32>,
    /// Incoming messages of the batch being packed (scratch).
    incoming: usize,
    /// Sends buffered by this shard's actors during the current round.
    sends: Vec<(ActorId, A::Msg)>,
    /// Timers scheduled by this shard's actors during the current round.
    timers: Vec<(u64, ActorId, A::Msg)>,
    /// Ring reallocations (a batch outgrew a non-empty ring).
    grows: u64,
    /// Largest single batch packed into this shard's ring.
    batch_hwm: usize,
}

impl<A: Actor<S>, S: Default> MailShard<A, S> {
    fn new() -> Self {
        Self {
            actors: Vec::new(),
            state: S::default(),
            ring: Vec::new(),
            tail: 0,
            live: 0,
            heads: Vec::new(),
            lens: Vec::new(),
            cursors: Vec::new(),
            incoming: 0,
            sends: Vec::new(),
            timers: Vec::new(),
            grows: 0,
            batch_hwm: 0,
        }
    }

    /// Makes room for the batch counted in `incoming`. Called only when
    /// every span is drained (`live == 0`), so growth never copies live
    /// messages; otherwise the write cursor keeps wrapping.
    fn reserve_batch(&mut self) {
        if self.incoming == 0 {
            return;
        }
        debug_assert_eq!(self.live, 0, "pack with undrained spans");
        if self.incoming > self.batch_hwm {
            self.batch_hwm = self.incoming;
        }
        if self.incoming > self.ring.len() {
            if !self.ring.is_empty() {
                self.grows += 1;
            }
            let cap = self.incoming.next_power_of_two();
            self.ring.clear();
            self.ring.resize_with(cap, || None);
            self.tail = 0;
        }
    }

    /// Assigns `local`'s span (if not yet assigned this batch) and
    /// places one message at its pack cursor.
    fn place(&mut self, local: usize, msg: A::Msg) {
        let mask = self.ring.len() - 1;
        if self.cursors[local] == 0 {
            self.heads[local] = (self.tail & mask) as u32;
            self.tail = (self.tail + self.lens[local] as usize) & mask;
        }
        let at = (self.heads[local] as usize + self.cursors[local] as usize) & mask;
        debug_assert!(self.ring[at].is_none(), "ring slot double-booked");
        self.ring[at] = Some(msg);
        self.cursors[local] += 1;
        self.live += 1;
    }
}

/// Counters describing one reactor run (cumulative across
/// [`run_until_idle`](Reactor::run_until_idle) calls).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Messages delivered to mailboxes (including timer deliveries).
    pub messages: u64,
    /// Timer entries fired.
    pub timers_fired: u64,
    /// Mailbox-ring reallocations across all shards: batches that
    /// outgrew a non-empty ring (the initial sizing of an empty ring is
    /// not counted). Growth is a perf cliff under churn — this makes it
    /// visible. **Layout-dependent**: varies with the shard span, unlike
    /// the protocol counters above.
    pub ring_grow_events: u64,
    /// Largest mailbox-ring capacity (slots) reached by any shard.
    /// Rings never shrink, so this is the high-water mark.
    /// **Layout-dependent.**
    pub ring_capacity_hwm: u64,
    /// Largest single delivery batch (messages) packed into any shard's
    /// ring. **Layout-dependent.**
    pub ring_occupancy_hwm: u64,
}

impl ReactorStats {
    /// The layout-independent protocol counters `(rounds, messages,
    /// timers_fired)`: bit-equal at any worker count *and* any shard
    /// span. The ring-geometry fields are excluded — they legitimately
    /// vary with [`SHARD_SPAN`].
    pub fn protocol(&self) -> (u64, u64, u64) {
        (self.rounds, self.messages, self.timers_fired)
    }
}

/// The event loop: owns every actor, the sharded mailbox rings (each
/// with its shard state `S`), and the timer wheel.
///
/// See the crate docs for the execution model and determinism contract.
#[derive(Debug)]
pub struct Reactor<A: Actor<S>, S = ()> {
    shards: Vec<MailShard<A, S>>,
    /// Actors per shard (power of two).
    span: usize,
    span_bits: u32,
    /// Locally hosted actors (the partition length when partitioned).
    actors_total: usize,
    /// First global actor id owned by this reactor (0 unless
    /// partitioned; always a multiple of `span`).
    base: usize,
    /// Global actor count across every partition. Tracks `actors_total`
    /// for a plain reactor; fixed at construction when partitioned.
    global_total: usize,
    /// Whether this reactor hosts one partition of a larger mesh (sends
    /// may then legally target non-local ids).
    partitioned: bool,
    /// Protocol guard: a `drain_phase` has run without its matching
    /// `merge_phase`.
    mid_round: bool,
    /// External deliveries (injections, fired timers) awaiting a pack.
    staged: Vec<(ActorId, A::Msg)>,
    /// Reusable per-shard swap buffers for the merge step.
    send_batches: Vec<Vec<(ActorId, A::Msg)>>,
    /// Per-worker observability scratch for the sharded round (counters
    /// and spans; zero-cost while tracing is disabled).
    round_scratch: Vec<ObsScratch>,
    /// Ring grow events already mirrored into `rths_obs` counters.
    grows_reported: u64,
    wheel: TimerWheel<A::Msg>,
    now: u64,
    pending: usize,
    stats: ReactorStats,
}

impl<A: Actor<S>, S: Default + Send> Default for Reactor<A, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Actor<S>, S: Default + Send> Reactor<A, S> {
    /// Creates an empty reactor at logical time zero with the default
    /// [`SHARD_SPAN`].
    pub fn new() -> Self {
        Self::with_shard_span(SHARD_SPAN)
    }

    /// Creates an empty reactor whose mailbox shards span `span` actors
    /// (power of two). The span trades parallel granularity against
    /// per-shard overhead and **never affects results**.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero or not a power of two.
    pub fn with_shard_span(span: usize) -> Self {
        assert!(span.is_power_of_two(), "shard span must be a power of two");
        Self {
            shards: Vec::new(),
            span,
            span_bits: span.trailing_zeros(),
            actors_total: 0,
            base: 0,
            global_total: 0,
            partitioned: false,
            mid_round: false,
            staged: Vec::new(),
            send_batches: Vec::new(),
            round_scratch: Vec::new(),
            grows_reported: 0,
            wheel: TimerWheel::new(),
            now: 0,
            pending: 0,
            stats: ReactorStats::default(),
        }
    }

    /// Creates an empty reactor hosting one **partition** of a larger
    /// mesh: the contiguous global actor range starting at `base`
    /// (span-aligned), out of `global_total` actors overall.
    ///
    /// Actors registered with [`add_actor`](Self::add_actor) receive
    /// **global** ids (`base`, `base + 1`, …). Sends may target any
    /// global id; a partitioned reactor must be driven by
    /// [`bridge::drive`](crate::bridge::drive) /
    /// [`bridge::follow`](crate::bridge::follow), whose drain, merge and
    /// advance phases route remote-destined messages, not through
    /// [`run_until_idle`](Self::run_until_idle).
    ///
    /// With `base == 0` and every actor local, the phase split is
    /// bit-identical to a plain reactor — the single-process run *is*
    /// the 1-partition special case.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero or not a power of two, or if `base`
    /// exceeds `global_total`, or if `base` is neither a multiple of
    /// `span` nor exactly `global_total` (the latter is the degenerate
    /// empty partition a small mesh leaves its high ranks — legal, it
    /// just can never host an actor).
    pub fn partitioned(span: usize, base: usize, global_total: usize) -> Self {
        assert!(span.is_power_of_two(), "shard span must be a power of two");
        assert!(
            base.is_multiple_of(span) || base == global_total,
            "partition base {base} not aligned to span {span}"
        );
        assert!(base <= global_total, "partition base {base} past {global_total} actors");
        let mut reactor = Self::with_shard_span(span);
        reactor.base = base;
        reactor.global_total = global_total;
        reactor.partitioned = true;
        reactor
    }

    /// Registers an actor, returning its id (dense, in registration
    /// order; offset by the partition base when partitioned). No OS
    /// thread is spawned — the actor is polled in place.
    pub fn add_actor(&mut self, actor: A) -> ActorId {
        let local = self.actors_total;
        let shard = local >> self.span_bits;
        if shard == self.shards.len() {
            self.shards.push(MailShard::new());
        }
        let s = &mut self.shards[shard];
        s.actors.push(actor);
        s.heads.push(0);
        s.lens.push(0);
        s.cursors.push(0);
        self.actors_total += 1;
        if self.partitioned {
            assert!(
                self.base + self.actors_total <= self.global_total,
                "partition [{}, {}) overflows the {}-actor mesh",
                self.base,
                self.base + self.actors_total,
                self.global_total
            );
        } else {
            self.global_total = self.actors_total;
        }
        ActorId(self.base + local)
    }

    /// Whether `id` names an actor hosted by **this** reactor (always
    /// true for in-range ids of a plain reactor; a partition owns only
    /// `[base, base + len)`).
    pub(crate) fn owns(&self, id: ActorId) -> bool {
        id.0 >= self.base && id.0 < self.base + self.actors_total
    }

    /// First global actor id of this reactor's partition (0 for a plain
    /// reactor).
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// Messages already delivered to local mailboxes and awaiting the
    /// next round (staged externals included).
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// Earliest deadline on the local timer wheel, if any.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        self.wheel.next_deadline()
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Run counters so far, with the mailbox-ring internals (grow
    /// events, capacity and batch high-water marks) aggregated over all
    /// shards.
    pub fn stats(&self) -> ReactorStats {
        let mut s = self.stats;
        for shard in &self.shards {
            s.ring_grow_events += shard.grows;
            s.ring_capacity_hwm = s.ring_capacity_hwm.max(shard.ring.len() as u64);
            s.ring_occupancy_hwm = s.ring_occupancy_hwm.max(shard.batch_hwm as u64);
        }
        s
    }

    /// Shared access to an actor (e.g. to read results after a run).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn actor(&self, id: ActorId) -> &A {
        let local = id.0 - self.base;
        &self.shards[local >> self.span_bits].actors[local & (self.span - 1)]
    }

    /// Iterates actors in id order.
    #[cfg(test)]
    pub(crate) fn actors(&self) -> impl Iterator<Item = &A> {
        self.shards.iter().flat_map(|s| s.actors.iter())
    }

    /// The state of the mailbox shard hosting `id` (e.g. to install it
    /// once the shard's actors are added).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn shard_state_mut(&mut self, id: ActorId) -> &mut S {
        &mut self.shards[(id.0 - self.base) >> self.span_bits].state
    }

    /// Iterates the shard states in shard (hence actor-id) order.
    pub fn shard_states(&self) -> impl Iterator<Item = &S> {
        self.shards.iter().map(|s| &s.state)
    }

    /// Consumes the reactor, returning the actors in id order.
    pub fn into_actors(self) -> Vec<A> {
        let mut out = Vec::with_capacity(self.actors_total);
        for shard in self.shards {
            out.extend(shard.actors);
        }
        out
    }

    /// Delivers `msg` to `to` from outside the actor graph (processed in
    /// the next round).
    ///
    /// # Panics
    ///
    /// Panics if `to` does not name a registered actor.
    pub fn inject(&mut self, to: ActorId, msg: A::Msg) {
        assert!(
            self.owns(to),
            "inject to unknown {to} (partition [{}, {}))",
            self.base,
            self.base + self.actors_total
        );
        self.staged.push((to, msg));
        self.pending += 1;
        self.stats.messages += 1;
    }

    /// Stages externally routed deliveries (remote-process sends or
    /// remote-fired timers) for the next round, in the given order.
    /// Equivalent to [`inject`](Self::inject) per message.
    ///
    /// # Panics
    ///
    /// Panics if any destination is not owned by this reactor.
    pub(crate) fn stage_external(&mut self, msgs: impl IntoIterator<Item = (ActorId, A::Msg)>) {
        for (to, msg) in msgs {
            self.inject(to, msg);
        }
    }

    /// Packs the staged external deliveries (injections, fired timers)
    /// into the shard rings: per-destination counts, then contiguous
    /// placement per actor in staging order.
    fn pack_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let bits = self.span_bits;
        let mask = self.span - 1;
        let base = self.base;
        for (to, _) in &self.staged {
            let local = to.0 - base;
            let s = &mut self.shards[local >> bits];
            s.lens[local & mask] += 1;
            s.incoming += 1;
        }
        for s in &mut self.shards {
            s.reserve_batch();
        }
        for (to, msg) in self.staged.drain(..) {
            let local = to.0 - base;
            self.shards[local >> bits].place(local & mask, msg);
        }
        for s in &mut self.shards {
            s.incoming = 0;
        }
    }

    /// Runs rounds (and advances logical time through the wheel) until no
    /// messages and no timers remain, then returns the cumulative stats.
    ///
    /// # Panics
    ///
    /// Panics on a partitioned reactor: remote-destined sends and fired
    /// timers need a router, so partitions are driven by
    /// [`bridge::drive`](crate::bridge::drive) /
    /// [`bridge::follow`](crate::bridge::follow) instead.
    pub fn run_until_idle(&mut self) -> ReactorStats {
        assert!(
            !self.partitioned,
            "run_until_idle on a partitioned reactor; drive it through the bridge phases"
        );
        loop {
            if self.pending > 0 {
                self.round();
                continue;
            }
            let Some(deadline) = self.wheel.next_deadline() else { break };
            // `>=` (not `>`): the wheel clamps stale deadlines to its
            // current tick, which can equal the reactor's `now`.
            debug_assert!(deadline >= self.now, "timer scheduled in the past");
            self.now = self.now.max(deadline);
            for (to, msg) in self.wheel.fire_due(self.now) {
                self.staged.push((to, msg));
                self.pending += 1;
                self.stats.timers_fired += 1;
                self.stats.messages += 1;
            }
        }
        self.stats()
    }

    /// Advances logical time to `deadline` and fires every due timer:
    /// locally owned deliveries are staged for the next round; deliveries
    /// addressed to other partitions are **returned** (in wheel order,
    /// i.e. schedule order per deadline) for the caller to route.
    ///
    /// The single-process idle loop is exactly `advance_to(next_deadline)`
    /// with an always-empty return value.
    pub(crate) fn advance_to(&mut self, deadline: u64) -> Vec<(ActorId, A::Msg)> {
        debug_assert!(!self.mid_round, "advance_to during a split round");
        self.now = self.now.max(deadline);
        let mut remote = Vec::new();
        for (to, msg) in self.wheel.fire_due(self.now) {
            self.stats.timers_fired += 1;
            if self.owns(to) {
                self.staged.push((to, msg));
                self.pending += 1;
                // Counted as delivered here; remote-fired messages are
                // counted by the partition that stages them.
                self.stats.messages += 1;
            } else {
                remote.push((to, msg));
            }
        }
        remote
    }

    /// Executes one round: every shard drains its actors' mailbox spans
    /// in index order (shards sharded across `rths_par` workers), then
    /// the per-shard send buffers are merged into destination rings in
    /// sender-index order.
    ///
    /// A round is [`drain_phase`](Self::drain_phase) followed by
    /// [`merge_phase`](Self::merge_phase); a plain reactor has no remote
    /// traffic in either direction, so the composition is the historical
    /// single-phase round, bit for bit.
    fn round(&mut self) {
        let remote = self.drain_phase();
        debug_assert!(remote.is_empty(), "plain reactor produced remote batches");
        self.merge_phase(Vec::new());
    }

    /// First half of a round: packs staged deliveries, drains every
    /// shard's mailbox spans (actors in index order, shards across
    /// `rths_par` workers), then withholds the per-shard send buffers
    /// for [`merge_phase`](Self::merge_phase), returning the
    /// remote-destined subsequence of each as a [`RemoteBatch`] (global
    /// sender-shard order, send order within a batch). Plain reactors
    /// always return an empty vec.
    pub(crate) fn drain_phase(&mut self) -> Vec<RemoteBatch<A::Msg>> {
        debug_assert!(!self.mid_round, "drain_phase while a round is already split open");
        let tracing = obs::enabled();
        let epoch = if tracing { obs::current_epoch() } else { 0 };
        let staged_n = self.staged.len();
        let t_pack = if staged_n > 0 { obs::span_start() } else { None };
        self.pack_staged();
        if let Some(t) = t_pack {
            obs::span_end(Phase::MailboxDeliver, epoch, t);
        }
        let now = self.now;
        let actors = self.global_total;
        let span_bits = self.span_bits;
        let part_base = self.base;
        let num_shards = self.shards.len();
        let workers = rths_par::threads().min(num_shards).max(1);
        if self.round_scratch.len() < workers {
            self.round_scratch.resize_with(workers, ObsScratch::new);
        }
        rths_par::par_sharded(
            num_shards,
            workers,
            &mut self.shards[..],
            &mut self.round_scratch[..],
            |range, chunk: &mut [MailShard<A, S>], obs: &mut ObsScratch| {
                let t_drain = obs::span_start();
                let mut drained = 0u64;
                for (k, shard) in chunk.iter_mut().enumerate() {
                    let base = part_base + ((range.start + k) << span_bits);
                    let MailShard {
                        actors: hosted,
                        state,
                        ring,
                        live,
                        heads,
                        lens,
                        cursors,
                        sends,
                        timers,
                        ..
                    } = shard;
                    let mask = ring.len().wrapping_sub(1);
                    for (local, actor) in hosted.iter_mut().enumerate() {
                        let len = lens[local] as usize;
                        if len == 0 {
                            continue;
                        }
                        let head = heads[local] as usize;
                        lens[local] = 0;
                        cursors[local] = 0;
                        *live -= len;
                        drained += len as u64;
                        let me = ActorId(base + local);
                        let mut ctx = Ctx { now, me, actors, sends, timers, state, obs };
                        for k2 in 0..len {
                            let msg = ring[(head + k2) & mask]
                                .take()
                                .expect("mailbox span holds a message");
                            actor.on_message(msg, &mut ctx);
                        }
                    }
                }
                if let Some(t) = t_drain {
                    obs.spans.record(Phase::MailboxDrain, t);
                    obs.add(Counter::MessagesDelivered, drained);
                }
            },
        );
        if tracing {
            // Reduce every worker's scratch in worker-index order — the
            // deterministic half of the span-merge contract.
            for (i, scratch) in self.round_scratch.iter_mut().enumerate().take(workers) {
                obs::absorb_scratch(i as u32 + 1, epoch, scratch);
            }
            obs::counter_add(Counter::MessagesEnqueued, staged_n as u64);
        }
        // Withhold the send buffers: local-destined messages wait in
        // `send_batches` for the merge phase, remote-destined ones split
        // off (order preserved on both sides of the split) for routing.
        let mut batches = std::mem::take(&mut self.send_batches);
        batches.resize_with(num_shards, Vec::new);
        let mut out = Vec::new();
        let global_shard0 = self.base >> self.span_bits;
        for (si, batch) in batches.iter_mut().enumerate() {
            std::mem::swap(batch, &mut self.shards[si].sends);
            if self.partitioned && batch.iter().any(|(to, _)| !self.owns(*to)) {
                // Stable split: both the kept (local) and extracted
                // (remote) subsequences preserve send order.
                let mut msgs = Vec::new();
                for pair in std::mem::take(batch) {
                    if self.owns(pair.0) {
                        batch.push(pair);
                    } else {
                        msgs.push(pair);
                    }
                }
                out.push(RemoteBatch { sender_shard: global_shard0 + si, msgs });
            }
        }
        self.send_batches = batches;
        self.mid_round = true;
        out
    }

    /// Second half of a round: merges the withheld local send buffers
    /// **and** `remote` batches from other partitions into the
    /// destination rings in ascending global sender-shard order (counts
    /// first, one reservation per ring, then contiguous FIFO placement),
    /// then flushes newly scheduled timers to the wheel in shard order.
    ///
    /// `remote` must be sorted by `sender_shard` and contain only
    /// locally owned destinations.
    pub(crate) fn merge_phase(&mut self, remote: Vec<RemoteBatch<A::Msg>>) {
        debug_assert!(self.mid_round || remote.is_empty(), "merge_phase without a drain");
        let tracing = obs::enabled();
        let epoch = if tracing { obs::current_epoch() } else { 0 };
        let bits = self.span_bits;
        let mask = self.span - 1;
        let base = self.base;
        let num_shards = self.shards.len();
        let mut delivered = 0usize;
        let t_sort = obs::span_start();
        let mut batches = std::mem::take(&mut self.send_batches);
        batches.resize_with(num_shards, Vec::new);
        // Counting is commutative — only placement order matters below.
        for batch in batches.iter().chain(remote.iter().map(|b| &b.msgs)) {
            for (to, _) in batch.iter() {
                let local = to.0 - base;
                let d = &mut self.shards[local >> bits];
                d.lens[local & mask] += 1;
                d.incoming += 1;
            }
            delivered += batch.len();
        }
        for s in &mut self.shards {
            s.reserve_batch();
            s.incoming = 0;
        }
        if let Some(t) = t_sort {
            obs::span_end(Phase::MailboxSort, epoch, t);
        }
        // Place in ascending *global* sender-shard order: remote batches
        // interleave with the local ones exactly where a single-process
        // reactor's iteration would have visited their sending shards.
        let t_place = obs::span_start();
        let global_shard0 = base >> bits;
        let mut remote = remote;
        let mut ri = 0usize;
        debug_assert!(
            remote.windows(2).all(|w| w[0].sender_shard < w[1].sender_shard),
            "remote batches not sorted by sender shard"
        );
        for (si, batch) in batches.iter_mut().enumerate() {
            while ri < remote.len() && remote[ri].sender_shard < global_shard0 + si {
                for (to, msg) in remote[ri].msgs.drain(..) {
                    let local = to.0 - base;
                    self.shards[local >> bits].place(local & mask, msg);
                }
                ri += 1;
            }
            for (to, msg) in batch.drain(..) {
                let local = to.0 - base;
                self.shards[local >> bits].place(local & mask, msg);
            }
            // Hand the (empty, capacity-retaining) buffer back to its
            // shard for the next round.
            std::mem::swap(batch, &mut self.shards[si].sends);
        }
        while ri < remote.len() {
            for (to, msg) in remote[ri].msgs.drain(..) {
                let local = to.0 - base;
                self.shards[local >> bits].place(local & mask, msg);
            }
            ri += 1;
        }
        self.send_batches = batches;
        if let Some(t) = t_place {
            obs::span_end(Phase::MailboxDeliver, epoch, t);
        }
        let t_timers = obs::span_start();
        for si in 0..num_shards {
            let mut timers = std::mem::take(&mut self.shards[si].timers);
            for (fire_at, to, msg) in timers.drain(..) {
                self.wheel.schedule(fire_at, to, msg);
            }
            self.shards[si].timers = timers;
        }
        if let Some(t) = t_timers {
            obs::span_end(Phase::TimerFlush, epoch, t);
        }
        self.pending = delivered;
        self.mid_round = false;
        self.stats.rounds += 1;
        self.stats.messages += delivered as u64;
        if tracing {
            obs::counter_add(Counter::MessagesEnqueued, delivered as u64);
            let mut grows = 0u64;
            let mut cap = 0u64;
            let mut occ = 0u64;
            for s in &self.shards {
                grows += s.grows;
                cap = cap.max(s.ring.len() as u64);
                occ = occ.max(s.batch_hwm as u64);
            }
            obs::counter_add(Counter::RingGrowEvents, grows - self.grows_reported);
            self.grows_reported = grows;
            obs::gauge_max(Gauge::RingCapacityHwm, cap);
            obs::gauge_max(Gauge::RingOccupancyHwm, occ);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Worker-count sweeps go through the scoped `rths_par` override: it
    // is thread-local, so tests never mutate the process environment
    // (`std::env::set_var` is racy under the multithreaded test harness
    // and `unsafe` in newer toolchains). The `RTHS_THREADS` variable
    // remains the outermost default for unswept runs.
    use rths_par::with_threads;

    /// Test actor: accumulates a hash of received values and forwards a
    /// mixed value to a topology-determined neighbour while `hops` remain.
    struct Mixer {
        neighbour: ActorId,
        log: Vec<u64>,
    }

    #[derive(Debug, PartialEq, Eq)]
    struct Hop {
        value: u64,
        hops: u32,
    }

    impl Actor for Mixer {
        type Msg = Hop;
        fn on_message(&mut self, msg: Hop, ctx: &mut Ctx<'_, Hop>) {
            self.log.push(msg.value);
            if msg.hops > 0 {
                let value = msg.value.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                ctx.send(self.neighbour, Hop { value, hops: msg.hops - 1 });
            }
        }
    }

    fn mixer_ring(n: usize, stride: usize) -> Reactor<Mixer> {
        let mut reactor = Reactor::new();
        for i in 0..n {
            reactor
                .add_actor(Mixer { neighbour: ActorId((i * stride + 1) % n), log: Vec::new() });
        }
        reactor
    }

    #[test]
    fn ping_pong_terminates_with_full_log() {
        let mut reactor = mixer_ring(2, 1);
        reactor.inject(ActorId(0), Hop { value: 1, hops: 9 });
        let stats = reactor.run_until_idle();
        let total: usize = reactor.actors().map(|a| a.log.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(stats.messages, 10);
        assert!(stats.rounds >= 10, "each hop needs its own round");
    }

    #[test]
    fn self_send_is_deferred_to_next_round() {
        struct Selfie {
            rounds_seen: Vec<u64>,
        }
        impl Actor for Selfie {
            type Msg = u32;
            fn on_message(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
                self.rounds_seen.push(ctx.now());
                if msg > 0 {
                    ctx.send(ctx.me(), msg - 1);
                }
            }
        }
        let mut reactor = Reactor::new();
        let id = reactor.add_actor(Selfie { rounds_seen: Vec::new() });
        reactor.inject(id, 3);
        let stats = reactor.run_until_idle();
        assert_eq!(reactor.actor(id).rounds_seen.len(), 4);
        // Four separate rounds: a self-send is never handled re-entrantly.
        assert_eq!(stats.rounds, 4);
    }

    #[test]
    fn timers_advance_logical_time() {
        struct Echo {
            fired_at: Vec<u64>,
        }
        impl Actor for Echo {
            type Msg = u64;
            fn on_message(&mut self, delay: u64, ctx: &mut Ctx<'_, u64>) {
                self.fired_at.push(ctx.now());
                if delay > 0 {
                    ctx.send_after(delay, ctx.me(), delay - 1);
                }
            }
        }
        let mut reactor = Reactor::new();
        let id = reactor.add_actor(Echo { fired_at: Vec::new() });
        reactor.inject(id, 3);
        let stats = reactor.run_until_idle();
        // Injected at t=0, then timers at t=3, t=3+2, t=5+1.
        assert_eq!(reactor.actor(id).fired_at, vec![0, 3, 5, 6]);
        assert_eq!(reactor.now(), 6);
        assert_eq!(stats.timers_fired, 3);
    }

    #[test]
    fn identical_at_any_worker_count() {
        // A 300-actor mesh with long forwarding chains, on 4-actor
        // shards so multiple workers genuinely share the round: every
        // actor's full receive log must be bit-identical at 1, 2, and 4
        // workers.
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut reactor = Reactor::with_shard_span(4);
                for i in 0..300usize {
                    reactor.add_actor(Mixer {
                        neighbour: ActorId((i * 7 + 1) % 300),
                        log: Vec::new(),
                    });
                }
                for i in 0..300 {
                    reactor.inject(ActorId(i), Hop { value: i as u64, hops: 40 });
                }
                reactor.run_until_idle();
                reactor.into_actors().into_iter().map(|a| a.log).collect::<Vec<_>>()
            })
        };
        let base = run(1);
        assert_eq!(run(2), base, "2 workers diverged");
        assert_eq!(run(4), base, "4 workers diverged");
    }

    #[test]
    fn identical_at_any_shard_span() {
        // The mailbox shard span is scheduling, not semantics: the same
        // mesh must produce bit-identical logs at spans 1, 4, 64 and the
        // default — including the protocol stats (delivery accounting
        // parity). The ring-geometry stats legitimately vary with the
        // span and are excluded (that's what `protocol()` is for).
        let run = |span: usize| {
            let mut reactor = Reactor::with_shard_span(span);
            for i in 0..100usize {
                reactor.add_actor(Mixer {
                    neighbour: ActorId((i * 13 + 1) % 100),
                    log: Vec::new(),
                });
            }
            for i in (0..100).step_by(3) {
                reactor.inject(ActorId(i), Hop { value: i as u64, hops: 25 });
            }
            let stats = reactor.run_until_idle();
            (
                stats.protocol(),
                reactor.into_actors().into_iter().map(|a| a.log).collect::<Vec<_>>(),
            )
        };
        let base = run(SHARD_SPAN);
        for span in [1usize, 4, 64] {
            assert_eq!(run(span), base, "span {span} diverged");
        }
    }

    #[test]
    fn ring_stats_surface_capacity_and_growth() {
        // Same fan-in shape as `ring_grows_when_a_batch_exceeds_capacity`
        // but asserting the *stats* view: growth events and high-water
        // marks must be visible in `ReactorStats`.
        // An injected value below 10 fans out one copy, any other eight.
        struct Fan {
            sink: ActorId,
            log: Vec<u64>,
        }
        impl Actor for Fan {
            type Msg = u64;
            fn on_message(&mut self, v: u64, ctx: &mut Ctx<'_, u64>) {
                if ctx.me() == self.sink {
                    self.log.push(v);
                } else {
                    let copies = if v < 10 { 1 } else { 8 };
                    for c in 0..copies {
                        ctx.send(self.sink, v * 1000 + c);
                    }
                }
            }
        }
        let mut reactor = Reactor::with_shard_span(8);
        let sink = ActorId(0);
        // Escalating fan-in: 1 copy each first, then 8 copies each — the
        // second burst (8·8 = 64 > 8·1 rounded up to 8) must re-allocate
        // the sink shard's ring.
        for _ in 0..9usize {
            reactor.add_actor(Fan { sink, log: Vec::new() });
        }
        for i in 1..9usize {
            reactor.inject(ActorId(i), i as u64);
        }
        reactor.run_until_idle();
        let before = reactor.stats();
        assert_eq!(before.ring_grow_events, 0, "initial sizing must not count as growth");
        assert!(before.ring_capacity_hwm >= 8, "stats missed the ring capacity");
        assert_eq!(before.ring_occupancy_hwm, 8, "stats missed the 8-message batch");
        for i in 1..9usize {
            reactor.inject(ActorId(i), 10 + i as u64);
        }
        reactor.run_until_idle();
        let after = reactor.stats();
        assert!(after.ring_grow_events >= 1, "re-allocation was not counted: {after:?}");
        assert!(
            after.ring_capacity_hwm >= 64,
            "capacity high-water mark missed the grown ring: {after:?}"
        );
        assert_eq!(after.ring_occupancy_hwm, 64, "batch high-water mark wrong: {after:?}");
        assert_eq!(reactor.actor(sink).log.len(), 8 + 64);
    }

    #[test]
    fn ring_stats_are_cumulative_across_runs() {
        // `run_until_idle` returns the aggregated view; a second idle
        // call must not double-count shard-held ring stats.
        let mut reactor = mixer_ring(4, 1);
        reactor.inject(ActorId(0), Hop { value: 1, hops: 5 });
        let a = reactor.run_until_idle();
        let b = reactor.run_until_idle();
        assert_eq!(a.ring_grow_events, b.ring_grow_events);
        assert_eq!(a.ring_capacity_hwm, b.ring_capacity_hwm);
        assert_eq!(a.ring_occupancy_hwm, b.ring_occupancy_hwm);
        assert_eq!(a, reactor.stats());
    }

    #[test]
    fn merge_order_is_sender_index_order() {
        // Three senders forward to the same sink within one round; the
        // sink must receive them in sender-index order at any worker
        // count (the determinism contract's load-bearing property) —
        // here with the senders split across shards, so the merge
        // crosses shard boundaries.
        let mut reactor = Reactor::with_shard_span(2);
        for _ in 0..4usize {
            reactor.add_actor(Mixer { neighbour: ActorId(3), log: Vec::new() });
        }
        for i in 0..3 {
            reactor.inject(ActorId(i), Hop { value: 10 + i as u64, hops: 1 });
        }
        reactor.run_until_idle();
        let expect: Vec<u64> = (0..3)
            .map(|i| (10 + i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
            .collect();
        assert_eq!(reactor.actor(ActorId(3)).log, expect);
    }

    /// The state a shard's actors share: every handler appends to its
    /// shard's log, so each log holds exactly its own shard's deliveries,
    /// in the order the shard handled them — the same at any worker count.
    #[test]
    fn shard_state_is_lent_to_the_shards_own_actors_in_order() {
        type Log = Vec<(usize, u32)>;
        struct Logger {
            neighbour: ActorId,
        }
        impl Actor<Log> for Logger {
            type Msg = u32;
            fn on_message(&mut self, hops: u32, ctx: &mut Ctx<'_, u32, Log>) {
                let me = ctx.me().0;
                ctx.shard().0.push((me, hops));
                if hops > 0 {
                    ctx.send(self.neighbour, hops - 1);
                }
            }
        }
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut reactor: Reactor<Logger, Log> = Reactor::with_shard_span(4);
                for i in 0..30usize {
                    reactor.add_actor(Logger { neighbour: ActorId((i * 7 + 3) % 30) });
                }
                reactor.shard_state_mut(ActorId(29)).push((usize::MAX, 0));
                for i in (0..30).step_by(4) {
                    reactor.inject(ActorId(i), 12);
                }
                reactor.run_until_idle();
                reactor.shard_states().cloned().collect::<Vec<_>>()
            })
        };
        let logs = run(1);
        assert_eq!(logs.len(), 8);
        assert_eq!(logs[7][0], (usize::MAX, 0), "installed state was replaced");
        for (shard, log) in logs.iter().enumerate() {
            let own = shard * 4..(shard + 1) * 4;
            let handled = &log[usize::from(shard == 7)..];
            assert!(handled.iter().all(|(me, _)| own.contains(me)), "shard {shard}: {log:?}");
        }
        assert_eq!(logs.iter().map(Vec::len).sum::<usize>(), 1 + 8 * 13);
        assert_eq!(run(2), logs, "2 workers diverged");
        assert_eq!(run(4), logs, "4 workers diverged");
    }

    #[test]
    fn ring_wraps_around_across_rounds() {
        // A 2-actor ping-pong on a span-1 shard: each round packs one
        // message whose placement advances the wrapping tail through a
        // tiny power-of-two ring many times. Counts and logs must match
        // the plain run exactly.
        let mut reactor = Reactor::with_shard_span(1);
        reactor.add_actor(Mixer { neighbour: ActorId(1), log: Vec::new() });
        reactor.add_actor(Mixer { neighbour: ActorId(0), log: Vec::new() });
        reactor.inject(ActorId(0), Hop { value: 5, hops: 40 });
        let stats = reactor.run_until_idle();
        assert_eq!(stats.messages, 41);
        let lens: Vec<usize> = reactor.actors().map(|a| a.log.len()).collect();
        assert_eq!(lens, vec![21, 20]);
    }

    #[test]
    fn ring_grows_when_a_batch_exceeds_capacity() {
        // Fan-in: 63 senders target one sink in a single round, then 127
        // in a later round — the sink shard's ring must grow (next power
        // of two) without dropping or reordering anything.
        struct Burst {
            sink: ActorId,
            copies: u32,
            log: Vec<u64>,
        }
        impl Actor for Burst {
            type Msg = u64;
            fn on_message(&mut self, v: u64, ctx: &mut Ctx<'_, u64>) {
                if ctx.me() == self.sink {
                    self.log.push(v);
                } else {
                    for c in 0..self.copies {
                        ctx.send(self.sink, v * 1000 + c as u64);
                    }
                }
            }
        }
        let mut reactor = Reactor::with_shard_span(8);
        let sink = ActorId(0);
        for copies in [0u32, 1, 1, 1, 2, 2, 3, 3, 4] {
            reactor.add_actor(Burst { sink, copies, log: Vec::new() });
        }
        for round in 0..6u64 {
            for i in 1..9usize {
                reactor.inject(ActorId(i), round * 10 + i as u64);
            }
            reactor.run_until_idle();
        }
        // Per fan-in round the sink receives Σcopies = 17 messages, in
        // sender-index order with per-sender copy order preserved.
        let log = &reactor.actor(sink).log;
        assert_eq!(log.len(), 6 * 17);
        let first: Vec<u64> = log[..17].to_vec();
        let expect: Vec<u64> = {
            let copies = [0u64, 1, 1, 1, 2, 2, 3, 3, 4];
            (1..9usize)
                .flat_map(|i| (0..copies[i]).map(move |c| (i as u64) * 1000 + c))
                .collect()
        };
        assert_eq!(first, expect, "growth reordered the fan-in batch");
    }

    #[test]
    fn drain_while_push_within_a_round() {
        // Every actor holds several pending messages and sends while
        // draining: the in-flight sends must buffer (never mutate the
        // ring mid-drain) and arrive complete next round, with message
        // accounting intact.
        struct Chatty {
            next: ActorId,
            got: Vec<u64>,
        }
        impl Actor for Chatty {
            type Msg = u64;
            fn on_message(&mut self, v: u64, ctx: &mut Ctx<'_, u64>) {
                self.got.push(v);
                if v > 0 {
                    // Two sends per delivery, mid-drain.
                    ctx.send(self.next, v - 1);
                    ctx.send(ctx.me(), 0);
                }
            }
        }
        let mut reactor = Reactor::with_shard_span(2);
        for i in 0..6usize {
            reactor.add_actor(Chatty { next: ActorId((i + 1) % 6), got: Vec::new() });
        }
        for i in 0..6 {
            reactor.inject(ActorId(i), 3);
            reactor.inject(ActorId(i), 2);
        }
        let stats = reactor.run_until_idle();
        // Injected 12; every v>0 delivery spawns exactly 2 more.
        // Total deliveries: 12 + 2·(# of positive deliveries).
        let total: usize = reactor.actors().map(|a| a.got.len()).sum();
        assert_eq!(stats.messages as usize, total, "stats lost a delivery");
        let positive: usize =
            reactor.actors().map(|a| a.got.iter().filter(|&&v| v > 0).count()).sum();
        assert_eq!(total, 12 + 2 * positive);
    }

    #[test]
    #[should_panic(expected = "unknown actor-7")]
    fn inject_to_unknown_actor_panics() {
        let mut reactor = mixer_ring(2, 1);
        reactor.inject(ActorId(7), Hop { value: 0, hops: 0 });
    }

    #[test]
    fn idle_reactor_is_a_noop() {
        let mut reactor = mixer_ring(5, 1);
        let stats = reactor.run_until_idle();
        assert_eq!(stats, ReactorStats::default());
        assert_eq!(reactor.now(), 0);
    }
}
