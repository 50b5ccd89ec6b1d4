//! Deterministic event-loop actor runtime for RTHS.
//!
//! `rths_net`'s original runtime proves the paper's deployment claim with
//! one OS thread per peer/helper, which caps demonstrable populations at a
//! few hundred actors. This crate hosts **thousands of actors per thread**
//! instead: every peer, helper, tracker, and coordinator becomes a
//! poll-driven state machine implementing [`Actor`], scheduled by a
//! [`Reactor`] that owns their mailboxes and a logical-time [`TimerWheel`].
//! No actor ever blocks; the only OS threads are the optional `rths_par`
//! workers the reactor shards rounds across.
//!
//! # Execution model
//!
//! The reactor executes **rounds**. In one round, every actor with a
//! non-empty mailbox drains it, handling each message with
//! [`Actor::on_message`]. Outgoing sends made through [`Ctx`] are *not*
//! delivered immediately — they are buffered per sender and merged into the
//! destination mailboxes **in sender-index order** after the round. When no
//! mailbox has messages, logical time jumps to the next [`TimerWheel`]
//! deadline and the due timer messages are delivered, in schedule order.
//! [`Reactor::run_until_idle`] repeats this until there are neither
//! messages nor timers left.
//!
//! # Mailbox rings
//!
//! Mailboxes are not per-actor queues: actors are grouped into
//! contiguous shards of [`SHARD_SPAN`] and each shard owns **one
//! power-of-two message ring** with per-actor head/len cursors — a
//! delivery batch is packed contiguously per destination, a round drains
//! each actor's span in place. Per-actor memory is two `u32` cursors
//! instead of a `VecDeque` handle plus a private heap block, which is
//! what keeps 10⁵-actor meshes cache- and allocator-friendly. See
//! `reactor.rs`'s module docs for the layout.
//!
//! # Determinism contract
//!
//! Delivery order is a pure function of the actor graph: sender index,
//! per-sender send order, and timer schedule order. Because the merge is
//! index-ordered (shards merge in shard order, actors within a shard run
//! in index order), sharding a round's processing across `RTHS_THREADS`
//! workers (via [`rths_par::par_sharded`]) cannot reorder anything —
//! a run is **bit-for-bit identical at any worker count and any shard
//! span**, which is what lets `rths_net`'s reactor backend reproduce
//! the simulator exactly (see `tests/sim_net_equivalence.rs` in the
//! workspace root).
//!
//! # Multi-process partitions
//!
//! A mesh can be sharded across OS processes: each process hosts a
//! [`Reactor::partitioned`] owning a contiguous, span-aligned global
//! actor range, and the [`bridge`] module drives all partitions in
//! lockstep — each round splits into a drain phase (remote-destined
//! sends extracted as [`RemoteBatch`]es) and a merge phase (local and
//! routed remote batches placed in global sender-shard order), so the
//! N-process run remains bit-identical to the single-process one. The
//! plain reactor is the 1-partition special case of the same code path.
//!
//! # Example
//!
//! ```
//! use rths_reactor::{Actor, ActorId, Ctx, Reactor};
//!
//! struct Counter {
//!     seen: u64,
//! }
//!
//! impl Actor for Counter {
//!     type Msg = u64;
//!     fn on_message(&mut self, msg: u64, ctx: &mut Ctx<'_, u64>) {
//!         self.seen += msg;
//!         if msg > 1 {
//!             // Halve and echo to ourselves one logical tick later.
//!             ctx.send_after(1, ctx.me(), msg / 2);
//!         }
//!     }
//! }
//!
//! let mut reactor = Reactor::new();
//! let id = reactor.add_actor(Counter { seen: 0 });
//! reactor.inject(id, 8);
//! reactor.run_until_idle();
//! assert_eq!(reactor.actor(id).seen, 8 + 4 + 2 + 1);
//! assert_eq!(reactor.now(), 3); // three timer hops
//! ```

#![forbid(unsafe_code)]

pub mod bridge;
mod reactor;
mod wheel;

pub use reactor::{Actor, ActorId, Ctx, Reactor, ReactorStats, RemoteBatch, SHARD_SPAN};
pub use wheel::TimerWheel;
