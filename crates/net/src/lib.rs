//! Decentralized message-passing runtimes for RTHS.
//!
//! The simulator in `rths-sim` runs the whole system in one loop; this
//! crate demonstrates the paper's *deployment claim* — "the dynamic helper
//! selection strategies of each peer rely completely on the peer's local
//! information, and therefore can be implemented in a fully distributed
//! fashion" (§IV) — by running every **peer** and every **helper** as its
//! own actor, communicating *only* through messages:
//!
//! * peers learn which helpers exist from a tracker actor (the only
//!   bootstrap service real systems have): a directory, never a
//!   controller;
//! * each epoch, a peer samples its RTHS strategy, sends a `Request` to
//!   exactly one helper and receives back a `Rate` — its only feedback;
//! * helpers split their (locally stepped) stochastic capacity over the
//!   requests they happen to receive;
//! * a coordinator drives the epoch barrier and records metrics — it
//!   *observes* but never *instructs*: no assignment decision flows
//!   downward, and it is on no peer's path — peers report their epoch
//!   to it in one batch per mailbox shard, after the fact.
//!
//! The protocol state machines live in [`machines`], once; two
//! [`Backend`]s host them:
//!
//! * [`Backend::Reactor`] ([`reactor_backend::ReactorRuntime`], the
//!   default) — every actor as a poll-driven state machine on an
//!   `rths_reactor` event loop: thousands of actors per thread, with
//!   optional seeded delivery delays on its timer wheel;
//! * [`Backend::Multiproc`] ([`multiproc`]) — the same mesh sharded
//!   across OS processes: the [`wire`] codec serializes the reactor's
//!   per-shard send buffers into length-prefixed frames, and a star of
//!   Unix-domain sockets replays the in-process bridge protocol
//!   verbatim.
//!
//! Because the epoch protocol is a barrier and every actor owns a
//! deterministic RNG stream, a run reproduces `rths_sim::System`
//! **bit-for-bit on both backends**, at any `RTHS_THREADS` and any
//! process count (asserted by the `sim_net_equivalence` integration
//! test). Link impairments come from `rths_sim`'s shared
//! `ImpairmentPlan` (Gilbert-Elliott bursty loss, token-bucket policing,
//! Markov link bandwidth), set on the [`SimConfig`](rths_sim::SimConfig)
//! the run wraps; every impairment decision is a pure function of
//! `(plan seed, link, epoch)`, so impaired runs stay bit-identical too.
//! [`NetConfig::delivery_jitter`] delays each peer's request and each
//! helper's tick through the timer wheel by a draw keyed on the plan
//! seed — the same test sweeps plan seeds and bounds to show that no
//! delivery schedule can move a bit of the outcome.
//!
//! # Example
//!
//! ```
//! use rths_net::NetConfig;
//! use rths_sim::{Scenario, System};
//!
//! let sim = Scenario::paper_small().seed(11).build();
//! let net = rths_net::run(NetConfig::from_sim(sim.clone()), 50);
//! let reference = System::new(sim).run(50);
//! assert_eq!(net.epochs, 50);
//! assert_eq!(net.metrics.welfare.values(), reference.metrics.welfare.values());
//! ```

#![forbid(unsafe_code)]

pub mod machines;
pub mod multiproc;
pub mod reactor_backend;
pub mod runtime;
pub mod wire;

pub use multiproc::{run_multiproc, run_multiproc_with_span, MultiprocReport};
pub use reactor_backend::{NetActor, NetMsg, ReactorRuntime};
pub use runtime::{run, Backend, MessageTotals, NetConfig, NetOutcome};
