//! Lockstep bridge driving one actor mesh split across several
//! [`Reactor`] partitions — in-process or, through caller-supplied
//! links, across OS processes.
//!
//! # Topology
//!
//! A star: the **controller** owns rank 0's partition *and* one link per
//! follower rank. Followers talk only to the controller, which routes
//! every cross-rank batch; rank-to-rank traffic never needs direct
//! connections (a controller-plane/data-plane split in the atm0s-sdn
//! sense, with the step protocol as the control plane).
//!
//! # Step protocol
//!
//! Each single-reactor scheduler iteration becomes one fenced step:
//!
//! * **Round** (some partition has pending mail):
//!   [`Step::Drain`] carries routed remote deliveries to stage, every
//!   rank runs `Reactor::drain_phase` and replies
//!   [`Reply::DrainDone`] with its remote-destined batches; the
//!   controller routes them by destination rank and issues
//!   [`Step::Merge`], after which every rank runs
//!   `Reactor::merge_phase` and fences with [`Reply::Fence`].
//! * **Timers** (no mail anywhere): the controller picks the global
//!   minimum wheel deadline, every rank runs `Reactor::advance_to`,
//!   and remotely owned fired messages come back in
//!   [`Reply::TimersDone`] to be staged with the next round's
//!   [`Step::Drain`].
//! * **Idle** (no mail, no deadlines): the controller sends
//!   [`Step::Shutdown`] and [`drive`] returns; what happens next (e.g.
//!   collecting results over the same connections) is the caller's
//!   protocol.
//!
//! # Determinism
//!
//! Bit-equivalence with the single-process reactor holds because every
//! ordering decision is reproduced, not approximated:
//!
//! * remote batches keep their **global sender-shard index** and are
//!   routed in ascending order, so `Reactor::merge_phase` interleaves
//!   them into destination rings exactly where one big reactor's merge
//!   loop would have visited those sending shards;
//! * a sender shard's per-destination subsequences preserve send order,
//!   and per-destination-actor mailbox order is all the merge contract
//!   promises — the split loses nothing;
//! * fired timers are staged destination-side in source-rank order
//!   (wheel order within a rank). This is identical to the single
//!   wheel's global sequence order provided same-deadline timers are
//!   not scheduled from different ranks — trivially true for
//!   `rths_net`, where only the rank-0 coordinator schedules timers.
//!   Meshes that schedule same-deadline timers from several ranks would
//!   need a global sequence merge here instead.

use crate::reactor::{Actor, ActorId, Reactor, RemoteBatch};

/// The contiguous partition layout of a global actor mesh: rank `r`
/// owns actor ids `[start(r), start(r + 1))`, each a multiple of the
/// mailbox span, so no shard ever straddles two ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `ranks + 1` fence posts: `starts[r]` is rank `r`'s first global
    /// actor id, `starts[ranks]` the global actor total.
    starts: Vec<usize>,
}

impl ShardMap {
    /// Splits `global_total` actors across `ranks` processes: shards
    /// (`span`-actor blocks) are divided as evenly as possible, earlier
    /// ranks taking the remainder. Small meshes may leave high ranks
    /// empty — they still fence every step, they just own no actors.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero or `span` is not a power of two.
    pub fn contiguous(global_total: usize, span: usize, ranks: usize) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        assert!(span.is_power_of_two(), "shard span must be a power of two");
        let shards = global_total.div_ceil(span);
        let per = shards / ranks;
        let extra = shards % ranks;
        let mut starts = Vec::with_capacity(ranks + 1);
        let mut shard_acc = 0usize;
        for r in 0..ranks {
            starts.push((shard_acc * span).min(global_total));
            shard_acc += per + usize::from(r < extra);
        }
        starts.push(global_total);
        Self { starts }
    }

    /// Number of ranks (processes) in the layout.
    pub(crate) fn ranks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total actors across all ranks.
    pub(crate) fn global_total(&self) -> usize {
        self.starts[self.ranks()]
    }

    /// First global actor id owned by `rank`.
    pub fn start(&self, rank: usize) -> usize {
        self.starts[rank]
    }

    /// Number of actors owned by `rank`.
    pub fn len(&self, rank: usize) -> usize {
        self.starts[rank + 1] - self.starts[rank]
    }

    /// The rank owning global actor id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the mesh.
    pub(crate) fn rank_of(&self, id: ActorId) -> usize {
        let ranks = self.ranks();
        for r in 0..ranks {
            if id.0 >= self.starts[r] && id.0 < self.starts[r + 1] {
                return r;
            }
        }
        panic!("{id} outside the {}-actor mesh", self.global_total());
    }
}

/// Controller → follower step frames (one reply each, except
/// [`Shutdown`](Step::Shutdown) which ends the loop).
#[derive(Debug)]
pub enum Step<M> {
    /// Stage routed remote deliveries (possibly none), then run
    /// `Reactor::drain_phase`; reply [`Reply::DrainDone`].
    Drain {
        /// Remote-origin deliveries for this rank, in source-rank order
        /// (wheel order within a source).
        staged: Vec<(ActorId, M)>,
    },
    /// Run `Reactor::merge_phase` with these routed batches; reply
    /// [`Reply::Fence`].
    Merge {
        /// Batches destined to this rank, ascending by global sender
        /// shard.
        batches: Vec<RemoteBatch<M>>,
    },
    /// Advance logical time to the global minimum deadline; reply
    /// [`Reply::TimersDone`].
    Timers {
        /// The fleet-wide earliest wheel deadline.
        deadline: u64,
    },
    /// The mesh is idle; leave the step loop.
    Shutdown,
}

/// Follower → controller replies.
#[derive(Debug)]
pub enum Reply<M> {
    /// Drain finished; these batches need routing.
    DrainDone {
        /// Remote-destined batches, ascending by global sender shard.
        out: Vec<RemoteBatch<M>>,
    },
    /// Merge finished (also sent once on `follow` entry, fencing the
    /// initial state).
    Fence {
        /// Locally pending deliveries after the merge.
        pending: usize,
        /// Earliest local wheel deadline.
        next_deadline: Option<u64>,
    },
    /// Timers fired; `fired` needs routing.
    TimersDone {
        /// Fired deliveries owned by other ranks, in wheel order.
        fired: Vec<(ActorId, M)>,
        /// Locally pending deliveries after staging own fired timers.
        pending: usize,
        /// Earliest remaining local wheel deadline.
        next_deadline: Option<u64>,
    },
}

impl<M> Reply<M> {
    /// Discriminant name for protocol-violation diagnostics (avoids a
    /// `Debug` bound on the message type).
    fn kind(&self) -> &'static str {
        match self {
            Reply::DrainDone { .. } => "DrainDone",
            Reply::Fence { .. } => "Fence",
            Reply::TimersDone { .. } => "TimersDone",
        }
    }
}

/// The controller's half of one follower connection.
///
/// Implementations decide the transport: in-memory channels for tests,
/// length-prefixed frames over a Unix socket for `rths_net::multiproc`.
/// Both directions are allowed to panic on a broken peer — a dead
/// follower is unrecoverable mid-step.
pub trait ControllerLink<M> {
    /// Ships one step to the follower.
    fn send_step(&mut self, step: Step<M>);
    /// Blocks for the follower's next reply.
    fn recv_reply(&mut self) -> Reply<M>;
}

/// The follower's half of its controller connection.
pub trait FollowerLink<M> {
    /// Blocks for the controller's next step.
    fn recv_step(&mut self) -> Step<M>;
    /// Ships one reply to the controller.
    fn send_reply(&mut self, reply: Reply<M>);
}

/// Per-rank fence state the controller tracks between steps.
#[derive(Debug, Clone, Copy)]
struct FenceState {
    pending: usize,
    next_deadline: Option<u64>,
}

/// Drives the whole mesh to idleness from the controller: `local` is
/// rank 0's partition, `links[r - 1]` connects rank `r`. Returns once
/// every partition has neither pending mail nor timers, after sending
/// each follower [`Step::Shutdown`].
///
/// With zero links this is exactly
/// [`run_until_idle`](Reactor::run_until_idle) on the phase-split API —
/// the 1-process special case stays on the same code path.
///
/// # Panics
///
/// Panics if `local` is not rank 0 of `map`, if a follower replies out
/// of protocol, or if a message addresses an actor outside the mesh.
pub fn drive<A, S, L>(local: &mut Reactor<A, S>, links: &mut [L], map: &ShardMap)
where
    A: Actor<S>,
    S: Default + Send,
    L: ControllerLink<A::Msg>,
{
    let ranks = map.ranks();
    assert_eq!(links.len() + 1, ranks, "one link per non-zero rank");
    assert_eq!(local.base(), map.start(0), "local reactor is not rank 0");
    let mut fences: Vec<FenceState> = links
        .iter_mut()
        .map(|link| match link.recv_reply() {
            Reply::Fence { pending, next_deadline } => FenceState { pending, next_deadline },
            other => panic!("expected the initial fence, got {}", other.kind()),
        })
        .collect();
    // Remote-fired timer deliveries awaiting the next round, per rank.
    let mut held: Vec<Vec<(ActorId, A::Msg)>> = (0..ranks).map(|_| Vec::new()).collect();
    loop {
        let in_flight: usize = held.iter().map(Vec::len).sum();
        let remote_pending: usize = fences.iter().map(|f| f.pending).sum();
        if local.pending() + remote_pending + in_flight > 0 {
            // Round step: drain everywhere, route, merge everywhere.
            for (i, link) in links.iter_mut().enumerate() {
                link.send_step(Step::Drain { staged: std::mem::take(&mut held[i + 1]) });
            }
            local.stage_external(std::mem::take(&mut held[0]));
            let mut outs: Vec<Vec<RemoteBatch<A::Msg>>> = Vec::with_capacity(ranks);
            outs.push(local.drain_phase());
            for link in links.iter_mut() {
                match link.recv_reply() {
                    Reply::DrainDone { out } => outs.push(out),
                    other => panic!("expected DrainDone, got {}", other.kind()),
                }
            }
            let mut routed = route_batches(map, outs);
            let local_batches = std::mem::take(&mut routed[0]);
            for (i, link) in links.iter_mut().enumerate() {
                link.send_step(Step::Merge { batches: std::mem::take(&mut routed[i + 1]) });
            }
            local.merge_phase(local_batches);
            for (i, link) in links.iter_mut().enumerate() {
                match link.recv_reply() {
                    Reply::Fence { pending, next_deadline } => {
                        fences[i] = FenceState { pending, next_deadline };
                    }
                    other => panic!("expected Fence, got {}", other.kind()),
                }
            }
        } else {
            // Timers step: jump every rank to the global minimum
            // deadline; nothing pending means nothing can schedule in
            // between, so the minimum is exact.
            let deadline = std::iter::once(local.next_deadline())
                .chain(fences.iter().map(|f| f.next_deadline))
                .flatten()
                .min();
            let Some(deadline) = deadline else { break };
            for link in links.iter_mut() {
                link.send_step(Step::Timers { deadline });
            }
            // Source-rank order (rank 0 first): equivalent to global
            // wheel order under the same-deadline constraint in the
            // module docs.
            let mut fired_all: Vec<Vec<(ActorId, A::Msg)>> = Vec::with_capacity(ranks);
            fired_all.push(local.advance_to(deadline));
            for (i, link) in links.iter_mut().enumerate() {
                match link.recv_reply() {
                    Reply::TimersDone { fired, pending, next_deadline } => {
                        fences[i] = FenceState { pending, next_deadline };
                        fired_all.push(fired);
                    }
                    other => panic!("expected TimersDone, got {}", other.kind()),
                }
            }
            for fired in fired_all {
                for (to, msg) in fired {
                    held[map.rank_of(to)].push((to, msg));
                }
            }
        }
    }
    for link in links.iter_mut() {
        link.send_step(Step::Shutdown);
    }
}

/// Runs one follower rank's step loop until [`Step::Shutdown`]. Fences
/// the initial state first, so [`drive`] sees pre-staged work (normally
/// none — injections happen on the controller).
pub fn follow<A, S, L>(reactor: &mut Reactor<A, S>, link: &mut L)
where
    A: Actor<S>,
    S: Default + Send,
    L: FollowerLink<A::Msg>,
{
    link.send_reply(Reply::Fence {
        pending: reactor.pending(),
        next_deadline: reactor.next_deadline(),
    });
    loop {
        match link.recv_step() {
            Step::Drain { staged } => {
                reactor.stage_external(staged);
                let out = reactor.drain_phase();
                link.send_reply(Reply::DrainDone { out });
            }
            Step::Merge { batches } => {
                reactor.merge_phase(batches);
                link.send_reply(Reply::Fence {
                    pending: reactor.pending(),
                    next_deadline: reactor.next_deadline(),
                });
            }
            Step::Timers { deadline } => {
                let fired = reactor.advance_to(deadline);
                link.send_reply(Reply::TimersDone {
                    fired,
                    pending: reactor.pending(),
                    next_deadline: reactor.next_deadline(),
                });
            }
            Step::Shutdown => break,
        }
    }
}

/// Splits every rank's drain output by destination rank. `outs` is
/// indexed by source rank; since source ranks own ascending shard
/// ranges and each rank's batches arrive ascending, visiting sources in
/// rank order keeps every destination's list ascending by global sender
/// shard — the order [`Reactor::merge_phase`] requires.
fn route_batches<M>(
    map: &ShardMap,
    outs: Vec<Vec<RemoteBatch<M>>>,
) -> Vec<Vec<RemoteBatch<M>>> {
    let ranks = map.ranks();
    let mut routed: Vec<Vec<RemoteBatch<M>>> = (0..ranks).map(|_| Vec::new()).collect();
    for out in outs {
        for batch in out {
            let mut per_rank: Vec<Vec<(ActorId, M)>> = (0..ranks).map(|_| Vec::new()).collect();
            for (to, msg) in batch.msgs {
                per_rank[map.rank_of(to)].push((to, msg));
            }
            for (rank, msgs) in per_rank.into_iter().enumerate() {
                if !msgs.is_empty() {
                    routed[rank].push(RemoteBatch { sender_shard: batch.sender_shard, msgs });
                }
            }
        }
    }
    routed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Ctx;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// In-memory link pair over mpsc channels (each side blocks on the
    /// other, mirroring a socket's recv semantics).
    struct ChanController<M> {
        tx: Sender<Step<M>>,
        rx: Receiver<Reply<M>>,
    }
    struct ChanFollower<M> {
        rx: Receiver<Step<M>>,
        tx: Sender<Reply<M>>,
    }

    fn chan_link<M>() -> (ChanController<M>, ChanFollower<M>) {
        let (step_tx, step_rx) = channel();
        let (reply_tx, reply_rx) = channel();
        (
            ChanController { tx: step_tx, rx: reply_rx },
            ChanFollower { rx: step_rx, tx: reply_tx },
        )
    }

    impl<M> ControllerLink<M> for ChanController<M> {
        fn send_step(&mut self, step: Step<M>) {
            self.tx.send(step).expect("follower hung up");
        }
        fn recv_reply(&mut self) -> Reply<M> {
            self.rx.recv().expect("follower hung up")
        }
    }

    impl<M> FollowerLink<M> for ChanFollower<M> {
        fn recv_step(&mut self) -> Step<M> {
            self.rx.recv().expect("controller hung up")
        }
        fn send_reply(&mut self, reply: Reply<M>) {
            self.tx.send(reply).expect("controller hung up")
        }
    }

    /// Test actor exercising both sends and timers: forwards a mixed
    /// value around a stride ring, every third hop through the wheel.
    struct Mixer {
        neighbour: ActorId,
        log: Vec<(u64, u64)>,
    }

    #[derive(Debug)]
    struct Hop {
        value: u64,
        hops: u32,
    }

    impl Actor for Mixer {
        type Msg = Hop;
        fn on_message(&mut self, msg: Hop, ctx: &mut Ctx<'_, Hop>) {
            self.log.push((ctx.now(), msg.value));
            if msg.hops > 0 {
                let value = msg.value.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                let next = Hop { value, hops: msg.hops - 1 };
                if msg.hops.is_multiple_of(3) {
                    ctx.send_after(1 + (msg.value % 4), self.neighbour, next);
                } else {
                    ctx.send(self.neighbour, next);
                }
            }
        }
    }

    const ACTORS: usize = 37;
    const SPAN: usize = 4;

    fn build(rank: usize, map: &ShardMap) -> Reactor<Mixer> {
        let mut reactor = Reactor::partitioned(SPAN, map.start(rank), ACTORS);
        for i in map.start(rank)..map.start(rank) + map.len(rank) {
            reactor.add_actor(Mixer {
                neighbour: ActorId((i * 11 + 1) % ACTORS),
                log: Vec::new(),
            });
        }
        reactor
    }

    /// Reference run: one plain reactor, same mesh.
    fn single_run() -> Vec<Vec<(u64, u64)>> {
        let mut reactor = Reactor::with_shard_span(SPAN);
        for i in 0..ACTORS {
            reactor.add_actor(Mixer {
                neighbour: ActorId((i * 11 + 1) % ACTORS),
                log: Vec::new(),
            });
        }
        for i in (0..ACTORS).step_by(5) {
            reactor.inject(ActorId(i), Hop { value: i as u64, hops: 30 });
        }
        reactor.run_until_idle();
        reactor.into_actors().into_iter().map(|a| a.log).collect()
    }

    /// Same mesh across `ranks` in-process partitions, followers on
    /// threads; note: timers here are scheduled by actors on *every*
    /// rank, but each hop chain is strictly sequential (one message in
    /// flight per chain), so no two ranks ever fire the same deadline
    /// into the same destination round — the documented constraint
    /// holds.
    fn bridged_run(ranks: usize) -> Vec<Vec<(u64, u64)>> {
        let map = ShardMap::contiguous(ACTORS, SPAN, ranks);
        let mut local = build(0, &map);
        for i in (0..ACTORS).step_by(5) {
            if map.rank_of(ActorId(i)) == 0 {
                local.inject(ActorId(i), Hop { value: i as u64, hops: 30 });
            }
        }
        let mut controllers = Vec::new();
        let mut followers = Vec::new();
        for _ in 1..ranks {
            let (c, f) = chan_link();
            controllers.push(c);
            followers.push(f);
        }
        let mut remote_logs: Vec<Vec<Vec<(u64, u64)>>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = followers
                .into_iter()
                .enumerate()
                .map(|(i, mut link)| {
                    let map = map.clone();
                    scope.spawn(move || {
                        let rank = i + 1;
                        let mut reactor = build(rank, &map);
                        for j in (0..ACTORS).step_by(5) {
                            if map.rank_of(ActorId(j)) == rank {
                                reactor.inject(ActorId(j), Hop { value: j as u64, hops: 30 });
                            }
                        }
                        follow(&mut reactor, &mut link);
                        reactor.into_actors().into_iter().map(|a| a.log).collect::<Vec<_>>()
                    })
                })
                .collect();
            // If `drive` panics, drop the controller links *before*
            // joining so blocked followers error out instead of
            // deadlocking the scope join.
            let drove = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drive(&mut local, &mut controllers, &map);
            }));
            drop(controllers);
            for handle in handles {
                match handle.join() {
                    Ok(logs) => remote_logs.push(logs),
                    Err(_) if drove.is_err() => {} // controller panic is the root cause
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            if let Err(panic) = drove {
                std::panic::resume_unwind(panic);
            }
        });
        let mut all: Vec<Vec<(u64, u64)>> =
            local.into_actors().into_iter().map(|a| a.log).collect();
        for logs in remote_logs {
            all.extend(logs);
        }
        all
    }

    #[test]
    fn contiguous_map_covers_the_mesh() {
        let map = ShardMap::contiguous(ACTORS, SPAN, 3);
        assert_eq!(map.ranks(), 3);
        assert_eq!(map.global_total(), ACTORS);
        assert_eq!(map.start(0), 0);
        for r in 0..3 {
            assert_eq!(map.start(r) % SPAN, 0, "rank {r} start unaligned");
            for id in map.start(r)..map.start(r) + map.len(r) {
                assert_eq!(map.rank_of(ActorId(id)), r);
            }
        }
        assert_eq!((0..3).map(|r| map.len(r)).sum::<usize>(), ACTORS);
    }

    #[test]
    fn tiny_mesh_leaves_high_ranks_empty() {
        let map = ShardMap::contiguous(3, 4, 4);
        assert_eq!(map.len(0), 3);
        for r in 1..4 {
            assert_eq!(map.len(r), 0, "rank {r} should be empty");
        }
        assert_eq!(map.rank_of(ActorId(2)), 0);
    }

    #[test]
    fn two_partitions_match_the_single_reactor_exactly() {
        assert_eq!(bridged_run(2), single_run());
    }

    #[test]
    fn four_partitions_match_the_single_reactor_exactly() {
        assert_eq!(bridged_run(4), single_run());
    }

    #[test]
    fn more_ranks_than_shards_still_terminates() {
        // 16 ranks over a 37-actor mesh at span 4: several ranks own
        // nothing and must idle through every fence without deadlock.
        assert_eq!(bridged_run(16), single_run());
    }
}
