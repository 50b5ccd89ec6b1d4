//! Probes of `rths_reactor`: mailbox rounds, the timer wheel, the lockstep
//! bridge.
//!
//! The mailbox and bridge probes replay the message pattern of one
//! `rths_net` epoch — per peer a tick, a request, a selection, a rate and an
//! observation: five messages — through actors whose handlers do nothing but
//! keep the protocol going, so what is timed is the reactor, not the
//! learners.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use rths_net::NetMsg;
use rths_reactor::bridge::{self, ControllerLink, FollowerLink, Reply, ShardMap, Step};
use rths_reactor::{Actor, ActorId, Ctx, Reactor, TimerWheel, SHARD_SPAN};

use super::{median_of_passes, secs, Readings, PASSES};
use crate::clock;
use crate::workload::Workload;

pub(super) fn probe(out: &mut Readings) {
    mailbox_probe(out);
    wheel_probe(out);
    bridge_probe(out);
}

/// One actor of the replayed mesh: actor 0 coordinates, the next `hubs`
/// actors play the helpers, the rest are leaves. The messages are
/// `rths_net`'s own [`NetMsg`], so the rings move what the workloads' rings
/// move; the payloads are constants nobody reads.
enum ProbeActor {
    Coordinator { hubs: usize, leaves: usize, remaining: u64, selected: usize, closed: usize },
    Hub { pending: Vec<ActorId> },
    Leaf { hub: ActorId },
}

const COORDINATOR: ActorId = ActorId(0);
const EPOCH: u64 = 0;

impl ProbeActor {
    fn start_epoch(hubs: usize, leaves: usize, ctx: &mut Ctx<'_, NetMsg>) {
        for id in 1..=hubs + leaves {
            ctx.send(ActorId(id), NetMsg::Tick { epoch: EPOCH });
        }
    }
}

impl Actor for ProbeActor {
    type Msg = NetMsg;

    fn on_message(&mut self, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        match self {
            ProbeActor::Coordinator { hubs, leaves, remaining, selected, closed } => {
                match msg {
                    NetMsg::Run { epochs } => {
                        *remaining = epochs;
                        Self::start_epoch(*hubs, *leaves, ctx);
                    }
                    NetMsg::NextEpoch => Self::start_epoch(*hubs, *leaves, ctx),
                    NetMsg::Selected { .. } => {
                        *selected += 1;
                        if *selected == *leaves {
                            *selected = 0;
                            for hub in 1..=*hubs {
                                ctx.send(ActorId(hub), NetMsg::Settle { epoch: EPOCH });
                            }
                        }
                    }
                    NetMsg::Observed { .. } | NetMsg::HelperReport { .. } => {
                        *closed += 1;
                        if *closed == *leaves + *hubs {
                            *closed = 0;
                            *remaining -= 1;
                            if *remaining > 0 {
                                // The epoch barrier rides the timer wheel.
                                ctx.send_after(1, COORDINATOR, NetMsg::NextEpoch);
                            }
                        }
                    }
                    _ => {}
                }
            }
            ProbeActor::Hub { pending } => match msg {
                NetMsg::Request { peer, .. } => pending.push(ActorId(peer as usize)),
                NetMsg::Settle { .. } => {
                    let load = pending.len();
                    for leaf in pending.drain(..) {
                        ctx.send(leaf, NetMsg::Rate { epoch: EPOCH, kbps: 2.5 });
                    }
                    let report = NetMsg::HelperReport {
                        helper: ctx.me().0,
                        epoch: EPOCH,
                        load,
                        capacity: 800.0,
                    };
                    ctx.send(COORDINATOR, report);
                }
                _ => {}
            },
            ProbeActor::Leaf { hub } => {
                let peer = ctx.me().0 as u64;
                match msg {
                    NetMsg::Tick { .. } => {
                        ctx.send(*hub, NetMsg::Request { peer, epoch: EPOCH, lost: false });
                        ctx.send(
                            COORDINATOR,
                            NetMsg::Selected { peer, epoch: EPOCH, helper: hub.0 },
                        );
                    }
                    NetMsg::Rate { kbps, .. } => {
                        let seen =
                            NetMsg::Observed { peer, epoch: EPOCH, rate: kbps, estimate: 0.0 };
                        ctx.send(COORDINATOR, seen);
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Adds the actors with global ids `base .. base + len` of a mesh of one
/// coordinator, `hubs` hubs and `leaves` leaves (the partition-aware
/// construction `rths_net` uses).
fn populate(
    reactor: &mut Reactor<ProbeActor>,
    hubs: usize,
    leaves: usize,
    base: usize,
    len: usize,
) {
    for id in base..base + len {
        reactor.add_actor(match id {
            0 => ProbeActor::Coordinator { hubs, leaves, remaining: 0, selected: 0, closed: 0 },
            id if id <= hubs => ProbeActor::Hub { pending: Vec::new() },
            id => ProbeActor::Leaf { hub: ActorId(1 + id % hubs) },
        });
    }
}

/// `reactor_wide`'s mesh — 99,992 leaves on 8 hubs — with empty handlers:
/// sort, deliver, drain and the barrier timer are all that runs.
fn mailbox_probe(out: &mut Readings) {
    const EPOCHS: u64 = 4;
    let w = Workload::ReactorWide;
    let (hubs, leaves) = (w.helpers(), w.population());
    let mut reactor = Reactor::new();
    populate(&mut reactor, hubs, leaves, 0, 1 + hubs + leaves);
    let run = |reactor: &mut Reactor<ProbeActor>| {
        let before = reactor.stats();
        reactor.inject(COORDINATOR, NetMsg::Run { epochs: EPOCHS });
        let (elapsed, after) = secs(|| reactor.run_until_idle());
        (elapsed, after.messages - before.messages, after.rounds - before.rounds)
    };
    // Rings are sized by the first epochs; a running workload is past that.
    rths_par::with_threads(1, || run(&mut reactor));
    let mut per_msg = Vec::with_capacity(PASSES);
    let mut rounds_per_s = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let (elapsed, messages, rounds) = rths_par::with_threads(1, || run(&mut reactor));
        per_msg.push(elapsed * 1e9 / messages as f64);
        rounds_per_s.push(rounds as f64 / elapsed);
    }
    out.insert("reactor.mailbox.ns_per_msg".into(), crate::stats::median(&per_msg));
    out.insert("reactor.mailbox.rounds_per_s".into(), crate::stats::median(&rounds_per_s));
    let stats = reactor.stats();
    out.insert("reactor.mailbox.ring_grow_events".into(), stats.ring_grow_events as f64);
    out.insert("reactor.mailbox.ring_capacity_hwm".into(), stats.ring_capacity_hwm as f64);
    out.insert(
        "reactor.mailbox.ns_per_msg_t2".into(),
        median_of_passes(|| {
            let (elapsed, messages, _) = rths_par::with_threads(2, || run(&mut reactor));
            elapsed * 1e9 / messages as f64
        }),
    );
}

/// The barrier clock: 100,000 timers spread over 64 ticks, then fired tick
/// by tick.
fn wheel_probe(out: &mut Readings) {
    const TIMERS: u64 = 100_000;
    const TICKS: u64 = 64;
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut schedule = Vec::with_capacity(PASSES);
    let mut fire = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let now = wheel.now();
        let (elapsed, ()) = secs(|| {
            for i in 0..TIMERS {
                wheel.schedule(now + 1 + i % TICKS, ActorId(i as usize), i);
            }
        });
        schedule.push(elapsed * 1e9 / TIMERS as f64);
        let (elapsed, fired) = secs(|| {
            (now + 1..=now + TICKS)
                .map(|tick| black_box(wheel.fire_due(tick)).len() as u64)
                .sum::<u64>()
        });
        assert_eq!(fired, TIMERS, "the wheel lost timers");
        fire.push(elapsed * 1e9 / TIMERS as f64);
    }
    out.insert("reactor.wheel.schedule_ns".into(), crate::stats::median(&schedule));
    out.insert("reactor.wheel.fire_ns".into(), crate::stats::median(&fire));
}

/// The controller's end of an in-memory link that the harness owns: it
/// counts the messages that cross and times every wait for the follower.
struct TimedController {
    steps: Sender<Step<NetMsg>>,
    replies: Receiver<Reply<NetMsg>>,
    waited: Duration,
    crossed: u64,
}

struct ChannelFollower {
    steps: Receiver<Step<NetMsg>>,
    replies: Sender<Reply<NetMsg>>,
}

impl ControllerLink<NetMsg> for TimedController {
    fn send_step(&mut self, step: Step<NetMsg>) {
        self.crossed += match &step {
            Step::Drain { staged } => staged.len(),
            Step::Merge { batches } => batches.iter().map(|b| b.msgs.len()).sum(),
            Step::Timers { .. } | Step::Shutdown => 0,
        } as u64;
        self.steps.send(step).expect("follower alive");
    }

    fn recv_reply(&mut self) -> Reply<NetMsg> {
        let start = clock::now();
        let reply = self.replies.recv().expect("follower alive");
        self.waited += clock::now().duration_since(start);
        self.crossed += match &reply {
            Reply::DrainDone { out } => out.iter().map(|b| b.msgs.len()).sum(),
            Reply::TimersDone { fired, .. } => fired.len(),
            Reply::Fence { .. } => 0,
        } as u64;
        reply
    }
}

impl FollowerLink<NetMsg> for ChannelFollower {
    fn recv_step(&mut self) -> Step<NetMsg> {
        self.steps.recv().expect("controller alive")
    }

    fn send_reply(&mut self, reply: Reply<NetMsg>) {
        self.replies.send(reply).expect("controller alive");
    }
}

/// `multiproc2_dense`'s mesh — 19,936 leaves on 64 hubs — split into two
/// `Reactor::partitioned` halves on two threads, driven in lockstep over
/// channels: the bridge protocol with no codec and no socket under it.
fn bridge_probe(out: &mut Readings) {
    const EPOCHS: u64 = 8;
    let w = Workload::Multiproc2Dense;
    let (hubs, leaves) = (w.helpers(), w.population());
    let total = 1 + hubs + leaves;
    let map = ShardMap::contiguous(total, SHARD_SPAN, 2);
    let mut halves: Vec<Reactor<ProbeActor>> = (0..2)
        .map(|rank| {
            let mut half = Reactor::partitioned(SHARD_SPAN, map.start(rank), total);
            populate(&mut half, hubs, leaves, map.start(rank), map.len(rank));
            half
        })
        .collect();
    let (mut follower_half, mut local) =
        (halves.pop().expect("rank 1"), halves.pop().expect("rank 0"));
    let mut round_us = Vec::with_capacity(PASSES);
    let mut per_remote = Vec::with_capacity(PASSES);
    let mut wait_frac = Vec::with_capacity(PASSES);
    // One untimed pass first: rings are sized by the first epochs.
    for pass in 0..=PASSES {
        let (step_tx, step_rx) = channel();
        let (reply_tx, reply_rx) = channel();
        let mut links = [TimedController {
            steps: step_tx,
            replies: reply_rx,
            waited: Duration::ZERO,
            crossed: 0,
        }];
        let mut follower = ChannelFollower { steps: step_rx, replies: reply_tx };
        let rounds_before = local.stats().rounds;
        local.inject(COORDINATOR, NetMsg::Run { epochs: EPOCHS });
        let (elapsed, ()) = secs(|| {
            std::thread::scope(|scope| {
                let rank1 = scope.spawn(|| bridge::follow(&mut follower_half, &mut follower));
                bridge::drive(&mut local, &mut links, &map);
                rank1.join().expect("follower thread");
            });
        });
        if pass == 0 {
            continue;
        }
        let rounds = local.stats().rounds - rounds_before;
        round_us.push(elapsed * 1e6 / rounds as f64);
        per_remote.push(elapsed * 1e9 / links[0].crossed as f64);
        wait_frac.push(links[0].waited.as_secs_f64() / elapsed);
    }
    out.insert("reactor.bridge.round_us".into(), crate::stats::median(&round_us));
    out.insert("reactor.bridge.ns_per_remote_msg".into(), crate::stats::median(&per_remote));
    out.insert("reactor.bridge.fence_wait_frac".into(), crate::stats::median(&wait_frac));
}
