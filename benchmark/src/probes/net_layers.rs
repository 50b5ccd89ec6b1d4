//! Probes of `rths_net`: the wire codec, framed Unix sockets, and the
//! protocol state machines.

use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};

use rths_core::{LearnerSlab, SlabLearner};
use rths_net::machines::{instantiate_helpers, CoordinatorMachine, HelperMachine, PeerMachine};
use rths_net::wire::{decode_frame, encode_frame, read_frame, write_frame, Frame};
use rths_net::NetMsg;
use rths_reactor::bridge::{Reply, Step};
use rths_reactor::{ActorId, RemoteBatch, SHARD_SPAN};
use rths_sim::peer::{Peer, PeerId};
use rths_sim::{AnyLearner, ImpairmentPlan};
use rths_stoch::rng::entity_rng;

use super::{median_of_passes, secs, Readings, PROBE_SEED};
use crate::workload::{self, Workload};

pub(super) fn probe(out: &mut Readings) {
    let frame = batch_frame();
    wire_probe(out, &frame);
    socket_probe(out, &frame);
    peer_probe(out);
    helper_probe(out);
    coordinator_probe(out);
}

/// Messages in the probe's batch frame.
const BATCH: usize = 10_000;

/// A `Merge` step carrying one 10,000-message batch in an epoch's mix:
/// equal parts tick, request, selection, rate and observation.
fn batch_frame() -> Frame {
    let msgs = (0..BATCH)
        .map(|i| {
            let peer = i as u64;
            let msg = match i % 5 {
                0 => NetMsg::Tick { epoch: 7 },
                1 => NetMsg::Request { peer, epoch: 7, lost: i % 50 == 1 },
                2 => NetMsg::Selected { peer, epoch: 7, helper: i % 64 },
                3 => NetMsg::Rate { epoch: 7, kbps: 2.5 + i as f64 * 1e-3 },
                _ => NetMsg::Observed { peer, epoch: 7, rate: 2.5, estimate: 0.0 },
            };
            (ActorId(66 + i), msg)
        })
        .collect();
    Frame::Step(Step::Merge { batches: vec![RemoteBatch { sender_shard: 3, msgs }] })
}

fn fence() -> Frame {
    Frame::Reply(Reply::Fence { pending: 1, next_deadline: Some(2) })
}

fn wire_probe(out: &mut Readings, frame: &Frame) {
    const ROUNDS: usize = 20;
    let body = encode_frame(frame);
    out.insert("net.wire.bytes_per_msg".into(), body.len() as f64 / BATCH as f64);
    out.insert(
        "net.wire.encode_ns_per_msg".into(),
        median_of_passes(|| {
            let (elapsed, ()) = secs(|| {
                for _ in 0..ROUNDS {
                    black_box(encode_frame(frame));
                }
            });
            elapsed * 1e9 / (ROUNDS * BATCH) as f64
        }),
    );
    out.insert(
        "net.wire.decode_ns_per_msg".into(),
        median_of_passes(|| {
            let (elapsed, ()) = secs(|| {
                for _ in 0..ROUNDS {
                    black_box(decode_frame(&body).expect("an encoded frame decodes"));
                }
            });
            elapsed * 1e9 / (ROUNDS * BATCH) as f64
        }),
    );
}

/// Buffered ends of one socket, as `rths_net::multiproc` wraps them.
fn framed(stream: UnixStream) -> (BufReader<UnixStream>, BufWriter<UnixStream>) {
    let reader = BufReader::new(stream.try_clone().expect("socket handle clone"));
    (reader, BufWriter::new(stream))
}

/// A connected socket pair with an echo thread on the far end: every frame
/// it reads is answered with a fence, the multiproc protocol's smallest
/// reply. Round trips price the fence; batch frames price the bandwidth.
fn socket_probe(out: &mut Readings, frame: &Frame) {
    const ROUND_TRIPS: usize = 2_000;
    const BATCHES: usize = 20;
    let (near, far) = UnixStream::pair().expect("socket pair");
    let frame_bytes = 4 + encode_frame(frame).len();
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || {
            let (mut reader, mut writer) = framed(far);
            // Ends when the near side hangs up.
            while read_frame(&mut reader).is_ok() {
                write_frame(&mut writer, &fence()).expect("near end reachable");
            }
        });
        let (mut reader, mut writer) = framed(near);
        let mut exchange = |frame: &Frame| {
            write_frame(&mut writer, frame).expect("far end reachable");
            black_box(read_frame(&mut reader).expect("far end reachable"));
        };
        let small = fence();
        out.insert(
            "net.socket.frame_rtt_us".into(),
            median_of_passes(|| {
                let (elapsed, ()) = secs(|| (0..ROUND_TRIPS).for_each(|_| exchange(&small)));
                elapsed * 1e6 / ROUND_TRIPS as f64
            }),
        );
        out.insert(
            "net.socket.mb_per_s".into(),
            median_of_passes(|| {
                let (elapsed, ()) = secs(|| (0..BATCHES).for_each(|_| exchange(frame)));
                (BATCHES * frame_bytes) as f64 / 1e6 / elapsed
            }),
        );
        // Hang up so the echo thread's read fails and it returns.
        drop(writer);
        drop(reader);
        echo.join().expect("echo thread");
    });
}

/// `reactor_wide`'s peers exactly as `rths_net` builds them: slab-backed
/// learners over 8 helpers, one shared slab per mailbox shard.
fn peer_probe(out: &mut Readings) {
    const PEERS: usize = 16 * SHARD_SPAN;
    const EPOCHS: u64 = 4;
    let w = Workload::ReactorWide;
    let sim = workload::sim_config(w, PROBE_SEED);
    let config =
        sim.learner.rths_config(w.helpers(), sim.rate_scale()).expect("valid learner spec");
    let mut machines = Vec::with_capacity(PEERS);
    for shard in 0..PEERS / SHARD_SPAN {
        let slab = Arc::new(Mutex::new(LearnerSlab::with_capacity(w.helpers(), SHARD_SPAN)));
        for k in 0..SHARD_SPAN {
            let id = (shard * SHARD_SPAN + k) as u64;
            let learner =
                AnyLearner::SlabRths(SlabLearner::new(Arc::clone(&slab), config.clone()));
            let peer = Peer::new(PeerId(id), learner, entity_rng(sim.seed, id), 0, 0);
            machines.push(PeerMachine::new(peer, sim.demand, ImpairmentPlan::none()));
        }
    }
    let mut epoch = 0;
    let mut tick = Vec::new();
    let mut rate = Vec::new();
    // One pass more than reported: the first warms the slabs.
    for pass in 0..=super::PASSES {
        let mut tick_s = 0.0;
        let mut rate_s = 0.0;
        for _ in 0..EPOCHS {
            tick_s += secs(|| {
                for m in &mut machines {
                    black_box(m.on_tick(epoch));
                }
            })
            .0;
            rate_s += secs(|| {
                for m in &mut machines {
                    black_box(m.on_rate(0.064));
                }
            })
            .0;
            epoch += 1;
        }
        if pass > 0 {
            tick.push(tick_s * 1e9 / (EPOCHS as usize * PEERS) as f64);
            rate.push(rate_s * 1e9 / (EPOCHS as usize * PEERS) as f64);
        }
    }
    out.insert("net.machines.peer_tick_ns".into(), crate::stats::median(&tick));
    out.insert("net.machines.peer_rate_ns".into(), crate::stats::median(&rate));
}

/// `reactor_wide`'s helpers: 8 of them, 12,499 requests each per epoch.
fn helper_probe(out: &mut Readings) {
    let w = Workload::ReactorWide;
    let sim = workload::sim_config(w, PROBE_SEED);
    let (helpers, _) = instantiate_helpers(&sim);
    let mut machines: Vec<HelperMachine> =
        helpers.into_iter().map(HelperMachine::new).collect();
    let per_helper = w.population() / w.helpers();
    out.insert(
        "net.machines.helper_settle_ns_per_req".into(),
        median_of_passes(|| {
            let (elapsed, delivered) = secs(|| {
                let mut delivered = 0.0;
                for (j, machine) in machines.iter_mut().enumerate() {
                    machine.on_tick();
                    for k in 0..per_helper {
                        machine.on_request((j * per_helper + k) as u64, k % 64 == 0, ());
                    }
                    machine.on_settle(|_, kbps, ()| delivered += kbps);
                }
                delivered
            });
            black_box(delivered);
            elapsed * 1e9 / (per_helper * machines.len()) as f64
        }),
    );
}

/// `reactor_wide`'s coordinator: one epoch's worth of notifications, then
/// the metrics and regret record of `finish_epoch`.
fn coordinator_probe(out: &mut Readings) {
    let w = Workload::ReactorWide;
    let sim = workload::sim_config(w, PROBE_SEED);
    let (n, h) = (w.population(), w.helpers());
    let (_, helper_min_total) = instantiate_helpers(&sim);
    let mut machine = CoordinatorMachine::new(&sim, helper_min_total);
    let mut epoch = 0usize;
    out.insert(
        "net.machines.coord_epoch_us".into(),
        rths_par::with_threads(1, || {
            median_of_passes(|| {
                let (elapsed, ()) = secs(|| {
                    machine.begin_epoch();
                    // A tenth of the peers sit one helper over this epoch
                    // and move back the next: a fifth switch per epoch.
                    for peer in 0..n {
                        let shifted = usize::from(peer % 10 == epoch % 10);
                        machine.on_selected(peer as u64, (peer + shifted) % h);
                    }
                    for helper in 0..h {
                        machine.on_helper_report(helper, n / h, 800.0);
                    }
                    for peer in 0..n {
                        machine.on_observed(peer as u64, 800.0 * h as f64 / n as f64, 0.0);
                    }
                    machine.finish_epoch();
                });
                epoch += 1;
                elapsed * 1e6
            })
        }),
    );
}
