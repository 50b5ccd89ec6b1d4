//! Property-based round trips for the multi-process wire codec.
//!
//! The multiproc backend's bit-equivalence guarantee reduces to one
//! codec property: `decode(encode(x))` reproduces `x` **exactly**, with
//! every `f64` surviving as its raw bit pattern (`to_bits` equality —
//! NaN payloads and `-0.0` included, which `PartialEq` would miss).
//! Because the encoder is deterministic, re-encoding the decoded value
//! and comparing bytes checks exactly that, uniformly over every frame
//! shape. The strict-decoder half — truncated or garbage bodies are
//! rejected, never misread — is covered both here (every strict prefix
//! of a valid body fails) and by the unit tests in `rths_net::wire`.
//!
//! The vendored proptest has no `prop_oneof!`, so variant coverage comes
//! from a drawn tag index dispatching over a pool of raw draws; every
//! `f64` field is built with `f64::from_bits(any::<u64>())` so the whole
//! bit domain (NaN payloads, infinities, subnormals, `-0.0`) is on the
//! table.

use proptest::prelude::*;
use rths_net::reactor_backend::ShardReport;
use rths_net::wire::{decode_frame, encode_frame, Frame, WireError, WorkerSummary};
use rths_net::NetMsg;
use rths_reactor::bridge::{Reply, Step};
use rths_reactor::{ActorId, RemoteBatch};

/// One message, any variant, fields drawn from the raw pool.
fn arb_net_msg() -> impl Strategy<Value = NetMsg> {
    (0u8..15, any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
        |(tag, a, b, c, d, flag)| match tag {
            0 => NetMsg::Run { epochs: a },
            1 => NetMsg::Publish,
            2 => NetMsg::Directory { helper_base: a as usize, num_helpers: b as usize },
            3 => NetMsg::Published,
            4 => NetMsg::NextEpoch,
            5 => NetMsg::Tick { epoch: a },
            6 => NetMsg::Request { peer: a, epoch: b, lost: flag },
            7 => NetMsg::Settle { epoch: a },
            8 => NetMsg::Rate { epoch: a, kbps: f64::from_bits(b) },
            9 => NetMsg::Selected { peer: a, epoch: b, helper: c as usize },
            10 => NetMsg::HelperReport {
                helper: a as usize,
                epoch: b,
                load: c as usize,
                capacity: f64::from_bits(d),
            },
            11 => NetMsg::Observed {
                peer: a,
                epoch: b,
                rate: f64::from_bits(c),
                estimate: f64::from_bits(d),
            },
            12 => NetMsg::SetOnline(flag),
            13 => NetMsg::ShardReport(Box::new(ShardReport {
                epoch: a,
                first: b,
                rates: vec![f64::from_bits(c), f64::from_bits(d)],
                estimate: f64::from_bits(d),
                empirical: f64::from_bits(c ^ d),
                switches: a ^ c,
            })),
            _ => NetMsg::JoinRates {
                epoch: a,
                rates: [b, c, d]
                    .into_iter()
                    .take(1 + (a % 3) as usize)
                    .map(f64::from_bits)
                    .collect(),
            },
        },
    )
}

/// The rates a shard report must carry bit for bit: signed zeros, the
/// smallest and largest subnormals, and NaNs with a payload.
const AWKWARD_RATES: [u64; 6] = [
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x000F_FFFF_FFFF_FFFF,
    0x7FF8_DEAD_BEEF_CAFE,
    0xFFF0_0000_0000_0001,
    0x0000_0000_0000_0000,
];

/// Rates of any count, drawn from the whole bit domain with the awkward
/// patterns mixed in.
fn arb_rates(max: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(any::<u64>(), 0..max).prop_map(|raw| {
        raw.iter()
            .enumerate()
            .map(|(k, &bits)| {
                f64::from_bits(if k % 3 == 0 { AWKWARD_RATES[k / 3 % 6] } else { bits })
            })
            .collect()
    })
}

/// A shard report of any block size.
fn arb_shard_report() -> impl Strategy<Value = ShardReport> {
    (any::<u64>(), any::<u64>(), arb_rates(300)).prop_map(|(epoch, first, rates)| {
        let estimate = f64::from_bits(AWKWARD_RATES[(epoch % 6) as usize]);
        let empirical = f64::from_bits(AWKWARD_RATES[(first % 6) as usize]);
        ShardReport { epoch, first, rates, estimate, empirical, switches: first ^ epoch }
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

fn drain_of(msg: NetMsg) -> Frame {
    Frame::Step(Step::Drain { staged: vec![(ActorId(0), msg)] })
}

fn arb_addressed() -> impl Strategy<Value = Vec<(ActorId, NetMsg)>> {
    prop::collection::vec((any::<usize>(), arb_net_msg()), 0..8)
        .prop_map(|msgs| msgs.into_iter().map(|(to, msg)| (ActorId(to), msg)).collect())
}

fn arb_batches() -> impl Strategy<Value = Vec<RemoteBatch<NetMsg>>> {
    prop::collection::vec((any::<usize>(), arb_addressed()), 0..5).prop_map(|batches| {
        batches
            .into_iter()
            .map(|(sender_shard, msgs)| RemoteBatch { sender_shard, msgs })
            .collect()
    })
}

/// Any protocol frame except `Config` (whose payload is a full
/// `SimConfig` — exercised by the dedicated unit round trip in
/// `rths_net::wire::tests`, since a *valid* config is far from an
/// arbitrary bit pattern).
fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..9,
        arb_addressed(),
        arb_batches(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        prop::option::of(any::<u64>()),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..6),
    )
        .prop_map(|(tag, addressed, batches, (a, b, c), opt, raw_peers)| {
            let peers: Vec<(f64, f64)> = raw_peers
                .into_iter()
                .map(|(x, y)| (f64::from_bits(x), f64::from_bits(y)))
                .collect();
            match tag {
                0 => Frame::Hello { rank: a as usize, version: b as u8 },
                1 => Frame::Step(Step::Drain { staged: addressed }),
                2 => Frame::Step(Step::Merge { batches }),
                3 => Frame::Step(Step::Timers { deadline: a }),
                4 => Frame::Step(Step::Shutdown),
                5 => Frame::Reply(Reply::DrainDone { out: batches }),
                6 => Frame::Reply(Reply::Fence { pending: a as usize, next_deadline: opt }),
                7 => Frame::Reply(Reply::TimersDone {
                    fired: addressed,
                    pending: a as usize,
                    next_deadline: opt,
                }),
                _ => Frame::Summary(WorkerSummary { control: a, data: b, rss_kb: c, peers }),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode ∘ encode is the identity on every frame, bit-for-bit:
    /// re-encoding the decoded frame yields the same bytes, so every
    /// field — including arbitrary-bit f64s — survived exactly.
    #[test]
    fn every_frame_reencodes_to_identical_bytes(frame in arb_frame()) {
        let body = encode_frame(&frame);
        let decoded = decode_frame(&body).expect("valid encoding must decode");
        prop_assert_eq!(&encode_frame(&decoded), &body);
    }

    /// A single message survives a Drain frame with `to_bits`-exact
    /// payloads — the field-level statement of the byte-level property
    /// above, checked on the one variant-rich type the protocol ships
    /// every epoch.
    #[test]
    fn net_msg_payload_bits_survive(msg in arb_net_msg()) {
        let frame = Frame::Step(Step::Drain { staged: vec![(ActorId(7), msg)] });
        let body = encode_frame(&frame);
        let decoded = decode_frame(&body).expect("valid encoding must decode");
        prop_assert_eq!(&encode_frame(&decoded), &body);
    }

    /// Strict decoding: no strict prefix of a valid body decodes. A
    /// codec that tolerated truncation could silently drop trailing
    /// messages of a batch — a determinism bug, not a transport bug.
    #[test]
    fn no_strict_prefix_of_a_frame_decodes(frame in arb_frame()) {
        let body = encode_frame(&frame);
        for cut in 0..body.len() {
            prop_assert!(
                decode_frame(&body[..cut]).is_err(),
                "prefix of length {} decoded", cut
            );
        }
    }

    /// Trailing garbage after a complete frame body is rejected too:
    /// frame boundaries come from the length prefix alone, so any
    /// slack means the sender and receiver disagree about the length.
    #[test]
    fn trailing_garbage_is_rejected(frame in arb_frame(), junk in any::<u8>()) {
        let mut body = encode_frame(&frame);
        body.push(junk);
        prop_assert!(decode_frame(&body).is_err());
    }

    /// A shard report of any block size comes back field for field, every
    /// rate and the estimate by their bits, and the switch count.
    #[test]
    fn shard_report_survives_bitwise(report in arb_shard_report()) {
        let body = encode_frame(&drain_of(NetMsg::ShardReport(Box::new(report.clone()))));
        let Frame::Step(Step::Drain { staged }) = decode_frame(&body).expect("decodes") else {
            panic!("decoded another frame kind");
        };
        let [(to, NetMsg::ShardReport(got))] = &staged[..] else {
            panic!("decoded {staged:?}");
        };
        prop_assert_eq!(to.0, 0);
        prop_assert_eq!((got.epoch, got.first), (report.epoch, report.first));
        prop_assert_eq!(bits(&got.rates), bits(&report.rates));
        prop_assert_eq!(got.estimate.to_bits(), report.estimate.to_bits());
        prop_assert_eq!(got.empirical.to_bits(), report.empirical.to_bits());
        prop_assert_eq!(got.switches, report.switches);
    }

    /// The coordinator's join rates come back for any helper count, every
    /// rate by its bits; cut anywhere short of the end, they are an error.
    #[test]
    fn join_rates_survive_bitwise(epoch in any::<u64>(), rates in arb_rates(80)) {
        let sent = NetMsg::JoinRates { epoch, rates: rates.clone() };
        let body = encode_frame(&drain_of(sent));
        let Frame::Step(Step::Drain { staged }) = decode_frame(&body).expect("decodes") else {
            panic!("decoded another frame kind");
        };
        let [(_, NetMsg::JoinRates { epoch: got_epoch, rates: got })] = &staged[..] else {
            panic!("decoded {staged:?}");
        };
        prop_assert_eq!(*got_epoch, epoch);
        prop_assert_eq!(bits(got), bits(&rates));
        for cut in 0..body.len() {
            prop_assert!(decode_frame(&body[..cut]).is_err(), "prefix of length {} decoded", cut);
        }
    }

    /// A shard report cut anywhere short of its end is an error, never a
    /// panic or a shorter report.
    #[test]
    fn truncated_shard_report_is_an_error(report in arb_shard_report()) {
        let body = encode_frame(&drain_of(NetMsg::ShardReport(Box::new(report))));
        for cut in 0..body.len() {
            prop_assert!(decode_frame(&body[..cut]).is_err(), "prefix of length {} decoded", cut);
        }
    }
}

/// A block count larger than the frame can hold is refused before
/// anything is allocated for it; one that fits the frame but not the
/// bytes after it runs out of frame. Both are a `WireError`.
#[test]
fn oversized_shard_report_count_is_an_error() {
    let report = ShardReport {
        epoch: 3,
        first: 8,
        rates: vec![0.5; 4],
        estimate: 0.0,
        empirical: 1.5,
        switches: 2,
    };
    let body = encode_frame(&drain_of(NetMsg::ShardReport(Box::new(report))));
    // Header, Drain's count and address, the NetMsg tag, epoch and first:
    // the block count follows.
    let at = 2 + 8 + 8 + 1 + 8 + 8;
    assert_eq!(body[at..at + 8], 4u64.to_le_bytes());
    for (count, oversize) in [(u64::MAX, true), (1 << 40, true), (5, false)] {
        let mut bad = body.clone();
        bad[at..at + 8].copy_from_slice(&count.to_le_bytes());
        let err = decode_frame(&bad).expect_err("a count past the block must fail");
        if oversize {
            assert!(matches!(err, WireError::Oversize(_)), "count {count}: {err:?}");
        } else {
            assert!(matches!(err, WireError::Truncated), "count {count}: {err:?}");
        }
    }
}
