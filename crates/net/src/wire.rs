//! Dependency-free binary wire codec for the multi-process reactor.
//!
//! Everything that crosses a process boundary — protocol messages
//! ([`NetMsg`]), bridge lockstep frames ([`Step`]/[`Reply`]), the worker
//! bootstrap configuration, and the end-of-run summary — is encoded here
//! as a **length-prefixed frame**:
//!
//! ```text
//! [u32 LE body length] [version u8] [tag u8] [payload …]
//! ```
//!
//! Design rules, all in service of the bit-equivalence contract:
//!
//! * **Floats travel as `f64::to_bits`**, little-endian. A rate that is
//!   `-0.0` or a NaN with a particular payload decodes to *exactly* the
//!   same bits on the far side — no text formatting, no float
//!   arithmetic, no locale.
//! * **No implicit defaults on decode.** Booleans must be literally `0`
//!   or `1`, options must be present-or-absent bytes, and a frame must
//!   be consumed exactly (trailing bytes are an error), so a corrupted
//!   or truncated frame is rejected instead of half-applied.
//! * **Versioned header.** The first body byte is [`WIRE_VERSION`]; a
//!   mixed-version mesh fails loudly at the first frame rather than
//!   producing subtly different trajectories. [`Frame::Hello`] alone
//!   keeps one layout in every version and decodes whatever its version
//!   byte says, so the controller can refuse a stale worker by name,
//!   before any other frame.
//! * **No handles.** The reactor mesh routes replies by the sender's
//!   stable actor id (`NetMsg::Request { peer, .. }`), a plain `u64` on
//!   the wire; no message carries a channel or pointer that would need
//!   translating between processes.
//!
//! The codec is hand-rolled over `std` only — the workspace vendors its
//! few dependencies and the wire format must not grow one.

use std::io::{Read, Write};

use rths_reactor::bridge::{Reply, Step};
use rths_reactor::{ActorId, RemoteBatch};
use rths_sim::impairment::LossModel;
use rths_sim::{BandwidthSpec, ImpairmentPlan, LearnerSpec, SimConfig};

use crate::reactor_backend::{NetMsg, ShardReport};
use crate::runtime::NetConfig;

/// Wire format version; bumped on any layout change.
pub const WIRE_VERSION: u8 = 7;

/// Upper bound on a frame body (bytes). A drain batch for a 10⁵-actor
/// mesh is a few megabytes; anything near this cap is corruption.
pub const MAX_FRAME: usize = 256 << 20;

/// Decode failure. Encoding is infallible (memory aside); decoding
/// rejects anything that is not an exact image of an encoded value.
#[derive(Debug)]
pub enum WireError {
    /// Frame ended before the value it promised.
    Truncated,
    /// Version byte mismatch (argument: the byte found).
    BadVersion(u8),
    /// Unknown tag for the named sum type.
    BadTag(&'static str, u8),
    /// A boolean byte that was neither 0 nor 1.
    BadBool(u8),
    /// Frame decoded but left unconsumed bytes behind.
    Trailing(usize),
    /// Declared frame length exceeds [`MAX_FRAME`].
    Oversize(u64),
    /// Structurally valid frame with semantically invalid content
    /// (e.g. a config with no helpers).
    Invalid(&'static str),
    /// Transport error while reading a frame.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadVersion(v) => {
                write!(f, "wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::BadTag(what, tag) => write!(f, "unknown {what} tag {tag}"),
            WireError::BadBool(b) => write!(f, "invalid boolean byte {b}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after frame"),
            WireError::Oversize(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
            WireError::Invalid(what) => write!(f, "invalid frame content: {what}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Primitive encode/decode
// ---------------------------------------------------------------------

/// Append-only body builder; starts with the version + tag header.
#[derive(Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Starts a frame body with the given outer tag.
    pub(crate) fn new(tag: u8) -> Self {
        Self { buf: vec![WIRE_VERSION, tag] }
    }

    /// Finishes the body (no length prefix; see [`write_frame`]).
    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Raw byte.
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u64.
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` as u64 (the format is 64-bit regardless of host).
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `f64` as its exact bit pattern.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Strict boolean byte.
    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Option presence byte followed by the value when present.
    pub(crate) fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.bool(false),
            Some(v) => {
                self.bool(true);
                self.u64(v);
            }
        }
    }

    /// Option presence byte followed by the value when present.
    pub(crate) fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.bool(false),
            Some(v) => {
                self.bool(true);
                self.f64(v);
            }
        }
    }

    /// Sequence length header (u64 count; items follow).
    pub(crate) fn seq(&mut self, len: usize) {
        self.usize(len);
    }
}

/// Cursor over a frame body; every read is bounds-checked.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Opens a frame body: checks the version byte, returns the outer
    /// tag and a cursor positioned at the payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on a short header, [`WireError::BadVersion`]
    /// on a version mismatch.
    pub(crate) fn open(body: &'a [u8]) -> Result<(u8, Self), WireError> {
        if body.len() < 2 {
            return Err(WireError::Truncated);
        }
        if body[0] != WIRE_VERSION {
            return Err(WireError::BadVersion(body[0]));
        }
        Ok((body[1], Self { buf: body, pos: 2 }))
    }

    /// Asserts the frame is fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::Trailing`] when bytes remain.
    pub(crate) fn close(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(WireError::Trailing(left));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Raw byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of frame.
    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian u64.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of frame.
    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// u64 narrowed to `usize` (the mesh sizes fit by construction).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of frame, [`WireError::Oversize`]
    /// if the value does not fit a `usize`.
    pub(crate) fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Oversize(v))
    }

    /// `f64` from its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of frame.
    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Strict boolean byte.
    ///
    /// # Errors
    ///
    /// [`WireError::BadBool`] on any byte other than 0/1.
    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }

    /// Optional u64.
    ///
    /// # Errors
    ///
    /// Propagates the presence byte's and value's errors.
    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    /// Optional f64.
    ///
    /// # Errors
    ///
    /// Propagates the presence byte's and value's errors.
    pub(crate) fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        Ok(if self.bool()? { Some(self.f64()?) } else { None })
    }

    /// Sequence length header, capped so a corrupt count cannot trigger
    /// a huge allocation (every item is at least one byte).
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] when the count exceeds the remaining
    /// frame bytes.
    pub(crate) fn seq(&mut self) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n > self.buf.len() - self.pos {
            return Err(WireError::Oversize(n as u64));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// NetMsg
// ---------------------------------------------------------------------

fn put_net_msg(w: &mut WireWriter, msg: &NetMsg) {
    match msg {
        NetMsg::Run { epochs } => {
            w.u8(0);
            w.u64(*epochs);
        }
        NetMsg::Publish => w.u8(1),
        NetMsg::Directory { helper_base, num_helpers } => {
            w.u8(2);
            w.usize(*helper_base);
            w.usize(*num_helpers);
        }
        NetMsg::Published => w.u8(3),
        NetMsg::NextEpoch => w.u8(4),
        NetMsg::Tick { epoch } => {
            w.u8(5);
            w.u64(*epoch);
        }
        NetMsg::Request { peer, epoch, lost } => {
            w.u8(6);
            w.u64(*peer);
            w.u64(*epoch);
            w.bool(*lost);
        }
        NetMsg::Settle { epoch } => {
            w.u8(7);
            w.u64(*epoch);
        }
        NetMsg::Rate { epoch, kbps } => {
            w.u8(8);
            w.u64(*epoch);
            w.f64(*kbps);
        }
        NetMsg::Selected { peer, epoch, helper } => {
            w.u8(9);
            w.u64(*peer);
            w.u64(*epoch);
            w.usize(*helper);
        }
        NetMsg::HelperReport { helper, epoch, load, capacity } => {
            w.u8(10);
            w.usize(*helper);
            w.u64(*epoch);
            w.usize(*load);
            w.f64(*capacity);
        }
        NetMsg::Observed { peer, epoch, rate, estimate } => {
            w.u8(11);
            w.u64(*peer);
            w.u64(*epoch);
            w.f64(*rate);
            w.f64(*estimate);
        }
        NetMsg::SetOnline(online) => {
            w.u8(12);
            w.bool(*online);
        }
        NetMsg::ShardReport(report) => {
            w.u8(13);
            w.u64(report.epoch);
            w.u64(report.first);
            put_f64_vec(w, &report.rates);
            w.f64(report.estimate);
            w.f64(report.empirical);
            w.u64(report.switches);
        }
        NetMsg::JoinRates { epoch, rates } => {
            w.u8(14);
            w.u64(*epoch);
            put_f64_vec(w, rates);
        }
    }
}

fn get_shard_report(r: &mut WireReader<'_>) -> Result<ShardReport, WireError> {
    Ok(ShardReport {
        epoch: r.u64()?,
        first: r.u64()?,
        rates: get_f64_vec(r)?,
        estimate: r.f64()?,
        empirical: r.f64()?,
        switches: r.u64()?,
    })
}

fn get_net_msg(r: &mut WireReader<'_>) -> Result<NetMsg, WireError> {
    Ok(match r.u8()? {
        0 => NetMsg::Run { epochs: r.u64()? },
        1 => NetMsg::Publish,
        2 => NetMsg::Directory { helper_base: r.usize()?, num_helpers: r.usize()? },
        3 => NetMsg::Published,
        4 => NetMsg::NextEpoch,
        5 => NetMsg::Tick { epoch: r.u64()? },
        6 => NetMsg::Request { peer: r.u64()?, epoch: r.u64()?, lost: r.bool()? },
        7 => NetMsg::Settle { epoch: r.u64()? },
        8 => NetMsg::Rate { epoch: r.u64()?, kbps: r.f64()? },
        9 => NetMsg::Selected { peer: r.u64()?, epoch: r.u64()?, helper: r.usize()? },
        10 => NetMsg::HelperReport {
            helper: r.usize()?,
            epoch: r.u64()?,
            load: r.usize()?,
            capacity: r.f64()?,
        },
        11 => NetMsg::Observed {
            peer: r.u64()?,
            epoch: r.u64()?,
            rate: r.f64()?,
            estimate: r.f64()?,
        },
        12 => NetMsg::SetOnline(r.bool()?),
        13 => NetMsg::ShardReport(Box::new(get_shard_report(r)?)),
        14 => NetMsg::JoinRates { epoch: r.u64()?, rates: get_f64_vec(r)? },
        tag => return Err(WireError::BadTag("NetMsg", tag)),
    })
}

fn put_addressed(w: &mut WireWriter, msgs: &[(ActorId, NetMsg)]) {
    w.seq(msgs.len());
    for (to, msg) in msgs {
        w.usize(to.0);
        put_net_msg(w, msg);
    }
}

fn get_addressed(r: &mut WireReader<'_>) -> Result<Vec<(ActorId, NetMsg)>, WireError> {
    let n = r.seq()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let to = ActorId(r.usize()?);
        out.push((to, get_net_msg(r)?));
    }
    Ok(out)
}

fn put_batches(w: &mut WireWriter, batches: &[RemoteBatch<NetMsg>]) {
    w.seq(batches.len());
    for batch in batches {
        w.usize(batch.sender_shard);
        put_addressed(w, &batch.msgs);
    }
}

fn get_batches(r: &mut WireReader<'_>) -> Result<Vec<RemoteBatch<NetMsg>>, WireError> {
    let n = r.seq()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let sender_shard = r.usize()?;
        out.push(RemoteBatch { sender_shard, msgs: get_addressed(r)? });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Configuration payloads
// ---------------------------------------------------------------------

fn put_bandwidth_spec(w: &mut WireWriter, spec: &BandwidthSpec) {
    // Tags 1, 3 and 6 are retired: never reuse them, so that a stale one
    // decodes to `BadTag` instead of to another kind.
    match spec {
        BandwidthSpec::Paper { stay } => {
            w.u8(0);
            w.f64(*stay);
        }
        BandwidthSpec::Constant(level) => {
            w.u8(2);
            w.f64(*level);
        }
        BandwidthSpec::GilbertElliott { good, bad, p_gb, p_bg } => {
            w.u8(4);
            w.f64(*good);
            w.f64(*bad);
            w.f64(*p_gb);
            w.f64(*p_bg);
        }
        BandwidthSpec::RegimeShift { before, after, at } => {
            w.u8(5);
            w.f64(*before);
            w.f64(*after);
            w.u64(*at);
        }
    }
}

fn put_f64_vec(w: &mut WireWriter, values: &[f64]) {
    w.seq(values.len());
    for &v in values {
        w.f64(v);
    }
}

fn get_f64_vec(r: &mut WireReader<'_>) -> Result<Vec<f64>, WireError> {
    let n = r.seq()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.f64()?);
    }
    Ok(out)
}

fn get_bandwidth_spec(r: &mut WireReader<'_>) -> Result<BandwidthSpec, WireError> {
    Ok(match r.u8()? {
        0 => BandwidthSpec::Paper { stay: r.f64()? },
        2 => BandwidthSpec::Constant(r.f64()?),
        4 => BandwidthSpec::GilbertElliott {
            good: r.f64()?,
            bad: r.f64()?,
            p_gb: r.f64()?,
            p_bg: r.f64()?,
        },
        5 => BandwidthSpec::RegimeShift { before: r.f64()?, after: r.f64()?, at: r.u64()? },
        tag => return Err(WireError::BadTag("BandwidthSpec", tag)),
    })
}

fn put_learner_spec(w: &mut WireWriter, spec: &LearnerSpec) {
    use rths_sim::Algorithm;
    // Tag 2 is retired: never reuse it, so that a stale one decodes to
    // `BadTag` instead of to another algorithm.
    w.u8(match spec.algorithm {
        Algorithm::Rths => 0,
        Algorithm::RegretMatching => 1,
        Algorithm::Exp3 => 3,
    });
    w.f64(spec.epsilon);
    w.f64(spec.delta);
    w.opt_f64(spec.mu);
    w.bool(spec.conditional);
}

fn get_learner_spec(r: &mut WireReader<'_>) -> Result<LearnerSpec, WireError> {
    use rths_sim::Algorithm;
    let algorithm = match r.u8()? {
        0 => Algorithm::Rths,
        1 => Algorithm::RegretMatching,
        3 => Algorithm::Exp3,
        tag => return Err(WireError::BadTag("Algorithm", tag)),
    };
    Ok(LearnerSpec {
        algorithm,
        epsilon: r.f64()?,
        delta: r.f64()?,
        mu: r.opt_f64()?,
        conditional: r.bool()?,
    })
}

fn put_impairments(w: &mut WireWriter, plan: &ImpairmentPlan) {
    w.u64(plan.seed());
    match plan.loss() {
        LossModel::None => w.u8(0),
        LossModel::Uniform { loss } => {
            w.u8(1);
            w.f64(*loss);
        }
        LossModel::GilbertElliott { p_enter_bad, p_exit_bad, bad_loss, good_loss } => {
            w.u8(2);
            w.f64(*p_enter_bad);
            w.f64(*p_exit_bad);
            w.f64(*bad_loss);
            w.f64(*good_loss);
        }
    }
    match plan.token_bucket() {
        None => w.bool(false),
        Some(tb) => {
            w.bool(true);
            w.f64(tb.rate_kbps);
            w.f64(tb.burst_kbits);
        }
    }
    match plan.link_bandwidth() {
        None => w.bool(false),
        Some(bw) => {
            w.bool(true);
            put_f64_vec(w, &bw.levels);
            w.f64(bw.stay);
        }
    }
}

fn get_impairments(r: &mut WireReader<'_>) -> Result<ImpairmentPlan, WireError> {
    let seed = r.u64()?;
    let mut builder = ImpairmentPlan::builder(seed);
    match r.u8()? {
        0 => {}
        1 => builder = builder.uniform_loss(r.f64()?),
        2 => builder = builder.gilbert_loss(r.f64()?, r.f64()?, r.f64()?, r.f64()?),
        tag => return Err(WireError::BadTag("LossModel", tag)),
    }
    if r.bool()? {
        builder = builder.token_bucket(r.f64()?, r.f64()?);
    }
    if r.bool()? {
        builder = builder.link_bandwidth(get_f64_vec(r)?, r.f64()?);
    }
    builder.build().map_err(|_| WireError::Invalid("impairment plan out of range"))
}

/// Everything a worker process needs to rebuild its partition of the
/// mesh: the run configuration plus the shard-map parameters (the map
/// itself is recomputed — it is a pure function of these).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The run configuration (backend/trace fields are not transported:
    /// a worker always hosts a reactor partition and never traces).
    pub config: NetConfig,
    /// Mailbox shard span of every partition.
    pub span: usize,
    /// Total process count (ranks).
    pub processes: usize,
}

fn put_worker_config(w: &mut WireWriter, wc: &WorkerConfig) {
    let sim = &wc.config.sim;
    w.usize(wc.span);
    w.usize(wc.processes);
    w.bool(wc.config.track_estimate);
    w.u64(wc.config.delivery_jitter);
    w.usize(sim.num_peers());
    w.seq(sim.helpers.len());
    for spec in &sim.helpers {
        put_bandwidth_spec(w, spec);
    }
    w.opt_f64(sim.demand);
    put_learner_spec(w, &sim.learner);
    w.u64(sim.seed);
    put_impairments(w, &sim.impairment);
}

fn get_worker_config(r: &mut WireReader<'_>) -> Result<WorkerConfig, WireError> {
    let span = r.usize()?;
    let processes = r.usize()?;
    let track_estimate = r.bool()?;
    let delivery_jitter = r.u64()?;
    let num_peers = r.usize()?;
    let n = r.seq()?;
    let mut helpers = Vec::with_capacity(n);
    for _ in 0..n {
        helpers.push(get_bandwidth_spec(r)?);
    }
    if helpers.is_empty() {
        return Err(WireError::Invalid("config with no helpers"));
    }
    let demand = r.opt_f64()?;
    let learner = get_learner_spec(r)?;
    let seed = r.u64()?;
    let impairment = get_impairments(r)?;
    let mut builder = SimConfig::builder(num_peers, helpers)
        .learner(learner)
        .seed(seed)
        .impairment(impairment);
    if let Some(demand) = demand {
        builder = builder.demand(demand);
    }
    let config = NetConfig::from_sim(builder.build())
        .with_track_estimate(track_estimate)
        .with_delivery_jitter(delivery_jitter);
    Ok(WorkerConfig { config, span, processes })
}

/// End-of-run report a worker sends back after `Shutdown`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSummary {
    /// Control-plane messages counted by the worker's actors.
    pub control: u64,
    /// Data-plane messages counted by the worker's actors.
    pub data: u64,
    /// The worker process's peak RSS (`VmHWM`, kB; 0 if unreadable).
    pub rss_kb: u64,
    /// Per-peer `(mean_rate, continuity)` in ascending peer-id order.
    pub peers: Vec<(f64, f64)>,
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Every frame of the multi-process protocol.
#[derive(Debug)]
pub enum Frame {
    /// Worker → controller, first frame on connect. Its layout is the
    /// same in every wire version: `version` travels as the header's
    /// version byte, and decoding accepts any.
    Hello {
        /// The worker's rank (from `RTHS_MP_RANK`).
        rank: usize,
        /// The wire version the worker was built with.
        version: u8,
    },
    /// Controller → worker: build your partition.
    Config(Box<WorkerConfig>),
    /// Controller → worker lockstep step.
    Step(Step<NetMsg>),
    /// Worker → controller lockstep reply.
    Reply(Reply<NetMsg>),
    /// Worker → controller, after `Shutdown`: final report.
    Summary(WorkerSummary),
}

const TAG_HELLO: u8 = 0;
const TAG_CONFIG: u8 = 1;
const TAG_DRAIN: u8 = 2;
const TAG_MERGE: u8 = 3;
const TAG_TIMERS: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;
const TAG_DRAIN_DONE: u8 = 6;
const TAG_FENCE: u8 = 7;
const TAG_TIMERS_DONE: u8 = 8;
const TAG_SUMMARY: u8 = 9;

/// Encodes a frame body (version + tag + payload, no length prefix).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut w;
    match frame {
        Frame::Hello { rank, version } => {
            w = WireWriter { buf: vec![*version, TAG_HELLO] };
            w.usize(*rank);
        }
        Frame::Config(wc) => {
            w = WireWriter::new(TAG_CONFIG);
            put_worker_config(&mut w, wc);
        }
        Frame::Step(step) => match step {
            Step::Drain { staged } => {
                w = WireWriter::new(TAG_DRAIN);
                put_addressed(&mut w, staged);
            }
            Step::Merge { batches } => {
                w = WireWriter::new(TAG_MERGE);
                put_batches(&mut w, batches);
            }
            Step::Timers { deadline } => {
                w = WireWriter::new(TAG_TIMERS);
                w.u64(*deadline);
            }
            Step::Shutdown => {
                w = WireWriter::new(TAG_SHUTDOWN);
            }
        },
        Frame::Reply(reply) => match reply {
            Reply::DrainDone { out } => {
                w = WireWriter::new(TAG_DRAIN_DONE);
                put_batches(&mut w, out);
            }
            Reply::Fence { pending, next_deadline } => {
                w = WireWriter::new(TAG_FENCE);
                w.usize(*pending);
                w.opt_u64(*next_deadline);
            }
            Reply::TimersDone { fired, pending, next_deadline } => {
                w = WireWriter::new(TAG_TIMERS_DONE);
                put_addressed(&mut w, fired);
                w.usize(*pending);
                w.opt_u64(*next_deadline);
            }
        },
        Frame::Summary(summary) => {
            w = WireWriter::new(TAG_SUMMARY);
            w.u64(summary.control);
            w.u64(summary.data);
            w.u64(summary.rss_kb);
            w.seq(summary.peers.len());
            for &(rate, continuity) in &summary.peers {
                w.f64(rate);
                w.f64(continuity);
            }
        }
    }
    w.finish()
}

/// Decodes a frame body produced by [`encode_frame`].
///
/// # Errors
///
/// Any [`WireError`] when the body is not an exact encoding.
pub fn decode_frame(body: &[u8]) -> Result<Frame, WireError> {
    if let [version, TAG_HELLO, ..] = *body {
        let mut r = WireReader { buf: body, pos: 2 };
        let frame = Frame::Hello { rank: r.usize()?, version };
        r.close()?;
        return Ok(frame);
    }
    let (tag, mut r) = WireReader::open(body)?;
    let frame = match tag {
        TAG_CONFIG => Frame::Config(Box::new(get_worker_config(&mut r)?)),
        TAG_DRAIN => Frame::Step(Step::Drain { staged: get_addressed(&mut r)? }),
        TAG_MERGE => Frame::Step(Step::Merge { batches: get_batches(&mut r)? }),
        TAG_TIMERS => Frame::Step(Step::Timers { deadline: r.u64()? }),
        TAG_SHUTDOWN => Frame::Step(Step::Shutdown),
        TAG_DRAIN_DONE => Frame::Reply(Reply::DrainDone { out: get_batches(&mut r)? }),
        TAG_FENCE => {
            Frame::Reply(Reply::Fence { pending: r.usize()?, next_deadline: r.opt_u64()? })
        }
        TAG_TIMERS_DONE => Frame::Reply(Reply::TimersDone {
            fired: get_addressed(&mut r)?,
            pending: r.usize()?,
            next_deadline: r.opt_u64()?,
        }),
        TAG_SUMMARY => {
            let control = r.u64()?;
            let data = r.u64()?;
            let rss_kb = r.u64()?;
            let n = r.seq()?;
            let mut peers = Vec::with_capacity(n);
            for _ in 0..n {
                peers.push((r.f64()?, r.f64()?));
            }
            Frame::Summary(WorkerSummary { control, data, rss_kb, peers })
        }
        tag => return Err(WireError::BadTag("Frame", tag)),
    };
    r.close()?;
    Ok(frame)
}

/// Writes one length-prefixed frame and flushes.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    let body = encode_frame(frame);
    debug_assert!(body.len() <= MAX_FRAME, "outgoing frame exceeds MAX_FRAME");
    let len = u32::try_from(body.len()).map_err(|_| WireError::Oversize(body.len() as u64))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Transport errors, [`WireError::Oversize`] on a corrupt length, or
/// any decode error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversize(len as u64));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    decode_frame(&body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let body = encode_frame(frame);
        decode_frame(&body).expect("roundtrip decode")
    }

    #[test]
    fn hello_and_shutdown_roundtrip() {
        match roundtrip(&Frame::Hello { rank: 7, version: WIRE_VERSION }) {
            Frame::Hello { rank, version } => assert_eq!((rank, version), (7, WIRE_VERSION)),
            other => panic!("decoded {other:?}"),
        }
        assert!(matches!(roundtrip(&Frame::Step(Step::Shutdown)), Frame::Step(Step::Shutdown)));
    }

    /// A `Hello` decodes under any version byte, so the controller learns
    /// which version a stale worker speaks: the first frame of version 1,
    /// byte for byte, names its rank and version 1.
    #[test]
    fn hello_names_any_version() {
        let mut v1 = vec![1, TAG_HELLO];
        v1.extend_from_slice(&3u64.to_le_bytes());
        match decode_frame(&v1).expect("a version-1 Hello decodes") {
            Frame::Hello { rank, version } => assert_eq!((rank, version), (3, 1)),
            other => panic!("decoded {other:?}"),
        }
        for version in [0, WIRE_VERSION + 1, u8::MAX] {
            match roundtrip(&Frame::Hello { rank: 2, version }) {
                Frame::Hello { rank, version: got } => assert_eq!((rank, got), (2, version)),
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn nan_payload_survives_bitwise() {
        let weird = f64::from_bits(0x7FF8_DEAD_BEEF_CAFE); // NaN with payload
        let frame = Frame::Step(Step::Drain {
            staged: vec![(ActorId(3), NetMsg::Rate { epoch: 9, kbps: weird })],
        });
        match roundtrip(&frame) {
            Frame::Step(Step::Drain { staged }) => {
                assert_eq!(staged.len(), 1);
                match &staged[0] {
                    (to, NetMsg::Rate { epoch, kbps }) => {
                        assert_eq!(to.0, 3);
                        assert_eq!(*epoch, 9);
                        assert_eq!(kbps.to_bits(), 0x7FF8_DEAD_BEEF_CAFE);
                    }
                    other => panic!("decoded {other:?}"),
                }
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn negative_zero_survives_bitwise() {
        let frame = Frame::Reply(Reply::TimersDone {
            fired: vec![(ActorId(0), NetMsg::Rate { epoch: 1, kbps: -0.0 })],
            pending: 0,
            next_deadline: None,
        });
        match roundtrip(&frame) {
            Frame::Reply(Reply::TimersDone { fired, .. }) => match &fired[0].1 {
                NetMsg::Rate { kbps, .. } => {
                    assert_eq!(kbps.to_bits(), (-0.0f64).to_bits());
                }
                other => panic!("decoded {other:?}"),
            },
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let body = encode_frame(&Frame::Step(Step::Timers { deadline: 123_456 }));
        for cut in 0..body.len() {
            let err = decode_frame(&body[..cut]).expect_err("truncation must fail");
            assert!(matches!(err, WireError::Truncated), "cut at {cut} gave {err:?}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = encode_frame(&Frame::Hello { rank: 1, version: WIRE_VERSION });
        body.push(0);
        assert!(matches!(
            decode_frame(&body).expect_err("trailing must fail"),
            WireError::Trailing(1)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut body = encode_frame(&Frame::Step(Step::Timers { deadline: 9 }));
        body[0] = WIRE_VERSION + 1;
        assert!(matches!(
            decode_frame(&body).expect_err("version must fail"),
            WireError::BadVersion(v) if v == WIRE_VERSION + 1
        ));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let body = vec![WIRE_VERSION, 0xEE];
        assert!(matches!(
            decode_frame(&body).expect_err("tag must fail"),
            WireError::BadTag("Frame", 0xEE)
        ));
        // Unknown inner NetMsg tag.
        let mut w = WireWriter::new(TAG_DRAIN);
        w.seq(1);
        w.usize(4);
        w.u8(0xAB);
        assert!(matches!(
            decode_frame(&w.finish()).expect_err("msg tag must fail"),
            WireError::BadTag("NetMsg", 0xAB)
        ));
        // The retired learner tag 2.
        let mut w = WireWriter::new(0);
        put_learner_spec(&mut w, &LearnerSpec::default());
        let mut body = w.finish();
        body[2] = 2;
        let (_, mut r) = WireReader::open(&body).unwrap();
        assert!(matches!(
            get_learner_spec(&mut r).expect_err("algorithm tag must fail"),
            WireError::BadTag("Algorithm", 2)
        ));
        // The retired bandwidth tags: `ladder`, `random_walk` and `trace`.
        for tag in [1, 3, 6] {
            let mut w = WireWriter::new(0);
            w.u8(tag);
            let body = w.finish();
            let (_, mut r) = WireReader::open(&body).unwrap();
            assert!(matches!(
                get_bandwidth_spec(&mut r).expect_err("bandwidth tag must fail"),
                WireError::BadTag("BandwidthSpec", t) if t == tag
            ));
        }
    }

    #[test]
    fn garbage_bool_is_rejected() {
        let mut w = WireWriter::new(TAG_DRAIN);
        w.seq(1);
        w.usize(2);
        w.u8(6); // Request
        w.u64(1);
        w.u64(2);
        w.u8(7); // lost: neither 0 nor 1
        assert!(matches!(
            decode_frame(&w.finish()).expect_err("bool must fail"),
            WireError::BadBool(7)
        ));
    }

    #[test]
    fn corrupt_sequence_count_is_rejected() {
        let mut w = WireWriter::new(TAG_DRAIN);
        w.u64(u64::MAX / 2); // absurd element count
        assert!(matches!(
            decode_frame(&w.finish()).expect_err("count must fail"),
            WireError::Oversize(_)
        ));
    }

    #[test]
    fn oversize_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut bytes.as_slice()).expect_err("length must fail");
        assert!(matches!(err, WireError::Oversize(_)), "got {err:?}");
    }

    #[test]
    fn worker_config_roundtrips_exactly() {
        let plan = ImpairmentPlan::builder(77)
            .gilbert_loss(0.05, 0.4, 0.9, 0.01)
            .token_bucket(900.0, 1800.0)
            .link_bandwidth(vec![300.0, 600.0, 900.0], 0.7)
            .build()
            .unwrap();
        let sim = SimConfig::builder(
            12,
            vec![
                BandwidthSpec::Paper { stay: 0.98 },
                BandwidthSpec::Constant(512.5),
                BandwidthSpec::GilbertElliott {
                    good: 900.0,
                    bad: 150.0,
                    p_gb: 0.05,
                    p_bg: 0.4,
                },
                BandwidthSpec::RegimeShift { before: 850.0, after: 400.5, at: 30 },
            ],
        )
        .demand(640.0)
        .seed(42)
        .impairment(plan)
        .build();
        for jitter in [0, 250] {
            let config = NetConfig::from_sim(sim.clone())
                .with_track_estimate(false)
                .with_delivery_jitter(jitter);
            let wc = WorkerConfig { config, span: 8, processes: 4 };
            match roundtrip(&Frame::Config(Box::new(wc.clone()))) {
                Frame::Config(got) => {
                    assert_eq!(got.span, 8);
                    assert_eq!(got.processes, 4);
                    assert_eq!(got.config.sim, wc.config.sim);
                    assert!(!got.config.track_estimate);
                    assert_eq!(got.config.delivery_jitter, jitter);
                }
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn summary_roundtrips_exactly() {
        let summary = WorkerSummary {
            control: 10,
            data: 20,
            rss_kb: 4096,
            peers: vec![(512.25, 0.875), (-0.0, 1.0)],
        };
        match roundtrip(&Frame::Summary(summary.clone())) {
            Frame::Summary(got) => {
                assert_eq!(got.control, summary.control);
                assert_eq!(got.data, summary.data);
                assert_eq!(got.rss_kb, summary.rss_kb);
                assert_eq!(got.peers.len(), 2);
                for (a, b) in got.peers.iter().zip(&summary.peers) {
                    assert_eq!(a.0.to_bits(), b.0.to_bits());
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
            other => panic!("decoded {other:?}"),
        }
    }
}
