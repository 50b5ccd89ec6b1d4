//! The multi-process reactor backend: one swarm sharded across OS
//! processes, bit-equivalent to the single-process run.
//!
//! # Topology
//!
//! The parent process is both the **controller** and **rank 0**: it owns
//! the first contiguous range of mailbox shards (which always contains
//! the coordinator and tracker — actors 0 and 1), spawns `N - 1` worker
//! processes, and drives every partition in lockstep through
//! [`rths_reactor::bridge`]. Workers connect back over a Unix-domain
//! socket, announce their rank and wire version (`Hello`; a worker built
//! from another version is refused before anything else is sent),
//! receive the full run configuration (`Config`), rebuild *their*
//! partition of the mesh —
//! every rank replays the same master-RNG helper instantiation so RNG
//! streams stay global — and then follow the step protocol:
//!
//! ```text
//! parent                         worker (per round)
//!   Drain {routed fired timers} →
//!                                ← DrainDone {remote-destined batches}
//!   Merge {batches for you}     →
//!                                ← Fence {pending, next deadline}
//! ```
//!
//! The serialized batch unit is the reactor's existing per-shard send
//! buffer ([`rths_reactor::RemoteBatch`]), tagged with its **global**
//! sender shard; the receiving partition merges remote batches
//! interleaved with local ones in ascending global sender-shard order —
//! exactly the order a single reactor would have used, which is the
//! whole determinism argument. The epoch barriers need no new machinery:
//! the coordinator's `Settle` and `NextEpoch` timers ride rank 0's wheel,
//! which fires only once every rank has fenced with nothing pending. Per
//! epoch, the coordinator sends each mailbox shard one `JoinRates`, and a
//! rank ships it one `ShardReport` per mailbox shard it hosts, not a
//! message per peer.
//!
//! Frames are encoded by [`crate::wire`]; floats travel as
//! `f64::to_bits`, so the N-process trajectory is `to_bits`-identical to
//! the 1-process one (pinned by `tests/sim_net_equivalence.rs` at 2 and
//! 4 processes).
//!
//! # Launch plumbing
//!
//! Workers are the tiny `rths_mp_worker` binary, located next to the
//! current executable (or overridden via `RTHS_MP_WORKER`). The socket
//! path and rank are passed through `Command::env` — per-child
//! environment, never a mutation of the parent's (the `rths_lint`
//! env-mutation rule holds; tests that need to override the lookup use
//! the sanctioned `rths_par::env` guard).

use std::io::{BufReader, BufWriter, ErrorKind};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rths_obs as obs;
use rths_reactor::bridge::{
    drive, follow, ControllerLink, FollowerLink, Reply, ShardMap, Step,
};
use rths_reactor::{ActorId, Reactor, SHARD_SPAN};

use crate::reactor_backend::{harvest_partition, mesh_total, populate_mesh, NetMsg};
use crate::runtime::{NetConfig, NetOutcome};
use crate::wire::{read_frame, write_frame, Frame, WorkerConfig, WorkerSummary, WIRE_VERSION};

/// Environment variable carrying the controller's socket path to a
/// worker (set per-child via `Command::env`).
pub const SOCKET_ENV: &str = "RTHS_MP_SOCKET";
/// Environment variable carrying a worker's rank.
pub const RANK_ENV: &str = "RTHS_MP_RANK";
/// Optional override for the worker executable path.
pub const WORKER_ENV: &str = "RTHS_MP_WORKER";

/// How long a launch waits for all its workers to connect before it fails.
/// Counted in 1 ms polls, not read off a clock.
pub const CONNECT_DEADLINE: Duration = Duration::from_secs(5);
/// The pause between two polls of the connect phase.
const CONNECT_POLL: Duration = Duration::from_millis(1);
/// [`CONNECT_DEADLINE`] in polls.
const CONNECT_POLLS: u128 = CONNECT_DEADLINE.as_millis() / CONNECT_POLL.as_millis();

/// Distinguishes concurrently-running controllers' sockets without
/// consulting the wall clock (pid + process-local sequence number).
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

fn socket_path() -> PathBuf {
    let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rths-mp-{}-{seq}.sock", std::process::id()))
}

fn worker_exe() -> PathBuf {
    if let Ok(path) = std::env::var(WORKER_ENV) {
        return PathBuf::from(path);
    }
    let mut exe = std::env::current_exe().expect("current executable path");
    exe.pop();
    // Test and example binaries live one level down in
    // target/<profile>/{deps,examples}; the worker sits at the profile root.
    if exe.ends_with("deps") || exe.ends_with("examples") {
        exe.pop();
    }
    exe.join("rths_mp_worker")
}

/// This process's peak resident set (`VmHWM`, kB; 0 when unreadable —
/// e.g. on non-Linux hosts).
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
        }
    }
    0
}

/// A framed Unix-socket connection implementing both bridge link roles.
/// Transport failures panic: a vanished peer process is unrecoverable
/// mid-lockstep, and the bridge traits document panicking links.
struct FrameLink {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl FrameLink {
    fn new(stream: UnixStream) -> std::io::Result<Self> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { reader, writer: BufWriter::new(stream) })
    }

    fn send(&mut self, frame: &Frame) {
        write_frame(&mut self.writer, frame).expect("peer process reachable");
    }

    fn recv(&mut self) -> Frame {
        read_frame(&mut self.reader).expect("peer process reachable")
    }
}

impl ControllerLink<NetMsg> for FrameLink {
    fn send_step(&mut self, step: Step<NetMsg>) {
        self.send(&Frame::Step(step));
    }

    fn recv_reply(&mut self) -> Reply<NetMsg> {
        match self.recv() {
            Frame::Reply(reply) => reply,
            other => panic!("expected a reply frame, got {other:?}"),
        }
    }
}

impl FollowerLink<NetMsg> for FrameLink {
    fn recv_step(&mut self) -> Step<NetMsg> {
        match self.recv() {
            Frame::Step(step) => step,
            other => panic!("expected a step frame, got {other:?}"),
        }
    }

    fn send_reply(&mut self, reply: Reply<NetMsg>) {
        self.send(&Frame::Reply(reply));
    }
}

/// Outcome of a multi-process run plus per-process memory accounting.
#[derive(Debug, Clone)]
pub struct MultiprocReport {
    /// The merged outcome — bit-identical to the other backends'.
    pub outcome: NetOutcome,
    /// Peak RSS (`VmHWM`, kB) per rank; index 0 is the parent process.
    pub rss_kb: Vec<u64>,
}

/// Runs `epochs` epochs with the mesh sharded across `processes` OS
/// processes at the default [`SHARD_SPAN`] mailbox span. See
/// [`run_multiproc_with_span`].
pub fn run_multiproc(config: NetConfig, epochs: u64, processes: usize) -> MultiprocReport {
    run_multiproc_with_span(config, epochs, processes, SHARD_SPAN)
}

/// Runs `epochs` epochs with the mesh sharded across `processes`
/// partitions of `span`-actor mailbox shards. `processes == 1` runs the
/// same partitioned code path with no children (and no sockets), and is
/// `to_bits`-identical to [`crate::ReactorRuntime`]; so is every higher
/// process count, since delivery order is reconstructed globally.
///
/// Small meshes need a small `span` to actually cross process
/// boundaries (a 16-actor mesh is a single default-span shard);
/// benchmarks use the default span.
///
/// # Panics
///
/// Panics if `processes` is zero, the worker executable cannot be
/// spawned, a worker exits before connecting, the workers have not all
/// connected and said `Hello` within [`CONNECT_DEADLINE`], or a worker
/// dies mid-run.
/// Every worker spawned by then is killed and reaped, and the socket
/// file unlinked, before the panic leaves this function.
pub fn run_multiproc_with_span(
    config: NetConfig,
    epochs: u64,
    processes: usize,
    span: usize,
) -> MultiprocReport {
    assert!(processes >= 1, "need at least one process");
    let _trace_guard = config.trace.then(|| obs::scoped_enable(true));
    if obs::enabled() {
        obs::begin_run("net_multiproc");
    }

    let total = mesh_total(&config);
    let map = ShardMap::contiguous(total, span, processes);

    // Launch workers first so they build their partitions while the
    // parent builds its own.
    let mut launch = Launch { children: Vec::new(), path: socket_path() };
    let mut links: Vec<Option<FrameLink>> = (1..processes).map(|_| None).collect();
    if processes > 1 {
        let path = &launch.path;
        let listener =
            UnixListener::bind(path).unwrap_or_else(|e| panic!("bind {}: {e}", path.display()));
        listener.set_nonblocking(true).expect("non-blocking listener");
        let exe = worker_exe();
        for rank in 1..processes {
            launch.children.push(
                Command::new(&exe)
                    .env(SOCKET_ENV, path)
                    .env(RANK_ENV, rank.to_string())
                    .spawn()
                    .unwrap_or_else(|e| {
                        panic!("spawn {} (are workspace bins built?): {e}", exe.display())
                    }),
            );
        }
        let wc = WorkerConfig { config: config.clone(), span, processes };
        let mut polls = 0;
        for _ in 1..processes {
            let waiting: Vec<usize> =
                (1..processes).filter(|r| links[r - 1].is_none()).collect();
            let stream = accept_worker(&listener, &mut launch.children, &mut polls, &waiting);
            // A worker may connect and never speak: its `Hello` gets what
            // is left of the connect deadline, counted in the polls spent.
            let left = CONNECT_POLL * (CONNECT_POLLS - polls).max(1) as u32;
            stream.set_read_timeout(Some(left)).expect("worker stream read timeout");
            let mut link = FrameLink::new(stream).expect("socket handle clone");
            let hello = read_frame(&mut link.reader).unwrap_or_else(|e| {
                panic!("{} sent no Hello within {CONNECT_DEADLINE:?}: {e}", ranks(&waiting))
            });
            link.reader.get_ref().set_read_timeout(None).expect("worker stream read timeout");
            match hello {
                Frame::Hello { rank, version } => {
                    if let Err(skew) = check_version(rank, version) {
                        panic!("{skew}");
                    }
                    assert!(
                        (1..processes).contains(&rank),
                        "worker announced bogus rank {rank}"
                    );
                    let slot = &mut links[rank - 1];
                    assert!(slot.is_none(), "rank {rank} connected twice");
                    link.send(&Frame::Config(Box::new(wc.clone())));
                    *slot = Some(link);
                }
                other => panic!("expected Hello, got {other:?}"),
            }
        }
    }
    let mut links: Vec<FrameLink> = links
        .into_iter()
        .enumerate()
        .map(|(i, l)| l.unwrap_or_else(|| panic!("rank {} never connected", i + 1)))
        .collect();

    // Rank 0's partition (always contains the coordinator, actor 0).
    let mut local = Reactor::partitioned(span, map.start(0), total);
    populate_mesh(&mut local, &config, span, map.start(0), map.len(0));
    local.inject(ActorId(0), NetMsg::Run { epochs });
    drive(&mut local, &mut links, &map);

    // Collection: local harvest plus one Summary frame per worker.
    let mut harvest = harvest_partition(local);
    let mut rss_kb = vec![peak_rss_kb()];
    for link in &mut links {
        match link.recv() {
            Frame::Summary(summary) => {
                harvest.messages.control += summary.control;
                harvest.messages.data += summary.data;
                rss_kb.push(summary.rss_kb);
                // Ranks own ascending actor ranges, so rank-major
                // concatenation is ascending peer-id order.
                harvest.peers.extend(summary.peers);
            }
            other => panic!("expected Summary, got {other:?}"),
        }
    }
    drop(links);
    for child in &mut launch.children {
        let status = child.wait().expect("waiting on worker");
        assert!(status.success(), "worker exited with {status}");
    }
    MultiprocReport { outcome: harvest.into_outcome(), rss_kb }
}

/// Accepts the next worker connection on the non-blocking `listener`.
/// While none is pending it polls every spawned child: a worker that has
/// exited will never connect, so the launch panics naming its rank and
/// exit status instead of waiting forever. `polls` counts the connect
/// phase's polls so far; once they add up to [`CONNECT_DEADLINE`], the
/// launch panics naming the ranks still `waiting` — a worker can stay
/// alive without ever connecting. The returned stream blocks.
fn accept_worker(
    listener: &UnixListener,
    children: &mut [Child],
    polls: &mut u128,
    waiting: &[usize],
) -> UnixStream {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).expect("blocking worker stream");
                return stream;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => panic!("accepting a worker connection: {e}"),
        }
        for (i, child) in children.iter_mut().enumerate() {
            if let Some(status) = child.try_wait().expect("polling a worker") {
                panic!(
                    "worker rank {} exited with {status} before the launch completed",
                    i + 1
                );
            }
        }
        if *polls == CONNECT_POLLS {
            panic!("{} did not connect within {CONNECT_DEADLINE:?}", ranks(waiting));
        }
        *polls += 1;
        std::thread::sleep(CONNECT_POLL);
    }
}

/// `worker rank 1, rank 3` — the ranks a failed launch waited for.
fn ranks(waiting: &[usize]) -> String {
    let ranks: Vec<String> = waiting.iter().map(|r| format!("rank {r}")).collect();
    format!("worker {}", ranks.join(", "))
}

/// Admits a worker only if it speaks this build's wire format. A stale
/// `rths_mp_worker` left beside a rebuilt controller would otherwise take
/// its `Config` and die mid-run on the first message it cannot decode.
fn check_version(rank: usize, version: u8) -> Result<(), String> {
    if version == WIRE_VERSION {
        return Ok(());
    }
    Err(format!(
        "worker rank {rank} speaks wire version {version}, this controller speaks \
         {WIRE_VERSION}: rebuild rths_mp_worker with this tree"
    ))
}

/// The worker processes of a run and the socket they connect to. Dropping
/// it — when the run returns, or while a panic unwinds out of it — kills
/// and reaps every child still running and unlinks the socket file, so a
/// failed launch leaves neither behind.
struct Launch {
    children: Vec<Child>,
    path: PathBuf,
}

impl Drop for Launch {
    fn drop(&mut self) {
        // A child already reaped ignores the kill and returns its cached
        // status; the socket exists only once bound.
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Entry point of the `rths_mp_worker` binary: connect back to the
/// controller, rebuild this rank's partition, follow the lockstep
/// protocol, report, exit.
///
/// # Panics
///
/// Panics if the `RTHS_MP_SOCKET`/`RTHS_MP_RANK` environment is missing
/// (the binary is not meant to be run by hand) or the controller
/// vanishes mid-run.
pub fn worker_main() {
    let path = std::env::var(SOCKET_ENV)
        .expect("RTHS_MP_SOCKET not set — rths_mp_worker is launched by run_multiproc");
    let rank: usize = std::env::var(RANK_ENV)
        .expect("RTHS_MP_RANK not set")
        .parse()
        .expect("RTHS_MP_RANK must be a process rank");
    assert!(rank >= 1, "rank 0 is the controller itself");
    let stream = UnixStream::connect(&path).unwrap_or_else(|e| panic!("connect {path}: {e}"));
    let mut link = FrameLink::new(stream).expect("socket handle clone");
    link.send(&Frame::Hello { rank, version: WIRE_VERSION });
    let wc = match link.recv() {
        Frame::Config(wc) => *wc,
        other => panic!("expected Config, got {other:?}"),
    };

    let total = mesh_total(&wc.config);
    let map = ShardMap::contiguous(total, wc.span, wc.processes);
    let mut reactor = Reactor::partitioned(wc.span, map.start(rank), total);
    populate_mesh(&mut reactor, &wc.config, wc.span, map.start(rank), map.len(rank));
    follow(&mut reactor, &mut link);

    let harvest = harvest_partition(reactor);
    assert!(harvest.coordinator.is_none(), "only rank 0 hosts the coordinator");
    link.send(&Frame::Summary(WorkerSummary {
        control: harvest.messages.control,
        data: harvest.messages.data,
        rss_kb: peak_rss_kb(),
        peers: harvest.peers,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Backend;
    use crate::ReactorRuntime;
    use rths_sim::Scenario;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_outcomes_identical(a: &NetOutcome, b: &NetOutcome) {
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(bits(a.metrics.welfare.values()), bits(b.metrics.welfare.values()));
        assert_eq!(bits(&a.peer_mean_rates), bits(&b.peer_mean_rates));
        assert_eq!(bits(&a.peer_continuity), bits(&b.peer_continuity));
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn workers_of_another_wire_version_are_refused() {
        assert!(check_version(1, WIRE_VERSION).is_ok());
        // Version 3 shard reports carry no switch count.
        assert!(check_version(1, 3).is_err(), "a version-3 worker is admitted");
        let skew = check_version(3, WIRE_VERSION - 1).expect_err("a stale worker is refused");
        assert!(skew.contains("rank 3"), "{skew}");
        assert!(skew.contains(&format!("version {}", WIRE_VERSION - 1)), "{skew}");
        assert!(skew.contains(&format!("speaks {WIRE_VERSION}")), "{skew}");
    }

    #[test]
    fn one_process_is_the_reactor_backend_exactly() {
        let sim = Scenario::paper_small().seed(31).build();
        let single = ReactorRuntime::new(NetConfig::from_sim(sim.clone())).run(40);
        let multi = run_multiproc(NetConfig::from_sim(sim), 40, 1);
        assert_outcomes_identical(&multi.outcome, &single);
        assert_eq!(multi.rss_kb.len(), 1);
    }

    #[test]
    fn two_processes_match_the_single_process_run() {
        let sim = Scenario::paper_small().seed(32).build();
        let single = ReactorRuntime::new(NetConfig::from_sim(sim.clone())).run(40);
        // paper_small is 16 actors: span 4 puts peers on both ranks.
        let multi = run_multiproc_with_span(NetConfig::from_sim(sim), 40, 2, 4);
        assert_outcomes_identical(&multi.outcome, &single);
        assert_eq!(multi.rss_kb.len(), 2);
        assert!(multi.rss_kb.iter().all(|&kb| kb > 0), "rss {:?}", multi.rss_kb);
    }

    #[test]
    fn impaired_runs_cross_process_boundaries_identically() {
        let plan = rths_sim::ImpairmentPlan::builder(11)
            .uniform_loss(0.2)
            .jitter_us(5)
            .build()
            .unwrap();
        let sim = Scenario::paper_small().seed(33).impairment(plan).build();
        let single = ReactorRuntime::new(NetConfig::from_sim(sim.clone())).run(30);
        let multi = run_multiproc_with_span(NetConfig::from_sim(sim), 30, 3, 4);
        assert_outcomes_identical(&multi.outcome, &single);
    }

    #[test]
    fn backend_enum_dispatches_to_multiproc() {
        let sim = Scenario::paper_small().seed(34).build();
        let reactor =
            crate::run(NetConfig::from_sim(sim.clone()).with_backend(Backend::Reactor), 20);
        let multi = crate::run(
            NetConfig::from_sim(sim).with_backend(Backend::Multiproc { processes: 2 }),
            20,
        );
        // Default span keeps this 16-actor mesh on rank 0; the point
        // here is the dispatch path, the bit-equality is pinned above
        // and in the workspace equivalence test.
        assert_outcomes_identical(&multi, &reactor);
    }
}
