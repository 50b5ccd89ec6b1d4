//! A reactor-hosted swarm: 2,000 peers and 40 helpers in one process.
//!
//! One OS thread per actor would mean 2,040 threads for this
//! population; the reactor backend hosts every actor as a poll-driven
//! state machine and needs none beyond the calling thread (plus at most
//! `RTHS_THREADS − 1` scoped workers while a round is being sharded).
//! The run prints per-epoch welfare and, on Linux, the peak OS thread
//! count observed while the swarm was live — the receipts for the
//! "thousands of peers per thread" claim.
//!
//! ```sh
//! cargo run --release --example reactor_swarm
//! RTHS_SWARM_PEERS=4950 RTHS_SWARM_HELPERS=50 cargo run --release --example reactor_swarm
//! ```
//!
//! Env knobs: `RTHS_SWARM_PEERS` (2000), `RTHS_SWARM_HELPERS` (40),
//! `RTHS_SWARM_EPOCHS` (50), `RTHS_SWARM_THREAD_CHECK=1` to fail loudly
//! if the process ever exceeds the `RTHS_THREADS` budget (+ main + the
//! sampler itself).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use rths_suite::net::{Backend, NetConfig, ReactorRuntime};
use rths_suite::sim::{BandwidthSpec, SimConfig};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Current OS thread count of this process (Linux; `None` elsewhere).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find(|l| l.starts_with("Threads:"))?.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let peers = env_usize("RTHS_SWARM_PEERS", 2_000);
    let helpers = env_usize("RTHS_SWARM_HELPERS", 40);
    let epochs = env_usize("RTHS_SWARM_EPOCHS", 50) as u64;
    let check_threads = std::env::var("RTHS_SWARM_THREAD_CHECK").is_ok_and(|v| v != "0");
    let workers = rths_suite::par::threads();

    println!(
        "reactor swarm: {peers} peers + {helpers} helpers = {} actors, {epochs} epochs, \
         RTHS_THREADS={workers}",
        peers + helpers
    );

    // A background sampler records the peak OS thread count while the
    // swarm runs; the reactor itself never spawns more than the
    // RTHS_THREADS budget (scoped rths_par workers, alive only inside a
    // round).
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = os_threads().map(|_| {
        let stop = Arc::clone(&stop);
        let peak = Arc::clone(&peak);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(now) = os_threads() {
                    peak.fetch_max(now, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    });

    let sim = SimConfig::builder(peers, vec![BandwidthSpec::Paper { stay: 0.98 }; helpers])
        .seed(42)
        .build();
    let config = NetConfig::from_sim(sim).with_backend(Backend::Reactor);
    // rths: allow(wall-clock): demo prints wall time; never feeds simulation state.
    let start = std::time::Instant::now();
    let mut runtime = ReactorRuntime::new(config);
    runtime.run_epochs(epochs);
    let stats = runtime.stats();
    let out = runtime.finish();
    let secs = start.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = sampler {
        let _ = handle.join();
    }

    println!("\n{:>7}  {:>14}  {:>12}", "epoch", "welfare kbps", "switches");
    for (e, (&w, &s)) in
        out.metrics.welfare.values().iter().zip(out.metrics.switches.values()).enumerate()
    {
        println!("{e:>7}  {w:>14.1}  {s:>12.0}");
    }

    let actor_epochs = ((peers + helpers) as u64 * epochs) as f64;
    println!(
        "\n{} epochs in {:.2}s — {:.0} actor-epochs/sec, {} scheduler rounds, {} messages",
        out.epochs,
        secs,
        actor_epochs / secs.max(1e-12),
        stats.rounds,
        stats.messages
    );
    println!(
        "mean welfare (last 10 epochs): {:.1} kbps; messages/peer/epoch: {:.2}",
        out.metrics.welfare.tail_mean(10),
        out.messages.per_peer_per_epoch(peers, out.epochs)
    );

    let peak_threads = peak.load(Ordering::Relaxed);
    if peak_threads > 0 {
        // main + sampler + at most (workers − 1) scoped rths_par workers.
        let budget = 2 + workers.saturating_sub(1);
        println!(
            "peak OS threads: {peak_threads} (budget {budget}: main + sampler + \
             {} scoped workers) for {} actors",
            workers.saturating_sub(1),
            peers + helpers
        );
        if check_threads {
            assert!(
                peak_threads <= budget,
                "thread budget exceeded: {peak_threads} > {budget}"
            );
            println!("thread budget respected");
        }
    }
}
