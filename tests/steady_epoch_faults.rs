//! Page faults of steady epochs, counted on the calling thread
//! (`/proc/thread-self/stat`, field 10: minor faults).
//!
//! Once the first epochs have sized every buffer, an epoch of either
//! engine maps no new page. The reactor used to: each mailbox shard
//! cloned its column of delivered rates (8 bytes a peer, 8 KB for a full
//! shard of `SHARD_SPAN` = 1,024 peers) into its epoch's `ShardReport`,
//! and the coordinator freed it. With at least 32 shards the freed
//! reports add up to more than glibc malloc's default trim threshold
//! (`M_TRIM_THRESHOLD`, 128 KB), so the heap gave their pages back to
//! the kernel at the end of every epoch and the next epoch faulted them
//! in again: more than one fault per shard and epoch. The report's buffer
//! now goes round instead. The coordinator sends it out again in a later
//! epoch's `JoinRates`, and the shard writes its delivered rates into it.
//!
//! The bound assumes the host's default allocator: glibc malloc at its
//! default settings (no `GLIBC_TUNABLES`, no `mallopt`). Another
//! allocator, or a raised trim threshold, can hide the churn it guards.
//!
//! This binary holds one test, so that no other test's allocations share
//! the heap, and it runs at one thread, so that every fault lands on the
//! calling thread.

use rths_net::{NetConfig, ReactorRuntime};
use rths_sim::{BandwidthSpec, SimConfig, System};

/// Minor faults taken so far by the calling thread, if the kernel says.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The command name (field 2) may hold spaces; field 3 follows its `)`.
    stat[stat.rfind(')')? + 1..].split_whitespace().nth(10 - 3)?.parse().ok()
}

/// `reactor_wide`'s shape, smaller: 49,152 peers over 8 helpers, which
/// fill 49 mailbox shards of 1,024 actors (the first holds the
/// coordinator, the tracker and the helpers too; the last, 10 peers).
fn config() -> SimConfig {
    SimConfig::builder(48 * 1024, vec![BandwidthSpec::Paper { stay: 0.98 }; 8]).seed(7).build()
}

/// Epochs run before counting: the first epochs grow every buffer to its
/// steady size.
const WARM_UP: u64 = 4;

/// Epochs counted.
const EPOCHS: u64 = 20;

/// Faults per steady epoch each engine must stay under. With the report
/// buffers going round, the reactor read 1.3 per epoch here and the
/// `System` 0; with a report cloned per shard and epoch, the reactor read
/// 57 (the `System` still 0).
const BOUND: f64 = 8.0;

#[test]
fn steady_epochs_take_almost_no_page_faults() {
    if minor_faults().is_none() {
        println!("no /proc/thread-self/stat here: fault counts unreadable, nothing checked");
        return;
    }
    let faults = || minor_faults().expect("fault count readable");
    rths_par::with_threads(1, || {
        let per_epoch = |run: &mut dyn FnMut(u64)| {
            run(WARM_UP);
            let before = faults();
            run(EPOCHS);
            (faults() - before) as f64 / EPOCHS as f64
        };

        let mut reactor =
            ReactorRuntime::new(NetConfig::from_sim(config()).with_track_estimate(false));
        let reactor_faults = per_epoch(&mut |epochs| reactor.run_epochs(epochs));
        drop(reactor);

        // The engine records only its metrics, so the default `System`
        // keeps no per-epoch copy of its peers' play: it is the one
        // measured.
        let mut system = System::new(config());
        let system_faults = per_epoch(&mut |epochs| {
            for _ in 0..epochs {
                system.step_epoch();
            }
        });

        println!(
            "faults per steady epoch: reactor {reactor_faults:.2}, System {system_faults:.2}"
        );
        assert!(
            reactor_faults < BOUND,
            "a steady reactor epoch took {reactor_faults:.2} faults (bound {BOUND})"
        );
        assert!(
            system_faults < BOUND,
            "a steady System epoch took {system_faults:.2} faults (bound {BOUND})"
        );
    });
}
