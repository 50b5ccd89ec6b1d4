//! Page faults around a learner slab's T arena, counted on the calling
//! thread (`/proc/thread-self/stat`, field 10: minor faults).
//!
//! A slab that does not pack (stride ≤ 22) commits its T arena's whole
//! pages when the store reserves it, so the first epoch, which reads every
//! block before it writes it, takes no fault there; left lazy, each page
//! faulted twice in that epoch (the read mapped the shared zero page, the
//! write copied it). A packed slab (stride ≥ 23) leaves its arena lazy:
//! construction commits none of it, and the first epoch, which opens one
//! column per block, faults each page it writes once. The observe sweep's
//! load pass reads only stored columns, so it never maps the zero page
//! under a column about to be opened; when it did, epoch 0 took two faults
//! per block.
//!
//! This binary holds one test, so that no other test's freed memory backs
//! an arena, and it runs at one thread, so that every fault lands on the
//! calling thread.

use rths_sim::{BandwidthSpec, MultiChannelSystem, SimConfig};

/// Minor faults taken so far by the calling thread, if the kernel says.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The command name (field 2) may hold spaces; field 3 follows its `)`.
    stat[stat.rfind(')')? + 1..].split_whitespace().nth(10 - 3)?.parse().ok()
}

/// A single-channel system of `peers` peers over `helpers` helpers,
/// without the diagnostics `System::new` adds: their estimate rows are
/// built in the first epoch, two scalars a stride wide per peer, and
/// would hide what the T arena does.
fn system(peers: usize, helpers: usize) -> MultiChannelSystem {
    MultiChannelSystem::new(
        SimConfig::builder(peers, vec![BandwidthSpec::Paper { stay: 0.98 }; helpers])
            .seed(7)
            .build(),
    )
}

/// 4 KB pages of `peers` T blocks at `helpers` actions.
fn arena_pages(peers: usize, helpers: usize) -> u64 {
    (peers * helpers * helpers * 8 / 4096) as u64
}

#[test]
fn unpacked_arenas_commit_at_reserve_and_packed_ones_stay_lazy() {
    if minor_faults().is_none() {
        println!("no /proc/thread-self/stat here: fault counts unreadable, nothing checked");
        return;
    }
    let faults = || minor_faults().expect("fault count readable");
    rths_par::with_threads(1, || {
        // (a) Stride 10: 16,384 blocks of 800 B, 3,200 pages.
        let (peers, helpers) = (16_384, 10);
        let mut sys = system(peers, helpers);
        let before = faults();
        sys.step_epoch();
        let epoch0 = faults() - before;
        let pages = arena_pages(peers, helpers);
        assert!(
            epoch0 < pages / 8,
            "epoch 0 took {epoch0} faults over a {pages}-page committed T arena"
        );
        drop(sys);

        // (b) Stride 64: 4,096 blocks of 32 KB, 32,768 pages.
        let (peers, helpers) = (4_096, 64);
        let before = faults();
        let mut sys = system(peers, helpers);
        let built = faults() - before;
        let pages = arena_pages(peers, helpers);
        assert!(
            built < pages / 8,
            "construction took {built} faults over a {pages}-page packed T arena"
        );

        // (c) Epoch 0 opens one column per block, on one page each: 1.00
        // fault per block once the load pass leaves it unread, 2.00 when
        // it read the page first. Stride 64 (4,096 blocks of 32 KB) and
        // stride 32 (8,192 blocks of 8 KB).
        let first_epoch = |sys: &mut MultiChannelSystem, blocks: usize| {
            let before = faults();
            sys.step_epoch();
            let per_block = (faults() - before) as f64 / blocks as f64;
            assert!(per_block < 1.25, "epoch 0 took {per_block:.2} faults per packed T block");
        };
        first_epoch(&mut sys, peers);
        drop(sys);
        let peers = 8_192;
        first_epoch(&mut system(peers, 32), peers);
    });
}
