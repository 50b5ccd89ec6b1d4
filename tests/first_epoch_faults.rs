//! Page faults around a learner slab's T arena, counted on the calling
//! thread (`/proc/thread-self/stat`, field 10: minor faults).
//!
//! A slab that does not pack (stride ≤ 22) commits its T arena's whole
//! pages when the store reserves it, so the first epoch, which reads every
//! block before it writes it, takes no fault there; left lazy, each page
//! faulted twice in that epoch (the read mapped the shared zero page, the
//! write copied it). A packed slab (stride ≥ 23) keeps each played
//! action's column, `stride` floats, in one column arena that it only
//! reserves: construction commits none of it, and the first epoch, which
//! opens one column per block at the arena's end and writes one handle
//! into the block's row of `stride` column handles, faults the pages of
//! those columns and handle rows once each: about 0.19 faults per block
//! at stride 64 (a 512-byte column and 256 bytes of handles per block),
//! less at stride 32. The observe sweep's load pass reads only open
//! columns, so it never maps the zero page under one about to be opened.
//! A layout that gives each block pages of its own takes at least one
//! fault per block there, two if the load pass reads the page first.
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

        // (c) Epoch 0 opens one column per block: consecutive columns of
        // the arena, plus one handle in each block's handle row. At stride
        // 64 (4,096 blocks) that is 512 + 256 bytes a block, 0.19 pages;
        // at stride 32 (8,192 blocks) 256 + 128 bytes, 0.09 pages. A
        // layout that gives each block pages of its own faults at least
        // one a block (1.00 for the packed `stride²` blocks, 2.00 when the
        // load pass read the page first), so the bound sits at twice the
        // stride-64 reading.
        let first_epoch = |sys: &mut MultiChannelSystem, blocks: usize| {
            let before = faults();
            sys.step_epoch();
            let per_block = (faults() - before) as f64 / blocks as f64;
            println!("epoch 0: {per_block:.3} faults per packed T block");
            assert!(per_block < 0.4, "epoch 0 took {per_block:.2} faults per packed T block");
        };
        first_epoch(&mut sys, peers);
        drop(sys);
        let peers = 8_192;
        first_epoch(&mut system(peers, 32), peers);
    });
}
