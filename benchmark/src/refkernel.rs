//! The reference kernel: a fixed piece of the harness's own work, run in
//! short bursts between the epochs of every repeat, that says how fast the
//! host was while the program ran.
//!
//! The reference host shares its last-level cache and memory system with
//! other tenants, and its speed wanders by ±15 % on every time scale from
//! a second to tens of minutes. Sizing showed that no statistic of raw
//! times steadies that — medians, best-of-*k* and cells of 10 to 60
//! seconds all spread alike — because the wander is slower than any run
//! the time cap allows. What does steady it is measuring the wander and
//! dividing it out: a burst of this kernel takes about two milliseconds,
//! touches none of the program's code, and slows down with the host the
//! way the program's hot loops do (random 8 KB blocks of a 32 MB arena, a
//! strided column update and a row maximum on each — the shape of a learner
//! update on a slab that lives in the shared cache). A run's *slowdown* is
//! the time its bursts took per block over what a block takes beside that
//! workload at the host's median speed (`Workload::reference_block_ns`),
//! and the timings of the workloads that follow the kernel
//! (`Workload::follows_reference`: all but the multi-process one, whose
//! run is one call) are reported at reference speed:
//! measured seconds, bursts excluded, divided by the slowdown of the same
//! run.
//!
//! The kernel belongs to the harness and calls nothing of the program, so a
//! change to the program cannot move it; its work is fixed (one generator,
//! one seed, a fixed number of blocks per burst), so every run of every
//! commit measures the same thing.

use crate::clock;

/// Bytes of the arena the kernel walks: well beyond a core's private
/// caches, so a burst meets the shared cache the workloads live in.
pub const ARENA_BYTES: usize = 32 << 20;
/// `f64`s per block: 8 KB, sixteen rows of [`ROW`].
const BLOCK: usize = 1024;
/// Row length inside a block.
const ROW: usize = 64;
/// Blocks per burst: about two milliseconds on the reference host.
const BLOCKS_PER_BURST: u64 = 6000;

/// Work done and time taken by the kernel up to some moment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefMark {
    /// Blocks processed.
    pub blocks: u64,
    /// Seconds they took.
    pub secs: f64,
}

impl RefMark {
    /// What was done between `earlier` and this mark.
    pub fn since(self, earlier: RefMark) -> RefMark {
        RefMark { blocks: self.blocks - earlier.blocks, secs: self.secs - earlier.secs }
    }
}

/// How much slower than nominal the host ran `blocks` blocks in `secs`
/// seconds, `nominal_ns` being what a block takes at reference speed
/// (`Workload::reference_block_ns`): 1 at reference speed, 1.2 when
/// everything takes a fifth longer. 1 when no block was run, so that raw
/// times pass through.
pub fn slowdown(blocks: u64, secs: f64, nominal_ns: f64) -> f64 {
    if blocks == 0 || secs <= 0.0 {
        1.0
    } else {
        secs * 1e9 / blocks as f64 / nominal_ns
    }
}

/// The kernel and its running totals.
pub struct RefKernel {
    arena: Vec<f64>,
    rng: u64,
    total: RefMark,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

impl RefKernel {
    /// Allocates and touches the arena and runs one uncounted burst.
    pub fn new() -> Self {
        let mut kernel = Self {
            arena: vec![1.0; ARENA_BYTES / std::mem::size_of::<f64>()],
            rng: 0x1234_5678_9abc_def1,
            total: RefMark::default(),
        };
        kernel.burst();
        kernel.total = RefMark::default();
        kernel
    }

    /// One burst: [`BLOCKS_PER_BURST`] blocks, timed.
    pub fn burst(&mut self) {
        let blocks = self.arena.len() / BLOCK;
        let start = clock::now();
        let mut sum = 0.0;
        for _ in 0..BLOCKS_PER_BURST {
            let b = (xorshift(&mut self.rng) % blocks as u64) as usize;
            let r = (xorshift(&mut self.rng) % (BLOCK / ROW) as u64) as usize;
            let block = &mut self.arena[b * BLOCK..(b + 1) * BLOCK];
            // A column: one element of every row, a cache line each.
            for row in block.chunks_exact_mut(ROW) {
                // Values settle at 25, so the arena never overflows.
                row[r] = row[r] * 0.98 + 0.5;
            }
            // A row: contiguous.
            sum += block[r * ROW..(r + 1) * ROW].iter().copied().fold(f64::MIN, f64::max);
        }
        std::hint::black_box(sum);
        self.total.secs += clock::secs_since(start);
        self.total.blocks += BLOCKS_PER_BURST;
    }

    /// `n` bursts in a row.
    pub fn bursts(&mut self, n: u64) {
        for _ in 0..n {
            self.burst();
        }
    }

    /// The totals so far.
    pub fn mark(&self) -> RefMark {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_do_fixed_work_and_add_up() {
        let mut kernel = RefKernel::new();
        assert_eq!(kernel.mark(), RefMark::default());
        kernel.burst();
        let one = kernel.mark();
        assert_eq!(one.blocks, BLOCKS_PER_BURST);
        assert!(one.secs > 0.0);
        kernel.bursts(2);
        let three = kernel.mark();
        assert_eq!(three.blocks, 3 * BLOCKS_PER_BURST);
        let two = three.since(one);
        assert_eq!(two.blocks, 2 * BLOCKS_PER_BURST);
        assert!((two.secs - (three.secs - one.secs)).abs() < 1e-15);
        // The arena stays finite however long the kernel runs.
        assert!(kernel.arena.iter().all(|x| x.is_finite() && *x <= 25.0));
    }

    #[test]
    fn slowdown_is_time_per_block_over_nominal() {
        assert!((slowdown(1000, 350e-6, 350.0) - 1.0).abs() < 1e-12);
        assert!((slowdown(1000, 420e-6, 350.0) - 1.2).abs() < 1e-12);
        // No burst ran: raw times pass through unchanged.
        assert_eq!(slowdown(0, 0.0, 350.0), 1.0);
        assert_eq!(slowdown(0, 1.0, 350.0), 1.0);
    }
}
