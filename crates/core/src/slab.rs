//! Arena slabs of learner state: played-sparse, lazily-decayed T-matrices.
//!
//! At 10⁵+ peers a per-peer dense layout (the test oracle `RthsState`) is
//! allocator-bound: every peer carries its own `Matrix::zeros(m, m)` heap
//! block (32 KB at m = 64), so *constructing* a mesh costs one allocation
//! storm and the T-matrices dominate peak RSS. [`LearnerSlab`] packs all
//! same-shard peers' learner state into a handful of flat columns — the
//! structure-of-arrays counterpart of `rths_sim`'s `PeerStore`:
//!
//! ```text
//!   arity / stage / pending / scale / block / row: one scalar per slot
//!                   │                            │
//!    row[slot] = h  │                            │  block[slot] = b
//!                   ▼                            │
//!            row h                     row h+1   │             …
//!   probs: [ p₀ … pₛ ]             [ p₀ … pₛ ]   │             stride s
//!   freq:  [ f₀ … fₛ ]             [ f₀ … fₛ ]   │             stride s
//!   best:  [ b₀ … bₛ | d₀ … dₛ ]   [ b₀ … bₛ | d₀ … dₛ ]       stride 2s, on demand
//!                                                ▼
//!            block b                   block b+1               …
//!   t:     [ col₀ | col₁ | … | colₛ ][ col₀ | col₁ | … ]       stride s²
//!           └─ S(r,k) at c(k)·s + r  (column-major per block)
//!   played:[ column bitmask ]        [ column bitmask ]        ⌈s/64⌉ words
//!
//!   c(k) = k                              s² · 8 B ≤ 4 KB (unpacked)
//!   c(k) = #{played actions below k}      s² · 8 B > 4 KB (packed)
//! ```
//!
//! Only the scalars are **slot-addressed**. Every column whose rows are
//! as long as the stride (or its square) keeps them in an arena that a
//! slot reaches through a 4-byte handle, wherever the slot itself sits,
//! so moving a slot moves six scalars and never a row:
//!
//! * The T arena and the bitmasks are **block-addressed**: slot `i`'s
//!   `S` is block `block[i]` of `t`, handed to the slot when it is
//!   created and followed for life. A departed slot's block is wiped and
//!   handed to the next arrival, so the arena never outgrows the peak
//!   population, and after churn the handles are any permutation: a
//!   sweep meets the blocks out of order, as it meets their columns.
//! * The strategy, frequency and estimate rows are **row-addressed**:
//!   slot `i`'s rows are row `row[i]` of `probs`, `freq` and `best`. An
//!   arrival takes the row past every handed-out one and a departure
//!   leaves a hole, so the row handles stay strictly increasing and a
//!   sweep streams these rows in arena order, as it reads them every
//!   epoch. (Handing departed rows to arrivals, as blocks are, measured
//!   slower than moving them: the sweep then missed on every row.) Once
//!   the holes outnumber a sixteenth of the slots,
//!   [`LearnerSlab::remove_slots`] closes them in one ascending pass
//!   ([`close_row_holes`]).
//!
//! Per-slot calls look a handle up; a sharded phase
//! ([`LearnerSlab::split`]) reads them once and hands each shard a view
//! of its slots' rows ([`Rows`]): the arena prefix itself while every
//! handle still equals its slot, the arena and the handles while the
//! phase runs as one shard, and one view per slot gathered through the
//! handles once the phase splits it (`chunks_exact_mut` proves the
//! views disjoint; no `unsafe`).
//!
//! One stage of the learner (Eq. 3-5/3-6) decays `T`, adds a rank-1
//! update to **one** column and reads **one** row. At 10⁴+ slots of
//! m = 64 the slab lives in DRAM and an observe costs cache lines, not
//! flops, so every operation touches the **played** columns of its slot
//! only:
//!
//! * **`T = scale · S`** ([`crate::lazy`]). The `t` column stores `S`;
//!   the exponential decay is `scale *= 1 − ε`, an `O(1)` write that
//!   loads no column. The rank-1 update divides its coefficient by
//!   `scale`, reads multiply by it. When `scale` falls below 2⁻²⁵⁶ the
//!   played columns are multiplied by 2⁻²⁵⁶ and `scale` by 2²⁵⁶ — exact
//!   powers of two, so no later float depends on *when* that happened
//!   (entries the downscale would make subnormal stand for a `T` entry
//!   below 2⁻¹⁰²² and are flushed to zero). It happens once every
//!   `256·ln 2 / ε` stages per slot.
//! * **The `played` bitmask.** A column `k` is written only by the rank-1
//!   update of a stage that played `k` (which sets bit `k`), and by
//!   renormalisation and wipes, which map `+0.0` to `+0.0`. So a
//!   never-played action's column is exactly `+0.0` everywhere, and
//!   nothing ever needs to load one: renormalisation, wipes and clones
//!   walk the mask (compaction moves no column at all — see the block
//!   handles above), and never-written pages of the one big
//!   lazily-mapped zero allocation are never committed (the
//!   construction-time and peak-RSS win at the 10⁵-actor point).
//! * **Played columns first.** In a block larger than one 4 KB page the
//!   played columns are stored **packed** at its front in ascending action
//!   order: action `k`'s column sits at position `rank(k)`, the number of
//!   played actions below `k`, read off the bitmask. The slab invariant is
//!   then that every position at or past the played count is `+0.0` (in an
//!   unpacked block: every never-played action's column). Under regret
//!   tracking a slot settles on a few of its `m` actions, and column-`k`
//!   addressing would commit a page for every distinct `k / 8` at m = 64;
//!   packed, a slot commits `⌈played · s · 8 B / 4 KB⌉` pages. The first
//!   play of `j` opens its column: the stored columns at positions
//!   `≥ rank(j)` shift up one inside the block, the opened one is zeroed,
//!   and the rank-1 update runs on it as on any other. Only the address of
//!   `S(·, k)` changes, never a float expression or its order. Mask walks
//!   still visit played actions in ascending `k`, so the `n`-th one is at
//!   position `n`; `best`, `diag` and the regret row stay
//!   action-indexed; wipes and renormalisation cover one `played · s`
//!   prefix. **Geometry gate, not a setting:** a block of at most a page
//!   (stride ≤ 22) shares its pages with its neighbours, all of which are
//!   committed within the first epochs, so packing would buy nothing there
//!   and cost the rank arithmetic and the shifts; such a slab addresses
//!   column `k` at `k · s`.
//! * **Mask-driven row gather, fused with the strategy update.** The
//!   played row `S(j, ·)` is one element of every column — a cache line
//!   each — and each element gives one entry of the next strategy:
//!   `p(k) = (1 − δ) · min(max(r, 0) / μ, 1/(m − 1)) + δ/m` with
//!   `r = (factor · (S(j,k) − S(j,j)))⁺`, divided by `max(f_j, δ/m)` first
//!   when regret is conditional. So the gather writes `p(k)` where it
//!   reads `S(j, k)`, and no regret row is ever stored. All never-played
//!   columns hold `+0.0` and share one `p`, computed once and written with
//!   one `fill`; the mask walk then loads the played ones and writes
//!   theirs; last, the off-mass is summed over `k ≠ j` in ascending `k`
//!   and `p(j) = 1 − off`. Every float is the expression, in the order, of
//!   `policy::update_probabilities`, which the scalar oracle calls. An
//!   observe at a stride above 8 does `played + 1` divides where the
//!   unfused form did `m − 1` (conditional: `2 · (played + 1)` where it
//!   did `2 · (m − 1) + 1`). At a stride of at most 8 a column *is* one
//!   cache line and the walk has nothing to skip, so the gather reads all
//!   `m` densely — chosen by the slab's fixed geometry, not a setting.
//! * **Play frequencies only where they are read.** Conditional
//!   normalisation (`f_j` above) is the one reader of the `freq` row, so
//!   only a conditional learner's observe writes it; any other learner's
//!   stays at the `1/m` that `alloc` and `reset_actions` wrote.
//! * **`max_regret` from maintained row maxima.** The estimate is
//!   `max(0, max_{r,k} fl(f · fl(S(r,k) − S(r,r))))`, `f ≥ 0` being the
//!   averaging factor times `scale`. Rounding to nearest is monotone, so
//!   for a fixed row `r` the maps `x ↦ fl(x − S(r,r))`, `y ↦ fl(f · y)`
//!   and the clamp at zero are each non-decreasing, and the max over `k`
//!   commutes with all three: it is the same expression evaluated once,
//!   at `best[r] = max_k S(r,k)` (a never-played column counting as the
//!   `+0.0` it holds). A slab that is asked for estimates keeps `best`
//!   and, beside it in the same row, the diagonal
//!   `diag[r] = S(r,r)` — `2m` scalars per slot, laid out like `probs` at
//!   twice the stride — exact wherever `S` changes. The rank-1 update
//!   with a coefficient `≥ 0` only raises column `j`, so `best[r] =
//!   max(best[r], S(r,j))` right after it; a negative coefficient (legal
//!   through the `Learner` API, never produced by a rate) rebuilds the
//!   slot's maxima by a scan; either way `diag[j]` is copied from the
//!   one diagonal entry the update wrote. Renormalisation applies its
//!   exact 2⁻²⁵⁶ scale and subnormal flush (monotone too) to the whole
//!   row, as it does to the `S` entries the row mirrors; a wipe, a reset
//!   and `alloc` zero it; a clone copies it; it follows the slot's row
//!   handle like the strategy row. The query is one `shifted_regret_max(
//!   best, diag, f)` over the two halves of that row — it never touches
//!   T, where the scan
//!   of the played columns loads `O(played · m)` scattered lines and even
//!   the diagonal alone is one line per played column, and `System` asks
//!   it of every peer every epoch. **Demand-driven, not a setting:** the column
//!   does not exist until the first estimate request
//!   ([`LearnerSlab::track_estimates`]; [`LearnerSlab::max_regret`] and
//!   the store's observe phase make it), which builds every row once by
//!   the scan. A slab nobody asks never allocates it and pays one
//!   predictable branch per observe. The scan stays: it builds and
//!   rebuilds rows, answers for a slab that never turned them on, and is
//!   the tests' oracle beside `RthsState::max_regret`.
//! * **Observes in batches behind one pass of loads.** What is left of an
//!   observe at m = 64 is some 70 cache misses that the update meets one at
//!   a time, each between a few dozen µops of arithmetic: ≈ 100 ns of work
//!   when everything is cache-resident (≈ 230 ns before the gather and the
//!   strategy update were fused), spread over ≈ 1 µs. Splitting the update
//!   into per-stage passes over several slots does not change that — every
//!   stage is still load → arithmetic → store, and the reorder window holds
//!   few slots' worth. A pass of *nothing but loads* does: for each of
//!   [`OBSERVE_BATCH`] slots about to observe, one scalar from each line of
//!   the pending column and the pending row's element of every played
//!   column — the lines the rank-1 update and the row gather are about to
//!   touch — ≈ 100 independent loads in flight together, after which the
//!   eight updates find their T lines in cache (`probs`, `freq` and `best`
//!   rows lie in slot order and stream). The loaded bits are folded into a
//!   word that goes to [`std::hint::black_box`] and nowhere else, and
//!   nothing is stored: no float of any trajectory can depend on the pass,
//!   on the batch size or on whether it ran. The store's observe sweep —
//!   `rths_sim`'s `PeerStore`, which both the simulator and the reactor's
//!   mailbox shards drive — calls [`SlabCols::touch`] on each block of a
//!   shard; every slot's action has been pending since the choose phase. A
//!   lone [`SlabLearner`] observes at once, with no pass. **Geometry gate,
//!   not a setting:** at a stride of at most 8 a block is eight consecutive
//!   lines, which the hardware already streams; the pass measured slower
//!   than no pass there, and does not run.
//! * **Sampling without a data-dependent exit.** A choose draws one `u`
//!   and forms the prefix sums `acc_k = acc_{k−1} + p(k)` in ascending
//!   `k`, as the scalar oracle does; the oracle stops at the first `k`
//!   with `u < acc_k` (none: `m − 1`). That exit lands at a random `k`
//!   and mispredicts on most slots, and the core cannot run the next
//!   slot's scan under a mispredicted one. [`StrategyCols::select_action`]
//!   counts instead: `c = #{k : acc_k ≤ u}`, and the action is
//!   `min(c, m − 1)`. Adding an entry `≥ 0` never lowers `acc` (rounding
//!   is monotone), so the sums at or below `u` are the prefix `0..c` and
//!   `c` is the first crossing: the same action from the same draw. That
//!   rests on a **row invariant**: no stored entry is negative or NaN.
//!   `alloc` and `reset_actions` write `1/m`; the observe writes each
//!   `p(k)`, `k ≠ j`, through `max`/`min` clamps, which return the number
//!   when the other operand is NaN, plus `δ/m`, so `p(k) ≥ δ/m > 0`; the
//!   one entry rounding could take below zero, `p(j) = 1 − off`, is an
//!   `assert!` per observe (it holds unless `δ/m` is below the rounding
//!   error of the off-mass sum, ≈ m · 2⁻⁵³). Clones and the passes that
//!   close row holes copy whole rows. A per-sample guard, a running-max count and a
//!   first-crossing bitmask would each not need the invariant, but each
//!   measured slower than the early exit at m ≥ 32.
//!
//! The contiguous loops (rank-1 `axpy`, renormalising `scale`,
//! `shifted_regret_max`, the row maxima's `max_assign`) are the
//! autovectorized `rths_math::kernels`.
//!
//! Every operation performs the **exact float expressions in the exact
//! order** of the test-only scalar oracle (`RthsState`, which keeps the
//! same `scale · S` form densely, without masks), so slab-backed learners
//! replay the scalar path bit-for-bit — proven by the oracle tests below
//! and the proptest sweeps beside the oracle in `compact.rs`. The unit tests also hold the lazy form to an
//! eager-decay reference over 10⁶ stages.
//!
//! Two usage modes (per instance — they must not be mixed):
//!
//! * **slot-aligned mode** (`rths_sim`'s `PeerStore`, in the simulator
//!   and in each of the reactor's mailbox shards): slab slot ==
//!   store slot; departures go through [`LearnerSlab::remove_slots`]'s
//!   order-preserving compaction of the *per-slot* scalars (mirroring the
//!   store's column compaction). Compaction moves handles, not rows: a
//!   departed slot's block is wiped and pushed on the block free list,
//!   which [`alloc`](LearnerSlab::alloc) pops before it touches fresh
//!   arena, and its rows become holes — churn costs `O(departed · played
//!   · s + population)` an epoch, plus one pass over the rows per
//!   sixteenth of the population departed, not `O(population · s)` an
//!   epoch. After churn the block handles are a non-identity permutation
//!   and the row handles have gaps; nothing depends on which block or
//!   row a slot holds.
//! * **free-list mode** ([`SlabLearner`]s): [`alloc`](LearnerSlab::alloc)
//!   / [`release`](LearnerSlab::release) with stable slots; a released
//!   slot keeps its (wiped) block and its rows, so both handles stay the
//!   identity. A
//!   `SlabLearner` wraps one slot behind the [`Learner`] trait for owners
//!   that hold their learner by value; its per-slot calls index
//!   `block[slot]` directly and are `O(1)` in the slab size.

use std::cell::OnceCell;
use std::sync::{Arc, Mutex, MutexGuard};

use rand::RngCore;
use rths_math::kernels;
use rths_par::{increasing_aligned, Rows, ShardCols, Strided};

use crate::config::{RecencyMode, RthsConfig};
use crate::lazy::{self, Decay};
use crate::learner::Learner;
use crate::policy;

/// Sentinel in the `pending` column: no observation outstanding.
pub const NO_PENDING: u32 = u32::MAX;

/// The averaging factor turning proxy differences into regrets — `ε` for
/// the tracking modes, `1/n` for uniform matching (same as
/// `RthsState::factor`).
fn factor_for(config: &RthsConfig, stage: u64) -> f64 {
    match config.recency() {
        RecencyMode::Exponential | RecencyMode::PaperLiteral => config.epsilon(),
        RecencyMode::Uniform => 1.0 / stage.max(1) as f64,
    }
}

/// `f64`s per cache line.
const LINE: usize = 8;

/// `f64`s per 4 KB page.
const PAGE: usize = 512;

/// A column of `f64`s this long or shorter is one cache line, so a slot's
/// whole `S` is at most `stride` lines and a mask walk has nothing to
/// skip: the played-row gather then reads all `m` columns densely.
const DENSE_GATHER_MAX_STRIDE: usize = LINE;

/// Whether a slab of this stride keeps each block's played columns packed
/// at its front (see the module docs): only a block larger than a page
/// has pages of its own to leave uncommitted.
#[inline]
fn packs(stride: usize) -> bool {
    stride * stride > PAGE
}

/// How many actions below `k` a played-column bitmask has set: the
/// position of column `k` in a packed block.
#[inline]
fn rank(played: &[u64], k: usize) -> usize {
    let below: u32 = played[..k / 64].iter().map(|w| w.count_ones()).sum();
    (below + (played[k / 64] & ((1 << (k % 64)) - 1)).count_ones()) as usize
}

/// Where action `k`'s column starts in one slot's block — or, if `k` has
/// never been played, where opening it would put it.
#[inline(always)]
fn column_start(played: &[u64], stride: usize, k: usize) -> usize {
    (if packs(stride) { rank(played, k) } else { k }) * stride
}

/// Opens action `j`'s column for a rank-1 update and returns where it
/// starts, and whether this opened a packed column. The first play of `j`
/// sets its bit; in a packed block it also shifts the stored columns at
/// positions `≥ rank(j)` up one and zeroes the column at `rank(j)`.
fn open_column(t: &mut [f64], played: &mut [u64], stride: usize, j: usize) -> (usize, bool) {
    let bit = 1 << (j % 64);
    let opened = played[j / 64] & bit == 0 && packs(stride);
    played[j / 64] |= bit;
    let at = column_start(played, stride, j);
    if opened {
        let stored = played_count(played) * stride - stride;
        t.copy_within(at..stored, at + stride);
        t[at..at + stride].fill(0.0);
    }
    (at, opened)
}

/// Observes that run behind one pass of loads (see the module docs): the
/// block size of the store's observe sweep.
pub const OBSERVE_BATCH: usize = 8;

/// The load pass for one slot about to observe action `j`: reads one
/// scalar from each cache line of column `j`'s first `m` entries (what the
/// rank-1 update reads and writes) and element `j` of every played column
/// (what the Eq. 3-6 row gather reads), and returns their bits folded
/// together. The loads are independent of one another and of any
/// arithmetic, so a batch of slots has all of them in flight at once and
/// the updates that follow find their lines in cache.
///
/// Nothing is stored, and the caller hands the fold to
/// [`std::hint::black_box`] and drops it: no float of any trajectory can
/// depend on this routine or on whether it ran.
///
/// Forced inline, with the two addressing helpers it calls: left to the
/// inliner, it made a slab sweep at m = 10 (unpacked blocks) ≈ 5 % slower
/// per observe on a 2-vCPU x86-64 host.
#[inline(always)]
fn touch(t: &[f64], played: &[u64], stride: usize, m: usize, j: usize) -> u64 {
    // Before a first play of `j` in a packed block, the lines at `rank(j)`
    // are the ones the shift and the update are about to rewrite.
    let at = column_start(played, stride, j);
    let mut fold = 0;
    for r in (0..m).step_by(LINE) {
        fold ^= t[at + r].to_bits();
    }
    for_each_column(played, stride, |_, c| fold ^= t[c + j].to_bits());
    fold
}

/// Calls `f(k)` for every set bit `k` of a played-column bitmask, in
/// ascending order.
#[inline]
fn for_each_played(played: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in played.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Calls `f(k, c)` for every played action `k` of one slot, in ascending
/// order, with `c` where its column starts in the slot's block: `k ·
/// stride` in an unpacked block, the next position in a packed one.
#[inline(always)]
fn for_each_column(played: &[u64], stride: usize, mut f: impl FnMut(usize, usize)) {
    if packs(stride) {
        let mut c = 0;
        for_each_played(played, |k| {
            f(k, c);
            c += stride;
        });
    } else {
        for_each_played(played, |k| f(k, k * stride));
    }
}

/// The number of actions a slot has played.
fn played_count(played: &[u64]) -> usize {
    played.iter().map(|w| w.count_ones()).sum::<u32>() as usize
}

/// Zeroes one slot's played `S` columns — in a packed block, the prefix
/// they fill — and clears its bitmask; returns the number of columns
/// written.
fn wipe_columns(t: &mut [f64], played: &mut [u64], stride: usize) -> u64 {
    let mut written = 0;
    for_each_column(played, stride, |_, c| {
        t[c..c + stride].fill(0.0);
        written += 1;
    });
    played.fill(0);
    written
}

/// Multiplies stored entries by the exact power of two
/// [`lazy::RENORM_BELOW`] and flushes what that made subnormal.
fn renormalise(xs: &mut [f64]) {
    kernels::scale(xs, lazy::RENORM_BELOW);
    for x in xs {
        *x = lazy::flush_subnormal(*x);
    }
}

/// The stored-entry half of a renormalisation: [`renormalise`]s one
/// slot's played `S` columns; returns the number of columns written.
fn renormalise_columns(t: &mut [f64], played: &[u64], stride: usize) -> u64 {
    let mut written = 0;
    for_each_column(played, stride, |_, c| {
        renormalise(&mut t[c..c + stride]);
        written += 1;
    });
    written
}

/// Does to one slot's stored columns what a [`lazy::decay`] of its
/// `scale` asked for — nothing, unless `scale` crossed its renormalisation
/// threshold (or `keep` was zero). Unflagged columns are exactly `+0.0`
/// (slab invariant), which a rescale and a wipe both leave bit-identical,
/// so they are skipped and their pages stay unwritten. The slot's
/// maintained estimate row (`best` and `diag`, when the slab keeps them)
/// gets the same map: the diagonal copies stored entries, and the map is
/// monotone, so it commutes with the maxima. Returns the number of
/// columns written.
fn apply_decay(
    step: Decay,
    t: &mut [f64],
    played: &mut [u64],
    stride: usize,
    best: Option<&mut [f64]>,
) -> u64 {
    match step {
        Decay::Keep => 0,
        Decay::Renormalise => {
            if let Some(best) = best {
                renormalise(best);
            }
            renormalise_columns(t, played, stride)
        }
        Decay::Wipe => {
            if let Some(best) = best {
                best.fill(0.0);
            }
            wipe_columns(t, played, stride)
        }
    }
}

/// Gathers one slot's diagonal `S(r, r)`, `r < diag.len()`, into `diag`:
/// the played entries are loaded, a never-played column's is the `+0.0`
/// it holds.
fn gather_diagonal(t: &[f64], played: &[u64], stride: usize, diag: &mut [f64]) {
    diag.fill(0.0);
    for_each_column(played, stride, |k, c| diag[k] = t[c + k]);
}

/// Whether every one of a slot's `m` columns has been played.
fn all_played(played: &[u64], m: usize) -> bool {
    played_count(played) >= m
}

/// The tail every `max_regret` shares: the fold's result clamped at zero,
/// and `0.0` when a non-finite entry made it non-finite.
fn finite_regret(max: f64) -> f64 {
    if max.is_finite() {
        max.max(0.0)
    } else {
        0.0
    }
}

/// Max derived regret over one slot's `m × m` submatrix — the same value
/// set (and therefore the same max) as the scalar row-major scan, from
/// the played columns only: `factor` already carries the slot's `scale`,
/// a never-played column is all `+0.0` (so is its diagonal entry), and
/// every never-played column therefore contributes the same maximum,
/// evaluated once against the gathered diagonal without loading any.
///
/// This is the `O(played · m)` scan: the query of a slab that keeps no
/// row maxima, and the oracle the maintained form is tested against.
fn max_regret_in(
    t: &[f64],
    played: &[u64],
    stride: usize,
    m: usize,
    factor: f64,
    diag: &mut Vec<f64>,
) -> f64 {
    diag.clear();
    diag.resize(m, 0.0);
    gather_diagonal(t, played, stride, diag);
    let mut max = f64::NEG_INFINITY;
    for_each_column(played, stride, |_, c| {
        max = max.max(kernels::shifted_regret_max(&t[c..c + m], diag, factor));
    });
    if !all_played(played, m) {
        for &d in diag.iter() {
            max = max.max((factor * (0.0 - d)).max(0.0));
        }
    }
    finite_regret(max)
}

/// Builds one slot's row maxima from nothing: `best[r] = max_k S(r, k)`
/// over its `m = best.len()` columns, by a scan of the played ones; the
/// never-played ones count as the `+0.0` they hold.
fn rebuild_row_maxima(t: &[f64], played: &[u64], stride: usize, best: &mut [f64]) {
    let m = best.len();
    best.fill(if all_played(played, m) { f64::NEG_INFINITY } else { 0.0 });
    for_each_column(played, stride, |_, c| kernels::max_assign(best, &t[c..c + m]));
}

/// Calls `mv(run, to)` for every run of consecutive surviving slots of
/// `0..n` that an **order-preserving** removal of the `sorted` slots
/// (strictly increasing, all `< n` — callers validate) relocates: the
/// slots `run` move to `to..`, in ascending order. Returns the survivor
/// count. Survivors keep their relative order, so `to < run.start`
/// always and each `mv` may overwrite `to..` freely: whatever lived there
/// has already moved or departed. This is the one write-cursor walk
/// behind every slot-aligned column compaction (the slab's per-slot
/// columns, `PeerStore`'s, the regret ledger's).
pub fn for_each_survivor_run(
    n: usize,
    sorted: &[u32],
    mut mv: impl FnMut(std::ops::Range<usize>, usize),
) -> usize {
    // Slots before the first departure stay where they are.
    let Some(&first) = sorted.first() else { return n };
    let mut to = first as usize;
    for (k, &gone) in sorted.iter().enumerate() {
        let end = sorted.get(k + 1).map_or(n, |&next| next as usize);
        let run = gone as usize + 1..end;
        if !run.is_empty() {
            to += run.len();
            mv(run.clone(), to - run.len());
        }
    }
    to
}

/// Removes the `sorted` slots from one column of `Copy` scalars,
/// order-preservingly ([`for_each_survivor_run`]): each run of survivors
/// moves as one block.
pub fn compact_column<T: Copy>(column: &mut Vec<T>, sorted: &[u32]) {
    let kept =
        for_each_survivor_run(column.len(), sorted, |run, to| column.copy_within(run, to));
    column.truncate(kept);
}

/// Bytes of one slot's slot-addressed scalars — `arity`, `stage`,
/// `pending`, `scale`, `block` and `row` — all that a compaction copies
/// for a relocated slot.
const SLOT_SCALAR_BYTES: usize = 4 * size_of::<u32>() + size_of::<u64>() + size_of::<f64>();

/// Row `r` of an arena of `width`-scalar rows, as a one-slot view.
fn one_row<T>(arena: &mut [T], width: usize, r: usize) -> Rows<'_, T> {
    Rows::Aligned(Strided::new(width, &mut arena[r * width..(r + 1) * width]))
}

/// Closes the holes of a row arena whose items reach their rows through
/// `handles` — strictly increasing, as an arena gets them when departed
/// items leave their rows behind and arrivals append — once the holes
/// (`used` rows handed out, less the live ones) outnumber a sixteenth of
/// the live items. Then every handle is made its item's index, calling
/// `mv(from, to)` for each row that has to move, in ascending order, and
/// the number of moves comes back; else `None`, and nothing changes.
///
/// A strictly increasing handle is at least its index, so each row moves
/// to a place an earlier one has already left. A sweep over an arena that
/// is not closed skips at most one row in seventeen, still in arena
/// order; a steady churn of `d` departures an epoch pays one pass over
/// the rows every `population / 16d` epochs, where moving them at every
/// departure paid one an epoch.
pub fn close_row_holes(
    handles: &mut [u32],
    used: usize,
    mut mv: impl FnMut(usize, usize),
) -> Option<usize> {
    if used - handles.len() <= handles.len() / 16 {
        return None;
    }
    let mut moved = 0;
    for (to, handle) in handles.iter_mut().enumerate() {
        let from = *handle as usize;
        if from != to {
            mv(from, to);
            moved += 1;
            *handle = to as u32;
        }
    }
    Some(moved)
}

/// An arena of learner slots sharing flat columns (see the module docs
/// for the layout and the two usage modes).
#[derive(Debug, Clone)]
pub struct LearnerSlab {
    /// Scalars per probs/freq row; columns per T block. Fixed at
    /// construction to the largest arity the slab must host.
    stride: usize,
    /// Bitmask words per slot (`⌈stride / 64⌉`).
    words: usize,
    /// The T arena, `stride²` scalars per block. Blocks
    /// `..block.len() + free_blocks.len()` have been handed out; the
    /// rest is untouched zeroed backing. Indexed by `block[slot]`, like
    /// `played`.
    t: Vec<f64>,
    /// Strategy rows, `stride` scalars each. Rows `..rows_used` have been
    /// handed out. Indexed by `row[slot]`, like `freq` and `best`.
    probs: Vec<f64>,
    /// Play-frequency rows, `stride` scalars each.
    freq: Vec<f64>,
    /// Played-column bitmasks, `words` per block.
    played: Vec<u64>,
    arity: Vec<u32>,
    stage: Vec<u64>,
    pending: Vec<u32>,
    /// Lazy decay factor per slot: the proxy matrix is `scale · S`
    /// (see [`crate::lazy`]). Meaningless on a free-listed slot (a
    /// batched decay does not skip those); `alloc` restarts it at 1.
    scale: Vec<f64>,
    /// Block handle per slot: the slot's `S` is block `block[slot]` of
    /// `t`, its bitmask word row `block[slot]` of `played`. Every
    /// handed-out block is owned by exactly one slot or sits on
    /// `free_blocks` — no two slots ever share one.
    block: Vec<u32>,
    /// Whether a departure has ever moved a slot off its block's index:
    /// until then every `block[slot] == slot`.
    blocks_permuted: bool,
    /// Row handle per slot: the slot's rows of `probs`, `freq` and `best`
    /// are row `row[slot]` of theirs. Strictly increasing in slot order,
    /// so a sweep over the slots streams these rows as the arenas' own
    /// order, holes aside.
    row: Vec<u32>,
    /// Rows handed out: every live slot's, plus the holes departed slots
    /// left behind, which [`remove_slots`](Self::remove_slots) closes
    /// once they outnumber a sixteenth of the live slots.
    rows_used: usize,
    /// Released slots (free-list mode); each keeps its wiped block.
    free: Vec<u32>,
    /// Wiped blocks of slots compacted away by
    /// [`remove_slots`](Self::remove_slots) (slot-aligned mode).
    free_blocks: Vec<u32>,
    /// [`alloc`](Self::alloc) calls served from a departed learner's
    /// block — either free list — instead of fresh arena (observability:
    /// churn is not costing allocator traffic or new pages).
    reuses: u64,
    /// Maintained estimate rows, `2 · stride` scalars each: the row
    /// maxima `best[r] = max_k S(r, k)`, then the diagonal `diag[r] =
    /// S(r, r)` at offset `stride`. `None`
    /// until someone asks for a regret estimate
    /// ([`track_estimates`](Self::track_estimates)).
    best: Option<Vec<f64>>,
}

impl LearnerSlab {
    /// An empty slab whose slots can host up to `stride` actions each.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn new(stride: usize) -> Self {
        Self::with_capacity(stride, 0)
    }

    /// An empty slab with **zeroed backing storage** for `slots` slots
    /// created up front. This is the fast construction path: one
    /// `alloc_zeroed` per column (the kernel maps the pages lazily, so
    /// nothing is committed until a column is actually written), and
    /// [`alloc`](Self::alloc) then only initialises the tiny per-slot
    /// probability prefix — no per-peer heap allocation, no eager
    /// `O(m²)` zero-fill per peer.
    pub fn with_capacity(stride: usize, slots: usize) -> Self {
        assert!(stride > 0, "slab stride must be positive");
        let words = stride.div_ceil(64);
        Self {
            stride,
            words,
            t: vec![0.0; slots * stride * stride],
            probs: vec![0.0; slots * stride],
            freq: vec![0.0; slots * stride],
            played: vec![0; slots * words],
            arity: Vec::with_capacity(slots),
            stage: Vec::with_capacity(slots),
            pending: Vec::with_capacity(slots),
            scale: Vec::with_capacity(slots),
            block: Vec::with_capacity(slots),
            blocks_permuted: false,
            row: Vec::with_capacity(slots),
            rows_used: 0,
            free: Vec::new(),
            free_blocks: Vec::new(),
            reuses: 0,
            best: None,
        }
    }

    /// Ensures zeroed backing storage for `additional` more slots beyond
    /// the current count. On an **empty** slab this replaces the backing
    /// columns with one fresh `alloc_zeroed` each (lazily-mapped pages —
    /// the same fast path as [`with_capacity`](Self::with_capacity));
    /// on a live slab it falls back to an explicit zero-extending resize.
    pub fn reserve(&mut self, additional: usize) {
        let target = self.arity.len() + additional;
        if target * self.stride * self.stride <= self.t.len() {
            return;
        }
        if self.arity.is_empty() {
            self.t = vec![0.0; target * self.stride * self.stride];
            self.played = vec![0; target * self.words];
        } else {
            self.t.resize(target * self.stride * self.stride, 0.0);
            self.played.resize(target * self.words, 0);
        }
        // The rows of a live slab may have holes: reserve past them.
        let rows = target + self.rows_used - self.arity.len();
        if self.rows_used == 0 {
            self.probs = vec![0.0; rows * self.stride];
            self.freq = vec![0.0; rows * self.stride];
            if let Some(best) = &mut self.best {
                *best = vec![0.0; rows * 2 * self.stride];
            }
        } else {
            self.probs.resize(rows * self.stride, 0.0);
            self.freq.resize(rows * self.stride, 0.0);
            if let Some(best) = &mut self.best {
                best.resize(rows * 2 * self.stride, 0.0);
            }
        }
        self.arity.reserve(target - self.arity.len());
        self.stage.reserve(target - self.stage.len());
        self.pending.reserve(target - self.pending.len());
        self.scale.reserve(target - self.scale.len());
        self.block.reserve(target - self.block.len());
        self.row.reserve(target - self.row.len());
    }

    /// The fixed per-slot stride (maximum hostable arity).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total slots, including free-listed ones.
    pub fn num_slots(&self) -> usize {
        self.arity.len()
    }

    /// Slots currently on the free list.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Cumulative count of [`alloc`](Self::alloc) calls served from a
    /// departed learner's T block — a released slot's (free-list mode)
    /// or a compacted-away slot's (slot-aligned mode) — so no fresh
    /// arena was touched.
    pub fn free_list_reuses(&self) -> u64 {
        self.reuses
    }

    /// Allocates a slot initialised to the uniform fresh-learner state
    /// (`T = 0`, `p = f = 1/m`, stage 0, nothing pending). Reuses the
    /// most recently released slot if one exists; otherwise appends a
    /// slot, giving it the most recently freed block before any fresh
    /// arena — so the arena's high-water mark is the peak population.
    ///
    /// # Panics
    ///
    /// Panics if `num_actions` is zero or exceeds the stride.
    pub fn alloc(&mut self, num_actions: usize) -> u32 {
        assert!(num_actions > 0, "slab slot needs at least one action");
        assert!(num_actions <= self.stride, "action count {num_actions} exceeds slab stride");
        let slot = match self.free.pop() {
            Some(s) => {
                self.reuses += 1;
                s as usize
            }
            None => {
                let s = self.arity.len();
                let block = match self.free_blocks.pop() {
                    Some(b) => {
                        self.reuses += 1;
                        self.blocks_permuted |= b as usize != s;
                        b
                    }
                    None => {
                        // Every block handed out so far belongs to one
                        // of the `s` slots, so block `s` is the first
                        // untouched one. Grow the backing columns only
                        // past the pre-zeroed region
                        // ([`with_capacity`]/[`reserve`]); inside it the
                        // storage already exists, untouched and zero.
                        if (s + 1) * self.stride * self.stride > self.t.len() {
                            self.t.resize((s + 1) * self.stride * self.stride, 0.0);
                            self.played.resize((s + 1) * self.words, 0);
                        }
                        s as u32
                    }
                };
                // A new slot comes last in slot order, so it takes the
                // row past every handed-out one.
                let row = self.rows_used;
                self.rows_used += 1;
                if self.rows_used * self.stride > self.probs.len() {
                    self.probs.resize(self.rows_used * self.stride, 0.0);
                    self.freq.resize(self.rows_used * self.stride, 0.0);
                    if let Some(best) = &mut self.best {
                        best.resize(self.rows_used * 2 * self.stride, 0.0);
                    }
                }
                self.arity.push(0);
                self.stage.push(0);
                self.pending.push(NO_PENDING);
                self.scale.push(1.0);
                self.block.push(block);
                self.row.push(row as u32);
                s
            }
        };
        // A freed block's T columns and bitmask were wiped when its slot
        // departed or was released, and a fresh block is zero, so they
        // need no work; only the uniform prefix, the lazy scale and the
        // estimate row (a departed learner's may linger in its rows) do.
        self.arity[slot] = num_actions as u32;
        self.stage[slot] = 0;
        self.pending[slot] = NO_PENDING;
        self.scale[slot] = 1.0;
        self.restart_rows(slot, num_actions);
        slot as u32
    }

    /// Writes `slot`'s fresh-learner rows: `p = f = 1/m` on their first
    /// `num_actions` entries, a zero estimate row.
    fn restart_rows(&mut self, slot: usize, num_actions: usize) {
        let base = self.row[slot] as usize * self.stride;
        let p = 1.0 / num_actions as f64;
        self.probs[base..base + num_actions].fill(p);
        self.freq[base..base + num_actions].fill(p);
        if let Some(best) = &mut self.best {
            best[2 * base..2 * (base + self.stride)].fill(0.0);
        }
    }

    /// Returns a slot to the free list, restoring the all-zero T /
    /// cleared-bitmask invariant `alloc` relies on. The slot keeps its
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or already free.
    pub fn release(&mut self, slot: u32) {
        let s = slot as usize;
        assert!(s < self.arity.len(), "slot out of range");
        assert!(self.arity[s] != 0, "slot released twice");
        self.wipe_t(s);
        self.arity[s] = 0;
        self.stage[s] = 0;
        self.pending[s] = NO_PENDING;
        self.free.push(slot);
    }

    /// Allocates a new slot carrying an exact copy of `src`'s state,
    /// copying played T columns only (`O(played · stride)`, not
    /// `O(stride²)`).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or free.
    pub fn clone_slot(&mut self, src: u32) -> u32 {
        let src = src as usize;
        assert!(src < self.arity.len(), "slot out of range");
        let m = self.arity[src] as usize;
        assert!(m > 0, "cannot clone a freed slot");
        let dst = self.alloc(m) as usize;
        let (stride, words) = (self.stride, self.words);
        let (from, to) = (self.block[src] as usize, self.block[dst] as usize);
        self.played.copy_within(from * words..(from + 1) * words, to * words);
        let area = stride * stride;
        for_each_column(&self.played[to * words..(to + 1) * words], stride, |_, c| {
            self.t.copy_within(from * area + c..from * area + c + stride, to * area + c);
        });
        let (from, to) = (self.row[src] as usize, self.row[dst] as usize);
        self.probs.copy_within(from * stride..(from + 1) * stride, to * stride);
        self.freq.copy_within(from * stride..(from + 1) * stride, to * stride);
        if let Some(best) = &mut self.best {
            best.copy_within(2 * from * stride..2 * (from + 1) * stride, 2 * to * stride);
        }
        self.stage[dst] = self.stage[src];
        self.pending[dst] = self.pending[src];
        self.scale[dst] = self.scale[src];
        dst as u32
    }

    /// Removes the given slots with an **order-preserving compaction**
    /// of the per-slot scalars, mirroring `PeerStore::remove_slots` so
    /// slab slots stay aligned with store slots. Each survivor carries
    /// its two handles down with it, so no row of it moves: each departed
    /// slot's block is wiped (played columns and bitmask) and pushed on
    /// the block free list for [`alloc`](Self::alloc) to reuse, and its
    /// rows are left as holes. Once the holes outnumber a sixteenth of
    /// the survivors, one ascending pass closes them (the module docs).
    /// Returns the bytes copied — six scalars per relocated slot, and the
    /// rows such a pass moved — and the T columns the wipes zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is not strictly increasing, any slot is out of
    /// range, or the slab has free-listed slots (compaction and the slot
    /// free list are the two mutually exclusive usage modes).
    pub fn remove_slots(&mut self, sorted: &[u32]) -> (usize, u64) {
        if sorted.is_empty() {
            return (0, 0);
        }
        assert!(self.free.is_empty(), "cannot compact a slab with free-listed slots");
        assert!(sorted.windows(2).all(|w| w[0] < w[1]), "slots must be sorted and unique");
        let n = self.arity.len();
        assert!((sorted[sorted.len() - 1] as usize) < n, "slot out of range");
        let mut wiped = 0;
        for &slot in sorted {
            wiped += self.wipe_t(slot as usize);
            self.free_blocks.push(self.block[slot as usize]);
        }
        compact_column(&mut self.arity, sorted);
        compact_column(&mut self.stage, sorted);
        compact_column(&mut self.pending, sorted);
        compact_column(&mut self.scale, sorted);
        compact_column(&mut self.block, sorted);
        compact_column(&mut self.row, sorted);
        let kept = self.arity.len();
        // Everything from the first departure on was relocated.
        self.blocks_permuted |= kept > sorted[0] as usize;
        let mut moved = (kept - sorted[0] as usize) * SLOT_SCALAR_BYTES;
        let stride = self.stride;
        let Self { probs, freq, best, row, rows_used, .. } = self;
        let closed = close_row_holes(row, *rows_used, |from, to| {
            probs.copy_within(from * stride..(from + 1) * stride, to * stride);
            freq.copy_within(from * stride..(from + 1) * stride, to * stride);
            if let Some(best) = best {
                best.copy_within(2 * from * stride..2 * (from + 1) * stride, 2 * to * stride);
            }
        });
        if let Some(rows) = closed {
            *rows_used = kept;
            let widths = if best.is_some() { 4 } else { 2 };
            moved += rows * widths * stride * size_of::<f64>();
        }
        (moved, wiped)
    }

    /// Reinitialises a slot for a new action count (channel switch) —
    /// same semantics (and panics) as `RthsState::reset_actions`. The
    /// slot keeps its block, wiped in place.
    pub fn reset_actions(&mut self, slot: usize, num_actions: usize) {
        assert!(
            self.pending[slot] == NO_PENDING,
            "cannot reset actions with an observation pending"
        );
        assert!(num_actions > 0, "reset_actions requires at least one action");
        assert!(num_actions <= self.stride, "action count {num_actions} exceeds slab stride");
        self.wipe_t(slot);
        self.arity[slot] = num_actions as u32;
        self.stage[slot] = 0;
        self.scale[slot] = 1.0;
        self.restart_rows(slot, num_actions);
    }

    /// Starts maintaining every slot's row maxima and diagonal (see the
    /// module docs), so that [`max_regret`](Self::max_regret) and
    /// [`SlabCols::max_regret`] read two `O(m)` rows instead of scanning
    /// the played columns. The rows are built once, by that scan and a
    /// diagonal gather; from then on every operation that writes `S`
    /// keeps them exact. Idempotent and free when already on. There is no
    /// way back: a slab somebody asks for estimates keeps being asked.
    pub fn track_estimates(&mut self) {
        if self.best.is_some() {
            return;
        }
        let stride = self.stride;
        let mut best = vec![0.0; 2 * self.probs.len()];
        for slot in 0..self.arity.len() {
            // A free-listed slot has arity 0: an empty row, nothing built.
            let m = self.arity[slot] as usize;
            let (t, played) = (&self.t[self.block_range(slot)], self.played_row(slot));
            let r = self.row[slot] as usize;
            let (maxima, diag) = best[2 * r * stride..].split_at_mut(stride);
            rebuild_row_maxima(t, played, stride, &mut maxima[..m]);
            gather_diagonal(t, played, stride, &mut diag[..m]);
        }
        self.best = Some(best);
    }

    /// Where slot `slot`'s T block lies in the arena.
    fn block_range(&self, slot: usize) -> std::ops::Range<usize> {
        let area = self.stride * self.stride;
        let start = self.block[slot] as usize * area;
        start..start + area
    }

    /// The slot's played-column bitmask.
    fn played_row(&self, slot: usize) -> &[u64] {
        let b = self.block[slot] as usize;
        &self.played[b * self.words..(b + 1) * self.words]
    }

    /// Zeroes the played columns of the slot's T block and clears its
    /// bitmask; returns the number of columns zeroed.
    fn wipe_t(&mut self, slot: usize) -> u64 {
        let (b, words, block) = (self.block[slot] as usize, self.words, self.block_range(slot));
        wipe_columns(
            &mut self.t[block],
            &mut self.played[b * words..(b + 1) * words],
            self.stride,
        )
    }

    /// Borrows one slot as a single-slot [`SlabCols`] chunk (the slot is
    /// index 0 of it), through its block handle — `O(1)` whatever the
    /// slab's size, so per-slot callers share the sharded phases' update
    /// without gathering anything.
    fn slot_cols(&mut self, slot: usize) -> SlabCols<'_> {
        let (b, r) = (self.block[slot] as usize, self.row[slot] as usize);
        let (stride, words) = (self.stride, self.words);
        SlabCols {
            stride,
            t: one_row(&mut self.t, stride * stride, b),
            freq: one_row(&mut self.freq, stride, r),
            played: one_row(&mut self.played, words, b),
            stage: &mut self.stage[slot..=slot],
            scale: &mut self.scale[slot..=slot],
            best: self.best.as_mut().map(|best| one_row(best, 2 * stride, r)),
            strategy: StrategyCols {
                probs: one_row(&mut self.probs, stride, r),
                arity: &mut self.arity[slot..=slot],
                pending: &mut self.pending[slot..=slot],
            },
        }
    }

    /// The slot's action count.
    pub fn num_actions(&self, slot: usize) -> usize {
        self.arity[slot] as usize
    }

    /// The slot's current mixed strategy.
    pub fn probabilities(&self, slot: usize) -> &[f64] {
        let base = self.row[slot] as usize * self.stride;
        &self.probs[base..base + self.arity[slot] as usize]
    }

    /// The slot's recency-weighted play frequencies. Only a conditional
    /// learner keeps them: its observe updates them because conditional
    /// normalisation reads them; any other learner's stay at the uniform
    /// `1/m` that `alloc` and `reset_actions` wrote.
    #[cfg(test)]
    pub fn play_frequencies(&self, slot: usize) -> &[f64] {
        let base = self.row[slot] as usize * self.stride;
        &self.freq[base..base + self.arity[slot] as usize]
    }

    /// Stages the slot has observed.
    pub fn stage(&self, slot: usize) -> u64 {
        self.stage[slot]
    }

    /// The slot's action awaiting observation, if any.
    pub fn pending_action(&self, slot: usize) -> Option<usize> {
        let p = self.pending[slot];
        (p != NO_PENDING).then_some(p as usize)
    }

    /// Stored entry `S(j, k)` of a slot: `+0.0` in a never-played column.
    fn stored_entry(&self, slot: usize, j: usize, k: usize) -> f64 {
        let played = self.played_row(slot);
        if played[k / 64] >> (k % 64) & 1 == 0 {
            return 0.0;
        }
        self.t[self.block_range(slot).start + column_start(played, self.stride, k) + j]
    }

    /// Proxy-matrix entry `T(j, k)` of a slot (tests/diagnostics).
    pub fn proxy(&self, slot: usize, j: usize, k: usize) -> f64 {
        let m = self.arity[slot] as usize;
        assert!(j < m && k < m, "proxy index out of range");
        self.scale[slot] * self.stored_entry(slot, j, k)
    }

    /// Regret `Qⁿ(j, k)` of a slot (Eq. 3-6; tests/diagnostics) — the
    /// expression of `RthsState::regret`.
    pub fn regret(&self, slot: usize, config: &RthsConfig, j: usize, k: usize) -> f64 {
        if j == k {
            return 0.0;
        }
        let m = self.arity[slot] as usize;
        assert!(j < m && k < m, "regret index out of range");
        let factor = factor_for(config, self.stage[slot]) * self.scale[slot];
        (factor * (self.stored_entry(slot, j, k) - self.stored_entry(slot, j, j))).max(0.0)
    }

    /// Borrows every column as a [`SlabCols`] bundle for a sharded
    /// parallel phase. `O(slots)`: the handles are read to find each
    /// slot's block, so that a shard can be given the rows of its slot
    /// range wherever they lie in the arenas ([`Rows::by_handle`]: the
    /// arena prefixes themselves while every handle still equals its
    /// slot). Per-slot callers use the methods on the slab itself, which
    /// look up one handle.
    ///
    /// # Panics
    ///
    /// Splitting the bundle between shards panics if two slots share a
    /// block or a row (a broken slab invariant).
    pub fn split(&mut self) -> SlabCols<'_> {
        // Only the handed-out blocks and rows are viewed — the arenas may
        // carry extra pre-zeroed backing beyond them.
        let (stride, words, area) = (self.stride, self.words, self.stride * self.stride);
        let (blocks, rows) = (self.block.len() + self.free_blocks.len(), self.rows_used);
        let (block, row) = (&self.block, &self.row);
        let (by_block, by_row) = (!self.blocks_permuted, increasing_aligned(row));
        SlabCols {
            stride,
            t: Rows::by_handle(area, &mut self.t[..blocks * area], block, by_block),
            freq: Rows::by_handle(stride, &mut self.freq[..rows * stride], row, by_row),
            played: Rows::by_handle(words, &mut self.played[..blocks * words], block, by_block),
            stage: &mut self.stage,
            scale: &mut self.scale,
            best: self.best.as_mut().map(|best| {
                Rows::by_handle(2 * stride, &mut best[..2 * rows * stride], row, by_row)
            }),
            strategy: StrategyCols {
                probs: Rows::by_handle(stride, &mut self.probs[..rows * stride], row, by_row),
                arity: &mut self.arity,
                pending: &mut self.pending,
            },
        }
    }

    /// Borrows only the columns sampling an action touches, for a
    /// sharded phase that selects but never updates: no T views are
    /// formed.
    pub fn split_strategy(&mut self) -> StrategyCols<'_> {
        let (stride, rows) = (self.stride, self.rows_used);
        StrategyCols {
            probs: Rows::by_handle(
                stride,
                &mut self.probs[..rows * stride],
                &self.row,
                increasing_aligned(&self.row),
            ),
            arity: &mut self.arity,
            pending: &mut self.pending,
        }
    }

    /// Samples an action for a slot (see `RthsState::select_action`).
    ///
    /// # Panics
    ///
    /// Panics if an observation is already pending.
    pub fn select_action<R: RngCore + ?Sized>(&mut self, slot: usize, rng: &mut R) -> usize {
        self.slot_cols(slot).select_action(0, rng)
    }

    /// Feeds a slot's pending utility through the full update (see
    /// `RthsState::observe`). Returns whether it opened a packed column
    /// (see [`SlabCols::observe`]). `_row_scratch` is unused, as in
    /// [`SlabCols::observe`].
    ///
    /// # Panics
    ///
    /// Panics if no action is pending or `utility` is not finite.
    pub fn observe(
        &mut self,
        slot: usize,
        config: &RthsConfig,
        utility: f64,
        _row_scratch: &mut Vec<f64>,
    ) -> bool {
        self.slot_cols(slot).observe_inner(0, config, utility, false)
    }

    /// Largest derived regret of a slot, read from the maintained row
    /// maxima and diagonal — which this first request turns on
    /// ([`track_estimates`](Self::track_estimates)).
    pub fn max_regret(&mut self, slot: usize, config: &RthsConfig) -> f64 {
        self.track_estimates();
        self.slot_cols(slot).max_regret(0, config, &mut Vec::new())
    }
}

/// The columns sampling an action reads and writes — a slot's strategy,
/// arity and pending action — borrowed as a splittable bundle
/// ([`LearnerSlab::split_strategy`]). Slot indices are **relative to the
/// chunk**, like `Strided::row`.
#[derive(Debug)]
pub struct StrategyCols<'a> {
    probs: Rows<'a, f64>,
    arity: &'a mut [u32],
    pending: &'a mut [u32],
}

impl ShardCols for StrategyCols<'_> {
    fn shard_split(self, mid: usize) -> (Self, Self) {
        let (p0, p1) = self.probs.shard_split(mid);
        let (a0, a1) = self.arity.split_at_mut(mid);
        let (g0, g1) = self.pending.split_at_mut(mid);
        (
            StrategyCols { probs: p0, arity: a0, pending: g0 },
            StrategyCols { probs: p1, arity: a1, pending: g1 },
        )
    }
}

impl StrategyCols<'_> {
    /// Slots in this chunk.
    pub fn len(&self) -> usize {
        self.arity.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.arity.is_empty()
    }

    /// Samples an action from slot `i`'s strategy, recording it pending —
    /// the action `RthsState::select_action` picks from the same draw: the
    /// first `k` whose prefix sum exceeds `u`, else `m − 1`. The loop has
    /// no exit: it counts the prefix sums at or below `u`, which is that
    /// `k` because the row holds no negative entry (module docs).
    ///
    /// # Panics
    ///
    /// Panics if an observation is already pending.
    pub fn select_action<R: RngCore + ?Sized>(&mut self, i: usize, rng: &mut R) -> usize {
        assert!(
            self.pending[i] == NO_PENDING,
            "select_action called with an observation pending"
        );
        let m = self.arity[i] as usize;
        let probs = &self.probs.row(i)[..m];
        let u: f64 = rand::Rng::gen(rng);
        let mut acc = 0.0;
        let mut below = 0;
        for &p in probs {
            acc += p;
            below += usize::from(acc <= u);
        }
        let chosen = below.min(m - 1);
        self.pending[i] = chosen as u32;
        chosen
    }

    /// Slot `i`'s current mixed strategy.
    pub fn probabilities(&mut self, i: usize) -> &[f64] {
        let m = self.arity[i] as usize;
        &self.probs.row(i)[..m]
    }
}

/// All of a [`LearnerSlab`]'s columns borrowed as a splittable bundle:
/// the [`ShardCols`] implementation hands each parallel shard a disjoint
/// contiguous slot range of **every** per-slot column and the T blocks
/// those slots own, so the store's phases can run slab-backed learners
/// with the same zero-sharing contract as the rest of the SoA columns.
/// Slot indices on the methods are **relative to the chunk**
/// (shard-local), like `Strided::row`.
#[derive(Debug)]
pub struct SlabCols<'a> {
    stride: usize,
    t: Rows<'a, f64>,
    freq: Rows<'a, f64>,
    played: Rows<'a, u64>,
    stage: &'a mut [u64],
    scale: &'a mut [f64],
    /// The maintained estimate rows (row maxima, then diagonal), when the
    /// slab keeps them.
    best: Option<Rows<'a, f64>>,
    strategy: StrategyCols<'a>,
}

impl ShardCols for SlabCols<'_> {
    fn shard_split(self, mid: usize) -> (Self, Self) {
        let (t0, t1) = self.t.shard_split(mid);
        let (f0, f1) = self.freq.shard_split(mid);
        let (w0, w1) = self.played.shard_split(mid);
        let (s0, s1) = self.stage.split_at_mut(mid);
        let (c0, c1) = self.scale.split_at_mut(mid);
        let (b0, b1) = self.best.map(|best| best.shard_split(mid)).unzip();
        let (y0, y1) = self.strategy.shard_split(mid);
        (
            SlabCols {
                stride: self.stride,
                t: t0,
                freq: f0,
                played: w0,
                stage: s0,
                scale: c0,
                best: b0,
                strategy: y0,
            },
            SlabCols {
                stride: self.stride,
                t: t1,
                freq: f1,
                played: w1,
                stage: s1,
                scale: c1,
                best: b1,
                strategy: y1,
            },
        )
    }
}

impl SlabCols<'_> {
    /// Slots in this chunk.
    pub fn len(&self) -> usize {
        self.strategy.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.strategy.is_empty()
    }

    /// Decays every slot by `keep` once: `scale *= keep` per slot, no T
    /// column read or written unless a slot's `scale` crossed its
    /// renormalisation threshold. Valid as a hoisted batch before a round
    /// of [`observe_predecayed`](Self::observe_predecayed) calls exactly
    /// when each slot observes exactly once in the round: the decay
    /// commutes bitwise with every other slot's update (disjoint state)
    /// and with this slot's own select (which reads only `probs`), so
    /// hoisting it to the top of the round leaves each slot's
    /// decay→rank-1 order intact.
    ///
    /// Returns the number of T columns renormalised (or wiped, at
    /// `keep = 0`) — the per-shard `slab_columns_touched` observability
    /// counter; zero on all but one round in `256·ln 2 / ε`. The count is
    /// derived state, never an input: ignoring it changes nothing.
    pub fn decay(&mut self, keep: f64) -> u64 {
        let mut touched = 0u64;
        for i in 0..self.scale.len() {
            let step = lazy::decay(&mut self.scale[i], keep);
            if step != Decay::Keep {
                let best = self.best.as_mut().map(|best| best.row(i));
                touched +=
                    apply_decay(step, self.t.row(i), self.played.row(i), self.stride, best);
            }
        }
        touched
    }

    /// Samples an action from slot `i`'s strategy, recording it pending —
    /// float-identical to `RthsState::select_action`.
    ///
    /// # Panics
    ///
    /// Panics if an observation is already pending.
    pub fn select_action<R: RngCore + ?Sized>(&mut self, i: usize, rng: &mut R) -> usize {
        self.strategy.select_action(i, rng)
    }

    /// The load pass (module docs) for the slots of `slots` that have an
    /// action pending: call it on a block of up to [`OBSERVE_BATCH`] slots
    /// right before observing them in turn. Changes nothing, so calling it
    /// or not is invisible to every float; at a stride whose blocks the
    /// hardware already streams it does nothing.
    pub fn touch(&mut self, slots: std::ops::Range<usize>) {
        if self.stride <= DENSE_GATHER_MAX_STRIDE {
            return;
        }
        let mut fold = 0;
        for i in slots {
            let j = self.strategy.pending[i];
            if j != NO_PENDING {
                let m = self.strategy.arity[i] as usize;
                fold ^= touch(self.t.row(i), self.played.row(i), self.stride, m, j as usize);
            }
        }
        std::hint::black_box(fold);
    }

    /// Full observe for slot `i` — the slab counterpart of
    /// `RthsState::observe`, bit-for-bit: the rank-1 update, then the
    /// played row of Eq. (3-6) and the next strategy in one pass over the
    /// played columns (module docs). The play frequencies are updated only
    /// for a conditional learner, the one reader of them.
    ///
    /// Returns whether it opened a packed column: the first play of an
    /// action in a slab whose blocks are packed (module docs), which
    /// shifts the slot's later columns up one — the per-shard
    /// `slab_columns_opened` observability counter. The flag is derived
    /// state, never an input: ignoring it changes nothing.
    ///
    /// `_row_scratch` is unused: the update needs no row buffer. The
    /// parameter stays until the benchmark's probes stop passing one.
    ///
    /// # Panics
    ///
    /// Panics if no action is pending or `utility` is not finite.
    pub fn observe(
        &mut self,
        i: usize,
        config: &RthsConfig,
        utility: f64,
        _row_scratch: &mut Vec<f64>,
    ) -> bool {
        self.observe_inner(i, config, utility, false)
    }

    /// Observe for a slot whose exponential decay was already applied by
    /// a batched [`decay`](Self::decay) this round; returns what
    /// [`observe`](Self::observe) does, and leaves `_row_scratch` unused
    /// as it does.
    pub fn observe_predecayed(
        &mut self,
        i: usize,
        config: &RthsConfig,
        utility: f64,
        _row_scratch: &mut Vec<f64>,
    ) -> bool {
        self.observe_inner(i, config, utility, true)
    }

    fn observe_inner(
        &mut self,
        i: usize,
        config: &RthsConfig,
        utility: f64,
        predecayed: bool,
    ) -> bool {
        assert!(utility.is_finite(), "utility must be finite, got {utility}");
        let StrategyCols { probs, arity, pending } = &mut self.strategy;
        assert!(pending[i] != NO_PENDING, "observe called without a pending action");
        let j = pending[i] as usize;
        pending[i] = NO_PENDING;
        self.stage[i] += 1;
        let stage = self.stage[i];
        let m = arity[i] as usize;
        debug_assert_eq!(m, config.num_actions(), "slot arity and config disagree");
        let stride = self.stride;
        let t = self.t.row(i);
        let probs = probs.row(i);
        let freq = self.freq.row(i);
        let played = self.played.row(i);
        let scale = &mut self.scale[i];

        // Eq. (3-5): T ← decay(T); column j += (u/pⁿ(j)) · pⁿ — with
        // T = scale · S the decay goes into `scale` and the rank-1
        // coefficient is divided by it.
        if !predecayed && config.recency() == RecencyMode::Exponential {
            let step = lazy::decay(scale, 1.0 - config.epsilon());
            if step != Decay::Keep {
                let best = self.best.as_mut().map(|best| best.row(i));
                apply_decay(step, t, played, stride, best);
            }
        }
        let p_j = probs[j];
        debug_assert!(p_j > 0.0, "played action had zero probability");
        let coef = utility / p_j / *scale;
        let (cj, opened) = open_column(t, played, stride, j);
        kernels::axpy(&mut t[cj..cj + m], coef, &probs[..m]);
        if let Some(best) = &mut self.best {
            let (best, diag) = best.row(i).split_at_mut(stride);
            if coef >= 0.0 {
                // `coef ≥ 0` lowers no entry of column j (probabilities
                // are positive), so each row's maximum is its old one or
                // the new entry.
                kernels::max_assign(&mut best[..m], &t[cj..cj + m]);
            } else {
                rebuild_row_maxima(t, played, stride, &mut best[..m]);
            }
            // The one diagonal entry the update wrote.
            diag[j] = t[cj + j];
        }

        // Play-frequency average (same weighting scheme as T). Only
        // conditional normalisation reads it, so only a conditional
        // learner keeps it.
        if config.conditional() {
            match config.recency() {
                RecencyMode::Exponential => {
                    let eps = config.epsilon();
                    for (a, f) in freq[..m].iter_mut().enumerate() {
                        *f = (1.0 - eps) * *f + if a == j { eps } else { 0.0 };
                    }
                }
                RecencyMode::PaperLiteral | RecencyMode::Uniform => {
                    let n = stage as f64;
                    for (a, f) in freq[..m].iter_mut().enumerate() {
                        let count = *f * (n - 1.0) + if a == j { 1.0 } else { 0.0 };
                        *f = count / n;
                    }
                }
            }
        }

        // Eq. (3-6) for the played row, fused with the expressions of
        // `policy::update_probabilities` (module docs): each `p(k)` is
        // computed where the gather reads `S(j, k)`, one `p` for all the
        // never-played columns, unless a column is a single cache line.
        let (delta, mu) = (config.delta(), config.mu());
        let factor = factor_for(config, stage) * *scale;
        let s_jj = t[cj + j];
        let cap = 1.0 / (m as f64 - 1.0);
        let floor = policy::exploration_floor(m, delta);
        let f_j = config.conditional().then(|| freq[j].max(floor));
        let prob = |s_jk: f64| {
            let mut q = (factor * (s_jk - s_jj)).max(0.0);
            if let Some(f_j) = f_j {
                q /= f_j;
            }
            (1.0 - delta) * (q.max(0.0) / mu).min(cap) + floor
        };
        let probs = &mut probs[..m];
        if stride <= DENSE_GATHER_MAX_STRIDE {
            for (k, p) in probs.iter_mut().enumerate() {
                *p = prob(t[k * stride + j]);
            }
        } else {
            probs.fill(prob(0.0));
            for_each_column(played, stride, |k, c| probs[k] = prob(t[c + j]));
        }
        // `p(j) = 1 − Σ_{k≠j} p(k)`, summed in ascending `k`; with one
        // action the sum is empty and `p(j) = 1`.
        let mut off_mass = 0.0;
        for (k, &p) in probs.iter().enumerate() {
            if k != j {
                off_mass += p;
            }
        }
        probs[j] = 1.0 - off_mass;
        // The one entry the row invariant of `select_action` cannot take
        // from the clamps (module docs): one compare per observe.
        assert!(probs[j] >= 0.0, "played-action probability {} is below zero", probs[j]);
        opened
    }

    /// Largest derived regret of slot `i`. On a slab that [tracks
    /// estimates](LearnerSlab::track_estimates) this reads the slot's `m`
    /// row maxima and `m` diagonal entries and no T line; on any other it
    /// scans the played columns, gathering the diagonal into the
    /// caller-provided scratch so steady-state phases allocate nothing —
    /// same bits either way.
    pub fn max_regret(&mut self, i: usize, config: &RthsConfig, diag: &mut Vec<f64>) -> f64 {
        let m = self.strategy.arity[i] as usize;
        let factor = factor_for(config, self.stage[i]) * self.scale[i];
        let Some(best) = &mut self.best else {
            let (t, played) = (self.t.row(i), self.played.row(i));
            return max_regret_in(t, played, self.stride, m, factor, diag);
        };
        let (best, diag) = best.row(i).split_at(self.stride);
        finite_regret(kernels::shifted_regret_max(&best[..m], &diag[..m], factor))
    }

    /// Slot `i`'s current mixed strategy.
    pub fn probabilities(&mut self, i: usize) -> &[f64] {
        self.strategy.probabilities(i)
    }
}

/// A shared, mutex-guarded slab handle for [`SlabLearner`]s that share
/// one slab ([`SlabLearner::new`]). The engines do not use it —
/// the simulator's store and the reactor's mailbox shards own their slabs
/// and reach them by `&mut` — but the benchmark's `net.machines.peer_*`
/// probes build their learners on one, and keep it until they are
/// pointed at the store.
pub type SharedSlab = Arc<Mutex<LearnerSlab>>;

/// The recursive regret-tracking learner (paper Algorithm 2; regret
/// *matching* under [`RecencyMode::Uniform`]) behind the [`Learner`]
/// trait: one slab slot, for owners that hold one learner by value —
/// `rths_sim`'s `AnyLearner`, one-off peers, the oracle tests.
/// [`standalone`](Self::standalone) gives a learner a slab to itself;
/// [`new`](Self::new) puts several on one [`SharedSlab`]. A population the engines drive lives in a slab of its
/// own instead, behind `rths_sim`'s `PeerStore`.
///
/// The learner holds no state of its own beside its slot and config.
/// [`observe`](Learner::observe) runs the update at once.
/// [`probabilities`](Learner::probabilities) has to return a borrow
/// without holding the lock: it copies the strategy out on the first read
/// after an observe and serves that copy until the next one.
///
/// # Example
///
/// ```
/// use rths_core::{Learner, RthsConfig, SlabLearner};
/// use rand::SeedableRng;
///
/// let mut learner = SlabLearner::standalone(RthsConfig::builder(3).build()?);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let a = learner.select_action(&mut rng);
/// assert!(a < 3);
/// learner.observe(640.0);
/// assert_eq!(learner.stage(), 1);
/// # Ok::<(), rths_core::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct SlabLearner {
    slab: SharedSlab,
    slot: u32,
    config: RthsConfig,
    /// The strategy as of the last update, once somebody has asked (a
    /// boxed slice: one word less than a `Vec` in every peer).
    strategy: OnceCell<Box<[f64]>>,
}

impl SlabLearner {
    /// Allocates a fresh uniform slot in `slab` for `config`'s action
    /// count.
    pub fn new(slab: SharedSlab, config: RthsConfig) -> Self {
        let slot =
            slab.lock().expect("learner slab mutex poisoned").alloc(config.num_actions());
        Self { slab, slot, config, strategy: OnceCell::new() }
    }

    /// A fresh learner on a one-slot slab of its own, for owners with no
    /// shard to share: a learner per OS thread (a shared mutex would
    /// serialise them) or one of a kind.
    pub fn standalone(config: RthsConfig) -> Self {
        let slab = LearnerSlab::with_capacity(config.num_actions(), 1);
        Self::new(Arc::new(Mutex::new(slab)), config)
    }

    /// The slab slot this learner owns.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The learner's configuration.
    pub fn config(&self) -> &RthsConfig {
        &self.config
    }

    /// Regret `Qⁿ(j, k)` for not having played `k` instead of `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn regret(&self, j: usize, k: usize) -> f64 {
        self.lock().regret(self.slot as usize, &self.config, j, k)
    }

    fn lock(&self) -> MutexGuard<'_, LearnerSlab> {
        self.slab.lock().expect("learner slab mutex poisoned")
    }
}

impl Clone for SlabLearner {
    fn clone(&self) -> Self {
        let slot = self.lock().clone_slot(self.slot);
        Self {
            slab: Arc::clone(&self.slab),
            slot,
            config: self.config.clone(),
            strategy: OnceCell::new(),
        }
    }
}

impl Drop for SlabLearner {
    fn drop(&mut self) {
        // Return the slot for reuse; skip quietly if another owner
        // panicked with the lock held (the slab dies with the runtime).
        if let Ok(mut slab) = self.slab.lock() {
            slab.release(self.slot);
        }
    }
}

impl Learner for SlabLearner {
    fn num_actions(&self) -> usize {
        self.config.num_actions()
    }

    fn probabilities(&self) -> &[f64] {
        self.strategy.get_or_init(|| self.lock().probabilities(self.slot as usize).into())
    }

    fn select_action(&mut self, rng: &mut dyn RngCore) -> usize {
        self.lock().select_action(self.slot as usize, rng)
    }

    fn observe(&mut self, utility: f64) {
        self.lock().observe(self.slot as usize, &self.config, utility, &mut Vec::new());
        self.strategy.take();
    }

    fn max_regret(&self) -> f64 {
        self.lock().max_regret(self.slot as usize, &self.config)
    }

    fn stage(&self) -> u64 {
        self.lock().stage(self.slot as usize)
    }

    fn pending_action(&self) -> Option<usize> {
        self.lock().pending_action(self.slot as usize)
    }

    fn reset_actions(&mut self, num_actions: usize) {
        self.config = self
            .config
            .with_num_actions(num_actions)
            .expect("reset_actions requires at least one action");
        self.strategy.take();
        let mut slab = self.slab.lock().expect("learner slab mutex poisoned");
        if num_actions > slab.stride() {
            // Outgrowing the stride means a new arena. A slab this
            // learner has to itself is simply replaced; with neighbours,
            // their columns would have to move too — the slab is sized
            // once for the largest action set its shard hosts.
            assert!(
                slab.pending_action(self.slot as usize).is_none(),
                "cannot reset actions with an observation pending"
            );
            assert!(
                slab.num_slots() - slab.free_slots() == 1,
                "action count {num_actions} exceeds the shared slab's stride {}",
                slab.stride()
            );
            *slab = LearnerSlab::with_capacity(num_actions, 1);
            self.slot = slab.alloc(num_actions);
        } else {
            slab.reset_actions(self.slot as usize, num_actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::RthsState;
    use rand::SeedableRng;

    fn config(m: usize, recency: RecencyMode, conditional: bool) -> RthsConfig {
        config_eps(m, 0.05, recency, conditional)
    }

    fn config_eps(m: usize, eps: f64, recency: RecencyMode, conditional: bool) -> RthsConfig {
        RthsConfig::builder(m)
            .epsilon(eps)
            .delta(0.1)
            .mu(150.0)
            .recency(recency)
            .conditional(conditional)
            .build()
            .unwrap()
    }

    /// `keep = 1/2`: the lazy scale reaches 2⁻²⁵⁶ at stage 256 and is
    /// renormalised at stage 257, so a few hundred stages cover it.
    const FAST_EPS: f64 = 0.5;

    /// Asserts that `slot` ran long enough that its lazy scale has left 1
    /// and been renormalised at least once.
    fn assert_renormalised(slab: &LearnerSlab, slot: usize, cfg: &RthsConfig) {
        let unrenormalised = (1.0 - cfg.epsilon()).powi(slab.stage(slot) as i32);
        assert!(unrenormalised < lazy::RENORM_BELOW, "slot {slot} ran too few stages");
        let scale = slab.scale[slot];
        assert!(scale != 1.0 && scale >= lazy::RENORM_BELOW, "slot {slot} scale {scale}");
    }

    fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: entry {k} ({x} vs {y})");
        }
    }

    /// `|a − b| ≤ 1e-9 · max(|a|, |b|, 1)`: relative for the magnitudes
    /// the learner works at (probabilities ≥ δ/m, regrets in kbps) without
    /// blowing up on a regret that is clamped to zero on one side only.
    fn assert_close(a: f64, b: f64, what: &str) {
        let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
        assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
    }

    impl LearnerSlab {
        /// Test hook: renormalises `slot` now, whatever its `scale` —
        /// the production path only does so below the threshold.
        fn force_renormalise(&mut self, slot: usize) {
            let mut cols = self.slot_cols(slot);
            let best = cols.best.as_mut().map(|best| best.row(0));
            apply_decay(
                Decay::Renormalise,
                cols.t.row(0),
                cols.played.row(0),
                cols.stride,
                best,
            );
            self.scale[slot] *= lazy::RENORM_UP;
        }

        /// Test hook: the slot's estimate by the `O(played · m)` scan,
        /// whatever the slab maintains.
        fn scan_max_regret(&self, slot: usize, config: &RthsConfig) -> f64 {
            max_regret_in(
                &self.t[self.block_range(slot)],
                self.played_row(slot),
                self.stride,
                self.arity[slot] as usize,
                factor_for(config, self.stage[slot]) * self.scale[slot],
                &mut Vec::new(),
            )
        }

        /// Test hook: the slot's estimate from the maintained rows (turned
        /// on by this call if they were not), after checking that it is
        /// the scan's value, that the slot's row maxima are what a rebuild
        /// from nothing gives and that its diagonal is what a gather from T
        /// gives — all `to_bits`.
        fn checked_max_regret(&mut self, slot: usize, config: &RthsConfig) -> f64 {
            let kept = self.max_regret(slot, config);
            assert_eq!(
                kept.to_bits(),
                self.scan_max_regret(slot, config).to_bits(),
                "slot {slot}: maintained estimate left the scan's"
            );
            let (stride, m) = (self.stride, self.arity[slot] as usize);
            let mut rebuilt = vec![0.0; m];
            rebuild_row_maxima(
                &self.t[self.block_range(slot)],
                self.played_row(slot),
                stride,
                &mut rebuilt,
            );
            let mut gathered = vec![0.0; m];
            gather_diagonal(
                &self.t[self.block_range(slot)],
                self.played_row(slot),
                stride,
                &mut gathered,
            );
            let best = self.best.as_ref().expect("max_regret turns the rows on");
            let r = self.row[slot] as usize;
            let row = &best[2 * r * stride..2 * (r + 1) * stride];
            assert_bitwise(&row[..m], &rebuilt, "row maxima");
            assert_bitwise(&row[stride..stride + m], &gathered, "diagonal");
            kept
        }

        /// Slot `slot`'s stored `S` entries (all `stride²` of them).
        fn stored(&self, slot: usize) -> &[f64] {
            &self.t[self.block_range(slot)]
        }
    }

    /// Drives slab slots `0..mirrors.len()` and their scalar mirrors
    /// through `stages` select/observe rounds (one RNG stream per peer,
    /// replayed for the mirror), asserting both sample the same actions
    /// and, after every stage, derive the same estimate — by the scan, and
    /// from the maintained rows once the slab keeps them.
    fn drive_with_mirrors(
        slab: &mut LearnerSlab,
        mirrors: &mut [RthsState],
        rngs: &mut [rand::rngs::StdRng],
        cfg: &RthsConfig,
        stages: u64,
    ) {
        let mut scratch = Vec::new();
        for s in 0..stages {
            for (i, mirror) in mirrors.iter_mut().enumerate() {
                let mut replay = rngs[i].clone();
                let a = slab.select_action(i, &mut rngs[i]);
                assert_eq!(a, mirror.select_action(&mut replay), "slot {i} stage {s}");
                let u = ((a + s as usize) % 9) as f64 * 7.0;
                slab.observe(i, cfg, u, &mut scratch);
                mirror.observe(cfg, u, &mut scratch);
                let want = mirror.max_regret(cfg).to_bits();
                assert_eq!(slab.scan_max_regret(i, cfg).to_bits(), want, "slot {i} stage {s}");
                if slab.best.is_some() {
                    assert_eq!(slab.checked_max_regret(i, cfg).to_bits(), want);
                }
            }
        }
    }

    /// Test-only reference: the `RecencyMode::Exponential` update with the
    /// decay applied **eagerly** to every entry of `T` each stage — the
    /// semantics the lazy `T = scale · S` form must reproduce up to
    /// rounding. Column-major `m × m`, no laziness, no masks.
    struct EagerRef {
        m: usize,
        t: Vec<f64>,
        probs: Vec<f64>,
        freq: Vec<f64>,
    }

    impl EagerRef {
        fn new(m: usize) -> Self {
            Self {
                m,
                t: vec![0.0; m * m],
                probs: vec![1.0 / m as f64; m],
                freq: vec![1.0 / m as f64; m],
            }
        }

        fn observe(&mut self, cfg: &RthsConfig, j: usize, utility: f64) {
            let (m, eps) = (self.m, cfg.epsilon());
            for x in &mut self.t {
                *x *= 1.0 - eps;
            }
            let coef = utility / self.probs[j];
            for r in 0..m {
                self.t[j * m + r] += coef * self.probs[r];
            }
            for (a, f) in self.freq.iter_mut().enumerate() {
                *f = (1.0 - eps) * *f + if a == j { eps } else { 0.0 };
            }
            let t_jj = self.t[j * m + j];
            let mut row: Vec<f64> = (0..m)
                .map(|k| if k == j { 0.0 } else { (eps * (self.t[k * m + j] - t_jj)).max(0.0) })
                .collect();
            if cfg.conditional() {
                let f_j = self.freq[j].max(policy::exploration_floor(m, cfg.delta()));
                for r in &mut row {
                    *r /= f_j;
                }
            }
            policy::update_probabilities(&mut self.probs, j, &row, cfg.delta(), cfg.mu());
        }

        fn max_regret(&self, cfg: &RthsConfig) -> f64 {
            let m = self.m;
            let mut max = 0.0f64;
            for j in 0..m {
                for k in (0..m).filter(|&k| k != j) {
                    max = max.max(cfg.epsilon() * (self.t[k * m + j] - self.t[j * m + j]));
                }
            }
            max
        }
    }

    /// The slab must replay the scalar oracle bit-for-bit in every
    /// averaging mode — with slots interleaved so the strided layout
    /// (not just slot 0) is exercised, and a stride wider than the
    /// arity so the slack region is proven inert.
    #[test]
    fn slab_matches_scalar_state_bitwise() {
        for recency in
            [RecencyMode::Exponential, RecencyMode::PaperLiteral, RecencyMode::Uniform]
        {
            for conditional in [false, true] {
                let cfg = config(4, recency, conditional);
                let mut slab = LearnerSlab::new(7);
                let slots: Vec<u32> = (0..3).map(|_| slab.alloc(4)).collect();
                let mut oracles: Vec<RthsState> =
                    (0..3).map(|_| RthsState::new(&cfg)).collect();
                let mut rngs_a: Vec<_> =
                    (0..3).map(|p| rand::rngs::StdRng::seed_from_u64(9 + p)).collect();
                let mut rngs_b: Vec<_> =
                    (0..3).map(|p| rand::rngs::StdRng::seed_from_u64(9 + p)).collect();
                let mut scratch = Vec::new();
                let mut oracle_scratch = Vec::new();
                for s in 0..200u64 {
                    for (p, &slot) in slots.iter().enumerate() {
                        let a = slab.select_action(slot as usize, &mut rngs_a[p]);
                        let b = oracles[p].select_action(&mut rngs_b[p]);
                        assert_eq!(a, b, "{recency:?} action diverged at stage {s}");
                        let u = ((a * 37 + (s as usize) * (p + 1)) % 11) as f64 * 13.0;
                        slab.observe(slot as usize, &cfg, u, &mut scratch);
                        oracles[p].observe(&cfg, u, &mut oracle_scratch);
                        for (k, (x, y)) in slab
                            .probabilities(slot as usize)
                            .iter()
                            .zip(oracles[p].probabilities())
                            .enumerate()
                        {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{recency:?}/cond={conditional} probs[{k}] diverged at \
                                 stage {s} slot {p}"
                            );
                        }
                        assert_eq!(
                            slab.checked_max_regret(slot as usize, &cfg).to_bits(),
                            oracles[p].max_regret(&cfg).to_bits(),
                            "{recency:?} max_regret diverged at stage {s} slot {p}"
                        );
                    }
                }
                for (j, k) in (0..4).flat_map(|j| (0..4).map(move |k| (j, k))) {
                    assert_eq!(
                        slab.regret(2, &cfg, j, k).to_bits(),
                        oracles[2].regret(&cfg, j, k).to_bits(),
                        "{recency:?}/cond={conditional} Q({j},{k})"
                    );
                }
            }
        }
    }

    /// Hoisting the exponential decay to one batched pass per round is
    /// bit-identical to the inline per-observe decay when every slot
    /// observes exactly once per round — the store's observe-phase
    /// pattern.
    #[test]
    fn batched_decay_matches_inline_decay_bitwise() {
        let cfg = config(5, RecencyMode::Exponential, false);
        let mut inline = LearnerSlab::new(5);
        let mut batched = LearnerSlab::new(5);
        for _ in 0..4 {
            inline.alloc(5);
            batched.alloc(5);
        }
        let mut rngs_a: Vec<_> =
            (0..4).map(|p| rand::rngs::StdRng::seed_from_u64(31 + p)).collect();
        let mut rngs_b: Vec<_> =
            (0..4).map(|p| rand::rngs::StdRng::seed_from_u64(31 + p)).collect();
        let mut scratch = Vec::new();
        let keep = 1.0 - cfg.epsilon();
        for round in 0..150u64 {
            let mut picks = Vec::new();
            for i in 0..4usize {
                let a = inline.select_action(i, &mut rngs_a[i]);
                let b = batched.select_action(i, &mut rngs_b[i]);
                assert_eq!(a, b);
                picks.push(a);
            }
            {
                let mut cols = batched.split();
                cols.decay(keep);
                for (i, &pick) in picks.iter().enumerate() {
                    let u = ((pick * 13 + round as usize) % 7) as f64 * 21.0;
                    cols.observe_predecayed(i, &cfg, u, &mut scratch);
                }
            }
            for (i, &pick) in picks.iter().enumerate() {
                let u = ((pick * 13 + round as usize) % 7) as f64 * 21.0;
                inline.observe(i, &cfg, u, &mut scratch);
                for (x, y) in inline.probabilities(i).iter().zip(batched.probabilities(i)) {
                    assert_eq!(x.to_bits(), y.to_bits(), "diverged at round {round} slot {i}");
                }
            }
        }
    }

    /// Free-list churn: releasing a slot and allocating again reuses it,
    /// and survivors replay their scalar mirrors bit-for-bit across the
    /// churn (the `departure_does_not_perturb_survivors` pinning style) —
    /// run long enough that every lazy scale has been renormalised, so a
    /// scale leaking from the freed slot into its reuse would show.
    #[test]
    fn release_reuses_slot_without_perturbing_survivors() {
        let cfg = config_eps(3, FAST_EPS, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(3);
        let slots: Vec<u32> = (0..4).map(|_| slab.alloc(3)).collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        let mut mirrors: Vec<RthsState> = (0..4).map(|_| RthsState::new(&cfg)).collect();
        let mut rngs: Vec<_> =
            (0..4).map(|p| rand::rngs::StdRng::seed_from_u64(100 + p)).collect();
        drive_with_mirrors(&mut slab, &mut mirrors, &mut rngs, &cfg, 300);
        for i in 0..4 {
            assert_renormalised(&slab, i, &cfg);
        }

        // The departing learner leaves row maxima behind; its slot's next
        // owner must not read them.
        slab.track_estimates();
        assert!(slab.checked_max_regret(2, &cfg) > 0.0);
        slab.release(2);
        assert_eq!(slab.free_slots(), 1);
        let reused = slab.alloc(3);
        assert_eq!(reused, 2, "freed slot must be reused");
        assert_eq!(slab.free_slots(), 0);
        // The reused slot is a fresh uniform learner.
        assert_eq!(slab.probabilities(2), &[1.0 / 3.0; 3]);
        assert_eq!(slab.stage(2), 0);
        assert_eq!(slab.scale[2], 1.0);
        assert_eq!(slab.checked_max_regret(2, &cfg).to_bits(), 0);
        mirrors[2] = RthsState::new(&cfg);
        rngs[2] = rand::rngs::StdRng::seed_from_u64(777);

        // Survivors and the reused slot all keep replaying their mirrors.
        drive_with_mirrors(&mut slab, &mut mirrors, &mut rngs, &cfg, 300);
        for (i, mirror) in mirrors.iter().enumerate() {
            assert_renormalised(&slab, i, &cfg);
            assert_bitwise(slab.probabilities(i), mirror.probabilities(), "after churn");
            assert_eq!(
                slab.checked_max_regret(i, &cfg).to_bits(),
                mirror.max_regret(&cfg).to_bits()
            );
        }
    }

    /// A batched decay runs over free-listed slots too; `alloc` must
    /// still hand the slot out with a fresh scale.
    #[test]
    fn batched_decay_does_not_leak_into_a_reused_slot() {
        let mut slab = LearnerSlab::new(2);
        let slot = slab.alloc(2);
        slab.release(slot);
        slab.split().decay(0.5);
        assert_eq!(slab.alloc(2), slot);
        assert_eq!(slab.scale[slot as usize], 1.0);
    }

    /// The same through the block free list: a slot compacted away while
    /// a batched decay runs hands its block — played columns wiped, mask
    /// cleared, `scale` back at 1 — to the next arrival.
    #[test]
    fn batched_decay_does_not_leak_into_a_reused_block() {
        let cfg = config_eps(3, FAST_EPS, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(3);
        for _ in 0..3 {
            slab.alloc(3);
        }
        let mut mirrors: Vec<RthsState> = (0..3).map(|_| RthsState::new(&cfg)).collect();
        let mut rngs: Vec<_> =
            (0..3).map(|p| rand::rngs::StdRng::seed_from_u64(60 + p)).collect();
        drive_with_mirrors(&mut slab, &mut mirrors, &mut rngs, &cfg, 40);
        assert!(slab.stored(1).iter().any(|&x| x != 0.0) && slab.scale[1] != 1.0);
        let departed = slab.block[1];
        slab.remove_slots(&[1]);
        slab.split().decay(0.5);
        let slot = slab.alloc(3) as usize;
        assert_eq!((slot, slab.block[slot]), (2, departed), "the departed block is reused");
        assert_eq!(slab.free_list_reuses(), 1);
        assert!(slab.stored(slot).iter().all(|&x| x.to_bits() == 0), "block not wiped");
        assert_eq!(slab.played_row(slot), [0]);
        assert_eq!(slab.scale[slot], 1.0);
    }

    /// Order-preserving compaction: survivors keep their exact state
    /// (lazy scale included — every slot has been renormalised by then)
    /// and continue bit-for-bit, mirroring the store's `remove_slots`;
    /// a slot allocated into the wiped tail is a fresh learner.
    #[test]
    fn remove_slots_compacts_without_perturbing_survivors() {
        let cfg = config_eps(4, FAST_EPS, RecencyMode::Exponential, true);
        let mut slab = LearnerSlab::new(4);
        for _ in 0..5 {
            slab.alloc(4);
        }
        let mut mirrors: Vec<RthsState> = (0..5).map(|_| RthsState::new(&cfg)).collect();
        let mut rngs: Vec<_> =
            (0..5).map(|p| rand::rngs::StdRng::seed_from_u64(500 + p)).collect();
        drive_with_mirrors(&mut slab, &mut mirrors, &mut rngs, &cfg, 300);
        for i in 0..5 {
            assert_renormalised(&slab, i, &cfg);
        }
        slab.track_estimates();
        slab.remove_slots(&[1, 3]);
        assert_eq!(slab.num_slots(), 3);
        // Survivors 0, 2, 4 now sit in slots 0, 1, 2.
        mirrors.remove(3);
        mirrors.remove(1);
        rngs.remove(3);
        rngs.remove(1);
        for (slot, mirror) in mirrors.iter().enumerate() {
            assert_bitwise(slab.probabilities(slot), mirror.probabilities(), "compacted");
            assert_eq!(slab.stage(slot), mirror.stage());
            assert_eq!(
                slab.checked_max_regret(slot, &cfg).to_bits(),
                mirror.max_regret(&cfg).to_bits()
            );
        }
        // The wiped tail hands out a fresh learner (scale back at 1).
        assert_eq!(slab.alloc(4), 3);
        assert_eq!(slab.scale[3], 1.0);
        mirrors.push(RthsState::new(&cfg));
        rngs.push(rand::rngs::StdRng::seed_from_u64(777));
        drive_with_mirrors(&mut slab, &mut mirrors, &mut rngs, &cfg, 300);
        for (slot, mirror) in mirrors.iter().enumerate() {
            assert_bitwise(slab.probabilities(slot), mirror.probabilities(), "continued");
            assert_eq!(
                slab.checked_max_regret(slot, &cfg).to_bits(),
                mirror.max_regret(&cfg).to_bits()
            );
        }
    }

    impl LearnerSlab {
        /// Test hook: every handed-out block is owned by exactly one slot
        /// or free — no two live slots share one.
        fn assert_blocks_disjoint(&self) {
            let mut seen: Vec<u32> =
                self.block.iter().chain(&self.free_blocks).copied().collect();
            seen.sort_unstable();
            let handed_out = self.block.len() + self.free_blocks.len();
            assert_eq!(
                seen,
                (0..handed_out as u32).collect::<Vec<_>>(),
                "blocks shared or lost"
            );
            assert!(handed_out * self.stride * self.stride <= self.t.len());
            // Row handles: strictly increasing, inside the handed-out rows,
            // with no more holes than a pass would have closed.
            assert!(self.row.windows(2).all(|w| w[0] < w[1]), "row handles out of order");
            let n = self.row.len();
            assert!(self.row.last().is_none_or(|&r| (r as usize) < self.rows_used));
            assert!(self.rows_used - n <= n / 16 + 1, "{} holes left open", self.rows_used - n);
            assert!(self.rows_used * self.stride <= self.probs.len());
        }
    }

    /// One peer of the churn tests below: its scalar oracle, RNG stream
    /// and current config, kept in slab slot order and keyed by a stable
    /// id so state can be followed across compactions.
    struct OraclePeer {
        id: u64,
        cfg: RthsConfig,
        state: RthsState,
        rng: rand::rngs::StdRng,
    }

    impl OraclePeer {
        fn new(id: u64, cfg: &RthsConfig) -> Self {
            Self {
                id,
                cfg: cfg.clone(),
                state: RthsState::new(cfg),
                rng: rand::rngs::StdRng::seed_from_u64(9000 + id),
            }
        }
    }

    /// One select/observe round over every slot against the per-id
    /// oracles — through the per-slot calls on even rounds and through a
    /// two-shard `split()` with the batched decay on odd ones, so both
    /// ways of reaching a block through its handle are exercised. Every
    /// slot's estimate is read by the scan, from the maintained rows if the
    /// slab keeps them, and on odd rounds as a shard reads it.
    fn churn_round(slab: &mut LearnerSlab, peers: &mut [OraclePeer], round: u64) {
        let mut scratch = Vec::new();
        let mut sharded = Vec::new();
        let utility = |id: u64, a: usize| ((a as u64 * 5 + id + round) % 9) as f64 * 7.0;
        let mut picks = Vec::with_capacity(peers.len());
        for (slot, peer) in peers.iter_mut().enumerate() {
            let mut replay = peer.rng.clone();
            let a = slab.select_action(slot, &mut peer.rng);
            assert_eq!(
                a,
                peer.state.select_action(&mut replay),
                "id {} round {round}",
                peer.id
            );
            picks.push(a);
        }
        if round.is_multiple_of(2) {
            for (slot, peer) in peers.iter().enumerate() {
                slab.observe(slot, &peer.cfg, utility(peer.id, picks[slot]), &mut scratch);
            }
        } else {
            let mid = peers.len() / 2;
            let (mut head, mut tail) = slab.split().shard_split(mid);
            head.decay(1.0 - FAST_EPS);
            tail.decay(1.0 - FAST_EPS);
            for (slot, peer) in peers.iter().enumerate() {
                let (cols, i) =
                    if slot < mid { (&mut head, slot) } else { (&mut tail, slot - mid) };
                cols.observe_predecayed(
                    i,
                    &peer.cfg,
                    utility(peer.id, picks[slot]),
                    &mut scratch,
                );
                sharded.push(cols.max_regret(i, &peer.cfg, &mut Vec::new()).to_bits());
            }
        }
        for (slot, peer) in peers.iter_mut().enumerate() {
            peer.state.observe(&peer.cfg, utility(peer.id, picks[slot]), &mut scratch);
            let what = format!("id {} round {round}", peer.id);
            assert_bitwise(slab.probabilities(slot), peer.state.probabilities(), &what);
            let want = peer.state.max_regret(&peer.cfg).to_bits();
            assert_eq!(slab.scan_max_regret(slot, &peer.cfg).to_bits(), want, "{what}");
            if slab.best.is_some() {
                assert_eq!(slab.checked_max_regret(slot, &peer.cfg).to_bits(), want, "{what}");
            }
            if let Some(&got) = sharded.get(slot) {
                assert_eq!(got, want, "{what} (sharded)");
            }
        }
    }

    /// Arrivals, order-preserving departures and channel switches
    /// interleaved with play at ε = 0.5 (every long-lived `scale ≠ 1`,
    /// renormalised once 257 stages old): block handles become a
    /// non-identity permutation, arrivals inherit departed peers' blocks,
    /// and every peer keeps replaying its own scalar oracle
    /// `to_bits`-exactly — strategies, regrets and the materialised `T`.
    /// The row maxima are turned on before the first round, and in a
    /// second run only once churn has permuted the handles and freed
    /// blocks have been reused.
    #[test]
    fn interleaved_churn_replays_per_id_oracles_bitwise() {
        interleaved_churn(0);
        interleaved_churn(350);
    }

    fn interleaved_churn(track_estimates_from: u64) {
        use rand::Rng;
        let base = config_eps(4, FAST_EPS, RecencyMode::Exponential, true);
        let mut slab = LearnerSlab::new(5);
        let mut next_id = 0u64;
        let mut peers: Vec<OraclePeer> = Vec::new();
        let mut spawn = |slab: &mut LearnerSlab, peers: &mut Vec<OraclePeer>| {
            let reused = !slab.free_blocks.is_empty();
            let slot = slab.alloc(4) as usize;
            assert_eq!(slot, peers.len(), "slots stay aligned");
            // Fresh or inherited, the block reads as a new learner's.
            assert!(slab.stored(slot).iter().all(|&x| x.to_bits() == 0), "dirty block");
            assert_eq!(slab.played_row(slot), [0]);
            assert_eq!(slab.scale[slot], 1.0);
            peers.push(OraclePeer::new(next_id, &base));
            next_id += 1;
            reused
        };
        for _ in 0..12 {
            spawn(&mut slab, &mut peers);
        }
        let mut script = rand::rngs::StdRng::seed_from_u64(4242);
        let mut inherited = 0;
        for round in 0..700u64 {
            if round % 7 == 3 {
                // Ids 0 and 1 never leave or switch, so two slots outlive
                // many renormalisations while everything around them moves.
                let mut gone: Vec<u32> =
                    (2..peers.len() as u32).filter(|_| script.gen_range(0..4) == 0).collect();
                gone.truncate(3);
                slab.remove_slots(&gone);
                for &slot in gone.iter().rev() {
                    peers.remove(slot as usize);
                }
            }
            if round % 5 == 1 {
                for _ in 0..script.gen_range(0..3) {
                    inherited += usize::from(spawn(&mut slab, &mut peers));
                }
            }
            if round % 11 == 6 && peers.len() > 2 {
                let slot = script.gen_range(2..peers.len());
                let m = script.gen_range(3..=5);
                slab.reset_actions(slot, m);
                let peer = &mut peers[slot];
                peer.cfg = base.with_num_actions(m).unwrap();
                peer.state.reset_actions(m);
            }
            slab.assert_blocks_disjoint();
            if round == track_estimates_from {
                let permuted =
                    slab.block.iter().enumerate().any(|(slot, &b)| b as usize != slot);
                assert_eq!(permuted, round > 0);
                slab.track_estimates();
            }
            assert_eq!(slab.best.is_some(), round >= track_estimates_from);
            churn_round(&mut slab, &mut peers, round);
            if round % 50 == 49 {
                for (slot, peer) in peers.iter().enumerate() {
                    let t = peer.state.proxy_matrix();
                    let m = peer.cfg.num_actions();
                    for (j, k) in (0..m).flat_map(|j| (0..m).map(move |k| (j, k))) {
                        assert_eq!(slab.proxy(slot, j, k).to_bits(), t[(j, k)].to_bits());
                    }
                }
            }
        }
        assert!(inherited > 50, "only {inherited} arrivals inherited a departed block");
        assert_eq!(slab.free_list_reuses(), inherited as u64);
        assert!(
            slab.block.iter().enumerate().any(|(slot, &b)| b as usize != slot),
            "handles are still the identity"
        );
        for (slot, peer) in peers.iter().enumerate().take(2) {
            assert_eq!(peer.id, slot as u64);
            assert_renormalised(&slab, slot, &peer.cfg);
        }
    }

    /// Departures leave every survivor's rows where they are, until one
    /// pass closes the holes; whichever state the rows are in, each
    /// survivor reads and updates exactly as its twin in a slab that never
    /// compacts (same id, same RNG stream), `to_bits`: strategies, the
    /// whole proxy matrix and the maintained estimate — with the rounds
    /// run through shard-split `split_strategy()` and `split()` views,
    /// which gather their rows through the handles. At stride 10 blocks
    /// are unpacked, at 32 packed. Arrivals reuse departed blocks with
    /// three actions fewer than their previous owners played, and must
    /// read as fresh learners.
    #[test]
    fn compaction_keeps_rows_in_place_and_matches_a_never_compacted_twin() {
        use rand::Rng;
        for stride in [10, 32] {
            let big = config_eps(stride, FAST_EPS, RecencyMode::Exponential, false);
            let small = big.with_num_actions(stride - 3).unwrap();
            let (mut slab, mut twin) = (LearnerSlab::new(stride), LearnerSlab::new(stride));
            slab.track_estimates();
            twin.track_estimates();
            // Slot order of `slab`, as twin slots; by twin slot, the config
            // and one RNG stream for each slab.
            let mut ids: Vec<usize> = Vec::new();
            let mut by_id: Vec<(RthsConfig, rand::rngs::StdRng, rand::rngs::StdRng)> =
                Vec::new();
            // An arrival in both slabs: returns its slot in `slab`.
            let arrive = |slab: &mut LearnerSlab,
                          twin: &mut LearnerSlab,
                          ids: &mut Vec<usize>,
                          by_id: &mut Vec<_>,
                          cfg: &RthsConfig| {
                let id = twin.alloc(cfg.num_actions()) as usize;
                let rng = rand::rngs::StdRng::seed_from_u64(300 + id as u64);
                ids.push(id);
                by_id.push((cfg.clone(), rng.clone(), rng));
                slab.alloc(cfg.num_actions()) as usize
            };
            for _ in 0..48 {
                arrive(&mut slab, &mut twin, &mut ids, &mut by_id, &big);
            }
            let mut script = rand::rngs::StdRng::seed_from_u64(stride as u64);
            let (mut closed, mut gathered, mut smaller) = (0, 0, 0);
            // The arity each freed block's last owner had.
            let mut owner_arity = std::collections::BTreeMap::new();
            for round in 0..150u64 {
                if round % 4 == 3 {
                    let mut gone: Vec<u32> = (0..ids.len() as u32)
                        .filter(|_| script.gen_range(0..12) == 0)
                        .collect();
                    gone.truncate(4);
                    let rows: Vec<u32> = (0..ids.len())
                        .filter(|s| !gone.contains(&(*s as u32)))
                        .map(|s| slab.row[s])
                        .collect();
                    for &slot in &gone {
                        owner_arity
                            .insert(slab.block[slot as usize], slab.num_actions(slot as usize));
                    }
                    slab.remove_slots(&gone);
                    if slab.rows_used == slab.num_slots() && !gone.is_empty() {
                        closed += 1;
                    } else {
                        assert_eq!(slab.row, rows, "a survivor's rows moved");
                    }
                    for &slot in gone.iter().rev() {
                        ids.remove(slot as usize);
                    }
                    for _ in 0..gone.len() {
                        let m = small.num_actions();
                        let prior = slab.free_blocks.last().map(|b| owner_arity[b] > m);
                        let slot = arrive(&mut slab, &mut twin, &mut ids, &mut by_id, &small);
                        assert_bitwise(
                            slab.probabilities(slot),
                            &vec![1.0 / m as f64; m],
                            "arrival",
                        );
                        let (r, best) = (slab.row[slot] as usize, slab.best.as_ref().unwrap());
                        assert!(best[2 * r * stride..2 * (r + 1) * stride]
                            .iter()
                            .all(|x| x.to_bits() == 0));
                        assert_eq!(slab.max_regret(slot, &small).to_bits(), 0);
                        smaller += usize::from(prior == Some(true));
                    }
                    slab.assert_blocks_disjoint();
                }
                let mid = ids.len() / 2;
                let picks: Vec<usize> = {
                    let (mut head, mut tail) = slab.split_strategy().shard_split(mid);
                    gathered += usize::from(matches!(head.probs, Rows::Gathered(_)));
                    (0..ids.len())
                        .map(|slot| {
                            let (cols, i) = if slot < mid {
                                (&mut head, slot)
                            } else {
                                (&mut tail, slot - mid)
                            };
                            cols.select_action(i, &mut by_id[ids[slot]].1)
                        })
                        .collect()
                };
                let utility = |id: usize, a: usize| {
                    ((a as u64 * 7 + id as u64 + round) % 11) as f64 * 9.0
                };
                let mut estimates = Vec::new();
                {
                    let (mut head, mut tail) = slab.split().shard_split(mid);
                    head.decay(1.0 - FAST_EPS);
                    tail.decay(1.0 - FAST_EPS);
                    for (slot, &id) in ids.iter().enumerate() {
                        let (cols, i) = if slot < mid {
                            (&mut head, slot)
                        } else {
                            (&mut tail, slot - mid)
                        };
                        let cfg = &by_id[id].0;
                        cols.observe_predecayed(
                            i,
                            cfg,
                            utility(id, picks[slot]),
                            &mut Vec::new(),
                        );
                        estimates.push(cols.max_regret(i, cfg, &mut Vec::new()).to_bits());
                    }
                }
                for (slot, &id) in ids.iter().enumerate() {
                    let what = format!("stride {stride} round {round} id {id}");
                    let (cfg, _, rng) = &mut by_id[id];
                    assert_eq!(twin.select_action(id, rng), picks[slot], "{what}");
                    twin.observe(id, cfg, utility(id, picks[slot]), &mut Vec::new());
                    assert_bitwise(slab.probabilities(slot), twin.probabilities(id), &what);
                    let want = twin.max_regret(id, cfg).to_bits();
                    assert_eq!(estimates[slot], want, "{what}");
                    assert_eq!(slab.max_regret(slot, cfg).to_bits(), want, "{what}");
                    let m = cfg.num_actions();
                    for (j, k) in (0..m).flat_map(|j| (0..m).map(move |k| (j, k))) {
                        assert_eq!(
                            slab.proxy(slot, j, k).to_bits(),
                            twin.proxy(id, j, k).to_bits()
                        );
                    }
                }
            }
            assert!(closed > 0, "stride {stride}: no pass closed the holes");
            assert!(gathered > 0, "stride {stride}: no round ran on gathered rows");
            assert!(smaller > 0, "stride {stride}: no arrival took a larger learner's block");
        }
    }

    /// 2,000 epochs of balanced churn (departures, then as many
    /// arrivals, as `System::step_epoch` orders them): departed blocks are
    /// reused before any fresh arena, so the arena stays at the length
    /// the first population gave it; and a compaction moves no T data —
    /// every survivor still holds the block it held before.
    #[test]
    fn balanced_churn_neither_grows_the_arena_nor_moves_t() {
        use rand::Rng;
        let cfg = config_eps(4, FAST_EPS, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(4);
        let mut peers: Vec<OraclePeer> = Vec::new();
        for id in 0..50 {
            slab.alloc(4);
            peers.push(OraclePeer::new(id, &cfg));
        }
        slab.track_estimates();
        let arena = slab.t.len();
        assert_eq!(arena, 50 * 16);
        let mut script = rand::rngs::StdRng::seed_from_u64(77);
        let mut next_id = 50;
        for epoch in 0..2000u64 {
            let mut gone: Vec<u32> = Vec::new();
            for _ in 0..script.gen_range(0..4) {
                let slot = script.gen_range(0..50);
                if !gone.contains(&slot) {
                    gone.push(slot);
                }
            }
            gone.sort_unstable();
            let held: Vec<(u64, u32)> = peers
                .iter()
                .enumerate()
                .filter(|(slot, _)| !gone.contains(&(*slot as u32)))
                .map(|(slot, peer)| (peer.id, slab.block[slot]))
                .collect();
            slab.remove_slots(&gone);
            for &slot in gone.iter().rev() {
                peers.remove(slot as usize);
            }
            let now: Vec<(u64, u32)> =
                peers.iter().enumerate().map(|(slot, p)| (p.id, slab.block[slot])).collect();
            assert_eq!(now, held, "epoch {epoch}: a survivor's T block moved");
            for _ in 0..gone.len() {
                slab.alloc(4);
                peers.push(OraclePeer::new(next_id, &cfg));
                next_id += 1;
            }
            assert_eq!(slab.t.len(), arena, "epoch {epoch}: the arena grew");
            assert!(slab.free_blocks.is_empty());
            churn_round(&mut slab, &mut peers, epoch);
        }
        slab.assert_blocks_disjoint();
        assert_eq!(slab.free_list_reuses(), next_id - 50, "every arrival reused a block");
    }

    /// The maintained estimate — row maxima and diagonal — against the
    /// scan and the scalar oracle after **every** stage: every recency mode
    /// × conditional, the rows turned on before the first stage and
    /// mid-run, arity below and at the stride, ε = 0.5 so the tracking
    /// runs cross a renormalisation and ε = 1 so they wipe every stage, a
    /// clone that carries on in the original's place, and utilities of
    /// both signs — a negative one lowers its column, which is the arm
    /// that rebuilds the slot's maxima by a scan.
    #[test]
    fn maintained_estimate_matches_scan_and_oracle_at_every_stage() {
        let modes = [RecencyMode::Exponential, RecencyMode::PaperLiteral, RecencyMode::Uniform];
        let runs = modes.into_iter().flat_map(|r| [(r, false), (r, true)]);
        for ((recency, conditional), eps) in runs.flat_map(|r| [(r, FAST_EPS), (r, 1.0)]) {
            for ((m, stride), track_from) in
                [(4, 7), (5, 5)].into_iter().flat_map(|g| [(g, 0u64), (g, 130)])
            {
                let cfg = config_eps(m, eps, recency, conditional);
                let mut slab = LearnerSlab::new(stride);
                // A neighbour in slot 0, so the rows read are not the
                // column's first.
                slab.alloc(m);
                let mut slot = slab.alloc(m) as usize;
                let mut oracle = RthsState::new(&cfg);
                let mut rng = rand::rngs::StdRng::seed_from_u64(77);
                let mut scratch = Vec::new();
                let mut lowered = 0;
                for s in 0..400u64 {
                    if s == 250 {
                        slot = slab.clone_slot(slot as u32) as usize;
                    }
                    let mut replay = rng.clone();
                    let j = slab.select_action(slot, &mut rng);
                    assert_eq!(j, oracle.select_action(&mut replay), "stage {s}");
                    let u = ((j * 37 + s as usize) % 11) as f64 * 13.0 - 40.0;
                    lowered += u64::from(u < 0.0 && s >= track_from);
                    slab.observe(slot, &cfg, u, &mut scratch);
                    oracle.observe(&cfg, u, &mut scratch);
                    let what = format!("{recency:?}/{conditional} ε={eps} m={m} stage {s}");
                    let want = oracle.max_regret(&cfg).to_bits();
                    assert_eq!(slab.scan_max_regret(slot, &cfg).to_bits(), want, "{what}");
                    if s >= track_from {
                        assert_eq!(
                            slab.checked_max_regret(slot, &cfg).to_bits(),
                            want,
                            "{what}"
                        );
                    } else {
                        assert!(slab.best.is_none(), "{what}: nobody asked yet");
                    }
                }
                assert!(lowered > 50, "only {lowered} stages took the rebuild arm");
                match (recency, eps == 1.0) {
                    (RecencyMode::Exponential, false) => assert_renormalised(&slab, slot, &cfg),
                    // Forgetting everything leaves `scale` at 1: a wipe
                    // every stage instead.
                    (RecencyMode::Exponential, true) => assert_eq!(slab.scale[slot], 1.0),
                    _ => {}
                }
            }
        }
    }

    /// A utility large enough that its rank-1 coefficient overflows leaves
    /// `+∞` in a column, and the opposite one then turns that into `NaN`:
    /// the maintained rows read both as the scan and the oracle do — an
    /// estimate of `0.0` while an infinity is in play, `NaN` entries
    /// ignored.
    #[test]
    fn non_finite_entries_read_like_the_scan() {
        let cfg = config_eps(3, FAST_EPS, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(4);
        let slot = slab.alloc(3) as usize;
        slab.track_estimates();
        let mut oracle = RthsState::new(&cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let mut scratch = Vec::new();
        let mut poisoned = None;
        for s in 0..400u64 {
            let mut replay = rng.clone();
            let j = slab.select_action(slot, &mut rng);
            assert_eq!(j, oracle.select_action(&mut replay), "stage {s}");
            // By stage 200 `scale` is 2⁻²⁰⁰, so ±1e308 / scale overflows.
            let u = match (s, poisoned) {
                (200, _) => {
                    poisoned = Some(j);
                    1e308
                }
                (201.., Some(col)) if col == j => {
                    poisoned = None;
                    -1e308
                }
                _ => 50.0 + 10.0 * j as f64,
            };
            slab.observe(slot, &cfg, u, &mut scratch);
            oracle.observe(&cfg, u, &mut scratch);
            let got = slab.checked_max_regret(slot, &cfg);
            assert_eq!(got.to_bits(), oracle.max_regret(&cfg).to_bits(), "stage {s}");
            if slab.stored(slot).contains(&f64::INFINITY) {
                assert_eq!(got.to_bits(), 0, "stage {s}");
            }
        }
        assert!(slab.stored(slot).iter().any(|x| x.is_nan()), "no NaN was ever stored");
        assert!(slab.checked_max_regret(slot, &cfg) > 0.0, "NaN entries hid the others");
    }

    #[test]
    fn survivor_walk_visits_exactly_the_relocated_slots() {
        let walk = |n, sorted: &[u32]| {
            let mut moves = Vec::new();
            let kept = for_each_survivor_run(n, sorted, |run, to| moves.push((run, to)));
            (kept, moves)
        };
        assert_eq!(walk(5, &[]), (5, vec![]));
        assert_eq!(walk(5, &[4]), (4, vec![]));
        assert_eq!(walk(6, &[1, 2, 4]), (3, vec![(3..4, 1), (5..6, 2)]));
        assert_eq!(walk(3, &[0, 1, 2]), (0, vec![]));
        assert_eq!(walk(9, &[2, 6]), (7, vec![(3..6, 2), (7..9, 5)]));
        let mut column: Vec<u32> = (0..9).collect();
        compact_column(&mut column, &[0, 2, 3, 8]);
        assert_eq!(column, [1, 4, 5, 6, 7]);
    }

    /// A clone carries the source's lazy scale (renormalised by then)
    /// along with its columns, and evolves identically afterwards.
    #[test]
    fn clone_slot_copies_state_exactly() {
        let cfg = config_eps(3, FAST_EPS, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(3);
        let a = slab.alloc(3) as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut scratch = Vec::new();
        for s in 0..300u64 {
            let act = slab.select_action(a, &mut rng);
            slab.observe(a, &cfg, ((act + s as usize) % 4) as f64 * 5.0, &mut scratch);
        }
        assert_renormalised(&slab, a, &cfg);
        slab.track_estimates();
        let b = slab.clone_slot(a as u32) as usize;
        assert_ne!(a, b);
        let mut rng_b = rng.clone();
        for s in 0..50u64 {
            assert_eq!(slab.stage(a), slab.stage(b));
            assert_eq!(slab.scale[a].to_bits(), slab.scale[b].to_bits());
            let (pa, pb) = (slab.probabilities(a).to_vec(), slab.probabilities(b).to_vec());
            assert_bitwise(&pa, &pb, "clone strategy");
            for j in 0..3 {
                for k in 0..3 {
                    assert_eq!(slab.proxy(a, j, k).to_bits(), slab.proxy(b, j, k).to_bits());
                }
            }
            assert_eq!(
                slab.checked_max_regret(a, &cfg).to_bits(),
                slab.checked_max_regret(b, &cfg).to_bits()
            );
            let act = slab.select_action(a, &mut rng);
            assert_eq!(act, slab.select_action(b, &mut rng_b));
            let u = ((act + s as usize) % 4) as f64 * 5.0;
            slab.observe(a, &cfg, u, &mut scratch);
            slab.observe(b, &cfg, u, &mut scratch);
        }
    }

    /// Plays `actions` in order on `slot`, pending each directly.
    fn play(slab: &mut LearnerSlab, slot: usize, cfg: &RthsConfig, actions: &[usize]) {
        for &a in actions {
            slab.pending[slot] = a as u32;
            slab.observe(slot, cfg, 10.0 + a as f64, &mut Vec::new());
        }
    }

    /// Asserts that `slot` has played `n` actions and that its block holds
    /// them packed: each of the first `n` columns is non-zero and no
    /// float past them is.
    fn assert_packed(slab: &LearnerSlab, slot: usize, n: usize) {
        let words = slab.played_row(slot);
        assert_eq!(played_count(words), n, "slot {slot}: played count");
        let (front, rest) = slab.stored(slot).split_at(n * slab.stride);
        for (c, col) in front.chunks_exact(slab.stride).enumerate() {
            assert!(col.iter().any(|&x| x != 0.0), "slot {slot}: column {c} empty");
        }
        assert!(rest.iter().all(|&x| x.to_bits() == 0), "slot {slot}: a float past the front");
    }

    /// At stride 64 a block is 8 pages and packs: 8 distinct actions fill
    /// its first `8 · 64` floats and nothing past them, through a
    /// renormalisation and a clone; every wipe (release, compaction,
    /// reset) leaves the block all zero, and its next owner packs again.
    #[test]
    fn packed_block_keeps_played_columns_at_its_front() {
        const STRIDE: usize = 64;
        assert!(packs(STRIDE) && !packs(22) && packs(23));
        let cfg = config(STRIDE, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(STRIDE);
        for _ in 0..3 {
            slab.alloc(STRIDE);
        }
        play(&mut slab, 1, &cfg, &[40, 3, 63, 17, 8, 0, 52, 29, 3, 40, 63]);
        assert_packed(&slab, 1, 8);
        slab.force_renormalise(1);
        assert_packed(&slab, 1, 8);
        let copy = slab.clone_slot(1) as usize;
        assert_packed(&slab, copy, 8);
        for (j, k) in (0..STRIDE).flat_map(|j| (0..STRIDE).map(move |k| (j, k))) {
            assert_eq!(slab.proxy(copy, j, k).to_bits(), slab.proxy(1, j, k).to_bits());
        }
        assert_eq!(slab.proxy(1, 5, 6), 0.0, "a never-played column reads +0.0");

        slab.release(copy as u32);
        assert_packed(&slab, copy, 0);
        assert_eq!(slab.alloc(STRIDE) as usize, copy);
        play(&mut slab, copy, &cfg, &[9, 2]);
        assert_packed(&slab, copy, 2);

        let departed = slab.block[1] as usize;
        slab.remove_slots(&[1]);
        let area = STRIDE * STRIDE;
        let wiped = &slab.t[departed * area..(departed + 1) * area];
        assert!(wiped.iter().all(|&x| x.to_bits() == 0), "departed block not wiped");
        let arrival = slab.alloc(STRIDE) as usize;
        assert_eq!(slab.block[arrival] as usize, departed);
        play(&mut slab, arrival, &cfg, &[33, 1, 62]);
        assert_packed(&slab, arrival, 3);

        play(&mut slab, 0, &cfg, &[7, 6, 5, 4, 3]);
        assert_packed(&slab, 0, 5);
        slab.reset_actions(0, STRIDE);
        assert_packed(&slab, 0, 0);
        play(&mut slab, 0, &cfg, &[50, 10, 30, 20]);
        assert_packed(&slab, 0, 4);
    }

    /// A reset slot — its scale had left 1 and been renormalised — is a
    /// fresh learner of the new arity, scale included.
    #[test]
    fn reset_matches_fresh_slot() {
        let cfg = config_eps(3, FAST_EPS, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(5);
        let slot = slab.alloc(3) as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut scratch = Vec::new();
        for _ in 0..300 {
            let _ = slab.select_action(slot, &mut rng);
            slab.observe(slot, &cfg, 5.0, &mut scratch);
        }
        assert_renormalised(&slab, slot, &cfg);
        assert!(slab.checked_max_regret(slot, &cfg) > 0.0);
        slab.reset_actions(slot, 5);
        assert_eq!(slab.num_actions(slot), 5);
        assert_eq!(slab.stage(slot), 0);
        assert_eq!(slab.scale[slot], 1.0);
        assert_eq!(slab.probabilities(slot), &[0.2; 5]);
        assert_eq!(slab.play_frequencies(slot), &[0.2; 5]);
        for j in 0..5 {
            for k in 0..5 {
                assert_eq!(slab.proxy(slot, j, k), 0.0);
            }
        }
        let big = config_eps(5, FAST_EPS, RecencyMode::Exponential, false);
        assert_eq!(slab.checked_max_regret(slot, &big).to_bits(), 0);
        let mut fresh = [RthsState::new(&big)];
        drive_with_mirrors(&mut slab, &mut fresh, &mut [rng], &big, 50);
        assert_bitwise(slab.probabilities(slot), fresh[0].probabilities(), "after reset");
    }

    /// An RNG whose one `f64` draw is `k · 2⁻⁵³` (the top 53 bits of one
    /// `next_u64` in the vendored `rand`).
    struct Draw(u64);

    impl rand::RngCore for Draw {
        fn next_u32(&mut self) -> u32 {
            unreachable!("select_action draws one f64")
        }
        fn next_u64(&mut self) -> u64 {
            self.0 << 11
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("select_action draws one f64")
        }
    }

    /// What the edge draws of one row covered.
    #[derive(Default)]
    struct Edges {
        /// Draws equal to a prefix sum.
        exact: usize,
        /// Rows whose every prefix sum is below the largest draw.
        short: usize,
    }

    /// Samples slot `slot` of `slab` and a clone of `oracle`, which must
    /// hold the same strategy, at the draws that straddle the row's
    /// edges — `0`, the largest draw `1 − 2⁻⁵³`, and the grid points at
    /// and next to every prefix sum — and asserts the same action each
    /// time. Leaves the slot with no action pending.
    fn assert_edges_sample_like_oracle(
        slab: &mut LearnerSlab,
        slot: usize,
        oracle: &RthsState,
        what: &str,
        edges: &mut Edges,
    ) {
        let probs = slab.probabilities(slot).to_vec();
        assert_bitwise(&probs, oracle.probabilities(), what);
        const TOP: u64 = (1 << 53) - 1;
        let grid = (1u64 << 53) as f64;
        let mut draws = vec![0, TOP];
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            let k = (acc * grid).floor().min(TOP as f64) as u64;
            edges.exact += usize::from(k as f64 == acc * grid);
            draws.extend([k.saturating_sub(1), k, (k + 1).min(TOP)]);
        }
        edges.short += usize::from(acc < TOP as f64 / grid);
        for k in draws {
            let a = slab.select_action(slot, &mut Draw(k));
            slab.pending[slot] = NO_PENDING;
            let b = oracle.clone().select_action(&mut Draw(k));
            assert_eq!(a, b, "{what}: draw {k} · 2⁻⁵³ over {probs:?}");
        }
    }

    /// The count-based sampler picks the early-exit oracle's action at
    /// every edge of the rows a learner reaches: uniform rows (at m = 7
    /// their sum rounds below the largest draw, at m = 8 and 64 every
    /// prefix sum is a grid point), rows at the exploration floor (one
    /// positive utility from fresh) and 60 stages of learning after, at
    /// `m = stride` for strides 8, 10 and 64 and at m = 1.
    #[test]
    fn count_sampler_matches_the_early_exit_at_row_edges() {
        let mut edges = Edges::default();
        for (m, stride) in [(1, 1), (1, 8), (7, 8), (8, 8), (10, 10), (64, 64)] {
            for conditional in [false, true] {
                let cfg = config(m, RecencyMode::Exponential, conditional);
                let what = format!("m={m} stride={stride} cond={conditional}");
                let mut slab = LearnerSlab::new(stride);
                let slot = slab.alloc(m) as usize;
                let mut oracle = RthsState::new(&cfg);
                assert_edges_sample_like_oracle(&mut slab, slot, &oracle, &what, &mut edges);

                // One positive utility from fresh (the draw u = 1/2): every
                // action but the played one sits at δ/m.
                let j = slab.select_action(slot, &mut Draw(1 << 52));
                assert_eq!(j, oracle.select_action(&mut Draw(1 << 52)), "{what}");
                slab.observe(slot, &cfg, 40.0, &mut Vec::new());
                oracle.observe(&cfg, 40.0, &mut Vec::new());
                let floor = policy::exploration_floor(m, cfg.delta());
                let at_floor = slab.probabilities(slot).iter().filter(|&&p| p == floor).count();
                assert_eq!(at_floor, m - 1, "{what}");
                assert_edges_sample_like_oracle(&mut slab, slot, &oracle, &what, &mut edges);

                let mut rng_a = rand::rngs::StdRng::seed_from_u64(m as u64);
                let mut rng_b = rng_a.clone();
                for s in 0..60u64 {
                    let a = slab.select_action(slot, &mut rng_a);
                    assert_eq!(a, oracle.select_action(&mut rng_b), "{what} stage {s}");
                    let u = ((a * 37 + s as usize * 11) % 13) as f64 * 25.0;
                    slab.observe(slot, &cfg, u, &mut Vec::new());
                    oracle.observe(&cfg, u, &mut Vec::new());
                    assert_edges_sample_like_oracle(
                        &mut slab, slot, &oracle, &what, &mut edges,
                    );
                }
            }
        }
        assert!(edges.exact > 0, "no draw landed on a prefix sum");
        assert!(edges.short > 0, "no row summed below the largest draw");
    }

    /// The played entry `1 − off` is the one a rounding can take below
    /// zero, and the sampler's exactness rests on it not being so: at
    /// δ = 10⁻³⁰⁰ the floor vanishes, one very negative utility saturates
    /// every other entry at `1/(m − 1)`, and at m = 10 nine of them sum
    /// above 1.
    #[test]
    #[should_panic(expected = "is below zero")]
    fn negative_played_probability_panics() {
        let cfg = RthsConfig::builder(10).delta(1e-300).build().unwrap();
        let mut slab = LearnerSlab::new(10);
        let slot = slab.alloc(10) as usize;
        slab.pending[slot] = 3;
        slab.observe(slot, &cfg, -1e6, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "observation pending")]
    fn double_select_panics() {
        let mut slab = LearnerSlab::new(2);
        let slot = slab.alloc(2) as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let _ = slab.select_action(slot, &mut rng);
        let _ = slab.select_action(slot, &mut rng);
    }

    #[test]
    #[should_panic(expected = "without a pending action")]
    fn observe_without_select_panics() {
        let cfg = config(2, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(2);
        let slot = slab.alloc(2) as usize;
        slab.observe(slot, &cfg, 1.0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "cannot compact a slab with free-listed slots")]
    fn compaction_rejects_free_list_mode() {
        let mut slab = LearnerSlab::new(2);
        slab.alloc(2);
        slab.alloc(2);
        slab.release(0);
        slab.remove_slots(&[1]);
    }

    /// One- and two-action learners — a channel with one or two helpers —
    /// replay the scalar oracle bit-for-bit in every mode: through a
    /// `SlabLearner`, and through a sharded sweep (the store's decay +
    /// `observe_predecayed`, or `observe` where the recency mode does not
    /// batch its decay), at stride `m` and at a packed stride, with some
    /// negative utilities so the rank-1 coefficient changes sign.
    #[test]
    fn one_and_two_action_learners_replay_the_oracle_bitwise() {
        let utility = |a: usize, s: u64| ((a * 7 + s as usize * 3) % 11) as f64 * 9.0 - 30.0;
        for m in [1, 2] {
            for stride in [m, 23] {
                for recency in
                    [RecencyMode::Exponential, RecencyMode::PaperLiteral, RecencyMode::Uniform]
                {
                    for conditional in [false, true] {
                        let cfg = config(m, recency, conditional);
                        let what =
                            format!("m={m} stride={stride} {recency:?} cond={conditional}");

                        let slab: SharedSlab = Arc::new(Mutex::new(LearnerSlab::new(stride)));
                        let mut learner = SlabLearner::new(slab, cfg.clone());
                        let mut oracle = RthsState::new(&cfg);
                        let mut rng_a = rand::rngs::StdRng::seed_from_u64(5);
                        let mut rng_b = rand::rngs::StdRng::seed_from_u64(5);
                        let mut scratch = Vec::new();
                        for s in 0..150u64 {
                            let a = learner.select_action(&mut rng_a);
                            assert_eq!(a, oracle.select_action(&mut rng_b), "{what} stage {s}");
                            learner.observe(utility(a, s));
                            oracle.observe(&cfg, utility(a, s), &mut scratch);
                            assert_bitwise(
                                learner.probabilities(),
                                oracle.probabilities(),
                                &what,
                            );
                            assert_eq!(
                                learner.max_regret().to_bits(),
                                oracle.max_regret(&cfg).to_bits(),
                                "{what} stage {s}"
                            );
                        }

                        let mut slab = LearnerSlab::new(stride);
                        let mut oracles: Vec<RthsState> =
                            (0..3).map(|_| RthsState::new(&cfg)).collect();
                        for _ in &oracles {
                            slab.alloc(m);
                        }
                        let mut rngs_a: Vec<_> =
                            (0..3).map(|p| rand::rngs::StdRng::seed_from_u64(17 + p)).collect();
                        let mut rngs_b = rngs_a.clone();
                        for s in 0..150u64 {
                            let picks: Vec<usize> =
                                (0..3).map(|i| slab.select_action(i, &mut rngs_a[i])).collect();
                            let mut cols = slab.split();
                            if recency == RecencyMode::Exponential {
                                cols.decay(1.0 - cfg.epsilon());
                            }
                            for (i, &a) in picks.iter().enumerate() {
                                let u = utility(a, s + i as u64);
                                if recency == RecencyMode::Exponential {
                                    cols.observe_predecayed(i, &cfg, u, &mut scratch);
                                } else {
                                    cols.observe(i, &cfg, u, &mut scratch);
                                }
                            }
                            for (i, (oracle, &a)) in oracles.iter_mut().zip(&picks).enumerate()
                            {
                                assert_eq!(a, oracle.select_action(&mut rngs_b[i]), "{what}");
                                oracle.observe(&cfg, utility(a, s + i as u64), &mut scratch);
                                assert_bitwise(
                                    slab.probabilities(i),
                                    oracle.probabilities(),
                                    &what,
                                );
                                assert_eq!(
                                    slab.checked_max_regret(i, &cfg).to_bits(),
                                    oracle.max_regret(&cfg).to_bits(),
                                    "{what} slot {i} stage {s}"
                                );
                            }
                        }
                        for (j, k) in (0..m).flat_map(|j| (0..m).map(move |k| (j, k))) {
                            assert_eq!(
                                slab.regret(1, &cfg, j, k).to_bits(),
                                oracles[1].regret(&cfg, j, k).to_bits(),
                                "{what} Q({j},{k})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The trait wrapper must replay the scalar oracle exactly, including
    /// across a reset.
    #[test]
    fn slab_learner_replays_wrapped_learner_bitwise() {
        let mut cfg = config(4, RecencyMode::Exponential, false);
        let slab: SharedSlab = Arc::new(Mutex::new(LearnerSlab::new(6)));
        let mut oracle = RthsState::new(&cfg);
        let mut learner = SlabLearner::new(Arc::clone(&slab), cfg.clone());
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(42);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(42);
        let mut scratch = Vec::new();
        for phase in 0..2 {
            for s in 0..120u64 {
                let a = oracle.select_action(&mut rng_a);
                let b = learner.select_action(&mut rng_b);
                assert_eq!(a, b, "phase {phase} stage {s}");
                assert_eq!(learner.pending_action(), Some(b));
                let u = ((a * 31 + s as usize) % 13) as f64 * 3.0;
                oracle.observe(&cfg, u, &mut scratch);
                learner.observe(u);
                assert_bitwise(learner.probabilities(), oracle.probabilities(), "strategy");
                assert_eq!(oracle.max_regret(&cfg).to_bits(), learner.max_regret().to_bits());
                assert_eq!(oracle.stage(), learner.stage());
            }
            // Channel switch mid-life: both sides reset to 6 actions.
            cfg = cfg.with_num_actions(6).unwrap();
            oracle.reset_actions(6);
            learner.reset_actions(6);
            assert_eq!(learner.num_actions(), 6);
        }
        // Dropping the learner returns its slot to the free list.
        drop(learner);
        assert_eq!(slab.lock().unwrap().free_slots(), 1);
    }

    /// Alone in its slab a learner may outgrow the stride (see
    /// `recursive::tests::reset_actions_reinitialises`); with neighbours
    /// it may not.
    #[test]
    #[should_panic(expected = "exceeds the shared slab's stride 3")]
    fn reset_beyond_the_stride_of_a_shared_slab_panics() {
        let cfg = config(3, RecencyMode::Exponential, false);
        let slab: SharedSlab = Arc::new(Mutex::new(LearnerSlab::new(3)));
        let mut first = SlabLearner::new(Arc::clone(&slab), cfg.clone());
        let _second = SlabLearner::new(slab, cfg);
        first.reset_actions(5);
    }

    /// Cloning a `SlabLearner` allocates an independent slot.
    #[test]
    fn slab_learner_clone_is_independent() {
        let cfg = config(3, RecencyMode::Exponential, false);
        let slab: SharedSlab = Arc::new(Mutex::new(LearnerSlab::new(3)));
        let mut a = SlabLearner::new(Arc::clone(&slab), cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let _ = a.select_action(&mut rng);
            a.observe(10.0);
        }
        let mut b = a.clone();
        assert_ne!(a.slot(), b.slot());
        assert_eq!(a.stage(), b.stage());
        let _ = b.select_action(&mut rng);
        b.observe(99.0);
        assert_ne!(a.stage(), b.stage(), "clone shares state with the original");
    }

    /// Slab, oracle and the eager reference on one action/utility stream
    /// (the slab samples; the other two are fed its action). Returns after
    /// `stages` stages, having called `check(stage, &slab, &oracle, &eager)`
    /// after each.
    fn run_against_eager(
        cfg: &RthsConfig,
        stride: usize,
        stages: u64,
        utility: impl Fn(u64, usize) -> f64,
        mut check: impl FnMut(u64, &mut LearnerSlab, &RthsState, &EagerRef),
    ) {
        let m = cfg.num_actions();
        let mut slab = LearnerSlab::new(stride);
        let slot = slab.alloc(m) as usize;
        let mut oracle = RthsState::new(cfg);
        let mut eager = EagerRef::new(m);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let mut scratch = Vec::new();
        for s in 0..stages {
            let mut replay = rng.clone();
            let j = slab.select_action(slot, &mut rng);
            assert_eq!(j, oracle.select_action(&mut replay), "stage {s}");
            let u = utility(s, j);
            slab.observe(slot, cfg, u, &mut scratch);
            oracle.observe(cfg, u, &mut scratch);
            eager.observe(cfg, j, u);
            check(s, &mut slab, &oracle, &eager);
        }
    }

    /// `RthsConfig` admits ε = 1 (`keep = 0`): the lazy form defines it as
    /// "forget everything, scale stays 1" — exactly the eager result,
    /// where `T` is then the latest rank-1 column alone. Just below 1 the
    /// scale renormalises every ~26 stages and still tracks eager decay.
    #[test]
    fn epsilon_at_and_near_one_matches_eager_decay() {
        for eps in [1.0, 0.999] {
            let cfg = config_eps(4, eps, RecencyMode::Exponential, true);
            let utility = |s: u64, j: usize| ((j * 37 + s as usize) % 11) as f64 * 13.0;
            run_against_eager(&cfg, 9, 2000, utility, |s, slab, oracle, eager| {
                assert_bitwise(slab.probabilities(0), oracle.probabilities(), "oracle");
                assert_eq!(
                    slab.checked_max_regret(0, &cfg).to_bits(),
                    oracle.max_regret(&cfg).to_bits()
                );
                let scale = slab.scale[0];
                if eps == 1.0 {
                    assert_eq!(scale, 1.0, "stage {s}");
                    assert_eq!(slab.probabilities(0), &eager.probs[..], "stage {s}");
                    assert_eq!(
                        slab.checked_max_regret(0, &cfg),
                        eager.max_regret(&cfg),
                        "stage {s}"
                    );
                } else {
                    assert!(scale.is_normal() && scale >= lazy::RENORM_BELOW, "stage {s}");
                    for (x, y) in slab.probabilities(0).iter().zip(&eager.probs) {
                        assert_close(*x, *y, "strategy");
                    }
                    assert_close(
                        slab.checked_max_regret(0, &cfg),
                        eager.max_regret(&cfg),
                        "regret",
                    );
                }
            });
        }
    }

    /// 10⁶ stages of one slot against eager decay (ROADMAP item 5): no
    /// drift beyond 1e-9, `scale` inside its renormalisation band, and
    /// `S` never non-finite or subnormal. The stream has zero-utility
    /// stages (lost payloads) and a payoff reversal every 50 000 stages.
    fn soak(eps: f64) {
        let cfg = config_eps(6, eps, RecencyMode::Exponential, true);
        let utility = |s: u64, j: usize| {
            let best = (s / 50_000) as usize % 6;
            match (s + j as u64) % 5 {
                0 => 0.0,
                _ if j == best => 400.0,
                r => 35.5 * r as f64,
            }
        };
        run_against_eager(&cfg, 9, 1_000_000, utility, |s, slab, _, eager| {
            let scale = slab.scale[0];
            assert!((lazy::RENORM_BELOW..=1.0).contains(&scale), "stage {s}: scale {scale}");
            for &x in slab.stored(0) {
                assert!(x == 0.0 || x.is_normal(), "stage {s}: S holds {x:e}");
            }
            for (x, y) in slab.probabilities(0).iter().zip(&eager.probs) {
                assert_close(*x, *y, "strategy");
            }
            if s % 997 == 0 {
                assert_close(
                    slab.checked_max_regret(0, &cfg),
                    eager.max_regret(&cfg),
                    "regret",
                );
            }
        });
    }

    #[test]
    fn soak_million_stages_eps_0_01() {
        soak(0.01);
    }

    #[test]
    fn soak_million_stages_eps_0_05() {
        soak(0.05);
    }

    #[test]
    fn soak_million_stages_eps_0_5() {
        soak(0.5);
    }

    /// Renormalisation multiplies by exact powers of two, so *when* it
    /// runs is invisible: forcing it at arbitrary stages (which also
    /// shifts every later natural one) leaves strategies, regrets and the
    /// materialised proxy entries `to_bits`-identical. The forced stages
    /// are ≥ 256 apart at `keep = 1/2`, so `scale` stays below 2²⁵⁶ and
    /// no live entry of `S` comes near the subnormal flush.
    #[test]
    fn renormalisation_timing_is_invisible() {
        let cfg = config_eps(4, FAST_EPS, RecencyMode::Exponential, true);
        let mut natural = LearnerSlab::new(9);
        let mut forced = LearnerSlab::new(9);
        assert_eq!((natural.alloc(4), forced.alloc(4)), (0, 0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut scratch = Vec::new();
        let mut split_stages = 0;
        for s in 0..2000u64 {
            if [3, 300, 700, 1111, 1500].contains(&s) {
                forced.force_renormalise(0);
            }
            let mut replay = rng.clone();
            let j = natural.select_action(0, &mut rng);
            assert_eq!(j, forced.select_action(0, &mut replay), "stage {s}");
            let u = 20.0 + ((j * 31 + s as usize) % 13) as f64 * 9.0;
            natural.observe(0, &cfg, u, &mut scratch);
            forced.observe(0, &cfg, u, &mut scratch);
            split_stages += u64::from(natural.scale[0] != forced.scale[0]);
            assert_bitwise(natural.probabilities(0), forced.probabilities(0), "strategy");
            assert_eq!(
                natural.checked_max_regret(0, &cfg).to_bits(),
                forced.checked_max_regret(0, &cfg).to_bits(),
                "stage {s}"
            );
            for j in 0..4 {
                for k in 0..4 {
                    assert_eq!(
                        natural.proxy(0, j, k).to_bits(),
                        forced.proxy(0, j, k).to_bits(),
                        "stage {s}: T({j},{k})"
                    );
                }
            }
        }
        assert!(split_stages > 500, "T was split differently on {split_stages} stages only");
    }

    /// Entries a renormalisation would leave subnormal are flushed to zero
    /// — identically in slab and oracle: action 0 pays 1e-300 ≈ 2⁻⁹⁹⁷, so
    /// its column is below 2⁻⁷⁶⁶ at a renormalisation unless it was played
    /// in the ~25 stages before (when `scale < 2⁻²³¹`).
    #[test]
    fn tiny_utilities_flush_identically_in_slab_and_oracle() {
        let cfg = config_eps(3, FAST_EPS, RecencyMode::Exponential, false);
        let utility = |_: u64, j: usize| if j == 0 { 1e-300 } else { 100.0 };
        let mut flushed = false;
        run_against_eager(&cfg, 3, 3000, utility, |s, slab, oracle, _| {
            assert_bitwise(slab.probabilities(0), oracle.probabilities(), "oracle");
            assert_eq!(
                slab.checked_max_regret(0, &cfg).to_bits(),
                oracle.max_regret(&cfg).to_bits()
            );
            for &x in slab.stored(0) {
                assert!(x == 0.0 || x.is_normal(), "stage {s}: S holds {x:e}");
            }
            // Column 0 is played (its bit is set) yet reads all-zero.
            flushed |= slab.played[0] & 1 == 1 && slab.stored(0)[..3] == [0.0; 3];
        });
        assert!(flushed, "no renormalisation ever flushed column 0");
    }
}
