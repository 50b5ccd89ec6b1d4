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
//!   arity / stage / pending / scale / row: one scalar per slot
//!                   │
//!    row[slot] = h  │
//!                   ▼
//!            row h                     row h+1                 …
//!   probs: [ p₀ … pₛ ]             [ p₀ … pₛ ]                 stride s
//!   freq:  [ f₀ … fₛ ]             [ f₀ … fₛ ]                 stride s, conditional only
//!   best:  [ b₀ … bₛ | d₀ … dₛ ]   [ b₀ … bₛ | d₀ … dₛ ]       stride 2s, on demand
//!   t:     [ col₀ | col₁ | … | colₛ ][ col₀ | col₁ | … ]       stride s², if s² · 8 B ≤ 4 KB
//!           └─ S(r,k) at k·s + r  (column-major per block)
//!   or t:  [ h₀ h₁ … hₛ ]            [ h₀ h₁ … hₛ ]            stride s, if s² · 8 B > 4 KB
//!           └─ S(r,k) at hₖ·s + r of the pool, while bit k is set
//!   played:[ column bitmask ]        [ column bitmask ]        ⌈s/64⌉ words
//!
//!   pool:  [ col | col | col | … ]   one column of s per played action
//!                                    of any slot, freed ones reused first
//! ```
//!
//! Only the scalars are **slot-addressed**. Every other column keeps one
//! row per slot in an arena that the slot reaches through one 4-byte
//! handle, `row[slot]`: its strategy, frequency and estimate rows, its
//! `S` (an unpacked block of `s²` floats, or a packed row of `s` column
//! handles) and its played-column bitmask are row `row[i]` of theirs. An
//! arrival takes the row past every handed-out one and a departure wipes
//! its `S` and leaves its row as a hole, so the handles stay strictly
//! increasing and a sweep streams every arena in its own order, as it
//! reads them every epoch. (Handing departed rows to arrivals measured
//! slower than moving survivors: the sweep then missed on every row.)
//! Once the holes outnumber a sixteenth of the slots,
//! [`LearnerSlab::remove_slots`] closes them in one ascending pass
//! ([`close_row_holes`]) that moves each survivor's rows, `S` and mask
//! together: an unpacked block's played columns (the mask walk), a packed
//! slot's handle row. A hole, and every row at or past the ones handed
//! out, reads as a fresh learner's block — mask clear, every column
//! `+0.0` — so an arrival on a row a pass has just emptied starts fresh.
//!
//! Per-slot calls look the handle up; a sharded phase
//! ([`LearnerSlab::split`]) hands each shard a view of its slots' rows
//! ([`Rows`]): the arena prefix itself while every handle still equals
//! its slot, else the arena and the handles. Because the handles
//! increase, a split at slot `mid` cuts every arena where row
//! `row[mid]` starts (`split_at_mut` proves the halves disjoint; no
//! `unsafe`, nothing gathered). The one thing a split gathers is a packed
//! slab's pool columns: a column's place in the pool follows the order of
//! first plays, not slot order (below).

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
//!   walk the mask, and so does the pass that closes row holes. In a
//!   packed slab (below) a never-played action has no column at all, and
//!   nothing reads a column before its first write (the load pass below).
//! * **One pool column per played action.** Where a block of `s²` floats
//!   would be larger than one 4 KB page (stride ≥ 23), the slab is
//!   **packed**: a block is a row of `s` column handles, and each played
//!   action's column, `s` floats, lives in one **column pool** for the
//!   whole slab, an arena that [`LearnerSlab::reserve`] reserves at `s`
//!   columns a slot and that only opening columns writes. The first play
//!   of `j` opens its column — the last one freed, or a new one at the
//!   arena's end, zeroed either way — writes its index into handle `j`
//!   and sets bit `j`; the rank-1 update then runs on it as on any other.
//!   A wipe (departure, release, reset, `ε = 1`) zeroes the slot's
//!   columns and frees them. So the pool holds exactly the played
//!   columns, the arena's length is their peak count, and resident T
//!   follows play: `played · s · 8 B` of columns and `s · 4 B` of handles
//!   a slot. Under regret tracking a slot settles on a few of its `m`
//!   actions, and a block of pages of its own commits at least one page
//!   however few it plays. Only the address of `S(·, k)` changes, never a
//!   float expression or its order; `best`, `diag` and the regret row
//!   stay action-indexed. A view split between shards holds no pool: a
//!   column's place in the pool follows the order in which the slab's
//!   slots first played their actions, not slot order, so no slice of the
//!   pool belongs to one shard, and the split gathers each slot's open
//!   columns, in ascending action order, into its shard's view (the one
//!   gather left in the slab). So the columns a phase's pending actions need
//!   are opened first ([`LearnerSlab::open_pending_columns`], in the
//!   order the observes would open them). **Geometry gate, not a
//!   setting:** a block of at most a page (stride ≤ 22) shares its pages
//!   with its neighbours, all of which are written within the first
//!   epochs, so a pool would buy nothing there and cost a handle load per
//!   column; such a slab addresses column `k` at `k · s` of its block, and
//!   commits every whole page of its T arena when `reserve` creates it:
//!   the first epoch reads each block before it writes it, so a lazy page
//!   took two faults (the shared zero page, then a copy-on-write).
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
//!   only a conditional learner's observe writes it, and only a slab
//!   that hosts one keeps the column: it does not exist until the first
//!   conditional observe ([`LearnerSlab::track_frequencies`]; the slab's
//!   own observe and the store's observe phase make it), which builds
//!   every live slot's row at the `1/m` that nothing but such an observe
//!   ever changes. From then on `alloc` and `reset_actions` write `1/m`,
//!   and clones and hole-closing passes copy the row, as they do the
//!   strategy row. A slab of unconditional learners (the default) never
//!   allocates the column, which would commit `stride · 8` bytes a slot.
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
//!   lone [`SlabLearner`] observes at once, with no pass. In a packed slab
//!   the pass also reads the slot's handles, one sequential row, and it
//!   reads open columns only: a never-played pending action has no column
//!   yet, and the one its first play opens may lie at the arena's end, on
//!   a page nothing has written, which a load would map twice (the shared
//!   zero page, then a copy-on-write). **Geometry gate, not a setting:**
//!   at a stride of at most 8 a block is eight consecutive lines, which
//!   the hardware already streams; the pass measured slower than no pass
//!   there, and does not run.
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
//!   store's column compaction). Compaction moves the row handle, not the
//!   rows: a departed slot's `S` is wiped (a packed slot's columns go back
//!   to the pool) and its row becomes a hole — churn costs `O(departed ·
//!   played · s + population)` an epoch, plus one pass over the rows per
//!   sixteenth of the population departed, not `O(population · s)` an
//!   epoch. After churn the row handles have gaps; nothing depends on
//!   which row a slot holds.
//! * **free-list mode** ([`SlabLearner`]s): [`alloc`](LearnerSlab::alloc)
//!   / [`release`](LearnerSlab::release) with stable slots; a released
//!   slot keeps its row, `S` wiped, so the handles stay the identity. A
//!   `SlabLearner` wraps one slot behind the [`Learner`] trait for owners
//!   that hold their learner by value; its per-slot calls index
//!   `row[slot]` directly and are `O(1)` in the slab size.

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

/// Whether a slab of this stride keeps its played columns in a column
/// pool (see the module docs): only a block larger than a page has pages
/// of its own to leave uncommitted.
#[inline]
fn packs(stride: usize) -> bool {
    stride * stride > PAGE
}

/// How many actions below `k` a played-column bitmask has set: the
/// position of column `k` among a split view's gathered columns.
#[inline]
fn rank(played: &[u64], k: usize) -> usize {
    let below: u32 = played[..k / 64].iter().map(|w| w.count_ones()).sum();
    (below + (played[k / 64] & ((1 << (k % 64)) - 1)).count_ones()) as usize
}

/// Writes zeros over the whole 4 KB pages of a fresh zeroed arena, split
/// across the workers, so that each of them faults once, here. The partial
/// page at its head already holds the allocator's chunk header; the one at
/// its tail stays lazy, as it would in a slab that never committed (a
/// page-multiple arena starts past a boundary and spills its last bytes
/// onto one more page). The zero is opaque: on memory it saw come zeroed
/// the compiler could drop a plain zero fill.
fn commit(arena: &mut [f64]) {
    let head = arena.as_ptr().align_offset(PAGE * 8).min(arena.len());
    let pages = (arena.len() - head) / PAGE;
    let whole = &mut arena[head..head + pages * PAGE];
    let shards = rths_par::threads().min(pages / rths_par::MIN_ITEMS_PER_WORKER).max(1);
    let zero = std::hint::black_box(0.0);
    let fill = |_, chunk: &mut [f64], _: &mut ()| chunk.fill(zero);
    rths_par::par_sharded(whole.len(), shards, whole, &mut vec![(); shards], fill);
}

/// Observes that run behind one pass of loads (see the module docs): the
/// block size of the store's observe sweep.
pub const OBSERVE_BATCH: usize = 8;

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

/// The number of actions a slot has played.
fn played_count(played: &[u64]) -> usize {
    played.iter().map(|w| w.count_ones()).sum::<u32>() as usize
}

/// A packed slab's column arena: the `stride`-long `S` columns of every
/// slot, each reached through its slot's handle row (module docs).
#[derive(Debug, Clone, Default)]
struct ColumnPool {
    /// The columns handed out, `stride` floats each: the open ones and
    /// the wiped ones on `free`. The capacity past them is reserved and
    /// never written, so its pages stay unmapped.
    cols: Vec<f64>,
    /// Wiped columns, handed out again (the last freed first) before the
    /// arena grows.
    free: Vec<u32>,
}

impl ColumnPool {
    /// Hands out a zeroed column: the last one freed, else a new one at
    /// the arena's end, whose zeros are the first write its page sees.
    fn open(&mut self, stride: usize) -> u32 {
        if let Some(h) = self.free.pop() {
            return h;
        }
        let h = u32::try_from(self.cols.len() / stride).expect("column pool passed u32::MAX");
        self.cols.resize(self.cols.len() + stride, 0.0);
        h
    }

    /// Zeroes column `h` and frees it.
    fn close(&mut self, h: u32, stride: usize) {
        self.cols[h as usize * stride..][..stride].fill(0.0);
        self.free.push(h);
    }
}

/// Where one slot's `S` columns are.
enum Columns<'s, 'a> {
    /// An unpacked block: action `k`'s column at `k · stride`, for every
    /// `k`.
    Block(&'s mut [f64]),
    /// A packed slot's handle row, and the pool that opens and frees its
    /// columns.
    Pool(&'s mut [u32], &'s mut ColumnPool),
    /// A packed slot in a split view: its played columns in ascending
    /// action order. It can neither open a column nor free one.
    Gathered(&'s mut [&'a mut [f64]]),
}

/// One slot's stored `S`: where its columns are and which actions it has
/// played. A never-played action's column is `+0.0` everywhere (module
/// docs); only an unpacked block stores one.
struct SlotS<'s, 'a> {
    cols: Columns<'s, 'a>,
    played: &'s mut [u64],
    stride: usize,
}

impl SlotS<'_, '_> {
    #[inline(always)]
    fn is_played(&self, k: usize) -> bool {
        self.played[k / 64] >> (k % 64) & 1 != 0
    }

    /// Played action `k`'s column (in an unpacked block, any `k`'s).
    #[inline(always)]
    fn column(&self, k: usize) -> &[f64] {
        let stride = self.stride;
        match &self.cols {
            Columns::Block(t) => &t[k * stride..(k + 1) * stride],
            Columns::Pool(handles, pool) => {
                &pool.cols[handles[k] as usize * stride..][..stride]
            }
            Columns::Gathered(cols) => cols[rank(self.played, k)],
        }
    }

    /// Played action `k`'s column, writable.
    #[inline(always)]
    fn column_mut(&mut self, k: usize) -> &mut [f64] {
        let stride = self.stride;
        match &mut self.cols {
            Columns::Block(t) => &mut t[k * stride..(k + 1) * stride],
            Columns::Pool(handles, pool) => {
                &mut pool.cols[handles[k] as usize * stride..][..stride]
            }
            Columns::Gathered(cols) => cols[rank(self.played, k)],
        }
    }

    /// Calls `f(k, column)` for every played action `k`, in ascending
    /// order.
    #[inline(always)]
    fn for_each(&self, mut f: impl FnMut(usize, &[f64])) {
        let stride = self.stride;
        match &self.cols {
            Columns::Block(t) => {
                for_each_played(self.played, |k| f(k, &t[k * stride..(k + 1) * stride]));
            }
            Columns::Pool(handles, pool) => for_each_played(self.played, |k| {
                f(k, &pool.cols[handles[k] as usize * stride..][..stride]);
            }),
            Columns::Gathered(cols) => {
                let mut n = 0;
                for_each_played(self.played, |k| {
                    f(k, cols[n]);
                    n += 1;
                });
            }
        }
    }

    /// Calls `f` on every played column; returns how many there are.
    #[inline(always)]
    fn for_each_mut(&mut self, mut f: impl FnMut(&mut [f64])) -> u64 {
        let stride = self.stride;
        match &mut self.cols {
            Columns::Block(t) => {
                for_each_played(self.played, |k| f(&mut t[k * stride..(k + 1) * stride]));
            }
            Columns::Pool(handles, pool) => for_each_played(self.played, |k| {
                f(&mut pool.cols[handles[k] as usize * stride..][..stride]);
            }),
            Columns::Gathered(cols) => cols.iter_mut().for_each(|column| f(column)),
        }
        played_count(self.played) as u64
    }

    /// Opens action `j`'s column for a rank-1 update; returns whether this
    /// took a column from the pool. The first play of `j` sets its bit
    /// and, in a packed slot, writes one handle: a zeroed column from the
    /// pool. A split view has no pool, so it holds the columns that were
    /// open when it was split, and a first play through it panics
    /// ([`LearnerSlab::open_pending_columns`] opens them before a split).
    #[inline(always)]
    fn open(&mut self, j: usize) -> bool {
        let first = !self.is_played(j);
        self.played[j / 64] |= 1 << (j % 64);
        match &mut self.cols {
            Columns::Pool(handles, pool) if first => {
                handles[j] = pool.open(self.stride);
                true
            }
            Columns::Gathered(_) => {
                assert!(!first, "a split slab view cannot open a column: open it first");
                false
            }
            _ => false,
        }
    }

    /// Zeroes the slot's played columns and clears its bitmask; returns
    /// the number of columns wiped. A packed slot's columns go back to
    /// the pool. A split view cannot free them: it zeroes them and leaves
    /// them open, bits set, where they read as the `+0.0` of a
    /// never-played column, until the slot's next departure, reset or
    /// whole-view wipe frees them.
    #[inline(always)]
    fn wipe(&mut self) -> u64 {
        let stride = self.stride;
        let wiped = match &mut self.cols {
            Columns::Pool(handles, pool) => {
                for_each_played(self.played, |k| pool.close(handles[k], stride));
                played_count(self.played) as u64
            }
            _ => self.for_each_mut(|column| column.fill(0.0)),
        };
        if !matches!(self.cols, Columns::Gathered(_)) {
            self.played.fill(0);
        }
        wiped
    }

    /// The load pass for this slot about to observe action `j`: reads one
    /// scalar from each cache line of column `j`'s first `m` entries (what
    /// the rank-1 update reads and writes) and element `j` of every played
    /// column (what the Eq. 3-6 row gather reads), and returns their bits
    /// folded together. The loads are independent of one another and of
    /// any arithmetic, so a batch of slots has all of them in flight at
    /// once and the updates that follow find their lines in cache.
    ///
    /// It reads open columns only. In a packed slot an unplayed `j` has no
    /// column yet: the one its first play opens may be a new one at the
    /// arena's end, on a page nothing has written, where a read would map
    /// the shared zero page for the opening write to copy (two faults
    /// where the write alone takes one). An unpacked arena is committed at
    /// [`LearnerSlab::reserve`].
    ///
    /// Nothing is stored, and the caller hands the fold to
    /// [`std::hint::black_box`] and drops it: no float of any trajectory
    /// can depend on this routine or on whether it ran.
    ///
    /// Forced inline, with the walks it calls: left to the inliner, it
    /// made a slab sweep at m = 10 (unpacked blocks) ≈ 5 % slower per
    /// observe on a 2-vCPU x86-64 host.
    #[inline(always)]
    fn touch(&self, m: usize, j: usize) -> u64 {
        let (stride, mut fold) = (self.stride, 0);
        if let Columns::Block(t) = &self.cols {
            // Offsets into the block, not column slices: with a bounds
            // check per slice the pass measured ≈ 5 % slower end to end
            // at m = 10.
            for r in (0..m).step_by(LINE) {
                fold ^= t[j * stride + r].to_bits();
            }
            for_each_played(self.played, |k| fold ^= t[k * stride + j].to_bits());
            return fold;
        }
        if self.is_played(j) {
            let column = self.column(j);
            for r in (0..m).step_by(LINE) {
                fold ^= column[r].to_bits();
            }
        }
        self.for_each(|_, column| fold ^= column[j].to_bits());
        fold
    }
}

/// Multiplies stored entries by the exact power of two
/// [`lazy::RENORM_BELOW`] and flushes what that made subnormal.
fn renormalise(xs: &mut [f64]) {
    kernels::scale(xs, lazy::RENORM_BELOW);
    for x in xs {
        *x = lazy::flush_subnormal(*x);
    }
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
fn apply_decay(step: Decay, t: &mut SlotS, best: Option<&mut [f64]>) -> u64 {
    match step {
        Decay::Keep => 0,
        Decay::Renormalise => {
            if let Some(best) = best {
                renormalise(best);
            }
            t.for_each_mut(renormalise)
        }
        Decay::Wipe => {
            if let Some(best) = best {
                best.fill(0.0);
            }
            t.wipe()
        }
    }
}

/// Gathers one slot's diagonal `S(r, r)`, `r < diag.len()`, into `diag`:
/// the played entries are loaded, a never-played column's is the `+0.0`
/// it holds.
fn gather_diagonal(t: &SlotS, diag: &mut [f64]) {
    diag.fill(0.0);
    t.for_each(|k, column| diag[k] = column[k]);
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
fn max_regret_in(t: &SlotS, m: usize, factor: f64, diag: &mut Vec<f64>) -> f64 {
    diag.clear();
    diag.resize(m, 0.0);
    gather_diagonal(t, diag);
    let mut max = f64::NEG_INFINITY;
    t.for_each(|_, column| {
        max = max.max(kernels::shifted_regret_max(&column[..m], diag, factor));
    });
    if !all_played(t.played, m) {
        for &d in diag.iter() {
            max = max.max((factor * (0.0 - d)).max(0.0));
        }
    }
    finite_regret(max)
}

/// Builds one slot's row maxima from nothing: `best[r] = max_k S(r, k)`
/// over its `m = best.len()` columns, by a scan of the played ones; the
/// never-played ones count as the `+0.0` they hold.
fn rebuild_row_maxima(t: &SlotS, best: &mut [f64]) {
    let m = best.len();
    best.fill(if all_played(t.played, m) { f64::NEG_INFINITY } else { 0.0 });
    t.for_each(|_, column| kernels::max_assign(best, &column[..m]));
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
/// `pending`, `scale` and `row` — all that a compaction copies for a
/// relocated slot.
const SLOT_SCALAR_BYTES: usize = 4 * size_of::<u32>() + size_of::<f64>();

/// Row `r` of an arena of `width`-scalar rows, as a one-slot view.
fn one_row<T>(arena: &mut [T], width: usize, r: usize) -> Rows<'_, T> {
    Rows::Aligned(Strided::new(width, &mut arena[r * width..(r + 1) * width]))
}

/// The row-addressed arenas a slab keeps, each with its row width in
/// scalars: `probs`, then `freq` and `best` when they exist.
fn row_arenas<'a>(
    probs: &'a mut Vec<f64>,
    freq: &'a mut Option<Vec<f64>>,
    best: &'a mut Option<Vec<f64>>,
    stride: usize,
) -> impl Iterator<Item = (&'a mut Vec<f64>, usize)> {
    let optional = [(freq.as_mut(), stride), (best.as_mut(), 2 * stride)];
    std::iter::once((probs, stride))
        .chain(optional.into_iter().filter_map(|(arena, width)| Some((arena?, width))))
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

/// Where a slab keeps its slots' `S`, one block per row: fixed at
/// construction by the geometry gate (module docs).
#[derive(Debug, Clone)]
enum TStore {
    /// Stride ≤ 22: `stride²` floats per block, action `k`'s column at
    /// `k · stride`.
    Blocks(Vec<f64>),
    /// Stride ≥ 23: `stride` column handles per block, entry `k` naming
    /// action `k`'s column of `pool` while bit `k` of the block's mask is
    /// set (meaningless otherwise).
    Packed { handles: Vec<u32>, pool: ColumnPool },
}

impl TStore {
    fn new(stride: usize) -> Self {
        if packs(stride) {
            TStore::Packed { handles: Vec::new(), pool: ColumnPool::default() }
        } else {
            TStore::Blocks(Vec::new())
        }
    }

    /// Makes room for `rows` blocks in a slab that has handed out no row.
    /// An unpacked arena is created zeroed and committed, a packed one
    /// reserves its column arena for `stride` columns a block and leaves
    /// it unmapped.
    fn create(&mut self, rows: usize, stride: usize) {
        match self {
            TStore::Blocks(t) => {
                *t = vec![0.0; rows * stride * stride];
                commit(t);
            }
            TStore::Packed { handles, pool } => {
                *handles = vec![0; rows * stride];
                let want = rows * stride * stride;
                pool.cols.reserve_exact(want.saturating_sub(pool.cols.len()));
            }
        }
    }

    /// Grows a live slab's arena to `rows` blocks (a packed one grows its
    /// handle rows and reserves its pool; columns grow as they open).
    fn grow(&mut self, rows: usize, stride: usize) {
        match self {
            TStore::Blocks(t) => t.resize(rows * stride * stride, 0.0),
            TStore::Packed { handles, pool } => {
                handles.resize(rows * stride, 0);
                pool.cols.reserve((rows * stride * stride).saturating_sub(pool.cols.len()));
            }
        }
    }

    /// Row `r`'s `S`, whose bitmask is `played`.
    fn slot<'s>(&'s mut self, r: usize, played: &'s mut [u64], stride: usize) -> SlotS<'s, 's> {
        let cols = match self {
            TStore::Blocks(t) => {
                Columns::Block(&mut t[r * stride * stride..][..stride * stride])
            }
            TStore::Packed { handles, pool } => {
                Columns::Pool(&mut handles[r * stride..][..stride], pool)
            }
        };
        SlotS { cols, played, stride }
    }

    /// Moves row `from`'s `S`, whose bitmask is `played`, to row `to`,
    /// which reads as a fresh block, and leaves `from` reading as one
    /// once the caller clears its mask: an unpacked block's played columns
    /// are copied and zeroed (the mask walk, not all `stride²` floats), a
    /// packed block's handle row is copied. Returns the bytes copied.
    fn move_row(&mut self, from: usize, to: usize, played: &[u64], stride: usize) -> usize {
        match self {
            TStore::Blocks(t) => {
                let area = stride * stride;
                for_each_played(played, |k| {
                    let column = from * area + k * stride..from * area + (k + 1) * stride;
                    t.copy_within(column.clone(), to * area + k * stride);
                    t[column].fill(0.0);
                });
                played_count(played) * stride * size_of::<f64>()
            }
            TStore::Packed { handles, .. } => {
                handles.copy_within(from * stride..(from + 1) * stride, to * stride);
                stride * size_of::<u32>()
            }
        }
    }

    /// The first `rows` blocks as a phase's view: block `handles[i]` is
    /// item `i`'s ([`Rows::by_handle`]).
    fn view<'s>(
        &'s mut self,
        rows: usize,
        stride: usize,
        handles: &'s [u32],
        aligned: bool,
    ) -> TCols<'s> {
        match self {
            TStore::Blocks(t) => {
                let area = stride * stride;
                TCols::Blocks(Rows::by_handle(area, &mut t[..rows * area], handles, aligned))
            }
            TStore::Packed { handles: handle_rows, pool } => TCols::Pool {
                handles: Rows::by_handle(
                    stride,
                    &mut handle_rows[..rows * stride],
                    handles,
                    aligned,
                ),
                pool,
            },
        }
    }
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
    /// The slots' `S`, one block per row: `stride²` floats, or `stride`
    /// column handles into a column pool. Indexed by `row[slot]`, like
    /// `played`, `probs`, `freq` and `best`.
    t: TStore,
    /// Strategy rows, `stride` scalars each.
    probs: Vec<f64>,
    /// Play-frequency rows, `stride` scalars each. `None` until a
    /// conditional learner first observes
    /// ([`track_frequencies`](Self::track_frequencies)).
    freq: Option<Vec<f64>>,
    /// Played-column bitmasks, `words` per row.
    played: Vec<u64>,
    arity: Vec<u32>,
    /// Stages observed per slot, `u32`: an observe that would pass
    /// `u32::MAX` panics instead.
    stage: Vec<u32>,
    pending: Vec<u32>,
    /// Lazy decay factor per slot: the proxy matrix is `scale · S`
    /// (see [`crate::lazy`]). Meaningless on a free-listed slot (a
    /// batched decay does not skip those); `alloc` restarts it at 1.
    scale: Vec<f64>,
    /// Row handle per slot: the slot's `S`, bitmask and rows of `probs`,
    /// `freq` and `best` are row `row[slot]` of theirs. Strictly
    /// increasing in slot order, so a sweep over the slots streams every
    /// arena in its own order, holes aside.
    row: Vec<u32>,
    /// Rows handed out: every live slot's, plus the holes departed slots
    /// left behind, which [`remove_slots`](Self::remove_slots) closes
    /// once they outnumber a sixteenth of the live slots. Every arena is
    /// as long as the same number of rows, and a hole or a row at or past
    /// `rows_used` reads as a fresh learner's block: mask clear, columns
    /// `+0.0`.
    rows_used: usize,
    /// Released slots (free-list mode); each keeps its row, `S` wiped.
    free: Vec<u32>,
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
        assert!(stride > 0, "slab stride must be positive");
        Self {
            stride,
            words: stride.div_ceil(64),
            t: TStore::new(stride),
            probs: Vec::new(),
            freq: None,
            played: Vec::new(),
            arity: Vec::new(),
            stage: Vec::new(),
            pending: Vec::new(),
            scale: Vec::new(),
            row: Vec::new(),
            rows_used: 0,
            free: Vec::new(),
            best: None,
        }
    }

    /// An empty slab with zeroed backing storage for `slots` slots:
    /// [`new`](Self::new), then [`reserve`](Self::reserve).
    pub fn with_capacity(stride: usize, slots: usize) -> Self {
        let mut slab = Self::new(stride);
        slab.reserve(slots);
        slab
    }

    /// Ensures zeroed backing storage for `additional` more slots beyond
    /// the rows handed out (the live slots and the holes, which arrivals
    /// do not fill): on a slab that has handed out none, one fresh
    /// `alloc_zeroed` per column, so that [`alloc`](Self::alloc) only
    /// initialises a slot's probability prefix; on a live slab a
    /// zero-extending resize. A fresh T arena that does not pack (stride
    /// ≤ 22) has its whole pages committed here across the workers, each
    /// once (lazy, the first epoch faulted them twice: module docs). A
    /// packed slab reserves room for `stride` columns a slot in its column
    /// arena and writes none of it: a column's page is mapped when the
    /// column first opens.
    pub fn reserve(&mut self, additional: usize) {
        let rows = self.rows_used + additional;
        if rows * self.words <= self.played.len() {
            return;
        }
        if self.rows_used == 0 {
            self.t.create(rows, self.stride);
            self.played = vec![0; rows * self.words];
            let Self { probs, freq, best, stride, .. } = self;
            for (arena, width) in row_arenas(probs, freq, best, *stride) {
                *arena = vec![0.0; rows * width];
            }
        } else {
            self.grow_rows(rows);
        }
        self.arity.reserve(additional);
        self.stage.reserve(additional);
        self.pending.reserve(additional);
        self.scale.reserve(additional);
        self.row.reserve(additional);
    }

    /// Zero-extends every row-addressed arena — T, the masks, `probs`,
    /// `freq` and `best` — to `rows` rows.
    fn grow_rows(&mut self, rows: usize) {
        self.t.grow(rows, self.stride);
        self.played.resize(rows * self.words, 0);
        let Self { probs, freq, best, stride, .. } = self;
        for (arena, width) in row_arenas(probs, freq, best, *stride) {
            arena.resize(rows * width, 0.0);
        }
    }

    /// The fixed per-slot stride (maximum hostable arity).
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Total slots, including free-listed ones.
    pub(crate) fn num_slots(&self) -> usize {
        self.arity.len()
    }

    /// Slots currently on the free list.
    pub(crate) fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Allocates a slot initialised to the uniform fresh-learner state
    /// (`T = 0`, `p = f = 1/m`, stage 0, nothing pending). Reuses the
    /// most recently released slot, and its row, if one exists; otherwise
    /// appends a slot on the row past every handed-out one, growing the
    /// arenas only past their pre-zeroed backing. A slot starts with no
    /// column open: in a packed slab its first play of each action takes
    /// one from the column pool.
    ///
    /// # Panics
    ///
    /// Panics if `num_actions` is zero or exceeds the stride.
    pub fn alloc(&mut self, num_actions: usize) -> u32 {
        assert!(num_actions > 0, "slab slot needs at least one action");
        assert!(num_actions <= self.stride, "action count {num_actions} exceeds slab stride");
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                // A new slot comes last in slot order, so it takes the
                // row past every handed-out one. Inside the pre-zeroed
                // region ([`with_capacity`]/[`reserve`]) the storage
                // already exists.
                let (s, row) = (self.arity.len(), self.rows_used);
                self.rows_used += 1;
                if self.rows_used * self.words > self.played.len() {
                    self.grow_rows(self.rows_used);
                }
                self.arity.push(0);
                self.stage.push(0);
                self.pending.push(NO_PENDING);
                self.scale.push(1.0);
                self.row.push(row as u32);
                s
            }
        };
        // A released slot's T columns and bitmask were wiped (a packed
        // slot's columns freed), and a row past `rows_used` reads as a
        // fresh block (module docs), so they need no work; only the
        // uniform prefix, the lazy scale and the estimate row (a departed
        // learner's may linger in a row a pass vacated) do.
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
        if let Some(freq) = &mut self.freq {
            freq[base..base + num_actions].fill(p);
        }
        if let Some(best) = &mut self.best {
            best[2 * base..2 * (base + self.stride)].fill(0.0);
        }
    }

    /// Returns a slot to the free list, restoring the all-zero T /
    /// cleared-bitmask invariant `alloc` relies on: a packed slot's
    /// columns are zeroed and go back to the column pool. The slot keeps
    /// its row.
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
    /// `O(stride²)`; a packed copy opens a pool column for each).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or free.
    pub(crate) fn clone_slot(&mut self, src: u32) -> u32 {
        let src = src as usize;
        assert!(src < self.arity.len(), "slot out of range");
        let m = self.arity[src] as usize;
        assert!(m > 0, "cannot clone a freed slot");
        let dst = self.alloc(m) as usize;
        let (stride, words) = (self.stride, self.words);
        let (from, to) = (self.row[src] as usize, self.row[dst] as usize);
        self.played.copy_within(from * words..(from + 1) * words, to * words);
        let played = &self.played[to * words..(to + 1) * words];
        match &mut self.t {
            TStore::Blocks(t) => {
                let area = stride * stride;
                for_each_played(played, |k| {
                    let c = k * stride;
                    t.copy_within(from * area + c..from * area + c + stride, to * area + c);
                });
            }
            TStore::Packed { handles, pool } => for_each_played(played, |k| {
                let (h, c) = (pool.open(stride) as usize, handles[from * stride + k] as usize);
                pool.cols.copy_within(c * stride..(c + 1) * stride, h * stride);
                handles[to * stride + k] = h as u32;
            }),
        }
        for (arena, width) in
            row_arenas(&mut self.probs, &mut self.freq, &mut self.best, stride)
        {
            arena.copy_within(from * width..(from + 1) * width, to * width);
        }
        self.stage[dst] = self.stage[src];
        self.pending[dst] = self.pending[src];
        self.scale[dst] = self.scale[src];
        dst as u32
    }

    /// Removes the given slots with an **order-preserving compaction**
    /// of the per-slot scalars, mirroring `PeerStore::remove_slots` so
    /// slab slots stay aligned with store slots. Each survivor carries
    /// its row handle down with it, so no row of it moves: each departed
    /// slot's `S` is wiped (played columns and bitmask; a packed slot's
    /// columns go back to the pool) and its row is left as a hole. Once
    /// the holes outnumber a sixteenth of the survivors, one ascending
    /// pass closes them (the module docs), moving each survivor's rows,
    /// its `S` and its bitmask together. Returns the bytes copied — five
    /// scalars per relocated slot, and what such a pass moved — and the T
    /// columns the wipes zeroed.
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
        }
        compact_column(&mut self.arity, sorted);
        compact_column(&mut self.stage, sorted);
        compact_column(&mut self.pending, sorted);
        compact_column(&mut self.scale, sorted);
        compact_column(&mut self.row, sorted);
        let kept = self.arity.len();
        // Everything from the first departure on was relocated.
        let mut moved = (kept - sorted[0] as usize) * SLOT_SCALAR_BYTES;
        let Self { t, played, probs, freq, best, row, rows_used, stride, words, .. } = self;
        let closed = close_row_holes(row, *rows_used, |from, to| {
            for (arena, width) in row_arenas(probs, freq, best, *stride) {
                arena.copy_within(from * width..(from + 1) * width, to * width);
                moved += width * size_of::<f64>();
            }
            let mask = from * *words..(from + 1) * *words;
            moved += t.move_row(from, to, &played[mask.clone()], *stride);
            played.copy_within(mask.clone(), to * *words);
            played[mask].fill(0);
            moved += *words * size_of::<u64>();
        });
        if closed.is_some() {
            *rows_used = kept;
        }
        (moved, wiped)
    }

    /// Reinitialises a slot for a new action count (channel switch) —
    /// same semantics (and panics) as `RthsState::reset_actions`. The
    /// slot keeps its row, `S` wiped in place (a packed slot's columns go
    /// back to the pool).
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
    /// module docs), so that `max_regret` and
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
            let r = self.row[slot] as usize;
            let t = self.slot_s(slot);
            let (maxima, diag) = best[2 * r * stride..].split_at_mut(stride);
            rebuild_row_maxima(&t, &mut maxima[..m]);
            gather_diagonal(&t, &mut diag[..m]);
        }
        self.best = Some(best);
    }

    /// Starts keeping every slot's play frequencies, the rows conditional
    /// normalisation reads (module docs). Until a conditional learner
    /// observes, nothing changes them from the `1/m` that
    /// [`alloc`](Self::alloc) and [`reset_actions`](Self::reset_actions)
    /// would have written, so that is what the rows are built with. A
    /// conditional observe through `observe` makes them;
    /// one through [`split`](Self::split) needs them made first.
    /// Idempotent and free when already on.
    pub fn track_frequencies(&mut self) {
        if self.freq.is_some() {
            return;
        }
        let stride = self.stride;
        let mut freq = vec![0.0; self.probs.len()];
        for (&m, &r) in self.arity.iter().zip(&self.row) {
            // A free-listed slot has arity 0: an empty row, nothing built.
            let base = r as usize * stride;
            freq[base..base + m as usize].fill(1.0 / m as f64);
        }
        self.freq = Some(freq);
    }

    /// The slot's stored `S`.
    fn slot_s(&mut self, slot: usize) -> SlotS<'_, '_> {
        let (r, words) = (self.row[slot] as usize, self.words);
        self.t.slot(r, &mut self.played[r * words..(r + 1) * words], self.stride)
    }

    /// Zeroes the slot's played columns and clears its bitmask (a packed
    /// slot's columns go back to the pool); returns the number of columns
    /// zeroed.
    fn wipe_t(&mut self, slot: usize) -> u64 {
        self.slot_s(slot).wipe()
    }

    /// Borrows one slot as a single-slot [`SlabCols`] chunk (the slot is
    /// index 0 of it), through its row handle — `O(1)` whatever the
    /// slab's size, so per-slot callers share the sharded phases' update.
    fn slot_cols(&mut self, slot: usize) -> SlabCols<'_> {
        let (r, stride, words) = (self.row[slot] as usize, self.stride, self.words);
        SlabCols {
            stride,
            t: self.t.view(self.rows_used, stride, &self.row[slot..=slot], false),
            freq: self.freq.as_mut().map(|freq| one_row(freq, stride, r)),
            played: one_row(&mut self.played, words, r),
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
    #[cfg(test)]
    pub(crate) fn num_actions(&self, slot: usize) -> usize {
        self.arity[slot] as usize
    }

    /// The slot's current mixed strategy.
    pub fn probabilities(&self, slot: usize) -> &[f64] {
        let base = self.row[slot] as usize * self.stride;
        &self.probs[base..base + self.arity[slot] as usize]
    }

    /// The slot's recency-weighted play frequencies, if the slab keeps
    /// them ([`track_frequencies`](Self::track_frequencies)). Only a
    /// conditional learner updates them, because conditional
    /// normalisation reads them; any other learner's stay at the uniform
    /// `1/m`.
    #[cfg(test)]
    pub(crate) fn play_frequencies(&self, slot: usize) -> Option<&[f64]> {
        let base = self.row[slot] as usize * self.stride;
        Some(&self.freq.as_ref()?[base..base + self.arity[slot] as usize])
    }

    /// Stages the slot has observed.
    pub fn stage(&self, slot: usize) -> u64 {
        u64::from(self.stage[slot])
    }

    /// The slot's action awaiting observation, if any.
    pub(crate) fn pending_action(&self, slot: usize) -> Option<usize> {
        let p = self.pending[slot];
        (p != NO_PENDING).then_some(p as usize)
    }

    /// Stored entry `S(j, k)` of a slot: `+0.0` in a never-played column.
    fn stored_entry(&self, slot: usize, j: usize, k: usize) -> f64 {
        let (r, stride) = (self.row[slot] as usize, self.stride);
        if self.played[r * self.words + k / 64] >> (k % 64) & 1 == 0 {
            return 0.0;
        }
        match &self.t {
            TStore::Blocks(t) => t[(r * stride + k) * stride + j],
            TStore::Packed { handles, pool } => {
                pool.cols[handles[r * stride + k] as usize * stride + j]
            }
        }
    }

    /// Proxy-matrix entry `T(j, k)` of a slot.
    #[cfg(test)]
    pub(crate) fn proxy(&self, slot: usize, j: usize, k: usize) -> f64 {
        let m = self.arity[slot] as usize;
        assert!(j < m && k < m, "proxy index out of range");
        self.scale[slot] * self.stored_entry(slot, j, k)
    }

    /// Regret `Qⁿ(j, k)` of a slot (Eq. 3-6; tests/diagnostics) — the
    /// expression of `RthsState::regret`.
    pub(crate) fn regret(&self, slot: usize, config: &RthsConfig, j: usize, k: usize) -> f64 {
        if j == k {
            return 0.0;
        }
        let m = self.arity[slot] as usize;
        assert!(j < m && k < m, "regret index out of range");
        let factor = factor_for(config, u64::from(self.stage[slot])) * self.scale[slot];
        (factor * (self.stored_entry(slot, j, k) - self.stored_entry(slot, j, j))).max(0.0)
    }

    /// Borrows every column as a [`SlabCols`] bundle for a sharded
    /// parallel phase. `O(1)`: every arena is handed over with the row
    /// handles, and a shard gets the rows of its slot range by slicing
    /// ([`Rows::by_handle`]: the arena prefixes themselves while every
    /// handle still equals its slot). Per-slot callers use the methods on
    /// the slab itself, which look up one handle.
    ///
    /// The whole view opens columns itself, from the slab's column pool.
    /// A view split between shards holds no pool: each shard gets the
    /// columns its slots have open, gathered once, at the split — a pool
    /// column's place follows the order of first plays, not slot order,
    /// so no slice of the pool belongs to one shard. The columns a
    /// pending action needs have to be open before the view is split
    /// ([`open_pending_columns`](Self::open_pending_columns)).
    ///
    /// # Panics
    ///
    /// Splitting the bundle between shards panics if two slots share a
    /// row or a column (a broken slab invariant). Observing an action
    /// whose column is not open through a split view panics.
    pub fn split(&mut self) -> SlabCols<'_> {
        // Only the handed-out rows are viewed — the arenas may carry extra
        // pre-zeroed backing beyond them.
        let (stride, words, rows, row) = (self.stride, self.words, self.rows_used, &self.row);
        let aligned = increasing_aligned(row);
        SlabCols {
            stride,
            t: self.t.view(rows, stride, row, aligned),
            freq: self
                .freq
                .as_mut()
                .map(|freq| Rows::by_handle(stride, &mut freq[..rows * stride], row, aligned)),
            played: Rows::by_handle(words, &mut self.played[..rows * words], row, aligned),
            stage: &mut self.stage,
            scale: &mut self.scale,
            best: self.best.as_mut().map(|best| {
                Rows::by_handle(2 * stride, &mut best[..2 * rows * stride], row, aligned)
            }),
            strategy: StrategyCols {
                probs: Rows::by_handle(stride, &mut self.probs[..rows * stride], row, aligned),
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

    /// Opens the column of every slot's pending action that has none, in
    /// slot order, as the slot's observe would: so that a view split
    /// between shards, which cannot open one, finds each open. The floats
    /// are those of the observes opening them; the column handles too,
    /// since the observes would open them in the same order. Returns the
    /// number of columns opened; an unpacked slab, whose blocks hold
    /// every column, opens none.
    pub fn open_pending_columns(&mut self) -> u64 {
        if !packs(self.stride) {
            return 0;
        }
        let mut opened = 0;
        for slot in 0..self.pending.len() {
            if let Some(j) = self.pending_action(slot) {
                opened += u64::from(self.slot_s(slot).open(j));
            }
        }
        opened
    }

    /// Samples an action for a slot (see `RthsState::select_action`).
    ///
    /// # Panics
    ///
    /// Panics if an observation is already pending.
    pub(crate) fn select_action<R: RngCore + ?Sized>(
        &mut self,
        slot: usize,
        rng: &mut R,
    ) -> usize {
        self.slot_cols(slot).select_action(0, rng)
    }

    /// Feeds a slot's pending utility through the full update (see
    /// `RthsState::observe`). Returns whether it opened a packed column
    /// (see [`SlabCols::observe_predecayed`]). A conditional learner's
    /// first observe turns on the slab's play frequencies
    /// ([`track_frequencies`](Self::track_frequencies)).
    ///
    /// # Panics
    ///
    /// Panics if no action is pending or `utility` is not finite.
    pub(crate) fn observe(&mut self, slot: usize, config: &RthsConfig, utility: f64) -> bool {
        if config.conditional() {
            self.track_frequencies();
        }
        self.slot_cols(slot).observe_inner(0, config, utility, false)
    }

    /// Largest derived regret of a slot, read from the maintained row
    /// maxima and diagonal — which this first request turns on
    /// ([`track_estimates`](Self::track_estimates)).
    pub(crate) fn max_regret(&mut self, slot: usize, config: &RthsConfig) -> f64 {
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
    pub(crate) fn len(&self) -> usize {
        self.arity.len()
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
}

/// One slot's state beside its `S`, as an observe reaches it: its
/// strategy (`m` entries), its play frequencies (`m`, when the observe is
/// conditional), its estimate row (when the slab keeps them), its lazy
/// scale and its stage (already advanced).
struct SlotRows<'s> {
    probs: &'s mut [f64],
    freq: Option<&'s mut [f64]>,
    best: Option<&'s mut [f64]>,
    scale: &'s mut f64,
    stage: u64,
}

/// The body of [`SlabCols::observe_predecayed`] for one slot that played
/// `j`: the rank-1 update, then the played row of Eq. (3-6) and the next
/// strategy in one pass over the played columns (module docs). Returns
/// whether it opened a pool column. Forced inline into each layout's arm
/// of `on_slot!`, so that no layout branch runs inside it.
#[inline(always)]
fn observe_slot(
    mut t: SlotS,
    rows: SlotRows,
    j: usize,
    config: &RthsConfig,
    utility: f64,
    predecayed: bool,
) -> bool {
    let SlotRows { probs, mut freq, mut best, scale, stage } = rows;
    let (m, stride) = (probs.len(), t.stride);
    // Eq. (3-5): T ← decay(T); column j += (u/pⁿ(j)) · pⁿ — with
    // T = scale · S the decay goes into `scale` and the rank-1
    // coefficient is divided by it.
    if !predecayed && config.recency() == RecencyMode::Exponential {
        let step = lazy::decay(scale, 1.0 - config.epsilon());
        if step != Decay::Keep {
            apply_decay(step, &mut t, best.as_deref_mut());
        }
    }
    let p_j = probs[j];
    debug_assert!(p_j > 0.0, "played action had zero probability");
    let coef = utility / p_j / *scale;
    let opened = t.open(j);
    kernels::axpy(&mut t.column_mut(j)[..m], coef, &probs[..m]);
    let column_j = t.column(j);
    if let Some(best) = best {
        let (best, diag) = best.split_at_mut(stride);
        if coef >= 0.0 {
            // `coef ≥ 0` lowers no entry of column j (probabilities
            // are positive), so each row's maximum is its old one or
            // the new entry.
            kernels::max_assign(&mut best[..m], &column_j[..m]);
        } else {
            rebuild_row_maxima(&t, &mut best[..m]);
        }
        // The one diagonal entry the update wrote.
        diag[j] = column_j[j];
    }

    // Play-frequency average (same weighting scheme as T). Only
    // conditional normalisation reads it, so only a conditional
    // learner keeps it.
    if let Some(freq) = &mut freq {
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
    let s_jj = column_j[j];
    let cap = 1.0 / (m as f64 - 1.0);
    let floor = policy::exploration_floor(m, delta);
    let f_j = freq.map(|freq| freq[j].max(floor));
    let prob = |s_jk: f64| {
        let mut q = (factor * (s_jk - s_jj)).max(0.0);
        if let Some(f_j) = f_j {
            q /= f_j;
        }
        (1.0 - delta) * (q.max(0.0) / mu).min(cap) + floor
    };
    match &t.cols {
        Columns::Block(block) if stride <= DENSE_GATHER_MAX_STRIDE => {
            for (k, p) in probs.iter_mut().enumerate() {
                *p = prob(block[k * stride + j]);
            }
        }
        _ => {
            probs.fill(prob(0.0));
            t.for_each(|k, column| probs[k] = prob(column[j]));
        }
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

/// Runs `$run` with `$t` bound to slot `$i`'s [`SlotS`] in whichever
/// layout the phase view `$view` holds, `$played` its bitmask. Each arm
/// builds its slot with a known layout, so once `$run` is inlined no
/// layout branch runs inside it (one `SlotS` built behind a merged match
/// left them all in: an unpacked observe measured ≈ 10 % slower).
macro_rules! on_slot {
    ($view:expr, $i:expr, $played:expr, $stride:expr, $t:ident => $run:expr) => {
        match $view {
            TCols::Blocks(rows) => {
                #[allow(unused_mut)]
                let mut $t = SlotS {
                    cols: Columns::Block(rows.row($i)),
                    played: $played,
                    stride: $stride,
                };
                $run
            }
            TCols::Pool { handles, pool } => {
                let cols = Columns::Pool(handles.row($i), &mut **pool);
                #[allow(unused_mut)]
                let mut $t = SlotS { cols, played: $played, stride: $stride };
                $run
            }
            TCols::Gathered { cols, ends, base } => {
                let start = if $i == 0 { *base } else { ends[$i - 1] };
                let cols = Columns::Gathered(&mut cols[start - *base..ends[$i] - *base]);
                #[allow(unused_mut)]
                let mut $t = SlotS { cols, played: $played, stride: $stride };
                $run
            }
        }
    };
}

/// A phase's view of the slots' `S`.
#[derive(Debug)]
enum TCols<'a> {
    /// Unpacked: each slot's block.
    Blocks(Rows<'a, f64>),
    /// Packed, whole: each slot's handle row, and the column pool, which
    /// opens and frees columns.
    Pool { handles: Rows<'a, u32>, pool: &'a mut ColumnPool },
    /// Packed, split between shards: every slot's played columns in slot
    /// order, each slot's in ascending action order — gathered, because a
    /// pool column's place follows first-play order, not slot order.
    /// `ends[i]` is where slot `i`'s end, counted from the first column of
    /// the whole view, whose index is `base` (slot `i` starts where slot
    /// `i − 1` ends, the first slot at `base`).
    Gathered { cols: Vec<&'a mut [f64]>, ends: Vec<usize>, base: usize },
}

impl TCols<'_> {
    /// Splits a view of `len` slots, whose bitmasks are `played`, at slot
    /// `mid`. A packed view split between shards gathers each slot's
    /// played columns first: the shards then share no pool.
    fn shard_split(
        self,
        mid: usize,
        played: &mut Rows<'_, u64>,
        len: usize,
        stride: usize,
    ) -> (Self, Self) {
        match self {
            TCols::Blocks(rows) => {
                let (head, tail) = rows.shard_split(mid);
                (TCols::Blocks(head), TCols::Blocks(tail))
            }
            // The whole view to one side: nothing to gather (a phase that
            // runs as one shard splits off an empty tail).
            whole @ TCols::Pool { .. } if mid == len => {
                (whole, TCols::Gathered { cols: Vec::new(), ends: Vec::new(), base: 0 })
            }
            // `chunks_exact_mut` proves the columns disjoint, and `take`
            // moves each one out to its slot at most once.
            TCols::Pool { mut handles, pool } => {
                let open = pool.cols.len() / stride - pool.free.len();
                let mut arena: Vec<Option<&mut [f64]>> =
                    pool.cols.chunks_exact_mut(stride).map(Some).collect();
                let (mut cols, mut ends) = (Vec::with_capacity(open), Vec::with_capacity(len));
                for i in 0..len {
                    let row = handles.row(i);
                    for_each_played(played.row(i), |k| {
                        let column = arena[row[k] as usize].take();
                        cols.push(column.expect("two slots share a column"));
                    });
                    ends.push(cols.len());
                }
                TCols::Gathered { cols, ends, base: 0 }.shard_split(mid, played, len, stride)
            }
            TCols::Gathered { mut cols, mut ends, base } => {
                let tail_ends = ends.split_off(mid);
                let at = ends.last().copied().unwrap_or(base);
                let tail = cols.split_off(at - base);
                (
                    TCols::Gathered { cols, ends, base },
                    TCols::Gathered { cols: tail, ends: tail_ends, base: at },
                )
            }
        }
    }
}

/// All of a [`LearnerSlab`]'s columns borrowed as a splittable bundle:
/// the [`ShardCols`] implementation hands each parallel shard a disjoint
/// contiguous slot range of **every** per-slot column and the T blocks
/// (in a packed slab, the pool columns) those slots own, so the store's phases can run slab-backed learners
/// with the same zero-sharing contract as the rest of the SoA columns.
/// Slot indices on the methods are **relative to the chunk**
/// (shard-local), like `Strided::row`.
#[derive(Debug)]
pub struct SlabCols<'a> {
    stride: usize,
    t: TCols<'a>,
    /// The play-frequency rows, when the slab keeps them.
    freq: Option<Rows<'a, f64>>,
    played: Rows<'a, u64>,
    stage: &'a mut [u32],
    scale: &'a mut [f64],
    /// The maintained estimate rows (row maxima, then diagonal), when the
    /// slab keeps them.
    best: Option<Rows<'a, f64>>,
    strategy: StrategyCols<'a>,
}

impl ShardCols for SlabCols<'_> {
    fn shard_split(mut self, mid: usize) -> (Self, Self) {
        let len = self.len();
        let (t0, t1) = self.t.shard_split(mid, &mut self.played, len, self.stride);
        let (f0, f1) = self.freq.map(|freq| freq.shard_split(mid)).unzip();
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
        self.len() == 0
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
                touched += self.decay_columns(i, step);
            }
        }
        touched
    }

    /// The column half of slot `i`'s decay step ([`apply_decay`]): out of
    /// line, so the batched decay's loop over the scales stays tight.
    #[cold]
    #[inline(never)]
    fn decay_columns(&mut self, i: usize, step: Decay) -> u64 {
        let best = self.best.as_mut().map(|best| best.row(i));
        on_slot!(&mut self.t, i, self.played.row(i), self.stride, t => {
            apply_decay(step, &mut t, best)
        })
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
    /// hardware already streams it does nothing. It reads open columns
    /// only, never the pool column a first play is about to open, so each
    /// lazily mapped page faults once, on its first write.
    pub fn touch(&mut self, slots: std::ops::Range<usize>) {
        if self.stride <= DENSE_GATHER_MAX_STRIDE {
            return;
        }
        let mut fold = 0;
        for i in slots {
            let j = self.strategy.pending[i];
            if j != NO_PENDING {
                let m = self.strategy.arity[i] as usize;
                fold ^= on_slot!(&mut self.t, i, self.played.row(i), self.stride, t => {
                    t.touch(m, j as usize)
                });
            }
        }
        std::hint::black_box(fold);
    }

    /// Full observe for slot `i` — the slab counterpart of
    /// `RthsState::observe`, bit-for-bit: the rank-1 update, then the
    /// played row of Eq. (3-6) and the next strategy in one pass over the
    /// played columns (module docs). The play frequencies are updated only
    /// for a conditional learner, the one reader of them, and only such an
    /// observe needs the slab to keep them
    /// ([`LearnerSlab::track_frequencies`]).
    ///
    /// The slot's exponential decay is the batched [`decay`](Self::decay)
    /// of this round, run before the observes (a no-op unless recency is
    /// exponential); the update itself applies none.
    ///
    /// Returns whether it opened a packed column: the first play of an
    /// action in a packed slab (module docs), which takes a column from
    /// the slab's pool — the per-shard
    /// `slab_columns_opened` observability counter. The flag is derived
    /// state, never an input: ignoring it changes nothing.
    ///
    /// `_row_scratch` is unused: the update needs no row buffer. The
    /// parameter stays until the benchmark's probes stop passing one.
    ///
    /// # Panics
    ///
    /// Panics if no action is pending or `utility` is not finite, or if
    /// `config` is conditional and the slab keeps no play frequencies.
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
        self.stage[i] = self.stage[i].checked_add(1).expect("a slot's stage passed u32::MAX");
        let m = arity[i] as usize;
        debug_assert_eq!(m, config.num_actions(), "slot arity and config disagree");
        let rows = SlotRows {
            probs: &mut probs.row(i)[..m],
            freq: config.conditional().then(|| {
                let freq =
                    self.freq.as_mut().expect("a conditional observe needs play frequencies");
                &mut freq.row(i)[..m]
            }),
            best: self.best.as_mut().map(|best| best.row(i)),
            scale: &mut self.scale[i],
            stage: u64::from(self.stage[i]),
        };
        on_slot!(&mut self.t, i, self.played.row(i), self.stride, t => {
            observe_slot(t, rows, j, config, utility, predecayed)
        })
    }

    /// Largest derived regret of slot `i`. On a slab that [tracks
    /// estimates](LearnerSlab::track_estimates) this reads the slot's `m`
    /// row maxima and `m` diagonal entries and no T line; on any other it
    /// scans the played columns, gathering the diagonal into the
    /// caller-provided scratch so steady-state phases allocate nothing —
    /// same bits either way.
    pub fn max_regret(&mut self, i: usize, config: &RthsConfig, diag: &mut Vec<f64>) -> f64 {
        let m = self.strategy.arity[i] as usize;
        let factor = factor_for(config, u64::from(self.stage[i])) * self.scale[i];
        let Some(best) = &mut self.best else {
            return on_slot!(&mut self.t, i, self.played.row(i), self.stride, t => {
                max_regret_in(&t, m, factor, diag)
            });
        };
        let (best, diag) = best.row(i).split_at(self.stride);
        finite_regret(kernels::shifted_regret_max(&best[..m], &diag[..m], factor))
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
    #[cfg(test)]
    pub(crate) fn slot(&self) -> u32 {
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
        self.lock().observe(self.slot as usize, &self.config, utility);
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
            on_slot!(&mut cols.t, 0, cols.played.row(0), cols.stride, t => {
                apply_decay(Decay::Renormalise, &mut t, best)
            });
            self.scale[slot] *= lazy::RENORM_UP;
        }

        /// Test hook: the slot's estimate by the `O(played · m)` scan,
        /// whatever the slab maintains.
        fn scan_max_regret(&mut self, slot: usize, config: &RthsConfig) -> f64 {
            let m = self.arity[slot] as usize;
            let factor = factor_for(config, u64::from(self.stage[slot])) * self.scale[slot];
            max_regret_in(&self.slot_s(slot), m, factor, &mut Vec::new())
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
            rebuild_row_maxima(&self.slot_s(slot), &mut rebuilt);
            let mut gathered = vec![0.0; m];
            gather_diagonal(&self.slot_s(slot), &mut gathered);
            let best = self.best.as_ref().expect("max_regret turns the rows on");
            let r = self.row[slot] as usize;
            let row = &best[2 * r * stride..2 * (r + 1) * stride];
            assert_bitwise(&row[..m], &rebuilt, "row maxima");
            assert_bitwise(&row[stride..stride + m], &gathered, "diagonal");
            kept
        }

        /// Slot `slot`'s stored `S` entries, all `stride²` of them,
        /// column-major: an unpacked block as it lies, a packed slot's
        /// columns read through its handles (`+0.0` where none is open).
        fn stored(&self, slot: usize) -> Vec<f64> {
            let (r, stride) = (self.row[slot] as usize, self.stride);
            match &self.t {
                TStore::Blocks(t) => t[r * stride * stride..(r + 1) * stride * stride].to_vec(),
                TStore::Packed { .. } => (0..stride * stride)
                    .map(|e| self.stored_entry(slot, e % stride, e / stride))
                    .collect(),
            }
        }

        /// The slot's played-column bitmask.
        fn played_row(&self, slot: usize) -> &[u64] {
            let r = self.row[slot] as usize;
            &self.played[r * self.words..(r + 1) * self.words]
        }

        /// Test hook: a packed slab's column pool holds exactly the played
        /// columns — each open column named by one played action of one
        /// row, every other one on the free list and `+0.0`.
        fn assert_pool_holds_the_played_columns(&self) {
            let TStore::Packed { handles, pool } = &self.t else { return };
            let (stride, words) = (self.stride, self.words);
            let mut seen = vec![false; pool.cols.len() / stride];
            for (r, mask) in self.played.chunks_exact(words).enumerate() {
                for_each_played(mask, |k| {
                    let h = handles[r * stride + k] as usize;
                    assert!(!std::mem::replace(&mut seen[h], true), "column {h} open twice");
                });
            }
            for &h in &pool.free {
                let h = h as usize;
                assert!(!std::mem::replace(&mut seen[h], true), "free column {h} is open");
                let column = &pool.cols[h * stride..(h + 1) * stride];
                assert!(column.iter().all(|x| x.to_bits() == 0), "free column {h} is dirty");
            }
            assert!(seen.iter().all(|&s| s), "a column is neither open nor free");
        }

        /// Test hook: the slab's one-handle layout holds. Row handles
        /// strictly increase inside the handed-out rows, with no more
        /// holes than a pass would have closed; every arena is as long as
        /// the same number of rows; every never-played column of a slot
        /// is `+0.0`; a hole, and every row at or past `rows_used`, reads
        /// as a fresh learner's block — mask clear, all `+0.0` — so an
        /// arrival on a row a pass has just emptied starts fresh; and a
        /// packed pool holds exactly the played columns.
        fn assert_layout(&self) {
            let (stride, words) = (self.stride, self.words);
            assert!(self.row.windows(2).all(|w| w[0] < w[1]), "row handles out of order");
            let n = self.row.len();
            assert!(self.row.last().is_none_or(|&r| (r as usize) < self.rows_used));
            assert!(self.rows_used - n <= n / 16 + 1, "{} holes left open", self.rows_used - n);
            let rows = self.played.len() / words;
            assert!(self.rows_used <= rows);
            assert_eq!(self.probs.len(), rows * stride);
            match &self.t {
                TStore::Blocks(t) => assert_eq!(t.len(), rows * stride * stride),
                TStore::Packed { handles, .. } => assert_eq!(handles.len(), rows * stride),
            }
            let mut owned = vec![false; rows];
            for &r in &self.row {
                owned[r as usize] = true;
            }
            for (r, mask) in self.played.chunks_exact(words).enumerate() {
                assert!(
                    owned[r] || mask.iter().all(|&w| w == 0),
                    "row {r}: a hole's mask is set"
                );
                if let TStore::Blocks(t) = &self.t {
                    for k in (0..stride).filter(|&k| mask[k / 64] >> (k % 64) & 1 == 0) {
                        let column = &t[(r * stride + k) * stride..][..stride];
                        let what = format!("row {r}: never-played column {k}");
                        assert!(column.iter().all(|x| x.to_bits() == 0), "{what} is dirty");
                    }
                }
            }
            self.assert_pool_holds_the_played_columns();
        }

        /// A packed slab's open columns and the arena's high-water mark,
        /// in columns.
        fn pool_columns(&self) -> (usize, usize) {
            let TStore::Packed { pool, .. } = &self.t else { panic!("an unpacked slab") };
            let hwm = pool.cols.len() / self.stride;
            (hwm - pool.free.len(), hwm)
        }

        /// Floats of the T arena: a packed slab's column arena holds the
        /// columns ever open at once, at most.
        fn arena_len(&self) -> usize {
            match &self.t {
                TStore::Blocks(t) => t.len(),
                TStore::Packed { pool, .. } => pool.cols.len(),
            }
        }

        /// Test hook: [`remove_slots`](Self::remove_slots), with every
        /// survivor's `S` and bitmask held bit for bit across it, and its
        /// byte count held to what moved — the slot scalars of every slot
        /// from the first departure on and, for each survivor whose row
        /// handle changed, one row of every row arena the slab keeps, its
        /// bitmask, and its `S`: the handle row of a packed slot, the
        /// played columns of an unpacked one.
        fn checked_remove_slots(&mut self, sorted: &[u32]) -> (usize, u64) {
            let survivors: Vec<usize> = (0..self.num_slots())
                .filter(|&slot| !sorted.contains(&(slot as u32)))
                .collect();
            let before: Vec<(u32, Vec<u64>, Vec<u64>)> = survivors
                .iter()
                .map(|&slot| {
                    let bits = self.stored(slot).iter().map(|x| x.to_bits()).collect();
                    (self.row[slot], self.played_row(slot).to_vec(), bits)
                })
                .collect();
            let (moved, wiped) = self.remove_slots(sorted);
            let relocated =
                sorted.first().map_or(0, |&first| self.num_slots() - first as usize);
            let arenas =
                1 + usize::from(self.freq.is_some()) + 2 * usize::from(self.best.is_some());
            let (stride, words) = (self.stride, self.words);
            let mut want = relocated * SLOT_SCALAR_BYTES;
            for (slot, (row, mask, bits)) in before.iter().enumerate() {
                let now: Vec<u64> = self.stored(slot).iter().map(|x| x.to_bits()).collect();
                assert!(now == *bits && self.played_row(slot) == mask, "slot {slot}: S moved");
                if self.row[slot] != *row {
                    want += (arenas * stride + words) * size_of::<f64>();
                    want += match &self.t {
                        TStore::Blocks(_) => played_count(mask) * stride * size_of::<f64>(),
                        TStore::Packed { .. } => stride * size_of::<u32>(),
                    };
                }
            }
            assert_eq!(moved, want, "bytes moved");
            (moved, wiped)
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
                slab.observe(i, cfg, u);
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
                let mut oracle_scratch = Vec::new();
                for s in 0..200u64 {
                    for (p, &slot) in slots.iter().enumerate() {
                        let a = slab.select_action(slot as usize, &mut rngs_a[p]);
                        let b = oracles[p].select_action(&mut rngs_b[p]);
                        assert_eq!(a, b, "{recency:?} action diverged at stage {s}");
                        let u = ((a * 37 + (s as usize) * (p + 1)) % 11) as f64 * 13.0;
                        slab.observe(slot as usize, &cfg, u);
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
                inline.observe(i, &cfg, u);
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

    /// The same through a departure: slot 1 is compacted away — its `S`
    /// wiped, and with one hole beside two survivors a pass moves slot 2's
    /// rows, `S` and mask down onto it, emptying row 2 — while a batched
    /// decay runs; the next arrival takes the emptied row and finds a
    /// fresh block: played columns `+0.0`, mask clear, `scale` back at 1.
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
        assert!(slab.stored(2).iter().any(|&x| x != 0.0) && slab.scale[2] != 1.0);
        slab.checked_remove_slots(&[1]);
        assert_eq!((slab.rows_used, slab.row[1]), (2, 1), "no pass moved slot 2 down");
        slab.split().decay(0.5);
        let slot = slab.alloc(3) as usize;
        assert_eq!((slot, slab.row[slot]), (2, 2), "the arrival takes the emptied row");
        assert!(slab.stored(slot).iter().all(|&x| x.to_bits() == 0), "block not wiped");
        assert_eq!(slab.played_row(slot), [0]);
        assert_eq!(slab.scale[slot], 1.0);
        slab.assert_layout();
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
                slab.observe(slot, &peer.cfg, utility(peer.id, picks[slot]));
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
    /// renormalised once 257 stages old): at a population below 32 every
    /// departure's hole passes the rule's sixteenth, so a pass moves the
    /// survivors' rows and `S` at once; arrivals take rows a pass has
    /// emptied, and every peer
    /// keeps replaying its own scalar oracle `to_bits`-exactly —
    /// strategies, regrets and the materialised `T`. The row maxima are
    /// turned on before the first round, and in a second run only once
    /// arrivals have taken emptied rows.
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
            // The slab has no pre-zeroed backing: its arenas are as long as
            // the most rows ever handed out at once.
            let reused = slab.rows_used * slab.words < slab.played.len();
            let slot = slab.alloc(4) as usize;
            assert_eq!(slot, peers.len(), "slots stay aligned");
            // Fresh or emptied by a pass, the row reads as a new learner's.
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
        // Before anybody observes, a slot changes arity and is cloned: the
        // frequency rows the first observe builds must read as both of
        // their fresh learners'.
        slab.reset_actions(5, 3);
        let narrow = base.with_num_actions(3).unwrap();
        peers[5] = OraclePeer::new(peers[5].id, &narrow);
        assert_eq!(slab.clone_slot(5) as usize, peers.len());
        peers.push(OraclePeer::new(10_000, &narrow));
        let mut script = rand::rngs::StdRng::seed_from_u64(4242);
        let mut inherited = 0;
        for round in 0..700u64 {
            if round % 7 == 3 {
                // Ids 0 and 1 never leave or switch, so two slots outlive
                // many renormalisations while everything around them moves.
                let mut gone: Vec<u32> =
                    (2..peers.len() as u32).filter(|_| script.gen_range(0..4) == 0).collect();
                gone.truncate(3);
                slab.checked_remove_slots(&gone);
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
            slab.assert_layout();
            if round == track_estimates_from {
                assert_eq!(inherited > 0, round > 0);
                slab.track_estimates();
            }
            assert_eq!(slab.best.is_some(), round >= track_estimates_from);
            // The first observe (per slot: round 0 is even) makes them.
            assert_eq!(slab.freq.is_some(), round > 0, "round {round}");
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
        assert!(inherited > 50, "only {inherited} arrivals took an emptied row");
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
    /// which slice their rows at the handles, holes and all. At stride 10
    /// blocks are unpacked, at 32 packed. Arrivals take rows a pass has
    /// emptied with three actions fewer than the rows' last owners played,
    /// and must read as fresh learners.
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
            let (mut closed, mut unaligned, mut smaller) = (0, 0, 0);
            // The arity each row's last owner had.
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
                    for slot in 0..ids.len() {
                        owner_arity.insert(slab.row[slot], slab.num_actions(slot));
                    }
                    slab.checked_remove_slots(&gone);
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
                        let prior = owner_arity.get(&(slab.rows_used as u32)).map(|&a| a > m);
                        let slot = arrive(&mut slab, &mut twin, &mut ids, &mut by_id, &small);
                        assert!(slab.stored(slot).iter().all(|x| x.to_bits() == 0), "dirty S");
                        assert!(slab.played_row(slot).iter().all(|&w| w == 0), "dirty mask");
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
                    slab.assert_layout();
                }
                let mid = ids.len() / 2;
                let picks: Vec<usize> = {
                    let (mut head, mut tail) = slab.split_strategy().shard_split(mid);
                    unaligned += usize::from(matches!(head.probs, Rows::Indexed { .. }));
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
                    // A split view cannot open a column: the phase opens
                    // the pending ones first, as the store's does.
                    slab.open_pending_columns();
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
                    twin.observe(id, cfg, utility(id, picks[slot]));
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
            assert!(unaligned > 0, "stride {stride}: no round ran on rows with holes");
            assert!(slab.freq.is_none() && twin.freq.is_none(), "unconditional frequencies");
            assert!(smaller > 0, "stride {stride}: no arrival took a larger learner's row");
        }
    }

    /// 2,000 epochs of balanced churn (departures, then as many
    /// arrivals, as `System::step_epoch` orders them): the holes never
    /// pass the rule's sixteenth of the survivors, so the rows handed out,
    /// and the arena, stay within the population plus that; and a
    /// departure moves no survivor's `S` except in a pass that closes the
    /// holes, which moves it bit for bit (`checked_remove_slots`) — every
    /// other epoch each survivor still holds the row it held before.
    #[test]
    fn balanced_churn_bounds_the_arena_by_the_hole_rule_and_moves_t_only_in_a_pass() {
        use rand::Rng;
        const PEERS: usize = 50;
        let cfg = config_eps(4, FAST_EPS, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(4);
        let mut peers: Vec<OraclePeer> = Vec::new();
        for id in 0..PEERS as u64 {
            slab.alloc(4);
            peers.push(OraclePeer::new(id, &cfg));
        }
        slab.track_estimates();
        assert_eq!(slab.arena_len(), PEERS * 16);
        let most_rows = PEERS + PEERS / 16;
        let mut script = rand::rngs::StdRng::seed_from_u64(77);
        let (mut next_id, mut passes, mut holed) = (PEERS as u64, 0, 0);
        for epoch in 0..2000u64 {
            let mut gone: Vec<u32> = Vec::new();
            for _ in 0..script.gen_range(0..4) {
                let slot = script.gen_range(0..PEERS as u32);
                if !gone.contains(&slot) {
                    gone.push(slot);
                }
            }
            gone.sort_unstable();
            let held: Vec<(u64, u32)> = peers
                .iter()
                .enumerate()
                .filter(|(slot, _)| !gone.contains(&(*slot as u32)))
                .map(|(slot, peer)| (peer.id, slab.row[slot]))
                .collect();
            slab.checked_remove_slots(&gone);
            for &slot in gone.iter().rev() {
                peers.remove(slot as usize);
            }
            let now: Vec<(u64, u32)> =
                peers.iter().enumerate().map(|(slot, p)| (p.id, slab.row[slot])).collect();
            if !gone.is_empty() && slab.rows_used == peers.len() {
                passes += 1;
            } else {
                assert_eq!(now, held, "epoch {epoch}: a survivor moved outside a pass");
            }
            for _ in 0..gone.len() {
                slab.alloc(4);
                peers.push(OraclePeer::new(next_id, &cfg));
                next_id += 1;
            }
            holed += usize::from(slab.rows_used > PEERS);
            assert!(slab.rows_used <= most_rows, "epoch {epoch}: {} rows", slab.rows_used);
            assert!(slab.arena_len() <= most_rows * 16, "epoch {epoch}: the arena grew");
            slab.assert_layout();
            churn_round(&mut slab, &mut peers, epoch);
        }
        assert!(passes > 100 && holed > 100, "{passes} passes, {holed} epochs with holes");
    }

    /// A slab of unconditional learners never allocates play-frequency
    /// rows, whatever it goes through: allocations past its pre-zeroed
    /// backing, a reserve, observes per slot and through shard-split
    /// views, clones, resets and departures whose holes a pass closes —
    /// with the estimate rows on and off.
    #[test]
    fn unconditional_slab_never_allocates_frequency_rows() {
        let cfg = config_eps(4, FAST_EPS, RecencyMode::Exponential, false);
        for estimates in [false, true] {
            let mut slab = LearnerSlab::with_capacity(5, 8);
            if estimates {
                slab.track_estimates();
            }
            for _ in 0..40 {
                slab.alloc(4);
            }
            slab.reserve(10);
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let mut closed = 0;
            for round in 0..30usize {
                let n = slab.num_slots();
                let picks: Vec<usize> =
                    (0..n).map(|i| slab.select_action(i, &mut rng)).collect();
                let utility = |a: usize| 5.0 * (a + round % 3) as f64;
                if round.is_multiple_of(2) {
                    for (i, &a) in picks.iter().enumerate() {
                        slab.observe(i, &cfg, utility(a));
                    }
                } else {
                    let (mut head, mut tail) = slab.split().shard_split(n / 2);
                    head.decay(1.0 - cfg.epsilon());
                    tail.decay(1.0 - cfg.epsilon());
                    for (i, &a) in picks.iter().enumerate() {
                        let (cols, i) =
                            if i < n / 2 { (&mut head, i) } else { (&mut tail, i - n / 2) };
                        cols.observe_predecayed(i, &cfg, utility(a), &mut Vec::new());
                    }
                }
                slab.clone_slot((round % n) as u32);
                slab.reset_actions((3 * round) % n, 4);
                let gone: Vec<u32> = (0..slab.num_slots() as u32)
                    .filter(|s| (*s as usize + round).is_multiple_of(5))
                    .collect();
                slab.checked_remove_slots(&gone);
                closed += usize::from(slab.rows_used == slab.num_slots());
                slab.assert_layout();
                assert!(slab.freq.is_none(), "round {round}: frequency rows allocated");
                assert_eq!(slab.play_frequencies(0), None);
            }
            assert!(closed > 0, "no pass closed the holes");
            assert_eq!(slab.best.is_some(), estimates);
        }
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
                    slab.observe(slot, &cfg, u);
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
            slab.observe(slot, &cfg, u);
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
        for s in 0..300u64 {
            let act = slab.select_action(a, &mut rng);
            slab.observe(a, &cfg, ((act + s as usize) % 4) as f64 * 5.0);
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
            slab.observe(a, &cfg, u);
            slab.observe(b, &cfg, u);
        }
    }

    /// Plays `actions` in order on `slot`, pending each directly.
    fn play(slab: &mut LearnerSlab, slot: usize, cfg: &RthsConfig, actions: &[usize]) {
        for &a in actions {
            slab.pending[slot] = a as u32;
            slab.observe(slot, cfg, 10.0 + a as f64);
        }
    }

    /// Asserts that `slot` has played `n` actions, each with a non-zero
    /// column of its own, and that the pool holds the played columns.
    fn assert_columns(slab: &mut LearnerSlab, slot: usize, n: usize) {
        let words = slab.played_row(slot);
        assert_eq!(played_count(words), n, "slot {slot}: played count");
        slab.slot_s(slot).for_each(|k, column| {
            assert!(column.iter().any(|&x| x != 0.0), "slot {slot}: column {k} empty");
        });
        slab.assert_pool_holds_the_played_columns();
    }

    /// At stride 64 a slot's first play of an action opens one 512-byte
    /// column of the pool and writes one handle: 8 distinct actions hold 8
    /// columns, through a renormalisation, and a clone opens 8 more. Every
    /// wipe (release, compaction, reset) frees the slot's columns, which
    /// the next plays reuse before the arena grows.
    #[test]
    fn packed_slab_keeps_one_pool_column_per_played_action() {
        const STRIDE: usize = 64;
        assert!(packs(STRIDE) && !packs(22) && packs(23));
        let cfg = config(STRIDE, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(STRIDE);
        for _ in 0..3 {
            slab.alloc(STRIDE);
        }
        assert_eq!(slab.pool_columns(), (0, 0), "a slot opens nothing until it plays");
        play(&mut slab, 1, &cfg, &[40, 3, 63, 17, 8, 0, 52, 29, 3, 40, 63]);
        assert_columns(&mut slab, 1, 8);
        assert_eq!(slab.arena_len(), 8 * STRIDE, "the arena holds the played columns only");
        slab.force_renormalise(1);
        assert_columns(&mut slab, 1, 8);
        let copy = slab.clone_slot(1) as usize;
        assert_columns(&mut slab, copy, 8);
        assert_eq!(slab.pool_columns(), (16, 16));
        for (j, k) in (0..STRIDE).flat_map(|j| (0..STRIDE).map(move |k| (j, k))) {
            assert_eq!(slab.proxy(copy, j, k).to_bits(), slab.proxy(1, j, k).to_bits());
        }
        assert_eq!(slab.proxy(1, 5, 6), 0.0, "a never-played column reads +0.0");

        slab.release(copy as u32);
        assert_columns(&mut slab, copy, 0);
        assert_eq!(slab.pool_columns(), (8, 16));
        assert_eq!(slab.alloc(STRIDE) as usize, copy);
        play(&mut slab, copy, &cfg, &[9, 2]);
        assert_columns(&mut slab, copy, 2);

        // One hole beside three survivors: a pass moves slot 2 and the
        // copy (handle rows and masks) down a row, and row 3 reads as a
        // fresh block.
        slab.remove_slots(&[1]);
        assert_eq!((slab.row.as_slice(), slab.played[3]), (&[0, 1, 2][..], 0));
        assert_eq!(slab.pool_columns(), (2, 16));
        assert_columns(&mut slab, 2, 2);
        let arrival = slab.alloc(STRIDE) as usize;
        assert_eq!(slab.row[arrival], 3);
        play(&mut slab, arrival, &cfg, &[33, 1, 62]);
        assert_columns(&mut slab, arrival, 3);

        play(&mut slab, 0, &cfg, &[7, 6, 5, 4, 3]);
        assert_columns(&mut slab, 0, 5);
        slab.reset_actions(0, STRIDE);
        assert_columns(&mut slab, 0, 0);
        play(&mut slab, 0, &cfg, &[50, 10, 30, 20]);
        assert_columns(&mut slab, 0, 4);
        assert_eq!(slab.pool_columns(), (9, 16), "freed columns are reused first");
    }

    /// At stride 32 and 64, through first plays, `release`,
    /// `remove_slots`, `reset_actions`, `clone_slot` and `Decay::Wipe`s —
    /// per slot at ε = 1, and through a whole view's batched decay — the
    /// pool's open columns are the slots' played counts summed, its
    /// high-water mark is that sum's peak, and every free column reads
    /// `+0.0`.
    #[test]
    fn pool_columns_follow_the_played_counts() {
        use rand::Rng;
        for stride in [32, 64] {
            let cfg = config_eps(stride, FAST_EPS, RecencyMode::Exponential, false);
            let forget = config_eps(stride, 1.0, RecencyMode::Exponential, false);
            let mut slab = LearnerSlab::with_capacity(stride, 16);
            for _ in 0..16 {
                slab.alloc(stride);
            }
            let mut script = rand::rngs::StdRng::seed_from_u64(stride as u64);
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let mut peak = 0;
            let mut check = |slab: &LearnerSlab, what: &str| {
                let played: usize =
                    (0..slab.num_slots()).map(|s| played_count(slab.played_row(s))).sum();
                peak = peak.max(played);
                assert_eq!(slab.pool_columns(), (played, peak), "stride {stride}: {what}");
                slab.assert_layout();
            };
            for round in 0..60u64 {
                let n = slab.num_slots();
                for slot in 0..n {
                    let a = slab.select_action(slot, &mut rng);
                    let cfg = if slot % 5 == (round % 5) as usize { &forget } else { &cfg };
                    slab.observe(slot, cfg, 20.0 + (a % 7) as f64);
                    check(&slab, "an observe");
                }
                match round % 6 {
                    0 => {
                        let slot = script.gen_range(0..n);
                        slab.release(slot as u32);
                        check(&slab, "release");
                        assert_eq!(slab.alloc(stride), slot as u32);
                    }
                    1 => {
                        let gone: Vec<u32> =
                            (0..n as u32).filter(|_| script.gen_range(0..4) == 0).collect();
                        slab.remove_slots(&gone);
                        check(&slab, "remove_slots");
                        for _ in 0..gone.len() {
                            slab.alloc(stride);
                        }
                    }
                    2 => slab.reset_actions(script.gen_range(0..n), stride),
                    3 => {
                        slab.clone_slot(script.gen_range(0..n) as u32);
                    }
                    4 => {
                        let wiped = slab.split().decay(0.0);
                        assert!(wiped > 0, "stride {stride}: the wipe freed nothing");
                        check(&slab, "a whole view's wipe");
                        assert_eq!(slab.pool_columns().0, 0);
                    }
                    _ => {}
                }
                check(&slab, "round end");
            }
            assert!(peak > slab.pool_columns().0, "stride {stride}: the sum never fell");
        }
    }

    /// A packed store's observe phase — select, open the pending columns,
    /// then a batched decay and observes per shard — split into two
    /// shards is bitwise equal to the same phase run as one shard, whose
    /// whole view opens columns as it goes: strategies, estimates, masks,
    /// handles and the column arena itself, the pre-opened columns
    /// included. Churn between rounds leaves holes among the rows and
    /// fills the pool's free list.
    #[test]
    fn split_packed_observe_phase_matches_one_shard_bitwise() {
        use rand::Rng;
        for stride in [32, 64] {
            let cfg = config_eps(stride, FAST_EPS, RecencyMode::Exponential, true);
            let (mut split, mut whole) = (LearnerSlab::new(stride), LearnerSlab::new(stride));
            for slab in [&mut split, &mut whole] {
                slab.track_estimates();
                slab.track_frequencies();
                for _ in 0..40 {
                    slab.alloc(stride);
                }
            }
            let mut script = rand::rngs::StdRng::seed_from_u64(11);
            let mut rngs: Vec<_> =
                (0..40).map(|p| rand::rngs::StdRng::seed_from_u64(700 + p)).collect();
            let (mut opened_split, mut opened_whole, mut preopened) = (0, 0, 0);
            let mut unaligned = 0;
            for round in 0..120u64 {
                if round % 10 == 9 {
                    let gone: Vec<u32> =
                        (0..40).filter(|_| script.gen_range(0..16) == 0).collect();
                    for slab in [&mut split, &mut whole] {
                        slab.remove_slots(&gone);
                        for _ in 0..gone.len() {
                            slab.alloc(stride);
                        }
                    }
                    for &slot in gone.iter().rev() {
                        rngs.remove(slot as usize);
                    }
                    for _ in 0..gone.len() {
                        rngs.push(rand::rngs::StdRng::seed_from_u64(900 + round));
                    }
                }
                let utility = |slot: usize, a: usize| ((a * 3 + slot) % 13) as f64 * 11.0;
                let mut picks = Vec::new();
                for (slot, rng) in rngs.iter_mut().enumerate() {
                    let mut replay = rng.clone();
                    picks.push(split.select_action(slot, rng));
                    assert_eq!(whole.select_action(slot, &mut replay), picks[slot]);
                }
                unaligned += usize::from(!increasing_aligned(&split.row));
                let pre = split.open_pending_columns();
                preopened += pre;
                opened_split += pre;
                let (mut estimates_split, mut estimates_whole) = (Vec::new(), Vec::new());
                {
                    let (mut head, mut tail) = split.split().shard_split(17);
                    assert!(matches!(head.t, TCols::Gathered { .. }));
                    head.decay(1.0 - FAST_EPS);
                    tail.decay(1.0 - FAST_EPS);
                    for (slot, &a) in picks.iter().enumerate() {
                        let (cols, i) =
                            if slot < 17 { (&mut head, slot) } else { (&mut tail, slot - 17) };
                        let opened =
                            cols.observe_predecayed(i, &cfg, utility(slot, a), &mut Vec::new());
                        assert!(!opened, "a split view opened a column");
                        estimates_split
                            .push(cols.max_regret(i, &cfg, &mut Vec::new()).to_bits());
                    }
                }
                {
                    let (mut cols, rest) = whole.split().shard_split(picks.len());
                    assert!(rest.is_empty() && matches!(cols.t, TCols::Pool { .. }));
                    cols.decay(1.0 - FAST_EPS);
                    for (slot, &a) in picks.iter().enumerate() {
                        opened_whole += u64::from(cols.observe_predecayed(
                            slot,
                            &cfg,
                            utility(slot, a),
                            &mut Vec::new(),
                        ));
                        estimates_whole
                            .push(cols.max_regret(slot, &cfg, &mut Vec::new()).to_bits());
                    }
                }
                assert_eq!(estimates_split, estimates_whole, "stride {stride} round {round}");
                for slot in 0..picks.len() {
                    let what = format!("stride {stride} round {round} slot {slot}");
                    assert_bitwise(split.probabilities(slot), whole.probabilities(slot), &what);
                    assert_eq!(split.played_row(slot), whole.played_row(slot), "{what}");
                }
                let (
                    TStore::Packed { handles: h0, pool: p0 },
                    TStore::Packed { handles: h1, pool: p1 },
                ) = (&split.t, &whole.t)
                else {
                    unreachable!("stride {stride} packs")
                };
                assert_eq!((h0, &p0.free), (h1, &p1.free), "stride {stride} round {round}");
                assert_bitwise(&p0.cols, &p1.cols, "column arena");
                split.assert_layout();
            }
            assert_eq!(opened_split, opened_whole, "stride {stride}: columns opened");
            assert!(preopened > 40, "stride {stride}: only {preopened} columns pre-opened");
            assert!(unaligned > 0, "stride {stride}: churn left no hole open");
        }
    }

    /// A reset slot — its scale had left 1 and been renormalised — is a
    /// fresh learner of the new arity, scale included.
    #[test]
    fn reset_matches_fresh_slot() {
        let cfg = config_eps(3, FAST_EPS, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(5);
        let slot = slab.alloc(3) as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let _ = slab.select_action(slot, &mut rng);
            slab.observe(slot, &cfg, 5.0);
        }
        assert_renormalised(&slab, slot, &cfg);
        assert!(slab.checked_max_regret(slot, &cfg) > 0.0);
        slab.reset_actions(slot, 5);
        assert_eq!(slab.num_actions(slot), 5);
        assert_eq!(slab.stage(slot), 0);
        assert_eq!(slab.scale[slot], 1.0);
        assert_eq!(slab.probabilities(slot), &[0.2; 5]);
        assert_eq!(slab.play_frequencies(slot), None, "an unconditional slab keeps none");
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
                slab.observe(slot, &cfg, 40.0);
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
                    slab.observe(slot, &cfg, u);
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
        slab.observe(slot, &cfg, -1e6);
    }

    /// A slot counts its stages in a `u32`: one below the bound it still
    /// observes, and at the bound it refuses rather than wrap to stage 0,
    /// which `RecencyMode::Uniform`'s `1/n` average would read as fresh.
    #[test]
    #[should_panic(expected = "stage passed u32::MAX")]
    fn observe_refuses_a_stage_past_the_u32_bound() {
        let cfg = config(2, RecencyMode::Uniform, false);
        let mut slab = LearnerSlab::new(2);
        let slot = slab.alloc(2) as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        slab.stage[slot] = u32::MAX - 1;
        slab.select_action(slot, &mut rng);
        slab.observe(slot, &cfg, 1.0);
        assert_eq!(slab.stage(slot), u64::from(u32::MAX));
        slab.select_action(slot, &mut rng);
        slab.observe(slot, &cfg, 1.0);
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
        slab.observe(slot, &cfg, 1.0);
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
                        // A sharded observe needs the rows made first, as
                        // the store's observe phase makes them.
                        if conditional {
                            slab.track_frequencies();
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
                                cols.observe_predecayed(i, &cfg, u, &mut scratch);
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
            slab.observe(slot, cfg, u);
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
            for x in slab.stored(0) {
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
        let mut split_stages = 0;
        for s in 0..2000u64 {
            if [3, 300, 700, 1111, 1500].contains(&s) {
                forced.force_renormalise(0);
            }
            let mut replay = rng.clone();
            let j = natural.select_action(0, &mut rng);
            assert_eq!(j, forced.select_action(0, &mut replay), "stage {s}");
            let u = 20.0 + ((j * 31 + s as usize) % 13) as f64 * 9.0;
            natural.observe(0, &cfg, u);
            forced.observe(0, &cfg, u);
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
            for x in slab.stored(0) {
                assert!(x == 0.0 || x.is_normal(), "stage {s}: S holds {x:e}");
            }
            // Column 0 is played (its bit is set) yet reads all-zero.
            flushed |= slab.played[0] & 1 == 1 && slab.stored(0)[..3] == [0.0; 3];
        });
        assert!(flushed, "no renormalisation ever flushed column 0");
    }
}
