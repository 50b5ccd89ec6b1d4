//! Stretch-folded true-regret accounting.
//!
//! Both engines report the paper's Fig. 1 series from the peer store's
//! observe phase ([`crate::PeerStore::observe_phase`]; the reactor's
//! mailbox shards each hold a block store): the worst peer's
//! time-averaged **true regret** against every fixed alternative helper,
//!
//! ```text
//! E_i[k] = Σ_{t : played_i(t) ≠ k} ( jr_t[k] − rate_i(t) )
//! ```
//!
//! where `jr_t[k]` is the channel-global counterfactual *join rate* of
//! helper `k` at epoch `t` and `rate_i(t)` the rate peer `i` actually
//! observed. The historical implementation kept a dense
//! `played × alternative` matrix per peer — `O(n·h²)` memory, rewritten
//! every epoch — which is what capped the reactor's 2×10⁴-actor grid
//! point (~650 MB of regret table alone at 64 helpers; ~3.3 GB at 10⁵
//! actors).
//!
//! # The stretch-folding invariant
//!
//! `jr_t[k]` does not depend on the peer, so the ledger keeps **one**
//! per-channel prefix vector `G_t[k] = Σ_{τ ≤ t} jr_τ[k]` for the whole
//! population. While peer `i` stays on arm `p` (a *stretch* of epochs
//! `[s, t]`), its row accumulates, for every `k ≠ p`,
//!
//! ```text
//! Σ_{τ ∈ [s, t]} (jr_τ[k] − rate_i(τ))  =  (G_t[k] − G_{s−1}[k]) − ΔR_i
//! ```
//!
//! a **prefix difference** plus one scalar (`ΔR_i`: the peer's rate sum
//! over the stretch), while `E_i[p]` does not move at all. So per peer
//! the ledger stores only
//!
//! * the *folded row* `row_i[k]` — `E_i[k]` over all **closed**
//!   stretches (`stride` f64s, `stride = max` channel arity), one row of
//!   a row arena that the peer reaches through a 4-byte handle,
//! * the open stretch: current arm, entry epoch, and the rate sum at
//!   entry (`tr_entry`), plus the running rate sum `tr`,
//!
//! and the `O(h)` row write happens **only when a stretch closes** — an
//! arm switch, a channel migration, or the bounded-window fold below.
//! Memory is `O(n·h)` instead of `O(n·h²)`; steady-state epochs write
//! `O(#switches·h)` instead of `O(n·h)`.
//!
//! # Snapshot ring and the retirement rule
//!
//! Closing a stretch entered at epoch `s` needs `G_{s−1}`, so
//! [`RegretLedger::advance_epoch`] snapshots the *exclusive* prefix of
//! each epoch into a ring of [`SNAPSHOT_SLOTS`] slots (slot `e mod 128`
//! holds `G_{e−1}`). The ring stays valid because no open stretch is
//! allowed to grow older than [`STRETCH_WINDOW`] epochs: a record into a
//! stretch at age ≥ 64 first *folds* it (same arm, prefix-difference row
//! write) and re-enters at the current epoch. A slot is therefore dead —
//! retired, free for reuse — as soon as it is more than `STRETCH_WINDOW`
//! epochs old, which the power-of-two ring does implicitly by
//! overwriting; `SNAPSHOT_SLOTS > STRETCH_WINDOW` keeps every slot an
//! open stretch can still reference alive.
//!
//! # Exactness
//!
//! Folding regroups float additions: the dense row added
//! `(jr_τ[k] − rate)` one epoch at a time, the fold adds a prefix
//! difference minus one rate sum. IEEE-754 addition is not associative,
//! but every workload this repository records uses **integral** rates
//! and join-rate sums far below 2⁵³, where f64 arithmetic is exact and
//! any grouping yields identical bits — `fold_matches_dense_bitwise` in
//! this module's tests proves folded == dense bit-for-bit on randomized
//! configurations (switches, window folds, migrations, churn), against a
//! dense per-epoch oracle that the crate compiles into tests only. On
//! non-integral workloads the two groupings may differ in the last ulp;
//! what stays exact *unconditionally* is cross-engine equality, because
//! the simulator's store and each reactor shard's block store run the
//! **same** observe phase, with the same join rates, over the same
//! inputs at the same epochs (the `sim_net_equivalence` suite pins that
//! bit-for-bit).
//!
//! # The epoch's worst peer: bound, then read
//!
//! Fig. 1 keeps only the epoch's **maximum** over peers, but a peer's
//! value is an `O(m)` read: every entry `k ≠ played` of its row plus the
//! open stretch's prefix difference, `v_k = fl(fl(r_k + d_k) − dtr)` with
//! `d_k = fl(g[k] − snap_entry[k])`, then `max(+0, v_0 … v_{m−1}) /
//! stages`. [`record_max`] first evaluates an `O(1)` upper bound,
//!
//! ```text
//! ub = max(+0, rowmax, fl(fl(rowmax + dmax[entry][c]) − dtr)) / stages
//! ```
//!
//! from two maintained quantities — `rowmax`, the max of the peer's
//! `row[..arity]` (kept where the row is written: the stretch close,
//! `RegretLedger::migrate`, the lazy arity reset, `add_peer` and
//! `remove_slots`), and `dmax[s][c] = max_k fl(g[k] − ring[s][k])`, which
//! [`RegretLedger::advance_epoch`] computes for channel `c` and each of
//! the ≤ [`STRETCH_WINDOW`] entry epochs `s` an open stretch can reference
//! — and reads the row only when `ub` exceeds the running max. That is
//! rare: the worst peer is found early and rarely changes.
//!
//! The pruned fold is **bit-identical** to the exact one:
//!
//! * *Monotonicity.* Round-to-nearest `fl(a + b)` and `fl(x − c)` are
//!   non-decreasing in each argument, and so is division by `stages > 0`.
//!   `r_k ≤ rowmax` and `d_k ≤ dmax` therefore give every `v_k ≤ ub·stages`
//!   exactly, and the played entry `r_played ≤ rowmax` too; the peer's
//!   value is `≤ ub`.
//! * *No `−0`.* Rows, `g`, the ring and `tr` start at `+0.0` and only gain
//!   sums of non-negative rates, and `x − x = +0`; so a value equal to the
//!   running max has its bits, and skipping a peer with `ub ≤ worst`
//!   leaves the `max` fold exactly where reading it would have.
//! * *NaN.* `f64::max` drops a NaN operand, so the exact fold ignores NaN
//!   entries; a NaN bound is kept rather than dropped, fails the `≤`
//!   test and takes the exact read.
//!
//! Each shard folds its own running max, so the result stays the same at
//! any shard count, and so does the max over block stores the reactor's
//! coordinator folds. [`record_counted`] always reads: it returns the
//! peer's own value, which the oracle tests compare.
//!
//! # Churn
//!
//! Per-peer scalars are slot-aligned with the owning store's columns and
//! carry no slot-dependent references (the ring is global, entries are
//! epochs), so removal is a plain order-preserving compaction of the
//! scalars: survivors' open stretches stay valid verbatim, and a departed
//! peer's stretch needs no fold — its row leaves the population with it.
//! The rows themselves stay put. A survivor carries its row handle down
//! with its scalars, a departed peer's row stays behind as a hole, and
//! an arrival appends a zeroed row, so the handles stay strictly
//! increasing and the record phase still meets the rows in arena order.
//! A departure copies 44 bytes per relocated survivor instead of
//! `stride` f64s more; once the holes outnumber a sixteenth of the
//! peers, one ascending pass moves every row down to its peer's index
//! ([`rths_core::close_row_holes`], the rule the learner slab's rows
//! follow too). A split hands a phase the rows through their handles
//! ([`rths_par::Rows`]): the arena itself while every handle equals its
//! slot, as in a population that never lost a peer.

use rths_core::{close_row_holes, compact_column};
use rths_par::{increasing_aligned, Rows, ShardCols};

/// Sentinel arm index: no open stretch.
pub const NO_ARM: u32 = u32::MAX;

/// Maximum age (epochs) of an open stretch before a record folds it and
/// re-enters at the current epoch. Bounds how old a snapshot an open
/// stretch can reference.
pub const STRETCH_WINDOW: u64 = 64;

/// Slots in the global snapshot ring (power of two, strictly greater
/// than [`STRETCH_WINDOW`] so every referencable snapshot is alive).
pub const SNAPSHOT_SLOTS: usize = 128;

const SLOT_MASK: u64 = SNAPSHOT_SLOTS as u64 - 1;

/// Bytes of one peer's per-peer scalars — `arm`, `entry`, `tr_entry`,
/// `tr`, `stages`, `arity`, `rowmax` and the row handle — all that a
/// compaction copies for a relocated peer.
const PEER_SCALAR_BYTES: usize = 5 * size_of::<u32>() + 3 * size_of::<f64>();

/// The epoch count [`RegretLedger::advance_epoch`] refuses to pass: below
/// it, every epoch fits the `u32` columns that count or name epochs (the
/// ledger's `entry` and `stages`, and the owning store's counters, which
/// grow at most once per advance).
const EPOCH_BOUND: u64 = u32::MAX as u64;

/// Stretch-folded true-regret accounting for one peer population.
///
/// Columns are index-aligned with the owning store; the global
/// prefix/ring state is shared by every peer.
#[derive(Debug, Clone)]
pub struct RegretLedger {
    /// `offsets[c]..offsets[c + 1]` is channel `c`'s slice of `g`.
    offsets: Vec<usize>,
    /// Row stride: the largest channel arity (min 1), uniform so rows
    /// stay index-aligned under churn compaction.
    stride: usize,
    /// Epochs advanced so far; records target epoch `epochs − 1`.
    epochs: u64,
    /// Inclusive join-rate prefix `G` per channel, concatenated.
    g: Vec<f64>,
    /// Snapshot ring: slot `e & 127` holds the *exclusive* prefix of
    /// epoch `e` (i.e. `G_{e−1}`), laid out like `g`.
    ring: Vec<f64>,
    /// Open-stretch bound table: `dmax[(s mod STRETCH_WINDOW)·K + c]` is
    /// `max_k fl(g[k] − ring[s][k])` over channel `c`'s `k`, for every
    /// entry epoch `s` an open stretch can reference (`K` channels).
    dmax: Vec<f64>,
    // === per-peer columns (slot-aligned with the owning store) ===
    /// Open-stretch arm ([`NO_ARM`] when none).
    arm: Vec<u32>,
    /// Open-stretch entry epoch, `u32`: below the ledger's epoch bound
    /// (`u32::MAX`, which [`advance_epoch`](Self::advance_epoch) asserts).
    entry: Vec<u32>,
    /// Value of `tr` when the open stretch was entered.
    tr_entry: Vec<f64>,
    /// Total observed rate over all recorded epochs of the current row.
    tr: Vec<f64>,
    /// Recorded epochs of the current row (the time-average divisor),
    /// `u32`: one per epoch at most, so below the same bound as `entry`.
    stages: Vec<u32>,
    /// Arity the row currently represents (0 before the first record).
    /// The row resets **lazily** at the next record when the arity
    /// changed — the historical semantics, under which a round-trip
    /// channel migration back to the original arity keeps its
    /// accumulated regret history.
    arity: Vec<u32>,
    /// Max of the peer's row's first `arity` entries (`+0.0` before the
    /// first record).
    rowmax: Vec<f64>,
    /// Row handle per peer: the peer's folded row is row `handle[slot]` of
    /// `rows`, wherever the peer's slot moves. Strictly increasing in slot
    /// order.
    handle: Vec<u32>,
    // === end of the per-peer columns ===
    /// Folded rows, `stride` scalars each, addressed through `handle`
    /// (trailing slack is zero): the peers' rows and the holes departed
    /// peers left, in slot order.
    rows: Vec<f64>,
}

/// The shared (read-only during a phase) half of a split ledger: global
/// prefix, snapshot ring, bound table, layout, and the epoch records
/// target.
#[derive(Debug, Clone, Copy)]
pub struct LedgerCtx<'a> {
    offsets: &'a [usize],
    g: &'a [f64],
    ring: &'a [f64],
    dmax: &'a [f64],
    /// The epoch being recorded (`epochs − 1`).
    epoch: u64,
}

/// The mutable per-peer half of a split ledger. Implements
/// [`ShardCols`], so a phase can hand each shard the contiguous range of
/// every column alongside the owning store's own columns.
#[derive(Debug)]
pub struct LedgerCols<'a> {
    arm: &'a mut [u32],
    entry: &'a mut [u32],
    tr_entry: &'a mut [f64],
    tr: &'a mut [f64],
    stages: &'a mut [u32],
    arity: &'a mut [u32],
    rowmax: &'a mut [f64],
    rows: Rows<'a, f64>,
}

impl ShardCols for LedgerCols<'_> {
    fn shard_split(self, mid: usize) -> (Self, Self) {
        let (arm_a, arm_b) = self.arm.split_at_mut(mid);
        let (entry_a, entry_b) = self.entry.split_at_mut(mid);
        let (tre_a, tre_b) = self.tr_entry.split_at_mut(mid);
        let (tr_a, tr_b) = self.tr.split_at_mut(mid);
        let (st_a, st_b) = self.stages.split_at_mut(mid);
        let (ar_a, ar_b) = self.arity.split_at_mut(mid);
        let (rm_a, rm_b) = self.rowmax.split_at_mut(mid);
        let (rows_a, rows_b) = self.rows.shard_split(mid);
        (
            LedgerCols {
                arm: arm_a,
                entry: entry_a,
                tr_entry: tre_a,
                tr: tr_a,
                stages: st_a,
                arity: ar_a,
                rowmax: rm_a,
                rows: rows_a,
            },
            LedgerCols {
                arm: arm_b,
                entry: entry_b,
                tr_entry: tre_b,
                tr: tr_b,
                stages: st_b,
                arity: ar_b,
                rowmax: rm_b,
                rows: rows_b,
            },
        )
    }
}

/// Channel `channel`'s offset into `g` and its arity.
fn channel_span(offsets: &[usize], channel: usize) -> (usize, usize) {
    (offsets[channel], offsets[channel + 1] - offsets[channel])
}

/// The exact `O(m)` read: the worst entry of a peer's `row` (its channel's
/// `m` entries), with the open stretch on arm `open` recovered as the
/// prefix difference `gnow − snap_entry` minus the stretch's rate sum
/// `dtr`, clamped at `+0` — the peer's value before the time average.
#[inline]
fn row_max(row: &[f64], open: usize, gnow: &[f64], snap_entry: &[f64], dtr: f64) -> f64 {
    let mut max = 0.0f64;
    for (k, ((&r, &g), &s)) in row.iter().zip(gnow).zip(snap_entry).enumerate() {
        let v = if k == open { r } else { r + (g - s) - dtr };
        max = max.max(v);
    }
    max
}

impl RegretLedger {
    /// Creates an empty ledger for peers learning over
    /// `actions_per_channel` helper sets (raw arities, one per channel).
    pub fn new(actions_per_channel: &[usize]) -> Self {
        assert!(!actions_per_channel.is_empty(), "need at least one channel");
        let mut offsets = Vec::with_capacity(actions_per_channel.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &m in actions_per_channel {
            total += m;
            offsets.push(total);
        }
        let stride = actions_per_channel.iter().copied().max().unwrap_or(1).max(1);
        Self {
            offsets,
            stride,
            epochs: 0,
            g: vec![0.0; total],
            ring: vec![0.0; SNAPSHOT_SLOTS * total],
            dmax: vec![0.0; STRETCH_WINDOW as usize * actions_per_channel.len()],
            arm: Vec::new(),
            entry: Vec::new(),
            tr_entry: Vec::new(),
            tr: Vec::new(),
            stages: Vec::new(),
            arity: Vec::new(),
            rowmax: Vec::new(),
            handle: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Reserves room for `additional` more peers: their eight per-peer
    /// scalars and their rows, so that a bulk join grows no column.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.arm.reserve(additional);
        self.entry.reserve(additional);
        self.tr_entry.reserve(additional);
        self.tr.reserve(additional);
        self.stages.reserve(additional);
        self.arity.reserve(additional);
        self.rowmax.reserve(additional);
        self.handle.reserve(additional);
        self.rows.reserve(additional * self.stride);
    }

    /// Appends a fresh peer (call in the same order as the owning store's
    /// spawn), on a zeroed row past every other.
    pub fn add_peer(&mut self) {
        self.arm.push(NO_ARM);
        self.entry.push(0);
        self.tr_entry.push(0.0);
        self.tr.push(0.0);
        self.stages.push(0);
        self.arity.push(0);
        self.rowmax.push(0.0);
        self.handle.push((self.rows.len() / self.stride) as u32);
        self.rows.extend(std::iter::repeat_n(0.0, self.stride));
    }

    /// Removes the peers in `slots` (**sorted, unique, in range** — the
    /// owning store validates), compacting every per-peer column
    /// order-preservingly; the departed peers' rows stay behind as holes,
    /// until they outnumber a sixteenth of the survivors and one pass
    /// closes them ([`close_row_holes`]). Survivors' open stretches stay
    /// valid: the ledger's global state is slot-independent, so no fold is
    /// needed. Returns the bytes copied: eight scalars per relocated peer,
    /// and the rows such a pass moved.
    pub(crate) fn remove_slots(&mut self, slots: &[u32]) -> usize {
        let Some(&first) = slots.first() else { return 0 };
        compact_column(&mut self.arm, slots);
        compact_column(&mut self.entry, slots);
        compact_column(&mut self.tr_entry, slots);
        compact_column(&mut self.tr, slots);
        compact_column(&mut self.stages, slots);
        compact_column(&mut self.arity, slots);
        compact_column(&mut self.rowmax, slots);
        compact_column(&mut self.handle, slots);
        let kept = self.arm.len();
        let mut moved = (kept - first as usize) * PEER_SCALAR_BYTES;
        let (stride, rows) = (self.stride, &mut self.rows);
        let closed = close_row_holes(&mut self.handle, rows.len() / stride, |from, to| {
            rows.copy_within(from * stride..(from + 1) * stride, to * stride);
        });
        if let Some(moved_rows) = closed {
            rows.truncate(kept * stride);
            moved += moved_rows * stride * size_of::<f64>();
        }
        moved
    }

    /// Channel migration hook: folds peer `slot`'s open stretch against
    /// `old_channel`'s prefix (the stretch was accumulated there) and
    /// leaves no stretch open. The row itself is *not* touched — it
    /// resets lazily at the next record if the arity actually changed
    /// (see `arity`), preserving the historical same-arity semantics.
    pub(crate) fn migrate(&mut self, slot: usize, old_channel: usize) {
        let arm = self.arm[slot];
        if arm == NO_ARM {
            return;
        }
        let (off, m) = channel_span(&self.offsets, old_channel);
        debug_assert_eq!(
            self.arity[slot] as usize, m,
            "migrating from a channel never recorded"
        );
        let entry = u64::from(self.entry[slot]);
        // The stretch covers every recorded epoch up to `epochs − 1`,
        // whose inclusive prefix is the live `g` itself.
        let ring_off = (entry & SLOT_MASK) as usize * self.g.len();
        let snap_entry = &self.ring[ring_off + off..ring_off + off + m];
        let dtr = self.tr[slot] - self.tr_entry[slot];
        let row = &mut self.rows[self.handle[slot] as usize * self.stride..][..m];
        let mut top = f64::NEG_INFINITY;
        for (k, r) in row.iter_mut().enumerate() {
            if k != arm as usize {
                *r += (self.g[off + k] - snap_entry[k]) - dtr;
            }
            top = top.max(*r);
        }
        self.rowmax[slot] = top;
        self.arm[slot] = NO_ARM;
    }

    /// Starts an epoch: snapshots the exclusive prefix into the ring,
    /// adds this epoch's join rates to `g`, and refreshes the bound table
    /// for every entry epoch an open stretch can reference (`STRETCH_WINDOW
    /// · Σm` subtractions). Must be called exactly once per epoch, before
    /// any [`record_counted`] for it.
    ///
    /// # Panics
    ///
    /// Panics if the join-rate layout does not match the ledger's, or if
    /// `u32::MAX` epochs have been advanced: the per-peer columns count
    /// epochs in `u32`.
    pub fn advance_epoch(&mut self, join_offsets: &[usize], join_rates: &[f64]) {
        assert!(self.epochs < EPOCH_BOUND, "epoch count reached the u32 bound of the ledger");
        assert_eq!(join_offsets, &self.offsets[..], "join-rate layout drifted");
        assert_eq!(join_rates.len(), self.g.len(), "join-rate length drifted");
        let glen = self.g.len();
        let slot = (self.epochs & SLOT_MASK) as usize * glen;
        self.ring[slot..slot + glen].copy_from_slice(&self.g);
        for (gk, &jr) in self.g.iter_mut().zip(join_rates) {
            *gk += jr;
        }
        let e = self.epochs;
        self.epochs += 1;
        // A record at `e` leaves its stretch entered at `e − 63 ..= e`.
        let channels = self.offsets.len() - 1;
        for s in e.saturating_sub(STRETCH_WINDOW - 1)..=e {
            let snap = &self.ring[(s & SLOT_MASK) as usize * glen..][..glen];
            let bounds = &mut self.dmax[(s % STRETCH_WINDOW) as usize * channels..][..channels];
            for (c, bound) in bounds.iter_mut().enumerate() {
                let (lo, hi) = (self.offsets[c], self.offsets[c + 1]);
                *bound = self.g[lo..hi]
                    .iter()
                    .zip(&snap[lo..hi])
                    .fold(f64::NEG_INFINITY, |max, (g, snap)| max.max(g - snap));
            }
        }
    }

    /// Splits the ledger into its shared context and mutable per-peer
    /// columns for the epoch's record phase.
    ///
    /// # Panics
    ///
    /// Panics if no epoch has been advanced yet.
    pub fn split(&mut self) -> (LedgerCols<'_>, LedgerCtx<'_>) {
        assert!(self.epochs > 0, "record phase before advance_epoch");
        let cols = LedgerCols {
            arm: &mut self.arm,
            entry: &mut self.entry,
            tr_entry: &mut self.tr_entry,
            tr: &mut self.tr,
            stages: &mut self.stages,
            arity: &mut self.arity,
            rowmax: &mut self.rowmax,
            rows: Rows::by_handle(
                self.stride,
                &mut self.rows,
                &self.handle,
                increasing_aligned(&self.handle),
            ),
        };
        let ctx = LedgerCtx {
            offsets: &self.offsets,
            g: &self.g,
            ring: &self.ring,
            dmax: &self.dmax,
            epoch: self.epochs - 1,
        };
        (cols, ctx)
    }
}

/// Records one peer-epoch into a split ledger and returns the peer's
/// updated time-averaged worst true regret. `i` is the index **relative
/// to the shard's column chunk**; `channel` selects the join-rate slice;
/// `played`/`rate` are the peer's arm and observed (demand-capped) rate.
/// `folds` is incremented each time the call closes an open stretch with
/// a row write (an arm switch or a bounded-window fold). The counter is
/// pure observability — it is written only after the arithmetic is fully
/// determined, so traced and untraced runs stay bit-identical.
///
/// Every record goes through this arithmetic ([`record_max`] in the
/// store's observe phase on both engines) — the cross-engine
/// bit-equality of the regret series is structural, not coincidental.
#[inline]
pub fn record_counted(
    cols: &mut LedgerCols<'_>,
    ctx: &LedgerCtx<'_>,
    i: usize,
    channel: usize,
    played: usize,
    rate: f64,
    folds: &mut u64,
) -> f64 {
    let (off, m) = update(cols, ctx, i, channel, played, rate, folds);
    read(cols, ctx, i, off, m)
}

/// [`record_counted`] for a caller that keeps only the epoch's maximum:
/// folds peer `i`'s value into `worst` (`*worst = worst.max(value)`),
/// reading the peer's row only when the `O(1)` bound of the module docs
/// exceeds `worst`. Returns whether it read. `worst` ends bit-identical
/// to folding every [`record_counted`] value into it, and the ledger
/// ends in the same state.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn record_max(
    cols: &mut LedgerCols<'_>,
    ctx: &LedgerCtx<'_>,
    i: usize,
    channel: usize,
    played: usize,
    rate: f64,
    folds: &mut u64,
    worst: &mut f64,
) -> bool {
    let (off, m) = update(cols, ctx, i, channel, played, rate, folds);
    let rowmax = cols.rowmax[i];
    let channels = ctx.offsets.len() - 1;
    let dmax =
        ctx.dmax[(u64::from(cols.entry[i]) % STRETCH_WINDOW) as usize * channels + channel];
    let open = rowmax + dmax - (cols.tr[i] - cols.tr_entry[i]);
    // `f64::max` would drop a NaN `open`; keep it, so it fails the test.
    let ub = if open.is_nan() { open } else { open.max(rowmax).max(0.0) };
    if ub / u64::from(cols.stages[i]) as f64 <= *worst {
        return false;
    }
    *worst = worst.max(read(cols, ctx, i, off, m));
    true
}

/// The stretch bookkeeping of one record — lazy arity reset, stretch
/// close, rate sums — keeping the peer's `rowmax` wherever its row is
/// written. Returns the channel's offset and arity.
#[inline]
fn update(
    cols: &mut LedgerCols<'_>,
    ctx: &LedgerCtx<'_>,
    i: usize,
    channel: usize,
    played: usize,
    rate: f64,
    folds: &mut u64,
) -> (usize, usize) {
    let (off, m) = channel_span(ctx.offsets, channel);
    let glen = ctx.g.len();
    let row = cols.rows.row(i);
    // Lazy arity reset (historical semantics: an arity change discards
    // the row at the next record, a same-arity migration keeps it).
    if cols.arity[i] != m as u32 {
        if cols.arity[i] != 0 {
            row.fill(0.0);
            cols.rowmax[i] = 0.0;
            cols.stages[i] = 0;
            cols.tr[i] = 0.0;
            cols.tr_entry[i] = 0.0;
            cols.arm[i] = NO_ARM;
        }
        cols.arity[i] = m as u32;
    }
    let e = ctx.epoch;
    let entry = u64::from(cols.entry[i]);
    // Close the open stretch on an arm switch or when it hits the
    // bounded window (so its entry snapshot can retire from the ring).
    if cols.arm[i] != played as u32 || e - entry >= STRETCH_WINDOW {
        if cols.arm[i] != NO_ARM && e > entry {
            *folds += 1;
            let arm = cols.arm[i] as usize;
            let entry_off = (entry & SLOT_MASK) as usize * glen + off;
            let now_off = (e & SLOT_MASK) as usize * glen + off;
            let snap_entry = &ctx.ring[entry_off..entry_off + m];
            let snap_now = &ctx.ring[now_off..now_off + m];
            let dtr = cols.tr[i] - cols.tr_entry[i];
            let mut top = f64::NEG_INFINITY;
            for (k, r) in row[..m].iter_mut().enumerate() {
                if k != arm {
                    *r += (snap_now[k] - snap_entry[k]) - dtr;
                }
                top = top.max(*r);
            }
            cols.rowmax[i] = top;
        }
        cols.arm[i] = played as u32;
        // `e < EPOCH_BOUND`, which `advance_epoch` holds.
        cols.entry[i] = e as u32;
        cols.tr_entry[i] = cols.tr[i];
    }
    cols.tr[i] += rate;
    cols.stages[i] += 1;
    (off, m)
}

/// Peer `i`'s time-averaged value after its [`update`]: the open stretch
/// recovered as a prefix difference on the fly, everything else straight
/// from the row.
#[inline]
fn read(cols: &mut LedgerCols<'_>, ctx: &LedgerCtx<'_>, i: usize, off: usize, m: usize) -> f64 {
    let entry_off = (u64::from(cols.entry[i]) & SLOT_MASK) as usize * ctx.g.len() + off;
    let max = row_max(
        &cols.rows.row(i)[..m],
        cols.arm[i] as usize,
        &ctx.g[off..off + m],
        &ctx.ring[entry_off..entry_off + m],
        cols.tr[i] - cols.tr_entry[i],
    );
    max / u64::from(cols.stages[i]) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_regret::DenseRegret;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rths_par::par_sharded;

    /// The test readers of a ledger: they need its private columns, so
    /// they sit in this child module instead of the ledger's own impl.
    impl RegretLedger {
        /// Recorded epochs of peer `slot`'s current row.
        pub(crate) fn stages(&self, slot: usize) -> u64 {
            u64::from(self.stages[slot])
        }

        /// Peer `slot`'s folded row.
        fn row(&self, slot: usize) -> &[f64] {
            &self.rows[self.handle[slot] as usize * self.stride..][..self.stride]
        }

        /// Peer `slot`'s current time-averaged worst true regret (the same
        /// value the epoch's [`record_counted`] returned), as the oracles read it.
        pub(crate) fn peer_max(&self, slot: usize, channel: usize) -> f64 {
            let stages = u64::from(self.stages[slot]);
            if stages == 0 {
                return 0.0;
            }
            let arm = self.arm[slot];
            let max = if arm == NO_ARM {
                // No stretch open (a migration closed it): the row alone,
                // whose slack past the arity is zero.
                self.rowmax[slot].max(0.0)
            } else {
                let (off, m) = channel_span(&self.offsets, channel);
                let ring_off =
                    (u64::from(self.entry[slot]) & SLOT_MASK) as usize * self.g.len() + off;
                row_max(
                    &self.row(slot)[..m],
                    arm as usize,
                    &self.g[off..off + m],
                    &self.ring[ring_off..ring_off + m],
                    self.tr[slot] - self.tr_entry[slot],
                )
            };
            max / stages as f64
        }
    }

    /// Drives a folded ledger and the dense oracle through the same
    /// integral-rate trajectory and asserts bitwise equality of every
    /// per-epoch value. Returns the per-epoch maxima for extra checks.
    fn drive(
        seed: u64,
        peers: usize,
        arities: &[usize],
        epochs: u64,
        churn: bool,
        migrate: bool,
    ) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut folded = RegretLedger::new(arities);
        let mut dense = DenseRegret::new(arities);
        let mut channels: Vec<usize> = Vec::new();
        for _ in 0..peers {
            folded.add_peer();
            dense.add_peer();
            channels.push(rng.gen_range(0..arities.len()));
        }
        let offsets: Vec<usize> = {
            let mut o = vec![0usize];
            let mut t = 0;
            for &m in arities {
                t += m;
                o.push(t);
            }
            o
        };
        let total: usize = arities.iter().sum();
        let mut maxima = Vec::new();
        for e in 0..epochs {
            // Integral join rates and rates: exactness territory.
            let join: Vec<f64> = (0..total).map(|_| rng.gen_range(0..900) as f64).collect();
            folded.advance_epoch(&offsets, &join);
            let (mut cols, ctx) = folded.split();
            let mut epoch_max = 0.0f64;
            for (i, &c) in channels.iter().enumerate() {
                let m = arities[c];
                let played = rng.gen_range(0..m);
                let rate = rng.gen_range(0..800) as f64;
                let f = record_counted(&mut cols, &ctx, i, c, played, rate, &mut 0);
                let d = dense.record(i, c, played, rate, &join);
                assert_eq!(
                    f.to_bits(),
                    d.to_bits(),
                    "peer {i} diverged at epoch {e}: folded {f} vs dense {d}"
                );
                epoch_max = epoch_max.max(f);
            }
            maxima.push(epoch_max);
            for (i, &c) in channels.iter().enumerate() {
                let f = folded.peer_max(i, c);
                let d = dense.peer_max(i);
                assert_eq!(f.to_bits(), d.to_bits(), "peer_max {i} diverged at epoch {e}");
            }
            if migrate && !channels.is_empty() && rng.gen_range(0..4) == 0 {
                let slot = rng.gen_range(0..channels.len());
                let to = rng.gen_range(0..arities.len());
                folded.migrate(slot, channels[slot]);
                channels[slot] = to;
                // The dense oracle needs no hook: its lazy reset keys on
                // the arity seen at the next record, like the ledger's.
            }
            if churn && rng.gen_range(0..5) == 0 {
                if channels.len() > 2 && rng.gen_bool(0.5) {
                    let slot = rng.gen_range(0..channels.len()) as u32;
                    folded.remove_slots(&[slot]);
                    dense.remove_slots(&[slot]);
                    channels.remove(slot as usize);
                } else {
                    folded.add_peer();
                    dense.add_peer();
                    channels.push(rng.gen_range(0..arities.len()));
                }
            }
        }
        maxima
    }

    #[test]
    fn fold_matches_dense_bitwise() {
        // Randomized configs: single- and multi-channel, mixed arities.
        // Epoch counts cross STRETCH_WINDOW so forced folds and ring
        // wraparound (epochs > SNAPSHOT_SLOTS) are exercised.
        drive(1, 6, &[4], 200, false, false);
        drive(2, 5, &[3, 5, 2], 180, false, false);
        drive(3, 8, &[2], 150, false, false);
    }

    #[test]
    fn fold_matches_dense_under_churn_and_migration() {
        drive(11, 6, &[3, 4], 220, true, true);
        drive(12, 4, &[5, 5], 160, true, false);
        drive(13, 7, &[2, 6, 3], 200, false, true);
    }

    #[test]
    fn long_stretches_survive_ring_wraparound() {
        // One peer pinned to one arm for 500 epochs: forced folds every
        // STRETCH_WINDOW keep the entry snapshot inside the ring while
        // the ring wraps ~4×; the dense oracle stays bit-equal.
        let mut folded = RegretLedger::new(&[3]);
        let mut dense = DenseRegret::new(&[3]);
        folded.add_peer();
        dense.add_peer();
        for e in 0..500u64 {
            let join = [((e * 7) % 11) as f64, ((e * 3) % 13) as f64, 5.0];
            folded.advance_epoch(&[0, 3], &join);
            let (mut cols, ctx) = folded.split();
            let f = record_counted(&mut cols, &ctx, 0, 0, 1, ((e * 5) % 9) as f64, &mut 0);
            let d = dense.record(0, 0, 1, ((e * 5) % 9) as f64, &join);
            assert_eq!(f.to_bits(), d.to_bits(), "diverged at epoch {e}");
        }
    }

    impl RegretLedger {
        /// Test hook: `rowmax` and the live bound table are what a
        /// recompute from the rows, `g` and the ring gives — `to_bits`.
        fn assert_maintained(&self, what: &str) {
            for slot in 0..self.arm.len() {
                let row = &self.row(slot)[..self.arity[slot] as usize];
                let want = if row.is_empty() {
                    0.0
                } else {
                    row.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                };
                assert_eq!(
                    self.rowmax[slot].to_bits(),
                    want.to_bits(),
                    "{what}: rowmax {slot}"
                );
            }
            let Some(e) = self.epochs.checked_sub(1) else { return };
            let (channels, glen) = (self.offsets.len() - 1, self.g.len());
            for s in e.saturating_sub(STRETCH_WINDOW - 1)..=e {
                let snap = &self.ring[(s & SLOT_MASK) as usize * glen..];
                for c in 0..channels {
                    let want = (self.offsets[c]..self.offsets[c + 1])
                        .map(|k| self.g[k] - snap[k])
                        .fold(f64::NEG_INFINITY, f64::max);
                    let got = self.dmax[(s % STRETCH_WINDOW) as usize * channels + c];
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}: dmax[{s}][{c}]");
                }
            }
        }
    }

    /// How [`pruned_drive`] picks its population's moves.
    #[derive(Clone, Copy, Default)]
    struct Script {
        /// Integral join rates and rates (else arbitrary fractions).
        integral: bool,
        /// Every peer plays and observes the same as peer 0.
        identical: bool,
        /// Odd peers copy their even neighbour: every max is a tie.
        twins: bool,
        /// Arrivals and departures between epochs.
        churn: bool,
        /// Channel migrations between epochs.
        migrate: bool,
        /// Departures and migrations pick the epoch's worst peer.
        hunt_worst: bool,
    }

    /// The pruned epoch max at `shards` shards through [`record_max`], and
    /// how many rows it read.
    fn pruned_max(
        ledger: &mut RegretLedger,
        moves: &[(usize, usize, f64)],
        shards: usize,
    ) -> (f64, u64) {
        let n = ledger.arm.len();
        let mut acc = vec![(0.0f64, 0u64); shards.clamp(1, n.max(1))];
        let (cols, ctx) = ledger.split();
        par_sharded(n, acc.len(), cols, &mut acc[..], |shard, mut cols, acc| {
            let mut folds = 0;
            for i in 0..shard.len() {
                let (c, played, rate) = moves[shard.start + i];
                let read =
                    record_max(&mut cols, &ctx, i, c, played, rate, &mut folds, &mut acc.0);
                acc.1 += u64::from(read);
            }
        });
        (acc.iter().fold(0.0f64, |max, a| max.max(a.0)), acc.iter().map(|a| a.1).sum())
    }

    /// Drives one ledger through [`record_counted`] and, in lockstep, one
    /// per shard count through the pruned fold: every
    /// epoch's pruned max must be the max of the exact per-peer values, the
    /// ledgers must stay equal peer by peer, and `rowmax`/`dmax` must equal
    /// a recompute after every operation. Returns `(reads, records)`.
    fn pruned_drive(
        seed: u64,
        peers: usize,
        arities: &[usize],
        epochs: u64,
        s: Script,
    ) -> (u64, u64) {
        const SHARDS: [usize; 4] = [1, 2, 3, 7];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut exact = RegretLedger::new(arities);
        let mut channels: Vec<usize> = Vec::new();
        for _ in 0..peers {
            exact.add_peer();
            channels.push(if s.identical { 0 } else { rng.gen_range(0..arities.len()) });
        }
        let mut pruned = vec![exact.clone(); SHARDS.len()];
        let offsets: Vec<usize> = std::iter::once(0)
            .chain(arities.iter().scan(0, |t, &m| {
                *t += m;
                Some(*t)
            }))
            .collect();
        let total = offsets[arities.len()];
        let draw = |rng: &mut rand::rngs::StdRng, hi: f64| {
            if s.integral {
                rng.gen_range(0..hi as u64) as f64
            } else {
                rng.gen::<f64>() * hi
            }
        };
        let (mut reads, mut records) = (0u64, 0u64);
        for e in 0..epochs {
            if s.twins {
                // A twin sits on its neighbour's channel too.
                for i in (1..channels.len()).step_by(2) {
                    channels[i] = channels[i - 1];
                }
            }
            let join: Vec<f64> = (0..total).map(|_| draw(&mut rng, 900.0)).collect();
            let mut moves: Vec<(usize, usize, f64)> = Vec::with_capacity(channels.len());
            for (i, &c) in channels.iter().enumerate() {
                let mv = if (s.identical && i > 0) || (s.twins && i % 2 == 1) {
                    moves[i - 1]
                } else {
                    let played = rng.gen_range(0..arities[c]);
                    // A fifth of the epochs are lost: rate zero.
                    let rate =
                        if rng.gen_range(0..5) == 0 { 0.0 } else { draw(&mut rng, 800.0) };
                    (c, played, rate)
                };
                moves.push(mv);
            }
            exact.advance_epoch(&offsets, &join);
            let (mut cols, ctx) = exact.split();
            let mut folds = 0;
            let values: Vec<f64> = moves
                .iter()
                .enumerate()
                .map(|(i, &(c, p, r))| record_counted(&mut cols, &ctx, i, c, p, r, &mut folds))
                .collect();
            let want = values.iter().copied().fold(0.0f64, f64::max);
            for (ledger, shards) in pruned.iter_mut().zip(SHARDS) {
                ledger.advance_epoch(&offsets, &join);
                let (got, read) = pruned_max(ledger, &moves, shards);
                assert_eq!(got.to_bits(), want.to_bits(), "epoch {e}, {shards} shards");
                if shards == 1 {
                    reads += read;
                    records += moves.len() as u64;
                }
            }
            let mut others: Vec<&mut RegretLedger> = pruned.iter_mut().collect();
            check(&exact, &others, &channels, &format!("epoch {e}"));
            let worst = values
                .iter()
                .enumerate()
                .fold(
                    (0, f64::NEG_INFINITY),
                    |best, (i, &v)| if v > best.1 { (i, v) } else { best },
                )
                .0;
            let pick = |rng: &mut rand::rngs::StdRng, n: usize| {
                if s.hunt_worst {
                    worst
                } else {
                    rng.gen_range(0..n)
                }
            };
            if s.migrate && !channels.is_empty() && rng.gen_range(0..3) == 0 {
                let slot = pick(&mut rng, channels.len());
                let to = rng.gen_range(0..arities.len());
                exact.migrate(slot, channels[slot]);
                for ledger in others.iter_mut() {
                    ledger.migrate(slot, channels[slot]);
                }
                channels[slot] = to;
            }
            if s.churn && rng.gen_range(0..3) == 0 {
                if channels.len() > 2 && rng.gen_bool(0.5) {
                    let slot = pick(&mut rng, channels.len()) as u32;
                    exact.remove_slots(&[slot]);
                    for ledger in others.iter_mut() {
                        ledger.remove_slots(&[slot]);
                    }
                    channels.remove(slot as usize);
                } else {
                    exact.add_peer();
                    for ledger in others.iter_mut() {
                        ledger.add_peer();
                    }
                    channels.push(rng.gen_range(0..arities.len()));
                }
            }
            check(&exact, &others, &channels, &format!("after epoch {e}"));
        }
        (reads, records)
    }

    /// Every ledger of `others` keeps its bound state exact and agrees
    /// with `exact` on every peer's value.
    fn check(
        exact: &RegretLedger,
        others: &[&mut RegretLedger],
        channels: &[usize],
        what: &str,
    ) {
        for ledger in others {
            ledger.assert_maintained(what);
            for (i, &c) in channels.iter().enumerate() {
                assert_eq!(
                    ledger.peer_max(i, c).to_bits(),
                    exact.peer_max(i, c).to_bits(),
                    "{what}: peer {i}"
                );
            }
        }
    }

    /// The pruned fold (bound, then read) against the exact one, `to_bits`,
    /// at shard counts 1/2/3/7: integral and fractional rates, lost
    /// epochs, 1–3 channels of mixed arity, migrations, churn, and more
    /// than `SNAPSHOT_SLOTS` epochs so window folds and ring wrap run.
    /// Adversarial populations too: all peers identical, the worst peer
    /// departing or migrating, and ties at the max.
    #[test]
    fn pruned_epoch_max_equals_exact_max() {
        let base = Script::default();
        let churned = Script { churn: true, migrate: true, ..base };
        for integral in [true, false] {
            let run = |seed, peers, arities: &[usize], s: Script| {
                pruned_drive(seed, peers, arities, 200, Script { integral, ..s })
            };
            let (reads, records) = run(1, 40, &[6], base);
            assert!(reads > 0 && reads < records / 2, "{reads} of {records} read");
            run(2, 30, &[3, 5, 2], churned);
            run(3, 25, &[4, 4], churned);
            run(4, 20, &[1, 7], churned);
            run(5, 12, &[5], Script { identical: true, ..base });
            run(6, 24, &[3, 6], Script { hunt_worst: true, ..churned });
            run(7, 24, &[5], Script { twins: true, ..base });
            run(8, 16, &[4, 2, 5], Script { twins: true, hunt_worst: true, ..churned });
        }
    }

    /// Departures leave their rows behind as holes and arrivals append
    /// zeroed rows, until the holes outnumber a sixteenth of the peers and
    /// one pass closes them: over 600 epochs of random departures and
    /// arrivals on two channels, every record and every `peer_max` equals
    /// the dense oracle's `to_bits`, a fresh arrival's `peer_max` is 0, the
    /// row handles stay strictly increasing, and the holes never outgrow
    /// their bound. Both states — holes open, holes just closed — occur.
    #[test]
    fn departed_rows_stay_holes_until_one_pass_closes_them() {
        let arities = [5, 3];
        let offsets = [0, 5, 8];
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut folded = RegretLedger::new(&arities);
        let mut dense = DenseRegret::new(&arities);
        let mut channels: Vec<usize> = Vec::new();
        let arrive = |folded: &mut RegretLedger,
                      dense: &mut DenseRegret,
                      channels: &mut Vec<usize>,
                      c| {
            folded.add_peer();
            dense.add_peer();
            channels.push(c);
            assert_eq!(folded.peer_max(channels.len() - 1, c).to_bits(), 0, "fresh arrival");
        };
        for p in 0..64 {
            arrive(&mut folded, &mut dense, &mut channels, p % 2);
        }
        let (mut open, mut closed) = (0, 0);
        for e in 0..600 {
            let join: Vec<f64> = (0..8).map(|_| rng.gen_range(0..900) as f64).collect();
            folded.advance_epoch(&offsets, &join);
            let (mut cols, ctx) = folded.split();
            for (i, &c) in channels.iter().enumerate() {
                let played = rng.gen_range(0..arities[c]);
                let rate = rng.gen_range(0..800) as f64;
                let f = record_counted(&mut cols, &ctx, i, c, played, rate, &mut 0);
                let d = dense.record(i, c, played, rate, &join);
                assert_eq!(f.to_bits(), d.to_bits(), "peer {i} at epoch {e}");
            }
            let gone: Vec<u32> =
                (0..channels.len() as u32).filter(|_| rng.gen_range(0..20) == 0).collect();
            folded.remove_slots(&gone);
            dense.remove_slots(&gone);
            for &slot in gone.iter().rev() {
                channels.remove(slot as usize);
            }
            let (n, rows) = (folded.arm.len(), folded.rows.len() / folded.stride);
            assert!(rows - n <= n / 16, "epoch {e}: {} holes left open", rows - n);
            assert!(folded.handle.windows(2).all(|w| w[0] < w[1]), "epoch {e}: handles");
            if rows > n {
                open += 1;
            } else if !gone.is_empty() {
                closed += 1;
            }
            for _ in 0..rng.gen_range(0..5) {
                arrive(&mut folded, &mut dense, &mut channels, rng.gen_range(0..2));
            }
            for (i, &c) in channels.iter().enumerate() {
                let (f, d) = (folded.peer_max(i, c), dense.peer_max(i));
                assert_eq!(f.to_bits(), d.to_bits(), "peer_max {i} after epoch {e}");
            }
        }
        assert!(open > 0 && closed > 0, "holes open {open}, closed {closed}");
    }

    #[test]
    fn empty_ledger_is_inert() {
        let mut ledger = RegretLedger::new(&[4]);
        assert!(ledger.arm.is_empty());
        ledger.advance_epoch(&[0, 4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(pruned_max(&mut ledger, &[], 4), (0.0, 0));
        assert_eq!(ledger.remove_slots(&[]), 0);
    }

    /// The ledger's per-peer columns hold epochs in `u32`: the last epoch
    /// below the bound records (its entry epoch is `u32::MAX − 1`, its
    /// stage count 1), and a ledger whose epoch count is at the bound
    /// refuses the next epoch.
    #[test]
    #[should_panic(expected = "u32 bound")]
    fn advance_refuses_an_epoch_count_at_the_u32_bound() {
        let mut ledger = RegretLedger::new(&[2]);
        ledger.add_peer();
        ledger.epochs = EPOCH_BOUND - 1;
        ledger.advance_epoch(&[0, 2], &[3.0, 5.0]);
        let (mut cols, ctx) = ledger.split();
        assert_eq!(record_counted(&mut cols, &ctx, 0, 0, 1, 1.0, &mut 0), 2.0);
        assert_eq!((ledger.entry[0], ledger.stages(0)), (u32::MAX - 1, 1));
        assert_eq!(ledger.epochs, EPOCH_BOUND);
        ledger.advance_epoch(&[0, 2], &[3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "layout drifted")]
    fn advance_rejects_layout_drift() {
        let mut ledger = RegretLedger::new(&[4]);
        ledger.advance_epoch(&[0, 3], &[1.0, 2.0, 3.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn stretch_folded_regret_matches_dense_bitwise(
            peers in 1usize..9,
            arity in 1usize..6,
            second_arity in 0usize..6,
            epochs in 1u64..200,
            seed in any::<u64>(),
        ) {
            // The stretch-folded ledger must equal a dense per-epoch row
            // update bit-for-bit on integral workloads (where f64 addition
            // is exact under any grouping — the regime every recorded
            // trajectory lives in). Randomized arms, rates, and join rates;
            // epoch counts cross STRETCH_WINDOW so forced folds run too.
            let arities: Vec<usize> =
                if second_arity == 0 { vec![arity] } else { vec![arity, second_arity] };
            let offsets: Vec<usize> = std::iter::once(0)
                .chain(arities.iter().scan(0, |acc, &m| { *acc += m; Some(*acc) }))
                .collect();
            let total: usize = arities.iter().sum();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut folded = RegretLedger::new(&arities);
            let mut dense = DenseRegret::new(&arities);
            let channels: Vec<usize> =
                (0..peers).map(|_| rng.gen_range(0..arities.len())).collect();
            for _ in 0..peers {
                folded.add_peer();
                dense.add_peer();
            }
            for _ in 0..epochs {
                let join: Vec<f64> = (0..total).map(|_| rng.gen_range(0..900) as f64).collect();
                folded.advance_epoch(&offsets, &join);
                let (mut cols, ctx) = folded.split();
                for (i, &c) in channels.iter().enumerate() {
                    let played = rng.gen_range(0..arities[c]);
                    let rate = rng.gen_range(0..800) as f64;
                    let f = record_counted(&mut cols, &ctx, i, c, played, rate, &mut 0);
                    let d = dense.record(i, c, played, rate, &join);
                    prop_assert_eq!(f.to_bits(), d.to_bits(),
                        "peer {} diverged: folded {} vs dense {}", i, f, d);
                }
            }
            for (i, &c) in channels.iter().enumerate() {
                prop_assert_eq!(folded.peer_max(i, c).to_bits(), dense.peer_max(i).to_bits());
            }
        }
    }
}
