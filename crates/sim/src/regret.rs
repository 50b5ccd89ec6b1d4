//! Stretch-folded true-regret accounting.
//!
//! The engine (and `rths_net`'s coordinator machine) reports the
//! paper's Fig. 1 series: the worst peer's time-averaged **true regret**
//! against every fixed alternative helper,
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
//!   stretches (`stride` f64s, `stride = max` channel arity),
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
//! this module proves folded == dense bit-for-bit on randomized
//! configurations (switches, window folds, migrations, churn). On
//! non-integral workloads the two groupings may differ in the last ulp;
//! what stays exact *unconditionally* is cross-engine equality, because
//! the simulator and both net backends call the **same**
//! [`record`] function with the same inputs at the same epochs (the
//! `sim_net_equivalence` suite pins that bit-for-bit).
//!
//! # Churn
//!
//! Per-peer state is slot-aligned with the owning store's columns and
//! carries no slot-dependent references (the ring is global, entries are
//! epochs), so removal is a plain order-preserving column compaction:
//! survivors' open stretches stay valid verbatim, and a departed peer's
//! stretch needs no fold — its row leaves the population with it.

use rths_core::for_each_survivor_move;
use rths_par::{par_sharded, Shard, ShardCols, Strided};

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

/// Stretch-folded true-regret accounting for one peer population.
///
/// Columns are index-aligned with the owning store (or coordinator
/// peer-id order); the global prefix/ring state is shared by every peer.
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
    // === per-peer columns (slot-aligned with the owning store) ===
    /// Open-stretch arm ([`NO_ARM`] when none).
    arm: Vec<u32>,
    /// Open-stretch entry epoch.
    entry: Vec<u64>,
    /// Value of `tr` when the open stretch was entered.
    tr_entry: Vec<f64>,
    /// Total observed rate over all recorded epochs of the current row.
    tr: Vec<f64>,
    /// Recorded epochs of the current row (the time-average divisor).
    stages: Vec<u64>,
    /// Arity the row currently represents (0 before the first record).
    /// The row resets **lazily** at the next record when the arity
    /// changed — the historical semantics, under which a round-trip
    /// channel migration back to the original arity keeps its
    /// accumulated regret history.
    arity: Vec<u32>,
    /// Folded rows, `stride` scalars per peer (trailing slack is zero).
    rows: Vec<f64>,
}

/// The shared (read-only during a phase) half of a split ledger: global
/// prefix, snapshot ring, layout, and the epoch records target.
#[derive(Debug, Clone, Copy)]
pub struct LedgerCtx<'a> {
    offsets: &'a [usize],
    g: &'a [f64],
    ring: &'a [f64],
    /// The epoch being recorded (`epochs − 1`).
    epoch: u64,
}

/// The mutable per-peer half of a split ledger. Implements
/// [`ShardCols`], so a phase can hand each shard the contiguous range of
/// every column alongside the owning store's own columns.
#[derive(Debug)]
pub struct LedgerCols<'a> {
    arm: &'a mut [u32],
    entry: &'a mut [u64],
    tr_entry: &'a mut [f64],
    tr: &'a mut [f64],
    stages: &'a mut [u64],
    arity: &'a mut [u32],
    rows: Strided<'a, f64>,
}

impl ShardCols for LedgerCols<'_> {
    fn shard_split(self, mid: usize) -> (Self, Self) {
        let (arm_a, arm_b) = self.arm.split_at_mut(mid);
        let (entry_a, entry_b) = self.entry.split_at_mut(mid);
        let (tre_a, tre_b) = self.tr_entry.split_at_mut(mid);
        let (tr_a, tr_b) = self.tr.split_at_mut(mid);
        let (st_a, st_b) = self.stages.split_at_mut(mid);
        let (ar_a, ar_b) = self.arity.split_at_mut(mid);
        let (rows_a, rows_b) = self.rows.shard_split(mid);
        (
            LedgerCols {
                arm: arm_a,
                entry: entry_a,
                tr_entry: tre_a,
                tr: tr_a,
                stages: st_a,
                arity: ar_a,
                rows: rows_a,
            },
            LedgerCols {
                arm: arm_b,
                entry: entry_b,
                tr_entry: tre_b,
                tr: tr_b,
                stages: st_b,
                arity: ar_b,
                rows: rows_b,
            },
        )
    }
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
            arm: Vec::new(),
            entry: Vec::new(),
            tr_entry: Vec::new(),
            tr: Vec::new(),
            stages: Vec::new(),
            arity: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Row stride (the largest channel arity).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Epochs advanced so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Recorded epochs of peer `slot`'s current row.
    pub fn stages(&self, slot: usize) -> u64 {
        self.stages[slot]
    }

    /// Appends a fresh peer row (call in the same order as the owning
    /// store's spawn).
    pub fn add_peer(&mut self) {
        self.arm.push(NO_ARM);
        self.entry.push(0);
        self.tr_entry.push(0.0);
        self.tr.push(0.0);
        self.stages.push(0);
        self.arity.push(0);
        self.rows.extend(std::iter::repeat_n(0.0, self.stride));
    }

    /// Number of peer rows.
    pub fn len(&self) -> usize {
        self.arm.len()
    }

    /// Whether the ledger holds no peer rows.
    pub fn is_empty(&self) -> bool {
        self.arm.is_empty()
    }

    /// Removes the peers in `slots` (**sorted, unique, in range** — the
    /// owning store validates), compacting every column
    /// order-preservingly. Survivors' open stretches stay valid: the
    /// ledger's global state is slot-independent, so no fold is needed.
    pub fn remove_slots(&mut self, slots: &[u32]) {
        let stride = self.stride;
        let Self { arm, entry, tr_entry, tr, stages, arity, rows, .. } = self;
        let kept = for_each_survivor_move(arm.len(), slots, |read, write| {
            arm.swap(write, read);
            entry.swap(write, read);
            tr_entry.swap(write, read);
            tr.swap(write, read);
            stages.swap(write, read);
            arity.swap(write, read);
            rows.copy_within(read * stride..(read + 1) * stride, write * stride);
        });
        arm.truncate(kept);
        entry.truncate(kept);
        tr_entry.truncate(kept);
        tr.truncate(kept);
        stages.truncate(kept);
        arity.truncate(kept);
        rows.truncate(kept * stride);
    }

    /// Channel migration hook: folds peer `slot`'s open stretch against
    /// `old_channel`'s prefix (the stretch was accumulated there) and
    /// leaves no stretch open. The row itself is *not* touched — it
    /// resets lazily at the next record if the arity actually changed
    /// (see `arity`), preserving the historical same-arity semantics.
    pub fn migrate(&mut self, slot: usize, old_channel: usize) {
        let arm = self.arm[slot];
        if arm == NO_ARM {
            return;
        }
        let off = self.offsets[old_channel];
        let m = self.offsets[old_channel + 1] - off;
        let entry = self.entry[slot];
        // The stretch covers every recorded epoch up to `epochs − 1`,
        // whose inclusive prefix is the live `g` itself.
        let ring_off = (entry & SLOT_MASK) as usize * self.g.len();
        let snap_entry = &self.ring[ring_off + off..ring_off + off + m];
        let dtr = self.tr[slot] - self.tr_entry[slot];
        let row = &mut self.rows[slot * self.stride..slot * self.stride + m];
        for (k, r) in row.iter_mut().enumerate() {
            if k != arm as usize {
                *r += (self.g[off + k] - snap_entry[k]) - dtr;
            }
        }
        self.arm[slot] = NO_ARM;
    }

    /// Starts an epoch: snapshots the exclusive prefix into the ring and
    /// adds this epoch's join rates to `g`. Must be called exactly once
    /// per epoch, before any [`record`] for it.
    ///
    /// # Panics
    ///
    /// Panics if the join-rate layout does not match the ledger's.
    pub fn advance_epoch(&mut self, join_offsets: &[usize], join_rates: &[f64]) {
        assert_eq!(join_offsets, &self.offsets[..], "join-rate layout drifted");
        assert_eq!(join_rates.len(), self.g.len(), "join-rate length drifted");
        let glen = self.g.len();
        let slot = (self.epochs & SLOT_MASK) as usize * glen;
        self.ring[slot..slot + glen].copy_from_slice(&self.g);
        for (gk, &jr) in self.g.iter_mut().zip(join_rates) {
            *gk += jr;
        }
        self.epochs += 1;
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
            rows: Strided::new(self.stride, &mut self.rows),
        };
        let ctx = LedgerCtx {
            offsets: &self.offsets,
            g: &self.g,
            ring: &self.ring,
            epoch: self.epochs - 1,
        };
        (cols, ctx)
    }

    /// Peer `slot`'s current time-averaged worst true regret (the same
    /// value the epoch's [`record`] returned), for final reporting.
    pub fn peer_max(&self, slot: usize, channel: usize) -> f64 {
        if self.stages[slot] == 0 {
            return 0.0;
        }
        let row = &self.rows[slot * self.stride..(slot + 1) * self.stride];
        let arm = self.arm[slot];
        let mut max = 0.0f64;
        if arm == NO_ARM {
            for &v in row {
                max = max.max(v);
            }
        } else {
            let off = self.offsets[channel];
            let m = self.offsets[channel + 1] - off;
            let ring_off = (self.entry[slot] & SLOT_MASK) as usize * self.g.len();
            let snap_entry = &self.ring[ring_off + off..ring_off + off + m];
            let dtr = self.tr[slot] - self.tr_entry[slot];
            for (k, &r) in row[..m].iter().enumerate() {
                let v = if k == arm as usize {
                    r
                } else {
                    r + (self.g[off + k] - snap_entry[k]) - dtr
                };
                max = max.max(v);
            }
        }
        max / self.stages[slot] as f64
    }

    /// Runs the coordinator-style record phase over the whole
    /// population: `chosen[i]`/`rates[i]` give peer `i`'s arm and
    /// observed rate (single channel), sharded across `shards`
    /// contiguous ranges with a shard-ordered max reduction. Returns the
    /// epoch's worst time-averaged regret — bit-identical at any shard
    /// count (per-peer values are independent, and the merge is a max
    /// over non-negatives).
    pub fn record_all_max(
        &mut self,
        chosen: &[usize],
        rates: &[f64],
        shards: usize,
        shard_max: &mut Vec<f64>,
    ) -> f64 {
        let n = self.len();
        assert_eq!(chosen.len(), n, "chosen column must be index-aligned");
        assert_eq!(rates.len(), n, "rates column must be index-aligned");
        if n == 0 {
            return 0.0;
        }
        let used = shards.clamp(1, n);
        shard_max.clear();
        shard_max.resize(used, 0.0);
        let (cols, ctx) = self.split();
        par_sharded(n, used, cols, &mut shard_max[..], |shard: Shard, mut cols, max| {
            for i in 0..shard.len() {
                let abs = shard.start + i;
                let v = record(&mut cols, &ctx, i, 0, chosen[abs], rates[abs]);
                *max = max.max(v);
            }
        });
        shard_max.iter().copied().fold(0.0f64, f64::max)
    }
}

/// Records one peer-epoch into a split ledger and returns the peer's
/// updated time-averaged worst true regret. `i` is the index **relative
/// to the shard's column chunk**; `channel` selects the join-rate slice;
/// `played`/`rate` are the peer's arm and observed (demand-capped) rate.
///
/// This is the one function the engine and the net coordinator call —
/// the cross-engine bit-equality of the regret series is structural, not
/// coincidental.
#[inline]
pub fn record(
    cols: &mut LedgerCols<'_>,
    ctx: &LedgerCtx<'_>,
    i: usize,
    channel: usize,
    played: usize,
    rate: f64,
) -> f64 {
    let mut folds = 0u64;
    record_counted(cols, ctx, i, channel, played, rate, &mut folds)
}

/// [`record`] with stretch-fold accounting: `folds` is incremented each
/// time the call closes an open stretch with a row write (an arm switch
/// or a bounded-window fold). The counter is pure observability — it is
/// written only after the arithmetic is fully determined, so traced and
/// untraced runs stay bit-identical.
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
    let off = ctx.offsets[channel];
    let m = ctx.offsets[channel + 1] - off;
    let glen = ctx.g.len();
    let row = cols.rows.row(i);
    // Lazy arity reset (historical semantics: an arity change discards
    // the row at the next record, a same-arity migration keeps it).
    if cols.arity[i] != m as u32 {
        if cols.arity[i] != 0 {
            row.fill(0.0);
            cols.stages[i] = 0;
            cols.tr[i] = 0.0;
            cols.tr_entry[i] = 0.0;
            cols.arm[i] = NO_ARM;
        }
        cols.arity[i] = m as u32;
    }
    let e = ctx.epoch;
    // Close the open stretch on an arm switch or when it hits the
    // bounded window (so its entry snapshot can retire from the ring).
    if cols.arm[i] != played as u32 || e - cols.entry[i] >= STRETCH_WINDOW {
        if cols.arm[i] != NO_ARM && e > cols.entry[i] {
            *folds += 1;
            let arm = cols.arm[i] as usize;
            let entry_off = (cols.entry[i] & SLOT_MASK) as usize * glen + off;
            let now_off = (e & SLOT_MASK) as usize * glen + off;
            let snap_entry = &ctx.ring[entry_off..entry_off + m];
            let snap_now = &ctx.ring[now_off..now_off + m];
            let dtr = cols.tr[i] - cols.tr_entry[i];
            for (k, r) in row[..m].iter_mut().enumerate() {
                if k != arm {
                    *r += (snap_now[k] - snap_entry[k]) - dtr;
                }
            }
        }
        cols.arm[i] = played as u32;
        cols.entry[i] = e;
        cols.tr_entry[i] = cols.tr[i];
    }
    cols.tr[i] += rate;
    cols.stages[i] += 1;
    // The epoch's worst entry: the open stretch recovered as a prefix
    // difference on the fly, everything else straight from the row.
    let entry_off = (cols.entry[i] & SLOT_MASK) as usize * glen + off;
    let snap_entry = &ctx.ring[entry_off..entry_off + m];
    let gnow = &ctx.g[off..off + m];
    let dtr = cols.tr[i] - cols.tr_entry[i];
    let mut max = 0.0f64;
    for (k, &r) in row[..m].iter().enumerate() {
        let v = if k == played { r } else { r + (gnow[k] - snap_entry[k]) - dtr };
        max = max.max(v);
    }
    max / cols.stages[i] as f64
}

/// Dense reference implementation of the same accounting: one row per
/// peer updated `O(h)` every epoch. Exists as the oracle the
/// stretch-folding property tests compare against bit-for-bit (on
/// integral workloads, see the module docs) — not for production use.
#[derive(Debug, Clone)]
pub struct DenseRegret {
    offsets: Vec<usize>,
    stride: usize,
    rows: Vec<f64>,
    stages: Vec<u64>,
    arity: Vec<u32>,
}

impl DenseRegret {
    /// Mirrors [`RegretLedger::new`].
    pub fn new(actions_per_channel: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(actions_per_channel.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &m in actions_per_channel {
            total += m;
            offsets.push(total);
        }
        let stride = actions_per_channel.iter().copied().max().unwrap_or(1).max(1);
        Self { offsets, stride, rows: Vec::new(), stages: Vec::new(), arity: Vec::new() }
    }

    /// Mirrors [`RegretLedger::add_peer`].
    pub fn add_peer(&mut self) {
        self.rows.extend(std::iter::repeat_n(0.0, self.stride));
        self.stages.push(0);
        self.arity.push(0);
    }

    /// Mirrors [`RegretLedger::remove_slots`].
    pub fn remove_slots(&mut self, slots: &[u32]) {
        let stride = self.stride;
        let Self { stages, arity, rows, .. } = self;
        let kept = for_each_survivor_move(stages.len(), slots, |read, write| {
            stages.swap(write, read);
            arity.swap(write, read);
            rows.copy_within(read * stride..(read + 1) * stride, write * stride);
        });
        stages.truncate(kept);
        arity.truncate(kept);
        rows.truncate(kept * stride);
    }

    /// Records one peer-epoch densely and returns the peer's updated
    /// time-averaged worst true regret.
    pub fn record(
        &mut self,
        slot: usize,
        channel: usize,
        played: usize,
        rate: f64,
        join_rates: &[f64],
    ) -> f64 {
        let off = self.offsets[channel];
        let m = self.offsets[channel + 1] - off;
        let jr = &join_rates[off..off + m];
        let row = &mut self.rows[slot * self.stride..(slot + 1) * self.stride];
        if self.arity[slot] != m as u32 {
            if self.arity[slot] != 0 {
                row.fill(0.0);
                self.stages[slot] = 0;
            }
            self.arity[slot] = m as u32;
        }
        for (k, &join) in jr.iter().enumerate() {
            if k != played {
                row[k] += join - rate;
            }
        }
        self.stages[slot] += 1;
        let max = row[..m].iter().copied().fold(0.0f64, f64::max);
        max / self.stages[slot] as f64
    }

    /// Mirrors [`RegretLedger::peer_max`].
    pub fn peer_max(&self, slot: usize) -> f64 {
        if self.stages[slot] == 0 {
            return 0.0;
        }
        let row = &self.rows[slot * self.stride..(slot + 1) * self.stride];
        row.iter().copied().fold(0.0f64, f64::max) / self.stages[slot] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

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
                let f = record(&mut cols, &ctx, i, c, played, rate);
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
    fn record_all_max_is_shard_count_invariant() {
        let run = |shards: usize| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(77);
            let mut ledger = RegretLedger::new(&[5]);
            for _ in 0..90 {
                ledger.add_peer();
            }
            let mut shard_max = Vec::new();
            let mut out = Vec::new();
            for _ in 0..120 {
                let join: Vec<f64> = (0..5).map(|_| rng.gen_range(0..900) as f64).collect();
                let chosen: Vec<usize> = (0..90).map(|_| rng.gen_range(0..5)).collect();
                let rates: Vec<f64> = (0..90).map(|_| rng.gen_range(0..800) as f64).collect();
                ledger.advance_epoch(&[0, 5], &join);
                out.push(
                    ledger.record_all_max(&chosen, &rates, shards, &mut shard_max).to_bits(),
                );
            }
            out
        };
        let base = run(1);
        for shards in [2usize, 4, 7] {
            assert_eq!(run(shards), base, "diverged at {shards} shards");
        }
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
            let f = record(&mut cols, &ctx, 0, 0, 1, ((e * 5) % 9) as f64);
            let d = dense.record(0, 0, 1, ((e * 5) % 9) as f64, &join);
            assert_eq!(f.to_bits(), d.to_bits(), "diverged at epoch {e}");
        }
    }

    #[test]
    fn empty_ledger_is_inert() {
        let mut ledger = RegretLedger::new(&[4]);
        assert!(ledger.is_empty());
        ledger.advance_epoch(&[0, 4], &[1.0, 2.0, 3.0, 4.0]);
        let mut shard_max = Vec::new();
        assert_eq!(ledger.record_all_max(&[], &[], 4, &mut shard_max), 0.0);
        ledger.remove_slots(&[]);
    }

    #[test]
    #[should_panic(expected = "layout drifted")]
    fn advance_rejects_layout_drift() {
        let mut ledger = RegretLedger::new(&[4]);
        ledger.advance_epoch(&[0, 3], &[1.0, 2.0, 3.0]);
    }
}
