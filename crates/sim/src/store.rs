//! The sharded structure-of-arrays peer store.
//!
//! The engine ([`crate::System`]) keeps its peer population here, one flat
//! column per field: stable `u64` ids, `u32` channel and helper indices,
//! the per-entity RNG streams, the learners (for the slab-hosted
//! algorithms a shared [`RthsConfig`] per channel + one slot of the
//! store's [`LearnerSlab`] per peer, see `rths_core::slab`; for EXP3 a
//! column of self-contained learners), the accounting scalars, each
//! peer's link state under the run's impairment plan, and the
//! stretch-folded true-regret ledger (see [`crate::regret`]) — so a
//! million-peer population is a handful of large allocations with
//! unit-stride hot loops instead of a million scattered structs.
//!
//! The reactor backend (`rths_net`) drives its peers through the same
//! choose, shape and observe phases: each mailbox shard owns a block store
//! of its peers ([`PeerStore::into_block`]: ids from the shard's first
//! peer), whose observe phase records its peers' true regret against the
//! join rates the coordinator broadcasts, as `System`'s does.
//!
//! # Sharding
//!
//! The choose and observe phases run shard-parallel through
//! [`rths_par::par_sharded`]: peers are partitioned into contiguous index
//! ranges, each shard gets the matching range of **every** column plus
//! its own [`ShardScratch`] (thread-affine load histogram, metric maxima).
//! All order-sensitive float reductions stay index-ordered — either
//! sequentially after the phase or by merging per-shard accumulators that
//! are order-insensitive (integer histograms, `max` folds over
//! non-negative values) in shard order — so the engine is **bit-for-bit
//! identical at any shard count and any `RTHS_THREADS`**. The shape phase
//! is sequential: a token bucket is state.
//!
//! # Stable identity under churn
//!
//! Peer ids are monotone `u64`s, never reused, and travel with their row.
//! Departures compact every column **order-preservingly** (survivors keep
//! their relative order), so a removal can never alias one peer's slot —
//! its RNG stream, learner, link or regret row — onto another's
//! (`tests/churn_and_failures.rs` pins it).
//!
//! What a departure moves is scalars only: per relocated survivor, its row
//! of the columns here (68 bytes, and its 88-byte link state when the plan
//! affects rates), five scalars of its learner slot and its ledger entry.
//! A departed peer's learner `S` is wiped (a packed slab's columns go back
//! to its pool), and every row it held — its learner's strategy, estimate
//! and frequency rows (which only a slab of conditional learners keeps),
//! its `S` and played mask, its folded-regret row — stays behind as a
//! hole: each survivor reaches its rows through one increasing row handle
//! per arena owner, and one pass closes the holes once they outnumber a
//! sixteenth of the population, moving a survivor's `S` with its other
//! rows (a packed slab's handle row, an unpacked one's played columns).
//! Slot order, ids and every float reduction order are what they would
//! be had the rows moved. A traced run counts the copied bytes
//! (`Counter::DepartureBytesMoved`) and the wiped T columns
//! (`Counter::DepartureColumnsWiped`).

use rand::rngs::StdRng;

use rths_core::{
    compact_column, for_each_survivor_run, Exp3Config, Exp3Learner, Learner, LearnerSlab,
    RecencyMode, RthsConfig, OBSERVE_BATCH,
};
use rths_obs::{self as obs, Counter, Gauge, ObsScratch, Phase};
use rths_par::{par_sharded, ShardCols};
use rths_stoch::rng::entity_rng;

use crate::config::LearnerSpec;
use crate::impairment::{ImpairmentPlan, LinkShaper};
use crate::regret::{self, RegretLedger};

/// Sentinel for "no helper chosen yet" in the `last_helper` column.
pub const NO_HELPER: u32 = u32::MAX;

/// Bytes of one peer's row of the store's own columns — `channels`,
/// `last_helper` and the three `u32` counters, `ids`, `total_rate` and the
/// RNG stream: what a departure copies for each relocated survivor, before
/// the learners and the ledger.
const ROW_BYTES: usize = 5 * size_of::<u32>() + 2 * size_of::<u64>() + size_of::<StdRng>();

/// [`compact_column`] for a column of values that are not `Copy`: each
/// survivor is swapped down into place.
fn compact_swapping<T>(column: &mut Vec<T>, sorted: &[u32]) {
    let kept = for_each_survivor_run(column.len(), sorted, |run, to| {
        for (k, read) in run.enumerate() {
            column.swap(to + k, read);
        }
    });
    column.truncate(kept);
}

/// Where a store's learners live — one fact for the whole population,
/// fixed by the spec's algorithm at construction.
// One value per store, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Learners {
    /// A [slab-hosted](crate::Algorithm::slab_hosted) algorithm: the
    /// arena in **slot-aligned mode** — slab slot `i` is peer slot `i`,
    /// and departures run the slab's order-preserving compaction of its
    /// per-slot scalars alongside the store's (T and every other
    /// stride-sized row are reached through one increasing row handle per
    /// slot, and move only in a pass that closes the holes departures
    /// left). The shared per-channel
    /// [`RthsConfig`] lives once on the store.
    Slab(LearnerSlab),
    /// EXP3, which keeps its state by value: one learner per peer, in
    /// slot order, each started from its channel's entry of `configs`.
    Exp3 { configs: Vec<Exp3Config>, learners: Vec<Exp3Learner> },
}

/// A shard's view of the learners for one phase: the slab columns the
/// phase needs (`S`), or the matching range of the per-peer column.
enum LearnerCols<'a, S> {
    Slab(S),
    Exp3(&'a mut [Exp3Learner]),
}

impl<S: ShardCols> ShardCols for LearnerCols<'_, S> {
    fn shard_split(self, mid: usize) -> (Self, Self) {
        match self {
            LearnerCols::Slab(cols) => {
                let (head, tail) = cols.shard_split(mid);
                (LearnerCols::Slab(head), LearnerCols::Slab(tail))
            }
            LearnerCols::Exp3(learners) => {
                let (head, tail) = learners.split_at_mut(mid);
                (LearnerCols::Exp3(head), LearnerCols::Exp3(tail))
            }
        }
    }
}

/// Read-only view of one peer's learner (final reporting, tests).
#[derive(Debug, Clone, Copy)]
pub struct LearnerRef<'a> {
    learners: &'a Learners,
    slot: usize,
}

impl LearnerRef<'_> {
    /// The current mixed strategy.
    pub fn probabilities(&self) -> &[f64] {
        match self.learners {
            Learners::Slab(slab) => slab.probabilities(self.slot),
            Learners::Exp3 { learners, .. } => learners[self.slot].probabilities(),
        }
    }
}

/// Thread-affine per-shard scratch, owned by one shard for the duration
/// of a phase and reused across epochs (capacity is retained).
#[derive(Debug, Default)]
pub struct ShardScratch {
    /// The shard's private load histogram (indexing is caller-defined;
    /// the engine uses `helper·k + channel`). Integer counts, so the
    /// post-phase merge in shard order is order-insensitive.
    pub loads: Vec<usize>,
    /// Shard-local maximum of the learners' internal regret estimates.
    worst_estimate: f64,
    /// Shard-local maximum of the peers' empirical regrets.
    worst_empirical: f64,
    /// Shard-affine observability scratch: the spans and counter deltas
    /// a phase recorded for this shard, which the caller hands on after
    /// the phase — `absorb_obs` on an orchestrating thread, or into the
    /// scratch of the `rths_par` worker it runs on. Only touched when
    /// tracing is enabled, so the disabled path stays byte-identical to
    /// the pre-observability store.
    pub obs: ObsScratch,
}

/// Reduces every shard scratch's spans and counter deltas into the global
/// registry, in shard order (worker 0 is the orchestrating thread): what
/// an orchestrating caller does after each phase.
pub(crate) fn absorb_obs(scratch: &mut [ShardScratch]) {
    let epoch = obs::current_epoch();
    for (i, s) in scratch.iter_mut().enumerate() {
        obs::absorb_scratch(i as u32 + 1, epoch, &mut s.obs);
    }
}

/// The sharded SoA peer population. See the module docs for layout and
/// determinism contract.
#[derive(Debug)]
pub struct PeerStore {
    seed: u64,
    /// Learner action count per channel (`max(1)`-floored, matching the
    /// engine's historical instantiation).
    actions: Vec<u32>,
    /// Shared learner config per channel, used by the slab-hosted
    /// algorithms.
    configs: Vec<RthsConfig>,
    /// Stretch-folded true-regret accounting (slot-aligned columns plus
    /// the global per-channel join-rate prefix and snapshot ring) — see
    /// [`crate::regret`] for the invariant. Replaces the historical
    /// dense `O(n·m²)` per-peer regret matrices.
    regret: RegretLedger,
    /// Fixed shard count for tests/benches; `None` derives it from
    /// [`rths_par::threads`] per phase.
    shard_override: Option<usize>,
    next_id: u64,
    learners: Learners,
    // === index-aligned SoA columns ===
    ids: Vec<u64>,
    channels: Vec<u32>,
    rngs: Vec<StdRng>,
    total_rate: Vec<f64>,
    /// Observed epochs, `u32`: it grows once per observe phase, whose
    /// ledger refuses an epoch count of `u32::MAX`
    /// ([`RegretLedger::advance_epoch`]).
    epochs_online: Vec<u32>,
    /// Epochs whose rate met the demand, `u32`: at most `epochs_online`.
    satisfied_epochs: Vec<u32>,
    /// Last chosen helper ([`NO_HELPER`] before the first choice).
    last_helper: Vec<u32>,
    /// Helper switches, `u32`: at most one per choose phase, which runs
    /// once per observe phase, so bounded like `epochs_online`.
    switches: Vec<u32>,
    /// Link state under `impairment`; empty unless it affects rates.
    links: Vec<LinkShaper>,
    /// The largest total of `switches` that `new_switches` has seen.
    switches_reported: u64,
    impairment: ImpairmentPlan,
}

impl PeerStore {
    /// Creates an empty store for peers learning over `actions_per_channel`
    /// helper sets (one entry per channel).
    ///
    /// # Panics
    ///
    /// Panics, naming the [`ConfigError`](rths_core::ConfigError), if the
    /// learner spec is invalid; or if no channel is given.
    pub fn new(
        seed: u64,
        spec: LearnerSpec,
        rate_scale: f64,
        actions_per_channel: &[usize],
    ) -> Self {
        assert!(!actions_per_channel.is_empty(), "need at least one channel");
        let actions: Vec<u32> = actions_per_channel.iter().map(|&m| m.max(1) as u32).collect();
        let configs: Vec<RthsConfig> = actions
            .iter()
            .map(|&m| spec.rths_config(m as usize, rate_scale))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("invalid learner spec: {e}"));
        let learners = if spec.algorithm.slab_hosted() {
            let stride = actions.iter().copied().max().unwrap_or(1) as usize;
            Learners::Slab(LearnerSlab::new(stride))
        } else {
            let configs =
                actions.iter().map(|&m| spec.exp3_config(m as usize, rate_scale)).collect();
            Learners::Exp3 { configs, learners: Vec::new() }
        };
        Self {
            seed,
            actions,
            configs,
            regret: RegretLedger::new(actions_per_channel),
            shard_override: None,
            next_id: 0,
            learners,
            ids: Vec::new(),
            channels: Vec::new(),
            rngs: Vec::new(),
            total_rate: Vec::new(),
            epochs_online: Vec::new(),
            satisfied_epochs: Vec::new(),
            last_helper: Vec::new(),
            switches: Vec::new(),
            links: Vec::new(),
            switches_reported: 0,
            impairment: ImpairmentPlan::none(),
        }
    }

    /// Makes this empty store the block of a population whose ids start
    /// at `first_id` — so the peer spawned `k`-th gets id `first_id + k`
    /// and the RNG stream the whole population's store would give it. Fed
    /// the population's join rates, its ledger records each of its peers
    /// as the whole population's store would. The reactor backend gives
    /// each mailbox shard's peers one.
    ///
    /// # Panics
    ///
    /// Panics if the store already holds peers.
    pub fn into_block(mut self, first_id: u64) -> Self {
        assert!(self.is_empty(), "only an empty store becomes a block");
        self.next_id = first_id;
        self
    }

    /// Makes this empty store's links impaired by `plan`. If the plan
    /// affects rates, each peer spawned gets a fresh [`LinkShaper`] (its
    /// bucket full) in a column that departures compact with the others;
    /// otherwise the column stays empty.
    ///
    /// # Panics
    ///
    /// Panics if the store already holds peers.
    pub fn with_impairment(mut self, plan: ImpairmentPlan) -> Self {
        assert!(self.is_empty(), "only an empty store takes a link plan");
        self.impairment = plan;
        self
    }

    /// Pre-creates zeroed backing storage for `additional` more peers.
    /// Call on a freshly built store before the bulk spawn loop: the
    /// learner slab gets its T and strategy regions as one `alloc_zeroed`
    /// each, and the regret ledger its eight per-peer columns and its
    /// rows, so constructing 10⁵ peers is a handful of large allocations
    /// instead of a per-peer allocation storm and no column grows by
    /// doubling. A slab of at most 22 actions commits its T arena's whole
    /// pages here: left lazy, the first epoch faulted each page twice (a
    /// read, then a copy-on-write). A wider slab only reserves its column
    /// pool, whose pages its peers' first plays map.
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.learners {
            Learners::Slab(slab) => slab.reserve(additional),
            Learners::Exp3 { learners, .. } => learners.reserve(additional),
        }
        self.regret.reserve(additional);
        self.ids.reserve(additional);
        self.channels.reserve(additional);
        self.rngs.reserve(additional);
        self.total_rate.reserve(additional);
        self.epochs_online.reserve(additional);
        self.satisfied_epochs.reserve(additional);
        self.last_helper.reserve(additional);
        self.switches.reserve(additional);
    }

    /// Online peers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Pins the shard count (tests/benches); `None` restores the default
    /// (derived from [`rths_par::threads`] per phase). Results are
    /// bit-identical at any setting.
    pub fn set_shards(&mut self, shards: Option<usize>) {
        assert!(shards != Some(0), "shard count must be positive");
        self.shard_override = shards;
    }

    /// A peer joins `channel`; returns its stable id. The peer's RNG
    /// stream is derived from `(seed, id)`, so it is independent of slot
    /// position and churn history.
    pub fn join(&mut self, channel: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        match &mut self.learners {
            Learners::Slab(slab) => {
                let slab_slot = slab.alloc(self.actions[channel] as usize);
                debug_assert_eq!(slab_slot as usize, self.ids.len(), "slab slot misaligned");
            }
            Learners::Exp3 { configs, learners } => {
                learners.push(Exp3Learner::new(configs[channel].clone()));
            }
        }
        self.ids.push(id);
        self.channels.push(channel as u32);
        self.rngs.push(entity_rng(self.seed, id));
        self.total_rate.push(0.0);
        self.epochs_online.push(0);
        self.satisfied_epochs.push(0);
        self.last_helper.push(NO_HELPER);
        self.switches.push(0);
        if self.impairment.affects_rates() {
            self.links.push(LinkShaper::new());
        }
        self.regret.add_peer();
        id
    }

    /// [`join`](Self::join); the store keeps no join epoch.
    #[doc(hidden)]
    pub fn spawn(&mut self, channel: usize, _epoch: u64) -> u64 {
        self.join(channel) // benchmark shim (ROADMAP 23)
    }

    /// Removes the peers in `slots` (slot indices, any order, no
    /// duplicates), compacting every column **order-preservingly**:
    /// surviving peers keep their relative order and their entire row —
    /// id, RNG stream, learner state, regret row, accounting — exactly as
    /// it was. `slots` is sorted in place. When tracing, the bytes the
    /// compactions copied go to `Counter::DepartureBytesMoved`, and the T
    /// columns the departed learners' wipes zeroed to
    /// `Counter::DepartureColumnsWiped`.
    ///
    /// # Panics
    ///
    /// Panics if a slot is out of range or duplicated.
    pub fn remove_slots(&mut self, slots: &mut [u32]) {
        if slots.is_empty() {
            return;
        }
        let n = self.len();
        slots.sort_unstable();
        assert!((slots[slots.len() - 1] as usize) < n, "slot out of range");
        assert!(slots.windows(2).all(|w| w[0] != w[1]), "duplicate slot");

        compact_column(&mut self.ids, slots);
        compact_column(&mut self.channels, slots);
        compact_column(&mut self.total_rate, slots);
        compact_column(&mut self.epochs_online, slots);
        compact_column(&mut self.satisfied_epochs, slots);
        compact_column(&mut self.last_helper, slots);
        compact_column(&mut self.switches, slots);
        compact_swapping(&mut self.rngs, slots);
        let kept = self.ids.len();
        // Every slot from the first departure on was relocated.
        let relocated = kept - slots[0] as usize;
        let mut moved = relocated * ROW_BYTES;
        if !self.links.is_empty() {
            compact_column(&mut self.links, slots);
            moved += relocated * size_of::<LinkShaper>();
        }
        let (learner_bytes, wiped) = match &mut self.learners {
            // The slab mirrors the column compaction on its per-slot
            // scalars (same order-preserving walk), keeping slab slots ==
            // store slots; a slot's rows stay put behind its row handle,
            // and the departed slots' T is wiped.
            Learners::Slab(slab) => slab.remove_slots(slots),
            Learners::Exp3 { learners, .. } => {
                compact_swapping(learners, slots);
                (relocated * size_of::<Exp3Learner>(), 0)
            }
        };
        moved += learner_bytes;
        // The ledger compacts its own scalars (open stretches fold into
        // nothing for departed peers and stay valid for survivors — the
        // ledger's global prefix/ring state is slot-independent); its
        // rows stay put behind their handles.
        moved += self.regret.remove_slots(slots);
        obs::counter_add(Counter::DepartureBytesMoved, moved as u64);
        obs::counter_add(Counter::DepartureColumnsWiped, wiped);
    }

    /// Moves peer `slot` to `channel`, restarting its learner on the new
    /// channel's action set (the peer keeps its identity, RNG stream and
    /// accounting). The true-regret row is *not* touched here: it resets
    /// lazily at the next record if the action count actually changed
    /// (see `regret_len`), so a round-trip migration back to a
    /// same-arity channel keeps its regret history — the historical
    /// semantics.
    pub(crate) fn set_channel(&mut self, slot: usize, channel: usize) {
        let new_m = self.actions[channel] as usize;
        // Fold the open stretch against the *old* channel's join-rate
        // prefix before the move — the stretch was accumulated there.
        self.regret.migrate(slot, self.channels[slot] as usize);
        self.channels[slot] = channel as u32;
        match &mut self.learners {
            Learners::Slab(slab) => slab.reset_actions(slot, new_m),
            Learners::Exp3 { learners, .. } => learners[slot].reset_actions(new_m),
        }
        self.last_helper[slot] = NO_HELPER;
    }

    /// The shard count a phase over `len` items uses right now. Besides
    /// the small-input inline cutoff, workers are capped so each shard
    /// keeps at least [`rths_par::MIN_ITEMS_PER_WORKER`] peers — below
    /// that, spawn overhead exceeds the per-peer phase work and
    /// multi-thread runs were *slower* than sequential for every
    /// population ≤ 4×10³. Results are bit-identical at any shard count,
    /// so the cap is pure scheduling.
    fn shards_for(&self, len: usize) -> usize {
        match self.shard_override {
            Some(n) => n.min(len).max(1),
            // Populations below MIN_ITEMS_PER_WORKER collapse to one shard.
            None => rths_par::threads().min(len / rths_par::MIN_ITEMS_PER_WORKER).max(1),
        }
    }

    /// Ensures one scratch slot per shard with a zeroed `loads` histogram
    /// of `loads_len` buckets and reset metric maxima.
    fn prepare_scratch(scratch: &mut Vec<ShardScratch>, shards: usize, loads_len: usize) {
        if scratch.len() < shards {
            scratch.resize_with(shards, ShardScratch::default);
        }
        for s in scratch.iter_mut().take(shards) {
            s.loads.clear();
            s.loads.resize(loads_len, 0);
            s.worst_estimate = 0.0;
            s.worst_empirical = 0.0;
        }
    }

    /// The **choose** phase: every peer samples its learner's mixed
    /// strategy from its own RNG stream and the switch accounting is
    /// updated; `profile[i]` receives the choice (a learner-local action
    /// index). `account` runs once per peer inside its shard with
    /// `(index, choice, channel, aux_slot, shard_loads)` and accumulates
    /// the shard-affine load histogram (and resolves the global helper
    /// index into `aux`). After the phase the
    /// per-shard histograms are summed into `loads` in shard order.
    ///
    /// When tracing, each shard's `Choose` span stays in its `scratch`
    /// slot for the caller to hand on ([`ShardScratch::obs`]).
    pub fn choose_phase(
        &mut self,
        profile: &mut [u32],
        aux: &mut [u32],
        loads: &mut Vec<usize>,
        loads_len: usize,
        scratch: &mut Vec<ShardScratch>,
        account: impl Fn(usize, u32, u32, &mut u32, &mut [usize]) + Sync,
    ) {
        let n = self.len();
        assert_eq!(profile.len(), n, "profile column must be index-aligned");
        assert_eq!(aux.len(), n, "aux column must be index-aligned");
        let shards = self.shards_for(n);
        Self::prepare_scratch(scratch, shards, loads_len);
        let PeerStore { learners, rngs, last_helper, switches, channels, .. } = self;
        let channels = &*channels;
        let learners = match learners {
            // Sampling reads strategies only: no T views formed.
            Learners::Slab(slab) => LearnerCols::Slab(slab.split_strategy()),
            Learners::Exp3 { learners, .. } => LearnerCols::Exp3(learners),
        };
        par_sharded(
            n,
            shards,
            (
                (learners, &mut rngs[..]),
                (&mut last_helper[..], &mut switches[..]),
                (profile, aux),
            ),
            &mut scratch[..],
            |shard, ((mut learners, rngs), (last, switches), (profile, aux)), s| {
                // The shard's own span, so that a trace charges the
                // sampling to `choose` and only the fork/join around it
                // to `par_dispatch`.
                let t_choose = obs::span_start();
                for i in 0..shard.len() {
                    let choice = match &mut learners {
                        LearnerCols::Slab(slab) => slab.select_action(i, &mut rngs[i]),
                        LearnerCols::Exp3(l) => l[i].select_action(&mut rngs[i]),
                    } as u32;
                    if last[i] != NO_HELPER && last[i] != choice {
                        switches[i] += 1;
                    }
                    last[i] = choice;
                    profile[i] = choice;
                    let abs = shard.start + i;
                    account(abs, choice, channels[abs], &mut aux[i], &mut s.loads);
                }
                if let Some(t) = t_choose {
                    s.obs.spans.record(Phase::Choose, t);
                }
            },
        );
        loads.clear();
        loads.resize(loads_len, 0);
        for s in scratch.iter().take(shards) {
            for (total, &part) in loads.iter_mut().zip(&s.loads) {
                *total += part;
            }
        }
    }

    /// The **observe** phase: every peer's realized rate is computed by
    /// `rate_of(index, profile[index], channel) -> (rate, satisfied)`,
    /// fed to its learner (bandit feedback), accumulated into the
    /// accounting columns and the stretch-folded true-regret ledger
    /// (against the channel's counterfactual join rates in
    /// `join_rates[join_offsets[c]..join_offsets[c + 1]]` — see
    /// [`crate::regret`]), and written to `delivered[index]`. Returns
    /// the epoch's `(worst_regret_estimate, worst_empirical_regret)`,
    /// folded per-shard and merged in shard order (max over non-negative
    /// values — order-insensitive, so bit-identical at any shard count).
    /// The empirical fold reads a peer's regret row only when the peer's
    /// `O(1)` bound exceeds the shard's running max
    /// ([`regret::record_max`]) — same bits as reading every row; when
    /// tracing, the shard counts the rows it read
    /// (`Counter::RegretExactReads`), and `scratch[0]` keeps the span of
    /// the ledger's epoch advance (`Phase::RegretFold`).
    ///
    /// `track_estimate` controls the first element; callers that do not
    /// record the series (multi-channel deployments) pass `false` and
    /// receive `0.0`. The first call that passes `true` makes the learner
    /// slab maintain its row maxima and diagonal
    /// ([`LearnerSlab::track_estimates`]: one scan of every T block,
    /// `2m` more scalars per peer); from then on an estimate reads two
    /// `O(m)` slot-addressed rows per peer per epoch and no T line. A
    /// store never asked pays neither. Likewise, the first call on a
    /// store with a conditional channel makes the slab keep its play
    /// frequencies ([`LearnerSlab::track_frequencies`]), which only
    /// conditional normalisation reads.
    ///
    /// Slab-hosted learners update in blocks of [`OBSERVE_BATCH`] peers:
    /// before a block, one pass loads the T cache lines its updates are
    /// about to read ([`SlabCols::touch`](rths_core::SlabCols::touch);
    /// every peer's action has been pending since the choose phase), so
    /// the misses of eight updates overlap instead of each update waiting
    /// on its own. The pass stores nothing and the per-peer body runs in
    /// the same order as without it, so no result depends on it; a slab
    /// whose learners span at most 8 actions skips it. When tracing, the
    /// shard also counts the packed T columns its observes opened
    /// (`Counter::SlabColumnsOpened`; a phase split between shards opens
    /// them all before the split, and `scratch[0]` counts them); its spans
    /// and counters stay in its `scratch` slot for the caller to hand on,
    /// as in the choose phase.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_phase(
        &mut self,
        profile: &[u32],
        delivered: &mut [f64],
        join_offsets: &[usize],
        join_rates: &[f64],
        scratch: &mut Vec<ShardScratch>,
        track_estimate: bool,
        rate_of: impl Fn(usize, u32, u32) -> (f64, bool) + Sync,
    ) -> (f64, f64) {
        let n = self.len();
        assert_eq!(profile.len(), n, "profile column must be index-aligned");
        assert_eq!(delivered.len(), n, "delivered column must be index-aligned");
        let shards = self.shards_for(n);
        Self::prepare_scratch(scratch, shards, 0);
        // In exponential-recency mode (regret tracking, not matching)
        // every slab slot observes exactly once per phase, so the
        // per-observe T-decay hoists into one batched pass per shard
        // (bit-identical — pinned by the slab's oracle tests). The decay
        // is lazy: the pass multiplies one `scale` per slot and touches T
        // columns only for the slots it renormalises (once in
        // 256·ln 2 / ε epochs each). Every slot then observes predecayed:
        // under any other recency an observe decays nothing, and every
        // channel shares the one learner spec.
        let batch_decay = self.configs[0].recency() == RecencyMode::Exponential;
        let keep = 1.0 - self.configs[0].epsilon();
        let PeerStore {
            learners,
            total_rate,
            epochs_online,
            satisfied_epochs,
            regret,
            channels,
            configs,
            ..
        } = self;
        let channels = &*channels;
        let configs = &*configs;
        let learner_cols = match learners {
            Learners::Slab(slab) => {
                if track_estimate {
                    slab.track_estimates();
                }
                if configs.iter().any(RthsConfig::conditional) {
                    slab.track_frequencies();
                }
                // A view split between shards cannot open a T column, so
                // the columns the pending actions (fixed by the choose
                // phase) need are opened first, in slot order, as the
                // observes would open them.
                if shards > 1 {
                    let opened = slab.open_pending_columns();
                    if obs::enabled() {
                        scratch[0].obs.add(Counter::SlabColumnsOpened, opened);
                    }
                }
                LearnerCols::Slab(slab.split())
            }
            Learners::Exp3 { learners, .. } => LearnerCols::Exp3(learners),
        };
        // One global prefix update for the whole population, then the
        // per-peer record is O(1) amortized (an O(m) row write only when
        // a stretch closes — arm switch or window fold).
        let tracing = obs::enabled();
        let t_fold = obs::span_start();
        regret.advance_epoch(join_offsets, join_rates);
        if let Some(t) = t_fold {
            scratch[0].obs.spans.record(Phase::RegretFold, t);
        }
        let (ledger_cols, ledger_ctx) = regret.split();
        par_sharded(
            n,
            shards,
            (
                (learner_cols, &mut total_rate[..]),
                (&mut epochs_online[..], &mut satisfied_epochs[..], delivered),
                ledger_cols,
            ),
            &mut scratch[..],
            |shard, ((mut learners, total), (online, sat, out), mut ledger), s| {
                if let (true, LearnerCols::Slab(slab)) = (batch_decay, &mut learners) {
                    let t_decay = obs::span_start();
                    let touched = slab.decay(keep);
                    if tracing {
                        s.obs.add(Counter::SlabColumnsTouched, touched);
                        if let Some(t) = t_decay {
                            s.obs.spans.record(Phase::SlabDecay, t);
                        }
                    }
                }
                let t_observe = obs::span_start();
                let (mut folds, mut reads, mut opened) = (0u64, 0u64, 0u64);
                for i in 0..shard.len() {
                    // Each block of slab updates runs behind one pass of
                    // loads over the T lines they are about to read.
                    if let (0, LearnerCols::Slab(slab)) = (i % OBSERVE_BATCH, &mut learners) {
                        slab.touch(i..(i + OBSERVE_BATCH).min(shard.len()));
                    }
                    let abs = shard.start + i;
                    let channel = channels[abs];
                    let config = &configs[channel as usize];
                    let (rate, satisfied) = rate_of(abs, profile[abs], channel);
                    // Bandit feedback + accounting (Peer::deliver order).
                    opened += u64::from(match &mut learners {
                        LearnerCols::Slab(slab) => {
                            slab.observe_predecayed(i, config, rate, &mut Vec::new())
                        }
                        LearnerCols::Exp3(l) => {
                            l[i].observe(rate);
                            false
                        }
                    });
                    total[i] += rate;
                    online[i] += 1;
                    if satisfied {
                        sat[i] += 1;
                    }
                    // Stretch-folded true regret against the channel's
                    // counterfactual join rates (lazy arity reset on
                    // channel migration — the historical semantics),
                    // folded into the shard's running max; the row is
                    // read only when the peer's bound exceeds it.
                    reads += u64::from(regret::record_max(
                        &mut ledger,
                        &ledger_ctx,
                        i,
                        channel as usize,
                        profile[abs] as usize,
                        rate,
                        &mut folds,
                        &mut s.worst_empirical,
                    ));
                    // Shard-affine metric fold (non-negative maxima).
                    if track_estimate {
                        let estimate = match &mut learners {
                            LearnerCols::Slab(slab) => {
                                slab.max_regret(i, config, &mut Vec::new())
                            }
                            LearnerCols::Exp3(l) => l[i].max_regret(),
                        };
                        s.worst_estimate = s.worst_estimate.max(estimate);
                    }
                    out[i] = rate;
                }
                if tracing {
                    if let Some(t) = t_observe {
                        s.obs.spans.record(Phase::SlabObserve, t);
                    }
                    s.obs.add(Counter::StretchFolds, folds);
                    s.obs.add(Counter::RegretExactReads, reads);
                    s.obs.add(Counter::SlabColumnsOpened, opened);
                }
            },
        );
        if tracing && matches!(self.learners, Learners::Slab(_)) {
            scratch[0].obs.raise(Gauge::SlabRowsHwm, n as u64);
        }
        let mut worst_estimate = 0.0f64;
        let mut worst_empirical = 0.0f64;
        for s in scratch.iter().take(shards) {
            worst_estimate = worst_estimate.max(s.worst_estimate);
            worst_empirical = worst_empirical.max(s.worst_empirical);
        }
        (worst_estimate, worst_empirical)
    }

    /// The **shape** phase: in slot order, each peer's link to helper
    /// `helpers[slot]` decides whether the epoch's payload is lost and
    /// shapes `offered(slot, helper, channel)` (`0` if lost) into
    /// `shaped[slot]` ([`LinkShaper`]). Sequential — the token bucket is
    /// state — and once an epoch. Returns `false`, leaving `shaped` alone,
    /// when the plan affects no rate.
    ///
    /// # Panics
    ///
    /// Panics if `helpers` is not index-aligned.
    pub fn shape_phase(
        &mut self,
        helpers: &[u32],
        epoch: u64,
        shaped: &mut Vec<f64>,
        offered: impl Fn(usize, usize, usize) -> f64,
    ) -> bool {
        if !self.impairment.affects_rates() {
            return false;
        }
        assert_eq!(helpers.len(), self.len(), "helper column must be index-aligned");
        let plan = &self.impairment;
        shaped.clear();
        for (slot, link) in self.links.iter_mut().enumerate() {
            let (id, helper) = (self.ids[slot], helpers[slot] as usize);
            let rate = if link.is_lost(plan, id, helper, epoch) {
                0.0
            } else {
                offered(slot, helper, self.channels[slot] as usize)
            };
            shaped.push(link.shape(plan, id, helper, epoch, rate));
        }
        true
    }

    /// The loss [`shape_phase`](Self::shape_phase) decides for the link
    /// from the peer in `slot` to `helper` at `epoch`, asked ahead.
    pub fn is_lost(&mut self, slot: usize, helper: usize, epoch: u64) -> bool {
        let (id, plan) = (self.ids[slot], &self.impairment);
        self.links.get_mut(slot).is_some_and(|link| link.is_lost(plan, id, helper, epoch))
    }

    // === per-peer accessors (final reporting, tests) ===

    /// The store's link impairments (none by default).
    pub fn impairment(&self) -> &ImpairmentPlan {
        &self.impairment
    }

    /// Stable id of the peer in `slot`.
    pub fn id(&self, slot: usize) -> u64 {
        self.ids[slot]
    }

    /// Slot of the peer with `id`, if online. Ids are monotone at join
    /// and removal is order-preserving, so the column is always sorted —
    /// this is a binary search.
    pub(crate) fn slot_of(&self, id: u64) -> Option<usize> {
        debug_assert!(self.ids.windows(2).all(|w| w[0] < w[1]), "ids column not sorted");
        self.ids.binary_search(&id).ok()
    }

    /// Stable ids in slot order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Channel of the peer in `slot`.
    pub(crate) fn channel(&self, slot: usize) -> usize {
        self.channels[slot] as usize
    }

    /// Lifetime mean received rate of the peer in `slot` (kbps).
    pub fn mean_rate(&self, slot: usize) -> f64 {
        match u64::from(self.epochs_online[slot]) {
            0 => 0.0,
            online => self.total_rate[slot] / online as f64,
        }
    }

    /// Streaming continuity index of the peer in `slot`.
    pub fn continuity(&self, slot: usize) -> f64 {
        match u64::from(self.epochs_online[slot]) {
            0 => 1.0,
            online => u64::from(self.satisfied_epochs[slot]) as f64 / online as f64,
        }
    }

    /// Helper switches of the peer in `slot` (QoE interruption proxy).
    pub fn switches(&self, slot: usize) -> u64 {
        u64::from(self.switches[slot])
    }

    /// The `switches` series' entry for the epoch: how far the peers'
    /// total of [`switches`](Self::switches) has grown past the largest
    /// total an earlier call saw. Departures take their counts with them,
    /// so the total can dip; no switch is counted twice.
    pub fn new_switches(&mut self) -> u64 {
        let total: u64 = self.switches.iter().copied().map(u64::from).sum();
        let new = total.saturating_sub(self.switches_reported);
        self.switches_reported += new;
        new
    }

    /// The learner of the peer in `slot`.
    pub fn learner(&self, slot: usize) -> LearnerRef<'_> {
        assert!(slot < self.len(), "slot out of range");
        LearnerRef { learners: &self.learners, slot }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, LearnerSpec};
    use crate::dense_regret::DenseRegret;
    use crate::regret::SNAPSHOT_SLOTS;
    use rths_stoch::rng::derive_seed;

    /// The regret readers of a store, over its private ledger and
    /// channel columns.
    impl PeerStore {
        /// Time-averaged worst true regret of the peer in `slot`.
        fn empirical_regret(&self, slot: usize) -> f64 {
            self.regret.peer_max(slot, self.channels[slot] as usize)
        }

        /// Recorded regret epochs of the peer in `slot` (the time-average
        /// divisor; resets when the action-set arity changes).
        fn regret_stages(&self, slot: usize) -> u64 {
            self.regret.stages(slot)
        }
    }

    fn store(channels: &[usize]) -> PeerStore {
        PeerStore::new(7, LearnerSpec::default(), 400.0, channels)
    }

    #[test]
    fn spawn_assigns_monotone_ids_and_fresh_state() {
        let mut s = store(&[3]);
        assert!(s.is_empty());
        let a = s.join(0);
        let b = s.join(0);
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.ids(), &[0, 1]);
        assert_eq!(s.mean_rate(0), 0.0);
        assert_eq!(s.continuity(0), 1.0);
        assert_eq!(s.switches(0), 0);
        assert_eq!(s.learner(0).probabilities(), &[1.0 / 3.0; 3]);
    }

    #[test]
    fn remove_slots_preserves_survivor_order_and_identity() {
        let mut s = store(&[2]);
        for _ in 0..6 {
            s.join(0);
        }
        let mut slots = vec![4u32, 1, 2];
        s.remove_slots(&mut slots);
        assert_eq!(s.len(), 3);
        assert_eq!(s.ids(), &[0, 3, 5], "survivors must keep insertion order");
        assert_eq!(s.slot_of(3), Some(1));
        assert_eq!(s.slot_of(4), None);
        // Spawning after churn continues the id sequence (never reuses).
        let next = s.join(0);
        assert_eq!(next, 6);
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn remove_slots_rejects_bad_slot() {
        let mut s = store(&[2]);
        s.join(0);
        s.remove_slots(&mut [3]);
    }

    #[test]
    #[should_panic(expected = "duplicate slot")]
    fn remove_slots_rejects_duplicates() {
        let mut s = store(&[2]);
        s.join(0);
        s.join(0);
        s.remove_slots(&mut [1, 1]);
    }

    #[test]
    fn set_channel_resets_learner_lazily_keeps_same_arity_regret() {
        let mut s = store(&[2, 2, 4]);
        s.join(0);
        // Record one epoch of regret on channel 0 by driving the phases.
        let mut profile = vec![0u32; 1];
        let mut aux = vec![0u32; 1];
        let (mut loads, mut scratch, mut delivered) = (Vec::new(), Vec::new(), vec![0.0; 1]);
        // Full per-channel join layout every epoch (channels [2, 2, 4]
        // → offsets [0, 2, 4, 8]), as the engine emits it; channels
        // without viewers carry zero join rates.
        let offs = [0usize, 2, 4, 8];
        let mut step = |s: &mut PeerStore, join: &[f64]| {
            s.choose_phase(
                &mut profile,
                &mut aux,
                &mut loads,
                4,
                &mut scratch,
                |_, a, _, _, l| l[a as usize] += 1,
            );
            s.observe_phase(
                &profile,
                &mut delivered,
                &offs,
                join,
                &mut scratch,
                true,
                |_, _, _| (10.0, true),
            );
        };
        step(&mut s, &[900.0, 50.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let recorded = s.empirical_regret(0);
        assert!(recorded > 0.0, "no regret recorded");
        // Round-trip through a same-arity channel: learner restarts, but
        // the regret history survives (the historical lazy semantics —
        // the arity never changed as far as the row is concerned).
        s.set_channel(0, 1);
        assert_eq!(s.channel(0), 1);
        assert_eq!(s.learner(0).probabilities(), &[0.5; 2]);
        assert_eq!(s.empirical_regret(0), recorded, "same-arity migration lost history");
        step(&mut s, &[0.0, 0.0, 900.0, 50.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(s.empirical_regret(0) > 0.0);
        // Different arity: the row resets at the *next record*, not at
        // migration time.
        s.set_channel(0, 2);
        assert_eq!(s.learner(0).probabilities(), &[0.25; 4]);
        assert!(s.empirical_regret(0) > 0.0, "reset should be lazy");
        step(&mut s, &[0.0, 0.0, 0.0, 0.0, 900.0, 500.0, 100.0, 50.0]);
        // One fresh stage on the new 4-action row.
        assert_eq!(s.regret_stages(0), 1, "arity change must restart the stage clock");
    }

    /// A peer's link state lives in its slot of the store's link column
    /// and moves with it. Under `sim_churn_impaired`'s plan (Gilbert–Elliott
    /// loss, a token bucket, a link-bandwidth ladder), a store that loses
    /// peers and a twin that never did must give each survivor the same
    /// loss decision and shaped rate, `to_bits`, every epoch. An arrival
    /// gets a fresh `LinkShaper`, so its first shaped rate comes out of a
    /// full bucket, and it goes on shaping like a fresh shaper fed alone.
    #[test]
    fn link_state_follows_its_peer() {
        let plan = ImpairmentPlan::builder(99)
            .gilbert_loss(0.04, 0.3, 0.8, 0.01)
            .token_bucket(500.0, 1000.0)
            .link_bandwidth(vec![300.0, 600.0, 900.0], 0.92)
            .build()
            .unwrap();
        let twin = || {
            let mut s = store(&[3]).with_impairment(plan.clone());
            for _ in 0..12 {
                s.join(0);
            }
            s
        };
        let (mut churned, mut whole) = (twin(), twin());
        // Peers stay with a helper for four epochs (the chains step from
        // their memo), then move on (they seek); every offer exceeds the
        // refill, so buckets drain wherever the link carries more.
        let helper = |id: u64, epoch: u64| ((id + epoch / 4) % 3) as u32;
        let offer = |id: u64, epoch: u64| 850.0 + ((id * 31 + epoch * 17) % 100) as f64;
        let mut fresh = Vec::new();
        for epoch in 0..40u64 {
            if epoch == 20 {
                churned.remove_slots(&mut [9, 1, 4, 5]);
            }
            if epoch == 20 || epoch == 30 {
                let id = churned.join(0);
                assert_eq!(whole.join(0), id);
                let new = format!("{:?}", LinkShaper::new());
                assert_eq!(format!("{:?}", churned.links.last().unwrap()), new, "peer {id}");
                fresh.push((id, epoch, LinkShaper::new()));
            }
            let mut shaped = [Vec::new(), Vec::new()];
            let mut lost = [Vec::new(), Vec::new()];
            for (s, (shaped, lost)) in
                [&mut churned, &mut whole].into_iter().zip(shaped.iter_mut().zip(&mut lost))
            {
                let ids = s.ids().to_vec();
                let helpers: Vec<u32> = ids.iter().map(|&id| helper(id, epoch)).collect();
                let offers: Vec<f64> = ids.iter().map(|&id| offer(id, epoch)).collect();
                for (slot, &h) in helpers.iter().enumerate() {
                    lost.push(s.is_lost(slot, h as usize, epoch));
                }
                assert!(s.shape_phase(&helpers, epoch, shaped, |slot, _, _| offers[slot]));
            }
            for (slot, &id) in churned.ids().iter().enumerate() {
                let at = format!("epoch {epoch}, peer {id}");
                assert_eq!(lost[0][slot], lost[1][id as usize], "{at}: loss");
                assert_eq!(shaped[0][slot].to_bits(), shaped[1][id as usize].to_bits(), "{at}");
            }
            for (id, joined, reference) in &mut fresh {
                let (slot, h) = (churned.slot_of(*id).unwrap(), helper(*id, epoch) as usize);
                let offered = if lost[0][slot] { 0.0 } else { offer(*id, epoch) };
                let want = reference.shape(&plan, *id, h, epoch, offered);
                assert_eq!(shaped[0][slot].to_bits(), want.to_bits(), "epoch {epoch}, {id}");
                if *joined == epoch {
                    let full = 1000.0 - shaped[0][slot];
                    assert_eq!(churned.links[slot].tokens(), full, "arrival {id}'s bucket");
                }
            }
        }
        assert_eq!(churned.ids(), &[0, 2, 3, 6, 7, 8, 10, 11, 12, 13]);
    }

    /// A plan that affects no rate gives the store no link column: the
    /// shape phase declines, and nothing is ever lost.
    #[test]
    fn clean_plans_shape_nothing() {
        for plan in [ImpairmentPlan::none(), ImpairmentPlan::builder(9).build().unwrap()] {
            let mut s = store(&[2]).with_impairment(plan);
            s.join(0);
            let mut shaped = Vec::new();
            assert!(!s.shape_phase(&[1], 0, &mut shaped, |_, _, _| 7.0));
            assert!(shaped.is_empty() && s.links.is_empty() && !s.is_lost(0, 1, 0));
        }
    }

    /// The production record against the dense oracle, under churn and at
    /// K > 1: on three channels of arities {3, 5, 8}, for more than
    /// `2·SNAPSHOT_SLOTS` epochs, at 1 and 2 shards, the observe phase's
    /// `worst_empirical` must be every epoch, `to_bits`, the largest
    /// `DenseRegret::record` over the population, and every peer's
    /// `empirical_regret` its `peer_max` — after the epoch and again
    /// after the departures (`remove_slots`), arrivals (`join`) and
    /// channel migrations (`set_channel`) between epochs. Rates and join
    /// rates are integral, where the stretch fold is exact.
    #[test]
    fn observed_regret_matches_dense_oracle_under_churn_across_channels() {
        const ARITIES: [usize; 3] = [3, 5, 8];
        const OFFSETS: [usize; 4] = [0, 3, 8, 16];
        const EPOCHS: u64 = 2 * SNAPSHOT_SLOTS as u64 + 24;
        for shards in [1, 2] {
            let mut s = PeerStore::new(7, LearnerSpec::default(), 400.0, &ARITIES);
            s.set_shards(Some(shards));
            let mut dense = DenseRegret::new(&ARITIES);
            for p in 0..30 {
                s.join(p % 3);
                dense.add_peer();
            }
            let mut draw = {
                let mut n = 0u64;
                move |below: usize| {
                    n += 1;
                    (derive_seed(2014, n) % below as u64) as usize
                }
            };
            let (mut profile, mut aux, mut delivered) = (Vec::new(), Vec::new(), Vec::new());
            let (mut loads, mut scratch) = (Vec::new(), Vec::new());
            let check = |s: &PeerStore, dense: &DenseRegret, at: &str| {
                for slot in 0..s.len() {
                    assert_eq!(
                        s.empirical_regret(slot).to_bits(),
                        dense.peer_max(slot).to_bits(),
                        "{shards} shards, {at}: slot {slot}"
                    );
                }
            };
            for epoch in 0..EPOCHS {
                let n = s.len();
                profile.resize(n, 0);
                aux.resize(n, 0);
                delivered.resize(n, 0.0);
                s.choose_phase(
                    &mut profile,
                    &mut aux,
                    &mut loads,
                    0,
                    &mut scratch,
                    |_, _, _, _, _| {},
                );
                let join: Vec<f64> = (0..OFFSETS[3]).map(|_| draw(900) as f64).collect();
                let rates: Vec<f64> = (0..n).map(|_| draw(800) as f64).collect();
                let (_, worst) = s.observe_phase(
                    &profile,
                    &mut delivered,
                    &OFFSETS,
                    &join,
                    &mut scratch,
                    false,
                    |slot, _, _| (rates[slot], true),
                );
                let want = (0..n).fold(0.0f64, |max, slot| {
                    let (c, played) = (s.channel(slot), profile[slot] as usize);
                    max.max(dense.record(slot, c, played, rates[slot], &join))
                });
                let at = format!("epoch {epoch}");
                assert_eq!(worst.to_bits(), want.to_bits(), "{shards} shards, {at}");
                check(&s, &dense, &at);
                match epoch % 3 {
                    0 => {
                        let first = draw(n);
                        let mut gone = [first as u32, ((first + 1 + draw(n - 1)) % n) as u32];
                        s.remove_slots(&mut gone);
                        dense.remove_slots(&gone);
                    }
                    1 => {
                        for _ in 0..2 {
                            s.join(draw(3));
                            dense.add_peer();
                        }
                    }
                    _ => {
                        for _ in 0..2 {
                            let slot = draw(n);
                            s.set_channel(slot, (s.channel(slot) + 1 + draw(2)) % 3);
                        }
                    }
                }
                check(&s, &dense, &format!("after {at}'s moves"));
            }
        }
    }

    /// A block store, fed the population's join rates, records its peers'
    /// true regret as the whole population's store does: every epoch the
    /// blocks choose what the whole store chooses, their worst regrets
    /// folded by `max` are its worst, and each peer's `empirical_regret` is
    /// its counterpart's, `to_bits`, for more than `SNAPSHOT_SLOTS` epochs.
    #[test]
    fn block_stores_record_the_regret_of_the_whole_store() {
        const H: usize = 4;
        let mut whole = store(&[H]);
        let mut blocks = [store(&[H]).into_block(0), store(&[H]).into_block(7)];
        (0..12).for_each(|_| _ = whole.join(0));
        (0..7).for_each(|_| _ = blocks[0].join(0));
        (0..5).for_each(|_| _ = blocks[1].join(0));
        let mut scratch = Vec::new();
        // One epoch of `s`: its choices and its worst empirical regret.
        let mut step = |s: &mut PeerStore, join: &[f64], epoch: u64| {
            let n = s.len();
            let (mut profile, mut aux, mut loads) = (vec![0; n], vec![0; n], Vec::new());
            s.choose_phase(
                &mut profile,
                &mut aux,
                &mut loads,
                0,
                &mut scratch,
                |_, _, _, _, _| {},
            );
            let ids = s.ids().to_vec();
            let (_, worst) = s.observe_phase(
                &profile,
                &mut vec![0.0; n],
                &[0, H],
                join,
                &mut scratch,
                false,
                |slot, _, _| (((ids[slot] * 31 + epoch * 17) % 400) as f64, true),
            );
            (profile, worst)
        };
        for epoch in 0..2 * SNAPSHOT_SLOTS as u64 {
            let join: Vec<f64> =
                (0..H as u64).map(|k| ((epoch * 7 + k * 13) % 500) as f64).collect();
            let (profile, worst) = step(&mut whole, &join, epoch);
            let (head, head_worst) = step(&mut blocks[0], &join, epoch);
            let (tail, tail_worst) = step(&mut blocks[1], &join, epoch);
            assert_eq!(profile, [head, tail].concat(), "epoch {epoch}: choices");
            assert_eq!(worst.to_bits(), head_worst.max(tail_worst).to_bits(), "epoch {epoch}");
        }
        let peers = blocks.iter().flat_map(|b| (0..b.len()).map(move |slot| (b, slot)));
        for (slot, (block, b_slot)) in peers.enumerate() {
            let (got, want) = (block.empirical_regret(b_slot), whole.empirical_regret(slot));
            assert_eq!(got.to_bits(), want.to_bits(), "peer {slot}");
            assert!(want > 0.0, "peer {slot}: no regret recorded");
        }
    }

    /// A miniature epoch loop driven straight against the store, its
    /// peers learning over `actions` helpers; with `churn`, peers leave
    /// and join between epochs, so the slab's row handles have holes
    /// between the slots each shard is handed. The
    /// regret estimate is asked for from epoch `track_from` on (which is
    /// when a slab starts maintaining its row maxima). Returns everything
    /// an epoch computes, as bits.
    fn drive_phases(
        algorithm: Algorithm,
        actions: usize,
        shards: usize,
        churn: bool,
        track_from: u32,
    ) -> (Vec<(u64, u64)>, Vec<u64>, Vec<u64>) {
        let spec = LearnerSpec { algorithm, ..LearnerSpec::default() };
        let mut s = PeerStore::new(7, spec, 400.0, &[actions]);
        for _ in 0..40 {
            s.join(0);
        }
        s.set_shards(Some(shards));
        let (mut profile, mut aux, mut delivered) = (Vec::new(), Vec::new(), Vec::new());
        let mut loads = Vec::new();
        let mut scratch = Vec::new();
        let mut stats = Vec::new();
        for epoch in 0..30u32 {
            if churn && epoch % 3 == 1 {
                let n = s.len() as u32;
                let mut gone = vec![0, (epoch * 7) % n, (epoch * 5 + 11) % n, n - 1];
                gone.sort_unstable();
                gone.dedup();
                s.remove_slots(&mut gone);
                for _ in 0..epoch % 7 {
                    s.join(0);
                }
            }
            profile.resize(s.len(), 0);
            aux.resize(s.len(), 0);
            delivered.resize(s.len(), 0.0);
            s.choose_phase(
                &mut profile,
                &mut aux,
                &mut loads,
                actions,
                &mut scratch,
                |_, choice, _, _, loads| loads[choice as usize] += 1,
            );
            let shares: Vec<f64> =
                loads.iter().map(|&l| if l == 0 { 0.0 } else { 900.0 / l as f64 }).collect();
            let join: Vec<f64> = loads.iter().map(|&l| 900.0 / (l + 1) as f64).collect();
            let shares_ref = &shares;
            let (est, emp) = s.observe_phase(
                &profile,
                &mut delivered,
                &[0, actions],
                &join,
                &mut scratch,
                epoch >= track_from,
                |_, a, _| (shares_ref[a as usize], true),
            );
            stats.push((est.to_bits(), emp.to_bits()));
        }
        let probs: Vec<u64> = (0..s.len())
            .flat_map(|i| s.learner(i).probabilities().to_vec())
            .map(f64::to_bits)
            .collect();
        (stats, probs, delivered.iter().map(|r| r.to_bits()).collect())
    }

    /// Learner arities on either side of the slab's geometry gate: at 3
    /// the observe sweep calls each update directly, at 12 it runs them in
    /// blocks of [`OBSERVE_BATCH`] behind the load pass.
    const ARITIES: [usize; 2] = [3, 12];

    /// Shard counts that leave a 40-peer store's shards (of 20, 14 + 13,
    /// 10, 7 + 6, 6 + 5, 4 + 3 and 2 + 1 peers) ending in observe blocks of
    /// every length 1…7.
    const SHARDS: [usize; 7] = [2, 3, 4, 6, 7, 13, 23];

    #[test]
    fn phases_run_identically_at_any_shard_count() {
        // The choose/observe trajectories must be bit-identical at any
        // shard count (the engine-level sweep lives in tests/).
        for actions in ARITIES {
            let base = drive_phases(Algorithm::Rths, actions, 1, false, 0);
            for shards in SHARDS {
                let got = drive_phases(Algorithm::Rths, actions, shards, false, 0);
                assert_eq!(got, base, "{actions} actions diverged at {shards} shards");
            }
        }
    }

    /// Under churn too, wherever the store hosts the algorithm: tracking
    /// and matching in the slab (batch-decayed or not; the observe blocks
    /// then reach their rows and T lines through views split at the row
    /// handles), EXP3 in the per-peer column, which compacts alongside the
    /// others. The estimate series comes from the slab's maintained row
    /// maxima; asking for it only once churn has left holes among the rows
    /// (and passes have closed some) yields the same bits from there on.
    #[test]
    fn phases_run_identically_at_any_shard_count_under_churn() {
        for actions in ARITIES {
            let mut seen = vec![drive_phases(Algorithm::Rths, actions, 1, false, 0)];
            for algorithm in [Algorithm::Rths, Algorithm::RegretMatching, Algorithm::Exp3] {
                let base = drive_phases(algorithm, actions, 1, true, 0);
                assert!(!seen.contains(&base), "{algorithm:?} replayed another script");
                for shards in SHARDS {
                    let got = drive_phases(algorithm, actions, shards, true, 0);
                    assert_eq!(
                        got, base,
                        "{algorithm:?}/{actions} diverged at {shards} shards"
                    );
                }
                const LATE: usize = 14;
                let late = drive_phases(algorithm, actions, 4, true, LATE as u32);
                assert!(late.0[..LATE].iter().all(|&(est, _)| est == 0), "asked too early");
                assert!(
                    base.0[LATE..].iter().all(|&(est, _)| est != 0),
                    "{algorithm:?}: no estimate"
                );
                assert_eq!(late.0[LATE..], base.0[LATE..], "{algorithm:?} late estimates");
                let empirical =
                    |stats: &[(u64, u64)]| stats.iter().map(|s| s.1).collect::<Vec<_>>();
                assert_eq!(empirical(&late.0[..LATE]), empirical(&base.0[..LATE]));
                assert_eq!((&late.1, &late.2), (&base.1, &base.2));
                seen.push(base);
            }
        }
    }
}
