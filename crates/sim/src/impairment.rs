//! Per-link impairments: bursty loss, rate limiting, and time-varying
//! link bandwidth — shared by the simulator and the `rths_net` backends.
//!
//! The paper's evaluation assumes clean links; the deployments motivating
//! it (PPLive/UUSee-style swarms) see bursty loss, rate-limited last
//! miles, and bandwidth that drifts on the timescale of minutes. An
//! [`ImpairmentPlan`] describes those effects declaratively:
//!
//! * [`LossModel`] — data-plane payload loss, either the legacy uniform
//!   model (the hash stream of the fault plan `rths_net` used to carry,
//!   pinned by literal vectors in this module's tests) or a per-link
//!   **Gilbert–Elliott** two-state burst process;
//! * [`TokenBucketSpec`] — a per-peer token bucket shaping delivered
//!   rates (an ISP-style rate limiter: bursts pass, sustained overuse is
//!   clipped to the refill rate);
//! * [`LinkBandwidthSpec`] — a per-link capacity ladder of any length,
//!   driven by the sticky birth–death rule of the helpers' bandwidth
//!   chain ([`rths_stoch::MarkovBandwidth`], which is its three-level
//!   case).
//!
//! Each of them shapes the rate a peer receives. The plan holds nothing
//! else: the protocol is epoch-synchronous, so a delivery delay could
//! reorder an epoch's messages but never change an outcome.
//!
//! # Determinism across backends
//!
//! Every stochastic decision here is a **pure function of
//! `(plan seed, link, epoch)`** — there is no RNG object to advance, so
//! the decisions cannot depend on evaluation order, thread count, or
//! which backend asks. Chains that are conceptually stateful (the
//! Gilbert–Elliott state, the bandwidth ladder) are made *seekable* by
//! block regeneration: at every [`REGEN_BLOCK`]-epoch boundary the state
//! is drawn fresh from the chain's stationary distribution (a hashed
//! uniform), then at most `REGEN_BLOCK − 1` transition steps — each
//! driven by a counter-derived hash — reach the queried epoch. Within a
//! block the process has exactly the chain's transition dynamics (bursts
//! survive), across blocks it is stationary, and any epoch's state costs
//! `O(REGEN_BLOCK)` to evaluate from nothing. That is what lets the
//! simulator and the reactor (in one process or several) agree
//! bit-for-bit at any `RTHS_THREADS`, and lets churn add or remove peers
//! without perturbing any other link's stream.
//!
//! The seek — [`ImpairmentPlan::is_lost`], [`ImpairmentPlan::link_cap_kbps`]
//! — is the definition, and the oracle of this module's tests. An engine
//! does not ask at random, though: a peer asks about its link every
//! epoch, and the link moved one transition since. The per-peer
//! [`LinkShaper`] therefore remembers where the link it was last asked
//! about stands and *steps*: the same helper one epoch on, off a
//! regeneration boundary, costs the one hash the seek's loop would draw
//! for that transition; anything else — a helper switch, a gap, a
//! boundary, a fresh shaper — is a seek. Same hashes in the same order,
//! so the answers are the seek's by construction, and what a shaper was
//! asked before can change only what the next answer costs.
//!
//! The only state that is part of the model is the token bucket (also
//! [`LinkShaper`]): its level depends only on the owning peer's own
//! delivered-rate sequence, which is itself identical across backends,
//! so the state path is too.
//!
//! # Example
//!
//! ```
//! use rths_sim::impairment::ImpairmentPlan;
//!
//! let plan = ImpairmentPlan::builder(7)
//!     .gilbert_loss(0.05, 0.3, 0.8, 0.01)
//!     .token_bucket(600.0, 1200.0)
//!     .build()
//!     .unwrap();
//! // Pure function of (seed, link, epoch): ask as often as you like.
//! let lost = plan.is_lost(3, 1, 42);
//! assert_eq!(lost, plan.is_lost(3, 1, 42));
//! ```

use rths_stoch::rng::derive_seed;

/// Epochs between stationary re-draws of the seekable chains. Large
/// enough that bursts develop (mean bad-state sojourns in realistic
/// parameterizations are far shorter), small enough that random access
/// stays cheap.
pub const REGEN_BLOCK: u64 = 64;

// Distinct salts so every per-link decision stream is independent.
const SALT_LINK: u64 = 0x0011_A71C_E50F_u64;
const SALT_GE_INIT: u64 = 0x6E_1B_AD_01;
const SALT_GE_STEP: u64 = 0x6E_1B_AD_02;
const SALT_GE_DROP: u64 = 0x6E_1B_AD_03;
const SALT_BW_INIT: u64 = 0xBA_4D_01;
const SALT_BW_STEP: u64 = 0xBA_4D_02;

/// A rejected [`ImpairmentPlan`] field: which field, what it must
/// satisfy, and the offending value. Returned (never panicked) by
/// [`ImpairmentPlanBuilder::build`] and the `ScenarioSpec` parser.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpairmentError {
    field: &'static str,
    requirement: &'static str,
    value: String,
}

impl ImpairmentError {
    fn new(
        field: &'static str,
        requirement: &'static str,
        value: impl std::fmt::Debug,
    ) -> Self {
        Self { field, requirement, value: format!("{value:?}") }
    }

    /// Dotted path of the rejected field (e.g. `"loss.bad_loss"`).
    #[cfg(test)]
    pub(crate) fn field(&self) -> &'static str {
        self.field
    }
}

impl std::fmt::Display for ImpairmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "impairment field `{}` {} (got {})", self.field, self.requirement, self.value)
    }
}

impl std::error::Error for ImpairmentError {}

/// Data-plane payload loss model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No loss. **Default.**
    #[default]
    None,
    /// Uniform per-(peer, epoch) loss — the legacy fault-plan model,
    /// bit-compatible with its hash stream (the link's helper does not
    /// enter the draw).
    Uniform {
        /// Loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Per-link Gilbert–Elliott burst loss: a hidden good/bad channel
    /// state per `(peer, helper)` link, each state with its own drop
    /// probability. Bursty: consecutive epochs on the same link are
    /// correlated through the hidden state.
    GilbertElliott {
        /// P(good → bad) per epoch.
        p_enter_bad: f64,
        /// P(bad → good) per epoch.
        p_exit_bad: f64,
        /// Drop probability while the link is in the bad state.
        bad_loss: f64,
        /// Drop probability while the link is in the good state.
        good_loss: f64,
    },
}

/// Token-bucket rate limiter per peer (the peer's access link). One
/// epoch is one refill interval: a delivered rate of `r` kbps consumes
/// `r` kbits of tokens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketSpec {
    /// Refill rate (kbits per epoch = sustainable kbps).
    pub rate_kbps: f64,
    /// Bucket depth (kbits): the largest burst that passes unshaped.
    pub burst_kbits: f64,
}

/// Per-link capacity ladder: each `(peer, helper)` link walks the level
/// ladder with a sticky birth–death chain (stationary `[1, 2, …, 2, 1]`
/// — the chain the paper's helper bandwidth walks over
/// `[700, 800, 900]`), capping the rate the link can carry that epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkBandwidthSpec {
    /// Capacity levels (kbps), ordered low→high.
    pub levels: Vec<f64>,
    /// Probability of staying at the current level each epoch,
    /// in `[0, 1)`.
    pub stay: f64,
}

/// A validated, declarative link-impairment plan. Construct with
/// [`ImpairmentPlan::none`] or [`ImpairmentPlan::builder`]; invalid
/// parameters surface as [`ImpairmentError`]s, never panics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImpairmentPlan {
    loss: LossModel,
    token_bucket: Option<TokenBucketSpec>,
    link_bandwidth: Option<LinkBandwidthSpec>,
    seed: u64,
}

/// Builder for [`ImpairmentPlan`]; validation happens once in
/// [`build`](ImpairmentPlanBuilder::build).
#[derive(Debug, Clone, Default)]
pub struct ImpairmentPlanBuilder {
    plan: ImpairmentPlan,
}

impl ImpairmentPlanBuilder {
    /// Uniform (legacy fault-plan-compatible) loss with probability
    /// `loss`.
    #[must_use]
    pub fn uniform_loss(mut self, loss: f64) -> Self {
        self.plan.loss = LossModel::Uniform { loss };
        self
    }

    /// Gilbert–Elliott bursty loss (see [`LossModel::GilbertElliott`]).
    #[must_use]
    pub fn gilbert_loss(
        mut self,
        p_enter_bad: f64,
        p_exit_bad: f64,
        bad_loss: f64,
        good_loss: f64,
    ) -> Self {
        self.plan.loss =
            LossModel::GilbertElliott { p_enter_bad, p_exit_bad, bad_loss, good_loss };
        self
    }

    /// Per-peer token-bucket rate limiting.
    #[must_use]
    pub fn token_bucket(mut self, rate_kbps: f64, burst_kbits: f64) -> Self {
        self.plan.token_bucket = Some(TokenBucketSpec { rate_kbps, burst_kbits });
        self
    }

    /// Per-link Markov bandwidth caps.
    #[must_use]
    pub fn link_bandwidth(mut self, levels: Vec<f64>, stay: f64) -> Self {
        self.plan.link_bandwidth = Some(LinkBandwidthSpec { levels, stay });
        self
    }

    /// Validates every field and returns the plan.
    ///
    /// # Errors
    ///
    /// Returns an [`ImpairmentError`] naming the first out-of-range
    /// field.
    pub fn build(self) -> Result<ImpairmentPlan, ImpairmentError> {
        let plan = self.plan;
        match plan.loss {
            LossModel::None => {}
            LossModel::Uniform { loss } => probability("loss.loss", loss)?,
            LossModel::GilbertElliott { p_enter_bad, p_exit_bad, bad_loss, good_loss } => {
                probability("loss.p_enter_bad", p_enter_bad)?;
                probability("loss.p_exit_bad", p_exit_bad)?;
                probability("loss.bad_loss", bad_loss)?;
                probability("loss.good_loss", good_loss)?;
            }
        }
        if let Some(tb) = &plan.token_bucket {
            positive_finite("token_bucket.rate_kbps", tb.rate_kbps)?;
            positive_finite("token_bucket.burst_kbits", tb.burst_kbits)?;
        }
        if let Some(bw) = &plan.link_bandwidth {
            if bw.levels.is_empty() {
                return Err(ImpairmentError::new(
                    "link_bandwidth.levels",
                    "must list at least one level",
                    &bw.levels,
                ));
            }
            for &level in &bw.levels {
                if !(level.is_finite() && level >= 0.0) {
                    return Err(ImpairmentError::new(
                        "link_bandwidth.levels",
                        "levels must be finite and non-negative",
                        level,
                    ));
                }
            }
            stay_probability("link_bandwidth.stay", bw.stay)?;
        }
        Ok(plan)
    }
}

fn probability(field: &'static str, p: f64) -> Result<(), ImpairmentError> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(ImpairmentError::new(field, "must be a probability in [0, 1]", p))
    }
}

fn stay_probability(field: &'static str, p: f64) -> Result<(), ImpairmentError> {
    if p.is_finite() && (0.0..1.0).contains(&p) {
        Ok(())
    } else {
        Err(ImpairmentError::new(field, "must be a stay probability in [0, 1)", p))
    }
}

fn positive_finite(field: &'static str, v: f64) -> Result<(), ImpairmentError> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(ImpairmentError::new(field, "must be finite and positive", v))
    }
}

/// Hashed uniform in `[0, 1)`-ish (the exact legacy mapping: hash scaled
/// by `u64::MAX`).
fn unit(seed: u64, counter: u64) -> f64 {
    derive_seed(seed, counter) as f64 / u64::MAX as f64
}

/// The per-link decision stream seed.
fn link_seed(seed: u64, peer: u64, helper: usize) -> u64 {
    derive_seed(derive_seed(seed ^ SALT_LINK, peer), helper as u64)
}

/// One Gilbert–Elliott transition: the state at epoch `t + 1` given the
/// state `bad` at epoch `t`. The seek loop and the stepping
/// [`LinkShaper`] share it, so they draw the same hash for the same move.
fn ge_step(seed: u64, p_enter_bad: f64, p_exit_bad: f64, bad: bool, t: u64) -> bool {
    let u = unit(seed ^ SALT_GE_STEP, t);
    if bad {
        u >= p_exit_bad
    } else {
        u < p_enter_bad
    }
}

/// Seekable Gilbert–Elliott state: regenerate from the stationary
/// distribution at the enclosing block boundary, then iterate hashed
/// transitions to `epoch`. Pure in `(seed, epoch)`.
fn ge_bad_at(seed: u64, p_enter_bad: f64, p_exit_bad: f64, epoch: u64) -> bool {
    let block = epoch / REGEN_BLOCK;
    let start = block * REGEN_BLOCK;
    let denom = p_enter_bad + p_exit_bad;
    let mut bad = denom > 0.0 && unit(seed ^ SALT_GE_INIT, block) < p_enter_bad / denom;
    for t in start..epoch {
        bad = ge_step(seed, p_enter_bad, p_exit_bad, bad, t);
    }
    bad
}

/// Whether a Gilbert–Elliott link in state `bad` drops its payload at
/// `epoch`: the state's drop probability against the link's drop stream
/// (the boundary probabilities never consult the hash).
fn ge_drops(seed: u64, bad: bool, bad_loss: f64, good_loss: f64, epoch: u64) -> bool {
    let p = if bad { bad_loss } else { good_loss };
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    unit(seed ^ SALT_GE_DROP, epoch) < p
}

/// One sticky birth–death transition over `n ≥ 2` levels: the state at
/// epoch `t + 1` given `state` at epoch `t` (shared by the seek loop and
/// the stepping [`LinkShaper`], like [`ge_step`]).
fn ladder_step(seed: u64, stay: f64, n: usize, state: usize, t: u64) -> usize {
    debug_assert!(n >= 2, "a one-level ladder has no transitions");
    let u = unit(seed ^ SALT_BW_STEP, t);
    if u < stay {
        return state;
    }
    let v = (u - stay) / (1.0 - stay);
    if state == 0 {
        1
    } else if state == n - 1 {
        n - 2
    } else if v < 0.5 {
        state - 1
    } else {
        state + 1
    }
}

/// Seekable sticky birth–death ladder state over `n` levels. Its
/// stationary weights are `[1, 2, …, 2, 1]` by detailed balance (the ends
/// move only inward, inner levels split their move mass); at `n = 3` that
/// is `rths_stoch::MarkovBandwidth::STATIONARY`.
fn ladder_state_at(seed: u64, stay: f64, n: usize, epoch: u64) -> usize {
    if n <= 1 {
        return 0;
    }
    let block = epoch / REGEN_BLOCK;
    let start = block * REGEN_BLOCK;
    // Stationary draw at the block boundary.
    let total = (2 * n - 2) as f64;
    let mut acc = unit(seed ^ SALT_BW_INIT, block) * total;
    let mut state = 0usize;
    for s in 0..n {
        let w = if s == 0 || s == n - 1 { 1.0 } else { 2.0 };
        if acc < w {
            state = s;
            break;
        }
        acc -= w;
        state = s;
    }
    // Transition steps to the queried epoch.
    for t in start..epoch {
        state = ladder_step(seed, stay, n, state, t);
    }
    state
}

impl ImpairmentPlan {
    /// No impairments at all (the clean-link default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Starts a builder whose decision streams derive from `seed`
    /// (independent of the simulation seed).
    pub fn builder(seed: u64) -> ImpairmentPlanBuilder {
        ImpairmentPlanBuilder { plan: ImpairmentPlan { seed, ..ImpairmentPlan::default() } }
    }

    /// Whether the plan impairs anything: loss, the token bucket or the
    /// link bandwidth, each of which can change the rate a peer receives.
    pub fn affects_rates(&self) -> bool {
        !matches!(self.loss, LossModel::None)
            || self.token_bucket.is_some()
            || self.link_bandwidth.is_some()
    }

    /// The plan's decision-stream seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The loss model.
    pub fn loss(&self) -> &LossModel {
        &self.loss
    }

    /// The token-bucket limiter, if any.
    pub fn token_bucket(&self) -> Option<&TokenBucketSpec> {
        self.token_bucket.as_ref()
    }

    /// The link-bandwidth process, if any.
    pub fn link_bandwidth(&self) -> Option<&LinkBandwidthSpec> {
        self.link_bandwidth.as_ref()
    }

    /// Whether the payload on link `(peer, helper)` is lost at `epoch`.
    /// Pure in `(seed, peer, helper, epoch)`. The uniform model ignores
    /// `helper` — it reproduces the legacy fault-plan hash stream
    /// bit-for-bit.
    pub fn is_lost(&self, peer: u64, helper: usize, epoch: u64) -> bool {
        match self.loss {
            LossModel::None => false,
            LossModel::Uniform { loss } => {
                if loss <= 0.0 {
                    return false;
                }
                if loss >= 1.0 {
                    return true;
                }
                let h = derive_seed(self.seed, derive_seed(peer, epoch));
                (h as f64 / u64::MAX as f64) < loss
            }
            LossModel::GilbertElliott { p_enter_bad, p_exit_bad, bad_loss, good_loss } => {
                let ls = link_seed(self.seed, peer, helper);
                let bad = ge_bad_at(ls, p_enter_bad, p_exit_bad, epoch);
                ge_drops(ls, bad, bad_loss, good_loss, epoch)
            }
        }
    }

    /// The link's bandwidth cap at `epoch` (`None` when no link
    /// bandwidth process is configured). Pure in
    /// `(seed, peer, helper, epoch)`.
    pub fn link_cap_kbps(&self, peer: u64, helper: usize, epoch: u64) -> Option<f64> {
        self.link_bandwidth.as_ref().map(|bw| {
            let ls = link_seed(self.seed, peer, helper);
            bw.levels[ladder_state_at(ls, bw.stay, bw.levels.len(), epoch)]
        })
    }
}

/// The state at `epoch` of a seekable chain last evaluated at `pos`
/// (`(epoch, state)`), which is moved there: the remembered state when
/// asked again, one `step(state, t)` on from it when `epoch` is the next
/// epoch and no regeneration boundary lies between, a `seek` from the
/// block boundary after any other jump. The step draws the very hash the
/// seek's loop would draw for that transition, so all three agree.
fn follow<S: Copy>(
    pos: &mut Option<(u64, S)>,
    epoch: u64,
    step: impl FnOnce(S, u64) -> S,
    seek: impl FnOnce() -> S,
) -> S {
    let state = match *pos {
        Some((at, state)) if at == epoch => state,
        Some((at, state))
            if epoch.checked_sub(1) == Some(at) && !epoch.is_multiple_of(REGEN_BLOCK) =>
        {
            step(state, at)
        }
        _ => seek(),
    };
    *pos = Some((epoch, state));
    state
}

/// Where a [`LinkShaper`] last left the chains of one link, and its last
/// loss decision. Derived
/// state only: dropping it changes no answer, only what the next one
/// costs.
#[derive(Debug, Clone, Copy)]
struct LinkMemo {
    /// What names the link: the plan's seed, the peer and the helper.
    key: (u64, u64, usize),
    /// The link's decision-stream seed ([`link_seed`] of `key`).
    seed: u64,
    /// The loss decision: `(epoch, (in the Gilbert–Elliott bad state,
    /// payload lost))`. A uniform model has no chain and leaves the state
    /// `false`.
    loss: Option<(u64, (bool, bool))>,
    /// The bandwidth ladder: `(epoch, level)`.
    ladder: Option<(u64, usize)>,
}

/// Per-peer link state: the token-bucket level, and a memo of where the
/// peer's current link stands in its loss and bandwidth chains.
///
/// The bucket is the only impairment whose *state* is part of the model —
/// its path depends solely on the peer's own delivered-rate sequence,
/// which is identical across backends, so the state is too. Call
/// [`shape`](Self::shape) **exactly once per epoch**.
///
/// The memo is a cache over the pure [`ImpairmentPlan::is_lost`] and
/// [`ImpairmentPlan::link_cap_kbps`]: [`is_lost`](Self::is_lost) and
/// `shape` return exactly what those return, whatever was asked before,
/// and asking about the same link one epoch on costs one hashed
/// transition instead of a walk from the regeneration boundary; asking
/// again at the same epoch costs no hash at all. It
/// follows one link under one plan at a time (a helper switch, like an
/// epoch gap, falls back to the seek). It is not part of the link's state
/// — two shapers with equal buckets are the same link whatever each was
/// last asked — which is why the type offers no `==` that could see it.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkShaper {
    tokens: f64,
    primed: bool,
    memo: Option<LinkMemo>,
}

impl LinkShaper {
    /// A fresh shaper (the bucket starts full on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current token level (kbits; meaningful after the first `shape`).
    #[cfg(test)]
    pub(crate) fn tokens(&self) -> f64 {
        self.tokens
    }

    /// The memo of link `(peer, helper)` under `plan`, started afresh if
    /// the shaper was following another link.
    fn link(&mut self, plan: &ImpairmentPlan, peer: u64, helper: usize) -> &mut LinkMemo {
        let key = (plan.seed, peer, helper);
        if self.memo.is_some_and(|memo| memo.key != key) {
            self.memo = None;
        }
        self.memo.get_or_insert_with(|| LinkMemo {
            key,
            seed: link_seed(plan.seed, peer, helper),
            loss: None,
            ladder: None,
        })
    }

    /// Whether the payload on link `(peer, helper)` is lost at `epoch`:
    /// [`ImpairmentPlan::is_lost`], stepping the link's Gilbert–Elliott
    /// chain from where this shaper last left it when it can. The answer
    /// is remembered, so asking about the same link and epoch again (the
    /// reactor asks when it sends a request and again when it shapes the
    /// rate) draws nothing.
    pub fn is_lost(
        &mut self,
        plan: &ImpairmentPlan,
        peer: u64,
        helper: usize,
        epoch: u64,
    ) -> bool {
        if plan.loss == LossModel::None {
            return false;
        }
        let link = self.link(plan, peer, helper);
        let seed = link.seed;
        let (_, lost) = match plan.loss {
            LossModel::GilbertElliott { p_enter_bad, p_exit_bad, bad_loss, good_loss } => {
                let drops = |bad, at| (bad, ge_drops(seed, bad, bad_loss, good_loss, at));
                follow(
                    &mut link.loss,
                    epoch,
                    |(bad, _), t| drops(ge_step(seed, p_enter_bad, p_exit_bad, bad, t), t + 1),
                    || drops(ge_bad_at(seed, p_enter_bad, p_exit_bad, epoch), epoch),
                )
            }
            // Memoryless: the next epoch's decision is a fresh draw.
            _ => {
                let draw = || (false, plan.is_lost(peer, helper, epoch));
                follow(&mut link.loss, epoch, |_, _| draw(), draw)
            }
        };
        lost
    }

    /// Applies the plan's shaping pipeline to one epoch's offered rate:
    /// first the link-bandwidth cap ([`ImpairmentPlan::link_cap_kbps`],
    /// its ladder stepped from where this shaper last left it when it can
    /// be), then the token bucket (refill, then spend). Returns the shaped
    /// rate. With neither configured the offered rate passes through
    /// bit-identically.
    pub fn shape(
        &mut self,
        plan: &ImpairmentPlan,
        peer: u64,
        helper: usize,
        epoch: u64,
        offered_kbps: f64,
    ) -> f64 {
        let mut rate = offered_kbps;
        if let Some(bw) = &plan.link_bandwidth {
            let n = bw.levels.len();
            let level = if n <= 1 {
                0
            } else {
                let link = self.link(plan, peer, helper);
                let seed = link.seed;
                follow(
                    &mut link.ladder,
                    epoch,
                    |level, t| ladder_step(seed, bw.stay, n, level, t),
                    || ladder_state_at(seed, bw.stay, n, epoch),
                )
            };
            rate = rate.min(bw.levels[level]);
        }
        if let Some(tb) = plan.token_bucket() {
            if self.primed {
                self.tokens = (self.tokens + tb.rate_kbps).min(tb.burst_kbits);
            } else {
                self.tokens = tb.burst_kbits;
                self.primed = true;
            }
            let granted = rate.min(self.tokens);
            self.tokens -= granted;
            rate = granted;
        }
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ge_plan(seed: u64) -> ImpairmentPlan {
        ImpairmentPlan::builder(seed).gilbert_loss(0.05, 0.25, 0.8, 0.02).build().unwrap()
    }

    #[test]
    fn none_plan_is_inert() {
        let plan = ImpairmentPlan::none();
        assert!(!plan.affects_rates());
        for peer in 0..20 {
            assert!(!plan.is_lost(peer, 0, peer));
            assert_eq!(plan.link_cap_kbps(peer, 0, 3), None);
        }
        let mut shaper = LinkShaper::new();
        assert_eq!(shaper.shape(&plan, 1, 0, 0, 731.25).to_bits(), 731.25f64.to_bits());
    }

    #[test]
    fn uniform_loss_matches_legacy_fault_hash() {
        // The legacy fault-plan formula, replicated literally: configs
        // migrated from it must not change a single drop.
        let seed = 42u64;
        let loss = 0.3;
        let plan = ImpairmentPlan::builder(seed).uniform_loss(loss).build().unwrap();
        for peer in 0..500u64 {
            for epoch in [0u64, 1, 7, 100] {
                let h = derive_seed(seed, derive_seed(peer, epoch));
                let legacy = (h as f64 / u64::MAX as f64) < loss;
                // Uniform loss ignores the helper by construction.
                assert_eq!(plan.is_lost(peer, 0, epoch), legacy);
                assert_eq!(plan.is_lost(peer, 3, epoch), legacy);
            }
        }
    }

    #[test]
    fn legacy_fault_plan_golden_vectors() {
        // `(peer, epoch) → lost` recorded from
        // `rths_net::FaultPlan::with_loss(0.35, 99)` before that module
        // was deleted: lossy configs written against it keep reproducing
        // their runs bit-for-bit. (Its delay column is pinned beside the
        // reactor's delivery delays, in `rths_net`.)
        let plan = ImpairmentPlan::builder(99).uniform_loss(0.35).build().unwrap();
        for (peer, epoch, lost) in [
            (0u64, 0u64, false),
            (2, 1, true),
            (7, 13, false),
            (3, 5, true),
            (11, 64, false),
            (42, 999, false),
            (5000, 123_456, true),
            (u64::MAX, 2, false),
        ] {
            assert_eq!(plan.is_lost(peer, 0, epoch), lost, "loss at ({peer}, {epoch})");
        }
        // The boundary probabilities never consult the hash.
        let always = ImpairmentPlan::builder(7).uniform_loss(1.0).build().unwrap();
        assert!(always.is_lost(3, 0, 9));
    }

    #[test]
    fn gilbert_loss_is_deterministic_and_link_local() {
        let a = ge_plan(7);
        let b = ge_plan(7);
        let mut differs_by_helper = 0;
        for peer in 0..50 {
            for epoch in 0..200 {
                assert_eq!(a.is_lost(peer, 0, epoch), b.is_lost(peer, 0, epoch));
                if a.is_lost(peer, 0, epoch) != a.is_lost(peer, 1, epoch) {
                    differs_by_helper += 1;
                }
            }
        }
        // Different helpers are different links with independent streams.
        assert!(differs_by_helper > 100, "links not independent: {differs_by_helper}");
    }

    #[test]
    fn gilbert_loss_rate_matches_stationary_mixture() {
        // pi_bad = p_enter/(p_enter+p_exit) = 1/6; expected loss
        // = pi_bad·0.8 + pi_good·0.02 = 0.15.
        let plan = ge_plan(3);
        let n = 60_000u64;
        let dropped = (0..n).filter(|&i| plan.is_lost(i % 300, 0, i / 300)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.15).abs() < 0.015, "loss rate {rate}");
    }

    #[test]
    fn gilbert_loss_is_bursty() {
        // Within a link, P(lost at t+1 | lost at t) must far exceed the
        // marginal loss rate — the whole point of the burst model.
        let plan = ge_plan(11);
        let mut lost_pairs = 0u64;
        let mut lost = 0u64;
        let mut total = 0u64;
        for peer in 0..100u64 {
            let mut prev = false;
            for epoch in 0..500u64 {
                // Skip pairs spanning a regeneration boundary.
                let now = plan.is_lost(peer, 0, epoch);
                if epoch % REGEN_BLOCK != 0 && prev {
                    total += 1;
                    if now {
                        lost_pairs += 1;
                    }
                }
                if now {
                    lost += 1;
                }
                prev = now;
            }
        }
        let marginal = lost as f64 / (100.0 * 500.0);
        let conditional = lost_pairs as f64 / total as f64;
        assert!(
            conditional > marginal * 2.5,
            "no burstiness: marginal {marginal}, conditional {conditional}"
        );
    }

    #[test]
    fn ladder_states_follow_stationary_weights() {
        // 3 levels: stationary [1, 2, 1]/4.
        let n = 40_000u64;
        let mut counts = [0u64; 3];
        for i in 0..n {
            counts[ladder_state_at(derive_seed(5, i % 100), 0.9, 3, i / 100)] += 1;
        }
        let mid = counts[1] as f64 / n as f64;
        assert!((mid - 0.5).abs() < 0.03, "middle-state mass {mid}");
    }

    #[test]
    fn ladder_is_sticky() {
        // With stay=0.95, consecutive states within a block are mostly
        // equal.
        let mut same = 0u64;
        let mut total = 0u64;
        for link in 0..50u64 {
            for epoch in 1..200u64 {
                if epoch % REGEN_BLOCK == 0 {
                    continue;
                }
                let s = |e| ladder_state_at(link, 0.95, 5, e);
                total += 1;
                if s(epoch) == s(epoch - 1) {
                    same += 1;
                }
            }
        }
        let frac = same as f64 / total as f64;
        assert!(frac > 0.9, "not sticky: {frac}");
    }

    #[test]
    fn link_cap_reads_the_configured_levels() {
        let plan = ImpairmentPlan::builder(2)
            .link_bandwidth(vec![100.0, 500.0, 900.0], 0.9)
            .build()
            .unwrap();
        for peer in 0..20 {
            for epoch in 0..100 {
                let cap = plan.link_cap_kbps(peer, 1, epoch).unwrap();
                assert!([100.0, 500.0, 900.0].contains(&cap));
            }
        }
    }

    #[test]
    fn token_bucket_passes_bursts_and_clips_sustained_rates() {
        let plan = ImpairmentPlan::builder(1).token_bucket(300.0, 900.0).build().unwrap();
        let mut shaper = LinkShaper::new();
        // First epoch: the full burst passes.
        assert_eq!(shaper.shape(&plan, 0, 0, 0, 900.0), 900.0);
        // Sustained overload converges to the refill rate.
        let mut last = 0.0;
        for epoch in 1..10 {
            last = shaper.shape(&plan, 0, 0, epoch, 900.0);
        }
        assert_eq!(last, 300.0);
        // An idle epoch refills the bucket for a later burst.
        assert_eq!(shaper.shape(&plan, 0, 0, 10, 0.0), 0.0);
        let burst = shaper.shape(&plan, 0, 0, 11, 900.0);
        assert_eq!(burst, 600.0, "two refills worth of tokens");
    }

    #[test]
    fn under_rate_traffic_is_untouched_by_the_bucket() {
        let plan = ImpairmentPlan::builder(1).token_bucket(500.0, 1000.0).build().unwrap();
        let mut shaper = LinkShaper::new();
        for epoch in 0..50 {
            let r = shaper.shape(&plan, 0, 0, epoch, 400.0);
            assert_eq!(r.to_bits(), 400.0f64.to_bits());
        }
    }

    #[test]
    fn shaping_pipeline_applies_cap_before_bucket() {
        let plan = ImpairmentPlan::builder(4)
            .link_bandwidth(vec![200.0], 0.0)
            .token_bucket(1000.0, 2000.0)
            .build()
            .unwrap();
        let mut shaper = LinkShaper::new();
        // The 200 kbps link cap binds before the generous bucket.
        assert_eq!(shaper.shape(&plan, 0, 0, 0, 800.0), 200.0);
    }

    /// Drives one shaper through a random walk of queries — mostly the
    /// next epoch on the same link, interleaved with helper switches,
    /// another peer's link, forward gaps, jumps back, repeated epochs and
    /// a fresh shaper, asking for the loss, the shaping, or both — and
    /// holds every answer to the seek: `ImpairmentPlan::is_lost`, and
    /// `ImpairmentPlan::link_cap_kbps` fed through a memo-free shaper that
    /// carries the plan's bucket alone.
    fn assert_shaper_answers_like_the_seek(plan: &ImpairmentPlan, script_seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut script = rand::rngs::StdRng::seed_from_u64(script_seed);
        let bucket_only = match plan.token_bucket() {
            Some(tb) => ImpairmentPlan::builder(plan.seed())
                .token_bucket(tb.rate_kbps, tb.burst_kbits)
                .build()
                .unwrap(),
            None => ImpairmentPlan::none(),
        };
        let (mut shaper, mut bucket) = (LinkShaper::new(), LinkShaper::new());
        let (mut peer, mut helper, mut epoch) = (0u64, 0usize, 0u64);
        let (mut stepped, mut boundaries) = (0, 0);
        for query in 0..30_000 {
            match script.gen_range(0..16) {
                0 => helper = script.gen_range(0..3),
                1 => peer = script.gen_range(0..3),
                2 => epoch += script.gen_range(2..3 * REGEN_BLOCK),
                3 => epoch = epoch.saturating_sub(script.gen_range(1..2 * REGEN_BLOCK)),
                4 => {}
                5 => (shaper, bucket) = (LinkShaper::new(), LinkShaper::new()),
                _ => {
                    epoch += 1;
                    stepped += 1;
                    boundaries += u64::from(epoch.is_multiple_of(REGEN_BLOCK));
                }
            }
            let what = format!("query {query}: link ({peer}, {helper}) at epoch {epoch}");
            let ask = script.gen_range(0..3);
            if ask != 0 {
                // Asked twice, as the reactor asks at its request and again
                // when it shapes: the second answer comes from the memo.
                let want = plan.is_lost(peer, helper, epoch);
                assert_eq!(shaper.is_lost(plan, peer, helper, epoch), want, "{what}");
                assert_eq!(shaper.is_lost(plan, peer, helper, epoch), want, "{what} (again)");
            }
            if ask != 1 {
                let offered = 100.0 * script.gen_range(0..12) as f64;
                let capped = match plan.link_cap_kbps(peer, helper, epoch) {
                    Some(cap) => offered.min(cap),
                    None => offered,
                };
                let want = bucket.shape(&bucket_only, peer, helper, epoch, capped);
                let got = shaper.shape(plan, peer, helper, epoch, offered);
                assert_eq!(got.to_bits(), want.to_bits(), "{what}");
                assert_eq!(shaper.tokens().to_bits(), bucket.tokens().to_bits(), "{what}");
            }
        }
        assert!(
            stepped > 15_000 && boundaries > 100,
            "{stepped} steps, {boundaries} boundaries"
        );
    }

    #[test]
    fn stepping_shaper_answers_like_the_seek() {
        let plans = [
            // The benchmark's shape: burst loss, a ladder and a bucket.
            ImpairmentPlan::builder(99)
                .gilbert_loss(0.04, 0.3, 0.8, 0.01)
                .link_bandwidth(vec![200.0, 500.0, 900.0], 0.9)
                .token_bucket(600.0, 1200.0),
            // A chain that flips often, a long ladder, no bucket.
            ImpairmentPlan::builder(5)
                .gilbert_loss(0.45, 0.5, 1.0, 0.0)
                .link_bandwidth(vec![50.0, 100.0, 200.0, 400.0, 800.0, 1600.0], 0.3),
            // Memoryless loss and a one-level ladder: nothing to step.
            ImpairmentPlan::builder(42).uniform_loss(0.3).link_bandwidth(vec![300.0], 0.5),
            // Burst loss alone; shaping passes through.
            ImpairmentPlan::builder(7).gilbert_loss(0.05, 0.25, 0.8, 0.02),
            // A two-level ladder alone (both ends are reflecting).
            ImpairmentPlan::builder(8).link_bandwidth(vec![100.0, 700.0], 0.6),
        ];
        for (i, plan) in plans.into_iter().enumerate() {
            assert_shaper_answers_like_the_seek(&plan.build().unwrap(), 1000 + i as u64);
        }
    }

    /// What a stepping answer costs: the engine's access pattern — one
    /// link, every epoch — keeps the memo's chains one transition behind
    /// the query except at a regeneration boundary or after a switch.
    #[test]
    fn shaper_follows_one_link_and_forgets_it_on_a_switch() {
        let plan = ImpairmentPlan::builder(3)
            .gilbert_loss(0.05, 0.25, 0.8, 0.02)
            .link_bandwidth(vec![100.0, 500.0, 900.0], 0.9)
            .build()
            .unwrap();
        let mut shaper = LinkShaper::new();
        for epoch in 0..10 {
            shaper.is_lost(&plan, 4, 1, epoch);
            shaper.shape(&plan, 4, 1, epoch, 640.0);
        }
        let memo = shaper.memo.expect("a Markov plan is remembered");
        assert_eq!(memo.key, (3, 4, 1));
        assert_eq!(memo.seed, link_seed(3, 4, 1));
        assert_eq!(memo.loss.map(|(at, _)| at), Some(9));
        assert_eq!(memo.ladder.map(|(at, _)| at), Some(9));
        // Another helper is another link: both chains start over.
        shaper.is_lost(&plan, 4, 2, 10);
        let memo = shaper.memo.expect("still a Markov plan");
        assert_eq!((memo.key, memo.ladder), ((3, 4, 2), None));
        // Memoryless loss keeps the epoch's decision, and nothing else.
        let mut plain = LinkShaper::new();
        let uniform = ImpairmentPlan::builder(1).uniform_loss(0.2).token_bucket(300.0, 900.0);
        let uniform = uniform.build().unwrap();
        let lost = plain.is_lost(&uniform, 0, 0, 0);
        plain.shape(&uniform, 0, 0, 0, 640.0);
        let memo = plain.memo.expect("a loss decision is remembered");
        assert_eq!((memo.loss, memo.ladder), (Some((0, (false, lost))), None));
        // A plan with neither loss nor a ladder leaves no memo at all.
        let mut plain = LinkShaper::new();
        let bucket = ImpairmentPlan::builder(1).token_bucket(300.0, 900.0).build().unwrap();
        assert!(!plain.is_lost(&bucket, 0, 0, 0));
        plain.shape(&bucket, 0, 0, 0, 640.0);
        assert!(plain.memo.is_none());
    }

    // One rejection test per out-of-range field.

    #[test]
    fn rejects_uniform_loss_above_one() {
        let err = ImpairmentPlan::builder(0).uniform_loss(1.5).build().unwrap_err();
        assert_eq!(err.field(), "loss.loss");
    }

    #[test]
    fn rejects_negative_uniform_loss() {
        let err = ImpairmentPlan::builder(0).uniform_loss(-0.1).build().unwrap_err();
        assert_eq!(err.field(), "loss.loss");
    }

    #[test]
    fn rejects_gilbert_p_enter_bad() {
        let err =
            ImpairmentPlan::builder(0).gilbert_loss(1.2, 0.5, 0.5, 0.0).build().unwrap_err();
        assert_eq!(err.field(), "loss.p_enter_bad");
    }

    #[test]
    fn rejects_gilbert_p_exit_bad() {
        let err =
            ImpairmentPlan::builder(0).gilbert_loss(0.2, -0.5, 0.5, 0.0).build().unwrap_err();
        assert_eq!(err.field(), "loss.p_exit_bad");
    }

    #[test]
    fn rejects_gilbert_bad_loss() {
        let err = ImpairmentPlan::builder(0)
            .gilbert_loss(0.2, 0.5, f64::NAN, 0.0)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "loss.bad_loss");
    }

    #[test]
    fn rejects_gilbert_good_loss() {
        let err =
            ImpairmentPlan::builder(0).gilbert_loss(0.2, 0.5, 0.5, 2.0).build().unwrap_err();
        assert_eq!(err.field(), "loss.good_loss");
    }

    #[test]
    fn rejects_nonpositive_bucket_rate() {
        let err = ImpairmentPlan::builder(0).token_bucket(0.0, 100.0).build().unwrap_err();
        assert_eq!(err.field(), "token_bucket.rate_kbps");
    }

    #[test]
    fn rejects_nonpositive_bucket_burst() {
        let err = ImpairmentPlan::builder(0).token_bucket(100.0, -5.0).build().unwrap_err();
        assert_eq!(err.field(), "token_bucket.burst_kbits");
    }

    #[test]
    fn rejects_empty_bandwidth_ladder() {
        let err = ImpairmentPlan::builder(0).link_bandwidth(vec![], 0.9).build().unwrap_err();
        assert_eq!(err.field(), "link_bandwidth.levels");
    }

    #[test]
    fn rejects_negative_bandwidth_level() {
        let err = ImpairmentPlan::builder(0)
            .link_bandwidth(vec![100.0, -1.0], 0.9)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "link_bandwidth.levels");
    }

    #[test]
    fn rejects_bandwidth_stay_of_one() {
        let err =
            ImpairmentPlan::builder(0).link_bandwidth(vec![100.0], 1.0).build().unwrap_err();
        assert_eq!(err.field(), "link_bandwidth.stay");
    }
}
