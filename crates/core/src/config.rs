//! Learner configuration.
//!
//! Mapping to the paper's Table 1 notation:
//!
//! | Symbol | Field | Meaning |
//! |--------|-------|---------|
//! | `ε`    | [`RthsConfig::epsilon`] | constant step size of the recency-weighted average |
//! | `δ`    | [`RthsConfig::delta`]   | exploration mass mixed into every action |
//! | `μ`    | [`RthsConfig::mu`]      | normalisation constant scaling regret into probability |
//! | `mⁿ`   | [`RthsConfig::num_actions`] | number of available actions (helpers) |
//! | `Qⁿ(a,b)` | learner state | regret for not having played `b` instead of `a` |
//! | `pⁿ`   | learner state | the peer's mixed strategy at stage `n` |

use std::fmt;

/// How past utilities are averaged into regret estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecencyMode {
    /// Exponentially recency-weighted averaging with step `ε`
    /// (Eqs. 3-2/3-3): the *tracking* behaviour that adapts to
    /// non-stationary helper bandwidth. **Default.**
    #[default]
    Exponential,
    /// The paper's Eq. (3-5) taken literally: the proxy matrix `T` is
    /// never discounted. `ε·T` then grows without bound, so regret
    /// estimates saturate the probability clip. Kept to document the
    /// equation's missing discount and for negative tests.
    PaperLiteral,
    /// Uniform `1/n` averaging — plain regret *matching* (Hart &
    /// Mas-Colell). No tracking; the ablation baseline.
    Uniform,
}

/// Configuration shared by all learners in this crate.
#[derive(Debug, Clone, PartialEq)]
pub struct RthsConfig {
    num_actions: usize,
    epsilon: f64,
    delta: f64,
    mu: f64,
    recency: RecencyMode,
    conditional: bool,
}

/// Errors from configuration validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_actions` was zero.
    NoActions,
    /// `epsilon` outside `(0, 1]`.
    BadEpsilon,
    /// `delta` outside `(0, 1)`.
    BadDelta,
    /// `mu` not strictly positive and finite.
    BadMu,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoActions => write!(f, "learner needs at least one action"),
            ConfigError::BadEpsilon => write!(f, "epsilon must be in (0, 1]"),
            ConfigError::BadDelta => write!(f, "delta must be in (0, 1)"),
            ConfigError::BadMu => write!(f, "mu must be positive and finite"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl RthsConfig {
    /// Starts a builder with defaults `ε = 0.01`, `δ = 0.1`, `μ = 1280`
    /// (4× the 320 kbps fair share of the paper's N=10/H=4 evaluation).
    pub fn builder(num_actions: usize) -> RthsConfigBuilder {
        RthsConfigBuilder {
            num_actions,
            epsilon: 0.01,
            delta: 0.1,
            mu: 1280.0,
            recency: RecencyMode::Exponential,
            conditional: false,
        }
    }

    /// Number of actions `m` (available helpers).
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Step size `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Exploration parameter `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Normalisation constant `μ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Averaging mode.
    pub fn recency(&self) -> RecencyMode {
        self.recency
    }

    /// Whether conditional-regret normalisation is enabled.
    ///
    /// The proxy regrets of Eqs. (3-2)/(3-3) are *unconditional*: the
    /// regret row of an action `j` is implicitly weighted by the
    /// frequency with which `j` is played, so rarely-played actions carry
    /// near-zero regret — yet the Hart–Mas-Colell update parks all
    /// residual probability on the *last played* action. After an abrupt
    /// environment change (helper failure) this combination makes peers
    /// repeatedly flip back to a dead action. With this extension enabled
    /// the probability update divides row `j` by the (recency-weighted)
    /// empirical frequency of playing `j`, recovering Hart &
    /// Mas-Colell's *conditional* regret and fast evacuation. Off by
    /// default (paper-faithful); used by the failure-recovery ablation.
    pub fn conditional(&self) -> bool {
        self.conditional
    }

    /// Returns a copy with a different action count (used when helpers
    /// join or leave), keeping all other parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoActions`] if `num_actions == 0`.
    pub(crate) fn with_num_actions(&self, num_actions: usize) -> Result<Self, ConfigError> {
        if num_actions == 0 {
            return Err(ConfigError::NoActions);
        }
        Ok(Self { num_actions, ..self.clone() })
    }
}

/// Builder for [`RthsConfig`].
#[derive(Debug, Clone)]
pub struct RthsConfigBuilder {
    num_actions: usize,
    epsilon: f64,
    delta: f64,
    mu: f64,
    recency: RecencyMode,
    conditional: bool,
}

impl RthsConfigBuilder {
    /// Sets the step size `ε ∈ (0, 1]`.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the exploration parameter `δ ∈ (0, 1)`.
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the normalisation constant `μ > 0`.
    pub fn mu(mut self, mu: f64) -> Self {
        self.mu = mu;
        self
    }

    /// Sets the averaging mode.
    pub fn recency(mut self, recency: RecencyMode) -> Self {
        self.recency = recency;
        self
    }

    /// Enables conditional-regret normalisation (see
    /// [`RthsConfig::conditional`]).
    pub fn conditional(mut self, conditional: bool) -> Self {
        self.conditional = conditional;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ConfigError`].
    pub fn build(self) -> Result<RthsConfig, ConfigError> {
        if self.num_actions == 0 {
            return Err(ConfigError::NoActions);
        }
        if !(self.epsilon > 0.0 && self.epsilon <= 1.0) {
            return Err(ConfigError::BadEpsilon);
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(ConfigError::BadDelta);
        }
        if !(self.mu > 0.0 && self.mu.is_finite()) {
            return Err(ConfigError::BadMu);
        }
        Ok(RthsConfig {
            num_actions: self.num_actions,
            epsilon: self.epsilon,
            delta: self.delta,
            mu: self.mu,
            recency: self.recency,
            conditional: self.conditional,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let c = RthsConfig::builder(4).build().unwrap();
        assert_eq!(c.num_actions(), 4);
        assert_eq!(c.epsilon(), 0.01);
        assert_eq!(c.delta(), 0.1);
        assert_eq!(c.mu(), 1280.0);
        assert_eq!(c.recency(), RecencyMode::Exponential);
        assert!(!c.conditional());
    }

    #[test]
    fn for_rate_scale_scales_mu() {
        // The default μ is 4× the paper's 320 kbps fair share.
        let c = RthsConfig::builder(3).build().unwrap();
        assert_eq!(c.mu(), 4.0 * 320.0);
    }

    #[test]
    fn conditional_flag_round_trips() {
        let c = RthsConfig::builder(2).conditional(true).build().unwrap();
        assert!(c.conditional());
        assert!(c.with_num_actions(5).unwrap().conditional());
    }

    #[test]
    fn validation_catches_each_field() {
        assert_eq!(RthsConfig::builder(0).build().unwrap_err(), ConfigError::NoActions);
        assert_eq!(
            RthsConfig::builder(2).epsilon(0.0).build().unwrap_err(),
            ConfigError::BadEpsilon
        );
        assert_eq!(
            RthsConfig::builder(2).epsilon(1.5).build().unwrap_err(),
            ConfigError::BadEpsilon
        );
        assert_eq!(
            RthsConfig::builder(2).delta(0.0).build().unwrap_err(),
            ConfigError::BadDelta
        );
        assert_eq!(
            RthsConfig::builder(2).delta(1.0).build().unwrap_err(),
            ConfigError::BadDelta
        );
        assert_eq!(RthsConfig::builder(2).mu(0.0).build().unwrap_err(), ConfigError::BadMu);
        assert_eq!(
            RthsConfig::builder(2).mu(f64::INFINITY).build().unwrap_err(),
            ConfigError::BadMu
        );
    }

    #[test]
    fn with_num_actions_preserves_parameters() {
        let c = RthsConfig::builder(4).epsilon(0.1).delta(0.05).mu(100.0).build().unwrap();
        let c2 = c.with_num_actions(7).unwrap();
        assert_eq!(c2.num_actions(), 7);
        assert_eq!(c2.epsilon(), 0.1);
        assert_eq!(c2.delta(), 0.05);
        assert_eq!(c2.mu(), 100.0);
        assert_eq!(c.with_num_actions(0).unwrap_err(), ConfigError::NoActions);
    }

    #[test]
    fn error_messages_are_lowercase() {
        for e in [
            ConfigError::NoActions,
            ConfigError::BadEpsilon,
            ConfigError::BadDelta,
            ConfigError::BadMu,
        ] {
            let msg = e.to_string();
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
    }

    #[test]
    fn recency_default_is_exponential() {
        assert_eq!(RecencyMode::default(), RecencyMode::Exponential);
    }
}
