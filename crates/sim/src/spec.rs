//! Declarative scenario specifications: one versioned, validated,
//! TOML-loadable description of an entire experiment.
//!
//! A [`ScenarioSpec`] composes the four axes that were previously spread
//! over [`crate::Scenario`] factory methods, free-function workloads,
//! fault plans, and ad-hoc bench configs:
//!
//! 1. **Population** — either a single-channel swarm (peer count, helper
//!    bandwidth groups, demand, churn, learner) or a multi-channel
//!    deployment (channels, bitrate, viewers, Zipf popularity,
//!    allocation policy);
//! 2. **Impairment** — an [`ImpairmentPlan`] (bursty loss, token-bucket
//!    shaping, link bandwidth caps, jitter/latency);
//! 3. **Workload phases** — an ordered list of [`WorkloadPhase`]s
//!    (steady, flash crowd, diurnal, helper failure, popularity shift,
//!    channel surfing);
//! 4. **Determinism** — a single root seed; running the same spec twice
//!    yields bit-identical trajectories.
//!
//! Specs are constructed either programmatically
//! ([`ScenarioSpec::builder`]) or from TOML ([`ScenarioSpec::from_toml_str`],
//! [`ScenarioSpec::load`]); both paths run the same validation and
//! surface [`ScenarioError`]s instead of panicking. Serialization
//! ([`ScenarioSpec::to_toml_string`]) round-trips exactly:
//! `from_toml_str(to_toml_string(s)) == s`.
//!
//! ```
//! use rths_sim::ScenarioSpec;
//!
//! let spec = ScenarioSpec::from_toml_str(r#"
//!     version = 1
//!     name = "smoke"
//!     seed = 7
//!
//!     [population]
//!     peers = 10
//!     demand = 380.0
//!
//!     [[population.helpers]]
//!     count = 4
//!     kind = "paper"
//!     stay = 0.98
//!
//!     [[phase]]
//!     kind = "steady"
//!     epochs = 50
//! "#).unwrap();
//! let report = spec.run();
//! assert_eq!(report.epochs, 50);
//! ```
//!
//! The on-disk catalog lives in `scenarios/*.toml` at the repository
//! root (the "scenario zoo"); `cargo run --release -p rths_bench --bin
//! run_scenario -- <file>` executes one and writes welfare/regret CSVs.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use rths_obs as obs;
use rths_stoch::process::ChurnProcess;
use rths_stoch::rng::{derive_seed, seeded_rng};

use crate::config::{Algorithm, BandwidthSpec, LearnerSpec, SimConfig};
use crate::impairment::{ImpairmentError, ImpairmentPlan, LossModel};
use crate::minitoml::{self, TomlError, Value};
use crate::multichannel::{AllocationPolicy, MultiChannelConfig, MultiChannelSystem};
use crate::system::System;
use crate::workload::WorkloadPhase;

/// The scenario format version this build reads and writes.
pub const SCENARIO_SPEC_VERSION: i64 = 1;

/// Stream id deriving the channel-surf RNG from the root seed.
const SURF_STREAM: u64 = 0x5355_5246; // "SURF"

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a scenario failed to load or validate.
#[derive(Debug)]
pub enum ScenarioError {
    /// The TOML text failed to parse.
    Toml(TomlError),
    /// The `[impairment]` section had an out-of-range field.
    Impairment(ImpairmentError),
    /// A scenario field was missing, mistyped, or out of range.
    Invalid {
        /// Dotted path of the offending field (e.g. `population.peers`).
        path: String,
        /// What the field requires.
        message: String,
    },
    /// The scenario file could not be read.
    Io(std::io::Error),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Toml(e) => write!(f, "scenario TOML: {e}"),
            ScenarioError::Impairment(e) => write!(f, "scenario impairment: {e}"),
            ScenarioError::Invalid { path, message } => {
                write!(f, "scenario field `{path}`: {message}")
            }
            ScenarioError::Io(e) => write!(f, "scenario file: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<TomlError> for ScenarioError {
    fn from(e: TomlError) -> Self {
        ScenarioError::Toml(e)
    }
}

impl From<ImpairmentError> for ScenarioError {
    fn from(e: ImpairmentError) -> Self {
        ScenarioError::Impairment(e)
    }
}

fn invalid(path: impl Into<String>, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid { path: path.into(), message: message.into() }
}

// ---------------------------------------------------------------------------
// Spec data model
// ---------------------------------------------------------------------------

/// Peer churn as an arrival/departure pair (a declarative
/// [`ChurnProcess`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Expected Poisson arrivals per epoch.
    pub arrival: f64,
    /// Per-peer departure probability per epoch.
    pub departure: f64,
}

/// A group of identical helpers.
#[derive(Debug, Clone, PartialEq)]
pub struct HelperGroup {
    /// How many helpers share this bandwidth process.
    pub count: usize,
    /// The bandwidth process each runs.
    pub bandwidth: BandwidthSpec,
}

/// A single-channel population (the paper's §IV system).
#[derive(Debug, Clone, PartialEq)]
pub struct SingleSpec {
    /// Initial peer count.
    pub peers: usize,
    /// Helper groups, flattened in order into the helper list.
    pub helpers: Vec<HelperGroup>,
    /// Per-peer streaming demand (kbps); `None` = unbounded.
    pub demand: Option<f64>,
    /// Churn; `None` = a fixed population.
    pub churn: Option<ChurnSpec>,
    /// Learner configuration for every peer.
    pub learner: LearnerSpec,
}

/// A multi-channel deployment (the paper's setting), mapping onto
/// [`MultiChannelConfig::standard`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSpec {
    /// Number of channels.
    pub channels: usize,
    /// Per-channel bitrate (kbps).
    pub bitrate: f64,
    /// Helper count.
    pub helpers: usize,
    /// Channels served per helper (staggered assignment).
    pub channels_per_helper: usize,
    /// Total viewers, split over channels by Zipf popularity.
    pub viewers: usize,
    /// Zipf popularity exponent.
    pub zipf_s: f64,
    /// How helpers split capacity across their channels.
    pub allocation: AllocationPolicy,
}

/// Which configuration of the engine a scenario drives.
#[derive(Debug, Clone, PartialEq)]
pub enum PopulationSpec {
    /// One channel: [`System::new`] over a [`SimConfig`].
    Single(SingleSpec),
    /// Many channels: [`MultiChannelSystem::new`] over a
    /// [`MultiChannelConfig`].
    Multi(MultiSpec),
}

/// A complete, validated scenario description. See the [module
/// docs](self) for the TOML schema and construction paths.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    version: i64,
    name: String,
    description: String,
    seed: u64,
    population: PopulationSpec,
    impairment: ImpairmentPlan,
    phases: Vec<WorkloadPhase>,
    /// Enable `rths_obs` tracing for the duration of [`Self::run`]
    /// (bit-exact neutral — see the `rths_obs` determinism contract).
    trace: bool,
}

impl ScenarioSpec {
    /// Starts a programmatic spec with the given name.
    pub fn builder(name: impl Into<String>) -> ScenarioSpecBuilder {
        ScenarioSpecBuilder {
            name: name.into(),
            description: String::new(),
            seed: 0,
            population: None,
            impairment: ImpairmentPlan::none(),
            phases: Vec::new(),
            trace: false,
        }
    }

    /// Scenario name (also the CSV file-name stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Free-form description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Format version (always [`SCENARIO_SPEC_VERSION`] once validated).
    pub fn version(&self) -> i64 {
        self.version
    }

    /// The population / engine choice.
    pub fn population(&self) -> &PopulationSpec {
        &self.population
    }

    /// The link-impairment plan.
    pub fn impairment(&self) -> &ImpairmentPlan {
        &self.impairment
    }

    /// The ordered workload phases.
    pub fn phases(&self) -> &[WorkloadPhase] {
        &self.phases
    }

    /// Whether [`Self::run`] enables `rths_obs` tracing (the TOML
    /// `trace` key). Tracing is bit-exact neutral: the run's
    /// trajectories are `to_bits`-identical either way.
    pub fn trace(&self) -> bool {
        self.trace
    }

    /// Total epochs over all phases.
    pub fn total_epochs(&self) -> u64 {
        self.phases.iter().map(WorkloadPhase::epochs).sum()
    }

    /// Caps the total epoch budget at `cap` (min 1) by truncating the
    /// phase list — CI smoke runs use this to execute every scenario's
    /// early phases in seconds. Phase-relative event epochs are clamped
    /// into the shortened phase.
    #[must_use]
    pub fn with_epoch_cap(mut self, cap: u64) -> Self {
        let cap = cap.max(1);
        let mut used = 0u64;
        let mut phases = Vec::new();
        for phase in self.phases {
            if used >= cap {
                break;
            }
            let budget = (cap - used).min(phase.epochs());
            used += budget;
            phases.push(clamp_phase(phase, budget));
        }
        self.phases = phases;
        self
    }

    // -- TOML -----------------------------------------------------------

    /// Parses and validates a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] describing the first malformed line,
    /// missing key, unknown key, or out-of-range field.
    pub fn from_toml_str(text: &str) -> Result<Self, ScenarioError> {
        let root = minitoml::parse(text)?;
        let spec = parse_spec(&root)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Reads and parses a spec from a file.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] if the file is unreadable, else as
    /// [`Self::from_toml_str`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(ScenarioError::Io)?;
        Self::from_toml_str(&text)
    }

    /// Serializes the spec to TOML. Round-trips exactly:
    /// `from_toml_str(to_toml_string(s))` reproduces `s` bit-for-bit
    /// (floats use shortest-round-trip formatting).
    pub fn to_toml_string(&self) -> String {
        minitoml::serialize(&self.value_tree())
    }

    // -- Execution ------------------------------------------------------

    /// Runs the scenario to completion and reports per-epoch series.
    ///
    /// When the spec's `trace` flag (or an ambient `RTHS_TRACE` /
    /// [`rths_obs::set_enabled`] state) enables tracing, the global
    /// `rths_obs` registry is reset and named after the scenario;
    /// collect the spans/counters with [`rths_obs::take_report`] after
    /// this returns. Tracing never changes the trajectories — the
    /// `obs_neutrality` suite pins `to_bits` equality.
    pub fn run(&self) -> ScenarioReport {
        let _trace_guard = self.trace.then(|| obs::scoped_enable(true));
        if obs::enabled() {
            obs::begin_run(&self.name);
        }
        let (mut system, zipf_s) = match &self.population {
            // No phase that reads `zipf_s` validates on a single population.
            PopulationSpec::Single(single) => (System::new(self.sim_config(single)), 0.0),
            PopulationSpec::Multi(multi) => {
                let config = MultiChannelConfig::standard(
                    multi.channels,
                    multi.bitrate,
                    multi.helpers,
                    multi.channels_per_helper,
                    multi.viewers,
                    multi.zipf_s,
                    multi.allocation,
                    self.seed,
                );
                (MultiChannelSystem::new(config).into_engine(), multi.zipf_s)
            }
        };
        let mut surf_rng = seeded_rng(derive_seed(self.seed, SURF_STREAM));
        for phase in &self.phases {
            phase.run(&mut system, zipf_s, &mut surf_rng);
        }
        let metrics = system.metrics();
        ScenarioReport {
            name: self.name.clone(),
            epochs: system.epoch(),
            welfare: metrics.welfare.values().to_vec(),
            server_load: metrics.server_load.values().to_vec(),
            worst_empirical_regret: metrics.worst_empirical_regret.values().to_vec(),
            worst_regret_estimate: metrics.worst_regret_estimate.values().to_vec(),
            population: metrics.population.values().to_vec(),
            final_population: system.num_peers(),
        }
    }

    /// The [`SimConfig`] a single-channel scenario runs under.
    fn sim_config(&self, single: &SingleSpec) -> SimConfig {
        let helpers: Vec<BandwidthSpec> = single
            .helpers
            .iter()
            .flat_map(|g| std::iter::repeat_n(g.bandwidth.clone(), g.count))
            .collect();
        let mut builder = SimConfig::builder(single.peers, helpers)
            .seed(self.seed)
            .learner(single.learner.clone())
            .impairment(self.impairment.clone());
        if let Some(demand) = single.demand {
            builder = builder.demand(demand);
        }
        if let Some(churn) = single.churn {
            builder = builder.churn(ChurnProcess::new(churn.arrival, churn.departure));
        }
        builder.build()
    }

    // -- Validation -----------------------------------------------------

    fn validate(&self) -> Result<(), ScenarioError> {
        if self.version != SCENARIO_SPEC_VERSION {
            return Err(invalid(
                "version",
                format!(
                    "unsupported version {} (this build reads {SCENARIO_SPEC_VERSION})",
                    self.version
                ),
            ));
        }
        if self.name.is_empty()
            || !self
                .name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
        {
            return Err(invalid(
                "name",
                "must be non-empty [a-z0-9_-] (it names output files)",
            ));
        }
        if self.seed > i64::MAX as u64 {
            return Err(invalid("seed", "must fit a TOML integer (≤ 2^63 − 1)"));
        }
        if self.phases.is_empty() {
            return Err(invalid("phase", "at least one [[phase]] is required"));
        }
        match &self.population {
            PopulationSpec::Single(s) => validate_single(s)?,
            PopulationSpec::Multi(m) => {
                validate_multi(m)?;
                if !self.impairment.is_none() {
                    return Err(invalid(
                        "impairment",
                        "impairments are only wired into single-channel populations",
                    ));
                }
            }
        }
        validate_impairment_serializable(&self.impairment)?;
        for (i, phase) in self.phases.iter().enumerate() {
            validate_phase(phase, i, &self.population)?;
        }
        Ok(())
    }

    // -- Serialization tree ---------------------------------------------

    fn value_tree(&self) -> BTreeMap<String, Value> {
        let mut root = BTreeMap::new();
        root.insert("version".into(), Value::Int(self.version));
        root.insert("name".into(), Value::Str(self.name.clone()));
        if !self.description.is_empty() {
            root.insert("description".into(), Value::Str(self.description.clone()));
        }
        root.insert("seed".into(), Value::Int(self.seed as i64));
        match &self.population {
            PopulationSpec::Single(s) => {
                root.insert("population".into(), Value::Table(single_tree(s)));
            }
            PopulationSpec::Multi(m) => {
                root.insert("multichannel".into(), Value::Table(multi_tree(m)));
            }
        }
        // Compared against the default plan, not `is_none()`: an inert
        // plan with a non-zero seed must keep that seed through a round
        // trip even though it decides nothing.
        if self.impairment != ImpairmentPlan::none() {
            root.insert("impairment".into(), Value::Table(impairment_tree(&self.impairment)));
        }
        if self.trace {
            root.insert("trace".into(), Value::Bool(true));
        }
        let phases: Vec<Value> =
            self.phases.iter().map(|p| Value::Table(phase_tree(p))).collect();
        root.insert("phase".into(), Value::Array(phases));
        root
    }
}

/// Per-epoch series a scenario run produces — the CSV payload of the
/// `run_scenario` bin.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (CSV file-name stem).
    pub name: String,
    /// Epochs executed.
    pub epochs: u64,
    /// Total delivered rate per epoch.
    pub welfare: Vec<f64>,
    /// Server load per epoch.
    pub server_load: Vec<f64>,
    /// Worst empirical (true time-averaged) regret per epoch.
    pub worst_empirical_regret: Vec<f64>,
    /// Worst internal regret estimate per epoch (empty for
    /// multi-channel runs, which don't track the estimator).
    pub worst_regret_estimate: Vec<f64>,
    /// Online population per epoch.
    pub population: Vec<f64>,
    /// Peers/viewers at the end.
    pub final_population: usize,
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Programmatic [`ScenarioSpec`] construction; finish with
/// [`build`](ScenarioSpecBuilder::build).
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    name: String,
    description: String,
    seed: u64,
    population: Option<PopulationSpec>,
    impairment: ImpairmentPlan,
    phases: Vec<WorkloadPhase>,
    trace: bool,
}

impl ScenarioSpecBuilder {
    /// Sets the free-form description.
    #[must_use]
    pub fn description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Sets the root seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Declares a single-channel population of `peers` peers and the
    /// given `(count, bandwidth)` helper groups.
    #[must_use]
    pub fn single(mut self, peers: usize, helpers: Vec<(usize, BandwidthSpec)>) -> Self {
        self.population = Some(PopulationSpec::Single(SingleSpec {
            peers,
            helpers: helpers
                .into_iter()
                .map(|(count, bandwidth)| HelperGroup { count, bandwidth })
                .collect(),
            demand: None,
            churn: None,
            learner: LearnerSpec::default(),
        }));
        self
    }

    /// Declares a multi-channel population (see [`MultiSpec`]).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn multichannel(
        mut self,
        channels: usize,
        bitrate: f64,
        helpers: usize,
        channels_per_helper: usize,
        viewers: usize,
        zipf_s: f64,
    ) -> Self {
        self.population = Some(PopulationSpec::Multi(MultiSpec {
            channels,
            bitrate,
            helpers,
            channels_per_helper,
            viewers,
            zipf_s,
            allocation: AllocationPolicy::default(),
        }));
        self
    }

    /// Sets per-peer demand (single-channel; call after [`Self::single`]).
    #[must_use]
    pub fn demand(mut self, demand: f64) -> Self {
        if let Some(PopulationSpec::Single(s)) = &mut self.population {
            s.demand = Some(demand);
        }
        self
    }

    /// Sets churn (single-channel; call after [`Self::single`]).
    #[must_use]
    pub fn churn(mut self, arrival: f64, departure: f64) -> Self {
        if let Some(PopulationSpec::Single(s)) = &mut self.population {
            s.churn = Some(ChurnSpec { arrival, departure });
        }
        self
    }

    /// Sets the learner spec (single-channel; call after [`Self::single`]).
    #[must_use]
    pub fn learner(mut self, learner: LearnerSpec) -> Self {
        if let Some(PopulationSpec::Single(s)) = &mut self.population {
            s.learner = learner;
        }
        self
    }

    /// Sets the allocation policy (multi-channel; call after
    /// [`Self::multichannel`]).
    #[must_use]
    pub fn allocation(mut self, allocation: AllocationPolicy) -> Self {
        if let Some(PopulationSpec::Multi(m)) = &mut self.population {
            m.allocation = allocation;
        }
        self
    }

    /// Sets the link-impairment plan (default none).
    #[must_use]
    pub fn impairment(mut self, plan: ImpairmentPlan) -> Self {
        self.impairment = plan;
        self
    }

    /// Appends a workload phase.
    #[must_use]
    pub fn phase(mut self, phase: WorkloadPhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Enables `rths_obs` tracing for [`ScenarioSpec::run`] (default
    /// off). Tracing is bit-exact neutral.
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] naming the first invalid field.
    pub fn build(self) -> Result<ScenarioSpec, ScenarioError> {
        let population = self
            .population
            .ok_or_else(|| invalid("population", "declare single() or multichannel()"))?;
        let spec = ScenarioSpec {
            version: SCENARIO_SPEC_VERSION,
            name: self.name,
            description: self.description,
            seed: self.seed,
            population,
            impairment: self.impairment,
            phases: self.phases,
            trace: self.trace,
        };
        spec.validate()?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Validation helpers
// ---------------------------------------------------------------------------

fn validate_single(s: &SingleSpec) -> Result<(), ScenarioError> {
    if s.peers == 0 {
        return Err(invalid("population.peers", "must be ≥ 1"));
    }
    if s.helpers.is_empty() {
        return Err(invalid("population.helpers", "at least one helper group is required"));
    }
    for (i, group) in s.helpers.iter().enumerate() {
        if group.count == 0 {
            return Err(invalid(format!("population.helpers[{i}].count"), "must be ≥ 1"));
        }
    }
    if let Some(demand) = s.demand {
        if !(demand.is_finite() && demand > 0.0) {
            return Err(invalid("population.demand", "must be positive and finite"));
        }
    }
    if let Some(churn) = s.churn {
        if !(churn.arrival.is_finite() && churn.arrival >= 0.0) {
            return Err(invalid("population.churn.arrival", "must be ≥ 0 and finite"));
        }
        if !(0.0..=1.0).contains(&churn.departure) {
            return Err(invalid("population.churn.departure", "must be in [0, 1]"));
        }
    }
    let l = &s.learner;
    if !(l.epsilon.is_finite() && l.epsilon > 0.0) {
        return Err(invalid("population.learner.epsilon", "must be positive and finite"));
    }
    if !(0.0..=1.0).contains(&l.delta) {
        return Err(invalid("population.learner.delta", "must be in [0, 1]"));
    }
    if let Some(mu) = l.mu {
        if !(mu.is_finite() && mu > 0.0) {
            return Err(invalid("population.learner.mu", "must be positive and finite"));
        }
    }
    Ok(())
}

fn validate_multi(m: &MultiSpec) -> Result<(), ScenarioError> {
    if m.channels == 0 {
        return Err(invalid("multichannel.channels", "must be ≥ 1"));
    }
    if !(m.bitrate.is_finite() && m.bitrate > 0.0) {
        return Err(invalid("multichannel.bitrate", "must be positive and finite"));
    }
    if m.helpers == 0 {
        return Err(invalid("multichannel.helpers", "must be ≥ 1"));
    }
    if m.channels_per_helper == 0 || m.channels_per_helper > m.channels {
        return Err(invalid("multichannel.channels_per_helper", "must be in [1, channels]"));
    }
    if m.viewers == 0 {
        return Err(invalid("multichannel.viewers", "must be ≥ 1"));
    }
    if !(m.zipf_s.is_finite() && m.zipf_s >= 0.0) {
        return Err(invalid("multichannel.zipf_s", "must be ≥ 0 and finite"));
    }
    Ok(())
}

/// TOML integers are i64; reject plans whose u64 fields would not
/// survive a serialize→parse cycle.
fn validate_impairment_serializable(plan: &ImpairmentPlan) -> Result<(), ScenarioError> {
    if plan.seed() > i64::MAX as u64 {
        return Err(invalid("impairment.seed", "must fit a TOML integer (≤ 2^63 − 1)"));
    }
    if plan.jitter_us() > i64::MAX as u64 {
        return Err(invalid("impairment.jitter_us", "must fit a TOML integer (≤ 2^63 − 1)"));
    }
    if let Some(latency) = plan.latency() {
        if latency.ticks.iter().any(|&t| t > i64::MAX as u64) {
            return Err(invalid(
                "impairment.latency.ticks",
                "every tick must fit a TOML integer (≤ 2^63 − 1)",
            ));
        }
    }
    Ok(())
}

fn validate_phase(
    phase: &WorkloadPhase,
    index: usize,
    population: &PopulationSpec,
) -> Result<(), ScenarioError> {
    let at = |field: &str| format!("phase[{index}].{field}");
    if phase.epochs() == 0 {
        return Err(invalid(at("epochs"), "must be ≥ 1"));
    }
    match population {
        PopulationSpec::Single(s) => {
            if phase.is_multichannel() {
                return Err(invalid(
                    at("kind"),
                    "multi-channel phase in a single-channel scenario",
                ));
            }
            if let WorkloadPhase::HelperFailure { helpers, .. } = phase {
                let total: usize = s.helpers.iter().map(|g| g.count).sum();
                if helpers.is_empty() {
                    return Err(invalid(at("helpers"), "must name at least one helper"));
                }
                if let Some(&bad) = helpers.iter().find(|&&h| h >= total) {
                    return Err(invalid(
                        at("helpers"),
                        format!("helper index {bad} out of range (scenario has {total})"),
                    ));
                }
            }
        }
        PopulationSpec::Multi(m) => {
            match phase {
                WorkloadPhase::Steady { .. }
                | WorkloadPhase::PopularityShift { .. }
                | WorkloadPhase::ChannelSurf { .. } => {}
                _ => {
                    return Err(invalid(
                        at("kind"),
                        "only steady/popularity_shift/channel_surf run on a multi-channel scenario",
                    ));
                }
            }
            if let WorkloadPhase::PopularityShift { from, to, .. } = phase {
                if *from >= m.channels || *to >= m.channels {
                    return Err(invalid(
                        at("from/to"),
                        format!("channel out of range (scenario has {})", m.channels),
                    ));
                }
            }
        }
    }
    match phase {
        WorkloadPhase::FlashCrowd { epochs, start, end, surge } => {
            if !(start <= end && end <= epochs) {
                return Err(invalid(at("start/end"), "need start ≤ end ≤ epochs"));
            }
            if !(surge.is_finite() && *surge >= 1.0) {
                return Err(invalid(at("surge"), "must be ≥ 1 and finite"));
            }
        }
        WorkloadPhase::Diurnal { period, amplitude, .. } => {
            if *period == 0 {
                return Err(invalid(at("period"), "must be ≥ 1"));
            }
            if !(amplitude.is_finite() && *amplitude >= 0.0) {
                return Err(invalid(at("amplitude"), "must be ≥ 0 and finite"));
            }
        }
        WorkloadPhase::PopularityShift { epochs, at: shift_at, .. } if shift_at > epochs => {
            return Err(invalid(at("at"), "must be ≤ epochs"));
        }
        WorkloadPhase::ChannelSurf { period, .. } if *period == 0 => {
            return Err(invalid(at("period"), "must be ≥ 1"));
        }
        _ => {}
    }
    Ok(())
}

/// Shrinks a phase to `epochs`, clamping phase-relative event epochs.
fn clamp_phase(phase: WorkloadPhase, epochs: u64) -> WorkloadPhase {
    match phase {
        WorkloadPhase::Steady { .. } => WorkloadPhase::Steady { epochs },
        WorkloadPhase::FlashCrowd { start, end, surge, .. } => WorkloadPhase::FlashCrowd {
            epochs,
            start: start.min(epochs),
            end: end.min(epochs),
            surge,
        },
        WorkloadPhase::Diurnal { period, amplitude, .. } => {
            WorkloadPhase::Diurnal { epochs, period, amplitude }
        }
        WorkloadPhase::HelperFailure { helpers, online, .. } => {
            WorkloadPhase::HelperFailure { epochs, helpers, online }
        }
        WorkloadPhase::PopularityShift { at, from, to, count, .. } => {
            WorkloadPhase::PopularityShift { epochs, at: at.min(epochs), from, to, count }
        }
        WorkloadPhase::ChannelSurf { period, moves, .. } => {
            WorkloadPhase::ChannelSurf { epochs, period, moves }
        }
    }
}

// ---------------------------------------------------------------------------
// TOML parsing
// ---------------------------------------------------------------------------

type Tbl = BTreeMap<String, Value>;

fn check_keys(tbl: &Tbl, path: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    for key in tbl.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(invalid(
                format!("{path}{}{key}", if path.is_empty() { "" } else { "." }),
                format!("unknown key (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn req<'a>(tbl: &'a Tbl, path: &str, key: &str) -> Result<&'a Value, ScenarioError> {
    tbl.get(key).ok_or_else(|| invalid(format!("{path}.{key}"), "missing required key"))
}

fn as_str(v: &Value, path: &str) -> Result<String, ScenarioError> {
    v.as_str().map(str::to_owned).ok_or_else(|| invalid(path, "expected a string"))
}

fn as_f64(v: &Value, path: &str) -> Result<f64, ScenarioError> {
    v.as_float().ok_or_else(|| invalid(path, "expected a number"))
}

fn as_u64(v: &Value, path: &str) -> Result<u64, ScenarioError> {
    match v.as_int() {
        Some(i) if i >= 0 => Ok(i as u64),
        _ => Err(invalid(path, "expected a non-negative integer")),
    }
}

fn as_usize(v: &Value, path: &str) -> Result<usize, ScenarioError> {
    as_u64(v, path).map(|u| u as usize)
}

fn as_bool(v: &Value, path: &str) -> Result<bool, ScenarioError> {
    v.as_bool().ok_or_else(|| invalid(path, "expected a boolean"))
}

fn as_tbl<'a>(v: &'a Value, path: &str) -> Result<&'a Tbl, ScenarioError> {
    v.as_table().ok_or_else(|| invalid(path, "expected a table"))
}

fn as_f64_array(v: &Value, path: &str) -> Result<Vec<f64>, ScenarioError> {
    let items = v.as_array().ok_or_else(|| invalid(path, "expected an array"))?;
    items.iter().enumerate().map(|(i, item)| as_f64(item, &format!("{path}[{i}]"))).collect()
}

fn as_u64_array(v: &Value, path: &str) -> Result<Vec<u64>, ScenarioError> {
    let items = v.as_array().ok_or_else(|| invalid(path, "expected an array"))?;
    items.iter().enumerate().map(|(i, item)| as_u64(item, &format!("{path}[{i}]"))).collect()
}

fn opt_f64(tbl: &Tbl, path: &str, key: &str) -> Result<Option<f64>, ScenarioError> {
    tbl.get(key).map(|v| as_f64(v, &format!("{path}.{key}"))).transpose()
}

fn opt_u64_or(tbl: &Tbl, path: &str, key: &str, default: u64) -> Result<u64, ScenarioError> {
    match tbl.get(key) {
        Some(v) => as_u64(v, &format!("{path}.{key}")),
        None => Ok(default),
    }
}

fn req_f64(tbl: &Tbl, path: &str, key: &str) -> Result<f64, ScenarioError> {
    as_f64(req(tbl, path, key)?, &format!("{path}.{key}"))
}

fn req_u64(tbl: &Tbl, path: &str, key: &str) -> Result<u64, ScenarioError> {
    as_u64(req(tbl, path, key)?, &format!("{path}.{key}"))
}

fn req_usize(tbl: &Tbl, path: &str, key: &str) -> Result<usize, ScenarioError> {
    as_usize(req(tbl, path, key)?, &format!("{path}.{key}"))
}

fn req_str(tbl: &Tbl, path: &str, key: &str) -> Result<String, ScenarioError> {
    as_str(req(tbl, path, key)?, &format!("{path}.{key}"))
}

fn parse_spec(root: &Tbl) -> Result<ScenarioSpec, ScenarioError> {
    check_keys(
        root,
        "",
        &[
            "version",
            "name",
            "description",
            "seed",
            "population",
            "multichannel",
            "impairment",
            "phase",
            "trace",
        ],
    )?;
    let version = req(root, "", "version")?
        .as_int()
        .ok_or_else(|| invalid("version", "expected an integer"))?;
    let name = req_str(root, "", "name")?;
    let description = match root.get("description") {
        Some(v) => as_str(v, "description")?,
        None => String::new(),
    };
    let seed = opt_u64_or(root, "", "seed", 0)?;
    let trace = match root.get("trace") {
        Some(v) => as_bool(v, "trace")?,
        None => false,
    };

    let population = match (root.get("population"), root.get("multichannel")) {
        (Some(_), Some(_)) => {
            return Err(invalid(
                "population",
                "declare either [population] or [multichannel], not both",
            ));
        }
        (Some(v), None) => PopulationSpec::Single(parse_single(as_tbl(v, "population")?)?),
        (None, Some(v)) => PopulationSpec::Multi(parse_multi(as_tbl(v, "multichannel")?)?),
        (None, None) => {
            return Err(invalid(
                "population",
                "a [population] or [multichannel] table is required",
            ));
        }
    };

    let impairment = match root.get("impairment") {
        Some(v) => parse_impairment(as_tbl(v, "impairment")?)?,
        None => ImpairmentPlan::none(),
    };

    let phases = match root.get("phase") {
        Some(v) => {
            let items =
                v.as_array().ok_or_else(|| invalid("phase", "expected [[phase]] entries"))?;
            items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let path = format!("phase[{i}]");
                    parse_phase(as_tbl(item, &path)?, &path)
                })
                .collect::<Result<Vec<_>, _>>()?
        }
        None => Vec::new(),
    };

    Ok(ScenarioSpec { version, name, description, seed, population, impairment, phases, trace })
}

fn parse_single(tbl: &Tbl) -> Result<SingleSpec, ScenarioError> {
    let path = "population";
    check_keys(tbl, path, &["peers", "demand", "helpers", "churn", "learner"])?;
    let peers = req_usize(tbl, path, "peers")?;
    let demand = opt_f64(tbl, path, "demand")?;
    let helpers = match tbl.get("helpers") {
        Some(v) => {
            let items = v.as_array().ok_or_else(|| {
                invalid("population.helpers", "expected [[population.helpers]] entries")
            })?;
            items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let gpath = format!("population.helpers[{i}]");
                    parse_helper_group(as_tbl(item, &gpath)?, &gpath)
                })
                .collect::<Result<Vec<_>, _>>()?
        }
        None => Vec::new(),
    };
    let churn = match tbl.get("churn") {
        Some(v) => {
            let cpath = "population.churn";
            let ctbl = as_tbl(v, cpath)?;
            check_keys(ctbl, cpath, &["arrival", "departure"])?;
            Some(ChurnSpec {
                arrival: req_f64(ctbl, cpath, "arrival")?,
                departure: req_f64(ctbl, cpath, "departure")?,
            })
        }
        None => None,
    };
    let learner = match tbl.get("learner") {
        Some(v) => parse_learner(as_tbl(v, "population.learner")?)?,
        None => LearnerSpec::default(),
    };
    Ok(SingleSpec { peers, helpers, demand, churn, learner })
}

fn parse_helper_group(tbl: &Tbl, path: &str) -> Result<HelperGroup, ScenarioError> {
    let kind = req_str(tbl, path, "kind")?;
    let bandwidth = match kind.as_str() {
        "paper" => {
            check_keys(tbl, path, &["count", "kind", "stay"])?;
            BandwidthSpec::Paper { stay: req_f64(tbl, path, "stay")? }
        }
        "ladder" => {
            check_keys(tbl, path, &["count", "kind", "levels", "stay"])?;
            BandwidthSpec::Ladder {
                levels: as_f64_array(req(tbl, path, "levels")?, &format!("{path}.levels"))?,
                stay: req_f64(tbl, path, "stay")?,
            }
        }
        "constant" => {
            check_keys(tbl, path, &["count", "kind", "level"])?;
            BandwidthSpec::Constant(req_f64(tbl, path, "level")?)
        }
        "random_walk" => {
            check_keys(
                tbl,
                path,
                &["count", "kind", "initial", "min", "max", "step", "move_prob"],
            )?;
            BandwidthSpec::RandomWalk {
                initial: req_f64(tbl, path, "initial")?,
                min: req_f64(tbl, path, "min")?,
                max: req_f64(tbl, path, "max")?,
                step: req_f64(tbl, path, "step")?,
                move_prob: req_f64(tbl, path, "move_prob")?,
            }
        }
        "gilbert_elliott" => {
            check_keys(tbl, path, &["count", "kind", "good", "bad", "p_gb", "p_bg"])?;
            BandwidthSpec::GilbertElliott {
                good: req_f64(tbl, path, "good")?,
                bad: req_f64(tbl, path, "bad")?,
                p_gb: req_f64(tbl, path, "p_gb")?,
                p_bg: req_f64(tbl, path, "p_bg")?,
            }
        }
        "regime_shift" => {
            check_keys(tbl, path, &["count", "kind", "before", "after", "at"])?;
            BandwidthSpec::RegimeShift {
                before: req_f64(tbl, path, "before")?,
                after: req_f64(tbl, path, "after")?,
                at: req_u64(tbl, path, "at")?,
            }
        }
        "trace" => {
            check_keys(tbl, path, &["count", "kind", "samples"])?;
            BandwidthSpec::Trace(as_f64_array(
                req(tbl, path, "samples")?,
                &format!("{path}.samples"),
            )?)
        }
        other => {
            return Err(invalid(
                format!("{path}.kind"),
                format!(
                    "unknown bandwidth kind `{other}` (expected paper, ladder, constant, \
                     random_walk, gilbert_elliott, regime_shift, trace)"
                ),
            ));
        }
    };
    Ok(HelperGroup { count: req_usize(tbl, path, "count")?, bandwidth })
}

fn parse_learner(tbl: &Tbl) -> Result<LearnerSpec, ScenarioError> {
    let path = "population.learner";
    check_keys(tbl, path, &["algorithm", "epsilon", "delta", "mu", "conditional"])?;
    let default = LearnerSpec::default();
    let algorithm = match tbl.get("algorithm") {
        Some(v) => match as_str(v, &format!("{path}.algorithm"))?.as_str() {
            "rths" => Algorithm::Rths,
            "regret_matching" => Algorithm::RegretMatching,
            "history_rths" => Algorithm::HistoryRths,
            "exp3" => Algorithm::Exp3,
            other => {
                return Err(invalid(
                    format!("{path}.algorithm"),
                    format!(
                        "unknown algorithm `{other}` (expected rths, regret_matching, \
                         history_rths, exp3)"
                    ),
                ));
            }
        },
        None => default.algorithm,
    };
    let epsilon = opt_f64(tbl, path, "epsilon")?.unwrap_or(default.epsilon);
    let delta = opt_f64(tbl, path, "delta")?.unwrap_or(default.delta);
    let mu = opt_f64(tbl, path, "mu")?;
    let conditional = match tbl.get("conditional") {
        Some(v) => as_bool(v, &format!("{path}.conditional"))?,
        None => default.conditional,
    };
    Ok(LearnerSpec { algorithm, epsilon, delta, mu, conditional })
}

fn parse_multi(tbl: &Tbl) -> Result<MultiSpec, ScenarioError> {
    let path = "multichannel";
    check_keys(
        tbl,
        path,
        &[
            "channels",
            "bitrate",
            "helpers",
            "channels_per_helper",
            "viewers",
            "zipf_s",
            "allocation",
        ],
    )?;
    let allocation = match tbl.get("allocation") {
        Some(v) => match as_str(v, &format!("{path}.allocation"))?.as_str() {
            "even_split" => AllocationPolicy::EvenSplit,
            "load_proportional" => AllocationPolicy::LoadProportional,
            "water_filling" => AllocationPolicy::WaterFilling,
            "learned" => AllocationPolicy::Learned,
            other => {
                return Err(invalid(
                    format!("{path}.allocation"),
                    format!(
                        "unknown allocation `{other}` (expected even_split, load_proportional, \
                         water_filling, learned)"
                    ),
                ));
            }
        },
        None => AllocationPolicy::default(),
    };
    Ok(MultiSpec {
        channels: req_usize(tbl, path, "channels")?,
        bitrate: req_f64(tbl, path, "bitrate")?,
        helpers: req_usize(tbl, path, "helpers")?,
        channels_per_helper: req_usize(tbl, path, "channels_per_helper")?,
        viewers: req_usize(tbl, path, "viewers")?,
        zipf_s: req_f64(tbl, path, "zipf_s")?,
        allocation,
    })
}

fn parse_impairment(tbl: &Tbl) -> Result<ImpairmentPlan, ScenarioError> {
    let path = "impairment";
    check_keys(
        tbl,
        path,
        &["seed", "jitter_us", "loss", "token_bucket", "link_bandwidth", "latency"],
    )?;
    let seed = req_u64(tbl, path, "seed")?;
    let mut builder = ImpairmentPlan::builder(seed);
    if let Some(v) = tbl.get("loss") {
        let lpath = "impairment.loss";
        let ltbl = as_tbl(v, lpath)?;
        match req_str(ltbl, lpath, "kind")?.as_str() {
            "uniform" => {
                check_keys(ltbl, lpath, &["kind", "loss"])?;
                builder = builder.uniform_loss(req_f64(ltbl, lpath, "loss")?);
            }
            "gilbert_elliott" => {
                check_keys(
                    ltbl,
                    lpath,
                    &["kind", "p_enter_bad", "p_exit_bad", "bad_loss", "good_loss"],
                )?;
                builder = builder.gilbert_loss(
                    req_f64(ltbl, lpath, "p_enter_bad")?,
                    req_f64(ltbl, lpath, "p_exit_bad")?,
                    req_f64(ltbl, lpath, "bad_loss")?,
                    req_f64(ltbl, lpath, "good_loss")?,
                );
            }
            other => {
                return Err(invalid(
                    format!("{lpath}.kind"),
                    format!("unknown loss kind `{other}` (expected uniform, gilbert_elliott)"),
                ));
            }
        }
    }
    if let Some(v) = tbl.get("token_bucket") {
        let bpath = "impairment.token_bucket";
        let btbl = as_tbl(v, bpath)?;
        check_keys(btbl, bpath, &["rate_kbps", "burst_kbits"])?;
        builder = builder.token_bucket(
            req_f64(btbl, bpath, "rate_kbps")?,
            req_f64(btbl, bpath, "burst_kbits")?,
        );
    }
    if let Some(v) = tbl.get("link_bandwidth") {
        let bpath = "impairment.link_bandwidth";
        let btbl = as_tbl(v, bpath)?;
        check_keys(btbl, bpath, &["levels", "stay"])?;
        builder = builder.link_bandwidth(
            as_f64_array(req(btbl, bpath, "levels")?, &format!("{bpath}.levels"))?,
            req_f64(btbl, bpath, "stay")?,
        );
    }
    if let Some(v) = tbl.get("latency") {
        let lpath = "impairment.latency";
        let ltbl = as_tbl(v, lpath)?;
        check_keys(ltbl, lpath, &["ticks", "stay"])?;
        builder = builder.latency(
            as_u64_array(req(ltbl, lpath, "ticks")?, &format!("{lpath}.ticks"))?,
            req_f64(ltbl, lpath, "stay")?,
        );
    }
    let plan = builder.build()?;
    let jitter_us = opt_u64_or(tbl, path, "jitter_us", 0)?;
    Ok(if jitter_us > 0 { plan.with_jitter(jitter_us) } else { plan })
}

fn parse_phase(tbl: &Tbl, path: &str) -> Result<WorkloadPhase, ScenarioError> {
    let kind = req_str(tbl, path, "kind")?;
    let phase = match kind.as_str() {
        "steady" => {
            check_keys(tbl, path, &["kind", "epochs"])?;
            WorkloadPhase::Steady { epochs: req_u64(tbl, path, "epochs")? }
        }
        "flash_crowd" => {
            check_keys(tbl, path, &["kind", "epochs", "start", "end", "surge"])?;
            WorkloadPhase::FlashCrowd {
                epochs: req_u64(tbl, path, "epochs")?,
                start: req_u64(tbl, path, "start")?,
                end: req_u64(tbl, path, "end")?,
                surge: req_f64(tbl, path, "surge")?,
            }
        }
        "diurnal" => {
            check_keys(tbl, path, &["kind", "epochs", "period", "amplitude"])?;
            WorkloadPhase::Diurnal {
                epochs: req_u64(tbl, path, "epochs")?,
                period: req_u64(tbl, path, "period")?,
                amplitude: req_f64(tbl, path, "amplitude")?,
            }
        }
        "helper_failure" => {
            check_keys(tbl, path, &["kind", "epochs", "helpers", "online"])?;
            let helpers = as_u64_array(req(tbl, path, "helpers")?, &format!("{path}.helpers"))?
                .into_iter()
                .map(|h| h as usize)
                .collect();
            WorkloadPhase::HelperFailure {
                epochs: req_u64(tbl, path, "epochs")?,
                helpers,
                online: as_bool(req(tbl, path, "online")?, &format!("{path}.online"))?,
            }
        }
        "popularity_shift" => {
            check_keys(tbl, path, &["kind", "epochs", "at", "from", "to", "count"])?;
            WorkloadPhase::PopularityShift {
                epochs: req_u64(tbl, path, "epochs")?,
                at: req_u64(tbl, path, "at")?,
                from: req_usize(tbl, path, "from")?,
                to: req_usize(tbl, path, "to")?,
                count: req_usize(tbl, path, "count")?,
            }
        }
        "channel_surf" => {
            check_keys(tbl, path, &["kind", "epochs", "period", "moves"])?;
            WorkloadPhase::ChannelSurf {
                epochs: req_u64(tbl, path, "epochs")?,
                period: req_u64(tbl, path, "period")?,
                moves: req_usize(tbl, path, "moves")?,
            }
        }
        other => {
            return Err(invalid(
                format!("{path}.kind"),
                format!(
                    "unknown phase kind `{other}` (expected steady, flash_crowd, diurnal, \
                     helper_failure, popularity_shift, channel_surf)"
                ),
            ));
        }
    };
    Ok(phase)
}

// ---------------------------------------------------------------------------
// TOML serialization
// ---------------------------------------------------------------------------

fn single_tree(s: &SingleSpec) -> Tbl {
    let mut tbl = BTreeMap::new();
    tbl.insert("peers".into(), Value::Int(s.peers as i64));
    if let Some(demand) = s.demand {
        tbl.insert("demand".into(), Value::Float(demand));
    }
    let groups: Vec<Value> =
        s.helpers.iter().map(|g| Value::Table(helper_group_tree(g))).collect();
    tbl.insert("helpers".into(), Value::Array(groups));
    if let Some(churn) = s.churn {
        let mut ctbl = BTreeMap::new();
        ctbl.insert("arrival".into(), Value::Float(churn.arrival));
        ctbl.insert("departure".into(), Value::Float(churn.departure));
        tbl.insert("churn".into(), Value::Table(ctbl));
    }
    if s.learner != LearnerSpec::default() {
        tbl.insert("learner".into(), Value::Table(learner_tree(&s.learner)));
    }
    tbl
}

fn helper_group_tree(g: &HelperGroup) -> Tbl {
    let mut tbl = BTreeMap::new();
    tbl.insert("count".into(), Value::Int(g.count as i64));
    let kind = |k: &str| Value::Str(k.to_owned());
    match &g.bandwidth {
        BandwidthSpec::Paper { stay } => {
            tbl.insert("kind".into(), kind("paper"));
            tbl.insert("stay".into(), Value::Float(*stay));
        }
        BandwidthSpec::Ladder { levels, stay } => {
            tbl.insert("kind".into(), kind("ladder"));
            tbl.insert("levels".into(), float_array(levels));
            tbl.insert("stay".into(), Value::Float(*stay));
        }
        BandwidthSpec::Constant(level) => {
            tbl.insert("kind".into(), kind("constant"));
            tbl.insert("level".into(), Value::Float(*level));
        }
        BandwidthSpec::RandomWalk { initial, min, max, step, move_prob } => {
            tbl.insert("kind".into(), kind("random_walk"));
            tbl.insert("initial".into(), Value::Float(*initial));
            tbl.insert("min".into(), Value::Float(*min));
            tbl.insert("max".into(), Value::Float(*max));
            tbl.insert("step".into(), Value::Float(*step));
            tbl.insert("move_prob".into(), Value::Float(*move_prob));
        }
        BandwidthSpec::GilbertElliott { good, bad, p_gb, p_bg } => {
            tbl.insert("kind".into(), kind("gilbert_elliott"));
            tbl.insert("good".into(), Value::Float(*good));
            tbl.insert("bad".into(), Value::Float(*bad));
            tbl.insert("p_gb".into(), Value::Float(*p_gb));
            tbl.insert("p_bg".into(), Value::Float(*p_bg));
        }
        BandwidthSpec::RegimeShift { before, after, at } => {
            tbl.insert("kind".into(), kind("regime_shift"));
            tbl.insert("before".into(), Value::Float(*before));
            tbl.insert("after".into(), Value::Float(*after));
            tbl.insert("at".into(), Value::Int(*at as i64));
        }
        BandwidthSpec::Trace(samples) => {
            tbl.insert("kind".into(), kind("trace"));
            tbl.insert("samples".into(), float_array(samples));
        }
    }
    tbl
}

fn learner_tree(l: &LearnerSpec) -> Tbl {
    let mut tbl = BTreeMap::new();
    let algorithm = match l.algorithm {
        Algorithm::Rths => "rths",
        Algorithm::RegretMatching => "regret_matching",
        Algorithm::HistoryRths => "history_rths",
        Algorithm::Exp3 => "exp3",
    };
    tbl.insert("algorithm".into(), Value::Str(algorithm.to_owned()));
    tbl.insert("epsilon".into(), Value::Float(l.epsilon));
    tbl.insert("delta".into(), Value::Float(l.delta));
    if let Some(mu) = l.mu {
        tbl.insert("mu".into(), Value::Float(mu));
    }
    tbl.insert("conditional".into(), Value::Bool(l.conditional));
    tbl
}

fn multi_tree(m: &MultiSpec) -> Tbl {
    let mut tbl = BTreeMap::new();
    tbl.insert("channels".into(), Value::Int(m.channels as i64));
    tbl.insert("bitrate".into(), Value::Float(m.bitrate));
    tbl.insert("helpers".into(), Value::Int(m.helpers as i64));
    tbl.insert("channels_per_helper".into(), Value::Int(m.channels_per_helper as i64));
    tbl.insert("viewers".into(), Value::Int(m.viewers as i64));
    tbl.insert("zipf_s".into(), Value::Float(m.zipf_s));
    let allocation = match m.allocation {
        AllocationPolicy::EvenSplit => "even_split",
        AllocationPolicy::LoadProportional => "load_proportional",
        AllocationPolicy::WaterFilling => "water_filling",
        AllocationPolicy::Learned => "learned",
    };
    tbl.insert("allocation".into(), Value::Str(allocation.to_owned()));
    tbl
}

fn impairment_tree(plan: &ImpairmentPlan) -> Tbl {
    let mut tbl = BTreeMap::new();
    tbl.insert("seed".into(), Value::Int(plan.seed() as i64));
    if plan.jitter_us() > 0 {
        tbl.insert("jitter_us".into(), Value::Int(plan.jitter_us() as i64));
    }
    match plan.loss() {
        LossModel::None => {}
        LossModel::Uniform { loss } => {
            let mut ltbl = BTreeMap::new();
            ltbl.insert("kind".into(), Value::Str("uniform".into()));
            ltbl.insert("loss".into(), Value::Float(*loss));
            tbl.insert("loss".into(), Value::Table(ltbl));
        }
        LossModel::GilbertElliott { p_enter_bad, p_exit_bad, bad_loss, good_loss } => {
            let mut ltbl = BTreeMap::new();
            ltbl.insert("kind".into(), Value::Str("gilbert_elliott".into()));
            ltbl.insert("p_enter_bad".into(), Value::Float(*p_enter_bad));
            ltbl.insert("p_exit_bad".into(), Value::Float(*p_exit_bad));
            ltbl.insert("bad_loss".into(), Value::Float(*bad_loss));
            ltbl.insert("good_loss".into(), Value::Float(*good_loss));
            tbl.insert("loss".into(), Value::Table(ltbl));
        }
    }
    if let Some(bucket) = plan.token_bucket() {
        let mut btbl = BTreeMap::new();
        btbl.insert("rate_kbps".into(), Value::Float(bucket.rate_kbps));
        btbl.insert("burst_kbits".into(), Value::Float(bucket.burst_kbits));
        tbl.insert("token_bucket".into(), Value::Table(btbl));
    }
    if let Some(link) = plan.link_bandwidth() {
        let mut btbl = BTreeMap::new();
        btbl.insert("levels".into(), float_array(&link.levels));
        btbl.insert("stay".into(), Value::Float(link.stay));
        tbl.insert("link_bandwidth".into(), Value::Table(btbl));
    }
    if let Some(latency) = plan.latency() {
        let mut ltbl = BTreeMap::new();
        ltbl.insert(
            "ticks".into(),
            Value::Array(latency.ticks.iter().map(|&t| Value::Int(t as i64)).collect()),
        );
        ltbl.insert("stay".into(), Value::Float(latency.stay));
        tbl.insert("latency".into(), Value::Table(ltbl));
    }
    tbl
}

fn phase_tree(phase: &WorkloadPhase) -> Tbl {
    let mut tbl = BTreeMap::new();
    let kind = |k: &str| Value::Str(k.to_owned());
    match phase {
        WorkloadPhase::Steady { epochs } => {
            tbl.insert("kind".into(), kind("steady"));
            tbl.insert("epochs".into(), Value::Int(*epochs as i64));
        }
        WorkloadPhase::FlashCrowd { epochs, start, end, surge } => {
            tbl.insert("kind".into(), kind("flash_crowd"));
            tbl.insert("epochs".into(), Value::Int(*epochs as i64));
            tbl.insert("start".into(), Value::Int(*start as i64));
            tbl.insert("end".into(), Value::Int(*end as i64));
            tbl.insert("surge".into(), Value::Float(*surge));
        }
        WorkloadPhase::Diurnal { epochs, period, amplitude } => {
            tbl.insert("kind".into(), kind("diurnal"));
            tbl.insert("epochs".into(), Value::Int(*epochs as i64));
            tbl.insert("period".into(), Value::Int(*period as i64));
            tbl.insert("amplitude".into(), Value::Float(*amplitude));
        }
        WorkloadPhase::HelperFailure { epochs, helpers, online } => {
            tbl.insert("kind".into(), kind("helper_failure"));
            tbl.insert("epochs".into(), Value::Int(*epochs as i64));
            tbl.insert(
                "helpers".into(),
                Value::Array(helpers.iter().map(|&h| Value::Int(h as i64)).collect()),
            );
            tbl.insert("online".into(), Value::Bool(*online));
        }
        WorkloadPhase::PopularityShift { epochs, at, from, to, count } => {
            tbl.insert("kind".into(), kind("popularity_shift"));
            tbl.insert("epochs".into(), Value::Int(*epochs as i64));
            tbl.insert("at".into(), Value::Int(*at as i64));
            tbl.insert("from".into(), Value::Int(*from as i64));
            tbl.insert("to".into(), Value::Int(*to as i64));
            tbl.insert("count".into(), Value::Int(*count as i64));
        }
        WorkloadPhase::ChannelSurf { epochs, period, moves } => {
            tbl.insert("kind".into(), kind("channel_surf"));
            tbl.insert("epochs".into(), Value::Int(*epochs as i64));
            tbl.insert("period".into(), Value::Int(*period as i64));
            tbl.insert("moves".into(), Value::Int(*moves as i64));
        }
    }
    tbl
}

fn float_array(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Float(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impairment::LinkShaper;

    fn zoo_like_spec() -> ScenarioSpec {
        ScenarioSpec::builder("unit_zoo")
            .description("builder-made spec")
            .seed(9)
            .single(
                12,
                vec![
                    (3, BandwidthSpec::Paper { stay: 0.98 }),
                    (1, BandwidthSpec::Ladder { levels: vec![400.0, 650.0], stay: 0.9 }),
                ],
            )
            .demand(380.0)
            .churn(1.5, 0.02)
            .impairment(
                ImpairmentPlan::builder(4)
                    .gilbert_loss(0.05, 0.4, 0.8, 0.01)
                    .token_bucket(500.0, 900.0)
                    .build()
                    .unwrap(),
            )
            .phase(WorkloadPhase::Steady { epochs: 40 })
            .phase(WorkloadPhase::FlashCrowd { epochs: 60, start: 10, end: 30, surge: 4.0 })
            .build()
            .unwrap()
    }

    #[test]
    fn builder_and_toml_agree() {
        let spec = zoo_like_spec();
        let text = spec.to_toml_string();
        let reparsed = ScenarioSpec::from_toml_str(&text).unwrap();
        assert_eq!(spec, reparsed, "round-trip mismatch:\n{text}");
    }

    #[test]
    fn multichannel_round_trips() {
        let spec = ScenarioSpec::builder("surf")
            .seed(3)
            .multichannel(4, 350.0, 8, 2, 60, 1.1)
            .allocation(AllocationPolicy::LoadProportional)
            .phase(WorkloadPhase::ChannelSurf { epochs: 30, period: 5, moves: 3 })
            .phase(WorkloadPhase::PopularityShift {
                epochs: 20,
                at: 10,
                from: 0,
                to: 3,
                count: 5,
            })
            .build()
            .unwrap();
        let reparsed = ScenarioSpec::from_toml_str(&spec.to_toml_string()).unwrap();
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn run_matches_direct_system() {
        // A ScenarioSpec run is exactly the equivalent System run.
        let spec = ScenarioSpec::builder("direct")
            .seed(11)
            .single(10, vec![(4, BandwidthSpec::Paper { stay: 0.98 })])
            .demand(380.0)
            .phase(WorkloadPhase::Steady { epochs: 80 })
            .build()
            .unwrap();
        let report = spec.run();
        let config = SimConfig::builder(10, vec![BandwidthSpec::Paper { stay: 0.98 }; 4])
            .seed(11)
            .demand(380.0)
            .build();
        let direct = System::new(config).run(80);
        assert_eq!(report.epochs, 80);
        assert_eq!(report.welfare, direct.metrics.welfare.values());
        assert_eq!(report.server_load, direct.metrics.server_load.values());
    }

    #[test]
    fn impairment_changes_the_run() {
        let base = ScenarioSpec::builder("clean")
            .seed(5)
            .single(10, vec![(4, BandwidthSpec::Paper { stay: 0.98 })])
            .demand(380.0)
            .phase(WorkloadPhase::Steady { epochs: 60 })
            .build()
            .unwrap();
        let impaired = ScenarioSpec::builder("lossy")
            .seed(5)
            .single(10, vec![(4, BandwidthSpec::Paper { stay: 0.98 })])
            .demand(380.0)
            .impairment(
                ImpairmentPlan::builder(2).gilbert_loss(0.2, 0.3, 0.9, 0.0).build().unwrap(),
            )
            .phase(WorkloadPhase::Steady { epochs: 60 })
            .build()
            .unwrap();
        let clean_welfare: f64 = base.run().welfare.iter().sum();
        let lossy_welfare: f64 = impaired.run().welfare.iter().sum();
        assert!(
            lossy_welfare < clean_welfare,
            "bursty loss should cost welfare: {lossy_welfare} vs {clean_welfare}"
        );
    }

    #[test]
    fn epoch_cap_truncates_and_clamps() {
        let spec = zoo_like_spec().with_epoch_cap(50);
        assert_eq!(spec.total_epochs(), 50);
        assert_eq!(
            spec.phases(),
            &[
                WorkloadPhase::Steady { epochs: 40 },
                WorkloadPhase::FlashCrowd { epochs: 10, start: 10, end: 10, surge: 4.0 },
            ]
        );
        // A cap beyond the total is a no-op.
        assert_eq!(zoo_like_spec().with_epoch_cap(1000), zoo_like_spec());
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = ScenarioSpec::from_toml_str(
            "version = 1\nname = \"x\"\n[population]\npeers = 4\npeeers = 4\n\
             [[population.helpers]]\ncount = 1\nkind = \"paper\"\nstay = 0.9\n\
             [[phase]]\nkind = \"steady\"\nepochs = 5\n",
        )
        .unwrap_err();
        match err {
            ScenarioError::Invalid { path, .. } => assert_eq!(path, "population.peeers"),
            other => panic!("expected unknown-key error, got {other}"),
        }
    }

    #[test]
    fn version_and_cross_engine_phases_are_rejected() {
        assert!(matches!(
            ScenarioSpec::from_toml_str(
                "version = 2\nname = \"x\"\n[population]\npeers = 4\n\
                 [[population.helpers]]\ncount = 1\nkind = \"paper\"\nstay = 0.9\n\
                 [[phase]]\nkind = \"steady\"\nepochs = 5\n",
            ),
            Err(ScenarioError::Invalid { .. })
        ));
        let err = ScenarioSpec::builder("x")
            .single(4, vec![(1, BandwidthSpec::Paper { stay: 0.9 })])
            .phase(WorkloadPhase::ChannelSurf { epochs: 10, period: 2, moves: 1 })
            .build()
            .unwrap_err();
        match err {
            ScenarioError::Invalid { path, .. } => assert_eq!(path, "phase[0].kind"),
            other => panic!("expected phase-kind error, got {other}"),
        }
    }

    #[test]
    fn impairment_errors_surface_with_field_names() {
        let err = ScenarioSpec::from_toml_str(
            "version = 1\nname = \"x\"\n[population]\npeers = 4\n\
             [[population.helpers]]\ncount = 1\nkind = \"paper\"\nstay = 0.9\n\
             [impairment]\nseed = 1\n[impairment.loss]\nkind = \"uniform\"\nloss = 1.5\n\
             [[phase]]\nkind = \"steady\"\nepochs = 5\n",
        )
        .unwrap_err();
        match err {
            ScenarioError::Impairment(e) => assert_eq!(e.field(), "loss"),
            other => panic!("expected impairment error, got {other}"),
        }
    }

    #[test]
    fn helper_failure_index_bounds_are_checked() {
        let err = ScenarioSpec::builder("x")
            .single(4, vec![(2, BandwidthSpec::Paper { stay: 0.9 })])
            .phase(WorkloadPhase::HelperFailure { epochs: 10, helpers: vec![2], online: false })
            .build()
            .unwrap_err();
        match err {
            ScenarioError::Invalid { path, message } => {
                assert_eq!(path, "phase[0].helpers");
                assert!(message.contains("out of range"), "{message}");
            }
            other => panic!("expected index error, got {other}"),
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = zoo_like_spec();
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a.welfare, b.welfare);
        assert_eq!(a.final_population, b.final_population);
        // The LinkShaper type stays exported for backend use.
        let _ = LinkShaper::new();
    }
}
