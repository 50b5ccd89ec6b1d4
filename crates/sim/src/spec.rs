//! Declarative scenario specifications: one versioned, validated
//! description of an entire experiment, read from TOML.
//!
//! A [`ScenarioSpec`] composes four axes:
//!
//! 1. **Population** — either a single-channel swarm (`[population]`:
//!    peer count, `[[population.helpers]]` bandwidth groups, demand,
//!    `[population.churn]`, `[population.learner]`) or a multi-channel
//!    deployment (`[multichannel]`: channels, bitrate, viewers, Zipf
//!    popularity, allocation policy);
//! 2. **Impairment** — an [`ImpairmentPlan`] (`[impairment]` with
//!    `loss`, `token_bucket`, `link_bandwidth` and `latency` sub-tables,
//!    plus `jitter_us`);
//! 3. **Workload phases** — an ordered list of [`WorkloadPhase`]s
//!    (`[[phase]]`: steady, flash crowd, diurnal, helper failure,
//!    popularity shift, channel surfing);
//! 4. **Determinism** — a single root seed; running the same spec twice
//!    yields bit-identical trajectories.
//!
//! A spec is read from TOML ([`ScenarioSpec::from_toml_str`],
//! [`ScenarioSpec::load`]) and validated on the way in: an unknown key,
//! a missing one, or a value that would make a run panic or silently do
//! nothing is a [`ScenarioError`] naming its dotted field path
//! (`population.helpers[0].stay`, `phase[1].kind`). The parse functions
//! below are the grammar.
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
//! The files in `scenarios/*.toml` at the repository root (the
//! "scenario zoo") are the only description of each scenario; `cargo
//! run --release -p rths_bench -- run_scenario <file>` executes one and
//! writes welfare/regret CSVs.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use rths_obs as obs;
use rths_stoch::process::ChurnProcess;
use rths_stoch::rng::{derive_seed, seeded_rng};

use crate::config::{Algorithm, BandwidthSpec, LearnerSpec, SimConfig};
use crate::impairment::{ImpairmentError, ImpairmentPlan};
use crate::minitoml::{self, TomlError, Value};
use crate::multichannel::{AllocationPolicy, MultiChannelConfig, MultiChannelSystem};
use crate::system::System;
use crate::workload::WorkloadPhase;

/// The scenario format version this build reads.
const SCENARIO_SPEC_VERSION: i64 = 1;

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
struct ChurnSpec {
    /// Expected Poisson arrivals per epoch.
    arrival: f64,
    /// Per-peer departure probability per epoch.
    departure: f64,
}

/// A group of identical helpers.
#[derive(Debug, Clone, PartialEq)]
struct HelperGroup {
    /// How many helpers share this bandwidth process.
    count: usize,
    /// The bandwidth process each runs.
    bandwidth: BandwidthSpec,
}

/// A single-channel population (the paper's §IV system).
#[derive(Debug, Clone, PartialEq)]
struct SingleSpec {
    /// Initial peer count.
    peers: usize,
    /// Helper groups, flattened in order into the helper list.
    helpers: Vec<HelperGroup>,
    /// Per-peer streaming demand (kbps); `None` = unbounded.
    demand: Option<f64>,
    /// Churn; `None` = a fixed population.
    churn: Option<ChurnSpec>,
    /// Learner configuration for every peer.
    learner: LearnerSpec,
}

/// A multi-channel deployment (the paper's setting), mapping onto
/// [`MultiChannelConfig::standard`].
#[derive(Debug, Clone, PartialEq)]
struct MultiSpec {
    /// Number of channels.
    channels: usize,
    /// Per-channel bitrate (kbps).
    bitrate: f64,
    /// Helper count.
    helpers: usize,
    /// Channels served per helper (staggered assignment).
    channels_per_helper: usize,
    /// Total viewers, split over channels by Zipf popularity.
    viewers: usize,
    /// Zipf popularity exponent.
    zipf_s: f64,
    /// How helpers split capacity across their channels.
    allocation: AllocationPolicy,
}

/// Which configuration of the engine a scenario drives.
#[derive(Debug, Clone, PartialEq)]
enum PopulationSpec {
    /// One channel: [`System::new`] over a [`SimConfig`].
    Single(SingleSpec),
    /// Many channels: [`MultiChannelSystem::new`] over a
    /// [`MultiChannelConfig`].
    Multi(MultiSpec),
}

/// A complete, validated scenario description. See the [module
/// docs](self) for the TOML schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
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

    // -- Execution ------------------------------------------------------

    /// Runs the scenario to completion and reports per-epoch series.
    ///
    /// When the spec's `trace` flag (or an ambient `RTHS_TRACE` /
    /// [`rths_obs::scoped_enable`] state) enables tracing, the global
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
        for (i, phase) in self.phases.iter().enumerate() {
            validate_phase(phase, i, &self.population)?;
        }
        Ok(())
    }
}

/// Per-epoch series a scenario run produces — the CSV payload of
/// `rths_bench run_scenario`.
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
        group.bandwidth.check().map_err(|(field, message)| {
            invalid(format!("population.helpers[{i}].{field}"), message)
        })?;
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
            let arrival = s.churn.map_or(0.0, |c| c.arrival);
            if matches!(phase, WorkloadPhase::FlashCrowd { .. }) && arrival == 0.0 {
                return Err(invalid(
                    at("kind"),
                    "a flash crowd multiplies the churn arrival rate, which is 0 here \
                     (set [population.churn] arrival > 0)",
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
    if version != SCENARIO_SPEC_VERSION {
        return Err(invalid(
            "version",
            format!("unsupported version {version} (this build reads {SCENARIO_SPEC_VERSION})"),
        ));
    }
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

    Ok(ScenarioSpec { name, description, seed, population, impairment, phases, trace })
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
            "exp3" => Algorithm::Exp3,
            other => {
                return Err(invalid(
                    format!("{path}.algorithm"),
                    format!(
                        "unknown algorithm `{other}` (expected rths, regret_matching, exp3)"
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impairment::{LinkShaper, LossModel};

    /// One paper helper group and one steady phase: the smallest valid
    /// single-channel body.
    const SMALL: &str = "[population]\npeers = 4\n\
                         [[population.helpers]]\ncount = 1\nkind = \"paper\"\nstay = 0.9\n\
                         [[phase]]\nkind = \"steady\"\nepochs = 5\n";

    /// Parses `body` under a `version = 1`, `name = "x"` header.
    fn parse(body: &str) -> Result<ScenarioSpec, ScenarioError> {
        ScenarioSpec::from_toml_str(&format!("version = 1\nname = \"x\"\n{body}"))
    }

    /// The `(path, message)` of the field error `body` must produce.
    fn field_error(body: &str) -> (String, String) {
        match parse(body) {
            Err(ScenarioError::Invalid { path, message }) => (path, message),
            other => panic!("expected a field error, got {other:?}"),
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A bandwidth spec as its kind and every parameter's bits.
    fn bandwidth_bits(spec: &BandwidthSpec) -> (&'static str, Vec<u64>) {
        match spec {
            BandwidthSpec::Paper { stay } => ("paper", bits(&[*stay])),
            BandwidthSpec::Ladder { levels, stay } => {
                ("ladder", bits(&[levels.as_slice(), &[*stay]].concat()))
            }
            BandwidthSpec::Constant(level) => ("constant", bits(&[*level])),
            BandwidthSpec::RandomWalk { initial, min, max, step, move_prob } => {
                ("random_walk", bits(&[*initial, *min, *max, *step, *move_prob]))
            }
            BandwidthSpec::GilbertElliott { good, bad, p_gb, p_bg } => {
                ("gilbert_elliott", bits(&[*good, *bad, *p_gb, *p_bg]))
            }
            BandwidthSpec::RegimeShift { before, after, at } => {
                ("regime_shift", [bits(&[*before, *after]), vec![*at]].concat())
            }
            BandwidthSpec::Trace(samples) => ("trace", bits(samples)),
        }
    }

    fn zoo_like_spec() -> ScenarioSpec {
        parse(
            r#"
            description = "a spec written as TOML"
            seed = 9

            [population]
            peers = 12
            demand = 380.0

            [[population.helpers]]
            count = 3
            kind = "paper"
            stay = 0.98

            [[population.helpers]]
            count = 1
            kind = "ladder"
            levels = [400.0, 650.0]
            stay = 0.9

            [population.churn]
            arrival = 1.5
            departure = 0.02

            [impairment]
            seed = 4

            [impairment.loss]
            kind = "gilbert_elliott"
            p_enter_bad = 0.05
            p_exit_bad = 0.4
            bad_loss = 0.8
            good_loss = 0.01

            [impairment.token_bucket]
            rate_kbps = 500.0
            burst_kbits = 900.0

            [[phase]]
            kind = "steady"
            epochs = 40

            [[phase]]
            kind = "flash_crowd"
            epochs = 60
            start = 10
            end = 30
            surge = 4.0
            "#,
        )
        .unwrap()
    }

    #[test]
    fn every_single_channel_field_parses_exactly() {
        let spec = parse(
            r#"
            seed = 17
            description = "every field"
            trace = true

            [population]
            peers = 6
            demand = 375.5

            [[population.helpers]]
            count = 1
            kind = "paper"
            stay = 0.97

            [[population.helpers]]
            count = 2
            kind = "ladder"
            levels = [300.0, 650.5]
            stay = 0.9

            [[population.helpers]]
            count = 1
            kind = "constant"
            level = 720.25

            [[population.helpers]]
            count = 1
            kind = "random_walk"
            initial = 500.0
            min = 200.0
            max = 800.0
            step = 25.5
            move_prob = 0.3

            [[population.helpers]]
            count = 1
            kind = "gilbert_elliott"
            good = 900.0
            bad = 150.0
            p_gb = 0.05
            p_bg = 0.4

            [[population.helpers]]
            count = 1
            kind = "regime_shift"
            before = 850.0
            after = 400.0
            at = 30

            [[population.helpers]]
            count = 1
            kind = "trace"
            samples = [700.0, 810.5, 640.0]

            [population.churn]
            arrival = 0.75
            departure = 0.015

            [population.learner]
            algorithm = "regret_matching"
            epsilon = 0.02
            delta = 0.15
            mu = 1280.0
            conditional = true

            [impairment]
            seed = 23
            jitter_us = 120

            [impairment.loss]
            kind = "gilbert_elliott"
            p_enter_bad = 0.04
            p_exit_bad = 0.3
            bad_loss = 0.8
            good_loss = 0.01

            [impairment.token_bucket]
            rate_kbps = 500.0
            burst_kbits = 1000.0

            [impairment.link_bandwidth]
            levels = [300.0, 600.0, 900.0]
            stay = 0.92

            [impairment.latency]
            ticks = [1, 2, 4]
            stay = 0.85

            [[phase]]
            kind = "steady"
            epochs = 10

            [[phase]]
            kind = "flash_crowd"
            epochs = 20
            start = 5
            end = 15
            surge = 3.5

            [[phase]]
            kind = "diurnal"
            epochs = 30
            period = 12
            amplitude = 1.25

            [[phase]]
            kind = "helper_failure"
            epochs = 8
            helpers = [0, 6]
            online = false
            "#,
        )
        .unwrap();
        assert_eq!(
            (spec.name(), spec.description(), spec.seed(), spec.trace()),
            ("x", "every field", 17, true)
        );

        let PopulationSpec::Single(single) = &spec.population else {
            panic!("expected a single-channel population");
        };
        assert_eq!(single.peers, 6);
        assert_eq!(single.demand.map(f64::to_bits), Some(375.5f64.to_bits()));
        let groups: Vec<_> =
            single.helpers.iter().map(|g| (g.count, bandwidth_bits(&g.bandwidth))).collect();
        assert_eq!(
            groups,
            [
                (1, ("paper", bits(&[0.97]))),
                (2, ("ladder", bits(&[300.0, 650.5, 0.9]))),
                (1, ("constant", bits(&[720.25]))),
                (1, ("random_walk", bits(&[500.0, 200.0, 800.0, 25.5, 0.3]))),
                (1, ("gilbert_elliott", bits(&[900.0, 150.0, 0.05, 0.4]))),
                (1, ("regime_shift", [bits(&[850.0, 400.0]), vec![30]].concat())),
                (1, ("trace", bits(&[700.0, 810.5, 640.0]))),
            ]
        );
        let churn = single.churn.expect("churn parsed");
        assert_eq!(bits(&[churn.arrival, churn.departure]), bits(&[0.75, 0.015]));
        let learner = &single.learner;
        assert_eq!((learner.algorithm, learner.conditional), (Algorithm::RegretMatching, true));
        assert_eq!(bits(&[learner.epsilon, learner.delta]), bits(&[0.02, 0.15]));
        assert_eq!(learner.mu.map(f64::to_bits), Some(1280f64.to_bits()));

        let plan = &spec.impairment;
        assert_eq!((plan.seed(), plan.jitter_us()), (23, 120));
        match plan.loss() {
            LossModel::GilbertElliott { p_enter_bad, p_exit_bad, bad_loss, good_loss } => {
                assert_eq!(
                    bits(&[*p_enter_bad, *p_exit_bad, *bad_loss, *good_loss]),
                    bits(&[0.04, 0.3, 0.8, 0.01])
                );
            }
            other => panic!("expected Gilbert–Elliott loss, got {other:?}"),
        }
        let bucket = plan.token_bucket().expect("token bucket parsed");
        assert_eq!(bits(&[bucket.rate_kbps, bucket.burst_kbits]), bits(&[500.0, 1000.0]));
        let link = plan.link_bandwidth().expect("link bandwidth parsed");
        assert_eq!(bits(&link.levels), bits(&[300.0, 600.0, 900.0]));
        assert_eq!(link.stay.to_bits(), 0.92f64.to_bits());
        let latency = plan.latency().expect("latency parsed");
        assert_eq!(latency.ticks, [1, 2, 4]);
        assert_eq!(latency.stay.to_bits(), 0.85f64.to_bits());

        assert_eq!(
            spec.phases,
            [
                WorkloadPhase::Steady { epochs: 10 },
                WorkloadPhase::FlashCrowd { epochs: 20, start: 5, end: 15, surge: 3.5 },
                WorkloadPhase::Diurnal { epochs: 30, period: 12, amplitude: 1.25 },
                WorkloadPhase::HelperFailure { epochs: 8, helpers: vec![0, 6], online: false },
            ]
        );
        let WorkloadPhase::FlashCrowd { surge, .. } = spec.phases[1] else { unreachable!() };
        let WorkloadPhase::Diurnal { amplitude, .. } = spec.phases[2] else { unreachable!() };
        assert_eq!(bits(&[surge, amplitude]), bits(&[3.5, 1.25]));
    }

    #[test]
    fn every_multichannel_field_parses_exactly() {
        for (keyword, allocation) in [
            ("even_split", AllocationPolicy::EvenSplit),
            ("load_proportional", AllocationPolicy::LoadProportional),
            ("water_filling", AllocationPolicy::WaterFilling),
            ("learned", AllocationPolicy::Learned),
        ] {
            let spec = parse(&format!(
                "seed = 3\n\
                 [multichannel]\nchannels = 4\nbitrate = 350.5\nhelpers = 8\n\
                 channels_per_helper = 2\nviewers = 60\nzipf_s = 1.1\n\
                 allocation = \"{keyword}\"\n\
                 [[phase]]\nkind = \"channel_surf\"\nepochs = 30\nperiod = 5\nmoves = 3\n\
                 [[phase]]\nkind = \"popularity_shift\"\nepochs = 20\nat = 10\n\
                 from = 0\nto = 3\ncount = 5\n"
            ))
            .unwrap();
            let PopulationSpec::Multi(multi) = &spec.population else {
                panic!("expected a multi-channel population");
            };
            assert_eq!(
                (multi.channels, multi.helpers, multi.channels_per_helper, multi.viewers),
                (4, 8, 2, 60)
            );
            assert_eq!(bits(&[multi.bitrate, multi.zipf_s]), bits(&[350.5, 1.1]));
            assert_eq!(multi.allocation, allocation, "{keyword}");
            assert_eq!(
                spec.phases,
                [
                    WorkloadPhase::ChannelSurf { epochs: 30, period: 5, moves: 3 },
                    WorkloadPhase::PopularityShift {
                        epochs: 20,
                        at: 10,
                        from: 0,
                        to: 3,
                        count: 5
                    },
                ]
            );
        }
    }

    #[test]
    fn every_learner_and_loss_keyword_parses() {
        for (keyword, algorithm) in [
            ("rths", Algorithm::Rths),
            ("regret_matching", Algorithm::RegretMatching),
            ("exp3", Algorithm::Exp3),
        ] {
            let spec =
                parse(&format!("{SMALL}[population.learner]\nalgorithm = \"{keyword}\"\n"))
                    .unwrap();
            let PopulationSpec::Single(single) = &spec.population else { unreachable!() };
            assert_eq!(single.learner.algorithm, algorithm, "{keyword}");
        }
        let spec = parse(&format!(
            "{SMALL}[impairment]\nseed = 2\n[impairment.loss]\nkind = \"uniform\"\nloss = 0.25\n"
        ))
        .unwrap();
        match spec.impairment.loss() {
            LossModel::Uniform { loss } => assert_eq!(loss.to_bits(), 0.25f64.to_bits()),
            other => panic!("expected uniform loss, got {other:?}"),
        }
    }

    #[test]
    fn run_matches_direct_system() {
        // A ScenarioSpec run is exactly the equivalent System run.
        let spec = parse(
            "seed = 11\n[population]\npeers = 10\ndemand = 380.0\n\
             [[population.helpers]]\ncount = 4\nkind = \"paper\"\nstay = 0.98\n\
             [[phase]]\nkind = \"steady\"\nepochs = 80\n",
        )
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
        let body = |impairment: &str| {
            format!(
                "seed = 5\n[population]\npeers = 10\ndemand = 380.0\n\
                 [[population.helpers]]\ncount = 4\nkind = \"paper\"\nstay = 0.98\n\
                 {impairment}[[phase]]\nkind = \"steady\"\nepochs = 60\n"
            )
        };
        let base = parse(&body("")).unwrap();
        let impaired = parse(&body(
            "[impairment]\nseed = 2\n[impairment.loss]\nkind = \"gilbert_elliott\"\n\
             p_enter_bad = 0.2\np_exit_bad = 0.3\nbad_loss = 0.9\ngood_loss = 0.0\n",
        ))
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
            spec.phases,
            [
                WorkloadPhase::Steady { epochs: 40 },
                WorkloadPhase::FlashCrowd { epochs: 10, start: 10, end: 10, surge: 4.0 },
            ]
        );
        // A cap beyond the total is a no-op.
        assert_eq!(zoo_like_spec().with_epoch_cap(1000), zoo_like_spec());
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let (path, _) = field_error(&SMALL.replace("peers = 4\n", "peers = 4\npeeers = 4\n"));
        assert_eq!(path, "population.peeers");
        let (path, _) = field_error(&format!(
            "{SMALL}[population.learner]\nalgorithm = \"history_rths\"\n"
        ));
        assert_eq!(path, "population.learner.algorithm");
    }

    #[test]
    fn version_and_cross_engine_phases_are_rejected() {
        assert!(matches!(
            ScenarioSpec::from_toml_str(&format!("version = 2\nname = \"x\"\n{SMALL}")),
            Err(ScenarioError::Invalid { path, .. }) if path == "version"
        ));
        let surf = "[[phase]]\nkind = \"channel_surf\"\nepochs = 10\nperiod = 2\nmoves = 1\n";
        let (path, _) =
            field_error(&SMALL.replace("[[phase]]\nkind = \"steady\"\nepochs = 5\n", surf));
        assert_eq!(path, "phase[0].kind");
    }

    #[test]
    fn impairment_errors_surface_with_field_names() {
        let err = parse(&format!(
            "{SMALL}[impairment]\nseed = 1\n[impairment.loss]\nkind = \"uniform\"\nloss = 1.5\n"
        ))
        .unwrap_err();
        match err {
            ScenarioError::Impairment(e) => assert_eq!(e.field(), "loss"),
            other => panic!("expected impairment error, got {other}"),
        }
    }

    #[test]
    fn helper_failure_index_bounds_are_checked() {
        let (path, message) = field_error(
            "[population]\npeers = 4\n\
             [[population.helpers]]\ncount = 2\nkind = \"paper\"\nstay = 0.9\n\
             [[phase]]\nkind = \"helper_failure\"\nepochs = 10\nhelpers = [2]\nonline = false\n",
        );
        assert_eq!(path, "phase[0].helpers");
        assert!(message.contains("out of range"), "{message}");
    }

    #[test]
    fn runs_that_would_panic_or_do_nothing_are_refused_at_load() {
        // Each group loads without complaint if only counts are checked,
        // then panics in its bandwidth constructor at `run()`.
        let group = |fields: &str| {
            format!(
                "[population]\npeers = 4\n[[population.helpers]]\ncount = 1\n{fields}\n\
                 [[phase]]\nkind = \"steady\"\nepochs = 5\n"
            )
        };
        for (fields, field) in [
            ("kind = \"paper\"\nstay = 1.0", "stay"),
            ("kind = \"ladder\"\nlevels = []\nstay = 0.9", "levels"),
            ("kind = \"trace\"\nsamples = []", "samples"),
            (
                "kind = \"random_walk\"\ninitial = 500.0\nmin = 900.0\nmax = 100.0\n\
                 step = 10.0\nmove_prob = 0.5",
                "min",
            ),
            (
                "kind = \"gilbert_elliott\"\ngood = 900.0\nbad = 100.0\np_gb = 1.5\np_bg = 0.5",
                "p_gb",
            ),
        ] {
            let (path, _) = field_error(&group(fields));
            assert_eq!(path, format!("population.helpers[0].{field}"), "{fields}");
        }
        // A flash crowd multiplies the churn arrival rate: without churn,
        // or with no arrivals, it would run as a steady phase.
        let crowd = "[[phase]]\nkind = \"flash_crowd\"\nepochs = 20\nstart = 5\nend = 10\n\
                     surge = 4.0\n";
        for churn in ["", "[population.churn]\narrival = 0.0\ndeparture = 0.1\n"] {
            let (path, _) = field_error(&format!("{SMALL}{crowd}{churn}"));
            assert_eq!(path, "phase[1].kind", "{churn:?}");
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
