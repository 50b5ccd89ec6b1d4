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
//! 2. **Impairment** — an [`ImpairmentPlan`] (`[impairment]`: a `seed`
//!    and the `loss`, `token_bucket` and `link_bandwidth` sub-tables, each
//!    of which shapes the rates peers receive, on either population);
//! 3. **Workload phases** — an ordered list of [`WorkloadPhase`]s
//!    (`[[phase]]`: steady, flash crowd, diurnal, helper failure,
//!    popularity shift, channel surfing);
//! 4. **Determinism** — a single root seed; running the same spec twice
//!    yields bit-identical trajectories.
//!
//! A spec is read from TOML ([`ScenarioSpec::from_toml_str`],
//! [`ScenarioSpec::load`]). The parse functions below are the grammar,
//! and they build the configuration the run uses, a [`SimConfig`], once
//! per load: `[population]` lays out one channel, `[multichannel]` a
//! [`SimConfig::standard`] deployment whose Zipf exponent the spec keeps
//! for `channel_surf`; either carries the impairment plan. Each key is
//! checked where it is read; the checks that compare
//! keys (the learner against the helpers, a phase against the
//! population) then read the built configuration. An unknown key, a
//! missing one, or a value that would make a run panic or silently do
//! nothing is a [`ScenarioError`] naming its dotted field path
//! (`population.helpers[0].stay`, `phase[1].kind`). Counts of what the
//! engine indexes with `u32` (peers, viewers, helpers, channels) are at
//! most `u32::MAX`; that bounds the index width, not the memory a run
//! needs.
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

use rths_core::ConfigError;
use rths_obs as obs;
use rths_stoch::process::ChurnProcess;
use rths_stoch::rng::{derive_seed, seeded_rng};

use crate::config::{Algorithm, BandwidthSpec, LearnerSpec, SimConfig};
use crate::impairment::{ImpairmentError, ImpairmentPlan};
use crate::minitoml::{self, TomlError, Value};
use crate::multichannel::{AllocationPolicy, MultiChannelSystem};
use crate::system::System;
use crate::workload::WorkloadPhase;

/// The scenario format version this build reads.
const SCENARIO_SPEC_VERSION: i64 = 1;

/// Stream id deriving the channel-surf RNG from the root seed.
const SURF_STREAM: u64 = 0x5355_5246; // "SURF"

/// The most expected arrivals per epoch a phase may hand the engine's
/// Poisson sampler: each arrival spawns a peer, and peers have `u32` slots.
const MAX_ARRIVALS: f64 = u32::MAX as f64;
const ARRIVALS_BOUND: &str = "u32::MAX = 4294967295 expected arrivals per epoch \
     (each arrival spawns a peer, and peers are indexed with u32 slots)";

/// The most peers, helpers or channels a scenario may declare: the engine
/// indexes peer slots, helper ids and a peer's channel with `u32`s.
const MAX_INDEXED: u64 = u32::MAX as u64;
const PEERS_BOUND: &str = "u32::MAX = 4294967295 peers (peers are indexed with u32 slots)";
const HELPERS_BOUND: &str = "u32::MAX = 4294967295 helpers (helpers are indexed with u32 ids)";
const CHANNELS_BOUND: &str =
    "u32::MAX = 4294967295 channels (a peer's channel is stored as a u32)";

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

/// A complete, validated scenario description. See the [module
/// docs](self) for the TOML schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    name: String,
    description: String,
    seed: u64,
    /// The run's configuration, as parsed.
    config: SimConfig,
    /// `[multichannel]`'s Zipf popularity exponent, which `channel_surf`
    /// samples destinations with; `Some` runs [`MultiChannelSystem::new`],
    /// `None` (a `[population]`) runs [`System::new`].
    zipf_s: Option<f64>,
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
        let config = self.config.clone();
        let (mut system, zipf_s) = match self.zipf_s {
            Some(zipf_s) => (MultiChannelSystem::new(config).into_engine(), zipf_s),
            // No phase that reads `zipf_s` validates on a single population.
            None => (System::new(config), 0.0),
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

    // -- Validation -----------------------------------------------------

    /// The checks that compare keys, on the built configuration.
    fn validate(&self) -> Result<(), ScenarioError> {
        let multichannel = self.zipf_s.is_some();
        if !multichannel {
            validate_learner(&self.config)?;
        }
        for (i, phase) in self.phases.iter().enumerate() {
            validate_phase(phase, i, &self.config, multichannel)?;
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

/// Checks the learner with the run's own check: the
/// [`LearnerSpec::rths_config`] call the peer store makes, on the inputs
/// it makes it with (`config` is the [`SimConfig`] the run builds).
fn validate_learner(config: &SimConfig) -> Result<(), ScenarioError> {
    let learner = &config.learner;
    let rate_scale = config.rate_scale();
    let Err(e) = learner.rths_config(config.helpers.len(), rate_scale) else {
        return Ok(());
    };
    let path = match e {
        ConfigError::NoActions => "population.helpers",
        ConfigError::BadEpsilon => "population.learner.epsilon",
        ConfigError::BadDelta => "population.learner.delta",
        ConfigError::BadMu => "population.learner.mu",
    };
    let message = match (e, learner.mu) {
        (ConfigError::BadMu, None) => format!(
            "`mu` is unset, and the μ derived from the helpers' fair share \
             (4 × {rate_scale} kbps) is not positive and finite: `mu` must be given"
        ),
        _ => e.to_string(),
    };
    Err(invalid(path, message))
}

/// Checks a phase against the configuration it runs on (a
/// `[multichannel]` one or not): its kind, the helpers and channels it
/// names, and the arrival rate it multiplies.
fn validate_phase(
    phase: &WorkloadPhase,
    index: usize,
    config: &SimConfig,
    multichannel: bool,
) -> Result<(), ScenarioError> {
    let at = |field: &str| format!("phase[{index}].{field}");
    if multichannel {
        match phase {
            WorkloadPhase::Steady { .. } | WorkloadPhase::ChannelSurf { .. } => {}
            WorkloadPhase::PopularityShift { from, to, .. } => {
                let channels = config.viewers.len();
                for (key, channel) in [("from", from), ("to", to)] {
                    if *channel >= channels {
                        return Err(invalid(
                            at(key),
                            format!("channel out of range (scenario has {channels})"),
                        ));
                    }
                }
            }
            _ => {
                return Err(invalid(
                    at("kind"),
                    "only steady/popularity_shift/channel_surf run on a multi-channel scenario",
                ));
            }
        }
        return Ok(());
    }
    if phase.is_multichannel() {
        return Err(invalid(at("kind"), "multi-channel phase in a single-channel scenario"));
    }
    let arrival = config.churn.arrival_rate();
    match phase {
        WorkloadPhase::FlashCrowd { .. } if arrival == 0.0 => {
            return Err(invalid(
                at("kind"),
                "a flash crowd multiplies the churn arrival rate, which is 0 here \
                 (set [population.churn] arrival > 0)",
            ));
        }
        WorkloadPhase::FlashCrowd { surge, .. } => {
            let extra = arrival * (surge - 1.0);
            if extra > MAX_ARRIVALS {
                return Err(invalid(
                    at("surge"),
                    format!("arrival × (surge − 1) = {extra:e} exceeds {ARRIVALS_BOUND}"),
                ));
            }
        }
        WorkloadPhase::HelperFailure { helpers, .. } => {
            let total = config.helpers.len();
            if let Some(&bad) = helpers.iter().find(|&&h| h >= total) {
                return Err(invalid(
                    at("helpers"),
                    format!("helper index {bad} out of range (scenario has {total})"),
                ));
            }
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

/// The dotted path of `key` in the table at `path` (`""` is the root).
fn dotted(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_owned()
    } else {
        format!("{path}.{key}")
    }
}

fn check_keys(tbl: &Tbl, path: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    for key in tbl.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(invalid(
                dotted(path, key),
                format!("unknown key (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn req<'a>(tbl: &'a Tbl, path: &str, key: &str) -> Result<&'a Value, ScenarioError> {
    tbl.get(key).ok_or_else(|| invalid(dotted(path, key), "missing required key"))
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
    tbl.get(key).map(|v| as_f64(v, &dotted(path, key))).transpose()
}

fn opt_u64_or(tbl: &Tbl, path: &str, key: &str, default: u64) -> Result<u64, ScenarioError> {
    match tbl.get(key) {
        Some(v) => as_u64(v, &dotted(path, key)),
        None => Ok(default),
    }
}

fn req_f64(tbl: &Tbl, path: &str, key: &str) -> Result<f64, ScenarioError> {
    as_f64(req(tbl, path, key)?, &dotted(path, key))
}

fn req_u64(tbl: &Tbl, path: &str, key: &str) -> Result<u64, ScenarioError> {
    as_u64(req(tbl, path, key)?, &dotted(path, key))
}

fn req_usize(tbl: &Tbl, path: &str, key: &str) -> Result<usize, ScenarioError> {
    as_usize(req(tbl, path, key)?, &dotted(path, key))
}

/// A required integer key that must be ≥ 1.
fn req_positive(tbl: &Tbl, path: &str, key: &str) -> Result<u64, ScenarioError> {
    match req_u64(tbl, path, key)? {
        0 => Err(invalid(dotted(path, key), "must be ≥ 1")),
        n => Ok(n),
    }
}

/// A required count of what the engine indexes with `u32`: ≥ 1 and at
/// most `u32::MAX` (`bound` says so in the error).
fn req_indexed(tbl: &Tbl, path: &str, key: &str, bound: &str) -> Result<usize, ScenarioError> {
    match req_positive(tbl, path, key)? {
        n if n > MAX_INDEXED => {
            Err(invalid(dotted(path, key), format!("must be at most {bound}")))
        }
        n => Ok(n as usize),
    }
}

fn req_str(tbl: &Tbl, path: &str, key: &str) -> Result<String, ScenarioError> {
    as_str(req(tbl, path, key)?, &dotted(path, key))
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
    if name.is_empty()
        || !name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
    {
        return Err(invalid("name", "must be non-empty [a-z0-9_-] (it names output files)"));
    }
    let description = match root.get("description") {
        Some(v) => as_str(v, "description")?,
        None => String::new(),
    };
    let seed = opt_u64_or(root, "", "seed", 0)?;
    let trace = match root.get("trace") {
        Some(v) => as_bool(v, "trace")?,
        None => false,
    };

    let impairment = match root.get("impairment") {
        Some(v) => parse_impairment(as_tbl(v, "impairment")?)?,
        None => ImpairmentPlan::none(),
    };
    let (config, zipf_s) = match (root.get("population"), root.get("multichannel")) {
        (Some(_), Some(_)) => {
            return Err(invalid(
                "population",
                "declare either [population] or [multichannel], not both",
            ));
        }
        (Some(v), None) => (parse_single(as_tbl(v, "population")?, seed, impairment)?, None),
        (None, Some(v)) => {
            let (config, zipf_s) = parse_multi(as_tbl(v, "multichannel")?, seed, impairment)?;
            (config, Some(zipf_s))
        }
        (None, None) => {
            return Err(invalid(
                "population",
                "a [population] or [multichannel] table is required",
            ));
        }
    };

    let items = match root.get("phase") {
        Some(v) => {
            v.as_array().ok_or_else(|| invalid("phase", "expected [[phase]] entries"))?
        }
        None => &[],
    };
    if items.is_empty() {
        return Err(invalid("phase", "at least one [[phase]] is required"));
    }
    let phases = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let path = format!("phase[{i}]");
            parse_phase(as_tbl(item, &path)?, &path)
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(ScenarioSpec { name, description, seed, config, zipf_s, phases, trace })
}

fn parse_single(
    tbl: &Tbl,
    seed: u64,
    impairment: ImpairmentPlan,
) -> Result<SimConfig, ScenarioError> {
    let path = "population";
    check_keys(tbl, path, &["peers", "demand", "helpers", "churn", "learner"])?;
    let peers = req_indexed(tbl, path, "peers", PEERS_BOUND)?;
    let groups = match tbl.get("helpers") {
        Some(v) => v.as_array().ok_or_else(|| {
            invalid("population.helpers", "expected [[population.helpers]] entries")
        })?,
        None => &[],
    };
    if groups.is_empty() {
        return Err(invalid("population.helpers", "at least one helper group is required"));
    }
    let groups = groups
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let gpath = format!("population.helpers[{i}]");
            parse_helper_group(as_tbl(item, &gpath)?, &gpath)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let total: u64 = groups.iter().map(|&(count, _)| count as u64).sum();
    if total > MAX_INDEXED {
        return Err(invalid(
            "population.helpers",
            format!("the groups' counts sum to {total}, more than {HELPERS_BOUND}"),
        ));
    }
    let helpers =
        groups.into_iter().flat_map(|(count, spec)| std::iter::repeat_n(spec, count)).collect();
    let mut builder = SimConfig::builder(peers, helpers).seed(seed).impairment(impairment);
    if let Some(demand) = opt_f64(tbl, path, "demand")? {
        if !(demand.is_finite() && demand > 0.0) {
            return Err(invalid("population.demand", "must be positive and finite"));
        }
        builder = builder.demand(demand);
    }
    if let Some(v) = tbl.get("churn") {
        let cpath = "population.churn";
        let ctbl = as_tbl(v, cpath)?;
        check_keys(ctbl, cpath, &["arrival", "departure"])?;
        let arrival = req_f64(ctbl, cpath, "arrival")?;
        if !(0.0..=MAX_ARRIVALS).contains(&arrival) {
            return Err(invalid(
                "population.churn.arrival",
                format!("must be ≥ 0 and at most {ARRIVALS_BOUND}"),
            ));
        }
        let departure = req_f64(ctbl, cpath, "departure")?;
        if !(0.0..=1.0).contains(&departure) {
            return Err(invalid("population.churn.departure", "must be in [0, 1]"));
        }
        builder = builder.churn(ChurnProcess::new(arrival, departure));
    }
    if let Some(v) = tbl.get("learner") {
        builder = builder.learner(parse_learner(as_tbl(v, "population.learner")?)?);
    }
    Ok(builder.build())
}

/// One `[[population.helpers]]` group: its count and bandwidth process.
fn parse_helper_group(tbl: &Tbl, path: &str) -> Result<(usize, BandwidthSpec), ScenarioError> {
    let kind = req_str(tbl, path, "kind")?;
    let bandwidth = match kind.as_str() {
        "paper" => {
            check_keys(tbl, path, &["count", "kind", "stay"])?;
            BandwidthSpec::Paper { stay: req_f64(tbl, path, "stay")? }
        }
        "constant" => {
            check_keys(tbl, path, &["count", "kind", "level"])?;
            BandwidthSpec::Constant(req_f64(tbl, path, "level")?)
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
        other => {
            return Err(invalid(
                format!("{path}.kind"),
                format!(
                    "unknown bandwidth kind `{other}` (expected paper, constant, \
                     gilbert_elliott, regime_shift)"
                ),
            ));
        }
    };
    let count = req_indexed(tbl, path, "count", HELPERS_BOUND)?;
    bandwidth
        .check()
        .map_err(|(field, message)| invalid(format!("{path}.{field}"), message))?;
    Ok((count, bandwidth))
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

/// The `[multichannel]` table: the [`SimConfig::standard`] it names,
/// carrying `impairment`, and its Zipf exponent.
fn parse_multi(
    tbl: &Tbl,
    seed: u64,
    impairment: ImpairmentPlan,
) -> Result<(SimConfig, f64), ScenarioError> {
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
            other => {
                return Err(invalid(
                    format!("{path}.allocation"),
                    format!(
                        "unknown allocation `{other}` (expected even_split, load_proportional, \
                         water_filling)"
                    ),
                ));
            }
        },
        None => AllocationPolicy::default(),
    };
    let channels = req_indexed(tbl, path, "channels", CHANNELS_BOUND)?;
    let bitrate = req_f64(tbl, path, "bitrate")?;
    if !(bitrate.is_finite() && bitrate > 0.0) {
        return Err(invalid("multichannel.bitrate", "must be positive and finite"));
    }
    let helpers = req_indexed(tbl, path, "helpers", HELPERS_BOUND)?;
    let channels_per_helper = req_usize(tbl, path, "channels_per_helper")?;
    if channels_per_helper == 0 || channels_per_helper > channels {
        return Err(invalid("multichannel.channels_per_helper", "must be in [1, channels]"));
    }
    let viewers = req_indexed(tbl, path, "viewers", PEERS_BOUND)?;
    let zipf_s = req_f64(tbl, path, "zipf_s")?;
    if !(zipf_s.is_finite() && zipf_s >= 0.0) {
        return Err(invalid("multichannel.zipf_s", "must be ≥ 0 and finite"));
    }
    let config = SimConfig {
        impairment,
        ..SimConfig::standard(
            channels,
            bitrate,
            helpers,
            channels_per_helper,
            viewers,
            zipf_s,
            allocation,
            seed,
        )
    };
    // The run refuses a channel with viewers and no helper; which channels
    // have viewers is the Zipf split's call.
    let mut served = vec![false; channels];
    for &c in config.helper_channels.iter().flatten() {
        served[c] = true;
    }
    if let Some(c) = (0..channels).find(|&c| config.viewers[c] > 0 && !served[c]) {
        return Err(invalid(
            "multichannel.helpers",
            format!(
                "channel {c} has viewers but no helper (helper j serves channels j to \
                 j + channels_per_helper − 1, so helpers + channels_per_helper − 1 ≥ \
                 channels serves them all)"
            ),
        ));
    }
    Ok((config, zipf_s))
}

fn parse_impairment(tbl: &Tbl) -> Result<ImpairmentPlan, ScenarioError> {
    let path = "impairment";
    check_keys(tbl, path, &["seed", "loss", "token_bucket", "link_bandwidth"])?;
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
    Ok(builder.build()?)
}

fn parse_phase(tbl: &Tbl, path: &str) -> Result<WorkloadPhase, ScenarioError> {
    let kind = req_str(tbl, path, "kind")?;
    let at = |key: &str| format!("{path}.{key}");
    let phase = match kind.as_str() {
        "steady" => {
            check_keys(tbl, path, &["kind", "epochs"])?;
            WorkloadPhase::Steady { epochs: req_positive(tbl, path, "epochs")? }
        }
        "flash_crowd" => {
            check_keys(tbl, path, &["kind", "epochs", "start", "end", "surge"])?;
            let epochs = req_positive(tbl, path, "epochs")?;
            let start = req_u64(tbl, path, "start")?;
            let end = req_u64(tbl, path, "end")?;
            if !(start <= end && end <= epochs) {
                return Err(invalid(at("start/end"), "need start ≤ end ≤ epochs"));
            }
            let surge = req_f64(tbl, path, "surge")?;
            if !(surge.is_finite() && surge >= 1.0) {
                return Err(invalid(at("surge"), "must be ≥ 1 and finite"));
            }
            WorkloadPhase::FlashCrowd { epochs, start, end, surge }
        }
        "diurnal" => {
            check_keys(tbl, path, &["kind", "epochs", "period", "amplitude"])?;
            let epochs = req_positive(tbl, path, "epochs")?;
            let period = req_positive(tbl, path, "period")?;
            let amplitude = req_f64(tbl, path, "amplitude")?;
            if !(0.0..=MAX_ARRIVALS).contains(&amplitude) {
                return Err(invalid(
                    at("amplitude"),
                    format!("must be ≥ 0 and at most {ARRIVALS_BOUND}"),
                ));
            }
            WorkloadPhase::Diurnal { epochs, period, amplitude }
        }
        "helper_failure" => {
            check_keys(tbl, path, &["kind", "epochs", "helpers", "online"])?;
            let epochs = req_positive(tbl, path, "epochs")?;
            let helpers: Vec<usize> = as_u64_array(req(tbl, path, "helpers")?, &at("helpers"))?
                .into_iter()
                .map(|h| h as usize)
                .collect();
            if helpers.is_empty() {
                return Err(invalid(at("helpers"), "must name at least one helper"));
            }
            let online = as_bool(req(tbl, path, "online")?, &at("online"))?;
            WorkloadPhase::HelperFailure { epochs, helpers, online }
        }
        "popularity_shift" => {
            check_keys(tbl, path, &["kind", "epochs", "at", "from", "to", "count"])?;
            let epochs = req_positive(tbl, path, "epochs")?;
            let shift_at = req_u64(tbl, path, "at")?;
            if shift_at > epochs {
                return Err(invalid(at("at"), "must be ≤ epochs"));
            }
            WorkloadPhase::PopularityShift {
                epochs,
                at: shift_at,
                from: req_usize(tbl, path, "from")?,
                to: req_usize(tbl, path, "to")?,
                count: req_usize(tbl, path, "count")?,
            }
        }
        "channel_surf" => {
            check_keys(tbl, path, &["kind", "epochs", "period", "moves"])?;
            WorkloadPhase::ChannelSurf {
                epochs: req_positive(tbl, path, "epochs")?,
                period: req_positive(tbl, path, "period")?,
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

    /// The single-channel configuration `spec` runs.
    fn sim(spec: &ScenarioSpec) -> &SimConfig {
        assert_eq!(spec.zipf_s, None, "expected a single-channel population");
        &spec.config
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A bandwidth spec as its kind and every parameter's bits.
    fn bandwidth_bits(spec: &BandwidthSpec) -> (&'static str, Vec<u64>) {
        match spec {
            BandwidthSpec::Paper { stay } => ("paper", bits(&[*stay])),
            BandwidthSpec::Constant(level) => ("constant", bits(&[*level])),
            BandwidthSpec::GilbertElliott { good, bad, p_gb, p_bg } => {
                ("gilbert_elliott", bits(&[*good, *bad, *p_gb, *p_bg]))
            }
            BandwidthSpec::RegimeShift { before, after, at } => {
                ("regime_shift", [bits(&[*before, *after]), vec![*at]].concat())
            }
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
            kind = "gilbert_elliott"
            good = 650.0
            bad = 400.0
            p_gb = 0.1
            p_bg = 0.1

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
            count = 1
            kind = "constant"
            level = 720.25

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
            helpers = [0, 3]
            online = false
            "#,
        )
        .unwrap();
        assert_eq!(
            (spec.name(), spec.description(), spec.seed(), spec.trace()),
            ("x", "every field", 17, true)
        );

        let config = sim(&spec);
        assert_eq!((&config.viewers[..], config.seed), (&[6][..], 17));
        assert_eq!(config.demand.map(f64::to_bits), Some(375.5f64.to_bits()));
        let helpers: Vec<_> = config.helpers.iter().map(bandwidth_bits).collect();
        assert_eq!(
            helpers,
            [
                ("paper", bits(&[0.97])),
                ("constant", bits(&[720.25])),
                ("gilbert_elliott", bits(&[900.0, 150.0, 0.05, 0.4])),
                ("regime_shift", [bits(&[850.0, 400.0]), vec![30]].concat()),
            ]
        );
        let churn = &config.churn;
        assert_eq!(bits(&[churn.arrival_rate(), churn.departure_prob()]), bits(&[0.75, 0.015]));
        let learner = &config.learner;
        assert_eq!((learner.algorithm, learner.conditional), (Algorithm::RegretMatching, true));
        assert_eq!(bits(&[learner.epsilon, learner.delta]), bits(&[0.02, 0.15]));
        assert_eq!(learner.mu.map(f64::to_bits), Some(1280f64.to_bits()));

        let plan = &config.impairment;
        assert_eq!(plan.seed(), 23);
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

        assert_eq!(
            spec.phases,
            [
                WorkloadPhase::Steady { epochs: 10 },
                WorkloadPhase::FlashCrowd { epochs: 20, start: 5, end: 15, surge: 3.5 },
                WorkloadPhase::Diurnal { epochs: 30, period: 12, amplitude: 1.25 },
                WorkloadPhase::HelperFailure { epochs: 8, helpers: vec![0, 3], online: false },
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
            let (config, zipf_s) =
                (&spec.config, spec.zipf_s.expect("a multi-channel population"));
            assert_eq!(zipf_s.to_bits(), 1.1f64.to_bits());
            assert_eq!(config.demand.map(f64::to_bits), Some(350.5f64.to_bits()));
            // 8 helpers, each serving 2 consecutive channels (wrapping).
            assert_eq!(
                config.helper_channels,
                (0..8).map(|j| vec![j % 4, (j + 1) % 4]).collect::<Vec<_>>()
            );
            assert_eq!(config.viewers, SimConfig::zipf_population(4, 60, 1.1));
            assert_eq!(config.viewers.iter().sum::<usize>(), 60);
            assert_eq!((config.allocation, config.seed), (allocation, 3), "{keyword}");
            assert_eq!(*config, SimConfig::standard(4, 350.5, 8, 2, 60, 1.1, allocation, 3));
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
            assert_eq!(sim(&spec).learner.algorithm, algorithm, "{keyword}");
        }
        let spec = parse(&format!(
            "{SMALL}[impairment]\nseed = 2\n[impairment.loss]\nkind = \"uniform\"\nloss = 0.25\n"
        ))
        .unwrap();
        match sim(&spec).impairment.loss() {
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
    fn multichannel_impairment_matches_direct_system() {
        // A `[multichannel]` spec carries its `[impairment]` plan into the
        // run: the report equals a direct `MultiChannelSystem` run under the
        // same plan, and differs from the clean run.
        let body = |impairment: &str| {
            format!(
                "seed = 5\n[multichannel]\nchannels = 3\nbitrate = 400.0\nhelpers = 6\n\
                 channels_per_helper = 2\nviewers = 60\nzipf_s = 1.0\n\
                 allocation = \"water_filling\"\n\
                 {impairment}[[phase]]\nkind = \"steady\"\nepochs = 80\n"
            )
        };
        let impaired = parse(&body(
            "[impairment]\nseed = 2\n[impairment.loss]\nkind = \"gilbert_elliott\"\n\
             p_enter_bad = 0.2\np_exit_bad = 0.3\nbad_loss = 0.9\ngood_loss = 0.0\n\
             [impairment.token_bucket]\nrate_kbps = 300.0\nburst_kbits = 600.0\n\
             [impairment.link_bandwidth]\nlevels = [200.0, 400.0, 600.0]\nstay = 0.9\n",
        ))
        .unwrap()
        .run();
        let plan = ImpairmentPlan::builder(2)
            .gilbert_loss(0.2, 0.3, 0.9, 0.0)
            .token_bucket(300.0, 600.0)
            .link_bandwidth(vec![200.0, 400.0, 600.0], 0.9)
            .build()
            .unwrap();
        let standard =
            SimConfig::standard(3, 400.0, 6, 2, 60, 1.0, AllocationPolicy::WaterFilling, 5);
        let direct =
            MultiChannelSystem::new(SimConfig { impairment: plan, ..standard }).run(80);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(impaired.epochs, 80);
        assert_eq!(bits(&impaired.welfare), bits(direct.welfare.values()));
        assert_eq!(bits(&impaired.server_load), bits(direct.server_load.values()));
        let clean = parse(&body("")).unwrap().run();
        assert_ne!(bits(&impaired.welfare), bits(&clean.welfare));
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
        let (path, _) = field_error(
            "[multichannel]\nchannels = 4\nbitrate = 400.0\nhelpers = 8\n\
             channels_per_helper = 2\nviewers = 40\nzipf_s = 1.0\nallocation = \"learned\"\n\
             [[phase]]\nkind = \"steady\"\nepochs = 5\n",
        );
        assert_eq!(path, "multichannel.allocation");
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
            ScenarioError::Impairment(e) => assert_eq!(e.field(), "loss.loss"),
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
            // Not bandwidth kinds: refused at `kind`, whatever their fields.
            ("kind = \"ladder\"\nlevels = []\nstay = 0.9", "kind"),
            ("kind = \"trace\"\nsamples = []", "kind"),
            (
                "kind = \"random_walk\"\ninitial = 500.0\nmin = 900.0\nmax = 100.0\n\
                 step = 10.0\nmove_prob = 0.5",
                "kind",
            ),
            (
                "kind = \"gilbert_elliott\"\ngood = 900.0\nbad = 100.0\np_gb = 1.5\np_bg = 0.5",
                "p_gb",
            ),
        ] {
            let (path, message) = field_error(&group(fields));
            assert_eq!(path, format!("population.helpers[0].{field}"), "{fields}");
            if field == "kind" {
                let kinds = "(expected paper, constant, gilbert_elliott, regime_shift)";
                assert!(message.ends_with(kinds), "{message}");
            }
        }
        // A flash crowd multiplies the churn arrival rate: without churn,
        // or with no arrivals, it would run as a steady phase.
        let crowd = "[[phase]]\nkind = \"flash_crowd\"\nepochs = 20\nstart = 5\nend = 10\n\
                     surge = 4.0\n";
        for churn in ["", "[population.churn]\narrival = 0.0\ndeparture = 0.1\n"] {
            let (path, _) = field_error(&format!("{SMALL}{crowd}{churn}"));
            assert_eq!(path, "phase[1].kind", "{churn:?}");
        }
        // Each expected arrival spawns a peer, and peers are indexed with
        // u32 slots: a phase never hands the sampler a rate above u32::MAX.
        let churn = |arrival: &str| {
            format!("[population.churn]\narrival = {arrival}\ndeparture = 0.1\n")
        };
        let surge = |surge: &str| {
            format!(
                "[[phase]]\nkind = \"flash_crowd\"\nepochs = 20\nstart = 0\nend = 10\n\
                 surge = {surge}\n"
            )
        };
        let diurnal = "[[phase]]\nkind = \"diurnal\"\nepochs = 20\nperiod = 4\n\
                       amplitude = 1.7976931348623157e308\n";
        for (body, key) in [
            (churn("1e300"), "population.churn.arrival"),
            (churn("4294967296.0"), "population.churn.arrival"),
            (churn("1e300") + &surge("1e10"), "population.churn.arrival"),
            (churn("1.0") + &surge("1.7976931348623157e308"), "phase[1].surge"),
            (churn("2.0") + &surge("2147483649.0"), "phase[1].surge"),
            (diurnal.to_owned(), "phase[1].amplitude"),
        ] {
            let (path, message) = field_error(&format!("{SMALL}{body}"));
            assert_eq!(path, key, "{body}");
            assert!(message.contains("u32::MAX = 4294967295"), "{message}");
        }
        // At the bound itself, each loads (and is not run here).
        for body in [churn("4294967295.0"), churn("2.0") + &surge("2147483648.5")] {
            assert!(parse(&format!("{SMALL}{body}")).is_ok(), "{body}");
        }
        // A learner the run's own check refuses is refused at load, at its
        // field, and never reaches the run.
        let learner = |helpers: &str, fields: &str| {
            format!(
                "[population]\npeers = 8\n[[population.helpers]]\ncount = 2\n{helpers}\n\
                 [population.learner]\n{fields}\n[[phase]]\nkind = \"steady\"\nepochs = 5\n"
            )
        };
        let paper = "kind = \"paper\"\nstay = 0.9";
        for (fields, key) in [
            ("delta = 0.0", "delta"),
            ("delta = 1.0", "delta"),
            ("epsilon = 2.0", "epsilon"),
            ("algorithm = \"exp3\"\ndelta = 1.0", "delta"),
        ] {
            let (path, _) = field_error(&learner(paper, fields));
            assert_eq!(path, format!("population.learner.{key}"), "{fields}");
        }
        // With `mu` unset, μ is 4 × the helpers' fair share: here 0 or ∞.
        for level in ["0.0", "1.7976931348623157e308"] {
            let constant = format!("kind = \"constant\"\nlevel = {level}");
            let (path, message) = field_error(&learner(&constant, ""));
            assert_eq!(path, "population.learner.mu", "{level}");
            assert!(message.contains("`mu` is unset"), "{message}");
        }
    }

    /// The seven values every float key is tried at: both zeros, one, the
    /// smallest subnormal, the largest finite value, infinity and NaN.
    const BOUNDARY_VALUES: [&str; 7] =
        ["0.0", "-0.0", "1.0", "5e-324", "1.7976931348623157e308", "inf", "nan"];

    /// (key path, the spec with that key at a value, which values load)
    type BoundaryRow = (&'static str, fn(&str) -> String, [bool; 7]);

    /// Each row at each of [`BOUNDARY_VALUES`]: a value the loader accepts
    /// runs `with_epoch_cap(2)` to completion, a value it refuses is an
    /// error at that key's path (an impairment error by its plan field,
    /// under `impairment.`).
    fn check_boundary_rows(table: &[BoundaryRow]) {
        for &(key, body, accepts) in table {
            for (value, accepted) in BOUNDARY_VALUES.into_iter().zip(accepts) {
                let (path, message) = match parse(&body(value)) {
                    Ok(loaded) => {
                        assert!(accepted, "{key} = {value} loaded");
                        let report = loaded.with_epoch_cap(2).run();
                        assert_eq!(report.epochs, 2, "{key} = {value}");
                        continue;
                    }
                    Err(ScenarioError::Invalid { path, message }) => (path, message),
                    Err(ScenarioError::Impairment(e)) => {
                        (format!("impairment.{}", e.field()), e.to_string())
                    }
                    Err(other) => panic!("{key} = {value}: {other}"),
                };
                assert!(!accepted, "{key} = {value} refused: {message}");
                assert_eq!(path, key, "{key} = {value}");
            }
        }
    }

    /// The keys that reach the learner, at the edges of `f64`. Each row
    /// pins which values load.
    #[test]
    fn learner_inputs_at_float_boundaries_run_or_are_refused_at_their_path() {
        fn spec(demand: &str, level: &str, learner: &str) -> String {
            format!(
                "[population]\npeers = 4\n{demand}\n\
                 [[population.helpers]]\ncount = 2\nkind = \"constant\"\nlevel = {level}\n\
                 [population.learner]\n{learner}\n\
                 [[phase]]\nkind = \"steady\"\nepochs = 5\n"
            )
        }
        check_boundary_rows(&[
            (
                "population.learner.epsilon",
                |v| spec("", "800.0", &format!("epsilon = {v}")),
                [false, false, true, true, false, false, false],
            ),
            (
                "population.learner.delta",
                |v| spec("", "800.0", &format!("delta = {v}")),
                [false, false, false, true, false, false, false],
            ),
            (
                "population.learner.mu",
                |v| spec("", "800.0", &format!("mu = {v}")),
                [false, false, true, true, true, false, false],
            ),
            // `mu` unset: the demand caps the fair share it is derived from.
            (
                "population.demand",
                |v| spec(&format!("demand = {v}"), "800.0", ""),
                [false, false, true, true, true, false, false],
            ),
            // `mu` given, so the level alone decides.
            (
                "population.helpers[0].level",
                |v| spec("", v, "mu = 1000.0"),
                [true, true, true, true, true, false, false],
            ),
        ]);
    }

    /// Every other float key of a scenario file, at the same values and
    /// under the same rules. Each row pins which values load.
    #[test]
    fn every_float_key_at_boundaries_runs_or_is_refused_at_its_path() {
        const PROB: [bool; 7] = [true, true, true, true, false, false, false];
        const STAY: [bool; 7] = [true, true, false, true, false, false, false];
        const LEVEL: [bool; 7] = [true, true, true, true, true, false, false];
        const POSITIVE: [bool; 7] = [false, false, true, true, true, false, false];
        // Up to u32::MAX expected arrivals per epoch.
        const ARRIVALS: [bool; 7] = [true, true, true, true, false, false, false];
        // `mu` is given, so the helper's parameter alone decides.
        fn helper(kind: &str, fields: &str) -> String {
            format!(
                "[population]\npeers = 4\n\
                 [[population.helpers]]\ncount = 2\nkind = \"{kind}\"\n{fields}\n\
                 [population.learner]\nmu = 1000.0\n[[phase]]\nkind = \"steady\"\nepochs = 5\n"
            )
        }
        fn ge(good: &str, bad: &str, p_gb: &str, p_bg: &str) -> String {
            let fields = format!("good = {good}\nbad = {bad}\np_gb = {p_gb}\np_bg = {p_bg}");
            helper("gilbert_elliott", &fields)
        }
        fn shift(before: &str, after: &str) -> String {
            helper("regime_shift", &format!("before = {before}\nafter = {after}\nat = 1"))
        }
        fn churn(arrival: &str, departure: &str, phase: &str) -> String {
            format!(
                "{SMALL}{phase}[population.churn]\narrival = {arrival}\n\
                 departure = {departure}\n"
            )
        }
        fn crowd(surge: &str) -> String {
            format!(
                "[[phase]]\nkind = \"flash_crowd\"\nepochs = 4\nstart = 0\nend = 4\n\
                 surge = {surge}\n"
            )
        }
        fn multi(bitrate: &str, zipf_s: &str) -> String {
            format!(
                "[multichannel]\nchannels = 2\nbitrate = {bitrate}\nhelpers = 4\n\
                 channels_per_helper = 1\nviewers = 8\nzipf_s = {zipf_s}\n\
                 [[phase]]\nkind = \"steady\"\nepochs = 5\n"
            )
        }
        fn impairment(table: &str, fields: &str) -> String {
            format!("{SMALL}[impairment]\nseed = 1\n[impairment.{table}]\n{fields}\n")
        }
        fn loss(p_enter_bad: &str, p_exit_bad: &str, bad: &str, good: &str) -> String {
            let fields = format!(
                "kind = \"gilbert_elliott\"\np_enter_bad = {p_enter_bad}\n\
                 p_exit_bad = {p_exit_bad}\nbad_loss = {bad}\ngood_loss = {good}"
            );
            impairment("loss", &fields)
        }
        check_boundary_rows(&[
            ("population.helpers[0].stay", |v| helper("paper", &format!("stay = {v}")), STAY),
            ("population.helpers[0].good", |v| ge(v, "100.0", "0.1", "0.1"), LEVEL),
            ("population.helpers[0].bad", |v| ge("900.0", v, "0.1", "0.1"), LEVEL),
            ("population.helpers[0].p_gb", |v| ge("900.0", "100.0", v, "0.1"), PROB),
            ("population.helpers[0].p_bg", |v| ge("900.0", "100.0", "0.1", v), PROB),
            ("population.helpers[0].before", |v| shift(v, "400.0"), LEVEL),
            ("population.helpers[0].after", |v| shift("900.0", v), LEVEL),
            ("population.churn.arrival", |v| churn(v, "0.1", ""), ARRIVALS),
            ("population.churn.departure", |v| churn("1.0", v, ""), PROB),
            ("multichannel.bitrate", |v| multi(v, "1.0"), POSITIVE),
            ("multichannel.zipf_s", |v| multi("400.0", v), LEVEL),
            (
                "impairment.loss.loss",
                |v| impairment("loss", &format!("kind = \"uniform\"\nloss = {v}")),
                PROB,
            ),
            ("impairment.loss.p_enter_bad", |v| loss(v, "0.3", "0.8", "0.01"), PROB),
            ("impairment.loss.p_exit_bad", |v| loss("0.05", v, "0.8", "0.01"), PROB),
            ("impairment.loss.bad_loss", |v| loss("0.05", "0.3", v, "0.01"), PROB),
            ("impairment.loss.good_loss", |v| loss("0.05", "0.3", "0.8", v), PROB),
            (
                "impairment.token_bucket.rate_kbps",
                |v| {
                    impairment("token_bucket", &format!("rate_kbps = {v}\nburst_kbits = 900.0"))
                },
                POSITIVE,
            ),
            (
                "impairment.token_bucket.burst_kbits",
                |v| {
                    impairment("token_bucket", &format!("rate_kbps = 500.0\nburst_kbits = {v}"))
                },
                POSITIVE,
            ),
            (
                "impairment.link_bandwidth.levels",
                |v| impairment("link_bandwidth", &format!("levels = [300.0, {v}]\nstay = 0.9")),
                LEVEL,
            ),
            (
                "impairment.link_bandwidth.stay",
                |v| {
                    impairment(
                        "link_bandwidth",
                        &format!("levels = [300.0, 600.0]\nstay = {v}"),
                    )
                },
                STAY,
            ),
            // A table the loader does not know is refused at every value.
            (
                "impairment.latency",
                |v| impairment("latency", &format!("ticks = [1, 2]\nstay = {v}")),
                [false; 7],
            ),
            // `arrival × (surge − 1)` expected extra arrivals per epoch.
            (
                "phase[1].surge",
                |v| churn("1.0", "0.1", &crowd(v)),
                [false, false, true, false, false, false, false],
            ),
            (
                "phase[1].amplitude",
                |v| {
                    format!("{SMALL}[[phase]]\nkind = \"diurnal\"\nepochs = 4\nperiod = 4\namplitude = {v}\n")
                },
                ARRIVALS,
            ),
        ]);
    }

    /// The five values every integer key is tried at: −1, 0, 1, one past
    /// `u32::MAX`, and `i64::MAX` (the largest TOML integer).
    const INTEGER_VALUES: [&str; 5] = ["-1", "0", "1", "4294967296", "9223372036854775807"];

    /// (the whole spec with one key at a value, the path each value is
    /// refused at: `None` where it loads)
    type IntegerRow = (fn(&str) -> String, [Option<&'static str>; 5]);

    /// Every integer key of a scenario file at each of [`INTEGER_VALUES`]:
    /// a value the loader accepts runs `with_epoch_cap(2)` to completion, a
    /// value it refuses is an error at its row's path.
    #[test]
    fn every_integer_key_at_boundaries_runs_or_is_refused_at_its_path() {
        /// Loads at every value but −1, which is no `u64`.
        fn any(key: &'static str) -> [Option<&'static str>; 5] {
            [Some(key), None, None, None, None]
        }
        /// Loads at 1 and above.
        fn positive(key: &'static str) -> [Option<&'static str>; 5] {
            [Some(key), Some(key), None, None, None]
        }
        /// Loads at 1 only: a count in `[1, u32::MAX]` (peers, helpers,
        /// channels), or `channels_per_helper` in `[1, channels]`.
        fn one(key: &'static str) -> [Option<&'static str>; 5] {
            [Some(key), Some(key), None, Some(key), Some(key)]
        }
        /// Loads at 0 and 1 only: a channel index below 2, or an epoch
        /// within a 4-epoch phase.
        fn small(key: &'static str) -> [Option<&'static str>; 5] {
            [Some(key), None, None, Some(key), Some(key)]
        }
        /// Loads at no value: a key the loader does not know.
        fn unknown(key: &'static str) -> [Option<&'static str>; 5] {
            [Some(key); 5]
        }
        fn doc(body: &str) -> String {
            format!("version = 1\nname = \"x\"\n{body}")
        }
        fn small_with(old: &str, new: &str) -> String {
            doc(&SMALL.replace(old, new))
        }
        fn impairment(fields: &str) -> String {
            doc(&format!("{SMALL}[impairment]\n{fields}\n"))
        }
        fn crowd(epochs: &str, start: &str, end: &str) -> String {
            doc(&format!(
                "{SMALL}[[phase]]\nkind = \"flash_crowd\"\nepochs = {epochs}\nstart = {start}\n\
                 end = {end}\nsurge = 2.0\n[population.churn]\narrival = 1.0\ndeparture = 0.1\n"
            ))
        }
        fn diurnal(epochs: &str, period: &str) -> String {
            doc(&format!(
                "{SMALL}[[phase]]\nkind = \"diurnal\"\nepochs = {epochs}\nperiod = {period}\n\
                 amplitude = 1.0\n"
            ))
        }
        fn failure(epochs: &str, helper: &str) -> String {
            doc(&format!(
                "[population]\npeers = 4\n\
                 [[population.helpers]]\ncount = 2\nkind = \"paper\"\nstay = 0.9\n\
                 [[phase]]\nkind = \"helper_failure\"\nepochs = {epochs}\nhelpers = [{helper}]\n\
                 online = false\n"
            ))
        }
        fn multi(channels: &str, helpers: &str, per_helper: &str, viewers: &str) -> String {
            multi_phase(channels, helpers, per_helper, viewers, "kind = \"steady\"\nepochs = 5")
        }
        fn multi_phase(
            channels: &str,
            helpers: &str,
            per_helper: &str,
            viewers: &str,
            phase: &str,
        ) -> String {
            doc(&format!(
                "[multichannel]\nchannels = {channels}\nbitrate = 400.0\nhelpers = {helpers}\n\
                 channels_per_helper = {per_helper}\nviewers = {viewers}\nzipf_s = 1.0\n\
                 [[phase]]\n{phase}\n"
            ))
        }
        fn shift(epochs: &str, at: &str, from: &str, to: &str, count: &str) -> String {
            let phase = format!(
                "kind = \"popularity_shift\"\nepochs = {epochs}\nat = {at}\nfrom = {from}\n\
                 to = {to}\ncount = {count}"
            );
            multi_phase("2", "4", "1", "8", &phase)
        }
        fn surf(epochs: &str, period: &str, moves: &str) -> String {
            let phase = format!(
                "kind = \"channel_surf\"\nepochs = {epochs}\nperiod = {period}\nmoves = {moves}"
            );
            multi_phase("2", "4", "1", "8", &phase)
        }
        let version = |v: &str| format!("version = {v}\nname = \"x\"\n{SMALL}");
        let start_end = Some("phase[1].start/end");
        let rows: [IntegerRow; 29] = [
            (
                version,
                [Some("version"), Some("version"), None, Some("version"), Some("version")],
            ),
            (|v| doc(&format!("seed = {v}\n{SMALL}")), any("seed")),
            (|v| small_with("peers = 4", &format!("peers = {v}")), one("population.peers")),
            (
                |v| small_with("count = 1", &format!("count = {v}")),
                one("population.helpers[0].count"),
            ),
            (
                |v| {
                    small_with(
                        "kind = \"paper\"\nstay = 0.9",
                        &format!(
                            "kind = \"regime_shift\"\nbefore = 900.0\nafter = 400.0\nat = {v}"
                        ),
                    )
                },
                any("population.helpers[0].at"),
            ),
            (|v| multi(v, "4", "1", "8"), one("multichannel.channels")),
            (|v| multi("2", v, "2", "8"), one("multichannel.helpers")),
            (|v| multi("2", "4", v, "8"), one("multichannel.channels_per_helper")),
            (|v| multi("2", "4", "1", v), one("multichannel.viewers")),
            (|v| impairment(&format!("seed = {v}")), any("impairment.seed")),
            (
                |v| impairment(&format!("seed = 1\njitter_us = {v}")),
                unknown("impairment.jitter_us"),
            ),
            (
                |v| {
                    impairment(&format!(
                        "seed = 1\n[impairment.latency]\nticks = [1, {v}]\nstay = 0.9"
                    ))
                },
                unknown("impairment.latency"),
            ),
            (
                |v| small_with("epochs = 5", &format!("epochs = {v}")),
                positive("phase[0].epochs"),
            ),
            (|v| crowd(v, "0", "0"), positive("phase[1].epochs")),
            (
                |v| crowd("4", v, "4"),
                [Some("phase[1].start"), None, None, start_end, start_end],
            ),
            (|v| crowd("4", "0", v), [Some("phase[1].end"), None, None, start_end, start_end]),
            (|v| diurnal(v, "4"), positive("phase[1].epochs")),
            (|v| diurnal("4", v), positive("phase[1].period")),
            (|v| failure(v, "1"), positive("phase[0].epochs")),
            (
                |v| failure("4", v),
                [
                    Some("phase[0].helpers[0]"),
                    None,
                    None,
                    Some("phase[0].helpers"),
                    Some("phase[0].helpers"),
                ],
            ),
            (|v| shift(v, "0", "0", "1", "1"), positive("phase[0].epochs")),
            (|v| shift("4", v, "0", "1", "1"), small("phase[0].at")),
            (|v| shift("4", "1", v, "1", "1"), small("phase[0].from")),
            (|v| shift("4", "1", "0", v, "1"), small("phase[0].to")),
            (|v| shift("4", "1", "0", "1", v), any("phase[0].count")),
            (|v| surf(v, "1", "1"), positive("phase[0].epochs")),
            (|v| surf("4", v, "1"), positive("phase[0].period")),
            // `moves` is work asked of each surf event, not an index: the
            // capped run ends before the first event at `period = 2`, and
            // an uncapped one does what it asks, however long that takes.
            (|v| surf("4", "2", v), any("phase[0].moves")),
            // A second group's count is checked like the first.
            (
                |v| {
                    small_with(
                        "[[phase]]",
                        &format!(
                            "[[population.helpers]]\ncount = {v}\nkind = \"paper\"\nstay = 0.9\n\
                             [[phase]]"
                        ),
                    )
                },
                one("population.helpers[1].count"),
            ),
        ];
        for (body, refused_at) in rows {
            for (value, refused_at) in INTEGER_VALUES.into_iter().zip(refused_at) {
                let text = body(value);
                match (ScenarioSpec::from_toml_str(&text), refused_at) {
                    (Ok(spec), None) => {
                        // Two epochs, or one where the key is a one-epoch phase.
                        let capped = spec.with_epoch_cap(2);
                        assert_eq!(capped.run().epochs, capped.total_epochs(), "{text}");
                    }
                    (Err(ScenarioError::Invalid { path, .. }), Some(key)) => {
                        assert_eq!(path, key, "{text}");
                    }
                    (Ok(_), Some(key)) => {
                        panic!("loaded, but should be refused at {key}:\n{text}")
                    }
                    (Err(e), _) => panic!("{e}:\n{text}"),
                }
            }
        }
        // Past the index width, the message names the bound.
        for (text, key) in [
            (small_with("peers = 4", "peers = 4294967296"), "population.peers"),
            (multi("4294967296", "4", "1", "8"), "multichannel.channels"),
            (multi("2", "4294967296", "1", "8"), "multichannel.helpers"),
            (multi("2", "4", "1", "4294967296"), "multichannel.viewers"),
        ] {
            let Err(ScenarioError::Invalid { path, message }) =
                ScenarioSpec::from_toml_str(&text)
            else {
                panic!("{text} loaded");
            };
            assert_eq!(path, key);
            assert!(message.starts_with("must be at most u32::MAX = 4294967295 "), "{message}");
        }
        // A channel with viewers needs a helper: one helper serving one of
        // four channels leaves three uncovered. Under a steep Zipf split
        // they have no viewers, and the spec runs.
        let (path, message) =
            field_error(&multi("4", "1", "1", "40").replace("version = 1\nname = \"x\"\n", ""));
        assert_eq!(path, "multichannel.helpers");
        assert!(message.starts_with("channel 1 has viewers but no helper"), "{message}");
        let steep = multi("4", "1", "1", "8").replace("zipf_s = 1.0", "zipf_s = 50.0");
        assert_eq!(ScenarioSpec::from_toml_str(&steep).unwrap().run().epochs, 5);
        // Two groups each within the bound, summing past it: refused at the
        // list, before a helper is built.
        let group =
            "[[population.helpers]]\ncount = 2147483648\nkind = \"paper\"\nstay = 0.9\n";
        let (path, message) =
            field_error(&SMALL.replace("[[phase]]", &format!("{group}{group}[[phase]]")));
        assert_eq!(path, "population.helpers");
        assert!(message.contains("sum to 4294967297, more than u32::MAX"), "{message}");
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
