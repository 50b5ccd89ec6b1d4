//! Umbrella crate for the RTHS reproduction.
//!
//! Re-exports the workspace's public API so examples and downstream users
//! can depend on a single crate. See the individual crates for details:
//!
//! * [`rths_core`] — the RTHS/R2HS learner (the paper's contribution), its
//!   scalar oracle and the baselines it is compared with;
//! * [`rths_sim`] — the streaming-system simulator (evaluation substrate);
//! * [`rths_net`] — the decentralized message-passing runtimes (the
//!   reactor backend, in one process or sharded across several);
//! * [`rths_reactor`] — the deterministic event-loop actor runtime;
//! * [`rths_par`] — the deterministic data-parallel runtime;
//! * [`rths_stoch`], [`rths_math`] — supporting substrates;
//! * [`rths_oracle`] — the reference the rest is checked against: the
//!   helper-selection game and its equilibria, the centralized MDP
//!   optimum and the LP solver.

#![forbid(unsafe_code)]

pub use rths_core as core;
pub use rths_math as math;
pub use rths_net as net;
pub use rths_oracle as oracle;
pub use rths_par as par;
pub use rths_reactor as reactor;
pub use rths_sim as sim;
pub use rths_stoch as stoch;

/// Renders a numeric series as a one-line unicode sparkline — used by the
/// examples to show time series in the terminal.
///
/// # Example
///
/// ```
/// let line = rths_suite::sparkline(&[0.0, 1.0, 2.0, 3.0], 4);
/// assert_eq!(line.chars().count(), 4);
/// ```
pub fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let stride = (values.len() as f64 / width as f64).max(1.0);
    let mut out = String::new();
    let mut idx = 0.0;
    while (idx as usize) < values.len() && out.chars().count() < width {
        let lo = idx as usize;
        let hi = ((idx + stride) as usize).min(values.len()).max(lo + 1);
        let mean: f64 = values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        let level = (((mean - min) / span) * 7.0).round() as usize;
        out.push(BARS[level.min(7)]);
        idx += stride;
    }
    out
}

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use rths_core::{Learner, RecencyMode, RthsConfig, SlabLearner};
    pub use rths_net::{Backend, NetConfig, ReactorRuntime};
    pub use rths_oracle::{equilibrium::JointDistribution, HelperSelectionGame, MdpBenchmark};
    pub use rths_sim::{
        Algorithm, AllocationPolicy, BandwidthSpec, ImpairmentPlan, LearnerSpec,
        MultiChannelSystem, Scenario, ScenarioSpec, SimConfig, System, WorkloadPhase,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_importable() {
        use crate::prelude::*;
        let _ = RthsConfig::builder(2).build().unwrap();
        let _ = HelperSelectionGame::new(vec![800.0]);
    }
}
