//! Layer probes: the authoritative per-layer numbers.
//!
//! A probe times calls into one layer's **public** functions from outside,
//! on inputs shaped like a named workload, and reports the median of
//! [`PASSES`] passes. `rths_obs` cannot give these numbers yet — its
//! `mailbox_drain` phase contains the actor handlers, and the bridge, codec
//! and sockets emit no spans at all — and spans inside the program are a
//! later change; until then the probes say what a message, a timer, a
//! frame or a learner update costs on its own.
//!
//! The probes take no seed from the command line: their inputs are fixed,
//! so a probe's counts (columns touched, folds, bytes per message, ring
//! high-water marks) repeat exactly and its times measure the same work in
//! every run and on every commit.

mod core_layers;
mod net_layers;
mod reactor_layers;
mod sim_layers;

use std::collections::BTreeMap;

use crate::clock;
use crate::stats;

/// Timed passes per probe; the reported value is their median.
pub const PASSES: usize = 5;

/// Seed of every probe input.
const PROBE_SEED: u64 = 0x5eed_1a7e;

/// Metric name → value.
pub type Readings = BTreeMap<String, f64>;

/// Seconds `f` takes.
fn secs<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = clock::now();
    let out = f();
    (clock::secs_since(start), out)
}

/// Median of [`PASSES`] calls of `pass`, each returning what it measured.
fn median_of_passes(mut pass: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..PASSES).map(|_| pass()).collect();
    stats::median(&samples)
}

/// Runs every probe, bottom layer first.
pub fn run_all() -> Readings {
    let mut out = Readings::new();
    core_layers::probe(&mut out);
    sim_layers::probe(&mut out);
    reactor_layers::probe(&mut out);
    net_layers::probe(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_passes_takes_the_middle_pass() {
        let mut values = [5.0, 1.0, 9.0, 3.0, 7.0].into_iter();
        assert_eq!(median_of_passes(|| values.next().unwrap()), 5.0);
        let (elapsed, out) = secs(|| 42);
        assert!(elapsed >= 0.0 && out == 42);
    }
}
