//! Output checks: is what the program computed correct?
//!
//! The repository's contract is bit-equivalence — every engine, thread
//! count and partitioning yields the same trajectory — so correctness is
//! checked by digest, per run and untimed:
//!
//! * all repeats of a workload and seed digest the same (so do a traced and
//!   an untraced run: stepping and `rths_obs` are trajectory-neutral);
//! * the leading epochs match a *different* implementation run here, in
//!   this process: `reactor_wide` against the simulator's `System`,
//!   `multiproc2_dense` against the single-process `ReactorRuntime`,
//!   `sim_multichannel` at two threads against one thread;
//! * where both ran at the same size, `multiproc2_dense` equals
//!   `reactor_dense` over the whole run.
//!
//! Digests are recorded in the output, never pinned in source: a
//! legitimate re-pin shows up as a reported change, not a broken benchmark.
//!
//! One epoch of one run is one operation. An epoch fails when it is
//! missing from the outcome or its welfare sample is not a finite,
//! non-negative number; every epoch of a run whose digest check fails
//! counts as failed.

use rths_net::ReactorRuntime;
use rths_sim::{MultiChannelSystem, SimMetrics, System};

use crate::digest::{to_hex, trajectory_digest};
use crate::repeat::Record;
use crate::workload::{self, Workload};

/// Digest of the first `take` epochs of a `SimMetrics` bundle's pinned series.
fn metrics_digest(m: &SimMetrics, take: usize) -> u64 {
    trajectory_digest(
        [m.welfare.values(), m.worst_empirical_regret.values(), m.server_load.values()],
        take,
    )
}

/// Runs the reference implementation for the first `check_prefix` epochs
/// of `workload` at `seed` and returns their digest; `None` for workloads
/// with no second implementation to compare against.
pub fn reference_prefix(workload: Workload, seed: u64) -> Option<u64> {
    let epochs = workload.check_prefix();
    let take = usize::try_from(epochs).ok()?;
    match workload {
        Workload::ReactorDense | Workload::SimChurnImpaired => None,
        // The simulator on the same `SimConfig`: another engine entirely.
        Workload::ReactorWide => rths_par::with_threads(1, || {
            let out = System::new(workload::sim_config(workload, seed)).run(epochs);
            Some(metrics_digest(&out.metrics, take))
        }),
        // One process, no bridge, no wire, no sockets.
        Workload::Multiproc2Dense => rths_par::with_threads(1, || {
            let mut rt = ReactorRuntime::new(workload::net_config(workload, seed));
            rt.run_epochs(epochs);
            Some(metrics_digest(&rt.finish().metrics, take))
        }),
        // One thread: no `rths_par` sharding.
        Workload::SimMultichannel => rths_par::with_threads(1, || {
            let out = MultiChannelSystem::new(workload::multichannel_config(seed)).run(epochs);
            Some(trajectory_digest(
                [
                    out.welfare.values(),
                    out.worst_empirical_regret.values(),
                    out.server_load.values(),
                ],
                take,
            ))
        }),
    }
}

/// The outcome of checking one workload's runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Operations (epochs) attempted over all runs.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Folds another workload's verdict into this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// Checks the runs of one workload at one seed and size.
///
/// `reference` is [`reference_prefix`]'s digest; `whole_run` is a digest
/// the full trajectory must equal when another workload computes the same
/// one (`reactor_dense` for `multiproc2_dense`).
pub fn check(records: &[Record], reference: Option<u64>, whole_run: Option<u64>) -> Verdict {
    let mut verdict = Verdict::default();
    let Some(first) = records.first() else {
        verdict.problems.push("no runs to check".to_string());
        return verdict;
    };
    let name = first.spec.workload.name();
    for (i, r) in records.iter().enumerate() {
        let attempted = r.spec.epochs_expected();
        let mut digest_ok = true;
        let mut fail = |what: &str, got: u64, want: u64| {
            digest_ok = false;
            verdict.problems.push(format!(
                "{name} run {i}: {what} {} != {}",
                to_hex(got),
                to_hex(want)
            ));
        };
        if r.digest != first.digest {
            fail("digest differs from run 0:", r.digest, first.digest);
        }
        if let Some(want) = reference.filter(|&want| want != r.prefix_digest) {
            fail("leading epochs differ from the reference engine:", r.prefix_digest, want);
        }
        if let Some(want) = whole_run.filter(|&want| want != r.digest) {
            fail("trajectory differs from the equivalent workload:", r.digest, want);
        }
        let missing = attempted.saturating_sub(r.epochs_seen);
        if missing > 0 {
            verdict.problems.push(format!("{name} run {i}: {missing} epochs missing"));
        }
        if r.bad_epochs > 0 {
            verdict.problems.push(format!(
                "{name} run {i}: {} epochs with a non-finite or negative welfare",
                r.bad_epochs
            ));
        }
        verdict.attempted += attempted;
        verdict.failed +=
            if digest_ok { (missing + r.bad_epochs).min(attempted) } else { attempted };
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repeat::{bad_epochs, Spec};

    /// A record as `repeat::run` would derive it from a synthetic outcome.
    fn record(welfare: &[f64], timed_epochs: u64) -> Record {
        let spec =
            Spec { workload: Workload::ReactorWide, seed: 1, timed_epochs, traced: false };
        let series = [welfare, welfare, welfare];
        Record {
            spec,
            epochs_seen: welfare.len() as u64,
            bad_epochs: bad_epochs(welfare),
            setup_s: 0.1,
            timed_s: 1.0,
            wall_s: 1.2,
            peer_epochs: 1,
            peak_rss_kb: 1,
            rss_max_kb: 1,
            cpu_s: 1.0,
            ref_blocks: 0,
            ref_s: 0.0,
            welfare_tail_kbps: 1.0,
            worst_regret_tail: 1.0,
            fairness_jain: 1.0,
            digest: trajectory_digest(series, usize::MAX),
            prefix_digest: trajectory_digest(series, 8),
            trace: None,
        }
    }

    fn healthy() -> Vec<f64> {
        (0..12).map(|e| 100.0 + f64::from(e)).collect()
    }

    #[test]
    fn equal_runs_pass() {
        let runs = vec![record(&healthy(), 8), record(&healthy(), 8), record(&healthy(), 8)];
        let reference = Some(runs[0].prefix_digest);
        let v = check(&runs, reference, Some(runs[0].digest));
        assert_eq!((v.attempted, v.failed), (36, 0));
        assert!(v.correct(), "{:?}", v.problems);
    }

    #[test]
    fn a_missing_and_a_nan_epoch_are_two_failed_operations() {
        // 4 warm-up + 8 timed = 12 expected; one run lost its last epoch
        // and carries a NaN, the other is whole.
        let mut short = healthy();
        short.pop();
        short[3] = f64::NAN;
        let runs = vec![record(&short, 8)];
        let v = check(&runs, None, None);
        assert_eq!((v.attempted, v.failed), (12, 2));
        assert!(!v.correct());
        assert_eq!(v.problems.len(), 2, "{:?}", v.problems);
        // A negative welfare is as wrong as a NaN.
        let mut negative = healthy();
        negative[0] = -1.0;
        assert_eq!(check(&[record(&negative, 8)], None, None).failed, 1);
    }

    #[test]
    fn a_corrupted_digest_fails_every_operation_of_that_run() {
        let mut runs =
            vec![record(&healthy(), 8), record(&healthy(), 8), record(&healthy(), 8)];
        runs[1].digest ^= 1;
        let v = check(&runs, None, None);
        assert_eq!((v.attempted, v.failed), (36, 12));
        assert!(!v.correct());
        assert!(v.problems[0].contains("run 1"), "{:?}", v.problems);
        // So does a prefix the reference engine disagrees with, on every
        // run, and a whole-run digest the equivalent workload disagrees
        // with.
        let runs = vec![record(&healthy(), 8), record(&healthy(), 8)];
        assert_eq!(check(&runs, Some(runs[0].prefix_digest ^ 1), None).failed, 24);
        assert_eq!(check(&runs, None, Some(runs[0].digest ^ 1)).failed, 24);
        // No runs at all is a failed check too, not a vacuous pass.
        assert!(!check(&[], None, None).correct());
    }

    #[test]
    fn verdicts_add_up() {
        let mut total = Verdict::default();
        total.absorb(check(&[record(&healthy(), 8)], None, None));
        let mut bad = healthy();
        bad[5] = f64::INFINITY;
        total.absorb(check(&[record(&bad, 8)], None, None));
        assert_eq!((total.attempted, total.failed, total.problems.len()), (24, 1, 1));
    }
}
