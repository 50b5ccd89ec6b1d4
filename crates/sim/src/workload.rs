//! Workload phases: flash crowds, diurnal cycles, helper failures,
//! popularity shifts, channel surfing.
//!
//! The intro's motivating deployments (PPLive, UUSee) face "time-varying
//! popularity of video channels" — audiences that spike when events start
//! and drain overnight. A [`WorkloadPhase`] describes one such pattern
//! declaratively; [`crate::spec::ScenarioSpec`] chains phases into full
//! scenarios, and the historical free functions ([`run_flash_crowd`],
//! [`run_diurnal`]) remain as thin wrappers over single phases.

use rand::rngs::StdRng;
use rths_stoch::process::FlashCrowd;
use rths_stoch::zipf::Zipf;

use crate::multichannel::{MultiChannelOutcome, MultiChannelSystem};
use crate::system::{Outcome, System};

/// One declarative stage of a scenario's timeline. Time fields (`start`,
/// `end`, `at`) are **relative to the phase's own start**, so phases
/// compose without the author tracking cumulative epochs.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadPhase {
    /// Plain epochs: only the configured churn and bandwidth dynamics.
    Steady {
        /// Phase length in epochs.
        epochs: u64,
    },
    /// A flash crowd: during `[start, end)` (phase-relative) the
    /// configured churn arrival rate is multiplied by `surge` via direct
    /// peer injection.
    FlashCrowd {
        /// Phase length in epochs.
        epochs: u64,
        /// Surge onset, relative to the phase start.
        start: u64,
        /// Surge end (exclusive), relative to the phase start.
        end: u64,
        /// Arrival-rate multiplier during the surge (≥ 1).
        surge: f64,
    },
    /// Sinusoidal diurnal modulation: expected extra arrivals per epoch
    /// follow `amplitude · max(0, sin(2π·epoch/period))`; departures are
    /// left to the configured churn.
    Diurnal {
        /// Phase length in epochs.
        epochs: u64,
        /// Cycle length in epochs.
        period: u64,
        /// Peak extra-arrival rate.
        amplitude: f64,
    },
    /// Sets the listed helpers' online state at the phase start, then
    /// runs plain epochs while the peers *learn* the change (they are
    /// never notified). `online = false` injects a failure, `true` a
    /// recovery.
    HelperFailure {
        /// Phase length in epochs.
        epochs: u64,
        /// Helper indices to flip.
        helpers: Vec<usize>,
        /// Target state for those helpers.
        online: bool,
    },
    /// Multi-channel: at `at` (phase-relative), `count` viewers migrate
    /// `from` one channel `to` another.
    PopularityShift {
        /// Phase length in epochs.
        epochs: u64,
        /// Migration epoch, relative to the phase start.
        at: u64,
        /// Source channel.
        from: usize,
        /// Destination channel.
        to: usize,
        /// Number of viewers to move.
        count: usize,
    },
    /// Multi-channel channel surfing with Zipf drift: every `period`
    /// epochs the popularity ranking rotates by one channel, and `moves`
    /// viewers each hop from a uniformly chosen channel to a
    /// Zipf-sampled destination under the rotated ranking.
    ChannelSurf {
        /// Phase length in epochs.
        epochs: u64,
        /// Epochs between surf events.
        period: u64,
        /// Viewers hopping per event.
        moves: usize,
    },
}

impl WorkloadPhase {
    /// Phase length in epochs.
    pub fn epochs(&self) -> u64 {
        match self {
            WorkloadPhase::Steady { epochs }
            | WorkloadPhase::FlashCrowd { epochs, .. }
            | WorkloadPhase::Diurnal { epochs, .. }
            | WorkloadPhase::HelperFailure { epochs, .. }
            | WorkloadPhase::PopularityShift { epochs, .. }
            | WorkloadPhase::ChannelSurf { epochs, .. } => *epochs,
        }
    }

    /// Whether the phase only makes sense on a K > 1 population.
    pub fn is_multichannel(&self) -> bool {
        matches!(
            self,
            WorkloadPhase::PopularityShift { .. } | WorkloadPhase::ChannelSurf { .. }
        )
    }

    /// Advances `system` through this phase. `zipf_s` (the popularity
    /// exponent) and `rng` (a dedicated stream, so the system's own
    /// streams stay untouched) drive `ChannelSurf`'s event sampling; the
    /// other phases ignore them.
    ///
    /// Which phases make sense on which population is the scenario
    /// validator's call ([`crate::spec`]); the engine itself only insists
    /// on valid indices.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range helper or channel indices, a zero `period`
    /// or a negative `amplitude`.
    pub fn run(&self, system: &mut System, zipf_s: f64, rng: &mut StdRng) {
        let steady = |system: &mut System, epochs: u64| {
            for _ in 0..epochs {
                system.step_epoch();
            }
        };
        match self {
            WorkloadPhase::Steady { epochs } => steady(system, *epochs),
            WorkloadPhase::FlashCrowd { epochs, start, end, surge } => {
                let base = system.epoch();
                let crowd = FlashCrowd::new(base + start, base + end, *surge);
                let until = base + epochs;
                while system.epoch() < until {
                    let factor = crowd.factor_at(system.epoch());
                    if factor > 1.0 {
                        // Surge arrivals beyond the configured churn:
                        // (factor-1)·λ expected extra joins this epoch.
                        let lambda = system.config_arrival_rate() * (factor - 1.0);
                        system.inject_arrivals(lambda);
                    }
                    system.step_epoch();
                }
            }
            WorkloadPhase::Diurnal { epochs, period, amplitude } => {
                assert!(*period > 0, "period must be positive");
                assert!(*amplitude >= 0.0, "amplitude must be non-negative");
                let until = system.epoch() + epochs;
                while system.epoch() < until {
                    let phase = (system.epoch() % period) as f64 / *period as f64;
                    let lambda = amplitude * (std::f64::consts::TAU * phase).sin().max(0.0);
                    if lambda > 0.0 {
                        system.inject_arrivals(lambda);
                    }
                    system.step_epoch();
                }
            }
            WorkloadPhase::HelperFailure { epochs, helpers, online } => {
                for &j in helpers {
                    system.set_helper_online(j, *online);
                }
                steady(system, *epochs);
            }
            WorkloadPhase::PopularityShift { epochs, at, from, to, count } => {
                let at = (*at).min(*epochs);
                steady(system, at);
                system.migrate_viewers(*from, *to, *count);
                steady(system, epochs - at);
            }
            WorkloadPhase::ChannelSurf { epochs, period, moves } => {
                assert!(*period > 0, "period must be positive");
                let channels = system.num_channels();
                let zipf = Zipf::new(channels, zipf_s);
                let mut t = 0u64;
                let mut event = 0u64;
                while t < *epochs {
                    let chunk = (*period).min(epochs - t);
                    steady(system, chunk);
                    t += chunk;
                    if t >= *epochs {
                        break;
                    }
                    event += 1;
                    // The ranking rotates by one channel per event; each
                    // hop leaves a uniform channel for a Zipf-ranked one
                    // under the rotated ranking.
                    let rotation = (event as usize) % channels;
                    for _ in 0..*moves {
                        let from = rand::Rng::gen_range(&mut *rng, 0..channels);
                        let to = (zipf.sample(rng) + rotation) % channels;
                        if from != to {
                            system.migrate_viewers(from, to, 1);
                        }
                    }
                }
            }
        }
    }
}

/// Runs a phase that samples nothing of its own (every kind but
/// `ChannelSurf`).
fn run_unsampled(phase: &WorkloadPhase, system: &mut System) {
    phase.run(system, 0.0, &mut rths_stoch::rng::seeded_rng(0));
}

/// Runs `system` through a flash crowd: during `[crowd.start, crowd.end)`
/// (absolute epochs) the configured churn arrivals are multiplied by
/// `crowd.surge_factor` via direct peer injection.
///
/// Thin wrapper over [`WorkloadPhase::FlashCrowd`]; returns the
/// cumulative outcome after `epochs` epochs.
pub fn run_flash_crowd(system: &mut System, epochs: u64, crowd: FlashCrowd) -> Outcome {
    let base = system.epoch();
    let phase = WorkloadPhase::FlashCrowd {
        epochs,
        // The legacy API takes absolute surge epochs; the phase is
        // relative to its own start.
        start: crowd.start.saturating_sub(base),
        end: crowd.end.saturating_sub(base),
        surge: crowd.surge_factor,
    };
    run_unsampled(&phase, system);
    system.outcome()
}

/// Sinusoidal diurnal modulation (thin wrapper over
/// [`WorkloadPhase::Diurnal`]).
///
/// # Panics
///
/// Panics if `period == 0` or `amplitude < 0`.
pub fn run_diurnal(system: &mut System, epochs: u64, period: u64, amplitude: f64) -> Outcome {
    run_unsampled(&WorkloadPhase::Diurnal { epochs, period, amplitude }, system);
    system.outcome()
}

/// A scheduled popularity shift for multi-channel systems: at `epoch`,
/// `count` viewers migrate `from` one channel `to` another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopularityShift {
    /// Epoch of the migration.
    pub epoch: u64,
    /// Source channel.
    pub from: usize,
    /// Destination channel.
    pub to: usize,
    /// Number of viewers to move.
    pub count: usize,
}

/// Runs a multi-channel system through a sequence of popularity shifts.
pub fn run_with_shifts(
    system: &mut MultiChannelSystem,
    epochs: u64,
    shifts: &[PopularityShift],
) -> MultiChannelOutcome {
    let end = system.epoch() + epochs;
    let mut pending: Vec<&PopularityShift> =
        shifts.iter().filter(|s| s.epoch >= system.epoch() && s.epoch < end).collect();
    pending.sort_by_key(|s| s.epoch);
    let mut next = 0usize;
    while system.epoch() < end {
        while next < pending.len() && pending[next].epoch == system.epoch() {
            let s = pending[next];
            system.migrate_viewers(s.from, s.to, s.count);
            next += 1;
        }
        system.step_epoch();
    }
    system.outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BandwidthSpec, SimConfig};
    use crate::multichannel::{AllocationPolicy, MultiChannelConfig};
    use rths_stoch::process::ChurnProcess;
    use rths_stoch::rng::seeded_rng;

    fn churny_system(seed: u64) -> System {
        System::new(
            SimConfig::builder(30, vec![BandwidthSpec::Paper { stay: 0.98 }; 4])
                .churn(ChurnProcess::new(0.5, 0.02))
                .seed(seed)
                .build(),
        )
    }

    #[test]
    fn flash_crowd_grows_population_during_surge() {
        let mut sys = churny_system(1);
        let crowd = FlashCrowd::new(100, 200, 12.0);
        let out = run_flash_crowd(&mut sys, 400, crowd);
        let pops = out.metrics.population.values();
        let before = rths_math::stats::mean(&pops[50..100]);
        let during = rths_math::stats::mean(&pops[150..200]);
        assert!(during > before * 1.3, "no surge visible: before {before}, during {during}");
    }

    #[test]
    fn flash_crowd_wrapper_matches_phase() {
        // The wrapper is a pure re-expression of the phase: identical
        // trajectories, bit for bit.
        let mut via_wrapper = churny_system(7);
        let out_w = run_flash_crowd(&mut via_wrapper, 300, FlashCrowd::new(50, 120, 8.0));
        let mut via_phase = churny_system(7);
        run_unsampled(
            &WorkloadPhase::FlashCrowd { epochs: 300, start: 50, end: 120, surge: 8.0 },
            &mut via_phase,
        );
        let out_p = via_phase.outcome();
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(out_w.metrics.welfare.values()), bits(out_p.metrics.welfare.values()));
        assert_eq!(
            bits(out_w.metrics.population.values()),
            bits(out_p.metrics.population.values())
        );
    }

    #[test]
    fn diurnal_cycles_population() {
        let mut sys = churny_system(2);
        let out = run_diurnal(&mut sys, 600, 200, 3.0);
        let pops = out.metrics.population.values();
        // Population should vary noticeably over the cycle.
        let min = pops[100..].iter().copied().fold(f64::INFINITY, f64::min);
        let max = pops[100..].iter().copied().fold(0.0f64, f64::max);
        assert!(max - min > 10.0, "no diurnal variation: {min}..{max}");
    }

    #[test]
    fn helper_failure_phase_flips_and_runs() {
        let mut sys = churny_system(3);
        run_unsampled(
            &WorkloadPhase::HelperFailure { epochs: 20, helpers: vec![0, 2], online: false },
            &mut sys,
        );
        assert_eq!(sys.epoch(), 20);
        assert_eq!(sys.capacities()[0], 0.0);
        assert_eq!(sys.capacities()[2], 0.0);
        assert!(sys.capacities()[1] > 0.0);
        run_unsampled(
            &WorkloadPhase::HelperFailure { epochs: 10, helpers: vec![0], online: true },
            &mut sys,
        );
        assert!(sys.capacities()[0] > 0.0);
    }

    #[test]
    fn popularity_shift_rebalances_channels() {
        let mut sys = MultiChannelSystem::new(MultiChannelConfig::standard(
            3,
            400.0,
            6,
            2,
            60,
            1.0,
            AllocationPolicy::WaterFilling,
            3,
        ));
        let shifts = [PopularityShift { epoch: 100, from: 0, to: 2, count: 10 }];
        let out = run_with_shifts(&mut sys, 300, &shifts);
        assert_eq!(out.epochs, 300);
        // System keeps serving after the shift.
        let tail = out.welfare.tail_mean(50);
        assert!(tail > 0.0);
    }

    #[test]
    fn channel_surf_phase_keeps_serving() {
        let mut sys = MultiChannelSystem::new(MultiChannelConfig::standard(
            3,
            400.0,
            6,
            2,
            60,
            1.2,
            AllocationPolicy::WaterFilling,
            5,
        ));
        let mut rng = seeded_rng(99);
        WorkloadPhase::ChannelSurf { epochs: 120, period: 20, moves: 4 }
            .run(&mut sys, 1.2, &mut rng);
        let out = sys.outcome();
        assert_eq!(out.epochs, 120);
        assert!(out.welfare.tail_mean(30) > 0.0);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let mut sys = churny_system(4);
        let _ = run_diurnal(&mut sys, 10, 0, 1.0);
    }
}
