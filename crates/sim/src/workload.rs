//! Workload phases: flash crowds, diurnal cycles, helper failures,
//! popularity shifts, channel surfing.
//!
//! The intro's motivating deployments (PPLive, UUSee) face "time-varying
//! popularity of video channels" — audiences that spike when events start
//! and drain overnight. A [`WorkloadPhase`] describes one such pattern
//! declaratively, and [`WorkloadPhase::run`] drives a [`System`] through
//! it; [`crate::spec::ScenarioSpec`] chains phases into full scenarios.
//! A one-off scripted event needs no phase: call
//! [`System::set_helper_online`] or [`System::migrate_viewers`] between
//! [`System::run`]s.

use rand::rngs::StdRng;
use rths_stoch::process::FlashCrowd;
use rths_stoch::zipf::Zipf;

use crate::system::System;

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
    /// Each epoch a flash crowd hands [`System::inject_arrivals`]
    /// `λ = arrival · (surge − 1)` and a diurnal phase at most `amplitude`.
    /// Each of the `Poisson(λ)` arrivals spawns a peer in a store with `u32`
    /// slots, so the scenario loader refuses a λ above `u32::MAX`: past it
    /// the run allocates until it aborts, and an infinite λ panics here.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BandwidthSpec, SimConfig};
    use crate::multichannel::{AllocationPolicy, MultiChannelSystem};
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
        WorkloadPhase::FlashCrowd { epochs: 400, start: 100, end: 200, surge: 12.0 }.run(
            &mut sys,
            0.0,
            &mut seeded_rng(0),
        );
        let out = sys.outcome();
        let pops = out.metrics.population.values();
        let before = rths_math::stats::mean(&pops[50..100]);
        let during = rths_math::stats::mean(&pops[150..200]);
        assert!(during > before * 1.3, "no surge visible: before {before}, during {during}");
    }

    #[test]
    fn diurnal_cycles_population() {
        let mut sys = churny_system(2);
        WorkloadPhase::Diurnal { epochs: 600, period: 200, amplitude: 3.0 }.run(
            &mut sys,
            0.0,
            &mut seeded_rng(0),
        );
        let out = sys.outcome();
        let pops = out.metrics.population.values();
        // Population should vary noticeably over the cycle.
        let min = pops[100..].iter().copied().fold(f64::INFINITY, f64::min);
        let max = pops[100..].iter().copied().fold(0.0f64, f64::max);
        assert!(max - min > 10.0, "no diurnal variation: {min}..{max}");
    }

    #[test]
    fn helper_failure_phase_flips_and_runs() {
        let mut sys = churny_system(3);
        let mut rng = seeded_rng(0);
        WorkloadPhase::HelperFailure { epochs: 20, helpers: vec![0, 2], online: false }
            .run(&mut sys, 0.0, &mut rng);
        assert_eq!(sys.epoch(), 20);
        assert_eq!(sys.capacities()[0], 0.0);
        assert_eq!(sys.capacities()[2], 0.0);
        assert!(sys.capacities()[1] > 0.0);
        WorkloadPhase::HelperFailure { epochs: 10, helpers: vec![0], online: true }
            .run(&mut sys, 0.0, &mut rng);
        assert!(sys.capacities()[0] > 0.0);
    }

    #[test]
    fn popularity_shift_rebalances_channels() {
        let mut sys = MultiChannelSystem::new(SimConfig::standard(
            3,
            400.0,
            6,
            2,
            60,
            1.0,
            AllocationPolicy::WaterFilling,
            3,
        ));
        WorkloadPhase::PopularityShift { epochs: 300, at: 100, from: 0, to: 2, count: 10 }.run(
            &mut sys,
            1.0,
            &mut seeded_rng(0),
        );
        let out = sys.outcome();
        assert_eq!(out.epochs, 300);
        // System keeps serving after the shift.
        let tail = out.welfare.tail_mean(50);
        assert!(tail > 0.0);
    }

    #[test]
    fn channel_surf_phase_keeps_serving() {
        let mut sys = MultiChannelSystem::new(SimConfig::standard(
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
        WorkloadPhase::Diurnal { epochs: 10, period: 0, amplitude: 1.0 }.run(
            &mut sys,
            0.0,
            &mut seeded_rng(0),
        );
    }
}
