//! The metric half of an epoch, written once: `System::step_epoch` and
//! `rths_net`'s coordinator (which learns the same inputs from its
//! messages) both record through [`EpochMetrics`], so every
//! [`SimMetrics`] series has one definition on every backend. Tables over
//! (helper, channel) are flattened as `helper * num_channels + channel`;
//! per-peer sums run in peer order, per-channel ones in channel order.

use crate::metrics::SimMetrics;
use crate::server;

/// One run's metric state. Per epoch a host calls
/// [`allocation`](Self::allocation) before its regret record, then
/// [`settle`](Self::settle) and [`record`](Self::record); buffers are
/// refilled in place, so steady-state epochs allocate nothing.
#[derive(Debug)]
pub struct EpochMetrics {
    /// Per-viewer demand of each channel (kbps); `None` = uncapped.
    demands: Vec<Option<f64>>,
    /// `channel_helpers[c]` — global helper indices serving channel `c`.
    channel_helpers: Vec<Vec<usize>>,
    /// Channel `c`'s join rates: `join_rates[join_offsets[c]..join_offsets[c + 1]]`.
    join_offsets: Vec<usize>,
    join_rates: Vec<f64>,
    /// Delivered rate per channel, summed over epochs.
    channel_rate_sums: Vec<f64>,
    /// `Σ_j C_j^min`, the Fig. 5 minimum-deficit reference.
    helper_min: f64,
    /// This epoch's `Σ_i d_i`.
    total_demand: f64,
    series: SimMetrics,
}

impl EpochMetrics {
    /// Metrics for `num_helpers` helpers whose minimum capacities sum to
    /// `helper_min`, and one channel per `demands` entry, served by
    /// `channel_helpers[c]` in the order a viewer's learner indexes them.
    ///
    /// # Panics
    ///
    /// Panics without a channel, or unless each channel has a helper list.
    pub fn new(
        num_helpers: usize,
        helper_min: f64,
        demands: Vec<Option<f64>>,
        channel_helpers: Vec<Vec<usize>>,
    ) -> Self {
        assert!(!demands.is_empty(), "at least one channel");
        assert_eq!(demands.len(), channel_helpers.len(), "one helper list per channel");
        let mut join_offsets = vec![0];
        for helpers in &channel_helpers {
            join_offsets.push(join_offsets[join_offsets.len() - 1] + helpers.len());
        }
        Self {
            channel_rate_sums: vec![0.0; demands.len()],
            demands,
            channel_helpers,
            join_offsets,
            join_rates: Vec::new(),
            helper_min,
            total_demand: 0.0,
            series: SimMetrics::new(num_helpers),
        }
    }

    /// Global helper indices serving each channel.
    pub(crate) fn channel_helpers(&self) -> &[Vec<usize>] {
        &self.channel_helpers
    }

    /// Per-viewer demand of each channel (kbps); `None` = uncapped.
    pub(crate) fn demands(&self) -> &[Option<f64>] {
        &self.demands
    }

    /// The series so far (without the [`summary`](Self::summary) fields).
    pub fn series(&self) -> &SimMetrics {
        &self.series
    }

    /// Delivered rate per channel, summed over all epochs so far.
    pub(crate) fn channel_rate_sums(&self) -> &[f64] {
        &self.channel_rate_sums
    }

    /// The epoch's (helper, channel) `loads` — every viewer's connection —
    /// and `bandwidth`: pushes each helper's load summed over its channels,
    /// keeps `Σ d`, and returns each channel's counterfactual join rates,
    /// what a viewer would get by joining helper `j`,
    /// `min(d, bandwidth / (load + 1))`, as `(join_offsets, join_rates)`,
    /// the layout the regret record takes.
    pub fn allocation(&mut self, loads: &[usize], bandwidth: &[f64]) -> (&[usize], &[f64]) {
        let k = self.demands.len();
        for (series, row) in self.series.helper_loads.iter_mut().zip(loads.chunks_exact(k)) {
            series.push(row.iter().sum::<usize>() as f64);
        }
        self.join_rates.clear();
        let mut total_demand = 0.0;
        for (c, helpers) in self.channel_helpers.iter().enumerate() {
            let viewers: usize = helpers.iter().map(|&j| loads[j * k + c]).sum();
            total_demand += self.demands[c].unwrap_or(0.0) * viewers as f64;
            self.join_rates.extend(helpers.iter().map(|&j| {
                let raw = bandwidth[j * k + c] / (loads[j * k + c] + 1) as f64;
                match self.demands[c] {
                    Some(d) => raw.min(d),
                    None => raw,
                }
            }));
        }
        self.total_demand = total_demand;
        self.join_rates()
    }

    /// The join rates the last [`allocation`](Self::allocation) returned.
    pub(crate) fn join_rates(&self) -> (&[usize], &[f64]) {
        (&self.join_offsets, &self.join_rates)
    }

    /// The delivery pass: peer `i` got `delivered[i]` on channel
    /// `channel_of(i)`. Pushes welfare; the server load `Σ max(0, d − r)`
    /// and both deficit bounds, `Σ d` against `Σ C_min` and
    /// `helper_now = Σ C(t)`; population and Jain, `welfare² / (n · Σ r²)`.
    ///
    /// One pass in peer order folds welfare, the channel sums, the server
    /// load and `Σ r²` side by side, so no fold waits for another. Welfare
    /// starts at `0.0`, the load and `Σ r²` at `-0.0` (where an `f64`
    /// `Iterator::sum` starts), so each has the bits of a separate sum
    /// over its column: an empty epoch's load is `-0.0`. Jain's own `Σ r`
    /// would differ from welfare at most in the sign of a zero, which
    /// squaring drops; an empty or all-zero population has Jain 1.
    pub fn settle(
        &mut self,
        delivered: &[f64],
        channel_of: impl Fn(usize) -> usize,
        helper_now: f64,
    ) {
        let (mut welfare, mut load, mut squares) = (0.0, -0.0, -0.0);
        for (i, &rate) in delivered.iter().enumerate() {
            let c = channel_of(i);
            welfare += rate;
            self.channel_rate_sums[c] += rate;
            let residual = match self.demands[c] {
                Some(d) => (d - rate).max(0.0),
                None => 0.0,
            };
            server::absorb(&mut load, residual);
            squares += rate * rate;
        }
        let server = server::settle_epoch(load, self.total_demand, self.helper_min, helper_now);
        let n = delivered.len() as f64;
        let m = &mut self.series;
        m.welfare.push(welfare);
        m.server_load.push(server.load);
        m.min_deficit.push(server.min_deficit);
        m.current_deficit.push(server.current_deficit);
        m.population.push(n);
        m.jain.push(if squares == 0.0 { 1.0 } else { welfare * welfare / (n * squares) });
    }

    /// Pushes the epoch's worst true regret, the worst learner estimate
    /// if the host tracks it, and the count of peers that switched helper.
    pub fn record(&mut self, worst: f64, estimate: Option<f64>, switches: u64) {
        let m = &mut self.series;
        if let Some(estimate) = estimate {
            m.worst_regret_estimate.push(estimate);
        }
        m.worst_empirical_regret.push(worst);
        m.switches.push(switches as f64);
    }

    /// The series plus the end-of-run summaries: each helper's mean load,
    /// and the `(mean rate, continuity)` of every peer alive at the end,
    /// in peer order.
    pub fn summary(&self, peers: impl IntoIterator<Item = (f64, f64)>) -> SimMetrics {
        let mut metrics = self.series.clone();
        let denom = metrics.epochs().max(1) as f64;
        metrics.mean_helper_loads = metrics
            .helper_loads
            .iter()
            .map(|s| s.values().iter().sum::<f64>() / denom)
            .collect();
        (metrics.mean_peer_rates, metrics.peer_continuity) = peers.into_iter().unzip();
        metrics
    }
}

/// A peer's realized rate under its channel's demand cap (`None` =
/// uncapped), and whether the epoch counts toward its continuity.
pub fn cap_to_demand(rate: f64, demand: Option<f64>) -> (f64, bool) {
    match demand {
        Some(d) => {
            let r = rate.min(d);
            (r, r >= d - 1e-9)
        }
        None => (rate, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts every series `m` recorded, `to_bits`.
    #[allow(clippy::too_many_arguments)]
    fn assert_series(
        m: &SimMetrics,
        welfare: &[f64],
        server_load: &[f64],
        min_deficit: &[f64],
        current_deficit: &[f64],
        population: &[f64],
        jain: &[f64],
        helper_loads: &[&[f64]],
    ) {
        assert_eq!(bits(m.welfare.values()), bits(welfare), "welfare");
        assert_eq!(bits(m.server_load.values()), bits(server_load), "server_load");
        assert_eq!(bits(m.min_deficit.values()), bits(min_deficit), "min_deficit");
        assert_eq!(bits(m.current_deficit.values()), bits(current_deficit), "current_deficit");
        assert_eq!(bits(m.population.values()), bits(population), "population");
        assert_eq!(bits(m.jain.values()), bits(jain), "jain");
        assert_eq!(m.helper_loads.len(), helper_loads.len());
        for (j, (got, want)) in m.helper_loads.iter().zip(helper_loads).enumerate() {
            assert_eq!(bits(got.values()), bits(want), "helper {j} load");
        }
    }

    /// The multi-pass settle the one-pass [`EpochMetrics::settle`]
    /// replaced, kept as its reference: a residual column, then
    /// `Iterator::sum` over it, and Jain from `rths_math::stats`. Folds
    /// the channel sums into `channel_rate_sums` and returns the six
    /// values the settle pushes, in series order.
    fn multi_pass_settle(
        demands: &[Option<f64>],
        total_demand: f64,
        helper_min: f64,
        delivered: &[f64],
        channels: &[usize],
        helper_now: f64,
        channel_rate_sums: &mut [f64],
    ) -> [f64; 6] {
        let mut welfare = 0.0;
        let mut residuals = Vec::new();
        for (&rate, &c) in delivered.iter().zip(channels) {
            welfare += rate;
            channel_rate_sums[c] += rate;
            residuals.push(match demands[c] {
                Some(d) => (d - rate).max(0.0),
                None => 0.0,
            });
        }
        assert!(residuals.iter().all(|r| r.is_finite() && *r >= 0.0));
        [
            welfare,
            residuals.iter().sum(),
            (total_demand - helper_min).max(0.0),
            (total_demand - helper_now).max(0.0),
            delivered.len() as f64,
            rths_math::stats::jain_index(delivered),
        ]
    }

    /// Settles each epoch of `epochs` (viewer `i` on `channels[i]`, one
    /// helper per channel) through [`EpochMetrics::settle`] and through
    /// [`multi_pass_settle`], and asserts every pushed value and the
    /// channel sums equal, `to_bits`. Returns the metrics.
    fn assert_settles_like_multi_pass(
        demands: Vec<Option<f64>>,
        channels: &[usize],
        epochs: &[&[f64]],
    ) -> EpochMetrics {
        let k = demands.len();
        let mut em =
            EpochMetrics::new(k, 700.0, demands.clone(), (0..k).map(|c| vec![c]).collect());
        let mut loads = vec![0; k * k];
        for &c in channels {
            loads[c * k + c] += 1;
        }
        let mut sums = vec![0.0; k];
        for (e, delivered) in epochs.iter().enumerate() {
            let _ = em.allocation(&loads, &vec![400.0; k * k]);
            let helper_now = 600.0 + 250.0 * e as f64;
            let want = multi_pass_settle(
                &demands,
                em.total_demand,
                700.0,
                delivered,
                channels,
                helper_now,
                &mut sums,
            );
            em.settle(delivered, |i| channels[i], helper_now);
            let m = em.series();
            let got = [
                &m.welfare,
                &m.server_load,
                &m.min_deficit,
                &m.current_deficit,
                &m.population,
                &m.jain,
            ]
            .map(|series| series.values()[e]);
            assert_eq!(bits(&got), bits(&want), "epoch {e}: {got:?} vs {want:?}");
            assert_eq!(bits(em.channel_rate_sums()), bits(&sums), "epoch {e} channel sums");
        }
        em
    }

    #[test]
    fn one_pass_settle_matches_the_multi_pass_bitwise() {
        // Empty population: the load is the empty sum, −0.0, and Jain 1.
        let em = assert_settles_like_multi_pass(vec![Some(500.0)], &[], &[&[], &[]]);
        assert_eq!(em.series().server_load.values()[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(em.series().jain.values(), &[1.0, 1.0]);

        // All-zero rates, uncapped (every residual +0.0) and capped.
        for demand in [None, Some(300.0)] {
            let em = assert_settles_like_multi_pass(vec![demand], &[0; 4], &[&[0.0; 4]]);
            assert_eq!(em.series().jain.values(), &[1.0]);
        }

        // A first rate of −0.0, alone and ahead of positive rates.
        for demand in [None, Some(300.0)] {
            assert_settles_like_multi_pass(
                vec![demand],
                &[0; 3],
                &[&[-0.0, -0.0, -0.0], &[-0.0, 120.5, 0.1], &[-0.0, 0.0, -0.0]],
            );
        }

        // Capped and uncapped channels, rates that do not sum exactly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let mut draw = |n: usize| -> Vec<f64> {
            (0..n).map(|_| rand::Rng::gen_range(&mut rng, 0.0..900.0)).collect()
        };
        let (a, b) = (draw(64), draw(64));
        let halves: Vec<usize> = (0..64).map(|i| i / 32).collect();
        assert_settles_like_multi_pass(vec![Some(450.0), None], &halves, &[&a, &b]);

        // K = 3 with interleaved channels: capped, uncapped, capped.
        let (a, b, c) = (draw(99), draw(99), draw(99));
        let interleaved: Vec<usize> = (0..99).map(|i| (i * 7) % 3).collect();
        assert_settles_like_multi_pass(
            vec![Some(400.0), None, Some(200.0)],
            &interleaved,
            &[&a, &b, &c],
        );
    }

    /// K = 1, demand 500, three helpers: helper 1 has no viewer in epoch
    /// 0, helper 2 is offline (capacity 0) throughout. Every expected
    /// value is worked by hand from exact binary fractions.
    #[test]
    fn single_channel_epochs_by_hand() {
        let mut em = EpochMetrics::new(3, 1400.0, vec![Some(500.0)], vec![vec![0, 1, 2]]);
        let bandwidth = [900.0, 600.0, 0.0];

        // Epoch 0: two viewers on helper 0 (450 each), one on the
        // offline helper 2 (0).
        let loads = [2, 0, 1];
        let (offsets, rates) = em.allocation(&loads, &bandwidth);
        // 900/3 = 300; 600/1 = 600 capped to 500; 0/2 = 0.
        assert_eq!(offsets, &[0, 3]);
        assert_eq!(bits(rates), bits(&[300.0, 500.0, 0.0]));
        em.settle(&[450.0, 450.0, 0.0], |_| 0, 1500.0);
        em.record(1.5, Some(0.25), 0);

        // Epoch 1: one viewer per helper; peer 0's host delivered above
        // the demand, which leaves no negative residual.
        let loads = [1, 1, 1];
        let (_, rates) = em.allocation(&loads, &bandwidth);
        // 900/2 = 450; 600/2 = 300; 0/2 = 0.
        assert_eq!(bits(rates), bits(&[450.0, 300.0, 0.0]));
        em.settle(&[600.0, 300.0, 0.0], |_| 0, 1500.0);
        em.record(0.75, Some(0.5), 2);

        let m = em.series();
        assert_series(
            m,
            &[900.0, 900.0],
            // Residuals 50 + 50 + 500, then 0 + 200 + 500.
            &[600.0, 700.0],
            // Σ d = 500 · 3 against Σ C_min = 1400 and Σ C(t) = 1500.
            &[100.0, 100.0],
            &[0.0, 0.0],
            &[3.0, 3.0],
            // 900² / (3 · 2 · 450²) and 900² / (3 · (600² + 300²)).
            &[2.0 / 3.0, 3.0 / 5.0],
            &[&[2.0, 1.0], &[0.0, 1.0], &[1.0, 1.0]],
        );
        assert_eq!(bits(m.worst_empirical_regret.values()), bits(&[1.5, 0.75]));
        assert_eq!(bits(m.worst_regret_estimate.values()), bits(&[0.25, 0.5]));
        assert_eq!(bits(m.switches.values()), bits(&[0.0, 2.0]));
        assert_eq!(bits(em.channel_rate_sums()), bits(&[1800.0]));

        let summary = em.summary([(450.0, 0.5), (375.0, 1.0), (0.0, 0.0)]);
        assert_eq!(bits(&summary.mean_helper_loads), bits(&[1.5, 0.5, 1.0]));
        assert_eq!(bits(&summary.mean_peer_rates), bits(&[450.0, 375.0, 0.0]));
        assert_eq!(bits(&summary.peer_continuity), bits(&[0.5, 1.0, 0.0]));
        assert_eq!(summary.welfare.values(), m.welfare.values());
    }

    /// K = 3: channel 0 capped at 400, channel 1 uncapped, channel 2
    /// capped at 200. Helper 0 serves channels 0 and 1, helper 1 channels
    /// 1 and 2, helper 2 channel 0 without a viewer, helper 3 channel 2,
    /// offline in epoch 0 and at 400 kbps in epoch 1.
    #[test]
    fn three_channel_epochs_by_hand() {
        let mut em = EpochMetrics::new(
            4,
            1200.0,
            vec![Some(400.0), None, Some(200.0)],
            vec![vec![0, 2], vec![0, 1], vec![1, 3]],
        );
        // (helper, channel) tables, row-major over 3 channels.
        let mut loads = [0usize; 12];
        let mut bandwidth = [0.0f64; 12];
        for (j, c, load, bw) in [
            (0, 0, 2, 600.0),
            (0, 1, 1, 300.0),
            (1, 1, 1, 500.0),
            (1, 2, 2, 300.0),
            (2, 0, 0, 800.0),
            (3, 2, 1, 0.0),
        ] {
            loads[j * 3 + c] = load;
            bandwidth[j * 3 + c] = bw;
        }
        let channels = [0, 1, 2, 0, 1, 2, 2];

        let (offsets, rates) = em.allocation(&loads, &bandwidth);
        // Channel 0: 600/3 = 200, 800/1 capped to 400; channel 1: 300/2,
        // 500/2 (uncapped); channel 2: 300/3 = 100, 0/2 = 0.
        assert_eq!(offsets, &[0, 2, 4, 6]);
        assert_eq!(bits(rates), bits(&[200.0, 400.0, 150.0, 250.0, 100.0, 0.0]));
        // Peer 6 watches channel 2 on the offline helper 3.
        let delivered = [300.0, 300.0, 150.0, 300.0, 500.0, 150.0, 0.0];
        em.settle(&delivered, |i| channels[i], 2500.0);
        em.record(2.0, None, 1);

        bandwidth[3 * 3 + 2] = 400.0;
        let (_, rates) = em.allocation(&loads, &bandwidth);
        // Helper 3 now offers 400/2 = 200, exactly channel 2's cap.
        assert_eq!(bits(rates), bits(&[200.0, 400.0, 150.0, 250.0, 100.0, 200.0]));
        let delivered = [300.0, 300.0, 150.0, 300.0, 500.0, 150.0, 200.0];
        em.settle(&delivered, |i| channels[i], 2900.0);
        em.record(1.0, None, 0);

        let m = em.series();
        assert_series(
            m,
            &[1700.0, 1900.0],
            // Residuals 100 + 0 + 50 + 100 + 0 + 50 + 200, then the last
            // one 0; the uncapped channel owes nothing.
            &[500.0, 300.0],
            // Σ d = 400 · 2 + 0 · 2 + 200 · 3 = 1400 against 1200, then
            // against 2500 and 2900.
            &[200.0, 200.0],
            &[0.0, 0.0],
            &[7.0, 7.0],
            // 1700² / (7 · 565000) and 1900² / (7 · 605000).
            &[2_890_000.0 / 3_955_000.0, 3_610_000.0 / 4_235_000.0],
            // Summed over each helper's channels.
            &[&[3.0, 3.0], &[3.0, 3.0], &[0.0, 0.0], &[1.0, 1.0]],
        );
        assert_eq!(bits(m.worst_empirical_regret.values()), bits(&[2.0, 1.0]));
        assert!(m.worst_regret_estimate.is_empty());
        assert_eq!(bits(m.switches.values()), bits(&[1.0, 0.0]));
        assert_eq!(bits(em.channel_rate_sums()), bits(&[1200.0, 1600.0, 800.0]));
        let summary = em.summary([]);
        assert_eq!(bits(&summary.mean_helper_loads), bits(&[3.0, 3.0, 0.0, 1.0]));
        assert!(summary.mean_peer_rates.is_empty() && summary.peer_continuity.is_empty());
    }
}
