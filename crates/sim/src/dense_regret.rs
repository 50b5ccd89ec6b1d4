//! The dense reference for [`RegretLedger`](crate::regret::RegretLedger):
//! one row per peer, updated `O(h)` every epoch. It is the oracle the
//! stretch-folding tests compare against bit for bit (on integral
//! workloads, see the `regret` module docs), and it is compiled into tests
//! only.

use rths_core::compact_column;

/// Dense true-regret accounting: per peer, `row[k]` sums `jr_t[k] − rate`
/// over every recorded epoch `t` in which the peer played an arm other
/// than `k`.
#[derive(Debug, Clone)]
pub(crate) struct DenseRegret {
    offsets: Vec<usize>,
    stride: usize,
    rows: Vec<f64>,
    stages: Vec<u64>,
    arity: Vec<u32>,
}

impl DenseRegret {
    /// Mirrors `RegretLedger::new`.
    pub(crate) fn new(actions_per_channel: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(actions_per_channel.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &m in actions_per_channel {
            total += m;
            offsets.push(total);
        }
        let stride = actions_per_channel.iter().copied().max().unwrap_or(1).max(1);
        Self { offsets, stride, rows: Vec::new(), stages: Vec::new(), arity: Vec::new() }
    }

    /// Mirrors `RegretLedger::add_peer`.
    pub(crate) fn add_peer(&mut self) {
        self.rows.extend(std::iter::repeat_n(0.0, self.stride));
        self.stages.push(0);
        self.arity.push(0);
    }

    /// Mirrors `RegretLedger::remove_slots`.
    pub(crate) fn remove_slots(&mut self, slots: &[u32]) {
        let stride = self.stride;
        compact_column(&mut self.stages, slots);
        compact_column(&mut self.arity, slots);
        for &slot in slots.iter().rev() {
            let slot = slot as usize;
            self.rows.drain(slot * stride..(slot + 1) * stride);
        }
    }

    /// Records one peer-epoch densely and returns the peer's updated
    /// time-averaged worst true regret.
    pub(crate) fn record(
        &mut self,
        slot: usize,
        channel: usize,
        played: usize,
        rate: f64,
        join_rates: &[f64],
    ) -> f64 {
        let off = self.offsets[channel];
        let m = self.offsets[channel + 1] - off;
        let jr = &join_rates[off..off + m];
        let row = &mut self.rows[slot * self.stride..(slot + 1) * self.stride];
        if self.arity[slot] != m as u32 {
            if self.arity[slot] != 0 {
                row.fill(0.0);
                self.stages[slot] = 0;
            }
            self.arity[slot] = m as u32;
        }
        for (k, &join) in jr.iter().enumerate() {
            if k != played {
                row[k] += join - rate;
            }
        }
        self.stages[slot] += 1;
        let max = row[..m].iter().copied().fold(0.0f64, f64::max);
        max / self.stages[slot] as f64
    }

    /// Mirrors `RegretLedger::peer_max`.
    pub(crate) fn peer_max(&self, slot: usize) -> f64 {
        if self.stages[slot] == 0 {
            return 0.0;
        }
        let row = &self.rows[slot * self.stride..(slot + 1) * self.stride];
        row.iter().copied().fold(0.0f64, f64::max) / self.stages[slot] as f64
    }
}
