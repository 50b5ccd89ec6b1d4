//! The span taxonomy: every timed region in the workspace is one of a
//! fixed, closed set of [`Phase`]s.
//!
//! A closed enum (rather than free-form string names) is what keeps the
//! export layer deterministic: histograms are a fixed array indexed by
//! phase, the per-epoch CSV profile has one column group per phase in
//! [`Phase::ALL`] order, and no run can invent a column another run
//! lacks.

/// One timed region of an epoch. The first block is the simulator /
/// coordinator pipeline in execution order; the second is the reactor's
/// mailbox machinery; [`Phase::Epoch`] wraps a whole epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Phase {
    /// A whole epoch, end to end.
    Epoch,
    /// Helper bandwidth process updates (simulator phase 1).
    HelperDynamics,
    /// Peer arrivals and departures (simulator phase 2).
    Churn,
    /// The learners' helper-selection phase.
    Choose,
    /// Proportional rate allocation at the helpers and server.
    RateAlloc,
    /// The learners' observe/update phase (includes the regret record).
    Observe,
    /// Batched learner-slab lazy decay (one `scale` multiply per slot).
    SlabDecay,
    /// Per-shard learner observe sweep (slab observe kernels plus the
    /// per-peer regret record).
    SlabObserve,
    /// Stretch-fold closes in the regret ledger.
    RegretFold,
    /// Link-impairment shaping (loss, policing, link processes).
    Impairment,
    /// Server / coordinator settle (rate grants, epoch barrier close).
    Settle,
    /// End-of-epoch metrics accounting.
    Metrics,
    /// Reactor: staging-buffer pack + sender-index-ordered merge.
    MailboxSort,
    /// Reactor: batch reservation + copy into the per-shard rings.
    MailboxDeliver,
    /// Reactor: sharded drain of ring messages into actor `on_message`.
    MailboxDrain,
    /// Reactor: due-timer flush at the end of a round.
    TimerFlush,
    /// A whole `rths_par` fork/join sharded region, spawn to join.
    ParDispatch,
}

impl Phase {
    /// Every phase, in the canonical (declaration) order used for
    /// histogram indexing and CSV column layout.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Epoch,
        Phase::HelperDynamics,
        Phase::Churn,
        Phase::Choose,
        Phase::RateAlloc,
        Phase::Observe,
        Phase::SlabDecay,
        Phase::SlabObserve,
        Phase::RegretFold,
        Phase::Impairment,
        Phase::Settle,
        Phase::Metrics,
        Phase::MailboxSort,
        Phase::MailboxDeliver,
        Phase::MailboxDrain,
        Phase::TimerFlush,
        Phase::ParDispatch,
    ];

    /// Number of phases (the length of [`Phase::ALL`]).
    pub const COUNT: usize = 17;

    /// Stable snake_case name used in every export format.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Epoch => "epoch",
            Phase::HelperDynamics => "helper_dynamics",
            Phase::Churn => "churn",
            Phase::Choose => "choose",
            Phase::RateAlloc => "rate_alloc",
            Phase::Observe => "observe",
            Phase::SlabDecay => "slab_decay",
            Phase::SlabObserve => "slab_observe",
            Phase::RegretFold => "regret_fold",
            Phase::Impairment => "impairment",
            Phase::Settle => "settle",
            Phase::Metrics => "metrics",
            Phase::MailboxSort => "mailbox_sort",
            Phase::MailboxDeliver => "mailbox_deliver",
            Phase::MailboxDrain => "mailbox_drain",
            Phase::TimerFlush => "timer_flush",
            Phase::ParDispatch => "par_dispatch",
        }
    }

    /// Index into [`Phase::ALL`] (and every phase-indexed array).
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_complete_and_index_aligned() {
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{} out of place", p.name());
        }
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for p in Phase::ALL {
            assert!(
                p.name().bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
                "{} is not snake_case",
                p.name()
            );
            assert!(seen.insert(p.name()), "duplicate name {}", p.name());
        }
    }
}
