//! Joint (correlated) distributions of play: the record of a learning
//! run that [`verify`](super::verify) judges. A caller builds it from
//! [`System::profile`](rths_sim::System::profile) after each
//! [`step_epoch`](rths_sim::System::step_epoch) it wants counted.

use std::collections::BTreeMap;

/// An empirical distribution over *joint* action profiles — the object
/// that converges to a correlated equilibrium under regret-based learning
/// (Hart & Mas-Colell's theorem, the paper's convergence target).
///
/// Stored sparsely: only observed profiles are kept, which is what makes
/// CE verification tractable for hundreds of players.
///
/// The support is a `BTreeMap` so [`iter`](Self::iter) walks profiles in
/// lexicographic order — any float reduction folded over the support is
/// therefore independent of the insertion history (a `HashMap` here fed
/// hash-order, i.e. nondeterminism, into downstream sums; the workspace
/// determinism lint now bans hash collections from state-feeding crates
/// outright).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JointDistribution {
    counts: BTreeMap<Vec<usize>, u64>,
    total: u64,
}

impl JointDistribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `profile`.
    ///
    /// # Panics
    ///
    /// Panics if `profile`'s length differs from the profiles already
    /// recorded: a profile of another player set is not one of this
    /// game's.
    pub fn record(&mut self, profile: &[usize]) {
        if let Some((first, _)) = self.counts.first_key_value() {
            assert_eq!(
                profile.len(),
                first.len(),
                "a profile of {} players recorded into a distribution over {}",
                profile.len(),
                first.len()
            );
        }
        *self.counts.entry(profile.to_vec()).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct profiles observed.
    pub fn support_size(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over `(profile, probability)` pairs of the support.
    pub fn iter(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        let total = self.total.max(1) as f64;
        self.counts.iter().map(move |(p, &c)| (p.as_slice(), c as f64 / total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded<'a>(profiles: impl Iterator<Item = &'a Vec<usize>>) -> JointDistribution {
        let mut d = JointDistribution::new();
        for p in profiles {
            d.record(p);
        }
        d
    }

    #[test]
    fn joint_distribution_counts() {
        let mut d = JointDistribution::new();
        d.record(&[0, 1]);
        d.record(&[0, 1]);
        d.record(&[1, 0]);
        assert_eq!(d.total(), 3);
        assert_eq!(d.support_size(), 2);
        let support: Vec<(Vec<usize>, f64)> = d.iter().map(|(p, z)| (p.to_vec(), z)).collect();
        assert_eq!(support, vec![(vec![0, 1], 2.0 / 3.0), (vec![1, 0], 1.0 / 3.0)]);
    }

    #[test]
    fn empty_distribution_is_safe() {
        let d = JointDistribution::new();
        assert_eq!(d.total(), 0);
        assert_eq!(d.support_size(), 0);
        assert_eq!(d.iter().count(), 0);
    }

    /// A profile of another player set is refused; the first profile
    /// fixes the set, and more profiles of it still record.
    #[test]
    #[should_panic(expected = "a profile of 3 players recorded into a distribution over 2")]
    fn a_profile_of_another_length_is_refused() {
        let mut d = JointDistribution::new();
        d.record(&[0, 1]);
        d.record(&[1, 1]);
        assert_eq!(d.total(), 2);
        d.record(&[0, 1, 0]);
    }

    #[test]
    fn support_iterates_in_lexicographic_profile_order() {
        // Two distributions built from opposite insertion orders must
        // expose the identical (sorted) support sequence: iteration
        // order is a function of the *profiles*, never of history.
        let profiles = [vec![2, 0], vec![0, 1], vec![1, 1], vec![0, 0], vec![1, 0], vec![0, 1]];
        let forward = recorded(profiles.iter());
        let backward = recorded(profiles.iter().rev());
        let order: Vec<Vec<usize>> = forward.iter().map(|(p, _)| p.to_vec()).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted, "support must iterate in lexicographic order");
        let backward_order: Vec<Vec<usize>> =
            backward.iter().map(|(p, _)| p.to_vec()).collect();
        assert_eq!(order, backward_order, "iteration order depended on insertion order");
        // And the probabilities ride along identically, bit for bit.
        let probs: Vec<u64> = forward.iter().map(|(_, p)| p.to_bits()).collect();
        let backward_probs: Vec<u64> = backward.iter().map(|(_, p)| p.to_bits()).collect();
        assert_eq!(probs, backward_probs);
    }
}
