//! The common learner interface.

use rand::RngCore;

/// A bandit-feedback regret learner: it selects one action per stage and
/// observes only the utility of the action actually played
/// ("zero-knowledge … opaque feedbacks", paper §III.B).
///
/// The stage protocol is strict: every [`select_action`](Learner::select_action)
/// must be followed by exactly one [`observe`](Learner::observe) before
/// the next selection. Implementations panic on protocol violations, which
/// would silently corrupt regret bookkeeping otherwise.
pub trait Learner {
    /// Number of currently available actions.
    fn num_actions(&self) -> usize;

    /// The current mixed strategy `pⁿ` (a probability distribution).
    fn probabilities(&self) -> &[f64];

    /// Samples and commits to the action for this stage.
    ///
    /// # Panics
    ///
    /// Panics if called twice without an intervening
    /// [`observe`](Learner::observe).
    fn select_action(&mut self, rng: &mut dyn RngCore) -> usize;

    /// Reports the realized utility of the action chosen this stage and
    /// performs the regret/probability update.
    ///
    /// # Panics
    ///
    /// Panics if no action is pending or the utility is not finite.
    fn observe(&mut self, utility: f64);

    /// Largest current regret estimate `max_{j,k} Qⁿ(j,k)` — the quantity
    /// Fig. 1 plots for the worst peer.
    fn max_regret(&self) -> f64;

    /// Stages completed (select+observe pairs).
    fn stage(&self) -> u64;

    /// The action committed this stage, if between select and observe.
    fn pending_action(&self) -> Option<usize>;

    /// Replaces the action set with `num_actions` fresh actions (helper
    /// churn). Regret state is reset; the strategy restarts uniform.
    ///
    /// # Panics
    ///
    /// Panics if `num_actions == 0` or if an observation is pending. A
    /// [`SlabLearner`](crate::SlabLearner) that shares its slab with
    /// other learners also panics if `num_actions` exceeds the slab's
    /// stride (alone in its slab, it grows).
    fn reset_actions(&mut self, num_actions: usize);
}

#[cfg(test)]
mod tests {
    // The trait is exercised through its implementations; here we only
    // check object safety.
    use super::*;

    #[test]
    fn learner_is_object_safe() {
        fn _takes_dyn(_l: &dyn Learner) {}
    }
}
