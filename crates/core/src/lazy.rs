//! Lazy exponential decay of the proxy matrix: `T = scale · S`.
//!
//! Eq. (3-5) decays every entry of `T` by `keep = 1 − ε` each stage.
//! Instead of sweeping the stored entries, both learner layouts
//! ([`LearnerSlab`](crate::LearnerSlab) and its test-only scalar oracle
//! `RthsState`) store `S` and one scalar `scale` per learner:
//!
//! * a decay is `scale *= keep` — no entry is touched;
//! * the rank-1 update adds `(u / p(j)) / scale · p` to column `j` of `S`;
//! * every read of a difference of `T` entries is
//!   `(factor · scale) · (S(j,k) − S(j,j))`.
//!
//! `scale` only shrinks, so `S` grows. When `scale` drops below
//! `RENORM_BELOW` = 2⁻²⁵⁶ the stored entries are multiplied by 2⁻²⁵⁶ and
//! `scale` by 2²⁵⁶. Both factors are exact powers of two, so neither
//! product rounds: every later float expression sees the same mantissas
//! whether or not (and whenever) the renormalisation ran — it moves
//! exponents only. The one exception is an entry the downscale would make
//! subnormal (`|S| < 2⁻⁷⁶⁶` while `scale < 2⁻²⁵⁶`: it stands for a `T`
//! entry below 2⁻¹⁰²², itself subnormal): `flush_subnormal` zeroes it,
//! so `S` never holds a subnormal.
//!
//! The two layouts share this module so their `scale` arithmetic is the
//! same expression in the same order — the slab-vs-oracle `to_bits`
//! contract rests on it. (The module is public for this description; its
//! items are crate-private.)

/// `scale` is renormalised once it falls below this: 2⁻²⁵⁶. Also the
/// exact factor the stored entries are multiplied by when it does.
pub(crate) const RENORM_BELOW: f64 = f64::from_bits(0x2FF0_0000_0000_0000);
/// The factor `scale` is multiplied by on renormalisation: 2²⁵⁶.
pub(crate) const RENORM_UP: f64 = f64::from_bits(0x4FF0_0000_0000_0000);

/// What one decay step asks the caller to do to the stored entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decay {
    /// Nothing: the decay went into `scale`.
    Keep,
    /// Multiply every stored entry by [`RENORM_BELOW`], then
    /// [`flush_subnormal`] it (`scale` was already multiplied back up).
    Renormalise,
    /// `keep` was zero (`ε = 1`): zero every stored entry. `scale` is 1.
    Wipe,
}

/// Applies one decay by `keep` to `scale`.
///
/// `keep = 0` (`RthsConfig` admits `ε = 1`) cannot go into `scale` — the
/// next rank-1 coefficient would divide by zero — so it is defined as
/// forgetting everything: the caller wipes `S` and `scale` restarts at 1.
/// Any other `keep` is at least 2⁻⁵³ (the smallest positive `1 − ε`), so
/// one renormalisation always brings `scale` back above [`RENORM_BELOW`].
#[inline]
pub(crate) fn decay(scale: &mut f64, keep: f64) -> Decay {
    if keep == 0.0 {
        *scale = 1.0;
        return Decay::Wipe;
    }
    *scale *= keep;
    let step = if *scale < RENORM_BELOW {
        *scale *= RENORM_UP;
        Decay::Renormalise
    } else {
        Decay::Keep
    };
    debug_assert!(scale.is_normal() && *scale > 0.0, "lazy decay scale left its band: {scale}");
    step
}

/// Maps a subnormal to `+0.0` and leaves every other value alone.
#[inline]
pub(crate) fn flush_subnormal(x: f64) -> f64 {
    if x.abs() < f64::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renormalisation_factors_are_exact_reciprocal_powers_of_two() {
        assert_eq!(RENORM_BELOW, 2f64.powi(-256));
        assert_eq!(RENORM_UP, 2f64.powi(256));
        assert_eq!(RENORM_BELOW * RENORM_UP, 1.0);
    }

    #[test]
    fn decay_keeps_scale_in_its_band() {
        for keep in [0.99, 0.5, 0.001, f64::EPSILON / 2.0] {
            let mut scale = 1.0;
            let mut renorms = 0;
            for _ in 0..100_000 {
                match decay(&mut scale, keep) {
                    Decay::Keep => {}
                    Decay::Renormalise => renorms += 1,
                    Decay::Wipe => panic!("keep {keep} is not zero"),
                }
                assert!((RENORM_BELOW..=1.0).contains(&scale), "keep {keep}: scale {scale}");
            }
            assert!(renorms > 0, "keep {keep} never renormalised");
        }
    }

    #[test]
    fn zero_keep_wipes_and_restarts_the_scale() {
        let mut scale = 0.125;
        assert_eq!(decay(&mut scale, 0.0), Decay::Wipe);
        assert_eq!(scale, 1.0);
    }

    #[test]
    fn flush_zeroes_exactly_the_subnormals() {
        assert_eq!(flush_subnormal(f64::MIN_POSITIVE / 2.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(flush_subnormal(-f64::MIN_POSITIVE / 2.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(flush_subnormal(f64::MIN_POSITIVE), f64::MIN_POSITIVE);
        assert_eq!(flush_subnormal(-3.5), -3.5);
        assert_eq!(flush_subnormal(0.0).to_bits(), 0.0f64.to_bits());
    }
}
