//! Trajectory digests: FNV-1a over the `to_bits` image of a run's series.
//!
//! The repository's contract is that every engine, thread count and
//! partitioning produces `f64::to_bits`-identical trajectories, so the
//! output check folds bits, never values: `-0.0` and `+0.0` differ, and
//! two NaNs with different payloads differ.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64-bit fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv {
    /// Folds one byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one series: its length, then every value's bit pattern. The
    /// length prefix keeps `[a] ++ [b, c]` and `[a, b] ++ [c]` apart.
    pub fn series(&mut self, values: &[f64]) {
        self.bytes(&(values.len() as u64).to_le_bytes());
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of the first `epochs` entries of the three pinned series
/// (welfare, worst empirical regret, server load); shorter series are
/// folded whole, so a missing epoch changes the digest.
pub fn trajectory_digest(series: [&[f64]; 3], epochs: usize) -> u64 {
    let mut fnv = Fnv::default();
    for s in series {
        fnv.series(&s[..epochs.min(s.len())]);
    }
    fnv.finish()
}

/// Digests travel as fixed-width hex: a `u64` does not survive a trip
/// through a JSON number.
pub fn to_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut f = Fnv::default();
        assert_eq!(f.finish(), 0xcbf2_9ce4_8422_2325);
        f.bytes(b"a");
        assert_eq!(f.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut f = Fnv::default();
        f.bytes(b"foobar");
        assert_eq!(f.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_folds_bits_not_values() {
        let d = |w: &[f64]| trajectory_digest([w, &[1.0], &[2.0]], usize::MAX);
        // +0.0 == -0.0 as values, but not as bits.
        assert_ne!(d(&[0.0]), d(&[-0.0]));
        // Two NaNs never compare equal as values; as bits, the same
        // payload folds the same and a different payload does not.
        let quiet = f64::from_bits(0x7ff8_0000_0000_0000);
        let payload = f64::from_bits(0x7ff8_0000_0000_0001);
        assert!(quiet.is_nan() && payload.is_nan());
        assert_eq!(d(&[quiet]), d(&[quiet]));
        assert_ne!(d(&[quiet]), d(&[payload]));
        // One ulp is a different trajectory.
        assert_ne!(d(&[1.0]), d(&[f64::from_bits(1.0f64.to_bits() + 1)]));
    }

    #[test]
    fn digest_sees_series_boundaries_and_prefixes() {
        let a = trajectory_digest([&[1.0], &[2.0, 3.0], &[]], usize::MAX);
        let b = trajectory_digest([&[1.0, 2.0], &[3.0], &[]], usize::MAX);
        assert_ne!(a, b);
        let long = [1.0, 2.0, 3.0, 4.0];
        let full = trajectory_digest([&long, &long, &long], usize::MAX);
        let prefix = trajectory_digest([&long, &long, &long], 2);
        assert_ne!(full, prefix);
        assert_eq!(prefix, trajectory_digest([&long[..2], &long[..2], &long[..2]], 9));
        assert_eq!(to_hex(0xab), "00000000000000ab");
    }
}
