//! Video channels.
//!
//! Multi-channel systems (PPLive, UUSee — the paper's motivating
//! deployments) stream many live channels simultaneously; peers watch one
//! channel at a time and channel popularity is Zipf-distributed. The
//! single-channel evaluation of §IV uses one implicit channel; K-channel
//! deployments ([`crate::multichannel`]) use these descriptors.

/// A live video channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    id: usize,
    bitrate: f64,
}

impl Channel {
    /// Creates channel `id` with stream `bitrate` (kbps) — the per-peer
    /// demand of its viewers.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate` is not positive and finite.
    pub fn new(id: usize, bitrate: f64) -> Self {
        assert!(bitrate > 0.0 && bitrate.is_finite(), "bitrate must be positive and finite");
        Self { id, bitrate }
    }

    /// Channel id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Stream bitrate (kbps).
    pub fn bitrate(&self) -> f64 {
        self.bitrate
    }
}

/// Builds `k` channels with identical `bitrate`.
///
/// # Panics
///
/// Panics if `k == 0` or bitrate is invalid.
pub fn uniform_channels(k: usize, bitrate: f64) -> Vec<Channel> {
    assert!(k > 0, "need at least one channel");
    (0..k).map(|id| Channel::new(id, bitrate)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_accessors() {
        let c = Channel::new(3, 450.0);
        assert_eq!(c.id(), 3);
        assert_eq!(c.bitrate(), 450.0);
    }

    #[test]
    fn uniform_channels_builds_k() {
        let cs = uniform_channels(4, 300.0);
        assert_eq!(cs.len(), 4);
        assert!(cs.iter().enumerate().all(|(i, c)| c.id() == i && c.bitrate() == 300.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bitrate_rejected() {
        let _ = Channel::new(0, 0.0);
    }
}
