//! Playback-buffer model: from delivered rates to viewing experience.
//!
//! The paper motivates stability with quality of experience: "switching
//! back and forth between helpers will result in frequent interruption
//! in the streaming flow" (§III.B). This module turns a peer's per-epoch
//! delivered-rate series (its entries of
//! [`System::delivered`](crate::System::delivered), epoch by epoch) into the QoE quantities a player actually
//! exposes: **startup delay**, **stall (rebuffering) events**, and the
//! **rebuffer ratio**, using the standard fluid buffer model:
//!
//! * each epoch, `rate/bitrate` seconds of video are downloaded;
//! * playback drains 1 second of content per second of wall-clock once
//!   started;
//! * playback starts (and restarts after a stall) when the buffer
//!   reaches `startup_buffer` seconds.

/// Fluid playback-buffer simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybackBuffer {
    /// Stream bitrate (kbps): 1 second of content = `bitrate` kbits.
    bitrate: f64,
    /// Wall-clock seconds per simulation epoch.
    epoch_seconds: f64,
    /// Buffered content required to (re)start playback, in seconds.
    startup_buffer: f64,
    /// Maximum buffered content (player cap), in seconds.
    max_buffer: f64,
}

/// QoE summary of one playback session.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybackStats {
    /// Seconds before playback first started (∞ if it never did —
    /// reported as the full session length).
    pub startup_delay: f64,
    /// Number of stall (rebuffering) events after startup.
    pub stall_events: usize,
    /// Total seconds spent stalled after startup.
    pub stalled_seconds: f64,
    /// Fraction of post-startup wall-clock time spent stalled.
    pub rebuffer_ratio: f64,
    /// Seconds of content actually played.
    pub played_seconds: f64,
}

impl PlaybackBuffer {
    /// Creates a buffer model.
    ///
    /// # Panics
    ///
    /// Panics unless `bitrate`, `epoch_seconds`, `startup_buffer` are
    /// positive and `max_buffer >= startup_buffer`.
    pub(crate) fn new(
        bitrate: f64,
        epoch_seconds: f64,
        startup_buffer: f64,
        max_buffer: f64,
    ) -> Self {
        assert!(bitrate > 0.0 && bitrate.is_finite(), "bitrate must be positive");
        assert!(epoch_seconds > 0.0, "epoch length must be positive");
        assert!(startup_buffer > 0.0, "startup buffer must be positive");
        assert!(max_buffer >= startup_buffer, "max buffer below startup threshold");
        Self { bitrate, epoch_seconds, startup_buffer, max_buffer }
    }

    /// A typical live-streaming profile: 2 s startup, 30 s buffer cap,
    /// 1 s epochs.
    pub fn live_default(bitrate: f64) -> Self {
        Self::new(bitrate, 1.0, 2.0, 30.0)
    }

    /// Replays a delivered-rate series (kbps per epoch) through the
    /// buffer and returns the session's QoE statistics.
    pub fn replay(&self, rates: &[f64]) -> PlaybackStats {
        let mut buffer = 0.0f64; // seconds of content
        let mut playing = false;
        let mut startup_delay = None;
        let mut stall_events = 0usize;
        let mut stalled_seconds = 0.0;
        let mut played_seconds = 0.0;
        let mut clock = 0.0;

        for &rate in rates {
            // Download this epoch's content.
            buffer = (buffer + rate / self.bitrate * self.epoch_seconds).min(self.max_buffer);
            if !playing {
                if buffer >= self.startup_buffer {
                    playing = true;
                    if startup_delay.is_none() {
                        startup_delay = Some(clock + self.epoch_seconds);
                    }
                } else if startup_delay.is_some() {
                    // Stalled mid-session, waiting to rebuffer.
                    stalled_seconds += self.epoch_seconds;
                }
            }
            if playing {
                let drained = self.epoch_seconds.min(buffer);
                played_seconds += drained;
                buffer -= drained;
                if buffer <= 1e-12 && drained < self.epoch_seconds {
                    // Ran dry mid-epoch: stall.
                    playing = false;
                    stall_events += 1;
                    stalled_seconds += self.epoch_seconds - drained;
                }
            }
            clock += self.epoch_seconds;
        }

        let startup = startup_delay.unwrap_or(clock);
        let post_startup = (clock - startup).max(0.0);
        PlaybackStats {
            startup_delay: startup,
            stall_events,
            stalled_seconds,
            rebuffer_ratio: if post_startup > 0.0 {
                (stalled_seconds / post_startup).min(1.0)
            } else {
                0.0
            },
            played_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer() -> PlaybackBuffer {
        // bitrate 400 kbps, 1 s epochs, 2 s startup, 10 s cap.
        PlaybackBuffer::new(400.0, 1.0, 2.0, 10.0)
    }

    #[test]
    fn perfect_delivery_never_stalls() {
        let b = buffer();
        // Delivering exactly the bitrate: 1 s of content per 1 s epoch.
        let stats = b.replay(&vec![400.0; 100]);
        assert_eq!(stats.stall_events, 0);
        assert_eq!(stats.rebuffer_ratio, 0.0);
        // Startup once 2 s are buffered (2 epochs at exactly 1× rate).
        assert_eq!(stats.startup_delay, 2.0);
        assert!(stats.played_seconds > 90.0);
    }

    #[test]
    fn zero_delivery_never_starts() {
        let b = buffer();
        let stats = b.replay(&vec![0.0; 50]);
        assert_eq!(stats.startup_delay, 50.0);
        assert_eq!(stats.played_seconds, 0.0);
        assert_eq!(stats.stall_events, 0);
    }

    #[test]
    fn underrate_delivery_stalls_periodically() {
        let b = buffer();
        // 300 kbps against a 400 kbps stream: drains 0.25 s per epoch.
        let stats = b.replay(&vec![300.0; 400]);
        assert!(stats.stall_events > 5, "expected periodic stalls: {stats:?}");
        assert!(
            stats.rebuffer_ratio > 0.15 && stats.rebuffer_ratio < 0.35,
            "rebuffer ratio {:.3}",
            stats.rebuffer_ratio
        );
    }

    #[test]
    fn overrate_delivery_caps_buffer_and_flows() {
        let b = buffer();
        let stats = b.replay(&vec![800.0; 100]);
        assert_eq!(stats.stall_events, 0);
        // Starts within the first epoch (2 s buffered immediately), and
        // playback drains every epoch from then on.
        assert_eq!(stats.startup_delay, 1.0);
        assert!((stats.played_seconds - 100.0).abs() < 1e-9);
    }

    #[test]
    fn burst_outage_causes_single_stall_and_recovery() {
        let b = buffer();
        let mut rates = vec![800.0; 20]; // build a full 10 s buffer
        rates.extend(vec![0.0; 15]); // outage drains it (10 s) then stalls
        rates.extend(vec![800.0; 30]); // recovery
        let stats = b.replay(&rates);
        assert_eq!(stats.stall_events, 1, "{stats:?}");
        assert!(stats.stalled_seconds >= 4.0);
        assert!(stats.played_seconds > 30.0);
    }

    #[test]
    fn rebuffer_ratio_is_bounded() {
        let b = buffer();
        for pattern in [vec![100.0; 60], vec![390.0; 60], [0.0, 800.0].repeat(30)] {
            let stats = b.replay(&pattern);
            assert!((0.0..=1.0).contains(&stats.rebuffer_ratio), "{stats:?}");
        }
    }

    #[test]
    fn live_default_profile() {
        let b = PlaybackBuffer::live_default(500.0);
        let stats = b.replay(&[500.0; 10]);
        assert_eq!(stats.stall_events, 0);
    }

    #[test]
    #[should_panic(expected = "startup threshold")]
    fn invalid_buffer_sizes_rejected() {
        let _ = PlaybackBuffer::new(400.0, 1.0, 5.0, 2.0);
    }

    #[test]
    fn empty_session_is_degenerate() {
        let stats = buffer().replay(&[]);
        assert_eq!(stats.startup_delay, 0.0);
        assert_eq!(stats.played_seconds, 0.0);
        assert_eq!(stats.rebuffer_ratio, 0.0);
    }
}
