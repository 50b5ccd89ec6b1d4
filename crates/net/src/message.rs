//! Wire messages between actors.
//!
//! Control-plane messages (ticks, requests, settles) are reliable and
//! FIFO per channel — the guarantee a TCP connection gives a real overlay.
//! Data-plane loss is modelled by the `lost` flag on a request (drawn
//! from [`rths_sim::ImpairmentPlan::is_lost`]): the connection exists but
//! the stream payload never arrives, so the peer observes rate 0 for the
//! epoch.

use crossbeam::channel::Sender;

/// Messages a helper actor receives.
#[derive(Debug)]
pub enum HelperMsg {
    /// New epoch: advance the local bandwidth process.
    Tick {
        /// Epoch number.
        epoch: u64,
    },
    /// A peer asks to stream this epoch.
    Request {
        /// Requesting peer id.
        peer: u64,
        /// Epoch number.
        epoch: u64,
        /// Where to deliver the resulting rate.
        reply: Sender<PeerMsg>,
        /// Data-plane fault: connection counted, payload lost.
        lost: bool,
    },
    /// All requests for the epoch are in; allocate and reply.
    Settle {
        /// Epoch number.
        epoch: u64,
    },
    /// Availability change (failure injection).
    SetOnline(bool),
    /// Terminate the actor.
    Shutdown,
}

/// Messages a peer actor receives.
#[derive(Debug)]
pub enum PeerMsg {
    /// New epoch: choose a helper.
    Tick {
        /// Epoch number.
        epoch: u64,
    },
    /// The realized streaming rate from the chosen helper.
    Rate {
        /// Epoch number.
        epoch: u64,
        /// Delivered rate (kbps), before any demand cap.
        kbps: f64,
    },
    /// Terminate the actor.
    Shutdown,
}

/// Messages the coordinator receives (observability plane).
#[derive(Debug)]
pub enum CoordMsg {
    /// A peer committed to a helper this epoch.
    Selected {
        /// Peer id.
        peer: u64,
        /// Epoch number.
        epoch: u64,
        /// Chosen helper index.
        helper: usize,
    },
    /// A peer observed its realized (demand-capped) rate.
    Observed {
        /// Peer id.
        peer: u64,
        /// Epoch number.
        epoch: u64,
        /// Realized rate after the demand cap.
        rate: f64,
        /// The learner's internal regret estimate after the observation
        /// (virtual-play `Q` maximum; `0.0` when tracking is disabled).
        estimate: f64,
    },
    /// A helper settled the epoch.
    HelperReport {
        /// Helper index.
        helper: usize,
        /// Epoch number.
        epoch: u64,
        /// Number of connected peers.
        load: usize,
        /// Capacity this epoch (kbps).
        capacity: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_debuggable_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<HelperMsg>();
        assert_send::<PeerMsg>();
        assert_send::<CoordMsg>();
        let m = PeerMsg::Rate { epoch: 3, kbps: 100.0 };
        assert!(format!("{m:?}").contains("Rate"));
    }
}
