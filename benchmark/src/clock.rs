//! The benchmark's only clock read.
//!
//! `rths_lint` walks this package too (`repository_lints_clean`), and its
//! wall-clock rule bans `Instant::now` outside the observability and bench
//! crates. Every timing in the harness goes through [`now`], so the whole
//! package carries exactly one audited allow.

use std::time::Instant;

/// The monotonic clock, read once.
pub fn now() -> Instant {
    // rths: allow(wall-clock): the harness times the program from outside; no reading is ever fed back into a run
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}
