//! A multi-process launch that fails cleans up after itself.
//!
//! A test binary of its own: it points `RTHS_MP_WORKER` at a missing
//! executable, and no other test in this process may read that variable
//! meanwhile (see the race note in `rths_par::env`).

use std::panic::{self, AssertUnwindSafe};

use rths_net::multiproc::{run_multiproc_with_span, WORKER_ENV};
use rths_net::NetConfig;
use rths_sim::Scenario;

/// The socket is bound before the worker binary is looked up and
/// spawned; when the spawn panics, no `rths-mp-<pid>-*.sock` may be left
/// in the temp dir.
#[test]
fn failed_multiproc_launch_leaves_no_socket() {
    let dir = std::env::temp_dir();
    let missing = dir.join(format!("rths-missing-worker-{}", std::process::id()));
    let config = NetConfig::from_sim(Scenario::paper_small().seed(1).build());
    let result = rths_par::env::with_var(WORKER_ENV, missing.to_str(), || {
        panic::catch_unwind(AssertUnwindSafe(|| run_multiproc_with_span(config, 4, 2, 4)))
    });
    assert!(result.is_err(), "a launch without its worker binary must fail");
    let prefix = format!("rths-mp-{}-", std::process::id());
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("temp dir readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix) && name.ends_with(".sock"))
        .collect();
    assert!(left.is_empty(), "sockets left behind in {}: {left:?}", dir.display());
}
