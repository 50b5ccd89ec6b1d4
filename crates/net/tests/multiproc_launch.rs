//! A multi-process launch that fails cleans up after itself.
//!
//! A test binary of its own: it points `RTHS_MP_WORKER` at a missing or
//! useless executable, and no other test in this process may read that
//! variable meanwhile (see the race note in `rths_par::env`). Each test
//! looks for leftover sockets inside its guarded region, so the other
//! test's launch cannot be mid-flight while it looks; so do the tests
//! that look for leftover worker processes.

use std::os::unix::net::UnixStream;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use rths_net::multiproc::{run_multiproc_with_span, CONNECT_DEADLINE, WORKER_ENV};
use rths_net::NetConfig;
use rths_sim::Scenario;

/// This process's `rths-mp-<pid>-*.sock` files in the temp dir.
fn sockets_left() -> Vec<String> {
    let prefix = format!("rths-mp-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix) && name.ends_with(".sock"))
        .collect()
}

/// What a launch left behind: its panic message (`None` if it
/// succeeded), its sockets, and its `sleep` children.
type Aftermath = (Option<String>, Vec<String>, Vec<u32>);

/// Launches two processes over `worker` and returns what it left behind,
/// looked at before another test's launch can start.
fn launch_with_worker(worker: Option<&str>) -> Aftermath {
    let config = NetConfig::from_sim(Scenario::paper_small().seed(1).build());
    rths_par::env::with_var(WORKER_ENV, worker, || {
        let result =
            panic::catch_unwind(AssertUnwindSafe(|| run_multiproc_with_span(config, 4, 2, 4)));
        let message = result.err().map(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        });
        (message, sockets_left(), sleeping_children())
    })
}

/// The socket is bound before the worker binary is looked up and
/// spawned; when the spawn panics, no `rths-mp-<pid>-*.sock` may be left
/// in the temp dir.
#[test]
fn failed_multiproc_launch_leaves_no_socket() {
    let missing =
        std::env::temp_dir().join(format!("rths-missing-worker-{}", std::process::id()));
    let (message, left, _) = launch_with_worker(missing.to_str());
    assert!(message.is_some(), "a launch without its worker binary must fail");
    assert!(left.is_empty(), "sockets left behind: {left:?}");
}

/// A worker that exits without ever connecting fails the launch, naming
/// its rank, instead of leaving the parent blocked in `accept`. The
/// launch runs on its own thread so that a hang fails this test after a
/// minute instead of blocking it forever.
#[test]
fn worker_exit_before_connecting_fails_the_multiproc_launch() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || tx.send(launch_with_worker(Some("/bin/true"))));
    let (message, left, _) =
        rx.recv_timeout(Duration::from_secs(60)).expect("the launch hung in accept");
    let message = message.expect("a launch whose worker exits must fail");
    assert!(message.contains("rank 1"), "{message}");
    assert!(left.is_empty(), "sockets left behind: {left:?}");
}

/// Pids of this process's children running `sleep`.
fn sleeping_children() -> Vec<u32> {
    let me = std::process::id().to_string();
    std::fs::read_dir("/proc")
        .expect("procfs readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok()?.parse::<u32>().ok())
        .filter(|pid| {
            // `pid (comm) state ppid …`; `comm` holds no space here.
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
            let fields: Vec<&str> = stat.split_whitespace().collect();
            fields.get(1) == Some(&"(sleep)") && fields.get(3) == Some(&me.as_str())
        })
        .collect()
}

/// Writes an executable worker script `rths-<name>-<pid>` running `body`
/// in the temp dir and returns its path.
fn worker_script(name: &str, body: &str) -> std::path::PathBuf {
    let worker = std::env::temp_dir().join(format!("rths-{name}-{}", std::process::id()));
    std::fs::write(&worker, format!("#!/bin/sh\n{body}\n")).expect("worker script written");
    std::fs::set_permissions(&worker, std::os::unix::fs::PermissionsExt::from_mode(0o755))
        .expect("worker script made executable");
    worker
}

/// Launches two processes over the worker script at `worker` on a thread
/// of its own and waits at most the connect deadline plus 20 s for the
/// launch to end (a hang fails the test instead of blocking it), then
/// removes the script. Returns the launch's panic message, and the
/// sockets and `sleep` children it left behind.
fn launch_with_script(
    worker: std::path::PathBuf,
    hang: &str,
) -> (String, Vec<String>, Vec<u32>) {
    let (tx, rx) = mpsc::channel();
    let path = worker.clone();
    thread::spawn(move || tx.send(launch_with_worker(path.to_str())));
    let outcome = rx.recv_timeout(CONNECT_DEADLINE + Duration::from_secs(20));
    let _ = std::fs::remove_file(&worker);
    let (message, left, sleeping) = outcome.expect(hang);
    (message.expect("the launch must fail"), left, sleeping)
}

/// A worker that stays alive but never connects fails the launch once
/// `CONNECT_DEADLINE` has passed, naming its rank; the launch kills and
/// reaps it and unlinks the socket on the way out.
#[test]
fn worker_that_never_connects_fails_the_multiproc_launch() {
    let worker = worker_script("silent-worker", "exec sleep 600");
    let (message, left, sleeping) =
        launch_with_script(worker, "the launch hung waiting for a connection");
    assert!(message.contains("rank 1"), "{message}");
    assert!(left.is_empty(), "sockets left behind: {left:?}");
    assert!(sleeping.is_empty(), "the silent worker outlived the launch: {sleeping:?}");
}

/// A worker whose connection opens and then stays silent — no `Hello` —
/// fails the launch within the connect deadline, naming the rank it
/// waited for; the launch kills and reaps the worker and unlinks the
/// socket on the way out. The worker script only publishes the socket
/// path and sleeps; the test connects to that path itself and holds the
/// stream open without writing.
#[test]
fn worker_that_connects_but_never_says_hello_fails_the_multiproc_launch() {
    let published =
        std::env::temp_dir().join(format!("rths-mute-socket-{}", std::process::id()));
    let _ = std::fs::remove_file(&published);
    let worker = worker_script(
        "mute-worker",
        &format!("printf '%s' \"$RTHS_MP_SOCKET\" > {}\nexec sleep 600", published.display()),
    );
    let path = published.clone();
    let mute = thread::spawn(move || {
        // Poll for the published socket path, then connect and hold the
        // stream, silent, until the launch hangs up.
        for _ in 0..2_000 {
            if let Ok(socket) = std::fs::read_to_string(&path) {
                if let Ok(mut stream) = UnixStream::connect(socket.trim()) {
                    let _ = std::io::Read::read_to_end(&mut stream, &mut Vec::new());
                    return true;
                }
            }
            thread::sleep(Duration::from_millis(5));
        }
        false
    });
    let (message, left, sleeping) =
        launch_with_script(worker, "the launch hung waiting for a Hello");
    let _ = std::fs::remove_file(&published);
    assert!(mute.join().expect("mute connection thread"), "the test never connected");
    assert!(message.contains("rank 1") && message.contains("Hello"), "{message}");
    assert!(left.is_empty(), "sockets left behind: {left:?}");
    assert!(sleeping.is_empty(), "the mute worker outlived the launch: {sleeping:?}");
}
