//! Fresh processes for repeats.
//!
//! Every repeat runs in a child process of the harness itself: a second
//! construction inside one process reuses warm pages and reads faster than
//! what a user's first run costs, and a child's `VmHWM` is that run's peak
//! memory and nothing else. The child prints one JSON [`Record`] as the
//! last line of its standard output.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::repeat::{Record, Spec};
use crate::workload::Workload;

/// Where the harness runs its children and leaves its files.
#[derive(Debug, Clone)]
pub struct Harness {
    exe: PathBuf,
    out_dir: PathBuf,
}

impl Harness {
    /// Finds this executable and the multiproc worker beside it, and
    /// creates `out_dir`.
    ///
    /// # Errors
    ///
    /// One line saying what is missing — a worker that was not built is
    /// reported here, not by a panic deep inside `run_multiproc`.
    pub fn locate(out_dir: &Path) -> Result<Self, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
        let worker = exe.with_file_name("rths_mp_worker");
        if !worker.is_file() {
            return Err(format!(
                "{} is missing: `cargo run` builds only the harness; use `sh benchmark/run.sh ...` or `cargo build --release --manifest-path benchmark/Cargo.toml` first",
                worker.display()
            ));
        }
        std::fs::create_dir_all(out_dir.join("tmp"))
            .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
        Ok(Self { exe, out_dir: out_dir.to_path_buf() })
    }

    /// Where results and traces go.
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// The Chrome trace a traced repeat of `workload` writes.
    pub fn trace_path(&self, workload: Workload) -> PathBuf {
        self.out_dir.join(format!("trace_{}.json", workload.name()))
    }

    /// Runs one repeat in a fresh child process and waits for it.
    ///
    /// # Errors
    ///
    /// The child could not be started, failed, or printed no record.
    pub fn repeat(&self, spec: Spec) -> Result<Record, String> {
        let what = format!("{} repeat (seed {})", spec.workload.name(), spec.seed);
        let output = Command::new(&self.exe)
            .arg("repeat")
            .args(["--workload", spec.workload.name()])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--epochs", &spec.timed_epochs.to_string()])
            .args(["--trace", if spec.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&self.out_dir)
            // `run_multiproc` binds its socket under the temporary
            // directory; this keeps it inside the output directory (and,
            // the path being relative, well inside a socket address).
            .env("TMPDIR", self.out_dir.join("tmp"))
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{what}: cannot start {}: {e}", self.exe.display()))?;
        if !output.status.success() {
            return Err(format!("{what}: child exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        Json::parse(line)
            .ok()
            .as_ref()
            .and_then(Record::from_json)
            .filter(|r| r.spec == spec)
            .ok_or_else(|| format!("{what}: child printed no record for this run: {line:?}"))
    }
}
