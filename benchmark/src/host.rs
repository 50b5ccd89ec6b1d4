//! What the harness reads about the machine and its own processes: all of
//! it from `/proc`, all of it degrading to a zero or `"unknown"` instead of
//! failing a run on a host that lacks the file.

use std::path::Path;

use crate::json::Json;

/// Clock ticks per second in `/proc` accounting: `USER_HZ`, which Linux
/// fixes at 100 for every architecture it exports these files on.
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU seconds this process has used so far: user + system time of all its
/// threads, plus that of every child it has waited for (`utime`, `stime`,
/// `cutime`, `cstime` of `/proc/self/stat`). Divided by wall time it says
/// how many cores a run kept busy.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, so utime (field 14) is the 12th from there.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_ascii_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|field| field.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Ticks the hypervisor has stolen from this guest since boot (eighth
/// counter of the `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    read("/proc/stat")
        .lines()
        .next()
        .and_then(|line| line.split_ascii_whitespace().nth(8))
        .and_then(|field| field.parse().ok())
        .unwrap_or(0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find_map(|line| line.strip_prefix("model name").and_then(|rest| rest.split_once(':')))
        .map_or_else(|| "unknown".to_string(), |(_, model)| model.trim().to_string())
}

/// The checked-out commit, read from `.git` under `root` without running
/// git (`"unknown"` outside a repository, as in the driver's checkouts).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".to_string() } else { head.to_string() };
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block every result file records, so that two files are only
/// ever compared knowing where each was measured.
pub fn describe(root: &Path) -> Json {
    Json::obj([
        ("git_commit", Json::from(git_commit(root))),
        ("nproc", Json::from(nproc())),
        ("cpu_model", Json::from(cpu_model())),
        ("kernel", Json::from(read("/proc/sys/kernel/osrelease").trim())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_sane_values() {
        // Burn a little CPU so the counter has something to show on Linux.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
        let _ = steal_ticks();
        let host = describe(Path::new("/nonexistent"));
        assert_eq!(host.get("git_commit").and_then(Json::as_str), Some("unknown"));
        assert!(host.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
    }
}
