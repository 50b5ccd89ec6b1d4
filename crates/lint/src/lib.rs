//! `rths_lint` — the workspace determinism lint.
//!
//! The cardinal invariant of this repository is that the simulator, the
//! reactor, and the multi-process reactor produce `f64::to_bits`-
//! identical trajectories at any `RTHS_THREADS`. That contract was
//! enforced only *dynamically* (equivalence suites, obs-neutrality),
//! which means a nondeterminism hazard merges silently until some test
//! seed happens to trip it. This crate makes the contract a **static
//! property of the source**: a dependency-free analysis pass with a
//! hand-rolled Rust lexer ([`lexer`]) and a small rule engine
//! ([`rules`]) that walks every workspace `.rs` file ([`walk`]) and
//! reports `file:line:rule` diagnostics plus a machine-readable JSON
//! report ([`report`]).
//!
//! Run it locally with:
//!
//! ```text
//! cargo run -p rths_lint --bin lint
//! ```
//!
//! and see the README's "Static analysis: the determinism lint" section
//! for the rule table and the escape-hatch policy. The pass is wired
//! into CI as a hard gate, and `cargo test` runs it over the real tree
//! too (`tests/workspace_clean.rs`), so the tier-1 suite itself rejects
//! new hazards.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use std::io;
use std::path::Path;

pub use report::{Diagnostic, LintReport};
pub use rules::{check_file, FileReport, Rule, ALL_RULES};

/// Lints a single file's source text. `rel` is the workspace-relative
/// path with forward slashes — rule scoping keys off it. This is the
/// entry point the fixture tests drive.
pub fn lint_source(rel: &str, source: &str) -> FileReport {
    rules::check_file(rel, source)
}

/// Walks the workspace tree at `root` and lints every `.rs` file,
/// aggregating per-file results into one [`LintReport`] (files in
/// sorted path order, so output is byte-stable).
///
/// # Errors
///
/// Returns the first I/O error from the directory walk; unreadable or
/// non-UTF-8 file *contents* degrade to lossy text rather than aborting
/// the run.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport { root: root.display().to_string(), ..LintReport::default() };
    for path in walk::workspace_rs_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let bytes = std::fs::read(&path)?;
        let source = String::from_utf8_lossy(&bytes);
        let file = rules::check_file(&rel, &source);
        report.files_scanned += 1;
        report.violations.extend(file.violations);
        report.suppressed.extend(file.suppressed);
        report.stale_allows.extend(file.stale_allows);
        report.bad_allows.extend(file.bad_allows);
    }
    Ok(report)
}
