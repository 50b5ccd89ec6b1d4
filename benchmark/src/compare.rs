//! `rths_benchmark compare A.json B.json`: is B worse than A?
//!
//! For every workload × end-to-end metric the two `results.json` files
//! share, prints both medians with their quartile spreads, B's change
//! against the metric's bound, and a verdict:
//!
//! * `unresolved` — the run-to-run spread of either side is wider than the
//!   bound and the two sets of runs overlap: no claim either way;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — every run of B reads better than every run of A, and the
//!   medians differ by more than the spread;
//! * `same` — anything else.
//!
//! The exit status is non-zero when any pairing is `worse` or when B fails
//! a larger share of its operations than A. A changed trajectory digest is
//! reported but is not, by itself, a failure: it is what a legitimate
//! re-pin looks like.

use std::path::Path;

use crate::json::Json;
use crate::metrics::Better;
use crate::stats::Summary;
use crate::suite::SCHEMA;

/// The four verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better beyond doubt.
    Better,
    /// No difference beyond the bound.
    Same,
    /// B is worse by more than the bound.
    Worse,
    /// Too noisy to say.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's runs against A's for one metric. Returns the verdict and
/// B's change as a share of A's median, positive when worse.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<(Verdict, f64)> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    let toward_worse = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if sa.median == 0.0 {
        0.0
    } else {
        toward_worse * (sb.median - sa.median) / sa.median.abs()
    };
    // "Every run of B reads better than every run of A", and its mirror.
    let (all_better, all_worse) = match better {
        Better::Lower => (sb.max < sa.min, sb.min > sa.max),
        Better::Higher => (sb.min > sa.max, sb.max < sa.min),
    };
    let spread = sa.spread().max(sb.spread());
    let verdict = if spread > bound && !all_better && !all_worse {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if all_better && -worse_by > spread {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some((verdict, worse_by))
}

struct Results {
    doc: Json,
}

impl Results {
    fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{}: not a {SCHEMA} results file", path.display()));
        }
        Ok(Self { doc })
    }

    fn workloads(&self) -> &[Json] {
        self.doc.get("workloads").and_then(Json::as_array).unwrap_or(&[])
    }

    fn workload(&self, name: &str) -> Option<&Json> {
        self.workloads().iter().find(|w| w.get("name").and_then(Json::as_str) == Some(name))
    }

    /// Failed operations as a share of those attempted.
    fn failure_rate(&self) -> f64 {
        let count = |key: &str| self.doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        count("ops_failed") / count("ops_attempted").max(1.0)
    }

    fn describe(&self) -> String {
        let host = |key: &str| {
            self.doc
                .get("host")
                .and_then(|h| h.get(key))
                .map_or_else(|| "?".to_string(), Json::render)
        };
        format!(
            "seed {}, commit {}, nproc {}, cpu {}, kernel {}, steal ticks {}",
            self.doc.get("seed").and_then(Json::as_str).unwrap_or("?"),
            host("git_commit"),
            host("nproc"),
            host("cpu_model"),
            host("kernel"),
            self.doc.get("steal_ticks").map_or_else(|| "?".to_string(), Json::render),
        )
    }
}

fn values_of(metric: &Json) -> Option<Vec<f64>> {
    metric.get("values")?.as_array()?.iter().map(Json::as_f64).collect()
}

/// Compares two results files. Returns whether B is acceptable: nothing
/// `worse`, no higher failure rate.
///
/// # Errors
///
/// A file is missing, is not a results file, or the two share no workload.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (Results::load(a_path)?, Results::load(b_path)?);
    println!("A: {} — {}", a_path.display(), a.describe());
    println!("B: {} — {}", b_path.display(), b.describe());
    let mut compared = 0;
    let mut worse = 0;
    for wa in a.workloads() {
        let Some(name) = wa.get("name").and_then(Json::as_str) else { continue };
        let Some(wb) = b.workload(name) else {
            println!("\n{name}: only in A");
            continue;
        };
        let digest = |w: &Json| {
            w.get("trajectory_digest").and_then(Json::as_str).unwrap_or("?").to_string()
        };
        println!(
            "\n{name} — trajectory digest {}",
            if digest(wa) == digest(wb) {
                format!("equal ({})", digest(wa))
            } else {
                format!("CHANGED: {} → {}", digest(wa), digest(wb))
            }
        );
        println!(
            "  {:<20} {:>14} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "A median", "A spread", "B median", "B spread", "change", "bound"
        );
        for ma in wa.get("end_to_end").and_then(Json::as_array).unwrap_or(&[]) {
            let metric = ma.get("name").and_then(Json::as_str).unwrap_or("?");
            let mb = wb.get("end_to_end").and_then(Json::as_array).and_then(|ms| {
                ms.iter().find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
            });
            let judged = mb.and_then(|mb| {
                let better = Better::from_name(ma.get("better")?.as_str()?)?;
                let bound = ma.get("bound")?.as_f64()?;
                let (va, vb) = (values_of(ma)?, values_of(mb)?);
                let (verdict, worse_by) = judge(&va, &vb, better, bound)?;
                Some((Summary::of(&va)?, Summary::of(&vb)?, verdict, worse_by, bound, better))
            });
            let Some((sa, sb, verdict, worse_by, bound, better)) = judged else {
                println!("  {metric:<20} not comparable");
                continue;
            };
            compared += 1;
            worse += usize::from(verdict == Verdict::Worse);
            // Shown as the metric moved, not as "toward worse".
            let moved = match better {
                Better::Lower => worse_by,
                Better::Higher => -worse_by,
            };
            println!(
                "  {:<20} {:>14.6} {:>14} {:>14.6} {:>14} {:>+8.2}% {:>6.1}%  {}",
                metric,
                sa.median,
                format!("±{:.2}%", 100.0 * sa.spread()),
                sb.median,
                format!("±{:.2}%", 100.0 * sb.spread()),
                100.0 * moved,
                100.0 * bound,
                verdict.name()
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no workload and metric".to_string());
    }
    let (fa, fb) = (a.failure_rate(), b.failure_rate());
    println!(
        "\nfailed operations: A {:.4} %, B {:.4} % of those attempted",
        100.0 * fa,
        100.0 * fb
    );
    println!("{compared} pairings compared, {worse} worse");
    Ok(worse == 0 && fb <= fa)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_beyond_the_bound_is_worse() {
        // Tight runs, median 10 % slower, bound 5 %.
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [110.0, 111.0, 109.0, 110.5, 109.5];
        let (v, by) = judge(&a, &b, Better::Lower, 0.05).unwrap();
        assert_eq!(v, Verdict::Worse);
        assert!((by - 0.10).abs() < 1e-9);
        // The same numbers as a throughput are an improvement.
        let (v, by) = judge(&a, &b, Better::Higher, 0.05).unwrap();
        assert_eq!(v, Verdict::Better);
        assert!((by + 0.10).abs() < 1e-9);
        // And a throughput that fell by 10 % is worse.
        assert_eq!(judge(&b, &a, Better::Higher, 0.05).unwrap().0, Verdict::Worse);
    }

    #[test]
    fn within_the_bound_is_same() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [102.0, 103.0, 101.0, 102.5, 101.5];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05).unwrap().0, Verdict::Same);
        assert_eq!(judge(&a, &a, Better::Lower, 0.05).unwrap().0, Verdict::Same);
        // Deterministic outcome statistics: identical values, zero spread.
        let c = [0.5; 5];
        assert_eq!(judge(&c, &c, Better::Higher, 0.001).unwrap(), (Verdict::Same, 0.0));
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved() {
        // Spread far wider than the 5 % bound, and the sets interleave.
        let a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let b = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05).unwrap().0, Verdict::Unresolved);
        // Just as wide, but every run of B is slower than every run of A:
        // that is resolved, and worse.
        let far = [180.0, 200.0, 220.0, 190.0, 210.0];
        assert_eq!(judge(&a, &far, Better::Lower, 0.05).unwrap().0, Verdict::Worse);
        assert_eq!(judge(&far, &a, Better::Lower, 0.05).unwrap().0, Verdict::Better);
        assert!(judge(&[], &a, Better::Lower, 0.05).is_none());
    }
}
