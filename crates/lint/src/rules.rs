//! The determinism rule set and the per-file check engine.
//!
//! Every rule is grounded in a hazard this workspace actually hit (or
//! structurally pins against regression):
//!
//! * **R1 `env-mutation`** — `std::env::set_var`/`remove_var` are
//!   process-global and race concurrent readers under the multithreaded
//!   test harness; PR 4 fixed exactly such a race and three sites crept
//!   back. Banned everywhere except the one serialized guard,
//!   `crates/par/src/env.rs`.
//! * **R2 `hash-order`** — `HashMap`/`HashSet` iteration order is
//!   nondeterministic, so a float reduction folded over one feeds
//!   hash-order into state. Banned in state-feeding crates; the harness
//!   crates (`bench`, `obs`) and this linter are exempt.
//! * **R3 `wall-clock`** — `Instant::now`/`SystemTime` outside the
//!   observability layer violates the timing-is-read-never-fed-back
//!   contract that layer is built on.
//! * **R4 `entropy-rng`** — `thread_rng`/`from_entropy`/`OsRng` seed
//!   from the OS; every RNG stream in the workspace must derive from
//!   the run seed or replays are impossible. Banned everywhere.
//! * **R5 `unsafe-safety`** — every `unsafe` token needs a `// SAFETY:`
//!   comment within the two lines above it (or on its line), and every
//!   crate root must carry `#![forbid(unsafe_code)]` so the rule stays
//!   structural while the workspace is unsafe-free.
//!
//! # The escape hatch
//!
//! A violation can be suppressed by a **plain** (non-doc) comment on the
//! same line or the line directly above:
//!
//! ```text
//! // rths: allow(<rule-id>): <justification, at least 8 characters>
//! ```
//!
//! The justification is mandatory; an allow with a bad rule id or a
//! missing/short justification is itself a diagnostic (`allow-syntax`),
//! and an allow that suppresses nothing is a diagnostic (`stale-allow`)
//! — so the escape hatch can never rot silently. Doc comments are never
//! parsed as allows, which is what lets this paragraph exist.

use crate::lexer::{lex, Comment, Lexed};
use crate::report::Diagnostic;

/// Minimum justification length for an allow comment: long enough that
/// "ok" or "todo" cannot pass review as a reason.
pub const MIN_JUSTIFICATION: usize = 8;

/// The five determinism rules, in severity-of-history order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    EnvMutation,
    HashOrder,
    WallClock,
    EntropyRng,
    UnsafeSafety,
}

/// Every rule, in the order reports list them.
pub const ALL_RULES: [Rule; 5] =
    [Rule::EnvMutation, Rule::HashOrder, Rule::WallClock, Rule::EntropyRng, Rule::UnsafeSafety];

impl Rule {
    /// The stable id used in diagnostics, allow comments, and the JSON
    /// report.
    pub fn id(self) -> &'static str {
        match self {
            Rule::EnvMutation => "env-mutation",
            Rule::HashOrder => "hash-order",
            Rule::WallClock => "wall-clock",
            Rule::EntropyRng => "entropy-rng",
            Rule::UnsafeSafety => "unsafe-safety",
        }
    }

    /// Parses an allow-comment rule id.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.id() == id)
    }

    /// One-line description for `--rules` output and the JSON report.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::EnvMutation => {
                "no std::env::set_var/remove_var outside the serialized guard rths_par::env"
            }
            Rule::HashOrder => {
                "no HashMap/HashSet in state-feeding crates (nondeterministic iteration order)"
            }
            Rule::WallClock => {
                "no Instant::now/SystemTime outside crates/obs (timing is read, never fed back)"
            }
            Rule::EntropyRng => {
                "no entropy-seeded RNG (thread_rng/from_entropy/OsRng); streams derive from the run seed"
            }
            Rule::UnsafeSafety => {
                "every `unsafe` needs a // SAFETY: comment; every crate root needs #![forbid(unsafe_code)]"
            }
        }
    }

    /// Whether the rule is checked at all for the file at workspace-
    /// relative path `rel` (forward-slash separated).
    fn applies_to(self, rel: &str) -> bool {
        match self {
            // The one sanctioned mutation site: the serialized env guard.
            Rule::EnvMutation => rel != "crates/par/src/env.rs",
            // Harness/tooling crates never feed simulation state; the
            // linter itself is tooling too.
            Rule::HashOrder => {
                !rel.starts_with("crates/bench/")
                    && !rel.starts_with("crates/obs/")
                    && !rel.starts_with("crates/lint/")
            }
            // The observability layer exists to read the clock and never
            // feeds what it reads back.
            Rule::WallClock => !rel.starts_with("crates/obs/"),
            Rule::EntropyRng | Rule::UnsafeSafety => true,
        }
    }
}

/// Whether `rel` is a crate root that must carry
/// `#![forbid(unsafe_code)]` (the umbrella `src/lib.rs` or any
/// `crates/<name>/src/lib.rs`).
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Rule violations that survived suppression.
    pub violations: Vec<Diagnostic>,
    /// Violations suppressed by a valid allow comment.
    pub suppressed: Vec<Diagnostic>,
    /// Allow comments that suppressed nothing (`stale-allow`).
    pub stale_allows: Vec<Diagnostic>,
    /// Malformed allow comments (`allow-syntax`).
    pub bad_allows: Vec<Diagnostic>,
}

impl FileReport {
    /// True when the file carries no violations and no allow problems.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allows.is_empty() && self.bad_allows.is_empty()
    }
}

/// A parsed, valid allow comment awaiting a violation to suppress.
struct Allow {
    rule: Rule,
    /// Line the comment ends on; it covers that line and the next.
    end_line: u32,
    used: bool,
}

/// Lints one file's source. `rel` is the workspace-relative path with
/// forward slashes — rule scoping and the crate-root check key off it.
pub fn check_file(rel: &str, source: &str) -> FileReport {
    let lexed = lex(source);
    let mut report = FileReport::default();
    let mut allows = parse_allows(rel, &lexed.comments, &mut report.bad_allows);
    let mut candidates: Vec<(Rule, u32, String)> = Vec::new();

    for rule in ALL_RULES {
        if rule.applies_to(rel) {
            scan_rule(rule, rel, &lexed, &mut candidates);
        }
    }

    for (rule, line, message) in candidates {
        let diag = Diagnostic { file: rel.to_string(), line, rule: rule.id(), message };
        // First unused allow in range wins; each allow covers its own
        // line and the one below, and may suppress several violations
        // of its rule on those lines.
        let hit = allows
            .iter_mut()
            .find(|a| a.rule == rule && (line == a.end_line || line == a.end_line + 1));
        match hit {
            Some(allow) => {
                allow.used = true;
                report.suppressed.push(diag);
            }
            None => report.violations.push(diag),
        }
    }

    for allow in allows.iter().filter(|a| !a.used) {
        report.stale_allows.push(Diagnostic {
            file: rel.to_string(),
            line: allow.end_line,
            rule: "stale-allow",
            message: format!(
                "allow({}) suppresses nothing on line {} or {} — remove it",
                allow.rule.id(),
                allow.end_line,
                allow.end_line + 1
            ),
        });
    }

    report.violations.sort_by_key(|d| d.line);
    report
}

/// Extracts allow comments. Only **plain** comments participate; the
/// marker must open the comment (`// rths: allow(...)`), so prose that
/// mentions the syntax mid-sentence stays prose.
fn parse_allows(rel: &str, comments: &[Comment], bad: &mut Vec<Diagnostic>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for comment in comments.iter().filter(|c| !c.doc) {
        let body = comment.text.trim();
        let Some(rest) = body.strip_prefix("rths:") else {
            continue;
        };
        let mut push_bad = |message: String| {
            bad.push(Diagnostic {
                file: rel.to_string(),
                line: comment.line,
                rule: "allow-syntax",
                message,
            });
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            push_bad("expected `rths: allow(<rule-id>): <justification>`".to_string());
            continue;
        };
        let Some(close) = rest.find(')') else {
            push_bad("unclosed rule id: expected `allow(<rule-id>)`".to_string());
            continue;
        };
        let id = rest[..close].trim();
        let Some(rule) = Rule::from_id(id) else {
            let known: Vec<&str> = ALL_RULES.iter().map(|r| r.id()).collect();
            push_bad(format!("unknown rule `{id}` (known: {})", known.join(", ")));
            continue;
        };
        let after = rest[close + 1..].trim_start();
        let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if justification.len() < MIN_JUSTIFICATION {
            push_bad(format!(
                "allow({id}) needs a justification of at least {MIN_JUSTIFICATION} characters \
                 after a colon",
            ));
            continue;
        }
        allows.push(Allow { rule, end_line: comment.end_line, used: false });
    }
    allows
}

/// Appends `(rule, line, message)` candidates for one rule over one
/// lexed file.
fn scan_rule(rule: Rule, rel: &str, lexed: &Lexed, out: &mut Vec<(Rule, u32, String)>) {
    match rule {
        Rule::EnvMutation => {
            for (i, token) in lexed.tokens.iter().enumerate() {
                if let Some(name @ ("set_var" | "remove_var")) = lexed.ident(i) {
                    out.push((
                        rule,
                        token.line,
                        format!(
                            "`{name}` mutates the process environment (racy under the \
                             multithreaded harness); route through `rths_par::env::with_var`"
                        ),
                    ));
                }
            }
        }
        Rule::HashOrder => {
            for (i, token) in lexed.tokens.iter().enumerate() {
                if let Some(name @ ("HashMap" | "HashSet" | "hash_map" | "hash_set")) =
                    lexed.ident(i)
                {
                    out.push((
                        rule,
                        token.line,
                        format!(
                            "`{name}` in a state-feeding crate: iteration order is \
                             nondeterministic; use BTreeMap/BTreeSet or an index-keyed Vec"
                        ),
                    ));
                }
            }
        }
        Rule::WallClock => {
            for (i, token) in lexed.tokens.iter().enumerate() {
                match lexed.ident(i) {
                    Some("SystemTime") => out.push((
                        rule,
                        token.line,
                        "`SystemTime` outside crates/obs: wall-clock time must \
                         never reach simulation state"
                            .to_string(),
                    )),
                    Some("Instant")
                        if lexed.punct(i + 1, ':')
                            && lexed.punct(i + 2, ':')
                            && lexed.ident(i + 3) == Some("now") =>
                    {
                        out.push((
                            rule,
                            token.line,
                            "`Instant::now` outside crates/obs: timing is \
                             read-only observability and must never feed back"
                                .to_string(),
                        ));
                    }
                    _ => {}
                }
            }
        }
        Rule::EntropyRng => {
            for (i, token) in lexed.tokens.iter().enumerate() {
                if let Some(name @ ("thread_rng" | "from_entropy" | "OsRng")) = lexed.ident(i) {
                    out.push((
                        rule,
                        token.line,
                        format!(
                            "`{name}` seeds from OS entropy: every stream must derive from \
                             the run seed or trajectories cannot replay"
                        ),
                    ));
                }
            }
        }
        Rule::UnsafeSafety => {
            for (i, token) in lexed.tokens.iter().enumerate() {
                if lexed.ident(i) == Some("unsafe") {
                    let line = token.line;
                    let documented = lexed.comments.iter().any(|c| {
                        c.text.contains("SAFETY:")
                            && c.end_line <= line
                            && c.end_line + 2 >= line
                    });
                    if !documented {
                        out.push((
                            rule,
                            line,
                            "`unsafe` without a `// SAFETY:` comment directly above it"
                                .to_string(),
                        ));
                    }
                }
            }
            if is_crate_root(rel) {
                let has_forbid = (0..lexed.tokens.len()).any(|i| {
                    lexed.ident(i) == Some("forbid")
                        && lexed.punct(i + 1, '(')
                        && lexed.ident(i + 2) == Some("unsafe_code")
                });
                if !has_forbid {
                    out.push((
                        rule,
                        1,
                        "crate root is missing `#![forbid(unsafe_code)]` — the workspace is \
                         unsafe-free and stays that way structurally"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IN_SCOPE: &str = "crates/sim/src/example.rs";

    #[test]
    fn rule_ids_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("no-such-rule"), None);
    }

    #[test]
    fn violation_lines_are_exact() {
        let src = "fn f() {\n    let a = 1;\n    std::env::set_var(\"K\", \"v\");\n}\n";
        let report = check_file(IN_SCOPE, src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].line, 3);
        assert_eq!(report.violations[0].rule, "env-mutation");
    }

    #[test]
    fn sanctioned_env_guard_is_exempt() {
        let src =
            "fn apply() { std::env::set_var(\"K\", \"v\"); std::env::remove_var(\"K\"); }";
        assert_eq!(check_file("crates/par/src/env.rs", src).violations.len(), 0);
        assert_eq!(check_file(IN_SCOPE, src).violations.len(), 2);
    }

    #[test]
    fn wall_clock_scope_allowlists_obs_only() {
        let src = "fn t() -> std::time::Instant { std::time::Instant::now() }";
        assert_eq!(check_file(IN_SCOPE, src).violations.len(), 1);
        assert!(check_file("crates/obs/src/span.rs", src).is_clean());
        assert_eq!(check_file("crates/bench/src/bin/fig1.rs", src).violations.len(), 1);
        // The bare `Instant` type (no ::now) is fine anywhere: passing
        // an origin around is not reading the clock.
        let ty_only = "fn keep(t: std::time::Instant) -> std::time::Instant { t }";
        assert!(check_file(IN_SCOPE, ty_only).is_clean());
    }

    #[test]
    fn hash_order_scope_exempts_harness_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(check_file(IN_SCOPE, src).violations.len(), 1);
        assert!(check_file("crates/bench/src/util.rs", src).is_clean());
        assert!(check_file("crates/obs/src/util.rs", src).is_clean());
    }

    #[test]
    fn allow_must_open_the_comment_and_doc_comments_never_arm() {
        // Mid-sentence mention: not an allow, and the violation stands.
        let prose = "// the syntax is rths: allow(env-mutation): like this\n\
                     fn f() { std::env::set_var(\"K\", \"v\"); }\n";
        let report = check_file(IN_SCOPE, prose);
        assert_eq!(report.violations.len(), 1);
        assert!(report.bad_allows.is_empty());
        // Doc comment with perfectly valid allow syntax: ignored.
        let doc = "/// rths: allow(env-mutation): documented example, not a directive\n\
                   fn f() { std::env::set_var(\"K\", \"v\"); }\n";
        let report = check_file(IN_SCOPE, doc);
        assert_eq!(report.violations.len(), 1);
        assert!(report.stale_allows.is_empty());
    }

    #[test]
    fn one_allow_can_cover_same_line_or_next_line() {
        let above = "// rths: allow(env-mutation): fixture exercising the line-above form\n\
                     fn f() { std::env::set_var(\"K\", \"v\"); }\n";
        let report = check_file(IN_SCOPE, above);
        assert!(report.violations.is_empty());
        assert_eq!(report.suppressed.len(), 1);
        let trailing = "fn f() { std::env::set_var(\"K\", \"v\"); } // rths: allow(env-mutation): trailing form\n";
        let report = check_file(IN_SCOPE, trailing);
        assert!(report.violations.is_empty());
        assert_eq!(report.suppressed.len(), 1);
        // Two lines below: out of range, violation survives, allow stale.
        let far = "// rths: allow(env-mutation): too far away to apply\n\n\
                   fn f() { std::env::set_var(\"K\", \"v\"); }\n";
        let report = check_file(IN_SCOPE, far);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.stale_allows.len(), 1);
    }

    #[test]
    fn crate_roots_must_forbid_unsafe_code() {
        let bare = "pub fn f() {}";
        let report = check_file("crates/fake/src/lib.rs", bare);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "unsafe-safety");
        assert_eq!(report.violations[0].line, 1);
        let fixed = "#![forbid(unsafe_code)]\npub fn f() {}";
        assert!(check_file("crates/fake/src/lib.rs", fixed).is_clean());
        // Non-root files carry no such obligation.
        assert!(check_file("crates/fake/src/other.rs", bare).is_clean());
        assert!(check_file("src/lib.rs", bare).violations.len() == 1);
    }

    #[test]
    fn safety_comment_window_is_two_lines() {
        let ok = "fn f(p: *const u8) -> u8 {\n    // SAFETY: fixture — caller upholds validity.\n    unsafe { *p }\n}";
        assert!(check_file(IN_SCOPE, ok).is_clean());
        let gap = "fn f(p: *const u8) -> u8 {\n    // SAFETY: fixture — caller upholds validity.\n\n\n    unsafe { *p }\n}";
        assert_eq!(check_file(IN_SCOPE, gap).violations.len(), 1);
    }
}
