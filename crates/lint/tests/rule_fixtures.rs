//! Fixture-based coverage for every lint rule: a positive fixture that
//! must fire, a negative fixture that must not, and an allow fixture
//! that must suppress — plus the lexer-torture fixture (banned names
//! hidden in strings, raw strings, nested comments, raw identifiers)
//! and the stale/malformed-allow self-checks.
//!
//! Fixtures live in `tests/fixtures/` as `.rs` *data* files: the
//! workspace walker skips that directory (they contain violations on
//! purpose), and cargo never compiles them. Each is linted under a
//! synthetic in-scope path so rule scoping behaves as it would in a
//! state-feeding crate.

use rths_lint::{lint_source, FileReport};

/// A workspace-relative path inside a state-feeding crate: every rule
/// applies there (and it is not a crate root, so R5's structural
/// forbid-check stays out of the picture).
const IN_SCOPE: &str = "crates/sim/src/fixture.rs";

fn lint(source: &str) -> FileReport {
    lint_source(IN_SCOPE, source)
}

fn rules_of(report: &FileReport) -> Vec<&'static str> {
    report.violations.iter().map(|d| d.rule).collect()
}

#[test]
fn env_mutation_positive_negative_allow() {
    let fire = lint(include_str!("fixtures/env_mutation_fire.rs"));
    assert_eq!(rules_of(&fire), ["env-mutation", "env-mutation"]);
    assert_eq!(fire.violations[0].line, 4, "set_var site");
    assert_eq!(fire.violations[1].line, 8, "remove_var site");

    let clean = lint(include_str!("fixtures/env_mutation_clean.rs"));
    assert!(clean.is_clean(), "false positives: {:?}", clean.violations);
    assert!(clean.suppressed.is_empty(), "nothing should need suppressing");

    let allow = lint(include_str!("fixtures/env_mutation_allow.rs"));
    assert!(allow.violations.is_empty(), "allow failed: {:?}", allow.violations);
    assert_eq!(allow.suppressed.len(), 1);
    assert!(allow.stale_allows.is_empty() && allow.bad_allows.is_empty());
}

#[test]
fn hash_order_positive_negative_allow() {
    let fire = lint(include_str!("fixtures/hash_order_fire.rs"));
    assert_eq!(rules_of(&fire), ["hash-order"; 3]);
    assert_eq!(
        fire.violations.iter().map(|d| d.line).collect::<Vec<_>>(),
        [3, 5, 6],
        "use decl, return type, constructor"
    );

    let clean = lint(include_str!("fixtures/hash_order_clean.rs"));
    assert!(clean.is_clean(), "false positives: {:?}", clean.violations);

    let allow = lint(include_str!("fixtures/hash_order_allow.rs"));
    assert!(allow.violations.is_empty(), "allow failed: {:?}", allow.violations);
    assert_eq!(allow.suppressed.len(), 1);
    assert!(allow.stale_allows.is_empty());
}

#[test]
fn wall_clock_positive_negative_allow() {
    let fire = lint(include_str!("fixtures/wall_clock_fire.rs"));
    assert_eq!(rules_of(&fire), ["wall-clock"; 3]);
    assert_eq!(fire.violations.iter().map(|d| d.line).collect::<Vec<_>>(), [5, 8, 9]);

    let clean = lint(include_str!("fixtures/wall_clock_clean.rs"));
    assert!(clean.is_clean(), "false positives: {:?}", clean.violations);

    let allow = lint(include_str!("fixtures/wall_clock_allow.rs"));
    assert!(allow.violations.is_empty(), "allow failed: {:?}", allow.violations);
    assert_eq!(allow.suppressed.len(), 1);
}

#[test]
fn wall_clock_fixture_is_exempt_under_obs_paths_only() {
    let source = include_str!("fixtures/wall_clock_fire.rs");
    assert!(lint_source("crates/obs/src/fixture.rs", source).is_clean());
    let in_bench = lint_source("crates/bench/src/bin/fixture.rs", source);
    assert_eq!(rules_of(&in_bench), ["wall-clock"; 3]);
}

#[test]
fn entropy_rng_positive_negative() {
    let fire = lint(include_str!("fixtures/entropy_rng_fire.rs"));
    assert_eq!(rules_of(&fire), ["entropy-rng"; 3]);
    assert_eq!(fire.violations.iter().map(|d| d.line).collect::<Vec<_>>(), [5, 9, 13]);
    // R4 has no allowlist: it fires even under harness paths.
    let in_bench = lint_source(
        "crates/bench/src/bin/fixture.rs",
        include_str!("fixtures/entropy_rng_fire.rs"),
    );
    assert_eq!(in_bench.violations.len(), 3);

    let clean = lint(include_str!("fixtures/entropy_rng_clean.rs"));
    assert!(clean.is_clean(), "false positives: {:?}", clean.violations);
}

#[test]
fn unsafe_safety_positive_negative_allow() {
    let fire = lint(include_str!("fixtures/unsafe_safety_fire.rs"));
    assert_eq!(rules_of(&fire), ["unsafe-safety"]);
    assert_eq!(fire.violations[0].line, 4);

    let clean = lint(include_str!("fixtures/unsafe_safety_clean.rs"));
    assert!(clean.is_clean(), "false positives: {:?}", clean.violations);

    let allow = lint(include_str!("fixtures/unsafe_safety_allow.rs"));
    assert!(allow.violations.is_empty(), "allow failed: {:?}", allow.violations);
    assert_eq!(allow.suppressed.len(), 1);
}

#[test]
fn stale_allow_is_rejected_by_the_self_check() {
    let report = lint(include_str!("fixtures/stale_allow.rs"));
    assert!(report.violations.is_empty());
    assert_eq!(report.stale_allows.len(), 1);
    assert_eq!(report.stale_allows[0].rule, "stale-allow");
    assert_eq!(report.stale_allows[0].line, 4);
    assert!(!report.is_clean(), "a stale allow must fail the run");
}

#[test]
fn malformed_allows_are_diagnosed_and_suppress_nothing() {
    let report = lint(include_str!("fixtures/bad_allow.rs"));
    assert_eq!(report.bad_allows.len(), 3, "{:?}", report.bad_allows);
    assert!(report.bad_allows.iter().all(|d| d.rule == "allow-syntax"));
    // The SystemTime uses next to the first bad allow still fire.
    assert_eq!(rules_of(&report), ["wall-clock", "wall-clock"]);
    assert!(!report.is_clean());
}

#[test]
fn lexer_tricky_fixture_is_fully_clean() {
    let report = lint(include_str!("fixtures/lexer_tricky.rs"));
    assert!(
        report.is_clean() && report.suppressed.is_empty(),
        "banned names leaked out of literals/comments: {:?} {:?}",
        report.violations,
        report.bad_allows
    );
}
