//! Fixture-based rule tests: every rule fires on its seeded fixture with
//! the exact position, and the tricky constructs (rule text inside string
//! literals, raw strings, nested block comments, `#[cfg(test)]` modules)
//! stay silent.
//!
//! Fixtures are checked *as if* they lived in a decision-path library
//! crate, so every rule binds; their real on-disk location
//! (`crates/analyzer/tests/fixtures/`) is skipped by `check_root`, so the
//! workspace check stays clean.

use knots_analyzer::diag::{self, Diagnostic};
use knots_analyzer::engine::check_source;

/// Run a fixture under a pretend decision-crate library path.
fn check(src: &str) -> Vec<Diagnostic> {
    check_source("crates/sched/src/fixture.rs", src)
}

fn positions(diags: &[Diagnostic], rule: &str) -> Vec<(u32, u32)> {
    diags.iter().filter(|d| d.rule == rule).map(|d| (d.line, d.col)).collect()
}

#[test]
fn m1_fires_on_bad_metric_and_span_names() {
    let out = check(include_str!("fixtures/m1_names.rs"));
    // Missing prefix, counter without _total, camelCase gauge, unprefixed
    // histogram, camelCase event name, camelCase span name — and nothing
    // on the conforming lines or the depth-2 field key.
    assert_eq!(positions(&out, "M1"), vec![(4, 11), (5, 11), (6, 17), (7, 15), (8, 41), (9, 38)]);
    assert!(out.iter().any(|d| d.rule == "M1" && d.message.contains("_total")));
    assert_eq!(out.len(), 6, "{out:?}");
}

#[test]
fn tricky_constructs_stay_silent_except_cfg_not_test() {
    // Checked as core library code, where C3, M1 and E1 all bind. The only
    // legitimate hit: the metric name inside #[cfg(not(test))], which is
    // live code. `unsafe`, metric names and `/ tick` in strings, raw
    // strings and nested block comments, and metric names and `/ tick`
    // in #[cfg(test)], must stay silent.
    let out = check_source("crates/core/src/fixture.rs", include_str!("fixtures/tricky.rs"));
    assert_eq!(positions(&out, "M1"), vec![(37, 11)]);
    assert_eq!(out.len(), 1, "{out:?}");
}

#[test]
fn c3_fires_on_undocumented_unsafe_only() {
    let out = check(include_str!("fixtures/c3_unsafe_hygiene.rs"));
    // Bare unsafe block, bare static mut, UnsafeCell import — the
    // SAFETY-documented uses stay silent.
    assert_eq!(positions(&out, "C3"), vec![(4, 5), (7, 1), (9, 17)]);
    assert_eq!(out.len(), 3, "{out:?}");
}

#[test]
fn e1_fires_only_inside_event_handlers_of_event_crates() {
    // E1 binds to crates/sim + crates/core, so this fixture runs under a
    // pretend core path rather than the default sched one.
    let src = include_str!("fixtures/e1_event_handlers.rs");
    let out = check_source("crates/core/src/fixture.rs", src);
    // Manual ceil-div in on_heartbeat, div_ceil in handle_arrival — and
    // nothing from the non-handler `enqueue` (the sanctioned
    // snap-at-enqueue site) or the tick-free handle_drain.
    assert_eq!(positions(&out, "E1"), vec![(4, 34), (8, 12)]);
    assert_eq!(out.len(), 2, "{out:?}");
    // Outside the event crates the handler contract does not bind.
    assert!(check_source("crates/sched/src/fixture.rs", src).is_empty());
}

#[test]
fn fixtures_outside_library_paths_mostly_relax() {
    // The same M1 fixture under a binary path: M1 does not bind there.
    let out = check_source("crates/bench/src/bin/tool.rs", include_str!("fixtures/m1_names.rs"));
    assert!(out.is_empty(), "{out:?}");
}

/// Every per-rule fixture, checked as `crates/sim/src/<name>.rs` library
/// code so each rule contributes findings, in reporting order.
fn fixture_corpus() -> Vec<Diagnostic> {
    const FIXTURES: [(&str, &str); 4] = [
        ("m1", include_str!("fixtures/m1_names.rs")),
        ("c3", include_str!("fixtures/c3_unsafe_hygiene.rs")),
        ("e1", include_str!("fixtures/e1_event_handlers.rs")),
        ("tricky", include_str!("fixtures/tricky.rs")),
    ];
    let mut diags = Vec::new();
    for (name, src) in FIXTURES {
        diags.extend(check_source(&format!("crates/sim/src/{name}.rs"), src));
    }
    diag::sort(&mut diags);
    diags
}

#[test]
fn every_rule_fires_in_the_fixture_corpus() {
    let diags = fixture_corpus();
    // The corpus draws findings of exactly the rules `--list-rules` prints.
    let mut fired: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    fired.sort_unstable();
    fired.dedup();
    let mut listed: Vec<&str> = knots_analyzer::rules::RULES.iter().map(|r| r.id).collect();
    listed.sort_unstable();
    assert_eq!(fired, listed);
    assert_eq!(listed, ["C3", "E1", "M1"]);
    // Checking and rendering are deterministic: two renders are byte-equal.
    assert_eq!(diag::to_json(&diags), diag::to_json(&fixture_corpus()));
}

#[test]
fn workspace_is_clean() {
    // The repo itself must pass its own analyzer: no finding.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = knots_analyzer::engine::discover(&root).expect("workspace walk");
    assert!(files.len() > 40, "workspace discovery came up short: {} files", files.len());
    let diags = knots_analyzer::check_root(&root).expect("workspace walk");
    assert!(diags.is_empty(), "workspace not clean:\n{diags:#?}");
}
