//! Fixture-based rule tests: every rule fires on its seeded fixture with
//! the exact position, and the tricky constructs (rule text inside string
//! literals, raw strings, block comments, `#[cfg(test)]` modules) stay
//! silent.
//!
//! Fixtures are checked *as if* they lived in a decision-path library
//! crate, so every rule binds; their real on-disk location
//! (`crates/analyzer/tests/fixtures/`) is allowlisted in `analyzer.toml`
//! so `check_root` on the workspace stays clean.

use knots_analyzer::config::Config;
use knots_analyzer::diag::{self, Diagnostic, Severity};
use knots_analyzer::engine::check_source;

/// Run a fixture under a pretend decision-crate library path.
fn check(src: &str) -> Vec<Diagnostic> {
    check_source("crates/sched/src/fixture.rs", src, &Config::default())
}

fn positions(diags: &[Diagnostic], rule: &str) -> Vec<(u32, u32)> {
    diags.iter().filter(|d| d.rule == rule).map(|d| (d.line, d.col)).collect()
}

#[test]
fn d1_fires_on_both_wall_clock_types() {
    let out = check(include_str!("fixtures/d1_wall_clock.rs"));
    assert_eq!(positions(&out, "D1"), vec![(2, 16), (5, 14), (6, 28)]);
    assert!(out.iter().all(|d| d.severity == Severity::Deny));
    assert_eq!(out.len(), 3, "{out:?}");
}

#[test]
fn d2_fires_on_hash_collections() {
    let out = check(include_str!("fixtures/d2_hash_collections.rs"));
    // use-line (two idents) + both field types.
    assert_eq!(positions(&out, "D2"), vec![(2, 24), (2, 33), (5, 11), (6, 11)]);
    assert_eq!(out.len(), 4, "{out:?}");
}

#[test]
fn d3_fires_on_entropy_sources() {
    let out = check(include_str!("fixtures/d3_ambient_entropy.rs"));
    assert_eq!(positions(&out, "D3"), vec![(3, 23), (4, 25)]);
    assert_eq!(out.len(), 2, "{out:?}");
}

#[test]
fn p1_fires_on_panicking_calls_only() {
    let out = check(include_str!("fixtures/p1_panics.rs"));
    // unwrap, expect, panic!, todo! — and nothing from the `_or` family.
    assert_eq!(positions(&out, "P1"), vec![(3, 17), (4, 17), (6, 9), (8, 5)]);
    assert_eq!(out.len(), 4, "{out:?}");
}

#[test]
fn p2_fires_through_nested_parens_only_when_unhandled() {
    let out = check(include_str!("fixtures/p2_partial_cmp.rs"));
    assert_eq!(positions(&out, "P2"), vec![(3, 24), (4, 30)]);
    // The sibling P1s on the trailing unwrap()/expect() also fire — the
    // comparator is library code like any other.
    assert_eq!(positions(&out, "P1").len(), 2);
    assert_eq!(out.len(), 4, "{out:?}");
}

#[test]
fn h1_fires_on_print_macros() {
    let out = check(include_str!("fixtures/h1_prints.rs"));
    assert_eq!(positions(&out, "H1"), vec![(3, 5), (4, 5), (5, 5)]);
    assert_eq!(out.len(), 3, "{out:?}");
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
fn r1_fires_on_snapshot_reachable_bad_fields_only() {
    let out = check(include_str!("fixtures/r1_snapshot_reach.rs"));
    // HashSet in OrchestratorState, HashMap + Instant in ClusterShard
    // (reachable via the cluster field), Instant in the SideEvent enum
    // payload — and nothing in NotReachable, which no root references.
    assert_eq!(positions(&out, "R1"), vec![(13, 15), (17, 16), (18, 18), (23, 11)]);
    // The same mentions also draw the decision-crate D1/D2 rules; R1 adds
    // the snapshot-specific story (and covers non-decision crates).
    assert_eq!(positions(&out, "D2").len(), 5);
    assert_eq!(positions(&out, "D1").len(), 3);
    assert_eq!(out.len(), 12, "{out:?}");
}

#[test]
fn r1_workspace_closure_reaches_the_real_state_types() {
    use knots_analyzer::snapreach::{judge, BadMention, TypeDecl};
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analyses = knots_analyzer::engine::analyze_root(&root).unwrap();
    let mut types: Vec<TypeDecl> = analyses.iter().flat_map(|a| a.types.iter().cloned()).collect();
    for name in ["Snapshot", "OrchestratorState", "ClusterState", "TsdbState", "ChaosEngineState"] {
        assert!(types.iter().any(|t| t.name == name), "no `{name}` declaration found");
    }
    // The real closure must be clean, and must *stay* live: a forbidden
    // field planted on a type deep in the closure (the chaos engine state,
    // two hops from the root) has to surface.
    assert!(judge(&types).is_empty(), "workspace snapshot closure has R1 findings");
    types.push(TypeDecl {
        path: "crates/chaos/src/canary.rs".into(),
        name: "ChaosEngineState".into(),
        line: 1,
        refs: Vec::new(),
        bad: vec![BadMention { ty: "HashMap".into(), line: 1, col: 1 }],
    });
    let diags = judge(&types);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].path, "crates/chaos/src/canary.rs");
}

#[test]
fn tricky_constructs_stay_silent_except_cfg_not_test() {
    let out = check(include_str!("fixtures/tricky.rs"));
    // The only legitimate hit: the unwrap inside #[cfg(not(test))], which
    // is live code. Everything in strings/raw strings/comments/#[cfg(test)]
    // must stay silent.
    assert_eq!(positions(&out, "P1"), vec![(33, 7)]);
    assert_eq!(out.len(), 1, "{out:?}");
}

#[test]
fn c1_fires_on_guards_across_fanout() {
    let out = check(include_str!("fixtures/c1_guard_across_fanout.rs"));
    // run_jobs and thread::scope with a guard live — and nothing from the
    // dropped/scoped/suppressed fns.
    assert_eq!(positions(&out, "C1"), vec![(6, 5), (11, 18)]);
    assert!(out.iter().all(|d| d.severity == Severity::Deny));
    assert_eq!(out.len(), 2, "{out:?}");
}

#[test]
fn c2_fires_at_each_nested_acquisition_and_suppresses_at_anchor() {
    let out = check(include_str!("fixtures/c2_lock_order.rs"));
    // beta taken under alpha's guard and slots taken under beta's, each at
    // its own line; guards ended by `drop()` or by their block are clean,
    // and the pragma-covered gamma2 acquisition is suppressed.
    assert_eq!(positions(&out, "C2"), vec![(6, 23), (11, 19)]);
    assert!(out[0].message.contains("beta") && out[0].message.contains("alpha"), "{out:?}");
    assert!(out[1].message.contains("slots") && out[1].message.contains("beta"), "{out:?}");
    assert_eq!(out.len(), 2, "{out:?}");
}

#[test]
fn c3_fires_on_undocumented_unsafe_only() {
    let out = check(include_str!("fixtures/c3_unsafe_hygiene.rs"));
    // Bare unsafe block, bare static mut, UnsafeCell import — the
    // SAFETY-documented and pragma-suppressed uses stay silent.
    assert_eq!(positions(&out, "C3"), vec![(4, 5), (7, 1), (9, 17)]);
    assert_eq!(out.len(), 3, "{out:?}");
}

#[test]
fn e1_fires_only_inside_event_handlers_of_event_crates() {
    // E1 binds to crates/sim + crates/core, so this fixture runs under a
    // pretend core path rather than the default sched one.
    let src = include_str!("fixtures/e1_event_handlers.rs");
    let out = check_source("crates/core/src/fixture.rs", src, &Config::default());
    // Wall clock + manual ceil-div in on_heartbeat, div_ceil in
    // handle_arrival — and nothing from the non-handler `enqueue` (the
    // sanctioned snap-at-enqueue site) or the tick-free handle_drain.
    assert_eq!(positions(&out, "E1"), vec![(6, 19), (7, 34), (11, 12)]);
    // The wall-clock reads also draw D1; E1 adds the handler context.
    assert_eq!(positions(&out, "D1"), vec![(2, 16), (6, 19)]);
    assert_eq!(out.len(), 5, "{out:?}");
    // Outside the event crates the handler contract does not bind.
    let relaxed = check_source("crates/sched/src/fixture.rs", src, &Config::default());
    assert!(positions(&relaxed, "E1").is_empty(), "{relaxed:?}");
}

#[test]
fn multi_rule_pragmas_suppress_and_track_staleness_per_id() {
    // Both ids earn their keep: no A1.
    let src = "fn f(m: &Mutex<Vec<u32>>, xs: &[u32]) {\n  let g = m.lock();\n  // knots-allow: P1, C1 -- invariant: g is non-empty and workers are lock-free\n  run_jobs(4, xs, |x| g.last().unwrap());\n}\n";
    let out = check(src);
    assert!(out.is_empty(), "{out:?}");
    // Only P1 suppresses here; the stale C1 id draws an A1 naming it.
    let src = "fn f(v: &[u32]) {\n  // knots-allow: P1, C1 -- the slice is non-empty by construction\n  let x = v.last().unwrap();\n}\n";
    let out = check(src);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "A1");
    assert!(out[0].message.contains("C1") && !out[0].message.contains("P1,"), "{out:?}");
    // Unknown ids in the list are A0 and nothing suppresses.
    let src =
        "fn f(v: &[u32]) {\n  // knots-allow: P1, Z9 -- bogus\n  let x = v.last().unwrap();\n}\n";
    let out = check(src);
    assert!(out.iter().any(|d| d.rule == "A0" && d.message.contains("Z9")), "{out:?}");
    assert!(out.iter().any(|d| d.rule == "P1"), "{out:?}");
}

#[test]
fn pragmas_suppress_and_are_linted() {
    let out = check(include_str!("fixtures/pragmas.rs"));
    // Suppressed: both v.last().unwrap() sites. Reported: the reasonless
    // pragma (A0 deny), the unsuppressed unwrap, the stale pragma (A1 warn).
    assert_eq!(positions(&out, "A0"), vec![(13, 1)]);
    assert_eq!(positions(&out, "P1"), vec![(15, 7)]);
    assert_eq!(positions(&out, "A1"), vec![(19, 1)]);
    assert_eq!(out.len(), 3, "{out:?}");
    assert!(out.iter().any(|d| d.rule == "A1" && d.severity == Severity::Warn));
}

#[test]
fn severity_overrides_apply() {
    let cfg = knots_analyzer::config::parse("[severity]\nH1 = \"warn\"\n").unwrap();
    let out =
        check_source("crates/sched/src/fixture.rs", include_str!("fixtures/h1_prints.rs"), &cfg);
    assert!(out.iter().all(|d| d.rule == "H1" && d.severity == Severity::Warn), "{out:?}");
}

#[test]
fn fixtures_outside_library_paths_mostly_relax() {
    // The same P1 fixture under a binary path: P1/H1 do not bind there.
    let out = check_source(
        "crates/bench/src/bin/tool.rs",
        include_str!("fixtures/p1_panics.rs"),
        &Config::default(),
    );
    assert!(out.is_empty(), "{out:?}");
}

/// Every per-rule fixture, checked as `crates/sim/src/<name>.rs` library
/// code so each rule contributes findings, in reporting order.
fn fixture_corpus() -> Vec<Diagnostic> {
    const FIXTURES: [(&str, &str); 14] = [
        ("d1", include_str!("fixtures/d1_wall_clock.rs")),
        ("d2", include_str!("fixtures/d2_hash_collections.rs")),
        ("d3", include_str!("fixtures/d3_ambient_entropy.rs")),
        ("p1", include_str!("fixtures/p1_panics.rs")),
        ("p2", include_str!("fixtures/p2_partial_cmp.rs")),
        ("h1", include_str!("fixtures/h1_prints.rs")),
        ("m1", include_str!("fixtures/m1_names.rs")),
        ("c1", include_str!("fixtures/c1_guard_across_fanout.rs")),
        ("c2", include_str!("fixtures/c2_lock_order.rs")),
        ("c3", include_str!("fixtures/c3_unsafe_hygiene.rs")),
        ("e1", include_str!("fixtures/e1_event_handlers.rs")),
        ("r1", include_str!("fixtures/r1_snapshot_reach.rs")),
        ("pragmas", include_str!("fixtures/pragmas.rs")),
        ("tricky", include_str!("fixtures/tricky.rs")),
    ];
    let cfg = Config::default();
    let mut diags = Vec::new();
    for (name, src) in FIXTURES {
        diags.extend(check_source(&format!("crates/sim/src/{name}.rs"), src, &cfg));
    }
    diag::sort(&mut diags);
    diags
}

#[test]
fn every_rule_fires_in_the_fixture_corpus() {
    let diags = fixture_corpus();
    for r in knots_analyzer::rules::RULES {
        assert!(diags.iter().any(|d| d.rule == r.id), "rule {} has no corpus finding", r.id);
    }
    // Checking and rendering are deterministic: two renders are byte-equal.
    assert_eq!(diag::to_json(&diags), diag::to_json(&fixture_corpus()));
}

#[test]
fn workspace_is_clean() {
    // The repo itself must pass its own analyzer: zero deny, zero warn.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = knots_analyzer::engine::discover(&root).expect("workspace walk");
    assert!(files.len() > 40, "workspace discovery came up short: {} files", files.len());
    let diags = knots_analyzer::check_root(&root).expect("workspace walk");
    assert!(diags.is_empty(), "workspace not clean:\n{diags:#?}");
}
