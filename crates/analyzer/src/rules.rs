//! The rule set: what each rule looks for in the token stream.
//!
//! | id | invariant it protects |
//! |----|----------------------|
//! | D1 | no wall-clock (`Instant`/`SystemTime`) in library code |
//! | D2 | no `HashMap`/`HashSet` in decision-path crates (iteration order) |
//! | D3 | no ambient RNG (`thread_rng`/`from_entropy`/`OsRng`) anywhere |
//! | P1 | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in non-test library code |
//! | P2 | no `partial_cmp(..).unwrap()` comparators — `total_cmp` instead |
//! | H1 | no `println!`-family output in library code (use `knots-obs`) |
//! | M1 | metric/span name hygiene: metrics match `knots_[a-z0-9_]+` (counters end `_total`), span/event names are `dot.case` |
//! | C1 | no lock guard live across a fan-out (`run_jobs`, `thread::scope`) |
//! | C2 | no lock acquired while another guard is live (per file) |
//! | C3 | every `unsafe` / `static mut` / `UnsafeCell` has an adjacent `// SAFETY:` comment |
//! | E1 | no tick quantization (div / `div_ceil` by the tick) or wall clock inside event handlers (`on_*`/`handle_*` fns in `sim`/`core`) |
//! | R1 | no `HashMap`/`HashSet`/`Instant` fields in types reachable from the control-plane snapshot (`Snapshot`/`OrchestratorState`) |
//!
//! D–M matching is purely token-shaped: strings, comments and
//! `#[cfg(test)]` regions were already stripped or marked by the
//! lexer/engine, so rule text inside a string literal can never fire.
//! The C rules additionally consult the scope tree built by
//! [`crate::parser`] — see [`crate::conc`];
//! E1 consults it too, to resolve which `fn` owns a token
//! (see [`crate::events`]).

use crate::diag::{Diagnostic, Severity};
use crate::engine::FileContext;
use crate::lexer::{Tok, TokKind};

/// Crates whose iteration order feeds scheduler decisions (rule D2).
pub const DECISION_CRATES: [&str; 4] = ["sim", "sched", "core", "telemetry"];

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id used in output and pragmas.
    pub id: &'static str,
    /// Default severity (an `analyzer.toml` `[severity]` entry can downgrade).
    pub severity: Severity,
    /// One-line summary shown by `--list-rules`.
    pub summary: &'static str,
    /// Fix hint attached to every diagnostic.
    pub hint: &'static str,
}

/// Every rule the engine knows, in reporting order.
pub const RULES: [Rule; 12] = [
    Rule {
        id: "D1",
        severity: Severity::Deny,
        summary: "no std::time::Instant/SystemTime in library code (wall clock breaks replay)",
        hint: "derive timing from SimTime, or allowlist the file in analyzer.toml \
               if it is genuinely observability-only",
    },
    Rule {
        id: "D2",
        severity: Severity::Deny,
        summary: "no HashMap/HashSet in sim/sched/core/telemetry (iteration order is random \
                  per instance)",
        hint: "use BTreeMap/BTreeSet or drain through a sorted Vec; if the collection is \
               never iterated, suppress with `// knots-allow: D2 -- <reason>`",
    },
    Rule {
        id: "D3",
        severity: Severity::Deny,
        summary: "no thread_rng/from_entropy/OsRng (all randomness must flow from the seeded \
                  experiment config)",
        hint: "plumb a seeded StdRng (SeedableRng::seed_from_u64) from the experiment config",
    },
    Rule {
        id: "P1",
        severity: Severity::Deny,
        summary: "no unwrap/expect/panic!/todo!/unimplemented! in non-test library code",
        hint: "return a Result, restructure with let-else/unwrap_or, or suppress with \
               `// knots-allow: P1 -- <why the invariant holds>`",
    },
    Rule {
        id: "P2",
        severity: Severity::Deny,
        summary: "no partial_cmp(..).unwrap()/expect() comparators (NaN panics mid-run)",
        hint: "use f64::total_cmp, which is total and NaN-safe",
    },
    Rule {
        id: "H1",
        severity: Severity::Deny,
        summary: "no println!/eprintln!/print!/eprint!/dbg! in library code",
        hint: "record through knots-obs (Recorder events or the metrics registry) so output \
               is capturable and bounded",
    },
    Rule {
        id: "M1",
        severity: Severity::Deny,
        summary: "metric/span name hygiene: literal metric names must match `knots_[a-z0-9_]+` \
                  (counters additionally end `_total`), span/event names must be `dot.case`",
        hint: "rename the metric to `knots_<subsystem>_<what>[_total]`, or the span/event \
               name to lowercase dot.case (`probe.round`, `sched.place`)",
    },
    Rule {
        id: "C1",
        severity: Severity::Deny,
        summary: "no Mutex/RwLock guard live across run_jobs/thread::scope (workers touching \
                  the same lock deadlock)",
        hint: "narrow the guard's scope (inner block or explicit `drop(guard)`) before the \
               fan-out, or copy the data out of the lock first",
    },
    Rule {
        id: "C2",
        severity: Severity::Deny,
        summary: "no lock acquired while another guard is live (two sites nesting the same \
                  locks in opposite orders deadlock)",
        hint: "release the first guard (inner block or explicit `drop(guard)`) before taking \
               the next lock, or suppress with `// knots-allow: C2 -- <the one order every \
               site uses>`",
    },
    Rule {
        id: "C3",
        severity: Severity::Deny,
        summary: "every `unsafe` block/fn/impl, `static mut`, and `UnsafeCell` use needs an \
                  adjacent `// SAFETY:` comment",
        hint: "write `// SAFETY: <why the invariants hold>` on the same line or the comment \
               run directly above",
    },
    Rule {
        id: "E1",
        severity: Severity::Deny,
        summary: "no tick quantization (division/div_ceil by the tick) or wall clock inside \
                  event handlers (`on_*`/`handle_*` fns in knots-sim/knots-core)",
        hint: "snap due times to the tick grid once, at enqueue (`grid_at_or_after`); handlers \
               must be pure functions of (simulation state, event time)",
    },
    Rule {
        id: "R1",
        severity: Severity::Deny,
        summary: "no HashMap/HashSet/Instant/SystemTime fields in types reachable from the \
                  control-plane snapshot (Snapshot/OrchestratorState) — they cannot be \
                  checkpointed and resumed bit-identically",
        hint: "use BTreeMap/BTreeSet/Vec for collections and SimTime for time; snapshot state \
               must serialize deterministically (see crates/recovery)",
    },
];

/// Direct references for the scope-aware passes in [`crate::conc`],
/// [`crate::events`] and [`crate::snapreach`] (no Option plumbing on a
/// compile-time-known id).
pub(crate) const C1: &Rule = &RULES[7];
pub(crate) const C2: &Rule = &RULES[8];
pub(crate) const C3: &Rule = &RULES[9];
pub(crate) const E1: &Rule = &RULES[10];
pub(crate) const R1: &Rule = &RULES[11];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// True when `id` names a real rule (pragma validation).
pub fn is_known_rule(id: &str) -> bool {
    rule(id).is_some() || id == "*"
}

/// Run every applicable rule over one file's token stream.
///
/// `test_lines` marks lines inside `#[cfg(test)]` / `#[test]` items; rules
/// that only bind library code skip positions on those lines.
pub fn scan(toks: &[Tok], ctx: &FileContext, test_lines: &[(u32, u32)], out: &mut Vec<Diagnostic>) {
    let in_test = |line: u32| test_lines.iter().any(|&(a, b)| line >= a && line <= b);
    let diag = |r: &'static Rule, t: &Tok, msg: String| Diagnostic {
        rule: r.id,
        severity: r.severity,
        path: ctx.path.clone(),
        line: t.line,
        col: t.col,
        message: msg,
        hint: r.hint,
    };

    let lib = ctx.is_library();
    let decision_crate = lib && DECISION_CRATES.iter().any(|c| ctx.crate_name == *c);

    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        let next_is = |c: char| toks.get(i + 1).is_some_and(|n| n.is_punct(c));
        let prev_is = |c: char| i > 0 && toks[i - 1].is_punct(c);

        // D1 — wall clock in library code.
        if lib && matches!(name, "Instant" | "SystemTime") {
            out.push(diag(
                &RULES[0],
                t,
                format!(
                    "`{name}` reads the wall clock; simulation state must be a pure \
                         function of the seed"
                ),
            ));
        }

        // D2 — hash collections in decision-path crates.
        if decision_crate && matches!(name, "HashMap" | "HashSet") {
            out.push(diag(
                &RULES[1],
                t,
                format!(
                    "`{name}` in knots-{}: iteration order is random per instance and can \
                     leak into scheduling decisions",
                    ctx.crate_name
                ),
            ));
        }

        // D3 — ambient entropy, everywhere (tests and benches included:
        // the reproducibility claim covers them too).
        if matches!(name, "thread_rng" | "from_entropy" | "OsRng") {
            out.push(diag(
                &RULES[2],
                t,
                format!(
                    "`{name}` draws ambient entropy; all RNG must be seeded from the \
                         experiment config"
                ),
            ));
        }

        // P1 — panicking calls in non-test library code.
        if lib && !in_test(t.line) {
            let method_call = prev_is('.') && next_is('(');
            let macro_call = next_is('!');
            if (matches!(name, "unwrap" | "expect") && method_call)
                || (matches!(name, "panic" | "todo" | "unimplemented") && macro_call)
            {
                out.push(diag(
                    &RULES[3],
                    t,
                    format!(
                        "`{name}` can abort a long harvest/resize run on a state the \
                             type system already forced you to consider"
                    ),
                ));
            }
        }

        // P2 — partial_cmp(..).unwrap()/expect(), everywhere. Pattern:
        // `partial_cmp` `(` … matching `)` `.` `unwrap|expect` `(`.
        if name == "partial_cmp" && next_is('(') {
            if let Some(close) = matching_paren(toks, i + 1) {
                let trail: Vec<&str> = toks[close + 1..]
                    .iter()
                    .take(2)
                    .map(|t| match &t.kind {
                        TokKind::Ident(s) => s.as_str(),
                        TokKind::Punct('.') => ".",
                        _ => "",
                    })
                    .collect();
                if trail.len() == 2 && trail[0] == "." && matches!(trail[1], "unwrap" | "expect") {
                    out.push(diag(
                        &RULES[4],
                        t,
                        "`partial_cmp(..).unwrap()` comparator panics on NaN input mid-sort"
                            .to_string(),
                    ));
                }
            }
        }

        // H1 — stdout/stderr writes in library code (test regions may print).
        if lib
            && !in_test(t.line)
            && matches!(name, "println" | "eprintln" | "print" | "eprint" | "dbg")
            && next_is('!')
        {
            out.push(diag(
                &RULES[5],
                t,
                format!("`{name}!` writes to the process streams from a library crate"),
            ));
        }

        // M1 — metric/span name hygiene in non-test library code. Series
        // identity is part of the dashboards' contract, so drift (a counter
        // without `_total`, a camelCase span) is caught at the source.
        if lib && !in_test(t.line) {
            // Registry methods taking a literal metric name as first arg.
            let is_counter_method =
                matches!(name, "inc" | "add" | "counter_value" | "counters_named");
            let is_series_method = is_counter_method
                || matches!(
                    name,
                    "set_gauge" | "gauge_value" | "observe" | "observe_with" | "histogram"
                );
            if is_series_method && prev_is('.') && next_is('(') {
                if let Some(TokKind::Str(s)) = toks.get(i + 2).map(|t2| &t2.kind) {
                    if !is_metric_name(s) {
                        out.push(diag(
                            &RULES[6],
                            &toks[i + 2],
                            format!("metric name `{s}` does not match `knots_[a-z0-9_]+`"),
                        ));
                    } else if is_counter_method && !s.ends_with("_total") {
                        out.push(diag(
                            &RULES[6],
                            &toks[i + 2],
                            format!("counter `{s}` must end in `_total`"),
                        ));
                    }
                }
            }
            // Span/event constructors: every depth-1 string argument is a
            // component or span name and must be lowercase dot.case.
            // Deeper strings (field keys inside tuples) are unconstrained.
            let event_new = name == "new"
                && next_is('(')
                && i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].ident() == Some("Event");
            let tracer_record = matches!(name, "record_instant" | "record_complete")
                && prev_is('.')
                && next_is('(');
            if event_new || tracer_record {
                if let Some(close) = matching_paren(toks, i + 1) {
                    let mut depth = 0usize;
                    for t2 in &toks[i + 1..=close] {
                        if t2.is_punct('(') {
                            depth += 1;
                        } else if t2.is_punct(')') {
                            depth -= 1;
                        } else if depth == 1 {
                            if let TokKind::Str(s) = &t2.kind {
                                if !is_span_name(s) {
                                    out.push(diag(
                                        &RULES[6],
                                        t2,
                                        format!("span/event name `{s}` is not lowercase dot.case"),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `knots_` prefix, then lowercase/digit/underscore only.
fn is_metric_name(s: &str) -> bool {
    s.starts_with("knots_")
        && s.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Non-empty `dot.case`: dot-separated segments of `[a-z0-9_]+`.
fn is_span_name(s: &str) -> bool {
    !s.is_empty()
        && s.split('.').all(|seg| {
            !seg.is_empty()
                && seg.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

/// Index of the `)` matching the `(` at `open`, or `None` when unbalanced.
fn matching_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lib_ctx() -> FileContext {
        FileContext {
            path: "crates/sched/src/x.rs".into(),
            crate_name: "sched".into(),
            kind: crate::engine::FileKind::Library,
        }
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        scan(&lex(src).toks, &lib_ctx(), &[], &mut out);
        out
    }

    #[test]
    fn p2_matches_through_nested_parens() {
        let hits = run("v.sort_by(|a, b| a.partial_cmp(&f(b, c(d))).unwrap());");
        assert!(hits.iter().any(|d| d.rule == "P2"), "{hits:?}");
    }

    #[test]
    fn p2_ignores_handled_partial_cmp() {
        let hits = run("let o = a.partial_cmp(&b).unwrap_or(Ordering::Equal);");
        assert!(!hits.iter().any(|d| d.rule == "P2"), "{hits:?}");
    }

    #[test]
    fn p1_does_not_match_unwrap_or() {
        let hits = run("let x = o.unwrap_or(3); let y = o.unwrap_or_default();");
        assert!(!hits.iter().any(|d| d.rule == "P1"), "{hits:?}");
    }

    #[test]
    fn p1_matches_method_and_macro_forms() {
        let hits = run("fn f() { o.unwrap(); r.expect(\"x\"); panic!(\"no\"); todo!() }");
        assert_eq!(hits.iter().filter(|d| d.rule == "P1").count(), 4);
    }

    #[test]
    fn m1_checks_metric_prefix_and_counter_suffix() {
        let hits = run(r#"m.inc("requests", &[]);"#);
        assert!(hits.iter().any(|d| d.rule == "M1" && d.message.contains("knots_")), "{hits:?}");
        let hits = run(r#"m.inc("knots_requests", &[]);"#);
        assert!(hits.iter().any(|d| d.rule == "M1" && d.message.contains("_total")), "{hits:?}");
        assert!(run(r#"m.inc("knots_requests_total", &[]);"#).is_empty());
        let hits = run(r#"m.set_gauge("knots_PendingPods", &[], 1.0);"#);
        assert!(hits.iter().any(|d| d.rule == "M1"), "{hits:?}");
        // Gauges and histograms need the prefix but not the suffix.
        assert!(run(r#"m.set_gauge("knots_pending_pods", &[], 1.0);"#).is_empty());
        assert!(run(r#"m.observe("knots_probe_latency_us", &[], 9.0);"#).is_empty());
    }

    #[test]
    fn m1_checks_span_and_event_names_at_depth_one_only() {
        let hits = run(r#"r.record(Event::new("orchestrator", "ProbeRound"));"#);
        assert_eq!(hits.iter().filter(|d| d.rule == "M1").count(), 1, "{hits:?}");
        assert!(run(r#"r.record(Event::new("orchestrator", "probe.round"));"#).is_empty());
        // Field keys inside tuples sit at depth 2 and are unconstrained.
        let src = r#"t.record_instant(Track::Pod(id), "sched.round", now, None,
                     &[("Kind", FieldValue::Str("Place"))]);"#;
        assert!(run(src).is_empty(), "{:?}", run(src));
        let hits = run(r#"t.record_complete(Track::Control, "PoolBatch", a, b, None, &[]);"#);
        assert!(hits.iter().any(|d| d.rule == "M1"), "{hits:?}");
    }

    #[test]
    fn m1_skips_non_literal_and_non_library_code() {
        // Variable names cannot be checked — no diagnostic.
        assert!(run("m.inc(name, &[]);").is_empty());
        let src = r#"m.inc("requests", &[]);"#;
        let mut out = Vec::new();
        let ctx = FileContext {
            path: "crates/sim/tests/t.rs".into(),
            crate_name: "sim".into(),
            kind: crate::engine::FileKind::Harness,
        };
        scan(&lex(src).toks, &ctx, &[], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn d2_only_fires_in_decision_crates() {
        let src = "use std::collections::HashMap;";
        let mut out = Vec::new();
        let ctx = FileContext {
            path: "crates/workloads/src/x.rs".into(),
            crate_name: "workloads".into(),
            kind: crate::engine::FileKind::Library,
        };
        scan(&lex(src).toks, &ctx, &[], &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert!(run(src).iter().any(|d| d.rule == "D2"));
    }
}
