//! The rule set: what each rule looks for in the token stream.
//!
//! | id | invariant it protects |
//! |----|----------------------|
//! | M1 | metric/span name hygiene: metrics match `knots_[a-z0-9_]+` (counters end `_total`), span/event names are `dot.case` |
//! | C1 | no lock guard live across a fan-out (`run_jobs`, `thread::scope`) |
//! | C2 | no lock acquired while another guard is live (per file) |
//! | C3 | every `unsafe` / `static mut` / `UnsafeCell` has an adjacent `// SAFETY:` comment |
//! | E1 | no tick quantization (div / `div_ceil` by the tick) inside event handlers (`on_*`/`handle_*` fns in `sim`/`core`) |
//!
//! The determinism and no-panic rules (wall clock, hash collections,
//! panicking calls, process-stream writes) are clippy lints configured in
//! the workspace manifest and `clippy.toml` (DESIGN.md §8).
//!
//! M1 matching is purely token-shaped: strings, comments and
//! `#[cfg(test)]` regions were already stripped or marked by the
//! lexer/engine, so rule text inside a string literal can never fire.
//! The C rules additionally consult the scope tree built by
//! [`crate::parser`] — see [`crate::conc`];
//! E1 consults it too, to resolve which `fn` owns a token
//! (see [`crate::events`]).

use crate::diag::Diagnostic;
use crate::engine::FileContext;
use crate::lexer::{Tok, TokKind};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id used in output.
    pub id: &'static str,
    /// One-line summary shown by `--list-rules`.
    pub summary: &'static str,
    /// Fix hint attached to every diagnostic.
    pub hint: &'static str,
}

/// Every rule the engine knows, in reporting order.
pub const RULES: [Rule; 5] = [
    Rule {
        id: "M1",
        summary: "metric/span name hygiene: literal metric names must match `knots_[a-z0-9_]+` \
                  (counters additionally end `_total`), span/event names must be `dot.case`",
        hint: "rename the metric to `knots_<subsystem>_<what>[_total]`, or the span/event \
               name to lowercase dot.case (`probe.round`, `sched.place`)",
    },
    Rule {
        id: "C1",
        summary: "no Mutex/RwLock guard live across run_jobs/thread::scope (workers touching \
                  the same lock deadlock)",
        hint: "narrow the guard's scope (inner block or explicit `drop(guard)`) before the \
               fan-out, or copy the data out of the lock first",
    },
    Rule {
        id: "C2",
        summary: "no lock acquired while another guard is live (two sites nesting the same \
                  locks in opposite orders deadlock)",
        hint: "release the first guard (inner block or explicit `drop(guard)`) before taking \
               the next lock",
    },
    Rule {
        id: "C3",
        summary: "every `unsafe` block/fn/impl, `static mut`, and `UnsafeCell` use needs an \
                  adjacent `// SAFETY:` comment",
        hint: "write `// SAFETY: <why the invariants hold>` on the same line or the comment \
               run directly above",
    },
    Rule {
        id: "E1",
        summary: "no tick quantization (division/div_ceil by the tick) inside event handlers \
                  (`on_*`/`handle_*` fns in crates/sim and crates/core)",
        hint: "snap due times to the tick grid once, at enqueue (`grid_at_or_after`); handlers \
               must be pure functions of (simulation state, event time)",
    },
];

/// Direct references for the scope-aware passes in [`crate::conc`] and
/// [`crate::events`] (no Option plumbing on a compile-time-known id).
const M1: &Rule = &RULES[0];
pub(crate) const C1: &Rule = &RULES[1];
pub(crate) const C2: &Rule = &RULES[2];
pub(crate) const C3: &Rule = &RULES[3];
pub(crate) const E1: &Rule = &RULES[4];

/// Run rule M1 over one file's token stream: metric and span names in
/// non-test library code. Series identity is part of the dashboards'
/// contract, so drift (a counter without `_total`, a camelCase span) is
/// caught at the source.
///
/// `test_lines` marks lines inside `#[cfg(test)]` / `#[test]` items, which
/// the rule skips.
pub fn scan(toks: &[Tok], ctx: &FileContext, test_lines: &[(u32, u32)], out: &mut Vec<Diagnostic>) {
    if !ctx.is_library() {
        return;
    }
    let in_test = |line: u32| test_lines.iter().any(|&(a, b)| line >= a && line <= b);
    let diag = |t: &Tok, message: String| Diagnostic {
        rule: M1.id,
        path: ctx.path.clone(),
        line: t.line,
        col: t.col,
        message,
        hint: M1.hint,
    };

    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if in_test(t.line) {
            continue;
        }
        let next_is = |c: char| toks.get(i + 1).is_some_and(|n| n.is_punct(c));
        let prev_is = |c: char| i > 0 && toks[i - 1].is_punct(c);

        // Registry methods taking a literal metric name as first arg.
        let is_counter_method = matches!(name, "inc" | "add" | "counter_value" | "counters_named");
        let is_series_method = is_counter_method
            || matches!(
                name,
                "set_gauge" | "gauge_value" | "observe" | "observe_with" | "histogram"
            );
        if is_series_method && prev_is('.') && next_is('(') {
            if let Some(TokKind::Str(s)) = toks.get(i + 2).map(|t2| &t2.kind) {
                if !is_metric_name(s) {
                    out.push(diag(
                        &toks[i + 2],
                        format!("metric name `{s}` does not match `knots_[a-z0-9_]+`"),
                    ));
                } else if is_counter_method && !s.ends_with("_total") {
                    out.push(diag(&toks[i + 2], format!("counter `{s}` must end in `_total`")));
                }
            }
        }
        // Span/event constructors: every depth-1 string argument is a
        // component or span name and must be lowercase dot.case. Deeper
        // strings (field keys inside tuples) are unconstrained.
        let event_new = name == "new"
            && next_is('(')
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].ident() == Some("Event");
        let tracer_record =
            matches!(name, "record_instant" | "record_complete") && prev_is('.') && next_is('(');
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
}
