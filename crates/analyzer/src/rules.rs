//! The rule set: what each rule looks for in the token stream.
//!
//! | id | invariant it protects |
//! |----|----------------------|
//! | M1 | metric/span name hygiene: metrics match `knots_[a-z0-9_]+` (counters end `_total`), span/event names are `dot.case` |
//! | C3 | every `unsafe` / `static mut` / `UnsafeCell` has an adjacent `// SAFETY:` comment |
//! | E1 | no tick quantization (div / `div_ceil` by the tick) inside event handlers (`on_*`/`handle_*` fns in `sim`/`core`) |
//!
//! The determinism, no-panic and no-lock rules (wall clock, hash
//! collections, panicking calls, process-stream writes, lock types) are
//! clippy lints configured in the workspace manifest and `clippy.toml`
//! (DESIGN.md §8).
//!
//! M1 and C3 are purely token-shaped: strings, comments and `#[cfg(test)]`
//! regions were already stripped or marked by the lexer/engine, so rule
//! text inside a string literal can never fire. E1 consults the scope tree
//! built by [`crate::parser`] to resolve which `fn` owns a token (see
//! [`crate::events`]).

use crate::diag::Diagnostic;
use crate::engine::FileContext;
use crate::lexer::{LineComment, Tok, TokKind};

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
pub const RULES: [Rule; 3] = [
    Rule {
        id: "M1",
        summary: "metric/span name hygiene: literal metric names must match `knots_[a-z0-9_]+` \
                  (counters additionally end `_total`), span/event names must be `dot.case`",
        hint: "rename the metric to `knots_<subsystem>_<what>[_total]`, or the span/event \
               name to lowercase dot.case (`probe.round`, `sched.place`)",
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

/// Direct references for the passes here and in [`crate::events`] (no
/// Option plumbing on a compile-time-known id).
const M1: &Rule = &RULES[0];
const C3: &Rule = &RULES[1];
pub(crate) const E1: &Rule = &RULES[2];

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

/// C3: every `unsafe` token, `static mut`, and `UnsafeCell` use needs an
/// adjacent `// SAFETY:` comment (same line, or the contiguous comment run
/// directly above). Applies to every file kind — tests included: an
/// undocumented escape hatch is a review hazard wherever it sits.
pub fn scan_unsafe(
    toks: &[Tok],
    comments: &[LineComment],
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
) {
    let comment_on = |line: u32| comments.iter().find(|c| c.line == line);
    let has_safety = |line: u32| -> bool {
        let is_safety = |c: &LineComment| {
            c.text
                .trim_start_matches('/')
                .trim_start_matches(['!', '/'])
                .trim_start()
                .starts_with("SAFETY:")
        };
        if comment_on(line).is_some_and(is_safety) {
            return true;
        }
        // Walk the contiguous comment run directly above.
        let mut l = line.saturating_sub(1);
        while l > 0 {
            match comment_on(l) {
                Some(c) if is_safety(c) => return true,
                Some(_) => l -= 1,
                None => return false,
            }
        }
        false
    };
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        let flagged = match name {
            "unsafe" => true,
            "static" => toks.get(i + 1).and_then(|n| n.ident()) == Some("mut"),
            "UnsafeCell" => true,
            _ => false,
        };
        if flagged && !has_safety(t.line) {
            out.push(Diagnostic {
                rule: C3.id,
                path: ctx.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{name}` without an adjacent `// SAFETY:` comment documenting why the \
                     invariants hold"
                ),
                hint: C3.hint,
            });
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

    fn run_c3(src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let mut out = Vec::new();
        scan_unsafe(&lexed.toks, &lexed.comments, &lib_ctx(), &mut out);
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

    #[test]
    fn c3_unsafe_needs_safety() {
        let out = run_c3("fn f() { unsafe { go(); } }");
        assert_eq!(out.iter().filter(|d| d.rule == "C3").count(), 1, "{out:?}");
        let out = run_c3("// SAFETY: the pointer outlives the call\nfn f() { unsafe { go(); } }");
        assert!(out.is_empty(), "{out:?}");
        // Comment run with the SAFETY line on top still counts.
        let src =
            "// SAFETY: single-threaded init\n// (checked by the ctor)\nstatic mut X: u32 = 0;\n";
        assert!(run_c3(src).is_empty());
        assert_eq!(run_c3("static mut X: u32 = 0;\n").len(), 1);
        assert_eq!(run_c3("use core::cell::UnsafeCell;\n").len(), 1);
    }
}
