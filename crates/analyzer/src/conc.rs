//! Scope-aware concurrency rules: the guard-lifetime tracker behind C1
//! (no guard live across a fan-out) and C2 (no lock acquired while another
//! guard is live), and the token pass for C3 (undocumented `unsafe`).
//!
//! The tracker is deliberately syntactic. A *guard binding* is a statement
//! of the shape
//!
//! ```text
//! let [mut] NAME = <expr> . (lock|read|write|writer) ( … ) [adapter]* ;
//! ```
//!
//! where `adapter` is one of `.unwrap()`, `.expect(..)`,
//! `.unwrap_or_else(..)` — the poison-handling idioms this workspace uses.
//! Any further method call after the adapter chain means the binding holds
//! a *derived* value (`.len()`, `.get(..)`, …) and the guard was a
//! temporary that died at the `;`, so it is not tracked. A guard is live
//! from its binding to `drop(NAME)` in the same block, or to the block's
//! closing brace. That over-approximates NLL (rustc may end the borrow
//! earlier) which is the right direction for a lint about *lock* lifetimes:
//! lock guards release on `Drop`, exactly at `drop()` or end of scope.

use crate::diag::Diagnostic;
use crate::engine::FileContext;
use crate::lexer::{LineComment, Tok, TokKind};
use crate::parser::ScopeTree;
use crate::rules;

/// A tracked guard binding.
struct Guard {
    /// Bound name (`g` in `let g = m.lock()…;`).
    name: String,
    /// Lock identity (`crate::receiver-tail`).
    lock: String,
    /// Token index of the binding's `let`.
    start: usize,
    /// Exclusive token index where liveness ends (drop site or block close).
    end: usize,
    /// 1-based line of the acquisition, for messages.
    line: u32,
}

/// Methods that produce a lock guard.
fn is_acquire(name: &str) -> bool {
    matches!(name, "lock" | "read" | "write" | "writer")
}

/// Post-acquisition adapters that still yield the guard itself.
fn is_adapter(name: &str) -> bool {
    matches!(name, "unwrap" | "expect" | "unwrap_or_else")
}

/// Run the concurrency rules over one file, emitting C1/C2/C3 diagnostics
/// into `out`. C1 and C2 bind library code outside test regions only.
pub fn scan(
    toks: &[Tok],
    tree: &ScopeTree,
    comments: &[LineComment],
    ctx: &FileContext,
    test_lines: &[(u32, u32)],
    out: &mut Vec<Diagnostic>,
) {
    c3_unsafe_needs_safety_comment(toks, comments, ctx, out);
    if !ctx.is_library() {
        return;
    }
    let in_test = |line: u32| test_lines.iter().any(|&(a, b)| line >= a && line <= b);
    let guards = collect_guards(toks, tree, ctx);
    let diag = |r: &'static rules::Rule, t: &Tok, message: String| Diagnostic {
        rule: r.id,
        path: ctx.path.clone(),
        line: t.line,
        col: t.col,
        message,
        hint: r.hint,
    };

    for (i, t) in toks.iter().enumerate() {
        let acquires =
            t.ident().is_some_and(is_acquire) && prev_is(toks, i, '.') && next_is(toks, i, '(');
        let fan_out = blocking_call(toks, i);
        if !(acquires || fan_out.is_some()) || in_test(t.line) {
            continue;
        }
        // C2: an acquisition inside another guard's live range, one
        // diagnostic per held lock, anchored at the nested acquisition.
        if acquires {
            let acquired = lock_identity(toks, i, ctx);
            let mut held: Vec<&str> = Vec::new();
            for g in &guards {
                // Skip the guard's own acquisition token.
                let own = t.line == g.line && acquired == g.lock;
                if i > g.start && i < g.end && !own && !held.contains(&g.lock.as_str()) {
                    held.push(&g.lock);
                    out.push(diag(
                        rules::C2,
                        t,
                        format!(
                            "`{acquired}` is acquired while guard `{}` on `{}` (acquired line \
                             {}) is live; two paths nesting the same locks in opposite orders \
                             deadlock",
                            g.name, g.lock, g.line
                        ),
                    ));
                }
            }
        }
        // C1: a blocking fan-out inside a guard's live range.
        let Some(label) = fan_out else { continue };
        for g in guards.iter().filter(|g| i > g.start && i < g.end) {
            out.push(diag(
                rules::C1,
                t,
                format!(
                    "guard `{}` on `{}` (acquired line {}) is live across this {label} call; \
                     a worker that touches the same lock deadlocks",
                    g.name, g.lock, g.line
                ),
            ));
        }
    }
}

/// Label of the blocking fan-out that token `i` starts, if any (C1's set:
/// `run_jobs(..)` and `thread::scope(..)`).
fn blocking_call(toks: &[Tok], i: usize) -> Option<&'static str> {
    if !next_is(toks, i, '(') {
        return None;
    }
    match toks[i].ident()? {
        "run_jobs" => Some("`run_jobs` fan-out"),
        "scope" if path_prefix_is(toks, i, "thread") => Some("`thread::scope` fan-out"),
        _ => None,
    }
}

/// True when tokens before `i` are `PREFIX ::`.
fn path_prefix_is(toks: &[Tok], i: usize, prefix: &str) -> bool {
    i >= 3
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && toks[i - 3].ident() == Some(prefix)
}

fn next_is(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i + 1).is_some_and(|n| n.is_punct(c))
}

fn prev_is(toks: &[Tok], i: usize, c: char) -> bool {
    i > 0 && toks[i - 1].is_punct(c)
}

/// Index of the `)` matching the `(` at `open`, or `None` when unbalanced.
fn matching_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Find every guard binding in the file (see module docs for the shape).
fn collect_guards(toks: &[Tok], tree: &ScopeTree, ctx: &FileContext) -> Vec<Guard> {
    let mut guards = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].ident() != Some("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).and_then(|t| t.ident()) == Some("mut") {
            j += 1;
        }
        let Some(name) = toks.get(j).and_then(|t| t.ident()) else {
            i += 1;
            continue;
        };
        if !next_is(toks, j, '=') {
            i += 1;
            continue;
        }
        // Statement end: the `;` at this statement's own bracket depth.
        let Some(semi) = statement_end(toks, j + 2) else {
            i += 1;
            continue;
        };
        // Is the initializer a bare guard acquisition? Find the acquire
        // call, then require nothing but adapters between its `)` and `;`.
        if let Some((acq_idx, lock)) = guard_acquisition(toks, j + 2, semi, ctx) {
            let end = liveness_end(toks, tree, semi, name);
            guards.push(Guard {
                name: name.to_string(),
                lock,
                start: i,
                end,
                line: toks[acq_idx].line,
            });
        }
        i = j + 1;
    }
    guards
}

/// Token index of the `;` ending the statement starting at `from`, at the
/// statement's own paren/bracket/brace depth.
fn statement_end(toks: &[Tok], from: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match &t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return None; // statement ran off the enclosing block
                }
            }
            TokKind::Punct(';') if depth == 0 => return Some(j),
            _ => {}
        }
    }
    None
}

/// If `toks[from..semi]` is `expr.(lock|read|write|writer)(..)` followed
/// only by adapters, return the acquire token index and the lock identity.
fn guard_acquisition(
    toks: &[Tok],
    from: usize,
    semi: usize,
    ctx: &FileContext,
) -> Option<(usize, String)> {
    // Find the *first* acquire method call at chain depth 0.
    let mut depth = 0i64;
    for j in from..semi {
        match &toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
            TokKind::Ident(name)
                if depth == 0
                    && is_acquire(name)
                    && prev_is(toks, j, '.')
                    && next_is(toks, j, '(') =>
            {
                let close = matching_paren(toks, j + 1)?;
                // Walk the adapter chain after the acquire call.
                let mut k = close + 1;
                loop {
                    if k == semi {
                        return Some((j, lock_identity(toks, j, ctx)));
                    }
                    if !toks[k].is_punct('.') {
                        return None; // e.g. `?` or arithmetic — not a bare guard
                    }
                    let ad = toks.get(k + 1).and_then(|t| t.ident())?;
                    if !is_adapter(ad) || !next_is(toks, k + 1, '(') {
                        return None; // derived value (`.len()`, `.get(..)`)
                    }
                    k = matching_paren(toks, k + 2)? + 1;
                }
            }
            _ => {}
        }
    }
    None
}

/// Exclusive token index where a guard bound at statement-`;` `semi` dies:
/// `drop(NAME)` later in the file before the block closes, else the
/// enclosing block's `}` (or EOF).
fn liveness_end(toks: &[Tok], tree: &ScopeTree, semi: usize, name: &str) -> usize {
    let block_close =
        tree.enclosing_block(semi).map(|bi| tree.blocks[bi].close).unwrap_or(toks.len());
    for j in semi..block_close.min(toks.len()) {
        if toks[j].ident() == Some("drop")
            && next_is(toks, j, '(')
            && toks.get(j + 2).and_then(|t| t.ident()) == Some(name)
            && toks.get(j + 3).is_some_and(|t| t.is_punct(')'))
        {
            return j;
        }
    }
    block_close
}

/// Lock identity for the acquire call at token `i`: `crate::tail`, where
/// `tail` is the last path/field segment of the receiver expression
/// (`self.tsdb.write()` → `tsdb`, `slots[i].lock()` → `slots`,
/// `self.inner().lock()` → `inner`). A receiver reached through `?` names
/// the field the fallible accessor was called on
/// (`self.inner.as_ref()?.lock()` → `inner`).
fn lock_identity(toks: &[Tok], i: usize, ctx: &FileContext) -> String {
    let mut j = i.checked_sub(2); // skip the `.` before the method
    if let Some(k) = j.filter(|&k| toks[k].is_punct('?')) {
        // Step back over the `?`, the accessor's call group, its name and
        // the `.` before it.
        j = k.checked_sub(1).and_then(|k| before_group(toks, k)).and_then(|k| k.checked_sub(2));
    }
    let tail = j.and_then(|k| before_group(toks, k)).and_then(|k| toks[k].ident()).unwrap_or("?");
    format!("{}::{}", ctx.crate_name, tail)
}

/// The token index before the `[..]` index or `(..)` call group that
/// closes at `k`, or `k` itself when no group closes there. `None` when the
/// group opens at the start of the file (or never opens).
fn before_group(toks: &[Tok], k: usize) -> Option<usize> {
    let (close, open) = match &toks[k].kind {
        TokKind::Punct(']') => (']', '['),
        TokKind::Punct(')') => (')', '('),
        _ => return Some(k),
    };
    let mut depth = 0i64;
    for j in (0..=k).rev() {
        if toks[j].is_punct(close) {
            depth += 1;
        } else if toks[j].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return j.checked_sub(1);
            }
        }
    }
    None
}

/// C3: every `unsafe` token, `static mut`, and `UnsafeCell` use needs an
/// adjacent `// SAFETY:` comment (same line, or the contiguous comment run
/// directly above). Applies to every file kind — tests included: an
/// undocumented escape hatch is a review hazard wherever it sits.
fn c3_unsafe_needs_safety_comment(
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
            let r = rules::C3;
            out.push(Diagnostic {
                rule: r.id,
                path: ctx.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{name}` without an adjacent `// SAFETY:` comment documenting why the \
                     invariants hold"
                ),
                hint: r.hint,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FileKind;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn run(src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let tree = parse(&lexed.toks);
        let c = FileContext {
            path: "crates/sim/src/x.rs".into(),
            crate_name: "sim".into(),
            kind: FileKind::Library,
        };
        let mut out = Vec::new();
        scan(&lexed.toks, &tree, &lexed.comments, &c, &[], &mut out);
        out
    }

    #[test]
    fn c1_guard_across_run_jobs() {
        let src =
            "fn f(m: &Mutex<u32>) {\n  let g = m.lock().unwrap();\n  run_jobs(4, &xs, |x| x);\n}\n";
        let out = run(src);
        assert_eq!(out.iter().filter(|d| d.rule == "C1").count(), 1, "{out:?}");
        assert!(out[0].message.contains("`g`"), "{out:?}");
    }

    #[test]
    fn c1_respects_drop_and_scope() {
        let src = "fn f(m: &Mutex<u32>) {\n  let g = m.lock().unwrap();\n  drop(g);\n  run_jobs(4, &xs, |x| x);\n}\n";
        assert!(run(src).is_empty());
        let src =
            "fn f(m: &Mutex<u32>) {\n  { let g = m.lock().unwrap(); }\n  run_jobs(4, &xs, |x| x);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn c1_ignores_derived_temporaries() {
        // `.len()` after the adapter chain: not a guard binding.
        let src = "fn f(m: &Mutex<Vec<u32>>) {\n  let n = m.lock().unwrap().len();\n  run_jobs(4, &xs, |x| x);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn c1_thread_scope_needs_the_thread_path() {
        let src = "fn f(m: &RwLock<u32>) {\n  let g = m.write();\n  thread::scope(|s| { s.spawn(|| {}); });\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        // Plain `scope(..)` without the `thread::` path is not in the set.
        let src = "fn f(m: &RwLock<u32>) {\n  let g = m.read();\n  scope(|s| {});\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn c2_flags_each_nested_acquisition() {
        let src = "fn f(&self) {\n  let a = self.alpha.lock().unwrap();\n  let b = self.beta.lock().unwrap();\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].rule, out[0].line), ("C2", 3));
        assert!(out[0].message.contains("`sim::beta`") && out[0].message.contains("`a`"));
        // A temporary acquisition while holding a guard is nested too.
        let src = "fn f(&self) {\n  let a = self.alpha.lock().unwrap();\n  self.slots[i].lock().unwrap().push(1);\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`sim::slots`"), "{out:?}");
        // Taking the locks one at a time is clean.
        let src = "fn f(&self) {\n  self.alpha.lock().push(1);\n  let b = self.beta.lock();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn a_lock_reached_through_try_is_named_by_its_field() {
        // The shape of `crates/obs/src/tracer.rs`: the guard is on `inner`, not `?`.
        let src = "fn f(&self) -> Option<u64> {\n  let mut st = self.inner.as_ref()?.lock();\n  run_jobs(4, &xs, |x| x);\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`st` on `sim::inner`"), "{out:?}");
        // Through an indexed receiver, the index is skipped too.
        let src =
            "fn f(&self) {\n  let a = self.slots[i].as_ref()?.lock();\n  self.beta.lock();\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("guard `a` on `sim::slots`"), "{out:?}");
    }

    #[test]
    fn c3_unsafe_needs_safety() {
        let out = run("fn f() { unsafe { go(); } }");
        assert_eq!(out.iter().filter(|d| d.rule == "C3").count(), 1, "{out:?}");
        let out = run("// SAFETY: the pointer outlives the call\nfn f() { unsafe { go(); } }");
        assert!(out.is_empty(), "{out:?}");
        // Comment run with the SAFETY line on top still counts.
        let src =
            "// SAFETY: single-threaded init\n// (checked by the ctor)\nstatic mut X: u32 = 0;\n";
        assert!(run(src).is_empty());
        assert_eq!(run("static mut X: u32 = 0;\n").len(), 1);
        assert_eq!(run("use core::cell::UnsafeCell;\n").len(), 1);
    }
}
