//! Rule E1: event handlers run in continuous time.
//!
//! The event-queue loop (DESIGN.md §14) promises that handlers — `fn
//! on_*` / `fn handle_*` in `crates/sim` and `crates/core` — advance
//! bookkeeping in closed form. Due times are snapped to the tick grid
//! exactly once, at enqueue (`grid_at_or_after`); a handler that divides
//! by the tick re-derives grid indices and quietly reintroduces the tick
//! loop the calendar exists to skip, so it is denied at the source. (A
//! handler that reads the wall clock is already refused by clippy's
//! `disallowed_types`, DESIGN.md §8.)
//!
//! Like the C rules, E1 is scope-aware: it consults the
//! [`crate::parser::ScopeTree`] to resolve which `fn` owns a token, and
//! only tokens inside a handler-named body can fire.

use crate::diag::Diagnostic;
use crate::engine::FileContext;
use crate::lexer::{Tok, TokKind};
use crate::parser::ScopeTree;
use crate::rules::E1;

/// Crates whose `on_*`/`handle_*` fns are event handlers under the
/// continuous-time contract: `sched` and `telemetry` never see calendar
/// events.
pub const HANDLER_CRATES: [&str; 2] = ["sim", "core"];

/// True when `name` follows the event-handler naming convention.
fn is_handler_name(name: &str) -> bool {
    name.strip_prefix("on_").or_else(|| name.strip_prefix("handle_")).is_some_and(|r| !r.is_empty())
}

/// True when `name` names the simulation tick (`tick`, `tick_us`, ...).
fn is_tick_ident(name: &str) -> bool {
    name == "tick" || name.starts_with("tick_") || name.ends_with("_tick")
}

/// Does the divisor expression starting after the `/` at `slash` reach a
/// tick identifier? The divisor is read as a dotted path — idents, `.`,
/// and numeric field accesses (`cfg.tick.0`) — and the scan stops at the
/// first token that cannot extend one.
fn divides_by_tick(toks: &[Tok], slash: usize) -> bool {
    for t in toks.iter().skip(slash + 1).take(8) {
        match &t.kind {
            TokKind::Ident(name) if is_tick_ident(name) => return true,
            TokKind::Ident(_) | TokKind::Num | TokKind::Punct('.') => {}
            _ => return false,
        }
    }
    false
}

/// Does the `div_ceil` call at `i` involve the tick — either in its
/// argument list or in its receiver path (`cfg.tick.0.div_ceil(n)`)?
fn div_ceil_touches_tick(toks: &[Tok], i: usize) -> bool {
    // Receiver: walk the dotted path backwards from the `.` before the call.
    for t in toks[..i].iter().rev().take(8) {
        match &t.kind {
            TokKind::Ident(name) if is_tick_ident(name) => return true,
            TokKind::Ident(_) | TokKind::Num | TokKind::Punct('.') => {}
            _ => break,
        }
    }
    // Arguments: any tick identifier inside the matching parens.
    if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        let mut depth = 0usize;
        for t in &toks[i + 1..] {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if let TokKind::Ident(name) = &t.kind {
                if is_tick_ident(name) {
                    return true;
                }
            }
        }
    }
    false
}

/// Run rule E1 over one file's token stream.
pub fn scan(
    toks: &[Tok],
    tree: &ScopeTree,
    ctx: &FileContext,
    test_lines: &[(u32, u32)],
    out: &mut Vec<Diagnostic>,
) {
    if !(ctx.is_library() && HANDLER_CRATES.iter().any(|c| ctx.crate_name == *c)) {
        return;
    }
    let in_test = |line: u32| test_lines.iter().any(|&(a, b)| line >= a && line <= b);
    let diag = |t: &Tok, msg: String| Diagnostic {
        rule: E1.id,
        path: ctx.path.clone(),
        line: t.line,
        col: t.col,
        message: msg,
        hint: E1.hint,
    };
    for (i, t) in toks.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        let Some(f) = tree.enclosing_fn(i).filter(|f| is_handler_name(&f.name)) else { continue };
        match &t.kind {
            TokKind::Ident(name) if name == "div_ceil" && div_ceil_touches_tick(toks, i) => {
                out.push(diag(
                    t,
                    format!(
                        "`div_ceil` by the tick inside event handler `{}` re-quantizes \
                         continuous time onto the tick grid",
                        f.name
                    ),
                ));
            }
            TokKind::Punct('/') if divides_by_tick(toks, i) => {
                out.push(diag(
                    t,
                    format!(
                        "division by the tick inside event handler `{}` re-quantizes \
                         continuous time onto the tick grid",
                        f.name
                    ),
                ));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FileKind;
    use crate::lexer::lex;

    fn run_in(crate_name: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = FileContext {
            path: format!("crates/{crate_name}/src/x.rs"),
            crate_name: crate_name.into(),
            kind: FileKind::Library,
        };
        let lexed = lex(src);
        let tree = crate::parser::parse(&lexed.toks);
        let mut out = Vec::new();
        scan(&lexed.toks, &tree, &ctx, &[], &mut out);
        out
    }

    #[test]
    fn handler_naming_convention() {
        assert!(is_handler_name("on_heartbeat"));
        assert!(is_handler_name("handle_event"));
        // Bare prefixes and near-misses do not bind.
        assert!(!is_handler_name("on_"));
        assert!(!is_handler_name("handle_"));
        assert!(!is_handler_name("once"));
        assert!(!is_handler_name("handler"));
    }

    #[test]
    fn fires_only_inside_handlers_of_event_crates() {
        let bad = "fn handle_due(&mut self, at: u64) -> u64 { at / self.cfg.tick }";
        assert_eq!(run_in("core", bad).len(), 1);
        assert_eq!(run_in("sim", bad).len(), 1);
        // Same division outside a handler, or outside the event crates.
        assert!(run_in("core", "fn quantize(at: u64, tick: u64) -> u64 { at / tick }").is_empty());
        assert!(run_in("sched", bad).is_empty());
    }

    #[test]
    fn div_ceil_matches_receiver_and_argument_forms() {
        let hits =
            run_in("core", "fn on_due(at: u64, tick_us: u64) -> u64 { at.div_ceil(tick_us) }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        let hits = run_in("core", "fn on_due(&self, n: u64) -> u64 { self.tick_us.div_ceil(n) }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        // div_ceil with no tick involvement is ordinary arithmetic.
        assert!(run_in("core", "fn on_due(a: u64, b: u64) -> u64 { a.div_ceil(b) }").is_empty());
    }

    #[test]
    fn divisor_scan_stops_at_expression_boundaries() {
        // The tick appears after the divisor expression ends: no hit.
        let src = "fn on_due(&self, a: u64, b: u64) -> u64 { let x = a / b; self.tick }";
        assert!(run_in("core", src).is_empty());
    }
}
