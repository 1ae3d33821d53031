//! A lightweight brace-tree / item parser layered on the lexer.
//!
//! The token rules (M1, C3) are shape-local: they look at a handful of
//! neighboring tokens. The event-handler rule (E1) is *scope*-local: "is
//! this token inside an `on_*` handler?" needs to know where blocks open
//! and close and which function a token belongs to. This module builds
//! exactly that much structure — a list of `{ … }` blocks plus the list of
//! `fn` items with their body blocks — and nothing more. It is not a Rust
//! parser; it never fails, and on unbalanced input it degrades to
//! "everything to EOF is one scope", which keeps the analyzer total on
//! arbitrary byte streams (fuzz contract).

use crate::lexer::{Tok, TokKind};

/// One `{ … }` block. Indices are token positions in the lexed stream.
#[derive(Debug, Clone)]
pub struct Block {
    /// Token index of the opening `{`.
    pub open: usize,
    /// Token index of the matching `}`, or `toks.len()` when unterminated.
    pub close: usize,
}

/// One `fn` item: name, position, and body block (when it has one).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name as written.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Arena index of the body block; `None` for bodiless declarations.
    pub body: Option<usize>,
}

/// The scope tree for one file: a block arena plus the `fn` items.
#[derive(Debug, Default)]
pub struct ScopeTree {
    /// All blocks, in source order of their opening brace.
    pub blocks: Vec<Block>,
    /// All `fn` items, in source order.
    pub fns: Vec<FnItem>,
}

impl ScopeTree {
    /// The `fn` item whose body contains token `idx`, if any. Nested fns
    /// resolve to the innermost one.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnItem> {
        let mut best: Option<(&FnItem, usize)> = None;
        for f in &self.fns {
            let Some(bi) = f.body else { continue };
            let b = &self.blocks[bi];
            if b.open <= idx && idx < b.close {
                let span = b.close - b.open;
                match best {
                    Some((_, prev_span)) if prev_span <= span => {}
                    _ => best = Some((f, span)),
                }
            }
        }
        best.map(|(f, _)| f)
    }
}

/// Build the scope tree for a token stream. Total: unbalanced braces close
/// at EOF, stray closers are ignored.
pub fn parse(toks: &[Tok]) -> ScopeTree {
    let mut tree = ScopeTree::default();
    // Stack of open block arena indices.
    let mut stack: Vec<usize> = Vec::new();
    // A `fn NAME` seen but not yet given a body. Cleared by `;` at the
    // same brace depth (bodiless declaration) or consumed by the next `{`.
    let mut pending_fn: Option<(String, u32, usize)> = None; // (name, line, depth at fn)

    for (i, t) in toks.iter().enumerate() {
        match &t.kind {
            TokKind::Ident(name) if name == "fn" => {
                if let Some(TokKind::Ident(fname)) = toks.get(i + 1).map(|n| &n.kind) {
                    pending_fn = Some((fname.clone(), t.line, stack.len()));
                }
            }
            TokKind::Punct('{') => {
                let bi = tree.blocks.len();
                tree.blocks.push(Block { open: i, close: toks.len() });
                // A pending fn at this depth claims the block as its body.
                if let Some((name, line, depth)) = pending_fn.take() {
                    if depth == stack.len() {
                        tree.fns.push(FnItem { name, line, body: Some(bi) });
                    } else {
                        pending_fn = Some((name, line, depth));
                    }
                }
                stack.push(bi);
            }
            TokKind::Punct('}') => {
                if let Some(bi) = stack.pop() {
                    tree.blocks[bi].close = i;
                }
            }
            TokKind::Punct(';') => {
                // A `;` before any `{` at the fn's own depth means a
                // bodiless declaration (trait method, extern).
                if let Some((name, line, depth)) = pending_fn.take() {
                    if depth == stack.len() {
                        tree.fns.push(FnItem { name, line, body: None });
                    } else {
                        pending_fn = Some((name, line, depth));
                    }
                }
            }
            _ => {}
        }
    }
    if let Some((name, line, _)) = pending_fn.take() {
        tree.fns.push(FnItem { name, line, body: None });
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_bodies_and_nesting() {
        let src = "fn outer() {\n  let x = 1;\n  fn inner() { let y = 2; }\n  { let z = 3; }\n}\nfn bodiless();\n";
        let tree = parse(&lex(src).toks);
        let names: Vec<&str> = tree.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "bodiless"]);
        assert!(tree.fns.iter().find(|f| f.name == "bodiless").unwrap().body.is_none());
        // outer's body encloses inner's body.
        let outer = tree.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = tree.fns.iter().find(|f| f.name == "inner").unwrap();
        let (ob, ib) = (&tree.blocks[outer.body.unwrap()], &tree.blocks[inner.body.unwrap()]);
        assert!(ob.open < ib.open && ib.close < ob.close);
    }

    #[test]
    fn enclosing_fn_resolves_innermost() {
        let src = "fn a() { fn b() { drop(1); } }";
        let lexed = lex(src);
        let tree = parse(&lexed.toks);
        // Find the `drop` token.
        let di = lexed.toks.iter().position(|t| t.ident() == Some("drop")).unwrap();
        assert_eq!(tree.enclosing_fn(di).unwrap().name, "b");
    }

    #[test]
    fn unbalanced_input_is_total() {
        for src in ["fn f() { let x = 1;", "}}}{", "fn", "fn f", "{ fn g(", "fn f() -> T;"] {
            let tree = parse(&lex(src).toks);
            // Nothing to assert beyond "did not panic and closes at EOF".
            for b in &tree.blocks {
                assert!(b.close >= b.open);
            }
        }
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "type F = fn(u32) -> u32; fn real() {}";
        let tree = parse(&lex(src).toks);
        let names: Vec<&str> = tree.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }
}
