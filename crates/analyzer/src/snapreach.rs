//! Rule R1 — snapshot reachability: no `HashMap`/`HashSet`/`Instant`
//! fields in types reachable from the durable control-plane snapshot.
//!
//! `crates/recovery` checkpoints the paused control plane by serializing
//! [`OrchestratorState`] into a [`Snapshot`] envelope and later resumes it
//! bit-identically. That contract dies quietly if a hash collection
//! (iteration order random per process) or a wall-clock `Instant`
//! (meaningless after a restart) sneaks into any type the snapshot
//! transitively embeds — the serializer would either leak per-process
//! order into the payload bytes or capture a value that cannot be
//! restored. D1/D2 already ban these types in *decision-path* crates;
//! R1 closes the remaining gap: crates outside that list (chaos,
//! workloads, obs, …) may use hash collections freely **unless** the type
//! is part of the snapshot closure.
//!
//! The pass is name-based and deliberately over-approximate: each
//! `struct`/`enum` declaration in library code contributes its name plus
//! every capitalized type identifier its body mentions (field types,
//! variant payloads); reachability is a BFS over those name edges from
//! the roots `Snapshot` and `OrchestratorState` (the envelope and its
//! payload type — the payload is carried as serialized JSON, so the edge
//! exists in the format, not in a field type). Same-name types in
//! different crates are merged — a false edge costs at worst a pragma
//! with a written reason, while a missed edge costs a corrupted resume.
//!
//! [`OrchestratorState`]: ../../knots_core/orchestrator/struct.OrchestratorState.html
//! [`Snapshot`]: ../../knots_recovery/snapshot/struct.Snapshot.html

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::engine::FileContext;
use crate::lexer::Tok;
use crate::rules;

/// Type names whose reachability from a root makes every member bad-field
/// diagnosable. Both spellings of the wall clock are included — D1 bans
/// them in library code anyway, but R1's message says *why it corrupts a
/// snapshot*, which is the actionable part.
const BAD_TYPES: [&str; 4] = ["HashMap", "HashSet", "Instant", "SystemTime"];

/// Roots of the snapshot closure: the envelope and its payload type.
const ROOTS: [&str; 2] = ["Snapshot", "OrchestratorState"];

/// One `struct`/`enum` declaration and the type names its body mentions.
#[derive(Debug, Clone)]
pub struct TypeDecl {
    /// Repo-relative path of the declaring file.
    pub path: String,
    /// Declared type name.
    pub name: String,
    /// Line of the `struct`/`enum` keyword (1-based).
    pub line: u32,
    /// Capitalized type identifiers referenced in the body — the
    /// reachability edges (deduplicated, source order).
    pub refs: Vec<String>,
    /// Forbidden type mentions found in the body.
    pub bad: Vec<BadMention>,
}

/// One mention of a forbidden type inside a declaration body.
#[derive(Debug, Clone)]
pub struct BadMention {
    /// Which of [`BAD_TYPES`] was mentioned.
    pub ty: String,
    /// 1-based line of the mention.
    pub line: u32,
    /// 1-based column of the mention.
    pub col: u32,
}

/// Collect every `struct`/`enum` declaration in one library file's token
/// stream, skipping `#[cfg(test)]` regions (test helper types are not
/// snapshot state). Non-library files contribute nothing: integration
/// tests and benches freely declare scratch types whose names may collide
/// with real state types.
pub fn collect(ctx: &FileContext, toks: &[Tok], test_lines: &[(u32, u32)]) -> Vec<TypeDecl> {
    if !ctx.is_library() {
        return Vec::new();
    }
    let in_test = |line: u32| test_lines.iter().any(|&(a, b)| line >= a && line <= b);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let is_decl_kw = toks[i].ident().is_some_and(|n| n == "struct" || n == "enum");
        if !is_decl_kw || in_test(toks[i].line) {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
            i += 1;
            continue;
        };
        let line = toks[i].line;
        let name = name.to_string();

        // Walk past generics and any `where` clause to the body opener.
        // `{`/`(` starts the body, `;` ends a bodiless (unit) struct.
        let mut j = i + 2;
        let mut angle = 0usize;
        let body_open = loop {
            let Some(t) = toks.get(j) else { break None };
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = angle.saturating_sub(1);
            } else if angle == 0 && (t.is_punct('{') || t.is_punct('(')) {
                break Some(j);
            } else if angle == 0 && t.is_punct(';') {
                break None;
            }
            j += 1;
        };
        let Some(open) = body_open else {
            out.push(TypeDecl {
                path: ctx.path.clone(),
                name,
                line,
                refs: Vec::new(),
                bad: Vec::new(),
            });
            i = j + 1;
            continue;
        };
        let (oc, cc) = if toks[open].is_punct('{') { ('{', '}') } else { ('(', ')') };
        let close = matching(toks, open, oc, cc).unwrap_or(toks.len() - 1);

        let mut refs: Vec<String> = Vec::new();
        let mut bad = Vec::new();
        let mut k = open + 1;
        while k < close {
            let t = &toks[k];
            // Skip attribute runs (`#[serde(default)]` and friends): their
            // idents are trait/config names, not field types.
            if t.is_punct('#') && toks.get(k + 1).is_some_and(|n| n.is_punct('[')) {
                k = matching(toks, k + 1, '[', ']').map_or(close, |c| c + 1);
                continue;
            }
            if let Some(id) = t.ident() {
                if BAD_TYPES.contains(&id) {
                    bad.push(BadMention { ty: id.to_string(), line: t.line, col: t.col });
                } else if id.starts_with(|c: char| c.is_ascii_uppercase())
                    && !refs.iter().any(|r| r == id)
                {
                    refs.push(id.to_string());
                }
            }
            k += 1;
        }
        out.push(TypeDecl { path: ctx.path.clone(), name, line, refs, bad });
        i = close + 1;
    }
    out
}

/// Judge a set of declarations (one file's for `check_source`, the whole
/// workspace's for `check_root`): BFS the name-reference graph from
/// [`ROOTS`] and report every forbidden mention inside a reachable type.
pub fn judge(decls: &[TypeDecl]) -> Vec<Diagnostic> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in decls.iter().enumerate() {
        by_name.entry(d.name.as_str()).or_default().push(i);
    }
    let mut reach = vec![false; decls.len()];
    let mut stack: Vec<usize> =
        ROOTS.iter().flat_map(|r| by_name.get(r).into_iter().flatten().copied()).collect();
    while let Some(i) = stack.pop() {
        if reach[i] {
            continue;
        }
        reach[i] = true;
        for r in &decls[i].refs {
            for &n in by_name.get(r.as_str()).into_iter().flatten() {
                if !reach[n] {
                    stack.push(n);
                }
            }
        }
    }
    let mut out = Vec::new();
    for (i, d) in decls.iter().enumerate() {
        if !reach[i] {
            continue;
        }
        for b in &d.bad {
            out.push(Diagnostic {
                rule: rules::R1.id,
                severity: rules::R1.severity,
                path: d.path.clone(),
                line: b.line,
                col: b.col,
                message: format!(
                    "`{}` field in `{}`, which is snapshot-reachable: hash iteration order \
                     (or a wall-clock instant) would leak into the checkpoint payload and \
                     break bit-identical resume",
                    b.ty, d.name
                ),
                hint: rules::R1.hint,
            });
        }
    }
    out
}

/// Index of the token matching the opener at `open`, or `None` when the
/// stream ends unbalanced.
fn matching(toks: &[Tok], open: usize, oc: char, cc: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(oc) {
            depth += 1;
        } else if t.is_punct(cc) {
            depth = depth.checked_sub(1)?;
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
    use crate::engine::{classify, test_regions};
    use crate::lexer::lex;

    fn decls(rel: &str, src: &str) -> Vec<TypeDecl> {
        let lexed = lex(src);
        let regions = test_regions(&lexed.toks);
        collect(&classify(rel), &lexed.toks, &regions)
    }

    #[test]
    fn collects_structs_enums_refs_and_bad_mentions() {
        let src = "pub struct Snapshot { pub at: SimTime, pub inner: Inner }\n\
                   pub struct Inner(HashMap<u32, u32>);\n\
                   pub enum Ev { A, B(Instant), C { t: Other } }\n\
                   pub struct Unit;\n";
        let d = decls("crates/chaos/src/x.rs", src);
        let names: Vec<&str> = d.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["Snapshot", "Inner", "Ev", "Unit"]);
        assert_eq!(d[0].refs, vec!["SimTime", "Inner"]);
        assert_eq!(d[1].bad.len(), 1);
        assert_eq!(d[1].bad[0].ty, "HashMap");
        assert_eq!(d[2].bad[0].ty, "Instant");
        assert_eq!(d[2].refs, vec!["A", "B", "C", "Other"]);
        assert!(d[3].refs.is_empty() && d[3].bad.is_empty());
    }

    #[test]
    fn skips_test_regions_attributes_and_non_library_files() {
        let src =
            "#[derive(Clone)]\npub struct Live { #[serde(default)] pub m: HashMap<u8, u8> }\n\
                   #[cfg(test)]\nmod t { struct Helper { m: HashMap<u8, u8> } }\n";
        let d = decls("crates/chaos/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].name, "Live");
        assert_eq!(d[0].bad.len(), 1);
        assert!(decls("crates/chaos/tests/x.rs", src).is_empty());
    }

    #[test]
    fn reachability_crosses_files_and_spares_unreachable_types() {
        let a = decls(
            "crates/core/src/a.rs",
            "pub struct OrchestratorState { pub chaos: ChaosEngineState }\n",
        );
        let b = decls(
            "crates/chaos/src/b.rs",
            "pub struct ChaosEngineState { pub seen: HashSet<u64> }\n\
             pub struct FreeStanding { pub cache: HashMap<u64, u64> }\n",
        );
        let mut all = a;
        all.extend(b);
        let diags = judge(&all);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "R1");
        assert_eq!(diags[0].path, "crates/chaos/src/b.rs");
        assert!(diags[0].message.contains("ChaosEngineState"), "{diags:?}");
    }

    #[test]
    fn no_roots_means_no_diagnostics() {
        let d = decls("crates/chaos/src/x.rs", "pub struct Lone { pub m: HashMap<u8, u8> }\n");
        assert!(judge(&d).is_empty());
    }
}
