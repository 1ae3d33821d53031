//! The engine: file discovery, file classification, `#[cfg(test)]` region
//! detection, pragma handling, and the per-file check pipeline that ties
//! lexer → rules → suppression → severity together.
//!
//! Suppression has exactly two mechanisms, both requiring a written reason:
//!
//! * per-site pragma — a line comment of the form
//!   `knots-allow: <rule>[, <rule>]* -- <reason>` (after the `//`), which
//!   covers its own line and the line immediately below it;
//! * per-file `analyzer.toml` entry — see [`crate::config`].
//!
//! Pragmas are themselves linted: a pragma with no ` -- reason` or an
//! unknown rule id is `A0` (deny), and a pragma that suppressed nothing is
//! `A1` (warn), so stale allowances cannot accumulate silently.

use std::fs;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::diag::{sort, Diagnostic, Severity};
use crate::lexer::{lex, LineComment, Tok, TokKind};
use crate::rules::{self, Rule};

/// Meta-rules about the suppression machinery itself.
pub const PRAGMA_RULES: [Rule; 2] = [
    Rule {
        id: "A0",
        severity: Severity::Deny,
        summary: "malformed knots-allow pragma (missing ` -- reason` or unknown rule id)",
        hint: "write `// knots-allow: <rule>[, <rule>] -- <reason>`; the reason is mandatory",
    },
    Rule {
        id: "A1",
        severity: Severity::Warn,
        summary: "knots-allow pragma that suppressed nothing",
        hint: "delete the stale pragma (it covers its own line and the next line only)",
    },
];

/// What role a file plays in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under some crate's `src/` — the strictest tier.
    Library,
    /// Binary entry point (`src/main.rs`, `src/bin/*`): P1/H1 do not bind.
    Binary,
    /// Integration tests, examples, benches, and the `bench` harness crate.
    Harness,
}

/// Where a file sits: its path, owning crate, and role.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Crate directory name (`sched`, `sim`, ...; `kube-knots` for the root
    /// package; empty when unknown).
    pub crate_name: String,
    /// Role of the file.
    pub kind: FileKind,
}

impl FileContext {
    /// True for library code, where every rule binds.
    pub fn is_library(&self) -> bool {
        self.kind == FileKind::Library
    }
}

/// Classify a repo-relative path.
pub fn classify(rel: &str) -> FileContext {
    let parts: Vec<&str> = rel.split('/').collect();
    let ctx = |crate_name: &str, kind| FileContext {
        path: rel.to_string(),
        crate_name: crate_name.to_string(),
        kind,
    };
    match parts.as_slice() {
        ["crates", name, rest @ ..] | ["shims", name, rest @ ..] => match rest {
            // The bench crate is a figure-generation harness end to end:
            // its "library" is plotting glue driven by the bins.
            _ if *name == "bench" => ctx(name, FileKind::Harness),
            ["src", "main.rs"] => ctx(name, FileKind::Binary),
            ["src", "bin", ..] => ctx(name, FileKind::Binary),
            ["src", ..] => ctx(name, FileKind::Library),
            ["tests", ..] | ["benches", ..] | ["examples", ..] => ctx(name, FileKind::Harness),
            _ => ctx(name, FileKind::Harness), // build.rs and friends
        },
        ["src", "main.rs"] | ["src", "bin", ..] => ctx("kube-knots", FileKind::Binary),
        ["src", ..] => ctx("kube-knots", FileKind::Library),
        _ => ctx("", FileKind::Harness), // root tests/, examples/, stray files
    }
}

/// Find every `.rs` file under `root`, repo-relative, sorted — the walk
/// order is part of the deterministic output contract. Skips `target` and
/// dot-directories.
pub fn discover(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(dir) = stack.pop() {
        let abs = root.join(&dir);
        let entries = fs::read_dir(&abs).map_err(|e| format!("read_dir {}: {e}", abs.display()))?;
        let mut names: Vec<String> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", abs.display()))?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        for name in names {
            let child_abs = abs.join(&name);
            let child_rel =
                if dir.as_os_str().is_empty() { PathBuf::from(&name) } else { dir.join(&name) };
            if child_abs.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(child_rel);
            } else if name.ends_with(".rs") {
                out.push(child_rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Line ranges `(start, end)` inside `#[cfg(test)]` / `#[test]` items.
///
/// An attribute is test-gating only when its tokens are exactly
/// `cfg ( test )` or `test` — `cfg(not(test))` and `cfg(all(test, ..))`
/// deliberately do not match (the former is live code, the latter is rare
/// enough that a pragma is the right tool).
pub fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let attr_start = toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['));
        if !attr_start {
            i += 1;
            continue;
        }
        let Some(close) = matching(toks, i + 1, '[', ']') else { break };
        if attr_is_test(&toks[i + 2..close]) {
            let start_line = toks[i].line;
            // Step over any further attributes on the same item.
            let mut j = close + 1;
            while j < toks.len()
                && toks[j].is_punct('#')
                && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
            {
                match matching(toks, j + 1, '[', ']') {
                    Some(c) => j = c + 1,
                    None => break,
                }
            }
            // The item body is the first `{ .. }` block; a `;` first means
            // a bodiless item and the region ends there.
            let mut end_line = u32::MAX; // unterminated: gate to EOF
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    if let Some(cb) = matching(toks, j, '{', '}') {
                        end_line = toks[cb].line;
                    }
                    break;
                }
                if toks[j].is_punct(';') {
                    end_line = toks[j].line;
                    break;
                }
                j += 1;
            }
            out.push((start_line, end_line));
        }
        i = close + 1;
    }
    out
}

/// True when the attribute token slice is exactly `cfg ( test )` or `test`.
fn attr_is_test(inner: &[Tok]) -> bool {
    let shape: Vec<&TokKind> = inner.iter().map(|t| &t.kind).collect();
    match shape.as_slice() {
        [TokKind::Ident(a)] => a == "test",
        [TokKind::Ident(a), TokKind::Punct('('), TokKind::Ident(b), TokKind::Punct(')')] => {
            a == "cfg" && b == "test"
        }
        _ => false,
    }
}

/// Index of the token matching the opener at `open`, or `None`.
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

/// One parsed suppression pragma.
#[derive(Debug)]
struct Pragma {
    rules: Vec<String>,
    line: u32,
    /// Malformed pragmas never suppress (they already produced an A0).
    well_formed: bool,
}

/// Per-file analysis output, before suppression. [`check_root`] aggregates
/// the lock edges workspace-wide (rule C2 is a whole-program property),
/// then routes every diagnostic back through its file's pragma/config
/// suppression via [`finish_file`].
#[derive(Debug)]
pub struct FileAnalysis {
    /// Repo-relative path.
    pub rel: String,
    /// Raw diagnostics from every per-file rule (D/P/H/M + C1/C3/C4 + E1).
    raw: Vec<Diagnostic>,
    /// Lock-acquisition edges for the workspace graph.
    pub edges: Vec<crate::conc::LockEdge>,
    /// Type declarations for the snapshot-reachability graph (rule R1 is a
    /// whole-program property like C2: reachability crosses crates).
    pub types: Vec<crate::snapreach::TypeDecl>,
    pragmas: Vec<Pragma>,
    pragma_diags: Vec<Diagnostic>,
}

/// Extract pragmas from the file's line comments. Malformed pragmas are
/// reported as `A0` diagnostics immediately.
fn parse_pragmas(comments: &[LineComment], path: &str) -> (Vec<Pragma>, Vec<Diagnostic>) {
    let mut pragmas = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        // Strip `//`, doc-comment markers, and leading space; only a comment
        // that *begins* with the marker is a pragma, so prose that merely
        // mentions `knots-allow` (in backticks, say) is left alone.
        let body = c.text.trim_start_matches('/').trim_start_matches(['!', '/']).trim_start();
        if !body.starts_with("knots-allow") {
            continue;
        }
        let a0 = |msg: String| Diagnostic {
            rule: PRAGMA_RULES[0].id,
            severity: PRAGMA_RULES[0].severity,
            path: path.to_string(),
            line: c.line,
            col: 1,
            message: msg,
            hint: PRAGMA_RULES[0].hint,
        };
        let Some(rest) = body.strip_prefix("knots-allow:") else {
            diags.push(a0("`knots-allow` pragma missing the `:` after the keyword".into()));
            pragmas.push(Pragma { rules: Vec::new(), line: c.line, well_formed: false });
            continue;
        };
        let Some((rule_part, reason)) = rest.split_once("--") else {
            diags.push(a0("pragma has no ` -- <reason>`; every suppression must say why".into()));
            pragmas.push(Pragma { rules: Vec::new(), line: c.line, well_formed: false });
            continue;
        };
        let rules_list: Vec<String> =
            rule_part.split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
        let unknown: Vec<&String> =
            rules_list.iter().filter(|r| !rules::is_known_rule(r)).collect();
        if rules_list.is_empty() || !unknown.is_empty() || reason.trim().is_empty() {
            let msg = if reason.trim().is_empty() {
                "pragma has an empty reason; every suppression must say why".to_string()
            } else if rules_list.is_empty() {
                "pragma names no rules".to_string()
            } else {
                format!(
                    "pragma names unknown rule(s): {}",
                    unknown.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", ")
                )
            };
            diags.push(a0(msg));
            pragmas.push(Pragma { rules: Vec::new(), line: c.line, well_formed: false });
            continue;
        }
        pragmas.push(Pragma { rules: rules_list, line: c.line, well_formed: true });
    }
    (pragmas, diags)
}

/// Phase one: lex, classify, and run every per-file rule (token rules plus
/// the scope-aware C1/C3/C4 and E1), collecting lock edges for the
/// workspace graph. No suppression happens here.
pub fn analyze_source(rel: &str, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let ctx = classify(rel);
    let regions = test_regions(&lexed.toks);
    let mut raw = Vec::new();
    rules::scan(&lexed.toks, &ctx, &regions, &mut raw);
    let tree = crate::parser::parse(&lexed.toks);
    let edges = crate::conc::scan(&lexed.toks, &tree, &lexed.comments, &ctx, &regions, &mut raw);
    crate::events::scan(&lexed.toks, &tree, &ctx, &regions, &mut raw);
    let types = crate::snapreach::collect(&ctx, &lexed.toks, &regions);
    let (pragmas, pragma_diags) = parse_pragmas(&lexed.comments, rel);
    FileAnalysis { rel: rel.to_string(), raw, edges, types, pragmas, pragma_diags }
}

/// Phase two: apply pragma suppression (tracking usage per rule id so a
/// half-stale `P1,C1` pragma still draws an A1 for the dead half), config
/// allowlisting, A1 staleness, and severity overrides. `extra` carries
/// workspace-level diagnostics (C2 cycles) anchored in this file.
pub fn finish_file(a: FileAnalysis, extra: Vec<Diagnostic>, cfg: &Config) -> Vec<Diagnostic> {
    let FileAnalysis { rel, mut raw, pragmas, pragma_diags, .. } = a;
    raw.extend(extra);
    let mut used: Vec<Vec<bool>> = pragmas.iter().map(|p| vec![false; p.rules.len()]).collect();
    let mut kept: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for (pi, p) in pragmas.iter().enumerate() {
            let covers_line = p.line == d.line || p.line + 1 == d.line;
            if !(p.well_formed && covers_line) {
                continue;
            }
            for (ri, r) in p.rules.iter().enumerate() {
                if r == "*" || r == d.rule {
                    used[pi][ri] = true;
                    suppressed = true;
                }
            }
        }
        if suppressed || cfg.allows(d.rule, &rel) {
            continue;
        }
        kept.push(d);
    }
    let mut meta = pragma_diags;
    for (pi, p) in pragmas.iter().enumerate() {
        if !p.well_formed {
            continue;
        }
        let stale: Vec<&str> = p
            .rules
            .iter()
            .enumerate()
            .filter(|(ri, _)| !used[pi][*ri])
            .map(|(_, r)| r.as_str())
            .collect();
        if stale.is_empty() {
            continue;
        }
        let message = if stale.len() == p.rules.len() {
            format!("pragma for {} suppressed nothing", p.rules.join(", "))
        } else {
            format!("pragma rule(s) {} suppressed nothing (drop the stale ids)", stale.join(", "))
        };
        meta.push(Diagnostic {
            rule: PRAGMA_RULES[1].id,
            severity: PRAGMA_RULES[1].severity,
            path: rel.clone(),
            line: p.line,
            col: 1,
            message,
            hint: PRAGMA_RULES[1].hint,
        });
    }
    kept.extend(meta.into_iter().filter(|d| !cfg.allows(d.rule, &rel)));
    for d in &mut kept {
        d.severity = cfg.severity_for(d.rule, d.severity);
    }
    sort(&mut kept);
    kept
}

/// Check one file's source text against every rule, applying pragma and
/// config suppression and severity overrides. The whole-program rules C2
/// and R1 are judged over this file's own edges/declarations (the
/// workspace run in [`check_root`] judges the global graphs instead).
/// Diagnostics come back in the stable reporting order.
pub fn check_source(rel: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let a = analyze_source(rel, src);
    let graph = crate::lockgraph::build(&a.edges);
    let mut extra = crate::lockgraph::cycles(&graph);
    extra.extend(crate::snapreach::judge(&a.types));
    finish_file(a, extra, cfg)
}

/// Load `root/analyzer.toml` when present.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let cfg_path = root.join("analyzer.toml");
    if cfg_path.is_file() {
        let text = fs::read_to_string(&cfg_path)
            .map_err(|e| format!("read {}: {e}", cfg_path.display()))?;
        crate::config::parse(&text)
    } else {
        Ok(Config::default())
    }
}

/// Phase one over the whole workspace: every file analyzed, no suppression.
pub fn analyze_root(root: &Path) -> Result<Vec<FileAnalysis>, String> {
    let mut out = Vec::new();
    for rel in discover(root)? {
        let abs = root.join(&rel);
        let src = fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        out.push(analyze_source(&rel, &src));
    }
    Ok(out)
}

/// Check the whole workspace under `root`, honoring `root/analyzer.toml`
/// when present. The whole-program graphs — lock order (C2) and snapshot
/// reachability (R1) — are aggregated across every file; each diagnostic
/// is anchored at one site and flows through that file's suppression
/// machinery. Diagnostics come back in the stable reporting order.
pub fn check_root(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let cfg = load_config(root)?;
    let analyses = analyze_root(root)?;
    let mut all_edges = Vec::new();
    let mut all_types = Vec::new();
    for a in &analyses {
        all_edges.extend(a.edges.iter().cloned());
        all_types.extend(a.types.iter().cloned());
    }
    let graph = crate::lockgraph::build(&all_edges);
    let mut ws = crate::lockgraph::cycles(&graph);
    ws.extend(crate::snapreach::judge(&all_types));
    let mut diags = Vec::new();
    for a in analyses {
        let (mine, rest): (Vec<_>, Vec<_>) = ws.into_iter().partition(|d| d.path == a.rel);
        ws = rest;
        diags.extend(finish_file(a, mine, &cfg));
    }
    // Diagnostics anchored at no discovered file (cannot happen in
    // practice, but "every finding is reported" must not depend on it).
    diags.extend(ws);
    sort(&mut diags);
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_tiers() {
        assert!(classify("crates/sched/src/tiresias.rs").is_library());
        assert_eq!(classify("crates/sched/src/tiresias.rs").crate_name, "sched");
        assert_eq!(classify("crates/analyzer/src/main.rs").kind, FileKind::Binary);
        assert_eq!(classify("crates/bench/src/figures/f.rs").kind, FileKind::Harness);
        assert_eq!(classify("crates/sim/tests/t.rs").kind, FileKind::Harness);
        assert_eq!(classify("src/lib.rs").kind, FileKind::Library);
        assert_eq!(classify("src/lib.rs").crate_name, "kube-knots");
        assert_eq!(classify("tests/end_to_end.rs").kind, FileKind::Harness);
        assert_eq!(classify("examples/quickstart.rs").kind, FileKind::Harness);
        assert!(classify("shims/rand/src/lib.rs").is_library());
    }

    #[test]
    fn test_regions_cover_mods_and_fns() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\nfn live2() {}\n";
        let regions = test_regions(&lex(src).toks);
        assert_eq!(regions, vec![(2, 5)]);
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))]\nfn live() {}\n#[cfg(all(test, feature = \"x\"))]\nfn also_live() {}\n";
        assert!(test_regions(&lex(src).toks).is_empty());
    }

    #[test]
    fn stacked_attributes_still_gate() {
        let src = "#[test]\n#[ignore]\nfn t() {\n  x.unwrap();\n}\n";
        let regions = test_regions(&lex(src).toks);
        assert_eq!(regions, vec![(1, 5)]);
    }

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let cfg = Config::default();
        let src = "// knots-allow: P1 -- invariant: queue is non-empty here\n\
                   fn f(q: Vec<u32>) { q.last().unwrap(); }\n";
        let out = check_source("crates/sched/src/x.rs", src, &cfg);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn pragma_without_reason_is_a0() {
        let cfg = Config::default();
        let src = "// knots-allow: P1\nfn f(q: Vec<u32>) { q.last().unwrap(); }\n";
        let out = check_source("crates/sched/src/x.rs", src, &cfg);
        assert!(out.iter().any(|d| d.rule == "A0"), "{out:?}");
        // Malformed pragmas must not suppress.
        assert!(out.iter().any(|d| d.rule == "P1"), "{out:?}");
    }

    #[test]
    fn unused_pragma_is_a1_warn() {
        let cfg = Config::default();
        let src = "// knots-allow: D1 -- stale\nfn f() {}\n";
        let out = check_source("crates/sched/src/x.rs", src, &cfg);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "A1");
        assert_eq!(out[0].severity, Severity::Warn);
    }

    #[test]
    fn prose_mentioning_the_marker_is_not_a_pragma() {
        let cfg = Config::default();
        let src = "//! Suppress with `// knots-allow: D2 -- reason` pragmas.\nfn f() {}\n";
        let out = check_source("crates/sched/src/x.rs", src, &cfg);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cross_file_lock_cycle_is_detected() {
        // Each file is acyclic alone; only the workspace-level aggregation
        // (mirroring `check_root`) sees the ABBA cycle between them.
        let fwd = "fn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n  let ga = a.lock();\n  let gb = b.lock();\n}\n";
        let rev = "fn g(a: &Mutex<u32>, b: &Mutex<u32>) {\n  let gb = b.lock();\n  let ga = a.lock();\n}\n";
        let x = analyze_source("crates/sched/src/x.rs", fwd);
        let y = analyze_source("crates/sched/src/y.rs", rev);
        assert!(check_source("crates/sched/src/x.rs", fwd, &Config::default()).is_empty());
        let mut edges = x.edges.clone();
        edges.extend(y.edges.clone());
        let graph = crate::lockgraph::build(&edges);
        let mut c2 = crate::lockgraph::cycles(&graph);
        assert_eq!(c2.len(), 1, "{c2:?}");
        let cfg = Config::default();
        let mut diags = Vec::new();
        for a in [x, y] {
            let (mine, rest): (Vec<_>, Vec<_>) = c2.into_iter().partition(|d| d.path == a.rel);
            c2 = rest;
            diags.extend(finish_file(a, mine, &cfg));
        }
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "C2");
        assert!(diags[0].message.contains("sched::a -> sched::b -> sched::a"), "{diags:?}");
    }

    #[test]
    fn config_allowlist_suppresses_by_prefix() {
        let cfg = crate::config::parse(
            "[[allow]]\nrule = \"*\"\npath = \"shims/\"\nreason = \"vendored shims\"\n",
        )
        .unwrap();
        let src = "fn f(q: Vec<u32>) { q.last().unwrap(); }\n";
        assert!(check_source("shims/rand/src/lib.rs", src, &cfg).is_empty());
        assert!(!check_source("crates/sched/src/x.rs", src, &cfg).is_empty());
    }
}
