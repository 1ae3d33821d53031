//! The engine: file discovery, file classification, `#[cfg(test)]` region
//! detection, and the per-file check pipeline that ties lexer → parser →
//! rules together.
//!
//! There is no suppression mechanism: a finding is fixed, not waived. The
//! vendored shims and the analyzer's own fixtures are skipped by path
//! ([`SKIPPED`]).

use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{sort, Diagnostic};
use crate::lexer::{lex, Tok, TokKind};

/// Repo-relative path prefixes the workspace check skips: the vendored
/// dependency shims mirror external crates' APIs and are not part of the
/// control loop the rules protect, and the analyzer's fixtures seed
/// deliberate violations for its own tests.
pub const SKIPPED: [&str; 2] = ["shims/", "crates/analyzer/tests/fixtures/"];

/// What role a file plays in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under some crate's `src/`: every rule binds.
    Library,
    /// Binaries, integration tests, examples, benches, and the `bench`
    /// harness crate: only C3 binds.
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
            ["src", "main.rs"] | ["src", "bin", ..] => ctx(name, FileKind::Harness),
            ["src", ..] => ctx(name, FileKind::Library),
            _ => ctx(name, FileKind::Harness), // tests, benches, examples, build.rs
        },
        ["src", "main.rs"] | ["src", "bin", ..] => ctx("kube-knots", FileKind::Harness),
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
/// enough to be judged as live code too).
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

/// Check one file's source text against every rule. Diagnostics come back
/// in the stable reporting order.
pub fn check_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let ctx = classify(rel);
    let regions = test_regions(&lexed.toks);
    let tree = crate::parser::parse(&lexed.toks);
    let mut out = Vec::new();
    crate::rules::scan(&lexed.toks, &ctx, &regions, &mut out);
    crate::rules::scan_unsafe(&lexed.toks, &lexed.comments, &ctx, &mut out);
    crate::events::scan(&lexed.toks, &tree, &ctx, &regions, &mut out);
    sort(&mut out);
    out
}

/// Check every discovered file under `root` outside [`SKIPPED`].
/// Diagnostics come back in the stable reporting order.
pub fn check_root(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    for rel in discover(root)? {
        if SKIPPED.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let abs = root.join(&rel);
        let src = fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        diags.extend(check_source(&rel, &src));
    }
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
        assert_eq!(classify("crates/analyzer/src/main.rs").kind, FileKind::Harness);
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
}
