//! Diagnostics: what a rule violation looks like and how it is printed.

use std::fmt;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported but never fails the run.
    Warn,
    /// Fails the run (non-zero exit).
    Deny,
}

impl Severity {
    /// Lowercase label used in both output formats.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One rule violation at one source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`D1`, `P2`, `A0`, ...).
    pub rule: &'static str,
    /// Effective severity (after any `analyzer.toml` downgrade).
    pub severity: Severity,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What went wrong.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}:{}: {}\n    hint: {}",
            self.severity.label(),
            self.rule,
            self.path,
            self.line,
            self.col,
            self.message,
            self.hint
        )
    }
}

/// Sort diagnostics into the stable reporting order: path, line, col, rule.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.col.cmp(&b.col))
            .then(a.rule.cmp(b.rule))
    });
}

/// Escape a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as a JSON array (stable field order, one object per
/// line) for CI consumption.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"hint\":\"{}\"}}",
            d.rule,
            d.severity.label(),
            json_escape(&d.path),
            d.line,
            d.col,
            json_escape(&d.message),
            json_escape(d.hint),
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Render diagnostics as a minimal SARIF 2.1.0 log (single run, one
/// result per diagnostic, rule metadata inlined) so CI can annotate PRs.
/// Field order is fixed and the input is pre-sorted by [`sort`], so the
/// output is byte-stable for a given diagnostic set.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    use crate::engine::PRAGMA_RULES;
    use crate::rules::RULES;
    let level = |s: Severity| match s {
        Severity::Warn => "warning",
        Severity::Deny => "error",
    };
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"knots-analyzer\",\n          \"informationUri\": \"https://github.com/kube-knots\",\n          \"rules\": [",
    );
    for (i, r) in RULES.iter().chain(PRAGMA_RULES.iter()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\"help\":{{\"text\":\"{}\"}},\"defaultConfiguration\":{{\"level\":\"{}\"}}}}",
            r.id,
            json_escape(r.summary),
            json_escape(r.hint),
            level(r.severity),
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\"ruleId\":\"{}\",\"level\":\"{}\",\"message\":{{\"text\":\"{}\"}},\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]}}",
            d.rule,
            level(d.severity),
            json_escape(&d.message),
            json_escape(&d.path),
            d.line,
            d.col,
        ));
    }
    out.push_str("\n      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &'static str, path: &str, line: u32) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Deny,
            path: path.into(),
            line,
            col: 1,
            message: "m".into(),
            hint: "h",
        }
    }

    #[test]
    fn stable_sort_order() {
        let mut v = vec![d("P1", "b.rs", 1), d("D1", "a.rs", 9), d("D2", "a.rs", 2)];
        sort(&mut v);
        let order: Vec<_> = v.iter().map(|x| (x.path.clone(), x.line)).collect();
        assert_eq!(order, vec![("a.rs".into(), 2), ("a.rs".into(), 9), ("b.rs".into(), 1)]);
    }

    #[test]
    fn json_escapes_and_shapes() {
        let mut bad = d("D1", "a.rs", 1);
        bad.message = "say \"hi\"\\n".into();
        let j = to_json(&[bad]);
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.starts_with('['));
        assert!(j.trim_end().ends_with(']'));
        assert_eq!(to_json(&[]), "[\n]\n");
    }

    #[test]
    fn sarif_shape_and_stability() {
        let mut bad = d("D1", "crates/sim/src/x.rs", 3);
        bad.message = "uses \"Instant\"".into();
        let s = to_sarif(&[bad.clone()]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\":\"D1\""));
        assert!(s.contains("\"level\":\"error\""));
        assert!(s.contains("\\\"Instant\\\""));
        assert!(s.contains("\"startLine\":3"));
        // Rule metadata for every rule id, including the pragma meta-rules.
        for id in ["C1", "C2", "C3", "A0", "A1"] {
            assert!(s.contains(&format!("\"id\":\"{id}\"")), "{id} missing");
        }
        // Byte-stable across renders.
        assert_eq!(s, to_sarif(&[bad]));
        // Empty set still renders a complete, parseable log.
        let empty = to_sarif(&[]);
        assert!(empty.contains("\"results\": [\n      ]"));
    }
}
