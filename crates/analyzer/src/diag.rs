//! Diagnostics: what a rule violation looks like and how it is printed.
//! Every rule denies: any diagnostic fails the run.

use std::fmt;

/// One rule violation at one source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`C3`, `M1`, ...).
    pub rule: &'static str,
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
            "deny[{}] {}:{}:{}: {}\n    hint: {}",
            self.rule, self.path, self.line, self.col, self.message, self.hint
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
            "\n  {{\"rule\":\"{}\",\"severity\":\"deny\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"hint\":\"{}\"}}",
            d.rule,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &'static str, path: &str, line: u32) -> Diagnostic {
        Diagnostic { rule, path: path.into(), line, col: 1, message: "m".into(), hint: "h" }
    }

    #[test]
    fn stable_sort_order() {
        let mut v = vec![d("M1", "b.rs", 1), d("C3", "a.rs", 9), d("E1", "a.rs", 2)];
        sort(&mut v);
        let order: Vec<_> = v.iter().map(|x| (x.path.clone(), x.line)).collect();
        assert_eq!(order, vec![("a.rs".into(), 2), ("a.rs".into(), 9), ("b.rs".into(), 1)]);
    }

    #[test]
    fn json_escapes_and_shapes() {
        let mut bad = d("C3", "a.rs", 1);
        bad.message = "say \"hi\"\\n".into();
        let j = to_json(&[bad]);
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.starts_with('['));
        assert!(j.trim_end().ends_with(']'));
        assert_eq!(to_json(&[]), "[\n]\n");
    }
}
