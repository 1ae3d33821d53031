//! A hand-rolled Rust tokenizer — just enough lexical fidelity for the
//! analyzer's rules.
//!
//! The lexer understands exactly the constructs that would otherwise cause
//! false positives in a grep-based checker: line and (nested) block
//! comments, string/char/byte/raw-string literals, raw identifiers, and
//! lifetimes. Everything else is emitted as identifier, number, or
//! single-character punctuation tokens carrying `line:col` positions.
//!
//! `// SAFETY:` comments (rule C3) live in line comments, so the lexer also
//! returns every line comment it skipped.

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers are unescaped: `r#fn` → `fn`).
    Ident(String),
    /// Any string-ish literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    /// Carries the inner text between the quotes, escapes left raw — enough
    /// for rules that pattern-match literal metric/span names (M1).
    Str(String),
    /// Character or byte literal: `'x'`, `b'\n'`.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`) — distinct from `Char` so `'a'` vs `'a` never confuses
    /// downstream pattern matching.
    Lifetime,
    /// A single punctuation character.
    Punct(char),
}

/// One token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token kind (and payload for identifiers).
    pub kind: TokKind,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in bytes).
    pub col: u32,
}

impl Tok {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when the token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A line comment the lexer skipped (rule C3 reads `// SAFETY:` from these).
#[derive(Debug, Clone)]
pub struct LineComment {
    /// Comment text including the leading `//`.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// Lexer output: the token stream plus every line comment.
#[derive(Debug, Default)]
pub struct LexOut {
    /// Tokens in source order.
    pub toks: Vec<Tok>,
    /// Line comments in source order.
    pub comments: Vec<LineComment>,
}

/// Tokenize Rust source. Never fails: unterminated literals simply consume
/// to end-of-file (the compiler is the arbiter of validity, not us).
pub fn lex(src: &str) -> LexOut {
    Lexer { b: src.as_bytes(), i: 0, line: 1, col: 1, out: LexOut::default() }.run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
    out: LexOut,
}

impl Lexer<'_> {
    fn run(mut self) -> LexOut {
        while self.i < self.b.len() {
            let (line, col) = (self.line, self.col);
            let c = self.b[self.i];
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    let s = self.string();
                    self.push(TokKind::Str(s), line, col);
                }
                b'\'' => self.quote(line, col),
                b'0'..=b'9' => {
                    self.number();
                    self.push(TokKind::Num, line, col);
                }
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident_or_prefixed(line, col),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct(c as char), line, col);
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn bump(&mut self) {
        if self.b[self.i] == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.i += 1;
    }

    fn push(&mut self, kind: TokKind, line: u32, col: u32) {
        self.out.toks.push(Tok { kind, line, col });
    }

    fn line_comment(&mut self, line: u32) {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.out.comments.push(LineComment { text, line });
    }

    fn block_comment(&mut self) {
        // `/*` consumed below; bodies nest, per the Rust reference.
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while self.i < self.b.len() && depth > 0 {
            if self.b[self.i] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.b[self.i] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
        }
    }

    /// A plain `"…"` string with escape handling; cursor on the opening
    /// `"`. Returns the inner text (escapes left raw).
    fn string(&mut self) -> String {
        self.bump();
        let start = self.i;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => {
                    self.bump();
                    if self.i < self.b.len() {
                        self.bump();
                    }
                }
                b'"' => {
                    let inner = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
                    self.bump();
                    return inner;
                }
                _ => self.bump(),
            }
        }
        String::from_utf8_lossy(&self.b[start..self.i]).into_owned()
    }

    /// A raw string `r"…"` / `r#"…"#` with `hashes` leading `#`s; cursor on
    /// the opening quote. Returns the inner text.
    fn raw_string(&mut self, hashes: usize) -> String {
        self.bump(); // opening quote
        let start = self.i;
        while self.i < self.b.len() {
            if self.b[self.i] == b'"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    let inner = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    return inner;
                }
            }
            self.bump();
        }
        String::from_utf8_lossy(&self.b[start..self.i]).into_owned()
    }

    /// `'` starts either a lifetime (`'a`, `'static`) or a char literal
    /// (`'x'`, `'\n'`, `'\u{1F600}'`).
    fn quote(&mut self, line: u32, col: u32) {
        // Lifetime: `'` + ident-start + no closing quote right after.
        if let Some(c1) = self.peek(1) {
            if (c1 == b'_' || c1.is_ascii_alphabetic()) && self.peek(2) != Some(b'\'') {
                self.bump(); // '
                while self.peek(0).is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric()) {
                    self.bump();
                }
                self.push(TokKind::Lifetime, line, col);
                return;
            }
        }
        // Char literal.
        self.bump(); // '
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => {
                    self.bump();
                    if self.i < self.b.len() {
                        self.bump();
                    }
                }
                b'\'' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
        self.push(TokKind::Char, line, col);
    }

    fn number(&mut self) {
        // Integer part (also covers hex/oct/bin via the alnum loop).
        while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
            self.bump();
        }
        // Fraction — only when followed by a digit, so `0..n` stays a range.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                self.bump();
            }
        }
        // Exponent sign: `1e-9` / `1E+9` (the `e` was eaten by the loops).
        if self.peek(0).is_some_and(|c| c == b'+' || c == b'-')
            && self.i > 0
            && (self.b[self.i - 1] | 0x20) == b'e'
        {
            self.bump();
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == b'_') {
                self.bump();
            }
        }
    }

    /// An identifier, or one of the literal prefixes `r" b" br" rb"` /
    /// `r#"…"#`, or a raw identifier `r#name`.
    fn ident_or_prefixed(&mut self, line: u32, col: u32) {
        let start = self.i;
        while self.peek(0).is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric()) {
            self.bump();
        }
        let word = &self.b[start..self.i];
        let next = self.peek(0);
        let is_raw_prefix = matches!(word, b"r" | b"br" | b"rb");
        let is_byte_prefix = matches!(word, b"b");
        match next {
            Some(b'"') if is_raw_prefix => {
                let s = self.raw_string(0);
                self.push(TokKind::Str(s), line, col);
            }
            Some(b'"') if is_byte_prefix => {
                let s = self.string();
                self.push(TokKind::Str(s), line, col);
            }
            Some(b'\'') if is_byte_prefix => {
                self.quote(line, col);
                // quote() pushed Char/Lifetime already; keep that token.
            }
            Some(b'#') if is_raw_prefix => {
                // Count hashes; a quote after them is a raw string, an
                // ident-start is a raw identifier (`r#fn`).
                let mut h = 0usize;
                while self.peek(h) == Some(b'#') {
                    h += 1;
                }
                match self.peek(h) {
                    Some(b'"') => {
                        for _ in 0..h {
                            self.bump();
                        }
                        let s = self.raw_string(h);
                        self.push(TokKind::Str(s), line, col);
                    }
                    Some(c) if word == b"r" && (c == b'_' || c.is_ascii_alphabetic()) => {
                        self.bump(); // #
                        let id_start = self.i;
                        while self.peek(0).is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric()) {
                            self.bump();
                        }
                        let name = String::from_utf8_lossy(&self.b[id_start..self.i]).into_owned();
                        self.push(TokKind::Ident(name), line, col);
                    }
                    _ => {
                        let name = String::from_utf8_lossy(word).into_owned();
                        self.push(TokKind::Ident(name), line, col);
                    }
                }
            }
            _ => {
                let name = String::from_utf8_lossy(word).into_owned();
                self.push(TokKind::Ident(name), line, col);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).toks.iter().filter_map(|t| t.ident().map(str::to_string)).collect()
    }

    #[test]
    fn strings_hide_rule_text() {
        let l = lex(r#"let s = "HashMap::new() and unwrap()"; other();"#);
        assert!(!idents(r#"let s = "HashMap::new()";"#).contains(&"HashMap".to_string()));
        let strs: Vec<&str> = l
            .toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["HashMap::new() and unwrap()"]);
    }

    #[test]
    fn raw_strings_and_hashes() {
        let src = r##"let s = r#"quote " inside, unwrap() too"#; tail()"##;
        let ids = idents(src);
        assert!(ids.contains(&"tail".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn nested_block_comments_skip_everything() {
        let ids = idents("/* outer /* unwrap() */ still comment */ fn f() {}");
        assert_eq!(ids, vec!["fn", "f"]);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes = l.toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = l.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn raw_identifiers_unescape() {
        assert_eq!(idents("let r#fn = 1;"), vec!["let", "fn"]);
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("a\n  bb");
        assert_eq!((l.toks[0].line, l.toks[0].col), (1, 1));
        assert_eq!((l.toks[1].line, l.toks[1].col), (2, 3));
    }

    #[test]
    fn line_comments_collected_with_lines() {
        let l = lex("x(); // SAFETY: reason\ny();");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[0].text.contains("SAFETY:"));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let l = lex("for i in 0..10 { let f = 1.5e-3; }");
        let nums = l.toks.iter().filter(|t| t.kind == TokKind::Num).count();
        assert_eq!(nums, 3); // 0, 10, 1.5e-3
        assert!(l.toks.iter().any(|t| t.is_punct('.')));
    }
}
