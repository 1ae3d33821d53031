//! Offline shim for `serde_json`.
//!
//! Serializes the serde shim's [`Value`] tree to JSON text (compact and
//! pretty) and parses JSON text back into it. Matches serde_json's visible
//! conventions: object keys in struct-field order, non-finite floats become
//! `null`, integers print without a decimal point, pretty output indents by
//! two spaces.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Serialization/deserialization failure.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error { msg: e.to_string() }
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(write_document(value, None))
}

/// Serialize `value` to a two-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(write_document(value, Some(2)))
}

/// Write `value`'s tree, borrowing it when `value` already is one.
fn write_document<T: Serialize + ?Sized>(value: &T, indent: Option<usize>) -> String {
    let mut out = String::new();
    match value.borrow_value() {
        Some(tree) => write_value(&mut out, tree, indent, 0),
        None => write_value(&mut out, &value.to_value(), indent, 0),
    }
    out
}

/// Serialize `value` to a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Deserialize a `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    Ok(T::from_owned_value(parse(s)?)?)
}

/// Deserialize a `T` from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    Ok(T::from_owned_value(value)?)
}

// ---------------------------------------------------------------------
// Writer. Numbers are formatted straight into the output; `write!` into
// a `String` cannot fail, so its `Result` is dropped.
// ---------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// serde_json's float text: `null` when non-finite; an integral float
/// below 1e15 in magnitude as its integer digits plus `.0`, the sign of
/// `-0.0` kept (byte for byte what `{x:.1}` prints); anything else in
/// Rust's shortest round-trip form (`{x}`).
fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        if x.is_sign_negative() {
            out.push('-');
        }
        // Exact: |x| < 1e15 < 2^53.
        let _ = write!(out, "{}.0", x.abs() as u64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// A JSON string literal. The runs between escapes are copied whole, so a
/// string that needs none costs one `push_str`. Every byte that needs an
/// escape is ASCII, so each run ends on a char boundary.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

fn parse(s: &str) -> Result<Value> {
    let mut p = Parser { src: s, bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error { msg: format!("{msg} at byte {}", self.pos) }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            // `start` and `pos` sit next to ASCII delimiters, so this slice
            // of the (already valid) input needs no UTF-8 check.
            s.push_str(self.src.get(start..self.pos).ok_or_else(|| self.err("invalid utf-8"))?);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = self.src.get(start..self.pos).ok_or_else(|| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_value() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("gpu-0\noops\"q\"".into())),
            ("count".into(), Value::U64(3)),
            ("util".into(), Value::F64(0.625)),
            ("whole".into(), Value::F64(2.0)),
            ("neg".into(), Value::I64(-7)),
            ("flags".into(), Value::Array(vec![Value::Bool(true), Value::Null])),
            ("empty".into(), Value::Object(vec![])),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        // U64/F64 survive textually: 2.0 re-parses as F64, 3 as U64.
        assert_eq!(to_string(&back).unwrap(), text);
        assert!(text.contains("\"util\":0.625"));
        assert!(text.contains("\"whole\":2.0"));
        assert!(text.contains("\\n"));
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Value::Object(vec![("a".into(), Value::Array(vec![Value::U64(1)]))]);
        let text = to_string_pretty(&v).unwrap();
        assert_eq!(text, "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let text = to_string(&Value::F64(f64::NAN)).unwrap();
        assert_eq!(text, "null");
    }

    /// The `format!`-based writer this one replaced, kept as the reference
    /// its output is pinned to.
    fn reference_write(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
        let newline_indent = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                for _ in 0..width * depth {
                    out.push(' ');
                }
            }
        };
        let write_string = |out: &mut String, s: &str| {
            out.push('"');
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
            out.push('"');
        };
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::F64(x) if !x.is_finite() => out.push_str("null"),
            Value::F64(x) if x.fract() == 0.0 && x.abs() < 1e15 => out.push_str(&format!("{x:.1}")),
            Value::F64(x) => out.push_str(&format!("{x}")),
            Value::Str(s) => write_string(out, s),
            Value::Array(items) if items.is_empty() => out.push_str("[]"),
            Value::Object(entries) if entries.is_empty() => out.push_str("{}"),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    reference_write(out, item, indent, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (key, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    reference_write(out, item, indent, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }

    fn assert_matches_reference(v: &Value) {
        for indent in [None, Some(2)] {
            let mut want = String::new();
            reference_write(&mut want, v, indent, 0);
            let got = if indent.is_some() { to_string_pretty(v) } else { to_string(v) };
            assert_eq!(got.unwrap(), want, "indent {indent:?}");
        }
    }

    #[test]
    fn writer_matches_the_format_reference() {
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut floats = vec![
            0.0,
            1.0,
            0.1,
            1.5,
            -3.0,
            123_456.0,
            999_999_999_999_999.0,
            1e15,
            down(1e15),
            up(1e15),
            9_007_199_254_740_992.0, // 2^53
            9_007_199_254_740_993.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0, // subnormal
            f64::from_bits(1),       // smallest subnormal
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
        ];
        floats.extend(floats.clone().into_iter().map(|x| -x));
        // An inline xorshift64 stream of raw bit patterns (every exponent,
        // NaN payloads included) and of integral floats around the 1e15 cut.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            floats.push(f64::from_bits(next()));
            floats.push((next() >> 13) as f64 * if next() & 1 == 0 { 1.0 } else { -1.0 });
            floats.push((next() >> 11) as f64 / 1024.0);
        }
        let scalars: Vec<Value> = floats
            .into_iter()
            .map(Value::F64)
            .chain([i64::MIN, -1, 0, i64::MAX].map(Value::I64))
            .chain([0, 1, u64::MAX].map(Value::U64))
            .chain([Value::Null, Value::Bool(true), Value::Bool(false)])
            .collect();
        for v in &scalars {
            assert_matches_reference(v);
        }
        let strings = [
            "",
            "plain",
            "\"quoted\"",
            "back\\slash\\",
            "\n\r\t",
            "\u{0}\u{8}\u{c}\u{1f}\u{7f}",
            "é日本🦀",
            "a\"é\u{1}🦀\\z",
        ];
        let strs: Vec<Value> = strings.iter().map(|s| Value::Str(s.to_string())).collect();
        for v in &strs {
            assert_matches_reference(v);
        }
        // Containers: keys that need escapes, nesting, empties, and every
        // scalar above inside an array and an object.
        let doc = Value::Object(vec![
            ("scalars".into(), Value::Array(scalars)),
            ("strings".into(), Value::Array(strs)),
            ("k\"ey\n".into(), Value::Object(vec![("é".into(), Value::Array(vec![]))])),
            ("empty".into(), Value::Object(vec![])),
            (
                "nested".into(),
                Value::Array(vec![Value::Object(vec![("a".into(), Value::F64(-0.0))])]),
            ),
        ]);
        assert_matches_reference(&doc);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
