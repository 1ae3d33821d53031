//! The one JSON writer and the one JSON parser, streaming in both
//! directions.
//!
//! Derived code can only name `::serde`, so the machinery that derived
//! [`Serialize::write_json`] and [`Deserialize::read_json`] call lives
//! here; the `serde_json` shim is the public face over it. The text
//! conventions are serde_json's: object keys in field order, integers
//! without a decimal point, non-finite floats as `null`, pretty output
//! indented by two spaces.
//!
//! [`Value`]'s own impls are the tree writer and the tree parser: a
//! document tree is written and parsed through the same primitives as a
//! derived struct, so both paths share one text format and one nesting
//! cap (128 levels).

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::{Deserialize, Error, Serialize, Value};

/// Deepest array/object nesting the parser accepts (upstream serde_json's
/// default recursion limit). Deeper input fails with an error instead of
/// exhausting the stack.
pub(crate) const MAX_DEPTH: usize = 128;

/// A finite-only write met a non-finite float. `path` is where it sits
/// below the document root, in the tree's terms: `.field` per object key,
/// `[i]` per array element (e.g. `.util_series[1][7]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonFinite {
    /// The path below the root; empty when the root itself is the float.
    pub path: String,
}

impl NonFinite {
    /// Prefix the path with an object key.
    pub fn field(mut self, key: &str) -> Self {
        self.path.insert_str(0, key);
        self.path.insert(0, '.');
        self
    }

    /// Prefix the path with an array index.
    pub fn index(mut self, i: usize) -> Self {
        self.path.insert_str(0, &format!("[{i}]"));
        self
    }
}

/// What a write step returns: only a finite-only write can fail.
pub type WriteResult = Result<(), NonFinite>;

/// Serialize `value` to JSON text; non-finite floats become `null`.
pub fn to_string<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = Writer { out: String::new(), pretty, depth: 0, finite_only: false };
    // Cannot fail: only a finite-only writer refuses a value.
    let _ = value.write_json(&mut w);
    w.out
}

/// Serialize `value` to compact JSON text, failing at the first non-finite
/// float in document order.
pub fn to_string_finite<T: Serialize + ?Sized>(value: &T) -> Result<String, NonFinite> {
    let mut w = Writer { out: String::new(), pretty: false, depth: 0, finite_only: true };
    value.write_json(&mut w)?;
    Ok(w.out)
}

/// Deserialize a `T` from the whole of `s` (surrounding whitespace allowed).
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { src: s, bytes: s.as_bytes(), pos: 0, depth: 0 };
    let value = T::read_json(&mut p)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// Writer. Numbers are formatted straight into the output; `write!` into
// a `String` cannot fail, so its `Result` is dropped.
// ---------------------------------------------------------------------

/// JSON text under construction. Containers are written as `begin`, one
/// `elem`/`key` before each member, and `end`.
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    finite_only: bool,
}

impl Writer {
    /// `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` / `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// An unsigned integer.
    pub(crate) fn u64(&mut self, n: u64) {
        self.digits(n);
    }

    /// A signed integer.
    pub(crate) fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push('-');
        }
        self.digits(n.unsigned_abs());
    }

    /// `n`'s decimal digits, as `{n}` prints them but without the
    /// formatting machinery.
    fn digits(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        // ASCII digits are always valid UTF-8.
        self.out.push_str(std::str::from_utf8(&buf[i..]).unwrap_or_default());
    }

    /// serde_json's float text: `null` when non-finite (an error when the
    /// write is finite-only); an integral float below 1e15 in magnitude as
    /// its integer digits plus `.0`, the sign of `-0.0` kept (byte for byte
    /// what `{x:.1}` prints); anything else in Rust's shortest round-trip
    /// form (`{x}`).
    pub(crate) fn f64(&mut self, x: f64) -> WriteResult {
        if !x.is_finite() {
            if self.finite_only {
                return Err(NonFinite { path: String::new() });
            }
            self.out.push_str("null");
        } else if x.fract() == 0.0 && x.abs() < 1e15 {
            if x.is_sign_negative() {
                self.out.push('-');
            }
            // Exact: |x| < 1e15 < 2^53.
            self.digits(x.abs() as u64);
            self.out.push_str(".0");
        } else {
            let _ = write!(self.out, "{x}");
        }
        Ok(())
    }

    /// A JSON string literal. The runs between escapes are copied whole,
    /// so a string that needs none costs one `push_str`. Every byte that
    /// needs an escape is ASCII, so each run ends on a char boundary.
    pub fn str(&mut self, s: &str) {
        let out = &mut self.out;
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

    /// Open an array (`'['`) or object (`'{'`).
    pub fn begin(&mut self, open: char) {
        self.out.push(open);
        self.depth += 1;
    }

    /// Start member `i` of the open container.
    pub(crate) fn elem(&mut self, i: usize) {
        if i > 0 {
            self.out.push(',');
        }
        self.newline();
    }

    /// Start entry `i` of the open object: its key and the colon.
    pub fn key(&mut self, i: usize, key: &str) {
        self.elem(i);
        self.str(key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Close the container opened by [`Writer::begin`], which got `len`
    /// members (an empty one closes on the same line).
    pub fn end(&mut self, close: char, len: usize) {
        self.depth -= 1;
        if len > 0 {
            self.newline();
        }
        self.out.push(close);
    }

    /// Array element `i`; a refusal below it gains `[i]`.
    pub fn item<T: Serialize + ?Sized>(&mut self, i: usize, v: &T) -> WriteResult {
        self.elem(i);
        v.write_json(self).map_err(|e| e.index(i))
    }

    /// Object entry `i`; a refusal below it gains `.key`.
    pub fn field<T: Serialize + ?Sized>(&mut self, i: usize, key: &str, v: &T) -> WriteResult {
        self.key(i, key);
        v.write_json(self).map_err(|e| e.field(key))
    }

    /// A whole array.
    pub(crate) fn array<'v, T: Serialize + 'v>(
        &mut self,
        items: impl IntoIterator<Item = &'v T>,
    ) -> WriteResult {
        self.begin('[');
        let mut len = 0;
        for v in items {
            self.item(len, v)?;
            len += 1;
        }
        self.end(']', len);
        Ok(())
    }

    /// A whole object, entries in the order given.
    pub(crate) fn object<'v, K: AsRef<str>, T: Serialize + 'v>(
        &mut self,
        entries: impl IntoIterator<Item = (K, &'v T)>,
    ) -> WriteResult {
        self.begin('{');
        let mut len = 0;
        for (k, v) in entries {
            self.field(len, k.as_ref(), v)?;
            len += 1;
        }
        self.end('}', len);
        Ok(())
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..2 * self.depth {
                self.out.push(' ');
            }
        }
    }
}

/// The tree writer.
pub(crate) fn write_value(v: &Value, w: &mut Writer) -> WriteResult {
    match v {
        Value::Null => w.null(),
        Value::Bool(b) => w.bool(*b),
        Value::I64(n) => w.i64(*n),
        Value::U64(n) => w.u64(*n),
        Value::F64(x) => return w.f64(*x),
        Value::Str(s) => w.str(s),
        Value::Array(items) => return w.array(items),
        Value::Object(entries) => return w.object(entries.iter().map(|(k, v)| (k, v))),
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Parser. Every reading step skips the whitespace in front of it.
// ---------------------------------------------------------------------

/// A cursor over JSON text. Containers are read as `begin`, then
/// `next_elem`/`next_key` until it reports the close.
pub struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// An error at the current byte offset.
    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    /// The next significant byte, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Consume a `null` if one comes next; `false` leaves anything else
    /// unread.
    pub(crate) fn null(&mut self) -> Result<bool, Error> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    /// Open an array (`b'['`) or object (`b'{'`), one level deeper.
    pub fn begin(&mut self, open: u8) -> Result<(), Error> {
        self.eat(open)?;
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Whether the open array has another element; `false` consumes the
    /// `]`. `first` starts `true` for each array.
    pub(crate) fn next_elem(&mut self, first: &mut bool) -> Result<bool, Error> {
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        if !std::mem::take(first) {
            self.eat(b',').map_err(|_| self.err("expected `,` or `]`"))?;
        }
        Ok(true)
    }

    /// The next key of the open object (its `:` consumed), or `None` after
    /// consuming the `}`. `first` starts `true` for each object.
    pub fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, Error> {
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(None);
        }
        if !std::mem::take(first) {
            self.eat(b',').map_err(|_| self.err("expected `,` or `}`"))?;
        }
        let key = self.string()?;
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// The next array element of a fixed-arity tuple, which must exist.
    pub fn tuple_elem(&mut self, first: &mut bool) -> Result<(), Error> {
        match self.next_elem(first)? {
            true => Ok(()),
            false => Err(self.err("too few tuple elements")),
        }
    }

    /// The `]` closing a fixed-arity tuple, which must come next.
    pub fn tuple_end(&mut self, first: &mut bool) -> Result<(), Error> {
        match self.next_elem(first)? {
            true => Err(self.err("too many tuple elements")),
            false => Ok(()),
        }
    }

    /// Read and discard one value (checked like any other).
    pub fn skip(&mut self) -> Result<(), Error> {
        self.value().map(drop)
    }

    /// The tree parser: one whole value as a [`Value`].
    pub(crate) fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b'[') => {
                self.begin(b'[')?;
                let (mut items, mut first) = (Vec::new(), true);
                while self.next_elem(&mut first)? {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.begin(b'{')?;
                let (mut entries, mut first) = (Vec::new(), true);
                while let Some(key) = self.next_key(&mut first)? {
                    let value = self.value()?;
                    entries.push((key.into_owned(), value));
                }
                Ok(Value::Object(entries))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// A string literal, borrowed from the input when it holds no escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            let rest = self.bytes.get(start..).unwrap_or_default();
            self.pos += rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(rest.len());
            // `start` and `pos` sit next to ASCII delimiters, so this slice
            // of the (already valid) input needs no UTF-8 check.
            let run = self.src.get(start..self.pos).ok_or_else(|| self.err("invalid utf-8"))?;
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    if s.is_empty() {
                        return Ok(Cow::Borrowed(run));
                    }
                    s.push_str(run);
                    return Ok(Cow::Owned(s));
                }
                Some(b'\\') => {
                    s.push_str(run);
                    self.pos += 1;
                    self.escape(&mut s)?;
                }
                Some(_) => return Err(self.err("control character in a string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The escape after a `\`, appended to `s`.
    fn escape(&mut self, s: &mut String) -> Result<(), Error> {
        match self.bytes.get(self.pos) {
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
                s.push(char::from_u32(code).ok_or_else(|| self.err("surrogate \\u escape"))?);
                self.pos += 4;
            }
            _ => return Err(self.err("bad escape")),
        }
        self.pos += 1;
        Ok(())
    }

    /// A number, as JSON spells one: an optional `-`, `0` or digits not
    /// starting with `0`, then an optional fraction and exponent, each with
    /// at least one digit. An integer is read as it is scanned.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        // The integer part's magnitude; `None` once it overflows a u64.
        let int_start = self.pos;
        let mut int = Some(0u64);
        while let Some(&c) = self.bytes.get(self.pos).filter(|c| c.is_ascii_digit()) {
            int = int.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(c - b'0')));
            self.pos += 1;
        }
        match self.pos - int_start {
            0 => return Err(self.err("expected a digit")),
            1 => {}
            _ if self.bytes.get(int_start) == Some(&b'0') => {
                return Err(self.err("leading zero in a number"))
            }
            _ => {}
        }
        let is_float = matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E'));
        match (is_float, negative, int) {
            (false, false, Some(u)) => return Ok(Value::U64(u)),
            (false, true, Some(u)) => {
                if let Ok(i) = i64::try_from(-i128::from(u)) {
                    return Ok(Value::I64(i));
                }
            }
            _ => {}
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = self.src.get(start..self.pos).ok_or_else(|| self.err("invalid number"))?;
        text.parse::<f64>().map(Value::F64).map_err(|_| self.err("invalid number"))
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), Error> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }
}

/// A named field after its object is read: the value found, or the
/// tree path's reading of a missing key (`null`: `None` for an `Option`).
pub fn or_missing<T: Deserialize>(slot: Option<T>) -> Result<T, Error> {
    match slot {
        Some(v) => Ok(v),
        None => T::from_value(&Value::Null),
    }
}
