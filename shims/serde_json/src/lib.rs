//! Offline shim for `serde_json`.
//!
//! The public face of the serde shim's streaming JSON path: derived types
//! are written straight into the output text and read straight from the
//! parser, with no [`Value`] tree in between. Matches serde_json's visible
//! conventions: object keys in struct-field order, non-finite floats become
//! `null`, integers print without a decimal point, pretty output indents by
//! two spaces, and input nested deeper than 128 arrays/objects is an error.

#![forbid(unsafe_code)]

pub use serde::json::NonFinite;
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
    Ok(serde::json::to_string(value, false))
}

/// Serialize `value` to a two-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(serde::json::to_string(value, true))
}

/// Serialize `value` to a compact JSON string, refusing non-finite floats
/// instead of writing them as `null`: the error names the path of the
/// first in document order. Not part of upstream serde_json.
pub fn to_string_finite<T: Serialize + ?Sized>(
    value: &T,
) -> std::result::Result<String, NonFinite> {
    serde::json::to_string_finite(value)
}

/// Serialize `value` to a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Deserialize a `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    Ok(serde::json::from_str(s)?)
}

/// Deserialize a `T` from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    Ok(T::from_value(&value)?)
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
    fn nesting_is_capped_at_128() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(from_str::<Value>(&nest(128)).is_ok());
        let err = from_str::<Value>(&nest(129)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        assert!(from_str::<Value>(&"[".repeat(1 << 20)).is_err());
        let objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(from_str::<Value>(&objects(128)).is_ok());
        assert!(from_str::<Value>(&objects(129)).is_err());
        // A streaming read counts its own levels against the same cap.
        assert!(from_str::<Vec<Value>>(&nest(128)).is_ok());
        assert!(from_str::<Vec<Value>>(&nest(129)).is_err());
    }

    #[test]
    fn finite_write_reports_the_first_non_finite_path() {
        let f = Value::F64;
        let nodes = Value::Object(vec![("nodes".into(), Value::Array(vec![f(1.0), f(f64::NAN)]))]);
        assert_eq!(to_string_finite(&nodes).unwrap_err().path, ".nodes[1]");
        assert_eq!(to_string(&nodes).unwrap(), "{\"nodes\":[1.0,null]}");
        assert_eq!(to_string_finite(&f(f64::INFINITY)).unwrap_err().path, "");

        // An object in an array in an object, holding two non-finite
        // floats: the first in document order is reported.
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let v = obj(vec![
            ("now", f(1.0)),
            (
                "pods",
                Value::Array(vec![
                    obj(vec![("cpu", f(0.5))]),
                    obj(vec![
                        ("cpu", f(0.25)),
                        ("mem", f(f64::NEG_INFINITY)),
                        ("gpu", f(f64::NAN)),
                    ]),
                ]),
            ),
            ("energy", f(f64::INFINITY)),
        ]);
        assert_eq!(to_string_finite(&v).unwrap_err().path, ".pods[1].mem");
        let finite = v.as_object().unwrap()[0].1.clone();
        assert_eq!(to_string_finite(&finite).unwrap(), "1.0");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }

    #[test]
    fn integral_floats_outside_the_target_range_are_refused() {
        // Both the tree and the streaming read, which share the coercion.
        assert!(from_str::<u64>("1e300").is_err());
        assert!(from_str::<i64>("-1e300").is_err());
        assert!(from_str::<u64>("18446744073709551616").is_err()); // 2^64
        assert!(from_str::<i64>("9.223372036854775808e18").is_err()); // 2^63
        assert!(u64::from_value(&from_str::<Value>("1e300").unwrap()).is_err());
        assert_eq!(from_str::<u64>("3.0").unwrap(), 3);
        assert_eq!(from_str::<i64>("-3e0").unwrap(), -3);
        assert_eq!(from_str::<u64>("1.8446744073709550e19").unwrap(), 18446744073709549568);
        // Integer text keeps its exact kind up to each edge.
        assert_eq!(from_str::<Value>("18446744073709551615").unwrap(), Value::U64(u64::MAX));
        assert_eq!(from_str::<Value>("-9223372036854775808").unwrap(), Value::I64(i64::MIN));
        assert_eq!(from_str::<Value>("-0").unwrap(), Value::I64(0));
        assert!(matches!(from_str::<Value>("-9223372036854775809").unwrap(), Value::F64(_)));
    }

    #[test]
    fn parse_rejects_leading_zeros() {
        for text in ["01", "00", "-01.5", "[01]"] {
            assert!(from_str::<Value>(text).is_err(), "{text}");
        }
        assert!(from_str::<f64>("-01.5").is_err());
        assert_eq!(
            from_str::<Value>("[0, -0, 0.5, 10]").unwrap(),
            from_str("[0,-0,0.5,10]").unwrap()
        );
    }

    #[test]
    fn parse_rejects_a_fraction_or_exponent_without_digits() {
        for text in ["1.", "1.e5", "1e", "1e+", "-", "-.5", "[1.]"] {
            assert!(from_str::<Value>(text).is_err(), "{text}");
            assert!(from_str::<f64>(text).is_err(), "{text}");
        }
        assert_eq!(from_str::<f64>("-0.5e-3").unwrap(), -0.0005);
        assert_eq!(from_str::<f64>("1E+2").unwrap(), 100.0);
    }

    #[test]
    fn parse_rejects_raw_control_bytes_in_strings() {
        for text in ["\"a\u{1}b\"", "\"tab\there\"", "\"line\nbreak\"", "[\"\u{1f}\"]"] {
            assert!(from_str::<Value>(text).is_err(), "{text:?}");
        }
        assert!(from_str::<String>("\"a\u{1}b\"").is_err());
        // The escaped spellings still read.
        assert_eq!(from_str::<String>("\"a\\u0001b\\t\"").unwrap(), "a\u{1}b\t");
    }
}
