//! Offline shim for the `serde` crate.
//!
//! Real serde is a zero-allocation visitor framework; this shim trades that
//! for a JSON-only model with two paths. The tree path: [`Serialize`]
//! lowers a value into a JSON [`Value`], [`Deserialize`] lifts one back.
//! The streaming path: `Serialize::write_json` writes JSON text straight
//! into the output and `Deserialize::read_json` reads straight from the
//! parser, so no tree is built between a value and its text. The derive
//! macros (feature `derive`, from the sibling `serde_derive` shim) generate
//! all four methods for plain structs and enums, mirroring serde's default
//! externally-tagged representation so the JSON written by this workspace
//! looks exactly like what upstream serde_json would emit. A hand-written
//! impl supplies the tree methods and streams through them by default.
//!
//! Supported surface (all this workspace uses): `#[derive(Serialize,
//! Deserialize)]` on non-generic, attribute-free structs and enums, and the
//! `serde_json` shim's `to_string{,_pretty}` / `to_value` / `from_str`.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

#[doc(hidden)]
pub mod json;

use json::{Parser, WriteResult, Writer};

/// The serialized form: a JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved (field declaration order).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric coercion: any of the three number variants as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric coercion to `u64` (rejects negatives, non-integers, and
    /// integral floats past `u64::MAX`).
    pub fn as_u64(&self) -> Option<u64> {
        // 2^64, exact as an f64.
        const END: f64 = 18_446_744_073_709_551_616.0;
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            Value::F64(v) if (0.0..END).contains(v) && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Numeric coercion to `i64` (rejects non-integers and integral floats
    /// outside `i64`'s range).
    pub fn as_i64(&self) -> Option<i64> {
        // 2^63, exact as an f64.
        const END: f64 = 9_223_372_036_854_775_808.0;
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) if *v <= i64::MAX as u64 => Some(*v as i64),
            Value::F64(v) if (-END..END).contains(v) && v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Look up `name` in object `entries`, defaulting to `Null` when absent —
/// so `Option` fields deserialize from missing keys. Used by derived code.
pub fn field<'a>(entries: &'a [(String, Value)], name: &str) -> &'a Value {
    static NULL: Value = Value::Null;
    entries.iter().find(|(k, _)| k == name).map_or(&NULL, |(_, v)| v)
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    /// Build an error from any message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// A value that can be lowered into the data model.
pub trait Serialize {
    /// This value as a document tree.
    fn to_value(&self) -> Value;

    /// Write this value as JSON text. Defaults to writing the tree
    /// [`Serialize::to_value`] builds. Not part of serde's API; call sites
    /// go through the `serde_json` shim.
    #[doc(hidden)]
    fn write_json(&self, w: &mut Writer) -> WriteResult {
        self.to_value().write_json(w)
    }
}

/// A value that can be lifted back out of the data model.
pub trait Deserialize: Sized {
    /// Rebuild from a document tree.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Read this value from JSON text. Defaults to parsing a tree and
    /// lifting it with [`Deserialize::from_value`]. Not part of serde's
    /// API; call sites go through the `serde_json` shim.
    #[doc(hidden)]
    fn read_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        Self::from_value(&p.value()?)
    }
}

// ---------------------------------------------------------------------
// Serialize impls.
// ---------------------------------------------------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        json::write_value(self, w)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.bool(*self);
        Ok(())
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }

            fn write_json(&self, w: &mut Writer) -> WriteResult {
                w.u64(*self as u64);
                Ok(())
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }

            fn write_json(&self, w: &mut Writer) -> WriteResult {
                w.i64(*self as i64);
                Ok(())
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.f64(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.f64(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.str(self);
        Ok(())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.str(self);
        Ok(())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.str(self.encode_utf8(&mut [0; 4]));
        Ok(())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        (**self).write_json(w)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        match self {
            Some(v) => v.write_json(w),
            None => {
                w.null();
                Ok(())
            }
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.array(self)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.array(self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.array(self)
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort the keys.
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.object(entries)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.object(self)
    }
}

impl<T: Serialize> Serialize for std::collections::HashSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.array(self)
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, w: &mut Writer) -> WriteResult {
        w.array(self)
    }
}

macro_rules! ser_tuple {
    ($(($len:literal; $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }

            fn write_json(&self, w: &mut Writer) -> WriteResult {
                w.begin('[');
                $(w.item($n, &self.$n)?;)+
                w.end(']', $len);
                Ok(())
            }
        }
    )*};
}
ser_tuple! {
    (1; 0 A)
    (2; 0 A, 1 B)
    (3; 0 A, 1 B, 2 C)
    (4; 0 A, 1 B, 2 C, 3 D)
    (5; 0 A, 1 B, 2 C, 3 D, 4 E)
}

// ---------------------------------------------------------------------
// Deserialize impls. Scalars read through the default (`from_value` on
// the parsed scalar, which allocates nothing); containers stream.
// ---------------------------------------------------------------------

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }

    fn read_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.value()
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| {
                    Error::custom(format!("expected {}, got {v:?}", stringify!($t)))
                })?;
                <$t>::try_from(n).map_err(Error::custom)
            }
        }
    )*};
}
de_uint!(u8, u16, u32, u64, usize);

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_i64().ok_or_else(|| {
                    Error::custom(format!("expected {}, got {v:?}", stringify!($t)))
                })?;
                <$t>::try_from(n).map_err(Error::custom)
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(f64::NAN), // serde_json writes non-finite floats as null
            _ => v.as_f64().ok_or_else(|| Error::custom(format!("expected f64, got {v:?}"))),
        }
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom(format!("expected string, got {v:?}")))
    }

    fn read_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        match p.peek() {
            Some(b'"') => Ok(p.string()?.into_owned()),
            _ => Self::from_value(&p.value()?),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn read_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.null()? {
            return Ok(None);
        }
        T::read_json(p).map(Some)
    }
}

/// Read a JSON array element by element into any collection.
fn read_array<T: Deserialize, C: FromIterator<T>>(p: &mut Parser<'_>) -> Result<C, Error> {
    p.begin(b'[')?;
    let mut first = true;
    std::iter::from_fn(|| match p.next_elem(&mut first) {
        Ok(true) => Some(T::read_json(p)),
        Ok(false) => None,
        Err(e) => Some(Err(e)),
    })
    .collect()
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom(format!("expected array, got {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }

    fn read_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        read_array(p)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom(format!("expected object, got {v:?}")))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }

    fn read_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.begin(b'{')?;
        let (mut map, mut first) = (HashMap::new(), true);
        while let Some(key) = p.next_key(&mut first)? {
            let value = V::read_json(p)?;
            map.insert(key.into_owned(), value);
        }
        Ok(map)
    }
}

macro_rules! de_tuple {
    ($(($len:literal; $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v
                    .as_array()
                    .ok_or_else(|| Error::custom(format!("expected array, got {v:?}")))?;
                if items.len() != $len {
                    return Err(Error::custom(format!(
                        "expected {}-tuple, got {} elements", $len, items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$n])?,)+))
            }

            fn read_json(p: &mut Parser<'_>) -> Result<Self, Error> {
                p.begin(b'[')?;
                let mut first = true;
                let tuple = ($({
                    p.tuple_elem(&mut first)?;
                    $t::read_json(p)?
                },)+);
                p.tuple_end(&mut first)?;
                Ok(tuple)
            }
        }
    )*};
}
de_tuple! {
    (1; 0 A)
    (2; 0 A, 1 B)
    (3; 0 A, 1 B, 2 C)
    (4; 0 A, 1 B, 2 C, 3 D)
    (5; 0 A, 1 B, 2 C, 3 D, 4 E)
}

impl<T: Deserialize + Eq + std::hash::Hash> Deserialize for std::collections::HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items =
            v.as_array().ok_or_else(|| Error::custom(format!("expected array, got {v:?}")))?;
        items.iter().map(T::from_value).collect()
    }

    fn read_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        read_array(p)
    }
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items =
            v.as_array().ok_or_else(|| Error::custom(format!("expected array, got {v:?}")))?;
        items.iter().map(T::from_value).collect()
    }

    fn read_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        read_array(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-3i64).to_value()).unwrap(), -3);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(String::from_value(&"hi".to_value()).unwrap(), "hi");
        assert_eq!(Option::<u64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Vec::<u64>::from_value(&vec![1u64, 2].to_value()).unwrap(), vec![1, 2]);
        let t: (u64, String) =
            Deserialize::from_value(&(7u64, "x".to_string()).to_value()).unwrap();
        assert_eq!(t, (7, "x".to_string()));
    }

    #[test]
    fn coercions_and_errors() {
        assert_eq!(u64::from_value(&Value::I64(5)).unwrap(), 5);
        assert!(u64::from_value(&Value::I64(-5)).is_err());
        assert!(bool::from_value(&Value::U64(1)).is_err());
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
    }

    #[test]
    fn field_lookup_defaults_to_null() {
        let obj = vec![("a".to_string(), Value::U64(1))];
        assert_eq!(field(&obj, "a"), &Value::U64(1));
        assert_eq!(field(&obj, "missing"), &Value::Null);
    }
}
