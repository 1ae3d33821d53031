//! Offline shim for the `serde` crate.
//!
//! Real serde is a zero-allocation visitor framework; this shim trades that
//! for a tiny tree-based model: [`Serialize`] lowers a value into a JSON
//! [`Value`], [`Deserialize`] lifts one back. The derive macros (feature
//! `derive`, from the sibling `serde_derive` shim) generate those two impls
//! for plain structs and enums, mirroring serde's default externally-tagged
//! representation so the JSON written by this workspace looks exactly like
//! what upstream serde_json would emit.
//!
//! Supported surface (all this workspace uses): `#[derive(Serialize,
//! Deserialize)]` on non-generic, attribute-free structs and enums, and the
//! `serde_json` shim's `to_string{,_pretty}` / `to_value` / `from_str`.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

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

    /// Numeric coercion to `u64` (rejects negatives and non-integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            Value::F64(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Numeric coercion to `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) if *v <= i64::MAX as u64 => Some(*v as i64),
            Value::F64(v) if v.fract() == 0.0 => Some(*v as i64),
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

    /// Borrow hook for writers: a value that already is a document tree
    /// ([`Value`], and references to one) lends it instead of being copied
    /// by [`Serialize::to_value`]. Not part of serde's API; no call site
    /// names it.
    #[doc(hidden)]
    fn borrow_value(&self) -> Option<&Value> {
        None
    }
}

/// A value that can be lifted back out of the data model.
pub trait Deserialize: Sized {
    /// Rebuild from a document tree.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Move hook for parsers: rebuild from a tree the caller no longer
    /// needs. [`Value`] takes the tree as it is instead of copying it
    /// through [`Deserialize::from_value`]. Not part of serde's API; no
    /// call site names it.
    #[doc(hidden)]
    fn from_owned_value(v: Value) -> Result<Self, Error> {
        Self::from_value(&v)
    }
}

// ---------------------------------------------------------------------
// Serialize impls.
// ---------------------------------------------------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn borrow_value(&self) -> Option<&Value> {
        Some(self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn borrow_value(&self) -> Option<&Value> {
        (**self).borrow_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
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
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<T: Serialize> Serialize for std::collections::HashSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

// ---------------------------------------------------------------------
// Deserialize impls.
// ---------------------------------------------------------------------

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }

    fn from_owned_value(v: Value) -> Result<Self, Error> {
        Ok(v)
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
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom(format!("expected array, got {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
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
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items =
            v.as_array().ok_or_else(|| Error::custom(format!("expected array, got {v:?}")))?;
        items.iter().map(T::from_value).collect()
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

    #[test]
    fn only_a_tree_lends_itself_and_moves_out_whole() {
        let tree = Value::Array(vec![Value::U64(1), Value::Str("x".into())]);
        assert!(std::ptr::eq(tree.borrow_value().unwrap(), &tree));
        let by_ref = &tree;
        assert!(std::ptr::eq(Serialize::borrow_value(&by_ref).unwrap(), &tree));
        assert!(7u64.borrow_value().is_none());
        assert!(vec![tree.clone()].borrow_value().is_none());
        assert_eq!(Value::from_owned_value(tree.clone()).unwrap(), tree);
        // The default hook is `from_value` on the moved tree.
        assert_eq!(Vec::<Value>::from_owned_value(tree.clone()).unwrap(), tree.as_array().unwrap());
        assert!(u64::from_owned_value(tree).is_err());
    }
}
