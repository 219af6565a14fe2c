//! Offline shim for `serde`: serialization through an explicit
//! [`value::Value`] tree instead of upstream's visitor machinery.
//!
//! [`Serialize`] renders a type into a `Value`; [`Deserialize`] rebuilds
//! it. The companion `serde_derive` shim generates both impls for the
//! struct shapes this repo snapshots (named structs, newtype structs,
//! `#[serde(transparent)]`, `#[serde(default, skip_serializing_if)]`), and
//! the `serde_json` shim converts `Value` ⇄ JSON text. The visible API —
//! `use serde::{Serialize, Deserialize}` + `#[derive(...)]` — matches
//! upstream, so swapping the real crates back in later is a manifest edit.

pub use serde_derive::{Deserialize, Serialize};

/// The serialized form: a JSON-shaped value tree.
pub mod value {
    /// A JSON-shaped value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Non-negative integer.
        U64(u64),
        /// Negative integer.
        I64(i64),
        /// Any other number.
        F64(f64),
        /// A string.
        Str(String),
        /// An ordered array.
        Array(Vec<Value>),
        /// An object with insertion-ordered keys.
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
    }

    /// First value under `key` in an object entry list.
    pub fn get<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

use value::Value;

/// Deserialization failure: a human-readable path/type mismatch message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    /// Build an error from a message.
    pub fn new(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Render `self` as a [`Value`] (shim of `serde::Serialize`).
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`] (shim of `serde::Deserialize`).
pub trait Deserialize: Sized {
    /// Parse the value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---- primitive impls -------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match *v {
                    Value::U64(n) => n,
                    Value::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => f as u64,
                    _ => return Err(DeError::new(format!(
                        "expected unsigned integer, got {v:?}"
                    ))),
                };
                <$t>::try_from(n).map_err(|_| DeError::new(format!(
                    "integer {n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::U64(n as u64) } else { Value::I64(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: i64 = match *v {
                    Value::I64(n) => n,
                    Value::U64(n) => i64::try_from(n)
                        .map_err(|_| DeError::new(format!("{n} exceeds i64")))?,
                    Value::F64(f) if f.fract() == 0.0 => f as i64,
                    _ => return Err(DeError::new(format!("expected integer, got {v:?}"))),
                };
                <$t>::try_from(n).map_err(|_| DeError::new(format!(
                    "integer {n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match *v {
            Value::F64(f) => Ok(f),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            _ => Err(DeError::new(format!("expected number, got {v:?}"))),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match *v {
            Value::Bool(b) => Ok(b),
            _ => Err(DeError::new(format!("expected bool, got {v:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::new(format!("expected string, got {v:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::new(format!("expected array, got {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident / $idx:tt),+; $len:expr))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_array()
                    .ok_or_else(|| DeError::new("expected array for tuple"))?;
                if items.len() != $len {
                    return Err(DeError::new(format!(
                        "expected {}-tuple, got {} elements", $len, items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A/0; 1)
    (A/0, B/1; 2)
    (A/0, B/1, C/2; 3)
    (A/0, B/1, C/2, D/3; 4)
}

#[cfg(test)]
mod tests {
    use super::value::Value;
    use super::{Deserialize, Serialize};

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        let v: Vec<(u32, u32, u64)> = vec![(1, 2, 3), (4, 5, 6)];
        assert_eq!(
            Vec::<(u32, u32, u64)>::from_value(&v.to_value()).unwrap(),
            v
        );
    }

    #[test]
    fn range_errors_are_reported() {
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(u64::from_value(&Value::I64(-1)).is_err());
        assert!(bool::from_value(&Value::U64(1)).is_err());
    }

    #[test]
    fn u64_max_survives() {
        let v = u64::MAX.to_value();
        assert_eq!(u64::from_value(&v).unwrap(), u64::MAX);
    }
}
