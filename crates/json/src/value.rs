//! The JSON value model.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// Object representation. A sorted map keeps serialization deterministic,
/// which the byte-accounting experiments rely on (metadata sizes must be
/// reproducible run to run).
pub type Map = BTreeMap<String, Value>;

/// A JSON number: either an exact 64-bit integer or a double.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Signed integer without a fractional part or exponent.
    Int(i64),
    /// Any other finite number.
    Float(f64),
}

impl Number {
    /// The value as `f64`, lossless for floats and integers up to 2^53.
    pub(crate) fn as_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as `i64` if it is an integer.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::Int(i) => Some(i),
            Number::Float(_) => None,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(i) => write!(f, "{i}"),
            Number::Float(x) => {
                // Keep a fractional or exponent marker so the value reparses
                // as a float rather than collapsing to an integer.
                let s = format!("{x}");
                if s.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
                    f.write_str(&s)
                } else {
                    write!(f, "{s}.0")
                }
            }
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// Borrow as `&str` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::Int(i)) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as `f64` if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow the array elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow the object map if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable access to the object map if this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// True if this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Build an object from key/value pairs.
    pub fn object<I, K>(pairs: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl Index<&str> for Value {
    type Output = Value;

    /// Indexing a missing key or a non-object yields `Null`, mirroring the
    /// permissive access pattern the media generator uses for optional
    /// metadata fields.
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Number(Number::Int(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Number(Number::Int(i64::from(i)))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Number(Number::Int(i as i64))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Number(Number::Float(f))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_missing_key_is_null() {
        let v = Value::object([("a", Value::from(1i64))]);
        assert!(v["missing"].is_null());
        assert!(v["a"]["nested"].is_null());
    }

    #[test]
    fn number_accessors() {
        assert_eq!(Value::from(42i64).as_u64(), Some(42));
        assert_eq!(Value::from(-1i64).as_u64(), None);
        assert_eq!(Value::from(-1i64).as_i64(), Some(-1));
        assert_eq!(Value::from(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::from(1.5).as_i64(), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from("x"), Value::String("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        let arr = Value::from(vec![1i64, 2, 3]);
        assert_eq!(arr[1].as_i64(), Some(2));
        assert!(arr[9].is_null());
    }

    #[test]
    fn float_display_keeps_marker() {
        assert_eq!(Number::Float(2.0).to_string(), "2.0");
        assert_eq!(Number::Int(2).to_string(), "2");
    }
}
