//! Data types and values.
//!
//! The paper's MISD records a *type integrity constraint* `A_i(Type_i)` for
//! every attribute (Fig. 4). We support the small scalar type system needed by
//! the paper's examples: integers, floats, booleans and fixed-size text.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};

/// Scalar data type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (NaN is rejected on construction).
    Float,
    /// Boolean.
    Bool,
    /// Variable-length text.
    Text,
}

impl DataType {
    /// Default storage size in bytes, used for the paper's `s_{R.A}` attribute
    /// sizes when no explicit size is registered (§6.1 statistic 2).
    #[must_use]
    pub fn default_byte_size(self) -> u32 {
        match self {
            DataType::Int | DataType::Float => 8,
            DataType::Bool => 1,
            DataType::Text => 20,
        }
    }

    /// Whether two types may be compared with the paper's `θ` operators.
    #[must_use]
    pub(crate) fn comparable_with(self, other: DataType) -> bool {
        self == other
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Bool => "BOOL",
            DataType::Text => "TEXT",
        };
        f.write_str(s)
    }
}

/// A scalar value.
///
/// `Float` values are totally ordered via [`f64::total_cmp`]; NaN is rejected
/// by [`Value::float`], which is the sanctioned constructor, so equality and
/// hashing are well behaved for any value built through the public API.
#[derive(Debug, Clone)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Floating point value (never NaN when built via [`Value::float`]).
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// Text value.
    Text(String),
}

impl Value {
    /// Builds a float value, rejecting NaN so ordering stays total.
    pub fn float(v: f64) -> Result<Value> {
        if v.is_nan() {
            return Err(Error::NotComparable);
        }
        // Normalize -0.0 so that equal values hash equally.
        Ok(Value::Float(if v == 0.0 { 0.0 } else { v }))
    }

    /// The value's data type.
    #[must_use]
    pub(crate) fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Bool(_) => DataType::Bool,
            Value::Text(_) => DataType::Text,
        }
    }

    /// Compares two values of the same type.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TypeMismatch`] when the types differ.
    pub fn try_cmp(&self, other: &Value) -> Result<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Ok(a.total_cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Ok(a.cmp(b)),
            _ => Err(Error::TypeMismatch {
                left: self.data_type(),
                right: other.data_type(),
                context: "value comparison",
            }),
        }
    }

    /// Size of the value in bytes, for data-transfer accounting.
    #[must_use]
    pub fn byte_size(&self) -> u32 {
        match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Text(t) => u32::try_from(t.len()).unwrap_or(u32::MAX),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        matches!(self.try_cmp(other), Ok(Ordering::Equal))
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Value::Float(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Bool(v) => {
                2u8.hash(state);
                v.hash(state);
            }
            Value::Text(v) => {
                3u8.hash(state);
                v.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: same-type values compare naturally; values of different
    /// types order by a fixed type rank (Int < Float < Bool < Text). This
    /// exists so tuples can live in ordered sets; *predicates* always use the
    /// type-checked [`Value::try_cmp`] instead.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Int(_) => 0,
                Value::Float(_) => 1,
                Value::Bool(_) => 2,
                Value::Text(_) => 3,
            }
        }
        self.try_cmp(other)
            .unwrap_or_else(|_| rank(self).cmp(&rank(other)))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "'{v}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_ordering() {
        assert_eq!(
            Value::Int(1).try_cmp(&Value::Int(2)).unwrap(),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(5).try_cmp(&Value::Int(5)).unwrap(),
            Ordering::Equal
        );
    }

    #[test]
    fn float_nan_rejected() {
        assert_eq!(Value::float(f64::NAN).unwrap_err(), Error::NotComparable);
    }

    #[test]
    fn float_negative_zero_normalized() {
        let a = Value::float(0.0).unwrap();
        let b = Value::float(-0.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn cross_type_comparison_errors() {
        let e = Value::Int(1).try_cmp(&Value::Text("x".into())).unwrap_err();
        assert!(matches!(e, Error::TypeMismatch { .. }));
    }

    #[test]
    fn cross_type_values_not_equal() {
        assert_ne!(Value::Int(1), Value::Text("1".into()));
    }

    #[test]
    fn text_ordering_is_lexicographic() {
        assert_eq!(
            Value::from("Asia").try_cmp(&Value::from("Europe")).unwrap(),
            Ordering::Less
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::from("Asia").to_string(), "'Asia'");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn data_type_display() {
        assert_eq!(DataType::Int.to_string(), "INT");
        assert_eq!(DataType::Text.to_string(), "TEXT");
    }

    #[test]
    fn default_byte_sizes() {
        assert_eq!(DataType::Int.default_byte_size(), 8);
        assert_eq!(DataType::Bool.default_byte_size(), 1);
        assert_eq!(DataType::Text.default_byte_size(), 20);
    }

    #[test]
    fn value_byte_size_text_is_len() {
        assert_eq!(Value::from("Asia").byte_size(), 4);
        assert_eq!(Value::Int(7).byte_size(), 8);
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Int(3)));
        assert_eq!(hash_of(&Value::from("abc")), hash_of(&Value::from("abc")));
    }
}
