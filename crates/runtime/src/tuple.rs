//! Tuple values flowing through the runtime.

use std::fmt;

/// A single field of a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer field.
    Int(i64),
    /// Floating-point field.
    Float(f64),
    /// Text field.
    Text(String),
    /// Opaque binary field (e.g. an encoded video frame).
    Bytes(Vec<u8>),
}

impl Value {
    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, if this is a [`Value::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The text payload, if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(v) => Some(v),
            _ => None,
        }
    }

    /// The binary payload, if this is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v}"),
            Value::Bytes(v) => write!(f, "<{} bytes>", v.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
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

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

/// A tuple: an ordered list of [`Value`] fields.
///
/// # Examples
///
/// ```
/// use drs_runtime::tuple::{Tuple, Value};
///
/// let t = Tuple::new(vec![Value::Int(42), Value::from("frame")]);
/// assert_eq!(t.field(0).and_then(Value::as_int), Some(42));
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    fields: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from its fields.
    pub fn new(fields: Vec<Value>) -> Self {
        Tuple { fields }
    }

    /// One-field convenience constructor.
    pub fn of(value: impl Into<Value>) -> Self {
        Tuple {
            fields: vec![value.into()],
        }
    }

    /// The field at `index`, if present.
    pub fn field(&self, index: usize) -> Option<&Value> {
        self.fields.get(index)
    }

    /// All fields.
    pub fn fields(&self) -> &[Value] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the tuple has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Consumes the tuple, returning its field buffer, capacity included —
    /// the inverse of [`Tuple::new`].
    pub(crate) fn into_fields(self) -> Vec<Value> {
        self.fields
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple {
            fields: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), None);
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from("x").as_text(), Some("x"));
        assert_eq!(
            Value::from(vec![1u8, 2]).as_bytes(),
            Some([1u8, 2].as_slice())
        );
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::from("hi").to_string(), "hi");
        assert_eq!(Value::from(vec![0u8; 4]).to_string(), "<4 bytes>");
    }

    #[test]
    fn tuple_construction_and_access() {
        let t = Tuple::new(vec![Value::Int(1), Value::Float(2.0)]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.field(1).and_then(Value::as_float), Some(2.0));
        assert_eq!(t.field(5), None);

        let single = Tuple::of(9i64);
        assert_eq!(single.len(), 1);

        let collected: Tuple = vec![Value::Int(1), Value::Int(2)].into_iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected.into_fields(), vec![Value::Int(1), Value::Int(2)]);
    }
}
