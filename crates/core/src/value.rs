//! Runtime values.
//!
//! PIER tuples are vectors of dynamically typed [`Value`]s.  The type system is
//! deliberately small — nulls, booleans, 64-bit integers, 64-bit floats and
//! strings — which covers every relation in the paper's workloads (monitoring
//! readings, intrusion-detection counters, file keywords, overlay links).

use pier_simnet::WireSize;
use std::cmp::Ordering;
use std::fmt;

/// The type of a [`Value`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// The null type (only the `Null` value).
    Null,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Null => "NULL",
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INTEGER",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
        };
        write!(f, "{s}")
    }
}

/// Canonical float representative shared by [`Value::total_cmp`], `Hash` and
/// [`Value::partition_string`]: every NaN collapses to one bit pattern and
/// `-0.0` folds into `0.0`.  Without this, `-0.0 == 0.0` under `Eq` but the two
/// hash (and DHT-partition) differently, which makes hash-join key unification
/// depend on bucket layout.
fn canonical_f64(f: f64) -> f64 {
    if f.is_nan() {
        f64::NAN
    } else if f == 0.0 {
        0.0
    } else {
        f
    }
}

/// A dynamically typed value.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The value's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Is this the null value?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truthiness for predicate evaluation (NULL and non-booleans are false).
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Numeric view (integers widen to float); `None` for non-numeric values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view; `None` for non-integers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(if *b { 1 } else { 0 }),
            _ => None,
        }
    }

    /// String view; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A canonical string used as a DHT resource id (partitioning key).
    ///
    /// Distinct values map to distinct strings within a type, and the mapping
    /// is stable across nodes, which is what consistent partitioning needs.
    pub fn partition_string(&self) -> String {
        match self {
            Value::Null => "\u{0}null".to_string(),
            Value::Bool(b) => format!("b:{b}"),
            Value::Int(i) => format!("i:{i}"),
            Value::Float(f) => format!("f:{}", canonical_f64(*f).to_bits()),
            Value::Str(s) => format!("s:{s}"),
        }
    }

    /// SQL-style three-valued comparison.  Returns `None` when either side is
    /// NULL or the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            // Mixed numerics compare as floats.
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            _ => None,
        }
    }

    /// Total ordering used for sorting / top-k: NULLs first, then booleans,
    /// integers/floats (numerically), then strings.  Unlike [`Value::sql_cmp`]
    /// this never fails, so sorts are well defined on mixed data.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        let (ra, rb) = (rank(self), rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => {
                let fa = canonical_f64(a.as_f64().unwrap_or(f64::NEG_INFINITY));
                let fb = canonical_f64(b.as_f64().unwrap_or(f64::NEG_INFINITY));
                fa.total_cmp(&fb)
            }
        }
    }

    /// SQL equality (NULL is not equal to anything, including NULL).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal && self.data_type() == other.data_type()
            || matches!(
                (self, other),
                (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_))
            ) && self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

/// [`Value::total_cmp`] as `Ord`, which agrees with `Eq`: `Int(3)` equals
/// `Float(3.0)`, and NaN and `-0.0` are canonical.  Grouped aggregation keys
/// its groups by it, and `ORDER BY` breaks ties with it.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash must agree with `partition_string`-style identity.
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                canonical_f64(*f).to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl WireSize for Value {
    fn wire_size(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
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
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_types() {
        assert_eq!(Value::Null.data_type(), DataType::Null);
        assert_eq!(Value::Bool(true).data_type(), DataType::Bool);
        assert_eq!(Value::Int(3).data_type(), DataType::Int);
        assert_eq!(Value::Float(1.5).data_type(), DataType::Float);
        assert_eq!(Value::str("x").data_type(), DataType::Str);
        assert_eq!(format!("{}", DataType::Str), "STRING");
    }

    #[test]
    fn truthiness_and_null() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Int(1).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Int(4).as_i64(), Some(4));
        assert_eq!(Value::Float(2.5).as_i64(), None);
        assert_eq!(Value::str("abc").as_str(), Some("abc"));
        assert_eq!(Value::Int(1).as_str(), None);
    }

    #[test]
    fn sql_comparisons() {
        use Ordering::*;
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Less));
        assert_eq!(Value::Float(2.0).sql_cmp(&Value::Int(2)), Some(Equal));
        assert_eq!(Value::str("a").sql_cmp(&Value::str("b")), Some(Less));
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("1")), None);
        assert!(Value::Int(3).sql_eq(&Value::Float(3.0)));
        assert!(!Value::Null.sql_eq(&Value::Null));
    }

    #[test]
    fn total_ordering_is_total() {
        let mut values = [
            Value::str("zebra"),
            Value::Int(10),
            Value::Null,
            Value::Float(-1.5),
            Value::Bool(true),
            Value::Int(-3),
        ];
        values.sort_by(|a, b| a.total_cmp(b));
        assert!(values[0].is_null());
        assert_eq!(values[1], Value::Bool(true));
        assert_eq!(values[2], Value::Int(-3));
        assert_eq!(values[3], Value::Float(-1.5));
        assert_eq!(values[4], Value::Int(10));
        assert_eq!(values[5], Value::str("zebra"));
    }

    #[test]
    fn equality_and_hash_agree_for_numerics() {
        use std::collections::HashSet;
        assert_eq!(Value::Int(3), Value::Float(3.0));
        let mut set = HashSet::new();
        set.insert(Value::Int(3));
        assert!(set.contains(&Value::Float(3.0)));
        set.insert(Value::str("a"));
        set.insert(Value::Null);
        assert_eq!(set.len(), 3);

        // Signed zero: one equivalence class, one hash bucket, one partition.
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(Value::Float(-0.0), Value::Int(0));
        set.insert(Value::Float(0.0));
        assert!(set.contains(&Value::Float(-0.0)));
        assert_eq!(Value::Float(-0.0).partition_string(), Value::Float(0.0).partition_string());

        // NaN equals itself (any payload) and nothing else.
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, Value::Float(-f64::NAN));
        assert_ne!(nan, Value::Float(5.0));
        set.insert(nan.clone());
        assert!(set.contains(&Value::Float(-f64::NAN)));
    }

    #[test]
    fn ord_agrees_with_eq() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::str("a"),
        ];
        for a in &values {
            for b in &values {
                assert_eq!(a.cmp(b) == Ordering::Equal, a == b, "{a:?} vs {b:?}");
            }
        }
        assert!(vec![Value::Int(1), Value::str("z")] < vec![Value::Float(1.5)]);
    }

    #[test]
    fn partition_strings_distinguish_values() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(1),
            Value::Int(2),
            Value::Float(1.5),
            Value::str("1"),
            Value::str("b:true"),
        ];
        let mut seen = std::collections::HashSet::new();
        for v in &values {
            assert!(seen.insert(v.partition_string()), "collision for {v:?}");
        }
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{}", Value::Null), "NULL");
        assert_eq!(format!("{}", Value::Int(42)), "42");
        assert_eq!(format!("{}", Value::Float(2.0)), "2.0");
        assert_eq!(format!("{}", Value::str("hi")), "hi");
        assert_eq!(format!("{}", Value::Bool(false)), "false");
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Int(1).wire_size(), 9);
        assert_eq!(Value::str("abc").wire_size(), 8);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from("owned".to_string()), Value::str("owned"));
    }
}
