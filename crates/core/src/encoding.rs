//! Compact columnar wire encoding for batched payloads.
//!
//! Batched payloads (`TupleBatch` / `JoinBatch` / `ResultBatch`) carry their
//! rows in a [`TupleBlock`]: the rows themselves plus the byte size of the
//! block's *chosen wire encoding*.  The plain encoding is the classic
//! row-major layout (each tuple's values back to back); the columnar encoding
//! pivots the block into columns and picks, per column, the cheapest of
//! **plain / dictionary / run-length** — low-cardinality columns (hostnames,
//! ports, rule ids) shrink to a small dictionary plus narrow codes.
//!
//! The encoding is *real*, not an estimate: [`ColumnarWire::encode`] builds
//! the dictionary/run structures and [`ColumnarWire::decode`] reconstructs
//! the rows, and a columnar [`TupleBlock`] stores the **decoded** rows — so
//! an encoding bug surfaces as wrong query answers, not just wrong byte
//! accounting.  `wire_size` is computed from the encoded form, which keeps
//! `bytes_shipped` and the `OpTrace` counters honest.

use crate::tuple::Tuple;
use crate::value::Value;
use pier_simnet::WireSize;
use std::collections::HashMap;

/// Per-column wire representation, chosen by encoded size.
#[derive(Clone, Debug, PartialEq)]
pub enum WireColumn {
    /// Values back to back — the fallback that never loses.
    Plain(Vec<Value>),
    /// Distinct values once, plus one narrow code per row.  Wins on
    /// low-cardinality columns.
    Dict {
        /// The distinct values, in first-occurrence order.
        dict: Vec<Value>,
        /// Per-row indexes into `dict`.
        codes: Vec<u32>,
    },
    /// `(value, run length)` pairs.  Wins on sorted / constant columns.
    Rle {
        /// The runs, in row order.
        runs: Vec<(Value, u32)>,
    },
}

/// Bit-exact value identity: unlike `Value`'s `PartialEq` (which unifies
/// `Int(3)` and `Float(3.0)`), encoding must never substitute one
/// representation for another — decode has to reproduce the input exactly.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// Width in bytes of a dictionary code for `dict_len` entries.
fn code_width(dict_len: usize) -> usize {
    if dict_len <= 1 << 8 {
        1
    } else if dict_len <= 1 << 16 {
        2
    } else {
        4
    }
}

impl WireColumn {
    /// Encode one column, choosing the smallest representation.
    fn encode(values: Vec<Value>) -> WireColumn {
        let n = values.len();
        let plain_size: usize = values.iter().map(|v| v.wire_size()).sum();

        // Dictionary: distinct values keyed by exact identity
        // (`partition_string` distinguishes what `Value::eq` unifies).
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut dict: Vec<Value> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(n);
        for v in &values {
            let code = *index.entry(v.partition_string()).or_insert_with(|| {
                dict.push(v.clone());
                dict.len() as u32 - 1
            });
            codes.push(code);
        }
        let dict_size =
            2 + dict.iter().map(|v| v.wire_size()).sum::<usize>() + n * code_width(dict.len());

        // Run-length: consecutive identical values collapse.
        let mut runs: Vec<(Value, u32)> = Vec::new();
        for v in values.iter() {
            match runs.last_mut() {
                Some((last, count)) if identical(last, v) => *count += 1,
                _ => runs.push((v.clone(), 1)),
            }
        }
        let rle_size = 4 + runs.iter().map(|(v, _)| v.wire_size() + 4).sum::<usize>();

        if dict_size < plain_size && dict_size <= rle_size {
            WireColumn::Dict { dict, codes }
        } else if rle_size < plain_size {
            WireColumn::Rle { runs }
        } else {
            WireColumn::Plain(values)
        }
    }

    /// Reconstruct the column's row values.
    fn decode(&self) -> Vec<Value> {
        match self {
            WireColumn::Plain(values) => values.clone(),
            WireColumn::Dict { dict, codes } => {
                codes.iter().map(|&c| dict[c as usize].clone()).collect()
            }
            WireColumn::Rle { runs } => {
                let mut out = Vec::new();
                for (v, count) in runs {
                    for _ in 0..*count {
                        out.push(v.clone());
                    }
                }
                out
            }
        }
    }

    /// Short label for traces and benchmarks.
    pub fn kind(&self) -> &'static str {
        match self {
            WireColumn::Plain(_) => "plain",
            WireColumn::Dict { .. } => "dict",
            WireColumn::Rle { .. } => "rle",
        }
    }
}

impl WireSize for WireColumn {
    fn wire_size(&self) -> usize {
        // 1 byte encoding tag per column.
        1 + match self {
            WireColumn::Plain(values) => values.iter().map(|v| v.wire_size()).sum::<usize>(),
            WireColumn::Dict { dict, codes } => {
                2 + dict.iter().map(|v| v.wire_size()).sum::<usize>()
                    + codes.len() * code_width(dict.len())
            }
            WireColumn::Rle { runs } => {
                4 + runs.iter().map(|(v, _)| v.wire_size() + 4).sum::<usize>()
            }
        }
    }
}

/// A whole batch of rows in columnar wire form.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnarWire {
    /// One encoded column per tuple position.
    pub columns: Vec<WireColumn>,
    /// Number of rows.
    pub rows: u32,
}

impl ColumnarWire {
    /// Pivot and encode.  Requires rectangular input (all rows same arity) —
    /// callers fall back to the plain row encoding otherwise.
    pub fn encode(rows: &[Tuple]) -> ColumnarWire {
        let width = rows.first().map(|t| t.arity()).unwrap_or(0);
        let columns = (0..width)
            .map(|c| WireColumn::encode(rows.iter().map(|t| t.get(c).clone()).collect()))
            .collect();
        ColumnarWire { columns, rows: rows.len() as u32 }
    }

    /// Reconstruct the rows.
    pub fn decode(&self) -> Vec<Tuple> {
        let cols: Vec<Vec<Value>> = self.columns.iter().map(|c| c.decode()).collect();
        (0..self.rows as usize)
            .map(|i| Tuple::new(cols.iter().map(|c| c[i].clone()).collect()))
            .collect()
    }
}

impl WireSize for ColumnarWire {
    fn wire_size(&self) -> usize {
        // 4-byte row count + 2-byte column count + encoded columns.
        6 + self.columns.iter().map(|c| c.wire_size()).sum::<usize>()
    }
}

/// The rows of a batched payload plus their wire-encoding byte accounting.
///
/// Receivers read [`TupleBlock::rows`] exactly as they read the old
/// `Vec<Tuple>`; the difference is that `wire_size` now reflects the chosen
/// encoding.  A columnar block's rows are the product of a real
/// encode→decode round trip, so the stored rows *are* what a receiver would
/// reconstruct from the wire bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct TupleBlock {
    rows: Vec<Tuple>,
    encoded_bytes: usize,
    /// Per-column encoding labels (empty for plain row encoding).
    encodings: Vec<&'static str>,
}

impl TupleBlock {
    /// Classic row-major encoding: each tuple's values back to back.  Byte
    /// accounting matches the pre-columnar wire format exactly.
    pub fn plain(rows: Vec<Tuple>) -> TupleBlock {
        let encoded_bytes = 4 + rows.iter().map(|t| t.wire_size()).sum::<usize>();
        TupleBlock { rows, encoded_bytes, encodings: Vec::new() }
    }

    /// Columnar encoding with per-column dictionary/RLE compression.  Ragged
    /// batches (mixed arity — never produced by a single relation or stage)
    /// fall back to the plain encoding, as does any block where the columnar
    /// form does not actually beat the row-major bytes (tiny blocks,
    /// unique-heavy columns) — a columnar-configured sender never ships
    /// *more* bytes than a plain one.
    pub fn columnar(rows: Vec<Tuple>) -> TupleBlock {
        let rectangular =
            rows.first().map(|f| rows.iter().all(|t| t.arity() == f.arity())).unwrap_or(true);
        if !rectangular {
            return TupleBlock::plain(rows);
        }
        let wire = ColumnarWire::encode(&rows);
        let plain_bytes = 4 + rows.iter().map(|t| t.wire_size()).sum::<usize>();
        // Keep the columnar layout only when compression actually engaged:
        // all-plain columns beat the row layout just by dropping per-tuple
        // headers, which isn't worth the decode asymmetry.
        let compressed = wire.columns.iter().any(|c| !matches!(c, WireColumn::Plain(_)));
        if !compressed || wire.wire_size() >= plain_bytes {
            return TupleBlock::plain(rows);
        }
        let encoded_bytes = wire.wire_size();
        let encodings = wire.columns.iter().map(|c| c.kind()).collect();
        // Store the decoded rows: the block's contents are exactly what the
        // wire bytes reconstruct to.
        TupleBlock { rows: wire.decode(), encoded_bytes, encodings }
    }

    /// Encode with the given layout choice: [`TupleBlock::columnar`] when
    /// `columnar`, else [`TupleBlock::plain`].  The engine always encodes
    /// columnar (which falls back to plain where compression does not win).
    pub fn new(rows: Vec<Tuple>, columnar: bool) -> TupleBlock {
        if columnar {
            TupleBlock::columnar(rows)
        } else {
            TupleBlock::plain(rows)
        }
    }

    /// The rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Consume into the rows.
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the block empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Per-column encoding labels (`"dict"`, `"rle"`, `"plain"`); empty when
    /// the block uses the plain row encoding.
    pub fn column_encodings(&self) -> &[&'static str] {
        &self.encodings
    }
}

impl WireSize for TupleBlock {
    fn wire_size(&self) -> usize {
        self.encoded_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_rows(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::str(format!("host-{}", i % 4)), // low cardinality → dict
                    Value::Int(1322),                      // constant → rle
                    Value::Int(i as i64),                  // unique → plain
                ])
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_rows() {
        let rows = host_rows(64);
        let wire = ColumnarWire::encode(&rows);
        assert_eq!(wire.decode(), rows);
        let block = TupleBlock::columnar(rows.clone());
        assert_eq!(block.rows(), &rows[..]);
        assert_eq!(block.len(), 64);
    }

    #[test]
    fn round_trip_is_bit_exact_for_numeric_twins() {
        // Int(3) == Float(3.0) under Value::eq, but the encoding must keep
        // them distinct or decoding would change value types.
        let rows = vec![
            Tuple::new(vec![Value::Int(3)]),
            Tuple::new(vec![Value::Float(3.0)]),
            Tuple::new(vec![Value::Int(3)]),
            Tuple::new(vec![Value::Null]),
        ];
        let decoded = ColumnarWire::encode(&rows).decode();
        assert!(matches!(decoded[0].get(0), Value::Int(3)));
        assert!(matches!(decoded[1].get(0), Value::Float(_)));
        assert!(matches!(decoded[3].get(0), Value::Null));
    }

    #[test]
    fn low_cardinality_columns_shrink() {
        let rows = host_rows(256);
        let plain = TupleBlock::plain(rows.clone());
        let columnar = TupleBlock::columnar(rows);
        assert!(
            columnar.wire_size() < plain.wire_size(),
            "columnar {} vs plain {}",
            columnar.wire_size(),
            plain.wire_size()
        );
        assert_eq!(columnar.column_encodings(), &["dict", "rle", "plain"]);
        assert!(plain.column_encodings().is_empty());
    }

    #[test]
    fn unique_heavy_batches_fall_back_to_plain() {
        // All-unique strings: no dictionary or RLE win, so the encoder keeps
        // the row-major layout — columnar mode never ships more bytes.
        let rows: Vec<Tuple> =
            (0..32).map(|i| Tuple::new(vec![Value::str(format!("unique-{i}"))])).collect();
        let plain = TupleBlock::plain(rows.clone());
        let columnar = TupleBlock::columnar(rows);
        assert_eq!(columnar.wire_size(), plain.wire_size());
        assert!(columnar.column_encodings().is_empty(), "fell back to the plain layout");
    }

    #[test]
    fn plain_matches_legacy_accounting() {
        let rows = host_rows(8);
        let expected = 4 + rows.iter().map(|t| t.wire_size()).sum::<usize>();
        assert_eq!(TupleBlock::plain(rows).wire_size(), expected);
    }

    #[test]
    fn empty_and_ragged_blocks() {
        let empty = TupleBlock::columnar(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.rows(), &[] as &[Tuple]);
        let ragged =
            vec![Tuple::new(vec![Value::Int(1)]), Tuple::new(vec![Value::Int(1), Value::Int(2)])];
        let block = TupleBlock::columnar(ragged.clone());
        assert_eq!(block.rows(), &ragged[..], "ragged input falls back to plain, rows untouched");
        assert_eq!(TupleBlock::new(vec![], false).wire_size(), 4);
    }
}
