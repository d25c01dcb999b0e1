//! Columnar batches — the vectorized execution layer's data representation.
//!
//! A [`ColumnarBatch`] holds the same rows as a `Vec<Tuple>` but laid out
//! column-major: one typed vector per column ([`ColumnData`]) plus a validity
//! [`Bitmap`] marking NULLs.  Homogeneously typed columns (the common case —
//! every relation in the paper's workloads is schema-regular) get dense
//! `Vec<i64>` / `Vec<f64>` / `Vec<String>` storage the kernels in
//! [`kernel`](crate::kernel) can sweep without per-row enum dispatch or
//! `Value` clones; columns mixing types across rows fall back to
//! [`ColumnData::Mixed`], which preserves row-path semantics exactly.
//!
//! Operators pass *selection vectors* (`&[u32]` row indices) between stages
//! instead of materializing filtered copies: a filter kernel turns a batch
//! plus a selection into a smaller selection, and downstream kernels evaluate
//! densely over whatever selection they are handed.

use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use std::borrow::Borrow;

/// A packed validity (non-NULL) bitmap.
#[derive(Clone, Debug, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// An all-valid bitmap of `len` bits.
    pub fn all_valid(len: usize) -> Bitmap {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len, ones: len }
    }

    /// An all-NULL bitmap of `len` bits.
    pub fn all_null(len: usize) -> Bitmap {
        Bitmap { words: vec![0; len.div_ceil(64)], len, ones: 0 }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the bitmap empty (zero bits)?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (valid = true).  Out-of-range reads as NULL.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, valid: bool) {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & b != 0;
        if valid {
            self.words[w] |= b;
        } else {
            self.words[w] &= !b;
        }
        match (was, valid) {
            (false, true) => self.ones += 1,
            (true, false) => self.ones -= 1,
            _ => {}
        }
    }

    /// Number of valid (set) bits.
    pub fn count_valid(&self) -> usize {
        self.ones
    }

    /// Are all bits valid?  Lets kernels skip per-element validity checks.
    pub fn all_are_valid(&self) -> bool {
        self.ones == self.len
    }
}

/// Typed column storage.  The element at an invalid (NULL) position is a
/// don't-care placeholder in the typed variants.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// All non-NULL values are `Value::Int`.
    Int(Vec<i64>),
    /// All non-NULL values are `Value::Float`.
    Float(Vec<f64>),
    /// All non-NULL values are `Value::Bool`.
    Bool(Vec<bool>),
    /// All non-NULL values are `Value::Str`.
    Str(Vec<String>),
    /// Heterogeneously typed column — stored row-wise as a `Value` vector.
    Mixed(Vec<Value>),
}

impl ColumnData {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One column of a batch: typed data plus validity.
#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    /// The values.
    pub data: ColumnData,
    /// Which positions are non-NULL.
    pub validity: Bitmap,
}

impl Column {
    /// An all-NULL column of `len` rows.
    pub fn nulls(len: usize) -> Column {
        Column { data: ColumnData::Int(vec![0; len]), validity: Bitmap::all_null(len) }
    }

    /// Build a column from owned values, choosing typed storage when every
    /// non-NULL value shares one type.
    pub fn from_values(values: Vec<Value>) -> Column {
        let mut ty: Option<DataType> = None;
        let mut uniform = true;
        for v in &values {
            if v.is_null() {
                continue;
            }
            match ty {
                None => ty = Some(v.data_type()),
                Some(t) if t == v.data_type() => {}
                Some(_) => {
                    uniform = false;
                    break;
                }
            }
        }
        let len = values.len();
        if !uniform {
            return Column { data: ColumnData::Mixed(values), validity: Bitmap::all_valid(len) };
        }
        let mut validity = Bitmap::all_valid(len);
        let data = match ty {
            None => {
                // All NULL (or empty).
                return Column::nulls(len);
            }
            Some(DataType::Int) => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.iter().enumerate() {
                    match v {
                        Value::Int(x) => out.push(*x),
                        _ => {
                            validity.set(i, false);
                            out.push(0);
                        }
                    }
                }
                ColumnData::Int(out)
            }
            Some(DataType::Float) => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.iter().enumerate() {
                    match v {
                        Value::Float(x) => out.push(*x),
                        _ => {
                            validity.set(i, false);
                            out.push(0.0);
                        }
                    }
                }
                ColumnData::Float(out)
            }
            Some(DataType::Bool) => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.iter().enumerate() {
                    match v {
                        Value::Bool(x) => out.push(*x),
                        _ => {
                            validity.set(i, false);
                            out.push(false);
                        }
                    }
                }
                ColumnData::Bool(out)
            }
            Some(DataType::Str) => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.into_iter().enumerate() {
                    match v {
                        Value::Str(s) => out.push(s),
                        _ => {
                            validity.set(i, false);
                            out.push(String::new());
                        }
                    }
                }
                ColumnData::Str(out)
            }
            Some(DataType::Null) => unreachable!("nulls never set the unified type"),
        };
        Column { data, validity }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Is row `i` non-NULL?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Mixed(v) => !v[i].is_null(),
            _ => self.validity.get(i),
        }
    }

    /// Materialize row `i` as a `Value` (NULL when invalid; strings clone).
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Gather rows by index into a new column: output row `p` holds this
    /// column's row `idx[p]`.  The workhorse of the vectorized join probe —
    /// cross products are expressed as two gathers (an outer repeat of the
    /// probe side and an inner tile of the build side) instead of per-row
    /// `Value` clones and tuple concatenations.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let mut validity = Bitmap::all_valid(idx.len());
        if !self.validity.all_are_valid() {
            for (p, &i) in idx.iter().enumerate() {
                if !self.validity.get(i as usize) {
                    validity.set(p, false);
                }
            }
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str(v) => {
                ColumnData::Str(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
            ColumnData::Mixed(v) => {
                // Mixed columns carry NULLs in the values; keep that invariant.
                validity = Bitmap::all_valid(idx.len());
                ColumnData::Mixed(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        Column { data, validity }
    }

    /// Concatenate columns end to end.  Homogeneous typed parts stay typed;
    /// anything else falls back to `Mixed` via row materialization (exactly
    /// what `from_values` over the materialized rows would produce).
    pub fn concat(parts: &[&Column]) -> Column {
        let total: usize = parts.iter().map(|c| c.len()).sum();
        let same_variant = |a: &ColumnData, b: &ColumnData| {
            matches!(
                (a, b),
                (ColumnData::Int(_), ColumnData::Int(_))
                    | (ColumnData::Float(_), ColumnData::Float(_))
                    | (ColumnData::Bool(_), ColumnData::Bool(_))
                    | (ColumnData::Str(_), ColumnData::Str(_))
            )
        };
        let homogeneous = parts
            .split_first()
            .map(|(first, rest)| {
                !matches!(first.data, ColumnData::Mixed(_))
                    && rest.iter().all(|c| same_variant(&first.data, &c.data))
            })
            .unwrap_or(false);
        if !homogeneous {
            let mut values = Vec::with_capacity(total);
            for part in parts {
                for i in 0..part.len() {
                    values.push(part.value_at(i));
                }
            }
            return Column::from_values(values);
        }
        let mut validity = Bitmap::all_valid(total);
        let mut at = 0usize;
        for part in parts {
            for i in 0..part.len() {
                if !part.validity.get(i) {
                    validity.set(at + i, false);
                }
            }
            at += part.len();
        }
        macro_rules! splice {
            ($variant:ident) => {{
                let mut out = Vec::with_capacity(total);
                for part in parts {
                    if let ColumnData::$variant(v) = &part.data {
                        out.extend(v.iter().cloned());
                    }
                }
                ColumnData::$variant(out)
            }};
        }
        let data = match &parts[0].data {
            ColumnData::Int(_) => splice!(Int),
            ColumnData::Float(_) => splice!(Float),
            ColumnData::Bool(_) => splice!(Bool),
            ColumnData::Str(_) => splice!(Str),
            ColumnData::Mixed(_) => unreachable!("mixed parts take the materializing path"),
        };
        Column { data, validity }
    }
}

/// Incremental single-pass column construction for
/// [`ColumnarBatch::from_rows`].  Starts typeless, specializes to typed
/// storage at the first non-NULL cell, and demotes to [`ColumnData::Mixed`]
/// if a differently typed cell appears later — so the whole pivot is one
/// sweep over the row data with no intermediate `Value` materialization.
struct ColumnBuilder {
    data: BuildData,
    validity: Bitmap,
    len: usize,
    cap: usize,
}

enum BuildData {
    /// Only NULLs so far.
    Untyped,
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<String>),
    Mixed(Vec<Value>),
}

impl ColumnBuilder {
    fn new(capacity: usize) -> ColumnBuilder {
        ColumnBuilder {
            data: BuildData::Untyped,
            validity: Bitmap::all_valid(capacity),
            len: 0,
            cap: capacity,
        }
    }

    #[inline]
    fn push(&mut self, i: usize, v: Option<&Value>) {
        match (&mut self.data, v) {
            (BuildData::Int(out), Some(Value::Int(x))) => out.push(*x),
            (BuildData::Float(out), Some(Value::Float(x))) => out.push(*x),
            (BuildData::Bool(out), Some(Value::Bool(x))) => out.push(*x),
            (BuildData::Str(out), Some(Value::Str(s))) => out.push(s.clone()),
            (BuildData::Mixed(out), v) => out.push(v.cloned().unwrap_or(Value::Null)),
            (_, None | Some(Value::Null)) => {
                // NULL cell (or a ragged short row): placeholder in whatever
                // storage we have; Untyped tracks the run via `len` alone.
                self.validity.set(i, false);
                match &mut self.data {
                    BuildData::Untyped => {}
                    BuildData::Int(out) => out.push(0),
                    BuildData::Float(out) => out.push(0.0),
                    BuildData::Bool(out) => out.push(false),
                    BuildData::Str(out) => out.push(String::new()),
                    BuildData::Mixed(_) => unreachable!("handled above"),
                }
            }
            (BuildData::Untyped, Some(v)) => {
                // First non-NULL cell: specialize, backfilling the NULL run.
                self.data = match v {
                    Value::Int(x) => BuildData::Int(backfill(self.cap, self.len, 0, *x)),
                    Value::Float(x) => BuildData::Float(backfill(self.cap, self.len, 0.0, *x)),
                    Value::Bool(x) => BuildData::Bool(backfill(self.cap, self.len, false, *x)),
                    Value::Str(s) => {
                        BuildData::Str(backfill(self.cap, self.len, String::new(), s.clone()))
                    }
                    Value::Null => unreachable!("handled above"),
                };
            }
            (_, Some(v)) => {
                // Type conflict: demote everything built so far to Mixed.
                self.data = BuildData::Mixed(self.demoted());
                if let BuildData::Mixed(out) = &mut self.data {
                    out.push(v.clone());
                }
            }
        }
        self.len += 1;
    }

    /// The cells built so far, re-materialized as `Value`s (for demotion).
    fn demoted(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len + 1);
        for i in 0..self.len {
            out.push(if !self.validity.get(i) {
                Value::Null
            } else {
                match &self.data {
                    BuildData::Int(v) => Value::Int(v[i]),
                    BuildData::Float(v) => Value::Float(v[i]),
                    BuildData::Bool(v) => Value::Bool(v[i]),
                    BuildData::Str(v) => Value::Str(v[i].clone()),
                    BuildData::Untyped | BuildData::Mixed(_) => {
                        unreachable!("never demoted from these states")
                    }
                }
            });
        }
        out
    }

    fn finish(self) -> Column {
        match self.data {
            BuildData::Untyped => Column::nulls(self.len),
            BuildData::Int(v) => Column { data: ColumnData::Int(v), validity: self.validity },
            BuildData::Float(v) => Column { data: ColumnData::Float(v), validity: self.validity },
            BuildData::Bool(v) => Column { data: ColumnData::Bool(v), validity: self.validity },
            BuildData::Str(v) => Column { data: ColumnData::Str(v), validity: self.validity },
            // Mixed columns carry NULLs in the values themselves.
            BuildData::Mixed(v) => {
                Column { data: ColumnData::Mixed(v), validity: Bitmap::all_valid(self.len) }
            }
        }
    }
}

fn backfill<T: Clone>(cap: usize, nulls: usize, default: T, first: T) -> Vec<T> {
    let mut out = Vec::with_capacity(cap);
    out.resize(nulls, default);
    out.push(first);
    out
}

/// A column-major batch of rows.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnarBatch {
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnarBatch {
    /// Pivot row-major tuples into columns.  Ragged inputs widen to the
    /// longest row, with missing trailing positions reading as NULL — the
    /// same out-of-range behavior as `Tuple::get`.
    ///
    /// This is the vectorized path's entry toll, so it avoids materializing
    /// intermediate `Value`s: each column is typed by a borrow-only
    /// discriminant scan and then filled in one pass, cloning only what the
    /// typed storage must own (string bytes; `Mixed` columns).
    pub fn from_rows(rows: &[Tuple]) -> ColumnarBatch {
        Self::pivot(rows)
    }

    /// [`from_rows`](Self::from_rows) over borrowed rows: a scan pivots the
    /// tuples the local store holds in place, copying none of them first.
    pub fn from_row_refs(rows: &[&Tuple]) -> ColumnarBatch {
        Self::pivot(rows)
    }

    fn pivot<T: Borrow<Tuple>>(rows: &[T]) -> ColumnarBatch {
        let width = rows.iter().map(|t| t.borrow().arity()).max().unwrap_or(0);
        let n = rows.len();
        let mut builders: Vec<ColumnBuilder> = (0..width).map(|_| ColumnBuilder::new(n)).collect();
        // One pass over the row data: every tuple's cell vector is touched
        // exactly once, with each cell dispatched to its column's builder.
        for (i, t) in rows.iter().enumerate() {
            let vals = t.borrow().values();
            for (c, b) in builders.iter_mut().enumerate() {
                b.push(i, vals.get(c));
            }
        }
        ColumnarBatch { columns: builders.into_iter().map(|b| b.finish()).collect(), rows: n }
    }

    /// Assemble a batch directly from columns (all the same length).  The
    /// vectorized join probe builds its cross-product output this way —
    /// gathered columns side by side, no intermediate row materialization.
    pub fn from_columns(columns: Vec<Column>) -> ColumnarBatch {
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        debug_assert!(columns.iter().all(|c| c.len() == rows), "ragged columns");
        ColumnarBatch { columns, rows }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column `i`, if the batch is that wide.  Kernels treat a missing
    /// column as all-NULL (mirroring `Tuple::get`).
    pub fn column(&self, i: usize) -> Option<&Column> {
        self.columns.get(i)
    }

    /// The identity selection vector `[0, rows)`.
    pub fn full_selection(&self) -> Vec<u32> {
        (0..self.rows as u32).collect()
    }

    /// Materialize row `i` back into a tuple.
    pub fn row(&self, i: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value_at(i)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::all_valid(70);
        assert_eq!(b.len(), 70);
        assert_eq!(b.count_valid(), 70);
        assert!(b.all_are_valid());
        b.set(65, false);
        assert!(!b.get(65));
        assert!(b.get(64));
        assert_eq!(b.count_valid(), 69);
        assert!(!b.all_are_valid());
        assert!(!b.get(1000), "out of range reads as NULL");
        let n = Bitmap::all_null(3);
        assert_eq!(n.count_valid(), 0);
        assert!(!Bitmap::all_valid(0).get(0));
    }

    #[test]
    fn typed_column_construction() {
        let c = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert!(matches!(c.data, ColumnData::Int(_)));
        assert_eq!(c.value_at(0), Value::Int(1));
        assert_eq!(c.value_at(1), Value::Null);
        assert!(!c.is_valid(1));

        let s = Column::from_values(vec![Value::str("a"), Value::str("b")]);
        assert!(matches!(s.data, ColumnData::Str(_)));
        assert_eq!(s.value_at(1), Value::str("b"));

        let m = Column::from_values(vec![Value::Int(1), Value::str("x")]);
        assert!(matches!(m.data, ColumnData::Mixed(_)));
        assert_eq!(m.value_at(1), Value::str("x"));

        let n = Column::from_values(vec![Value::Null, Value::Null]);
        assert_eq!(n.value_at(0), Value::Null);
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn batch_round_trip() {
        let rows = vec![
            Tuple::new(vec![Value::str("h1"), Value::Int(1), Value::Float(0.5)]),
            Tuple::new(vec![Value::str("h2"), Value::Null, Value::Float(1.5)]),
            Tuple::new(vec![Value::str("h3"), Value::Int(3)]),
        ];
        let batch = ColumnarBatch::from_rows(&rows);
        assert_eq!(batch.num_rows(), 3);
        assert_eq!(batch.num_columns(), 3);
        assert_eq!(batch.row(0), rows[0]);
        assert_eq!(batch.row(1), rows[1]);
        // The ragged third row widens with NULL, as Tuple::get would read it.
        assert_eq!(batch.row(2).get(2), &Value::Null);
        assert_eq!(batch.full_selection(), vec![0, 1, 2]);
        let refs: Vec<&Tuple> = rows.iter().collect();
        assert_eq!(ColumnarBatch::from_row_refs(&refs), batch, "borrowed rows pivot alike");

        let empty = ColumnarBatch::from_rows(&[]);
        assert_eq!(empty.num_rows(), 0);
        assert_eq!(empty.num_columns(), 0);
    }
}
