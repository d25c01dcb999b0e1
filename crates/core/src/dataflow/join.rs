//! Symmetric-hash join state: a columnar build side with a keyed chunk
//! index, and a batch probe that produces the joined output through column
//! gathers instead of per-row `Value` clones.
//!
//! The wire format hands us an exploitable invariant: every `JoinTuple` /
//! `JoinBatch` message carries **one** join-key value shared by all its
//! tuples (tuples are rehashed *by* key, so same-destination tuples share
//! the key).  Each arriving message therefore becomes one immutable
//! [`ColumnarBatch`] chunk filed under its key, and a probe is a cross
//! product of the incoming chunk with the other side's stored chunks for
//! that key — expressible as two index gathers (an outer repeat of the
//! incoming rows, an inner tile of the stored rows) plus one vectorized
//! post-filter kernel pass.
//!
//! The output order is fixed: incoming-major over the stored rows in
//! arrival order, the order of a nested loop over per-key row lists.  The
//! tests below (and `tests/join_path.rs`) hold the probe to exactly that
//! loop, so downstream float folds, result batches, and wire accounting
//! are deterministic.

use crate::column::{Column, ColumnarBatch};
use crate::kernel::Kernel;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;

/// Build-side storage for one (query, stage, epoch): both join inputs,
/// chunked per arriving message and indexed by join-key value.
#[derive(Default)]
pub struct JoinBuild {
    sides: [SideBuild; 2],
}

#[derive(Default)]
struct SideBuild {
    /// Arrival-ordered chunks per key value.  `Value` keys use `Value`'s own
    /// hash/equality, so numeric identity (`Int(3)` matching `Float(3.0)`)
    /// and NaN handling follow the rest of the engine exactly.
    chunks: HashMap<Value, Vec<ColumnarBatch>>,
    rows: usize,
}

impl JoinBuild {
    /// Store one arriving message's tuples (already arity-filtered by the
    /// caller) as a chunk of `side` under `key`, returning the pivoted batch
    /// so the caller can immediately probe with it.
    pub fn insert(&mut self, side: usize, key: &Value, rows: &[Tuple]) -> ColumnarBatch {
        let batch = ColumnarBatch::from_rows(rows);
        let store = &mut self.sides[side];
        store.rows += rows.len();
        store.chunks.entry(key.clone()).or_default().push(batch.clone());
        batch
    }

    /// The stored chunks of `side` matching `key`, in arrival order.
    pub fn matches(&self, side: usize, key: &Value) -> &[ColumnarBatch] {
        self.sides[side].chunks.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Total tuples stored on `side` (all keys).
    pub fn stored_rows(&self, side: usize) -> usize {
        self.sides[side].rows
    }
}

/// Cross-join an incoming chunk against the stored chunks of the other side
/// and return the post-filter survivors as materialized tuples, in nested
/// loop order: for each incoming tuple (in batch order), all stored tuples
/// in arrival order.
///
/// `side` is the incoming chunk's side: side-0 rows form the left
/// (leading) columns of the joined row, side-1 rows the right — matching
/// `Tuple::concat`.
///
/// `stored_width` is the expected arity of stored rows; chunks of any other
/// width are skipped — the layout guard against tuples stored under a
/// superseded spec.
pub fn probe_joined(
    incoming: &ColumnarBatch,
    side: u8,
    stored: &[ColumnarBatch],
    stored_width: usize,
    post: Option<&Kernel>,
) -> Vec<Tuple> {
    let stored: Vec<&ColumnarBatch> =
        stored.iter().filter(|c| c.num_columns() == stored_width && c.num_rows() > 0).collect();
    let n = incoming.num_rows();
    let m: usize = stored.iter().map(|c| c.num_rows()).sum();
    if n == 0 || m == 0 {
        return Vec::new();
    }
    // Concatenate the stored chunks once per probe (the joined output has
    // n·m rows, so this O(m) splice never dominates).
    let stored_cols: Vec<Column> = (0..stored_width)
        .map(|c| {
            let parts: Vec<&Column> =
                stored.iter().map(|chunk| chunk.column(c).expect("width checked")).collect();
            Column::concat(&parts)
        })
        .collect();
    // Outer index repeats each incoming row m times; inner tiles the stored
    // rows n times — together they enumerate the cross product
    // incoming-major, exactly like a nested loop.
    let mut outer = Vec::with_capacity(n * m);
    let mut inner = Vec::with_capacity(n * m);
    for i in 0..n as u32 {
        for j in 0..m as u32 {
            outer.push(i);
            inner.push(j);
        }
    }
    let incoming_gathered =
        (0..incoming.num_columns()).map(|c| incoming.column(c).expect("in range").gather(&outer));
    let stored_gathered = stored_cols.iter().map(|c| c.gather(&inner));
    let joined = if side == 0 {
        ColumnarBatch::from_columns(incoming_gathered.chain(stored_gathered).collect())
    } else {
        ColumnarBatch::from_columns(stored_gathered.chain(incoming_gathered).collect())
    };
    let sel = match post {
        Some(kernel) => kernel.filter(&joined, &joined.full_selection()),
        None => joined.full_selection(),
    };
    sel.into_iter().map(|r| joined.row(r as usize)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    /// The row-at-a-time reference: clone + concat + per-row filter.
    fn scalar_probe(
        incoming: &[Tuple],
        side: u8,
        stored: &[Tuple],
        post: Option<&Expr>,
    ) -> Vec<Tuple> {
        let mut out = Vec::new();
        for tup in incoming {
            for m in stored {
                let joined = if side == 0 { tup.concat(m) } else { m.concat(tup) };
                if post.map(|p| p.matches(&joined)).unwrap_or(true) {
                    out.push(joined);
                }
            }
        }
        out
    }

    #[test]
    fn probe_matches_scalar_order_and_filter() {
        let mut build = JoinBuild::default();
        let key = Value::Int(7);
        build.insert(1, &key, &[t(&[7, 10]), t(&[7, 20])]);
        build.insert(1, &key, &[t(&[7, 30])]);
        assert_eq!(build.stored_rows(1), 3);
        let incoming = vec![t(&[1, 7]), t(&[2, 7])];
        let batch = ColumnarBatch::from_rows(&incoming);
        let post = Expr::col(3).gt(Expr::lit(Value::Int(10)));
        let kernel = Kernel::compile(&post);
        let got = probe_joined(&batch, 0, build.matches(1, &key), 2, Some(&kernel));
        let stored = vec![t(&[7, 10]), t(&[7, 20]), t(&[7, 30])];
        let want = scalar_probe(&incoming, 0, &stored, Some(&post));
        assert_eq!(got, want);
        assert!(got.iter().all(|r| r.arity() == 4));
    }

    #[test]
    fn side_one_concatenates_stored_first() {
        let mut build = JoinBuild::default();
        let key = Value::str("k");
        build.insert(0, &key, &[t(&[1, 2])]);
        let incoming = vec![t(&[3, 4])];
        let got =
            probe_joined(&ColumnarBatch::from_rows(&incoming), 1, build.matches(0, &key), 2, None);
        assert_eq!(got, vec![t(&[1, 2, 3, 4])]);
    }

    #[test]
    fn empty_sides_produce_nothing() {
        let build = JoinBuild::default();
        let incoming = ColumnarBatch::from_rows(&[t(&[1])]);
        assert!(probe_joined(&incoming, 0, build.matches(1, &Value::Int(1)), 1, None).is_empty());
        let empty = ColumnarBatch::from_rows(&[]);
        let mut b2 = JoinBuild::default();
        b2.insert(1, &Value::Int(1), &[t(&[1])]);
        assert!(probe_joined(&empty, 0, b2.matches(1, &Value::Int(1)), 1, None).is_empty());
    }
}
