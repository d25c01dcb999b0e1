//! Vectorized expression kernels.
//!
//! An [`Expr`] is compiled **once per plan** into a [`Kernel`] tree; at epoch
//! time each kernel evaluates over a whole [`ColumnarBatch`] and a selection
//! vector, producing one dense output [`Column`] instead of one `Value` per
//! row.  The common shapes of real plans — `column ⟨cmp⟩ literal` filters,
//! `column ⟨arith⟩ column` projections, `AND`/`OR` of boolean masks — run as
//! typed loops over `i64`/`f64`/`&str` slices with no `Value` materialization
//! at all; every other shape falls back to an element-wise loop over the same
//! scalar helpers `Expr::eval` uses (`expr::eval_binary` and friends), so
//! the two paths cannot produce different answers.  The property tests in
//! `tests/columnar_exec.rs` pin that equivalence on randomized batches.

use crate::column::{Bitmap, Column, ColumnData, ColumnarBatch};
use crate::expr::{self, BinaryOp, Expr, ScalarFunc, UnaryOp};
use crate::value::Value;
use std::cmp::Ordering;

/// A compiled, vectorizable expression.  Structurally mirrors [`Expr`] (the
/// compilation is shape-preserving); the vectorization lives in how each node
/// *evaluates*, not in what it stores.
#[derive(Clone, Debug)]
pub enum Kernel {
    /// Read a batch column.
    Column(usize),
    /// Broadcast a constant.
    Literal(Value),
    /// Binary operator over two sub-kernels.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Kernel>,
        /// Right operand.
        right: Box<Kernel>,
    },
    /// Unary operator.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Kernel>,
    },
    /// Scalar function call.
    Func {
        /// Which function.
        func: ScalarFunc,
        /// Argument.
        arg: Box<Kernel>,
    },
    /// `LIKE` pattern match.
    Like {
        /// The string operand.
        expr: Box<Kernel>,
        /// The pattern.
        pattern: String,
    },
}

/// Three-valued logic element: the truth class of one evaluated value.
#[derive(Clone, Copy, PartialEq)]
enum Truth {
    False,
    True,
    /// Non-NULL, non-boolean (participates in AND/OR as "unknown").
    Other,
    Null,
}

impl Kernel {
    /// Compile an expression.  Cheap (one allocation per node); plans hold on
    /// to the result so the per-epoch hot path never re-walks the `Expr`.
    pub fn compile(e: &Expr) -> Kernel {
        match e {
            Expr::Column(i) => Kernel::Column(*i),
            Expr::Literal(v) => Kernel::Literal(v.clone()),
            Expr::Binary { op, left, right } => Kernel::Binary {
                op: *op,
                left: Box::new(Kernel::compile(left)),
                right: Box::new(Kernel::compile(right)),
            },
            Expr::Unary { op, expr } => {
                Kernel::Unary { op: *op, expr: Box::new(Kernel::compile(expr)) }
            }
            Expr::Func { func, arg } => {
                Kernel::Func { func: *func, arg: Box::new(Kernel::compile(arg)) }
            }
            Expr::Like { expr, pattern } => {
                Kernel::Like { expr: Box::new(Kernel::compile(expr)), pattern: pattern.clone() }
            }
        }
    }

    /// Compile a slice of expressions (projections, group keys, agg args).
    pub fn compile_all(exprs: &[Expr]) -> Vec<Kernel> {
        exprs.iter().map(Kernel::compile).collect()
    }

    /// Evaluate over `sel` rows of `batch`, producing a dense column of
    /// `sel.len()` results (result `j` is the value for row `sel[j]`).
    pub fn eval(&self, batch: &ColumnarBatch, sel: &[u32]) -> Column {
        match self {
            Kernel::Column(i) => match batch.column(*i) {
                Some(col) => col.gather(sel),
                None => Column::nulls(sel.len()),
            },
            Kernel::Literal(v) => broadcast(v, sel.len()),
            Kernel::Binary { op, left, right } => {
                // Fast path: `column ⟨op⟩ literal` (either order) reads the
                // batch column in place — no gather, no clones.
                if let (Kernel::Column(i), Kernel::Literal(v)) = (&**left, &**right) {
                    if let Some(col) = batch.column(*i) {
                        if let Some(out) = col_lit_fast(*op, col, sel, v, false) {
                            return out;
                        }
                    }
                }
                if let (Kernel::Literal(v), Kernel::Column(i)) = (&**left, &**right) {
                    if let Some(col) = batch.column(*i) {
                        if let Some(out) = col_lit_fast(*op, col, sel, v, true) {
                            return out;
                        }
                    }
                }
                let l = left.eval(batch, sel);
                let r = right.eval(batch, sel);
                binary_dense(*op, &l, &r)
            }
            Kernel::Unary { op, expr } => unary_dense(*op, &expr.eval(batch, sel)),
            Kernel::Func { func, arg } => func_dense(*func, &arg.eval(batch, sel)),
            Kernel::Like { expr, pattern } => like_dense(&expr.eval(batch, sel), pattern),
        }
    }

    /// Evaluate as a predicate: the subset of `sel` whose result is boolean
    /// true (the vectorized equivalent of `Expr::matches` per row).
    pub fn filter(&self, batch: &ColumnarBatch, sel: &[u32]) -> Vec<u32> {
        // Fused path: a top-level `column ⟨cmp⟩ literal` predicate — the
        // dominant filter shape — selects straight off the batch column,
        // materializing no boolean mask at all.
        if let Kernel::Binary { op, left, right } = self {
            if is_cmp(*op) {
                let fused = match (&**left, &**right) {
                    (Kernel::Column(i), Kernel::Literal(v)) => Some((*i, v, false)),
                    (Kernel::Literal(v), Kernel::Column(i)) => Some((*i, v, true)),
                    _ => None,
                };
                if let Some((i, lit, flipped)) = fused {
                    if let Some(col) = batch.column(i) {
                        if let Some(out) = fused_cmp_filter(*op, col, sel, lit, flipped) {
                            return out;
                        }
                    }
                }
            }
        }
        let mask = self.eval(batch, sel);
        let mut out = Vec::with_capacity(sel.len());
        match &mask.data {
            ColumnData::Bool(bits) if mask.validity.all_are_valid() => {
                // Branchless compaction: unconditionally store, advance the
                // write cursor by the keep bit (no mispredicted branch per
                // row at mid selectivities).
                out.resize(sel.len(), 0);
                let mut k = 0usize;
                for (j, &row) in sel.iter().enumerate() {
                    out[k] = row;
                    k += bits[j] as usize;
                }
                out.truncate(k);
            }
            ColumnData::Bool(bits) => {
                // Same branchless store; a NULL mask entry rejects the row.
                out.resize(sel.len(), 0);
                let mut k = 0usize;
                for (j, &row) in sel.iter().enumerate() {
                    out[k] = row;
                    k += (bits[j] && mask.validity.get(j)) as usize;
                }
                out.truncate(k);
            }
            ColumnData::Mixed(values) => {
                for (j, &row) in sel.iter().enumerate() {
                    if values[j].is_truthy() {
                        out.push(row);
                    }
                }
            }
            // A non-boolean result is never truthy.
            _ => {}
        }
        out
    }
}

/// A column of `n` copies of a constant.
fn broadcast(v: &Value, n: usize) -> Column {
    match v {
        Value::Null => Column::nulls(n),
        Value::Int(x) => {
            Column { data: ColumnData::Int(vec![*x; n]), validity: Bitmap::all_valid(n) }
        }
        Value::Float(x) => {
            Column { data: ColumnData::Float(vec![*x; n]), validity: Bitmap::all_valid(n) }
        }
        Value::Bool(x) => {
            Column { data: ColumnData::Bool(vec![*x; n]), validity: Bitmap::all_valid(n) }
        }
        Value::Str(s) => {
            Column { data: ColumnData::Str(vec![s.clone(); n]), validity: Bitmap::all_valid(n) }
        }
    }
}

fn cmp_holds(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("cmp_holds is only called for comparison operators"),
    }
}

fn is_cmp(op: BinaryOp) -> bool {
    matches!(
        op,
        BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq
    )
}

/// Typed `column ⟨op⟩ literal` loops.  `flipped` means the literal is the
/// *left* operand.  Returns `None` when no typed loop applies (the caller
/// falls back to the generic dense path).
/// Branchless one-pass `sel[j] kept iff col[sel[j]] ⟨op⟩ lit` for numeric
/// comparisons.  A NULL value (or NaN comparison) rejects the row — the same
/// outcome the mask path reaches via its validity bitmap.
fn fused_cmp_filter(
    op: BinaryOp,
    col: &Column,
    sel: &[u32],
    lit: &Value,
    flipped: bool,
) -> Option<Vec<u32>> {
    let test = |ord: Ordering| cmp_holds(op, if flipped { ord.reverse() } else { ord });
    let dense = col.validity.all_are_valid();
    let mut out = vec![0u32; sel.len()];
    let mut k = 0usize;
    match (&col.data, lit) {
        (ColumnData::Int(v), Value::Int(b)) if dense => {
            for &row in sel {
                out[k] = row;
                k += test(v[row as usize].cmp(b)) as usize;
            }
        }
        (ColumnData::Int(v), Value::Int(b)) => {
            for &row in sel {
                let i = row as usize;
                out[k] = row;
                k += (col.validity.get(i) && test(v[i].cmp(b))) as usize;
            }
        }
        (ColumnData::Int(v), Value::Float(b)) => {
            for &row in sel {
                let i = row as usize;
                out[k] = row;
                let keep = (dense || col.validity.get(i))
                    && (v[i] as f64).partial_cmp(b).map(test).unwrap_or(false);
                k += keep as usize;
            }
        }
        (ColumnData::Float(v), Value::Int(b)) => {
            let b = *b as f64;
            for &row in sel {
                let i = row as usize;
                out[k] = row;
                let keep = (dense || col.validity.get(i))
                    && v[i].partial_cmp(&b).map(test).unwrap_or(false);
                k += keep as usize;
            }
        }
        (ColumnData::Float(v), Value::Float(b)) => {
            for &row in sel {
                let i = row as usize;
                out[k] = row;
                let keep = (dense || col.validity.get(i))
                    && v[i].partial_cmp(b).map(test).unwrap_or(false);
                k += keep as usize;
            }
        }
        _ => return None,
    }
    out.truncate(k);
    Some(out)
}

fn col_lit_fast(
    op: BinaryOp,
    col: &Column,
    sel: &[u32],
    lit: &Value,
    flipped: bool,
) -> Option<Column> {
    let n = sel.len();
    if is_cmp(op) {
        // `lit ⟨op⟩ col` is `col ⟨op'⟩ lit` with the ordering reversed.
        let test = |ord: Ordering| cmp_holds(op, if flipped { ord.reverse() } else { ord });
        let mut bits = Vec::with_capacity(n);
        let mut validity = Bitmap::all_valid(n);
        let dense = col.validity.all_are_valid();
        match (&col.data, lit) {
            (ColumnData::Int(v), Value::Int(b)) if dense => {
                bits.extend(sel.iter().map(|&i| test(v[i as usize].cmp(b))));
            }
            (ColumnData::Int(v), Value::Int(b)) => {
                for (j, &i) in sel.iter().enumerate() {
                    if col.validity.get(i as usize) {
                        bits.push(test(v[i as usize].cmp(b)));
                    } else {
                        validity.set(j, false);
                        bits.push(false);
                    }
                }
            }
            (ColumnData::Int(v), Value::Float(b)) => {
                for (j, &i) in sel.iter().enumerate() {
                    match col
                        .validity
                        .get(i as usize)
                        .then(|| (v[i as usize] as f64).partial_cmp(b))
                        .flatten()
                    {
                        Some(ord) => bits.push(test(ord)),
                        None => {
                            validity.set(j, false);
                            bits.push(false);
                        }
                    }
                }
            }
            // NaN comparisons stay NULL even in a fully valid column, so
            // the dense float loops still route `partial_cmp` misses to the
            // validity bitmap.
            (ColumnData::Float(v), Value::Int(b)) if dense => {
                let b = *b as f64;
                for (j, &i) in sel.iter().enumerate() {
                    match v[i as usize].partial_cmp(&b) {
                        Some(ord) => bits.push(test(ord)),
                        None => {
                            validity.set(j, false);
                            bits.push(false);
                        }
                    }
                }
            }
            (ColumnData::Float(v), Value::Float(b)) if dense => {
                for (j, &i) in sel.iter().enumerate() {
                    match v[i as usize].partial_cmp(b) {
                        Some(ord) => bits.push(test(ord)),
                        None => {
                            validity.set(j, false);
                            bits.push(false);
                        }
                    }
                }
            }
            (ColumnData::Float(v), Value::Int(b)) => {
                let b = *b as f64;
                for (j, &i) in sel.iter().enumerate() {
                    match col
                        .validity
                        .get(i as usize)
                        .then(|| v[i as usize].partial_cmp(&b))
                        .flatten()
                    {
                        Some(ord) => bits.push(test(ord)),
                        None => {
                            validity.set(j, false);
                            bits.push(false);
                        }
                    }
                }
            }
            (ColumnData::Float(v), Value::Float(b)) => {
                for (j, &i) in sel.iter().enumerate() {
                    match col
                        .validity
                        .get(i as usize)
                        .then(|| v[i as usize].partial_cmp(b))
                        .flatten()
                    {
                        Some(ord) => bits.push(test(ord)),
                        None => {
                            validity.set(j, false);
                            bits.push(false);
                        }
                    }
                }
            }
            (ColumnData::Str(v), Value::Str(b)) => {
                for (j, &i) in sel.iter().enumerate() {
                    if col.validity.get(i as usize) {
                        bits.push(test(v[i as usize].as_str().cmp(b.as_str())));
                    } else {
                        validity.set(j, false);
                        bits.push(false);
                    }
                }
            }
            (ColumnData::Bool(v), Value::Bool(b)) => {
                for (j, &i) in sel.iter().enumerate() {
                    if col.validity.get(i as usize) {
                        bits.push(test(v[i as usize].cmp(b)));
                    } else {
                        validity.set(j, false);
                        bits.push(false);
                    }
                }
            }
            // Incomparable or mixed: generic path handles it.
            _ => return None,
        }
        return Some(Column { data: ColumnData::Bool(bits), validity });
    }

    // Integer arithmetic against an integer literal — the projection shape
    // plans produce for computed columns.
    if matches!(op, BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod) {
        if let (ColumnData::Int(v), Value::Int(b)) = (&col.data, lit) {
            let mut out = Vec::with_capacity(n);
            let mut validity = Bitmap::all_valid(n);
            for (j, &i) in sel.iter().enumerate() {
                if !col.validity.get(i as usize) {
                    validity.set(j, false);
                    out.push(0);
                    continue;
                }
                let a = v[i as usize];
                let (x, y) = if flipped { (*b, a) } else { (a, *b) };
                let r = match op {
                    BinaryOp::Add => Some(x.wrapping_add(y)),
                    BinaryOp::Sub => Some(x.wrapping_sub(y)),
                    BinaryOp::Mul => Some(x.wrapping_mul(y)),
                    BinaryOp::Div => (y != 0).then(|| x / y),
                    BinaryOp::Mod => (y != 0).then(|| x % y),
                    _ => unreachable!(),
                };
                match r {
                    Some(r) => out.push(r),
                    None => {
                        validity.set(j, false);
                        out.push(0);
                    }
                }
            }
            return Some(Column { data: ColumnData::Int(out), validity });
        }
    }
    None
}

fn truth_at(col: &Column, j: usize) -> Truth {
    if !col.is_valid(j) {
        return Truth::Null;
    }
    match &col.data {
        ColumnData::Bool(v) => {
            if v[j] {
                Truth::True
            } else {
                Truth::False
            }
        }
        ColumnData::Mixed(v) => match &v[j] {
            Value::Bool(true) => Truth::True,
            Value::Bool(false) => Truth::False,
            Value::Null => Truth::Null,
            _ => Truth::Other,
        },
        _ => Truth::Other,
    }
}

/// Generic element-wise binary evaluation over two dense, aligned columns,
/// with typed loops for the numeric cases.
fn binary_dense(op: BinaryOp, l: &Column, r: &Column) -> Column {
    let n = l.len();
    debug_assert_eq!(n, r.len());

    match op {
        BinaryOp::And | BinaryOp::Or => {
            let mut bits = Vec::with_capacity(n);
            let mut validity = Bitmap::all_valid(n);
            for j in 0..n {
                let (a, b) = (truth_at(l, j), truth_at(r, j));
                let out = match op {
                    BinaryOp::And => {
                        if a == Truth::False || b == Truth::False {
                            Some(false)
                        } else if a == Truth::True && b == Truth::True {
                            Some(true)
                        } else {
                            None
                        }
                    }
                    _ => {
                        if a == Truth::True || b == Truth::True {
                            Some(true)
                        } else if a == Truth::False && b == Truth::False {
                            Some(false)
                        } else {
                            None
                        }
                    }
                };
                match out {
                    Some(bit) => bits.push(bit),
                    None => {
                        validity.set(j, false);
                        bits.push(false);
                    }
                }
            }
            return Column { data: ColumnData::Bool(bits), validity };
        }
        _ => {}
    }

    // Int ⟨op⟩ Int: comparison and wrapping arithmetic without Values.
    if let (ColumnData::Int(a), ColumnData::Int(b)) = (&l.data, &r.data) {
        let both = |j: usize| l.validity.get(j) && r.validity.get(j);
        if is_cmp(op) {
            let mut bits = Vec::with_capacity(n);
            let mut validity = Bitmap::all_valid(n);
            for j in 0..n {
                if both(j) {
                    bits.push(cmp_holds(op, a[j].cmp(&b[j])));
                } else {
                    validity.set(j, false);
                    bits.push(false);
                }
            }
            return Column { data: ColumnData::Bool(bits), validity };
        }
        let mut out = Vec::with_capacity(n);
        let mut validity = Bitmap::all_valid(n);
        for j in 0..n {
            let r = if both(j) {
                match op {
                    BinaryOp::Add => Some(a[j].wrapping_add(b[j])),
                    BinaryOp::Sub => Some(a[j].wrapping_sub(b[j])),
                    BinaryOp::Mul => Some(a[j].wrapping_mul(b[j])),
                    BinaryOp::Div => (b[j] != 0).then(|| a[j] / b[j]),
                    BinaryOp::Mod => (b[j] != 0).then(|| a[j] % b[j]),
                    _ => unreachable!(),
                }
            } else {
                None
            };
            match r {
                Some(v) => out.push(v),
                None => {
                    validity.set(j, false);
                    out.push(0);
                }
            }
        }
        return Column { data: ColumnData::Int(out), validity };
    }

    // Everything else: element-wise through the scalar reference semantics.
    let values: Vec<Value> =
        (0..n).map(|j| expr::eval_binary(op, &l.value_at(j), &r.value_at(j))).collect();
    Column::from_values(values)
}

fn unary_dense(op: UnaryOp, c: &Column) -> Column {
    let n = c.len();
    match (op, &c.data) {
        (UnaryOp::Not, ColumnData::Bool(v)) => Column {
            data: ColumnData::Bool(v.iter().map(|b| !b).collect()),
            validity: c.validity.clone(),
        },
        (UnaryOp::IsNull, _) => {
            let bits: Vec<bool> = (0..n).map(|j| !c.is_valid(j)).collect();
            Column { data: ColumnData::Bool(bits), validity: Bitmap::all_valid(n) }
        }
        (UnaryOp::IsNotNull, _) => {
            let bits: Vec<bool> = (0..n).map(|j| c.is_valid(j)).collect();
            Column { data: ColumnData::Bool(bits), validity: Bitmap::all_valid(n) }
        }
        (UnaryOp::Neg, ColumnData::Int(v)) => {
            let out: Vec<i64> = v.iter().map(|&x| x.wrapping_neg()).collect();
            Column { data: ColumnData::Int(out), validity: c.validity.clone() }
        }
        (UnaryOp::Neg, ColumnData::Float(v)) => {
            let out: Vec<f64> = v.iter().map(|&x| -x).collect();
            Column { data: ColumnData::Float(out), validity: c.validity.clone() }
        }
        _ => Column::from_values((0..n).map(|j| expr::eval_unary(op, c.value_at(j))).collect()),
    }
}

fn func_dense(func: ScalarFunc, c: &Column) -> Column {
    let n = c.len();
    match (func, &c.data) {
        (ScalarFunc::Length, ColumnData::Str(v)) => {
            let out: Vec<i64> = v.iter().map(|s| s.len() as i64).collect();
            Column { data: ColumnData::Int(out), validity: c.validity.clone() }
        }
        (ScalarFunc::Abs, ColumnData::Int(v)) => {
            let out: Vec<i64> = v.iter().map(|&x| x.abs()).collect();
            Column { data: ColumnData::Int(out), validity: c.validity.clone() }
        }
        (ScalarFunc::Abs, ColumnData::Float(v)) => {
            let out: Vec<f64> = v.iter().map(|&x| x.abs()).collect();
            Column { data: ColumnData::Float(out), validity: c.validity.clone() }
        }
        _ => Column::from_values((0..n).map(|j| expr::eval_func(func, c.value_at(j))).collect()),
    }
}

fn like_dense(c: &Column, pattern: &str) -> Column {
    let n = c.len();
    if let ColumnData::Str(v) = &c.data {
        // Match in place — no string clones on the hot path.
        let mut bits = Vec::with_capacity(n);
        let mut validity = Bitmap::all_valid(n);
        for (j, s) in v.iter().enumerate() {
            if c.validity.get(j) {
                bits.push(expr::like_match(s, pattern));
            } else {
                validity.set(j, false);
                bits.push(false);
            }
        }
        return Column { data: ColumnData::Bool(bits), validity };
    }
    Column::from_values((0..n).map(|j| expr::eval_like(c.value_at(j), pattern)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn batch() -> (Vec<Tuple>, ColumnarBatch) {
        let rows: Vec<Tuple> = (0..20)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    if i % 5 == 0 { Value::Null } else { Value::Float(i as f64 / 2.0) },
                    Value::str(format!("host-{}", i % 3)),
                ])
            })
            .collect();
        let b = ColumnarBatch::from_rows(&rows);
        (rows, b)
    }

    fn assert_matches_scalar(e: &Expr, rows: &[Tuple], b: &ColumnarBatch) {
        let k = Kernel::compile(e);
        let sel = b.full_selection();
        let out = k.eval(b, &sel);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(out.value_at(i), e.eval(row), "expr {e} row {i}");
        }
    }

    #[test]
    fn kernels_match_scalar_eval() {
        let (rows, b) = batch();
        let exprs = vec![
            Expr::col(0).gt(Expr::lit(7i64)),
            Expr::lit(7i64).gt(Expr::col(0)),
            Expr::col(1).binary(BinaryOp::Mul, Expr::lit(2.0)),
            Expr::col(0).binary(BinaryOp::Mod, Expr::lit(3i64)),
            Expr::col(0).binary(BinaryOp::Div, Expr::lit(0i64)),
            Expr::col(2).eq(Expr::lit("host-1")),
            Expr::col(0).gt(Expr::lit(2i64)).and(Expr::col(1).gt(Expr::lit(3.0))),
            Expr::Unary { op: UnaryOp::IsNull, expr: Box::new(Expr::col(1)) },
            Expr::Like { expr: Box::new(Expr::col(2)), pattern: "host-%".into() },
            Expr::Func { func: ScalarFunc::Length, arg: Box::new(Expr::col(2)) },
            Expr::col(9).eq(Expr::lit(1i64)), // out-of-range column
        ];
        for e in &exprs {
            assert_matches_scalar(e, &rows, &b);
        }
    }

    #[test]
    fn filter_matches_scalar_matches() {
        let (rows, b) = batch();
        let e = Expr::col(0).binary(BinaryOp::Mod, Expr::lit(2i64)).eq(Expr::lit(0i64));
        let k = Kernel::compile(&e);
        let sel = k.filter(&b, &b.full_selection());
        let expected: Vec<u32> =
            rows.iter().enumerate().filter(|(_, r)| e.matches(r)).map(|(i, _)| i as u32).collect();
        assert_eq!(sel, expected);
        // Filtering an already-narrowed selection composes.
        let narrower = Kernel::compile(&Expr::col(0).gt(Expr::lit(10i64))).filter(&b, &sel);
        assert!(narrower.iter().all(|&i| i % 2 == 0 && i > 10));
    }

    #[test]
    fn empty_selection_and_empty_batch() {
        let (_, b) = batch();
        let k = Kernel::compile(&Expr::col(0).gt(Expr::lit(1i64)));
        assert!(k.filter(&b, &[]).is_empty());
        let empty = ColumnarBatch::from_rows(&[]);
        assert!(k.filter(&empty, &empty.full_selection()).is_empty());
        assert_eq!(k.eval(&empty, &[]).len(), 0);
    }
}
