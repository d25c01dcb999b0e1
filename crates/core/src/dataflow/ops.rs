//! Local relational operators.
//!
//! These are the building blocks each PIER node runs over its local data:
//! grouped aggregation (producing *mergeable partial state*, see
//! [`crate::aggregate`]) and the multi-key row ordering behind `ORDER BY …
//! LIMIT` queries like the paper's Table 1.  Selection and projection are
//! plain [`Expr::matches`] / [`Tuple::project`] calls, or compiled kernels
//! over columnar batches.

use crate::aggregate::AggState;
use crate::column::{Column, ColumnarBatch};
use crate::expr::Expr;
use crate::kernel::Kernel;
use crate::plan::{AggExpr, SortKey};
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The key identifying a group (the evaluated GROUP BY expressions).
pub type GroupKey = Vec<Value>;

/// A group-by key or aggregate argument resolved against a batch.
///
/// Plain column references borrow the batch column and index it through the
/// selection vector, avoiding a gathered copy per batch; anything computed
/// evaluates densely once (position `j` is then row `j` of the result).
enum EvalCol<'a> {
    /// Borrowed batch column; dense position `j` maps to row `sel[j]`.
    Batch { col: &'a Column, sel: &'a [u32] },
    /// Dense kernel output aligned with the selection.
    Dense(Column),
}

impl<'a> EvalCol<'a> {
    fn resolve(k: &Kernel, batch: &'a ColumnarBatch, sel: &'a [u32]) -> EvalCol<'a> {
        if let Kernel::Column(i) = k {
            if let Some(col) = batch.column(*i) {
                return EvalCol::Batch { col, sel };
            }
        }
        EvalCol::Dense(k.eval(batch, sel))
    }

    fn value_at(&self, j: usize) -> Value {
        match self {
            EvalCol::Batch { col, sel } => col.value_at(sel[j] as usize),
            EvalCol::Dense(c) => c.value_at(j),
        }
    }
}

/// Grouped aggregation producing mergeable partial states.
///
/// The same structure is used in three places: at leaf nodes (absorbing local
/// tuples), at interior nodes of the aggregation tree (merging partial states
/// from children), and at the query origin (final merge before finalization).
///
/// Groups are kept in key order (`Value`'s total order), so
/// [`finalize`](Self::finalize), [`take_partials`](Self::take_partials) and
/// [`partials`](Self::partials) emit them in that order, whatever order rows
/// and partials arrived in.
#[derive(Clone, Debug)]
pub struct GroupAggregator {
    group_exprs: Vec<Expr>,
    aggs: Vec<AggExpr>,
    groups: BTreeMap<GroupKey, Vec<AggState>>,
    /// Compiled kernels for the grouping expressions / aggregate arguments,
    /// used by [`GroupAggregator::update_batch`].
    group_kernels: Vec<Kernel>,
    arg_kernels: Vec<Option<Kernel>>,
}

/// Fresh partial states, one per aggregate.
fn init_states(aggs: &[AggExpr]) -> Vec<AggState> {
    aggs.iter().map(|a| a.func.init()).collect()
}

/// The value `COUNT(*)` folds for every row.
const COUNT_STAR: Value = Value::Int(1);

impl GroupAggregator {
    /// Construct for the given grouping and aggregate expressions.
    pub fn new(group_exprs: Vec<Expr>, aggs: Vec<AggExpr>) -> Self {
        let group_kernels = Kernel::compile_all(&group_exprs);
        let arg_kernels = aggs.iter().map(|a| a.arg.as_ref().map(Kernel::compile)).collect();
        GroupAggregator { group_exprs, aggs, groups: BTreeMap::new(), group_kernels, arg_kernels }
    }

    /// Absorb one input tuple.
    pub fn update(&mut self, tuple: &Tuple) {
        let key: GroupKey = self.group_exprs.iter().map(|e| e.eval(tuple)).collect();
        let states = self.groups.entry(key).or_insert_with(|| init_states(&self.aggs));
        for (state, spec) in states.iter_mut().zip(&self.aggs) {
            match &spec.arg {
                Some(e) => state.update(&e.eval(tuple)),
                None => state.update(&COUNT_STAR),
            }
        }
    }

    /// Absorb `sel` rows of a columnar batch — the vectorized equivalent of
    /// calling [`GroupAggregator::update`] per selected row, with identical
    /// results: every row folds into its group's states through
    /// `AggState::update`, in row order, so even float sums are bit-equal.
    pub fn update_batch(&mut self, batch: &ColumnarBatch, sel: &[u32]) {
        // Plain column references — the common shape of GROUP BY keys and
        // aggregate arguments — borrow the batch column in place (dense
        // position `j` maps through `sel`); computed expressions evaluate
        // densely once per batch.
        let gcols: Vec<EvalCol<'_>> =
            self.group_kernels.iter().map(|k| EvalCol::resolve(k, batch, sel)).collect();
        let acols: Vec<Option<EvalCol<'_>>> = self
            .arg_kernels
            .iter()
            .map(|k| k.as_ref().map(|k| EvalCol::resolve(k, batch, sel)))
            .collect();
        let mut key: GroupKey = Vec::with_capacity(gcols.len());
        for j in 0..sel.len() {
            key.clear();
            key.extend(gcols.iter().map(|c| c.value_at(j)));
            let states = match self.groups.get_mut(key.as_slice()) {
                Some(states) => states,
                None => self.groups.entry(key.clone()).or_insert_with(|| init_states(&self.aggs)),
            };
            for (state, col) in states.iter_mut().zip(&acols) {
                match col {
                    Some(col) => state.update(&col.value_at(j)),
                    None => state.update(&COUNT_STAR),
                }
            }
        }
    }

    /// Merge a partial state (from another node) for one group.
    pub fn merge_group(&mut self, key: GroupKey, states: &[AggState]) {
        let mine = self.groups.entry(key).or_insert_with(|| init_states(&self.aggs));
        for (m, s) in mine.iter_mut().zip(states) {
            m.merge(s);
        }
    }

    /// Merge every group of another aggregator.
    pub fn merge(&mut self, other: &GroupAggregator) {
        for (key, states) in &other.groups {
            self.merge_group(key.clone(), states);
        }
    }

    /// Number of groups currently held.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Is there any state at all?
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Drain into `(group key, partial states)` pairs, in key order — what
    /// gets shipped up the aggregation tree.
    pub fn take_partials(&mut self) -> Vec<(GroupKey, Vec<AggState>)> {
        std::mem::take(&mut self.groups).into_iter().collect()
    }

    /// Snapshot of the partial states without draining, in key order.
    pub fn partials(&self) -> Vec<(GroupKey, Vec<AggState>)> {
        self.groups.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Finalize every group into output tuples, in key order: group columns
    /// then aggregates.  For a global aggregate (no GROUP BY) with no input,
    /// a single row of "empty" aggregates is produced, matching SQL
    /// semantics.
    pub fn finalize(&self) -> Vec<Tuple> {
        if self.groups.is_empty() && self.group_exprs.is_empty() {
            let values: Vec<Value> = self.aggs.iter().map(|a| a.func.init().finalize()).collect();
            return vec![Tuple::new(values)];
        }
        self.groups
            .iter()
            .map(|(key, states)| {
                let mut values = key.clone();
                values.extend(states.iter().map(|s| s.finalize()));
                Tuple::new(values)
            })
            .collect()
    }
}

/// Compare two tuples on a list of sort keys.  Rows that tie on every key
/// compare by their whole value list, so a sort's output — and the rows an
/// `ORDER BY … LIMIT` keeps — depends only on the input multiset, not on
/// arrival order.
pub fn compare_on(a: &Tuple, b: &Tuple, keys: &[SortKey]) -> Ordering {
    for key in keys {
        let ord = a.get(key.column).total_cmp(b.get(key.column));
        let ord = if key.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.values().cmp(b.values())
}

/// Sort tuples on a list of keys, ties broken as [`compare_on`] says.
pub fn sort_tuples(tuples: &mut [Tuple], keys: &[SortKey]) {
    tuples.sort_by(|a, b| compare_on(a, b, keys));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;

    fn row(a: i64, b: i64) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::Int(b)])
    }

    #[test]
    fn group_aggregator_counts_and_sums() {
        let mut agg = GroupAggregator::new(
            vec![Expr::col(0)],
            vec![
                AggExpr { func: AggFunc::Count, arg: None, name: "c".into() },
                AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
            ],
        );
        agg.update(&row(1, 10));
        agg.update(&row(1, 5));
        agg.update(&row(2, 7));
        assert_eq!(agg.group_count(), 2);
        let mut out = agg.finalize();
        out.sort_by(|a, b| a.get(0).total_cmp(b.get(0)));
        assert_eq!(out[0], Tuple::new(vec![Value::Int(1), Value::Int(2), Value::Int(15)]));
        assert_eq!(out[1], Tuple::new(vec![Value::Int(2), Value::Int(1), Value::Int(7)]));
    }

    #[test]
    fn group_aggregator_merge_matches_single_pass() {
        let specs = vec![
            AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
            AggExpr { func: AggFunc::Max, arg: Some(Expr::col(1)), name: "m".into() },
        ];
        let rows: Vec<Tuple> = (0..50).map(|i| row(i % 5, i)).collect();

        let mut whole = GroupAggregator::new(vec![Expr::col(0)], specs.clone());
        for r in &rows {
            whole.update(r);
        }

        let mut left = GroupAggregator::new(vec![Expr::col(0)], specs.clone());
        let mut right = GroupAggregator::new(vec![Expr::col(0)], specs.clone());
        for (i, r) in rows.iter().enumerate() {
            if i % 2 == 0 {
                left.update(r);
            } else {
                right.update(r);
            }
        }
        left.merge(&right);

        let mut a = whole.finalize();
        let mut b = left.finalize();
        let keys = vec![SortKey { column: 0, desc: false }];
        sort_tuples(&mut a, &keys);
        sort_tuples(&mut b, &keys);
        assert_eq!(a, b);
    }

    #[test]
    fn global_aggregate_with_no_rows_yields_one_row() {
        let agg = GroupAggregator::new(
            vec![],
            vec![
                AggExpr { func: AggFunc::Count, arg: None, name: "c".into() },
                AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(0)), name: "s".into() },
            ],
        );
        let out = agg.finalize();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], Tuple::new(vec![Value::Int(0), Value::Null]));
        // But a grouped aggregate with no rows yields no rows.
        let grouped = GroupAggregator::new(vec![Expr::col(0)], vec![]);
        assert!(grouped.finalize().is_empty());
        assert!(grouped.is_empty());
    }

    #[test]
    fn take_partials_drains() {
        let mut agg = GroupAggregator::new(
            vec![Expr::col(0)],
            vec![AggExpr { func: AggFunc::Count, arg: None, name: "c".into() }],
        );
        agg.update(&row(1, 1));
        let partials = agg.take_partials();
        assert_eq!(partials.len(), 1);
        assert!(agg.is_empty());
        assert_eq!(agg.partials().len(), 0);
    }

    #[test]
    fn update_batch_matches_per_row_updates() {
        let specs = vec![
            AggExpr { func: AggFunc::Count, arg: None, name: "c".into() },
            AggExpr { func: AggFunc::Count, arg: Some(Expr::col(1)), name: "cn".into() },
            AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
            AggExpr { func: AggFunc::Avg, arg: Some(Expr::col(2)), name: "a".into() },
            AggExpr { func: AggFunc::Min, arg: Some(Expr::col(1)), name: "mn".into() },
            AggExpr { func: AggFunc::Max, arg: Some(Expr::col(2)), name: "mx".into() },
        ];
        let rows: Vec<Tuple> = (0..60)
            .map(|i| {
                let v1 = if i % 7 == 0 { Value::Null } else { Value::Int((i * 13) % 29 - 14) };
                let v2 = if i % 5 == 0 { Value::Null } else { Value::Float(i as f64 * 0.37) };
                Tuple::new(vec![Value::Int(i % 4), v1, v2])
            })
            .collect();

        let mut scalar = GroupAggregator::new(vec![Expr::col(0)], specs.clone());
        for r in &rows {
            scalar.update(r);
        }

        let mut vectorized = GroupAggregator::new(vec![Expr::col(0)], specs);
        let batch = ColumnarBatch::from_rows(&rows);
        vectorized.update_batch(&batch, &batch.full_selection());

        let keys = vec![SortKey { column: 0, desc: false }];
        let mut a = scalar.finalize();
        let mut b = vectorized.finalize();
        sort_tuples(&mut a, &keys);
        sort_tuples(&mut b, &keys);
        assert_eq!(a, b);

        // A sub-selection must fold only the selected rows.
        let mut sub_scalar = GroupAggregator::new(vec![Expr::col(0)], vec![]);
        let mut sub_vec = GroupAggregator::new(vec![Expr::col(0)], vec![]);
        let sel: Vec<u32> = (0..rows.len() as u32).filter(|j| j % 3 == 0).collect();
        for &j in &sel {
            sub_scalar.update(&rows[j as usize]);
        }
        sub_vec.update_batch(&batch, &sel);
        assert_eq!(sub_scalar.group_count(), sub_vec.group_count());
    }

    #[test]
    fn groups_come_out_in_key_order_whatever_the_arrival_order() {
        let specs = vec![AggExpr { func: AggFunc::Count, arg: None, name: "c".into() }];
        let mut rows: Vec<Tuple> = (0..40).map(|i| row((i * 7) % 13 - 6, i)).collect();
        pier_simnet::DetRng::new(5).shuffle(&mut rows);
        let keys: Vec<GroupKey> = (-6..7).map(|k| vec![Value::Int(k)]).collect();

        let mut by_row = GroupAggregator::new(vec![Expr::col(0)], specs.clone());
        for r in &rows {
            by_row.update(r);
        }
        let finalized: Vec<GroupKey> =
            by_row.finalize().iter().map(|t| t.values()[..1].to_vec()).collect();
        assert_eq!(finalized, keys);

        let batch = ColumnarBatch::from_rows(&rows);
        let mut by_batch = GroupAggregator::new(vec![Expr::col(0)], specs.clone());
        by_batch.update_batch(&batch, &batch.full_selection());
        assert_eq!(by_batch.partials(), by_row.partials());
        let drained: Vec<GroupKey> = by_batch.take_partials().into_iter().map(|(k, _)| k).collect();
        assert_eq!(drained, keys);

        // Partials merged in reverse arrival order land in the same order.
        let mut merged = GroupAggregator::new(vec![Expr::col(0)], specs);
        for (key, states) in by_row.take_partials().into_iter().rev() {
            merged.merge_group(key, &states);
        }
        let merged: Vec<GroupKey> = merged.partials().into_iter().map(|(k, _)| k).collect();
        assert_eq!(merged, keys);
    }

    #[test]
    fn update_batch_groups_numbers_as_value_eq_does() {
        // `-0.0`/`0.0` and two NaN payloads are one group each, in the
        // batch fold exactly as in the row fold.
        let specs = vec![
            AggExpr { func: AggFunc::Count, arg: None, name: "c".into() },
            AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() },
        ];
        let keys = [-0.0, 0.0, f64::NAN, -f64::NAN, 0.1, -0.0];
        let rows: Vec<Tuple> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(vec![Value::Float(k), Value::Float(i as f64 * 0.1)]))
            .collect();
        let mut scalar = GroupAggregator::new(vec![Expr::col(0)], specs.clone());
        for r in &rows {
            scalar.update(r);
        }
        let batch = ColumnarBatch::from_rows(&rows);
        let mut vectorized = GroupAggregator::new(vec![Expr::col(0)], specs);
        vectorized.update_batch(&batch, &batch.full_selection());
        vectorized.update_batch(&batch, &batch.full_selection()[..2]);
        for r in &rows[..2] {
            scalar.update(r);
        }
        assert_eq!(vectorized.group_count(), 3);
        assert_eq!(format!("{:?}", vectorized.finalize()), format!("{:?}", scalar.finalize()));
    }

    #[test]
    fn sort_ties_break_on_the_whole_row() {
        let keys = [SortKey { column: 1, desc: true }];
        let mut a = vec![row(3, 5), row(1, 5), row(2, 9), row(0, 5)];
        let mut b = a.clone();
        b.reverse();
        sort_tuples(&mut a, &keys);
        sort_tuples(&mut b, &keys);
        assert_eq!(a, vec![row(2, 9), row(0, 5), row(1, 5), row(3, 5)]);
        assert_eq!(a, b);
    }

    #[test]
    fn sort_tuples_multiple_keys() {
        let mut rows = vec![row(2, 1), row(1, 2), row(1, 1), row(2, 2)];
        sort_tuples(
            &mut rows,
            &[SortKey { column: 0, desc: false }, SortKey { column: 1, desc: true }],
        );
        assert_eq!(rows, vec![row(1, 2), row(1, 1), row(2, 2), row(2, 1)]);
    }
}
