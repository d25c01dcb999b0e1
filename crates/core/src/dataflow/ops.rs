//! Local relational operators.
//!
//! These are the building blocks each PIER node runs over its local data:
//! grouped aggregation (producing *mergeable partial state*, see
//! [`crate::aggregate`]) and the multi-key row ordering behind `ORDER BY …
//! LIMIT` queries like the paper's Table 1.  Selection and projection are
//! plain [`Expr::matches`] / [`Tuple::project`] calls, or compiled kernels
//! over columnar batches.

use crate::aggregate::AggState;
use crate::column::{Column, ColumnData, ColumnarBatch};
use crate::expr::Expr;
use crate::kernel::Kernel;
use crate::plan::{AggExpr, SortKey};
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;

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

    #[inline]
    fn pregroup_hash(&self, j: usize, seed: u64) -> u64 {
        match self {
            EvalCol::Batch { col, sel } => col.pregroup_hash(sel[j] as usize, seed),
            EvalCol::Dense(c) => c.pregroup_hash(j, seed),
        }
    }

    #[inline]
    fn rows_eq(&self, a: usize, b: usize) -> bool {
        match self {
            EvalCol::Batch { col, sel } => col.rows_eq(sel[a] as usize, sel[b] as usize),
            EvalCol::Dense(c) => c.rows_eq(a, b),
        }
    }

    fn value_at(&self, j: usize) -> Value {
        match self {
            EvalCol::Batch { col, sel } => col.value_at(sel[j] as usize),
            EvalCol::Dense(c) => c.value_at(j),
        }
    }

    /// For an integer column: the raw values, their validity, and the
    /// dense-position-to-row mapping (`None` when positions are row indices
    /// already).  Lets the grouping fast path skip `Value` materialization.
    fn data(&self) -> &ColumnData {
        match self {
            EvalCol::Batch { col, .. } => &col.data,
            EvalCol::Dense(c) => &c.data,
        }
    }

    #[allow(clippy::type_complexity)]
    fn int_view(&self) -> Option<(&[i64], &crate::column::Bitmap, Option<&[u32]>)> {
        let (col, sel) = match self {
            EvalCol::Batch { col, sel } => (*col, Some(*sel)),
            EvalCol::Dense(c) => (c, None),
        };
        match &col.data {
            ColumnData::Int(v) => Some((v, &col.validity, sel)),
            _ => None,
        }
    }
}

/// Grouped aggregation producing mergeable partial states.
///
/// The same structure is used in three places: at leaf nodes (absorbing local
/// tuples), at interior nodes of the aggregation tree (merging partial states
/// from children), and at the query origin (final merge before finalization).
#[derive(Clone, Debug)]
pub struct GroupAggregator {
    group_exprs: Vec<Expr>,
    aggs: Vec<AggExpr>,
    groups: HashMap<GroupKey, Vec<AggState>>,
    /// Compiled kernels for the grouping expressions / aggregate arguments,
    /// used by [`GroupAggregator::update_batch`].
    group_kernels: Vec<Kernel>,
    arg_kernels: Vec<Option<Kernel>>,
}

impl GroupAggregator {
    /// Construct for the given grouping and aggregate expressions.
    pub fn new(group_exprs: Vec<Expr>, aggs: Vec<AggExpr>) -> Self {
        let group_kernels = Kernel::compile_all(&group_exprs);
        let arg_kernels = aggs.iter().map(|a| a.arg.as_ref().map(Kernel::compile)).collect();
        GroupAggregator { group_exprs, aggs, groups: HashMap::new(), group_kernels, arg_kernels }
    }

    /// Absorb one input tuple.
    pub fn update(&mut self, tuple: &Tuple) {
        let key: GroupKey = self.group_exprs.iter().map(|e| e.eval(tuple)).collect();
        let aggs = &self.aggs;
        let states =
            self.groups.entry(key).or_insert_with(|| aggs.iter().map(|a| a.func.init()).collect());
        for (state, spec) in states.iter_mut().zip(aggs) {
            let value = match &spec.arg {
                Some(e) => e.eval(tuple),
                None => Value::Int(1), // COUNT(*)
            };
            state.update(&value);
        }
    }

    /// Absorb `sel` rows of a columnar batch — the vectorized equivalent of
    /// calling [`GroupAggregator::update`] per selected row, with identical
    /// results (per-group fold order is the batch's row order, so even float
    /// sums are bit-equal to the scalar path).
    ///
    /// Rows are pre-grouped *within the batch* first: one hash per row
    /// computed straight off the typed columns, one `GroupKey`
    /// materialization per distinct group, then per-group folds that run
    /// over column slices.  The scalar path pays a key allocation plus a
    /// `HashMap` probe per row; this pays them per group per batch.
    pub fn update_batch(&mut self, batch: &ColumnarBatch, sel: &[u32]) {
        if sel.is_empty() {
            return;
        }
        let n = sel.len();
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

        // Pre-group: assign each dense position a batch-local group id.
        //
        // The common monitoring shape — GROUP BY one integer column drawn
        // from a narrow range (node id, rule id, port) — takes a dense
        // value-indexed map: one array load per row, no hashing.  Everything
        // else falls back to bucketing by `pregroup_hash` with `rows_eq`
        // verification (hash collisions fall through to new groups
        // correctly).  Both paths produce identical first-seen group ids, so
        // fold order — and therefore float summation order — matches the
        // scalar path bit for bit.
        const EMPTY: u32 = u32::MAX;
        let mut reps: Vec<usize> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut group_of: Vec<u32> = vec![0; n];
        let mut assigned = false;
        if let [gc] = &gcols[..] {
            if let Some((v, validity, map)) = gc.int_view() {
                let dense = validity.all_are_valid();
                let at = |j: usize| match map {
                    Some(s) => s[j] as usize,
                    None => j,
                };
                let (mut lo, mut hi) = (i64::MAX, i64::MIN);
                for j in 0..n {
                    let i = at(j);
                    if dense || validity.get(i) {
                        lo = lo.min(v[i]);
                        hi = hi.max(v[i]);
                    }
                }
                // Slot 0 is reserved for NULL keys; cap the map at 4K slots.
                if matches!(hi.checked_sub(lo), Some(w) if w < 4095) {
                    let width = (hi - lo) as usize + 2;
                    let mut dmap: Vec<u32> = vec![EMPTY; width];
                    for (j, g_out) in group_of.iter_mut().enumerate() {
                        let i = at(j);
                        let slot =
                            if dense || validity.get(i) { (v[i] - lo) as usize + 1 } else { 0 };
                        let entry = &mut dmap[slot];
                        let g = if *entry == EMPTY {
                            let g = reps.len() as u32;
                            *entry = g;
                            reps.push(j);
                            counts.push(0);
                            g
                        } else {
                            *entry
                        };
                        *g_out = g;
                        counts[g as usize] += 1;
                    }
                    assigned = true;
                }
            }
        }
        if !assigned {
            let mut cap = 64usize;
            let mut table: Vec<(u64, u32)> = vec![(0, EMPTY); cap];
            let mut ghash: Vec<u64> = Vec::new();
            for (j, g_out) in group_of.iter_mut().enumerate() {
                let mut h = 0xA11E_5EEDu64;
                for c in &gcols {
                    h = c.pregroup_hash(j, h);
                }
                let mask = cap - 1;
                let mut slot = (h as usize) & mask;
                let g = loop {
                    let (th, tg) = table[slot];
                    if tg == EMPTY {
                        let g = reps.len() as u32;
                        table[slot] = (h, g);
                        reps.push(j);
                        ghash.push(h);
                        counts.push(0);
                        break g;
                    }
                    if th == h && gcols.iter().all(|c| c.rows_eq(j, reps[tg as usize])) {
                        break tg;
                    }
                    slot = (slot + 1) & mask;
                };
                *g_out = g;
                counts[g as usize] += 1;
                if reps.len() * 2 >= cap {
                    // Keep the probe table at most half full: rebuild
                    // double-sized from the per-group hashes.
                    cap *= 2;
                    table = vec![(0, EMPTY); cap];
                    let mask = cap - 1;
                    for (g, &h) in ghash.iter().enumerate() {
                        let mut slot = (h as usize) & mask;
                        while table[slot].1 != EMPTY {
                            slot = (slot + 1) & mask;
                        }
                        table[slot] = (h, g as u32);
                    }
                }
            }
        }
        let ngroups = reps.len();

        // Typed single-pass fold: when every aggregate maps onto a typed
        // accumulator (the numeric COUNT/SUM/AVG/MIN/MAX shapes), scatter
        // each argument column into per-group accumulator arrays indexed by
        // `group_of` — no counting sort, no per-group dispatch.  SUM/AVG
        // accumulators are seeded from the carried state, so the f64
        // additions continue in encounter order and stay bit-identical to
        // the scalar fold.
        if let Some(mut accs) = plan_batch_accs(&self.aggs, &acols, ngroups) {
            let keys: Vec<GroupKey> =
                (0..ngroups).map(|g| gcols.iter().map(|c| c.value_at(reps[g])).collect()).collect();
            let aggs = &self.aggs;
            for (g, key) in keys.iter().enumerate() {
                let states = self
                    .groups
                    .entry(key.clone())
                    .or_insert_with(|| aggs.iter().map(|a| a.func.init()).collect());
                for (acc, state) in accs.iter_mut().zip(states.iter()) {
                    acc.seed(g, state);
                }
            }
            for (acc, col) in accs.iter_mut().zip(&acols) {
                if let Some(col) = col {
                    scatter_column(acc, col, &group_of);
                }
            }
            for (g, key) in keys.iter().enumerate() {
                let states = self.groups.get_mut(key).expect("group entered above");
                for (acc, state) in accs.iter().zip(states.iter_mut()) {
                    acc.write_back(g, state, &counts);
                }
            }
            return;
        }

        let mut offsets: Vec<u32> = Vec::with_capacity(ngroups + 1);
        offsets.push(0);
        let mut acc = 0u32;
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..ngroups].to_vec();
        let mut members = vec![0u32; n];
        for (j, &g) in group_of.iter().enumerate() {
            let slot = &mut cursor[g as usize];
            members[*slot as usize] = j as u32;
            *slot += 1;
        }

        let aggs = &self.aggs;
        for g in 0..ngroups {
            let rows = &members[offsets[g] as usize..offsets[g + 1] as usize];
            let key: GroupKey = gcols.iter().map(|c| c.value_at(reps[g])).collect();
            let states = self
                .groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(|a| a.func.init()).collect());
            for (state, col) in states.iter_mut().zip(&acols) {
                match col {
                    Some(col) => fold_column(state, col, rows),
                    None => {
                        // COUNT(*)-style: every row contributes `Int(1)`.
                        if let AggState::Count { count } = state {
                            *count += rows.len() as u64;
                        } else {
                            for _ in rows {
                                state.update(&Value::Int(1));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Merge a partial state (from another node) for one group.
    pub fn merge_group(&mut self, key: GroupKey, states: &[AggState]) {
        let aggs = &self.aggs;
        let mine =
            self.groups.entry(key).or_insert_with(|| aggs.iter().map(|a| a.func.init()).collect());
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

    /// Drain into `(group key, partial states)` pairs — what gets shipped up
    /// the aggregation tree.
    pub fn take_partials(&mut self) -> Vec<(GroupKey, Vec<AggState>)> {
        self.groups.drain().collect()
    }

    /// Snapshot of the partial states without draining.
    pub fn partials(&self) -> Vec<(GroupKey, Vec<AggState>)> {
        self.groups.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Finalize every group into output tuples: group columns then aggregates.
    /// For a global aggregate (no GROUP BY) with no input, a single row of
    /// "empty" aggregates is produced, matching SQL semantics.
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

/// Per-group typed accumulators for the single-pass batch fold.  One variant
/// per supported (aggregate, column type) shape; `plan_batch_accs` returns
/// `None` — falling back to the sort-and-fold path — if any aggregate in the
/// plan doesn't fit.
enum BatchAcc {
    /// `COUNT(*)`: the pre-group phase already counted every group.
    CountStar,
    /// `COUNT(expr)`: non-null inputs per group.
    Count(Vec<u64>),
    /// `SUM(expr)`: running sums seeded from the carried state, plus a
    /// seen-this-batch flag; `float` records whether the column was Float
    /// (which clears the state's `integral` marker).
    Sum {
        sums: Vec<f64>,
        seen: Vec<bool>,
        float: bool,
    },
    /// `AVG(expr)`: running sums (seeded) and this batch's non-null counts.
    Avg {
        sums: Vec<f64>,
        counts: Vec<u64>,
    },
    MinInt(Vec<Option<i64>>),
    MinFloat(Vec<Option<f64>>),
    MaxInt(Vec<Option<i64>>),
    MaxFloat(Vec<Option<f64>>),
}

fn plan_batch_accs(
    aggs: &[AggExpr],
    acols: &[Option<EvalCol<'_>>],
    ngroups: usize,
) -> Option<Vec<BatchAcc>> {
    use crate::aggregate::AggFunc;
    aggs.iter()
        .zip(acols)
        .map(|(a, acol)| {
            let data = acol.as_ref().map(|c| c.data());
            match (a.func, data) {
                (AggFunc::Count, None) => Some(BatchAcc::CountStar),
                (AggFunc::Count, Some(_)) => Some(BatchAcc::Count(vec![0; ngroups])),
                (AggFunc::Sum, Some(d @ (ColumnData::Int(_) | ColumnData::Float(_)))) => {
                    Some(BatchAcc::Sum {
                        sums: vec![0.0; ngroups],
                        seen: vec![false; ngroups],
                        float: matches!(d, ColumnData::Float(_)),
                    })
                }
                (AggFunc::Avg, Some(ColumnData::Int(_) | ColumnData::Float(_))) => {
                    Some(BatchAcc::Avg { sums: vec![0.0; ngroups], counts: vec![0; ngroups] })
                }
                (AggFunc::Min, Some(ColumnData::Int(_))) => {
                    Some(BatchAcc::MinInt(vec![None; ngroups]))
                }
                (AggFunc::Min, Some(ColumnData::Float(_))) => {
                    Some(BatchAcc::MinFloat(vec![None; ngroups]))
                }
                (AggFunc::Max, Some(ColumnData::Int(_))) => {
                    Some(BatchAcc::MaxInt(vec![None; ngroups]))
                }
                (AggFunc::Max, Some(ColumnData::Float(_))) => {
                    Some(BatchAcc::MaxFloat(vec![None; ngroups]))
                }
                _ => None,
            }
        })
        .collect()
}

impl BatchAcc {
    /// Copy the carried running sum into this batch's accumulator so the
    /// scatter continues the exact f64 addition sequence of the scalar fold.
    fn seed(&mut self, g: usize, state: &AggState) {
        match (self, state) {
            (BatchAcc::Sum { sums, .. }, AggState::Sum { sum, .. }) => sums[g] = *sum,
            (BatchAcc::Avg { sums, .. }, AggState::Avg { sum, .. }) => sums[g] = *sum,
            _ => {}
        }
    }

    /// Merge this batch's accumulator for group `g` back into the carried
    /// state, with the same tie and NULL rules as `AggState::update`.
    fn write_back(&self, g: usize, state: &mut AggState, group_sizes: &[u32]) {
        match (self, state) {
            (BatchAcc::CountStar, AggState::Count { count }) => {
                *count += u64::from(group_sizes[g]);
            }
            (BatchAcc::Count(c), AggState::Count { count }) => *count += c[g],
            (BatchAcc::Sum { sums, seen, float }, AggState::Sum { sum, any, integral }) => {
                if seen[g] {
                    *sum = sums[g];
                    *any = true;
                    if *float {
                        *integral = false;
                    }
                }
            }
            (BatchAcc::Avg { sums, counts }, AggState::Avg { sum, count }) => {
                if counts[g] > 0 {
                    *sum = sums[g];
                    *count += counts[g];
                }
            }
            (BatchAcc::MinInt(best), AggState::Min { min }) => {
                if let Some(b) = best[g] {
                    fold_extremum(min, Value::Int(b), Ordering::Less);
                }
            }
            (BatchAcc::MinFloat(best), AggState::Min { min }) => {
                if let Some(b) = best[g] {
                    fold_extremum(min, Value::Float(b), Ordering::Less);
                }
            }
            (BatchAcc::MaxInt(best), AggState::Max { max }) => {
                if let Some(b) = best[g] {
                    fold_extremum(max, Value::Int(b), Ordering::Greater);
                }
            }
            (BatchAcc::MaxFloat(best), AggState::Max { max }) => {
                if let Some(b) = best[g] {
                    fold_extremum(max, Value::Float(b), Ordering::Greater);
                }
            }
            _ => debug_assert!(false, "batch accumulator / state shape mismatch"),
        }
    }
}

/// Scatter one argument column into its per-group accumulators: a single
/// linear pass over the selection, `acc[group_of[j]] ⊕= column[j]`.
fn scatter_column(acc: &mut BatchAcc, ecol: &EvalCol<'_>, group_of: &[u32]) {
    match ecol {
        EvalCol::Batch { col, sel } => scatter_rows(acc, col, group_of, |j| sel[j] as usize),
        EvalCol::Dense(col) => scatter_rows(acc, col, group_of, |j| j),
    }
}

fn scatter_rows(acc: &mut BatchAcc, col: &Column, group_of: &[u32], idx: impl Fn(usize) -> usize) {
    let dense = col.validity.all_are_valid();
    match (acc, &col.data) {
        (BatchAcc::CountStar, _) => {}
        (BatchAcc::Count(c), _) => {
            for (j, &g) in group_of.iter().enumerate() {
                if col.is_valid(idx(j)) {
                    c[g as usize] += 1;
                }
            }
        }
        (BatchAcc::Sum { sums, seen, .. }, ColumnData::Int(v)) => {
            for (j, &g) in group_of.iter().enumerate() {
                let i = idx(j);
                if dense || col.validity.get(i) {
                    sums[g as usize] += v[i] as f64;
                    seen[g as usize] = true;
                }
            }
        }
        (BatchAcc::Sum { sums, seen, .. }, ColumnData::Float(v)) => {
            for (j, &g) in group_of.iter().enumerate() {
                let i = idx(j);
                if dense || col.validity.get(i) {
                    sums[g as usize] += v[i];
                    seen[g as usize] = true;
                }
            }
        }
        (BatchAcc::Avg { sums, counts }, ColumnData::Int(v)) => {
            for (j, &g) in group_of.iter().enumerate() {
                let i = idx(j);
                if dense || col.validity.get(i) {
                    sums[g as usize] += v[i] as f64;
                    counts[g as usize] += 1;
                }
            }
        }
        (BatchAcc::Avg { sums, counts }, ColumnData::Float(v)) => {
            for (j, &g) in group_of.iter().enumerate() {
                let i = idx(j);
                if dense || col.validity.get(i) {
                    sums[g as usize] += v[i];
                    counts[g as usize] += 1;
                }
            }
        }
        (BatchAcc::MinInt(best), ColumnData::Int(v)) => {
            for (j, &g) in group_of.iter().enumerate() {
                let i = idx(j);
                let b = &mut best[g as usize];
                if (dense || col.validity.get(i)) && b.is_none_or(|b| v[i] < b) {
                    *b = Some(v[i]);
                }
            }
        }
        (BatchAcc::MinFloat(best), ColumnData::Float(v)) => {
            for (j, &g) in group_of.iter().enumerate() {
                let i = idx(j);
                let b = &mut best[g as usize];
                if (dense || col.validity.get(i))
                    && b.is_none_or(|x| v[i].total_cmp(&x) == Ordering::Less)
                {
                    *b = Some(v[i]);
                }
            }
        }
        (BatchAcc::MaxInt(best), ColumnData::Int(v)) => {
            for (j, &g) in group_of.iter().enumerate() {
                let i = idx(j);
                let b = &mut best[g as usize];
                if (dense || col.validity.get(i)) && b.is_none_or(|b| v[i] > b) {
                    *b = Some(v[i]);
                }
            }
        }
        (BatchAcc::MaxFloat(best), ColumnData::Float(v)) => {
            for (j, &g) in group_of.iter().enumerate() {
                let i = idx(j);
                let b = &mut best[g as usize];
                if (dense || col.validity.get(i))
                    && b.is_none_or(|x| v[i].total_cmp(&x) == Ordering::Greater)
                {
                    *b = Some(v[i]);
                }
            }
        }
        _ => debug_assert!(false, "batch accumulator / column shape mismatch"),
    }
}

/// Fold `rows` of a dense argument column into one aggregate state, with
/// typed loops for the numeric states and the scalar `AggState::update` as
/// the general fallback.  The typed loops perform the same f64 additions in
/// the same order as per-row updates, so results are bit-identical.
fn fold_column(state: &mut AggState, ecol: &EvalCol<'_>, rows: &[u32]) {
    match ecol {
        EvalCol::Batch { col, sel } => fold_rows(state, col, rows, |j| sel[j as usize] as usize),
        EvalCol::Dense(col) => fold_rows(state, col, rows, |j| j as usize),
    }
}

fn fold_rows(state: &mut AggState, col: &Column, rows: &[u32], idx: impl Fn(u32) -> usize) {
    let dense = col.validity.all_are_valid();
    match (&mut *state, &col.data) {
        (AggState::Count { count }, _) if dense => *count += rows.len() as u64,
        (AggState::Count { count }, _) => {
            *count += rows.iter().filter(|&&j| col.is_valid(idx(j))).count() as u64;
        }
        (AggState::Sum { sum, any, integral: _ }, ColumnData::Int(v)) => {
            for &j in rows {
                let i = idx(j);
                if dense || col.validity.get(i) {
                    *sum += v[i] as f64;
                    *any = true;
                }
            }
        }
        (AggState::Sum { sum, any, integral }, ColumnData::Float(v)) => {
            for &j in rows {
                let i = idx(j);
                if dense || col.validity.get(i) {
                    *sum += v[i];
                    *any = true;
                    *integral = false;
                }
            }
        }
        (AggState::Avg { sum, count }, ColumnData::Int(v)) => {
            for &j in rows {
                let i = idx(j);
                if dense || col.validity.get(i) {
                    *sum += v[i] as f64;
                    *count += 1;
                }
            }
        }
        (AggState::Avg { sum, count }, ColumnData::Float(v)) => {
            for &j in rows {
                let i = idx(j);
                if dense || col.validity.get(i) {
                    *sum += v[i];
                    *count += 1;
                }
            }
        }
        // MIN/MAX fold to a typed batch-local extremum first, then do one
        // `Value` comparison against the carried state.  Strict comparisons
        // keep the first-seen value on ties, matching the scalar fold.
        (AggState::Min { min }, ColumnData::Int(v)) => {
            let mut best: Option<i64> = None;
            for &j in rows {
                let i = idx(j);
                if (dense || col.validity.get(i)) && best.is_none_or(|b| v[i] < b) {
                    best = Some(v[i]);
                }
            }
            if let Some(b) = best {
                fold_extremum(min, Value::Int(b), Ordering::Less);
            }
        }
        (AggState::Min { min }, ColumnData::Float(v)) => {
            let mut best: Option<f64> = None;
            for &j in rows {
                let i = idx(j);
                if (dense || col.validity.get(i))
                    && best.is_none_or(|b| v[i].total_cmp(&b) == Ordering::Less)
                {
                    best = Some(v[i]);
                }
            }
            if let Some(b) = best {
                fold_extremum(min, Value::Float(b), Ordering::Less);
            }
        }
        (AggState::Max { max }, ColumnData::Int(v)) => {
            let mut best: Option<i64> = None;
            for &j in rows {
                let i = idx(j);
                if (dense || col.validity.get(i)) && best.is_none_or(|b| v[i] > b) {
                    best = Some(v[i]);
                }
            }
            if let Some(b) = best {
                fold_extremum(max, Value::Int(b), Ordering::Greater);
            }
        }
        (AggState::Max { max }, ColumnData::Float(v)) => {
            let mut best: Option<f64> = None;
            for &j in rows {
                let i = idx(j);
                if (dense || col.validity.get(i))
                    && best.is_none_or(|b| v[i].total_cmp(&b) == Ordering::Greater)
                {
                    best = Some(v[i]);
                }
            }
            if let Some(b) = best {
                fold_extremum(max, Value::Float(b), Ordering::Greater);
            }
        }
        _ => {
            for &j in rows {
                state.update(&col.value_at(idx(j)));
            }
        }
    }
}

/// Replace `state` with `candidate` when it is strictly better (`Less` for
/// MIN, `Greater` for MAX) — the same tie-keeps-first rule `AggState::update`
/// applies per value.
fn fold_extremum(state: &mut Option<Value>, candidate: Value, better: Ordering) {
    let replace = match state {
        None => true,
        Some(current) => candidate.total_cmp(current) == better,
    };
    if replace {
        *state = Some(candidate);
    }
}

/// Compare two tuples on a list of sort keys.
pub fn compare_on(a: &Tuple, b: &Tuple, keys: &[SortKey]) -> Ordering {
    for key in keys {
        let ord = a.get(key.column).total_cmp(b.get(key.column));
        let ord = if key.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Sort tuples on a list of keys (stable).
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
    fn sort_tuples_multiple_keys() {
        let mut rows = vec![row(2, 1), row(1, 2), row(1, 1), row(2, 2)];
        sort_tuples(
            &mut rows,
            &[SortKey { column: 0, desc: false }, SortKey { column: 1, desc: true }],
        );
        assert_eq!(rows, vec![row(1, 2), row(1, 1), row(2, 2), row(2, 1)]);
    }
}
