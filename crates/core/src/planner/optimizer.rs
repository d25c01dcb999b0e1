//! Stage 3 — the logical optimizer.
//!
//! Rewrites the initial [`LogicalPlan`] with a small rule framework.  Three
//! rules ship today:
//!
//! * **constant folding** — expression subtrees without column references are
//!   evaluated at plan time; boolean identities (`TRUE AND p`, `FALSE OR p`)
//!   are simplified and filters whose predicate folds to `TRUE` disappear;
//! * **predicate pushdown** — filter conjuncts sink below joins (onto the
//!   input whose columns they reference) and below aggregations (when they
//!   only touch group-by columns), so distributed scans ship fewer tuples;
//! * **projection pruning** — scans feeding a projection or an aggregation
//!   are narrowed to the columns actually used.
//!
//! Rules run in phases: folding and pushdown iterate to a fixpoint, then
//! pruning runs once, then a final folding pass cleans up.  Pruning is
//! deliberately not iterated against pushdown — the two would otherwise
//! oscillate (pushdown re-expands predicates through the pruning projection).

use crate::expr::{BinaryOp, Expr};
use crate::plan::LogicalPlan;
use crate::tuple::{Schema, Tuple};
use crate::value::Value;

/// Result of optimizing a plan: the rewritten tree plus the names of the
/// rules that changed it (in application order, for `EXPLAIN`).
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The rewritten plan.
    pub plan: LogicalPlan,
    /// Rules that fired at least once.
    pub applied: Vec<&'static str>,
}

/// A rewrite rule over logical plans.
pub trait Rule {
    /// Rule name, surfaced by `EXPLAIN`.
    fn name(&self) -> &'static str;
    /// Rewrite the plan, returning `None` when nothing changed.
    fn rewrite(&self, plan: &LogicalPlan) -> Option<LogicalPlan>;
}

/// Rule: evaluate constant expression subtrees.
pub struct ConstantFolding;

impl Rule for ConstantFolding {
    fn name(&self) -> &'static str {
        "constant_folding"
    }

    fn rewrite(&self, plan: &LogicalPlan) -> Option<LogicalPlan> {
        let new = fold_plan(plan);
        (new != *plan).then_some(new)
    }
}

/// Rule: sink filter conjuncts below joins and aggregations.
pub struct PredicatePushdown;

impl Rule for PredicatePushdown {
    fn name(&self) -> &'static str {
        "predicate_pushdown"
    }

    fn rewrite(&self, plan: &LogicalPlan) -> Option<LogicalPlan> {
        let new = push_plan(plan.clone());
        (new != *plan).then_some(new)
    }
}

/// Rule: narrow scans to the columns their consumers actually use.
pub struct ProjectionPruning;

impl Rule for ProjectionPruning {
    fn name(&self) -> &'static str {
        "projection_pruning"
    }

    fn rewrite(&self, plan: &LogicalPlan) -> Option<LogicalPlan> {
        let new = prune_plan(plan.clone());
        (new != *plan).then_some(new)
    }
}

/// The optimizer: a fixed pipeline of rewrite phases.
pub struct Optimizer {
    fixpoint_rules: Vec<Box<dyn Rule>>,
    late_rules: Vec<Box<dyn Rule>>,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer {
            fixpoint_rules: vec![Box::new(ConstantFolding), Box::new(PredicatePushdown)],
            late_rules: vec![Box::new(ProjectionPruning), Box::new(ConstantFolding)],
        }
    }
}

impl Optimizer {
    /// The default rule pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Optimize a plan, recording which rules fired.
    pub fn optimize(&self, plan: LogicalPlan) -> Optimized {
        let mut plan = plan;
        let mut applied = Vec::new();
        // Phase 1: fold + pushdown to a (bounded) fixpoint.
        for _ in 0..4 {
            let mut changed = false;
            for rule in &self.fixpoint_rules {
                if let Some(new) = rule.rewrite(&plan) {
                    plan = new;
                    changed = true;
                    if !applied.contains(&rule.name()) {
                        applied.push(rule.name());
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Phase 2: single pruning + cleanup pass.
        for rule in &self.late_rules {
            if let Some(new) = rule.rewrite(&plan) {
                plan = new;
                if !applied.contains(&rule.name()) {
                    applied.push(rule.name());
                }
            }
        }
        Optimized { plan, applied }
    }
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Fold constant subtrees of one expression.
pub fn fold_expr(e: &Expr) -> Expr {
    match e {
        Expr::Column(_) | Expr::Literal(_) => e.clone(),
        Expr::Binary { op, left, right } => {
            let l = fold_expr(left);
            let r = fold_expr(right);
            // Boolean identities that are valid under SQL three-valued logic.
            match op {
                BinaryOp::And => {
                    if let Expr::Literal(Value::Bool(true)) = l {
                        return r;
                    }
                    if let Expr::Literal(Value::Bool(true)) = r {
                        return l;
                    }
                    // FALSE AND anything (even NULL) is FALSE.
                    if matches!(l, Expr::Literal(Value::Bool(false)))
                        || matches!(r, Expr::Literal(Value::Bool(false)))
                    {
                        return Expr::Literal(Value::Bool(false));
                    }
                }
                BinaryOp::Or => {
                    if let Expr::Literal(Value::Bool(false)) = l {
                        return r;
                    }
                    if let Expr::Literal(Value::Bool(false)) = r {
                        return l;
                    }
                    if matches!(l, Expr::Literal(Value::Bool(true)))
                        || matches!(r, Expr::Literal(Value::Bool(true)))
                    {
                        return Expr::Literal(Value::Bool(true));
                    }
                }
                _ => {}
            }
            let folded = Expr::Binary { op: *op, left: Box::new(l), right: Box::new(r) };
            eval_if_constant(folded)
        }
        Expr::Unary { op, expr } => {
            let folded = Expr::Unary { op: *op, expr: Box::new(fold_expr(expr)) };
            eval_if_constant(folded)
        }
        Expr::Func { func, arg } => {
            let folded = Expr::Func { func: *func, arg: Box::new(fold_expr(arg)) };
            eval_if_constant(folded)
        }
        Expr::Like { expr, pattern } => {
            let folded = Expr::Like { expr: Box::new(fold_expr(expr)), pattern: pattern.clone() };
            eval_if_constant(folded)
        }
    }
}

fn eval_if_constant(e: Expr) -> Expr {
    if e.is_constant() && !matches!(e, Expr::Literal(_)) {
        Expr::Literal(e.eval(&Tuple::new(Vec::new())))
    } else {
        e
    }
}

fn fold_plan(plan: &LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { .. } => plan.clone(),
        LogicalPlan::Filter { input, predicate } => {
            let input = fold_plan(input);
            let predicate = fold_expr(predicate);
            // A tautological filter disappears entirely.
            if matches!(predicate, Expr::Literal(Value::Bool(true))) {
                input
            } else {
                LogicalPlan::Filter { input: Box::new(input), predicate }
            }
        }
        LogicalPlan::Project { input, exprs, schema } => LogicalPlan::Project {
            input: Box::new(fold_plan(input)),
            exprs: exprs.iter().map(fold_expr).collect(),
            schema: schema.clone(),
        },
        LogicalPlan::MultiJoin { inputs, preds } => LogicalPlan::MultiJoin {
            inputs: inputs.iter().map(fold_plan).collect(),
            preds: preds.clone(),
        },
        LogicalPlan::Aggregate { input, group_exprs, aggs, schema } => LogicalPlan::Aggregate {
            input: Box::new(fold_plan(input)),
            group_exprs: group_exprs.iter().map(fold_expr).collect(),
            aggs: aggs
                .iter()
                .map(|a| crate::plan::AggExpr {
                    func: a.func,
                    arg: a.arg.as_ref().map(fold_expr),
                    name: a.name.clone(),
                })
                .collect(),
            schema: schema.clone(),
        },
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(fold_plan(input)), keys: keys.clone() }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(fold_plan(input)), n: *n }
        }
    }
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

/// Split a predicate into its AND-ed conjuncts.
pub fn split_conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary { op: BinaryOp::And, left, right } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

/// AND together a list of conjuncts (`None` when the list is empty).
pub fn conjoin(mut exprs: Vec<Expr>) -> Option<Expr> {
    let first = if exprs.is_empty() { return None } else { exprs.remove(0) };
    Some(exprs.into_iter().fold(first, |acc, e| acc.and(e)))
}

/// Split a predicate over an aggregate's *output* schema into the part that
/// can run before aggregation (rewritten onto the input schema) and the
/// residual.  A conjunct is pushable when it only references group-by
/// columns whose grouping expressions are plain column references.
pub fn split_group_having(predicate: &Expr, group_exprs: &[Expr]) -> (Option<Expr>, Option<Expr>) {
    let mut conjuncts = Vec::new();
    split_conjuncts(predicate.clone(), &mut conjuncts);
    let mut below = Vec::new();
    let mut above = Vec::new();
    for c in conjuncts {
        let cols = c.referenced_columns();
        let pushable = !cols.is_empty()
            && cols
                .iter()
                .all(|&i| i < group_exprs.len() && matches!(group_exprs[i], Expr::Column(_)));
        if pushable {
            below.push(c.substitute_columns(&|i| group_exprs[i].clone()));
        } else {
            above.push(c);
        }
    }
    (conjoin(below), conjoin(above))
}

fn push_plan(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_plan(*input);
            match input {
                // Adjacent filters merge so later rounds see one predicate.
                LogicalPlan::Filter { input: inner, predicate: p_inner } => {
                    LogicalPlan::Filter { input: inner, predicate: p_inner.and(predicate) }
                }
                LogicalPlan::MultiJoin { inputs, preds } => {
                    // Conjuncts that reference a single input sink onto that
                    // input (rebased to its local schema); the rest stays
                    // above the join.
                    let mut offsets = Vec::with_capacity(inputs.len() + 1);
                    let mut acc = 0;
                    for input in &inputs {
                        offsets.push(acc);
                        acc += input.schema().arity();
                    }
                    offsets.push(acc);
                    let input_of = |col: usize| crate::plan::relation_of_column(&offsets, col);
                    let mut conjuncts = Vec::new();
                    split_conjuncts(predicate, &mut conjuncts);
                    let mut per_input: Vec<Vec<Expr>> = vec![Vec::new(); inputs.len()];
                    let mut residual = Vec::new();
                    for c in conjuncts {
                        let cols = c.referenced_columns();
                        match cols.split_first() {
                            Some((&first, rest)) => {
                                let i = input_of(first);
                                if rest.iter().all(|&col| input_of(col) == i) {
                                    per_input[i].push(
                                        c.substitute_columns(&|col| Expr::Column(col - offsets[i])),
                                    );
                                } else {
                                    residual.push(c);
                                }
                            }
                            None => residual.push(c),
                        }
                    }
                    let inputs = inputs
                        .into_iter()
                        .zip(per_input)
                        .map(|(input, parts)| match conjoin(parts) {
                            Some(p) => LogicalPlan::Filter { input: Box::new(input), predicate: p },
                            None => input,
                        })
                        .collect();
                    let join = LogicalPlan::MultiJoin { inputs, preds };
                    match conjoin(residual) {
                        Some(p) => LogicalPlan::Filter { input: Box::new(join), predicate: p },
                        None => join,
                    }
                }
                LogicalPlan::Aggregate { input: agg_in, group_exprs, aggs, schema } => {
                    // A HAVING conjunct that only touches group-by columns
                    // whose grouping expressions are plain column references
                    // can run before aggregation.
                    let (below, above) = split_group_having(&predicate, &group_exprs);
                    let agg_in = match below {
                        Some(p) => Box::new(LogicalPlan::Filter { input: agg_in, predicate: p }),
                        None => agg_in,
                    };
                    let agg = LogicalPlan::Aggregate { input: agg_in, group_exprs, aggs, schema };
                    match above {
                        Some(p) => LogicalPlan::Filter { input: Box::new(agg), predicate: p },
                        None => agg,
                    }
                }
                other => LogicalPlan::Filter { input: Box::new(other), predicate },
            }
        }
        LogicalPlan::Scan { .. } => plan,
        LogicalPlan::Project { input, exprs, schema } => {
            LogicalPlan::Project { input: Box::new(push_plan(*input)), exprs, schema }
        }
        LogicalPlan::MultiJoin { inputs, preds } => {
            LogicalPlan::MultiJoin { inputs: inputs.into_iter().map(push_plan).collect(), preds }
        }
        LogicalPlan::Aggregate { input, group_exprs, aggs, schema } => {
            LogicalPlan::Aggregate { input: Box::new(push_plan(*input)), group_exprs, aggs, schema }
        }
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(push_plan(*input)), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(push_plan(*input)), n }
        }
    }
}

// ---------------------------------------------------------------------------
// Projection pruning
// ---------------------------------------------------------------------------

/// If `input` is `Scan` or `Filter(Scan)` and only `outer_cols` of the scan
/// schema are needed (plus whatever the filter itself reads), rewrite it to
/// scan-project-filter over the narrowed column set.  Returns the rewritten
/// input and the old→new column mapping, or `None` when nothing can shrink.
fn narrow_scan(input: &LogicalPlan, outer_cols: &[usize]) -> Option<(LogicalPlan, Vec<usize>)> {
    let (scan_table, scan_schema, filter) = match input {
        LogicalPlan::Scan { table, schema } => (table.clone(), schema.clone(), None),
        LogicalPlan::Filter { input: inner, predicate } => match &**inner {
            LogicalPlan::Scan { table, schema } => {
                (table.clone(), schema.clone(), Some(predicate.clone()))
            }
            _ => return None,
        },
        _ => return None,
    };

    let mut used: Vec<usize> = outer_cols.to_vec();
    if let Some(f) = &filter {
        used.extend(f.referenced_columns());
    }
    used.sort_unstable();
    used.dedup();
    if used.len() >= scan_schema.arity() {
        return None;
    }

    // old index -> new index within the narrowed schema.
    let mut mapping = vec![usize::MAX; scan_schema.arity()];
    for (new, &old) in used.iter().enumerate() {
        mapping[old] = new;
    }

    let narrow_fields: Vec<crate::tuple::Field> =
        used.iter().filter_map(|&i| scan_schema.field(i).cloned()).collect();
    let narrow = LogicalPlan::Project {
        input: Box::new(LogicalPlan::Scan { table: scan_table, schema: scan_schema }),
        exprs: used.iter().map(|&i| Expr::col(i)).collect(),
        schema: Schema::new(narrow_fields),
    };
    let rewritten = match filter {
        Some(p) => LogicalPlan::Filter {
            input: Box::new(narrow),
            predicate: p.substitute_columns(&|i| Expr::Column(mapping[i])),
        },
        None => narrow,
    };
    Some((rewritten, mapping))
}

fn prune_plan(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { .. } => plan,
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(prune_plan(*input)), predicate }
        }
        LogicalPlan::Project { input, exprs, schema } => {
            let input = prune_plan(*input);
            let mut outer_cols = Vec::new();
            for e in &exprs {
                outer_cols.extend(e.referenced_columns());
            }
            match narrow_scan(&input, &outer_cols) {
                Some((new_input, mapping)) => LogicalPlan::Project {
                    input: Box::new(new_input),
                    exprs: exprs
                        .iter()
                        .map(|e| e.substitute_columns(&|i| Expr::Column(mapping[i])))
                        .collect(),
                    schema,
                },
                None => LogicalPlan::Project { input: Box::new(input), exprs, schema },
            }
        }
        // Scans under a MultiJoin keep their full width: narrowing is the
        // distributed planner's job (per-stage ship columns), and a local
        // projection here would invalidate the global predicate numbering.
        LogicalPlan::MultiJoin { .. } => plan,
        LogicalPlan::Aggregate { input, group_exprs, aggs, schema } => {
            let input = prune_plan(*input);
            let mut outer_cols = Vec::new();
            for g in &group_exprs {
                outer_cols.extend(g.referenced_columns());
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    outer_cols.extend(arg.referenced_columns());
                }
            }
            match narrow_scan(&input, &outer_cols) {
                Some((new_input, mapping)) => LogicalPlan::Aggregate {
                    input: Box::new(new_input),
                    group_exprs: group_exprs
                        .iter()
                        .map(|e| e.substitute_columns(&|i| Expr::Column(mapping[i])))
                        .collect(),
                    aggs: aggs
                        .iter()
                        .map(|a| crate::plan::AggExpr {
                            func: a.func,
                            arg: a
                                .arg
                                .as_ref()
                                .map(|e| e.substitute_columns(&|i| Expr::Column(mapping[i]))),
                            name: a.name.clone(),
                        })
                        .collect(),
                    schema,
                },
                None => {
                    LogicalPlan::Aggregate { input: Box::new(input), group_exprs, aggs, schema }
                }
            }
        }
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(prune_plan(*input)), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(prune_plan(*input)), n }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::plan::AggExpr;
    use crate::value::DataType;

    fn scan3() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::of(&[("a", DataType::Int), ("b", DataType::Int), ("c", DataType::Str)]),
        }
    }

    fn scan2(table: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            schema: Schema::of(&[("x", DataType::Int), ("y", DataType::Int)]),
        }
    }

    #[test]
    fn constant_folding_evaluates_literal_subtrees() {
        // WHERE (1 + 1 = 2) AND a > 3   ==>   WHERE a > 3
        let predicate = Expr::lit(1i64)
            .binary(BinaryOp::Add, Expr::lit(1i64))
            .eq(Expr::lit(2i64))
            .and(Expr::col(0).gt(Expr::lit(3i64)));
        let plan = LogicalPlan::Filter { input: Box::new(scan3()), predicate };
        let rewritten = ConstantFolding.rewrite(&plan).expect("folding must fire");
        match rewritten {
            LogicalPlan::Filter { predicate, .. } => {
                assert_eq!(predicate, Expr::col(0).gt(Expr::lit(3i64)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn constant_folding_removes_tautological_filter() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan3()),
            predicate: Expr::lit(2i64).gt(Expr::lit(1i64)),
        };
        let rewritten = ConstantFolding.rewrite(&plan).expect("folding must fire");
        assert!(matches!(rewritten, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn constant_folding_simplifies_projection_arithmetic() {
        let plan = LogicalPlan::Project {
            input: Box::new(scan3()),
            exprs: vec![Expr::lit(2i64).binary(BinaryOp::Mul, Expr::lit(3i64)), Expr::col(1)],
            schema: Schema::of(&[("six", DataType::Int), ("b", DataType::Int)]),
        };
        let rewritten = ConstantFolding.rewrite(&plan).expect("folding must fire");
        match rewritten {
            LogicalPlan::Project { exprs, .. } => {
                assert_eq!(exprs[0], Expr::lit(6i64));
                assert_eq!(exprs[1], Expr::col(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn constant_folding_is_idempotent_on_clean_plans() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan3()),
            predicate: Expr::col(0).gt(Expr::lit(3i64)),
        };
        assert!(ConstantFolding.rewrite(&plan).is_none());
    }

    /// `l JOIN r ON l.x = r.x` as the binder emits it: a two-input
    /// `MultiJoin` over the concatenated schema `[l.x, l.y, r.x, r.y]`.
    fn join_lr() -> LogicalPlan {
        LogicalPlan::MultiJoin { inputs: vec![scan2("l"), scan2("r")], preds: vec![(0, 2)] }
    }

    #[test]
    fn predicate_pushdown_splits_filter_across_join() {
        // Filter (left.x > 1 AND right.y = 5 AND left.x < right.x) over the
        // join.
        let join = join_lr();
        let predicate = Expr::col(0)
            .gt(Expr::lit(1i64))
            .and(Expr::col(3).eq(Expr::lit(5i64)))
            .and(Expr::col(0).binary(BinaryOp::Lt, Expr::col(2)));
        let plan = LogicalPlan::Filter { input: Box::new(join), predicate };
        let rewritten = PredicatePushdown.rewrite(&plan).expect("pushdown must fire");

        // Residual mixed conjunct stays above the join.
        let LogicalPlan::Filter { input, predicate: residual } = rewritten else {
            panic!("expected residual filter above the join");
        };
        assert_eq!(residual, Expr::col(0).binary(BinaryOp::Lt, Expr::col(2)));
        let LogicalPlan::MultiJoin { inputs, preds } = *input else {
            panic!("expected join under the residual filter");
        };
        assert_eq!(preds, vec![(0, 2)], "join predicates untouched");
        let [left, right]: [LogicalPlan; 2] = inputs.try_into().expect("two inputs");
        // Left conjunct kept its column numbering.
        match left {
            LogicalPlan::Filter { predicate, .. } => {
                assert_eq!(predicate, Expr::col(0).gt(Expr::lit(1i64)));
            }
            other => panic!("left side not filtered: {other:?}"),
        }
        // Right conjunct was rebased from joined column 3 to right column 1.
        match right {
            LogicalPlan::Filter { predicate, .. } => {
                assert_eq!(predicate, Expr::col(1).eq(Expr::lit(5i64)));
            }
            other => panic!("right side not filtered: {other:?}"),
        }
    }

    #[test]
    fn predicate_pushdown_sinks_group_column_having() {
        // HAVING x = 7 AND COUNT(*) > 2 over GROUP BY x: the x conjunct can
        // run before aggregation, the COUNT conjunct cannot.
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan2("t")),
            group_exprs: vec![Expr::col(0)],
            aggs: vec![AggExpr { func: AggFunc::Count, arg: None, name: "count".into() }],
            schema: Schema::of(&[("x", DataType::Int), ("count", DataType::Int)]),
        };
        let predicate = Expr::col(0).eq(Expr::lit(7i64)).and(Expr::col(1).gt(Expr::lit(2i64)));
        let plan = LogicalPlan::Filter { input: Box::new(agg), predicate };
        let rewritten = PredicatePushdown.rewrite(&plan).expect("pushdown must fire");

        let LogicalPlan::Filter { input, predicate: above } = rewritten else {
            panic!("expected the COUNT conjunct to stay above");
        };
        assert_eq!(above, Expr::col(1).gt(Expr::lit(2i64)));
        let LogicalPlan::Aggregate { input: agg_in, .. } = *input else {
            panic!("expected aggregate");
        };
        match *agg_in {
            LogicalPlan::Filter { predicate, .. } => {
                assert_eq!(predicate, Expr::col(0).eq(Expr::lit(7i64)));
            }
            other => panic!("group-column conjunct was not pushed: {other:?}"),
        }
    }

    #[test]
    fn predicate_pushdown_merges_stacked_filters() {
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan3()),
                predicate: Expr::col(0).gt(Expr::lit(1i64)),
            }),
            predicate: Expr::col(1).gt(Expr::lit(2i64)),
        };
        let rewritten = PredicatePushdown.rewrite(&plan).expect("merge must fire");
        match rewritten {
            LogicalPlan::Filter { input, predicate } => {
                assert!(matches!(*input, LogicalPlan::Scan { .. }));
                assert_eq!(
                    predicate,
                    Expr::col(0).gt(Expr::lit(1i64)).and(Expr::col(1).gt(Expr::lit(2i64)))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn projection_pruning_narrows_scan_under_project() {
        // SELECT b FROM t WHERE a > 1: only columns a and b are needed of the
        // three-column scan.
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan3()),
                predicate: Expr::col(0).gt(Expr::lit(1i64)),
            }),
            exprs: vec![Expr::col(1)],
            schema: Schema::of(&[("b", DataType::Int)]),
        };
        let rewritten = ProjectionPruning.rewrite(&plan).expect("pruning must fire");
        let LogicalPlan::Project { input, exprs, .. } = rewritten else {
            panic!("expected outer project");
        };
        // The outer projection's column was renumbered into the narrow schema.
        assert_eq!(exprs, vec![Expr::col(1)]);
        let LogicalPlan::Filter { input: narrow, predicate } = *input else {
            panic!("expected filter over the narrowed scan");
        };
        assert_eq!(predicate, Expr::col(0).gt(Expr::lit(1i64)));
        let LogicalPlan::Project { exprs: narrow_exprs, schema, input: scan } = *narrow else {
            panic!("expected the narrowing projection");
        };
        assert_eq!(narrow_exprs, vec![Expr::col(0), Expr::col(1)]);
        assert_eq!(schema.names(), vec!["a", "b"]);
        assert!(matches!(*scan, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn projection_pruning_narrows_scan_under_aggregate() {
        // SELECT c, COUNT(*) ... GROUP BY c: only column c is needed.
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan3()),
            group_exprs: vec![Expr::col(2)],
            aggs: vec![AggExpr { func: AggFunc::Count, arg: None, name: "count".into() }],
            schema: Schema::of(&[("c", DataType::Str), ("count", DataType::Int)]),
        };
        let rewritten = ProjectionPruning.rewrite(&plan).expect("pruning must fire");
        let LogicalPlan::Aggregate { input, group_exprs, .. } = rewritten else {
            panic!("expected aggregate");
        };
        assert_eq!(group_exprs, vec![Expr::col(0)], "group column renumbered");
        let LogicalPlan::Project { exprs, .. } = *input else {
            panic!("expected narrowing projection");
        };
        assert_eq!(exprs, vec![Expr::col(2)]);
    }

    #[test]
    fn projection_pruning_leaves_full_width_scans_alone() {
        let plan = LogicalPlan::Project {
            input: Box::new(scan3()),
            exprs: vec![Expr::col(0), Expr::col(1), Expr::col(2)],
            schema: Schema::of(&[("a", DataType::Int), ("b", DataType::Int), ("c", DataType::Str)]),
        };
        assert!(ProjectionPruning.rewrite(&plan).is_none());
    }

    #[test]
    fn optimizer_pipeline_records_applied_rules() {
        let predicate = Expr::lit(1i64).eq(Expr::lit(1i64)).and(Expr::col(3).eq(Expr::lit(5i64)));
        let plan = LogicalPlan::Filter { input: Box::new(join_lr()), predicate };
        let out = Optimizer::new().optimize(plan);
        assert!(out.applied.contains(&"constant_folding"));
        assert!(out.applied.contains(&"predicate_pushdown"));
        // The tautological conjunct vanished and the equality moved to the
        // right side; no filter remains above the join.
        assert!(matches!(out.plan, LogicalPlan::MultiJoin { .. }));
    }

    #[test]
    fn split_and_conjoin_round_trip() {
        let e = Expr::col(0)
            .gt(Expr::lit(1i64))
            .and(Expr::col(1).eq(Expr::lit(2i64)))
            .and(Expr::col(2).eq(Expr::lit(3i64)));
        let mut parts = Vec::new();
        split_conjuncts(e.clone(), &mut parts);
        assert_eq!(parts.len(), 3);
        assert_eq!(conjoin(parts).unwrap(), e);
        assert_eq!(conjoin(Vec::new()), None);
    }
}
