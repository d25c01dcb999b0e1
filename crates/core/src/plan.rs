//! Logical query plans.
//!
//! The planner turns a parsed [`SelectStmt`](crate::sql::SelectStmt) into a
//! [`LogicalPlan`] tree with all column references resolved to positions.  The
//! logical plan serves two purposes: it is the input to the distributed
//! planner that derives a [`QuerySpec`](crate::query::QuerySpec), and it can
//! be executed directly against in-memory tables by the
//! [`reference`](crate::reference) evaluator, which the test suite uses as
//! ground truth for distributed answers.

use crate::aggregate::AggFunc;
use crate::expr::Expr;
use crate::tuple::Schema;

/// One aggregate computation: the function and its (optional) argument.
#[derive(Clone, Debug, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression over the input schema; `None` means `COUNT(*)`.
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
}

/// A sort key over an operator's *output* columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortKey {
    /// Output column index.
    pub column: usize,
    /// Descending?
    pub desc: bool,
}

/// The index of the relation a global (concatenated-schema) column belongs
/// to, given each relation's starting offset (ascending, first entry 0; a
/// trailing total-arity sentinel is tolerated for columns in range).  This
/// is the one column-space mapping every multi-join layer — binder,
/// optimizer pushdown, physical lowering, reference evaluation — shares.
pub fn relation_of_column(offsets: &[usize], col: usize) -> usize {
    offsets.iter().rposition(|&o| o <= col).expect("offsets start at 0")
}

/// A resolved logical plan.
#[derive(Clone, Debug, PartialEq)]
pub enum LogicalPlan {
    /// Scan a base table.
    Scan {
        /// Table (namespace) name.
        table: String,
        /// The table's schema, possibly qualified by an alias.
        schema: Schema,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate over the input schema.
        predicate: Expr,
    },
    /// Compute projections.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Expressions over the input schema.
        exprs: Vec<Expr>,
        /// Output schema (names + types of `exprs`).
        schema: Schema,
    },
    /// N-ary equi-join: all inputs joined under a predicate graph.  The
    /// optimizer's join-order enumerator decides the execution order; the
    /// node itself is order-free (inputs appear in the query's declared
    /// order, and its schema is their concatenation in that order).
    MultiJoin {
        /// One input per relation, in declared (bound) order.
        inputs: Vec<LogicalPlan>,
        /// Equi-join predicates as `(left, right)` column pairs over the
        /// concatenated schema of `inputs`.
        preds: Vec<(usize, usize)>,
    },
    /// Grouped (or global) aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping expressions over the input schema.
        group_exprs: Vec<Expr>,
        /// Aggregates over the input schema.
        aggs: Vec<AggExpr>,
        /// Output schema: group columns then aggregate columns.
        schema: Schema,
    },
    /// Sort by output columns.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys (applied in order).
        keys: Vec<SortKey>,
    },
    /// Keep only the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row limit.
        n: usize,
    },
}

impl LogicalPlan {
    /// The output schema of this plan node.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::Scan { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. } => schema.clone(),
            LogicalPlan::MultiJoin { inputs, .. } => {
                let mut schema = Schema::empty();
                for input in inputs {
                    schema = schema.concat(&input.schema());
                }
                schema
            }
            LogicalPlan::Aggregate { schema, .. } => schema.clone(),
            LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Names of the base tables this plan reads.
    pub fn input_tables(&self) -> Vec<String> {
        match self {
            LogicalPlan::Scan { table, .. } => vec![table.clone()],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.input_tables(),
            LogicalPlan::MultiJoin { inputs, .. } => {
                inputs.iter().flat_map(|i| i.input_tables()).collect()
            }
        }
    }

    /// A short indented rendering, for EXPLAIN-style debugging.
    pub fn explain(&self) -> String {
        fn rec(plan: &LogicalPlan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match plan {
                LogicalPlan::Scan { table, schema } => {
                    out.push_str(&format!("{pad}Scan {table} [{} cols]\n", schema.arity()))
                }
                LogicalPlan::Filter { input, predicate } => {
                    out.push_str(&format!("{pad}Filter {predicate}\n"));
                    rec(input, depth + 1, out);
                }
                LogicalPlan::Project { input, exprs, .. } => {
                    let rendered: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                    out.push_str(&format!("{pad}Project [{}]\n", rendered.join(", ")));
                    rec(input, depth + 1, out);
                }
                LogicalPlan::MultiJoin { inputs, preds } => {
                    let rendered: Vec<String> =
                        preds.iter().map(|(l, r)| format!("#{l} = #{r}")).collect();
                    out.push_str(&format!(
                        "{pad}MultiJoin [{} relations] on {}\n",
                        inputs.len(),
                        rendered.join(" AND ")
                    ));
                    for input in inputs {
                        rec(input, depth + 1, out);
                    }
                }
                LogicalPlan::Aggregate { input, group_exprs, aggs, .. } => {
                    out.push_str(&format!(
                        "{pad}Aggregate groups={} aggs={}\n",
                        group_exprs.len(),
                        aggs.len()
                    ));
                    rec(input, depth + 1, out);
                }
                LogicalPlan::Sort { input, keys } => {
                    out.push_str(&format!("{pad}Sort {keys:?}\n"));
                    rec(input, depth + 1, out);
                }
                LogicalPlan::Limit { input, n } => {
                    out.push_str(&format!("{pad}Limit {n}\n"));
                    rec(input, depth + 1, out);
                }
            }
        }
        let mut s = String::new();
        rec(self, 0, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]),
        }
    }

    #[test]
    fn schema_propagates() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::col(0).gt(Expr::lit(1i64)),
        };
        assert_eq!(plan.schema().arity(), 2);

        let proj = LogicalPlan::Project {
            input: Box::new(scan()),
            exprs: vec![Expr::col(1)],
            schema: Schema::of(&[("b", DataType::Str)]),
        };
        assert_eq!(proj.schema().names(), vec!["b"]);

        // t.a = t.a across both inputs: global columns 0 and 2.
        let join = LogicalPlan::MultiJoin { inputs: vec![scan(), scan()], preds: vec![(0, 2)] };
        assert_eq!(join.schema().arity(), 4);
    }

    #[test]
    fn input_tables_collects_all() {
        let join = LogicalPlan::MultiJoin {
            inputs: vec![
                scan(),
                LogicalPlan::Scan {
                    table: "u".into(),
                    schema: Schema::of(&[("x", DataType::Int)]),
                },
            ],
            preds: vec![(0, 2)],
        };
        let limited = LogicalPlan::Limit { input: Box::new(join), n: 5 };
        assert_eq!(limited.input_tables(), vec!["t".to_string(), "u".to_string()]);
    }

    #[test]
    fn explain_renders_tree() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Aggregate {
                    input: Box::new(scan()),
                    group_exprs: vec![Expr::col(1)],
                    aggs: vec![AggExpr { func: AggFunc::Count, arg: None, name: "count".into() }],
                    schema: Schema::of(&[("b", DataType::Str), ("count", DataType::Int)]),
                }),
                keys: vec![SortKey { column: 1, desc: true }],
            }),
            n: 10,
        };
        let text = plan.explain();
        assert!(text.contains("Limit 10"));
        assert!(text.contains("Sort"));
        assert!(text.contains("Aggregate"));
        assert!(text.contains("Scan t"));
    }
}
