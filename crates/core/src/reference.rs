//! Centralized reference evaluator.
//!
//! Executes a [`LogicalPlan`] against in-memory tables on a single machine.
//! The test suite uses it as ground truth: a distributed PIER run over the
//! same data must produce the same answer (up to row order), which is exactly
//! the paper's implicit correctness claim for in-network execution.

use crate::dataflow::ops::{sort_tuples, GroupAggregator};
use crate::plan::LogicalPlan;
use crate::tuple::Tuple;
use std::collections::HashMap;

/// An in-memory database: table name → rows.
#[derive(Clone, Debug, Default)]
pub struct MemoryDb {
    tables: HashMap<String, Vec<Tuple>>,
}

impl MemoryDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append rows to a table (created on first use).
    pub fn insert(&mut self, table: &str, rows: impl IntoIterator<Item = Tuple>) {
        self.tables.entry(table.to_ascii_lowercase()).or_default().extend(rows);
    }

    /// Rows of a table (empty if absent).
    pub fn rows(&self, table: &str) -> &[Tuple] {
        self.tables.get(&table.to_ascii_lowercase()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Total number of rows across all tables.
    pub fn len(&self) -> usize {
        self.tables.values().map(|v| v.len()).sum()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluate a logical plan.
    pub fn execute(&self, plan: &LogicalPlan) -> Vec<Tuple> {
        match plan {
            LogicalPlan::Scan { table, .. } => self.rows(table).to_vec(),
            LogicalPlan::Filter { input, predicate } => {
                self.execute(input).into_iter().filter(|t| predicate.matches(t)).collect()
            }
            LogicalPlan::Project { input, exprs, .. } => self
                .execute(input)
                .iter()
                .map(|t| Tuple::new(exprs.iter().map(|e| e.eval(t)).collect()))
                .collect(),
            LogicalPlan::MultiJoin { inputs, preds } => self.execute_multijoin(inputs, preds),
            LogicalPlan::Aggregate { input, group_exprs, aggs, .. } => {
                let rows = self.execute(input);
                let mut agg = GroupAggregator::new(group_exprs.clone(), aggs.clone());
                for r in &rows {
                    agg.update(r);
                }
                agg.finalize()
            }
            LogicalPlan::Sort { input, keys } => {
                let mut rows = self.execute(input);
                sort_tuples(&mut rows, keys);
                rows
            }
            LogicalPlan::Limit { input, n } => {
                let mut rows = self.execute(input);
                rows.truncate(*n);
                rows
            }
        }
    }
    /// Evaluate an n-ary equi-join.  Relations are folded in left-to-right
    /// as long as a predicate connects the next one (hash join on the first
    /// connecting predicate, the rest filtered); unconnected relations are
    /// deferred until a predicate links them.  The result columns are
    /// permuted back to declared input order, which is the schema every
    /// parent operator was resolved against.
    fn execute_multijoin(&self, inputs: &[LogicalPlan], preds: &[(usize, usize)]) -> Vec<Tuple> {
        let offsets: Vec<usize> = {
            let mut acc = 0;
            inputs
                .iter()
                .map(|i| {
                    let o = acc;
                    acc += i.schema().arity();
                    o
                })
                .collect()
        };
        let arities: Vec<usize> = inputs.iter().map(|i| i.schema().arity()).collect();
        let input_of = |g: usize| crate::plan::relation_of_column(&offsets, g);

        // `placed_cols[i]` = position of global column i in the accumulated
        // tuple, once its relation has been folded in.
        let total: usize = arities.iter().sum();
        let mut placed_cols: Vec<Option<usize>> = vec![None; total];
        let mut acc_rows = self.execute(&inputs[0]);
        for (c, slot) in placed_cols.iter_mut().enumerate().take(arities[0]) {
            *slot = Some(c);
        }
        let mut placed = vec![0usize];
        let mut width = arities[0];

        while placed.len() < inputs.len() {
            // Next declared relation with a predicate into the placed set
            // (falling back to a cross product only if none connects, which
            // the binder prevents for its own plans).
            let next = (0..inputs.len())
                .find(|i| {
                    !placed.contains(i)
                        && preds.iter().any(|&(a, b)| {
                            (input_of(a) == *i && placed.contains(&input_of(b)))
                                || (input_of(b) == *i && placed.contains(&input_of(a)))
                        })
                })
                .or_else(|| (0..inputs.len()).find(|i| !placed.contains(i)))
                .expect("some relation remains");
            let rel_rows = self.execute(&inputs[next]);
            // Predicates between the accumulated tuple and `next`, rewritten
            // as (accumulated position, local position) pairs.
            let links: Vec<(usize, usize)> = preds
                .iter()
                .filter_map(|&(a, b)| {
                    if input_of(a) == next && placed_cols[b].is_some() {
                        Some((placed_cols[b].expect("checked"), a - offsets[next]))
                    } else if input_of(b) == next && placed_cols[a].is_some() {
                        Some((placed_cols[a].expect("checked"), b - offsets[next]))
                    } else {
                        None
                    }
                })
                .collect();
            let mut out = Vec::new();
            match links.split_first() {
                Some((&(acc_col, rel_col), rest)) => {
                    let mut index: HashMap<crate::value::Value, Vec<&Tuple>> = HashMap::new();
                    for r in &rel_rows {
                        let k = r.get(rel_col).clone();
                        if !k.is_null() {
                            index.entry(k).or_default().push(r);
                        }
                    }
                    for l in &acc_rows {
                        let k = l.get(acc_col);
                        if k.is_null() {
                            continue;
                        }
                        if let Some(matches) = index.get(k) {
                            for r in matches {
                                if rest.iter().all(|&(ac, rc)| l.get(ac).sql_eq(r.get(rc))) {
                                    out.push(l.concat(r));
                                }
                            }
                        }
                    }
                }
                None => {
                    for l in &acc_rows {
                        for r in &rel_rows {
                            out.push(l.concat(r));
                        }
                    }
                }
            }
            for c in 0..arities[next] {
                placed_cols[offsets[next] + c] = Some(width + c);
            }
            width += arities[next];
            placed.push(next);
            acc_rows = out;
        }

        // Permute back to declared column order.
        let perm: Vec<usize> =
            (0..total).map(|g| placed_cols[g].expect("all relations placed")).collect();
        acc_rows.iter().map(|t| t.project(&perm)).collect()
    }
}

/// Compare two result sets ignoring row order (multiset equality).
pub fn same_rows(a: &[Tuple], b: &[Tuple]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut counts: HashMap<String, i64> = HashMap::new();
    for t in a {
        *counts.entry(format!("{t}")).or_insert(0) += 1;
    }
    for t in b {
        let e = counts.entry(format!("{t}")).or_insert(0);
        *e -= 1;
        if *e < 0 {
            return false;
        }
    }
    counts.values().all(|&c| c == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, TableDef};
    use crate::planner::Planner;
    use crate::sql::parse_select;
    use crate::tuple::Schema;
    use crate::value::{DataType, Value};
    use pier_simnet::Duration;

    fn db_and_catalog() -> (MemoryDb, Catalog) {
        let mut cat = Catalog::new();
        cat.register(TableDef::new(
            "emp",
            Schema::of(&[
                ("name", DataType::Str),
                ("dept", DataType::Str),
                ("salary", DataType::Int),
            ]),
            "name",
            Duration::from_secs(60),
        ));
        cat.register(TableDef::new(
            "dept",
            Schema::of(&[("dname", DataType::Str), ("building", DataType::Str)]),
            "dname",
            Duration::from_secs(60),
        ));
        let mut db = MemoryDb::new();
        db.insert(
            "emp",
            vec![
                Tuple::new(vec![Value::str("ann"), Value::str("db"), Value::Int(100)]),
                Tuple::new(vec![Value::str("bob"), Value::str("db"), Value::Int(80)]),
                Tuple::new(vec![Value::str("cat"), Value::str("os"), Value::Int(120)]),
                Tuple::new(vec![Value::str("dan"), Value::str("os"), Value::Int(90)]),
                Tuple::new(vec![Value::str("eve"), Value::str("net"), Value::Int(70)]),
            ],
        );
        db.insert(
            "dept",
            vec![
                Tuple::new(vec![Value::str("db"), Value::str("soda")]),
                Tuple::new(vec![Value::str("os"), Value::str("cory")]),
            ],
        );
        (db, cat)
    }

    fn run(sql: &str) -> Vec<Tuple> {
        let (db, cat) = db_and_catalog();
        let stmt = parse_select(sql).unwrap();
        let planned = Planner::new(&cat).plan_select(&stmt).unwrap();
        db.execute(&planned.logical)
    }

    #[test]
    fn select_filter_project() {
        let out = run("SELECT name FROM emp WHERE salary >= 90 ORDER BY name");
        assert_eq!(
            out,
            vec![
                Tuple::new(vec![Value::str("ann")]),
                Tuple::new(vec![Value::str("cat")]),
                Tuple::new(vec![Value::str("dan")]),
            ]
        );
    }

    #[test]
    fn group_by_aggregate() {
        let out = run(
            "SELECT dept, COUNT(*) AS c, SUM(salary) AS s FROM emp GROUP BY dept ORDER BY dept",
        );
        assert_eq!(
            out,
            vec![
                Tuple::new(vec![Value::str("db"), Value::Int(2), Value::Int(180)]),
                Tuple::new(vec![Value::str("net"), Value::Int(1), Value::Int(70)]),
                Tuple::new(vec![Value::str("os"), Value::Int(2), Value::Int(210)]),
            ]
        );
    }

    #[test]
    fn having_and_top_k() {
        let out = run("SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept \
             HAVING COUNT(*) > 1 ORDER BY total DESC LIMIT 1");
        assert_eq!(out, vec![Tuple::new(vec![Value::str("os"), Value::Int(210)])]);
    }

    #[test]
    fn global_aggregate() {
        let out = run("SELECT COUNT(*), AVG(salary) FROM emp");
        assert_eq!(out, vec![Tuple::new(vec![Value::Int(5), Value::Float(92.0)])]);
    }

    #[test]
    fn join_query() {
        let out = run("SELECT e.name, d.building FROM emp e JOIN dept d ON e.dept = d.dname \
             WHERE e.salary > 85 ORDER BY e.name");
        assert_eq!(
            out,
            vec![
                Tuple::new(vec![Value::str("ann"), Value::str("soda")]),
                Tuple::new(vec![Value::str("cat"), Value::str("cory")]),
                Tuple::new(vec![Value::str("dan"), Value::str("cory")]),
            ]
        );
    }

    #[test]
    fn limit_without_order() {
        let out = run("SELECT name FROM emp LIMIT 2");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn same_rows_is_order_insensitive() {
        let a = vec![Tuple::new(vec![Value::Int(1)]), Tuple::new(vec![Value::Int(2)])];
        let b = vec![Tuple::new(vec![Value::Int(2)]), Tuple::new(vec![Value::Int(1)])];
        let c = vec![Tuple::new(vec![Value::Int(2)]), Tuple::new(vec![Value::Int(2)])];
        assert!(same_rows(&a, &b));
        assert!(!same_rows(&a, &c));
        assert!(!same_rows(&a, &a[..1]));
    }

    #[test]
    fn reference_evaluator_consumes_the_optimized_plan() {
        // `PlannedQuery::logical` is the optimizer's output; check that it
        // really is rewritten (pruned scan) and still evaluates correctly.
        let (db, cat) = db_and_catalog();
        let stmt = parse_select("SELECT name FROM emp WHERE salary >= 90 ORDER BY name").unwrap();
        let planned = Planner::new(&cat).plan_select(&stmt).unwrap();
        assert!(
            planned.rules_applied.contains(&"projection_pruning"),
            "three-column scan with two used columns must be pruned: {:?}",
            planned.rules_applied
        );
        assert_ne!(planned.logical, planned.logical_initial);
        let out = db.execute(&planned.logical);
        assert_eq!(out.len(), 3);
        assert!(same_rows(&out, &db.execute(&planned.logical_initial)));
    }

    #[test]
    fn memory_db_helpers() {
        let (db, _) = db_and_catalog();
        assert_eq!(db.rows("emp").len(), 5);
        assert_eq!(db.rows("missing").len(), 0);
        assert_eq!(db.len(), 7);
        assert!(!db.is_empty());
        assert!(MemoryDb::new().is_empty());
    }
}
