//! The layered planning pipeline: SQL AST → bound AST → logical plan →
//! optimized logical plan → distributed physical plan.
//!
//! Planning runs in four distinct stages, each in its own module:
//!
//! 1. [`binder`] resolves table/column names against the [`Catalog`] into a
//!    typed [`BoundSelect`];
//! 2. [`logical`] builds the initial [`LogicalPlan`] operator tree;
//! 3. [`optimizer`] rewrites it (constant folding, predicate pushdown,
//!    projection pruning) under a rule framework;
//! 4. [`physical`] costs distributed join strategies from catalog
//!    cardinality hints and emits the per-node [`QueryKind`] spec.
//!
//! [`Planner`] is the façade the engine, the apps, and the tests drive; it
//! also renders [`Explanation`]s for `EXPLAIN <select>` showing every
//! stage's output.  See `README.md` in this directory for the full tour.

pub mod binder;
pub mod cache;
pub mod joinorder;
pub mod logical;
pub mod optimizer;
pub mod physical;

pub use binder::{resolve_expr, Binder, BoundSelect, EquiPred};
pub use cache::PlanCache;
pub use joinorder::{BushyChoice, ObservedStats, OrderPlan, StageChoice};
pub use optimizer::{Optimized, Optimizer, Rule};
pub use physical::PhysicalPlan;

use crate::catalog::Catalog;
use crate::plan::LogicalPlan;
use crate::query::{ContinuousSpec, JoinStrategy, QueryKind};
use crate::sql::SelectStmt;
use std::fmt;

/// Planning errors (unknown tables/columns, unsupported shapes).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanError {
    /// What went wrong.
    pub message: String,
}

impl PlanError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        PlanError { message: message.into() }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "planning error: {}", self.message)
    }
}

impl std::error::Error for PlanError {}

/// The result of planning: the optimized centralized plan (what the
/// [`reference`](crate::reference) evaluator executes) plus the distributed
/// per-node work description.
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    /// Optimized logical plan.
    pub logical: LogicalPlan,
    /// The plan as the logical planner first built it (pre-optimization),
    /// kept for `EXPLAIN`.
    pub logical_initial: LogicalPlan,
    /// Optimizer rules that changed the plan, in application order.
    pub rules_applied: Vec<&'static str>,
    /// Distributed execution description.
    pub kind: QueryKind,
    /// Why the join strategy was chosen (`None` for non-join queries).
    pub strategy_note: Option<String>,
    /// Client-visible output column names.
    pub output_names: Vec<String>,
    /// Continuous-query settings, if any.
    pub continuous: Option<ContinuousSpec>,
}

/// Plans SQL statements against a catalog by running the four-stage
/// pipeline.  Its options — a forced join strategy, trace-observed
/// statistics, and permission for bushy shapes — are the only planner
/// options: the physical planner and the join-order enumerator read them
/// from here.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    forced_strategy: Option<JoinStrategy>,
    observed: Option<&'a ObservedStats>,
    allow_bushy: bool,
}

impl<'a> Planner<'a> {
    /// A planner over the given catalog; join strategies are chosen by cost
    /// from the catalog's cardinality hints.
    pub fn new(catalog: &'a Catalog) -> Self {
        Planner { catalog, forced_strategy: None, observed: None, allow_bushy: false }
    }

    /// A planner that always uses a specific join strategy (bypassing the
    /// cost model — benchmarks compare strategies this way).
    pub fn with_join_strategy(catalog: &'a Catalog, strategy: JoinStrategy) -> Self {
        Planner { catalog, forced_strategy: Some(strategy), observed: None, allow_bushy: false }
    }

    /// Overlay trace-observed per-query statistics on the catalog estimates
    /// (the `feedback` re-planning path).
    pub fn observed(mut self, stats: &'a ObservedStats) -> Self {
        self.observed = Some(stats);
        self
    }

    /// Let the join-order enumerator consider bushy shapes (two independent
    /// subchains meeting at a rehash-merge stage) alongside left-deep chains.
    pub fn allow_bushy(mut self) -> Self {
        self.allow_bushy = true;
        self
    }

    /// Run the full pipeline over a parsed `SELECT`.
    pub fn plan_select(&self, stmt: &SelectStmt) -> Result<PlannedQuery, PlanError> {
        // Stage 1: bind names.
        let bound = Binder::new(self.catalog).bind_select(stmt)?;
        Ok(self.plan_bound(bound))
    }

    /// Stages 2–4 over an already-bound statement (none of them can fail).
    fn plan_bound(&self, bound: BoundSelect) -> PlannedQuery {
        // Stage 2: build the logical plan.
        let initial = logical::build_logical(&bound);
        // Stage 3: optimize.
        let optimized = Optimizer::new().optimize(initial.clone());
        // Stage 4: derive the distributed spec.
        let physical = physical::plan(self, &bound, &optimized.plan);

        PlannedQuery {
            logical: optimized.plan,
            logical_initial: initial,
            rules_applied: optimized.applied,
            kind: physical.kind,
            strategy_note: physical.strategy_note,
            output_names: bound.output_names,
            continuous: bound.continuous,
        }
    }

    /// Plan a `SELECT` and render every pipeline stage (for `EXPLAIN`).
    pub fn explain_select(&self, stmt: &SelectStmt) -> Result<Explanation, PlanError> {
        let bound = Binder::new(self.catalog).bind_select(stmt)?;
        let binder_text = bound.describe();
        let planned = self.plan_bound(bound);
        Ok(Explanation {
            binder: binder_text,
            logical: planned.logical_initial.explain(),
            optimized: planned.logical.explain(),
            rules: planned.rules_applied.clone(),
            physical: render_kind(&planned.kind, planned.strategy_note.as_deref()),
        })
    }
}

/// The rendered output of every planning stage, as `EXPLAIN` prints it.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// Stage 1: resolved tables, join keys, output columns.
    pub binder: String,
    /// Stage 2: the logical plan before optimization.
    pub logical: String,
    /// Stage 3: the logical plan after optimization.
    pub optimized: String,
    /// Optimizer rules that fired.
    pub rules: Vec<&'static str>,
    /// Stage 4: the distributed physical plan.
    pub physical: String,
}

impl Explanation {
    /// The full multi-section report.
    pub fn render(&self) -> String {
        let rules = if self.rules.is_empty() {
            "(no rules fired)".to_string()
        } else {
            self.rules.join(", ")
        };
        format!(
            "== binder ==\n{}\
             == logical plan ==\n{}\
             == optimized logical plan ==\n{}rules applied: {}\n\
             == distributed physical plan ==\n{}",
            self.binder, self.logical, self.optimized, rules, self.physical
        )
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// One-line `EXPLAIN` rendering of an epoch-count window.
fn render_window(w: &crate::query::WindowSpec) -> String {
    if w.is_tumbling() {
        format!("window: tumbling {} epochs (results once per window)", w.size)
    } else {
        format!("window: sliding {} epochs, slide {} (results once per window)", w.size, w.slide)
    }
}

/// Render the distributed spec for `EXPLAIN`.
fn render_kind(kind: &QueryKind, strategy_note: Option<&str>) -> String {
    let mut out = String::new();
    match kind {
        QueryKind::Select { table, filter, project, order_by, limit } => {
            out.push_str(&format!("distributed select on '{table}'\n"));
            if let Some(f) = filter {
                out.push_str(&format!("  node-local filter: {f}\n"));
            }
            let cols: Vec<String> = project.iter().map(|e| e.to_string()).collect();
            out.push_str(&format!("  node-local project: [{}]\n", cols.join(", ")));
            push_order_limit(&mut out, order_by, *limit);
        }
        QueryKind::Aggregate {
            table,
            filter,
            group_exprs,
            aggs,
            having,
            order_by,
            limit,
            window,
            ..
        } => {
            out.push_str(&format!(
                "hierarchical aggregation on '{table}' ({} groups, {} aggregates)\n",
                group_exprs.len(),
                aggs.len()
            ));
            if let Some(f) = filter {
                out.push_str(&format!("  node-local filter: {f}\n"));
            }
            for a in aggs {
                match &a.arg {
                    Some(arg) => out.push_str(&format!("  agg {}({arg}) AS {}\n", a.func, a.name)),
                    None => out.push_str(&format!("  agg {}(*) AS {}\n", a.func, a.name)),
                }
            }
            if let Some(w) = window {
                out.push_str(&format!("  {}\n", render_window(w)));
            }
            if let Some(h) = having {
                out.push_str(&format!("  having (at root): {h}\n"));
            }
            push_order_limit(&mut out, order_by, *limit);
        }
        QueryKind::Join { left_table, left_filter, stages, aggregate, order_by, limit, .. } => {
            let tables: Vec<String> = std::iter::once(format!("'{left_table}'"))
                .chain(stages.iter().map(|s| format!("'{}'", s.right_table)))
                .collect();
            out.push_str(&format!(
                "distributed join {} ({} stage{})\n",
                tables.join(" ⋈ "),
                stages.len(),
                if stages.len() == 1 { "" } else { "s" }
            ));
            if let Some(note) = strategy_note {
                for line in note.lines() {
                    out.push_str(&format!("  chosen because: {line}\n"));
                }
            }
            if let Some(f) = left_filter {
                out.push_str(&format!("  driving-side filter (before shipping): {f}\n"));
            }
            let fmt_cols = |cols: &[usize]| {
                cols.iter().map(|c| format!("#{c}")).collect::<Vec<_>>().join(", ")
            };
            for (k, s) in stages.iter().enumerate() {
                out.push_str(&format!(
                    "  stage {k}: ⋈ '{}' on {} = {}\n    strategy: {:?}\n",
                    s.right_table, s.left_key, s.right_key, s.strategy
                ));
                if let Some(scan) = &s.left_scan {
                    out.push_str(&format!(
                        "    subchain root: drives from scan of '{}'",
                        scan.table
                    ));
                    if let Some(f) = &scan.filter {
                        out.push_str(&format!(" where {f}"));
                    }
                    out.push('\n');
                }
                if let Some(f) = &s.right_filter {
                    out.push_str(&format!("    right-side filter (before shipping): {f}\n"));
                }
                out.push_str(&format!(
                    "    shipped columns: left [{}], right [{}]\n",
                    fmt_cols(&s.left_ship_cols),
                    fmt_cols(&s.right_ship_cols)
                ));
                if let Some(f) = &s.post_filter {
                    out.push_str(&format!("    residual filter (at join site): {f}\n"));
                }
                if !s.out_cols.is_empty() {
                    out.push_str(&format!(
                        "    rehash to next stage: [{}]\n",
                        fmt_cols(&s.out_cols)
                    ));
                }
                if let Some((stage, side)) = s.out_to {
                    out.push_str(&format!(
                        "    output feeds stage {stage} side {side} ({})\n",
                        if side == 0 { "as its probing input" } else { "as its inner input" }
                    ));
                }
            }
            if let Some(agg) = aggregate {
                out.push_str(&format!(
                    "  aggregate above the final stage ({} groups, {} aggregates): {}\n",
                    agg.group_exprs.len(),
                    agg.aggs.len(),
                    if agg.hierarchical {
                        "hierarchical in-network partials"
                    } else {
                        "raw rows streamed to the origin"
                    }
                ));
                for a in &agg.aggs {
                    match &a.arg {
                        Some(arg) => {
                            out.push_str(&format!("    agg {}({arg}) AS {}\n", a.func, a.name))
                        }
                        None => out.push_str(&format!("    agg {}(*) AS {}\n", a.func, a.name)),
                    }
                }
                if let Some(w) = &agg.window {
                    out.push_str(&format!("    {}\n", render_window(w)));
                }
                if let Some(h) = &agg.having {
                    out.push_str(&format!(
                        "    having (at {}): {h}\n",
                        if agg.hierarchical { "root" } else { "origin" }
                    ));
                }
            }
            push_order_limit(&mut out, order_by, *limit);
        }
        QueryKind::Recursive { edges_table, source, max_depth, .. } => {
            out.push_str(&format!(
                "recursive expansion over '{edges_table}' from {source} (depth ≤ {max_depth})\n"
            ));
        }
    }
    out
}

fn push_order_limit(out: &mut String, order_by: &[crate::plan::SortKey], limit: Option<usize>) {
    if !order_by.is_empty() {
        let keys: Vec<String> = order_by
            .iter()
            .map(|k| format!("#{}{}", k.column, if k.desc { " DESC" } else { "" }))
            .collect();
        out.push_str(&format!("  order at origin: [{}]\n", keys.join(", ")));
    }
    if let Some(n) = limit {
        out.push_str(&format!("  limit at origin: {n}\n"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::catalog::{TableDef, TableStats};
    use crate::expr::Expr;
    use crate::plan::SortKey;
    use crate::sql::parse_select;
    use crate::tuple::Schema;
    use crate::value::{DataType, Value};
    use pier_simnet::Duration;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(TableDef::new(
            "netstats",
            Schema::of(&[
                ("host", DataType::Str),
                ("out_rate", DataType::Float),
                ("in_rate", DataType::Float),
            ]),
            "host",
            Duration::from_secs(60),
        ));
        cat.register(TableDef::new(
            "intrusions",
            Schema::of(&[
                ("host", DataType::Str),
                ("rule_id", DataType::Int),
                ("description", DataType::Str),
                ("hits", DataType::Int),
            ]),
            "host",
            Duration::from_secs(120),
        ));
        cat.register(TableDef::new(
            "files",
            Schema::of(&[
                ("file_id", DataType::Int),
                ("name", DataType::Str),
                ("owner", DataType::Str),
            ]),
            "file_id",
            Duration::from_secs(300),
        ));
        cat.register(TableDef::new(
            "keywords",
            Schema::of(&[("keyword", DataType::Str), ("file_id", DataType::Int)]),
            "keyword",
            Duration::from_secs(300),
        ));
        cat
    }

    fn plan(sql: &str) -> PlannedQuery {
        let cat = catalog();
        let stmt = parse_select(sql).unwrap();
        Planner::new(&cat).plan_select(&stmt).unwrap()
    }

    fn plan_err(sql: &str) -> PlanError {
        let cat = catalog();
        let stmt = parse_select(sql).unwrap();
        Planner::new(&cat).plan_select(&stmt).unwrap_err()
    }

    #[test]
    fn simple_select_resolves_columns() {
        let p = plan("SELECT host, out_rate FROM netstats WHERE out_rate > 100");
        match &p.kind {
            QueryKind::Select { table, filter, project, .. } => {
                assert_eq!(table, "netstats");
                assert!(filter.is_some());
                assert_eq!(project, &vec![Expr::col(0), Expr::col(1)]);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(p.output_names, vec!["host", "out_rate"]);
        assert!(p.logical.explain().contains("Scan netstats"));
        assert!(p.logical_initial.explain().contains("Scan netstats"));
    }

    #[test]
    fn wildcard_expands_to_all_columns() {
        let p = plan("SELECT * FROM netstats");
        match &p.kind {
            QueryKind::Select { project, .. } => assert_eq!(project.len(), 3),
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(p.output_names, vec!["host", "out_rate", "in_rate"]);
    }

    #[test]
    fn figure1_continuous_sum_plan() {
        let p = plan("SELECT SUM(out_rate) AS total FROM netstats CONTINUOUS EVERY 5 SECONDS");
        let c = p.continuous.unwrap();
        assert_eq!(c.period, Duration::from_secs(5));
        assert_eq!(c.window, Duration::from_secs(5));
        match &p.kind {
            QueryKind::Aggregate { group_exprs, aggs, final_project, .. } => {
                assert!(group_exprs.is_empty());
                assert_eq!(aggs.len(), 1);
                assert_eq!(aggs[0].func, AggFunc::Sum);
                assert_eq!(aggs[0].arg, Some(Expr::col(1)));
                assert_eq!(final_project, &vec![0]);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(p.output_names, vec!["total"]);
    }

    #[test]
    fn table1_top10_plan() {
        let p = plan(
            "SELECT rule_id, description, SUM(hits) AS total FROM intrusions \
             GROUP BY rule_id, description ORDER BY SUM(hits) DESC LIMIT 10",
        );
        match &p.kind {
            QueryKind::Aggregate { group_exprs, aggs, order_by, limit, final_project, .. } => {
                assert_eq!(group_exprs, &vec![Expr::col(1), Expr::col(2)]);
                assert_eq!(aggs.len(), 1);
                assert_eq!(aggs[0].func, AggFunc::Sum);
                // ORDER BY SUM(hits) maps to the aggregate output column 2.
                assert_eq!(order_by, &vec![SortKey { column: 2, desc: true }]);
                assert_eq!(*limit, Some(10));
                assert_eq!(final_project, &vec![0, 1, 2]);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(p.output_names, vec!["rule_id", "description", "total"]);
    }

    #[test]
    fn order_by_alias_also_works() {
        let p = plan(
            "SELECT rule_id, SUM(hits) AS total FROM intrusions GROUP BY rule_id \
             ORDER BY total DESC LIMIT 3",
        );
        match &p.kind {
            QueryKind::Aggregate { order_by, .. } => {
                assert_eq!(order_by, &vec![SortKey { column: 1, desc: true }]);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn having_appends_hidden_aggregate() {
        let p =
            plan("SELECT host, COUNT(*) AS c FROM intrusions GROUP BY host HAVING SUM(hits) > 100");
        match &p.kind {
            QueryKind::Aggregate { aggs, having, .. } => {
                assert_eq!(aggs.len(), 2, "COUNT(*) plus the hidden SUM(hits)");
                let h = having.as_ref().unwrap();
                // HAVING references the hidden aggregate at output column 2.
                assert!(matches!(
                    h,
                    Expr::Binary { left, .. } if matches!(**left, Expr::Column(2))
                ));
            }
            other => panic!("unexpected kind {other:?}"),
        }
        // Hidden aggregates do not change the client-visible output.
        assert_eq!(p.output_names, vec!["host", "c"]);
    }

    #[test]
    fn join_plan_resolves_keys_and_pushes_filter() {
        let p = plan(
            "SELECT f.name, k.keyword FROM files f JOIN keywords k ON f.file_id = k.file_id \
             WHERE k.keyword = 'mp3'",
        );
        match &p.kind {
            QueryKind::Join { left_table, left_filter, stages, project, .. } => {
                assert_eq!(left_table, "files");
                assert_eq!(stages.len(), 1);
                let s = &stages[0];
                assert_eq!(s.right_table, "keywords");
                assert_eq!(s.left_key, Expr::col(0));
                assert_eq!(s.right_key, Expr::col(1));
                // The keyword predicate referenced only the right side, so
                // the optimizer pushed it below the join.
                assert!(left_filter.is_none());
                assert!(s.post_filter.is_none());
                assert_eq!(s.right_filter.as_ref().unwrap(), &Expr::col(0).eq(Expr::lit("mp3")));
                // Join-side projection pushdown: only f.name (left column 1)
                // and k.keyword (right column 0) ship; the projection is
                // renumbered over the narrowed concatenated schema.
                assert_eq!(s.left_ship_cols, vec![1]);
                assert_eq!(s.right_ship_cols, vec![0]);
                assert_eq!(project, &vec![Expr::col(0), Expr::col(1)]);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(p.output_names, vec!["f.name", "k.keyword"]);
        assert!(p.rules_applied.contains(&"predicate_pushdown"));
    }

    #[test]
    fn join_keys_accept_reversed_order() {
        let p = plan("SELECT f.name FROM files f JOIN keywords k ON k.file_id = f.file_id");
        let stages = p.kind.join_stages().expect("join plan");
        assert_eq!(stages[0].left_key, Expr::col(0));
        assert_eq!(stages[0].right_key, Expr::col(1));
    }

    #[test]
    fn join_strategy_is_configurable() {
        let cat = catalog();
        let stmt =
            parse_select("SELECT f.name FROM files f JOIN keywords k ON f.file_id = k.file_id")
                .unwrap();
        let p = Planner::with_join_strategy(&cat, JoinStrategy::FetchMatches)
            .plan_select(&stmt)
            .unwrap();
        // keywords is not partitioned on file_id, so a forced Fetch-Matches
        // is not executable there and degrades to symmetric rehash…
        let stages = p.kind.join_stages().expect("join plan");
        assert_eq!(stages[0].strategy, JoinStrategy::SymmetricHash);
        assert!(p.strategy_note.unwrap().contains("forced"));
        // …while the probe-shaped direction accepts the forced strategy.
        let stmt =
            parse_select("SELECT f.name FROM keywords k JOIN files f ON k.file_id = f.file_id")
                .unwrap();
        let p = Planner::with_join_strategy(&cat, JoinStrategy::FetchMatches)
            .plan_select(&stmt)
            .unwrap();
        let stages = p.kind.join_stages().expect("join plan");
        assert_eq!(stages[0].strategy, JoinStrategy::FetchMatches);
        assert!(p.strategy_note.unwrap().contains("forced"));
    }

    #[test]
    fn join_strategy_defaults_to_symmetric_without_stats() {
        let p = plan("SELECT f.name FROM files f JOIN keywords k ON f.file_id = k.file_id");
        let stages = p.kind.join_stages().expect("join plan");
        assert_eq!(stages[0].strategy, JoinStrategy::SymmetricHash);
    }

    #[test]
    fn cardinality_hints_drive_fetch_matches() {
        let mut cat = catalog();
        // keywords (outer, filtered by an equality) is tiny relative to the
        // files relation, which is partitioned on the join key file_id.
        cat.set_stats("keywords", TableStats::with_rows(5_000));
        cat.set_stats("files", TableStats::with_rows(2_000));
        let stmt = parse_select(
            "SELECT f.name FROM keywords k JOIN files f ON k.file_id = f.file_id \
             WHERE k.keyword = 'linux'",
        )
        .unwrap();
        let p = Planner::new(&cat).plan_select(&stmt).unwrap();
        match &p.kind {
            QueryKind::Join { left_filter, stages, .. } => {
                assert_eq!(stages[0].strategy, JoinStrategy::FetchMatches);
                assert!(left_filter.is_some(), "keyword filter must sit on the probing side");
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert!(p.strategy_note.unwrap().contains("Fetch-Matches"));
    }

    #[test]
    fn cardinality_hints_keep_symmetric_for_unfiltered_join() {
        let mut cat = catalog();
        cat.set_stats("keywords", TableStats::with_rows(5_000));
        cat.set_stats("files", TableStats::with_rows(2_000));
        // No filter: the whole outer relation would probe, so rehashing wins.
        let stmt =
            parse_select("SELECT f.name FROM keywords k JOIN files f ON k.file_id = f.file_id")
                .unwrap();
        let p = Planner::new(&cat).plan_select(&stmt).unwrap();
        let stages = p.kind.join_stages().expect("join plan");
        assert_eq!(stages[0].strategy, JoinStrategy::SymmetricHash);
    }

    #[test]
    fn cardinality_hints_pick_bloom_for_skewed_unpartitioned_join() {
        let mut cat = catalog();
        // Join keyed on a column that is NOT the inner table's partition key
        // (files ⋈ keywords on file_id: keywords is partitioned by keyword),
        // with a huge right side: the Bloom semi-join should win.
        cat.set_stats("files", TableStats::with_rows(500));
        cat.set_stats("keywords", TableStats::with_rows(50_000));
        let stmt =
            parse_select("SELECT f.name FROM files f JOIN keywords k ON f.file_id = k.file_id")
                .unwrap();
        let p = Planner::new(&cat).plan_select(&stmt).unwrap();
        let stages = p.kind.join_stages().expect("join plan");
        assert_eq!(stages[0].strategy, JoinStrategy::BloomFilter);
    }

    #[test]
    fn group_column_having_pushes_into_distributed_filter() {
        let p = plan("SELECT host, COUNT(*) AS c FROM intrusions GROUP BY host HAVING host = 'h1'");
        match &p.kind {
            QueryKind::Aggregate { filter, having, .. } => {
                // The group-column conjunct runs at every node's scan; no
                // residual HAVING remains for the root.
                assert_eq!(filter, &Some(Expr::col(0).eq(Expr::lit("h1"))));
                assert!(having.is_none());
            }
            other => panic!("unexpected kind {other:?}"),
        }
        // Mixed HAVING: group conjunct sinks, aggregate conjunct stays.
        let p = plan(
            "SELECT host, COUNT(*) AS c FROM intrusions GROUP BY host \
             HAVING host = 'h1' AND COUNT(*) > 2",
        );
        match &p.kind {
            QueryKind::Aggregate { filter, having, .. } => {
                assert!(filter.is_some());
                assert!(having.is_some(), "COUNT(*) conjunct must remain at the root");
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn distinct_keys_only_sharpen_partition_column_equality() {
        let mut cat = catalog();
        // keywords: 5000 rows over 2 distinct partition keys — an equality
        // on the partition column keeps half the table, so probing loses.
        cat.set_stats("keywords", TableStats::with_rows(5_000).distinct_keys(2));
        cat.set_stats("files", TableStats::with_rows(2_000));
        let stmt = parse_select(
            "SELECT f.name FROM keywords k JOIN files f ON k.file_id = f.file_id \
             WHERE k.keyword = 'linux'",
        )
        .unwrap();
        let p = Planner::new(&cat).plan_select(&stmt).unwrap();
        let stages = p.kind.join_stages().expect("join plan");
        assert_eq!(stages[0].strategy, JoinStrategy::SymmetricHash, "{:?}", p.strategy_note);

        // Equality on a non-partition column must NOT borrow the partition
        // key's distinct count: file_id is not keywords' partition column,
        // so the flat guess applies and the plan stays the same as without
        // distinct_keys.
        let mut cat2 = catalog();
        cat2.set_stats("keywords", TableStats::with_rows(5_000).distinct_keys(1_000_000));
        cat2.set_stats("files", TableStats::with_rows(2_000));
        let stmt = parse_select(
            "SELECT f.name FROM keywords k JOIN files f ON k.file_id = f.file_id \
             WHERE k.file_id = 7",
        )
        .unwrap();
        let p = Planner::new(&cat2).plan_select(&stmt).unwrap();
        // The flat 0.05 guess applies: ~250 probing tuples, not the ~1-row
        // estimate the million-key partition statistic would wrongly give.
        let note = p.strategy_note.clone().unwrap();
        assert!(note.contains("~250 probing tuples"), "{note}");
    }

    #[test]
    fn errors_are_reported() {
        assert!(plan_err("SELECT * FROM missing").message.contains("unknown table"));
        assert!(plan_err("SELECT nope FROM netstats").message.contains("unknown column"));
        assert!(plan_err("SELECT host FROM intrusions GROUP BY rule_id")
            .message
            .contains("must appear in GROUP BY"));
        assert!(plan_err("SELECT *, COUNT(*) FROM netstats GROUP BY host")
            .message
            .contains("SELECT *"));
        assert!(plan_err("SELECT host FROM netstats ORDER BY missing")
            .message
            .contains("ORDER BY"));
        let e = plan_err("SELECT host, SUM(x) FROM netstats GROUP BY host");
        assert!(e.message.contains("unknown column"), "{}", e.message);
        assert!(format!("{e}").contains("planning error"));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let p = plan("SELECT COUNT(*), AVG(out_rate) FROM netstats WHERE out_rate > 0");
        match &p.kind {
            QueryKind::Aggregate { group_exprs, aggs, filter, .. } => {
                assert!(group_exprs.is_empty());
                assert_eq!(aggs.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(p.output_names, vec!["count", "avg_out_rate"]);
    }

    #[test]
    fn literal_defaults_order_limit_select() {
        let p = plan("SELECT host FROM netstats ORDER BY host LIMIT 5");
        match &p.kind {
            QueryKind::Select { order_by, limit, .. } => {
                assert_eq!(order_by, &vec![SortKey { column: 0, desc: false }]);
                assert_eq!(*limit, Some(5));
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn duplicate_aggregates_are_shared() {
        let p = plan(
            "SELECT rule_id, SUM(hits) AS a FROM intrusions GROUP BY rule_id ORDER BY SUM(hits) DESC",
        );
        match &p.kind {
            QueryKind::Aggregate { aggs, .. } => assert_eq!(aggs.len(), 1),
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn recursive_kind_is_constructible() {
        // Not produced by SQL, but the algebraic interface builds it directly.
        let kind = QueryKind::Recursive {
            edges_table: "link".into(),
            src_col: 0,
            dst_col: 1,
            source: Value::str("n0"),
            max_depth: 4,
        };
        assert_eq!(kind.primary_table(), "link");
    }

    #[test]
    fn explain_renders_every_stage() {
        let cat = catalog();
        let stmt = parse_select(
            "SELECT f.name FROM files f JOIN keywords k ON f.file_id = k.file_id \
             WHERE k.keyword = 'mp3' AND 1 + 1 = 2",
        )
        .unwrap();
        let explanation = Planner::new(&cat).explain_select(&stmt).unwrap();
        let text = explanation.render();
        assert!(text.contains("== binder =="));
        assert!(text.contains("== logical plan =="));
        assert!(text.contains("== optimized logical plan =="));
        assert!(text.contains("== distributed physical plan =="));
        assert!(text.contains("constant_folding"), "{text}");
        assert!(text.contains("predicate_pushdown"), "{text}");
        assert!(text.contains("strategy:"), "{text}");
        // Display is render().
        assert_eq!(format!("{explanation}"), text);
    }
}
