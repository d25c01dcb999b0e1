//! Columnar batches, vectorized kernels, and grouped folds over them.
//!
//! * Every compiled kernel matches scalar `Expr::eval` **bit-for-bit** on
//!   randomized batches — NULL-heavy columns, mixed types, empty batches,
//!   and all-filtered selections included.
//! * Vectorized grouped aggregation (`update_batch`) folds identically to
//!   per-row updates across multiple batches and every aggregate function.
//! * Grouping by a non-key column keeps the partial climb alive — colocated
//!   aggregation only fires when the grouping column *is* the stage key.

use pier::apps::netmon::netstats_table;
use pier::apps::snort::intrusions_table;
use pier::apps::topology::links_table;
use pier::core::dataflow::ops::{sort_tuples, GroupAggregator};
use pier::core::{
    same_rows, AggExpr, AggFunc, BinaryOp, Catalog, ColumnarBatch, Expr, JoinStrategy, Kernel,
    MemoryDb, Planner, ScalarFunc, SortKey, TableStats, UnaryOp,
};
use pier::prelude::*;
use pier::simnet::DetRng;

// ---------------------------------------------------------------------
// Randomized kernel-vs-scalar property tests
// ---------------------------------------------------------------------

/// A random value for column `c`: typed per column (Int / Float / Str /
/// Bool / mixed) with a healthy dose of NULLs.
fn rand_value(rng: &mut DetRng, c: usize) -> Value {
    if rng.chance(0.18) {
        return Value::Null;
    }
    match c {
        0 => Value::Int(rng.range_u64(0, 41) as i64 - 20),
        1 => Value::Float((rng.range_u64(0, 600) as f64 - 300.0) / 10.0),
        2 => {
            let pool = ["alpha", "beta", "gamma", "alphabet", "Alpha", ""];
            Value::str(pool[rng.index(pool.len())])
        }
        3 => Value::Bool(rng.chance(0.5)),
        // The mixed column draws any type, forcing `ColumnData::Mixed`.
        _ => match rng.index(4) {
            0 => Value::Int(rng.range_u64(0, 7) as i64),
            1 => Value::Float(rng.range_u64(0, 7) as f64 / 2.0),
            2 => Value::str("mix"),
            _ => Value::Bool(rng.chance(0.5)),
        },
    }
}

fn rand_rows(rng: &mut DetRng, n: usize, width: usize) -> Vec<Tuple> {
    (0..n).map(|_| Tuple::new((0..width).map(|c| rand_value(rng, c)).collect())).collect()
}

/// The expression shapes the kernels must replicate: typed fast paths
/// (column ⊗ literal in both orders, Int ⊗ Int arithmetic), three-valued
/// AND/OR, unaries, scalar functions, LIKE, mixed-type and out-of-range
/// columns, and division by zero.
fn expr_zoo() -> Vec<Expr> {
    use BinaryOp::*;
    let c = Expr::col;
    let int = |i: i64| Expr::lit(Value::Int(i));
    let f = |x: f64| Expr::lit(Value::Float(x));
    let s = |t: &str| Expr::lit(Value::str(t));
    vec![
        c(0).gt(int(3)),
        int(3).gt(c(0)),
        c(0).binary(Lt, c(0)),
        c(0).eq(c(1)),
        c(1).binary(LtEq, f(2.5)),
        c(2).eq(s("alpha")),
        c(2).binary(GtEq, s("b")),
        c(3).and(c(0).gt(int(0))),
        c(3).binary(Or, c(4).gt(int(1))),
        c(0).binary(Add, int(7)).binary(Mul, c(0)),
        c(0).binary(Div, int(0)),
        c(0).binary(Div, c(0)),
        c(0).binary(Mod, int(3)),
        c(0).binary(Sub, c(1)),
        c(1).binary(Mul, f(-1.5)),
        Expr::Unary { op: UnaryOp::Not, expr: Box::new(c(3)) },
        Expr::Unary { op: UnaryOp::Neg, expr: Box::new(c(0)) },
        Expr::Unary { op: UnaryOp::Neg, expr: Box::new(c(1)) },
        Expr::Unary { op: UnaryOp::IsNull, expr: Box::new(c(1)) },
        Expr::Unary { op: UnaryOp::IsNotNull, expr: Box::new(c(2)) },
        Expr::Func { func: ScalarFunc::Length, arg: Box::new(c(2)) },
        Expr::Func { func: ScalarFunc::Abs, arg: Box::new(c(0)) },
        Expr::Func { func: ScalarFunc::Abs, arg: Box::new(c(1)) },
        Expr::Func { func: ScalarFunc::Upper, arg: Box::new(c(2)) },
        Expr::Func { func: ScalarFunc::Lower, arg: Box::new(c(4)) },
        Expr::Like { expr: Box::new(c(2)), pattern: "a%".into() },
        Expr::Like { expr: Box::new(c(2)), pattern: "%a_et%".into() },
        c(4).gt(int(1)),
        c(9).gt(int(0)), // out-of-range column → all NULL
        c(0).gt(int(3)).and(c(2).eq(s("alpha"))),
    ]
}

/// Bit-exact value comparison (Debug distinguishes `Int(3)` from
/// `Float(3.0)`, which `Value::eq` unifies).
fn exact(v: &Value) -> String {
    format!("{v:?}")
}

#[test]
fn kernels_match_scalar_eval_on_random_batches() {
    let root = DetRng::new(0xC0_1A);
    for round in 0..6u64 {
        let mut rng = root.stream(round);
        // Rounds 0 and 1 pin the edge cases: an empty batch, then a
        // single-row batch; later rounds are big random ones.
        let n = match round {
            0 => 0,
            1 => 1,
            _ => 40 + rng.index(160),
        };
        let rows = rand_rows(&mut rng, n, 5);
        let batch = ColumnarBatch::from_rows(&rows);
        let full = batch.full_selection();
        let every_third: Vec<u32> = (0..n as u32).filter(|j| j % 3 == 0).collect();
        let empty: Vec<u32> = Vec::new();

        for expr in expr_zoo() {
            let kernel = Kernel::compile(&expr);
            for sel in [&full, &every_third, &empty] {
                // eval: dense output aligned with the selection, bit-exact.
                let col = kernel.eval(&batch, sel);
                for (pos, &j) in sel.iter().enumerate() {
                    let scalar = expr.eval(&rows[j as usize]);
                    assert_eq!(
                        exact(&col.value_at(pos)),
                        exact(&scalar),
                        "expr {expr:?} row {j} (round {round})"
                    );
                }
                // filter: exactly the selected rows the scalar predicate
                // accepts, in order (all-filtered selections come out empty).
                let kept = kernel.filter(&batch, sel);
                let expected: Vec<u32> =
                    sel.iter().copied().filter(|&j| expr.matches(&rows[j as usize])).collect();
                assert_eq!(kept, expected, "filter {expr:?} (round {round})");
            }
        }
    }
}

#[test]
fn composed_kernel_pipeline_matches_scalar_pipeline() {
    // filter kernel → selection vector → projection kernels, as the engine
    // runs a vectorized SELECT; the scalar reference is filter + eval.
    let mut rng = DetRng::new(77).stream(1);
    let rows = rand_rows(&mut rng, 300, 5);
    let predicate = Expr::col(0)
        .gt(Expr::lit(Value::Int(0)))
        .and(Expr::Unary { op: UnaryOp::IsNotNull, expr: Box::new(Expr::col(1)) });
    let projections =
        [Expr::col(2), Expr::col(0).binary(BinaryOp::Add, Expr::col(1)), Expr::lit(Value::Int(9))];

    let batch = ColumnarBatch::from_rows(&rows);
    let sel = Kernel::compile(&predicate).filter(&batch, &batch.full_selection());
    let cols: Vec<_> = projections.iter().map(|e| Kernel::compile(e).eval(&batch, &sel)).collect();
    let vectorized: Vec<Tuple> =
        (0..sel.len()).map(|j| Tuple::new(cols.iter().map(|c| c.value_at(j)).collect())).collect();

    let scalar: Vec<Tuple> = rows
        .iter()
        .filter(|r| predicate.matches(r))
        .map(|r| Tuple::new(projections.iter().map(|e| e.eval(r)).collect()))
        .collect();

    assert_eq!(vectorized.len(), scalar.len());
    for (v, s) in vectorized.iter().zip(&scalar) {
        assert_eq!(format!("{v:?}"), format!("{s:?}"));
    }
}

#[test]
fn vectorized_grouped_aggregation_matches_scalar_folds() {
    let specs = vec![
        AggExpr { func: AggFunc::Count, arg: None, name: "n".into() },
        AggExpr { func: AggFunc::Count, arg: Some(Expr::col(1)), name: "nn".into() },
        AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(0)), name: "si".into() },
        AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "sf".into() },
        AggExpr { func: AggFunc::Avg, arg: Some(Expr::col(1)), name: "a".into() },
        AggExpr { func: AggFunc::Min, arg: Some(Expr::col(2)), name: "lo".into() },
        AggExpr { func: AggFunc::Max, arg: Some(Expr::col(1)), name: "hi".into() },
        // A computed argument exercises the generic kernel fallback.
        AggExpr {
            func: AggFunc::Sum,
            arg: Some(Expr::col(0).binary(BinaryOp::Mul, Expr::col(1))),
            name: "dot".into(),
        },
    ];
    // Group on two columns (Int-with-NULLs × Str-with-NULLs) so NULL groups
    // and multi-column keys are covered.
    let group = vec![Expr::col(3), Expr::col(2)];

    let root = DetRng::new(0xA66);
    let mut scalar = GroupAggregator::new(group.clone(), specs.clone());
    let mut vectorized = GroupAggregator::new(group, specs);
    for round in 0..4u64 {
        let mut rng = root.stream(round);
        let n = 30 + rng.index(120);
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                Tuple::new(vec![
                    rand_value(&mut rng, 0),
                    rand_value(&mut rng, 1),
                    rand_value(&mut rng, 0),
                    if rng.chance(0.2) { Value::Null } else { Value::Int(rng.index(4) as i64) },
                    rand_value(&mut rng, 2),
                ])
            })
            .collect();
        for r in &rows {
            scalar.update(r);
        }
        let batch = ColumnarBatch::from_rows(&rows);
        vectorized.update_batch(&batch, &batch.full_selection());
    }

    let keys = vec![SortKey { column: 0, desc: false }, SortKey { column: 1, desc: false }];
    let mut a = scalar.finalize();
    let mut b = vectorized.finalize();
    sort_tuples(&mut a, &keys);
    sort_tuples(&mut b, &keys);
    assert_eq!(a.len(), b.len(), "same group count");
    for (x, y) in a.iter().zip(&b) {
        // Bit-exact: float sums fold in the same order on both paths.
        assert_eq!(format!("{x:?}"), format!("{y:?}"));
    }
}

// ---------------------------------------------------------------------
// End-to-end: aggregation placement over a 3-way join
// ---------------------------------------------------------------------

/// Deterministic three-table workload (two readings, two links, and — on
/// even hosts — two intrusion reports per node).
fn rows(nodes: usize) -> (Vec<Tuple>, Vec<Tuple>, Vec<Tuple>) {
    let host = |i: usize| format!("host-{}", i % nodes);
    let mut netstats = Vec::new();
    let mut links = Vec::new();
    let mut intrusions = Vec::new();
    for i in 0..nodes {
        for r in 0..2 {
            netstats.push(Tuple::new(vec![
                Value::str(host(i)),
                Value::Float(1.0 + ((i + r) % 7) as f64),
                Value::Float(3.0),
            ]));
        }
        links.push(Tuple::new(vec![
            Value::str(host(i)),
            Value::str(host(i + 1)),
            Value::str("successor"),
        ]));
        links.push(Tuple::new(vec![
            Value::str(host(i)),
            Value::str(host(i + 3)),
            Value::str("finger"),
        ]));
        if i % 2 == 0 {
            for r in 0..2 {
                intrusions.push(Tuple::new(vec![
                    Value::str(host(i)),
                    Value::Int(1400 + r),
                    Value::str(format!("rule-{r}")),
                    Value::Int(3 + r + (i as i64)),
                ]));
            }
        }
    }
    (netstats, links, intrusions)
}

fn catalog_with_stats(nodes: usize) -> Catalog {
    let (netstats, links, intrusions) = rows(nodes);
    let mut cat = Catalog::new();
    cat.register(netstats_table());
    cat.register(links_table());
    cat.register(intrusions_table());
    cat.set_stats(
        "netstats",
        TableStats::with_rows(netstats.len() as u64).distinct_keys(nodes as u64),
    );
    cat.set_stats("links", TableStats::with_rows(links.len() as u64).distinct_keys(nodes as u64));
    cat.set_stats(
        "intrusions",
        TableStats::with_rows(intrusions.len() as u64).distinct_keys((nodes / 2) as u64),
    );
    cat
}

fn three_way_bed(nodes: usize, seed: u64, pier: PierConfig) -> (PierTestbed, MemoryDb) {
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed, pier, ..Default::default() });
    bed.create_table_everywhere(&netstats_table());
    bed.create_table_everywhere(&links_table());
    bed.create_table_everywhere(&intrusions_table());
    let (netstats, links, intrusions) = rows(nodes);
    let publisher = bed.nodes()[0];
    bed.publish_batch(publisher, "netstats", netstats.clone());
    bed.publish_batch(publisher, "links", links.clone());
    bed.publish_batch(publisher, "intrusions", intrusions.clone());
    bed.run_for(Duration::from_secs(5));

    let mut db = MemoryDb::new();
    db.insert("netstats", netstats);
    db.insert("links", links);
    db.insert("intrusions", intrusions);
    (bed, db)
}

#[test]
fn grouping_off_the_stage_key_still_climbs_the_aggregation_tree() {
    // GROUP BY l.kind: the grouping column is NOT the final stage's join
    // key, so groups span join sites and the partial climb must still run
    // (the colocated shortcut would report per-site fragments).
    let nodes = 14;
    let catalog = catalog_with_stats(nodes);
    let sql = "SELECT l.kind, COUNT(*) AS n, SUM(n.out_rate) AS total \
         FROM netstats n JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
         GROUP BY l.kind ORDER BY l.kind";
    let stmt = pier::core::sql::parse_select(sql).unwrap();
    let planned = Planner::with_join_strategy(&catalog, JoinStrategy::SymmetricHash)
        .plan_select(&stmt)
        .unwrap();
    if let pier::core::QueryKind::Join { aggregate: Some(agg), .. } = &planned.kind {
        assert!(agg.hierarchical, "grouping should compress this workload");
        assert!(!agg.colocated, "a non-key grouping column must not be colocated");
    } else {
        panic!("expected an aggregate over the join");
    }
    let (mut bed, db) = three_way_bed(nodes, 0xD1CE, PierConfig::fast_test());
    let before = bed.engine_totals();
    let origin = bed.nodes()[1];
    let q = bed.submit_query(origin, planned.kind, planned.output_names, None).unwrap();
    bed.run_for(Duration::from_secs(25));
    let out = bed.results(origin, q, 0);
    assert!(same_rows(&out, &db.execute(&planned.logical)));
    let partials = bed.engine_totals().partials_sent - before.partials_sent;
    assert!(partials > 0, "non-colocated grouping must ship partial states");
}
