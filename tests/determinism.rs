//! Same input, same answer: `ORDER BY … LIMIT` keeps the same rows
//! whatever order they reach the sort in.
//!
//! Rows that tie on every sort key are ordered by their whole value list,
//! and grouped aggregation emits its groups in key order.  So when a limit
//! cuts through a tie, the engine and the reference evaluator keep the same
//! rows, however the network interleaved partials and results.  Each query
//! runs on several overlay seeds, each of which changes arrival order.

use pier::core::{same_rows, sql::parse_select, Catalog, MemoryDb, Planner};
use pier::prelude::*;

const NODES: usize = 40;
const ROWS_PER_NODE: usize = 50;
const GROUPS: usize = 37;
const SEEDS: [u64; 4] = [3, 7, 99, 2024];

fn table() -> TableDef {
    TableDef::new(
        "m",
        Schema::of(&[("host", DataType::Str), ("g", DataType::Int), ("v", DataType::Int)]),
        "host",
        Duration::from_secs(3_600),
    )
}

/// Row `n` of the data set: 2,000 rows over 37 groups, so two groups count
/// 55 rows and the other 35 tie at 54; `v` takes nine values, so about 220
/// rows tie on the largest.
fn row(node: usize, n: usize) -> Tuple {
    Tuple::new(vec![
        Value::str(format!("host-{node}")),
        Value::Int((n % GROUPS) as i64),
        Value::Int((n % 9) as i64),
    ])
}

/// Runs the one-shot `sql` on a `NODES`-node overlay built with `seed`,
/// each node storing its own rows, and returns the origin's answer next to
/// the reference evaluator's.  The reference reads the rows last node
/// first, so its input order differs from the network's.
fn distributed_and_reference(seed: u64, sql: &str) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut bed = PierTestbed::quick(NODES, seed);
    bed.create_table_everywhere(&table());
    let mut rows = Vec::new();
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        for j in 0..ROWS_PER_NODE {
            let tuple = row(i, i * ROWS_PER_NODE + j);
            rows.push(tuple.clone());
            bed.publish_local(addr, "m", tuple);
        }
    }
    let mut db = MemoryDb::new();
    db.insert("m", rows.into_iter().rev());
    let origin = bed.nodes()[NODES / 2];
    let q = bed.submit_sql(origin, sql).unwrap();
    bed.run_for(Duration::from_secs(15));

    let mut catalog = Catalog::new();
    catalog.register(table());
    let planned = Planner::new(&catalog).plan_select(&parse_select(sql).unwrap()).unwrap();
    (bed.results(origin, q, 0), db.execute(&planned.logical))
}

#[test]
fn aggregate_top_k_through_a_count_tie_matches_the_reference() {
    let sql = "SELECT g, COUNT(*) AS c FROM m GROUP BY g ORDER BY c DESC LIMIT 3";
    for seed in SEEDS {
        let (got, want) = distributed_and_reference(seed, sql);
        assert_eq!(want.len(), 3);
        assert!(same_rows(&got, &want), "seed {seed}: {got:?} vs reference {want:?}");
    }
}

#[test]
fn streaming_top_k_through_a_value_tie_matches_the_reference() {
    let sql = "SELECT g, v FROM m WHERE v > 0 ORDER BY v DESC LIMIT 3";
    for seed in SEEDS {
        let (got, want) = distributed_and_reference(seed, sql);
        assert_eq!(want.len(), 3);
        assert!(same_rows(&got, &want), "seed {seed}: {got:?} vs reference {want:?}");
    }
}
