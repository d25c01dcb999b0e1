//! Measures cost-based join ordering on a distributed 3-way join, and emits
//! a machine-readable `BENCH_joins.json` so future changes have a perf
//! trajectory to compare against.
//!
//! The workload joins the paper's three application tables —
//! `netstats ⋈ links ⋈ intrusions` — over a deployment where the tables'
//! cardinalities are strongly skewed: every host reports several traffic
//! readings and two overlay links, but only one host in eight files
//! intrusion reports.  The same query runs twice with the same seed and the
//! same data:
//!
//! * **optimized** — planned with truthful statistics (what the PR 3 gossip
//!   plane converges to): the enumerator drives the chain from the tiny
//!   `intrusions` relation and probes `netstats` where profitable;
//! * **worst** — planned with the cardinalities *inverted*, the stale-stats
//!   worst case: the chain drives from the huge `netstats` relation and
//!   ships a massive intermediate.
//!
//! Both runs must produce identical join answers; the optimized order must
//! ship strictly fewer join tuples *and* fewer engine wire messages.
//!
//! Environment knobs: `PIER_NODES` (default 40), `PIER_SEED` (default 1).
//!
//! Run with: `cargo run --release -p pier-bench --bin bench_joins`

use pier_apps::netmon::netstats_table;
use pier_apps::snort::intrusions_table;
use pier_apps::topology::links_table;
use pier_bench::{
    env_parse, experiment_config, fmt_thousands, skewed_catalog, skewed_workload, write_bench_json,
    Json, SkewedWorkload,
};
use pier_core::engine::EngineStats;
use pier_core::prelude::*;
use pier_core::{same_rows, Catalog, Planner, QueryKind, TableStats};

const JOIN_SQL: &str = "SELECT i.host, i.rule_id, l.dst, n.out_rate FROM netstats n \
     JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
     WHERE n.out_rate > 1";

/// The skew knobs of this benchmark's instance of the shared workload.
const WORKLOAD: SkewedWorkload = SkewedWorkload { readings_per_host: 6, intrusion_every: 8 };

fn workload(nodes: usize) -> (Vec<Tuple>, Vec<Tuple>, Vec<Tuple>) {
    skewed_workload(nodes, WORKLOAD)
}

fn catalog(nodes: usize, inverted: bool) -> Catalog {
    let mut cat = skewed_catalog(nodes, WORKLOAD);
    if inverted {
        // The worst case: cardinalities of the big and the small relation
        // swapped, as if the statistics were badly stale.
        let (netstats, _, intrusions) = workload(nodes);
        cat.set_stats(
            "netstats",
            TableStats::with_rows(intrusions.len() as u64).distinct_keys(nodes as u64),
        );
        cat.set_stats(
            "intrusions",
            TableStats::with_rows(netstats.len() as u64).distinct_keys((nodes / 8) as u64),
        );
    }
    cat
}

struct RunOutcome {
    stats: EngineStats,
    order: Vec<String>,
    rows: Vec<Tuple>,
}

fn run_mode(nodes: usize, seed: u64, inverted: bool) -> RunOutcome {
    let cat = catalog(nodes, inverted);
    let stmt = pier_core::sql::parse_select(JOIN_SQL).expect("join SQL parses");
    let planned = Planner::new(&cat).plan_select(&stmt).expect("join SQL plans");
    let QueryKind::Join { .. } = &planned.kind else { panic!("expected a join plan") };
    let order: Vec<String> = planned.kind.tables().iter().map(|s| s.to_string()).collect();

    let warmup = Duration::from_secs(if nodes > 100 { 120 } else { 40 });
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes,
        seed,
        pier: experiment_config(),
        warmup,
        ..Default::default()
    });
    bed.create_table_everywhere(&netstats_table());
    bed.create_table_everywhere(&links_table());
    bed.create_table_everywhere(&intrusions_table());
    let (netstats, links, intrusions) = workload(nodes);
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        bed.publish_batch(addr, "netstats", netstats[6 * i..6 * (i + 1)].to_vec());
        bed.publish_batch(addr, "links", links[2 * i..2 * (i + 1)].to_vec());
    }
    let publisher = bed.nodes()[0];
    bed.publish_batch(publisher, "intrusions", intrusions);
    bed.run_for(Duration::from_secs(5));

    let origin = bed.nodes()[1];
    let before = bed.engine_totals();
    let q = bed
        .submit_query(origin, planned.kind.clone(), planned.output_names.clone(), None)
        .expect("join submits");
    bed.run_for(Duration::from_secs(30));

    let after = bed.engine_totals();
    let mut stats = after;
    // Subtract the (identical-per-seed) publication traffic so the numbers
    // describe the join itself.
    stats.messages_sent -= before.messages_sent;
    stats.bytes_shipped -= before.bytes_shipped;
    stats.join_tuples_sent -= before.join_tuples_sent;

    RunOutcome { stats, order, rows: bed.results(origin, q, 0) }
}

fn mode_json(r: &RunOutcome) -> Json {
    Json::Object(vec![
        ("order", r.order.as_slice().into()),
        ("messages_sent", r.stats.messages_sent.into()),
        ("bytes_shipped", r.stats.bytes_shipped.into()),
        ("join_tuples_sent", r.stats.join_tuples_sent.into()),
        ("join_matches", r.stats.join_matches.into()),
        ("result_rows", r.rows.len().into()),
    ])
}

fn main() {
    let nodes: usize = env_parse("PIER_NODES", 40);
    let seed: u64 = env_parse("PIER_SEED", 1);

    eprintln!("[joins] 3-way {JOIN_SQL}");
    eprintln!("[joins] {nodes} nodes, seed {seed}; running stats-driven order …");
    let optimized = run_mode(nodes, seed, false);
    eprintln!("[joins] order: {:?}; running worst (inverted-stats) order …", optimized.order);
    let worst = run_mode(nodes, seed, true);
    eprintln!("[joins] order: {:?}", worst.order);

    assert_ne!(
        optimized.order, worst.order,
        "inverting the statistics must flip the chosen join order"
    );
    let identical = same_rows(&optimized.rows, &worst.rows);
    let msg_ratio = worst.stats.messages_sent as f64 / optimized.stats.messages_sent.max(1) as f64;

    println!();
    println!("Cost-based join ordering: 3-way netstats ⋈ links ⋈ intrusions ({nodes} nodes)");
    println!();
    println!("{:<28} {:>16} {:>16}", "", "optimized", "worst order");
    let row = |label: &str, a: u64, b: u64| {
        println!("{:<28} {:>16} {:>16}", label, fmt_thousands(a as f64), fmt_thousands(b as f64));
    };
    println!(
        "{:<28} {:>16} {:>16}",
        "join order",
        optimized.order.join("⋈"),
        worst.order.join("⋈")
    );
    row("join tuples shipped", optimized.stats.join_tuples_sent, worst.stats.join_tuples_sent);
    row("engine messages sent", optimized.stats.messages_sent, worst.stats.messages_sent);
    row("engine bytes shipped", optimized.stats.bytes_shipped, worst.stats.bytes_shipped);
    row("result rows", optimized.rows.len() as u64, worst.rows.len() as u64);
    println!();
    println!("messages-sent improvement : {msg_ratio:.2}x");
    println!("results identical         : {identical}");

    let workload = vec![("nodes", nodes.into()), ("seed", seed.into()), ("query", JOIN_SQL.into())];
    write_bench_json(
        "BENCH_joins.json",
        vec![
            ("workload", Json::Object(workload)),
            ("optimized", mode_json(&optimized)),
            ("worst", mode_json(&worst)),
            ("messages_ratio", Json::Ratio(msg_ratio)),
            ("results_identical", identical.into()),
        ],
    );
    eprintln!("[joins] wrote BENCH_joins.json");

    assert!(identical, "the join order changed the query's answer");
    assert!(
        optimized.stats.messages_sent < worst.stats.messages_sent,
        "the stats-driven order must ship fewer wire messages ({} vs {})",
        optimized.stats.messages_sent,
        worst.stats.messages_sent
    );
}
