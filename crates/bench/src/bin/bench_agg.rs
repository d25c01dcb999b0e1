//! Measures aggregation placement over a distributed 3-way join, and emits a
//! machine-readable `BENCH_agg.json` so future changes have a perf trajectory
//! to compare against.
//!
//! The workload runs `GROUP BY` over the `netstats ⋈ links ⋈ intrusions`
//! chain twice with the same seed and the same data:
//!
//! * **hierarchical** — each node partially aggregates its final-stage
//!   matches per (query, epoch) and the partials combine in-network over the
//!   DHT toward the aggregation root (PIER's in-network aggregation composed
//!   over the staged join);
//! * **raw_stream** — the final stage streams its raw matched rows to the
//!   origin, which performs the whole `GROUP BY` (the pre-aggregation
//!   baseline every PIER-like system starts from).
//!
//! The join-side traffic (rehashes, probes) is identical between the modes —
//! only the *result path* differs — so the result-path counters measure the
//! aggregation placement alone: `results_sent + partials_sent` counts the
//! result rows and partial states each placement ships.  Both runs must
//! produce identical group results (the float SUM is compared with a
//! relative epsilon: in-network partials merge in arrival order, and float
//! addition order differs between any two runs).
//!
//! Environment knobs: `PIER_NODES` (default 40), `PIER_SEED` (default 1).
//!
//! Run with: `cargo run --release -p pier-bench --bin bench_agg`

use pier_apps::netmon::netstats_table;
use pier_apps::snort::intrusions_table;
use pier_apps::topology::links_table;
use pier_bench::{
    env_parse, experiment_config, fmt_thousands, skewed_catalog, skewed_workload, write_bench_json,
    Json, SkewedWorkload,
};
use pier_core::engine::EngineStats;
use pier_core::prelude::*;
use pier_core::{Catalog, Planner, QueryKind};

const AGG_SQL: &str = "SELECT i.host, COUNT(*) AS n, SUM(n.out_rate) AS total \
     FROM netstats n JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
     WHERE n.out_rate > 1 GROUP BY i.host";

/// The skew knobs of this benchmark's instance of the shared workload.
const WORKLOAD: SkewedWorkload = SkewedWorkload { readings_per_host: 6, intrusion_every: 4 };

/// Every reported group (an intrusion host) folds ~2 links x 6 readings x 2
/// reports = ~24 matched rows, the compression hierarchical partials exploit.
fn workload(nodes: usize) -> (Vec<Tuple>, Vec<Tuple>, Vec<Tuple>) {
    skewed_workload(nodes, WORKLOAD)
}

fn catalog(nodes: usize) -> Catalog {
    skewed_catalog(nodes, WORKLOAD)
}

struct RunOutcome {
    stats: EngineStats,
    rows: Vec<Tuple>,
}

fn run_mode(nodes: usize, seed: u64, hierarchical: bool) -> RunOutcome {
    let cat = catalog(nodes);
    let stmt = pier_core::sql::parse_select(AGG_SQL).expect("agg SQL parses");
    let planned = Planner::new(&cat).plan_select(&stmt).expect("agg SQL plans");
    let mut kind = planned.kind.clone();
    let QueryKind::Join { aggregate: Some(agg), .. } = &mut kind else {
        panic!("expected an aggregate-over-join plan")
    };
    assert!(agg.hierarchical, "the cost model must pick hierarchical partials here");
    agg.hierarchical = hierarchical;

    let warmup = Duration::from_secs(if nodes > 100 { 120 } else { 40 });
    let pier = experiment_config();
    let mut bed =
        PierTestbed::new(TestbedConfig { nodes, seed, pier, warmup, ..Default::default() });
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
        .submit_query(origin, kind, planned.output_names.clone(), None)
        .expect("agg-over-join submits");
    bed.run_for(Duration::from_secs(30));

    let after = bed.engine_totals();
    let mut stats = after;
    // Subtract the (identical-per-seed) publication traffic so the numbers
    // describe the query itself.
    stats.messages_sent -= before.messages_sent;
    stats.bytes_shipped -= before.bytes_shipped;
    stats.join_tuples_sent -= before.join_tuples_sent;
    stats.results_sent -= before.results_sent;
    stats.partials_sent -= before.partials_sent;

    RunOutcome { stats, rows: bed.results(origin, q, 0) }
}

fn mode_json(r: &RunOutcome) -> Json {
    Json::Object(vec![
        ("messages_sent", r.stats.messages_sent.into()),
        ("bytes_shipped", r.stats.bytes_shipped.into()),
        ("join_tuples_sent", r.stats.join_tuples_sent.into()),
        ("join_matches", r.stats.join_matches.into()),
        ("results_sent", r.stats.results_sent.into()),
        ("partials_sent", r.stats.partials_sent.into()),
        ("group_rows", r.rows.len().into()),
    ])
}

fn main() {
    let nodes: usize = env_parse("PIER_NODES", 40);
    let seed: u64 = env_parse("PIER_SEED", 1);

    eprintln!("[agg] aggregate over 3-way join: {AGG_SQL}");
    eprintln!("[agg] {nodes} nodes, seed {seed}; running hierarchical partials …");
    let hier = run_mode(nodes, seed, true);
    eprintln!("[agg] running raw-row streaming baseline …");
    let raw = run_mode(nodes, seed, false);

    let identical = same_group_rows(&hier.rows, &raw.rows);
    // The join side is identical between the modes; the result path is
    // results_sent + partials_sent.
    let result_path = |s: &EngineStats| s.results_sent + s.partials_sent;
    let result_msg_ratio = result_path(&raw.stats) as f64 / result_path(&hier.stats).max(1) as f64;
    let byte_ratio = raw.stats.bytes_shipped as f64 / hier.stats.bytes_shipped.max(1) as f64;

    println!();
    println!("Aggregation placement over a 3-way join ({nodes} nodes)");
    println!();
    println!("{:<28} {:>16} {:>16}", "", "hierarchical", "raw stream");
    let row = |label: &str, a: u64, b: u64| {
        println!("{:<28} {:>16} {:>16}", label, fmt_thousands(a as f64), fmt_thousands(b as f64));
    };
    row("join tuples shipped", hier.stats.join_tuples_sent, raw.stats.join_tuples_sent);
    row("result rows shipped", hier.stats.results_sent, raw.stats.results_sent);
    row("partials shipped", hier.stats.partials_sent, raw.stats.partials_sent);
    row("engine messages sent", hier.stats.messages_sent, raw.stats.messages_sent);
    row("engine bytes shipped", hier.stats.bytes_shipped, raw.stats.bytes_shipped);
    row("group rows", hier.rows.len() as u64, raw.rows.len() as u64);
    println!();
    println!("result-path payloads improvement : {result_msg_ratio:.2}x");
    println!("bytes-shipped improvement        : {byte_ratio:.2}x");
    println!("group results identical          : {identical}");

    let workload = vec![("nodes", nodes.into()), ("seed", seed.into()), ("query", AGG_SQL.into())];
    write_bench_json(
        "BENCH_agg.json",
        vec![
            ("workload", Json::Object(workload)),
            ("hierarchical", mode_json(&hier)),
            ("raw_stream", mode_json(&raw)),
            ("result_path_messages_ratio", Json::Ratio(result_msg_ratio)),
            ("bytes_ratio", Json::Ratio(byte_ratio)),
            ("results_identical", identical.into()),
        ],
    );
    eprintln!("[agg] wrote BENCH_agg.json");

    assert!(identical, "aggregation placement changed the query's answer");
    assert!(
        hier.stats.results_sent < raw.stats.results_sent,
        "hierarchical partials must ship fewer result rows ({} vs {})",
        hier.stats.results_sent,
        raw.stats.results_sent
    );
}

/// Group-row multiset equality with a relative epsilon on the float SUM
/// column: in-network partials merge in arrival order, and float addition
/// order differs between any two runs.
fn same_group_rows(a: &[Tuple], b: &[Tuple]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let keyed = |rows: &[Tuple]| -> Vec<(String, i64, f64)> {
        let mut v: Vec<(String, i64, f64)> = rows
            .iter()
            .map(|r| {
                (
                    r.get(0).as_str().unwrap_or_default().to_string(),
                    r.get(1).as_i64().unwrap_or(0),
                    r.get(2).as_f64().unwrap_or(0.0),
                )
            })
            .collect();
        v.sort_by(|x, y| x.0.cmp(&y.0));
        v
    };
    keyed(a).into_iter().zip(keyed(b)).all(|((ha, ca, sa), (hb, cb, sb))| {
        ha == hb && ca == cb && (sa - sb).abs() <= f64::max(1.0, sa.abs()) * 1e-9
    })
}
