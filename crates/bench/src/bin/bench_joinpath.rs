//! Join-path performance: inner-stage Bloom semi-joins.  Emits
//! `BENCH_joinpath.json` with one gated ratio:
//!
//! * **inner_rehash_ratio** — a skewed 3-way join on the testbed where the
//!   final stage's right relation is large but mostly irrelevant: the
//!   inner-stage Bloom semi-join cuts the stage-≥1 right-relation rehash
//!   messages against the unfiltered run, at identical results.
//!
//! Environment knobs: `PIER_NODES` (default 40), `PIER_SEED` (default 1).
//!
//! Run with: `cargo run --release -p pier-bench --bin bench_joinpath`

use pier_apps::netmon::netstats_table;
use pier_apps::snort::intrusions_table;
use pier_apps::topology::links_table;
use pier_bench::{env_parse, experiment_config, skewed_catalog, skewed_workload, SkewedWorkload};
use pier_core::prelude::*;
use pier_core::trace::OpTrace;
use pier_core::{same_rows, Catalog, Planner, QueryKind};

const JOIN_SQL: &str = "SELECT i.host, i.rule_id, l.dst, n.out_rate FROM intrusions i \
     JOIN links l ON i.host = l.src JOIN netstats n ON l.dst = n.host";

/// The skew knobs of this benchmark's instance of the shared workload.
const WORKLOAD: SkewedWorkload = SkewedWorkload { readings_per_host: 20, intrusion_every: 8 };

/// The heavy-skew variant: 20 readings per host make the final `netstats`
/// stage large (>= 512 rows network-wide) and mostly irrelevant to the join.
fn workload(nodes: usize) -> (Vec<Tuple>, Vec<Tuple>, Vec<Tuple>) {
    skewed_workload(nodes, WORKLOAD)
}

fn catalog(nodes: usize) -> Catalog {
    skewed_catalog(nodes, WORKLOAD)
}

fn build_bed(nodes: usize, seed: u64, pier: PierConfig) -> PierTestbed {
    let warmup = Duration::from_secs(if nodes > 100 { 120 } else { 40 });
    let mut bed =
        PierTestbed::new(TestbedConfig { nodes, seed, pier, warmup, ..Default::default() });
    bed.create_table_everywhere(&netstats_table());
    bed.create_table_everywhere(&links_table());
    bed.create_table_everywhere(&intrusions_table());
    let (netstats, links, intrusions) = workload(nodes);
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        bed.publish_batch(addr, "netstats", netstats[20 * i..20 * (i + 1)].to_vec());
        bed.publish_batch(addr, "links", links[2 * i..2 * (i + 1)].to_vec());
    }
    let publisher = bed.nodes()[0];
    bed.publish_batch(publisher, "intrusions", intrusions);
    bed.run_for(Duration::from_secs(5));
    bed
}

struct InnerOutcome {
    rows: Vec<Tuple>,
    trace: OpTrace,
    inner_rehash_msgs: u64,
    wall_ms: u128,
}

/// One inner-Bloom measurement run: submit the forced-symmetric-hash 3-way
/// join, collect its result rows and the network-merged trace, and sum the
/// stage-≥1 right-relation rehash messages.
fn run_inner(nodes: usize, seed: u64, inner_bloom: bool) -> InnerOutcome {
    let started = std::time::Instant::now();
    let cat = catalog(nodes);
    let stmt = pier_core::sql::parse_select(JOIN_SQL).expect("join SQL parses");
    let planned = Planner::with_join_strategy(&cat, JoinStrategy::SymmetricHash)
        .plan_select(&stmt)
        .expect("join SQL plans");
    let QueryKind::Join { .. } = &planned.kind else { panic!("expected a join plan") };

    let mut pier = experiment_config();
    pier.inner_bloom = inner_bloom;
    // Give the phase-1/phase-2 handshake comfortable headroom so the
    // hold-down fallback measures losses, not a tight deadline.
    pier.bloom_fallback_delay = Duration::from_secs(8);
    let mut bed = build_bed(nodes, seed, pier);

    let origin = bed.nodes()[1];
    let q = bed
        .submit_query(origin, planned.kind.clone(), planned.output_names.clone(), None)
        .expect("join submits");
    bed.run_for(Duration::from_secs(30));
    let rows = bed.results(origin, q, 0);

    // Freeze the query, then collect the network-merged trace.
    bed.stop_query(origin, q);
    bed.run_for(Duration::from_secs(2));
    bed.sim().invoke(origin, move |node, ctx| node.request_traces(ctx, q));
    bed.run_for(Duration::from_secs(3));
    let trace = bed
        .sim()
        .node(origin)
        .and_then(|n| n.collected_trace(q))
        .map(|(_, t)| t.clone())
        .expect("trace collected");
    let inner_rehash_msgs =
        trace.stage_rehash_msgs.iter().filter(|(&s, _)| s >= 1).map(|(_, &n)| n).sum();
    InnerOutcome { rows, trace, inner_rehash_msgs, wall_ms: started.elapsed().as_millis() }
}

fn main() {
    let nodes: usize = env_parse("PIER_NODES", 40);
    let seed: u64 = env_parse("PIER_SEED", 1);

    eprintln!("[joinpath] inner-stage Bloom semi-join ({nodes} nodes, seed {seed}) …");
    let bloom_on = run_inner(nodes, seed, true);
    let bloom_off = run_inner(nodes, seed, false);
    let identical = same_rows(&bloom_on.rows, &bloom_off.rows);
    let inner_ratio = bloom_off.inner_rehash_msgs as f64 / bloom_on.inner_rehash_msgs.max(1) as f64;
    let tested: u64 = bloom_on.trace.stage_bloom_tested.values().sum();
    let passed: u64 = bloom_on.trace.stage_bloom_passed.values().sum();
    eprintln!(
        "[joinpath] inner rehash msgs: {} filtered vs {} unfiltered ({inner_ratio:.2}x); \
         bloom passed {passed}/{tested}; fallbacks {}; identical: {identical}",
        bloom_on.inner_rehash_msgs, bloom_off.inner_rehash_msgs, bloom_on.trace.bloom_fallbacks
    );

    println!();
    println!("Join-path performance ({nodes} nodes, seed {seed})");
    println!();
    println!("{:<44} {:>12}", "inner-stage rehash messages (off/on)", format!("{inner_ratio:.2}x"));
    println!("{:<44} {:>12}", "results identical", identical.to_string());

    let json = format!(
        "{{\n  \"workload\": {{\"nodes\": {nodes}, \"seed\": {seed}, \"query\": \"{}\"}},\n  \
         \"inner_bloom\": {{\"rehash_msgs_on\": {}, \"rehash_msgs_off\": {}, \
         \"bloom_tested\": {tested}, \"bloom_passed\": {passed}, \"fallbacks\": {}, \
         \"result_rows\": {}, \"wall_clock_ms\": {}}},\n  \
         \"inner_rehash_ratio\": {inner_ratio:.3},\n  \
         \"results_identical\": {identical}\n}}\n",
        JOIN_SQL.replace('"', "'"),
        bloom_on.inner_rehash_msgs,
        bloom_off.inner_rehash_msgs,
        bloom_on.trace.bloom_fallbacks,
        bloom_on.rows.len(),
        bloom_on.wall_ms + bloom_off.wall_ms,
    );
    std::fs::write("BENCH_joinpath.json", &json).expect("write BENCH_joinpath.json");
    eprintln!("[joinpath] wrote BENCH_joinpath.json");

    assert!(identical, "the inner-stage Bloom semi-join changed the query's answer");
}
