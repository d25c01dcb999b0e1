//! Measures the adaptive plan-quality loop and emits a machine-readable
//! `BENCH_adaptive.json` so future changes have a perf trajectory to compare
//! against.  Two phases:
//!
//! * **feedback** — the shared skewed monitoring workload extended to a
//!   4-way join (`netstats ⋈ links ⋈ intrusions ⋈ rules`) runs as a
//!   continuous query with deliberately *inverted* catalog statistics (the
//!   stale-stats worst case of `bench_joins`).  A static run keeps the
//!   misestimated left-deep order for every epoch; a run with
//!   `PierConfig::feedback` collects network-wide `OpTrace` counters, folds
//!   them into observed statistics and re-plans onto the trace-corrected
//!   order at an epoch boundary.  Across a post-correction measurement
//!   window the corrected plan must ship fewer engine wire messages, with
//!   bit-identical epoch results outside the two plan-swap epochs.
//!
//! * **bushy** — a four-table query whose predicate graph splits into two
//!   independent selective subchains (`sensors ⋈ alerts` and
//!   `flows ⋈ routes`) runs once under the left-deep plan and once under
//!   the bushy plan (concurrent subchains meeting at a rehash-merge stage).
//!   The bushy shape must ship fewer wire messages, with identical answers.
//!
//! Environment knobs: `PIER_NODES` (default 40), `PIER_SEED` (default 1).
//!
//! Run with: `cargo run --release -p pier-bench --bin bench_adaptive`

use pier_apps::netmon::netstats_table;
use pier_apps::snort::intrusions_table;
use pier_apps::topology::links_table;
use pier_bench::{
    env_parse, fmt_thousands, host, skewed_workload, write_bench_json, Json, SkewedWorkload,
};
use pier_core::prelude::*;
use pier_core::{same_rows, Catalog, Planner, QueryKind, TableStats};

// ---------------------------------------------------------------------
// Phase 1: trace-fed re-planning on a misestimated continuous 4-way
// ---------------------------------------------------------------------

/// The skew knobs of this benchmark's instance of the shared workload.
const WORKLOAD: SkewedWorkload = SkewedWorkload { readings_per_host: 6, intrusion_every: 8 };

const FEEDBACK_SQL: &str = "SELECT n.host, l.dst, i.rule_id, r.action FROM netstats n \
     JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
     JOIN rules r ON i.rule_id = r.rule_id \
     WHERE n.out_rate > 1 CONTINUOUS EVERY 5 SECONDS WINDOW 600 SECONDS";

/// The response-policy lookup table joined onto the intrusion reports: a
/// handful of rules, partitioned by rule id.
fn rules_table() -> TableDef {
    TableDef::new(
        "rules",
        Schema::of(&[("rule_id", DataType::Int), ("action", DataType::Str)]),
        "rule_id",
        Duration::from_secs(600),
    )
}

fn rules_rows() -> Vec<Tuple> {
    (0..10)
        .map(|r| {
            Tuple::new(vec![
                Value::Int(1400 + r),
                Value::str(if r % 2 == 0 { "drop" } else { "alert" }),
            ])
        })
        .collect()
}

/// One node of the feedback comparison: identical data and timers, only the
/// `feedback` flag differs.
fn feedback_bed(nodes: usize, seed: u64, feedback: bool) -> PierTestbed {
    let mut pier = PierConfig::fast_test();
    pier.feedback = feedback;
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed, pier, ..Default::default() });
    // The apps tables with a TTL long enough that one up-front publication
    // survives the whole multi-epoch run.
    for def in [netstats_table(), links_table(), intrusions_table()] {
        let partition = def.schema.names()[def.partition_column].to_string();
        let long = TableDef::new(
            def.name.as_str(),
            def.schema.clone(),
            &partition,
            Duration::from_secs(600),
        );
        bed.create_table_everywhere(&long);
    }
    bed.create_table_everywhere(&rules_table());

    // The stale-stats worst case: cardinalities of the big and the small
    // relation swapped (`bench_joins`'s inverted catalog), so the static
    // plan drives the chain from the huge `netstats` relation.
    let (netstats, links, intrusions) = skewed_workload(nodes, WORKLOAD);
    bed.set_table_stats_everywhere(
        "netstats",
        TableStats::with_rows(intrusions.len() as u64).distinct_keys(nodes as u64),
    );
    bed.set_table_stats_everywhere(
        "links",
        TableStats::with_rows(links.len() as u64).distinct_keys(nodes as u64),
    );
    bed.set_table_stats_everywhere(
        "intrusions",
        TableStats::with_rows(netstats.len() as u64)
            .distinct_keys((nodes / WORKLOAD.intrusion_every) as u64),
    );
    bed.set_table_stats_everywhere("rules", TableStats::with_rows(10).distinct_keys(10));

    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        let k = WORKLOAD.readings_per_host;
        bed.publish_batch(addr, "netstats", netstats[k * i..k * (i + 1)].to_vec());
        bed.publish_batch(addr, "links", links[2 * i..2 * (i + 1)].to_vec());
    }
    let publisher = bed.nodes()[0];
    bed.publish_batch(publisher, "intrusions", intrusions);
    bed.publish_batch(publisher, "rules", rules_rows());
    bed.run_for(Duration::from_secs(5));
    bed
}

struct FeedbackRun {
    /// Engine messages shipped inside the post-correction window.
    window_messages: u64,
    /// Engine messages shipped from submission to the end of the run.
    total_messages: u64,
    per_epoch: Vec<(u64, Vec<Tuple>)>,
    /// First (absolute) epoch inside the measurement window.
    window_epoch: u64,
    replans: u64,
    switches: Vec<String>,
}

/// The settle-then-measure timeline, identical for both runs: 45 s for the
/// feedback loop to collect traces and swap plans everywhere, then a 30 s
/// (6-epoch) measurement window.
const SETTLE_SECS: u64 = 45;
const WINDOW_SECS: u64 = 30;

fn run_feedback(nodes: usize, seed: u64, feedback: bool) -> FeedbackRun {
    let mut bed = feedback_bed(nodes, seed, feedback);
    let origin = bed.nodes()[1];
    let before = bed.engine_totals();
    let q = bed.submit_sql(origin, FEEDBACK_SQL).expect("feedback SQL submits");
    bed.run_for(Duration::from_secs(SETTLE_SECS));
    let window_epoch = bed.now().as_secs() / 5;
    let at_window = bed.engine_totals();
    bed.run_for(Duration::from_secs(WINDOW_SECS));
    let after = bed.engine_totals();

    let per_epoch: Vec<(u64, Vec<Tuple>)> =
        bed.epochs(origin, q).iter().map(|&e| (e, bed.results(origin, q, e))).collect();
    let switches = bed
        .node(origin)
        .and_then(|n| n.query_trace(q))
        .map(|t| t.switches.clone())
        .unwrap_or_default();
    FeedbackRun {
        window_messages: after.messages_sent - at_window.messages_sent,
        total_messages: after.messages_sent - before.messages_sent,
        per_epoch,
        window_epoch,
        replans: after.feedback_replans,
        switches,
    }
}

/// Epoch the feedback switch was staged at, parsed from the trace line
/// `epoch {e}: feedback: trace-corrected {old} -> {new}`.
fn flip_epoch(switches: &[String]) -> u64 {
    switches
        .iter()
        .find(|s| s.contains("feedback"))
        .and_then(|s| s.strip_prefix("epoch "))
        .and_then(|s| s.split(':').next())
        .and_then(|s| s.parse().ok())
        .expect("the feedback switch must record its epoch")
}

/// Compare the two runs epoch by epoch, excluding the flip epoch and the
/// one after it (remote nodes apply the staged spec at their own next
/// boundary, so those two epochs legitimately mix plans mid-swap).
/// Returns `(identical, settled epochs compared)`.
fn epochs_identical(
    fed: &[(u64, Vec<Tuple>)],
    stat: &[(u64, Vec<Tuple>)],
    flip: u64,
) -> (bool, usize) {
    let mut compared = 0;
    for (e, rows) in fed {
        if *e == flip || *e == flip + 1 {
            continue;
        }
        if let Some((_, base)) = stat.iter().find(|(se, _)| se == e) {
            if !same_rows(rows, base) {
                eprintln!(
                    "[adaptive] epoch {e}: {} corrected vs {} static rows",
                    rows.len(),
                    base.len()
                );
                return (false, compared);
            }
            compared += 1;
        }
    }
    (compared >= 3, compared)
}

// ---------------------------------------------------------------------
// Phase 2: bushy vs left-deep on independent subchains
// ---------------------------------------------------------------------

const BUSHY_SQL: &str = "SELECT s.host, a.level, f.bytes, r.hops FROM sensors s \
     JOIN alerts a ON s.host = a.host \
     JOIN flows f ON s.host = f.src \
     JOIN routes r ON f.src = r.src";

fn bushy_tables() -> Vec<TableDef> {
    vec![
        TableDef::new(
            "sensors",
            Schema::of(&[("host", DataType::Str), ("temp", DataType::Float)]),
            "host",
            Duration::from_secs(600),
        ),
        TableDef::new(
            "alerts",
            Schema::of(&[("host", DataType::Str), ("level", DataType::Int)]),
            "host",
            Duration::from_secs(600),
        ),
        TableDef::new(
            "flows",
            Schema::of(&[("src", DataType::Str), ("bytes", DataType::Float)]),
            "src",
            Duration::from_secs(600),
        ),
        TableDef::new(
            "routes",
            Schema::of(&[("src", DataType::Str), ("hops", DataType::Int)]),
            "src",
            Duration::from_secs(600),
        ),
    ]
}

/// Two wide streams (`sensors`, `flows`) and two narrow selective lookup
/// relations (`alerts`, `routes`): every host emits `readings_per_host`
/// sensor readings and flow records, while only one host in
/// `intrusion_every` raises alerts and advertises routes.  Joining each
/// wide stream down by its narrow partner *before* the crossing
/// `s.host = f.src` join is what makes the bushy shape pay off.
fn bushy_rows(nodes: usize) -> [Vec<Tuple>; 4] {
    let mut sensors = Vec::new();
    let mut alerts = Vec::new();
    let mut flows = Vec::new();
    let mut routes = Vec::new();
    for i in 0..nodes {
        for r in 0..8 {
            sensors.push(Tuple::new(vec![
                Value::str(host(nodes, i)),
                Value::Float(15.0 + (i % 9) as f64 + 0.5 * r as f64),
            ]));
            flows.push(Tuple::new(vec![
                Value::str(host(nodes, i)),
                Value::Float(((i * 37 + r * 11) % 4096) as f64),
            ]));
        }
        if i % 8 == 0 {
            for r in 0..2i64 {
                alerts.push(Tuple::new(vec![Value::str(host(nodes, i)), Value::Int(1 + r)]));
                routes.push(Tuple::new(vec![Value::str(host(nodes, i)), Value::Int(3 + r)]));
            }
        }
    }
    [sensors, alerts, flows, routes]
}

fn bushy_catalog(nodes: usize, rows: &[Vec<Tuple>; 4]) -> Catalog {
    let mut cat = Catalog::new();
    let narrow = ((nodes / 8).max(1)) as u64;
    for (def, data) in bushy_tables().into_iter().zip(rows.iter()) {
        let distinct = if data.len() > 2 * nodes { nodes as u64 } else { narrow };
        let stats = TableStats::with_rows(data.len() as u64).distinct_keys(distinct);
        let name = def.name.clone();
        cat.register(def);
        cat.set_stats(&name, stats);
    }
    cat
}

struct BushyRun {
    messages: u64,
    join_tuples: u64,
    rows: Vec<Tuple>,
    order: Vec<String>,
}

fn run_bushy_mode(nodes: usize, seed: u64, planned: &pier_core::PlannedQuery) -> BushyRun {
    let rows = bushy_rows(nodes);
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes,
        seed,
        pier: PierConfig::fast_test(),
        ..Default::default()
    });
    for def in bushy_tables() {
        bed.create_table_everywhere(&def);
    }
    let publisher = bed.nodes()[0];
    for (def, tuples) in bushy_tables().iter().zip(rows.iter()) {
        bed.publish_batch(publisher, &def.name, tuples.clone());
    }
    bed.run_for(Duration::from_secs(5));

    let origin = bed.nodes()[2];
    let before = bed.engine_totals();
    let q = bed
        .submit_query(origin, planned.kind.clone(), planned.output_names.clone(), None)
        .expect("bushy-phase query submits");
    bed.run_for(Duration::from_secs(25));
    let after = bed.engine_totals();

    BushyRun {
        messages: after.messages_sent - before.messages_sent,
        join_tuples: after.join_tuples_sent - before.join_tuples_sent,
        rows: bed.results(origin, q, 0),
        order: planned.kind.tables().iter().map(|s| s.to_string()).collect(),
    }
}

// ---------------------------------------------------------------------

fn main() {
    let nodes: usize = env_parse("PIER_NODES", 40);
    let seed: u64 = env_parse("PIER_SEED", 1);

    // ----- Phase 1: trace-fed re-planning -----
    eprintln!("[adaptive] 4-way {FEEDBACK_SQL}");
    eprintln!("[adaptive] {nodes} nodes, seed {seed}; running static (misestimated) plan …");
    let static_run = run_feedback(nodes, seed, false);
    eprintln!("[adaptive] running trace-fed plan …");
    let fed_run = run_feedback(nodes, seed, true);

    assert_eq!(static_run.replans, 0, "feedback off must not re-plan");
    assert!(fed_run.replans >= 1, "feedback must stage a trace-corrected plan");
    let flip = flip_epoch(&fed_run.switches);
    let window_start_epoch = fed_run.window_epoch;
    assert!(
        flip + 2 <= window_start_epoch,
        "the plan swap (epoch {flip}) must settle before the measurement window \
         (epoch {window_start_epoch})"
    );
    eprintln!(
        "[adaptive] static epochs: {:?}",
        static_run.per_epoch.iter().map(|(e, r)| (*e, r.len())).collect::<Vec<_>>()
    );
    eprintln!(
        "[adaptive] fed epochs:    {:?}",
        fed_run.per_epoch.iter().map(|(e, r)| (*e, r.len())).collect::<Vec<_>>()
    );
    let (feedback_identical, compared) =
        epochs_identical(&fed_run.per_epoch, &static_run.per_epoch, flip);
    let feedback_ratio = static_run.window_messages as f64 / fed_run.window_messages.max(1) as f64;

    // ----- Phase 2: bushy vs left-deep -----
    let rows = bushy_rows(nodes);
    let cat = bushy_catalog(nodes, &rows);
    let stmt = pier_core::sql::parse_select(BUSHY_SQL).expect("bushy SQL parses");
    let left_deep = Planner::new(&cat).plan_select(&stmt).expect("left-deep plan");
    let bushy = Planner::new(&cat).allow_bushy().plan_select(&stmt).expect("bushy plan");
    let has_scan_root = |kind: &QueryKind| {
        kind.join_stages().map(|s| s.iter().any(|st| st.left_scan.is_some())).unwrap_or(false)
    };
    assert!(!has_scan_root(&left_deep.kind), "without allow_bushy the plan must stay a chain");
    assert!(
        has_scan_root(&bushy.kind),
        "these statistics must make the bushy shape win: {:?}",
        bushy.kind
    );
    eprintln!("[adaptive] 4-way {BUSHY_SQL}");
    eprintln!("[adaptive] running left-deep …");
    let ld = run_bushy_mode(nodes, seed, &left_deep);
    eprintln!("[adaptive] running bushy (concurrent subchains) …");
    let bu = run_bushy_mode(nodes, seed, &bushy);

    let bushy_identical = same_rows(&ld.rows, &bu.rows);
    let bushy_ratio = ld.messages as f64 / bu.messages.max(1) as f64;
    let identical = feedback_identical && bushy_identical;

    // ----- Report -----
    println!();
    println!("Adaptive plan quality ({nodes} nodes, seed {seed})");
    println!();
    println!("Phase 1: trace-fed re-planning on the misestimated 4-way continuous join");
    println!("{:<36} {:>14} {:>14}", "", "static", "trace-fed");
    let row = |label: &str, a: u64, b: u64| {
        println!("{:<36} {:>14} {:>14}", label, fmt_thousands(a as f64), fmt_thousands(b as f64));
    };
    row("window messages (post-correction)", static_run.window_messages, fed_run.window_messages);
    row("total messages", static_run.total_messages, fed_run.total_messages);
    row("feedback re-plans", static_run.replans, fed_run.replans);
    println!("plan switch                          : {:?}", fed_run.switches);
    println!("post-correction message improvement  : {feedback_ratio:.2}x");
    println!("settled epochs identical             : {feedback_identical} ({compared} compared)");
    println!();
    println!("Phase 2: bushy vs left-deep on independent subchains");
    println!("{:<36} {:>14} {:>14}", "", "left-deep", "bushy");
    row("engine messages sent", ld.messages, bu.messages);
    row("join tuples shipped", ld.join_tuples, bu.join_tuples);
    row("result rows", ld.rows.len() as u64, bu.rows.len() as u64);
    println!("messages improvement                 : {bushy_ratio:.2}x");
    println!("results identical                    : {bushy_identical}");

    let workload = vec![
        ("nodes", nodes.into()),
        ("seed", seed.into()),
        ("feedback_query", FEEDBACK_SQL.into()),
        ("bushy_query", BUSHY_SQL.into()),
    ];
    let feedback = vec![
        ("static_window_messages", static_run.window_messages.into()),
        ("fed_window_messages", fed_run.window_messages.into()),
        ("static_total_messages", static_run.total_messages.into()),
        ("fed_total_messages", fed_run.total_messages.into()),
        ("replans", fed_run.replans.into()),
        ("flip_epoch", flip.into()),
        ("epochs_compared", compared.into()),
        ("switches", fed_run.switches.as_slice().into()),
    ];
    let bushy = vec![
        ("left_deep_messages", ld.messages.into()),
        ("bushy_messages", bu.messages.into()),
        ("left_deep_join_tuples", ld.join_tuples.into()),
        ("bushy_join_tuples", bu.join_tuples.into()),
        ("order", bu.order.as_slice().into()),
        ("result_rows", bu.rows.len().into()),
    ];
    write_bench_json(
        "BENCH_adaptive.json",
        vec![
            ("workload", Json::Object(workload)),
            ("feedback", Json::Object(feedback)),
            ("bushy", Json::Object(bushy)),
            ("feedback_messages_ratio", Json::Ratio(feedback_ratio)),
            ("bushy_messages_ratio", Json::Ratio(bushy_ratio)),
            ("results_identical", identical.into()),
        ],
    );
    eprintln!("[adaptive] wrote BENCH_adaptive.json");

    assert!(identical, "a plan change altered a query answer");
    assert!(
        fed_run.window_messages < static_run.window_messages,
        "the trace-corrected plan must ship fewer wire messages ({} vs {})",
        fed_run.window_messages,
        static_run.window_messages
    );
    assert!(
        bu.messages < ld.messages,
        "the bushy plan must ship fewer wire messages ({} vs {})",
        bu.messages,
        ld.messages
    );
}
