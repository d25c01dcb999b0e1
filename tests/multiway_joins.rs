//! Distributed multi-way joins: staged execution over the DHT.
//!
//! * A 3-way join over the paper's `netstats` / `links` / `intrusions`
//!   application tables runs distributed as a chain of join stages —
//!   each stage's output rehashed by the next stage's key into an
//!   intermediate DHT namespace — and matches the centralized reference
//!   evaluator under **every** strategy mix (stats-driven, forced
//!   symmetric rehash, forced Fetch-Matches, forced Bloom).
//! * `EXPLAIN ANALYZE` renders per-stage trace sections whose totals
//!   reconcile with the network-wide engine counters.
//! * `EXPLAIN` shows the statistics-driven join order, and the order flips
//!   when the cardinalities flip.

use pier::apps::netmon::netstats_table;
use pier::apps::snort::intrusions_table;
use pier::apps::topology::links_table;
use pier::core::{same_rows, Catalog, JoinStrategy, MemoryDb, Planner, QueryKind, TableStats};
use pier::prelude::*;

const THREE_WAY: &str = "SELECT n.host, l.dst, i.rule_id FROM netstats n \
     JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
     WHERE n.out_rate > 10";

/// Deterministic three-table workload: every host reports one traffic
/// reading, two overlay links, and (on even hosts) two intrusion reports.
fn rows(nodes: usize) -> (Vec<Tuple>, Vec<Tuple>, Vec<Tuple>) {
    let host = |i: usize| format!("host-{}", i % nodes);
    let mut netstats = Vec::new();
    let mut links = Vec::new();
    let mut intrusions = Vec::new();
    for i in 0..nodes {
        netstats.push(Tuple::new(vec![
            Value::str(host(i)),
            Value::Float(5.0 * (i % 5) as f64),
            Value::Float(3.0),
        ]));
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
                    Value::Int(3 + r),
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

/// Boot a deployment with the workload routed into the DHT (Fetch-Matches
/// probes need tuples at their responsible nodes) plus the matching
/// centralized reference database.
fn three_way_bed(nodes: usize, seed: u64) -> (PierTestbed, MemoryDb) {
    let pier = PierConfig::fast_test();
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
fn three_way_join_matches_reference_under_all_strategy_mixes() {
    let nodes = 14;
    let catalog = catalog_with_stats(nodes);
    let stmt = pier::core::sql::parse_select(THREE_WAY).unwrap();

    let planners: Vec<(&str, Planner)> = vec![
        ("stats-driven", Planner::new(&catalog)),
        ("forced-symmetric", Planner::with_join_strategy(&catalog, JoinStrategy::SymmetricHash)),
        ("forced-fetch", Planner::with_join_strategy(&catalog, JoinStrategy::FetchMatches)),
        ("forced-bloom", Planner::with_join_strategy(&catalog, JoinStrategy::BloomFilter)),
    ];
    for (label, planner) in planners {
        let planned = planner.plan_select(&stmt).unwrap();
        let QueryKind::Join { stages, .. } = &planned.kind else {
            panic!("{label}: expected a join plan");
        };
        assert_eq!(stages.len(), 2, "{label}: a 3-way join lowers to two stages");

        let (mut bed, db) = three_way_bed(nodes, 0x3A00 + label.len() as u64);
        let origin = bed.nodes()[2];
        let q = bed
            .submit_query(origin, planned.kind.clone(), planned.output_names.clone(), None)
            .unwrap();
        bed.run_for(Duration::from_secs(20));

        let distributed = bed.results(origin, q, 0);
        let reference = db.execute(&planned.logical);
        assert!(!reference.is_empty(), "{label}: the workload must produce matches");
        assert!(
            same_rows(&distributed, &reference),
            "{label}: {} distributed vs {} reference rows",
            distributed.len(),
            reference.len()
        );
    }
}

#[test]
fn explain_analyze_renders_per_stage_sections_that_reconcile() {
    // publish_local keeps every non-query wire path silent, so the analyzed
    // query's network-wide trace must equal the engine-wide counters.  With
    // no statistics installed every stage stays on symmetric rehash, which
    // needs no routed placement of base tuples.
    let nodes = 12;
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed: 2026, ..Default::default() });
    bed.create_table_everywhere(&netstats_table());
    bed.create_table_everywhere(&links_table());
    bed.create_table_everywhere(&intrusions_table());
    let (netstats, links, intrusions) = rows(nodes);
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        bed.publish_local(addr, "netstats", netstats[i].clone());
        bed.publish_local(addr, "links", links[2 * i].clone());
        bed.publish_local(addr, "links", links[2 * i + 1].clone());
    }
    for (j, t) in intrusions.iter().enumerate() {
        let addr = bed.nodes()[j % nodes];
        bed.publish_local(addr, "intrusions", t.clone());
    }
    bed.run_for(Duration::from_secs(2));

    let origin = bed.nodes()[1];
    let sql = format!("EXPLAIN ANALYZE {THREE_WAY} CONTINUOUS EVERY 5 SECONDS WINDOW 600 SECONDS");
    let report = bed.explain_analyze(origin, &sql, Duration::from_secs(18)).unwrap();

    assert!(report.contains("== distributed physical plan =="), "{report}");
    assert!(report.contains("stage 0"), "{report}");
    assert!(report.contains("stage 1"), "{report}");
    assert!(report.contains("staged join"), "{report}");

    let node = bed.node(origin).unwrap();
    let (reporters, trace) = {
        let (r, t) = node.collected_trace(node.originated_queries()[0]).unwrap();
        (r, t.clone())
    };
    assert_eq!(reporters, nodes as u64, "every node must report its trace");

    let totals = bed.engine_totals();
    assert_eq!(trace.tuples_scanned, totals.tuples_scanned);
    assert_eq!(trace.tuples_shipped, totals.join_tuples_sent);
    assert_eq!(trace.join_matches, totals.join_matches);
    assert_eq!(trace.results_sent, totals.results_sent);
    assert_eq!(trace.messages_sent, totals.messages_sent);
    assert_eq!(trace.bytes_shipped, totals.bytes_shipped);

    // The per-stage sections partition the totals exactly.
    let shipped: u64 = trace.stage_shipped.values().sum();
    let matches: u64 = trace.stage_matches.values().sum();
    assert_eq!(shipped, trace.tuples_shipped);
    assert_eq!(matches, trace.join_matches);
    assert!(trace.stage_shipped.get(&0).copied().unwrap_or(0) > 0, "{trace:?}");
    assert!(trace.stage_shipped.get(&1).copied().unwrap_or(0) > 0, "{trace:?}");
    assert!(trace.stage_matches.get(&1).copied().unwrap_or(0) > 0, "{trace:?}");
}

#[test]
fn explain_shows_statistics_driven_order_that_flips() {
    let nodes = 8;
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed: 91, ..Default::default() });
    bed.create_table_everywhere(&netstats_table());
    bed.create_table_everywhere(&links_table());
    bed.create_table_everywhere(&intrusions_table());
    let origin = bed.nodes()[0];

    // Tiny intrusions, huge netstats: the chain should not be driven by
    // netstats.
    bed.set_table_stats_everywhere("netstats", TableStats::with_rows(200_000));
    bed.set_table_stats_everywhere("links", TableStats::with_rows(2_000));
    bed.set_table_stats_everywhere("intrusions", TableStats::with_rows(20));
    let a = bed.explain(origin, &format!("EXPLAIN {THREE_WAY}")).unwrap();
    assert!(a.contains("join order:"), "{a}");

    // Flip the cardinalities: the chosen order must flip too.
    bed.set_table_stats_everywhere("netstats", TableStats::with_rows(20));
    bed.set_table_stats_everywhere("links", TableStats::with_rows(2_000));
    bed.set_table_stats_everywhere("intrusions", TableStats::with_rows(200_000));
    let b = bed.explain(origin, &format!("EXPLAIN {THREE_WAY}")).unwrap();
    assert!(b.contains("join order:"), "{b}");

    let order_line = |text: &str| {
        text.lines()
            .find(|l| l.contains("join order:"))
            .expect("EXPLAIN must render the chosen order")
            .trim()
            .to_string()
    };
    assert_ne!(order_line(&a), order_line(&b), "flipped statistics must flip the join order");
    // With huge netstats the chain starts from the small end, and vice versa.
    assert!(
        !order_line(&a).contains("join order: netstats"),
        "200k-row netstats must not drive: {a}"
    );
    assert!(
        !order_line(&b).contains("join order: intrusions"),
        "200k-row intrusions must not drive: {b}"
    );
}
