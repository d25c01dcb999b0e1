//! Aggregation over multi-way joins: the final join stage feeds the
//! hierarchical aggregation plane instead of streaming raw rows to the origin.
//!
//! * A `GROUP BY` with `COUNT`/`SUM`/`AVG`/`MIN`/`MAX` and `HAVING` over the
//!   3-way `netstats ⋈ links ⋈ intrusions` chain matches the centralized
//!   reference under **every** join-strategy mix, in both aggregation
//!   placements (hierarchical partials and the raw-row streaming baseline).
//! * The workload groups by the final stage's join key, so the aggregate is
//!   *colocated*: no partial states climb the tree.  Each join site ships
//!   its groups one direct hop to the origin, and the result path still
//!   ships measurably fewer messages than the raw-row baseline at identical
//!   answers.
//! * `EXPLAIN ANALYZE` renders the per-stage *and* aggregation trace
//!   sections, and the totals reconcile field-for-field with
//!   `engine_totals()`.
//! * A live continuous aggregate-over-join re-plans mid-flight when gossiped
//!   statistics flip the cost ranking, with identical pre/post epoch results.
//! * Global aggregates over joins report their one empty row even when the
//!   join produces no matches.

use pier::apps::netmon::netstats_table;
use pier::apps::snort::intrusions_table;
use pier::apps::topology::links_table;
use pier::core::{same_rows, Catalog, JoinStrategy, MemoryDb, Planner, QueryKind, TableStats};
use pier::prelude::*;

const AGG_3WAY: &str = "SELECT i.host, COUNT(*) AS n, SUM(n.out_rate) AS total, \
     AVG(n.out_rate) AS mean, MIN(i.hits) AS lo, MAX(i.hits) AS hi \
     FROM netstats n JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
     WHERE n.out_rate > 2 GROUP BY i.host HAVING COUNT(*) >= 2 ORDER BY i.host";

/// Deterministic three-table workload: every host reports two traffic
/// readings, two overlay links, and (on even hosts) two intrusion reports.
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
fn group_by_over_three_way_join_matches_reference_under_all_strategy_mixes() {
    let nodes = 14;
    let catalog = catalog_with_stats(nodes);
    let stmt = pier::core::sql::parse_select(AGG_3WAY).unwrap();

    let planners: Vec<(&str, Planner)> = vec![
        ("stats-driven", Planner::new(&catalog)),
        ("forced-symmetric", Planner::with_join_strategy(&catalog, JoinStrategy::SymmetricHash)),
        ("forced-fetch", Planner::with_join_strategy(&catalog, JoinStrategy::FetchMatches)),
        ("forced-bloom", Planner::with_join_strategy(&catalog, JoinStrategy::BloomFilter)),
    ];
    for (label, planner) in planners {
        let planned = planner.plan_select(&stmt).unwrap();
        let QueryKind::Join { stages, aggregate, .. } = &planned.kind else {
            panic!("{label}: expected an aggregate-over-join plan");
        };
        assert_eq!(stages.len(), 2, "{label}: a 3-way join lowers to two stages");
        assert!(aggregate.is_some(), "{label}: the aggregate must terminate the chain");

        // Both placements: hierarchical in-network partials, and the raw-row
        // streaming baseline.  Both must equal the centralized reference.
        for hierarchical in [true, false] {
            let mut kind = planned.kind.clone();
            if let QueryKind::Join { aggregate: Some(agg), .. } = &mut kind {
                agg.hierarchical = hierarchical;
            }
            let (mut bed, db) = three_way_bed(
                nodes,
                0xA660 + label.len() as u64 + hierarchical as u64,
                PierConfig::fast_test(),
            );
            let origin = bed.nodes()[2];
            let q = bed.submit_query(origin, kind, planned.output_names.clone(), None).unwrap();
            bed.run_for(Duration::from_secs(25));

            let distributed = bed.results(origin, q, 0);
            let reference = db.execute(&planned.logical);
            assert!(!reference.is_empty(), "{label}: the workload must produce groups");
            assert!(
                same_rows(&distributed, &reference),
                "{label} (hierarchical={hierarchical}): {} distributed vs {} reference rows\n\
                 distributed: {distributed:?}\nreference: {reference:?}",
                distributed.len(),
                reference.len()
            );
        }
    }
}

#[test]
fn hierarchical_partials_ship_fewer_result_rows_than_raw_streaming() {
    let nodes = 14;
    let catalog = catalog_with_stats(nodes);
    let stmt = pier::core::sql::parse_select(AGG_3WAY).unwrap();
    let planned = Planner::new(&catalog).plan_select(&stmt).unwrap();

    let run = |hierarchical: bool| {
        let mut kind = planned.kind.clone();
        if let QueryKind::Join { aggregate: Some(agg), .. } = &mut kind {
            agg.hierarchical = hierarchical;
        }
        let (mut bed, db) = three_way_bed(nodes, 0xCAFE, PierConfig::fast_test());
        let before = bed.engine_totals();
        let origin = bed.nodes()[2];
        let q = bed.submit_query(origin, kind, planned.output_names.clone(), None).unwrap();
        bed.run_for(Duration::from_secs(25));
        let rows = bed.results(origin, q, 0);
        assert!(same_rows(&rows, &db.execute(&planned.logical)), "hierarchical={hierarchical}");
        let mut stats = bed.engine_totals();
        stats.results_sent -= before.results_sent;
        stats.partials_sent -= before.partials_sent;
        stats.partials_merged -= before.partials_merged;
        (stats, rows)
    };

    let (hier, hier_rows) = run(true);
    let (raw, raw_rows) = run(false);
    assert!(same_rows(&hier_rows, &raw_rows), "placement must not change the answer");
    // This workload groups by the final stage's join key, so the planner
    // marks the aggregate *colocated*: every group's rows already live at
    // one join site, and each site ships its groups to the origin in one
    // direct partial.  The origin merges every partial sent: none is relayed
    // or combined on the way.
    assert!(hier.partials_sent > 0, "join sites must ship their groups");
    assert_eq!(
        hier.partials_sent, hier.partials_merged,
        "colocated partials must reach the origin in one direct hop"
    );
    assert_eq!(raw.partials_sent, 0, "raw streaming must not produce partials");
    assert!(
        hier.partials_sent + hier.results_sent < raw.results_sent,
        "partials must compress the result path: {} partials + {} result rows (hier) vs {} \
         result rows (raw)",
        hier.partials_sent,
        hier.results_sent,
        raw.results_sent
    );
}

#[test]
fn explain_analyze_renders_aggregation_section_that_reconciles() {
    // publish_local keeps every non-query wire path silent, so the analyzed
    // query's network-wide trace must equal the engine-wide counters.
    let nodes = 12;
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed: 2027, ..Default::default() });
    bed.create_table_everywhere(&netstats_table());
    bed.create_table_everywhere(&links_table());
    bed.create_table_everywhere(&intrusions_table());
    let (netstats, links, intrusions) = rows(nodes);
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        bed.publish_local(addr, "netstats", netstats[2 * i].clone());
        bed.publish_local(addr, "netstats", netstats[2 * i + 1].clone());
        bed.publish_local(addr, "links", links[2 * i].clone());
        bed.publish_local(addr, "links", links[2 * i + 1].clone());
    }
    for (j, t) in intrusions.iter().enumerate() {
        let addr = bed.nodes()[j % nodes];
        bed.publish_local(addr, "intrusions", t.clone());
    }
    bed.run_for(Duration::from_secs(2));

    let origin = bed.nodes()[1];
    let sql = format!("EXPLAIN ANALYZE {AGG_3WAY} CONTINUOUS EVERY 5 SECONDS WINDOW 600 SECONDS");
    let report = bed.explain_analyze(origin, &sql, Duration::from_secs(18)).unwrap();

    assert!(report.contains("== distributed physical plan =="), "{report}");
    assert!(report.contains("aggregate above the final stage"), "{report}");
    assert!(report.contains("stage 0"), "{report}");
    assert!(report.contains("stage 1"), "{report}");
    assert!(report.contains("aggregate over the join"), "{report}");

    let node = bed.node(origin).unwrap();
    let (reporters, trace) = {
        let (r, t) = node.collected_trace(node.originated_queries()[0]).unwrap();
        (r, t.clone())
    };
    assert_eq!(reporters, nodes as u64, "every node must report its trace");

    let totals = bed.engine_totals();
    assert_eq!(trace.epochs_run, totals.epochs_run);
    assert_eq!(trace.tuples_scanned, totals.tuples_scanned);
    assert_eq!(trace.tuples_shipped, totals.join_tuples_sent);
    assert_eq!(trace.join_matches, totals.join_matches);
    assert_eq!(trace.partials_sent, totals.partials_sent);
    assert_eq!(trace.partials_merged, totals.partials_merged);
    assert_eq!(trace.results_sent, totals.results_sent);
    assert_eq!(trace.messages_sent, totals.messages_sent);
    assert_eq!(trace.batches_sent, totals.batches_sent);
    assert_eq!(trace.bytes_shipped, totals.bytes_shipped);
    // GROUP BY i.host = the final stage's join key, so the aggregate is
    // colocated with the join sites.  This continuous query closes its
    // epochs on completion, so each site ships its groups (and credit) one
    // direct hop to the origin, the root, which merges them: no partial is
    // relayed.
    assert!(trace.partials_sent > 0, "join sites must ship their groups to the origin");
    assert_eq!(trace.partials_sent, trace.partials_merged);
    let merged_at_origin = bed.node(origin).unwrap().stats().partials_merged;
    assert_eq!(merged_at_origin, totals.partials_sent, "every partial reaches the origin");

    // The per-stage sections still partition the join-side totals exactly.
    let shipped: u64 = trace.stage_shipped.values().sum();
    let matches: u64 = trace.stage_matches.values().sum();
    assert_eq!(shipped, trace.tuples_shipped);
    assert_eq!(matches, trace.join_matches);
}

#[test]
fn continuous_agg_over_join_replans_mid_flight_with_identical_epoch_results() {
    // Same shape as the stats_gossip flip test, but the continuous query is a
    // GROUP BY over the join: gossiped statistics flip the stage strategy at
    // an epoch boundary and the per-epoch group results must not change.
    let nodes = 14;
    let mut pier = PierConfig::fast_test();
    pier.auto_stats = true;
    pier.stats_interval = Duration::from_millis(4_000);
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed: 1612, pier, ..Default::default() });
    let sensors = TableDef::new(
        "sensors",
        Schema::of(&[("sid", DataType::Int), ("label", DataType::Str)]),
        "sid",
        Duration::from_secs(600),
    );
    let readings = TableDef::new(
        "readings",
        Schema::of(&[("rid", DataType::Int), ("sid", DataType::Int), ("v", DataType::Int)]),
        "rid",
        Duration::from_secs(600),
    );
    bed.create_table_everywhere(&sensors);
    bed.create_table_everywhere(&readings);

    let n_sensors = 30i64;
    let n_readings = 600i64;
    let addrs = bed.nodes().to_vec();
    let sensor_rows: Vec<Tuple> = (0..n_sensors)
        .map(|s| Tuple::new(vec![Value::Int(s), Value::str(format!("sensor-{s}"))]))
        .collect();
    let reading_rows: Vec<Tuple> = (0..n_readings)
        .map(|r| Tuple::new(vec![Value::Int(r), Value::Int(r % n_sensors), Value::Int(r * 3)]))
        .collect();
    for (i, chunk) in sensor_rows.chunks(8).enumerate() {
        bed.publish_batch(addrs[i % addrs.len()], "sensors", chunk.to_vec());
    }
    for (i, chunk) in reading_rows.chunks(40).enumerate() {
        bed.publish_batch(addrs[(i + 3) % addrs.len()], "readings", chunk.to_vec());
    }
    bed.run_for(Duration::from_secs(3));

    let origin = bed.nodes()[2];
    let sql = "SELECT s.label, COUNT(*) AS n, SUM(r.v) AS total \
               FROM sensors s JOIN readings r ON s.sid = r.sid GROUP BY s.label \
               CONTINUOUS EVERY 5 SECONDS WINDOW 600 SECONDS";
    let id = bed.submit_sql(origin, sql).unwrap();
    bed.run_for(Duration::from_secs(65));

    let node = bed.node(origin).unwrap();
    let trace = node.query_trace(id).expect("continuous query is still installed");
    assert!(trace.replans >= 1, "gossiped stats must flip the plan: {trace:?}");
    let switch = trace.switches.first().expect("switch must be recorded").clone();
    let flip_epoch: u64 = switch
        .strip_prefix("epoch ")
        .and_then(|s| s.split(':').next())
        .and_then(|s| s.parse().ok())
        .expect("switch records its epoch");

    // Every reading joins exactly one sensor; each sensor has 20 readings.
    let expected: Vec<Tuple> = (0..n_sensors)
        .map(|s| {
            let total: i64 = (0..n_readings).filter(|r| r % n_sensors == s).map(|r| r * 3).sum();
            Tuple::new(vec![
                Value::str(format!("sensor-{s}")),
                Value::Int(n_readings / n_sensors),
                Value::Int(total),
            ])
        })
        .collect();

    let epochs = bed.epochs(origin, id);
    let pre = epochs.iter().copied().filter(|&e| e < flip_epoch).max().expect("a pre-flip epoch");
    let post = flip_epoch + 2;
    assert!(
        epochs.contains(&post) && epochs.iter().max().copied().unwrap_or(0) > post,
        "run must extend beyond the flip: epochs {epochs:?}, flip {flip_epoch}"
    );

    let pre_rows = bed.results(origin, id, pre);
    let post_rows = bed.results(origin, id, post);
    assert!(
        same_rows(&pre_rows, &expected),
        "pre-flip epoch {pre}: {} rows vs {} expected",
        pre_rows.len(),
        expected.len()
    );
    assert!(same_rows(&post_rows, &expected), "flip must not change epoch results");
}

#[test]
fn global_aggregate_over_join_reports_empty_row_without_matches() {
    let nodes = 10;
    let catalog = catalog_with_stats(nodes);
    // A filter no tuple passes: the join produces zero matches, yet the
    // global aggregate must still answer its single COUNT = 0 row.
    let sql = "SELECT COUNT(*) AS n, SUM(n.out_rate) AS total FROM netstats n \
               JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
               WHERE n.out_rate > 1000000";
    let stmt = pier::core::sql::parse_select(sql).unwrap();
    let planned = Planner::new(&catalog).plan_select(&stmt).unwrap();
    assert!(planned.kind.join_aggregate().is_some());

    let (mut bed, db) = three_way_bed(nodes, 0xE0F, PierConfig::fast_test());
    let origin = bed.nodes()[3];
    let q =
        bed.submit_query(origin, planned.kind.clone(), planned.output_names.clone(), None).unwrap();
    bed.run_for(Duration::from_secs(20));

    let distributed = bed.results(origin, q, 0);
    let reference = db.execute(&planned.logical);
    assert_eq!(reference.len(), 1, "SQL: a global aggregate always yields one row");
    assert!(
        same_rows(&distributed, &reference),
        "distributed {distributed:?} vs reference {reference:?}"
    );
    assert_eq!(distributed[0].get(0), &Value::Int(0));
    assert!(distributed[0].get(1).is_null());
}

#[test]
fn plan_cache_serves_repeat_agg_over_join_submissions() {
    let nodes = 8;
    let (mut bed, _) = three_way_bed(nodes, 0x11, PierConfig::fast_test());
    let origin = bed.nodes()[0];
    let sql = "SELECT l.src, COUNT(*) AS n FROM links l JOIN intrusions i ON l.dst = i.host \
               GROUP BY l.src";
    for _ in 0..3 {
        bed.submit_sql(origin, sql).unwrap();
        bed.run_for(Duration::from_secs(1));
    }
    let stats = bed.node(origin).unwrap().stats();
    assert_eq!(stats.plan_cache_misses, 1, "only the first submission plans");
    assert_eq!(stats.plan_cache_hits, 2, "repeat aggregate-over-join submissions hit the cache");
}
