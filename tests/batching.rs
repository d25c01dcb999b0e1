//! Correctness and accounting tests for the batched wire paths: distributed
//! answers must be identical to the centralized reference, publishing must
//! coalesce same-key tuples into batch messages of at most 512 rows, result
//! buffers must ship early at that cap, a mid-query stop must keep traces
//! and engine totals reconciled, a stopped continuous query must stay
//! stopped, the per-node plan cache must serve repeat submissions, and
//! join-side projection pushdown must narrow what ships.

use pier::apps::filesharing::{files_table, keywords_table, FileCorpus};
use pier::core::{same_rows, Catalog, JoinStrategy, MemoryDb, Planner, QueryKind};
use pier::prelude::*;

fn corpus_testbed(nodes: usize, seed: u64, files: usize) -> (PierTestbed, Catalog, MemoryDb) {
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes,
        seed,
        pier: PierConfig::fast_test(),
        ..Default::default()
    });
    bed.create_table_everywhere(&files_table());
    bed.create_table_everywhere(&keywords_table());
    let corpus = FileCorpus::generate(files, nodes, seed);
    corpus.publish(&mut bed);
    bed.run_for(Duration::from_secs(8));

    let mut catalog = Catalog::new();
    catalog.register(files_table());
    catalog.register(keywords_table());
    let mut db = MemoryDb::new();
    db.insert("files", corpus.files().to_vec());
    db.insert("keywords", corpus.postings().to_vec());
    (bed, catalog, db)
}

fn run_join(
    bed: &mut PierTestbed,
    catalog: &Catalog,
    sql: &str,
    strategy: JoinStrategy,
) -> Vec<Tuple> {
    let stmt = pier::core::sql::parse_select(sql).unwrap();
    let planned = Planner::with_join_strategy(catalog, strategy).plan_select(&stmt).unwrap();
    let origin = bed.nodes()[0];
    let q =
        bed.submit_query(origin, planned.kind, planned.output_names, planned.continuous).unwrap();
    bed.run_for(Duration::from_secs(20));
    bed.results(origin, q, 0)
}

fn reference_join(catalog: &Catalog, db: &MemoryDb, sql: &str) -> Vec<Tuple> {
    let stmt = pier::core::sql::parse_select(sql).unwrap();
    let planned = Planner::new(catalog).plan_select(&stmt).unwrap();
    db.execute(&planned.logical)
}

#[test]
fn batched_join_and_aggregation_match_reference() {
    // One keyword search per corpus: (nodes, seed, files, keyword).
    for (nodes, seed, files, keyword) in [(18, 2026, 260, "music"), (14, 321, 200, "video")] {
        let (mut bed, catalog, db) = corpus_testbed(nodes, seed, files);
        // Join (symmetric rehash → JoinBatch path).
        let sql = FileCorpus::search_sql(keyword);
        let distributed = run_join(&mut bed, &catalog, &sql, JoinStrategy::SymmetricHash);
        let reference = reference_join(&catalog, &db, &sql);
        assert!(!reference.is_empty());
        assert!(
            same_rows(&distributed, &reference),
            "batched '{keyword}' join: {} distributed vs {} reference rows",
            distributed.len(),
            reference.len()
        );

        // Aggregation over the same corpus.
        let agg_sql = "SELECT owner, COUNT(*) AS files FROM files GROUP BY owner";
        let origin = bed.nodes()[0];
        let q = bed.submit_sql(origin, agg_sql).unwrap();
        bed.run_for(Duration::from_secs(15));
        let distributed = bed.results(origin, q, 0);
        let stmt = pier::core::sql::parse_select(agg_sql).unwrap();
        let planned = Planner::new(&catalog).plan_select(&stmt).unwrap();
        let reference = db.execute(&planned.logical);
        assert!(
            same_rows(&distributed, &reference),
            "batched aggregation (seed {seed}): {} distributed vs {} reference rows",
            distributed.len(),
            reference.len()
        );
    }
}

#[test]
fn batches_cap_at_512_rows_and_results_flush_early() {
    // 1,100 rows of one host share a partitioning key, so publishing splits
    // them into 512 + 512 + 76-row batches; the scan site's result buffer
    // ships early each time it reaches 512 rows and the rest at the tick
    // drain.
    use pier::apps::netmon::netstats_table;
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes: 8,
        seed: 512,
        pier: PierConfig::fast_test(),
        ..Default::default()
    });
    bed.create_table_everywhere(&netstats_table());
    let rows: Vec<Tuple> = (0..1_100)
        .map(|i| Tuple::new(vec![Value::str("host-0"), Value::Float(i as f64), Value::Float(1.0)]))
        .collect();
    let publisher = bed.nodes()[3];
    bed.publish_batch(publisher, "netstats", rows.clone());
    bed.run_for(Duration::from_secs(2));
    let published = bed.engine_totals();
    assert_eq!(published.tuples_published, 1_100);
    assert_eq!(published.batches_sent, 3, "512 + 512 + 76 rows");

    let origin = bed.nodes()[0];
    let q = bed.submit_sql(origin, "SELECT host, out_rate FROM netstats").unwrap();
    bed.run_for(Duration::from_secs(5));
    let expected: Vec<Tuple> = rows.iter().map(|r| r.project(&[0, 1])).collect();
    assert!(same_rows(&bed.results(origin, q, 0), &expected), "answer must equal the input");
    let totals = bed.engine_totals();
    assert_eq!(totals.results_sent, 1_100);
    assert_eq!(
        totals.messages_sent - published.messages_sent,
        3,
        "two early flushes at 512 rows plus the tick drain"
    );
    assert_eq!(totals.batches_sent - published.batches_sent, 3);
}

#[test]
fn bloom_join_unbatches_correctly() {
    let sql = FileCorpus::search_sql("linux");
    let (mut bed, catalog, db) = corpus_testbed(16, 55, 220);
    let rows = run_join(&mut bed, &catalog, &sql, JoinStrategy::BloomFilter);
    let reference = reference_join(&catalog, &db, &sql);
    assert!(!reference.is_empty());
    assert!(same_rows(&rows, &reference), "bloom semi-join with batching diverges");
}

#[test]
fn batching_cuts_wire_messages() {
    // The monitoring workload has real per-destination fan-in: every node's
    // multi-row Snort report shares one partitioning key (the host), so the
    // publish path coalesces it into a single TupleBatch put instead of one
    // routed message per row.
    use pier::apps::snort::{intrusions_table, SnortSimulator};
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes: 16,
        seed: 909,
        pier: PierConfig::fast_test(),
        ..Default::default()
    });
    bed.create_table_everywhere(&intrusions_table());
    let mut snort = SnortSimulator::new(16, 100_000, 909);
    for _round in 0..3 {
        for addr in bed.nodes().to_vec() {
            let report = snort.node_report(addr.0 as usize);
            bed.publish_batch(addr, "intrusions", report);
        }
        bed.run_for(Duration::from_secs(3));
    }
    // Nothing but publishing has run yet, so every engine message so far is
    // a publish.
    let published = bed.engine_totals();
    assert!(published.batches_sent > 0, "publishing must actually batch");
    assert!(
        published.messages_sent * 2 <= published.tuples_published,
        "publish-phase engine messages: {} for {} tuples (expected at most one per two tuples)",
        published.messages_sent,
        published.tuples_published
    );

    let origin = bed.nodes()[0];
    let q = bed.submit_sql(origin, SnortSimulator::table1_sql()).unwrap();
    bed.run_for(Duration::from_secs(15));
    assert!(!bed.results(origin, q, 0).is_empty());
}

#[test]
fn stop_mid_query_keeps_counters_reconciled() {
    // A StopQuery can land while the query is still producing traffic:
    // rehashes in flight, Fetch-Matches probes outstanding, result rows
    // buffered in the current engine tick.  The stop ships the query's
    // buffered rows while its trace can still account for them, and join
    // input arriving after the stop is never processed, so the frozen trace
    // and the engine-wide counters must agree exactly.  Exercised for both
    // stage shapes: symmetric rehash and Fetch-Matches (probe responses
    // continuing into result buffers).
    use pier::apps::netmon::netstats_table;
    use pier::apps::snort::intrusions_table;
    use pier::apps::topology::links_table;

    let three_way = "SELECT i.host, COUNT(*) AS n, SUM(n.out_rate) AS total \
         FROM netstats n JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
         GROUP BY i.host";

    for strategy in [JoinStrategy::SymmetricHash, JoinStrategy::FetchMatches] {
        let nodes = 12;
        let mut bed = PierTestbed::new(TestbedConfig {
            nodes,
            seed: 0xF1A7,
            pier: PierConfig::fast_test(),
            ..Default::default()
        });
        bed.create_table_everywhere(&netstats_table());
        bed.create_table_everywhere(&links_table());
        bed.create_table_everywhere(&intrusions_table());
        // publish_local keeps every non-query wire path silent, so the
        // query's trace must equal the engine-wide counters exactly.
        for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
            let host = |k: usize| format!("host-{}", k % nodes);
            bed.publish_local(
                addr,
                "netstats",
                Tuple::new(vec![Value::str(host(i)), Value::Float(4.0), Value::Float(1.0)]),
            );
            bed.publish_local(
                addr,
                "links",
                Tuple::new(vec![
                    Value::str(host(i)),
                    Value::str(host(i + 1)),
                    Value::str("successor"),
                ]),
            );
            bed.publish_local(
                addr,
                "intrusions",
                Tuple::new(vec![
                    Value::str(host(i)),
                    Value::Int(1400),
                    Value::str("rule"),
                    Value::Int(2),
                ]),
            );
        }
        bed.run_for(Duration::from_secs(2));

        let mut catalog = Catalog::new();
        catalog.register(netstats_table());
        catalog.register(links_table());
        catalog.register(intrusions_table());
        let stmt = pier::core::sql::parse_select(three_way).unwrap();
        let mut planned =
            Planner::with_join_strategy(&catalog, strategy).plan_select(&stmt).unwrap();
        // Raw-row streaming keeps the final stage on the buffered result
        // path.
        if let QueryKind::Join { aggregate: Some(agg), .. } = &mut planned.kind {
            agg.hierarchical = false;
        }
        let origin = bed.nodes()[1];
        let q = bed
            .submit_query(origin, planned.kind.clone(), planned.output_names.clone(), None)
            .unwrap();
        bed.run_for(Duration::from_millis(1_500));
        bed.stop_query(origin, q);
        bed.run_for(Duration::from_secs(6));

        bed.sim().invoke(origin, move |node, ctx| node.request_traces(ctx, q));
        bed.run_for(Duration::from_secs(3));

        let node = bed.node(origin).unwrap();
        let (reporters, trace) = {
            let (r, t) = node.collected_trace(q).unwrap();
            (r, t.clone())
        };
        assert_eq!(reporters, nodes as u64, "{strategy:?}: every node must report");
        let totals = bed.engine_totals();
        assert_eq!(
            trace.messages_sent, totals.messages_sent,
            "{strategy:?}: the stop must neither double-count nor orphan messages"
        );
        assert_eq!(
            trace.bytes_shipped, totals.bytes_shipped,
            "{strategy:?}: the stop must neither double-count nor orphan bytes"
        );
        assert_eq!(trace.tuples_shipped, totals.join_tuples_sent, "{strategy:?}");
        assert_eq!(trace.results_sent, totals.results_sent, "{strategy:?}");
        assert!(totals.messages_sent > 0, "{strategy:?}: the query must have produced traffic");
    }
}

#[test]
fn a_stopped_continuous_query_stays_stopped() {
    // The origin re-disseminates a continuous query's plan every third
    // epoch.  A StopQuery sent 1 ms later can overtake that broadcast on its
    // way down the dissemination tree; the late plan must not reinstall the
    // query, and the query's rehashes and probe answers still in flight must
    // not be buffered for a plan that will never come.
    use pier::apps::netmon::netstats_table;
    use pier::apps::snort::intrusions_table;
    use pier::apps::topology::links_table;

    let three_way = "SELECT i.host, COUNT(*) AS n, SUM(n.out_rate) AS total \
         FROM netstats n JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
         GROUP BY i.host";
    let nodes = 40;
    let period_ms = 2_000;

    for strategy in [JoinStrategy::SymmetricHash, JoinStrategy::FetchMatches] {
        let mut bed = PierTestbed::new(TestbedConfig {
            nodes,
            seed: 0xF1A7,
            pier: PierConfig::fast_test(),
            ..Default::default()
        });
        let mut catalog = Catalog::new();
        for def in [netstats_table(), links_table(), intrusions_table()] {
            bed.create_table_everywhere(&def);
            catalog.register(def);
        }
        for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
            let host = |k: usize| Value::str(format!("host-{}", k % nodes));
            let netstats = vec![host(i), Value::Float(4.0), Value::Float(1.0)];
            let link = vec![host(i), host(i + 1), Value::str("successor")];
            let intrusion = vec![host(i), Value::Int(1400), Value::str("rule"), Value::Int(2)];
            bed.publish_local(addr, "netstats", Tuple::new(netstats));
            bed.publish_local(addr, "links", Tuple::new(link));
            bed.publish_local(addr, "intrusions", Tuple::new(intrusion));
        }
        bed.run_for(Duration::from_secs(2));

        let stmt = pier::core::sql::parse_select(three_way).unwrap();
        let mut planned =
            Planner::with_join_strategy(&catalog, strategy).plan_select(&stmt).unwrap();
        if let QueryKind::Join { aggregate: Some(agg), .. } = &mut planned.kind {
            agg.hierarchical = false;
        }
        let continuous = ContinuousSpec {
            period: Duration::from_millis(period_ms),
            window: Duration::from_secs(600),
        };
        let origin = bed.nodes()[1];
        let q = bed.submit_query(origin, planned.kind, planned.output_names, Some(continuous));
        let q = q.unwrap();
        // The origin's epoch timer fires 1 ms after each boundary and
        // re-disseminates the plan on its third firing.  Stop 1 ms later.
        let first_boundary = (bed.now().as_micros() / 1_000 / period_ms + 1) * period_ms;
        let redisseminated = first_boundary + 2 * period_ms + 1;
        bed.run_until(SimTime::from_micros((redisseminated + 1) * 1_000));
        bed.stop_query(origin, q);
        bed.run_for(Duration::from_secs(10));

        for &addr in bed.nodes() {
            let node = bed.node(addr).unwrap();
            assert_eq!(node.active_queries(), 0, "{strategy:?}: {addr:?} still runs the query");
            assert_eq!(node.buffered_input(q), 0, "{strategy:?}: {addr:?} buffers its input");
        }
    }
}

#[test]
fn engine_totals_sync_simnet_tags() {
    let (mut bed, _, _) = corpus_testbed(8, 42, 60);
    let totals = bed.engine_totals();
    assert!(totals.messages_sent > 0);
    assert_eq!(bed.metrics().tag("pier.messages_sent"), totals.messages_sent);
    assert_eq!(bed.metrics().tag("pier.bytes_shipped"), totals.bytes_shipped);
    assert_eq!(bed.metrics().tag("pier.batches_sent"), totals.batches_sent);
}

#[test]
fn plan_cache_serves_repeat_submissions() {
    let mut bed = PierTestbed::quick(8, 7);
    let def = TableDef::new(
        "readings",
        Schema::of(&[("host", DataType::Str), ("v", DataType::Int)]),
        "host",
        Duration::from_secs(300),
    );
    bed.create_table_everywhere(&def);
    let origin = bed.nodes()[0];
    let sql = "SELECT COUNT(*) FROM readings";
    for _ in 0..5 {
        bed.submit_sql(origin, sql).unwrap();
        bed.run_for(Duration::from_secs(1));
    }
    let stats = bed.node(origin).unwrap().stats();
    assert_eq!(stats.plan_cache_misses, 1, "only the first submission plans");
    assert_eq!(stats.plan_cache_hits, 4, "the rest are cache hits");

    // A catalog change (new statistics) invalidates the cached plan.
    bed.set_table_stats_everywhere("readings", TableStats::with_rows(1_000));
    bed.submit_sql(origin, sql).unwrap();
    let stats = bed.node(origin).unwrap().stats();
    assert_eq!(stats.plan_cache_misses, 2, "catalog change must re-plan");
}

#[test]
fn join_projection_pushdown_narrows_shipped_bytes() {
    // Narrow query (two columns survive) vs wide query (all columns survive):
    // the narrow one must ship measurably fewer bytes for the same tuples.
    let catalog = {
        let mut c = Catalog::new();
        c.register(files_table());
        c.register(keywords_table());
        c
    };
    let shipped = |sql: &str| -> (u64, u64) {
        let (mut bed, _, _) = corpus_testbed(14, 4242, 240);
        let _ = run_join(&mut bed, &catalog, sql, JoinStrategy::SymmetricHash);
        let totals = bed.engine_totals();
        (totals.bytes_shipped, totals.join_tuples_sent)
    };
    let (narrow_bytes, narrow_tuples) = shipped(
        "SELECT k.keyword FROM files f JOIN keywords k ON f.file_id = k.file_id \
                 WHERE k.keyword = 'music'",
    );
    let (wide_bytes, wide_tuples) = shipped(
        "SELECT f.file_id, f.name, f.owner, f.size_kb, k.keyword, k.file_id \
                 FROM files f JOIN keywords k ON f.file_id = k.file_id \
                 WHERE k.keyword = 'music'",
    );
    assert_eq!(narrow_tuples, wide_tuples, "same tuples must rehash in both runs");
    assert!(
        narrow_bytes < wide_bytes,
        "narrowed join shipped {narrow_bytes} bytes, wide shipped {wide_bytes}"
    );

    // And the plan itself records the narrowing.
    let stmt = pier::core::sql::parse_select(
        "SELECT k.keyword FROM files f JOIN keywords k ON f.file_id = k.file_id",
    )
    .unwrap();
    let planned = Planner::with_join_strategy(&catalog, JoinStrategy::SymmetricHash)
        .plan_select(&stmt)
        .unwrap();
    match &planned.kind {
        QueryKind::Join { stages, .. } => {
            assert!(
                stages[0].left_ship_cols.is_empty(),
                "no left column is consumed at the join site"
            );
            assert_eq!(stages[0].right_ship_cols, vec![0]);
        }
        other => panic!("unexpected kind {other:?}"),
    }
}
