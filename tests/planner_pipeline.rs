//! Integration tests for the layered planning pipeline: cost-based join
//! strategy selection from catalog cardinality hints, EXPLAIN threading
//! through the engine/testbed, and optimizer soundness (optimized plans
//! produce the same answers, centralized and distributed).

use pier::apps::filesharing::{files_table, keywords_table, FileCorpus};
use pier::core::{same_rows, Catalog, JoinStrategy, MemoryDb, Planner, QueryKind, TableStats};
use pier::prelude::*;

fn corpus_fixture(files: usize) -> (Catalog, MemoryDb, FileCorpus) {
    let corpus = FileCorpus::generate(files, 20, 4242);
    let mut catalog = Catalog::new();
    catalog.register(files_table());
    catalog.register(keywords_table());
    corpus.register_stats(&mut catalog);
    let mut db = MemoryDb::new();
    db.insert("files", corpus.files().to_vec());
    db.insert("keywords", corpus.postings().to_vec());
    (catalog, db, corpus)
}

/// The probe-shaped keyword search (small filtered outer, inner partitioned
/// on the join key) must resolve to Fetch-Matches from statistics alone, and
/// the distributed run must match the centralized reference.
#[test]
fn stats_pick_fetch_matches_and_distributed_run_agrees() {
    let (catalog, db, corpus) = corpus_fixture(300);
    let sql = FileCorpus::probe_search_sql("music");
    let stmt = pier::core::sql::parse_select(&sql).unwrap();
    let planned = Planner::new(&catalog).plan_select(&stmt).unwrap();
    let QueryKind::Join { stages, .. } = &planned.kind else {
        panic!("expected a join plan");
    };
    assert_eq!(stages[0].strategy, JoinStrategy::FetchMatches, "{:?}", planned.strategy_note);

    // Run it distributed, exactly as planned (no forced strategy).
    let mut bed = PierTestbed::new(TestbedConfig { nodes: 20, seed: 1606, ..Default::default() });
    bed.create_table_everywhere(&files_table());
    bed.create_table_everywhere(&keywords_table());
    corpus.register_stats_everywhere(&mut bed);
    corpus.publish(&mut bed);
    bed.run_for(Duration::from_secs(8));

    let origin = bed.nodes()[3];
    let q =
        bed.submit_query(origin, planned.kind.clone(), planned.output_names.clone(), None).unwrap();
    bed.run_for(Duration::from_secs(15));

    let distributed = bed.results(origin, q, 0);
    let reference = db.execute(&planned.logical);
    assert!(!reference.is_empty(), "corpus should contain matches for 'music'");
    assert!(
        same_rows(&distributed, &reference),
        "fetch-matches run: {} distributed vs {} reference rows",
        distributed.len(),
        reference.len()
    );
}

/// The same tables joined without a useful probe shape (inner not partitioned
/// on the join key, comparable sizes) must stay on symmetric rehash, and the
/// distributed run must match the centralized reference.
#[test]
fn stats_pick_symmetric_rehash_and_distributed_run_agrees() {
    let (catalog, db, corpus) = corpus_fixture(300);
    let sql = FileCorpus::search_sql("video");
    let stmt = pier::core::sql::parse_select(&sql).unwrap();
    let planned = Planner::new(&catalog).plan_select(&stmt).unwrap();
    let QueryKind::Join { stages, .. } = &planned.kind else {
        panic!("expected a join plan");
    };
    assert_eq!(stages[0].strategy, JoinStrategy::SymmetricHash, "{:?}", planned.strategy_note);
    // The keyword predicate was pushed to the keywords side by the optimizer.
    assert!(stages[0].right_filter.is_some(), "keyword filter should ship with the right side");

    let mut bed = PierTestbed::new(TestbedConfig { nodes: 20, seed: 1607, ..Default::default() });
    bed.create_table_everywhere(&files_table());
    bed.create_table_everywhere(&keywords_table());
    corpus.publish(&mut bed);
    bed.run_for(Duration::from_secs(8));

    let origin = bed.nodes()[5];
    let q =
        bed.submit_query(origin, planned.kind.clone(), planned.output_names.clone(), None).unwrap();
    bed.run_for(Duration::from_secs(15));

    let distributed = bed.results(origin, q, 0);
    let reference = db.execute(&planned.logical);
    assert!(!reference.is_empty(), "corpus should contain matches for 'video'");
    assert!(
        same_rows(&distributed, &reference),
        "symmetric run: {} distributed vs {} reference rows",
        distributed.len(),
        reference.len()
    );
}

/// `EXPLAIN SELECT …` parses, threads through the testbed/engine, and renders
/// every pipeline stage: logical plan before and after optimization plus the
/// chosen distributed strategy.
#[test]
fn explain_renders_all_stages_through_the_testbed() {
    let mut bed = PierTestbed::new(TestbedConfig { nodes: 8, seed: 77, ..Default::default() });
    bed.create_table_everywhere(&files_table());
    bed.create_table_everywhere(&keywords_table());
    bed.set_table_stats_everywhere("keywords", TableStats::with_rows(5_000));
    bed.set_table_stats_everywhere("files", TableStats::with_rows(2_000));

    let origin = bed.nodes()[0];
    let text =
        bed.explain(origin, &format!("EXPLAIN {}", FileCorpus::probe_search_sql("linux"))).unwrap();
    assert!(text.contains("== binder =="), "{text}");
    assert!(text.contains("== logical plan =="), "{text}");
    assert!(text.contains("== optimized logical plan =="), "{text}");
    assert!(text.contains("== distributed physical plan =="), "{text}");
    assert!(text.contains("predicate_pushdown"), "{text}");
    assert!(text.contains("FetchMatches"), "{text}");

    // The pre-optimization plan carries the filter above the join; the
    // optimized plan pushes it below — both renderings must be present and
    // different.
    let logical = text.split("== optimized logical plan ==").next().unwrap();
    let optimized = text.split("== optimized logical plan ==").nth(1).unwrap();
    assert!(logical.contains("Join"), "{text}");
    assert!(optimized.contains("Join"), "{text}");
    assert_ne!(logical, optimized);

    // EXPLAIN is local: submitting it as a distributed query is refused.
    let err = bed.submit_sql(origin, "EXPLAIN SELECT * FROM files").unwrap_err();
    assert!(err.contains("explain_sql"), "{err}");

    // Unknown tables surface binder errors through the same path.
    let err = bed.explain(origin, "EXPLAIN SELECT * FROM missing").unwrap_err();
    assert!(err.contains("unknown table"), "{err}");
}

/// The optimizer must never change answers: for a battery of shapes, the
/// optimized logical plan and the unoptimized one agree on the reference
/// evaluator.
#[test]
fn optimized_plans_agree_with_unoptimized_plans() {
    let (catalog, db, _corpus) = corpus_fixture(400);
    let queries = [
        "SELECT name FROM files WHERE size_kb > 100 AND 1 = 1",
        "SELECT owner, COUNT(*) AS n FROM files GROUP BY owner HAVING COUNT(*) > 2",
        "SELECT f.name, k.keyword FROM files f JOIN keywords k ON f.file_id = k.file_id \
         WHERE k.keyword = 'linux' AND f.size_kb > 10",
        "SELECT name FROM files ORDER BY name LIMIT 7",
        "SELECT upper(owner) AS o FROM files WHERE length(name) > 5 ORDER BY o LIMIT 20",
    ];
    for sql in queries {
        let stmt = pier::core::sql::parse_select(sql).unwrap();
        let planned = Planner::new(&catalog).plan_select(&stmt).unwrap();
        let optimized_rows = db.execute(&planned.logical);
        let initial_rows = db.execute(&planned.logical_initial);
        assert!(
            same_rows(&optimized_rows, &initial_rows),
            "optimizer changed the answer for {sql}: {} vs {} rows",
            optimized_rows.len(),
            initial_rows.len()
        );
    }
}

/// ORDER BY an aggregate that is not in the select list ("hidden" aggregate):
/// the origin keeps the finalized rows pre-projection, so it can re-sort on
/// the hidden column before projecting to the client's columns.
#[test]
fn hidden_aggregate_order_by_is_respected_at_the_origin() {
    use pier::apps::snort::{intrusions_table, SnortSimulator};

    let nodes = 16;
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed: 1608, ..Default::default() });
    bed.create_table_everywhere(&intrusions_table());
    let mut catalog = Catalog::new();
    catalog.register(intrusions_table());
    let mut db = MemoryDb::new();

    let mut snort = SnortSimulator::new(nodes, 200_000, 1608);
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        for tuple in snort.node_report(i) {
            db.insert("intrusions", vec![tuple.clone()]);
            bed.publish_local(addr, "intrusions", tuple);
        }
    }
    bed.run_for(Duration::from_secs(3));

    // rule_id only in the select list; the ordering key SUM(hits) is hidden.
    let sql = "SELECT rule_id FROM intrusions GROUP BY rule_id ORDER BY SUM(hits) DESC LIMIT 5";
    let origin = bed.nodes()[1];
    let q = bed.submit_sql(origin, sql).unwrap();
    bed.run_for(Duration::from_secs(12));

    let distributed = bed.results(origin, q, 0);
    let stmt = pier::core::sql::parse_select(sql).unwrap();
    let planned = Planner::new(&catalog).plan_select(&stmt).unwrap();
    let reference = db.execute(&planned.logical);

    assert_eq!(distributed.len(), 5);
    assert_eq!(reference.len(), 5);
    // One projected column, ordered by the hidden SUM: sequences must match.
    let got: Vec<i64> = distributed.iter().filter_map(|r| r.get(0).as_i64()).collect();
    let want: Vec<i64> = reference.iter().filter_map(|r| r.get(0).as_i64()).collect();
    assert_eq!(got, want, "origin must respect the hidden-aggregate ordering");
    // Rows are projected to exactly the select list (hidden column dropped).
    assert!(distributed.iter().all(|r| r.arity() == 1));
}
