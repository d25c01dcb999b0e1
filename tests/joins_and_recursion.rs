//! Integration tests for the distributed join strategies and recursive
//! queries, checked against centralized ground truth.

use pier::apps::filesharing::{files_table, keywords_table, FileCorpus};
use pier::apps::topology::{links_table, TopologyMapper};
use pier::core::{same_rows, Catalog, JoinStrategy, MemoryDb, Planner, QueryKind};
use pier::prelude::*;

fn corpus_testbed(
    nodes: usize,
    seed: u64,
    files: usize,
) -> (PierTestbed, FileCorpus, Catalog, MemoryDb) {
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed, ..Default::default() });
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
    (bed, corpus, catalog, db)
}

fn reference_answer(
    catalog: &Catalog,
    db: &MemoryDb,
    sql: &str,
    strategy: JoinStrategy,
) -> Vec<Tuple> {
    let stmt = pier::core::sql::parse_select(sql).unwrap();
    let planned = Planner::with_join_strategy(catalog, strategy).plan_select(&stmt).unwrap();
    db.execute(&planned.logical)
}

fn submit_with_strategy(
    bed: &mut PierTestbed,
    catalog: &Catalog,
    origin: NodeAddr,
    sql: &str,
    strategy: JoinStrategy,
) -> pier::core::QueryId {
    let stmt = pier::core::sql::parse_select(sql).unwrap();
    let planned = Planner::with_join_strategy(catalog, strategy).plan_select(&stmt).unwrap();
    bed.submit_query(origin, planned.kind, planned.output_names, planned.continuous).unwrap()
}

#[test]
fn symmetric_hash_join_matches_reference() {
    let (mut bed, _corpus, catalog, db) = corpus_testbed(20, 606, 300);
    let sql = FileCorpus::search_sql("music");
    let origin = bed.nodes()[1];
    let q = submit_with_strategy(&mut bed, &catalog, origin, &sql, JoinStrategy::SymmetricHash);
    bed.run_for(Duration::from_secs(15));
    let distributed = bed.results(origin, q, 0);
    let reference = reference_answer(&catalog, &db, &sql, JoinStrategy::SymmetricHash);
    assert!(!reference.is_empty(), "test corpus should contain matches");
    assert!(
        same_rows(&distributed, &reference),
        "symmetric hash join: {} distributed vs {} reference rows",
        distributed.len(),
        reference.len()
    );
}

#[test]
fn fetch_matches_join_matches_reference() {
    // Fetch-Matches probes the inner relation by its partitioning key, so join
    // on keywords.file_id requires the inner relation partitioned by file_id:
    // use files as the inner (right) table and keywords as the outer.
    let (mut bed, _corpus, catalog, db) = corpus_testbed(20, 707, 300);
    let sql = "SELECT f.name, k.keyword FROM keywords k JOIN files f ON k.file_id = f.file_id \
               WHERE k.keyword = 'linux'";
    let origin = bed.nodes()[4];
    let q = submit_with_strategy(&mut bed, &catalog, origin, sql, JoinStrategy::FetchMatches);
    bed.run_for(Duration::from_secs(15));
    let distributed = bed.results(origin, q, 0);
    let reference = reference_answer(&catalog, &db, sql, JoinStrategy::FetchMatches);
    assert!(!reference.is_empty());
    assert!(
        same_rows(&distributed, &reference),
        "fetch-matches join: {} distributed vs {} reference rows",
        distributed.len(),
        reference.len()
    );
}

#[test]
fn bloom_filter_join_matches_reference() {
    let (mut bed, _corpus, catalog, db) = corpus_testbed(20, 808, 300);
    let sql = FileCorpus::search_sql("ebook");
    let origin = bed.nodes()[7];
    let q = submit_with_strategy(&mut bed, &catalog, origin, &sql, JoinStrategy::BloomFilter);
    bed.run_for(Duration::from_secs(20));
    let distributed = bed.results(origin, q, 0);
    let reference = reference_answer(&catalog, &db, &sql, JoinStrategy::BloomFilter);
    assert!(!reference.is_empty());
    assert!(
        same_rows(&distributed, &reference),
        "bloom join: {} distributed vs {} reference rows",
        distributed.len(),
        reference.len()
    );
}

#[test]
fn recursive_reachability_matches_ground_truth() {
    let nodes = 24;
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed: 909, ..Default::default() });
    bed.create_table_everywhere(&links_table());
    let published = TopologyMapper::publish_overlay_links(&mut bed);
    assert!(published >= nodes, "expected at least one link per node");
    bed.run_for(Duration::from_secs(8));

    // Ground truth from the links actually stored in the DHT.
    let mut edges = Vec::new();
    for addr in bed.alive_nodes() {
        let node = bed.node(addr).unwrap();
        for (_, payload) in node.dht.lscan("links", bed.now()) {
            if let Some(t) = payload.as_tuple() {
                edges.push((
                    t.get(0).as_str().unwrap().to_string(),
                    t.get(1).as_str().unwrap().to_string(),
                ));
            }
        }
    }
    let source = TopologyMapper::host_name(bed.nodes()[0]);
    let expected = TopologyMapper::reachable_set(&edges, &source, 8);
    // Successor links form a ring, so everything should be reachable in ≤ 8
    // hops only for small rings; with 24 nodes expect a partial sweep.
    assert!(!expected.is_empty());

    let (kind, names) = TopologyMapper::reachability_query(&source, 8);
    let origin = bed.nodes()[0];
    let q = bed.submit_query(origin, kind, names, None).unwrap();
    bed.run_for(Duration::from_secs(25));

    let rows = bed.all_results(origin, q);
    let mut reached: Vec<String> = rows
        .iter()
        .filter_map(|r| r.get(1).as_str().map(|s| s.to_string()))
        .filter(|v| *v != source)
        .collect();
    reached.sort();
    reached.dedup();

    let expected_vec: Vec<String> = expected.iter().filter(|&v| *v != source).cloned().collect();
    assert_eq!(reached, expected_vec, "recursive reachability differs from ground truth");

    // Depth annotations must respect the depth bound.
    for row in &rows {
        let d = row.get(2).as_i64().unwrap();
        assert!((1..=8).contains(&d));
    }

    // Semi-naïve evaluation expands each vertex once: at most one expansion
    // per edge leaving the start vertex or a reached vertex, plus the seed.
    // Without duplicate suppression the ring's many paths to each vertex
    // would blow far past this bound.
    let expands: u64 =
        bed.alive_nodes().iter().map(|&a| bed.node(a).unwrap().stats().expands_sent).sum();
    let out_edges = edges
        .iter()
        .filter(|(src, _)| *src == source || reached.binary_search(src).is_ok())
        .count() as u64;
    assert!(
        expands <= 1 + out_edges,
        "{expands} expansions for {out_edges} edges leaving expanded vertices"
    );
}

#[test]
fn join_strategies_agree_with_each_other() {
    let (mut bed, _corpus, catalog, _db) = corpus_testbed(16, 111, 200);
    let sql = FileCorpus::search_sql("video");
    let origin = bed.nodes()[0];
    let q1 = submit_with_strategy(&mut bed, &catalog, origin, &sql, JoinStrategy::SymmetricHash);
    bed.run_for(Duration::from_secs(15));
    let q2 = submit_with_strategy(&mut bed, &catalog, origin, &sql, JoinStrategy::BloomFilter);
    bed.run_for(Duration::from_secs(20));
    let r1 = bed.results(origin, q1, 0);
    let r2 = bed.results(origin, q2, 0);
    assert!(!r1.is_empty());
    assert!(same_rows(&r1, &r2), "strategies disagree: {} vs {} rows", r1.len(), r2.len());
}

#[test]
fn recursive_query_kind_reports_edge_table() {
    let (kind, _) = TopologyMapper::reachability_query("planetlab-000", 3);
    assert!(matches!(kind, QueryKind::Recursive { .. }));
    assert_eq!(kind.primary_table(), "links");
}
