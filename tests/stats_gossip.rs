//! Automatic statistics and mid-flight re-planning.
//!
//! * Gossiped summaries of the soft state every node stores converge on every
//!   node's catalog to the true network-wide table cardinalities — with no
//!   manual `set_stats` anywhere.
//! * The converged statistics alone lead the planner to the same join
//!   strategy that hand-installed statistics pick in
//!   `tests/planner_pipeline.rs` (Fetch-Matches for the probe-shaped keyword
//!   search).
//! * A live continuous join whose cost ranking flips under the gossiped
//!   statistics is re-planned at an epoch boundary, the switch is recorded in
//!   its execution trace, and epoch results before and after the flip are
//!   identical.

use pier::apps::filesharing::{files_table, keywords_table, FileCorpus};
use pier::core::{same_rows, JoinStrategy, Planner, QueryKind};
use pier::prelude::*;

fn auto_stats_config(stats_interval_ms: u64) -> PierConfig {
    let mut pier = PierConfig::fast_test();
    pier.auto_stats = true;
    pier.stats_interval = Duration::from_millis(stats_interval_ms);
    pier
}

/// Relative-error helper for convergence tolerances.
fn close(measured: u64, truth: u64, tol: f64) -> bool {
    let err = (measured as f64 - truth as f64).abs() / (truth as f64).max(1.0);
    err <= tol
}

#[test]
fn gossip_converges_to_true_cardinalities_on_every_node() {
    let nodes = 16;
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes,
        seed: 1609,
        pier: auto_stats_config(2_000),
        ..Default::default()
    });
    bed.create_table_everywhere(&files_table());
    bed.create_table_everywhere(&keywords_table());

    let corpus = FileCorpus::generate(300, 20, 4242);
    corpus.publish(&mut bed);
    bed.run_for(Duration::from_secs(40));

    let true_files = corpus.files().len() as u64;
    let true_postings = corpus.postings().len() as u64;
    for addr in bed.alive_nodes() {
        let catalog = bed.node(addr).unwrap().catalog();
        let files = catalog.stats("files").expect("gossip must install files stats");
        let keywords = catalog.stats("keywords").expect("gossip must install keywords stats");
        assert!(
            close(files.rows, true_files, 0.2),
            "node {addr}: files rows {} vs true {true_files}",
            files.rows
        );
        assert!(
            close(keywords.rows, true_postings, 0.2),
            "node {addr}: keyword rows {} vs true {true_postings}",
            keywords.rows
        );
        // Distinct partitioning keys: files are partitioned by file_id (one
        // key per file), keywords by the ~20-word vocabulary.
        assert!(
            close(files.distinct_keys.unwrap(), true_files, 0.2),
            "node {addr}: files distinct {:?}",
            files.distinct_keys
        );
        assert!(
            keywords.distinct_keys.unwrap() <= 25,
            "node {addr}: keyword distinct {:?} should be near the vocabulary size",
            keywords.distinct_keys
        );
    }

    // Gossiped statistics alone (no set_stats anywhere in this test) drive
    // the planner to the same strategy hand-installed statistics pick in
    // tests/planner_pipeline.rs: Fetch-Matches for the probe-shaped search.
    let catalog = bed.node(bed.nodes()[5]).unwrap().catalog();
    let stmt = pier::core::sql::parse_select(&FileCorpus::probe_search_sql("music")).unwrap();
    let planned = Planner::new(catalog).plan_select(&stmt).unwrap();
    let QueryKind::Join { stages, .. } = &planned.kind else { panic!("expected a join") };
    assert_eq!(stages[0].strategy, JoinStrategy::FetchMatches, "{:?}", planned.strategy_note);

    // The gossip plane reports its own traffic separately from the
    // query-path counters.
    let totals = bed.engine_totals();
    assert!(totals.stats_gossip_sent > 0);
}

#[test]
fn stats_driven_flip_replans_mid_flight_with_identical_epoch_results() {
    // A join whose best strategy differs between "no statistics" (defaults:
    // comparable sizes -> symmetric rehash) and the true cardinalities (a
    // small sensors table against a 20x larger readings table, inner not
    // partitioned on the join key -> Bloom semi-join).
    let nodes = 14;
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes,
        seed: 1610,
        pier: auto_stats_config(4_000),
        ..Default::default()
    });
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

    // Submit the continuous join before gossip has converged: it plans as a
    // symmetric rehash (default estimates).
    let origin = bed.nodes()[2];
    let sql = "SELECT s.label, r.v FROM sensors s JOIN readings r ON s.sid = r.sid \
               CONTINUOUS EVERY 5 SECONDS WINDOW 600 SECONDS";
    let id = bed.submit_sql(origin, sql).unwrap();
    bed.run_for(Duration::from_secs(65));

    // The origin's trace records the stats-driven switch at an epoch boundary.
    let node = bed.node(origin).unwrap();
    let trace = node.query_trace(id).expect("continuous query is still installed");
    assert!(trace.replans >= 1, "gossiped stats must flip the strategy");
    let switch = trace.switches.first().expect("switch must be recorded").clone();
    assert!(switch.contains("SymmetricHash -> BloomFilter"), "unexpected switch record: {switch}");
    let flip_epoch: u64 = switch
        .strip_prefix("epoch ")
        .and_then(|s| s.split(':').next())
        .and_then(|s| s.parse().ok())
        .expect("switch records its epoch");

    // Every reading joins exactly one sensor; the published data is static,
    // so every settled epoch must produce the identical full join.
    let expected: Vec<Tuple> = reading_rows
        .iter()
        .map(|r| {
            let sid = r.get(1).as_i64().unwrap();
            Tuple::new(vec![Value::str(format!("sensor-{sid}")), r.get(2).clone()])
        })
        .collect();

    let epochs = bed.epochs(origin, id);
    let pre = epochs.iter().copied().filter(|&e| e < flip_epoch).max().expect("a pre-flip epoch");
    // Nodes may apply the new spec one epoch after the origin; flip_epoch + 2
    // is the first epoch guaranteed to run purely on the new strategy.
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
    assert!(
        same_rows(&post_rows, &expected),
        "post-flip epoch {post}: {} rows vs {} expected",
        post_rows.len(),
        expected.len()
    );
    assert!(same_rows(&pre_rows, &post_rows), "flip must not change epoch results");

    // Re-planning went through the catalog version bump, which also
    // invalidates cached plans network-wide (the PR 2 cache keys on it).
    let totals = bed.engine_totals();
    assert!(totals.replans >= 1, "nodes must have applied the re-planned spec");
}

#[test]
fn departed_node_summaries_expire_after_ttl_of_missed_epochs() {
    // A node holding the lion's share of a table crashes permanently.  Its
    // last gossiped summary keeps circulating among the survivors, but no
    // fresher sequence number ever arrives — so after eight gossip rounds
    // (16 s of virtual time) every survivor evicts the entry and the
    // catalogs stop counting the departed node's tuples.
    let nodes = 10;
    let pier = auto_stats_config(2_000);
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed: 1611, pier, ..Default::default() });
    let readings = TableDef::new(
        "readings",
        Schema::of(&[("host", DataType::Str), ("v", DataType::Int)]),
        "host",
        Duration::from_secs(3_600),
    );
    bed.create_table_everywhere(&readings);

    let victim = bed.nodes()[3];
    for i in 0..200 {
        bed.publish_local(
            victim,
            "readings",
            Tuple::new(vec![Value::str(format!("v-{i}")), Value::Int(i)]),
        );
    }
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        if addr != victim {
            bed.publish_local(
                addr,
                "readings",
                Tuple::new(vec![Value::str(format!("h-{i}")), Value::Int(i as i64)]),
            );
        }
    }
    bed.run_for(Duration::from_secs(25));

    let survivor = bed.nodes()[7];
    let before = bed.node(survivor).unwrap().catalog().stats("readings").unwrap().rows;
    assert!(
        close(before, 209, 0.1),
        "gossip must converge on all 209 live rows first, saw {before}"
    );

    bed.kill_node(victim);
    bed.run_for(Duration::from_secs(30));

    let after = bed.node(survivor).unwrap().catalog().stats("readings").unwrap().rows;
    assert!(
        close(after, 9, 0.35),
        "the departed node's 200-row summary must be evicted, saw {after}"
    );

    // A genuine restart re-enters the view: its time-seeded sequence number
    // outranks the tombstone, so fresh summaries count again.
    bed.restart_node(victim);
    for i in 0..50 {
        bed.publish_local(
            victim,
            "readings",
            Tuple::new(vec![Value::str(format!("r-{i}")), Value::Int(i)]),
        );
    }
    bed.run_for(Duration::from_secs(25));
    let back = bed.node(survivor).unwrap().catalog().stats("readings").unwrap().rows;
    assert!(
        close(back, 59, 0.25),
        "the restarted node's fresh summaries must re-enter the totals, saw {back}"
    );
}
