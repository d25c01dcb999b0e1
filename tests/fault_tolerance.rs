//! Failure-injection integration tests: message loss, node crashes mid-query,
//! and network partitions.  PIER's claim is graceful degradation — queries
//! keep returning (possibly partial) answers and the system recovers without
//! operator intervention.

use pier::apps::filesharing::{files_table, keywords_table, FileCorpus};
use pier::apps::netmon::{netstats_table, NetworkMonitor};
use pier::core::{Catalog, JoinStrategy, MemoryDb, Planner};
use pier::prelude::*;
use pier::simnet::{LossModel, PartitionSet};

fn lossy_testbed(nodes: usize, seed: u64, loss: f64) -> PierTestbed {
    PierTestbed::new(TestbedConfig {
        nodes,
        seed,
        loss: LossModel::Bernoulli(loss),
        warmup: Duration::from_secs(60),
        ..Default::default()
    })
}

/// The one-shot `COUNT(*)` a deployment of `nodes` under 1 % loss answers.
fn count_under_one_percent_loss(nodes: usize, seed: u64) -> i64 {
    let mut bed = lossy_testbed(nodes, seed, 0.01);
    bed.create_table_everywhere(&netstats_table());
    let mut monitor = NetworkMonitor::new(nodes, seed);
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        bed.publish_local(addr, "netstats", monitor.sample(i));
    }
    bed.run_for(Duration::from_secs(3));

    let origin = bed.nodes()[0];
    let q = bed.submit_sql(origin, "SELECT COUNT(*) FROM netstats").unwrap();
    bed.run_for(Duration::from_secs(15));

    let rows = bed.results(origin, q, 0);
    assert_eq!(rows.len(), 1, "seed {seed}: the aggregate must still produce an answer");
    assert!(bed.metrics().messages_dropped_loss() > 0, "loss model must actually drop messages");
    rows[0].get(0).as_i64().unwrap()
}

#[test]
fn aggregate_survives_one_percent_message_loss() {
    // Under 1% loss the vast majority of nodes still contribute.  Every
    // message's loss is drawn from one simulator stream, so which ones are
    // lost depends on all the traffic before them: judge a sweep of seeds,
    // not one draw.  Over seeds 1..=120, 93–95 % of seeds count at least 20
    // and the mean count is 22.8–23.0; both bounds sit about 2.5 standard
    // errors below that for 20 seeds.
    let nodes = 24;
    let counts: Vec<i64> =
        (33..=52).map(|seed| count_under_one_percent_loss(nodes, seed)).collect();
    eprintln!("COUNT(*) per seed 33..=52: {counts:?}");
    assert!(counts.iter().all(|&c| c <= nodes as i64), "more contributors than nodes: {counts:?}");
    let covered = counts.iter().filter(|&&c| c >= nodes as i64 - 4).count();
    let mean = counts.iter().sum::<i64>() as f64 / counts.len() as f64;
    assert!(covered >= 16, "only {covered}/20 seeds counted 20 of {nodes}: {counts:?}");
    assert!(mean >= 21.5, "mean count {mean:.2} of {nodes}: {counts:?}");
}

#[test]
fn continuous_query_survives_origin_isolation_and_heals() {
    // Partition the query origin away from the rest of the network for a
    // while: epochs during the partition cannot reach it, but once healed the
    // stream of per-epoch answers resumes.
    let nodes = 20;
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes,
        seed: 7,
        warmup: Duration::from_secs(40),
        ..Default::default()
    });
    bed.create_table_everywhere(&netstats_table());
    let mut monitor = NetworkMonitor::new(nodes, 7);

    let origin = bed.nodes()[0];
    let q = bed.submit_sql(origin, &NetworkMonitor::figure1_sql(5, 10)).unwrap();

    // Healthy operation first.
    for _ in 0..4 {
        monitor.publish_round(&mut bed);
        bed.run_for(Duration::from_secs(5));
    }
    let epochs_before = bed.epochs(origin, q).len();
    assert!(epochs_before >= 2, "need some healthy epochs first");

    // Partition the origin on its own.
    let others: Vec<NodeAddr> = bed.nodes().iter().copied().filter(|a| *a != origin).collect();
    bed.sim().set_partition(PartitionSet::split(&[&[origin][..], &others[..]]));
    for _ in 0..3 {
        monitor.publish_round(&mut bed);
        bed.run_for(Duration::from_secs(5));
    }

    // Heal and continue.
    bed.sim().heal_partition();
    for _ in 0..5 {
        monitor.publish_round(&mut bed);
        bed.run_for(Duration::from_secs(5));
    }
    let epochs_after = bed.epochs(origin, q).len();
    assert!(
        epochs_after > epochs_before,
        "no new epochs arrived after the partition healed ({epochs_before} -> {epochs_after})"
    );

    // The latest epoch after healing once again aggregates most of the network.
    let last = *bed.epochs(origin, q).last().unwrap();
    let responding = bed.contributors(origin, q, last);
    assert!(responding >= (nodes as u64) - 4, "only {responding} nodes responding after heal");
}

#[test]
fn mid_query_crash_of_data_holders_degrades_gracefully() {
    // Crash three nodes while a continuous aggregate is running.  The epoch in
    // flight when the crash happens may be truncated (the aggregation tree can
    // lose a subtree), but subsequent epochs must recover to
    // "everyone who is still alive" — that is PIER's graceful-degradation claim.
    let nodes = 24;
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes,
        seed: 21,
        warmup: Duration::from_secs(40),
        ..Default::default()
    });
    bed.create_table_everywhere(&netstats_table());
    let mut monitor = NetworkMonitor::new(nodes, 21);

    let origin = bed.nodes()[0];
    let q = bed
        .submit_sql(
            origin,
            "SELECT COUNT(*) AS hosts FROM netstats \
        CONTINUOUS EVERY 5 SECONDS WINDOW 10 SECONDS",
        )
        .unwrap();

    // One healthy epoch, then the crash, then several more epochs.
    monitor.publish_round(&mut bed);
    bed.run_for(Duration::from_secs(6));
    for addr in [NodeAddr(5), NodeAddr(9), NodeAddr(13)] {
        bed.kill_node(addr);
    }
    for _ in 0..6 {
        monitor.publish_round(&mut bed);
        bed.run_for(Duration::from_secs(5));
    }

    let epochs = bed.epochs(origin, q);
    assert!(epochs.len() >= 4, "continuous query stalled after the crash");
    let last = *epochs.last().unwrap();
    let rows = bed.results(origin, q, last);
    assert_eq!(rows.len(), 1);
    let count = rows[0].get(0).as_i64().unwrap();
    // 21 survivors keep publishing one reading every ~5 s into a 10 s window,
    // so each epoch sees one or two live readings per surviving host — and
    // none from the crashed hosts, whose soft state has expired.
    assert!((18..=2 * 21).contains(&count), "unexpected surviving reading count {count}");
    assert!(bed.contributors(origin, q, last) >= 18);
}

#[test]
fn lost_batches_degrade_like_lost_tuples_not_a_hang() {
    // Batching on (the default): join tuples travel as multi-tuple
    // JoinBatches and results as ResultBatches.  Crash nodes *while the
    // batches are in flight*: whatever a dead node was carrying — batch or
    // single tuple — is lost the same way, so the query must still return,
    // with the surviving subset of the reference answer, instead of hanging.
    let nodes = 20;
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed: 1606, ..Default::default() });
    bed.create_table_everywhere(&files_table());
    bed.create_table_everywhere(&keywords_table());
    let corpus = FileCorpus::generate(260, nodes, 1606);
    corpus.publish(&mut bed);
    bed.run_for(Duration::from_secs(8));

    let mut catalog = Catalog::new();
    catalog.register(files_table());
    catalog.register(keywords_table());
    let mut db = MemoryDb::new();
    db.insert("files", corpus.files().to_vec());
    db.insert("keywords", corpus.postings().to_vec());

    let sql = FileCorpus::search_sql("music");
    let stmt = pier::core::sql::parse_select(&sql).unwrap();
    let planned = Planner::with_join_strategy(&catalog, JoinStrategy::SymmetricHash)
        .plan_select(&stmt)
        .unwrap();
    let reference = db.execute(&planned.logical);
    assert!(!reference.is_empty());

    let origin = bed.nodes()[0];
    let q =
        bed.submit_query(origin, planned.kind, planned.output_names, planned.continuous).unwrap();
    // Let dissemination start, then crash three nodes right as the rehash
    // batches are being routed (join state and in-flight batches die with
    // them).
    bed.run_for(Duration::from_millis(400));
    for addr in [NodeAddr(6), NodeAddr(11), NodeAddr(17)] {
        bed.kill_node(addr);
    }
    bed.run_for(Duration::from_secs(20));

    let rows = bed.results(origin, q, 0);
    assert!(!rows.is_empty(), "query hung: no results after losing batches to dead nodes");
    assert!(
        rows.len() <= reference.len(),
        "lost batches must only remove rows ({} distributed vs {} reference)",
        rows.len(),
        reference.len()
    );
    // Multiset-subset of the reference: a lost batch removes matches, never
    // invents or duplicates them.
    let mut remaining = reference.clone();
    for row in &rows {
        let pos = remaining.iter().position(|r| r == row);
        assert!(pos.is_some(), "row {row:?} not in the reference answer");
        remaining.remove(pos.unwrap());
    }
}

#[test]
fn continuous_query_with_batched_publishes_survives_crashes() {
    // Routed batched publishes + continuous aggregation under mid-run
    // crashes: epochs must keep advancing and recover to the survivor count.
    let nodes = 20;
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes,
        seed: 2707,
        warmup: Duration::from_secs(40),
        ..Default::default()
    });
    bed.create_table_everywhere(&netstats_table());
    let mut monitor = NetworkMonitor::new(nodes, 2707);

    let origin = bed.nodes()[0];
    let q = bed
        .submit_sql(
            origin,
            "SELECT COUNT(*) AS readings FROM netstats \
             CONTINUOUS EVERY 5 SECONDS WINDOW 5 SECONDS",
        )
        .unwrap();

    let publish_round = |bed: &mut PierTestbed, monitor: &mut NetworkMonitor| {
        for addr in bed.alive_nodes() {
            let node = addr.0 as usize;
            let sample = monitor.sample(node);
            bed.publish_batch(addr, "netstats", vec![sample]);
        }
    };

    publish_round(&mut bed, &mut monitor);
    bed.run_for(Duration::from_secs(6));
    // Crash a slice of the network immediately after it published: the
    // tuples (and any batches) in flight toward the dead nodes are lost.
    for addr in [NodeAddr(4), NodeAddr(9), NodeAddr(14), NodeAddr(19)] {
        bed.kill_node(addr);
    }
    for _ in 0..6 {
        publish_round(&mut bed, &mut monitor);
        bed.run_for(Duration::from_secs(5));
    }

    let epochs = bed.epochs(origin, q);
    assert!(epochs.len() >= 4, "continuous query stalled after losing batches to crashes");
    let last = *epochs.last().unwrap();
    let rows = bed.results(origin, q, last);
    assert_eq!(rows.len(), 1);
    let count = rows[0].get(0).as_i64().unwrap();
    // 16 survivors publish one reading per 5 s window; some readings land on
    // (and die with) the crashed nodes' key ranges until the ring heals.
    assert!(
        (10..=20).contains(&count),
        "unexpected surviving reading count {count} (16 survivors)"
    );
}

#[test]
fn expired_soft_state_drops_out_of_answers() {
    let nodes = 12;
    let mut bed = PierTestbed::new(TestbedConfig {
        nodes,
        seed: 31,
        warmup: Duration::from_secs(30),
        ..Default::default()
    });
    // netstats TTL is 30 s; publish once and query twice, 60 s apart.
    bed.create_table_everywhere(&netstats_table());
    let mut monitor = NetworkMonitor::new(nodes, 31);
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        bed.publish_local(addr, "netstats", monitor.sample(i));
    }
    bed.run_for(Duration::from_secs(2));

    let origin = bed.nodes()[0];
    let q1 = bed.submit_sql(origin, "SELECT COUNT(*) FROM netstats").unwrap();
    bed.run_for(Duration::from_secs(12));
    let fresh = bed.results(origin, q1, 0)[0].get(0).as_i64().unwrap();
    assert_eq!(fresh, nodes as i64);

    // Let the soft state expire without renewal.
    bed.run_for(Duration::from_secs(60));
    let q2 = bed.submit_sql(origin, "SELECT COUNT(*) FROM netstats").unwrap();
    bed.run_for(Duration::from_secs(12));
    let stale = bed.results(origin, q2, 0)[0].get(0).as_i64().unwrap();
    assert_eq!(stale, 0, "expired tuples must not be counted");
}

/// ROADMAP D9: a node that adopts a new predecessor hands over the items
/// whose keys the newcomer now owns.  Readings a node stored for itself
/// (`publish_local`) are not owned by key; moved, they were stored anew at
/// the receiver, and its windowed scans counted them again.  A continuous
/// windowed SUM over such readings must equal the live nodes' readings in
/// every epoch, also after a node rejoins mid-run.
#[test]
fn hand_off_leaves_local_readings_with_their_publisher() {
    const NODES: usize = 16;
    const PERIOD_MS: u64 = 5_000;
    /// Epochs a reading stays in the query's window.
    const WINDOW_EPOCHS: u64 = 4;
    const READINGS: usize = 12;
    let sql =
        "SELECT COUNT(*) AS c, SUM(v) AS s FROM m CONTINUOUS EVERY 5 SECONDS WINDOW 20 SECONDS";
    let table = TableDef::new(
        "m",
        Schema::of(&[("sensor", DataType::Str), ("v", DataType::Int)]),
        "sensor",
        Duration::from_secs(3_600),
    );
    let mut bed = PierTestbed::quick(NODES, 0xD9);
    bed.create_table_everywhere(&table);
    let origin = bed.nodes()[1];
    // The rejoining node publishes nothing: the live nodes' readings are the
    // other nodes' readings, whether or not it is in the ring.
    let rejoiner = bed.nodes()[9];
    bed.kill_node(rejoiner);
    bed.run_for(Duration::from_secs(5));

    let epoch_ms = |e: u64, ms: u64| SimTime::from_micros((e * PERIOD_MS + ms) * 1_000);
    let first = bed.now().as_micros() / 1_000 / PERIOD_MS + 1;
    bed.run_until(epoch_ms(first, 2_600));
    let q = bed.submit_sql(origin, sql).unwrap();
    let rejoin = first + 8;
    let end = first + 16;
    // Every epoch, 2.5 s in, every publishing node stores readings about
    // its sensors under keys spread over the whole ring.
    let mut published: Vec<(u64, i64)> = Vec::new();
    for e in first + 1..end {
        bed.run_until(epoch_ms(e, 2_500));
        for (i, addr) in bed.nodes().to_vec().into_iter().enumerate() {
            if addr == rejoiner {
                continue;
            }
            for j in 0..READINGS {
                let v = (e as i64 % 100) * 10_000 + (i * READINGS + j) as i64;
                let row = Tuple::new(vec![Value::str(format!("n{i}-s{j}")), Value::Int(v)]);
                bed.publish_local(addr, "m", row);
                published.push((e, v));
            }
        }
        if e == rejoin {
            bed.run_for(Duration::from_millis(500));
            bed.restart_node(rejoiner);
        }
    }
    bed.run_until(epoch_ms(end, 4_000));

    // Epoch `e` scans the readings stored in the window before its start:
    // those published in the WINDOW_EPOCHS epochs before it.
    for e in first + 1 + WINDOW_EPOCHS..end {
        let window: Vec<i64> = published
            .iter()
            .filter(|(p, _)| (e - WINDOW_EPOCHS..e).contains(p))
            .map(|&(_, v)| v)
            .collect();
        let want = vec![Tuple::new(vec![
            Value::Int(window.len() as i64),
            Value::Int(window.iter().sum()),
        ])];
        let got = bed.results(origin, q, e);
        assert_eq!(got, want, "epoch {e} (the node rejoined in epoch {rejoin})");
    }
}
