//! Windowed continuous queries: tumbling/sliding epoch windows, the
//! watermark-driven close, late data patching closed windows (and a plain
//! aggregate's closed epochs, its windows of one), the `HAVING` trigger with
//! alert publication, and window alignment across a mid-flight re-plan.
//!
//! Epoch attribution: nodes evaluate epoch `e` just after its boundary and a
//! windowed query's delta scan covers the preceding period, so a tuple
//! published at the *middle* of epoch `p` is counted in epoch `p + 1`.  The
//! tests publish mid-epoch and build their reference answers from that rule.

use pier::core::same_rows;
use pier::prelude::*;
use pier::simnet::{DetRng, LatencyModel};
use std::collections::BTreeMap;

const PERIOD_SECS: u64 = 2;

fn readings_table() -> TableDef {
    TableDef::new(
        "readings",
        Schema::of(&[("host", DataType::Str), ("g", DataType::Int), ("v", DataType::Int)]),
        "host",
        Duration::from_secs(120),
    )
}

fn epoch_of(bed: &PierTestbed) -> u64 {
    bed.now().as_micros() / (PERIOD_SECS * 1_000_000)
}

/// Advance to the middle of the next epoch; returns the epoch the next
/// publishes will be *attributed to* (the epoch after the publishing one).
fn advance_to_next_mid_epoch(bed: &mut PierTestbed) -> u64 {
    let pu = PERIOD_SECS * 1_000_000;
    let now = bed.now().as_micros();
    let target = (now / pu + 1) * pu + pu / 2;
    bed.run_for(Duration::from_micros(target - now));
    epoch_of(bed) + 1
}

/// Publish one randomized round: every node stores one `(host, g, v)` row
/// locally.  Returns the published tuples.
fn publish_round(bed: &mut PierTestbed, rng: &mut DetRng) -> Vec<Tuple> {
    let mut round = Vec::new();
    for addr in bed.alive_nodes() {
        let t = Tuple::new(vec![
            Value::str(format!("node-{}", addr.0)),
            Value::Int(rng.index(4) as i64),
            Value::Int(rng.range_u64(1, 50) as i64),
        ]);
        bed.publish_local(addr, "readings", t.clone());
        round.push(t);
    }
    round
}

/// Reference answer for `SELECT g, COUNT(*), SUM(v) ... GROUP BY g` over the
/// tuples attributed to epochs `[start, end]` (inclusive).
fn reference_rows(published: &BTreeMap<u64, Vec<Tuple>>, start: u64, end: u64) -> Vec<Tuple> {
    let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for (_, round) in published.range(start..=end) {
        for t in round {
            let g = match t.get(1) {
                Value::Int(g) => *g,
                other => panic!("unexpected group value {other:?}"),
            };
            let v = match t.get(2) {
                Value::Int(v) => *v,
                other => panic!("unexpected measure value {other:?}"),
            };
            let e = groups.entry(g).or_insert((0, 0));
            e.0 += 1;
            e.1 += v;
        }
    }
    groups
        .into_iter()
        .map(|(g, (n, sum))| Tuple::new(vec![Value::Int(g), Value::Int(n), Value::Int(sum)]))
        .collect()
}

/// Run `rounds` mid-epoch publish rounds of a windowed GROUP BY query and
/// return (testbed, query, per-epoch published tuples).
fn run_windowed(
    mut bed: PierTestbed,
    sql: &str,
    seed: u64,
    rounds: usize,
) -> (PierTestbed, NodeAddr, QueryId, BTreeMap<u64, Vec<Tuple>>) {
    bed.create_table_everywhere(&readings_table());
    let origin = bed.nodes()[1];
    let q = bed.submit_sql(origin, sql).unwrap();
    // Let the plan reach every node before the first publish round, so no
    // node's install-time scan overlaps its first epoch-boundary scan.
    bed.run_for(Duration::from_secs(2 * PERIOD_SECS));

    let mut rng = DetRng::new(seed);
    let mut published: BTreeMap<u64, Vec<Tuple>> = BTreeMap::new();
    for _ in 0..rounds {
        let attributed = advance_to_next_mid_epoch(&mut bed);
        let round = publish_round(&mut bed, &mut rng);
        published.insert(attributed, round);
    }
    // Let the trailing windows close and their results settle.
    bed.run_for(Duration::from_secs(6 * PERIOD_SECS));
    (bed, origin, q, published)
}

#[test]
fn tumbling_windows_match_reference() {
    let nodes = 16;
    let bed = PierTestbed::new(TestbedConfig { nodes, seed: 4101, ..Default::default() });
    let sql = "SELECT g, COUNT(*) AS n, SUM(v) AS total FROM readings GROUP BY g \
               WINDOW TUMBLING 3 EPOCHS CONTINUOUS EVERY 2 SECONDS";
    let (bed, origin, q, published) = run_windowed(bed, sql, 0xA11CE, 12);

    let windows = bed.epochs(origin, q);
    assert!(windows.len() >= 3, "several windows must have closed: {windows:?}");
    let mut nonempty = 0;
    for &w in &windows {
        let got = bed.results(origin, q, w);
        let expected = reference_rows(&published, 3 * w, 3 * w + 2);
        assert!(
            same_rows(&got, &expected),
            "window {w} (epochs {}..={}) mismatch:\n got {got:?}\n want {expected:?}",
            3 * w,
            3 * w + 2
        );
        if !expected.is_empty() {
            nonempty += 1;
            // Empty partials still count a node, so every window that closed
            // after full dissemination reports full turnout.
            assert_eq!(bed.contributors(origin, q, w), nodes as u64, "window {w} turnout");
        }
    }
    assert!(nonempty >= 3, "windows with data must be reported: {windows:?}");

    let totals = {
        let mut bed = bed;
        bed.engine_totals()
    };
    assert!(totals.windows_closed >= nonempty, "root must count closed windows");
    assert_eq!(totals.late_patched, 0, "nothing is late under test latencies");
    assert_eq!(totals.late_dropped, 0, "nothing is late under test latencies");
}

#[test]
fn sliding_windows_match_reference() {
    let bed = PierTestbed::new(TestbedConfig { nodes: 12, seed: 4202, ..Default::default() });
    let sql = "SELECT g, COUNT(*) AS n, SUM(v) AS total FROM readings GROUP BY g \
               WINDOW SLIDING 4 EPOCHS SLIDE 2 EPOCHS CONTINUOUS EVERY 2 SECONDS";
    let (bed, origin, q, published) = run_windowed(bed, sql, 0x51DE, 12);

    let windows = bed.epochs(origin, q);
    assert!(windows.len() >= 4, "several slides must have closed: {windows:?}");
    // Consecutive window ids: the slide advances by exactly `slide` epochs,
    // with no gaps or duplicates in the reported sequence.
    for pair in windows.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "window ids must be contiguous: {windows:?}");
    }
    let mut nonempty = 0;
    for &w in &windows {
        let got = bed.results(origin, q, w);
        let expected = reference_rows(&published, 2 * w, 2 * w + 3);
        assert!(
            same_rows(&got, &expected),
            "window {w} (epochs {}..={}) mismatch:\n got {got:?}\n want {expected:?}",
            2 * w,
            2 * w + 3
        );
        if !expected.is_empty() {
            nonempty += 1;
        }
    }
    assert!(nonempty >= 4, "windows with data must be reported: {windows:?}");
}

/// Drive genuinely late partials end-to-end: the root finalizes almost
/// immediately (tiny collect/hold-down delays) while every remote partial
/// needs ≥ 300 ms of fixed network latency per hop, so each window's final
/// epoch is reported before the remote data for it arrives.
fn late_data_run(
    sql: &str,
    seed: u64,
) -> (PierTestbed, NodeAddr, QueryId, BTreeMap<u64, Vec<Tuple>>) {
    let mut pier = PierConfig::fast_test();
    pier.collect_delay = Duration::from_millis(1);
    pier.holddown = Duration::from_millis(1);
    let bed = PierTestbed::new(TestbedConfig {
        nodes: 8,
        seed,
        pier,
        latency: Some(LatencyModel::Constant(Duration::from_millis(300))),
        warmup: Duration::from_secs(40),
        ..Default::default()
    });
    run_windowed(bed, sql, seed ^ 0x1A7E, 8)
}

#[test]
fn late_partials_converge_under_patch_policy() {
    // A declared tumbling window, and a plain aggregate: each of its epochs
    // is a window of one, covering the tuples attributed to that epoch (its
    // time window is one period).
    let queries = [
        (
            "SELECT g, COUNT(*) AS n, SUM(v) AS total FROM readings GROUP BY g \
             WINDOW TUMBLING 2 EPOCHS CONTINUOUS EVERY 2 SECONDS",
            2,
        ),
        (
            "SELECT g, COUNT(*) AS n, SUM(v) AS total FROM readings GROUP BY g \
             CONTINUOUS EVERY 2 SECONDS WINDOW 2 SECONDS",
            1,
        ),
    ];
    for (sql, size) in queries {
        let (mut bed, origin, q, published) = late_data_run(sql, 4303);
        let totals = bed.engine_totals();
        assert!(totals.late_patched > 0, "late data must have patched: {sql}\n{totals:?}");

        // Re-emitted corrections replace the under-reported rows: every
        // closed window converges to the full reference answer, and the
        // origin counts each window's rows once, however often it was
        // re-emitted.
        let windows = bed.epochs(origin, q);
        assert!(published.keys().all(|e| windows.contains(&(e / size))), "{sql}: {windows:?}");
        let trace = bed.node(origin).unwrap().query_trace(q).expect("query is installed").clone();
        let results = bed.node(origin).unwrap().results(q).expect("origin holds results");
        let mut stored = 0;
        for &w in &windows {
            let got = bed.results(origin, q, w);
            let expected = reference_rows(&published, size * w, size * w + size - 1);
            assert!(
                same_rows(&got, &expected),
                "{sql}: window {w} did not converge:\n got {got:?}\n want {expected:?}"
            );
            let rows = results.raw_rows(w).len() as u64;
            assert_eq!(trace.epoch_rows.get(&w).copied().unwrap_or(0), rows, "{sql}: window {w}");
            stored += rows;
        }
        assert_eq!(trace.results_sent, stored, "{sql}");
    }
}

fn int_at(t: &Tuple, idx: usize) -> i64 {
    match t.get(idx) {
        Value::Int(v) => *v,
        other => panic!("expected Int at {idx}, got {other:?}"),
    }
}

#[test]
fn having_trigger_fires_exactly_once_per_qualifying_window() {
    let nodes = 12;
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed: 4404, ..Default::default() });
    bed.create_table_everywhere(&readings_table());
    let origin = bed.nodes()[0];
    // Group 1's window total crosses the threshold only in "hot" windows.
    let threshold: i64 = 500;
    let sql = "SELECT g, SUM(v) AS total FROM readings GROUP BY g \
               WINDOW TUMBLING 2 EPOCHS HAVING SUM(v) > 500 \
               CONTINUOUS EVERY 2 SECONDS";
    let q = bed.submit_sql(origin, sql).unwrap();

    // Subscribe to the query's alert namespace from a different node with an
    // ordinary continuous scan (the algebraic interface reaches namespaces
    // SQL identifiers cannot spell).
    let subscriber = bed.nodes()[7];
    let alert_ns = pier::core::PierNode::alert_namespace(q);
    let sub = bed
        .submit_query(
            subscriber,
            QueryKind::Select {
                table: alert_ns,
                filter: None,
                project: (0..3).map(pier::core::Expr::col).collect(),
                order_by: vec![],
                limit: None,
            },
            vec!["window".into(), "g".into(), "total".into()],
            Some(ContinuousSpec {
                period: Duration::from_secs(PERIOD_SECS),
                window: Duration::from_secs(90),
            }),
        )
        .unwrap();
    bed.run_for(Duration::from_secs(2 * PERIOD_SECS));

    let mut rng = DetRng::new(0x7816);
    let mut published: BTreeMap<u64, Vec<Tuple>> = BTreeMap::new();
    for _ in 0..10 {
        let attributed = advance_to_next_mid_epoch(&mut bed);
        let hot = (attributed / 2).is_multiple_of(2);
        let mut round = Vec::new();
        for addr in bed.alive_nodes() {
            let v = if hot { 50 } else { 1 + (rng.index(3) as i64) };
            let t = Tuple::new(vec![
                Value::str(format!("node-{}", addr.0)),
                Value::Int(1),
                Value::Int(v),
            ]);
            bed.publish_local(addr, "readings", t.clone());
            round.push(t);
        }
        published.insert(attributed, round);
    }
    bed.run_for(Duration::from_secs(6 * PERIOD_SECS));

    // Which (window, group) pairs should have fired?
    let windows = bed.epochs(origin, q);
    let mut expected: Vec<(i64, i64)> = Vec::new();
    for &w in &windows {
        for row in reference_rows(&published, 2 * w, 2 * w + 1) {
            if int_at(&row, 2) > threshold {
                expected.push((w as i64, int_at(&row, 0)));
            }
        }
        // The query's own result rows are exactly the qualifying groups.
        let got = bed.results(origin, q, w);
        let want: Vec<Tuple> = reference_rows(&published, 2 * w, 2 * w + 1)
            .into_iter()
            .filter(|r| int_at(r, 2) > threshold)
            .map(|r| Tuple::new(vec![r.get(0).clone(), r.get(2).clone()]))
            .collect();
        assert!(
            same_rows(&got, &want),
            "window {w} trigger rows mismatch:\n got {got:?}\n want {want:?}"
        );
    }
    assert!(!expected.is_empty(), "the workload must produce qualifying windows");
    assert!(expected.len() < windows.len(), "and non-qualifying windows");

    // The subscriber's latest scan sees each alert exactly once: keys are
    // deterministic per (window, group), so nothing duplicates.
    let sub_epochs = bed.epochs(subscriber, sub);
    let last = *sub_epochs.last().expect("subscriber must have evaluated");
    let alerts = bed.results(subscriber, sub, last);
    let mut seen: Vec<(i64, i64)> = alerts.iter().map(|t| (int_at(t, 0), int_at(t, 1))).collect();
    seen.sort_unstable();
    let mut deduped = seen.clone();
    deduped.dedup();
    assert_eq!(seen, deduped, "an alert fired more than once: {alerts:?}");
    expected.sort_unstable();
    assert_eq!(seen, expected, "alert set must equal the qualifying windows");

    let totals = bed.engine_totals();
    assert_eq!(totals.alerts_emitted, expected.len() as u64);
    assert!(totals.windows_closed >= windows.len() as u64);
}

#[test]
fn replan_keeps_window_boundaries_aligned() {
    // A windowed GROUP BY over a join whose strategy flips mid-flight once
    // gossiped statistics converge.  Window ids derive from absolute epochs,
    // so the flip must not shift, duplicate, or drop any window.
    let nodes = 14;
    let mut pier = PierConfig::fast_test();
    pier.auto_stats = true;
    pier.stats_interval = Duration::from_millis(4_000);
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed: 4505, pier, ..Default::default() });
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

    // Resident bulk data drives the statistics gossip (and the re-plan); the
    // windowed query never scans it — its delta scans only see the per-epoch
    // rounds below.
    let addrs = bed.nodes().to_vec();
    let bulk_sensors: Vec<Tuple> = (0..30)
        .map(|s| Tuple::new(vec![Value::Int(s), Value::str(format!("sensor-{s}"))]))
        .collect();
    let bulk_readings: Vec<Tuple> = (0..600)
        .map(|r| Tuple::new(vec![Value::Int(r), Value::Int(r % 30), Value::Int(r * 3)]))
        .collect();
    for (i, chunk) in bulk_sensors.chunks(8).enumerate() {
        bed.publish_batch(addrs[i % addrs.len()], "sensors", chunk.to_vec());
    }
    for (i, chunk) in bulk_readings.chunks(40).enumerate() {
        bed.publish_batch(addrs[(i + 3) % addrs.len()], "readings", chunk.to_vec());
    }
    bed.run_for(Duration::from_secs(7));

    let origin = bed.nodes()[2];
    let sql = "SELECT s.label, COUNT(*) AS n, SUM(r.v) AS total \
               FROM sensors s JOIN readings r ON s.sid = r.sid GROUP BY s.label \
               WINDOW TUMBLING 2 EPOCHS CONTINUOUS EVERY 5 SECONDS";
    let id = bed.submit_sql(origin, sql).unwrap();
    bed.run_for(Duration::from_secs(10));

    // Per-epoch rounds: a small sensor set re-published with fresh readings
    // every epoch (delta scans match within an epoch), mid-epoch as above.
    let period_us = 5_000_000u64;
    let n_live = 6i64;
    let mut published: BTreeMap<u64, Vec<(i64, i64)>> = BTreeMap::new();
    for round in 0..14i64 {
        let now = bed.now().as_micros();
        let target = (now / period_us + 1) * period_us + period_us / 2;
        bed.run_for(Duration::from_micros(target - now));
        let attributed = bed.now().as_micros() / period_us + 1;
        let mut pairs = Vec::new();
        for s in 0..n_live {
            bed.publish_local(
                addrs[(s % nodes as i64) as usize],
                "sensors",
                Tuple::new(vec![Value::Int(1000 + s), Value::str(format!("live-{s}"))]),
            );
            let v = 7 * round + s;
            bed.publish_local(
                addrs[((s + round) % nodes as i64) as usize],
                "readings",
                Tuple::new(vec![
                    Value::Int(10_000 + round * 100 + s),
                    Value::Int(1000 + s),
                    Value::Int(v),
                ]),
            );
            pairs.push((s, v));
        }
        published.insert(attributed, pairs);
    }
    bed.run_for(Duration::from_secs(30));

    let node = bed.node(origin).unwrap();
    let trace = node.query_trace(id).expect("continuous query is still installed");
    assert!(trace.replans >= 1, "gossiped stats must flip the plan: {trace:?}");

    let windows = bed.epochs(origin, id);
    assert!(windows.len() >= 4, "several windows must have closed: {windows:?}");
    for pair in windows.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "window ids must stay contiguous: {windows:?}");
    }
    let mut nonempty = 0;
    for &w in &windows {
        let got = bed.results(origin, id, w);
        // Reference: per live sensor, matches from the window's two epochs.
        let mut expected: Vec<Tuple> = Vec::new();
        for s in 0..n_live {
            let (mut n, mut total) = (0i64, 0i64);
            for e in (2 * w)..=(2 * w + 1) {
                if let Some(pairs) = published.get(&e) {
                    for &(ps, v) in pairs {
                        if ps == s {
                            n += 1;
                            total += v;
                        }
                    }
                }
            }
            if n > 0 {
                expected.push(Tuple::new(vec![
                    Value::str(format!("live-{s}")),
                    Value::Int(n),
                    Value::Int(total),
                ]));
            }
        }
        assert!(
            same_rows(&got, &expected),
            "window {w} mismatch across the re-plan:\n got {got:?}\n want {expected:?}"
        );
        if !expected.is_empty() {
            nonempty += 1;
        }
    }
    assert!(nonempty >= 3, "windows with data must be reported: {windows:?}");
}
