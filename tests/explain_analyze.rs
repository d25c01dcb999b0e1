//! `EXPLAIN ANALYZE` end to end: the query runs, every node's per-operator
//! trace is aggregated over the DHT back to the origin, the rendered report
//! shows the network-wide totals next to the static plan, and — the key
//! property — the totals **reconcile** with the engine-wide counters
//! (`PierTestbed::engine_totals`), because the trace increments at exactly the
//! same points, scoped per query.

use pier::core::{EngineStats, OpTrace};
use pier::prelude::*;

fn monitoring_tables() -> (TableDef, TableDef) {
    let netstats = TableDef::new(
        "netstats",
        Schema::of(&[
            ("host", DataType::Str),
            ("out_rate", DataType::Float),
            ("in_rate", DataType::Float),
        ]),
        "host",
        Duration::from_secs(600),
    );
    let hostinfo = TableDef::new(
        "hostinfo",
        Schema::of(&[("host", DataType::Str), ("site", DataType::Str)]),
        "host",
        Duration::from_secs(600),
    );
    (netstats, hostinfo)
}

/// Boot the Figure-1 monitoring deployment: every node stores one traffic
/// reading and one host-description tuple about itself (`publish_local`, as
/// monitoring data about the local node is published), so the only wire
/// traffic in the run is the query's own.
fn monitoring_bed(nodes: usize, seed: u64) -> PierTestbed {
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed, ..Default::default() });
    let (netstats, hostinfo) = monitoring_tables();
    bed.create_table_everywhere(&netstats);
    bed.create_table_everywhere(&hostinfo);
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        // Three readings per host: same-key tuples rehash to the same join
        // site as one JoinBatch, so the batched wire path shows in the trace.
        for r in 0..3 {
            bed.publish_local(
                addr,
                "netstats",
                Tuple::new(vec![
                    Value::str(format!("host-{i}")),
                    Value::Float(8.0 * (i as f64 + 1.0) + r as f64),
                    Value::Float(2.0 * (i as f64 + 1.0)),
                ]),
            );
        }
        bed.publish_local(
            addr,
            "hostinfo",
            Tuple::new(vec![
                Value::str(format!("host-{i}")),
                Value::str(format!("site-{}", i % 3)),
            ]),
        );
    }
    bed.run_for(Duration::from_secs(2));
    bed
}

/// Run `sql` under `EXPLAIN ANALYZE` from node 1, stopping a continuous
/// query after `settle`; returns the report, the network-wide trace every
/// node reported, and the engine totals.
fn analyze(bed: &mut PierTestbed, sql: &str, settle: Duration) -> (String, OpTrace, EngineStats) {
    let origin = bed.nodes()[1];
    let report = bed.explain_analyze(origin, sql, settle).unwrap();
    let node = bed.node(origin).unwrap();
    let (reporters, trace) = node.collected_trace(node.originated_queries()[0]).unwrap();
    assert_eq!(reporters, bed.nodes().len() as u64, "every node must report its trace");
    let trace = trace.clone();
    (report, trace, bed.engine_totals())
}

const FIG1_JOIN: &str = "EXPLAIN ANALYZE SELECT n.host, h.site, n.out_rate \
     FROM netstats n JOIN hostinfo h ON n.host = h.host \
     CONTINUOUS EVERY 5 SECONDS WINDOW 600 SECONDS";

#[test]
fn explain_analyze_totals_reconcile_with_engine_totals() {
    let nodes = 12;
    let mut bed = monitoring_bed(nodes, 2004);
    let (report, trace, totals) = analyze(&mut bed, FIG1_JOIN, Duration::from_secs(18));

    // The static four-stage plan is rendered first, then the trace.
    assert!(report.contains("== binder =="), "{report}");
    assert!(report.contains("== distributed physical plan =="), "{report}");
    assert!(report.contains("== network-wide execution trace"), "{report}");
    assert!(report.contains("tuples scanned"), "{report}");
    assert!(report.contains("rows per epoch"), "{report}");

    // Reconciliation: the only query-path traffic in this deployment is the
    // analyzed query's, so its network-wide trace must equal the network-wide
    // engine counters, field for field.
    assert!(trace.epochs_run >= nodes as u64, "several epochs ran on every node");
    assert_eq!(trace.epochs_run, totals.epochs_run);
    assert_eq!(trace.tuples_scanned, totals.tuples_scanned);
    assert_eq!(trace.tuples_shipped, totals.join_tuples_sent);
    assert_eq!(trace.results_sent, totals.results_sent);
    assert_eq!(trace.messages_sent, totals.messages_sent);
    assert_eq!(trace.batches_sent, totals.batches_sent);
    assert_eq!(trace.bytes_shipped, totals.bytes_shipped);
    assert!(trace.tuples_scanned > 0 && trace.tuples_shipped > 0 && trace.bytes_shipped > 0);
    assert!(trace.batches_sent > 0, "same-key readings must coalesce into JoinBatches");

    // A plain join finalizes no aggregation epochs.
    assert_eq!(trace.finalized_on_completion, totals.finalized_on_completion);
    assert_eq!(trace.finalized_on_timer, totals.finalized_on_timer);

    // The numbers rendered in the report are the same ones.
    assert!(report.contains(&format!("{} tuples scanned", trace.tuples_scanned)), "{report}");

    // A continuous aggregate's trace reconciles too, including why each of
    // its root epochs finalized: the first on the collect timer, the rest on
    // completion once the previous epoch's contributors had reported.  It
    // does wherever the stop falls in an epoch's climb: the query starts
    // 32 s into the run, so these stops fall 0–500 ms into an epoch, and a
    // partial that reaches a node which already dropped the query is dropped
    // there too.  Forty nodes make the tree deep enough for that to happen.
    for settle_ms in (23_000..=23_500).step_by(50) {
        let mut bed = monitoring_bed(40, 2004);
        let (report, trace, totals) = analyze(
            &mut bed,
            "EXPLAIN ANALYZE SELECT COUNT(*) AS n, SUM(out_rate) AS total FROM netstats \
             CONTINUOUS EVERY 5 SECONDS WINDOW 600 SECONDS",
            Duration::from_millis(settle_ms),
        );
        assert_eq!(trace.partials_sent, totals.partials_sent, "stopped at {settle_ms} ms");
        assert_eq!(trace.partials_merged, totals.partials_merged, "stopped at {settle_ms} ms");
        assert_eq!(trace.results_sent, totals.results_sent, "stopped at {settle_ms} ms");
        assert_eq!(trace.messages_sent, totals.messages_sent, "stopped at {settle_ms} ms");
        assert_eq!(trace.bytes_shipped, totals.bytes_shipped, "stopped at {settle_ms} ms");
        assert_eq!(trace.finalized_on_completion, totals.finalized_on_completion);
        assert_eq!(trace.finalized_on_timer, totals.finalized_on_timer);
        assert!(trace.finalized_on_completion >= 2, "{report}");
        assert!(trace.finalized_on_timer >= 1, "{report}");
        assert!(
            report.contains(&format!(
                "{} epochs finalized on completion, {} on the timer",
                trace.finalized_on_completion, trace.finalized_on_timer
            )),
            "{report}"
        );
    }

    // A windowed HAVING trigger's alert puts are the query's traffic too.
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed: 2004, ..Default::default() });
    bed.create_table_everywhere(&monitoring_tables().0);
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        let reading = vec![
            Value::str(format!("host-{}", i % 3)),
            Value::Float(8.0 * (i as f64 + 1.0)),
            Value::Float(1.0),
        ];
        bed.publish_local(addr, "netstats", Tuple::new(reading));
    }
    bed.run_for(Duration::from_secs(2));
    let (report, trace, totals) = analyze(
        &mut bed,
        "EXPLAIN ANALYZE SELECT host, SUM(out_rate) AS total FROM netstats GROUP BY host \
         WINDOW TUMBLING 2 EPOCHS HAVING SUM(out_rate) > 10 CONTINUOUS EVERY 5 SECONDS",
        Duration::from_secs(25),
    );
    assert!(trace.alerts_emitted > 0, "{report}");
    assert_eq!(trace.alerts_emitted, totals.alerts_emitted);
    assert_eq!(trace.messages_sent, totals.messages_sent);
    assert_eq!(trace.bytes_shipped, totals.bytes_shipped);
}

#[test]
fn explain_analyze_reports_query_results_too() {
    // The analyzed query really executes: its per-epoch join rows arrive at
    // the origin exactly as a plain submission's would.
    let nodes = 10;
    let mut bed = monitoring_bed(nodes, 7411);
    let origin = bed.nodes()[0];
    bed.explain_analyze(origin, FIG1_JOIN, Duration::from_secs(12)).unwrap();

    let node = bed.node(origin).unwrap();
    let id = node.originated_queries()[0];
    let epochs = bed.epochs(origin, id);
    assert!(!epochs.is_empty());
    // A full epoch joins every host's three readings with its hostinfo row.
    let full: Vec<u64> =
        epochs.iter().copied().filter(|&e| bed.results(origin, id, e).len() == 3 * nodes).collect();
    assert!(!full.is_empty(), "at least one epoch must be complete: {epochs:?}");
    let rows = bed.results(origin, id, full[0]);
    assert!(rows.iter().any(|r| r.get(0).as_str() == Some("host-3")));
}

#[test]
fn explain_analyze_rejects_non_analyze_statements() {
    let mut bed = monitoring_bed(4, 99);
    let origin = bed.nodes()[0];
    let err = bed
        .explain_analyze(origin, "EXPLAIN SELECT host FROM netstats", Duration::from_secs(1))
        .unwrap_err();
    assert!(err.contains("use explain()"), "{err}");
    let err = bed
        .explain_analyze(origin, "SELECT host FROM netstats", Duration::from_secs(1))
        .unwrap_err();
    assert!(err.contains("EXPLAIN ANALYZE"), "{err}");

    // And the engine refuses to treat EXPLAIN ANALYZE as a plain submission.
    let err = bed.submit_sql(origin, FIG1_JOIN).unwrap_err();
    assert!(err.contains("explain_analyze"), "{err}");
}
