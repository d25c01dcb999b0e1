//! `EXPLAIN ANALYZE` end to end: the query runs, every node's per-operator
//! trace is aggregated over the DHT back to the origin, the rendered report
//! shows the network-wide totals next to the static plan, and — the key
//! property — the totals **reconcile** with the engine-wide counters
//! (`PierTestbed::engine_totals`): each query event is counted once, in its
//! query's trace, and a node's engine counters are computed from those
//! traces.

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

/// Every query-path field of the engine totals equals the like-named
/// counter of `sum`, the traces of every query summed over every node.
fn assert_totals_are_trace_sums(sum: &OpTrace, totals: &EngineStats, what: &str) {
    let bloom_tested: u64 = sum.stage_bloom_tested.values().sum();
    let bloom_passed: u64 = sum.stage_bloom_passed.values().sum();
    let pairs = [
        ("epochs_run", sum.epochs_run, totals.epochs_run),
        ("tuples_scanned", sum.tuples_scanned, totals.tuples_scanned),
        ("join_tuples_sent", sum.tuples_shipped, totals.join_tuples_sent),
        ("join_matches", sum.join_matches, totals.join_matches),
        ("expands_sent", sum.expands_sent, totals.expands_sent),
        ("partials_sent", sum.partials_sent, totals.partials_sent),
        ("partials_merged", sum.partials_merged, totals.partials_merged),
        ("results_sent", sum.results_sent, totals.results_sent),
        ("messages_sent", sum.messages_sent, totals.messages_sent),
        ("batches_sent", sum.batches_sent, totals.batches_sent),
        ("bytes_shipped", sum.bytes_shipped, totals.bytes_shipped),
        ("replans", sum.replans, totals.replans),
        ("bloom_tested", bloom_tested, totals.bloom_tested),
        ("bloom_passed", bloom_passed, totals.bloom_passed),
        ("bloom_fallbacks", sum.bloom_fallbacks, totals.bloom_fallbacks),
        ("windows_closed", sum.windows_closed, totals.windows_closed),
        ("late_patched", sum.late_patched, totals.late_patched),
        ("late_dropped", sum.late_dropped, totals.late_dropped),
        ("alerts_emitted", sum.alerts_emitted, totals.alerts_emitted),
        ("finalized_on_completion", sum.finalized_on_completion, totals.finalized_on_completion),
        ("finalized_on_timer", sum.finalized_on_timer, totals.finalized_on_timer),
    ];
    for (field, traced, total) in pairs {
        assert_eq!(traced, total, "{field}: traces vs engine totals, {what}");
    }
}

#[test]
fn two_concurrent_queries_reconcile_with_engine_totals() {
    // A continuous aggregate and a continuous join run side by side from
    // different origins; one of them is stopped while an epoch's traffic is
    // in flight.  The traces of both queries, summed over every node, still
    // equal the engine totals field for field: the stopped query's final
    // trace is what the nodes' counters keep.
    const AGG: &str = "SELECT COUNT(*) AS n, SUM(out_rate) AS total FROM netstats \
                       CONTINUOUS EVERY 5 SECONDS WINDOW 600 SECONDS";
    let join_sql = FIG1_JOIN.trim_start_matches("EXPLAIN ANALYZE ");
    for (stop_agg, offset_ms) in [(true, 60), (true, 250), (false, 40), (false, 180)] {
        let name = if stop_agg { "aggregate" } else { "join" };
        let what = format!("stopping the {name} {offset_ms} ms into an epoch");
        let mut bed = monitoring_bed(40, 2004);
        let (agg_origin, join_origin) = (bed.nodes()[1], bed.nodes()[2]);
        let agg = bed.submit_sql(agg_origin, AGG).unwrap();
        let join = bed.submit_sql(join_origin, join_sql).unwrap();
        // `offset_ms` past the fifth epoch boundary after submission.
        let period = 5_000_000;
        let stop_at = (bed.now().as_micros() / period + 5) * period + offset_ms * 1_000;
        bed.run_until(SimTime::from_micros(stop_at));
        let (origin, stopped) = if stop_agg { (agg_origin, agg) } else { (join_origin, join) };
        bed.stop_query(origin, stopped);
        bed.run_for(Duration::from_secs(8));

        let mut sum = OpTrace::default();
        for &addr in bed.nodes() {
            let node = bed.node(addr).unwrap();
            for trace in [agg, join].iter().filter_map(|&id| node.query_trace(id)) {
                sum.merge(trace);
            }
        }
        assert!(sum.partials_sent > 0 && sum.finalized_on_completion > 0, "{what}");
        assert!(sum.tuples_shipped > 0 && sum.join_matches > 0, "{what}");
        assert_totals_are_trace_sums(&sum, &bed.engine_totals(), &what);
    }
}

/// The origin's predecessor restarts just after a continuous count goes
/// out, so it has no plan until the origin re-disseminates it at its third
/// epoch boundary.  Meanwhile it relays the partials climbing through it,
/// and counts them in its relay trace.  Returns the bed, the origin, the
/// restarted node and the query.
fn restarted_relay() -> (PierTestbed, NodeAddr, NodeAddr, QueryId) {
    let mut bed = monitoring_bed(40, 2004);
    let origin = bed.nodes()[1];
    let relay = bed.node(origin).unwrap().dht.predecessor().unwrap().addr;
    bed.kill_node(relay);
    let id = bed
        .submit_sql(
            origin,
            "SELECT COUNT(*) AS n FROM netstats CONTINUOUS EVERY 5 SECONDS WINDOW 600 SECONDS",
        )
        .unwrap();
    bed.run_for(Duration::from_millis(500));
    bed.restart_node(relay);
    (bed, origin, relay, id)
}

#[test]
fn a_stop_keeps_what_a_node_relayed_before_the_plan_reached_it() {
    // A stop before the plan arrives folds the relay trace into the node's
    // own counters instead of dropping it.
    let (mut bed, origin, relay, id) = restarted_relay();
    bed.run_until(SimTime::from_secs(41));

    let before = bed.node(relay).unwrap().stats();
    assert!(bed.node(relay).unwrap().query_trace(id).is_none(), "the plan arrived too early");
    assert!(before.partials_sent > 0, "no partial climbed through the restarted node");
    bed.stop_query(origin, id);
    bed.run_for(Duration::from_secs(2));
    let after = bed.node(relay).unwrap().stats();
    assert_eq!(after.partials_sent, before.partials_sent);
    assert_eq!(after.messages_sent, before.messages_sent);
    assert_eq!(after.bytes_shipped, before.bytes_shipped);
}

#[test]
fn a_trace_request_counts_what_a_node_relayed_before_the_plan_reached_it() {
    // Asked for its trace while it still has no plan, the restarted node
    // answers with its relay trace, so the network-wide trace reconciles
    // with the engine totals between two epochs.
    let (mut bed, origin, relay, id) = restarted_relay();
    bed.run_until(SimTime::from_millis(42_500));

    assert!(bed.node(relay).unwrap().query_trace(id).is_none(), "the plan arrived too early");
    assert!(bed.node(relay).unwrap().stats().partials_sent > 0, "nothing was relayed");
    bed.sim().invoke(origin, move |node, ctx| node.request_traces(ctx, id));
    bed.run_until(SimTime::from_secs(44));
    let totals = bed.engine_totals();
    let (_, trace) = bed.node(origin).unwrap().collected_trace(id).unwrap();
    assert_eq!(trace.partials_sent, totals.partials_sent);
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
