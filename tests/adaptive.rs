//! Adaptive plan quality: the trace-fed cost model and bushy execution.
//!
//! * A randomized property test runs the same NULL/NaN-heavy four-table
//!   workload under the left-deep plan and the bushy plan (independent
//!   subchains meeting at a rehash-merge stage) and requires both to match
//!   the centralized reference exactly — unfiltered, and with `WHERE`
//!   predicates on NULL/NaN columns that the bushy plan pushes onto a
//!   subchain root's own scan.
//! * With `PierConfig::feedback` on and deliberately wrong catalog
//!   statistics, the origin collects network-wide traces, folds them into
//!   observed statistics, and re-plans the continuous query onto a
//!   trace-corrected order — with every epoch's results identical to a
//!   static run of the same workload.
//! * Per-item renewal re-publishes only the stale half of a node's
//!   published working set.

use pier::core::{same_rows, Catalog, MemoryDb, Planner, QueryKind, TableStats};
use pier::prelude::*;
use pier::simnet::DetRng;

use pier::apps::netmon::netstats_table;
use pier::apps::snort::intrusions_table;
use pier::apps::topology::links_table;

// ---------------------------------------------------------------------
// Bushy vs left-deep on randomized NULL/NaN streams
// ---------------------------------------------------------------------

fn four_tables() -> Vec<TableDef> {
    vec![
        TableDef::new(
            "sensors",
            Schema::of(&[("host", DataType::Str), ("temp", DataType::Float)]),
            "host",
            Duration::from_secs(600),
        ),
        TableDef::new(
            "alerts",
            Schema::of(&[("host", DataType::Str), ("level", DataType::Int)]),
            "host",
            Duration::from_secs(600),
        ),
        TableDef::new(
            "flows",
            Schema::of(&[("src", DataType::Str), ("bytes", DataType::Float)]),
            "src",
            Duration::from_secs(600),
        ),
        TableDef::new(
            "routes",
            Schema::of(&[("src", DataType::Str), ("hops", DataType::Int)]),
            "src",
            Duration::from_secs(600),
        ),
    ]
}

/// Statistics under which two selective subchains beat any left-deep order:
/// both big tables must be joined down by their small partner *before* the
/// crossing join, or the chain carries a huge intermediate.
fn bushy_favoring_stats(cat: &mut Catalog) {
    cat.set_stats("sensors", TableStats::with_rows(50_000).distinct_keys(5_000));
    cat.set_stats("alerts", TableStats::with_rows(2_000).distinct_keys(20));
    cat.set_stats("flows", TableStats::with_rows(50_000).distinct_keys(5_000));
    cat.set_stats("routes", TableStats::with_rows(2_000).distinct_keys(20));
}

const FOUR_WAY: &str = "SELECT s.host, a.level, f.bytes, r.hops FROM sensors s \
     JOIN alerts a ON s.host = a.host \
     JOIN flows f ON s.host = f.src \
     JOIN routes r ON f.src = r.src";

/// The same join filtered on two columns that carry NULL and NaN, plus one
/// on `routes` — the small table the bushy plan roots its second subchain
/// on — so that subchain's own scan runs through a pushed-down predicate.
const FOUR_WAY_FILTERED: &str = "SELECT s.host, a.level, f.bytes, r.hops FROM sensors s \
     JOIN alerts a ON s.host = a.host \
     JOIN flows f ON s.host = f.src \
     JOIN routes r ON f.src = r.src \
     WHERE s.temp > -10 AND f.bytes < 12 AND r.hops <> 4";

/// A join key that is NULL now and then (NULL never joins, on either path).
fn rand_host(rng: &mut DetRng) -> Value {
    if rng.chance(0.15) {
        Value::Null
    } else {
        Value::str(format!("h{}", rng.index(10)))
    }
}

/// Payload cells including NaN floats and NULLs.
fn rand_float(rng: &mut DetRng) -> Value {
    match rng.index(5) {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        _ => Value::Float((rng.range_u64(0, 400) as f64 - 200.0) / 8.0),
    }
}

fn four_way_rows(rng: &mut DetRng) -> [Vec<Tuple>; 4] {
    let sensors = (0..40).map(|_| Tuple::new(vec![rand_host(rng), rand_float(rng)])).collect();
    let alerts = (0..25)
        .map(|_| Tuple::new(vec![rand_host(rng), Value::Int(rng.index(5) as i64)]))
        .collect();
    let flows = (0..40).map(|_| Tuple::new(vec![rand_host(rng), rand_float(rng)])).collect();
    let routes = (0..25)
        .map(|_| Tuple::new(vec![rand_host(rng), Value::Int(rng.index(9) as i64)]))
        .collect();
    [sensors, alerts, flows, routes]
}

fn four_way_bed(seed: u64, rows: &[Vec<Tuple>; 4]) -> PierTestbed {
    let mut bed = PierTestbed::new(TestbedConfig { nodes: 10, seed, ..Default::default() });
    for def in four_tables() {
        bed.create_table_everywhere(&def);
    }
    let publisher = bed.nodes()[0];
    for (def, tuples) in four_tables().iter().zip(rows.iter()) {
        bed.publish_batch(publisher, &def.name, tuples.clone());
    }
    bed.run_for(Duration::from_secs(5));
    bed
}

#[test]
fn bushy_matches_left_deep_and_reference_on_randomized_null_nan_streams() {
    let mut cat = Catalog::new();
    for def in four_tables() {
        cat.register(def);
    }
    bushy_favoring_stats(&mut cat);
    // Whether each bushy subchain root's own scan carries a filter.
    let root_filters = |kind: &QueryKind| -> Vec<bool> {
        kind.join_stages()
            .map(|s| {
                s.iter()
                    .filter_map(|st| st.left_scan.as_ref())
                    .map(|b| b.filter.is_some())
                    .collect()
            })
            .unwrap_or_default()
    };

    for sql in [FOUR_WAY, FOUR_WAY_FILTERED] {
        let stmt = pier::core::sql::parse_select(sql).unwrap();
        let left_deep = Planner::new(&cat).plan_select(&stmt).unwrap();
        let bushy = Planner::new(&cat).allow_bushy().plan_select(&stmt).unwrap();

        assert!(
            root_filters(&left_deep.kind).is_empty(),
            "without allow_bushy the plan must stay a chain"
        );
        let roots = root_filters(&bushy.kind);
        assert!(
            !roots.is_empty(),
            "these statistics must make the bushy shape win: {:?}",
            bushy.kind
        );
        if sql == FOUR_WAY_FILTERED {
            assert!(
                roots.contains(&true),
                "no subchain root scans through a filter: {:?}",
                bushy.kind
            );
        }

        for seed in 0..3u64 {
            let mut rng = DetRng::new(0xADA7_0000 + seed);
            let rows = four_way_rows(&mut rng);
            let mut db = MemoryDb::new();
            for (def, tuples) in four_tables().iter().zip(rows.iter()) {
                db.insert(&def.name, tuples.clone());
            }
            let reference = db.execute(&left_deep.logical);
            assert!(!reference.is_empty(), "seed {seed}: workload must produce matches");

            for (label, planned) in [("left-deep", &left_deep), ("bushy", &bushy)] {
                let mut bed = four_way_bed(0xB007 + seed, &rows);
                let origin = bed.nodes()[3];
                let q = bed
                    .submit_query(origin, planned.kind.clone(), planned.output_names.clone(), None)
                    .unwrap();
                bed.run_for(Duration::from_secs(25));
                let got = bed.results(origin, q, 0);
                assert!(
                    same_rows(&got, &reference),
                    "seed {seed} {label} ({sql}): {} distributed vs {} reference rows",
                    got.len(),
                    reference.len()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Trace-fed feedback re-planning
// ---------------------------------------------------------------------

/// The multiway workload with deliberately wrong statistics: the catalog
/// claims a tiny `intrusions` and an enormous `netstats`, while the data
/// says otherwise.
fn misestimated_rows(hosts: usize) -> (Vec<Tuple>, Vec<Tuple>, Vec<Tuple>) {
    let host = |i: usize| format!("host-{}", i % hosts);
    let mut netstats = Vec::new();
    let mut links = Vec::new();
    let mut intrusions = Vec::new();
    for i in 0..hosts {
        netstats.push(Tuple::new(vec![Value::str(host(i)), Value::Float(20.0), Value::Float(3.0)]));
        links.push(Tuple::new(vec![
            Value::str(host(i)),
            Value::str(host(i + 1)),
            Value::str("successor"),
        ]));
        // Far more intrusion reports than the catalog admits.
        for r in 0..4 {
            intrusions.push(Tuple::new(vec![
                Value::str(host(i)),
                Value::Int(1400 + r),
                Value::str(format!("rule-{r}")),
                Value::Int(3),
            ]));
        }
    }
    (netstats, links, intrusions)
}

fn feedback_bed(feedback: bool) -> PierTestbed {
    let mut pier = PierConfig::fast_test();
    pier.feedback = feedback;
    let mut bed =
        PierTestbed::new(TestbedConfig { nodes: 12, seed: 0xFEED, pier, ..Default::default() });
    // The apps tables with a TTL long enough that one up-front publication
    // survives the whole multi-epoch run.
    for def in [netstats_table(), links_table(), intrusions_table()] {
        let partition = def.schema.names()[def.partition_column].to_string();
        let long = TableDef::new(
            def.name.as_str(),
            def.schema.clone(),
            &partition,
            Duration::from_secs(600),
        );
        bed.create_table_everywhere(&long);
    }
    // Wrong by orders of magnitude, in both directions.
    bed.set_table_stats_everywhere("netstats", TableStats::with_rows(200_000));
    bed.set_table_stats_everywhere("links", TableStats::with_rows(2_000));
    bed.set_table_stats_everywhere("intrusions", TableStats::with_rows(5));
    let (netstats, links, intrusions) = misestimated_rows(12);
    let publisher = bed.nodes()[0];
    bed.publish_batch(publisher, "netstats", netstats);
    bed.publish_batch(publisher, "links", links);
    bed.publish_batch(publisher, "intrusions", intrusions);
    bed.run_for(Duration::from_secs(5));
    bed
}

const MISESTIMATED: &str = "SELECT n.host, l.dst, i.rule_id FROM netstats n \
     JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
     WHERE n.out_rate > 10 CONTINUOUS EVERY 5 SECONDS WINDOW 600 SECONDS";

#[test]
fn feedback_replans_onto_trace_corrected_order_with_identical_results() {
    let run = |feedback: bool| {
        let mut bed = feedback_bed(feedback);
        let origin = bed.nodes()[1];
        let q = bed.submit_sql(origin, MISESTIMATED).unwrap();
        bed.run_for(Duration::from_secs(50));
        let epochs = bed.epochs(origin, q);
        let per_epoch: Vec<(u64, Vec<Tuple>)> =
            epochs.iter().map(|&e| (e, bed.results(origin, q, e))).collect();
        let replans = bed.engine_totals().feedback_replans;
        let switches = bed
            .node(origin)
            .and_then(|n| n.query_trace(q))
            .map(|t| t.switches.clone())
            .unwrap_or_default();
        (per_epoch, replans, switches)
    };

    let (static_epochs, static_replans, _) = run(false);
    let (fed_epochs, fed_replans, switches) = run(true);

    assert_eq!(static_replans, 0, "feedback off must not re-plan");
    assert!(fed_replans >= 1, "feedback must stage a trace-corrected plan");
    assert!(
        switches.iter().any(|s| s.contains("feedback")),
        "the trace must record the feedback switch: {switches:?}"
    );

    // Bit-identical epoch results across the plan switch.  As in the PR 3
    // adaptivity test, the flip epoch and the one after it are excluded:
    // remote nodes apply the staged spec at their own next boundary, so
    // those two epochs legitimately mix plans mid-swap.
    let flip: u64 = switches
        .iter()
        .find(|s| s.contains("feedback"))
        .and_then(|s| s.strip_prefix("epoch "))
        .and_then(|s| s.split(':').next())
        .and_then(|s| s.parse().ok())
        .expect("the feedback switch must record its epoch");
    assert!(static_epochs.len() >= 4, "static run must evaluate several epochs");
    let mut pre = 0;
    let mut post = 0;
    for (e, rows) in &fed_epochs {
        if *e == flip || *e == flip + 1 {
            continue;
        }
        if let Some((_, base)) = static_epochs.iter().find(|(se, _)| se == e) {
            assert!(
                same_rows(rows, base),
                "epoch {e}: {} corrected vs {} static rows",
                rows.len(),
                base.len()
            );
            if *e < flip {
                pre += 1;
            } else {
                post += 1;
            }
        }
    }
    assert!(
        pre >= 1 && post >= 2,
        "settled epochs on both sides of the flip must compare (pre {pre}, post {post})"
    );
}

// ---------------------------------------------------------------------
// Batch-aware renewal
// ---------------------------------------------------------------------

#[test]
fn renewal_republishes_only_the_stale_half() {
    let mut pier = PierConfig::fast_test();
    pier.renewal = true;
    let mut bed =
        PierTestbed::new(TestbedConfig { nodes: 6, seed: 0x7E41, pier, ..Default::default() });
    bed.create_table_everywhere(&netstats_table()); // 30 s TTL
    let publisher = bed.nodes()[2];
    let mk = |tag: &str, n: usize| -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::str(format!("{tag}-{i}")),
                    Value::Float(1.0),
                    Value::Float(2.0),
                ])
            })
            .collect()
    };
    bed.publish_batch(publisher, "netstats", mk("old", 20));
    bed.run_for(Duration::from_secs(16)); // past TTL/2 = 15 s
    bed.publish_batch(publisher, "netstats", mk("new", 30));
    bed.run_for(Duration::from_secs(1));

    bed.sim().invoke(publisher, |node, ctx| {
        node.renew_published(ctx, "netstats").unwrap();
    });
    bed.run_for(Duration::from_secs(2));

    let stats = bed.node(publisher).unwrap().stats();
    assert_eq!(stats.renewals_published, 20, "only the stale batch re-publishes");
    assert_eq!(stats.renewal_tuples_skipped, 30, "the fresh batch is aged, not shipped");
}
