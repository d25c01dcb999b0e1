//! Join-path integration tests: the vectorized build/probe kernels, the
//! inner-stage Bloom semi-join handshake, and cross-query piggybacking.
//!
//! * A randomized property test drives the columnar `JoinBuild` /
//!   `probe_joined` path and the scalar reference loop with the same
//!   NULL/NaN-heavy message stream and requires bit-identical output.
//! * A seeded Bloom false-positive workload proves FPs only add rehash
//!   traffic, never result rows.
//! * The hold-down deadline degrades a missing combined filter to an
//!   unfiltered (but correct) rehash, and a crash of a join site holding a
//!   stage-1 summary mid-handshake leaves later epochs identical to the
//!   unfiltered run under the same crash.
//! * `EXPLAIN` surfaces the planner's inner-filter placement and FP budget;
//!   `EXPLAIN ANALYZE` renders the measured per-stage pass rates.
//! * With two concurrent queries piggybacking on shared frames, the
//!   per-query traces still reconcile field-for-field with the engine-wide
//!   counters.

use pier::core::dataflow::join::{probe_joined, JoinBuild};
use pier::core::dataflow::ops::FilterOp;
use pier::core::trace::render_network_trace;
use pier::core::{same_rows, BloomFilter, Catalog, Expr, Kernel, Planner, QueryKind, TableStats};
use pier::dht::{hash_node_addr, Id, ResourceKey};
use pier::prelude::*;
use pier::simnet::DetRng;
use std::collections::HashMap;

use pier::apps::netmon::netstats_table;
use pier::apps::snort::intrusions_table;
use pier::apps::topology::links_table;

// ---------------------------------------------------------------------
// Vectorized probe vs the scalar reference, randomized
// ---------------------------------------------------------------------

/// One simulated `JoinTuple`/`JoinBatch` delivery: all tuples of a message
/// share its key, exactly like the wire format.
type Delivery = (u8, Value, Vec<Tuple>);

/// Join keys drawn to stress `Value` hash/equality corners: NULL and NaN
/// keys, negative zero, and `Int`/`Float` numeric identity.
fn rand_key(rng: &mut DetRng) -> Value {
    match rng.index(8) {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(-0.0),
        3 => Value::Int(rng.range_u64(0, 4) as i64),
        4 => Value::Float(rng.range_u64(0, 4) as f64),
        5 => Value::str(format!("k{}", rng.index(3))),
        6 => Value::Int(-(rng.range_u64(0, 3) as i64)),
        _ => Value::Float(0.0),
    }
}

fn rand_cell(rng: &mut DetRng) -> Value {
    if rng.chance(0.2) {
        return Value::Null;
    }
    match rng.index(4) {
        0 => Value::Int(rng.range_u64(0, 9) as i64 - 4),
        1 => Value::Float((rng.range_u64(0, 80) as f64 - 40.0) / 8.0),
        2 => Value::Float(f64::NAN),
        _ => Value::str(format!("v{}", rng.index(4))),
    }
}

fn rand_stream(rng: &mut DetRng, messages: usize, width: usize) -> Vec<Delivery> {
    (0..messages)
        .map(|_| {
            let side = rng.index(2) as u8;
            let key = rand_key(rng);
            let rows = (0..rng.index(5))
                .map(|_| Tuple::new((0..width).map(|_| rand_cell(rng)).collect()))
                .collect();
            (side, key, rows)
        })
        .collect()
}

/// This test's own row-at-a-time reference: a per-key `HashMap` store,
/// clone, concat, and row filter — the plain symmetric-hash join the
/// columnar probe must reproduce row for row.
fn scalar_probe_all(stream: &[Delivery], width: usize, post: Option<&Expr>) -> Vec<Tuple> {
    let mut stores: [HashMap<Value, Vec<Tuple>>; 2] = [HashMap::new(), HashMap::new()];
    let filter = post.map(|p| FilterOp::new(p.clone()));
    let mut out = Vec::new();
    for (side, key, tuples) in stream {
        let tuples: Vec<Tuple> = tuples.iter().filter(|t| t.arity() == width).cloned().collect();
        let other = stores[1 - *side as usize].get(key).cloned().unwrap_or_default();
        stores[*side as usize].entry(key.clone()).or_default().extend(tuples.iter().cloned());
        for tup in &tuples {
            for m in &other {
                let joined = if *side == 0 { tup.concat(m) } else { m.concat(tup) };
                if filter.as_ref().map(|f| f.accepts(&joined)).unwrap_or(true) {
                    out.push(joined);
                }
            }
        }
    }
    out
}

/// The vectorized path: columnar build chunks plus batch probe kernels.
fn vectorized_probe_all(stream: &[Delivery], width: usize, post: Option<&Expr>) -> Vec<Tuple> {
    let mut build = JoinBuild::default();
    let kernel = post.map(Kernel::compile);
    let mut out = Vec::new();
    for (side, key, tuples) in stream {
        let tuples: Vec<Tuple> = tuples.iter().filter(|t| t.arity() == width).cloned().collect();
        let incoming = build.insert(*side as usize, key, &tuples);
        out.extend(probe_joined(
            &incoming,
            *side,
            build.matches(1 - *side as usize, key),
            width,
            kernel.as_ref(),
        ));
    }
    out
}

#[test]
fn vectorized_probe_matches_scalar_on_randomized_null_nan_streams() {
    let width = 3;
    // Post-filters over the joined row (width 6): three-valued comparisons
    // that hit NULL and NaN cells, plus the unfiltered cross product.
    let posts: Vec<Option<Expr>> = vec![
        None,
        Some(Expr::col(4).gt(Expr::col(1))),
        Some(Expr::col(0).eq(Expr::col(3))),
        Some(Expr::col(2).binary(pier::core::BinaryOp::Lt, Expr::lit(Value::Float(1.5)))),
    ];
    for seed in 0..12u64 {
        let mut rng = DetRng::new(0x10_1000 + seed);
        let stream = rand_stream(&mut rng, 160, width);
        for post in &posts {
            let scalar = scalar_probe_all(&stream, width, post.as_ref());
            let vector = vectorized_probe_all(&stream, width, post.as_ref());
            assert_eq!(
                scalar,
                vector,
                "seed {seed}, post {post:?}: vectorized probe diverged \
                 ({} scalar vs {} vectorized rows)",
                scalar.len(),
                vector.len()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Inner-stage Bloom semi-join workloads
// ---------------------------------------------------------------------

/// The 3-way join whose final stage rehashes `links` by `dst` — a column
/// `links` is *not* partitioned on, so Fetch-Matches is ineligible and the
/// statistics-driven planner picks symmetric hash with an inner Bloom.
const INNER_SQL: &str = "SELECT i.host, n.out_rate, l.dst FROM intrusions i \
     JOIN netstats n ON i.host = n.host JOIN links l ON n.host = l.dst";

/// Skewed statistics that make the planner mark the final stage as
/// inner-Bloom-filterable: a huge `links` relation against a small
/// intrusions⋈netstats intermediate.
fn skewed_stats(bed: &mut PierTestbed) {
    bed.set_table_stats_everywhere("intrusions", TableStats::with_rows(50).distinct_keys(50));
    bed.set_table_stats_everywhere("netstats", TableStats::with_rows(200).distinct_keys(200));
    bed.set_table_stats_everywhere("links", TableStats::with_rows(100_000).distinct_keys(5_000));
}

fn skewed_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register(netstats_table());
    cat.register(links_table());
    cat.register(intrusions_table());
    cat.set_stats("intrusions", TableStats::with_rows(50).distinct_keys(50));
    cat.set_stats("netstats", TableStats::with_rows(200).distinct_keys(200));
    cat.set_stats("links", TableStats::with_rows(100_000).distinct_keys(5_000));
    cat
}

fn inner_bed(nodes: usize, seed: u64, pier: PierConfig) -> PierTestbed {
    let mut bed = PierTestbed::new(TestbedConfig { nodes, seed, pier, ..Default::default() });
    bed.create_table_everywhere(&netstats_table());
    bed.create_table_everywhere(&links_table());
    bed.create_table_everywhere(&intrusions_table());
    skewed_stats(&mut bed);
    bed
}

fn publish_inner_workload(bed: &mut PierTestbed, match_hosts: &[String], extra_dsts: &[String]) {
    let publisher = bed.nodes()[0];
    let netstats: Vec<Tuple> = match_hosts
        .iter()
        .enumerate()
        .map(|(i, h)| {
            Tuple::new(vec![Value::str(h), Value::Float(10.0 + i as f64), Value::Float(1.0)])
        })
        .collect();
    let intrusions: Vec<Tuple> = match_hosts
        .iter()
        .enumerate()
        .map(|(i, h)| {
            Tuple::new(vec![
                Value::str(h),
                Value::Int(1400 + i as i64),
                Value::str("rule-0"),
                Value::Int(3),
            ])
        })
        .collect();
    // One link pointing at every matching host (these survive the filter)
    // plus one per extra destination (prunable: no netstats/intrusions row).
    let links: Vec<Tuple> = match_hosts
        .iter()
        .chain(extra_dsts.iter())
        .enumerate()
        .map(|(i, dst)| {
            Tuple::new(vec![Value::str(format!("src-{i}")), Value::str(dst), Value::str("edge")])
        })
        .collect();
    bed.publish_batch(publisher, "netstats", netstats);
    bed.publish_batch(publisher, "intrusions", intrusions);
    bed.publish_batch(publisher, "links", links);
    bed.run_for(Duration::from_secs(4));
}

/// Submit `INNER_SQL`, run it, and return (rows, merged network trace).
fn run_inner_query(bed: &mut PierTestbed, settle: Duration) -> (Vec<Tuple>, pier::core::OpTrace) {
    let origin = bed.nodes()[1];
    let q = bed.submit_sql(origin, INNER_SQL).unwrap();
    bed.run_for(settle);
    let rows = bed.results(origin, q, 0);
    bed.stop_query(origin, q);
    bed.run_for(Duration::from_secs(2));
    bed.sim().invoke(origin, move |node, ctx| node.request_traces(ctx, q));
    bed.run_for(Duration::from_secs(3));
    let trace =
        bed.sim().node(origin).and_then(|n| n.collected_trace(q)).map(|(_, t)| t.clone()).unwrap();
    (rows, trace)
}

#[test]
fn explain_shows_inner_bloom_placement_and_analyze_shows_pass_rates() {
    let mut pier = PierConfig::fast_test();
    pier.bloom_fallback_delay = Duration::from_secs(8);
    let mut bed = inner_bed(10, 0x1B1, pier);

    // Static EXPLAIN: the planner prices and places the inner filter.
    let plan = bed.explain(bed.nodes()[1], &format!("EXPLAIN {INNER_SQL}")).unwrap();
    assert!(plan.contains("inner Bloom semi-join"), "no inner-filter note:\n{plan}");
    assert!(plan.contains("FP budget"), "no FP budget in the note:\n{plan}");

    // EXPLAIN ANALYZE: run it for real; the per-stage trace section must
    // render the measured Bloom pass rate.
    let match_hosts: Vec<String> = (0..4).map(|i| format!("h{i}")).collect();
    let extra: Vec<String> = (0..20).map(|i| format!("zz{i}")).collect();
    publish_inner_workload(&mut bed, &match_hosts, &extra);
    let origin = bed.nodes()[1];
    let report = bed
        .explain_analyze(origin, &format!("EXPLAIN ANALYZE {INNER_SQL}"), Duration::from_secs(18))
        .unwrap();
    assert!(report.contains("inner Bloom semi-join"), "static section lost the note:\n{report}");
    assert!(
        report.contains("right tuples passed"),
        "no per-stage Bloom pass rate in the trace section:\n{report}"
    );
}

#[test]
fn bloom_false_positives_add_traffic_never_rows() {
    // Clamp the engine to a deliberately small 512-bit filter so false
    // positives are findable, then pre-compute them with the engine's exact
    // geometry (512 bits, k = 4, union of per-site summaries ≡ one filter
    // holding every intermediate key).
    let match_hosts: Vec<String> = (0..60).map(|i| format!("h{i}")).collect();
    let mut reference = BloomFilter::new(512, 4);
    for h in &match_hosts {
        reference.insert(&Value::str(h));
    }
    let mut fp_dsts = Vec::new();
    let mut clean_dsts = Vec::new();
    for i in 0..100_000 {
        let ghost = format!("g{i}");
        if reference.may_contain(&Value::str(&ghost)) {
            if fp_dsts.len() < 3 {
                fp_dsts.push(ghost);
            }
        } else if clean_dsts.len() < 40 {
            clean_dsts.push(ghost);
        }
        if fp_dsts.len() == 3 && clean_dsts.len() == 40 {
            break;
        }
    }
    assert_eq!(fp_dsts.len(), 3, "the 512-bit/60-key geometry must yield false positives");
    let extra: Vec<String> = fp_dsts.iter().chain(clean_dsts.iter()).cloned().collect();

    let run = |inner_bloom: bool| {
        let mut pier = PierConfig::fast_test();
        pier.inner_bloom = inner_bloom;
        pier.bloom_bits_min = 512;
        pier.bloom_bits_max = 512;
        pier.bloom_fallback_delay = Duration::from_secs(10);
        let mut bed = inner_bed(10, 0x5EED, pier);
        publish_inner_workload(&mut bed, &match_hosts, &extra);
        run_inner_query(&mut bed, Duration::from_secs(20))
    };
    let (rows_on, trace_on) = run(true);
    let (rows_off, _) = run(false);

    assert_eq!(rows_on.len(), match_hosts.len(), "one result row per matching host");
    assert!(same_rows(&rows_on, &rows_off), "false positives must never change the answer");
    assert_eq!(trace_on.bloom_fallbacks, 0, "the handshake must beat the generous deadline");

    let tested: u64 = trace_on.stage_bloom_tested.values().sum();
    let passed: u64 = trace_on.stage_bloom_passed.values().sum();
    let true_rows = match_hosts.len() as u64;
    assert!(
        tested >= true_rows + extra.len() as u64,
        "every links row must be tested (tested {tested})"
    );
    assert_eq!(
        passed,
        true_rows + fp_dsts.len() as u64,
        "exactly the matching rows plus the seeded false positives may pass"
    );
}

#[test]
fn hold_down_fallback_ships_unfiltered_but_identical_results() {
    let match_hosts: Vec<String> = (0..8).map(|i| format!("h{i}")).collect();
    let extra: Vec<String> = (0..24).map(|i| format!("zz{i}")).collect();
    let run = |inner_bloom: bool, fallback: Duration| {
        let mut pier = PierConfig::fast_test();
        pier.inner_bloom = inner_bloom;
        pier.bloom_fallback_delay = fallback;
        let mut bed = inner_bed(10, 0xFA11, pier);
        publish_inner_workload(&mut bed, &match_hosts, &extra);
        run_inner_query(&mut bed, Duration::from_secs(20))
    };
    // A deadline far shorter than the summarize/combine/broadcast handshake:
    // every right-relation scan site must give up waiting and rehash
    // unfiltered — degraded traffic, untouched results.
    let (rows_fallback, trace_fallback) = run(true, Duration::from_millis(1));
    let (rows_off, _) = run(false, Duration::from_millis(1));
    assert!(trace_fallback.bloom_fallbacks > 0, "the tight deadline must trip the hold-down");
    assert_eq!(rows_fallback.len(), match_hosts.len());
    assert!(same_rows(&rows_fallback, &rows_off), "a lost filter may cost traffic, never results");
}

// ---------------------------------------------------------------------
// Crash fault injection
// ---------------------------------------------------------------------

/// The DHT owner (ring successor) of `key` in the stage-`stage` rehash
/// namespace of query `q`, among `alive` nodes — i.e. the join site that
/// holds that key's tuples and its inner-Bloom summary.
fn stage_join_site(q: QueryId, stage: u8, key: &Value, alive: &[NodeAddr]) -> NodeAddr {
    let target = ResourceKey::singleton(format!("pier:join:{q}:{stage}"), key.partition_string())
        .routing_id();
    let mut ids: Vec<(Id, NodeAddr)> = alive.iter().map(|&a| (hash_node_addr(a.0), a)).collect();
    ids.sort();
    ids.iter().find(|(id, _)| *id >= target).map(|&(_, a)| a).unwrap_or(ids[0].1)
}

#[test]
fn crash_of_summary_holder_mid_handshake_keeps_later_epochs_identical() {
    // A continuous skewed join; the stage-1 join site of one known
    // intermediate key is killed mid-handshake of epoch 0 (summaries exist,
    // the combined filter has not been broadcast yet).  Epoch 0 itself may
    // legitimately differ — the unfiltered run streams some of the victim's
    // matches to the origin before the crash, the filtered run still has
    // them gated — but each later epoch re-evaluates from scratch, and both
    // runs lost exactly the same published soft state, so a post-crash
    // epoch's answer must be identical in both.
    let match_hosts: Vec<String> = (0..12).map(|i| format!("h{i}")).collect();
    let extra: Vec<String> = (0..30).map(|i| format!("zz{i}")).collect();
    let run = |inner_bloom: bool| {
        let mut pier = PierConfig::fast_test();
        pier.inner_bloom = inner_bloom;
        pier.bloom_fallback_delay = Duration::from_secs(8);
        let mut bed = inner_bed(14, 0xDEAD, pier);
        publish_inner_workload(&mut bed, &match_hosts, &extra);
        let origin = bed.nodes()[1];
        let stmt = pier::core::sql::parse_select(INNER_SQL).unwrap();
        let planned = Planner::new(&skewed_catalog()).plan_select(&stmt).unwrap();
        let QueryKind::Join { stages, .. } = &planned.kind else { panic!("expected a join") };
        assert!(stages[1].inner_bloom, "the workload must arm the inner filter");
        // A wide window decouples re-evaluation from tuple age: every epoch
        // rescans the full (non-expired) store, so a post-crash epoch sees
        // the same workload epoch 0 did.
        let period = Duration::from_secs(12);
        let q = bed
            .submit_query(
                origin,
                planned.kind.clone(),
                planned.output_names.clone(),
                Some(ContinuousSpec { period, window: Duration::from_secs(600) }),
            )
            .unwrap();
        // Mid-handshake: stage-0 matches have reached the stage-1 join
        // sites (so summaries exist) but the combined filter is not out.
        bed.run_for(Duration::from_millis(1_200));
        let alive = bed.alive_nodes();
        let victim = match_hosts
            .iter()
            .map(|h| stage_join_site(q, 1, &Value::str(h), &alive))
            .find(|&v| v != origin)
            .expect("some summary holder is not the origin");
        bed.kill_node(victim);
        // Epochs are numbered by absolute time / period.  Skip the epoch in
        // progress and the first boundary after the crash (the ring may
        // still be healing); the next one starts >12 s post-crash.
        let post_crash_epoch = bed.now().as_micros() / period.as_micros() + 2;
        bed.run_for(Duration::from_secs(34));
        bed.results(origin, q, post_crash_epoch)
    };
    let rows_on = run(true);
    let rows_off = run(false);
    assert!(!rows_on.is_empty(), "the post-crash epoch must still answer");
    assert!(
        same_rows(&rows_on, &rows_off),
        "after a summary holder crashes, the filtered run must degrade exactly like \
         the unfiltered one ({} vs {} rows)",
        rows_on.len(),
        rows_off.len()
    );
}

// ---------------------------------------------------------------------
// Cross-query piggybacking reconciliation
// ---------------------------------------------------------------------

#[test]
fn piggybacked_queries_reconcile_with_engine_totals() {
    // Two concurrent copies of the join with a cross-tick flush window:
    // their deferred rehashes and results share frames, and the sum of the
    // two per-query traces must still reconcile field-for-field with the
    // engine-wide counters (every frame charged to exactly one query, every
    // co-riding payload counted exactly once).
    let nodes = 10;
    let mut pier = PierConfig::fast_test();
    pier.inner_bloom = false;
    pier.batch_flush_ticks = 4;
    let mut bed =
        PierTestbed::new(TestbedConfig { nodes, seed: 0x9188, pier, ..Default::default() });
    bed.create_table_everywhere(&netstats_table());
    bed.create_table_everywhere(&links_table());
    bed.create_table_everywhere(&intrusions_table());

    // publish_local keeps publication off the wire so the engine counters
    // contain nothing but the two queries' traffic.
    let host = |i: usize| format!("host-{}", i % nodes);
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        bed.publish_local(
            addr,
            "netstats",
            Tuple::new(vec![Value::str(host(i)), Value::Float(12.0), Value::Float(1.0)]),
        );
        bed.publish_local(
            addr,
            "links",
            Tuple::new(vec![Value::str(host(i)), Value::str(host(i + 1)), Value::str("edge")]),
        );
        bed.publish_local(
            addr,
            "intrusions",
            Tuple::new(vec![
                Value::str(host(i)),
                Value::Int(1400),
                Value::str("rule-0"),
                Value::Int(3),
            ]),
        );
    }
    bed.run_for(Duration::from_secs(2));

    let cat = skewed_catalog();
    let stmt = pier::core::sql::parse_select(INNER_SQL).unwrap();
    let planned =
        Planner::with_join_strategy(&cat, JoinStrategy::SymmetricHash).plan_select(&stmt).unwrap();
    let origin = bed.nodes()[1];
    let ids: Vec<QueryId> = (0..2)
        .map(|_| {
            bed.submit_query(origin, planned.kind.clone(), planned.output_names.clone(), None)
                .unwrap()
        })
        .collect();
    bed.run_for(Duration::from_secs(20));
    for &q in &ids {
        bed.stop_query(origin, q);
    }
    bed.run_for(Duration::from_secs(2));
    for &q in &ids {
        bed.sim().invoke(origin, move |node, ctx| node.request_traces(ctx, q));
        bed.run_for(Duration::from_secs(3));
    }
    let traces: Vec<pier::core::OpTrace> = ids
        .iter()
        .map(|&q| {
            bed.sim()
                .node(origin)
                .and_then(|n| n.collected_trace(q))
                .map(|(_, t)| t.clone())
                .unwrap()
        })
        .collect();
    let totals = bed.engine_totals();

    let sum = |f: fn(&pier::core::OpTrace) -> u64| traces.iter().map(f).sum::<u64>();
    assert_eq!(sum(|t| t.messages_sent), totals.messages_sent, "every frame has one payer");
    assert_eq!(sum(|t| t.bytes_shipped), totals.bytes_shipped);
    assert_eq!(sum(|t| t.tuples_shipped), totals.join_tuples_sent);
    assert_eq!(sum(|t| t.results_sent), totals.results_sent);
    assert_eq!(
        sum(|t| t.piggybacked_payloads),
        totals.piggybacked_payloads,
        "every co-riding payload is attributed to exactly one query"
    );
    assert!(totals.shared_frames > 0, "the flush window must actually merge frames");
    assert!(totals.piggybacked_payloads > 0, "payloads must actually ride shared frames");

    // The free-rider share surfaces in the rendered trace report.
    let rendered = render_network_trace(
        nodes as u64,
        traces.iter().max_by_key(|t| t.piggybacked_payloads).unwrap(),
        &planned.kind,
    );
    assert!(rendered.contains("piggyback:"), "no piggyback share in the report:\n{rendered}");
}

// ---------------------------------------------------------------------
// Seen-key sanity: the probe width guard
// ---------------------------------------------------------------------

#[test]
fn probe_skips_chunks_of_stale_width() {
    // Rows stored under a superseded spec (different arity) must be ignored
    // by the probe, mirroring the scalar path's layout guard.
    let mut build = JoinBuild::default();
    let key = Value::Int(1);
    build.insert(1, &key, &[Tuple::new(vec![Value::Int(1), Value::Int(2)])]);
    build.insert(1, &key, &[Tuple::new(vec![Value::Int(1), Value::Int(2), Value::Int(3)])]);
    let incoming = pier::core::column::ColumnarBatch::from_rows(&[Tuple::new(vec![
        Value::Int(9),
        Value::Int(1),
    ])]);
    let got = probe_joined(&incoming, 0, build.matches(1, &key), 2, None);
    assert_eq!(got.len(), 1, "only the width-2 chunk participates");
    assert_eq!(got[0].arity(), 4);
}
