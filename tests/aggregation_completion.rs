//! Completion closes aggregation epochs.  A continuous single-table
//! aggregate answers once as many contributors as last epoch have reported:
//! every hop forwards as soon as last epoch's count has passed through it,
//! and the root finalizes once that count has reported and partials have
//! been quiet for one hold-down.  A continuous aggregate over symmetric-hash
//! joins answers once the root has recovered the credit every node injected
//! (one unit per node that ran last epoch): credit rides on the rehash
//! streams and comes back with the groups.  The timers stay as the fallback
//! and the upper bound: an epoch that loses a contributor or credit
//! finalizes on `collect_delay`, and one-shot aggregates and joins with
//! Fetch-Matches stages always wait for it.
//!
//! Latency is read the way a client sees it: the simulator steps 1 ms at a
//! time and the origin's rows are compared with the reference evaluator
//! after every step.  The origin is every aggregate's root: it finalizes
//! each epoch itself and stores the epoch's rows with its contributor count.

use pier::core::{
    same_rows, sql::parse_select, Catalog, Credit, JoinStrategy, MemoryDb, Planner, QueryKind,
    TableStats,
};
use pier::dht::{hash_node_addr, ResourceKey};
use pier::prelude::*;
use pier::simnet::WireSize;
use std::collections::BTreeMap;

const NODES: usize = 40;
const SEED: u64 = 1604;
const PERIOD_MS: u64 = 5_000;
/// `PierConfig::fast_test()`'s `collect_delay`: the timer rule's deadline.
const COLLECT_MS: u64 = 3_000;
/// Every epoch from the third on answers within this long of its start.  On
/// the timers alone the same epochs answer after about 3,080 ms.
const COMPLETE_WITHIN_MS: u64 = 800;

const CONTINUOUS: &str = "SELECT COUNT(*) AS c, SUM(v) AS s FROM m \
                          CONTINUOUS EVERY 5 SECONDS WINDOW 3000 SECONDS";

fn table() -> TableDef {
    TableDef::new(
        "m",
        Schema::of(&[("host", DataType::Str), ("v", DataType::Int)]),
        "host",
        Duration::from_secs(3_600),
    )
}

/// A 40-node deployment in which every node stores one row about itself
/// (`publish_local`), so the query's partials are the only query traffic.
/// Returns the testbed and each node's row.
fn deployment(seed: u64) -> (PierTestbed, Vec<(NodeAddr, Tuple)>) {
    let mut bed = PierTestbed::quick(NODES, seed);
    bed.create_table_everywhere(&table());
    let mut rows = Vec::new();
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        let row = Tuple::new(vec![Value::str(format!("host-{i}")), Value::Int(i as i64 + 1)]);
        bed.publish_local(addr, "m", row.clone());
        rows.push((addr, row));
    }
    (bed, rows)
}

/// `sql` evaluated by the reference evaluator over `rows` of table `m`.
fn reference(sql: &str, rows: impl IntoIterator<Item = Tuple>) -> Vec<Tuple> {
    let mut catalog = Catalog::new();
    catalog.register(table());
    let planned = Planner::new(&catalog).plan_select(&parse_select(sql).unwrap()).unwrap();
    let mut db = MemoryDb::new();
    db.insert("m", rows);
    db.execute(&planned.logical)
}

fn now_ms(bed: &PierTestbed) -> u64 {
    bed.now().as_micros() / 1_000
}

/// Advance to `ms` into the epoch after the current one; returns that epoch.
fn advance_into_next_epoch(bed: &mut PierTestbed, ms: u64) -> u64 {
    let next = now_ms(bed) / PERIOD_MS + 1;
    bed.run_until(SimTime::from_micros((next * PERIOD_MS + ms) * 1_000));
    next
}

/// Steps the simulator 1 ms at a time and, after every step, compares the
/// origin's rows with the reference: records for each result epoch the first
/// step at which they match, as milliseconds after the epoch its latency
/// counts from started (a window's is its closing epoch).
struct Poller {
    origin: NodeAddr,
    query: QueryId,
    /// (result epoch, epoch the latency counts from, reference rows).
    wants: Vec<(u64, u64, Vec<Tuple>)>,
    answered: BTreeMap<u64, u64>,
}

impl Poller {
    fn new(origin: NodeAddr, query: QueryId, wants: Vec<(u64, u64, Vec<Tuple>)>) -> Self {
        Poller { origin, query, wants, answered: BTreeMap::new() }
    }

    fn step_until(&mut self, bed: &mut PierTestbed, until_ms: u64) {
        while now_ms(bed) < until_ms {
            bed.run_for(Duration::from_millis(1));
            let now = now_ms(bed);
            for (e, from, want) in &self.wants {
                let start = from * PERIOD_MS;
                if now >= start
                    && !self.answered.contains_key(e)
                    && same_rows(&bed.results(self.origin, self.query, *e), want)
                {
                    self.answered.insert(*e, now - start);
                }
            }
        }
    }

    /// Did epoch `e` answer within `ms` of its start?
    fn within(&self, e: u64, ms: u64) -> bool {
        self.answered.get(&e).is_some_and(|&got| got <= ms)
    }
}

#[test]
fn continuous_aggregate_epochs_close_on_completion() {
    let (mut bed, rows) = deployment(SEED);
    let origin = bed.nodes()[1];
    advance_into_next_epoch(&mut bed, 2_500);
    let q = bed.submit_sql(origin, CONTINUOUS).unwrap();
    let first = now_ms(&bed) / PERIOD_MS;
    let want = reference(CONTINUOUS, rows.iter().map(|(_, r)| r.clone()));

    // Two epochs to learn the count, then eight steady ones; partials are
    // counted over the steady epochs, boundary to boundary.
    let steady = first + 2..first + 10;
    let mut poller =
        Poller::new(origin, q, (first..steady.end).map(|e| (e, e, want.clone())).collect());
    poller.step_until(&mut bed, steady.start * PERIOD_MS);
    let sent_before = bed.engine_totals().partials_sent;
    poller.step_until(&mut bed, steady.end * PERIOD_MS);
    let sent = bed.engine_totals().partials_sent - sent_before;
    let per_epoch = sent as f64 / steady.clone().count() as f64;
    eprintln!("answer latencies {:?}, {per_epoch:.1} partials per epoch", poller.answered);

    for e in steady.clone() {
        assert!(
            poller.within(e, COMPLETE_WITHIN_MS),
            "epoch {e} must answer within {COMPLETE_WITHIN_MS} ms: {:?}",
            poller.answered
        );
        assert_eq!(bed.contributors(origin, q, e), NODES as u64, "epoch {e} turnout");
    }
    // Each hop ships once, when its subtree is in, instead of once per
    // hold-down that expired before its children reported.  On the timers
    // alone this deployment sends 60–63 partials per epoch.
    assert!(per_epoch <= 55.0, "{per_epoch:.1} partials per epoch");

    let totals = bed.engine_totals();
    assert!(
        totals.finalized_on_completion >= steady.count() as u64,
        "steady epochs must finalize on completion: {totals:?}"
    );
    assert!(totals.finalized_on_timer >= 1, "the first epoch has no count to expect: {totals:?}");
}

#[test]
fn a_lost_contributor_falls_back_to_the_timer_then_completes_again() {
    let (mut bed, rows) = deployment(SEED);
    let origin = bed.nodes()[1];
    let victim = bed.nodes()[NODES / 2];
    advance_into_next_epoch(&mut bed, 2_500);
    let q = bed.submit_sql(origin, CONTINUOUS).unwrap();
    let first = now_ms(&bed) / PERIOD_MS;
    let all = reference(CONTINUOUS, rows.iter().map(|(_, r)| r.clone()));
    let survivors =
        reference(CONTINUOUS, rows.iter().filter(|(a, _)| *a != victim).map(|(_, r)| r.clone()));

    // The victim dies in the middle of epoch `lost - 1`, so `lost` is the
    // first epoch it misses.
    let lost = first + 5;
    let end = lost + 4;
    let wants = (first..end).map(|e| (e, e, if e < lost { &all } else { &survivors }.clone()));
    let mut poller = Poller::new(origin, q, wants.collect());
    poller.step_until(&mut bed, (lost - 1) * PERIOD_MS + 2_500);
    bed.kill_node(victim);
    poller.step_until(&mut bed, end * PERIOD_MS);
    eprintln!("answer latencies {:?} (victim lost from epoch {lost})", poller.answered);

    for e in first + 2..lost {
        assert!(poller.within(e, COMPLETE_WITHIN_MS), "epoch {e}: {:?}", poller.answered);
        assert_eq!(bed.contributors(origin, q, e), NODES as u64);
    }
    // Last epoch's count is never reached, so the timer closes the epoch.
    let timer_ms = poller.answered.get(&lost).copied();
    assert!(
        timer_ms.is_some_and(|ms| ms >= COLLECT_MS),
        "epoch {lost} must wait for the collect timer: {:?}",
        poller.answered
    );
    assert_eq!(bed.contributors(origin, q, lost), NODES as u64 - 1);
    // Its 39 contributors are the next epoch's expected count.
    for e in lost + 1..end {
        assert!(poller.within(e, COMPLETE_WITHIN_MS), "epoch {e}: {:?}", poller.answered);
        assert_eq!(bed.contributors(origin, q, e), NODES as u64 - 1, "epoch {e} turnout");
    }
    for e in bed.epochs(origin, q) {
        let live = if e < lost { NODES } else { NODES - 1 };
        assert!(bed.contributors(origin, q, e) <= live as u64, "epoch {e} over-reports");
    }
}

#[test]
fn killing_the_former_root_keys_owner_loses_no_epoch() {
    // Aggregates used to root at the owner of a per-query DHT key, a third
    // node that could fail while the origin lived: the epoch it failed in,
    // and those after its restart until the plan reached it again, reported
    // nothing.  The origin is every aggregate's root now, so that node's
    // failure only removes its own contribution.
    let (mut bed, rows) = deployment(SEED);
    let origin = bed.nodes()[1];
    advance_into_next_epoch(&mut bed, 2_500);
    let q = bed.submit_sql(origin, CONTINUOUS).unwrap();
    let first = now_ms(&bed) / PERIOD_MS;
    let former_root = ResourceKey::singleton("pier:agg", format!("{q}")).routing_id();
    let victim = (0..NODES)
        .min_by_key(|&i| former_root.distance_to(&hash_node_addr(bed.nodes()[i].0)))
        .expect("nodes");
    let victim_addr = bed.nodes()[victim];
    assert_ne!(victim_addr, origin);
    let all = reference(CONTINUOUS, rows.iter().map(|(_, r)| r.clone()));
    let survivors = reference(
        CONTINUOUS,
        rows.iter().filter(|(a, _)| *a != victim_addr).map(|(_, r)| r.clone()),
    );
    let at = |e: u64, ms: u64| SimTime::from_micros((e * PERIOD_MS + ms) * 1_000);

    // Killed 150 ms into epoch `lost`, restarted two epochs later with its
    // row re-published; it runs the query again once the origin's periodic
    // re-dissemination reaches it.
    let lost = first + 4;
    bed.run_until(at(lost, 150));
    bed.kill_node(victim_addr);
    bed.run_until(at(lost + 2, 0));
    bed.restart_node(victim_addr);
    bed.publish_local(victim_addr, "m", rows[victim].1.clone());
    let mut rejoined = None;
    for e in lost + 2..lost + 8 {
        bed.run_until(at(e + 1, 0));
        if bed.node(victim_addr).unwrap().active_queries() > 0 {
            rejoined = Some(e);
            break;
        }
    }
    let rejoined = rejoined.expect("the restarted node must get the plan again");
    let end = rejoined + 5;
    bed.run_until(at(end, 0));
    let turnout: Vec<(u64, u64)> =
        (first..end).map(|e| (e, bed.contributors(origin, q, e))).collect();
    eprintln!("victim index {victim}, lost in {lost}, rejoined in {rejoined}: {turnout:?}");

    // Every epoch reports the nodes that ran it: all of them in the epoch
    // the victim died in (its partial had left), the survivors until the
    // plan reached it again, then all of them.  The plan reaches it partway
    // into epoch `rejoined`, so its partial there races the survivors'
    // quiet close: that one epoch may report either set, exactly.
    for e in first..end {
        let raced = e == rejoined && bed.contributors(origin, q, e) == NODES as u64 - 1;
        let running = if raced || (lost + 1..rejoined).contains(&e) { NODES - 1 } else { NODES };
        assert_eq!(bed.contributors(origin, q, e), running as u64, "epoch {e}: {turnout:?}");
        let want = if running == NODES { &all } else { &survivors };
        assert!(same_rows(&bed.results(origin, q, e), want), "epoch {e}: {turnout:?}");
    }
}

#[test]
fn tumbling_window_closes_on_completion() {
    const SQL: &str = "SELECT COUNT(*) AS c, SUM(v) AS s FROM m \
                       WINDOW TUMBLING 3 EPOCHS CONTINUOUS EVERY 5 SECONDS";
    let mut bed = PierTestbed::quick(NODES, SEED);
    bed.create_table_everywhere(&table());
    let origin = bed.nodes()[1];
    advance_into_next_epoch(&mut bed, 2_500);
    let q = bed.submit_sql(origin, SQL).unwrap();

    // Every node stores one row mid-epoch, every epoch.  A windowed epoch
    // scans what arrived during the epoch before it, so the row stored in
    // the middle of epoch `p` counts in epoch `p + 1`.
    let publishing = now_ms(&bed) / PERIOD_MS + 1;
    let row = |epoch: u64, i: usize| {
        Tuple::new(vec![
            Value::str(format!("host-{i}")),
            Value::Int((epoch * 100) as i64 + i as i64),
        ])
    };
    // The first three windows whose epochs all scan published rows.
    let windows = (publishing + 1).div_ceil(3)..(publishing + 1).div_ceil(3) + 3;
    let wants = windows.clone().map(|w| {
        let rows = (3 * w..3 * w + 3).flat_map(|e| (0..NODES).map(move |i| row(e - 1, i)));
        (w, 3 * w + 2, reference(SQL, rows))
    });
    let mut poller = Poller::new(origin, q, wants.collect());
    for epoch in publishing..3 * windows.end {
        poller.step_until(&mut bed, epoch * PERIOD_MS + 2_500);
        for (i, addr) in bed.nodes().to_vec().into_iter().enumerate() {
            bed.publish_local(addr, "m", row(epoch, i));
        }
    }
    poller.step_until(&mut bed, 3 * windows.end * PERIOD_MS);
    eprintln!("window latencies from their closing epoch's start: {:?}", poller.answered);
    for w in windows {
        assert!(
            poller.within(w, COMPLETE_WITHIN_MS),
            "window {w} must close within {COMPLETE_WITHIN_MS} ms: {:?}",
            poller.answered
        );
        assert_eq!(bed.contributors(origin, q, w), NODES as u64, "window {w} turnout");
    }
}

#[test]
fn one_shot_aggregate_still_waits_for_collect_delay() {
    const SQL: &str = "SELECT COUNT(*) AS c, SUM(v) AS s FROM m";
    let (mut bed, rows) = deployment(SEED);
    let origin = bed.nodes()[1];
    let submitted = now_ms(&bed);
    let q = bed.submit_sql(origin, SQL).unwrap();
    let want = reference(SQL, rows.into_iter().map(|(_, r)| r));
    // A one-shot query reports epoch 0, which starts at time 0: the
    // poller's reading is the absolute answer time.
    let mut poller = Poller::new(origin, q, vec![(0, 0, want)]);
    poller.step_until(&mut bed, submitted + 2 * COLLECT_MS);
    let answered = poller.answered.get(&0).map(|ms| ms - submitted);
    eprintln!("one-shot answered {answered:?} ms after submit");
    assert!(
        answered.is_some_and(|ms| ms >= COLLECT_MS),
        "a one-shot aggregate has no previous epoch and waits for the timer: {answered:?}"
    );
    assert_eq!(bed.contributors(origin, q, 0), NODES as u64);
    let totals = bed.engine_totals();
    assert_eq!(totals.finalized_on_completion, 0, "{totals:?}");
    assert_eq!(totals.finalized_on_timer, 1, "{totals:?}");
}

// ----------------------------------------------------------------------
// Aggregates over joins: credit recovery
// ----------------------------------------------------------------------

/// Every join-aggregate epoch from the third on answers within these bounds
/// of its start.  On the timers alone the same epochs answer after about
/// 3,700 ms.  Colocated: each join site ships its groups one hop to the
/// origin.  Tree: partials climb toward the origin's ring id.
const JOIN_COLOCATED_WITHIN_MS: u64 = 1_500;
const JOIN_TREE_WITHIN_MS: u64 = 2_500;

const JOIN_EVERY: &str = "CONTINUOUS EVERY 5 SECONDS WINDOW 3000 SECONDS";

/// `readings ⋈ links ⋈ alerts`, grouped by the final join key (the
/// statistics below order the stages `links ⋈ alerts ⋈ readings`): every
/// group's rows meet at one join site (colocated).
fn colocated_sql() -> String {
    format!(
        "SELECT r.host, COUNT(*) AS n, SUM(r.v) AS total FROM readings r \
         JOIN links l ON r.host = l.src JOIN alerts a ON l.dst = a.host \
         GROUP BY r.host {JOIN_EVERY}"
    )
}

/// The same join grouped by a column that is no join key: partials climb
/// the aggregation tree.
fn tree_sql() -> String {
    format!(
        "SELECT a.rule, COUNT(*) AS n, SUM(r.v) AS total FROM readings r \
         JOIN links l ON r.host = l.src JOIN alerts a ON l.dst = a.host \
         GROUP BY a.rule {JOIN_EVERY}"
    )
}

fn join_tables() -> Vec<TableDef> {
    let ttl = Duration::from_secs(3_600);
    vec![
        TableDef::new(
            "readings",
            Schema::of(&[("host", DataType::Str), ("v", DataType::Int)]),
            "host",
            ttl,
        ),
        TableDef::new(
            "links",
            Schema::of(&[("src", DataType::Str), ("dst", DataType::Str)]),
            "src",
            ttl,
        ),
        TableDef::new(
            "alerts",
            Schema::of(&[("host", DataType::Str), ("rule", DataType::Int)]),
            "host",
            ttl,
        ),
    ]
}

/// Node `i`'s rows of the three tables: three readings, two links (to its
/// ring successor and five hosts on), and on every fourth host two alerts.
fn join_rows(i: usize) -> [(&'static str, Vec<Tuple>); 3] {
    let host = |j: usize| Value::str(format!("host-{}", j % NODES));
    let readings =
        (0..3).map(|r| Tuple::new(vec![host(i), Value::Int((i * 10 + r) as i64)])).collect();
    let links = [1, 5].iter().map(|d| Tuple::new(vec![host(i), host(i + d)])).collect();
    let alerts = if i.is_multiple_of(4) {
        (0..2).map(|r| Tuple::new(vec![host(i), Value::Int(r)])).collect()
    } else {
        Vec::new()
    };
    [("readings", readings), ("links", links), ("alerts", alerts)]
}

fn join_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for def in join_tables() {
        catalog.register(def);
    }
    catalog
        .set_stats("readings", TableStats::with_rows(3 * NODES as u64).distinct_keys(NODES as u64));
    catalog.set_stats("links", TableStats::with_rows(2 * NODES as u64).distinct_keys(NODES as u64));
    catalog.set_stats(
        "alerts",
        TableStats::with_rows(NODES as u64 / 2).distinct_keys(NODES as u64 / 4),
    );
    catalog
}

/// Each node's rows, tagged with their table.
type NodeRows = Vec<(NodeAddr, Vec<(&'static str, Tuple)>)>;

/// A 40-node deployment in which every node stores its own rows of the
/// three tables (`publish_local`), or routes them through the DHT to their
/// partitioning key's owner (`routed`, which Fetch-Matches probes need).
/// Returns the testbed and each node's rows.
fn join_deployment(routed: bool) -> (PierTestbed, NodeRows) {
    let mut bed = PierTestbed::quick(NODES, SEED);
    let catalog = join_catalog();
    for def in join_tables() {
        bed.create_table_everywhere(&def);
        bed.set_table_stats_everywhere(&def.name, catalog.stats(&def.name).unwrap());
    }
    let mut owned = Vec::new();
    for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
        let mut mine = Vec::new();
        for (table, rows) in join_rows(i) {
            if routed && !rows.is_empty() {
                bed.publish_batch(addr, table, rows.clone());
            }
            for row in rows {
                if !routed {
                    bed.publish_local(addr, table, row.clone());
                }
                mine.push((table, row));
            }
        }
        owned.push((addr, mine));
    }
    bed.run_for(Duration::from_secs(2));
    (bed, owned)
}

/// The plan every node makes of `sql` (the testbed installs the same
/// statistics everywhere).
fn plan(sql: &str) -> pier::core::PlannedQuery {
    Planner::new(&join_catalog()).plan_select(&parse_select(sql).unwrap()).unwrap()
}

/// `planned` evaluated by the reference evaluator over `rows`.
fn join_reference<'a>(
    planned: &pier::core::PlannedQuery,
    rows: impl IntoIterator<Item = &'a (NodeAddr, Vec<(&'static str, Tuple)>)>,
) -> Vec<Tuple> {
    let mut db = MemoryDb::new();
    for (_, mine) in rows {
        for (table, row) in mine {
            db.insert(table, [row.clone()]);
        }
    }
    db.execute(&planned.logical)
}

/// Is every stage of `kind` a symmetric-hash join without an inner Bloom
/// gate (the plans whose epochs close on credit)?
fn all_symmetric(kind: &QueryKind) -> bool {
    kind.join_stages().is_some_and(|stages| {
        stages.iter().all(|s| s.strategy == JoinStrategy::SymmetricHash && !s.inner_bloom)
    })
}

/// Run a continuous join aggregate for ten epochs and check every epoch
/// equals the reference, and every epoch from the third on answers within
/// `within_ms`.
fn join_epochs_close_on_completion(sql: &str, colocated: bool, within_ms: u64) {
    let planned = plan(sql);
    assert!(all_symmetric(&planned.kind), "{sql}: expected symmetric-hash stages");
    assert_eq!(planned.kind.join_aggregate().map(|a| a.colocated), Some(colocated), "{sql}");
    let (mut bed, rows) = join_deployment(false);
    let origin = bed.nodes()[1];
    advance_into_next_epoch(&mut bed, 2_500);
    let q = bed.submit_sql(origin, sql).unwrap();
    let first = now_ms(&bed) / PERIOD_MS;
    let want = join_reference(&planned, &rows);
    assert!(want.len() > 1, "the workload must produce groups: {want:?}");

    let end = first + 10;
    let mut poller = Poller::new(origin, q, (first..end).map(|e| (e, e, want.clone())).collect());
    poller.step_until(&mut bed, end * PERIOD_MS);
    eprintln!("{sql}: answer latencies {:?}", poller.answered);

    for e in first..end {
        assert!(same_rows(&bed.results(origin, q, e), &want), "epoch {e} must equal the reference");
    }
    for e in first + 2..end {
        assert!(
            poller.within(e, within_ms),
            "epoch {e} must answer within {within_ms} ms: {:?}",
            poller.answered
        );
    }
    let totals = bed.engine_totals();
    assert!(totals.finalized_on_completion >= 8, "{totals:?}");
    assert!(totals.finalized_on_timer >= 1, "the first epoch has no count to expect: {totals:?}");
    if colocated {
        // Each join site ships its groups one direct hop to the origin, the
        // root: every partial sent is merged there.
        let merged_at_origin = bed.node(origin).unwrap().stats().partials_merged;
        assert_eq!(merged_at_origin, totals.partials_sent, "{totals:?}");
    }
}

#[test]
fn colocated_join_aggregate_epochs_close_on_credit() {
    join_epochs_close_on_completion(&colocated_sql(), true, JOIN_COLOCATED_WITHIN_MS);
}

#[test]
fn tree_join_aggregate_epochs_close_on_credit() {
    join_epochs_close_on_completion(&tree_sql(), false, JOIN_TREE_WITHIN_MS);
}

#[test]
fn a_node_lost_mid_epoch_loses_credit_so_the_timer_closes_it() {
    let sql = colocated_sql();
    let planned = plan(&sql);
    let (mut bed, rows) = join_deployment(false);
    let origin = bed.nodes()[1];
    let victim = bed.nodes()[NODES / 2];
    advance_into_next_epoch(&mut bed, 2_500);
    let q = bed.submit_sql(origin, &sql).unwrap();
    let first = now_ms(&bed) / PERIOD_MS;
    let all = join_reference(&planned, &rows);
    let survivors = join_reference(&planned, rows.iter().filter(|(a, _)| *a != victim));
    assert!(!same_rows(&all, &survivors), "the victim's rows must matter");

    // The victim dies 150 ms into epoch `lost`, while the epoch's rehashes
    // are still reaching it: the credit it holds is gone.  The origin is
    // the root of this colocated aggregate.
    let lost = first + 4;
    let end = lost + 5;
    let wants = (first..end).map(|e| (e, e, if e < lost { &all } else { &survivors }.clone()));
    let mut poller = Poller::new(origin, q, wants.collect());
    poller.step_until(&mut bed, lost * PERIOD_MS + 150);
    let timer_before = bed.node(origin).unwrap().stats().finalized_on_timer;
    bed.kill_node(victim);
    poller.step_until(&mut bed, (lost + 1) * PERIOD_MS);
    let timer_after = bed.node(origin).unwrap().stats().finalized_on_timer;
    poller.step_until(&mut bed, end * PERIOD_MS);
    eprintln!("answer latencies {:?} (victim lost in epoch {lost})", poller.answered);

    for e in first + 2..lost {
        assert!(poller.within(e, JOIN_COLOCATED_WITHIN_MS), "epoch {e}: {:?}", poller.answered);
    }
    assert_eq!(timer_after - timer_before, 1, "epoch {lost} lost credit and closes on the timer");
    assert!(bed.epochs(origin, q).contains(&lost), "epoch {lost} must still report");
    // The epoch after it may still expect the victim's unit; from then on
    // the survivors' count is exact again.
    for e in lost + 1..end {
        assert!(same_rows(&bed.results(origin, q, e), &survivors), "epoch {e}");
    }
    for e in lost + 2..end {
        assert!(poller.within(e, JOIN_COLOCATED_WITHIN_MS), "epoch {e}: {:?}", poller.answered);
    }
    for e in bed.epochs(origin, q) {
        let live = if e < lost { NODES } else { NODES - 1 };
        assert!(bed.contributors(origin, q, e) <= live as u64, "epoch {e} over-reports");
    }
}

#[test]
fn a_restarted_node_counts_again_from_the_epoch_after_it_rejoins() {
    // A node is killed 150 ms into an epoch and restarted two epochs later
    // with its rows re-published.  Once it runs the query again, 40 nodes
    // inject credit while the root expects the 39 of the last epoch, so the
    // rejoin epoch may close with a join site's groups still in flight.
    // Their groups arrive late and patch the rejoin epoch, and their credit
    // raises the count the next epoch expects: from the rejoin epoch on,
    // every epoch equals the reference again, and still closes on
    // completion.
    let sql = colocated_sql();
    let planned = plan(&sql);
    let (mut bed, rows) = join_deployment(false);
    let origin = bed.nodes()[1];
    let victim = 13;
    let victim_addr = bed.nodes()[victim];
    advance_into_next_epoch(&mut bed, 2_500);
    let q = bed.submit_sql(origin, &sql).unwrap();
    let first = now_ms(&bed) / PERIOD_MS;
    let all = join_reference(&planned, &rows);
    let at = |e: u64, ms: u64| SimTime::from_micros((e * PERIOD_MS + ms) * 1_000);

    let lost = first + 4;
    bed.run_until(at(lost, 150));
    bed.kill_node(victim_addr);
    bed.run_until(at(lost + 2, 0));
    bed.restart_node(victim_addr);
    for (table, row) in &rows[victim].1 {
        bed.publish_local(victim_addr, table, row.clone());
    }
    // The restarted node runs the query again once the origin's periodic
    // re-dissemination reaches it.
    let mut rejoined = None;
    for e in lost + 2..lost + 8 {
        bed.run_until(at(e + 1, 0));
        if bed.node(victim_addr).unwrap().active_queries() > 0 {
            rejoined = Some(e);
            break;
        }
    }
    let rejoined = rejoined.expect("the restarted node must get the plan again");
    let end = rejoined + 7;
    bed.run_until(at(rejoined + 2, 0));
    let stats = |bed: &PierTestbed| bed.node(origin).unwrap().stats();
    let before = stats(&bed);
    bed.run_until(at(end, 0));
    let after = stats(&bed);

    for e in rejoined..end - 1 {
        let got = bed.results(origin, q, e);
        assert!(
            same_rows(&got, &all),
            "epoch {e} (rejoined in {rejoined}): {} of {} groups",
            got.len(),
            all.len()
        );
    }
    assert!(after.late_patched > 0, "the rejoin epoch closed before its last partial");
    assert_eq!(after.finalized_on_timer, before.finalized_on_timer, "{after:?}");
    assert!(after.finalized_on_completion >= before.finalized_on_completion + 4, "{after:?}");
}

#[test]
fn the_restart_epoch_reads_every_node() {
    // Ten nodes are killed 150 ms into an epoch and restarted 30 s later
    // with their rows re-published.  Once the plan reaches them again, 40
    // nodes contribute while the origin expects the 30 of the last epoch,
    // so the restart epoch can close before their partials arrive.  Those
    // partials patch it: from the restart epoch on, every epoch reads all
    // 40 rows from 40 contributors.  Seed 7 shows the race; the default
    // seed does not.
    let (mut bed, rows) = deployment(7);
    let origin = bed.nodes()[1];
    advance_into_next_epoch(&mut bed, 2_500);
    let q = bed.submit_sql(origin, CONTINUOUS).unwrap();
    let first = now_ms(&bed) / PERIOD_MS;
    let all = reference(CONTINUOUS, rows.iter().map(|(_, r)| r.clone()));
    let at = |e: u64, ms: u64| SimTime::from_micros((e * PERIOD_MS + ms) * 1_000);

    let victims = &rows[20..30];
    let lost = first + 4;
    bed.run_until(at(lost, 150));
    for (addr, _) in victims {
        bed.kill_node(*addr);
    }
    bed.run_for(Duration::from_secs(30));
    for (addr, row) in victims {
        bed.restart_node(*addr);
        bed.publish_local(*addr, "m", row.clone());
    }
    // The restart epoch is the one in which the last restarted node runs
    // the query again, once the origin's periodic re-dissemination reaches
    // it.
    let mut restarted = None;
    for e in lost + 6..lost + 14 {
        bed.run_until(at(e + 1, 0));
        if victims.iter().all(|(a, _)| bed.node(*a).unwrap().active_queries() > 0) {
            restarted = Some(e);
            break;
        }
    }
    let restarted = restarted.expect("every restarted node must get the plan again");
    let end = restarted + 4;
    bed.run_until(at(end + 1, 0));
    let turnout: Vec<(u64, u64)> =
        (lost..end).map(|e| (e, bed.contributors(origin, q, e))).collect();
    for e in restarted..end {
        let got = bed.results(origin, q, e);
        assert!(same_rows(&got, &all), "epoch {e} (restart epoch {restarted}): {got:?}");
        assert_eq!(bed.contributors(origin, q, e), NODES as u64, "epoch {e}: {turnout:?}");
    }
}

#[test]
fn one_shot_and_fetch_matches_join_aggregates_wait_for_the_timer() {
    // One-shot: no previous epoch, so no count to expect.
    let sql = colocated_sql();
    let one_shot = sql.replace(JOIN_EVERY, "");
    let planned = plan(&one_shot);
    let (mut bed, rows) = join_deployment(false);
    let origin = bed.nodes()[1];
    let submitted = now_ms(&bed);
    let q = bed.submit_sql(origin, &one_shot).unwrap();
    let mut poller = Poller::new(origin, q, vec![(0, 0, join_reference(&planned, &rows))]);
    poller.step_until(&mut bed, submitted + 2 * COLLECT_MS);
    let answered = poller.answered.get(&0).map(|ms| ms - submitted);
    assert!(answered.is_some_and(|ms| ms >= COLLECT_MS), "one-shot answered {answered:?}");
    let totals = bed.engine_totals();
    assert_eq!(totals.finalized_on_completion, 0, "{totals:?}");
    assert!(totals.finalized_on_timer >= 1, "{totals:?}");

    // Fetch-Matches: probes answer after the scan, outside the credit, so
    // every epoch of a continuous query closes on the timer.
    let catalog = join_catalog();
    let planner = Planner::with_join_strategy(&catalog, JoinStrategy::FetchMatches);
    let planned = planner.plan_select(&parse_select(&sql).unwrap()).unwrap();
    assert!(!all_symmetric(&planned.kind));
    let (mut bed, rows) = join_deployment(true);
    let origin = bed.nodes()[1];
    advance_into_next_epoch(&mut bed, 2_500);
    let q = bed
        .submit_query(
            origin,
            planned.kind.clone(),
            planned.output_names.clone(),
            planned.continuous,
        )
        .unwrap();
    let first = now_ms(&bed) / PERIOD_MS;
    let want = join_reference(&planned, &rows);
    let end = first + 5;
    let mut poller = Poller::new(origin, q, (first..end).map(|e| (e, e, want.clone())).collect());
    poller.step_until(&mut bed, end * PERIOD_MS);
    eprintln!("fetch-matches answer latencies {:?}", poller.answered);
    for e in first + 1..end {
        assert!(poller.answered.get(&e).is_some_and(|&ms| ms >= COLLECT_MS), "epoch {e}");
    }
    let totals = bed.engine_totals();
    assert_eq!(totals.finalized_on_completion, 0, "{totals:?}");
}

#[test]
fn a_replan_onto_a_credit_tracked_plan_completes_two_epochs_later() {
    // Statistics that inflate `alerts` make the planner probe it with
    // Fetch-Matches, a plan that closes on the timer; the true statistics
    // then re-plan the query mid-flight onto symmetric-hash stages grouped
    // at their join sites, which close on credit.  Nodes switch plans up to
    // an epoch apart, so the counts of the epochs around the switch are not
    // expected again: every epoch still equals the reference.
    let sql = colocated_sql();
    let (mut bed, rows) = join_deployment(true);
    bed.set_table_stats_everywhere(
        "alerts",
        TableStats::with_rows(20_000).distinct_keys(NODES as u64 / 4),
    );
    let origin = bed.nodes()[1];
    advance_into_next_epoch(&mut bed, 2_500);
    let q = bed.submit_sql(origin, &sql).unwrap();
    let first = now_ms(&bed) / PERIOD_MS;
    let want = join_reference(&plan(&sql), &rows);
    let end = first + 12;
    let mut poller = Poller::new(origin, q, (first..end).map(|e| (e, e, want.clone())).collect());
    poller.step_until(&mut bed, (first + 4) * PERIOD_MS + 2_500);
    assert!(!all_symmetric(&bed.node(origin).unwrap().results(q).unwrap().spec.kind));
    let catalog = join_catalog();
    bed.set_table_stats_everywhere("alerts", catalog.stats("alerts").unwrap());
    poller.step_until(&mut bed, end * PERIOD_MS);
    eprintln!("answer latencies {:?}", poller.answered);

    let spec = bed.node(origin).unwrap().results(q).unwrap().spec.clone();
    assert!(all_symmetric(&spec.kind), "the true statistics must re-plan onto symmetric stages");
    let switched = first + 5;
    for e in (first..end).filter(|e| !(switched..switched + 2).contains(e)) {
        assert!(same_rows(&bed.results(origin, q, e), &want), "epoch {e}: {:?}", poller.answered);
    }
    for e in switched + 2..end {
        assert!(poller.within(e, JOIN_COLOCATED_WITHIN_MS), "epoch {e}: {:?}", poller.answered);
    }
}

#[test]
fn credit_splits_are_exact_and_conserved() {
    let sum = |parts: &[Credit]| {
        let mut total = Credit::NONE;
        for &p in parts {
            total += p;
        }
        total
    };
    // A node splits its unit over however many rehash payloads it sends;
    // halving the largest piece keeps each part one power of two: one byte.
    for n in [1, 2, 3, 7, 8, 100, 1000] {
        let parts = Credit::UNIT.split(n).unwrap();
        assert_eq!(parts.len(), n);
        assert_eq!(sum(&parts), Credit::UNIT, "{n} parts");
        assert!(parts.iter().all(|p| !p.is_none() && p.wire_size() == 1), "{n} parts");
    }
    // A join site pools the pieces it receives and passes the pool on; the
    // last part takes whatever is left over.
    let mut pool = Credit::NONE;
    for p in Credit::UNIT.split(5).unwrap().into_iter().take(3) {
        pool += p;
    }
    let parts = pool.split(2).unwrap();
    assert_eq!(sum(&parts), pool);
    assert_eq!(parts.iter().map(|p| p.wire_size()).sum::<usize>(), pool.wire_size());
    // Across a chain of stages — scan, stage 0, stage 1, the return — 40
    // nodes' units come back whole, and only whole.
    let mut returned = Credit::NONE;
    for _ in 0..NODES {
        for stage0 in Credit::UNIT.split(6).unwrap() {
            for stage1 in stage0.split(3).unwrap() {
                returned += stage1;
            }
        }
    }
    assert_eq!(returned, Credit::units(NODES as u64));
    assert_eq!(returned.units_ceil(), NODES as u64);
    let mut short = Credit::units(NODES as u64 - 1);
    short += Credit::UNIT.split(2).unwrap()[0];
    assert_ne!(short, Credit::units(NODES as u64), "a lost half unit keeps the epoch open");
    assert_eq!(short.units_ceil(), NODES as u64, "a fraction counts as a whole node");
    assert_eq!(Credit::NONE.split(1), None);
    assert_eq!(Credit::NONE.wire_size(), 0, "untracked payloads carry no credit bytes");
}
