//! Completion closes aggregation epochs.  A continuous single-table
//! aggregate answers once as many contributors as last epoch have reported:
//! every hop forwards as soon as last epoch's count has passed through it,
//! and the root finalizes once that count has reported and partials have
//! been quiet for one hold-down.  The timers stay as the fallback and the
//! upper bound: an epoch that loses a contributor finalizes on
//! `collect_delay`, and one-shot aggregates always wait for it.
//!
//! Latency is read the way a client sees it: the simulator steps 1 ms at a
//! time and the origin's rows are compared with the reference evaluator
//! after every step.  An epoch's `EpochDone` and its rows are separate
//! direct messages under latency jitter, so the rows are what is polled.

use pier::core::{same_rows, sql::parse_select, Catalog, MemoryDb, Planner};
use pier::prelude::*;
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
fn deployment() -> (PierTestbed, Vec<(NodeAddr, Tuple)>) {
    let mut bed = PierTestbed::quick(NODES, SEED);
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
    let (mut bed, rows) = deployment();
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
    let (mut bed, rows) = deployment();
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
    let (mut bed, rows) = deployment();
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
