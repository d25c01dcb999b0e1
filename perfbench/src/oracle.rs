//! The answer oracle.  It logs every row the benchmark publishes with the
//! instant it was published, derives for every (query, epoch) — or window,
//! or one-shot search — exactly the rows that answer covers, evaluates the
//! query on them with `reference::MemoryDb`, and polls the origin until it
//! holds the same rows.  Publications land mid-epoch, so which epoch's
//! window a row belongs to is never ambiguous.

use crate::workloads::period;
use pier_core::prelude::*;
use pier_core::{same_rows, LogicalPlan, MemoryDb, Planner, QueryId};
use pier_simnet::SimTime;
use std::collections::BTreeMap;

/// How an answer ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Equal to the reference by its deadline, and still equal at the end.
    Ok,
    /// Equal to the reference only after its deadline.
    Late,
    /// Fewer rows than the reference at the end.
    Missing,
    /// Rows that differ from the reference.
    Wrong,
}

/// One expected answer.
struct Answer {
    query: usize,
    /// Epoch number, window id, or 0 for a one-shot search.
    key: u64,
    start: SimTime,
    deadline: SimTime,
    expected: Vec<Tuple>,
    first_row: Option<SimTime>,
    done: Option<SimTime>,
    seen: usize,
}

/// What the oracle knows about one submitted query.
struct Tracked {
    label: String,
    origin: NodeAddr,
    id: QueryId,
    logical: LogicalPlan,
    shape: Shape,
}

#[derive(Clone, Copy)]
enum Shape {
    /// Submitted at `at`; one answer over everything published before.
    OneShot,
    /// One answer per epoch over the trailing `window`.
    Epochs { window: Duration },
    /// One answer per epoch-count window.
    Windows(WindowSpec),
}

/// The outcome of one answer, for the report.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Query label plus epoch or window id.
    pub what: String,
    /// How it ended.
    pub verdict: Verdict,
    /// Virtual milliseconds from the answer's start until it was complete.
    pub answer_ms: Option<f64>,
    /// Virtual milliseconds from the answer's start until its first row.
    pub first_row_ms: Option<f64>,
}

/// Published rows, the queries under watch, and their expected answers.
#[derive(Default)]
pub struct Oracle {
    log: Vec<(SimTime, &'static str, Vec<Tuple>)>,
    /// Every row of `log[..absorbed]`: what a one-shot search sees.  Filled
    /// only when a search is watched.
    everything: MemoryDb,
    absorbed: usize,
    queries: Vec<Tracked>,
    answers: Vec<Answer>,
    pending: Vec<usize>,
    /// Publication interval the timed phase covers: answers are expected
    /// only for epochs whose data lies wholly inside it.
    span: (SimTime, SimTime),
    /// Continuous queries: the next epoch or window not yet opened.
    next_key: Vec<u64>,
}

/// How long after its start an answer may complete: two epochs for a
/// continuous answer (the collect timer plus a full epoch of slack), ten
/// seconds for a one-shot search.
fn deadline(shape: Shape) -> Duration {
    match shape {
        Shape::OneShot => Duration::from_secs(10),
        Shape::Epochs { .. } | Shape::Windows(_) => Duration::from_micros(2 * period().as_micros()),
    }
}

impl Oracle {
    /// Record a publication.
    pub fn published(&mut self, at: SimTime, table: &'static str, rows: &[Tuple]) {
        self.log.push((at, table, rows.to_vec()));
    }

    /// Every logged publication: (instant, table, rows).
    pub fn log(&self) -> &[(SimTime, &'static str, Vec<Tuple>)] {
        &self.log
    }

    /// Distinct SQL texts are re-planned here against `catalog`, which must
    /// be the origin's, so the reference sees the plan the origin runs.
    fn plan(catalog: &pier_core::Catalog, sql: &str) -> pier_core::PlannedQuery {
        let stmt = pier_core::sql::parse_select(sql).expect("workload SQL parses");
        Planner::new(catalog).plan_select(&stmt).expect("workload SQL plans")
    }

    /// Watch a continuous query.
    pub fn watch_continuous(
        &mut self,
        label: &str,
        origin: NodeAddr,
        id: QueryId,
        catalog: &pier_core::Catalog,
        sql: &str,
    ) {
        let planned = Self::plan(catalog, sql);
        let c = planned.continuous.expect("a continuous query");
        let shape = match planned.kind.window_spec() {
            Some(w) => Shape::Windows(w),
            None => Shape::Epochs { window: c.window },
        };
        self.queries.push(Tracked {
            label: label.to_string(),
            origin,
            id,
            logical: planned.logical,
            shape,
        });
        self.next_key.push(0);
    }

    /// Watch a one-shot search submitted at `now`: its answer is the query
    /// over everything published so far.
    pub fn watch_search(
        &mut self,
        label: &str,
        origin: NodeAddr,
        id: QueryId,
        catalog: &pier_core::Catalog,
        sql: &str,
        now: SimTime,
    ) {
        let planned = Self::plan(catalog, sql);
        for (_, table, rows) in &self.log[self.absorbed..] {
            self.everything.insert(table, rows.iter().cloned());
        }
        self.absorbed = self.log.len();
        let expected = self.everything.execute(&planned.logical);
        self.queries.push(Tracked {
            label: label.to_string(),
            origin,
            id,
            logical: planned.logical,
            shape: Shape::OneShot,
        });
        self.next_key.push(0);
        self.open(self.queries.len() - 1, 0, now, now + deadline(Shape::OneShot), expected);
    }

    /// Fix the publication interval of the timed phase.
    pub fn set_span(&mut self, from: SimTime, to: SimTime) {
        self.span = (from, to);
    }

    fn open(
        &mut self,
        query: usize,
        key: u64,
        start: SimTime,
        deadline: SimTime,
        expected: Vec<Tuple>,
    ) {
        self.pending.push(self.answers.len());
        self.answers.push(Answer {
            query,
            key,
            start,
            deadline,
            expected,
            first_row: None,
            done: None,
            seen: 0,
        });
    }

    /// Open every continuous answer whose epoch (or window) has started by
    /// `now` and whose data lies inside the timed publication interval.
    pub fn open_due(&mut self, now: SimTime) {
        let p = period().as_micros();
        let (lo, hi) = (self.span.0.as_micros(), self.span.1.as_micros());
        // Rows per publication interval, shared by the answers opened now.
        let mut dbs: BTreeMap<(u64, u64), MemoryDb> = BTreeMap::new();
        for q in 0..self.queries.len() {
            let shape = self.queries[q].shape;
            loop {
                // (key, start of the answer, start of its data interval); the
                // interval ends where the answer starts.
                let (key, start, from) = match shape {
                    Shape::OneShot => break,
                    // Epoch e covers rows published in [e·P − W, e·P).
                    Shape::Epochs { window } => {
                        let w = window.as_micros();
                        let key = self.next_key[q].max((lo + w).div_ceil(p));
                        (key, key * p, key * p - w)
                    }
                    // Window k covers epochs [first, close]; epoch e scans
                    // what was published during epoch e − 1.
                    Shape::Windows(ws) => {
                        let first = (lo / p + 1).div_ceil(ws.slide as u64);
                        let key = self.next_key[q].max(first);
                        (key, ws.closing_epoch(key) * p, (ws.start_epoch(key) - 1) * p)
                    }
                };
                if start > hi || start > now.as_micros() {
                    break;
                }
                let log = &self.log;
                let db = dbs.entry((from, start)).or_insert_with(|| {
                    let mut db = MemoryDb::new();
                    for (at, table, rows) in log {
                        if (from..start).contains(&at.as_micros()) {
                            db.insert(table, rows.iter().cloned());
                        }
                    }
                    db
                });
                let expected = db.execute(&self.queries[q].logical);
                let start = SimTime::from_micros(start);
                self.open(q, key, start, start + deadline(shape), expected);
                self.next_key[q] = key + 1;
            }
        }
    }

    /// Poll every pending answer at its origin.
    pub fn poll(&mut self, bed: &PierTestbed, now: SimTime) {
        let answers = &mut self.answers;
        let queries = &self.queries;
        self.pending.retain(|&i| {
            let a = &mut answers[i];
            let q = &queries[a.query];
            let Some(res) = bed.node(q.origin).and_then(|n| n.results(q.id)) else {
                return now <= a.deadline;
            };
            let seen = res.raw_rows(a.key).len();
            if seen > 0 && a.first_row.is_none() {
                a.first_row = Some(now);
            }
            // An empty answer is complete once the epoch's summary arrived.
            let empty_done = a.expected.is_empty() && res.contributors(a.key) > 0;
            // Operators above the scan (LIMIT, HAVING) only drop rows, so an
            // answer cannot be complete before this many have arrived.
            if (seen != a.seen && seen >= a.expected.len()) || empty_done {
                a.seen = seen;
                if same_rows(&res.rows(a.key), &a.expected) {
                    a.done = Some(now);
                    return false;
                }
            }
            now <= a.deadline
        });
    }

    /// Judge every answer against the rows its origin holds at the end.
    pub fn finish(&self, bed: &PierTestbed) -> Vec<Outcome> {
        self.answers
            .iter()
            .map(|a| {
                let q = &self.queries[a.query];
                let rows = bed
                    .node(q.origin)
                    .and_then(|n| n.results(q.id))
                    .map(|r| r.rows(a.key))
                    .unwrap_or_default();
                let equal = same_rows(&rows, &a.expected);
                let verdict = match (a.done, equal) {
                    (Some(_), true) => Verdict::Ok,
                    (None, true) => Verdict::Late,
                    (_, false) if rows.len() < a.expected.len() => Verdict::Missing,
                    (_, false) => Verdict::Wrong,
                };
                let ms = |t: Option<SimTime>| {
                    t.map(|t| (t.as_micros() - a.start.as_micros()) as f64 / 1_000.0)
                };
                let what = match q.shape {
                    Shape::OneShot => q.label.clone(),
                    Shape::Epochs { .. } => format!("{} epoch {}", q.label, a.key),
                    Shape::Windows(_) => format!("{} window {}", q.label, a.key),
                };
                Outcome {
                    what,
                    verdict,
                    answer_ms: if verdict == Verdict::Ok { ms(a.done) } else { None },
                    first_row_ms: ms(a.first_row),
                }
            })
            .collect()
    }
}
