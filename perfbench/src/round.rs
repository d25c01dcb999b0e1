//! One round of a workload: set-up, then the timed phase.  The benchmark
//! advances the simulated clock itself, in small steps, and applies every
//! scheduled action exactly when it is due — an open loop whose generator
//! is never late.  Between steps the oracle polls the origins; that time is
//! measured and left out of the host time.  So are the calibration slices
//! run every half simulated second (see `calibrate.rs`).

use crate::calibrate::{Calibrator, REFERENCE_SLICE_NS};
use crate::harvest::{delta, harvest, Counters};
use crate::oracle::{Oracle, Outcome};
use crate::spans::Spans;
use crate::workloads::{period, Action, Publish, Scale, Scenario, Workload};
use pier_core::prelude::*;
use pier_simnet::LatencyModel;
use std::time::Instant;

/// Seed of the simulated deployment's latency map.  The map is the same for
/// every workload seed, so a seed varies the workload's inputs, not the
/// geometry of the network they run on.
const TOPOLOGY_SEED: u64 = 0x9132_2004;

/// How far, in virtual microseconds, the clock advances between two polls
/// of the origins: the resolution of every sim-time latency.
pub const POLL_STEP_US: u64 = 1_000;

/// How often, in virtual microseconds of the timed phase, a slice of
/// calibration work runs between two steps.
const CALIB_EVERY_US: u64 = 500_000;

/// Everything one round measured.
pub struct Round {
    /// Host seconds of set-up (boot, warm-up, tables, base data, continuous
    /// queries), oracle work excluded.
    pub setup_s: f64,
    /// Host seconds of the timed phase, oracle work excluded.
    pub timed_host_s: f64,
    /// Simulated seconds of the timed phase.
    pub timed_sim_s: f64,
    /// Host seconds the oracle spent building references and polling.
    pub check_s: f64,
    /// Host nanoseconds per slice of the calibration work interleaved with
    /// this round (left out of every other host time).
    pub calib_ns: f64,
    /// Simulator events processed in the timed phase.
    pub events: u64,
    /// Counter deltas over the timed phase.
    pub counters: Counters,
    /// One outcome per expected answer.
    pub outcomes: Vec<Outcome>,
    /// Deployment size.
    pub nodes: usize,
    /// Rows the benchmark published in the timed phase.
    pub published_rows: u64,
    /// The scenario and its publication log, kept for the replay phase.
    pub scenario: Scenario,
    /// The oracle (its log feeds the replay phase).
    pub oracle: Oracle,
    /// The testbed after the run (its catalogs feed the replay phase).
    pub bed: PierTestbed,
}

impl Round {
    /// Factor that scales this round's host times to the reference machine.
    pub fn speed_scale(&self) -> f64 {
        crate::ratio(REFERENCE_SLICE_NS, self.calib_ns)
    }
}

/// Accumulates oracle time so it can be taken out of a phase's wall time.
#[derive(Default)]
struct Excluded {
    ns: u64,
}

impl Excluded {
    fn run<R>(&mut self, spans: &mut Spans, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = spans.wrap("reference.check", f);
        self.ns += t.elapsed().as_nanos() as u64;
        r
    }
}

fn publish(bed: &mut PierTestbed, spans: &mut Spans, addr: NodeAddr, p: &Publish) {
    spans.wrap("testbed.publish", || {
        if p.routed {
            bed.publish_batch(addr, p.table, p.rows.clone());
        } else {
            for row in &p.rows {
                bed.publish_local(addr, p.table, row.clone());
            }
        }
    });
}

/// Run one round of `workload` for `seed`.
pub fn run(workload: Workload, seed: u64, scale: Scale, spans: &mut Spans) -> Round {
    let scenario = workload.scenario(seed, scale);
    let mut oracle = Oracle::default();
    let mut excluded = Excluded::default();
    let mut calib = Calibrator::new();
    calib.slice();

    // ---- set-up ------------------------------------------------------
    let setup_started = Instant::now();
    spans.begin("phase.setup");
    let nodes = scale.nodes();
    let config = TestbedConfig {
        nodes,
        seed,
        pier: pier_bench::experiment_config(),
        warmup: scale.warmup(),
        latency: Some(LatencyModel::planetary(nodes, &mut pier_simnet::DetRng::new(TOPOLOGY_SEED))),
        ..Default::default()
    };
    let mut bed = spans.wrap("testbed.new", || PierTestbed::new(config));
    let addrs = bed.nodes().to_vec();
    spans.wrap("testbed.create_table", || {
        for def in &scenario.tables {
            bed.create_table_everywhere(def);
        }
        for (table, stats) in &scenario.stats {
            bed.set_table_stats_everywhere(table, *stats);
        }
    });
    for p in &scenario.base {
        publish(&mut bed, spans, addrs[p.from], p);
        let now = bed.now();
        excluded.run(spans, || oracle.published(now, p.table, &p.rows));
    }
    if !scenario.base.is_empty() {
        spans.wrap("simnet.run_for", || bed.sim().run_for(period()));
    }
    for q in &scenario.continuous {
        let origin = addrs[q.from];
        let id = spans
            .wrap("testbed.submit", || bed.submit_sql(origin, &q.sql))
            .expect("continuous query submits");
        excluded.run(spans, || {
            let catalog = bed.node(origin).expect("origin is alive").catalog();
            oracle.watch_continuous(&q.label, origin, id, catalog, &q.sql)
        });
    }
    // Start the clock on an epoch boundary at least one full epoch after
    // the last submission, so every continuous query is installed everywhere.
    let p = period().as_micros();
    let t0 = SimTime::from_micros((bed.now().as_micros() / p + 2) * p);
    spans.wrap("simnet.run_for", || bed.sim().run_until(t0));
    spans.end();
    let setup_s =
        (setup_started.elapsed().as_nanos() as u64).saturating_sub(excluded.ns) as f64 / 1e9;
    calib.slice();

    // ---- timed phase -------------------------------------------------
    let before = harvest(&mut bed);
    let rounds_end = t0 + Duration::from_micros(scale.rounds() * p);
    // The last epoch's answers, and the last searches, are due two epochs
    // after the publications end.
    let end = rounds_end + Duration::from_micros(2 * p);
    oracle.set_span(t0, rounds_end);
    let mut excluded = Excluded::default();
    let mut events = 0u64;
    let mut published_rows = 0u64;
    let mut next = 0usize;
    let mut calib_ns = 0u64;
    let timed_started = Instant::now();
    spans.begin("phase.timed");
    let mut now = t0;
    while now < end {
        let step = now + Duration::from_micros(POLL_STEP_US);
        let due = scenario.timed.get(next).map(|a| t0 + a.at).filter(|&t| t < step);
        let stop = due.unwrap_or(step);
        events += spans.wrap("simnet.run_for", || bed.sim().run_until(stop));
        now = stop;
        while let Some(a) = scenario.timed.get(next).filter(|a| t0 + a.at <= now) {
            match &a.action {
                Action::Publish(pb) => {
                    publish(&mut bed, spans, addrs[pb.from], pb);
                    published_rows += pb.rows.len() as u64;
                    excluded.run(spans, || oracle.published(now, pb.table, &pb.rows));
                }
                Action::Search(q) => {
                    let origin = addrs[q.from];
                    let id = spans
                        .wrap("testbed.submit", || bed.submit_sql(origin, &q.sql))
                        .expect("search submits");
                    excluded.run(spans, || {
                        let catalog = bed.node(origin).expect("origin is alive").catalog();
                        oracle.watch_search(&q.label, origin, id, catalog, &q.sql, now)
                    });
                }
            }
            next += 1;
        }
        excluded.run(spans, || {
            oracle.open_due(now);
            oracle.poll(&bed, now);
        });
        if (now.as_micros() - t0.as_micros()) % CALIB_EVERY_US == 0 {
            let t = Instant::now();
            spans.wrap("calibrate.slice", || calib.slice());
            calib_ns += t.elapsed().as_nanos() as u64;
        }
    }
    spans.end();
    let timed_host_s = (timed_started.elapsed().as_nanos() as u64)
        .saturating_sub(excluded.ns + calib_ns) as f64
        / 1e9;
    let after = harvest(&mut bed);
    let outcomes = excluded.run(spans, || oracle.finish(&bed));

    Round {
        setup_s,
        timed_host_s,
        timed_sim_s: (end.as_micros() - t0.as_micros()) as f64 / 1e6,
        check_s: excluded.ns as f64 / 1e9,
        calib_ns: calib.ns_per_slice(),
        events,
        counters: delta(&after, &before),
        outcomes,
        nodes,
        published_rows,
        scenario,
        oracle,
        bed,
    }
}
