//! # pier-perfbench — the absolute, layered benchmark of PIER
//!
//! One command runs a named workload against `PierTestbed`, checks every
//! answer against `reference::MemoryDb`, and prints the end-to-end metrics
//! by name with units (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`).  The benchmark measures every layer from outside: it
//! reads public counters and times the calls it makes into each layer's
//! public functions.  See `README.md` beside this crate.

pub mod calibrate;
pub mod harvest;
pub mod oracle;
pub mod replay;
pub mod round;
pub mod spans;
pub mod workloads;

use oracle::Verdict;
use round::Round;
use spans::Spans;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{Scale, Workload};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to keep repeating rounds for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Deployment size.
    pub scale: Scale,
    /// Fewest rounds per run, whatever `seconds` says.
    pub min_rounds: usize,
    /// Where a traced run writes its spans (JSON lines).
    pub spans_out: Option<std::path::PathBuf>,
}

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The result of a run.
pub struct Report {
    /// No answer differed from the reference.
    pub correct: bool,
    /// Answers expected.
    pub attempted: u64,
    /// Answers missing, late, or wrong.
    pub failed: u64,
    /// The printed metrics.
    pub metrics: Metrics,
    /// Human-readable lines printed before the JSON.
    pub notes: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank quantile of sorted values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// End-to-end metrics of one untraced round (all but `peak_rss_mb`).
struct EndToEnd {
    values: BTreeMap<&'static str, f64>,
    /// Successful answers, for the sample count.
    samples: usize,
}

fn counter(r: &Round, name: &str) -> f64 {
    r.counters.get(name).copied().unwrap_or(0) as f64
}

fn end_to_end(r: &Round) -> EndToEnd {
    let ok: Vec<_> = r.outcomes.iter().filter(|o| o.verdict == Verdict::Ok).collect();
    let mut lat: Vec<f64> = ok.iter().filter_map(|o| o.answer_ms).collect();
    let mut first: Vec<f64> = ok.iter().filter_map(|o| o.first_row_ms).collect();
    lat.sort_by(f64::total_cmp);
    first.sort_by(f64::total_cmp);
    let n = ok.len() as f64;
    let mut v = BTreeMap::new();
    let scale = r.speed_scale();
    v.insert("setup_s", r.setup_s * scale);
    v.insert("answer_ms_p50", quantile(&lat, 0.5));
    v.insert("answer_ms_p95", quantile(&lat, 0.95));
    v.insert("first_row_ms_p50", quantile(&first, 0.5));
    v.insert("answer_ok_frac", ratio(n, r.outcomes.len() as f64));
    v.insert("app_msgs_per_answer", ratio(counter(r, "dht.app_msgs"), n));
    v.insert("app_kb_per_answer", ratio(counter(r, "engine.bytes_shipped") / 1024.0, n));
    v.insert(
        "wire_kb_per_node_s",
        ratio(counter(r, "simnet.bytes") / 1024.0, r.nodes as f64 * r.timed_sim_s),
    );
    v.insert("host_ms_per_sim_s", ratio(r.timed_host_s * 1e3, r.timed_sim_s) * scale);
    EndToEnd { values: v, samples: lat.len() }
}

/// The end-to-end metrics, with units, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("answer_ms_p50", "ms"),
    ("answer_ms_p95", "ms"),
    ("first_row_ms_p50", "ms"),
    ("answer_ok_frac", "ratio"),
    ("app_msgs_per_answer", "msgs"),
    ("app_kb_per_answer", "KiB"),
    ("wire_kb_per_node_s", "KiB"),
    ("host_ms_per_sim_s", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, with units, printed by a traced run, grouped by
/// the module they describe.  Counters are deltas over the timed phase;
/// every ratio sits beside its base counts.
pub const PER_LAYER: [(&str, &str); 76] = [
    // testbed
    ("testbed.boot_ms", "ms"),
    ("testbed.publish_us_per_tuple", "us"),
    ("testbed.submit_us", "us"),
    // sql + planner
    ("planner.plan_us", "us"),
    ("planner.replay_plans", "count"),
    ("planner.cache_hit_frac", "ratio"),
    ("engine.plan_cache_hits", "count"),
    ("engine.plan_cache_misses", "count"),
    ("engine.plan_cache_misses_per_sim_s", "1/s"),
    // column + kernel
    ("engine.tuples_scanned", "count"),
    ("engine.tuples_scanned_per_sim_s", "1/s"),
    ("kernel.scan_ns_per_row", "ns"),
    ("kernel.scan_est_ms", "ms"),
    ("kernel.replay_rows", "count"),
    // aggregate + dataflow::ops
    ("agg.fold_ns_per_row", "ns"),
    ("agg.replay_rows", "count"),
    ("agg.merge_us_per_partial", "us"),
    ("agg.replay_partials", "count"),
    ("engine.partials_sent", "count"),
    ("engine.partials_merged", "count"),
    ("agg.combine_frac", "ratio"),
    // dataflow::join + bloom
    ("engine.join_tuples_sent", "count"),
    ("engine.join_tuples_sent_per_sim_s", "1/s"),
    ("engine.join_matches", "count"),
    ("join.match_frac", "ratio"),
    ("join.probe_ns_per_row", "ns"),
    ("join.replay_rows", "count"),
    ("join.replay_out", "count"),
    ("bloom.pass_frac", "ratio"),
    ("engine.bloom_tested", "count"),
    ("engine.bloom_passed", "count"),
    ("engine.bloom_fallbacks", "count"),
    // encoding + payload
    ("engine.bytes_shipped", "bytes"),
    ("engine.batches_sent", "count"),
    ("encoding.rows_per_batch", "rows"),
    ("encoding.bytes_per_row", "bytes"),
    ("encoding.encode_ns_per_row", "ns"),
    ("encoding.decode_ns_per_row", "ns"),
    ("encoding.replay_rows", "count"),
    ("encoding.replay_batches", "count"),
    ("engine.piggybacked_payloads", "count"),
    ("engine.shared_frames", "count"),
    // engine
    ("engine.epochs_run", "count"),
    ("engine.results_sent", "count"),
    ("engine.messages_sent", "count"),
    ("engine.tuples_published", "count"),
    ("engine.tuples_published_per_sim_s", "1/s"),
    // dht
    ("dht.app_msgs", "count"),
    ("dht.deliveries", "count"),
    ("dht.delivery_hops", "count"),
    ("dht.hops_per_delivery", "hops"),
    ("dht.forwards", "count"),
    ("dht.hop_limit_drops", "count"),
    ("dht.piggybacked_directs", "count"),
    ("dht.maint_msgs", "count"),
    // simnet
    ("simnet.events", "count"),
    ("simnet.run_ms", "ms"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.msgs", "count"),
    ("simnet.kb", "KiB"),
    ("simnet.timers_fired", "count"),
    ("simnet.delivery_ms_p50", "ms"),
    ("simnet.drops", "count"),
    // reference (oracle; not part of the host time)
    ("reference.check_ms", "ms"),
    // machine-speed calibration: the slice time and the unscaled host times
    ("calibrate.slice_us", "us"),
    ("calibrate.raw_host_ms_per_sim_s", "ms"),
    ("calibrate.raw_setup_s", "s"),
    // tracing and span self times
    ("trace.host_ms_per_sim_s", "ms"),
    ("trace.untraced_host_ms_per_sim_s", "ms"),
    ("trace.overhead_ms_per_sim_s", "ms"),
    ("span.testbed.publish.self_ms", "ms"),
    ("span.testbed.submit.self_ms", "ms"),
    ("span.simnet.run_for.self_ms", "ms"),
    ("span.reference.check.self_ms", "ms"),
    ("span.phase.timed.self_ms", "ms"),
    ("span.phase.replay.self_ms", "ms"),
];

/// Every answer's (label, verdict, latency, first row), then the counts.
type Fingerprint = (Vec<(String, Verdict, Option<f64>, Option<f64>)>, Vec<u64>);

/// The sim-time metrics and message counts that must repeat exactly across
/// rounds of one seed.  Byte counts are left out: the size of a columnar
/// payload can differ by a few bytes between runs.
fn sim_fingerprint(r: &Round) -> Fingerprint {
    let answers = r
        .outcomes
        .iter()
        .map(|o| (o.what.clone(), o.verdict, o.answer_ms, o.first_row_ms))
        .collect();
    let counts: Vec<u64> = ["simnet.msgs", "dht.app_msgs", "engine.tuples_scanned"]
        .iter()
        .map(|k| r.counters.get(k).copied().unwrap_or(0))
        .collect();
    (answers, counts.into_iter().chain([r.events]).collect())
}

/// Run the benchmark as `opts` says.
pub fn run(opts: &Options) -> Report {
    let started = Instant::now();
    let mut notes = Vec::new();
    let mut e2e: Vec<EndToEnd> = Vec::new();
    let mut traced: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first: Option<(Vec<oracle::Outcome>, usize)> = None;
    let mut walls = Vec::new();
    let mut fingerprint = None;
    let mut deterministic = true;
    let mut spans_out = String::new();
    let mut i = 0usize;
    loop {
        // A traced run alternates untraced and traced rounds, so the
        // tracing overhead is measured under the same conditions.
        let traced_round = opts.trace && i % 2 == 1;
        let mut spans = Spans::new(traced_round);
        let round_started = Instant::now();
        let round = round::run(opts.workload, opts.seed, opts.scale, &mut spans);
        let fp = sim_fingerprint(&round);
        match &fingerprint {
            None => fingerprint = Some(fp),
            Some(f) => deterministic &= *f == fp,
        }
        if traced_round {
            traced.push(layers(&round, &mut spans));
            if spans_out.is_empty() {
                spans_out = spans.to_jsonl();
            }
        } else {
            e2e.push(end_to_end(&round));
        }
        walls.push((
            round.setup_s,
            round.timed_host_s,
            round.check_s,
            round_started.elapsed().as_secs_f64(),
            round.calib_ns,
        ));
        if first.is_none() {
            first = Some((round.outcomes, round.nodes));
        }
        i += 1;
        let rounds_ok =
            if opts.trace { i >= 2 * opts.min_rounds.max(1) } else { i >= opts.min_rounds };
        // Start another round only if one as long as the last would end in
        // time, so a run lasts about `seconds` however long a round takes.
        let last = round_started.elapsed().as_secs_f64();
        if rounds_ok && started.elapsed().as_secs_f64() + last > opts.seconds {
            break;
        }
    }
    let (outcomes, nodes) = first.expect("at least one round ran");
    let attempted = outcomes.len() as u64;
    let failed = outcomes.iter().filter(|o| o.verdict != Verdict::Ok).count() as u64;
    let correct = outcomes.iter().all(|o| o.verdict != Verdict::Wrong);
    for o in outcomes.iter().filter(|o| o.verdict != Verdict::Ok) {
        notes.push(format!("FAILED {} {}: {:?}", opts.workload.name(), o.what, o.verdict));
    }
    notes.push(format!(
        "workload {} seed {}: {} nodes, {} rounds in {:.1} s host, {} answers attempted, {} failed",
        opts.workload.name(),
        opts.seed,
        nodes,
        i,
        started.elapsed().as_secs_f64(),
        attempted,
        failed
    ));
    notes.push(format!(
        "open loop in simulated time: every publication and search is applied at its \
         scheduled instant by the benchmark's own clock, so generator lateness is 0 by \
         construction; latencies are resolved to the {} ms poll step",
        round::POLL_STEP_US as f64 / 1e3
    ));
    let col =
        |f: fn(&(f64, f64, f64, f64, f64)) -> f64| median(&walls.iter().map(f).collect::<Vec<_>>());
    notes.push(format!(
        "median round: set-up {:.3} s, timed phase {:.3} s host, oracle {:.3} s, wall {:.3} s \
         (unscaled host times)",
        col(|w| w.0),
        col(|w| w.1),
        col(|w| w.2),
        col(|w| w.3)
    ));
    notes.push(format!(
        "calibration slice {:.0} us against {:.0} us on the reference machine: host-time \
         metrics are scaled by the ratio, round by round",
        col(|w| w.4) / 1e3,
        calibrate::REFERENCE_SLICE_NS / 1e3
    ));
    notes.push(format!(
        "same-seed rounds repeated sim-time metrics and message counts exactly: {deterministic}"
    ));

    let mut metrics = Metrics::new();
    if opts.trace {
        // Tracing overhead: traced minus untraced host time per sim-s.
        let untraced: Vec<f64> = e2e.iter().map(|e| e.values["host_ms_per_sim_s"]).collect();
        let base = median(&untraced);
        for t in &mut traced {
            t.insert("trace.untraced_host_ms_per_sim_s", base);
            t.insert("trace.overhead_ms_per_sim_s", t["trace.host_ms_per_sim_s"] - base);
        }
        for (k, unit) in PER_LAYER {
            let vals: Vec<f64> = traced
                .iter()
                .map(|t| *t.get(k).unwrap_or_else(|| panic!("per-layer metric {k} not measured")))
                .collect();
            metrics.insert(k, (median(&vals), unit));
        }
        if let Some(path) = &opts.spans_out {
            if let Err(e) = std::fs::write(path, &spans_out) {
                notes.push(format!("could not write spans to {}: {e}", path.display()));
            }
        }
    } else {
        for (k, unit) in END_TO_END {
            let vals: Vec<f64> = e2e.iter().filter_map(|e| e.values.get(k).copied()).collect();
            if k == "peak_rss_mb" {
                metrics.insert(k, (peak_rss_mb(), unit));
            } else {
                metrics.insert(k, (median(&vals), unit));
            }
        }
        notes.push(format!(
            "answer latency samples: {} (p95 has {} beyond it); host metrics are medians of {} rounds",
            e2e[0].samples,
            e2e[0].samples - (0.95 * e2e[0].samples as f64).ceil() as usize,
            e2e.len()
        ));
    }
    Report { correct, attempted, failed, metrics, notes }
}

/// Per-layer metrics of one traced round: counters over the timed phase,
/// span timings, and the replay phase.
fn layers(r: &Round, spans: &mut Spans) -> BTreeMap<&'static str, f64> {
    let sim_s = r.timed_sim_s;
    let c = |k: &str| counter(r, k);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (k, v) in &r.counters {
        if k.starts_with("engine.") || k.starts_with("dht.") {
            m.insert(k, *v as f64);
        }
    }
    for (name, base) in [
        ("engine.tuples_scanned_per_sim_s", "engine.tuples_scanned"),
        ("engine.join_tuples_sent_per_sim_s", "engine.join_tuples_sent"),
        ("engine.tuples_published_per_sim_s", "engine.tuples_published"),
        ("engine.plan_cache_misses_per_sim_s", "engine.plan_cache_misses"),
    ] {
        m.insert(name, ratio(c(base), sim_s));
    }
    m.insert(
        "planner.cache_hit_frac",
        ratio(
            c("engine.plan_cache_hits"),
            c("engine.plan_cache_hits") + c("engine.plan_cache_misses"),
        ),
    );
    m.insert("agg.combine_frac", ratio(c("engine.partials_merged"), c("engine.partials_sent")));
    m.insert("join.match_frac", ratio(c("engine.join_matches"), c("engine.join_tuples_sent")));
    m.insert("bloom.pass_frac", ratio(c("engine.bloom_passed"), c("engine.bloom_tested")));
    m.insert("dht.hops_per_delivery", ratio(c("dht.delivery_hops"), c("dht.deliveries")));
    m.insert("dht.maint_msgs", c("simnet.msgs") - c("dht.app_msgs"));
    m.insert("simnet.msgs", c("simnet.msgs"));
    m.insert("simnet.kb", c("simnet.bytes") / 1024.0);
    m.insert("simnet.timers_fired", c("simnet.timers_fired"));
    m.insert("simnet.drops", c("simnet.drops"));
    m.insert("simnet.events", r.events as f64);
    let delivery_ms =
        r.bed.metrics().delivery_latency().map(|h| h.quantile(0.5) as f64 / 1e3).unwrap_or(0.0);
    m.insert("simnet.delivery_ms_p50", delivery_ms);

    let setup = spans.totals("phase.setup");
    let timed = spans.totals("phase.timed");
    let get = |t: &BTreeMap<&'static str, (u64, u64, u64)>, k: &str| {
        t.get(k).copied().unwrap_or_default()
    };
    m.insert("testbed.boot_ms", get(&setup, "testbed.new").1 as f64 / 1e6);
    m.insert(
        "testbed.publish_us_per_tuple",
        ratio(get(&timed, "testbed.publish").1 as f64 / 1e3, r.published_rows as f64),
    );
    let (n_sub, ns_sub) = {
        let (a, b) = (get(&setup, "testbed.submit"), get(&timed, "testbed.submit"));
        (a.0 + b.0, a.1 + b.1)
    };
    m.insert("testbed.submit_us", ratio(ns_sub as f64 / 1e3, n_sub as f64));
    let run = get(&timed, "simnet.run_for");
    m.insert("simnet.run_ms", run.1 as f64 / 1e6);
    m.insert("simnet.ns_per_event", ratio(run.1 as f64, r.events as f64));
    m.insert("reference.check_ms", r.check_s * 1e3);
    let raw_host_ms = ratio(r.timed_host_s * 1e3, sim_s);
    m.insert("trace.host_ms_per_sim_s", raw_host_ms * r.speed_scale());
    m.insert("calibrate.slice_us", r.calib_ns / 1e3);
    m.insert("calibrate.raw_host_ms_per_sim_s", raw_host_ms);
    m.insert("calibrate.raw_setup_s", r.setup_s);
    for (name, key) in [
        ("testbed.publish", "span.testbed.publish.self_ms"),
        ("testbed.submit", "span.testbed.submit.self_ms"),
        ("simnet.run_for", "span.simnet.run_for.self_ms"),
        ("reference.check", "span.reference.check.self_ms"),
        ("phase.timed", "span.phase.timed.self_ms"),
    ] {
        m.insert(key, get(&timed, name).2 as f64 / 1e6);
    }

    let catalog = r.bed.node(r.bed.nodes()[0]).expect("node 0 is alive").catalog().clone();
    let mut sql: Vec<String> = r.scenario.continuous.iter().map(|q| q.sql.clone()).collect();
    for a in &r.scenario.timed {
        if let workloads::Action::Search(q) = &a.action {
            sql.push(q.sql.clone());
        }
    }
    sql.sort();
    sql.dedup();
    let p = workloads::period().as_micros();
    let log = r
        .oracle
        .log()
        .iter()
        .map(|(at, table, rows)| (at.as_micros() / p, *table, rows.as_slice()))
        .collect();
    let input = replay::Input { catalog: &catalog, sql, tables: &r.scenario.tables, log };
    m.extend(replay::run(&input, spans));
    m.insert("kernel.scan_est_ms", m["kernel.scan_ns_per_row"] * c("engine.tuples_scanned") / 1e6);
    let replay_self = spans.totals("phase.replay").get("phase.replay").map(|t| t.2).unwrap_or(0);
    m.insert("span.phase.replay.self_ms", replay_self as f64 / 1e6);
    m
}
