//! Measures windowed delta-scan execution against per-epoch rescans on the
//! self-monitoring workload, and emits a machine-readable `BENCH_window.json`
//! so future changes have a perf trajectory to compare against.
//!
//! The workload is the self-monitoring plane (`pier_apps::selfmon`): every
//! node publishes its own engine-counter deltas into `node_stats` once per
//! epoch, and an operator watches per-host totals.  The same aggregate runs
//! twice with the same seed and publish schedule:
//!
//! * **windowed** — `GROUP BY host WINDOW TUMBLING 4 EPOCHS`: each epoch's
//!   delta scan reads only the tuples stored since the previous boundary,
//!   partials fold into the covering window, and one result set ships per
//!   *window* when the watermark closes it;
//! * **rescan** — the same `GROUP BY host` as a plain continuous query over a
//!   trailing 8-second time window: every epoch rescans the full window and
//!   re-ships a complete result set (the pre-window baseline — each stored
//!   tuple is scanned and re-aggregated once per epoch it stays in range).
//!
//! Both runs publish the same number of monitoring rounds mid-epoch, so
//! `tuples_scanned` and `results_sent` (measured as deltas from query submit)
//! isolate the execution strategy.  `results_identical` verifies the windowed
//! run end-to-end: every closed window's rows must equal a reference
//! evaluation of the logged per-round publishes.
//!
//! Environment knobs: `PIER_NODES` (default 60), `PIER_SEED` (default 1).
//!
//! Run with: `cargo run --release -p pier-bench --bin bench_window`

use pier_apps::selfmon::{node_stats_stats, node_stats_table, SelfMonitor};
use pier_bench::{env_parse, fmt_thousands};
use pier_core::engine::EngineStats;
use pier_core::prelude::*;
use pier_core::same_rows;
use std::collections::BTreeMap;

const PERIOD_SECS: u64 = 2;
const WINDOW_EPOCHS: u64 = 4;
const ROUNDS: usize = 16;

const WINDOWED_SQL: &str = "SELECT host, SUM(tuples_published) AS published, \
     SUM(messages_sent) AS msgs FROM node_stats GROUP BY host \
     WINDOW TUMBLING 4 EPOCHS CONTINUOUS EVERY 2 SECONDS";

const RESCAN_SQL: &str = "SELECT host, SUM(tuples_published) AS published, \
     SUM(messages_sent) AS msgs FROM node_stats GROUP BY host \
     CONTINUOUS EVERY 2 SECONDS WINDOW 8 SECONDS";

struct RunOutcome {
    /// Query-side counter deltas from submit to the end of the run.
    stats: EngineStats,
    /// Result emissions reported at the origin (windows or epochs).
    emissions: usize,
    /// Windowed runs only: did every closed window match the reference?
    identical: bool,
    wall_ms: u128,
}

fn run_mode(nodes: usize, seed: u64, windowed: bool) -> RunOutcome {
    let started = std::time::Instant::now();
    let pier = PierConfig::fast_test();
    let warmup = Duration::from_secs(40);
    let mut bed =
        PierTestbed::new(TestbedConfig { nodes, seed, pier, warmup, ..Default::default() });
    bed.create_table_everywhere(&node_stats_table());
    bed.set_table_stats_everywhere("node_stats", node_stats_stats(nodes));

    let origin = bed.nodes()[1];
    let sql = if windowed { WINDOWED_SQL } else { RESCAN_SQL };
    let before = bed.engine_totals();
    let q = bed.submit_sql(origin, sql).expect("monitoring SQL submits");
    // Full dissemination before the first round: no node's install-time scan
    // overlaps its first boundary scan, so attribution is exact.
    bed.run_for(Duration::from_secs(2 * PERIOD_SECS));

    // One monitoring round per epoch, published mid-epoch: a tuple stored in
    // the middle of epoch `p` is counted in epoch `p + 1`.
    let period_us = PERIOD_SECS * 1_000_000;
    let mut mon = SelfMonitor::new();
    let mut published: BTreeMap<u64, Vec<Tuple>> = BTreeMap::new();
    for _ in 0..ROUNDS {
        let now = bed.now().as_micros();
        let target = (now / period_us + 1) * period_us + period_us / 2;
        bed.run_for(Duration::from_micros(target - now));
        let attributed = bed.now().as_micros() / period_us + 1;
        published.insert(attributed, mon.publish_round_logged(&mut bed));
    }
    // Let the trailing windows close and their results settle.
    bed.run_for(Duration::from_secs(6 * PERIOD_SECS));

    let after = bed.engine_totals();
    let mut stats = after;
    stats.tuples_scanned -= before.tuples_scanned;
    stats.results_sent -= before.results_sent;
    stats.partials_sent -= before.partials_sent;
    stats.messages_sent -= before.messages_sent;
    stats.bytes_shipped -= before.bytes_shipped;

    let emissions = bed.epochs(origin, q).len();
    let identical = if windowed { verify_windows(&bed, origin, q, &published) } else { true };
    RunOutcome { stats, emissions, identical, wall_ms: started.elapsed().as_millis() }
}

/// Reference-check every closed window: `(host, SUM(tuples_published),
/// SUM(messages_sent))` over the rounds attributed to its epoch range.
fn verify_windows(
    bed: &PierTestbed,
    origin: NodeAddr,
    q: QueryId,
    published: &BTreeMap<u64, Vec<Tuple>>,
) -> bool {
    let windows = bed.epochs(origin, q);
    if windows.len() < 2 {
        eprintln!("[window] too few closed windows to verify: {windows:?}");
        return false;
    }
    for &w in &windows {
        let got = bed.results(origin, q, w);
        let mut groups: BTreeMap<String, (i64, i64)> = BTreeMap::new();
        let (start, end) = (WINDOW_EPOCHS * w, WINDOW_EPOCHS * w + WINDOW_EPOCHS - 1);
        for (_, round) in published.range(start..=end) {
            for t in round {
                let host = t.get(0).as_str().unwrap_or_default().to_string();
                let e = groups.entry(host).or_insert((0, 0));
                e.0 += t.get(2).as_i64().unwrap_or(0);
                e.1 += t.get(7).as_i64().unwrap_or(0);
            }
        }
        let expected: Vec<Tuple> = groups
            .into_iter()
            .map(|(h, (p, m))| Tuple::new(vec![Value::str(h), Value::Int(p), Value::Int(m)]))
            .collect();
        if !same_rows(&got, &expected) {
            eprintln!(
                "[window] window {w} (epochs {start}..={end}) mismatch:\n  got {got:?}\n  want {expected:?}"
            );
            return false;
        }
    }
    true
}

fn mode_json(r: &RunOutcome) -> String {
    format!(
        "{{\"tuples_scanned\": {}, \"results_sent\": {}, \"partials_sent\": {}, \
         \"messages_sent\": {}, \"bytes_shipped\": {}, \"emissions\": {}, \
         \"wall_clock_ms\": {}}}",
        r.stats.tuples_scanned,
        r.stats.results_sent,
        r.stats.partials_sent,
        r.stats.messages_sent,
        r.stats.bytes_shipped,
        r.emissions,
        r.wall_ms,
    )
}

fn main() {
    let nodes: usize = env_parse("PIER_NODES", 60);
    let seed: u64 = env_parse("PIER_SEED", 1);

    eprintln!(
        "[window] self-monitoring GROUP BY host, {ROUNDS} rounds at {nodes} nodes, seed {seed}"
    );
    eprintln!("[window] running windowed (TUMBLING {WINDOW_EPOCHS} EPOCHS) …");
    let win = run_mode(nodes, seed, true);
    eprintln!("[window] running per-epoch rescan baseline …");
    let rescan = run_mode(nodes, seed, false);

    let scanned_ratio = rescan.stats.tuples_scanned as f64 / win.stats.tuples_scanned.max(1) as f64;
    let results_ratio = rescan.stats.results_sent as f64 / win.stats.results_sent.max(1) as f64;

    println!();
    println!("Windowed delta scans vs per-epoch rescans ({nodes} nodes)");
    println!();
    println!("{:<28} {:>16} {:>16}", "", "windowed", "rescan");
    let row = |label: &str, a: u64, b: u64| {
        println!("{:<28} {:>16} {:>16}", label, fmt_thousands(a as f64), fmt_thousands(b as f64));
    };
    row("tuples scanned", win.stats.tuples_scanned, rescan.stats.tuples_scanned);
    row("result rows shipped", win.stats.results_sent, rescan.stats.results_sent);
    row("partials shipped", win.stats.partials_sent, rescan.stats.partials_sent);
    row("engine messages sent", win.stats.messages_sent, rescan.stats.messages_sent);
    row("result emissions", win.emissions as u64, rescan.emissions as u64);
    println!();
    println!("tuples-scanned improvement   : {scanned_ratio:.2}x");
    println!("result-rows improvement      : {results_ratio:.2}x");
    println!("windowed results identical   : {}", win.identical);

    let json = format!(
        "{{\n  \"workload\": {{\"nodes\": {nodes}, \"seed\": {seed}, \"rounds\": {ROUNDS}, \
         \"windowed_query\": \"{}\", \"rescan_query\": \"{}\"}},\n  \
         \"windowed\": {},\n  \"rescan\": {},\n  \
         \"tuples_scanned_ratio\": {scanned_ratio:.3},\n  \
         \"results_sent_ratio\": {results_ratio:.3},\n  \
         \"results_identical\": {}\n}}\n",
        WINDOWED_SQL.replace('"', "'"),
        RESCAN_SQL.replace('"', "'"),
        mode_json(&win),
        mode_json(&rescan),
        win.identical,
    );
    std::fs::write("BENCH_window.json", &json).expect("write BENCH_window.json");
    eprintln!("[window] wrote BENCH_window.json");

    assert!(win.identical, "windowed results diverged from the reference evaluation");
    assert!(
        win.stats.tuples_scanned < rescan.stats.tuples_scanned,
        "delta scans must read fewer tuples ({} vs {})",
        win.stats.tuples_scanned,
        rescan.stats.tuples_scanned
    );
    assert!(
        win.stats.results_sent < rescan.stats.results_sent,
        "per-window emission must ship fewer result rows ({} vs {})",
        win.stats.results_sent,
        rescan.stats.results_sent
    );
}
