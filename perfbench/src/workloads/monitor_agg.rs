//! `monitor_agg`: Figure 1 plus Table 1.  Every node stores a batch of
//! `netstats` readings and its Snort `intrusions` report locally each epoch,
//! and sixteen continuous aggregates from different origins watch them.
//! Scans, filter kernels, group folds and in-network partial combining do
//! the work; nothing is published through the DHT and nothing is joined.

use super::{mid_round, quarters, Action, Publish, Scale, Scenario, Submit, Timed};
use pier_apps::netmon::{netstats_stats, netstats_table, NetworkMonitor};
use pier_apps::snort::{intrusions_stats, intrusions_table, SnortSimulator};
use pier_core::prelude::*;
use pier_simnet::DetRng;

/// Network-wide Snort hits per round (the mix of the paper's Table 1).
const SNORT_HITS_PER_ROUND: u64 = 710_000;

const EVERY: &str = "CONTINUOUS EVERY 5 SECONDS WINDOW 5 SECONDS";

/// The sixteen concurrent continuous aggregates: Figure-1 sums, filtered
/// per-host `GROUP BY`s, Table-1 top-k rankings, and one tumbling window.
fn queries() -> Vec<(String, String)> {
    let mut q = vec![
        (
            "fig1_sum".to_string(),
            format!("SELECT SUM(out_rate) AS total_out FROM netstats {EVERY}"),
        ),
        (
            "fig1_count_in".to_string(),
            format!("SELECT COUNT(*) AS readings, SUM(in_rate) AS total_in FROM netstats {EVERY}"),
        ),
        (
            "fig1_avg_max".to_string(),
            format!(
                "SELECT AVG(out_rate) AS mean_out, MAX(out_rate) AS peak_out FROM netstats {EVERY}"
            ),
        ),
        (
            "fig1_busy".to_string(),
            format!("SELECT SUM(out_rate) AS busy_out FROM netstats WHERE out_rate > 200 {EVERY}"),
        ),
    ];
    for t in [0, 50, 100, 200, 400, 800] {
        q.push((
            format!("per_host_gt{t}"),
            format!(
                "SELECT host, COUNT(*) AS n, SUM(out_rate) AS total_out, MAX(in_rate) AS peak_in \
                 FROM netstats WHERE out_rate > {t} GROUP BY host {EVERY}"
            ),
        ));
    }
    q.push(("table1_top10".to_string(), format!("{} {EVERY}", SnortSimulator::table1_sql())));
    q.push((
        "table1_top5".to_string(),
        format!(
            "SELECT rule_id, description, SUM(hits) AS total_hits FROM intrusions \
             GROUP BY rule_id, description ORDER BY SUM(hits) DESC LIMIT 5 {EVERY}"
        ),
    ));
    q.push((
        "table1_reporters".to_string(),
        format!(
            "SELECT rule_id, COUNT(*) AS reporters, SUM(hits) AS total_hits FROM intrusions \
             WHERE hits > 2 GROUP BY rule_id {EVERY}"
        ),
    ));
    q.push((
        "intrusions_per_host".to_string(),
        format!(
            "SELECT host, COUNT(*) AS rules, SUM(hits) AS total_hits FROM intrusions \
             GROUP BY host {EVERY}"
        ),
    ));
    q.push((
        "netstats_total".to_string(),
        format!(
            "SELECT COUNT(*) AS readings, SUM(out_rate) AS total_out, MIN(in_rate) AS low_in \
             FROM netstats {EVERY}"
        ),
    ));
    q.push((
        "per_host_tumbling3".to_string(),
        "SELECT host, SUM(out_rate) AS total_out, COUNT(*) AS n FROM netstats GROUP BY host \
         WINDOW TUMBLING 3 EPOCHS CONTINUOUS EVERY 5 SECONDS"
            .to_string(),
    ));
    q
}

pub fn scenario(seed: u64, scale: Scale) -> Scenario {
    let nodes = scale.nodes();
    let readings = match scale {
        Scale::Full => 100,
        Scale::Tiny => 10,
    };
    let mut rng = DetRng::new(seed).stream(0x4D41);
    // Heavy-tailed per-host baselines, as on the real testbed.
    let base_out: Vec<f64> = (0..nodes).map(|_| rng.heavy_tail(20.0, 1.3, 2_000.0)).collect();
    let base_in: Vec<f64> = (0..nodes).map(|_| rng.heavy_tail(10.0, 1.3, 1_000.0)).collect();
    let mut snort = SnortSimulator::new(nodes, SNORT_HITS_PER_ROUND, seed);

    let mut timed = Vec::new();
    for r in 0..scale.rounds() {
        let at = mid_round(r);
        for node in 0..nodes {
            let host = Value::str(NetworkMonitor::host_name(node));
            let rows = (0..readings)
                .map(|_| {
                    let out = base_out[node] * (0.5 + rng.unit());
                    let inn = base_in[node] * (0.5 + rng.unit());
                    Tuple::new(vec![
                        host.clone(),
                        quarters((out * 4.0).round() as u64),
                        quarters((inn * 4.0).round() as u64),
                    ])
                })
                .collect();
            timed.push(Timed {
                at,
                action: Action::Publish(Publish {
                    from: node,
                    table: "netstats",
                    rows,
                    routed: false,
                }),
            });
            timed.push(Timed {
                at,
                action: Action::Publish(Publish {
                    from: node,
                    table: "intrusions",
                    rows: snort.node_report(node),
                    routed: false,
                }),
            });
        }
    }

    let continuous = queries()
        .into_iter()
        .enumerate()
        .map(|(i, (label, sql))| Submit { from: (i * 7 + 1) % nodes, sql, label })
        .collect();

    Scenario {
        tables: vec![netstats_table(), intrusions_table()],
        stats: vec![("netstats", netstats_stats(nodes)), ("intrusions", intrusions_stats(nodes))],
        base: Vec::new(),
        continuous,
        timed,
    }
}
