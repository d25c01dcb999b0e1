//! `skewed_join`: the shared skewed `netstats ⋈ links ⋈ intrusions`
//! workload as continuous 3-way joins plus its `GROUP BY`
//! aggregate-over-join.  Every host publishes fresh rows of all three
//! tables through the DHT each epoch.  Rehash routing, join build/probe,
//! Bloom handshakes and batch encoding do the work; scans are small.

use super::{mid_round, quarters, Action, Publish, Scale, Scenario, Submit, Timed};
use pier_apps::netmon::netstats_table;
use pier_apps::snort::intrusions_table;
use pier_apps::topology::links_table;
use pier_bench::{host, skewed_catalog, skewed_workload, SkewedWorkload};
use pier_core::prelude::*;
use pier_simnet::DetRng;

const WORKLOAD: SkewedWorkload = SkewedWorkload { readings_per_host: 6, intrusion_every: 4 };

const EVERY: &str = "CONTINUOUS EVERY 5 SECONDS WINDOW 5 SECONDS";

/// Ten streaming joins and six aggregates over the same join, with
/// different `out_rate` cut-offs so no two queries are the same.  Streaming
/// answers outnumber aggregate ones, so the median answer is a streamed one
/// and the 95th percentile an aggregate.
fn queries() -> Vec<(String, String)> {
    let join = |t: &str| {
        format!(
            "SELECT i.host, i.rule_id, l.src, n.out_rate FROM netstats n \
             JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
             WHERE n.out_rate > {t} {EVERY}"
        )
    };
    let agg = |f: &str, t: &str| {
        format!(
            "SELECT i.host, COUNT(*) AS n, {f}(n.out_rate) AS v FROM netstats n \
             JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
             WHERE n.out_rate > {t} GROUP BY i.host {EVERY}"
        )
    };
    let mut q = Vec::new();
    for t in ["0", "2.5", "3", "4", "5", "6", "7", "8", "9", "10"] {
        q.push((format!("join_gt{t}"), join(t)));
    }
    for t in ["0", "4", "8"] {
        q.push((format!("agg_sum_gt{t}"), agg("SUM", t)));
        q.push((format!("agg_max_gt{t}"), agg("MAX", t)));
    }
    q
}

pub fn scenario(seed: u64, scale: Scale) -> Scenario {
    let nodes = scale.nodes();
    let (netstats, links, intrusions) = skewed_workload(nodes, WORKLOAD);
    let catalog = skewed_catalog(nodes, WORKLOAD);
    let stats = ["netstats", "links", "intrusions"]
        .into_iter()
        .map(|t| (t, catalog.stats(t).expect("skewed catalog has statistics")))
        .collect();
    let mut rng = DetRng::new(seed).stream(0x534A);

    let mut timed = Vec::new();
    let publish = |timed: &mut Vec<Timed>, at, from, table, rows: Vec<Tuple>| {
        timed.push(Timed {
            at,
            action: Action::Publish(Publish { from, table, rows, routed: true }),
        });
    };
    let per_host = WORKLOAD.readings_per_host;
    for r in 0..scale.rounds() {
        let at = mid_round(r);
        // Which hosts report intrusions rotates by a seeded offset each
        // round; the one-in-`intrusion_every` skew stays.
        let shift = rng.index(nodes);
        for i in 0..nodes {
            let readings = netstats[per_host * i..per_host * (i + 1)]
                .iter()
                .map(|t| {
                    let mut v = t.values().to_vec();
                    v[1] = quarters(8 + rng.range_u64(0, 40));
                    Tuple::new(v)
                })
                .collect();
            publish(&mut timed, at, i, "netstats", readings);
            publish(&mut timed, at, i, "links", links[2 * i..2 * (i + 1)].to_vec());
        }
        let mut by_host: Vec<Vec<Tuple>> = vec![Vec::new(); nodes];
        for t in &intrusions {
            let i = (host_index(t.get(0)) + shift) % nodes;
            let mut v = t.values().to_vec();
            v[0] = Value::str(host(nodes, i));
            by_host[i].push(Tuple::new(v));
        }
        for (i, rows) in by_host.into_iter().enumerate().filter(|(_, r)| !r.is_empty()) {
            publish(&mut timed, at, i, "intrusions", rows);
        }
    }

    let continuous = queries()
        .into_iter()
        .enumerate()
        .map(|(i, (label, sql))| Submit { from: (i * 7 + 3) % nodes, sql, label })
        .collect();

    Scenario {
        tables: vec![netstats_table(), links_table(), intrusions_table()],
        stats,
        base: Vec::new(),
        continuous,
        timed,
    }
}

/// The index `i` of a `host-{i}` name.
fn host_index(v: &Value) -> usize {
    v.as_str()
        .and_then(|s| s.strip_prefix("host-"))
        .and_then(|s| s.parse().ok())
        .expect("skewed workload host names are host-<i>")
}
