//! # pier-bench — experiment harness
//!
//! Binaries that regenerate the evaluation artifacts of the SIGMOD 2004 demo
//! paper (Figure 1 and Table 1) plus the `bench_*` binaries behind the
//! committed `BENCH_*.json` count ratios; see `docs/BENCHMARKS.md` at the
//! repository root.
//!
//! Shared helpers live here so the binaries stay small.

use pier_apps::netmon::netstats_table;
use pier_apps::snort::intrusions_table;
use pier_apps::topology::links_table;
use pier_core::prelude::*;
use pier_core::{Catalog, TableStats};

/// Engine configuration used for the PlanetLab-scale (300 node) experiment
/// runs: fast overlay maintenance so a 300-node ring converges quickly, with
/// aggregation timers generous enough for the deeper combining trees.
pub fn experiment_config() -> PierConfig {
    let mut pier = PierConfig::fast_test();
    pier.dht.stabilize_interval = Duration::from_millis(250);
    pier.dht.fix_finger_interval = Duration::from_millis(100);
    pier.dht.ping_interval = Duration::from_millis(1_000);
    pier.dht.failure_timeout = Duration::from_millis(3_000);
    pier.dht.finger_count = 64;
    pier.dht.successor_list_len = 8;
    pier.holddown = Duration::from_millis(200);
    pier.collect_delay = Duration::from_millis(4_000);
    pier
}

/// Build a monitoring deployment: `nodes` PIER nodes with the `netstats` and
/// `intrusions` tables registered everywhere.  The overlay is given a long
/// warm-up so rings of hundreds of nodes are fully converged before
/// measurements start.
pub fn monitoring_testbed(nodes: usize, seed: u64, pier: PierConfig) -> PierTestbed {
    let warmup = Duration::from_secs(if nodes > 100 { 120 } else { 40 });
    let mut bed =
        PierTestbed::new(TestbedConfig { nodes, seed, pier, warmup, ..Default::default() });
    bed.create_table_everywhere(&netstats_table());
    bed.create_table_everywhere(&intrusions_table());
    bed
}

/// Parameters of the shared skewed monitoring workload over the paper's
/// three application tables (`netstats`, `links`, `intrusions`): every host
/// reports `readings_per_host` traffic readings and two overlay links
/// (successor + finger), and one host in `intrusion_every` files two
/// intrusion reports.  The join benchmarks all run variants of this shape —
/// only the skew knobs differ.
#[derive(Clone, Copy, Debug)]
pub struct SkewedWorkload {
    /// `netstats` readings per host.
    pub readings_per_host: usize,
    /// One host in this many files intrusion reports.
    pub intrusion_every: usize,
}

/// The canonical host name of index `i` in a deployment of `nodes` hosts.
pub fn host(nodes: usize, i: usize) -> String {
    format!("host-{}", i % nodes)
}

/// Generate the skewed workload: `(netstats, links, intrusions)` rows.
pub fn skewed_workload(nodes: usize, w: SkewedWorkload) -> (Vec<Tuple>, Vec<Tuple>, Vec<Tuple>) {
    let mut netstats = Vec::new();
    let mut links = Vec::new();
    let mut intrusions = Vec::new();
    for i in 0..nodes {
        for r in 0..w.readings_per_host {
            netstats.push(Tuple::new(vec![
                Value::str(host(nodes, i)),
                Value::Float(2.0 + (i % 7) as f64 + 0.1 * r as f64),
                Value::Float(1.0),
            ]));
        }
        links.push(Tuple::new(vec![
            Value::str(host(nodes, i)),
            Value::str(host(nodes, i + 1)),
            Value::str("successor"),
        ]));
        links.push(Tuple::new(vec![
            Value::str(host(nodes, i)),
            Value::str(host(nodes, i + 5)),
            Value::str("finger"),
        ]));
        if i % w.intrusion_every.max(1) == 0 {
            for r in 0..2i64 {
                intrusions.push(Tuple::new(vec![
                    Value::str(host(nodes, i)),
                    Value::Int(1400 + r),
                    Value::str(format!("rule-{r}")),
                    Value::Int(2 + r),
                ]));
            }
        }
    }
    (netstats, links, intrusions)
}

/// A catalog with truthful statistics for [`skewed_workload`]: exact row
/// counts, one distinct partition key per host (and per reporting host for
/// `intrusions`).
pub fn skewed_catalog(nodes: usize, w: SkewedWorkload) -> Catalog {
    let (netstats, links, intrusions) = skewed_workload(nodes, w);
    let mut cat = Catalog::new();
    cat.register(netstats_table());
    cat.register(links_table());
    cat.register(intrusions_table());
    cat.set_stats(
        "netstats",
        TableStats::with_rows(netstats.len() as u64).distinct_keys(nodes as u64),
    );
    cat.set_stats("links", TableStats::with_rows(links.len() as u64).distinct_keys(nodes as u64));
    cat.set_stats(
        "intrusions",
        TableStats::with_rows(intrusions.len() as u64)
            .distinct_keys((nodes / w.intrusion_every.max(1)).max(1) as u64),
    );
    cat
}

/// Parse an environment knob, falling back to `default` when the variable
/// is unset or malformed (shared by every benchmark binary).
pub fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Format a floating point number with thousands separators (table output).
pub fn fmt_thousands(v: f64) -> String {
    let int = v.round() as i64;
    let mut s = int.abs().to_string();
    let mut out = String::new();
    while s.len() > 3 {
        let rest = s.split_off(s.len() - 3);
        out = format!(",{rest}{out}");
    }
    format!("{}{}{}", if int < 0 { "-" } else { "" }, s, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(fmt_thousands(465770.0), "465,770");
        assert_eq!(fmt_thousands(999.4), "999");
        assert_eq!(fmt_thousands(-12345.0), "-12,345");
        assert_eq!(fmt_thousands(0.0), "0");
    }
}
