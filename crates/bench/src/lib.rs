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

/// One value of a `BENCH_*.json` file.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A count.
    Int(u64),
    /// A ratio, written with three decimals.
    Ratio(f64),
    /// A flag.
    Bool(bool),
    /// A string; double quotes are written as single quotes, so a query's
    /// text needs no escaping.
    Str(String),
    /// A list, written on one line.
    List(Vec<Json>),
    /// An object, written on one line.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    fn render(&self) -> String {
        match self {
            Json::Int(n) => n.to_string(),
            Json::Ratio(r) => format!("{r:.3}"),
            Json::Bool(b) => b.to_string(),
            Json::Str(s) => format!("\"{}\"", s.replace('"', "'")),
            Json::List(items) => {
                let items: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", items.join(", "))
            }
            Json::Object(fields) => {
                let fields: Vec<String> =
                    fields.iter().map(|(k, v)| format!("\"{k}\": {}", v.render())).collect();
                format!("{{{}}}", fields.join(", "))
            }
        }
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as u64)
            }
        }
    )*};
}
json_int!(u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl<T: AsRef<str>> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        Json::List(items.iter().map(|s| s.as_ref().into()).collect())
    }
}

/// Write a ratio bin's `BENCH_*.json`: one object, one top-level field per
/// line, nested values on that field's line.
pub fn write_bench_json(path: &str, fields: Vec<(&'static str, Json)>) {
    let lines: Vec<String> =
        fields.iter().map(|(k, v)| format!("  \"{k}\": {}", v.render())).collect();
    let json = format!("{{\n{}\n}}\n", lines.join(",\n"));
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_layout() {
        let path = std::env::temp_dir().join(format!("bench-json-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let order = ["a", "b"];
        write_bench_json(
            path,
            vec![
                (
                    "workload",
                    Json::Object(vec![("nodes", 40usize.into()), ("query", "x \"y\"".into())]),
                ),
                ("order", order.as_slice().into()),
                ("ratio", Json::Ratio(14.8514)),
                ("identical", true.into()),
            ],
        );
        let written = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(
            written,
            "{\n  \"workload\": {\"nodes\": 40, \"query\": \"x 'y'\"},\n  \"order\": [\"a\", \"b\"],\n  \
             \"ratio\": 14.851,\n  \"identical\": true\n}\n"
        );
    }

    #[test]
    fn thousands_formatting() {
        assert_eq!(fmt_thousands(465770.0), "465,770");
        assert_eq!(fmt_thousands(999.4), "999");
        assert_eq!(fmt_thousands(-12345.0), "-12,345");
        assert_eq!(fmt_thousands(0.0), "0");
    }
}
