//! The three workloads.  Each one is a [`Scenario`]: its tables, the data
//! loaded before the clock starts, the continuous queries installed in
//! set-up, and an open-loop schedule of publications and one-shot searches
//! laid out in simulated time.  Everything is generated from the seed; the
//! program under test only ever sees the generated inputs.

use pier_core::prelude::*;
use pier_core::TableStats;

mod fileshare_search;
mod monitor_agg;
mod skewed_join;

/// Length of one epoch of every continuous query and of one publication
/// round of every workload (the queries' `CONTINUOUS EVERY 5 SECONDS`).
pub fn period() -> Duration {
    Duration::from_secs(5)
}

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 1 plus Table 1: many concurrent continuous aggregates over
    /// locally stored monitoring data.
    MonitorAgg,
    /// The shared skewed 3-way continuous join plus its aggregate-over-join.
    SkewedJoin,
    /// Keyword search over a file corpus, with writes beside the reads.
    FileshareSearch,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] =
        [Workload::MonitorAgg, Workload::SkewedJoin, Workload::FileshareSearch];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MonitorAgg => "monitor_agg",
            Workload::SkewedJoin => "skewed_join",
            Workload::FileshareSearch => "fileshare_search",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate the workload's scenario for a seed.
    pub fn scenario(self, seed: u64, scale: Scale) -> Scenario {
        match self {
            Workload::MonitorAgg => monitor_agg::scenario(seed, scale),
            Workload::SkewedJoin => skewed_join::scenario(seed, scale),
            Workload::FileshareSearch => fileshare_search::scenario(seed, scale),
        }
    }
}

/// How big a deployment to generate.  `Full` is what the benchmark
/// measures; `Tiny` is a seconds-long configuration for the benchmark's own
/// tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// About 120 nodes, sized for at least 200 answers per run.
    Full,
    /// A handful of nodes and epochs.
    Tiny,
}

impl Scale {
    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    /// Nodes in the deployment.
    pub fn nodes(self) -> usize {
        match self {
            Scale::Full => 120,
            Scale::Tiny => 16,
        }
    }

    /// Publication rounds (epochs) in the timed phase.
    pub fn rounds(self) -> u64 {
        match self {
            Scale::Full => 15,
            Scale::Tiny => 3,
        }
    }

    /// Virtual warm-up before the overlay counts as stable.
    pub fn warmup(self) -> Duration {
        match self {
            Scale::Full => Duration::from_secs(120),
            Scale::Tiny => Duration::from_secs(30),
        }
    }
}

/// Rows of one table published from one node in one call.
#[derive(Clone, Debug)]
pub struct Publish {
    /// Index of the publishing node.
    pub from: usize,
    /// Target table.
    pub table: &'static str,
    /// The rows.
    pub rows: Vec<Tuple>,
    /// Routed through the DHT (`publish_batch`) or stored at the publishing
    /// node itself (`publish_local`, monitoring data about that node).
    pub routed: bool,
}

/// A SQL query submitted from one node.
#[derive(Clone, Debug)]
pub struct Submit {
    /// Index of the origin node.
    pub from: usize,
    /// Query text.
    pub sql: String,
    /// Short name used when listing failing answers.
    pub label: String,
}

/// One step of the timed schedule.
#[derive(Clone, Debug)]
pub enum Action {
    /// Publish rows.
    Publish(Publish),
    /// Submit a one-shot search.
    Search(Submit),
}

/// An action due at an offset from the start of the timed phase.
#[derive(Clone, Debug)]
pub struct Timed {
    /// Offset from the start of the timed phase.
    pub at: Duration,
    /// What happens.
    pub action: Action,
}

/// A generated workload instance.  Its deployment has `Scale::nodes()`
/// nodes running `pier_bench::experiment_config()`, and its timed phase
/// `Scale::rounds()` publication rounds.
pub struct Scenario {
    /// Tables registered on every node.
    pub tables: Vec<TableDef>,
    /// Cardinality hints installed on every node.
    pub stats: Vec<(&'static str, TableStats)>,
    /// Data loaded during set-up.
    pub base: Vec<Publish>,
    /// Continuous queries installed during set-up.
    pub continuous: Vec<Submit>,
    /// The open-loop schedule, sorted by offset.
    pub timed: Vec<Timed>,
}

/// Offset of the middle of round `r`: publications land mid-epoch, so every
/// row belongs to exactly one epoch's scan window.
pub fn mid_round(r: u64) -> Duration {
    let p = period().as_micros();
    Duration::from_micros(r * p + p / 2)
}

/// A float that is a multiple of 1/4, so sums are exact in any order and
/// in-network partial sums equal the reference bit for bit.
pub fn quarters(q: u64) -> Value {
    Value::Float(q as f64 * 0.25)
}
