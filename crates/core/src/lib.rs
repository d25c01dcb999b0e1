//! # pier-core — PIER, the Internet-scale relational query processor
//!
//! This crate reproduces the system demonstrated in *"Querying at Internet
//! Scale"* (SIGMOD 2004): **PIER**, a decentralized query processor that uses
//! a Distributed Hash Table both as its communication substrate and as its
//! temporary tuple store.
//!
//! The crate provides, per the paper's description:
//!
//! * a **declarative interface** — a SQL dialect with continuous-query
//!   extensions ([`sql`], [`planner`]);
//! * an **algebraic interface** — queries built directly as a
//!   [`QueryKind`] (selection, aggregation, staged join DAGs, and recursive
//!   expansion) and submitted with [`PierNode::submit`] or
//!   [`PierTestbed::submit_query`], bypassing SQL; the local operators they
//!   run over each node's data live in [`dataflow`];
//! * **multihop, in-network operators** — hierarchical aggregation, symmetric
//!   rehash / Fetch-Matches / Bloom-filter joins, recursive expansion, and
//!   query/result dissemination ([`engine`]);
//! * **continuous queries** re-evaluated every epoch over a window of recent
//!   soft state;
//! * an **observability-and-adaptivity plane** — per-query execution traces
//!   aggregated network-wide by `EXPLAIN ANALYZE` ([`mod@trace`]), gossiped
//!   automatic statistics ([`mod@stats`]), and mid-flight re-planning of
//!   continuous queries when the statistics flip the cost ranking;
//! * a **deployment harness** ([`testbed`]) playing the role of the PlanetLab
//!   testbed, plus a centralized [`mod@reference`] evaluator used as ground truth
//!   in tests.
//!
//! ## Quickstart
//!
//! ```
//! use pier_core::prelude::*;
//!
//! // Boot a 12-node PIER overlay (simulated wide-area network).
//! let mut bed = PierTestbed::quick(12, 42);
//!
//! // Agree on a relation and publish a reading from every node.
//! let def = TableDef::new(
//!     "netstats",
//!     Schema::of(&[("host", DataType::Str), ("out_rate", DataType::Float)]),
//!     "host",
//!     Duration::from_secs(300),
//! );
//! bed.create_table_everywhere(&def);
//! for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
//!     bed.publish_local(addr, "netstats", Tuple::new(vec![
//!         Value::str(format!("host-{i}")),
//!         Value::Float(10.0 * (i as f64 + 1.0)),
//!     ]));
//! }
//! bed.run_for(Duration::from_secs(2));
//!
//! // Ask the network-wide question from any node.
//! let rows = bed
//!     .query_once("SELECT COUNT(*), SUM(out_rate) FROM netstats", Duration::from_secs(10))
//!     .unwrap();
//! assert_eq!(rows[0].get(0), &Value::Int(12));
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod bloom;
pub mod catalog;
pub mod column;
pub mod dataflow;
pub mod encoding;
pub mod engine;
pub mod expr;
pub mod kernel;
pub mod payload;
pub mod plan;
pub mod planner;
pub mod query;
pub mod reference;
pub mod sql;
pub mod stats;
pub mod testbed;
pub mod trace;
pub mod tuple;
pub mod value;

pub use aggregate::{AggFunc, AggState};
pub use bloom::BloomFilter;
pub use catalog::{Catalog, TableDef, TableStats};
pub use column::{Column, ColumnData, ColumnarBatch};
pub use encoding::{ColumnarWire, TupleBlock, WireColumn};
pub use engine::{
    EngineStats, PierConfig, PierError, PierMsg, PierNode, QueryResults, WindowLatePolicy,
};
pub use expr::{BinaryOp, Expr, ScalarFunc, UnaryOp};
pub use kernel::Kernel;
pub use payload::PierPayload;
pub use plan::{AggExpr, LogicalPlan, SortKey};
pub use planner::{Explanation, PlanCache, PlanError, PlannedQuery, Planner};
pub use query::{
    ContinuousSpec, JoinStrategy, QueryId, QueryKind, QuerySpec, ResultRow, WindowSpec,
};
pub use reference::{same_rows, MemoryDb};
pub use stats::{GossipView, NodeStatsEntry, TableSummary};
pub use testbed::{PierTestbed, TestbedConfig};
pub use trace::{render_network_trace, OpTrace};
pub use tuple::{Field, Schema, Tuple};
pub use value::{DataType, Value};

/// Commonly used items, for `use pier_core::prelude::*`.
pub mod prelude {
    pub use crate::catalog::{TableDef, TableStats};
    pub use crate::engine::{PierConfig, PierNode, WindowLatePolicy};
    pub use crate::query::{ContinuousSpec, JoinStrategy, QueryId, QueryKind, WindowSpec};
    pub use crate::testbed::{PierTestbed, TestbedConfig};
    pub use crate::tuple::{Schema, Tuple};
    pub use crate::value::{DataType, Value};
    pub use pier_simnet::{Duration, NodeAddr, SimTime};
}
