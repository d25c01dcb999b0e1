//! Distributed query specifications.
//!
//! A [`QuerySpec`] is what PIER disseminates to every node when a query is
//! submitted: a self-contained description of the work each node performs
//! against its local data and of how partial results flow back (directly to
//! the origin, up an aggregation tree, or through rehash/fetch/Bloom join
//! sites).  It is the "physical plan" of the system.

use crate::expr::Expr;
use crate::plan::{AggExpr, SortKey};
use crate::value::Value;
use pier_simnet::{Duration, NodeAddr, WireSize};
use std::fmt;

/// Globally unique query identifier: origin address in the high bits, a
/// per-origin sequence number in the low bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl QueryId {
    /// Compose an id from the origin node and a local sequence number.
    pub fn new(origin: NodeAddr, seq: u32) -> Self {
        QueryId(((origin.0 as u64) << 32) | seq as u64)
    }

    /// The node that submitted the query.
    pub fn origin(&self) -> NodeAddr {
        NodeAddr((self.0 >> 32) as u32)
    }

    /// The per-origin sequence number.
    pub fn seq(&self) -> u32 {
        self.0 as u32
    }
}

impl fmt::Debug for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}.{}", self.origin().0, self.seq())
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}.{}", self.origin().0, self.seq())
    }
}

/// How a continuous query is re-evaluated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContinuousSpec {
    /// Time between successive evaluations (epochs).
    pub period: Duration,
    /// Only tuples stored within this window before the evaluation are
    /// considered.
    pub window: Duration,
}

impl ContinuousSpec {
    /// A spec evaluating every `period` over a window of the same length.
    pub fn every(period: Duration) -> Self {
        ContinuousSpec { period, window: period }
    }
}

/// An epoch-count window over a continuous aggregate (`WINDOW TUMBLING n
/// EPOCHS` / `WINDOW SLIDING n SLIDE m`): results are emitted once per
/// *window* of `size` consecutive epochs instead of once per epoch, and each
/// epoch's data is scanned exactly once (the per-epoch delta) rather than
/// rescanned for as long as it stays in a time window.
///
/// Window `w` covers the half-open epoch range `[w * slide, w * slide +
/// size)`.  Window ids derive from the absolute epoch number (which itself
/// derives from absolute virtual time), so every node — and a mid-flight
/// re-planned spec — agrees on the boundaries without coordination.
///
/// ```
/// use pier_core::query::WindowSpec;
/// let w = WindowSpec::sliding(4, 2);
/// assert_eq!(w.windows_of(5), vec![1, 2]);   // epochs 2..6 and 4..8
/// assert_eq!(w.closing_epoch(2), 7);         // window 2 = epochs 4..8
/// assert!(WindowSpec::tumbling(4).is_tumbling());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window width, in epochs (≥ 1).
    pub size: u32,
    /// Epochs between consecutive window starts (1 ≤ `slide` ≤ `size`;
    /// `slide == size` is a tumbling window).
    pub slide: u32,
}

impl WindowSpec {
    /// A tumbling window: consecutive, non-overlapping spans of `size` epochs.
    pub fn tumbling(size: u32) -> Self {
        let size = size.max(1);
        WindowSpec { size, slide: size }
    }

    /// A sliding window of `size` epochs advancing by `slide` epochs.
    pub fn sliding(size: u32, slide: u32) -> Self {
        let size = size.max(1);
        WindowSpec { size, slide: slide.clamp(1, size) }
    }

    /// Tumbling ⇔ the slide equals the window size.
    pub fn is_tumbling(&self) -> bool {
        self.slide == self.size
    }

    /// First epoch covered by window `w`.
    pub fn start_epoch(&self, w: u64) -> u64 {
        w * self.slide as u64
    }

    /// The epoch whose completion closes window `w` (its last covered epoch).
    pub fn closing_epoch(&self, w: u64) -> u64 {
        self.start_epoch(w) + self.size as u64 - 1
    }

    /// All window ids covering `epoch`, ascending (one for tumbling, up to
    /// `size / slide` for sliding windows).
    pub fn windows_of(&self, epoch: u64) -> Vec<u64> {
        let slide = self.slide as u64;
        let last = epoch / slide;
        let first = (epoch + 1).saturating_sub(self.size as u64).div_ceil(slide);
        (first..=last).collect()
    }
}

/// Distributed join strategies PIER implements (the paper's "multihop,
/// in-network versions of joins").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Symmetric rehash join: both relations are rehashed on the join key into
    /// a query-scoped namespace; the responsible node for each key value
    /// produces matches as tuples arrive from either side.
    SymmetricHash,
    /// Fetch-matches join: only the left relation is scanned; for each left
    /// tuple the right relation (already partitioned on the join key) is
    /// probed with a DHT `get`.
    FetchMatches,
    /// Bloom-filter semi-join: nodes first publish Bloom filters of their left
    /// join keys; the origin ORs them and re-broadcasts the summary, and only
    /// right tuples passing the filter are rehashed.
    BloomFilter,
}

/// A fresh base-table scan driving a join stage's left side (the root of a
/// bushy subchain).  Stage 0's driving scan is described at the
/// [`QueryKind::Join`] level; any later stage carrying a `BranchScan` starts
/// a second, independent chain whose tuples flow through the stage DAG until
/// an [`JoinStage::out_to`] edge merges them with the other chain.
#[derive(Clone, Debug, PartialEq)]
pub struct BranchScan {
    /// The base table this subchain scans.
    pub table: String,
    /// Pushed-down predicate over the table's schema, applied before
    /// shipping (the optimizer's predicate pushdown, same as `left_filter`).
    pub filter: Option<Expr>,
}

/// One stage of a staged multi-way join: the accumulated intermediate
/// relation (or, for stage 0, the driving base table) joined against
/// `right_table`, producing either the next intermediate (rehashed by the
/// next stage's key into that stage's DHT namespace — PIER's multihop joins
/// composed) or, at the last stage, the query's projected output.
///
/// Stages form a **DAG**, not just a chain: a stage with a
/// [`BranchScan`](JoinStage::left_scan) roots an independent subchain, and
/// [`out_to`](JoinStage::out_to) routes a stage's output to an explicit
/// (stage, side) instead of the implicit next stage's left side — which is
/// how a bushy plan's two subchains run concurrently and meet at a
/// rehash-merge stage.
///
/// Column spaces: the stage's *left input schema* is the driving table's
/// base schema for stage 0 and the previous stage's `out_cols` output
/// otherwise.  `left_key` is evaluated over that schema; `left_ship_cols`
/// narrows it before shipping (full for Fetch-Matches stages, whose left
/// tuples never leave the probing node).  `right_key` / `right_filter` are
/// over `right_table`'s base schema; `right_ship_cols` narrows shipped (or
/// probed) right tuples.  `post_filter`, `out_cols` and — at the final stage
/// — [`QueryKind::Join`]'s `project` are over the *stage concat schema*:
/// `left_ship_cols ++ right_ship_cols`.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinStage {
    /// The base table joined in at this stage.
    pub right_table: String,
    /// Join key over the stage's left input schema.
    pub left_key: Expr,
    /// Join key over `right_table`'s base schema.
    pub right_key: Expr,
    /// Pushed-down predicate over `right_table`'s base schema, applied
    /// before its tuples are shipped or probed.
    pub right_filter: Option<Expr>,
    /// Residual predicate over the stage concat schema (conjuncts that need
    /// columns of both sides, e.g. a second equi-predicate between the same
    /// relations).
    pub post_filter: Option<Expr>,
    /// Columns of the left input shipped to the join site.
    pub left_ship_cols: Vec<usize>,
    /// Columns of `right_table` shipped to the join site (or read from
    /// probed tuples).
    pub right_ship_cols: Vec<usize>,
    /// Columns of the stage concat schema forming the stage's output — the
    /// intermediate handed to the next stage.  Empty for the final stage,
    /// whose output goes through the query-level projection instead.
    pub out_cols: Vec<usize>,
    /// Which join algorithm this stage runs.
    pub strategy: JoinStrategy,
    /// Inner-stage Bloom semi-join (stages ≥ 1, `SymmetricHash` only): the
    /// join sites accumulating this stage's left intermediates publish a
    /// Bloom summary of the arrived keys, and `right_table`'s scan sites
    /// filter their rehash shipments through the combined summary before
    /// the wire.  A lost summary degrades to an unfiltered rehash after a
    /// hold-down deadline — never wrong results, only more traffic.  This
    /// mark is the only switch: a spec with it cleared rehashes the stage's
    /// right side eagerly and unfiltered.
    pub inner_bloom: bool,
    /// Planner-sized Bloom filter in bits for this stage's summary (stage-0
    /// `BloomFilter` strategy or `inner_bloom`), derived from the estimated
    /// left-key population.  The engine clamps it to
    /// `[PierConfig::bloom_bits_min, PierConfig::bloom_bits_max]`; all nodes
    /// derive the same geometry from this disseminated value, so summaries
    /// union cleanly.
    pub bloom_bits: u32,
    /// When set, this stage's left side is a fresh base-table scan (the root
    /// of a bushy subchain) instead of the previous stage's output;
    /// `left_key` and `left_ship_cols` are then over the scanned table's
    /// base schema, exactly as stage 0's are over the driving table.
    pub left_scan: Option<BranchScan>,
    /// Explicit routing of this stage's `out_cols` output: `(stage, side)`
    /// it is rehashed to.  `None` keeps the chain default — the next stage's
    /// left side (side 0) — with the last stage producing the query output.
    /// A bushy merge stage receives one subchain on side 0 and the other on
    /// side 1; its `right_key` / `right_ship_cols` are then over the feeding
    /// subchain's output schema rather than a base table.
    pub out_to: Option<(u8, u8)>,
}

impl JoinStage {
    /// A plain chain stage with no DAG edges (the pre-bushy constructor
    /// shape; tests and manual specs build stages through this).
    #[allow(clippy::too_many_arguments)]
    pub fn chain(
        right_table: impl Into<String>,
        left_key: Expr,
        right_key: Expr,
        strategy: JoinStrategy,
    ) -> Self {
        JoinStage {
            right_table: right_table.into(),
            left_key,
            right_key,
            right_filter: None,
            post_filter: None,
            left_ship_cols: Vec::new(),
            right_ship_cols: Vec::new(),
            out_cols: Vec::new(),
            strategy,
            inner_bloom: false,
            bloom_bits: 0,
            left_scan: None,
            out_to: None,
        }
    }
}

/// Grouped (or global) aggregation terminating a staged join: the final
/// stage's matched rows feed the hierarchical aggregation plane instead of
/// streaming raw to the origin.
///
/// Column spaces: `group_exprs` and each aggregate's argument are over the
/// **final stage's concat schema** (`left_ship_cols ++ right_ship_cols` of
/// the last [`JoinStage`]).  `having`, [`QueryKind::Join`]'s `order_by`, and
/// `final_project` are over the *aggregate output* schema (group columns
/// then aggregate columns, hidden aggregates included).
#[derive(Clone, Debug, PartialEq)]
pub struct JoinAggregate {
    /// Grouping expressions over the final stage's concat schema.
    pub group_exprs: Vec<Expr>,
    /// Aggregates over the final stage's concat schema (select-list plus
    /// hidden ones appended for `HAVING` / `ORDER BY`).
    pub aggs: Vec<AggExpr>,
    /// `HAVING` predicate over the aggregate output, applied where the
    /// groups are finalized: the origin, which is the root of a
    /// hierarchical aggregate and aggregates raw rows otherwise.
    pub having: Option<Expr>,
    /// Final projection over the aggregate output, mapping to the client's
    /// column order.
    pub final_project: Vec<usize>,
    /// `true`: every node partially aggregates its final-stage matches per
    /// (query, epoch) and the partials combine in-network over the DHT
    /// toward the origin (PIER's in-network aggregation composed
    /// over the join).  `false`: the final stage streams its raw matched
    /// rows to the origin, which performs the whole GROUP BY — the baseline
    /// the optimizer costs against (and benchmarks measure).
    pub hierarchical: bool,
    /// Epoch-count window over a continuous query: groups finalize once per
    /// window of epochs instead of once per epoch.  Forces `hierarchical`
    /// (the root is where per-epoch states are retained and merged).
    pub window: Option<WindowSpec>,
    /// Aggregate-aware stage keys: `true` when the grouping column *is* the
    /// final stage's join key, so every row of a group already lives at one
    /// join site (the DHT partitioned matches by that very value), and the
    /// climb up the aggregation tree is skipped: each join site ships its
    /// groups one direct hop to the origin, every aggregate's root.
    pub colocated: bool,
}

/// The per-node work of a query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryKind {
    /// Scan + filter + project; qualifying rows stream to the origin, which
    /// applies an optional sort/limit.
    Select {
        /// Table to scan.
        table: String,
        /// Predicate over the table schema.
        filter: Option<Expr>,
        /// Projection expressions over the table schema.
        project: Vec<Expr>,
        /// Sort keys over the projected output (applied at the origin).
        order_by: Vec<SortKey>,
        /// Row limit (applied at the origin).
        limit: Option<usize>,
    },
    /// Grouped (or global) aggregation with hierarchical in-network combining.
    Aggregate {
        /// Table to scan.
        table: String,
        /// Predicate over the table schema.
        filter: Option<Expr>,
        /// Grouping expressions over the table schema.
        group_exprs: Vec<Expr>,
        /// Aggregates over the table schema.
        aggs: Vec<AggExpr>,
        /// `HAVING` predicate over the aggregate output (groups ++ aggs).
        having: Option<Expr>,
        /// Sort keys over the aggregate output (origin-side).
        order_by: Vec<SortKey>,
        /// Row limit (origin-side top-k).
        limit: Option<usize>,
        /// Final projection over the aggregate output, mapping to the client's
        /// column order.
        final_project: Vec<usize>,
        /// Epoch-count window over a continuous query: the aggregation root
        /// retains each epoch's merged states and emits one result set per
        /// *window* (keyed by window id in [`ResultRow::epoch`]) when the
        /// watermark passes the window's closing epoch.
        window: Option<WindowSpec>,
    },
    /// Distributed equi-join of two or more tables, executed as a chain of
    /// [`JoinStage`]s in the optimizer's chosen join order (one stage for a
    /// classic two-way join).
    Join {
        /// The driving (leftmost) table of the chosen join order.
        left_table: String,
        /// Predicate over the driving table's schema, applied at each node
        /// before its tuples are shipped (the optimizer's predicate
        /// pushdown).
        left_filter: Option<Expr>,
        /// The join stages, in execution order (at least one).
        stages: Vec<JoinStage>,
        /// Projection over the final stage's concat schema.  With an
        /// `aggregate`, this is the identity over the concat schema (used
        /// only by the raw-row streaming baseline).
        project: Vec<Expr>,
        /// Grouped aggregation over the final stage's output, when the query
        /// is a `GROUP BY` over the join.
        aggregate: Option<JoinAggregate>,
        /// Sort keys over the projected output (origin-side); with an
        /// `aggregate`, over the aggregate output schema.
        order_by: Vec<SortKey>,
        /// Row limit (origin-side).
        limit: Option<usize>,
    },
    /// Recursive reachability over an edge relation (the paper's "network
    /// topology analysis and routing using recursive queries").  Starting from
    /// `source`, repeatedly follows edges `src -> dst`, streaming each newly
    /// reached vertex (with its depth) to the origin.
    Recursive {
        /// Edge table, partitioned by the source column.
        edges_table: String,
        /// Index of the source column in the edge schema.
        src_col: usize,
        /// Index of the destination column in the edge schema.
        dst_col: usize,
        /// The start vertex.
        source: Value,
        /// Maximum expansion depth (safety bound).
        max_depth: u32,
    },
}

impl QueryKind {
    /// The table whose local scan seeds this query on every node.
    pub fn primary_table(&self) -> &str {
        match self {
            QueryKind::Select { table, .. } | QueryKind::Aggregate { table, .. } => table,
            QueryKind::Join { left_table, .. } => left_table,
            QueryKind::Recursive { edges_table, .. } => edges_table,
        }
    }

    /// Is this an aggregation query (single-table, or an aggregate
    /// terminating a join)?
    pub fn is_aggregate(&self) -> bool {
        matches!(self, QueryKind::Aggregate { .. })
            || matches!(self, QueryKind::Join { aggregate: Some(_), .. })
    }

    /// The join stages, for join queries.
    pub fn join_stages(&self) -> Option<&[JoinStage]> {
        match self {
            QueryKind::Join { stages, .. } => Some(stages),
            _ => None,
        }
    }

    /// The aggregate terminating a join, if any.
    pub fn join_aggregate(&self) -> Option<&JoinAggregate> {
        match self {
            QueryKind::Join { aggregate, .. } => aggregate.as_ref(),
            _ => None,
        }
    }

    /// The epoch-count window of a windowed continuous aggregate, for both
    /// aggregation shapes.
    pub fn window_spec(&self) -> Option<WindowSpec> {
        match self {
            QueryKind::Aggregate { window, .. } => *window,
            QueryKind::Join { aggregate: Some(agg), .. } => agg.window,
            _ => None,
        }
    }

    /// The finishing steps of either aggregation shape (`Aggregate`, and
    /// `Join` with an aggregate): what the node that finalizes the groups
    /// applies, and how the origin maps the output to the client's columns.
    pub fn agg_finish(&self) -> Option<AggFinish<'_>> {
        match self {
            QueryKind::Aggregate {
                group_exprs, having, order_by, limit, final_project, ..
            } => Some(AggFinish {
                group_width: group_exprs.len(),
                having: having.as_ref(),
                order_by,
                limit: *limit,
                final_project,
            }),
            QueryKind::Join { aggregate: Some(agg), order_by, limit, .. } => Some(AggFinish {
                group_width: agg.group_exprs.len(),
                having: agg.having.as_ref(),
                order_by,
                limit: *limit,
                final_project: &agg.final_project,
            }),
            _ => None,
        }
    }

    /// The grouping and aggregate expressions this query's partial-aggregate
    /// plane combines, for both aggregation shapes (`Aggregate`, and `Join`
    /// with a hierarchical aggregate).
    pub fn partial_agg_parts(&self) -> Option<(&[Expr], &[AggExpr])> {
        match self {
            QueryKind::Aggregate { group_exprs, aggs, .. } => {
                Some((group_exprs.as_slice(), aggs.as_slice()))
            }
            QueryKind::Join { aggregate: Some(agg), .. } if agg.hierarchical => {
                Some((agg.group_exprs.as_slice(), agg.aggs.as_slice()))
            }
            _ => None,
        }
    }

    /// All tables this query reads, in join order (single-element for
    /// non-join queries).  Subchain roots contribute their scanned table; a
    /// merge stage's `right_table` is skipped when another stage feeds its
    /// right side (nothing scans it there).
    pub fn tables(&self) -> Vec<&str> {
        match self {
            QueryKind::Join { left_table, stages, .. } => {
                let mut t = vec![left_table.as_str()];
                for (k, s) in stages.iter().enumerate() {
                    if let Some(b) = &s.left_scan {
                        t.push(b.table.as_str());
                    }
                    if !join_side_fed(stages, k as u8, 1) {
                        t.push(s.right_table.as_str());
                    }
                }
                t
            }
            other => vec![other.primary_table()],
        }
    }
}

/// The finishing steps shared by both aggregation shapes, over the
/// aggregate output schema (group columns, then aggregates, hidden ones
/// included); see [`QueryKind::agg_finish`].
#[derive(Clone, Copy, Debug)]
pub struct AggFinish<'a> {
    /// Number of leading group columns in the aggregate output.
    pub group_width: usize,
    /// `HAVING` predicate.
    pub having: Option<&'a Expr>,
    /// Sort keys.
    pub order_by: &'a [SortKey],
    /// Row limit.
    pub limit: Option<usize>,
    /// Final projection to the client's column order.
    pub final_project: &'a [usize],
}

/// Does some stage's output feed `(stage, side)` of the join DAG?  Side 0 of
/// stage `k > 0` is implicitly fed by stage `k - 1` unless that stage routes
/// elsewhere or stage `k` roots a subchain; side 1 is fed only through an
/// explicit [`JoinStage::out_to`] edge (it is a base-table scan otherwise).
pub fn join_side_fed(stages: &[JoinStage], stage: u8, side: u8) -> bool {
    stages.iter().enumerate().any(|(j, s)| {
        let target = match s.out_to {
            Some(t) => Some(t),
            // Implicit chain edge: a non-final stage defaults to the next
            // stage's left side.
            None if j + 1 < stages.len() => Some((j as u8 + 1, 0)),
            None => None,
        };
        target == Some((stage, side))
    }) && !(side == 0 && stages[stage as usize].left_scan.is_some())
}

/// A complete distributed query: identity, work description, output naming,
/// and continuous-execution settings.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    /// Unique id (also identifies the origin node).
    pub id: QueryId,
    /// Per-node work.
    pub kind: QueryKind,
    /// Client-visible output column names.
    pub output_names: Vec<String>,
    /// Continuous execution settings (`None` = one-shot snapshot query).
    pub continuous: Option<ContinuousSpec>,
}

impl QuerySpec {
    /// The node that submitted this query and receives its results.
    pub fn origin(&self) -> NodeAddr {
        self.id.origin()
    }

    /// Is this a continuous query?
    pub fn is_continuous(&self) -> bool {
        self.continuous.is_some()
    }
}

impl WireSize for QuerySpec {
    fn wire_size(&self) -> usize {
        // Plans are small (tens to a couple hundred bytes); an estimate based
        // on the expression count is plenty for bandwidth accounting.
        let kind = match &self.kind {
            QueryKind::Select { filter, project, .. } => {
                filter.as_ref().map(|f| f.wire_size()).unwrap_or(0)
                    + project.iter().map(|e| e.wire_size()).sum::<usize>()
            }
            QueryKind::Aggregate { filter, group_exprs, aggs, having, window, .. } => {
                filter.as_ref().map(|f| f.wire_size()).unwrap_or(0)
                    + group_exprs.iter().map(|e| e.wire_size()).sum::<usize>()
                    + aggs
                        .iter()
                        .map(|a| a.arg.as_ref().map(|e| e.wire_size()).unwrap_or(1) + 8)
                        .sum::<usize>()
                    + having.as_ref().map(|f| f.wire_size()).unwrap_or(0)
                    + if window.is_some() { 8 } else { 1 }
            }
            QueryKind::Join { left_filter, stages, project, aggregate, .. } => {
                left_filter.as_ref().map(|f| f.wire_size()).unwrap_or(0)
                    + project.iter().map(|e| e.wire_size()).sum::<usize>()
                    + aggregate
                        .as_ref()
                        .map(|a| {
                            a.group_exprs.iter().map(|e| e.wire_size()).sum::<usize>()
                                + a.aggs
                                    .iter()
                                    .map(|x| x.arg.as_ref().map(|e| e.wire_size()).unwrap_or(1) + 8)
                                    .sum::<usize>()
                                + a.having.as_ref().map(|h| h.wire_size()).unwrap_or(0)
                                + a.final_project.len()
                                + if a.window.is_some() { 8 } else { 1 }
                                + 2
                        })
                        .unwrap_or(0)
                    + stages
                        .iter()
                        .map(|s| {
                            s.right_table.len()
                                + s.left_ship_cols.len()
                                + s.right_ship_cols.len()
                                + s.out_cols.len()
                                + s.left_key.wire_size()
                                + s.right_key.wire_size()
                                + s.right_filter.as_ref().map(|f| f.wire_size()).unwrap_or(0)
                                + s.post_filter.as_ref().map(|f| f.wire_size()).unwrap_or(0)
                                + 1
                                // strategy flag + inner_bloom + bloom_bits
                                + 5
                                // DAG edges: out_to tag + (stage, side), and
                                // the subchain scan when present
                                + 3
                                + s.left_scan
                                    .as_ref()
                                    .map(|b| {
                                        b.table.len()
                                            + 1
                                            + b.filter
                                                .as_ref()
                                                .map(|f| f.wire_size())
                                                .unwrap_or(0)
                                    })
                                    .unwrap_or(1)
                        })
                        .sum::<usize>()
            }
            QueryKind::Recursive { source, .. } => 16 + source.wire_size(),
        };
        8 + 16
            + self.output_names.iter().map(|n| n.len() + 2).sum::<usize>()
            + kind
            + if self.continuous.is_some() { 16 } else { 1 }
    }
}

/// One output row delivered to the client.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRow {
    /// Which query produced it.
    pub query: QueryId,
    /// Which epoch of a continuous query (0 for one-shot queries).
    pub epoch: u64,
    /// The row.
    pub tuple: crate::tuple::Tuple,
}

impl WireSize for ResultRow {
    fn wire_size(&self) -> usize {
        8 + 8 + self.tuple.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_id_round_trips() {
        let id = QueryId::new(NodeAddr(42), 7);
        assert_eq!(id.origin(), NodeAddr(42));
        assert_eq!(id.seq(), 7);
        assert_eq!(format!("{id}"), "q42.7");
        assert_eq!(format!("{id:?}"), "q42.7");
        let other = QueryId::new(NodeAddr(42), 8);
        assert_ne!(id, other);
    }

    #[test]
    fn continuous_spec_every() {
        let c = ContinuousSpec::every(Duration::from_secs(5));
        assert_eq!(c.period, Duration::from_secs(5));
        assert_eq!(c.window, Duration::from_secs(5));
    }

    #[test]
    fn window_spec_geometry() {
        let t = WindowSpec::tumbling(4);
        assert!(t.is_tumbling());
        assert_eq!(t.windows_of(0), vec![0]);
        assert_eq!(t.windows_of(3), vec![0]);
        assert_eq!(t.windows_of(4), vec![1]);
        assert_eq!(t.start_epoch(2), 8);
        assert_eq!(t.closing_epoch(2), 11);

        let s = WindowSpec::sliding(8, 2);
        assert!(!s.is_tumbling());
        // Epoch 9 is covered by windows starting at epochs 2, 4, 6, 8.
        assert_eq!(s.windows_of(9), vec![1, 2, 3, 4]);
        assert_eq!(s.closing_epoch(1), 9);
        // Early epochs are covered by fewer windows (none start below 0).
        assert_eq!(s.windows_of(1), vec![0]);

        // Degenerate inputs are clamped to valid geometry.
        assert_eq!(WindowSpec::tumbling(0).size, 1);
        assert_eq!(WindowSpec::sliding(4, 0).slide, 1);
        assert_eq!(WindowSpec::sliding(4, 9).slide, 4);
    }

    #[test]
    fn window_spec_accessor() {
        let kind = QueryKind::Aggregate {
            table: "t".into(),
            filter: None,
            group_exprs: vec![Expr::col(0)],
            aggs: vec![],
            having: None,
            order_by: vec![],
            limit: None,
            final_project: vec![0],
            window: Some(WindowSpec::tumbling(4)),
        };
        assert_eq!(kind.window_spec(), Some(WindowSpec::tumbling(4)));
        assert!(kind.is_aggregate());
    }

    #[test]
    fn kind_helpers() {
        let sel = QueryKind::Select {
            table: "t".into(),
            filter: None,
            project: vec![Expr::col(0)],
            order_by: vec![],
            limit: None,
        };
        assert_eq!(sel.primary_table(), "t");
        assert!(!sel.is_aggregate());
        let rec = QueryKind::Recursive {
            edges_table: "link".into(),
            src_col: 0,
            dst_col: 1,
            source: Value::str("n0"),
            max_depth: 8,
        };
        assert_eq!(rec.primary_table(), "link");
    }

    #[test]
    fn spec_wire_size_and_accessors() {
        let spec = QuerySpec {
            id: QueryId::new(NodeAddr(3), 1),
            kind: QueryKind::Select {
                table: "t".into(),
                filter: Some(Expr::col(0).gt(Expr::lit(1i64))),
                project: vec![Expr::col(0), Expr::col(1)],
                order_by: vec![],
                limit: Some(5),
            },
            output_names: vec!["a".into(), "b".into()],
            continuous: Some(ContinuousSpec::every(Duration::from_secs(10))),
        };
        assert_eq!(spec.origin(), NodeAddr(3));
        assert!(spec.is_continuous());
        assert!(spec.wire_size() > 20);
    }
}
