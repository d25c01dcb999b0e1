//! The PIER node: a relational query engine layered on the DHT.
//!
//! Every simulated host runs one [`PierNode`].  It owns a [`DhtNode`] (the
//! communication substrate and temporary tuple store) and the query-execution
//! state for every active query.  The engine implements the paper's
//! "multihop, in-network" operators, one module per layer:
//!
//! * `scan` — publishing into the DHT, local scans, and the compiled
//!   kernels every per-epoch hot loop runs.
//! * `aggregate` — **hierarchical aggregation**: each node folds its local
//!   tuples into mergeable partial states and forwards them hop-by-hop up
//!   the DHT routing tree toward the query origin's ring id, combining at
//!   every hop (the classic in-network aggregation of PIER/TAG).  The
//!   origin is the root: it finalizes each epoch (or window) into its own
//!   results.  A continuous aggregate's epoch closes on completion — as
//!   many contributors as last epoch for a single table, all of last
//!   epoch's credit back at the origin over symmetric-hash joins — with
//!   the hold-down and collect timers as the fallback.
//! * `join` — **distributed joins** as a stage DAG: symmetric rehash joins
//!   (both relations rehashed on the join key into a query-scoped
//!   namespace) and Fetch-Matches joins (DHT `get` probes against the inner
//!   relation); plus **recursive queries**, whose expansion requests chase
//!   edges through the partitioned edge relation with per-vertex duplicate
//!   suppression (distributed semi-naïve evaluation).
//! * `bloom` — the one **Bloom semi-join** handshake, for stage-0 Bloom
//!   joins and inner stages alike.
//! * `flush` — result buffering, staged direct sends and the one charge
//!   path every wire payload pays through.
//! * `replan` — statistics gossip, trace collection, and mid-flight
//!   re-planning.
//!
//! This module holds the node itself: the client API, **query
//! dissemination** (plans are broadcast over the DHT's recursive
//! dissemination tree; each node instantiates the plan locally), upcall and
//! timer dispatch, and the per-epoch loop of **continuous queries** — the
//! same plan re-evaluated every epoch over a sliding window of recently
//! stored tuples (the paper's Figure 1 query).

mod aggregate;
mod bloom;
mod config;
mod flush;
mod join;
mod replan;
mod scan;

pub use config::{EngineStats, PierConfig};

use crate::bloom::BloomFilter;
use crate::catalog::{Catalog, TableDef};
use crate::column::ColumnarBatch;
use crate::dataflow::ops::GroupAggregator;
use crate::payload::PierPayload;
use crate::planner::{PlanCache, PlannedQuery, Planner};
use crate::query::{ContinuousSpec, QueryId, QueryKind, QuerySpec};
use crate::sql::{parse, SelectStmt, Statement};
use crate::stats::GossipView;
use crate::trace::OpTrace;
use crate::tuple::Tuple;
use aggregate::AggQuery;
use bloom::BloomQuery;
use join::JoinQuery;
use pier_dht::{timers as dht_timers, DhtMsg, DhtNode, Upcall};
use pier_simnet::{Context, Duration, Node, NodeAddr, SimTime};
use replan::Feedback;
use scan::{CompiledKernels, ScanBatchKey};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// The wire message type PIER nodes exchange (DHT messages carrying
/// [`PierPayload`]s).
pub type PierMsg = DhtMsg<PierPayload>;

/// How many stopped queries' execution traces a node retains for late
/// `EXPLAIN ANALYZE` trace requests.
pub const MAX_FINISHED_TRACES: usize = 256;

/// Maximum tuples per batch payload (`TupleBatch`, `JoinBatch`,
/// `ResultBatch`).  Larger batches amortize per-message overhead further but
/// make each loss under churn costlier; a tick's result buffer ships early
/// once it reaches this size.
const BATCH_MAX: usize = 512;

/// Successor-list neighbours each statistics-gossip round pushes to, besides
/// the predecessor (so views spread both ways around the ring).
const STATS_FANOUT: usize = 3;

/// Gossip intervals without a fresher sequence number after which a node's
/// statistics entry is evicted, so a departed node stops inflating the
/// network-wide cardinalities (restarts re-enter with time-seeded ones).
const STATS_TTL_INTERVALS: u64 = 8;

type Ctx<'a> = Context<'a, PierMsg>;

/// Errors surfaced by the engine's client API.
#[derive(Clone, Debug, PartialEq)]
pub struct PierError {
    /// Description.
    pub message: String,
}

impl PierError {
    fn new(message: impl Into<String>) -> Self {
        PierError { message: message.into() }
    }
}

impl fmt::Display for PierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PIER error: {}", self.message)
    }
}

impl std::error::Error for PierError {}

/// What an engine timer is for.
#[derive(Clone, Debug)]
enum TimerPurpose {
    /// Start the next epoch of a continuous query.
    Epoch(QueryId),
    /// A hop's hold-down for (query, epoch): forward the combined partials
    /// the completion rule has not already shipped, with the epoch's credit
    /// pool once it has stopped growing.
    Holddown(QueryId, u64),
    /// The root's (the origin's) timer rule for (query, epoch):
    /// `collect_delay` after the first partial, postponed while partials
    /// still arrive.
    RootFinalize(QueryId, u64),
    /// The root's (the origin's) completion rule for (query, epoch):
    /// finalize if no partial has arrived for one hold-down.
    RootQuiet(QueryId, u64),
    /// Combine and broadcast Bloom filters for (query, stage, epoch).
    BloomCombine(QueryId, u8, u64),
    /// Quiescence check on an inner-stage Bloom summary under construction:
    /// ship it to the origin once intermediate arrivals go quiet.
    InnerBloomSummary(QueryId, u8, u64),
    /// Hold-down deadline for a Bloom-gated stage's combined filter: if it
    /// has not arrived, rehash the right relation unfiltered.
    BloomFallback(QueryId, u8, u64),
    /// Summarize local soft state and push the statistics view to neighbours.
    StatsGossip,
}

/// Execution state of one query at one node: the live spec and its trace,
/// plus one state struct per engine layer.  The spec is shared: handlers
/// that need it past a mutable borrow of the node clone the pointer.
struct RunningQuery {
    spec: Rc<QuerySpec>,
    /// Epoch evaluations this node has run (the origin re-disseminates the
    /// plan every third, and starts trace feedback after the second).
    epoch: u64,
    /// Producer-side per-operator counters (`EXPLAIN ANALYZE`).
    trace: OpTrace,
    /// A re-planned spec waiting to be applied at this node's next epoch
    /// evaluation.  Deferring the swap to an epoch boundary keeps every
    /// node's per-epoch evaluation on a single strategy, so a flip never
    /// mixes strategies *within* one node-epoch.
    pending_spec: Option<Rc<QuerySpec>>,
    /// Kernels compiled once from the live spec and reused every epoch.
    /// Cleared when a re-planned spec is applied.
    kernels: Option<Rc<CompiledKernels>>,
    agg: AggQuery,
    join: JoinQuery,
    bloom: BloomQuery,
    /// Origin-side trace-fed costing progress.
    feedback: Feedback,
}

impl RunningQuery {
    fn new(spec: Rc<QuerySpec>) -> Self {
        RunningQuery {
            spec,
            epoch: 0,
            trace: OpTrace::default(),
            pending_spec: None,
            kernels: None,
            agg: AggQuery::default(),
            join: JoinQuery::default(),
            bloom: BloomQuery::default(),
            feedback: Feedback::default(),
        }
    }
}

/// Results collected at the query origin.
#[derive(Clone, Debug)]
pub struct QueryResults {
    /// The query these results belong to.
    pub spec: QuerySpec,
    rows: BTreeMap<u64, Vec<Tuple>>,
    contributors: BTreeMap<u64, u64>,
}

impl QueryResults {
    fn new(spec: QuerySpec) -> Self {
        QueryResults { spec, rows: BTreeMap::new(), contributors: BTreeMap::new() }
    }

    /// Epochs for which at least one row arrived or an aggregate epoch (or
    /// window) was finalized.
    pub fn epochs(&self) -> Vec<u64> {
        let mut e: Vec<u64> = self.rows.keys().chain(self.contributors.keys()).copied().collect();
        e.sort_unstable();
        e.dedup();
        e
    }

    /// Raw rows received for an epoch, in arrival order.
    pub fn raw_rows(&self, epoch: u64) -> &[Tuple] {
        self.rows.get(&epoch).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Rows for an epoch with the query's ORDER BY / LIMIT applied (for
    /// streaming SELECT/JOIN queries the origin performs the final top-k;
    /// for aggregates over joins the origin finishes the aggregation).
    pub fn rows(&self, epoch: u64) -> Vec<Tuple> {
        let mut rows = self.raw_rows(epoch).to_vec();
        if let Some(finish) = self.spec.kind.agg_finish() {
            if let Some(agg) = self.spec.kind.join_aggregate().filter(|a| !a.hierarchical) {
                // Raw-row streaming baseline: the matched rows arrived
                // unaggregated; the origin runs the whole GROUP BY here.
                let mut acc = GroupAggregator::new(agg.group_exprs.clone(), agg.aggs.clone());
                for r in &rows {
                    acc.update(r);
                }
                rows = acc.finalize();
            }
            // Otherwise the origin stored the finalized aggregate-output
            // rows (pre-projection, hidden aggregates included).  Both
            // shapes converge here: HAVING (idempotent where finalizing
            // already applied it), re-sort, limit, then the final
            // projection to the client's column order — so ORDER BY an
            // aggregate that is not in the select list still works.
            let (rows, _) = aggregate::having_top_k(&finish, rows, false);
            return rows.iter().map(|r| r.project(finish.final_project)).collect();
        }
        if let QueryKind::Select { order_by, limit, .. } | QueryKind::Join { order_by, limit, .. } =
            &self.spec.kind
        {
            aggregate::sort_limit(&mut rows, order_by, *limit);
        }
        rows
    }

    /// Rows across every epoch (useful for one-shot queries), each epoch with
    /// the query's ordering/projection applied.
    pub fn all_rows(&self) -> Vec<Tuple> {
        self.epochs().into_iter().flat_map(|e| self.rows(e)).collect()
    }

    /// Number of nodes whose data contributed to an epoch ("responding
    /// nodes"); only reported for aggregation queries.
    pub fn contributors(&self, epoch: u64) -> u64 {
        self.contributors.get(&epoch).copied().unwrap_or(0)
    }
}

/// A PIER node: DHT + catalog + query engine, hosted on one simulated host.
pub struct PierNode {
    addr: NodeAddr,
    config: PierConfig,
    /// The DHT substrate.
    pub dht: DhtNode<PierPayload>,
    catalog: Catalog,
    queries: HashMap<QueryId, RunningQuery>,
    results: HashMap<QueryId, QueryResults>,
    /// Pending Fetch-Matches probes: DHT get request id -> (query, stage,
    /// epoch, left/intermediate tuple).
    pending_fetch: HashMap<u64, (QueryId, u8, u64, Tuple)>,
    /// Operator input (rehashed join tuples, recursive expansions) that
    /// arrived before this node received the query plan.  PIER stores such
    /// tuples as soft state in the DHT; we buffer them and replay them when
    /// the plan arrives.
    early_arrivals: HashMap<QueryId, Vec<PierPayload>>,
    /// Queries a `StopQuery` reached here, with when each tombstone lapses.
    /// While it lives, a late plan broadcast does not reinstall the query
    /// and its operator input is dropped rather than buffered.  Tombstones
    /// last one `collect_delay`, long enough to outlive the stop's in-flight
    /// traffic: a restarted origin numbers its queries from 1 again, so a
    /// permanent one would swallow its next query.
    stopped: HashMap<QueryId, SimTime>,
    /// What this node relayed toward the origin for queries whose plan it
    /// has not received: partials, their messages and bytes.  The query's
    /// trace starts from it when the plan arrives; a stop folds it into the
    /// node's counters.
    relayed: HashMap<QueryId, OpTrace>,
    timer_purposes: HashMap<u64, TimerPurpose>,
    /// Result rows produced during the current engine tick, coalesced per
    /// (query, epoch) and flushed as one `ResultBatch` per destination when
    /// the tick's upcall processing drains (the origin address is derived
    /// from the query id).  First-come order, so flushing preserves the
    /// per-epoch order in which rows were produced.
    pending_results: Vec<((QueryId, u64), Vec<Tuple>)>,
    /// Point-to-point payloads (results, partials, statistics gossip) staged
    /// during the current engine tick, already charged to their traces, and
    /// flushed, one direct message each, at every upcall drain.
    pending_direct: Vec<(NodeAddr, PierPayload)>,
    plan_cache: PlanCache,
    /// Origin-side trace collection (`EXPLAIN ANALYZE`): number of nodes
    /// that reported plus the merged network-wide trace, per query.
    trace_acc: HashMap<QueryId, (u64, OpTrace)>,
    /// Traces of queries that were stopped, kept so a later `TraceRequest`
    /// can still be answered.  Bounded FIFO ([`MAX_FINISHED_TRACES`]) so a
    /// long-lived node running many short queries does not grow without
    /// bound.
    finished_traces: HashMap<QueryId, OpTrace>,
    finished_trace_order: VecDeque<QueryId>,
    /// SQL text and the catalog version it was last planned at, for
    /// continuous queries this node originated (mid-flight re-planning).
    origin_sql: HashMap<QueryId, (String, u64)>,
    /// This node's view of the gossiped per-node statistics.
    gossip: GossipView,
    gossip_seq: u64,
    /// Memo of recent scan-delta columnar conversions, keyed on
    /// `(table, now, since, store mutation count)`: concurrent queries
    /// scanning the same table window in the same quiescent store state
    /// share one row-to-column pivot instead of each paying for it.
    scan_batches: Vec<(ScanBatchKey, Rc<ColumnarBatch>)>,
    next_token: u64,
    next_query_seq: u32,
    publish_seq: u64,
    /// This node's own counters: publishes, statistics gossip, trace-fed
    /// re-plans, and the traces of the queries stopped here, folded in at
    /// the stop.  [`stats`](Self::stats) adds the live traces.
    stats: EngineStats,
}

impl PierNode {
    /// Create a PIER node.  `bootstrap` is any existing node of the overlay
    /// (or `None` for the first node).
    pub fn new(addr: NodeAddr, config: PierConfig, bootstrap: Option<NodeAddr>) -> Self {
        let dht = DhtNode::new(addr, config.dht.clone(), bootstrap);
        PierNode {
            addr,
            config,
            dht,
            catalog: Catalog::new(),
            queries: HashMap::new(),
            results: HashMap::new(),
            pending_fetch: HashMap::new(),
            early_arrivals: HashMap::new(),
            stopped: HashMap::new(),
            relayed: HashMap::new(),
            timer_purposes: HashMap::new(),
            pending_results: Vec::new(),
            pending_direct: Vec::new(),
            plan_cache: PlanCache::new(),
            trace_acc: HashMap::new(),
            finished_traces: HashMap::new(),
            finished_trace_order: VecDeque::new(),
            origin_sql: HashMap::new(),
            gossip: GossipView::new(),
            gossip_seq: 0,
            scan_batches: Vec::new(),
            next_token: 1_000,
            next_query_seq: 1,
            publish_seq: 0,
            stats: EngineStats::default(),
        }
    }

    /// This node's network address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The local catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Engine activity counters: this node's own events plus the traces of
    /// the queries it runs or relays partials for.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.plan_cache_hits = self.plan_cache.hits();
        stats.plan_cache_misses = self.plan_cache.misses();
        for trace in self.queries.values().map(|q| &q.trace).chain(self.relayed.values()) {
            stats.add_trace(trace);
        }
        stats
    }

    /// Number of queries currently installed at this node.
    pub fn active_queries(&self) -> usize {
        self.queries.len()
    }

    /// Operator input this node holds for query `id` without having run
    /// it: payloads buffered until the plan arrives, and Fetch-Matches
    /// probes waiting for their answer.
    pub fn buffered_input(&self, id: QueryId) -> usize {
        let early = self.early_arrivals.get(&id).map_or(0, Vec::len);
        early + self.pending_fetch.values().filter(|(q, ..)| *q == id).count()
    }

    /// Register a table definition in the local catalog.  Every node that
    /// publishes into or queries a table must agree on its definition; the
    /// test/benchmark harness installs definitions on all nodes.
    pub fn create_table(&mut self, def: TableDef) {
        self.catalog.register(def);
    }

    /// Record cardinality hints for a table in the local catalog; the
    /// physical planner costs distributed join strategies from them.
    pub fn set_table_stats(&mut self, table: &str, stats: crate::catalog::TableStats) {
        self.catalog.set_stats(table, stats);
    }

    /// Results collected at this node for a query it originated.
    pub fn results(&self, id: QueryId) -> Option<&QueryResults> {
        self.results.get(&id)
    }

    /// Ids of the queries this node originated.
    pub fn originated_queries(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self.results.keys().copied().collect();
        ids.sort();
        ids
    }

    // ------------------------------------------------------------------
    // Query submission (client API)
    // ------------------------------------------------------------------

    /// Parse, plan, and submit a SQL `SELECT`.  `CREATE TABLE` statements are
    /// applied to the local catalog only and return an error mentioning it.
    pub fn submit_sql(&mut self, ctx: &mut Ctx<'_>, sql: &str) -> Result<QueryId, PierError> {
        // Plan-cache fast path: a hit skips lexing, parsing, binding and
        // optimization entirely.  Only successfully planned SELECTs are ever
        // inserted, so a hit is known to be a SELECT without parsing.
        if let Some(planned) = self.plan_cache.lookup(sql, self.catalog.version()) {
            return self.submit_planned(ctx, sql, planned);
        }
        let stmt = parse(sql).map_err(|e| PierError::new(e.to_string()))?;
        match stmt {
            Statement::Select(sel) => self.submit_select(ctx, sql, &sel),
            Statement::Explain { .. } => Err(PierError::new(
                "EXPLAIN is evaluated locally, not disseminated; use explain_sql \
                 (or PierTestbed::explain_analyze for EXPLAIN ANALYZE)",
            )),
            Statement::CreateTable(_) | Statement::Insert(_) => Err(PierError::new(
                "only SELECT can be submitted as a distributed query; use create_table/publish",
            )),
        }
    }

    /// Plan and submit an already-parsed `SELECT`.  `sql` keys the plan cache
    /// and, for continuous queries, is kept so the origin can re-plan the
    /// query mid-flight when the catalog (typically its gossiped statistics)
    /// changes.  `EXPLAIN ANALYZE` drives this with the inner statement.
    pub fn submit_select(
        &mut self,
        ctx: &mut Ctx<'_>,
        sql: &str,
        stmt: &SelectStmt,
    ) -> Result<QueryId, PierError> {
        let planned = self
            .plan_cache
            .plan_parsed(&self.catalog, sql, stmt)
            .map_err(|e| PierError::new(e.to_string()))?;
        self.submit_planned(ctx, sql, planned)
    }

    fn submit_planned(
        &mut self,
        ctx: &mut Ctx<'_>,
        sql: &str,
        planned: PlannedQuery,
    ) -> Result<QueryId, PierError> {
        let continuous = planned.continuous;
        let id = self.submit(ctx, planned.kind, planned.output_names, continuous)?;
        if continuous.is_some() {
            // Remember the text so epoch boundaries can re-plan it against a
            // changed catalog (mid-flight re-planning).
            self.origin_sql.insert(id, (sql.to_string(), self.catalog.version()));
        }
        Ok(id)
    }

    /// Run the planning pipeline over `EXPLAIN <select>` (or a bare `SELECT`)
    /// against this node's catalog and render each stage's output.  Purely
    /// local: nothing is disseminated.  For `EXPLAIN ANALYZE` this renders
    /// the static stages only — executing the query and collecting the
    /// network-wide trace is the testbed's job
    /// (`PierTestbed::explain_analyze`).
    pub fn explain_sql(&self, sql: &str) -> Result<String, PierError> {
        let stmt = parse(sql).map_err(|e| PierError::new(e.to_string()))?;
        let select = match stmt {
            Statement::Explain { select, .. } => *select,
            Statement::Select(sel) => sel,
            Statement::CreateTable(_) | Statement::Insert(_) => {
                return Err(PierError::new("EXPLAIN supports only SELECT statements"))
            }
        };
        Planner::new(&self.catalog)
            .explain_select(&select)
            .map(|e| e.render())
            .map_err(|e| PierError::new(e.to_string()))
    }

    /// Submit a query built through the algebraic interface.
    pub fn submit(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: QueryKind,
        output_names: Vec<String>,
        continuous: Option<ContinuousSpec>,
    ) -> Result<QueryId, PierError> {
        let id = QueryId::new(self.addr, self.next_query_seq);
        self.next_query_seq += 1;
        let spec = QuerySpec { id, kind, output_names, continuous };
        self.results.insert(id, QueryResults::new(spec.clone()));
        // Disseminate to every node (including ourselves, which installs it).
        self.dht.broadcast(ctx, PierPayload::Query(Rc::new(spec)));
        self.process_upcalls(ctx);
        Ok(id)
    }

    /// Stop a continuous query everywhere.
    pub fn stop_query(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        self.dht.broadcast(ctx, PierPayload::StopQuery(id));
        self.process_upcalls(ctx);
    }

    // ------------------------------------------------------------------
    // Timer and upcall dispatch
    // ------------------------------------------------------------------

    /// Arm an engine timer; the returned token disarms it (remove it from
    /// `timer_purposes` and the timer fires on nothing).
    fn arm_timer(&mut self, ctx: &mut Ctx<'_>, delay: Duration, purpose: TimerPurpose) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.timer_purposes.insert(token, purpose);
        ctx.set_timer(delay, token);
        token
    }

    fn process_upcalls(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let mut upcalls = self.dht.take_upcalls();
            if upcalls.is_empty() {
                // The tick has quiesced: ship whatever it produced, then
                // drain anything the flush itself enqueued.
                self.flush_results(ctx);
                upcalls = self.dht.take_upcalls();
                if upcalls.is_empty() {
                    break;
                }
            }
            for up in upcalls {
                match up {
                    Upcall::Broadcast { payload } => self.on_broadcast(ctx, payload),
                    Upcall::Delivered { payload, .. } => self.on_delivered(ctx, payload),
                    Upcall::Direct { payload, .. } => self.on_direct(ctx, payload),
                    Upcall::GetResult { req_id, items, .. } => {
                        self.on_get_result(ctx, req_id, items)
                    }
                    Upcall::Joined | Upcall::LookupResult { .. } => {}
                }
            }
        }
    }

    fn on_broadcast(&mut self, ctx: &mut Ctx<'_>, payload: PierPayload) {
        match payload {
            PierPayload::Query(spec) => self.install_query(ctx, spec),
            PierPayload::StopQuery(id) => self.on_stop(ctx, id),
            PierPayload::TraceRequest { query } => self.answer_trace_request(ctx, query),
            PierPayload::Bloom { query, stage, epoch, bits, k, combined: true } => {
                let filter = BloomFilter::from_words(bits, k);
                self.run_phase2(ctx, query, stage, epoch, Some(&filter));
            }
            _ => {}
        }
    }

    /// A `StopQuery` reached this node, whether or not it runs the query.
    fn on_stop(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        // Ship this query's buffered result rows while its trace can still
        // be charged for them, then fold the final trace into the node's
        // counters and keep a copy so a later `EXPLAIN ANALYZE` trace
        // request can still be answered.
        self.flush_query(ctx, id);
        if let Some(q) = self.queries.remove(&id) {
            self.stats.add_trace(&q.trace);
            self.retire_trace(id, q.trace);
        }
        if let Some(relayed) = self.relayed.remove(&id) {
            self.stats.add_trace(&relayed);
        }
        self.origin_sql.remove(&id);
        self.early_arrivals.remove(&id);
        self.pending_fetch.retain(|_, (query, ..)| *query != id);
        let now = ctx.now();
        self.stopped.retain(|_, until| *until > now);
        self.stopped.insert(id, now + self.config.collect_delay);
    }

    /// Was query `id` stopped here within the tombstone's lifetime?
    fn is_stopped(&self, id: QueryId, now: SimTime) -> bool {
        self.stopped.get(&id).is_some_and(|&until| until > now)
    }

    fn on_delivered(&mut self, ctx: &mut Ctx<'_>, payload: PierPayload) {
        // Operator input can race ahead of query dissemination (a rehashed
        // tuple may reach the join site before the site hears about the
        // query).  Buffer it; install_query replays it.
        let query_of = match &payload {
            PierPayload::JoinTuple { query, .. }
            | PierPayload::JoinBatch { query, .. }
            | PierPayload::Expand { query, .. } => Some(*query),
            _ => None,
        };
        if let Some(id) = query_of {
            if !self.queries.contains_key(&id) {
                if self.is_stopped(id, ctx.now()) {
                    return;
                }
                let buf = self.early_arrivals.entry(id).or_default();
                if buf.len() < 100_000 {
                    buf.push(payload);
                }
                return;
            }
        }
        match payload {
            PierPayload::JoinTuple { query, stage, epoch, side, key, tuple, credit } => {
                self.on_join_tuples(ctx, query, stage, epoch, side, key, vec![tuple], credit)
            }
            PierPayload::JoinBatch { query, stage, epoch, side, key, tuples, credit } => {
                let tuples = tuples.into_rows();
                self.on_join_tuples(ctx, query, stage, epoch, side, key, tuples, credit)
            }
            PierPayload::Expand { query, vertex, depth } => {
                self.on_expand(ctx, query, vertex, depth)
            }
            _ => {}
        }
    }

    fn on_direct(&mut self, ctx: &mut Ctx<'_>, payload: PierPayload) {
        match payload {
            PierPayload::Partial { query, epoch, groups, contributors, credit } => {
                self.absorb_partials(ctx, query, epoch, groups, contributors, credit, true);
            }
            PierPayload::Result(row) => self.receive_rows(row.query, row.epoch, [row.tuple]),
            PierPayload::ResultBatch { query, epoch, rows } => {
                self.receive_rows(query, epoch, rows.into_rows())
            }
            PierPayload::Bloom { query, stage, epoch, bits, k, combined: false } => {
                self.on_bloom_summary(ctx, query, stage, epoch, bits, k);
            }
            PierPayload::TraceReport { query, trace, .. } => self.merge_trace_report(query, &trace),
            PierPayload::StatsGossip { entries } => self.absorb_gossip(ctx.now(), entries),
            _ => {}
        }
    }

    /// Origin side: result rows for an epoch (or window) of a query this
    /// node originated.
    fn receive_rows(&mut self, query: QueryId, epoch: u64, rows: impl IntoIterator<Item = Tuple>) {
        if let Some(res) = self.results.get_mut(&query) {
            res.rows.entry(epoch).or_default().extend(rows);
        }
    }

    // ------------------------------------------------------------------
    // Query installation & epochs
    // ------------------------------------------------------------------

    fn install_query(&mut self, ctx: &mut Ctx<'_>, spec: Rc<QuerySpec>) {
        let id = spec.id;
        if self.is_stopped(id, ctx.now()) {
            // A plan broadcast the stop overtook.
            return;
        }
        if let Some(q) = self.queries.get_mut(&id) {
            // Re-dissemination of a known query.  If the origin re-planned it
            // (mid-flight adaptivity), stage the new spec; it takes effect at
            // this node's next epoch evaluation so no single node-epoch mixes
            // strategies.  A matching spec clears any staged one — the origin
            // may have reverted a re-plan before this node ever applied it.
            q.pending_spec = (q.spec.kind != spec.kind).then_some(spec);
            return;
        }
        let continuous = spec.continuous;
        let is_recursive_origin =
            matches!(spec.kind, QueryKind::Recursive { .. }) && spec.origin() == self.addr;
        let mut q = RunningQuery::new(spec);
        q.trace = self.relayed.remove(&id).unwrap_or_default();
        self.queries.insert(id, q);

        // Replay operator input that arrived before the plan did.
        if let Some(buffered) = self.early_arrivals.remove(&id) {
            for payload in buffered {
                self.on_delivered(ctx, payload);
            }
        }

        // Recursive queries are seeded from the origin only.
        if is_recursive_origin {
            self.seed_recursive(ctx, id);
        }

        self.run_epoch(ctx, id);
        if let Some(c) = continuous {
            let delay = epoch_align_delay(ctx.now(), &c);
            self.arm_timer(ctx, delay, TimerPurpose::Epoch(id));
        }
    }

    /// Execute the local portion of one epoch of a query, first applying any
    /// re-planned spec staged for this epoch boundary.
    fn run_epoch(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let now = ctx.now();
        let Some((spec, epoch)) = self.begin_epoch(id, now) else { return };
        let since = scan_since(&spec, now);
        match &spec.kind {
            QueryKind::Select { .. } => self.run_select(ctx, &spec, epoch, now, since),
            QueryKind::Aggregate { .. } => self.run_aggregate(ctx, &spec, epoch, now, since),
            QueryKind::Join { .. } => self.run_join(ctx, &spec, epoch, now, since),
            // Recursive queries are driven by Expand messages, not scans.
            QueryKind::Recursive { .. } => {}
        }
        self.process_upcalls(ctx);
    }

    /// A continuous query's epoch boundary: re-plan at the origin if the
    /// catalog (or the trace feedback) calls for it, re-disseminate the plan
    /// every few epochs, evaluate the epoch, and arm the next boundary.
    fn on_epoch_timer(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let Some(c) = self.queries.get(&id).and_then(|q| q.spec.continuous) else { return };
        if id.origin() == self.addr {
            self.maybe_replan(ctx, id);
            if self.config.feedback {
                self.feedback_step(ctx, id);
            }
        }
        let (evaluations, spec) = {
            let q = self.queries.get_mut(&id).expect("query exists");
            q.epoch += 1;
            // A staged re-plan is about to take effect in this epoch's
            // evaluation; re-disseminating the stale spec would flip remote
            // nodes back.
            let spec = q.pending_spec.clone().unwrap_or_else(|| q.spec.clone());
            (q.epoch, spec)
        };
        // Continuous queries are soft state: the origin re-disseminates the
        // plan every few epochs so nodes that joined (or rejoined after a
        // failure) start participating.
        if spec.origin() == self.addr && evaluations % 3 == 0 {
            self.dht.broadcast(ctx, PierPayload::Query(spec));
        }
        self.run_epoch(ctx, id);
        let delay = epoch_align_delay(ctx.now(), &c);
        self.arm_timer(ctx, delay, TimerPurpose::Epoch(id));
    }
}

/// How far back this epoch's local scans reach.  Windowed queries merge
/// per-epoch deltas into window state at the origin, so each epoch
/// scans only what arrived since the previous one; plain continuous queries
/// rescan the whole trailing time window every epoch; one-shot queries scan
/// everything stored.
fn scan_since(spec: &QuerySpec, now: SimTime) -> SimTime {
    match spec.continuous {
        Some(c) if spec.kind.window_spec().is_some() => {
            SimTime::from_micros(now.as_micros().saturating_sub(c.period.as_micros()))
        }
        Some(c) => SimTime::from_micros(now.as_micros().saturating_sub(c.window.as_micros())),
        None => SimTime::ZERO,
    }
}

/// The window of `epoch`'s scans as its epoch-aligned evaluation reads it:
/// continuous epochs are evaluated [`EPOCH_LAG_US`] after their boundary.  A
/// Fetch-Matches probe sent from a join site mid-epoch reads this window.
fn epoch_since(spec: &QuerySpec, epoch: u64) -> SimTime {
    let at = spec.continuous.map_or(0, |c| epoch * c.period.as_micros() + EPOCH_LAG_US);
    scan_since(spec, SimTime::from_micros(at))
}

/// Group `items` by key, preserving first-occurrence group order (the
/// simulator's reproducibility requires deterministic message ordering, which
/// bare HashMap iteration would break).  O(n) via an index map.
fn group_by_key<K, V>(items: impl IntoIterator<Item = (K, V)>) -> Vec<(K, Vec<V>)>
where
    K: std::hash::Hash + Eq + Clone,
{
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    for (key, value) in items {
        match index.get(&key) {
            Some(&i) => groups[i].1.push(value),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, vec![value]));
            }
        }
    }
    groups
}

/// The epoch a continuous query is in at virtual time `now`.  Epochs are
/// derived from absolute virtual time (not a per-node counter) so every node —
/// including ones that joined after the query was disseminated — labels its
/// contributions consistently.
fn continuous_epoch(now: SimTime, c: &ContinuousSpec) -> u64 {
    now.as_micros() / c.period.as_micros().max(1)
}

/// How long after its boundary a continuous query evaluates an epoch, in µs.
const EPOCH_LAG_US: u64 = 1_000;

/// Delay until shortly after the next epoch boundary.
fn epoch_align_delay(now: SimTime, c: &ContinuousSpec) -> Duration {
    let period = c.period.as_micros().max(1);
    Duration::from_micros(period - (now.as_micros() % period) + EPOCH_LAG_US)
}

impl Node for PierNode {
    type Msg = PierMsg;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        self.dht.start(ctx);
        if self.config.auto_stats {
            let delay = self.config.stats_interval;
            self.arm_timer(ctx, delay, TimerPurpose::StatsGossip);
        }
        self.process_upcalls(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<Self::Msg>, from: NodeAddr, msg: Self::Msg) {
        self.dht.handle_message(ctx, from, msg);
        self.process_upcalls(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<Self::Msg>, token: u64) {
        if (dht_timers::TOKEN_BASE..dht_timers::TOKEN_LIMIT).contains(&token) {
            self.dht.handle_timer(ctx, token);
            self.process_upcalls(ctx);
            return;
        }
        let Some(purpose) = self.timer_purposes.remove(&token) else { return };
        match purpose {
            TimerPurpose::Epoch(id) => self.on_epoch_timer(ctx, id),
            TimerPurpose::Holddown(id, epoch) => {
                self.on_holddown(ctx, id, epoch);
                self.process_upcalls(ctx);
            }
            TimerPurpose::RootFinalize(id, epoch) => self.on_root_deadline(ctx, id, epoch),
            TimerPurpose::RootQuiet(id, epoch) => self.on_root_quiet(ctx, id, epoch),
            TimerPurpose::BloomCombine(id, stage, epoch) => {
                self.broadcast_bloom_union(ctx, id, stage, epoch)
            }
            TimerPurpose::InnerBloomSummary(id, stage, epoch) => {
                self.ship_inner_summary(ctx, id, stage, epoch)
            }
            TimerPurpose::BloomFallback(id, stage, epoch) => {
                self.run_phase2(ctx, id, stage, epoch, None)
            }
            TimerPurpose::StatsGossip => {
                self.stats_gossip_round(ctx);
                let delay = self.config.stats_interval;
                self.arm_timer(ctx, delay, TimerPurpose::StatsGossip);
            }
        }
    }
}
