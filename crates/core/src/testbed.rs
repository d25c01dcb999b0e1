//! A ready-made PIER deployment harness.
//!
//! [`PierTestbed`] wires `N` [`PierNode`]s into the discrete-event simulator,
//! waits for the overlay to stabilize, and exposes the client operations that
//! examples, tests, and the benchmark harness all need: create tables
//! everywhere, publish tuples from any node, submit SQL or algebraic queries,
//! advance virtual time, and read back results.  It plays the role of the
//! PlanetLab deployment scripts plus the PIER client proxy.

use crate::catalog::TableDef;
use crate::engine::{PierConfig, PierNode};
use crate::query::{ContinuousSpec, QueryId, QueryKind};
use crate::tuple::Tuple;
use pier_simnet::{
    ChurnSchedule, Duration, LatencyModel, LossModel, Metrics, NodeAddr, SimConfig, SimTime,
    Simulation,
};

/// Configuration of a testbed deployment.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Number of PIER nodes.
    pub nodes: usize,
    /// Simulation seed (all randomness derives from it).
    pub seed: u64,
    /// Engine / DHT parameters.
    pub pier: PierConfig,
    /// Latency model; defaults to a planetary coordinate model.
    pub latency: Option<LatencyModel>,
    /// Loss model.
    pub loss: LossModel,
    /// Virtual time to run before the overlay is considered stable.
    pub warmup: Duration,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            nodes: 32,
            seed: 0x9132_2004,
            pier: PierConfig::fast_test(),
            latency: None,
            loss: LossModel::None,
            warmup: Duration::from_secs(30),
        }
    }
}

/// A running PIER deployment inside the simulator.
///
/// # Example
///
/// ```
/// use pier_core::prelude::*;
///
/// // Boot a small overlay, agree on a relation, publish, query.
/// let mut bed = PierTestbed::quick(6, 7);
/// let def = TableDef::new(
///     "readings",
///     Schema::of(&[("host", DataType::Str), ("v", DataType::Int)]),
///     "host",
///     Duration::from_secs(300),
/// );
/// bed.create_table_everywhere(&def);
/// for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
///     bed.publish_local(addr, "readings", Tuple::new(vec![
///         Value::str(format!("host-{i}")),
///         Value::Int(i as i64),
///     ]));
/// }
/// bed.run_for(Duration::from_secs(2));
/// let rows = bed.query_once("SELECT COUNT(*) FROM readings", Duration::from_secs(10)).unwrap();
/// assert_eq!(rows[0].get(0), &Value::Int(6));
/// ```
pub struct PierTestbed {
    sim: Simulation<PierNode>,
    nodes: Vec<NodeAddr>,
    table_defs: Vec<TableDef>,
}

impl PierTestbed {
    /// Build and warm up a deployment.
    pub fn new(config: TestbedConfig) -> Self {
        let mut rng = pier_simnet::DetRng::new(config.seed);
        let latency = config
            .latency
            .clone()
            .unwrap_or_else(|| LatencyModel::planetary(config.nodes.max(1), &mut rng));
        let pier_config = config.pier.clone();
        let mut sim = Simulation::new(
            SimConfig {
                seed: config.seed,
                latency,
                loss: config.loss.clone(),
                ..Default::default()
            },
            move |addr| {
                let bootstrap = if addr.0 == 0 { None } else { Some(NodeAddr(0)) };
                PierNode::new(addr, pier_config.clone(), bootstrap)
            },
        );
        let nodes = sim.add_nodes(config.nodes);
        sim.run_for(config.warmup);
        PierTestbed { sim, nodes, table_defs: Vec::new() }
    }

    /// A small default deployment (32 nodes) for examples and tests.
    pub fn quick(nodes: usize, seed: u64) -> Self {
        Self::new(TestbedConfig { nodes, seed, ..Default::default() })
    }

    /// Node addresses, in creation order.
    pub fn nodes(&self) -> &[NodeAddr] {
        &self.nodes
    }

    /// Addresses of the currently alive nodes.
    pub fn alive_nodes(&self) -> Vec<NodeAddr> {
        self.sim.alive_nodes()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Simulator metrics (messages, bytes, drops…).
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// Direct access to the underlying simulation (advanced scenarios:
    /// partitions, custom churn, per-node inspection).
    pub fn sim(&mut self) -> &mut Simulation<PierNode> {
        &mut self.sim
    }

    /// Immutable access to one node's engine.
    pub fn node(&self, addr: NodeAddr) -> Option<&PierNode> {
        self.sim.node(addr)
    }

    /// Register a table on every node.  The definition is remembered, and
    /// nodes that restart after churn are re-provisioned with it the next
    /// time the harness touches them (mirroring a rebooted PlanetLab host
    /// re-reading its deployment configuration).
    pub fn create_table_everywhere(&mut self, def: &TableDef) {
        self.table_defs.push(def.clone());
        for addr in self.sim.alive_nodes() {
            if let Some(node) = self.sim.node_mut(addr) {
                node.create_table(def.clone());
            }
        }
    }

    /// Record cardinality hints for a table on every node (the hints drive
    /// cost-based join-strategy selection in the physical planner).
    pub fn set_table_stats_everywhere(&mut self, table: &str, stats: crate::catalog::TableStats) {
        for addr in self.sim.alive_nodes() {
            if let Some(node) = self.sim.node_mut(addr) {
                node.set_table_stats(table, stats);
            }
        }
    }

    /// Render the planning pipeline's `EXPLAIN` report for a query, as seen
    /// from one node's catalog.  Purely local — nothing is disseminated.
    pub fn explain(&mut self, from: NodeAddr, sql: &str) -> Result<String, String> {
        self.ensure_tables(from);
        self.sim
            .node(from)
            .ok_or_else(|| "origin node is not alive".to_string())?
            .explain_sql(sql)
            .map_err(|e| e.to_string())
    }

    /// Run `EXPLAIN ANALYZE <select>` end to end: render the static
    /// four-stage plan, **execute** the inner query from `from`, let it run
    /// for `settle` of virtual time (continuous queries are then stopped),
    /// collect every node's per-operator execution trace over the DHT, and
    /// render the network-wide totals below the static plan.
    ///
    /// The merged trace is also available structurally afterwards through
    /// [`PierNode::collected_trace`](crate::engine::PierNode::collected_trace)
    /// on the origin node.
    pub fn explain_analyze(
        &mut self,
        from: NodeAddr,
        sql: &str,
        settle: Duration,
    ) -> Result<String, String> {
        use crate::sql::{parse, Statement};
        let stmt = parse(sql).map_err(|e| e.to_string())?;
        let select = match stmt {
            Statement::Explain { analyze: true, select } => *select,
            Statement::Explain { analyze: false, .. } => {
                return Err("EXPLAIN without ANALYZE is static; use explain()".to_string())
            }
            _ => return Err("expected an EXPLAIN ANALYZE <select> statement".to_string()),
        };
        self.ensure_tables(from);
        let static_text = self
            .sim
            .node(from)
            .ok_or_else(|| "origin node is not alive".to_string())?
            .explain_sql(sql)
            .map_err(|e| e.to_string())?;

        // Execute the inner statement for real, keyed by the *inner* SELECT
        // text: keying by the EXPLAIN ANALYZE wrapper would poison the plan
        // cache with a non-SELECT key and leave the origin's re-planning
        // state holding text that does not parse as a SELECT.
        let sql_key = inner_select_text(sql).to_string();
        let id = self
            .sim
            .invoke(from, move |node, ctx| {
                node.submit_select(ctx, &sql_key, &select).map_err(|e| e.to_string())
            })
            .unwrap_or_else(|| Err("origin node is not alive".to_string()))?;
        self.run_for(settle);

        // Freeze a continuous query so its counters quiesce, then collect.
        let continuous = self
            .sim
            .node(from)
            .and_then(|n| n.results(id))
            .map(|r| r.spec.is_continuous())
            .unwrap_or(false);
        if continuous {
            self.stop_query(from, id);
            self.run_for(Duration::from_secs(2));
        }
        self.sim.invoke(from, move |node, ctx| node.request_traces(ctx, id));
        self.run_for(Duration::from_secs(3));

        let node = self.sim.node(from).ok_or_else(|| "origin node is not alive".to_string())?;
        let (reporters, trace) =
            node.collected_trace(id).ok_or_else(|| "no traces were collected".to_string())?;
        let kind = node
            .results(id)
            .map(|r| r.spec.kind.clone())
            .ok_or_else(|| "origin lost the query's result state".to_string())?;
        let trace_text = crate::trace::render_network_trace(reporters, trace, &kind);
        Ok(format!("{static_text}{trace_text}"))
    }

    /// Re-register every known table definition on a node whose catalog lost
    /// them (e.g. because churn restarted it with fresh state).
    fn ensure_tables(&mut self, addr: NodeAddr) {
        if let Some(node) = self.sim.node_mut(addr) {
            for def in &self.table_defs {
                if node.catalog().get(&def.name).is_none() {
                    node.create_table(def.clone());
                }
            }
        }
    }

    /// Publish a tuple from a specific node (routed into the DHT).
    pub fn publish(&mut self, from: NodeAddr, table: &str, tuple: Tuple) {
        self.ensure_tables(from);
        let table = table.to_string();
        self.sim.invoke(from, move |node, ctx| {
            node.publish(ctx, &table, tuple).expect("publish failed");
        });
    }

    /// Publish many tuples of one table from a specific node in a single
    /// coalesced submission (same-destination tuples share wire messages; see
    /// [`PierNode::publish_batch`](crate::engine::PierNode::publish_batch)).
    pub fn publish_batch(&mut self, from: NodeAddr, table: &str, tuples: Vec<Tuple>) {
        self.ensure_tables(from);
        let table = table.to_string();
        self.sim.invoke(from, move |node, ctx| {
            node.publish_batch(ctx, &table, tuples).expect("publish_batch failed");
        });
    }

    /// Network-wide engine activity: the field-wise sum of every node's
    /// [`EngineStats`](crate::engine::EngineStats) (dead nodes included — their
    /// counters describe traffic they caused while alive).  Also syncs the
    /// headline shipping counters into the simulation metrics as the
    /// `pier.messages_sent` / `pier.bytes_shipped` / `pier.batches_sent`
    /// tags, so `Metrics` displays the query-path share of the traffic.
    pub fn engine_totals(&mut self) -> crate::engine::EngineStats {
        let mut total = crate::engine::EngineStats::default();
        for i in 0..self.sim.num_nodes() {
            if let Some(node) = self.sim.node(NodeAddr(i as u32)) {
                total.merge(&node.stats());
            }
        }
        let m = self.sim.metrics_mut();
        m.set_tag("pier.messages_sent", total.messages_sent);
        m.set_tag("pier.bytes_shipped", total.bytes_shipped);
        m.set_tag("pier.batches_sent", total.batches_sent);
        total
    }

    /// Store a tuple locally at a node (monitoring data about that node).
    pub fn publish_local(&mut self, at: NodeAddr, table: &str, tuple: Tuple) {
        self.ensure_tables(at);
        let now = self.sim.now();
        if let Some(node) = self.sim.node_mut(at) {
            node.publish_local(now, table, tuple).expect("publish_local failed");
        }
    }

    /// Submit a SQL query from a node; returns its id.
    pub fn submit_sql(&mut self, from: NodeAddr, sql: &str) -> Result<QueryId, String> {
        self.ensure_tables(from);
        let sql = sql.to_string();
        self.sim
            .invoke(from, move |node, ctx| node.submit_sql(ctx, &sql).map_err(|e| e.to_string()))
            .unwrap_or_else(|| Err("origin node is not alive".to_string()))
    }

    /// Submit an algebraic (non-SQL) query from a node.
    pub fn submit_query(
        &mut self,
        from: NodeAddr,
        kind: QueryKind,
        output_names: Vec<String>,
        continuous: Option<ContinuousSpec>,
    ) -> Result<QueryId, String> {
        self.sim
            .invoke(from, move |node, ctx| {
                node.submit(ctx, kind, output_names, continuous).map_err(|e| e.to_string())
            })
            .unwrap_or_else(|| Err("origin node is not alive".to_string()))
    }

    /// Stop a continuous query.
    pub fn stop_query(&mut self, origin: NodeAddr, id: QueryId) {
        self.sim.invoke(origin, move |node, ctx| node.stop_query(ctx, id));
    }

    /// Advance virtual time.
    pub fn run_for(&mut self, d: Duration) {
        self.sim.run_for(d);
    }

    /// Advance virtual time to an absolute instant.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Apply a churn schedule.
    pub fn apply_churn(&mut self, schedule: &ChurnSchedule) {
        self.sim.apply_churn(schedule);
    }

    /// Kill a node immediately.
    pub fn kill_node(&mut self, addr: NodeAddr) {
        self.sim.kill_node(addr);
    }

    /// Restart a previously killed node.
    pub fn restart_node(&mut self, addr: NodeAddr) {
        self.sim.restart_node(addr);
    }

    /// Result rows of a query for an epoch, with ORDER BY / LIMIT applied.
    pub fn results(&self, origin: NodeAddr, id: QueryId, epoch: u64) -> Vec<Tuple> {
        self.sim.node(origin).and_then(|n| n.results(id)).map(|r| r.rows(epoch)).unwrap_or_default()
    }

    /// All result rows of a query across epochs.
    pub fn all_results(&self, origin: NodeAddr, id: QueryId) -> Vec<Tuple> {
        self.sim.node(origin).and_then(|n| n.results(id)).map(|r| r.all_rows()).unwrap_or_default()
    }

    /// Epochs with data for a query.
    pub fn epochs(&self, origin: NodeAddr, id: QueryId) -> Vec<u64> {
        self.sim.node(origin).and_then(|n| n.results(id)).map(|r| r.epochs()).unwrap_or_default()
    }

    /// "Responding nodes" for an epoch of an aggregation query.
    pub fn contributors(&self, origin: NodeAddr, id: QueryId, epoch: u64) -> u64 {
        self.sim
            .node(origin)
            .and_then(|n| n.results(id))
            .map(|r| r.contributors(epoch))
            .unwrap_or(0)
    }

    /// Convenience: run a one-shot SQL query from node 0, wait `settle`, and
    /// return its rows (epoch 0).
    pub fn query_once(&mut self, sql: &str, settle: Duration) -> Result<Vec<Tuple>, String> {
        let origin = self.nodes[0];
        let id = self.submit_sql(origin, sql)?;
        self.run_for(settle);
        Ok(self.results(origin, id, 0))
    }
}

/// The text after a leading `EXPLAIN ANALYZE` prefix (case-insensitive,
/// whitespace-tolerant) — the inner SELECT's own text.  Falls back to the
/// full input if the stripped remainder does not parse as a SELECT (e.g. a
/// comment sits between the keywords), which merely widens the cache key.
fn inner_select_text(sql: &str) -> &str {
    fn strip_kw<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
        let t = s.trim_start();
        if t.len() >= kw.len() && t[..kw.len()].eq_ignore_ascii_case(kw) {
            let rest = &t[kw.len()..];
            let boundary =
                rest.chars().next().map(|c| !c.is_ascii_alphanumeric() && c != '_').unwrap_or(true);
            if boundary {
                return Some(rest);
            }
        }
        None
    }
    let stripped = strip_kw(sql, "explain").and_then(|rest| strip_kw(rest, "analyze"));
    match stripped {
        Some(inner) if crate::sql::parse_select(inner).is_ok() => inner.trim_start(),
        _ => sql,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Schema;
    use crate::value::{DataType, Value};

    #[test]
    fn inner_select_text_strips_the_wrapper() {
        assert_eq!(inner_select_text("EXPLAIN ANALYZE SELECT a FROM t"), "SELECT a FROM t");
        assert_eq!(inner_select_text("  explain   analyze\n select a from t"), "select a from t");
        // Not an EXPLAIN ANALYZE: returned untouched.
        assert_eq!(inner_select_text("SELECT a FROM t"), "SELECT a FROM t");
        // `analyzer` is an identifier, not the keyword.
        assert_eq!(inner_select_text("EXPLAIN analyzer"), "EXPLAIN analyzer");
    }

    #[test]
    fn testbed_boots_and_answers_a_query() {
        let mut bed = PierTestbed::new(TestbedConfig {
            nodes: 8,
            seed: 11,
            warmup: Duration::from_secs(20),
            ..Default::default()
        });
        assert_eq!(bed.nodes().len(), 8);
        assert_eq!(bed.alive_nodes().len(), 8);

        let def = TableDef::new(
            "readings",
            Schema::of(&[("host", DataType::Str), ("v", DataType::Int)]),
            "host",
            Duration::from_secs(300),
        );
        bed.create_table_everywhere(&def);
        for (i, &addr) in bed.nodes().to_vec().iter().enumerate() {
            bed.publish(
                addr,
                "readings",
                Tuple::new(vec![Value::str(format!("host-{i}")), Value::Int(i as i64)]),
            );
        }
        bed.run_for(Duration::from_secs(5));

        let rows = bed
            .query_once("SELECT COUNT(*), SUM(v) FROM readings", Duration::from_secs(10))
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(8));
        assert_eq!(rows[0].get(1), &Value::Int((0..8).sum::<i64>()));
    }
}
