//! Observe-and-adapt layer: statistics gossip, network-wide trace
//! collection (`EXPLAIN ANALYZE`), and the two mid-flight re-planning
//! loops — catalog-driven (gossip moved the statistics) and trace-driven
//! (`PierConfig::feedback`) — that stage a new spec for every node's next
//! epoch boundary.

use super::{continuous_epoch, Ctx, PierNode, STATS_FANOUT, STATS_TTL_INTERVALS};
use crate::payload::PierPayload;
use crate::planner::{ObservedStats, PlannedQuery, Planner};
use crate::query::{JoinStrategy, QueryId, QueryKind, QuerySpec};
use crate::sql::parse_select;
use crate::stats::{apply_totals, NodeStatsEntry, TableSummary};
use crate::trace::OpTrace;
use pier_simnet::{NodeAddr, SimTime};
use std::rc::Rc;

/// Origin-side progress of one query's trace-fed correction.
#[derive(Default)]
pub(super) enum Feedback {
    /// No trace collection requested yet.
    #[default]
    Idle,
    /// A network-wide trace collection is outstanding.
    Requested,
    /// The correction ran (whether or not it changed the plan); no further
    /// collections are sent.  Holds the observed statistics the query was
    /// re-planned with, overlaid on the catalog by any later catalog-driven
    /// re-plan so a statistics gossip round cannot silently undo the trace
    /// correction.
    Settled(Option<ObservedStats>),
}

impl PierNode {
    // ------------------------------------------------------------------
    // Trace collection
    // ------------------------------------------------------------------

    /// This node's producer-side execution trace for a query, live or
    /// finished (used by tests and the trace-collection protocol).
    pub fn query_trace(&self, id: QueryId) -> Option<&OpTrace> {
        self.queries.get(&id).map(|q| &q.trace).or_else(|| self.finished_traces.get(&id))
    }

    /// Origin-side `EXPLAIN ANALYZE` collection state: how many nodes have
    /// reported so far and the merged network-wide trace.
    pub fn collected_trace(&self, id: QueryId) -> Option<(u64, &OpTrace)> {
        self.trace_acc.get(&id).map(|(n, t)| (*n, t))
    }

    /// Broadcast a trace request for a query this node originated.  Every
    /// node (this one included) answers with its per-operator trace; answers
    /// are merged into [`collected_trace`](Self::collected_trace).  Any
    /// previously collected state for the query is reset first, so repeated
    /// requests do not double-count.
    pub fn request_traces(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        self.trace_acc.insert(id, (0, OpTrace::default()));
        self.dht.broadcast(ctx, PierPayload::TraceRequest { query: id });
        self.process_upcalls(ctx);
    }

    /// Answer an `EXPLAIN ANALYZE` trace request: merge locally at the
    /// origin, report directly otherwise.  A node the plan has not reached
    /// yet answers with what it relayed.  Observability traffic is *not*
    /// counted in the query-path counters it measures.
    pub(super) fn answer_trace_request(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let Some(trace) = self.query_trace(id).or_else(|| self.relayed.get(&id)).cloned() else {
            return;
        };
        if id.origin() == self.addr {
            self.merge_trace_report(id, &trace);
        } else {
            let trace = Box::new(trace);
            let payload = PierPayload::TraceReport { query: id, node: self.addr, trace };
            self.dht.send_direct(ctx, id.origin(), payload);
        }
    }

    /// Origin side: fold one node's trace into the network-wide collection.
    pub(super) fn merge_trace_report(&mut self, id: QueryId, trace: &OpTrace) {
        let (reporters, acc) = self.trace_acc.entry(id).or_default();
        *reporters += 1;
        acc.merge(trace);
    }

    /// Keep a stopped query's trace so a later trace request can still be
    /// answered, evicting the oldest beyond [`super::MAX_FINISHED_TRACES`].
    pub(super) fn retire_trace(&mut self, id: QueryId, trace: OpTrace) {
        if self.finished_traces.insert(id, trace).is_none() {
            self.finished_trace_order.push_back(id);
            while self.finished_trace_order.len() > super::MAX_FINISHED_TRACES {
                if let Some(oldest) = self.finished_trace_order.pop_front() {
                    self.finished_traces.remove(&oldest);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Automatic statistics
    // ------------------------------------------------------------------

    /// One anti-entropy round: summarize the live soft state this node stores
    /// for every cataloged table, fold the totals into the local catalog, and
    /// push the whole epoch-stamped view to ring neighbours.
    pub(super) fn stats_gossip_round(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let tables: Vec<String> =
            self.catalog.table_names().iter().map(|s| s.to_string()).collect();
        let mut summaries = Vec::with_capacity(tables.len());
        for table in tables {
            let (rows, distinct_keys) =
                self.dht.namespace_summary(&table, now, |p| p.tuples().len() as u64);
            summaries.push(TableSummary { table, rows, distinct_keys });
        }
        // Seed the sequence from virtual time so a restarted node (fresh
        // state, same address) immediately outranks its own pre-crash
        // entries in every peer's view instead of being rejected as stale
        // until its counter catches up.
        self.gossip_seq = self.gossip_seq.max(now.as_micros()) + 1;
        self.gossip.update_self(self.addr, self.gossip_seq, summaries, now.as_micros());
        // Gossip entry expiry: a node whose summaries stopped refreshing for
        // `STATS_TTL_INTERVALS` gossip rounds is permanently gone (restarts
        // re-enter with fresher time-seeded sequence numbers) — evict it so
        // it stops inflating the network-wide totals.
        let ttl = self.config.stats_interval.as_micros().saturating_mul(STATS_TTL_INTERVALS);
        self.gossip.expire(now.as_micros(), ttl);
        let totals = self.gossip.totals();
        apply_totals(&mut self.catalog, &totals);

        // Push to the predecessor plus the first `STATS_FANOUT` live
        // successors, so views spread both ways around the ring.
        let mut peers: Vec<NodeAddr> = Vec::new();
        if let Some(p) = self.dht.predecessor() {
            peers.push(p.addr);
        }
        for s in self.dht.successor_list().iter().take(STATS_FANOUT) {
            peers.push(s.addr);
        }
        peers.retain(|&a| a != self.addr);
        // In tiny rings the predecessor reappears in the successor list, and
        // the duplicates are not adjacent: sort before deduplicating.
        peers.sort_unstable_by_key(|a| a.0);
        peers.dedup();
        let entries = self.gossip.wire_entries();
        for peer in peers {
            self.stats.stats_gossip_sent += 1;
            let payload = PierPayload::StatsGossip { entries: entries.clone() };
            self.pending_direct.push((peer, payload));
        }
        self.process_upcalls(ctx);
    }

    /// Fold a neighbour's gossiped view into ours, re-deriving the catalog
    /// totals when it changed anything.
    pub(super) fn absorb_gossip(&mut self, now: SimTime, entries: Vec<NodeStatsEntry>) {
        if self.gossip.absorb(entries, now.as_micros()) {
            let totals = self.gossip.totals();
            apply_totals(&mut self.catalog, &totals);
        }
    }

    // ------------------------------------------------------------------
    // Mid-flight re-planning
    // ------------------------------------------------------------------

    /// At an epoch boundary, swap in a re-planned spec staged for this node
    /// (deferring the swap to a boundary keeps every node-epoch on a single
    /// strategy) and count the evaluation.  Returns the live spec and the
    /// absolute epoch to evaluate.
    pub(super) fn begin_epoch(
        &mut self,
        id: QueryId,
        now: SimTime,
    ) -> Option<(Rc<QuerySpec>, u64)> {
        let q = self.queries.get_mut(&id)?;
        let epoch = q.spec.continuous.map_or(0, |c| continuous_epoch(now, &c));
        if let Some(new_spec) = q.pending_spec.take() {
            if new_spec.kind != q.spec.kind {
                q.trace.replans += 1;
                q.trace.switches.push(format!(
                    "epoch {epoch}: {} -> {}",
                    strategy_label(&q.spec.kind),
                    strategy_label(&new_spec.kind)
                ));
                // The origin's result bookkeeping mirrors the live spec.
                if let Some(res) = self.results.get_mut(&id) {
                    res.spec = (*new_spec).clone();
                }
                q.spec = new_spec;
                q.kernels = None;
                q.agg.spec_swapped(epoch);
            }
        }
        q.trace.epochs_run += 1;
        Some((q.spec.clone(), epoch))
    }

    /// Stage `planned` for `id` when it differs from the live spec, and
    /// re-disseminate it: the origin applies it in the epoch evaluation that
    /// follows, every other node at its own next epoch boundary.  A
    /// trace-driven re-plan records the switch for the epoch it first
    /// applies in.  Returns whether the plan changed.
    fn stage_replan(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        planned: PlannedQuery,
        feedback_epoch: Option<u64>,
    ) -> bool {
        let Some(q) = self.queries.get_mut(&id) else { return false };
        if q.spec.kind == planned.kind {
            return false;
        }
        if let Some(epoch) = feedback_epoch {
            let (old, new) = (strategy_label(&q.spec.kind), strategy_label(&planned.kind));
            q.trace
                .switches
                .push(format!("epoch {epoch}: feedback: trace-corrected {old} -> {new}"));
        }
        let spec = Rc::new(QuerySpec {
            id,
            kind: planned.kind,
            output_names: planned.output_names,
            continuous: q.spec.continuous,
        });
        q.pending_spec = Some(spec.clone());
        self.dht.broadcast(ctx, PierPayload::Query(spec));
        self.process_upcalls(ctx);
        true
    }

    /// Re-plan a continuous SQL query this node originated against the
    /// current catalog.  Called at every epoch boundary; a no-op unless the
    /// catalog version moved since the last planning.
    pub(super) fn maybe_replan(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let Some((sql, planned_version)) = self.origin_sql.get(&id).cloned() else { return };
        let version = self.catalog.version();
        if version == planned_version {
            return;
        }
        let Ok(stmt) = parse_select(&sql) else { return };
        // Once the feedback loop has corrected this query, catalog-driven
        // re-plans keep the observed overlay: gossip moving the catalog must
        // not silently revert a trace-corrected order to catalog-only costs.
        let observed = match self.queries.get(&id).map(|q| &q.feedback) {
            Some(Feedback::Settled(Some(obs))) => Some(obs.clone()),
            _ => None,
        };
        let mut planner = Planner::new(&self.catalog);
        if let Some(obs) = observed.as_ref() {
            planner = planner.observed(obs).allow_bushy();
        }
        let Ok(planned) = planner.plan_select(&stmt) else { return };
        self.origin_sql.insert(id, (sql, version));
        self.stage_replan(ctx, id, planned, None);
    }

    /// One step of the trace-fed feedback loop, run by the origin of a
    /// continuous multi-way join at each epoch boundary (behind
    /// [`PierConfig::feedback`](super::PierConfig::feedback)).  Two phases,
    /// one epoch apart: after the query has run long enough to have
    /// meaningful counters, broadcast a trace request; at the following
    /// boundary, fold the merged network-wide trace into
    /// [`ObservedStats`] and re-plan with them overriding the catalog
    /// estimates.  One-shot per query: the corrected plan sticks (and later
    /// catalog-driven re-plans keep the overlay).
    pub(super) fn feedback_step(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        if !self.origin_sql.contains_key(&id) {
            return;
        }
        let Some(q) = self.queries.get_mut(&id) else { return };
        // Single-stage joins have no order to correct.
        if q.spec.kind.join_stages().map_or(0, |s| s.len()) < 2 {
            return;
        }
        match q.feedback {
            Feedback::Requested => self.feedback_replan(ctx, id),
            Feedback::Idle if q.epoch >= 2 => {
                q.feedback = Feedback::Requested;
                self.request_traces(ctx, id);
            }
            _ => {}
        }
    }

    /// Phase 2 of the feedback loop: turn the collected trace into observed
    /// statistics and re-plan the query with them.  If the corrected costs
    /// change the physical plan, the new spec is staged exactly like a
    /// catalog-driven re-plan and the plan cache entry for the SQL text is
    /// dropped so future identical submissions are costed afresh.
    fn feedback_replan(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let Some((sql, _)) = self.origin_sql.get(&id).cloned() else { return };
        let Some((_, trace)) = self.trace_acc.get(&id) else { return };
        let trace = trace.clone();
        let Some(q) = self.queries.get_mut(&id) else { return };
        q.feedback = Feedback::Settled(None);
        // The absolute epoch about to be evaluated — the one the corrected
        // spec first applies in at the origin (results are keyed by it).
        let epoch = q.spec.continuous.map_or(0, |c| continuous_epoch(ctx.now(), &c));
        let obs = fold_observed(&q.spec, q.epoch.max(1), &trace);
        if obs.is_empty() {
            return;
        }
        q.feedback = Feedback::Settled(Some(obs.clone()));
        let Ok(stmt) = parse_select(&sql) else { return };
        let Ok(planned) =
            Planner::new(&self.catalog).observed(&obs).allow_bushy().plan_select(&stmt)
        else {
            return;
        };
        let version = self.catalog.version();
        self.origin_sql.insert(id, (sql.clone(), version));
        if self.stage_replan(ctx, id, planned, Some(epoch)) {
            // The cached plan was produced from catalog-only estimates the
            // engine now knows to be wrong for this statement.
            self.plan_cache.invalidate(&sql);
            self.stats.feedback_replans += 1;
        }
    }
}

/// Short label of the part of a spec that re-planning can change, for the
/// trace's switch records.
fn strategy_label(kind: &QueryKind) -> String {
    match kind {
        QueryKind::Join { stages, aggregate, .. } => {
            let labels: Vec<String> = stages.iter().map(|s| format!("{:?}", s.strategy)).collect();
            let mut label = labels.join("+");
            match aggregate {
                Some(a) if a.hierarchical => label.push_str("+HierAgg"),
                Some(_) => label.push_str("+OriginAgg"),
                None => {}
            }
            label
        }
        QueryKind::Select { .. } => "Select".to_string(),
        QueryKind::Aggregate { .. } => "Aggregate".to_string(),
        QueryKind::Recursive { .. } => "Recursive".to_string(),
    }
}

/// Fold a network-wide merged execution trace into per-query observed
/// statistics the planner can substitute for catalog estimates.
///
/// The per-stage input counters are totals over `epochs` epochs, so base
/// cardinalities divide by the epoch count; a stage's join selectivity comes
/// from the standard independence model `matches = sel * left * right`
/// applied per epoch, i.e. `sel = matches_total * epochs / (left_total *
/// right_total)`.  The walk follows the stage DAG (`left_scan` roots and
/// `out_to` edges) so the left-side *placed set* of each stage — the key the
/// planner looks selectivities up under — is correct for bushy shapes too.
fn fold_observed(spec: &QuerySpec, epochs: u64, trace: &OpTrace) -> ObservedStats {
    let mut obs = ObservedStats::default();
    let QueryKind::Join { left_table, stages, .. } = &spec.kind else { return obs };
    let e = epochs.max(1) as f64;
    // feeder[k][side]: which earlier stage's output streams into (k, side).
    let mut feeder: Vec<[Option<usize>; 2]> = vec![[None, None]; stages.len()];
    for (i, st) in stages.iter().enumerate() {
        match st.out_to {
            Some((tk, side)) => feeder[tk as usize][side as usize] = Some(i),
            None if i + 1 < stages.len() => feeder[i + 1][0] = Some(i),
            None => {}
        }
    }
    // Tables joined by each stage's output, in DAG order (feeders always
    // precede the stages they feed).
    let mut acc: Vec<Vec<String>> = vec![Vec::new(); stages.len()];
    for (k, st) in stages.iter().enumerate() {
        let left_in = trace.stage_left_in.get(&(k as u8)).copied().unwrap_or(0) as f64;
        let right_in = trace.stage_right_in.get(&(k as u8)).copied().unwrap_or(0) as f64;
        let left_set: Vec<String> = if let Some(scan) = &st.left_scan {
            if left_in > 0.0 {
                obs.table_rows.insert(scan.table.clone(), left_in / e);
            }
            vec![scan.table.clone()]
        } else if let Some(f) = feeder[k][0] {
            acc[f].clone()
        } else {
            if left_in > 0.0 {
                obs.table_rows.insert(left_table.clone(), left_in / e);
            }
            vec![left_table.clone()]
        };
        let mut placed = left_set;
        if let Some(f) = feeder[k][1] {
            // A merge stage: its build side is another subchain's output, not
            // a base relation — no table cardinality or per-stage selectivity
            // to learn here.
            placed.extend(acc[f].iter().cloned());
        } else {
            // Only a plain symmetric-hash stage rehashes the right relation
            // in full: a Bloom-filtered side (stage-0 or inner semi-join)
            // arrives pre-filtered and a Fetch-Matches side is only ever the
            // matching tuples, so their counts would bias the model.
            let unbiased_right =
                matches!(st.strategy, JoinStrategy::SymmetricHash) && !st.inner_bloom;
            if unbiased_right {
                if right_in > 0.0 {
                    obs.table_rows.insert(st.right_table.clone(), right_in / e);
                }
                let matches = trace.stage_matches.get(&(k as u8)).copied().unwrap_or(0) as f64;
                if left_in > 0.0 && right_in > 0.0 {
                    let key = ObservedStats::placed_key(placed.iter().map(String::as_str));
                    let sel = (matches * e) / (left_in * right_in);
                    obs.stage_selectivity.insert((st.right_table.clone(), key), sel);
                }
            }
            placed.push(st.right_table.clone());
        }
        acc[k] = placed;
    }
    obs
}
