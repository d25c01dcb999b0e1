//! Join layer: the per-epoch walk of the join DAG, rehash into stage
//! namespaces, Fetch-Matches probes, stage DAG routing, the columnar
//! build/probe at join sites, and recursive expansion.

use super::aggregate::tracks_credit;
use super::bloom::bloom_gated;
use super::{epoch_since, group_by_key, Ctx, PierNode, TimerPurpose, BATCH_MAX};
use crate::column::ColumnarBatch;
use crate::dataflow::join::{probe_joined, JoinBuild};
use crate::dataflow::ops::GroupAggregator;
use crate::encoding::TupleBlock;
use crate::payload::{Credit, PierPayload};
use crate::query::{join_side_fed, JoinStrategy, QueryId, QueryKind, QuerySpec};
use crate::tuple::Tuple;
use crate::value::Value;
use pier_dht::ResourceKey;
use pier_simnet::SimTime;
use std::collections::{HashMap, HashSet};

/// One query's join-site state at one node.
#[derive(Default)]
pub(super) struct JoinQuery {
    /// Join-site state per (stage, epoch): both sides' arrivals as columnar
    /// chunks, indexed by join-key value.
    builds: HashMap<(u8, u64), JoinBuild>,
    /// Recursive queries: vertices already expanded at this node.
    visited: HashSet<String>,
}

/// One stage side's rehash payloads, built but not yet sent, so that the
/// credit they carry can be stamped first.
pub(super) struct Rehash {
    stage: u8,
    side: u8,
    /// Tuples the payloads carry.
    shipped: u64,
    items: Vec<(ResourceKey, PierPayload)>,
}

/// The query-and-stage-scoped DHT namespace a join stage's tuples rehash
/// into.  Scoping by stage keeps the chain's intermediate shipments of one
/// key value from colliding across stages.
fn join_namespace(id: QueryId, stage: u8) -> String {
    format!("pier:join:{id}:{stage}")
}

impl PierNode {
    /// One join epoch at this node: scan and ship every base-table input of
    /// the stage DAG.  A credit-tracked query holds its rehashes until all
    /// are built, splits the node's unit of credit over them, then sends
    /// each stage's batch as an untracked query does.
    pub(super) fn run_join(
        &mut self,
        ctx: &mut Ctx<'_>,
        spec: &QuerySpec,
        epoch: u64,
        now: SimTime,
        since: SimTime,
    ) {
        let QueryKind::Join { left_table, stages, .. } = &spec.kind else { return };
        let id = spec.id;
        let kern = self.query_kernels(id);
        let mut held = tracks_credit(spec).then(Vec::new);
        // Right sides first: every stage's base right relation is scanned
        // and rehashed into that stage's namespace.  Fetch-Matches stages
        // are probed on demand, a merge stage's side 1 is another stage's
        // streamed output, and a Bloom-gated right side waits for the
        // stage's combined filter (or the hold-down fallback).
        for (k, stage) in stages.iter().enumerate() {
            if stage.strategy == JoinStrategy::FetchMatches || join_side_fed(stages, k as u8, 1) {
                continue;
            }
            if bloom_gated(k, stage) {
                let delay = self.config.bloom_fallback_delay;
                self.arm_timer(ctx, delay, TimerPurpose::BloomFallback(id, k as u8, epoch));
                continue;
            }
            let filter = kern.as_deref().and_then(|c| c.right_filter(k));
            let rows = self.scan_filtered_traced(id, &stage.right_table, now, since, filter);
            let out = self.build_rehash(spec, k as u8, epoch, 1, rows);
            self.send_or_hold(ctx, id, &mut held, Some(out));
        }
        // Bushy subchain roots: a stage whose left side is its own
        // base-table scan (rather than the previous stage's output) starts
        // a concurrent subchain — scan and feed it exactly like the stage-0
        // driving side.
        for (k, stage) in stages.iter().enumerate() {
            let Some(scan) = &stage.left_scan else { continue };
            let filter =
                kern.as_deref().and_then(|c| c.stages.get(k).and_then(|s| s.scan_filter.as_ref()));
            let rows = self.scan_filtered_traced(id, &scan.table, now, since, filter);
            let out = self.feed_left(ctx, spec, k as u8, epoch, since, rows);
            self.send_or_hold(ctx, id, &mut held, out);
        }
        // Driving side: the stage-0 left input is a base-table scan.  A
        // Bloom join summarizes its keys for the origin (phase 1) after
        // shipping them.
        let filter = kern.as_deref().and_then(|c| c.filter.as_ref());
        let rows = self.scan_filtered_traced(id, left_table, now, since, filter);
        let summary = (stages[0].strategy == JoinStrategy::BloomFilter)
            .then(|| self.left_summary(&stages[0], &rows));
        let out = self.feed_left(ctx, spec, 0, epoch, since, rows);
        self.send_or_hold(ctx, id, &mut held, out);
        if let Some(words) = summary {
            self.send_summary(ctx, id, 0, epoch, words);
        }
        // Hierarchical aggregate over the join: the origin, its root, seeds
        // an empty partial for the epoch so it always finalizes it — a
        // global aggregate over a matchless epoch still reports its one
        // "empty" row (COUNT = 0) and the epoch's contributor count.  Nodes
        // with actual matches contribute through the final stage.
        if spec.origin() == self.addr && spec.kind.join_aggregate().is_some_and(|a| a.hierarchical)
        {
            self.absorb_join_partials(ctx, id, epoch, Vec::new());
        }
        if let Some(mut held) = held {
            self.stamp_credit(ctx, id, epoch, Credit::UNIT, &mut held);
            for out in held {
                self.send_rehash(ctx, id, out);
            }
        }
    }

    /// Send a scan-time rehash now, or hold it for stamping when the query
    /// is credit-tracked.
    fn send_or_hold(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        held: &mut Option<Vec<Rehash>>,
        out: Option<Rehash>,
    ) {
        let Some(out) = out else { return };
        match held {
            Some(held) => held.push(out),
            None => self.send_rehash(ctx, id, out),
        }
    }

    /// Feed rows into a stage's probing (left) side: Fetch-Matches stages
    /// probe the right table from here, reading the window `since` the
    /// epoch's scans read; every other strategy rehashes them into the
    /// stage's namespace (returned for the caller to send).
    fn feed_left(
        &mut self,
        ctx: &mut Ctx<'_>,
        spec: &QuerySpec,
        stage: u8,
        epoch: u64,
        since: SimTime,
        rows: Vec<Tuple>,
    ) -> Option<Rehash> {
        let st = spec.kind.join_stages().and_then(|s| s.get(stage as usize))?;
        if st.strategy == JoinStrategy::FetchMatches {
            self.probe_stage(ctx, spec, stage, epoch, since, rows);
            return None;
        }
        Some(self.build_rehash(spec, stage, epoch, 0, rows))
    }

    /// Build one side of a join stage's rehash into the stage's DHT
    /// namespace.  The side's join key is evaluated over the full input
    /// tuple, then only its ship columns travel (join-side projection
    /// pushdown).  Tuples coalesce per join-key value — every tuple with the
    /// same key value travels to the same site — so one `JoinBatch` per
    /// (destination, query, stage, epoch) replaces one message per tuple.
    pub(super) fn build_rehash(
        &mut self,
        spec: &QuerySpec,
        stage: u8,
        epoch: u64,
        side: u8,
        rows: Vec<Tuple>,
    ) -> Rehash {
        let id = spec.id;
        let mut out = Rehash { stage, side, shipped: 0, items: Vec::new() };
        let Some(st) = spec.kind.join_stages().and_then(|s| s.get(stage as usize)) else {
            return out;
        };
        let (key_expr, ship_cols) = if side == 0 {
            (&st.left_key, &st.left_ship_cols)
        } else {
            (&st.right_key, &st.right_ship_cols)
        };
        let namespace = join_namespace(id, stage);
        let pairs = rows
            .iter()
            .map(|row| (key_expr.eval(row), row))
            .filter(|(key, _)| !key.is_null())
            .map(|(key, row)| (key, row.project(ship_cols)));
        for (key, group) in group_by_key(pairs) {
            let resource = ResourceKey::singleton(namespace.clone(), key.partition_string());
            for chunk in group.chunks(BATCH_MAX) {
                out.shipped += chunk.len() as u64;
                let key = key.clone();
                let credit = Credit::NONE;
                let payload = if chunk.len() == 1 {
                    let tuple = chunk[0].clone();
                    PierPayload::JoinTuple { query: id, stage, epoch, side, key, tuple, credit }
                } else {
                    let tuples = TupleBlock::columnar(chunk.to_vec());
                    PierPayload::JoinBatch { query: id, stage, epoch, side, key, tuples, credit }
                };
                out.items.push((resource.clone(), payload));
            }
        }
        out
    }

    /// Send a built rehash: one coalesced DHT submission, charged to the
    /// query.
    pub(super) fn send_rehash(&mut self, ctx: &mut Ctx<'_>, id: QueryId, out: Rehash) {
        let Rehash { stage, side, shipped, items } = out;
        for (_, payload) in &items {
            self.charge_query(id, payload, 0);
        }
        let sent = self.dht.send_to_key_batch(ctx, items) as u64;
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.messages_sent += sent;
            q.trace.tuples_shipped += shipped;
            *q.trace.stage_shipped.entry(stage).or_insert(0) += shipped;
            if side == 1 {
                // Right-relation rehash wire messages per stage: the
                // numerator of the Bloom win (`EXPLAIN ANALYZE` renders the
                // rate).
                *q.trace.stage_rehash_msgs.entry(stage).or_insert(0) += sent;
            }
        }
    }

    /// Stamp `credit` over the payloads of `outs`, one part each.  A node
    /// that holds groups for the epoch not yet sent keeps a share back in
    /// its pool, so the groups never travel without credit; with nothing to
    /// stamp, the pool keeps all of it.  A credit too finely divided to
    /// cover the payloads is withheld, so the epoch can only close on the
    /// timer.
    fn stamp_credit(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        epoch: u64,
        credit: Credit,
        outs: &mut [Rehash],
    ) {
        let mut payloads: Vec<&mut PierPayload> =
            outs.iter_mut().flat_map(|o| o.items.iter_mut().map(|(_, p)| p)).collect();
        if payloads.is_empty() {
            self.pool_credit(ctx, id, epoch, credit);
            return;
        }
        let keep = usize::from(self.holds_groups(id, epoch));
        let Some(mut parts) = credit.split(payloads.len() + keep) else { return };
        let kept = if keep == 1 { parts.pop() } else { None };
        for (payload, part) in payloads.iter_mut().zip(parts) {
            payload.set_credit(part);
        }
        if let Some(kept) = kept {
            self.pool_credit(ctx, id, epoch, kept);
        }
    }

    /// Send one Fetch-Matches DHT probe per input tuple against a stage's
    /// (join-key-partitioned) right table.  A continuous query's probe reads
    /// only the items stored since `since`, as its scans do: soft state is
    /// re-published, and every renewal stores one more matching instance.
    /// The tuples never leave this node; probe answers continue in
    /// [`on_get_result`](Self::on_get_result).
    fn probe_stage(
        &mut self,
        ctx: &mut Ctx<'_>,
        spec: &QuerySpec,
        stage: u8,
        epoch: u64,
        since: SimTime,
        rows: Vec<Tuple>,
    ) {
        let id = spec.id;
        let Some(st) = spec.kind.join_stages().and_then(|s| s.get(stage as usize)) else { return };
        let window = spec.continuous.map(|_| since);
        let mut probes = 0u64;
        for row in rows {
            let key = st.left_key.eval(&row);
            if key.is_null() {
                continue;
            }
            let resource = ResourceKey::singleton(st.right_table.clone(), key.partition_string());
            let req = self.dht.get(ctx, resource, window);
            self.pending_fetch.insert(req, (id, stage, epoch, row));
            probes += 1;
        }
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.probes_sent += probes;
            *q.trace.stage_probes.entry(stage).or_insert(0) += probes;
            // Each probe carries one probing-side row into this stage.
            *q.trace.stage_left_in.entry(stage).or_insert(0) += probes;
            // A probe is a routed request plus its response: two wire
            // messages the engine initiates.  Counting them keeps
            // Fetch-Matches honest in the message counters the cost model
            // optimizes (a probe's FETCH_PROBE_COST is priced against
            // exactly this traffic).
            q.trace.messages_sent += probes * 2;
        }
    }

    /// Continue with a stage's matched (post-filtered) concat rows: the
    /// final stage projects and streams results to the origin (or folds
    /// them into the aggregation plane); other stages narrow to their
    /// `out_cols` and hand the intermediates to the stage their DAG edge
    /// points at.
    fn emit_stage_rows(
        &mut self,
        ctx: &mut Ctx<'_>,
        spec: &QuerySpec,
        stage: u8,
        epoch: u64,
        rows: Vec<Tuple>,
    ) {
        let QueryKind::Join { stages, project, aggregate, .. } = &spec.kind else { return };
        if let Some(q) = self.queries.get_mut(&spec.id) {
            q.trace.join_matches += rows.len() as u64;
            *q.trace.stage_matches.entry(stage).or_insert(0) += rows.len() as u64;
        }
        let st = &stages[stage as usize];
        if st.out_to.is_none() && stage as usize + 1 == stages.len() {
            match aggregate {
                // An aggregate terminating the chain: fold this node's
                // matched rows into a per-(query, epoch) partial state and
                // hand it to the hierarchical aggregation plane — partials
                // climb toward the origin, combining at every hop, instead
                // of raw rows streaming to it.
                Some(agg) if agg.hierarchical => {
                    if rows.is_empty() {
                        return;
                    }
                    let mut acc = GroupAggregator::new(agg.group_exprs.clone(), agg.aggs.clone());
                    let batch = ColumnarBatch::from_rows(&rows);
                    acc.update_batch(&batch, &batch.full_selection());
                    self.absorb_join_partials(ctx, spec.id, epoch, acc.take_partials());
                }
                // Plain results, or the raw-row baseline (`hierarchical:
                // false`) that the origin aggregates.
                _ => {
                    for row in rows {
                        let out = Tuple::new(project.iter().map(|e| e.eval(&row)).collect());
                        self.send_result(ctx, spec, epoch, out);
                    }
                }
            }
            return;
        }
        // DAG routing: a stage's output goes where its `out_to` edge points
        // (a bushy subchain tail feeds the merge stage's build side, rehashed
        // by the target's right key so both subchains meet at the same
        // sites); the chain default is the next stage's probing side.
        let (target, side) = st.out_to.unwrap_or((stage + 1, 0));
        let outs: Vec<Tuple> = rows.iter().map(|r| r.project(&st.out_cols)).collect();
        let out = if side == 1 {
            Some(self.build_rehash(spec, target, epoch, 1, outs))
        } else {
            self.feed_left(ctx, spec, target, epoch, epoch_since(spec, epoch), outs)
        };
        if let Some(mut out) = out {
            // The outputs take the pool: credit this site received for the
            // epoch travels on with them.
            let credit = self.take_pool(spec.id, epoch);
            self.stamp_credit(ctx, spec.id, epoch, credit, std::slice::from_mut(&mut out));
            self.send_rehash(ctx, spec.id, out);
        }
    }

    /// A rehashed join delivery at this join site: pool its credit, store
    /// it in the stage's build and probe the other side's stored chunks.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_join_tuples(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        stage: u8,
        epoch: u64,
        side: u8,
        key: Value,
        tuples: Vec<Tuple>,
        credit: Credit,
    ) {
        // Pooled before anything can drop the delivery, so its credit
        // always returns.
        self.pool_credit(ctx, id, epoch, credit);
        let Some(q) = self.queries.get(&id) else { return };
        let spec = q.spec.clone();
        let Some(st) = spec.kind.join_stages().and_then(|s| s.get(stage as usize)) else {
            return;
        };
        // Tuples produced under a superseded spec (mid-flight re-planning
        // briefly mixes layouts across nodes) may not match this stage's
        // column layout; drop them rather than join garbage.  The same
        // guard applies below to tuples *stored* before this node swapped
        // specs — the hash tables are never purged on a swap.
        let expect = if side == 0 { st.left_ship_cols.len() } else { st.right_ship_cols.len() };
        let other_expect =
            if side == 0 { st.right_ship_cols.len() } else { st.left_ship_cols.len() };
        let tuples: Vec<Tuple> = tuples.into_iter().filter(|t| t.arity() == expect).collect();
        if tuples.is_empty() {
            return;
        }
        // Receiver-side input cardinalities feed the trace-fed cost model:
        // counting here (post arity filter) observes exactly the rows the
        // join consumed, wherever in the DAG they came from.
        if let Some(q) = self.queries.get_mut(&id) {
            let per_side =
                if side == 0 { &mut q.trace.stage_left_in } else { &mut q.trace.stage_right_in };
            *per_side.entry(stage).or_insert(0) += tuples.len() as u64;
        }

        // Inner-stage Bloom phase 1: every intermediate key that reaches
        // this join site makes the stage's summary (the batch shares one
        // key, so this is one filter insertion per delivery).
        if side == 0 && stage > 0 && bloom_gated(stage as usize, st) {
            self.note_inner_key(ctx, id, stage, epoch, st.bloom_bits, &key);
        }

        // Build/probe: the batch pivots into the stage's columnar build side
        // once, and the probe runs as a single-pass kernel over the other
        // side's stored chunks — no per-row `Value` clones, no per-tuple hash
        // lookups.  Output is incoming-major over the stored rows in arrival
        // order.
        let kern = self.query_kernels(id);
        let post = kern
            .as_deref()
            .and_then(|c| c.stages.get(stage as usize))
            .and_then(|s| s.post.as_ref());
        let Some(q) = self.queries.get_mut(&id) else { return };
        let build = q.join.builds.entry((stage, epoch)).or_default();
        let incoming = build.insert(side as usize, &key, &tuples);
        let outputs = probe_joined(
            &incoming,
            side,
            build.matches(1 - side as usize, &key),
            other_expect,
            post,
        );
        self.emit_stage_rows(ctx, &spec, stage, epoch, outputs);
        self.process_upcalls(ctx);
    }

    /// A Fetch-Matches probe answer: join the probing row with every
    /// matching (and right-filter-passing) stored tuple.
    pub(super) fn on_get_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        req_id: u64,
        items: Vec<(ResourceKey, PierPayload)>,
    ) {
        let Some((id, stage, epoch, left_tuple)) = self.pending_fetch.remove(&req_id) else {
            return;
        };
        let Some(q) = self.queries.get(&id) else { return };
        let spec = q.spec.clone();
        let Some(st) = spec.kind.join_stages().and_then(|s| s.get(stage as usize)) else {
            return;
        };
        let probe_key = st.left_key.eval(&left_tuple);
        let mut outputs = Vec::new();
        let mut right_in = 0u64;
        for (_, payload) in items {
            for right_tuple in payload.tuples() {
                if !st.right_key.eval(right_tuple).sql_eq(&probe_key)
                    || st.right_filter.as_ref().is_some_and(|f| !f.matches(right_tuple))
                {
                    continue;
                }
                right_in += 1;
                let joined = left_tuple.concat(right_tuple);
                if st.post_filter.as_ref().is_none_or(|f| f.matches(&joined)) {
                    outputs.push(joined);
                }
            }
        }
        if right_in > 0 {
            if let Some(q) = self.queries.get_mut(&id) {
                *q.trace.stage_right_in.entry(stage).or_insert(0) += right_in;
            }
        }
        self.emit_stage_rows(ctx, &spec, stage, epoch, outputs);
        self.process_upcalls(ctx);
    }

    // ------------------------------------------------------------------
    // Recursive queries
    // ------------------------------------------------------------------

    /// Send one expansion request for `vertex` to the node holding its
    /// outgoing edges.
    fn send_expand(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        table: &str,
        vertex: Value,
        depth: u32,
    ) {
        let resource = ResourceKey::singleton(table.to_string(), vertex.partition_string());
        let payload = PierPayload::Expand { query: id, vertex, depth };
        self.charge_query(id, &payload, 0);
        let sent = self.dht.send_to_key(ctx, resource, payload);
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.expands_sent += 1;
            q.trace.messages_sent += sent as u64;
        }
    }

    pub(super) fn seed_recursive(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let Some(q) = self.queries.get(&id) else { return };
        let QueryKind::Recursive { edges_table, source, .. } = &q.spec.kind else { return };
        let (edges_table, source) = (edges_table.clone(), source.clone());
        self.send_expand(ctx, id, &edges_table, source, 0);
        self.process_upcalls(ctx);
    }

    pub(super) fn on_expand(&mut self, ctx: &mut Ctx<'_>, id: QueryId, vertex: Value, depth: u32) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        let spec = q.spec.clone();
        let QueryKind::Recursive { edges_table, src_col, dst_col, max_depth, .. } = &spec.kind
        else {
            return;
        };
        if !q.join.visited.insert(vertex.partition_string()) {
            return;
        }
        // Only the edges leaving `vertex` are copied out of the store; every
        // stored edge counts as scanned.
        let rows = self.stored_rows(edges_table, ctx.now(), SimTime::ZERO);
        let scanned = rows.len();
        let edges: Vec<Tuple> =
            rows.into_iter().filter(|e| e.get(*src_col).sql_eq(&vertex)).cloned().collect();
        self.count_scanned(id, scanned);
        let mut to_expand = Vec::new();
        for edge in edges {
            let dst = edge.get(*dst_col).clone();
            let row = Tuple::new(vec![vertex.clone(), dst.clone(), Value::Int(depth as i64 + 1)]);
            self.send_result(ctx, &spec, 0, row);
            if depth + 1 < *max_depth {
                to_expand.push(dst);
            }
        }
        for dst in to_expand {
            self.send_expand(ctx, id, edges_table, dst, depth + 1);
        }
        self.process_upcalls(ctx);
    }
}
