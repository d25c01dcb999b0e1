//! Flush layer: result buffering, staged point-to-point sends, and the one
//! charge path every wire payload pays through.
//!
//! Result rows produced during one engine tick coalesce per (query, epoch)
//! and ship when the tick's upcall processing drains (or early at
//! [`BATCH_MAX`] rows); staged direct payloads ship at the same drain, one
//! message each.  Nothing is deferred across ticks, so staging adds no
//! latency.

use super::{group_by_key, Ctx, PierNode, BATCH_MAX};
use crate::encoding::TupleBlock;
use crate::payload::PierPayload;
use crate::query::{QueryId, QuerySpec, ResultRow};
use crate::trace::OpTrace;
use crate::tuple::Tuple;
use pier_simnet::{NodeAddr, WireSize};

/// Charge one payload handed to the DHT, and the `msgs` wire messages that
/// carry it, to `trace`: its bytes, and a batch if it coalesces tuples.  A
/// query's payloads charge its trace, relayed partials the relay trace, and
/// publishes a trace the node's counters absorb.  A routed submission
/// charges `0` and adds the messages it reports having put on the wire.
pub(super) fn charge(trace: &mut OpTrace, payload: &PierPayload, msgs: u64) {
    trace.bytes_shipped += payload.wire_size() as u64;
    trace.batches_sent += u64::from(matches!(
        payload,
        PierPayload::TupleBatch(_)
            | PierPayload::JoinBatch { .. }
            | PierPayload::ResultBatch { .. }
    ));
    trace.messages_sent += msgs;
}

impl PierNode {
    /// [`charge`] a payload of query `id` to the query's trace.
    pub(super) fn charge_query(&mut self, id: QueryId, payload: &PierPayload, msgs: u64) {
        if let Some(q) = self.queries.get_mut(&id) {
            charge(&mut q.trace, payload, msgs);
        }
    }

    /// Buffer one result row for the query origin; the tick-drain flush
    /// ships one message per (origin, query, epoch), or earlier at
    /// [`BATCH_MAX`] rows.
    pub(super) fn send_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        spec: &QuerySpec,
        epoch: u64,
        tuple: Tuple,
    ) {
        if let Some(q) = self.queries.get_mut(&spec.id) {
            q.trace.results_sent += 1;
            *q.trace.epoch_rows.entry(epoch).or_insert(0) += 1;
        }
        let key = (spec.id, epoch);
        let flush_now = {
            let rows = match self.pending_results.iter_mut().find(|(k, _)| *k == key) {
                Some((_, rows)) => rows,
                None => {
                    self.pending_results.push((key, Vec::new()));
                    &mut self.pending_results.last_mut().expect("just pushed").1
                }
            };
            rows.push(tuple);
            rows.len() >= BATCH_MAX
        };
        if flush_now {
            self.flush_results(ctx);
        }
    }

    /// Tick-drain flush: ship every buffered result row and every staged
    /// direct payload.
    pub(super) fn flush_results(&mut self, ctx: &mut Ctx<'_>) {
        let results = std::mem::take(&mut self.pending_results);
        self.ship_results(ctx, results);
    }

    /// Ship only `id`'s buffered result rows (plus the staged direct
    /// payloads), so a StopQuery charges them to the query's trace while it
    /// is still live.
    pub(super) fn flush_query(&mut self, ctx: &mut Ctx<'_>, id: QueryId) {
        let (results, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.pending_results).into_iter().partition(|((q, _), _)| *q == id);
        self.pending_results = rest;
        self.ship_results(ctx, results);
    }

    /// Stage one message per (query, epoch) — a plain `Result` for a single
    /// row, a `ResultBatch` otherwise — and drain the staged direct payloads.
    fn ship_results(&mut self, ctx: &mut Ctx<'_>, results: Vec<((QueryId, u64), Vec<Tuple>)>) {
        for ((query, epoch), mut rows) in results {
            let payload = if rows.len() == 1 {
                let tuple = rows.pop().expect("len checked");
                PierPayload::Result(ResultRow { query, epoch, tuple })
            } else {
                PierPayload::ResultBatch { query, epoch, rows: TupleBlock::columnar(rows) }
            };
            self.stage_query_direct(query, query.origin(), payload);
        }
        self.flush_direct(ctx);
    }

    /// Stage a query payload for the tick-drain flush, charging it and its
    /// wire message now.
    pub(super) fn stage_query_direct(&mut self, id: QueryId, dest: NodeAddr, payload: PierPayload) {
        self.charge_query(id, &payload, 1);
        self.pending_direct.push((dest, payload));
    }

    /// Drain the staged point-to-point payloads: one direct message per
    /// payload, grouped per destination in staging order.
    fn flush_direct(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_direct.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.pending_direct);
        for (dest, payloads) in group_by_key(staged) {
            for payload in payloads {
                self.dht.send_direct(ctx, dest, payload);
            }
        }
    }
}
