//! Flush layer: result buffering, staged point-to-point sends, and the
//! payload/message accounting every wire path charges.
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
use crate::tuple::Tuple;
use pier_simnet::{NodeAddr, WireSize};

/// Accounting stream of a staged point-to-point payload: which counters pay
/// for its wire message.  `Query` traffic bills the per-query message
/// counters (and the producer-side trace), `Engine` bills only the
/// node-level counters (partial relays for queries whose plan this node
/// has not received: their trace takes them over when the plan arrives),
/// and `Gossip` is observability traffic kept out of the query counters
/// entirely.
#[derive(Clone, Copy, Debug)]
pub(super) enum DirectStream {
    Query(QueryId),
    Engine,
    Gossip,
}

impl PierNode {
    /// Record `payload`'s bytes (and batch-ness) in the shipping counters,
    /// returning both.  Wire-message counts are added separately because a
    /// routed batch submission reports how many messages it actually put on
    /// the wire.
    pub(super) fn note_payload(&mut self, payload: &PierPayload) -> (u64, bool) {
        let bytes = payload.wire_size() as u64;
        let batch = matches!(
            payload,
            PierPayload::TupleBatch(_)
                | PierPayload::JoinBatch { .. }
                | PierPayload::ResultBatch { .. }
        );
        self.stats.bytes_shipped += bytes;
        self.stats.batches_sent += u64::from(batch);
        (bytes, batch)
    }

    /// Like [`note_payload`](Self::note_payload), but also mirrors the bytes
    /// and batch count into the query's execution trace, so `EXPLAIN ANALYZE`
    /// totals reconcile with the engine-wide counters.
    pub(super) fn note_query_payload(&mut self, id: QueryId, payload: &PierPayload) {
        let (bytes, batch) = self.note_payload(payload);
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.bytes_shipped += bytes;
            q.trace.batches_sent += u64::from(batch);
        }
    }

    /// Count wire messages against both the engine-wide counters and the
    /// query's trace.
    pub(super) fn add_query_msgs(&mut self, id: QueryId, n: u64) {
        self.stats.messages_sent += n;
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.messages_sent += n;
        }
    }

    /// Send one query payload straight to `dest` now (one wire message,
    /// charged to the query).
    pub(super) fn send_query_direct(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: QueryId,
        dest: NodeAddr,
        payload: PierPayload,
    ) {
        self.note_query_payload(id, &payload);
        self.add_query_msgs(id, 1);
        self.dht.send_direct(ctx, dest, payload);
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
        self.stats.results_sent += 1;
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
    /// payloads), so a StopQuery accounts for them while the query's trace
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

    /// Stage a query payload for the tick-drain flush, charging its bytes
    /// now and its wire message when it ships.
    pub(super) fn stage_query_direct(&mut self, id: QueryId, dest: NodeAddr, payload: PierPayload) {
        self.note_query_payload(id, &payload);
        self.pending_direct.push((dest, DirectStream::Query(id), payload));
    }

    /// Drain the staged point-to-point payloads: one direct message per
    /// payload, grouped per destination in staging order, each paid for by
    /// its own accounting stream.
    fn flush_direct(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_direct.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.pending_direct);
        let groups = group_by_key(
            staged.into_iter().map(|(dest, stream, payload)| (dest, (stream, payload))),
        );
        for (dest, entries) in groups {
            for (stream, payload) in entries {
                match stream {
                    DirectStream::Query(q) => self.add_query_msgs(q, 1),
                    DirectStream::Engine => self.stats.messages_sent += 1,
                    DirectStream::Gossip => {}
                }
                self.dht.send_direct(ctx, dest, payload);
            }
        }
    }
}
