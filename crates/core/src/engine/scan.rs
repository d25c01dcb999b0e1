//! Publish/scan layer: putting tuples into the DHT, local scans over a
//! node's soft state, the scan-batch memo, the compiled kernels every
//! per-epoch hot loop runs, and the streaming `SELECT` epoch.

use super::flush::charge;
use super::{group_by_key, Ctx, PierError, PierNode, BATCH_MAX};
use crate::catalog::TableDef;
use crate::column::{Column, ColumnarBatch};
use crate::encoding::TupleBlock;
use crate::kernel::Kernel;
use crate::payload::PierPayload;
use crate::query::{QueryId, QueryKind, QuerySpec};
use crate::trace::OpTrace;
use crate::tuple::Tuple;
use pier_dht::ResourceKey;
use pier_simnet::SimTime;
use std::rc::Rc;

/// Identity of one scan delta: table, scan time, window start, and the local
/// store's mutation count (contents can only change through a mutation, so
/// equal keys guarantee equal scan results).
pub(super) type ScanBatchKey = (String, SimTime, SimTime, u64);

/// The compiled pipeline for one query: every `Expr` the per-epoch hot
/// loops evaluate, compiled to a [`Kernel`] exactly once per (node, spec).
/// Re-planning invalidates the cache — the next epoch recompiles from the
/// swapped spec.
#[derive(Debug, Default)]
pub(super) struct CompiledKernels {
    /// The scan predicate: `Select`/`Aggregate` `WHERE`, or a join's
    /// pushed-down left-side filter.
    pub(super) filter: Option<Kernel>,
    /// `Select` projection kernels.
    project: Vec<Kernel>,
    /// Per join stage: the pushed-down scan filters and the residual
    /// predicate.
    pub(super) stages: Vec<StageKernels>,
}

#[derive(Debug)]
pub(super) struct StageKernels {
    pub(super) right_filter: Option<Kernel>,
    /// The pushed-down filter of a bushy subchain root's own left scan
    /// ([`BranchScan::filter`](crate::query::BranchScan)).
    pub(super) scan_filter: Option<Kernel>,
    /// The stage's residual (non-equi) predicate, applied to joined rows.
    pub(super) post: Option<Kernel>,
}

impl CompiledKernels {
    fn from_spec(spec: &QuerySpec) -> Self {
        match &spec.kind {
            QueryKind::Select { filter, project, .. } => CompiledKernels {
                filter: filter.as_ref().map(Kernel::compile),
                project: Kernel::compile_all(project),
                stages: Vec::new(),
            },
            QueryKind::Aggregate { filter, .. } => CompiledKernels {
                filter: filter.as_ref().map(Kernel::compile),
                ..CompiledKernels::default()
            },
            QueryKind::Join { left_filter, stages, .. } => CompiledKernels {
                filter: left_filter.as_ref().map(Kernel::compile),
                project: Vec::new(),
                stages: stages
                    .iter()
                    .map(|s| StageKernels {
                        right_filter: s.right_filter.as_ref().map(Kernel::compile),
                        scan_filter: s
                            .left_scan
                            .as_ref()
                            .and_then(|b| b.filter.as_ref())
                            .map(Kernel::compile),
                        post: s.post_filter.as_ref().map(Kernel::compile),
                    })
                    .collect(),
            },
            QueryKind::Recursive { .. } => CompiledKernels::default(),
        }
    }

    /// The pushed-down right-side filter of one stage.
    pub(super) fn right_filter(&self, stage: usize) -> Option<&Kernel> {
        self.stages.get(stage).and_then(|s| s.right_filter.as_ref())
    }
}

impl PierNode {
    // ------------------------------------------------------------------
    // Publishing
    // ------------------------------------------------------------------

    fn table_def(&self, table: &str) -> Result<&TableDef, PierError> {
        self.catalog.get(table).ok_or_else(|| PierError::new(format!("unknown table '{table}'")))
    }

    /// A fresh instance id for a published item: unique per (node, publish).
    fn next_instance(&mut self) -> u64 {
        self.publish_seq += 1;
        ((self.addr.0 as u64) << 32) | (self.publish_seq & 0xFFFF_FFFF)
    }

    /// Publish a tuple into the DHT under its table's partitioning key.
    pub fn publish(
        &mut self,
        ctx: &mut Ctx<'_>,
        table: &str,
        tuple: Tuple,
    ) -> Result<(), PierError> {
        self.publish_batch(ctx, table, vec![tuple])
    }

    /// Publish many tuples of one table with coalesced wire traffic: tuples
    /// sharing a partitioning value travel (and are stored) as a single
    /// `TupleBatch`, and batches whose first routing hop coincides share one
    /// wire message.  The traffic belongs to no query: it is charged to a
    /// trace of its own, which the node's counters absorb.
    pub fn publish_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        table: &str,
        tuples: Vec<Tuple>,
    ) -> Result<(), PierError> {
        let def = self.table_def(table)?;
        let (name, ttl) = (def.name.clone(), def.ttl);
        let groups = group_by_key(tuples.into_iter().map(|t| (def.resource_of(&t), t)));
        let mut items = Vec::new();
        let mut wire = OpTrace::default();
        for (resource, group) in groups {
            for chunk in group.chunks(BATCH_MAX) {
                let key = ResourceKey::new(name.clone(), resource.clone(), self.next_instance());
                let payload = if chunk.len() == 1 {
                    PierPayload::Tuple(chunk[0].clone())
                } else {
                    PierPayload::TupleBatch(TupleBlock::columnar(chunk.to_vec()))
                };
                self.stats.tuples_published += chunk.len() as u64;
                charge(&mut wire, &payload, 0);
                items.push((key, payload, ttl));
            }
        }
        wire.messages_sent = self.dht.put_batch(ctx, items) as u64;
        self.stats.add_trace(&wire);
        self.process_upcalls(ctx);
        Ok(())
    }

    /// Store a tuple locally (no routing).  Monitoring data *about this node*
    /// is published this way: scans still see it, and it expires like any
    /// other soft state, but no network traffic is spent placing it.
    pub fn publish_local(
        &mut self,
        now: SimTime,
        table: &str,
        tuple: Tuple,
    ) -> Result<(), PierError> {
        let def = self.table_def(table)?;
        let (name, resource, ttl) = (def.name.clone(), def.resource_of(&tuple), def.ttl);
        let key = ResourceKey::new(name, resource, self.next_instance());
        self.dht.local_put(now, key, PierPayload::Tuple(tuple), ttl);
        self.stats.tuples_published += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scans
    // ------------------------------------------------------------------

    /// The tuples of `table` this node stores that are live at `now` and
    /// were stored at or after `since`, borrowed in place.  A stored item
    /// carries one tuple or a same-key batch; scans read through the
    /// difference.
    pub(super) fn stored_rows(&self, table: &str, now: SimTime, since: SimTime) -> Vec<&Tuple> {
        let items = self.dht.store().lscan_since(table, now, since);
        items.into_iter().flat_map(|item| item.value.tuples()).collect()
    }

    /// The columnar form of a scan delta, shared across every query that
    /// scans the same `(table, now, since)` window while the local store is
    /// unchanged — with many concurrent monitoring queries over one table
    /// (PIER's target workload), the row-to-column pivot happens once and
    /// the per-query cost is just the kernels.  The memo is consulted before
    /// the store is read; a miss pivots the stored tuples in place.
    fn batch_for_scan(&mut self, table: &str, now: SimTime, since: SimTime) -> Rc<ColumnarBatch> {
        const MAX_SCAN_BATCHES: usize = 8;
        let muts = self.dht.store_mutations();
        if let Some((_, batch)) = self
            .scan_batches
            .iter()
            .find(|(k, _)| k.0 == table && k.1 == now && k.2 == since && k.3 == muts)
        {
            return batch.clone();
        }
        let batch = Rc::new(ColumnarBatch::from_row_refs(&self.stored_rows(table, now, since)));
        if self.scan_batches.len() >= MAX_SCAN_BATCHES {
            self.scan_batches.remove(0);
        }
        self.scan_batches.push(((table.to_string(), now, since, muts), batch.clone()));
        batch
    }

    /// Count `rows` tuples scanned on behalf of a query in its execution
    /// trace.
    pub(super) fn count_scanned(&mut self, id: QueryId, rows: usize) {
        if let Some(q) = self.queries.get_mut(&id) {
            q.trace.tuples_scanned += rows as u64;
        }
    }

    /// Scan a table on behalf of a query and apply a pushed-down predicate,
    /// compiled to `kernel`, before any tuple is shipped (the optimizer
    /// places per-side join filters here).  The filter runs as a
    /// selection-vector kernel over the memoized columnar batch, and only
    /// the rows it keeps are copied out of the store, in store order.  The
    /// trace counts the tuples *scanned*, before the filter drops any.
    pub(super) fn scan_filtered_traced(
        &mut self,
        id: QueryId,
        table: &str,
        now: SimTime,
        since: SimTime,
        kernel: Option<&Kernel>,
    ) -> Vec<Tuple> {
        let Some(k) = kernel else {
            let rows: Vec<Tuple> =
                self.stored_rows(table, now, since).into_iter().cloned().collect();
            self.count_scanned(id, rows.len());
            return rows;
        };
        let batch = self.batch_for_scan(table, now, since);
        self.count_scanned(id, batch.num_rows());
        let sel = k.filter(&batch, &batch.full_selection());
        if sel.is_empty() {
            return Vec::new();
        }
        let rows = self.stored_rows(table, now, since);
        sel.iter().map(|&j| rows[j as usize].clone()).collect()
    }

    /// Scan `table` into a columnar batch and run the query's scan filter
    /// kernel over it: the shared first step of `SELECT` and aggregate
    /// epochs.  Returns the kernels, the batch and the selection vector.
    pub(super) fn scan_selected(
        &mut self,
        id: QueryId,
        table: &str,
        now: SimTime,
        since: SimTime,
    ) -> Option<(Rc<CompiledKernels>, Rc<ColumnarBatch>, Vec<u32>)> {
        let batch = self.batch_for_scan(table, now, since);
        self.count_scanned(id, batch.num_rows());
        let kern = self.query_kernels(id)?;
        let sel = match &kern.filter {
            Some(k) => k.filter(&batch, &batch.full_selection()),
            None => batch.full_selection(),
        };
        Some((kern, batch, sel))
    }

    /// The query's compiled kernel pipeline, building it on first use.
    pub(super) fn query_kernels(&mut self, id: QueryId) -> Option<Rc<CompiledKernels>> {
        let q = self.queries.get_mut(&id)?;
        if q.kernels.is_none() {
            q.kernels = Some(Rc::new(CompiledKernels::from_spec(&q.spec)));
        }
        q.kernels.clone()
    }

    /// One `SELECT` epoch: batch → filter kernel → selection vector →
    /// projection kernels, then one output tuple per surviving row.
    pub(super) fn run_select(
        &mut self,
        ctx: &mut Ctx<'_>,
        spec: &QuerySpec,
        epoch: u64,
        now: SimTime,
        since: SimTime,
    ) {
        let Some((kern, batch, sel)) =
            self.scan_selected(spec.id, spec.kind.primary_table(), now, since)
        else {
            return;
        };
        let cols: Vec<Column> = kern.project.iter().map(|k| k.eval(&batch, &sel)).collect();
        for j in 0..sel.len() {
            let out = Tuple::new(cols.iter().map(|c| c.value_at(j)).collect());
            self.send_result(ctx, spec, epoch, out);
        }
    }
}
