//! The replay phase of a traced run: the workload's own SQL, rows and
//! publication batches are fed through the public functions of the layers
//! the simulator cannot time on its own — the planner, the scan kernels,
//! the group fold and partial merge, the join build/probe, and the
//! columnar wire codec — each call inside a span.

use crate::ratio;
use crate::spans::Spans;
use pier_core::dataflow::join::{probe_joined, JoinBuild};
use pier_core::dataflow::ops::GroupAggregator;
use pier_core::prelude::*;
use pier_core::{Catalog, ColumnarBatch, ColumnarWire, Expr, Kernel, Planner, TupleBlock};
use pier_simnet::WireSize;
use std::collections::{BTreeMap, HashMap};

/// Planning repetitions per distinct SQL text.
const PLAN_REPS: usize = 20;

/// What the replay feeds the layers.
pub struct Input<'a> {
    /// The catalog queries were planned against (an origin's).
    pub catalog: &'a Catalog,
    /// Every distinct SQL text the workload submitted.
    pub sql: Vec<String>,
    /// Table definitions, for partition keys.
    pub tables: &'a [TableDef],
    /// Publications: (round, table, rows), one entry per publish call.
    pub log: Vec<(u64, &'static str, &'a [Tuple])>,
}

fn ns(spans: &Spans, name: &str) -> f64 {
    spans.totals("phase.replay").get(name).map(|t| t.1 as f64).unwrap_or(0.0)
}

/// Run the replay inside a `phase.replay` span; returns per-layer replay
/// counts and timings by metric name.
pub fn run(input: &Input, spans: &mut Spans) -> BTreeMap<&'static str, f64> {
    spans.begin("phase.replay");
    let mut plans = 0u64;
    let mut kinds = Vec::new();
    for sql in &input.sql {
        for rep in 0..PLAN_REPS {
            let planned = spans.wrap("planner.plan", || {
                let stmt = pier_core::sql::parse_select(sql).expect("workload SQL parses");
                Planner::new(input.catalog).plan_select(&stmt).expect("workload SQL plans")
            });
            plans += 1;
            if rep == 0 {
                kinds.push(planned.kind);
            }
        }
    }

    // Scan batches: one per publish call, as a node's scan delta would see it.
    let mut by_table: HashMap<&str, Vec<(u64, &[Tuple])>> = HashMap::new();
    for &(round, table, rows) in &input.log {
        by_table.entry(table).or_default().push((round, rows));
    }
    let mut c = Counts::default();
    for kind in &kinds {
        match kind {
            QueryKind::Aggregate { table, filter, group_exprs, aggs, .. } => {
                let batches = by_table.get(table.as_str()).map(Vec::as_slice).unwrap_or(&[]);
                let kernel = filter.as_ref().map(Kernel::compile);
                let mut root = GroupAggregator::new(group_exprs.clone(), aggs.clone());
                for (_, rows) in batches {
                    let (batch, sel) = scan(spans, &mut c, rows, kernel.as_ref());
                    let mut partial = GroupAggregator::new(group_exprs.clone(), aggs.clone());
                    spans.wrap("agg.fold", || partial.update_batch(&batch, &sel));
                    c.folded += sel.len() as u64;
                    spans.wrap("agg.merge", || root.merge(&partial));
                    c.merged += 1;
                }
            }
            QueryKind::Select { table, filter, .. } => {
                let kernel = filter.as_ref().map(Kernel::compile);
                for (_, rows) in by_table.get(table.as_str()).map(Vec::as_slice).unwrap_or(&[]) {
                    scan(spans, &mut c, rows, kernel.as_ref());
                }
            }
            QueryKind::Join { left_table, left_filter, stages, .. } => {
                let stage = &stages[0];
                let left = filtered(spans, &mut c, &by_table, left_table, left_filter);
                let right =
                    filtered(spans, &mut c, &by_table, &stage.right_table, &stage.right_filter);
                for k in stages.iter().skip(1) {
                    filtered(spans, &mut c, &by_table, &k.right_table, &k.right_filter);
                }
                // One build per (query, epoch), as at a join site.
                for (round, left_rows) in &left {
                    let right_rows = right.get(round).map(Vec::as_slice).unwrap_or(&[]);
                    probe(spans, &mut c, left_rows, right_rows, &stage.left_key, &stage.right_key);
                }
            }
            QueryKind::Recursive { .. } => {}
        }
    }

    // Wire codec over the run's own batches: rows of one publish call that
    // share a partition key travel as one block.
    for &(_, table, rows) in &input.log {
        let Some(def) = input.tables.iter().find(|d| d.name == table) else { continue };
        let mut groups: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        for row in rows {
            groups.entry(def.resource_of(row)).or_default().push(row.clone());
        }
        for rows in groups.into_values().filter(|g| g.len() >= 2) {
            let wire = spans.wrap("encoding.encode", || ColumnarWire::encode(&rows));
            let back = spans.wrap("encoding.decode", || wire.decode());
            debug_assert_eq!(back.len(), rows.len());
            c.wire_rows += rows.len() as u64;
            c.wire_batches += 1;
            c.wire_bytes += TupleBlock::new(rows, true).wire_size() as u64;
        }
    }
    spans.end();

    let mut m = BTreeMap::new();
    m.insert("planner.replay_plans", plans as f64);
    m.insert("planner.plan_us", ratio(ns(spans, "planner.plan") / 1e3, plans as f64));
    m.insert("kernel.replay_rows", c.scanned as f64);
    m.insert("kernel.scan_ns_per_row", ratio(ns(spans, "kernel.scan"), c.scanned as f64));
    m.insert("agg.replay_rows", c.folded as f64);
    m.insert("agg.fold_ns_per_row", ratio(ns(spans, "agg.fold"), c.folded as f64));
    m.insert("agg.replay_partials", c.merged as f64);
    m.insert("agg.merge_us_per_partial", ratio(ns(spans, "agg.merge") / 1e3, c.merged as f64));
    m.insert("join.replay_rows", c.probed as f64);
    m.insert("join.replay_out", c.joined as f64);
    m.insert("join.probe_ns_per_row", ratio(ns(spans, "join.probe"), c.probed as f64));
    m.insert("encoding.replay_rows", c.wire_rows as f64);
    m.insert("encoding.replay_batches", c.wire_batches as f64);
    m.insert("encoding.rows_per_batch", ratio(c.wire_rows as f64, c.wire_batches as f64));
    m.insert("encoding.bytes_per_row", ratio(c.wire_bytes as f64, c.wire_rows as f64));
    m.insert("encoding.encode_ns_per_row", ratio(ns(spans, "encoding.encode"), c.wire_rows as f64));
    m.insert("encoding.decode_ns_per_row", ratio(ns(spans, "encoding.decode"), c.wire_rows as f64));
    m
}

#[derive(Default)]
struct Counts {
    scanned: u64,
    folded: u64,
    merged: u64,
    probed: u64,
    joined: u64,
    wire_rows: u64,
    wire_batches: u64,
    wire_bytes: u64,
}

/// Pivot one scan delta and run its filter kernel.
fn scan(
    spans: &mut Spans,
    c: &mut Counts,
    rows: &[Tuple],
    kernel: Option<&Kernel>,
) -> (ColumnarBatch, Vec<u32>) {
    c.scanned += rows.len() as u64;
    spans.wrap("kernel.scan", || {
        let batch = ColumnarBatch::from_rows(rows);
        let full = batch.full_selection();
        let sel = match kernel {
            Some(k) => k.filter(&batch, &full),
            None => full,
        };
        (batch, sel)
    })
}

/// Scan every batch of `table`, keeping the filtered rows per round.
fn filtered(
    spans: &mut Spans,
    c: &mut Counts,
    by_table: &HashMap<&str, Vec<(u64, &[Tuple])>>,
    table: &str,
    filter: &Option<Expr>,
) -> BTreeMap<u64, Vec<Tuple>> {
    let kernel = filter.as_ref().map(Kernel::compile);
    let mut out: BTreeMap<u64, Vec<Tuple>> = BTreeMap::new();
    for (round, rows) in by_table.get(table).map(Vec::as_slice).unwrap_or(&[]) {
        let (batch, sel) = scan(spans, c, rows, kernel.as_ref());
        out.entry(*round).or_default().extend(sel.iter().map(|&i| batch.row(i as usize)));
    }
    out
}

/// Build and probe one epoch of a join stage, one chunk per key and side,
/// as rehashed batches arrive at a join site.
fn probe(
    spans: &mut Spans,
    c: &mut Counts,
    left: &[Tuple],
    right: &[Tuple],
    left_key: &Expr,
    right_key: &Expr,
) {
    let group = |rows: &[Tuple], key: &Expr| {
        let mut g: Vec<(Value, Vec<Tuple>)> = Vec::new();
        let mut at: HashMap<Value, usize> = HashMap::new();
        for r in rows {
            let k = key.eval(r);
            if k.is_null() {
                continue;
            }
            let i = *at.entry(k.clone()).or_insert_with(|| {
                g.push((k, Vec::new()));
                g.len() - 1
            });
            g[i].1.push(r.clone());
        }
        g
    };
    let (lw, rw) = (left.first().map(Tuple::arity), right.first().map(Tuple::arity));
    let (Some(lw), Some(rw)) = (lw, rw) else { return };
    c.probed += (left.len() + right.len()) as u64;
    let arrivals: Vec<(u8, Value, Vec<Tuple>)> = group(left, left_key)
        .into_iter()
        .map(|(k, r)| (0u8, k, r))
        .chain(group(right, right_key).into_iter().map(|(k, r)| (1u8, k, r)))
        .collect();
    let joined = spans.wrap("join.probe", || {
        let mut build = JoinBuild::default();
        let mut out = 0usize;
        for (side, key, rows) in &arrivals {
            let incoming = build.insert(*side as usize, key, rows);
            let width = if *side == 0 { rw } else { lw };
            out +=
                probe_joined(&incoming, *side, build.matches(1 - *side as usize, key), width, None)
                    .len();
        }
        out
    });
    c.joined += joined as u64;
}
