//! Per-query execution traces — the data plane behind `EXPLAIN ANALYZE`.
//!
//! Every [`PierNode`](crate::engine::PierNode) keeps one [`OpTrace`] per
//! installed query, incremented at exactly the points where the node's
//! [`EngineStats`](crate::engine::EngineStats) counters are incremented — but
//! scoped to that query, so the two views reconcile: in a deployment running a
//! single query whose tables were populated with `publish_local`, the
//! network-wide merge of the per-query traces equals the network-wide sum of
//! the engine counters.
//!
//! `EXPLAIN ANALYZE` collects these traces over the DHT: the origin broadcasts
//! a `TraceRequest`, every node answers with a `TraceReport` carrying its
//! [`OpTrace`], and the origin folds the reports with [`OpTrace::merge`] into
//! the network-wide totals rendered by [`render_network_trace`] next to the
//! static [`Explanation`](crate::planner::Explanation).
//!
//! The trace also records the **adaptivity plane**'s actions: every mid-flight
//! re-plan (a join-strategy switch driven by gossiped statistics) is counted in
//! [`OpTrace::replans`] and described in [`OpTrace::switches`].  Windowed
//! continuous aggregates add the **window plane**: windows closed at this
//! node as aggregation root, late partials dropped or patched under the
//! configured [`WindowLatePolicy`](crate::engine::WindowLatePolicy), and
//! `HAVING`-trigger alert tuples published ([`OpTrace::windows_closed`] and
//! friends); `render_network_trace` prints a `windows:` line whenever any of
//! them fired.

use crate::query::QueryKind;
use pier_simnet::WireSize;
use std::collections::BTreeMap;

/// Per-operator execution counters of one query at one node.
///
/// Counter semantics mirror the like-named fields of
/// [`EngineStats`](crate::engine::EngineStats); all counters are
/// *producer-side* (a node counts what it scanned, shipped, probed, or
/// produced — never what it received), so merging the traces of every node
/// counts each event exactly once.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpTrace {
    /// Epoch evaluations this node performed for the query (node-epochs).
    pub epochs_run: u64,
    /// Tuples read by this node's local scans for the query.
    pub tuples_scanned: u64,
    /// Tuples this node rehashed to join sites.
    pub tuples_shipped: u64,
    /// Fetch-Matches DHT probes this node issued.
    pub probes_sent: u64,
    /// Join output rows produced at this node (join site or probing node).
    pub join_matches: u64,
    /// Partial-aggregate messages this node sent toward the root.
    pub partials_sent: u64,
    /// Partial-aggregate messages this node merged in-network.
    pub partials_merged: u64,
    /// Result rows this node shipped toward the origin.
    pub results_sent: u64,
    /// Recursive expansion messages this node sent.
    pub expands_sent: u64,
    /// Wire messages this node initiated on the query's paths (rehashes,
    /// partials, results, Bloom summaries, expansions).
    pub messages_sent: u64,
    /// Batch payloads (each coalescing ≥ 2 tuples) among those messages.
    pub batches_sent: u64,
    /// Application-payload bytes this node handed to the DHT for the query.
    pub bytes_shipped: u64,
    /// Times this node swapped to a re-planned spec at an epoch boundary.
    pub replans: u64,
    /// Human-readable strategy switches, e.g.
    /// `"epoch 4: SymmetricHash -> BloomFilter"`.  Deduplicated on merge
    /// (every node that applied the same switch records the same line).
    pub switches: Vec<String>,
    /// Result rows produced per epoch (producer-side row counts).
    pub epoch_rows: BTreeMap<u64, u64>,
    /// Tuples shipped per join stage (base-table rehashes at stage 0 and
    /// 1-side rehashes at every stage; intermediate tuples count against the
    /// stage that *receives* them).  Sums to [`OpTrace::tuples_shipped`].
    pub stage_shipped: BTreeMap<u8, u64>,
    /// Fetch-Matches probes per join stage.  Sums to
    /// [`OpTrace::probes_sent`].
    pub stage_probes: BTreeMap<u8, u64>,
    /// Join output rows produced per stage (the last stage's rows are the
    /// query's result rows).  Sums to [`OpTrace::join_matches`].
    pub stage_matches: BTreeMap<u8, u64>,
    /// Right-relation tuples tested against a Bloom summary per stage
    /// (stage-0 semi-joins and inner-stage filters alike), counted at the
    /// scan site that ran the filter.
    pub stage_bloom_tested: BTreeMap<u8, u64>,
    /// How many of the tested tuples passed the summary (and were rehashed).
    /// `passed / tested` is the per-stage pass rate `EXPLAIN ANALYZE` shows.
    pub stage_bloom_passed: BTreeMap<u8, u64>,
    /// Rehash wire messages this node sent carrying *right-relation* tuples,
    /// per stage — the traffic inner-stage Bloom filters prune.
    pub stage_rehash_msgs: BTreeMap<u8, u64>,
    /// Left-side (side-0) tuples that arrived at this node's join sites, per
    /// stage — the *observed* left-input cardinality the planner estimated.
    /// Receiver-side by design (it measures what the join actually saw, not
    /// what was sent); the trace-fed cost model folds these into
    /// [`ObservedStats`](crate::planner::ObservedStats).
    pub stage_left_in: BTreeMap<u8, u64>,
    /// Right-side (side-1) tuples that arrived at this node's join sites (or
    /// matched a Fetch-Matches probe), per stage — the observed right-input
    /// cardinality.
    pub stage_right_in: BTreeMap<u8, u64>,
    /// Inner-stage Bloom hold-down deadlines that expired before a combined
    /// summary arrived, degrading this node to an unfiltered rehash.
    pub bloom_fallbacks: u64,
    /// Epoch-count windows this node closed and reported as the query's
    /// aggregation root (windowed continuous aggregates).
    pub windows_closed: u64,
    /// Late partial payloads this root discarded because the windows
    /// covering their epoch had already closed (drop policy, or patch past
    /// its retention horizon).
    pub window_late_dropped: u64,
    /// Already-closed windows this root re-opened and re-emitted for late
    /// data (patch policy).
    pub window_late_patched: u64,
    /// Alert tuples this root published into the query's alert namespace
    /// (`HAVING` trigger on a windowed aggregate).
    pub alerts_emitted: u64,
}

impl OpTrace {
    /// Field-wise sum; `switches` are deduplicated, `epoch_rows` added per
    /// epoch.  The origin folds every node's report with this.
    pub fn merge(&mut self, other: &OpTrace) {
        self.epochs_run += other.epochs_run;
        self.tuples_scanned += other.tuples_scanned;
        self.tuples_shipped += other.tuples_shipped;
        self.probes_sent += other.probes_sent;
        self.join_matches += other.join_matches;
        self.partials_sent += other.partials_sent;
        self.partials_merged += other.partials_merged;
        self.results_sent += other.results_sent;
        self.expands_sent += other.expands_sent;
        self.messages_sent += other.messages_sent;
        self.batches_sent += other.batches_sent;
        self.bytes_shipped += other.bytes_shipped;
        self.replans += other.replans;
        for s in &other.switches {
            if !self.switches.contains(s) {
                self.switches.push(s.clone());
            }
        }
        for (&epoch, &rows) in &other.epoch_rows {
            *self.epoch_rows.entry(epoch).or_insert(0) += rows;
        }
        for (&stage, &n) in &other.stage_shipped {
            *self.stage_shipped.entry(stage).or_insert(0) += n;
        }
        for (&stage, &n) in &other.stage_probes {
            *self.stage_probes.entry(stage).or_insert(0) += n;
        }
        for (&stage, &n) in &other.stage_matches {
            *self.stage_matches.entry(stage).or_insert(0) += n;
        }
        for (&stage, &n) in &other.stage_bloom_tested {
            *self.stage_bloom_tested.entry(stage).or_insert(0) += n;
        }
        for (&stage, &n) in &other.stage_bloom_passed {
            *self.stage_bloom_passed.entry(stage).or_insert(0) += n;
        }
        for (&stage, &n) in &other.stage_rehash_msgs {
            *self.stage_rehash_msgs.entry(stage).or_insert(0) += n;
        }
        for (&stage, &n) in &other.stage_left_in {
            *self.stage_left_in.entry(stage).or_insert(0) += n;
        }
        for (&stage, &n) in &other.stage_right_in {
            *self.stage_right_in.entry(stage).or_insert(0) += n;
        }
        self.bloom_fallbacks += other.bloom_fallbacks;
        self.windows_closed += other.windows_closed;
        self.window_late_dropped += other.window_late_dropped;
        self.window_late_patched += other.window_late_patched;
        self.alerts_emitted += other.alerts_emitted;
    }

    /// Has this trace recorded any activity at all?
    pub fn is_empty(&self) -> bool {
        *self == OpTrace::default()
    }
}

impl WireSize for OpTrace {
    fn wire_size(&self) -> usize {
        // 18 fixed u64 counters + per-switch strings + per-epoch and
        // per-stage pairs.
        18 * 8
            + self.switches.iter().map(|s| s.len() + 2).sum::<usize>()
            + self.epoch_rows.len() * 16
            + (self.stage_shipped.len()
                + self.stage_probes.len()
                + self.stage_matches.len()
                + self.stage_bloom_tested.len()
                + self.stage_bloom_passed.len()
                + self.stage_rehash_msgs.len()
                + self.stage_left_in.len()
                + self.stage_right_in.len())
                * 9
    }
}

/// Render the network-wide merged trace as the annotated per-operator report
/// `EXPLAIN ANALYZE` prints below the static plan.  `reporters` is the number
/// of nodes whose traces were folded in; `kind` selects which operator lines
/// apply to the query's plan shape.
pub fn render_network_trace(reporters: u64, trace: &OpTrace, kind: &QueryKind) -> String {
    let mut out = String::new();
    out.push_str(&format!("== network-wide execution trace ({reporters} nodes reporting) ==\n"));
    out.push_str(&format!(
        "  epochs evaluated: {} node-epochs\n  scan: {} tuples scanned\n",
        trace.epochs_run, trace.tuples_scanned
    ));
    match kind {
        QueryKind::Join { stages, aggregate, .. } => {
            if stages.len() == 1 {
                out.push_str(&format!(
                    "  join [{:?}]: {} tuples shipped, {} probes, {} matches\n",
                    stages[0].strategy, trace.tuples_shipped, trace.probes_sent, trace.join_matches
                ));
            } else {
                out.push_str(&format!(
                    "  staged join: {} tuples shipped, {} probes, {} matches\n",
                    trace.tuples_shipped, trace.probes_sent, trace.join_matches
                ));
                for (k, s) in stages.iter().enumerate() {
                    let stage = k as u8;
                    let shipped = trace.stage_shipped.get(&stage).copied().unwrap_or(0);
                    let probes = trace.stage_probes.get(&stage).copied().unwrap_or(0);
                    let matches = trace.stage_matches.get(&stage).copied().unwrap_or(0);
                    out.push_str(&format!(
                        "    stage {k} [{:?}] ⋈ '{}': {shipped} shipped, {probes} probes, \
                         {matches} matches\n",
                        s.strategy, s.right_table
                    ));
                    if let Some(&tested) = trace.stage_bloom_tested.get(&stage) {
                        let passed = trace.stage_bloom_passed.get(&stage).copied().unwrap_or(0);
                        let rate =
                            if tested > 0 { 100.0 * passed as f64 / tested as f64 } else { 100.0 };
                        out.push_str(&format!(
                            "      bloom: {passed}/{tested} right tuples passed \
                             ({rate:.1}% pass rate)\n"
                        ));
                    }
                }
            }
            match aggregate {
                Some(agg) if agg.hierarchical => out.push_str(&format!(
                    "  aggregate over the join (hierarchical): {} partials sent, \
                     {} merged in-network\n",
                    trace.partials_sent, trace.partials_merged
                )),
                Some(_) => out.push_str(
                    "  aggregate over the join: raw matched rows streamed to the origin\n",
                ),
                None => {}
            }
        }
        QueryKind::Aggregate { .. } => {
            out.push_str(&format!(
                "  aggregate: {} partials sent, {} merged in-network\n",
                trace.partials_sent, trace.partials_merged
            ));
        }
        QueryKind::Recursive { .. } => {
            out.push_str(&format!("  recurse: {} expansions sent\n", trace.expands_sent));
        }
        QueryKind::Select { .. } => {}
    }
    out.push_str(&format!("  results: {} rows shipped to the origin\n", trace.results_sent));
    out.push_str(&format!(
        "  wire: {} messages, {} batches, {} payload bytes\n",
        trace.messages_sent, trace.batches_sent, trace.bytes_shipped
    ));
    if trace.windows_closed > 0 || trace.window_late_dropped > 0 || trace.window_late_patched > 0 {
        out.push_str(&format!(
            "  windows: {} closed, {} late drops, {} late patches, {} alerts\n",
            trace.windows_closed,
            trace.window_late_dropped,
            trace.window_late_patched,
            trace.alerts_emitted
        ));
    }
    if trace.bloom_fallbacks > 0 {
        out.push_str(&format!(
            "  bloom hold-down fallbacks: {} unfiltered rehashes\n",
            trace.bloom_fallbacks
        ));
    }
    if trace.replans > 0 {
        out.push_str(&format!(
            "  re-planning: {} node-switches at epoch boundaries\n",
            trace.replans
        ));
        for s in &trace.switches {
            out.push_str(&format!("    {s}\n"));
        }
    }
    if !trace.epoch_rows.is_empty() {
        let per_epoch: Vec<String> =
            trace.epoch_rows.iter().map(|(e, n)| format!("{e}:{n}")).collect();
        out.push_str(&format!("  rows per epoch: {}\n", per_epoch.join(" ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn sample() -> OpTrace {
        OpTrace {
            epochs_run: 2,
            tuples_scanned: 10,
            tuples_shipped: 4,
            probes_sent: 1,
            join_matches: 3,
            results_sent: 3,
            messages_sent: 5,
            batches_sent: 1,
            bytes_shipped: 128,
            replans: 1,
            switches: vec!["epoch 4: SymmetricHash -> BloomFilter".into()],
            epoch_rows: [(0, 1), (1, 2)].into_iter().collect(),
            ..OpTrace::default()
        }
    }

    #[test]
    fn merge_sums_and_dedups_switches() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.tuples_scanned, 20);
        assert_eq!(a.replans, 2);
        assert_eq!(a.switches.len(), 1, "identical switch lines fold");
        assert_eq!(a.epoch_rows[&1], 4);
        assert!(!a.is_empty());
        assert!(OpTrace::default().is_empty());
    }

    #[test]
    fn wire_size_scales_with_contents() {
        let small = OpTrace::default();
        let big = sample();
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn render_mentions_the_operators() {
        let stage = |table: &str| crate::query::JoinStage {
            right_table: table.into(),
            left_key: Expr::col(0),
            right_key: Expr::col(0),
            right_filter: None,
            post_filter: None,
            left_ship_cols: vec![0],
            right_ship_cols: vec![0],
            out_cols: vec![],
            strategy: crate::query::JoinStrategy::SymmetricHash,
            inner_bloom: false,
            bloom_bits: 0,
            left_scan: None,
            out_to: None,
        };
        let kind = QueryKind::Join {
            left_table: "l".into(),
            left_filter: None,
            stages: vec![stage("r")],
            project: vec![Expr::col(0)],
            aggregate: None,
            order_by: vec![],
            limit: None,
        };
        let text = render_network_trace(7, &sample(), &kind);
        assert!(text.contains("7 nodes reporting"), "{text}");
        assert!(text.contains("tuples scanned"), "{text}");
        assert!(text.contains("join [SymmetricHash]"), "{text}");
        assert!(text.contains("re-planning"), "{text}");
        assert!(text.contains("rows per epoch: 0:1 1:2"), "{text}");

        // Multi-stage joins get a per-stage section.
        let kind = QueryKind::Join {
            left_table: "l".into(),
            left_filter: None,
            stages: vec![stage("r"), stage("s")],
            project: vec![Expr::col(0)],
            aggregate: None,
            order_by: vec![],
            limit: None,
        };
        let mut t = sample();
        t.stage_shipped = [(0u8, 3u64), (1, 1)].into_iter().collect();
        t.stage_matches = [(0u8, 2u64), (1, 1)].into_iter().collect();
        let text = render_network_trace(7, &t, &kind);
        assert!(text.contains("staged join"), "{text}");
        assert!(text.contains("stage 0 [SymmetricHash] ⋈ 'r': 3 shipped"), "{text}");
        assert!(text.contains("stage 1 [SymmetricHash] ⋈ 's': 1 shipped"), "{text}");
    }
}
