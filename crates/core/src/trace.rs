//! Per-query execution traces — the data plane behind `EXPLAIN ANALYZE`.
//!
//! Every [`PierNode`](crate::engine::PierNode) keeps one [`OpTrace`] per
//! installed query, and counts each of the query's events there and nowhere
//! else.  The node's [`EngineStats`](crate::engine::EngineStats) are computed
//! from these traces plus the node's own events (publishes, statistics
//! gossip, trace-fed re-plans, the plan cache), so the two views reconcile
//! by construction: in a deployment whose tables were populated with
//! `publish_local`, the network-wide merge of every query's traces equals
//! the network-wide sum of the query-path engine counters.
//!
//! `EXPLAIN ANALYZE` collects these traces over the DHT: the origin broadcasts
//! a `TraceRequest`, every node answers with a `TraceReport` carrying its
//! [`OpTrace`], and the origin folds the reports with [`OpTrace::merge`] into
//! the network-wide totals rendered by [`render_network_trace`] next to the
//! static [`Explanation`](crate::planner::Explanation).
//!
//! The trace also records the **adaptivity plane**'s actions: every mid-flight
//! re-plan (a join-strategy switch driven by gossiped statistics) is counted in
//! [`OpTrace::replans`] and described in [`OpTrace::switches`].  Every
//! aggregate's root counts the late partials that patched a closed epoch or
//! window and those it dropped past the retention horizon
//! ([`OpTrace::late_patched`], [`OpTrace::late_dropped`]); windowed
//! continuous aggregates add the windows closed and the `HAVING`-trigger
//! alert tuples published ([`OpTrace::windows_closed`],
//! [`OpTrace::alerts_emitted`]).  `render_network_trace` prints a
//! `late partials:` line and a `windows:` line whenever any of them fired.

use crate::query::QueryKind;
use pier_simnet::WireSize;
use std::collections::BTreeMap;

/// Per-operator execution counters of one query at one node.
///
/// The like-named fields of [`EngineStats`](crate::engine::EngineStats) are
/// sums of these; all counters are *producer-side* (a node counts what it
/// scanned, shipped, probed, or produced — never what it received), so
/// merging the traces of every node counts each event exactly once.
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
    /// Result rows this node shipped toward the origin, or as an
    /// aggregate's origin stored for its closed epochs and windows (a
    /// patched re-emit counts only the rows it adds or removes).
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
    /// Result rows produced per epoch (producer-side row counts); an
    /// aggregate's origin counts the rows it stores per epoch or window.
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
    /// per stage — the traffic Bloom filters prune.
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
    /// Bloom hold-down deadlines (stage 0 or inner stages) that expired
    /// before a combined summary arrived, degrading this node to an
    /// unfiltered rehash.
    pub bloom_fallbacks: u64,
    /// Epoch-count windows this node closed and reported as the query's
    /// aggregation root (windowed continuous aggregates).
    pub windows_closed: u64,
    /// Closed epochs or windows this root corrected with a late partial and
    /// re-emitted (a plain aggregate's window is its epoch).
    pub late_patched: u64,
    /// Late partial payloads this root discarded because a window covering
    /// their epoch was past the retention horizon.
    pub late_dropped: u64,
    /// Alert tuples this root published into the query's alert namespace
    /// (`HAVING` trigger on a windowed aggregate).
    pub alerts_emitted: u64,
    /// Epochs this node finalized as the aggregation root on completion:
    /// last epoch's contributor count had reported, or last epoch's nodes'
    /// credit had returned (the completion rule).
    pub finalized_on_completion: u64,
    /// Epochs this node finalized as the aggregation root on the
    /// `collect_delay` timer (the timer rule).
    pub finalized_on_timer: u64,
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
        self.late_patched += other.late_patched;
        self.late_dropped += other.late_dropped;
        self.alerts_emitted += other.alerts_emitted;
        self.finalized_on_completion += other.finalized_on_completion;
        self.finalized_on_timer += other.finalized_on_timer;
    }

    /// Has this trace recorded any activity at all?
    pub fn is_empty(&self) -> bool {
        *self == OpTrace::default()
    }
}

impl WireSize for OpTrace {
    fn wire_size(&self) -> usize {
        // 20 fixed u64 counters + per-switch strings + per-epoch and
        // per-stage pairs.
        20 * 8
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
                push_bloom_rate(&mut out, trace, 0, "    ");
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
                    push_bloom_rate(&mut out, trace, stage, "      ");
                }
            }
            match aggregate {
                Some(agg) if agg.hierarchical => {
                    out.push_str(&format!(
                        "  aggregate over the join (hierarchical): {} partials sent, \
                         {} merged in-network",
                        trace.partials_sent, trace.partials_merged
                    ));
                    if trace.finalized_on_completion + trace.finalized_on_timer > 0 {
                        out.push_str(&format!(
                            ", {} epochs finalized on completion, {} on the timer",
                            trace.finalized_on_completion, trace.finalized_on_timer
                        ));
                    }
                    out.push('\n');
                }
                Some(_) => out.push_str(
                    "  aggregate over the join: raw matched rows streamed to the origin\n",
                ),
                None => {}
            }
        }
        QueryKind::Aggregate { .. } => {
            out.push_str(&format!(
                "  aggregate: {} partials sent, {} merged in-network, {} epochs finalized on \
                 completion, {} on the timer\n",
                trace.partials_sent,
                trace.partials_merged,
                trace.finalized_on_completion,
                trace.finalized_on_timer
            ));
        }
        QueryKind::Recursive { .. } => {
            out.push_str(&format!("  recurse: {} expansions sent\n", trace.expands_sent));
        }
        QueryKind::Select { .. } => {}
    }
    if trace.late_patched + trace.late_dropped > 0 {
        out.push_str(&format!(
            "  late partials: {} closed epochs or windows patched and re-emitted, {} dropped past \
             the retention horizon\n",
            trace.late_patched, trace.late_dropped
        ));
    }
    out.push_str(&format!("  results: {} rows shipped to the origin\n", trace.results_sent));
    out.push_str(&format!(
        "  wire: {} messages, {} batches, {} payload bytes\n",
        trace.messages_sent, trace.batches_sent, trace.bytes_shipped
    ));
    if trace.windows_closed > 0 {
        out.push_str(&format!(
            "  windows: {} closed, {} alerts\n",
            trace.windows_closed, trace.alerts_emitted
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

/// Append stage `stage`'s Bloom pass rate when its filter tested any right
/// tuples.
fn push_bloom_rate(out: &mut String, trace: &OpTrace, stage: u8, indent: &str) {
    let tested = trace.stage_bloom_tested.get(&stage).copied().unwrap_or(0);
    if tested > 0 {
        let passed = trace.stage_bloom_passed.get(&stage).copied().unwrap_or(0);
        let rate = 100.0 * passed as f64 / tested as f64;
        out.push_str(&format!(
            "{indent}bloom: {passed}/{tested} right tuples passed ({rate:.1}% pass rate)\n"
        ));
    }
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
        let join = |stages, aggregate| QueryKind::Join {
            left_table: "l".into(),
            left_filter: None,
            stages,
            project: vec![Expr::col(0)],
            aggregate,
            order_by: vec![],
            limit: None,
        };
        let text = render_network_trace(7, &sample(), &join(vec![stage("r")], None));
        assert!(text.contains("7 nodes reporting"), "{text}");
        assert!(text.contains("tuples scanned"), "{text}");
        assert!(text.contains("join [SymmetricHash]"), "{text}");
        assert!(text.contains("re-planning"), "{text}");
        assert!(text.contains("rows per epoch: 0:1 1:2"), "{text}");
        // Counters that stayed zero print nothing.
        assert!(!text.contains("bloom:"), "{text}");
        assert!(!text.contains("late partials"), "{text}");

        // A two-way Bloom join prints its pass rate; an aggregate over the
        // join prints why its epochs finalized and what its root did with
        // late partials.
        let mut t = sample();
        t.stage_bloom_tested = [(0u8, 40u64)].into_iter().collect();
        t.stage_bloom_passed = [(0u8, 10u64)].into_iter().collect();
        t.finalized_on_completion = 5;
        t.finalized_on_timer = 1;
        t.late_patched = 3;
        t.late_dropped = 2;
        let agg = crate::query::JoinAggregate {
            group_exprs: vec![],
            aggs: vec![],
            having: None,
            final_project: vec![],
            hierarchical: true,
            window: None,
            colocated: false,
        };
        let text = render_network_trace(7, &t, &join(vec![stage("r")], Some(agg)));
        assert!(text.contains("    bloom: 10/40 right tuples passed (25.0% pass rate)"), "{text}");
        assert!(text.contains("5 epochs finalized on completion, 1 on the timer"), "{text}");
        assert!(text.contains("late partials: 3 closed epochs or windows patched"), "{text}");
        assert!(text.contains("2 dropped past the retention horizon"), "{text}");

        // Multi-stage joins get a per-stage section.
        let mut t = sample();
        t.stage_shipped = [(0u8, 3u64), (1, 1)].into_iter().collect();
        t.stage_matches = [(0u8, 2u64), (1, 1)].into_iter().collect();
        let text = render_network_trace(7, &t, &join(vec![stage("r"), stage("s")], None));
        assert!(text.contains("staged join"), "{text}");
        assert!(text.contains("stage 0 [SymmetricHash] ⋈ 'r': 3 shipped"), "{text}");
        assert!(text.contains("stage 1 [SymmetricHash] ⋈ 's': 1 shipped"), "{text}");
    }
}
