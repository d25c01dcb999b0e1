//! Engine configuration ([`PierConfig`] and its presets) and the per-node
//! activity counters ([`EngineStats`]).

use crate::trace::OpTrace;
use pier_dht::DhtConfig;
use pier_simnet::Duration;

/// Engine configuration.
///
/// # Example: the statistics knobs
///
/// ```
/// use pier_core::engine::PierConfig;
/// use pier_simnet::Duration;
///
/// let mut config = PierConfig::fast_test();
/// config.auto_stats = true;        // gossip table statistics automatically
/// config.stats_interval = Duration::from_secs(2);
/// config.feedback = true;          // re-plan continuous joins from traces
/// ```
#[derive(Clone, Debug)]
pub struct PierConfig {
    /// DHT / overlay parameters.
    pub dht: DhtConfig,
    /// Hold-down of the partial climb toward the origin, every aggregate's
    /// root.  A hop forwards combined partials once as many contributors as
    /// last epoch have passed through it (continuous single-table
    /// aggregates), or this long after the epoch's first arrival, whichever
    /// comes first; a colocated aggregate's join site ships its groups to
    /// the origin the same way.  It is also the origin's quiet period: a
    /// complete single-table epoch finalizes once no partial has arrived for
    /// one hold-down.  For a continuous aggregate over symmetric-hash joins
    /// it is the quiet period of a node's credit pool: the pool, with the
    /// node's groups, returns toward the origin once it has not grown for
    /// one hold-down.
    pub holddown: Duration,
    /// How long the origin, every aggregate's root, waits after an epoch's
    /// first partial before finalizing it (must exceed typical tree depth ×
    /// hold-down + latency), postponed up to four times by 3 × `holddown`
    /// while partials still arrive.  For continuous aggregates this is only
    /// the upper bound: completion usually closes the epoch first — for a
    /// single-table aggregate, as many contributors as the origin finalized
    /// last epoch, then one quiet hold-down; over symmetric-hash joins, the
    /// moment the origin has recovered as much credit as nodes ran last
    /// epoch.  One-shot aggregates, joins with Fetch-Matches or Bloom-gated
    /// stages, and epochs with no previous count always wait for it.  It is
    /// also how long a node keeps a stopped query's tombstone.
    pub collect_delay: Duration,
    /// How long the origin collects per-node Bloom filters before
    /// broadcasting the combined filter.
    pub bloom_collect_delay: Duration,
    /// Lower clamp for the planner-sized Bloom geometry of every filtered
    /// stage ([`JoinStage::bloom_bits`](crate::query::JoinStage)).
    pub bloom_bits_min: usize,
    /// Upper clamp for the planner-sized Bloom geometry.
    pub bloom_bits_max: usize,
    /// Hold-down deadline at Bloom-gated right-relation scan sites (stage 0
    /// and inner stages): if the combined filter has not arrived this long
    /// after the epoch started, ship the right side unfiltered.  A lost
    /// summary therefore degrades to extra traffic, never to missing results
    /// the filter would have kept.
    pub bloom_fallback_delay: Duration,
    /// Automatic statistics: every [`PierConfig::stats_interval`] each node
    /// summarizes the live soft state it stores per table and gossips the
    /// summaries to ring neighbours until every catalog converges on
    /// network-wide cardinalities (no manual
    /// [`set_table_stats`](super::PierNode::set_table_stats) required).  Off
    /// by default so measurement-sensitive benchmarks see no extra traffic.
    pub auto_stats: bool,
    /// How often a node re-summarizes and pushes its statistics view to its
    /// predecessor and first three successors.
    pub stats_interval: Duration,
    /// Trace-fed costing: after a continuous multi-way join has run a few
    /// epochs, its origin collects the network-wide execution trace
    /// (per-stage input and match counters), folds it into per-query
    /// [`ObservedStats`](crate::planner::ObservedStats) that override the
    /// catalog estimates, and re-plans.  When the corrected costs change the
    /// plan — a different join order, strategy mix, or a bushy shape — the
    /// staged-spec swap of mid-flight re-planning switches every node at its
    /// next epoch boundary.  Off by default: plans then come from catalog
    /// statistics only.
    pub feedback: bool,
}

impl Default for PierConfig {
    fn default() -> Self {
        PierConfig {
            dht: DhtConfig::default(),
            holddown: Duration::from_millis(250),
            collect_delay: Duration::from_millis(4_000),
            bloom_collect_delay: Duration::from_millis(1_500),
            bloom_bits_min: 1024,
            bloom_bits_max: 65_536,
            bloom_fallback_delay: Duration::from_millis(8_000),
            auto_stats: false,
            stats_interval: Duration::from_millis(5_000),
            feedback: false,
        }
    }
}

impl PierConfig {
    /// Fast timers for small test networks.
    pub fn fast_test() -> Self {
        PierConfig {
            dht: DhtConfig::fast_test(),
            holddown: Duration::from_millis(100),
            collect_delay: Duration::from_millis(3_000),
            bloom_collect_delay: Duration::from_millis(800),
            bloom_bits_min: 512,
            bloom_bits_max: 16_384,
            bloom_fallback_delay: Duration::from_millis(3_000),
            stats_interval: Duration::from_millis(2_000),
            ..PierConfig::default()
        }
    }
}

/// Per-node counters describing the engine's own activity (read by benches).
///
/// Computed, not kept beside the traces: each query event is counted once,
/// in its query's [`OpTrace`], and [`PierNode::stats`](super::PierNode::stats)
/// adds the traces of the queries the node runs, relays for, or has stopped
/// to its own events (publishes, statistics gossip, trace-fed re-plans).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Tuples published into the DHT from this node.
    pub tuples_published: u64,
    /// Tuples read by local scans.
    pub tuples_scanned: u64,
    /// Result rows shipped to query origins, or finalized there: a
    /// finalized aggregate epoch's or window's rows count at the origin,
    /// once, however often late data re-emits them.
    pub results_sent: u64,
    /// Partial-aggregate messages sent.
    pub partials_sent: u64,
    /// Partial-aggregate messages merged locally (in-network combining).
    pub partials_merged: u64,
    /// Tuples rehashed to join sites.
    pub join_tuples_sent: u64,
    /// Join output rows produced at this node.
    pub join_matches: u64,
    /// Recursive expansion messages sent.
    pub expands_sent: u64,
    /// Epoch evaluations performed.
    pub epochs_run: u64,
    /// DHT wire messages this engine initiated on the query wire paths
    /// (publishes, rehashed join tuples, partials, results, Bloom summaries,
    /// expansions) — the denominator of the batching win.
    pub messages_sent: u64,
    /// Application-payload bytes handed to the DHT on those paths (counted
    /// per payload, whether its first hop was remote or this node itself).
    pub bytes_shipped: u64,
    /// Batch payloads (each coalescing ≥ 2 tuples) among them.
    pub batches_sent: u64,
    /// SQL submissions answered from the per-node plan cache.
    pub plan_cache_hits: u64,
    /// SQL submissions that ran the full planning pipeline.
    pub plan_cache_misses: u64,
    /// Statistics-gossip messages sent.  Tracked separately from
    /// `messages_sent` / `bytes_shipped` so the observability plane does not
    /// pollute the query-path counters it is meant to measure.
    pub stats_gossip_sent: u64,
    /// Times this node swapped a live query to a re-planned spec at an epoch
    /// boundary (mid-flight re-planning).
    pub replans: u64,
    /// Right-relation tuples tested against a combined Bloom filter before
    /// rehash (stage 0 and inner stages alike).
    pub bloom_tested: u64,
    /// Of those, tuples the filter passed (and were therefore rehashed).
    pub bloom_passed: u64,
    /// Bloom-gated epochs (stage 0 or inner stages) whose combined filter
    /// missed the hold-down deadline and shipped the right side unfiltered.
    pub bloom_fallbacks: u64,
    /// Always 0: every payload pays for its own message (one flush per
    /// engine tick, no cross-query frame sharing).  Kept so existing
    /// readers of the counter set still compile.
    pub piggybacked_payloads: u64,
    /// Always 0, like `piggybacked_payloads`: no wire frame carries payloads
    /// from more than one query.
    pub shared_frames: u64,
    /// Times this node staged a trace-corrected plan for a live query
    /// (trace-fed costing, a subset of `replans`).
    pub feedback_replans: u64,
    /// Epoch-count windows this node closed and reported as an aggregation
    /// root (windowed continuous aggregates).
    pub windows_closed: u64,
    /// Closed epochs or windows this node, as the origin of an aggregate,
    /// corrected with a late partial and re-emitted: the corrected rows
    /// replace the earlier ones.  A plain aggregate's window is its epoch.
    pub late_patched: u64,
    /// Late partial-aggregate payloads this node, as the origin of an
    /// aggregate, discarded because a window covering their epoch was past
    /// the retention horizon.  The contributors or credit of every late
    /// partial still raise the count the next epoch expects.
    pub late_dropped: u64,
    /// Alert tuples published into a query's `pier:alert:<id>` namespace
    /// (windowed aggregates with a `HAVING` trigger).
    pub alerts_emitted: u64,
    /// Epochs this node finalized, as the origin of an aggregate, on
    /// completion: as many contributors as last epoch had reported and
    /// partials went quiet for one hold-down (continuous single-table
    /// aggregates), or it recovered as much credit as nodes ran last epoch
    /// (continuous aggregates over symmetric-hash joins).
    pub finalized_on_completion: u64,
    /// Epochs this node finalized, as the origin of an aggregate, on the
    /// `collect_delay` timer and its quiet extensions: every one-shot
    /// aggregate, every aggregate over a join with a Fetch-Matches or
    /// Bloom-gated stage, and continuous epochs that had no count to expect
    /// or did not reach it in time (a lost contributor or lost credit).
    pub finalized_on_timer: u64,
}

impl EngineStats {
    /// Field-wise sum (benchmarks aggregate per-node stats network-wide).
    pub fn merge(&mut self, other: &EngineStats) {
        self.tuples_published += other.tuples_published;
        self.tuples_scanned += other.tuples_scanned;
        self.results_sent += other.results_sent;
        self.partials_sent += other.partials_sent;
        self.partials_merged += other.partials_merged;
        self.join_tuples_sent += other.join_tuples_sent;
        self.join_matches += other.join_matches;
        self.expands_sent += other.expands_sent;
        self.epochs_run += other.epochs_run;
        self.messages_sent += other.messages_sent;
        self.bytes_shipped += other.bytes_shipped;
        self.batches_sent += other.batches_sent;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.stats_gossip_sent += other.stats_gossip_sent;
        self.replans += other.replans;
        self.bloom_tested += other.bloom_tested;
        self.bloom_passed += other.bloom_passed;
        self.bloom_fallbacks += other.bloom_fallbacks;
        self.piggybacked_payloads += other.piggybacked_payloads;
        self.shared_frames += other.shared_frames;
        self.feedback_replans += other.feedback_replans;
        self.windows_closed += other.windows_closed;
        self.late_patched += other.late_patched;
        self.late_dropped += other.late_dropped;
        self.alerts_emitted += other.alerts_emitted;
        self.finalized_on_completion += other.finalized_on_completion;
        self.finalized_on_timer += other.finalized_on_timer;
    }

    /// Add one query's execution trace at this node: every query-path
    /// counter is the sum of the like-named trace counters.
    pub(super) fn add_trace(&mut self, t: &OpTrace) {
        self.tuples_scanned += t.tuples_scanned;
        self.results_sent += t.results_sent;
        self.partials_sent += t.partials_sent;
        self.partials_merged += t.partials_merged;
        self.join_tuples_sent += t.tuples_shipped;
        self.join_matches += t.join_matches;
        self.expands_sent += t.expands_sent;
        self.epochs_run += t.epochs_run;
        self.messages_sent += t.messages_sent;
        self.bytes_shipped += t.bytes_shipped;
        self.batches_sent += t.batches_sent;
        self.replans += t.replans;
        self.bloom_tested += t.stage_bloom_tested.values().sum::<u64>();
        self.bloom_passed += t.stage_bloom_passed.values().sum::<u64>();
        self.bloom_fallbacks += t.bloom_fallbacks;
        self.windows_closed += t.windows_closed;
        self.late_patched += t.late_patched;
        self.late_dropped += t.late_dropped;
        self.alerts_emitted += t.alerts_emitted;
        self.finalized_on_completion += t.finalized_on_completion;
        self.finalized_on_timer += t.finalized_on_timer;
    }
}
