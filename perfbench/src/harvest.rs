//! Counter harvest: named snapshots of the public counters every layer
//! already keeps — `engine_totals()`, each node's `dht.stats()`, and the
//! simulator's `Metrics` — so the timed phase can be measured as deltas.

use pier_core::prelude::*;
use std::collections::BTreeMap;

/// Named counter values.
pub type Counters = BTreeMap<&'static str, u64>;

/// Snapshot every counter the benchmark reports.
pub fn harvest(bed: &mut PierTestbed) -> Counters {
    let e = bed.engine_totals();
    let mut c = Counters::new();
    for (name, v) in [
        ("engine.tuples_published", e.tuples_published),
        ("engine.tuples_scanned", e.tuples_scanned),
        ("engine.results_sent", e.results_sent),
        ("engine.partials_sent", e.partials_sent),
        ("engine.partials_merged", e.partials_merged),
        ("engine.join_tuples_sent", e.join_tuples_sent),
        ("engine.join_matches", e.join_matches),
        ("engine.epochs_run", e.epochs_run),
        ("engine.messages_sent", e.messages_sent),
        ("engine.bytes_shipped", e.bytes_shipped),
        ("engine.batches_sent", e.batches_sent),
        ("engine.plan_cache_hits", e.plan_cache_hits),
        ("engine.plan_cache_misses", e.plan_cache_misses),
        ("engine.bloom_tested", e.bloom_tested),
        ("engine.bloom_passed", e.bloom_passed),
        ("engine.bloom_fallbacks", e.bloom_fallbacks),
        ("engine.piggybacked_payloads", e.piggybacked_payloads),
        ("engine.shared_frames", e.shared_frames),
    ] {
        c.insert(name, v);
    }

    let mut dht = pier_dht::DhtStats::default();
    for &addr in bed.nodes() {
        if let Some(node) = bed.node(addr) {
            let s = node.dht.stats();
            dht.deliveries += s.deliveries;
            dht.delivery_hops += s.delivery_hops;
            dht.forwards += s.forwards;
            dht.hop_limit_drops += s.hop_limit_drops;
            dht.app_msgs_sent += s.app_msgs_sent;
            dht.piggybacked_directs += s.piggybacked_directs;
        }
    }
    for (name, v) in [
        ("dht.app_msgs", dht.app_msgs_sent),
        ("dht.deliveries", dht.deliveries),
        ("dht.delivery_hops", dht.delivery_hops),
        ("dht.forwards", dht.forwards),
        ("dht.hop_limit_drops", dht.hop_limit_drops),
        ("dht.piggybacked_directs", dht.piggybacked_directs),
    ] {
        c.insert(name, v);
    }

    let m = bed.metrics();
    let snap = m.snapshot();
    for (name, v) in [
        ("simnet.msgs", snap.messages_sent),
        ("simnet.bytes", snap.bytes_sent),
        ("simnet.drops", snap.messages_dropped_loss + snap.messages_dropped_dead),
        ("simnet.timers_fired", m.timers_fired()),
    ] {
        c.insert(name, v);
    }
    c
}

/// `after - before`, counter by counter.
pub fn delta(after: &Counters, before: &Counters) -> Counters {
    after.iter().map(|(k, v)| (*k, v.saturating_sub(before.get(k).copied().unwrap_or(0)))).collect()
}
