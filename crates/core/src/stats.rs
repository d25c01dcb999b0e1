//! Automatic statistics — gossiped per-table cardinality summaries.
//!
//! PIER has no central statistics authority, and nobody hand-installs
//! `ANALYZE` output on a planetary deployment.  Instead, every node
//! periodically summarizes the live soft state it stores (tuples and distinct
//! partitioning keys per table, read straight from the DHT store so TTL
//! expiry is accounted for) and **gossips** the summaries: each node pushes
//! its entire epoch-stamped view to a few ring neighbours, receivers keep the
//! newest entry per node, and the per-table totals — the sum over all known
//! nodes, exact when every node is known because base tuples are partitioned
//! across the ring — are folded into the local
//! [`Catalog::set_stats`](crate::catalog::Catalog::set_stats).
//!
//! Updating the catalog bumps [`Catalog::version`](crate::catalog::Catalog::
//! version), which invalidates the per-node plan cache *and* arms the engine's
//! mid-flight re-planner: a live continuous query whose cost ranking flips
//! under the new statistics is re-planned at the next epoch boundary.  To keep
//! the version (and therefore the plan cache) from churning on every gossip
//! round, the catalog is only touched when an estimate moves by more than
//! [`STATS_REL_THRESHOLD`].
//!
//! Entries **expire**: every absorbed entry is stamped with the local time
//! it was last *refreshed* (a strictly newer sequence number arrived), and
//! [`GossipView::expire`] evicts entries stale for longer than a TTL — so a
//! permanently departed node's last summary stops inflating the totals
//! after eight missed gossip rounds (the engine's `STATS_TTL_INTERVALS`).
//! Evicted nodes leave a tombstone holding their last sequence number; peers
//! keep re-gossiping the stale entry, and only a strictly fresher summary (a
//! genuine restart — sequence numbers are seeded from virtual time) may
//! re-enter the view, so expired entries cannot flap back in.

use crate::catalog::{Catalog, TableStats};
use pier_simnet::{NodeAddr, WireSize};
use std::collections::HashMap;

/// Relative change in an estimate below which the catalog is left untouched
/// (avoids plan-cache invalidation storms while gossip converges).
pub const STATS_REL_THRESHOLD: f64 = 0.1;

/// One table's local summary at one node: live tuples stored here and the
/// number of distinct live partitioning-key values stored here.
#[derive(Clone, Debug, PartialEq)]
pub struct TableSummary {
    /// Table (namespace) name.
    pub table: String,
    /// Live tuples this node stores for the table.
    pub rows: u64,
    /// Distinct live partitioning keys this node stores for the table.
    pub distinct_keys: u64,
}

impl WireSize for TableSummary {
    fn wire_size(&self) -> usize {
        self.table.len() + 2 + 16
    }
}

/// One node's epoch-stamped statistics entry, as it travels in gossip
/// messages.  `seq` increases every time the node re-summarizes; receivers
/// keep the highest `seq` per node.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeStatsEntry {
    /// Which node measured these summaries.
    pub node: NodeAddr,
    /// The node's summary sequence number (anti-entropy freshness).
    pub seq: u64,
    /// Per-table local summaries.
    pub tables: Vec<TableSummary>,
}

impl WireSize for NodeStatsEntry {
    fn wire_size(&self) -> usize {
        4 + 8 + self.tables.iter().map(|t| t.wire_size()).sum::<usize>()
    }
}

/// A node's view of the whole network's statistics: the newest
/// [`NodeStatsEntry`] it has seen from every node (including itself), each
/// stamped with the local virtual time it was last refreshed.
#[derive(Clone, Debug, Default)]
pub struct GossipView {
    /// Newest entry per node plus the local time (µs) a strictly fresher
    /// sequence number last arrived.
    entries: HashMap<NodeAddr, (NodeStatsEntry, u64)>,
    /// Expired nodes and the highest sequence number seen from them.
    /// Re-gossiped stale copies of an evicted entry are rejected; only a
    /// strictly fresher summary (a restarted node) re-enters the view.
    tombstones: HashMap<NodeAddr, u64>,
}

impl GossipView {
    /// An empty view.
    pub fn new() -> Self {
        GossipView::default()
    }

    /// Replace this node's own entry (refreshed at local time `now_micros`).
    pub fn update_self(
        &mut self,
        node: NodeAddr,
        seq: u64,
        tables: Vec<TableSummary>,
        now_micros: u64,
    ) {
        self.tombstones.remove(&node);
        self.entries.insert(node, (NodeStatsEntry { node, seq, tables }, now_micros));
    }

    /// Fold received entries in, keeping the newest per node.  Returns `true`
    /// if anything in the view changed.  Entries whose node was expired are
    /// only accepted with a strictly fresher sequence number than the
    /// tombstone records.
    pub fn absorb(&mut self, entries: Vec<NodeStatsEntry>, now_micros: u64) -> bool {
        let mut changed = false;
        for entry in entries {
            if let Some(&dead_seq) = self.tombstones.get(&entry.node) {
                if entry.seq <= dead_seq {
                    continue;
                }
                self.tombstones.remove(&entry.node);
            }
            match self.entries.get(&entry.node) {
                Some((known, _)) if known.seq >= entry.seq => {}
                _ => {
                    self.entries.insert(entry.node, (entry, now_micros));
                    changed = true;
                }
            }
        }
        changed
    }

    /// Evict entries not refreshed for `ttl_micros` (a `ttl_micros` of 0
    /// disables expiry).  Evicted nodes leave tombstones.  Returns how many
    /// entries were evicted.
    pub fn expire(&mut self, now_micros: u64, ttl_micros: u64) -> usize {
        if ttl_micros == 0 {
            return 0;
        }
        let dead: Vec<NodeAddr> = self
            .entries
            .iter()
            .filter(|(_, (_, seen))| now_micros.saturating_sub(*seen) > ttl_micros)
            .map(|(&node, _)| node)
            .collect();
        for node in &dead {
            if let Some((entry, _)) = self.entries.remove(node) {
                self.tombstones.insert(*node, entry.seq);
            }
        }
        dead.len()
    }

    /// The full view, ready to push to a gossip peer (deterministic order).
    pub fn wire_entries(&self) -> Vec<NodeStatsEntry> {
        let mut entries: Vec<NodeStatsEntry> =
            self.entries.values().map(|(e, _)| e.clone()).collect();
        entries.sort_by_key(|e| e.node.0);
        entries
    }

    /// How many nodes this view has heard from.
    pub fn nodes_known(&self) -> usize {
        self.entries.len()
    }

    /// Network-wide per-table totals: the sum of every known node's local
    /// summary.  Base tuples live at exactly one responsible node, so the sum
    /// converges to the true network-wide cardinality (and the distinct-key
    /// sum to the true key count, keys being partitioned across the ring).
    pub fn totals(&self) -> Vec<TableSummary> {
        let mut by_table: HashMap<String, (u64, u64)> = HashMap::new();
        for (entry, _) in self.entries.values() {
            for t in &entry.tables {
                let e = by_table.entry(t.table.clone()).or_insert((0, 0));
                e.0 += t.rows;
                e.1 += t.distinct_keys;
            }
        }
        let mut totals: Vec<TableSummary> = by_table
            .into_iter()
            .map(|(table, (rows, distinct_keys))| TableSummary { table, rows, distinct_keys })
            .collect();
        totals.sort_by(|a, b| a.table.cmp(&b.table));
        totals
    }
}

/// Fold network-wide totals into a catalog, touching
/// [`Catalog::set_stats`] (and therefore the catalog version) only for tables
/// whose estimate moved by more than [`STATS_REL_THRESHOLD`] relative to the
/// recorded one.  Returns the number of tables updated.
pub fn apply_totals(catalog: &mut Catalog, totals: &[TableSummary]) -> usize {
    let mut updated = 0;
    for t in totals {
        if !catalog.contains(&t.table) {
            continue;
        }
        let fresh = TableStats::with_rows(t.rows).distinct_keys(t.distinct_keys.max(1));
        let stale = match catalog.stats(&t.table) {
            None => true,
            Some(cur) => {
                rel_change(cur.rows, fresh.rows) > STATS_REL_THRESHOLD
                    || rel_change(cur.distinct_keys.unwrap_or(0), t.distinct_keys.max(1))
                        > STATS_REL_THRESHOLD
            }
        };
        if stale {
            catalog.set_stats(&t.table, fresh);
            updated += 1;
        }
    }
    updated
}

fn rel_change(old: u64, new: u64) -> f64 {
    let old = old as f64;
    let new = new as f64;
    (new - old).abs() / old.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableDef;
    use crate::tuple::Schema;
    use crate::value::DataType;
    use pier_simnet::Duration;

    fn entry(node: u32, seq: u64, rows: u64) -> NodeStatsEntry {
        NodeStatsEntry {
            node: NodeAddr(node),
            seq,
            tables: vec![TableSummary { table: "t".into(), rows, distinct_keys: rows / 2 }],
        }
    }

    #[test]
    fn absorb_keeps_newest_per_node() {
        let mut view = GossipView::new();
        assert!(view.absorb(vec![entry(1, 1, 10), entry(2, 1, 20)], 0));
        assert!(!view.absorb(vec![entry(1, 1, 99)], 1), "stale seq is ignored");
        assert!(view.absorb(vec![entry(1, 2, 30)], 2));
        assert_eq!(view.nodes_known(), 2);
        let totals = view.totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].rows, 50);
        assert_eq!(totals[0].distinct_keys, 25);
    }

    #[test]
    fn wire_entries_are_deterministic() {
        let mut view = GossipView::new();
        view.absorb(vec![entry(5, 1, 1), entry(2, 1, 1), entry(9, 1, 1)], 0);
        let nodes: Vec<u32> = view.wire_entries().iter().map(|e| e.node.0).collect();
        assert_eq!(nodes, vec![2, 5, 9]);
    }

    #[test]
    fn expiry_evicts_silent_nodes_and_tombstones_block_stale_reentry() {
        let mut view = GossipView::new();
        view.update_self(NodeAddr(0), 5, vec![], 0);
        view.absorb(vec![entry(1, 10, 40)], 0);
        // Node 1 keeps being re-gossiped at the same seq: not a refresh.
        assert!(!view.absorb(vec![entry(1, 10, 40)], 500));
        assert_eq!(view.expire(400, 1_000), 0, "within TTL nothing expires");
        // Our own entry refreshes every round; node 1 has gone silent.
        view.update_self(NodeAddr(0), 6, vec![], 1_500);
        assert_eq!(view.expire(2_000, 1_000), 1, "node 1 missed its refreshes");
        assert_eq!(view.nodes_known(), 1, "only our own entry remains");
        assert_eq!(view.totals().first().map(|t| t.rows), None);

        // A re-gossiped stale copy must NOT resurrect the entry…
        assert!(!view.absorb(vec![entry(1, 10, 40)], 2_100));
        assert_eq!(view.nodes_known(), 1);
        // …but a restarted node 1 (strictly fresher seq) re-enters.
        assert!(view.absorb(vec![entry(1, 11, 7)], 2_200));
        assert_eq!(view.nodes_known(), 2);
        assert_eq!(view.totals()[0].rows, 7);

        // TTL 0 disables expiry entirely.
        assert_eq!(view.expire(u64::MAX, 0), 0);
        assert_eq!(view.nodes_known(), 2);
    }

    #[test]
    fn apply_totals_respects_threshold() {
        let mut cat = Catalog::new();
        cat.register(TableDef::new(
            "t",
            Schema::of(&[("a", DataType::Int)]),
            "a",
            Duration::from_secs(60),
        ));
        let totals = vec![TableSummary { table: "t".into(), rows: 100, distinct_keys: 50 }];
        assert_eq!(apply_totals(&mut cat, &totals), 1, "no prior stats: always install");
        let v1 = cat.version();

        // Within the threshold: untouched, version stable.
        let close = vec![TableSummary { table: "t".into(), rows: 105, distinct_keys: 52 }];
        assert_eq!(apply_totals(&mut cat, &close), 0);
        assert_eq!(cat.version(), v1);

        // Beyond the threshold: updated, version bumped.
        let far = vec![TableSummary { table: "t".into(), rows: 200, distinct_keys: 50 }];
        assert_eq!(apply_totals(&mut cat, &far), 1);
        assert!(cat.version() > v1);
        assert_eq!(cat.stats("t").unwrap().rows, 200);

        // Unknown tables are skipped.
        let other = vec![TableSummary { table: "nope".into(), rows: 1, distinct_keys: 1 }];
        assert_eq!(apply_totals(&mut cat, &other), 0);
    }

    #[test]
    fn wire_sizes_scale() {
        let e = entry(1, 1, 10);
        assert!(e.wire_size() > 12);
        let mut big = e.clone();
        big.tables.push(TableSummary { table: "longer_name".into(), rows: 1, distinct_keys: 1 });
        assert!(big.wire_size() > e.wire_size());
    }
}
