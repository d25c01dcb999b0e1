//! Soft-state item storage.
//!
//! PIER stores temporary tuples *in* the DHT and relies on **soft state**: every
//! item carries a time-to-live and is silently discarded when it expires unless
//! its publisher renews it.  This is what lets the system tolerate node
//! failures without any explicit invalidation protocol — stale state simply
//! ages out.
//!
//! The local store indexes items by namespace, then by `(resource, instance)`.
//! `lscan` (local scan) iterates everything a node holds for one namespace —
//! the access method every PIER query begins with.

use crate::key::ResourceKey;
use pier_simnet::{Duration, SimTime};
use std::collections::BTreeMap;

/// One stored item: a key, an opaque value, and its expiry time.
#[derive(Clone, Debug, PartialEq)]
pub struct Item<V> {
    /// Full three-part name of the item.
    pub key: ResourceKey,
    /// The application payload (a tuple, in PIER's case).
    pub value: V,
    /// Virtual time at which the item disappears unless renewed.
    pub expires_at: SimTime,
    /// Virtual time at which the item was (last) stored here.  Continuous
    /// queries use this to restrict evaluation to a recent window of data.
    pub stored_at: SimTime,
    /// Stored by its publisher for itself
    /// ([`DhtNode::local_put`](crate::DhtNode::local_put)), not at its key's
    /// owner: it stays where it is when the ring hands keys over.
    pub local: bool,
}

impl<V> Item<V> {
    /// Has this item expired at time `now`?
    pub fn is_expired(&self, now: SimTime) -> bool {
        self.expires_at <= now
    }
}

/// Per-node soft-state store.
#[derive(Clone, Debug)]
pub struct SoftStateStore<V> {
    namespaces: BTreeMap<String, BTreeMap<(String, u64), Item<V>>>,
    item_count: usize,
    /// Running counters for diagnostics.
    total_puts: u64,
    total_expired: u64,
    /// Items removed by [`remove`](Self::remove) and
    /// [`clear_namespace`](Self::clear_namespace) (hand-off, not expiry).
    removals: u64,
    /// No stored item expires before this instant, so a sweep before it
    /// can remove nothing.  Inserts lower it; a renewal or a removal leaves
    /// it early, never late; a full sweep resets it to the earliest expiry
    /// among the items it keeps.
    next_expiry: SimTime,
}

impl<V> Default for SoftStateStore<V> {
    fn default() -> Self {
        SoftStateStore {
            namespaces: BTreeMap::new(),
            item_count: 0,
            total_puts: 0,
            total_expired: 0,
            removals: 0,
            next_expiry: SimTime::MAX,
        }
    }
}

impl<V: Clone> SoftStateStore<V> {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or renew an item.  An existing item with the same
    /// `(namespace, resource, instance)` is replaced (its TTL refreshed);
    /// returns `true` if the item was new.
    pub fn put(&mut self, key: ResourceKey, value: V, now: SimTime, ttl: Duration) -> bool {
        self.insert(Item { key, value, expires_at: now + ttl, stored_at: now, local: false })
    }

    /// Like [`put`](Self::put), for an item its publisher stores for itself
    /// rather than at its key's owner ([`Item::local`]).
    pub fn put_local(&mut self, key: ResourceKey, value: V, now: SimTime, ttl: Duration) -> bool {
        self.insert(Item { key, value, expires_at: now + ttl, stored_at: now, local: true })
    }

    fn insert(&mut self, item: Item<V>) -> bool {
        // Allocate the namespace's name only the first time it is stored.
        let ns = match self.namespaces.get_mut(&item.key.namespace) {
            Some(ns) => ns,
            None => self.namespaces.entry(item.key.namespace.clone()).or_default(),
        };
        self.next_expiry = self.next_expiry.min(item.expires_at);
        let existed = ns.insert((item.key.resource.clone(), item.key.instance), item).is_some();
        if !existed {
            self.item_count += 1;
        }
        self.total_puts += 1;
        !existed
    }

    /// Count of store mutations so far (every insert, renewal and
    /// removal).  Two reads at the same `now`/`since` with the same mutation
    /// count see identical contents — expiry is a pure function of `now` —
    /// so this stamps scan-result caches.
    pub fn mutation_count(&self) -> u64 {
        self.total_puts + self.removals
    }

    /// Live items for a `(namespace, resource)` pair (any instance) stored
    /// at or after `since`: the window of a continuous query, as
    /// [`lscan_since`](Self::lscan_since) reads it, so a probe sees what a
    /// scan of the same window sees.  `SimTime::ZERO` reads them all.
    pub fn get_since(
        &self,
        namespace: &str,
        resource: &str,
        now: SimTime,
        since: SimTime,
    ) -> Vec<&Item<V>> {
        self.namespaces
            .get(namespace)
            .map(|ns| {
                ns.range((resource.to_string(), 0)..=(resource.to_string(), u64::MAX))
                    .map(|(_, item)| item)
                    .filter(|item| !item.is_expired(now) && item.stored_at >= since)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Local scan: all live items in a namespace.
    pub fn lscan(&self, namespace: &str, now: SimTime) -> Vec<&Item<V>> {
        self.namespaces
            .get(namespace)
            .map(|ns| ns.values().filter(|item| !item.is_expired(now)).collect())
            .unwrap_or_default()
    }

    /// Local scan restricted to items stored at or after `since` (the window
    /// of a continuous query).
    pub fn lscan_since(&self, namespace: &str, now: SimTime, since: SimTime) -> Vec<&Item<V>> {
        self.namespaces
            .get(namespace)
            .map(|ns| {
                ns.values()
                    .filter(|item| !item.is_expired(now) && item.stored_at >= since)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Summarize the live contents of one namespace: the total *weight* of
    /// live items (as measured by `weight` — PIER passes the number of tuples
    /// a stored item carries, so batched and unbatched storage summarize
    /// identically) and the number of distinct live resources.  This is the
    /// local input to PIER's gossiped automatic statistics: summed over all
    /// nodes it yields the namespace's network-wide cardinality, because every
    /// item lives at exactly one responsible node.
    pub fn namespace_summary<F>(&self, namespace: &str, now: SimTime, weight: F) -> (u64, u64)
    where
        F: Fn(&V) -> u64,
    {
        let Some(ns) = self.namespaces.get(namespace) else { return (0, 0) };
        let mut total = 0u64;
        let mut distinct = 0u64;
        let mut last_resource: Option<&str> = None;
        for ((resource, _), item) in ns.iter() {
            if item.is_expired(now) {
                continue;
            }
            total += weight(&item.value);
            // Items are ordered by (resource, instance), so a resource change
            // in iteration order is a new distinct resource.
            if last_resource != Some(resource.as_str()) {
                distinct += 1;
                last_resource = Some(resource.as_str());
            }
        }
        (total, distinct)
    }

    /// All live items across every namespace (used when handing data over to a
    /// new ring neighbor).
    pub fn all_items(&self, now: SimTime) -> Vec<&Item<V>> {
        self.namespaces
            .values()
            .flat_map(|ns| ns.values())
            .filter(|item| !item.is_expired(now))
            .collect()
    }

    /// Remove a specific item.  Returns `true` if it was present.
    pub fn remove(&mut self, key: &ResourceKey) -> bool {
        if let Some(ns) = self.namespaces.get_mut(&key.namespace) {
            if ns.remove(&(key.resource.clone(), key.instance)).is_some() {
                self.item_count -= 1;
                self.removals += 1;
                if ns.is_empty() {
                    self.namespaces.remove(&key.namespace);
                }
                return true;
            }
        }
        false
    }

    /// Remove every item in a namespace, returning how many were dropped.
    pub fn clear_namespace(&mut self, namespace: &str) -> usize {
        if let Some(ns) = self.namespaces.remove(namespace) {
            self.item_count -= ns.len();
            self.removals += ns.len() as u64;
            ns.len()
        } else {
            0
        }
    }

    /// Drop all expired items; returns how many were removed.  A sweep
    /// before the earliest stored expiry touches no item.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        if now < self.next_expiry {
            return 0;
        }
        let mut removed = 0;
        let mut next_expiry = SimTime::MAX;
        self.namespaces.retain(|_, ns| {
            let before = ns.len();
            ns.retain(|_, item| {
                let live = !item.is_expired(now);
                if live {
                    next_expiry = next_expiry.min(item.expires_at);
                }
                live
            });
            removed += before - ns.len();
            !ns.is_empty()
        });
        self.next_expiry = next_expiry;
        self.item_count -= removed;
        self.total_expired += removed as u64;
        removed
    }

    /// Number of items currently held (including not-yet-swept expired items).
    pub fn len(&self) -> usize {
        self.item_count
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.item_count == 0
    }

    /// Namespaces currently present.
    pub fn namespaces(&self) -> Vec<&str> {
        self.namespaces.keys().map(|s| s.as_str()).collect()
    }

    /// Lifetime count of `put` operations.
    pub fn total_puts(&self) -> u64 {
        self.total_puts
    }

    /// Lifetime count of items removed by expiry sweeps.
    pub fn total_expired(&self) -> u64 {
        self.total_expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ns: &str, res: &str, inst: u64) -> ResourceKey {
        ResourceKey::new(ns, res, inst)
    }

    #[test]
    fn put_get_lscan() {
        let mut store: SoftStateStore<u64> = SoftStateStore::new();
        let now = SimTime::ZERO;
        let ttl = Duration::from_secs(60);
        assert!(store.put(key("t", "a", 0), 1, now, ttl));
        assert!(store.put(key("t", "a", 1), 2, now, ttl));
        assert!(store.put(key("t", "b", 0), 3, now, ttl));
        assert!(store.put(key("u", "a", 0), 4, now, ttl));
        // Renewal of an existing item is not "new".
        assert!(!store.put(key("t", "a", 0), 10, now, ttl));

        assert_eq!(store.len(), 4);
        let got = store.get_since("t", "a", now, SimTime::ZERO);
        assert_eq!(got.len(), 2);
        assert_eq!(store.lscan("t", now).len(), 3);
        assert_eq!(store.lscan("u", now).len(), 1);
        assert_eq!(store.lscan("missing", now).len(), 0);
        assert_eq!(store.all_items(now).len(), 4);
        assert_eq!(store.namespaces(), vec!["t", "u"]);
        assert_eq!(store.total_puts(), 5);
    }

    #[test]
    fn removals_count_as_mutations() {
        // Hand-off removes items at any instant; a scan cache stamped with
        // the mutation count must not outlive them.
        let mut store: SoftStateStore<u64> = SoftStateStore::new();
        let (now, ttl) = (SimTime::ZERO, Duration::from_secs(60));
        store.put(key("t", "a", 0), 1, now, ttl);
        store.put(key("u", "a", 0), 2, now, ttl);
        let before = store.mutation_count();
        assert!(store.remove(&key("t", "a", 0)));
        assert!(store.mutation_count() > before);
        let before = store.mutation_count();
        assert_eq!(store.clear_namespace("u"), 1);
        assert!(store.mutation_count() > before);
        assert_eq!(store.total_puts(), 2);
    }

    /// What a sweep may change: held items, lifetime expiries, mutations.
    fn counts<V: Clone>(store: &SoftStateStore<V>) -> (usize, u64, u64) {
        (store.len(), store.total_expired(), store.mutation_count())
    }

    #[test]
    fn expiry_hides_and_sweep_removes() {
        let mut store: SoftStateStore<&'static str> = SoftStateStore::new();
        let t0 = SimTime::ZERO;
        store.put(key("t", "x", 0), "short", t0, Duration::from_secs(10));
        store.put(key("t", "y", 0), "long", t0, Duration::from_secs(100));

        // A sweep before the earliest expiry changes nothing.
        let before = counts(&store);
        assert_eq!(store.sweep(SimTime::from_micros(9_999_999)), 0);
        assert_eq!(counts(&store), before);

        let t1 = SimTime::from_secs(11);
        // Expired items are invisible to reads even before sweeping.
        assert_eq!(store.lscan("t", t1).len(), 1);
        assert_eq!(store.get_since("t", "x", t1, SimTime::ZERO).len(), 0);
        assert_eq!(store.len(), 2);

        let removed = store.sweep(t1);
        assert_eq!(removed, 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_expired(), 1);
        // The sweep re-armed the watermark, so sweeps until then touch no item.
        assert_eq!(store.next_expiry, SimTime::from_secs(100));

        // Sweeping again removes nothing, and the next expiry is honoured.
        assert_eq!(store.sweep(t1), 0);
        assert_eq!(store.sweep(SimTime::from_secs(99)), 0);
        assert_eq!(store.sweep(SimTime::from_secs(100)), 1);
        assert_eq!(counts(&store), (0, 2, before.2));
    }

    #[test]
    fn a_renewed_item_goes_at_its_new_expiry() {
        let mut store: SoftStateStore<u32> = SoftStateStore::new();
        store.put(key("t", "a", 0), 1, SimTime::ZERO, Duration::from_secs(10));
        store.put(key("t", "b", 0), 2, SimTime::ZERO, Duration::from_secs(30));
        // Renewed at 5 s, the earliest item now expires at 15 s.
        store.put(key("t", "a", 0), 1, SimTime::from_secs(5), Duration::from_secs(10));
        let before = counts(&store);
        assert_eq!(store.sweep(SimTime::from_secs(10)), 0);
        assert_eq!(counts(&store), before);
        assert_eq!(store.sweep(SimTime::from_secs(14)), 0);
        assert_eq!(store.sweep(SimTime::from_secs(15)), 1);
        assert_eq!(store.lscan("t", SimTime::from_secs(15))[0].value, 2);
        assert_eq!(counts(&store), (1, 1, before.2));
    }

    #[test]
    fn after_remove_and_clear_a_sweep_removes_exactly_the_expired_rest() {
        let mut store: SoftStateStore<u32> = SoftStateStore::new();
        let put = |store: &mut SoftStateStore<u32>, ns, res, secs| {
            store.put(key(ns, res, 0), 0, SimTime::ZERO, Duration::from_secs(secs));
        };
        put(&mut store, "t", "a", 10);
        put(&mut store, "t", "b", 20);
        put(&mut store, "u", "c", 10);
        put(&mut store, "v", "d", 20);
        put(&mut store, "v", "e", 40);
        // Both items due at 10 s leave by hand-off, not expiry.
        assert!(store.remove(&key("t", "a", 0)));
        assert_eq!(store.clear_namespace("u"), 1);
        assert_eq!(store.sweep(SimTime::from_secs(10)), 0);
        assert_eq!(store.sweep(SimTime::from_secs(20)), 2);
        assert_eq!(store.namespaces(), vec!["v"]);
        assert_eq!(counts(&store), (1, 2, 7));
        assert_eq!(store.sweep(SimTime::from_secs(40)), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn an_emptied_store_sweeps_nothing_until_an_insert_rearms_it() {
        let mut store: SoftStateStore<u32> = SoftStateStore::new();
        assert_eq!(store.sweep(SimTime::from_secs(1)), 0);
        store.put(key("t", "a", 0), 1, SimTime::ZERO, Duration::from_secs(10));
        assert!(store.remove(&key("t", "a", 0)));
        let before = counts(&store);
        assert_eq!(store.sweep(SimTime::from_secs(10)), 0);
        assert_eq!(counts(&store), before);
        store.put(key("t", "b", 0), 2, SimTime::from_secs(20), Duration::from_secs(5));
        assert_eq!(store.sweep(SimTime::from_secs(24)), 0);
        assert_eq!(store.sweep(SimTime::from_secs(25)), 1);
        assert_eq!(counts(&store), (0, 1, before.2 + 1));
    }

    #[test]
    fn renewal_extends_ttl() {
        let mut store: SoftStateStore<u32> = SoftStateStore::new();
        store.put(key("t", "x", 0), 1, SimTime::ZERO, Duration::from_secs(10));
        // Renew at t=5 for another 10 s.
        store.put(key("t", "x", 0), 1, SimTime::from_secs(5), Duration::from_secs(10));
        assert_eq!(store.lscan("t", SimTime::from_secs(12)).len(), 1);
        assert_eq!(store.lscan("t", SimTime::from_secs(16)).len(), 0);
    }

    #[test]
    fn remove_and_clear() {
        let mut store: SoftStateStore<u32> = SoftStateStore::new();
        let now = SimTime::ZERO;
        let ttl = Duration::from_secs(60);
        store.put(key("t", "a", 0), 1, now, ttl);
        store.put(key("t", "b", 0), 2, now, ttl);
        store.put(key("u", "c", 0), 3, now, ttl);

        assert!(store.remove(&key("t", "a", 0)));
        assert!(!store.remove(&key("t", "a", 0)));
        assert_eq!(store.len(), 2);

        assert_eq!(store.clear_namespace("t"), 1);
        assert_eq!(store.clear_namespace("t"), 0);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
        assert_eq!(store.clear_namespace("u"), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn get_does_not_leak_other_resources() {
        let mut store: SoftStateStore<u32> = SoftStateStore::new();
        let now = SimTime::ZERO;
        let ttl = Duration::from_secs(60);
        store.put(key("t", "a", 0), 1, now, ttl);
        store.put(key("t", "ab", 0), 2, now, ttl);
        store.put(key("t", "b", 0), 3, now, ttl);
        let got = store.get_since("t", "a", now, SimTime::ZERO);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, 1);
    }

    #[test]
    fn lscan_since_filters_by_storage_time() {
        let mut store: SoftStateStore<u32> = SoftStateStore::new();
        let ttl = Duration::from_secs(100);
        store.put(key("t", "old", 0), 1, SimTime::from_secs(1), ttl);
        store.put(key("t", "new", 0), 2, SimTime::from_secs(10), ttl);
        let now = SimTime::from_secs(12);
        assert_eq!(store.lscan_since("t", now, SimTime::ZERO).len(), 2);
        assert_eq!(store.lscan_since("t", now, SimTime::from_secs(5)).len(), 1);
        assert_eq!(store.lscan_since("t", now, SimTime::from_secs(11)).len(), 0);
        // Renewal refreshes the stored_at timestamp.
        store.put(key("t", "old", 0), 1, SimTime::from_secs(11), ttl);
        assert_eq!(store.lscan_since("t", now, SimTime::from_secs(11)).len(), 1);
    }

    #[test]
    fn get_since_reads_the_window_lscan_since_reads() {
        let mut store: SoftStateStore<u32> = SoftStateStore::new();
        let ttl = Duration::from_secs(100);
        // The same row, re-published every epoch: one instance per publish.
        store.put(key("t", "a", 0), 1, SimTime::from_secs(1), ttl);
        store.put(key("t", "a", 1), 1, SimTime::from_secs(6), ttl);
        store.put(key("t", "a", 2), 1, SimTime::from_secs(11), ttl);
        let now = SimTime::from_secs(12);
        assert_eq!(store.get_since("t", "a", now, SimTime::ZERO).len(), 3);
        for since in [0, 5, 10, 12] {
            let since = SimTime::from_secs(since);
            assert_eq!(
                store.get_since("t", "a", now, since).len(),
                store.lscan_since("t", now, since).len()
            );
        }
        assert_eq!(store.get_since("t", "a", now, SimTime::from_secs(10)).len(), 1);
    }

    #[test]
    fn item_is_expired() {
        let item = Item {
            key: key("t", "a", 0),
            value: 0u8,
            expires_at: SimTime::from_secs(5),
            stored_at: SimTime::ZERO,
            local: false,
        };
        assert!(!item.is_expired(SimTime::from_secs(4)));
        assert!(item.is_expired(SimTime::from_secs(5)));
        assert!(item.is_expired(SimTime::from_secs(6)));
    }
}
