//! The Chord-style DHT node.
//!
//! [`DhtNode`] implements the overlay protocol PIER relies on:
//!
//! * **Ring membership** — each node hashes its network address onto the
//!   160-bit identifier circle, joins through any existing node, and keeps a
//!   successor list, a predecessor pointer, and a finger table;
//! * **Periodic maintenance** — stabilization, finger repair and liveness
//!   probing run on timers (the Bamboo-style "periodic recovery" that works
//!   under churn, rather than reacting to every suspected failure);
//! * **Key-based routing** — `Route` envelopes are forwarded greedily to the
//!   closest preceding neighbor until they reach the responsible node, giving
//!   the `O(log n)` multi-hop behaviour the paper describes;
//! * **Soft-state storage** — `put` items carry TTLs and expire unless
//!   renewed; `lscan` exposes locally stored items to the query engine;
//! * **Dissemination** — a recursive ring-partition broadcast delivers query
//!   plans to every reachable node in `O(log n)` depth.
//!
//! The node is deliberately *not* a [`pier_simnet::Node`] itself: PIER embeds
//! it inside its own per-host engine (one `PierNode` = query engine + DHT).
//! All methods take the simulator [`Context`] of the enclosing node, and all
//! notifications for the layer above are queued as [`Upcall`]s retrieved with
//! [`DhtNode::take_upcalls`].

use crate::config::DhtConfig;
use crate::hash::hash_node_addr;
use crate::id::{Id, ID_BITS};
use crate::key::ResourceKey;
use crate::messages::{DhtMsg, Peer, RouteBody, RouteEnvelope, Upcall, WireItem};
use crate::storage::SoftStateStore;
use pier_simnet::{Context, Duration, NodeAddr, SimTime, WireSize};
use std::collections::HashMap;

/// Timer tokens used by the DHT layer.  The enclosing node must route timer
/// callbacks with tokens in `TOKEN_BASE..TOKEN_LIMIT` back to
/// [`DhtNode::handle_timer`].
pub mod timers {
    /// Lowest token value owned by the DHT.
    pub const TOKEN_BASE: u64 = 1;
    /// One past the highest token value owned by the DHT.
    pub const TOKEN_LIMIT: u64 = 100;
    /// Periodic successor/predecessor stabilization.
    pub const STABILIZE: u64 = 1;
    /// Periodic finger-table repair (one finger per firing).
    pub const FIX_FINGERS: u64 = 2;
    /// Periodic liveness probing of neighbors.
    pub const PING: u64 = 3;
    /// Periodic soft-state expiry sweep.
    pub const SWEEP: u64 = 4;
    /// Join retry while not yet part of the ring.
    pub const JOIN_RETRY: u64 = 5;
}

/// Why a `FindSuccessor` request was issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LookupPurpose {
    /// Initial join: the result becomes our successor.
    Join,
    /// Refreshing finger table slot `k`.
    Finger(usize),
    /// Requested by the application through [`DhtNode::find_successor`].
    App,
}

/// Statistics the DHT keeps about its own behaviour (read by benchmarks).
#[derive(Clone, Copy, Debug, Default)]
pub struct DhtStats {
    /// Routed operations delivered at this node (it was responsible).
    pub deliveries: u64,
    /// Sum of hop counts over all deliveries (for average path length).
    pub delivery_hops: u64,
    /// Routed operations forwarded by this node.
    pub forwards: u64,
    /// Routed operations dropped because they exceeded the hop limit.
    pub hop_limit_drops: u64,
    /// Broadcast messages forwarded by this node.
    pub broadcast_forwards: u64,
    /// Wire messages this node sent carrying application traffic (`put` /
    /// `send` payloads being routed — originated *or* forwarded — plus
    /// point-to-point `Direct` sends).  Summed across nodes this is the true
    /// per-hop DHT message cost of the query wire paths, the quantity
    /// destination-coalesced batching attacks.
    pub app_msgs_sent: u64,
    /// Always 0: every direct payload travels in its own
    /// [`DhtMsg::Direct`] message.  Kept so existing readers of the counter
    /// set still compile.
    pub piggybacked_directs: u64,
}

/// A Chord node with PIER's put/get/send/lscan/broadcast API.
pub struct DhtNode<P> {
    config: DhtConfig,
    me: Peer,
    bootstrap: Option<NodeAddr>,
    joined: bool,
    predecessor: Option<Peer>,
    /// Successor list; `[0]` is the immediate successor.  Never contains `me`
    /// unless this node believes it is alone in the ring.
    successors: Vec<Peer>,
    /// Finger table; slot `j` targets `me.id + 2^(ID_BITS - finger_count + j)`.
    fingers: Vec<Option<Peer>>,
    next_finger: usize,
    store: SoftStateStore<P>,
    pending_lookups: HashMap<u64, LookupPurpose>,
    next_req_id: u64,
    last_heard: HashMap<NodeAddr, SimTime>,
    upcalls: Vec<Upcall<P>>,
    stats: DhtStats,
}

impl<P: Clone + WireSize> DhtNode<P> {
    /// Create a node for the given simulator address.  `bootstrap` is any
    /// existing ring member (or `None` / the node's own address if this is the
    /// first node).
    pub fn new(addr: NodeAddr, config: DhtConfig, bootstrap: Option<NodeAddr>) -> Self {
        let id = hash_node_addr(addr.0);
        let me = Peer::new(addr, id);
        let fingers = vec![None; config.finger_count];
        DhtNode {
            config,
            me,
            bootstrap,
            joined: false,
            predecessor: None,
            successors: vec![me],
            fingers,
            next_finger: 0,
            store: SoftStateStore::new(),
            pending_lookups: HashMap::new(),
            next_req_id: 1,
            last_heard: HashMap::new(),
            upcalls: Vec::new(),
            stats: DhtStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This node's ring identifier.
    pub fn id(&self) -> Id {
        self.me.id
    }

    /// This node's network address.
    pub fn addr(&self) -> NodeAddr {
        self.me.addr
    }

    /// This node as a [`Peer`].
    pub fn peer(&self) -> Peer {
        self.me
    }

    /// Has the node completed its initial join?
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// The immediate successor (self if alone).
    pub fn successor(&self) -> Peer {
        self.successors.first().copied().unwrap_or(self.me)
    }

    /// The current successor list.
    pub fn successor_list(&self) -> &[Peer] {
        &self.successors
    }

    /// The current predecessor, if known.
    pub fn predecessor(&self) -> Option<Peer> {
        self.predecessor
    }

    /// Number of populated finger-table entries.
    pub fn fingers_filled(&self) -> usize {
        self.fingers.iter().filter(|f| f.is_some()).count()
    }

    /// Routing and delivery statistics.
    pub fn stats(&self) -> DhtStats {
        self.stats
    }

    /// Number of items stored locally (primaries and replicas).
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Direct read-only access to the soft-state store.
    pub fn store(&self) -> &SoftStateStore<P> {
        &self.store
    }

    /// Drain the queued upcalls for the application layer.
    pub fn take_upcalls(&mut self) -> Vec<Upcall<P>> {
        std::mem::take(&mut self.upcalls)
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Boot the node: arm maintenance timers and start the join protocol.
    pub fn start(&mut self, ctx: &mut Context<DhtMsg<P>>) {
        ctx.set_timer(self.config.stabilize_interval, timers::STABILIZE);
        ctx.set_timer(self.config.fix_finger_interval, timers::FIX_FINGERS);
        ctx.set_timer(self.config.ping_interval, timers::PING);
        ctx.set_timer(self.config.storage_sweep_interval, timers::SWEEP);
        match self.bootstrap {
            None => self.become_root(),
            Some(b) if b == self.me.addr => self.become_root(),
            Some(b) => {
                self.send_join_lookup(ctx, b);
                ctx.set_timer(self.config.stabilize_interval.saturating_mul(4), timers::JOIN_RETRY);
            }
        }
    }

    fn become_root(&mut self) {
        self.joined = true;
        self.successors = vec![self.me];
        self.upcalls.push(Upcall::Joined);
    }

    fn send_join_lookup(&mut self, ctx: &mut Context<DhtMsg<P>>, bootstrap: NodeAddr) {
        let req_id = self.fresh_req_id();
        self.pending_lookups.insert(req_id, LookupPurpose::Join);
        let msg = DhtMsg::Route {
            target: self.me.id,
            hops: 0,
            body: RouteBody::FindSuccessor { req_id, origin: self.me.addr },
        };
        ctx.send(bootstrap, msg);
    }

    fn fresh_req_id(&mut self) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += 1;
        // Mix in the address so ids from different nodes do not collide.
        (self.me.addr.0 as u64) << 40 | id
    }

    // ------------------------------------------------------------------
    // Public DHT API (PIER's put / get / send / lscan / broadcast)
    // ------------------------------------------------------------------

    /// Store `value` under `key` in the DHT (routed to the responsible node).
    /// `ttl` defaults to [`DhtConfig::default_ttl`].  Returns the number of
    /// wire messages sent (0 when this node is itself responsible).
    pub fn put(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        key: ResourceKey,
        value: P,
        ttl: Option<Duration>,
    ) -> usize {
        let ttl = ttl.unwrap_or(self.config.default_ttl);
        let item = WireItem { key, value, ttl_us: ttl.as_micros() };
        let target = item.key.routing_id();
        let body = RouteBody::Put { item, replicate: self.config.replication_factor > 0 };
        self.route(ctx, target, body, 0)
    }

    /// Store many items in the DHT with one coalesced submission: items whose
    /// first routing hop coincides travel in a single [`DhtMsg::RouteBatch`]
    /// wire message (and stay coalesced along shared path prefixes, every hop
    /// re-grouping by its own next hops).  Semantically identical to calling
    /// [`DhtNode::put`] per item; the wire cost is what changes.  Returns the
    /// number of wire messages actually sent.
    pub fn put_batch(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        items: Vec<(ResourceKey, P, Option<Duration>)>,
    ) -> usize {
        let replicate = self.config.replication_factor > 0;
        let envelopes: Vec<RouteEnvelope<P>> = items
            .into_iter()
            .map(|(key, value, ttl)| {
                let ttl = ttl.unwrap_or(self.config.default_ttl);
                let item = WireItem { key, value, ttl_us: ttl.as_micros() };
                let target = item.key.routing_id();
                RouteEnvelope { target, hops: 0, body: RouteBody::Put { item, replicate } }
            })
            .collect();
        self.route_many(ctx, envelopes)
    }

    /// Route many application payloads, each to the node responsible for its
    /// key, coalescing payloads that share a next hop into single
    /// [`DhtMsg::RouteBatch`] wire messages.  Returns the number of wire
    /// messages actually sent (payloads this node is itself responsible for
    /// are delivered locally and cost nothing on the wire).
    pub fn send_to_key_batch(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        items: Vec<(ResourceKey, P)>,
    ) -> usize {
        let envelopes: Vec<RouteEnvelope<P>> = items
            .into_iter()
            .map(|(key, payload)| {
                let target = key.routing_id();
                RouteEnvelope { target, hops: 0, body: RouteBody::AppSend { key, payload } }
            })
            .collect();
        self.route_many(ctx, envelopes)
    }

    /// Fetch all items stored under `(key.namespace, key.resource)`.  Returns
    /// a request id; the answer arrives later as [`Upcall::GetResult`].
    pub fn get(&mut self, ctx: &mut Context<DhtMsg<P>>, key: ResourceKey) -> u64 {
        let req_id = self.fresh_req_id();
        let target = key.routing_id();
        let body = RouteBody::Get { key, req_id, origin: self.me.addr };
        self.route(ctx, target, body, 0);
        req_id
    }

    /// Route an application payload to the node responsible for `key`
    /// (PIER uses this to rehash tuples to join and aggregation sites).
    /// Returns the number of wire messages sent (0 on local delivery).
    pub fn send_to_key(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        key: ResourceKey,
        payload: P,
    ) -> usize {
        let target = key.routing_id();
        let body = RouteBody::AppSend { key, payload };
        self.route(ctx, target, body, 0)
    }

    /// Send an application payload directly to a known node address (one hop,
    /// no DHT routing) — PIER streams query results back to the origin this way.
    pub fn send_direct(&mut self, ctx: &mut Context<DhtMsg<P>>, to: NodeAddr, payload: P) {
        self.stats.app_msgs_sent += 1;
        ctx.send(to, DhtMsg::Direct { payload });
    }

    /// Ask for the node responsible for `target`.  The answer arrives as
    /// [`Upcall::LookupResult`] carrying the returned request id.
    pub fn find_successor(&mut self, ctx: &mut Context<DhtMsg<P>>, target: Id) -> u64 {
        let req_id = self.fresh_req_id();
        self.pending_lookups.insert(req_id, LookupPurpose::App);
        let body = RouteBody::FindSuccessor { req_id, origin: self.me.addr };
        self.route(ctx, target, body, 0);
        req_id
    }

    /// Disseminate `payload` to every reachable node (including this one,
    /// which receives it as an immediate [`Upcall::Broadcast`]).
    pub fn broadcast(&mut self, ctx: &mut Context<DhtMsg<P>>, payload: P) {
        let range_end = self.me.id;
        self.handle_broadcast(ctx, payload, range_end, 0);
    }

    /// Count of local store mutations so far — see
    /// [`SoftStateStore::mutation_count`](crate::storage::SoftStateStore::mutation_count).
    pub fn store_mutations(&self) -> u64 {
        self.store.mutation_count()
    }

    /// Locally stored items of `namespace` that are still live at `now`.
    pub fn lscan(&self, namespace: &str, now: SimTime) -> Vec<(ResourceKey, P)> {
        self.store
            .lscan(namespace, now)
            .into_iter()
            .map(|item| (item.key.clone(), item.value.clone()))
            .collect()
    }

    /// Locally stored items of `namespace` that are live at `now` and were
    /// stored at or after `since` (continuous-query windows).
    pub fn lscan_since(
        &self,
        namespace: &str,
        now: SimTime,
        since: SimTime,
    ) -> Vec<(ResourceKey, P)> {
        self.store
            .lscan_since(namespace, now, since)
            .into_iter()
            .map(|item| (item.key.clone(), item.value.clone()))
            .collect()
    }

    /// Summarize the live local contents of one namespace: total item weight
    /// (per the caller's `weight` measure, e.g. tuples per stored batch) and
    /// distinct live resources.  See
    /// [`SoftStateStore::namespace_summary`](crate::storage::SoftStateStore::namespace_summary).
    pub fn namespace_summary<F>(&self, namespace: &str, now: SimTime, weight: F) -> (u64, u64)
    where
        F: Fn(&P) -> u64,
    {
        self.store.namespace_summary(namespace, now, weight)
    }

    /// Store an item directly at this node, bypassing routing.  PIER uses
    /// this for data that is *about* the local node (e.g. its own monitoring
    /// readings) when partitioning by publisher is desired.
    pub fn local_put(&mut self, now: SimTime, key: ResourceKey, value: P, ttl: Option<Duration>) {
        let ttl = ttl.unwrap_or(self.config.default_ttl);
        let is_new = self.store.put(key.clone(), value.clone(), now, ttl);
        if is_new {
            self.upcalls.push(Upcall::NewItem { key, value });
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Handle a DHT message delivered to the enclosing node.
    pub fn handle_message(&mut self, ctx: &mut Context<DhtMsg<P>>, from: NodeAddr, msg: DhtMsg<P>) {
        self.last_heard.insert(from, ctx.now());
        match msg {
            DhtMsg::Route { target, hops, body } => self.handle_route(ctx, target, hops, body),
            DhtMsg::RouteBatch { routes } => {
                self.route_many(ctx, routes);
            }
            DhtMsg::FoundSuccessor { req_id, successor, hops } => {
                self.handle_found_successor(ctx, req_id, successor, hops)
            }
            DhtMsg::GetNeighbors => {
                let reply = DhtMsg::Neighbors {
                    predecessor: self.predecessor,
                    successors: self.successors.clone(),
                };
                ctx.send(from, reply);
            }
            DhtMsg::Neighbors { predecessor, successors } => {
                self.handle_neighbors(ctx, from, predecessor, successors)
            }
            DhtMsg::Notify { candidate } => self.handle_notify(ctx, candidate),
            DhtMsg::Ping { nonce } => ctx.send(from, DhtMsg::Pong { nonce }),
            DhtMsg::Pong { .. } => { /* liveness recorded above */ }
            DhtMsg::Replicate { items } => {
                let now = ctx.now();
                for item in items {
                    self.store.put(item.key, item.value, now, Duration::from_micros(item.ttl_us));
                }
            }
            DhtMsg::Handoff { items } => {
                let now = ctx.now();
                for item in items {
                    let is_new = self.store.put(
                        item.key.clone(),
                        item.value.clone(),
                        now,
                        Duration::from_micros(item.ttl_us),
                    );
                    if is_new {
                        self.upcalls.push(Upcall::NewItem { key: item.key, value: item.value });
                    }
                }
            }
            DhtMsg::GetReply { req_id, key, items } => {
                self.upcalls.push(Upcall::GetResult { req_id, key, items });
            }
            DhtMsg::Direct { payload } => {
                self.upcalls.push(Upcall::Direct { payload, from });
            }
            DhtMsg::Broadcast { payload, range_end, depth } => {
                self.handle_broadcast(ctx, payload, range_end, depth)
            }
        }
    }

    /// Handle a timer owned by the DHT (token in `timers::TOKEN_BASE..TOKEN_LIMIT`).
    pub fn handle_timer(&mut self, ctx: &mut Context<DhtMsg<P>>, token: u64) {
        match token {
            timers::STABILIZE => {
                self.stabilize(ctx);
                ctx.set_timer(self.config.stabilize_interval, timers::STABILIZE);
            }
            timers::FIX_FINGERS => {
                self.fix_next_finger(ctx);
                ctx.set_timer(self.config.fix_finger_interval, timers::FIX_FINGERS);
            }
            timers::PING => {
                self.probe_neighbors(ctx);
                ctx.set_timer(self.config.ping_interval, timers::PING);
            }
            timers::SWEEP => {
                self.store.sweep(ctx.now());
                ctx.set_timer(self.config.storage_sweep_interval, timers::SWEEP);
            }
            timers::JOIN_RETRY if !self.joined => {
                if let Some(b) = self.bootstrap {
                    self.send_join_lookup(ctx, b);
                }
                ctx.set_timer(self.config.stabilize_interval.saturating_mul(4), timers::JOIN_RETRY);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Where a message routed to `target` would be forwarded from here:
    /// `None` means this node is (as far as it knows) responsible for the key.
    ///
    /// PIER's hierarchical aggregation uses this to walk partial aggregates
    /// hop-by-hop toward the aggregation root, combining at every step.
    pub fn route_next_hop(&self, target: &Id) -> Option<Peer> {
        self.next_hop(target)
    }

    /// Is this node responsible for `target` (i.e. `target ∈ (pred, me]`)?
    fn is_responsible(&self, target: &Id) -> bool {
        match &self.predecessor {
            Some(pred) => target.in_half_open_interval(&pred.id, &self.me.id),
            // Without a predecessor we only claim keys if we are alone.
            None => self.successor().addr == self.me.addr,
        }
    }

    /// The next hop for `target`, or `None` if this node should deliver.
    fn next_hop(&self, target: &Id) -> Option<Peer> {
        if self.is_responsible(target) {
            return None;
        }
        let succ = self.successor();
        if succ.addr == self.me.addr {
            return None;
        }
        if target.in_half_open_interval(&self.me.id, &succ.id) {
            return Some(succ);
        }
        let cp = self.closest_preceding(target);
        if cp.addr == self.me.addr {
            Some(succ)
        } else {
            Some(cp)
        }
    }

    /// The known peer closest to (but strictly preceding) `target`.
    fn closest_preceding(&self, target: &Id) -> Peer {
        let mut best = self.me;
        let mut best_dist = self.me.id.distance_to(target);
        let candidates = self.fingers.iter().flatten().chain(self.successors.iter()).copied();
        for peer in candidates {
            if peer.addr == self.me.addr {
                continue;
            }
            if peer.id.in_open_interval(&self.me.id, target) {
                let dist = peer.id.distance_to(target);
                if dist < best_dist {
                    best = peer;
                    best_dist = dist;
                }
            }
        }
        best
    }

    fn route(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        target: Id,
        body: RouteBody<P>,
        hops: u8,
    ) -> usize {
        match self.next_hop(&target) {
            None => {
                self.deliver(ctx, target, hops, body);
                0
            }
            Some(peer) => {
                if hops >= self.config.max_route_hops {
                    self.stats.hop_limit_drops += 1;
                    return 0;
                }
                self.stats.forwards += 1;
                if matches!(body, RouteBody::Put { .. } | RouteBody::AppSend { .. }) {
                    self.stats.app_msgs_sent += 1;
                }
                ctx.send(peer.addr, DhtMsg::Route { target, hops: hops + 1, body });
                1
            }
        }
    }

    fn handle_route(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        target: Id,
        hops: u8,
        body: RouteBody<P>,
    ) {
        self.route(ctx, target, body, hops);
    }

    /// Route a set of envelopes, coalescing the ones that share a next hop
    /// into one [`DhtMsg::RouteBatch`] per peer.  Envelopes this node is
    /// responsible for are delivered immediately.  Returns the number of wire
    /// messages sent.
    fn route_many(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        envelopes: Vec<RouteEnvelope<P>>,
    ) -> usize {
        // Group by next hop, preserving arrival order within each group so
        // batching never reorders two ops on the same (source, destination)
        // pair.  Groups are kept in first-occurrence order (not HashMap
        // iteration order) so runs stay deterministic; the index map makes
        // the grouping O(n).
        let mut index: HashMap<NodeAddr, usize> = HashMap::new();
        let mut groups: Vec<(NodeAddr, Vec<RouteEnvelope<P>>)> = Vec::new();
        for envelope in envelopes {
            match self.next_hop(&envelope.target) {
                None => {
                    let RouteEnvelope { target, hops, body } = envelope;
                    self.deliver(ctx, target, hops, body);
                }
                Some(peer) => {
                    if envelope.hops >= self.config.max_route_hops {
                        self.stats.hop_limit_drops += 1;
                        continue;
                    }
                    self.stats.forwards += 1;
                    match index.get(&peer.addr) {
                        Some(&i) => groups[i].1.push(envelope),
                        None => {
                            index.insert(peer.addr, groups.len());
                            groups.push((peer.addr, vec![envelope]));
                        }
                    }
                }
            }
        }
        let mut sent = 0;
        for (peer, mut group) in groups {
            for envelope in &mut group {
                envelope.hops += 1;
            }
            sent += 1;
            if group
                .iter()
                .any(|e| matches!(e.body, RouteBody::Put { .. } | RouteBody::AppSend { .. }))
            {
                self.stats.app_msgs_sent += 1;
            }
            if group.len() == 1 {
                // No sense paying the batch framing for a single op.
                let RouteEnvelope { target, hops, body } = group.pop().expect("len checked");
                ctx.send(peer, DhtMsg::Route { target, hops, body });
            } else {
                ctx.send(peer, DhtMsg::RouteBatch { routes: group });
            }
        }
        sent
    }

    /// Execute a routed operation at the responsible node (this one).
    fn deliver(&mut self, ctx: &mut Context<DhtMsg<P>>, _target: Id, hops: u8, body: RouteBody<P>) {
        self.stats.deliveries += 1;
        self.stats.delivery_hops += hops as u64;
        match body {
            RouteBody::Put { item, replicate } => {
                let now = ctx.now();
                let ttl = Duration::from_micros(item.ttl_us);
                let is_new = self.store.put(item.key.clone(), item.value.clone(), now, ttl);
                if is_new {
                    self.upcalls
                        .push(Upcall::NewItem { key: item.key.clone(), value: item.value.clone() });
                }
                if replicate {
                    self.replicate_item(ctx, item);
                }
            }
            RouteBody::Get { key, req_id, origin } => {
                let now = ctx.now();
                let items = self
                    .store
                    .get(&key.namespace, &key.resource, now)
                    .into_iter()
                    .map(|item| (item.key.clone(), item.value.clone()))
                    .collect();
                ctx.send(origin, DhtMsg::GetReply { req_id, key, items });
            }
            RouteBody::AppSend { key, payload } => {
                self.upcalls.push(Upcall::Delivered { key, payload });
            }
            RouteBody::FindSuccessor { req_id, origin } => {
                ctx.send(origin, DhtMsg::FoundSuccessor { req_id, successor: self.me, hops });
            }
        }
    }

    fn replicate_item(&mut self, ctx: &mut Context<DhtMsg<P>>, item: WireItem<P>) {
        let replicas: Vec<Peer> = self
            .successors
            .iter()
            .filter(|p| p.addr != self.me.addr)
            .take(self.config.replication_factor)
            .copied()
            .collect();
        for peer in replicas {
            ctx.send(peer.addr, DhtMsg::Replicate { items: vec![item.clone()] });
        }
    }

    // ------------------------------------------------------------------
    // Ring maintenance
    // ------------------------------------------------------------------

    fn handle_found_successor(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        req_id: u64,
        successor: Peer,
        hops: u8,
    ) {
        let Some(purpose) = self.pending_lookups.remove(&req_id) else { return };
        match purpose {
            LookupPurpose::Join => {
                if !self.joined {
                    self.joined = true;
                    if successor.addr != self.me.addr {
                        self.successors = vec![successor];
                        ctx.send(successor.addr, DhtMsg::Notify { candidate: self.me });
                        ctx.send(successor.addr, DhtMsg::GetNeighbors);
                    }
                    self.upcalls.push(Upcall::Joined);
                }
            }
            LookupPurpose::Finger(slot) => {
                if successor.addr != self.me.addr && slot < self.fingers.len() {
                    self.fingers[slot] = Some(successor);
                    self.last_heard.entry(successor.addr).or_insert_with(|| ctx.now());
                }
            }
            LookupPurpose::App => {
                self.upcalls.push(Upcall::LookupResult { req_id, successor, hops });
            }
        }
    }

    fn stabilize(&mut self, ctx: &mut Context<DhtMsg<P>>) {
        let succ = self.successor();
        if succ.addr == self.me.addr {
            return;
        }
        ctx.send(succ.addr, DhtMsg::GetNeighbors);
        ctx.send(succ.addr, DhtMsg::Notify { candidate: self.me });
    }

    fn handle_neighbors(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        from: NodeAddr,
        predecessor: Option<Peer>,
        mut successors: Vec<Peer>,
    ) {
        let succ = self.successor();
        if from != succ.addr {
            // Stale reply from a node that is no longer our successor.
            return;
        }
        // Chord stabilization: if our successor's predecessor sits between us
        // and our successor, it is a closer successor — adopt it.
        if let Some(x) = predecessor {
            if x.addr != self.me.addr
                && x.addr != succ.addr
                && x.id.in_open_interval(&self.me.id, &succ.id)
            {
                self.successors.insert(0, x);
                self.last_heard.entry(x.addr).or_insert_with(|| ctx.now());
                ctx.send(x.addr, DhtMsg::Notify { candidate: self.me });
            }
        }
        // Rebuild the successor list: our successor followed by its list.
        let head = self.successor();
        let mut list = vec![head];
        successors.retain(|p| p.addr != self.me.addr && p.addr != head.addr);
        list.extend(successors);
        list.dedup_by_key(|p| p.addr);
        list.truncate(self.config.successor_list_len);
        self.successors = list;
    }

    fn handle_notify(&mut self, ctx: &mut Context<DhtMsg<P>>, candidate: Peer) {
        if candidate.addr == self.me.addr {
            return;
        }
        let adopt = match &self.predecessor {
            None => true,
            Some(pred) => candidate.id.in_open_interval(&pred.id, &self.me.id),
        };
        if adopt {
            self.predecessor = Some(candidate);
            self.last_heard.entry(candidate.addr).or_insert_with(|| ctx.now());
            self.handoff_items(ctx, candidate);
        }
        // A lone root learns of a second node through notify: adopt it as
        // successor so the two-node ring closes.
        if self.successor().addr == self.me.addr {
            self.successors = vec![candidate];
        }
    }

    /// After adopting a new predecessor, transfer items we no longer own.
    fn handoff_items(&mut self, ctx: &mut Context<DhtMsg<P>>, new_pred: Peer) {
        let now = ctx.now();
        let to_move: Vec<WireItem<P>> = self
            .store
            .all_items(now)
            .into_iter()
            .filter(|item| {
                let id = item.key.routing_id();
                !id.in_half_open_interval(&new_pred.id, &self.me.id)
            })
            .map(|item| WireItem {
                key: item.key.clone(),
                value: item.value.clone(),
                ttl_us: item.expires_at.saturating_since(now).as_micros(),
            })
            .collect();
        if to_move.is_empty() {
            return;
        }
        for item in &to_move {
            self.store.remove(&item.key);
        }
        ctx.send(new_pred.addr, DhtMsg::Handoff { items: to_move });
    }

    fn fix_next_finger(&mut self, ctx: &mut Context<DhtMsg<P>>) {
        if !self.joined || self.successor().addr == self.me.addr {
            return;
        }
        let slot = self.next_finger;
        self.next_finger = (self.next_finger + 1) % self.config.finger_count;
        let bit = ID_BITS - self.config.finger_count + slot;
        let target = self.me.id.finger_target(bit);
        let req_id = self.fresh_req_id();
        self.pending_lookups.insert(req_id, LookupPurpose::Finger(slot));
        let body = RouteBody::FindSuccessor { req_id, origin: self.me.addr };
        self.route(ctx, target, body, 0);
    }

    fn probe_neighbors(&mut self, ctx: &mut Context<DhtMsg<P>>) {
        let now = ctx.now();
        // Collect the peers whose liveness we care about.
        let mut peers: Vec<Peer> = Vec::new();
        if let Some(p) = self.predecessor {
            peers.push(p);
        }
        peers.extend(self.successors.iter().copied());
        peers.extend(self.fingers.iter().flatten().copied());
        peers.sort_by_key(|p| p.addr.0);
        peers.dedup_by_key(|p| p.addr);
        peers.retain(|p| p.addr != self.me.addr);

        let mut failed: Vec<NodeAddr> = Vec::new();
        for peer in &peers {
            let last = self.last_heard.get(&peer.addr).copied().unwrap_or(SimTime::ZERO);
            let silence = now.saturating_since(last);
            if silence > self.config.failure_timeout {
                failed.push(peer.addr);
            } else {
                let nonce = self.fresh_req_id();
                ctx.send(peer.addr, DhtMsg::Ping { nonce });
            }
        }
        for addr in failed {
            self.handle_peer_failure(addr);
        }
    }

    /// Remove every reference to a peer we believe has failed.
    fn handle_peer_failure(&mut self, addr: NodeAddr) {
        if self.predecessor.map(|p| p.addr) == Some(addr) {
            self.predecessor = None;
        }
        self.successors.retain(|p| p.addr != addr);
        if self.successors.is_empty() {
            // Fall back to any live finger, otherwise we are (as far as we
            // know) alone.
            if let Some(f) = self.fingers.iter().flatten().find(|p| p.addr != addr) {
                self.successors = vec![*f];
            } else {
                self.successors = vec![self.me];
            }
        }
        for slot in self.fingers.iter_mut() {
            if slot.map(|p| p.addr) == Some(addr) {
                *slot = None;
            }
        }
        self.last_heard.remove(&addr);
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    fn handle_broadcast(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        payload: P,
        range_end: Id,
        depth: u8,
    ) {
        self.upcalls.push(Upcall::Broadcast { payload: payload.clone() });
        if depth > 64 {
            return;
        }
        // Candidate next hops: every distinct peer we know inside our
        // responsibility segment (me, range_end).
        let mut targets: Vec<Peer> = self
            .fingers
            .iter()
            .flatten()
            .chain(self.successors.iter())
            .copied()
            .filter(|p| p.addr != self.me.addr)
            .filter(|p| {
                // When range_end == me.id the segment is the whole remaining ring.
                p.id.in_open_interval(&self.me.id, &range_end) || range_end == self.me.id
            })
            .collect();
        targets.sort_by_key(|p| self.me.id.distance_to(&p.id));
        targets.dedup_by_key(|p| p.addr);
        for i in 0..targets.len() {
            let sub_end = if i + 1 < targets.len() { targets[i + 1].id } else { range_end };
            self.stats.broadcast_forwards += 1;
            ctx.send(
                targets[i].addr,
                DhtMsg::Broadcast {
                    payload: payload.clone(),
                    range_end: sub_end,
                    depth: depth + 1,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_simnet::testkit::TestContext;

    type TestNode = DhtNode<u64>;

    fn make(addr: u32) -> TestNode {
        DhtNode::new(NodeAddr(addr), DhtConfig::fast_test(), Some(NodeAddr(0)))
    }

    /// Run a closure with a synthetic context (actions are discarded).
    fn with_ctx<R>(node_addr: u32, f: impl FnOnce(&mut Context<DhtMsg<u64>>) -> R) -> R {
        let mut tc: TestContext<DhtMsg<u64>> =
            TestContext::at(NodeAddr(node_addr), SimTime::from_secs(1));
        tc.run(f)
    }

    #[test]
    fn new_node_is_its_own_successor() {
        let n = make(3);
        assert_eq!(n.successor().addr, NodeAddr(3));
        assert!(n.predecessor().is_none());
        assert!(!n.is_joined());
        assert_eq!(n.fingers_filled(), 0);
        assert_eq!(n.store_len(), 0);
    }

    #[test]
    fn root_node_joins_immediately() {
        let mut n = DhtNode::<u64>::new(NodeAddr(0), DhtConfig::fast_test(), None);
        with_ctx(0, |ctx| n.start(ctx));
        assert!(n.is_joined());
        let ups = n.take_upcalls();
        assert!(ups.contains(&Upcall::Joined));
    }

    #[test]
    fn bootstrap_equal_to_self_is_root() {
        let mut n = DhtNode::<u64>::new(NodeAddr(5), DhtConfig::fast_test(), Some(NodeAddr(5)));
        with_ctx(5, |ctx| n.start(ctx));
        assert!(n.is_joined());
    }

    #[test]
    fn responsibility_single_node() {
        let mut n = DhtNode::<u64>::new(NodeAddr(0), DhtConfig::fast_test(), None);
        with_ctx(0, |ctx| n.start(ctx));
        // A lone node is responsible for every key.
        assert!(n.is_responsible(&Id::from_u64(12345)));
        assert!(n.is_responsible(&Id::MAX));
    }

    #[test]
    fn responsibility_uses_predecessor_interval() {
        let mut n = make(1);
        let my_id = n.id();
        let pred_id = my_id.wrapping_sub(&Id::from_u64(1000));
        n.predecessor = Some(Peer::new(NodeAddr(9), pred_id));
        // A key just below our id (within (pred, me]) is ours.
        assert!(n.is_responsible(&my_id.wrapping_sub(&Id::from_u64(10))));
        assert!(n.is_responsible(&my_id));
        // A key beyond us is not.
        assert!(!n.is_responsible(&my_id.wrapping_add(&Id::from_u64(10))));
    }

    #[test]
    fn local_put_and_lscan() {
        let mut n = make(1);
        n.local_put(SimTime::ZERO, ResourceKey::new("t", "a", 0), 42, None);
        n.local_put(SimTime::ZERO, ResourceKey::new("t", "b", 0), 43, None);
        let items = n.lscan("t", SimTime::from_secs(1));
        assert_eq!(items.len(), 2);
        let ups = n.take_upcalls();
        assert_eq!(ups.iter().filter(|u| matches!(u, Upcall::NewItem { .. })).count(), 2);
        // Renewal does not produce a second NewItem upcall.
        n.local_put(SimTime::from_secs(1), ResourceKey::new("t", "a", 0), 42, None);
        assert!(n.take_upcalls().is_empty());
    }

    #[test]
    fn deliver_put_stores_and_upcalls() {
        let mut n = DhtNode::<u64>::new(NodeAddr(0), DhtConfig::fast_test(), None);
        with_ctx(0, |ctx| n.start(ctx));
        n.take_upcalls();
        let key = ResourceKey::new("t", "x", 7);
        with_ctx(0, |ctx| {
            n.handle_message(
                ctx,
                NodeAddr(3),
                DhtMsg::Route {
                    target: key.routing_id(),
                    hops: 2,
                    body: RouteBody::Put {
                        item: WireItem { key: key.clone(), value: 11, ttl_us: 60_000_000 },
                        replicate: false,
                    },
                },
            );
        });
        assert_eq!(n.store_len(), 1);
        let ups = n.take_upcalls();
        assert!(matches!(&ups[0], Upcall::NewItem { key: k, value: 11 } if *k == key));
        assert_eq!(n.stats().deliveries, 1);
        assert_eq!(n.stats().delivery_hops, 2);
    }

    #[test]
    fn deliver_appsend_upcalls() {
        let mut n = DhtNode::<u64>::new(NodeAddr(0), DhtConfig::fast_test(), None);
        with_ctx(0, |ctx| n.start(ctx));
        n.take_upcalls();
        let key = ResourceKey::new("agg", "q1", 0);
        with_ctx(0, |ctx| {
            n.handle_message(
                ctx,
                NodeAddr(2),
                DhtMsg::Route {
                    target: key.routing_id(),
                    hops: 0,
                    body: RouteBody::AppSend { key: key.clone(), payload: 77 },
                },
            );
        });
        let ups = n.take_upcalls();
        assert_eq!(ups, vec![Upcall::Delivered { key, payload: 77 }]);
    }

    #[test]
    fn direct_message_upcalls_with_sender() {
        let mut n = make(1);
        with_ctx(1, |ctx| n.handle_message(ctx, NodeAddr(9), DhtMsg::Direct { payload: 5 }));
        let ups = n.take_upcalls();
        assert_eq!(ups, vec![Upcall::Direct { payload: 5, from: NodeAddr(9) }]);
    }

    #[test]
    fn notify_adopts_predecessor_and_closes_two_node_ring() {
        let mut n = DhtNode::<u64>::new(NodeAddr(0), DhtConfig::fast_test(), None);
        with_ctx(0, |ctx| n.start(ctx));
        let other = Peer::new(NodeAddr(1), hash_node_addr(1));
        with_ctx(0, |ctx| n.handle_message(ctx, NodeAddr(1), DhtMsg::Notify { candidate: other }));
        assert_eq!(n.predecessor().map(|p| p.addr), Some(NodeAddr(1)));
        assert_eq!(n.successor().addr, NodeAddr(1));
    }

    #[test]
    fn notify_keeps_better_predecessor() {
        let mut n = DhtNode::<u64>::new(NodeAddr(0), DhtConfig::fast_test(), None);
        with_ctx(0, |ctx| n.start(ctx));
        let my_id = n.id();
        let far = Peer::new(NodeAddr(1), my_id.wrapping_sub(&Id::from_u64(1_000_000)));
        let near = Peer::new(NodeAddr(2), my_id.wrapping_sub(&Id::from_u64(10)));
        with_ctx(0, |ctx| n.handle_message(ctx, NodeAddr(1), DhtMsg::Notify { candidate: far }));
        with_ctx(0, |ctx| n.handle_message(ctx, NodeAddr(2), DhtMsg::Notify { candidate: near }));
        assert_eq!(n.predecessor().map(|p| p.addr), Some(NodeAddr(2)));
        // A farther candidate does not displace a nearer predecessor.
        with_ctx(0, |ctx| n.handle_message(ctx, NodeAddr(1), DhtMsg::Notify { candidate: far }));
        assert_eq!(n.predecessor().map(|p| p.addr), Some(NodeAddr(2)));
    }

    #[test]
    fn peer_failure_cleans_all_references() {
        let mut n = make(1);
        let dead = Peer::new(NodeAddr(7), Id::from_u64(7));
        n.predecessor = Some(dead);
        n.successors = vec![dead, Peer::new(NodeAddr(8), Id::from_u64(8))];
        n.fingers[0] = Some(dead);
        n.handle_peer_failure(NodeAddr(7));
        assert!(n.predecessor().is_none());
        assert_eq!(n.successor().addr, NodeAddr(8));
        assert!(n.fingers[0].is_none());
    }

    #[test]
    fn peer_failure_of_last_successor_falls_back() {
        let mut n = make(1);
        let dead = Peer::new(NodeAddr(7), Id::from_u64(7));
        n.successors = vec![dead];
        n.fingers[3] = Some(Peer::new(NodeAddr(9), Id::from_u64(9)));
        n.handle_peer_failure(NodeAddr(7));
        assert_eq!(n.successor().addr, NodeAddr(9));
        // With no fingers either, the node falls back to itself.
        let mut lonely = make(2);
        lonely.successors = vec![dead];
        lonely.handle_peer_failure(NodeAddr(7));
        assert_eq!(lonely.successor().addr, NodeAddr(2));
    }

    #[test]
    fn get_reply_and_lookup_result_surface_as_upcalls() {
        let mut n = make(1);
        let key = ResourceKey::new("t", "k", 0);
        with_ctx(1, |ctx| {
            n.handle_message(
                ctx,
                NodeAddr(5),
                DhtMsg::GetReply { req_id: 9, key: key.clone(), items: vec![(key.clone(), 3)] },
            )
        });
        let peer = Peer::new(NodeAddr(5), Id::from_u64(5));
        // Unknown req_id lookups are ignored.
        with_ctx(1, |ctx| {
            n.handle_message(
                ctx,
                NodeAddr(5),
                DhtMsg::FoundSuccessor { req_id: 999, successor: peer, hops: 3 },
            )
        });
        let ups = n.take_upcalls();
        assert_eq!(ups.len(), 1);
        assert!(matches!(&ups[0], Upcall::GetResult { req_id: 9, .. }));
    }

    #[test]
    fn broadcast_always_delivers_locally() {
        let mut n = DhtNode::<u64>::new(NodeAddr(0), DhtConfig::fast_test(), None);
        with_ctx(0, |ctx| n.start(ctx));
        n.take_upcalls();
        with_ctx(0, |ctx| n.broadcast(ctx, 123));
        let ups = n.take_upcalls();
        assert_eq!(ups, vec![Upcall::Broadcast { payload: 123 }]);
    }

    #[test]
    fn closest_preceding_prefers_nearest_to_target() {
        let mut n = make(1);
        let my = n.id();
        let a = Peer::new(NodeAddr(10), my.wrapping_add(&Id::from_u64(100)));
        let b = Peer::new(NodeAddr(11), my.wrapping_add(&Id::from_u64(10_000)));
        n.fingers[0] = Some(a);
        n.fingers[1] = Some(b);
        let target = my.wrapping_add(&Id::from_u64(20_000));
        let cp = n.closest_preceding(&target);
        assert_eq!(cp.addr, NodeAddr(11));
        // For a target between a and b, only a precedes it.
        let target2 = my.wrapping_add(&Id::from_u64(5_000));
        assert_eq!(n.closest_preceding(&target2).addr, NodeAddr(10));
    }

    #[test]
    fn req_ids_are_unique_per_node() {
        let mut a = make(1);
        let mut b = make(2);
        let ia = a.fresh_req_id();
        let ib = b.fresh_req_id();
        assert_ne!(ia, ib);
        assert_ne!(a.fresh_req_id(), ia);
    }
}
