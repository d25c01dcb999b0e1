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
use crate::messages::{DhtMsg, NeighborView, Peer, RouteBody, RouteEnvelope, Upcall, WireItem};
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

/// Hops a routed envelope may take; a node that would forward one that has
/// taken this many drops it instead (a loop guard, counted in
/// [`DhtStats::hop_limit_drops`]).  Greedy routing takes `O(log n)` hops,
/// so only a routing loop comes near it.
const MAX_ROUTE_HOPS: u8 = 64;

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
    /// Routed operations dropped because they had taken the hop limit (64)
    /// and were still not at the responsible node.
    pub hop_limit_drops: u64,
    /// Peers this node declared failed: a monitored peer (predecessor,
    /// successor or finger) that stayed silent for `failure_timeout`.
    pub peers_declared_failed: u64,
    /// Broadcast messages forwarded by this node.
    pub broadcast_forwards: u64,
    /// Wire messages this node sent that carry a `Put` or `AppSend` route
    /// body, originated *or* forwarded (one per `Route` or `RouteBatch`
    /// holding at least one), plus point-to-point `Direct` sends.  This is
    /// the per-hop cost that destination-coalesced batching attacks, not
    /// all query traffic: `Get` route hops, `GetReply` and `Broadcast`
    /// messages are left out.  ROADMAP D18 counted 335,494, 90,670 and
    /// 28,560 of those on perfbench's `fileshare_search`.
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
    /// The monitored set (predecessor, successors, fingers) as of the last
    /// ping round, each with when it was last heard from, or with the round
    /// it entered the set if it has not been heard from since.
    last_heard: HashMap<NodeAddr, SimTime>,
    /// Peers declared failed, each with the time until which no successor's
    /// view may bring it back; a message from the peer itself lifts it.
    quarantine: HashMap<NodeAddr, SimTime>,
    /// The successor's view as last received from it.
    succ_view: Option<HeldView>,
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
            quarantine: HashMap::new(),
            succ_view: None,
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

    /// Store `value` under `key` in the DHT (routed to the responsible node)
    /// for `ttl`.  Returns the number of wire messages sent (0 when this node
    /// is itself responsible).
    pub fn put(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        key: ResourceKey,
        value: P,
        ttl: Duration,
    ) -> usize {
        self.put_batch(ctx, vec![(key, value, ttl)])
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
        items: Vec<(ResourceKey, P, Duration)>,
    ) -> usize {
        let envelopes: Vec<RouteEnvelope<P>> = items
            .into_iter()
            .map(|(key, value, ttl)| {
                let item = WireItem { key, value, ttl_us: ttl.as_micros() };
                let target = item.key.routing_id();
                RouteEnvelope { target, hops: 0, body: RouteBody::Put { item } }
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

    /// Fetch all items stored under `(key.namespace, key.resource)`, or with
    /// `since` only those stored at or after it (a continuous query's
    /// window).  Returns a request id; the answer arrives later as
    /// [`Upcall::GetResult`].
    pub fn get(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        key: ResourceKey,
        since: Option<SimTime>,
    ) -> u64 {
        let req_id = self.fresh_req_id();
        let target = key.routing_id();
        let body = RouteBody::Get { key, req_id, origin: self.me.addr, since };
        self.route_many(ctx, [RouteEnvelope { target, hops: 0, body }]);
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
        self.send_to_key_batch(ctx, vec![(key, payload)])
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
        self.route_many(ctx, [RouteEnvelope { target, hops: 0, body }]);
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
    /// readings) when partitioning by publisher is desired.  The item
    /// belongs to this node, not to its key's owner, so hand-off leaves it
    /// here.
    pub fn local_put(&mut self, now: SimTime, key: ResourceKey, value: P, ttl: Duration) {
        self.store.put_local(key, value, now, ttl);
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Handle a DHT message delivered to the enclosing node.
    pub fn handle_message(&mut self, ctx: &mut Context<DhtMsg<P>>, from: NodeAddr, msg: DhtMsg<P>) {
        if let Some(heard) = self.last_heard.get_mut(&from) {
            *heard = ctx.now();
        }
        self.quarantine.remove(&from);
        match msg {
            DhtMsg::Route { target, hops, body } => {
                self.route_many(ctx, [RouteEnvelope { target, hops, body }]);
            }
            DhtMsg::RouteBatch { routes } => {
                self.route_many(ctx, routes);
            }
            DhtMsg::FoundSuccessor { req_id, successor, hops } => {
                self.handle_found_successor(ctx, req_id, successor, hops)
            }
            DhtMsg::Stabilize { digest, candidate } => {
                if let Some(candidate) = candidate {
                    self.handle_notify(ctx, candidate);
                }
                let current = NeighborView::digest(self.predecessor, &self.successors);
                let view = (digest != current).then(|| NeighborView {
                    predecessor: self.predecessor,
                    successors: self.successors.clone(),
                });
                ctx.send(from, DhtMsg::Neighbors { digest: current, view });
            }
            DhtMsg::Neighbors { digest, view } => self.handle_neighbors(ctx, from, digest, view),
            DhtMsg::Ping { nonce } => ctx.send(from, DhtMsg::Pong { nonce }),
            DhtMsg::Pong { .. } => { /* liveness recorded above */ }
            DhtMsg::Handoff { items } => {
                let now = ctx.now();
                for item in items {
                    self.store.put(item.key, item.value, now, Duration::from_micros(item.ttl_us));
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
        let mut prev = None;
        let candidates = self.fingers.iter().flatten().chain(self.successors.iter()).copied();
        for peer in candidates {
            // Neighbouring finger slots hold the same peer in runs.  A repeat
            // is as far from the target as the one before it, so under the
            // strict `<` below it could never replace the best.
            if prev == Some(peer) {
                continue;
            }
            prev = Some(peer);
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

    /// Route a set of envelopes, coalescing the ones that share a next hop
    /// into one [`DhtMsg::RouteBatch`] per peer (a plain [`DhtMsg::Route`]
    /// when only one envelope goes that way).  Envelopes this node is
    /// responsible for are delivered immediately.  Every routed operation
    /// passes through here, single or batched, originated or forwarded.
    /// Returns the number of wire messages sent.
    fn route_many(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        envelopes: impl IntoIterator<Item = RouteEnvelope<P>>,
    ) -> usize {
        // Group by next hop, preserving arrival order within each group so
        // batching never reorders two ops on the same (source, destination)
        // pair.  Groups are kept in first-occurrence order so runs stay
        // deterministic.  Next hops are drawn from the fingers and the
        // successor list, so there are few groups and a linear search finds
        // one without hashing.  The first group, and each group's first
        // envelope, sit outside any `Vec`: forwarding one envelope, the
        // common case, allocates nothing.
        let mut first: Option<HopGroup<P>> = None;
        let mut more: Vec<HopGroup<P>> = Vec::new();
        for envelope in envelopes {
            match self.next_hop(&envelope.target) {
                None => {
                    let RouteEnvelope { target, hops, body } = envelope;
                    self.deliver(ctx, target, hops, body);
                }
                Some(peer) => {
                    if envelope.hops >= MAX_ROUTE_HOPS {
                        self.stats.hop_limit_drops += 1;
                        continue;
                    }
                    self.stats.forwards += 1;
                    let to = peer.addr;
                    let group = first.iter_mut().chain(more.iter_mut()).find(|g| g.to == to);
                    if let Some(group) = group {
                        group.rest.push(envelope);
                    } else if first.is_none() {
                        first = Some(HopGroup::new(to, envelope));
                    } else {
                        more.push(HopGroup::new(to, envelope));
                    }
                }
            }
        }
        let mut sent = 0;
        for HopGroup { to, first, mut rest } in first.into_iter().chain(more) {
            sent += 1;
            let is_app = |e: &RouteEnvelope<P>| {
                matches!(e.body, RouteBody::Put { .. } | RouteBody::AppSend { .. })
            };
            if is_app(&first) || rest.iter().any(is_app) {
                self.stats.app_msgs_sent += 1;
            }
            let RouteEnvelope { target, hops, body } = first;
            if rest.is_empty() {
                // No sense paying the batch framing for a single op.
                ctx.send(to, DhtMsg::Route { target, hops: hops + 1, body });
            } else {
                for envelope in &mut rest {
                    envelope.hops += 1;
                }
                rest.insert(0, RouteEnvelope { target, hops: hops + 1, body });
                ctx.send(to, DhtMsg::RouteBatch { routes: rest });
            }
        }
        sent
    }

    /// Execute a routed operation at the responsible node (this one).
    fn deliver(&mut self, ctx: &mut Context<DhtMsg<P>>, _target: Id, hops: u8, body: RouteBody<P>) {
        self.stats.deliveries += 1;
        self.stats.delivery_hops += hops as u64;
        match body {
            RouteBody::Put { item } => {
                let ttl = Duration::from_micros(item.ttl_us);
                self.store.put(item.key, item.value, ctx.now(), ttl);
            }
            RouteBody::Get { key, req_id, origin, since } => {
                let now = ctx.now();
                let since = since.unwrap_or(SimTime::ZERO);
                let items = self
                    .store
                    .get_since(&key.namespace, &key.resource, now, since)
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
                        self.send_stabilize(ctx, successor.addr);
                    }
                    self.upcalls.push(Upcall::Joined);
                }
            }
            LookupPurpose::Finger(slot) => {
                if successor.addr != self.me.addr && slot < self.fingers.len() {
                    self.fingers[slot] = Some(successor);
                }
            }
            LookupPurpose::App => {
                self.upcalls.push(Upcall::LookupResult { req_id, successor, hops });
            }
        }
    }

    fn stabilize(&mut self, ctx: &mut Context<DhtMsg<P>>) {
        let succ = self.successor();
        if succ.addr != self.me.addr {
            self.send_stabilize(ctx, succ.addr);
        }
    }

    /// Ask `to`, our successor, for its view.  The request names the digest
    /// of the view we hold from `to`, and offers us as its predecessor until
    /// that view names us.
    fn send_stabilize(&mut self, ctx: &mut Context<DhtMsg<P>>, to: NodeAddr) {
        let held = self.succ_view.as_ref().filter(|h| h.owner == to);
        let digest = held.map_or(0, |h| h.digest);
        let named = held.and_then(|h| h.view.predecessor).map(|p| p.addr) == Some(self.me.addr);
        let candidate = (!named).then_some(self.me);
        ctx.send(to, DhtMsg::Stabilize { digest, candidate });
    }

    fn is_quarantined(&self, addr: NodeAddr, now: SimTime) -> bool {
        self.quarantine.get(&addr).is_some_and(|until| *until > now)
    }

    /// Apply the successor's view: the one the reply carries, or, when it
    /// carries none, the one we hold, so a list that local failure handling
    /// shortened fills up again once the quarantine ends.
    fn handle_neighbors(
        &mut self,
        ctx: &mut Context<DhtMsg<P>>,
        from: NodeAddr,
        digest: u64,
        view: Option<NeighborView>,
    ) {
        let succ = self.successor();
        if from != succ.addr {
            // Stale reply from a node that is no longer our successor.
            return;
        }
        if let Some(view) = view {
            self.succ_view = Some(HeldView { owner: from, digest, view });
        }
        let Some(held) = self.succ_view.as_ref().filter(|h| h.owner == from) else { return };
        let now = ctx.now();
        let usable = |p: &Peer| p.addr != self.me.addr && !self.is_quarantined(p.addr, now);
        // Chord stabilization: if our successor's predecessor sits between us
        // and our successor, it is a closer successor — adopt it.
        let closer = held
            .view
            .predecessor
            .filter(|x| usable(x) && x.id.in_open_interval(&self.me.id, &succ.id));
        // Rebuild the successor list: the closer successor if any, our
        // successor, then its list.
        let mut list: Vec<Peer> = closer.into_iter().chain([succ]).collect();
        for p in &held.view.successors {
            if usable(p) && list.iter().all(|q| q.addr != p.addr) {
                list.push(*p);
            }
        }
        list.truncate(self.config.successor_list_len);
        self.successors = list;
        if let Some(x) = closer {
            self.send_stabilize(ctx, x.addr);
        }
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
            self.handoff_items(ctx, candidate);
        }
        // A lone root learns of a second node through notify: adopt it as
        // successor so the two-node ring closes.
        if self.successor().addr == self.me.addr {
            self.successors = vec![candidate];
        }
    }

    /// After adopting a new predecessor, transfer items we no longer own.
    /// Items stored with [`local_put`](Self::local_put) are not owned by key
    /// and stay: a moved copy would be stored anew at the receiver, and a
    /// windowed scan there would count it again.
    fn handoff_items(&mut self, ctx: &mut Context<DhtMsg<P>>, new_pred: Peer) {
        let now = ctx.now();
        let to_move: Vec<WireItem<P>> = self
            .store
            .all_items(now)
            .into_iter()
            .filter(|item| {
                let id = item.key.routing_id();
                !item.local && !id.in_half_open_interval(&new_pred.id, &self.me.id)
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
        // A target inside the span the successor list covers is owned by the
        // first successor at or past it: no lookup needed.
        let me = self.me.id;
        if let Some(owner) =
            self.successors.iter().find(|s| target.in_half_open_interval(&me, &s.id))
        {
            self.fingers[slot] = Some(*owner);
            return;
        }
        let req_id = self.fresh_req_id();
        self.pending_lookups.insert(req_id, LookupPurpose::Finger(slot));
        let body = RouteBody::FindSuccessor { req_id, origin: self.me.addr };
        self.route_many(ctx, [RouteEnvelope { target, hops: 0, body }]);
    }

    /// Ping every monitored peer — the predecessor, the successors and the
    /// fingers — and declare failed the ones silent for `failure_timeout`.
    /// A peer entering the set gets that long from this round to answer; a
    /// peer leaving it is forgotten.
    fn probe_neighbors(&mut self, ctx: &mut Context<DhtMsg<P>>) {
        let now = ctx.now();
        let mut peers: Vec<NodeAddr> = self
            .predecessor
            .iter()
            .chain(&self.successors)
            .chain(self.fingers.iter().flatten())
            .map(|p| p.addr)
            .filter(|&addr| addr != self.me.addr)
            .collect();
        peers.sort_unstable();
        peers.dedup();
        self.last_heard.retain(|addr, _| peers.binary_search(addr).is_ok());
        self.quarantine.retain(|_, until| *until > now);

        let mut failed: Vec<NodeAddr> = Vec::new();
        for &addr in &peers {
            let heard = *self.last_heard.entry(addr).or_insert(now);
            if now.saturating_since(heard) > self.config.failure_timeout {
                failed.push(addr);
            } else {
                let nonce = self.fresh_req_id();
                ctx.send(addr, DhtMsg::Ping { nonce });
            }
        }
        for addr in failed {
            self.handle_peer_failure(addr, now);
        }
    }

    /// Remove every reference to a peer we believe has failed, and keep
    /// successors' views from bringing it back for one `failure_timeout`.
    fn handle_peer_failure(&mut self, addr: NodeAddr, now: SimTime) {
        self.stats.peers_declared_failed += 1;
        self.quarantine.insert(addr, now + self.config.failure_timeout);
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

/// A successor's view as this node last received it, with the digest the
/// successor sent along.  It stands only while `owner` is the successor.
struct HeldView {
    owner: NodeAddr,
    digest: u64,
    view: NeighborView,
}

/// The envelopes [`DhtNode::route_many`] sends to one next hop, in arrival
/// order: `first`, then `rest`.
struct HopGroup<P> {
    to: NodeAddr,
    first: RouteEnvelope<P>,
    rest: Vec<RouteEnvelope<P>>,
}

impl<P> HopGroup<P> {
    fn new(to: NodeAddr, first: RouteEnvelope<P>) -> Self {
        HopGroup { to, first, rest: Vec::new() }
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
        let ttl = Duration::from_secs(60);
        n.local_put(SimTime::ZERO, ResourceKey::new("t", "a", 0), 42, ttl);
        n.local_put(SimTime::ZERO, ResourceKey::new("t", "b", 0), 43, ttl);
        let items = n.lscan("t", SimTime::from_secs(1));
        assert_eq!(items.len(), 2);
        // A renewal replaces the item in place.
        n.local_put(SimTime::from_secs(1), ResourceKey::new("t", "a", 0), 44, ttl);
        let items = n.lscan("t", SimTime::from_secs(1));
        assert_eq!(
            items,
            vec![(ResourceKey::new("t", "a", 0), 44), (ResourceKey::new("t", "b", 0), 43)]
        );
        // Storing is silent: nothing above the DHT reads a per-item upcall.
        assert!(n.take_upcalls().is_empty());
    }

    #[test]
    fn deliver_put_stores_without_an_upcall() {
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
                    },
                },
            );
        });
        assert_eq!(n.store_len(), 1);
        assert_eq!(n.lscan("t", SimTime::from_secs(1)), vec![(key, 11)]);
        assert!(n.take_upcalls().is_empty());
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
    fn hop_limit_drops_at_the_limit_and_forwards_below_it() {
        let mut n = make(1);
        let succ = Peer::new(NodeAddr(2), n.id().wrapping_add(&Id::from_u64(1_000)));
        n.successors = vec![succ];
        // A key in (me, successor]: the successor owns it, so this node forwards.
        let target = n.id().wrapping_add(&Id::from_u64(500));
        let route = |hops| DhtMsg::Route {
            target,
            hops,
            body: RouteBody::AppSend { key: ResourceKey::new("t", "k", 0), payload: 7 },
        };
        let mut tc: TestContext<DhtMsg<u64>> = TestContext::at(NodeAddr(1), SimTime::from_secs(1));

        tc.run(|ctx| n.handle_message(ctx, NodeAddr(9), route(MAX_ROUTE_HOPS)));
        assert!(tc.sent.is_empty(), "an envelope at the limit is not forwarded");
        assert!(n.take_upcalls().is_empty(), "nor delivered here");
        assert_eq!(n.stats().hop_limit_drops, 1);
        assert_eq!(n.stats().forwards, 0);

        tc.run(|ctx| n.handle_message(ctx, NodeAddr(9), route(MAX_ROUTE_HOPS - 1)));
        assert_eq!(tc.sent.len(), 1);
        assert_eq!(tc.sent[0].0, NodeAddr(2));
        assert!(matches!(tc.sent[0].1, DhtMsg::Route { hops, .. } if hops == MAX_ROUTE_HOPS));
        assert_eq!(n.stats().hop_limit_drops, 1);
        assert_eq!(n.stats().forwards, 1);
        assert_eq!(n.stats().app_msgs_sent, 1);
    }

    #[test]
    fn direct_message_upcalls_with_sender() {
        let mut n = make(1);
        with_ctx(1, |ctx| n.handle_message(ctx, NodeAddr(9), DhtMsg::Direct { payload: 5 }));
        let ups = n.take_upcalls();
        assert_eq!(ups, vec![Upcall::Direct { payload: 5, from: NodeAddr(9) }]);
    }

    /// A stabilization request carrying Chord's `notify`.
    fn notify(candidate: Peer) -> DhtMsg<u64> {
        DhtMsg::Stabilize { digest: 0, candidate: Some(candidate) }
    }

    #[test]
    fn notify_adopts_predecessor_and_closes_two_node_ring() {
        let mut n = DhtNode::<u64>::new(NodeAddr(0), DhtConfig::fast_test(), None);
        with_ctx(0, |ctx| n.start(ctx));
        let other = Peer::new(NodeAddr(1), hash_node_addr(1));
        with_ctx(0, |ctx| n.handle_message(ctx, NodeAddr(1), notify(other)));
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
        with_ctx(0, |ctx| n.handle_message(ctx, NodeAddr(1), notify(far)));
        with_ctx(0, |ctx| n.handle_message(ctx, NodeAddr(2), notify(near)));
        assert_eq!(n.predecessor().map(|p| p.addr), Some(NodeAddr(2)));
        // A farther candidate does not displace a nearer predecessor.
        with_ctx(0, |ctx| n.handle_message(ctx, NodeAddr(1), notify(far)));
        assert_eq!(n.predecessor().map(|p| p.addr), Some(NodeAddr(2)));
    }

    #[test]
    fn peer_failure_cleans_all_references() {
        let mut n = make(1);
        let dead = Peer::new(NodeAddr(7), Id::from_u64(7));
        n.predecessor = Some(dead);
        n.successors = vec![dead, Peer::new(NodeAddr(8), Id::from_u64(8))];
        n.fingers[0] = Some(dead);
        n.handle_peer_failure(NodeAddr(7), SimTime::ZERO);
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
        n.handle_peer_failure(NodeAddr(7), SimTime::ZERO);
        assert_eq!(n.successor().addr, NodeAddr(9));
        // With no fingers either, the node falls back to itself.
        let mut lonely = make(2);
        lonely.successors = vec![dead];
        lonely.handle_peer_failure(NodeAddr(7), SimTime::ZERO);
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

    /// `next_hop` with a scan that weighs every candidate, repeats included:
    /// the reference the repeat skip in `closest_preceding` must match.
    fn next_hop_by_full_scan(n: &TestNode, target: &Id) -> Option<Peer> {
        if n.is_responsible(target) {
            return None;
        }
        let succ = n.successor();
        if target.in_half_open_interval(&n.me.id, &succ.id) {
            return Some(succ);
        }
        let mut best = n.me;
        let mut best_dist = n.me.id.distance_to(target);
        for peer in n.fingers.iter().flatten().chain(n.successors.iter()).copied() {
            if peer.addr != n.me.addr && peer.id.in_open_interval(&n.me.id, target) {
                let dist = peer.id.distance_to(target);
                if dist < best_dist {
                    best = peer;
                    best_dist = dist;
                }
            }
        }
        Some(if best.addr == n.me.addr { succ } else { best })
    }

    #[test]
    fn skipping_repeated_candidates_picks_the_hop_a_full_scan_picks() {
        let mut n = make(1);
        let one = Id::from_u64(1);
        // A peer just past `me + 2^bit`.
        let past =
            |n: &TestNode, addr, bit| at_offset(n, addr, &Id::power_of_two(bit).wrapping_add(&one));
        n.predecessor = Some(Peer::new(NodeAddr(9), n.id().wrapping_sub(&Id::power_of_two(100))));
        let succs = [past(&n, 2, 120), past(&n, 3, 125), past(&n, 4, 129), past(&n, 5, 133)];
        n.successors = succs.to_vec();
        // fast_test slot j targets `me + 2^(128 + j)`: each slot holds the
        // first peer at or past its target, so the slots hold runs.
        let (p6, p7, p8) = (past(&n, 6, 139), past(&n, 7, 150), past(&n, 8, 159));
        // Addr 6 under an id it no longer has: equal to its neighbour by
        // addr, not by id, so it must still be weighed.
        let stale = past(&n, 6, 144);
        let runs = [(0..2, succs[2]), (2..6, succs[3]), (6..16, p6), (16..17, stale), (17..23, p7)];
        for (slots, peer) in runs {
            for slot in slots {
                n.fingers[slot] = Some(peer);
            }
        }
        // A gap inside the last run, which a repeat skip must see across.
        for slot in (23..32).filter(|&s| s != 27) {
            n.fingers[slot] = Some(p8);
        }

        let candidates: Vec<Peer> =
            n.fingers.iter().flatten().chain(&n.successors).copied().collect();
        let mut rng = pier_simnet::DetRng::new(0x5EED_0F1F);
        let mut hops = Vec::new();
        for _ in 0..256 {
            let target = if rng.chance(0.25) {
                // On or beside a candidate: the edge of strict precedence.
                let at = candidates[rng.index(candidates.len())].id;
                [at.wrapping_sub(&one), at, at.wrapping_add(&one)][rng.index(3)]
            } else {
                let offset = Id::power_of_two(100 + rng.index(60));
                n.id().wrapping_add(&offset.wrapping_add(&Id::from_u64(rng.next_u64())))
            };
            let hop = n.next_hop(&target);
            assert_eq!(hop, next_hop_by_full_scan(&n, &target), "target {target:?}");
            hops.push(hop);
        }
        for peer in [stale, p6, p7, p8] {
            assert!(hops.contains(&Some(peer)), "no target chose {peer:?}");
        }
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

    /// A peer at `n.id() + offset`.
    fn at_offset(n: &TestNode, addr: u32, offset: &Id) -> Peer {
        Peer::new(NodeAddr(addr), n.id().wrapping_add(offset))
    }

    fn addrs(peers: &[Peer]) -> Vec<u32> {
        peers.iter().map(|p| p.addr.0).collect()
    }

    /// A successor's reply carrying `view`.
    fn reply(view: &NeighborView) -> DhtMsg<u64> {
        let digest = NeighborView::digest(view.predecessor, &view.successors);
        DhtMsg::Neighbors { digest, view: Some(view.clone()) }
    }

    #[test]
    fn finger_slots_inside_the_successor_span_cost_no_message() {
        let mut n = make(1);
        n.joined = true;
        // fast_test slot j targets `me + 2^(128 + j)`: these successors sit
        // just past the targets of slots 2 and 5.
        let one = Id::from_u64(1);
        let s1 = at_offset(&n, 2, &Id::power_of_two(130).wrapping_add(&one));
        let s2 = at_offset(&n, 3, &Id::power_of_two(133).wrapping_add(&one));
        n.successors = vec![s1, s2];
        let mut tc: TestContext<DhtMsg<u64>> = TestContext::at(NodeAddr(1), SimTime::from_secs(1));
        for _ in 0..6 {
            tc.run(|ctx| n.fix_next_finger(ctx));
        }
        assert!(tc.sent.is_empty(), "slots 0-5 lie inside the list's span: {:?}", tc.sent);
        let filled: Vec<Option<u32>> = n.fingers[..6].iter().map(|f| f.map(|p| p.addr.0)).collect();
        assert_eq!(filled, [Some(2), Some(2), Some(2), Some(3), Some(3), Some(3)]);

        // Slot 6 targets past the last successor: it still routes a lookup.
        tc.run(|ctx| n.fix_next_finger(ctx));
        assert!(n.fingers[6].is_none());
        assert!(
            matches!(
                tc.sent.as_slice(),
                [(NodeAddr(3), DhtMsg::Route { body: RouteBody::FindSuccessor { .. }, .. })]
            ),
            "{:?}",
            tc.sent
        );
    }

    #[test]
    fn a_stabilize_reply_carries_the_view_only_when_the_digest_differs() {
        let mut n = make(1);
        let pred = Peer::new(NodeAddr(7), n.id().wrapping_sub(&Id::from_u64(5)));
        let succ = at_offset(&n, 2, &Id::from_u64(5));
        n.predecessor = Some(pred);
        n.successors = vec![succ];
        let view = NeighborView { predecessor: Some(pred), successors: vec![succ] };
        let current = NeighborView::digest(Some(pred), &[succ]);
        let mut tc: TestContext<DhtMsg<u64>> = TestContext::at(NodeAddr(1), SimTime::from_secs(1));
        for digest in [current, 0, current ^ 1] {
            let request = DhtMsg::Stabilize { digest, candidate: None };
            tc.run(|ctx| n.handle_message(ctx, NodeAddr(7), request));
        }
        let replies: Vec<(NodeAddr, u64, Option<NeighborView>)> = tc
            .sent
            .iter()
            .map(|(to, msg)| match msg {
                DhtMsg::Neighbors { digest, view } => (*to, *digest, view.clone()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let to = NodeAddr(7);
        let want =
            [(to, current, None), (to, current, Some(view.clone())), (to, current, Some(view))];
        assert_eq!(replies, want);
        assert_eq!(tc.sent[0].1.wire_size(), 11);
    }

    #[test]
    fn the_request_offers_the_candidate_until_the_held_view_names_the_asker() {
        let mut n = make(1);
        let me = n.peer();
        let succ = at_offset(&n, 2, &Id::from_u64(1_000));
        let next = at_offset(&n, 4, &Id::from_u64(2_000));
        // Precedes the asker, so it is no closer successor.
        let other = Peer::new(NodeAddr(3), n.id().wrapping_sub(&Id::from_u64(1_000)));
        n.successors = vec![succ];
        let mut tc: TestContext<DhtMsg<u64>> = TestContext::at(NodeAddr(1), SimTime::from_secs(1));
        let mut request = |n: &mut TestNode| {
            tc.sent.clear();
            tc.run(|ctx| n.stabilize(ctx));
            match tc.sent.as_slice() {
                [(NodeAddr(2), DhtMsg::Stabilize { digest, candidate })] => (*digest, *candidate),
                other => panic!("unexpected {other:?}"),
            }
        };
        // No view held: digest 0, and the asker offers itself.
        assert_eq!(request(&mut n), (0, Some(me)));

        let named = NeighborView { predecessor: Some(me), successors: vec![next] };
        with_ctx(1, |ctx| n.handle_message(ctx, NodeAddr(2), reply(&named)));
        assert_eq!(addrs(n.successor_list()), [2, 4]);
        let digest = NeighborView::digest(Some(me), &[next]);
        assert_eq!(request(&mut n), (digest, None), "the view names the asker");

        let moved = NeighborView { predecessor: Some(other), successors: vec![next] };
        with_ctx(1, |ctx| n.handle_message(ctx, NodeAddr(2), reply(&moved)));
        let digest = NeighborView::digest(Some(other), &[next]);
        assert_eq!(request(&mut n), (digest, Some(me)), "the successor named another");
    }

    #[test]
    fn adopting_a_closer_successor_sends_it_the_stabilization_request() {
        let mut n = make(1);
        let succ = at_offset(&n, 2, &Id::from_u64(1_000));
        let closer = at_offset(&n, 3, &Id::from_u64(500));
        let next = at_offset(&n, 4, &Id::from_u64(2_000));
        n.successors = vec![succ];
        let view = NeighborView { predecessor: Some(closer), successors: vec![next] };
        let mut tc: TestContext<DhtMsg<u64>> = TestContext::at(NodeAddr(1), SimTime::from_secs(1));
        tc.run(|ctx| n.handle_message(ctx, NodeAddr(2), reply(&view)));
        assert_eq!(addrs(n.successor_list()), [3, 2, 4]);
        assert!(
            matches!(
                tc.sent.as_slice(),
                [(NodeAddr(3), DhtMsg::Stabilize { digest: 0, candidate: Some(c) })]
                    if c.addr == NodeAddr(1)
            ),
            "{:?}",
            tc.sent
        );
    }

    #[test]
    fn a_quarantined_peer_returns_once_it_speaks_or_its_quarantine_ends() {
        let mut n = make(1);
        let succ = at_offset(&n, 2, &Id::from_u64(1_000));
        let dead = at_offset(&n, 3, &Id::from_u64(2_000));
        let next = at_offset(&n, 4, &Id::from_u64(3_000));
        let closer = at_offset(&n, 5, &Id::from_u64(500));
        n.successors = vec![succ, dead, next];
        let t0 = SimTime::from_secs(1);
        n.handle_peer_failure(dead.addr, t0);
        n.handle_peer_failure(closer.addr, t0);
        assert_eq!(n.stats().peers_declared_failed, 2);
        assert_eq!(addrs(n.successor_list()), [2, 4]);

        // The successor still lists both: neither comes back.
        let view = NeighborView { predecessor: Some(closer), successors: vec![dead, next] };
        let mut tc: TestContext<DhtMsg<u64>> = TestContext::at(NodeAddr(1), t0);
        tc.run(|ctx| n.handle_message(ctx, NodeAddr(2), reply(&view)));
        assert_eq!(addrs(n.successor_list()), [2, 4]);
        assert!(tc.sent.is_empty(), "no closer successor adopted: {:?}", tc.sent);

        // A message from the peer itself lifts its quarantine, and the held
        // view brings it back with the next reply, even one without a view.
        let unchanged = DhtMsg::Neighbors {
            digest: NeighborView::digest(view.predecessor, &view.successors),
            view: None,
        };
        tc.run(|ctx| n.handle_message(ctx, dead.addr, DhtMsg::Pong { nonce: 1 }));
        tc.run(|ctx| n.handle_message(ctx, NodeAddr(2), unchanged.clone()));
        assert_eq!(addrs(n.successor_list()), [2, 3, 4]);

        // The silent one returns once one failure_timeout has passed.
        tc.set_now(t0 + DhtConfig::fast_test().failure_timeout + Duration::from_millis(1));
        tc.run(|ctx| n.handle_message(ctx, NodeAddr(2), unchanged));
        assert_eq!(addrs(n.successor_list()), [5, 2, 3, 4]);
        assert!(matches!(tc.sent.as_slice(), [(NodeAddr(5), DhtMsg::Stabilize { .. })]));
    }

    #[test]
    fn a_newly_monitored_peer_gets_the_full_timeout_and_a_dropped_one_is_forgotten() {
        let mut n = make(1);
        let succ = at_offset(&n, 2, &Id::from_u64(1_000));
        let finger = at_offset(&n, 3, &Id::power_of_two(150));
        n.successors = vec![succ];
        n.fingers[0] = Some(finger);
        let timeout = DhtConfig::fast_test().failure_timeout;
        let t0 = SimTime::from_secs(10);
        let mut tc: TestContext<DhtMsg<u64>> = TestContext::at(NodeAddr(1), t0);
        // A message from outside the monitored set leaves no entry behind.
        tc.run(|ctx| n.handle_message(ctx, NodeAddr(9), DhtMsg::Pong { nonce: 1 }));
        assert!(n.last_heard.is_empty());

        // Never heard from, both are pinged rather than declared failed.
        tc.run(|ctx| n.probe_neighbors(ctx));
        let pinged: Vec<u32> = tc.sent.iter().map(|(to, _)| to.0).collect();
        assert_eq!(pinged, [2, 3]);

        // The finger leaves the set and is forgotten; the successor stays
        // silent for exactly the timeout, which it is still allowed.
        n.fingers[0] = None;
        tc.set_now(t0 + timeout);
        tc.run(|ctx| n.probe_neighbors(ctx));
        assert_eq!(n.last_heard.keys().map(|a| a.0).collect::<Vec<_>>(), [2]);
        assert_eq!(n.stats().peers_declared_failed, 0);

        tc.set_now(t0 + timeout + Duration::from_millis(1));
        tc.run(|ctx| n.probe_neighbors(ctx));
        assert_eq!(n.stats().peers_declared_failed, 1);
        assert_eq!(n.successor().addr, NodeAddr(1));
        assert!(n.last_heard.is_empty());
    }
}
