//! DHT wire messages and application upcalls.
//!
//! The message set covers the three roles the DHT plays for PIER:
//!
//! 1. **Overlay maintenance** — Chord's join, stabilization, finger repair and
//!    liveness probing (`FindSuccessor`, `Stabilize`, `Neighbors`, `Ping`, …);
//! 2. **Key-based routing** — the [`DhtMsg::Route`] envelope carries a
//!    [`RouteBody`] (a `put`, a `get`, or an application payload) hop by hop
//!    toward the node responsible for the target identifier;
//! 3. **Dissemination** — [`DhtMsg::Broadcast`] implements the recursive
//!    ring-partitioning broadcast PIER uses to ship query plans to every node.
//!
//! Everything the DHT tells the layer above (PIER's query engine) is expressed
//! as an [`Upcall`], returned from the node's message/timer handlers rather
//! than delivered through callbacks, which keeps ownership simple.

use crate::id::Id;
use crate::key::ResourceKey;
use pier_simnet::{NodeAddr, SimTime, WireSize};
use std::fmt;

/// A network-visible reference to a DHT node: its address and ring identifier.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Peer {
    /// Simulator network address.
    pub addr: NodeAddr,
    /// Position on the identifier ring.
    pub id: Id,
}

impl Peer {
    /// Construct a peer reference.
    pub fn new(addr: NodeAddr, id: Id) -> Self {
        Peer { addr, id }
    }
}

impl fmt::Debug for Peer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.addr, self.id)
    }
}

/// Approximate on-wire size of a peer reference (address + 160-bit id).
const PEER_WIRE: usize = 4 + 20;

/// An item travelling between nodes: key, value, and remaining TTL in µs.
#[derive(Clone, Debug, PartialEq)]
pub struct WireItem<P> {
    /// Item name.
    pub key: ResourceKey,
    /// Item payload.
    pub value: P,
    /// Remaining time-to-live, microseconds.
    pub ttl_us: u64,
}

impl<P: WireSize> WireSize for WireItem<P> {
    fn wire_size(&self) -> usize {
        self.key.wire_size() + self.value.wire_size() + 8
    }
}

/// A node's neighbourhood as stabilization ships it: its predecessor and its
/// successor list, nearest first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborView {
    /// The node's predecessor, if known.
    pub predecessor: Option<Peer>,
    /// The node's successor list (nearest first).
    pub successors: Vec<Peer>,
}

impl NeighborView {
    /// A 64-bit FNV-1a digest of a view (every peer's address and id, in
    /// order).  Never 0, which a [`DhtMsg::Stabilize`] uses to say that it
    /// holds no view.
    pub fn digest(predecessor: Option<Peer>, successors: &[Peer]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(&[predecessor.is_some() as u8]);
        for p in predecessor.iter().chain(successors) {
            eat(&p.addr.0.to_be_bytes());
            eat(&p.id.0);
        }
        h.max(1)
    }
}

impl WireSize for NeighborView {
    fn wire_size(&self) -> usize {
        self.predecessor.map_or(0, |_| PEER_WIRE) + 1 + self.successors.len() * PEER_WIRE
    }
}

/// The operation carried by a routed message.
#[derive(Clone, Debug, PartialEq)]
pub enum RouteBody<P> {
    /// Store an item at the responsible node (PIER `put`).  Items are not
    /// replicated: durability comes from soft-state renewal, publishers
    /// re-publishing within the TTL.
    Put {
        /// Item to store.
        item: WireItem<P>,
    },
    /// Fetch all items with the given `(namespace, resource)` (PIER `get`).
    Get {
        /// Key being looked up (instance is ignored).
        key: ResourceKey,
        /// Correlates the eventual [`DhtMsg::GetReply`].
        req_id: u64,
        /// Where to send the reply.
        origin: NodeAddr,
        /// Read only items stored at or after this time (a continuous
        /// query's window); `None` reads every live item and costs no bytes.
        since: Option<SimTime>,
    },
    /// Deliver an application payload to the responsible node (PIER uses this
    /// to rehash tuples to join/aggregation sites).
    AppSend {
        /// Key whose responsible node should receive the payload.
        key: ResourceKey,
        /// Application payload.
        payload: P,
    },
    /// Find the node responsible for an identifier and report it to `origin`
    /// (used for joins and finger repair).
    FindSuccessor {
        /// Correlates the eventual [`DhtMsg::FoundSuccessor`].
        req_id: u64,
        /// Who asked.
        origin: NodeAddr,
    },
}

impl<P: WireSize> WireSize for RouteBody<P> {
    fn wire_size(&self) -> usize {
        match self {
            // Tag, item, and a flags byte.
            RouteBody::Put { item } => 1 + item.wire_size() + 1,
            RouteBody::Get { key, since, .. } => {
                1 + key.wire_size() + 8 + 4 + if since.is_some() { 8 } else { 0 }
            }
            RouteBody::AppSend { key, payload } => 1 + key.wire_size() + payload.wire_size(),
            RouteBody::FindSuccessor { .. } => 1 + 8 + 4,
        }
    }
}

/// One routed operation inside a [`DhtMsg::RouteBatch`]: the same triple a
/// standalone [`DhtMsg::Route`] carries.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteEnvelope<P> {
    /// Destination identifier on the ring.
    pub target: Id,
    /// Hops taken so far (loop guard and statistic).
    pub hops: u8,
    /// The operation to perform at the responsible node.
    pub body: RouteBody<P>,
}

impl<P: WireSize> WireSize for RouteEnvelope<P> {
    fn wire_size(&self) -> usize {
        20 + 1 + self.body.wire_size()
    }
}

/// Messages exchanged between DHT nodes.
#[derive(Clone, Debug)]
pub enum DhtMsg<P> {
    /// Multi-hop routing envelope: forwarded greedily toward `target`.
    Route {
        /// Destination identifier on the ring.
        target: Id,
        /// Hops taken so far (loop guard and statistic).
        hops: u8,
        /// The operation to perform at the responsible node.
        body: RouteBody<P>,
    },
    /// Several routed operations coalesced into one wire message because, at
    /// this hop, they all travel to the same peer.  Each receiving node splits
    /// the batch, delivers the envelopes it is responsible for, and re-groups
    /// the rest by *its* next hops — so batches stay coalesced along shared
    /// routing-path prefixes and amortize per-message overhead the whole way.
    RouteBatch {
        /// The coalesced operations (individual targets, one shared next hop).
        routes: Vec<RouteEnvelope<P>>,
    },
    /// Reply to [`RouteBody::FindSuccessor`]: `successor` is responsible for
    /// the identifier the request named.
    FoundSuccessor {
        /// Request correlation id.
        req_id: u64,
        /// The responsible node.
        successor: Peer,
        /// Hops the request took (reported for the routing benchmarks).
        hops: u8,
    },
    /// Stabilization request, sent to the successor every round and to a
    /// newly adopted one at once.  `digest` is the [`NeighborView::digest`]
    /// of the receiver's view as the sender last received it (0 when it holds
    /// none); `candidate` is Chord's `notify`, the sender offering itself as
    /// the receiver's predecessor, carried only while that view does not
    /// already name the sender.
    Stabilize {
        /// Digest of the receiver's view as last received.
        digest: u64,
        /// The sender, if it may be the receiver's predecessor.
        candidate: Option<Peer>,
    },
    /// Answer to [`DhtMsg::Stabilize`]: the responder's current digest, and
    /// its view only when that digest differs from the request's.
    Neighbors {
        /// Digest of the responder's current view.
        digest: u64,
        /// The view, unless the asker already holds it.
        view: Option<NeighborView>,
    },
    /// Liveness probe.
    Ping {
        /// Correlates the pong.
        nonce: u64,
    },
    /// Liveness probe response.
    Pong {
        /// Nonce from the ping.
        nonce: u64,
    },
    /// Items handed over to the node that now owns their keys (after a join).
    Handoff {
        /// Items to adopt.
        items: Vec<WireItem<P>>,
    },
    /// Reply to a `Get`, sent directly to the requesting node.
    GetReply {
        /// Request correlation id.
        req_id: u64,
        /// The key that was looked up.
        key: ResourceKey,
        /// Matching items (key + value pairs).
        items: Vec<(ResourceKey, P)>,
    },
    /// An application payload sent point-to-point (no DHT routing); PIER uses
    /// this to stream results back to the query origin.
    Direct {
        /// Application payload.
        payload: P,
    },
    /// Recursive ring-partition broadcast (query dissemination).
    Broadcast {
        /// Application payload delivered to every reachable node.
        payload: P,
        /// The clockwise end of the ring segment this copy is responsible for.
        range_end: Id,
        /// Tree depth so far (statistic / loop guard).
        depth: u8,
    },
}

impl<P: WireSize> WireSize for DhtMsg<P> {
    fn wire_size(&self) -> usize {
        let header = 2; // message tag + version
        header
            + match self {
                DhtMsg::Route { body, .. } => 20 + 1 + body.wire_size(),
                DhtMsg::RouteBatch { routes } => {
                    4 + routes.iter().map(|r| r.wire_size()).sum::<usize>()
                }
                DhtMsg::FoundSuccessor { .. } => 8 + PEER_WIRE + 1,
                // Digest, then a presence flag for the optional part.
                DhtMsg::Stabilize { candidate, .. } => 8 + 1 + candidate.map_or(0, |_| PEER_WIRE),
                DhtMsg::Neighbors { view, .. } => {
                    8 + 1 + view.as_ref().map_or(0, |v| v.wire_size())
                }
                DhtMsg::Ping { .. } | DhtMsg::Pong { .. } => 8,
                DhtMsg::Handoff { items } => 4 + items.iter().map(|i| i.wire_size()).sum::<usize>(),
                DhtMsg::GetReply { key, items, .. } => {
                    8 + key.wire_size()
                        + 4
                        + items.iter().map(|(k, v)| k.wire_size() + v.wire_size()).sum::<usize>()
                }
                DhtMsg::Direct { payload } => payload.wire_size(),
                DhtMsg::Broadcast { payload, .. } => payload.wire_size() + 20 + 1,
            }
    }
}

/// Events the DHT reports to the application layered on top of it (PIER).
/// Storing an item reports nothing: PIER reads stored items through local
/// scans and `get`s, never one by one as they arrive.
#[derive(Clone, Debug, PartialEq)]
pub enum Upcall<P> {
    /// This node has successfully joined the ring.
    Joined,
    /// An application payload routed with `send_to_key` arrived here because
    /// this node is responsible for the key.
    Delivered {
        /// The key it was routed by.
        key: ResourceKey,
        /// The payload.
        payload: P,
    },
    /// The answer to an earlier `get`.
    GetResult {
        /// Correlation id returned by `get`.
        req_id: u64,
        /// The key that was looked up.
        key: ResourceKey,
        /// All matching items.
        items: Vec<(ResourceKey, P)>,
    },
    /// The answer to an earlier `find_successor`.
    LookupResult {
        /// Correlation id returned by `find_successor`.
        req_id: u64,
        /// The node responsible for the queried identifier.
        successor: Peer,
        /// Hops the lookup took.
        hops: u8,
    },
    /// A broadcast payload reached this node.
    Broadcast {
        /// The payload.
        payload: P,
    },
    /// A point-to-point application payload arrived.
    Direct {
        /// The payload.
        payload: P,
        /// Sender's address.
        from: NodeAddr,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ResourceKey {
        ResourceKey::new("ns", "res", 1)
    }

    #[test]
    fn peer_debug_is_compact() {
        let p = Peer::new(NodeAddr(3), Id::from_u64(0xAABB));
        let s = format!("{p:?}");
        assert!(s.starts_with("n3@"));
    }

    #[test]
    fn wire_sizes_are_positive_and_ordered() {
        let small: DhtMsg<u64> = DhtMsg::Ping { nonce: 1 };
        let routed: DhtMsg<u64> = DhtMsg::Route {
            target: Id::from_u64(1),
            hops: 0,
            body: RouteBody::Put { item: WireItem { key: key(), value: 99u64, ttl_us: 1 } },
        };
        assert!(small.wire_size() > 0);
        assert!(routed.wire_size() > small.wire_size());
    }

    #[test]
    fn neighbors_size_scales_with_list() {
        let view = |predecessor, n| NeighborView {
            predecessor,
            successors: vec![Peer::new(NodeAddr(1), Id::from_u64(1)); n],
        };
        let short: DhtMsg<u64> = DhtMsg::Neighbors { digest: 1, view: Some(view(None, 1)) };
        let full = view(Some(Peer::new(NodeAddr(0), Id::from_u64(0))), 8);
        let long: DhtMsg<u64> = DhtMsg::Neighbors { digest: 1, view: Some(full) };
        assert!(long.wire_size() > short.wire_size());
        // The full 8-peer view: header, digest, flag, predecessor, count, list.
        assert_eq!(long.wire_size(), 2 + 8 + 1 + 24 + 1 + 8 * 24);
    }

    #[test]
    fn unchanged_stabilization_round_costs_eleven_bytes_each_way() {
        let request: DhtMsg<u64> = DhtMsg::Stabilize { digest: 7, candidate: None };
        let reply: DhtMsg<u64> = DhtMsg::Neighbors { digest: 7, view: None };
        assert_eq!(request.wire_size(), 11);
        assert_eq!(reply.wire_size(), 11);
        let notify: DhtMsg<u64> =
            DhtMsg::Stabilize { digest: 0, candidate: Some(Peer::new(NodeAddr(1), Id::MAX)) };
        assert_eq!(notify.wire_size(), 11 + 24);
    }

    #[test]
    fn view_digest_tracks_every_peer_and_is_never_zero() {
        let p = |a: u32| Peer::new(NodeAddr(a), Id::from_u64(a as u64));
        let base = NeighborView::digest(Some(p(1)), &[p(2), p(3)]);
        assert_eq!(base, NeighborView::digest(Some(p(1)), &[p(2), p(3)]));
        assert_ne!(base, NeighborView::digest(None, &[p(2), p(3)]));
        assert_ne!(base, NeighborView::digest(Some(p(1)), &[p(3), p(2)]));
        assert_ne!(base, NeighborView::digest(Some(p(1)), &[p(2)]));
        assert_ne!(NeighborView::digest(None, &[p(1)]), NeighborView::digest(Some(p(1)), &[]));
        assert_ne!(NeighborView::digest(None, &[]), 0);
    }

    #[test]
    fn get_reply_size_includes_items() {
        let empty: DhtMsg<u64> = DhtMsg::GetReply { req_id: 1, key: key(), items: vec![] };
        let full: DhtMsg<u64> =
            DhtMsg::GetReply { req_id: 1, key: key(), items: vec![(key(), 5u64), (key(), 6u64)] };
        assert!(full.wire_size() > empty.wire_size());
    }

    #[test]
    fn route_body_variants_have_distinct_sizes() {
        let put: RouteBody<u64> =
            RouteBody::Put { item: WireItem { key: key(), value: 1, ttl_us: 0 } };
        let get: RouteBody<u64> =
            RouteBody::Get { key: key(), req_id: 0, origin: NodeAddr(0), since: None };
        let app: RouteBody<u64> = RouteBody::AppSend { key: key(), payload: 9 };
        let find: RouteBody<u64> = RouteBody::FindSuccessor { req_id: 0, origin: NodeAddr(0) };
        for body in [&put, &get, &app, &find] {
            assert!(body.wire_size() > 0);
        }
    }

    #[test]
    fn upcall_equality() {
        let a: Upcall<u64> = Upcall::Broadcast { payload: 1 };
        let b: Upcall<u64> = Upcall::Broadcast { payload: 1 };
        assert_eq!(a, b);
        assert_ne!(a, Upcall::Joined);
    }
}
