//! DHT wire messages and application upcalls.
//!
//! The message set covers the three roles the DHT plays for PIER:
//!
//! 1. **Overlay maintenance** — Chord's join, stabilization, finger repair and
//!    liveness probing (`FindSuccessor`, `Notify`, `GetNeighbors`, `Ping`, …);
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
use pier_simnet::{NodeAddr, WireSize};
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

/// The operation carried by a routed message.
#[derive(Clone, Debug, PartialEq)]
pub enum RouteBody<P> {
    /// Store an item at the responsible node (PIER `put`).
    Put {
        /// Item to store.
        item: WireItem<P>,
        /// If true, replicate onto the responsible node's successors as well.
        replicate: bool,
    },
    /// Fetch all items with the given `(namespace, resource)` (PIER `get`).
    Get {
        /// Key being looked up (instance is ignored).
        key: ResourceKey,
        /// Correlates the eventual [`DhtMsg::GetReply`].
        req_id: u64,
        /// Where to send the reply.
        origin: NodeAddr,
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
            RouteBody::Put { item, .. } => 1 + item.wire_size() + 1,
            RouteBody::Get { key, .. } => 1 + key.wire_size() + 8 + 4,
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
    /// Ask a node for its predecessor and successor list (stabilization).
    GetNeighbors,
    /// Answer to [`DhtMsg::GetNeighbors`].
    Neighbors {
        /// The responder's predecessor, if known.
        predecessor: Option<Peer>,
        /// The responder's successor list (nearest first).
        successors: Vec<Peer>,
    },
    /// Chord `notify`: the sender believes it may be the receiver's predecessor.
    Notify {
        /// The sender.
        candidate: Peer,
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
    /// Replicas of items pushed to a successor.
    Replicate {
        /// Items to store locally as replicas.
        items: Vec<WireItem<P>>,
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
                DhtMsg::GetNeighbors => 0,
                DhtMsg::Neighbors { predecessor, successors } => {
                    predecessor.map(|_| PEER_WIRE).unwrap_or(0) + 1 + successors.len() * PEER_WIRE
                }
                DhtMsg::Notify { .. } => PEER_WIRE,
                DhtMsg::Ping { .. } | DhtMsg::Pong { .. } => 8,
                DhtMsg::Replicate { items } | DhtMsg::Handoff { items } => {
                    4 + items.iter().map(|i| i.wire_size()).sum::<usize>()
                }
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
    /// A new item was stored locally (PIER's `newData` callback).
    NewItem {
        /// The stored item's key.
        key: ResourceKey,
        /// The stored item's value.
        value: P,
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
            body: RouteBody::Put {
                item: WireItem { key: key(), value: 99u64, ttl_us: 1 },
                replicate: false,
            },
        };
        assert!(small.wire_size() > 0);
        assert!(routed.wire_size() > small.wire_size());
    }

    #[test]
    fn neighbors_size_scales_with_list() {
        let short: DhtMsg<u64> = DhtMsg::Neighbors {
            predecessor: None,
            successors: vec![Peer::new(NodeAddr(1), Id::from_u64(1))],
        };
        let long: DhtMsg<u64> = DhtMsg::Neighbors {
            predecessor: Some(Peer::new(NodeAddr(0), Id::from_u64(0))),
            successors: vec![Peer::new(NodeAddr(1), Id::from_u64(1)); 8],
        };
        assert!(long.wire_size() > short.wire_size());
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
            RouteBody::Put { item: WireItem { key: key(), value: 1, ttl_us: 0 }, replicate: true };
        let get: RouteBody<u64> = RouteBody::Get { key: key(), req_id: 0, origin: NodeAddr(0) };
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
