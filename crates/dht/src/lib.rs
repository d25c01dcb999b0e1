//! # pier-dht — the distributed hash table underneath PIER
//!
//! PIER ("Peer-to-Peer Information Exchange and Retrieval") uses a DHT as its
//! communication substrate to obtain *scalability, reliability, decentralized
//! control, and load balancing*.  This crate implements that substrate:
//!
//! * a 160-bit circular identifier space with SHA-1 hashing ([`id`], [`hash`]);
//! * a Chord-style overlay — successor lists, finger tables, periodic
//!   stabilization and failure recovery ([`node`]);
//! * multi-hop, greedy key-based routing;
//! * soft-state item storage named by PIER's `(namespace, resource, instance)`
//!   triples, with TTL expiry and local scans ([`storage`], [`key`]);
//! * a recursive broadcast used for query dissemination;
//! * the application API PIER programs against: `put`, `get`, `send_to_key`,
//!   `send_direct`, `lscan`, `broadcast`, plus upcalls for what arrives
//!   ([`messages::Upcall`]).
//!
//! The crate is transport-agnostic: all I/O goes through the deterministic
//! discrete-event simulator in [`pier_simnet`], so whole 300+ node overlays run
//! reproducibly inside one process.
//!
//! ## Quick example
//!
//! ```
//! use pier_dht::{DhtConfig, StandaloneDht, ResourceKey, Upcall};
//! use pier_simnet::{Duration, NodeAddr, SimConfig, Simulation};
//!
//! // Build a 16-node ring.
//! let mut sim = Simulation::new(SimConfig::with_seed(1), |addr| {
//!     let bootstrap = if addr.0 == 0 { None } else { Some(NodeAddr(0)) };
//!     StandaloneDht::<u64>::new(addr, DhtConfig::fast_test(), bootstrap)
//! });
//! sim.add_nodes(16);
//! sim.run_for(Duration::from_secs(30));
//!
//! // Store an item from node 5 and broadcast a value from node 2.
//! sim.invoke(NodeAddr(5), |n, ctx| n.dht.put(ctx, ResourceKey::new("t", "k", 0), 7u64, Duration::from_secs(60)));
//! sim.invoke(NodeAddr(2), |n, ctx| n.dht.broadcast(ctx, 99u64));
//! sim.run_for(Duration::from_secs(5));
//!
//! let stored: usize = sim.alive_nodes().iter()
//!     .map(|&a| sim.node(a).unwrap().dht.store_len()).sum();
//! assert!(stored >= 1);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod hash;
pub mod id;
pub mod key;
pub mod messages;
pub mod node;
pub mod standalone;
pub mod storage;

pub use config::DhtConfig;
pub use hash::{hash_bytes, hash_fields, hash_node_addr, hash_str, sha1};
pub use id::{Id, ID_BITS, ID_BYTES};
pub use key::ResourceKey;
pub use messages::{DhtMsg, NeighborView, Peer, RouteBody, Upcall, WireItem};
pub use node::{timers, DhtNode, DhtStats};
pub use standalone::StandaloneDht;
pub use storage::{Item, SoftStateStore};
