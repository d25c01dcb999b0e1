//! A ready-made simulator node that hosts a bare DHT.
//!
//! PIER embeds [`DhtNode`] inside its own engine node, but the DHT is useful
//! (and testable) on its own: [`StandaloneDht`] implements
//! [`pier_simnet::Node`] directly and records every upcall so tests and the
//! routing benchmarks can drive a pure overlay without the query layer.

use crate::config::DhtConfig;
use crate::messages::{DhtMsg, Upcall};
use crate::node::{timers, DhtNode};
use pier_simnet::{Context, Node, NodeAddr, WireSize};

/// A simulator node containing only a DHT and an upcall log.
pub struct StandaloneDht<P> {
    /// The DHT protocol state machine.
    pub dht: DhtNode<P>,
    /// Every upcall the DHT has produced, in order.
    pub upcalls: Vec<Upcall<P>>,
}

impl<P: Clone + WireSize> StandaloneDht<P> {
    /// Create a standalone DHT node.
    pub fn new(addr: NodeAddr, config: DhtConfig, bootstrap: Option<NodeAddr>) -> Self {
        StandaloneDht { dht: DhtNode::new(addr, config, bootstrap), upcalls: Vec::new() }
    }

    fn collect(&mut self) {
        self.upcalls.extend(self.dht.take_upcalls());
    }

    /// Number of upcalls of a particular kind, as judged by a predicate.
    pub fn count_upcalls(&self, f: impl Fn(&Upcall<P>) -> bool) -> usize {
        self.upcalls.iter().filter(|u| f(u)).count()
    }
}

impl<P: Clone + WireSize> Node for StandaloneDht<P> {
    type Msg = DhtMsg<P>;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        self.dht.start(ctx);
        self.collect();
    }

    fn on_message(&mut self, ctx: &mut Context<Self::Msg>, from: NodeAddr, msg: Self::Msg) {
        self.dht.handle_message(ctx, from, msg);
        self.collect();
    }

    fn on_timer(&mut self, ctx: &mut Context<Self::Msg>, token: u64) {
        if (timers::TOKEN_BASE..timers::TOKEN_LIMIT).contains(&token) {
            self.dht.handle_timer(ctx, token);
        }
        self.collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ResourceKey;
    use pier_simnet::{Duration, LatencyModel, SimConfig, Simulation};

    fn build_ring(n: usize, seed: u64) -> Simulation<StandaloneDht<u64>> {
        let mut sim = Simulation::new(
            SimConfig {
                seed,
                latency: LatencyModel::Uniform {
                    min: Duration::from_millis(5),
                    max: Duration::from_millis(40),
                },
                ..Default::default()
            },
            |addr| {
                let bootstrap = if addr.0 == 0 { None } else { Some(NodeAddr(0)) };
                StandaloneDht::new(addr, DhtConfig::fast_test(), bootstrap)
            },
        );
        sim.add_nodes(n);
        sim
    }

    #[test]
    fn small_ring_converges_and_routes_puts() {
        let mut sim = build_ring(8, 42);
        sim.run_for(Duration::from_secs(20));

        // Every node has joined and has a predecessor and successor != self.
        for addr in sim.alive_nodes() {
            let node = sim.node(addr).unwrap();
            assert!(node.dht.is_joined(), "{addr} not joined");
            assert_ne!(node.dht.successor().addr, addr, "{addr} successor is self");
            assert!(node.dht.predecessor().is_some(), "{addr} has no predecessor");
        }

        // Put 50 items from node 0; they should all be stored somewhere.
        for i in 0..50u64 {
            sim.invoke(NodeAddr(0), |node, ctx| {
                let key = ResourceKey::new("t", format!("item-{i}"), 0);
                node.dht.put(ctx, key, i, None);
            });
        }
        sim.run_for(Duration::from_secs(5));
        let total: usize =
            sim.alive_nodes().iter().map(|&a| sim.node(a).unwrap().dht.store_len()).sum();
        assert!(total >= 50, "only {total} items stored");
    }

    #[test]
    fn broadcast_reaches_all_nodes() {
        let mut sim = build_ring(12, 7);
        sim.run_for(Duration::from_secs(20));
        sim.invoke(NodeAddr(3), |node, ctx| node.dht.broadcast(ctx, 999));
        sim.run_for(Duration::from_secs(5));
        let mut reached = 0;
        for addr in sim.alive_nodes() {
            let node = sim.node(addr).unwrap();
            if node.count_upcalls(|u| matches!(u, Upcall::Broadcast { payload: 999 })) > 0 {
                reached += 1;
            }
        }
        assert_eq!(reached, 12, "broadcast reached {reached}/12 nodes");
    }
}
