//! The discrete-event simulation driver.
//!
//! [`Simulation`] owns every simulated node, a priority queue of pending
//! events (message deliveries, timer expirations, membership changes), the
//! latency/loss models and the metrics.  Driver code (examples, tests, the
//! benchmark harness) advances virtual time with [`Simulation::run_until`] /
//! [`Simulation::run_for`], injects work by invoking node methods through
//! [`Simulation::invoke`], and inspects results between steps.

use crate::churn::{ChurnKind, ChurnSchedule};
use crate::latency::LatencyModel;
use crate::loss::{LossModel, PartitionSet};
use crate::metrics::Metrics;
use crate::node::{Action, Context, Node, NodeAddr, TimerId, WireSize};
use crate::rng::DetRng;
use crate::time::{Duration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Static configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Root seed; every random draw in the run derives from it.
    pub seed: u64,
    /// One-way delay model.
    pub latency: LatencyModel,
    /// Message loss model.
    pub loss: LossModel,
    /// Safety valve: abort `run_until` after this many events (0 = unlimited).
    pub max_events_per_run: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            latency: LatencyModel::default(),
            loss: LossModel::None,
            max_events_per_run: 0,
        }
    }
}

impl SimConfig {
    /// Convenience constructor with just a seed.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig { seed, ..Default::default() }
    }
}

enum EventKind<M> {
    Deliver { from: NodeAddr, to: NodeAddr, msg: M, sent_at: SimTime, bytes: usize },
    Timer { node: NodeAddr, id: TimerId, token: u64, incarnation: u64 },
    NodeDown { node: NodeAddr },
    NodeUp { node: NodeAddr },
}

struct NodeSlot<N> {
    handler: N,
    rng: DetRng,
    alive: bool,
    incarnation: u64,
}

/// The discrete-event simulator.
pub struct Simulation<N: Node> {
    config: SimConfig,
    factory: Box<dyn FnMut(NodeAddr) -> N>,
    nodes: Vec<NodeSlot<N>>,
    /// Pending events' `(at, seq, slot)` keys, earliest first.  `seq` is
    /// unique, so `(at, seq)` alone fixes the dispatch order.
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// The queued events themselves, each in the slot its key names, so a
    /// heap sift moves 24-byte keys, never messages.  A popped event's slot
    /// goes on `free_slots` for the next push.
    events: Vec<Option<EventKind<N::Msg>>>,
    free_slots: Vec<usize>,
    /// The actions buffer lent to each handler's [`Context`], reused across
    /// calls.
    actions: Vec<Action<N::Msg>>,
    cancelled_timers: HashSet<u64>,
    partitions: PartitionSet,
    now: SimTime,
    seq: u64,
    next_timer_id: u64,
    net_rng: DetRng,
    metrics: Metrics,
}

impl<N: Node> Simulation<N> {
    /// Create a simulation.  `factory` builds a node handler for a given
    /// address; it is reused when churned nodes restart.
    pub fn new(config: SimConfig, factory: impl FnMut(NodeAddr) -> N + 'static) -> Self {
        let root = DetRng::new(config.seed);
        Simulation {
            net_rng: root.stream(0xFACE),
            factory: Box::new(factory),
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            events: Vec::new(),
            free_slots: Vec::new(),
            actions: Vec::new(),
            cancelled_timers: HashSet::new(),
            partitions: PartitionSet::none(),
            now: SimTime::ZERO,
            seq: 0,
            next_timer_id: 0,
            metrics: Metrics::new(),
            config,
        }
    }

    /// Add one node; it boots immediately (its `on_start` runs at the current
    /// virtual time).  Returns the new node's address.
    pub fn add_node(&mut self) -> NodeAddr {
        let addr = NodeAddr(self.nodes.len() as u32);
        let handler = (self.factory)(addr);
        let rng = DetRng::new(self.config.seed).stream(0x1000 + addr.0 as u64);
        self.nodes.push(NodeSlot { handler, rng, alive: true, incarnation: 0 });
        self.metrics.on_node_start();
        self.run_handler(addr, HandlerCall::Start);
        addr
    }

    /// Add `n` nodes, returning their addresses.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeAddr> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Number of nodes ever created (alive or not).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `addr` is currently alive.
    pub fn is_alive(&self, addr: NodeAddr) -> bool {
        self.nodes.get(addr.index()).map(|s| s.alive).unwrap_or(false)
    }

    /// Addresses of all currently alive nodes.
    pub fn alive_nodes(&self) -> Vec<NodeAddr> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| NodeAddr(i as u32))
            .collect()
    }

    /// Immutable access to a node's handler (dead nodes are still inspectable).
    pub fn node(&self, addr: NodeAddr) -> Option<&N> {
        self.nodes.get(addr.index()).map(|s| &s.handler)
    }

    /// Mutable access to a node's handler.  Use [`Simulation::invoke`] instead
    /// when the call needs to send messages or set timers.
    pub fn node_mut(&mut self, addr: NodeAddr) -> Option<&mut N> {
        self.nodes.get_mut(addr.index()).map(|s| &mut s.handler)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics (for protocol layers that want to bump named counters).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Install a network partition.
    pub fn set_partition(&mut self, partitions: PartitionSet) {
        self.partitions = partitions;
    }

    /// Remove any installed partition.
    pub fn heal_partition(&mut self) {
        self.partitions.heal();
    }

    /// Invoke a closure on a node with a full [`Context`], so that driver code
    /// (a "client" in PIER terms) can call node methods that send messages or
    /// set timers.  Returns `None` if the node is dead or unknown.
    pub fn invoke<R>(
        &mut self,
        addr: NodeAddr,
        f: impl FnOnce(&mut N, &mut Context<N::Msg>) -> R,
    ) -> Option<R> {
        if !self.is_alive(addr) {
            return None;
        }
        let now = self.now;
        let slot = &mut self.nodes[addr.index()];
        let mut ctx = Context {
            addr,
            now,
            rng: &mut slot.rng,
            actions: std::mem::take(&mut self.actions),
            next_timer_id: &mut self.next_timer_id,
        };
        let out = f(&mut slot.handler, &mut ctx);
        let actions = ctx.actions;
        self.apply_actions(addr, actions);
        Some(out)
    }

    /// Kill a node immediately (crash semantics: no goodbye messages are sent,
    /// pending timers are discarded, in-flight messages to it will be dropped).
    pub fn kill_node(&mut self, addr: NodeAddr) {
        if !self.is_alive(addr) {
            return;
        }
        self.run_handler(addr, HandlerCall::Stop);
        let slot = &mut self.nodes[addr.index()];
        slot.alive = false;
        slot.incarnation += 1;
        self.metrics.on_node_stop();
    }

    /// Restart a dead node immediately with a fresh handler from the factory.
    pub fn restart_node(&mut self, addr: NodeAddr) {
        let Some(slot) = self.nodes.get_mut(addr.index()) else { return };
        if slot.alive {
            return;
        }
        slot.handler = (self.factory)(addr);
        slot.alive = true;
        self.metrics.on_node_start();
        self.run_handler(addr, HandlerCall::Start);
    }

    /// Schedule a node failure at a future virtual time.
    pub fn schedule_kill(&mut self, at: SimTime, addr: NodeAddr) {
        let at = at.max(self.now);
        self.push_event(at, EventKind::NodeDown { node: addr });
    }

    /// Schedule a node restart at a future virtual time.
    pub fn schedule_restart(&mut self, at: SimTime, addr: NodeAddr) {
        let at = at.max(self.now);
        self.push_event(at, EventKind::NodeUp { node: addr });
    }

    /// Apply a whole churn schedule (each event becomes a scheduled kill or
    /// restart).
    pub fn apply_churn(&mut self, schedule: &ChurnSchedule) {
        for ev in schedule.events() {
            match ev.kind {
                ChurnKind::Down => self.schedule_kill(ev.at, ev.node),
                ChurnKind::Up => self.schedule_restart(ev.at, ev.node),
            }
        }
    }

    /// Process events until the queue is empty or virtual time would exceed
    /// `deadline`.  Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0u64;
        loop {
            if self.config.max_events_per_run > 0 && processed >= self.config.max_events_per_run {
                break;
            }
            let Some(&Reverse((at, _, slot))) = self.queue.peek() else { break };
            if at > deadline {
                break;
            }
            self.queue.pop();
            let kind = self.events[slot].take().expect("a queued key's slot holds its event");
            self.free_slots.push(slot);
            self.now = self.now.max(at);
            self.dispatch(kind);
            processed += 1;
        }
        // Even if nothing was pending, time advances to the deadline.
        if self.now < deadline {
            self.now = deadline;
        }
        processed
    }

    /// Run for `d` of virtual time from now.
    pub fn run_for(&mut self, d: Duration) -> u64 {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    /// Number of events currently queued.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind<N::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.events[slot] = Some(kind);
                slot
            }
            None => {
                self.events.push(Some(kind));
                self.events.len() - 1
            }
        };
        self.queue.push(Reverse((at, seq, slot)));
    }

    fn dispatch(&mut self, kind: EventKind<N::Msg>) {
        match kind {
            EventKind::Deliver { from, to, msg, sent_at, bytes } => {
                if !self.is_alive(to) {
                    self.metrics.on_drop_dead();
                    return;
                }
                let latency = self.now.saturating_since(sent_at);
                self.metrics.on_deliver(bytes, latency.as_micros());
                self.run_handler(to, HandlerCall::Message { from, msg });
            }
            EventKind::Timer { node, id, token, incarnation } => {
                if self.cancelled_timers.remove(&id.0) {
                    self.metrics.on_timer_cancelled();
                    return;
                }
                let Some(slot) = self.nodes.get(node.index()) else { return };
                if !slot.alive || slot.incarnation != incarnation {
                    return;
                }
                self.metrics.on_timer_fired();
                self.run_handler(node, HandlerCall::Timer { token });
            }
            EventKind::NodeDown { node } => {
                self.kill_node(node);
            }
            EventKind::NodeUp { node } => {
                self.restart_node(node);
            }
        }
    }

    fn run_handler(&mut self, addr: NodeAddr, call: HandlerCall<N::Msg>) {
        let now = self.now;
        let Some(slot) = self.nodes.get_mut(addr.index()) else { return };
        if !slot.alive {
            return;
        }
        let mut ctx = Context {
            addr,
            now,
            rng: &mut slot.rng,
            actions: std::mem::take(&mut self.actions),
            next_timer_id: &mut self.next_timer_id,
        };
        match call {
            HandlerCall::Start => slot.handler.on_start(&mut ctx),
            HandlerCall::Stop => slot.handler.on_stop(&mut ctx),
            HandlerCall::Message { from, msg } => slot.handler.on_message(&mut ctx, from, msg),
            HandlerCall::Timer { token } => slot.handler.on_timer(&mut ctx, token),
        }
        let actions = ctx.actions;
        self.apply_actions(addr, actions);
    }

    /// Apply a handler's actions, then keep the emptied buffer for the next
    /// handler call.
    fn apply_actions(&mut self, from: NodeAddr, mut actions: Vec<Action<N::Msg>>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    let bytes = msg.wire_size();
                    self.metrics.on_send(bytes);
                    if self.partitions.blocks(from, to)
                        || self.config.loss.drops(&mut self.net_rng, from, to)
                    {
                        self.metrics.on_drop_loss();
                        continue;
                    }
                    let delay = self.config.latency.sample(&mut self.net_rng, from, to);
                    let at = self.now + delay;
                    self.push_event(
                        at,
                        EventKind::Deliver { from, to, msg, sent_at: self.now, bytes },
                    );
                }
                Action::SetTimer { id, delay, token } => {
                    let incarnation = self.nodes[from.index()].incarnation;
                    let at = self.now + delay;
                    self.push_event(at, EventKind::Timer { node: from, id, token, incarnation });
                }
                Action::CancelTimer { id } => {
                    self.cancelled_timers.insert(id.0);
                }
            }
        }
        self.actions = actions;
    }
}

enum HandlerCall<M> {
    Start,
    Stop,
    Message { from: NodeAddr, msg: M },
    Timer { token: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u64),
        #[allow(dead_code)] // the payload documents the echoed nonce
        Pong(u64),
    }
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            9
        }
    }

    /// A node that pings its successor every 100 ms and counts pongs.
    struct PingNode {
        peers: u32,
        pings_received: u64,
        pongs_received: u64,
        ticks: u64,
    }

    impl Node for PingNode {
        type Msg = Msg;

        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            ctx.set_timer(Duration::from_millis(100), 1);
        }

        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeAddr, msg: Msg) {
            match msg {
                Msg::Ping(n) => {
                    self.pings_received += 1;
                    ctx.send(from, Msg::Pong(n));
                }
                Msg::Pong(_) => self.pongs_received += 1,
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<Msg>, token: u64) {
            assert_eq!(token, 1);
            self.ticks += 1;
            let next = NodeAddr((ctx.addr().0 + 1) % self.peers);
            if next != ctx.addr() {
                ctx.send(next, Msg::Ping(self.ticks));
            }
            ctx.set_timer(Duration::from_millis(100), 1);
        }
    }

    fn ping_sim(n: usize, seed: u64) -> Simulation<PingNode> {
        let peers = n as u32;
        let mut sim = Simulation::new(
            SimConfig {
                seed,
                latency: LatencyModel::Constant(Duration::from_millis(10)),
                ..Default::default()
            },
            move |_addr| PingNode { peers, pings_received: 0, pongs_received: 0, ticks: 0 },
        );
        sim.add_nodes(n);
        sim
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut sim = ping_sim(4, 1);
        sim.run_for(Duration::from_secs(2));
        for addr in sim.alive_nodes() {
            let node = sim.node(addr).unwrap();
            assert!(node.ticks >= 19, "ticks {}", node.ticks);
            assert!(node.pings_received > 0);
            assert!(node.pongs_received > 0);
        }
        assert!(sim.metrics().messages_delivered() > 0);
        assert_eq!(sim.metrics().messages_dropped_loss(), 0);
    }

    #[test]
    fn determinism_across_runs() {
        let run = |seed| {
            let peers = 5u32;
            let mut sim = Simulation::new(
                SimConfig {
                    seed,
                    latency: LatencyModel::Uniform {
                        min: Duration::from_millis(5),
                        max: Duration::from_millis(80),
                    },
                    ..Default::default()
                },
                move |_| PingNode { peers, pings_received: 0, pongs_received: 0, ticks: 0 },
            );
            sim.add_nodes(5);
            sim.run_for(Duration::from_secs(3));
            (
                sim.metrics().messages_sent(),
                sim.metrics().messages_delivered(),
                sim.metrics().delivery_latency().unwrap().mean().round() as u64,
            )
        };
        assert_eq!(run(7), run(7));
        // Different seeds draw different latencies, so the mean differs.
        assert_ne!(run(7).2, run(8).2);
    }

    #[test]
    fn killed_nodes_stop_receiving() {
        let mut sim = ping_sim(2, 3);
        sim.run_for(Duration::from_secs(1));
        sim.kill_node(NodeAddr(1));
        assert!(!sim.is_alive(NodeAddr(1)));
        let delivered_before = sim.metrics().messages_delivered();
        sim.run_for(Duration::from_secs(1));
        // Node 0 keeps sending pings into the void: drops-to-dead accumulate.
        assert!(sim.metrics().messages_dropped_dead() > 0);
        // Node 1 never handles anything further.
        let n1 = sim.node(NodeAddr(1)).unwrap();
        let n1_pings = n1.pings_received;
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.node(NodeAddr(1)).unwrap().pings_received, n1_pings);
        assert!(sim.metrics().messages_delivered() > delivered_before); // node 0 still gets nothing new? actually node0 receives no pongs; deliveries only to node0 from nobody. Allow >= .
    }

    #[test]
    fn restart_gives_fresh_state() {
        let mut sim = ping_sim(3, 4);
        sim.run_for(Duration::from_secs(2));
        let before = sim.node(NodeAddr(2)).unwrap().ticks;
        assert!(before > 0);
        sim.kill_node(NodeAddr(2));
        sim.restart_node(NodeAddr(2));
        assert!(sim.is_alive(NodeAddr(2)));
        assert_eq!(sim.node(NodeAddr(2)).unwrap().ticks, 0);
        sim.run_for(Duration::from_secs(1));
        assert!(sim.node(NodeAddr(2)).unwrap().ticks > 0);
    }

    #[test]
    fn scheduled_churn_applies() {
        let mut sim = ping_sim(3, 5);
        let mut schedule = ChurnSchedule::none();
        schedule.push(SimTime::from_secs(1), NodeAddr(0), ChurnKind::Down);
        schedule.push(SimTime::from_secs(2), NodeAddr(0), ChurnKind::Up);
        sim.apply_churn(&schedule);
        sim.run_until(SimTime::from_millis(1_500));
        assert!(!sim.is_alive(NodeAddr(0)));
        sim.run_until(SimTime::from_millis(2_500));
        assert!(sim.is_alive(NodeAddr(0)));
        assert_eq!(sim.metrics().node_stops(), 1);
        assert_eq!(sim.metrics().node_starts(), 4); // 3 initial + 1 restart
    }

    #[test]
    fn stale_timers_do_not_fire_after_restart() {
        let mut sim = ping_sim(1, 6);
        // The single node arms a 100 ms timer at start. Kill and restart it
        // immediately: the old incarnation's timer must not fire.
        sim.kill_node(NodeAddr(0));
        sim.restart_node(NodeAddr(0));
        sim.run_for(Duration::from_millis(350));
        let node = sim.node(NodeAddr(0)).unwrap();
        // Only the new incarnation's timers fired: at most 3 ticks in 350 ms.
        assert!(node.ticks <= 3, "ticks {}", node.ticks);
        assert!(node.ticks >= 3);
    }

    #[test]
    fn loss_model_drops_messages() {
        let peers = 2u32;
        let mut sim = Simulation::new(
            SimConfig {
                seed: 9,
                latency: LatencyModel::Constant(Duration::from_millis(5)),
                loss: LossModel::Bernoulli(1.0),
                ..Default::default()
            },
            move |_| PingNode { peers, pings_received: 0, pongs_received: 0, ticks: 0 },
        );
        sim.add_nodes(2);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.metrics().messages_delivered(), 0);
        assert!(sim.metrics().messages_dropped_loss() > 0);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut sim = ping_sim(2, 10);
        sim.set_partition(PartitionSet::split(&[&[NodeAddr(0)], &[NodeAddr(1)]]));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.metrics().messages_delivered(), 0);
        sim.heal_partition();
        sim.run_for(Duration::from_secs(1));
        assert!(sim.metrics().messages_delivered() > 0);
    }

    #[test]
    fn invoke_sends_messages() {
        let mut sim = ping_sim(2, 11);
        let sent_before = sim.metrics().messages_sent();
        let out = sim.invoke(NodeAddr(0), |_node, ctx| {
            ctx.send(NodeAddr(1), Msg::Ping(99));
            42
        });
        assert_eq!(out, Some(42));
        assert_eq!(sim.metrics().messages_sent(), sent_before + 1);
        sim.run_for(Duration::from_millis(50));
        assert!(sim.node(NodeAddr(1)).unwrap().pings_received >= 1);
        // Invoking a dead node returns None.
        sim.kill_node(NodeAddr(1));
        assert_eq!(sim.invoke(NodeAddr(1), |_n, _c| 1), None);
    }

    /// Logs every message and timer it handles, in dispatch order.
    struct LogNode {
        log: Vec<(u64, char, u64)>,
    }

    impl Node for LogNode {
        type Msg = u64;

        fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeAddr, msg: u64) {
            self.log.push((ctx.now().as_millis(), 'm', msg));
        }

        fn on_timer(&mut self, ctx: &mut Context<u64>, token: u64) {
            self.log.push((ctx.now().as_millis(), 't', token));
            if token == 101 {
                // Queued behind everything already due now, into a slot an
                // event of this instant just freed.
                ctx.set_timer(Duration::ZERO, 104);
            }
        }
    }

    #[test]
    fn same_instant_events_dispatch_in_queue_order_through_reused_slots() {
        let mut sim = Simulation::new(
            SimConfig {
                seed: 13,
                latency: LatencyModel::Constant(Duration::from_millis(10)),
                ..Default::default()
            },
            |_| LogNode { log: Vec::new() },
        );
        let me = sim.add_node();
        let mut peak = 0;
        // Eight events due at 10 ms fill eight slots, and free them all.
        sim.invoke(me, |_, ctx| {
            for n in 0..5 {
                ctx.send(me, n);
                if n < 3 {
                    ctx.set_timer(Duration::from_millis(10), n);
                }
            }
        });
        peak = peak.max(sim.pending_events());
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.pending_events(), 0);
        // Seven more due at 30 ms take freed slots in the free list's order,
        // not in the order they were queued; one timer is cancelled.
        sim.invoke(me, |_, ctx| {
            ctx.send(me, 1);
            ctx.set_timer(Duration::from_millis(10), 101);
            ctx.send(me, 2);
            let cancelled = ctx.set_timer(Duration::from_millis(10), 102);
            ctx.send(me, 3);
            ctx.set_timer(Duration::from_millis(10), 103);
            ctx.cancel_timer(cancelled);
            ctx.send(me, 4);
        });
        peak = peak.max(sim.pending_events());
        sim.run_until(SimTime::from_millis(40));
        let log = &sim.node(me).unwrap().log;
        let at_30: Vec<(char, u64)> =
            log.iter().filter(|(at, ..)| *at == 30).map(|&(_, kind, n)| (kind, n)).collect();
        let expected = [('m', 1), ('t', 101), ('m', 2), ('m', 3), ('t', 103), ('m', 4), ('t', 104)];
        assert_eq!(at_30, expected);
        assert_eq!(log.len(), 8 + expected.len());
        assert_eq!(sim.metrics().timers_cancelled(), 1);
        assert_eq!(peak, 8);
        assert_eq!(sim.events.len(), peak, "slots grew past the queue's peak");
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut sim = ping_sim(0, 12);
        assert_eq!(sim.num_nodes(), 0);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.pending_events(), 0);
    }
}
