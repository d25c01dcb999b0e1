//! # pier-simnet — deterministic discrete-event network simulator
//!
//! PIER was demonstrated on PlanetLab, a wide-area testbed of 300+ machines.
//! This crate substitutes that testbed with a deterministic, single-process
//! discrete-event simulator so that every experiment in the paper can be rerun
//! on a laptop with reproducible results.
//!
//! The simulator models:
//!
//! * a **virtual clock** ([`SimTime`], microsecond resolution);
//! * **point-to-point message delivery** with a configurable
//!   [latency model](latency::LatencyModel) and [loss model](loss::LossModel);
//! * **timers** local to each node;
//! * **node churn** (crash, restart, scheduled membership changes) — the key
//!   environmental property the paper's Figure 1 exercises ("responding
//!   nodes");
//! * **metrics** (message/byte counters, per-tag histograms) used by the
//!   benchmark harness to reproduce the paper's measurements.
//!
//! Higher layers (`pier-dht` and `pier-core`) implement protocol logic as
//! [`Node`] state machines; the simulator owns them and drives the event loop.
//!
//! The simulation is fully deterministic: the same seed, the same schedule of
//! external stimuli and deterministic node handlers produce the same sequence
//! of events, and so the same [metrics](metrics::Metrics).
//!
//! ## Quick example
//!
//! ```
//! use pier_simnet::{Simulation, SimConfig, Node, Context, NodeAddr, WireSize};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl WireSize for Ping {
//!     fn wire_size(&self) -> usize { 4 }
//! }
//!
//! struct Echo;
//! impl Node for Echo {
//!     type Msg = Ping;
//!     fn on_start(&mut self, ctx: &mut Context<Ping>) {
//!         if ctx.addr() == NodeAddr(0) {
//!             ctx.send(NodeAddr(1), Ping(7));
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<Ping>, from: NodeAddr, msg: Ping) {
//!         if ctx.addr() == NodeAddr(1) {
//!             ctx.send(from, Ping(msg.0 + 1));
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::default(), |_addr| Echo);
//! sim.add_nodes(2);
//! sim.run_for(pier_simnet::Duration::from_secs(1));
//! assert!(sim.metrics().messages_delivered() >= 2);
//! ```

pub mod churn;
pub mod latency;
pub mod loss;
pub mod metrics;
pub mod node;
pub mod rng;
pub mod sim;
pub mod testkit;
pub mod time;

pub use churn::{ChurnEvent, ChurnKind, ChurnSchedule};
pub use latency::LatencyModel;
pub use loss::{LossModel, PartitionSet};
pub use metrics::{Histogram, Metrics, MetricsSnapshot};
pub use node::{Context, Node, NodeAddr, TimerId, WireSize};
pub use rng::DetRng;
pub use sim::{SimConfig, Simulation};
pub use time::{Duration, SimTime};
