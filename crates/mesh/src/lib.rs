//! # commchar-mesh
//!
//! A 2-D mesh, wormhole-routed interconnection network simulator — the
//! network substrate of the HPCA'97 communication-characterization
//! methodology. The paper's simulator was process-oriented (CSIM); this
//! crate provides two interchangeable engines behind one trait,
//! [`NetEngine`], sharing one log schema:
//!
//! - [`OnlineWormhole`] — an event/recurrence wormhole model at channel
//!   granularity. Messages must be injected in nondecreasing time order and
//!   each [`send`](NetEngine::send) immediately returns the delivery time,
//!   which is exactly what the execution-driven (closed-loop) simulator
//!   needs: the network's feedback steers application time.
//! - [`IncrementalFlit`] — a cycle-accurate router model (finite input
//!   buffers, round-robin switch allocation, wormhole flow control) used
//!   for cross-validation and ablation of the faster model. Its engine is
//!   event-driven (per-output request queues, hop cursors, a binary-heap
//!   event wheel) but cycle-identical to the retained cycle-loop oracle
//!   [`FlitCycleReference`], which pins its semantics via a randomized
//!   equivalence suite. It answers each send by running a speculative copy
//!   of the network just far enough to deliver it, while its committed
//!   state only ever processes cycles no later send can change.
//!
//! Both engines close the paper's Figure 1 feedback loop through
//! [`NetEngine::send`]/[`NetEngine::finish`], and both run whole batches
//! through [`NetEngine::simulate`]. Drivers select between them at runtime
//! via [`EngineKind`].
//!
//! All models produce a [`NetLog`]: one record per message with injection
//! time, delivery time, hop count and blocked (contention) time — the raw
//! material the statistical analysis operates on.
//!
//! For long-horizon runs where retaining per-message records is too
//! expensive, both engines are generic over a
//! [`LogSink`]: a [`StreamingLog`] folds each delivery into online
//! moments, auto-widening histograms and per-pair traffic matrices in
//! O(bins + P²) memory, independent of message count.
//!
//! # Example
//!
//! ```
//! use commchar_mesh::{IncrementalFlit, MeshConfig, NetEngine, NetMessage, NodeId, OnlineWormhole};
//! use commchar_des::SimTime;
//!
//! let cfg = MeshConfig::new(4, 2); // 4x2 mesh, 8 nodes
//! let msg = NetMessage { id: 0, src: NodeId(0), dst: NodeId(7), bytes: 40, inject: SimTime::ZERO };
//!
//! // Closed loop: inject, learn the delivery time at once.
//! let mut net = OnlineWormhole::new(cfg);
//! let delivered = net.send(msg).unwrap();
//! assert!(delivered > SimTime::ZERO);
//! assert_eq!(net.finish().records().len(), 1);
//!
//! // Batch: the same trait runs a whole message list.
//! let log = IncrementalFlit::new(cfg).simulate(&[msg]).unwrap();
//! assert_eq!(log.records()[0].delivered, delivered.ticks());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod flit;
mod flit_ref;
mod log;
mod sink;
mod topology;
mod wormhole;

pub use config::MeshConfig;
pub use engine::{EngineError, EngineKind, NetEngine};
pub use flit::{IncrementalFlit, SendPaths};
pub use flit_ref::FlitCycleReference;
pub use log::{MsgRecord, NetLog, NetSummary};
pub use sink::{LogSink, StreamingLog};
pub use topology::{
    ChannelId, Coord, MeshShape, NodeId, Routing, Topology, HOP_PORT_BITS, HOP_PORT_LOCAL,
    HOP_PORT_MASK,
};
pub use wormhole::OnlineWormhole;

use commchar_des::SimTime;

/// A message presented to the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetMessage {
    /// Caller-chosen identifier, preserved in the log.
    pub id: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node. Must differ from `src`.
    pub dst: NodeId,
    /// Payload length in bytes (headers are added by the model).
    pub bytes: u32,
    /// Time the message is handed to the source network interface.
    pub inject: SimTime,
}
