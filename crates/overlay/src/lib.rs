//! The deployable overlay transport service.
//!
//! Where `dg-sim` *replays* recorded conditions, this crate runs the
//! real thing at laptop scale: each [`OverlayNode`] is a thread-driven
//! UDP daemon that
//!
//! - forwards data packets along the dissemination graph carried in
//!   each packet's header (an edge bitmask — the source alone decides
//!   routing, intermediate nodes just follow the graph),
//! - suppresses duplicates and drops expired packets,
//! - runs hop-by-hop recovery on every overlay link (gap detection,
//!   NACK, a single retransmission),
//! - monitors its links with hellos (loss and RTT estimation) and
//!   floods link-state updates so sources can react to problems,
//! - exposes a [`session::FlowSender`]/[`session::FlowReceiver`] API to
//!   applications,
//! - counts what it does and keeps a bounded event journal of route
//!   changes, detector transitions, and recovery outcomes
//!   ([`metrics::MetricsSnapshot`], [`cluster::Cluster::metrics_report`]).
//!
//! Link loss and extra latency are injectable per edge
//! ([`fault::FaultPlan`]), so a whole overlay with realistic WAN
//! behaviour runs on localhost — see [`cluster::Cluster`].
//!
//! # Example
//!
//! ```no_run
//! use dg_topology::presets;
//! use dg_core::{Flow, ServiceRequirement};
//! use dg_core::scheme::SchemeKind;
//! use dg_overlay::cluster::{Cluster, ClusterConfig};
//!
//! let graph = presets::north_america_12();
//! let cluster = Cluster::launch(&graph, ClusterConfig::default())?;
//! let flow = Flow::new(
//!     graph.node_by_name("NYC").unwrap(),
//!     graph.node_by_name("SJC").unwrap(),
//! );
//! let rx = cluster.open_receiver(flow)?;
//! let tx = cluster.open_sender(flow, SchemeKind::TargetedRedundancy,
//!                              ServiceRequirement::default())?;
//! tx.send(b"scalpel, please")?;
//! let delivery = rx.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
//! assert!(delivery.on_time);
//! cluster.shutdown();
//! # Ok::<(), dg_overlay::OverlayError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod carrier;
pub mod chaos;
mod clock;
pub mod cluster;
mod config;
mod core;
pub mod dedup;
mod error;
pub mod fault;
mod linkstate;
pub mod metrics;
pub mod monitor;
mod node;
pub mod overload;
pub mod pool;
pub mod recovery;
mod runtime;
pub mod session;
#[doc(hidden)]
pub mod shard;
#[doc(hidden)]
pub mod simnet;
pub mod sla;
pub mod wire;

pub use clock::now_us;
pub use config::{NodeConfig, NodeFileConfig};
pub use error::OverlayError;
pub use metrics::{ClusterMetricsReport, MetricsSnapshot, NodeCounters};
pub use node::{OverlayHandle, OverlayNode};
pub use overload::{OverloadConfig, OverloadDetector, OverloadTransition, MAX_LEVEL};
#[doc(hidden)]
pub use runtime::Runtime;
pub use sla::{SlaFlowSpec, SlaPlan};
