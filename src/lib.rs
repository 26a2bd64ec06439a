//! Dissemination-graph transport — a reproduction of *Timely, Reliable,
//! and Cost-Effective Internet Transport Service Using Dissemination
//! Graphs* (Babay, Wagner, Dinitz, Amir — ICDCS 2017).
//!
//! This facade re-exports the workspace's crates under one roof:
//!
//! - [`topology`] — the overlay graph model and routing algorithms,
//! - [`trace`] — recorded/synthetic per-link network conditions,
//! - [`core`] — dissemination graphs and the six routing schemes,
//! - [`sim`] — the playback network simulator and its metrics,
//! - [`overlay`] — the deployable UDP overlay node and localhost
//!   clusters.
//!
//! # Quickstart
//!
//! ```
//! use dissemination_graphs::prelude::*;
//!
//! let graph = topology::presets::north_america_12();
//! let flow = Flow::new(
//!     graph.node_by_name("NYC").unwrap(),
//!     graph.node_by_name("SJC").unwrap(),
//! );
//! let scheme = build_scheme(
//!     SchemeKind::TargetedRedundancy,
//!     &graph,
//!     flow,
//!     ServiceRequirement::default(),
//!     &SchemeParams::default(),
//! )?;
//! println!("graph cost: {}", scheme.current().cost(&graph));
//! # Ok::<(), dissemination_graphs::core::CoreError>(())
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! DESIGN.md / EXPERIMENTS.md for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dg_core as core;
pub use dg_overlay as overlay;
pub use dg_sim as sim;
pub use dg_topology as topology;
pub use dg_trace as trace;

// The workhorse types, liftable without spelling out the sub-crate.
pub use dg_core::scheme::SchemeKind;
pub use dg_core::SlaClass;
pub use dg_overlay::chaos::ChaosSchedule;
pub use dg_overlay::cluster::Cluster;
pub use dg_overlay::metrics::MetricsSnapshot;
pub use dg_overlay::{NodeConfig, OverlayHandle};

/// The types most programs need, importable in one line.
pub mod prelude {
    pub use dg_core::scheme::{build_scheme, RoutingScheme, SchemeKind, SchemeParams};
    pub use dg_core::{DisseminationGraph, Flow, ServiceRequirement, SlaClass};
    pub use dg_overlay::chaos::ChaosSchedule;
    pub use dg_overlay::cluster::{Cluster, ClusterConfig};
    pub use dg_overlay::metrics::MetricsSnapshot;
    pub use dg_overlay::{NodeConfig, OverlayHandle};
    pub use dg_sim::{run_flow, run_flows, FlowJob, PlaybackConfig};
    pub use dg_topology::{self as topology, Graph, Micros, NodeId};
    pub use dg_trace::gen::SyntheticWanConfig;
    pub use dg_trace::{NetworkState, TraceSet};
}
