//! Overlay network topology model and routing algorithms.
//!
//! This crate provides the graph substrate for the dissemination-graph
//! transport service: a directed overlay [`Graph`] with per-edge latency
//! and cost, plus the routing algorithms the schemes in `dg-core` are
//! built from:
//!
//! - shortest paths ([`algo::dijkstra`], [`algo::bellman_ford`]),
//! - disjoint path pairs via Bhandari's algorithm ([`algo::disjoint`]),
//! - unit-capacity max-flow via Dinic's algorithm ([`algo::maxflow`]),
//! - time-constrained reachability for deadline flooding ([`algo::reach`]).
//!
//! # Example
//!
//! ```
//! use dg_topology::{presets, algo};
//!
//! let topo = presets::north_america_12();
//! let nyc = topo.node_by_name("NYC").unwrap();
//! let sjc = topo.node_by_name("SJC").unwrap();
//! let path = algo::dijkstra::shortest_path(&topo, nyc, sjc).unwrap();
//! assert!(path.latency(&topo).as_millis() < 65);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod cache;
mod error;
pub mod generate;
mod geo;
mod graph;
mod ids;
mod path;
pub mod presets;
mod units;

pub use error::TopologyError;
pub use geo::GeoPoint;
pub use graph::{EdgeInfo, Graph, GraphBuilder, NodeInfo};
pub use ids::{EdgeId, NodeId};
pub use path::Path;
pub use units::Micros;
