//! Routing algorithms over the overlay graph.
//!
//! All algorithms operate on latencies as edge weights (the paper routes
//! for timeliness) and accept optional edge filters so callers can
//! express link failures or policy exclusions without copying the graph.

pub mod bellman_ford;
pub mod dijkstra;
pub mod disjoint;
pub mod maxflow;
pub mod reach;
pub mod suurballe;
mod workspace;
pub mod yen;

pub use workspace::SearchWorkspace;
