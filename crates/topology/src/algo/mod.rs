//! Routing algorithms over the overlay graph.
//!
//! All algorithms operate on latencies as edge weights (the paper routes
//! for timeliness) and accept optional edge filters so callers can
//! express link failures or policy exclusions without copying the graph.

pub mod bellman_ford;
pub mod dijkstra;
pub mod disjoint;
pub mod maxflow;
#[cfg(test)]
mod properties;
pub mod reach;
// Independent references the property tests check the production
// algorithms against; nothing outside the tests calls them.
#[cfg(test)]
mod suurballe;
mod workspace;
#[cfg(test)]
mod yen;

pub use workspace::{PairWork, SearchWorkspace};
