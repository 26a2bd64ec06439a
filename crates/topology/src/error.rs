//! Error types for topology construction and queries.

use crate::{EdgeId, NodeId};
use std::error::Error;
use std::fmt;

/// Errors produced by graph construction and routing queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A node id referenced an index outside the graph.
    UnknownNode(NodeId),
    /// An edge id referenced an index outside the graph.
    UnknownEdge(EdgeId),
    /// A node name was registered twice.
    DuplicateNodeName(String),
    /// An identical directed edge (same endpoints) was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// An edge connected a node to itself.
    SelfLoop(NodeId),
    /// An edge had no latency. Every route's latency grows with each
    /// link it takes, which is what the searches' tie rules rely on.
    ZeroLatency(NodeId, NodeId),
    /// No route exists between the requested endpoints.
    NoRoute(NodeId, NodeId),
    /// Fewer disjoint paths exist than were requested.
    InsufficientDisjointPaths {
        /// Number of disjoint paths requested.
        requested: usize,
        /// Number of disjoint paths that exist.
        available: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::UnknownEdge(e) => write!(f, "unknown edge {e}"),
            TopologyError::DuplicateNodeName(name) => {
                write!(f, "duplicate node name {name:?}")
            }
            TopologyError::DuplicateEdge(u, v) => {
                write!(f, "duplicate edge {u} -> {v}")
            }
            TopologyError::SelfLoop(n) => write!(f, "self loop on node {n}"),
            TopologyError::ZeroLatency(u, v) => write!(f, "zero-latency edge {u} -> {v}"),
            TopologyError::NoRoute(s, t) => write!(f, "no route from {s} to {t}"),
            TopologyError::InsufficientDisjointPaths { requested, available } => {
                write!(f, "requested {requested} disjoint paths but only {available} exist")
            }
        }
    }
}

impl Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let msgs = [
            TopologyError::UnknownNode(NodeId::new(1)).to_string(),
            TopologyError::UnknownEdge(EdgeId::new(2)).to_string(),
            TopologyError::DuplicateNodeName("NYC".into()).to_string(),
            TopologyError::DuplicateEdge(NodeId::new(0), NodeId::new(1)).to_string(),
            TopologyError::SelfLoop(NodeId::new(3)).to_string(),
            TopologyError::ZeroLatency(NodeId::new(0), NodeId::new(1)).to_string(),
            TopologyError::NoRoute(NodeId::new(0), NodeId::new(1)).to_string(),
            TopologyError::InsufficientDisjointPaths { requested: 2, available: 1 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase() || m.starts_with('r'));
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error + Send + Sync>(_: E) {}
        takes_error(TopologyError::SelfLoop(NodeId::new(0)));
    }
}
