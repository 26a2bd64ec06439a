//! Errors of the overlay transport service.

use dg_core::CoreError;
use dg_topology::{NodeId, TopologyError};
use std::error::Error;
use std::fmt;

/// Errors produced by overlay nodes and sessions.
#[derive(Debug)]
#[non_exhaustive]
pub enum OverlayError {
    /// Socket or thread I/O failed.
    Io(std::io::Error),
    /// An underlying routing computation failed.
    Core(CoreError),
    /// A topology query failed.
    Topology(TopologyError),
    /// A packet failed to decode.
    Malformed(&'static str),
    /// The referenced node does not exist in this cluster.
    UnknownNode(NodeId),
    /// The node has stopped, by shutdown or because a call into its
    /// core panicked: nothing enters its core again.
    Shutdown,
    /// A payload exceeded the maximum datagram body.
    PayloadTooLarge {
        /// Bytes offered.
        got: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// A node configuration breaks the named rule: its values are
    /// inconsistent with each other or do not fit the topology.
    InvalidConfig(&'static str),
    /// A chaos schedule breaks the named rule against the topology it
    /// is to be replayed on (see `ChaosSchedule::validate`).
    InvalidChaos {
        /// Index of the offending event in the schedule's list.
        event: usize,
        /// The rule it breaks.
        rule: &'static str,
    },
    /// The node refused a new sender session: it is already at its
    /// configured capacity (see `NodeConfig::sender_capacity`).
    AdmissionDenied {
        /// Sender sessions currently open on the node.
        active: usize,
        /// The configured admission capacity.
        capacity: usize,
    },
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlayError::Io(e) => write!(f, "overlay i/o failed: {e}"),
            OverlayError::Core(e) => write!(f, "{e}"),
            OverlayError::Topology(e) => write!(f, "{e}"),
            OverlayError::Malformed(what) => write!(f, "malformed packet: {what}"),
            OverlayError::UnknownNode(n) => write!(f, "unknown overlay node {n}"),
            OverlayError::Shutdown => write!(f, "overlay node is shut down"),
            OverlayError::PayloadTooLarge { got, max } => {
                write!(f, "payload too large: {got} bytes exceeds {max}")
            }
            OverlayError::InvalidConfig(rule) => write!(f, "invalid configuration: {rule}"),
            OverlayError::InvalidChaos { event, rule } => {
                write!(f, "invalid chaos schedule: event {event}: {rule}")
            }
            OverlayError::AdmissionDenied { active, capacity } => {
                write!(f, "admission denied: {active} senders open, capacity {capacity}")
            }
        }
    }
}

impl Error for OverlayError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OverlayError::Io(e) => Some(e),
            OverlayError::Core(e) => Some(e),
            OverlayError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OverlayError {
    fn from(e: std::io::Error) -> Self {
        OverlayError::Io(e)
    }
}

impl From<CoreError> for OverlayError {
    fn from(e: CoreError) -> Self {
        OverlayError::Core(e)
    }
}

impl From<TopologyError> for OverlayError {
    fn from(e: TopologyError) -> Self {
        OverlayError::Topology(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let io: OverlayError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        assert!(io.source().is_some());
        assert!(OverlayError::Malformed("short header").to_string().contains("short"));
        assert!(OverlayError::PayloadTooLarge { got: 9000, max: 1200 }
            .to_string()
            .contains("9000"));
        assert!(OverlayError::Shutdown.source().is_none());
    }
}
