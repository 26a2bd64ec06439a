//! Deterministic localhost UDP port assignment.
//!
//! A deployment needs one distinct UDP port per overlay node, free at
//! spawn time, and stable across a node's kills and restarts (peers
//! address the node by `127.0.0.1:<port>`, so a respawn must re-bind
//! the same one — the kernel releases a UDP port the instant its owner
//! dies, so rebinding is safe). Candidates are derived from the run
//! seed so two concurrent CI runs with different seeds probe disjoint
//! ranges, and every candidate is verified free by actually binding it
//! before it is handed out.

use dg_core::splitmix;
use std::net::UdpSocket;

/// The low end of the probe space: above the well-known and registered
/// ranges most CI images care about.
const PORT_FLOOR: u32 = 21_000;
/// Size of the probe space: candidates wrap inside
/// `[PORT_FLOOR, PORT_FLOOR + PORT_SPAN)`, staying clear of the
/// ephemeral range (32768+ on Linux) that transient sockets churn
/// through.
const PORT_SPAN: u32 = 10_000;

/// Allocates `count` distinct, currently-free localhost UDP ports,
/// walking a seed-derived sequence and probing each candidate with a
/// real bind. Returns `None` only when the probe space is exhausted —
/// which on a sane machine means something else already holds
/// thousands of ports.
pub fn allocate(count: usize, seed: u64) -> Option<Vec<u16>> {
    let mut rng = seed ^ 0xE31A_7054_5EED_50A7;
    let mut ports = Vec::with_capacity(count);
    let mut attempts = 0u32;
    while ports.len() < count && attempts < PORT_SPAN {
        attempts += 1;
        let port = (PORT_FLOOR + (splitmix::next(&mut rng) % u64::from(PORT_SPAN)) as u32) as u16;
        if ports.contains(&port) {
            continue;
        }
        // Bind-probe: the socket is dropped (and the port released)
        // before the caller spawns anything, so a race with an
        // unrelated process remains possible — but a deployment retries
        // from `spawn` failing, and in practice localhost CI runs own
        // their probe range.
        if UdpSocket::bind(("127.0.0.1", port)).is_ok() {
            ports.push(port);
        }
    }
    (ports.len() == count).then_some(ports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_distinct_free_ports() {
        let ports = allocate(12, 42).expect("12 free ports exist");
        assert_eq!(ports.len(), 12);
        let unique: std::collections::HashSet<_> = ports.iter().collect();
        assert_eq!(unique.len(), 12, "ports are distinct");
        for &port in &ports {
            assert!(u32::from(port) >= PORT_FLOOR);
            // Still free: nothing held them after probing.
            UdpSocket::bind(("127.0.0.1", port)).expect("probed port is released");
        }
    }

    #[test]
    fn same_seed_walks_the_same_candidates() {
        // With no contention, the seeded walk is reproducible.
        let a = allocate(6, 7).unwrap();
        let b = allocate(6, 7).unwrap();
        assert_eq!(a, b);
        let c = allocate(6, 8).unwrap();
        assert_ne!(a, c, "different seeds probe different ranges");
    }
}
