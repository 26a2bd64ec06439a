//! Per-node configuration.

use crate::OverlayError;
use dg_topology::{Graph, NodeId};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

/// Configuration for one overlay node: who it is, and the values some
/// deployment, test or benchmark sets away from their defaults. What
/// the service fixes rather than exposes — the loss window, the
/// retransmission buffer, the problem threshold, the flap and overload
/// thresholds — are constants beside the code that reads them.
///
/// Start from [`NodeConfig::new`] and override with struct-update
/// syntax; [`crate::OverlayNode::spawn`] validates what it is given.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's identity in the topology.
    pub node: NodeId,
    /// Address to bind the UDP socket on (use port 0 for ephemeral).
    pub listen: SocketAddr,
    /// Socket addresses of every overlay neighbour, by node id. Frames
    /// from a node id with no entry here are dropped as malformed.
    pub peers: HashMap<NodeId, SocketAddr>,
    /// How often hellos probe each out-link.
    pub hello_interval: Duration,
    /// How often this node originates a link-state update.
    pub link_state_interval: Duration,
    /// Link-state reports older than this expire back to a pessimistic
    /// default (a crashed origin must not freeze the database).
    pub link_state_max_age: Duration,
    /// How often anti-entropy digests summarize the link-state database
    /// to each neighbour.
    pub digest_interval: Duration,
    /// Minimum spacing between admitted link-state transitions for one
    /// neighbour (route-flap damping hold-down); zero disables the
    /// hold-down.
    pub flap_hold_down: Duration,
    /// Bound on the outgoing-shipment queue (datagrams); overflow is
    /// dropped and counted in `shipper_drops` (plus the per-class
    /// `shed_*` counter of the shed packet). Also the depth scale of
    /// the class shed bands and the overload detector.
    pub shipper_queue: usize,
    /// Maximum sender sessions this node admits; further `open_sender`
    /// calls fail with [`OverlayError::AdmissionDenied`].
    pub sender_capacity: usize,
    /// Minimum dwell between overload transitions (enter, escalate,
    /// exit), and the sustained-quiet horizon required before exit —
    /// the same hold-down idea as route-flap damping.
    pub overload_hold_down: Duration,
    /// Budget for coalescing batched sends into one wire datagram
    /// (bytes of packet records, behind the 22-byte frame header). The
    /// WAN-safe default stays near a common 1500-byte MTU; loopback
    /// benchmarks raise it to pack more packets per syscall, up to what
    /// one UDP datagram holds (65 485).
    pub max_batch_bytes: usize,
    /// Seed for the node's deterministic fault-injection RNG.
    pub fault_seed: u64,
}

impl NodeConfig {
    /// The localhost-cluster defaults for `node` listening on `listen`,
    /// with no peers yet: 50 ms hellos, 200 ms link-state refresh.
    pub fn new(node: NodeId, listen: SocketAddr) -> NodeConfig {
        NodeConfig {
            node,
            listen,
            peers: HashMap::new(),
            hello_interval: Duration::from_millis(50),
            link_state_interval: Duration::from_millis(200),
            link_state_max_age: Duration::from_secs(3),
            digest_interval: Duration::from_secs(1),
            flap_hold_down: Duration::from_millis(500),
            shipper_queue: 16_384,
            sender_capacity: 1_024,
            overload_hold_down: Duration::from_millis(500),
            max_batch_bytes: 1_400,
            fault_seed: 0,
        }
    }

    /// Checks the values against each other, so a bad one fails the
    /// spawn instead of starting a node that can never converge.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::InvalidConfig`] naming the first rule the
    /// configuration violates.
    pub fn validate(&self) -> Result<(), OverlayError> {
        if self.hello_interval.is_zero() {
            return Err(OverlayError::InvalidConfig("hello_interval must be positive"));
        }
        if self.link_state_interval.is_zero() {
            return Err(OverlayError::InvalidConfig("link_state_interval must be positive"));
        }
        if self.hello_interval >= self.link_state_interval * 10 {
            return Err(OverlayError::InvalidConfig(
                "hello_interval must be well under 10x link_state_interval",
            ));
        }
        if self.link_state_max_age <= self.link_state_interval * 2 {
            return Err(OverlayError::InvalidConfig(
                "link_state_max_age must outlast at least two link-state refreshes",
            ));
        }
        if self.digest_interval.is_zero() {
            return Err(OverlayError::InvalidConfig("digest_interval must be positive"));
        }
        if self.shipper_queue == 0 {
            return Err(OverlayError::InvalidConfig("shipper_queue must be positive"));
        }
        if self.sender_capacity == 0 {
            return Err(OverlayError::InvalidConfig("sender_capacity must be positive"));
        }
        if self.overload_hold_down.is_zero() {
            return Err(OverlayError::InvalidConfig("overload_hold_down must be positive"));
        }
        if self.max_batch_bytes == 0 {
            return Err(OverlayError::InvalidConfig("max_batch_bytes must be positive"));
        }
        // CORRECTNESS: a frame filled to the budget must fit one UDP
        // datagram, or every full frame fails `send_to` with EMSGSIZE
        // (and, well before that, the frame's 16-bit packet count would
        // wrap).
        if self.max_batch_bytes > crate::wire::MAX_DATA_BODY {
            return Err(OverlayError::InvalidConfig(
                "max_batch_bytes must leave room for the frame header in one UDP datagram \
                 (at most 65485)",
            ));
        }
        Ok(())
    }
}

/// The on-disk JSON configuration of a standalone `dg-node` daemon —
/// shared between the daemon (which parses it) and deployment tooling
/// like `dg-emu` (which generates one per node), so the two can never
/// drift apart on field names.
///
/// Only the identity fields are mandatory; every tuning key is
/// optional and falls back to the [`NodeConfig::new`] default when
/// omitted, which keeps hand-written configs short:
///
/// ```json
/// {
///   "topology": "topology.json",
///   "node": "NYC",
///   "listen": "0.0.0.0:7100",
///   "peers": { "CHI": "192.0.2.10:7100", "WAS": "192.0.2.11:7100" }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeFileConfig {
    /// Path to the topology JSON (a serialized [`Graph`]), relative to
    /// the daemon's working directory.
    pub topology: String,
    /// This node's site name in that topology.
    pub node: String,
    /// Address to bind the daemon's UDP socket on.
    pub listen: SocketAddr,
    /// Socket addresses of every overlay neighbour, by site name.
    #[serde(default)]
    pub peers: HashMap<String, SocketAddr>,
    /// How often hellos probe each out-link.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub hello_interval_ms: Option<u64>,
    /// How often this node originates a link-state update.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub link_state_interval_ms: Option<u64>,
    /// Anti-entropy digest cadence.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub digest_interval_ms: Option<u64>,
    /// Link-state aging horizon. Deployment harnesses that compare
    /// database digests across daemons raise this past the run length
    /// so a dead origin's reports freeze identically everywhere instead
    /// of expiring at slightly different instants.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub link_state_max_age_ms: Option<u64>,
    /// Seed for the daemon's deterministic fault-injection RNG.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fault_seed: Option<u64>,
}

/// Every top-level key a config file may hold.
const FILE_KEYS: [&str; 9] = [
    "topology",
    "node",
    "listen",
    "peers",
    "hello_interval_ms",
    "link_state_interval_ms",
    "digest_interval_ms",
    "link_state_max_age_ms",
    "fault_seed",
];

impl NodeFileConfig {
    /// A config with the mandatory identity fields and every tuning
    /// key left to its default.
    pub fn new(topology: &str, node: &str, listen: SocketAddr) -> NodeFileConfig {
        NodeFileConfig {
            topology: topology.to_string(),
            node: node.to_string(),
            listen,
            peers: HashMap::new(),
            hello_interval_ms: None,
            link_state_interval_ms: None,
            digest_interval_ms: None,
            link_state_max_age_ms: None,
            fault_seed: None,
        }
    }

    /// Parses a config from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error on malformed input, and an
    /// error naming the key when the file holds one this struct does
    /// not know.
    pub fn from_json(json: &str) -> Result<NodeFileConfig, serde_json::Error> {
        let value: Value = serde_json::from_str(json)?;
        // CORRECTNESS: Every key must be one the daemon reads; a typo'd
        // or retired key must not run the node at defaults in silence.
        if let Value::Object(entries) = &value {
            if let Some((key, _)) = entries.iter().find(|(k, _)| !FILE_KEYS.contains(&k.as_str())) {
                return Err(serde::de::Error::custom(format!("unknown key `{key}`")).into());
            }
        }
        Ok(NodeFileConfig::from_value(&value)?)
    }

    /// Serializes the config to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// Resolves the file config against its topology into a
    /// [`NodeConfig`]: site names become node ids, and the keys the
    /// file holds override the [`NodeConfig::new`] defaults.
    /// ([`crate::OverlayNode::spawn`] validates the result.)
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the unknown site.
    pub fn resolve(&self, graph: &Graph) -> Result<NodeConfig, String> {
        let me = graph
            .node_by_name(&self.node)
            .ok_or_else(|| format!("node {:?} not in topology", self.node))?;
        let mut peers = HashMap::new();
        for (name, addr) in &self.peers {
            let peer =
                graph.node_by_name(name).ok_or_else(|| format!("peer {name:?} not in topology"))?;
            peers.insert(peer, *addr);
        }
        let defaults = NodeConfig::new(me, self.listen);
        let ms = Duration::from_millis;
        Ok(NodeConfig {
            peers,
            hello_interval: self.hello_interval_ms.map_or(defaults.hello_interval, ms),
            link_state_interval: self
                .link_state_interval_ms
                .map_or(defaults.link_state_interval, ms),
            digest_interval: self.digest_interval_ms.map_or(defaults.digest_interval, ms),
            link_state_max_age: self.link_state_max_age_ms.map_or(defaults.link_state_max_age, ms),
            fault_seed: self.fault_seed.unwrap_or(defaults.fault_seed),
            ..defaults
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn listen() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn defaults_validate_and_are_written_once() {
        let graph = dg_topology::presets::north_america_12();
        let nyc = graph.node_by_name("NYC").unwrap();
        let node = NodeConfig::new(nyc, listen());
        assert!(node.peers.is_empty());
        node.validate().expect("defaults validate");

        // Every value a cluster shares with its nodes is the node default.
        let cluster = ClusterConfig::default();
        assert_eq!(cluster.hello_interval, node.hello_interval);
        assert_eq!(cluster.link_state_interval, node.link_state_interval);
        assert_eq!(cluster.digest_interval, node.digest_interval);
        assert_eq!(cluster.flap_hold_down, node.flap_hold_down);
        assert_eq!(cluster.shipper_queue, node.shipper_queue);
        assert_eq!(cluster.sender_capacity, node.sender_capacity);
        assert_eq!(cluster.overload_hold_down, node.overload_hold_down);
        assert_eq!(cluster.max_batch_bytes, node.max_batch_bytes);
        assert_eq!(cluster.fault_seed, node.fault_seed);

        // So is every key a sparse config file leaves out.
        let sparse = r#"{"topology": "t.json", "node": "NYC", "listen": "127.0.0.1:0"}"#;
        let file = NodeFileConfig::from_json(sparse).unwrap().resolve(&graph).unwrap();
        assert_eq!((file.node, file.listen), (node.node, node.listen));
        assert!(file.peers.is_empty());
        assert_eq!(file.hello_interval, node.hello_interval);
        assert_eq!(file.link_state_interval, node.link_state_interval);
        assert_eq!(file.link_state_max_age, node.link_state_max_age);
        assert_eq!(file.digest_interval, node.digest_interval);
        assert_eq!(file.flap_hold_down, node.flap_hold_down);
        assert_eq!(file.shipper_queue, node.shipper_queue);
        assert_eq!(file.sender_capacity, node.sender_capacity);
        assert_eq!(file.overload_hold_down, node.overload_hold_down);
        assert_eq!(file.max_batch_bytes, node.max_batch_bytes);
        assert_eq!(file.fault_seed, node.fault_seed);
    }

    #[test]
    fn validate_names_the_broken_rule() {
        let ok = || NodeConfig::new(NodeId::new(3), listen());
        let ms = Duration::from_millis;
        let broken: [(NodeConfig, &str); 10] = [
            (NodeConfig { hello_interval: Duration::ZERO, ..ok() }, "hello_interval"),
            (NodeConfig { link_state_interval: Duration::ZERO, ..ok() }, "link_state_interval"),
            (NodeConfig { hello_interval: ms(2_000), ..ok() }, "10x link_state_interval"),
            (NodeConfig { link_state_max_age: ms(400), ..ok() }, "link_state_max_age"),
            (NodeConfig { digest_interval: Duration::ZERO, ..ok() }, "digest_interval"),
            (NodeConfig { shipper_queue: 0, ..ok() }, "shipper_queue"),
            (NodeConfig { sender_capacity: 0, ..ok() }, "sender_capacity"),
            (NodeConfig { overload_hold_down: Duration::ZERO, ..ok() }, "overload_hold_down"),
            (NodeConfig { max_batch_bytes: 0, ..ok() }, "max_batch_bytes"),
            // One byte past what a UDP datagram holds behind the header.
            (NodeConfig { max_batch_bytes: 65_486, ..ok() }, "one UDP datagram"),
        ];
        for (config, rule) in broken {
            match config.validate() {
                Err(OverlayError::InvalidConfig(said)) => {
                    assert!(said.contains(rule), "{rule}: rejected as {said:?}");
                }
                other => panic!("{rule}: expected InvalidConfig, got {other:?}"),
            }
        }
        // Boundaries: the strict rules hold at equality, and a zero flap
        // hold-down is legal (it disables damping's window).
        let edge = NodeConfig {
            link_state_max_age: ms(401),
            flap_hold_down: Duration::ZERO,
            max_batch_bytes: 65_485,
            ..ok()
        };
        edge.validate().expect("just inside every bound");
    }

    #[test]
    fn file_configs_round_trip_and_resolve() {
        let graph = dg_topology::presets::north_america_12();
        let mut file = NodeFileConfig::new("topo.json", "NYC", "127.0.0.1:7100".parse().unwrap());
        file.peers.insert("CHI".into(), "127.0.0.1:7101".parse().unwrap());
        file.hello_interval_ms = Some(25);
        file.link_state_interval_ms = Some(100);
        file.digest_interval_ms = Some(300);
        file.link_state_max_age_ms = Some(15_000);
        file.fault_seed = Some(42);
        let parsed = NodeFileConfig::from_json(&file.to_json()).unwrap();
        assert_eq!(parsed, file, "every key the struct writes is one it accepts");

        let cfg = parsed.resolve(&graph).expect("resolves against the preset");
        assert_eq!(cfg.node, graph.node_by_name("NYC").unwrap());
        assert_eq!(cfg.peers[&graph.node_by_name("CHI").unwrap()], file.peers["CHI"]);
        assert_eq!(cfg.hello_interval, Duration::from_millis(25));
        assert_eq!(cfg.link_state_interval, Duration::from_millis(100));
        assert_eq!(cfg.digest_interval, Duration::from_millis(300));
        assert_eq!(cfg.link_state_max_age, Duration::from_secs(15));
        assert_eq!(cfg.fault_seed, 42);
        cfg.validate().expect("the soak cadences validate");
    }

    #[test]
    fn file_config_errors_name_the_offender() {
        let graph = dg_topology::presets::north_america_12();
        let file = NodeFileConfig::new("topo.json", "ATLANTIS", listen());
        assert!(file.resolve(&graph).unwrap_err().contains("ATLANTIS"));

        let mut file = NodeFileConfig::new("topo.json", "NYC", listen());
        file.peers.insert("MORDOR".into(), "127.0.0.1:1".parse().unwrap());
        assert!(file.resolve(&graph).unwrap_err().contains("MORDOR"));

        // A key the daemon does not read — a typo, a retired override —
        // is an error, not a run at defaults.
        for key in ["hello_intervall_ms", "flap_hold_down_ms", "link_down_intervals"] {
            let json = format!(
                r#"{{"topology": "t.json", "node": "NYC", "listen": "127.0.0.1:0", "{key}": 5}}"#
            );
            let err = NodeFileConfig::from_json(&json).unwrap_err().to_string();
            assert!(err.contains("unknown key") && err.contains(key), "{key}: {err}");
        }
    }
}
