//! Whole-overlay deployment on localhost.
//!
//! A [`Cluster`] spins up one [`crate::OverlayNode`] per topology site,
//! wires their peer tables together over loopback UDP, and emulates
//! each link's propagation delay through the nodes' fault plans — so
//! the full transport service, including its monitoring and recovery
//! protocols, runs with realistic WAN timing on one machine.

use crate::config::NodeConfig;
use crate::fault::LinkFault;
use crate::metrics::{ClusterMetricsReport, NodeThread};
use crate::node::{OverlayHandle, OverlayNode};
use crate::runtime::Runtime;
use crate::session::{FlowGroup, FlowReceiver, FlowSender};
use crate::wire::DigestEntry;
use crate::OverlayError;
use dg_core::scheme::{SchemeKind, SchemeParams};
use dg_core::{
    build_scheme_cached, Flow, GraphCache, GraphCacheStats, MulticastKind, ServiceRequirement,
    SlaClass,
};
use dg_topology::{EdgeId, Graph, Micros, NodeId};
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// Cluster-wide settings: the emulation's own `latency_scale`, and the
/// [`NodeConfig`] values every node is launched with.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Hello probe interval for every node.
    pub hello_interval: Duration,
    /// Link-state origination interval for every node.
    pub link_state_interval: Duration,
    /// Scale factor applied to emulated link latencies (1.0 = the
    /// topology's real propagation delays; tests may shrink it).
    pub latency_scale: f64,
    /// Base seed for the nodes' deterministic fault RNGs; each node
    /// derives its own stream from this and its index.
    pub fault_seed: u64,
    /// Largest wire datagram built when coalescing sends (see
    /// [`NodeConfig::max_batch_bytes`]); loopback clusters can raise it
    /// well past the WAN-safe default.
    pub max_batch_bytes: usize,
    /// Anti-entropy digest interval for every node (see
    /// [`NodeConfig::digest_interval`]).
    pub digest_interval: Duration,
    /// Flap-damper hold-down for every node (see
    /// [`NodeConfig::flap_hold_down`]).
    pub flap_hold_down: Duration,
    /// Watchdog staleness horizon for every node (see
    /// [`NodeConfig::watchdog_stale_after`]).
    pub watchdog_stale_after: Duration,
    /// Outbound data-queue bound for every node (see
    /// [`NodeConfig::shipper_queue`]) — also the depth scale of the
    /// class shed bands and the overload detector.
    pub shipper_queue: usize,
    /// Sender-session admission capacity per node (see
    /// [`NodeConfig::sender_capacity`]).
    pub sender_capacity: usize,
    /// Overload-detector hold-down for every node (see
    /// [`NodeConfig::overload_hold_down`]).
    pub overload_hold_down: Duration,
}

impl Default for ClusterConfig {
    /// Every value shared with [`NodeConfig`] is [`NodeConfig::new`]'s.
    fn default() -> Self {
        let node = NodeConfig::new(NodeId::new(0), SocketAddr::from(([127, 0, 0, 1], 0)));
        ClusterConfig {
            hello_interval: node.hello_interval,
            link_state_interval: node.link_state_interval,
            latency_scale: 1.0,
            fault_seed: node.fault_seed,
            max_batch_bytes: node.max_batch_bytes,
            digest_interval: node.digest_interval,
            flap_hold_down: node.flap_hold_down,
            watchdog_stale_after: node.watchdog_stale_after,
            shipper_queue: node.shipper_queue,
            sender_capacity: node.sender_capacity,
            overload_hold_down: node.overload_hold_down,
        }
    }
}

/// A running localhost overlay: one node per topology site.
#[derive(Debug)]
pub struct Cluster {
    graph: Arc<Graph>,
    handles: Vec<Option<OverlayHandle>>,
    config: ClusterConfig,
    /// Shared precomputed dissemination graphs for sender setup, so
    /// many flows over the same topology intern one computation.
    scheme_cache: GraphCache,
    /// Baseline emulated delay per edge, so injected faults compose.
    base_delay: Vec<Micros>,
    /// Every node's bound address, kept so a killed node can restart on
    /// the same port and its peers need no reconfiguration.
    addrs: Vec<SocketAddr>,
}

impl Cluster {
    /// Binds and starts one node per site of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::Io`] when sockets cannot be bound, and
    /// [`OverlayError::InvalidConfig`] when `config` breaks one of
    /// [`NodeConfig::validate`]'s rules.
    pub fn launch(graph: &Graph, config: ClusterConfig) -> Result<Cluster, OverlayError> {
        let graph = Arc::new(graph.clone());
        // Bind every socket first so all peer addresses are known.
        let sockets: Vec<UdpSocket> = (0..graph.node_count())
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<SocketAddr> =
            sockets.iter().map(|s| s.local_addr()).collect::<Result<_, _>>()?;

        let base_delay: Vec<Micros> = graph
            .edges()
            .map(|e| {
                Micros::from_micros(
                    (graph.edge(e).latency.as_micros() as f64 * config.latency_scale) as u64,
                )
            })
            .collect();

        let mut handles = Vec::with_capacity(graph.node_count());
        for (socket, node) in sockets.into_iter().zip(graph.nodes()) {
            let node_config = make_node_config(&graph, &addrs, &config, node);
            let handle = OverlayNode::spawn_with_socket(node_config, Arc::clone(&graph), socket)?;
            apply_base_delays(&handle, &graph, &base_delay, node);
            handles.push(Some(handle));
        }
        let scheme_cache = GraphCache::new(Arc::clone(&graph), SchemeParams::default());
        Ok(Cluster { graph, handles, config, scheme_cache, base_delay, addrs })
    }

    /// [`Cluster::launch`] under the name `benchmark/` calls it by; goes
    /// with [`Runtime`] (see there).
    ///
    /// # Errors
    ///
    /// As [`Cluster::launch`].
    #[doc(hidden)]
    pub fn launch_on(
        graph: &Graph,
        config: ClusterConfig,
        _runtime: Runtime,
    ) -> Result<Cluster, OverlayError> {
        Cluster::launch(graph, config)
    }

    /// The topology this cluster runs.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The node handle for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or has been killed.
    pub fn node(&self, node: NodeId) -> &OverlayHandle {
        self.handles[node.index()].as_ref().expect("node is alive")
    }

    /// Stops one node's daemon, simulating a site failure. The rest of
    /// the overlay discovers the death through hello silence.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or already killed.
    pub fn kill_node(&mut self, node: NodeId) {
        self.handles[node.index()].take().expect("node is alive").shutdown();
    }

    /// True when `node` has not been killed.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.handles[node.index()].is_some()
    }

    /// Makes one protocol thread of `node` panic at its next checkpoint
    /// — the supervisor catches it, journals the crash, and restarts
    /// the thread. A no-op if the node has been killed.
    pub fn panic_thread(&self, node: NodeId, thread: NodeThread) {
        if let Some(handle) = &self.handles[node.index()] {
            handle.inject_thread_panic(thread);
        }
    }

    /// The per-origin `(epoch, seq)` link-state digest of one node, or
    /// an empty digest for a killed node. Two nodes with identical
    /// digests hold identical link-state databases — the convergence
    /// check partition tests poll.
    pub fn link_state_digest(&self, node: NodeId) -> Vec<DigestEntry> {
        self.handles[node.index()].as_ref().map_or_else(Vec::new, OverlayHandle::link_state_digest)
    }

    /// Restarts a previously killed node on its original port. The
    /// replacement process mints a fresh link-state epoch, so its reset
    /// sequence numbers are accepted by peers that remember the old
    /// incarnation; its emulated link delays are re-applied.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::Io`] when the original port cannot be
    /// re-bound.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or still alive.
    pub fn restart_node(&mut self, node: NodeId) -> Result<(), OverlayError> {
        assert!(self.handles[node.index()].is_none(), "restarting a live node");
        let socket = UdpSocket::bind(self.addrs[node.index()])?;
        let node_config = make_node_config(&self.graph, &self.addrs, &self.config, node);
        let handle = OverlayNode::spawn_with_socket(node_config, Arc::clone(&self.graph), socket)?;
        apply_base_delays(&handle, &self.graph, &self.base_delay, node);
        self.handles[node.index()] = Some(handle);
        Ok(())
    }

    /// Opens a sender at the flow's source using a freshly built scheme.
    ///
    /// # Errors
    ///
    /// Propagates scheme-construction and session errors.
    pub fn open_sender(
        &self,
        flow: Flow,
        kind: SchemeKind,
        requirement: ServiceRequirement,
    ) -> Result<FlowSender, OverlayError> {
        let scheme = build_scheme_cached(kind, &self.scheme_cache, flow, requirement)?;
        self.node(flow.source).open_sender(scheme, requirement)
    }

    /// Opens a sender in an explicit SLA service class with a caller's
    /// scheme choice and deadline.
    ///
    /// # Errors
    ///
    /// Propagates scheme-construction, admission, and session errors.
    pub fn open_sender_with_class(
        &self,
        flow: Flow,
        kind: SchemeKind,
        requirement: ServiceRequirement,
        class: SlaClass,
    ) -> Result<FlowSender, OverlayError> {
        let scheme = build_scheme_cached(kind, &self.scheme_cache, flow, requirement)?;
        self.node(flow.source).open_sender_with_class(scheme, requirement, class)
    }

    /// Opens a sender using the class's own scheme preference and
    /// deadline budget: bulk rides one dynamic path at 250 ms, timely
    /// two disjoint paths at 100 ms, surgical a targeted-redundancy
    /// graph at the default deadline.
    ///
    /// # Errors
    ///
    /// Propagates scheme-construction, admission, and session errors.
    pub fn open_sla_sender(&self, flow: Flow, class: SlaClass) -> Result<FlowSender, OverlayError> {
        let requirement = class.requirement();
        self.open_sender_with_class(flow, class.preferred_scheme(), requirement, class)
    }

    /// Opens a multicast group sender at `source` covering `receivers`,
    /// plus a receiving session at every receiver — the many-flow fast
    /// path: one send covers the whole set over an interned
    /// single-source dissemination graph. Receivers come back in the
    /// graph's canonical order (sorted, deduplicated, source dropped).
    ///
    /// # Errors
    ///
    /// Propagates graph-construction, admission, and session errors.
    pub fn open_group_sender(
        &self,
        source: NodeId,
        receivers: &[NodeId],
        group_id: u32,
        kind: MulticastKind,
        requirement: ServiceRequirement,
        class: SlaClass,
    ) -> Result<(FlowGroup, Vec<(NodeId, FlowReceiver)>), OverlayError> {
        let group =
            self.node(source).open_group_sender(receivers, group_id, kind, requirement, class)?;
        let mut sessions = Vec::with_capacity(group.receivers().len());
        for r in group.receivers() {
            sessions.push((r, self.node(r).open_group_receiver(source, group_id)?));
        }
        Ok((group, sessions))
    }

    /// Floods `node`'s outbound data queue with synthetic bulk-class
    /// pressure (see [`OverlayHandle::inject_overload`]). A no-op on a
    /// killed node.
    pub fn inject_overload(&self, node: NodeId, shipments: usize, dwell: Duration) {
        if let Some(handle) = self.handles[node.index()].as_ref() {
            handle.inject_overload(shipments, dwell);
        }
    }

    /// Counters of the cluster's shared scheme-construction cache.
    pub fn scheme_cache_stats(&self) -> GraphCacheStats {
        self.scheme_cache.stats()
    }

    /// Opens a receiver at the flow's destination.
    ///
    /// # Errors
    ///
    /// Propagates session errors.
    pub fn open_receiver(&self, flow: Flow) -> Result<FlowReceiver, OverlayError> {
        self.node(flow.destination).open_receiver(flow)
    }

    /// Injects loss (and optional extra delay) on a directed edge,
    /// composing with the emulated propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn set_link_fault(&self, edge: EdgeId, loss: f64, extra_delay: Micros) {
        self.set_link_impairment(edge, LinkFault::lossy(loss, extra_delay));
    }

    /// Injects an arbitrary impairment on a directed edge — bursty
    /// loss, jitter, reordering, duplication, corruption, blackhole —
    /// with the impairment's `delay` composing on top of the emulated
    /// propagation delay. Killed source nodes are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn set_link_impairment(&self, edge: EdgeId, fault: LinkFault) {
        let info = self.graph.edge(edge);
        let Some(handle) = self.handles[info.src.index()].as_ref() else {
            return;
        };
        let composed =
            LinkFault { delay: self.base_delay[edge.index()].saturating_add(fault.delay), ..fault };
        handle.faults().set(info.dst, composed);
    }

    /// Restores a directed edge to its emulated baseline. Killed source
    /// nodes are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn clear_link_fault(&self, edge: EdgeId) {
        let info = self.graph.edge(edge);
        if let Some(handle) = self.handles[info.src.index()].as_ref() {
            handle.faults().set(info.dst, LinkFault::delayed(self.base_delay[edge.index()]));
        }
    }

    /// Impairs every link incident to `node` (both directions) — the
    /// paper's "problem around a node".
    pub fn impair_node(&self, node: NodeId, loss: f64, extra_delay: Micros) {
        for &e in self.graph.out_edges(node).iter().chain(self.graph.in_edges(node)) {
            self.set_link_fault(e, loss, extra_delay);
        }
    }

    /// Clears impairments on every link incident to `node`.
    pub fn heal_node(&self, node: NodeId) {
        for &e in self.graph.out_edges(node).iter().chain(self.graph.in_edges(node)) {
            self.clear_link_fault(e);
        }
    }

    /// Blocks until every live node has heard link state from every
    /// origin, or the timeout passes; returns whether convergence was
    /// reached.
    pub fn wait_for_link_state(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let converged = self
                .handles
                .iter()
                .flatten()
                .all(|h| h.link_state_origins() == self.graph.node_count());
            if converged {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Gathers every live node's metrics snapshot into one
    /// serializable, cluster-wide report: per-node counters and
    /// journals, summed totals, and per-flow end-to-end summaries whose
    /// field names match the simulator's `FlowRunStats`.
    pub fn metrics_report(&self) -> ClusterMetricsReport {
        ClusterMetricsReport::aggregate(
            self.handles.iter().flatten().map(OverlayHandle::metrics_snapshot).collect(),
        )
    }

    /// Stops every node and waits for them — the explicit form of
    /// dropping the cluster.
    pub fn shutdown(self) {}
}

impl Drop for Cluster {
    /// All nodes are asked to stop before any is waited for (dropping
    /// a handle joins it), so the cluster stops in the time its slowest
    /// node takes.
    fn drop(&mut self) {
        for h in self.handles.iter().flatten() {
            h.request_stop();
        }
    }
}

/// One node's configuration under cluster-wide settings. Restart uses
/// the same derivation as launch, so a node's fault-RNG seed and peer
/// table survive its death.
fn make_node_config(
    graph: &Graph,
    addrs: &[SocketAddr],
    config: &ClusterConfig,
    node: NodeId,
) -> NodeConfig {
    NodeConfig {
        peers: graph.neighbors(node).map(|n| (n, addrs[n.index()])).collect(),
        hello_interval: config.hello_interval,
        link_state_interval: config.link_state_interval,
        fault_seed: config.fault_seed ^ (node.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        max_batch_bytes: config.max_batch_bytes,
        digest_interval: config.digest_interval,
        flap_hold_down: config.flap_hold_down,
        watchdog_stale_after: config.watchdog_stale_after,
        shipper_queue: config.shipper_queue,
        sender_capacity: config.sender_capacity,
        overload_hold_down: config.overload_hold_down,
        ..NodeConfig::new(node, addrs[node.index()])
    }
}

/// Emulates propagation delay on each of `node`'s out-links.
fn apply_base_delays(handle: &OverlayHandle, graph: &Graph, base_delay: &[Micros], node: NodeId) {
    for &e in graph.out_edges(node) {
        handle.faults().set(graph.edge(e).dst, LinkFault::delayed(base_delay[e.index()]));
    }
}
