//! Whole-overlay deployment on localhost.
//!
//! A [`Cluster`] spins up one [`crate::OverlayNode`] per topology site,
//! wires their peer tables together over loopback UDP, and emulates
//! each link's propagation delay through the nodes' fault plans — so
//! the full transport service, including its monitoring and recovery
//! protocols, runs with realistic WAN timing on one machine.

use crate::chaos::{incident_edges, ChaosTarget};
use crate::config::NodeConfig;
use crate::fault::{FaultPlan, LinkFault};
use crate::metrics::ClusterMetricsReport;
use crate::node::{OverlayHandle, OverlayNode};
use crate::runtime::Runtime;
use crate::session::{FlowGroup, FlowReceiver, FlowSender};
use crate::OverlayError;
use dg_core::scheme::{SchemeKind, SchemeParams};
use dg_core::{build_scheme_cached, Flow, GraphCache, MulticastKind, ServiceRequirement, SlaClass};
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
            shipper_queue: node.shipper_queue,
            sender_capacity: node.sender_capacity,
            overload_hold_down: node.overload_hold_down,
        }
    }
}

/// What a whole overlay is launched from, over sockets ([`Cluster`]) or
/// stepped ([`crate::simnet::Net`]): node configurations, restarts and
/// edge impairments are derived here, once, for both.
#[derive(Debug)]
pub(crate) struct Emulation {
    pub(crate) graph: Arc<Graph>,
    pub(crate) config: ClusterConfig,
    /// Baseline emulated delay per edge, so injected faults compose.
    base_delay: Vec<Micros>,
    /// Shared precomputed dissemination graphs for sender setup, so
    /// many flows over the same topology intern one computation.
    pub(crate) scheme_cache: GraphCache,
}

impl Emulation {
    pub(crate) fn new(graph: &Graph, config: ClusterConfig) -> Emulation {
        let graph = Arc::new(graph.clone());
        let scaled = |latency: Micros| (latency.as_micros() as f64 * config.latency_scale) as u64;
        let base_delay =
            graph.edges().map(|e| Micros::from_micros(scaled(graph.edge(e).latency))).collect();
        let scheme_cache = GraphCache::new(Arc::clone(&graph), SchemeParams::default());
        Emulation { graph, config, base_delay, scheme_cache }
    }

    /// One node's configuration under the cluster-wide settings. A
    /// restart uses the same derivation as the launch, so a node's
    /// fault-RNG seed and peer table survive its death.
    pub(crate) fn node_config(&self, addrs: &[SocketAddr], node: NodeId) -> NodeConfig {
        let config = &self.config;
        NodeConfig {
            peers: self.graph.neighbors(node).map(|n| (n, addrs[n.index()])).collect(),
            hello_interval: config.hello_interval,
            link_state_interval: config.link_state_interval,
            fault_seed: config.fault_seed
                ^ (node.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            max_batch_bytes: config.max_batch_bytes,
            digest_interval: config.digest_interval,
            flap_hold_down: config.flap_hold_down,
            shipper_queue: config.shipper_queue,
            sender_capacity: config.sender_capacity,
            overload_hold_down: config.overload_hold_down,
            ..NodeConfig::new(node, addrs[node.index()])
        }
    }

    /// Impairs (`Some`) or restores to its emulated baseline (`None`)
    /// the directed `edge` in `faults`, its source's plan; an
    /// impairment's delay composes on top of the propagation delay.
    pub(crate) fn set_edge(&self, faults: &FaultPlan, edge: EdgeId, fault: Option<LinkFault>) {
        let fault = fault.unwrap_or_default();
        let delay = self.base_delay[edge.index()].saturating_add(fault.delay);
        faults.set(self.graph.edge(edge).dst, LinkFault { delay, ..fault });
    }

    /// Emulates propagation delay on each of `node`'s out-links, in
    /// `faults`, a fresh plan of that node.
    pub(crate) fn apply_base_delays(&self, faults: &FaultPlan, node: NodeId) {
        for &e in self.graph.out_edges(node) {
            self.set_edge(faults, e, None);
        }
    }
}

/// A running localhost overlay: one node per topology site.
#[derive(Debug)]
pub struct Cluster {
    emu: Emulation,
    handles: Vec<Option<OverlayHandle>>,
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
        let emu = Emulation::new(graph, config);
        // Bind every socket first so all peer addresses are known.
        let sockets: Vec<UdpSocket> = (0..graph.node_count())
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<SocketAddr> =
            sockets.iter().map(|s| s.local_addr()).collect::<Result<_, _>>()?;
        let mut cluster = Cluster { emu, handles: Vec::new(), addrs };
        for (socket, node) in sockets.into_iter().zip(graph.nodes()) {
            let handle = cluster.spawn(node, socket)?;
            cluster.handles.push(Some(handle));
        }
        Ok(cluster)
    }

    /// Starts `node` over `socket` with its emulated link delays.
    fn spawn(&self, node: NodeId, socket: UdpSocket) -> Result<OverlayHandle, OverlayError> {
        let config = self.emu.node_config(&self.addrs, node);
        let handle = OverlayNode::spawn_with_socket(config, Arc::clone(&self.emu.graph), socket)?;
        self.emu.apply_base_delays(handle.faults(), node);
        Ok(handle)
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
        &self.emu.graph
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

    /// True when `node` has been neither killed nor crashed.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.handles[node.index()].as_ref().is_some_and(OverlayHandle::is_running)
    }

    /// Restarts a previously killed or crashed node on its original
    /// port. The replacement process mints a fresh link-state epoch, so
    /// its reset sequence numbers are accepted by peers that remember
    /// the old incarnation; its emulated link delays are re-applied.
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
        assert!(!self.is_alive(node), "restarting a live node");
        // A crashed node's handle goes first: dropping it joins its
        // threads and, once no session holds it, frees its port.
        drop(self.handles[node.index()].take());
        let socket = UdpSocket::bind(self.addrs[node.index()])?;
        self.handles[node.index()] = Some(self.spawn(node, socket)?);
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
        let scheme = build_scheme_cached(kind, &self.emu.scheme_cache, flow, requirement)?;
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
        let scheme = build_scheme_cached(kind, &self.emu.scheme_cache, flow, requirement)?;
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
        self.set_edge(edge, Some(fault));
    }

    fn set_edge(&self, edge: EdgeId, fault: Option<LinkFault>) {
        if let Some(handle) = self.handles[self.emu.graph.edge(edge).src.index()].as_ref() {
            self.emu.set_edge(handle.faults(), edge, fault);
        }
    }

    /// Restores a directed edge to its emulated baseline. Killed source
    /// nodes are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn clear_link_fault(&self, edge: EdgeId) {
        self.set_edge(edge, None);
    }

    /// Impairs every link incident to `node` (both directions) — the
    /// paper's "problem around a node".
    pub fn impair_node(&self, node: NodeId, loss: f64, extra_delay: Micros) {
        for e in incident_edges(&self.emu.graph, node) {
            self.set_link_fault(e, loss, extra_delay);
        }
    }

    /// Clears impairments on every link incident to `node`.
    pub fn heal_node(&self, node: NodeId) {
        for e in incident_edges(&self.emu.graph, node) {
            self.clear_link_fault(e);
        }
    }

    /// Blocks until every live node has heard link state from every
    /// origin, or the timeout passes; returns whether convergence was
    /// reached. Checks every millisecond, one lock hold per node each.
    pub fn wait_for_link_state(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let converged = self
                .handles
                .iter()
                .flatten()
                .all(|h| h.link_state_origins() == self.emu.graph.node_count());
            if converged {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
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

impl ChaosTarget for Cluster {
    fn graph(&self) -> &Graph {
        &self.emu.graph
    }

    fn set_edge(&mut self, edge: EdgeId, fault: Option<LinkFault>) {
        Cluster::set_edge(self, edge, fault);
    }

    fn set_running(&mut self, node: NodeId, up: bool) -> Result<(), OverlayError> {
        match (self.is_alive(node), up) {
            (true, false) => self.kill_node(node),
            (false, true) => self.restart_node(node)?,
            _ => {}
        }
        Ok(())
    }

    fn overload(&mut self, node: NodeId, shipments: usize, dwell: Duration) {
        if let Some(handle) = &self.handles[node.index()] {
            handle.inject_overload(shipments, dwell);
        }
    }
}
