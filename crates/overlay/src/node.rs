//! The overlay node as applications hold it: [`OverlayNode::spawn`] and
//! the [`OverlayHandle`] it returns. Protocol state and logic are
//! [`crate::core`]; threads, the socket, the clock and fault injection
//! are [`crate::runtime`].

use crate::chaos::ChaosTarget;
use crate::clock::now_us;
use crate::config::NodeConfig;
use crate::core::Route;
use crate::fault::{FaultPlan, LinkFault};
use crate::metrics::MetricsSnapshot;
use crate::runtime::{spawn_threads, Driver};
use crate::session::{FlowGroup, FlowReceiver, FlowSender, Session};
use crate::OverlayError;
use dg_core::scheme::RoutingScheme;
use dg_core::{Flow, MulticastKind, ServiceRequirement, SlaClass};
use dg_topology::{EdgeId, Graph, NodeId};
use dg_trace::NetworkState;
use std::net::UdpSocket;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Constructor namespace for overlay nodes; see [`OverlayNode::spawn`].
#[derive(Debug)]
pub struct OverlayNode;

/// A running overlay node. Dropping the handle stops the node and
/// waits for its threads, exactly as [`OverlayHandle::shutdown`] does.
/// Sessions opened here may outlive it: they keep the node's socket
/// bound until they are dropped too, and their sends are refused with
/// [`OverlayError::Shutdown`].
///
/// A node is crash-only: once a call into its core has panicked, the
/// node stops for good ([`OverlayHandle::is_running`] reads false) and
/// a new node on the same port is the only recovery.
#[derive(Debug)]
pub struct OverlayHandle {
    driver: Arc<Driver>,
    /// The receive and timer threads; empty once joined.
    threads: Vec<JoinHandle<()>>,
}

impl Drop for OverlayHandle {
    fn drop(&mut self) {
        self.driver.stop();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl OverlayNode {
    /// Binds the configured address and starts the node.
    ///
    /// # Errors
    ///
    /// As [`OverlayNode::spawn_with_socket`], plus [`OverlayError::Io`]
    /// when the socket cannot be bound.
    pub fn spawn(config: NodeConfig, graph: Arc<Graph>) -> Result<OverlayHandle, OverlayError> {
        let socket = UdpSocket::bind(config.listen)?;
        OverlayNode::spawn_with_socket(config, graph, socket)
    }

    /// Starts a node over an already-bound socket (used by clusters,
    /// which must learn every port before wiring up peer tables).
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::InvalidConfig`] naming the rule when the
    /// configuration breaks one of [`NodeConfig::validate`]'s or does
    /// not fit `graph`, and [`OverlayError::Io`] when socket options
    /// cannot be set or a thread cannot be started.
    pub fn spawn_with_socket(
        config: NodeConfig,
        graph: Arc<Graph>,
        socket: UdpSocket,
    ) -> Result<OverlayHandle, OverlayError> {
        config.validate()?;
        let me = config.node;
        // CORRECTNESS: The node must be a site of the topology; every
        // duty indexes the graph by it.
        if me.index() >= graph.node_count() {
            return Err(OverlayError::InvalidConfig("node must be a site of the topology"));
        }
        // CORRECTNESS: Every peer must share a link with the node, in
        // either direction; a peer entry is what admits a frame's sender.
        let adjacent = |p: NodeId| {
            p.index() < graph.node_count()
                && (graph.edge_between(me, p).is_some() || graph.edge_between(p, me).is_some())
        };
        if !config.peers.keys().all(|&p| adjacent(p)) {
            return Err(OverlayError::InvalidConfig(
                "every peer must be an overlay neighbour of node",
            ));
        }
        let driver = Arc::new(Driver::new(config, graph, socket));
        let threads = spawn_threads(&driver)?.into();
        Ok(OverlayHandle { driver, threads })
    }
}

impl OverlayHandle {
    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.driver.config.node
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.driver.socket.local_addr().expect("bound socket has an address")
    }

    /// Opens a sending session at this node for the scheme's flow, in
    /// the default [`SlaClass::Timely`] service class.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] when the scheme's flow does
    /// not originate here, [`OverlayError::AdmissionDenied`] when the
    /// node is at its configured sender capacity, and
    /// [`OverlayError::Shutdown`] once the node has stopped.
    pub fn open_sender(
        &self,
        scheme: Box<dyn RoutingScheme>,
        requirement: ServiceRequirement,
    ) -> Result<FlowSender, OverlayError> {
        self.open_sender_with_class(scheme, requirement, SlaClass::default())
    }

    /// Opens a sending session in an explicit SLA service class. The
    /// class is stamped into every packet's wire prelude, decides the
    /// shed band the flow's traffic is admitted against, and selects
    /// the redundancy the node may downgrade to under overload (see
    /// `docs/RESILIENCE.md`).
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] when the scheme's flow does
    /// not originate here, [`OverlayError::AdmissionDenied`] when the
    /// node is at its configured sender capacity
    /// ([`NodeConfig::sender_capacity`]), and [`OverlayError::Shutdown`]
    /// once the node has stopped.
    pub fn open_sender_with_class(
        &self,
        scheme: Box<dyn RoutingScheme>,
        requirement: ServiceRequirement,
        class: SlaClass,
    ) -> Result<FlowSender, OverlayError> {
        if scheme.flow().source != self.node_id() {
            return Err(OverlayError::UnknownNode(scheme.flow().source));
        }
        let flow = scheme.flow();
        let id = self.driver.event(|core, _, _, _| {
            core.open_session(Route::Scheme(scheme), flow, class, requirement.deadline)
        })??;
        Ok(FlowSender(Session::new(Arc::clone(&self.driver), id, flow, class)))
    }

    /// Opens a multicast sending session from this node to `receivers`:
    /// one send covers every receiver, over an interned single-source
    /// dissemination graph shared by all groups with the same
    /// `(source, receiver set, kind, deadline)`. The `group_id` is the
    /// rendezvous: receivers subscribe with
    /// [`OverlayHandle::open_group_receiver`] on
    /// `Flow::group(source, group_id)`.
    ///
    /// Group sessions count against the same sender admission capacity
    /// as unicast sessions.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::Core`] when no multicast graph exists
    /// (e.g. a receiver is unreachable or the set is empty),
    /// [`OverlayError::AdmissionDenied`] at sender capacity, and
    /// [`OverlayError::Shutdown`] once the node has stopped.
    pub fn open_group_sender(
        &self,
        receivers: &[NodeId],
        group_id: u32,
        kind: MulticastKind,
        requirement: ServiceRequirement,
        class: SlaClass,
    ) -> Result<FlowGroup, OverlayError> {
        let flow = Flow::group(self.node_id(), group_id);
        let id = self.driver.event(|core, _, _, _| {
            let graph = core.graph_cache.multicast(flow.source, receivers, kind, requirement)?;
            let route = Route::Group { graph, kind, requirement };
            core.open_session(route, flow, class, requirement.deadline)
        })??;
        Ok(FlowGroup(Session::new(Arc::clone(&self.driver), id, flow, class)))
    }

    /// Opens a receiving session for the multicast group flow
    /// `Flow::group(source, group_id)`. Any node may subscribe; only
    /// nodes in the sender's receiver set are reached by the group's
    /// dissemination graph.
    ///
    /// A later receiver for the same group flow replaces the earlier
    /// one at this node.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] when `source` does not
    /// exist in the topology.
    pub fn open_group_receiver(
        &self,
        source: NodeId,
        group_id: u32,
    ) -> Result<FlowReceiver, OverlayError> {
        if source.index() >= self.driver.graph.node_count() {
            return Err(OverlayError::UnknownNode(source));
        }
        Ok(self.driver.open_receiver(Flow::group(source, group_id)))
    }

    /// Opens a receiving session for `flow`, which must terminate here.
    ///
    /// A later receiver for the same flow replaces the earlier one.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] when the flow does not
    /// terminate at this node.
    pub fn open_receiver(&self, flow: Flow) -> Result<FlowReceiver, OverlayError> {
        if flow.destination != self.node_id() {
            return Err(OverlayError::UnknownNode(flow.destination));
        }
        Ok(self.driver.open_receiver(flow))
    }

    /// The runtime-adjustable fault plan for this node's out-links.
    pub fn faults(&self) -> &FaultPlan {
        &self.driver.faults
    }

    /// This node's current view of network-wide link conditions.
    pub fn network_state(&self) -> NetworkState {
        self.driver.with_core(|core| core.linkstate.network_state(now_us()))
    }

    /// How many origins have reported link state so far.
    pub fn link_state_origins(&self) -> usize {
        self.driver.with_core(|core| core.linkstate.origins_heard())
    }

    /// Full observability snapshot: node-wide counters, per-flow and
    /// per-link counters, the event journal, the link-state digest and
    /// the graph cache's counters — all read under one hold of the
    /// node's lock, so they describe the node at one instant.
    /// Serde-serializable. A node that crashed still answers, with what
    /// its core held when it stopped.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.driver.with_core(|core| core.snapshot())
    }

    /// True until the node stops, by shutdown or because a call into
    /// its core panicked.
    pub fn is_running(&self) -> bool {
        self.driver.is_running()
    }

    /// Pauses (or resumes) this node's link-state origination. While
    /// paused the node stops minting new `(epoch, seq)` stamps but
    /// keeps probing hellos, answering digests, and flooding other
    /// origins' reports — so databases settle to a fixed fingerprint
    /// instead of chasing the refresh cadence. Collectors use this as
    /// a quiesce window right before taking comparable snapshots
    /// across nodes; forwarding is unaffected.
    pub fn set_origination_paused(&self, paused: bool) {
        self.driver.with_core(|core| core.originations_paused = paused);
    }

    /// The node's current overload degradation level (0 = full
    /// redundancy on every class; see `docs/RESILIENCE.md`).
    pub fn overload_level(&self) -> u8 {
        self.driver.with_core(|core| core.overload.level())
    }

    /// Data shipments currently queued toward the wire — the depth
    /// signal the shed bands and the overload detector read.
    pub fn outbound_queue_depth(&self) -> u64 {
        self.driver.backlog()
    }

    /// Floods this node's outbound data queue with `shipments`
    /// synthetic bulk-class shipments that evaporate (addressed to no
    /// peer) after `dwell`: deterministic overload pressure for chaos
    /// and soak tests, without touching the wire.
    pub fn inject_overload(&self, shipments: usize, dwell: Duration) {
        self.driver.inject_overload(shipments, dwell);
    }

    /// Asks the node to stop without waiting for it, so a cluster can
    /// stop every node before joining any.
    pub(crate) fn request_stop(&self) {
        self.driver.stop();
    }

    /// Stops the node and waits for both its threads. Every shipment
    /// parked before the call leaves at its departure time first:
    /// shutdown returned means flushed. (The explicit form of dropping
    /// the handle.)
    pub fn shutdown(self) {}
}

/// One node as a chaos target: it enacts what is its own — faults on
/// its out-links (unscaled: a deployed link has its real delay), its
/// queue — and leaves the rest alone, a crash or restart of itself
/// included: stopping a process is its owner's job.
impl ChaosTarget for OverlayHandle {
    fn graph(&self) -> &Graph {
        &self.driver.graph
    }

    fn set_edge(&mut self, edge: EdgeId, fault: Option<LinkFault>) {
        let info = self.driver.graph.edge(edge);
        match fault {
            _ if info.src != self.node_id() => {}
            Some(fault) => self.faults().set(info.dst, fault),
            None => self.faults().clear(info.dst),
        }
    }

    fn set_running(&mut self, _node: NodeId, _up: bool) -> Result<(), OverlayError> {
        Ok(())
    }

    fn overload(&mut self, node: NodeId, shipments: usize, dwell: Duration) {
        if node == self.node_id() {
            self.inject_overload(shipments, dwell);
        }
    }
}
