//! Real nodes with no socket, thread or sleep: the one harness protocol
//! behaviour is checked on. See `docs/RESILIENCE.md`, "Testing".
//!
//! A [`Net`] is a whole overlay on a hand-advanced [`Micros`] clock.
//! Every site is a real `NodeCore` behind a real `Carrier` and its
//! real seeded [`FaultPlan`] — the same three values the UDP driver
//! holds behind its lock — launched from the same [`ClusterConfig`] by
//! the same derivation a [`crate::cluster::Cluster`] uses, with each
//! edge's latency emulated as its source's base fault delay. A frame
//! that leaves a carrier arrives at once (the delay was its
//! propagation); arrivals, protocol timers, parked departures and
//! [`ChaosSchedule`] events are handed to their site in time order, ties
//! broken by kind and then by site, so a run is a pure function of the
//! topology, the configuration (its `fault_seed`) and the calls made.
//! Every frame that reaches the wire is logged byte for byte
//! ([`Net::wire`]); a `Net` dropped by a failing assertion prints its
//! seed.
//!
//! What it cannot check is what needs an operating system: threads
//! that exit when their node crashes, a port re-bound, a socket
//! drained — those stay on `Cluster` and the driver's own tests.

use crate::carrier::Carrier;
use crate::chaos::{incident_edges, ChaosRunner, ChaosSchedule, ChaosTarget};
use crate::cluster::{ClusterConfig, Emulation};
use crate::core::{Actions, NodeCore, SessionId};
use crate::fault::{FaultPlan, LinkFault};
use crate::metrics::{ClusterMetricsReport, MetricsSnapshot};
use crate::session::Delivery;
use crate::wire::{DataPacket, DigestEntry, Envelope, Message};
use crate::OverlayError;
use bytes::Bytes;
use dg_core::scheme::{RoutingScheme, SchemeKind};
use dg_core::{build_scheme_cached, DisseminationGraph, Flow, ServiceRequirement, SlaClass};
use dg_topology::{EdgeId, Graph, Micros, NodeId};
use dg_trace::NetworkState;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// When every `Net`'s clock starts and its nodes are born.
pub const T0: Micros = Micros::from_secs(1_000);

/// The seed the stepped suites launch with: `DG_CHAOS_SEED`, else 42.
/// CI sweeps it; a failing run prints the one to replay.
pub fn env_seed() -> u64 {
    std::env::var("DG_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// One frame as it reached the wire: after the fault plan (a dropped
/// frame never appears, a duplicated one appears twice, a corrupted one
/// carries the flipped byte), at its departure instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// When it left `from`'s carrier — and, the wire being
    /// instantaneous, when it reached `to`.
    pub at: Micros,
    /// The sending site.
    pub from: NodeId,
    /// The site it was addressed to (which need not be running).
    pub to: NodeId,
    /// The datagram.
    pub bytes: Bytes,
}

impl WireFrame {
    /// The data packets the frame carries; empty for a control frame or
    /// one that no longer decodes.
    pub fn data(&self) -> Vec<DataPacket> {
        match Envelope::decode(&self.bytes).map(|e| e.message) {
            Ok(Message::Data(packet)) => vec![packet],
            Ok(Message::DataBatch(packets)) => packets,
            _ => Vec::new(),
        }
    }
}

/// An open sending session of some site of a [`Net`].
#[derive(Debug, Clone, Copy)]
pub struct SimSender {
    pub(crate) id: SessionId,
    flow: Flow,
}

impl SimSender {
    /// The flow the session sends on.
    pub fn flow(&self) -> Flow {
        self.flow
    }
}

struct Site {
    /// `None` while the site is down (crashed, or never started).
    core: Option<NodeCore>,
    faults: FaultPlan,
    carrier: Carrier,
    /// The core's next protocol deadline, as `poll_timers` returned it.
    deadline: Micros,
}

/// What the clock stops for next, in tie-break order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    Chaos,
    Departure(NodeId),
    Timer(NodeId),
}

/// The sites' events in time order. A module of its own, and so a
/// codegen unit of its own: folded into this module's, it moved how the
/// crate's release build is partitioned, and the forwarding path lost
/// ≈ 17 % of `fwd_sat_1200`'s packet rate (2-core host, two build
/// paths) without running a line of it.
mod agenda {
    use super::Due;
    use dg_topology::{Micros, NodeId};

    /// Every site's next departure and live timer, earliest first: a
    /// tournament tree whose leaves are two slots a site and whose every
    /// inner entry is the earlier of its two children, so the root is the
    /// next event of any site and a slot changes in O(log sites).
    pub(super) struct Agenda {
        /// `entries[1]` is the root, `entries[2 * i]` and `entries[2 * i + 1]`
        /// are entry `i`'s children, and the slots are `entries[slots..]`;
        /// `None` is an empty slot, or a subtree of them.
        entries: Vec<Option<(Micros, Due)>>,
        slots: usize,
    }

    impl Agenda {
        pub(super) fn new(sites: usize) -> Agenda {
            Agenda { entries: vec![None; 4 * sites], slots: 2 * sites }
        }

        /// Sets `node`'s departure slot (`kind` a `Due::Departure`) or timer
        /// slot (a `Due::Timer`) to `at`, or empties it.
        pub(super) fn set(&mut self, node: NodeId, kind: Due, at: Option<Micros>) {
            let timer = matches!(kind, Due::Timer(_));
            let mut i = self.slots + 2 * node.index() + usize::from(timer);
            let entry = at.map(|at| (at, kind));
            if self.entries[i] == entry {
                return;
            }
            self.entries[i] = entry;
            while i > 1 {
                i /= 2;
                self.entries[i] = match (self.entries[2 * i], self.entries[2 * i + 1]) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (one, None) | (None, one) => one,
                };
            }
        }

        /// The earliest event of any site.
        pub(super) fn first(&self) -> Option<(Micros, Due)> {
            self.entries.get(1).copied().flatten()
        }
    }
}
use agenda::Agenda;

/// The sink a carrier at `from` puts bytes on the wire through at `at`:
/// the frame is logged and, the wire being instantaneous, has arrived. A
/// frame addressed to no site (synthetic backlog) evaporates.
fn wire_from<'a>(
    wire: &'a mut Vec<WireFrame>,
    arrivals: &'a mut VecDeque<(NodeId, Bytes)>,
    sites: usize,
    at: Micros,
    from: NodeId,
) -> impl FnMut(NodeId, Bytes) -> bool + 'a {
    move |to, bytes| {
        if to.index() < sites {
            wire.push(WireFrame { at, from, to, bytes: bytes.clone() });
            arrivals.push_back((to, bytes));
        }
        true
    }
}

/// A whole overlay stepped on a virtual clock. See the module
/// documentation.
pub struct Net {
    emu: Emulation,
    now: Micros,
    sites: Vec<Site>,
    /// Frames on the wire at this instant, not yet handed over.
    arrivals: VecDeque<(NodeId, Bytes)>,
    wire: Vec<WireFrame>,
    delivered: Vec<(NodeId, Delivery)>,
    /// The schedule being replayed and the instant its clock started.
    chaos: Option<(ChaosRunner, Micros)>,
    /// Every site's next departure and live timer: [`Net::reindex`]
    /// keeps it after each change to a carrier, a deadline or a core.
    agenda: Agenda,
    actions: Actions,
}

impl std::fmt::Debug for Net {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Net({} sites, seed {}, at {})", self.sites.len(), self.seed(), self.now)
    }
}

impl Drop for Net {
    /// A run is its seed's: say which, when an assertion is unwinding
    /// through it.
    fn drop(&mut self) {
        if std::thread::panicking() {
            let (seed, at) = (self.seed(), self.now.saturating_sub(T0));
            eprintln!("simnet: failed at T0 + {at} with seed {seed}; DG_CHAOS_SEED={seed} replays");
        }
    }
}

impl Net {
    /// One real node per site of `graph`, all born at [`T0`], each with
    /// the configuration, fault seed and emulated link delays
    /// `Cluster::launch` would give it.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::InvalidConfig`] when `config` breaks one
    /// of [`crate::NodeConfig::validate`]'s rules.
    pub fn launch(graph: &Graph, config: ClusterConfig) -> Result<Net, OverlayError> {
        Net::launch_except(graph, config, &[])
    }

    /// As [`Net::launch`], with the sites in `down` not started: frames
    /// addressed to them are logged and go no further, which makes them
    /// taps (and [`Net::inject`] speaks for them).
    ///
    /// # Errors
    ///
    /// As [`Net::launch`].
    pub fn launch_except(
        graph: &Graph,
        config: ClusterConfig,
        down: &[NodeId],
    ) -> Result<Net, OverlayError> {
        let mut net = Net {
            emu: Emulation::new(graph, config),
            now: T0,
            sites: Vec::new(),
            arrivals: VecDeque::new(),
            wire: Vec::new(),
            delivered: Vec::new(),
            chaos: None,
            agenda: Agenda::new(graph.node_count()),
            actions: Actions::default(),
        };
        for node in graph.nodes() {
            let site = Site {
                core: None,
                faults: FaultPlan::new(),
                carrier: Carrier::default(),
                deadline: Micros::MAX,
            };
            net.sites.push(site);
            if !down.contains(&node) {
                net.start(node)?;
            }
        }
        Ok(net)
    }

    /// Starts `node` as a fresh incarnation born now: a new core (so a
    /// new link-state epoch) and a new fault plan on the node's seed
    /// with its emulated delays. Frames its previous life parked stay
    /// on their way.
    fn start(&mut self, node: NodeId) -> Result<(), OverlayError> {
        let nowhere = std::net::SocketAddr::from(([127, 0, 0, 1], 0));
        let config = self.emu.node_config(&vec![nowhere; self.emu.graph.node_count()], node);
        config.validate()?;
        let site = &mut self.sites[node.index()];
        site.faults = FaultPlan::with_seed(config.fault_seed);
        self.emu.apply_base_delays(&site.faults, node);
        site.core = Some(NodeCore::new(Arc::new(config), Arc::clone(&self.emu.graph), self.now));
        site.deadline = self.now;
        self.reindex(node);
        Ok(())
    }

    /// The seed the run was launched with (`ClusterConfig::fault_seed`).
    pub fn seed(&self) -> u64 {
        self.emu.config.fault_seed
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        &self.emu.graph
    }

    /// The virtual instant.
    pub fn now(&self) -> Micros {
        self.now
    }

    pub(crate) fn core(&self, node: NodeId) -> &NodeCore {
        self.sites[node.index()].core.as_ref().expect("the site is up")
    }

    pub(crate) fn core_mut(&mut self, node: NodeId) -> &mut NodeCore {
        self.sites[node.index()].core.as_mut().expect("the site is up")
    }

    /// Enters `node`'s core now and carries out what it asks for: its
    /// frames through the carrier onto the wire, its deliveries into the
    /// log. `None` when the site is down.
    pub(crate) fn enter<R>(
        &mut self,
        node: NodeId,
        call: impl FnOnce(&mut NodeCore, Micros, u64, &mut Actions) -> R,
    ) -> Option<R> {
        let Net { emu, sites, actions, arrivals, wire, delivered, now, .. } = self;
        let count = sites.len();
        let Site { core, faults, carrier, .. } = &mut sites[node.index()];
        let core = core.as_mut()?;
        let result = call(core, *now, carrier.backlog(), actions);
        let (stats, bound) = (&mut core.stats, emu.config.shipper_queue as u64);
        let sink = wire_from(wire, arrivals, count, *now, node);
        carrier.carry(*now, &mut actions.frames, faults, stats, bound, sink);
        delivered.extend(actions.deliveries.drain(..).map(|(_, delivery)| (node, delivery)));
        self.reindex(node);
        Some(result)
    }

    /// Brings `node`'s slots in the agenda up to date with its
    /// carrier's head and, while its core is up, its deadline.
    fn reindex(&mut self, node: NodeId) {
        let site = &self.sites[node.index()];
        let timer = site.core.as_ref().map(|_| site.deadline);
        self.agenda.set(node, Due::Departure(node), site.carrier.head());
        self.agenda.set(node, Due::Timer(node), timer);
    }

    /// Hands every frame on the wire at this instant to its site.
    fn settle(&mut self) {
        while let Some((to, frame)) = self.arrivals.pop_front() {
            self.enter(to, |core, now, backlog, out| {
                core.handle_datagram(now, &frame, backlog, out);
            });
        }
    }

    /// What the clock stops for next, and when.
    fn next_due(&self) -> Option<(Micros, Due)> {
        let chaos = self.chaos.as_ref().and_then(|(runner, since)| {
            Some((since.saturating_add(Micros::from_millis(runner.next_due_ms()?)), Due::Chaos))
        });
        chaos.into_iter().chain(self.agenda.first()).min()
    }

    /// Advances the clock to `until`, handing every arrival, departure,
    /// protocol deadline and chaos event on the way to its site at its
    /// instant.
    pub fn run_until(&mut self, until: Micros) {
        loop {
            self.settle();
            let Some((at, due)) = self.next_due().filter(|&(at, _)| at <= until) else { break };
            self.now = self.now.max(at);
            match due {
                Due::Chaos => {
                    let (mut runner, since) = self.chaos.take().expect("its event is due");
                    let elapsed = Duration::from_micros(self.now.saturating_sub(since).as_micros());
                    runner.poll(self, elapsed).expect("a stepped restart cannot fail");
                    self.chaos = runner.next_due_ms().map(|_| (runner, since));
                }
                Due::Departure(node) => {
                    let Net { sites, arrivals, wire, now, .. } = self;
                    let sink = wire_from(wire, arrivals, sites.len(), *now, node);
                    sites[node.index()].carrier.service(*now, sink);
                    self.reindex(node);
                }
                Due::Timer(node) => {
                    let deadline = self.enter(node, NodeCore::poll_timers);
                    self.sites[node.index()].deadline = deadline.expect("a timer is a live site's");
                    self.reindex(node);
                }
            }
        }
        self.now = self.now.max(until);
    }

    /// [`Net::run_until`] `span` from now.
    pub fn run_for(&mut self, span: Micros) {
        self.run_until(self.now.saturating_add(span));
    }

    /// Advances the clock a millisecond at a time until `done` says so,
    /// for at most `limit`; returns how long it took, or `None` when
    /// the limit passed first.
    pub fn wait_until(
        &mut self,
        limit: Micros,
        mut done: impl FnMut(&mut Net) -> bool,
    ) -> Option<Micros> {
        let since = self.now;
        while !done(self) {
            if self.now.saturating_sub(since) >= limit {
                return None;
            }
            self.run_for(Micros::from_millis(1));
        }
        Some(self.now.saturating_sub(since))
    }

    /// Replays `schedule` from now: each event fires when the clock
    /// reaches its `at_ms`. (A thread panic needs a thread; here it is
    /// a no-op.)
    ///
    /// # Errors
    ///
    /// As [`ChaosSchedule::validate`].
    pub fn play(&mut self, schedule: &ChaosSchedule) -> Result<(), OverlayError> {
        self.chaos = Some((ChaosRunner::new(schedule, &self.emu.graph)?, self.now));
        Ok(())
    }

    /// True once every event of the schedule being played has fired.
    pub fn chaos_finished(&self) -> bool {
        self.chaos.is_none()
    }

    // Sessions.

    /// Opens `flow`'s receiving session at its destination.
    pub fn open_receiver(&mut self, flow: Flow) {
        self.core_mut(flow.destination).receivers.insert(flow);
    }

    /// Opens a sender at the flow's source on a scheme of `kind` from
    /// the shared cache, in the default class.
    ///
    /// # Errors
    ///
    /// Propagates scheme-construction and admission errors.
    pub fn open_sender(
        &mut self,
        flow: Flow,
        kind: SchemeKind,
        requirement: ServiceRequirement,
    ) -> Result<SimSender, OverlayError> {
        self.open_sender_with_class(flow, kind, requirement, SlaClass::default())
    }

    /// As [`Net::open_sender`], in an explicit SLA class.
    ///
    /// # Errors
    ///
    /// Propagates scheme-construction and admission errors.
    pub fn open_sender_with_class(
        &mut self,
        flow: Flow,
        kind: SchemeKind,
        requirement: ServiceRequirement,
        class: SlaClass,
    ) -> Result<SimSender, OverlayError> {
        let scheme = build_scheme_cached(kind, &self.emu.scheme_cache, flow, requirement)?;
        self.open_sender_on(scheme, requirement, class)
    }

    /// Opens a sender on the class's own scheme preference and deadline
    /// (see `Cluster::open_sla_sender`).
    ///
    /// # Errors
    ///
    /// Propagates scheme-construction and admission errors.
    pub fn open_sla_sender(
        &mut self,
        flow: Flow,
        class: SlaClass,
    ) -> Result<SimSender, OverlayError> {
        self.open_sender_with_class(flow, class.preferred_scheme(), class.requirement(), class)
    }

    /// Opens a sender at the scheme's source on the caller's `scheme`.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::AdmissionDenied`] at sender capacity.
    pub fn open_sender_on(
        &mut self,
        scheme: Box<dyn RoutingScheme>,
        requirement: ServiceRequirement,
        class: SlaClass,
    ) -> Result<SimSender, OverlayError> {
        let flow = scheme.flow();
        let now = self.now;
        let core = self.core_mut(flow.source);
        let id = core.open_session(now, scheme, flow, class, requirement.deadline)?;
        Ok(SimSender { id, flow })
    }

    /// Sends one packet now; returns its flow sequence.
    pub fn send(&mut self, sender: SimSender, payload: &[u8]) -> u64 {
        self.send_batch(sender, &[payload])
    }

    /// Sends a run of packets now as one batch; returns the first flow
    /// sequence.
    pub fn send_batch(&mut self, sender: SimSender, payloads: &[&[u8]]) -> u64 {
        self.enter(sender.flow.source, |core, now, backlog, out| {
            core.send(now, sender.id, payloads, backlog, out)
        })
        .expect("the sender's site is up")
    }

    /// Offers the session's last packet again (see
    /// `FlowSender::tail_probe`); `false` when nothing was sent yet.
    pub fn tail_probe(&mut self, sender: SimSender, payload: &[u8]) -> bool {
        self.enter(sender.flow.source, |core, now, backlog, out| {
            core.tail_probe(now, sender.id, payload, backlog, out)
        })
        .expect("the sender's site is up")
    }

    /// The dissemination graph the session currently stamps.
    pub fn current_graph(&self, sender: SimSender) -> DisseminationGraph {
        self.core(sender.flow.source).slot(sender.id).graph().clone()
    }

    /// Whether overload has replaced the session's graph with a cheaper
    /// one.
    pub fn is_downgraded(&self, sender: SimSender) -> bool {
        self.core(sender.flow.source).slot(sender.id).is_downgraded()
    }

    /// Every delivery so far, oldest first, with the site it was made at.
    pub fn deliveries(&self) -> &[(NodeId, Delivery)] {
        &self.delivered
    }

    /// Takes `flow`'s deliveries out of the log (a receive queue
    /// drained).
    pub fn take_deliveries(&mut self, flow: Flow) -> Vec<Delivery> {
        let (taken, kept): (Vec<_>, Vec<_>) =
            self.delivered.drain(..).partition(|(_, d)| d.flow == flow);
        self.delivered = kept;
        taken.into_iter().map(|(_, delivery)| delivery).collect()
    }

    // The wire.

    /// Every frame that reached the wire so far, in order.
    pub fn wire(&self) -> &[WireFrame] {
        &self.wire
    }

    /// Puts a hand-built frame on the wire to `to` as if `from` had sent
    /// it (for a site that is down: a tap).
    pub fn inject(&mut self, from: NodeId, to: NodeId, message: Message) {
        self.inject_bytes(to, Envelope { from, message }.encode());
    }

    /// Puts `datagram` on the wire to `to`, whatever it holds (a frame
    /// of another protocol version, a captured one, noise).
    pub fn inject_bytes(&mut self, to: NodeId, datagram: Bytes) {
        self.arrivals.push_back((to, datagram));
        self.settle();
    }

    // Faults: `Cluster`'s vocabulary.

    /// Injects loss and extra delay on a directed edge.
    pub fn set_link_fault(&mut self, edge: EdgeId, loss: f64, extra_delay: Micros) {
        self.set_edge(edge, Some(LinkFault::lossy(loss, extra_delay)));
    }

    /// Injects an arbitrary impairment on a directed edge, its delay on
    /// top of the emulated propagation delay.
    pub fn set_link_impairment(&mut self, edge: EdgeId, fault: LinkFault) {
        self.set_edge(edge, Some(fault));
    }

    /// Restores a directed edge to its emulated baseline.
    pub fn clear_link_fault(&mut self, edge: EdgeId) {
        self.set_edge(edge, None);
    }

    /// Impairs every link incident to `node`, both directions.
    pub fn impair_node(&mut self, node: NodeId, loss: f64, extra_delay: Micros) {
        for edge in incident_edges(&self.emu.graph, node) {
            self.set_link_fault(edge, loss, extra_delay);
        }
    }

    /// Clears the impairments on every link incident to `node`.
    pub fn heal_node(&mut self, node: NodeId) {
        for edge in incident_edges(&self.emu.graph, node) {
            self.clear_link_fault(edge);
        }
    }

    /// Stops `node`: its core and fault plan are gone, frames addressed
    /// to it die on arrival. (What it had parked was in flight, and
    /// still arrives.)
    ///
    /// # Panics
    ///
    /// Panics if the site is already down.
    pub fn kill_node(&mut self, node: NodeId) {
        self.sites[node.index()].core.take().expect("the site is up");
        self.reindex(node);
    }

    /// Restarts a stopped `node` as a fresh incarnation born now: a new
    /// link-state epoch, the same fault seed.
    ///
    /// # Panics
    ///
    /// Panics if the site is up.
    pub fn restart_node(&mut self, node: NodeId) {
        assert!(!self.is_alive(node), "restarting a live node");
        self.start(node).expect("the configuration launched once already");
    }

    /// True while `node` is running.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.sites[node.index()].core.is_some()
    }

    /// Parks `shipments` synthetic data shipments in `node`'s outbound
    /// queue for `dwell` (see `OverlayHandle::inject_overload`).
    pub fn inject_overload(&mut self, node: NodeId, shipments: usize, dwell: Micros) {
        let depart_at = self.now.saturating_add(dwell);
        self.sites[node.index()].carrier.inject_overload(shipments, depart_at);
        self.reindex(node);
    }

    // Observation.

    /// `node` at this instant.
    pub fn snapshot(&self, node: NodeId) -> MetricsSnapshot {
        self.core(node).snapshot()
    }

    /// Every live node's snapshot, aggregated as `Cluster::metrics_report`
    /// does.
    pub fn metrics_report(&self) -> ClusterMetricsReport {
        let live = self.sites.iter().filter_map(|site| site.core.as_ref());
        ClusterMetricsReport::aggregate(live.map(NodeCore::snapshot).collect())
    }

    /// `node`'s current view of network-wide link conditions.
    pub fn network_state(&self, node: NodeId) -> NetworkState {
        self.core(node).linkstate.network_state(self.now)
    }

    /// `node`'s per-origin link-state digest; empty while it is down.
    pub fn link_state_digest(&self, node: NodeId) -> Vec<DigestEntry> {
        self.sites[node.index()].core.as_ref().map_or_else(Vec::new, |c| c.linkstate.digest())
    }

    /// Whether every live node has heard link state from every origin.
    pub fn link_state_converged(&self) -> bool {
        let origins = self.sites.len();
        let mut live = self.sites.iter().filter_map(|site| site.core.as_ref());
        live.all(|core| core.linkstate.origins_heard() == origins)
    }

    /// `node`'s overload degradation level.
    pub fn overload_level(&self, node: NodeId) -> u8 {
        self.core(node).overload.level()
    }

    /// Data shipments `node` has parked toward the wire.
    pub fn outbound_queue_depth(&self, node: NodeId) -> u64 {
        self.sites[node.index()].carrier.backlog()
    }

    /// Flows `node` holds a duplicate-suppression window for.
    pub fn dedup_flows(&self, node: NodeId) -> usize {
        self.core(node).dedup.len()
    }

    /// Counters of the shared scheme-construction cache.
    pub fn scheme_cache_stats(&self) -> dg_core::GraphCacheStats {
        self.emu.scheme_cache.stats()
    }
}

impl ChaosTarget for Net {
    fn graph(&self) -> &Graph {
        &self.emu.graph
    }

    fn set_edge(&mut self, edge: EdgeId, fault: Option<LinkFault>) {
        let site = &self.sites[self.emu.graph.edge(edge).src.index()];
        if site.core.is_some() {
            self.emu.set_edge(&site.faults, edge, fault);
        }
    }

    fn set_running(&mut self, node: NodeId, up: bool) -> Result<(), OverlayError> {
        match (self.is_alive(node), up) {
            (true, false) => self.kill_node(node),
            (false, true) => self.start(node)?,
            _ => {}
        }
        Ok(())
    }

    fn overload(&mut self, node: NodeId, shipments: usize, dwell: Duration) {
        if self.is_alive(node) {
            self.inject_overload(node, shipments, Micros::from_micros(dwell.as_micros() as u64));
        }
    }
}
