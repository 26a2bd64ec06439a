//! The node as one owned state machine.
//!
//! [`NodeCore`] holds every piece of a node's protocol state as plain
//! fields and is entered with `&mut self`: it reads no clock, socket or
//! thread, takes no lock and knows nothing of fault injection. Time
//! passes through three entry points, each told the instant and writing
//! what should happen into the caller's [`Actions`]:
//!
//! - [`NodeCore::handle_datagram`] — one datagram off the wire;
//! - [`NodeCore::poll_timers`] — whichever periodic duties are due,
//!   returning the next protocol deadline;
//! - [`NodeCore::send`] — a local session's packets.
//!
//! Whoever carries the `Actions` to the wire (the driver in
//! [`crate::runtime`], or a test moving them between cores by hand)
//! also supplies `backlog`, the one other thing the core cannot know:
//! how many data frames it emitted are still waiting for the wire.
//!
//! Split by concern: `forward` (send, receive checks, dissemination,
//! NACK service and re-requests), `control` (hellos, detector and
//! damper, link-state flood / ack / retransmit / digest), `sessions`
//! (slots, scheme refresh, overload downgrade).

mod control;
mod forward;
mod sessions;
#[cfg(test)]
mod tests;

pub(crate) use sessions::{Route, SessionId, SessionSlot};

use crate::config::NodeConfig;
use crate::dedup::DedupWindows;
use crate::linkstate::LinkStateDb;
use crate::metrics::{LinkMetrics, MetricsSnapshot, NodeStats, JOURNAL_CAPACITY};
use crate::monitor::{
    FlapDamper, LinkMonitor, FLAP_PENALTY_HALF_LIFE, FLAP_SUPPRESS_THRESHOLD, WINDOW_TICKS,
};
use crate::overload::{OverloadConfig, OverloadDetector};
use crate::pool::BufferPool;
use crate::recovery::GapTracker;
use crate::session::Delivery;
use crate::wire::{self, Envelope, Message, Record};
use bytes::Bytes;
use dg_core::scheme::SchemeParams;
use dg_core::{Flow, GraphCache, SlaClass};
use dg_topology::{EdgeId, Graph, Micros, NodeId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// What one core call wants done, in order: frames for the wire, then
/// packets for local receivers. Reused across calls; whoever executes
/// it drains both lists.
#[derive(Debug, Default)]
pub(crate) struct Actions {
    /// `(neighbour, datagram, class)`: `Some` class for data frames (the
    /// SLA class they carry), `None` for control frames — hellos, link
    /// state, acks, digests, NACKs — which are never shed.
    pub(crate) frames: Vec<(NodeId, Bytes, Option<SlaClass>)>,
    /// Packets for this node's open receivers, with the class a full
    /// delivery queue sheds them against.
    pub(crate) deliveries: Vec<(SlaClass, Delivery)>,
}

/// One core call's surroundings: the instant it happens at, the
/// carrier's backlog, and where its output goes.
struct Cx<'a> {
    now: Micros,
    backlog: u64,
    out: &'a mut Actions,
}

impl Cx<'_> {
    fn frame(&mut self, to: NodeId, datagram: Bytes, class: Option<SlaClass>) {
        self.out.frames.push((to, datagram, class));
    }

    /// Queues a control message for `to`.
    fn control(&mut self, from: NodeId, to: NodeId, message: Message) {
        self.frame(to, Envelope { from, message }.encode(), None);
    }
}

/// A node's whole protocol state. See the module documentation. (The
/// `pub(crate)` fields are the ones the handle's queries and the driver
/// read directly.)
pub(crate) struct NodeCore {
    config: Arc<NodeConfig>,
    graph: Arc<Graph>,
    /// This node's out-edges and the neighbour each reaches.
    out_links: Vec<(EdgeId, NodeId)>,
    /// This node's in-edges, the neighbour each comes from, and its
    /// baseline latency.
    in_links: Vec<(EdgeId, NodeId, Micros)>,
    /// Counters, per-flow and per-link counts and the journal. The
    /// driver counts what only the carrier sees (wire sends, fault
    /// verdicts, parked and delivery sheds) into the same block.
    pub(crate) stats: NodeStats,
    scheme_params: SchemeParams,
    /// Precomputed dissemination graphs for this node's flows, fed by
    /// link-state reports: entries are invalidated only when a report
    /// flips a link they depend on across the usability threshold.
    pub(crate) graph_cache: GraphCache,

    // Forwarding (`forward.rs`). The per-neighbour tables are ordered
    // maps so that a pass over them emits in one order every run.
    send_links: BTreeMap<NodeId, forward::SendLink>,
    recv_links: BTreeMap<NodeId, GapTracker>,
    pub(crate) dedup: DedupWindows,
    /// Flows with an open receiving session here: their packets are
    /// delivered (and, for a group flow, counted as delivered) here.
    pub(crate) receivers: HashSet<Flow>,
    /// The node's data-frame buffers: a received data datagram is
    /// copied into one, a frame sent is framed in one (and held by its
    /// link's retransmit buffer until no packet in it can make its
    /// deadline, or its sequences leave the window), and both come back
    /// here.
    pub(crate) frame_pool: BufferPool,
    /// The records of the frame being handled or sent.
    record_scratch: Vec<Record>,
    chunk_scratch: Vec<forward::Chunk>,
    verdict_scratch: Vec<Option<bool>>,

    // Control plane (`control.rs`).
    monitor: LinkMonitor,
    /// Route-flap damper for this node's own advertisements.
    damper: FlapDamper,
    /// What each in-edge currently advertises (held across damped
    /// suppressions).
    advertised: HashMap<NodeId, control::AdvertisedLink>,
    pub(crate) linkstate: LinkStateDb,
    /// Link-state updates awaiting per-neighbour acknowledgement,
    /// keyed by neighbour then origin (only the newest stamp per
    /// origin is worth retransmitting).
    pending_lsa: BTreeMap<NodeId, BTreeMap<NodeId, control::PendingLsa>>,
    hello_seq: u64,
    ls_seq: u64,
    /// This node's link-state incarnation, minted from the clock at
    /// spawn so a restarted node outranks its previous life.
    ls_epoch: u64,
    /// While set, the node originates no link-state report, neither at
    /// the refresh nor on first contact (hellos, digests, acks, and
    /// retransmits keep running). Out-of-process
    /// collectors quiesce origination briefly before snapshotting so
    /// every daemon's final digest refers to the same frozen stamps
    /// instead of racing the 200 ms refresh cadence.
    pub(crate) originations_paused: bool,
    next_hello: Micros,
    next_ls: Micros,
    next_digest: Micros,

    // Sessions (`sessions.rs`).
    /// Every sending session originated here, unicast and group alike,
    /// keyed by [`SessionId`]: refreshed on every scheme-update tick
    /// and counted against `sender_capacity`.
    sessions: Vec<Option<SessionSlot>>,
    /// Damped overload state machine driving per-class redundancy
    /// downgrades.
    pub(crate) overload: OverloadDetector,
}

fn micros(d: Duration) -> Micros {
    Micros::from_micros(d.as_micros() as u64)
}

impl NodeCore {
    /// A node born at `now`. Hello duties fire immediately (a fresh node
    /// introduces itself right away); its first link-state report leaves
    /// once every in-link has delivered a hello, or at the first
    /// refresh, a full interval on, if one is still silent then; digests
    /// wait one full interval.
    pub(crate) fn new(config: Arc<NodeConfig>, graph: Arc<Graph>, now: Micros) -> Self {
        let me = config.node;
        // The one problem threshold: the detector, the link-state
        // database and the graph cache all read the schemes' default.
        let scheme_params = SchemeParams::default();
        NodeCore {
            out_links: graph.out_edges(me).iter().map(|&e| (e, graph.edge(e).dst)).collect(),
            in_links: graph
                .in_edges(me)
                .iter()
                .map(|&e| (e, graph.edge(e).src, graph.edge(e).latency))
                .collect(),
            stats: NodeStats::new(JOURNAL_CAPACITY),
            scheme_params,
            graph_cache: GraphCache::new(Arc::clone(&graph), scheme_params),
            send_links: BTreeMap::new(),
            recv_links: BTreeMap::new(),
            dedup: DedupWindows::default(),
            receivers: HashSet::new(),
            frame_pool: BufferPool::default(),
            record_scratch: Vec::new(),
            chunk_scratch: Vec::new(),
            verdict_scratch: Vec::new(),
            monitor: LinkMonitor::new(WINDOW_TICKS, micros(config.hello_interval)),
            damper: FlapDamper::new(
                micros(config.flap_hold_down),
                FLAP_PENALTY_HALF_LIFE,
                FLAP_SUPPRESS_THRESHOLD,
            ),
            advertised: HashMap::new(),
            linkstate: LinkStateDb::new(&graph, micros(config.link_state_max_age)),
            pending_lsa: BTreeMap::new(),
            hello_seq: 0,
            ls_seq: 0,
            ls_epoch: now.as_micros(),
            originations_paused: false,
            next_hello: now,
            next_ls: now.saturating_add(micros(config.link_state_interval)),
            next_digest: now.saturating_add(micros(config.digest_interval)),
            sessions: Vec::new(),
            overload: OverloadDetector::new(OverloadConfig {
                queue_bound: config.shipper_queue as u64,
                hold_down: config.overload_hold_down,
            }),
            graph,
            config,
        }
    }

    fn me(&self) -> NodeId {
        self.config.node
    }

    /// Handles one datagram that arrived at `now`.
    pub(crate) fn handle_datagram(
        &mut self,
        now: Micros,
        datagram: &[u8],
        backlog: u64,
        out: &mut Actions,
    ) {
        let cx = &mut Cx { now, backlog, out };
        self.stats.counters.datagrams_received += 1;
        self.stats.counters.bytes_received += datagram.len() as u64;
        // A checksum proves a frame intact, not who sent it, and
        // everything below keeps state per sender: only an id this node
        // holds a peer address for gets any (or costs a decode).
        let stranger = |from| !self.config.peers.contains_key(&from);
        if wire::claimed_sender(datagram).is_some_and(stranger) {
            self.stats.counters.malformed += 1;
            return;
        }
        // A data frame is copied once out of the receive scratch buffer
        // into a pooled buffer and read where it lies: its records are
        // located in it, not copied out, a delivery's payload is a slice
        // of it, and its body leaves again from it. Once handled it goes
        // back to the pool — unless a delivery still holds a slice.
        // Control frames decode straight off the scratch buffer.
        if wire::is_data_frame(datagram) {
            let mut buf = self.frame_pool.get();
            buf.extend_from_slice(datagram);
            let frame = Bytes::from(buf);
            let mut records = std::mem::take(&mut self.record_scratch);
            match wire::decode_data_frame(&frame, &mut records) {
                Ok(data) => self.handle_data(cx, &data, &records),
                Err(_) => self.stats.counters.malformed += 1,
            }
            records.clear();
            self.record_scratch = records;
            self.frame_pool.recycle(frame);
            return;
        }
        let Ok(Envelope { from, message }) = Envelope::decode(datagram) else {
            self.stats.counters.malformed += 1;
            return;
        };
        match message {
            Message::Hello { seq, sent_at } => self.handle_hello(cx, from, seq, sent_at),
            Message::HelloAck { echo_sent_at, .. } => {
                self.stats.counters.hello_acks_received += 1;
                self.monitor.record_rtt(from, now.saturating_sub(echo_sent_at));
            }
            Message::LinkState(update) => self.handle_link_state(cx, from, &update),
            Message::LsaAck { origin, epoch, seq } => self.handle_lsa_ack(from, origin, epoch, seq),
            Message::Digest { entries } => self.handle_digest(cx, from, &entries),
            Message::Nack { missing } => self.handle_nack(cx, from, missing),
            Message::Data(_) | Message::DataBatch(_) => unreachable!("a data frame, handled above"),
        }
    }

    /// Fires whichever periodic duties are due at `now`: hello probes
    /// plus the per-tick housekeeping (overload observation, LSA
    /// retransmits, loss evidence and NACK re-requests, expired frames
    /// in the retransmit buffers, idle duplicate windows, the problem
    /// detector) on the hello cadence, link-state origination and
    /// scheme refresh on the link-state cadence, anti-entropy digests
    /// on theirs. A flag the detector moves does not wait for the
    /// link-state cadence: it is originated on the tick it happens (a
    /// trigger between ticks, on the frame whose gap set it off, see
    /// [`NodeCore::handle_datagram`]). Returns the next instant a duty
    /// falls due.
    pub(crate) fn poll_timers(&mut self, now: Micros, backlog: u64, out: &mut Actions) -> Micros {
        let cx = &mut Cx { now, backlog, out };
        let hello_due = now >= self.next_hello;
        let ls_due = now >= self.next_ls;
        if hello_due {
            self.next_hello = now.saturating_add(micros(self.config.hello_interval));
            self.send_hellos(cx);
            self.observe_overload(cx);
            self.retransmit_pending_lsas(cx);
            self.service_recv_links(cx);
            self.service_send_links(now);
            self.dedup.reclaim_idle(now, crate::dedup::DEDUP_IDLE);
        }
        if hello_due || ls_due {
            let transitioned = self.evaluate_links(now);
            if transitioned || ls_due {
                self.originate_link_state(cx);
            }
        }
        if ls_due {
            self.next_ls = now.saturating_add(micros(self.config.link_state_interval));
            self.update_schemes(now);
        }
        if now >= self.next_digest {
            self.next_digest = now.saturating_add(micros(self.config.digest_interval));
            self.send_digests(cx);
        }
        self.next_hello.min(self.next_ls).min(self.next_digest)
    }

    /// The node at this instant: its statistics, what each out-link's
    /// retransmit buffer holds, its link-state digest and its graph
    /// cache's counters.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.stats.snapshot(self.me());
        for (&neighbor, link) in &self.send_links {
            if link.buffer.is_empty() {
                continue;
            }
            let at = match snap.links.binary_search_by_key(&neighbor, |l| l.neighbor) {
                Ok(at) => at,
                Err(at) => {
                    snap.links.insert(at, LinkMetrics::new(neighbor));
                    at
                }
            };
            for frame in link.buffer.items() {
                snap.links[at].held_frames += 1;
                snap.links[at].held_bytes += frame.len() as u64;
            }
        }
        snap.link_state = self.linkstate.digest();
        snap.graph_cache = self.graph_cache.stats();
        snap
    }

    /// Sends `payloads` on `session` as one run of consecutive flow
    /// sequences sharing one timestamp and mask; returns the first
    /// sequence.
    pub(crate) fn send(
        &mut self,
        now: Micros,
        session: SessionId,
        payloads: &[&[u8]],
        backlog: u64,
        out: &mut Actions,
    ) -> u64 {
        let slot = self.slot_mut(session);
        let (flow, first) = (slot.flow, slot.next_seq);
        slot.next_seq += payloads.len() as u64;
        self.stats.flow(flow).packets_sent += payloads.len() as u64;
        self.inject(&mut Cx { now, backlog, out }, session, first, payloads);
        first
    }

    /// Offers `session`'s most recently sent packet again under its
    /// original sequence (see [`crate::session::FlowSender::tail_probe`]);
    /// `false` when nothing was sent yet.
    pub(crate) fn tail_probe(
        &mut self,
        now: Micros,
        session: SessionId,
        payload: &[u8],
        backlog: u64,
        out: &mut Actions,
    ) -> bool {
        let Some(last) = self.slot_mut(session).next_seq.checked_sub(1) else {
            return false;
        };
        self.inject(&mut Cx { now, backlog, out }, session, last, &[payload]);
        true
    }
}
