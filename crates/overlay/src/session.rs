//! Application-facing sending and receiving sessions.

use crate::core::{Route, SessionId, SessionSlot};
use crate::runtime::Driver;
use crate::wire::MAX_PAYLOAD;
use crate::OverlayError;
use bytes::Bytes;
use crossbeam::channel::Receiver;
use dg_core::{DisseminationGraph, Flow, MulticastGraph, SlaClass};
use dg_topology::{Micros, NodeId};
use std::sync::Arc;
use std::time::Duration;

/// A packet handed to a receiving application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The flow it belongs to.
    pub flow: Flow,
    /// End-to-end sequence number.
    pub flow_seq: u64,
    /// Application bytes.
    pub payload: Bytes,
    /// When the source sent it.
    pub sent_at: Micros,
    /// When this node delivered it.
    pub delivered_at: Micros,
    /// Whether it arrived within the flow's deadline.
    pub on_time: bool,
}

impl Delivery {
    /// One-way latency experienced by this packet.
    pub fn latency(&self) -> Micros {
        self.delivered_at.saturating_sub(self.sent_at)
    }
}

/// Summary of a batch of deliveries (e.g. one drained receive queue).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Packets delivered.
    pub delivered: u64,
    /// Packets delivered within their deadline.
    pub on_time: u64,
    /// Worst one-way latency observed.
    pub max_latency: Micros,
    /// Sum of latencies (for the mean).
    total_latency: Micros,
}

impl DeliveryStats {
    /// Summarizes a batch of deliveries.
    pub fn from_deliveries<'a, I: IntoIterator<Item = &'a Delivery>>(batch: I) -> Self {
        let mut stats = DeliveryStats::default();
        for d in batch {
            stats.delivered += 1;
            if d.on_time {
                stats.on_time += 1;
            }
            let l = d.latency();
            stats.max_latency = stats.max_latency.max(l);
            stats.total_latency = stats.total_latency.saturating_add(l);
        }
        stats
    }

    /// Fraction of delivered packets that met their deadline, or
    /// `None` for an empty batch. A batch with no deliveries carries
    /// no timeliness evidence — a total blackhole must not read as a
    /// perfect on-time rate.
    pub fn on_time_fraction(&self) -> Option<f64> {
        if self.delivered == 0 {
            None
        } else {
            Some(self.on_time as f64 / self.delivered as f64)
        }
    }

    /// Mean one-way latency, or zero for an empty batch.
    pub fn mean_latency(&self) -> Micros {
        match self.total_latency.as_micros().checked_div(self.delivered) {
            Some(mean) => Micros::from_micros(mean),
            None => Micros::ZERO,
        }
    }
}

/// What [`FlowSender`] and [`FlowGroup`] are both made of: the node and
/// the id of the slot there that stamps this flow's packets. Dropping
/// it closes the slot, which gives the node its admission slot back.
#[derive(Debug)]
pub(crate) struct Session {
    driver: Arc<Driver>,
    id: SessionId,
    flow: Flow,
    class: SlaClass,
}

impl Drop for Session {
    fn drop(&mut self) {
        self.driver.with_core(|core| core.close_session(self.id));
    }
}

impl Session {
    /// Wraps session `id`, just opened at `driver`'s node for `flow`.
    pub(crate) fn new(driver: Arc<Driver>, id: SessionId, flow: Flow, class: SlaClass) -> Self {
        Session { driver, id, flow, class }
    }

    /// Reads the session's slot under the node's lock.
    fn with_slot<R>(&self, read: impl FnOnce(&SessionSlot) -> R) -> R {
        self.driver.with_core(|core| read(core.slot(self.id)))
    }

    fn check(payloads: &[&[u8]]) -> Result<(), OverlayError> {
        match payloads.iter().find(|p| p.len() > MAX_PAYLOAD) {
            Some(p) => Err(OverlayError::PayloadTooLarge { got: p.len(), max: MAX_PAYLOAD }),
            None => Ok(()),
        }
    }

    fn send_batch(&self, payloads: &[&[u8]]) -> Result<u64, OverlayError> {
        Self::check(payloads)?;
        self.driver.event(|core, now, backlog, out| core.send(now, self.id, payloads, backlog, out))
    }

    fn tail_probe(&self, payload: &[u8]) -> Result<bool, OverlayError> {
        Self::check(&[payload])?;
        self.driver
            .event(|core, now, backlog, out| core.tail_probe(now, self.id, payload, backlog, out))
    }
}

/// A sending session: stamps packets with the flow's current
/// dissemination graph and injects them at the source node.
#[derive(Debug)]
pub struct FlowSender(pub(crate) Session);

impl FlowSender {
    /// The flow this session sends on.
    pub fn flow(&self) -> Flow {
        self.0.flow
    }

    /// The SLA class stamped onto this session's packets.
    pub fn class(&self) -> SlaClass {
        self.0.class
    }

    /// True while the node has replaced this flow's dissemination graph
    /// with a cheaper one under overload (see `docs/RESILIENCE.md`).
    pub fn is_downgraded(&self) -> bool {
        self.0.with_slot(SessionSlot::is_downgraded)
    }

    /// Sends one application packet; returns its flow sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::PayloadTooLarge`] for payloads over
    /// [`MAX_PAYLOAD`] bytes, and [`OverlayError::Shutdown`] once the
    /// node has stopped; nothing is sent in either case.
    pub fn send(&self, payload: &[u8]) -> Result<u64, OverlayError> {
        self.0.send_batch(&[payload])
    }

    /// Re-disseminates the most recently sent packet under its original
    /// flow sequence number — a tail-loss probe, in the spirit of TCP
    /// TLP. Hop-by-hop recovery is gap-triggered: a packet lost on a
    /// link is only NACKed when a *later* packet on that link exposes
    /// the gap, so the last packets of a paused or finished stream can
    /// be lost silently. The probe travels the flow's current
    /// dissemination graph with fresh per-link sequences, which (a)
    /// exposes any tail gaps for normal NACK recovery and (b) delivers
    /// the packet itself if the original copies died — while flow-level
    /// duplicate suppression keeps an already-delivered tail from being
    /// delivered twice. The probe mints no new flow sequence and does
    /// not count in `packets_sent`; it is the same logical packet,
    /// offered again.
    ///
    /// Returns `false` without sending when the session has not sent
    /// anything yet.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::PayloadTooLarge`] for payloads over
    /// [`MAX_PAYLOAD`] bytes (the payload must be the one passed to the
    /// matching [`FlowSender::send`] for the probe to be a faithful
    /// re-offer), and [`OverlayError::Shutdown`] once the node has
    /// stopped.
    pub fn tail_probe(&self, payload: &[u8]) -> Result<bool, OverlayError> {
        self.0.tail_probe(payload)
    }

    /// Sends a run of application packets as one batch: they receive
    /// consecutive flow sequence numbers, share one timestamp and
    /// dissemination mask, and are coalesced into as few wire datagrams
    /// per link as the node's batch budget allows. Returns the first
    /// sequence number of the run.
    ///
    /// This is the high-throughput path: one syscall, checksum, and
    /// fault verdict covers many packets instead of one each.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::PayloadTooLarge`] if any payload exceeds
    /// [`MAX_PAYLOAD`], and [`OverlayError::Shutdown`] once the node
    /// has stopped; nothing is sent in either case.
    pub fn send_batch(&self, payloads: &[&[u8]]) -> Result<u64, OverlayError> {
        self.0.send_batch(payloads)
    }

    /// The dissemination graph currently stamped onto packets.
    pub fn current_graph(&self) -> DisseminationGraph {
        self.0.with_slot(|slot| slot.graph().clone())
    }
}

/// A multicast sending session: one encode + dissemination per packet
/// covers every receiver of the group, instead of N unicast sends.
///
/// The group's dissemination graph is a single-source tree (or, for
/// [`MulticastKind::Targeted`]/[`MulticastKind::Robust`], a DAG with
/// redundancy branches grafted at receivers) interned in the node's
/// graph cache, so thousands of groups over the same topology share
/// one precomputed graph per distinct `(source, receiver set, kind,
/// deadline)`. See `docs/MULTICAST.md`.
#[derive(Debug)]
pub struct FlowGroup(pub(crate) Session);

impl FlowGroup {
    /// The group flow this session sends on (a tagged group id in the
    /// destination field; see [`Flow::group`]).
    pub fn flow(&self) -> Flow {
        self.0.flow
    }

    /// The SLA class stamped onto this session's packets.
    pub fn class(&self) -> SlaClass {
        self.0.class
    }

    /// The canonical receiver set of the group.
    pub fn receivers(&self) -> Vec<NodeId> {
        self.0.with_slot(|slot| slot.graph().receivers().to_vec())
    }

    /// Sends one application packet to every receiver of the group;
    /// returns its flow sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::PayloadTooLarge`] for payloads over
    /// [`MAX_PAYLOAD`] bytes, and [`OverlayError::Shutdown`] once the
    /// node has stopped; nothing is sent in either case.
    pub fn send(&self, payload: &[u8]) -> Result<u64, OverlayError> {
        self.0.send_batch(&[payload])
    }

    /// Sends a run of packets to every receiver as one batch — the
    /// many-flow fast path: consecutive sequence numbers, one shared
    /// timestamp and mask, coalesced wire datagrams per out-link, and
    /// one dissemination covering all receivers. Returns the first
    /// sequence number of the run.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::PayloadTooLarge`] if any payload exceeds
    /// [`MAX_PAYLOAD`], and [`OverlayError::Shutdown`] once the node
    /// has stopped; nothing is sent in either case.
    pub fn send_batch(&self, payloads: &[&[u8]]) -> Result<u64, OverlayError> {
        self.0.send_batch(payloads)
    }

    /// Offers the group's most recently sent packet again under its
    /// original sequence number, exactly as [`FlowSender::tail_probe`]
    /// does for a unicast flow: every receiver that already has it
    /// suppresses the duplicate.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::PayloadTooLarge`] for payloads over
    /// [`MAX_PAYLOAD`] bytes, and [`OverlayError::Shutdown`] once the
    /// node has stopped.
    pub fn tail_probe(&self, payload: &[u8]) -> Result<bool, OverlayError> {
        self.0.tail_probe(payload)
    }

    /// The several-receiver graph currently stamped onto packets.
    pub fn current_graph(&self) -> Arc<MulticastGraph> {
        self.0.with_slot(|slot| match &slot.route {
            Route::Group { graph, .. } => Arc::clone(graph),
            Route::Scheme(scheme) => Arc::new(scheme.current().clone()),
        })
    }
}

/// Bound on each receiver session's delivery queue (packets); overflow
/// is dropped and counted in `delivery_drops`.
pub const DELIVERY_QUEUE: usize = 16_384;

/// A receiving session: yields [`Delivery`] records for one flow.
/// Dropping it closes the session: the node stops delivering the flow
/// (and, for a group flow, counting it as delivered there).
#[derive(Debug)]
pub struct FlowReceiver {
    rx: Receiver<Delivery>,
    driver: Arc<Driver>,
    flow: Flow,
    id: u64,
}

impl Drop for FlowReceiver {
    fn drop(&mut self) {
        self.driver.close_receiver(self.flow, self.id);
    }
}

impl FlowReceiver {
    pub(crate) fn new(rx: Receiver<Delivery>, driver: Arc<Driver>, flow: Flow, id: u64) -> Self {
        FlowReceiver { rx, driver, flow, id }
    }

    /// Blocks up to `timeout` for the next delivery.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Returns a delivery if one is already queued.
    pub fn try_recv(&self) -> Option<Delivery> {
        self.rx.try_recv().ok()
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(d) = self.try_recv() {
            out.push(d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::NodeId;

    #[test]
    fn delivery_latency() {
        let d = Delivery {
            flow: Flow::new(NodeId::new(0), NodeId::new(1)),
            flow_seq: 0,
            payload: Bytes::new(),
            sent_at: Micros::from_micros(100),
            delivered_at: Micros::from_micros(350),
            on_time: true,
        };
        assert_eq!(d.latency(), Micros::from_micros(250));
    }

    #[test]
    fn delivery_stats_summarize() {
        let mk = |sent: u64, arrived: u64, on_time: bool| Delivery {
            flow: Flow::new(NodeId::new(0), NodeId::new(1)),
            flow_seq: 0,
            payload: Bytes::new(),
            sent_at: Micros::from_micros(sent),
            delivered_at: Micros::from_micros(arrived),
            on_time,
        };
        let batch = [mk(0, 100, true), mk(0, 300, true), mk(0, 800, false)];
        let stats = DeliveryStats::from_deliveries(&batch);
        assert_eq!(stats.delivered, 3);
        assert_eq!(stats.on_time, 2);
        assert_eq!(stats.max_latency, Micros::from_micros(800));
        assert_eq!(stats.mean_latency(), Micros::from_micros(400));
        let fraction = stats.on_time_fraction().expect("non-empty batch has a fraction");
        assert!((fraction - 2.0 / 3.0).abs() < 1e-12);

        let empty = DeliveryStats::from_deliveries([]);
        assert_eq!(empty.on_time_fraction(), None, "no deliveries is not evidence of timeliness");
        assert_eq!(empty.mean_latency(), Micros::ZERO);
    }
}
