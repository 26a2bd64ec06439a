//! The overlay node: socket, forwarding engine, and protocol duties.
//! Threads, socket reads and waits live in [`crate::runtime`].

use crate::clock::now_us;
use crate::config::NodeConfig;
use crate::dedup::{DedupWindows, DEDUP_IDLE};
use crate::fault::{corrupt_in_place, FaultPlan};
use crate::linkstate::{Applied, LinkStateDb, LSA_MAX_RETRANSMITS, LSA_RETRANSMIT_TIMEOUT};
use crate::metrics::{EventKind, MetricsRegistry, MetricsSnapshot, NodeThread, JOURNAL_CAPACITY};
use crate::monitor::{
    FlapDamper, LinkMonitor, FLAP_PENALTY_HALF_LIFE, FLAP_SUPPRESS_THRESHOLD, WINDOW_TICKS,
};
use crate::overload::{OverloadConfig, OverloadDetector, OverloadTransition};
use crate::pool::{BufferPool, ScratchVecPool};
use crate::recovery::{
    retransmit_worthwhile, GapTracker, SendBuffer, NACK_REREQUEST_AFTER, RETRANSMIT_BUFFER,
};
use crate::runtime::NodeThreads;
use crate::session::{
    Delivery, FlowGroup, FlowReceiver, FlowSender, Route, Session, SessionSlot, DELIVERY_QUEUE,
};
use crate::shard::ShardedMap;
use crate::wire::{
    self, DataPacket, DigestEntry, Envelope, LinkStateEntry, LinkStateUpdate, Message,
};
use crate::OverlayError;
use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use dg_core::scheme::{build_scheme, RoutingScheme, SchemeKind, SchemeParams};
use dg_core::{
    CachedGraphKind, Flow, GraphCache, GraphCacheStats, MulticastKind, ServiceRequirement, SlaClass,
};
use dg_topology::{Graph, Micros, NodeId};
use dg_trace::NetworkState;
use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Constructor namespace for overlay nodes; see [`OverlayNode::spawn`].
#[derive(Debug)]
pub struct OverlayNode;

struct SendLink {
    next_seq: u64,
    /// Recently sent packets, kept decoded: clones are cheap
    /// (reference-counted mask/payload) and the NACK path re-encodes on
    /// demand, so the hot path never clones an encoded frame just for
    /// the buffer.
    buffer: SendBuffer<DataPacket>,
}

/// Whether two packets may share a forwarding run: same flow, same SLA
/// class, same dissemination mask — everything admission, accounting
/// and the out-neighbour choice depend on.
fn same_run(a: &DataPacket, b: &DataPacket) -> bool {
    a.flow == b.flow && a.class == b.class && a.mask == b.mask
}

pub(crate) struct Shipment {
    to: NodeId,
    datagram: Bytes,
    depart_at: Micros,
    order: u64,
    /// `Some` for data traffic (the SLA class it carries), `None` for
    /// control frames — hellos, link state, acks, digests, NACKs —
    /// which ride a reserved unbounded lane and are never shed.
    class: Option<SlaClass>,
}

// Ordered so a max-heap pops the *earliest* shipment first, FIFO within
// one departure instant.
impl Ord for Shipment {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.depart_at.cmp(&self.depart_at).then(other.order.cmp(&self.order))
    }
}

impl PartialOrd for Shipment {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Shipment {
    fn eq(&self, other: &Self) -> bool {
        self.depart_at == other.depart_at && self.order == other.order
    }
}

impl Eq for Shipment {}

/// A link-state update one neighbour has not yet acknowledged.
struct PendingLsa {
    update: LinkStateUpdate,
    next_retry: Micros,
    backoff: Micros,
    retries_left: u32,
}

/// The last link state actually advertised for one in-edge, held
/// across flap-damped suppressions so an oscillating link keeps
/// advertising its previous stable state.
#[derive(Clone, Copy, Default)]
struct AdvertisedLink {
    down: bool,
    triggered: bool,
    loss: f32,
    extra_latency_us: u32,
    /// The damper is withholding a transition of this link's flags; it
    /// is asked again on every hello tick, and the refusal counted and
    /// journalled once.
    withheld: bool,
}

/// Thread supervision state: per-thread heartbeats, pending panic
/// injections (for tests and chaos), and the degradation horizon set
/// by the most recent crash.
struct Supervision {
    /// Last heartbeat per supervised thread, in microseconds on the
    /// [`now_us`] clock; zero means the thread has not started.
    heartbeats: [AtomicU64; 3],
    /// Set to make the matching thread panic at its next checkpoint.
    panic_requests: [AtomicBool; 3],
    /// The node reports itself degraded until this instant after a
    /// thread crash, giving operators a visible window even when the
    /// restart is instant.
    degraded_until: AtomicU64,
}

fn thread_index(thread: NodeThread) -> usize {
    match thread {
        NodeThread::Receive => 0,
        NodeThread::Shipper => 1,
        NodeThread::Ticker => 2,
    }
}

impl Supervision {
    fn new(now: Micros) -> Self {
        let t = now.as_micros();
        Supervision {
            heartbeats: [AtomicU64::new(t), AtomicU64::new(t), AtomicU64::new(t)],
            panic_requests: [
                AtomicBool::new(false),
                AtomicBool::new(false),
                AtomicBool::new(false),
            ],
            degraded_until: AtomicU64::new(0),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) config: NodeConfig,
    pub(crate) graph: Arc<Graph>,
    pub(crate) socket: UdpSocket,
    running: AtomicBool,
    /// The timer thread, unparked whenever a lane gains a shipment.
    pub(crate) timer: OnceLock<std::thread::Thread>,
    pub(crate) faults: FaultPlan,
    monitor: Mutex<LinkMonitor>,
    linkstate: Mutex<LinkStateDb>,
    /// Precomputed dissemination graphs for this node's flows, fed by
    /// link-state reports: entries are invalidated only when a report
    /// flips a link they depend on across the usability threshold.
    graph_cache: GraphCache,
    /// Link-state updates awaiting per-neighbour acknowledgement,
    /// keyed by neighbour then origin (only the newest stamp per
    /// origin is worth retransmitting).
    pending_lsa: Mutex<HashMap<NodeId, HashMap<NodeId, PendingLsa>>>,
    /// Route-flap damper for this node's own advertisements.
    damper: Mutex<FlapDamper>,
    /// What each in-edge currently advertises (held across damped
    /// suppressions).
    advertised: Mutex<HashMap<NodeId, AdvertisedLink>>,
    supervision: Supervision,
    /// Per-flow duplicate-suppression windows; the receive thread holds
    /// the lock for a frame at a time, the ticker to reclaim idle ones.
    dedup: Mutex<DedupWindows>,
    send_links: Mutex<HashMap<NodeId, SendLink>>,
    recv_links: Mutex<HashMap<NodeId, GapTracker>>,
    /// Sharded so concurrent deliveries for unrelated flows don't
    /// serialize on one lock.
    receivers: ShardedMap<Flow, Sender<Delivery>>,
    /// Every sending session originated here, unicast and group alike:
    /// refreshed on every scheme-update tick and counted against
    /// `sender_capacity`.
    pub(crate) sessions: Mutex<Vec<Arc<Mutex<SessionSlot>>>>,
    /// Reusable encode buffers for the transmit path.
    frame_pool: Mutex<BufferPool>,
    /// Reusable packet scratch for the batch send path.
    packet_scratch: Mutex<ScratchVecPool<DataPacket>>,
    /// Bounded lane for data shipments; overflow is shed by class.
    shipper_tx: Sender<Shipment>,
    /// Reserved unbounded lane for control frames, so saturating data
    /// traffic can never starve hellos or link state into a spurious
    /// link-down declaration.
    control_tx: Sender<Shipment>,
    /// Data shipments currently in flight toward the wire (bounded
    /// channel plus the shipper's heap) — the depth signal both the
    /// class shed bands and the overload detector read.
    queued_data: AtomicU64,
    /// Damped overload state machine driving per-class redundancy
    /// downgrades (observed from the ticker thread).
    overload: Mutex<OverloadDetector>,
    scheme_params: SchemeParams,
    shipment_order: AtomicU64,
    pub(crate) metrics: MetricsRegistry,
    hello_seq: AtomicU64,
    ls_seq: AtomicU64,
    /// This node's link-state incarnation, minted from the clock at
    /// spawn so a restarted node outranks its previous life.
    ls_epoch: u64,
    /// While set, the ticker skips link-state origination (hellos,
    /// digests, acks, and retransmits keep running). Out-of-process
    /// collectors quiesce origination briefly before snapshotting so
    /// every daemon's final digest refers to the same frozen stamps
    /// instead of racing the 200 ms refresh cadence.
    originations_paused: AtomicBool,
}

impl Shared {
    fn me(&self) -> NodeId {
        self.config.node
    }

    /// Stamps the calling supervised duty's heartbeat.
    pub(crate) fn beat(&self, thread: NodeThread) {
        self.supervision.heartbeats[thread_index(thread)]
            .store(now_us().as_micros(), Ordering::Relaxed);
    }

    /// Panics if a panic was injected for `thread` (fault injection for
    /// supervision tests); consumes the request either way.
    pub(crate) fn maybe_injected_panic(&self, thread: NodeThread) {
        if self.supervision.panic_requests[thread_index(thread)].swap(false, Ordering::Relaxed) {
            panic!("injected panic in {thread:?} thread");
        }
    }

    /// True until shutdown has been requested.
    pub(crate) fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// Requests shutdown. The timer thread wakes at once to flush what
    /// is parked; the receive thread notices within one read timeout.
    pub(crate) fn stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.wake_timer();
    }

    /// Accounts one supervised-duty panic: counts it, journals it, and
    /// opens the degradation window. The crash instant counts as a
    /// heartbeat — the restart is immediate, so the duty is degraded,
    /// not dead.
    pub(crate) fn note_thread_crash(&self, thread: NodeThread) {
        self.metrics.counters.thread_crashes.fetch_add(1, Ordering::Relaxed);
        self.metrics.record(EventKind::ThreadCrash { thread });
        let until = now_us()
            .as_micros()
            .saturating_add(self.config.watchdog_stale_after.as_micros() as u64);
        self.supervision.degraded_until.fetch_max(until, Ordering::Relaxed);
        self.beat(thread);
    }

    /// True while the node is running without a full complement of
    /// healthy threads: either a crash happened recently (within the
    /// watchdog horizon) or some supervised thread has stopped
    /// heartbeating entirely.
    pub(crate) fn degraded(&self) -> bool {
        let now = now_us().as_micros();
        if now < self.supervision.degraded_until.load(Ordering::Relaxed) {
            return true;
        }
        if !self.running.load(Ordering::SeqCst) {
            return false;
        }
        let stale = self.config.watchdog_stale_after.as_micros() as u64;
        self.supervision.heartbeats.iter().any(|h| {
            let t = h.load(Ordering::Relaxed);
            t != 0 && now.saturating_sub(t) > stale
        })
    }

    /// Applies link faults and sends the datagram: immediately on the
    /// calling thread when the verdict carries no delay (the hot path —
    /// no queue, no context switch), or via the shipper when the fault
    /// plan wants it held back.
    fn transmit(&self, to: NodeId, datagram: Bytes, class: Option<SlaClass>) {
        let verdict = self.faults.decide(to);
        if verdict.drop {
            self.metrics.counters.fault_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let payload = if verdict.corrupt {
            self.metrics.counters.fault_corruptions.fetch_add(1, Ordering::Relaxed);
            let mut bytes = datagram.to_vec();
            corrupt_in_place(&mut bytes, verdict.corrupt_seed);
            Bytes::from(bytes)
        } else {
            datagram
        };
        if verdict.delay == Micros::ZERO && !verdict.duplicate {
            self.account_send(to, payload.len());
            if let Some(addr) = self.config.peers.get(&to) {
                let _ = self.socket.send_to(&payload, addr);
            }
            // The frame is usually uniquely owned by now; recover its
            // allocation for the next encode.
            self.frame_pool.lock().recycle(payload);
            return;
        }
        let depart_at = now_us().saturating_add(verdict.delay);
        self.ship(to, payload.clone(), depart_at, class);
        if verdict.duplicate {
            self.metrics.counters.fault_duplicates.fetch_add(1, Ordering::Relaxed);
            self.ship(to, payload, depart_at, class);
        }
    }

    /// Accounts one wire transmission in the node and per-link counters.
    fn account_send(&self, to: NodeId, len: usize) {
        let bytes = len as u64;
        self.metrics.counters.datagrams_sent.fetch_add(1, Ordering::Relaxed);
        self.metrics.counters.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        let link = self.metrics.link(to);
        link.datagrams.fetch_add(1, Ordering::Relaxed);
        link.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Accounts one wire transmission and queues it for the timer
    /// thread, waking it. Control frames (`class == None`) take the
    /// reserved unbounded lane; data frames take the bounded lane and
    /// are shed (and counted against their class) on overflow instead
    /// of growing without bound.
    fn ship(&self, to: NodeId, datagram: Bytes, depart_at: Micros, class: Option<SlaClass>) {
        self.account_send(to, datagram.len());
        let shipment = Shipment {
            to,
            datagram,
            depart_at,
            order: self.shipment_order.fetch_add(1, Ordering::Relaxed),
            class,
        };
        let Some(class) = class else {
            // Closed channels only happen during shutdown.
            let _ = self.control_tx.send(shipment);
            self.wake_timer();
            return;
        };
        self.queued_data.fetch_add(1, Ordering::Relaxed);
        match self.shipper_tx.try_send(shipment) {
            Ok(()) => self.wake_timer(),
            Err(TrySendError::Full(_)) => {
                self.queued_data.fetch_sub(1, Ordering::Relaxed);
                self.shed(class, 1);
            }
            // A closed channel only happens during shutdown.
            Err(TrySendError::Disconnected(_)) => {
                self.queued_data.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Unparks the timer thread: a lane gained a shipment whose
    /// departure may be earlier than anything it is waiting for, or the
    /// node is stopping.
    fn wake_timer(&self) {
        if let Some(timer) = self.timer.get() {
            timer.unpark();
        }
    }

    /// Records `count` shed data packets of `class`: the per-class shed
    /// counter plus the shipper-side drop cause. (The snapshot-level
    /// `queue_drops` aggregate is derived from the per-cause counters
    /// at read time; nothing counts into it here.)
    fn shed(&self, class: SlaClass, count: u64) {
        self.shed_cell(class).fetch_add(count, Ordering::Relaxed);
        self.metrics.counters.shipper_drops.fetch_add(count, Ordering::Relaxed);
    }

    /// The shed counter of `class`.
    fn shed_cell(&self, class: SlaClass) -> &AtomicU64 {
        match class {
            SlaClass::Bulk => &self.metrics.counters.shed_bulk,
            SlaClass::Timely => &self.metrics.counters.shed_timely,
            SlaClass::Surgical => &self.metrics.counters.shed_surgical,
        }
    }

    /// Priority admission of a run of data packets against the class
    /// shed bands: bulk is admitted only into the bottom half of the
    /// outbound data queue, timely into the bottom three quarters, and
    /// surgical up to the full bound — so under pressure bulk sheds
    /// first, then timely, and surgical last. Returns `false` (and
    /// counts the shed) when the run must be dropped.
    fn admit_data(&self, class: SlaClass, count: u64) -> bool {
        let bound = self.config.shipper_queue as u64;
        let band = match class {
            SlaClass::Bulk => bound / 2,
            SlaClass::Timely => bound - bound / 4,
            SlaClass::Surgical => bound,
        };
        if self.queued_data.load(Ordering::Relaxed) < band {
            return true;
        }
        self.shed(class, count);
        false
    }

    /// Draws a pooled buffer, encodes with `fill`, and transmits the
    /// resulting frame toward `neighbor`.
    fn transmit_pooled(
        &self,
        neighbor: NodeId,
        class: Option<SlaClass>,
        fill: impl FnOnce(&mut Vec<u8>),
    ) {
        let mut buf = self.frame_pool.lock().get();
        fill(&mut buf);
        self.transmit(neighbor, Bytes::from(buf), class);
    }

    /// Sends a run of data packets toward `neighbor`: assigns them
    /// consecutive per-link sequences, buffers them for recovery, and
    /// coalesces them into as few datagrams as
    /// [`NodeConfig::max_batch_bytes`] allows — one syscall, one
    /// checksum, one fault verdict per wire datagram instead of per
    /// packet (one that ends up carrying a single packet is a plain
    /// DATA frame; see [`wire::encode_data_frame`]).
    ///
    /// A run shares one `(flow, class, mask)` ([`same_run`]): admission
    /// and per-flow accounting are charged once for the whole run.
    fn send_data_batch(&self, neighbor: NodeId, packets: &[DataPacket]) {
        let Some(first) = packets.first() else { return };
        debug_assert!(
            packets.iter().all(|p| same_run(first, p)),
            "a run shares one (flow, class, mask)"
        );
        // Shed before touching the link sequence or the retransmit
        // buffer: a shed packet must not open a gap the neighbour
        // would NACK for. The whole run is admitted or shed as a unit.
        if !self.admit_data(first.class, packets.len() as u64) {
            return;
        }
        let first_seq = {
            let mut links = self.send_links.lock();
            let link = links.entry(neighbor).or_insert_with(|| SendLink {
                next_seq: 0,
                buffer: SendBuffer::new(RETRANSMIT_BUFFER),
            });
            let first = link.next_seq;
            link.next_seq += packets.len() as u64;
            for (i, p) in packets.iter().enumerate() {
                link.buffer.push(first + i as u64, p.clone());
            }
            first
        };
        let n = packets.len() as u64;
        self.metrics.counters.data_sent.fetch_add(n, Ordering::Relaxed);
        self.metrics.flow(first.flow).transmissions.fetch_add(n, Ordering::Relaxed);
        // Chunk so no datagram exceeds the configured batch budget
        // (always at least one packet per datagram).
        let budget = self.config.max_batch_bytes;
        let mut start = 0;
        while start < packets.len() {
            let mut end = start + 1;
            let mut size = wire::data_body_len(&packets[start]);
            while end < packets.len() {
                let next = wire::data_body_len(&packets[end]);
                if size + next > budget {
                    break;
                }
                size += next;
                end += 1;
            }
            self.transmit_pooled(neighbor, Some(first.class), |buf| {
                let chunk_seq = first_seq + start as u64;
                wire::encode_data_frame(self.me(), &packets[start..end], chunk_seq, buf);
            });
            start = end;
        }
    }

    /// Takes a pooled scratch vector for assembling a packet batch.
    pub(crate) fn take_packet_scratch(&self) -> Vec<DataPacket> {
        self.packet_scratch.lock().get()
    }

    /// Returns a batch scratch vector to the pool.
    pub(crate) fn put_packet_scratch(&self, v: Vec<DataPacket>) {
        self.packet_scratch.lock().put(v);
    }

    /// Disseminates a run of packets (one `(flow, class, mask)`; a
    /// single packet is a run of one) from this node along the mask's
    /// out-edges, batching the per-neighbour sends.
    pub(crate) fn disseminate_batch(&self, packets: &[DataPacket]) {
        let Some(first) = packets.first() else { return };
        for &e in self.graph.out_edges(self.me()) {
            if first.mask_contains(e) {
                self.send_data_batch(self.graph.edge(e).dst, packets);
            }
        }
    }

    pub(crate) fn handle_datagram(&self, datagram: &[u8]) {
        self.metrics.counters.datagrams_received.fetch_add(1, Ordering::Relaxed);
        self.metrics.counters.bytes_received.fetch_add(datagram.len() as u64, Ordering::Relaxed);
        // A checksum proves a frame intact, not who sent it, and
        // everything below keeps state per sender: only an id this node
        // holds a peer address for gets any (or costs a decode).
        let stranger = |from| !self.config.peers.contains_key(&from);
        if wire::claimed_sender(datagram).is_some_and(stranger) {
            self.metrics.counters.malformed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Data frames are copied once out of the receive scratch buffer
        // into a shared frame, and their masks/payloads decode as
        // zero-copy slices of it; control frames decode straight off the
        // scratch buffer with no allocation at all.
        let decoded = if wire::is_data_frame(datagram) {
            Envelope::decode_shared(&Bytes::copy_from_slice(datagram))
        } else {
            Envelope::decode(datagram)
        };
        let envelope = match decoded {
            Ok(e) => e,
            Err(_) => {
                self.metrics.counters.malformed.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let from = envelope.from;
        match envelope.message {
            Message::Hello { seq, sent_at } => {
                let now = now_us();
                self.monitor.lock().record_hello(from, seq, now.saturating_sub(sent_at), now);
                self.metrics.counters.hellos_echoed.fetch_add(1, Ordering::Relaxed);
                let ack = Envelope {
                    from: self.me(),
                    message: Message::HelloAck { echo_seq: seq, echo_sent_at: sent_at },
                };
                self.transmit(from, ack.encode(), None);
            }
            Message::HelloAck { echo_sent_at, .. } => {
                let rtt = now_us().saturating_sub(echo_sent_at);
                self.metrics.counters.hello_acks_received.fetch_add(1, Ordering::Relaxed);
                self.monitor.lock().record_rtt(from, rtt);
            }
            Message::LinkState(update) => {
                // Ack unconditionally — even a stale or duplicate update
                // must stop the sender's retransmissions.
                let ack = Envelope {
                    from: self.me(),
                    message: Message::LsaAck {
                        origin: update.origin,
                        epoch: update.epoch,
                        seq: update.seq,
                    },
                };
                self.metrics.counters.lsa_acks_sent.fetch_add(1, Ordering::Relaxed);
                self.transmit(from, ack.encode(), None);
                self.take_link_state(&update, Some(from));
            }
            Message::LsaAck { origin, epoch, seq } => {
                self.metrics.counters.lsa_acks_received.fetch_add(1, Ordering::Relaxed);
                let mut pending = self.pending_lsa.lock();
                if let Some(per_origin) = pending.get_mut(&from) {
                    // An ack for a newer stamp covers the pending one;
                    // an ack for an older stamp does not.
                    if per_origin
                        .get(&origin)
                        .is_some_and(|p| (p.update.epoch, p.update.seq) <= (epoch, seq))
                    {
                        per_origin.remove(&origin);
                    }
                    if per_origin.is_empty() {
                        pending.remove(&from);
                    }
                }
            }
            Message::Digest { entries } => {
                self.metrics.counters.digests_received.fetch_add(1, Ordering::Relaxed);
                // Anti-entropy push repair: send back every origin we
                // know more about than the digesting neighbour.
                let repairs = self.linkstate.lock().updates_newer_than(&entries);
                if !repairs.is_empty() {
                    let now = now_us();
                    self.metrics
                        .counters
                        .lsa_repairs_sent
                        .fetch_add(repairs.len() as u64, Ordering::Relaxed);
                    for update in &repairs {
                        self.send_link_state_to(from, update, now);
                    }
                }
            }
            Message::Nack { missing } => {
                let requested = missing.len() as u64;
                self.metrics
                    .counters
                    .retransmit_requests_received
                    .fetch_add(requested, Ordering::Relaxed);
                let mut resends: Vec<(u64, DataPacket)> = Vec::new();
                {
                    let mut links = self.send_links.lock();
                    if let Some(link) = links.get_mut(&from) {
                        for seq in missing {
                            if let Some(packet) = link.buffer.take(seq) {
                                resends.push((seq, packet));
                            }
                        }
                    }
                }
                // Deadline-aware recovery: a retransmission that cannot
                // reach the neighbour before the packet's deadline only
                // burns bandwidth. Suppressed packets stay consumed from
                // the buffer — the NACK was their one recovery chance.
                let rtt = self.monitor.lock().rtt_to(from);
                let now = now_us();
                let mut suppressed = 0u64;
                resends.retain(|(_, packet)| {
                    if retransmit_worthwhile(packet.sent_at, packet.deadline, now, rtt) {
                        true
                    } else {
                        suppressed += 1;
                        false
                    }
                });
                if suppressed > 0 {
                    self.metrics
                        .counters
                        .retransmits_suppressed
                        .fetch_add(suppressed, Ordering::Relaxed);
                }
                let served = resends.len() as u64;
                let missed = requested - served - suppressed;
                if served > 0 {
                    self.metrics
                        .counters
                        .retransmissions_served
                        .fetch_add(served, Ordering::Relaxed);
                    self.metrics
                        .record(EventKind::RecoveryServed { neighbor: from, packets: served });
                }
                if missed > 0 {
                    self.metrics.counters.retransmit_misses.fetch_add(missed, Ordering::Relaxed);
                    self.metrics
                        .record(EventKind::RecoveryMissed { neighbor: from, packets: missed });
                }
                for (seq, packet) in resends {
                    // Attribute the retransmission to its flow so cost
                    // accounting matches the simulator (originals +
                    // retransmissions). This path only runs on loss, so
                    // re-encoding here keeps the hot path free of frame
                    // clones.
                    self.metrics.flow(packet.flow).transmissions.fetch_add(1, Ordering::Relaxed);
                    self.transmit_pooled(from, Some(packet.class), |buf| {
                        wire::encode_data_frame(self.me(), std::slice::from_ref(&packet), seq, buf);
                    });
                }
            }
            Message::Data(packet) => {
                self.handle_data(from, now_us(), std::slice::from_ref(&packet));
            }
            Message::DataBatch(packets) => self.handle_data(from, now_us(), &packets),
        }
    }

    /// Handles the data packets of one incoming frame (a DATA frame is
    /// a frame of one), all of them arrived at `now`. Every packet has
    /// its own outcome — a gap it exposes is NACKed, a copy already seen
    /// is suppressed, a packet for this node is delivered on time or
    /// late, an expired one goes no further — and the survivors leave as
    /// they arrived: every maximal run of consecutive accepted packets
    /// sharing one `(flow, class, mask)` is forwarded as one batch per
    /// out-neighbour. What does not depend on the packet is done once:
    /// the clock is read per frame, the in-link's tracker and the
    /// duplicate windows are locked per frame, and a flow's window,
    /// metrics cells and receiver are looked up — and the counters added
    /// — per stretch of consecutive packets of one flow.
    fn handle_data(&self, from: NodeId, now: Micros, packets: &[DataPacket]) {
        // Hop-by-hop recovery: the frame's link sequences against this
        // in-link's tracker. NACKs leave before anything is delivered.
        let gaps = self
            .recv_links
            .lock()
            .entry(from)
            .or_default()
            .observe_run(now, packets.iter().map(|p| (p.link_seq, p.sent_at, p.deadline)));
        for missing in gaps {
            self.metrics.counters.nack_messages_sent.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .counters
                .retransmit_requests_issued
                .fetch_add(missing.len() as u64, Ordering::Relaxed);
            self.metrics.record(EventKind::RecoveryRequested {
                neighbor: from,
                packets: missing.len() as u64,
            });
            let nack = Envelope { from: self.me(), message: Message::Nack { missing } };
            self.transmit(from, nack.encode(), None);
        }
        let mut dedup = self.dedup.lock();
        for stretch in packets.chunk_by(|a, b| a.flow == b.flow) {
            self.accept_stretch(now, stretch, &mut dedup);
        }
    }

    /// Whether `flow` can exist on this overlay. Flow ids arrive
    /// unvalidated off the wire and key per-flow state (metrics cells, a
    /// duplicate window), so one that names no site gets none. A group
    /// flow's tagged id cannot be checked; the windows' idle reclaim
    /// bounds those.
    fn plausible(&self, flow: Flow) -> bool {
        let sites = self.graph.node_count();
        flow.source.index() < sites && (flow.is_group() || flow.destination.index() < sites)
    }

    /// The receive checks for a frame's stretch of consecutive packets
    /// of one flow: duplicate suppression and expiry decide each
    /// packet's verdict, the stretch is counted, and then its packets
    /// are delivered and its surviving runs forwarded.
    fn accept_stretch(&self, now: Micros, stretch: &[DataPacket], dedup: &mut DedupWindows) {
        let add = |cell: &AtomicU64, n: usize| {
            if n > 0 {
                cell.fetch_add(n as u64, Ordering::Relaxed);
            }
        };
        let counters = &self.metrics.counters;
        let first = &stretch[0];
        let flow = first.flow;
        if !self.plausible(flow) {
            add(&counters.malformed, stretch.len());
            add(&counters.data_received, stretch.len());
            return;
        }
        // A packet's verdict: `None` for a copy already seen, else
        // whether its deadline still holds.
        let window = dedup.flow(flow, first.flow_seq, now);
        let verdicts: Vec<Option<bool>> =
            stretch.iter().map(|p| window.accept(p.flow_seq).then(|| !p.expired(now))).collect();
        let fresh = verdicts.iter().flatten().count();
        let on_time = verdicts.iter().flatten().filter(|&&on_time| on_time).count();
        let late = fresh - on_time;
        // Unicast delivers at the flow's destination; a group flow
        // delivers at every node with an open receiver session for it
        // (group membership is not wire-visible — the mask is).
        let unicast_here = flow.destination == self.me();
        let receiver =
            if unicast_here || flow.is_group() { self.receivers.get(&flow) } else { None };
        // Counted before anything is delivered or forwarded, and
        // `data_received` last: whoever sees a delivery, or that counter
        // move, sees everything these packets were counted as.
        if unicast_here || receiver.is_some() {
            let cells = self.metrics.flow(flow);
            add(&cells.packets_on_time, on_time);
            add(&cells.packets_late, late);
            add(&counters.delivered_on_time, on_time);
            add(&counters.delivered_late, late);
        }
        add(&counters.duplicates, stretch.len() - fresh);
        add(&counters.expired, late);
        add(&counters.data_received, stretch.len());
        // `stretch[start..i]` is the pending run: accepted, one
        // `(flow, class, mask)`, not yet forwarded.
        let mut start = 0;
        for (i, (packet, verdict)) in stretch.iter().zip(verdicts).enumerate() {
            if let (Some(tx), Some(on_time)) = (&receiver, verdict) {
                self.deliver(tx, packet, now, on_time);
            }
            let accepted = verdict == Some(true);
            if !accepted || (start < i && !same_run(&stretch[start], packet)) {
                self.disseminate_batch(&stretch[start..i]);
                start = if accepted { i } else { i + 1 };
            }
        }
        self.disseminate_batch(&stretch[start..]);
    }

    /// Hands one packet to its receiver session. The delivery queue is
    /// bounded: an application that stops draining sheds load instead
    /// of wedging the node.
    fn deliver(&self, tx: &Sender<Delivery>, packet: &DataPacket, now: Micros, on_time: bool) {
        let delivery = Delivery {
            flow: packet.flow,
            flow_seq: packet.flow_seq,
            payload: packet.payload.clone(),
            sent_at: packet.sent_at,
            delivered_at: now,
            on_time,
        };
        if let Err(TrySendError::Full(_)) = tx.try_send(delivery) {
            self.shed_cell(packet.class).fetch_add(1, Ordering::Relaxed);
            self.metrics.counters.delivery_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flood_link_state(&self, update: &LinkStateUpdate, except: Option<NodeId>) {
        let bytes =
            Envelope { from: self.me(), message: Message::LinkState(update.clone()) }.encode();
        let now = now_us();
        for &e in self.graph.out_edges(self.me()) {
            let neighbor = self.graph.edge(e).dst;
            if Some(neighbor) != except {
                self.register_pending(neighbor, update, now);
                self.metrics.counters.link_state_flooded.fetch_add(1, Ordering::Relaxed);
                self.transmit(neighbor, bytes.clone(), None);
            }
        }
    }

    /// Records that `neighbor` owes an ack for `update`, superseding
    /// any older pending advertisement from the same origin.
    fn register_pending(&self, neighbor: NodeId, update: &LinkStateUpdate, now: Micros) {
        let mut pending = self.pending_lsa.lock();
        let per_origin = pending.entry(neighbor).or_default();
        if per_origin
            .get(&update.origin)
            .is_some_and(|p| (p.update.epoch, p.update.seq) >= (update.epoch, update.seq))
        {
            return;
        }
        per_origin.insert(
            update.origin,
            PendingLsa {
                update: update.clone(),
                next_retry: now.saturating_add(LSA_RETRANSMIT_TIMEOUT),
                backoff: LSA_RETRANSMIT_TIMEOUT,
                retries_left: LSA_MAX_RETRANSMITS,
            },
        );
    }

    /// Sends one link-state update to a single neighbour (the digest
    /// repair path), tracked for acknowledgement like a flood.
    fn send_link_state_to(&self, neighbor: NodeId, update: &LinkStateUpdate, now: Micros) {
        self.register_pending(neighbor, update, now);
        let bytes =
            Envelope { from: self.me(), message: Message::LinkState(update.clone()) }.encode();
        self.transmit(neighbor, bytes, None);
    }

    /// Retransmits every pending link-state update whose ack timer has
    /// expired, with exponential backoff; updates out of retries are
    /// abandoned (the periodic digest exchange repairs whatever was
    /// lost for good).
    fn retransmit_pending_lsas(&self, now: Micros) {
        let mut resends: Vec<(NodeId, LinkStateUpdate)> = Vec::new();
        let mut abandoned = 0u64;
        {
            let mut pending = self.pending_lsa.lock();
            for (&neighbor, per_origin) in pending.iter_mut() {
                per_origin.retain(|_, p| {
                    if p.next_retry > now {
                        return true;
                    }
                    if p.retries_left == 0 {
                        abandoned += 1;
                        return false;
                    }
                    p.retries_left -= 1;
                    p.backoff = p.backoff.saturating_add(p.backoff);
                    p.next_retry = now.saturating_add(p.backoff);
                    resends.push((neighbor, p.update.clone()));
                    true
                });
            }
            pending.retain(|_, per_origin| !per_origin.is_empty());
        }
        if abandoned > 0 {
            self.metrics.counters.lsa_retransmits_abandoned.fetch_add(abandoned, Ordering::Relaxed);
        }
        for (neighbor, update) in resends {
            self.metrics.counters.lsa_retransmits.fetch_add(1, Ordering::Relaxed);
            let bytes = Envelope { from: self.me(), message: Message::LinkState(update) }.encode();
            self.transmit(neighbor, bytes, None);
        }
    }

    /// Advertises this node's per-origin link-state summary to every
    /// neighbour. Sent even when the database is empty: a fresh node's
    /// empty digest makes every neighbour push its full database back.
    fn send_digests(&self) {
        let entries = self.linkstate.lock().digest();
        let bytes = Envelope { from: self.me(), message: Message::Digest { entries } }.encode();
        for &e in self.graph.out_edges(self.me()) {
            self.metrics.counters.digests_sent.fetch_add(1, Ordering::Relaxed);
            self.transmit(self.graph.edge(e).dst, bytes.clone(), None);
        }
    }

    /// The hello tick's pass over the in-links' gap trackers. Each hands
    /// the link monitor the loss evidence its data stream gathered
    /// since the last tick, and names the gaps whose NACK has gone
    /// unanswered: exactly one extra chance per gap, covering the case
    /// where the NACK itself was lost while the neighbour's buffer
    /// still holds the packet — unless the packet's deadline can no
    /// longer be met, when asking again only buys a retransmission
    /// that is suppressed, missed, or expires on arrival.
    fn service_recv_links(&self, now: Micros) {
        let mut skipped = 0;
        let due: Vec<(NodeId, Vec<u64>)> = {
            // The only place that holds both locks: trackers, then monitor.
            let mut links = self.recv_links.lock();
            let mut monitor = self.monitor.lock();
            links
                .iter_mut()
                .filter_map(|(&neighbor, tracker)| {
                    let (expected, received) = tracker.take_evidence();
                    monitor.record_data_tick(neighbor, expected, received, now);
                    let (due, hopeless) =
                        tracker.due_rerequests(now, NACK_REREQUEST_AFTER, monitor.rtt_to(neighbor));
                    skipped += hopeless;
                    (!due.is_empty()).then_some((neighbor, due))
                })
                .collect()
        };
        if skipped > 0 {
            self.metrics.counters.nack_rerequests_skipped.fetch_add(skipped, Ordering::Relaxed);
        }
        for (neighbor, missing) in due {
            self.metrics
                .counters
                .nack_rerequests
                .fetch_add(missing.len() as u64, Ordering::Relaxed);
            self.metrics.counters.nack_messages_sent.fetch_add(1, Ordering::Relaxed);
            let nack = Envelope { from: self.me(), message: Message::Nack { missing } };
            self.transmit(neighbor, nack.encode(), None);
        }
    }

    /// Runs the problem detector over every in-link — the loss observed
    /// *from* each neighbour and the latency above baseline, as of
    /// `now` — and moves what each link advertises through the flap
    /// damper. Returns whether an advertised flag changed, which is
    /// worth an origination of its own.
    fn evaluate_links(&self, now: Micros) -> bool {
        let mut monitor = self.monitor.lock();
        let mut damper = self.damper.lock();
        let mut advertised = self.advertised.lock();
        let mut transitioned = false;
        for &e in self.graph.in_edges(self.me()) {
            let neighbor = self.graph.edge(e).src;
            let baseline = self.graph.edge(e).latency;
            let extra =
                monitor.one_way_from(neighbor).map_or(Micros::ZERO, |d| d.saturating_sub(baseline));
            let loss = monitor.loss_from(neighbor, now);
            // The problem detector stays quiet until a link has
            // delivered at least one hello; a never-heard link reads
            // as 100% loss and would trigger spuriously at startup.
            if monitor.heard_from(neighbor) {
                let _ = monitor.detect(neighbor, loss, self.scheme_params.problem_loss_threshold);
            }
            // Hello silence past the monitor's horizon declares the
            // link down outright — flooded so every scheme routes
            // around it rather than waiting for loss estimates to
            // decay.
            let _ = monitor.down_transition(neighbor, now);
            let raw = AdvertisedLink {
                down: monitor.is_down(neighbor, now),
                triggered: monitor.is_triggered(neighbor),
                loss: loss as f32,
                extra_latency_us: extra.as_micros().min(u64::from(u32::MAX)) as u32,
                withheld: false,
            };
            let adv = advertised.entry(neighbor).or_default();
            if raw.down == adv.down && raw.triggered == adv.triggered {
                // Flags are steady: measured loss and latency drift
                // through untouched.
                *adv = raw;
                continue;
            }
            // Bad news is fail-fast: a down declaration or a detector
            // trigger bypasses the damper (but still charges it, so the
            // good-news side of a flapping link stays held). Everything
            // else asks.
            let bad_news = (raw.down && !adv.down) || (raw.triggered && !adv.triggered);
            let admitted = if bad_news {
                damper.record_forced(neighbor, now);
                true
            } else {
                damper.admit(neighbor, now)
            };
            if !admitted {
                // Suppressed: keep the previous advertisement wholesale
                // — flags *and* measurements — so an oscillating link
                // cannot thrash every scheme in the network.
                if !std::mem::replace(&mut adv.withheld, true) {
                    self.metrics.counters.flap_suppressions.fetch_add(1, Ordering::Relaxed);
                    self.metrics.record(EventKind::FlapSuppressed {
                        neighbor,
                        penalty: damper.penalty(neighbor, now) as f32,
                    });
                }
                continue;
            }
            if raw.down != adv.down {
                if raw.down {
                    self.metrics.counters.links_declared_down.fetch_add(1, Ordering::Relaxed);
                    self.metrics.record(EventKind::LinkDown { neighbor });
                } else {
                    self.metrics.record(EventKind::LinkUp { neighbor });
                }
            }
            if raw.triggered != adv.triggered {
                self.metrics.record(if raw.triggered {
                    EventKind::DetectorTriggered { neighbor, loss: raw.loss }
                } else {
                    EventKind::DetectorCleared { neighbor, loss: raw.loss }
                });
            }
            *adv = raw;
            transitioned = true;
        }
        transitioned
    }

    /// Originates this node's own link-state report: what
    /// [`Shared::evaluate_links`] last settled on advertising for each
    /// in-edge.
    fn originate_link_state(&self) {
        let me = self.me();
        let entries: Vec<LinkStateEntry> = {
            let advertised = self.advertised.lock();
            self.graph
                .in_edges(me)
                .iter()
                .map(|&e| {
                    let adv = advertised.get(&self.graph.edge(e).src).copied().unwrap_or_default();
                    LinkStateEntry {
                        edge: e,
                        loss: adv.loss,
                        extra_latency_us: adv.extra_latency_us,
                        down: adv.down,
                    }
                })
                .collect()
        };
        self.metrics.counters.link_state_originated.fetch_add(1, Ordering::Relaxed);
        let update = LinkStateUpdate {
            origin: me,
            epoch: self.ls_epoch,
            seq: self.ls_seq.fetch_add(1, Ordering::Relaxed) + 1,
            entries,
        };
        self.take_link_state(&update, None);
    }

    /// Stores a link-state report, own or received from `except`, and
    /// if it is news: feeds it to the graph cache, floods it onward,
    /// and — when it moved an edge across the problem threshold, which
    /// is when a route can change — re-runs the local senders' schemes
    /// at once instead of at the next periodic refresh.
    fn take_link_state(&self, update: &LinkStateUpdate, except: Option<NodeId>) {
        let applied = self.linkstate.lock().apply(update, now_us());
        if applied.is_new() {
            self.note_link_state(update);
            self.flood_link_state(update, except);
        }
        if applied == Applied::Crossed {
            self.update_schemes();
        }
    }

    /// Feeds an accepted link-state report into the graph cache, so
    /// precomputed routes depending on a link that crossed the
    /// usability threshold are evicted before the next scheme refresh.
    fn note_link_state(&self, update: &LinkStateUpdate) {
        for entry in &update.entries {
            let loss = if entry.down { 1.0 } else { f64::from(entry.loss) };
            self.graph_cache.note_loss(entry.edge, loss);
        }
    }

    fn update_schemes(&self) {
        let state = self.linkstate.lock().network_state(now_us());
        let slots: Vec<_> = self.sessions.lock().clone();
        for slot in slots {
            let mut slot = slot.lock();
            let flow = slot.flow;
            let changed = match &mut slot.route {
                Route::Scheme(scheme) => {
                    let changed = scheme.update(&self.graph, &state);
                    if changed {
                        self.metrics.record(EventKind::RouteChange {
                            flow,
                            scheme: scheme.kind(),
                            edges: scheme.current().len() as u64,
                        });
                    }
                    // Keep a usable disjoint-pair fallback warm for the
                    // flow. Hits are free; a recompute only happens
                    // after a report flipped one of the routes' links
                    // across the usability threshold (the pair itself
                    // is deadline-independent).
                    let _ = self.graph_cache.live(
                        flow,
                        CachedGraphKind::TwoDisjoint,
                        ServiceRequirement::default(),
                    );
                    changed
                }
                // A lookup against the interned multicast tier is free
                // while the cached graph is valid, and recomputes
                // exactly when a link-state report flipped an edge the
                // graph depends on.
                Route::Group { graph, kind, requirement } => {
                    match self.graph_cache.multicast(
                        flow.source,
                        graph.receivers(),
                        *kind,
                        *requirement,
                    ) {
                        Ok(fresh) if !Arc::ptr_eq(&fresh, graph) => {
                            // A recompute can land on the same edge set
                            // (the flip was on a redundant branch's
                            // alternative); only a real edge-set change
                            // counts as a reroute.
                            let changed = *fresh != **graph;
                            *graph = fresh;
                            changed
                        }
                        _ => false,
                    }
                }
            };
            if changed {
                slot.refresh_mask(self.graph.edge_count());
                self.metrics.counters.graph_changes.fetch_add(1, Ordering::Relaxed);
                self.metrics.flow(flow).graph_changes.fetch_add(1, Ordering::Relaxed);
            }
        }
        // An ongoing overload episode keeps its downgrade masks in step
        // with the topology: recompute them (silently — the level did
        // not change) after the scheme refresh.
        let level = self.overload.lock().level();
        if level > 0 {
            self.apply_overload(level);
        }
    }

    /// Feeds the overload detector one observation (called once per
    /// hello tick) and, when a damped transition is admitted, journals
    /// the episode and adjusts per-class redundancy.
    fn observe_overload(&self, now: Micros) {
        let depth = self.queued_data.load(Ordering::Relaxed);
        let c = &self.metrics.counters;
        let shed_total = c.shed_bulk.load(Ordering::Relaxed)
            + c.shed_timely.load(Ordering::Relaxed)
            + c.shed_surgical.load(Ordering::Relaxed);
        match self.overload.lock().observe(now, depth, shed_total) {
            Some(OverloadTransition::Enter { level })
            | Some(OverloadTransition::Escalate { level }) => {
                self.metrics.record(EventKind::OverloadEnter { level });
                self.apply_overload(level);
            }
            Some(OverloadTransition::Exit { from_level }) => {
                self.metrics.record(EventKind::OverloadExit { level: from_level });
                self.apply_overload(0);
            }
            None => {}
        }
    }

    /// (Re)applies the downgrade policy for overload `level` to every
    /// unicast session: surgical keeps its full graph at every level,
    /// timely falls back to its precomputed disjoint pair at level 2,
    /// and bulk drops to a single path from level 1. `ClassDowngraded`
    /// is journaled only when a slot's effective level changes; a mask
    /// recomputed at an unchanged level (link state moved mid-episode)
    /// is silent.
    fn apply_overload(&self, level: u8) {
        let slots: Vec<_> = self.sessions.lock().clone();
        if slots.is_empty() {
            return;
        }
        let state = self.linkstate.lock().network_state(now_us());
        for slot in slots {
            let mut slot = slot.lock();
            // A group keeps its graph: the cheaper unicast graphs below
            // would not reach its receivers.
            if matches!(slot.route, Route::Group { .. }) {
                continue;
            }
            let (flow, class) = (slot.flow, slot.class);
            let effective = match class {
                SlaClass::Surgical => 0,
                SlaClass::Timely => {
                    if level >= 2 {
                        2
                    } else {
                        0
                    }
                }
                SlaClass::Bulk => u8::from(level >= 1),
            };
            if effective == 0 {
                if slot.is_downgraded() {
                    slot.clear_downgrade();
                }
                continue;
            }
            let graph = match class {
                SlaClass::Timely => self
                    .graph_cache
                    .live(flow, CachedGraphKind::TwoDisjoint, ServiceRequirement::default())
                    .ok()
                    .map(|g| (*g).clone()),
                SlaClass::Bulk => self.single_path_graph(flow, &state),
                SlaClass::Surgical => None,
            };
            // A flow whose cheaper graph cannot be computed right now
            // (e.g. the topology is partitioned) keeps whatever it has.
            let Some(graph) = graph else { continue };
            let edges = graph.len() as u64;
            let mask = Bytes::from(graph.to_bitmask(self.graph.edge_count()));
            let changed = slot.downgrade_level != effective;
            slot.set_downgrade(mask, effective);
            if changed {
                self.metrics.record(EventKind::ClassDowngraded { flow, class, edges });
            }
        }
    }

    /// The cheapest dissemination graph for `flow` under the current
    /// network state: one loss-aware path (the bulk downgrade target).
    fn single_path_graph(
        &self,
        flow: Flow,
        state: &NetworkState,
    ) -> Option<dg_core::DisseminationGraph> {
        let mut scheme = build_scheme(
            SchemeKind::DynamicSinglePath,
            &self.graph,
            flow,
            SlaClass::Bulk.requirement(),
            &self.scheme_params,
        )
        .ok()?;
        let _ = scheme.update(&self.graph, state);
        Some(scheme.current().clone())
    }

    /// Floods the outbound data queue with synthetic bulk-class
    /// shipments addressed to no peer (they evaporate at departure):
    /// deterministic queue pressure for chaos and soak tests, injected
    /// through the reserved lane so the injection itself is never shed.
    pub(crate) fn inject_overload(&self, shipments: usize, dwell: Duration) {
        let depart_at = now_us().saturating_add(Micros::from_micros(dwell.as_micros() as u64));
        for _ in 0..shipments {
            self.queued_data.fetch_add(1, Ordering::Relaxed);
            let shipment = Shipment {
                to: NodeId::new(u32::MAX),
                datagram: Bytes::new(),
                depart_at,
                order: self.shipment_order.fetch_add(1, Ordering::Relaxed),
                class: Some(SlaClass::Bulk),
            };
            if self.control_tx.send(shipment).is_err() {
                self.queued_data.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.wake_timer();
    }

    fn send_hellos(&self) {
        let me = self.me();
        let seq = self.hello_seq.fetch_add(1, Ordering::Relaxed);
        for &e in self.graph.out_edges(me) {
            let hello = Envelope { from: me, message: Message::Hello { seq, sent_at: now_us() } };
            self.metrics.counters.hellos_sent.fetch_add(1, Ordering::Relaxed);
            self.transmit(self.graph.edge(e).dst, hello.encode(), None);
        }
    }
}

/// What a node's timer thread owns: every departure and deadline it
/// waits for. Shipments arrive on the two lanes and park in the
/// departure heap until due; the periodic duties each keep the instant
/// they next fire.
pub(crate) struct Timers {
    heap: BinaryHeap<Shipment>,
    data_rx: Receiver<Shipment>,
    control_rx: Receiver<Shipment>,
    next_hello: Instant,
    next_ls: Instant,
    next_digest: Instant,
}

impl Timers {
    /// Hello duties fire immediately (a fresh node introduces itself
    /// right away); link-state and digest origination wait one full
    /// interval.
    fn new(
        config: &NodeConfig,
        data_rx: Receiver<Shipment>,
        control_rx: Receiver<Shipment>,
    ) -> Self {
        let now = Instant::now();
        Timers {
            heap: BinaryHeap::new(),
            data_rx,
            control_rx,
            next_hello: now,
            next_ls: now + config.link_state_interval,
            next_digest: now + config.digest_interval,
        }
    }

    /// How long the timer thread may park: until the earliest parked
    /// departure (on the overlay clock, read as `now`) or protocol
    /// deadline (on the monotonic clock, read as `tick`). A stopping
    /// node waits for departures only, and `None` says the last one has
    /// left.
    pub(crate) fn next_wake(&self, running: bool, now: Micros, tick: Instant) -> Option<Duration> {
        let departure = self
            .heap
            .peek()
            .map(|s| Duration::from_micros(s.depart_at.saturating_sub(now).as_micros()));
        if !running {
            return departure;
        }
        let protocol =
            self.next_hello.min(self.next_ls).min(self.next_digest).saturating_duration_since(tick);
        Some(departure.map_or(protocol, |d| d.min(protocol)))
    }
}

impl Shared {
    /// One shipper pass: drains both lanes into the departure heap and
    /// sends everything due.
    pub(crate) fn service_shipper(&self, timers: &mut Timers) {
        // The reserved control lane drains first, then data. Both land
        // in the same departure heap; the lanes exist so saturating
        // data can never *drop* control, not to reorder departures.
        for rx in [&timers.control_rx, &timers.data_rx] {
            while let Ok(s) = rx.try_recv() {
                timers.heap.push(s);
            }
        }
        let now = now_us();
        while timers.heap.peek().is_some_and(|s| s.depart_at <= now) {
            let s = timers.heap.pop().expect("peeked");
            if s.class.is_some() {
                self.queued_data.fetch_sub(1, Ordering::Relaxed);
            }
            if let Some(addr) = self.config.peers.get(&s.to) {
                let _ = self.socket.send_to(&s.datagram, addr);
            }
            self.frame_pool.lock().recycle(s.datagram);
        }
    }

    /// Fires whichever periodic duties are due: hello probes plus the
    /// per-tick housekeeping (overload observation, LSA retransmits,
    /// loss evidence and NACK re-requests, idle duplicate windows, the
    /// problem detector) on the hello cadence, link-state origination
    /// and scheme refresh on the link-state cadence, anti-entropy
    /// digests on theirs. A flag the detector moves does not wait for
    /// the link-state cadence: it is originated on the tick it happens.
    pub(crate) fn service_ticker(&self, timers: &mut Timers) {
        let tick = Instant::now();
        let hello_due = tick >= timers.next_hello;
        let ls_due = tick >= timers.next_ls;
        if hello_due {
            timers.next_hello = tick + self.config.hello_interval;
            self.send_hellos();
            let now = now_us();
            self.observe_overload(now);
            self.retransmit_pending_lsas(now);
            self.service_recv_links(now);
            self.dedup.lock().reclaim_idle(now, DEDUP_IDLE);
        }
        if hello_due || ls_due {
            let transitioned = self.evaluate_links(now_us());
            if (transitioned || ls_due) && !self.originations_paused.load(Ordering::Relaxed) {
                self.originate_link_state();
            }
        }
        if ls_due {
            timers.next_ls = tick + self.config.link_state_interval;
            self.update_schemes();
        }
        if tick >= timers.next_digest {
            timers.next_digest = tick + self.config.digest_interval;
            self.send_digests();
        }
    }
}

/// A running overlay node.
///
/// Dropping the handle without calling [`OverlayHandle::shutdown`]
/// leaves the node's threads running until process exit; call
/// `shutdown` for an orderly stop.
pub struct OverlayHandle {
    shared: Arc<Shared>,
    threads: NodeThreads,
}

impl std::fmt::Debug for OverlayHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlayHandle")
            .field("node", &self.shared.config.node)
            .field("addr", &self.local_addr())
            .finish()
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
        let (shared, timers) = build_shared(config, graph, socket);
        let threads = NodeThreads::spawn(&shared, timers)?;
        Ok(OverlayHandle { shared, threads })
    }
}

/// Builds the node's shared state and the timer thread's side of it.
fn build_shared(config: NodeConfig, graph: Arc<Graph>, socket: UdpSocket) -> (Arc<Shared>, Timers) {
    let (shipper_tx, shipper_rx) = channel::bounded(config.shipper_queue);
    let (control_tx, control_rx) = channel::unbounded();
    let micros = |d: Duration| Micros::from_micros(d.as_micros() as u64);
    let overload = OverloadDetector::new(OverloadConfig {
        queue_bound: config.shipper_queue as u64,
        hold_down: config.overload_hold_down,
    });
    // The one problem threshold: the detector, the link-state database
    // and the graph cache all read the schemes' default.
    let scheme_params = SchemeParams::default();
    let timers = Timers::new(&config, shipper_rx, control_rx);
    let shared = Arc::new(Shared {
        graph: Arc::clone(&graph),
        socket,
        running: AtomicBool::new(true),
        timer: OnceLock::new(),
        faults: FaultPlan::with_seed(config.fault_seed),
        monitor: Mutex::new(LinkMonitor::new(WINDOW_TICKS, micros(config.hello_interval))),
        linkstate: Mutex::new(LinkStateDb::new(&graph, micros(config.link_state_max_age))),
        graph_cache: GraphCache::new(Arc::clone(&graph), scheme_params),
        pending_lsa: Mutex::new(HashMap::new()),
        damper: Mutex::new(FlapDamper::new(
            micros(config.flap_hold_down),
            FLAP_PENALTY_HALF_LIFE,
            FLAP_SUPPRESS_THRESHOLD,
        )),
        advertised: Mutex::new(HashMap::new()),
        supervision: Supervision::new(now_us()),
        dedup: Mutex::new(DedupWindows::default()),
        send_links: Mutex::new(HashMap::new()),
        recv_links: Mutex::new(HashMap::new()),
        receivers: ShardedMap::new(),
        sessions: Mutex::new(Vec::new()),
        frame_pool: Mutex::new(BufferPool::default()),
        packet_scratch: Mutex::new(ScratchVecPool::default()),
        shipper_tx,
        control_tx,
        queued_data: AtomicU64::new(0),
        overload: Mutex::new(overload),
        scheme_params,
        shipment_order: AtomicU64::new(0),
        metrics: MetricsRegistry::new(JOURNAL_CAPACITY),
        hello_seq: AtomicU64::new(0),
        ls_seq: AtomicU64::new(0),
        ls_epoch: now_us().as_micros(),
        originations_paused: AtomicBool::new(false),
        config,
    });
    (shared, timers)
}

impl OverlayHandle {
    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.shared.config.node
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.shared.socket.local_addr().expect("bound socket has an address")
    }

    /// Opens a sending session at this node for the scheme's flow, in
    /// the default [`SlaClass::Timely`] service class.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] when the scheme's flow does
    /// not originate here, and [`OverlayError::AdmissionDenied`] when
    /// the node is at its configured sender capacity.
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
    /// not originate here, and [`OverlayError::AdmissionDenied`] when
    /// the node is at its configured sender capacity
    /// ([`NodeConfig::sender_capacity`]).
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
        let slot = self.admit(Route::Scheme(scheme), flow, class)?;
        Ok(FlowSender(Session::new(Arc::clone(&self.shared), slot, requirement.deadline)))
    }

    /// Admission control for every kind of sending session: refuse work
    /// beyond the configured capacity instead of absorbing it and
    /// failing every class.
    fn admit(
        &self,
        route: Route,
        flow: Flow,
        class: SlaClass,
    ) -> Result<Arc<Mutex<SessionSlot>>, OverlayError> {
        let mut sessions = self.shared.sessions.lock();
        let capacity = self.shared.config.sender_capacity;
        if sessions.len() >= capacity {
            return Err(OverlayError::AdmissionDenied { active: sessions.len(), capacity });
        }
        let edge_count = self.shared.graph.edge_count();
        let slot = Arc::new(Mutex::new(SessionSlot::new(route, flow, class, edge_count)));
        sessions.push(Arc::clone(&slot));
        Ok(slot)
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
    /// (e.g. a receiver is unreachable or the set is empty), and
    /// [`OverlayError::AdmissionDenied`] at sender capacity.
    pub fn open_group_sender(
        &self,
        receivers: &[NodeId],
        group_id: u32,
        kind: MulticastKind,
        requirement: ServiceRequirement,
        class: SlaClass,
    ) -> Result<FlowGroup, OverlayError> {
        let flow = Flow::group(self.node_id(), group_id);
        let graph =
            self.shared.graph_cache.multicast(self.node_id(), receivers, kind, requirement)?;
        let slot = self.admit(Route::Group { graph, kind, requirement }, flow, class)?;
        Ok(FlowGroup(Session::new(Arc::clone(&self.shared), slot, requirement.deadline)))
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
        if source.index() >= self.shared.graph.node_count() {
            return Err(OverlayError::UnknownNode(source));
        }
        let flow = Flow::group(source, group_id);
        let (tx, rx) = channel::bounded(DELIVERY_QUEUE);
        self.shared.receivers.insert(flow, tx);
        Ok(FlowReceiver::new(rx))
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
        let (tx, rx) = channel::bounded(DELIVERY_QUEUE);
        self.shared.receivers.insert(flow, tx);
        Ok(FlowReceiver::new(rx))
    }

    /// The runtime-adjustable fault plan for this node's out-links.
    pub fn faults(&self) -> &FaultPlan {
        &self.shared.faults
    }

    /// This node's current view of network-wide link conditions.
    pub fn network_state(&self) -> NetworkState {
        self.shared.linkstate.lock().network_state(now_us())
    }

    /// Counters of this node's precomputed-graph cache (hits, misses,
    /// link-state invalidations).
    pub fn graph_cache_stats(&self) -> GraphCacheStats {
        self.shared.graph_cache.stats()
    }

    /// How many origins have reported link state so far.
    pub fn link_state_origins(&self) -> usize {
        self.shared.linkstate.lock().origins_heard()
    }

    /// Full observability snapshot: node-wide counters, per-flow and
    /// per-link counters, the event journal, and the degradation flag.
    /// Serde-serializable.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.snapshot(self.node_id());
        snap.degraded = self.shared.degraded();
        snap.link_state = self.shared.linkstate.lock().digest();
        snap.graph_cache = self.shared.graph_cache.stats();
        snap
    }

    /// True while the node runs without a full complement of healthy
    /// protocol threads — a supervised thread recently crashed or has
    /// stopped heartbeating.
    pub fn is_degraded(&self) -> bool {
        self.shared.degraded()
    }

    /// Makes the named protocol thread panic at its next checkpoint
    /// (fault injection for supervision tests; the supervisor catches
    /// the panic, journals it, and restarts the thread).
    pub fn inject_thread_panic(&self, thread: NodeThread) {
        self.shared.supervision.panic_requests[thread_index(thread)].store(true, Ordering::Relaxed);
    }

    /// Per-origin `(epoch, seq)` summary of this node's link-state
    /// database — the same digest the anti-entropy exchange advertises.
    pub fn link_state_digest(&self) -> Vec<DigestEntry> {
        self.shared.linkstate.lock().digest()
    }

    /// Pauses (or resumes) this node's link-state origination. While
    /// paused the node stops minting new `(epoch, seq)` stamps but
    /// keeps probing hellos, answering digests, and flooding other
    /// origins' reports — so databases settle to a fixed fingerprint
    /// instead of chasing the refresh cadence. Collectors use this as
    /// a quiesce window right before taking comparable snapshots
    /// across nodes; forwarding is unaffected.
    pub fn set_origination_paused(&self, paused: bool) {
        self.shared.originations_paused.store(paused, Ordering::Relaxed);
    }

    /// This node's direct measurements of the link *from* `neighbor`:
    /// `(estimated loss, smoothed RTT if an echo returned)`.
    pub fn link_quality(&self, neighbor: NodeId) -> (f64, Option<Micros>) {
        let monitor = self.shared.monitor.lock();
        (monitor.loss_from(neighbor, now_us()), monitor.rtt_to(neighbor))
    }

    /// Total datagrams currently held for possible retransmission
    /// across all out-links.
    pub fn retransmit_backlog(&self) -> usize {
        self.shared.send_links.lock().values().map(|l| l.buffer.len()).sum()
    }

    /// Flows this node currently holds a duplicate-suppression window
    /// for (idle ones are reclaimed on the ticker).
    pub fn dedup_flows(&self) -> usize {
        self.shared.dedup.lock().len()
    }

    /// The node's current overload degradation level (0 = full
    /// redundancy on every class; see `docs/RESILIENCE.md`).
    pub fn overload_level(&self) -> u8 {
        self.shared.overload.lock().level()
    }

    /// Data shipments currently queued toward the wire — the depth
    /// signal the shed bands and the overload detector read.
    pub fn outbound_queue_depth(&self) -> u64 {
        self.shared.queued_data.load(Ordering::Relaxed)
    }

    /// Floods this node's outbound data queue with `shipments`
    /// synthetic bulk-class shipments that evaporate (addressed to no
    /// peer) after `dwell`: deterministic overload pressure for chaos
    /// and soak tests, without touching the wire.
    pub fn inject_overload(&self, shipments: usize, dwell: Duration) {
        self.shared.inject_overload(shipments, dwell);
    }

    /// Asks the node to stop without waiting for it, so a cluster can
    /// stop every node before joining any.
    pub(crate) fn request_stop(&self) {
        self.shared.stop();
    }

    /// Stops the node and waits for both its threads. Every shipment
    /// parked before the call leaves at its departure time first:
    /// shutdown returned means flushed.
    pub fn shutdown(self) {
        self.request_stop();
        self.threads.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timers_at(tick: Instant) -> Timers {
        let (_, data_rx) = channel::bounded(1);
        let (_, control_rx) = channel::unbounded();
        Timers {
            heap: BinaryHeap::new(),
            data_rx,
            control_rx,
            next_hello: tick + Duration::from_millis(50),
            next_ls: tick + Duration::from_millis(200),
            next_digest: tick + Duration::from_millis(1_000),
        }
    }

    fn parked(depart_at: Micros) -> Shipment {
        Shipment { to: NodeId::new(0), datagram: Bytes::new(), depart_at, order: 0, class: None }
    }

    #[test]
    fn next_wake_is_the_earliest_departure_or_protocol_deadline() {
        let tick = Instant::now();
        let now = Micros::from_millis(1_000);
        let ms = Duration::from_millis;
        let mut timers = timers_at(tick);
        assert_eq!(timers.next_wake(true, now, tick), Some(ms(50)), "hello is earliest");
        timers.next_hello = tick + ms(300);
        assert_eq!(timers.next_wake(true, now, tick), Some(ms(200)), "then link state");
        timers.next_ls = tick + ms(2_000);
        assert_eq!(timers.next_wake(true, now, tick), Some(ms(300)), "hello again");
        timers.next_hello = tick + ms(5_000);
        assert_eq!(timers.next_wake(true, now, tick), Some(ms(1_000)), "then the digest");
        timers.heap.push(parked(now.saturating_add(Micros::from_millis(7))));
        timers.heap.push(parked(now.saturating_add(Micros::from_millis(3))));
        assert_eq!(timers.next_wake(true, now, tick), Some(ms(3)), "heap head beats them all");
        assert_eq!(
            timers.next_wake(true, now.saturating_add(Micros::from_millis(9)), tick + ms(9)),
            Some(Duration::ZERO),
            "an overdue departure wakes at once"
        );
        // A stopping node waits for departures only, then for nothing.
        assert_eq!(timers.next_wake(false, now, tick), Some(ms(3)));
        timers.heap.clear();
        assert_eq!(timers.next_wake(false, now, tick), None);
    }

    #[test]
    fn fresh_timers_fire_hellos_first() {
        let config = NodeConfig::new(NodeId::new(0), "127.0.0.1:0".parse().unwrap());
        let (_, data_rx) = channel::bounded(1);
        let (_, control_rx) = channel::unbounded();
        let timers = Timers::new(&config, data_rx, control_rx);
        assert!(timers.next_ls > timers.next_hello);
        assert!(timers.next_digest > timers.next_hello);
        assert_eq!(
            timers.next_wake(true, now_us(), Instant::now()),
            Some(Duration::ZERO),
            "hello duty is due immediately"
        );
    }
}
