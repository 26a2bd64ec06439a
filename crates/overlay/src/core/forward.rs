//! The data plane: injecting a session's packets, sending a run down a
//! link, the receive checks, dissemination along the mask, and
//! hop-by-hop recovery (NACK service and re-requests).

use super::{Cx, NodeCore, SessionId};
use crate::metrics::EventKind;
use crate::recovery::{retransmit_worthwhile, SendBuffer, NACK_REREQUEST_AFTER, RETRANSMIT_BUFFER};
use crate::session::Delivery;
use crate::wire::{self, DataFrame, DataPacket, HopHeader, Message};
use bytes::Bytes;
use dg_core::{Flow, SlaClass};
use dg_topology::NodeId;
use std::ops::Range;

pub(super) struct SendLink {
    next_seq: u64,
    /// Recently sent packets, kept decoded: clones are cheap
    /// (reference-counted mask/payload) and the NACK path re-encodes on
    /// demand, so the hot path never clones an encoded frame just for
    /// the buffer.
    buffer: SendBuffer<DataPacket>,
}

/// One datagram's worth of a run, in wire form: how many of the run's
/// packets, their records, and the hash state over those.
pub(super) struct Chunk {
    packets: usize,
    body: Bytes,
    state: u64,
}

/// Whether two packets may share a forwarding run: same flow, same SLA
/// class, same dissemination mask — everything admission, accounting
/// and the out-neighbour choice depend on.
fn same_run(a: &DataPacket, b: &DataPacket) -> bool {
    a.flow == b.flow && a.class == b.class && a.mask == b.mask
}

impl NodeCore {
    /// Stamps `payloads` as consecutive packets of `session` from
    /// `first_seq` — one timestamp, the slot's current mask — and
    /// disseminates them as one run.
    pub(super) fn inject(
        &mut self,
        cx: &mut Cx,
        session: SessionId,
        first_seq: u64,
        payloads: &[&[u8]],
    ) {
        if payloads.is_empty() {
            return;
        }
        let slot = self.slot_mut(session);
        let mut stamp = DataPacket {
            flow: slot.flow,
            flow_seq: first_seq,
            sent_at: cx.now,
            deadline: slot.deadline,
            link_seq: 0, // the frame's, assigned per link at transmission
            retransmission: false,
            class: slot.class,
            mask: slot.mask(),
            payload: Bytes::new(),
        };
        // The caller's payloads are copied once, into the records the
        // run leaves as on every link, and the packets slice that body
        // (as a relay's packets slice the frame they arrived in): one
        // allocation and one copy a call.
        let mask_len = stamp.mask.len();
        let mut body =
            Vec::with_capacity(payloads.iter().map(|p| wire::record_len(mask_len, p.len())).sum());
        for payload in payloads {
            wire::put_record(&mut body, &stamp, payload);
            stamp.flow_seq += 1;
        }
        let body = Bytes::from(body);
        let mut end = 0;
        let mut packets = std::mem::take(&mut self.packet_scratch);
        packets.extend(payloads.iter().zip(first_seq..).map(|(p, flow_seq)| {
            // A record ends with its payload.
            end += wire::record_len(mask_len, p.len());
            let (mask, payload) = (stamp.mask.clone(), body.slice(end - p.len()..end));
            DataPacket { flow_seq, mask, payload, ..stamp }
        }));
        self.disseminate_batch(cx, &packets, &body, None);
        packets.clear();
        self.packet_scratch = packets;
    }

    /// Priority admission of a run of data packets against the class
    /// shed bands: bulk is admitted only into the bottom half of the
    /// outbound data queue, timely into the bottom three quarters, and
    /// surgical up to the full bound — so under pressure bulk sheds
    /// first, then timely, and surgical last. Returns `false` (and
    /// counts the shed) when the run must be dropped.
    fn admit_data(&mut self, backlog: u64, class: SlaClass, count: u64) -> bool {
        let bound = self.config.shipper_queue as u64;
        let band = match class {
            SlaClass::Bulk => bound / 2,
            SlaClass::Timely => bound - bound / 4,
            SlaClass::Surgical => bound,
        };
        if backlog < band {
            return true;
        }
        // The per-class shed counter plus the shipper-side drop cause
        // (`queue_drops` is derived from the per-cause counters at read
        // time; nothing counts into it here).
        self.stats.shed(class, count);
        self.stats.counters.shipper_drops += count;
        false
    }

    /// Cuts a run into the datagrams it leaves as — as few as
    /// [`crate::NodeConfig::max_batch_bytes`] allows, always at least one
    /// packet each — and says each one's hash state: `state` when the
    /// run fits one datagram and its state is known (a frame forwarded
    /// as it arrived), else a pass over the chunk's bytes.
    fn chunk_run(
        &self,
        packets: &[DataPacket],
        body: &Bytes,
        state: Option<u64>,
        chunks: &mut Vec<Chunk>,
    ) {
        let budget = self.config.max_batch_bytes;
        let (mut start, mut at) = (0, 0);
        while start < packets.len() {
            let mut end = start + 1;
            let mut size = packets[start].record_len();
            while end < packets.len() {
                let next = packets[end].record_len();
                if size + next > budget {
                    break;
                }
                size += next;
                end += 1;
            }
            let bytes = body.slice(at..at + size);
            let state = match state {
                Some(known) if size == body.len() => known,
                _ => wire::body_state(&bytes),
            };
            chunks.push(Chunk { packets: end - start, body: bytes, state });
            (start, at) = (end, at + size);
        }
        debug_assert_eq!(at, body.len(), "the body is the packets' records");
    }

    /// Sends a run of data packets toward `neighbor`: assigns them
    /// consecutive per-link sequences, buffers them for recovery, and
    /// frames each of the run's `chunks` — a 22-byte header, a copy of
    /// the chunk's records, the sum finished from its state: one
    /// syscall and one fault verdict per wire datagram instead of per
    /// packet, and no pass over the bytes per link (one that ends up
    /// carrying a single packet is a plain DATA frame).
    ///
    /// A run shares one `(flow, class, mask)` ([`same_run`]) and was
    /// admitted as a unit; its transmissions are the caller's to count.
    fn send_data_batch(
        &mut self,
        cx: &mut Cx,
        neighbor: NodeId,
        packets: &[DataPacket],
        chunks: &[Chunk],
    ) {
        let link = self.send_links.entry(neighbor).or_insert_with(|| SendLink {
            next_seq: 0,
            buffer: SendBuffer::new(RETRANSMIT_BUFFER),
        });
        let mut seq = link.next_seq;
        link.next_seq += packets.len() as u64;
        for (p, seq) in packets.iter().zip(seq..) {
            link.buffer.push(seq, p.clone());
        }
        for chunk in chunks {
            let header = HopHeader {
                from: self.config.node,
                first_link_seq: seq,
                retransmission: false,
                count: chunk.packets,
            };
            let mut buf = self.frame_pool.get();
            wire::put_data_frame(header, &chunk.body, chunk.state, &mut buf);
            cx.frame(neighbor, Bytes::from(buf), Some(packets[0].class));
            seq += chunk.packets as u64;
        }
    }

    /// Disseminates a run of packets (one `(flow, class, mask)`; a
    /// single packet is a run of one) from this node along the mask's
    /// out-edges. `body` is the run in wire form — its packets' records
    /// back to back — and `state` the hash state over it where somebody
    /// already knows it; the run is cut into datagrams and hashed at
    /// most once, for all the links that take it, and its transmissions
    /// are counted once.
    fn disseminate_batch(
        &mut self,
        cx: &mut Cx,
        packets: &[DataPacket],
        body: &Bytes,
        state: Option<u64>,
    ) {
        let Some(first) = packets.first() else { return };
        debug_assert!(
            packets.iter().all(|p| same_run(first, p)),
            "a run shares one (flow, class, mask)"
        );
        let mut chunks = std::mem::take(&mut self.chunk_scratch);
        let mut links = 0;
        for i in 0..self.out_links.len() {
            let (edge, neighbor) = self.out_links[i];
            // Shed before touching the link sequence or the retransmit
            // buffer: a shed packet must not open a gap the neighbour
            // would NACK for. The whole run is admitted or shed as a
            // unit, link by link.
            if !first.mask_contains(edge)
                || !self.admit_data(cx.backlog, first.class, packets.len() as u64)
            {
                continue;
            }
            if chunks.is_empty() {
                self.chunk_run(packets, body, state, &mut chunks);
            }
            self.send_data_batch(cx, neighbor, packets, &chunks);
            links += 1;
        }
        chunks.clear();
        self.chunk_scratch = chunks;
        if links > 0 {
            let transmissions = links * packets.len() as u64;
            self.stats.counters.data_sent += transmissions;
            self.stats.flow(first.flow).transmissions += transmissions;
        }
    }

    /// Serves a NACK from `from`: each requested sequence still in the
    /// link's buffer is retransmitted once, unless it can no longer
    /// make its deadline.
    pub(super) fn handle_nack(&mut self, cx: &mut Cx, from: NodeId, missing: Vec<u64>) {
        let requested = missing.len() as u64;
        self.stats.counters.retransmit_requests_received += requested;
        let link = self.send_links.get_mut(&from);
        let mut resends: Vec<(u64, DataPacket)> = link.map_or_else(Vec::new, |link| {
            missing.into_iter().filter_map(|seq| Some((seq, link.buffer.take(seq)?))).collect()
        });
        // Deadline-aware recovery: a retransmission that cannot
        // reach the neighbour before the packet's deadline only
        // burns bandwidth. Suppressed packets stay consumed from
        // the buffer — the NACK was their one recovery chance.
        let rtt = self.monitor.rtt_to(from);
        let found = resends.len() as u64;
        resends.retain(|(_, p)| retransmit_worthwhile(p.sent_at, p.deadline, cx.now, rtt));
        let served = resends.len() as u64;
        let suppressed = found - served;
        let missed = requested - found;
        self.stats.counters.retransmits_suppressed += suppressed;
        if served > 0 {
            self.stats.counters.retransmissions_served += served;
            self.stats
                .record_at(cx.now, EventKind::RecoveryServed { neighbor: from, packets: served });
        }
        if missed > 0 {
            self.stats.counters.retransmit_misses += missed;
            self.stats
                .record_at(cx.now, EventKind::RecoveryMissed { neighbor: from, packets: missed });
        }
        for (seq, packet) in resends {
            // Attribute the retransmission to its flow so cost
            // accounting matches the simulator (originals +
            // retransmissions). This path only runs on loss, so
            // re-encoding here keeps the hot path free of frame
            // clones.
            self.stats.flow(packet.flow).transmissions += 1;
            // The one place the hop's retransmission bit is set: the
            // packet leaves again alone, under the sequence it had.
            let header = HopHeader {
                from: self.config.node,
                first_link_seq: seq,
                retransmission: true,
                count: 1,
            };
            let mut buf = self.frame_pool.get();
            wire::encode_data_frame(header, std::slice::from_ref(&packet), &mut buf);
            cx.frame(from, Bytes::from(buf), Some(packet.class));
        }
    }

    /// Handles the data packets of one incoming frame (a DATA frame is
    /// a frame of one), all of them arrived at `cx.now`. Every packet
    /// has its own outcome — a gap it exposes is NACKed, a copy already
    /// seen is suppressed, a packet for this node is delivered on time
    /// or late, an expired one goes no further — and the survivors leave
    /// as they arrived: every maximal run of consecutive accepted
    /// packets sharing one `(flow, class, mask)` is forwarded as one
    /// batch per out-neighbour. What does not depend on the packet is
    /// done once a frame, and a flow's window, counters and
    /// receiver are looked up — and the counters added — per stretch of
    /// consecutive packets of one flow. A run that is the whole frame —
    /// every frame on an undisturbed link — leaves with the body and the
    /// hash state it arrived with.
    pub(super) fn handle_data(&mut self, cx: &mut Cx, frame: &DataFrame) {
        let (from, packets) = (frame.from, &frame.packets);
        // Hop-by-hop recovery: the frame's link sequences against this
        // in-link's tracker. NACKs leave before anything is delivered.
        let gaps = self
            .recv_links
            .entry(from)
            .or_default()
            .observe_run(cx.now, packets.iter().map(|p| (p.link_seq, p.sent_at, p.deadline)));
        for missing in gaps {
            let packets = missing.len() as u64;
            self.stats.counters.nack_messages_sent += 1;
            self.stats.counters.retransmit_requests_issued += packets;
            self.stats.record_at(cx.now, EventKind::RecoveryRequested { neighbor: from, packets });
            cx.control(self.me(), from, Message::Nack { missing });
        }
        // Where in the frame's body the next stretch's records begin.
        let mut at = 0;
        for stretch in packets.chunk_by(|a, b| a.flow == b.flow) {
            at = self.accept_stretch(cx, frame, stretch, at);
        }
    }

    /// Forwards the run of `frame` whose records are `records` of its
    /// body.
    fn forward_run(
        &mut self,
        cx: &mut Cx,
        frame: &DataFrame,
        run: &[DataPacket],
        records: Range<usize>,
    ) {
        if run.is_empty() {
            return;
        }
        let whole = records.len() == frame.body.len();
        self.disseminate_batch(cx, run, &frame.body.slice(records), whole.then_some(frame.state));
    }

    /// Whether `flow` can exist on this overlay. Flow ids arrive
    /// unvalidated off the wire and key per-flow state (its counters, a
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
    /// are delivered and its surviving runs forwarded. The stretch's
    /// records begin `at` bytes into `frame`'s body; returns where they
    /// end.
    fn accept_stretch(
        &mut self,
        cx: &mut Cx,
        frame: &DataFrame,
        stretch: &[DataPacket],
        mut at: usize,
    ) -> usize {
        let first = &stretch[0];
        let flow = first.flow;
        let received = stretch.len() as u64;
        self.stats.counters.data_received += received;
        if !self.plausible(flow) {
            self.stats.counters.malformed += received;
            return at + stretch.iter().map(DataPacket::record_len).sum::<usize>();
        }
        // A packet's verdict: `None` for a copy already seen, else
        // whether its deadline still holds.
        let window = self.dedup.flow(flow, first.flow_seq, cx.now);
        let mut verdicts = std::mem::take(&mut self.verdict_scratch);
        verdicts.clear();
        verdicts
            .extend(stretch.iter().map(|p| window.accept(p.flow_seq).then(|| !p.expired(cx.now))));
        let fresh = verdicts.iter().flatten().count() as u64;
        let on_time = verdicts.iter().flatten().filter(|&&on_time| on_time).count() as u64;
        let late = fresh - on_time;
        // Unicast delivers at the flow's destination; a group flow
        // delivers at every node with an open receiver session for it
        // (group membership is not wire-visible — the mask is).
        let unicast_here = flow.destination == self.me();
        let receiver = (unicast_here || flow.is_group()) && self.receivers.contains(&flow);
        if unicast_here || receiver {
            let counts = self.stats.flow(flow);
            counts.packets_on_time += on_time;
            counts.packets_late += late;
            self.stats.counters.delivered_on_time += on_time;
            self.stats.counters.delivered_late += late;
        }
        self.stats.counters.duplicates += received - fresh;
        self.stats.counters.expired += late;
        // `stretch[start..i]` is the pending run: accepted, one
        // `(flow, class, mask)`, not yet forwarded; its records begin
        // `run_at` bytes into the body, packet `i`'s `at` bytes in.
        let (mut start, mut run_at) = (0, at);
        for (i, (packet, &verdict)) in stretch.iter().zip(&verdicts).enumerate() {
            if let (true, Some(on_time)) = (receiver, verdict) {
                cx.out.deliveries.push((
                    packet.class,
                    Delivery {
                        flow,
                        flow_seq: packet.flow_seq,
                        payload: packet.payload.clone(),
                        sent_at: packet.sent_at,
                        delivered_at: cx.now,
                        on_time,
                    },
                ));
            }
            let accepted = verdict == Some(true);
            let next = at + packet.record_len();
            if !accepted || (start < i && !same_run(&stretch[start], packet)) {
                self.forward_run(cx, frame, &stretch[start..i], run_at..at);
                (start, run_at) = if accepted { (i, at) } else { (i + 1, next) };
            }
            at = next;
        }
        self.forward_run(cx, frame, &stretch[start..], run_at..at);
        self.verdict_scratch = verdicts;
        at
    }

    /// The hello tick's pass over the in-links' gap trackers. Each hands
    /// the link monitor the loss evidence its data stream gathered
    /// since the last tick, and names the gaps whose NACK has gone
    /// unanswered: exactly one extra chance per gap, covering the case
    /// where the NACK itself was lost while the neighbour's buffer
    /// still holds the packet — unless the packet's deadline can no
    /// longer be met, when asking again only buys a retransmission
    /// that is suppressed, missed, or expires on arrival.
    pub(super) fn service_recv_links(&mut self, cx: &mut Cx) {
        let counters = &mut self.stats.counters;
        for (&neighbor, tracker) in &mut self.recv_links {
            let (expected, received) = tracker.take_evidence();
            self.monitor.record_data_tick(neighbor, expected, received, cx.now);
            let (missing, hopeless) =
                tracker.due_rerequests(cx.now, NACK_REREQUEST_AFTER, self.monitor.rtt_to(neighbor));
            counters.nack_rerequests_skipped += hopeless;
            if !missing.is_empty() {
                counters.nack_rerequests += missing.len() as u64;
                counters.nack_messages_sent += 1;
                cx.control(self.config.node, neighbor, Message::Nack { missing });
            }
        }
    }
}
