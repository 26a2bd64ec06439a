//! The data plane: injecting a session's packets, sending a run down a
//! link, the receive checks, dissemination along the mask, and
//! hop-by-hop recovery (NACK service and re-requests).

use super::{Cx, NodeCore, SessionId};
use crate::metrics::EventKind;
use crate::recovery::{retransmit_worthwhile, SendBuffer, NACK_REREQUEST_AFTER, RETRANSMIT_BUFFER};
use crate::session::Delivery;
use crate::wire::{self, DataPacket, Message};
use bytes::Bytes;
use dg_core::{Flow, SlaClass};
use dg_topology::NodeId;

pub(super) struct SendLink {
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
        let (flow, class, deadline, mask) = (slot.flow, slot.class, slot.deadline, slot.mask());
        // The run's payloads are copied once, into one buffer the
        // packets slice (as a relay's packets slice the frame they
        // arrived in): one allocation a call, not one a packet.
        let copied = Bytes::from(payloads.concat());
        let mut end = 0;
        let mut packets = std::mem::take(&mut self.packet_scratch);
        packets.extend(payloads.iter().zip(first_seq..).map(|(p, flow_seq)| {
            let start = end;
            end += p.len();
            DataPacket {
                flow,
                flow_seq,
                sent_at: cx.now,
                deadline,
                link_seq: 0, // assigned per link at transmission
                retransmission: false,
                class,
                mask: mask.clone(),
                payload: copied.slice(start..end),
            }
        }));
        self.disseminate_batch(cx, &packets);
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

    /// Encodes `packets` from link sequence `seq` into a pooled buffer
    /// and queues the frame for `neighbor`.
    fn frame_data(&mut self, cx: &mut Cx, neighbor: NodeId, packets: &[DataPacket], seq: u64) {
        let mut buf = self.frame_pool.get();
        wire::encode_data_frame(self.me(), packets, seq, &mut buf);
        cx.frame(neighbor, Bytes::from(buf), Some(packets[0].class));
    }

    /// Sends a run of data packets toward `neighbor`: assigns them
    /// consecutive per-link sequences, buffers them for recovery, and
    /// coalesces them into as few datagrams as
    /// [`crate::NodeConfig::max_batch_bytes`] allows — one syscall, one
    /// checksum, one fault verdict per wire datagram instead of per
    /// packet (one that ends up carrying a single packet is a plain
    /// DATA frame; see [`wire::encode_data_frame`]).
    ///
    /// A run shares one `(flow, class, mask)` ([`same_run`]): admission
    /// is charged once for the whole run. Returns whether the run was
    /// admitted (its transmissions are the caller's to count).
    fn send_data_batch(&mut self, cx: &mut Cx, neighbor: NodeId, packets: &[DataPacket]) -> bool {
        let Some(first) = packets.first() else { return false };
        debug_assert!(
            packets.iter().all(|p| same_run(first, p)),
            "a run shares one (flow, class, mask)"
        );
        // Shed before touching the link sequence or the retransmit
        // buffer: a shed packet must not open a gap the neighbour
        // would NACK for. The whole run is admitted or shed as a unit.
        if !self.admit_data(cx.backlog, first.class, packets.len() as u64) {
            return false;
        }
        let link = self.send_links.entry(neighbor).or_insert_with(|| SendLink {
            next_seq: 0,
            buffer: SendBuffer::new(RETRANSMIT_BUFFER),
        });
        let first_seq = link.next_seq;
        link.next_seq += packets.len() as u64;
        for (p, seq) in packets.iter().zip(first_seq..) {
            link.buffer.push(seq, p.clone());
        }
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
            self.frame_data(cx, neighbor, &packets[start..end], first_seq + start as u64);
            start = end;
        }
        true
    }

    /// Disseminates a run of packets (one `(flow, class, mask)`; a
    /// single packet is a run of one) from this node along the mask's
    /// out-edges, batching the per-neighbour sends; the run's
    /// transmissions are counted once, for all the links that took it.
    fn disseminate_batch(&mut self, cx: &mut Cx, packets: &[DataPacket]) {
        let Some(first) = packets.first() else { return };
        let mut links = 0;
        for i in 0..self.out_links.len() {
            let (edge, neighbor) = self.out_links[i];
            if first.mask_contains(edge) && self.send_data_batch(cx, neighbor, packets) {
                links += 1;
            }
        }
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
            self.frame_data(cx, from, std::slice::from_ref(&packet), seq);
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
    /// consecutive packets of one flow.
    pub(super) fn handle_data(&mut self, cx: &mut Cx, from: NodeId, packets: &[DataPacket]) {
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
        for stretch in packets.chunk_by(|a, b| a.flow == b.flow) {
            self.accept_stretch(cx, stretch);
        }
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
    /// are delivered and its surviving runs forwarded.
    fn accept_stretch(&mut self, cx: &mut Cx, stretch: &[DataPacket]) {
        let first = &stretch[0];
        let flow = first.flow;
        let received = stretch.len() as u64;
        self.stats.counters.data_received += received;
        if !self.plausible(flow) {
            self.stats.counters.malformed += received;
            return;
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
        // `(flow, class, mask)`, not yet forwarded.
        let mut start = 0;
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
            if !accepted || (start < i && !same_run(&stretch[start], packet)) {
                self.disseminate_batch(cx, &stretch[start..i]);
                start = if accepted { i } else { i + 1 };
            }
        }
        self.disseminate_batch(cx, &stretch[start..]);
        self.verdict_scratch = verdicts;
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
