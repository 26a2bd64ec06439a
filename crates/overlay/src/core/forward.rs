//! The data plane: injecting a session's packets, sending a run down a
//! link, the receive checks, dissemination along the mask, and
//! hop-by-hop recovery (NACK service and re-requests).

use super::{Cx, NodeCore, SessionId};
use crate::metrics::EventKind;
use crate::recovery::{
    retransmit_worthwhile, SendBuffer, Take, NACK_REREQUEST_AFTER, RETRANSMIT_BUFFER,
};
use crate::session::Delivery;
use crate::wire::{self, DataFrame, HopHeader, Message, Record};
use bytes::Bytes;
use dg_core::{Flow, SlaClass};
use dg_topology::{Micros, NodeId};
use std::ops::Range;

pub(super) struct SendLink {
    next_seq: u64,
    /// The data frames sent on the link, each held once, as it went on
    /// the wire, under the sequences of its records: the NACK path
    /// copies a record out of one. A frame is held while one of its
    /// packets can still make its deadline and its last sequence is
    /// among the last [`RETRANSMIT_BUFFER`] — so a link holds the frames
    /// sent within the budget plus one hello interval, and never more
    /// than ⌈`RETRANSMIT_BUFFER` / records per frame⌉ + 1 (65 of 32
    /// records) — then its buffer goes back to the node's frame pool.
    pub(super) buffer: SendBuffer<Bytes>,
}

/// One datagram's worth of a run: how many of its records, their span
/// of the body, the hash state over that span, and the latest expiry
/// among them.
pub(super) struct Chunk {
    records: usize,
    span: Range<usize>,
    state: u64,
    expires: Micros,
}

/// Whether two records of `body` may share a forwarding run: same flow,
/// same SLA class, same dissemination mask — everything admission,
/// accounting and the out-neighbour choice depend on.
fn same_run(body: &[u8], a: &Record, b: &Record) -> bool {
    a.flow == b.flow && a.class == b.class && body[a.mask()] == body[b.mask()]
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
        let (mask, mut fields) =
            (slot.mask(), Record::new(slot.flow, first_seq, cx.now, slot.deadline, slot.class));
        // The caller's payloads are copied once, into the records the
        // run leaves as on every link, each located as it is written: a
        // pooled buffer and one copy a call.
        let mut body = self.frame_pool.get();
        body.reserve(payloads.iter().map(|p| wire::record_len(mask.len(), p.len())).sum());
        let mut records = std::mem::take(&mut self.record_scratch);
        for payload in payloads {
            records.push(wire::put_record(&mut body, fields, &mask, payload));
            fields.flow_seq += 1;
        }
        self.disseminate_batch(cx, &records, &body, None);
        records.clear();
        self.record_scratch = records;
        self.frame_pool.put(body);
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

    /// Cuts a run of `body`'s records into the datagrams it leaves as —
    /// as few as [`crate::NodeConfig::max_batch_bytes`] allows, always
    /// at least one record each — and says each one's hash state:
    /// `state`, the whole body's where it is known (a frame forwarded as
    /// it arrived), for a chunk that is the whole body, else a pass over
    /// the chunk's bytes. A chunk expires with the last of its records.
    fn chunk_run(&self, run: &[Record], body: &[u8], state: Option<u64>, chunks: &mut Vec<Chunk>) {
        let budget = self.config.max_batch_bytes;
        let mut start = 0;
        while start < run.len() {
            // A run's records lie back to back.
            let from = run[start].at;
            let mut end = start + 1;
            while end < run.len() && run[end].end() - from <= budget {
                end += 1;
            }
            let span = from..run[end - 1].end();
            let state = match state {
                Some(known) if span == (0..body.len()) => known,
                _ => wire::body_state(&body[span.clone()]),
            };
            let expires = run[start..end].iter().map(Record::expires).max();
            let expires = expires.expect("a chunk holds at least one record");
            chunks.push(Chunk { records: end - start, span, state, expires });
            start = end;
        }
    }

    /// Sends a run of `count` records of `body` toward `neighbor`:
    /// assigns them consecutive per-link sequences, and frames each of
    /// the run's `chunks` — a 22-byte header in a pooled buffer, a copy
    /// of the chunk's records, the sum finished from its state — and
    /// keeps the frame in the link's retransmit buffer: one syscall and
    /// one fault verdict per wire datagram instead of per packet, no
    /// pass over the bytes per link, and one reference a frame (one
    /// that ends up carrying a single record is a plain DATA frame).
    ///
    /// A run shares one `(flow, class, mask)` ([`same_run`]) and was
    /// admitted as a unit; its transmissions are the caller's to count.
    fn send_data_batch(
        &mut self,
        cx: &mut Cx,
        neighbor: NodeId,
        count: usize,
        class: SlaClass,
        body: &[u8],
        chunks: &[Chunk],
    ) {
        let link = self.send_links.entry(neighbor).or_insert_with(|| SendLink {
            next_seq: 0,
            buffer: SendBuffer::new(RETRANSMIT_BUFFER),
        });
        let mut seq = link.next_seq;
        link.next_seq += count as u64;
        for chunk in chunks {
            let header = HopHeader {
                from: self.config.node,
                first_link_seq: seq,
                retransmission: false,
                count: chunk.records,
            };
            let mut buf = self.frame_pool.get();
            wire::put_data_frame(header, &body[chunk.span.clone()], chunk.state, &mut buf);
            let frame = Bytes::from(buf);
            let pool = &mut self.frame_pool;
            let held = frame.clone();
            link.buffer
                .push_run(seq, chunk.records, held, chunk.expires, cx.now, |old| pool.recycle(old));
            cx.frame(neighbor, frame, Some(class));
            seq += chunk.records as u64;
        }
    }

    /// Disseminates a run of `body`'s records (one `(flow, class,
    /// mask)`; a single record is a run of one; the records lie back to
    /// back) from this node along the mask's out-edges. `state` is the
    /// hash state over the whole body where somebody already knows it;
    /// the run is cut into datagrams and hashed at most once, for all
    /// the links that take it, and its transmissions are counted once.
    fn disseminate_batch(&mut self, cx: &mut Cx, run: &[Record], body: &[u8], state: Option<u64>) {
        let Some(first) = run.first() else { return };
        debug_assert!(
            run.iter().all(|r| same_run(body, first, r)),
            "a run shares one (flow, class, mask)"
        );
        let mask = &body[first.mask()];
        let mut chunks = std::mem::take(&mut self.chunk_scratch);
        let mut links = 0;
        for i in 0..self.out_links.len() {
            let (edge, neighbor) = self.out_links[i];
            // Shed before touching the link sequence or the retransmit
            // buffer: a shed packet must not open a gap the neighbour
            // would NACK for. The whole run is admitted or shed as a
            // unit, link by link.
            if !wire::mask_contains(mask, edge)
                || !self.admit_data(cx.backlog, first.class, run.len() as u64)
            {
                continue;
            }
            if chunks.is_empty() {
                self.chunk_run(run, body, state, &mut chunks);
            }
            self.send_data_batch(cx, neighbor, run.len(), first.class, body, &chunks);
            links += 1;
        }
        chunks.clear();
        self.chunk_scratch = chunks;
        if links > 0 {
            let transmissions = links * run.len() as u64;
            self.stats.counters.data_sent += transmissions;
            self.stats.flow(first.flow).transmissions += transmissions;
        }
    }

    /// Serves a NACK from `from`: each requested sequence still in the
    /// link's buffer is retransmitted once, unless it can no longer
    /// make its deadline. A sequence whose frame was let go on expiry
    /// is suppressed just as one still held but too late is.
    pub(super) fn handle_nack(&mut self, cx: &mut Cx, from: NodeId, missing: Vec<u64>) {
        let requested = missing.len() as u64;
        self.stats.counters.retransmit_requests_received += requested;
        let rtt = self.monitor.rtt_to(from);
        let (mut found, mut served) = (0, 0);
        if let Some(link) = self.send_links.get_mut(&from) {
            for seq in missing {
                let taken = link.buffer.take(seq);
                found += u64::from(!matches!(taken, Take::Missing));
                // A hopeless sequence's frame was let go because not one
                // of its packets could still make its deadline.
                let Take::Served(frame, place) = taken else { continue };
                let body = &frame[wire::DATA_HEADER_LEN..];
                let record = wire::nth_record(body, place);
                // Deadline-aware recovery: a retransmission that cannot
                // reach the neighbour before the packet's deadline only
                // burns bandwidth. A suppressed sequence stays served —
                // the NACK was its one recovery chance.
                if !retransmit_worthwhile(record.sent_at, record.deadline, cx.now, rtt) {
                    continue;
                }
                served += 1;
                // Attribute the retransmission to its flow so cost
                // accounting matches the simulator (originals +
                // retransmissions).
                self.stats.flow(record.flow).transmissions += 1;
                // The one place the hop's retransmission bit is set: the
                // record leaves again alone, byte for byte, under the
                // sequence it had. This path only runs on loss; it
                // hashes the one record.
                let header = HopHeader {
                    from: self.config.node,
                    first_link_seq: seq,
                    retransmission: true,
                    count: 1,
                };
                let bytes = &body[record.span()];
                let mut buf = self.frame_pool.get();
                wire::put_data_frame(header, bytes, wire::body_state(bytes), &mut buf);
                cx.frame(from, Bytes::from(buf), Some(record.class));
            }
        }
        let (suppressed, missed) = (found - served, requested - found);
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
    }

    /// Handles the `records` of one incoming frame (a DATA frame is a
    /// frame of one), all of them arrived at `cx.now`. Every packet has
    /// its own outcome — a gap it exposes is NACKed and judged by the
    /// link's problem detector ([`NodeCore::judge_on_gap`]), a copy
    /// already seen is suppressed, a packet for this node is delivered
    /// on time or late, an expired one goes no further — and the
    /// survivors leave as they arrived: every maximal run of consecutive accepted records
    /// sharing one `(flow, class, mask)` is forwarded as one batch per
    /// out-neighbour. Everything is read off the frame's body where it
    /// lies. What does not depend on the packet is done once a frame,
    /// and a flow's window, counters and receiver are looked up — and
    /// the counters added — per stretch of consecutive records of one
    /// flow. A run that is the whole frame — every frame on an
    /// undisturbed link — leaves with the body and the hash state it
    /// arrived with.
    pub(super) fn handle_data(&mut self, cx: &mut Cx, frame: &DataFrame, records: &[Record]) {
        let (from, first) = (frame.hop.from, frame.hop.first_link_seq);
        // Hop-by-hop recovery: the frame's link sequences against this
        // in-link's tracker. NACKs leave before anything is delivered.
        let sequenced = records.iter().enumerate();
        let gaps = self
            .recv_links
            .entry(from)
            .or_default()
            .observe_run(cx.now, sequenced.map(|(i, r)| (first + i as u64, r.sent_at, r.deadline)));
        // A frame that continues the stream costs this one branch. A
        // gap is fresh loss evidence: the link's detector judges it
        // now, not at the next hello tick.
        if !gaps.is_empty() {
            for missing in gaps {
                let packets = missing.len() as u64;
                self.stats.counters.nack_messages_sent += 1;
                self.stats.counters.retransmit_requests_issued += packets;
                self.stats
                    .record_at(cx.now, EventKind::RecoveryRequested { neighbor: from, packets });
                cx.control(self.me(), from, Message::Nack { missing });
            }
            self.judge_on_gap(cx, from);
        }
        for stretch in records.chunk_by(|a, b| a.flow == b.flow) {
            self.accept_stretch(cx, frame, stretch);
        }
    }

    /// Forwards a run of `frame`'s records.
    fn forward_run(&mut self, cx: &mut Cx, frame: &DataFrame, run: &[Record]) {
        self.disseminate_batch(cx, run, &frame.body, Some(frame.state));
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

    /// The receive checks for a frame's stretch of consecutive records
    /// of one flow: duplicate suppression and expiry decide each
    /// packet's verdict, the stretch is counted, and then its packets
    /// are delivered and its surviving runs forwarded.
    fn accept_stretch(&mut self, cx: &mut Cx, frame: &DataFrame, stretch: &[Record]) {
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
            .extend(stretch.iter().map(|r| window.accept(r.flow_seq).then(|| !r.expired(cx.now))));
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
        for (i, (record, &verdict)) in stretch.iter().zip(&verdicts).enumerate() {
            if let (true, Some(on_time)) = (receiver, verdict) {
                cx.out.deliveries.push((
                    record.class,
                    Delivery {
                        flow,
                        flow_seq: record.flow_seq,
                        // The one reference a packet takes of its frame.
                        payload: frame.body.slice(record.payload()),
                        sent_at: record.sent_at,
                        delivered_at: cx.now,
                        on_time,
                    },
                ));
            }
            let accepted = verdict == Some(true);
            if !accepted || (start < i && !same_run(&frame.body, &stretch[start], record)) {
                self.forward_run(cx, frame, &stretch[start..i]);
                start = if accepted { i } else { i + 1 };
            }
        }
        self.forward_run(cx, frame, &stretch[start..]);
        self.verdict_scratch = verdicts;
    }

    /// The hello tick's pass over the out-links' retransmit buffers:
    /// every frame at a buffer's front that no packet can still make
    /// its deadline from goes back to the pool, so a link that falls
    /// idle holds nothing a hello interval after its last budget ran
    /// out.
    pub(super) fn service_send_links(&mut self, now: Micros) {
        let pool = &mut self.frame_pool;
        for link in self.send_links.values_mut() {
            link.buffer.release_expired(now, |old| pool.recycle(old));
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
