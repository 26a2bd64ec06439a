//! Wire format of overlay packets.
//!
//! Every datagram is an [`Envelope`]: a fixed prelude (magic, version,
//! message type, sending node, integrity checksum) followed by one
//! [`Message`]. Data packets carry the flow's dissemination graph as an
//! edge bitmask, so intermediate nodes forward without any per-flow
//! routing state — the source alone decides the routing, per the
//! paper's architecture.
//!
//! The prelude checksum (64-bit FNV-1a over every byte except the
//! checksum field itself, folded to 32 bits; see `body_state`) turns
//! in-flight corruption into a clean decode error: a corrupted
//! datagram only ever increments the `malformed` counter, it can never
//! deliver a flipped payload or poison protocol state.
//!
//! A data frame is a *per-hop header* (the prelude, the first link
//! sequence, a hop-flags byte, the packet count) followed by a
//! *hop-invariant body* (one record a packet). The sum hashes the body
//! first and the header last, so a node that forwards a body as it
//! arrived — or fans one out to several neighbours — hashes it once
//! and finishes the sum per frame in three words.
//!
//! Two encode/decode surfaces exist: the classic allocating pair
//! ([`Envelope::encode`]/[`Envelope::decode`]) and the pooled-buffer
//! pair ([`Envelope::encode_into`]/[`Envelope::decode_shared`]). The
//! latter appends into a caller-supplied buffer and parses data packets
//! as zero-copy slices of the received frame. The node itself builds no
//! packets: it reads a data frame as records located in its one buffer
//! (`decode_data_frame`), parsed by the same record parser the envelope
//! decoders build their [`DataPacket`]s from.

use crate::OverlayError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dg_core::{Flow, SlaClass};
use dg_topology::{EdgeId, Micros, NodeId};
use std::ops::{Deref, Range};

/// First byte of every overlay datagram.
pub const MAGIC: u8 = 0xDC;
/// Wire protocol version. Version 2 added the prelude checksum, the
/// link-state origin epoch, and per-entry link-down flags; version 3
/// added batched data frames and the word-folded checksum; version 4
/// turned the data-body retransmission byte into a flags byte carrying
/// the SLA service class (bits 1–2); version 5 split a data frame into
/// a per-hop header and a hop-invariant body and hashes the body first,
/// in four lanes.
pub const VERSION: u8 = 5;
/// Maximum application payload per packet, chosen to keep the whole
/// datagram under a typical 1500-byte MTU.
pub const MAX_PAYLOAD: usize = 1200;

/// A decoded overlay datagram: who sent it, and what it is.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The overlay node that transmitted this datagram (one hop away).
    pub from: NodeId,
    /// The message.
    pub message: Message,
}

/// The overlay message types.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// An application packet being disseminated.
    Data(DataPacket),
    /// Several application packets coalesced into one datagram (one
    /// syscall, one checksum). The frame carries the first packet's
    /// link sequence and retransmission bit; packet `i` travels as
    /// sequence `first + i`, so hop-by-hop recovery still works per
    /// packet. (Encoding reads both from the first packet.)
    DataBatch(Vec<DataPacket>),
    /// A hop-by-hop recovery request for lost link sequence numbers.
    Nack {
        /// The link sequence numbers the receiver never saw.
        missing: Vec<u64>,
    },
    /// A link-monitoring probe.
    Hello {
        /// Monotonic hello counter on this link.
        seq: u64,
        /// Sender timestamp, echoed back for RTT measurement.
        sent_at: Micros,
    },
    /// Echo of a received hello.
    HelloAck {
        /// The echoed hello counter.
        echo_seq: u64,
        /// The echoed send timestamp.
        echo_sent_at: Micros,
    },
    /// A flooded link-state report.
    LinkState(LinkStateUpdate),
    /// Per-neighbour acknowledgement of a received link-state report.
    ///
    /// Flooding is hop-by-hop reliable: every [`Message::LinkState`]
    /// transmission is acked by the receiving neighbour, and the sender
    /// retransmits unacked reports with exponential backoff. The ack
    /// names the report's origin stamp, so a newer report for the same
    /// origin implicitly supersedes the pending older one.
    LsaAck {
        /// The acknowledged report's originating node.
        origin: NodeId,
        /// The acknowledged report's origin epoch.
        epoch: u64,
        /// The acknowledged report's origin sequence.
        seq: u64,
    },
    /// An anti-entropy summary of the sender's link-state database:
    /// the latest `(epoch, seq)` stamp it holds per origin. A receiver
    /// holding strictly newer state for any origin (or state for an
    /// origin absent from the digest) pushes those reports back, so two
    /// sides of a healed partition, or a neighbour that lost a flood,
    /// reconcile without waiting for the origin's next change.
    Digest {
        /// The sender's per-origin database summary.
        entries: Vec<DigestEntry>,
    },
}

/// One origin's latest `(epoch, seq)` stamp inside a [`Message::Digest`].
///
/// Serde-serializable so metrics snapshots can embed the database
/// digest, letting out-of-process collectors compare convergence across
/// daemons without a live API connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DigestEntry {
    /// The origin summarized.
    pub origin: NodeId,
    /// The latest epoch held for this origin.
    pub epoch: u64,
    /// The latest sequence held within that epoch.
    pub seq: u64,
}

/// An application packet in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPacket {
    /// The flow this packet belongs to.
    pub flow: Flow,
    /// End-to-end sequence number assigned by the source.
    pub flow_seq: u64,
    /// Source send timestamp.
    pub sent_at: Micros,
    /// One-way delivery deadline (duration, not an instant).
    pub deadline: Micros,
    /// Per-link sequence number assigned by the transmitting node: the
    /// frame's first link sequence plus the packet's place in it.
    pub link_seq: u64,
    /// True for hop-by-hop retransmissions (they are not recovered
    /// again): the frame's hop flag, the same for all its packets.
    pub retransmission: bool,
    /// The flow's SLA service class, stamped by the source and carried
    /// end to end so every hop sheds in the same priority order.
    pub class: SlaClass,
    /// Dissemination-graph edge bitmask (LSB-first over dense edge ids).
    pub mask: Bytes,
    /// Application payload.
    pub payload: Bytes,
}

impl DataPacket {
    /// True when the dissemination graph includes `edge`.
    pub fn mask_contains(&self, edge: EdgeId) -> bool {
        mask_contains(&self.mask, edge)
    }

    /// Serialized size of the packet's record in a data frame's body.
    fn record_len(&self) -> usize {
        record_len(self.mask.len(), self.payload.len())
    }

    /// True when, at time `now`, this packet can no longer be delivered
    /// within its deadline.
    pub fn expired(&self, now: Micros) -> bool {
        expired(self.sent_at, self.deadline, now)
    }

    /// The packet's record fields (located nowhere).
    fn fields(&self) -> Record {
        Record::new(self.flow, self.flow_seq, self.sent_at, self.deadline, self.class)
    }
}

/// True when the edge bitmask `mask` (LSB-first over dense edge ids)
/// includes `edge`.
pub(crate) fn mask_contains(mask: &[u8], edge: EdgeId) -> bool {
    let i = edge.index();
    mask.get(i / 8).is_some_and(|b| b & (1 << (i % 8)) != 0)
}

fn expired(sent_at: Micros, deadline: Micros, now: Micros) -> bool {
    now > sent_at.saturating_add(deadline)
}

/// One data record located in the body it lies in: its fixed fields
/// parsed, its mask and payload left in place as ranges of that body.
/// This is how the node holds a packet; a [`DataPacket`] is the
/// envelope's shape of the same record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    pub(crate) flow: Flow,
    pub(crate) flow_seq: u64,
    pub(crate) sent_at: Micros,
    pub(crate) deadline: Micros,
    pub(crate) class: SlaClass,
    /// Where the record starts in its body.
    pub(crate) at: usize,
    mask_len: u16,
    payload_len: u16,
}

impl Record {
    /// A record's fixed fields, not yet located in any body.
    pub(crate) fn new(
        flow: Flow,
        flow_seq: u64,
        sent_at: Micros,
        deadline: Micros,
        class: SlaClass,
    ) -> Record {
        Record { flow, flow_seq, sent_at, deadline, class, at: 0, mask_len: 0, payload_len: 0 }
    }

    /// Where the record ends in its body.
    pub(crate) fn end(&self) -> usize {
        self.at + record_len(usize::from(self.mask_len), usize::from(self.payload_len))
    }

    /// The whole record's range of its body.
    pub(crate) fn span(&self) -> Range<usize> {
        self.at..self.end()
    }

    /// The mask's range of the body.
    pub(crate) fn mask(&self) -> Range<usize> {
        let start = self.at + MASK_OFFSET;
        start..start + usize::from(self.mask_len)
    }

    /// The payload's range of the body: a record ends with it.
    pub(crate) fn payload(&self) -> Range<usize> {
        let end = self.end();
        end - usize::from(self.payload_len)..end
    }

    /// True when, at time `now`, the packet can no longer be delivered
    /// within its deadline.
    pub(crate) fn expired(&self, now: Micros) -> bool {
        expired(self.sent_at, self.deadline, now)
    }

    /// The last instant the packet is on time: past it, the record has
    /// [`Record::expired`].
    pub(crate) fn expires(&self) -> Micros {
        self.sent_at.saturating_add(self.deadline)
    }

    /// The packet the record is when it travels as `link_seq`, its mask
    /// and payload made by `take` out of their ranges of the body.
    fn packet(
        &self,
        link_seq: u64,
        retransmission: bool,
        take: impl Fn(Range<usize>) -> Bytes,
    ) -> DataPacket {
        DataPacket {
            flow: self.flow,
            flow_seq: self.flow_seq,
            sent_at: self.sent_at,
            deadline: self.deadline,
            link_seq,
            retransmission,
            class: self.class,
            mask: take(self.mask()),
            payload: take(self.payload()),
        }
    }
}

/// One edge's condition inside a link-state update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStateEntry {
    /// The reported edge (an out-edge of the originating node).
    pub edge: EdgeId,
    /// Estimated loss rate.
    pub loss: f32,
    /// Estimated latency above baseline, in microseconds.
    pub extra_latency_us: u32,
    /// The origin has declared this link down (hello timeout): treat it
    /// as fully lossy regardless of the `loss` estimate.
    pub down: bool,
}

/// A link-state report flooded through the overlay.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStateUpdate {
    /// The node reporting its out-links.
    pub origin: NodeId,
    /// The origin's incarnation, minted at process start. A restarted
    /// node's sequence numbers reset, but its fresh (higher) epoch
    /// makes its reports newer than anything from the previous life.
    pub epoch: u64,
    /// Monotonic per-origin sequence number within one epoch.
    pub seq: u64,
    /// Conditions of the origin's out-edges.
    pub entries: Vec<LinkStateEntry>,
}

const T_DATA: u8 = 0;
const T_NACK: u8 = 1;
const T_HELLO: u8 = 2;
const T_HELLO_ACK: u8 = 3;
const T_LINK_STATE: u8 = 4;
const T_DATA_BATCH: u8 = 5;
const T_LSA_ACK: u8 = 6;
const T_DIGEST: u8 = 7;

/// Byte offset of the prelude checksum field.
const CHECKSUM_OFFSET: usize = 7;
/// Total prelude size: magic, version, type, sender, checksum.
const PRELUDE_LEN: usize = 11;
/// A data frame's per-hop header: the prelude, the first link sequence
/// (8), the hop-flags byte (1) and the packet count (2).
pub(crate) const DATA_HEADER_LEN: usize = PRELUDE_LEN + 11;
/// The most body bytes one data frame can carry: what a UDP datagram
/// over IPv4 holds (65 507) less the per-hop header.
pub(crate) const MAX_DATA_BODY: usize = 65_507 - DATA_HEADER_LEN;
/// Fixed part of a data record: flow (8), flow_seq (8), sent_at (8),
/// deadline (8), class (1), mask length (2), payload length (2).
const RECORD_FIXED_LEN: usize = 37;
/// Where a record's mask starts: behind every fixed field but the
/// payload length, which follows the mask.
const MASK_OFFSET: usize = RECORD_FIXED_LEN - 2;

/// Bit 0 of a data frame's hop-flags byte: hop-by-hop retransmission.
const HOP_RETRANSMISSION: u8 = 0x01;
/// Bits 0–1 of a data record's class byte: the SLA class.
const CLASS_MASK: u8 = 0b0000_0011;
/// Bit 0 of a link-state entry's flags byte: link declared down.
const FLAG_LINK_DOWN: u8 = 0x01;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One FNV-1a step over a 64-bit word.
#[inline(always)]
fn step(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// The hash state after a frame's body (everything behind its header):
/// four FNV-1a-64 lanes over the 32-byte blocks — word `j` of a block
/// (little-endian) into lane `j`, every lane from the offset basis —
/// folded in lane order into one state from the offset basis, then the
/// remaining whole words, then the last `< 8` bytes zero-padded to a
/// word (if any), then the body's length. One multiply chain a word
/// caps a hash at a word per ≈ 3 cycles; four independent chains keep
/// the multiplier busy, and a frame of tens of kilobytes is hashed once
/// per node it crosses.
///
/// Every step is a bijection of the state for a fixed word and of the
/// word for a fixed state, so a change confined to one word always
/// changes the result.
pub(crate) fn body_state(body: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let mut blocks = body.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, le_word(word));
        }
    }
    let mut hash = lanes.into_iter().fold(FNV_OFFSET, step);
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        hash = step(hash, le_word(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        hash = step(hash, u64::from_le_bytes(padded));
    }
    step(hash, body.len() as u64)
}

/// How many bytes of a frame of `msg_type` are its header.
fn header_len(msg_type: u8) -> usize {
    match msg_type {
        T_DATA | T_DATA_BATCH => DATA_HEADER_LEN,
        _ => PRELUDE_LEN,
    }
}

/// Continues a body's hash `state` over the frame's header — its
/// `header_len` bytes with the checksum field cut out, zero-padded to
/// whole words: one word for a control frame's 7 bytes, three for a
/// data frame's 18 — and folds the result to the 32 bits the prelude
/// carries. (The words are picked out of the datagram where they lie;
/// the tests' reference splices and pads.)
fn finish(state: u64, datagram: &[u8], header_len: usize) -> u32 {
    // Bytes 0..7, the eighth zero.
    let head = le_word(&datagram[..8]) & 0x00FF_FFFF_FFFF_FFFF;
    let hash = if header_len == DATA_HEADER_LEN {
        // Bytes 0..7 and 11; 12..20; 20..22 and six zeros.
        let first = head | u64::from(datagram[PRELUDE_LEN]) << 56;
        let second = le_word(&datagram[PRELUDE_LEN + 1..PRELUDE_LEN + 9]);
        let third =
            u16::from_le_bytes([datagram[DATA_HEADER_LEN - 2], datagram[DATA_HEADER_LEN - 1]]);
        step(step(step(state, first), second), u64::from(third))
    } else {
        step(state, head)
    };
    (hash ^ (hash >> 32)) as u32
}

/// Integrity checksum of a whole datagram (at least a header long):
/// the body's state, finished over the header.
fn checksum(datagram: &[u8]) -> u32 {
    let header_len = header_len(datagram[2]);
    finish(body_state(&datagram[header_len..]), datagram, header_len)
}

/// Whether a raw datagram is a data or data-batch frame (peeks the
/// type byte). The receive path copies only these into shared frames
/// for zero-copy decoding; control traffic decodes straight off the
/// scratch buffer without an allocation.
pub(crate) fn is_data_frame(datagram: &[u8]) -> bool {
    matches!(datagram.get(2), Some(&T_DATA) | Some(&T_DATA_BATCH))
}

/// The sender id a raw datagram claims (peeks the prelude; verifies
/// nothing). The receive path turns away a frame from an id it holds
/// no peer address for before paying for its copy and decode.
pub(crate) fn claimed_sender(datagram: &[u8]) -> Option<NodeId> {
    let id = datagram.get(3..CHECKSUM_OFFSET)?;
    Some(NodeId::new(u32::from_be_bytes(id.try_into().expect("four bytes"))))
}

/// Appends the prelude with a zeroed checksum; returns the offset the
/// envelope starts at (so the checksum can be patched after the body).
fn put_prelude<B: BufMut + std::ops::DerefMut<Target = [u8]>>(
    buf: &mut B,
    msg_type: u8,
    from: NodeId,
) -> usize {
    let base = buf.len();
    buf.put_u8(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(msg_type);
    buf.put_u32(from.index() as u32);
    buf.put_u32(0); // checksum placeholder, patched once the sum is known
    base
}

/// A data frame's per-hop header: everything about the frame that
/// changes from one link to the next.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HopHeader {
    /// The transmitting node.
    pub(crate) from: NodeId,
    /// The link sequence of the frame's first packet; packet `i`
    /// travels as `first_link_seq + i`.
    pub(crate) first_link_seq: u64,
    /// Whether the frame answers a NACK.
    pub(crate) retransmission: bool,
    /// How many packets the frame carries.
    pub(crate) count: usize,
}

impl HopHeader {
    /// The header `packets` travel under as a frame from `from`: the
    /// first link sequence and the retransmission bit are the first
    /// packet's.
    fn of(from: NodeId, packets: &[DataPacket]) -> HopHeader {
        let first = packets.first();
        HopHeader {
            from,
            first_link_seq: first.map_or(0, |d| d.link_seq),
            retransmission: first.is_some_and(|d| d.retransmission),
            count: packets.len(),
        }
    }

    /// Appends the fields behind the prelude.
    fn put_fields<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64(self.first_link_seq);
        buf.put_u8(if self.retransmission { HOP_RETRANSMISSION } else { 0 });
        buf.put_u16(self.count as u16);
    }

    /// Appends the whole header, checksum zeroed, and returns the
    /// offset it starts at. A single packet is framed as plain
    /// `T_DATA`, never as a `T_DATA_BATCH` of one, so single-packet
    /// traffic looks the same on the wire whether or not the sender
    /// batches.
    fn put(&self, buf: &mut Vec<u8>) -> usize {
        let msg_type = if self.count == 1 { T_DATA } else { T_DATA_BATCH };
        let base = put_prelude(buf, msg_type, self.from);
        self.put_fields(buf);
        base
    }
}

/// Appends the records of `packets`, back to back.
fn put_records<B: BufMut + Deref<Target = [u8]>>(buf: &mut B, packets: &[DataPacket]) {
    for d in packets {
        put_record(buf, d.fields(), &d.mask, &d.payload);
    }
}

/// Patches `sum` into the envelope starting at `base`.
fn patch_sum(buf: &mut [u8], base: usize, sum: u32) {
    buf[base + CHECKSUM_OFFSET..base + PRELUDE_LEN].copy_from_slice(&sum.to_be_bytes());
}

/// Computes and patches the checksum of the envelope starting at `base`.
fn seal(buf: &mut [u8], base: usize) {
    let sum = checksum(&buf[base..]);
    patch_sum(buf, base, sum);
}

/// Serialized size of the record of a packet with a mask and a payload
/// this long.
pub(crate) fn record_len(mask: usize, payload: usize) -> usize {
    RECORD_FIXED_LEN + mask + payload
}

/// Appends a record of `fields` carrying `mask` and `payload` and
/// returns it located where it landed in `buf`.
pub(crate) fn put_record<B: BufMut + Deref<Target = [u8]>>(
    buf: &mut B,
    fields: Record,
    mask: &[u8],
    payload: &[u8],
) -> Record {
    let at = buf.len();
    buf.put_u32(fields.flow.source.index() as u32);
    buf.put_u32(fields.flow.destination.index() as u32);
    buf.put_u64(fields.flow_seq);
    buf.put_u64(fields.sent_at.as_micros());
    buf.put_u64(fields.deadline.as_micros());
    buf.put_u8(fields.class.to_bits());
    buf.put_u16(mask.len() as u16);
    buf.put_slice(mask);
    buf.put_u16(payload.len() as u16);
    buf.put_slice(payload);
    Record { at, mask_len: mask.len() as u16, payload_len: payload.len() as u16, ..fields }
}

/// Appends one data frame made of `header` and a `body` that already
/// exists in wire form — `header.count` records, hashed to `state` by
/// whoever verified or encoded them: the header is written, the body
/// copied, and the sum finished from `state` over the header. The body
/// is not read a second time, on however many links it leaves. (A
/// retransmission is one such frame: a buffered record, byte for byte,
/// behind a header with the retransmission bit set.)
pub(crate) fn put_data_frame(header: HopHeader, body: &[u8], state: u64, buf: &mut Vec<u8>) {
    buf.reserve(DATA_HEADER_LEN + body.len());
    let base = header.put(buf);
    buf.extend_from_slice(body);
    let sum = finish(state, &buf[base..], DATA_HEADER_LEN);
    patch_sum(buf, base, sum);
}

fn be_u64(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes.try_into().expect("eight bytes"))
}

fn be_u32(bytes: &[u8]) -> u32 {
    u32::from_be_bytes(bytes.try_into().expect("four bytes"))
}

fn be_u16(bytes: &[u8]) -> usize {
    usize::from(u16::from_be_bytes(bytes.try_into().expect("two bytes")))
}

/// Parses the record that starts `at` bytes into `body` — the one
/// record parser: the node reads its frames with it, and the envelope
/// decoders build their packets from what it returns.
fn parse_record(body: &[u8], at: usize) -> Result<Record, OverlayError> {
    let Some(fixed) = body.get(at..at + RECORD_FIXED_LEN) else {
        return Err(OverlayError::Malformed("short data record"));
    };
    let class = fixed[32];
    if class & !CLASS_MASK != 0 {
        return Err(OverlayError::Malformed("unknown record class bits"));
    }
    let class =
        SlaClass::from_bits(class).ok_or(OverlayError::Malformed("reserved sla class bits"))?;
    let mask_len = be_u16(&fixed[33..MASK_OFFSET]);
    // Behind the mask: the payload length, then the payload.
    let after_mask = at + MASK_OFFSET + mask_len;
    let Some(len) = body.get(after_mask..after_mask + 2) else {
        return Err(OverlayError::Malformed("short mask"));
    };
    let payload_len = be_u16(len);
    if body.len() - (after_mask + 2) < payload_len {
        return Err(OverlayError::Malformed("short payload"));
    }
    Ok(Record {
        flow: Flow::new(NodeId::new(be_u32(&fixed[..4])), NodeId::new(be_u32(&fixed[4..8]))),
        flow_seq: be_u64(&fixed[8..16]),
        sent_at: Micros::from_micros(be_u64(&fixed[16..24])),
        deadline: Micros::from_micros(be_u64(&fixed[24..32])),
        class,
        at,
        mask_len: mask_len as u16,
        payload_len: payload_len as u16,
    })
}

/// Parses `count` records off `body` in order, handing each to `each`
/// as it is parsed.
fn parse_body(body: &[u8], count: usize, mut each: impl FnMut(Record)) -> Result<(), OverlayError> {
    let mut at = 0;
    for _ in 0..count {
        let record = parse_record(body, at)?;
        at = record.end();
        each(record);
    }
    // CORRECTNESS: the body is exactly its records. A relay forwards a
    // whole frame's body as it arrived; bytes behind the last record
    // would travel on unread.
    if at != body.len() {
        return Err(OverlayError::Malformed("bytes behind the last record"));
    }
    Ok(())
}

/// The record of `body` (well-formed: a frame this node built) that
/// travels `index`-th.
pub(crate) fn nth_record(body: &[u8], index: usize) -> Record {
    let parse = |at| parse_record(body, at).expect("a body this node built");
    (0..index).fold(parse(0), |record, _| parse(record.end()))
}

/// Reads and checks the hop header of a data frame of `msg_type` from
/// `from` whose checksum held. What it claims is checked before
/// anything is built from it.
fn parse_hop(datagram: &[u8], msg_type: u8, from: NodeId) -> Result<HopHeader, OverlayError> {
    let first_link_seq = be_u64(&datagram[PRELUDE_LEN..PRELUDE_LEN + 8]);
    let hop_flags = datagram[PRELUDE_LEN + 8];
    let count = be_u16(&datagram[PRELUDE_LEN + 9..DATA_HEADER_LEN]);
    // CORRECTNESS: only bit 0 of the hop-flags byte is assigned. A
    // frame with another bit set speaks a protocol this node does not,
    // and is not guessed at.
    if hop_flags & !HOP_RETRANSMISSION != 0 {
        return Err(OverlayError::Malformed("unknown hop flags"));
    }
    // CORRECTNESS: a data frame carries at least one packet, and a DATA
    // frame exactly one (the type byte and the count never disagree).
    if count == 0 {
        return Err(OverlayError::Malformed("empty data frame"));
    }
    if msg_type == T_DATA && count != 1 {
        return Err(OverlayError::Malformed("data frame of several"));
    }
    // CORRECTNESS: packet `i` travels as `first_link_seq + i`; the gap
    // tracker is never shown a sequence that wrapped.
    if first_link_seq.checked_add(count as u64).is_none() {
        return Err(OverlayError::Malformed("link sequence overflow"));
    }
    // CORRECTNESS: the count is believed only as far as the bytes that
    // arrived could hold that many records — it sizes an allocation.
    if datagram.len() - DATA_HEADER_LEN < count * RECORD_FIXED_LEN {
        return Err(OverlayError::Malformed("short data body"));
    }
    let retransmission = hop_flags & HOP_RETRANSMISSION != 0;
    Ok(HopHeader { from, first_link_seq, retransmission, count })
}

/// How `decode` materializes mask/payload bytes: by copying out of the
/// datagram, or by slicing a shared receive frame (zero-copy).
enum Materialize<'a> {
    Copy,
    Share(&'a Bytes),
}

impl Materialize<'_> {
    fn take(&self, datagram: &[u8], range: Range<usize>) -> Bytes {
        match self {
            Materialize::Copy => Bytes::copy_from_slice(&datagram[range]),
            Materialize::Share(frame) => frame.slice(range),
        }
    }
}

/// Parses the packets of a data frame of `msg_type` from `from` whose
/// checksum held: each built from its record as the record is parsed.
fn decode_packets(
    datagram: &[u8],
    msg_type: u8,
    from: NodeId,
    materialize: &Materialize<'_>,
) -> Result<Vec<DataPacket>, OverlayError> {
    let hop = parse_hop(datagram, msg_type, from)?;
    let mut packets = Vec::with_capacity(hop.count);
    let mut link_seq = hop.first_link_seq;
    let take = |range: Range<usize>| {
        materialize.take(datagram, DATA_HEADER_LEN + range.start..DATA_HEADER_LEN + range.end)
    };
    parse_body(&datagram[DATA_HEADER_LEN..], hop.count, |record| {
        packets.push(record.packet(link_seq, hop.retransmission, take));
        link_seq += 1;
    })?;
    Ok(packets)
}

/// What the prelude says and the checksum vouches for.
struct Verified {
    msg_type: u8,
    from: NodeId,
    /// The hash state over everything behind the header.
    state: u64,
}

/// Checks a datagram's prelude and its checksum.
fn verify(datagram: &[u8]) -> Result<Verified, OverlayError> {
    let mut buf = datagram;
    if buf.remaining() < PRELUDE_LEN {
        return Err(OverlayError::Malformed("short prelude"));
    }
    if buf.get_u8() != MAGIC {
        return Err(OverlayError::Malformed("bad magic"));
    }
    if buf.get_u8() != VERSION {
        return Err(OverlayError::Malformed("unsupported version"));
    }
    let msg_type = buf.get_u8();
    let from = NodeId::new(buf.get_u32());
    let claimed = buf.get_u32();
    let header_len = header_len(msg_type);
    if datagram.len() < header_len {
        return Err(OverlayError::Malformed("short data header"));
    }
    let state = body_state(&datagram[header_len..]);
    if claimed != finish(state, datagram, header_len) {
        return Err(OverlayError::Malformed("bad checksum"));
    }
    Ok(Verified { msg_type, from, state })
}

/// A received data frame as the node handles it: its hop header, and
/// the body its records lie in with the hash state the checksum vouched
/// for — what forwarding the records on needs, with no second pass over
/// their bytes.
#[derive(Debug)]
pub(crate) struct DataFrame {
    pub(crate) hop: HopHeader,
    /// The hop-invariant body: the records, back to back.
    pub(crate) body: Bytes,
    /// [`body_state`] of `body`.
    pub(crate) state: u64,
}

/// Parses a DATA or DATA-BATCH frame out of a shared receive buffer,
/// its records — located in the frame's body — into `records` (cleared
/// first).
pub(crate) fn decode_data_frame(
    frame: &Bytes,
    records: &mut Vec<Record>,
) -> Result<DataFrame, OverlayError> {
    let Verified { msg_type, from, state } = verify(frame)?;
    if !matches!(msg_type, T_DATA | T_DATA_BATCH) {
        return Err(OverlayError::Malformed("not a data frame"));
    }
    let hop = parse_hop(frame, msg_type, from)?;
    records.clear();
    records.reserve(hop.count);
    parse_body(&frame[DATA_HEADER_LEN..], hop.count, |record| records.push(record))?;
    Ok(DataFrame { hop, body: frame.slice(DATA_HEADER_LEN..frame.len()), state })
}

/// The node's reading of a data frame — [`decode_data_frame`] — with
/// its records made into packets: the sender, and what the envelope
/// decoders must agree with. For tests; no node path calls it.
///
/// # Errors
///
/// Returns [`OverlayError::Malformed`] for anything but a well-formed
/// DATA or DATA-BATCH frame.
#[doc(hidden)]
pub fn decode_as_node(frame: &Bytes) -> Result<(NodeId, Vec<DataPacket>), OverlayError> {
    let mut records = Vec::new();
    let DataFrame { hop, body, .. } = decode_data_frame(frame, &mut records)?;
    let packets = records.iter().zip(hop.first_link_seq..);
    let take = |range: Range<usize>| body.slice(range);
    Ok((hop.from, packets.map(|(r, seq)| r.packet(seq, hop.retransmission, take)).collect()))
}

fn decode_with(datagram: &[u8], materialize: Materialize<'_>) -> Result<Envelope, OverlayError> {
    let Verified { msg_type, from, .. } = verify(datagram)?;
    let mut buf = &datagram[PRELUDE_LEN..];
    let message = match msg_type {
        T_DATA => {
            let mut packets = decode_packets(datagram, msg_type, from, &materialize)?;
            Message::Data(packets.pop().expect("a DATA frame carries one packet"))
        }
        T_DATA_BATCH => Message::DataBatch(decode_packets(datagram, msg_type, from, &materialize)?),
        T_NACK => {
            if buf.remaining() < 2 {
                return Err(OverlayError::Malformed("short nack"));
            }
            let count = buf.get_u16() as usize;
            if buf.remaining() < count * 8 {
                return Err(OverlayError::Malformed("short nack list"));
            }
            let missing = (0..count).map(|_| buf.get_u64()).collect();
            Message::Nack { missing }
        }
        T_HELLO => {
            if buf.remaining() < 16 {
                return Err(OverlayError::Malformed("short hello"));
            }
            Message::Hello { seq: buf.get_u64(), sent_at: Micros::from_micros(buf.get_u64()) }
        }
        T_HELLO_ACK => {
            if buf.remaining() < 16 {
                return Err(OverlayError::Malformed("short hello ack"));
            }
            Message::HelloAck {
                echo_seq: buf.get_u64(),
                echo_sent_at: Micros::from_micros(buf.get_u64()),
            }
        }
        T_LINK_STATE => {
            if buf.remaining() < 22 {
                return Err(OverlayError::Malformed("short link state"));
            }
            let origin = NodeId::new(buf.get_u32());
            let epoch = buf.get_u64();
            let seq = buf.get_u64();
            let count = buf.get_u16() as usize;
            if buf.remaining() < count * 13 {
                return Err(OverlayError::Malformed("short link state entries"));
            }
            let entries = (0..count)
                .map(|_| LinkStateEntry {
                    edge: EdgeId::new(buf.get_u32()),
                    loss: buf.get_f32(),
                    extra_latency_us: buf.get_u32(),
                    down: buf.get_u8() & FLAG_LINK_DOWN != 0,
                })
                .collect();
            Message::LinkState(LinkStateUpdate { origin, epoch, seq, entries })
        }
        T_LSA_ACK => {
            if buf.remaining() < 20 {
                return Err(OverlayError::Malformed("short lsa ack"));
            }
            Message::LsaAck {
                origin: NodeId::new(buf.get_u32()),
                epoch: buf.get_u64(),
                seq: buf.get_u64(),
            }
        }
        T_DIGEST => {
            if buf.remaining() < 2 {
                return Err(OverlayError::Malformed("short digest"));
            }
            let count = buf.get_u16() as usize;
            if buf.remaining() < count * 20 {
                return Err(OverlayError::Malformed("short digest entries"));
            }
            let entries = (0..count)
                .map(|_| DigestEntry {
                    origin: NodeId::new(buf.get_u32()),
                    epoch: buf.get_u64(),
                    seq: buf.get_u64(),
                })
                .collect();
            Message::Digest { entries }
        }
        _ => return Err(OverlayError::Malformed("unknown message type")),
    };
    Ok(Envelope { from, message })
}

impl Envelope {
    /// Exact serialized size of this envelope, so callers can reserve
    /// buffer space once instead of growing incrementally.
    pub fn encoded_len(&self) -> usize {
        const HOP_LEN: usize = DATA_HEADER_LEN - PRELUDE_LEN;
        PRELUDE_LEN
            + match &self.message {
                Message::Data(d) => HOP_LEN + d.record_len(),
                Message::DataBatch(ps) => {
                    HOP_LEN + ps.iter().map(DataPacket::record_len).sum::<usize>()
                }
                Message::Nack { missing } => 2 + 8 * missing.len(),
                Message::Hello { .. } | Message::HelloAck { .. } => 16,
                Message::LinkState(u) => 22 + 13 * u.entries.len(),
                Message::LsaAck { .. } => 20,
                Message::Digest { entries } => 2 + 20 * entries.len(),
            }
    }

    /// Serializes the envelope to bytes ready for a datagram.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into_vec(&mut buf);
        Bytes::from(buf)
    }

    /// Appends the serialized envelope to a caller-supplied buffer
    /// (e.g. one drawn from a [`crate::pool::BufferPool`]), avoiding a
    /// fresh allocation per datagram.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.reserve(self.encoded_len());
        self.encode_append(buf);
    }

    /// Like [`Envelope::encode_into`] for a plain `Vec<u8>` buffer.
    pub fn encode_into_vec(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.encoded_len());
        self.encode_append(buf);
    }

    fn encode_append<B: BufMut + std::ops::DerefMut<Target = [u8]>>(&self, buf: &mut B) {
        let msg_type = match &self.message {
            Message::Data(_) => T_DATA,
            Message::DataBatch(_) => T_DATA_BATCH,
            Message::Nack { .. } => T_NACK,
            Message::Hello { .. } => T_HELLO,
            Message::HelloAck { .. } => T_HELLO_ACK,
            Message::LinkState(_) => T_LINK_STATE,
            Message::LsaAck { .. } => T_LSA_ACK,
            Message::Digest { .. } => T_DIGEST,
        };
        let base = put_prelude(buf, msg_type, self.from);
        match &self.message {
            Message::Data(d) => {
                HopHeader::of(self.from, std::slice::from_ref(d)).put_fields(buf);
                put_records(buf, std::slice::from_ref(d));
            }
            Message::DataBatch(ps) => {
                HopHeader::of(self.from, ps).put_fields(buf);
                put_records(buf, ps);
            }
            Message::Nack { missing } => {
                buf.put_u16(missing.len() as u16);
                for &s in missing {
                    buf.put_u64(s);
                }
            }
            Message::Hello { seq, sent_at } => {
                buf.put_u64(*seq);
                buf.put_u64(sent_at.as_micros());
            }
            Message::HelloAck { echo_seq, echo_sent_at } => {
                buf.put_u64(*echo_seq);
                buf.put_u64(echo_sent_at.as_micros());
            }
            Message::LinkState(u) => {
                buf.put_u32(u.origin.index() as u32);
                buf.put_u64(u.epoch);
                buf.put_u64(u.seq);
                buf.put_u16(u.entries.len() as u16);
                for e in &u.entries {
                    buf.put_u32(e.edge.index() as u32);
                    buf.put_f32(e.loss);
                    buf.put_u32(e.extra_latency_us);
                    buf.put_u8(if e.down { FLAG_LINK_DOWN } else { 0 });
                }
            }
            Message::LsaAck { origin, epoch, seq } => {
                buf.put_u32(origin.index() as u32);
                buf.put_u64(*epoch);
                buf.put_u64(*seq);
            }
            Message::Digest { entries } => {
                buf.put_u16(entries.len() as u16);
                for e in entries {
                    buf.put_u32(e.origin.index() as u32);
                    buf.put_u64(e.epoch);
                    buf.put_u64(e.seq);
                }
            }
        }
        seal(buf, base);
    }

    /// Parses an envelope from a received datagram, copying mask and
    /// payload bytes out of it.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::Malformed`] on truncation, bad magic, or
    /// an unknown message type.
    pub fn decode(datagram: &[u8]) -> Result<Envelope, OverlayError> {
        decode_with(datagram, Materialize::Copy)
    }

    /// Parses an envelope from a shared receive frame. Data packets'
    /// mask and payload become zero-copy slices of `frame`, so one
    /// batched receive buffer backs every packet it carried.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::Malformed`] exactly as [`Envelope::decode`].
    pub fn decode_shared(frame: &Bytes) -> Result<Envelope, OverlayError> {
        decode_with(frame, Materialize::Share(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Envelope {
        Envelope {
            from: NodeId::new(3),
            message: Message::Data(DataPacket {
                flow: Flow::new(NodeId::new(0), NodeId::new(7)),
                flow_seq: 42,
                sent_at: Micros::from_micros(1_000_000),
                deadline: Micros::from_millis(65),
                link_seq: 99,
                retransmission: false,
                class: SlaClass::Surgical,
                mask: Bytes::from_static(&[0b1010_0001, 0x00, 0xff]),
                payload: Bytes::from_static(b"hello world"),
            }),
        }
    }

    #[test]
    fn data_round_trip() {
        let env = sample_data();
        let bytes = env.encode();
        let back = Envelope::decode(&bytes).unwrap();
        assert_eq!(env, back);
        assert_eq!(claimed_sender(&bytes), Some(env.from), "the peek reads what decode reads");
        assert_eq!(claimed_sender(&bytes[..6]), None, "a prelude cut short names nobody");
    }

    #[test]
    fn all_types_round_trip() {
        for env in all_control() {
            let bytes = env.encode();
            assert_eq!(bytes.len(), env.encoded_len(), "{env:?}");
            assert_eq!(Envelope::decode(&bytes).unwrap(), env, "{env:?}");
        }
    }

    /// One envelope of every control type (two digests: one empty).
    fn all_control() -> Vec<Envelope> {
        vec![
            Envelope { from: NodeId::new(1), message: Message::Nack { missing: vec![5, 6, 9] } },
            Envelope {
                from: NodeId::new(2),
                message: Message::Hello { seq: 17, sent_at: Micros::from_micros(12345) },
            },
            Envelope {
                from: NodeId::new(2),
                message: Message::HelloAck {
                    echo_seq: 17,
                    echo_sent_at: Micros::from_micros(12345),
                },
            },
            Envelope {
                from: NodeId::new(4),
                message: Message::LinkState(LinkStateUpdate {
                    origin: NodeId::new(4),
                    epoch: 1_722_000_000_000_000,
                    seq: 8,
                    entries: vec![
                        LinkStateEntry {
                            edge: EdgeId::new(12),
                            loss: 0.25,
                            extra_latency_us: 1500,
                            down: false,
                        },
                        LinkStateEntry {
                            edge: EdgeId::new(13),
                            loss: 1.0,
                            extra_latency_us: 0,
                            down: true,
                        },
                    ],
                }),
            },
            Envelope {
                from: NodeId::new(5),
                message: Message::LsaAck {
                    origin: NodeId::new(4),
                    epoch: 1_722_000_000_000_000,
                    seq: 8,
                },
            },
            Envelope { from: NodeId::new(6), message: Message::Digest { entries: vec![] } },
            Envelope {
                from: NodeId::new(6),
                message: Message::Digest {
                    entries: vec![
                        DigestEntry { origin: NodeId::new(0), epoch: 7, seq: 3 },
                        DigestEntry { origin: NodeId::new(9), epoch: u64::MAX, seq: u64::MAX },
                    ],
                },
            },
        ]
    }

    #[test]
    fn control_frame_corruption_and_truncation_are_detected() {
        let envs = [
            Envelope {
                from: NodeId::new(5),
                message: Message::LsaAck { origin: NodeId::new(4), epoch: 12, seq: 8 },
            },
            Envelope {
                from: NodeId::new(6),
                message: Message::Digest {
                    entries: vec![DigestEntry { origin: NodeId::new(1), epoch: 2, seq: 3 }],
                },
            },
        ];
        for env in envs {
            let good = env.encode();
            for cut in 0..good.len() {
                assert!(Envelope::decode(&good[..cut]).is_err(), "cut at {cut}");
            }
            for pos in 0..good.len() {
                let mut bytes = good.to_vec();
                bytes[pos] ^= 0x20;
                assert!(Envelope::decode(&bytes).is_err(), "flip at byte {pos} went undetected");
            }
        }
    }

    #[test]
    fn mask_lookup() {
        let Envelope { message: Message::Data(d), .. } = sample_data() else { unreachable!() };
        assert!(d.mask_contains(EdgeId::new(0)));
        assert!(!d.mask_contains(EdgeId::new(1)));
        assert!(d.mask_contains(EdgeId::new(5)));
        assert!(d.mask_contains(EdgeId::new(7)));
        assert!(!d.mask_contains(EdgeId::new(8)));
        assert!(d.mask_contains(EdgeId::new(16)));
        // Out of mask range.
        assert!(!d.mask_contains(EdgeId::new(100)));
    }

    #[test]
    fn expiry_uses_sent_at_plus_deadline() {
        let Envelope { message: Message::Data(d), .. } = sample_data() else { unreachable!() };
        assert!(!d.expired(Micros::from_micros(1_000_000)));
        assert!(!d.expired(Micros::from_micros(1_065_000)));
        assert!(d.expired(Micros::from_micros(1_065_001)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Envelope::decode(&[]).is_err());
        assert!(Envelope::decode(&[0x00; 16]).is_err());
        let mut bytes = sample_data().encode().to_vec();
        bytes[2] = 99; // unknown type
        assert!(Envelope::decode(&bytes).is_err());
        // Truncations never panic and never succeed (the checksum no
        // longer matches a shortened body).
        let good = sample_data().encode();
        for cut in 0..good.len() {
            assert!(Envelope::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn single_byte_corruption_is_always_detected() {
        let good = sample_data().encode();
        let every = (0..good.len()).collect::<Vec<_>>();
        // A frame as `fwd_sat_1200` fills them: every offset of the
        // header and of the first and last blocks, and a stride through
        // the rest that visits every lane and every byte of a word.
        let big = big_batch().encode();
        let sampled = (0..big.len())
            .filter(|&pos| pos < 128 || pos >= big.len() - 128 || pos % 37 == 0)
            .collect::<Vec<_>>();
        for (good, offsets) in [(good, every), (big, sampled)] {
            let mut bytes = good.to_vec();
            for pos in offsets {
                for xor in [0x01u8, 0x80, 0xFF] {
                    bytes[pos] ^= xor;
                    assert!(
                        Envelope::decode(&bytes).is_err(),
                        "flip {xor:#04x} at byte {pos} of {} went undetected",
                        good.len()
                    );
                    bytes[pos] ^= xor;
                }
            }
        }
    }

    fn sample_batch(n: usize) -> Envelope {
        let packets = (0..n)
            .map(|i| DataPacket {
                flow: Flow::new(NodeId::new(0), NodeId::new(7)),
                flow_seq: 100 + i as u64,
                sent_at: Micros::from_micros(2_000_000 + i as u64),
                deadline: Micros::from_millis(65),
                link_seq: 500 + i as u64,
                retransmission: true,
                class: SlaClass::ALL[i % SlaClass::ALL.len()],
                mask: Bytes::from_static(&[0b0000_0011]),
                payload: Bytes::copy_from_slice(format!("payload-{i}").as_bytes()),
            })
            .collect();
        Envelope { from: NodeId::new(3), message: Message::DataBatch(packets) }
    }

    /// Thirty-two 1200-byte packets under a one-byte mask.
    fn big_batch() -> Envelope {
        let mut bytes = Lcg(0x2017);
        let packets = (0..32)
            .map(|i| DataPacket {
                flow: Flow::new(NodeId::new(0), NodeId::new(3)),
                flow_seq: i,
                sent_at: Micros::from_micros(1_700_000_000_000_000),
                deadline: Micros::from_millis(65),
                link_seq: 9_000 + i,
                retransmission: false,
                class: SlaClass::Timely,
                mask: Bytes::from_static(&[0b0001_0101]),
                payload: Bytes::from(bytes.take(MAX_PAYLOAD)),
            })
            .collect();
        Envelope { from: NodeId::new(1), message: Message::DataBatch(packets) }
    }

    /// A fixed byte stream for the vectors below.
    struct Lcg(u64);

    impl Lcg {
        fn take(&mut self, n: usize) -> Vec<u8> {
            let next = |state: &mut u64| {
                *state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (*state >> 56) as u8
            };
            (0..n).map(|_| next(&mut self.0)).collect()
        }
    }

    /// The sum's definition (docs/PROTOCOL.md §1) written the plain way:
    /// one byte-indexed pass, no blocks, no iterators.
    fn reference_body_state(body: &[u8]) -> u64 {
        let word = |at: usize| {
            let mut w = 0u64;
            for k in 0..8 {
                if at + k < body.len() {
                    w |= u64::from(body[at + k]) << (8 * k);
                }
            }
            w
        };
        let blocks = body.len() / 32;
        let mut lanes = [FNV_OFFSET; 4];
        for block in 0..blocks {
            for (j, lane) in lanes.iter_mut().enumerate() {
                *lane = (*lane ^ word(32 * block + 8 * j)).wrapping_mul(FNV_PRIME);
            }
        }
        let mut hash = FNV_OFFSET;
        for lane in lanes {
            hash = (hash ^ lane).wrapping_mul(FNV_PRIME);
        }
        let mut at = 32 * blocks;
        while at < body.len() {
            hash = (hash ^ word(at)).wrapping_mul(FNV_PRIME);
            at += 8;
        }
        (hash ^ body.len() as u64).wrapping_mul(FNV_PRIME)
    }

    /// [`reference_body_state`] continued over the header as §1 says:
    /// the header without its checksum field, a word at a time.
    fn reference_checksum(datagram: &[u8]) -> u32 {
        let header_len = if datagram[2] == 0 || datagram[2] == 5 { 22 } else { 11 };
        let mut head = datagram[..7].to_vec();
        head.extend_from_slice(&datagram[11..header_len]);
        head.resize(head.len().next_multiple_of(8), 0);
        let mut hash = reference_body_state(&datagram[header_len..]);
        for word in head.chunks(8) {
            hash = (hash ^ u64::from_le_bytes(word.try_into().unwrap())).wrapping_mul(FNV_PRIME);
        }
        (hash ^ (hash >> 32)) as u32
    }

    #[test]
    fn the_sum_matches_its_definition_and_its_known_answers() {
        let bytes = Lcg(5).take(39_885);
        // Every tail length around one and two blocks, and the two frame
        // sizes the per-byte workloads ship.
        for len in (0..=72).chain([3_533, 39_885]) {
            let body = &bytes[..len];
            assert_eq!(body_state(body), reference_body_state(body), "{len} bytes");
        }
        // Known answers: a change to the definition has to change these.
        assert_eq!(body_state(&[]), KNOWN_EMPTY);
        assert_eq!(body_state(&bytes[..40]), KNOWN_40);
        assert_eq!(body_state(&bytes[..3_533]), KNOWN_3533);
        assert_eq!(body_state(&bytes), KNOWN_39885);
        for env in [sample_data(), sample_batch(4), big_batch()].into_iter().chain(all_control()) {
            let frame = env.encode();
            let claimed = u32::from_be_bytes(frame[7..11].try_into().unwrap());
            assert_eq!(claimed, reference_checksum(&frame), "{} bytes", frame.len());
        }
        assert_eq!(big_batch().encode()[7..11], KNOWN_BIG_BATCH_SUM);
    }

    // (Checked once against an implementation in another language.)
    const KNOWN_EMPTY: u64 = 0x7f6e_4d21_b650_a5a3;
    const KNOWN_40: u64 = 0x41b7_8f5c_83c3_dad1;
    const KNOWN_3533: u64 = 0x67a3_7d57_da1c_101f;
    const KNOWN_39885: u64 = 0x2bbd_b3d7_752b_020a;
    const KNOWN_BIG_BATCH_SUM: [u8; 4] = [69, 48, 197, 99];

    /// A single-bit flip anywhere moves the 64-bit state (before the
    /// fold to 32 bits, which is where a collision could hide).
    #[test]
    fn every_single_bit_flip_moves_the_body_state() {
        let mut body = Lcg(7).take(32 * 3 + 19);
        let good = body_state(&body);
        for bit in 0..body.len() * 8 {
            body[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(body_state(&body), good, "bit {bit}");
            body[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// A body that already exists in wire form is framed without being
    /// read again, to the same bytes the field-wise encoder writes.
    #[test]
    fn a_reused_body_frames_to_the_same_bytes() {
        let mut records = Vec::new();
        for env in [sample_data(), sample_batch(3), big_batch()] {
            let fieldwise = env.encode();
            let DataFrame { hop, body, state } =
                decode_data_frame(&fieldwise, &mut records).unwrap();
            assert_eq!(body.as_ref(), &fieldwise[DATA_HEADER_LEN..]);
            assert_eq!(state, body_state(&body));
            assert_eq!(records.len(), hop.count);
            assert_eq!(records.last().map(Record::end), Some(body.len()), "located end to end");
            let mut reused = Vec::new();
            put_data_frame(hop, &body, state, &mut reused);
            // (A DATA-BATCH of one is an envelope's to write; the node
            // frames one packet as DATA.)
            if hop.count > 1 || fieldwise[2] == T_DATA {
                assert_eq!(reused, fieldwise.as_ref());
            }
            // The same body under another hop's header verifies too.
            let onward = HopHeader { from: NodeId::new(9), first_link_seq: 77, ..hop };
            let mut next = Vec::new();
            put_data_frame(onward, &body, state, &mut next);
            let forwarded =
                decode_data_frame(&Bytes::from(next), &mut records).expect("the next hop verifies");
            assert_eq!(forwarded.body, body);
            assert_eq!((forwarded.hop.from, forwarded.hop.first_link_seq), (NodeId::new(9), 77));
        }
    }

    /// A record of a frame, copied out behind a header of its own with
    /// the sum finished from its own state, is the frame the field-wise
    /// encoder writes for that packet alone: the NACK path's
    /// retransmission, checked against the envelope.
    #[test]
    fn a_record_framed_alone_is_the_packet_s_own_data_frame() {
        let Message::DataBatch(packets) = sample_batch(5).message else { unreachable!() };
        let frame = sample_batch(5).encode();
        let body = &frame[DATA_HEADER_LEN..];
        for (index, packet) in packets.into_iter().enumerate() {
            let record = nth_record(body, index);
            assert_eq!(record.flow_seq, packet.flow_seq);
            let bytes = &body[record.span()];
            let (from, link_seq) = (NodeId::new(4), 900 + index as u64);
            let header =
                HopHeader { from, first_link_seq: link_seq, retransmission: true, count: 1 };
            let mut alone = Vec::new();
            put_data_frame(header, bytes, body_state(bytes), &mut alone);
            let packet = DataPacket { link_seq, retransmission: true, ..packet };
            let expected = Envelope { from, message: Message::Data(packet) }.encode();
            assert_eq!(alone, expected.as_ref(), "record {index}");
        }
    }

    /// A sealed data frame whose hop header and body are `hop` and
    /// `body` (whatever they say).
    fn sealed(msg_type: u8, hop: &[u8], body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        put_prelude(&mut bytes, msg_type, NodeId::new(3));
        bytes.extend_from_slice(hop);
        bytes.extend_from_slice(body);
        seal(&mut bytes, 0);
        bytes
    }

    fn hop(first_link_seq: u64, flags: u8, count: u16) -> Vec<u8> {
        let mut hop = first_link_seq.to_be_bytes().to_vec();
        hop.push(flags);
        hop.extend_from_slice(&count.to_be_bytes());
        hop
    }

    fn rejected(frame: &[u8]) -> &'static str {
        let shared = decode_data_frame(&Bytes::copy_from_slice(frame), &mut Vec::new()).map(|_| ());
        match (Envelope::decode(frame), shared) {
            (Err(OverlayError::Malformed(a)), Err(OverlayError::Malformed(b))) if a == b => a,
            other => panic!("expected one Malformed from both decoders, got {other:?}"),
        }
    }

    /// Two records, as a well-formed frame would carry them.
    fn two_records() -> Vec<u8> {
        sample_batch(2).encode()[DATA_HEADER_LEN..].to_vec()
    }

    #[test]
    fn a_well_formed_hand_built_frame_decodes() {
        let frame = sealed(T_DATA_BATCH, &hop(500, 1, 2), &two_records());
        assert_eq!(frame, sample_batch(2).encode().as_ref());
    }

    #[test]
    fn link_sequences_that_would_wrap_are_rejected() {
        let frame = sealed(T_DATA_BATCH, &hop(u64::MAX - 1, 0, 2), &two_records());
        assert_eq!(rejected(&frame), "link sequence overflow");
        let frame = sealed(T_DATA_BATCH, &hop(u64::MAX - 2, 0, 2), &two_records());
        let last = Envelope::decode(&frame).expect("the last sequences there are");
        let Message::DataBatch(packets) = last.message else { panic!("a batch") };
        assert_eq!(packets[1].link_seq, u64::MAX - 1);
    }

    #[test]
    fn unassigned_hop_flag_bits_are_rejected() {
        for bit in 1..8 {
            let frame = sealed(T_DATA_BATCH, &hop(0, 1 << bit, 2), &two_records());
            assert_eq!(rejected(&frame), "unknown hop flags", "bit {bit}");
        }
    }

    #[test]
    fn a_count_of_zero_is_rejected() {
        assert_eq!(rejected(&sealed(T_DATA_BATCH, &hop(0, 0, 0), &[])), "empty data frame");
        assert_eq!(rejected(&sealed(T_DATA, &hop(0, 0, 0), &[])), "empty data frame");
    }

    #[test]
    fn a_count_the_bytes_cannot_hold_is_rejected() {
        let records = two_records();
        let frame = sealed(T_DATA_BATCH, &hop(0, 0, u16::MAX), &records);
        assert_eq!(rejected(&frame), "short data body");
        // One more than there is: caught by the count while the bytes
        // cannot hold three records' fixed parts, by the third record
        // itself once they can.
        assert_eq!(rejected(&sealed(T_DATA_BATCH, &hop(0, 0, 3), &records)), "short data body");
        let mut padded = records.clone();
        padded.extend_from_slice(&[0; RECORD_FIXED_LEN - 1]);
        assert_eq!(rejected(&sealed(T_DATA_BATCH, &hop(0, 0, 3), &padded)), "short data record");
        // One fewer: the second record is bytes nobody parsed.
        let frame = sealed(T_DATA_BATCH, &hop(0, 0, 1), &records);
        assert_eq!(rejected(&frame), "bytes behind the last record");
    }

    #[test]
    fn a_data_frame_carries_exactly_one_packet() {
        let frame = sealed(T_DATA, &hop(0, 0, 2), &two_records());
        assert_eq!(rejected(&frame), "data frame of several");
    }

    #[test]
    fn a_header_cut_short_is_rejected_before_it_is_read() {
        let good = sample_data().encode();
        for cut in PRELUDE_LEN..DATA_HEADER_LEN {
            assert_eq!(rejected(&good[..cut]), "short data header", "cut at {cut}");
        }
    }

    /// A DATA-BATCH as a version-4 node put it on the wire (captured
    /// from the parent revision): two 8-byte packets of flow 0 → 2.
    const V4_DATA_BATCH: &str = "dc040500000000f808d3f9000200000000000000020000000000000000\
        000000003b9aca00000000000000fde80000000000000000020001050008a0a0a0a0a0a0a0a0000000000000000200\
        00000000000001000000003b9aca00000000000000fde80000000000000001020001050008a1a1a1a1a1a1a1a1";

    #[test]
    fn a_version_4_frame_is_refused_not_misread() {
        let v4: Vec<u8> = (0..V4_DATA_BATCH.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&V4_DATA_BATCH[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(v4.len(), 121);
        assert_eq!(rejected(&v4), "unsupported version");
        // Nor does it pass for a version-5 frame with the byte changed.
        let mut relabelled = v4.clone();
        relabelled[1] = VERSION;
        assert_eq!(rejected(&relabelled), "bad checksum");
        // Even sealed as version 5, its old layout is no frame.
        seal(&mut relabelled, 0);
        assert!(Envelope::decode(&relabelled).is_err());
    }

    #[test]
    fn batch_round_trips_through_both_decode_paths() {
        for n in [1, 2, 7] {
            let env = sample_batch(n);
            let bytes = env.encode();
            assert_eq!(Envelope::decode(&bytes).unwrap(), env, "copying decode, n={n}");
            assert_eq!(Envelope::decode_shared(&bytes).unwrap(), env, "shared decode, n={n}");
        }
    }

    #[test]
    fn batch_matches_sequential_singles() {
        // A batch frame must carry exactly the packets that n single
        // frames would, with per-item link sequences preserved.
        let env = sample_batch(3);
        let Message::DataBatch(packets) = &env.message else { unreachable!() };
        let bytes = env.encode();
        let Envelope { message: Message::DataBatch(back), .. } = Envelope::decode(&bytes).unwrap()
        else {
            panic!("batch decodes as a batch")
        };
        assert_eq!(&back, packets);
        assert_eq!(back[0].link_seq, 500);
        assert_eq!(back[2].link_seq, 502);
    }

    #[test]
    fn data_frame_of_one_is_plain_data() {
        // The node's framing must put a lone packet on the wire exactly
        // as a DATA envelope would, and several as a DATA-BATCH, with
        // link sequences counting up from the one given.
        let Message::DataBatch(packets) = sample_batch(3).message else { unreachable!() };
        let from = NodeId::new(3);
        for n in [1, 3] {
            let (mut body, mut buf) = (Vec::new(), Vec::new());
            put_records(&mut body, &packets[..n]);
            let header = HopHeader { from, first_link_seq: 500, retransmission: true, count: n };
            put_data_frame(header, &body, body_state(&body), &mut buf);
            let message = match n {
                1 => Message::Data(packets[0].clone()),
                _ => Message::DataBatch(packets.clone()),
            };
            assert_eq!(buf, Envelope { from, message }.encode().as_ref(), "n={n}");
        }
    }

    #[test]
    fn batch_corruption_and_truncation_are_detected() {
        let good = sample_batch(4).encode();
        for pos in 0..good.len() {
            let mut bytes = good.to_vec();
            bytes[pos] ^= 0x40;
            assert!(Envelope::decode(&bytes).is_err(), "flip at byte {pos} went undetected");
        }
        for cut in 0..good.len() {
            assert!(Envelope::decode(&good[..cut]).is_err(), "cut at {cut}");
            assert!(Envelope::decode_shared(&good.slice(0..cut)).is_err(), "shared cut at {cut}");
        }
    }

    #[test]
    fn shared_decode_matches_copying_decode_for_all_types() {
        let mut envs = vec![sample_data(), sample_batch(2)];
        envs.push(Envelope {
            from: NodeId::new(1),
            message: Message::Nack { missing: vec![5, 6, 9] },
        });
        for env in envs {
            let bytes = env.encode();
            assert_eq!(
                Envelope::decode(&bytes).unwrap(),
                Envelope::decode_shared(&bytes).unwrap(),
                "{env:?}"
            );
        }
    }

    #[test]
    fn sla_class_and_hop_flag_round_trip() {
        for class in SlaClass::ALL {
            for retransmission in [false, true] {
                let mut env = sample_data();
                let Message::Data(d) = &mut env.message else { unreachable!() };
                d.class = class;
                d.retransmission = retransmission;
                let bytes = env.encode();
                let Envelope { message: Message::Data(back), .. } =
                    Envelope::decode(&bytes).unwrap()
                else {
                    panic!("data decodes as data")
                };
                assert_eq!(back.class, class);
                assert_eq!(back.retransmission, retransmission);
            }
        }
    }

    #[test]
    fn reserved_class_bits_are_rejected() {
        // The class byte sits after the header and the record's four
        // fixed fields (flow, flow_seq, sent_at, deadline).
        const CLASS_OFFSET: usize = DATA_HEADER_LEN + 8 + 8 + 8 + 8;
        let mut bytes = sample_data().encode().to_vec();
        bytes[CLASS_OFFSET] = 0b0000_0011; // class bits = 3 (reserved)
        seal(&mut bytes, 0);
        assert_eq!(rejected(&bytes), "reserved sla class bits");
        bytes[CLASS_OFFSET] = 0b0000_0100; // a bit no class uses
        seal(&mut bytes, 0);
        assert_eq!(rejected(&bytes), "unknown record class bits");
    }

    #[test]
    fn encode_into_matches_encode() {
        for env in [sample_data(), sample_batch(3)] {
            let freestanding = env.encode();
            let mut buf = BytesMut::with_capacity(env.encoded_len());
            env.encode_into(&mut buf);
            assert_eq!(&freestanding[..], &buf[..]);
            let mut vec = Vec::new();
            env.encode_into_vec(&mut vec);
            assert_eq!(&freestanding[..], &vec[..]);
            assert_eq!(freestanding.len(), env.encoded_len());
        }
    }
}
