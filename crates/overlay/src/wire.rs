//! Wire format of overlay packets.
//!
//! Every datagram is an [`Envelope`]: a fixed prelude (magic, version,
//! message type, sending node, integrity checksum) followed by one
//! [`Message`]. Data packets carry the flow's dissemination graph as an
//! edge bitmask, so intermediate nodes forward without any per-flow
//! routing state — the source alone decides the routing, per the
//! paper's architecture.
//!
//! The prelude checksum (a word-at-a-time 64-bit FNV-1a over every
//! byte except the checksum field itself, folded to 32 bits) turns
//! in-flight corruption into a clean decode error: a corrupted
//! datagram only ever increments the `malformed` counter, it can never
//! deliver a flipped payload or poison protocol state.
//!
//! Two encode/decode surfaces exist: the classic allocating pair
//! ([`Envelope::encode`]/[`Envelope::decode`]) and the pooled-buffer
//! pair ([`Envelope::encode_into`]/[`Envelope::decode_shared`]). The
//! latter appends into a caller-supplied buffer and parses data packets
//! as zero-copy slices of the received frame, so the forwarding hot
//! path performs no per-packet copies of mask or payload bytes.

use crate::OverlayError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dg_core::{Flow, SlaClass};
use dg_topology::{EdgeId, Micros, NodeId};

/// First byte of every overlay datagram.
pub const MAGIC: u8 = 0xDC;
/// Wire protocol version. Version 2 added the prelude checksum, the
/// link-state origin epoch, and per-entry link-down flags; version 3
/// added batched data frames and the word-folded checksum; version 4
/// turned the data-body retransmission byte into a flags byte carrying
/// the SLA service class (bits 1–2).
pub const VERSION: u8 = 4;
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
    /// syscall, one checksum). Each item keeps its own per-link
    /// sequence number, so hop-by-hop recovery still works per packet.
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
    /// sides of a healed partition reconcile deterministically instead
    /// of waiting for the next periodic refresh to happen to survive.
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
    /// Per-link sequence number assigned by the transmitting node.
    pub link_seq: u64,
    /// True for hop-by-hop retransmissions (they are not recovered again).
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
        let i = edge.index();
        self.mask.get(i / 8).is_some_and(|b| b & (1 << (i % 8)) != 0)
    }

    /// True when, at time `now`, this packet can no longer be delivered
    /// within its deadline.
    pub fn expired(&self, now: Micros) -> bool {
        now > self.sent_at.saturating_add(self.deadline)
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

/// Fixed part of a data body: flow (8), flow_seq (8), sent_at (8),
/// deadline (8), link_seq (8), flags (1), mask length (2), payload
/// length (2).
const DATA_FIXED_LEN: usize = 45;

/// Bit 0 of a data body's flags byte: hop-by-hop retransmission.
const FLAG_RETRANSMISSION: u8 = 0x01;
/// Bits 1–2 of a data body's flags byte: the SLA class.
const CLASS_SHIFT: u8 = 1;
const CLASS_MASK: u8 = 0b0000_0110;

/// Byte offset of the prelude checksum field.
const CHECKSUM_OFFSET: usize = 7;
/// Total prelude size: magic, version, type, sender, checksum.
const PRELUDE_LEN: usize = 11;
/// Bit 0 of a link-state entry's flags byte: link declared down.
const FLAG_LINK_DOWN: u8 = 0x01;

/// Integrity checksum over every datagram byte except the checksum
/// field itself: 64-bit FNV-1a consumed eight bytes per step (short
/// tails are zero-padded and length-tagged), folded to 32 bits. The
/// word-wise walk breaks FNV's one-multiply-per-byte dependency chain,
/// which matters now that batching produces multi-kilobyte datagrams
/// that are checksummed twice per hop (seal + verify).
fn checksum(datagram: &[u8]) -> u32 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            hash ^= u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
            hash = hash.wrapping_mul(PRIME);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            // Tag the pad with the tail length so trailing zero bytes
            // and an absent tail cannot alias.
            tail[7] = rem.len() as u8;
            hash ^= u64::from_le_bytes(tail);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    eat(&datagram[..CHECKSUM_OFFSET.min(datagram.len())]);
    if datagram.len() > PRELUDE_LEN {
        eat(&datagram[PRELUDE_LEN..]);
    }
    (hash ^ (hash >> 32)) as u32
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
    buf.put_u32(0); // checksum placeholder, patched by seal()
    base
}

/// Computes and patches the checksum of the envelope starting at `base`.
fn seal(buf: &mut [u8], base: usize) {
    let sum = checksum(&buf[base..]);
    buf[base + CHECKSUM_OFFSET..base + PRELUDE_LEN].copy_from_slice(&sum.to_be_bytes());
}

/// Serialized size of one data body (without the prelude).
pub(crate) fn data_body_len(d: &DataPacket) -> usize {
    DATA_FIXED_LEN + d.mask.len() + d.payload.len()
}

fn put_data_body<B: BufMut>(buf: &mut B, d: &DataPacket, link_seq: u64) {
    buf.put_u32(d.flow.source.index() as u32);
    buf.put_u32(d.flow.destination.index() as u32);
    buf.put_u64(d.flow_seq);
    buf.put_u64(d.sent_at.as_micros());
    buf.put_u64(d.deadline.as_micros());
    buf.put_u64(link_seq);
    buf.put_u8((d.class.to_bits() << CLASS_SHIFT) | u8::from(d.retransmission));
    buf.put_u16(d.mask.len() as u16);
    buf.put_slice(&d.mask);
    buf.put_u16(d.payload.len() as u16);
    buf.put_slice(&d.payload);
}

/// Appends one data frame carrying `packets` (at least one) with their
/// per-link sequences overridden to count up from `first_link_seq` (a
/// run always occupies consecutive sequences on its link), without
/// cloning the packets; the node's transmit path pairs this with a
/// pooled buffer. A single packet is framed as plain `T_DATA`, never
/// as a `T_DATA_BATCH` of one, so single-packet traffic looks the same
/// on the wire whether or not the sender batches.
pub(crate) fn encode_data_frame(
    from: NodeId,
    packets: &[DataPacket],
    first_link_seq: u64,
    buf: &mut Vec<u8>,
) {
    debug_assert!(!packets.is_empty(), "a data frame carries at least one packet");
    let body: usize = packets.iter().map(data_body_len).sum();
    buf.reserve(PRELUDE_LEN + 2 + body);
    let base = if packets.len() == 1 {
        put_prelude(buf, T_DATA, from)
    } else {
        let base = put_prelude(buf, T_DATA_BATCH, from);
        buf.put_u16(packets.len() as u16);
        base
    };
    for (d, seq) in packets.iter().zip(first_link_seq..) {
        put_data_body(buf, d, seq);
    }
    seal(buf, base);
}

/// How `decode` materializes mask/payload bytes: by copying out of the
/// datagram, or by slicing a shared receive frame (zero-copy).
enum Materialize<'a> {
    Copy,
    Share(&'a Bytes),
}

impl Materialize<'_> {
    fn take(&self, datagram: &[u8], offset: usize, len: usize) -> Bytes {
        match self {
            Materialize::Copy => Bytes::copy_from_slice(&datagram[offset..offset + len]),
            Materialize::Share(frame) => frame.slice(offset..offset + len),
        }
    }
}

fn decode_data_body(
    datagram: &[u8],
    buf: &mut &[u8],
    materialize: &Materialize<'_>,
) -> Result<DataPacket, OverlayError> {
    if buf.remaining() < DATA_FIXED_LEN {
        return Err(OverlayError::Malformed("short data header"));
    }
    let flow = Flow::new(NodeId::new(buf.get_u32()), NodeId::new(buf.get_u32()));
    let flow_seq = buf.get_u64();
    let sent_at = Micros::from_micros(buf.get_u64());
    let deadline = Micros::from_micros(buf.get_u64());
    let link_seq = buf.get_u64();
    let flags = buf.get_u8();
    if flags & !(FLAG_RETRANSMISSION | CLASS_MASK) != 0 {
        return Err(OverlayError::Malformed("unknown data flags"));
    }
    let retransmission = flags & FLAG_RETRANSMISSION != 0;
    let class = SlaClass::from_bits((flags & CLASS_MASK) >> CLASS_SHIFT)
        .ok_or(OverlayError::Malformed("reserved sla class bits"))?;
    let mask_len = buf.get_u16() as usize;
    if buf.remaining() < mask_len + 2 {
        return Err(OverlayError::Malformed("short mask"));
    }
    let mask = materialize.take(datagram, datagram.len() - buf.remaining(), mask_len);
    buf.advance(mask_len);
    let payload_len = buf.get_u16() as usize;
    if buf.remaining() < payload_len {
        return Err(OverlayError::Malformed("short payload"));
    }
    let payload = materialize.take(datagram, datagram.len() - buf.remaining(), payload_len);
    buf.advance(payload_len);
    Ok(DataPacket {
        flow,
        flow_seq,
        sent_at,
        deadline,
        link_seq,
        retransmission,
        class,
        mask,
        payload,
    })
}

fn decode_with(datagram: &[u8], materialize: Materialize<'_>) -> Result<Envelope, OverlayError> {
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
    if claimed != checksum(datagram) {
        return Err(OverlayError::Malformed("bad checksum"));
    }
    let message = match msg_type {
        T_DATA => Message::Data(decode_data_body(datagram, &mut buf, &materialize)?),
        T_DATA_BATCH => {
            if buf.remaining() < 2 {
                return Err(OverlayError::Malformed("short batch"));
            }
            let count = buf.get_u16() as usize;
            if count == 0 {
                return Err(OverlayError::Malformed("empty batch"));
            }
            if buf.remaining() < count * DATA_FIXED_LEN {
                return Err(OverlayError::Malformed("short batch body"));
            }
            let mut packets = Vec::with_capacity(count);
            for _ in 0..count {
                packets.push(decode_data_body(datagram, &mut buf, &materialize)?);
            }
            Message::DataBatch(packets)
        }
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
        PRELUDE_LEN
            + match &self.message {
                Message::Data(d) => data_body_len(d),
                Message::DataBatch(ps) => 2 + ps.iter().map(data_body_len).sum::<usize>(),
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
            Message::Data(d) => put_data_body(buf, d, d.link_seq),
            Message::DataBatch(ps) => {
                buf.put_u16(ps.len() as u16);
                for d in ps {
                    put_data_body(buf, d, d.link_seq);
                }
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
        let envs = vec![
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
        ];
        for env in envs {
            let bytes = env.encode();
            assert_eq!(bytes.len(), env.encoded_len(), "{env:?}");
            assert_eq!(Envelope::decode(&bytes).unwrap(), env, "{env:?}");
        }
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
        for pos in 0..good.len() {
            for xor in [0x01u8, 0x80, 0xFF] {
                let mut bytes = good.to_vec();
                bytes[pos] ^= xor;
                assert!(
                    Envelope::decode(&bytes).is_err(),
                    "flip {xor:#04x} at byte {pos} went undetected"
                );
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
                retransmission: i % 2 == 1,
                class: SlaClass::ALL[i % SlaClass::ALL.len()],
                mask: Bytes::from_static(&[0b0000_0011]),
                payload: Bytes::copy_from_slice(format!("payload-{i}").as_bytes()),
            })
            .collect();
        Envelope { from: NodeId::new(3), message: Message::DataBatch(packets) }
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
        // The node's encoder must put a lone packet on the wire exactly
        // as a DATA envelope would, and several as a DATA-BATCH, with
        // link sequences counting up from the one given.
        let Message::DataBatch(packets) = sample_batch(3).message else { unreachable!() };
        let from = NodeId::new(3);
        for n in [1, 3] {
            let mut buf = Vec::new();
            encode_data_frame(from, &packets[..n], 500, &mut buf);
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
    fn sla_class_round_trips_in_flags_byte() {
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
        // The flags byte sits after the prelude and the five fixed u64/
        // u32 fields of the data body.
        const FLAGS_OFFSET: usize = PRELUDE_LEN + 4 + 4 + 8 + 8 + 8 + 8;
        let mut bytes = sample_data().encode().to_vec();
        bytes[FLAGS_OFFSET] = 0b0000_0110; // class bits = 3 (reserved)
        seal(&mut bytes, 0);
        assert!(Envelope::decode(&bytes).is_err(), "reserved class bits must not decode");
        bytes[FLAGS_OFFSET] = 0b0000_1000; // unknown high flag bit
        seal(&mut bytes, 0);
        assert!(Envelope::decode(&bytes).is_err(), "unknown flag bits must not decode");
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
