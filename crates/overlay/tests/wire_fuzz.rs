//! Property tests of the wire codec: decoding must be total (no panics,
//! no unbounded allocation) on arbitrary input, encode/decode must
//! round-trip arbitrary well-formed messages, and the node's own reading
//! of a data frame must agree with the envelope decoders' on every frame
//! and every damaged copy of one.

use bytes::{Bytes, BytesMut};
use dg_core::{Flow, SlaClass};
use dg_overlay::pool::BufferPool;
use dg_overlay::wire::{
    self, DataPacket, DigestEntry, Envelope, LinkStateEntry, LinkStateUpdate, Message,
};
use dg_overlay::OverlayError;
use dg_topology::{EdgeId, Micros, NodeId};
use proptest::prelude::*;

/// A packet's record: everything but what its frame's header says.
fn arb_packet() -> impl Strategy<Value = DataPacket> {
    (
        0u32..64,
        0u32..64,
        any::<u64>(),
        any::<u64>(),
        0u64..1_000_000_000,
        0u8..3,
        proptest::collection::vec(any::<u8>(), 0..16),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(s, d, seq, sent, dl, class, mask, payload)| DataPacket {
            flow: Flow::new(NodeId::new(s), NodeId::new(d)),
            flow_seq: seq,
            sent_at: Micros::from_micros(sent),
            deadline: Micros::from_micros(dl),
            link_seq: 0,
            retransmission: false,
            class: SlaClass::from_bits(class).expect("0..3 are the assigned class patterns"),
            mask: Bytes::from(mask),
            payload: Bytes::from(payload),
        })
}

/// The packets of one data frame: one first link sequence and one hop
/// flag a frame, packet `i` travelling as `first + i` (anywhere the
/// last of them still fits a `u64`).
fn arb_frame(packets: std::ops::Range<usize>) -> impl Strategy<Value = Vec<DataPacket>> {
    (proptest::collection::vec(arb_packet(), packets), 0..=u64::MAX - 8, any::<bool>()).prop_map(
        |(mut packets, first, retransmission)| {
            for (packet, link_seq) in packets.iter_mut().zip(first..) {
                (packet.link_seq, packet.retransmission) = (link_seq, retransmission);
            }
            packets
        },
    )
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_frame(1..2).prop_map(|mut one| Message::Data(one.remove(0))),
        arb_frame(1..8).prop_map(Message::DataBatch),
        proptest::collection::vec(any::<u64>(), 0..64)
            .prop_map(|missing| Message::Nack { missing }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seq, t)| Message::Hello { seq, sent_at: Micros::from_micros(t) }),
        (any::<u64>(), any::<u64>()).prop_map(|(seq, t)| Message::HelloAck {
            echo_seq: seq,
            echo_sent_at: Micros::from_micros(t),
        }),
        (
            0u32..64,
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec((0u32..256, 0.0f32..1.0, any::<u32>(), any::<bool>()), 0..32),
        )
            .prop_map(|(origin, epoch, seq, entries)| {
                Message::LinkState(LinkStateUpdate {
                    origin: NodeId::new(origin),
                    epoch,
                    seq,
                    entries: entries
                        .into_iter()
                        .map(|(e, loss, extra, down)| LinkStateEntry {
                            edge: EdgeId::new(e),
                            loss,
                            extra_latency_us: extra,
                            down,
                        })
                        .collect(),
                })
            }),
        (0u32..64, any::<u64>(), any::<u64>()).prop_map(|(origin, epoch, seq)| Message::LsaAck {
            origin: NodeId::new(origin),
            epoch,
            seq,
        }),
        proptest::collection::vec((0u32..64, any::<u64>(), any::<u64>()), 0..32).prop_map(
            |entries| Message::Digest {
                entries: entries
                    .into_iter()
                    .map(|(origin, epoch, seq)| DigestEntry {
                        origin: NodeId::new(origin),
                        epoch,
                        seq,
                    })
                    .collect(),
            }
        ),
    ]
}

/// The checksum as docs/PROTOCOL.md §1 defines it, written the plain
/// way: four FNV-1a lanes over the body's 32-byte blocks folded into one
/// state, the remaining words, the zero-padded tail and the length; then
/// the header less its checksum field, zero-padded to words.
fn reference_checksum(frame: &[u8]) -> u32 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let header_len = if matches!(frame[2], 0 | 5) { 22 } else { 11 };
    let body = &frame[header_len..];
    let word = |bytes: &[u8], at: usize| {
        (0..8)
            .filter(|k| at + k < bytes.len())
            .fold(0u64, |w, k| w | u64::from(bytes[at + k]) << (8 * k))
    };
    let step = |hash: u64, word: u64| (hash ^ word).wrapping_mul(PRIME);
    let blocks = body.len() / 32;
    let mut lanes = [OFFSET; 4];
    for block in 0..blocks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, word(body, 32 * block + 8 * j));
        }
    }
    let mut hash = lanes.into_iter().fold(OFFSET, step);
    hash = (32 * blocks..body.len()).step_by(8).fold(hash, |h, at| step(h, word(body, at)));
    hash = step(hash, body.len() as u64);
    let mut head = frame[..7].to_vec();
    head.extend_from_slice(&frame[11..header_len]);
    hash = (0..head.len()).step_by(8).fold(hash, |h, at| step(h, word(&head, at)));
    (hash ^ (hash >> 32)) as u32
}

/// Makes `frame`'s checksum hold again, where it still has a whole
/// header to hold it in.
fn reseal(frame: &mut [u8]) {
    let header_len = match frame.get(2) {
        Some(0 | 5) => 22,
        Some(_) => 11,
        None => return,
    };
    if frame.len() >= header_len {
        let sum = reference_checksum(frame);
        frame[7..11].copy_from_slice(&sum.to_be_bytes());
    }
}

/// One way to damage a frame: where (a fraction of its length), with
/// what, and whether the checksum is made to hold again afterwards (so
/// that the damage reaches the parser behind it).
#[derive(Debug, Clone)]
struct Mutation {
    kind: u8,
    at: f64,
    value: u16,
    reseal: bool,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0u8..5, 0.0f64..1.0, any::<u16>(), any::<bool>())
        .prop_map(|(kind, at, value, reseal)| Mutation { kind, at, value, reseal })
}

impl Mutation {
    fn apply(&self, frame: &[u8]) -> Vec<u8> {
        let mut bytes = frame.to_vec();
        let pos = ((bytes.len() as f64) * self.at) as usize % bytes.len();
        match self.kind {
            // Flip some bits of one byte.
            0 => bytes[pos] ^= (self.value as u8).max(1),
            // Overwrite a big-endian u16 there: a count, a mask or a
            // payload length, a class byte and what follows it.
            1 => {
                let value = self.value.to_be_bytes();
                for (k, b) in value.iter().enumerate() {
                    if let Some(slot) = bytes.get_mut(pos + k) {
                        *slot = *b;
                    }
                }
            }
            // Cut it short.
            2 => bytes.truncate(pos),
            // Append bytes behind it.
            3 => bytes.extend(std::iter::repeat_n(self.value as u8, 1 + self.value as usize % 40)),
            // Drop one byte from the middle.
            _ => {
                bytes.remove(pos);
            }
        }
        if self.reseal {
            reseal(&mut bytes);
        }
        bytes
    }
}

/// What a decoder made of a data frame: the sender and the packets, or
/// the reason it was refused.
type Reading = Result<(NodeId, Vec<DataPacket>), &'static str>;

fn reason(e: OverlayError) -> &'static str {
    match e {
        OverlayError::Malformed(why) => why,
        other => panic!("a decoder refused a frame with {other:?}, not Malformed"),
    }
}

fn envelope_reading(decoded: Result<Envelope, OverlayError>) -> Reading {
    match decoded.map_err(reason)? {
        Envelope { from, message: Message::Data(packet) } => Ok((from, vec![packet])),
        Envelope { from, message: Message::DataBatch(packets) } => Ok((from, packets)),
        other => panic!("a data frame decoded as {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One record parser: the node's decoder and both envelope decoders
    /// accept the same data frames — the generated ones and every
    /// mutation of them that still says it is a data frame — with equal
    /// packets, and refuse the rest for the same reason.
    #[test]
    fn the_node_and_the_envelope_decoders_agree_on_every_data_frame(
        from in 0u32..64,
        message in prop_oneof![
            arb_frame(1..2).prop_map(|mut one| Message::Data(one.remove(0))),
            arb_frame(1..8).prop_map(Message::DataBatch),
        ],
        mutations in proptest::collection::vec(arb_mutation(), 1..12),
    ) {
        let good = Envelope { from: NodeId::new(from), message }.encode();
        let mut resealed = good.to_vec();
        reseal(&mut resealed);
        prop_assert_eq!(&resealed[..], &good[..], "the reference sum is the codec's");
        let frames = std::iter::once(good.to_vec()).chain(mutations.iter().map(|m| m.apply(&good)));
        for (i, frame) in frames.enumerate() {
            if !matches!(frame.get(2), Some(0 | 5)) {
                continue; // no longer a data frame: the node never parses it as one
            }
            let shared = Bytes::from(frame.clone());
            let copying = envelope_reading(Envelope::decode(&frame));
            let zero_copy = envelope_reading(Envelope::decode_shared(&shared));
            let node = wire::decode_as_node(&shared).map_err(reason);
            prop_assert_eq!(&copying, &zero_copy, "frame {}", i);
            prop_assert_eq!(&copying, &node, "frame {}", i);
            if i == 0 {
                prop_assert!(node.is_ok(), "the generated frame decodes");
            }
        }
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Envelope::decode(&bytes);
    }

    /// Every well-formed envelope round-trips exactly.
    #[test]
    fn encode_decode_round_trips(from in 0u32..64, message in arb_message()) {
        let env = Envelope { from: NodeId::new(from), message };
        let encoded = env.encode();
        let decoded = Envelope::decode(&encoded).expect("own encoding decodes");
        prop_assert_eq!(env, decoded);
    }

    /// Encoding into a pooled (reused, dirty) buffer produces bytes
    /// identical to a fresh allocating encode, and both zero-copy and
    /// copying decodes of either reproduce the original envelope.
    #[test]
    fn pooled_encode_is_byte_identical_to_allocating(
        from in 0u32..64,
        message in arb_message(),
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let env = Envelope { from: NodeId::new(from), message };
        let allocating = env.encode();

        // Dirty a pooled buffer first so stale contents would show up.
        let mut pool = BufferPool::new(4);
        let mut buf = pool.get();
        buf.extend_from_slice(&garbage);
        pool.put(buf);
        let mut pooled = pool.get();
        env.encode_into_vec(&mut pooled);
        prop_assert_eq!(&allocating[..], &pooled[..]);

        let mut via_bytes_mut = BytesMut::with_capacity(env.encoded_len());
        env.encode_into(&mut via_bytes_mut);
        prop_assert_eq!(&allocating[..], &via_bytes_mut[..]);

        let shared = Bytes::from(pooled);
        prop_assert_eq!(&env, &Envelope::decode(&shared).expect("pooled encoding decodes"));
        prop_assert_eq!(
            &env,
            &Envelope::decode_shared(&shared).expect("pooled encoding decodes zero-copy")
        );
    }

    /// Truncating a valid datagram at any point yields an error, never
    /// a panic, a bogus success, or a read past the buffer — the
    /// checksum covers the whole datagram, so no proper prefix decodes.
    #[test]
    fn truncation_is_rejected(from in 0u32..64, message in arb_message(), cut_frac in 0.0f64..1.0) {
        let env = Envelope { from: NodeId::new(from), message };
        let encoded = env.encode();
        let cut = ((encoded.len() as f64) * cut_frac) as usize;
        if cut < encoded.len() {
            prop_assert!(Envelope::decode(&encoded[..cut]).is_err());
        }
    }

    /// Flipping one byte never panics the decoder, and the checksum
    /// catches the flip (a fold collision has 2^-32 odds, far below
    /// what 256 cases could hit) — corruption yields malformed, never
    /// a silently altered message.
    #[test]
    fn corruption_is_detected(
        from in 0u32..64,
        message in arb_message(),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let env = Envelope { from: NodeId::new(from), message };
        let mut bytes = env.encode().to_vec();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len().max(1);
        if !bytes.is_empty() {
            bytes[pos] ^= xor;
            prop_assert!(Envelope::decode(&bytes).is_err());
        }
    }
}
