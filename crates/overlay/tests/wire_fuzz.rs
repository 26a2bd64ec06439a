//! Property tests of the wire codec: decoding must be total (no panics,
//! no unbounded allocation) on arbitrary input, and encode/decode must
//! round-trip arbitrary well-formed messages.

use bytes::{Bytes, BytesMut};
use dg_core::{Flow, SlaClass};
use dg_overlay::pool::BufferPool;
use dg_overlay::wire::{
    DataPacket, DigestEntry, Envelope, LinkStateEntry, LinkStateUpdate, Message,
};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
