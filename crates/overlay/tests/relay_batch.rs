//! Relay-side batching: a DATA-BATCH frame is accepted packet by packet
//! and its survivors are forwarded as runs — batches stay batches.
//!
//! The tests step real node cores on the virtual clock (`simnet::Net`:
//! no socket, thread or sleep). A site can be left down, which makes it
//! a *tap*: the test injects hand-encoded frames in its name and reads
//! what its neighbours put on the wire to it, byte for byte.

use bytes::Bytes;
use dg_core::scheme::{RoutingScheme, SchemeKind};
use dg_core::{DisseminationGraph, Flow, ServiceRequirement, SlaClass};
use dg_overlay::cluster::ClusterConfig;
use dg_overlay::fault::LinkFault;
use dg_overlay::session::Delivery;
use dg_overlay::simnet::{Net, SimSender};
use dg_overlay::wire::{DataPacket, Envelope, Message};
use dg_overlay::NodeCounters;
use dg_topology::{Graph, GraphBuilder, Micros, NodeId};
use dg_trace::NetworkState;

const BATCH: usize = 32;
/// A data frame's per-hop header: prelude (11), first link sequence
/// (8), hop flags (1), count (2). The records follow.
const HEADER: usize = 22;
/// A budget that takes a whole 32-packet batch in one datagram.
const BIG_BUDGET: usize = 60_000;
/// Longer than any of these topologies takes to go quiet.
const SETTLE: Micros = Micros::from_millis(50);

/// A scheme pinned to one hand-built dissemination graph.
#[derive(Debug)]
struct Fixed(Flow, DisseminationGraph);

impl RoutingScheme for Fixed {
    fn kind(&self) -> SchemeKind {
        SchemeKind::StaticSinglePath
    }
    fn flow(&self) -> Flow {
        self.0
    }
    fn current(&self) -> &DisseminationGraph {
        &self.1
    }
    fn update(&mut self, _: &Graph, _: &NetworkState) -> bool {
        false
    }
}

/// Sites named `names`, linked pairwise by `links`, a millisecond each.
fn topology(names: &[&str], links: &[(usize, usize)]) -> (Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = names.iter().map(|n| b.add_node(n)).collect();
    for &(x, y) in links {
        b.add_link(ids[x], ids[y], Micros::from_millis(1), 1).expect("links are distinct");
    }
    (b.build(), ids)
}

fn chain4() -> (Graph, Vec<NodeId>) {
    topology(&["A", "B", "C", "D"], &[(0, 1), (1, 2), (2, 3)])
}

/// One node per site, every one with `budget` as its `max_batch_bytes`;
/// the sites in `taps` stay down.
fn launch(graph: &Graph, budget: usize, taps: &[NodeId]) -> Net {
    let config = ClusterConfig { max_batch_bytes: budget, ..ClusterConfig::default() };
    Net::launch_except(graph, config, taps).expect("the configuration is sound")
}

fn counters(net: &Net, node: NodeId) -> NodeCounters {
    net.snapshot(node).counters
}

/// Link transmissions of `flow` accounted at `node`.
fn transmissions(net: &Net, node: NodeId, flow: Flow) -> u64 {
    net.snapshot(node).flows.iter().find(|f| f.flow == flow).map_or(0, |f| f.transmissions)
}

/// The dissemination graph made of the directed `hops`.
fn dgraph(net: &Net, flow: Flow, hops: &[(NodeId, NodeId)]) -> DisseminationGraph {
    let graph = net.graph();
    let edges = hops.iter().map(|&(a, b)| graph.edge_between(a, b).expect("hop exists")).collect();
    DisseminationGraph::new(graph, flow.source, flow.destination, edges)
        .expect("hops connect the flow")
}

fn mask(net: &Net, flow: Flow, hops: &[(NodeId, NodeId)]) -> Bytes {
    Bytes::from(dgraph(net, flow, hops).to_bitmask(net.graph().edge_count()))
}

/// Opens both ends of `flow`, routed along `hops`.
fn open(net: &mut Net, flow: Flow, hops: &[(NodeId, NodeId)]) -> SimSender {
    if net.is_alive(flow.destination) {
        net.open_receiver(flow);
    }
    let scheme = Box::new(Fixed(flow, dgraph(net, flow, hops)));
    net.open_sender_on(scheme, ServiceRequirement::default(), SlaClass::default())
        .expect("sender opens")
}

/// The data frames put on the wire from `from` to `to` so far, in order,
/// raw and decoded.
fn data_frames(net: &Net, from: NodeId, to: NodeId) -> Vec<(Bytes, Vec<DataPacket>)> {
    let on_link = net.wire().iter().filter(|f| f.from == from && f.to == to);
    on_link
        .map(|f| (f.bytes.clone(), f.data()))
        .filter(|(_, packets)| !packets.is_empty())
        .collect()
}

/// The flow sequences each frame carries.
fn seqs_by_frame(frames: &[(Bytes, Vec<DataPacket>)]) -> Vec<Vec<u64>> {
    frames.iter().map(|(_, ps)| ps.iter().map(|p| p.flow_seq).collect()).collect()
}

fn link_seqs(frames: &[(Bytes, Vec<DataPacket>)]) -> Vec<u64> {
    frames.iter().flat_map(|(_, ps)| ps.iter().map(|p| p.link_seq)).collect()
}

fn payload(i: u64) -> Vec<u8> {
    let mut p = vec![0u8; 64];
    p[..8].copy_from_slice(&i.to_be_bytes());
    p
}

/// Sends packets `first..first + BATCH` as one batch.
fn send_batch(net: &mut Net, tx: SimSender, first: u64) {
    let payloads: Vec<Vec<u8>> = (first..first + BATCH as u64).map(payload).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    assert_eq!(net.send_batch(tx, &refs), first);
}

/// Puts a hand-built frame on the wire as if `from` (a tap) had sent it,
/// and lets the network go quiet.
fn inject(net: &mut Net, from: NodeId, to: NodeId, message: Message) {
    net.inject(from, to, message);
    net.run_for(SETTLE);
}

/// Injects `packets` as one frame from the tap `from`; returns the
/// frame as it was on the wire.
fn inject_frame(net: &mut Net, from: NodeId, to: NodeId, packets: Vec<DataPacket>) -> Bytes {
    let frame = Envelope { from, message: Message::DataBatch(packets) }.encode();
    net.inject_bytes(to, frame.clone());
    net.run_for(SETTLE);
    frame
}

/// Lets the network go quiet and takes what `flow` delivered meanwhile.
fn collect(net: &mut Net, flow: Flow) -> Vec<Delivery> {
    net.run_for(SETTLE);
    net.take_deliveries(flow)
}

/// A data packet as a source would stamp it now, for hand-encoded frames.
fn packet(net: &Net, flow: Flow, flow_seq: u64, link_seq: u64, mask: &Bytes) -> DataPacket {
    DataPacket {
        flow,
        flow_seq,
        sent_at: net.now(),
        deadline: Micros::from_millis(65),
        link_seq,
        retransmission: false,
        class: SlaClass::Timely,
        mask: mask.clone(),
        payload: Bytes::from(payload(flow_seq)),
    }
}

#[test]
fn chain_forwards_one_datagram_per_batch() {
    let (graph, n) = chain4();
    let mut net = launch(&graph, BIG_BUDGET, &[]);
    let flow = Flow::new(n[0], n[3]);
    let tx = open(&mut net, flow, &[(n[0], n[1]), (n[1], n[2]), (n[2], n[3])]);
    const BATCHES: u64 = 20;
    for b in 0..BATCHES {
        send_batch(&mut net, tx, b * BATCH as u64);
    }
    let total = BATCHES * BATCH as u64;
    let got = collect(&mut net, flow);
    assert_eq!(got.len() as u64, total, "delivered exactly once");
    for (i, d) in got.iter().enumerate() {
        assert_eq!(d.flow_seq, i as u64, "delivered in order");
        assert_eq!(d.payload.as_ref(), payload(i as u64).as_slice());
        assert!(d.on_time);
    }
    for (i, hop) in n.windows(2).enumerate() {
        let c = counters(&net, hop[0]);
        assert_eq!((c.data_received, c.data_sent), (if i == 0 { 0 } else { total }, total));
        let datagrams = data_frames(&net, hop[0], hop[1]).len() as u64;
        assert_eq!(datagrams, BATCHES, "{} ships a batch as one datagram", hop[0]);
    }
}

#[test]
fn relay_rechunks_inside_its_own_budget() {
    let (graph, n) = topology(&["A", "B", "C"], &[(0, 1), (1, 2)]);
    // The relay keeps to the WAN-safe default; the frame it is handed
    // was filled to a loopback budget.
    const RELAY_BUDGET: usize = 1_400;
    let mut net = launch(&graph, RELAY_BUDGET, &[n[0], n[2]]);
    let flow = Flow::new(n[0], n[2]);
    let mask = mask(&net, flow, &[(n[0], n[1]), (n[1], n[2])]);
    let packets: Vec<DataPacket> =
        (0..BATCH as u64).map(|i| packet(&net, flow, i, i, &mask)).collect();
    let arrived = inject_frame(&mut net, n[0], n[1], packets);
    let frames = data_frames(&net, n[1], n[2]);
    // 64 B payloads under a 1-byte mask are 102 B records: 13 fit.
    let sizes: Vec<usize> = frames.iter().map(|(_, packets)| packets.len()).collect();
    assert_eq!(sizes, [13, 13, 6], "every chunk verified, or it would not have decoded");
    for (raw, _) in &frames {
        assert!(
            raw.len() <= RELAY_BUDGET + HEADER,
            "frame of {} B breaks the relay's budget",
            raw.len()
        );
    }
    // The chunks are the frame's body, cut and otherwise untouched.
    let left: Vec<u8> = frames.iter().flat_map(|(raw, _)| raw[HEADER..].to_vec()).collect();
    assert_eq!(left, &arrived[HEADER..]);
    assert_eq!(seqs_by_frame(&frames).concat(), (0..BATCH as u64).collect::<Vec<_>>());
    let link_seqs = link_seqs(&frames);
    assert!(link_seqs.windows(2).all(|w| w[1] == w[0] + 1), "one run, consecutive link sequences");
    assert_eq!(counters(&net, n[1]).data_sent, BATCH as u64);
}

/// A relay forwarding a frame whole sends the body it received: what it
/// puts on the wire differs from what arrived in the header alone (the
/// sender, the link sequence, the sum).
#[test]
fn a_forwarded_frame_differs_from_the_received_one_only_in_its_header() {
    let (graph, n) = topology(&["A", "B", "C"], &[(0, 1), (1, 2)]);
    let mut net = launch(&graph, BIG_BUDGET, &[n[0], n[2]]);
    let flow = Flow::new(n[0], n[2]);
    let mask = mask(&net, flow, &[(n[0], n[1]), (n[1], n[2])]);
    // A's link sequences start at 700; B's own toward C start at 0.
    let packets = (0..BATCH as u64).map(|i| packet(&net, flow, i, 700 + i, &mask)).collect();
    let arrived = inject_frame(&mut net, n[0], n[1], packets);
    let frames = data_frames(&net, n[1], n[2]);
    assert_eq!(frames.len(), 1, "a whole frame is one run");
    let (left, packets) = &frames[0];
    assert_eq!(left[HEADER..], arrived[HEADER..], "the body is byte-identical");
    assert_ne!(left[..HEADER], arrived[..HEADER]);
    assert!(packets.iter().map(|p| p.link_seq).eq(0..BATCH as u64), "B's own sequences");
    assert!(packets.iter().all(|p| !p.retransmission));
}

/// A source fanning a run out frames one body per neighbour: the frames
/// differ in their headers, not in a byte behind them.
#[test]
fn a_source_frames_one_body_for_every_neighbour() {
    let (graph, n) = topology(&["S", "A", "B", "D"], &[(0, 1), (0, 2), (1, 3), (2, 3)]);
    let mut net = launch(&graph, BIG_BUDGET, &[n[1], n[2], n[3]]);
    // A first flow over S→A alone, so the two links' sequences differ.
    let aside = open(&mut net, Flow::new(n[0], n[1]), &[(n[0], n[1])]);
    net.send(aside, &payload(0));
    let flow = Flow::new(n[0], n[3]);
    let tx = open(&mut net, flow, &[(n[0], n[1]), (n[0], n[2]), (n[1], n[3]), (n[2], n[3])]);
    send_batch(&mut net, tx, 0);
    net.run_for(SETTLE);
    let to_a = data_frames(&net, n[0], n[1]);
    let to_b = data_frames(&net, n[0], n[2]);
    let (via_a, via_b) = (&to_a[1], &to_b[0]);
    assert_eq!((via_a.1.len(), via_b.1.len()), (BATCH, BATCH), "both verify");
    assert_eq!(via_a.0[HEADER..], via_b.0[HEADER..], "one body");
    assert_eq!((via_a.1[0].link_seq, via_b.1[0].link_seq), (1, 0));
    assert_ne!(via_a.0[..HEADER], via_b.0[..HEADER]);
    // The payloads the caller handed over are in it as they were.
    assert!(via_b.1.iter().zip(0..).all(|(p, i)| p.payload.as_ref() == payload(i).as_slice()));
}

/// A duplicate in the middle of a frame splits it into two runs; each
/// leaves as the slice of the body it arrived in, under a sum of its
/// own.
#[test]
fn a_frame_split_by_a_duplicate_forwards_two_runs_that_verify() {
    let (graph, n) = topology(&["A", "B", "C"], &[(0, 1), (1, 2)]);
    let mut net = launch(&graph, BIG_BUDGET, &[n[0], n[2]]);
    let flow = Flow::new(n[0], n[2]);
    let mask = mask(&net, flow, &[(n[0], n[1]), (n[1], n[2])]);
    let packets: Vec<DataPacket> = [0, 1, 2, 1, 3, 4]
        .iter()
        .zip(0..)
        .map(|(&seq, link_seq)| packet(&net, flow, seq, link_seq, &mask))
        .collect();
    let arrived = inject_frame(&mut net, n[0], n[1], packets);
    let frames = data_frames(&net, n[1], n[2]);
    assert_eq!(seqs_by_frame(&frames), [vec![0, 1, 2], vec![3, 4]], "both runs decode");
    assert_eq!(link_seqs(&frames), [0, 1, 2, 3, 4]);
    // 102-byte records: the first run is records 0..3, the second 4..6.
    let body = &arrived[HEADER..];
    assert_eq!(frames[0].0[HEADER..], body[..3 * 102]);
    assert_eq!(frames[1].0[HEADER..], body[4 * 102..]);
    let b = counters(&net, n[1]);
    assert_eq!((b.data_received, b.duplicates, b.data_sent), (6, 1, 5));
}

/// A frame of the previous wire version (captured from the parent
/// revision: a DATA-BATCH of two 8-byte packets, flow 0 → 2, sent at
/// the harness's T0, 65 ms deadline, mask over both chain edges) is
/// turned away by a version-5 node as malformed: nothing of it is
/// delivered, forwarded, counted as data or remembered.
#[test]
fn a_version_4_frame_is_counted_malformed_and_never_misread() {
    const V4_DATA_BATCH: &str = "dc040500000000f808d3f9000200000000000000020000000000000000\
        000000003b9aca00000000000000fde80000000000000000020001050008a0a0a0a0a0a0a0a0000000000000000200\
        00000000000001000000003b9aca00000000000000fde80000000000000001020001050008a1a1a1a1a1a1a1a1";
    let v4: Vec<u8> = (0..V4_DATA_BATCH.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&V4_DATA_BATCH[i..i + 2], 16).expect("hex"))
        .collect();
    let (graph, n) = topology(&["A", "B", "C"], &[(0, 1), (1, 2)]);
    let mut net = launch(&graph, BIG_BUDGET, &[n[0], n[2]]);
    let flow = Flow::new(n[0], n[2]);
    assert_eq!(mask(&net, flow, &[(n[0], n[1]), (n[1], n[2])]).as_ref(), [0b0101]);
    // The same frame with the version byte alone changed, too.
    let mut relabelled = v4.clone();
    relabelled[1] = 5;
    for frame in [v4, relabelled] {
        net.inject_bytes(n[1], Bytes::from(frame));
    }
    net.run_for(SETTLE);
    let b = counters(&net, n[1]);
    assert_eq!((b.malformed, b.datagrams_received), (2, 2));
    assert_eq!((b.data_received, b.data_sent, b.nack_messages_sent), (0, 0, 0));
    assert!(data_frames(&net, n[1], n[2]).is_empty(), "nothing forwarded");
    assert_eq!(net.dedup_flows(n[1]), 0, "no window for a flow it never read");
    assert!(net.snapshot(n[1]).flows.is_empty());
    // A version-5 frame of the same packets is forwarded as ever.
    let mask = mask(&net, flow, &[(n[0], n[1]), (n[1], n[2])]);
    let packets = (0..2).map(|i| packet(&net, flow, i, i, &mask)).collect();
    inject_frame(&mut net, n[0], n[1], packets);
    assert_eq!(seqs_by_frame(&data_frames(&net, n[1], n[2])), [[0, 1]]);
}

#[test]
fn diamond_suppresses_the_second_copy_per_packet() {
    // S fans out to A and B, both feed M, M forwards to D.
    let (graph, n) =
        topology(&["S", "A", "B", "M", "D"], &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
    let mut net = launch(&graph, BIG_BUDGET, &[]);
    let flow = Flow::new(n[0], n[4]);
    let hops = [(n[0], n[1]), (n[0], n[2]), (n[1], n[3]), (n[2], n[3]), (n[3], n[4])];
    let tx = open(&mut net, flow, &hops);
    send_batch(&mut net, tx, 0);
    let got = collect(&mut net, flow);
    assert!(got.iter().map(|d| d.flow_seq).eq(0..BATCH as u64), "each once, in order");
    let m = counters(&net, n[3]);
    assert_eq!(m.data_received, 2 * BATCH as u64, "both copies reached M");
    assert_eq!(m.duplicates, BATCH as u64, "the second copy is suppressed packet by packet");
    assert_eq!(m.data_sent, BATCH as u64, "nothing is forwarded twice");
    assert_eq!(transmissions(&net, n[3], flow), BATCH as u64);
    let d = counters(&net, n[4]);
    assert_eq!(
        (d.data_received, d.delivered_on_time, d.duplicates),
        (BATCH as u64, BATCH as u64, 0)
    );
}

#[test]
fn a_lost_batch_is_one_gap_one_nack_and_fully_recovered() {
    let (graph, n) = chain4();
    let mut net = launch(&graph, BIG_BUDGET, &[]);
    let flow = Flow::new(n[0], n[3]);
    let tx = open(&mut net, flow, &[(n[0], n[1]), (n[1], n[2]), (n[2], n[3])]);
    let (b, c, d) = (n[1], n[2], n[3]);
    let batch = BATCH as u64;
    // A first batch synchronises C's gap tracker on the B→C link.
    send_batch(&mut net, tx, 0);
    assert_eq!(collect(&mut net, flow).len(), BATCH);
    // The second is dropped between the relays, as one datagram.
    let between = graph.edge_between(b, c).expect("linked");
    net.set_link_impairment(between, LinkFault { blackhole: true, ..LinkFault::default() });
    send_batch(&mut net, tx, batch);
    net.run_for(Micros::from_millis(20));
    net.clear_link_fault(between);
    assert_eq!(counters(&net, b).data_sent, 2 * batch, "B forwarded the doomed batch");
    assert_eq!(counters(&net, c).data_received, batch, "the batch died on the wire");
    // The third exposes the whole gap at once.
    send_batch(&mut net, tx, 2 * batch);
    let got = collect(&mut net, flow);
    assert!(got.iter().all(|d| d.on_time), "recovered packets still make the deadline");
    let mut seqs: Vec<u64> = got.iter().map(|d| d.flow_seq).collect();
    seqs.sort_unstable();
    assert!(seqs.into_iter().eq(batch..3 * batch), "all 32 recovered, none twice");
    let at_c = counters(&net, c);
    assert_eq!(at_c.nack_messages_sent, 1, "one NACK for the one gap");
    assert_eq!(at_c.retransmit_requests_issued, batch);
    let at_b = counters(&net, b);
    assert_eq!((at_b.retransmissions_served, at_b.retransmit_misses), (batch, 0));
    // The retransmission bit tells the truth: set on the 32 frames B
    // served the NACK with — each one packet, under its old sequence —
    // and on no frame anybody forwarded, theirs onward included.
    let retransmitted = |from, to| -> Vec<u64> {
        let frames = data_frames(&net, from, to);
        let marked = frames.iter().filter(|(_, ps)| ps[0].retransmission);
        marked.map(|(_, ps)| (ps.len() == 1).then_some(ps[0].link_seq).expect("alone")).collect()
    };
    assert_eq!(retransmitted(b, c), (batch..2 * batch).collect::<Vec<_>>());
    assert!(retransmitted(n[0], b).is_empty() && retransmitted(c, d).is_empty());
    let at_d = counters(&net, d);
    assert_eq!((at_d.delivered_on_time, at_d.duplicates, at_d.expired), (3 * batch, 0, 0));
}

/// A relay between two taps that has just forwarded `frames` frames of
/// [`BATCH`] packets of one flow from A to C (its own link sequences
/// toward C counting from zero); returns the net, the sites and the
/// frames as they arrived at it.
fn relay_after(frames: u64) -> (Net, Vec<NodeId>, Vec<Bytes>) {
    let (graph, n) = topology(&["A", "B", "C"], &[(0, 1), (1, 2)]);
    let mut net = launch(&graph, BIG_BUDGET, &[n[0], n[2]]);
    let flow = Flow::new(n[0], n[2]);
    let mask = mask(&net, flow, &[(n[0], n[1]), (n[1], n[2])]);
    let arrived = (0..frames)
        .map(|f| {
            let seqs = f * BATCH as u64..(f + 1) * BATCH as u64;
            let packets = seqs.map(|i| packet(&net, flow, i, i, &mask)).collect();
            let frame = Envelope { from: n[0], message: Message::DataBatch(packets) }.encode();
            net.inject_bytes(n[1], frame.clone());
            frame
        })
        .collect();
    // A link's millisecond, and no more: every packet has its budget.
    net.run_for(Micros::from_millis(1));
    assert_eq!(data_frames(&net, n[1], n[2]).len() as u64, frames, "each forwarded whole");
    (net, n, arrived)
}

/// The frames B sent C with the retransmission bit set: each one
/// packet, which decoded (so the frame verified).
fn retransmissions(net: &Net, n: &[NodeId]) -> Vec<(Bytes, DataPacket)> {
    let frames = data_frames(net, n[1], n[2]).into_iter();
    let marked = frames.filter(|(_, packets)| packets[0].retransmission);
    marked
        .map(|(raw, mut packets)| {
            (raw, packets.pop().filter(|_| packets.is_empty()).expect("alone"))
        })
        .collect()
}

/// 64 B payloads under a one-byte mask: 102-byte records.
const RECORD: usize = 102;

/// A NACK is served out of the frame the relay sent: the 17th sequence
/// of a 32-packet frame comes back alone, as a DATA frame with the
/// retransmission bit set whose body is the 17th record of the original
/// body, byte for byte.
#[test]
fn a_nack_for_one_record_of_a_frame_gets_that_record_back_alone() {
    let (mut net, n, arrived) = relay_after(1);
    inject(&mut net, n[2], n[1], Message::Nack { missing: vec![16] });
    let back = retransmissions(&net, &n);
    assert_eq!(back.len(), 1, "one frame back");
    let (raw, packet) = &back[0];
    assert_eq!(raw[2], 0, "a plain DATA frame");
    assert_eq!((packet.link_seq, packet.flow_seq), (16, 16), "under the sequence it had");
    let original = &arrived[0][HEADER..];
    assert_eq!(raw[HEADER..], original[16 * RECORD..17 * RECORD], "the record, byte for byte");
    let b = counters(&net, n[1]);
    assert_eq!((b.retransmissions_served, b.retransmit_misses), (1, 0));
}

#[test]
fn a_nack_naming_sequences_in_two_frames_gets_two_frames() {
    let (mut net, n, arrived) = relay_after(2);
    inject(&mut net, n[2], n[1], Message::Nack { missing: vec![5, 40] });
    let back = retransmissions(&net, &n);
    let seqs: Vec<(u64, u64)> = back.iter().map(|(_, p)| (p.link_seq, p.flow_seq)).collect();
    assert_eq!(seqs, [(5, 5), (40, 40)]);
    assert_eq!(back[0].0[HEADER..], arrived[0][HEADER + 5 * RECORD..HEADER + 6 * RECORD]);
    assert_eq!(back[1].0[HEADER..], arrived[1][HEADER + 8 * RECORD..HEADER + 9 * RECORD]);
    assert_eq!(counters(&net, n[1]).retransmissions_served, 2);
}

/// One retransmission a sequence: asking for it again is a miss.
#[test]
fn asking_twice_for_the_same_sequence_counts_a_miss() {
    let (mut net, n, _) = relay_after(1);
    for _ in 0..2 {
        inject(&mut net, n[2], n[1], Message::Nack { missing: vec![16] });
    }
    assert_eq!(retransmissions(&net, &n).len(), 1, "served once");
    let b = counters(&net, n[1]);
    assert_eq!((b.retransmit_requests_received, b.retransmissions_served), (2, 1));
    assert_eq!((b.retransmit_misses, b.retransmits_suppressed), (1, 0));
}

#[test]
fn expired_packets_in_a_batch_are_counted_and_not_forwarded() {
    let (graph, n) = topology(&["A", "B", "C"], &[(0, 1), (1, 2)]);
    let mut net = launch(&graph, BIG_BUDGET, &[n[0], n[2]]);
    let flow = Flow::new(n[0], n[2]);
    let mask = mask(&net, flow, &[(n[0], n[1]), (n[1], n[2])]);
    let mut packets: Vec<DataPacket> = (0..5).map(|i| packet(&net, flow, i, i, &mask)).collect();
    for stale in [2, 3] {
        packets[stale].sent_at = Micros::ZERO;
    }
    inject(&mut net, n[0], n[1], Message::DataBatch(packets));
    let forwarded = seqs_by_frame(&data_frames(&net, n[1], n[2]));
    assert_eq!(forwarded, [vec![0, 1], vec![4]], "the expired pair splits the survivors");
    let b = counters(&net, n[1]);
    assert_eq!((b.data_received, b.expired, b.data_sent), (5, 2, 3));
    assert_eq!(transmissions(&net, n[1], flow), 3);
}

#[test]
fn a_mixed_batch_is_split_into_runs_along_each_mask() {
    // R relays toward X and Y; the frame mixes a flow for each.
    let (graph, n) = topology(&["S", "R", "X", "Y"], &[(0, 1), (1, 2), (1, 3)]);
    let (s, r, x, y) = (n[0], n[1], n[2], n[3]);
    let mut net = launch(&graph, BIG_BUDGET, &[s, x, y]);
    let (to_x, to_y) = (Flow::new(s, x), Flow::new(s, y));
    let mask_x = mask(&net, to_x, &[(s, r), (r, x)]);
    let mask_y = mask(&net, to_y, &[(s, r), (r, y)]);
    let plan = [(to_x, 0), (to_x, 1), (to_x, 2), (to_y, 0), (to_y, 1), (to_x, 3)];
    let packets = plan
        .iter()
        .enumerate()
        .map(|(i, &(flow, seq))| {
            packet(&net, flow, seq, i as u64, if flow == to_x { &mask_x } else { &mask_y })
        })
        .collect();
    inject(&mut net, s, r, Message::DataBatch(packets));

    let at_x = data_frames(&net, r, x);
    let runs = seqs_by_frame(&at_x);
    assert_eq!(runs, [vec![0, 1, 2], vec![3]], "the other flow's pair ends the first run");
    assert!(at_x.iter().all(|(_, ps)| ps.iter().all(|p| p.flow == to_x && p.mask == mask_x)));
    assert_eq!(link_seqs(&at_x), [0, 1, 2, 3]);
    assert_eq!(at_x[1].0[2], 0, "a run of one leaves as a plain DATA frame");

    let at_y = data_frames(&net, r, y);
    assert_eq!(at_y.len(), 1);
    assert!(at_y[0].1.iter().map(|p| (p.flow, p.flow_seq)).eq([(to_y, 0), (to_y, 1)]));

    assert_eq!(transmissions(&net, r, to_x), 4);
    assert_eq!(transmissions(&net, r, to_y), 2);
    let c = counters(&net, r);
    assert_eq!((c.data_received, c.data_sent, c.duplicates), (6, 6, 0));
}

#[test]
fn a_sequence_carried_twice_in_one_frame_is_delivered_once() {
    let (graph, n) = topology(&["A", "B"], &[(0, 1)]);
    let mut net = launch(&graph, BIG_BUDGET, &[n[0]]);
    let flow = Flow::new(n[0], n[1]);
    net.open_receiver(flow);
    let mask = mask(&net, flow, &[(n[0], n[1])]);
    let packets = [0, 1, 1, 2]
        .iter()
        .zip(0..)
        .map(|(&seq, link_seq)| packet(&net, flow, seq, link_seq, &mask))
        .collect();
    inject(&mut net, n[0], n[1], Message::DataBatch(packets));
    let got = collect(&mut net, flow);
    assert!(got.iter().map(|d| d.flow_seq).eq(0..3), "each sequence once, in order");
    let b = counters(&net, n[1]);
    assert_eq!((b.data_received, b.delivered_on_time, b.duplicates), (4, 3, 1));
}

#[test]
fn a_frame_alternating_two_flows_is_deduplicated_per_flow() {
    let (graph, n) = topology(&["S", "R", "X", "Y"], &[(0, 1), (1, 2), (1, 3)]);
    let (s, r, x, y) = (n[0], n[1], n[2], n[3]);
    let mut net = launch(&graph, BIG_BUDGET, &[s, x, y]);
    let (to_x, to_y) = (Flow::new(s, x), Flow::new(s, y));
    let mask_x = mask(&net, to_x, &[(s, r), (r, x)]);
    let mask_y = mask(&net, to_y, &[(s, r), (r, y)]);
    // Both flows use the same sequence numbers, and each repeats one.
    let plan =
        [(to_x, 0), (to_y, 0), (to_x, 1), (to_y, 1), (to_x, 1), (to_y, 0), (to_x, 2), (to_y, 2)];
    let packets = plan
        .iter()
        .enumerate()
        .map(|(i, &(flow, seq))| {
            packet(&net, flow, seq, i as u64, if flow == to_x { &mask_x } else { &mask_y })
        })
        .collect();
    inject(&mut net, s, r, Message::DataBatch(packets));
    for (tap, flow) in [(x, to_x), (y, to_y)] {
        let frames = data_frames(&net, r, tap);
        // Every stretch of the frame is one packet long, so is every run.
        assert!(frames.iter().all(|(raw, ps)| raw[2] == 0 && ps.len() == 1 && ps[0].flow == flow));
        assert!(frames.iter().map(|(_, ps)| (ps[0].flow_seq, ps[0].link_seq)).eq([
            (0, 0),
            (1, 1),
            (2, 2)
        ]));
        assert_eq!(transmissions(&net, r, flow), 3);
    }
    let c = counters(&net, r);
    assert_eq!((c.data_received, c.data_sent, c.duplicates), (8, 6, 2));
    assert_eq!(net.dedup_flows(r), 2);
}

/// Flow ids cross the wire unvalidated, and a node keeps state per
/// flow: one that names a site the overlay does not have is dropped
/// before it can mint any — a metrics cell, a duplicate window.
#[test]
fn packets_of_flows_between_no_sites_are_dropped_before_any_state() {
    let (graph, n) = topology(&["A", "B", "C"], &[(0, 1), (1, 2)]);
    let mut net = launch(&graph, BIG_BUDGET, &[n[0], n[2]]);
    let flow = Flow::new(n[0], n[2]);
    let mask = mask(&net, flow, &[(n[0], n[1]), (n[1], n[2])]);
    // A real packet first: the state a real flow leaves is the baseline.
    let first = packet(&net, flow, 0, 0, &mask);
    inject(&mut net, n[0], n[1], Message::Data(first));
    let cells =
        |net: &Net| -> Vec<Flow> { net.snapshot(n[1]).flows.iter().map(|f| f.flow).collect() };
    assert_eq!((cells(&net), net.dedup_flows(n[1])), (vec![flow], 1));
    const INVENTED: u64 = 1_000;
    let invented = |i: u64| {
        let nowhere = NodeId::new(5_000 + i as u32);
        // From no site, or from a real one to no site.
        if i.is_multiple_of(2) {
            Flow::new(nowhere, n[2])
        } else {
            Flow::new(n[0], nowhere)
        }
    };
    for frame in 0..10 {
        let packets = (frame * 100..(frame + 1) * 100)
            .map(|i| DataPacket {
                payload: Bytes::new(),
                ..packet(&net, invented(i), i, 1 + i, &mask)
            })
            .collect();
        net.inject(n[0], n[1], Message::DataBatch(packets));
    }
    // A real packet behind them is forwarded as ever.
    let last = packet(&net, flow, 1, 1 + INVENTED, &mask);
    inject(&mut net, n[0], n[1], Message::Data(last));
    let forwarded = data_frames(&net, n[1], n[2]);
    assert_eq!(seqs_by_frame(&forwarded), [[0], [1]]);
    assert!(forwarded.iter().all(|(_, ps)| ps[0].flow == flow));
    let b = counters(&net, n[1]);
    assert_eq!(b.malformed, INVENTED);
    assert_eq!((b.data_received, b.data_sent), (INVENTED + 2, 2));
    assert_eq!(b.nack_messages_sent, 0, "their link sequences were still seen");
    assert_eq!(cells(&net), [flow], "no cell for an invented flow");
    assert_eq!(net.dedup_flows(n[1]), 1, "and no window");
}

#[test]
fn single_packets_stay_plain_data_frames() {
    let (graph, n) = topology(&["A", "B"], &[(0, 1)]);
    let mut net = launch(&graph, BIG_BUDGET, &[n[1]]);
    let flow = Flow::new(n[0], n[1]);
    let tx = open(&mut net, flow, &[(n[0], n[1])]);
    let body = payload(7);
    net.send(tx, &body);
    net.send_batch(tx, &[&body]);
    assert!(net.tail_probe(tx, &body));
    net.send_batch(tx, &[&body, &body]);
    net.run_for(SETTLE);
    let frames = data_frames(&net, n[0], n[1]);
    assert_eq!(frames.len(), 4);
    for (i, (raw, packets)) in frames[..3].iter().enumerate() {
        assert_eq!(raw[2], 0, "frame {i} is type DATA");
        // Byte for byte the frame a DATA envelope of this packet is.
        let expected = Envelope { from: n[0], message: Message::Data(packets[0].clone()) };
        assert_eq!(raw, &expected.encode(), "frame {i}");
        assert_eq!(packets[0].link_seq, i as u64);
    }
    assert_eq!((frames[3].0[2], frames[3].1.len()), (5, 2), "two share a DATA-BATCH frame");
}

/// What one chain run of 64 packets left in the counters: per node
/// `(data_received, delivered_on_time, duplicates, expired,
/// transmissions of the flow)`.
fn chain_run(send: impl Fn(&mut Net, SimSender)) -> Vec<(u64, u64, u64, u64, u64)> {
    let (graph, n) = chain4();
    let mut net = launch(&graph, BIG_BUDGET, &[]);
    let flow = Flow::new(n[0], n[3]);
    let tx = open(&mut net, flow, &[(n[0], n[1]), (n[1], n[2]), (n[2], n[3])]);
    send(&mut net, tx);
    let got = collect(&mut net, flow);
    assert!(got.iter().map(|d| d.flow_seq).eq(0..2 * BATCH as u64));
    n.iter()
        .map(|&node| {
            let c = counters(&net, node);
            let tx = transmissions(&net, node, flow);
            (c.data_received, c.delivered_on_time, c.duplicates, c.expired, tx)
        })
        .collect()
}

#[test]
fn batched_and_unbatched_runs_count_the_same() {
    let singles = chain_run(|net, tx| {
        for i in 0..2 * BATCH as u64 {
            net.send(tx, &payload(i));
        }
    });
    let batched = chain_run(|net, tx| {
        send_batch(net, tx, 0);
        send_batch(net, tx, BATCH as u64);
    });
    assert_eq!(singles, batched);
    let all = 2 * BATCH as u64;
    assert_eq!(
        batched,
        [(0, 0, 0, 0, all), (all, 0, 0, 0, all), (all, 0, 0, 0, all), (all, all, 0, 0, 0)]
    );
}

/// A control frame the fault plan delays leaves at its departure
/// instant, not at the node's next protocol deadline: with every cadence
/// a second off, a hello is still answered exactly one link delay
/// after it arrives. (That the *timer thread* wakes for it is
/// `cluster.rs`'s to check, on a socket.)
#[test]
fn a_delayed_control_frame_leaves_at_its_departure_time() {
    let (graph, n) = topology(&["A", "B"], &[(0, 1)]);
    let cadence = std::time::Duration::from_secs(1);
    let config = ClusterConfig {
        hello_interval: cadence,
        link_state_interval: cadence,
        digest_interval: cadence,
        ..ClusterConfig::default()
    };
    let mut net = Net::launch_except(&graph, config, &[n[1]]).expect("sound");
    let link = graph.edge_between(n[0], n[1]).expect("linked");
    net.set_link_impairment(link, LinkFault::delayed(Micros::from_millis(4)));
    net.run_for(SETTLE);
    for seq in 100..105 {
        let asked = net.now();
        net.inject(n[1], n[0], Message::Hello { seq, sent_at: asked });
        net.run_for(Micros::from_millis(20));
        let echoed = net.wire().iter().rev().find(|f| {
            matches!(
                Envelope::decode(&f.bytes).map(|e| e.message),
                Ok(Message::HelloAck { echo_seq, .. }) if echo_seq == seq
            )
        });
        let took = echoed.expect("the hello is answered").at.saturating_sub(asked);
        assert_eq!(took, Micros::from_millis(5), "the link's 1 ms and the injected 4");
    }
}

/// A checksum-valid frame proves nothing about who sent it: one from a
/// node id the receiver holds no peer address for is dropped before it
/// can mint per-neighbour state — a monitor entry, a gap tracker, a
/// link-metrics cell — or draw an ack addressed to nobody.
#[test]
fn frames_from_unknown_node_ids_are_dropped_before_any_state() {
    let (graph, n) = topology(&["A", "B"], &[(0, 1)]);
    let mut net = launch(&graph, BIG_BUDGET, &[n[1]]);
    net.run_for(SETTLE);
    assert!(counters(&net, n[0]).hellos_sent > 0, "A's first hello to B");
    const STRANGERS: u64 = 1_000;
    for id in 0..STRANGERS {
        let from = NodeId::new(1_000 + id as u32);
        net.inject(from, n[0], Message::Hello { seq: id, sent_at: net.now() });
    }
    // A hello from the real neighbour, sent last, is answered as ever.
    net.inject(n[1], n[0], Message::Hello { seq: 0, sent_at: net.now() });
    net.run_for(SETTLE);
    let snapshot = net.snapshot(n[0]);
    assert_eq!(snapshot.counters.hellos_echoed, 1);
    assert_eq!(snapshot.counters.malformed, STRANGERS);
    let links: Vec<NodeId> = snapshot.links.iter().map(|l| l.neighbor).collect();
    assert_eq!(links, [n[1]], "one link cell, for the one neighbour");
    let to_strangers = net.wire().iter().filter(|f| f.to != n[1]).count();
    assert_eq!(to_strangers, 0, "and no frame addressed to a stranger");
}
