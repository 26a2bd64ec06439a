//! Relay-side batching: a DATA-BATCH frame is accepted packet by packet
//! and its survivors are forwarded as runs — batches stay batches.
//!
//! The tests run real nodes over loopback UDP. A site can be a *tap*
//! instead of a node: a plain socket the test injects hand-encoded
//! frames from and reads a neighbour's frames on, byte for byte.

use bytes::Bytes;
use dg_core::scheme::{RoutingScheme, SchemeKind};
use dg_core::{DisseminationGraph, Flow, ServiceRequirement, SlaClass};
use dg_overlay::fault::LinkFault;
use dg_overlay::session::{Delivery, FlowReceiver, FlowSender};
use dg_overlay::wire::{DataPacket, Envelope, Message};
use dg_overlay::{now_us, NodeConfig, NodeCounters, OverlayError, OverlayHandle, OverlayNode};
use dg_topology::{Graph, GraphBuilder, Micros, NodeId};
use dg_trace::NetworkState;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 32;
/// Loopback takes a whole 32-packet batch in one datagram.
const BIG_BUDGET: usize = 60_000;

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

/// Sites named `names`, linked pairwise by `links`.
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

struct Net {
    graph: Arc<Graph>,
    addrs: Vec<SocketAddr>,
    nodes: Vec<Option<OverlayHandle>>,
    taps: Vec<Option<UdpSocket>>,
}

impl Net {
    /// One node per site with its own `max_batch_bytes`; the sites in
    /// `taps` get a bare socket instead.
    fn launch(graph: Graph, budget: impl Fn(NodeId) -> usize, taps: &[NodeId]) -> Net {
        Net::launch_tuned(graph, budget, taps, |config| config)
    }

    /// As [`Net::launch`], with `tune` applied to every node's config.
    fn launch_tuned(
        graph: Graph,
        budget: impl Fn(NodeId) -> usize,
        taps: &[NodeId],
        tune: impl Fn(NodeConfig) -> NodeConfig,
    ) -> Net {
        let graph = Arc::new(graph);
        let sockets: Vec<UdpSocket> =
            graph.nodes().map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind")).collect();
        let addrs: Vec<SocketAddr> =
            sockets.iter().map(|s| s.local_addr().expect("bound")).collect();
        let (mut nodes, mut tapped) = (Vec::new(), Vec::new());
        for (socket, node) in sockets.into_iter().zip(graph.nodes()) {
            if taps.contains(&node) {
                socket.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
                nodes.push(None);
                tapped.push(Some(socket));
                continue;
            }
            let peers: HashMap<_, _> =
                graph.neighbors(node).map(|n| (n, addrs[n.index()])).collect();
            let config = tune(NodeConfig {
                max_batch_bytes: budget(node),
                peers,
                ..NodeConfig::new(node, addrs[node.index()])
            });
            let handle = OverlayNode::spawn_with_socket(config, Arc::clone(&graph), socket)
                .expect("node spawns");
            nodes.push(Some(handle));
            tapped.push(None);
        }
        Net { graph, addrs, nodes, taps: tapped }
    }

    fn node(&self, node: NodeId) -> &OverlayHandle {
        self.nodes[node.index()].as_ref().expect("site is a node")
    }

    fn tap(&self, node: NodeId) -> &UdpSocket {
        self.taps[node.index()].as_ref().expect("site is a tap")
    }

    fn counters(&self, node: NodeId) -> NodeCounters {
        self.node(node).metrics_snapshot().counters
    }

    /// Link transmissions of `flow` accounted at `node`.
    fn transmissions(&self, node: NodeId, flow: Flow) -> u64 {
        let flows = self.node(node).metrics_snapshot().flows;
        flows.iter().find(|f| f.flow == flow).map_or(0, |f| f.transmissions)
    }

    /// The dissemination graph made of the directed `hops`.
    fn dgraph(&self, flow: Flow, hops: &[(NodeId, NodeId)]) -> DisseminationGraph {
        let edges =
            hops.iter().map(|&(a, b)| self.graph.edge_between(a, b).expect("hop exists")).collect();
        DisseminationGraph::new(&self.graph, flow.source, flow.destination, edges)
            .expect("hops connect the flow")
    }

    fn mask(&self, flow: Flow, hops: &[(NodeId, NodeId)]) -> Bytes {
        Bytes::from(self.dgraph(flow, hops).to_bitmask(self.graph.edge_count()))
    }

    /// Opens both ends of `flow`, routed along `hops`.
    fn open(&self, flow: Flow, hops: &[(NodeId, NodeId)]) -> (FlowSender, FlowReceiver) {
        let rx = self.node(flow.destination).open_receiver(flow).expect("receiver opens");
        let tx = self.open_sender(flow, hops);
        (tx, rx)
    }

    fn open_sender(&self, flow: Flow, hops: &[(NodeId, NodeId)]) -> FlowSender {
        let scheme = Box::new(Fixed(flow, self.dgraph(flow, hops)));
        self.node(flow.source)
            .open_sender(scheme, ServiceRequirement::default())
            .expect("sender opens")
    }

    /// Sends a hand-built frame to `to` as if `from` (a tap) had.
    fn inject(&self, from: NodeId, to: NodeId, message: Message) {
        let frame = Envelope { from, message }.encode();
        self.tap(from).send_to(&frame, self.addrs[to.index()]).expect("inject");
    }

    /// Reads the tap until it has seen `want` data packets; returns the
    /// data frames in arrival order, raw and decoded (control frames
    /// are skipped).
    fn tap_data(&self, node: NodeId, want: usize) -> Vec<(Vec<u8>, Vec<DataPacket>)> {
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut buf = vec![0u8; 65_536];
        let (mut frames, mut seen) = (Vec::new(), 0);
        while seen < want {
            assert!(Instant::now() < deadline, "tap saw {seen} of {want} data packets");
            let Ok((len, _)) = self.tap(node).recv_from(&mut buf) else { continue };
            let packets = match Envelope::decode(&buf[..len]).expect("frames decode").message {
                Message::Data(p) => vec![p],
                Message::DataBatch(ps) => ps,
                _ => continue,
            };
            seen += packets.len();
            frames.push((buf[..len].to_vec(), packets));
        }
        frames
    }

    fn shutdown(self) {
        for handle in self.nodes.into_iter().flatten() {
            handle.shutdown();
        }
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(3);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn payload(i: u64) -> Vec<u8> {
    let mut p = vec![0u8; 64];
    p[..8].copy_from_slice(&i.to_be_bytes());
    p
}

/// Sends packets `first..first + BATCH` as one batch.
fn send_batch(tx: &FlowSender, first: u64) {
    let payloads: Vec<Vec<u8>> = (first..first + BATCH as u64).map(payload).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    assert_eq!(tx.send_batch(&refs).expect("batch sends"), first);
}

fn collect(rx: &FlowReceiver, want: usize) -> Vec<Delivery> {
    let mut got = Vec::new();
    while got.len() < want {
        match rx.recv_timeout(Duration::from_secs(2)) {
            Some(d) => got.push(d),
            None => panic!("only {} of {want} packets delivered", got.len()),
        }
    }
    got
}

/// Datagrams `c` put on the wire that carried data: everything sent
/// minus the control frames, each kind of which has its own counter.
/// (Exact while no fault drops datagrams; a control frame sent while
/// the snapshot was being read can skew it by one.)
fn data_datagrams(c: &NodeCounters) -> u64 {
    let control = c.hellos_sent
        + c.hellos_echoed
        + c.lsa_acks_sent
        + c.link_state_flooded
        + c.lsa_retransmits
        + c.lsa_repairs_sent
        + c.digests_sent
        + c.nack_messages_sent;
    c.datagrams_sent - control
}

/// A data packet as a source would stamp it, for hand-encoded frames.
fn packet(flow: Flow, flow_seq: u64, link_seq: u64, mask: &Bytes) -> DataPacket {
    DataPacket {
        flow,
        flow_seq,
        sent_at: now_us(),
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
    let net = Net::launch(graph, |_| BIG_BUDGET, &[]);
    let flow = Flow::new(n[0], n[3]);
    let (tx, rx) = net.open(flow, &[(n[0], n[1]), (n[1], n[2]), (n[2], n[3])]);
    const BATCHES: u64 = 20;
    for b in 0..BATCHES {
        send_batch(&tx, b * BATCH as u64);
    }
    let total = BATCHES * BATCH as u64;
    let got = collect(&rx, total as usize);
    for (i, d) in got.iter().enumerate() {
        assert_eq!(d.flow_seq, i as u64, "delivered in order, exactly once");
        assert_eq!(d.payload.as_ref(), payload(i as u64).as_slice());
        assert!(d.on_time);
    }
    assert!(rx.try_recv().is_none(), "nothing delivered twice");
    for relay in [n[1], n[2]] {
        let c = net.counters(relay);
        assert_eq!(c.data_received, total);
        assert_eq!(c.data_sent, total);
        let datagrams = data_datagrams(&c);
        assert!(
            datagrams.abs_diff(BATCHES) <= 2,
            "relay {relay} shipped {total} packets in {datagrams} datagrams, want {BATCHES}"
        );
    }
    net.shutdown();
}

#[test]
fn relay_rechunks_inside_its_own_budget() {
    let (graph, n) = topology(&["A", "B", "C"], &[(0, 1), (1, 2)]);
    // The source may fill a loopback datagram; the relay keeps to the
    // WAN-safe default.
    const RELAY_BUDGET: usize = 1_400;
    let net = Net::launch(
        graph,
        |node| if node.index() == 0 { BIG_BUDGET } else { RELAY_BUDGET },
        &[n[2]],
    );
    let flow = Flow::new(n[0], n[2]);
    let tx = net.open_sender(flow, &[(n[0], n[1]), (n[1], n[2])]);
    send_batch(&tx, 0);
    let frames = net.tap_data(n[2], BATCH);
    // 64 B payloads under a 1-byte mask are 110 B bodies: 12 fit.
    let sizes: Vec<usize> = frames.iter().map(|(_, packets)| packets.len()).collect();
    assert_eq!(sizes, [12, 12, 8]);
    for (raw, _) in &frames {
        assert!(
            raw.len() <= RELAY_BUDGET + 13,
            "frame of {} B breaks the relay's budget",
            raw.len()
        );
    }
    let seqs: Vec<u64> = frames.iter().flat_map(|(_, ps)| ps.iter().map(|p| p.flow_seq)).collect();
    assert_eq!(seqs, (0..BATCH as u64).collect::<Vec<_>>());
    let link_seqs: Vec<u64> =
        frames.iter().flat_map(|(_, ps)| ps.iter().map(|p| p.link_seq)).collect();
    assert!(link_seqs.windows(2).all(|w| w[1] == w[0] + 1), "one run, consecutive link sequences");
    assert_eq!(net.counters(n[0]).data_sent, BATCH as u64);
    assert_eq!(data_datagrams(&net.counters(n[0])), 1, "the source's own budget took all 32");
    net.shutdown();
}

#[test]
fn diamond_suppresses_the_second_copy_per_packet() {
    // S fans out to A and B, both feed M, M forwards to D.
    let (graph, n) =
        topology(&["S", "A", "B", "M", "D"], &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
    let net = Net::launch(graph, |_| BIG_BUDGET, &[]);
    let flow = Flow::new(n[0], n[4]);
    let hops = [(n[0], n[1]), (n[0], n[2]), (n[1], n[3]), (n[2], n[3]), (n[3], n[4])];
    let (tx, rx) = net.open(flow, &hops);
    send_batch(&tx, 0);
    let got = collect(&rx, BATCH);
    assert!(got.iter().map(|d| d.flow_seq).eq(0..BATCH as u64));
    wait_until("both copies to reach M", || net.counters(n[3]).data_received == 2 * BATCH as u64);
    let m = net.counters(n[3]);
    assert_eq!(m.duplicates, BATCH as u64, "the second copy is suppressed packet by packet");
    assert_eq!(m.data_sent, BATCH as u64, "nothing is forwarded twice");
    assert_eq!(net.transmissions(n[3], flow), BATCH as u64);
    let d = net.counters(n[4]);
    assert_eq!(
        (d.data_received, d.delivered_on_time, d.duplicates),
        (BATCH as u64, BATCH as u64, 0)
    );
    assert!(rx.try_recv().is_none());
    net.shutdown();
}

#[test]
fn a_lost_batch_is_one_gap_one_nack_and_fully_recovered() {
    let (graph, n) = chain4();
    let net = Net::launch(graph, |_| BIG_BUDGET, &[]);
    let flow = Flow::new(n[0], n[3]);
    let (tx, rx) = net.open(flow, &[(n[0], n[1]), (n[1], n[2]), (n[2], n[3])]);
    let (b, c, d) = (n[1], n[2], n[3]);
    let batch = BATCH as u64;
    // A first batch synchronises C's gap tracker on the B→C link.
    send_batch(&tx, 0);
    collect(&rx, BATCH);
    // The second is dropped between the relays, as one datagram.
    net.node(b).faults().set(c, LinkFault { blackhole: true, ..LinkFault::default() });
    send_batch(&tx, batch);
    wait_until("B to forward the doomed batch", || net.counters(b).data_sent == 2 * batch);
    std::thread::sleep(Duration::from_millis(20));
    net.node(b).faults().clear(c);
    assert_eq!(net.counters(c).data_received, batch, "the batch died on the wire");
    // The third exposes the whole gap at once.
    send_batch(&tx, 2 * batch);
    let got = collect(&rx, 2 * BATCH);
    assert!(got.iter().all(|d| d.on_time), "recovered packets still make the deadline");
    let mut seqs: Vec<u64> = got.iter().map(|d| d.flow_seq).collect();
    seqs.sort_unstable();
    assert!(seqs.into_iter().eq(batch..3 * batch), "all 32 recovered, none twice");
    let at_c = net.counters(c);
    assert_eq!(at_c.nack_messages_sent, 1, "one NACK for the one gap");
    assert_eq!(at_c.retransmit_requests_issued, batch);
    let at_b = net.counters(b);
    assert_eq!((at_b.retransmissions_served, at_b.retransmit_misses), (batch, 0));
    let at_d = net.counters(d);
    assert_eq!((at_d.delivered_on_time, at_d.duplicates, at_d.expired), (3 * batch, 0, 0));
    net.shutdown();
}

#[test]
fn expired_packets_in_a_batch_are_counted_and_not_forwarded() {
    let (graph, n) = topology(&["A", "B", "C"], &[(0, 1), (1, 2)]);
    let net = Net::launch(graph, |_| BIG_BUDGET, &[n[0], n[2]]);
    let flow = Flow::new(n[0], n[2]);
    let mask = net.mask(flow, &[(n[0], n[1]), (n[1], n[2])]);
    let mut packets: Vec<DataPacket> = (0..5).map(|i| packet(flow, i, i, &mask)).collect();
    for stale in [2, 3] {
        packets[stale].sent_at = Micros::ZERO;
    }
    net.inject(n[0], n[1], Message::DataBatch(packets));
    let frames = net.tap_data(n[2], 3);
    let forwarded: Vec<Vec<u64>> =
        frames.iter().map(|(_, ps)| ps.iter().map(|p| p.flow_seq).collect()).collect();
    assert_eq!(forwarded, [vec![0, 1], vec![4]], "the expired pair splits the survivors");
    let b = net.counters(n[1]);
    assert_eq!((b.data_received, b.expired, b.data_sent), (5, 2, 3));
    assert_eq!(net.transmissions(n[1], flow), 3);
    net.shutdown();
}

#[test]
fn a_mixed_batch_is_split_into_runs_along_each_mask() {
    // R relays toward X and Y; the frame mixes a flow for each.
    let (graph, n) = topology(&["S", "R", "X", "Y"], &[(0, 1), (1, 2), (1, 3)]);
    let (s, r, x, y) = (n[0], n[1], n[2], n[3]);
    let net = Net::launch(graph, |_| BIG_BUDGET, &[s, x, y]);
    let (to_x, to_y) = (Flow::new(s, x), Flow::new(s, y));
    let mask_x = net.mask(to_x, &[(s, r), (r, x)]);
    let mask_y = net.mask(to_y, &[(s, r), (r, y)]);
    let plan = [(to_x, 0), (to_x, 1), (to_x, 2), (to_y, 0), (to_y, 1), (to_x, 3)];
    let packets = plan
        .iter()
        .enumerate()
        .map(|(i, &(flow, seq))| {
            packet(flow, seq, i as u64, if flow == to_x { &mask_x } else { &mask_y })
        })
        .collect();
    net.inject(s, r, Message::DataBatch(packets));

    let at_x = net.tap_data(x, 4);
    let runs: Vec<Vec<u64>> =
        at_x.iter().map(|(_, ps)| ps.iter().map(|p| p.flow_seq).collect()).collect();
    assert_eq!(runs, [vec![0, 1, 2], vec![3]], "the other flow's pair ends the first run");
    assert!(at_x.iter().all(|(_, ps)| ps.iter().all(|p| p.flow == to_x && p.mask == mask_x)));
    let link_seqs: Vec<u64> =
        at_x.iter().flat_map(|(_, ps)| ps.iter().map(|p| p.link_seq)).collect();
    assert_eq!(link_seqs, [0, 1, 2, 3]);
    assert_eq!(at_x[1].0[2], 0, "a run of one leaves as a plain DATA frame");

    let at_y = net.tap_data(y, 2);
    assert_eq!(at_y.len(), 1);
    assert!(at_y[0].1.iter().map(|p| (p.flow, p.flow_seq)).eq([(to_y, 0), (to_y, 1)]));

    assert_eq!(net.transmissions(r, to_x), 4);
    assert_eq!(net.transmissions(r, to_y), 2);
    let c = net.counters(r);
    assert_eq!((c.data_received, c.data_sent, c.duplicates), (6, 6, 0));
    net.shutdown();
}

#[test]
fn a_sequence_carried_twice_in_one_frame_is_delivered_once() {
    let (graph, n) = topology(&["A", "B"], &[(0, 1)]);
    let net = Net::launch(graph, |_| BIG_BUDGET, &[n[0]]);
    let flow = Flow::new(n[0], n[1]);
    let rx = net.node(n[1]).open_receiver(flow).expect("receiver opens");
    let mask = net.mask(flow, &[(n[0], n[1])]);
    let packets =
        [0, 1, 1, 2].iter().zip(0..).map(|(&seq, link_seq)| packet(flow, seq, link_seq, &mask));
    net.inject(n[0], n[1], Message::DataBatch(packets.collect()));
    let got = collect(&rx, 3);
    assert!(got.iter().map(|d| d.flow_seq).eq(0..3), "each sequence once, in order");
    let b = net.counters(n[1]);
    assert_eq!((b.data_received, b.delivered_on_time, b.duplicates), (4, 3, 1));
    assert!(rx.try_recv().is_none(), "the second copy went nowhere");
    net.shutdown();
}

#[test]
fn a_frame_alternating_two_flows_is_deduplicated_per_flow() {
    let (graph, n) = topology(&["S", "R", "X", "Y"], &[(0, 1), (1, 2), (1, 3)]);
    let (s, r, x, y) = (n[0], n[1], n[2], n[3]);
    let net = Net::launch(graph, |_| BIG_BUDGET, &[s, x, y]);
    let (to_x, to_y) = (Flow::new(s, x), Flow::new(s, y));
    let mask_x = net.mask(to_x, &[(s, r), (r, x)]);
    let mask_y = net.mask(to_y, &[(s, r), (r, y)]);
    // Both flows use the same sequence numbers, and each repeats one.
    let plan =
        [(to_x, 0), (to_y, 0), (to_x, 1), (to_y, 1), (to_x, 1), (to_y, 0), (to_x, 2), (to_y, 2)];
    let packets = plan
        .iter()
        .enumerate()
        .map(|(i, &(flow, seq))| {
            packet(flow, seq, i as u64, if flow == to_x { &mask_x } else { &mask_y })
        })
        .collect();
    net.inject(s, r, Message::DataBatch(packets));
    for (tap, flow) in [(x, to_x), (y, to_y)] {
        let frames = net.tap_data(tap, 3);
        // Every stretch of the frame is one packet long, so is every run.
        assert!(frames.iter().all(|(raw, ps)| raw[2] == 0 && ps.len() == 1 && ps[0].flow == flow));
        assert!(frames.iter().map(|(_, ps)| (ps[0].flow_seq, ps[0].link_seq)).eq([
            (0, 0),
            (1, 1),
            (2, 2)
        ]));
        assert_eq!(net.transmissions(r, flow), 3);
    }
    let c = net.counters(r);
    assert_eq!((c.data_received, c.data_sent, c.duplicates), (8, 6, 2));
    assert_eq!(net.node(r).dedup_flows(), 2);
    net.shutdown();
}

/// Flow ids cross the wire unvalidated, and a node keeps state per
/// flow: one that names a site the overlay does not have is dropped
/// before it can mint any — a metrics cell, a duplicate window.
#[test]
fn packets_of_flows_between_no_sites_are_dropped_before_any_state() {
    let (graph, n) = topology(&["A", "B", "C"], &[(0, 1), (1, 2)]);
    let net = Net::launch(graph, |_| BIG_BUDGET, &[n[0], n[2]]);
    let flow = Flow::new(n[0], n[2]);
    let mask = net.mask(flow, &[(n[0], n[1]), (n[1], n[2])]);
    // A real packet first: the state a real flow leaves is the baseline.
    net.inject(n[0], n[1], Message::Data(packet(flow, 0, 0, &mask)));
    net.tap_data(n[2], 1);
    let cells = |node| -> Vec<Flow> {
        net.node(node).metrics_snapshot().flows.iter().map(|f| f.flow).collect()
    };
    assert_eq!((cells(n[1]), net.node(n[1]).dedup_flows()), (vec![flow], 1));
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
            .map(|i| DataPacket { payload: Bytes::new(), ..packet(invented(i), i, 1 + i, &mask) })
            .collect();
        net.inject(n[0], n[1], Message::DataBatch(packets));
    }
    // A real packet behind them is forwarded as ever.
    net.inject(n[0], n[1], Message::Data(packet(flow, 1, 1 + INVENTED, &mask)));
    let frames = net.tap_data(n[2], 1);
    assert_eq!((frames[0].1[0].flow, frames[0].1[0].flow_seq), (flow, 1));
    let b = net.counters(n[1]);
    assert_eq!(b.malformed, INVENTED);
    assert_eq!((b.data_received, b.data_sent), (INVENTED + 2, 2));
    assert_eq!(b.nack_messages_sent, 0, "their link sequences were still seen");
    assert_eq!(cells(n[1]), [flow], "no cell for an invented flow");
    assert_eq!(net.node(n[1]).dedup_flows(), 1, "and no window");
    net.shutdown();
}

#[test]
fn single_packets_stay_plain_data_frames() {
    let (graph, n) = topology(&["A", "B"], &[(0, 1)]);
    let net = Net::launch(graph, |_| BIG_BUDGET, &[n[1]]);
    let flow = Flow::new(n[0], n[1]);
    let tx = net.open_sender(flow, &[(n[0], n[1])]);
    let body = payload(7);
    tx.send(&body).expect("send");
    tx.send_batch(&[&body]).expect("batch of one");
    assert!(tx.tail_probe(&body).expect("probe"));
    let frames = net.tap_data(n[1], 3);
    assert_eq!(frames.len(), 3);
    for (i, (raw, packets)) in frames.iter().enumerate() {
        assert_eq!(raw[2], 0, "frame {i} is type DATA");
        // Byte for byte the frame a DATA envelope of this packet is.
        let expected = Envelope { from: n[0], message: Message::Data(packets[0].clone()) };
        assert_eq!(raw.as_slice(), expected.encode().as_ref(), "frame {i}");
        assert_eq!(packets[0].link_seq, i as u64);
    }
    tx.send_batch(&[&body, &body]).expect("batch of two");
    let frames = net.tap_data(n[1], 2);
    assert_eq!((frames.len(), frames[0].0[2]), (1, 5), "two packets share a DATA-BATCH frame");
    net.shutdown();
}

/// What one chain run of 64 packets left in the counters: per node
/// `(data_received, delivered_on_time, duplicates, expired,
/// transmissions of the flow)`.
fn chain_run(send: impl Fn(&FlowSender)) -> Vec<(u64, u64, u64, u64, u64)> {
    let (graph, n) = chain4();
    let net = Net::launch(graph, |_| BIG_BUDGET, &[]);
    let flow = Flow::new(n[0], n[3]);
    let (tx, rx) = net.open(flow, &[(n[0], n[1]), (n[1], n[2]), (n[2], n[3])]);
    send(&tx);
    let got = collect(&rx, 2 * BATCH);
    assert!(got.iter().map(|d| d.flow_seq).eq(0..2 * BATCH as u64));
    let summary = n
        .iter()
        .map(|&node| {
            let c = net.counters(node);
            let tx = net.transmissions(node, flow);
            (c.data_received, c.delivered_on_time, c.duplicates, c.expired, tx)
        })
        .collect();
    net.shutdown();
    summary
}

#[test]
fn batched_and_unbatched_runs_count_the_same() {
    let singles = chain_run(|tx| {
        for i in 0..2 * BATCH as u64 {
            tx.send(&payload(i)).expect("send");
        }
    });
    let batched = chain_run(|tx| {
        send_batch(tx, 0);
        send_batch(tx, BATCH as u64);
    });
    assert_eq!(singles, batched);
    let all = 2 * BATCH as u64;
    assert_eq!(
        batched,
        [(0, 0, 0, 0, all), (all, 0, 0, 0, all), (all, 0, 0, 0, all), (all, all, 0, 0, 0)]
    );
}

/// A control frame the fault plan delays must leave at its departure
/// time, not at the timer thread's next protocol deadline: with every
/// cadence set to seconds, the only thing that can wake the thread in
/// time is the enqueue itself.
#[test]
fn a_delayed_control_frame_leaves_at_its_departure_time() {
    let (graph, n) = topology(&["A", "B"], &[(0, 1)]);
    let cadence = Duration::from_secs(5);
    let net = Net::launch_tuned(
        graph,
        |_| BIG_BUDGET,
        &[n[1]],
        |config| NodeConfig {
            hello_interval: cadence,
            link_state_interval: cadence,
            digest_interval: cadence,
            link_state_max_age: cadence * 4,
            watchdog_stale_after: cadence * 4,
            ..config
        },
    );
    let delay = Duration::from_millis(5);
    net.node(n[0]).faults().set(n[1], LinkFault::delayed(Micros::from_millis(5)));
    // Let the start-up hello (due at once) and its wake pass.
    std::thread::sleep(Duration::from_millis(50));
    let mut buf = vec![0u8; 65_536];
    for seq in 100..105 {
        // A hello is answered at once, on the control lane.
        let asked = Instant::now();
        net.inject(n[1], n[0], Message::Hello { seq, sent_at: now_us() });
        let took = loop {
            assert!(asked.elapsed() < Duration::from_secs(3), "hello {seq} never answered");
            let Ok((len, _)) = net.tap(n[1]).recv_from(&mut buf) else { continue };
            match Envelope::decode(&buf[..len]).expect("frames decode").message {
                Message::HelloAck { echo_seq, .. } if echo_seq == seq => break asked.elapsed(),
                _ => continue,
            }
        };
        assert!(took >= delay, "ack {seq} skipped its {delay:?} link delay: {took:?}");
        assert!(
            took < Duration::from_millis(200),
            "ack {seq} waited {took:?} for a {delay:?} departure (cadence {cadence:?})"
        );
    }
    net.shutdown();
}

/// A checksum-valid frame proves nothing about who sent it: one from a
/// node id the receiver holds no peer address for is dropped before it
/// can mint per-neighbour state — a monitor entry, a gap tracker, a
/// link-metrics cell — or draw an ack addressed to nobody.
#[test]
fn frames_from_unknown_node_ids_are_dropped_before_any_state() {
    let (graph, n) = topology(&["A", "B"], &[(0, 1)]);
    let net = Net::launch(graph, |_| BIG_BUDGET, &[n[1]]);
    wait_until("A's first hello to B", || net.counters(n[0]).hellos_sent > 0);
    const STRANGERS: u64 = 1_000;
    for id in 0..STRANGERS {
        let from = NodeId::new(1_000 + id as u32);
        let frame = Envelope { from, message: Message::Hello { seq: id, sent_at: now_us() } };
        net.tap(n[1]).send_to(&frame.encode(), net.addrs[0]).expect("inject");
        // In bursts the socket buffer holds, so the kernel drops none.
        if (id + 1) % 100 == 0 {
            wait_until("the burst to be turned away", || net.counters(n[0]).malformed > id);
        }
    }
    // A hello from the real neighbour, sent last, is answered as ever.
    net.inject(n[1], n[0], Message::Hello { seq: 0, sent_at: now_us() });
    wait_until("the neighbour's hello to be echoed", || net.counters(n[0]).hellos_echoed >= 1);
    let snapshot = net.node(n[0]).metrics_snapshot();
    assert_eq!(snapshot.counters.malformed, STRANGERS);
    let links: Vec<NodeId> = snapshot.links.iter().map(|l| l.neighbor).collect();
    assert_eq!(links, [n[1]], "one link cell, for the one neighbour");
    net.shutdown();
}

/// `spawn` is the boundary every configuration crosses: a literal
/// `NodeConfig` that breaks a rule, or does not fit the topology it is
/// spawned on, is refused there with the rule named.
#[test]
fn spawn_rejects_a_config_that_breaks_a_rule_or_the_topology() {
    let (graph, n) = topology(&["A", "B", "C"], &[(0, 1), (1, 2)]);
    let graph = Arc::new(graph);
    let listen: SocketAddr = "127.0.0.1:0".parse().expect("address");
    let ok =
        || NodeConfig { peers: HashMap::from([(n[1], listen)]), ..NodeConfig::new(n[0], listen) };
    let ms = Duration::from_millis;
    let broken = [
        (NodeConfig { shipper_queue: 0, ..ok() }, "shipper_queue"),
        (NodeConfig { watchdog_stale_after: ms(100), ..ok() }, "watchdog_stale_after"),
        (NodeConfig { link_state_max_age: ms(400), ..ok() }, "link_state_max_age"),
        (NodeConfig { node: NodeId::new(3), ..ok() }, "site of the topology"),
        // C exists, but shares no link with A.
        (NodeConfig { peers: HashMap::from([(n[2], listen)]), ..ok() }, "neighbour"),
        (NodeConfig { peers: HashMap::from([(NodeId::new(9), listen)]), ..ok() }, "neighbour"),
    ];
    for (config, rule) in broken {
        match OverlayNode::spawn(config, Arc::clone(&graph)) {
            Err(OverlayError::InvalidConfig(said)) => {
                assert!(said.contains(rule), "{rule}: refused as {said:?}");
            }
            Ok(handle) => {
                handle.shutdown();
                panic!("{rule}: spawned");
            }
            Err(other) => panic!("{rule}: expected InvalidConfig, got {other}"),
        }
    }
    OverlayNode::spawn(ok(), graph).expect("the unbroken config spawns").shutdown();
}
