//! The node core with no socket, thread or sleep: real cores stepped on
//! the crate's virtual-clock harness ([`crate::simnet::Net`]).

use super::*;
use crate::cluster::ClusterConfig;
use crate::fault::LinkFault;
use crate::metrics::{EventKind, NodeCounters};
use crate::simnet::{Net, SimSender, T0};
use dg_core::scheme::SchemeKind;
use dg_core::ServiceRequirement;
use dg_topology::GraphBuilder;

/// One-way latency of every link.
const LATENCY: Micros = Micros::from_millis(10);

fn ms(n: u64) -> Micros {
    Micros::from_millis(n)
}

fn node(i: u32) -> NodeId {
    NodeId::new(i)
}

fn flow(source: u32, destination: u32) -> Flow {
    Flow::new(node(source), node(destination))
}

/// One core per site of the graph built from `links` (bidirectional,
/// [`LATENCY`] each), all born at [`T0`].
fn launch(sites: u32, links: &[(u32, u32)], config: ClusterConfig) -> Net {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..sites).map(|i| b.add_node(&format!("n{i}"))).collect();
    for &(a, z) in links {
        b.add_link(ids[a as usize], ids[z as usize], LATENCY, 1).expect("distinct links");
    }
    Net::launch(&b.build(), config).expect("the configuration is sound")
}

fn open(
    net: &mut Net,
    flow: Flow,
    kind: SchemeKind,
    class: SlaClass,
    deadline: Micros,
) -> SimSender {
    net.open_sender_with_class(flow, kind, ServiceRequirement::new(deadline), class)
        .expect("routable, within capacity")
}

fn counters(net: &Net, at: u32) -> NodeCounters {
    net.snapshot(node(at)).counters
}

fn transmissions(net: &Net, at: u32, flow: Flow) -> u64 {
    net.snapshot(node(at)).flows.iter().find(|f| f.flow == flow).map_or(0, |f| f.transmissions)
}

/// Data frames that reached the wire so far from `from` to `to`.
fn data_frames(net: &Net, from: u32, to: u32) -> usize {
    let on_link = net.wire().iter().filter(|f| f.from == node(from) && f.to == node(to));
    on_link.filter(|f| wire::is_data_frame(&f.bytes)).count()
}

/// `(site, flow sequence, on time)` of every delivery so far.
fn delivered(net: &Net) -> Vec<(usize, u64, bool)> {
    net.deliveries().iter().map(|(at, d)| (at.index(), d.flow_seq, d.on_time)).collect()
}

const CHAIN: [(u32, u32); 2] = [(0, 1), (1, 2)];

/// Three packets down the chain 0 → 1 → 2 a millisecond apart, after
/// the hellos have measured the links; the fault plan drops the frame
/// that carries the second across 0 → 1.
fn chain_losing_the_second_packet(deadline: Micros) -> Net {
    let mut net = launch(3, &CHAIN, ClusterConfig::default());
    let flow = flow(0, 2);
    net.open_receiver(flow);
    let session = open(&mut net, flow, SchemeKind::StaticSinglePath, SlaClass::Timely, deadline);
    net.run_for(ms(300));
    let first_hop = net.graph().edge_between(node(0), node(1)).expect("linked");
    for i in 0..3 {
        let doomed = i == 1;
        if doomed {
            net.set_link_impairment(first_hop, LinkFault { blackhole: true, ..Default::default() });
        }
        net.send(session, b"scalpel");
        if doomed {
            net.clear_link_fault(first_hop);
        }
        net.run_for(ms(1));
    }
    net.run_for(ms(200));
    net
}

/// (a) docs/PROTOCOL.md §3: the next arrival exposes the gap, the gap
/// costs one NACK, the NACK one retransmission, and the recovered packet
/// is on time when the deadline has three link latencies of slack.
#[test]
fn a_lost_frame_costs_one_nack_and_one_retransmission() {
    let net = chain_losing_the_second_packet(ms(65));
    assert_eq!(
        delivered(&net),
        [(2, 0, true), (2, 2, true), (2, 1, true)],
        "all three at node 2, the recovered one last"
    );
    let (source, relay) = (counters(&net, 0), counters(&net, 1));
    assert_eq!(source.fault_drops, 1);
    assert_eq!(relay.nack_messages_sent, 1);
    assert_eq!(relay.retransmit_requests_issued, 1);
    assert_eq!(relay.nack_rerequests, 0);
    assert_eq!(source.retransmit_requests_received, 1);
    assert_eq!(source.retransmissions_served, 1);
    assert_eq!(source.retransmits_suppressed + source.retransmit_misses, 0);
    // Originals plus the retransmission at the source, originals alone
    // at the relay: the flow's cost as the simulator counts it.
    assert_eq!(transmissions(&net, 0, flow(0, 2)), 4);
    assert_eq!(transmissions(&net, 1, flow(0, 2)), 3);
    assert_eq!(data_frames(&net, 0, 1), 3, "the lost original never reached the wire");
}

/// (b) The same loss under a 25 ms deadline: the NACK reaches the source
/// 21 ms after the packet was sent and the copy would need half the
/// 20 ms round trip more, so it is suppressed, not sent.
#[test]
fn a_retransmission_that_cannot_make_the_deadline_is_suppressed() {
    let net = chain_losing_the_second_packet(ms(25));
    assert_eq!(delivered(&net), [(2, 0, true), (2, 2, true)]);
    let source = counters(&net, 0);
    assert_eq!(source.retransmit_requests_received, 1);
    assert_eq!(source.retransmits_suppressed, 1);
    assert_eq!(source.retransmissions_served, 0);
    assert_eq!(data_frames(&net, 0, 1), 2, "the surviving originals, nothing after the NACK");
    assert_eq!(transmissions(&net, 0, flow(0, 2)), 3);
}

/// (c) Flooding 0 → 4 over the diamond 0 → {1, 2} → 3 → 4: node 3 is
/// offered every packet over two in-edges (and a third time when node 4
/// floods it back), accepts it once, forwards it to node 4 once, and
/// node 4 delivers it once.
#[test]
fn a_packet_over_two_in_edges_delivers_once_and_forwards_once() {
    let links = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)];
    let mut net = launch(5, &links, ClusterConfig::default());
    let flow = flow(0, 4);
    net.open_receiver(flow);
    let session =
        open(&mut net, flow, SchemeKind::TimeConstrainedFlooding, SlaClass::Timely, ms(65));
    for _ in 0..4 {
        net.send(session, b"once");
        net.run_for(ms(2));
    }
    net.run_for(ms(100));
    let each_once_in_order = [0, 1, 2, 3].map(|seq| (4, seq, true));
    assert_eq!(delivered(&net), each_once_in_order);
    let join = counters(&net, 3);
    assert!(join.data_received >= 8, "both in-edges offered every packet: {join:?}");
    assert_eq!(join.data_received - join.duplicates, 4, "and each was accepted once");
    assert_eq!(data_frames(&net, 3, 4), 4, "one forward a packet");
    assert_eq!(counters(&net, 4).delivered_on_time, 4);
}

/// (d) Hello silence on 0 → 2 of a triangle. Node 2 last hears node 0 at
/// T0 + 510 ms; its first tick more than five hello intervals later is
/// the one at T0 + 800 ms, which journals the `LinkDown` and floods it.
/// Node 0 holds the report a latency later, and its session leaves the
/// dead edge at its next scheme refresh, T0 + 1 s (the edge had crossed
/// the problem threshold already, when node 2's detector fired, so the
/// down report is not a crossing that refreshes at once).
#[test]
fn hello_silence_declares_the_link_down_and_the_source_routes_around_it() {
    let mut net = launch(3, &[(0, 1), (1, 2), (0, 2)], ClusterConfig::default());
    let session =
        open(&mut net, flow(0, 2), SchemeKind::DynamicSinglePath, SlaClass::Timely, ms(65));
    let direct = net.graph().edge_between(node(0), node(2)).expect("linked");
    let at = |site: u32, net: &Net, wanted: fn(&EventKind) -> bool| -> Vec<Micros> {
        let events = net.snapshot(node(site)).events;
        events.iter().filter(|e| wanted(&e.kind)).map(|e| e.at.saturating_sub(T0)).collect()
    };
    net.run_until(T0.saturating_add(ms(505)));
    assert!(net.current_graph(session).contains(direct), "the direct edge is shortest");
    net.set_link_impairment(direct, LinkFault { blackhole: true, ..Default::default() });

    net.run_until(T0.saturating_add(ms(810)));
    assert_eq!(at(2, &net, |k| matches!(k, EventKind::LinkDown { .. })), [ms(800)]);
    assert_eq!(counters(&net, 2).links_declared_down, 1);
    assert!(net.network_state(node(0)).condition(direct).loss_rate >= 1.0);

    net.run_until(T0.saturating_add(ms(1_000)));
    assert_eq!(at(0, &net, |k| matches!(k, EventKind::RouteChange { .. })), [ms(1_000)]);
    assert!(!net.current_graph(session).contains(direct), "the session left the edge");
}

/// (e) The class shed bands over a 128-frame bound: bulk is admitted
/// below 64 parked, timely below 96, surgical below 128.
#[test]
fn backlog_sheds_bulk_then_timely_and_surgical_last() {
    let mut net = launch(3, &CHAIN, ClusterConfig { shipper_queue: 128, ..Default::default() });
    let classes = [SlaClass::Bulk, SlaClass::Timely, SlaClass::Surgical];
    let sessions = classes
        .map(|class| open(&mut net, flow(0, 2), SchemeKind::StaticSinglePath, class, ms(65)));
    // Frames emitted per class at each backlog.
    let mut emitted = |backlog: u64| {
        sessions.map(|session| {
            let mut out = Actions::default();
            net.core_mut(node(0)).send(T0, session.id, &[b"x"], backlog, &mut out);
            out.frames.len()
        })
    };
    assert_eq!(emitted(63), [1, 1, 1]);
    assert_eq!(emitted(64), [0, 1, 1]);
    assert_eq!(emitted(95), [0, 1, 1]);
    assert_eq!(emitted(96), [0, 0, 1]);
    assert_eq!(emitted(127), [0, 0, 1]);
    let counters = counters(&net, 0);
    assert_eq!((counters.shed_bulk, counters.shed_timely, counters.shed_surgical), (4, 2, 0));
    assert_eq!(counters.shipper_drops, 6);
    // A shed packet takes no link sequence: nothing for the neighbour to
    // NACK.
    assert_eq!(counters.data_sent, 9);
}

/// The retransmit buffer's memory bounds. While frames are sent, a link
/// holds those whose sequences are among the last [`RETRANSMIT_BUFFER`]
/// and whose packets can still make their deadline: with 32 records a
/// millisecond and a 65 ms budget the window binds on 0 → 1, which
/// holds all of it — ⌈`RETRANSMIT_BUFFER` / records per frame⌉ + 1 at the
/// most — while 1 → 2, which gets each frame 10 ms into its budget,
/// holds the 55 ms left of it. Once the sending stops, every frame
/// leaves at the first hello tick past its deadline, and its buffer is
/// the pool's again (which keeps what it can hold idle).
#[test]
fn a_link_holds_a_frame_while_it_can_make_its_deadline() {
    use crate::pool::DEFAULT_POOL_CAPACITY;
    use crate::recovery::RETRANSMIT_BUFFER;
    const RECORDS: usize = 32;
    let mut net =
        launch(3, &CHAIN, ClusterConfig { max_batch_bytes: 60_000, ..Default::default() });
    let flow = flow(0, 2);
    net.open_receiver(flow);
    let session = open(&mut net, flow, SchemeKind::StaticSinglePath, SlaClass::Timely, ms(65));
    let payloads = [[7u8; 64]; RECORDS];
    let payloads: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let window = RETRANSMIT_BUFFER / RECORDS;
    let bound = RETRANSMIT_BUFFER.div_ceil(RECORDS) + 1;
    let held =
        |net: &Net, from: u32, to: u32| net.core(node(from)).send_links[&node(to)].buffer.len();
    for sent in 1..=200 {
        net.send_batch(session, &payloads);
        net.run_for(ms(1));
        if sent > 100 {
            let (first, second) = (held(&net, 0, 1), held(&net, 1, 2));
            assert!((window..=bound).contains(&first), "0 → 1 holds {first} frames");
            assert_eq!(second, 56, "1 → 2 holds the frames of the last 55 ms, and this one");
        }
    }
    net.run_for(ms(100));
    assert_eq!(data_frames(&net, 1, 2), 200, "each frame forwarded whole");
    assert_eq!(net.deliveries().len(), 200 * RECORDS);
    for (from, to) in [(0, 1), (1, 2)] {
        assert_eq!(held(&net, from, to), 0, "{from} → {to} still holds frames past their deadline");
        assert!(net.core(node(from)).frame_pool.idle() <= DEFAULT_POOL_CAPACITY);
    }
}

/// (f) The same inputs twice: byte-identical frames on the wire in the
/// same order at the same instants, equal deliveries, and every core's
/// whole snapshot — counters, flows, links, journal, link-state digest,
/// graph-cache counters — equal.
#[test]
fn replay_is_deterministic() {
    let (one, two) =
        (chain_losing_the_second_packet(ms(65)), chain_losing_the_second_packet(ms(65)));
    assert!(one.wire().len() > 100, "hellos, link state, data, a NACK: {}", one.wire().len());
    assert_eq!(one.wire(), two.wire());
    assert_eq!(one.deliveries(), two.deliveries());
    let snapshots = |net: &Net| [0, 1, 2].map(|site| net.snapshot(node(site)));
    let (one, two) = (snapshots(&one), snapshots(&two));
    assert_eq!(one, two);
    assert!(one.iter().all(|s| !s.flows.is_empty() && !s.link_state.is_empty()));
    assert!(one[..2].iter().all(|s| !s.events.is_empty()), "the NACK and its service");
}

/// `poll_timers` returns the earliest of the three cadences, and a
/// fresh node's hello is due at its birth.
#[test]
fn poll_timers_returns_the_next_protocol_deadline() {
    let mut net = launch(3, &CHAIN, ClusterConfig::default());
    let (core, out) = (net.core_mut(node(1)), &mut Actions::default());
    assert_eq!(core.poll_timers(T0, 0, out), T0.saturating_add(ms(50)), "hello is earliest");
    assert_eq!(out.frames.len(), 2, "a hello to each neighbour, nothing else yet");
    assert_eq!(core.poll_timers(T0.saturating_add(ms(49)), 0, out), T0.saturating_add(ms(50)));
    assert_eq!(out.frames.len(), 2, "nothing is due a millisecond early");
    // A late pass reschedules from when it ran, not from when it was due.
    assert_eq!(core.poll_timers(T0.saturating_add(ms(180)), 0, out), T0.saturating_add(ms(200)));
    assert_eq!(core.poll_timers(T0.saturating_add(ms(200)), 0, out), T0.saturating_add(ms(230)));
    assert_eq!(counters(&net, 1).link_state_originated, 1, "the 200 ms link-state cadence fired");
    assert_eq!(counters(&net, 1).digests_sent, 0, "the 1 s digest cadence has not");
}

/// Node 1 between node 0, 10 ms away, and node 2, 30 ms away, at the
/// default configuration, with the sites in `down` not started.
fn uneven_chain(down: &[u32]) -> Net {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..3).map(|i| b.add_node(&format!("n{i}"))).collect();
    b.add_link(ids[0], ids[1], ms(10), 1).expect("distinct links");
    b.add_link(ids[1], ids[2], ms(30), 1).expect("distinct links");
    let down: Vec<NodeId> = down.iter().map(|&i| node(i)).collect();
    Net::launch_except(&b.build(), ClusterConfig::default(), &down).expect("launches")
}

/// Every link-state report `origin` originated: how long after [`T0`]
/// (when its first copy reached the wire, less that link's latency), and
/// the loss it states for each in-edge, in the node's in-edge order.
fn reports(net: &Net, origin: u32) -> Vec<(Micros, Vec<f32>)> {
    let mut by_seq = BTreeMap::new();
    for frame in net.wire().iter().filter(|f| f.from == node(origin)) {
        let Ok(Envelope { message: Message::LinkState(update), .. }) =
            Envelope::decode(&frame.bytes)
        else {
            continue;
        };
        if update.origin == node(origin) {
            let link = net.graph().edge_between(frame.from, frame.to).expect("linked");
            let sent = frame.at.saturating_sub(net.graph().edge(link).latency);
            let losses = update.entries.iter().map(|e| e.loss).collect();
            by_seq.entry(update.seq).or_insert((sent.saturating_sub(T0), losses));
        }
    }
    by_seq.into_values().collect()
}

/// A node reports its links the instant its last in-link's first hello
/// arrives — node 1 at 30 ms, node 0 at 10 — once, each link clean, and
/// next at the 200 ms refresh.
#[test]
fn a_node_reports_once_its_last_in_link_is_first_heard() {
    let mut net = uneven_chain(&[]);
    net.run_until(T0.saturating_add(ms(199)));
    assert_eq!(reports(&net, 1), [(ms(30), vec![0.0, 0.0])]);
    assert_eq!(reports(&net, 0), [(ms(10), vec![0.0])]);
    assert_eq!(counters(&net, 1).link_state_originated, 1);
    net.run_until(T0.saturating_add(ms(250)));
    assert_eq!(reports(&net, 1)[1].0, ms(200), "the refresh keeps its cadence");
}

/// An in-link never heard holds no report back and brings none forward:
/// the node reports at the refresh, the silent link at full loss, and
/// again the instant that link first delivers a hello.
#[test]
fn a_silent_in_link_waits_for_the_refresh_then_its_first_hello_reports() {
    let mut net = uneven_chain(&[2]);
    net.run_until(T0.saturating_add(ms(250)));
    assert_eq!(reports(&net, 1), [(ms(200), vec![0.0, 1.0])]);
    // Node 2 comes up; its first hello reaches node 1 30 ms later.
    net.restart_node(node(2));
    net.run_until(T0.saturating_add(ms(399)));
    assert_eq!(reports(&net, 1), [(ms(200), vec![0.0, 1.0]), (ms(280), vec![0.0, 0.0])]);
}

/// While originations are paused the first-contact report is held too;
/// once resumed, the node reports at its refresh.
#[test]
fn paused_originations_hold_the_first_contact_report() {
    let mut net = uneven_chain(&[]);
    net.core_mut(node(1)).originations_paused = true;
    net.run_until(T0.saturating_add(ms(150)));
    assert_eq!(reports(&net, 1), []);
    assert_eq!(counters(&net, 1).link_state_originated, 0);
    assert_eq!(reports(&net, 0).len(), 1, "the others report as ever");
    net.core_mut(node(1)).originations_paused = false;
    net.run_until(T0.saturating_add(ms(250)));
    assert_eq!(reports(&net, 1), [(ms(200), vec![0.0, 0.0])]);
}

/// A closed session gives its admission slot back and is no longer
/// refreshed.
#[test]
fn closed_sessions_leave_the_core() {
    let mut net = launch(3, &CHAIN, ClusterConfig { sender_capacity: 2, ..Default::default() });
    let open = |net: &mut Net| {
        net.open_sender(flow(0, 2), SchemeKind::StaticSinglePath, ServiceRequirement::default())
    };
    let lookups = |net: &Net| {
        let live = net.core(node(0)).graph_cache.stats().live;
        live.hits + live.misses
    };
    let (first, _second) = (open(&mut net).expect("one"), open(&mut net).expect("two"));
    assert!(matches!(
        open(&mut net),
        Err(crate::OverlayError::AdmissionDenied { active: 2, capacity: 2 })
    ));
    let before = lookups(&net);
    net.run_until(T0.saturating_add(ms(200)));
    assert_eq!(lookups(&net) - before, 2, "one refresh visits both slots");
    net.core_mut(node(0)).close_session(first.id);
    let before = lookups(&net);
    net.run_until(T0.saturating_add(ms(400)));
    assert_eq!(lookups(&net) - before, 1, "and one fewer once a session has closed");
    assert!(open(&mut net).is_ok(), "the slot is free again");
}

/// A group flow delivers wherever a receiving session is open for it,
/// and stops — counters too — once that session has closed.
#[test]
fn a_closed_receiver_is_no_longer_delivered_to() {
    let mut net = launch(3, &CHAIN, ClusterConfig::default());
    let (kind, requirement) = (dg_core::MulticastKind::Tree, ServiceRequirement::default());
    let session = net
        .open_group_sender(node(0), &[node(2)], 7, kind, requirement, SlaClass::Timely)
        .expect("node 2 is reachable, within capacity");
    net.send(session, b"heard");
    net.run_for(ms(30));
    net.core_mut(node(2)).receivers.remove(&session.flow());
    net.send(session, b"unheard");
    net.run_for(ms(30));
    assert_eq!(delivered(&net), [(2, 0, true)]);
    let sink = counters(&net, 2);
    assert_eq!((sink.data_received, sink.delivered_on_time), (2, 1));
}
