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
/// Node 0 holds the report a latency later, T0 + 810 ms, and its
/// session leaves the dead edge on it.
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
    assert_eq!(at(0, &net, |k| matches!(k, EventKind::RouteChange { .. })), [ms(810)]);
    assert!(!net.current_graph(session).contains(direct), "the session left the edge");
}

/// A delay with no loss on 0 → 2 of a triangle, from T0 + 505 ms: 30 ms
/// more on a 10 ms edge. Node 2's one-way estimate moves once a window
/// of hellos has all measured it: the twentieth slow one, sent at
/// 1 500 ms, lands at 1 540, and node 2's tick at 1 550 reports it —
/// news, since the edge's expected weight quadrupled. Node 0 holds the
/// report a latency later, at 1 560 ms, and its dynamic single path
/// leaves the edge for the 20 ms detour on it.
#[test]
fn a_delay_alone_is_reported_and_moves_a_dynamic_route() {
    let mut net = launch(3, &[(0, 1), (1, 2), (0, 2)], ClusterConfig::default());
    let session =
        open(&mut net, flow(0, 2), SchemeKind::DynamicSinglePath, SlaClass::Timely, ms(65));
    let direct = net.graph().edge_between(node(0), node(2)).expect("linked");
    net.run_until(T0.saturating_add(ms(505)));
    assert!(net.current_graph(session).contains(direct), "the direct edge is shortest");
    let reported = counters(&net, 2).link_state_originated;
    net.set_link_fault(direct, 0.0, ms(30));

    net.run_until(T0.saturating_add(ms(1_559)));
    assert_eq!(net.network_state(node(0)).condition(direct).extra_latency, Micros::ZERO);
    net.run_until(T0.saturating_add(ms(3_000)));
    assert_eq!(counters(&net, 2).link_state_originated, reported + 1, "one report of it");
    assert_eq!(reports(&net, 2).last().map(|r| r.0), Some(ms(1_550)));
    let seen = net.network_state(node(0)).condition(direct);
    assert_eq!((seen.extra_latency, seen.loss_rate), (ms(30), 0.0));
    let events = net.snapshot(node(0)).events;
    let changes = events.iter().filter(|e| matches!(e.kind, EventKind::RouteChange { .. }));
    assert_eq!(changes.map(|e| e.at.saturating_sub(T0)).collect::<Vec<_>>(), [ms(1_560)]);
    assert!(!net.current_graph(session).contains(direct), "the session left the edge");
}

/// A previous life's report that outranks this one's — its epoch
/// minted from a clock that read later — cannot shut a node out of the
/// databases. Node 2 of a triangle is killed, and a report of its
/// in-links as down, stamped an hour ahead, stands in for its last life
/// (this clock only runs forward). It restarts under an epoch below
/// that report's, which its neighbours push to it before its first
/// report (their answer to its birth digest); a second one is flooded
/// after it. Each time node 2 takes the epoch past it, and within
/// 100 ms every database holds node 2's own, clean report.
#[test]
fn a_previous_life_stamped_ahead_is_outranked_by_the_next_report() {
    use crate::wire::{LinkStateEntry, LinkStateUpdate};
    let mut net = launch(3, &[(0, 1), (1, 2), (0, 2)], ClusterConfig::default());
    net.run_until(T0.saturating_add(ms(300)));
    assert!(net.link_state_converged());
    let in_edges = net.graph().in_edges(node(2)).to_vec();
    let ahead = |net: &Net, seq| LinkStateUpdate {
        origin: node(2),
        epoch: net.now().saturating_add(Micros::from_secs(3_600)).as_micros(),
        seq,
        entries: in_edges
            .iter()
            .map(|&edge| LinkStateEntry { edge, loss: 0.0, extra_latency_us: 0, down: true })
            .collect(),
    };
    let everywhere_clean = |net: &Net, epoch: u64| {
        (0..3).all(|site| {
            let state = net.network_state(node(site));
            let stamp = net.link_state_digest(node(site))[2];
            (stamp.epoch, stamp.seq) == (epoch, 1)
                && in_edges.iter().all(|&e| state.condition(e).loss_rate == 0.0)
        })
    };

    // Before the new life's first report.
    net.kill_node(node(2));
    let old = ahead(&net, 7);
    net.inject(node(2), node(0), Message::LinkState(old.clone()));
    net.run_for(ms(50));
    assert!((0..2).all(|site| net.link_state_digest(node(site))[2].epoch == old.epoch));
    net.restart_node(node(2));
    net.wait_until(ms(100), |net| everywhere_clean(net, old.epoch + 1))
        .expect("the restarted node's first report was not accepted everywhere");

    // After it: node 2 has reported, and reports again.
    let late = ahead(&net, 9);
    net.inject(node(2), node(0), Message::LinkState(late.clone()));
    net.wait_until(ms(100), |net| everywhere_clean(net, late.epoch + 1))
        .expect("the node did not outrank a late previous life");
}

/// A flooded report may name an edge the topology lacks: a database
/// skips that entry, and so must the graph cache, or the next
/// usability-aware build reads the edge and the node stops. Node 1 of
/// a square with the diagonal 0 → 3 is made to report its in-links
/// clean and edge 50 000 000 down. Then 0 → 3 is lost for real: node 0
/// builds its session's usable pair afresh (over 1 and over 2), moves
/// the session off the link, and every node keeps running with that
/// link alone unusable.
#[test]
fn a_report_of_an_edge_the_topology_lacks_stops_no_node() {
    use crate::wire::{LinkStateEntry, LinkStateUpdate};
    let links = [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)];
    let mut net = launch(4, &links, ClusterConfig::default());
    let session =
        open(&mut net, flow(0, 3), SchemeKind::DynamicSinglePath, SlaClass::Timely, ms(65));
    let direct = net.graph().edge_between(node(0), node(3)).expect("linked");
    net.run_until(T0.saturating_add(ms(300)));
    assert!(net.link_state_converged());
    assert!(net.current_graph(session).contains(direct), "the direct edge is shortest");
    let clean = |edge| LinkStateEntry { edge, loss: 0.0, extra_latency_us: 0, down: false };
    let mut entries: Vec<LinkStateEntry> =
        net.graph().in_edges(node(1)).iter().map(|&e| clean(e)).collect();
    entries.push(LinkStateEntry { down: true, ..clean(EdgeId::new(50_000_000)) });
    let report = LinkStateUpdate {
        origin: node(1),
        epoch: net.now().saturating_add(Micros::from_secs(3_600)).as_micros(),
        seq: 1,
        entries,
    };
    net.inject(node(1), node(0), Message::LinkState(report.clone()));
    net.run_for(ms(100));
    for site in 0..4 {
        assert!(net.link_state_digest(node(site))[1].epoch >= report.epoch, "node {site}");
    }

    // The flap makes node 0 build its session's usable pair afresh.
    net.set_link_impairment(direct, LinkFault { blackhole: true, ..Default::default() });
    net.run_for(ms(1_000));
    assert!(net.network_state(node(0)).condition(direct).loss_rate >= 1.0);
    assert!(!net.current_graph(session).contains(direct), "the session left the edge");
    for site in 0..4 {
        assert!(net.is_alive(node(site)), "node {site} stopped");
        let cache = &net.core(node(site)).graph_cache;
        assert_eq!(cache.stats().unusable_edges, 1, "node {site}");
        assert!(!cache.is_usable(direct), "node {site}");
    }
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

/// `poll_timers` returns the earlier of the two cadences, and a fresh
/// node's hello and digest are due at its birth. A node that has heard
/// nothing owes its first report on the first hello tick past the
/// 250 ms link-down horizon, and nothing else originates on a clock.
#[test]
fn poll_timers_returns_the_next_protocol_deadline() {
    let mut net = launch(3, &CHAIN, ClusterConfig::default());
    let (core, out) = (net.core_mut(node(1)), &mut Actions::default());
    assert_eq!(core.poll_timers(T0, 0, out), T0.saturating_add(ms(50)), "hello is earliest");
    assert_eq!(out.frames.len(), 4, "a hello and a digest to each neighbour, nothing else");
    assert_eq!(core.poll_timers(T0.saturating_add(ms(49)), 0, out), T0.saturating_add(ms(50)));
    assert_eq!(out.frames.len(), 4, "nothing is due a millisecond early");
    // A late pass reschedules from when it ran, not from when it was due.
    assert_eq!(core.poll_timers(T0.saturating_add(ms(180)), 0, out), T0.saturating_add(ms(230)));
    assert_eq!(core.poll_timers(T0.saturating_add(ms(230)), 0, out), T0.saturating_add(ms(280)));
    assert_eq!(counters(&net, 1).link_state_originated, 0, "the horizon is not yet past");
    let core = net.core_mut(node(1));
    assert_eq!(core.poll_timers(T0.saturating_add(ms(280)), 0, out), T0.saturating_add(ms(330)));
    assert_eq!(counters(&net, 1).link_state_originated, 1, "the owed first report left");
    let core = net.core_mut(node(1));
    assert_eq!(core.poll_timers(T0.saturating_add(ms(330)), 0, out), T0.saturating_add(ms(380)));
    assert_eq!(counters(&net, 1).link_state_originated, 1, "and nothing changed since");
    assert_eq!(counters(&net, 1).digests_sent, 2, "the 1 s digest cadence has not fired again");
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
/// not again while nothing it advertises changes.
#[test]
fn a_node_reports_once_its_last_in_link_is_first_heard() {
    let mut net = uneven_chain(&[]);
    net.run_until(T0.saturating_add(ms(199)));
    assert_eq!(reports(&net, 1), [(ms(30), vec![0.0, 0.0])]);
    assert_eq!(reports(&net, 0), [(ms(10), vec![0.0])]);
    assert_eq!(counters(&net, 1).link_state_originated, 1);
    net.run_until(T0.saturating_add(ms(10_000)));
    assert_eq!(reports(&net, 1).len(), 1, "a clean, quiet link is no news");
    assert_eq!(reports(&net, 0).len(), 1);
}

/// An in-link never heard holds the first report back only to the
/// link-down horizon: the node reports on the hello tick at 250 ms, the
/// silent link at full loss, and again the instant that link first
/// delivers a hello.
#[test]
fn a_silent_in_link_waits_for_the_down_horizon_then_its_first_hello_reports() {
    let mut net = uneven_chain(&[2]);
    net.run_until(T0.saturating_add(ms(260)));
    assert_eq!(reports(&net, 1), [(ms(250), vec![0.0, 1.0])]);
    // Node 2 comes up; its first hello reaches node 1 30 ms later.
    net.restart_node(node(2));
    net.run_until(T0.saturating_add(ms(399)));
    assert_eq!(reports(&net, 1), [(ms(250), vec![0.0, 1.0]), (ms(290), vec![0.0, 0.0])]);
}

/// An in-link that never speaks does not silence the others: with node
/// 2 never started, half the frames on 0 → 1 lost trips node 1's
/// detector, and its report of that reaches node 0, the silent link
/// still at full loss beside it.
#[test]
fn a_never_heard_in_link_does_not_hold_back_news_of_the_others() {
    let mut net = uneven_chain(&[2]);
    net.run_until(T0.saturating_add(ms(300)));
    assert_eq!(reports(&net, 1).len(), 1, "the first report, at the horizon");
    let lossy = net.graph().edge_between(node(0), node(1)).expect("linked");
    net.set_link_fault(lossy, 0.5, Micros::ZERO);
    net.run_until(T0.saturating_add(ms(2_000)));
    let (_, losses) = reports(&net, 1).pop().expect("reported");
    assert!(losses[0] >= 0.05 && losses[1] == 1.0, "{losses:?}");
    assert!(net.network_state(node(0)).condition(lossy).loss_rate >= 0.05);
}

/// While originations are paused the first-contact report is held too;
/// once resumed, the node reports on its first hello tick past the
/// link-down horizon.
#[test]
fn paused_originations_hold_the_first_contact_report() {
    let mut net = uneven_chain(&[]);
    net.core_mut(node(1)).originations_paused = true;
    net.run_until(T0.saturating_add(ms(150)));
    assert_eq!(reports(&net, 1), []);
    assert_eq!(counters(&net, 1).link_state_originated, 0);
    assert_eq!(reports(&net, 0).len(), 1, "the others report as ever");
    net.core_mut(node(1)).originations_paused = false;
    net.run_until(T0.saturating_add(ms(300)));
    assert_eq!(reports(&net, 1), [(ms(250), vec![0.0, 0.0])]);
}

/// A closed session gives its admission slot back and is no longer
/// shown link-state updates.
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
    net.core_mut(node(0)).update_schemes(T0);
    assert_eq!(lookups(&net) - before, 2, "one update visits both slots");
    net.core_mut(node(0)).close_session(first.id);
    let before = lookups(&net);
    net.core_mut(node(0)).update_schemes(T0);
    assert_eq!(lookups(&net) - before, 1, "and one fewer once a session has closed");
    assert!(open(&mut net).is_ok(), "the slot is free again");
}

/// A flow is handed out at its destination only while a receiving
/// session is open there: a packet that arrives after the session has
/// closed is received, but no `Delivery` is made of it.
#[test]
fn a_closed_receiver_is_no_longer_delivered_to() {
    let mut net = launch(3, &CHAIN, ClusterConfig::default());
    let flow = flow(0, 2);
    net.open_receiver(flow);
    let session = open(&mut net, flow, SchemeKind::StaticSinglePath, SlaClass::Timely, ms(65));
    net.send(session, b"heard");
    net.run_for(ms(30));
    net.core_mut(node(2)).receivers.remove(&flow);
    net.send(session, b"unheard");
    net.run_for(ms(30));
    assert_eq!(delivered(&net), [(2, 0, true)]);
    assert_eq!(counters(&net, 2).data_received, 2);
}
