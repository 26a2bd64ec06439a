//! The node core with no socket, thread or sleep: a carrier moves
//! `Actions` between a few cores on a hand-advanced clock.

use super::*;
use crate::metrics::{EventKind, NodeCounters};
use dg_core::scheme::{build_scheme, SchemeKind};
use dg_core::ServiceRequirement;
use dg_topology::GraphBuilder;
use std::collections::VecDeque;

/// One-way latency of every link the carrier models.
const LATENCY: Micros = Micros::from_millis(10);
/// When the nodes are born.
const T0: Micros = Micros::from_secs(1_000);

fn ms(n: u64) -> Micros {
    Micros::from_millis(n)
}

/// `(from, to, datagram)`.
type Frame = (NodeId, NodeId, Bytes);

struct Net {
    now: Micros,
    graph: Arc<Graph>,
    cores: Vec<NodeCore>,
    /// Each core's next protocol deadline, as `poll_timers` returned it.
    deadlines: Vec<Micros>,
    /// Frames in flight with their arrival instants; one latency
    /// everywhere, so in order.
    wire: VecDeque<(Micros, Frame)>,
    /// Every frame a core emitted (dropped by the carrier or not).
    sent: Vec<Frame>,
    delivered: Vec<(NodeId, Delivery)>,
    /// Decides which frames the carrier loses.
    lose: Box<dyn FnMut(&Frame) -> bool>,
}

impl Net {
    /// One core per site of the graph built from `links` (bidirectional,
    /// [`LATENCY`] each), all born at [`T0`], with `tune` applied to each
    /// node's configuration.
    fn new(sites: u32, links: &[(u32, u32)], tune: impl Fn(&mut NodeConfig)) -> Net {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..sites).map(|i| b.add_node(&format!("n{i}"))).collect();
        for &(a, z) in links {
            b.add_link(ids[a as usize], ids[z as usize], LATENCY, 1).expect("distinct links");
        }
        let graph = Arc::new(b.build());
        let nowhere = "127.0.0.1:0".parse().expect("an address");
        let cores = ids
            .iter()
            .map(|&node| {
                let mut config = NodeConfig::new(node, nowhere);
                config.peers = graph.neighbors(node).map(|n| (n, nowhere)).collect();
                tune(&mut config);
                NodeCore::new(Arc::new(config), Arc::clone(&graph), T0)
            })
            .collect();
        Net {
            now: T0,
            graph,
            cores,
            deadlines: vec![T0; sites as usize],
            wire: VecDeque::new(),
            sent: Vec::new(),
            delivered: Vec::new(),
            lose: Box::new(|_| false),
        }
    }

    /// Enters core `node` now and carries what it asks for: frames onto
    /// the wire unless lost, deliveries into the log.
    fn step<R>(
        &mut self,
        node: usize,
        call: impl FnOnce(&mut NodeCore, Micros, &mut Actions) -> R,
    ) -> R {
        let mut out = Actions::default();
        let result = call(&mut self.cores[node], self.now, &mut out);
        let from = NodeId::new(node as u32);
        for (to, datagram, _) in out.frames {
            let frame = (from, to, datagram);
            if !(self.lose)(&frame) {
                self.wire.push_back((self.now.saturating_add(LATENCY), frame.clone()));
            }
            self.sent.push(frame);
        }
        self.delivered.extend(out.deliveries.into_iter().map(|(_, d)| (from, d)));
        result
    }

    /// Advances the clock to `until`, handing every arrival and every
    /// protocol deadline on the way to its core at its instant.
    fn run_until(&mut self, until: Micros) {
        loop {
            let (timer, node) = self.deadlines.iter().copied().zip(0..).min().expect("cores");
            let arrival = self.wire.front().map(|&(at, _)| at).filter(|&at| at <= timer);
            let next = arrival.unwrap_or(timer);
            if next > until {
                break;
            }
            self.now = next;
            if arrival.is_some() {
                let (_, (_, to, datagram)) = self.wire.pop_front().expect("peeked");
                self.step(to.index(), |core, now, out| {
                    core.handle_datagram(now, &datagram, 0, out)
                });
            } else {
                self.deadlines[node] =
                    self.step(node, |core, now, out| core.poll_timers(now, 0, out));
            }
        }
        self.now = until;
    }

    fn run_for(&mut self, span: Micros) {
        self.run_until(self.now.saturating_add(span));
    }

    fn open(
        &mut self,
        flow: Flow,
        kind: SchemeKind,
        class: SlaClass,
        deadline: Micros,
    ) -> SessionId {
        let requirement = ServiceRequirement::new(deadline);
        let scheme = build_scheme(kind, &self.graph, flow, requirement, &SchemeParams::default())
            .expect("the flow is routable");
        self.cores[flow.source.index()]
            .open_session(Route::Scheme(scheme), flow, class, deadline)
            .expect("within capacity")
    }

    fn send(&mut self, node: usize, session: SessionId, payload: &[u8]) -> u64 {
        self.step(node, |core, now, out| core.send(now, session, &[payload], 0, out))
    }

    fn counters(&self, node: usize) -> NodeCounters {
        self.cores[node].snapshot().counters
    }

    fn transmissions(&self, node: usize, flow: Flow) -> u64 {
        let snap = self.cores[node].snapshot();
        snap.flows.iter().find(|f| f.flow == flow).map_or(0, |f| f.transmissions)
    }

    /// Data frames emitted so far from `from` to `to`.
    fn data_frames(&self, from: u32, to: u32) -> usize {
        let on_link = |f: &&Frame| f.0.index() == from as usize && f.1.index() == to as usize;
        self.sent.iter().filter(on_link).filter(|f| wire::is_data_frame(&f.2)).count()
    }
}

fn flow(source: u32, destination: u32) -> Flow {
    Flow::new(NodeId::new(source), NodeId::new(destination))
}

const CHAIN: [(u32, u32); 2] = [(0, 1), (1, 2)];

/// Three packets down the chain 0 → 1 → 2 a millisecond apart, after
/// the hellos have measured the links; the carrier loses the frame that
/// carries the second across 0 → 1.
fn chain_losing_the_second_packet(deadline: Micros) -> Net {
    let mut net = Net::new(3, &CHAIN, |_| {});
    let flow = flow(0, 2);
    net.cores[2].receivers.insert(flow);
    let session = net.open(flow, SchemeKind::StaticSinglePath, SlaClass::Timely, deadline);
    net.run_for(ms(300));
    let mut seen = 0;
    net.lose = Box::new(move |(from, to, datagram)| {
        let data = from.index() == 0 && to.index() == 1 && wire::is_data_frame(datagram);
        seen += usize::from(data);
        data && seen == 2
    });
    for _ in 0..3 {
        net.send(0, session, b"scalpel");
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
    let got: Vec<(u64, bool)> =
        net.delivered.iter().map(|(_, d)| (d.flow_seq, d.on_time)).collect();
    assert_eq!(got, [(0, true), (2, true), (1, true)], "all three, the recovered one last");
    assert!(net.delivered.iter().all(|(at, _)| at.index() == 2));
    let (source, relay) = (net.counters(0), net.counters(1));
    assert_eq!(relay.nack_messages_sent, 1);
    assert_eq!(relay.retransmit_requests_issued, 1);
    assert_eq!(relay.nack_rerequests, 0);
    assert_eq!(source.retransmit_requests_received, 1);
    assert_eq!(source.retransmissions_served, 1);
    assert_eq!(source.retransmits_suppressed + source.retransmit_misses, 0);
    // Originals plus the retransmission at the source, originals alone
    // at the relay: the flow's cost as the simulator counts it.
    assert_eq!(net.transmissions(0, flow(0, 2)), 4);
    assert_eq!(net.transmissions(1, flow(0, 2)), 3);
    assert_eq!(net.data_frames(0, 1), 4);
}

/// (b) The same loss under a 25 ms deadline: the NACK reaches the source
/// 21 ms after the packet was sent and the copy would need half the
/// 20 ms round trip more, so it is suppressed, not sent.
#[test]
fn a_retransmission_that_cannot_make_the_deadline_is_suppressed() {
    let net = chain_losing_the_second_packet(ms(25));
    let seqs: Vec<u64> = net.delivered.iter().map(|(_, d)| d.flow_seq).collect();
    assert_eq!(seqs, [0, 2]);
    let source = net.counters(0);
    assert_eq!(source.retransmit_requests_received, 1);
    assert_eq!(source.retransmits_suppressed, 1);
    assert_eq!(source.retransmissions_served, 0);
    assert_eq!(net.data_frames(0, 1), 3, "the three originals and nothing after the NACK");
    assert_eq!(net.transmissions(0, flow(0, 2)), 3);
}

/// (c) Flooding 0 → 4 over the diamond 0 → {1, 2} → 3 → 4: node 3 is
/// offered every packet over two in-edges (and a third time when node 4
/// floods it back), accepts it once, forwards it to node 4 once, and
/// node 4 delivers it once.
#[test]
fn a_packet_over_two_in_edges_delivers_once_and_forwards_once() {
    let mut net = Net::new(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], |_| {});
    let flow = flow(0, 4);
    net.cores[4].receivers.insert(flow);
    let session = net.open(flow, SchemeKind::TimeConstrainedFlooding, SlaClass::Timely, ms(65));
    for _ in 0..4 {
        net.send(0, session, b"once");
        net.run_for(ms(2));
    }
    net.run_for(ms(100));
    let seqs: Vec<u64> = net.delivered.iter().map(|(_, d)| d.flow_seq).collect();
    assert_eq!(seqs, [0, 1, 2, 3], "each packet once, in order");
    assert!(net.delivered.iter().all(|(at, d)| at.index() == 4 && d.on_time));
    let join = net.counters(3);
    assert!(join.data_received >= 8, "both in-edges offered every packet: {join:?}");
    assert_eq!(join.data_received - join.duplicates, 4, "and each was accepted once");
    assert_eq!(net.data_frames(3, 4), 4, "one forward a packet");
    assert_eq!(net.counters(4).delivered_on_time, 4);
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
    let mut net = Net::new(3, &[(0, 1), (1, 2), (0, 2)], |_| {});
    let session = net.open(flow(0, 2), SchemeKind::DynamicSinglePath, SlaClass::Timely, ms(65));
    let direct = net.graph.edge_between(NodeId::new(0), NodeId::new(2)).expect("linked");
    let at = |node: usize, net: &Net, wanted: fn(&EventKind) -> bool| -> Vec<Micros> {
        let events = net.cores[node].snapshot().events;
        events.iter().filter(|e| wanted(&e.kind)).map(|e| e.at.saturating_sub(T0)).collect()
    };
    net.run_until(T0.saturating_add(ms(505)));
    assert!(net.cores[0].slot(session).graph().contains(direct), "the direct edge is shortest");
    net.lose = Box::new(|(from, to, _)| from.index() == 0 && to.index() == 2);

    net.run_until(T0.saturating_add(ms(810)));
    assert_eq!(at(2, &net, |k| matches!(k, EventKind::LinkDown { .. })), [ms(800)]);
    assert_eq!(net.counters(2).links_declared_down, 1);
    assert!(net.cores[0].linkstate.network_state(net.now).condition(direct).loss_rate >= 1.0);

    net.run_until(T0.saturating_add(ms(1_000)));
    assert_eq!(at(0, &net, |k| matches!(k, EventKind::RouteChange { .. })), [ms(1_000)]);
    assert!(!net.cores[0].slot(session).graph().contains(direct), "the session left the edge");
}

/// (e) The class shed bands over a 128-frame bound: bulk is admitted
/// below 64 parked, timely below 96, surgical below 128.
#[test]
fn backlog_sheds_bulk_then_timely_and_surgical_last() {
    let mut net = Net::new(3, &CHAIN, |config| config.shipper_queue = 128);
    let classes = [SlaClass::Bulk, SlaClass::Timely, SlaClass::Surgical];
    let sessions =
        classes.map(|class| net.open(flow(0, 2), SchemeKind::StaticSinglePath, class, ms(65)));
    // Frames emitted per class at each backlog.
    let mut emitted = |backlog: u64| {
        sessions.map(|session| {
            let mut out = Actions::default();
            net.cores[0].send(T0, session, &[b"x"], backlog, &mut out);
            out.frames.len()
        })
    };
    assert_eq!(emitted(63), [1, 1, 1]);
    assert_eq!(emitted(64), [0, 1, 1]);
    assert_eq!(emitted(95), [0, 1, 1]);
    assert_eq!(emitted(96), [0, 0, 1]);
    assert_eq!(emitted(127), [0, 0, 1]);
    let counters = net.counters(0);
    assert_eq!((counters.shed_bulk, counters.shed_timely, counters.shed_surgical), (4, 2, 0));
    assert_eq!(counters.shipper_drops, 6);
    // A shed packet takes no link sequence: nothing for the neighbour to
    // NACK.
    assert_eq!(counters.data_sent, 9);
}

/// (f) The same inputs twice: byte-identical frames in the same order,
/// equal deliveries, and every core's whole snapshot — counters, flows,
/// links, journal, link-state digest, graph-cache counters — equal.
#[test]
fn replay_is_deterministic() {
    let (one, two) =
        (chain_losing_the_second_packet(ms(65)), chain_losing_the_second_packet(ms(65)));
    assert!(one.sent.len() > 100, "hellos, link state, data, a NACK: {}", one.sent.len());
    assert_eq!(one.sent, two.sent);
    assert_eq!(one.delivered, two.delivered);
    let snapshots = |net: &Net| net.cores.iter().map(NodeCore::snapshot).collect::<Vec<_>>();
    let (one, two) = (snapshots(&one), snapshots(&two));
    assert_eq!(one, two);
    assert!(one.iter().all(|s| !s.flows.is_empty() && !s.link_state.is_empty()));
    assert!(one[..2].iter().all(|s| !s.events.is_empty()), "the NACK and its service");
}

/// `poll_timers` returns the earliest of the three cadences, and a
/// fresh node's hello is due at its birth.
#[test]
fn poll_timers_returns_the_next_protocol_deadline() {
    let mut net = Net::new(3, &CHAIN, |_| {});
    let (core, out) = (&mut net.cores[1], &mut Actions::default());
    assert_eq!(core.poll_timers(T0, 0, out), T0.saturating_add(ms(50)), "hello is earliest");
    assert_eq!(out.frames.len(), 2, "a hello to each neighbour, nothing else yet");
    assert_eq!(core.poll_timers(T0.saturating_add(ms(49)), 0, out), T0.saturating_add(ms(50)));
    assert_eq!(out.frames.len(), 2, "nothing is due a millisecond early");
    // A late pass reschedules from when it ran, not from when it was due.
    assert_eq!(core.poll_timers(T0.saturating_add(ms(180)), 0, out), T0.saturating_add(ms(200)));
    assert_eq!(core.poll_timers(T0.saturating_add(ms(200)), 0, out), T0.saturating_add(ms(230)));
    assert_eq!(net.counters(1).link_state_originated, 1, "the 200 ms link-state cadence fired");
    assert_eq!(net.counters(1).digests_sent, 0, "the 1 s digest cadence has not");
}

/// A closed session gives its admission slot back and is no longer
/// refreshed; a closed receiver's group flow is no longer counted as
/// delivered here.
#[test]
fn closed_sessions_leave_the_core() {
    let mut net = Net::new(3, &CHAIN, |config| config.sender_capacity = 2);
    let open = |net: &mut Net| {
        let scheme = build_scheme(
            SchemeKind::StaticSinglePath,
            &net.graph,
            flow(0, 2),
            ServiceRequirement::default(),
            &SchemeParams::default(),
        )
        .expect("routable");
        net.cores[0].open_session(Route::Scheme(scheme), flow(0, 2), SlaClass::Timely, ms(65))
    };
    let lookups = |net: &Net| {
        let live = net.cores[0].graph_cache.stats().live;
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
    net.cores[0].close_session(first);
    let before = lookups(&net);
    net.run_until(T0.saturating_add(ms(400)));
    assert_eq!(lookups(&net) - before, 1, "and one fewer once a session has closed");
    assert!(open(&mut net).is_ok(), "the slot is free again");
}

/// A group flow delivers wherever a receiving session is open for it,
/// and stops — counters too — once that session has closed.
#[test]
fn a_closed_receiver_is_no_longer_delivered_to() {
    let mut net = Net::new(3, &CHAIN, |_| {});
    let requirement = ServiceRequirement::default();
    let (group, sink) = (Flow::group(NodeId::new(0), 7), NodeId::new(2));
    let kind = dg_core::MulticastKind::Tree;
    let graph = net.cores[0].graph_cache.multicast(group.source, &[sink], kind, requirement);
    let route = Route::Group { graph: graph.expect("node 2 is reachable"), kind, requirement };
    let session = net.cores[0]
        .open_session(route, group, SlaClass::Timely, requirement.deadline)
        .expect("within capacity");
    net.cores[2].receivers.insert(group);
    net.send(0, session, b"heard");
    net.run_for(ms(30));
    net.cores[2].receivers.remove(&group);
    net.send(0, session, b"unheard");
    net.run_for(ms(30));
    let seqs: Vec<u64> = net.delivered.iter().map(|(_, d)| d.flow_seq).collect();
    assert_eq!(seqs, [0]);
    let sink = net.counters(2);
    assert_eq!((sink.data_received, sink.delivered_on_time), (2, 1));
}
