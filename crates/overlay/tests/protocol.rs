//! End-to-end protocol behaviour of whole overlays, on the virtual clock.
//!
//! These step real multi-node overlays (`simnet::Net`: a real core,
//! carrier and seeded fault plan per site, emulated link latency; no
//! socket, thread or sleep) and verify the behaviours the paper depends
//! on: timely delivery, hop-by-hop recovery, disjoint-path survival,
//! link-state convergence, and targeted-redundancy switching — with the
//! bounds read off the virtual clock, not off a host's scheduler. What
//! needs an operating system (sockets, threads, `Drop`) is `cluster.rs`.

use dg_core::scheme::SchemeKind;
use dg_core::{Flow, MulticastKind, ServiceRequirement, SlaClass};
use dg_overlay::cluster::ClusterConfig;
use dg_overlay::fault::{BurstLoss, LinkFault};
use dg_overlay::metrics::EventKind;
use dg_overlay::session::{Delivery, DeliveryStats};
use dg_overlay::simnet::{env_seed, Net, SimSender, T0};
use dg_overlay::wire::Message;
use dg_topology::{presets, Graph, GraphBuilder, Micros, NodeId};
use std::time::Duration;

fn ms(n: u64) -> Micros {
    Micros::from_millis(n)
}

fn cadences(hello_ms: u64, link_state_ms: u64) -> ClusterConfig {
    ClusterConfig {
        hello_interval: Duration::from_millis(hello_ms),
        link_state_interval: Duration::from_millis(link_state_ms),
        fault_seed: env_seed(),
        ..ClusterConfig::default()
    }
}

/// The 12-site US overlay, converged.
fn na_net() -> Net {
    let mut net = Net::launch(&presets::north_america_12(), cadences(20, 80)).expect("launches");
    net.run_for(ms(1_000));
    assert!(net.link_state_converged(), "link state flooding never converged");
    net
}

fn by_name(graph: &Graph, name: &str) -> NodeId {
    graph.node_by_name(name).unwrap()
}

fn nyc_sjc(net: &Net) -> Flow {
    Flow::new(by_name(net.graph(), "NYC"), by_name(net.graph(), "SJC"))
}

/// Opens both ends of `flow` on a scheme of `kind`.
fn open(net: &mut Net, flow: Flow, kind: SchemeKind, requirement: ServiceRequirement) -> SimSender {
    net.open_receiver(flow);
    net.open_sender(flow, kind, requirement).expect("sender opens")
}

/// Sends `count` small packets `gap` apart, lets `settle` pass, and
/// takes what the flow delivered.
fn stream(net: &mut Net, tx: SimSender, count: u64, gap: Micros, settle: Micros) -> Vec<Delivery> {
    for i in 0..count {
        net.send(tx, format!("m{i}").as_bytes());
        net.run_for(gap);
    }
    net.run_for(settle);
    net.take_deliveries(tx.flow())
}

/// The first edge the session's graph leaves the source on.
fn first_hop(net: &Net, tx: SimSender) -> dg_topology::EdgeId {
    let graph = net.current_graph(tx);
    let hop = graph.forwarding_edges(net.graph(), tx.flow().source).next();
    hop.expect("the graph leaves its source")
}

#[test]
fn clean_network_delivers_on_time() {
    let mut net = na_net();
    let flow = nyc_sjc(&net);
    let tx = open(&mut net, flow, SchemeKind::StaticSinglePath, ServiceRequirement::default());
    let path = net.current_graph(tx);
    let one_way = path
        .edges()
        .iter()
        .fold(Micros::ZERO, |sum, &e| sum.saturating_add(net.graph().edge(e).latency));
    // Cross-country one-way sits in the tens of milliseconds.
    assert!(ms(20) < one_way && one_way < ms(65), "path latency {one_way}");
    let got = stream(&mut net, tx, 20, ms(5), ms(500));
    assert_eq!(got.len(), 20, "all packets delivered");
    for d in &got {
        assert!(d.on_time, "seq {} late: {}", d.flow_seq, d.latency());
        assert_eq!(d.latency(), one_way, "a packet takes its path's latency and nothing more");
    }
    assert_eq!(got[0].payload.as_ref(), b"m0");
}

#[test]
fn recovery_rescues_moderate_loss() {
    let mut net = na_net();
    let flow = nyc_sjc(&net);
    let tx = open(&mut net, flow, SchemeKind::StaticSinglePath, ServiceRequirement::default());
    // 30% loss on the path's first hop.
    let lossy = first_hop(&net, tx);
    net.set_link_fault(lossy, 0.3, Micros::ZERO);
    let total = 150u64;
    let got = stream(&mut net, tx, total, ms(4), ms(300));
    // Without recovery ~30% would vanish; with one retransmission the
    // expected residual loss is ~9%.
    assert!(got.len() as u64 >= total * 80 / 100, "only {}/{total} delivered", got.len());
    let nyc = net.snapshot(flow.source).counters;
    assert!(nyc.retransmissions_served > 0, "recovery never fired");
    let next = net.graph().edge(lossy).dst;
    let chi_like = net.snapshot(next).counters;
    assert!(chi_like.nack_messages_sent > 0, "receiver never detected gaps");
    // The retransmission bit is set on what NYC served those NACKs with
    // (less what the lossy hop ate again) and nowhere else: a relay
    // forwards a recovered packet as any other.
    let marked = net.wire().iter().filter(|f| f.data().first().is_some_and(|p| p.retransmission));
    let marked: Vec<_> = marked.collect();
    assert!(!marked.is_empty() && marked.len() as u64 <= nyc.retransmissions_served);
    assert!(marked.iter().all(|f| (f.from, f.to) == (flow.source, next) && f.data().len() == 1));
}

#[test]
fn disjoint_pair_survives_a_dead_path() {
    let mut net = na_net();
    let flow = nyc_sjc(&net);
    let tx = open(&mut net, flow, SchemeKind::StaticTwoDisjoint, ServiceRequirement::default());
    // Kill the primary path's first hop completely.
    let dead = first_hop(&net, tx);
    net.set_link_fault(dead, 1.0, Micros::ZERO);
    let got = stream(&mut net, tx, 30, ms(5), ms(300));
    assert_eq!(got.len(), 30, "the second disjoint path must deliver everything");
    assert!(got.iter().all(|d| d.on_time));
}

/// `graph` launched at the default cadences, and how long after launch
/// every node held every origin's report.
fn converged_at_default_cadences(graph: &Graph) -> (Net, Option<Micros>) {
    let config = ClusterConfig { fault_seed: env_seed(), ..ClusterConfig::default() };
    let mut net = Net::launch(graph, config).expect("launches");
    let took = net.wait_until(ms(1_000), |net| net.link_state_converged());
    (net, took)
}

/// A node reports its links once every in-link has delivered a hello,
/// not at its first 200 ms refresh: the overlay holds every report about
/// one flood across its diameter after the slowest first hello (US-12:
/// 49 ms, was 230).
#[test]
fn link_state_converges_on_first_contact_not_at_the_refresh() {
    let us = converged_at_default_cadences(&presets::north_america_12()).1;
    let us = us.expect("US-12 converges");
    assert!(us <= ms(80), "US-12 converged {us} after launch");
    // Six sites 5 ms apart: 5 ms to the first hellos, three hops across.
    let ring = converged_at_default_cadences(&presets::ring(6, ms(5))).1;
    let ring = ring.expect("the ring converges");
    assert!(ring <= ms(40), "the 6-ring converged {ring} after launch");
}

#[test]
fn link_state_converges_and_reports_loss() {
    let mut net = na_net();
    // Inject heavy loss on one edge and wait for a remote node to see it.
    let graph = net.graph().clone();
    let edge = graph.edge_between(by_name(&graph, "CHI"), by_name(&graph, "DEN")).unwrap();
    net.set_link_fault(edge, 0.8, Micros::ZERO);
    let observer = by_name(&graph, "MIA");
    let learned = net
        .wait_until(ms(6_000), |net| net.network_state(observer).condition(edge).loss_rate > 0.3);
    assert!(learned.is_some(), "MIA never learned about the CHI->DEN problem");
}

/// The source's `RouteChange`s for `flow` stamped at or after `since`,
/// as `(when, edges of the new graph)`.
fn route_changes(net: &Net, flow: Flow, since: Micros) -> Vec<(Micros, u64)> {
    let events = net.snapshot(flow.source).events;
    let changes = events.iter().filter_map(|e| match e.kind {
        EventKind::RouteChange { flow: f, edges, .. } if f == flow && e.at >= since => {
            Some((e.at, edges))
        }
        _ => None,
    });
    changes.collect()
}

/// Sends one small packet every 3 ms until `done` says to stop (asked
/// after every send) or `limit` packets have gone.
fn send_until(net: &mut Net, tx: SimSender, limit: u64, mut done: impl FnMut(&Net) -> bool) {
    for i in 0..limit {
        net.send(tx, format!("m{i}").as_bytes());
        net.run_for(ms(3));
        if done(net) {
            return;
        }
    }
}

/// The paper's premise on the real node code: the precomputed problem
/// graph engages when the problem is seen and is in force while it
/// lasts and no longer. The bounds are read off the source's journal on
/// the clock the impairment was stamped with.
#[test]
fn targeted_redundancy_escalates_and_releases() {
    let mut net = na_net();
    let flow = nyc_sjc(&net);
    let graph = net.graph().clone();
    let tx = open(&mut net, flow, SchemeKind::TargetedRedundancy, ServiceRequirement::default());
    let out_degree =
        |net: &Net| net.current_graph(tx).forwarding_edges(&graph, flow.source).count();
    assert_eq!(out_degree(&net), 2, "starts on the disjoint pair");

    // Half a second of traffic gives every link of the pair a history.
    send_until(&mut net, tx, 170, |_| false);

    // A problem around the source: 40% loss on every NYC link, while
    // the flow keeps sending.
    let impaired_at = net.now();
    net.impair_node(flow.source, 0.4, Micros::ZERO);
    let full_degree = graph.out_edges(flow.source).len();
    send_until(&mut net, tx, 330, |net| out_degree(net) == full_degree);
    assert_eq!(out_degree(&net), full_degree, "never escalated to the source-problem graph");
    let escalations = route_changes(&net, flow, impaired_at);
    let &(escalated_at, _) = escalations.first().expect("the escalation is journalled");
    assert!(
        escalated_at.saturating_sub(impaired_at) <= ms(250),
        "escalated {} after the impairment",
        escalated_at.saturating_sub(impaired_at)
    );

    // The problem graph masks the problem: of 400 packets sent into a
    // 40% loss around the source, (nearly) all arrive.
    net.take_deliveries(flow);
    send_until(&mut net, tx, 400, |_| false);
    net.run_for(ms(300));
    let got = net.take_deliveries(flow).len();
    assert!(got >= 392, "source-problem graph should mask a 40% source-area loss, got {got}/400");
    assert_eq!(out_degree(&net), full_degree, "released while the problem lasted");
    let escalated_edges = net.current_graph(tx).len() as u64;

    // Heal, keep sending, and the source's extra branches are gone
    // within the clear's span.
    let healed_at = net.now();
    net.heal_node(flow.source);
    send_until(&mut net, tx, 660, |net| out_degree(net) == 2);
    assert_eq!(out_degree(&net), 2, "never de-escalated after healing");
    let released = route_changes(&net, flow, healed_at);
    let &(released_at, _) = released
        .iter()
        .find(|&&(_, edges)| edges < escalated_edges)
        .expect("the release is journalled");
    assert!(
        released_at.saturating_sub(healed_at) <= ms(600),
        "released {} after the heal",
        released_at.saturating_sub(healed_at)
    );
}

/// A link holds a frame only while one of its packets can make its
/// deadline, and at most one hello interval longer, until the tick's
/// release pass. At 1 packet/ms under targeted redundancy, through a
/// loss phase around the source, no link holds more than
/// (65 + 50) ms × 1/ms + 1 frames at any hello tick — where the window
/// alone would let it hold 2 048 — and none once the flow falls silent.
/// Recovery is unchanged: a NACK inside the budget is served, and one
/// for a frame already let go is suppressed, as it was while such a
/// frame was held, not missed.
#[test]
fn a_link_holds_only_the_frames_that_can_still_make_their_deadline() {
    let config = ClusterConfig { fault_seed: env_seed(), ..ClusterConfig::default() };
    let hello = Micros::from_micros(config.hello_interval.as_micros() as u64);
    let mut net = Net::launch(&presets::north_america_12(), config).expect("launches");
    net.run_for(ms(1_000));
    assert!(net.link_state_converged(), "link state flooding never converged");
    let flow = nyc_sjc(&net);
    let requirement = ServiceRequirement::default();
    let tx = open(&mut net, flow, SchemeKind::TargetedRedundancy, requirement);
    let bound = (requirement.deadline.as_micros() + hello.as_micros()) / 1_000 + 1;
    assert_eq!(bound, 116);
    let sites: Vec<NodeId> = net.graph().nodes().collect();
    let payload = [0u8; 256];
    let mut peak = 0;
    for i in 0..3_000 {
        match i {
            1_000 => net.impair_node(flow.source, 0.3, Micros::ZERO),
            2_000 => net.heal_node(flow.source),
            _ => {}
        }
        net.send(tx, &payload);
        net.run_for(ms(1));
        if !(net.now().as_micros() - T0.as_micros()).is_multiple_of(hello.as_micros()) {
            continue;
        }
        for &site in &sites {
            for link in net.snapshot(site).links {
                let held = link.held_frames;
                assert!(held <= bound, "{site} → {} holds {held} frames", link.neighbor);
                assert!(link.held_bytes >= held * payload.len() as u64);
                peak = peak.max(held);
            }
        }
    }
    // Right after a tick's pass, a link of the source holds the 65 ms
    // budget's frames and the one just sent.
    assert!(peak >= 60, "a link holds the frames inside the budget: {peak} at the most");
    assert!(net.take_deliveries(flow).len() >= 2_950, "the flow is delivered");
    let counters = |net: &Net, site: NodeId| net.snapshot(site).counters;
    assert!(counters(&net, flow.source).retransmissions_served > 0, "NACKs inside the budget");
    for &site in &sites {
        assert_eq!(counters(&net, site).retransmit_misses, 0, "{site} missed a retransmission");
    }

    // By hand: a NACK for the frame the source sent last is served; one
    // for a frame it sent half a second ago — long released, well inside
    // the window — is suppressed, once, and only a second NACK for it
    // reads as a miss.
    let sent: Vec<(Micros, NodeId, u64)> = net
        .wire()
        .iter()
        .filter(|f| f.from == flow.source)
        .flat_map(|f| f.data().into_iter().map(move |p| (f.at, f.to, p.link_seq)))
        .collect();
    let &(_, neighbor, fresh) = sent.last().expect("the source sent data");
    let stale = sent
        .iter()
        .rev()
        .find(|&&(at, to, _)| to == neighbor && at <= net.now().saturating_sub(ms(500)))
        .map(|&(.., seq)| seq)
        .expect("a frame half a second old");
    let nack = |net: &mut Net, seq| {
        net.inject(neighbor, flow.source, Message::Nack { missing: vec![seq] })
    };
    let before = counters(&net, flow.source);
    nack(&mut net, fresh);
    nack(&mut net, stale);
    let after = counters(&net, flow.source);
    assert_eq!(after.retransmissions_served, before.retransmissions_served + 1);
    assert_eq!(after.retransmits_suppressed, before.retransmits_suppressed + 1);
    assert_eq!(after.retransmit_misses, 0);
    let missed = |net: &Net| {
        let events = net.snapshot(flow.source).events;
        events.iter().filter(|e| matches!(e.kind, EventKind::RecoveryMissed { .. })).count()
    };
    assert_eq!(missed(&net), 0, "a released frame journals no RecoveryMissed");
    nack(&mut net, stale);
    assert_eq!(counters(&net, flow.source).retransmit_misses, 1, "answered once");
    assert_eq!(missed(&net), 1);

    net.run_for(ms(200));
    for &site in &sites {
        let held: u64 = net.snapshot(site).links.iter().map(|l| l.held_frames).sum();
        assert_eq!(held, 0, "{site} holds frames past their deadline");
    }
}

/// The benchmarks' Gilbert–Elliott background (`dg-perf`'s
/// `path_loss`): a burst every thousand datagrams or so, losing half of
/// the five it lasts, layered on a uniform `loss`.
fn background(loss: f64) -> LinkFault {
    let burst = BurstLoss { p_enter: 0.001, p_exit: 0.2, good_loss: 0.0, bad_loss: 0.5 };
    LinkFault { loss, burst: Some(burst), ..LinkFault::default() }
}

/// What a link's detector did, as journalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Move {
    Triggered,
    Cleared,
    /// The flap damper withheld a transition.
    Suppressed,
}

/// One detector event: when, at which node, on the link from which
/// neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Transition {
    at: Micros,
    node: NodeId,
    neighbor: NodeId,
    moved: Move,
}

/// Every site's detector events journalled after `seen[site]`, which
/// moves past them. Read often enough that the journal's ring cannot
/// have dropped one.
fn transitions(net: &Net, seen: &mut [u64]) -> Vec<Transition> {
    let mut out = Vec::new();
    for node in net.graph().nodes() {
        for e in net.snapshot(node).events {
            if e.seq < seen[node.index()] {
                continue;
            }
            seen[node.index()] = e.seq + 1;
            let (neighbor, moved) = match e.kind {
                EventKind::DetectorTriggered { neighbor, .. } => (neighbor, Move::Triggered),
                EventKind::DetectorCleared { neighbor, .. } => (neighbor, Move::Cleared),
                EventKind::FlapSuppressed { neighbor, .. } => (neighbor, Move::Suppressed),
                _ => continue,
            };
            out.push(Transition { at: e.at, node, neighbor, moved });
        }
    }
    out.sort();
    out
}

/// The detector's budget on `path_loss`'s schedule, on the virtual
/// clock: NYC→SJC under targeted redundancy at a packet a millisecond,
/// the benchmarks' bursty background on every link, and 50 % loss
/// around NYC for a second, then healed — five times, injected 0, 10,
/// 20, 30 and 40 ms into a hello tick. A busy link's detector judges
/// each gap as the frame exposing it lands, over the closed ticks and
/// the open one, so it triggers once the loss has put twenty losses
/// into its wide span, wherever the tick falls; and it clears once its
/// last two ticks are clean. Judged on ticks alone, with a four-tick
/// clear, the same runs read a median 70 ms in and 230 ms out on every
/// seed from 1 to 30. Thirty seconds of background alone move no
/// detector on the links the flow's data crosses, each of the pair's
/// links triggers once while the loss lasts and clears once after it,
/// with nothing withheld by the flap damper, and no link out of NYC
/// triggers again after the heal — also once the problem graph's extra
/// branches fall quiet.
///
/// (Known gap: the short span holds a hundred samples, and a
/// background burst that loses five of them in the two ticks after a
/// clear, while the longer spans still hold the loss, re-triggers the
/// link. Seeds 4 and 20 of 1–30 do that and fail here; ROADMAP item 14
/// has it.)
///
/// (Links carrying hellos only are judged on twenty hellos, as before:
/// a background burst that takes two of them reads 10 % and trips them,
/// every second or so somewhere on US-12, by either rule.)
#[test]
fn a_busy_link_triggers_on_the_frame_and_clears_on_its_last_two_ticks() {
    let config = ClusterConfig { fault_seed: env_seed(), ..ClusterConfig::default() };
    let hello = Micros::from_micros(config.hello_interval.as_micros() as u64);
    let mut net = Net::launch(&presets::north_america_12(), config).expect("launches");
    net.run_for(ms(1_000));
    assert!(net.link_state_converged(), "link state flooding never converged");
    let graph = net.graph().clone();
    let flow = nyc_sjc(&net);
    let tx = open(&mut net, flow, SchemeKind::TargetedRedundancy, ServiceRequirement::default());
    // A link as its detector knows it: (the node reading it, the
    // neighbour it comes from).
    let ends = |e: dg_topology::EdgeId| (graph.edge(e).dst, graph.edge(e).src);
    let normal = net.current_graph(tx);
    let busy: Vec<_> = normal.edges().iter().map(|&e| ends(e)).collect();
    // What a source problem is judged on: the pair's links out of NYC.
    let pair: Vec<_> = normal.forwarding_edges(&graph, flow.source).map(ends).collect();
    assert_eq!(pair.len(), 2, "starts on the disjoint pair");
    let out_of_source: Vec<_> = graph.out_edges(flow.source).iter().map(|&e| ends(e)).collect();
    let around: Vec<_> =
        graph.out_edges(flow.source).iter().chain(graph.in_edges(flow.source)).copied().collect();
    for edge in graph.edges() {
        net.set_link_impairment(edge, background(0.0));
    }
    let mut seen = vec![0; graph.node_count()];
    let payload = [0u8; 64];
    // A packet a millisecond for `millis`; the journals are read every
    // hello interval.
    let run = |net: &mut Net, millis: u64, seen: &mut Vec<u64>| {
        let mut got = Vec::new();
        for i in 1..=millis {
            net.send(tx, &payload);
            net.run_for(ms(1));
            if i % (hello.as_micros() / 1_000) == 0 || i == millis {
                got.extend(transitions(net, seen));
            }
        }
        got
    };
    let on = |links: &[(NodeId, NodeId)], t: &Transition| links.contains(&(t.node, t.neighbor));

    let quiet = run(&mut net, 30_000, &mut seen);
    let (on_busy, elsewhere): (Vec<&Transition>, Vec<_>) = quiet.iter().partition(|t| on(&busy, t));
    assert!(on_busy.is_empty(), "the background moved a busy link's detector: {on_busy:?}");
    let idle_triggers = elsewhere.iter().filter(|t| t.moved == Move::Triggered).count();
    println!("30 s of background: {idle_triggers} triggers on links carrying hellos only");

    let (mut engaged, mut released, mut triggers) = (Vec::new(), Vec::new(), Vec::new());
    for phase in 0..5 {
        let into_tick = ms(10 * phase).as_micros();
        while (net.now().as_micros() - T0.as_micros()) % hello.as_micros() != into_tick {
            net.send(tx, &payload);
            net.run_for(ms(1));
        }
        transitions(&net, &mut seen);
        let injected = net.now();
        for &edge in &around {
            net.set_link_impairment(edge, background(0.5));
        }
        let during: Vec<_> = run(&mut net, 1_000, &mut seen);
        let during: Vec<_> = during.into_iter().filter(|t| on(&pair, t)).collect();
        assert_eq!(during.len(), 2, "each of the pair's links triggers, and only: {during:?}");
        assert!(during.iter().all(|t| t.moved == Move::Triggered), "{during:?}");
        engaged.push(during[0].at.saturating_sub(injected));
        triggers.extend(during.iter().map(|t| t.at));

        let healed = net.now();
        for &edge in &around {
            net.set_link_impairment(edge, background(0.0));
        }
        // Every link out of NYC carried the problem graph's data and
        // falls quiet once it is released: none may re-trigger.
        let after: Vec<_> =
            run(&mut net, 1_000, &mut seen).into_iter().filter(|t| on(&out_of_source, t)).collect();
        assert!(after.iter().all(|t| t.moved == Move::Cleared), "after the heal: {after:?}");
        let after: Vec<_> = after.into_iter().filter(|t| on(&pair, t)).collect();
        assert_eq!(after.len(), 2, "each of the pair's links clears, and once: {after:?}");
        released.push(after[1].at.saturating_sub(healed));
    }
    println!("injection → first DetectorTriggered on the pair: {engaged:?}");
    println!("heal → last DetectorCleared on the pair: {released:?}");
    let on_a_tick = |t: &Micros| (t.as_micros() - T0.as_micros()).is_multiple_of(hello.as_micros());
    assert!(triggers.iter().any(|t| !on_a_tick(t)), "no trigger between ticks: {triggers:?}");
    // Medians of the five phases. The tick rule reads 70 and 230 ms on
    // every seed from 1 to 30; this one 40–54 and 130 ms.
    let median = |v: &mut Vec<Micros>| {
        v.sort();
        v[v.len() / 2]
    };
    let (engage, release) = (median(&mut engaged), median(&mut released));
    assert!(engage <= ms(60), "triggered a median {engage} after the injection");
    assert!(release <= ms(160), "cleared a median {release} after the heal");
}

/// A restarted node numbers its hellos and its links from zero again.
/// Its neighbours must take that for what it is — not prune the new
/// hellos as ancient and file the new data as retransmissions for as
/// long as the node had been up before.
#[test]
fn restarted_neighbour_is_tracked_from_its_first_packet() {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = ["A", "B", "C"].iter().map(|n| b.add_node(n)).collect();
    for pair in ids.windows(2) {
        b.add_link(pair[0], pair[1], ms(2), 1).unwrap();
    }
    let graph = b.build();
    let (relay, sink) = (ids[1], ids[2]);
    let flow = Flow::new(ids[0], sink);
    let mut net = Net::launch(&graph, cadences(20, 80)).unwrap();
    net.run_for(ms(500));
    assert!(net.link_state_converged());
    let tx = open(&mut net, flow, SchemeKind::StaticSinglePath, ServiceRequirement::new(ms(500)));

    // The relay's first life: long enough that its link sequence toward
    // the sink is past anything a retransmit buffer (2048) could hold,
    // and its hello sequence past the sink's window (20).
    let payload = [0u8; 32];
    let batch: Vec<&[u8]> = vec![&payload; 32];
    for _ in 0..100 {
        net.send_batch(tx, &batch);
        net.run_for(ms(8));
    }
    net.run_for(ms(100));
    assert_eq!(net.take_deliveries(flow).len(), 3_200, "the first life forwards");

    net.kill_node(relay);
    net.restart_node(relay);
    net.run_for(ms(500));
    assert!(net.link_state_converged(), "the relay rejoins");
    let before = net.snapshot(sink).counters;

    // Its second life's link to the sink loses 30%.
    let impaired_at = net.now();
    net.set_link_fault(graph.edge_between(relay, sink).unwrap(), 0.3, Micros::ZERO);
    send_until(&mut net, tx, 600, |_| false);
    net.run_for(ms(200));
    let sink_snapshot = net.snapshot(sink);

    let nacked =
        sink_snapshot.counters.retransmit_requests_issued - before.retransmit_requests_issued;
    assert!(nacked >= 100, "the sink NACKed {nacked} of some 180 losses from the restarted relay");
    let triggered = sink_snapshot.events.iter().find(|e| {
        e.at >= impaired_at
            && matches!(e.kind, EventKind::DetectorTriggered { neighbor, .. } if neighbor == relay)
    });
    let triggered = triggered.expect("the sink's detector never saw the restarted relay's loss");
    assert!(
        triggered.at.saturating_sub(impaired_at) <= ms(500),
        "the detector took {} to see a 30% loss",
        triggered.at.saturating_sub(impaired_at)
    );
    let delivered = net.take_deliveries(flow).len();
    assert!(delivered >= 500, "recovery repairs most of a 30% loss, delivered {delivered}/600");
}

/// A killed node that comes back rejoins: its fresh, empty link-state
/// database holds every origin's report again within a refresh interval
/// and a flood (109 ms on US-12: its neighbours still owe it the floods
/// it missed while down, and retransmit them).
#[test]
fn a_restarted_node_refills_its_link_state_database() {
    let graph = presets::north_america_12();
    let (mut net, converged) = converged_at_default_cadences(&graph);
    converged.expect("converges");
    let den = by_name(&graph, "DEN");
    net.kill_node(den);
    net.run_for(ms(400));
    net.restart_node(den);
    assert!(net.link_state_digest(den).is_empty(), "a fresh incarnation knows nothing");
    let refilled =
        net.wait_until(ms(1_000), |net| net.link_state_digest(den).len() == graph.node_count());
    let refilled = refilled.expect("the restarted node never refilled its database");
    assert!(refilled <= ms(250), "refilled {refilled} after the restart");
}

#[test]
fn expired_packets_are_not_delivered() {
    let mut net = na_net();
    let flow = nyc_sjc(&net);
    // A 5ms deadline cannot cross the country (~30ms).
    let tx = open(&mut net, flow, SchemeKind::StaticSinglePath, ServiceRequirement::new(ms(5)));
    assert!(stream(&mut net, tx, 10, ms(3), ms(500)).is_empty());
    // The first node along the path dropped them as expired.
    assert_eq!(net.metrics_report().totals.expired, 10);
}

#[test]
fn flooding_reaches_most_of_the_network() {
    let mut net = na_net();
    let flow = nyc_sjc(&net);
    let requirement = ServiceRequirement::default();
    let tx = open(&mut net, flow, SchemeKind::TimeConstrainedFlooding, requirement);
    let graph_size = net.current_graph(tx).len() as u64;
    assert!(graph_size > 20, "flooding graph should span the mesh");
    let got = stream(&mut net, tx, 10, ms(5), ms(500));
    assert_eq!(got.len(), 10);
    assert!(got.iter().all(|d| d.on_time));
    // Network-wide transmissions reflect flooding's cost; duplicates
    // were suppressed at joins.
    let totals = net.metrics_report().totals;
    assert!(totals.data_sent >= 10 * (graph_size / 2), "sent {}", totals.data_sent);
    assert!(totals.duplicates > 0, "flooding must produce suppressed duplicates");
}

#[test]
fn dynamic_routing_survives_a_node_death() {
    let mut net = na_net();
    let flow = nyc_sjc(&net);
    let graph = net.graph().clone();
    let tx = open(&mut net, flow, SchemeKind::DynamicTwoDisjoint, ServiceRequirement::default());

    // Find a transit node the current pair routes through and kill it.
    let transit = net
        .current_graph(tx)
        .edges()
        .iter()
        .map(|&e| graph.edge(e).dst)
        .find(|&n| n != flow.destination && n != flow.source);
    let victim = transit.expect("pair has a transit node");
    net.kill_node(victim);
    assert!(!net.is_alive(victim));

    // Hello silence pushes the dead node's links toward full loss; the
    // dynamic scheme must re-route around it.
    let avoids = |net: &mut Net| {
        let touches =
            |&e: &dg_topology::EdgeId| graph.edge(e).dst == victim || graph.edge(e).src == victim;
        !net.current_graph(tx).edges().iter().any(touches)
    };
    let rerouted = net.wait_until(ms(10_000), avoids);
    assert!(rerouted.is_some(), "never rerouted around the dead {}", graph.node(victim).name);

    // Traffic flows normally on the new pair.
    let got = stream(&mut net, tx, 30, ms(5), ms(300));
    assert!(got.len() >= 29, "only {}/30 delivered after reroute", got.len());
}

#[test]
fn reordering_from_unequal_delays_is_tolerated() {
    // A small ring where we give the two hops of the primary route very
    // different injected delays, so retransmissions and hellos arrive
    // interleaved and out of order relative to data.
    let graph = presets::ring(4, ms(5));
    let mut net = Net::launch(&graph, cadences(15, 60)).unwrap();
    let flow = Flow::new(by_name(&graph, "R0"), by_name(&graph, "R2"));
    let tx = open(&mut net, flow, SchemeKind::StaticTwoDisjoint, ServiceRequirement::new(ms(80)));
    // Wildly different delays + moderate loss on both directions of the
    // ring: packets race each other and recovery interleaves.
    for e in graph.edges() {
        net.set_link_fault(e, 0.15, ms(u64::from(e.index() as u32 % 7) * 3));
    }
    let total = 120u64;
    let got = stream(&mut net, tx, total, ms(3), ms(500));
    // Two disjoint paths at 15% loss each, with recovery: residual loss
    // per path ~2%, joint ~0.05% — essentially everything arrives.
    assert!(got.len() as u64 >= total * 95 / 100, "got {}/{total}", got.len());
    // No duplicate deliveries despite retransmissions and dual paths.
    let mut seqs: Vec<u64> = got.iter().map(|d| d.flow_seq).collect();
    let before = seqs.len();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), before, "duplicate deliveries leaked through");
}

#[test]
fn latency_scale_shrinks_observed_latency() {
    let graph = presets::north_america_12();
    let run_with_scale = |scale: f64| {
        let config = ClusterConfig { latency_scale: scale, ..ClusterConfig::default() };
        let mut net = Net::launch(&graph, config).unwrap();
        let flow = nyc_sjc(&net);
        let tx = open(&mut net, flow, SchemeKind::StaticSinglePath, ServiceRequirement::default());
        let got = stream(&mut net, tx, 10, ms(5), ms(300));
        assert_eq!(got.len(), 10);
        DeliveryStats::from_deliveries(&got).mean_latency()
    };
    let full = run_with_scale(1.0);
    let tenth = run_with_scale(0.1);
    assert!(full > ms(20), "full-scale latency {full}");
    // A tenth of the propagation delay, to each hop's rounding.
    assert!(tenth.as_micros().abs_diff(full.as_micros() / 10) <= 10, "scaled latency {tenth}");
}

#[test]
fn four_concurrent_flows_share_the_overlay() {
    let mut net = na_net();
    let graph = net.graph().clone();
    let pairs = [("NYC", "SJC"), ("WAS", "SEA"), ("BOS", "LAX"), ("JHU", "DEN")];
    let flows = pairs.map(|(s, t)| Flow::new(by_name(&graph, s), by_name(&graph, t)));
    let requirement = ServiceRequirement::default();
    let senders = flows.map(|f| open(&mut net, f, SchemeKind::TargetedRedundancy, requirement));
    let per_flow = 60u64;
    for i in 0..per_flow {
        for tx in senders {
            net.send(tx, format!("m{i}").as_bytes());
        }
        net.run_for(ms(4));
    }
    net.run_for(ms(400));
    for f in flows {
        // Taken by flow: deliveries belong to the right one.
        let got = net.take_deliveries(f);
        assert_eq!(got.len() as u64, per_flow, "{} delivered {}", f.label(&graph), got.len());
        assert!(got.iter().all(|d| d.on_time), "{} had late packets", f.label(&graph));
    }
    assert!(net.deliveries().is_empty(), "nothing was delivered that no flow sent");
}

#[test]
fn global_overlay_delivers_intercontinentally() {
    let graph = presets::global_16();
    let mut net = Net::launch(&graph, cadences(25, 100)).unwrap();
    let flow = Flow::new(by_name(&graph, "LON"), by_name(&graph, "SJC"));
    let tx = open(&mut net, flow, SchemeKind::TargetedRedundancy, ServiceRequirement::new(ms(110)));
    let got = stream(&mut net, tx, 20, ms(5), ms(400));
    assert_eq!(got.len(), 20);
    for d in &got {
        assert!(d.on_time, "seq {} took {}", d.flow_seq, d.latency());
        // Trans-Atlantic plus cross-country: 60-110 ms one way.
        assert!(d.latency() > ms(55), "latency {}", d.latency());
    }
}

#[test]
fn tail_probe_repairs_a_silently_lost_stream_tail() {
    let mut net = na_net();
    let flow = nyc_sjc(&net);
    let tx = open(&mut net, flow, SchemeKind::StaticSinglePath, ServiceRequirement::default());
    // A probe before anything was sent is a no-op.
    assert!(!net.tail_probe(tx, b"nothing yet"), "probe with no history sent something");

    // Establish the stream, then lose its final packet completely:
    // hop-by-hop recovery is gap-triggered, so with nothing sent behind
    // it the loss is silent and permanent.
    for i in 0..3u64 {
        net.send(tx, format!("m{i}").as_bytes());
        net.run_for(ms(5));
    }
    let lossy = first_hop(&net, tx);
    net.set_link_fault(lossy, 1.0, Micros::ZERO);
    let tail_seq = net.send(tx, b"the tail");
    net.run_for(ms(200));
    net.clear_link_fault(lossy);
    net.run_for(ms(200));
    let before = net.take_deliveries(flow);
    assert_eq!(before.len(), 3, "the tail was lost with no gap to expose it");
    assert!(before.iter().all(|d| d.flow_seq != tail_seq));

    // The probe re-offers the same flow sequence over the healed path.
    assert!(net.tail_probe(tx, b"the tail"));
    net.run_for(ms(500));
    let recovered = net.take_deliveries(flow);
    assert_eq!(recovered.len(), 1, "probe delivered the tail");
    assert_eq!(
        (recovered[0].flow_seq, recovered[0].payload.as_ref()),
        (tail_seq, &b"the tail"[..])
    );

    // Probing an already-delivered tail is suppressed as a duplicate,
    // and probes never mint sequence numbers or inflate packets_sent.
    assert!(net.tail_probe(tx, b"the tail"));
    net.run_for(ms(200));
    assert!(net.take_deliveries(flow).is_empty(), "duplicate probe was delivered twice");
    let cells = net.snapshot(flow.source);
    let flow_cell = cells.flows.iter().find(|f| f.flow == flow).expect("flow has metrics");
    assert_eq!(flow_cell.packets_sent, 4, "probes do not inflate packets_sent");
    assert_eq!(net.send(tx, b"next"), tail_seq + 1, "probes do not consume sequences");
}

#[test]
fn group_sender_reaches_every_receiver() {
    let mut net = na_net();
    let graph = net.graph().clone();
    let src = by_name(&graph, "NYC");
    let receivers = ["SJC", "LAX", "MIA"].map(|n| by_name(&graph, n));
    let (kind, requirement) = (MulticastKind::Targeted, ServiceRequirement::default());
    let tx =
        net.open_group_sender(src, &receivers, 7, kind, requirement, SlaClass::Timely).unwrap();
    assert!(tx.flow().is_group());
    assert_eq!(tx.flow().group_id(), Some(7));

    // One send per packet reaches the whole receiver set.
    for i in 0..10u64 {
        assert_eq!(net.send(tx, format!("group {i}").as_bytes()), i);
        net.run_for(ms(5));
    }
    // And one encoded batch fans out the same way.
    assert_eq!(net.send_batch(tx, &[b"batch a".as_ref(), b"batch b".as_ref()]), 10);
    net.run_for(ms(500));

    for node in receivers {
        let mut got: Vec<&Delivery> =
            net.deliveries().iter().filter(|(at, _)| *at == node).map(|(_, d)| d).collect();
        assert_eq!(got.len(), 12, "receiver {node:?} missed packets");
        got.sort_by_key(|d| d.flow_seq);
        assert_eq!(got[0].payload.as_ref(), b"group 0");
        assert_eq!(got[11].payload.as_ref(), b"batch b");
        for d in &got {
            assert!(d.on_time, "receiver {node:?} seq {} late: {}", d.flow_seq, d.latency());
        }
    }
    assert_eq!(net.deliveries().len(), 36, "and nobody else heard them");

    // The multicast tier interned the group graph, and the counters
    // surface through the node's metrics snapshot.
    let stats = net.snapshot(src).graph_cache;
    assert!(stats.multicast.misses >= 1, "group graph was constructed");
}

#[test]
fn group_and_unicast_flows_do_not_collide() {
    let mut net = na_net();
    let flow = nyc_sjc(&net);
    let (src, dst) = (flow.source, flow.destination);
    let requirement = ServiceRequirement::default();
    let uni_tx = open(&mut net, flow, SchemeKind::StaticSinglePath, requirement);
    let grp_tx = net
        .open_group_sender(src, &[dst], 1, MulticastKind::Tree, requirement, SlaClass::Timely)
        .unwrap();

    net.send(uni_tx, b"unicast");
    net.send(grp_tx, b"grouped");
    net.run_for(ms(500));

    // Each session saw exactly its own stream.
    let uni = net.take_deliveries(flow);
    assert_eq!(uni.len(), 1, "unicast delivered, and no group packet leaked into it");
    assert_eq!(uni[0].payload.as_ref(), b"unicast");
    let grp = net.take_deliveries(grp_tx.flow());
    assert_eq!(grp.len(), 1, "group delivered, and no unicast packet leaked into it");
    assert_eq!(grp[0].payload.as_ref(), b"grouped");
}
