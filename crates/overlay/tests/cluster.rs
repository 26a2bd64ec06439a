//! End-to-end tests of the overlay transport service on localhost.
//!
//! These launch real multi-node overlays (UDP sockets, protocol
//! threads, emulated link latency) and verify the behaviours the paper
//! depends on: timely delivery, hop-by-hop recovery, disjoint-path
//! survival, link-state convergence, and targeted-redundancy switching.

use dg_core::scheme::SchemeKind;
use dg_core::{Flow, ServiceRequirement};
use dg_overlay::cluster::{Cluster, ClusterConfig};
use dg_overlay::metrics::EventKind;
use dg_overlay::now_us;
use dg_overlay::session::FlowSender;
use dg_topology::{presets, GraphBuilder, Micros, NodeId};
use std::time::Duration;

fn na_cluster() -> Cluster {
    let graph = presets::north_america_12();
    let config = ClusterConfig {
        hello_interval: Duration::from_millis(20),
        link_state_interval: Duration::from_millis(80),
        ..ClusterConfig::default()
    };
    Cluster::launch(&graph, config).expect("cluster launches")
}

fn nyc_sjc(cluster: &Cluster) -> Flow {
    Flow::new(
        cluster.graph().node_by_name("NYC").unwrap(),
        cluster.graph().node_by_name("SJC").unwrap(),
    )
}

#[test]
fn clean_network_delivers_on_time() {
    let cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    for i in 0..20u64 {
        let seq = tx.send(format!("packet {i}").as_bytes()).unwrap();
        assert_eq!(seq, i);
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut got = Vec::new();
    while got.len() < 20 {
        match rx.recv_timeout(Duration::from_millis(500)) {
            Some(d) => got.push(d),
            None => break,
        }
    }
    assert_eq!(got.len(), 20, "all packets delivered");
    for d in &got {
        assert!(d.on_time, "seq {} late: {}", d.flow_seq, d.latency());
        // Cross-country one-way should sit in the tens of milliseconds.
        assert!(d.latency() > Micros::from_millis(20), "latency {}", d.latency());
        assert!(d.latency() < Micros::from_millis(65), "latency {}", d.latency());
    }
    assert_eq!(got[0].payload.as_ref(), b"packet 0");
    cluster.shutdown();
}

#[test]
fn recovery_rescues_moderate_loss() {
    let cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    // 30% loss on the path's first hop.
    let graph = cluster.graph().clone();
    let first_hop = tx
        .current_graph()
        .forwarding_edges(&graph, flow.source)
        .next()
        .expect("single path has a first hop");
    cluster.set_link_fault(first_hop, 0.3, Micros::ZERO);

    let total = 150u64;
    for i in 0..total {
        tx.send(format!("m{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(4));
    }
    std::thread::sleep(Duration::from_millis(300));
    let got = rx.drain();
    // Without recovery ~30% would vanish; with one retransmission the
    // expected residual loss is ~9%.
    assert!(got.len() as u64 >= total * 80 / 100, "only {}/{total} delivered", got.len());
    let nyc = cluster.node(flow.source).metrics_snapshot().counters;
    assert!(nyc.retransmissions_served > 0, "recovery never fired");
    let chi_like = cluster.node(graph.edge(first_hop).dst).metrics_snapshot().counters;
    assert!(chi_like.nack_messages_sent > 0, "receiver never detected gaps");
    cluster.shutdown();
}

#[test]
fn disjoint_pair_survives_a_dead_path() {
    let cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticTwoDisjoint, ServiceRequirement::default())
        .unwrap();
    // Kill the primary path's first hop completely.
    let graph = cluster.graph().clone();
    let first_hop = tx
        .current_graph()
        .forwarding_edges(&graph, flow.source)
        .next()
        .expect("pair has a first hop");
    cluster.set_link_fault(first_hop, 1.0, Micros::ZERO);

    for i in 0..30u64 {
        tx.send(format!("m{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(300));
    let got = rx.drain();
    assert_eq!(got.len(), 30, "the second disjoint path must deliver everything");
    assert!(got.iter().all(|d| d.on_time));
    cluster.shutdown();
}

#[test]
fn link_state_converges_and_reports_loss() {
    let cluster = na_cluster();
    assert!(
        cluster.wait_for_link_state(Duration::from_secs(5)),
        "link state flooding never converged"
    );
    // Inject heavy loss on one edge and wait for a remote node to see it.
    let graph = cluster.graph().clone();
    let chi = graph.node_by_name("CHI").unwrap();
    let den = graph.node_by_name("DEN").unwrap();
    let edge = graph.edge_between(chi, den).unwrap();
    cluster.set_link_fault(edge, 0.8, Micros::ZERO);

    let observer = graph.node_by_name("MIA").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(6);
    loop {
        let state = cluster.node(observer).network_state();
        if state.condition(edge).loss_rate > 0.3 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "MIA never learned about the CHI->DEN problem (sees loss {})",
            state.condition(edge).loss_rate
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.shutdown();
}

/// The source's `RouteChange`s for `flow` stamped at or after `since`
/// on the overlay clock, as `(when, edges of the new graph)`.
fn route_changes(cluster: &Cluster, flow: Flow, since: Micros) -> Vec<(Micros, u64)> {
    cluster
        .node(flow.source)
        .metrics_snapshot()
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RouteChange { flow: f, edges, .. } if f == flow && e.at >= since => {
                Some((e.at, edges))
            }
            _ => None,
        })
        .collect()
}

/// Sends one small packet every 3 ms until `done` says to stop (asked
/// after every send) or `limit` packets have gone.
fn send_until(tx: &FlowSender, limit: u64, mut done: impl FnMut() -> bool) {
    for i in 0..limit {
        tx.send(format!("m{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(3));
        if done() {
            return;
        }
    }
}

/// The paper's premise on the real overlay: the precomputed problem
/// graph engages when the problem is seen and is in force while it
/// lasts and no longer. The bounds are read off the source's journal —
/// stamped where the switch happens, on the clock the impairment was
/// stamped with — not off how soon a polling loop got scheduled.
#[test]
fn targeted_redundancy_escalates_and_releases() {
    let cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    let graph = cluster.graph().clone();
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::TargetedRedundancy, ServiceRequirement::default())
        .unwrap();
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)));
    let out_degree =
        |tx: &FlowSender| tx.current_graph().forwarding_edges(&graph, flow.source).count();
    assert_eq!(out_degree(&tx), 2, "starts on the disjoint pair");

    // Half a second of traffic gives every link of the pair a history.
    send_until(&tx, 170, || false);

    // A problem around the source: 40% loss on every NYC link, while
    // the flow keeps sending.
    let impaired_at = now_us();
    cluster.impair_node(flow.source, 0.4, Micros::ZERO);
    let full_degree = graph.out_edges(flow.source).len();
    send_until(&tx, 330, || out_degree(&tx) == full_degree);
    assert_eq!(out_degree(&tx), full_degree, "never escalated to the source-problem graph");
    let escalations = route_changes(&cluster, flow, impaired_at);
    let &(escalated_at, _) = escalations.first().expect("the escalation is journalled");
    assert!(
        escalated_at.saturating_sub(impaired_at) <= Micros::from_millis(250),
        "escalated {} after the impairment",
        escalated_at.saturating_sub(impaired_at)
    );

    // The problem graph masks the problem: of 400 packets sent into a
    // 40% loss around the source, (nearly) all arrive.
    drop(rx.drain());
    send_until(&tx, 400, || false);
    std::thread::sleep(Duration::from_millis(300));
    let got = rx.drain().len();
    assert!(got >= 392, "source-problem graph should mask a 40% source-area loss, got {got}/400");
    assert_eq!(out_degree(&tx), full_degree, "released while the problem lasted");
    let escalated_edges = tx.current_graph().len() as u64;

    // Heal, keep sending, and the source's extra branches are gone
    // within the clear's span.
    let healed_at = now_us();
    cluster.heal_node(flow.source);
    send_until(&tx, 660, || out_degree(&tx) == 2);
    assert_eq!(out_degree(&tx), 2, "never de-escalated after healing");
    let released = route_changes(&cluster, flow, healed_at);
    let &(released_at, _) = released
        .iter()
        .find(|&&(_, edges)| edges < escalated_edges)
        .expect("the release is journalled");
    assert!(
        released_at.saturating_sub(healed_at) <= Micros::from_millis(600),
        "released {} after the heal",
        released_at.saturating_sub(healed_at)
    );
    cluster.shutdown();
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
        b.add_link(pair[0], pair[1], Micros::from_millis(2), 1).unwrap();
    }
    let graph = b.build();
    let (relay, sink) = (ids[1], ids[2]);
    let flow = Flow::new(ids[0], sink);
    let mut cluster = Cluster::launch(
        &graph,
        ClusterConfig {
            hello_interval: Duration::from_millis(20),
            link_state_interval: Duration::from_millis(80),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)));
    let rx = cluster.open_receiver(flow).unwrap();
    // A deadline no scheduling hiccup of a loaded test host can spend:
    // what is not delivered below was lost, not late.
    let tx = cluster
        .open_sender(
            flow,
            SchemeKind::StaticSinglePath,
            ServiceRequirement::new(Micros::from_millis(500)),
        )
        .unwrap();

    // The relay's first life: long enough that its link sequence toward
    // the sink is past anything a retransmit buffer (2048) could hold,
    // and its hello sequence past the sink's window (20).
    let payload = [0u8; 32];
    let batch: Vec<&[u8]> = vec![&payload; 32];
    for _ in 0..100 {
        tx.send_batch(&batch).unwrap();
        std::thread::sleep(Duration::from_millis(8));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert!(rx.drain().len() >= 3_000, "the first life forwards");

    cluster.kill_node(relay);
    cluster.restart_node(relay).unwrap();
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)), "the relay rejoins");
    std::thread::sleep(Duration::from_millis(300));
    let before = cluster.node(sink).metrics_snapshot().counters;

    // Its second life's link to the sink loses 30%.
    let impaired_at = now_us();
    cluster.set_link_fault(graph.edge_between(relay, sink).unwrap(), 0.3, Micros::ZERO);
    send_until(&tx, 600, || false);
    std::thread::sleep(Duration::from_millis(200));
    let sink_snapshot = cluster.node(sink).metrics_snapshot();
    cluster.shutdown();

    let nacked =
        sink_snapshot.counters.retransmit_requests_issued - before.retransmit_requests_issued;
    assert!(nacked >= 100, "the sink NACKed {nacked} of some 180 losses from the restarted relay");
    let triggered = sink_snapshot.events.iter().find(|e| {
        e.at >= impaired_at
            && matches!(e.kind, EventKind::DetectorTriggered { neighbor, .. } if neighbor == relay)
    });
    let triggered = triggered.expect("the sink's detector never saw the restarted relay's loss");
    assert!(
        triggered.at.saturating_sub(impaired_at) <= Micros::from_millis(500),
        "the detector took {} to see a 30% loss",
        triggered.at.saturating_sub(impaired_at)
    );
    let delivered = rx.drain().len();
    assert!(delivered >= 500, "recovery repairs most of a 30% loss, delivered {delivered}/600");
}

#[test]
fn expired_packets_are_not_delivered() {
    let cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    let rx = cluster.open_receiver(flow).unwrap();
    // A 5ms deadline cannot cross the country (~30ms).
    let tx = cluster
        .open_sender(
            flow,
            SchemeKind::StaticSinglePath,
            ServiceRequirement::new(Micros::from_millis(5)),
        )
        .unwrap();
    for _ in 0..10 {
        tx.send(b"too slow").unwrap();
        std::thread::sleep(Duration::from_millis(3));
    }
    assert!(rx.recv_timeout(Duration::from_millis(500)).is_none());
    // Some node along the path dropped them as expired.
    let total_expired: u64 =
        cluster.graph().nodes().map(|n| cluster.node(n).metrics_snapshot().counters.expired).sum();
    assert!(total_expired > 0);
    cluster.shutdown();
}

#[test]
fn flooding_reaches_most_of_the_network() {
    let cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::TimeConstrainedFlooding, ServiceRequirement::default())
        .unwrap();
    let graph_size = tx.current_graph().len() as u64;
    assert!(graph_size > 20, "flooding graph should span the mesh");
    for i in 0..10u64 {
        tx.send(format!("f{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut got = Vec::new();
    while got.len() < 10 {
        match rx.recv_timeout(Duration::from_millis(500)) {
            Some(d) => got.push(d),
            None => break,
        }
    }
    assert_eq!(got.len(), 10);
    assert!(got.iter().all(|d| d.on_time));
    // Network-wide transmissions reflect flooding's cost; duplicates
    // were suppressed at joins.
    let graph = cluster.graph().clone();
    let total_sent: u64 =
        graph.nodes().map(|n| cluster.node(n).metrics_snapshot().counters.data_sent).sum();
    let total_dups: u64 =
        graph.nodes().map(|n| cluster.node(n).metrics_snapshot().counters.duplicates).sum();
    assert!(total_sent >= 10 * (graph_size / 2), "sent {total_sent}");
    assert!(total_dups > 0, "flooding must produce suppressed duplicates");
    cluster.shutdown();
}

#[test]
fn sessions_validate_their_endpoints() {
    let cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    // Receiver must live at the destination, sender at the source.
    assert!(cluster.node(flow.source).open_receiver(flow).is_err());
    let scheme = dg_core::scheme::build_scheme(
        SchemeKind::StaticSinglePath,
        cluster.graph(),
        flow,
        ServiceRequirement::default(),
        &Default::default(),
    )
    .unwrap();
    assert!(cluster
        .node(flow.destination)
        .open_sender(scheme, ServiceRequirement::default())
        .is_err());
    // Oversized payloads are rejected.
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    assert!(tx.send(&[0u8; 5_000]).is_err());
    cluster.shutdown();
}

#[test]
fn dynamic_routing_survives_a_node_death() {
    let mut cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    let graph = cluster.graph().clone();
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::DynamicTwoDisjoint, ServiceRequirement::default())
        .unwrap();
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)));

    // Find a transit node the current pair routes through and kill it.
    let victim = tx
        .current_graph()
        .edges()
        .iter()
        .map(|&e| graph.edge(e).dst)
        .find(|&n| n != flow.destination && n != flow.source)
        .expect("pair has a transit node");
    cluster.kill_node(victim);
    assert!(!cluster.is_alive(victim));

    // Hello silence pushes the dead node's links toward full loss; the
    // dynamic scheme must re-route around it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let avoided = tx
            .current_graph()
            .edges()
            .iter()
            .all(|&e| graph.edge(e).dst != victim && graph.edge(e).src != victim);
        if avoided {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never rerouted around the dead node {}",
            graph.node(victim).name
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // Traffic flows normally on the new pair.
    for i in 0..30u64 {
        tx.send(format!("m{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(300));
    let got = rx.drain();
    assert!(got.len() >= 29, "only {}/30 delivered after reroute", got.len());
    cluster.shutdown();
}

#[test]
fn reordering_from_unequal_delays_is_tolerated() {
    // A small ring where we give the two hops of the primary route very
    // different injected delays, so retransmissions and hellos arrive
    // interleaved and out of order relative to data.
    let graph = presets::ring(4, Micros::from_millis(5));
    let cluster = Cluster::launch(
        &graph,
        ClusterConfig {
            hello_interval: Duration::from_millis(15),
            link_state_interval: Duration::from_millis(60),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    let flow = Flow::new(graph.node_by_name("R0").unwrap(), graph.node_by_name("R2").unwrap());
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(
            flow,
            SchemeKind::StaticTwoDisjoint,
            ServiceRequirement::new(Micros::from_millis(80)),
        )
        .unwrap();
    // Wildly different delays + moderate loss on both directions of the
    // ring: packets race each other and recovery interleaves.
    let g = cluster.graph().clone();
    for e in g.edges() {
        let jitter = Micros::from_millis(u64::from(e.index() as u32 % 7) * 3);
        cluster.set_link_fault(e, 0.15, jitter);
    }
    let total = 120u64;
    for i in 0..total {
        tx.send(format!("r{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(3));
    }
    std::thread::sleep(Duration::from_millis(500));
    let got = rx.drain();
    // Two disjoint paths at 15% loss each, with recovery: residual loss
    // per path ~2%, joint ~0.05% — essentially everything arrives.
    assert!(got.len() as u64 >= total * 95 / 100, "got {}/{total}", got.len());
    // No duplicate deliveries despite retransmissions and dual paths.
    let mut seqs: Vec<u64> = got.iter().map(|d| d.flow_seq).collect();
    let before = seqs.len();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), before, "duplicate deliveries leaked through");
    cluster.shutdown();
}

#[test]
fn latency_scale_shrinks_observed_latency() {
    let graph = presets::north_america_12();
    let flow = Flow::new(graph.node_by_name("NYC").unwrap(), graph.node_by_name("SJC").unwrap());
    let run_with_scale = |scale: f64| {
        let cluster = Cluster::launch(
            &graph,
            ClusterConfig { latency_scale: scale, ..ClusterConfig::default() },
        )
        .unwrap();
        let rx = cluster.open_receiver(flow).unwrap();
        let tx = cluster
            .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
            .unwrap();
        for _ in 0..10 {
            tx.send(b"ping").unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(300));
        let got = rx.drain();
        assert_eq!(got.len(), 10);
        let stats = dg_overlay::session::DeliveryStats::from_deliveries(&got);
        cluster.shutdown();
        stats.mean_latency()
    };
    let full = run_with_scale(1.0);
    let tenth = run_with_scale(0.1);
    assert!(full > Micros::from_millis(20), "full-scale latency {full}");
    // A tenth of the propagation delay plus scheduling overhead.
    assert!(tenth < Micros::from_millis(15), "scaled latency {tenth}");
}

#[test]
fn four_concurrent_flows_share_the_overlay() {
    let cluster = na_cluster();
    let graph = cluster.graph().clone();
    let flows: Vec<Flow> = [("NYC", "SJC"), ("WAS", "SEA"), ("BOS", "LAX"), ("JHU", "DEN")]
        .iter()
        .map(|(s, t)| Flow::new(graph.node_by_name(s).unwrap(), graph.node_by_name(t).unwrap()))
        .collect();
    let sessions: Vec<_> = flows
        .iter()
        .map(|&f| {
            let rx = cluster.open_receiver(f).unwrap();
            let tx = cluster
                .open_sender(f, SchemeKind::TargetedRedundancy, ServiceRequirement::default())
                .unwrap();
            (f, tx, rx)
        })
        .collect();
    let per_flow = 60u64;
    for i in 0..per_flow {
        for (_, tx, _) in &sessions {
            tx.send(format!("m{i}").as_bytes()).unwrap();
        }
        std::thread::sleep(Duration::from_millis(4));
    }
    std::thread::sleep(Duration::from_millis(400));
    for (f, _, rx) in &sessions {
        let got = rx.drain();
        assert_eq!(
            got.len() as u64,
            per_flow,
            "{} delivered {}/{}",
            f.label(&graph),
            got.len(),
            per_flow
        );
        assert!(got.iter().all(|d| d.on_time), "{} had late packets", f.label(&graph));
        // Deliveries belong to the right flow.
        assert!(got.iter().all(|d| d.flow == *f));
    }
    cluster.shutdown();
}

#[test]
fn global_overlay_delivers_intercontinentally() {
    let graph = presets::global_16();
    let cluster = Cluster::launch(
        &graph,
        ClusterConfig {
            hello_interval: Duration::from_millis(25),
            link_state_interval: Duration::from_millis(100),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    let flow = Flow::new(graph.node_by_name("LON").unwrap(), graph.node_by_name("SJC").unwrap());
    let req = ServiceRequirement::new(Micros::from_millis(110));
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster.open_sender(flow, SchemeKind::TargetedRedundancy, req).unwrap();
    for i in 0..20u64 {
        tx.send(format!("g{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(400));
    let got = rx.drain();
    assert_eq!(got.len(), 20);
    for d in &got {
        assert!(d.on_time, "seq {} took {}", d.flow_seq, d.latency());
        // Trans-Atlantic plus cross-country: 60-110 ms one way.
        assert!(d.latency() > Micros::from_millis(55), "latency {}", d.latency());
    }
    cluster.shutdown();
}

#[test]
fn tail_probe_repairs_a_silently_lost_stream_tail() {
    let cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    // A probe before anything was sent is a no-op.
    assert!(!tx.tail_probe(b"nothing yet").unwrap(), "probe with no history sent something");

    // Establish the stream, then lose its final packet completely:
    // hop-by-hop recovery is gap-triggered, so with nothing sent behind
    // it the loss is silent and permanent.
    for i in 0..3u64 {
        tx.send(format!("m{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let graph = cluster.graph().clone();
    let first_hop = tx
        .current_graph()
        .forwarding_edges(&graph, flow.source)
        .next()
        .expect("single path has a first hop");
    cluster.set_link_fault(first_hop, 1.0, Micros::ZERO);
    let tail_seq = tx.send(b"the tail").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    cluster.set_link_fault(first_hop, 0.0, Micros::ZERO);
    std::thread::sleep(Duration::from_millis(200));
    let before = rx.drain();
    assert_eq!(before.len(), 3, "the tail was lost with no gap to expose it");
    assert!(before.iter().all(|d| d.flow_seq != tail_seq));

    // The probe re-offers the same flow sequence over the healed path.
    assert!(tx.tail_probe(b"the tail").unwrap());
    let recovered = rx.recv_timeout(Duration::from_millis(500)).expect("probe delivered the tail");
    assert_eq!(recovered.flow_seq, tail_seq);
    assert_eq!(recovered.payload.as_ref(), b"the tail");

    // Probing an already-delivered tail is suppressed as a duplicate,
    // and probes never mint sequence numbers or inflate packets_sent.
    assert!(tx.tail_probe(b"the tail").unwrap());
    std::thread::sleep(Duration::from_millis(200));
    assert!(rx.drain().is_empty(), "duplicate probe was delivered twice");
    let cells = cluster.node(flow.source).metrics_snapshot();
    let flow_cell = cells.flows.iter().find(|f| f.flow == flow).expect("flow has metrics");
    assert_eq!(flow_cell.packets_sent, 4, "probes do not inflate packets_sent");
    assert_eq!(tx.send(b"next").unwrap(), tail_seq + 1, "probes do not consume sequences");
    cluster.shutdown();
}

#[test]
fn group_sender_reaches_every_receiver() {
    use dg_core::{MulticastKind, SlaClass};

    let cluster = na_cluster();
    let g = cluster.graph();
    let src = g.node_by_name("NYC").unwrap();
    let receivers: Vec<_> =
        ["SJC", "LAX", "MIA"].iter().map(|n| g.node_by_name(n).unwrap()).collect();
    let (tx, sessions) = cluster
        .open_group_sender(
            src,
            &receivers,
            7,
            MulticastKind::Targeted,
            ServiceRequirement::default(),
            SlaClass::Timely,
        )
        .unwrap();
    assert_eq!(sessions.len(), receivers.len());
    assert!(tx.flow().is_group());
    assert_eq!(tx.flow().group_id(), Some(7));

    // One send per packet reaches the whole receiver set.
    for i in 0..10u64 {
        let seq = tx.send(format!("group {i}").as_bytes()).unwrap();
        assert_eq!(seq, i);
        std::thread::sleep(Duration::from_millis(5));
    }
    // And one encoded batch fans out the same way.
    let first = tx.send_batch(&[b"batch a".as_ref(), b"batch b".as_ref()]).unwrap();
    assert_eq!(first, 10);

    for (node, rx) in &sessions {
        let mut got = Vec::new();
        while got.len() < 12 {
            match rx.recv_timeout(Duration::from_millis(500)) {
                Some(d) => got.push(d),
                None => break,
            }
        }
        assert_eq!(got.len(), 12, "receiver {node:?} missed packets");
        got.sort_by_key(|d| d.flow_seq);
        assert_eq!(got[0].payload.as_ref(), b"group 0");
        assert_eq!(got[11].payload.as_ref(), b"batch b");
        for d in &got {
            assert!(d.on_time, "receiver {node:?} seq {} late: {}", d.flow_seq, d.latency());
        }
    }

    // The multicast tier interned the group graph, and the counters
    // surface through the node's metrics snapshot.
    let stats = cluster.node(src).metrics_snapshot().graph_cache;
    assert!(stats.multicast.misses >= 1, "group graph was constructed");
    cluster.shutdown();
}

#[test]
fn group_and_unicast_flows_do_not_collide() {
    use dg_core::{MulticastKind, SlaClass};

    let cluster = na_cluster();
    let g = cluster.graph();
    let src = g.node_by_name("NYC").unwrap();
    let dst = g.node_by_name("SJC").unwrap();
    let flow = Flow::new(src, dst);
    let uni_rx = cluster.open_receiver(flow).unwrap();
    let uni_tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    let (grp_tx, grp_sessions) = cluster
        .open_group_sender(
            src,
            &[dst],
            1,
            MulticastKind::Tree,
            ServiceRequirement::default(),
            SlaClass::Timely,
        )
        .unwrap();

    uni_tx.send(b"unicast").unwrap();
    grp_tx.send(b"grouped").unwrap();

    let uni = uni_rx.recv_timeout(Duration::from_millis(500)).expect("unicast delivered");
    assert_eq!(uni.payload.as_ref(), b"unicast");
    let grp = grp_sessions[0].1.recv_timeout(Duration::from_millis(500)).expect("group delivered");
    assert_eq!(grp.payload.as_ref(), b"grouped");

    // Each session saw exactly its own stream.
    std::thread::sleep(Duration::from_millis(100));
    assert!(uni_rx.drain().is_empty(), "group packet leaked into the unicast session");
    assert!(grp_sessions[0].1.drain().is_empty(), "unicast packet leaked into the group session");
    cluster.shutdown();
}

#[test]
fn groups_and_unicast_senders_share_one_admission_count() {
    use dg_core::{MulticastKind, SlaClass};
    use dg_overlay::OverlayError;

    let graph = presets::north_america_12();
    let cluster =
        Cluster::launch(&graph, ClusterConfig { sender_capacity: 2, ..Default::default() })
            .expect("cluster launches");
    let flow = nyc_sjc(&cluster);
    let open_group = |group_id| {
        cluster.open_group_sender(
            flow.source,
            &[flow.destination],
            group_id,
            MulticastKind::Tree,
            ServiceRequirement::default(),
            SlaClass::Timely,
        )
    };
    // Held, not dropped on the spot: a closed session gives its slot back.
    let _groups =
        [open_group(0).expect("within capacity"), open_group(1).expect("within capacity")];
    // Two open groups fill a capacity of two, whichever kind asks next.
    let denied = |e| matches!(e, OverlayError::AdmissionDenied { active: 2, capacity: 2 });
    let unicast =
        cluster.open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default());
    assert!(unicast.is_err_and(denied), "two open groups must deny a third session");
    assert!(open_group(2).is_err_and(denied));
    cluster.shutdown();
}

/// A closed sender gives its admission slot back and leaves the scheme
/// refresh: a node that opened and closed senders all day is not at
/// capacity with none alive.
#[test]
fn a_closed_sender_returns_its_admission_slot() {
    use dg_overlay::OverlayError;

    let graph = presets::north_america_12();
    let cluster =
        Cluster::launch(&graph, ClusterConfig { sender_capacity: 2, ..Default::default() })
            .expect("cluster launches");
    let flow = nyc_sjc(&cluster);
    let open =
        || cluster.open_sender(flow, SchemeKind::DynamicSinglePath, ServiceRequirement::default());
    let (first, second) = (open().expect("one"), open().expect("two"));
    let denied = |e| matches!(e, OverlayError::AdmissionDenied { active: 2, capacity: 2 });
    assert!(open().is_err_and(denied), "two open senders fill a capacity of two");
    drop(first);
    let third = open().expect("the dropped sender's slot is free again");
    drop((second, third));
    // With no session left the scheme refresh (every 200 ms) has no
    // slot to visit: the node's graph cache sees no more lookups.
    let lookups = || {
        let live = cluster.node(flow.source).graph_cache_stats().live;
        live.hits + live.misses
    };
    std::thread::sleep(Duration::from_millis(300));
    let settled = lookups();
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(lookups(), settled, "closed sessions are still being refreshed");
}

/// A dropped receiver closes its session: the node stops counting the
/// group's packets as delivered there.
#[test]
fn a_dropped_receiver_is_no_longer_delivered_to() {
    use dg_core::{MulticastKind, SlaClass};

    let cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    let (tx, mut sessions) = cluster
        .open_group_sender(
            flow.source,
            &[flow.destination],
            9,
            MulticastKind::Tree,
            ServiceRequirement::default(),
            SlaClass::Timely,
        )
        .unwrap();
    let (_, rx) = sessions.pop().expect("one receiver");
    let delivered = || cluster.node(flow.destination).metrics_snapshot().counters.delivered_on_time;
    tx.send(b"heard").unwrap();
    assert!(rx.recv_timeout(Duration::from_millis(500)).is_some(), "the open session delivers");
    assert_eq!(delivered(), 1);
    drop(rx);
    tx.send(b"unheard").unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let snap = cluster.node(flow.destination).metrics_snapshot();
    assert_eq!(snap.counters.data_received, 2, "the second packet did arrive");
    assert_eq!(delivered(), 1, "and was delivered to nobody");
}

/// Dropping a cluster stops it: every node's threads are joined and its
/// socket closed, so the ports can be bound again at once.
#[test]
fn a_dropped_cluster_stops_and_frees_its_ports() {
    let graph = presets::ring(4, Micros::from_millis(2));
    let cluster = Cluster::launch(&graph, ClusterConfig::default()).expect("cluster launches");
    let addrs: Vec<_> = graph.nodes().map(|n| cluster.node(n).local_addr()).collect();
    assert!(std::net::UdpSocket::bind(addrs[0]).is_err(), "a running node holds its port");
    drop(cluster);
    for addr in addrs {
        std::net::UdpSocket::bind(addr).expect("a stopped node's port is free");
    }
}

/// A snapshot is the node at one instant. The destination of a loaded
/// four-node chain is snapshotted over a thousand times against its
/// running receive thread, and in every snapshot the counters add up:
/// each data packet received so far was a duplicate or was delivered,
/// and the flow's deliveries are the node's.
#[test]
fn a_snapshot_is_one_instant() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = ["A", "B", "C", "D"].iter().map(|n| b.add_node(n)).collect();
    for pair in ids.windows(2) {
        b.add_link(pair[0], pair[1], Micros::from_millis(2), 1).unwrap();
    }
    let graph = b.build();
    let config = ClusterConfig { latency_scale: 0.0, ..ClusterConfig::default() };
    let cluster = Cluster::launch(&graph, config).expect("cluster launches");
    let flow = Flow::new(ids[0], ids[3]);
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    let done = AtomicBool::new(false);
    let sink = cluster.node(flow.destination);
    // Takes snapshots until there are enough, and enough of them with
    // traffic in between; `Err` names the first that does not add up.
    let check = || -> Result<(), String> {
        let (mut taken, mut moved, mut last) = (0u32, 0u32, 0);
        let give_up = std::time::Instant::now() + Duration::from_secs(30);
        while taken < 1_000 || moved < 200 {
            if std::time::Instant::now() > give_up {
                return Err(format!("only {taken} snapshots, {moved} under load"));
            }
            let snap = sink.metrics_snapshot();
            let c = snap.counters;
            let delivered = c.delivered_on_time + c.delivered_late;
            let counted = snap.flows.iter().find(|f| f.flow == flow);
            let of_flow = counted.map_or(0, |f| f.packets_on_time + f.packets_late);
            if c.data_received != c.duplicates + delivered || of_flow != delivered {
                return Err(format!("snapshot {taken}: flow delivered {of_flow}, node {c:?}"));
            }
            taken += 1;
            moved += u32::from(c.data_received != last);
            last = c.data_received;
        }
        Ok(())
    };
    let verdict = std::thread::scope(|scope| {
        // The load, a closed loop: a batch out, its deliveries back.
        scope.spawn(|| {
            let batch = [&[0u8; 64][..]; 32];
            while !done.load(Ordering::Relaxed) {
                tx.send_batch(&batch).unwrap();
                for _ in 0..batch.len() {
                    if rx.recv_timeout(Duration::from_millis(5)).is_none() {
                        break;
                    }
                }
            }
        });
        let verdict = check();
        done.store(true, Ordering::Relaxed);
        verdict
    });
    assert_eq!(verdict, Ok(()));
}
