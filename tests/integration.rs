//! Cross-crate integration tests: trace generation → analysis, playback
//! simulation → metrics, and agreement between the simulator and the
//! real overlay.

use dissemination_graphs::overlay::cluster::{Cluster, ClusterConfig};
use dissemination_graphs::prelude::*;
use dissemination_graphs::sim::experiment::{run_comparison, tabulate, ExperimentConfig};
use dissemination_graphs::trace::analysis::classify_flows;
use dissemination_graphs::trace::gen::{self, ProblemKind};
use dissemination_graphs::trace::LinkCondition;
use std::time::Duration;

#[test]
fn generator_ground_truth_matches_analysis() {
    let graph = topology::presets::north_america_12();
    // Only node problems, only at NYC, full coverage and high loss.
    let mut wan = SyntheticWanConfig::calibrated(11);
    wan.duration = Micros::from_secs(1_200);
    wan.background.enter_bad = 0.0;
    wan.background.loss_good = 0.0;
    wan.jitter_max = Micros::ZERO;
    wan.link_problems.events_per_hour = 0.0;
    wan.node_problems.events_per_hour = 6.0;
    wan.node_problems.coverage_range = (1.0, 1.0);
    wan.node_problems.loss_range = (0.5, 0.9);
    let nyc = graph.node_by_name("NYC").unwrap();
    let mut weights = vec![0.0; graph.node_count()];
    weights[nyc.index()] = 1.0;
    wan.node_weights = Some(weights);

    let (traces, events) = gen::generate_with_events(&graph, &wan);
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.kind == ProblemKind::Node(nyc)));

    // For flows sourced at NYC every problematic interval is a source
    // problem; for other flows NYC is mid-network.
    let sjc = graph.node_by_name("SJC").unwrap();
    let from_nyc = classify_flows(&graph, &traces, &[(nyc, sjc)], 0.3, Micros::from_millis(65));
    assert!(from_nyc.problematic_intervals > 0);
    assert_eq!(from_nyc.source, from_nyc.problematic_intervals);
    assert_eq!(from_nyc.fraction_around_endpoints(), 1.0);

    // For a flow whose endpoints are not adjacent to NYC (a node
    // problem impairs the shared links of its neighbours too, so the
    // endpoints must not neighbour NYC), the same events are
    // mid-network problems.
    let mia = graph.node_by_name("MIA").unwrap();
    let sea = graph.node_by_name("SEA").unwrap();
    let other = classify_flows(&graph, &traces, &[(mia, sea)], 0.3, Micros::from_millis(65));
    assert!(other.problematic_intervals > 0, "NYC is inside MIA->SEA's flooding region");
    assert_eq!(other.source, 0);
    assert_eq!(other.destination, 0);
    assert_eq!(other.middle, other.problematic_intervals);
}

#[test]
fn full_pipeline_produces_the_papers_ordering() {
    let graph = topology::presets::north_america_12();
    let mut wan = SyntheticWanConfig::calibrated(23);
    wan.duration = Micros::from_secs(900);
    wan.node_problems.events_per_hour = 4.0;
    let traces = gen::generate(&graph, &wan);
    let flows = topology::presets::transcontinental_flows(&graph);
    let config = ExperimentConfig {
        playback: PlaybackConfig { packets_per_second: 20, ..Default::default() },
        ..Default::default()
    };
    let aggs = run_comparison(&graph, &traces, &flows, &SchemeKind::ALL, &config, 1)
        .expect("flows routable");
    let rows = tabulate(&aggs, SchemeKind::StaticSinglePath, SchemeKind::TimeConstrainedFlooding);
    let get = |k: SchemeKind| rows.iter().find(|r| r.scheme == k).unwrap();
    let single = get(SchemeKind::StaticSinglePath);
    let disjoint = get(SchemeKind::StaticTwoDisjoint);
    let targeted = get(SchemeKind::TargetedRedundancy);
    let flooding = get(SchemeKind::TimeConstrainedFlooding);

    // The paper's qualitative ordering.
    assert!(flooding.unavailable_seconds <= targeted.unavailable_seconds);
    assert!(targeted.unavailable_seconds <= disjoint.unavailable_seconds);
    assert!(disjoint.unavailable_seconds <= single.unavailable_seconds);
    // And the cost ordering.
    assert!(single.average_cost < disjoint.average_cost);
    assert!(disjoint.average_cost <= targeted.average_cost);
    assert!(targeted.average_cost < flooding.average_cost / 3.0);
}

#[test]
fn simulator_and_overlay_agree_on_recovery() {
    let graph = topology::presets::north_america_12();
    let flow = Flow::new(graph.node_by_name("NYC").unwrap(), graph.node_by_name("SJC").unwrap());
    // Scenario: 30% loss on the single path's first hop, recovery on.
    let scheme = build_scheme(
        SchemeKind::StaticSinglePath,
        &graph,
        flow,
        ServiceRequirement::default(),
        &SchemeParams::default(),
    )
    .unwrap();
    let first_hop = scheme.current().forwarding_edges(&graph, flow.source).next().unwrap();

    // Simulator side.
    let mut traces = TraceSet::clean(graph.edge_count(), 3, Micros::from_secs(10)).unwrap();
    for i in 0..3 {
        traces.set_condition(first_hop, i, LinkCondition::new(0.3, Micros::ZERO));
    }
    let mut sim_scheme = build_scheme(
        SchemeKind::StaticSinglePath,
        &graph,
        flow,
        ServiceRequirement::default(),
        &SchemeParams::default(),
    )
    .unwrap();
    let sim_stats = run_flow(
        &graph,
        &traces,
        sim_scheme.as_mut(),
        &PlaybackConfig { packets_per_second: 50, ..Default::default() },
    );
    let sim_rate = sim_stats.on_time_fraction();

    // Overlay side.
    let cluster = Cluster::launch(
        &graph,
        ClusterConfig { hello_interval: Duration::from_millis(25), ..Default::default() },
    )
    .unwrap();
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    cluster.set_link_fault(first_hop, 0.3, Micros::ZERO);
    let total = 200;
    for i in 0..total {
        tx.send(format!("{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(3));
    }
    std::thread::sleep(Duration::from_millis(300));
    let overlay_rate = rx.drain().iter().filter(|d| d.on_time).count() as f64 / f64::from(total);
    cluster.shutdown();

    // Both stacks implement the same single-retransmission recovery, so
    // both should land near the analytic 1 - 0.3^2 = 91% on-time rate.
    assert!((0.85..=0.97).contains(&sim_rate), "sim rate {sim_rate}");
    assert!((0.80..=0.98).contains(&overlay_rate), "overlay rate {overlay_rate}");
    assert!(
        (sim_rate - overlay_rate).abs() < 0.1,
        "stacks disagree: sim {sim_rate:.3} vs overlay {overlay_rate:.3}"
    );
}

#[test]
fn wire_mask_agrees_with_dissemination_graph() {
    use dissemination_graphs::overlay::wire::{DataPacket, Envelope, Message};
    let graph = topology::presets::north_america_12();
    let flow = Flow::new(graph.node_by_name("BOS").unwrap(), graph.node_by_name("LAX").unwrap());
    let scheme = build_scheme(
        SchemeKind::TargetedRedundancy,
        &graph,
        flow,
        ServiceRequirement::default(),
        &SchemeParams::default(),
    )
    .unwrap();
    let dg = scheme.current();
    let packet = DataPacket {
        flow,
        flow_seq: 1,
        sent_at: Micros::ZERO,
        deadline: Micros::from_millis(65),
        link_seq: 0,
        retransmission: false,
        class: SlaClass::Surgical,
        mask: bytes::Bytes::from(dg.to_bitmask(graph.edge_count())),
        payload: bytes::Bytes::from_static(b"x"),
    };
    // Round-trip through the wire and compare bit-for-bit with the graph.
    let env = Envelope { from: flow.source, message: Message::Data(packet) };
    let decoded = Envelope::decode(&env.encode()).unwrap();
    let Message::Data(d) = decoded.message else { panic!("data expected") };
    for e in graph.edges() {
        assert_eq!(d.mask_contains(e), dg.contains(e), "edge {e}");
    }
}

#[test]
fn prelude_covers_the_common_workflow() {
    // This test is primarily the compile-time check that the prelude
    // exposes everything a typical program needs.
    let graph = topology::presets::north_america_12();
    let flow = Flow::new(NodeId::new(0), NodeId::new(9));
    let scheme = build_scheme(
        SchemeKind::DynamicTwoDisjoint,
        &graph,
        flow,
        ServiceRequirement::new(Micros::from_millis(80)),
        &SchemeParams::default(),
    )
    .unwrap();
    let traces = TraceSet::clean(graph.edge_count(), 2, Micros::from_secs(10)).unwrap();
    let state: NetworkState = traces.state_at(Micros::ZERO);
    assert_eq!(state.link_count(), graph.edge_count());
    let dg: &DisseminationGraph = scheme.current();
    assert!(dg.cost(&graph) > 0);
}
