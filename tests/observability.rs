//! Observability-layer integration tests: the overlay's metrics report
//! must tell the same story as the simulator for the same topology and
//! fault schedule — packet by packet where nothing is lost — the two
//! report schemas must stay field-compatible, and the fixed-seed Table 2
//! comparison must keep the paper's scheme ordering.
//!
//! The overlay side is real node code on the virtual clock
//! (`simnet::Net`: no socket, thread or sleep), so what the two stacks
//! are allowed to differ by is the model's coarseness, not a host's
//! scheduler.

use dissemination_graphs::overlay::metrics::EventKind;
use dissemination_graphs::overlay::simnet::{env_seed, Net};
use dissemination_graphs::prelude::*;
use dissemination_graphs::sim::experiment::{run_comparison, tabulate, ExperimentConfig};
use dissemination_graphs::sim::{simulate_packet, RecoveryModel};
use dissemination_graphs::topology::EdgeId;
use dissemination_graphs::trace::gen::{self};
use dissemination_graphs::trace::LinkCondition;
use std::collections::HashMap;
use std::time::Duration;

fn nyc_sjc(graph: &Graph) -> Flow {
    Flow::new(graph.node_by_name("NYC").unwrap(), graph.node_by_name("SJC").unwrap())
}

fn ms(n: u64) -> Micros {
    Micros::from_millis(n)
}

/// A converged overlay on `graph`, on the sweep's seed.
fn launch(graph: &Graph, config: ClusterConfig) -> Net {
    let config = ClusterConfig { fault_seed: env_seed(), ..config };
    let mut net = Net::launch(graph, config).unwrap();
    net.run_for(Micros::from_secs(3));
    assert!(net.link_state_converged(), "overlay never converged");
    net
}

/// Model vs real, first step: with no loss scheduled, `dg_sim`'s
/// per-packet propagation and the real node code agree on every packet
/// — delivered, on time, its one-way latency to the microsecond, and
/// the link transmissions it cost — for a static single path, a static
/// disjoint pair and targeted redundancy, NYC→SJC on the US-12 preset.
#[test]
fn model_and_overlay_agree_packet_by_packet_without_loss() {
    let graph = topology::presets::north_america_12();
    let flow = nyc_sjc(&graph);
    let requirement = ServiceRequirement::default();
    let clean = TraceSet::clean(graph.edge_count(), 1, Micros::from_secs(10)).unwrap();
    for kind in [
        SchemeKind::StaticSinglePath,
        SchemeKind::StaticTwoDisjoint,
        SchemeKind::TargetedRedundancy,
    ] {
        let mut net = launch(&graph, ClusterConfig::default());
        net.open_receiver(flow);
        let tx = net.open_sender(flow, kind, requirement).unwrap();
        let dgraph = net.current_graph(tx);
        let since = net.now();
        for i in 0..50u64 {
            assert_eq!(net.send(tx, format!("{i}").as_bytes()), i);
            net.run_for(ms(10));
        }
        net.run_for(ms(300));
        assert_eq!(net.current_graph(tx), dgraph, "{kind}: a clean network changes no graph");

        // Transmissions per packet: every copy of it that reached the wire.
        let mut copies: HashMap<u64, u64> = HashMap::new();
        for packet in net.wire().iter().flat_map(|frame| frame.data()) {
            *copies.entry(packet.flow_seq).or_default() += 1;
        }
        let delivered = net.take_deliveries(flow);
        assert_eq!(delivered.len(), 50, "{kind}: each packet once");
        for d in delivered {
            let sent = d.sent_at.saturating_sub(since);
            let model = simulate_packet(
                &graph,
                &dgraph,
                &clean,
                sent,
                requirement.deadline,
                &RecoveryModel::default(),
                0,
                d.flow_seq,
            );
            let model_latency = model.delivered_at.map(|at| at.saturating_sub(sent));
            let seq = d.flow_seq;
            assert_eq!(Some(d.latency()), model_latency, "{kind} seq {seq}: latency");
            assert_eq!(d.on_time, model.on_time, "{kind} seq {seq}: on time");
            assert_eq!(copies[&seq], model.transmissions, "{kind} seq {seq}: transmissions");
        }
        let report = net.metrics_report();
        let fr = report.flow(flow).expect("flow was active");
        assert_eq!(fr.transmissions, copies.values().sum::<u64>(), "{kind}: the counters' cost");
    }
}

/// Satellite: the same topology and fault schedule (30% loss on the
/// static path's first hop), driven once through the playback simulator
/// and once through the real node code, must agree on delivery, loss,
/// and cost within tolerance — and the overlay's own conservation
/// identity must hold exactly.
#[test]
fn overlay_metrics_report_agrees_with_simulator() {
    let graph = topology::presets::north_america_12();
    let flow = nyc_sjc(&graph);
    let requirement = ServiceRequirement::default();
    let params = SchemeParams::default();
    let mut sim_scheme =
        build_scheme(SchemeKind::StaticSinglePath, &graph, flow, requirement, &params).unwrap();
    let first_hop = sim_scheme.current().forwarding_edges(&graph, flow.source).next().unwrap();

    // Simulator side: 30% loss on the first hop for the whole run.
    let mut traces = TraceSet::clean(graph.edge_count(), 3, Micros::from_secs(10)).unwrap();
    for i in 0..3 {
        traces.set_condition(first_hop, i, LinkCondition::new(0.3, Micros::ZERO));
    }
    let sim = dissemination_graphs::sim::run_flow(
        &graph,
        &traces,
        sim_scheme.as_mut(),
        &PlaybackConfig { packets_per_second: 50, ..Default::default() },
    );
    // The simulator's own conservation identity.
    assert_eq!(sim.packets_sent, sim.packets_delivered + sim.packets_lost);

    // Overlay side: identical fault on the same edge.
    let mut net = launch(
        &graph,
        ClusterConfig { hello_interval: Duration::from_millis(25), ..Default::default() },
    );
    net.open_receiver(flow);
    let tx = net.open_sender(flow, SchemeKind::StaticSinglePath, requirement).unwrap();
    net.set_link_fault(first_hop, 0.3, Micros::ZERO);
    let total = 200u64;
    for i in 0..total {
        net.send(tx, format!("{i}").as_bytes());
        net.run_for(ms(3));
    }
    // Give recovery time to settle.
    net.run_for(ms(500));
    let report = net.metrics_report();

    // The fault schedule must have left its trace in the journals: the
    // first hop's receiving node saw loss cross the detector threshold.
    let lossy_dst = graph.edge(first_hop).dst;
    let dst_snapshot = report.nodes.iter().find(|n| n.node == lossy_dst).unwrap();
    assert!(
        dst_snapshot
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DetectorTriggered { neighbor, .. }
                if neighbor == flow.source)),
        "detector never triggered on the impaired link"
    );
    assert!(
        dst_snapshot.events.iter().any(|e| matches!(e.kind, EventKind::RecoveryRequested { .. })),
        "30% loss produced no recovery requests"
    );

    let fr = *report.flow(flow).expect("flow was active");
    assert_eq!(fr.packets_sent, total);
    // Conservation: everything sent is delivered or counted lost —
    // exactly, not approximately.
    assert_eq!(fr.packets_sent, fr.packets_delivered + fr.packets_lost);

    // Agreement within tolerance (both stacks implement the same
    // single-retransmission recovery; the analytic delivery rate is
    // 1 - 0.3^2 = 91%). The two draw their losses from different
    // streams, so what is left is binomial noise over 200 packets.
    let sim_delivered = sim.packets_delivered as f64 / sim.packets_sent as f64;
    let overlay_delivered = fr.packets_delivered as f64 / fr.packets_sent as f64;
    assert!(
        (sim_delivered - overlay_delivered).abs() < 0.1,
        "delivery disagrees: sim {sim_delivered:.3} vs overlay {overlay_delivered:.3}"
    );
    // Cost: path length plus ~0.3 retransmissions per packet in both.
    let (sim_cost, overlay_cost) = (sim.average_cost(), fr.average_cost());
    assert!(
        (sim_cost - overlay_cost).abs() / sim_cost < 0.15,
        "cost disagrees: sim {sim_cost:.3} vs overlay {overlay_cost:.3}"
    );
}

/// The agreement above, for the scheme the paper is about: the same
/// NYC→SJC flow under targeted redundancy and the same clean / loss
/// around the source / clean / loss around the destination schedule,
/// through the playback simulator and through the real node code. They
/// must agree on delivery — and on *cost*. The simulator's schemes see
/// each interval's conditions one detection lag (a second) after its
/// boundary, in and out alike, so each of its problem graphs serves
/// for as long as its problem lasts; an overlay that keeps a problem
/// graph in force long after the problem has gone, or holds two at
/// once, parts from it here.
#[test]
fn overlay_agrees_with_simulator_on_targeted_redundancy_cost() {
    let graph = topology::presets::north_america_12();
    let flow = nyc_sjc(&graph);
    let phase = Micros::from_secs(2);
    let around = |node: NodeId| -> Vec<EdgeId> {
        graph.out_edges(node).iter().chain(graph.in_edges(node)).copied().collect()
    };
    let (around_src, around_dst) = (around(flow.source), around(flow.destination));

    // Simulator side: a four-interval trace.
    let mut traces = TraceSet::clean(graph.edge_count(), 4, phase).unwrap();
    for (interval, edges) in [(1, &around_src), (3, &around_dst)] {
        for &e in edges {
            traces.set_condition(e, interval, LinkCondition::new(0.5, Micros::ZERO));
        }
    }
    let mut sim_scheme = build_scheme(
        SchemeKind::TargetedRedundancy,
        &graph,
        flow,
        ServiceRequirement::default(),
        &SchemeParams::default(),
    )
    .unwrap();
    let pps = 250u32;
    let sim = dissemination_graphs::sim::run_flow(
        &graph,
        &traces,
        sim_scheme.as_mut(),
        &PlaybackConfig { packets_per_second: pps, ..Default::default() },
    );
    assert_eq!(sim.packets_sent, sim.packets_delivered + sim.packets_lost);

    // Overlay side: the same schedule on the virtual clock, every
    // packet sent at the instant it is due.
    let mut net = launch(&graph, ClusterConfig::default());
    net.open_receiver(flow);
    let tx = net
        .open_sender(flow, SchemeKind::TargetedRedundancy, ServiceRequirement::default())
        .unwrap();
    let per_phase = phase.as_micros() / 1_000_000 * u64::from(pps);
    for i in 0..4 * per_phase {
        if i % per_phase == 0 {
            match i / per_phase {
                1 => net.impair_node(flow.source, 0.5, Micros::ZERO),
                2 => net.heal_node(flow.source),
                3 => net.impair_node(flow.destination, 0.5, Micros::ZERO),
                _ => {}
            }
        }
        net.send(tx, format!("{i}").as_bytes());
        net.run_for(Micros::from_micros(1_000_000 / u64::from(pps)));
    }
    net.run_for(ms(500));
    let report = net.metrics_report();

    let fr = *report.flow(flow).expect("flow was active");
    assert_eq!(fr.packets_sent, sim.packets_sent, "both stacks sent the same schedule");
    assert_eq!(fr.packets_sent, fr.packets_delivered + fr.packets_lost);
    let sim_delivered = sim.packets_delivered as f64 / sim.packets_sent as f64;
    let overlay_delivered = fr.packets_delivered as f64 / fr.packets_sent as f64;
    assert!(
        (sim_delivered - overlay_delivered).abs() < DELIVERY_TOLERANCE,
        "delivery disagrees: sim {sim_delivered:.3} vs overlay {overlay_delivered:.3}"
    );
    // Cost: the 6-edge pair, the 12-edge source-problem graph for a
    // phase, the 10-edge destination-problem graph for what the run
    // has left of one, plus a retransmission for most of what the
    // lossy phases lose.
    let (sim_cost, overlay_cost) = (sim.average_cost(), fr.average_cost());
    assert!(
        (sim_cost - overlay_cost).abs() / sim_cost < COST_TOLERANCE,
        "cost disagrees: sim {sim_cost:.3} vs overlay {overlay_cost:.3}"
    );
}

/// What the four-phase comparison tolerates with the scheduler out of
/// it (through real UDP it was 0.10 and 0.15). The two stacks knowingly
/// differ in when a problem graph is in force: the model's engages and
/// releases exactly one detection lag (1 s) after a phase boundary; the
/// overlay's detector engages it ≈100 ms after the losses begin and
/// releases it ≈300 ms after they end (docs/PROTOCOL.md §4b). Over this
/// schedule the overlay therefore serves the run's last phase on the
/// 10-edge destination-problem graph for ≈0.9 s longer than the model
/// does, which is what its 3–4 % higher cost is (8.80–8.90 against
/// 8.54 transmissions a packet over seeds 1–8), and both lose the same
/// packets' worth before their graphs engage (0.983–0.987 against
/// 0.984 delivered).
const DELIVERY_TOLERANCE: f64 = 0.01;
const COST_TOLERANCE: f64 = 0.06;

/// Satellite: the overlay's per-flow report intentionally reuses the
/// simulator's `FlowRunStats` field names, so the two JSON encodings
/// must keep every shared field spelled identically.
#[test]
fn flow_report_schema_matches_flow_run_stats() {
    use dissemination_graphs::overlay::metrics::FlowReport;
    let flow = Flow::new(NodeId::new(0), NodeId::new(1));
    let sim_stats = dissemination_graphs::sim::FlowRunStats {
        scheme: SchemeKind::StaticSinglePath,
        flow,
        seconds: 1,
        unavailable_seconds: 0,
        packets_sent: 10,
        packets_on_time: 9,
        packets_delivered: 9,
        packets_lost: 1,
        transmissions: 40,
        graph_changes: 0,
    };
    let report = FlowReport {
        flow,
        packets_sent: 10,
        packets_on_time: 9,
        packets_late: 0,
        packets_delivered: 9,
        packets_lost: 1,
        transmissions: 40,
        graph_changes: 0,
    };
    let sim_json: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&sim_stats).unwrap()).unwrap();
    let overlay_json: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    let (serde_json::Value::Object(sim_map), serde_json::Value::Object(overlay_map)) =
        (&sim_json, &overlay_json)
    else {
        panic!("both serialize as objects");
    };
    // Every field the two schemas share must carry the same value for
    // the same underlying quantities.
    let shared: Vec<&str> = sim_map
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| overlay_map.iter().any(|(ok, _)| ok == k))
        .collect();
    for key in [
        "flow",
        "packets_sent",
        "packets_on_time",
        "packets_delivered",
        "packets_lost",
        "transmissions",
        "graph_changes",
    ] {
        assert!(shared.contains(&key), "schemas drifted: {key} no longer shared");
        let sv = sim_map.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap();
        let ov = overlay_map.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap();
        assert_eq!(sv, ov, "field {key} disagrees");
    }
}

/// Satellite: fixed-seed Table 2 regression. The exact per-scheme
/// numbers are pinned for seed 42 — a behaviour change in the schemes,
/// the playback engine, or the loss sampling shows up here first — and
/// the paper's qualitative orderings are asserted on top.
#[test]
fn golden_table2_ordering_is_stable_for_fixed_seed() {
    let graph = topology::presets::north_america_12();
    let mut wan = SyntheticWanConfig::calibrated(42);
    wan.duration = Micros::from_secs(600);
    wan.node_problems.events_per_hour = 6.0;
    let traces = gen::generate(&graph, &wan);
    let flows = topology::presets::transcontinental_flows(&graph);
    let config = ExperimentConfig {
        playback: PlaybackConfig { packets_per_second: 10, seed: 42, ..Default::default() },
        ..Default::default()
    };
    let schemes = [
        SchemeKind::StaticSinglePath,
        SchemeKind::StaticTwoDisjoint,
        SchemeKind::TargetedRedundancy,
        SchemeKind::TimeConstrainedFlooding,
    ];
    let aggs = run_comparison(&graph, &traces, &flows, &schemes, &config, 1).expect("routable");
    let rows = tabulate(&aggs, SchemeKind::StaticSinglePath, SchemeKind::TimeConstrainedFlooding);
    let get = |k: SchemeKind| rows.iter().find(|r| r.scheme == k).unwrap();
    let single = get(SchemeKind::StaticSinglePath);
    let disjoint = get(SchemeKind::StaticTwoDisjoint);
    let targeted = get(SchemeKind::TargetedRedundancy);
    let flooding = get(SchemeKind::TimeConstrainedFlooding);

    // The paper's availability ordering (Table 2): flooding >= targeted
    // >= two-disjoint >= single path.
    assert!(flooding.unavailable_seconds <= targeted.unavailable_seconds);
    assert!(targeted.unavailable_seconds <= disjoint.unavailable_seconds);
    assert!(disjoint.unavailable_seconds <= single.unavailable_seconds);
    // And the cost ordering: targeted buys its availability far cheaper
    // than flooding.
    assert!(targeted.average_cost < flooding.average_cost);
    assert!(single.average_cost < disjoint.average_cost);

    // Golden values for seed 42. The playback engine is deterministic,
    // so any drift here is a real behaviour change — update these only
    // with an explanation of what changed.
    let golden: Vec<(SchemeKind, u64)> = vec![
        (SchemeKind::StaticSinglePath, single.unavailable_seconds),
        (SchemeKind::StaticTwoDisjoint, disjoint.unavailable_seconds),
        (SchemeKind::TargetedRedundancy, targeted.unavailable_seconds),
        (SchemeKind::TimeConstrainedFlooding, flooding.unavailable_seconds),
    ];
    let expected: Vec<(SchemeKind, u64)> = vec![
        (SchemeKind::StaticSinglePath, GOLDEN_SINGLE),
        (SchemeKind::StaticTwoDisjoint, GOLDEN_DISJOINT),
        (SchemeKind::TargetedRedundancy, GOLDEN_TARGETED),
        (SchemeKind::TimeConstrainedFlooding, GOLDEN_FLOODING),
    ];
    assert_eq!(golden, expected, "fixed-seed Table 2 numbers drifted");
}

// Unavailable seconds per scheme for seed 42 / 600 s / 10 pps, summed
// over the four transcontinental flows.
const GOLDEN_SINGLE: u64 = 952;
const GOLDEN_DISJOINT: u64 = 597;
const GOLDEN_TARGETED: u64 = 66;
const GOLDEN_FLOODING: u64 = 48;

/// Satellite: the sim↔overlay agreement holds on a *generated* overlay
/// too, not just the hand-built 12-site preset. A 50-node
/// ring-of-cliques topology (the scale experiments' family) driven
/// through both stacks with the same two-disjoint scheme on a clean
/// network: both deliver every packet at the same cost, conservation
/// holds exactly, and the overlay side routes through the shared
/// `GraphCache`. (The fault-response agreement is the preset tests' job
/// above.)
#[test]
fn overlay_agrees_with_simulator_on_generated_topology() {
    use dissemination_graphs::topology::generate::{
        feasible_deadline, representative_flows, GeneratorConfig,
    };

    let graph = GeneratorConfig::ring_of_cliques(50, 2017).generate();
    let (src, dst) = *representative_flows(&graph, 1, 2017)
        .first()
        .expect("generated overlays have disjoint-routable flows");
    let flow = Flow::new(src, dst);
    // The generated-topology deadline: ~2x the shortest path.
    let requirement = ServiceRequirement::new(feasible_deadline(&graph, &[(src, dst)], 2.0));
    assert!(requirement.deadline < ms(500));

    let mut sim_scheme = build_scheme(
        SchemeKind::StaticTwoDisjoint,
        &graph,
        flow,
        requirement,
        &SchemeParams::default(),
    )
    .unwrap();
    let traces = TraceSet::clean(graph.edge_count(), 3, Micros::from_secs(10)).unwrap();
    let sim = dissemination_graphs::sim::run_flow(
        &graph,
        &traces,
        sim_scheme.as_mut(),
        &PlaybackConfig {
            packets_per_second: 50,
            deadline: requirement.deadline,
            ..Default::default()
        },
    );
    assert_eq!(sim.packets_sent, sim.packets_delivered + sim.packets_lost);

    // Overlay side: 50 real nodes, same topology and scheme, at calm
    // control-plane cadences — this test measures forwarding agreement,
    // not detector reaction time.
    let mut net = launch(
        &graph,
        ClusterConfig {
            hello_interval: Duration::from_millis(500),
            digest_interval: Duration::from_secs(3),
            ..Default::default()
        },
    );
    net.open_receiver(flow);
    let tx = net.open_sender(flow, SchemeKind::StaticTwoDisjoint, requirement).unwrap();
    let total = 150u64;
    for i in 0..total {
        net.send(tx, format!("{i}").as_bytes());
        net.run_for(ms(5));
    }
    net.run_for(ms(500));
    let report = net.metrics_report();
    // The sender went through the shared scheme cache.
    assert!(net.scheme_cache_stats().baseline.misses >= 1);

    let fr = *report.flow(flow).expect("flow was active");
    assert_eq!(fr.packets_sent, total);
    assert_eq!(fr.packets_sent, fr.packets_delivered + fr.packets_lost);
    // Nothing is lost on either side, and a packet costs both the same.
    assert_eq!((sim.packets_lost, fr.packets_lost), (0, 0));
    assert_eq!(fr.packets_on_time, total, "every packet inside the generated deadline");
    assert_eq!(sim.average_cost(), fr.average_cost());
}
