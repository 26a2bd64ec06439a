//! Refactor-grade golden: complete playback statistics and graph edge
//! lists for a fixed seed, compared byte for byte against
//! `tests/fixtures/golden_playback.json`.
//!
//! `golden_table2_ordering_is_stable_for_fixed_seed` pins four integers;
//! this pins everything a rewrite of the packet loop, the worker pool,
//! the targeted-graph builder or the cache tiers could disturb: every
//! `FlowRunStats` field for all six schemes, and the exact edge sets of
//! the targeted bundle, the live tier and the multicast tier — clean
//! and with one link unusable.
//!
//! The fixture is regenerated with
//! `cargo test --test golden_playback -- --ignored regenerate_fixture`;
//! do that only together with an explanation of what changed.

use dissemination_graphs::core::scheme::{SchemeParams, TargetedGraphs};
use dissemination_graphs::core::{CachedGraphKind, GraphCache, MulticastKind};
use dissemination_graphs::prelude::*;
use dissemination_graphs::sim::FlowRunStats;
use dissemination_graphs::topology::presets;
use dissemination_graphs::trace::gen;
use serde::Serialize;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_playback.json");

/// One named edge list (edge ids in ascending order).
#[derive(Serialize)]
struct NamedGraph {
    name: String,
    edges: Vec<u32>,
}

#[derive(Serialize)]
struct Golden {
    flows: Vec<FlowRunStats>,
    graphs: Vec<NamedGraph>,
}

fn named(name: impl Into<String>, edges: &[topology::EdgeId]) -> NamedGraph {
    NamedGraph { name: name.into(), edges: edges.iter().map(|e| e.index() as u32).collect() }
}

fn golden() -> Golden {
    let graph = presets::north_america_12();
    let mut wan = SyntheticWanConfig::calibrated(42);
    wan.duration = Micros::from_secs(120);
    // The calibrated rates put roughly one problem in a day; raise them
    // so two minutes contain losses, late packets and reroutes.
    wan.node_problems.events_per_hour = 40.0;
    wan.link_problems.events_per_hour = 30.0;
    let traces = gen::generate(&graph, &wan);
    let config = PlaybackConfig { packets_per_second: 20, seed: 42, ..Default::default() };
    let requirement = ServiceRequirement::default();
    let node = |name: &str| graph.node_by_name(name).expect("preset site");

    // (a) Every scheme over every transcontinental flow.
    let jobs: Vec<FlowJob> = SchemeKind::ALL
        .iter()
        .flat_map(|&kind| {
            presets::transcontinental_flows(&graph).into_iter().map(move |(s, t)| FlowJob {
                kind,
                flow: Flow::new(s, t),
                requirement,
            })
        })
        .collect();
    let flows = run_flows(&graph, &traces, &jobs, &config, 1).expect("flows are routable");

    // (b) Edge lists of every graph builder, clean and with one in-edge
    // of SJC past the unusable threshold.
    let nyc = node("NYC");
    let sjc = node("SJC");
    let five: Vec<NodeId> = ["SJC", "LAX", "SEA", "DEN", "MIA"].into_iter().map(node).collect();
    let flow = Flow::new(nyc, sjc);
    let mut graphs = Vec::new();
    let bundle = TargetedGraphs::compute(&graph, flow, requirement, &SchemeParams::default())
        .expect("targeted bundle");
    graphs.push(named("targeted/normal", bundle.normal.edges()));
    graphs.push(named("targeted/source_problem", bundle.source_problem.edges()));
    graphs.push(named("targeted/destination_problem", bundle.destination_problem.edges()));
    graphs.push(named("targeted/robust", bundle.robust.edges()));
    let cache = GraphCache::new(graph.clone(), SchemeParams::default());
    for state in ["clean", "lossy"] {
        if state == "lossy" {
            assert!(cache.note_loss(graph.in_edges(sjc)[0], 0.9), "the report flips the link");
        }
        for kind in CachedGraphKind::ALL {
            let live = cache.live(flow, kind, requirement).expect("live graph");
            graphs.push(named(format!("live/{state}/{kind:?}"), live.edges()));
        }
        for kind in MulticastKind::ALL {
            let group = cache.multicast(nyc, &five, kind, requirement).expect("multicast graph");
            graphs.push(named(format!("multicast/{state}/{kind}"), group.edges()));
        }
    }
    Golden { flows, graphs }
}

fn render() -> String {
    serde_json::to_string_pretty(&golden()).expect("golden serializes") + "\n"
}

#[test]
fn playback_and_graphs_match_the_fixture() {
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture is committed");
    let actual = render();
    if actual != expected {
        let line = actual.lines().zip(expected.lines()).position(|(a, e)| a != e);
        panic!(
            "golden playback drifted from {FIXTURE} (first differing line: {:?}); \
             a refactor must leave this byte-identical",
            line.map(|l| l + 1)
        );
    }
}

#[test]
#[ignore = "rewrites the committed fixture"]
fn regenerate_fixture() {
    std::fs::write(FIXTURE, render()).expect("fixture is writable");
}
