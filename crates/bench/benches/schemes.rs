//! Benchmarks of scheme lifecycle operations: construction (route
//! precomputation), per-update reaction to link state, and the
//! dissemination-graph bitmask codec used on the wire.

use criterion::{criterion_group, criterion_main, Criterion};
use dg_core::scheme::{build_scheme, SchemeKind, SchemeParams};
use dg_core::{
    CachedGraphKind, DisseminationGraph, Flow, GraphCache, MulticastKind, ServiceRequirement,
};
use dg_topology::generate::TopoSpec;
use dg_topology::{presets, Micros, NodeId};
use dg_trace::{LinkCondition, NetworkState};
use std::hint::black_box;

fn bench_schemes(c: &mut Criterion) {
    let graph = presets::north_america_12();
    let flow = Flow::new(graph.node_by_name("NYC").unwrap(), graph.node_by_name("SJC").unwrap());
    let req = ServiceRequirement::default();
    let params = SchemeParams::default();

    let mut group = c.benchmark_group("schemes");
    group.sample_size(60);

    for kind in [
        SchemeKind::StaticTwoDisjoint,
        SchemeKind::TargetedRedundancy,
        SchemeKind::TimeConstrainedFlooding,
    ] {
        group.bench_function(format!("construct/{}", kind.label()), |b| {
            b.iter(|| build_scheme(kind, black_box(&graph), flow, req, &params).unwrap())
        });
    }

    // Per-update cost, clean state vs a source problem.
    let clean = NetworkState::clean(graph.edge_count(), Micros::ZERO);
    let mut problem = clean.clone();
    for &e in graph.out_edges(flow.source) {
        problem.set_condition(e, LinkCondition::new(0.4, Micros::ZERO));
    }
    for kind in [SchemeKind::DynamicTwoDisjoint, SchemeKind::TargetedRedundancy] {
        let mut scheme = build_scheme(kind, &graph, flow, req, &params).unwrap();
        group.bench_function(format!("update_clean/{}", kind.label()), |b| {
            b.iter(|| black_box(scheme.update(&graph, &clean)))
        });
        let mut scheme = build_scheme(kind, &graph, flow, req, &params).unwrap();
        group.bench_function(format!("update_problem/{}", kind.label()), |b| {
            b.iter(|| black_box(scheme.update(&graph, &problem)))
        });
    }

    // Bitmask codec (the per-packet header work a source performs).
    let flood =
        build_scheme(SchemeKind::TimeConstrainedFlooding, &graph, flow, req, &params).unwrap();
    let dg = flood.current().clone();
    let mask = dg.to_bitmask(graph.edge_count());
    group.bench_function("bitmask_encode", |b| {
        b.iter(|| black_box(dg.to_bitmask(graph.edge_count())))
    });
    group.bench_function("bitmask_decode", |b| {
        b.iter(|| {
            DisseminationGraph::from_bitmask(
                black_box(&graph),
                flow.source,
                flow.destination,
                &mask,
            )
            .unwrap()
        })
    });
    group.finish();
}

/// Cold constructions on the control-plane benchmark's topology
/// (Waxman, 100 nodes): what a `GraphCache` miss of each tier costs.
fn bench_waxman_100(c: &mut Criterion) {
    let spec = TopoSpec::Waxman { nodes: 100, seed: 2017 };
    let graph = spec.build();
    let flows = spec.default_flows(&graph, 64);
    let req = ServiceRequirement::new(spec.default_deadline(&graph, &flows));
    let flow = Flow::new(flows[0].0, flows[0].1);
    let params = SchemeParams::default();
    let receivers: Vec<NodeId> = flows[1..7].iter().map(|&(_, t)| t).collect();

    let mut group = c.benchmark_group("waxman_100");
    group.sample_size(60);
    group.bench_function("construct/targeted", |b| {
        let kind = SchemeKind::TargetedRedundancy;
        b.iter(|| build_scheme(kind, black_box(&graph), flow, req, &params).unwrap())
    });
    let cache = GraphCache::new(graph.clone(), params);
    group.bench_function("live/robust", |b| {
        b.iter(|| cache.compute_uncached(black_box(flow), CachedGraphKind::Robust, req).unwrap())
    });
    group.bench_function("multicast/targeted", |b| {
        let kind = MulticastKind::Targeted;
        b.iter(|| {
            cache.compute_multicast_uncached(flow.source, black_box(&receivers), kind, req).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_schemes, bench_waxman_100);
criterion_main!(benches);
