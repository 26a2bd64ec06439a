//! Micro-benchmarks of the routing algorithms on the evaluation
//! topology — the per-update work a deployed overlay performs.

use criterion::{criterion_group, criterion_main, Criterion};
use dg_topology::algo::disjoint::{disjoint_pair, k_disjoint_paths, Disjointness};
use dg_topology::algo::{dijkstra, maxflow, reach, yen};
use dg_topology::generate::TopoSpec;
use dg_topology::{presets, Micros};
use std::hint::black_box;

fn bench_algorithms(c: &mut Criterion) {
    let graph = presets::north_america_12();
    let s = graph.node_by_name("NYC").unwrap();
    let t = graph.node_by_name("SJC").unwrap();
    let deadline = Micros::from_millis(65);

    let mut group = c.benchmark_group("algorithms");
    group.sample_size(60);

    group.bench_function("dijkstra_shortest_path", |b| {
        b.iter(|| dijkstra::shortest_path(black_box(&graph), s, t).unwrap())
    });
    group.bench_function("dijkstra_all_distances", |b| {
        b.iter(|| dijkstra::distances_from(black_box(&graph), s, |_| true))
    });
    group.bench_function("bhandari_node_disjoint_pair", |b| {
        b.iter(|| disjoint_pair(black_box(&graph), s, t, Disjointness::Node).unwrap())
    });
    group.bench_function("bhandari_3_disjoint", |b| {
        b.iter(|| k_disjoint_paths(black_box(&graph), s, t, 3, Disjointness::Edge).unwrap())
    });
    group.bench_function("yen_4_shortest", |b| {
        b.iter(|| yen::k_shortest_paths(black_box(&graph), s, t, 4).unwrap())
    });
    group.bench_function("time_constrained_edges", |b| {
        b.iter(|| reach::time_constrained_edges(black_box(&graph), s, t, deadline).unwrap())
    });
    group.bench_function("maxflow_disjoint_capacity", |b| {
        b.iter(|| maxflow::max_disjoint_paths(black_box(&graph), s, t, Disjointness::Node))
    });
    group.finish();
}

/// The same algorithms on larger random overlays: the evaluation
/// topology has 12 sites, but a production deployment would not.
fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");
    group.sample_size(30);
    for n in [25usize, 50, 100] {
        // Radius tuned to keep the graph connected but sparse-ish.
        let graph = presets::random_geometric(n, 4_000.0, 1_500.0, 42);
        let s = dg_topology::NodeId::new(0);
        let t = dg_topology::NodeId::new((n - 1) as u32);
        if dijkstra::shortest_path(&graph, s, t).is_err() {
            continue; // disconnected sample; skip rather than bench noise
        }
        group.bench_function(format!("dijkstra/{n}_nodes"), |b| {
            b.iter(|| dijkstra::shortest_path(black_box(&graph), s, t).unwrap())
        });
        if disjoint_pair(&graph, s, t, Disjointness::Node).is_ok() {
            group.bench_function(format!("bhandari_pair/{n}_nodes"), |b| {
                b.iter(|| disjoint_pair(black_box(&graph), s, t, Disjointness::Node).unwrap())
            });
        }
        group.bench_function(format!("flooding_edges/{n}_nodes"), |b| {
            b.iter(|| {
                reach::time_constrained_edges(black_box(&graph), s, t, Micros::from_millis(100))
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// The two searches every dissemination-graph construction starts
/// with, on the control-plane benchmark's topology (Waxman, 100 nodes,
/// its first representative flow and deadline).
fn bench_waxman_100(c: &mut Criterion) {
    let spec = TopoSpec::Waxman { nodes: 100, seed: 2017 };
    let graph = spec.build();
    let flows = spec.default_flows(&graph, 64);
    let deadline = spec.default_deadline(&graph, &flows);
    let (s, t) = flows[0];

    let mut group = c.benchmark_group("waxman_100");
    group.sample_size(60);
    group.bench_function("bhandari_pair", |b| {
        b.iter(|| disjoint_pair(black_box(&graph), s, t, Disjointness::Node).unwrap())
    });
    group.bench_function("time_constrained_edges", |b| {
        b.iter(|| reach::time_constrained_edges(black_box(&graph), s, t, deadline).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_algorithms, bench_scaling, bench_waxman_100);
criterion_main!(benches);
