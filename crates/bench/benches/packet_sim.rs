//! Throughput of the playback simulator's inner loops, scheme by
//! scheme. `clean/` and `lossy/`: one packet through the event heap
//! (`simulate_packet_with` on a held scratch — `simulate_packet` builds
//! a scratch per call, and timing it times the allocator). `replay/`:
//! a whole 60 s calibrated trace through `run_flow`, which is where the
//! loss-free wavefront answers for most packets; divide by its 6 000
//! packets for the per-packet cost a table2-scale experiment pays.

use criterion::{criterion_group, criterion_main, Criterion};
use dg_core::scheme::{build_scheme, SchemeKind, SchemeParams};
use dg_core::{Flow, ServiceRequirement};
use dg_sim::{run_flow, simulate_packet_with, PlaybackConfig, RecoveryModel, SimScratch};
use dg_topology::{presets, Micros};
use dg_trace::gen::{self, SyntheticWanConfig};
use dg_trace::TraceSet;
use std::hint::black_box;

fn bench_packet_sim(c: &mut Criterion) {
    let graph = presets::north_america_12();
    let flow = Flow::new(graph.node_by_name("NYC").unwrap(), graph.node_by_name("SJC").unwrap());
    let deadline = Micros::from_millis(65);
    let recovery = RecoveryModel::default();
    let clean = TraceSet::clean(graph.edge_count(), 6, Micros::from_secs(10)).unwrap();
    let mut wan = SyntheticWanConfig::calibrated(3);
    wan.duration = Micros::from_secs(60);
    wan.node_problems.events_per_hour = 30.0;
    let lossy = gen::generate(&graph, &wan);
    let mut calibrated = SyntheticWanConfig::calibrated(2017);
    calibrated.duration = Micros::from_secs(60);
    let calibrated = gen::generate(&graph, &calibrated);

    let mut group = c.benchmark_group("packet_sim");
    group.sample_size(60);
    for kind in [
        SchemeKind::StaticSinglePath,
        SchemeKind::StaticTwoDisjoint,
        SchemeKind::TargetedRedundancy,
        SchemeKind::TimeConstrainedFlooding,
    ] {
        let build = || {
            build_scheme(
                kind,
                &graph,
                flow,
                ServiceRequirement::default(),
                &SchemeParams::default(),
            )
            .unwrap()
        };
        let dg = build().current().clone();
        let mut scratch = SimScratch::new();
        scratch.index_graph(&graph, &dg);
        for (name, traces, at) in
            [("clean", &clean, Micros::from_secs(1)), ("lossy", &lossy, Micros::from_secs(30))]
        {
            group.bench_function(format!("{name}/{}", kind.label()), |b| {
                let mut seq = 0u64;
                b.iter(|| {
                    seq += 1;
                    simulate_packet_with(
                        &mut scratch,
                        black_box(&graph),
                        black_box(&dg),
                        traces,
                        at,
                        deadline,
                        &recovery,
                        7,
                        seq,
                    )
                })
            });
        }
        group.bench_function(format!("replay/{}", kind.label()), |b| {
            let mut scheme = build();
            let config = PlaybackConfig::default();
            b.iter(|| run_flow(black_box(&graph), &calibrated, scheme.as_mut(), &config))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_packet_sim);
criterion_main!(benches);
