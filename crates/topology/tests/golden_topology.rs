//! Golden-seed fixture: the 100-node Waxman overlay at seed 2017 —
//! the topology the scale experiments and CI runs anchor on — pinned
//! as a JSON fixture, and the flows and deadlines the benchmarks draw
//! from it pinned inline. Any change to the generator's sampling order,
//! latency model, repair passes or flow sampling that alters these is a
//! breaking change to every recorded benchmark and must show up here,
//! not silently shift results.
//!
//! Regenerate the graph fixture after an *intentional* generator change
//! with: `cargo test -p dg-topology --test golden_topology -- --ignored`

use dg_topology::generate::{GeneratorConfig, TopoSpec};
use dg_topology::{Graph, Micros};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/waxman_100_seed_2017.json")
}

fn golden_graph() -> Graph {
    GeneratorConfig::waxman(100, 2017).generate()
}

#[test]
fn waxman_100_seed_2017_matches_the_golden_fixture() {
    let json = std::fs::read_to_string(fixture_path())
        .expect("fixture exists; regenerate with -- --ignored");
    let fixture: Graph = serde_json::from_str(&json).expect("fixture parses");
    let generated = golden_graph();
    assert_eq!(fixture.node_count(), generated.node_count());
    assert_eq!(fixture.edge_count(), generated.edge_count());
    assert_eq!(fixture, generated, "generator output drifted from the golden fixture");
}

/// Not a test: rewrites the fixture from the current generator.
#[test]
#[ignore = "writes the fixture; run explicitly after intentional generator changes"]
fn regenerate_golden_fixture() {
    let json = serde_json::to_string_pretty(&golden_graph()).expect("graph serializes");
    std::fs::write(fixture_path(), json + "\n").expect("fixture dir is writable");
}

/// The flows `ctrl_churn` measures on this overlay: the 64
/// [`TopoSpec::default_flows`] picks, in order, as `(source,
/// destination)` node indices.
#[rustfmt::skip]
const WAXMAN_FLOWS_64: [(u32, u32); 64] = [
    (1, 81), (81, 1), (74, 1), (65, 47), (52, 1), (79, 65), (15, 1), (32, 0),
    (86, 81), (26, 78), (24, 32), (5, 44), (1, 40), (40, 1), (40, 65), (65, 40),
    (32, 8), (78, 85), (85, 78), (32, 43), (78, 92), (65, 9), (65, 12), (70, 86),
    (70, 17), (79, 25), (69, 1), (98, 15), (81, 43), (39, 26), (17, 74), (81, 3),
    (64, 32), (43, 39), (83, 68), (49, 98), (11, 65), (68, 44), (74, 85), (32, 83),
    (95, 32), (32, 98), (15, 83), (70, 5), (70, 26), (47, 86), (50, 71), (83, 39),
    (19, 1), (25, 68), (98, 1), (93, 20), (94, 65), (74, 26), (69, 65), (0, 39),
    (17, 93), (75, 81), (14, 1), (27, 32), (86, 22), (44, 17), (43, 79), (90, 1),
];

/// `fig8_scale`'s 8 flows at 100 nodes, on this overlay and on the ring
/// of cliques drawn from the same seed.
#[rustfmt::skip]
const WAXMAN_FLOWS_8: [(u32, u32); 8] =
    [(15, 83), (17, 93), (80, 1), (25, 14), (44, 81), (48, 25), (21, 81), (56, 26)];
#[rustfmt::skip]
const RING_FLOWS_8: [(u32, u32); 8] =
    [(20, 73), (83, 34), (71, 21), (11, 62), (14, 64), (86, 36), (14, 63), (63, 14)];

/// The flows and deadline a spec's defaults give for `count` flows.
fn defaults(spec: TopoSpec, count: usize) -> (Vec<(u32, u32)>, Micros) {
    let graph = spec.build();
    let flows = spec.default_flows(&graph, count);
    let deadline = spec.default_deadline(&graph, &flows);
    (flows.iter().map(|&(s, t)| (s.index() as u32, t.index() as u32)).collect(), deadline)
}

#[test]
fn benchmark_flows_and_deadlines_are_pinned() {
    let waxman = TopoSpec::Waxman { nodes: 100, seed: 2017 };
    let ring = TopoSpec::RingOfCliques { nodes: 100, seed: 2017 };
    assert_eq!(defaults(waxman, 64), (WAXMAN_FLOWS_64.to_vec(), Micros::from_millis(19)));
    assert_eq!(defaults(waxman, 8), (WAXMAN_FLOWS_8.to_vec(), Micros::from_millis(14)));
    assert_eq!(defaults(ring, 8), (RING_FLOWS_8.to_vec(), Micros::from_millis(65)));
}
