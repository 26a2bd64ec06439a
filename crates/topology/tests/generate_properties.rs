//! Property battery for the topology generator (`dg_topology::generate`).
//!
//! Every generated overlay — both families, any seed, 50..=120 nodes —
//! must satisfy the structural contract the rest of the reproduction
//! builds on: connected, bidirectionally symmetric, latencies inside
//! the fibre-factor envelope implied by the stored site positions, and
//! bit-identical regeneration from an equal config (including a config
//! that took a serde round trip). The flow sampler must pick what its
//! definition picks, on generated graphs and on hand-built ones whose
//! longest candidates lack two disjoint routes.

use dg_topology::algo::dijkstra;
use dg_topology::algo::disjoint::{max_disjoint, Disjointness};
use dg_topology::generate::{representative_flows, CostModel, GeneratorConfig};
use dg_topology::{EdgeId, Graph, GraphBuilder, Micros, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// Both families over the size band the scale experiments sweep.
fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (0usize..2, 50usize..=120, 0u64..1_000_000).prop_map(|(family, nodes, seed)| {
        if family == 0 {
            GeneratorConfig::waxman(nodes, seed)
        } else {
            GeneratorConfig::ring_of_cliques(nodes, seed)
        }
    })
}

/// Nodes reachable from node 0 along directed edges.
fn reachable_count(g: &Graph) -> usize {
    let mut seen = vec![false; g.node_count()];
    let mut queue = VecDeque::from([NodeId::new(0)]);
    seen[0] = true;
    let mut count = 1;
    while let Some(u) = queue.pop_front() {
        for &e in g.out_edges(u) {
            let v = g.edge(e).dst;
            if !seen[v.index()] {
                seen[v.index()] = true;
                count += 1;
                queue.push_back(v);
            }
        }
    }
    count
}

/// [`representative_flows`] by its definition: the same candidates,
/// each one priced by its own search and checked for two node-disjoint
/// routes, then ranked by latency (highest first, ties by node ids) and
/// cut to `count`.
fn reference_flows(graph: &Graph, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = graph.node_count();
    if n < 2 || count == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut scored = Vec::new();
    for _ in 0..(count * 20).max(64) {
        let s = NodeId::new(rng.gen_range(0..n) as u32);
        let t = NodeId::new(rng.gen_range(0..n) as u32);
        if s == t || !seen.insert((s, t)) {
            continue;
        }
        let Ok(path) = dijkstra::shortest_path(graph, s, t) else { continue };
        if max_disjoint(graph, s, t, Disjointness::Node) >= 2 {
            scored.push((path.latency(graph), s, t));
        }
    }
    scored.sort_by(|a, b| (b.0, a.1, a.2).cmp(&(a.0, b.1, b.2)));
    scored.truncate(count);
    scored.into_iter().map(|(_, s, t)| (s, t)).collect()
}

/// A 2-connected core of four metro sites, and around it what the
/// sampler must pass over: a far triangle hung off a cut vertex (`D`),
/// a far site reached by a one-way link only (`G`), and a far pair
/// with no route to or from the rest (`I`, `J`). The far sites make the
/// pairs that fail the check the longest ones.
fn hazards() -> Graph {
    let mut b = GraphBuilder::new();
    let [a, bb, c, d, e, f, g, i, j] =
        ["A", "B", "C", "D", "E", "F", "G", "I", "J"].map(|name| b.add_node(name));
    let ms = Micros::from_millis;
    for (x, y, lat) in [(a, bb, 1), (bb, c, 1), (c, d, 1), (d, a, 1), (a, c, 2)] {
        b.add_link(x, y, ms(lat), 1).unwrap();
    }
    // Cut vertex: E and F reach the core only through D.
    for (x, y, lat) in [(d, e, 20), (e, f, 3), (f, d, 20)] {
        b.add_link(x, y, ms(lat), 1).unwrap();
    }
    // One way: G sends into the core and hears nothing back.
    b.add_edge(g, bb, ms(30), 1).unwrap();
    // Unreachable: I and J have only each other.
    b.add_link(i, j, ms(40), 1).unwrap();
    b.build()
}

#[test]
fn sampler_passes_over_candidates_without_two_disjoint_routes() {
    let g = hazards();
    // The eight longest routable pairs all fail the check, so the walk
    // down the ranking skips whichever of them were sampled.
    let mut ranked: Vec<(Micros, NodeId, NodeId)> = g
        .nodes()
        .flat_map(|s| g.nodes().map(move |t| (s, t)))
        .filter_map(|(s, t)| Some((dijkstra::shortest_path(&g, s, t).ok()?.latency(&g), s, t)))
        .collect();
    ranked.sort_by_key(|&(latency, _, _)| std::cmp::Reverse(latency));
    assert!(ranked[..8].iter().all(|&(_, s, t)| max_disjoint(&g, s, t, Disjointness::Node) < 2));
    for seed in 0..16 {
        for count in [1, 2, 4, 8, 64] {
            let flows = representative_flows(&g, count, seed);
            assert!(!flows.is_empty(), "seed {seed} count {count}");
            assert_eq!(flows, reference_flows(&g, count, seed), "seed {seed} count {count}");
        }
    }
}

proptest! {
    // Each case runs the reference's max-flow on every candidate.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On generated graphs of both families the sampler picks exactly
    /// what its definition picks.
    #[test]
    fn sampler_matches_its_definition(
        config in config_strategy(),
        count in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let count = [1, 4, 8, 64][count];
        let g = config.generate();
        prop_assert_eq!(representative_flows(&g, count, seed), reference_flows(&g, count, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every generated overlay is connected: all sites reachable from
    /// site 0 (with symmetry, that is full strong connectivity).
    #[test]
    fn generated_topologies_are_connected(config in config_strategy()) {
        let g = config.generate();
        prop_assert!(g.node_count() >= 3);
        prop_assert_eq!(reachable_count(&g), g.node_count());
    }

    /// Links come in direction pairs with identical latency and cost:
    /// for every edge u->v there is exactly one v->u with equal
    /// metadata, and no (u, v) appears twice.
    #[test]
    fn generated_links_are_bidirectionally_symmetric(config in config_strategy()) {
        let g = config.generate();
        let mut by_pair: HashMap<(NodeId, NodeId), EdgeId> = HashMap::new();
        for e in g.edges() {
            let info = g.edge(e);
            prop_assert_ne!(info.src, info.dst, "self-loop generated");
            prop_assert!(
                by_pair.insert((info.src, info.dst), e).is_none(),
                "duplicate link {:?}->{:?}", info.src, info.dst
            );
        }
        for e in g.edges() {
            let info = g.edge(e);
            let rev = by_pair.get(&(info.dst, info.src)).copied();
            prop_assert!(rev.is_some(), "missing reverse of {:?}->{:?}", info.src, info.dst);
            let rev = g.edge(rev.unwrap());
            prop_assert_eq!(info.latency, rev.latency);
            prop_assert_eq!(info.cost, rev.cost);
        }
    }

    /// Every link's latency sits inside the fibre-factor envelope for
    /// the great-circle distance between its endpoints' stored
    /// positions, and its cost matches the cost model. The graph is
    /// self-describing: metadata is recomputable from positions alone.
    #[test]
    fn generated_latencies_respect_the_fiber_envelope(config in config_strategy()) {
        let g = config.generate();
        for e in g.edges() {
            let info = g.edge(e);
            let a = g.node(info.src).position.expect("generated sites carry positions");
            let b = g.node(info.dst).position.expect("generated sites carry positions");
            let km = a.distance_km(&b);
            let (lo, hi) = config.latency.bounds_for_km(km);
            prop_assert!(
                (lo..=hi).contains(&info.latency),
                "latency {} outside [{lo}, {hi}] for a {km:.1} km link",
                info.latency
            );
            let expected_cost = match config.cost {
                CostModel::Uniform(c) => c,
                CostModel::DistanceBanded { base, per_1000_km } =>
                    base + per_1000_km * (km / 1000.0).ceil().max(0.0) as u32,
            };
            prop_assert_eq!(info.cost, expected_cost);
            prop_assert!(info.latency >= Micros::from_micros(config.latency.hop_overhead_us));
        }
    }

    /// Equal configs regenerate bit-identical graphs, including a
    /// config that took a serde round trip (the cache-fixture
    /// guarantee: persist the config, not the graph).
    #[test]
    fn generation_is_seed_deterministic_and_serde_stable(config in config_strategy()) {
        let first = config.generate();
        prop_assert_eq!(&first, &config.generate());

        let json = serde_json::to_string(&config).unwrap();
        let back: GeneratorConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, config);
        prop_assert_eq!(&back.generate(), &first);

        let graph_json = serde_json::to_string(&first).unwrap();
        let graph_back: Graph = serde_json::from_str(&graph_json).unwrap();
        prop_assert_eq!(&graph_back, &first);
    }

    /// Different seeds differ (the generator actually randomises): two
    /// Waxman draws of the same size from distinct seeds are unequal.
    #[test]
    fn distinct_seeds_produce_distinct_graphs(nodes in 50usize..=120, seed in 0u64..1_000_000) {
        let a = GeneratorConfig::waxman(nodes, seed).generate();
        let b = GeneratorConfig::waxman(nodes, seed + 1).generate();
        prop_assert_ne!(a, b);
    }
}
