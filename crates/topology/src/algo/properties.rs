//! Property tests for the routing algorithms, checked against the
//! independent references this module's siblings compile for the tests
//! only: Bellman–Ford distances, Yen's k shortest paths and Suurballe's
//! disjoint pair. First on dense random small graphs, then on the
//! realistic overlays the generator produces — the graphs the scale
//! experiments actually run on — at sizes the paper's 12-site preset
//! never reaches.

use crate::algo::disjoint::{disjoint_pair, k_disjoint_paths, max_disjoint, Disjointness};
use crate::algo::suurballe::suurballe_pair;
use crate::algo::{bellman_ford, dijkstra, reach, yen};
use crate::generate::GeneratorConfig;
use crate::{Graph, GraphBuilder, Micros, NodeId, TopologyError};
use proptest::prelude::*;

/// Builds a random graph from a list of candidate links, silently
/// skipping self-loops and duplicates.
fn build_graph(n: usize, links: &[(usize, usize, u64)]) -> Graph {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(&format!("N{i}"))).collect();
    for &(x, y, lat) in links {
        let (x, y) = (x % n, y % n);
        if x == y {
            continue;
        }
        let _ = b.add_link(nodes[x], nodes[y], Micros::from_micros(lat + 1), 1);
    }
    b.build()
}

fn graph_strategy() -> impl Strategy<Value = Graph> {
    (3usize..10, proptest::collection::vec((0usize..10, 0usize..10, 0u64..50_000), 4..40))
        .prop_map(|(n, links)| build_graph(n, &links))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dijkstra and Bellman–Ford agree on all shortest distances.
    #[test]
    fn dijkstra_matches_bellman_ford(g in graph_strategy()) {
        for s in g.nodes() {
            let fast = dijkstra::distances_from(&g, s, |_| true);
            let slow = bellman_ford::distances_from(&g, s);
            prop_assert_eq!(fast, slow);
        }
    }

    /// Any path returned by Dijkstra has latency equal to the reported
    /// distance and is simple.
    #[test]
    fn dijkstra_paths_are_consistent(g in graph_strategy()) {
        for s in g.nodes() {
            let dist = dijkstra::distances_from(&g, s, |_| true);
            for t in g.nodes() {
                if s == t { continue; }
                match dijkstra::shortest_path(&g, s, t) {
                    Ok(p) => {
                        prop_assert_eq!(p.latency(&g), dist[t.index()]);
                        prop_assert!(p.is_simple(&g));
                    }
                    Err(TopologyError::NoRoute(..)) => {
                        prop_assert!(dist[t.index()].is_unreachable());
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
            }
        }
    }

    /// Bhandari succeeds exactly when max-flow says k paths exist, and
    /// the returned paths are pairwise disjoint in the requested mode.
    #[test]
    fn bhandari_agrees_with_maxflow(g in graph_strategy(), k in 1usize..4) {
        for mode in [Disjointness::Edge, Disjointness::Node] {
            for s in g.nodes() {
                for t in g.nodes() {
                    if s == t { continue; }
                    let capacity = max_disjoint(&g, s, t, mode);
                    match k_disjoint_paths(&g, s, t, k, mode) {
                        Ok(paths) => {
                            prop_assert!(capacity >= k,
                                "bhandari found {k} paths but maxflow says {capacity}");
                            prop_assert_eq!(paths.len(), k);
                            for i in 0..paths.len() {
                                prop_assert!(paths[i].is_simple(&g));
                                for j in (i + 1)..paths.len() {
                                    prop_assert!(paths[i].is_edge_disjoint(&paths[j]));
                                    if mode == Disjointness::Node {
                                        prop_assert!(paths[i].is_node_disjoint(&g, &paths[j]));
                                    }
                                }
                            }
                        }
                        Err(TopologyError::InsufficientDisjointPaths { available, .. }) => {
                            prop_assert_eq!(available, capacity.min(k));
                            prop_assert!(capacity < k);
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
            }
        }
    }

    /// A disjoint pair's total latency is no worse than greedy
    /// shortest-first would achieve (Bhandari is optimal; greedy is a
    /// feasible solution whenever it succeeds).
    #[test]
    fn bhandari_beats_greedy(g in graph_strategy()) {
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t { continue; }
                let Ok(p1) = dijkstra::shortest_path(&g, s, t) else { continue };
                let banned: std::collections::HashSet<_> =
                    p1.edges().iter().copied().collect();
                let Ok(p2) = dijkstra::shortest_path_filtered(&g, s, t,
                    |e| !banned.contains(&e)) else { continue };
                if !p1.is_edge_disjoint(&p2) { continue; }
                let greedy_total = p1.latency(&g) + p2.latency(&g);
                let (q1, q2) = disjoint_pair(
                    &g, s, t, Disjointness::Edge).expect("greedy found a pair");
                prop_assert!(q1.latency(&g) + q2.latency(&g) <= greedy_total);
            }
        }
    }

    /// Yen's paths are sorted, simple, distinct, and start with the
    /// true shortest path.
    #[test]
    fn yen_invariants(g in graph_strategy(), k in 1usize..6) {
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t { continue; }
                let Ok(paths) = yen::k_shortest_paths(&g, s, t, k) else { continue };
                prop_assert!(!paths.is_empty() && paths.len() <= k);
                let sp = dijkstra::shortest_path(&g, s, t).unwrap();
                prop_assert_eq!(paths[0].latency(&g), sp.latency(&g));
                for w in paths.windows(2) {
                    prop_assert!(w[0].latency(&g) <= w[1].latency(&g));
                    prop_assert_ne!(&w[0], &w[1]);
                }
                for p in &paths {
                    prop_assert!(p.is_simple(&g));
                    prop_assert_eq!(p.source(), s);
                    prop_assert_eq!(p.destination(), t);
                }
            }
        }
    }

    /// Every edge of every on-deadline Yen path appears in the
    /// time-constrained flooding edge set.
    #[test]
    fn flooding_covers_all_on_time_paths(g in graph_strategy(), deadline_ms in 1u64..200) {
        let deadline = Micros::from_millis(deadline_ms);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t { continue; }
                let Ok(paths) = yen::k_shortest_paths(&g, s, t, 4) else { continue };
                let edges = reach::time_constrained_edges(&g, s, t, deadline).unwrap();
                for p in paths {
                    if p.latency(&g) <= deadline {
                        for e in p.edges() {
                            prop_assert!(edges.contains(e));
                        }
                    }
                }
            }
        }
    }

    /// Two independent optimal disjoint-pair implementations (Bhandari
    /// over Bellman–Ford, Suurballe over Dijkstra-with-potentials)
    /// agree on success/failure and on the optimal total latency for
    /// every pair on every random graph.
    #[test]
    fn suurballe_agrees_with_bhandari(g in graph_strategy()) {
        for mode in [Disjointness::Edge, Disjointness::Node] {
            for s in g.nodes() {
                for t in g.nodes() {
                    if s == t { continue; }
                    let a = suurballe_pair(&g, s, t, mode);
                    let b = disjoint_pair(&g, s, t, mode);
                    match (a, b) {
                        (Ok((a1, a2)), Ok((b1, b2))) => {
                            prop_assert_eq!(
                                a1.latency(&g) + a2.latency(&g),
                                b1.latency(&g) + b2.latency(&g)
                            );
                            prop_assert!(a1.is_edge_disjoint(&a2));
                            if mode == Disjointness::Node {
                                prop_assert!(a1.is_node_disjoint(&g, &a2));
                            }
                        }
                        (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                        (a, b) => return Err(TestCaseError::fail(
                            format!("disagree for {s}->{t} {mode:?}: {a:?} vs {b:?}"))),
                    }
                }
            }
        }
    }

    /// Graph serde round-trips losslessly.
    #[test]
    fn graph_serde_round_trip(g in graph_strategy()) {
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(g, back);
    }
}

/// A generated overlay plus a deterministic sample of distinct
/// (source, destination) pairs to validate on.
fn topo_with_pairs() -> impl Strategy<Value = (Graph, Vec<(NodeId, NodeId)>)> {
    (
        0usize..2,
        20usize..=60,
        0u64..1_000_000,
        proptest::collection::vec((0usize..1_000, 0usize..1_000), 8),
    )
        .prop_map(|(family, nodes, seed, raw_pairs)| {
            let config = if family == 0 {
                GeneratorConfig::waxman(nodes, seed)
            } else {
                GeneratorConfig::ring_of_cliques(nodes, seed)
            };
            let g = config.generate();
            let n = g.node_count();
            let pairs = raw_pairs
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| (NodeId::new(a as u32), NodeId::new(b as u32)))
                .collect();
            (g, pairs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Suurballe's pair is truly edge-disjoint, simple, and exists
    /// exactly when max-flow admits two edge-disjoint paths — which on
    /// generated overlays (min degree 2, 2-edge-connected backbone) it
    /// must for every sampled pair. Bhandari must agree on the optimal
    /// total latency.
    #[test]
    fn disjoint_pair_implementations_agree_on_generated_topologies(
        (g, pairs) in topo_with_pairs()
    ) {
        for (s, t) in pairs {
            let capacity = max_disjoint(&g, s, t, Disjointness::Edge);
            match suurballe_pair(&g, s, t, Disjointness::Edge) {
                Ok((p1, p2)) => {
                    prop_assert!(capacity >= 2, "pair found but maxflow says {capacity}");
                    prop_assert!(p1.is_simple(&g));
                    prop_assert!(p2.is_simple(&g));
                    prop_assert!(p1.is_edge_disjoint(&p2));
                    prop_assert_eq!((p1.source(), p1.destination()), (s, t));
                    prop_assert_eq!((p2.source(), p2.destination()), (s, t));
                    let (b1, b2) = disjoint_pair(&g, s, t, Disjointness::Edge)
                        .expect("bhandari agrees a pair exists");
                    prop_assert_eq!(
                        p1.latency(&g) + p2.latency(&g),
                        b1.latency(&g) + b2.latency(&g)
                    );
                }
                Err(e) => {
                    prop_assert!(capacity < 2,
                        "maxflow says {capacity} but suurballe failed: {e}");
                }
            }
        }
    }

    /// Yen's k shortest paths on a generated overlay are sorted by
    /// latency, loop-free, distinct, anchored by Dijkstra's optimum,
    /// and connect the requested endpoints.
    #[test]
    fn yen_paths_are_sorted_and_loop_free_on_generated_topologies(
        (g, pairs) in topo_with_pairs(), k in 2usize..6
    ) {
        for (s, t) in pairs {
            let paths = yen::k_shortest_paths(&g, s, t, k)
                .expect("generated overlays are connected");
            prop_assert!(!paths.is_empty() && paths.len() <= k);
            let sp = dijkstra::shortest_path(&g, s, t).unwrap();
            prop_assert_eq!(paths[0].latency(&g), sp.latency(&g));
            for w in paths.windows(2) {
                prop_assert!(w[0].latency(&g) <= w[1].latency(&g));
                prop_assert_ne!(&w[0], &w[1]);
            }
            for p in &paths {
                prop_assert!(p.is_simple(&g), "loopy path from yen");
                prop_assert_eq!((p.source(), p.destination()), (s, t));
            }
        }
    }

    /// Dijkstra and Bellman–Ford agree on every shortest distance from
    /// every sampled source of a generated overlay.
    #[test]
    fn shortest_path_implementations_agree_on_generated_topologies(
        (g, pairs) in topo_with_pairs()
    ) {
        for (s, _) in pairs {
            let fast = dijkstra::distances_from(&g, s, |_| true);
            let slow = bellman_ford::distances_from(&g, s);
            prop_assert_eq!(fast, slow);
        }
    }
}
