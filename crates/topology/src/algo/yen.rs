//! Yen's algorithm for K shortest loopless paths: a test reference.
//! The property suite checks Dijkstra's optimum and time-constrained
//! flooding's edge set against the ranked paths it enumerates.

use crate::algo::dijkstra;
use crate::{Graph, NodeId, Path, TopologyError};
use std::collections::HashSet;

/// Returns up to `k` shortest loopless paths from `src` to `dst`,
/// ordered by latency (ties broken deterministically by edge sequence).
///
/// Fewer than `k` paths are returned when the graph does not contain
/// `k` distinct simple paths.
///
/// # Errors
///
/// Returns [`TopologyError::NoRoute`] when no path at all exists (or
/// `src == dst`), and endpoint validation errors.
pub fn k_shortest_paths(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Result<Vec<Path>, TopologyError> {
    graph.check_node(src)?;
    graph.check_node(dst)?;
    if k == 0 {
        return Ok(Vec::new());
    }
    let first = dijkstra::shortest_path(graph, src, dst)?;
    let mut accepted: Vec<Path> = vec![first];
    let mut candidates: Vec<Path> = Vec::new();

    while accepted.len() < k {
        let last = accepted.last().expect("accepted is non-empty").clone();
        let last_nodes = last.nodes(graph);
        // Deviate at every prefix of the most recently accepted path.
        for i in 0..last.len() {
            let spur_node = last_nodes[i];
            let root_edges = &last.edges()[..i];

            // Ban edges that would recreate an already-accepted path with
            // the same prefix, and ban root nodes to keep paths simple.
            let mut banned_edges: HashSet<_> = HashSet::new();
            for p in accepted.iter().chain(candidates.iter()) {
                if p.edges().len() > i && p.edges()[..i] == *root_edges {
                    banned_edges.insert(p.edges()[i]);
                }
            }
            let banned_nodes: HashSet<NodeId> = last_nodes[..i].iter().copied().collect();

            let spur = dijkstra::shortest_path_filtered(graph, spur_node, dst, |e| {
                let info = graph.edge(e);
                !banned_edges.contains(&e)
                    && !banned_nodes.contains(&info.src)
                    && !banned_nodes.contains(&info.dst)
            });
            if let Ok(spur_path) = spur {
                let mut edges = root_edges.to_vec();
                edges.extend_from_slice(spur_path.edges());
                let candidate = Path::new(graph, edges).expect("spur joins root");
                if !accepted.contains(&candidate) && !candidates.contains(&candidate) {
                    candidates.push(candidate);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Take the best candidate (lowest latency, deterministic ties).
        candidates.sort_by_key(|p| (p.latency(graph), p.edges().to_vec()));
        accepted.push(candidates.remove(0));
    }
    Ok(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Micros};

    fn square() -> Graph {
        // A - B
        // |   |
        // C - D   plus diagonal A - D
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let nb = b.add_node("B");
        let nc = b.add_node("C");
        let nd = b.add_node("D");
        b.add_link(a, nb, Micros::from_millis(1), 1).unwrap();
        b.add_link(a, nc, Micros::from_millis(2), 1).unwrap();
        b.add_link(nb, nd, Micros::from_millis(2), 1).unwrap();
        b.add_link(nc, nd, Micros::from_millis(2), 1).unwrap();
        b.add_link(a, nd, Micros::from_millis(5), 1).unwrap();
        b.build()
    }

    #[test]
    fn returns_paths_in_latency_order() {
        let g = square();
        let a = g.node_by_name("A").unwrap();
        let d = g.node_by_name("D").unwrap();
        let paths = k_shortest_paths(&g, a, d, 3).unwrap();
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].display(&g), "A -> B -> D");
        assert_eq!(paths[1].display(&g), "A -> C -> D");
        assert_eq!(paths[2].display(&g), "A -> D");
        for w in paths.windows(2) {
            assert!(w[0].latency(&g) <= w[1].latency(&g));
        }
    }

    #[test]
    fn all_paths_are_simple_and_distinct() {
        let g = crate::presets::north_america_12();
        let s = g.node_by_name("NYC").unwrap();
        let t = g.node_by_name("SEA").unwrap();
        let paths = k_shortest_paths(&g, s, t, 8).unwrap();
        assert!(paths.len() >= 4);
        for (i, p) in paths.iter().enumerate() {
            assert!(p.is_simple(&g), "path {i} has a loop");
            assert_eq!(p.source(), s);
            assert_eq!(p.destination(), t);
            for q in &paths[..i] {
                assert_ne!(p, q);
            }
        }
    }

    #[test]
    fn truncates_when_fewer_paths_exist() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let z = b.add_node("Z");
        b.add_link(a, z, Micros::from_millis(1), 1).unwrap();
        let g = b.build();
        let paths = k_shortest_paths(&g, a, z, 5).unwrap();
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn k_zero_yields_empty() {
        let g = square();
        let a = g.node_by_name("A").unwrap();
        let d = g.node_by_name("D").unwrap();
        assert!(k_shortest_paths(&g, a, d, 0).unwrap().is_empty());
    }

    #[test]
    fn no_route_is_an_error() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let z = b.add_node("Z");
        let g = b.build();
        assert_eq!(k_shortest_paths(&g, a, z, 2), Err(TopologyError::NoRoute(a, z)));
    }
}
