//! Bellman–Ford shortest paths.
//!
//! Used in two roles: as a slow oracle for property-testing Dijkstra, and
//! as the negative-weight-capable core of Bhandari's disjoint-path
//! algorithm (which searches residual graphs containing negated arcs).

#[cfg(test)]
use crate::{Graph, Micros, NodeId};

/// A directed arc in an ad-hoc arc list (see [`ArcList`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arc {
    /// Tail node index.
    pub from: usize,
    /// Head node index.
    pub to: usize,
    /// Weight in microseconds; may be negative in residual graphs.
    pub weight: i64,
}

/// A lightweight directed graph given as a plain arc list.
///
/// Bhandari's algorithm builds residual graphs that contain arcs not
/// present in the overlay [`crate::Graph`] (reversed path edges with negated
/// weights), so the Bellman–Ford core operates on this representation.
#[derive(Debug, Clone, Default)]
pub struct ArcList {
    /// Number of nodes; arcs must reference indices `< node_count`.
    pub node_count: usize,
    /// The arcs.
    pub arcs: Vec<Arc>,
}

impl ArcList {
    /// Shortest-path tree from `src`, as `(distance, predecessor arc index)`.
    ///
    /// Unreachable nodes get `i64::MAX` distance and no predecessor. The
    /// residual graphs produced by Bhandari contain negative arcs but no
    /// negative cycles, so plain Bellman–Ford applies.
    pub fn bellman_ford(&self, src: usize) -> (Vec<i64>, Vec<Option<usize>>) {
        let mut dist = vec![i64::MAX; self.node_count];
        let mut prev: Vec<Option<usize>> = vec![None; self.node_count];
        dist[src] = 0;
        for _ in 0..self.node_count.saturating_sub(1) {
            let mut changed = false;
            for (i, a) in self.arcs.iter().enumerate() {
                if dist[a.from] == i64::MAX {
                    continue;
                }
                let nd = dist[a.from] + a.weight;
                if nd < dist[a.to] {
                    dist[a.to] = nd;
                    prev[a.to] = Some(i);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (dist, prev)
    }

    /// Arc indices of a shortest path `src -> dst`, or `None` if unreachable.
    pub fn shortest_path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        let (dist, prev) = self.bellman_ford(src);
        if dist[dst] == i64::MAX {
            return None;
        }
        let mut arcs = Vec::new();
        let mut at = dst;
        while at != src {
            let i = prev[at]?;
            arcs.push(i);
            at = self.arcs[i].from;
        }
        arcs.reverse();
        Some(arcs)
    }
}

/// Shortest distances from `src` in the overlay graph, as an oracle.
///
/// Semantically identical to [`crate::algo::dijkstra::distances_from`]
/// but computed with Bellman–Ford; property tests compare the two.
#[cfg(test)]
pub(crate) fn distances_from(graph: &Graph, src: NodeId) -> Vec<Micros> {
    let arcs = ArcList {
        node_count: graph.node_count(),
        arcs: graph
            .edges()
            .map(|e| {
                let info = graph.edge(e);
                Arc {
                    from: info.src.index(),
                    to: info.dst.index(),
                    weight: info.latency.as_micros() as i64,
                }
            })
            .collect(),
    };
    arcs.bellman_ford(src.index())
        .0
        .into_iter()
        .map(|d| if d == i64::MAX { Micros::MAX } else { Micros::from_micros(d as u64) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algo::dijkstra, GraphBuilder};

    #[test]
    fn handles_negative_arcs() {
        // 0 -> 1 (5), 0 -> 2 (2), 2 -> 1 (-4): best 0 -> 1 is -2 via 2.
        let arcs = ArcList {
            node_count: 3,
            arcs: vec![
                Arc { from: 0, to: 1, weight: 5 },
                Arc { from: 0, to: 2, weight: 2 },
                Arc { from: 2, to: 1, weight: -4 },
            ],
        };
        let (dist, _) = arcs.bellman_ford(0);
        assert_eq!(dist, vec![0, -2, 2]);
        let path = arcs.shortest_path(0, 1).unwrap();
        assert_eq!(path, vec![1, 2]);
    }

    #[test]
    fn unreachable_returns_none() {
        let arcs = ArcList { node_count: 2, arcs: vec![] };
        assert_eq!(arcs.shortest_path(0, 1), None);
        let (dist, _) = arcs.bellman_ford(0);
        assert_eq!(dist[1], i64::MAX);
    }

    #[test]
    fn matches_dijkstra_on_preset() {
        let g = crate::presets::north_america_12();
        for s in g.nodes() {
            let bf = distances_from(&g, s);
            let dj = dijkstra::distances_from(&g, s, |_| true);
            assert_eq!(bf, dj);
        }
    }

    #[test]
    fn empty_path_for_src_equals_dst() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let g = b.build();
        let arcs = ArcList { node_count: g.node_count(), arcs: vec![] };
        assert_eq!(arcs.shortest_path(a.index(), a.index()), Some(vec![]));
    }
}
