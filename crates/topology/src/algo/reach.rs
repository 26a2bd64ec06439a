//! Time-constrained reachability: the edge set of deadline flooding.
//!
//! The paper's optimal-but-expensive benchmark, *time-constrained
//! flooding*, forwards every packet on every edge that can still
//! contribute to on-time delivery. An edge `(u, v)` qualifies when the
//! fastest route `source -> u`, plus the edge itself, plus the fastest
//! route `v -> destination` fits within the deadline.

use crate::algo::dijkstra::{self, Direction};
use crate::algo::SearchWorkspace;
use crate::cache::EdgeSet;
use crate::{EdgeId, Graph, Micros, NodeId, TopologyError};

/// Edges that can lie on some route from `src` to `dst` whose total
/// baseline latency is at most `deadline`.
///
/// The result is empty when even the shortest path misses the deadline.
///
/// # Errors
///
/// Returns endpoint validation errors and [`TopologyError::NoRoute`]
/// when `src == dst`.
///
/// # Example
///
/// ```
/// use dg_topology::{presets, Micros, algo::reach};
///
/// let g = presets::north_america_12();
/// let s = g.node_by_name("NYC").unwrap();
/// let t = g.node_by_name("SJC").unwrap();
/// let edges = reach::time_constrained_edges(&g, s, t, Micros::from_millis(65))?;
/// assert!(!edges.is_empty());
/// # Ok::<(), dg_topology::TopologyError>(())
/// ```
pub fn time_constrained_edges(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    deadline: Micros,
) -> Result<Vec<EdgeId>, TopologyError> {
    let mut ws = SearchWorkspace::new();
    let from_src = ws.reach_pass(graph, src, Direction::Forward)?.to_vec();
    let to_dst = ws.reach_pass(graph, dst, Direction::Backward)?;
    if src == dst {
        return Err(TopologyError::NoRoute(src, dst));
    }
    let reach = Reach { from_src: &from_src, to_dst };
    Ok(graph.edges().filter(|&e| reach.in_time(graph, e, deadline)).collect())
}

/// A flow's reach pass: the plain-latency distance, in µs, over the
/// whole graph from its source to every node (`from_src`) and from every
/// node to its destination (`to_dst`), [`u64::MAX`] where there is no
/// route. Each side is one [`SearchWorkspace::reach_pass`].
///
/// It depends on the topology alone — not on link state, deadlines or
/// the other endpoint — so a caller building many graphs on one
/// topology computes each endpoint's side once and keeps it. The
/// distances are also lower bounds on any route over a subgraph, which
/// is what makes them floors for goal-directed searches.
#[derive(Debug, Clone, Copy)]
pub struct Reach<'a> {
    /// Distance from the source, by node index.
    pub from_src: &'a [u64],
    /// Distance to the destination, by node index.
    pub to_dst: &'a [u64],
}

impl Reach<'_> {
    /// Whether `e` fits: fastest route to its tail, the edge itself and
    /// the fastest route on from its head, against `deadline`.
    fn in_time(&self, graph: &Graph, e: EdgeId, deadline: Micros) -> bool {
        let info = graph.edge(e);
        let head = self.from_src[info.src.index()];
        let tail = self.to_dst[info.dst.index()];
        if head == u64::MAX || tail == u64::MAX {
            return false;
        }
        head.saturating_add(info.latency.as_micros()).saturating_add(tail) <= deadline.as_micros()
    }

    /// [`time_constrained_edges`] as a bitmap: `out` is cleared and then
    /// holds exactly the edges that fit.
    pub fn in_time_edges(&self, graph: &Graph, deadline: Micros, out: &mut EdgeSet) {
        out.clear();
        for e in graph.edges().filter(|&e| self.in_time(graph, e, deadline)) {
            out.insert(e);
        }
    }
}

/// True when the shortest route meets the deadline at baseline latency.
pub fn deadline_feasible(graph: &Graph, src: NodeId, dst: NodeId, deadline: Micros) -> bool {
    match dijkstra::shortest_path(graph, src, dst) {
        Ok(p) => p.latency(graph) <= deadline,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algo::dijkstra, GraphBuilder};

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let fast = b.add_node("F");
        let slow = b.add_node("S");
        let z = b.add_node("Z");
        b.add_link(a, fast, Micros::from_millis(1), 1).unwrap();
        b.add_link(fast, z, Micros::from_millis(1), 1).unwrap();
        b.add_link(a, slow, Micros::from_millis(10), 1).unwrap();
        b.add_link(slow, z, Micros::from_millis(10), 1).unwrap();
        b.build()
    }

    #[test]
    fn tight_deadline_keeps_only_fast_route() {
        let g = diamond();
        let a = g.node_by_name("A").unwrap();
        let z = g.node_by_name("Z").unwrap();
        let edges = time_constrained_edges(&g, a, z, Micros::from_millis(3)).unwrap();
        let names: Vec<String> = edges
            .iter()
            .map(|&e| {
                let i = g.edge(e);
                format!("{}->{}", g.node(i.src).name, g.node(i.dst).name)
            })
            .collect();
        assert!(names.contains(&"A->F".to_string()));
        assert!(names.contains(&"F->Z".to_string()));
        assert!(!names.iter().any(|n| n.contains('S')));
    }

    #[test]
    fn loose_deadline_admits_everything_useful() {
        let g = diamond();
        let a = g.node_by_name("A").unwrap();
        let z = g.node_by_name("Z").unwrap();
        let edges = time_constrained_edges(&g, a, z, Micros::from_millis(100)).unwrap();
        // Forward edges of both routes qualify; backward edges (Z->F etc.)
        // also qualify under a loose enough deadline since they can sit on
        // no useful route only if head/tail distances exceed it.
        assert!(edges.len() >= 4);
    }

    #[test]
    fn impossible_deadline_yields_empty_set() {
        let g = diamond();
        let a = g.node_by_name("A").unwrap();
        let z = g.node_by_name("Z").unwrap();
        let edges = time_constrained_edges(&g, a, z, Micros::from_micros(10)).unwrap();
        assert!(edges.is_empty());
        assert!(!deadline_feasible(&g, a, z, Micros::from_micros(10)));
        assert!(deadline_feasible(&g, a, z, Micros::from_millis(2)));
    }

    #[test]
    fn every_shortest_path_edge_is_included() {
        let g = crate::presets::north_america_12();
        let s = g.node_by_name("BOS").unwrap();
        let t = g.node_by_name("LAX").unwrap();
        let sp = dijkstra::shortest_path(&g, s, t).unwrap();
        let deadline = sp.latency(&g);
        let edges = time_constrained_edges(&g, s, t, deadline).unwrap();
        for e in sp.edges() {
            assert!(edges.contains(e));
        }
    }

    #[test]
    fn rejects_self_flow() {
        let g = diamond();
        let a = g.node_by_name("A").unwrap();
        assert!(time_constrained_edges(&g, a, a, Micros::from_millis(1)).is_err());
    }
}
