//! Time-constrained reachability: the edge set of deadline flooding.
//!
//! The paper's optimal-but-expensive benchmark, *time-constrained
//! flooding*, forwards every packet on every edge that can still
//! contribute to on-time delivery. An edge `(u, v)` qualifies when the
//! fastest route `source -> u`, plus the edge itself, plus the fastest
//! route `v -> destination` fits within the deadline.

use crate::algo::dijkstra::{self, latency_where, Direction};
use crate::algo::workspace::LastSearch;
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
    ws.reach_from(graph, src)?;
    ws.reach_to(graph, dst)?;
    Ok(graph.edges().filter(|&e| ws.in_time(graph, e, deadline)).collect())
}

impl SearchWorkspace {
    /// [`time_constrained_edges`] on this workspace, as a bitmap:
    /// `out` is cleared and then holds exactly the qualifying edges.
    ///
    /// # Errors
    ///
    /// Same conditions as [`time_constrained_edges`].
    pub fn time_constrained_edges(
        &mut self,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        deadline: Micros,
        out: &mut EdgeSet,
    ) -> Result<(), TopologyError> {
        self.reach_from(graph, src)?;
        self.time_constrained_edges_to(graph, dst, deadline, out)
    }

    /// The source pass of [`SearchWorkspace::time_constrained_edges`]
    /// alone: flows that share `src` run it once and then call
    /// [`SearchWorkspace::time_constrained_edges_to`] per destination.
    /// Other searches on the workspace in between leave it in place.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownNode`] for an out-of-range `src`.
    pub fn reach_from(&mut self, graph: &Graph, src: NodeId) -> Result<(), TopologyError> {
        graph.check_node(src)?;
        self.search(graph, src, Direction::Forward, None, latency_where(graph, |_| true));
        std::mem::swap(&mut self.dist, &mut self.from_src);
        // What `dist` took in exchange belongs to no search.
        self.origin = None;
        self.last = LastSearch::Other;
        self.reach_src = Some(src);
        Ok(())
    }

    /// The last reach pass's plain-latency distances, in µs, from its
    /// source to `node` and from `node` to its destination
    /// ([`u64::MAX`] where there is no route). The destination side is
    /// that of the last [`SearchWorkspace::time_constrained_edges_to`];
    /// other searches in between leave both in place.
    pub fn reach_distances(&self, node: NodeId) -> (u64, u64) {
        let at = |side: &[u64]| side.get(node.index()).copied().unwrap_or(u64::MAX);
        (at(&self.from_src), at(&self.to_dst))
    }

    /// The destination pass and the filter of
    /// [`SearchWorkspace::time_constrained_edges`], against the source
    /// pass the last [`SearchWorkspace::reach_from`] on `graph` left.
    ///
    /// # Errors
    ///
    /// Same conditions as [`time_constrained_edges`].
    ///
    /// # Panics
    ///
    /// When no source pass over a graph of this size is in place.
    pub fn time_constrained_edges_to(
        &mut self,
        graph: &Graph,
        dst: NodeId,
        deadline: Micros,
        out: &mut EdgeSet,
    ) -> Result<(), TopologyError> {
        self.reach_to(graph, dst)?;
        self.collect_in_time(graph, deadline, out);
        Ok(())
    }

    /// Leaves distances to `dst` in `to_dst`, beside `from_src`.
    fn reach_to(&mut self, graph: &Graph, dst: NodeId) -> Result<(), TopologyError> {
        graph.check_node(dst)?;
        let src = self.reach_src.expect("reach_from runs before the destination pass");
        assert_eq!(self.from_src.len(), graph.node_count(), "source pass is of another graph");
        if src == dst {
            return Err(TopologyError::NoRoute(src, dst));
        }
        self.search(graph, dst, Direction::Backward, None, latency_where(graph, |_| true));
        std::mem::swap(&mut self.dist, &mut self.to_dst);
        Ok(())
    }

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

    fn collect_in_time(&self, graph: &Graph, deadline: Micros, out: &mut EdgeSet) {
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
