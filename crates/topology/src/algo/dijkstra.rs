//! Dijkstra shortest paths by latency.
//!
//! There is one search loop, [`SearchWorkspace::search`]'s, and it runs
//! on a [`SearchWorkspace`]: a search stops as soon as its target is
//! settled, a caller with a lower bound on the way still to go may aim
//! it at that target ([`SearchWorkspace::search_toward`]), and after the
//! workspace's first use on a graph of some size it allocates nothing.
//! The free functions below are that loop on a workspace of their own,
//! unaimed, for callers with one search to run.

use crate::algo::workspace::LastSearch;
use crate::algo::SearchWorkspace;
use crate::{EdgeId, Graph, Micros, NodeId, Path, TopologyError};
use std::cmp::Reverse;

/// Shortest path from `src` to `dst` by total latency.
///
/// # Errors
///
/// Returns [`TopologyError::UnknownNode`] for out-of-range endpoints and
/// [`TopologyError::NoRoute`] when `dst` is unreachable (or equals `src`:
/// the overlay never routes a flow to itself).
///
/// # Example
///
/// ```
/// use dg_topology::{presets, algo::dijkstra};
///
/// let g = presets::north_america_12();
/// let s = g.node_by_name("NYC").unwrap();
/// let t = g.node_by_name("LAX").unwrap();
/// let p = dijkstra::shortest_path(&g, s, t)?;
/// assert_eq!(p.source(), s);
/// assert_eq!(p.destination(), t);
/// # Ok::<(), dg_topology::TopologyError>(())
/// ```
pub fn shortest_path(graph: &Graph, src: NodeId, dst: NodeId) -> Result<Path, TopologyError> {
    shortest_path_filtered(graph, src, dst, |_| true)
}

/// Shortest path using only edges for which `usable` returns true.
///
/// # Errors
///
/// Same conditions as [`shortest_path`].
pub fn shortest_path_filtered<F>(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    usable: F,
) -> Result<Path, TopologyError>
where
    F: Fn(EdgeId) -> bool,
{
    shortest_path_weighted(graph, src, dst, latency_where(graph, usable))
}

/// Latency of the shortest path from `src` to every node.
///
/// Unreachable nodes get [`Micros::MAX`].
pub fn distances_from<F>(graph: &Graph, src: NodeId, usable: F) -> Vec<Micros>
where
    F: Fn(EdgeId) -> bool,
{
    let mut ws = SearchWorkspace::new();
    ws.search(graph, src, Direction::Forward, None, latency_where(graph, usable), |_| 0);
    ws.dist.into_iter().map(Micros::from_micros).collect()
}

/// Latency of the shortest path from every node to `dst`.
///
/// Computed over reversed edges; unreachable nodes get [`Micros::MAX`].
pub fn distances_to<F>(graph: &Graph, dst: NodeId, usable: F) -> Vec<Micros>
where
    F: Fn(EdgeId) -> bool,
{
    let mut ws = SearchWorkspace::new();
    ws.search(graph, dst, Direction::Backward, None, latency_where(graph, usable), |_| 0);
    ws.dist.into_iter().map(Micros::from_micros).collect()
}

/// Shortest path under a caller-supplied edge weight (in microseconds);
/// returning `None` from `weight` excludes the edge entirely.
///
/// Dynamic routing schemes use this to route on *expected* latency —
/// baseline propagation plus current extra latency, penalized by loss.
///
/// # Errors
///
/// Same conditions as [`shortest_path`].
pub fn shortest_path_weighted<W>(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    weight: W,
) -> Result<Path, TopologyError>
where
    W: Fn(EdgeId) -> Option<u64>,
{
    SearchWorkspace::new().shortest_path_weighted(graph, src, dst, weight)
}

/// The weight of plain-latency searches: an edge's baseline latency
/// where `usable` admits it.
pub(super) fn latency_where<'g>(
    graph: &'g Graph,
    usable: impl Fn(EdgeId) -> bool + 'g,
) -> impl Fn(EdgeId) -> Option<u64> + 'g {
    move |e| usable(e).then(|| graph.edge(e).latency.as_micros())
}

/// Which way a search follows edges.
#[derive(Debug, Clone, Copy)]
pub enum Direction {
    /// Out of the origin: distances *from* it.
    Forward,
    /// Into the origin, over reversed edges: distances *to* it.
    Backward,
}

impl SearchWorkspace {
    /// Shortest path under `weight`, as [`shortest_path_weighted`], on
    /// this workspace. The search stops once `dst` is settled: every
    /// node on the way to it, and every tail tying into one of those,
    /// is nearer and settled before it, so the path is the one a full
    /// run returns.
    ///
    /// # Errors
    ///
    /// Same conditions as [`shortest_path`].
    pub fn shortest_path_weighted<W>(
        &mut self,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        weight: W,
    ) -> Result<Path, TopologyError>
    where
        W: Fn(EdgeId) -> Option<u64>,
    {
        graph.check_node(src)?;
        graph.check_node(dst)?;
        if src == dst {
            return Err(TopologyError::NoRoute(src, dst));
        }
        self.search(graph, src, Direction::Forward, Some(dst), weight, |_| 0);
        let mut edges = Vec::new();
        if !self.append_path_to(graph, dst, &mut edges) {
            return Err(TopologyError::NoRoute(src, dst));
        }
        Path::new(graph, edges)
    }

    /// Searches forward from `src` under `weight` and leaves the result
    /// in the workspace for [`SearchWorkspace::distance_to`] and
    /// [`SearchWorkspace::append_path_to`] to read. With `until` the
    /// search stops once that node is settled; without, it builds the
    /// whole shortest-path tree, in which the path to each node is the
    /// one [`shortest_path_weighted`] returns for it — so searches that
    /// share a source and a weight share one tree.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownNode`] for an out-of-range `src`.
    pub fn search_from<W>(
        &mut self,
        graph: &Graph,
        src: NodeId,
        until: Option<NodeId>,
        weight: W,
    ) -> Result<(), TopologyError>
    where
        W: Fn(EdgeId) -> Option<u64>,
    {
        graph.check_node(src)?;
        self.search(graph, src, Direction::Forward, until, weight, |_| 0);
        Ok(())
    }

    /// [`SearchWorkspace::search_from`] stopped at `target`, aimed at
    /// it: the frontier is ordered by `d + floor(v)` rather than by `d`
    /// (A*), so the search spends its pops near the way to `target`
    /// instead of on every node closer to `src` than `target` is.
    ///
    /// `floor(v)` must be a consistent lower bound on the weight of
    /// every route from `v` to `target`: `floor(target) = 0`, and
    /// `floor(u) ≤ weight(e) + floor(v)` for every edge `e = u → v`
    /// (a distance to `target` over the full graph, say, scaled as the
    /// weights scale it). The distance to `target` is then the shortest.
    ///
    /// Where every weight is positive the path read off is also the one
    /// [`SearchWorkspace::search_from`] reads, ties included. The search
    /// goes on popping after `target` while keys equal `d(target)`, so
    /// every node on a shortest route to `target` is popped — its key is
    /// at most `d(target)`, by consistency — and of the tails that tie
    /// into a node it keeps the one plain Dijkstra pops first (see the
    /// search loop). With zero weights the path is a shortest one, not
    /// necessarily that one. A zero floor is `search_from` itself.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownNode`] for an out-of-range `src`.
    pub fn search_toward<W, H>(
        &mut self,
        graph: &Graph,
        src: NodeId,
        target: NodeId,
        weight: W,
        floor: H,
    ) -> Result<(), TopologyError>
    where
        W: Fn(EdgeId) -> Option<u64>,
        H: Fn(NodeId) -> u64,
    {
        graph.check_node(src)?;
        self.search(graph, src, Direction::Forward, Some(target), weight, floor);
        Ok(())
    }

    /// One side of a reach pass ([`crate::algo::reach::Reach`]): the
    /// plain-latency distance, in µs, over the whole of `graph` from
    /// `node` (forward) or to it (backward), [`u64::MAX`] where there is
    /// no route. The slice is the workspace's: copy what is kept.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownNode`] for an out-of-range `node`.
    pub fn reach_pass(
        &mut self,
        graph: &Graph,
        node: NodeId,
        direction: Direction,
    ) -> Result<&[u64], TopologyError> {
        graph.check_node(node)?;
        self.search(graph, node, direction, None, latency_where(graph, |_| true), |_| 0);
        Ok(&self.dist)
    }

    /// Distance of `node` in the last [`SearchWorkspace::search_from`],
    /// `None` when it was not reached. After a search that stopped at
    /// a node, only that node's and its ancestors' distances are final.
    pub fn distance_to(&self, node: NodeId) -> Option<u64> {
        self.origin?;
        self.dist.get(node.index()).copied().filter(|&d| d != u64::MAX)
    }

    /// Appends the path the last [`SearchWorkspace::search_from`] found
    /// from its source to `node`, in travel order; `false` (and nothing
    /// appended) when `node` was not reached. Nothing is appended for
    /// the source itself.
    pub fn append_path_to(&self, graph: &Graph, node: NodeId, out: &mut Vec<EdgeId>) -> bool {
        if self.distance_to(node).is_none() {
            return false;
        }
        let start = out.len();
        let mut at = node;
        while Some(at) != self.origin {
            let e = self.prev[at.index()].expect("reached node has a tree edge");
            out.push(e);
            at = graph.edge(e).src;
        }
        out[start..].reverse();
        true
    }

    /// The one Dijkstra loop: distances (and, forward, tree edges) from
    /// `origin` under `weight`, stopping once `target` is settled and
    /// every node keyed as low as it has been popped too. A node waits on
    /// the frontier keyed by its distance plus `floor(node)`: with a zero
    /// floor that is Dijkstra's order, with a consistent one A*'s (see
    /// [`SearchWorkspace::search_toward`]).
    ///
    /// A tree edge is replaced by a strictly shorter route, or by an
    /// equally short one over a positive weight whose tail has the lower
    /// `(distance, node index)` — the tail plain Dijkstra pops first,
    /// since with positive weights it pops in that order. So once every
    /// tail of a node's shortest routes has been popped, its tree edge
    /// is the one a zero floor finds, in whatever order the floor popped
    /// them. (A zero weight never displaces a tree edge: two of them into
    /// equally distant nodes could otherwise point at each other.)
    pub(super) fn search<W, H>(
        &mut self,
        graph: &Graph,
        origin: NodeId,
        direction: Direction,
        target: Option<NodeId>,
        weight: W,
        floor: H,
    ) where
        W: Fn(EdgeId) -> Option<u64>,
        H: Fn(NodeId) -> u64,
    {
        let n = graph.node_count();
        self.dist.clear();
        self.dist.resize(n, u64::MAX);
        // Tree edges are read only at nodes this search reached.
        self.prev.resize(n, None);
        self.heap.clear();
        // An edge is relaxed at most once: the frontier never outgrows
        // this, so it never reallocates mid-search.
        self.heap.reserve(graph.edge_count() + 1);
        // Only a forward search leaves a tree to read paths off, and
        // only a forward search is asked what it would have relaxed.
        self.origin = matches!(direction, Direction::Forward).then_some(origin);
        self.last = match direction {
            Direction::Forward => LastSearch::Forward { target },
            Direction::Backward => LastSearch::Other,
        };
        // The end a search reaches a node from over `e`.
        let tail = |e: EdgeId| match direction {
            Direction::Forward => graph.edge(e).src,
            Direction::Backward => graph.edge(e).dst,
        };
        self.dist[origin.index()] = 0;
        self.heap.push(Reverse((floor(origin), origin.index() as u32)));
        // The target's key, once it is settled: the nodes keyed no higher
        // are popped before the search stops, so that every tail a route
        // to the target could tie through has been popped.
        let mut last_key = u64::MAX;
        while let Some(Reverse((key, u))) = self.heap.pop() {
            if key > last_key {
                break;
            }
            let u = NodeId::new(u);
            let d = self.dist[u.index()];
            // Pushed before a shorter route to `u` was found.
            if key > d.saturating_add(floor(u)) {
                continue;
            }
            if Some(u) == target {
                if self.heap.peek().is_none_or(|&Reverse((next, _))| next > key) {
                    break;
                }
                last_key = key;
                continue;
            }
            let edges = match direction {
                Direction::Forward => graph.out_edges(u),
                Direction::Backward => graph.in_edges(u),
            };
            for &e in edges {
                let Some(w) = weight(e) else { continue };
                let info = graph.edge(e);
                let v = match direction {
                    Direction::Forward => info.dst,
                    Direction::Backward => info.src,
                };
                let nd = d.saturating_add(w);
                let was = self.dist[v.index()];
                if nd < was {
                    self.dist[v.index()] = nd;
                    self.prev[v.index()] = Some(e);
                    self.heap.push(Reverse((nd.saturating_add(floor(v)), v.index() as u32)));
                } else if nd == was && w > 0 && nd != u64::MAX {
                    // A tie: keep the tail plain Dijkstra pops first.
                    let held = tail(self.prev[v.index()].expect("reached node has a tree edge"));
                    if (d, u.index()) < (self.dist[held.index()], held.index()) {
                        self.prev[v.index()] = Some(e);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// A --1-- B --1-- D, A --5-- C --1-- D: shortest A->D is via B.
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let n1 = b.add_node("B");
        let n2 = b.add_node("C");
        let d = b.add_node("D");
        b.add_link(a, n1, Micros::from_millis(1), 1).unwrap();
        b.add_link(n1, d, Micros::from_millis(1), 1).unwrap();
        b.add_link(a, n2, Micros::from_millis(5), 1).unwrap();
        b.add_link(n2, d, Micros::from_millis(1), 1).unwrap();
        b.build()
    }

    #[test]
    fn finds_cheapest_route() {
        let g = diamond();
        let a = g.node_by_name("A").unwrap();
        let d = g.node_by_name("D").unwrap();
        let p = shortest_path(&g, a, d).unwrap();
        assert_eq!(p.display(&g), "A -> B -> D");
        assert_eq!(p.latency(&g), Micros::from_millis(2));
    }

    #[test]
    fn filter_forces_detour() {
        let g = diamond();
        let a = g.node_by_name("A").unwrap();
        let b = g.node_by_name("B").unwrap();
        let d = g.node_by_name("D").unwrap();
        let banned = g.edge_between(a, b).unwrap();
        let p = shortest_path_filtered(&g, a, d, |e| e != banned).unwrap();
        assert_eq!(p.display(&g), "A -> C -> D");
    }

    #[test]
    fn unreachable_and_self_route_error() {
        let mut builder = GraphBuilder::new();
        let a = builder.add_node("A");
        let b = builder.add_node("B");
        let g = builder.build();
        assert_eq!(shortest_path(&g, a, b), Err(TopologyError::NoRoute(a, b)));
        assert_eq!(shortest_path(&g, a, a), Err(TopologyError::NoRoute(a, a)));
        assert!(shortest_path(&g, NodeId::new(9), b).is_err());
    }

    #[test]
    fn distances_from_marks_unreachable() {
        let mut builder = GraphBuilder::new();
        let a = builder.add_node("A");
        let b = builder.add_node("B");
        let c = builder.add_node("C");
        builder.add_edge(a, b, Micros::from_millis(3), 1).unwrap();
        let g = builder.build();
        let d = distances_from(&g, a, |_| true);
        assert_eq!(d[a.index()], Micros::ZERO);
        assert_eq!(d[b.index()], Micros::from_millis(3));
        assert!(d[c.index()].is_unreachable());
    }

    #[test]
    fn distances_to_uses_reverse_edges() {
        let mut builder = GraphBuilder::new();
        let a = builder.add_node("A");
        let b = builder.add_node("B");
        builder.add_edge(a, b, Micros::from_millis(3), 1).unwrap();
        let g = builder.build();
        let d = distances_to(&g, b, |_| true);
        assert_eq!(d[a.index()], Micros::from_millis(3));
        assert_eq!(d[b.index()], Micros::ZERO);
        // No edge B -> A, so distance from B in `distances_to(a)` is MAX.
        let d2 = distances_to(&g, a, |_| true);
        assert!(d2[b.index()].is_unreachable());
    }

    #[test]
    fn forward_and_backward_distances_agree() {
        let g = crate::presets::north_america_12();
        let s = g.node_by_name("NYC").unwrap();
        let from = distances_from(&g, s, |_| true);
        for t in g.nodes() {
            let to = distances_to(&g, t, |_| true);
            assert_eq!(from[t.index()], to[s.index()], "mismatch NYC->{}", g.node(t).name);
        }
    }

    #[test]
    fn early_exit_returns_the_path_the_full_run_returns() {
        // Latencies of 1 to 3 ms on a dense random graph: most pairs
        // have several shortest routes, and which one the tree holds is
        // settled by pop order — exactly what an early stop must not
        // disturb.
        let mut state = 0x2017u64;
        let mut below = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut ws = SearchWorkspace::new();
        let mut tied = 0;
        for _ in 0..40 {
            let n = 6 + below(14) as usize;
            let mut b = GraphBuilder::new();
            let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(&format!("N{i}"))).collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if below(100) < 40 {
                        b.add_link(nodes[i], nodes[j], Micros::from_millis(1 + below(3)), 1)
                            .unwrap();
                    }
                }
            }
            let g = b.build();
            let latency = |e: EdgeId| Some(g.edge(e).latency.as_micros());
            for &s in &nodes {
                ws.search_from(&g, s, None, latency).unwrap();
                let full: Vec<Option<Vec<EdgeId>>> = nodes
                    .iter()
                    .map(|&t| {
                        let mut edges = Vec::new();
                        ws.append_path_to(&g, t, &mut edges).then_some(edges)
                    })
                    .collect();
                for &t in nodes.iter().filter(|&&t| t != s) {
                    let stopped = ws.shortest_path_weighted(&g, s, t, latency).ok();
                    assert_eq!(stopped.as_ref().map(Path::edges), full[t.index()].as_deref());
                    let routes =
                        crate::algo::yen::k_shortest_paths(&g, s, t, 2).unwrap_or_default();
                    tied += usize::from(
                        routes.len() == 2 && routes[0].latency(&g) == routes[1].latency(&g),
                    );
                }
            }
        }
        assert!(tied > 500, "too few tied pairs to mean anything: {tied}");
    }
}
