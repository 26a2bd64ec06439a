//! One reusable scratch area for every search in this module tree.
//!
//! Building a dissemination graph runs a dozen shortest-path searches
//! over the same topology. A [`SearchWorkspace`] holds their distance,
//! predecessor and frontier storage once, sized to the graph on first
//! use, so a search after the first allocates nothing. The algorithms
//! themselves live
//! beside their free-function forms — Dijkstra in
//! [`dijkstra`](super::dijkstra), deadline reachability in
//! [`reach`](super::reach), Bhandari's rounds in
//! [`disjoint`](super::disjoint) — as `impl SearchWorkspace` blocks;
//! the free functions are wrappers that run on a workspace of their
//! own.

use crate::{EdgeId, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Dense scratch storage shared by the searches of
/// [`crate::algo`]: hold one per thread of construction work and pass
/// it to every search.
///
/// Every search resets what it reads, so nothing carries over from one
/// to the next except what a method says it leaves for a later call
/// (the tree of `search_from`, the source pass of `reach_from`). A
/// workspace may be used on graphs of different sizes in turn; it grows
/// to the largest.
#[derive(Debug, Default)]
pub struct SearchWorkspace {
    // Dijkstra (`dijkstra.rs`): tentative distance and tree edge per
    // node, the frontier, and the origin the tree edges lead back to
    // (`None` after a backward search, which leaves no tree).
    pub(super) dist: Vec<u64>,
    pub(super) prev: Vec<Option<EdgeId>>,
    pub(super) heap: BinaryHeap<Reverse<(u64, NodeId)>>,
    pub(super) origin: Option<NodeId>,
    // Deadline reachability (`reach.rs`): the source-side distances,
    // kept while `dist` takes the destination side.
    pub(super) from_src: Vec<u64>,
    pub(super) reach_src: Option<NodeId>,
    // Bhandari (`disjoint.rs`): the residual arcs, flipped in place as
    // paths are found, which arcs the solution uses, Bellman–Ford's
    // distance and predecessor arc per (split) node, the arcs to scan
    // in this pass and the next, and the solution's arcs in index order.
    pub(super) arcs: Vec<super::bellman_ford::Arc>,
    pub(super) used: Vec<bool>,
    pub(super) arc_dist: Vec<i64>,
    pub(super) arc_prev: Vec<usize>,
    pub(super) scan_now: Vec<u64>,
    pub(super) scan_next: Vec<u64>,
    pub(super) selected: Vec<usize>,
}

impl SearchWorkspace {
    /// An empty workspace; storage is allocated by the first search.
    pub fn new() -> Self {
        SearchWorkspace::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::disjoint::{k_disjoint_paths_weighted, Disjointness};
    use crate::algo::{dijkstra, reach};
    use crate::cache::EdgeSet;
    use crate::generate::GeneratorConfig;
    use crate::{presets, Graph, Micros, Path};

    /// Elements of storage held, over every buffer: a search that
    /// allocated nothing leaves this unchanged.
    fn capacity(ws: &SearchWorkspace) -> usize {
        ws.dist.capacity()
            + ws.prev.capacity()
            + ws.heap.capacity()
            + ws.from_src.capacity()
            + ws.arcs.capacity()
            + ws.used.capacity()
            + ws.arc_dist.capacity()
            + ws.arc_prev.capacity()
            + ws.scan_now.capacity()
            + ws.scan_next.capacity()
            + ws.selected.capacity()
    }

    /// What the searches of one flow found.
    #[derive(Debug, PartialEq)]
    struct Found {
        path: Option<Path>,
        tree: Vec<Option<u64>>,
        tree_path: Vec<EdgeId>,
        in_time: Vec<EdgeId>,
        pair: Option<Vec<Path>>,
    }

    /// Every kind of search a workspace runs, for one flow, on `ws`.
    fn searches(ws: &mut SearchWorkspace, g: &Graph, s: NodeId, t: NodeId) -> Found {
        let latency = |e: EdgeId| Some(g.edge(e).latency.as_micros());
        let path = ws.shortest_path_weighted(g, s, t, latency).ok();
        ws.search_from(g, s, None, latency).unwrap();
        let tree = g.nodes().map(|v| ws.distance_to(v)).collect();
        let mut tree_path = Vec::new();
        ws.append_path_to(g, t, &mut tree_path);
        let mut feasible = EdgeSet::new();
        ws.time_constrained_edges(g, s, t, Micros::from_millis(40), &mut feasible).unwrap();
        let pair = ws
            .k_disjoint_paths_weighted(g, s, t, 2, Disjointness::Node, |e| {
                Some(g.edge(e).latency.as_micros() as i64)
            })
            .ok();
        Found { path, tree, tree_path, in_time: feasible.iter().collect(), pair }
    }

    #[test]
    fn a_reused_workspace_leaks_nothing_from_the_previous_search() {
        let graphs = [
            GeneratorConfig::waxman(60, 7).generate(),
            presets::north_america_12(),
            GeneratorConfig::waxman(30, 11).generate(),
            presets::ring(5, Micros::from_millis(3)),
            GeneratorConfig::waxman(60, 7).generate(),
        ];
        let mut reused = SearchWorkspace::new();
        for g in &graphs {
            let last = NodeId::new(g.node_count() as u32 - 1);
            for (s, t) in [(NodeId::new(0), last), (last, NodeId::new(1)), (NodeId::new(2), last)] {
                let fresh = searches(&mut SearchWorkspace::new(), g, s, t);
                assert_eq!(
                    searches(&mut reused, g, s, t),
                    fresh,
                    "{s}->{t} of {} nodes",
                    g.node_count()
                );
                // And the free functions are the same searches.
                assert_eq!(fresh.path, dijkstra::shortest_path(g, s, t).ok());
                assert_eq!(
                    fresh.in_time,
                    reach::time_constrained_edges(g, s, t, Micros::from_millis(40)).unwrap()
                );
                let pair = k_disjoint_paths_weighted(g, s, t, 2, Disjointness::Node, |e| {
                    Some(g.edge(e).latency.as_micros() as i64)
                });
                assert_eq!(fresh.pair, pair.ok());
            }
        }
    }

    #[test]
    fn no_search_allocates_after_the_first_on_a_graph_of_that_size() {
        let g = GeneratorConfig::waxman(80, 3).generate();
        let mut ws = SearchWorkspace::new();
        let n = g.node_count() as u32;
        // First use: the smallest search of each kind, to a neighbour —
        // an early stop after a pop or two, a one-edge path. What the
        // searches below need beyond that must already be held.
        let s = NodeId::new(0);
        let t = g.edge(g.out_edges(s)[0]).dst;
        let latency = |e: EdgeId| g.edge(e).latency.as_micros();
        ws.shortest_path_weighted(&g, s, t, |e| Some(latency(e))).unwrap();
        let frontier = ws.heap.capacity();
        ws.k_disjoint_paths_weighted(&g, s, t, 1, Disjointness::Node, |e| Some(latency(e) as i64))
            .unwrap();
        ws.time_constrained_edges(&g, s, t, Micros::from_millis(40), &mut EdgeSet::new()).unwrap();
        let held = capacity(&ws);
        assert!(held > 0);
        for s in 0..n {
            let t = NodeId::new((s * 7 + 3) % n);
            if NodeId::new(s) != t {
                searches(&mut ws, &g, NodeId::new(s), t);
                assert_eq!(capacity(&ws), held, "a search from N{s} grew the workspace");
            }
        }
        assert_eq!(ws.heap.capacity(), frontier, "the frontier grew after that first early stop");
    }
}
