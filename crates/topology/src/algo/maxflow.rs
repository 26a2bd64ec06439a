//! Dinic's max-flow on unit capacities.
//!
//! Used to count the disjoint-path capacity between two sites (Menger's
//! theorem): the max flow with unit edge (or node) capacities equals the
//! number of edge- (or node-) disjoint paths. Through
//! [`crate::algo::disjoint::max_disjoint`] it decides which sampled
//! pairs [`crate::generate::representative_flows`] may pick, fills the
//! disjoint-route column of `dg-exp fig2_topology`'s flow table, and is
//! the test suite's oracle for Bhandari's algorithm.

use crate::algo::disjoint::Disjointness;
use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// A directed flow network with integer capacities.
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    // to, capacity; arcs stored in pairs (i, i^1) = (forward, residual).
    to: Vec<usize>,
    cap: Vec<i64>,
    head: Vec<Vec<usize>>,
}

impl FlowNetwork {
    /// Creates a network with `nodes` vertices and no arcs.
    pub fn new(nodes: usize) -> Self {
        FlowNetwork { to: Vec::new(), cap: Vec::new(), head: vec![Vec::new(); nodes] }
    }

    /// Adds a directed arc `from -> to` with the given capacity.
    pub fn add_arc(&mut self, from: usize, to: usize, capacity: i64) {
        let i = self.to.len();
        self.to.push(to);
        self.cap.push(capacity);
        self.head[from].push(i);
        self.to.push(from);
        self.cap.push(0);
        self.head[to].push(i + 1);
    }

    /// Computes the maximum flow from `s` to `t` (Dinic's algorithm).
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        let n = self.head.len();
        let mut flow = 0;
        loop {
            // BFS level graph.
            let mut level = vec![usize::MAX; n];
            level[s] = 0;
            let mut q = VecDeque::from([s]);
            while let Some(u) = q.pop_front() {
                for &i in &self.head[u] {
                    if self.cap[i] > 0 && level[self.to[i]] == usize::MAX {
                        level[self.to[i]] = level[u] + 1;
                        q.push_back(self.to[i]);
                    }
                }
            }
            if level[t] == usize::MAX {
                return flow;
            }
            // DFS blocking flow.
            let mut it = vec![0usize; n];
            loop {
                let pushed = self.dfs(s, t, i64::MAX, &level, &mut it);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
    }

    fn dfs(&mut self, u: usize, t: usize, limit: i64, level: &[usize], it: &mut [usize]) -> i64 {
        if u == t {
            return limit;
        }
        while it[u] < self.head[u].len() {
            let i = self.head[u][it[u]];
            let v = self.to[i];
            if self.cap[i] > 0 && level[v] == level[u] + 1 {
                let pushed = self.dfs(v, t, limit.min(self.cap[i]), level, it);
                if pushed > 0 {
                    self.cap[i] -= pushed;
                    self.cap[i ^ 1] += pushed;
                    return pushed;
                }
            }
            it[u] += 1;
        }
        0
    }
}

/// Maximum number of disjoint paths from `src` to `dst` (Menger).
///
/// Returns 0 when `src == dst` or either endpoint is out of range.
pub fn max_disjoint_paths(graph: &Graph, src: NodeId, dst: NodeId, mode: Disjointness) -> usize {
    if src == dst || graph.check_node(src).is_err() || graph.check_node(dst).is_err() {
        return 0;
    }
    let mut net;
    let (s, t) = match mode {
        Disjointness::Edge => {
            net = FlowNetwork::new(graph.node_count());
            for e in graph.edges() {
                let info = graph.edge(e);
                net.add_arc(info.src.index(), info.dst.index(), 1);
            }
            (src.index(), dst.index())
        }
        Disjointness::Node => {
            net = FlowNetwork::new(graph.node_count() * 2);
            for v in graph.nodes() {
                let capacity = if v == src || v == dst { i64::MAX / 2 } else { 1 };
                net.add_arc(v.index() * 2, v.index() * 2 + 1, capacity);
            }
            for e in graph.edges() {
                let info = graph.edge(e);
                net.add_arc(info.src.index() * 2 + 1, info.dst.index() * 2, 1);
            }
            (src.index() * 2 + 1, dst.index() * 2)
        }
    };
    net.max_flow(s, t) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Micros};

    #[test]
    fn simple_max_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3);
        net.add_arc(0, 2, 2);
        net.add_arc(1, 3, 2);
        net.add_arc(2, 3, 3);
        net.add_arc(1, 2, 5);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn no_path_means_zero_flow() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 7);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn disjoint_count_distinguishes_modes() {
        // Two routes sharing an intermediate hub: edge-disjoint count 2,
        // node-disjoint count 1.
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let h = b.add_node("H");
        let x = b.add_node("X");
        let y = b.add_node("Y");
        let z = b.add_node("Z");
        b.add_link(a, x, Micros::from_millis(1), 1).unwrap();
        b.add_link(x, h, Micros::from_millis(1), 1).unwrap();
        b.add_link(a, y, Micros::from_millis(1), 1).unwrap();
        b.add_link(y, h, Micros::from_millis(1), 1).unwrap();
        b.add_link(h, z, Micros::from_millis(1), 1).unwrap();
        let g = b.build();
        assert_eq!(max_disjoint_paths(&g, a, z, Disjointness::Edge), 1);
        assert_eq!(max_disjoint_paths(&g, a, z, Disjointness::Node), 1);
        // Add a second hub->z link to create edge-disjointness only at
        // the bottleneck... instead add direct a->z link: both counts rise.
        let mut b2 = GraphBuilder::new();
        let a = b2.add_node("A");
        let h = b2.add_node("H");
        let z = b2.add_node("Z");
        b2.add_link(a, h, Micros::from_millis(1), 1).unwrap();
        b2.add_link(h, z, Micros::from_millis(1), 1).unwrap();
        b2.add_link(a, z, Micros::from_millis(5), 1).unwrap();
        let g2 = b2.build();
        assert_eq!(max_disjoint_paths(&g2, a, z, Disjointness::Edge), 2);
        assert_eq!(max_disjoint_paths(&g2, a, z, Disjointness::Node), 2);
    }

    #[test]
    fn degenerate_inputs_return_zero() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let g = b.build();
        assert_eq!(max_disjoint_paths(&g, a, a, Disjointness::Edge), 0);
        assert_eq!(max_disjoint_paths(&g, a, NodeId::new(9), Disjointness::Edge), 0);
    }

    #[test]
    fn preset_transcontinental_capacity_at_least_two() {
        let g = crate::presets::north_america_12();
        for (s, t) in crate::presets::transcontinental_flows(&g) {
            assert!(
                max_disjoint_paths(&g, s, t, Disjointness::Node) >= 2,
                "{} -> {}",
                g.node(s).name,
                g.node(t).name
            );
        }
    }
}
