//! The directed overlay graph.

use crate::{EdgeId, GeoPoint, Micros, NodeId, TopologyError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Metadata attached to an overlay node (site).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeInfo {
    /// Short human-readable site name (e.g. `"NYC"`). Unique per graph.
    pub name: String,
    /// Optional geographic position, used by topology presets.
    pub position: Option<GeoPoint>,
}

/// Metadata attached to a directed overlay edge (link).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeInfo {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Baseline one-way propagation latency of the link.
    pub latency: Micros,
    /// Cost of sending one packet over the link (paper: 1 per edge).
    pub cost: u32,
}

/// A directed overlay network graph.
///
/// Nodes and edges carry dense ids ([`NodeId`], [`EdgeId`]) assigned in
/// insertion order, so algorithms can use plain vectors for per-element
/// state. Graphs are immutable after construction via [`GraphBuilder`];
/// dynamic link conditions (loss, latency inflation) live outside the
/// graph, in `dg-trace` link state.
///
/// # Example
///
/// ```
/// use dg_topology::{GraphBuilder, Micros};
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_node("A");
/// let c = b.add_node("C");
/// b.add_link(a, c, Micros::from_millis(10), 1)?;
/// let g = b.build();
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_count(), 2); // one link = two directed edges
/// # Ok::<(), dg_topology::TopologyError>(())
/// ```
///
/// A graph serializes as its nodes and edges only; deserializing
/// rebuilds it through [`GraphBuilder`], so a file is held to the same
/// rules as code that builds a graph, and the lookup indices are always
/// derived from the edges, never read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "GraphData", into = "GraphData")]
pub struct Graph {
    nodes: Vec<NodeInfo>,
    edges: Vec<EdgeInfo>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
    /// For edge (u, v), the id of (v, u) if present.
    reverse: Vec<Option<EdgeId>>,
    name_index: HashMap<String, NodeId>,
}

impl Graph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the metadata of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this graph.
    pub fn node(&self, node: NodeId) -> &NodeInfo {
        &self.nodes[node.index()]
    }

    /// Returns the metadata of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range for this graph.
    pub fn edge(&self, edge: EdgeId) -> &EdgeInfo {
        &self.edges[edge.index()]
    }

    /// Looks up a node by its unique name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// Iterates over all node ids in dense order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// Iterates over all edge ids in dense order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId::new)
    }

    /// Out-edges of `node`.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_edges[node.index()]
    }

    /// In-edges of `node`.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_edges[node.index()]
    }

    /// Neighbours reachable over one out-edge of `node`.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges[node.index()].iter().map(|&e| self.edges[e.index()].dst)
    }

    /// The directed edge from `src` to `dst`, if one exists.
    pub fn edge_between(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_edges[src.index()].iter().copied().find(|&e| self.edges[e.index()].dst == dst)
    }

    /// The reverse of `edge` — the edge with swapped endpoints, if present.
    ///
    /// All preset topologies are built from bidirectional links, so every
    /// edge has a reverse there; hand-built graphs may be asymmetric.
    pub fn reverse_edge(&self, edge: EdgeId) -> Option<EdgeId> {
        self.reverse[edge.index()]
    }

    /// Validates that a node id belongs to this graph.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] when out of range.
    pub fn check_node(&self, node: NodeId) -> Result<(), TopologyError> {
        if node.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownNode(node))
        }
    }

    /// Validates that an edge id belongs to this graph.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownEdge`] when out of range.
    pub fn check_edge(&self, edge: EdgeId) -> Result<(), TopologyError> {
        if edge.index() < self.edges.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownEdge(edge))
        }
    }

    /// Total cost of a set of edges (the paper's dissemination-graph cost).
    pub fn edge_set_cost<I: IntoIterator<Item = EdgeId>>(&self, edges: I) -> u64 {
        edges.into_iter().map(|e| u64::from(self.edges[e.index()].cost)).sum()
    }

    /// Renders the graph in Graphviz DOT format (one line per link).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph overlay {\n");
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!("  n{} [label=\"{}\"];\n", i, n.name));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "  n{} -> n{} [label=\"{}\"];\n",
                e.src.index(),
                e.dst.index(),
                e.latency
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// What a [`Graph`] serializes as: its primary data, without the
/// indices derived from it.
#[derive(Serialize, Deserialize)]
struct GraphData {
    nodes: Vec<NodeInfo>,
    edges: Vec<EdgeInfo>,
}

impl From<Graph> for GraphData {
    fn from(graph: Graph) -> Self {
        GraphData { nodes: graph.nodes, edges: graph.edges }
    }
}

impl TryFrom<GraphData> for Graph {
    type Error = TopologyError;

    /// CORRECTNESS: every rule [`GraphBuilder`] enforces holds for a
    /// loaded graph too — unique node names (`DuplicateNodeName`), edge
    /// endpoints that exist (`UnknownNode`), no self loops (`SelfLoop`),
    /// positive latencies (`ZeroLatency`), at most one edge per ordered
    /// pair (`DuplicateEdge`) — and `out_edges`, `in_edges`, `reverse`
    /// and `name_index` agree with the edges because they are built from
    /// them.
    fn try_from(data: GraphData) -> Result<Self, TopologyError> {
        let mut builder = GraphBuilder::new();
        for node in data.nodes {
            builder.try_add_node(&node.name, node.position)?;
        }
        for edge in data.edges {
            builder.add_edge(edge.src, edge.dst, edge.latency, edge.cost)?;
        }
        Ok(builder.build())
    }
}

/// Incremental builder for [`Graph`].
///
/// Supports both single directed edges ([`GraphBuilder::add_edge`]) and
/// bidirectional links ([`GraphBuilder::add_link`], the common case for
/// overlay topologies).
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<NodeInfo>,
    edges: Vec<EdgeInfo>,
    name_index: HashMap<String, NodeId>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Adds a node with the given name and no position.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered; use
    /// [`GraphBuilder::try_add_node`] to handle duplicates gracefully.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.try_add_node(name, None).expect("duplicate node name")
    }

    /// Adds a node with a geographic position.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered.
    pub fn add_node_at(&mut self, name: &str, position: GeoPoint) -> NodeId {
        self.try_add_node(name, Some(position)).expect("duplicate node name")
    }

    /// Adds a node, failing on duplicate names.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateNodeName`] if `name` is taken.
    pub fn try_add_node(
        &mut self,
        name: &str,
        position: Option<GeoPoint>,
    ) -> Result<NodeId, TopologyError> {
        if self.name_index.contains_key(name) {
            return Err(TopologyError::DuplicateNodeName(name.to_string()));
        }
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(NodeInfo { name: name.to_string(), position });
        self.name_index.insert(name.to_string(), id);
        Ok(id)
    }

    /// Adds a single directed edge.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown endpoints, self loops, a zero
    /// latency, or a duplicate directed edge between the same endpoints.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        latency: Micros,
        cost: u32,
    ) -> Result<EdgeId, TopologyError> {
        if src.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(dst));
        }
        if src == dst {
            return Err(TopologyError::SelfLoop(src));
        }
        // CORRECTNESS: a route's latency grows with every link it takes.
        // The searches rely on it: with positive weights, Dijkstra pops in
        // (distance, node) order and tied routes resolve the same way
        // whichever search runs (`algo::dijkstra`, `algo::disjoint`).
        if latency == Micros::ZERO {
            return Err(TopologyError::ZeroLatency(src, dst));
        }
        if self.edges.iter().any(|e| e.src == src && e.dst == dst) {
            return Err(TopologyError::DuplicateEdge(src, dst));
        }
        let id = EdgeId::new(self.edges.len() as u32);
        self.edges.push(EdgeInfo { src, dst, latency, cost });
        Ok(id)
    }

    /// Adds a bidirectional link as two directed edges with equal
    /// latency and cost, returning `(forward, backward)` edge ids.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::add_edge`].
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency: Micros,
        cost: u32,
    ) -> Result<(EdgeId, EdgeId), TopologyError> {
        let fwd = self.add_edge(a, b, latency, cost)?;
        let bwd = self.add_edge(b, a, latency, cost)?;
        Ok((fwd, bwd))
    }

    /// Finalizes the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let n = self.nodes.len();
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        let mut endpoint_index: HashMap<(NodeId, NodeId), EdgeId> = HashMap::new();
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId::new(i as u32);
            out_edges[e.src.index()].push(id);
            in_edges[e.dst.index()].push(id);
            endpoint_index.insert((e.src, e.dst), id);
        }
        let reverse =
            self.edges.iter().map(|e| endpoint_index.get(&(e.dst, e.src)).copied()).collect();
        Graph {
            nodes: self.nodes,
            edges: self.edges,
            out_edges,
            in_edges,
            reverse,
            name_index: self.name_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let c = b.add_node("B");
        let d = b.add_node("C");
        b.add_link(a, c, Micros::from_millis(1), 1).unwrap();
        b.add_link(c, d, Micros::from_millis(2), 1).unwrap();
        b.add_link(a, d, Micros::from_millis(5), 1).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_lookup() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.node_by_name("B"), Some(NodeId::new(1)));
        assert_eq!(g.node_by_name("missing"), None);
        assert_eq!(g.node(NodeId::new(0)).name, "A");
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = triangle();
        for e in g.edges() {
            let info = g.edge(e);
            assert!(g.out_edges(info.src).contains(&e));
            assert!(g.in_edges(info.dst).contains(&e));
        }
        let a = g.node_by_name("A").unwrap();
        let mut nbrs: Vec<String> = g.neighbors(a).map(|n| g.node(n).name.clone()).collect();
        nbrs.sort();
        assert_eq!(nbrs, ["B", "C"]);
    }

    #[test]
    fn reverse_edges_pair_up() {
        let g = triangle();
        for e in g.edges() {
            let r = g.reverse_edge(e).expect("links are bidirectional");
            assert_eq!(g.edge(r).src, g.edge(e).dst);
            assert_eq!(g.edge(r).dst, g.edge(e).src);
            assert_eq!(g.reverse_edge(r), Some(e));
        }
    }

    #[test]
    fn edge_between_finds_directed_edge() {
        let g = triangle();
        let a = g.node_by_name("A").unwrap();
        let b = g.node_by_name("B").unwrap();
        let e = g.edge_between(a, b).unwrap();
        assert_eq!(g.edge(e).latency, Micros::from_millis(1));
        let c = g.node_by_name("C").unwrap();
        // B and C are connected, A->A is not a thing.
        assert!(g.edge_between(b, c).is_some());
    }

    #[test]
    fn builder_rejects_bad_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let c = b.add_node("B");
        let us = Micros::from_micros(1);
        assert_eq!(b.add_edge(a, a, us, 1), Err(TopologyError::SelfLoop(a)));
        assert_eq!(
            b.add_edge(a, NodeId::new(99), us, 1),
            Err(TopologyError::UnknownNode(NodeId::new(99)))
        );
        assert_eq!(b.add_edge(a, c, Micros::ZERO, 1), Err(TopologyError::ZeroLatency(a, c)));
        assert_eq!(b.add_link(c, a, Micros::ZERO, 1), Err(TopologyError::ZeroLatency(c, a)));
        b.add_edge(a, c, us, 1).unwrap();
        assert_eq!(b.add_edge(a, c, us, 1), Err(TopologyError::DuplicateEdge(a, c)));
    }

    #[test]
    fn builder_rejects_duplicate_names() {
        let mut b = GraphBuilder::new();
        b.add_node("A");
        assert_eq!(b.try_add_node("A", None), Err(TopologyError::DuplicateNodeName("A".into())));
    }

    #[test]
    fn check_helpers_validate_ranges() {
        let g = triangle();
        assert!(g.check_node(NodeId::new(2)).is_ok());
        assert!(g.check_node(NodeId::new(3)).is_err());
        assert!(g.check_edge(EdgeId::new(5)).is_ok());
        assert!(g.check_edge(EdgeId::new(6)).is_err());
    }

    #[test]
    fn edge_set_cost_sums_costs() {
        let g = triangle();
        let all: Vec<EdgeId> = g.edges().collect();
        assert_eq!(g.edge_set_cost(all), 6);
        assert_eq!(g.edge_set_cost([EdgeId::new(0), EdgeId::new(2)]), 2);
    }

    #[test]
    fn dot_output_mentions_every_node() {
        let g = triangle();
        let dot = g.to_dot();
        for n in ["A", "B", "C"] {
            assert!(dot.contains(n));
        }
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn serde_round_trip() {
        let g = triangle();
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }

    /// A graph file is held to the builder's rules, each refusal a
    /// `TopologyError`, and the indices it carries are never believed.
    #[test]
    fn deserializing_rebuilds_through_the_builder() {
        let node = |name: &str| format!(r#"{{"name":"{name}","position":null}}"#);
        let edge = |src: u32, dst: u32, latency: u64| {
            format!(r#"{{"src":{src},"dst":{dst},"latency":{latency},"cost":1}}"#)
        };
        let file = |nodes: &[String], edges: &[String], extra: &str| {
            format!(r#"{{"nodes":[{}],"edges":[{}]{extra}}}"#, nodes.join(","), edges.join(","))
        };
        let (a, b) = (node("A"), node("B"));
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        let refused = [
            (file(&[a.clone(), a.clone()], &[], ""), TopologyError::DuplicateNodeName("A".into())),
            (
                file(&[a.clone(), b.clone()], &[edge(0, 9, 5)], ""),
                TopologyError::UnknownNode(NodeId::new(9)),
            ),
            (file(&[a.clone(), b.clone()], &[edge(0, 0, 5)], ""), TopologyError::SelfLoop(n0)),
            (
                file(&[a.clone(), b.clone()], &[edge(0, 1, 0)], ""),
                TopologyError::ZeroLatency(n0, n1),
            ),
            (
                file(&[a.clone(), b.clone()], &[edge(0, 1, 5), edge(0, 1, 7)], ""),
                TopologyError::DuplicateEdge(n0, n1),
            ),
        ];
        for (json, expected) in refused {
            let err = serde_json::from_str::<Graph>(&json).expect_err(&json);
            assert!(err.to_string().contains(&expected.to_string()), "{json}: {err}");
        }

        // Indices that disagree with the edges are discarded, not read.
        let lying = r#","out_edges":[[1],[0]],"in_edges":[[],[]],"reverse":[null,null],"name_index":{"A":1,"B":0}"#;
        let parsed: Graph =
            serde_json::from_str(&file(&[a, b], &[edge(0, 1, 5), edge(1, 0, 5)], lying)).unwrap();
        let mut builder = GraphBuilder::new();
        let (x, y) = (builder.add_node("A"), builder.add_node("B"));
        builder.add_link(x, y, Micros::from_micros(5), 1).unwrap();
        assert_eq!(parsed, builder.build());
        assert_eq!(parsed.node_by_name("A"), Some(n0));
        assert_eq!(parsed.out_edges(n0), &[EdgeId::new(0)]);
    }

    #[test]
    fn asymmetric_edge_has_no_reverse() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let c = b.add_node("B");
        let e = b.add_edge(a, c, Micros::from_millis(1), 1).unwrap();
        let g = b.build();
        assert_eq!(g.reverse_edge(e), None);
    }
}
