//! The dissemination graph itself.

use crate::CoreError;
use dg_topology::cache::EdgeSet;
use dg_topology::{algo::dijkstra, EdgeId, Graph, Micros, NodeId, Path};
use serde::{Deserialize, Serialize};

/// An arbitrary overlay subgraph on which a flow's packets are
/// disseminated from one source to one or more receivers.
///
/// Semantics: the source sends each packet once on each of its
/// out-edges in the graph; every node receiving the packet for the
/// first time forwards it once on each of *its* out-edges in the graph
/// (duplicates are suppressed), and every receiver additionally
/// delivers it locally. Single paths, disjoint path pairs, flooding and
/// single-source multicast trees are all dissemination graphs — this
/// unification is the paper's framework contribution. A unicast flow is
/// the one-receiver case.
///
/// # Invariants
///
/// Construction normalizes the edge set: edges whose tail cannot be
/// reached from the source *within the graph* are pruned (they could
/// never carry a packet), remaining edges are sorted and deduplicated,
/// and every receiver must be reachable. Receivers are sorted,
/// deduplicated, never empty, and never contain the source. Two graphs
/// compare equal iff their normalized edge sets, source, and receiver
/// sets match.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DisseminationGraph {
    source: NodeId,
    receivers: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

/// The canonical form of a receiver set — sorted, deduplicated, source
/// dropped — which is also what the graph cache interns by.
///
/// # Errors
///
/// [`CoreError::MismatchedEndpoints`] when nothing remains.
pub(crate) fn canonical_receivers(
    source: NodeId,
    mut receivers: Vec<NodeId>,
) -> Result<Vec<NodeId>, CoreError> {
    receivers.retain(|&r| r != source);
    receivers.sort();
    receivers.dedup();
    if receivers.is_empty() {
        return Err(CoreError::MismatchedEndpoints);
    }
    Ok(receivers)
}

impl DisseminationGraph {
    /// Builds the dissemination graph of a unicast flow from an edge
    /// set: [`DisseminationGraph::with_receivers`] for the single
    /// receiver `destination`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unreachable`] when the edge set does not
    /// connect `source` to `destination`,
    /// [`CoreError::MismatchedEndpoints`] when they are the same node,
    /// and topology errors for invalid ids.
    ///
    /// # Example
    ///
    /// ```
    /// use dg_core::DisseminationGraph;
    /// use dg_topology::{presets, algo::dijkstra};
    ///
    /// let g = presets::north_america_12();
    /// let s = g.node_by_name("NYC").unwrap();
    /// let t = g.node_by_name("SEA").unwrap();
    /// let path = dijkstra::shortest_path(&g, s, t)?;
    /// let dg = DisseminationGraph::new(&g, s, t, path.edges().to_vec())?;
    /// assert_eq!(dg.cost(&g) as usize, path.len());
    /// assert_eq!(dg.receivers(), &[t]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn new(
        graph: &Graph,
        source: NodeId,
        destination: NodeId,
        edges: Vec<EdgeId>,
    ) -> Result<Self, CoreError> {
        Self::with_receivers(graph, source, vec![destination], edges)
    }

    /// Builds a dissemination graph from `source` to a receiver set.
    /// Receiver order and duplicates do not matter, and the source is
    /// dropped from the set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MismatchedEndpoints`] when no receiver is
    /// left, [`CoreError::Unreachable`] (naming the first such receiver)
    /// when some receiver cannot be reached from the source within the
    /// edge set, and topology errors for invalid ids.
    pub fn with_receivers(
        graph: &Graph,
        source: NodeId,
        receivers: Vec<NodeId>,
        edges: Vec<EdgeId>,
    ) -> Result<Self, CoreError> {
        graph.check_node(source)?;
        for &r in &receivers {
            graph.check_node(r)?;
        }
        let receivers = canonical_receivers(source, receivers)?;
        let mut edges = edges;
        let mut member = EdgeSet::new();
        for &e in &edges {
            graph.check_edge(e)?;
            member.insert(e);
        }
        // Reachability from the source within the subgraph.
        let mut reachable = vec![false; graph.node_count()];
        reachable[source.index()] = true;
        let mut frontier = vec![source];
        while let Some(u) = frontier.pop() {
            for &e in graph.out_edges(u) {
                let v = graph.edge(e).dst;
                if member.contains(e) && !reachable[v.index()] {
                    reachable[v.index()] = true;
                    frontier.push(v);
                }
            }
        }
        if let Some(&missed) = receivers.iter().find(|r| !reachable[r.index()]) {
            return Err(CoreError::Unreachable { source, destination: missed });
        }
        edges.sort_unstable();
        edges.dedup();
        edges.retain(|&e| reachable[graph.edge(e).src.index()]);
        Ok(DisseminationGraph { source, receivers, edges })
    }

    /// Builds the single-path dissemination graph for `path`.
    pub fn from_path(graph: &Graph, path: &Path) -> Self {
        DisseminationGraph::new(graph, path.source(), path.destination(), path.edges().to_vec())
            .expect("a valid path always forms a dissemination graph")
    }

    /// Builds the union graph of several paths sharing endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MismatchedEndpoints`] when paths disagree on
    /// source or destination, or for an empty path list.
    pub fn from_paths(graph: &Graph, paths: &[Path]) -> Result<Self, CoreError> {
        let first = paths.first().ok_or(CoreError::MismatchedEndpoints)?;
        let (s, t) = (first.source(), first.destination());
        if paths.iter().any(|p| p.source() != s || p.destination() != t) {
            return Err(CoreError::MismatchedEndpoints);
        }
        let edges: Vec<EdgeId> = paths.iter().flat_map(|p| p.edges().iter().copied()).collect();
        DisseminationGraph::new(graph, s, t, edges)
    }

    /// The flow source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The receiver set, sorted and deduplicated; a unicast flow's
    /// destination is its only element.
    pub fn receivers(&self) -> &[NodeId] {
        &self.receivers
    }

    /// True if `node` is in the receiver set.
    pub fn contains_receiver(&self, node: NodeId) -> bool {
        self.receivers.binary_search(&node).is_ok()
    }

    /// The normalized edge set, sorted by id.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// A dissemination graph always connects its source to at least one
    /// other node, so it always has edges; always `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if `edge` is part of the graph.
    pub fn contains(&self, edge: EdgeId) -> bool {
        self.edges.binary_search(&edge).is_ok()
    }

    /// Edges on which `node` forwards packets of this flow.
    pub fn forwarding_edges<'a>(
        &'a self,
        graph: &'a Graph,
        node: NodeId,
    ) -> impl Iterator<Item = EdgeId> + 'a {
        self.edges.iter().copied().filter(move |&e| graph.edge(e).src == node)
    }

    /// The paper's cost metric: packets sent per message = sum of edge
    /// costs (1 per edge in the evaluation topology). It is paid once
    /// however many receivers the graph serves.
    pub fn cost(&self, graph: &Graph) -> u64 {
        graph.edge_set_cost(self.edges.iter().copied())
    }

    /// Latency of the fastest route through the graph at baseline
    /// conditions — to the receiver it serves slowest, when there are
    /// several.
    pub fn best_latency(&self, graph: &Graph) -> Micros {
        let fastest = |&receiver: &NodeId| {
            dijkstra::shortest_path_filtered(graph, self.source, receiver, |e| self.contains(e))
                .map_or(Micros::MAX, |p| p.latency(graph))
        };
        self.receivers.iter().map(fastest).max().unwrap_or(Micros::MAX)
    }

    /// Union with another graph over the same flow.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MismatchedEndpoints`] when the source or the
    /// receiver sets differ.
    pub fn union(&self, graph: &Graph, other: &DisseminationGraph) -> Result<Self, CoreError> {
        if self.source != other.source || self.receivers != other.receivers {
            return Err(CoreError::MismatchedEndpoints);
        }
        let mut edges = self.edges.clone();
        edges.extend_from_slice(&other.edges);
        DisseminationGraph::with_receivers(graph, self.source, self.receivers.clone(), edges)
    }

    /// The graph one member `receiver` observes: the same edge set
    /// re-normalized with `receiver` as the only receiver. With one
    /// receiver this is the graph itself.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unreachable`] when `receiver` is not a member.
    pub fn unicast_view(&self, graph: &Graph, receiver: NodeId) -> Result<Self, CoreError> {
        if !self.contains_receiver(receiver) {
            return Err(CoreError::Unreachable { source: self.source, destination: receiver });
        }
        DisseminationGraph::new(graph, self.source, receiver, self.edges.clone())
    }

    /// True if every edge of `other` is in `self`.
    pub fn is_superset_of(&self, other: &DisseminationGraph) -> bool {
        other.edges.iter().all(|&e| self.contains(e))
    }

    /// Serializes membership as a bitmask over dense edge ids
    /// (`ceil(edge_count / 8)` bytes, LSB-first). This is the wire
    /// format the overlay packet header carries, whatever the number of
    /// receivers.
    pub fn to_bitmask(&self, edge_count: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; edge_count.div_ceil(8)];
        for &e in &self.edges {
            bytes[e.index() / 8] |= 1 << (e.index() % 8);
        }
        bytes
    }

    /// Reconstructs a unicast graph from a bitmask produced by
    /// [`DisseminationGraph::to_bitmask`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BitmaskTooShort`] when `bytes` cannot cover
    /// the topology's edges, plus the usual construction errors.
    pub fn from_bitmask(
        graph: &Graph,
        source: NodeId,
        destination: NodeId,
        bytes: &[u8],
    ) -> Result<Self, CoreError> {
        let need = graph.edge_count().div_ceil(8);
        if bytes.len() < need {
            return Err(CoreError::BitmaskTooShort { got: bytes.len(), need });
        }
        let edges: Vec<EdgeId> = (0..graph.edge_count())
            .filter(|&i| bytes[i / 8] & (1 << (i % 8)) != 0)
            .map(|i| EdgeId::new(i as u32))
            .collect();
        DisseminationGraph::new(graph, source, destination, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::algo::disjoint::{disjoint_pair, Disjointness};
    use dg_topology::presets;

    fn setup() -> (Graph, NodeId, NodeId) {
        let g = presets::north_america_12();
        let s = g.node_by_name("NYC").unwrap();
        let t = g.node_by_name("SJC").unwrap();
        (g, s, t)
    }

    /// The union of the shortest paths from NYC to three western sites:
    /// a several-receiver graph to run the unicast cases against.
    fn group(g: &Graph, s: NodeId) -> (Vec<NodeId>, Vec<EdgeId>) {
        let receivers: Vec<NodeId> =
            ["SJC", "SEA", "LAX"].iter().map(|n| g.node_by_name(n).unwrap()).collect();
        let edges = receivers
            .iter()
            .flat_map(|&r| dijkstra::shortest_path(g, s, r).unwrap().edges().to_vec())
            .collect();
        (receivers, edges)
    }

    #[test]
    fn from_path_has_path_cost() {
        let (g, s, t) = setup();
        let p = dijkstra::shortest_path(&g, s, t).unwrap();
        let dg = DisseminationGraph::from_path(&g, &p);
        assert_eq!(dg.cost(&g) as usize, p.len());
        assert_eq!(dg.best_latency(&g), p.latency(&g));
        assert_eq!(dg.source(), s);
        assert_eq!(dg.receivers(), &[t]);
        assert!(!dg.is_empty());
        // A one-receiver graph is its own unicast view; a non-member has
        // none.
        assert_eq!(dg.unicast_view(&g, t).unwrap(), dg);
        assert!(dg.unicast_view(&g, s).is_err());
    }

    #[test]
    fn union_of_disjoint_pair() {
        let (g, s, t) = setup();
        let (p1, p2) = disjoint_pair(&g, s, t, Disjointness::Node).unwrap();
        let dg = DisseminationGraph::from_paths(&g, &[p1.clone(), p2.clone()]).unwrap();
        assert_eq!(dg.len(), p1.len() + p2.len());
        assert!(dg.is_superset_of(&DisseminationGraph::from_path(&g, &p1)));
        assert_eq!(dg.best_latency(&g), p1.latency(&g).min(p2.latency(&g)));
    }

    #[test]
    fn unreachable_edge_set_is_rejected() {
        let (g, s, t) = setup();
        // A single edge near the destination does not connect s to t.
        let e = g.in_edges(t)[0];
        let err = DisseminationGraph::new(&g, s, t, vec![e]).unwrap_err();
        assert_eq!(err, CoreError::Unreachable { source: s, destination: t });
        // With several receivers, a path to only the first leaves the
        // others unreachable.
        let (receivers, _) = group(&g, s);
        let edges = dijkstra::shortest_path(&g, s, receivers[0]).unwrap().edges().to_vec();
        let err = DisseminationGraph::with_receivers(&g, s, receivers, edges).unwrap_err();
        assert!(matches!(err, CoreError::Unreachable { .. }));
    }

    #[test]
    fn empty_receiver_set_is_rejected() {
        let (g, s, _) = setup();
        for receivers in [vec![], vec![s]] {
            // The source itself is dropped from the receiver set.
            assert_eq!(
                DisseminationGraph::with_receivers(&g, s, receivers, vec![]),
                Err(CoreError::MismatchedEndpoints)
            );
        }
    }

    #[test]
    fn unreachable_tails_are_pruned() {
        let (g, s, t) = setup();
        let p = dijkstra::shortest_path(&g, s, t).unwrap();
        let mut edges = p.edges().to_vec();
        // An edge leaving MIA is unreachable within this subgraph (no
        // edge of the shortest path enters MIA).
        let mia = g.node_by_name("MIA").unwrap();
        assert!(!p.nodes(&g).contains(&mia));
        edges.push(g.out_edges(mia)[0]);
        let dg = DisseminationGraph::new(&g, s, t, edges).unwrap();
        assert_eq!(dg.len(), p.len());
        // But a reachable side-branch is kept.
        let mut edges2 = p.edges().to_vec();
        let branch = g.out_edges(s).iter().copied().find(|e| !p.edges().contains(e)).unwrap();
        edges2.push(branch);
        let dg2 = DisseminationGraph::new(&g, s, t, edges2).unwrap();
        assert_eq!(dg2.len(), p.len() + 1);
        assert!(dg2.contains(branch));
    }

    #[test]
    fn duplicates_are_removed() {
        let (g, s, t) = setup();
        let p = dijkstra::shortest_path(&g, s, t).unwrap();
        let mut edges = p.edges().to_vec();
        edges.extend_from_slice(p.edges());
        let dg = DisseminationGraph::new(&g, s, t, edges).unwrap();
        assert_eq!(dg.len(), p.len());

        // Receivers normalize the same way: order, repeats and the
        // source itself do not matter, and every member is served.
        let (receivers, edges) = group(&g, s);
        let a =
            DisseminationGraph::with_receivers(&g, s, receivers.clone(), edges.clone()).unwrap();
        let mut shuffled = receivers.clone();
        shuffled.reverse();
        shuffled.extend([receivers[0], s]);
        let b = DisseminationGraph::with_receivers(&g, s, shuffled, edges).unwrap();
        assert_eq!(a, b);
        let mut sorted = receivers.clone();
        sorted.sort();
        assert_eq!(a.receivers(), sorted.as_slice());
        assert!(a.edges().windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
        for &r in &receivers {
            assert!(a.contains_receiver(r));
            let view = a.unicast_view(&g, r).unwrap();
            assert_eq!((view.source(), view.receivers()), (s, &[r][..]));
            assert!(view.best_latency(&g) <= a.best_latency(&g));
        }
        assert!(!a.contains_receiver(s));
        assert!(a.best_latency(&g) < Micros::MAX);
    }

    #[test]
    fn mismatched_paths_are_rejected() {
        let (g, s, t) = setup();
        let p1 = dijkstra::shortest_path(&g, s, t).unwrap();
        let other = g.node_by_name("SEA").unwrap();
        let p2 = dijkstra::shortest_path(&g, s, other).unwrap();
        assert_eq!(
            DisseminationGraph::from_paths(&g, &[p1, p2]),
            Err(CoreError::MismatchedEndpoints)
        );
        assert_eq!(DisseminationGraph::from_paths(&g, &[]), Err(CoreError::MismatchedEndpoints));
    }

    #[test]
    fn forwarding_edges_are_per_node() {
        let (g, s, t) = setup();
        let (p1, p2) = disjoint_pair(&g, s, t, Disjointness::Node).unwrap();
        let dg = DisseminationGraph::from_paths(&g, &[p1, p2]).unwrap();
        let from_source: Vec<EdgeId> = dg.forwarding_edges(&g, s).collect();
        assert_eq!(from_source.len(), 2);
        for e in from_source {
            assert_eq!(g.edge(e).src, s);
        }
        assert_eq!(dg.forwarding_edges(&g, t).count(), 0);
    }

    #[test]
    fn bitmask_round_trip() {
        let (g, s, t) = setup();
        let (p1, p2) = disjoint_pair(&g, s, t, Disjointness::Node).unwrap();
        let dg = DisseminationGraph::from_paths(&g, &[p1, p2]).unwrap();
        let mask = dg.to_bitmask(g.edge_count());
        assert_eq!(mask.len(), g.edge_count().div_ceil(8));
        let back = DisseminationGraph::from_bitmask(&g, s, t, &mask).unwrap();
        assert_eq!(dg, back);

        // A several-receiver graph uses the same format, bit for bit.
        let (receivers, edges) = group(&g, s);
        let mg = DisseminationGraph::with_receivers(&g, s, receivers, edges).unwrap();
        let mask = mg.to_bitmask(g.edge_count());
        assert_eq!(mask.len(), g.edge_count().div_ceil(8));
        for e in g.edges() {
            let bit = mask[e.index() / 8] & (1 << (e.index() % 8)) != 0;
            assert_eq!(bit, mg.contains(e));
        }
    }

    #[test]
    fn short_bitmask_is_rejected() {
        let (g, s, t) = setup();
        assert_eq!(
            DisseminationGraph::from_bitmask(&g, s, t, &[0xff]),
            Err(CoreError::BitmaskTooShort { got: 1, need: g.edge_count().div_ceil(8) })
        );
    }

    #[test]
    fn union_requires_same_flow() {
        let (g, s, t) = setup();
        let p1 = dijkstra::shortest_path(&g, s, t).unwrap();
        let dg1 = DisseminationGraph::from_path(&g, &p1);
        let sea = g.node_by_name("SEA").unwrap();
        let p2 = dijkstra::shortest_path(&g, s, sea).unwrap();
        let dg2 = DisseminationGraph::from_path(&g, &p2);
        assert_eq!(dg1.union(&g, &dg2), Err(CoreError::MismatchedEndpoints));
        let dg3 = dg1.union(&g, &dg1).unwrap();
        assert_eq!(dg3, dg1);
        // Same source and edges, different receiver set: not the same flow.
        let (receivers, edges) = group(&g, s);
        let mg = DisseminationGraph::with_receivers(&g, s, receivers, edges).unwrap();
        assert_eq!(mg.union(&g, &dg1), Err(CoreError::MismatchedEndpoints));
        assert_eq!(mg.union(&g, &mg).unwrap(), mg);
    }

    #[test]
    fn serde_round_trip() {
        let (g, s, t) = setup();
        let p = dijkstra::shortest_path(&g, s, t).unwrap();
        let dg = DisseminationGraph::from_path(&g, &p);
        let (receivers, edges) = group(&g, s);
        let mg = DisseminationGraph::with_receivers(&g, s, receivers, edges).unwrap();
        for graph in [dg, mg] {
            let json = serde_json::to_string(&graph).unwrap();
            assert_eq!(serde_json::from_str::<DisseminationGraph>(&json).unwrap(), graph);
        }
    }
}
