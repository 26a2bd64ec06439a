//! Differential battery: graph construction on the shared search
//! workspace against construction as it stood before it.
//!
//! The reference below is the earlier code kept verbatim in shape: one
//! full Dijkstra run per endpoint neighbour in `problem_branches`, one
//! per receiver for the multicast tree, feasibility recomputed per
//! receiver, hash sets for the feasible, member and reachable sets, and
//! a textbook Dijkstra of its own so that it shares no search code with
//! what it checks. (The disjoint pair is the one piece taken from
//! `dg-topology`; its rounds have their own differential test there.)
//! Latencies are small integers, so equal-cost routes — where a search
//! run in another direction or stopped at another moment would diverge
//! — are the common case rather than the rare one.
//!
//! Every live and multicast entry is also held to the dependency rule
//! (`check_rule`): it depends on what it selects and otherwise only on
//! unusable edges, and healing any unusable edge it does not depend on
//! rebuilds the identical graph — on these small graphs and on generated
//! overlays of 20–100 nodes.

use super::*;
use dg_topology::algo::disjoint::{k_disjoint_paths_weighted, Disjointness};
use dg_topology::generate::{feasible_deadline, representative_flows, GeneratorConfig};
use dg_topology::GraphBuilder;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

/// Distances and tree edges of a full Dijkstra run from `origin`,
/// forward or over reversed edges.
fn dijkstra_run(
    g: &Graph,
    origin: NodeId,
    forward: bool,
    weight: impl Fn(EdgeId) -> Option<u64>,
) -> (Vec<u64>, Vec<Option<EdgeId>>) {
    let n = g.node_count();
    let mut dist = vec![u64::MAX; n];
    let mut prev: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[origin.index()] = 0;
    heap.push(Reverse((0u64, origin)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for &e in if forward { g.out_edges(u) } else { g.in_edges(u) } {
            let Some(w) = weight(e) else { continue };
            let v = if forward { g.edge(e).dst } else { g.edge(e).src };
            let nd = d.saturating_add(w);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                prev[v.index()] = Some(e);
                heap.push(Reverse((nd, v)));
            }
        }
    }
    (dist, prev)
}

fn shortest_path_weighted(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    weight: impl Fn(EdgeId) -> Option<u64>,
) -> Result<Vec<EdgeId>, TopologyError> {
    g.check_node(src)?;
    g.check_node(dst)?;
    if src == dst {
        return Err(TopologyError::NoRoute(src, dst));
    }
    let (dist, prev) = dijkstra_run(g, src, true, weight);
    if dist[dst.index()] == u64::MAX {
        return Err(TopologyError::NoRoute(src, dst));
    }
    let mut edges = Vec::new();
    let mut at = dst;
    while at != src {
        let e = prev[at.index()].expect("reachable node has predecessor");
        edges.push(e);
        at = g.edge(e).src;
    }
    edges.reverse();
    Ok(edges)
}

fn time_constrained_edges(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    deadline: Micros,
) -> Result<HashSet<EdgeId>, TopologyError> {
    g.check_node(src)?;
    g.check_node(dst)?;
    if src == dst {
        return Err(TopologyError::NoRoute(src, dst));
    }
    let latency = |e: EdgeId| Some(g.edge(e).latency.as_micros());
    let from_src = dijkstra_run(g, src, true, latency).0;
    let to_dst = dijkstra_run(g, dst, false, latency).0;
    Ok(g.edges()
        .filter(|&e| {
            let info = g.edge(e);
            let (head, tail) = (from_src[info.src.index()], to_dst[info.dst.index()]);
            head != u64::MAX
                && tail != u64::MAX
                && head.saturating_add(info.latency.as_micros()).saturating_add(tail)
                    <= deadline.as_micros()
        })
        .collect())
}

fn latency_of(g: &Graph, edges: &[EdgeId]) -> Micros {
    edges.iter().map(|&e| g.edge(e).latency).sum()
}

/// `problem_branches` with one search per neighbour on either side.
fn problem_branches_per_neighbour(
    g: &Graph,
    flow: Flow,
    side: Side,
    base: &[EdgeId],
    deadline: Micros,
    limit: Option<u8>,
    weight: impl Fn(EdgeId) -> Option<u64>,
) -> Vec<EdgeId> {
    let (endpoint, connecting) = match side {
        Side::Source => (flow.source, g.out_edges(flow.source)),
        Side::Destination => (flow.destination, g.in_edges(flow.destination)),
    };
    let ends = |e: EdgeId| match side {
        Side::Source => (g.edge(e).src, g.edge(e).dst),
        Side::Destination => (g.edge(e).dst, g.edge(e).src),
    };
    let used: HashSet<NodeId> = base
        .iter()
        .map(|&e| ends(e))
        .filter(|&(near, _)| near == endpoint)
        .map(|(_, far)| far)
        .collect();
    let mut candidates: Vec<(Micros, Vec<EdgeId>)> = Vec::new();
    for &link in connecting {
        let neighbor = ends(link).1;
        if weight(link).is_none() || used.contains(&neighbor) {
            continue;
        }
        let (from, to) = match side {
            Side::Source => (neighbor, flow.destination),
            Side::Destination => (flow.source, neighbor),
        };
        if from == to {
            candidates.push((g.edge(link).latency, vec![link]));
            continue;
        }
        let rest = shortest_path_weighted(g, from, to, |e| {
            let info = g.edge(e);
            if info.src == endpoint || info.dst == endpoint {
                return None;
            }
            weight(e)
        });
        if let Ok(rest) = rest {
            let latency = g.edge(link).latency + latency_of(g, &rest);
            if latency <= deadline {
                let branch = match side {
                    Side::Source => [&[link], rest.as_slice()].concat(),
                    Side::Destination => [rest.as_slice(), &[link]].concat(),
                };
                candidates.push((latency, branch));
            }
        }
    }
    candidates.sort_by(|a, b| (a.0, a.1.as_slice()).cmp(&(b.0, b.1.as_slice())));
    let limit = limit.map_or(usize::MAX, usize::from);
    candidates.into_iter().take(limit).flat_map(|(_, branch)| branch).collect()
}

/// A dissemination graph as its parts: source, receivers, edges.
type Parts = (NodeId, Vec<NodeId>, Vec<EdgeId>);

fn parts(graph: &DisseminationGraph) -> Parts {
    (graph.source(), graph.receivers().to_vec(), graph.edges().to_vec())
}

/// `DisseminationGraph::with_receivers` on hash sets.
fn normalized(
    g: &Graph,
    source: NodeId,
    receivers: Vec<NodeId>,
    edges: Vec<EdgeId>,
) -> Result<Parts, CoreError> {
    g.check_node(source)?;
    for &r in &receivers {
        g.check_node(r)?;
    }
    let receivers = canonical_receivers(source, receivers)?;
    for &e in &edges {
        g.check_edge(e)?;
    }
    let member: HashSet<EdgeId> = edges.iter().copied().collect();
    let mut reachable = HashSet::from([source]);
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &e in g.out_edges(u) {
            if member.contains(&e) && reachable.insert(g.edge(e).dst) {
                queue.push_back(g.edge(e).dst);
            }
        }
    }
    if let Some(&missed) = receivers.iter().find(|r| !reachable.contains(r)) {
        return Err(CoreError::Unreachable { source, destination: missed });
    }
    let mut kept: Vec<EdgeId> =
        member.into_iter().filter(|&e| reachable.contains(&g.edge(e).src)).collect();
    kept.sort();
    Ok((source, receivers, kept))
}

fn feasible_or_infeasible(
    g: &Graph,
    flow: Flow,
    deadline: Micros,
) -> Result<HashSet<EdgeId>, CoreError> {
    let feasible = time_constrained_edges(g, flow.source, flow.destination, deadline)?;
    if feasible.is_empty() {
        return Err(CoreError::DeadlineInfeasible {
            source: flow.source,
            destination: flow.destination,
        });
    }
    Ok(feasible)
}

/// `TargetedGraphs::compute`: normal, source-problem, destination-
/// problem, robust.
fn reference_bundle(
    g: &Graph,
    flow: Flow,
    requirement: ServiceRequirement,
    params: &SchemeParams,
) -> Result<[Parts; 4], CoreError> {
    let (s, t) = (flow.source, flow.destination);
    let pair = k_disjoint_paths_weighted(g, s, t, 2, params.disjointness, |e| {
        Some(g.edge(e).latency.as_micros() as i64)
    })?;
    let pair_edges: Vec<EdgeId> = pair.iter().flat_map(|p| p.edges().iter().copied()).collect();
    let normal = normalized(g, s, vec![t], pair_edges)?;
    let feasible = feasible_or_infeasible(g, flow, requirement.deadline)?;
    let problem_graph = |side| {
        let mut edges = normal.2.clone();
        edges.extend(problem_branches_per_neighbour(
            g,
            flow,
            side,
            &normal.2,
            requirement.deadline,
            params.problem_branch_limit,
            |e| feasible.contains(&e).then(|| g.edge(e).latency.as_micros()),
        ));
        normalized(g, s, vec![t], edges)
    };
    let source_problem = problem_graph(Side::Source)?;
    let destination_problem = problem_graph(Side::Destination)?;
    let union = [source_problem.2.as_slice(), destination_problem.2.as_slice()].concat();
    let robust = normalized(g, s, vec![t], union)?;
    Ok([normal, source_problem, destination_problem, robust])
}

impl GraphCache {
    fn reference_live_branches(
        &self,
        flow: Flow,
        sides: &[Side],
        base: &[EdgeId],
        requirement: ServiceRequirement,
        unusable: &EdgeSet,
    ) -> Result<Vec<EdgeId>, CoreError> {
        let g = &*self.graph;
        let feasible = feasible_or_infeasible(g, flow, requirement.deadline)?;
        let weight =
            |e| (feasible.contains(&e) && !unusable.contains(e)).then(|| tie_broken_weight(g, e));
        let limit = self.params.problem_branch_limit;
        Ok(sides
            .iter()
            .flat_map(|&side| {
                let deadline = requirement.deadline;
                problem_branches_per_neighbour(g, flow, side, base, deadline, limit, weight)
            })
            .collect())
    }

    fn reference_live(
        &self,
        flow: Flow,
        kind: CachedGraphKind,
        requirement: ServiceRequirement,
        unusable: &EdgeSet,
    ) -> Result<Parts, CoreError> {
        let g = &*self.graph;
        let pair = |usable_only: bool| {
            let (s, t) = (flow.source, flow.destination);
            k_disjoint_paths_weighted(g, s, t, 2, self.params.disjointness, |e| {
                (!usable_only || !unusable.contains(e)).then(|| tie_broken_weight(g, e) as i64)
            })
        };
        let paths = pair(true).or_else(|_| pair(false))?;
        let mut edges: Vec<EdgeId> = paths.iter().flat_map(|p| p.edges().iter().copied()).collect();
        let sides: &[Side] = match kind {
            CachedGraphKind::TwoDisjoint => &[],
            CachedGraphKind::SourceProblem => &[Side::Source],
            CachedGraphKind::DestinationProblem => &[Side::Destination],
            CachedGraphKind::Robust => &[Side::Source, Side::Destination],
        };
        if !sides.is_empty() {
            let branches =
                self.reference_live_branches(flow, sides, &edges, requirement, unusable)?;
            edges.extend(branches);
        }
        normalized(g, flow.source, vec![flow.destination], edges)
    }

    fn reference_multicast(
        &self,
        source: NodeId,
        receivers: &[NodeId],
        kind: MulticastKind,
        requirement: ServiceRequirement,
        unusable: &EdgeSet,
    ) -> Result<Parts, CoreError> {
        let g = &*self.graph;
        let usable = |e: EdgeId| !unusable.contains(e);
        let mut edges: Vec<EdgeId> = Vec::new();
        for &r in receivers {
            let path = shortest_path_weighted(g, source, r, |e| {
                usable(e).then(|| tie_broken_weight(g, e))
            })
            .or_else(|_| shortest_path_weighted(g, source, r, |e| Some(tie_broken_weight(g, e))))?;
            edges.extend(path);
        }
        if kind != MulticastKind::Tree {
            let tree_len = edges.len();
            for &r in receivers {
                if kind == MulticastKind::Targeted && g.in_edges(r).iter().all(|&e| usable(e)) {
                    continue;
                }
                let flow = Flow::new(source, r);
                let tree = &edges[..tree_len];
                if let Ok(branches) = self.reference_live_branches(
                    flow,
                    &[Side::Destination],
                    tree,
                    requirement,
                    unusable,
                ) {
                    edges.extend(branches);
                }
            }
        }
        normalized(g, source, receivers.to_vec(), edges)
    }
}

/// One cache entry of a case: a live kind of its flow, or a multicast
/// kind from its flow's source to its receivers.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Live(CachedGraphKind),
    Multicast(MulticastKind),
}

/// What a case's entries are for.
struct Request {
    flow: Flow,
    /// Canonical; empty when the case's receivers reduce to none.
    receivers: Vec<NodeId>,
    requirement: ServiceRequirement,
}

impl Request {
    fn new(flow: Flow, receivers: Vec<NodeId>, requirement: ServiceRequirement) -> Self {
        let receivers = canonical_receivers(flow.source, receivers).unwrap_or_default();
        Request { flow, receivers, requirement }
    }

    fn entries(&self) -> Vec<Entry> {
        let multicast = MulticastKind::ALL.map(Entry::Multicast);
        let multicast = multicast.into_iter().filter(|_| !self.receivers.is_empty());
        CachedGraphKind::ALL.map(Entry::Live).into_iter().chain(multicast).collect()
    }
}

impl GraphCache {
    /// `entry` built on the workspace under `down`: its graph and its
    /// dependency set.
    fn build(
        &self,
        work: &mut Work,
        entry: Entry,
        request: &Request,
        down: &EdgeSet,
    ) -> Result<(Parts, EdgeSet), CoreError> {
        let Request { flow, receivers, requirement } = request;
        let built = match entry {
            Entry::Live(kind) => self.compute_live(work, *flow, kind, *requirement, down),
            Entry::Multicast(kind) => {
                self.compute_multicast(work, flow.source, receivers, kind, *requirement, down)
            }
        };
        built.map(|(graph, deps)| (parts(&graph), deps))
    }

    fn reference(
        &self,
        entry: Entry,
        request: &Request,
        down: &EdgeSet,
    ) -> Result<Parts, CoreError> {
        let Request { flow, receivers, requirement } = request;
        match entry {
            Entry::Live(kind) => self.reference_live(*flow, kind, *requirement, down),
            Entry::Multicast(kind) => {
                self.reference_multicast(flow.source, receivers, kind, *requirement, down)
            }
        }
    }

    /// What the cache serves for `entry` under the usability it has
    /// been told of.
    fn served(&self, entry: Entry, request: &Request) -> Result<Parts, CoreError> {
        let Request { flow, receivers, requirement } = request;
        match entry {
            Entry::Live(kind) => self.compute_uncached(*flow, kind, *requirement),
            Entry::Multicast(kind) => {
                self.compute_multicast_uncached(flow.source, receivers, kind, *requirement)
            }
        }
        .map(|graph| parts(&graph))
    }
}

/// The dependency rule's obligations for `entry` built under `down`:
///
/// 1. the graph is the reference construction's;
/// 2. `selected ⊆ deps ⊆ selected ∪ down` (a targeted multicast graph
///    also depends on its receivers' in-edges, which its problem
///    classification reads);
/// 3. healing any edge of `down` outside `deps` — one at a time, and
///    all of them at once — and building again gives the same graph.
fn check_rule(
    cache: &GraphCache,
    work: &mut Work,
    entry: Entry,
    request: &Request,
    down: &EdgeSet,
) -> Result<(), TestCaseError> {
    let built = cache.build(work, entry, request, down);
    let reference = cache.reference(entry, request, down);
    prop_assert_eq!(built.as_ref().map(|(graph, _)| graph), reference.as_ref(), "{:?}", entry);
    let Ok((graph, deps)) = built else { return Ok(()) };
    let selected = &graph.2;
    let classified = |e: EdgeId| {
        matches!(entry, Entry::Multicast(MulticastKind::Targeted))
            && request.receivers.contains(&cache.graph.edge(e).dst)
    };
    prop_assert!(
        selected.iter().all(|&e| deps.contains(e)),
        "{:?}: selects an edge it does not depend on",
        entry
    );
    prop_assert!(
        deps.iter().all(|e| selected.contains(&e) || down.contains(e) || classified(e)),
        "{:?}: depends on a usable edge it neither selects nor classifies by",
        entry
    );
    let free: Vec<EdgeId> = down.iter().filter(|&e| !deps.contains(e)).collect();
    let all_at_once = (free.len() > 1).then_some(&free[..]);
    for healed in free.chunks(1).chain(all_at_once) {
        let mut now = down.clone();
        for &e in healed {
            now.remove(e);
        }
        let again = cache.build(work, entry, request, &now).map(|(graph, _)| graph);
        prop_assert_eq!(
            again.as_ref(),
            Ok::<_, &CoreError>(&graph),
            "{:?}: healing {:?}, outside its dependencies, changed it",
            entry,
            healed
        );
    }
    Ok(())
}

/// One small case's inputs, all drawn from `seed`: latencies are small
/// integers, so equal-cost routes are the common case.
struct Case {
    graph: Graph,
    unusable: Vec<EdgeId>,
    flow: Flow,
    receivers: Vec<NodeId>,
    requirement: ServiceRequirement,
    params: SchemeParams,
}

fn case(seed: u64) -> Case {
    let mut state = seed;
    let mut below = |bound: u64| {
        state = splitmix64(state);
        state % bound
    };
    let n = 5 + below(10) as usize;
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(&format!("N{i}"))).collect();
    let density = 30 + below(40);
    for i in 0..n {
        for j in (i + 1)..n {
            if below(100) < density {
                let latency = Micros::from_millis(1 + below(3));
                b.add_link(nodes[i], nodes[j], latency, 1).expect("fresh pair of nodes");
            }
        }
    }
    let graph = b.build();
    let down = [0, 0, 10, 25][below(4) as usize];
    let unusable = graph.edges().filter(|_| below(100) < down).collect();
    let source = nodes[below(n as u64) as usize];
    let destination = nodes[(source.index() + 1 + below(n as u64 - 1) as usize) % n];
    let receivers = (0..1 + below(4)).map(|_| nodes[below(n as u64) as usize]).collect();
    Case {
        graph,
        unusable,
        flow: Flow::new(source, destination),
        receivers,
        requirement: ServiceRequirement::new(Micros::from_millis(2 + below(9))),
        params: random_params(&mut below),
    }
}

fn random_params(below: &mut impl FnMut(u64) -> u64) -> SchemeParams {
    SchemeParams {
        disjointness: [Disjointness::Node, Disjointness::Edge][below(2) as usize],
        problem_branch_limit: [None, Some(0), Some(1), Some(2)][below(4) as usize],
        ..SchemeParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn construction_on_the_workspace_matches_the_reference(seed in 0u64..u64::MAX) {
        let Case { graph, unusable, flow, receivers, requirement, params } = case(seed);

        let bundle = TargetedGraphs::compute(&graph, flow, requirement, &params).map(|b| {
            [&b.normal, &b.source_problem, &b.destination_problem, &b.robust].map(parts)
        });
        prop_assert_eq!(bundle, reference_bundle(&graph, flow, requirement, &params));

        let cache = GraphCache::new(graph, params);
        for &e in &unusable {
            cache.note_loss(e, 0.9);
        }
        let down: EdgeSet = unusable.iter().copied().collect();
        let request = Request::new(flow, receivers, requirement);
        // One scratch and reach memo across every construction of the
        // case, as the cache has them.
        let mut work = Work::default();
        for entry in request.entries() {
            check_rule(&cache, &mut work, entry, &request, &down)?;
            let served = cache.served(entry, &request);
            prop_assert_eq!(served, cache.reference(entry, &request, &down), "{:?}", entry);
        }
    }

    /// The same obligations on generated Waxman and ring-of-cliques
    /// overlays of 20–100 nodes, with 1–7 links down. Links drawn at
    /// random from a 100-node overlay rarely touch a given graph, so
    /// they are drawn from the edges the entries select when nothing is
    /// down: each is a link whose loss moves some entry, and whose heal
    /// may or may not.
    #[test]
    fn the_dependency_rule_holds_on_generated_topologies(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let mut below = |bound: u64| {
            state = splitmix64(state);
            state % bound
        };
        let nodes = 20 + below(81) as usize;
        let graph = match below(2) {
            0 => GeneratorConfig::waxman(nodes, seed),
            _ => GeneratorConfig::ring_of_cliques(nodes, seed),
        }
        .generate();
        let flows = representative_flows(&graph, 4, seed);
        prop_assume!(!flows.is_empty());
        let (s, t) = flows[below(flows.len() as u64) as usize];
        let n = graph.node_count() as u64;
        let receivers = (0..1 + below(6)).map(|_| NodeId::new(below(n) as u32)).collect();
        let requirement = ServiceRequirement::new(feasible_deadline(&graph, &flows, 2.0));
        let request = Request::new(Flow::new(s, t), receivers, requirement);
        let cache = GraphCache::new(graph, random_params(&mut below));
        let mut work = Work::default();

        let mut selected: Vec<EdgeId> = Vec::new();
        for entry in request.entries() {
            if let Ok((graph, _)) = cache.build(&mut work, entry, &request, &EdgeSet::new()) {
                selected.extend(graph.2);
            }
        }
        selected.sort();
        selected.dedup();
        prop_assume!(!selected.is_empty());
        let picks = 1 + below(7);
        let down: EdgeSet =
            (0..picks).map(|_| selected[below(selected.len() as u64) as usize]).collect();
        for entry in request.entries() {
            check_rule(&cache, &mut work, entry, &request, &down)?;
        }
    }
}
