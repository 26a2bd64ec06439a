//! Dissemination graphs with targeted redundancy — the paper's routing
//! method.
//!
//! The scheme precomputes four dissemination graphs per flow:
//!
//! 1. the **normal graph**: two node-disjoint paths,
//! 2. the **source-problem graph**: the disjoint pair plus a branch
//!    through *every* usable neighbour of the source (so a copy escapes
//!    the lossy source area on as many independent links as possible),
//! 3. the **destination-problem graph**: symmetric, entering the
//!    destination over every usable neighbour,
//! 4. the **robust graph**: the union of 2 and 3.
//!
//! At runtime a [`ProblemDetector`] classifies each monitoring update;
//! the selector switches *up* (toward more redundancy) immediately and
//! *down* only after the problem has stayed clear for a configurable
//! number of updates, damping flapping. Because problems around
//! endpoints are rare, the expensive graphs are almost never active and
//! the scheme's average cost stays within a few percent of two disjoint
//! paths while recovering nearly the whole gap to optimal flooding.

use crate::scheme::{RoutingScheme, SchemeKind, SchemeParams};
use crate::{
    CoreError, DisseminationGraph, Flow, ProblemDetector, ProblemStatus, ServiceRequirement,
};
use dg_topology::algo::dijkstra::Direction;
use dg_topology::algo::reach::Reach;
use dg_topology::algo::SearchWorkspace;
use dg_topology::cache::EdgeSet;
use dg_topology::{EdgeId, Graph, Micros, NodeId};
use dg_trace::NetworkState;
use std::sync::Arc;

/// Which of the four precomputed graphs is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetedMode {
    /// Two disjoint paths (the common case).
    Normal,
    /// Source-problem graph active.
    SourceProblem,
    /// Destination-problem graph active.
    DestinationProblem,
    /// Robust source-destination graph active.
    Robust,
}

impl TargetedMode {
    fn severity(self) -> u8 {
        match self {
            TargetedMode::Normal => 0,
            TargetedMode::SourceProblem | TargetedMode::DestinationProblem => 1,
            TargetedMode::Robust => 2,
        }
    }

    fn for_status(status: ProblemStatus) -> TargetedMode {
        match status {
            ProblemStatus::Clear => TargetedMode::Normal,
            ProblemStatus::SourceProblem => TargetedMode::SourceProblem,
            ProblemStatus::DestinationProblem => TargetedMode::DestinationProblem,
            ProblemStatus::BothProblems => TargetedMode::Robust,
        }
    }
}

/// The four precomputed dissemination graphs of one targeted-
/// redundancy flow, as a shareable bundle.
///
/// [`TargetedRedundancy`] holds one of these behind an [`Arc`]; the
/// `GraphCache` interning layer (`dg-core::cache`) computes a bundle
/// once per `(flow, deadline)` and hands the same allocation to every
/// scheme instance that needs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetedGraphs {
    /// Two disjoint paths (the common case).
    pub normal: DisseminationGraph,
    /// The source-problem graph: the pair plus an escape branch
    /// through every usable source neighbour.
    pub source_problem: DisseminationGraph,
    /// The destination-problem graph, symmetric on the receiving side.
    pub destination_problem: DisseminationGraph,
    /// The union of the two problem graphs.
    pub robust: DisseminationGraph,
}

/// Storage that graph construction reuses from one graph to the next:
/// the search workspace, and the deadline-feasible edge set the
/// searches on it are filtered by.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub(crate) ws: SearchWorkspace,
    pub(crate) feasible: EdgeSet,
}

impl TargetedGraphs {
    /// Precomputes the four graphs for `flow` under `requirement`.
    ///
    /// # Errors
    ///
    /// Returns an error when the topology lacks two disjoint routes or
    /// the deadline is infeasible.
    pub fn compute(
        topology: &Graph,
        flow: Flow,
        requirement: ServiceRequirement,
        params: &SchemeParams,
    ) -> Result<Self, CoreError> {
        let mut scratch = Scratch::default();
        let ws = &mut scratch.ws;
        let from_src = ws.reach_pass(topology, flow.source, Direction::Forward)?.to_vec();
        let to_dst = ws.reach_pass(topology, flow.destination, Direction::Backward)?.to_vec();
        let reach = Reach { from_src: &from_src, to_dst: &to_dst };
        Self::compute_on(&mut scratch, topology, flow, requirement, params, reach)
    }

    /// [`TargetedGraphs::compute`] on the caller's scratch storage and
    /// the flow's reach pass over `topology`.
    pub(crate) fn compute_on(
        scratch: &mut Scratch,
        topology: &Graph,
        flow: Flow,
        requirement: ServiceRequirement,
        params: &SchemeParams,
        reach: Reach<'_>,
    ) -> Result<Self, CoreError> {
        let Scratch { ws, feasible } = scratch;
        // The searches that end at the destination are aimed at it by the
        // reach pass's distance on to it, a consistent lower bound on the
        // latency of any route there; they settle ties as unaimed ones do.
        let to_dst = |v: NodeId| reach.to_dst[v.index()];
        let pair = ws.k_disjoint_paths_toward(
            topology,
            flow.source,
            flow.destination,
            2,
            params.disjointness,
            |e| Some(topology.edge(e).latency.as_micros() as i64),
            to_dst,
        )?;
        let normal = DisseminationGraph::from_paths(topology, &pair)?;

        // Edges that can still meet the deadline; branches outside this
        // set could never deliver on time, so they are never added.
        reach.in_time_edges(topology, requirement.deadline, feasible);
        if feasible.is_empty() {
            return Err(CoreError::DeadlineInfeasible {
                source: flow.source,
                destination: flow.destination,
            });
        }

        // The baseline bundle reads topology only: every feasible edge
        // is usable and continuations minimise plain latency.
        let mut problem_graph = |side| {
            let mut edges = normal.edges().to_vec();
            edges.extend(problem_branches(
                ws,
                topology,
                flow,
                side,
                normal.edges(),
                requirement.deadline,
                params.problem_branch_limit,
                |e| feasible.contains(e).then(|| topology.edge(e).latency.as_micros()),
                to_dst,
                None,
            ));
            DisseminationGraph::new(topology, flow.source, flow.destination, edges)
        };
        let source_problem = problem_graph(Side::Source)?;
        let destination_problem = problem_graph(Side::Destination)?;
        let robust = source_problem.union(topology, &destination_problem)?;

        Ok(TargetedGraphs { normal, source_problem, destination_problem, robust })
    }

    /// The graph for `mode`.
    pub fn for_mode(&self, mode: TargetedMode) -> &DisseminationGraph {
        match mode {
            TargetedMode::Normal => &self.normal,
            TargetedMode::SourceProblem => &self.source_problem,
            TargetedMode::DestinationProblem => &self.destination_problem,
            TargetedMode::Robust => &self.robust,
        }
    }
}

/// The targeted-redundancy routing scheme (see module docs).
#[derive(Debug, Clone)]
pub struct TargetedRedundancy {
    flow: Flow,
    detector: ProblemDetector,
    clear_after_updates: u32,
    graphs: Arc<TargetedGraphs>,
    mode: TargetedMode,
    clear_streak: u32,
}

impl TargetedRedundancy {
    /// Precomputes the four graphs for `flow` under `requirement`.
    ///
    /// # Errors
    ///
    /// Returns an error when the topology lacks two disjoint routes or
    /// the deadline is infeasible.
    pub fn new(
        topology: &Graph,
        flow: Flow,
        requirement: ServiceRequirement,
        params: &SchemeParams,
    ) -> Result<Self, CoreError> {
        let graphs = TargetedGraphs::compute(topology, flow, requirement, params)?;
        Ok(Self::from_graphs(Arc::new(graphs), flow, params))
    }

    /// Builds the scheme around an already-computed (typically cached
    /// and shared) graph bundle.
    pub fn from_graphs(graphs: Arc<TargetedGraphs>, flow: Flow, params: &SchemeParams) -> Self {
        TargetedRedundancy {
            flow,
            detector: ProblemDetector::new(params.problem_loss_threshold),
            clear_after_updates: params.clear_after_updates,
            graphs,
            mode: TargetedMode::Normal,
            clear_streak: 0,
        }
    }

    /// The currently active mode.
    pub fn mode(&self) -> TargetedMode {
        self.mode
    }

    /// The precomputed graph for `mode`.
    pub fn graph_for_mode(&self, mode: TargetedMode) -> &DisseminationGraph {
        self.graphs.for_mode(mode)
    }
}

/// Which endpoint of a flow a problem graph adds redundancy around.
#[derive(Clone, Copy)]
pub(crate) enum Side {
    /// Branch out of the source over every neighbour.
    Source,
    /// Branch into the destination over every neighbour.
    Destination,
}

impl Side {
    /// The problem endpoint of `flow` on this side and its links to its
    /// neighbours (out of the source, into the destination).
    pub(crate) fn endpoint_links(self, g: &Graph, flow: Flow) -> (NodeId, &[EdgeId]) {
        match self {
            Side::Source => (flow.source, g.out_edges(flow.source)),
            Side::Destination => (flow.destination, g.in_edges(flow.destination)),
        }
    }
}

/// Called by [`problem_branches`] after each search with the workspace
/// holding it and what the search was read for (see there).
pub(crate) type AfterSearch<'a> = &'a mut dyn FnMut(&mut SearchWorkspace, Read<'_>);

/// What [`problem_branches`] read off a search it ran.
pub(crate) enum Read<'a> {
    /// A source-side continuation, stopped at the destination: the path
    /// there.
    Path,
    /// The destination-side tree: the paths to these neighbours of the
    /// destination, reached or not.
    Tree(&'a [NodeId]),
}

/// The redundancy branches a problem graph adds around one endpoint of
/// `flow`, flattened into one edge list.
///
/// For every neighbour of that endpoint which `base` (the graph being
/// widened) does not already use, a branch is the connecting edge plus
/// the cheapest continuation to the far endpoint that stays clear of
/// the problem endpoint, so each branch is an independent route.
/// `weight` returns `None` for edges that must not be used and the
/// cost continuations minimise otherwise. Branches whose latency
/// exceeds `deadline` are dropped; of the rest, the `limit`
/// lowest-latency ones are kept (ties resolved by edge list).
///
/// The continuations are forward searches, and which way a search runs
/// decides which of several equal-cost routes it returns. Into the
/// destination they all leave `flow.source` under one weight, so they
/// are read off one shortest-path tree; out of the source each starts
/// at its own neighbour and stops once the destination is settled,
/// aimed at it by `floor` ([`SearchWorkspace::search_toward`]): a
/// consistent lower bound on the weight of any route on to the
/// destination. Aimed or not, a search settles ties as the unaimed one
/// does wherever `weight` is positive.
///
/// Every problem graph in the crate is built from this: the baseline
/// bundle, the cache's usability-filtered live graphs, and the
/// per-receiver grafts of multicast graphs (a receiver is the
/// destination of `flow` there).
///
/// `after_search`, when given, is called after every search, while the
/// workspace still holds it, with what the search was read for
/// ([`Read`]): a source-side search its path to the far endpoint, the
/// destination-side tree its paths to the neighbours it was read at.
/// The cache asks here which unusable edges a construction depends on;
/// the baseline bundle passes `None`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn problem_branches(
    ws: &mut SearchWorkspace,
    g: &Graph,
    flow: Flow,
    side: Side,
    base: &[EdgeId],
    deadline: Micros,
    limit: Option<u8>,
    weight: impl Fn(EdgeId) -> Option<u64>,
    floor: impl Fn(NodeId) -> u64,
    mut after_search: Option<AfterSearch<'_>>,
) -> Vec<EdgeId> {
    let (endpoint, connecting) = side.endpoint_links(g, flow);
    // An edge's ends as (nearer the problem endpoint, farther from it).
    let ends = |e: EdgeId| match side {
        Side::Source => (g.edge(e).src, g.edge(e).dst),
        Side::Destination => (g.edge(e).dst, g.edge(e).src),
    };
    // Continuations stay clear of the problem endpoint.
    let onward = |e: EdgeId| {
        let info = g.edge(e);
        if info.src == endpoint || info.dst == endpoint {
            return None;
        }
        weight(e)
    };
    let far = match side {
        Side::Source => flow.destination,
        Side::Destination => flow.source,
    };
    let mut tree_built = false;
    // The neighbours the destination-side tree was read at, for
    // `after_search`.
    let mut read = Vec::new();
    let mut candidates: Vec<(Micros, Vec<EdgeId>)> = Vec::new();
    for &link in connecting {
        let neighbor = ends(link).1;
        if weight(link).is_none() {
            continue;
        }
        if base.iter().any(|&e| ends(e) == (endpoint, neighbor)) {
            continue;
        }
        if neighbor == far {
            // The neighbour is the far endpoint: the link is the branch.
            candidates.push((g.edge(link).latency, vec![link]));
            continue;
        }
        let mut branch = Vec::new();
        let reached = match side {
            Side::Source => {
                branch.push(link);
                let searched = ws.search_toward(g, neighbor, far, onward, &floor).is_ok();
                if let (true, Some(after)) = (searched, after_search.as_mut()) {
                    after(ws, Read::Path);
                }
                searched && ws.append_path_to(g, far, &mut branch)
            }
            Side::Destination => {
                if !tree_built {
                    tree_built = ws.search_from(g, far, None, onward).is_ok();
                }
                let reached = tree_built && ws.append_path_to(g, neighbor, &mut branch);
                if after_search.is_some() {
                    read.push(neighbor);
                }
                branch.push(link);
                reached
            }
        };
        let latency: Micros = branch.iter().map(|&e| g.edge(e).latency).sum();
        if reached && latency <= deadline {
            candidates.push((latency, branch));
        }
    }
    if let (true, Some(after)) = (tree_built, after_search) {
        after(ws, Read::Tree(&read));
    }
    candidates.sort_by(|a, b| (a.0, a.1.as_slice()).cmp(&(b.0, b.1.as_slice())));
    let limit = limit.map_or(usize::MAX, usize::from);
    candidates.into_iter().take(limit).flat_map(|(_, branch)| branch).collect()
}

impl RoutingScheme for TargetedRedundancy {
    fn kind(&self) -> SchemeKind {
        SchemeKind::TargetedRedundancy
    }

    fn flow(&self) -> Flow {
        self.flow
    }

    fn current(&self) -> &DisseminationGraph {
        self.graph_for_mode(self.mode)
    }

    fn update(&mut self, topology: &Graph, state: &NetworkState) -> bool {
        // Problems are always judged against the normal graph's edges:
        // those are the links the flow depends on in steady state, and
        // judging against the inflated problem graphs would keep the
        // scheme escalated whenever any extra branch sees loss.
        let status = self.detector.classify(topology, self.flow, &self.graphs.normal, state);
        let target = TargetedMode::for_status(status);
        let previous = self.mode;

        if target.severity() >= self.mode.severity() {
            // Escalate (or move sideways, e.g. source -> destination)
            // immediately; problems demand an instant reaction.
            self.mode = target;
            self.clear_streak = 0;
        } else {
            // De-escalate only after a sustained clear streak.
            self.clear_streak += 1;
            if self.clear_streak >= self.clear_after_updates {
                self.mode = target;
                self.clear_streak = 0;
            }
        }
        self.mode != previous
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::presets;
    use dg_trace::LinkCondition;

    fn setup() -> (Graph, TargetedRedundancy) {
        let g = presets::north_america_12();
        let flow = Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap());
        // Pin the hold-down at 2 updates; the de-escalation tests below
        // depend on it regardless of the library default.
        let params = SchemeParams { clear_after_updates: 2, ..SchemeParams::default() };
        let s = TargetedRedundancy::new(&g, flow, ServiceRequirement::default(), &params).unwrap();
        (g, s)
    }

    fn impair_source(g: &Graph, s: &TargetedRedundancy, state: &mut NetworkState) {
        for &e in g.out_edges(s.flow().source) {
            state.set_condition(e, LinkCondition::new(0.5, Micros::ZERO));
        }
    }

    fn impair_destination(g: &Graph, s: &TargetedRedundancy, state: &mut NetworkState) {
        for &e in g.in_edges(s.flow().destination) {
            state.set_condition(e, LinkCondition::new(0.5, Micros::ZERO));
        }
    }

    #[test]
    fn starts_in_normal_mode_with_disjoint_pair() {
        let (g, s) = setup();
        assert_eq!(s.mode(), TargetedMode::Normal);
        assert_eq!(s.current().forwarding_edges(&g, s.flow().source).count(), 2);
    }

    #[test]
    fn source_problem_graph_uses_every_source_neighbor() {
        let (g, s) = setup();
        let sg = s.graph_for_mode(TargetedMode::SourceProblem);
        let out_degree = g.out_edges(s.flow().source).len();
        assert_eq!(
            sg.forwarding_edges(&g, s.flow().source).count(),
            out_degree,
            "source-problem graph should branch on all {out_degree} neighbours"
        );
        assert!(sg.is_superset_of(s.graph_for_mode(TargetedMode::Normal)));
    }

    #[test]
    fn destination_problem_graph_enters_on_every_neighbor() {
        let (g, s) = setup();
        let dgr = s.graph_for_mode(TargetedMode::DestinationProblem);
        let in_degree = g.in_edges(s.flow().destination).len();
        let entering =
            dgr.edges().iter().filter(|&&e| g.edge(e).dst == s.flow().destination).count();
        assert_eq!(entering, in_degree);
        assert!(dgr.is_superset_of(s.graph_for_mode(TargetedMode::Normal)));
    }

    #[test]
    fn robust_graph_is_the_union() {
        let (g, s) = setup();
        let robust = s.graph_for_mode(TargetedMode::Robust);
        assert!(robust.is_superset_of(s.graph_for_mode(TargetedMode::SourceProblem)));
        assert!(robust.is_superset_of(s.graph_for_mode(TargetedMode::DestinationProblem)));
        // Still cheaper than flooding.
        let flood = crate::scheme::build_scheme(
            SchemeKind::TimeConstrainedFlooding,
            &g,
            s.flow(),
            ServiceRequirement::default(),
            &SchemeParams::default(),
        )
        .unwrap();
        assert!(robust.cost(&g) < flood.current().cost(&g));
    }

    #[test]
    fn all_graphs_meet_the_deadline() {
        let (g, s) = setup();
        for mode in [
            TargetedMode::Normal,
            TargetedMode::SourceProblem,
            TargetedMode::DestinationProblem,
            TargetedMode::Robust,
        ] {
            assert!(
                s.graph_for_mode(mode).best_latency(&g) <= Micros::from_millis(65),
                "{mode:?} graph misses the deadline"
            );
        }
    }

    #[test]
    fn escalates_immediately_on_source_problem() {
        let (g, mut s) = setup();
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        impair_source(&g, &s, &mut state);
        assert!(s.update(&g, &state));
        assert_eq!(s.mode(), TargetedMode::SourceProblem);
    }

    #[test]
    fn escalates_to_robust_on_both() {
        let (g, mut s) = setup();
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        impair_source(&g, &s, &mut state);
        impair_destination(&g, &s, &mut state);
        assert!(s.update(&g, &state));
        assert_eq!(s.mode(), TargetedMode::Robust);
    }

    #[test]
    fn deescalates_only_after_clear_streak() {
        let (g, mut s) = setup();
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        impair_destination(&g, &s, &mut state);
        s.update(&g, &state);
        assert_eq!(s.mode(), TargetedMode::DestinationProblem);

        let clean = NetworkState::clean(g.edge_count(), Micros::from_secs(10));
        assert!(!s.update(&g, &clean), "first clear update holds the graph");
        assert_eq!(s.mode(), TargetedMode::DestinationProblem);
        assert!(s.update(&g, &clean), "second clear update releases it");
        assert_eq!(s.mode(), TargetedMode::Normal);
    }

    #[test]
    fn problem_streak_resets_on_reescalation() {
        let (g, mut s) = setup();
        let mut bad = NetworkState::clean(g.edge_count(), Micros::ZERO);
        impair_source(&g, &s, &mut bad);
        let clean = NetworkState::clean(g.edge_count(), Micros::from_secs(10));
        s.update(&g, &bad);
        s.update(&g, &clean); // streak 1
        s.update(&g, &bad); // problem returns; streak must reset
        s.update(&g, &clean); // streak 1 again
        assert_eq!(s.mode(), TargetedMode::SourceProblem);
        s.update(&g, &clean); // streak 2 -> release
        assert_eq!(s.mode(), TargetedMode::Normal);
    }

    #[test]
    fn loss_on_unused_links_does_not_escalate() {
        let (g, mut s) = setup();
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        // Severe loss far from the flow's normal graph.
        let mia = g.node_by_name("MIA").unwrap();
        for &e in g.out_edges(mia) {
            state.set_condition(e, LinkCondition::down());
        }
        assert!(!s.update(&g, &state));
        assert_eq!(s.mode(), TargetedMode::Normal);
    }

    #[test]
    fn branch_limit_caps_problem_graph_size() {
        let g = presets::north_america_12();
        let flow = Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap());
        let req = ServiceRequirement::default();
        let sizes: Vec<usize> = [Some(0), Some(1), Some(2), None]
            .into_iter()
            .map(|limit| {
                let params =
                    SchemeParams { problem_branch_limit: limit, ..SchemeParams::default() };
                TargetedRedundancy::new(&g, flow, req, &params)
                    .unwrap()
                    .graph_for_mode(TargetedMode::SourceProblem)
                    .len()
            })
            .collect();
        // Limit 0 is exactly the disjoint pair; each extra branch grows
        // the graph; the unlimited graph is the largest.
        let normal = TargetedRedundancy::new(&g, flow, req, &SchemeParams::default())
            .unwrap()
            .graph_for_mode(TargetedMode::Normal)
            .len();
        assert_eq!(sizes[0], normal);
        assert!(sizes[0] < sizes[1]);
        assert!(sizes[1] <= sizes[2]);
        assert!(sizes[2] <= sizes[3]);
        // NYC has degree 5 and the pair uses 2, so the unlimited source
        // graph branches on all 3 remaining neighbours.
        let unlimited = TargetedRedundancy::new(&g, flow, req, &SchemeParams::default()).unwrap();
        assert_eq!(
            unlimited
                .graph_for_mode(TargetedMode::SourceProblem)
                .forwarding_edges(&g, flow.source)
                .count(),
            g.out_edges(flow.source).len()
        );
    }

    #[test]
    fn limited_branches_prefer_lower_latency() {
        let g = presets::north_america_12();
        let flow = Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap());
        let req = ServiceRequirement::default();
        let one = SchemeParams { problem_branch_limit: Some(1), ..SchemeParams::default() };
        let s = TargetedRedundancy::new(&g, flow, req, &one).unwrap();
        let sg = s.graph_for_mode(TargetedMode::SourceProblem);
        // The one extra branch still meets the deadline.
        assert!(sg.best_latency(&g) <= req.deadline);
        assert_eq!(sg.forwarding_edges(&g, flow.source).count(), 3);
    }

    #[test]
    fn switching_changes_cost_modestly() {
        let (g, s) = setup();
        let normal_cost = s.graph_for_mode(TargetedMode::Normal).cost(&g);
        let source_cost = s.graph_for_mode(TargetedMode::SourceProblem).cost(&g);
        assert!(source_cost > normal_cost);
        // The problem graph roughly doubles cost at worst — nowhere near
        // flooding's blanket coverage.
        assert!(source_cost <= normal_cost * 3);
    }
}
