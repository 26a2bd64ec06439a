//! Every scheme but targeted redundancy: one graph, fixed at flow setup
//! or recomputed on monitoring updates.
//!
//! Each kind builds its graph with the search it has always run,
//! because the committed results pin how those searches break ties:
//! Dijkstra for one path, Bhandari for two or k disjoint paths, the
//! deadline-feasible edge set for flooding.

use crate::scheme::{
    expected_edge_weight, expected_set_weight, RoutingScheme, SchemeKind, SchemeParams,
};
use crate::{CoreError, DisseminationGraph, Flow, ServiceRequirement};
use dg_topology::algo::disjoint::{
    disjoint_pair, k_disjoint_paths, k_disjoint_paths_weighted, Disjointness,
};
use dg_topology::algo::{dijkstra, reach};
use dg_topology::{Graph, TopologyError};
use dg_trace::NetworkState;

/// How a dynamic scheme recomputes its graph on a monitoring update:
/// the min-total-expected-latency single path or disjoint pair, taken
/// only when it beats the current graph's expected latency by more than
/// `hysteresis` (flap damping).
#[derive(Debug, Clone, Copy)]
struct Reroute {
    /// 1 for a single path, 2 for a disjoint pair.
    paths: usize,
    hysteresis: f64,
    disjointness: Disjointness,
}

/// A flow's dissemination graph under one of the non-targeted schemes.
///
/// - **Static single path**: the latency-shortest path computed once at
///   flow setup, regardless of conditions — what a conventional overlay
///   (or plain IP routing with stable paths) gives you.
/// - **Dynamic single path**: starts there, and reroutes over
///   loss-penalized expected latency at every update.
/// - **Static two disjoint**: both paths of a minimum-total-latency
///   disjoint pair; the paper's analysis shows this already covers
///   roughly 45 % of the single-path-to-optimal gap.
/// - **Dynamic two disjoint**: starts there, and recomputes the pair
///   over expected latency at every update (≈ 70 % of the gap).
/// - **Static k disjoint**: k disjoint paths, or as many as exist — the
///   "just add more paths" ablation of targeted redundancy: a third or
///   fourth path adds *permanent* cost everywhere, while targeted
///   redundancy adds redundancy only where and when problems occur
///   (`dg-exp ablation_kpaths`).
/// - **Time-constrained flooding**: every edge that can still
///   contribute to on-time delivery. No scheme can beat its timeliness,
///   which makes it the paper's optimality benchmark; its cost (every
///   packet on dozens of links) makes it prohibitive in practice.
#[derive(Debug, Clone)]
pub(crate) struct BasicScheme {
    kind: SchemeKind,
    flow: Flow,
    graph: DisseminationGraph,
    /// `None` for the static kinds, whose graph never changes.
    reroute: Option<Reroute>,
}

impl BasicScheme {
    /// Builds `kind`'s graph for `flow` at baseline latencies. A
    /// [`SchemeKind::StaticKDisjoint`] flow with fewer than k disjoint
    /// routes uses as many as exist, and its kind says how many.
    ///
    /// # Errors
    ///
    /// Unreachable endpoints, too few disjoint paths (fewer than two
    /// for the pair kinds, none for k), or an infeasible deadline.
    ///
    /// # Panics
    ///
    /// On [`SchemeKind::TargetedRedundancy`], which is its own type.
    pub(crate) fn new(
        kind: SchemeKind,
        topology: &Graph,
        flow: Flow,
        requirement: ServiceRequirement,
        params: &SchemeParams,
    ) -> Result<Self, CoreError> {
        let (s, t) = (flow.source, flow.destination);
        let rule = |paths| {
            Some(Reroute {
                paths,
                hysteresis: params.hysteresis,
                disjointness: params.disjointness,
            })
        };
        let (kind, graph, reroute) = match kind {
            SchemeKind::StaticSinglePath | SchemeKind::DynamicSinglePath => {
                let path = dijkstra::shortest_path(topology, s, t)?;
                let reroute = if kind == SchemeKind::DynamicSinglePath { rule(1) } else { None };
                (kind, DisseminationGraph::from_path(topology, &path), reroute)
            }
            SchemeKind::StaticTwoDisjoint | SchemeKind::DynamicTwoDisjoint => {
                let (p1, p2) = disjoint_pair(topology, s, t, params.disjointness)?;
                let reroute = if kind == SchemeKind::DynamicTwoDisjoint { rule(2) } else { None };
                (kind, DisseminationGraph::from_paths(topology, &[p1, p2])?, reroute)
            }
            SchemeKind::StaticKDisjoint(k) => {
                let paths =
                    |k| k_disjoint_paths(topology, s, t, usize::from(k), params.disjointness);
                let (k, paths) = match paths(k) {
                    Err(TopologyError::InsufficientDisjointPaths { available, .. })
                        if available > 0 =>
                    {
                        // Fewer than `k` exist, and `k` fits a `u8`.
                        let available = available as u8;
                        (available, paths(available)?)
                    }
                    found => (k, found?),
                };
                let graph = DisseminationGraph::from_paths(topology, &paths)?;
                (SchemeKind::StaticKDisjoint(k), graph, None)
            }
            SchemeKind::TimeConstrainedFlooding => {
                let edges = reach::time_constrained_edges(topology, s, t, requirement.deadline)?;
                let graph = DisseminationGraph::new(topology, s, t, edges)
                    .map_err(|_| CoreError::DeadlineInfeasible { source: s, destination: t })?;
                (kind, graph, None)
            }
            SchemeKind::TargetedRedundancy => {
                unreachable!("targeted redundancy is built as TargetedRedundancy")
            }
        };
        Ok(BasicScheme { kind, flow, graph, reroute })
    }

    /// A static two-disjoint scheme on an already-computed pair (the
    /// cached `normal` graph of a shared bundle; see
    /// [`crate::cache::GraphCache`]).
    pub(crate) fn from_pair(flow: Flow, graph: DisseminationGraph) -> Self {
        BasicScheme { kind: SchemeKind::StaticTwoDisjoint, flow, graph, reroute: None }
    }
}

impl RoutingScheme for BasicScheme {
    fn kind(&self) -> SchemeKind {
        self.kind
    }

    fn flow(&self) -> Flow {
        self.flow
    }

    fn current(&self) -> &DisseminationGraph {
        &self.graph
    }

    fn update(&mut self, topology: &Graph, state: &NetworkState) -> bool {
        let Some(rule) = self.reroute else {
            return false;
        };
        let (s, t) = (self.flow.source, self.flow.destination);
        let weight = |e| expected_edge_weight(topology, state, e);
        // The weights are total, so a search fails only on a topology
        // without a route (or two disjoint ones); keep the current graph.
        let next = if rule.paths == 1 {
            match dijkstra::shortest_path_weighted(topology, s, t, |e| Some(weight(e))) {
                Ok(path) => DisseminationGraph::from_path(topology, &path),
                Err(_) => return false,
            }
        } else {
            let disjointness = rule.disjointness;
            let found = k_disjoint_paths_weighted(topology, s, t, rule.paths, disjointness, |e| {
                Some(weight(e) as i64)
            });
            match found.map(|paths| DisseminationGraph::from_paths(topology, &paths)) {
                Ok(Ok(next)) => next,
                _ => return false,
            }
        };
        let current_weight =
            expected_set_weight(topology, state, self.graph.edges().iter().copied());
        let candidate_weight = expected_set_weight(topology, state, next.edges().iter().copied());
        let improvement_needed = (current_weight as f64 * (1.0 - rule.hysteresis)) as u64;
        if candidate_weight < improvement_needed && next != self.graph {
            self.graph = next;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::build_scheme;
    use dg_topology::{presets, Micros};
    use dg_trace::LinkCondition;

    fn flow(g: &Graph, src: &str, dst: &str) -> Flow {
        Flow::new(g.node_by_name(src).unwrap(), g.node_by_name(dst).unwrap())
    }

    fn build(kind: SchemeKind, g: &Graph, flow: Flow) -> Box<dyn RoutingScheme> {
        build_scheme(kind, g, flow, ServiceRequirement::default(), &SchemeParams::default())
            .unwrap()
    }

    /// Zero hysteresis, so that a heal-back is not (correctly)
    /// suppressed as a marginal improvement.
    fn eager(kind: SchemeKind, g: &Graph, flow: Flow) -> Box<dyn RoutingScheme> {
        let params = SchemeParams { hysteresis: 0.0, ..SchemeParams::default() };
        build_scheme(kind, g, flow, ServiceRequirement::default(), &params).unwrap()
    }

    fn flooding(
        g: &Graph,
        flow: Flow,
        deadline_ms: u64,
    ) -> Result<Box<dyn RoutingScheme>, CoreError> {
        let requirement = ServiceRequirement::new(Micros::from_millis(deadline_ms));
        build_scheme(
            SchemeKind::TimeConstrainedFlooding,
            g,
            flow,
            requirement,
            &SchemeParams::default(),
        )
    }

    // Static single path.

    #[test]
    fn static_single_never_changes() {
        let g = presets::north_america_12();
        let mut s = build(SchemeKind::StaticSinglePath, &g, flow(&g, "NYC", "SEA"));
        let before = s.current().clone();
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        for &e in before.edges() {
            state.set_condition(e, LinkCondition::down());
        }
        assert!(!s.update(&g, &state));
        assert_eq!(s.current(), &before);
        assert_eq!(s.kind(), SchemeKind::StaticSinglePath);
    }

    #[test]
    fn static_single_uses_the_shortest_path() {
        let g = presets::north_america_12();
        let f = flow(&g, "JHU", "DEN");
        let s = build(SchemeKind::StaticSinglePath, &g, f);
        let sp = dijkstra::shortest_path(&g, f.source, f.destination).unwrap();
        assert_eq!(s.current().best_latency(&g), sp.latency(&g));
        assert_eq!(s.current().len(), sp.len());
    }

    #[test]
    fn static_single_errors_on_missing_route() {
        let g = presets::north_america_12();
        let n = g.node_by_name("NYC").unwrap();
        let params = SchemeParams::default();
        let req = ServiceRequirement::default();
        assert!(
            build_scheme(SchemeKind::StaticSinglePath, &g, Flow::new(n, n), req, &params).is_err()
        );
    }

    // Static two disjoint.

    #[test]
    fn static_disjoint_builds_the_disjoint_union() {
        let g = presets::north_america_12();
        let f = flow(&g, "WAS", "LAX");
        let s = build(SchemeKind::StaticTwoDisjoint, &g, f);
        // The source forwards on exactly two edges.
        assert_eq!(s.current().forwarding_edges(&g, f.source).count(), 2);
        // Exactly two edges enter the destination.
        let into_dst =
            s.current().edges().iter().filter(|&&e| g.edge(e).dst == f.destination).count();
        assert_eq!(into_dst, 2);
    }

    #[test]
    fn static_disjoint_never_updates() {
        let g = presets::north_america_12();
        let mut s = build(SchemeKind::StaticTwoDisjoint, &g, flow(&g, "BOS", "SJC"));
        let state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        assert!(!s.update(&g, &state));
        assert_eq!(s.kind(), SchemeKind::StaticTwoDisjoint);
    }

    // Static k disjoint.

    #[test]
    fn three_paths_forward_on_three_source_edges() {
        let g = presets::north_america_12();
        let f = flow(&g, "NYC", "SJC");
        let s = build(SchemeKind::StaticKDisjoint(3), &g, f);
        assert_eq!(s.current().forwarding_edges(&g, f.source).count(), 3);
        assert_eq!(s.kind(), SchemeKind::StaticKDisjoint(3));
        assert_eq!(s.kind().label(), "static-3-disjoint");
    }

    #[test]
    fn k_disjoint_cost_grows_with_k() {
        let g = presets::north_america_12();
        let f = flow(&g, "NYC", "SJC");
        let costs: Vec<u64> = (2..=4)
            .map(|k| build(SchemeKind::StaticKDisjoint(k), &g, f).current().cost(&g))
            .collect();
        assert!(costs[0] < costs[1], "{costs:?}");
        assert!(costs[1] <= costs[2], "{costs:?}");
    }

    #[test]
    fn k_disjoint_falls_back_to_the_available_paths() {
        let g = presets::ring(6, Micros::from_millis(2));
        let f = flow(&g, "R0", "R3");
        assert!(k_disjoint_paths(&g, f.source, f.destination, 3, Disjointness::Node).is_err());
        let s = build(SchemeKind::StaticKDisjoint(3), &g, f);
        assert_eq!(
            s.kind(),
            SchemeKind::StaticKDisjoint(2),
            "a ring has exactly two disjoint routes"
        );
        assert_eq!(s.current().forwarding_edges(&g, f.source).count(), 2);
    }

    #[test]
    fn k_disjoint_never_updates() {
        let g = presets::north_america_12();
        let mut s = build(SchemeKind::StaticKDisjoint(3), &g, flow(&g, "NYC", "SJC"));
        let state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        assert!(!s.update(&g, &state));
    }

    #[test]
    fn all_k_paths_meet_the_deadline_budget() {
        let g = presets::north_america_12();
        for (src, dst) in presets::transcontinental_flows(&g) {
            let f = Flow::new(src, dst);
            let s = build(SchemeKind::StaticKDisjoint(3), &g, f);
            assert!(s.current().best_latency(&g) <= Micros::from_millis(65));
            let SchemeKind::StaticKDisjoint(used) = s.kind() else { unreachable!() };
            assert!(used >= 2, "{}", f.label(&g));
        }
    }

    // Time-constrained flooding.

    #[test]
    fn flooding_covers_a_large_edge_fraction() {
        let g = presets::north_america_12();
        let s = flooding(&g, flow(&g, "NYC", "SJC"), 65).unwrap();
        // With a 65 ms budget over a ~30 ms shortest path, most of the
        // continental mesh is usable.
        assert!(s.current().len() > g.edge_count() / 3);
        assert!(s.current().best_latency(&g) <= Micros::from_millis(65));
    }

    #[test]
    fn flooding_errors_on_an_infeasible_deadline() {
        let g = presets::north_america_12();
        let err = flooding(&g, flow(&g, "NYC", "SJC"), 5).unwrap_err();
        assert!(matches!(err, CoreError::DeadlineInfeasible { .. }));
    }

    #[test]
    fn a_tighter_deadline_floods_a_smaller_graph() {
        let g = presets::north_america_12();
        let f = flow(&g, "BOS", "LAX");
        let wide = flooding(&g, f, 100).unwrap();
        let tight = flooding(&g, f, 45).unwrap();
        assert!(tight.current().len() < wide.current().len());
        assert!(wide.current().is_superset_of(tight.current()));
    }

    #[test]
    fn flooding_never_updates() {
        let g = presets::north_america_12();
        let mut s = build(SchemeKind::TimeConstrainedFlooding, &g, flow(&g, "WAS", "DEN"));
        let state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        assert!(!s.update(&g, &state));
        assert_eq!(s.kind(), SchemeKind::TimeConstrainedFlooding);
    }

    // Dynamic single path.

    #[test]
    fn dynamic_single_stays_put_when_clean() {
        let g = presets::north_america_12();
        let mut s = build(SchemeKind::DynamicSinglePath, &g, flow(&g, "NYC", "SJC"));
        let state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        assert!(!s.update(&g, &state));
    }

    #[test]
    fn dynamic_single_reroutes_around_a_dead_link() {
        let g = presets::north_america_12();
        let mut s = eager(SchemeKind::DynamicSinglePath, &g, flow(&g, "NYC", "SJC"));
        let before = s.current().clone();
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        let victim = before.edges()[0];
        state.set_condition(victim, LinkCondition::down());
        assert!(s.update(&g, &state));
        assert!(!s.current().contains(victim));
        // And returns once the link heals (old route is strictly faster).
        let clean = NetworkState::clean(g.edge_count(), Micros::from_secs(10));
        assert!(s.update(&g, &clean));
        assert_eq!(s.current(), &before);
    }

    #[test]
    fn hysteresis_suppresses_marginal_switches() {
        let g = presets::north_america_12();
        let mut s = build(SchemeKind::DynamicSinglePath, &g, flow(&g, "NYC", "SJC"));
        let before = s.current().clone();
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        // Tiny extra latency on the current route: not worth moving.
        state.set_condition(before.edges()[0], LinkCondition::new(0.0, Micros::from_micros(50)));
        assert!(!s.update(&g, &state));
        assert_eq!(s.current(), &before);
    }

    #[test]
    fn dynamic_single_avoids_moderate_loss_when_an_alternative_exists() {
        let g = presets::north_america_12();
        let mut s = build(SchemeKind::DynamicSinglePath, &g, flow(&g, "NYC", "SJC"));
        let before = s.current().clone();
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        for &e in before.edges() {
            state.set_condition(e, LinkCondition::new(0.3, Micros::ZERO));
        }
        assert!(s.update(&g, &state));
        // New route avoids all the lossy edges (clean alternatives exist).
        for &e in s.current().edges() {
            assert!(state.condition(e).loss_rate < 0.3);
        }
    }

    // Dynamic two disjoint.

    #[test]
    fn dynamic_disjoint_is_stable_when_clean() {
        let g = presets::north_america_12();
        let mut s = build(SchemeKind::DynamicTwoDisjoint, &g, flow(&g, "NYC", "SEA"));
        let state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        assert!(!s.update(&g, &state));
    }

    #[test]
    fn dynamic_disjoint_reroutes_around_middle_loss() {
        let g = presets::north_america_12();
        let mut s = build(SchemeKind::DynamicTwoDisjoint, &g, flow(&g, "NYC", "SEA"));
        let before = s.current().clone();
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        // Kill a middle edge of the current pair (not source-adjacent).
        let victim = before
            .edges()
            .iter()
            .copied()
            .find(|&e| g.edge(e).src != s.flow().source && g.edge(e).dst != s.flow().destination)
            .expect("pair has a middle edge");
        state.set_condition(victim, LinkCondition::down());
        assert!(s.update(&g, &state));
        assert!(!s.current().contains(victim));
        // The new pair still forwards on two source edges.
        assert_eq!(s.current().forwarding_edges(&g, s.flow().source).count(), 2);
    }

    #[test]
    fn dynamic_disjoint_cannot_dodge_a_full_source_problem() {
        let g = presets::north_america_12();
        let mut s = build(SchemeKind::DynamicTwoDisjoint, &g, flow(&g, "NYC", "SEA"));
        let src = s.flow().source;
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        for &e in g.out_edges(src) {
            state.set_condition(e, LinkCondition::new(0.8, Micros::ZERO));
        }
        s.update(&g, &state);
        // Whatever pair it picked, both source edges are still lossy:
        // this is exactly the case targeted redundancy exists for.
        for e in s.current().forwarding_edges(&g, src) {
            assert!(state.condition(e).loss_rate >= 0.8);
        }
    }

    #[test]
    fn dynamic_disjoint_heals_back_after_the_problem_clears() {
        let g = presets::north_america_12();
        let mut s = eager(SchemeKind::DynamicTwoDisjoint, &g, flow(&g, "NYC", "SEA"));
        let before = s.current().clone();
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        state.set_condition(before.edges()[1], LinkCondition::down());
        assert!(s.update(&g, &state));
        let clean = NetworkState::clean(g.edge_count(), Micros::from_secs(10));
        assert!(s.update(&g, &clean));
        assert_eq!(s.current(), &before);
    }
}
