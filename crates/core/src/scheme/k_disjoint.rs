//! K disjoint paths (k ≥ 2): the "just add more paths" alternative.
//!
//! The dissemination-graph framework makes k-path routing a one-liner,
//! and comparing it against targeted redundancy is the natural ablation
//! of the paper's design: a third or fourth disjoint path adds
//! *permanent* cost everywhere, while targeted redundancy adds
//! redundancy only where and when problems occur. The ablation
//! (`dg-exp ablation_kpaths`) quantifies the difference.

use crate::scheme::{RoutingScheme, SchemeKind};
use crate::{CoreError, DisseminationGraph, Flow};
use dg_topology::algo::disjoint::{k_disjoint_paths, Disjointness};
use dg_topology::{Graph, TopologyError};
use dg_trace::NetworkState;

/// Routes every packet over `k` disjoint paths computed once at setup.
#[derive(Debug, Clone)]
pub struct StaticKDisjoint {
    flow: Flow,
    k: usize,
    graph: DisseminationGraph,
}

impl StaticKDisjoint {
    /// Computes exactly `k` disjoint paths for `flow`.
    ///
    /// # Errors
    ///
    /// Returns an error when the topology lacks `k` disjoint routes;
    /// see [`StaticKDisjoint::new_with_fallback`] for the lenient
    /// variant.
    pub fn new(
        topology: &Graph,
        flow: Flow,
        k: usize,
        disjointness: Disjointness,
    ) -> Result<Self, CoreError> {
        let paths = k_disjoint_paths(topology, flow.source, flow.destination, k, disjointness)?;
        Ok(StaticKDisjoint { flow, k, graph: DisseminationGraph::from_paths(topology, &paths)? })
    }

    /// Computes `k` disjoint paths, or as many as exist if fewer; the
    /// actual count is available via [`StaticKDisjoint::paths_used`].
    ///
    /// # Errors
    ///
    /// Returns an error only when no route at all exists.
    pub fn new_with_fallback(
        topology: &Graph,
        flow: Flow,
        k: usize,
        disjointness: Disjointness,
    ) -> Result<Self, CoreError> {
        match StaticKDisjoint::new(topology, flow, k, disjointness) {
            Ok(s) => Ok(s),
            Err(CoreError::Topology(TopologyError::InsufficientDisjointPaths {
                available,
                ..
            })) if available > 0 => StaticKDisjoint::new(topology, flow, available, disjointness),
            Err(e) => Err(e),
        }
    }

    /// How many disjoint paths this instance actually uses.
    pub fn paths_used(&self) -> usize {
        self.k
    }
}

impl RoutingScheme for StaticKDisjoint {
    fn kind(&self) -> SchemeKind {
        SchemeKind::StaticKDisjoint(self.k.min(u8::MAX as usize) as u8)
    }

    fn flow(&self) -> Flow {
        self.flow
    }

    fn current(&self) -> &DisseminationGraph {
        &self.graph
    }

    fn update(&mut self, _topology: &Graph, _state: &NetworkState) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::{presets, Micros};

    fn flow(g: &Graph) -> Flow {
        Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap())
    }

    #[test]
    fn three_paths_forward_on_three_source_edges() {
        let g = presets::north_america_12();
        let f = flow(&g);
        let s = StaticKDisjoint::new(&g, f, 3, Disjointness::Node).unwrap();
        assert_eq!(s.paths_used(), 3);
        assert_eq!(s.current().forwarding_edges(&g, f.source).count(), 3);
        assert_eq!(s.kind(), SchemeKind::StaticKDisjoint(3));
        assert_eq!(s.kind().label(), "static-3-disjoint");
    }

    #[test]
    fn cost_grows_with_k() {
        let g = presets::north_america_12();
        let f = flow(&g);
        let costs: Vec<u64> = (2..=4)
            .map(|k| {
                StaticKDisjoint::new_with_fallback(&g, f, k, Disjointness::Node)
                    .unwrap()
                    .current()
                    .cost(&g)
            })
            .collect();
        assert!(costs[0] < costs[1], "{costs:?}");
        assert!(costs[1] <= costs[2], "{costs:?}");
    }

    #[test]
    fn fallback_caps_at_available_paths() {
        let g = presets::ring(6, Micros::from_millis(2));
        let f = Flow::new(g.node_by_name("R0").unwrap(), g.node_by_name("R3").unwrap());
        assert!(StaticKDisjoint::new(&g, f, 3, Disjointness::Node).is_err());
        let s = StaticKDisjoint::new_with_fallback(&g, f, 3, Disjointness::Node).unwrap();
        assert_eq!(s.paths_used(), 2, "a ring has exactly two disjoint routes");
    }

    #[test]
    fn static_scheme_never_updates() {
        let g = presets::north_america_12();
        let f = flow(&g);
        let mut s = StaticKDisjoint::new(&g, f, 3, Disjointness::Node).unwrap();
        let state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        assert!(!s.update(&g, &state));
    }

    #[test]
    fn all_paths_meet_deadline_budget() {
        let g = presets::north_america_12();
        for (src, dst) in presets::transcontinental_flows(&g) {
            let f = Flow::new(src, dst);
            let s = StaticKDisjoint::new_with_fallback(&g, f, 3, Disjointness::Node)
                .unwrap_or_else(|e| panic!("{}: {e}", f.label(&g)));
            assert!(s.current().best_latency(&g) <= Micros::from_millis(65));
            assert!(s.paths_used() >= 2, "{}", f.label(&g));
        }
    }
}
