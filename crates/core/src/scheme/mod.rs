//! Routing schemes expressed as dissemination graphs.
//!
//! Every scheme is a per-flow object implementing [`RoutingScheme`]:
//! it exposes a current [`DisseminationGraph`] and reacts to network
//! monitoring updates ([`NetworkState`]) by (possibly) changing it.
//! [`build_scheme`] (or [`crate::build_scheme_cached`]) makes one from
//! its [`SchemeKind`]. A static scheme holds one fixed graph, a dynamic
//! one recomputes its single path or disjoint pair on each update, and
//! the paper's [`TargetedRedundancy`] switches among graphs it computed
//! in advance. The five non-targeted kinds, and the k-path extension,
//! are one crate-private type: a kind, a flow, a graph and, for the two
//! dynamic kinds, the reroute rule.

use crate::{CoreError, DisseminationGraph, Flow, ServiceRequirement};
use dg_topology::algo::disjoint::Disjointness;
use dg_topology::{EdgeId, Graph, Micros};
use dg_trace::{LinkCondition, NetworkState};
use serde::{Deserialize, Serialize};
use std::fmt;

mod basic;
pub(crate) mod targeted;

pub(crate) use basic::BasicScheme;
pub use targeted::{TargetedGraphs, TargetedMode, TargetedRedundancy};

/// A per-flow routing scheme.
///
/// Implementations are stateful: dynamic schemes remember their current
/// route and apply hysteresis across updates.
pub trait RoutingScheme: fmt::Debug + Send {
    /// Which scheme this is.
    fn kind(&self) -> SchemeKind;

    /// The flow this instance routes.
    fn flow(&self) -> Flow;

    /// The dissemination graph currently in use.
    fn current(&self) -> &DisseminationGraph;

    /// Reacts to a monitoring update. Returns `true` when the current
    /// dissemination graph changed.
    fn update(&mut self, topology: &Graph, state: &NetworkState) -> bool;
}

/// The six routing schemes of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeKind {
    /// One fixed shortest path (the traditional baseline).
    StaticSinglePath,
    /// One shortest path, recomputed on every update.
    DynamicSinglePath,
    /// Two fixed node-disjoint paths.
    StaticTwoDisjoint,
    /// Two node-disjoint paths, recomputed on every update.
    DynamicTwoDisjoint,
    /// Two disjoint paths plus precomputed problem graphs — the paper's
    /// contribution.
    TargetedRedundancy,
    /// Flood on every edge that can meet the deadline — the optimal,
    /// prohibitively expensive benchmark.
    TimeConstrainedFlooding,
    /// Extension: k fixed disjoint paths (k >= 2) — the "just add more
    /// paths" ablation of targeted redundancy. Not part of the paper's
    /// headline comparison ([`SchemeKind::ALL`] excludes it). Flows with
    /// fewer than k disjoint routes use as many as exist.
    StaticKDisjoint(u8),
}

impl SchemeKind {
    /// All schemes, in the order the paper's tables list them.
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::StaticSinglePath,
        SchemeKind::DynamicSinglePath,
        SchemeKind::StaticTwoDisjoint,
        SchemeKind::DynamicTwoDisjoint,
        SchemeKind::TargetedRedundancy,
        SchemeKind::TimeConstrainedFlooding,
    ];

    /// Short table label, e.g. `"static-2-disjoint"`.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::StaticSinglePath => "static-single-path",
            SchemeKind::DynamicSinglePath => "dynamic-single-path",
            SchemeKind::StaticTwoDisjoint => "static-2-disjoint",
            SchemeKind::DynamicTwoDisjoint => "dynamic-2-disjoint",
            SchemeKind::TargetedRedundancy => "targeted-redundancy",
            SchemeKind::TimeConstrainedFlooding => "time-constrained-flooding",
            SchemeKind::StaticKDisjoint(3) => "static-3-disjoint",
            SchemeKind::StaticKDisjoint(4) => "static-4-disjoint",
            SchemeKind::StaticKDisjoint(_) => "static-k-disjoint",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Tunables shared by the scheme constructors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchemeParams {
    /// Loss rate at which a link counts as problematic (drives both the
    /// targeted-redundancy detector and dynamic avoidance).
    pub problem_loss_threshold: f64,
    /// Relative improvement a dynamic scheme requires before switching
    /// routes (flap damping).
    pub hysteresis: f64,
    /// Updates an endpoint must stay clean before targeted redundancy
    /// falls back to the plain disjoint pair.
    pub clear_after_updates: u32,
    /// Disjointness required of path pairs.
    pub disjointness: Disjointness,
    /// Cap on the *extra* branches each targeted problem graph adds
    /// beyond the disjoint pair, lowest-latency branches first. `None`
    /// (the paper's construction) uses every usable neighbour; smaller
    /// caps trade coverage for escalated-mode cost (see the
    /// `dg-exp ablation_branches` experiment).
    pub problem_branch_limit: Option<u8>,
}

impl Default for SchemeParams {
    fn default() -> Self {
        SchemeParams {
            problem_loss_threshold: 0.05,
            hysteresis: 0.05,
            clear_after_updates: 1,
            disjointness: Disjointness::Node,
            problem_branch_limit: None,
        }
    }
}

/// Constructs a boxed scheme of the requested kind for one flow.
///
/// # Errors
///
/// Propagates construction failures: unreachable endpoints, too few
/// disjoint paths, or an infeasible deadline.
///
/// # Example
///
/// ```
/// use dg_topology::presets;
/// use dg_core::{Flow, ServiceRequirement};
/// use dg_core::scheme::{build_scheme, SchemeKind, SchemeParams};
///
/// let g = presets::north_america_12();
/// let flow = Flow::new(
///     g.node_by_name("WAS").unwrap(),
///     g.node_by_name("SEA").unwrap(),
/// );
/// for kind in SchemeKind::ALL {
///     let s = build_scheme(kind, &g, flow, ServiceRequirement::default(),
///                          &SchemeParams::default())?;
///     assert_eq!(s.kind(), kind);
/// }
/// # Ok::<(), dg_core::CoreError>(())
/// ```
pub fn build_scheme(
    kind: SchemeKind,
    topology: &Graph,
    flow: Flow,
    requirement: ServiceRequirement,
    params: &SchemeParams,
) -> Result<Box<dyn RoutingScheme>, CoreError> {
    Ok(match kind {
        SchemeKind::TargetedRedundancy => {
            Box::new(TargetedRedundancy::new(topology, flow, requirement, params)?)
        }
        other => Box::new(BasicScheme::new(other, topology, flow, requirement, params)?),
    })
}

/// Weight cap standing in for "unusable": a dead link is penalized far
/// beyond any real route but stays finite so routing remains total.
const WEIGHT_CAP: f64 = 1e13;

/// Expected-latency edge weight under current conditions, in
/// microseconds: effective latency scaled by `1 / (1 - loss)²` (the
/// expected sendings until a copy and its potential retransmission get
/// through). Lossier links become rapidly less attractive; a dead link
/// is effectively unusable but never disconnects the graph.
pub fn expected_edge_weight(graph: &Graph, state: &NetworkState, edge: EdgeId) -> u64 {
    expected_link_weight(graph.edge(edge).latency, state.condition(edge))
}

/// [`expected_edge_weight`] of a link of baseline latency `latency`
/// under `condition`.
pub fn expected_link_weight(latency: Micros, condition: LinkCondition) -> u64 {
    let eff = latency.saturating_add(condition.extra_latency).as_micros() as f64;
    let survive = (1.0 - condition.loss_rate).max(1e-6);
    (eff / (survive * survive)).min(WEIGHT_CAP) as u64
}

/// Total [`expected_edge_weight`] over a set of edges.
pub fn expected_set_weight<I: IntoIterator<Item = EdgeId>>(
    graph: &Graph,
    state: &NetworkState,
    edges: I,
) -> u64 {
    edges.into_iter().map(|e| expected_edge_weight(graph, state, e)).fold(0u64, u64::saturating_add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::presets;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            SchemeKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 6);
        assert_eq!(SchemeKind::TargetedRedundancy.to_string(), "targeted-redundancy");
    }

    #[test]
    fn expected_weight_grows_with_loss() {
        let g = presets::north_america_12();
        let e = EdgeId::new(0);
        let clean = NetworkState::clean(g.edge_count(), Micros::ZERO);
        let base = expected_edge_weight(&g, &clean, e);
        assert_eq!(base, g.edge(e).latency.as_micros());

        let mut lossy = clean.clone();
        lossy.set_condition(e, LinkCondition::new(0.5, Micros::ZERO));
        assert_eq!(expected_edge_weight(&g, &lossy, e), base * 4);

        let mut dead = clean.clone();
        dead.set_condition(e, LinkCondition::down());
        assert_eq!(expected_edge_weight(&g, &dead, e), WEIGHT_CAP as u64);
    }

    #[test]
    fn extra_latency_counts() {
        let g = presets::north_america_12();
        let e = EdgeId::new(3);
        let mut st = NetworkState::clean(g.edge_count(), Micros::ZERO);
        st.set_condition(e, LinkCondition::new(0.0, Micros::from_millis(5)));
        assert_eq!(expected_edge_weight(&g, &st, e), g.edge(e).latency.as_micros() + 5_000);
    }

    #[test]
    fn set_weight_sums() {
        let g = presets::north_america_12();
        let st = NetworkState::clean(g.edge_count(), Micros::ZERO);
        let edges = [EdgeId::new(0), EdgeId::new(1)];
        assert_eq!(
            expected_set_weight(&g, &st, edges),
            g.edge(EdgeId::new(0)).latency.as_micros() + g.edge(EdgeId::new(1)).latency.as_micros()
        );
    }

    #[test]
    fn build_scheme_builds_all_kinds() {
        let g = presets::north_america_12();
        let flow = Flow::new(g.node_by_name("BOS").unwrap(), g.node_by_name("DEN").unwrap());
        for kind in SchemeKind::ALL {
            let s = build_scheme(
                kind,
                &g,
                flow,
                ServiceRequirement::default(),
                &SchemeParams::default(),
            )
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(s.flow(), flow);
            assert_eq!(s.current().source(), flow.source);
            assert_eq!(s.current().receivers(), &[flow.destination]);
        }
    }

    #[test]
    fn flooding_is_superset_of_all_other_schemes() {
        let g = presets::north_america_12();
        for (s, t) in presets::transcontinental_flows(&g) {
            let flow = Flow::new(s, t);
            let req = ServiceRequirement::default();
            let params = SchemeParams::default();
            let flood =
                build_scheme(SchemeKind::TimeConstrainedFlooding, &g, flow, req, &params).unwrap();
            for kind in [
                SchemeKind::StaticSinglePath,
                SchemeKind::StaticTwoDisjoint,
                SchemeKind::TargetedRedundancy,
            ] {
                let other = build_scheme(kind, &g, flow, req, &params).unwrap();
                assert!(
                    flood.current().is_superset_of(other.current()),
                    "{kind} not within flooding for {}",
                    flow.label(&g)
                );
            }
        }
    }

    #[test]
    fn cost_ordering_matches_paper() {
        let g = presets::north_america_12();
        let flow = Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("LAX").unwrap());
        let req = ServiceRequirement::default();
        let params = SchemeParams::default();
        let cost = |kind| build_scheme(kind, &g, flow, req, &params).unwrap().current().cost(&g);
        let single = cost(SchemeKind::StaticSinglePath);
        let disjoint = cost(SchemeKind::StaticTwoDisjoint);
        let targeted = cost(SchemeKind::TargetedRedundancy);
        let flooding = cost(SchemeKind::TimeConstrainedFlooding);
        assert!(single < disjoint, "single {single} < disjoint {disjoint}");
        // In normal mode targeted uses exactly the disjoint pair.
        assert_eq!(targeted, disjoint);
        assert!(disjoint < flooding, "disjoint {disjoint} < flooding {flooding}");
    }
}
