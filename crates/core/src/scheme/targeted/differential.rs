//! Bundle differential: [`TargetedGraphs::compute`], whose searches that
//! end at the destination are aimed at it, against the same construction
//! with none aimed — a zero floor for the source-side continuations and
//! whole Bellman–Ford rounds for the pair, the searches the bundle ran
//! before they were aimed.
//!
//! The weights are plain latency, so routes tie wherever two sums of
//! link latencies meet, and the committed results pin how those ties
//! fall. An aimed search that settled one differently would show here as
//! a different bundle. Both presets and the generated families the scale
//! experiment runs: every ordered pair on topologies of up to 60 nodes,
//! a stride sample of pairs above that. Errors must match too.

use super::*;
use dg_topology::algo::disjoint::{k_disjoint_paths_weighted, Disjointness};
use dg_topology::generate::TopoSpec;

/// [`TargetedGraphs::compute`] with every search unaimed.
fn unaimed(
    topology: &Graph,
    flow: Flow,
    requirement: ServiceRequirement,
    params: &SchemeParams,
) -> Result<TargetedGraphs, CoreError> {
    let Scratch { mut ws, mut feasible } = Scratch::default();
    let from_src = ws.reach_pass(topology, flow.source, Direction::Forward)?.to_vec();
    let to_dst = ws.reach_pass(topology, flow.destination, Direction::Backward)?.to_vec();
    let latency = |e: EdgeId| topology.edge(e).latency.as_micros();
    let pair = k_disjoint_paths_weighted(
        topology,
        flow.source,
        flow.destination,
        2,
        params.disjointness,
        |e| Some(latency(e) as i64),
    )?;
    let normal = DisseminationGraph::from_paths(topology, &pair)?;
    let reach = Reach { from_src: &from_src, to_dst: &to_dst };
    reach.in_time_edges(topology, requirement.deadline, &mut feasible);
    if feasible.is_empty() {
        return Err(CoreError::DeadlineInfeasible {
            source: flow.source,
            destination: flow.destination,
        });
    }
    let mut problem_graph = |side| {
        let mut edges = normal.edges().to_vec();
        edges.extend(problem_branches(
            &mut ws,
            topology,
            flow,
            side,
            normal.edges(),
            requirement.deadline,
            params.problem_branch_limit,
            |e| feasible.contains(e).then(|| latency(e)),
            |_| 0,
            None,
        ));
        DisseminationGraph::new(topology, flow.source, flow.destination, edges)
    };
    let source_problem = problem_graph(Side::Source)?;
    let destination_problem = problem_graph(Side::Destination)?;
    let robust = source_problem.union(topology, &destination_problem)?;
    Ok(TargetedGraphs { normal, source_problem, destination_problem, robust })
}

/// The pairs to check on `g`: every ordered one up to 60 nodes, three a
/// source above.
fn pairs(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let n = g.node_count() as u32;
    let ordered = |s: u32, t: u32| (s != t).then(|| (NodeId::new(s), NodeId::new(t)));
    if n <= 60 {
        (0..n).flat_map(|s| (0..n).filter_map(move |t| ordered(s, t))).collect()
    } else {
        (0..n).flat_map(|s| (1..=3).filter_map(move |k| ordered(s, (s * 7 + k * 13) % n))).collect()
    }
}

#[test]
fn aimed_bundles_are_the_unaimed_ones_on_presets_and_generated_families() {
    let mut refused = 0;
    for spec in [
        TopoSpec::NorthAmerica,
        TopoSpec::Global,
        TopoSpec::Waxman { nodes: 50, seed: 2017 },
        TopoSpec::Waxman { nodes: 100, seed: 2017 },
        TopoSpec::Waxman { nodes: 200, seed: 2017 },
        TopoSpec::RingOfCliques { nodes: 50, seed: 2017 },
        TopoSpec::RingOfCliques { nodes: 100, seed: 2017 },
    ] {
        let g = spec.build();
        let pairs = pairs(&g);
        // The experiments' deadline for the family, and half of it, which
        // far pairs cannot meet.
        let deadline = spec.default_deadline(&g, &spec.default_flows(&g, 8));
        let modes: &[Disjointness] = match spec.is_preset() {
            true => &[Disjointness::Node, Disjointness::Edge],
            false => &[Disjointness::Node],
        };
        let mut built = 0;
        let half = Micros::from_micros(deadline.as_micros() / 2);
        for requirement in [deadline, half].map(ServiceRequirement::new) {
            for &disjointness in modes {
                let params = SchemeParams { disjointness, ..SchemeParams::default() };
                for &(s, t) in &pairs {
                    let flow = Flow::new(s, t);
                    let aimed = TargetedGraphs::compute(&g, flow, requirement, &params);
                    let plain = unaimed(&g, flow, requirement, &params);
                    let at = format!("{} {flow} {disjointness:?} {:?}", spec.label(), requirement);
                    assert_eq!(aimed, plain, "{at}");
                    match aimed {
                        Ok(_) => built += 1,
                        Err(_) => refused += 1,
                    }
                }
            }
        }
        assert!(built > pairs.len() / 4, "{}: only {built} bundles built", spec.label());
    }
    assert!(refused > 0, "no pair was refused: the errors went unchecked");
}
