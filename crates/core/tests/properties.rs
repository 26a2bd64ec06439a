//! Property tests of the routing schemes under arbitrary link states.

use dg_core::scheme::{
    build_scheme, RoutingScheme, SchemeKind, SchemeParams, TargetedMode, TargetedRedundancy,
};
use dg_core::{Flow, ProblemDetector, ProblemStatus, ServiceRequirement};
use dg_topology::{presets, EdgeId, Micros, NodeId};
use dg_trace::{LinkCondition, NetworkState};
use proptest::prelude::*;

fn arb_state(edge_count: usize) -> impl Strategy<Value = NetworkState> {
    proptest::collection::vec((0.0f64..1.0, 0u64..10_000), edge_count).prop_map(move |conds| {
        NetworkState::from_conditions(
            Micros::ZERO,
            conds
                .into_iter()
                .map(|(loss, extra)| LinkCondition::new(loss, Micros::from_micros(extra)))
                .collect(),
        )
    })
}

fn arb_flow() -> impl Strategy<Value = Flow> {
    (0u32..12, 0u32..12)
        .prop_filter("distinct endpoints", |(s, t)| s != t)
        .prop_map(|(s, t)| Flow::new(NodeId::new(s), NodeId::new(t)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the link state does, every scheme's current graph keeps
    /// connecting its flow and stays inside the flooding region.
    #[test]
    fn schemes_stay_valid_under_arbitrary_states(
        flow in arb_flow(),
        states in proptest::collection::vec(arb_state(60), 1..6),
    ) {
        let g = presets::north_america_12();
        let req = ServiceRequirement::default();
        let params = SchemeParams::default();
        let flood = build_scheme(SchemeKind::TimeConstrainedFlooding, &g, flow, req, &params)
            .expect("all NA flows are feasible");
        for kind in SchemeKind::ALL {
            let mut scheme = build_scheme(kind, &g, flow, req, &params)
                .expect("all NA flows support every scheme");
            for st in &states {
                scheme.update(&g, st);
                let dg = scheme.current();
                prop_assert_eq!(dg.source(), flow.source);
                prop_assert_eq!(dg.receivers(), &[flow.destination]);
                // Still connects: best baseline latency is finite and
                // within the deadline (schemes only pick deadline-feasible
                // graphs at baseline conditions).
                prop_assert!(dg.best_latency(&g) <= req.deadline,
                    "{kind} graph misses the deadline after update");
                prop_assert!(flood.current().is_superset_of(dg),
                    "{kind} routed outside the flooding region");
            }
        }
    }

    /// The targeted scheme's active mode is always consistent with the
    /// detector's classification of the *last* state (after enough
    /// repeats of the same state to pass the hold-down).
    #[test]
    fn targeted_mode_tracks_detector(flow in arb_flow(), state in arb_state(60)) {
        let g = presets::north_america_12();
        let req = ServiceRequirement::default();
        let params = SchemeParams::default();
        let mut scheme = TargetedRedundancy::new(&g, flow, req, &params).unwrap();
        let detector = ProblemDetector::new(params.problem_loss_threshold);
        let reference = scheme.graph_for_mode(TargetedMode::Normal).clone();
        // Apply the same state enough times to exhaust any hold-down.
        for _ in 0..=params.clear_after_updates {
            scheme.update(&g, &state);
        }
        let expected = match detector.classify(&g, flow, &reference, &state) {
            ProblemStatus::Clear => TargetedMode::Normal,
            ProblemStatus::SourceProblem => TargetedMode::SourceProblem,
            ProblemStatus::DestinationProblem => TargetedMode::DestinationProblem,
            ProblemStatus::BothProblems => TargetedMode::Robust,
        };
        prop_assert_eq!(scheme.mode(), expected);
    }

    /// Cost ordering across the targeted modes holds for every flow:
    /// normal <= source/destination <= robust, and the escalated graphs
    /// are supersets of the pair.
    #[test]
    fn targeted_mode_costs_are_ordered(flow in arb_flow()) {
        let g = presets::north_america_12();
        let scheme = TargetedRedundancy::new(
            &g, flow, ServiceRequirement::default(), &SchemeParams::default(),
        ).unwrap();
        let normal = scheme.graph_for_mode(TargetedMode::Normal);
        let robust = scheme.graph_for_mode(TargetedMode::Robust);
        for mode in [TargetedMode::SourceProblem, TargetedMode::DestinationProblem] {
            let dg = scheme.graph_for_mode(mode);
            prop_assert!(dg.is_superset_of(normal));
            prop_assert!(robust.is_superset_of(dg));
            prop_assert!(normal.cost(&g) <= dg.cost(&g));
            prop_assert!(dg.cost(&g) <= robust.cost(&g));
        }
    }

    /// Dynamic schemes are flap-damped: feeding the *same* state twice
    /// never changes the graph on the second update.
    #[test]
    fn dynamic_updates_are_idempotent(flow in arb_flow(), state in arb_state(60)) {
        let g = presets::north_america_12();
        for kind in [SchemeKind::DynamicSinglePath, SchemeKind::DynamicTwoDisjoint] {
            let mut scheme = build_scheme(
                kind, &g, flow, ServiceRequirement::default(), &SchemeParams::default(),
            ).unwrap();
            scheme.update(&g, &state);
            let after_first = scheme.current().clone();
            let changed = scheme.update(&g, &state);
            prop_assert!(!changed, "{kind} flapped on an identical state");
            prop_assert_eq!(&after_first, scheme.current());
        }
    }

    /// The problem detector ignores loss below threshold and unused
    /// edges, for arbitrary per-edge conditions.
    #[test]
    fn detector_only_fires_on_used_edges(
        flow in arb_flow(),
        lossy in proptest::collection::vec((0u32..60, 0.06f64..1.0), 1..10),
    ) {
        let g = presets::north_america_12();
        let scheme = TargetedRedundancy::new(
            &g, flow, ServiceRequirement::default(), &SchemeParams::default(),
        ).unwrap();
        let normal = scheme.graph_for_mode(TargetedMode::Normal);
        let mut state = NetworkState::clean(g.edge_count(), Micros::ZERO);
        for &(e, loss) in &lossy {
            state.set_condition(EdgeId::new(e), LinkCondition::new(loss, Micros::ZERO));
        }
        let detector = ProblemDetector::default();
        let status = detector.classify(&g, flow, normal, &state);
        let used_src_hit = normal
            .forwarding_edges(&g, flow.source)
            .any(|e| state.condition(e).is_problematic(0.05));
        let used_dst_hit = normal
            .edges()
            .iter()
            .any(|&e| g.edge(e).dst == flow.destination
                && state.condition(e).is_problematic(0.05));
        prop_assert_eq!(status.source_affected(), used_src_hit);
        prop_assert_eq!(status.destination_affected(), used_dst_hit);
    }
}
