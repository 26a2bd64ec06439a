//! Cross-crate property tests: invariants that must hold across the
//! trace → scheme → simulator pipeline on arbitrary inputs.

use dissemination_graphs::prelude::*;
use dissemination_graphs::trace::LinkCondition;
use proptest::prelude::*;

fn scaled_traces(base: &TraceSet, edge_count: usize, factor: f64) -> TraceSet {
    let mut out = base.clone();
    for e in 0..edge_count {
        let edge = topology::EdgeId::new(e as u32);
        for i in 0..base.interval_count() {
            let c = base.condition_in_interval(edge, i);
            out.set_condition(edge, i, LinkCondition::new(c.loss_rate * factor, c.extra_latency));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// More loss can never *improve* availability: loss draws are a
    /// fixed function of (seed, edge, seq, attempt), so raising every
    /// loss rate can only convert deliveries into losses.
    #[test]
    fn availability_is_monotone_in_loss(seed in 0u64..1_000, base_loss in 0.05f64..0.3) {
        let graph = topology::presets::north_america_12();
        let mut traces = TraceSet::clean(graph.edge_count(), 3, Micros::from_secs(10)).unwrap();
        // Seeded pseudo-random loss pattern over a few edges.
        for k in 0..10u64 {
            let e = topology::EdgeId::new(((seed.wrapping_mul(31).wrapping_add(k * 7)) %
                graph.edge_count() as u64) as u32);
            let i = (k % 3) as usize;
            traces.set_condition(e, i, LinkCondition::new(base_loss, Micros::ZERO));
        }
        let harsher = scaled_traces(&traces, graph.edge_count(), 2.5);

        let flow = Flow::new(
            graph.node_by_name("NYC").unwrap(),
            graph.node_by_name("SJC").unwrap(),
        );
        let config = PlaybackConfig { packets_per_second: 20, seed, ..Default::default() };
        for kind in [SchemeKind::StaticSinglePath, SchemeKind::StaticTwoDisjoint] {
            let mut a = build_scheme(kind, &graph, flow, ServiceRequirement::default(),
                &SchemeParams::default()).unwrap();
            let mut b = build_scheme(kind, &graph, flow, ServiceRequirement::default(),
                &SchemeParams::default()).unwrap();
            let mild = run_flow(&graph, &traces, a.as_mut(), &config);
            let harsh = run_flow(&graph, &harsher, b.as_mut(), &config);
            prop_assert!(harsh.packets_on_time <= mild.packets_on_time,
                "{kind}: harsher trace delivered more ({} > {})",
                harsh.packets_on_time, mild.packets_on_time);
            prop_assert!(harsh.unavailable_seconds >= mild.unavailable_seconds);
        }
    }

    /// Dissemination-graph construction is a normalization: feeding a
    /// graph's own edges back in reproduces it exactly, and the bitmask
    /// codec round-trips.
    #[test]
    fn dissemination_graph_normalization_is_idempotent(
        src in 0u32..12, dst in 0u32..12, extra in proptest::collection::vec(0u32..60, 0..20)
    ) {
        prop_assume!(src != dst);
        let graph = topology::presets::north_america_12();
        let (s, t) = (NodeId::new(src), NodeId::new(dst));
        let base = topology::algo::dijkstra::shortest_path(&graph, s, t).unwrap();
        let mut edges: Vec<topology::EdgeId> = base.edges().to_vec();
        edges.extend(extra.iter().map(|&i| topology::EdgeId::new(i)));
        let dg = DisseminationGraph::new(&graph, s, t, edges).unwrap();
        let again = DisseminationGraph::new(&graph, s, t, dg.edges().to_vec()).unwrap();
        prop_assert_eq!(&dg, &again);
        let mask = dg.to_bitmask(graph.edge_count());
        let back = DisseminationGraph::from_bitmask(&graph, s, t, &mask).unwrap();
        prop_assert_eq!(&dg, &back);
        // Cost counts exactly the normalized edges.
        prop_assert_eq!(dg.cost(&graph) as usize, dg.len());
    }

    /// Every scheme on every feasible flow of a random grid produces a
    /// graph within the flooding superset, meeting the deadline.
    #[test]
    fn schemes_hold_invariants_on_grids(rows in 2usize..4, cols in 2usize..5) {
        let graph = topology::presets::grid(rows, cols, Micros::from_millis(5));
        let s = NodeId::new(0);
        let t = NodeId::new((rows * cols - 1) as u32);
        let req = ServiceRequirement::new(Micros::from_millis(5 * (rows + cols) as u64 * 2));
        let params = SchemeParams::default();
        let flood = build_scheme(SchemeKind::TimeConstrainedFlooding, &graph,
            Flow::new(s, t), req, &params).unwrap();
        for kind in SchemeKind::ALL {
            match build_scheme(kind, &graph, Flow::new(s, t), req, &params) {
                Ok(scheme) => {
                    let dg = scheme.current();
                    prop_assert_eq!(dg.source(), s);
                    prop_assert_eq!(dg.receivers(), &[t]);
                    prop_assert!(dg.best_latency(&graph) <= req.deadline,
                        "{kind} misses deadline");
                    prop_assert!(flood.current().is_superset_of(dg),
                        "{kind} outside the flooding set");
                }
                Err(e) => {
                    // Only acceptable on shapes without two disjoint paths.
                    prop_assert!(rows.min(cols) == 1, "{kind} failed: {e}");
                }
            }
        }
    }

    /// Playback is deterministic: identical configs produce identical
    /// stats, and the per-second records sum to the totals.
    #[test]
    fn playback_is_deterministic_and_self_consistent(seed in 0u64..500) {
        let graph = topology::presets::north_america_12();
        let mut wan = SyntheticWanConfig::calibrated(seed);
        wan.duration = Micros::from_secs(60);
        wan.node_problems.events_per_hour = 10.0;
        let traces = dissemination_graphs::trace::gen::generate(&graph, &wan);
        let flow = Flow::new(
            graph.node_by_name("WAS").unwrap(),
            graph.node_by_name("DEN").unwrap(),
        );
        let config = PlaybackConfig { packets_per_second: 10, seed, ..Default::default() };
        let run = |_: ()| {
            let mut scheme = build_scheme(SchemeKind::TargetedRedundancy, &graph, flow,
                ServiceRequirement::default(), &SchemeParams::default()).unwrap();
            let out = dissemination_graphs::sim::run_flow_full(&graph, &traces, scheme.as_mut(), &config);
            (out.stats, out.seconds)
        };
        let (stats_a, records_a) = run(());
        let (stats_b, _) = run(());
        prop_assert_eq!(stats_a, stats_b);
        let sent: u64 = records_a.iter().map(|r| r.sent).sum();
        let on_time: u64 = records_a.iter().map(|r| r.on_time).sum();
        let unavailable = records_a.iter().filter(|r| r.unavailable).count() as u64;
        prop_assert_eq!(sent, stats_a.packets_sent);
        prop_assert_eq!(on_time, stats_a.packets_on_time);
        prop_assert_eq!(unavailable, stats_a.unavailable_seconds);
    }
}
