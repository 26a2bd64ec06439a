//! The playback loop against its definition.
//!
//! `run_flow_full` answers most packets from a memoised loss-free
//! wavefront. The definition of what it computes is the loop below: one
//! public `simulate_packet_with` per packet — which never consults a
//! memo — and one accumulator update per packet. Every
//! statistic, per-second record and histogram must be equal, on traces
//! built to hit every way a packet can leave the fast path: one-second
//! (and shorter-than-the-deadline) intervals so packets straddle
//! boundaries all the time, dead and coin-flip links, added latency
//! past the deadline, recovery on and off. A second family replays
//! flooding and targeted redundancy — which reroutes — under uniform
//! background loss, where most packets that leave the fast path are
//! repaired from the wavefront rather than sent to the event heap.

use dg_core::scheme::{build_scheme, RoutingScheme, SchemeKind, SchemeParams};
use dg_core::{DisseminationGraph, Flow, ServiceRequirement};
use dg_sim::{
    run_flow_full, run_flow_full_with, simulate_packet_with, FlowRunStats, LatencyHistogram,
    PlaybackConfig, PlaybackOutput, RecoveryModel, SecondRecord, SimScratch,
};
use dg_topology::{presets, EdgeId, Graph, Micros, NodeId};
use dg_trace::{LinkCondition, TraceSet};
use proptest::prelude::*;

const LOSS: [f64; 4] = [0.0, 2e-4, 0.5, 1.0];
/// Added latency: none, some, and more than the 65 ms deadline.
const EXTRA_MS: [u64; 3] = [0, 8, 80];
/// At 10 pps packets are further apart than the deadline, so an
/// interval can end without a straddler to end its run of hits.
const RATES: [u32; 4] = [1, 10, 100, 1000];
/// Interval lengths: the deadline fits many times, a few times, not at
/// all (every packet straddles).
const INTERVAL_MS: [u64; 3] = [1000, 250, 50];
const TRACE_SECS: u64 = 4;

/// `(edge, interval, loss index, extra-latency index)`.
type Impairment = (u32, usize, usize, usize);

fn trace(g: &Graph, interval_ms: u64, background: bool, impairments: &[Impairment]) -> TraceSet {
    let intervals = (TRACE_SECS * 1000 / interval_ms) as usize;
    let mut t =
        TraceSet::clean(g.edge_count(), intervals, Micros::from_millis(interval_ms)).unwrap();
    if background {
        for e in g.edges() {
            for i in 0..intervals {
                t.set_condition(e, i, LinkCondition::new(LOSS[1], Micros::ZERO));
            }
        }
    }
    for &(e, i, loss, extra) in impairments {
        t.set_condition(
            EdgeId::new(e % g.edge_count() as u32),
            i % intervals,
            LinkCondition::new(LOSS[loss], Micros::from_millis(EXTRA_MS[extra])),
        );
    }
    t
}

/// The documented seed mix of a playback run (`playback::playback_seed`).
fn playback_seed(seed: u64, flow: Flow) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((flow.source.index() as u64) << 32 | flow.destination.index() as u64)
}

/// Calls `packet(send time, seq)` for every packet of a run, in order,
/// and `second_ended(second)` after each second's last.
fn schedule(
    traces: &TraceSet,
    config: &PlaybackConfig,
    mut packet: impl FnMut(Micros, u64),
    mut second_ended: impl FnMut(u64),
) {
    let spacing = Micros::from_micros(1_000_000 / u64::from(config.packets_per_second));
    let mut seq = 0;
    for second in 0..traces.duration().as_secs() {
        for k in 0..u64::from(config.packets_per_second) {
            packet(Micros::from_secs(second).saturating_add(spacing.saturating_mul(k)), seq);
            seq += 1;
        }
        second_ended(second);
    }
}

/// What `run_flow_full` must return for a scheme that never leaves
/// `graph`: one event-heap propagation and one tally per packet.
fn flow_by_definition(
    g: &Graph,
    traces: &TraceSet,
    kind: SchemeKind,
    flow: Flow,
    graph: &DisseminationGraph,
    config: &PlaybackConfig,
) -> PlaybackOutput {
    let mut scheme =
        build_scheme(kind, g, flow, ServiceRequirement::default(), &SchemeParams::default())
            .unwrap();
    assert_eq!(scheme.current(), graph);
    let defined = by_definition(g, traces, scheme.as_mut(), config);
    assert_eq!(defined.stats.graph_changes, 0, "{kind} is static");
    defined
}

/// What `run_flow_full` must return for `scheme`: the scheme sees each
/// interval's conditions `detection_lag` after the interval starts, and
/// every packet is one event-heap propagation over the graph in force
/// at its send, and one tally.
fn by_definition(
    g: &Graph,
    traces: &TraceSet,
    scheme: &mut dyn RoutingScheme,
    config: &PlaybackConfig,
) -> PlaybackOutput {
    let seed = playback_seed(config.seed, scheme.flow());
    let mut scratch = SimScratch::new();
    scratch.index_graph(g, scheme.current());
    let mut stats = FlowRunStats {
        scheme: scheme.kind(),
        flow: scheme.flow(),
        seconds: traces.duration().as_secs(),
        unavailable_seconds: 0,
        packets_sent: 0,
        packets_on_time: 0,
        packets_delivered: 0,
        packets_lost: 0,
        transmissions: 0,
        graph_changes: 0,
    };
    let mut updates: Vec<_> =
        traces.interval_starts().map(|start| (start + config.detection_lag, start)).collect();
    updates.reverse();
    let mut latency = LatencyHistogram::new();
    let mut seconds = Vec::new();
    // Sent and on time in the second under way.
    let second = std::cell::Cell::new((0u64, 0u64));
    schedule(
        traces,
        config,
        |t, seq| {
            while updates.last().is_some_and(|&(observe, _)| observe <= t) {
                let (_, start) = updates.pop().unwrap();
                if scheme.update(g, &traces.state_at(start)) {
                    stats.graph_changes += 1;
                    scratch.index_graph(g, scheme.current());
                }
            }
            let out = simulate_packet_with(
                &mut scratch,
                g,
                scheme.current(),
                traces,
                t,
                config.deadline,
                &config.recovery,
                seed,
                seq,
            );
            stats.packets_sent += 1;
            stats.transmissions += out.transmissions;
            match out.delivered_at {
                Some(at) => {
                    stats.packets_delivered += 1;
                    latency.record(at.saturating_sub(t));
                }
                None => {
                    stats.packets_lost += 1;
                    latency.record_lost();
                }
            }
            stats.packets_on_time += u64::from(out.on_time);
            let (sent, on_time) = second.get();
            second.set((sent + 1, on_time + u64::from(out.on_time)));
        },
        |index| {
            let (sent, on_time) = second.replace((0, 0));
            let unavailable = (on_time as f64) < config.availability_threshold * sent as f64;
            seconds.push(SecondRecord { second: index, sent, on_time, unavailable });
        },
    );
    stats.unavailable_seconds = seconds.iter().filter(|r| r.unavailable).count() as u64;
    PlaybackOutput { stats, seconds, latency }
}

fn node(g: &Graph, name: &str) -> NodeId {
    g.node_by_name(name).unwrap()
}

/// At 10 pps the packets of a 250 ms interval can all be sent before
/// its last 65 ms: the run of hits is still open when the next interval
/// — here a slower one — replaces the wave.
#[test]
fn an_interval_can_end_without_a_straddler() {
    let g = presets::north_america_12();
    let flow = Flow::new(node(&g, "NYC"), node(&g, "SJC"));
    let kind = SchemeKind::StaticSinglePath;
    let mut scheme =
        build_scheme(kind, &g, flow, ServiceRequirement::default(), &SchemeParams::default())
            .unwrap();
    let graph = scheme.current().clone();
    let slow: Vec<Impairment> = (0..16)
        .filter(|i| i % 2 == 1)
        .flat_map(|i| graph.edges().iter().map(move |e| (e.index() as u32, i, 0, 1)))
        .collect();
    let traces = trace(&g, 250, false, &slow);
    let config = PlaybackConfig { packets_per_second: 10, ..PlaybackConfig::default() };
    let replayed = run_flow_full(&g, &traces, scheme.as_mut(), &config);
    assert_eq!(replayed, flow_by_definition(&g, &traces, kind, flow, &graph, &config));
    assert!(replayed.latency.cdf().len() > 1, "both speeds were seen");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn static_flows_replay_as_defined(
        impairments in proptest::collection::vec((0u32..60, 0usize..80, 0usize..4, 0usize..3), 0..40),
        background in any::<bool>(),
        (interval, rate) in (0usize..3, 0usize..4),
        recovery in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let g = presets::north_america_12();
        let traces = trace(&g, INTERVAL_MS[interval], background, &impairments);
        let flow = Flow::new(node(&g, "NYC"), node(&g, "SJC"));
        let config = PlaybackConfig {
            packets_per_second: RATES[rate],
            recovery: RecoveryModel { enabled: recovery, ..RecoveryModel::default() },
            seed,
            ..PlaybackConfig::default()
        };
        for kind in [
            SchemeKind::StaticSinglePath,
            SchemeKind::StaticTwoDisjoint,
            SchemeKind::TimeConstrainedFlooding,
        ] {
            let mut scheme =
                build_scheme(kind, &g, flow, ServiceRequirement::default(), &SchemeParams::default())
                    .unwrap();
            let graph = scheme.current().clone();
            let replayed = run_flow_full(&g, &traces, scheme.as_mut(), &config);
            prop_assert_eq!(replayed.stats.graph_changes, 0, "{} is static", kind);
            let defined = flow_by_definition(&g, &traces, kind, flow, &graph, &config);
            prop_assert_eq!(&replayed.stats, &defined.stats, "{}", kind);
            prop_assert_eq!(&replayed.seconds, &defined.seconds, "{}", kind);
            prop_assert_eq!(&replayed.latency, &defined.latency, "{}", kind);
        }
    }
}

/// Uniform background loss of 1 % and 5 % on every link, with a few
/// links impaired on top, under flooding and targeted redundancy,
/// recovery on and off. Most packets that lose a draw lose only
/// transmissions the flood did not need, or one it did: the battery
/// must repair some of them from the wavefront, and every output must
/// be the definition's.
#[test]
fn lossy_backgrounds_repair_from_the_wave_as_defined() {
    let g = presets::north_america_12();
    let flow = Flow::new(node(&g, "NYC"), node(&g, "SJC"));
    let mut repairs = [0u64; 2];
    for (background, interval_ms) in [(1e-2, 1000), (5e-2, 250)] {
        let mut traces = trace(&g, interval_ms, false, &[]);
        for e in g.edges() {
            for i in 0..traces.interval_count() {
                traces.set_condition(e, i, LinkCondition::new(background, Micros::ZERO));
            }
        }
        for (e, i, loss, extra) in [(7, 1, 2, 1), (22, 2, 3, 0), (40, 0, 1, 2)] {
            let condition = LinkCondition::new(LOSS[loss], Micros::from_millis(EXTRA_MS[extra]));
            traces.set_condition(EdgeId::new(e), i, condition);
        }
        for (k, kind) in [SchemeKind::TimeConstrainedFlooding, SchemeKind::TargetedRedundancy]
            .into_iter()
            .enumerate()
        {
            for (enabled, seed) in [(true, 3), (false, 4), (true, 5), (false, 6)] {
                let config = PlaybackConfig {
                    recovery: RecoveryModel { enabled, ..RecoveryModel::default() },
                    seed,
                    ..PlaybackConfig::default()
                };
                let build = || {
                    let requirement = ServiceRequirement::default();
                    build_scheme(kind, &g, flow, requirement, &SchemeParams::default()).unwrap()
                };
                let mut scratch = SimScratch::new();
                let replayed =
                    run_flow_full_with(&g, &traces, build().as_mut(), &config, &mut scratch);
                let defined = by_definition(&g, &traces, build().as_mut(), &config);
                let case = format!("{kind}, loss {background}, recovery {enabled}, seed {seed}");
                assert_eq!(replayed, defined, "{case}");
                let replay = scratch.replay();
                assert_eq!(
                    replay.wave_hits + replay.wave_repairs + replay.full_propagations,
                    replayed.stats.packets_sent,
                    "{case}"
                );
                repairs[k] += replay.wave_repairs;
            }
        }
    }
    assert!(repairs.iter().all(|&n| n > 0), "repairs by scheme: {repairs:?}");
}
