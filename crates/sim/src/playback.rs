//! The playback loop: replaying a trace against one dissemination-graph
//! route, and the per-flow entry points built on it.

use crate::histogram::LatencyHistogram;
use crate::metrics::{FlowRunStats, SecondRecord};
use crate::packet::{propagate, sampled, RecoveryModel, SimScratch, Spread};
use dg_core::scheme::RoutingScheme;
use dg_core::{receiver_digest, DisseminationGraph};
use dg_topology::{Graph, Micros};
use dg_trace::TraceSet;
use serde::{Deserialize, Serialize};

/// Playback parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlaybackConfig {
    /// Application packets per second (evenly spaced).
    pub packets_per_second: u32,
    /// One-way delivery deadline.
    pub deadline: Micros,
    /// A second is available when `on_time / sent >= threshold`;
    /// the default `1.0` counts any missed packet as an unavailable
    /// second (the strictest reading of the paper's contract).
    pub availability_threshold: f64,
    /// Delay between a monitoring interval boundary and the moment
    /// routing schemes observe the new conditions (link-state
    /// propagation plus loss-estimation time).
    pub detection_lag: Micros,
    /// Hop-by-hop recovery model.
    pub recovery: RecoveryModel,
    /// Seed for the deterministic loss draws.
    pub seed: u64,
}

impl Default for PlaybackConfig {
    fn default() -> Self {
        PlaybackConfig {
            packets_per_second: 100,
            deadline: Micros::from_millis(65),
            availability_threshold: 1.0,
            detection_lag: Micros::from_secs(1),
            recovery: RecoveryModel::default(),
            seed: 0,
        }
    }
}

/// Everything one playback run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybackOutput {
    /// Aggregate statistics.
    pub stats: FlowRunStats,
    /// One record per simulated second.
    pub seconds: Vec<SecondRecord>,
    /// Distribution of delivered-packet latencies (lost packets are
    /// tracked for loss-aware quantiles).
    pub latency: LatencyHistogram,
}

/// Where the playback loop takes its dissemination graph from.
pub(crate) trait Route {
    /// The graph packets are sent over right now.
    fn current(&self) -> &DisseminationGraph;

    /// Shows the route the conditions of the monitoring interval that
    /// started at `interval_start`; true when the graph changed.
    fn observe(&mut self, topology: &Graph, traces: &TraceSet, interval_start: Micros) -> bool;
}

/// A routing scheme reroutes on monitoring updates.
impl Route for dyn RoutingScheme + '_ {
    fn current(&self) -> &DisseminationGraph {
        RoutingScheme::current(self)
    }

    fn observe(&mut self, topology: &Graph, traces: &TraceSet, interval_start: Micros) -> bool {
        self.update(topology, &traces.state_at(interval_start))
    }
}

/// What the playback loop accumulates.
pub(crate) trait Tally {
    /// `n` consecutive packets sent over `graph` each spread as
    /// `spread` says. Packets are handed over in send order.
    fn packets(&mut self, spread: Spread<'_>, graph: &DisseminationGraph, deadline: Micros, n: u64);

    /// Every packet of `second` has been sent.
    fn second_ended(&mut self, _second: u64, _availability_threshold: f64) {}

    /// The route changed its graph.
    fn rerouted(&mut self) {}
}

/// The sampling seed of a run. The graph's endpoints are mixed in so
/// different flows see independent loss draws while schemes on the same
/// flow stay paired: `(source << 32) | receiver` for one receiver, the
/// receiver-set digest in the low half for several.
fn playback_seed(seed: u64, graph: &DisseminationGraph) -> u64 {
    let receivers = match graph.receivers() {
        [only] => only.index() as u64,
        many => receiver_digest(many) & 0xFFFF_FFFF,
    };
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((graph.source().index() as u64) << 32 | receivers)
}

/// Hands the run of wavefront hits not yet tallied to `tally`.
fn flush_hits<T: Tally>(
    tally: &mut T,
    scratch: &mut SimScratch,
    graph: &DisseminationGraph,
    deadline: Micros,
    hits: &mut u64,
) {
    let n = std::mem::take(hits);
    if n > 0 {
        scratch.replay.wave_hits += n;
        tally.packets(scratch.wave_spread(), graph, deadline, n);
    }
}

/// The playback loop: sends `packets_per_second` evenly spaced packets
/// for every second of `traces` over whatever graph `route` currently
/// selects, and hands what became of them to `tally`.
///
/// Route updates fire `detection_lag` after each monitoring interval
/// boundary, with that boundary's conditions — packets sent before the
/// update still use the previous dissemination graph, which is how a
/// real deployment experiences a problem's onset. The scratch's
/// forwarding index is rebuilt only when the route actually changes,
/// and its event heap and arrival table are reused across every packet.
///
/// Most packets lose nothing, and inside one trace interval all of
/// those spread alike: the loop builds the interval's loss-free
/// wavefront once ([`SimScratch::build_wave`]) and a packet it covers
/// whose draws all survive is a **hit**, counted and handed to the
/// tally with the hits around it — at the next repair or miss, second
/// boundary, interval change or route update. A covered packet that
/// loses only slack draws, or one tight draw, is a **repair**
/// ([`SimScratch::repair`]), handed to the tally on its own with its
/// own transmissions. Every other packet — two tight losses, or a
/// `[send, expiry]` that leaves the interval — is a **miss** and runs
/// the event heap, which is the definition; hits and repairs are the
/// same results without the work.
pub(crate) fn play<R: Route + ?Sized, T: Tally>(
    topology: &Graph,
    traces: &TraceSet,
    route: &mut R,
    config: &PlaybackConfig,
    scratch: &mut SimScratch,
    tally: &mut T,
) {
    assert!(config.packets_per_second > 0, "at least one packet per second");
    let seed = playback_seed(config.seed, route.current());
    let deadline = config.deadline;
    let spacing = Micros::from_micros(1_000_000 / u64::from(config.packets_per_second));

    // Pending route updates: (observe_time, interval_start).
    let mut updates: Vec<(Micros, Micros)> = traces
        .interval_starts()
        .map(|start| (start.saturating_add(config.detection_lag), start))
        .collect();
    updates.reverse(); // pop from the back in chronological order

    let mut seq = 0u64;
    let mut hits = 0u64;
    scratch.index_graph(topology, route.current());
    for second in 0..traces.duration().as_secs() {
        for k in 0..u64::from(config.packets_per_second) {
            let t = Micros::from_secs(second).saturating_add(spacing.saturating_mul(k));
            // Apply monitoring updates that have become observable.
            while updates.last().is_some_and(|&(observe, _)| observe <= t) {
                let (_, interval_start) = updates.pop().expect("checked non-empty");
                flush_hits(tally, scratch, route.current(), deadline, &mut hits);
                if route.observe(topology, traces, interval_start) {
                    tally.rerouted();
                    scratch.index_graph(topology, route.current());
                }
            }
            let graph = route.current();
            if !scratch.wave_covers(t) {
                // A straddler of the wave's interval, or the first
                // packet of another.
                let interval = traces.interval_at(t);
                if scratch.wave_interval() != Some(interval) {
                    flush_hits(tally, scratch, graph, deadline, &mut hits);
                    let recovery = &config.recovery;
                    let source = graph.source();
                    scratch
                        .build_wave(topology, traces, source, interval, deadline, recovery, seed);
                }
            }
            let covered = scratch.wave_covers(t);
            let loss = covered.then(|| scratch.wave_loss(seq));
            if loss == Some(None) {
                hits += 1;
            } else {
                flush_hits(tally, scratch, graph, deadline, &mut hits);
                let repaired = loss.flatten().and_then(|first| {
                    scratch.repair(topology, traces, graph.source(), seq, t, first)
                });
                if let Some(spread) = repaired {
                    tally.packets(spread, graph, deadline, 1);
                } else {
                    scratch.replay.full_propagations += 1;
                    scratch.replay.straddlers += u64::from(!covered);
                    let transmissions = propagate(
                        scratch,
                        topology,
                        graph.source(),
                        traces,
                        t,
                        t.saturating_add(deadline),
                        &config.recovery,
                        sampled(seed, seq),
                    );
                    tally.packets(scratch.spread(t, transmissions), graph, deadline, 1);
                }
            }
            seq += 1;
        }
        flush_hits(tally, scratch, route.current(), deadline, &mut hits);
        tally.second_ended(second, config.availability_threshold);
    }
}

/// The per-flow accumulator: aggregate stats, one record per second,
/// and the latency distribution.
struct FlowTally {
    out: PlaybackOutput,
    /// Packets sent and delivered on time in the second under way.
    sent: u64,
    on_time: u64,
}

impl Tally for FlowTally {
    fn packets(
        &mut self,
        spread: Spread<'_>,
        graph: &DisseminationGraph,
        deadline: Micros,
        n: u64,
    ) {
        let stats = &mut self.out.stats;
        self.sent += n;
        stats.packets_sent += n;
        stats.transmissions += spread.transmissions * n;
        match spread.delivered_after(graph) {
            Some(latency) => {
                stats.packets_delivered += n;
                self.out.latency.record_n(latency, n);
                if latency <= deadline {
                    self.on_time += n;
                    stats.packets_on_time += n;
                }
            }
            None => {
                stats.packets_lost += n;
                self.out.latency.record_lost_n(n);
            }
        }
    }

    fn second_ended(&mut self, second: u64, availability_threshold: f64) {
        let (sent, on_time) = (self.sent, self.on_time);
        let unavailable = (on_time as f64) < availability_threshold * sent as f64;
        if unavailable {
            self.out.stats.unavailable_seconds += 1;
        }
        self.out.seconds.push(SecondRecord { second, sent, on_time, unavailable });
        (self.sent, self.on_time) = (0, 0);
    }

    fn rerouted(&mut self) {
        self.out.stats.graph_changes += 1;
    }
}

/// Replays `traces` for the scheme's flow and returns aggregate stats.
///
/// See [`run_flow_full`] for the per-second breakdown and the latency
/// distribution as well.
pub fn run_flow(
    topology: &Graph,
    traces: &TraceSet,
    scheme: &mut dyn RoutingScheme,
    config: &PlaybackConfig,
) -> FlowRunStats {
    run_flow_full(topology, traces, scheme, config).stats
}

/// Replays `traces` for the scheme's flow and returns stats, per-second
/// records, and the latency distribution. The scheme sees each
/// monitoring update `detection_lag` after its interval boundary and
/// may reroute on it.
pub fn run_flow_full(
    topology: &Graph,
    traces: &TraceSet,
    scheme: &mut dyn RoutingScheme,
    config: &PlaybackConfig,
) -> PlaybackOutput {
    run_flow_full_with(topology, traces, scheme, config, &mut SimScratch::new())
}

/// [`run_flow_full`] over a caller-held scratch arena: a pool worker
/// reuses one across its jobs, and [`SimScratch::replay`] says
/// afterwards where the run's packets went. The scratch is re-indexed
/// for the scheme's graph before any packet is simulated, so results do
/// not depend on what it was used for before.
pub fn run_flow_full_with(
    topology: &Graph,
    traces: &TraceSet,
    scheme: &mut dyn RoutingScheme,
    config: &PlaybackConfig,
    scratch: &mut SimScratch,
) -> PlaybackOutput {
    let seconds = traces.duration().as_secs();
    let mut tally = FlowTally {
        out: PlaybackOutput {
            stats: FlowRunStats {
                scheme: scheme.kind(),
                flow: scheme.flow(),
                seconds,
                unavailable_seconds: 0,
                packets_sent: 0,
                packets_on_time: 0,
                packets_delivered: 0,
                packets_lost: 0,
                transmissions: 0,
                graph_changes: 0,
            },
            seconds: Vec::with_capacity(seconds as usize),
            latency: LatencyHistogram::new(),
        },
        sent: 0,
        on_time: 0,
    };
    play(topology, traces, scheme, config, scratch, &mut tally);
    tally.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::tests::reference;
    use dg_core::scheme::{build_scheme, SchemeKind, SchemeParams};
    use dg_core::{Flow, ServiceRequirement};
    use dg_topology::presets;
    use dg_trace::LinkCondition;

    fn quick_config() -> PlaybackConfig {
        PlaybackConfig { packets_per_second: 20, ..PlaybackConfig::default() }
    }

    fn flow(g: &Graph) -> Flow {
        Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap())
    }

    fn scheme(g: &Graph, kind: SchemeKind) -> Box<dyn RoutingScheme> {
        build_scheme(kind, g, flow(g), ServiceRequirement::default(), &SchemeParams::default())
            .unwrap()
    }

    #[test]
    fn clean_trace_is_fully_available() {
        let g = presets::north_america_12();
        let traces = TraceSet::clean(g.edge_count(), 3, Micros::from_secs(10)).unwrap();
        let mut s = scheme(&g, SchemeKind::StaticSinglePath);
        let PlaybackOutput { stats, seconds: records, .. } =
            run_flow_full(&g, &traces, s.as_mut(), &quick_config());
        assert_eq!(stats.seconds, 30);
        assert_eq!(stats.unavailable_seconds, 0);
        assert_eq!(stats.packets_sent, 600);
        assert_eq!(stats.packets_on_time, 600);
        assert_eq!(records.len(), 30);
        assert!(records.iter().all(|r| !r.unavailable && r.on_time == 20));
        // Single path cost: path length per packet.
        let expected = s.current().len() as u64 * 600;
        assert_eq!(stats.transmissions, expected);
    }

    #[test]
    fn dead_path_makes_static_single_unavailable() {
        let g = presets::north_america_12();
        let mut traces = TraceSet::clean(g.edge_count(), 3, Micros::from_secs(10)).unwrap();
        let mut s = scheme(&g, SchemeKind::StaticSinglePath);
        // Kill the whole middle interval on the scheme's path.
        for &e in s.current().edges() {
            traces.set_condition(e, 1, LinkCondition::down());
        }
        let PlaybackOutput { stats, seconds: records, .. } =
            run_flow_full(&g, &traces, s.as_mut(), &quick_config());
        assert_eq!(stats.unavailable_seconds, 10);
        for r in &records {
            assert_eq!(r.unavailable, (10..20).contains(&r.second), "second {}", r.second);
        }
    }

    #[test]
    fn dynamic_single_recovers_after_detection_lag() {
        let g = presets::north_america_12();
        let mut traces = TraceSet::clean(g.edge_count(), 6, Micros::from_secs(10)).unwrap();
        let mut s = scheme(&g, SchemeKind::DynamicSinglePath);
        for &e in s.current().edges() {
            for i in 1..6 {
                traces.set_condition(e, i, LinkCondition::down());
            }
        }
        let PlaybackOutput { stats, seconds: records, .. } =
            run_flow_full(&g, &traces, s.as_mut(), &quick_config());
        // Problem starts at second 10; detection at 11; from then on the
        // dynamic scheme routes around it.
        assert!(records[10].unavailable, "onset second is lost");
        for r in &records[12..] {
            assert!(!r.unavailable, "second {} should be recovered", r.second);
        }
        assert!(stats.graph_changes >= 1);
        assert!(stats.unavailable_seconds <= 2);
    }

    #[test]
    fn static_disjoint_survives_what_kills_single() {
        let g = presets::north_america_12();
        let mut traces = TraceSet::clean(g.edge_count(), 3, Micros::from_secs(10)).unwrap();
        let mut single = scheme(&g, SchemeKind::StaticSinglePath);
        let mut disjoint = scheme(&g, SchemeKind::StaticTwoDisjoint);
        for &e in single.current().edges() {
            traces.set_condition(e, 1, LinkCondition::down());
        }
        let cfg = quick_config();
        let s1 = run_flow(&g, &traces, single.as_mut(), &cfg);
        let s2 = run_flow(&g, &traces, disjoint.as_mut(), &cfg);
        assert_eq!(s1.unavailable_seconds, 10);
        // The second disjoint path shares at most the lossy-edge-free
        // portions; at least one disjoint route stays clean.
        assert_eq!(s2.unavailable_seconds, 0);
        assert!(s2.average_cost() > s1.average_cost());
    }

    #[test]
    fn availability_threshold_changes_the_verdict() {
        let g = presets::north_america_12();
        let mut traces = TraceSet::clean(g.edge_count(), 2, Micros::from_secs(10)).unwrap();
        let mut s = scheme(&g, SchemeKind::StaticSinglePath);
        // 20% loss on one path edge without recovery: most seconds see
        // some losses but far fewer than half.
        let victim = s.current().edges()[0];
        for i in 0..2 {
            traces.set_condition(victim, i, LinkCondition::new(0.2, Micros::ZERO));
        }
        let mut strict = quick_config();
        strict.recovery.enabled = false;
        let lenient = PlaybackConfig { availability_threshold: 0.5, ..strict };
        let a = run_flow(&g, &traces, s.as_mut(), &strict);
        let mut s2 = scheme(&g, SchemeKind::StaticSinglePath);
        let b = run_flow(&g, &traces, s2.as_mut(), &lenient);
        assert!(a.unavailable_seconds > 0);
        assert_eq!(b.unavailable_seconds, 0);
        assert_eq!(a.packets_on_time, b.packets_on_time, "paired draws");
    }

    #[test]
    fn detection_lag_delays_reaction() {
        let g = presets::north_america_12();
        let mut traces = TraceSet::clean(g.edge_count(), 4, Micros::from_secs(10)).unwrap();
        let mut s_fast = scheme(&g, SchemeKind::DynamicSinglePath);
        // Kill the path from interval 1 onward.
        for &e in s_fast.current().edges() {
            for i in 1..4 {
                traces.set_condition(e, i, LinkCondition::down());
            }
        }
        let fast = PlaybackConfig {
            packets_per_second: 20,
            detection_lag: Micros::from_millis(100),
            ..PlaybackConfig::default()
        };
        let slow = PlaybackConfig {
            packets_per_second: 20,
            detection_lag: Micros::from_secs(5),
            ..PlaybackConfig::default()
        };
        let a = run_flow(&g, &traces, s_fast.as_mut(), &fast);
        let mut s_slow = scheme(&g, SchemeKind::DynamicSinglePath);
        let b = run_flow(&g, &traces, s_slow.as_mut(), &slow);
        // Faster detection loses strictly fewer seconds: ~1 vs ~6.
        assert!(a.unavailable_seconds <= 2, "fast lag lost {}", a.unavailable_seconds);
        assert!(
            b.unavailable_seconds >= a.unavailable_seconds + 3,
            "slow {} vs fast {}",
            b.unavailable_seconds,
            a.unavailable_seconds
        );
    }

    #[test]
    fn graph_changes_are_counted() {
        let g = presets::north_america_12();
        let mut traces = TraceSet::clean(g.edge_count(), 4, Micros::from_secs(10)).unwrap();
        let s = scheme(&g, SchemeKind::DynamicSinglePath);
        // Problem appears in interval 1 and clears in interval 2.
        for &e in s.current().edges() {
            traces.set_condition(e, 1, LinkCondition::down());
        }
        // Zero hysteresis so the heal-back switch is counted too.
        let mut s = build_scheme(
            SchemeKind::DynamicSinglePath,
            &g,
            flow(&g),
            ServiceRequirement::default(),
            &SchemeParams { hysteresis: 0.0, ..SchemeParams::default() },
        )
        .unwrap();
        let stats = run_flow(&g, &traces, s.as_mut(), &quick_config());
        assert_eq!(stats.graph_changes, 2, "one switch away, one back");
    }

    /// A route that leaves its first graph for its second on seeing
    /// the interval that starts at `at`.
    struct Switch<'a> {
        graphs: [&'a DisseminationGraph; 2],
        at: Micros,
        now: usize,
    }

    impl Route for Switch<'_> {
        fn current(&self) -> &DisseminationGraph {
            self.graphs[self.now]
        }

        fn observe(&mut self, _: &Graph, _: &TraceSet, interval_start: Micros) -> bool {
            let switch = interval_start == self.at;
            self.now += usize::from(switch);
            switch
        }
    }

    /// Per tally call: the size of the graph named, the transmissions of
    /// the spread handed over, and the packets it stands for.
    struct Calls(Vec<(usize, u64, u64)>);

    impl Tally for Calls {
        fn packets(&mut self, spread: Spread<'_>, graph: &DisseminationGraph, _: Micros, n: u64) {
            self.0.push((graph.len(), spread.transmissions, n));
        }
    }

    #[test]
    fn a_reroute_mid_interval_hands_the_pending_hits_to_the_old_graph() {
        let g = presets::north_america_12();
        let traces = TraceSet::clean(g.edge_count(), 3, Micros::from_secs(10)).unwrap();
        let single = scheme(&g, SchemeKind::StaticSinglePath).current().clone();
        let double = scheme(&g, SchemeKind::StaticTwoDisjoint).current().clone();
        // Seen half a second into interval 1, between two packets of a
        // second and of a run of hits.
        let mut route = Switch { graphs: [&single, &double], at: Micros::from_secs(10), now: 0 };
        let config = PlaybackConfig {
            packets_per_second: 10,
            detection_lag: Micros::from_millis(500),
            ..PlaybackConfig::default()
        };
        let mut calls = Calls(Vec::new());
        let mut scratch = SimScratch::new();
        play(&g, &traces, &mut route, &config, &mut scratch, &mut calls);
        // On a clean network a packet costs its graph's edges, so a run
        // of hits handed over with the wrong graph shows.
        let packets_costing = |edges: usize| -> u64 {
            calls.0.iter().filter(|c| c.1 == edges as u64).map(|c| c.2).sum()
        };
        assert!(calls.0.iter().all(|&(edges, cost, _)| cost == edges as u64), "{:?}", calls.0);
        assert_eq!(packets_costing(single.len()), 105, "sent before 10.5 s");
        assert_eq!(packets_costing(double.len()), 195);
        assert!(calls.0.contains(&(single.len(), single.len() as u64, 5)), "10.0 s to 10.4 s");
        let replay = scratch.replay();
        assert_eq!((replay.wave_hits, replay.full_propagations, replay.straddlers), (300, 0, 0));
        assert_eq!(replay.wave_builds, 4, "one per interval, and one more for the new graph");
    }

    #[test]
    fn a_scratch_carries_no_wave_from_one_job_to_the_next() {
        // Two jobs that differ in seed, graph, trace, deadline and rate,
        // back to back on one scratch, both ways round: each must come
        // out as it does on a fresh one. Their traces are one interval
        // long, so the second job starts inside the window of the wave
        // the first one left.
        let g = presets::north_america_12();
        let lossy = |loss: f64, extra_ms: u64| {
            let mut traces = TraceSet::clean(g.edge_count(), 1, Micros::from_secs(20)).unwrap();
            for e in g.edges() {
                traces.set_condition(e, 0, LinkCondition::new(loss, Micros::from_millis(extra_ms)));
            }
            traces
        };
        let jobs = [
            (
                SchemeKind::StaticTwoDisjoint,
                lossy(0.05, 0),
                PlaybackConfig { seed: 1, ..quick_config() },
            ),
            (
                SchemeKind::TimeConstrainedFlooding,
                lossy(0.1, 3),
                PlaybackConfig {
                    seed: 2,
                    packets_per_second: 50,
                    deadline: Micros::from_millis(80),
                    ..quick_config()
                },
            ),
        ];
        let run = |job: &(SchemeKind, TraceSet, PlaybackConfig), scratch: &mut SimScratch| {
            run_flow_full_with(&g, &job.1, scheme(&g, job.0).as_mut(), &job.2, scratch)
        };
        let fresh = jobs.each_ref().map(|job| run(job, &mut SimScratch::new()));
        assert!(fresh.iter().all(|out| out.latency.cdf().len() > 1), "some packets lost a draw");
        for order in [[0, 1], [1, 0]] {
            let mut shared = SimScratch::new();
            for i in order {
                assert_eq!(run(&jobs[i], &mut shared), fresh[i], "job {i} in order {order:?}");
            }
        }
    }

    #[test]
    fn replay_counters_say_where_the_packets_went() {
        let g = presets::north_america_12();
        let mut traces = TraceSet::clean(g.edge_count(), 3, Micros::from_secs(10)).unwrap();
        let mut s = scheme(&g, SchemeKind::StaticSinglePath);
        // The path is dead for interval 1: every packet of it runs the
        // event heap, and so do the straddlers of intervals 0 and 1.
        for &e in s.current().edges() {
            traces.set_condition(e, 1, LinkCondition::down());
        }
        let mut scratch = SimScratch::new();
        let out = run_flow_full_with(&g, &traces, s.as_mut(), &quick_config(), &mut scratch);
        let replay = scratch.replay();
        assert_eq!(replay.wave_hits + replay.full_propagations, out.stats.packets_sent);
        // 20 pps: one packet is sent less than 65 ms before a boundary.
        assert_eq!(replay.straddlers, 2);
        assert_eq!(replay.full_propagations, 200 + 1, "interval 1 and interval 0's straddler");
        assert_eq!(replay.wave_builds, 3);
        assert!((replay.full_share() - 201.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn heap_pushes_count_the_arrivals_that_improve() {
        let g = presets::north_america_12();
        // Intervals shorter than the deadline, so that no wave is built
        // and every packet runs the event heap: the pushes of pushing
        // every surviving transmission are the reference's, packet by
        // packet. The last interval never ends; no packet is sent in it.
        let mut traces = TraceSet::clean(g.edge_count(), 41, Micros::from_millis(50)).unwrap();
        for e in g.edges() {
            for i in 0..41 {
                let extra = Micros::from_millis(4 * (i as u64 % 3));
                traces.set_condition(e, i, LinkCondition::new(0.2, extra));
            }
        }
        let mut s = scheme(&g, SchemeKind::TimeConstrainedFlooding);
        let graph = s.current().clone();
        let config = quick_config();
        let mut scratch = SimScratch::new();
        run_flow_full_with(&g, &traces, s.as_mut(), &config, &mut scratch);
        let replay = scratch.replay();
        assert_eq!((replay.wave_builds, replay.full_propagations), (0, 40));
        assert_eq!(replay.heap_pushes, 622);
        let seed = playback_seed(config.seed, &graph);
        let pushing_every_survivor: u64 = (0..40)
            .map(|seq| {
                let t = Micros::from_millis(50 * seq);
                let expiry = t.saturating_add(config.deadline);
                let draws = sampled(seed, seq);
                reference(&g, &graph, &traces, t, expiry, &config.recovery, draws).pushes
            })
            .sum();
        assert_eq!(pushing_every_survivor, 2_305);
        assert!(pushing_every_survivor > replay.heap_pushes);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn zero_rate_panics() {
        let g = presets::north_america_12();
        let traces = TraceSet::clean(g.edge_count(), 1, Micros::from_secs(1)).unwrap();
        let mut s = scheme(&g, SchemeKind::StaticSinglePath);
        let cfg = PlaybackConfig { packets_per_second: 0, ..PlaybackConfig::default() };
        run_flow(&g, &traces, s.as_mut(), &cfg);
    }
}
