//! Per-packet propagation through a dissemination graph.

use crate::rng::unit_sample;
use dg_core::DisseminationGraph;
use dg_topology::{Graph, Micros, NodeId};
use dg_trace::TraceSet;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The overlay's hop-by-hop recovery protocol, as the paper models it:
/// a lost packet is detected at the receiver when the following packet
/// arrives (one inter-packet gap later), a NACK travels back, and the
/// sender retransmits **once**. More retransmissions would blow the
/// latency budget, so a doubly-lost packet is abandoned on that link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryModel {
    /// Whether links attempt recovery at all.
    pub enabled: bool,
    /// Time for the receiver to notice the gap (≈ the flow's
    /// inter-packet spacing).
    pub gap_detection: Micros,
}

impl Default for RecoveryModel {
    fn default() -> Self {
        RecoveryModel { enabled: true, gap_detection: Micros::from_millis(10) }
    }
}

/// What happened to one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketOutcome {
    /// Earliest arrival time at the destination (with several
    /// receivers: at the last of them), if it arrived at all before
    /// nodes dropped it as expired.
    pub delivered_at: Option<Micros>,
    /// True when `delivered_at` is within the deadline.
    pub on_time: bool,
    /// Link transmissions performed (originals + retransmissions) —
    /// the per-packet cost.
    pub transmissions: u64,
}

/// Reusable per-flow simulation state, so replaying millions of packets
/// allocates nothing per packet.
///
/// Holds the event heap, a generation-stamped arrival table (cleared in
/// O(1) by bumping the generation), and a per-node index of the current
/// dissemination graph's forwarding edges — computed once per graph
/// instead of scanning every member edge at every node visit.
#[derive(Debug, Default)]
pub struct SimScratch {
    heap: BinaryHeap<Reverse<(Micros, NodeId)>>,
    arrival: Vec<(u64, Micros)>,
    generation: u64,
    /// `out[node] = ` the dissemination graph's edges leaving `node`.
    out: Vec<Vec<dg_topology::EdgeId>>,
}

impl SimScratch {
    /// Fresh scratch state; sized lazily on first use.
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Rebuilds the per-node forwarding index for `dgraph`. Call once
    /// per dissemination graph (and again whenever the scheme reroutes);
    /// [`simulate_packet_with`] then does O(out-degree) work per visit,
    /// and one index serves every receiver of the graph.
    pub fn index_graph(&mut self, topology: &Graph, dgraph: &DisseminationGraph) {
        let n = topology.node_count();
        self.out.iter_mut().for_each(Vec::clear);
        self.out.resize(n, Vec::new());
        for &e in dgraph.edges() {
            self.out[topology.edge(e).src.index()].push(e);
        }
    }

    fn begin(&mut self, n: usize) {
        self.heap.clear();
        self.generation += 1;
        if self.arrival.len() < n {
            self.arrival.resize(n, (0, Micros::ZERO));
        }
    }

    /// When the most recently propagated packet first reached `node`,
    /// if it did.
    pub(crate) fn arrived(&self, node: NodeId) -> Option<Micros> {
        let (generation, at) = self.arrival[node.index()];
        (generation == self.generation).then_some(at)
    }

    fn mark(&mut self, node: NodeId, at: Micros) {
        self.arrival[node.index()] = (self.generation, at);
    }
}

/// Simulates one packet sent at `send_time` over `dgraph`.
///
/// Every node receiving the packet for the first time forwards it once
/// on each of its out-edges in the graph; duplicates are suppressed;
/// nodes drop packets that have already exceeded the deadline (the
/// deadline-aware service never forwards useless data). Loss draws are
/// deterministic in `(seed, edge, seq, attempt)`, making scheme
/// comparisons paired rather than noisy.
///
/// The packet spreads through the graph once however many receivers it
/// has, exactly as one overlay send covers a whole group; the outcome
/// counts it delivered once *every* receiver has it (`delivered_at` is
/// the last receiver's first arrival).
///
/// This convenience wrapper builds fresh scratch state per call; bulk
/// replays should hold a [`SimScratch`] and call
/// [`simulate_packet_with`].
#[allow(clippy::too_many_arguments)] // a flat hot-path signature beats a builder here
pub fn simulate_packet(
    topology: &Graph,
    dgraph: &DisseminationGraph,
    traces: &TraceSet,
    send_time: Micros,
    deadline: Micros,
    recovery: &RecoveryModel,
    seed: u64,
    seq: u64,
) -> PacketOutcome {
    let mut scratch = SimScratch::new();
    scratch.index_graph(topology, dgraph);
    simulate_packet_with(
        &mut scratch,
        topology,
        dgraph,
        traces,
        send_time,
        deadline,
        recovery,
        seed,
        seq,
    )
}

/// [`simulate_packet`] against caller-held [`SimScratch`] — the
/// allocation-free bulk-replay path. The scratch must have been indexed
/// for `dgraph` via [`SimScratch::index_graph`].
#[allow(clippy::too_many_arguments)] // a flat hot-path signature beats a builder here
pub fn simulate_packet_with(
    scratch: &mut SimScratch,
    topology: &Graph,
    dgraph: &DisseminationGraph,
    traces: &TraceSet,
    send_time: Micros,
    deadline: Micros,
    recovery: &RecoveryModel,
    seed: u64,
    seq: u64,
) -> PacketOutcome {
    let expiry = send_time.saturating_add(deadline);
    let transmissions = propagate(
        scratch,
        topology,
        dgraph.source(),
        traces,
        send_time,
        expiry,
        recovery,
        seed,
        seq,
    );
    outcome(scratch, dgraph, expiry, transmissions)
}

/// Reads the outcome of the packet last propagated over `dgraph` out of
/// the scratch's arrival table.
pub(crate) fn outcome(
    scratch: &SimScratch,
    dgraph: &DisseminationGraph,
    expiry: Micros,
    transmissions: u64,
) -> PacketOutcome {
    let delivered_at = dgraph
        .receivers()
        .iter()
        .try_fold(Micros::ZERO, |latest, &r| Some(latest.max(scratch.arrived(r)?)));
    PacketOutcome {
        delivered_at,
        on_time: delivered_at.is_some_and(|t| t <= expiry),
        transmissions,
    }
}

/// Spreads one packet from `source` over the indexed graph. First
/// arrival times at every node it reaches are left in the scratch's
/// arrival table for the caller to read; returns the packet's link
/// transmissions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn propagate(
    scratch: &mut SimScratch,
    topology: &Graph,
    source: NodeId,
    traces: &TraceSet,
    send_time: Micros,
    expiry: Micros,
    recovery: &RecoveryModel,
    seed: u64,
    seq: u64,
) -> u64 {
    let mut transmissions = 0u64;
    scratch.begin(topology.node_count());
    scratch.heap.push(Reverse((send_time, source)));

    while let Some(Reverse((t, u))) = scratch.heap.pop() {
        if scratch.arrived(u).is_some() {
            continue;
        }
        scratch.mark(u, t);
        if t > expiry {
            // Expired packets are not forwarded further.
            continue;
        }
        for i in 0..scratch.out[u.index()].len() {
            let e = scratch.out[u.index()][i];
            let cond = traces.condition_at(e, t);
            let latency = topology.edge(e).latency.saturating_add(cond.extra_latency);
            transmissions += 1;
            if unit_sample(seed, e.index() as u32, seq, 0) >= cond.loss_rate {
                scratch.heap.push(Reverse((t.saturating_add(latency), topology.edge(e).dst)));
            } else if recovery.enabled {
                // Lost: receiver detects the gap one inter-packet spacing
                // after the packet would have arrived, NACKs back, and the
                // source of the link retransmits once.
                transmissions += 1;
                if unit_sample(seed, e.index() as u32, seq, 1) >= cond.loss_rate {
                    let recovered = t
                        .saturating_add(recovery.gap_detection)
                        .saturating_add(latency.saturating_mul(3));
                    scratch.heap.push(Reverse((recovered, topology.edge(e).dst)));
                }
            }
        }
    }
    transmissions
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_core::Flow;
    use dg_topology::algo::{dijkstra, disjoint};
    use dg_topology::{presets, EdgeId};
    use dg_trace::{LinkCondition, TraceSet};

    fn setup() -> (Graph, DisseminationGraph, TraceSet, Flow) {
        let g = presets::north_america_12();
        let flow = Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap());
        let p = dijkstra::shortest_path(&g, flow.source, flow.destination).unwrap();
        let dg = DisseminationGraph::from_path(&g, &p);
        let traces = TraceSet::clean(g.edge_count(), 10, Micros::from_secs(10)).unwrap();
        (g, dg, traces, flow)
    }

    use dg_topology::Graph;

    const DEADLINE: Micros = Micros::from_millis(65);

    #[test]
    fn clean_network_delivers_at_path_latency() {
        let (g, dg, traces, _) = setup();
        let out = simulate_packet(
            &g,
            &dg,
            &traces,
            Micros::ZERO,
            DEADLINE,
            &RecoveryModel::default(),
            1,
            0,
        );
        assert!(out.on_time);
        assert_eq!(out.delivered_at, Some(dg.best_latency(&g)));
        assert_eq!(out.transmissions, dg.len() as u64);
    }

    #[test]
    fn dead_path_without_recovery_loses_packet() {
        let (g, dg, mut traces, _) = setup();
        let victim = dg.edges()[0];
        for i in 0..traces.interval_count() {
            traces.set_condition(victim, i, LinkCondition::down());
        }
        let out = simulate_packet(
            &g,
            &dg,
            &traces,
            Micros::ZERO,
            DEADLINE,
            &RecoveryModel { enabled: false, gap_detection: Micros::ZERO },
            1,
            0,
        );
        assert!(!out.on_time);
        assert_eq!(out.delivered_at, None);
    }

    #[test]
    fn recovery_saves_single_losses_on_time() {
        let (g, dg, mut traces, _) = setup();
        // Moderate loss on one edge: find a seq where the first attempt
        // fails but the retransmission succeeds.
        let victim = dg.edges()[0];
        for i in 0..traces.interval_count() {
            traces.set_condition(victim, i, LinkCondition::new(0.5, Micros::ZERO));
        }
        let recovery = RecoveryModel { enabled: true, gap_detection: Micros::from_millis(2) };
        let mut saw_recovered_on_time = false;
        for seq in 0..200 {
            let first = crate::rng::unit_sample(1, victim.index() as u32, seq, 0) < 0.5;
            let second = crate::rng::unit_sample(1, victim.index() as u32, seq, 1) < 0.5;
            let out = simulate_packet(&g, &dg, &traces, Micros::ZERO, DEADLINE, &recovery, 1, seq);
            if first && !second {
                assert!(out.on_time, "recovered packet should still meet 65ms");
                // Recovery replaces the hop's 1x latency with gap + 3x,
                // i.e. a penalty of gap + 2x over the clean path.
                let base = dg.best_latency(&g);
                let penalty =
                    Micros::from_millis(2).saturating_add(g.edge(victim).latency.saturating_mul(2));
                assert_eq!(out.delivered_at, Some(base + penalty));
                assert_eq!(out.transmissions, dg.len() as u64 + 1);
                saw_recovered_on_time = true;
            } else if first && second {
                assert_eq!(out.delivered_at, None, "double loss is abandoned");
            }
        }
        assert!(saw_recovered_on_time, "expected at least one recovered packet");
    }

    #[test]
    fn disjoint_pair_survives_one_dead_path() {
        let (g, _, mut traces, flow) = setup();
        let (p1, p2) = disjoint::disjoint_pair(
            &g,
            flow.source,
            flow.destination,
            disjoint::Disjointness::Node,
        )
        .unwrap();
        let dg = DisseminationGraph::from_paths(&g, &[p1.clone(), p2]).unwrap();
        for &e in p1.edges() {
            for i in 0..traces.interval_count() {
                traces.set_condition(e, i, LinkCondition::down());
            }
        }
        let out = simulate_packet(
            &g,
            &dg,
            &traces,
            Micros::ZERO,
            DEADLINE,
            &RecoveryModel::default(),
            7,
            3,
        );
        assert!(out.on_time, "second disjoint path should deliver");
    }

    #[test]
    fn one_propagation_serves_every_receiver() {
        let (g, _, mut traces, flow) = setup();
        let lax = g.node_by_name("LAX").unwrap();
        let paths = [flow.destination, lax].map(|r| dijkstra::shortest_path(&g, flow.source, r));
        let [to_sjc, to_lax] = paths.map(Result::unwrap);
        let edges = [to_sjc.edges(), to_lax.edges()].concat();
        let dg =
            DisseminationGraph::with_receivers(&g, flow.source, vec![flow.destination, lax], edges)
                .unwrap();
        let mut scratch = SimScratch::new();
        scratch.index_graph(&g, &dg);
        let rec = RecoveryModel { enabled: false, gap_detection: Micros::ZERO };
        let send = |scratch: &mut SimScratch, traces: &TraceSet| {
            simulate_packet_with(scratch, &g, &dg, traces, Micros::ZERO, DEADLINE, &rec, 1, 0)
        };
        // Clean: shared edges transmit once, each receiver is reached at
        // its own path latency, and the packet counts as delivered when
        // the slower of them has it.
        let out = send(&mut scratch, &traces);
        assert_eq!(out.transmissions, dg.len() as u64);
        assert_eq!(scratch.arrived(flow.destination), Some(to_sjc.latency(&g)));
        assert_eq!(scratch.arrived(lax), Some(to_lax.latency(&g)));
        assert_eq!(out.delivered_at, Some(to_sjc.latency(&g).max(to_lax.latency(&g))));
        assert!(out.on_time);
        // Cut LAX's last hop: SJC still gets it, the group as a whole
        // does not.
        let last = *to_lax.edges().last().unwrap();
        assert!(!to_sjc.edges().contains(&last));
        for i in 0..traces.interval_count() {
            traces.set_condition(last, i, LinkCondition::down());
        }
        let out = send(&mut scratch, &traces);
        assert_eq!(scratch.arrived(flow.destination), Some(to_sjc.latency(&g)));
        assert_eq!(scratch.arrived(lax), None);
        assert_eq!((out.delivered_at, out.on_time), (None, false));
    }

    #[test]
    fn expired_packets_stop_spreading() {
        let (g, dg, mut traces, _) = setup();
        // Huge extra latency on every edge: packet arrives late at the
        // first hop and is not forwarded.
        for e in g.edges() {
            for i in 0..traces.interval_count() {
                traces.set_condition(e, i, LinkCondition::new(0.0, Micros::from_millis(100)));
            }
        }
        let out = simulate_packet(
            &g,
            &dg,
            &traces,
            Micros::ZERO,
            DEADLINE,
            &RecoveryModel::default(),
            1,
            0,
        );
        assert_eq!(out.delivered_at, None);
        assert!(!out.on_time);
        // Only the source's own transmissions happened.
        assert_eq!(out.transmissions, 1);
    }

    #[test]
    fn conditions_are_read_at_send_time() {
        let (g, dg, mut traces, _) = setup();
        let victim = dg.edges()[0];
        // Interval 1 (10s..20s) is dead, the rest clean; no recovery so
        // the loss is decisive.
        traces.set_condition(victim, 1, LinkCondition::down());
        let no_rec = RecoveryModel { enabled: false, gap_detection: Micros::ZERO };
        let ok = simulate_packet(&g, &dg, &traces, Micros::from_secs(5), DEADLINE, &no_rec, 1, 0);
        assert!(ok.on_time);
        let bad = simulate_packet(&g, &dg, &traces, Micros::from_secs(15), DEADLINE, &no_rec, 1, 0);
        assert!(!bad.on_time);
    }

    #[test]
    fn same_seed_is_reproducible_and_seeds_differ() {
        let (g, dg, mut traces, _) = setup();
        for e in g.edges() {
            for i in 0..traces.interval_count() {
                traces.set_condition(e, i, LinkCondition::new(0.3, Micros::ZERO));
            }
        }
        let rec = RecoveryModel::default();
        let a = simulate_packet(&g, &dg, &traces, Micros::ZERO, DEADLINE, &rec, 5, 9);
        let b = simulate_packet(&g, &dg, &traces, Micros::ZERO, DEADLINE, &rec, 5, 9);
        assert_eq!(a, b);
        let outcomes: std::collections::HashSet<bool> = (0..50)
            .map(|seq| {
                simulate_packet(&g, &dg, &traces, Micros::ZERO, DEADLINE, &rec, 5, seq).on_time
            })
            .collect();
        assert_eq!(outcomes.len(), 2, "30% loss should produce both outcomes");
    }

    #[test]
    fn flooding_costs_every_reachable_edge() {
        let (g, _, traces, flow) = setup();
        let edges = dg_topology::algo::reach::time_constrained_edges(
            &g,
            flow.source,
            flow.destination,
            DEADLINE,
        )
        .unwrap();
        let dg = DisseminationGraph::new(&g, flow.source, flow.destination, edges).unwrap();
        let out = simulate_packet(
            &g,
            &dg,
            &traces,
            Micros::ZERO,
            DEADLINE,
            &RecoveryModel::default(),
            1,
            0,
        );
        assert!(out.on_time);
        // On a clean network every member edge whose tail is reached
        // before expiry transmits once. All tails are reachable within
        // the deadline by construction, so cost == graph size.
        assert_eq!(out.transmissions, dg.len() as u64);
        let _ = EdgeId::new(0);
    }
}
