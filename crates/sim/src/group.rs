//! Grouped many-flow playback over several-receiver dissemination
//! graphs.
//!
//! The paper's flows are strictly unicast, but the north-star workload
//! — thousands of concurrent flows per node — shares sources heavily
//! (one feed, many subscribers). This module replays that shape the
//! way the overlay sends it: flows sharing a source collapse into one
//! **group job** routed by a single interned [`DisseminationGraph`],
//! and each packet propagates through the shared graph **once**, with
//! every receiver's outcome read from that one propagation.
//!
//! Groups run on the same playback loop and worker pool as unicast
//! flows; what differs is that the graph is fixed for the run and that
//! the loop accumulates per-receiver counters. Loss draws are a pure
//! function of `(seed, edge, seq, attempt)`, worker counts cannot
//! change results, and a one-receiver group sees exactly the draws of
//! the unicast flow with the same endpoints.

use crate::metrics::fraction;
use crate::packet::{SimScratch, Spread};
use crate::parallel::fan_out;
use crate::playback::{play, PlaybackConfig, Tally};
use dg_core::{CoreError, DisseminationGraph, Flow, GraphCache, MulticastKind, ServiceRequirement};
use dg_topology::{Graph, Micros, NodeId};
use dg_trace::TraceSet;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One unit of grouped playback work: all flows from `source` to
/// `receivers`, routed by one `kind` multicast graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupJob {
    /// The shared sending site.
    pub source: NodeId,
    /// The receiver set (canonicalized by the graph construction).
    pub receivers: Vec<NodeId>,
    /// Which multicast graph to route the group over.
    pub kind: MulticastKind,
    /// The timeliness contract the graph is built against.
    pub requirement: ServiceRequirement,
}

/// Per-receiver outcome counters of a group run — the group analogue
/// of one unicast flow's delivery accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReceiverRunStats {
    /// The receiving site.
    pub receiver: NodeId,
    /// Application packets addressed to this receiver.
    pub packets_sent: u64,
    /// Packets delivered within the deadline.
    pub packets_on_time: u64,
    /// Packets delivered at all.
    pub packets_delivered: u64,
    /// Packets never delivered.
    pub packets_lost: u64,
}

impl ReceiverRunStats {
    /// Fraction of this receiver's packets delivered on time; `0.0`
    /// when none were sent, as for
    /// [`FlowRunStats::on_time_fraction`](crate::FlowRunStats::on_time_fraction).
    pub fn on_time_fraction(&self) -> f64 {
        fraction(self.packets_on_time, self.packets_sent)
    }
}

/// Everything one group replay produces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupRunStats {
    /// The shared sending site.
    pub source: NodeId,
    /// Trace seconds replayed.
    pub seconds: u64,
    /// Total link transmissions of the group — **shared** across the
    /// whole receiver set: one send covers every receiver, which is
    /// the cost the unicast baseline pays per flow.
    pub transmissions: u64,
    /// Per-receiver delivery counters, in the graph's canonical
    /// receiver order.
    pub receivers: Vec<ReceiverRunStats>,
}

/// The per-receiver accumulator of the playback loop.
impl Tally for GroupRunStats {
    fn packets(&mut self, spread: Spread<'_>, _: &DisseminationGraph, deadline: Micros, n: u64) {
        self.transmissions += spread.transmissions * n;
        for cell in &mut self.receivers {
            cell.packets_sent += n;
            match spread.reached_after(cell.receiver) {
                Some(after) => {
                    cell.packets_delivered += n;
                    if after <= deadline {
                        cell.packets_on_time += n;
                    }
                }
                None => cell.packets_lost += n,
            }
        }
    }
}

/// Collapses a list of unicast flows into `(source, receivers)` group
/// specs, preserving first-seen source order (self-flows and duplicate
/// receivers are dropped by the graph's canonicalization later).
pub fn group_flows(flows: &[Flow]) -> Vec<(NodeId, Vec<NodeId>)> {
    let mut groups: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    let mut index = std::collections::HashMap::new();
    for f in flows {
        let i = *index.entry(f.source).or_insert_with(|| {
            groups.push((f.source, Vec::new()));
            groups.len() - 1
        });
        groups[i].1.push(f.destination);
    }
    groups
}

/// Replays `traces` over one fixed graph: each of the `seconds × pps`
/// packets propagates once and every receiver's counters are read from
/// that propagation.
fn replay_graph(
    topology: &Graph,
    traces: &TraceSet,
    graph: &DisseminationGraph,
    config: &PlaybackConfig,
    scratch: &mut SimScratch,
) -> GroupRunStats {
    let mut stats = GroupRunStats {
        source: graph.source(),
        seconds: traces.duration().as_secs(),
        transmissions: 0,
        receivers: graph
            .receivers()
            .iter()
            .map(|&receiver| ReceiverRunStats {
                receiver,
                packets_sent: 0,
                packets_on_time: 0,
                packets_delivered: 0,
                packets_lost: 0,
            })
            .collect(),
    };
    let mut route = graph;
    play(topology, traces, &mut route, config, scratch, &mut stats);
    stats
}

/// Replays every group job against `traces`, fanned out over `threads`
/// workers (zero = one per CPU core), returning one [`GroupRunStats`]
/// per job **in input order**. Graphs are built serially through the
/// shared `cache`, so jobs with the same `(source, receiver set, kind,
/// deadline)` intern one computation, and each stays fixed for its run
/// (the cached graph a sender holds between reroutes). Worker counts
/// cannot change results.
///
/// # Errors
///
/// Propagates multicast-graph construction failures (an unreachable
/// receiver, an empty receiver set), in job order.
pub fn run_groups(
    topology: &Graph,
    traces: &TraceSet,
    cache: &GraphCache,
    jobs: &[GroupJob],
    config: &PlaybackConfig,
    threads: usize,
) -> Result<Vec<GroupRunStats>, CoreError> {
    let mut graphs: Vec<Arc<DisseminationGraph>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        graphs.push(cache.multicast(job.source, &job.receivers, job.kind, job.requirement)?);
    }
    Ok(fan_out(graphs.len(), threads, |i, scratch| {
        replay_graph(topology, traces, &graphs[i], config, scratch)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_core::scheme::{SchemeParams, StaticTwoDisjoint};
    use dg_topology::presets;
    use dg_trace::gen::{self, SyntheticWanConfig};

    fn noisy_traces(g: &Graph) -> TraceSet {
        let mut cfg = SyntheticWanConfig::calibrated(3);
        cfg.duration = Micros::from_secs(10);
        cfg.link_problems.events_per_hour = 40.0;
        gen::generate(g, &cfg)
    }

    fn quick_config() -> PlaybackConfig {
        PlaybackConfig { packets_per_second: 10, seed: 11, ..PlaybackConfig::default() }
    }

    #[test]
    fn grouping_preserves_source_order() {
        let n = NodeId::new;
        let flows = [
            Flow::new(n(2), n(5)),
            Flow::new(n(0), n(1)),
            Flow::new(n(2), n(7)),
            Flow::new(n(0), n(3)),
        ];
        let groups = group_flows(&flows);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (n(2), vec![n(5), n(7)]));
        assert_eq!(groups[1], (n(0), vec![n(1), n(3)]));
    }

    #[test]
    fn single_receiver_group_matches_the_unicast_flow_replay() {
        // The same graph replayed as a fixed one-receiver group and as
        // a static scheme's unicast flow: the loop's two graph sources
        // and two accumulators must agree on every shared counter.
        let g = presets::north_america_12();
        let mut cfg = SyntheticWanConfig::calibrated(3);
        cfg.duration = Micros::from_secs(60);
        cfg.node_problems.events_per_hour = 60.0;
        cfg.link_problems.events_per_hour = 60.0;
        let traces = gen::generate(&g, &cfg);
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let flow = Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap());
        let config = quick_config();
        let graph = cache
            .multicast(flow.source, &[flow.destination], MulticastKind::Tree, Default::default())
            .unwrap();
        let group = replay_graph(&g, &traces, &graph, &config, &mut SimScratch::new());
        let mut scheme = StaticTwoDisjoint::from_graph(flow, (*graph).clone());
        let uni = crate::run_flow(&g, &traces, &mut scheme, &config);
        assert!(uni.packets_lost > 0, "the trace must exercise loss");
        assert_eq!(group.transmissions, uni.transmissions);
        assert_eq!(
            group.receivers,
            vec![ReceiverRunStats {
                receiver: flow.destination,
                packets_sent: uni.packets_sent,
                packets_on_time: uni.packets_on_time,
                packets_delivered: uni.packets_delivered,
                packets_lost: uni.packets_lost,
            }]
        );
        assert_eq!(group.receivers[0].on_time_fraction(), uni.on_time_fraction());
    }

    #[test]
    fn one_group_send_costs_less_than_per_receiver_unicast() {
        let g = presets::north_america_12();
        let traces = noisy_traces(&g);
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let src = g.node_by_name("NYC").unwrap();
        let receivers: Vec<NodeId> = ["SJC", "LAX", "SEA", "DEN", "MIA"]
            .iter()
            .map(|n| g.node_by_name(n).unwrap())
            .collect();
        let config = quick_config();
        let job = |receivers: Vec<NodeId>| GroupJob {
            source: src,
            receivers,
            kind: MulticastKind::Tree,
            requirement: ServiceRequirement::default(),
        };
        let group =
            &run_groups(&g, &traces, &cache, &[job(receivers.clone())], &config, 1).unwrap()[0];
        let singles: Vec<GroupJob> = receivers.iter().map(|&r| job(vec![r])).collect();
        let unicast_total: u64 = run_groups(&g, &traces, &cache, &singles, &config, 1)
            .unwrap()
            .iter()
            .map(|run| run.transmissions)
            .sum();
        assert!(
            group.transmissions < unicast_total,
            "shared tree ({}) must beat per-receiver unicast ({unicast_total})",
            group.transmissions
        );
        assert_eq!(group.receivers.len(), receivers.len());
        for r in &group.receivers {
            assert!(r.packets_sent > 0);
        }
    }

    #[test]
    fn worker_counts_cannot_change_group_results() {
        let g = presets::north_america_12();
        let traces = noisy_traces(&g);
        let names: [(&str, &[&str]); 3] = [
            ("NYC", &["SJC", "LAX", "MIA"]),
            ("SEA", &["WAS", "ATL"]),
            ("DEN", &["NYC", "SJC", "SEA", "CHI"]),
        ];
        let jobs: Vec<GroupJob> = names
            .into_iter()
            .map(|(s, rs)| GroupJob {
                source: g.node_by_name(s).unwrap(),
                receivers: rs.iter().map(|r| g.node_by_name(r).unwrap()).collect(),
                kind: MulticastKind::Targeted,
                requirement: ServiceRequirement::default(),
            })
            .collect();
        let config = quick_config();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let serial = run_groups(&g, &traces, &cache, &jobs, &config, 1).unwrap();
        for threads in [2, 4] {
            let parallel = run_groups(&g, &traces, &cache, &jobs, &config, threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn repeated_jobs_intern_one_graph() {
        let g = presets::north_america_12();
        let traces = TraceSet::clean(g.edge_count(), 1, Micros::from_secs(2)).unwrap();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let job = GroupJob {
            source: g.node_by_name("NYC").unwrap(),
            receivers: vec![g.node_by_name("SJC").unwrap(), g.node_by_name("LAX").unwrap()],
            kind: MulticastKind::Targeted,
            requirement: ServiceRequirement::default(),
        };
        let jobs = vec![job.clone(), job.clone(), job];
        run_groups(&g, &traces, &cache, &jobs, &quick_config(), 1).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.multicast.misses, 1, "one construction");
        assert_eq!(stats.multicast.hits, 2, "two interned hits");
    }
}
