//! The canonical process-level chaos scenario: kill / restart /
//! partition-then-heal.
//!
//! [`kill_heal_schedule`] generates the storm the acceptance soak
//! replays: a relay node is hard-killed and later restarted on the same
//! port, while a *different* relay is partitioned from the overlay
//! (every incident link blackholed — the paper's "problem around a
//! node" taken to totality) and healed again. Flow endpoints are
//! protected: a *source* restarted inside its flow's first
//! duplicate-suppression window (16 384 sequences — every flow of a
//! soak this short) would replay sequence numbers its destination
//! already suppressed; only past a whole window does a replay read as
//! a new life. So kills target relays — exactly the nodes whose death
//! forces the routing to react.
//!
//! Schedules are relative to "chaos starts" at t=0; the deployment
//! harness shifts them past its convergence warm-up
//! ([`dg_overlay::chaos::ChaosSchedule::shifted`]) and shards them into
//! per-node slices.

use dg_overlay::chaos::{ChaosAction, ChaosEvent, ChaosSchedule};
use dg_overlay::fault::LinkFault;
use dg_topology::{Graph, NodeId};

/// SplitMix64, kept local so schedule generation is seed-stable
/// independent of overlay internals.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shape of a [`kill_heal_schedule`] storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillHealProfile {
    /// Span of the active window; every restart and heal lands inside
    /// it, so the deployment can size its recovery margin off
    /// [`ChaosSchedule::end_ms`].
    pub window_ms: u64,
    /// How long the killed relay stays dead before its restart.
    pub kill_dwell_ms: u64,
    /// How long the partitioned relay stays isolated before its heal.
    pub partition_dwell_ms: u64,
}

impl Default for KillHealProfile {
    fn default() -> Self {
        KillHealProfile { window_ms: 3_000, kill_dwell_ms: 1_400, partition_dwell_ms: 1_200 }
    }
}

/// Generates the kill + restart + partition-then-heal storm for
/// `graph`, deterministically from `seed`. Nodes in `protected`
/// (flow endpoints) are neither killed nor partitioned; when fewer
/// than two relays remain, the kill and the partition collapse onto
/// the same victim rather than touching an endpoint.
pub fn kill_heal_schedule(
    graph: &Graph,
    protected: &[NodeId],
    seed: u64,
    profile: &KillHealProfile,
) -> ChaosSchedule {
    let relays: Vec<NodeId> = graph.nodes().filter(|n| !protected.contains(n)).collect();
    let mut rng = seed ^ 0x1CDC_5201_7BAB_A117;
    let mut events = Vec::new();
    if relays.is_empty() {
        return ChaosSchedule { seed, events };
    }
    let kill_victim = relays[(splitmix64(&mut rng) % relays.len() as u64) as usize];
    let partition_victim = if relays.len() > 1 {
        // Draw until the partition lands on a different relay: both
        // faults active at once is the storm's point.
        loop {
            let candidate = relays[(splitmix64(&mut rng) % relays.len() as u64) as usize];
            if candidate != kill_victim {
                break candidate;
            }
        }
    } else {
        kill_victim
    };

    // The kill fires early in the window; the restart must leave the
    // daemon time to re-join, so its dwell is clamped to the window.
    let latest_kill = profile.window_ms.saturating_sub(profile.kill_dwell_ms).max(1);
    let kill_at = splitmix64(&mut rng) % (latest_kill / 2).max(1);
    let restart_at = (kill_at + profile.kill_dwell_ms).min(profile.window_ms);
    events
        .push(ChaosEvent { at_ms: kill_at, action: ChaosAction::CrashNode { node: kill_victim } });
    events.push(ChaosEvent {
        at_ms: restart_at,
        action: ChaosAction::RestartNode { node: kill_victim },
    });

    // The partition: every link incident to the victim goes black in
    // both directions (the harness shards this into each neighbour's
    // slice), then heals inside the window.
    let latest_cut = profile.window_ms.saturating_sub(profile.partition_dwell_ms).max(1);
    let cut_at = splitmix64(&mut rng) % latest_cut;
    let heal_at = (cut_at + profile.partition_dwell_ms).min(profile.window_ms);
    let blackhole = LinkFault { blackhole: true, ..LinkFault::default() };
    events.push(ChaosEvent {
        at_ms: cut_at,
        action: ChaosAction::ImpairNode { node: partition_victim, fault: blackhole },
    });
    events.push(ChaosEvent {
        at_ms: heal_at,
        action: ChaosAction::HealNode { node: partition_victim },
    });

    events.sort_by_key(|e| e.at_ms);
    ChaosSchedule { seed, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::presets;

    fn endpoints(graph: &Graph) -> Vec<NodeId> {
        presets::transcontinental_flows(graph).iter().flat_map(|&(s, t)| [s, t]).collect()
    }

    #[test]
    fn storms_are_deterministic_and_protect_endpoints() {
        let graph = presets::north_america_12();
        let protected = endpoints(&graph);
        let profile = KillHealProfile::default();
        let a = kill_heal_schedule(&graph, &protected, 42, &profile);
        let b = kill_heal_schedule(&graph, &protected, 42, &profile);
        assert_eq!(a, b, "same seed, same storm");
        assert_ne!(
            a,
            kill_heal_schedule(&graph, &protected, 7, &profile),
            "different seeds differ"
        );

        for event in &a.events {
            let victim = match event.action {
                ChaosAction::CrashNode { node }
                | ChaosAction::RestartNode { node }
                | ChaosAction::ImpairNode { node, .. }
                | ChaosAction::HealNode { node } => node,
                ref other => panic!("unexpected action in kill-heal storm: {other:?}"),
            };
            assert!(!protected.contains(&victim), "storm touched a flow endpoint");
            assert!(event.at_ms <= profile.window_ms, "event past the active window");
        }
    }

    #[test]
    fn every_fault_is_undone_and_victims_differ() {
        let graph = presets::north_america_12();
        let protected = endpoints(&graph);
        for seed in [42, 7, 1337] {
            let schedule =
                kill_heal_schedule(&graph, &protected, seed, &KillHealProfile::default());
            let mut killed = None;
            let mut partitioned = None;
            let mut restarted = false;
            let mut healed = false;
            for event in &schedule.events {
                match event.action {
                    ChaosAction::CrashNode { node } => killed = Some(node),
                    ChaosAction::RestartNode { node } => {
                        assert_eq!(killed, Some(node), "restart matches the kill");
                        restarted = true;
                    }
                    ChaosAction::ImpairNode { node, fault } => {
                        assert!(fault.blackhole, "partition is a blackhole");
                        partitioned = Some(node);
                    }
                    ChaosAction::HealNode { node } => {
                        assert_eq!(partitioned, Some(node), "heal matches the cut");
                        healed = true;
                    }
                    ref other => panic!("unexpected action: {other:?}"),
                }
            }
            assert!(restarted && healed, "seed {seed}: storm left a fault open");
            assert_ne!(killed, partitioned, "seed {seed}: kill and partition share a victim");
            assert!(schedule.end_ms() <= KillHealProfile::default().window_ms);
        }
    }
}
