//! The convergence verifier: did the deployment actually heal?
//!
//! A chaos soak that merely *finishes* proves nothing — the point of
//! the multi-process harness is the post-mortem. [`verify`] takes the
//! exit status and metrics snapshots collected from every surviving
//! daemon and holds the deployment to three promises:
//!
//! 1. **Database convergence.** Every surviving node's link-state
//!    digest — the per-origin `(epoch, seq)` fingerprint embedded in
//!    its snapshot — must be byte-identical across the deployment and
//!    must cover every origin in the topology. The daemons quiesce
//!    origination before their final snapshot, so a healthy overlay
//!    settles to one exact fingerprint; any daemon that missed a
//!    flooded report, or kept a dead epoch, stands out.
//! 2. **Post-heal delivery.** For every flow whose endpoints survived,
//!    the packets sent after the mid-run baseline (source counter
//!    delta) must have been delivered at the destination (delivery
//!    counter delta) at a ratio clearing the threshold — cumulative
//!    counters plus an atomic baseline snapshot give exact
//!    post-recovery figures without any cross-process clock agreement.
//! 3. **Clean exits.** Every daemon the schedule did not kill must have
//!    exited 0 at its run limit. A node is crash-only — a panic in its
//!    core stops the daemon with code 3 — so a non-zero status is a
//!    crash the schedule did not ask for.
//!
//! The verifier is a pure function over plain data, so every rule is
//! unit-testable with synthetic snapshots — and the harness binary
//! simply exits nonzero when [`Verdict::passed`] is false.

use dg_core::Flow;
use dg_overlay::MetricsSnapshot;
use dg_topology::{Graph, NodeId};
use serde::{Deserialize, Serialize};

/// One surviving daemon's collected evidence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeReport {
    /// The node's site name.
    pub name: String,
    /// The daemon's exit code, or `None` when a signal ended it (the
    /// harness's kill at teardown included) or its status was lost.
    pub exit_code: Option<i32>,
    /// The final snapshot, written at daemon shutdown.
    pub snapshot: MetricsSnapshot,
    /// The mid-run baseline snapshot, when the run took one.
    pub baseline: Option<MetricsSnapshot>,
}

/// Post-heal delivery accounting for one flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowDelivery {
    /// Source site name.
    pub source: String,
    /// Destination site name.
    pub destination: String,
    /// Packets the source injected after the baseline.
    pub sent: u64,
    /// Packets the destination delivered after the baseline.
    pub delivered: u64,
    /// `delivered / sent` (1.0 when nothing was sent — the separate
    /// no-traffic failure covers that case).
    pub ratio: f64,
}

/// The verifier's full judgement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Verdict {
    /// True when every rule held.
    pub passed: bool,
    /// Human-readable rule violations, empty on a pass.
    pub failures: Vec<String>,
    /// Origins covered by the (agreed) link-state digest.
    pub digest_origins: usize,
    /// Per-flow post-heal delivery, in flow order.
    pub flows: Vec<FlowDelivery>,
}

fn flow_metrics(
    snapshot: &MetricsSnapshot,
    flow: Flow,
) -> Option<&dg_overlay::metrics::FlowMetrics> {
    snapshot.flows.iter().find(|f| f.flow == flow)
}

fn sent_for(report: &NodeReport, flow: Flow) -> (u64, u64) {
    let total = flow_metrics(&report.snapshot, flow).map_or(0, |f| f.packets_sent);
    let base =
        report.baseline.as_ref().and_then(|s| flow_metrics(s, flow)).map_or(0, |f| f.packets_sent);
    (total, base)
}

fn delivered_for(report: &NodeReport, flow: Flow) -> (u64, u64) {
    let total = flow_metrics(&report.snapshot, flow).map_or(0, |f| f.packets_delivered());
    let base = report
        .baseline
        .as_ref()
        .and_then(|s| flow_metrics(s, flow))
        .map_or(0, |f| f.packets_delivered());
    (total, base)
}

/// Judges a deployment from its survivors' snapshots. `flows` names
/// the traffic-bearing flows by endpoint node id; flows whose source
/// or destination has no surviving report are skipped (they had no
/// surviving counters to judge).
pub fn verify(
    graph: &Graph,
    flows: &[(NodeId, NodeId)],
    threshold: f64,
    reports: &[NodeReport],
) -> Verdict {
    let mut failures = Vec::new();
    if reports.is_empty() {
        return Verdict {
            passed: false,
            failures: vec!["no surviving node reported metrics".to_string()],
            digest_origins: 0,
            flows: Vec::new(),
        };
    }

    // Rule 1: identical link-state digests covering every origin.
    let reference = &reports[0];
    for report in &reports[1..] {
        if report.snapshot.link_state != reference.snapshot.link_state {
            failures.push(format!(
                "link-state digests diverge: {} holds {:?}, {} holds {:?}",
                reference.name,
                reference.snapshot.link_state,
                report.name,
                report.snapshot.link_state
            ));
        }
    }
    let digest_origins = reference.snapshot.link_state.len();
    if digest_origins != graph.node_count() {
        failures.push(format!(
            "digest covers {digest_origins} of {} origins — some node's reports never arrived",
            graph.node_count()
        ));
    }

    // Rule 3 (cheap, so checked before the flow arithmetic): every
    // survivor exited 0 at its run limit.
    for report in reports.iter().filter(|r| r.exit_code != Some(0)) {
        let status = report.exit_code.map_or("a signal".into(), |code| format!("code {code}"));
        failures.push(format!("{} exited with {status}, not 0 at its run limit", report.name));
    }

    // Rule 2: post-heal delivery per surviving flow.
    let by_id = |id: NodeId| reports.iter().find(|r| graph.node_by_name(&r.name) == Some(id));
    let mut deliveries = Vec::new();
    for &(source, destination) in flows {
        let (Some(src_report), Some(dst_report)) = (by_id(source), by_id(destination)) else {
            continue;
        };
        let flow = Flow::new(source, destination);
        let (sent_total, sent_base) = sent_for(src_report, flow);
        let (delivered_total, delivered_base) = delivered_for(dst_report, flow);
        let sent = sent_total.saturating_sub(sent_base);
        let delivered = delivered_total.saturating_sub(delivered_base);
        let ratio = if sent == 0 { 1.0 } else { delivered as f64 / sent as f64 };
        let label = format!("{} -> {}", src_report.name, dst_report.name);
        if sent == 0 {
            failures.push(format!(
                "{label}: no post-heal traffic was sent — the driver or baseline timing is broken"
            ));
        } else if ratio < threshold {
            failures.push(format!(
                "{label}: post-heal delivery {delivered}/{sent} = {ratio:.4} below {threshold}"
            ));
        }
        deliveries.push(FlowDelivery {
            source: src_report.name.clone(),
            destination: dst_report.name.clone(),
            sent,
            delivered,
            ratio,
        });
    }

    Verdict { passed: failures.is_empty(), failures, digest_origins, flows: deliveries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_overlay::metrics::FlowMetrics;
    use dg_overlay::wire::DigestEntry;
    use dg_overlay::NodeCounters;
    use dg_topology::presets;

    fn digest(graph: &Graph) -> Vec<DigestEntry> {
        graph.nodes().map(|origin| DigestEntry { origin, epoch: 7, seq: 42 }).collect()
    }

    fn snapshot(graph: &Graph, name: &str, link_state: Vec<DigestEntry>) -> MetricsSnapshot {
        MetricsSnapshot {
            node: graph.node_by_name(name).unwrap(),
            counters: NodeCounters::default(),
            flows: Vec::new(),
            links: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
            link_state,
            graph_cache: Default::default(),
        }
    }

    fn flow_cell(flow: Flow, sent: u64, on_time: u64, late: u64) -> FlowMetrics {
        FlowMetrics {
            flow,
            packets_sent: sent,
            packets_on_time: on_time,
            packets_late: late,
            transmissions: 0,
            graph_changes: 0,
        }
    }

    /// A healthy two-endpoint deployment: NYC sent 100 then 300 total,
    /// SJC delivered 100 then 299 total — 199/200 post-heal.
    fn healthy(graph: &Graph) -> (Vec<(NodeId, NodeId)>, Vec<NodeReport>) {
        let nyc = graph.node_by_name("NYC").unwrap();
        let sjc = graph.node_by_name("SJC").unwrap();
        let flow = Flow::new(nyc, sjc);
        let mut src_final = snapshot(graph, "NYC", digest(graph));
        src_final.flows.push(flow_cell(flow, 300, 0, 0));
        let mut src_base = snapshot(graph, "NYC", Vec::new());
        src_base.flows.push(flow_cell(flow, 100, 0, 0));
        let mut dst_final = snapshot(graph, "SJC", digest(graph));
        dst_final.flows.push(flow_cell(flow, 0, 290, 9));
        let mut dst_base = snapshot(graph, "SJC", Vec::new());
        dst_base.flows.push(flow_cell(flow, 0, 99, 1));
        let report = |name: &str, snapshot, baseline| NodeReport {
            name: name.into(),
            exit_code: Some(0),
            snapshot,
            baseline: Some(baseline),
        };
        let reports = vec![report("NYC", src_final, src_base), report("SJC", dst_final, dst_base)];
        (vec![(nyc, sjc)], reports)
    }

    #[test]
    fn a_healthy_deployment_passes() {
        let graph = presets::north_america_12();
        let (flows, reports) = healthy(&graph);
        let verdict = verify(&graph, &flows, 0.99, &reports);
        assert!(verdict.passed, "failures: {:?}", verdict.failures);
        assert_eq!(verdict.digest_origins, 12);
        assert_eq!(verdict.flows.len(), 1);
        assert_eq!(verdict.flows[0].sent, 200);
        assert_eq!(verdict.flows[0].delivered, 199);
        assert!(verdict.flows[0].ratio >= 0.99);
    }

    #[test]
    fn divergent_digests_fail() {
        let graph = presets::north_america_12();
        let (flows, mut reports) = healthy(&graph);
        reports[1].snapshot.link_state[3].seq += 1;
        let verdict = verify(&graph, &flows, 0.99, &reports);
        assert!(!verdict.passed);
        assert!(verdict.failures.iter().any(|f| f.contains("diverge")), "{:?}", verdict.failures);
    }

    #[test]
    fn missing_origins_fail() {
        let graph = presets::north_america_12();
        let (flows, mut reports) = healthy(&graph);
        for report in &mut reports {
            report.snapshot.link_state.pop();
        }
        let verdict = verify(&graph, &flows, 0.99, &reports);
        assert!(!verdict.passed);
        assert!(verdict.failures.iter().any(|f| f.contains("11 of 12")), "{:?}", verdict.failures);
    }

    #[test]
    fn low_delivery_and_silence_fail() {
        let graph = presets::north_america_12();
        let (flows, mut reports) = healthy(&graph);
        // Destination only delivered 150 of the 200 post-heal packets.
        reports[1].snapshot.flows[0].packets_on_time = 249;
        reports[1].snapshot.flows[0].packets_late = 1;
        let verdict = verify(&graph, &flows, 0.99, &reports);
        assert!(!verdict.passed);
        assert!(
            verdict.failures.iter().any(|f| f.contains("below 0.99")),
            "{:?}",
            verdict.failures
        );

        // A flow that sent nothing post-heal is a broken driver, not a
        // vacuous pass.
        reports[0].snapshot.flows[0].packets_sent = 100;
        let verdict = verify(&graph, &flows, 0.99, &reports);
        assert!(
            verdict.failures.iter().any(|f| f.contains("no post-heal traffic")),
            "{:?}",
            verdict.failures
        );
    }

    #[test]
    fn an_unscheduled_nonzero_exit_fails_naming_the_daemon() {
        let graph = presets::north_america_12();
        let (flows, mut reports) = healthy(&graph);
        reports[0].exit_code = Some(3);
        reports[1].exit_code = None;
        let verdict = verify(&graph, &flows, 0.99, &reports);
        assert!(!verdict.passed);
        assert_eq!(
            verdict.failures,
            [
                "NYC exited with code 3, not 0 at its run limit",
                "SJC exited with a signal, not 0 at its run limit",
            ]
        );
    }

    #[test]
    fn empty_reports_fail() {
        let graph = presets::north_america_12();
        let (flows, reports) = healthy(&graph);
        let verdict = verify(&graph, &flows, 0.99, &[]);
        assert!(!verdict.passed);

        // Flows with a dead endpoint are skipped, not judged.
        let lone = vec![reports[0].clone()];
        let verdict = verify(&graph, &flows, 0.99, &lone);
        assert!(verdict.flows.is_empty(), "flow with a dead endpoint was judged");
    }
}
