//! Per-flow run statistics and the paper's gap-coverage metric.

use dg_core::scheme::SchemeKind;
use dg_core::Flow;
use serde::{Deserialize, Serialize};

/// What happened during one second of a flow's playback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecondRecord {
    /// Second index from the start of the trace.
    pub second: u64,
    /// Packets sent in this second.
    pub sent: u64,
    /// Packets delivered within the deadline.
    pub on_time: u64,
    /// Whether the second counted as unavailable.
    pub unavailable: bool,
}

/// Aggregate result of replaying one flow under one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowRunStats {
    /// The scheme that was driven.
    pub scheme: SchemeKind,
    /// The flow replayed.
    pub flow: Flow,
    /// Seconds simulated.
    pub seconds: u64,
    /// Seconds in which the timeliness contract was violated.
    pub unavailable_seconds: u64,
    /// Packets sent.
    pub packets_sent: u64,
    /// Packets delivered within the deadline.
    pub packets_on_time: u64,
    /// Packets delivered at all (on time or late).
    pub packets_delivered: u64,
    /// Packets sent but never delivered.
    pub packets_lost: u64,
    /// Total link transmissions (the cost numerator).
    pub transmissions: u64,
    /// Times the scheme changed its dissemination graph.
    pub graph_changes: u64,
}

impl FlowRunStats {
    /// Fraction of seconds that met the contract.
    pub fn availability(&self) -> f64 {
        if self.seconds == 0 {
            return 1.0;
        }
        1.0 - self.unavailable_seconds as f64 / self.seconds as f64
    }

    /// Fraction of packets delivered on time, and `0.0` when none were
    /// sent — the one convention for every on-time fraction the
    /// simulator reports. A run that sent nothing carries no timeliness
    /// evidence, and a floor such as `on_time_fraction() >= 0.99` must
    /// not pass on it: the same stance as the overlay's
    /// `FlowReport::on_time_fraction`. This stays a plain `f64` because report tables and the benchmark
    /// consume it as a number.
    pub fn on_time_fraction(&self) -> f64 {
        fraction(self.packets_on_time, self.packets_sent)
    }

    /// Average link transmissions per message — the paper's cost.
    pub fn average_cost(&self) -> f64 {
        if self.packets_sent == 0 {
            return 0.0;
        }
        self.transmissions as f64 / self.packets_sent as f64
    }

    /// Merges another run (e.g. a different flow or week) into this one.
    pub fn merge(&mut self, other: &FlowRunStats) {
        self.seconds += other.seconds;
        self.unavailable_seconds += other.unavailable_seconds;
        self.packets_sent += other.packets_sent;
        self.packets_on_time += other.packets_on_time;
        self.packets_delivered += other.packets_delivered;
        self.packets_lost += other.packets_lost;
        self.transmissions += other.transmissions;
        self.graph_changes += other.graph_changes;
    }
}

/// `part / whole`, or `0.0` of an empty whole (see
/// [`FlowRunStats::on_time_fraction`] for why not `1.0`).
pub(crate) fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        return 0.0;
    }
    part as f64 / whole as f64
}

/// The paper's headline metric: what fraction of the gap between the
/// single-path baseline and the optimal scheme a given scheme covers.
///
/// `coverage = (baseline - scheme) / (baseline - optimal)`, in
/// unavailable seconds. Returns 1.0 when the baseline already matches
/// the optimum (no gap to cover).
///
/// # Example
///
/// ```
/// // Single path lost 100 s, flooding 2 s; a scheme losing 30 s
/// // covered ~71% of the gap.
/// let c = dg_sim::gap_coverage(100, 2, 30);
/// assert!((c - 0.714).abs() < 0.01);
/// ```
pub fn gap_coverage(
    baseline_unavailable: u64,
    optimal_unavailable: u64,
    scheme_unavailable: u64,
) -> f64 {
    let gap = baseline_unavailable.saturating_sub(optimal_unavailable);
    if gap == 0 {
        return 1.0;
    }
    let covered = baseline_unavailable.saturating_sub(scheme_unavailable);
    covered as f64 / gap as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::NodeId;

    fn stats(unavail: u64, sent: u64, on_time: u64, tx: u64) -> FlowRunStats {
        FlowRunStats {
            scheme: SchemeKind::StaticSinglePath,
            flow: Flow::new(NodeId::new(0), NodeId::new(1)),
            seconds: 100,
            unavailable_seconds: unavail,
            packets_sent: sent,
            packets_on_time: on_time,
            packets_delivered: on_time,
            packets_lost: sent - on_time,
            transmissions: tx,
            graph_changes: 0,
        }
    }

    #[test]
    fn ratios() {
        let s = stats(5, 1_000, 990, 4_000);
        assert!((s.availability() - 0.95).abs() < 1e-12);
        assert!((s.on_time_fraction() - 0.99).abs() < 1e-12);
        assert!((s.average_cost() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_vacuously_available_but_shows_no_timeliness() {
        let mut s = stats(0, 0, 0, 0);
        s.seconds = 0;
        assert_eq!(s.availability(), 1.0);
        assert_eq!(s.average_cost(), 0.0);
        assert_eq!(s.on_time_fraction(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = stats(5, 1_000, 990, 4_000);
        let b = stats(3, 1_000, 999, 4_100);
        a.merge(&b);
        assert_eq!(a.seconds, 200);
        assert_eq!(a.unavailable_seconds, 8);
        assert_eq!(a.packets_sent, 2_000);
        assert_eq!(a.packets_lost, 11);
        assert_eq!(a.transmissions, 8_100);
    }

    #[test]
    fn gap_coverage_bounds() {
        // Baseline 100s unavailable, optimal 2s.
        assert!((gap_coverage(100, 2, 100) - 0.0).abs() < 1e-12);
        assert!((gap_coverage(100, 2, 2) - 1.0).abs() < 1e-12);
        let half = gap_coverage(100, 2, 51);
        assert!((half - 0.5).abs() < 1e-12);
        // No gap at all.
        assert_eq!(gap_coverage(5, 5, 7), 1.0);
        // A scheme worse than baseline floors at 0 via saturation.
        assert_eq!(gap_coverage(100, 2, 150), 0.0);
    }
}
