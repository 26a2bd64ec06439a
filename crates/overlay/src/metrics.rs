//! Overlay observability: lock-cheap counters and a bounded event
//! journal.
//!
//! Every node owns a [`MetricsRegistry`]: a block of node-wide atomic
//! counters, per-flow and per-link counter cells, and a ring-buffer
//! [`EventJournal`] of structured, clock-stamped events (route changes,
//! detector transitions, recovery outcomes). The forwarding hot path
//! only touches relaxed atomics — the registry's maps are locked
//! briefly to look up a cell, never while counting.
//!
//! Snapshots ([`MetricsSnapshot`], [`ClusterMetricsReport`]) are plain
//! serde-serializable data, with per-flow fields named after
//! `dg-sim`'s `FlowRunStats` so simulator and overlay reports can be
//! compared field-for-field.

use crate::shard::ShardedMap;
use dg_core::scheme::SchemeKind;
use dg_core::{Flow, GraphCacheStats, SlaClass};
use dg_topology::{Micros, NodeId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Declares the node counter block in two sections: `live` fields are
/// backed by one atomic each and counted on the hot paths; `derived`
/// fields have no atomic — they are computed from the live fields at
/// snapshot time, but still appear in [`NodeCounters`] (and its serde
/// form), so removing a counter's atomic does not break readers of
/// serialized snapshots.
macro_rules! declare_counters {
    (
        live { $($(#[$doc:meta])* $field:ident),+ $(,)? }
        derived { $($(#[$ddoc:meta])* $dfield:ident = $dexpr:expr),+ $(,)? }
    ) => {
        /// The node-wide atomic counter block.
        #[derive(Debug, Default)]
        pub(crate) struct AtomicCounters {
            $(pub(crate) $field: AtomicU64,)+
        }

        impl AtomicCounters {
            pub(crate) fn snapshot(&self) -> NodeCounters {
                let mut snap = NodeCounters {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                    $($dfield: 0,)+
                };
                $(snap.$dfield = ($dexpr)(&snap);)+
                snap
            }
        }

        /// A consistent-enough copy of one node's counters.
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
        }
    };
}

declare_counters! {
    live {
    /// UDP datagrams handed to the shipper (after fault filtering).
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
    /// Link-state updates this node originated.
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
    /// Supervised node threads restarted after a panic.
    thread_crashes,
    }
    derived {
    /// Datagrams dropped because a bounded internal queue was full —
    /// always exactly `shipper_drops + delivery_drops`. The 0.2.0
    /// aggregate atomic was removed in 0.3.0; the field is derived at
    /// snapshot time so serialized snapshots stay readable by older
    /// consumers.
    queue_drops = |c: &NodeCounters| c.shipper_drops.wrapping_add(c.delivery_drops),
    }
}

/// Per-flow atomic cells; field names mirror `dg-sim`'s `FlowRunStats`.
#[derive(Debug, Default)]
pub(crate) struct FlowCells {
    pub(crate) packets_sent: AtomicU64,
    pub(crate) packets_on_time: AtomicU64,
    pub(crate) packets_late: AtomicU64,
    pub(crate) transmissions: AtomicU64,
    pub(crate) graph_changes: AtomicU64,
}

/// Per-out-link atomic cells for cost accounting.
#[derive(Debug, Default)]
pub(crate) struct LinkCells {
    pub(crate) datagrams: AtomicU64,
    pub(crate) bytes: AtomicU64,
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

/// Traffic this node pushed onto the link toward one neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkMetrics {
    /// The link's far end.
    pub neighbor: NodeId,
    /// Datagrams shipped (data and control).
    pub datagrams: u64,
    /// Total bytes shipped.
    pub bytes: u64,
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
    /// A supervised node thread panicked and was restarted by its
    /// supervisor; the node runs degraded until heartbeats look
    /// healthy again.
    ThreadCrash {
        /// Which loop crashed.
        thread: NodeThread,
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

/// The supervised long-running loops of one overlay node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeThread {
    /// The socket receive/dispatch loop.
    Receive,
    /// The delayed-shipment scheduler loop.
    Shipper,
    /// The hello/link-state/housekeeping ticker loop.
    Ticker,
}

/// Events a node's journal holds before the oldest is evicted (and
/// counted in `events_dropped`).
pub const JOURNAL_CAPACITY: usize = 1_024;

/// Bounded ring buffer of [`Event`]s.
#[derive(Debug)]
pub(crate) struct EventJournal {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    next_seq: AtomicU64,
    dropped: AtomicU64,
}

impl EventJournal {
    pub(crate) fn new(capacity: usize) -> Self {
        EventJournal {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1_024))),
            capacity,
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, at: Micros, kind: EventKind) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(Event { seq, at, kind });
    }

    fn snapshot(&self) -> (Vec<Event>, u64) {
        let events = self.ring.lock().iter().copied().collect();
        (events, self.dropped.load(Ordering::Relaxed))
    }
}

/// Adds `n` to a counter cell (statistics publish no other data, so the
/// ordering is relaxed); a zero costs no atomic operation.
pub(crate) fn add(cell: &AtomicU64, n: u64) {
    if n > 0 {
        cell.fetch_add(n, Ordering::Relaxed);
    }
}

/// One node's full observability state.
///
/// The flow and link tables are sharded ([`crate::shard::ShardedMap`])
/// because the data path resolves cells per packet; unrelated flows
/// must not serialize on one registry lock.
#[derive(Debug)]
pub(crate) struct MetricsRegistry {
    pub(crate) counters: AtomicCounters,
    flows: ShardedMap<Flow, Arc<FlowCells>>,
    links: ShardedMap<NodeId, Arc<LinkCells>>,
    journal: EventJournal,
}

impl MetricsRegistry {
    pub(crate) fn new(journal_capacity: usize) -> Self {
        MetricsRegistry {
            counters: AtomicCounters::default(),
            flows: ShardedMap::new(),
            links: ShardedMap::new(),
            journal: EventJournal::new(journal_capacity),
        }
    }

    /// The counter cell for `flow` (created on first use). Only the
    /// flow's shard locks for the lookup; increments happen on the
    /// returned cell without any lock.
    pub(crate) fn flow(&self, flow: Flow) -> Arc<FlowCells> {
        self.flows.get_or_insert_with(&flow, Arc::default)
    }

    /// The counter cell for the out-link toward `neighbor`.
    pub(crate) fn link(&self, neighbor: NodeId) -> Arc<LinkCells> {
        self.links.get_or_insert_with(&neighbor, Arc::default)
    }

    /// Records a journal event that happened at `at`: the instant its
    /// recorder was told, not a second clock read.
    pub(crate) fn record_at(&self, at: Micros, kind: EventKind) {
        self.journal.record(at, kind);
    }

    /// The shed counter of `class`.
    pub(crate) fn shed_cell(&self, class: SlaClass) -> &AtomicU64 {
        match class {
            SlaClass::Bulk => &self.counters.shed_bulk,
            SlaClass::Timely => &self.counters.shed_timely,
            SlaClass::Surgical => &self.counters.shed_surgical,
        }
    }

    /// Data packets shed so far, all classes.
    pub(crate) fn shed_total(&self) -> u64 {
        [SlaClass::Bulk, SlaClass::Timely, SlaClass::Surgical]
            .iter()
            .map(|&class| self.shed_cell(class).load(Ordering::Relaxed))
            .sum()
    }

    /// A serializable copy of everything, with flows and links sorted
    /// for deterministic output.
    pub(crate) fn snapshot(&self, node: NodeId) -> MetricsSnapshot {
        let mut flows: Vec<FlowMetrics> = self
            .flows
            .entries()
            .into_iter()
            .map(|(flow, cells)| FlowMetrics {
                flow,
                packets_sent: cells.packets_sent.load(Ordering::Relaxed),
                packets_on_time: cells.packets_on_time.load(Ordering::Relaxed),
                packets_late: cells.packets_late.load(Ordering::Relaxed),
                transmissions: cells.transmissions.load(Ordering::Relaxed),
                graph_changes: cells.graph_changes.load(Ordering::Relaxed),
            })
            .collect();
        flows.sort_by_key(|f| (f.flow.source.index(), f.flow.destination.index()));
        let mut links: Vec<LinkMetrics> = self
            .links
            .entries()
            .into_iter()
            .map(|(neighbor, cells)| LinkMetrics {
                neighbor,
                datagrams: cells.datagrams.load(Ordering::Relaxed),
                bytes: cells.bytes.load(Ordering::Relaxed),
            })
            .collect();
        links.sort_by_key(|l| l.neighbor.index());
        let (events, events_dropped) = self.journal.snapshot();
        MetricsSnapshot {
            node,
            counters: self.counters.snapshot(),
            flows,
            links,
            events,
            events_dropped,
            degraded: false,
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
    /// True while the node runs in degraded mode: a supervised thread
    /// recently crashed and was restarted, or a thread's heartbeat is
    /// stale past the watchdog horizon. Forwarding continues, but
    /// operators should treat the node's estimates with suspicion.
    #[serde(default)]
    pub degraded: bool,
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
    /// Fraction of sent packets delivered on time.
    pub fn on_time_fraction(&self) -> f64 {
        if self.packets_sent == 0 {
            return 1.0;
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
        let journal = EventJournal::new(2);
        for i in 0..5u64 {
            journal.record(
                Micros::from_micros(i),
                EventKind::RecoveryServed { neighbor: NodeId::new(1), packets: i },
            );
        }
        let (events, dropped) = journal.snapshot();
        assert_eq!(dropped, 3);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
        assert!(events[0].at <= events[1].at);
    }

    #[test]
    fn zero_capacity_journal_refuses_everything() {
        let journal = EventJournal::new(0);
        journal.record(
            Micros::ZERO,
            EventKind::DetectorTriggered { neighbor: NodeId::new(0), loss: 0.5 },
        );
        let (events, dropped) = journal.snapshot();
        assert!(events.is_empty());
        assert_eq!(dropped, 1);
    }

    #[test]
    fn registry_snapshot_sorts_flows_and_links() {
        let registry = MetricsRegistry::new(8);
        registry.flow(flow(5, 1)).packets_sent.fetch_add(2, Ordering::Relaxed);
        registry.flow(flow(0, 3)).packets_sent.fetch_add(7, Ordering::Relaxed);
        registry.link(NodeId::new(9)).bytes.fetch_add(100, Ordering::Relaxed);
        registry.link(NodeId::new(2)).bytes.fetch_add(50, Ordering::Relaxed);
        let snap = registry.snapshot(NodeId::new(0));
        assert_eq!(snap.flows[0].flow, flow(0, 3));
        assert_eq!(snap.flows[0].packets_sent, 7);
        assert_eq!(snap.flows[1].flow, flow(5, 1));
        assert_eq!(snap.links[0].neighbor, NodeId::new(2));
        assert_eq!(snap.links[1].bytes, 100);
    }

    #[test]
    fn aggregate_folds_flows_across_nodes() {
        let registry_a = MetricsRegistry::new(4);
        let registry_b = MetricsRegistry::new(4);
        let f = flow(0, 2);
        // Source node: sent + its own transmissions.
        let cells = registry_a.flow(f);
        cells.packets_sent.fetch_add(10, Ordering::Relaxed);
        cells.transmissions.fetch_add(10, Ordering::Relaxed);
        // Destination node: deliveries + relay transmissions.
        let cells = registry_b.flow(f);
        cells.packets_on_time.fetch_add(8, Ordering::Relaxed);
        cells.packets_late.fetch_add(1, Ordering::Relaxed);
        cells.transmissions.fetch_add(5, Ordering::Relaxed);
        registry_a.counters.data_sent.fetch_add(10, Ordering::Relaxed);
        registry_b.counters.data_sent.fetch_add(5, Ordering::Relaxed);

        let report = ClusterMetricsReport::aggregate(vec![
            registry_b.snapshot(NodeId::new(2)),
            registry_a.snapshot(NodeId::new(0)),
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
        let registry = MetricsRegistry::new(4);
        let at = Micros::from_millis(5);
        registry.record_at(
            at,
            EventKind::RouteChange {
                flow: flow(1, 2),
                scheme: SchemeKind::TargetedRedundancy,
                edges: 7,
            },
        );
        registry
            .record_at(at, EventKind::DetectorTriggered { neighbor: NodeId::new(3), loss: 0.25 });
        registry.flow(flow(1, 2)).transmissions.fetch_add(4, Ordering::Relaxed);
        let snap = registry.snapshot(NodeId::new(1));
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(snap, back);
    }
}
