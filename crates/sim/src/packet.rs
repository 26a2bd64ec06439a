//! Per-packet propagation through a dissemination graph, and the
//! loss-free wavefront that answers for the packets that repeat it.
//!
//! A playback packet takes one of three roads. A **hit** loses none of
//! the wavefront's draws ([`SimScratch::wave_loss`], the only check a
//! surviving packet pays) and takes the wavefront's outcome. A
//! **repair** loses draws, but only slack ones, or one tight one and
//! draws that stay slack without it ([`SimScratch::repair`]), and takes
//! the outcome of the wavefront or of a memoised derived wave, plus its
//! retransmissions. A **miss** — two tight losses, or a send whose
//! expiry leaves the interval — runs the event heap ([`propagate`]).

use crate::rng::{draw_bits, edge_prefix, survival_threshold, unit_sample};
use dg_core::DisseminationGraph;
use dg_topology::{EdgeId, Graph, Micros, NodeId};
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
    /// Earliest arrival time at the destination, if it arrived at all
    /// before nodes dropped it as expired.
    pub delivered_at: Option<Micros>,
    /// True when `delivered_at` is within the deadline.
    pub on_time: bool,
    /// Link transmissions performed (originals + retransmissions) —
    /// the per-packet cost.
    pub transmissions: u64,
}

/// Where the packets a [`SimScratch`] replayed went: answered by the
/// memoised loss-free wavefront, repaired from it, or propagated through
/// the event heap. Every replayed packet is exactly one of `wave_hits`,
/// `wave_repairs` and `full_propagations`; the counters run for the
/// scratch's whole life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayCounters {
    /// Packets that lost nothing inside one trace interval and took
    /// their outcome from the interval's wavefront.
    pub wave_hits: u64,
    /// Packets of the wavefront's window that lost draws, but only slack
    /// ones, or one tight one and slack ones beside it: their outcome is
    /// the wavefront's, or a memoised derived wavefront's, plus their
    /// retransmissions.
    #[serde(default)]
    pub wave_repairs: u64,
    /// Packets propagated through the event heap: two or more tight
    /// draws failed, or the packet was a straddler.
    pub full_propagations: u64,
    /// Wavefronts built — one loss-free propagation per (graph,
    /// interval) a replay entered, not a packet.
    pub wave_builds: u64,
    /// The full propagations whose `[send, expiry]` was not inside one
    /// trace interval, so that no wavefront could answer for them.
    pub straddlers: u64,
    /// Arrivals pushed onto the event heap, by full propagations and
    /// wavefront builds alike: the send, and then one a transmission
    /// that got through *and* beat the best arrival its head had been
    /// offered. A count of the heap's work that repeats exactly on any
    /// host.
    #[serde(default)]
    pub heap_pushes: u64,
}

impl ReplayCounters {
    /// Share of the replayed packets that took the event heap; `0.0`
    /// when none were replayed.
    pub fn full_share(&self) -> f64 {
        let replayed = self.wave_hits + self.wave_repairs + self.full_propagations;
        crate::metrics::fraction(self.full_propagations, replayed)
    }
}

/// Reusable per-flow simulation state, so replaying millions of packets
/// allocates nothing per packet.
///
/// Holds the event heap, a generation-stamped table of each node's
/// earliest arrival (cleared in O(1) by bumping the generation), a
/// per-node index of the current dissemination graph's forwarding edges
/// — computed once per graph instead of scanning every member edge at
/// every node visit — and, during a playback run, the loss-free
/// wavefront of that graph in the trace interval being replayed.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Tentative arrivals `(at, node)`, earliest first: only those that
    /// beat the node's entry in `arrival` when they were offered.
    heap: BinaryHeap<Reverse<(Micros, NodeId)>>,
    /// `arrival[node] = (generation, at)`: the earliest arrival at
    /// `node` offered so far — tentative while an entry for it is on
    /// the heap, the node's first arrival once that entry is popped.
    /// When [`propagate`] returns, every entry of the generation is a
    /// first arrival.
    arrival: Vec<(u64, Micros)>,
    generation: u64,
    /// `out[node] = ` the dissemination graph's edges leaving `node`.
    out: Vec<Vec<EdgeId>>,
    wave: Wave,
    /// The slack draws a repaired packet lost, by index into the wave's.
    lost: Vec<usize>,
    pub(crate) replay: ReplayCounters,
}

/// The loss-free wavefront of the indexed graph in one trace interval:
/// how a packet spreads when none of its transmissions is lost. Inside
/// an interval conditions are constant and a draw is a pure function of
/// `(seed, edge, seq, attempt)`, so a packet whose first-attempt draws
/// all survive does exactly what the wavefront did — the same nodes at
/// the same offsets from its send, the same transmissions — and the
/// draws are all that is left to compute for it.
///
/// It also repairs most packets that lose a draw. A draw is **tight**
/// when its transmission gave its head the head's first arrival in the
/// wave (`a_tail + latency <= a_head`), and **slack** otherwise. Losing
/// a slack transmission changes no arrival — its retransmission, if
/// any, offers the head something later still — so a packet that loses
/// only slack draws spreads as the wave did, plus one retransmission a
/// loss when recovery is on. A packet that loses exactly one tight draw
/// spreads as a **derived wave** does: the wave's propagation with that
/// edge's first attempt lost and its retry given the packet's keyed
/// fate, built once per `(draw, retry fate)` and memoised for the
/// wave's life — provided each of its other losses is slack in the
/// derived wave. Two tight losses, or one tight in the derived wave,
/// and the packet runs the event heap.
///
/// It is valid for one graph (dropped by [`SimScratch::index_graph`]),
/// one interval, and the seed, deadline, recovery model and trace of
/// the playback run that built it: a run holds its `&TraceSet` from
/// start to end and starts by indexing its graph, so a wave never
/// outlives the conditions it was built from. [`simulate_packet_with`]
/// holds no such borrow between calls and never consults it.
#[derive(Debug, Default)]
struct Wave {
    /// The trace interval it was built in; `None` when there is none.
    interval: Option<usize>,
    /// The send times `[from, until)` it answers for: the packet's
    /// expiry is still inside the interval, and no arrival saturates.
    from: Micros,
    until: Micros,
    /// The run's deadline and recovery model, which derived waves
    /// propagate under.
    deadline: Micros,
    recovery: RecoveryModel,
    /// First arrivals of the loss-free packet sent at `from` — the
    /// scratch's table at the time, entries stamped `generation`.
    arrival: Vec<(u64, Micros)>,
    generation: u64,
    transmissions: u64,
    /// One entry per transmission that can be lost: the edge's
    /// [`edge_prefix`] and its [`survival_threshold`], likeliest loss
    /// first so that a dead link ends the check at the first draw.
    draws: Vec<(u64, u64)>,
    /// `links[i]`: the transmission behind `draws[i]`. Apart from the
    /// draws so that a hit's check reads nothing it does not need.
    links: Vec<WaveLink>,
    /// Derived waves, `derived[..built]` this wave's; the tables of the
    /// rest are kept for reuse.
    derived: Vec<DerivedWave>,
    built: usize,
    /// `memo[2 * i + retry]`: the index in `derived` of the wave with
    /// draw `i` lost and its retry surviving (`retry = 1`) or not.
    memo: Vec<Option<usize>>,
    /// Build buffer for `draws` and `links`, kept to reuse its storage.
    noted: Vec<(u64, u64, EdgeId)>,
}

/// A transmission of the wave that can be lost.
#[derive(Debug, Clone, Copy)]
struct WaveLink {
    edge: EdgeId,
    tail: NodeId,
    head: NodeId,
    /// The edge's latency in the interval, condition included.
    latency: Micros,
    /// It gave `head` its first arrival in the wave.
    tight: bool,
}

impl WaveLink {
    /// Whether this transmission gave `head` its first arrival in the
    /// spread whose table is `arrival`, stamped `generation`, and whose
    /// packet expires at `expiry`: `None` when `tail` never forwarded
    /// there, so that the edge carried nothing.
    fn tight_in(&self, arrival: &[(u64, Micros)], generation: u64, expiry: Micros) -> Option<bool> {
        let (stamp, at_tail) = arrival[self.tail.index()];
        if stamp != generation || at_tail > expiry {
            return None;
        }
        // A head the transmission did not reach is not one it can be
        // lost to without consequence: it counts as tight.
        let (stamp, at_head) = arrival[self.head.index()];
        Some(stamp != generation || at_tail.saturating_add(self.latency) <= at_head)
    }
}

/// The wave's propagation with one draw lost and its retry decided.
#[derive(Debug, Default)]
struct DerivedWave {
    arrival: Vec<(u64, Micros)>,
    generation: u64,
    transmissions: u64,
    /// The wave's `until`, earlier if this wave's latest arrival would
    /// saturate sooner.
    until: Micros,
}

/// How one packet spread through the indexed graph: when it first
/// reached each node, counted from its send, and what that cost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spread<'a> {
    arrival: &'a [(u64, Micros)],
    generation: u64,
    sent: Micros,
    /// Link transmissions performed.
    pub(crate) transmissions: u64,
}

impl Spread<'_> {
    /// How long after its send the packet first reached `node`, if it
    /// did.
    pub(crate) fn reached_after(&self, node: NodeId) -> Option<Micros> {
        let (generation, at) = self.arrival[node.index()];
        (generation == self.generation).then(|| at.saturating_sub(self.sent))
    }

    /// How long after its send every receiver of `dgraph` had the
    /// packet (the last receiver's first arrival), if they all got it.
    pub(crate) fn delivered_after(&self, dgraph: &DisseminationGraph) -> Option<Micros> {
        dgraph
            .receivers()
            .iter()
            .try_fold(Micros::ZERO, |latest, &r| Some(latest.max(self.reached_after(r)?)))
    }
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
        // The wavefront belonged to the graph indexed before.
        self.wave.interval = None;
        self.wave.until = self.wave.from;
    }

    /// Where the packets replayed on this scratch went.
    pub fn replay(&self) -> ReplayCounters {
        self.replay
    }

    fn begin(&mut self, n: usize) {
        self.heap.clear();
        self.generation += 1;
        if self.arrival.len() < n {
            self.arrival.resize(n, (0, Micros::ZERO));
        }
    }

    /// Offers `node` the packet at `at`: kept, and pushed, only when it
    /// beats every arrival the node has been offered so far.
    fn offer(&mut self, node: NodeId, at: Micros) {
        let best = &mut self.arrival[node.index()];
        if best.0 != self.generation || at < best.1 {
            *best = (self.generation, at);
            self.heap.push(Reverse((at, node)));
            self.replay.heap_pushes += 1;
        }
    }

    /// How the most recently propagated packet, sent at `sent` for
    /// `transmissions`, spread.
    pub(crate) fn spread(&self, sent: Micros, transmissions: u64) -> Spread<'_> {
        Spread { arrival: &self.arrival, generation: self.generation, sent, transmissions }
    }

    /// How every packet the wavefront answers for spread.
    pub(crate) fn wave_spread(&self) -> Spread<'_> {
        let Wave { ref arrival, generation, from, transmissions, .. } = self.wave;
        Spread { arrival, generation, sent: from, transmissions }
    }

    /// The trace interval the wavefront was built in, if there is one.
    pub(crate) fn wave_interval(&self) -> Option<usize> {
        self.wave.interval
    }

    /// Whether the wavefront answers for a packet sent at `t`, provided
    /// its draws survive. A packet of the wave's interval it does not
    /// cover is a straddler.
    pub(crate) fn wave_covers(&self, t: Micros) -> bool {
        self.wave.from <= t && t < self.wave.until
    }

    /// The first of the wavefront's draws, in check order, that packet
    /// `seq` loses; `None` when it loses none, which makes it a hit.
    pub(crate) fn wave_loss(&self, seq: u64) -> Option<usize> {
        self.wave
            .draws
            .iter()
            .position(|&(prefix, threshold)| draw_bits(prefix, seq, 0) < threshold)
    }

    /// How packet `seq`, sent at `t` inside the wavefront's window and
    /// losing its draw `first` ([`SimScratch::wave_loss`]), spread —
    /// when the wavefront can say without the event heap: the packet
    /// loses only slack draws, or one tight draw and only draws that are
    /// slack in the derived wave of that loss. `None` sends it to the
    /// heap. Counts the packet as a repair when it answers.
    pub(crate) fn repair(
        &mut self,
        topology: &Graph,
        traces: &TraceSet,
        source: NodeId,
        seq: u64,
        t: Micros,
        first: usize,
    ) -> Option<Spread<'_>> {
        // Every draw of the packet is keyed, so one scan classifies its
        // losses.
        let mut tight = None;
        self.lost.clear();
        for i in first..self.wave.draws.len() {
            let (prefix, threshold) = self.wave.draws[i];
            if draw_bits(prefix, seq, 0) >= threshold {
                continue;
            }
            if !self.wave.links[i].tight {
                self.lost.push(i);
            } else if tight.replace(i).is_some() {
                return None;
            }
        }
        // One retransmission a loss, when links recover.
        let retransmits = u64::from(self.wave.recovery.enabled);
        let Some(i) = tight else {
            self.replay.wave_repairs += 1;
            let mut spread = self.wave_spread();
            spread.transmissions += retransmits * self.lost.len() as u64;
            return Some(spread);
        };
        let (prefix, threshold) = self.wave.draws[i];
        let retry = self.wave.recovery.enabled && draw_bits(prefix, seq, 1) >= threshold;
        let d = self.derive(topology, traces, source, i, retry);
        let wave = &self.wave;
        let derived = &wave.derived[d];
        if t >= derived.until {
            return None;
        }
        let expiry = wave.from.saturating_add(wave.deadline);
        let mut losses = 0;
        for &j in &self.lost {
            match wave.links[j].tight_in(&derived.arrival, derived.generation, expiry) {
                Some(true) => return None,
                Some(false) => losses += 1,
                None => {} // the derived wave never sends it
            }
        }
        self.replay.wave_repairs += 1;
        Some(Spread {
            arrival: &derived.arrival,
            generation: derived.generation,
            sent: wave.from,
            transmissions: derived.transmissions + retransmits * losses,
        })
    }

    /// The derived wave of the wavefront with draw `i` lost and its retry
    /// surviving or not: memoised, built by one [`propagate`] on first
    /// use.
    fn derive(
        &mut self,
        topology: &Graph,
        traces: &TraceSet,
        source: NodeId,
        i: usize,
        retry: bool,
    ) -> usize {
        let key = 2 * i + usize::from(retry);
        if let Some(d) = self.wave.memo[key] {
            return d;
        }
        let Wave { from, deadline, recovery, .. } = self.wave;
        let lost = self.wave.links[i].edge;
        let transmissions = propagate(
            self,
            topology,
            source,
            traces,
            from,
            from.saturating_add(deadline),
            &recovery,
            |e, attempt, _| e != lost || (attempt == 1 && retry),
        );
        let d = self.wave.built;
        self.wave.built += 1;
        if d == self.wave.derived.len() {
            self.wave.derived.push(DerivedWave::default());
        }
        let derived = &mut self.wave.derived[d];
        std::mem::swap(&mut self.arrival, &mut derived.arrival);
        derived.generation = self.generation;
        derived.transmissions = transmissions;
        derived.until = self.wave.until.min(Micros::MAX.saturating_sub(reach(
            &derived.arrival,
            derived.generation,
            from,
        )));
        self.wave.memo[key] = Some(d);
        d
    }

    /// Builds the wavefront of the indexed graph in `interval`: one run
    /// of [`propagate`] in which nothing is lost, sent at the interval's
    /// start, that notes every transmission's draw instead of making it.
    ///
    /// The wave then covers the sends `t` with `t + deadline` still
    /// inside the interval — every condition the packet meets is the
    /// one the wave met — and early enough that `t` plus the wave's
    /// latest arrival does not saturate, so that all of `propagate`'s
    /// arithmetic is the wave's shifted by `t - from`. An interval no
    /// longer than the deadline gets an empty wave.
    ///
    /// Each draw is marked tight or slack ([`Wave`]), and the derived
    /// waves of the interval before are forgotten.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_wave(
        &mut self,
        topology: &Graph,
        traces: &TraceSet,
        source: NodeId,
        interval: usize,
        deadline: Micros,
        recovery: &RecoveryModel,
        seed: u64,
    ) {
        let (from, end) = traces.interval_span(interval);
        let until = end.saturating_sub(deadline);
        self.wave.interval = Some(interval);
        (self.wave.from, self.wave.until) = (from, from);
        if from >= until {
            return;
        }
        (self.wave.deadline, self.wave.recovery) = (deadline, *recovery);
        // Nothing is lost, so nothing is recovered.
        let no_recovery = RecoveryModel { enabled: false, gap_detection: Micros::ZERO };
        let mut noted = std::mem::take(&mut self.wave.noted);
        noted.clear();
        let expiry = from.saturating_add(deadline);
        self.wave.transmissions =
            propagate(self, topology, source, traces, from, expiry, &no_recovery, |e, _, loss| {
                noted.push((edge_prefix(seed, e.index() as u32), survival_threshold(loss), e));
                true
            });
        noted.retain(|&(_, threshold, _)| threshold > 0);
        noted.sort_unstable_by_key(|&(prefix, threshold, _)| (Reverse(threshold), prefix));
        self.wave.draws.clear();
        self.wave.draws.extend(noted.iter().map(|&(prefix, threshold, _)| (prefix, threshold)));
        self.wave.links.clear();
        for &(_, _, edge) in &noted {
            let info = topology.edge(edge);
            let at_tail = self.arrival[info.src.index()].1;
            let extra = traces.condition_at(edge, at_tail).extra_latency;
            let latency = info.latency.saturating_add(extra);
            let mut link = WaveLink { edge, tail: info.src, head: info.dst, latency, tight: false };
            link.tight = link.tight_in(&self.arrival, self.generation, expiry) == Some(true);
            self.wave.links.push(link);
        }
        self.wave.noted = noted;
        self.wave.built = 0;
        self.wave.memo.clear();
        self.wave.memo.resize(2 * self.wave.draws.len(), None);
        std::mem::swap(&mut self.arrival, &mut self.wave.arrival);
        self.wave.generation = self.generation;
        let reach = reach(&self.wave.arrival, self.generation, from);
        self.wave.until = until.min(Micros::MAX.saturating_sub(reach));
        self.replay.wave_builds += 1;
    }
}

/// How long after `from` the last node of the spread stamped
/// `generation` in `arrival` was reached.
fn reach(arrival: &[(u64, Micros)], generation: u64, from: Micros) -> Micros {
    let latest = arrival.iter().filter(|a| a.0 == generation).map(|a| a.1).max();
    latest.unwrap_or(from).saturating_sub(from)
}

/// Simulates one packet sent at `send_time` over `dgraph`.
///
/// Every node receiving the packet for the first time forwards it once
/// on each of its out-edges in the graph; duplicates are suppressed;
/// nodes drop packets that have already exceeded the deadline (the
/// deadline-aware service never forwards useless data). Loss draws are
/// deterministic in `(seed, edge, seq, attempt)`, making scheme
/// comparisons paired rather than noisy. Each hop meets the conditions
/// in force when the packet is at that hop's tail, not the ones at
/// `send_time`.
///
/// The packet spreads through the graph once however many receivers it
/// has (the graph cache's multicast tier builds graphs with several);
/// the outcome counts it delivered once *every* receiver has it
/// (`delivered_at` is the last receiver's first arrival).
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
/// allocation-free path. The scratch must have been indexed for
/// `dgraph` via [`SimScratch::index_graph`]. Every call runs the event
/// heap: nothing is remembered from one call to the next, so the caller
/// may change `traces` between them.
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
        sampled(seed, seq),
    );
    let delivered_at = scratch
        .spread(send_time, transmissions)
        .delivered_after(dgraph)
        .map(|after| send_time.saturating_add(after));
    PacketOutcome {
        delivered_at,
        on_time: delivered_at.is_some_and(|t| t <= expiry),
        transmissions,
    }
}

/// The draws of packet `seq`, for [`propagate`]: a transmission gets
/// through when its sample reaches the link's loss rate.
pub(crate) fn sampled(seed: u64, seq: u64) -> impl FnMut(EdgeId, u32, f64) -> bool {
    move |e, attempt, loss_rate| unit_sample(seed, e.index() as u32, seq, attempt) >= loss_rate
}

/// Spreads one packet from `source` over the indexed graph — the one
/// propagation loop: the event heap runs it with sampled draws, and the
/// wavefront is a run of it in which every draw survives. First arrival
/// times at every node the packet reaches are left in the scratch's
/// arrival table for the caller to read; returns the packet's link
/// transmissions.
///
/// It is Dijkstra's algorithm over the packet's transmissions: nodes
/// are settled in `(time, node)` order, each forwards once when first
/// reached, and a transmission that gets through offers its head an
/// arrival. An offer goes onto the heap only when it beats the head's
/// best so far, so the heap holds one entry per improvement rather than
/// one per surviving transmission, and a popped entry that a later
/// offer beat is skipped. Which nodes settle when, the draws asked for
/// and in what order, and the transmissions are those of pushing every
/// surviving transmission — the test module keeps that loop as the
/// reference.
///
/// `survives(edge, attempt, loss_rate)` says whether that transmission
/// gets through. The timing rule: an edge's condition is read at the
/// time the packet is at the edge's tail (`condition_at(e, t)` with `t`
/// the node's visit time), so a packet in flight across an interval
/// boundary meets the next interval's conditions downstream.
#[allow(clippy::too_many_arguments)]
pub(crate) fn propagate(
    scratch: &mut SimScratch,
    topology: &Graph,
    source: NodeId,
    traces: &TraceSet,
    send_time: Micros,
    expiry: Micros,
    recovery: &RecoveryModel,
    mut survives: impl FnMut(EdgeId, u32, f64) -> bool,
) -> u64 {
    let mut transmissions = 0u64;
    scratch.begin(topology.node_count());
    scratch.offer(source, send_time);

    while let Some(Reverse((t, u))) = scratch.heap.pop() {
        // The entry at a node's best is its only one (an offer must beat
        // the best), and no offer made from here on is earlier than `t`:
        // popping it settles `u` for good.
        if scratch.arrival[u.index()].1 != t {
            // Beaten by a later offer, which settled `u` first.
            continue;
        }
        if t > expiry {
            // Expired packets are not forwarded further.
            continue;
        }
        for i in 0..scratch.out[u.index()].len() {
            let e = scratch.out[u.index()][i];
            let cond = traces.condition_at(e, t);
            let latency = topology.edge(e).latency.saturating_add(cond.extra_latency);
            transmissions += 1;
            if survives(e, 0, cond.loss_rate) {
                scratch.offer(topology.edge(e).dst, t.saturating_add(latency));
            } else if recovery.enabled {
                // Lost: receiver detects the gap one inter-packet spacing
                // after the packet would have arrived, NACKs back, and the
                // source of the link retransmits once.
                transmissions += 1;
                if survives(e, 1, cond.loss_rate) {
                    let recovered = t
                        .saturating_add(recovery.gap_detection)
                        .saturating_add(latency.saturating_mul(3));
                    scratch.offer(topology.edge(e).dst, recovered);
                }
            }
        }
    }
    transmissions
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dg_core::Flow;
    use dg_topology::algo::{dijkstra, disjoint};
    use dg_topology::{presets, EdgeId};
    use dg_trace::{LinkCondition, TraceSet};
    use proptest::prelude::*;

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
        // Sent at time zero, so "after the send" is the arrival time.
        let reached =
            |scratch: &SimScratch, node| scratch.spread(Micros::ZERO, 0).reached_after(node);
        // Clean: shared edges transmit once, each receiver is reached at
        // its own path latency, and the packet counts as delivered when
        // the slower of them has it.
        let out = send(&mut scratch, &traces);
        assert_eq!(out.transmissions, dg.len() as u64);
        assert_eq!(reached(&scratch, flow.destination), Some(to_sjc.latency(&g)));
        assert_eq!(reached(&scratch, lax), Some(to_lax.latency(&g)));
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
        assert_eq!(reached(&scratch, flow.destination), Some(to_sjc.latency(&g)));
        assert_eq!(reached(&scratch, lax), None);
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
    fn conditions_are_those_of_the_interval_the_packet_travels_in() {
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
    fn a_hop_meets_the_conditions_at_its_visit_time_not_the_send_time() {
        let (g, dg, mut traces, flow) = setup();
        // The path's last hop dies in interval 1, and the first hop is
        // slow enough in interval 0 that a packet sent 30 ms before the
        // boundary reaches the last hop's tail after it.
        let last = *dg.edges().iter().find(|&&e| g.edge(e).dst == flow.destination).unwrap();
        let first = *dg.edges().iter().find(|&&e| g.edge(e).src == flow.source).unwrap();
        let slow = Micros::from_millis(20);
        traces.set_condition(first, 0, LinkCondition::new(0.0, slow));
        traces.set_condition(last, 1, LinkCondition::down());
        let tail_after = (dg.best_latency(&g) + slow).saturating_sub(g.edge(last).latency);
        assert!(tail_after > Micros::from_millis(30) && dg.best_latency(&g) + slow < DEADLINE);
        let no_rec = RecoveryModel { enabled: false, gap_detection: Micros::ZERO };
        let boundary = Micros::from_secs(10);
        let send = |at| simulate_packet(&g, &dg, &traces, at, DEADLINE, &no_rec, 1, 0);
        let early =
            send(boundary.saturating_sub(tail_after).saturating_sub(Micros::from_micros(1)));
        assert!(early.on_time, "at the last hop's tail just before the boundary");
        let straddler = send(boundary.saturating_sub(Micros::from_millis(30)));
        assert_eq!(straddler.delivered_at, None, "sent in interval 0, lost to interval 1");
        assert_eq!(straddler.transmissions, dg.len() as u64, "every hop was tried");
    }

    #[test]
    fn a_wave_covers_the_sends_whose_expiry_stays_in_its_interval() {
        let (g, dg, traces, _) = setup();
        let mut scratch = SimScratch::new();
        scratch.index_graph(&g, &dg);
        assert_eq!(scratch.wave_interval(), None);
        assert!(!scratch.wave_covers(Micros::ZERO));
        scratch.build_wave(&g, &traces, dg.source(), 1, DEADLINE, &RecoveryModel::default(), 7);
        assert_eq!(scratch.wave_interval(), Some(1));
        let (from, until) = (Micros::from_secs(10), Micros::from_secs(20).saturating_sub(DEADLINE));
        assert!(!scratch.wave_covers(from.saturating_sub(Micros::from_micros(1))));
        assert!(scratch.wave_covers(from));
        assert!(scratch.wave_covers(until.saturating_sub(Micros::from_micros(1))));
        assert!(!scratch.wave_covers(until), "expiry on the boundary reads the next interval");
        // A clean trace loses nothing: no draw is left to make, and the
        // wave is the clean packet.
        assert_eq!(scratch.wave_loss(0), None);
        let spread = scratch.wave_spread();
        assert_eq!(spread.transmissions, dg.len() as u64);
        assert_eq!(spread.delivered_after(&dg), Some(dg.best_latency(&g)));
        // The last interval has no end; indexing a graph drops the wave.
        scratch.build_wave(&g, &traces, dg.source(), 9, DEADLINE, &RecoveryModel::default(), 7);
        assert!(scratch.wave_covers(Micros::from_secs(1_000_000)));
        assert!(!scratch.wave_covers(Micros::MAX.saturating_sub(DEADLINE)), "expiry saturates");
        scratch.index_graph(&g, &dg);
        assert_eq!(scratch.wave_interval(), None);
        assert!(!scratch.wave_covers(Micros::from_secs(95)));
        assert_eq!(scratch.replay().wave_builds, 2);
    }

    #[test]
    fn a_wave_answers_for_nothing_it_cannot_shift_exactly() {
        let (g, dg, mut traces, _) = setup();
        let mut scratch = SimScratch::new();
        scratch.index_graph(&g, &dg);
        // An interval no longer than the deadline: every packet straddles.
        let short = TraceSet::clean(g.edge_count(), 4, Micros::from_millis(60)).unwrap();
        scratch.build_wave(&g, &short, dg.source(), 1, DEADLINE, &RecoveryModel::default(), 7);
        assert_eq!(scratch.wave_interval(), Some(1));
        assert!(!scratch.wave_covers(Micros::from_millis(60)));
        assert_eq!(scratch.replay().wave_builds, 0, "nothing to build");
        // An arrival that saturates is not a fixed offset from the send.
        traces.set_condition(dg.edges()[0], 0, LinkCondition::new(0.0, Micros::MAX));
        scratch.build_wave(&g, &traces, dg.source(), 0, DEADLINE, &RecoveryModel::default(), 7);
        assert!(!scratch.wave_covers(Micros::ZERO));
        // A dead link is the first draw checked, and no packet survives it.
        traces.set_condition(dg.edges()[0], 0, LinkCondition::new(2e-4, Micros::ZERO));
        traces.set_condition(dg.edges()[1], 0, LinkCondition::down());
        scratch.build_wave(&g, &traces, dg.source(), 0, DEADLINE, &RecoveryModel::default(), 7);
        assert!(scratch.wave_covers(Micros::ZERO));
        assert_eq!(scratch.wave.draws.len(), 2, "clean links need no draw");
        assert_eq!(scratch.wave.draws[0].1, 1 << 53);
        assert!((0..1_000).all(|seq| scratch.wave_loss(seq) == Some(0)));
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

    /// The loop [`propagate`] replaced, kept as its definition: every
    /// transmission that gets through is pushed, and a node settles at
    /// its first pop. What it computes: each node's first arrival, the
    /// transmissions, and the heap pushes.
    pub(crate) struct Reference {
        pub(crate) arrival: Vec<Option<Micros>>,
        pub(crate) transmissions: u64,
        pub(crate) pushes: u64,
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reference(
        topology: &Graph,
        dgraph: &DisseminationGraph,
        traces: &TraceSet,
        send_time: Micros,
        expiry: Micros,
        recovery: &RecoveryModel,
        mut survives: impl FnMut(EdgeId, u32, f64) -> bool,
    ) -> Reference {
        let mut out = vec![Vec::new(); topology.node_count()];
        for &e in dgraph.edges() {
            out[topology.edge(e).src.index()].push(e);
        }
        let mut arrival = vec![None; topology.node_count()];
        let mut heap = BinaryHeap::from([Reverse((send_time, dgraph.source()))]);
        let (mut transmissions, mut pushes) = (0, 1);
        while let Some(Reverse((t, u))) = heap.pop() {
            if arrival[u.index()].is_some() {
                continue;
            }
            arrival[u.index()] = Some(t);
            if t > expiry {
                continue;
            }
            for &e in &out[u.index()] {
                let cond = traces.condition_at(e, t);
                let latency = topology.edge(e).latency.saturating_add(cond.extra_latency);
                transmissions += 1;
                let at = if survives(e, 0, cond.loss_rate) {
                    Some(t.saturating_add(latency))
                } else if recovery.enabled {
                    transmissions += 1;
                    survives(e, 1, cond.loss_rate).then(|| {
                        t.saturating_add(recovery.gap_detection)
                            .saturating_add(latency.saturating_mul(3))
                    })
                } else {
                    None
                };
                if let Some(at) = at {
                    heap.push(Reverse((at, topology.edge(e).dst)));
                    pushes += 1;
                }
            }
        }
        Reference { arrival, transmissions, pushes }
    }

    /// First arrivals by node in `table`, as [`Reference`] has them.
    fn first_arrivals(table: &[(u64, Micros)], generation: u64, n: usize) -> Vec<Option<Micros>> {
        table[..n].iter().map(|&(stamp, at)| (stamp == generation).then_some(at)).collect()
    }

    fn flooding(g: &Graph, flow: Flow, deadline: Micros) -> DisseminationGraph {
        let requirement = dg_core::ServiceRequirement::new(deadline);
        let params = dg_core::scheme::SchemeParams::default();
        let kind = dg_core::scheme::SchemeKind::TimeConstrainedFlooding;
        dg_core::scheme::build_scheme(kind, g, flow, requirement, &params)
            .unwrap()
            .current()
            .clone()
    }

    #[test]
    fn a_clean_flooding_packet_pushes_only_its_improvements() {
        let (g, _, traces, flow) = setup();
        let dg = flooding(&g, flow, DEADLINE);
        let mut scratch = SimScratch::new();
        scratch.index_graph(&g, &dg);
        let rec = RecoveryModel::default();
        let out = simulate_packet_with(
            &mut scratch,
            &g,
            &dg,
            &traces,
            Micros::ZERO,
            DEADLINE,
            &rec,
            1,
            0,
        );
        assert_eq!((out.transmissions, dg.len()), (59, 59));
        // The send, a first offer to each of the other eleven sites, and
        // three offers that beat one: against one push a transmission.
        assert_eq!(scratch.replay().heap_pushes, 15);
        let parent =
            reference(&g, &dg, &traces, Micros::ZERO, DEADLINE, &rec, |_, _, _| true).pushes;
        assert_eq!(parent, 60);
        assert!(parent > scratch.replay().heap_pushes);
    }

    /// A network of directed edges `(tail, head, latency in ms)`, its
    /// nodes named as they first appear, and the graph of all of its
    /// edges from `S` to `D`, with `lossy` edges losing half their
    /// transmissions over one 10 s interval.
    fn toy(
        edges: &[(&str, &str, u64)],
        lossy: &[(&str, &str)],
    ) -> (Graph, DisseminationGraph, TraceSet) {
        let mut b = dg_topology::GraphBuilder::new();
        let mut ids = std::collections::HashMap::new();
        for &(tail, head, ms) in edges {
            let [tail, head] =
                [tail, head].map(|name| *ids.entry(name).or_insert_with(|| b.add_node(name)));
            b.add_edge(tail, head, Micros::from_millis(ms), 1).unwrap();
        }
        let g = b.build();
        let all = g.edges().collect();
        let dg = DisseminationGraph::new(&g, ids["S"], ids["D"], all).unwrap();
        let mut traces = TraceSet::clean(g.edge_count(), 1, Micros::from_secs(10)).unwrap();
        for &(tail, head) in lossy {
            let e = g.edge_between(ids[tail], ids[head]).unwrap();
            traces.set_condition(e, 0, LinkCondition::new(0.5, Micros::ZERO));
        }
        (g, dg, traces)
    }

    /// The first packet whose draws on `edges`, attempt by attempt, come
    /// out as `lost` says under the toy's 50 % loss.
    fn packet_losing(g: &Graph, edges: &[(&str, &str)], lost: &[[bool; 2]]) -> u64 {
        let id = |name| g.node_by_name(name).unwrap();
        (0..)
            .find(|&seq| {
                edges.iter().zip(lost).all(|(&(tail, head), attempts)| {
                    let e = g.edge_between(id(tail), id(head)).unwrap().index() as u32;
                    (0..2).all(|a| {
                        (crate::rng::unit_sample(7, e, seq, a) < 0.5) == attempts[a as usize]
                    })
                })
            })
            .unwrap()
    }

    /// Packet `seq` sent at zero: what the wave's repair says, if it
    /// answers, and what the event heap says.
    fn repaired_and_defined(
        g: &Graph,
        dg: &DisseminationGraph,
        traces: &TraceSet,
        recovery: &RecoveryModel,
        seq: u64,
    ) -> (Option<(Option<Micros>, u64)>, PacketOutcome) {
        let mut scratch = SimScratch::new();
        scratch.index_graph(g, dg);
        scratch.build_wave(g, traces, dg.source(), 0, DEADLINE, recovery, 7);
        assert!(scratch.wave_covers(Micros::ZERO));
        let first = scratch.wave_loss(seq).expect("the packet loses a draw");
        let repaired = scratch
            .repair(g, traces, dg.source(), seq, Micros::ZERO, first)
            .map(|spread| (spread.delivered_after(dg), spread.transmissions));
        assert_eq!(scratch.replay().wave_repairs, u64::from(repaired.is_some()));
        let defined = simulate_packet_with(
            &mut scratch,
            g,
            dg,
            traces,
            Micros::ZERO,
            DEADLINE,
            recovery,
            7,
            seq,
        );
        (repaired, defined)
    }

    /// S reaches A and B at 10 ms and D at 20 ms through A; A→B (at
    /// 40 ms) and S→D (at 35 ms) are slack. A retransmission lands a gap
    /// (10 ms) plus three latencies after its tail had the packet.
    const KITE: [(&str, &str, u64); 5] =
        [("S", "A", 10), ("S", "B", 10), ("A", "D", 10), ("A", "B", 30), ("S", "D", 35)];

    #[test]
    fn a_slack_loss_costs_its_retransmission_and_nothing_else() {
        let (g, dg, traces) = toy(&KITE, &[("A", "B")]);
        let seq = packet_losing(&g, &[("A", "B")], &[[true, false]]);
        for (enabled, retransmissions) in [(true, 1), (false, 0)] {
            let recovery = RecoveryModel { enabled, ..RecoveryModel::default() };
            let (repaired, defined) = repaired_and_defined(&g, &dg, &traces, &recovery, seq);
            let clean = Some(Micros::from_millis(20));
            assert_eq!(repaired, Some((clean, dg.len() as u64 + retransmissions)));
            assert_eq!(repaired, Some((defined.delivered_at, defined.transmissions)));
        }
    }

    #[test]
    fn a_tight_loss_takes_its_derived_wave() {
        // Losing S→A leaves D to S→D at 35 ms: A's retransmission lands
        // at 10 + 3 × 10 = 40 ms (a gap, a NACK back, the resend), too
        // late for A→D to win.
        let (g, dg, traces) = toy(&KITE, &[("S", "A")]);
        let recovery = RecoveryModel::default();
        for retry_lost in [false, true] {
            let seq = packet_losing(&g, &[("S", "A")], &[[true, retry_lost]]);
            let (repaired, defined) = repaired_and_defined(&g, &dg, &traces, &recovery, seq);
            assert_eq!(repaired, Some((defined.delivered_at, defined.transmissions)));
            assert_eq!(defined.delivered_at, Some(Micros::from_millis(35)));
            // A forwards on two edges only when its retransmission lands.
            let sent = if retry_lost { dg.len() - 2 } else { dg.len() };
            assert_eq!(defined.transmissions, sent as u64 + 1, "retry lost: {retry_lost}");
        }
    }

    #[test]
    fn two_tight_losses_take_the_event_heap() {
        let recovery = RecoveryModel::default();
        // Both tight in the wave.
        let (g, dg, traces) = toy(&KITE, &[("S", "A"), ("A", "D")]);
        let seq = packet_losing(&g, &[("S", "A"), ("A", "D")], &[[true, false], [true, false]]);
        let (repaired, defined) = repaired_and_defined(&g, &dg, &traces, &recovery, seq);
        assert_eq!(repaired, None);
        assert_eq!(defined.delivered_at, Some(Micros::from_millis(35)));
        // S→D is slack in the wave, but tight once S→A is lost.
        let (g, dg, traces) = toy(&KITE, &[("S", "A"), ("S", "D")]);
        let seq = packet_losing(&g, &[("S", "A"), ("S", "D")], &[[true, false], [true, false]]);
        let (repaired, defined) = repaired_and_defined(&g, &dg, &traces, &recovery, seq);
        assert_eq!(repaired, None);
        assert_eq!(defined.delivered_at, Some(Micros::from_millis(50)), "A's retry, then A→D");
    }

    #[test]
    fn a_tie_is_two_tight_draws_either_of_which_is_enough() {
        // D is reached at 20 ms through A and through B at once.
        let diamond = [("S", "A", 10), ("S", "B", 10), ("A", "D", 10), ("B", "D", 10)];
        let (g, dg, traces) = toy(&diamond, &[("A", "D"), ("B", "D")]);
        let mut scratch = SimScratch::new();
        scratch.index_graph(&g, &dg);
        let recovery = RecoveryModel::default();
        scratch.build_wave(&g, &traces, dg.source(), 0, DEADLINE, &recovery, 7);
        assert!(scratch.wave.links.iter().all(|link| link.tight));
        let legs = [("A", "D"), ("B", "D")];
        for (lost, repairs) in [([[true, false], [false, false]], true), ([[true, true]; 2], false)]
        {
            let seq = packet_losing(&g, &legs, &lost);
            let (repaired, defined) = repaired_and_defined(&g, &dg, &traces, &recovery, seq);
            assert_eq!(repaired.is_some(), repairs, "{lost:?}");
            if let Some(repaired) = repaired {
                assert_eq!(repaired, (Some(Micros::from_millis(20)), dg.len() as u64 + 1));
                assert_eq!(repaired, (defined.delivered_at, defined.transmissions));
            } else {
                assert_eq!(defined.delivered_at, None, "both legs and both retries lost");
            }
        }
    }

    /// Per-edge loss rates the proptest draws from, and extra latencies:
    /// none, some, past the 65 ms deadline, and one that saturates.
    const LOSS: [f64; 4] = [0.0, 2e-4, 0.5, 1.0];
    const EXTRA: [Micros; 4] =
        [Micros::ZERO, Micros::from_millis(8), Micros::from_millis(80), Micros::MAX];
    /// Deadlines, as multiples of the one the graphs are built for;
    /// `None` never expires.
    const SLACK: [Option<f64>; 6] = [Some(0.0), Some(0.25), Some(0.5), Some(1.0), Some(2.0), None];

    /// A topology, a flow, a second receiver and the deadline the
    /// graphs are built for: US-12's NYC→SJC and LAX at 65 ms, or the
    /// longest representative flow of a generated Waxman graph, the
    /// site farthest from its source, and twice their shortest paths.
    fn network(waxman: Option<(usize, u64)>) -> (Graph, Flow, NodeId, Micros) {
        let Some((nodes, seed)) = waxman else {
            let (g, _, _, flow) = setup();
            let lax = g.node_by_name("LAX").unwrap();
            return (g, flow, lax, DEADLINE);
        };
        let g = dg_topology::generate::GeneratorConfig::waxman(nodes, seed).generate();
        let (s, d) = dg_topology::generate::representative_flows(&g, 1, seed)[0];
        let from_s = dijkstra::distances_from(&g, s, |_| true);
        let far = (0..g.node_count() as u32)
            .map(NodeId::new)
            .filter(|&r| r != s && r != d && from_s[r.index()] < Micros::MAX)
            .max_by_key(|&r| (from_s[r.index()], r))
            .unwrap();
        let deadline = dg_topology::generate::feasible_deadline(&g, &[(s, d), (s, far)], 2.0);
        (g, Flow::new(s, d), far, deadline)
    }

    /// Flooding, targeted redundancy, and a graph of two receivers —
    /// the union of a node-disjoint pair to each.
    fn graphs(g: &Graph, flow: Flow, other: NodeId, deadline: Micros) -> [DisseminationGraph; 3] {
        use dg_core::scheme::{build_scheme, SchemeKind, SchemeParams};
        let requirement = dg_core::ServiceRequirement::new(deadline);
        let kind = SchemeKind::TargetedRedundancy;
        let targeted = build_scheme(kind, g, flow, requirement, &SchemeParams::default()).unwrap();
        let pair =
            |r| match disjoint::disjoint_pair(g, flow.source, r, disjoint::Disjointness::Node) {
                Ok((a, b)) => [a.edges(), b.edges()].concat(),
                Err(_) => dijkstra::shortest_path(g, flow.source, r).unwrap().edges().to_vec(),
            };
        let edges = [pair(flow.destination), pair(other)].concat();
        let group = DisseminationGraph::with_receivers(
            g,
            flow.source,
            vec![flow.destination, other],
            edges,
        )
        .unwrap();
        [flooding(g, flow, deadline), targeted.current().clone(), group]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `propagate` against the loop that pushes every transmission
        /// that gets through: the same first arrivals, transmissions and
        /// draws, for a sampled packet and for the wavefront
        /// [`SimScratch::build_wave`] records — and never more pushes.
        #[test]
        fn propagate_settles_as_pushing_every_transmission_does(
            (waxman, nodes, topology_seed) in (any::<bool>(), 30usize..51, 1u64..5),
            impairments in
                proptest::collection::vec((0u32..1_000, 0usize..3, 0usize..4, 0usize..4), 0..40),
            background in any::<bool>(),
            short_intervals in any::<bool>(),
            recovery in any::<bool>(),
            slack in 0usize..SLACK.len(),
            send_us in 0u64..4_000_000,
            (seed, seq) in (0u64..1_000, 0u64..1_000),
        ) {
            let (g, flow, other, built_for) = network(waxman.then_some((nodes, topology_seed)));
            let interval =
                if short_intervals { Micros::from_millis(40) } else { Micros::from_secs(1) };
            let intervals = (Micros::from_secs(4).as_micros() / interval.as_micros()) as usize;
            let mut traces = TraceSet::clean(g.edge_count(), intervals, interval).unwrap();
            if background {
                for e in g.edges() {
                    for i in 0..intervals {
                        traces.set_condition(e, i, LinkCondition::new(LOSS[1], Micros::ZERO));
                    }
                }
            }
            // Impaired in the send's interval and the two after it, where
            // the packet is.
            let send = Micros::from_micros(send_us);
            for &(e, later, loss, extra) in &impairments {
                let e = EdgeId::new(e % g.edge_count() as u32);
                let i = (traces.interval_at(send) + later).min(intervals - 1);
                traces.set_condition(e, i, LinkCondition::new(LOSS[loss], EXTRA[extra]));
            }
            let deadline = match SLACK[slack] {
                Some(slack) => Micros::from_micros((built_for.as_micros() as f64 * slack) as u64),
                None => Micros::MAX,
            };
            let rec = RecoveryModel { enabled: recovery, ..RecoveryModel::default() };
            let expiry = send.saturating_add(deadline);
            let n = g.node_count();
            let mut scratch = SimScratch::new();
            for dg in graphs(&g, flow, other, built_for) {
                scratch.index_graph(&g, &dg);
                // A sampled packet: the draws asked for, in order.
                let mut asked = Vec::new();
                let mut draw = sampled(seed, seq);
                let pushes = scratch.replay().heap_pushes;
                let record = |e: EdgeId, a, l: f64| {
                    asked.push((e, a, l.to_bits()));
                    draw(e, a, l)
                };
                let transmissions =
                    propagate(&mut scratch, &g, dg.source(), &traces, send, expiry, &rec, record);
                let mut defined_asked = Vec::new();
                let mut draw = sampled(seed, seq);
                let defined = reference(&g, &dg, &traces, send, expiry, &rec, |e, a, l| {
                    defined_asked.push((e, a, l.to_bits()));
                    draw(e, a, l)
                });
                prop_assert_eq!(
                    first_arrivals(&scratch.arrival, scratch.generation, n),
                    defined.arrival
                );
                prop_assert_eq!(transmissions, defined.transmissions);
                prop_assert_eq!(&asked, &defined_asked);
                prop_assert!(scratch.replay().heap_pushes - pushes <= defined.pushes);

                // The wavefront of the send's interval: the draws it
                // records, whether each is tight, its arrivals and its
                // transmissions.
                let i = traces.interval_at(send);
                let (from, end) = traces.interval_span(i);
                scratch.build_wave(&g, &traces, dg.source(), i, deadline, &rec, seed);
                if from >= end.saturating_sub(deadline) {
                    continue; // too short to build
                }
                let no_recovery = RecoveryModel { enabled: false, gap_detection: Micros::ZERO };
                let mut noted = Vec::new();
                let note = |e: EdgeId, _, l| {
                    noted.push((edge_prefix(seed, e.index() as u32), survival_threshold(l), e));
                    true
                };
                let expiry = from.saturating_add(deadline);
                let wave = reference(&g, &dg, &traces, from, expiry, &no_recovery, note);
                noted.retain(|&(_, threshold, _)| threshold > 0);
                noted.sort_unstable_by_key(|&(prefix, threshold, _)| (Reverse(threshold), prefix));
                let draws: Vec<_> = noted.iter().map(|&(p, threshold, _)| (p, threshold)).collect();
                prop_assert_eq!(&scratch.wave.draws, &draws);
                // Tight: the transmission's arrival is its head's first.
                let tight: Vec<bool> = noted
                    .iter()
                    .map(|&(_, _, e)| {
                        let edge = g.edge(e);
                        let at_tail = wave.arrival[edge.src.index()].expect("it transmitted");
                        let extra = traces.condition_at(e, at_tail).extra_latency;
                        let offered = at_tail.saturating_add(edge.latency.saturating_add(extra));
                        wave.arrival[edge.dst.index()] == Some(offered)
                    })
                    .collect();
                let marked: Vec<bool> = scratch.wave.links.iter().map(|l| l.tight).collect();
                prop_assert_eq!(marked, tight);
                prop_assert_eq!(
                    first_arrivals(&scratch.wave.arrival, scratch.wave.generation, n),
                    wave.arrival
                );
                prop_assert_eq!(scratch.wave.transmissions, wave.transmissions);

                // Every packet the wave repairs spreads as the event heap
                // spreads it.
                if !scratch.wave_covers(send) {
                    continue;
                }
                for q in seq..seq + 64 {
                    let Some(first) = scratch.wave_loss(q) else { continue };
                    let Some(repaired) = scratch
                        .repair(&g, &traces, dg.source(), q, send, first)
                        .map(|s| (s.delivered_after(&dg), s.transmissions))
                    else {
                        continue;
                    };
                    let expiry = send.saturating_add(deadline);
                    let heap = propagate(
                        &mut scratch,
                        &g,
                        dg.source(),
                        &traces,
                        send,
                        expiry,
                        &rec,
                        sampled(seed, q),
                    );
                    let spread = scratch.spread(send, heap);
                    prop_assert_eq!(repaired, (spread.delivered_after(&dg), heap), "seq {}", q);
                }
            }
        }
    }
}
