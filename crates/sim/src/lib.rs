//! Playback network simulator for dissemination-graph routing.
//!
//! A reimplementation of the methodology behind the paper's evaluation
//! tool (the Playback Network Simulator): per-link loss and latency
//! conditions recorded in a [`dg_trace::TraceSet`] are *replayed*, and
//! application flows are simulated packet-by-packet over whichever
//! dissemination graph their routing scheme currently selects. Overlay
//! links perform hop-by-hop recovery limited to a single
//! retransmission, exactly like the real transport service.
//!
//! The headline metric is per-second **availability**: a second counts
//! as unavailable when the fraction of its packets delivered within the
//! deadline falls below the configured threshold.
//!
//! # Structure
//!
//! There is one packet function ([`simulate_packet_with`]: the packet
//! spreads through the graph once, however many receivers it has), one
//! playback loop ([`run_flow_full_with`]; [`run_flow`] and
//! [`run_flow_full`] call it on a scratch of their own) and one worker
//! pool ([`run_flows`]). The loop takes its graph from a `&mut dyn`
//! [`RoutingScheme`](dg_core::scheme::RoutingScheme) that sees every
//! monitoring update and may reroute, and fills the flow's
//! [`PlaybackOutput`] — stats, per-second records and a latency
//! histogram — itself.
//!
//! [`run_flows`] and [`experiment::run_comparison`] fan their jobs out
//! over the pool: `threads` workers (zero = one per core), one
//! [`SimScratch`] per worker, results in input order and byte-identical
//! at any worker count.
//!
//! # Replaying what repeats once
//!
//! The packet function runs an event heap, and it is the definition of
//! what every run reports. The playback loop does not run it for every
//! packet. Inside one trace interval conditions are constant and a loss
//! draw is a pure function of `(seed, edge, seq, attempt)`, so every
//! packet that loses nothing spreads the same way: the same nodes at
//! the same offsets from its send, the same transmissions. The loop
//! therefore builds, once per (graph, interval), the **loss-free
//! wavefront** — one run of the same propagation loop in which every
//! draw survives and is noted instead: the edge's half of the hash
//! chain and the smallest surviving draw as an integer. A packet is a
//! *hit* when its `[send, expiry]` lies inside the interval and its
//! first-attempt draws on the noted edges all survive; that costs two
//! hash rounds an edge and no heap, and runs of hits reach the
//! accumulator as one batch.
//!
//! A packet of the interval that loses a draw is **repaired** when it
//! can be. Each noted draw is *tight* when its transmission gave its
//! head the head's first arrival, *slack* otherwise: recovery delay
//! builds up only along the path of first arrivals, and losing a slack
//! transmission changes nothing but the count of retransmissions. One
//! scan of the packet's draws classifies its losses. Only slack ones:
//! the wavefront's outcome, plus one retransmission a loss when links
//! recover. One tight one: the outcome of a *derived wave* — the same
//! propagation with that edge's first attempt lost and its retry given
//! the packet's keyed fate — memoised per `(edge, retry fate)` for the
//! wavefront's life, provided the packet's other losses are slack in
//! it. Two tight losses, and the interval-straddlers, **miss** and run
//! the event heap as before.
//!
//! The event heap settles nodes in `(time, node)` order, as Dijkstra's
//! algorithm does, and holds only the arrivals that beat the best one
//! their node had been offered: one entry per improvement, not one per
//! transmission that got through. Flooding gains most: on US-12 a
//! dozen sites are offered each packet on 59 edges.
//! [`ReplayCounters::heap_pushes`] counts the entries.
//!
//! Why this is exact: if no transmission of the wavefront is lost, the
//! event heap performs the wavefront's pushes and pops in the
//! wavefront's order, shifted in time; conditions are read at visit
//! times, all of which are at or before the expiry and so inside the
//! interval; and the integer comparison is the float comparison
//! (scaling by 2^53 is exact). A repair adds one step: every node the
//! base wave (the wavefront, or a derived wave) reaches is reached
//! through a tight transmission the packet did not lose, and the only
//! offers the packet makes that the base does not are retries of slack
//! losses, which land after their head's arrival in the base; so the
//! packet settles exactly as the base did. A wavefront is dropped with its graph
//! ([`SimScratch::index_graph`], which every run and every reroute
//! calls), rebuilt at each interval with its derived waves, and belongs
//! to the seed, deadline, recovery model and trace of the run that
//! built it: the run holds its `&TraceSet`
//! from start to end, which is what [`simulate_packet_with`] cannot do
//! between calls — so that function stays un-memoised.
//! [`SimScratch::replay`] counts where the packets went
//! ([`ReplayCounters`]); [`run_flow_full_with`] is [`run_flow_full`]
//! over a scratch the caller holds, for reading them.
//!
//! # Example
//!
//! ```
//! use dg_topology::presets;
//! use dg_trace::gen::{self, SyntheticWanConfig};
//! use dg_core::{Flow, scheme::{build_scheme, SchemeKind, SchemeParams}};
//! use dg_sim::{PlaybackConfig, run_flow};
//!
//! let g = presets::north_america_12();
//! let mut cfg = SyntheticWanConfig::calibrated(1);
//! cfg.duration = dg_topology::Micros::from_secs(30);
//! let traces = gen::generate(&g, &cfg);
//! let flow = Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap());
//! let mut scheme = build_scheme(
//!     SchemeKind::StaticTwoDisjoint, &g, flow,
//!     Default::default(), &SchemeParams::default(),
//! )?;
//! let config = PlaybackConfig::default();
//! let stats = run_flow(&g, &traces, scheme.as_mut(), &config);
//! assert_eq!(stats.seconds, 30);
//! # Ok::<(), dg_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
mod histogram;
mod metrics;
mod packet;
mod parallel;
mod playback;
mod rng;

pub use histogram::LatencyHistogram;
pub use metrics::{gap_coverage, FlowRunStats, SecondRecord};
pub use packet::{
    simulate_packet, simulate_packet_with, PacketOutcome, RecoveryModel, ReplayCounters, SimScratch,
};
pub use parallel::{run_flows, FlowJob};
pub use playback::{run_flow, run_flow_full, run_flow_full_with, PlaybackConfig, PlaybackOutput};
