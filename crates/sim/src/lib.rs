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
//! playback loop and one worker pool. The loop has two parameters:
//!
//! - **where the graph comes from** — a
//!   [`RoutingScheme`](dg_core::scheme::RoutingScheme) that sees every
//!   monitoring update and may reroute ([`run_flow`],
//!   [`run_flow_full`], [`run_flows`]), or a fixed graph from the
//!   [`GraphCache`](dg_core::GraphCache) ([`run_groups`]);
//! - **what is accumulated** — per-second records and a latency
//!   histogram for a flow ([`PlaybackOutput`]), or per-receiver
//!   counters for a group ([`GroupRunStats`]).
//!
//! [`run_flows`], [`run_groups`] and [`experiment::run_comparison`] fan
//! their jobs out over the same pool: `threads` workers (zero = one per
//! core), one [`SimScratch`] per worker, results in input order and
//! byte-identical at any worker count.
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
//!
//! // The same flow as a group of one, on the pool: the graph is fetched
//! // from a cache and stays fixed for the run.
//! use dg_core::{GraphCache, MulticastKind};
//! use dg_sim::{run_groups, GroupJob};
//! let cache = GraphCache::new(g.clone(), SchemeParams::default());
//! let job = GroupJob {
//!     source: flow.source,
//!     receivers: vec![flow.destination],
//!     kind: MulticastKind::Tree,
//!     requirement: Default::default(),
//! };
//! let runs = run_groups(&g, &traces, &cache, &[job], &config, 0)?;
//! assert_eq!(runs[0].receivers[0].packets_sent, stats.packets_sent);
//! # Ok::<(), dg_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
mod group;
mod histogram;
mod metrics;
mod packet;
mod parallel;
mod playback;
mod rng;

pub use group::{group_flows, run_groups, GroupJob, GroupRunStats, ReceiverRunStats};
pub use histogram::LatencyHistogram;
pub use metrics::{gap_coverage, FlowRunStats, SecondRecord};
pub use packet::{simulate_packet, simulate_packet_with, PacketOutcome, RecoveryModel, SimScratch};
pub use parallel::{run_flows, FlowJob};
pub use playback::{run_flow, run_flow_full, PlaybackConfig, PlaybackOutput};
