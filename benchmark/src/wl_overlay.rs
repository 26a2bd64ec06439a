//! The three overlay workloads: `path_loss`, `fwd_sat_64` and
//! `fwd_sat_1200`. A traced `fwd_sat_64` run adds the idle-latency legs
//! (the same chain at 2000 pps on `reactor:2` and on `threaded`).

use crate::overlay::{chain4, run_trial, warm_up, Instance, Load, OverlaySpec, Trial, STALL_US};
use crate::report::RunResult;
use crate::stats::{better_quartile, median, Better};
use crate::{layers, Ctx};
use dg_core::scheme::SchemeKind;
use dg_core::Flow;
use dg_overlay::cluster::ClusterConfig;
use dg_overlay::fault::{BurstLoss, LinkFault};
use dg_overlay::metrics::EventKind;
use dg_overlay::{ClusterMetricsReport, NodeCounters};
use dg_topology::{presets, EdgeId, NodeId};
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PathLoss,
    HopIdle,
    FwdSat { payload: usize },
}

impl Kind {
    fn load(self) -> (Load, usize) {
        match self {
            // Half a core's worth: at 2000 pps the 36 threads need one whole
            // core of this host's two, and any disturbance queues packets
            // past their deadline (README, "What differs from the issue").
            Kind::PathLoss => (Load::Open { pps: 1000 }, 256),
            Kind::HopIdle => (Load::Open { pps: 2000 }, 64),
            // Two batches in flight. The relays re-ship about 1.5 packets
            // per datagram, and a node's 208 KiB socket buffer holds
            // fewer than a hundred such datagrams of 1200 B payloads: a
            // larger window measures kernel drops and NACK recovery,
            // not forwarding (see README, "Baseline facts").
            Kind::FwdSat { payload } => (Load::Closed { batch: 32, cap: 64 }, payload),
        }
    }

    /// Nominal trial length and the longest drain at its end, in
    /// seconds.
    fn trial_shape(self) -> (f64, f64) {
        match self {
            // 1 s clean / 1 s loss at the source / 1 s clean / 1 s loss
            // at the destination, then the drain.
            Kind::PathLoss => (4.4, 0.4),
            Kind::HopIdle => (2.0, 0.15),
            // Many short trials: the host disturbs this pipeline of
            // thirteen threads for seconds at a time, and the better
            // quartile needs trials that fall between disturbances. A
            // closed loop has 64 packets to drain, which takes under a
            // millisecond unless some were lost.
            Kind::FwdSat { .. } => (0.5, 0.05),
        }
    }

    fn spec(self, seed: u64, runtime: &'static str) -> OverlaySpec {
        match self {
            Kind::PathLoss => {
                let graph = presets::north_america_12();
                let flow = Flow::new(
                    graph.node_by_name("NYC").expect("preset has NYC"),
                    graph.node_by_name("SJC").expect("preset has SJC"),
                );
                OverlaySpec {
                    graph,
                    flow,
                    runtime,
                    scheme: SchemeKind::TargetedRedundancy,
                    config: ClusterConfig { fault_seed: seed, ..ClusterConfig::default() },
                }
            }
            Kind::HopIdle | Kind::FwdSat { .. } => {
                let (graph, flow) = chain4();
                OverlaySpec {
                    graph,
                    flow,
                    runtime,
                    scheme: SchemeKind::StaticSinglePath,
                    config: ClusterConfig {
                        // Measure the software path, not emulated
                        // propagation; loopback takes 64 KiB datagrams.
                        latency_scale: 0.0,
                        max_batch_bytes: 60_000,
                        fault_seed: seed,
                        ..ClusterConfig::default()
                    },
                }
            }
        }
    }

    fn runtime(self) -> &'static str {
        match self {
            // Only ever an extra leg, which names its runtime itself.
            Kind::HopIdle => "reactor:2",
            Kind::PathLoss | Kind::FwdSat { .. } => "threaded",
        }
    }
}

/// Background Gilbert–Elliott loss on every edge of `path_loss`.
const BACKGROUND: BurstLoss =
    BurstLoss { p_enter: 0.001, p_exit: 0.2, good_loss: 0.0, bad_loss: 0.5 };

fn set_loss(inst: &Instance, edges: &[EdgeId], loss: f64) {
    for &e in edges {
        inst.cluster.set_link_impairment(
            e,
            LinkFault { loss, burst: Some(BACKGROUND), ..LinkFault::default() },
        );
    }
}

fn edges_around(inst: &Instance, node: NodeId) -> Vec<EdgeId> {
    let g = inst.cluster.graph();
    g.out_edges(node).iter().chain(g.in_edges(node)).copied().collect()
}

/// The fault schedule of one `path_loss` trial, driven from the
/// generator's tick, and the reaction time it observes.
struct LossPhases {
    phase_us: u64,
    started_us: Option<u64>,
    phase: usize,
    around_src: Vec<EdgeId>,
    around_dst: Vec<EdgeId>,
    /// Injection time and the graph in force then, until the source is
    /// seen to switch.
    awaiting: Option<(u64, Vec<EdgeId>)>,
    last_poll_us: u64,
    react_ms: Vec<f64>,
}

impl LossPhases {
    fn new(inst: &Instance, phase: Duration) -> Self {
        LossPhases {
            phase_us: phase.as_micros() as u64,
            started_us: None,
            phase: 0,
            around_src: edges_around(inst, inst.flow.source),
            around_dst: edges_around(inst, inst.flow.destination),
            awaiting: None,
            last_poll_us: 0,
            react_ms: Vec::new(),
        }
    }

    fn tick(&mut self, inst: &Instance, now_us: u64) {
        let started = *self.started_us.get_or_insert(now_us);
        let due_phase = (((now_us - started) / self.phase_us) as usize).min(4);
        while self.phase < due_phase {
            self.phase += 1;
            match self.phase {
                1 => set_loss(inst, &self.around_src, 0.5),
                2 => set_loss(inst, &self.around_src, 0.0),
                3 => set_loss(inst, &self.around_dst, 0.5),
                _ => set_loss(inst, &self.around_dst, 0.0),
            }
            if self.phase % 2 == 1 {
                self.awaiting = Some((now_us, inst.tx.current_graph().edges().to_vec()));
            } else {
                self.awaiting = None;
            }
        }
        let Some((injected_us, before)) = &self.awaiting else { return };
        if now_us - self.last_poll_us < 2_000 {
            return;
        }
        self.last_poll_us = now_us;
        if inst.tx.current_graph().edges() != before.as_slice() {
            // The journal stamps the switch itself; the poll only says
            // when to look.
            let journal = inst.cluster.node(inst.flow.source).metrics_snapshot().events;
            let at = journal
                .iter()
                .filter(
                    |e| matches!(e.kind, EventKind::RouteChange { flow, .. } if flow == inst.flow),
                )
                .map(|e| e.at.as_micros())
                .find(|&at| at >= *injected_us)
                .unwrap_or(now_us);
            self.react_ms.push((at - injected_us) as f64 / 1000.0);
            self.awaiting = None;
        }
    }
}

/// Counter movement over one trial.
struct Delta {
    totals: NodeCounters,
    sent: u64,
    transmissions: u64,
    graph_changes: u64,
}

impl Delta {
    fn per_sent(&self, n: u64) -> f64 {
        n as f64 / self.sent.max(1) as f64
    }
}

fn delta(before: &ClusterMetricsReport, after: &ClusterMetricsReport, flow: Flow) -> Delta {
    let sub = |f: fn(&NodeCounters) -> u64| f(&after.totals).saturating_sub(f(&before.totals));
    let totals = NodeCounters {
        datagrams_sent: sub(|c| c.datagrams_sent),
        data_sent: sub(|c| c.data_sent),
        duplicates: sub(|c| c.duplicates),
        expired: sub(|c| c.expired),
        malformed: sub(|c| c.malformed),
        fault_drops: sub(|c| c.fault_drops),
        shipper_drops: sub(|c| c.shipper_drops),
        delivery_drops: sub(|c| c.delivery_drops),
        retransmit_requests_received: sub(|c| c.retransmit_requests_received),
        retransmissions_served: sub(|c| c.retransmissions_served),
        retransmit_misses: sub(|c| c.retransmit_misses),
        retransmits_suppressed: sub(|c| c.retransmits_suppressed),
        nack_messages_sent: sub(|c| c.nack_messages_sent),
        ..NodeCounters::default()
    };
    let flow_of = |r: &ClusterMetricsReport| r.flow(flow).copied();
    let (b, a) = (flow_of(before), flow_of(after));
    let field = |f: fn(&dg_overlay::metrics::FlowReport) -> u64| {
        a.as_ref().map_or(0, f).saturating_sub(b.as_ref().map_or(0, f))
    };
    Delta {
        totals,
        sent: field(|f| f.packets_sent),
        transmissions: field(|f| f.transmissions),
        graph_changes: field(|f| f.graph_changes),
    }
}

struct Measured {
    trial: Trial,
    delta: Delta,
    traced: bool,
    /// The generator ran more than [`STALL_US`] late: a host stall.
    stalled: bool,
    /// The host's speed during the trial, which scales the rates and
    /// times of a saturating trial (they are bound by the processor) to
    /// the reference host. 1 for an open-loop trial, whose latencies are
    /// set by timers and emulated propagation, not by the processor.
    host_speed: f64,
    /// A closed-loop trial.
    saturating: bool,
}

impl Measured {
    fn pps(&self) -> f64 {
        self.trial.pps() / self.host_speed
    }
    fn lat_p50_us(&self) -> f64 {
        self.trial.lat_p50_us * self.host_speed
    }
    /// The 99th percentile of an open-loop trial, which on `path_loss` is
    /// the recovery path. The 90th of a saturating trial: in half a
    /// second with every core busy, the 99th is the host's longest pause.
    fn lat_tail_us(&self) -> f64 {
        if self.saturating {
            self.trial.lat_p90_us * self.host_speed
        } else {
            self.trial.lat_p99_us
        }
    }
    fn cpu_us_per_pkt(&self) -> f64 {
        1e6 * self.trial.cpu_s / self.trial.delivered.max(1) as f64 * self.host_speed
    }
}

/// How often a saturating trial's generator reads the host's speed. A
/// reading takes it 1 ms, during which the 64 packets outstanding drain:
/// 2 % of the trial, the same in every trial.
const SPEED_EVERY_US: u64 = 50_000;

/// Launches, converges, applies the workload's standing faults and
/// warms up: everything before the first timed operation.
fn set_up(kind: Kind, seed: u64, runtime: &'static str) -> Result<Instance, String> {
    let mut inst = Instance::launch(&kind.spec(seed, runtime))?;
    if kind == Kind::PathLoss {
        let all: Vec<EdgeId> = inst.cluster.graph().edges().collect();
        set_loss(&inst, &all, 0.0);
    }
    let (load, payload) = kind.load();
    warm_up(&mut inst, load, payload, Duration::from_millis(300));
    Ok(inst)
}

/// How many trials to run, how long each, and from which one on a
/// traced run records spans.
struct Plan {
    trials: usize,
    trial_s: f64,
    traced_from: usize,
}

/// Runs the plan's trials on `inst`. An open-loop trial whose generator
/// ran more than [`STALL_US`] late was hit by a host stall and is marked
/// `stalled`.
fn run_trials(
    kind: Kind,
    inst: &mut Instance,
    ctx: &mut Ctx,
    plan: &Plan,
    react_ms: &mut Vec<f64>,
) -> Vec<Measured> {
    let Plan { trials, trial_s, traced_from } = *plan;
    let (load, payload) = kind.load();
    let (_, drain_s) = kind.trial_shape();
    let window = Duration::from_secs_f64((trial_s - drain_s).max(0.2));
    let drain = Duration::from_secs_f64(drain_s);
    let mut out = Vec::with_capacity(trials);
    for i in 0..trials {
        let traced = ctx.traced && i >= traced_from;
        let was = ctx.tracer.set_enabled(traced);
        let before = inst.report();
        let mut phases = (kind == Kind::PathLoss).then(|| LossPhases::new(inst, window / 4));
        let saturating = matches!(load, Load::Closed { .. });
        let (mut speeds, mut next_reading_us) = (Vec::new(), 0);
        let speed = &mut ctx.speed;
        let trial = run_trial(inst, load, payload, window, drain, ctx.tracer, &mut |inst, now| {
            if let Some(p) = phases.as_mut() {
                p.tick(inst, now);
            }
            if saturating && now >= next_reading_us {
                speeds.push(speed.sample());
                next_reading_us = now + SPEED_EVERY_US;
            }
        });
        let host_speed =
            if speeds.is_empty() { 1.0 } else { speeds.iter().sum::<f64>() / speeds.len() as f64 };
        ctx.tracer.set_enabled(was);
        let after = inst.report();
        let stalled = matches!(load, Load::Open { .. }) && trial.gen_late_max_us > STALL_US;
        if let Some(p) = phases {
            react_ms.extend(p.react_ms);
        }
        eprintln!(
            "dg-perf: trial {i}{}{}: {} sent, {} delivered, {:.0} pps, on time {:.4}, p50 {:.0} us, p90 {:.0} us, p99 {:.0} us, generator late max {:.0} us, cpu {:.2} us/pkt, host speed {:.3}",
            if traced { " (traced)" } else { "" },
            if stalled { " (generator stalled)" } else { "" },
            trial.attempted,
            trial.delivered,
            trial.pps(),
            trial.on_time_frac(),
            trial.lat_p50_us,
            trial.lat_p90_us,
            trial.lat_p99_us,
            trial.gen_late_max_us,
            1e6 * trial.cpu_s / trial.delivered.max(1) as f64,
            host_speed
        );
        out.push(Measured {
            delta: delta(&before, &after, inst.flow),
            trial,
            traced,
            stalled,
            host_speed,
            saturating,
        });
    }
    out
}

/// The same chain at 2000 pps × 64 B on `runtime`, one trial: the idle
/// latency of three hops. Returns the trial and its NACKs per 1000
/// packets (not zero: the kernel dropped), or records why there is none.
fn idle_leg(ctx: &mut Ctx, runtime: &'static str, result: &mut RunResult) -> Option<(Trial, f64)> {
    let kind = Kind::HopIdle;
    let mut inst = match set_up(kind, ctx.seed, runtime) {
        Ok(inst) => inst,
        Err(e) => {
            result.check_failures.push(format!("idle leg on {runtime}: {e}"));
            return None;
        }
    };
    let one = Plan { trials: 1, trial_s: kind.trial_shape().0, traced_from: 1 };
    let leg = run_trials(kind, &mut inst, ctx, &one, &mut Vec::new()).pop()?;
    result.failed += leg.trial.hard_failures();
    Instance::shutdown(inst);
    let nack_per_kpkt = 1000.0 * leg.delta.per_sent(leg.delta.totals.nack_messages_sent);
    Some((leg.trial, nack_per_kpkt))
}

pub fn run(kind: Kind, ctx: &mut Ctx) -> RunResult {
    let (nominal_s, _) = kind.trial_shape();
    let trials = ((ctx.budget_s() / nominal_s).floor() as usize).max(2);
    let trial_s = ctx.budget_s() / trials as f64;
    let mut result = RunResult::new(ctx.stamp(kind.runtime().to_string(), trials, trial_s));

    let seed = ctx.seed;
    let launched = ctx.set_up(3, false, || set_up(kind, seed, kind.runtime()), Instance::shutdown);
    let (mut inst, setup_s) = match launched {
        Ok(done) => done,
        Err(e) => {
            result.check_failures.push(format!("set-up failed: {e}"));
            return result;
        }
    };

    // Traced runs measure the first half of the trials untraced, so the
    // overhead of tracing is read off the same instance.
    let plan = Plan { trials, trial_s, traced_from: if ctx.traced { trials / 2 } else { trials } };
    let mut react_ms = Vec::new();
    let measured = run_trials(kind, &mut inst, ctx, &plan, &mut react_ms);

    // Conservation, after everything in flight has landed or expired.
    std::thread::sleep(Duration::from_millis(150));
    inst.popped += inst.rx.drain().len() as u64;
    let last = inst.report();
    match last.flow(inst.flow) {
        None => result.check_failures.push("the flow is missing from metrics_report()".into()),
        Some(f) => {
            result.check(f.packets_sent == f.packets_delivered + f.packets_lost, || {
                format!(
                    "packets_sent {} != delivered {} + lost {}",
                    f.packets_sent, f.packets_delivered, f.packets_lost
                )
            });
            result.check(f.packets_sent == inst.next_seq, || {
                format!(
                    "metrics_report() saw {} sends, the harness made {}",
                    f.packets_sent, inst.next_seq
                )
            });
            let handed_over = inst.popped + last.totals.delivery_drops;
            result.check(f.packets_delivered == handed_over, || {
                format!(
                    "nodes delivered {}, the receiver popped or shed {handed_over}",
                    f.packets_delivered
                )
            });
        }
    }

    // The trials a host stall hit hardest are left out of the numbers:
    // at most two, and never so many that fewer than two remain.
    let mut by_lateness: Vec<&Measured> = measured.iter().collect();
    by_lateness.sort_by(|a, b| b.trial.gen_late_max_us.total_cmp(&a.trial.gen_late_max_us));
    let allowed = measured.len().saturating_sub(2).min(2);
    let discard = by_lateness.iter().take(allowed).filter(|m| m.stalled).count();
    let kept = &by_lateness[discard..];

    // Timings and the on-time fraction: the better quartile over the
    // trials. Counts and their ratios: the median.
    let of = |ms: &[&Measured], f: &dyn Fn(&Measured) -> f64| {
        ms.iter().map(|m| f(m)).collect::<Vec<f64>>()
    };
    let q = |better: Better, f: fn(&Measured) -> f64| better_quartile(&of(kept, &|m| f(m)), better);
    let t =
        |better: Better, f: fn(&Trial) -> f64| better_quartile(&of(kept, &|m| f(&m.trial)), better);
    let d = |f: fn(&Delta) -> f64| median(&of(kept, &|m| f(&m.delta)));

    result.attempted = measured.iter().map(|m| m.trial.attempted).sum();
    result.failed = measured.iter().map(|m| m.trial.hard_failures()).sum();
    let missed: u64 = measured.iter().map(|m| m.trial.attempted - m.trial.on_time).sum();

    result.set("setup_s", setup_s);
    result.set("ops_per_s", q(Better::Higher, Measured::pps));
    result.set("on_time_frac", t(Better::Higher, Trial::on_time_frac));
    result.set("lat_p50_us", q(Better::Lower, Measured::lat_p50_us));
    result.set("lat_tail_us", q(Better::Lower, Measured::lat_tail_us));
    result.set("tx_per_pkt", d(|d| d.per_sent(d.transmissions)));

    result.set("harness.gen_late_p99_us", t(Better::Lower, |t| t.gen_late_p99_us));
    result.set(
        "harness.gen_late_max_us",
        measured.iter().map(|m| m.trial.gen_late_max_us).fold(0.0, f64::max),
    );
    result.set("harness.trials_discarded", discard as f64);
    result.set(
        "harness.cpu_util",
        t(Better::Higher, |t| t.cpu_s / t.wall_s / crate::host::cores() as f64),
    );
    result.set("harness.samples", measured.iter().map(|m| m.trial.delivered).sum::<u64>() as f64);
    result.set("harness.deadline_missed", missed as f64);

    result.set("overlay.monitor.react_ms", median(&react_ms));
    result.set("core.scheme.graph_changes", d(|d| d.graph_changes as f64));
    result.set(
        "overlay.recovery.nack_per_kpkt",
        d(|d| 1000.0 * d.per_sent(d.totals.nack_messages_sent)),
    );
    result.set("overlay.recovery.retx_served", d(|d| d.totals.retransmissions_served as f64));
    result.set("overlay.recovery.retx_suppressed", d(|d| d.totals.retransmits_suppressed as f64));
    result.set("overlay.recovery.retx_miss", d(|d| d.totals.retransmit_misses as f64));
    result.set(
        "overlay.recovery.useful_frac",
        d(|d| {
            d.totals.retransmissions_served as f64
                / d.totals.retransmit_requests_received.max(1) as f64
        }),
    );
    result.set("overlay.session.dup_per_pkt", d(|d| d.per_sent(d.totals.duplicates)));
    result.set("overlay.fault.drops", d(|d| d.totals.fault_drops as f64));
    result.set("overlay.node.expired", d(|d| d.totals.expired as f64));

    result.set(
        "overlay.node.data_per_datagram",
        d(|d| {
            (d.totals.data_sent + d.totals.retransmissions_served) as f64
                / d.totals.datagrams_sent.max(1) as f64
        }),
    );
    result.set(
        "overlay.node.datagrams_per_delivered",
        median(&of(kept, &|m| {
            m.delta.totals.datagrams_sent as f64 / m.trial.delivered.max(1) as f64
        })),
    );
    result.set("overlay.node.cpu_us_per_pkt", q(Better::Lower, Measured::cpu_us_per_pkt));
    result.set("overlay.node.pps_unscaled", t(Better::Higher, Trial::pps));
    result.set("overlay.node.shipper_drops", d(|d| d.totals.shipper_drops as f64));
    result.set("overlay.session.delivery_drops", d(|d| d.totals.delivery_drops as f64));
    result.set("overlay.node.malformed", d(|d| d.totals.malformed as f64));
    result.set("overlay.node.transit_p50_us", t(Better::Lower, |t| t.transit_p50_us));

    if kind == Kind::PathLoss {
        result.check(d(|d| d.totals.fault_drops as f64) > 0.0, || {
            "path_loss injected no drops: the load was not applied".to_string()
        });
    }

    if ctx.traced {
        let side =
            |traced: bool| kept.iter().copied().filter(|m| m.traced == traced).collect::<Vec<_>>();
        let (traced, plain) = (side(true), side(false));
        result.set(
            "overlay.session.send_call_ns",
            better_quartile(
                &of(&traced, &|m| m.trial.send_call_ns as f64 / m.trial.send_calls.max(1) as f64),
                Better::Lower,
            ),
        );
        if !plain.is_empty() && !traced.is_empty() {
            let rate = |ms: &[&Measured]| better_quartile(&of(ms, &|m| m.pps()), Better::Higher);
            result.set("harness.trace_overhead_frac", 1.0 - rate(&traced) / rate(&plain));
        }
    }
    Instance::shutdown(inst);

    if ctx.traced {
        if let Kind::FwdSat { payload } = kind {
            layers::overlay_calls(ctx, &mut result);
            // The idle legs ride on one of the two saturating workloads.
            if payload == 64 {
                let mut nacks: f64 = 0.0;
                if let Some((leg, nack)) = idle_leg(ctx, "reactor:2", &mut result) {
                    result.set("overlay.runtime.idle_lat_p50_us.reactor", leg.lat_p50_us);
                    result.set("overlay.runtime.idle_lat_p99_us.reactor", leg.lat_p99_us);
                    nacks = nacks.max(nack);
                }
                // Too noisy on a shared host to read more than a median.
                if let Some((leg, nack)) = idle_leg(ctx, "threaded", &mut result) {
                    result.set("overlay.runtime.idle_lat_p50_us.default", leg.lat_p50_us);
                    nacks = nacks.max(nack);
                }
                result.set("overlay.runtime.idle_nack_per_kpkt", nacks);
            }
        }
    }
    result.set("rss_mb", crate::host::peak_rss_mb());
    result
}
