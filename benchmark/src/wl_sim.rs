//! `sim_table2`: the playback simulator as the `table2` experiment runs
//! it — six schemes, 16 flows, a calibrated trace, 100 pps. A traced
//! run adds targeted redundancy alone at 1000 pps, which flooding hides
//! in the six-scheme pass. Nothing here touches the overlay.

use crate::report::RunResult;
use crate::span::clock_ns;
use crate::stats::{better_quartile, quantile, Better};
use crate::{layers, Ctx};
use dg_core::scheme::SchemeKind;
use dg_core::{CoreError, Flow, ServiceRequirement};
use dg_sim::{run_flows, FlowJob, FlowRunStats, PlaybackConfig};
use dg_topology::generate::TopoSpec;
use dg_topology::{Graph, Micros};
use dg_trace::gen::{self, SyntheticWanConfig};
use dg_trace::TraceSet;
use std::time::Instant;

/// The calibrated generator's trace length; each pass replays all of
/// it, and set-up warms up on its first [`WARM_UP_SECS`].
const TRACE_SECS: u64 = 900;
const WARM_UP_SECS: u64 = 120;

/// The trace is the same for every `--seed`, which drives the loss
/// draws only: how many problems a trace holds decides how much work a
/// replay is (15 % between seeds), and runs on different seeds are
/// compared against bounds far tighter than that.
const TRACE_SEED: u64 = 2017;

/// Flow-endpoint sites, which the calibrated generator gives problems
/// six times as often as core hubs (as `dg-bench`'s experiments do).
const ACCESS_SITES: [&str; 8] = ["NYC", "JHU", "WAS", "BOS", "SEA", "SJC", "LAX", "MIA"];

const RATE_PPS: u32 = 100;
/// The traced run's second leg: targeted redundancy alone, ten times
/// the rate.
const TARGETED_LEG_PPS: u32 = 1000;

struct Inputs {
    graph: Graph,
    traces: TraceSet,
    flows: Vec<Flow>,
    /// The jobs of one pass, scheme by scheme and flow by flow. Each is
    /// its own `run_flows` call, so that each is timed between two
    /// readings of the host's speed.
    plan: Vec<FlowJob>,
    config: PlaybackConfig,
    generate_ms: f64,
}

fn job(kind: SchemeKind, flow: Flow) -> FlowJob {
    FlowJob { kind, flow, requirement: ServiceRequirement::default() }
}

/// Topology, the trace, the flow set and a warm-up replay of every job
/// over the trace's first two minutes: everything before the
/// first timed replay.
fn set_up(seed: u64) -> Result<Inputs, CoreError> {
    let spec = TopoSpec::NorthAmerica;
    let graph = spec.build();
    let mut cfg = SyntheticWanConfig::calibrated(TRACE_SEED);
    cfg.duration = Micros::from_secs(TRACE_SECS);
    cfg.node_weights = Some(gen::biased_node_weights(&graph, &ACCESS_SITES, 6.0));
    let t0 = Instant::now();
    let traces = gen::generate(&graph, &cfg);
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let flows: Vec<Flow> =
        spec.default_flows(&graph, 16).into_iter().map(|(s, t)| Flow::new(s, t)).collect();
    let plan: Vec<FlowJob> =
        SchemeKind::ALL.iter().flat_map(|&k| flows.iter().map(move |&f| job(k, f))).collect();
    let config = PlaybackConfig { packets_per_second: RATE_PPS, seed, ..PlaybackConfig::default() };
    let head = traces
        .slice(0, (WARM_UP_SECS / cfg.interval.as_secs()) as usize)
        .expect("the warm-up window lies inside the trace");
    for job in &plan {
        run_flows(&graph, &head, std::slice::from_ref(job), &config, 1)?;
    }
    Ok(Inputs { graph, traces, flows, plan, config, generate_ms })
}

/// One pass: every job of the plan, serial, each timed on the calling
/// thread's processor clock (`run_flows` with one thread replays on the
/// caller) and scaled to the reference host's speed.
struct Pass {
    /// Per job: reference-host seconds and its stats.
    jobs: Vec<(f64, FlowRunStats)>,
    traced: bool,
}

impl Pass {
    fn stats(&self) -> Vec<FlowRunStats> {
        self.jobs.iter().map(|j| j.1).collect()
    }
}

fn packets(stats: &[FlowRunStats]) -> u64 {
    stats.iter().map(|s| s.packets_sent).sum()
}

/// Seconds job `k` takes: the better quartile over the passes.
fn job_seconds(passes: &[&Pass], k: usize) -> f64 {
    better_quartile(&passes.iter().map(|p| p.jobs[k].0).collect::<Vec<_>>(), Better::Lower)
}

fn merged(stats: &[FlowRunStats], kind: SchemeKind) -> Option<FlowRunStats> {
    let mut of_kind = stats.iter().filter(|s| s.scheme == kind);
    let mut total = *of_kind.next()?;
    for s in of_kind {
        total.merge(s);
    }
    Some(total)
}

pub fn run(ctx: &mut Ctx) -> RunResult {
    let threads = crate::host::cores().min(4);
    let fail = |ctx: &Ctx, failed: u64, why: String| {
        let mut result = RunResult::new(ctx.stamp(format!("sim:{threads}"), 0, 0.0));
        result.failed = failed;
        result.check_failures.push(why);
        result
    };
    let seed = ctx.seed;
    let (inputs, setup_s) = match ctx.set_up(5, true, || set_up(seed), drop) {
        Ok(done) => done,
        Err(e) => return fail(ctx, 1, format!("set-up replay failed: {e}")),
    };
    let Inputs { graph, traces, flows, plan, config, generate_ms } = inputs;

    // As many identical passes as fit the run; each is one trial.
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while ctx.fits_another(started, passes.len()) {
        let traced = ctx.traces_trial(passes.len());
        ctx.tracer.set_enabled(traced);
        let mut jobs = Vec::with_capacity(plan.len());
        for (k, job) in plan.iter().enumerate() {
            let wall0 = clock_ns();
            let (out, seconds) = ctx
                .speed
                .timed(|| run_flows(&graph, &traces, std::slice::from_ref(job), &config, 1));
            let op = (passes.len() * plan.len() + k) as u64;
            ctx.tracer.record("sim.playback.run_flows", wall0, clock_ns(), None, op);
            match out {
                Ok(stats) => jobs.push((seconds, stats[0])),
                Err(e) => {
                    return fail(ctx, 1, format!("run_flows({}, {}): {e}", job.kind, job.flow))
                }
            }
        }
        eprintln!(
            "dg-perf: pass {}{}: {:.3} s on the reference host, host speed {:.3}",
            passes.len(),
            if traced { " (traced)" } else { "" },
            jobs.iter().map(|j| j.0).sum::<f64>(),
            ctx.speed.typical()
        );
        passes.push(Pass { jobs, traced });
    }
    ctx.tracer.set_enabled(ctx.traced);
    let trial_s = started.elapsed().as_secs_f64() / passes.len() as f64;
    let mut result = RunResult::new(ctx.stamp(format!("sim:{threads}"), passes.len(), trial_s));

    // The same jobs in one call on the worker pool, outside the timed
    // passes: the results must be byte-identical to the serial ones. Its
    // workers run on every core, so it is timed on the wall clock,
    // scaled by the host's speed before and after.
    let (speed0, t0) = (ctx.speed.sample(), Instant::now());
    let pool = ctx
        .tracer
        .time("sim.parallel.run_flows", 0, || run_flows(&graph, &traces, &plan, &config, threads));
    let pool_s = t0.elapsed().as_secs_f64() * (speed0 + ctx.speed.sample()) / 2.0;
    let serial = passes.last().expect("at least one pass").stats();
    match pool {
        Err(e) => result.check_failures.push(format!("pool run_flows: {e}")),
        Ok(pool) => {
            let same = pool == serial
                && serde_json::to_string(&pool).ok() == serde_json::to_string(&serial).ok();
            result.check(same, || "worker-pool results differ from the serial replay".to_string());
        }
    }
    result.check(passes.iter().all(|p| p.stats() == serial), || {
        "two serial passes over the same inputs disagree".to_string()
    });

    let on_time = |kind| merged(&serial, kind).map_or(0.0, |s| s.on_time_fraction());
    let order = [
        SchemeKind::StaticSinglePath,
        SchemeKind::StaticTwoDisjoint,
        SchemeKind::TargetedRedundancy,
        SchemeKind::TimeConstrainedFlooding,
    ];
    result.check(order.windows(2).all(|w| on_time(w[0]) <= on_time(w[1])), || {
        format!(
            "on-time ordering single <= two-static <= targeted <= flooding is broken: {:?}",
            order.map(on_time)
        )
    });

    // A pass costs the sum of its jobs, each at its better quartile.
    let pass_packets = packets(&serial);
    let scheme_seconds = |ps: &[&Pass], kind: SchemeKind| {
        (0..plan.len()).filter(|&k| plan[k].kind == kind).map(|k| job_seconds(ps, k)).sum::<f64>()
    };
    let rate = |ps: &[&Pass]| {
        pass_packets as f64 / SchemeKind::ALL.iter().map(|&k| scheme_seconds(ps, k)).sum::<f64>()
    };
    let every: Vec<&Pass> = passes.iter().collect();
    let serial_rate = rate(&every);
    let targeted = merged(&serial, SchemeKind::TargetedRedundancy).expect("targeted is replayed");
    // Time per job: the middle of the 96, and the slowest (a flooding
    // job), which bounds a pool's makespan.
    let mut per_job_us: Vec<f64> = (0..plan.len()).map(|k| 1e6 * job_seconds(&every, k)).collect();

    result.attempted = pass_packets * passes.len() as u64;
    result.set("setup_s", setup_s);
    result.set("ops_per_s", serial_rate);
    result.set("on_time_frac", targeted.on_time_fraction());
    result.set("tx_per_pkt", targeted.average_cost());
    result.set("lat_p50_us", quantile(&mut per_job_us, 0.5).unwrap_or(0.0));
    result.set("lat_tail_us", quantile(&mut per_job_us, 0.9).unwrap_or(0.0));

    let pool_rate = pass_packets as f64 / pool_s;
    result.set("harness.samples", (passes.len() * plan.len()) as f64);
    result
        .set("harness.deadline_missed", (targeted.packets_sent - targeted.packets_on_time) as f64);
    result.set("sim.parallel.pkts_per_s", pool_rate);
    result.set("sim.parallel.speedup", pool_rate / serial_rate);
    result.set("sim.parallel.threads", threads as f64);
    result.set("trace.generate_ms", generate_ms);
    for &kind in &SchemeKind::ALL {
        let sent = merged(&serial, kind).map_or(0, |s| s.packets_sent);
        result.set(
            crate::report::per_layer(&format!("sim.playback.pkts_per_s.{}", kind.label())),
            sent as f64 / scheme_seconds(&every, kind),
        );
    }
    if ctx.traced {
        let of = |traced: bool| passes.iter().filter(|p| p.traced == traced).collect::<Vec<_>>();
        if !of(false).is_empty() && !of(true).is_empty() {
            result.set("harness.trace_overhead_frac", 1.0 - rate(&of(true)) / rate(&of(false)));
        }
        // Leg B.
        let fast = PlaybackConfig { packets_per_second: TARGETED_LEG_PPS, ..config };
        let (mut seconds, mut sent) = (0.0, 0u64);
        for (i, &flow) in flows.iter().enumerate() {
            let wall0 = clock_ns();
            let jobs = [job(SchemeKind::TargetedRedundancy, flow)];
            let (out, took) = ctx.speed.timed(|| run_flows(&graph, &traces, &jobs, &fast, 1));
            seconds += took;
            ctx.tracer.record("sim.playback.run_flows.targeted", wall0, clock_ns(), None, i as u64);
            match out {
                Ok(stats) => sent += packets(&stats),
                Err(e) => result.check_failures.push(format!("targeted leg, {flow}: {e}")),
            }
        }
        result.set("sim.playback.pkts_per_s.targeted-1000pps", sent as f64 / seconds);
        layers::sim_calls(ctx, &graph, &traces, flows[0], &mut result);
    }
    result.set("rss_mb", crate::host::peak_rss_mb());
    result
}
