//! `dg-bench` — the repo's performance harness.
//!
//! The simulator's hot paths plus one resilience scenario, one stable
//! JSON schema per result so CI can diff runs (the overlay's data path
//! is measured by `dg-perf`, `benchmark/`):
//!
//! * **sim** — trace playback of the two most expensive routing schemes
//!   over the evaluation topology; reports simulated packets per
//!   wall-clock second and, per scheme, where the packets went (the
//!   memoised wavefront or the event heap).
//! * **sim-parallel** (`--parallel` or `--only sim-parallel`) — the
//!   same replay fanned out over a batch of flow×scheme jobs, run once
//!   serially and once on the worker-pool `run_flows` path; reports
//!   both throughputs, the speedup, and whether the parallel results
//!   were byte-identical to the serial ones (they must be — a mismatch
//!   fails the bench even without `--check`).
//! * **many-flow** (`--flows 1|100|10000`, default 10000) — thousands
//!   of unicast flows collapsed into source-sharing multicast groups
//!   routed by interned graphs, replayed against the naive per-flow
//!   baseline (fresh graph + full playback per flow); reports the
//!   aggregate flow-packets/sec of both legs, the speedup, the
//!   multicast-tier interning hit rate and per-flow fairness
//!   percentiles.
//! * **overload** (`--overload` or `--only overload`) — a cluster
//!   driven past its outbound queue bound with synthetic bulk
//!   pressure; reports the surgical class's on-time fraction, the
//!   per-class shed counters, and how long full redundancy took to
//!   restore after the load lifted.
//!
//! Each bench writes `BENCH_<name>.json` under `results/` (or `--out`).
//! `--quick` shrinks the runs for CI smoke tests; `--check DIR`
//! compares the fresh numbers against committed baseline JSONs and
//! exits non-zero when throughput regresses by more than `--tolerance`
//! (default 0.2 = 20%). The overload scenario's surgical on-time
//! fraction is gated at a fixed 2% tolerance — an SLA floor, not a
//! throughput band. The sim benches' replay counters are gated as
//! counts: targeted redundancy may send at most a tenth of its packets
//! through the event heap.
//!
//! Usage: `cargo run --release -p dg-bench --bin dg-bench --
//! [--quick] [--only sim|sim-parallel|overload|many-flow]
//! [--overload] [--parallel] [--flows N]
//! [--topology us|global|ring|waxman] [--nodes N] [--seed N]
//! [--check docs/bench_baseline]`
//!
//! `--topology`/`--nodes`/`--seed` swap the sim bench's topology for a
//! generated overlay (see `dg_topology::generate`).

use dg_bench::cli::Cli;
use dg_bench::{cores, git_rev, topo_cli, topo_from_matches};
use dg_core::scheme::{build_scheme, SchemeKind, SchemeParams};
use dg_core::{Flow, GraphCache, GraphCacheStats, MulticastKind, ServiceRequirement};
use dg_overlay::cluster::{Cluster, ClusterConfig};
use dg_sim::{
    group_flows, run_flow_full_with, run_flows, run_groups, FlowJob, FlowRunStats, GroupJob,
    PlaybackConfig, ReplayCounters, SimScratch,
};
use dg_topology::generate::TopoSpec;
use dg_topology::{GraphBuilder, Micros};
use dg_trace::gen::{self, SyntheticWanConfig};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Schema version stamped into every result file; bump when a field
/// changes meaning so baseline comparisons fail loudly instead of
/// silently comparing different quantities.
const SCHEMA_VERSION: u32 = 1;

/// The many-flow result's own schema version: 2 dropped the `identical`
/// field (both legs now run the same playback function, so comparing
/// them said nothing).
const MANY_FLOW_SCHEMA_VERSION: u32 = 2;

#[derive(Debug, Serialize, Deserialize)]
struct SimResult {
    bench: String,
    schema_version: u32,
    mode: String,
    #[serde(default)]
    topo: String,
    trace_seconds: u64,
    rate: u32,
    packets: u64,
    wall_secs: f64,
    packets_per_sec: f64,
    #[serde(default)]
    cores: usize,
    #[serde(default)]
    git_rev: String,
    /// Where each scheme's packets went.
    #[serde(default)]
    replay: Vec<SchemeReplay>,
}

/// Where one scheme's replayed packets went: answered by the memoised
/// loss-free wavefront or propagated through the event heap. Counts,
/// not timings — they repeat exactly on any host.
#[derive(Debug, Serialize, Deserialize)]
struct SchemeReplay {
    scheme: String,
    counters: ReplayCounters,
    /// `full_propagations / (wave_hits + full_propagations)`.
    full_share: f64,
}

/// The share of its packets targeted redundancy may send through the
/// event heap on the calibrated trace before `--check` calls it a silent
/// fall-back to per-packet propagation (it measures 0.004–0.007).
const TARGETED_FULL_SHARE_CEILING: f64 = 0.10;

#[derive(Debug, Serialize, Deserialize)]
struct SimParallelResult {
    bench: String,
    schema_version: u32,
    mode: String,
    #[serde(default)]
    topo: String,
    trace_seconds: u64,
    rate: u32,
    /// Cores the host reported at run time; the speedup gate only
    /// applies when this is ≥ 2 (a single-core box cannot speed up).
    cores: usize,
    /// Worker threads the parallel leg actually used.
    threads: usize,
    jobs: usize,
    packets: u64,
    serial_wall_secs: f64,
    serial_packets_per_sec: f64,
    parallel_wall_secs: f64,
    parallel_packets_per_sec: f64,
    speedup: f64,
    /// Whether the parallel results — and those of the replay-counter
    /// pass — were byte-identical to the serial ones. Anything but
    /// `true` is a correctness failure.
    identical: bool,
    #[serde(default)]
    git_rev: String,
    /// Where each scheme's packets went, over all of its jobs.
    #[serde(default)]
    replay: Vec<SchemeReplay>,
}

#[derive(Debug, Serialize, Deserialize)]
struct ManyFlowResult {
    bench: String,
    schema_version: u32,
    mode: String,
    #[serde(default)]
    topo: String,
    /// Application flows replayed (the `--flows` knob).
    flows: usize,
    /// Source-sharing groups the flows collapsed into.
    groups: usize,
    trace_seconds: u64,
    rate: u32,
    /// Grouped fast path: wall time and aggregate source-side
    /// throughput (flow-packets per wall second — every flow's packets
    /// count, even though grouped flows share one propagation).
    group_wall_secs: f64,
    group_flow_pps: f64,
    /// Naive baseline: one graph construction through a cache nobody
    /// shares plus one full playback per flow.
    naive_wall_secs: f64,
    naive_flow_pps: f64,
    /// `naive_wall_secs / group_wall_secs` — the many-flow payoff.
    speedup: f64,
    /// Link transmissions per leg; the grouped leg sends each packet
    /// once per shared edge instead of once per flow.
    group_transmissions: u64,
    naive_transmissions: u64,
    /// Multicast-tier interning counters: one cache lookup per flow
    /// (plus one per group at replay), so the hit rate approaches
    /// `flows / (flows + groups)` as flows grow.
    intern_hits: u64,
    intern_misses: u64,
    intern_hit_rate: f64,
    /// Percentiles of the per-flow on-time delivery rate — grouping
    /// must not starve any single flow.
    fairness_p50: f64,
    fairness_p99: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct OverloadResult {
    bench: String,
    schema_version: u32,
    mode: String,
    seconds: u64,
    queue_bound: usize,
    surgical_sent: u64,
    surgical_on_time: u64,
    surgical_on_time_fraction: f64,
    shed_bulk: u64,
    shed_timely: u64,
    shed_surgical: u64,
    peak_level: u8,
    recovery_ms: Option<u64>,
}

/// Drives the overload soak topology (one source, two disjoint relays,
/// one sink per SLA class) with the source's queue parked at ~80% of
/// its bound and several times the admissible load offered in every
/// class, then measures what the service-class machinery protected.
fn overload_bench(secs: u64, mode: &str) -> OverloadResult {
    use dg_core::SlaClass;

    let mut b = GraphBuilder::new();
    let src = b.add_node("SRC");
    let relays = [b.add_node("RLY1"), b.add_node("RLY2")];
    let sinks = [b.add_node("BULK"), b.add_node("TIMELY"), b.add_node("SURGICAL")];
    for r in relays {
        b.add_link(src, r, Micros::from_millis(10), 1).expect("links are distinct");
        for s in sinks {
            b.add_link(r, s, Micros::from_millis(10), 1).expect("links are distinct");
        }
    }
    let graph = b.build();

    let queue_bound = 128;
    let config = ClusterConfig {
        hello_interval: Duration::from_millis(20),
        link_state_interval: Duration::from_millis(80),
        shipper_queue: queue_bound,
        overload_hold_down: Duration::from_millis(250),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::launch(&graph, config).expect("cluster launches");
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)), "link state converges");

    let flows: Vec<_> = [SlaClass::Bulk, SlaClass::Timely, SlaClass::Surgical]
        .into_iter()
        .zip(sinks)
        .map(|(class, sink)| (class, Flow::new(src, sink)))
        .collect();
    let receivers: Vec<_> =
        flows.iter().map(|&(_, f)| cluster.open_receiver(f).expect("receiver opens")).collect();
    let senders: Vec<_> = flows
        .iter()
        .map(|&(class, f)| cluster.open_sla_sender(f, class).expect("sender admits"))
        .collect();

    // Park synthetic pressure between the timely band (3/4 of the
    // bound) and the surgical band (the bound itself) for the whole
    // measured window, then offer multiples of the admissible load.
    cluster.node(src).inject_overload(
        queue_bound * 13 / 16,
        Duration::from_secs(secs) + Duration::from_millis(200),
    );
    let mut surgical_sent = 0u64;
    let mut peak_level = 0u8;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(secs);
    while Instant::now() < deadline {
        for _ in 0..4 {
            senders[0].send(b"flood-bulk").expect("bulk send");
        }
        for _ in 0..2 {
            senders[1].send(b"flood-timely").expect("timely send");
        }
        senders[2].send(b"steady-surgical").expect("surgical send");
        surgical_sent += 1;
        peak_level = peak_level.max(cluster.node(src).overload_level());
        std::thread::sleep(Duration::from_millis(10));
    }

    // Load lifted: time the walk back to full redundancy (EWMA decay
    // plus a sustained-quiet hold-down).
    let lifted = Instant::now();
    let recovery_deadline = lifted + Duration::from_secs(5);
    let mut recovery_ms = None;
    while Instant::now() < recovery_deadline {
        if cluster.node(src).overload_level() == 0 {
            recovery_ms = Some(lifted.elapsed().as_millis() as u64);
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(300));

    let surgical_on_time = receivers[2].drain().iter().filter(|d| d.on_time).count() as u64;
    let counters = cluster.node(src).metrics_snapshot().counters;
    cluster.shutdown();
    OverloadResult {
        bench: "overload".to_string(),
        schema_version: SCHEMA_VERSION,
        mode: mode.to_string(),
        seconds: secs,
        queue_bound,
        surgical_sent,
        surgical_on_time,
        surgical_on_time_fraction: surgical_on_time as f64 / surgical_sent as f64,
        shed_bulk: counters.shed_bulk,
        shed_timely: counters.shed_timely,
        shed_surgical: counters.shed_surgical,
        peak_level,
        recovery_ms,
    }
}

/// The two most expensive schemes: the paper's recommended policy and
/// the flooding upper bound.
const SIM_SCHEMES: [SchemeKind; 2] =
    [SchemeKind::TargetedRedundancy, SchemeKind::TimeConstrainedFlooding];

/// Replays `flows` under `kind`, one after the other on one scratch, and
/// reads off it where the packets went.
fn replay_scheme(
    g: &dg_topology::Graph,
    traces: &dg_trace::TraceSet,
    kind: SchemeKind,
    flows: &[Flow],
    config: &PlaybackConfig,
) -> (Vec<FlowRunStats>, SchemeReplay) {
    let requirement = ServiceRequirement::new(config.deadline);
    let mut scratch = SimScratch::new();
    let stats = flows
        .iter()
        .map(|&flow| {
            let mut scheme = build_scheme(kind, g, flow, requirement, &SchemeParams::default())
                .expect("flow is routable");
            run_flow_full_with(g, traces, scheme.as_mut(), config, &mut scratch).stats
        })
        .collect();
    let counters = scratch.replay();
    let replay = SchemeReplay {
        scheme: kind.label().to_string(),
        counters,
        full_share: counters.full_share(),
    };
    (stats, replay)
}

fn sim_bench(trace_secs: u64, rate: u32, mode: &str, spec: &TopoSpec) -> SimResult {
    let g = spec.build();
    let mut cfg = SyntheticWanConfig::calibrated(2017);
    cfg.duration = Micros::from_secs(trace_secs);
    let traces = gen::generate(&g, &cfg);
    let flow = if *spec == TopoSpec::NorthAmerica {
        Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap())
    } else {
        let (s, t) = *spec.default_flows(&g, 1).first().expect("topology has a flow");
        Flow::new(s, t)
    };
    let deadline = spec.default_deadline(&g, &[(flow.source, flow.destination)]);
    let config = PlaybackConfig { packets_per_second: rate, deadline, ..PlaybackConfig::default() };
    let mut packets = 0u64;
    let start = Instant::now();
    let replay = SIM_SCHEMES
        .map(|kind| {
            let (stats, replay) = replay_scheme(&g, &traces, kind, &[flow], &config);
            packets += stats[0].packets_sent;
            replay
        })
        .into();
    let wall = start.elapsed().as_secs_f64();
    SimResult {
        bench: "sim".to_string(),
        schema_version: SCHEMA_VERSION,
        mode: mode.to_string(),
        topo: spec.label(),
        trace_seconds: trace_secs,
        rate,
        packets,
        wall_secs: wall,
        packets_per_sec: packets as f64 / wall,
        cores: cores(),
        git_rev: git_rev(),
        replay,
    }
}

/// Fans the sim bench out: a batch of flow×scheme jobs replayed once
/// on the serial `run_flows(.., 1)` path and once on the worker pool
/// (`threads = min(cores, jobs)`), timing both and comparing the
/// `FlowRunStats` for byte equality. The batch uses the topology's
/// default flow set so the jobs are heterogeneous — exactly the load
/// shape the pull-based job queue has to balance.
fn sim_parallel_bench(
    trace_secs: u64,
    rate: u32,
    mode: &str,
    spec: &TopoSpec,
) -> SimParallelResult {
    let g = spec.build();
    let mut cfg = SyntheticWanConfig::calibrated(2017);
    cfg.duration = Micros::from_secs(trace_secs);
    let traces = gen::generate(&g, &cfg);
    let flows = spec.default_flows(&g, 8);
    let deadline = spec.default_deadline(&g, &flows);
    let jobs: Vec<FlowJob> = SIM_SCHEMES
        .into_iter()
        .flat_map(|kind| {
            flows.iter().map(move |&(s, t)| FlowJob {
                kind,
                flow: Flow::new(s, t),
                requirement: ServiceRequirement::new(deadline),
            })
        })
        .collect();
    let config = PlaybackConfig { packets_per_second: rate, deadline, ..PlaybackConfig::default() };

    let cores = cores();
    let threads = cores.min(jobs.len()).max(1);

    let start = Instant::now();
    let serial = run_flows(&g, &traces, &jobs, &config, 1).expect("flows are routable");
    let serial_wall = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let parallel = run_flows(&g, &traces, &jobs, &config, threads).expect("flows are routable");
    let parallel_wall = start.elapsed().as_secs_f64();

    // Where the packets went: the same jobs once more, untimed, each
    // scheme's on a scratch of its own. They must agree with the other
    // two replays like those with each other.
    let flows: Vec<Flow> = flows.iter().map(|&(s, t)| Flow::new(s, t)).collect();
    let (counted, replay): (Vec<_>, Vec<_>) = SIM_SCHEMES
        .map(|kind| replay_scheme(&g, &traces, kind, &flows, &config))
        .into_iter()
        .unzip();

    let packets: u64 = serial.iter().map(|s| s.packets_sent).sum();
    SimParallelResult {
        bench: "sim_parallel".to_string(),
        schema_version: SCHEMA_VERSION,
        mode: mode.to_string(),
        topo: spec.label(),
        trace_seconds: trace_secs,
        rate,
        cores,
        threads,
        jobs: jobs.len(),
        packets,
        serial_wall_secs: serial_wall,
        serial_packets_per_sec: packets as f64 / serial_wall,
        parallel_wall_secs: parallel_wall,
        parallel_packets_per_sec: packets as f64 / parallel_wall,
        speedup: serial_wall / parallel_wall,
        identical: serial == parallel && serial == counted.concat(),
        git_rev: git_rev(),
        replay,
    }
}

/// Value at quantile `q` (0..=1) of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One-line rendering of the graph-cache counters (satellite of the
/// many-flow work: the interned share must be visible in bench output).
fn cache_stats_line(stats: &GraphCacheStats) -> String {
    format!(
        "graph-cache: baseline {}h/{}m, live {}h/{}m, multicast {}h/{}m, interned share {:.4}",
        stats.baseline.hits,
        stats.baseline.misses,
        stats.live.hits,
        stats.live.misses,
        stats.multicast.hits,
        stats.multicast.misses,
        stats.interned_share()
    )
}

/// The many-flow fast path against its own absence: `flows` unicast
/// flows (sources round-robined over the topology) are replayed once
/// collapsed into source-sharing multicast groups routed by interned
/// graphs, and once the naive way — a fresh per-flow graph
/// construction plus a full per-flow playback. Both legs run serially
/// so the speedup measures interning + shared propagation, not thread
/// count.
fn many_flow_bench(
    flows: usize,
    trace_secs: u64,
    rate: u32,
    mode: &str,
    spec: &TopoSpec,
) -> ManyFlowResult {
    assert!(flows > 0, "at least one flow");
    let g = std::sync::Arc::new(spec.build());
    let n = g.node_count();
    assert!(n >= 2, "many-flow needs at least two nodes");
    let mut cfg = SyntheticWanConfig::calibrated(2017);
    cfg.duration = Micros::from_secs(trace_secs);
    let traces = gen::generate(&g, &cfg);

    // Deterministic flow population: sources round-robin the nodes,
    // each source cycling through the other nodes as destinations —
    // the "one feed, many subscribers" shape that motivates grouping.
    let flow_list: Vec<Flow> = (0..flows)
        .map(|i| {
            let src = i % n;
            let dst = (src + 1 + (i / n) % (n - 1)) % n;
            Flow::new(dg_topology::NodeId::new(src as u32), dg_topology::NodeId::new(dst as u32))
        })
        .collect();
    let pairs: Vec<_> = {
        let mut seen = std::collections::HashSet::new();
        flow_list
            .iter()
            .filter(|f| seen.insert((f.source, f.destination)))
            .map(|f| (f.source, f.destination))
            .collect()
    };
    let deadline = spec.default_deadline(&g, &pairs);
    let requirement = ServiceRequirement::new(deadline);
    let config = PlaybackConfig { packets_per_second: rate, deadline, ..PlaybackConfig::default() };
    let kind = MulticastKind::Targeted;

    // Grouped leg: every flow interns its group's graph through the
    // shared cache (this is what each per-flow sender open costs), the
    // distinct groups replay once, and per-flow accounting reads each
    // flow's receiver slot out of its group run.
    let cache = GraphCache::new(g.clone(), SchemeParams::default());
    let group_start = Instant::now();
    let grouped = group_flows(&flow_list);
    let by_source: std::collections::HashMap<_, _> = grouped.iter().cloned().collect();
    for f in &flow_list {
        let receivers = &by_source[&f.source];
        cache.multicast(f.source, receivers, kind, requirement).expect("group is routable");
    }
    let jobs: Vec<GroupJob> = grouped
        .iter()
        .map(|(source, receivers)| GroupJob {
            source: *source,
            receivers: receivers.clone(),
            kind,
            requirement,
        })
        .collect();
    let runs = run_groups(&g, &traces, &cache, &jobs, &config, 1).expect("groups are routable");
    let by_run: std::collections::HashMap<_, _> = runs
        .iter()
        .flat_map(|r| r.receivers.iter().map(move |cell| ((r.source, cell.receiver), cell)))
        .collect();
    let mut rates: Vec<f64> =
        flow_list.iter().map(|f| by_run[&(f.source, f.destination)].on_time_fraction()).collect();
    let group_wall = group_start.elapsed().as_secs_f64();
    let group_transmissions: u64 = runs.iter().map(|r| r.transmissions).sum();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let stats = cache.stats();

    // Naive leg: what the same workload costs without grouping — a
    // fresh targeted graph (a cache of its own per flow, so nothing is
    // interned) and a full playback per flow.
    let naive_start = Instant::now();
    let mut naive_transmissions = 0u64;
    for f in &flow_list {
        let fresh = GraphCache::new(g.clone(), SchemeParams::default());
        let job = GroupJob { source: f.source, receivers: vec![f.destination], kind, requirement };
        let run = run_groups(&g, &traces, &fresh, &[job], &config, 1).expect("flow is routable");
        naive_transmissions += run[0].transmissions;
    }
    let naive_wall = naive_start.elapsed().as_secs_f64();

    println!("{}", cache_stats_line(&stats));
    let total_packets = (flows as u64) * trace_secs * u64::from(rate);
    ManyFlowResult {
        bench: "many_flow".to_string(),
        schema_version: MANY_FLOW_SCHEMA_VERSION,
        mode: mode.to_string(),
        topo: spec.label(),
        flows,
        groups: jobs.len(),
        trace_seconds: trace_secs,
        rate,
        group_wall_secs: group_wall,
        group_flow_pps: total_packets as f64 / group_wall,
        naive_wall_secs: naive_wall,
        naive_flow_pps: total_packets as f64 / naive_wall,
        speedup: naive_wall / group_wall,
        group_transmissions,
        naive_transmissions,
        intern_hits: stats.multicast.hits,
        intern_misses: stats.multicast.misses,
        intern_hit_rate: stats.interned_share(),
        fairness_p50: percentile(&rates, 0.5),
        fairness_p99: percentile(&rates, 0.99),
    }
}

fn write_result<T: Serialize>(dir: &Path, name: &str, result: &T) -> PathBuf {
    std::fs::create_dir_all(dir).expect("output directory is creatable");
    let path = dir.join(format!("BENCH_{name}.json"));
    let json = serde_json::to_string_pretty(result).expect("result serializes");
    std::fs::write(&path, json + "\n").expect("result file is writable");
    eprintln!("wrote {}", path.display());
    path
}

/// One throughput comparison: fails (returns an error line) when
/// `current` falls more than `tolerance` below `baseline`.
fn check_metric(name: &str, baseline: f64, current: f64, tolerance: f64) -> Result<String, String> {
    let floor = baseline * (1.0 - tolerance);
    let line = format!(
        "{name}: baseline {baseline:.0}, current {current:.0} ({:+.1}%)",
        (current / baseline - 1.0) * 100.0
    );
    if current < floor {
        Err(format!("{line} — below the {:.0}% floor", (1.0 - tolerance) * 100.0))
    } else {
        Ok(line)
    }
}

fn replay_line(r: &SchemeReplay) -> String {
    let c = r.counters;
    format!(
        "{}: {} wave hits, {} full propagations ({} straddlers), {} wave builds, {} heap pushes, \
         full share {:.4}",
        r.scheme,
        c.wave_hits,
        c.full_propagations,
        c.straddlers,
        c.wave_builds,
        c.heap_pushes,
        r.full_share
    )
}

/// The count gate on the sim benches: fails when targeted redundancy
/// sent more than [`TARGETED_FULL_SHARE_CEILING`] of its packets through
/// the event heap — a silent fall-back to per-packet propagation —
/// whatever the wall clock says.
fn check_full_share(bench: &str, replay: &[SchemeReplay]) -> Result<String, String> {
    let label = SchemeKind::TargetedRedundancy.label();
    let Some(targeted) = replay.iter().find(|r| r.scheme == label) else {
        return Err(format!("{bench}: no replay counters for {label}"));
    };
    let line = format!(
        "{bench} {label} full-propagation share: {:.4} (ceiling {TARGETED_FULL_SHARE_CEILING})",
        targeted.full_share
    );
    if targeted.full_share > TARGETED_FULL_SHARE_CEILING {
        Err(format!("{line} — packets are not being answered by the wavefront"))
    } else {
        Ok(line)
    }
}

fn load_json<T: Deserialize>(path: &Path) -> Option<T> {
    let raw = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&raw).ok()
}

fn main() {
    let cli = topo_cli(Cli::new("dg-bench", "hot-path performance harness (sim + overload)"))
        .switch("quick", "abbreviated CI-smoke run (20s trace)")
        .switch("overload", "also run the overload-resilience scenario")
        .switch("parallel", "also run the parallel-simulator scaling scenario")
        .flag_default("sim-seconds", "N", "simulated trace duration", "60")
        .flag_default("rate", "PPS", "sim application packet rate", "2000")
        .flag("flows", "N", "many-flow bench population (default 10000, quick 100)")
        .flag("only", "sim|sim-parallel|overload|many-flow", "run a single bench")
        .flag("out", "DIR", "output directory (default: results/)")
        .flag("check", "DIR", "compare against baseline BENCH_*.json in DIR")
        .flag_default("tolerance", "F", "allowed throughput regression for --check", "0.2");
    let matches = cli.parse_env();
    let quick = matches.is_set("quick");
    let mode = if quick { "quick" } else { "full" };
    let sim_secs: u64 = if quick {
        20
    } else {
        matches.get_or("sim-seconds", 60).unwrap_or_else(|e| cli.exit_with(&e))
    };
    let rate: u32 = matches.get_or("rate", 2_000).unwrap_or_else(|e| cli.exit_with(&e));
    let tolerance: f64 = matches.get_or("tolerance", 0.2).unwrap_or_else(|e| cli.exit_with(&e));
    let flows: usize = matches
        .get("flows")
        .unwrap_or_else(|e| cli.exit_with(&e))
        .unwrap_or(if quick { 100 } else { 10_000 });
    let only = matches.value("only");
    if let Some(o) = only {
        if !["sim", "sim-parallel", "overload", "many-flow"].contains(&o) {
            cli.exit_with(&dg_bench::cli::CliError::BadValue {
                flag: "only".to_string(),
                value: o.to_string(),
                expected: "sim, sim-parallel, overload, or many-flow",
            });
        }
    }
    let out_dir = matches.value("out").map_or_else(dg_bench::results_dir, PathBuf::from);
    let spec = topo_from_matches(&matches).unwrap_or_else(|e| cli.exit_with(&e));

    let sim = (only.is_none() || only == Some("sim")).then(|| {
        let r = sim_bench(sim_secs, rate, mode, &spec);
        println!(
            "sim: {} packets in {:.2}s -> {:.0} packets/sec",
            r.packets, r.wall_secs, r.packets_per_sec
        );
        for line in r.replay.iter().map(replay_line) {
            println!("sim: {line}");
        }
        write_result(&out_dir, "sim", &r);
        r
    });
    let sim_parallel = (matches.is_set("parallel") || only == Some("sim-parallel")).then(|| {
        let r = sim_parallel_bench(sim_secs, rate, mode, &spec);
        println!(
            "sim-parallel: {} packets over {} jobs, serial {:.0} pps, {} threads {:.0} pps \
             ({:.2}x on {} cores), identical: {}",
            r.packets,
            r.jobs,
            r.serial_packets_per_sec,
            r.threads,
            r.parallel_packets_per_sec,
            r.speedup,
            r.cores,
            r.identical
        );
        for line in r.replay.iter().map(replay_line) {
            println!("sim-parallel: {line}");
        }
        write_result(&out_dir, "sim_parallel", &r);
        // Byte-identity is a correctness invariant, not a performance
        // band: a divergence fails the run even without --check.
        if !r.identical {
            eprintln!(
                "REGRESSION sim-parallel: worker-pool results diverged from the serial replay"
            );
            std::process::exit(1);
        }
        r
    });
    let many_flow = (only.is_none() || only == Some("many-flow")).then(|| {
        // A minute of trace at full size: at 5 s (500 packets a flow)
        // both legs are graph construction and interning, not playback.
        let (mf_secs, mf_rate) = if quick { (2, 100) } else { (60, 100) };
        let r = many_flow_bench(flows, mf_secs, mf_rate, mode, &spec);
        println!(
            "many-flow: {} flows in {} groups, grouped {:.2}s ({:.0} flow-pps) vs naive {:.2}s \
             ({:.0} flow-pps) -> {:.2}x, intern rate {:.4}, tx {} vs {}, fairness p50 {:.4} \
             p99 {:.4}",
            r.flows,
            r.groups,
            r.group_wall_secs,
            r.group_flow_pps,
            r.naive_wall_secs,
            r.naive_flow_pps,
            r.speedup,
            r.intern_hit_rate,
            r.group_transmissions,
            r.naive_transmissions,
            r.fairness_p50,
            r.fairness_p99
        );
        write_result(&out_dir, "manyflow", &r);
        r
    });
    let overload = (matches.is_set("overload") || only == Some("overload")).then(|| {
        let overload_secs = if quick { 1 } else { 3 };
        let r = overload_bench(overload_secs, mode);
        println!(
            "overload: surgical {}/{} on time ({:.4}), shed bulk {} / timely {} / surgical {}, peak level {}, recovery {:?} ms",
            r.surgical_on_time, r.surgical_sent, r.surgical_on_time_fraction,
            r.shed_bulk, r.shed_timely, r.shed_surgical, r.peak_level, r.recovery_ms
        );
        write_result(&out_dir, "overload", &r);
        r
    });

    let Some(baseline_dir) = matches.value("check") else { return };
    let baseline_dir = PathBuf::from(baseline_dir);
    let mut failures = Vec::new();
    if let Some(current) = sim {
        match load_json::<SimResult>(&baseline_dir.join("BENCH_sim.json")) {
            Some(base) => match check_metric(
                "sim packets/sec",
                base.packets_per_sec,
                current.packets_per_sec,
                tolerance,
            ) {
                Ok(line) => println!("check {line}"),
                Err(line) => failures.push(line),
            },
            None => failures
                .push(format!("no readable baseline at {}/BENCH_sim.json", baseline_dir.display())),
        }
        match check_full_share("sim", &current.replay) {
            Ok(line) => println!("check {line}"),
            Err(line) => failures.push(line),
        }
    }
    if let Some(current) = sim_parallel {
        match check_full_share("sim-parallel", &current.replay) {
            Ok(line) => println!("check {line}"),
            Err(line) => failures.push(line),
        }
        // The single-thread leg must not regress: the worker-pool
        // machinery is free when threads == 1.
        match load_json::<SimParallelResult>(&baseline_dir.join("BENCH_sim_parallel.json")) {
            Some(base) => match check_metric(
                "sim-parallel serial packets/sec",
                base.serial_packets_per_sec,
                current.serial_packets_per_sec,
                tolerance,
            ) {
                Ok(line) => println!("check {line}"),
                Err(line) => failures.push(line),
            },
            None => failures.push(format!(
                "no readable baseline at {}/BENCH_sim_parallel.json",
                baseline_dir.display()
            )),
        }
        // The speedup gate is absolute, not baseline-relative: on a
        // multi-core host the pool must actually scale. A 2-3 core
        // runner cannot hit 2x (2.0 is its theoretical ceiling), so it
        // gets a softer floor; a single core skips the gate entirely.
        if current.cores >= 2 {
            let floor = if current.cores >= 4 { 2.0 } else { 1.5 };
            let line = format!(
                "sim-parallel speedup: {:.2}x on {} cores (floor {floor:.1}x)",
                current.speedup, current.cores
            );
            if current.speedup < floor {
                failures.push(format!("{line} — parallel run_flows is not scaling"));
            } else {
                println!("check {line}");
            }
        } else {
            println!("check sim-parallel speedup: skipped on a single-core host");
        }
    }
    if let Some(current) = many_flow {
        match load_json::<ManyFlowResult>(&baseline_dir.join("BENCH_manyflow.json")) {
            Some(base) => match check_metric(
                "many-flow grouped flow-pps",
                base.group_flow_pps,
                current.group_flow_pps,
                tolerance,
            ) {
                Ok(line) => println!("check {line}"),
                Err(line) => failures.push(line),
            },
            None => failures.push(format!(
                "no readable baseline at {}/BENCH_manyflow.json",
                baseline_dir.display()
            )),
        }
        // Absolute gates, meaningful only at scale: with ≥1000 flows
        // over a dozen sources, grouping must pay ≥5x and the
        // multicast tier must intern ≥99% of lookups.
        if current.flows >= 1000 {
            let line = format!(
                "many-flow speedup: {:.2}x over {} flows (floor 5.0x)",
                current.speedup, current.flows
            );
            if current.speedup < 5.0 {
                failures.push(format!("{line} — grouping is not paying for itself"));
            } else {
                println!("check {line}");
            }
            let line =
                format!("many-flow intern rate: {:.4} (floor 0.99)", current.intern_hit_rate);
            if current.intern_hit_rate < 0.99 {
                failures.push(format!("{line} — multicast interning is missing"));
            } else {
                println!("check {line}");
            }
        } else {
            println!("check many-flow absolute gates: skipped below 1000 flows");
        }
    }
    if let Some(current) = overload {
        match load_json::<OverloadResult>(&baseline_dir.join("BENCH_overload.json")) {
            // The on-time fraction is an SLA floor, not a throughput
            // band: gate it at a fixed 2% regardless of --tolerance.
            Some(base) => match check_metric(
                "overload surgical on-time %",
                base.surgical_on_time_fraction * 100.0,
                current.surgical_on_time_fraction * 100.0,
                0.02,
            ) {
                Ok(line) => println!("check {line}"),
                Err(line) => failures.push(line),
            },
            None => failures.push(format!(
                "no readable baseline at {}/BENCH_overload.json",
                baseline_dir.display()
            )),
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("REGRESSION {f}");
        }
        std::process::exit(1);
    }
}
