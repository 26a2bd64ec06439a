//! Figure 8 (extension): scheme quality and route-computation cost as
//! the overlay grows past the paper's 12 sites.
//!
//! The paper evaluates on a 12-node North-America overlay and claims
//! targeted redundancy covers >99% of the single-path-to-optimal
//! availability gap at roughly twice single-path cost. This experiment
//! sweeps *generated* topologies (`dg_topology::generate`) across
//! sizes, and for each size reports:
//!
//! * gap coverage per scheme (does the paper's claim survive scale?),
//! * route-computation latency percentiles (cold targeted-redundancy
//!   bundle construction per flow, the flow-setup hot path),
//! * the cost of reacting to a single link flap with the shared
//!   [`dg_core::GraphCache`] versus recomputing every flow's graphs
//!   from scratch — the incremental-invalidation payoff.
//!
//! Results land in `BENCH_fig8_scale.json`. `--check` turns the run
//! into a gate: cached flap reaction must beat full recomputation and
//! every reported coverage must be a valid fraction.

use crate::cli::{Cli, CliError, Matches};
use crate::Report;
use dg_core::scheme::{SchemeKind, SchemeParams};
use dg_core::{CachedGraphKind, Flow, GraphCache, ServiceRequirement};
use dg_sim::experiment::{tabulate, ExperimentConfig, TableRow};
use dg_topology::generate::TopoSpec;
use dg_topology::Micros;
use dg_trace::gen::{self, SyntheticWanConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

const SCHEMA_VERSION: u32 = 1;

/// The schemes compared at every size: the availability-gap endpoints
/// plus the two redundant schemes whose scaling we care about.
const KINDS: [SchemeKind; 4] = [
    SchemeKind::StaticSinglePath,
    SchemeKind::StaticTwoDisjoint,
    SchemeKind::TargetedRedundancy,
    SchemeKind::TimeConstrainedFlooding,
];

#[derive(Debug, Serialize, Deserialize)]
struct Quantiles {
    p50: f64,
    p90: f64,
    p99: f64,
}

impl Quantiles {
    /// Nearest-rank percentiles over an unsorted sample of microsecond
    /// timings.
    fn of(mut samples: Vec<f64>) -> Quantiles {
        assert!(!samples.is_empty(), "timing sample is never empty");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let pick = |q: f64| {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[rank - 1]
        };
        Quantiles { p50: pick(0.50), p90: pick(0.90), p99: pick(0.99) }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct SchemeRow {
    scheme: String,
    unavailable_seconds: u64,
    availability_pct: f64,
    gap_coverage: f64,
    average_cost: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct FlapResult {
    /// Microseconds to recompute every flow's robust graph from
    /// scratch after the flap (what a cache-less implementation pays).
    full_recompute_us: f64,
    /// Microseconds to re-serve every flow through the cache after the
    /// same flap (only entries depending on the flapped link recompute).
    cached_recompute_us: f64,
    /// Live entries the flap actually invalidated.
    entries_invalidated: u64,
    speedup: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct SizeResult {
    topo: String,
    nodes: usize,
    edges: usize,
    flows: usize,
    deadline_ms: u64,
    /// Cold per-flow targeted-bundle construction time (flow setup).
    route_compute_us: Quantiles,
    schemes: Vec<SchemeRow>,
    flap: FlapResult,
}

#[derive(Debug, Serialize, Deserialize)]
struct Fig8Result {
    bench: String,
    schema_version: u32,
    mode: String,
    /// Cores the host reported and the revision measured: the timings
    /// below mean nothing without them.
    cores: usize,
    git_rev: String,
    rate: u32,
    trace_seconds: u64,
    sizes: Vec<SizeResult>,
}

fn scheme_rows(rows: &[TableRow]) -> Vec<SchemeRow> {
    rows.iter()
        .map(|r| SchemeRow {
            scheme: r.scheme.label().to_string(),
            unavailable_seconds: r.unavailable_seconds,
            availability_pct: r.availability_pct,
            gap_coverage: r.gap_coverage,
            average_cost: r.average_cost,
        })
        .collect()
}

fn run_size(
    spec: &TopoSpec,
    flows_wanted: usize,
    rate: u32,
    trace_secs: u64,
    seed: u64,
    threads: usize,
) -> SizeResult {
    let graph = spec.build();
    let flows = spec.default_flows(&graph, flows_wanted);
    assert!(!flows.is_empty(), "{} yields no disjoint-routable flows", spec.label());
    let deadline = spec.default_deadline(&graph, &flows);
    let requirement = ServiceRequirement::new(deadline);
    let params = SchemeParams::default();

    // --- route-computation latency: cold targeted bundles per flow ---
    let cache = GraphCache::new(graph.clone(), params);
    let mut route_us = Vec::with_capacity(flows.len());
    for &(s, t) in &flows {
        let start = Instant::now();
        cache.baseline(Flow::new(s, t), requirement).expect("sampled flows are disjoint-routable");
        route_us.push(start.elapsed().as_secs_f64() * 1e6);
    }

    // --- single-link-flap reaction: cached vs from-scratch ---
    // Warm every flow's robust graph, then flap one link of the first
    // flow's graph across the usability threshold.
    for &(s, t) in &flows {
        cache
            .live(Flow::new(s, t), CachedGraphKind::Robust, requirement)
            .expect("robust graph computable");
    }
    let (s0, t0) = flows[0];
    let first = cache
        .live(Flow::new(s0, t0), CachedGraphKind::Robust, requirement)
        .expect("robust graph computable");
    let flapped = first.edges()[0];

    let start = Instant::now();
    for &(s, t) in &flows {
        cache
            .compute_uncached(Flow::new(s, t), CachedGraphKind::Robust, requirement)
            .expect("robust graph computable");
    }
    let full_recompute_us = start.elapsed().as_secs_f64() * 1e6;

    let before = cache.stats().live.invalidated;
    assert!(cache.note_loss(flapped, 0.9), "crossing the threshold flips the link");
    let entries_invalidated = cache.stats().live.invalidated - before;
    let start = Instant::now();
    for &(s, t) in &flows {
        cache
            .live(Flow::new(s, t), CachedGraphKind::Robust, requirement)
            .expect("robust graph computable");
    }
    let cached_recompute_us = start.elapsed().as_secs_f64() * 1e6;

    // --- scheme quality: gap coverage over a synthetic trace ---
    let mut wan = SyntheticWanConfig::calibrated(seed);
    wan.duration = Micros::from_secs(trace_secs);
    // Short horizons need elevated problem rates to contain problems at
    // all (the calibrated weekly rates would often produce none).
    wan.node_problems.events_per_hour = 6.0;
    wan.link_problems.events_per_hour = 4.0;
    let traces = gen::generate(&graph, &wan);
    let config = ExperimentConfig::builder()
        .packets_per_second(rate)
        .deadline(deadline)
        .seed(seed)
        .build()
        .expect("experiment configuration is consistent");
    let aggregates =
        dg_sim::experiment::run_comparison(&graph, &traces, &flows, &KINDS, &config, threads)
            .expect("sampled flows are routable under every scheme");
    let rows =
        tabulate(&aggregates, SchemeKind::StaticSinglePath, SchemeKind::TimeConstrainedFlooding);

    SizeResult {
        topo: spec.label(),
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        flows: flows.len(),
        deadline_ms: deadline.as_millis(),
        route_compute_us: Quantiles::of(route_us),
        schemes: scheme_rows(&rows),
        flap: FlapResult {
            full_recompute_us,
            cached_recompute_us,
            entries_invalidated,
            speedup: full_recompute_us / cached_recompute_us.max(1e-9),
        },
    }
}

/// The invariants `--check` enforces; returns violation descriptions.
fn check(result: &Fig8Result) -> Vec<String> {
    let mut failures = Vec::new();
    for size in &result.sizes {
        let t = &size.topo;
        if size.flap.cached_recompute_us >= size.flap.full_recompute_us {
            failures.push(format!(
                "{t}: cached flap reaction ({:.0}us) not cheaper than full recompute ({:.0}us)",
                size.flap.cached_recompute_us, size.flap.full_recompute_us
            ));
        }
        if !(size.route_compute_us.p50 > 0.0 && size.route_compute_us.p99 > 0.0) {
            failures.push(format!("{t}: degenerate route-computation percentiles"));
        }
        for row in &size.schemes {
            if !(0.0..=1.0).contains(&row.gap_coverage) {
                failures.push(format!(
                    "{t}/{}: gap coverage {} out of range",
                    row.scheme, row.gap_coverage
                ));
            }
        }
    }
    failures
}

/// The flags of fig8_scale.
pub(super) fn flags(cli: Cli) -> Cli {
    cli.switch("quick", "CI smoke run: 50/100 nodes, short traces")
        .flag("sizes", "N,N,...", "node counts to sweep (default: 50,100,200)")
        .flag_default("families", "LIST", "generated families to sweep", "waxman,ring")
        .flag_default("flows", "N", "flows sampled per topology", "8")
        .flag_default("rate", "PPS", "application packet rate", "100")
        .flag("trace-seconds", "N", "trace horizon per topology (default: 30; quick 10)")
        .flag_default("seed", "N", "generator + trace seed", "2017")
        .flag("threads", "N", "playback worker threads (default: all cores)")
        .switch("check", "fail when cached flap reaction is not cheaper than full recompute")
}

/// Sweeps the sizes and families, and writes `BENCH_fig8_scale.json`.
pub(super) fn fig8_scale(matches: &Matches) -> Result<Report, CliError> {
    let quick = matches.is_set("quick");
    let sizes: Vec<usize> = match matches.value("sizes") {
        Some(raw) => {
            raw.split(',').map(|s| s.trim().parse()).collect::<Result<_, _>>().map_err(|_| {
                CliError::BadValue {
                    flag: "sizes".to_string(),
                    value: raw.to_string(),
                    expected: "comma-separated node counts",
                }
            })?
        }
        None if quick => vec![50, 100],
        None => vec![50, 100, 200],
    };
    let families = matches.value("families").unwrap_or("waxman,ring").split(',').map(str::trim);
    let flows: usize = matches.get_or("flows", 8)?;
    let rate: u32 = matches.get_or("rate", 100)?;
    let trace_secs: u64 = matches.get_or("trace-seconds", if quick { 10 } else { 30 })?;
    let seed: u64 = matches.get_or("seed", 2_017)?;
    let threads: usize = matches.get_or("threads", crate::cores())?;

    let mut report = Report::default();
    let mut results = Vec::new();
    for family in families {
        for &nodes in &sizes {
            let spec = TopoSpec::parse(family, nodes, seed).map_err(|_| CliError::BadValue {
                flag: "families".to_string(),
                value: family.to_string(),
                expected: "us, global, ring, or waxman",
            })?;
            eprintln!("running {} ...", spec.label());
            let size = run_size(&spec, flows, rate, trace_secs, seed, threads);
            report.line(format!(
                "{:<12} {:>4} nodes {:>5} edges  route p50/p99 {:>8.0}/{:>8.0} us  \
                 flap cached/full {:>8.0}/{:>9.0} us ({:.0}x)  targeted gap {:.3}",
                size.topo,
                size.nodes,
                size.edges,
                size.route_compute_us.p50,
                size.route_compute_us.p99,
                size.flap.cached_recompute_us,
                size.flap.full_recompute_us,
                size.flap.speedup,
                size.schemes
                    .iter()
                    .find(|r| r.scheme == SchemeKind::TargetedRedundancy.label())
                    .map_or(f64::NAN, |r| r.gap_coverage),
            ));
            results.push(size);
        }
    }

    let result = Fig8Result {
        bench: "fig8_scale".to_string(),
        schema_version: SCHEMA_VERSION,
        mode: if quick { "quick" } else { "full" }.to_string(),
        cores: crate::cores(),
        git_rev: crate::git_rev(),
        rate,
        trace_seconds: trace_secs,
        sizes: results,
    };
    let json = serde_json::to_string_pretty(&result).expect("result serializes");
    report.files.push(("BENCH_fig8_scale.json".to_string(), json + "\n"));
    if matches.is_set("check") {
        report.failures = check(&result);
        if report.failures.is_empty() {
            report.line("check passed: cached flap reaction beats full recompute at every size");
        }
    }
    Ok(report)
}
