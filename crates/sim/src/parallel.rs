//! Parallel playback.
//!
//! Replays are embarrassingly parallel: each job reads the shared
//! immutable topology and traces, mutates only its own route and
//! scratch arena, and every loss draw is a pure function of the event
//! coordinates `(seed, seq, edge, attempt)` — so execution order cannot
//! leak into results. [`fan_out`] is the one worker pool, and
//! [`run_flows`] rides it:
//!
//! - routes are pre-built **serially** through one shared
//!   [`GraphCache`], so the expensive dissemination-graph constructions
//!   are interned once and construction errors surface in deterministic
//!   job order;
//! - replay jobs fan out over `threads` workers pulling from an atomic
//!   job index, each worker reusing **one** [`SimScratch`] arena
//!   (event heap, arrival table, forwarding index) across all the jobs
//!   it executes;
//! - results land in a slot-per-job vector, so the returned order is
//!   the input order regardless of which worker ran what, and every
//!   result is byte-identical to what the serial path produces for the
//!   same seed.

use crate::metrics::FlowRunStats;
use crate::packet::SimScratch;
use crate::playback::{run_flow_full_with, PlaybackConfig};
use dg_core::scheme::SchemeKind;
use dg_core::{build_scheme_cached, CoreError, Flow, GraphCache, ServiceRequirement};
use dg_topology::Graph;
use dg_trace::TraceSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One unit of playback work: replay the traces for `flow` routed by a
/// freshly built `kind` scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowJob {
    /// The routing scheme to build for this job.
    pub kind: SchemeKind,
    /// The flow to replay.
    pub flow: Flow,
    /// The timeliness contract the scheme is built against.
    pub requirement: ServiceRequirement,
}

/// Runs `job(i, scratch)` for every `i < total` on `threads` workers
/// (zero = one per CPU core, never more than `total`), each holding one
/// [`SimScratch`] for all the jobs it pulls, and returns the results in
/// index order. One worker runs inline on the calling thread, jobs in
/// order — the serial reference path.
pub(crate) fn fan_out<T: Send>(
    total: usize,
    threads: usize,
    job: impl Fn(usize, &mut SimScratch) -> T + Sync,
) -> Vec<T> {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
    .min(total);
    if threads <= 1 {
        let mut scratch = SimScratch::new();
        return (0..total).map(|i| job(i, &mut scratch)).collect();
    }

    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..total).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = SimScratch::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= total {
                        return;
                    }
                    let result = job(i, &mut scratch);
                    results.lock().expect("results lock")[i] = Some(result);
                }
            });
        }
    });

    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

/// Replays every job in `jobs` against `traces`, fanned out over
/// `threads` worker threads (zero = one per CPU core), and returns one
/// [`FlowRunStats`] per job **in input order**.
///
/// Fixed-seed results are byte-identical to running the same jobs
/// serially (`threads == 1` included) — the equivalence the
/// `serial_and_parallel_runs_agree` test in `tests/parallel.rs` pins.
///
/// # Errors
///
/// Propagates scheme-construction failures (e.g. a flow without two
/// disjoint paths), in job order.
pub fn run_flows(
    topology: &Graph,
    traces: &TraceSet,
    jobs: &[FlowJob],
    config: &PlaybackConfig,
    threads: usize,
) -> Result<Vec<FlowRunStats>, CoreError> {
    let cache = GraphCache::new(topology.clone(), dg_core::scheme::SchemeParams::default());
    run_flows_cached(topology, traces, jobs, config, threads, &cache)
}

/// [`run_flows`] over a caller-provided scheme cache (an experiment
/// builds it with its own scheme tunables). Only the cache's immutable
/// baseline tier is read, and only while the schemes are built.
pub(crate) fn run_flows_cached(
    topology: &Graph,
    traces: &TraceSet,
    jobs: &[FlowJob],
    config: &PlaybackConfig,
    threads: usize,
    cache: &GraphCache,
) -> Result<Vec<FlowRunStats>, CoreError> {
    // Each scheme is owned by the one job that replays it.
    let mut built = Vec::with_capacity(jobs.len());
    for job in jobs {
        let scheme = build_scheme_cached(job.kind, cache, job.flow, job.requirement)?;
        built.push(Mutex::new(Some(scheme)));
    }
    Ok(fan_out(built.len(), threads, |i, scratch| {
        let mut scheme = built[i].lock().expect("scheme lock").take().expect("each job taken once");
        run_flow_full_with(topology, traces, scheme.as_mut(), config, scratch).stats
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::{presets, Micros};
    use dg_trace::gen::{self, SyntheticWanConfig};

    #[test]
    fn empty_job_list_is_fine() {
        let g = presets::north_america_12();
        let traces = TraceSet::clean(g.edge_count(), 1, Micros::from_secs(1)).unwrap();
        let out = run_flows(&g, &traces, &[], &PlaybackConfig::default(), 4).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn worker_counts_cannot_change_results() {
        let g = presets::north_america_12();
        let mut cfg = SyntheticWanConfig::calibrated(2);
        cfg.duration = Micros::from_secs(10);
        cfg.link_problems.events_per_hour = 30.0;
        let traces = gen::generate(&g, &cfg);
        let n = |name: &str| g.node_by_name(name).unwrap();
        let jobs: Vec<FlowJob> = [("NYC", "SJC"), ("WAS", "SEA"), ("ATL", "LAX")]
            .into_iter()
            .flat_map(|(s, t)| {
                [SchemeKind::StaticSinglePath, SchemeKind::TargetedRedundancy].map(|kind| FlowJob {
                    kind,
                    flow: Flow::new(n(s), n(t)),
                    requirement: ServiceRequirement::default(),
                })
            })
            .collect();
        let config = PlaybackConfig { packets_per_second: 10, seed: 7, ..Default::default() };
        let serial = run_flows(&g, &traces, &jobs, &config, 1).unwrap();
        for threads in [2, 5] {
            let parallel = run_flows(&g, &traces, &jobs, &config, threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }
}
