//! `ctrl_churn`: the control-plane cache read and written side by side.
//!
//! Open phase: fresh [`GraphCache`]s, each asked 10 000 times for the
//! graphs of 64 flows and 12 multicast groups, so almost every request
//! is an interning hit. Flap phase: seeded `note_loss` flips, each
//! followed by re-requesting every flow and group, so the cache
//! invalidates and rebuilds.

use crate::report::RunResult;
use crate::span::clock_ns;
use crate::stats::{better_quartile, median, quantile, Better, SplitMix64};
use crate::{layers, Ctx};
use dg_core::scheme::{SchemeKind, SchemeParams};
use dg_core::{
    build_scheme_cached, CachedGraphKind, CoreError, Flow, GraphCache, MulticastKind,
    ServiceRequirement,
};
use dg_topology::generate::TopoSpec;
use dg_topology::{EdgeId, Graph, NodeId};
use std::sync::Arc;
use std::time::Instant;

/// Topology, groups and the set of links that flap are the same for
/// every `--seed`, which drives the order of the flaps only: which
/// links flap decides how much a flap invalidates (15 % between seeds),
/// and runs on different seeds are compared against tighter bounds.
const INPUT_SEED: u64 = 2017;
const TOPOLOGY: TopoSpec = TopoSpec::Waxman { nodes: 100, seed: INPUT_SEED };
const FLOWS: usize = 64;
const GROUPS: usize = 12;
const GROUP_RECEIVERS: usize = 6;

const CACHES_PER_TRIAL: usize = 100;
const OPENS_PER_CACHE: usize = 10_000;
/// Each trial takes [`FLAP_LINKS`] links down and brings each back.
const FLAP_LINKS: usize = 75;
const FLAPS_PER_TRIAL: usize = 2 * FLAP_LINKS;
/// Links down at once, at most: a few concurrent problems, as in the
/// paper's traces, not a topology in ruins.
const MAX_DOWN: usize = 6;
/// A link problem whose re-serves take longer than the packet deadline
/// has failed the flows it was for.
const REACTION_BUDGET_US: f64 = 65_000.0;

struct Inputs {
    graph: Arc<Graph>,
    flows: Vec<Flow>,
    groups: Vec<(NodeId, Vec<NodeId>)>,
    flap_links: Vec<EdgeId>,
    requirement: ServiceRequirement,
}

/// Topology, flows, groups and one cache taken through both phases:
/// everything before the first timed request.
fn set_up() -> Result<Inputs, CoreError> {
    let graph = TOPOLOGY.build();
    let pairs = TOPOLOGY.default_flows(&graph, FLOWS);
    let requirement = ServiceRequirement::new(TOPOLOGY.default_deadline(&graph, &pairs));
    let mut rng = SplitMix64(INPUT_SEED);
    let n = graph.node_count();
    let groups = (0..GROUPS)
        .map(|_| {
            let source = NodeId::new(rng.below(n) as u32);
            let receivers =
                (0..GROUP_RECEIVERS).map(|_| NodeId::new(rng.below(n) as u32)).collect();
            (source, receivers)
        })
        .collect();
    let mut links: Vec<EdgeId> = graph.edges().collect();
    shuffle(&mut links, &mut rng);
    links.truncate(FLAP_LINKS);
    let inputs = Inputs {
        graph: Arc::new(graph),
        flows: pairs.into_iter().map(|(s, t)| Flow::new(s, t)).collect(),
        groups,
        flap_links: links,
        requirement,
    };
    let warm = inputs.fresh_cache();
    (0..OPENS_PER_CACHE).try_for_each(|i| inputs.open(&warm, i))?;
    inputs.reserve_all(&warm)?;
    Ok(inputs)
}

impl Inputs {
    fn fresh_cache(&self) -> GraphCache {
        GraphCache::new(Arc::clone(&self.graph), SchemeParams::default())
    }

    /// Request `i` of the open phase: the flows in turn, alternately as
    /// a targeted scheme and as the Robust live graph, then the groups.
    fn open(&self, cache: &GraphCache, i: usize) -> Result<(), CoreError> {
        let slot = i % (FLOWS + GROUPS);
        let round = i / (FLOWS + GROUPS);
        if let Some(&flow) = self.flows.get(slot) {
            if round.is_multiple_of(2) {
                build_scheme_cached(SchemeKind::TargetedRedundancy, cache, flow, self.requirement)?;
            } else {
                cache.live(flow, CachedGraphKind::Robust, self.requirement)?;
            }
        } else {
            let (source, receivers) = &self.groups[slot - FLOWS];
            cache.multicast(*source, receivers, MulticastKind::Targeted, self.requirement)?;
        }
        Ok(())
    }

    /// What every flap is followed by: each flow's scheme and live
    /// graph and each group's graph, requested again.
    fn reserve_all(&self, cache: &GraphCache) -> Result<(), CoreError> {
        for &flow in &self.flows {
            build_scheme_cached(SchemeKind::TargetedRedundancy, cache, flow, self.requirement)?;
            cache.live(flow, CachedGraphKind::Robust, self.requirement)?;
        }
        for (source, receivers) in &self.groups {
            cache.multicast(*source, receivers, MulticastKind::Targeted, self.requirement)?;
        }
        Ok(())
    }

    /// Outside the timed region: a sampled flow's and group's cached
    /// graph against the uncached oracle. Returns the mean edge count
    /// of the flows' live graphs.
    fn audit(&self, cache: &GraphCache, sample: usize, result: &mut RunResult) -> f64 {
        let flow = self.flows[sample % FLOWS];
        let live = cache.live(flow, CachedGraphKind::Robust, self.requirement);
        let oracle = cache.compute_uncached(flow, CachedGraphKind::Robust, self.requirement);
        result.check(matches!((&live, &oracle), (Ok(a), Ok(b)) if **a == *b), || {
            format!("live graph of {flow} differs from compute_uncached after a flap")
        });
        let (source, receivers) = &self.groups[sample % GROUPS];
        let cached = cache.multicast(*source, receivers, MulticastKind::Targeted, self.requirement);
        let oracle = cache.compute_multicast_uncached(
            *source,
            receivers,
            MulticastKind::Targeted,
            self.requirement,
        );
        result.check(matches!((&cached, &oracle), (Ok(a), Ok(b)) if **a == *b), || {
            format!("multicast graph from {source} differs from compute_multicast_uncached after a flap")
        });
        let edges: usize = self
            .flows
            .iter()
            .filter_map(|&f| cache.live(f, CachedGraphKind::Robust, self.requirement).ok())
            .map(|g| g.len())
            .sum();
        edges as f64 / FLOWS as f64
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// One trial's flap sequence: the flap links in a seeded order, each
/// taken down and, once [`MAX_DOWN`] later ones are down too, brought
/// back. Yields `(link, loss rate to report)`.
fn flap_sequence(links: &[EdgeId], rng: &mut SplitMix64) -> Vec<(EdgeId, f64)> {
    let mut order = links.to_vec();
    shuffle(&mut order, rng);
    let mut sequence = Vec::with_capacity(2 * order.len());
    for (i, &link) in order.iter().enumerate() {
        sequence.push((link, 0.9));
        if i >= MAX_DOWN {
            sequence.push((order[i - MAX_DOWN], 0.0));
        }
    }
    let tail = order.len().saturating_sub(MAX_DOWN);
    sequence.extend(order[tail..].iter().map(|&link| (link, 0.0)));
    sequence
}

/// One trial. Every time in it is read from the calling thread's
/// processor clock (the work is single-threaded, and that clock stops
/// while the host has the core) and scaled to the reference host's
/// speed.
#[derive(Default)]
struct Trial {
    /// Per fresh cache: seconds its [`OPENS_PER_CACHE`] requests took.
    open_s: Vec<f64>,
    flaps_per_s: f64,
    /// Per link problem: the re-serve time after its link went down plus
    /// the re-serve time after it came back, µs.
    problem_us: Vec<f64>,
    invalidated: f64,
    hit_rate: f64,
    traced: bool,
}

pub fn run(ctx: &mut Ctx) -> RunResult {
    let mut result = RunResult::new(ctx.stamp("none".to_string(), 0, 0.0));
    let (inputs, setup_s) = match ctx.set_up(5, true, set_up, drop) {
        Ok(done) => done,
        Err(e) => {
            result.failed = 1;
            result.check_failures.push(format!("set-up request failed: {e}"));
            return result;
        }
    };

    let mut trials: Vec<Trial> = Vec::new();
    let mut costs = Vec::new();
    let mut rng = SplitMix64(ctx.seed);
    let started = Instant::now();
    while ctx.fits_another(started, trials.len()) {
        let traced = ctx.traces_trial(trials.len());
        let was = ctx.tracer.set_enabled(traced);
        let mut trial = Trial { traced, ..Trial::default() };

        // Open phase.
        let mut last_stats = None;
        for c in 0..CACHES_PER_TRIAL {
            let op = (trials.len() * CACHES_PER_TRIAL + c) as u64;
            let wall0 = clock_ns();
            let ((cache, opened), seconds) = ctx.speed.timed(|| {
                let cache = inputs.fresh_cache();
                let opened = (0..OPENS_PER_CACHE).try_for_each(|i| inputs.open(&cache, i));
                (cache, opened)
            });
            ctx.tracer.record("core.cache.open_10k", wall0, clock_ns(), None, op);
            trial.open_s.push(seconds);
            if let Err(e) = opened {
                result.failed += 1;
                result.check_failures.push(format!("open failed: {e}"));
            }
            last_stats = Some(cache.stats());
        }
        trial.hit_rate = last_stats.map_or(0.0, |s| s.interned_share());
        result.attempted += (CACHES_PER_TRIAL * OPENS_PER_CACHE) as u64;

        // Flap phase, on one cache with everything resident.
        let cache = inputs.fresh_cache();
        if let Err(e) = inputs.reserve_all(&cache) {
            result.failed += 1;
            result.check_failures.push(format!("populate failed: {e}"));
        }
        let mut flap_s = 0.0;
        let mut invalidated = 0usize;
        let mut open_problems = std::collections::HashMap::new();
        for (i, (edge, loss)) in flap_sequence(&inputs.flap_links, &mut rng).into_iter().enumerate()
        {
            let resident = |s: dg_core::GraphCacheStats| s.live_entries + s.multicast_entries;
            let before = resident(cache.stats());
            let op = (trials.len() * FLAPS_PER_TRIAL + i) as u64;
            let c0 = clock_ns();
            let ((c1, after_flip, served), took_s) = ctx.speed.timed(|| {
                cache.note_loss(edge, loss);
                let c1 = clock_ns();
                let after_flip = if traced { resident(cache.stats()) } else { before };
                (c1, after_flip, inputs.reserve_all(&cache))
            });
            let c2 = clock_ns();
            let root = ctx.tracer.record("harness.flap", c0, c2, None, op);
            ctx.tracer.record("core.cache.note_loss", c0, c1, root, op);
            ctx.tracer.record("core.cache.reserve_all", c1, c2, root, op);
            if let Err(e) = served {
                result.failed += 1;
                result.check_failures.push(format!("re-serve after a flap failed: {e}"));
            }
            flap_s += took_s;
            // The flip that takes a link down opens its problem; the one
            // that brings it back closes it.
            let us = took_s * 1e6;
            match open_problems.remove(&edge) {
                None => drop(open_problems.insert(edge, us)),
                Some(down_us) => trial.problem_us.push(down_us + us),
            }
            invalidated += before - after_flip.min(before);
            // Sampled, untimed: the cache against its oracle.
            if i % 8 == 7 {
                costs.push(inputs.audit(&cache, op as usize, &mut result));
            }
        }
        result.attempted += FLAPS_PER_TRIAL as u64;
        trial.flaps_per_s = FLAPS_PER_TRIAL as f64 / flap_s;
        trial.invalidated = invalidated as f64 / FLAPS_PER_TRIAL as f64;
        ctx.tracer.set_enabled(was);
        trials.push(trial);
    }
    result.stamp = ctx.stamp(
        "none".to_string(),
        trials.len(),
        started.elapsed().as_secs_f64() / trials.len() as f64,
    );

    let all: Vec<&Trial> = trials.iter().collect();
    let over = |of: &[&Trial], better: Better, f: fn(&Trial) -> f64| {
        better_quartile(&of.iter().map(|t| f(t)).collect::<Vec<_>>(), better)
    };
    // Requests per second of the open phase: a cache's 10 000 requests
    // over the time they take, at the better quartile over the caches.
    let opens_per_s = |of: &[&Trial]| {
        let open_s: Vec<f64> = of.iter().flat_map(|t| t.open_s.iter().copied()).collect();
        OPENS_PER_CACHE as f64 / better_quartile(&open_s, Better::Lower)
    };
    // A flip that takes a link down invalidates what crossed it; the
    // one that brings it back invalidates everything computed meanwhile,
    // and costs twenty times as much. A single flip's time therefore has
    // its median on a cliff; a link problem from start to finish does
    // not. A trial has 75 problems, so the highest percentile with ten
    // samples beyond it is the 85th.
    let pooled: Vec<f64> = trials.iter().flat_map(|t| t.problem_us.iter().copied()).collect();
    let in_budget = pooled.iter().filter(|&&us| us <= REACTION_BUDGET_US).count();

    result.set("setup_s", setup_s);
    result.set("ops_per_s", opens_per_s(&all));
    result.set("on_time_frac", in_budget as f64 / pooled.len() as f64);
    result.set("lat_p50_us", over(&all, Better::Lower, |t| median(&t.problem_us)));
    result.set(
        "lat_tail_us",
        over(&all, Better::Lower, |t| quantile(&mut t.problem_us.clone(), 0.85).unwrap_or(0.0)),
    );
    result.set("tx_per_pkt", median(&costs));

    result.set("harness.samples", pooled.len() as f64);
    result.set("harness.deadline_missed", (pooled.len() - in_budget) as f64);
    result.set("core.cache.flaps_per_s", over(&all, Better::Higher, |t| t.flaps_per_s));
    result.set("core.cache.hit_rate", over(&all, Better::Higher, |t| t.hit_rate));
    if ctx.traced {
        let (traced, plain): (Vec<&Trial>, Vec<&Trial>) = trials.iter().partition(|t| t.traced);
        result.set(
            "core.cache.invalidated_per_flap",
            over(&traced, Better::Lower, |t| t.invalidated),
        );
        if !plain.is_empty() {
            result.set(
                "harness.trace_overhead_frac",
                1.0 - opens_per_s(&traced) / opens_per_s(&plain),
            );
        }
        layers::core_calls(
            ctx,
            &inputs.graph,
            &inputs.flows,
            inputs.requirement.deadline,
            &mut result,
        );
    }
    result.set("rss_mb", crate::host::peak_rss_mb());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_link_goes_down_once_and_comes_back() {
        let links: Vec<EdgeId> = (0..FLAP_LINKS as u32).map(EdgeId::new).collect();
        let sequence = flap_sequence(&links, &mut SplitMix64(7));
        assert_eq!(sequence.len(), FLAPS_PER_TRIAL);
        let mut down = std::collections::HashSet::new();
        let mut seen = std::collections::HashSet::new();
        for (link, loss) in sequence {
            if loss > 0.0 {
                assert!(seen.insert(link), "{link:?} goes down twice");
                assert!(down.insert(link));
            } else {
                assert!(down.remove(&link), "{link:?} comes back without having gone down");
            }
            assert!(down.len() <= MAX_DOWN + 1);
        }
        assert!(down.is_empty());
        assert_eq!(seen.len(), FLAP_LINKS);
        // Another seed, another order.
        assert_ne!(
            flap_sequence(&links, &mut SplitMix64(7)),
            flap_sequence(&links, &mut SplitMix64(8))
        );
    }
}
