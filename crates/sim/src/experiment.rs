//! Multi-flow, multi-scheme comparison experiments (the Table 2 engine).

use crate::metrics::{gap_coverage, FlowRunStats};
use crate::parallel::{run_flows_cached, FlowJob};
use crate::playback::PlaybackConfig;
use dg_core::scheme::{SchemeKind, SchemeParams};
use dg_core::{CoreError, Flow, GraphCache, ServiceRequirement, SlaClass};
use dg_topology::{Graph, NodeId};
use dg_trace::TraceSet;
use serde::{Deserialize, Serialize};

/// Full configuration of a comparison experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Scheme construction tunables.
    pub scheme_params: SchemeParams,
    /// The flows' timeliness contract.
    pub requirement: ServiceRequirement,
    /// Playback parameters.
    pub playback: PlaybackConfig,
}

/// A validation failure from [`ExperimentConfigBuilder::build`]: the
/// violated rule, in prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidExperiment(pub &'static str);

impl std::fmt::Display for InvalidExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid experiment configuration: {}", self.0)
    }
}

impl std::error::Error for InvalidExperiment {}

impl ExperimentConfig {
    /// Starts a builder seeded with the paper's defaults.
    ///
    /// Prefer this over struct-literal construction: [`build`] rejects
    /// internally inconsistent knobs (a zero or sub-microsecond-spaced
    /// packet rate, a threshold
    /// outside `(0, 1]`, a zero deadline) instead of letting them
    /// surface as panics or nonsense mid-run.
    ///
    /// [`build`]: ExperimentConfigBuilder::build
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder { config: ExperimentConfig::default() }
    }
}

/// Builder for [`ExperimentConfig`] with validated defaults.
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    config: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Sets the scheme construction tunables.
    #[must_use]
    pub fn scheme_params(mut self, params: SchemeParams) -> Self {
        self.config.scheme_params = params;
        self
    }

    /// Sets the flows' timeliness contract.
    #[must_use]
    pub fn requirement(mut self, requirement: ServiceRequirement) -> Self {
        self.config.requirement = requirement;
        self
    }

    /// Sets the full playback parameter block.
    #[must_use]
    pub fn playback(mut self, playback: PlaybackConfig) -> Self {
        self.config.playback = playback;
        self
    }

    /// Sets the application packet rate.
    #[must_use]
    pub fn packets_per_second(mut self, rate: u32) -> Self {
        self.config.playback.packets_per_second = rate;
        self
    }

    /// Sets the one-way delivery deadline (both the playback cutoff
    /// and the schemes' timeliness contract).
    #[must_use]
    pub fn deadline(mut self, deadline: dg_topology::Micros) -> Self {
        self.config.playback.deadline = deadline;
        self.config.requirement.deadline = deadline;
        self
    }

    /// Sets the per-second availability threshold.
    #[must_use]
    pub fn availability_threshold(mut self, threshold: f64) -> Self {
        self.config.playback.availability_threshold = threshold;
        self
    }

    /// Sets the seed for the deterministic loss draws.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.playback.seed = seed;
        self
    }

    /// Validates the knobs and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidExperiment`] naming the first violated rule.
    pub fn build(self) -> Result<ExperimentConfig, InvalidExperiment> {
        let p = &self.config.playback;
        if p.packets_per_second == 0 {
            return Err(InvalidExperiment("packets_per_second must be positive"));
        }
        if p.packets_per_second > 1_000_000 {
            // The inter-packet spacing is whole microseconds; past a
            // million a second it truncates to zero and every packet of
            // a second is sent at the same instant.
            return Err(InvalidExperiment("packets_per_second must be at most 1000000"));
        }
        if p.deadline == dg_topology::Micros::ZERO {
            return Err(InvalidExperiment("deadline must be positive"));
        }
        if !(p.availability_threshold > 0.0 && p.availability_threshold <= 1.0) {
            return Err(InvalidExperiment("availability_threshold must be in (0, 1]"));
        }
        if self.config.requirement.deadline == dg_topology::Micros::ZERO {
            return Err(InvalidExperiment("requirement deadline must be positive"));
        }
        if p.deadline < self.config.requirement.deadline {
            return Err(InvalidExperiment(
                "playback deadline must not be tighter than the schemes' requirement",
            ));
        }
        Ok(self.config)
    }
}

/// One scheme's aggregate over all flows (one row of Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeAggregate {
    /// The scheme.
    pub kind: SchemeKind,
    /// Sum over flows.
    pub totals: FlowRunStats,
    /// The individual flow runs (for per-flow figures).
    pub per_flow: Vec<FlowRunStats>,
}

impl SchemeAggregate {
    /// Availability over all flow-seconds.
    pub fn availability(&self) -> f64 {
        self.totals.availability()
    }

    /// Average cost per message over all packets.
    pub fn average_cost(&self) -> f64 {
        self.totals.average_cost()
    }
}

/// Replays `flows` under each `(scheme, requirement)` row on `threads`
/// workers and sums every row over its flows. With no flows there is
/// nothing to aggregate, so the result is empty.
fn aggregate_rows(
    topology: &Graph,
    traces: &TraceSet,
    cache: &GraphCache,
    flows: &[(NodeId, NodeId)],
    rows: &[(SchemeKind, ServiceRequirement)],
    playback: &PlaybackConfig,
    threads: usize,
) -> Result<Vec<SchemeAggregate>, CoreError> {
    if flows.is_empty() {
        return Ok(Vec::new());
    }
    let jobs: Vec<FlowJob> = rows
        .iter()
        .flat_map(|&(kind, requirement)| {
            flows.iter().map(move |&(s, t)| FlowJob { kind, flow: Flow::new(s, t), requirement })
        })
        .collect();
    let results = run_flows_cached(topology, traces, &jobs, playback, threads, cache)?;
    Ok(rows
        .iter()
        .zip(results.chunks(flows.len()))
        .map(|(&(kind, _), per_flow)| {
            let mut totals = per_flow[0];
            for f in &per_flow[1..] {
                totals.merge(f);
            }
            SchemeAggregate { kind, totals, per_flow: per_flow.to_vec() }
        })
        .collect())
}

/// Runs every scheme in `kinds` over every flow against `traces`, the
/// per-(scheme, flow) replays fanned out over `threads` workers (zero =
/// one per CPU core, as for [`crate::run_flows`]).
///
/// All schemes replay identical traces with paired loss draws, so the
/// comparison isolates routing differences, and results do not depend
/// on `threads`. An empty `flows` list yields no aggregates.
///
/// # Errors
///
/// Propagates scheme-construction failures (e.g. a flow without two
/// disjoint paths).
pub fn run_comparison(
    topology: &Graph,
    traces: &TraceSet,
    flows: &[(NodeId, NodeId)],
    kinds: &[SchemeKind],
    config: &ExperimentConfig,
    threads: usize,
) -> Result<Vec<SchemeAggregate>, CoreError> {
    // One cache per run: the expensive graph constructions (disjoint
    // pairs, targeted bundles) are shared across the schemes that need
    // them instead of being recomputed per (kind, flow).
    let cache = GraphCache::new(topology.clone(), config.scheme_params);
    let rows: Vec<_> = kinds.iter().map(|&kind| (kind, config.requirement)).collect();
    aggregate_rows(topology, traces, &cache, flows, &rows, &config.playback, threads)
}

/// Evaluates each SLA service class under its own scheme preference
/// and deadline budget — bulk on a dynamic single path at 250 ms,
/// timely on two disjoint paths at 100 ms, surgical on a targeted
/// graph at 65 ms — over identical traces. This is the simulator-side
/// counterpart of the overlay's per-class bindings: it sizes, offline,
/// what each class's redundancy budget buys in timeliness, the numbers
/// an operator needs before writing an `--sla-json` plan. An empty
/// `flows` list yields no rows.
///
/// # Errors
///
/// Propagates scheme-construction failures (e.g. a flow without two
/// disjoint paths).
pub fn run_sla_comparison(
    topology: &Graph,
    traces: &TraceSet,
    flows: &[(NodeId, NodeId)],
    config: &ExperimentConfig,
) -> Result<Vec<(SlaClass, SchemeAggregate)>, CoreError> {
    let cache = GraphCache::new(topology.clone(), config.scheme_params);
    let mut out = Vec::with_capacity(SlaClass::ALL.len());
    for class in SlaClass::ALL {
        // Each class plays back against its own deadline.
        let requirement = class.requirement();
        let playback = PlaybackConfig { deadline: requirement.deadline, ..config.playback };
        let row = [(class.preferred_scheme(), requirement)];
        let aggregates = aggregate_rows(topology, traces, &cache, flows, &row, &playback, 1)?;
        out.extend(aggregates.into_iter().map(|aggregate| (class, aggregate)));
    }
    Ok(out)
}

/// A Table-2-style row derived from a comparison run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableRow {
    /// Scheme label.
    pub scheme: SchemeKind,
    /// Total unavailable seconds across flows.
    pub unavailable_seconds: u64,
    /// Availability percentage.
    pub availability_pct: f64,
    /// Fraction of the baseline-to-optimal gap covered.
    pub gap_coverage: f64,
    /// Average packets sent per message.
    pub average_cost: f64,
}

/// Derives Table-2 rows from aggregates, using `baseline` and
/// `optimal` (scheme kinds that must be present in `aggregates`) as the
/// endpoints of the gap-coverage metric.
///
/// # Panics
///
/// Panics if `baseline` or `optimal` is missing from `aggregates`.
pub fn tabulate(
    aggregates: &[SchemeAggregate],
    baseline: SchemeKind,
    optimal: SchemeKind,
) -> Vec<TableRow> {
    let base = aggregates
        .iter()
        .find(|a| a.kind == baseline)
        .expect("baseline scheme present")
        .totals
        .unavailable_seconds;
    let best = aggregates
        .iter()
        .find(|a| a.kind == optimal)
        .expect("optimal scheme present")
        .totals
        .unavailable_seconds;
    aggregates
        .iter()
        .map(|a| TableRow {
            scheme: a.kind,
            unavailable_seconds: a.totals.unavailable_seconds,
            availability_pct: a.availability() * 100.0,
            gap_coverage: gap_coverage(base, best, a.totals.unavailable_seconds),
            average_cost: a.average_cost(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::{presets, Micros};
    use dg_trace::gen::{self, SyntheticWanConfig};

    fn tiny_experiment() -> (Graph, TraceSet, Vec<(NodeId, NodeId)>) {
        let g = presets::north_america_12();
        let mut cfg = SyntheticWanConfig::calibrated(5);
        cfg.duration = Micros::from_secs(60);
        // Crank problems up so the short run actually contains some.
        cfg.node_problems.events_per_hour = 3.0;
        cfg.link_problems.events_per_hour = 2.0;
        let traces = gen::generate(&g, &cfg);
        let flows = vec![
            (g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap()),
            (g.node_by_name("WAS").unwrap(), g.node_by_name("SEA").unwrap()),
        ];
        (g, traces, flows)
    }

    #[test]
    fn comparison_covers_all_schemes_and_flows() {
        let (g, traces, flows) = tiny_experiment();
        let config = ExperimentConfig {
            playback: PlaybackConfig { packets_per_second: 10, ..Default::default() },
            ..Default::default()
        };
        let aggs = run_comparison(&g, &traces, &flows, &SchemeKind::ALL, &config, 1).unwrap();
        assert_eq!(aggs.len(), 6);
        for a in &aggs {
            assert_eq!(a.per_flow.len(), 2);
            assert_eq!(a.totals.seconds, 120);
            assert!(a.totals.packets_sent == 1_200);
        }
        // Flooding is at least as available as everything else, and the
        // most expensive.
        let flood = aggs.iter().find(|a| a.kind == SchemeKind::TimeConstrainedFlooding).unwrap();
        for a in &aggs {
            assert!(
                flood.totals.unavailable_seconds <= a.totals.unavailable_seconds,
                "{} beat flooding",
                a.kind
            );
            assert!(flood.average_cost() >= a.average_cost());
        }
        // Single path is the cheapest.
        let single = aggs.iter().find(|a| a.kind == SchemeKind::StaticSinglePath).unwrap();
        for a in &aggs {
            assert!(single.average_cost() <= a.average_cost() + 1e-9);
        }
    }

    #[test]
    fn sla_comparison_binds_each_class_to_its_scheme() {
        let (g, traces, flows) = tiny_experiment();
        let config = ExperimentConfig {
            playback: PlaybackConfig { packets_per_second: 10, ..Default::default() },
            ..Default::default()
        };
        let aggs = run_sla_comparison(&g, &traces, &flows, &config).unwrap();
        assert_eq!(aggs.len(), SlaClass::ALL.len());
        for (class, agg) in &aggs {
            assert_eq!(agg.kind, class.preferred_scheme());
            assert_eq!(agg.per_flow.len(), flows.len());
        }
        // The classes spend strictly increasing redundancy budgets.
        let cost = |c: SlaClass| {
            aggs.iter().find(|(k, _)| *k == c).map(|(_, a)| a.average_cost()).unwrap()
        };
        assert!(cost(SlaClass::Bulk) <= cost(SlaClass::Timely) + 1e-9);
        assert!(cost(SlaClass::Timely) <= cost(SlaClass::Surgical) + 1e-9);
    }

    #[test]
    fn worker_counts_cannot_change_the_comparison() {
        let (g, traces, flows) = tiny_experiment();
        let config = ExperimentConfig {
            playback: PlaybackConfig { packets_per_second: 10, ..Default::default() },
            ..Default::default()
        };
        let serial = run_comparison(&g, &traces, &flows, &SchemeKind::ALL, &config, 1).unwrap();
        // Zero means one worker per core, as for `run_flows`.
        for threads in [0, 3] {
            let parallel =
                run_comparison(&g, &traces, &flows, &SchemeKind::ALL, &config, threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn no_flows_means_no_aggregates() {
        let (g, traces, _) = tiny_experiment();
        let config = ExperimentConfig::default();
        for threads in [0, 1, 4] {
            let aggs = run_comparison(&g, &traces, &[], &SchemeKind::ALL, &config, threads);
            assert_eq!(aggs.unwrap(), vec![]);
        }
        assert!(run_sla_comparison(&g, &traces, &[], &config).unwrap().is_empty());
    }

    #[test]
    fn builder_defaults_match_default_and_validate() {
        let built = ExperimentConfig::builder().build().unwrap();
        assert_eq!(built, ExperimentConfig::default());
    }

    #[test]
    fn builder_rejects_inconsistent_knobs() {
        assert!(ExperimentConfig::builder().packets_per_second(0).build().is_err());
        // One packet per microsecond is the densest schedule the
        // whole-microsecond spacing can express.
        assert!(ExperimentConfig::builder().packets_per_second(1_000_000).build().is_ok());
        assert!(ExperimentConfig::builder().packets_per_second(1_000_001).build().is_err());
        assert!(ExperimentConfig::builder().availability_threshold(0.0).build().is_err());
        assert!(ExperimentConfig::builder().availability_threshold(1.5).build().is_err());
        assert!(ExperimentConfig::builder().deadline(Micros::ZERO).build().is_err());
        let err = ExperimentConfig::builder().packets_per_second(0).build().unwrap_err();
        assert!(err.to_string().contains("packets_per_second"));
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = ExperimentConfig::builder()
            .packets_per_second(250)
            .deadline(Micros::from_millis(80))
            .availability_threshold(0.999)
            .seed(42)
            .build()
            .unwrap();
        assert_eq!(cfg.playback.packets_per_second, 250);
        assert_eq!(cfg.playback.deadline, Micros::from_millis(80));
        assert_eq!(cfg.requirement.deadline, Micros::from_millis(80));
        assert_eq!(cfg.playback.seed, 42);
    }

    #[test]
    fn tabulate_produces_consistent_rows() {
        let (g, traces, flows) = tiny_experiment();
        let config = ExperimentConfig {
            playback: PlaybackConfig { packets_per_second: 10, ..Default::default() },
            ..Default::default()
        };
        let aggs = run_comparison(&g, &traces, &flows, &SchemeKind::ALL, &config, 1).unwrap();
        let rows =
            tabulate(&aggs, SchemeKind::StaticSinglePath, SchemeKind::TimeConstrainedFlooding);
        assert_eq!(rows.len(), 6);
        let base = rows.iter().find(|r| r.scheme == SchemeKind::StaticSinglePath).unwrap();
        let best = rows.iter().find(|r| r.scheme == SchemeKind::TimeConstrainedFlooding).unwrap();
        if base.unavailable_seconds > best.unavailable_seconds {
            assert_eq!(base.gap_coverage, 0.0);
        }
        assert_eq!(best.gap_coverage, 1.0);
        for r in &rows {
            assert!((0.0..=100.0).contains(&r.availability_pct));
            assert!((0.0..=1.0).contains(&r.gap_coverage));
        }
    }
}
