//! Shared harness for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index). This library provides the
//! common pieces: argument parsing, the standard experiment setup, and
//! table/CSV output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dg_cli::{Cli, CliError, Matches};
use dg_core::scheme::SchemeKind;
use dg_sim::experiment::{ExperimentConfig, SchemeAggregate};
use dg_topology::generate::TopoSpec;
use dg_topology::{Graph, Micros, NodeId};
use dg_trace::gen::{self, SyntheticWanConfig};
use std::fs;
use std::path::PathBuf;

/// The shared command-line toolkit (re-exported so binaries depend on
/// one crate): [`cli::Cli`], [`cli::Matches`], [`cli::CliError`].
pub use dg_cli as cli;

/// Cores the host reports, for the result stamps.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's revision for the result stamps, with `+changes` when
/// the working tree differs from it; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let git = |args: &[&str]| std::process::Command::new("git").args(args).output().ok();
    let Some(rev) = git(&["rev-parse", "--short=12", "HEAD"])
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
    else {
        return "unknown".to_string();
    };
    let changed = git(&["diff", "--quiet", "HEAD"]).is_some_and(|out| !out.status.success());
    format!("{}{}", rev.trim(), if changed { "+changes" } else { "" })
}

/// The standard experiment: the evaluation topology, its 16
/// transcontinental flows, and the calibrated synthetic-WAN config.
#[derive(Debug)]
pub struct Experiment {
    /// The 12-site evaluation topology.
    pub topology: Graph,
    /// The 16 transcontinental flows.
    pub flows: Vec<(NodeId, NodeId)>,
    /// Duration of each simulated "week" (scaled down by default).
    pub seconds_per_week: u64,
    /// Seeds, one per simulated week.
    pub seeds: Vec<u64>,
    /// Simulation configuration.
    pub config: ExperimentConfig,
    /// Worker threads for the playback fan-out.
    pub threads: usize,
    /// Replay this recorded trace file instead of generating synthetic
    /// weeks (seeds then only vary the playback loss draws).
    pub trace_file: Option<PathBuf>,
}

impl Experiment {
    /// The declarative CLI shared by every experiment binary: the
    /// standard flags (`--seconds`, `--weeks`, `--rate`, `--seed`,
    /// `--threshold`, `--topology`, `--threads`, `--trace`) plus
    /// whatever extras a binary chains on afterwards.
    pub fn cli(name: &'static str, about: &'static str) -> Cli {
        Cli::new(name, about)
            .flag_default("seconds", "N", "simulated seconds per week", "1800")
            .flag_default("weeks", "N", "number of simulated weeks", "4")
            .flag_default("rate", "PPS", "application packets per second", "100")
            .flag_default("seed", "N", "base seed (week w uses seed+w)", "2017")
            .flag_default("threshold", "F", "per-second availability threshold", "1.0")
            .flag_default("topology", "us|global|ring|waxman", "evaluation topology", "us")
            .flag_default("nodes", "N", "node count for generated topologies", "100")
            .flag("threads", "N", "playback worker threads (default: all cores)")
            .flag("trace", "PATH", "replay a recorded trace instead of generating weeks")
    }

    /// Builds the standard experiment from parsed [`Matches`]: `us` is
    /// the 12-site overlay with 16 transcontinental flows at a 65 ms
    /// deadline, `global` the 16-site three-continent overlay with 8
    /// intercontinental flows at 110 ms.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] for unparsable or out-of-range values —
    /// render it with [`Cli::exit_with`].
    pub fn from_matches(matches: &Matches) -> Result<Self, CliError> {
        let seconds_per_week: u64 = matches.get_or("seconds", 1_800)?;
        let weeks: u64 = matches.get_or("weeks", 4)?;
        let base_seed: u64 = matches.get_or("seed", 2_017)?;
        let rate: u32 = matches.get_or("rate", 100)?;
        let threshold: f64 = matches.get_or("threshold", 1.0)?;
        let which = matches.value("topology").unwrap_or("us");
        let nodes: usize = matches.get_or("nodes", 100)?;
        let spec = TopoSpec::parse(which, nodes, base_seed).map_err(|_| CliError::BadValue {
            flag: "topology".to_string(),
            value: which.to_string(),
            expected: "us, global, ring, or waxman",
        })?;
        let topology = spec.build();
        let flows = spec.default_flows(&topology, 16);
        let deadline = spec.default_deadline(&topology, &flows);
        let config = ExperimentConfig::builder()
            .packets_per_second(rate)
            .availability_threshold(threshold)
            .deadline(deadline)
            .build()
            .map_err(|e| CliError::BadValue {
                flag: "rate/threshold".to_string(),
                value: e.0.to_string(),
                expected: "a consistent experiment configuration",
            })?;
        let threads: usize = matches
            .get_or("threads", std::thread::available_parallelism().map_or(1, |n| n.get()))?;
        let trace_file = matches.value("trace").map(PathBuf::from);
        Ok(Experiment {
            topology,
            flows,
            seconds_per_week,
            seeds: (0..weeks).map(|w| base_seed + w).collect(),
            config,
            threads,
            trace_file,
        })
    }

    /// The trace for one week: the recorded file when `--trace` was
    /// given (loaded per its extension), otherwise a fresh synthetic
    /// generation for `seed`.
    pub fn traces_for(&self, seed: u64) -> dg_trace::TraceSet {
        match &self.trace_file {
            Some(path) if path.extension().is_some_and(|e| e == "json") => {
                dg_trace::TraceSet::load_json(path).expect("trace file loads")
            }
            Some(path) => dg_trace::TraceSet::load_binary(path).expect("trace file loads"),
            None => gen::generate(&self.topology, &self.wan_config(seed)),
        }
    }

    /// The access sites of the evaluation topology: the eight
    /// flow-endpoint cities plus MIA (an access-like leaf), as opposed
    /// to the core transit hubs (CHI, ATL, DFW, DEN).
    pub const ACCESS_SITES: [&'static str; 8] =
        ["NYC", "JHU", "WAS", "BOS", "SEA", "SJC", "LAX", "MIA"];

    /// How much more often access sites suffer problems than core hubs
    /// in the calibrated generator.
    pub const ACCESS_BIAS: f64 = 6.0;

    /// The calibrated trace-generator config for one week's seed:
    /// problems biased toward access sites, matching the paper's
    /// finding that flow-affecting problems concentrate around sources
    /// and destinations.
    pub fn wan_config(&self, seed: u64) -> SyntheticWanConfig {
        let mut cfg = SyntheticWanConfig::calibrated(seed);
        cfg.duration = Micros::from_secs(self.seconds_per_week);
        // Generated topologies carry none of the preset site names;
        // they get unbiased problem placement.
        let present: Vec<&str> = Self::ACCESS_SITES
            .iter()
            .copied()
            .filter(|n| self.topology.node_by_name(n).is_some())
            .collect();
        if !present.is_empty() {
            cfg.node_weights =
                Some(gen::biased_node_weights(&self.topology, &present, Self::ACCESS_BIAS));
        }
        cfg
    }

    /// Runs the full multi-week comparison for `kinds`, merging
    /// per-scheme aggregates across weeks.
    pub fn run(&self, kinds: &[SchemeKind]) -> Vec<SchemeAggregate> {
        let mut merged: Vec<SchemeAggregate> = Vec::new();
        for (week, &seed) in self.seeds.iter().enumerate() {
            let mut config = self.config;
            config.playback.seed = seed;
            let traces = self.traces_for(seed);
            let aggs = dg_sim::experiment::run_comparison(
                &self.topology,
                &traces,
                &self.flows,
                kinds,
                &config,
                self.threads,
            )
            .expect("standard experiment flows are routable");
            if week == 0 {
                merged = aggs;
            } else {
                for (m, a) in merged.iter_mut().zip(&aggs) {
                    assert_eq!(m.kind, a.kind);
                    m.totals.merge(&a.totals);
                    for (mf, af) in m.per_flow.iter_mut().zip(&a.per_flow) {
                        mf.merge(af);
                    }
                }
            }
            eprintln!("week {} (seed {seed}) done", week + 1);
        }
        merged
    }
}

/// Chains the shared topology-selection flags onto a CLI: `--topo
/// {us|global|ring|waxman}`, `--nodes N` (generated families only),
/// and `--topo-seed N`. Parse the result with [`topo_from_matches`] —
/// every binary that can run on generated overlays shares this one
/// construction path instead of hardcoding a preset.
pub fn topo_cli(cli: Cli) -> Cli {
    cli.flag_default("topo", "us|global|ring|waxman", "topology family", "us")
        .flag_default("nodes", "N", "node count for generated topologies", "100")
        .flag_default("topo-seed", "N", "generator seed for ring/waxman", "2017")
}

/// Parses the [`topo_cli`] flags into a [`TopoSpec`].
///
/// # Errors
///
/// Returns a [`CliError`] for an unknown family or unparsable numbers.
pub fn topo_from_matches(matches: &Matches) -> Result<TopoSpec, CliError> {
    let which = matches.value("topo").unwrap_or("us");
    let nodes: usize = matches.get_or("nodes", 100)?;
    let seed: u64 = matches.get_or("topo-seed", 2_017)?;
    TopoSpec::parse(which, nodes, seed).map_err(|_| CliError::BadValue {
        flag: "topo".to_string(),
        value: which.to_string(),
        expected: "us, global, ring, or waxman",
    })
}

/// Directory where experiment binaries drop their CSV outputs.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir).expect("results directory is creatable");
    dir
}

/// Writes CSV rows (first row = header) to `results/<name>.csv`.
pub fn write_csv(name: &str, rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.csv"));
    let body: String = rows.iter().map(|r| r.join(",")).collect::<Vec<_>>().join("\n");
    fs::write(&path, body + "\n").expect("csv is writable");
    eprintln!("wrote {}", path.display());
}

/// Prints an aligned text table (first row = header).
pub fn print_table(rows: &[Vec<String>]) {
    if rows.is_empty() {
        return;
    }
    let cols = rows[0].len();
    let widths: Vec<usize> =
        (0..cols).map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0)).collect();
    for (i, row) in rows.iter().enumerate() {
        let line: Vec<String> =
            row.iter().zip(&widths).map(|(cell, w)| format!("{cell:>w$}")).collect();
        println!("{}", line.join("  "));
        if i == 0 {
            println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches(args: &[&str]) -> Matches {
        Experiment::cli("test", "test harness")
            .parse(args.iter().map(|s| s.to_string()))
            .expect("test arguments parse")
    }

    #[test]
    fn experiment_setup_is_standard() {
        let exp = Experiment::from_matches(&matches(&[])).unwrap();
        assert_eq!(exp.topology.node_count(), 12);
        assert_eq!(exp.flows.len(), 16);
        assert_eq!(exp.seeds.len(), 4);
        assert!(exp.trace_file.is_none());
        let wan = exp.wan_config(7);
        assert_eq!(wan.seed, 7);
        assert_eq!(wan.duration.as_secs(), exp.seconds_per_week);
    }

    #[test]
    fn global_topology_option() {
        let exp = Experiment::from_matches(&matches(&["--topology", "global"])).unwrap();
        assert_eq!(exp.topology.node_count(), 16);
        assert_eq!(exp.flows.len(), 8);
        assert_eq!(exp.config.playback.deadline, Micros::from_millis(110));
    }

    #[test]
    fn generated_topology_option() {
        let exp =
            Experiment::from_matches(&matches(&["--topology", "ring", "--nodes", "50"])).unwrap();
        assert_eq!(exp.topology.node_count(), 50);
        assert!(!exp.flows.is_empty());
        assert!(exp.config.playback.deadline > Micros::ZERO);
        // No preset site names exist, so problem placement is unbiased.
        assert!(exp.wan_config(1).node_weights.is_none());
    }

    #[test]
    fn topo_helper_parses_shared_flags() {
        let m = topo_cli(Cli::new("t", "t"))
            .parse(
                ["--topo", "waxman", "--nodes", "60", "--topo-seed", "9"]
                    .iter()
                    .map(|s| s.to_string()),
            )
            .unwrap();
        let spec = topo_from_matches(&m).unwrap();
        assert_eq!(spec.label(), "waxman-60");
        assert_eq!(spec.build().node_count(), 60);
        let bad = topo_cli(Cli::new("t", "t"))
            .parse(["--topo", "mars"].iter().map(|s| s.to_string()))
            .unwrap();
        assert!(topo_from_matches(&bad).is_err());
    }

    #[test]
    fn trace_file_overrides_generation() {
        let dir = std::env::temp_dir().join("dg_bench_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dgtrace");
        let trace = dg_trace::TraceSet::clean(60, 5, Micros::from_secs(10)).unwrap();
        trace.save_binary(&path).unwrap();
        let exp =
            Experiment::from_matches(&matches(&["--trace", &path.display().to_string()])).unwrap();
        let loaded = exp.traces_for(123);
        assert_eq!(loaded.interval_count(), 5);
        assert_eq!(loaded.link_count(), 60);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_values_are_errors_not_panics() {
        let err = Experiment::from_matches(&matches(&["--topology", "mars"])).unwrap_err();
        assert!(err.to_string().contains("mars"));
        let err = Experiment::from_matches(&matches(&["--rate", "fast"])).unwrap_err();
        assert!(matches!(err, CliError::BadValue { .. }));
        let err = Experiment::from_matches(&matches(&["--rate", "0"])).unwrap_err();
        assert!(err.to_string().contains("packets_per_second"));
    }
}
