//! The experiment pipeline behind `dg-exp`.
//!
//! Every table and figure of the paper (DESIGN.md §4 has the index) is
//! a function in [`figures`]; `dg-exp <figure>` runs one and
//! `dg-exp all` runs them all. The stages are typed: a validated
//! topology and its flows ([`Experiment`], built by the one topology
//! parser [`topo_from_matches`]), a trace per week
//! ([`Experiment::traces_for`]), per-scheme tallies merged across the
//! weeks ([`Experiment::run`] → [`Tally`]), and rows ([`Report`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use dg_cli::{Cli, CliError, Matches};
use dg_core::scheme::SchemeKind;
use dg_sim::experiment::{run_comparison, tabulate, ExperimentConfig, SchemeAggregate, TableRow};
use dg_topology::generate::TopoSpec;
use dg_topology::{Graph, Micros, NodeId};
use dg_trace::gen::{self, SyntheticWanConfig};
use dg_trace::TraceSet;
use std::borrow::Cow;
use std::fs;
use std::path::{Path, PathBuf};

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

/// The standard experiment: a topology, its evaluation flows, the
/// calibrated synthetic-WAN weeks (or one recorded trace), and the
/// playback configuration.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The evaluation topology.
    pub topology: Graph,
    /// The evaluation flows.
    pub flows: Vec<(NodeId, NodeId)>,
    /// Duration of each simulated "week" (scaled down by default).
    pub seconds_per_week: u64,
    /// Seeds, one per simulated week.
    pub seeds: Vec<u64>,
    /// Simulation configuration.
    pub config: ExperimentConfig,
    /// Worker threads for the playback fan-out.
    pub threads: usize,
    /// How much more often access sites suffer problems than core hubs
    /// in generated weeks ([`Experiment::ACCESS_BIAS`] unless a sweep
    /// varies it).
    pub access_bias: f64,
    /// The recorded trace replayed every week instead of generated ones
    /// (`--trace`; seeds then only vary the playback loss draws). It has
    /// one series per topology edge: [`Experiment::from_matches`]
    /// refuses any other.
    pub trace: Option<TraceSet>,
}

impl Experiment {
    /// The flags of an experiment that generates its own weeks: the
    /// topology flags of [`topo_cli`] plus `--seconds`, `--weeks`,
    /// `--rate`, `--threshold` and `--threads`.
    pub fn generated_cli(name: impl Into<String>, about: &'static str) -> Cli {
        topo_cli(Cli::new(name, about))
            .flag_default("seconds", "N", "simulated seconds per week", "1800")
            .flag_default("weeks", "N", "number of simulated weeks", "4")
            .flag_default("rate", "PPS", "application packets per second", "100")
            .flag_default("threshold", "F", "per-second availability threshold", "1.0")
            .flag("threads", "N", "playback worker threads (default: all cores)")
    }

    /// The standard experiment flags: [`Experiment::generated_cli`] and
    /// `--trace`.
    pub fn cli(name: impl Into<String>, about: &'static str) -> Cli {
        Self::generated_cli(name, about).flag(
            "trace",
            "PATH",
            "replay a recorded trace instead of generating weeks",
        )
    }

    /// Builds the standard experiment from parsed [`Matches`]: `us` is
    /// the 12-site overlay with 16 transcontinental flows at a 65 ms
    /// deadline, `global` the 16-site three-continent overlay with 8
    /// intercontinental flows at 110 ms. A `--trace` is loaded here,
    /// once, and checked against the topology.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] for unparsable or out-of-range values, and
    /// for a trace that does not load or does not fit the topology —
    /// render it with [`Cli::exit_with`].
    pub fn from_matches(matches: &Matches) -> Result<Self, CliError> {
        let seconds_per_week: u64 = matches.get_or("seconds", 1_800)?;
        let weeks: u64 = matches.get_or("weeks", 4)?;
        let base_seed: u64 = matches.get_or("seed", 2_017)?;
        let rate: u32 = matches.get_or("rate", 100)?;
        let threshold: f64 = matches.get_or("threshold", 1.0)?;
        let spec = topo_from_matches(matches)?;
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
        let threads: usize = matches.get_or("threads", cores())?;
        let trace = match matches.value("trace") {
            Some(path) => Some(load_trace(Path::new(path), topology.edge_count())?),
            None => None,
        };
        Ok(Experiment {
            topology,
            flows,
            seconds_per_week,
            seeds: (0..weeks).map(|w| base_seed + w).collect(),
            config,
            threads,
            access_bias: Self::ACCESS_BIAS,
            trace,
        })
    }

    /// The trace for one week: the recorded one when `--trace` was
    /// given, otherwise a fresh synthetic generation for `seed`.
    pub fn traces_for(&self, seed: u64) -> Cow<'_, TraceSet> {
        match &self.trace {
            Some(trace) => Cow::Borrowed(trace),
            None => Cow::Owned(gen::generate(&self.topology, &self.wan_config(seed))),
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
    /// problems biased toward access sites by [`Experiment::access_bias`],
    /// matching the paper's finding that flow-affecting problems
    /// concentrate around sources and destinations.
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
                Some(gen::biased_node_weights(&self.topology, &present, self.access_bias));
        }
        cfg
    }

    /// The week loop: each week's configuration (its playback seeded
    /// with the week's seed) and trace.
    pub fn weeks(&self) -> impl Iterator<Item = (ExperimentConfig, Cow<'_, TraceSet>)> + '_ {
        self.seeds.iter().enumerate().map(move |(week, &seed)| {
            eprintln!("week {}/{} (seed {seed})", week + 1, self.seeds.len());
            let mut config = self.config;
            config.playback.seed = seed;
            (config, self.traces_for(seed))
        })
    }

    /// Runs the comparison of `kinds` over every week and merges the
    /// per-scheme tallies.
    pub fn run(&self, kinds: &[SchemeKind]) -> Tally {
        let mut tally = Tally::default();
        for (config, traces) in self.weeks() {
            let week =
                run_comparison(&self.topology, &traces, &self.flows, kinds, &config, self.threads)
                    .expect("standard experiment flows are routable");
            tally.merge(week);
        }
        tally
    }
}

/// Loads a recorded trace (JSON by extension, else the binary format)
/// and checks it carries one series per edge of the topology.
fn load_trace(path: &Path, edges: usize) -> Result<TraceSet, CliError> {
    let refuse = |value: String, expected| CliError::BadValue {
        flag: "trace".to_string(),
        value: format!("{}: {value}", path.display()),
        expected,
    };
    let loaded = if path.extension().is_some_and(|e| e == "json") {
        TraceSet::load_json(path)
    } else {
        TraceSet::load_binary(path)
    };
    let trace = loaded.map_err(|e| refuse(e.to_string(), "a trace file (JSON or binary)"))?;
    if trace.link_count() != edges {
        return Err(refuse(
            format!("{} links, the topology has {edges} edges", trace.link_count()),
            "a trace with one series per topology edge",
        ));
    }
    Ok(trace)
}

/// Per-scheme tallies merged across an experiment's weeks, in the order
/// the schemes were asked for.
#[derive(Debug, Clone, Default)]
pub struct Tally(pub Vec<SchemeAggregate>);

impl Tally {
    /// Adds one week's aggregates (same schemes, same order).
    fn merge(&mut self, week: Vec<SchemeAggregate>) {
        if self.0.is_empty() {
            self.0 = week;
            return;
        }
        for (m, a) in self.0.iter_mut().zip(&week) {
            assert_eq!(m.kind, a.kind);
            m.totals.merge(&a.totals);
            for (mf, af) in m.per_flow.iter_mut().zip(&a.per_flow) {
                mf.merge(af);
            }
        }
    }

    /// The aggregates of `kinds`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if the tally lacks one of `kinds`.
    pub fn select(&self, kinds: &[SchemeKind]) -> Vec<SchemeAggregate> {
        kinds
            .iter()
            .map(|k| self.0.iter().find(|a| a.kind == *k).expect("scheme was run").clone())
            .collect()
    }

    /// Table-2 rows of `kinds`, the gap measured from static single
    /// path to time-constrained flooding (both must be among `kinds`).
    pub fn rows(&self, kinds: &[SchemeKind]) -> Vec<TableRow> {
        tabulate(
            &self.select(kinds),
            SchemeKind::StaticSinglePath,
            SchemeKind::TimeConstrainedFlooding,
        )
    }
}

/// Chains the topology-selection flags onto a CLI: `--topology
/// {us|global|ring|waxman}`, `--nodes N` (generated families only) and
/// `--seed N`. Parse them with [`topo_from_matches`].
pub fn topo_cli(cli: Cli) -> Cli {
    cli.flag_default("topology", "us|global|ring|waxman", "evaluation topology", "us")
        .flag_default("nodes", "N", "node count for generated topologies", "100")
        .flag_default("seed", "N", "generator seed; week w of an experiment uses seed+w", "2017")
}

/// Parses the [`topo_cli`] flags into a [`TopoSpec`].
///
/// # Errors
///
/// Returns a [`CliError`] for an unknown family or unparsable numbers.
pub fn topo_from_matches(matches: &Matches) -> Result<TopoSpec, CliError> {
    let which = matches.value("topology").unwrap_or("us");
    let nodes: usize = matches.get_or("nodes", 100)?;
    let seed: u64 = matches.get_or("seed", 2_017)?;
    TopoSpec::parse(which, nodes, seed).map_err(|_| CliError::BadValue {
        flag: "topology".to_string(),
        value: which.to_string(),
        expected: "us, global, ring, or waxman",
    })
}

/// Directory where experiments drop their outputs by default.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir).expect("results directory is creatable");
    dir
}

/// What one figure produced: the text it prints, the files it writes
/// (name and bytes), and any violated `--check` invariant.
#[derive(Debug, Default)]
pub struct Report {
    /// Printed on stdout.
    pub text: String,
    /// Written under the output directory, in order.
    pub files: Vec<(String, String)>,
    /// Violated invariants; a non-empty list fails the run.
    pub failures: Vec<String>,
}

impl Report {
    /// Appends a line of text.
    pub fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// Appends an aligned text table (first row = header).
    pub fn table(&mut self, rows: &[Vec<String>]) {
        let Some(header) = rows.first() else { return };
        let cols = header.len();
        let widths: Vec<usize> =
            (0..cols).map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0)).collect();
        for (i, row) in rows.iter().enumerate() {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(cell, w)| format!("{cell:>w$}")).collect();
            self.line(line.join("  "));
            if i == 0 {
                self.line("-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
            }
        }
    }

    /// Prints the table and adds it as `<name>.csv`.
    pub fn publish(&mut self, name: &str, rows: &[Vec<String>]) {
        self.table(rows);
        self.csv(name, rows);
    }

    /// Adds `<name>.csv` with the rows (first row = header).
    pub fn csv(&mut self, name: &str, rows: &[Vec<String>]) {
        let body: String = rows.iter().map(|r| r.join(",") + "\n").collect();
        self.files.push((format!("{name}.csv"), body));
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
        assert!(exp.trace.is_none());
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
                ["--topology", "waxman", "--nodes", "60", "--seed", "9"]
                    .iter()
                    .map(|s| s.to_string()),
            )
            .unwrap();
        let spec = topo_from_matches(&m).unwrap();
        assert_eq!(spec.label(), "waxman-60");
        assert_eq!(spec.build().node_count(), 60);
        let bad = topo_cli(Cli::new("t", "t"))
            .parse(["--topology", "mars"].iter().map(|s| s.to_string()))
            .unwrap();
        assert!(topo_from_matches(&bad).is_err());
    }

    #[test]
    fn trace_file_overrides_generation() {
        let dir = std::env::temp_dir().join(format!("dg_bench_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dgtrace");
        let edges = Experiment::from_matches(&matches(&[])).unwrap().topology.edge_count();
        let trace = dg_trace::TraceSet::clean(edges, 5, Micros::from_secs(10)).unwrap();
        trace.save_binary(&path).unwrap();
        let exp =
            Experiment::from_matches(&matches(&["--trace", &path.display().to_string()])).unwrap();
        let loaded = exp.traces_for(123);
        assert_eq!(loaded.interval_count(), 5);
        assert_eq!(loaded.link_count(), edges);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Each way a `--trace` can be wrong is a CLI error naming the file,
    /// not a panic and not a misread.
    #[test]
    fn bad_traces_are_refused_at_the_front() {
        let dir = std::env::temp_dir().join(format!("dg_bench_bad_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let edges = Experiment::from_matches(&matches(&[])).unwrap().topology.edge_count();
        let write = |name: &str, links: usize| {
            let path = dir.join(name);
            let trace = dg_trace::TraceSet::clean(links, 5, Micros::from_secs(10)).unwrap();
            trace.save_binary(&path).unwrap();
            path
        };
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{ not json").unwrap();
        let cases = [
            (dir.join("missing.dgtrace"), "a trace file"),
            (garbage, "a trace file"),
            (write("short.dgtrace", edges - 1), "one series per topology edge"),
            (write("long.dgtrace", edges + 1), "one series per topology edge"),
        ];
        for (path, expected) in cases {
            let err = Experiment::from_matches(&matches(&["--trace", &path.display().to_string()]))
                .unwrap_err();
            let text = err.to_string();
            assert!(text.starts_with("--trace"), "{text}");
            assert!(text.contains(&path.display().to_string()), "{text}");
            assert!(text.contains(expected), "{text}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
