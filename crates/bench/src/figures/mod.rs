//! The paper's tables and figures, one function each.
//!
//! A figure is a function from an [`Experiment`] (and, for the four
//! that read the standard comparison, its [`Tally`]) or from its own
//! flags to a [`Report`]: the text it prints and the files it writes.
//! [`FIGURES`] lists them under the names `dg-exp` takes.

mod scale;

use crate::cli::{Cli, CliError, Matches};
use crate::{topo_cli, topo_from_matches, Experiment, Report, Tally};
use dg_core::scheme::{build_scheme, SchemeKind, SchemeParams, TargetedMode, TargetedRedundancy};
use dg_core::{DisseminationGraph, Flow, ServiceRequirement};
use dg_sim::experiment::{SchemeAggregate, TableRow};
use dg_sim::{gap_coverage, run_flow_full, LatencyHistogram, PlaybackConfig};
use dg_topology::algo::disjoint::{max_disjoint, Disjointness};
use dg_topology::algo::{dijkstra, reach};
use dg_topology::generate::TopoSpec;
use dg_topology::{Graph, Micros, NodeId};
use dg_trace::analysis::{classify_flows, problem_episode_durations, FlowProblemSummary};
use dg_trace::{LinkCondition, TraceSet};

/// Where a figure's input comes from; it also decides the flags.
#[derive(Clone, Copy)]
pub enum Input {
    /// The standard comparison's tally, which holds at least these
    /// schemes. Takes the [`Experiment::cli`] flags.
    Compared(&'static [SchemeKind], fn(&Experiment, &Tally) -> Report),
    /// Its own weeks over the experiment (recorded or generated) and
    /// its own flags. Takes the [`Experiment::cli`] flags.
    Weeks(fn(&Experiment, &Matches) -> Result<Report, CliError>),
    /// Its own sweeps over weeks it generates: the
    /// [`Experiment::generated_cli`] flags, so no `--trace`.
    Generated(fn(&Experiment, &Matches) -> Result<Report, CliError>),
    /// Only its own flags.
    Alone(fn(&Matches) -> Result<Report, CliError>),
}

/// One table or figure.
pub struct Figure {
    /// The name `dg-exp` takes.
    pub name: &'static str,
    about: &'static str,
    /// What it runs on.
    pub input: Input,
    /// The flags it takes beyond those of its input.
    flags: fn(Cli) -> Cli,
}

impl Figure {
    /// The flags it accepts.
    pub fn cli(&self) -> Cli {
        let name = format!("dg-exp {}", self.name);
        out_cli((self.flags)(match self.input {
            Input::Compared(..) | Input::Weeks(_) => Experiment::cli(name, self.about),
            Input::Generated(_) => Experiment::generated_cli(name, self.about),
            Input::Alone(_) => Cli::new(name, self.about),
        }))
    }

    /// Runs the figure on its own parsed flags.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] for a flag value the figure cannot use.
    pub fn run(&self, matches: &Matches) -> Result<Report, CliError> {
        match self.input {
            Input::Compared(kinds, figure) => {
                let experiment = Experiment::from_matches(matches)?;
                Ok(figure(&experiment, &experiment.run(kinds)))
            }
            Input::Weeks(figure) | Input::Generated(figure) => {
                figure(&Experiment::from_matches(matches)?, matches)
            }
            Input::Alone(figure) => figure(matches),
        }
    }
}

/// Chains `--out DIR`, where a run writes its files, onto a CLI: every
/// figure and `dg-exp all` take it.
pub fn out_cli(cli: Cli) -> Cli {
    cli.flag("out", "DIR", "output directory (default: results/)")
}

/// The schemes of ablation_kpaths: always-on 3 and 4 disjoint paths
/// beside the schemes they compete with.
const KPATHS: [SchemeKind; 6] = [
    SchemeKind::StaticSinglePath,
    SchemeKind::StaticTwoDisjoint,
    SchemeKind::StaticKDisjoint(3),
    SchemeKind::StaticKDisjoint(4),
    SchemeKind::TargetedRedundancy,
    SchemeKind::TimeConstrainedFlooding,
];

/// The standard comparison: every scheme of Table 2 plus the k-path
/// schemes of ablation_kpaths. `dg-exp all` runs it once, and table2,
/// fig4_per_flow, fig5_cost and ablation_kpaths read it.
pub const STANDARD: [SchemeKind; 8] = [
    SchemeKind::StaticSinglePath,
    SchemeKind::DynamicSinglePath,
    SchemeKind::StaticTwoDisjoint,
    SchemeKind::DynamicTwoDisjoint,
    SchemeKind::TargetedRedundancy,
    SchemeKind::TimeConstrainedFlooding,
    SchemeKind::StaticKDisjoint(3),
    SchemeKind::StaticKDisjoint(4),
];

/// Every figure, in the order `dg-exp all` runs them.
pub static FIGURES: [Figure; 12] = [
    Figure {
        name: "table1",
        about: "problem classification by location relative to each flow",
        input: Input::Weeks(table1),
        flags: |cli| {
            let help = "loss rate above which an interval counts as problematic";
            cli.flag_default("loss-threshold", "F", help, "0.05")
        },
    },
    Figure {
        name: "table2",
        about: "the headline availability/cost comparison table",
        input: Input::Compared(&SchemeKind::ALL, table2),
        flags: |cli| cli,
    },
    Figure {
        name: "fig1_graphs",
        about: "example dissemination graphs for one flow",
        input: Input::Alone(fig1_graphs),
        flags: |cli| {
            topo_cli(cli.flag("src", "SITE", "flow source site (default: first default flow)"))
                .flag("dst", "SITE", "flow destination site")
        },
    },
    Figure {
        name: "fig2_topology",
        about: "the evaluation overlay topology",
        input: Input::Alone(fig2_topology),
        flags: topo_cli,
    },
    Figure {
        name: "fig3_case_study",
        about: "per-second delivery across one problem event",
        input: Input::Alone(fig3_case_study),
        flags: |cli| {
            topo_cli(cli.flag_default(
                "loss",
                "F",
                "loss fraction on the destination's links",
                "0.35",
            ))
            .flag_default("rate", "PPS", "application packets per second", "100")
        },
    },
    Figure {
        name: "fig4_per_flow",
        about: "per-flow availability comparison across schemes",
        input: Input::Compared(&SchemeKind::ALL, fig4_per_flow),
        flags: |cli| cli,
    },
    Figure {
        name: "fig5_cost",
        about: "cost (packets per message) comparison across schemes",
        input: Input::Compared(&SchemeKind::ALL, fig5_cost),
        flags: |cli| cli,
    },
    Figure {
        name: "fig6_sensitivity",
        about: "sensitivity sweep over generator problem rates",
        input: Input::Generated(fig6_sensitivity),
        flags: |cli| cli,
    },
    Figure {
        name: "fig7_latency_cdf",
        about: "latency distribution (CDF) per scheme",
        input: Input::Weeks(fig7_latency_cdf),
        flags: |cli| cli,
    },
    Figure {
        name: "fig8_scale",
        about: "scheme quality and route-computation cost vs topology size",
        input: Input::Alone(scale::fig8_scale),
        flags: scale::flags,
    },
    Figure {
        name: "ablation_kpaths",
        about: "ablation: k-disjoint-path schemes vs targeted redundancy",
        input: Input::Compared(&KPATHS, ablation_kpaths),
        flags: |cli| cli,
    },
    Figure {
        name: "ablation_branches",
        about: "ablation: coverage vs cost as targeted branch caps vary",
        input: Input::Weeks(ablation_branches),
        flags: |cli| cli,
    },
];

/// The figure called `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// `"a->b"` for an edge or a flow's endpoints.
fn arrow(graph: &Graph, src: NodeId, dst: NodeId) -> String {
    format!("{}->{}", graph.node(src).name, graph.node(dst).name)
}

/// The cost of static two disjoint paths, the yardstick of every cost
/// column.
fn pair_cost(rows: &[TableRow]) -> f64 {
    rows.iter()
        .find(|r| r.scheme == SchemeKind::StaticTwoDisjoint)
        .expect("static two disjoint paths present")
        .average_cost
}

/// A figure's one flow: `preset` on the paper's US preset, the first
/// sampled disjoint-routable flow on any other topology.
fn case_flow(spec: &TopoSpec, graph: &Graph, (src, dst): (&str, &str)) -> Flow {
    match (graph.node_by_name(src), graph.node_by_name(dst)) {
        (Some(s), Some(t)) if *spec == TopoSpec::NorthAmerica => Flow::new(s, t),
        _ => {
            let (s, t) = *spec.default_flows(graph, 1).first().expect("topology has a flow");
            Flow::new(s, t)
        }
    }
}

/// Table-2 rows as text: scheme, unavailable seconds, availability when
/// asked, gap coverage, cost, and cost against two disjoint paths.
fn comparison_table(rows: &[TableRow], availability: bool) -> Vec<Vec<String>> {
    let pair = pair_cost(rows);
    let mut header = vec![
        "scheme",
        "unavail s",
        "availability %",
        "gap coverage %",
        "avg cost",
        "cost vs 2-disjoint",
    ];
    if !availability {
        header.remove(2);
    }
    let mut table = vec![header.into_iter().map(String::from).collect::<Vec<_>>()];
    for r in rows {
        let mut row = vec![r.scheme.label().to_string(), r.unavailable_seconds.to_string()];
        if availability {
            row.push(format!("{:.4}", r.availability_pct));
        }
        row.push(format!("{:.1}", r.gap_coverage * 100.0));
        row.push(format!("{:.2}", r.average_cost));
        row.push(format!("{:+.1}%", (r.average_cost / pair - 1.0) * 100.0));
        table.push(row);
    }
    table
}

/// Table 1 (reconstructed): classification of problematic intervals by
/// location relative to each flow.
///
/// The paper's key empirical finding is that most problems affecting a
/// flow sit around its source or destination; this regenerates that
/// analysis over the experiment's traces (restricted, per flow, to the
/// links inside its time-constrained flooding region at the
/// experiment's deadline).
fn table1(experiment: &Experiment, matches: &Matches) -> Result<Report, CliError> {
    let threshold: f64 = matches.get_or("loss-threshold", 0.05)?;
    let (graph, flows) = (&experiment.topology, &experiment.flows);
    let deadline = experiment.config.playback.deadline;
    let mut total = FlowProblemSummary::default();
    // Problem-episode durations: reactive routing only pays off when
    // problems outlive the detection delay.
    let mut episodes: Vec<usize> = Vec::new();
    for (_, traces) in experiment.weeks() {
        total.merge(&classify_flows(graph, &traces, flows, threshold, deadline));
        for &(s, t) in flows {
            let relevant = reach::time_constrained_edges(graph, s, t, deadline).unwrap_or_default();
            episodes.extend(problem_episode_durations(
                graph,
                &traces,
                s,
                t,
                threshold,
                Some(&relevant),
            ));
        }
    }
    episodes.sort_unstable();

    let pct = |n: usize| {
        if total.problematic_intervals == 0 {
            0.0
        } else {
            100.0 * n as f64 / total.problematic_intervals as f64
        }
    };
    let row =
        |label: &str, n: usize| vec![label.to_string(), n.to_string(), format!("{:.1}", pct(n))];
    let table = vec![
        vec!["problem location".to_string(), "intervals".to_string(), "% of problems".to_string()],
        row("source only", total.source),
        row("destination only", total.destination),
        row("both endpoints", total.both),
        row("middle only", total.middle),
    ];
    let mut report = Report::default();
    report.publish("table1", &table);
    report.line(format!(
        "\nproblematic flow-intervals: {} of {} ({:.2}%)",
        total.problematic_intervals,
        total.total_intervals,
        100.0 * total.problematic_intervals as f64 / total.total_intervals.max(1) as f64
    ));
    report.line(format!(
        "fraction involving an endpoint: {:.1}% (paper: roughly two-thirds)",
        total.fraction_around_endpoints() * 100.0
    ));
    if let Some(&longest) = episodes.last() {
        let interval_secs = 10;
        let at = |q: f64| episodes[((episodes.len() - 1) as f64 * q) as usize] * interval_secs;
        report.line(format!(
            "problem episodes: {} total; duration P50 {}s, P90 {}s, max {}s \
             (monitoring interval {interval_secs}s — most episodes long outlive \
             a ~1s detection delay, which is why reactive routing works)",
            episodes.len(),
            at(0.5),
            at(0.9),
            longest * interval_secs,
        ));
    }
    Ok(report)
}

/// Table 2 (reconstructed): the headline routing-scheme comparison.
///
/// For every scheme: total unavailable seconds across the flows and all
/// simulated weeks, availability, fraction of the single-path-to-optimal
/// gap covered, and average cost. The paper's claims to reproduce in
/// shape: static two disjoint paths cover ≈ 45 % of the gap, dynamic
/// two disjoint paths ≈ 70 %, targeted redundancy > 99 % at ≈ 2 % more
/// cost than two disjoint paths.
fn table2(experiment: &Experiment, tally: &Tally) -> Report {
    eprintln!(
        "table2: {} flows x {} weeks x {}s at {} pkt/s",
        experiment.flows.len(),
        experiment.seeds.len(),
        experiment.seconds_per_week,
        experiment.config.playback.packets_per_second,
    );
    let table = comparison_table(&tally.rows(&SchemeKind::ALL), true);
    let mut report = Report::default();
    report.publish("table2", &table);
    report
}

/// Figure 1 (reconstructed): example dissemination graphs for one flow
/// — a single path, two disjoint paths, the source/destination problem
/// graphs, the robust graph and time-constrained flooding — with edges,
/// cost, and a DOT rendering each.
fn fig1_graphs(matches: &Matches) -> Result<Report, CliError> {
    let spec = topo_from_matches(matches)?;
    let graph = spec.build();
    let site = |flag: &str, name: &str| {
        graph.node_by_name(name).ok_or_else(|| CliError::BadValue {
            flag: flag.to_string(),
            value: name.to_string(),
            expected: "a site of the topology",
        })
    };
    let flow = match (matches.value("src"), matches.value("dst")) {
        (Some(src), Some(dst)) => Flow::new(site("src", src)?, site("dst", dst)?),
        _ => case_flow(&spec, &graph, ("NYC", "SJC")),
    };
    let requirement =
        ServiceRequirement::new(spec.default_deadline(&graph, &[(flow.source, flow.destination)]));
    let params = SchemeParams::default();
    let targeted =
        TargetedRedundancy::new(&graph, flow, requirement, &params).expect("flow is routable");
    let flooding =
        build_scheme(SchemeKind::TimeConstrainedFlooding, &graph, flow, requirement, &params)
            .expect("deadline feasible");
    let single = build_scheme(SchemeKind::StaticSinglePath, &graph, flow, requirement, &params)
        .expect("routable");
    let graphs: [(&str, &DisseminationGraph); 6] = [
        ("single-path", single.current()),
        ("two-disjoint", targeted.graph_for_mode(TargetedMode::Normal)),
        ("source-problem", targeted.graph_for_mode(TargetedMode::SourceProblem)),
        ("destination-problem", targeted.graph_for_mode(TargetedMode::DestinationProblem)),
        ("robust", targeted.graph_for_mode(TargetedMode::Robust)),
        ("flooding", flooding.current()),
    ];

    let mut report = Report::default();
    report.line(format!(
        "dissemination graphs for {} (deadline {}):\n",
        flow.label(&graph),
        requirement.deadline
    ));
    let mut table = vec![["graph", "edges", "cost", "best latency"].map(String::from).to_vec()];
    for (name, dg) in &graphs {
        table.push(vec![
            name.to_string(),
            dg.len().to_string(),
            dg.cost(&graph).to_string(),
            dg.best_latency(&graph).to_string(),
        ]);
    }
    report.table(&table);
    report.line("");
    for (name, dg) in graphs {
        let edges: Vec<_> = dg.edges().iter().map(|&e| graph.edge(e)).collect();
        let listed: Vec<String> = edges.iter().map(|i| arrow(&graph, i.src, i.dst)).collect();
        report.line(format!("{name}: {}", listed.join(" ")));
        let mut dot = String::from("digraph dg {\n  rankdir=LR;\n");
        for i in edges {
            dot.push_str(&format!("  {} -> {};\n", graph.node(i.src).name, graph.node(i.dst).name));
        }
        report.files.push((format!("fig1_{name}.dot"), dot + "}\n"));
    }
    Ok(report)
}

/// Figure 2 (reconstructed): the evaluation overlay topology — sites,
/// links with one-way latencies, a DOT rendering — and the properties
/// the evaluation relies on (two node-disjoint routes and a feasible
/// deadline for every evaluation flow).
fn fig2_topology(matches: &Matches) -> Result<Report, CliError> {
    let spec = topo_from_matches(matches)?;
    let graph = spec.build();
    let mut report = Report::default();
    report.line(format!(
        "evaluation topology {}: {} sites, {} directed edges\n",
        spec.label(),
        graph.node_count(),
        graph.edge_count()
    ));
    let mut table = vec![vec!["link".to_string(), "one-way latency".to_string()]];
    for e in graph.edges() {
        let info = graph.edge(e);
        // Print each bidirectional link once.
        if info.src < info.dst {
            table.push(vec![
                format!("{} <-> {}", graph.node(info.src).name, graph.node(info.dst).name),
                info.latency.to_string(),
            ]);
        }
    }
    report.publish("fig2_topology", &table);

    let flows = spec.default_flows(&graph, 16);
    let deadline = spec.default_deadline(&graph, &flows);
    report.line(format!("\nevaluation flows (deadline {deadline}):"));
    let mut rows =
        vec![["flow", "shortest path", "latency", "disjoint capacity", "deadline feasible"]
            .map(String::from)
            .to_vec()];
    for (s, t) in flows {
        let p = dijkstra::shortest_path(&graph, s, t).expect("flows are routable");
        rows.push(vec![
            arrow(&graph, s, t),
            p.display(&graph),
            p.latency(&graph).to_string(),
            max_disjoint(&graph, s, t, Disjointness::Node).to_string(),
            reach::deadline_feasible(&graph, s, t, deadline).to_string(),
        ]);
    }
    report.table(&rows);
    report.files.push(("fig2_topology.dot".to_string(), graph.to_dot()));
    Ok(report)
}

/// Figure 3 (reconstructed): one problem event. A destination-area
/// problem strikes mid-trace; the figure is each scheme's per-second
/// on-time delivery rate across it — why targeted redundancy tracks the
/// optimal scheme while path-based routing suffers.
fn fig3_case_study(matches: &Matches) -> Result<Report, CliError> {
    let loss: f64 = matches.get_or("loss", 0.35)?;
    let rate: u32 = matches.get_or("rate", 100)?;
    let spec = topo_from_matches(matches)?;
    let graph = spec.build();
    let flow = case_flow(&spec, &graph, ("WAS", "SEA"));
    let deadline = spec.default_deadline(&graph, &[(flow.source, flow.destination)]);

    // 90 seconds; the event covers 30s..60s on every link into the
    // destination.
    let mut traces =
        TraceSet::clean(graph.edge_count(), 9, Micros::from_secs(10)).expect("valid shape");
    for &e in graph.in_edges(flow.destination) {
        for interval in 3..6 {
            traces.set_condition(e, interval, LinkCondition::new(loss, Micros::ZERO));
        }
    }

    let config = PlaybackConfig { packets_per_second: rate, deadline, ..Default::default() };
    let mut report = Report::default();
    report.line(format!(
        "case study {}: {}% loss on all destination links, 30s..60s\n",
        flow.label(&graph),
        (loss * 100.0) as u32
    ));
    let mut csv = vec![vec!["second".to_string()]];
    let mut series = Vec::new();
    for kind in SchemeKind::ALL {
        let requirement = ServiceRequirement::new(deadline);
        let mut scheme = build_scheme(kind, &graph, flow, requirement, &SchemeParams::default())
            .expect("flow routable");
        let out = run_flow_full(&graph, &traces, scheme.as_mut(), &config);
        csv[0].push(kind.label().to_string());
        report.line(format!(
            "{:<28} unavailable {:>2}s  on-time {:>7.3}%",
            kind.label(),
            out.stats.unavailable_seconds,
            out.stats.on_time_fraction() * 100.0
        ));
        series.push(out.seconds);
    }
    for second in 0..series[0].len() {
        let mut row = vec![second.to_string()];
        for s in &series {
            let r = &s[second];
            row.push(format!("{:.3}", r.on_time as f64 / r.sent.max(1) as f64));
        }
        csv.push(row);
    }
    report.csv("fig3_case_study", &csv);
    report.line("\nper-second on-time series written to results/fig3_case_study.csv");
    Ok(report)
}

/// Figure 4 (reconstructed): unavailable seconds per flow, one series
/// per scheme — how uniformly each scheme's benefit holds up across
/// source/destination pairs.
fn fig4_per_flow(experiment: &Experiment, tally: &Tally) -> Report {
    let graph = &experiment.topology;
    let aggregates = tally.select(&SchemeKind::ALL);
    let mut header = vec!["flow".to_string()];
    header.extend(SchemeKind::ALL.iter().map(|k| k.label().to_string()));
    let mut table = vec![header];
    for (i, &(s, t)) in experiment.flows.iter().enumerate() {
        let mut row = vec![arrow(graph, s, t)];
        row.extend(aggregates.iter().map(|a| a.per_flow[i].unavailable_seconds.to_string()));
        table.push(row);
    }
    let mut report = Report::default();
    report.line(format!(
        "unavailable seconds per flow ({} weeks x {}s):\n",
        experiment.seeds.len(),
        experiment.seconds_per_week
    ));
    report.publish("fig4_per_flow", &table);

    // Worst-flow summary: the paper highlights that targeted redundancy
    // helps the *worst* flows, not just the average.
    report.line("\nworst flow per scheme:");
    for agg in &aggregates {
        let worst = agg.per_flow.iter().max_by_key(|f| f.unavailable_seconds).expect("flows");
        report.line(format!(
            "  {:<28} {:>5}s unavailable ({})",
            agg.kind.label(),
            worst.unavailable_seconds,
            worst.flow.label(graph)
        ));
    }
    report
}

/// Figure 5 (reconstructed): the cost of each scheme, two ways — the
/// *static* cost of its dissemination graphs (edges per message across
/// the flows), and the *measured* average cost from playback, which
/// folds in targeted redundancy's escalations (the paper's "about 2%
/// over two disjoint paths").
fn fig5_cost(experiment: &Experiment, tally: &Tally) -> Report {
    let graph = &experiment.topology;
    let mut report = Report::default();
    report.line("static dissemination-graph cost (edges per message):\n");
    let mut table = vec![["scheme", "min", "mean", "max"].map(String::from).to_vec()];
    for kind in SchemeKind::ALL {
        let costs: Vec<u64> = experiment
            .flows
            .iter()
            .map(|&(s, t)| {
                build_scheme(
                    kind,
                    graph,
                    Flow::new(s, t),
                    experiment.config.requirement(),
                    &experiment.config.scheme_params,
                )
                .expect("flows routable")
                .current()
                .cost(graph)
            })
            .collect();
        let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
        table.push(vec![
            kind.label().to_string(),
            costs.iter().min().unwrap().to_string(),
            format!("{mean:.2}"),
            costs.iter().max().unwrap().to_string(),
        ]);
    }
    report.publish("fig5_cost_static", &table);

    report.line("\nmeasured cost from playback (packets actually sent per message):\n");
    let rows = tally.rows(&SchemeKind::ALL);
    let pair = pair_cost(&rows);
    let mut measured = vec![["scheme", "avg cost", "vs 2-disjoint"].map(String::from).to_vec()];
    for r in &rows {
        measured.push(vec![
            r.scheme.label().to_string(),
            format!("{:.2}", r.average_cost),
            format!("{:+.1}%", (r.average_cost / pair - 1.0) * 100.0),
        ]);
    }
    report.publish("fig5_cost_measured", &measured);
    report
}

/// Figure 6 (reconstructed): sensitivity of gap coverage to the
/// problem-location mix and to the deadline. Targeted redundancy's
/// advantage rests on problems clustering around flow endpoints;
/// sweeping the access-site bias from uniform (1x) to strongly
/// clustered (8x) shows how each scheme's coverage responds, and
/// sweeping the deadline shows how much slack the schemes need. Every
/// sweep point generates its own weeks, so the figure takes no
/// `--trace`.
fn fig6_sensitivity(experiment: &Experiment, _: &Matches) -> Result<Report, CliError> {
    const SWEPT: [SchemeKind; 4] = [
        SchemeKind::StaticTwoDisjoint,
        SchemeKind::DynamicTwoDisjoint,
        SchemeKind::TargetedRedundancy,
        SchemeKind::TimeConstrainedFlooding,
    ];
    let mut kinds = vec![SchemeKind::StaticSinglePath];
    kinds.extend(SWEPT);
    let sweep =
        |report: &mut Report, name: &str, first: &str, points: Vec<(String, Experiment)>| {
            let mut table = vec![vec![first.to_string()]];
            table[0].extend(SWEPT.iter().map(|k| k.label().to_string()));
            for (label, point) in points {
                let rows = point.run(&kinds).rows(&kinds);
                let mut line = vec![label];
                line.extend(rows[1..].iter().map(|r| format!("{:.1}", r.gap_coverage * 100.0)));
                table.push(line);
            }
            report.publish(name, &table);
        };

    let mut report = Report::default();
    report.line("sweep 1: gap coverage vs access-site problem bias\n");
    let biased = [1.0, 2.0, 4.0, 8.0]
        .map(|bias| (format!("{bias}x"), Experiment { access_bias: bias, ..experiment.clone() }));
    sweep(&mut report, "fig6_bias_sweep", "bias", Vec::from(biased));

    report.line("\nsweep 2: gap coverage vs one-way deadline\n");
    let deadlines = [50, 65, 80, 100].map(|ms| {
        let mut point = experiment.clone();
        point.config.playback.deadline = Micros::from_millis(ms);
        (format!("{ms}ms"), point)
    });
    sweep(&mut report, "fig6_deadline_sweep", "deadline", Vec::from(deadlines));
    Ok(report)
}

/// Figure 7 (extension): the latency distribution behind the
/// availability numbers. Per scheme: delivered-packet latency
/// percentiles (loss-aware — a quantile that falls among
/// never-delivered packets reports `lost`) and the full CDF. The extra
/// branches don't just rescue packets, they tighten the tail.
fn fig7_latency_cdf(experiment: &Experiment, _: &Matches) -> Result<Report, CliError> {
    let graph = &experiment.topology;
    let mut histograms: Vec<(SchemeKind, LatencyHistogram)> =
        SchemeKind::ALL.iter().map(|&k| (k, LatencyHistogram::new())).collect();
    for (config, traces) in experiment.weeks() {
        for (kind, hist) in &mut histograms {
            for &(s, t) in &experiment.flows {
                let mut scheme = build_scheme(
                    *kind,
                    graph,
                    Flow::new(s, t),
                    config.requirement(),
                    &config.scheme_params,
                )
                .expect("flows routable");
                hist.merge(
                    &run_flow_full(graph, &traces, scheme.as_mut(), &config.playback).latency,
                );
            }
        }
    }

    let ms = |m: Micros| format!("{:.1}ms", m.as_micros() as f64 / 1_000.0);
    let mut table =
        vec![["scheme", "P50", "P90", "P99", "P99.9", "P99.99"].map(String::from).to_vec()];
    for (kind, hist) in &histograms {
        let mut row = vec![kind.label().to_string()];
        for q in [0.5, 0.9, 0.99, 0.999, 0.9999] {
            row.push(hist.quantile(q).map_or("lost".to_string(), ms));
        }
        table.push(row);
    }
    let mut report = Report::default();
    report.line(format!(
        "one-way latency percentiles over all packets (deadline {}):\n",
        experiment.config.playback.deadline
    ));
    report.publish("fig7_percentiles", &table);

    let mut cdf_rows = vec![["scheme", "latency_ms", "cdf"].map(String::from).to_vec()];
    for (kind, hist) in &histograms {
        for (lat, frac) in hist.cdf() {
            cdf_rows.push(vec![
                kind.label().to_string(),
                format!("{:.3}", lat.as_micros() as f64 / 1_000.0),
                format!("{frac:.6}"),
            ]);
        }
    }
    report.csv("fig7_latency_cdf", &cdf_rows);
    Ok(report)
}

/// Ablation: does "just add more disjoint paths" match targeted
/// redundancy? Permanent 3- and 4-path redundancy beside the targeted
/// kind, which adds branches only around troubled endpoints and only
/// while the trouble lasts.
fn ablation_kpaths(_: &Experiment, tally: &Tally) -> Report {
    let table = comparison_table(&tally.rows(&KPATHS), false);
    let mut report = Report::default();
    report.publish("ablation_kpaths", &table);
    report.line(
        "\nreading: permanent k-path redundancy pays its full cost all the time;\n\
         targeted redundancy approaches flooding's coverage while paying extra\n\
         only during endpoint problems.",
    );
    report
}

/// Ablation: how many targeted branches are enough? The paper's problem
/// graphs branch through *every* usable neighbour of the troubled
/// endpoint; this caps the extra branches (0 = the plain disjoint pair,
/// up to unlimited) and measures the coverage/cost trade-off.
fn ablation_branches(experiment: &Experiment, _: &Matches) -> Result<Report, CliError> {
    let anchors =
        experiment.run(&[SchemeKind::StaticSinglePath, SchemeKind::TimeConstrainedFlooding]);
    let baseline = anchors.0[0].totals.unavailable_seconds;
    let optimal = anchors.0[1].totals.unavailable_seconds;
    let targeted: Vec<(Option<u8>, SchemeAggregate)> = [Some(0), Some(1), Some(2), None]
        .into_iter()
        .map(|limit| {
            let mut point = experiment.clone();
            point.config.scheme_params.problem_branch_limit = limit;
            (limit, point.run(&[SchemeKind::TargetedRedundancy]).0.remove(0))
        })
        .collect();
    let pair = targeted[0].1.average_cost();

    let mut table =
        vec![["extra branches", "unavail s", "gap coverage %", "avg cost", "cost vs pair"]
            .map(String::from)
            .to_vec()];
    for (limit, agg) in &targeted {
        let unavailable = agg.totals.unavailable_seconds;
        table.push(vec![
            limit.map_or("all".to_string(), |l| l.to_string()),
            unavailable.to_string(),
            format!("{:.1}", gap_coverage(baseline, optimal, unavailable) * 100.0),
            format!("{:.2}", agg.average_cost()),
            format!("{:+.2}%", (agg.average_cost() / pair - 1.0) * 100.0),
        ]);
    }
    let mut report = Report::default();
    report.line(format!(
        "targeted redundancy vs branch cap (baseline {baseline} / optimal {optimal} unavailable s):\n"
    ));
    report.publish("ablation_branches", &table);
    Ok(report)
}
