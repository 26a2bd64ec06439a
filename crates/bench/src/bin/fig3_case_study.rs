//! Figure 3 (reconstructed): case study of one problem event.
//!
//! A destination-area problem strikes mid-trace; the figure is the
//! per-second on-time delivery rate of each scheme across the event —
//! the paper's illustration of *why* targeted redundancy tracks the
//! optimal scheme while path-based routing suffers.
//!
//! Usage: `cargo run --release -p dg-bench --bin fig3_case_study --
//! [--loss F] [--rate N]`

use dg_bench::cli::Cli;
use dg_bench::{topo_cli, topo_from_matches, write_csv};
use dg_core::scheme::{build_scheme, SchemeKind, SchemeParams};
use dg_core::{Flow, ServiceRequirement};
use dg_sim::{run_flow_full, PlaybackConfig};
use dg_topology::generate::TopoSpec;
use dg_topology::Micros;
use dg_trace::{LinkCondition, TraceSet};

fn main() {
    let cli = topo_cli(
        Cli::new("fig3_case_study", "per-second delivery across one problem event")
            .flag_default("loss", "F", "loss fraction on the destination's links", "0.35")
            .flag_default("rate", "PPS", "application packets per second", "100"),
    );
    let matches = cli.parse_env();
    let loss: f64 = matches.get_or("loss", 0.35).unwrap_or_else(|e| cli.exit_with(&e));
    let rate: u32 = matches.get_or("rate", 100).unwrap_or_else(|e| cli.exit_with(&e));
    let spec = topo_from_matches(&matches).unwrap_or_else(|e| cli.exit_with(&e));
    let graph = spec.build();
    // The paper's case-study flow on its preset; the first sampled
    // disjoint-routable flow on a generated overlay.
    let flow = if spec == TopoSpec::NorthAmerica {
        Flow::new(graph.node_by_name("WAS").unwrap(), graph.node_by_name("SEA").unwrap())
    } else {
        let (s, t) = *spec.default_flows(&graph, 1).first().expect("topology has a flow");
        Flow::new(s, t)
    };
    let endpoints = [(flow.source, flow.destination)];
    let deadline = spec.default_deadline(&graph, &endpoints);

    // 90 seconds; the event covers 30s..60s on every link into SEA.
    let mut traces =
        TraceSet::clean(graph.edge_count(), 9, Micros::from_secs(10)).expect("valid shape");
    for &e in graph.in_edges(flow.destination) {
        for interval in 3..6 {
            traces.set_condition(e, interval, LinkCondition::new(loss, Micros::ZERO));
        }
    }

    let config = PlaybackConfig { packets_per_second: rate, deadline, ..Default::default() };
    println!(
        "case study {}: {}% loss on all destination links, 30s..60s\n",
        flow.label(&graph),
        (loss * 100.0) as u32
    );

    let mut csv = vec![vec!["second".to_string()]];
    let mut series = Vec::new();
    for kind in SchemeKind::ALL {
        let mut scheme = build_scheme(
            kind,
            &graph,
            flow,
            ServiceRequirement::new(deadline),
            &SchemeParams::default(),
        )
        .expect("flow routable");
        let out = run_flow_full(&graph, &traces, scheme.as_mut(), &config);
        let (stats, records) = (out.stats, out.seconds);
        csv[0].push(kind.label().to_string());
        println!(
            "{:<28} unavailable {:>2}s  on-time {:>7.3}%",
            kind.label(),
            stats.unavailable_seconds,
            stats.on_time_fraction() * 100.0
        );
        series.push(records);
    }

    for second in 0..series[0].len() {
        let mut row = vec![second.to_string()];
        for s in &series {
            let r = &s[second];
            row.push(format!("{:.3}", r.on_time as f64 / r.sent.max(1) as f64));
        }
        csv.push(row);
    }
    write_csv("fig3_case_study", &csv);
    println!("\nper-second on-time series written to results/fig3_case_study.csv");
}
