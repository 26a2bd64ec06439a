//! A miniature Table 2: generate a fresh synthetic WAN trace and
//! compare all six routing schemes on one transcontinental flow.
//!
//! Run with: `cargo run --release --example scheme_comparison [seed]`

use dissemination_graphs::prelude::*;
use dissemination_graphs::sim::experiment::{run_comparison, tabulate, ExperimentConfig};
use dissemination_graphs::trace::gen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args().nth(1).map_or(7, |s| s.parse().unwrap_or(7));
    let graph = topology::presets::north_america_12();

    // Ten minutes of synthetic conditions with problems cranked up so a
    // short run still contains several events.
    let mut wan = SyntheticWanConfig::calibrated(seed);
    wan.duration = Micros::from_secs(600);
    wan.node_problems.events_per_hour = 4.0;
    wan.link_problems.events_per_hour = 1.0;
    let traces = gen::generate(&graph, &wan);

    let flows = vec![(graph.node_by_name("WAS").unwrap(), graph.node_by_name("LAX").unwrap())];
    let config = ExperimentConfig {
        playback: PlaybackConfig { packets_per_second: 100, seed, ..Default::default() },
        ..Default::default()
    };
    let aggregates = run_comparison(&graph, &traces, &flows, &SchemeKind::ALL, &config, 0)?;
    let rows =
        tabulate(&aggregates, SchemeKind::StaticSinglePath, SchemeKind::TimeConstrainedFlooding);

    println!("WAS->LAX, 600s synthetic trace (seed {seed}), 100 pkt/s:\n");
    println!(
        "{:<28} {:>9} {:>14} {:>13} {:>9}",
        "scheme", "unavail s", "availability %", "gap covered %", "avg cost"
    );
    for r in &rows {
        println!(
            "{:<28} {:>9} {:>14.4} {:>13.1} {:>9.2}",
            r.scheme.label(),
            r.unavailable_seconds,
            r.availability_pct,
            r.gap_coverage * 100.0,
            r.average_cost
        );
    }
    println!("\n(the full 16-flow, multi-week version is `cargo run -p dg-bench --bin dg-exp -- table2`)");
    Ok(())
}
