//! The paper's motivating workload: a remote-surgery control stream
//! that must arrive within 65 ms, replayed through the playback
//! simulator while a problem develops around the destination.
//!
//! Prints a per-second timeline showing which schemes keep the surgeon
//! connected through the problem.
//!
//! Run with: `cargo run --release --example remote_surgery`

use dissemination_graphs::prelude::*;
use dissemination_graphs::sim::run_flow_full;
use dissemination_graphs::trace::LinkCondition;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = topology::presets::north_america_12();
    let flow = Flow::new(
        graph.node_by_name("JHU").expect("the hospital end"),
        graph.node_by_name("SEA").expect("the patient end"),
    );

    // 60 seconds of trace; a problem around SEA (the patient's city)
    // degrades every one of its incoming links to 35% loss during
    // 20s..40s — no clean link to re-route onto, so only schemes that
    // spread each packet across *all* the links can mask it.
    let mut traces = TraceSet::clean(graph.edge_count(), 6, Micros::from_secs(10))?;
    for &e in graph.in_edges(flow.destination) {
        for interval in 2..4 {
            traces.set_condition(e, interval, LinkCondition::new(0.35, Micros::ZERO));
        }
    }

    let config = PlaybackConfig { packets_per_second: 100, ..PlaybackConfig::default() };
    println!("remote surgery {}: 100 control packets/s, 65 ms deadline", flow.label(&graph));
    println!("destination-area problem from t=20s to t=40s\n");

    let mut timelines = Vec::new();
    for kind in [
        SchemeKind::StaticSinglePath,
        SchemeKind::StaticTwoDisjoint,
        SchemeKind::DynamicTwoDisjoint,
        SchemeKind::TargetedRedundancy,
    ] {
        let mut scheme = build_scheme(
            kind,
            &graph,
            flow,
            ServiceRequirement::default(),
            &SchemeParams::default(),
        )?;
        let out = run_flow_full(&graph, &traces, scheme.as_mut(), &config);
        timelines.push((kind, out.stats, out.seconds));
    }

    println!("timeline ('.' = available second, 'X' = violated second):");
    for (kind, _, records) in &timelines {
        let line: String = records.iter().map(|r| if r.unavailable { 'X' } else { '.' }).collect();
        println!("  {:<24} {line}", kind.label());
    }
    println!("\nsummary:");
    for (kind, stats, _) in &timelines {
        println!(
            "  {:<24} unavailable {:>2}s of {}s   on-time {:.2}%   cost {:.2} packets/msg",
            kind.label(),
            stats.unavailable_seconds,
            stats.seconds,
            stats.on_time_fraction() * 100.0,
            stats.average_cost()
        );
    }
    println!(
        "\nthe targeted destination-problem graph enters {} on every usable link,",
        graph.node(flow.destination).name
    );
    println!("masking the problem that blinds the one- and two-path schemes.");
    Ok(())
}
