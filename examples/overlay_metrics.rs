//! Drive a localhost overlay through a fault, then dump the cluster's
//! full observability report — per-node counters, per-flow and per-link
//! cells, and each node's event journal — as JSON on shutdown.
//!
//! Run with: `cargo run --release --example overlay_metrics`

use dissemination_graphs::overlay::cluster::{Cluster, ClusterConfig};
use dissemination_graphs::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = topology::presets::north_america_12();
    let cluster = Cluster::launch(
        &graph,
        ClusterConfig { hello_interval: Duration::from_millis(20), ..ClusterConfig::default() },
    )?;
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)));

    let flow = Flow::new(graph.node_by_name("NYC").unwrap(), graph.node_by_name("SJC").unwrap());
    let rx = cluster.open_receiver(flow)?;
    let tx =
        cluster.open_sender(flow, SchemeKind::TargetedRedundancy, ServiceRequirement::default())?;

    // Clean traffic, then the same under a source-area problem so the
    // journal records detector triggers and recovery activity.
    for phase in ["clean", "impaired"] {
        if phase == "impaired" {
            cluster.impair_node(flow.source, 0.4, Micros::ZERO);
            std::thread::sleep(Duration::from_millis(500));
        }
        for i in 0..100u32 {
            tx.send(format!("{phase}-{i}").as_bytes())?;
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    std::thread::sleep(Duration::from_millis(500));
    drop(rx.drain());

    let report = cluster.metrics_report();
    cluster.shutdown();

    // The headline numbers, then the full serializable report.
    let fr = report.flow(flow).expect("flow was active");
    eprintln!(
        "flow {}: sent {} delivered {} (on time {}) lost {} cost {:.2} route changes {}",
        flow,
        fr.packets_sent,
        fr.packets_delivered,
        fr.packets_on_time,
        fr.packets_lost,
        fr.average_cost(),
        fr.graph_changes,
    );
    let events: usize = report.nodes.iter().map(|n| n.events.len()).sum();
    eprintln!(
        "cluster totals: {} datagrams / {} bytes shipped, {} journal events across {} nodes",
        report.totals.datagrams_sent,
        report.totals.bytes_sent,
        events,
        report.nodes.len(),
    );
    println!("{}", serde_json::to_string_pretty(&report)?);
    Ok(())
}
