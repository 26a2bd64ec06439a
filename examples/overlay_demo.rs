//! Run the real overlay on localhost: 12 UDP daemons with emulated WAN
//! latency, live monitoring, and targeted-redundancy routing reacting
//! to an injected problem around the source.
//!
//! Run with: `cargo run --release --example overlay_demo`

use dissemination_graphs::overlay::cluster::{Cluster, ClusterConfig};
use dissemination_graphs::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = topology::presets::north_america_12();
    println!("launching {} overlay nodes on localhost...", graph.node_count());
    let cluster = Cluster::launch(
        &graph,
        ClusterConfig { hello_interval: Duration::from_millis(20), ..ClusterConfig::default() },
    )?;
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)));
    println!("link-state flooding converged\n");

    let flow = Flow::new(graph.node_by_name("NYC").unwrap(), graph.node_by_name("SJC").unwrap());
    let rx = cluster.open_receiver(flow)?;
    let tx =
        cluster.open_sender(flow, SchemeKind::TargetedRedundancy, ServiceRequirement::default())?;

    let send_phase = |label: &str, n: u64| {
        for i in 0..n {
            tx.send(format!("{label}-{i}").as_bytes()).expect("send succeeds");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(300));
        let got = rx.drain();
        let on_time = got.iter().filter(|d| d.on_time).count();
        let out_degree = tx.current_graph().forwarding_edges(&graph, flow.source).count();
        println!(
            "{label:<16} delivered {:>3}/{n} on time {on_time:>3}  source branches in use: {out_degree}",
            got.len()
        );
    };

    send_phase("clean", 100);

    println!("\ninjecting 40% loss on every link around NYC (a source-area problem)...");
    cluster.impair_node(flow.source, 0.4, Micros::ZERO);
    std::thread::sleep(Duration::from_millis(500)); // detection + switch
    send_phase("under-problem", 100);

    println!("\nhealing NYC...");
    cluster.heal_node(flow.source);
    std::thread::sleep(Duration::from_millis(500));
    send_phase("healed", 100);

    let counters = cluster.node(flow.source).metrics_snapshot().counters;
    println!(
        "\nNYC stats: {} data sent, {} retransmissions, {} graph changes",
        counters.data_sent, counters.retransmissions_served, counters.graph_changes
    );
    cluster.shutdown();
    Ok(())
}
