//! Replay a seeded chaos storm against a live localhost overlay and
//! watch it degrade gracefully: bursty loss, duplication, corruption,
//! a blackholed link, a node crash/restart, and queue-overload bursts
//! that trip the SLA shedding machinery, followed by a settle window
//! where delivery recovers.
//!
//! Run with: `cargo run --release --example chaos_demo`

use dissemination_graphs::overlay::chaos::{ChaosProfile, ChaosRunner, ChaosSchedule};
use dissemination_graphs::overlay::cluster::{Cluster, ClusterConfig};
use dissemination_graphs::overlay::metrics::{ClusterMetricsReport, EventKind};
use dissemination_graphs::prelude::*;
use std::time::{Duration, Instant};

/// Journal entries matching `pred`, summed across every live node.
fn count_events(report: &ClusterMetricsReport, pred: impl Fn(&EventKind) -> bool) -> usize {
    report.nodes.iter().flat_map(|n| &n.events).filter(|e| pred(&e.kind)).count()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = topology::presets::north_america_12();
    let flow = Flow::new(graph.node_by_name("NYC").unwrap(), graph.node_by_name("SJC").unwrap());
    let mut cluster = Cluster::launch(
        &graph,
        ClusterConfig {
            hello_interval: Duration::from_millis(25),
            fault_seed: 7,
            // Small enough that the storm's overload bursts actually
            // cross the class shed bands (256/384/512 here).
            shipper_queue: 512,
            overload_hold_down: Duration::from_millis(300),
            ..ClusterConfig::default()
        },
    )?;
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)));

    let rx = cluster.open_receiver(flow)?;
    // Surgical class: targeted redundancy, the 65 ms deadline, and the
    // last spot in the shed order when an overload burst lands.
    let tx = cluster.open_sla_sender(flow, SlaClass::Surgical)?;

    // A deterministic storm: same seed, same schedule, every time. The
    // flow's endpoints are protected from crashes.
    let profile = ChaosProfile { overload_events: 2, ..ChaosProfile::default() };
    let schedule = ChaosSchedule::generate(
        7,
        graph.edge_count(),
        graph.node_count(),
        &[flow.source, flow.destination],
        &profile,
    );
    println!("chaos schedule ({} events):", schedule.events.len());
    println!("{}", schedule.to_json());

    let mut runner = ChaosRunner::new(&schedule, &graph)?;
    let started = Instant::now();
    let mut sent = 0u64;
    while started.elapsed() < Duration::from_millis(profile.duration_ms) {
        let fired = runner.poll(&mut cluster, started.elapsed())?;
        if fired > 0 {
            println!("[{:>5} ms] {fired} chaos event(s) fired", started.elapsed().as_millis());
        }
        tx.send(format!("msg-{sent}").as_bytes())?;
        sent += 1;
        std::thread::sleep(Duration::from_millis(4));
    }
    std::thread::sleep(Duration::from_millis(500));

    let deliveries = rx.drain();
    let on_time = deliveries.iter().filter(|d| d.on_time).count();
    println!("storm over: {sent} sent, {} delivered ({on_time} on time)", deliveries.len());

    let report = cluster.metrics_report();
    println!(
        "fault totals: drops {} dup {} corrupt {} | malformed {} | queue drops {} | links down {}",
        report.totals.fault_drops,
        report.totals.fault_duplicates,
        report.totals.fault_corruptions,
        report.totals.malformed,
        report.totals.queue_drops,
        report.totals.links_declared_down,
    );
    println!(
        "overload: shed bulk {} / timely {} / surgical {} | episodes entered {} exited {} downgrades {}",
        report.totals.shed_bulk,
        report.totals.shed_timely,
        report.totals.shed_surgical,
        count_events(&report, |k| matches!(k, EventKind::OverloadEnter { .. })),
        count_events(&report, |k| matches!(k, EventKind::OverloadExit { .. })),
        count_events(&report, |k| matches!(k, EventKind::ClassDowngraded { .. })),
    );
    let fr = report.flow(flow).expect("flow was active");
    println!(
        "flow: sent {} delivered {} lost {} (conservation: {})",
        fr.packets_sent,
        fr.packets_delivered,
        fr.packets_lost,
        fr.packets_sent == fr.packets_delivered + fr.packets_lost,
    );
    cluster.shutdown();
    Ok(())
}
