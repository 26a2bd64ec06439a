//! The paper's headline number: 130 ms round trips across the US.
//!
//! Runs the real overlay on localhost (emulated WAN latencies), sets up
//! a request flow NYC→SJC and a response flow SJC→NYC (each under the
//! 65 ms one-way deadline), echoes every request back, and measures the
//! application-level round-trip time — including while a problem
//! develops around the requester.
//!
//! Run with: `cargo run --release --example round_trip`

use dissemination_graphs::overlay::cluster::{Cluster, ClusterConfig};
use dissemination_graphs::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = topology::presets::north_america_12();
    let cluster = Cluster::launch(
        &graph,
        ClusterConfig { hello_interval: Duration::from_millis(20), ..ClusterConfig::default() },
    )?;
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)));

    let nyc = graph.node_by_name("NYC").unwrap();
    let sjc = graph.node_by_name("SJC").unwrap();
    let forward = Flow::new(nyc, sjc);
    let backward = Flow::new(sjc, nyc);
    let requirement = ServiceRequirement::default(); // 65 ms each way

    let request_rx = cluster.open_receiver(forward)?;
    let response_rx = cluster.open_receiver(backward)?;
    let request_tx = cluster.open_sender(forward, SchemeKind::TargetedRedundancy, requirement)?;
    let response_tx = cluster.open_sender(backward, SchemeKind::TargetedRedundancy, requirement)?;

    // The SJC side: echo every request back immediately.
    let echo = std::thread::spawn(move || {
        let mut echoed = 0u64;
        loop {
            match request_rx.recv_timeout(Duration::from_millis(1_500)) {
                Some(delivery) => {
                    response_tx.send(&delivery.payload).expect("echo sends");
                    echoed += 1;
                }
                None => return echoed,
            }
        }
    });

    let measure_phase = |label: &str, n: u64| {
        let mut outstanding: HashMap<u64, Instant> = HashMap::new();
        let mut rtts: Vec<Duration> = Vec::new();
        for i in 0..n {
            request_tx.send(format!("{i:020}").as_bytes()).expect("request sends");
            outstanding.insert(i, Instant::now());
            std::thread::sleep(Duration::from_millis(5));
            while let Some(resp) = response_rx.try_recv() {
                let id: u64 = std::str::from_utf8(&resp.payload).unwrap().trim().parse().unwrap();
                if let Some(sent) = outstanding.remove(&id) {
                    rtts.push(sent.elapsed());
                }
            }
        }
        // Drain stragglers.
        let settle = Instant::now();
        while !outstanding.is_empty() && settle.elapsed() < Duration::from_millis(500) {
            if let Some(resp) = response_rx.recv_timeout(Duration::from_millis(100)) {
                let id: u64 = std::str::from_utf8(&resp.payload).unwrap().trim().parse().unwrap();
                if let Some(sent) = outstanding.remove(&id) {
                    rtts.push(sent.elapsed());
                }
            }
        }
        rtts.sort();
        let within = rtts.iter().filter(|r| **r <= Duration::from_millis(130)).count();
        let median = rtts.get(rtts.len() / 2).copied().unwrap_or_default();
        println!(
            "{label:<16} {:>3}/{n} answered, {within:>3} within 130 ms, median RTT {:.1} ms",
            rtts.len(),
            median.as_secs_f64() * 1_000.0
        );
    };

    measure_phase("clean", 100);
    println!("injecting a 40% loss problem around NYC...");
    cluster.impair_node(nyc, 0.4, Micros::ZERO);
    std::thread::sleep(Duration::from_millis(500));
    measure_phase("under-problem", 100);
    cluster.heal_node(nyc);

    drop(request_tx);
    let echoed = echo.join().expect("echo thread exits");
    println!("SJC echoed {echoed} requests");
    cluster.shutdown();
    Ok(())
}
