//! Node-driver tests at cluster scale.
//!
//! Every node runs on two threads (docs/RUNTIME.md). These tests pin
//! what that driver owes a whole cluster: shaken-but-lossless links
//! lose nothing, a node can die and come back on its port, a session
//! that outlives its node sends nothing, and a 100-node cluster in one
//! process converges, delivers and — because every thread wakes for
//! shutdown instead of sleeping it out — stops promptly. (That a panic
//! in a core call stops its node is `runtime.rs`'s unit test.) Protocol
//! behaviour is checked on the virtual clock instead
//! (`tests/chaos.rs`, `resilience.rs`, `overload.rs`); what is here
//! needs a thread, a socket or the wall clock.

use dissemination_graphs::overlay::cluster::{Cluster, ClusterConfig};
use dissemination_graphs::overlay::fault::LinkFault;
use dissemination_graphs::overlay::OverlayError;
use dissemination_graphs::prelude::*;
use dissemination_graphs::topology::presets;
use std::time::Duration;

/// Cluster tests bind real UDP sockets and measure wall-clock timing;
/// serialize them so they do not starve each other on CI runners.
static CLUSTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A 12-node cluster with deterministic non-lossy impairments (jitter,
/// duplication, reordering) on a spread of links, three flows on three
/// different schemes, paced sends, and a recovery grace period.
/// Impairments are non-lossy and the deadline is generous, so every
/// packet must arrive on time however the threads are scheduled: a
/// socket-level drop or a shipment forgotten at shutdown shows up as a
/// counted loss, not as noise absorbed by a tolerance.
#[test]
fn non_lossy_impairments_lose_nothing() {
    let _serial = CLUSTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let graph = presets::north_america_12();
    let config = ClusterConfig {
        hello_interval: Duration::from_millis(50),
        fault_seed: 42,
        ..Default::default()
    };
    let cluster = Cluster::launch(&graph, config).unwrap();
    assert!(cluster.wait_for_link_state(Duration::from_secs(10)), "cluster never converged");

    // Every 5th edge gets shaken, not dropped: jitter spreads arrival
    // times, duplication exercises dedup, reordering exercises the gap
    // tracker. None of it can lose a packet.
    for e in graph.edges() {
        if e.index() % 5 == 0 {
            cluster.set_link_impairment(
                e,
                LinkFault {
                    jitter: Micros::from_millis(2),
                    duplicate: 0.25,
                    reorder: 0.2,
                    ..LinkFault::default()
                },
            );
        }
    }

    let requirement = ServiceRequirement::new(Micros::from_millis(1_000));
    let n = |name: &str| graph.node_by_name(name).unwrap();
    let specs = [
        (Flow::new(n("NYC"), n("SJC")), SchemeKind::TargetedRedundancy),
        (Flow::new(n("WAS"), n("SEA")), SchemeKind::StaticTwoDisjoint),
        (Flow::new(n("BOS"), n("LAX")), SchemeKind::DynamicSinglePath),
    ];
    let sessions: Vec<_> = specs
        .iter()
        .map(|&(flow, kind)| {
            let rx = cluster.open_receiver(flow).unwrap();
            let tx = cluster.open_sender(flow, kind, requirement).unwrap();
            (flow, rx, tx)
        })
        .collect();

    let total = 60u64;
    for i in 0..total {
        for (flow, _, tx) in &sessions {
            tx.send(format!("{flow}:{i}").as_bytes()).unwrap();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let in-flight packets, duplicates, and NACK repairs settle.
    std::thread::sleep(Duration::from_millis(1_500));
    for (_, rx, _) in &sessions {
        drop(rx.drain());
    }

    let report = cluster.metrics_report();
    drop(sessions);
    cluster.shutdown();
    for &(flow, _) in &specs {
        let fr = *report.flow(flow).expect("flow was active");
        assert_eq!(fr.packets_sent, total);
        assert_eq!(
            fr.packets_sent, fr.packets_delivered,
            "{flow}: non-lossy impairments must lose nothing"
        );
        assert_eq!(
            fr.packets_sent, fr.packets_on_time,
            "{flow}: a 1 s deadline must absorb all injected jitter"
        );
    }
}

/// A node can die and come back: its threads flush and exit, and the
/// replacement binds the port the first life held. (That the restarted
/// node rejoins the overlay is protocol behaviour, checked on the
/// virtual clock: `a_restarted_node_refills_its_link_state_database`.)
#[test]
fn nodes_survive_kill_and_restart() {
    let _serial = CLUSTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let graph = presets::north_america_12();
    let mut cluster = Cluster::launch(&graph, ClusterConfig::default()).unwrap();
    assert!(cluster.wait_for_link_state(Duration::from_secs(10)));

    let victim = graph.node_by_name("DEN").unwrap();
    let port = cluster.node(victim).local_addr();
    cluster.kill_node(victim);
    assert!(!cluster.is_alive(victim));
    cluster.restart_node(victim).unwrap();
    assert!(cluster.is_alive(victim));
    assert_eq!(cluster.node(victim).local_addr(), port, "the replacement took the same port");
    cluster.shutdown();
}

/// The scale demonstration: a 100-node generated topology runs in ONE
/// process (200 threads), converges its link-state database, delivers
/// traffic end to end, and shuts down in well under the 20 s that 100
/// sequential joins of a sleeping ticker used to cost.
#[test]
fn hundred_node_cluster_converges_delivers_and_stops_promptly() {
    use dissemination_graphs::topology::generate::{
        feasible_deadline, representative_flows, GeneratorConfig,
    };

    let _serial = CLUSTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let graph = GeneratorConfig::ring_of_cliques(100, 2017).generate();
    assert_eq!(graph.node_count(), 100);

    // Calm hello and digest cadences: 200 threads share the host, and
    // what this test measures is not how fast a silent link is noticed.
    let cluster = Cluster::launch(
        &graph,
        ClusterConfig {
            hello_interval: Duration::from_millis(500),
            digest_interval: Duration::from_secs(3),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        cluster.wait_for_link_state(Duration::from_secs(60)),
        "100-node cluster never converged"
    );

    let (src, dst) = *representative_flows(&graph, 1, 2017)
        .first()
        .expect("generated overlays have routable flows");
    let flow = Flow::new(src, dst);
    assert!(feasible_deadline(&graph, &[(src, dst)], 2.0) < Micros::from_millis(500));
    let requirement = ServiceRequirement::new(Micros::from_millis(1_000));
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster.open_sender(flow, SchemeKind::StaticTwoDisjoint, requirement).unwrap();
    let total = 50u64;
    for i in 0..total {
        tx.send(format!("{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    // Deliveries trickle in behind the last send by the path's
    // propagation delay; wait for them, not for a fixed grace period.
    let mut popped = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while popped < total as usize && std::time::Instant::now() < deadline {
        popped += usize::from(rx.recv_timeout(Duration::from_millis(50)).is_some());
    }
    let report = cluster.metrics_report();
    let stopping = std::time::Instant::now();
    cluster.shutdown();
    let stopped_in = stopping.elapsed();

    // No fault is injected: a link declared down is the control plane
    // losing its own datagrams in the host.
    assert_eq!(report.totals.links_declared_down, 0, "links declared down with no fault");
    let fr = *report.flow(flow).expect("flow was active");
    assert_eq!(fr.packets_sent, total);
    assert_eq!(fr.packets_sent, fr.packets_delivered + fr.packets_lost, "conservation");
    assert!(
        fr.packets_delivered * 10 >= total * 9,
        "100-node cluster delivered only {}/{total}",
        fr.packets_delivered
    );
    assert!(stopped_in < Duration::from_secs(2), "shutdown took {stopped_in:?}");
}

/// A sender may outlive its node's handle, but it cannot speak for a
/// node that has stopped: its sends are refused with `Shutdown` and put
/// nothing on the wire, where no hello would keep the links up and no
/// one would answer the NACKs.
#[test]
fn a_session_that_outlives_its_node_sends_nothing() {
    let _serial = CLUSTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let graph = presets::ring(3, Micros::from_millis(2));
    let mut cluster = Cluster::launch(&graph, ClusterConfig::default()).unwrap();
    let (n0, n1) = (NodeId::new(0), NodeId::new(1));
    let flow = Flow::new(n0, n1);
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)), "no link-state convergence");
    tx.send(b"while running").unwrap();

    cluster.kill_node(n0);
    // Let what was sent while the node ran land.
    std::thread::sleep(Duration::from_millis(100));
    let received = || cluster.node(n1).metrics_snapshot().counters.data_received;
    let before = received();
    assert!(before >= 1, "the packet sent while running never arrived");
    for i in 0..20 {
        let refused = tx.send(format!("after {i}").as_bytes());
        assert!(matches!(refused, Err(OverlayError::Shutdown)), "send {i}: {refused:?}");
    }
    assert!(matches!(tx.tail_probe(b"after 19"), Err(OverlayError::Shutdown)));
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(received(), before, "a stopped node put data on the wire");
    cluster.shutdown();
}
