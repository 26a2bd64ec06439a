//! What a node owes its operating system, on localhost.
//!
//! These launch real nodes (UDP sockets, protocol threads, the wall
//! clock) for what cannot be stepped: the handles' endpoint checks and
//! `Drop`s, a snapshot taken against a running receive thread, ports
//! freed at shutdown, the timer thread woken by an enqueue, `spawn`'s
//! refusals. Protocol behaviour — delivery, recovery, switching — is
//! `protocol.rs` and `relay_batch.rs`, on the virtual clock.

use dg_core::scheme::SchemeKind;
use dg_core::{Flow, ServiceRequirement};
use dg_overlay::cluster::{Cluster, ClusterConfig};
use dg_overlay::fault::LinkFault;
use dg_overlay::wire::{Envelope, Message};
use dg_overlay::{now_us, NodeConfig, OverlayError, OverlayNode};
use dg_topology::{presets, GraphBuilder, Micros, NodeId};
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn na_cluster() -> Cluster {
    let graph = presets::north_america_12();
    let config =
        ClusterConfig { hello_interval: Duration::from_millis(20), ..ClusterConfig::default() };
    Cluster::launch(&graph, config).expect("cluster launches")
}

fn nyc_sjc(cluster: &Cluster) -> Flow {
    Flow::new(
        cluster.graph().node_by_name("NYC").unwrap(),
        cluster.graph().node_by_name("SJC").unwrap(),
    )
}

/// Sites named `names` in a chain, two milliseconds a link.
fn chain(names: &[&str]) -> (dg_topology::Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = names.iter().map(|n| b.add_node(n)).collect();
    for pair in ids.windows(2) {
        b.add_link(pair[0], pair[1], Micros::from_millis(2), 1).unwrap();
    }
    (b.build(), ids)
}

#[test]
fn sessions_validate_their_endpoints() {
    let cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    // Receiver must live at the destination, sender at the source.
    assert!(cluster.node(flow.source).open_receiver(flow).is_err());
    let scheme = dg_core::scheme::build_scheme(
        SchemeKind::StaticSinglePath,
        cluster.graph(),
        flow,
        ServiceRequirement::default(),
        &Default::default(),
    )
    .unwrap();
    assert!(cluster
        .node(flow.destination)
        .open_sender(scheme, ServiceRequirement::default())
        .is_err());
    // Oversized payloads are rejected.
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    assert!(tx.send(&[0u8; 5_000]).is_err());
    cluster.shutdown();
}

/// A closed sender gives its admission slot back and is shown no more
/// link-state reports: a node that opened and closed senders all day is
/// not at capacity with none alive.
#[test]
fn a_closed_sender_returns_its_admission_slot() {
    let graph = presets::north_america_12();
    let cluster =
        Cluster::launch(&graph, ClusterConfig { sender_capacity: 2, ..Default::default() })
            .expect("cluster launches");
    let flow = nyc_sjc(&cluster);
    let open =
        || cluster.open_sender(flow, SchemeKind::DynamicSinglePath, ServiceRequirement::default());
    let (first, second) = (open().expect("one"), open().expect("two"));
    let denied = |e| matches!(e, OverlayError::AdmissionDenied { active: 2, capacity: 2 });
    assert!(open().is_err_and(denied), "two open senders fill a capacity of two");
    drop(first);
    let third = open().expect("the dropped sender's slot is free again");
    drop((second, third));
    // With no session left a report has no slot to show: the source's
    // own report of a silenced in-link, declared down, costs its graph
    // cache no lookup. (A link is declared down only once it has been
    // heard: the silence starts after the first reports.)
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)), "no link-state convergence");
    let source = cluster.node(flow.source);
    let lookups = || {
        let live = source.metrics_snapshot().graph_cache.live;
        live.hits + live.misses
    };
    let settled = lookups();
    let silenced = cluster.graph().in_edges(flow.source)[0];
    cluster.set_link_impairment(silenced, LinkFault { blackhole: true, ..LinkFault::default() });
    std::thread::sleep(Duration::from_millis(700));
    assert!(source.metrics_snapshot().counters.links_declared_down > 0, "the silence was news");
    assert_eq!(lookups(), settled, "closed sessions are still being shown reports");
}

/// A dropped receiver closes its session: a packet that arrives while
/// no session is open is handed to nobody, and is not waiting for the
/// next session either.
#[test]
fn a_dropped_receiver_is_no_longer_delivered_to() {
    let cluster = na_cluster();
    let flow = nyc_sjc(&cluster);
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    let rx = cluster.open_receiver(flow).unwrap();
    tx.send(b"heard").unwrap();
    assert!(rx.recv_timeout(Duration::from_millis(500)).is_some(), "the open session delivers");
    drop(rx);
    tx.send(b"unheard").unwrap();
    let received = || cluster.node(flow.destination).metrics_snapshot().counters.data_received;
    let deadline = Instant::now() + Duration::from_secs(2);
    while received() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(received(), 2, "the second packet did arrive");
    let rx = cluster.open_receiver(flow).unwrap();
    tx.send(b"after").unwrap();
    let next = rx.recv_timeout(Duration::from_millis(500)).expect("a new session delivers");
    assert_eq!(next.flow_seq, 2, "the packet sent while no session was open went to nobody");
}

/// Dropping a cluster stops it: every node's threads are joined and its
/// socket closed, so the ports can be bound again at once.
#[test]
fn a_dropped_cluster_stops_and_frees_its_ports() {
    let graph = presets::ring(4, Micros::from_millis(2));
    let cluster = Cluster::launch(&graph, ClusterConfig::default()).expect("cluster launches");
    let addrs: Vec<_> = graph.nodes().map(|n| cluster.node(n).local_addr()).collect();
    assert!(UdpSocket::bind(addrs[0]).is_err(), "a running node holds its port");
    drop(cluster);
    for addr in addrs {
        UdpSocket::bind(addr).expect("a stopped node's port is free");
    }
}

/// A snapshot is the node at one instant. The destination of a loaded
/// four-node chain is snapshotted over a thousand times against its
/// running receive thread, and in every snapshot the counters add up:
/// each data packet received so far was a duplicate or was delivered,
/// and the flow's deliveries are the node's.
#[test]
fn a_snapshot_is_one_instant() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (graph, ids) = chain(&["A", "B", "C", "D"]);
    let config = ClusterConfig { latency_scale: 0.0, ..ClusterConfig::default() };
    let cluster = Cluster::launch(&graph, config).expect("cluster launches");
    let flow = Flow::new(ids[0], ids[3]);
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    let done = AtomicBool::new(false);
    let sink = cluster.node(flow.destination);
    // Takes snapshots until there are enough, and enough of them with
    // traffic in between; `Err` names the first that does not add up.
    let check = || -> Result<(), String> {
        let (mut taken, mut moved, mut last) = (0u32, 0u32, 0);
        let give_up = Instant::now() + Duration::from_secs(30);
        while taken < 1_000 || moved < 200 {
            if Instant::now() > give_up {
                return Err(format!("only {taken} snapshots, {moved} under load"));
            }
            let snap = sink.metrics_snapshot();
            let c = snap.counters;
            let delivered = c.delivered_on_time + c.delivered_late;
            let counted = snap.flows.iter().find(|f| f.flow == flow);
            let of_flow = counted.map_or(0, |f| f.packets_on_time + f.packets_late);
            if c.data_received != c.duplicates + delivered || of_flow != delivered {
                return Err(format!("snapshot {taken}: flow delivered {of_flow}, node {c:?}"));
            }
            taken += 1;
            moved += u32::from(c.data_received != last);
            last = c.data_received;
        }
        Ok(())
    };
    let verdict = std::thread::scope(|scope| {
        // The load, a closed loop: a batch out, its deliveries back. A
        // receiver is not shared between threads: the load takes it.
        let (tx, done) = (&tx, &done);
        scope.spawn(move || {
            let batch = [&[0u8; 64][..]; 32];
            while !done.load(Ordering::Relaxed) {
                tx.send_batch(&batch).unwrap();
                for _ in 0..batch.len() {
                    if rx.recv_timeout(Duration::from_millis(5)).is_none() {
                        break;
                    }
                }
            }
        });
        let verdict = check();
        done.store(true, Ordering::Relaxed);
        verdict
    });
    assert_eq!(verdict, Ok(()));
}

/// A control frame the fault plan delays must leave at its departure
/// time, not at the timer thread's next protocol deadline: with every
/// cadence set to seconds, the only thing that can wake the thread in
/// time is the enqueue itself. Site B is a bare socket: it says hello
/// and times the acks. (The departure instant itself is
/// `relay_batch.rs`'s to check, to the microsecond.)
#[test]
fn a_delayed_control_frame_wakes_the_timer_thread() {
    let (graph, n) = chain(&["A", "B"]);
    let cadence = Duration::from_secs(5);
    let tap = UdpSocket::bind("127.0.0.1:0").expect("bind");
    tap.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
    let listen: SocketAddr = "127.0.0.1:0".parse().expect("address");
    let config = NodeConfig {
        peers: HashMap::from([(n[1], tap.local_addr().expect("bound"))]),
        hello_interval: cadence,
        digest_interval: cadence,
        ..NodeConfig::new(n[0], listen)
    };
    let node = OverlayNode::spawn(config, Arc::new(graph)).expect("node spawns");
    let delay = Duration::from_millis(5);
    node.faults().set(n[1], LinkFault::delayed(Micros::from_millis(5)));
    // Let the start-up hello (due at once) and its wake pass.
    std::thread::sleep(Duration::from_millis(50));
    let mut buf = vec![0u8; 65_536];
    for seq in 100..105 {
        // A hello is answered at once, on the control lane.
        let asked = Instant::now();
        let hello = Envelope { from: n[1], message: Message::Hello { seq, sent_at: now_us() } };
        tap.send_to(&hello.encode(), node.local_addr()).expect("inject");
        let took = loop {
            assert!(asked.elapsed() < Duration::from_secs(3), "hello {seq} never answered");
            let Ok((len, _)) = tap.recv_from(&mut buf) else { continue };
            match Envelope::decode(&buf[..len]).expect("frames decode").message {
                Message::HelloAck { echo_seq, .. } if echo_seq == seq => break asked.elapsed(),
                _ => continue,
            }
        };
        assert!(took >= delay, "ack {seq} skipped its {delay:?} link delay: {took:?}");
        assert!(
            took < Duration::from_millis(200),
            "ack {seq} waited {took:?} for a {delay:?} departure (cadence {cadence:?})"
        );
    }
    node.shutdown();
}

/// `spawn` is the boundary every configuration crosses: a literal
/// `NodeConfig` that breaks a rule, or does not fit the topology it is
/// spawned on, is refused there with the rule named.
#[test]
fn spawn_rejects_a_config_that_breaks_a_rule_or_the_topology() {
    let (graph, n) = chain(&["A", "B", "C"]);
    let graph = Arc::new(graph);
    let listen: SocketAddr = "127.0.0.1:0".parse().expect("address");
    let ok =
        || NodeConfig { peers: HashMap::from([(n[1], listen)]), ..NodeConfig::new(n[0], listen) };
    let broken = [
        (NodeConfig { shipper_queue: 0, ..ok() }, "shipper_queue"),
        (NodeConfig { node: NodeId::new(3), ..ok() }, "site of the topology"),
        // C exists, but shares no link with A.
        (NodeConfig { peers: HashMap::from([(n[2], listen)]), ..ok() }, "neighbour"),
        (NodeConfig { peers: HashMap::from([(NodeId::new(9), listen)]), ..ok() }, "neighbour"),
    ];
    for (config, rule) in broken {
        match OverlayNode::spawn(config, Arc::clone(&graph)) {
            Err(OverlayError::InvalidConfig(said)) => {
                assert!(said.contains(rule), "{rule}: refused as {said:?}");
            }
            Ok(handle) => {
                handle.shutdown();
                panic!("{rule}: spawned");
            }
            Err(other) => panic!("{rule}: expected InvalidConfig, got {other}"),
        }
    }
    OverlayNode::spawn(ok(), graph).expect("the unbroken config spawns").shutdown();
}
