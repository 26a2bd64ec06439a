//! Resilient-control-plane acceptance tests.
//!
//! The claims under test, against the real UDP overlay:
//! - a partitioned cluster reconverges after healing: reliable LSA
//!   flooding plus anti-entropy digests drive every node to an
//!   identical per-origin `(epoch, seq)` link-state digest, and
//!   post-heal delivery recovers to ≥99%;
//! - a supervised protocol thread that panics is journaled, restarts,
//!   flags the node degraded for the watchdog window, and the node
//!   keeps forwarding; the flag clears afterwards;
//! - an oscillating link is flap-damped: down declarations stay
//!   fail-fast, but recoveries are held down, suppressions are counted
//!   and journaled, and the admitted transition rate is bounded.
//!
//! All tests are seeded via `DG_CHAOS_SEED` (default 42) so CI can run
//! the same scenarios across a seed matrix.

use dissemination_graphs::overlay::cluster::{Cluster, ClusterConfig};
use dissemination_graphs::overlay::fault::LinkFault;
use dissemination_graphs::overlay::metrics::{EventKind, NodeThread};
use dissemination_graphs::overlay::wire::DigestEntry;
use dissemination_graphs::prelude::*;
use std::time::{Duration, Instant};

fn chaos_seed() -> u64 {
    std::env::var("DG_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// Blackholes or restores both directions of the `a <-> b` link pair.
fn set_cut(cluster: &Cluster, graph: &Graph, a: NodeId, b: NodeId, cut: bool) {
    for (src, dst) in [(a, b), (b, a)] {
        let edge = graph.edge_between(src, dst).expect("ring links exist");
        if cut {
            cluster
                .set_link_impairment(edge, LinkFault { blackhole: true, ..LinkFault::default() });
        } else {
            cluster.clear_link_fault(edge);
        }
    }
}

/// Acceptance criterion: partition a 6-node ring into two halves, let
/// both sides keep originating, heal, and require every node to
/// converge to the identical per-origin `(epoch, seq)` digest — then
/// require ≥99% delivery on a flow that spans the former cut.
#[test]
fn partition_heals_to_identical_digests_and_full_delivery() {
    let graph = topology::presets::ring(6, Micros::from_millis(5));
    let cluster = Cluster::launch(
        &graph,
        ClusterConfig {
            hello_interval: Duration::from_millis(25),
            link_state_interval: Duration::from_millis(100),
            digest_interval: Duration::from_millis(300),
            fault_seed: chaos_seed(),
            ..Default::default()
        },
    )
    .unwrap();
    let (n0, n2, n3, n5) = (NodeId::new(0), NodeId::new(2), NodeId::new(3), NodeId::new(5));
    let flow = Flow::new(n0, n3);
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticTwoDisjoint, ServiceRequirement::default())
        .unwrap();
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)), "no initial convergence");

    // Cut {0,1,2} from {3,4,5}: both ring crossings, both directions.
    set_cut(&cluster, &graph, n2, n3, true);
    set_cut(&cluster, &graph, n5, n0, true);
    // Hold the partition long enough for both sides to diverge (many
    // originations) but well under the 3 s database aging fallback —
    // reconvergence must come from flooding and digest repair, not
    // from expiry.
    std::thread::sleep(Duration::from_millis(1_500));
    set_cut(&cluster, &graph, n2, n3, false);
    set_cut(&cluster, &graph, n5, n0, false);

    // Every node must reach the identical per-origin digest.
    let deadline = Instant::now() + Duration::from_secs(8);
    loop {
        let digests: Vec<Vec<DigestEntry>> =
            (0..6).map(|i| cluster.link_state_digest(NodeId::new(i))).collect();
        let complete = digests.iter().all(|d| d.len() == 6);
        if complete && digests.iter().all(|d| d == &digests[0]) {
            break;
        }
        assert!(Instant::now() < deadline, "digests never converged after heal: {digests:?}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // Post-heal service: ≥99% of packets across the former cut arrive.
    drop(rx.drain());
    let total = 200usize;
    for i in 0..total {
        tx.send(format!("p{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(400));
    let delivered = rx.drain().len();
    assert!(delivered * 100 >= total * 99, "post-heal delivery too low: {delivered}/{total}");

    // The reliable-flooding machinery must actually have run.
    let report = cluster.metrics_report();
    cluster.shutdown();
    let acks: u64 = report.nodes.iter().map(|n| n.counters.lsa_acks_received).sum();
    let digests_sent: u64 = report.nodes.iter().map(|n| n.counters.digests_sent).sum();
    assert!(acks > 0, "no LSA ever acknowledged");
    assert!(digests_sent > 0, "anti-entropy digests never exchanged");
}

/// Acceptance criterion: an injected panic in each protocol thread is
/// caught, journaled, and survived — the node reports itself degraded
/// for the watchdog window, keeps forwarding throughout, and the flag
/// clears once the window passes.
#[test]
fn thread_crashes_degrade_then_recover() {
    let graph = topology::presets::ring(3, Micros::from_millis(2));
    let cluster = Cluster::launch(
        &graph,
        ClusterConfig {
            hello_interval: Duration::from_millis(25),
            link_state_interval: Duration::from_millis(100),
            watchdog_stale_after: Duration::from_millis(400),
            fault_seed: chaos_seed(),
            ..Default::default()
        },
    )
    .unwrap();
    let (n0, n1) = (NodeId::new(0), NodeId::new(1));
    let flow = Flow::new(n0, n1);
    let rx = cluster.open_receiver(flow).unwrap();
    let tx = cluster
        .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
        .unwrap();
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)), "no link-state convergence");
    assert!(!cluster.node(n1).is_degraded(), "fresh node must not be degraded");

    for thread in [NodeThread::Receive, NodeThread::Shipper, NodeThread::Ticker] {
        cluster.panic_thread(n1, thread);
    }
    std::thread::sleep(Duration::from_millis(250));
    assert!(cluster.node(n1).is_degraded(), "crashes must flag degradation");
    let snap = cluster.node(n1).metrics_snapshot();
    assert!(snap.degraded, "snapshot must carry the degraded flag");
    assert_eq!(snap.counters.thread_crashes, 3, "each injected panic counts once");
    for thread in [NodeThread::Receive, NodeThread::Shipper, NodeThread::Ticker] {
        assert!(
            snap.events.iter().any(|e| e.kind == EventKind::ThreadCrash { thread }),
            "no ThreadCrash journal entry for {thread:?}"
        );
    }

    // The restarted threads must still move traffic.
    drop(rx.drain());
    let total = 100usize;
    for i in 0..total {
        tx.send(format!("c{i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(300));
    let delivered = rx.drain().len();
    assert!(delivered * 100 >= total * 99, "degraded node stopped forwarding: {delivered}/{total}");

    // Past the watchdog window, with healthy heartbeats, the flag clears.
    std::thread::sleep(Duration::from_millis(400));
    assert!(!cluster.node(n1).is_degraded(), "degradation must clear after the window");
    assert!(!cluster.node(n1).metrics_snapshot().degraded);
    cluster.shutdown();
}

/// A shipper crash must not strand the queue-depth signal. Parked data
/// shipments are counted in `outbound_queue_depth` until they depart;
/// the departure heap lives outside the shipper duty's unwind
/// boundary, so the shipments outlive the panic, leave when due, and
/// the depth the shed bands and the overload detector read returns to
/// zero instead of reading phantom load for the rest of the node's life.
#[test]
fn shipper_crash_keeps_parked_shipments_and_queue_depth() {
    let graph = topology::presets::ring(3, Micros::from_millis(2));
    let cluster =
        Cluster::launch(&graph, ClusterConfig { fault_seed: chaos_seed(), ..Default::default() })
            .unwrap();
    let node = cluster.node(NodeId::new(1));
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    node.inject_overload(100, Duration::from_millis(200));
    assert_eq!(node.outbound_queue_depth(), 100);
    // Let the shipments reach the departure heap before the crash.
    std::thread::sleep(Duration::from_millis(20));
    node.inject_thread_panic(NodeThread::Shipper);
    wait_for("the shipper crash", &|| node.metrics_snapshot().counters.thread_crashes == 1);
    wait_for("the parked shipments to depart", &|| node.outbound_queue_depth() == 0);
    assert_eq!(node.metrics_snapshot().counters.thread_crashes, 1);
    cluster.shutdown();
}

/// Acceptance criterion: an oscillating link is flap-damped. Down
/// declarations stay fail-fast, recoveries wait out the hold-down, the
/// suppressed attempts are counted and journaled, and the total
/// admitted transition rate stays far below the raw oscillation rate.
#[test]
fn oscillating_link_is_flap_damped() {
    let graph = topology::presets::ring(3, Micros::from_millis(2));
    let hold_down = Duration::from_secs(2);
    let cluster = Cluster::launch(
        &graph,
        ClusterConfig {
            hello_interval: Duration::from_millis(25),
            link_state_interval: Duration::from_millis(100),
            flap_hold_down: hold_down,
            fault_seed: chaos_seed(),
            ..Default::default()
        },
    )
    .unwrap();
    let (n0, n1) = (NodeId::new(0), NodeId::new(1));
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)), "no link-state convergence");

    // Oscillate the directed link 0 -> 1: nine cycles of 250 ms dark
    // (past the 125 ms down horizon, and wide enough that every cycle
    // spans an origination tick) and 400 ms bright. Undamped, that is
    // up to 18 admitted down/up transitions.
    let edge = graph.edge_between(n0, n1).expect("ring link exists");
    for _ in 0..9 {
        cluster.set_link_impairment(edge, LinkFault { blackhole: true, ..LinkFault::default() });
        std::thread::sleep(Duration::from_millis(250));
        cluster.clear_link_fault(edge);
        std::thread::sleep(Duration::from_millis(400));
    }
    std::thread::sleep(Duration::from_millis(300));

    let snap = cluster.node(n1).metrics_snapshot();
    cluster.shutdown();
    assert!(snap.counters.flap_suppressions > 0, "no transition was ever suppressed");
    assert!(
        snap.events.iter().any(
            |e| matches!(e.kind, EventKind::FlapSuppressed { neighbor, .. } if neighbor == n0)
        ),
        "suppressions must be journaled"
    );
    let downs = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LinkDown { neighbor } if neighbor == n0))
        .count();
    let ups: Vec<Micros> = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LinkUp { neighbor } if neighbor == n0))
        .map(|e| e.at)
        .collect();
    assert!(downs >= 1, "fail-fast down declarations must still go through");
    assert!(
        downs + ups.len() <= 6,
        "damping admitted too many transitions: {downs} downs, {} ups",
        ups.len()
    );
    // The damped direction: at most one admitted recovery per hold-down
    // window (generous slack for scheduling jitter).
    for pair in ups.windows(2) {
        assert!(
            pair[1].saturating_sub(pair[0]) >= Micros::from_millis(1_800),
            "recoveries {pair:?} violate the hold-down spacing"
        );
    }
}
