//! Overload-resilience soak tests: a node driven past its outbound
//! queue capacity must shed strictly by SLA class (bulk first, timely
//! next, surgical last), downgrade redundancy per class while the
//! pressure lasts, keep its control plane alive the whole time — data
//! saturation must never fake a link failure — and restore full
//! redundancy after a sustained quiet period.
//!
//! Seeded via `DG_CHAOS_SEED` like the chaos battery, so CI can run the
//! same soak under several fault-RNG streams.

use dissemination_graphs::overlay::metrics::EventKind;
use dissemination_graphs::overlay::OverlayError;
use dissemination_graphs::prelude::*;
use dissemination_graphs::topology::GraphBuilder;
use std::time::{Duration, Instant};

/// Cluster tests bind real UDP sockets and measure wall-clock timing;
/// serialize them so they do not starve each other on CI runners.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn seed() -> u64 {
    std::env::var("DG_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// Source `SRC`, two disjoint relays, and one sink per SLA class, so
/// every class's preferred scheme (single path, two disjoint paths,
/// targeted redundancy) is constructible and the flows do not share
/// dedup state.
fn overload_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let src = b.add_node("SRC");
    let r1 = b.add_node("RLY1");
    let r2 = b.add_node("RLY2");
    let bulk = b.add_node("BULK");
    let timely = b.add_node("TIMELY");
    let surgical = b.add_node("SURGICAL");
    for (a, z) in [
        (src, r1),
        (src, r2),
        (r1, bulk),
        (r2, bulk),
        (r1, timely),
        (r2, timely),
        (r1, surgical),
        (r2, surgical),
    ] {
        b.add_link(a, z, Micros::from_millis(10), 1).expect("links are distinct");
    }
    b.build()
}

/// A small-queue cluster configuration: 128 outbound slots put the
/// class admission bands at 64 (bulk), 96 (timely), and 128
/// (surgical), and a short hold-down keeps the soak's enter →
/// escalate → exit cycle inside a couple of seconds.
fn overload_config() -> ClusterConfig {
    ClusterConfig {
        hello_interval: Duration::from_millis(20),
        link_state_interval: Duration::from_millis(80),
        shipper_queue: 128,
        overload_hold_down: Duration::from_millis(250),
        fault_seed: seed(),
        ..Default::default()
    }
}

fn by_name(graph: &Graph, name: &str) -> NodeId {
    graph.node_by_name(name).expect("site exists")
}

fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    done()
}

/// The tentpole soak: hold the source's outbound queue at ~80% of its
/// bound with synthetic bulk pressure while offering several times the
/// admissible load across all three classes. Bulk and timely must shed
/// and downgrade; surgical must keep its targeted graph and its on-time
/// rate; the control plane must never declare a link down; and once the
/// pressure lifts, full redundancy must return within the hold-down
/// machinery's horizon.
#[test]
fn overload_soak_sheds_by_class_and_recovers() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let graph = overload_graph();
    let cluster = Cluster::launch(&graph, overload_config()).expect("cluster launches");
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)), "link state converges");

    let src = by_name(&graph, "SRC");
    let bulk = Flow::new(src, by_name(&graph, "BULK"));
    let timely = Flow::new(src, by_name(&graph, "TIMELY"));
    let surgical = Flow::new(src, by_name(&graph, "SURGICAL"));

    let rx_bulk = cluster.open_receiver(bulk).unwrap();
    let rx_timely = cluster.open_receiver(timely).unwrap();
    let rx_surgical = cluster.open_receiver(surgical).unwrap();
    let tx_bulk = cluster.open_sla_sender(bulk, SlaClass::Bulk).unwrap();
    let tx_timely = cluster.open_sla_sender(timely, SlaClass::Timely).unwrap();
    let tx_surgical = cluster.open_sla_sender(surgical, SlaClass::Surgical).unwrap();
    let mut surgical_sent = 0u64;

    // Phase A — warm-up at trivial load: every class delivers, nothing
    // is downgraded.
    for _ in 0..20 {
        tx_bulk.send(b"warm-bulk").unwrap();
        tx_timely.send(b"warm-timely").unwrap();
        tx_surgical.send(b"warm-surgical").unwrap();
        surgical_sent += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(300));
    assert!(!rx_bulk.drain().is_empty(), "bulk delivers unloaded");
    assert!(!rx_timely.drain().is_empty(), "timely delivers unloaded");
    assert_eq!(cluster.node(src).overload_level(), 0);
    assert!(!tx_bulk.is_downgraded() && !tx_timely.is_downgraded() && !tx_surgical.is_downgraded());

    // Phase B1 — park 72 synthetic shipments in the source's 128-slot
    // queue: past the bulk band (64) but a comfortable margin below
    // the timely band (96) even with the offered traffic's own
    // in-flight spikes on top, so only the lowest class sheds while
    // timely still delivers.
    cluster.inject_overload(src, 72, Duration::from_millis(550));
    let phase = Instant::now();
    while phase.elapsed() < Duration::from_millis(600) {
        for _ in 0..4 {
            tx_bulk.send(b"flood-bulk").unwrap();
        }
        for _ in 0..2 {
            tx_timely.send(b"flood-timely").unwrap();
        }
        tx_surgical.send(b"steady-surgical").unwrap();
        surgical_sent += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    let mid = cluster.node(src).metrics_snapshot();
    assert!(mid.counters.shed_bulk > 0, "mid-band pressure sheds bulk");
    assert_eq!(mid.counters.shed_timely, 0, "mid-band pressure spares timely");
    assert!(!rx_timely.drain().is_empty(), "timely keeps delivering while only bulk sheds");

    // Phase B2 — deepen the pressure to 104 parked shipments: past the
    // timely band too, but still below the surgical band (128).
    cluster.inject_overload(src, 104, Duration::from_millis(700));
    let phase = Instant::now();
    while phase.elapsed() < Duration::from_millis(600) {
        for _ in 0..4 {
            tx_bulk.send(b"flood-bulk").unwrap();
        }
        for _ in 0..2 {
            tx_timely.send(b"flood-timely").unwrap();
        }
        tx_surgical.send(b"steady-surgical").unwrap();
        surgical_sent += 1;
        std::thread::sleep(Duration::from_millis(10));
    }

    // Still under pressure: the detector must have escalated to its
    // deepest level and downgraded exactly the two lower classes.
    assert_eq!(cluster.node(src).overload_level(), 2, "sustained pressure escalates to level 2");
    assert!(tx_bulk.is_downgraded(), "bulk falls to a single path");
    assert!(tx_timely.is_downgraded(), "timely falls to two disjoint paths");
    assert!(!tx_surgical.is_downgraded(), "surgical keeps its targeted graph at every level");

    // Phase C — stop offering load; the synthetic dwell expires ~400 ms
    // later and the queue drains. Exit requires the smoothed depth to
    // decay below the exit threshold and a full quiet hold-down, so
    // give it a generous poll budget.
    let recovered = wait_until(Duration::from_secs(4), || {
        cluster.node(src).overload_level() == 0
            && !tx_bulk.is_downgraded()
            && !tx_timely.is_downgraded()
    });
    assert!(recovered, "full redundancy restored after sustained quiet");

    // Post-recovery traffic rides the restored graphs.
    for _ in 0..10 {
        tx_surgical.send(b"after-surgical").unwrap();
        surgical_sent += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(300));

    // Surgical stayed on time throughout — overload at the source must
    // not show up as missed deadlines in the protected class.
    let deliveries = rx_surgical.drain();
    let on_time = deliveries.iter().filter(|d| d.on_time).count() as f64;
    let fraction = on_time / surgical_sent as f64;
    assert!(
        fraction >= 0.99,
        "surgical on-time fraction {fraction:.4} ({on_time}/{surgical_sent})"
    );

    // Shedding was strictly class-ordered: bulk absorbed the most,
    // surgical none at all.
    let snap = cluster.node(src).metrics_snapshot();
    assert!(snap.counters.shed_bulk > 0, "bulk was shed");
    assert!(snap.counters.shed_timely > 0, "timely was shed");
    assert_eq!(snap.counters.shed_surgical, 0, "surgical was never shed");
    assert!(
        snap.counters.shed_bulk > snap.counters.shed_timely,
        "bulk ({}) absorbs more shedding than timely ({})",
        snap.counters.shed_bulk,
        snap.counters.shed_timely
    );

    // The whole episode is journaled: enter, escalate, per-class
    // downgrades (never surgical), and the exit.
    let has = |pred: &dyn Fn(&EventKind) -> bool| snap.events.iter().any(|e| pred(&e.kind));
    assert!(has(&|k| matches!(k, EventKind::OverloadEnter { level: 1 })), "enter journaled");
    assert!(has(&|k| matches!(k, EventKind::OverloadEnter { level: 2 })), "escalation journaled");
    assert!(has(&|k| matches!(k, EventKind::OverloadExit { level: 2 })), "exit journaled");
    assert!(
        has(&|k| matches!(k, EventKind::ClassDowngraded { class: SlaClass::Bulk, .. })),
        "bulk downgrade journaled"
    );
    assert!(
        has(&|k| matches!(k, EventKind::ClassDowngraded { class: SlaClass::Timely, .. })),
        "timely downgrade journaled"
    );
    assert!(
        !has(&|k| matches!(k, EventKind::ClassDowngraded { class: SlaClass::Surgical, .. })),
        "surgical is never downgraded"
    );

    // Overload is not failure: no node ever declared a link down.
    let report = cluster.metrics_report();
    assert_eq!(report.totals.links_declared_down, 0, "no spurious link-down declarations");
    for node in &report.nodes {
        assert!(
            !node.events.iter().any(|e| matches!(e.kind, EventKind::LinkDown { .. })),
            "node {} journaled a LinkDown under pure data overload",
            node.node
        );
    }
    // Per-cause drop accounting stays consistent with the deprecated
    // aggregate.
    assert_eq!(
        report.totals.queue_drops,
        report.totals.shipper_drops + report.totals.delivery_drops,
        "queue_drops must stay the exact sum of its per-cause parts"
    );
    cluster.shutdown();
}

/// The reserved-lane regression: saturate every node's *data* queue so
/// hard that even surgical traffic sheds, for many hello horizons, and
/// assert the control plane never misreads the pressure as loss — zero
/// link-down declarations, zero LinkDown journal entries.
#[test]
fn saturated_data_plane_never_fakes_link_down() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let graph = overload_graph();
    let config = ClusterConfig {
        // Eight slots: the class bands collapse to 4/6/8, so the
        // synthetic pressure below exhausts the queue for every class.
        shipper_queue: 8,
        ..overload_config()
    };
    let cluster = Cluster::launch(&graph, config).expect("cluster launches");
    assert!(cluster.wait_for_link_state(Duration::from_secs(5)), "link state converges");

    let src = by_name(&graph, "SRC");
    let surgical = Flow::new(src, by_name(&graph, "SURGICAL"));
    let tx = cluster.open_sla_sender(surgical, SlaClass::Surgical).unwrap();

    // Park 4x the queue bound at every node and keep offering data for
    // ~75 hello intervals — an order of magnitude past the hello
    // silence horizon that declares links down.
    for node in graph.nodes() {
        cluster.inject_overload(node, 32, Duration::from_millis(1_500));
    }
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(1_500) {
        tx.send(b"pressure").unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(300));

    let report = cluster.metrics_report();
    // The queue really was exhausted: even the last-shed class dropped.
    assert!(report.totals.shed_surgical > 0, "saturation never reached the surgical band");
    // ... yet hellos kept flowing on the reserved control lane.
    assert_eq!(report.totals.links_declared_down, 0, "data saturation faked a link failure");
    for node in &report.nodes {
        assert!(
            !node.events.iter().any(|e| matches!(e.kind, EventKind::LinkDown { .. })),
            "node {} declared a neighbour down under data saturation",
            node.node
        );
    }
    assert_eq!(
        report.totals.queue_drops,
        report.totals.shipper_drops + report.totals.delivery_drops,
        "queue_drops must stay the exact sum of its per-cause parts"
    );
    // A shed frame is not a transmission. No link here loses anything,
    // so every datagram on the books as sent was received by somebody,
    // give or take the few in flight while the snapshots were taken —
    // two orders of magnitude fewer than the packets shed.
    assert!(report.totals.shipper_drops > 500, "{} shed", report.totals.shipper_drops);
    let (sent, received) = (report.totals.datagrams_sent, report.totals.datagrams_received);
    assert!(sent.abs_diff(received) <= 100, "sent {sent}, received {received}");
    cluster.shutdown();
}

/// Admission control: a node refuses sender sessions past its
/// configured capacity with a structured error naming both sides of the
/// comparison.
#[test]
fn sender_admission_is_capacity_bounded() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let graph = overload_graph();
    let config = ClusterConfig { sender_capacity: 2, ..overload_config() };
    let cluster = Cluster::launch(&graph, config).expect("cluster launches");

    let src = by_name(&graph, "SRC");
    let _a = cluster.open_sla_sender(Flow::new(src, by_name(&graph, "BULK")), SlaClass::Bulk);
    let _b = cluster.open_sla_sender(Flow::new(src, by_name(&graph, "TIMELY")), SlaClass::Timely);
    assert!(_a.is_ok() && _b.is_ok(), "capacity admits the first two sessions");
    let denied = cluster
        .open_sla_sender(Flow::new(src, by_name(&graph, "SURGICAL")), SlaClass::Surgical)
        .expect_err("third session exceeds capacity");
    assert!(
        matches!(denied, OverlayError::AdmissionDenied { active: 2, capacity: 2 }),
        "unexpected admission error: {denied}"
    );
    // Receivers are not admission-controlled.
    assert!(cluster.open_receiver(Flow::new(src, by_name(&graph, "SURGICAL"))).is_ok());
    cluster.shutdown();
}
