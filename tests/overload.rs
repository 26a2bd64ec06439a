//! Overload-resilience soak tests, on the virtual clock (`simnet::Net`:
//! real cores, carriers and fault plans; no socket, thread or sleep): a
//! node driven past its outbound
//! queue capacity must shed strictly by SLA class (bulk first, timely
//! next, surgical last), downgrade redundancy per class while the
//! pressure lasts, keep its control plane alive the whole time — data
//! saturation must never fake a link failure — and restore full
//! redundancy after a sustained quiet period.
//!
//! Seeded via `DG_CHAOS_SEED` like the chaos battery, so CI can run the
//! same soak under several fault-RNG streams.

use dissemination_graphs::overlay::metrics::EventKind;
use dissemination_graphs::overlay::simnet::{env_seed, Net};
use dissemination_graphs::overlay::OverlayError;
use dissemination_graphs::prelude::*;
use dissemination_graphs::topology::GraphBuilder;
use std::time::Duration;

fn ms(n: u64) -> Micros {
    Micros::from_millis(n)
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
        shipper_queue: 128,
        overload_hold_down: Duration::from_millis(250),
        fault_seed: env_seed(),
        ..Default::default()
    }
}

fn by_name(graph: &Graph, name: &str) -> NodeId {
    graph.node_by_name(name).expect("site exists")
}

/// The small-queue overlay, converged.
fn launch(graph: &Graph, config: ClusterConfig) -> Net {
    let mut net = Net::launch(graph, config).expect("the configuration is sound");
    net.run_for(ms(1_000));
    assert!(net.link_state_converged(), "link state converges");
    net
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
    let graph = overload_graph();
    let mut net = launch(&graph, overload_config());

    let src = by_name(&graph, "SRC");
    let bulk = Flow::new(src, by_name(&graph, "BULK"));
    let timely = Flow::new(src, by_name(&graph, "TIMELY"));
    let surgical = Flow::new(src, by_name(&graph, "SURGICAL"));
    for flow in [bulk, timely, surgical] {
        net.open_receiver(flow);
    }
    let tx_bulk = net.open_sla_sender(bulk, SlaClass::Bulk).unwrap();
    let tx_timely = net.open_sla_sender(timely, SlaClass::Timely).unwrap();
    let tx_surgical = net.open_sla_sender(surgical, SlaClass::Surgical).unwrap();
    let mut surgical_sent = 0u64;

    // Phase A — warm-up at trivial load: every class delivers, nothing
    // is downgraded.
    for _ in 0..20 {
        net.send(tx_bulk, b"warm-bulk");
        net.send(tx_timely, b"warm-timely");
        net.send(tx_surgical, b"warm-surgical");
        surgical_sent += 1;
        net.run_for(ms(5));
    }
    net.run_for(ms(300));
    assert_eq!(net.take_deliveries(bulk).len(), 20, "bulk delivers unloaded");
    assert_eq!(net.take_deliveries(timely).len(), 20, "timely delivers unloaded");
    assert_eq!(net.overload_level(src), 0);
    assert!([tx_bulk, tx_timely, tx_surgical].iter().all(|&tx| !net.is_downgraded(tx)));

    // 600 ms of several times the admissible load: per 10 ms, four bulk
    // packets, two timely, one surgical.
    let mut flood = |net: &mut Net| {
        for _ in 0..60 {
            for _ in 0..4 {
                net.send(tx_bulk, b"flood-bulk");
            }
            for _ in 0..2 {
                net.send(tx_timely, b"flood-timely");
            }
            net.send(tx_surgical, b"steady-surgical");
            surgical_sent += 1;
            net.run_for(ms(10));
        }
    };

    // Phase B1 — park 72 synthetic shipments in the source's 128-slot
    // queue: past the bulk band (64) but a comfortable margin below
    // the timely band (96) even with the offered traffic's own frames
    // (parked for their links' 10 ms) on top, so only the lowest class
    // sheds while timely still delivers.
    net.inject_overload(src, 72, ms(550));
    flood(&mut net);
    let mid = net.snapshot(src);
    assert!(mid.counters.shed_bulk > 0, "mid-band pressure sheds bulk");
    assert_eq!(mid.counters.shed_timely, 0, "mid-band pressure spares timely");
    // All 120 but the last 10 ms's pair, still on the second 10 ms hop.
    assert_eq!(net.take_deliveries(timely).len(), 118, "timely delivers while only bulk sheds");

    // Phase B2 — deepen the pressure to 104 parked shipments: past the
    // timely band too, but still below the surgical band (128).
    net.inject_overload(src, 104, ms(700));
    flood(&mut net);

    // Still under pressure: the detector must have escalated to its
    // deepest level and downgraded exactly the two lower classes.
    assert_eq!(net.overload_level(src), 2, "sustained pressure escalates to level 2");
    assert!(net.is_downgraded(tx_bulk), "bulk falls to a single path");
    assert!(net.is_downgraded(tx_timely), "timely falls to two disjoint paths");
    assert!(!net.is_downgraded(tx_surgical), "surgical keeps its targeted graph at every level");

    // Phase C — stop offering load; the synthetic dwell expires 100 ms
    // later and the queue drains. Exit requires the smoothed depth to
    // decay below the exit threshold and a full quiet hold-down.
    let restored = |net: &mut Net| {
        net.overload_level(src) == 0 && !net.is_downgraded(tx_bulk) && !net.is_downgraded(tx_timely)
    };
    let took = net.wait_until(ms(4_000), restored);
    assert!(took.is_some(), "full redundancy restored after sustained quiet");

    // Post-recovery traffic rides the restored graphs.
    for _ in 0..10 {
        net.send(tx_surgical, b"after-surgical");
        surgical_sent += 1;
        net.run_for(ms(5));
    }
    net.run_for(ms(300));

    // Surgical stayed on time throughout — overload at the source must
    // not show up as missed deadlines in the protected class.
    let on_time = net.take_deliveries(surgical).iter().filter(|d| d.on_time).count() as u64;
    assert!(on_time * 100 >= surgical_sent * 99, "surgical on-time: {on_time}/{surgical_sent}");

    // Shedding was strictly class-ordered: bulk absorbed the most,
    // surgical none at all.
    let snap = net.snapshot(src);
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
    let report = net.metrics_report();
    assert_no_link_down(&report);
}

/// Overload is not failure: no node declared a link down or journaled a
/// `LinkDown`, and per-cause drop accounting stays consistent with the
/// deprecated aggregate.
fn assert_no_link_down(report: &dissemination_graphs::overlay::ClusterMetricsReport) {
    assert_eq!(report.totals.links_declared_down, 0, "data pressure faked a link failure");
    for node in &report.nodes {
        assert!(
            !node.events.iter().any(|e| matches!(e.kind, EventKind::LinkDown { .. })),
            "node {} journaled a LinkDown under pure data overload",
            node.node
        );
    }
    assert_eq!(
        report.totals.queue_drops,
        report.totals.shipper_drops + report.totals.delivery_drops,
        "queue_drops must stay the exact sum of its per-cause parts"
    );
}

/// The reserved-lane regression: saturate every node's *data* queue so
/// hard that even surgical traffic sheds, for many hello horizons, and
/// assert the control plane never misreads the pressure as loss — zero
/// link-down declarations, zero LinkDown journal entries.
#[test]
fn saturated_data_plane_never_fakes_link_down() {
    let graph = overload_graph();
    let config = ClusterConfig {
        // Eight slots: the class bands collapse to 4/6/8, so the
        // synthetic pressure below exhausts the queue for every class.
        shipper_queue: 8,
        ..overload_config()
    };
    let mut net = launch(&graph, config);
    let src = by_name(&graph, "SRC");
    let surgical = Flow::new(src, by_name(&graph, "SURGICAL"));
    let tx = net.open_sla_sender(surgical, SlaClass::Surgical).unwrap();

    // Park 4x the queue bound at every node and keep offering data for
    // ~75 hello intervals — an order of magnitude past the hello
    // silence horizon that declares links down.
    for node in graph.nodes() {
        net.inject_overload(node, 32, ms(1_500));
    }
    for _ in 0..750 {
        net.send(tx, b"pressure");
        net.run_for(ms(2));
    }
    net.run_for(ms(300));

    let report = net.metrics_report();
    // The queue really was exhausted: even the last-shed class dropped.
    assert!(report.totals.shed_surgical > 0, "saturation never reached the surgical band");
    // ... yet hellos kept flowing on the reserved control lane.
    assert_no_link_down(&report);
    // A shed frame is not a transmission. No link here loses anything,
    // so every datagram on the books as sent was received by somebody,
    // but for the control frames still on their links' 10 ms when the
    // snapshots were taken — two orders of magnitude fewer than the
    // packets shed.
    assert!(report.totals.shipper_drops > 500, "{} shed", report.totals.shipper_drops);
    let (sent, received) = (report.totals.datagrams_sent, report.totals.datagrams_received);
    assert!(sent >= received && sent - received <= 32, "sent {sent}, received {received}");
}

/// Admission control: a node refuses sender sessions past its
/// configured capacity with a structured error naming both sides of the
/// comparison.
#[test]
fn sender_admission_is_capacity_bounded() {
    let graph = overload_graph();
    let config = ClusterConfig { sender_capacity: 2, ..overload_config() };
    let mut net = Net::launch(&graph, config).expect("the configuration is sound");

    let src = by_name(&graph, "SRC");
    let a = net.open_sla_sender(Flow::new(src, by_name(&graph, "BULK")), SlaClass::Bulk);
    let b = net.open_sla_sender(Flow::new(src, by_name(&graph, "TIMELY")), SlaClass::Timely);
    assert!(a.is_ok() && b.is_ok(), "capacity admits the first two sessions");
    let denied = net
        .open_sla_sender(Flow::new(src, by_name(&graph, "SURGICAL")), SlaClass::Surgical)
        .expect_err("third session exceeds capacity");
    assert!(
        matches!(denied, OverlayError::AdmissionDenied { active: 2, capacity: 2 }),
        "unexpected admission error: {denied}"
    );
    // Receivers are not admission-controlled.
    net.open_receiver(Flow::new(src, by_name(&graph, "SURGICAL")));
}
