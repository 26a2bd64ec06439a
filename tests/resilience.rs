//! Resilient-control-plane acceptance tests, on the virtual clock
//! (`simnet::Net`: real cores, carriers and fault plans; no socket,
//! thread or sleep).
//!
//! The claims under test:
//! - a partitioned cluster reconverges after healing: reliable LSA
//!   flooding plus anti-entropy digests drive every node to an
//!   identical per-origin `(epoch, seq)` link-state digest, and
//!   post-heal delivery is complete;
//! - an oscillating link is flap-damped: down declarations stay
//!   fail-fast, but recoveries are held down, suppressions are counted
//!   and journaled, and the admitted transition rate is bounded.
//!
//! (That a panic in a core call stops its node needs threads: the unit
//! test in `runtime.rs`. That a restart under a fresh epoch rejoins is
//! `protocol.rs::a_restarted_node_refills_its_link_state_database`.)
//!
//! All tests are seeded via `DG_CHAOS_SEED` (default 42) so CI can run
//! the same scenarios across a seed sweep.

use dissemination_graphs::overlay::fault::LinkFault;
use dissemination_graphs::overlay::metrics::EventKind;
use dissemination_graphs::overlay::simnet::{env_seed, Net};
use dissemination_graphs::prelude::*;
use std::time::Duration;

fn ms(n: u64) -> Micros {
    Micros::from_millis(n)
}

fn blackhole() -> LinkFault {
    LinkFault { blackhole: true, ..LinkFault::default() }
}

/// Blackholes or restores both directions of the `a <-> b` link pair.
fn set_cut(net: &mut Net, a: NodeId, b: NodeId, cut: bool) {
    for (src, dst) in [(a, b), (b, a)] {
        let edge = net.graph().edge_between(src, dst).expect("ring links exist");
        if cut {
            net.set_link_impairment(edge, blackhole());
        } else {
            net.clear_link_fault(edge);
        }
    }
}

/// Acceptance criterion: partition a 6-node ring into two halves, let
/// both sides keep originating, heal, and require every node to
/// converge to the identical per-origin `(epoch, seq)` digest — then
/// require every packet of a flow that spans the former cut to arrive.
#[test]
fn partition_heals_to_identical_digests_and_full_delivery() {
    let graph = topology::presets::ring(6, ms(5));
    let config = ClusterConfig {
        hello_interval: Duration::from_millis(25),
        digest_interval: Duration::from_millis(300),
        fault_seed: env_seed(),
        ..Default::default()
    };
    let mut net = Net::launch(&graph, config).unwrap();
    let (n0, n2, n3, n5) = (NodeId::new(0), NodeId::new(2), NodeId::new(3), NodeId::new(5));
    let flow = Flow::new(n0, n3);
    net.open_receiver(flow);
    let tx = net
        .open_sender(flow, SchemeKind::StaticTwoDisjoint, ServiceRequirement::default())
        .unwrap();
    net.run_for(ms(1_000));
    assert!(net.link_state_converged(), "no initial convergence");

    // Cut {0,1,2} from {3,4,5}: both ring crossings, both directions.
    set_cut(&mut net, n2, n3, true);
    set_cut(&mut net, n5, n0, true);
    // Hold the partition long enough for both sides to diverge (the
    // cut links are declared down on each side): reconvergence must
    // come from flooding and digest repair.
    net.run_for(ms(1_500));
    let (near, far) = (net.link_state_digest(n0), net.link_state_digest(n3));
    assert_ne!(near, far, "the halves never diverged");
    set_cut(&mut net, n2, n3, false);
    set_cut(&mut net, n5, n0, false);

    // Every node must reach the identical per-origin digest.
    let converged = |net: &mut Net| {
        let first = net.link_state_digest(n0);
        first.len() == 6 && graph.nodes().all(|n| net.link_state_digest(n) == first)
    };
    net.wait_until(ms(8_000), converged).expect("digests never converged after heal");

    // Post-heal service: every packet across the former cut arrives.
    net.take_deliveries(flow);
    let total = 200usize;
    for i in 0..total {
        net.send(tx, format!("p{i}").as_bytes());
        net.run_for(ms(2));
    }
    net.run_for(ms(400));
    let delivered = net.take_deliveries(flow).len();
    assert!(delivered == total, "post-heal delivery too low: {delivered}/{total}");

    // The reliable-flooding machinery must actually have run.
    let totals = net.metrics_report().totals;
    assert!(totals.lsa_acks_received > 0, "no LSA ever acknowledged");
    assert!(totals.digests_sent > 0, "anti-entropy digests never exchanged");
}

/// Acceptance criterion: an oscillating link is flap-damped. Down
/// declarations stay fail-fast, recoveries wait out the hold-down, the
/// suppressed attempts are counted and journaled, and the total
/// admitted transition rate stays far below the raw oscillation rate.
#[test]
fn oscillating_link_is_flap_damped() {
    let graph = topology::presets::ring(3, ms(2));
    let hold_down = Duration::from_secs(2);
    let config = ClusterConfig {
        hello_interval: Duration::from_millis(25),
        flap_hold_down: hold_down,
        fault_seed: env_seed(),
        ..Default::default()
    };
    let mut net = Net::launch(&graph, config).unwrap();
    let (n0, n1) = (NodeId::new(0), NodeId::new(1));
    net.run_for(ms(1_000));
    assert!(net.link_state_converged(), "no link-state convergence");

    // Oscillate the directed link 0 -> 1: nine cycles of 250 ms dark
    // (past the 125 ms down horizon, and wide enough that every cycle
    // spans an origination tick) and 400 ms bright. Undamped, that is
    // up to 18 admitted down/up transitions.
    let edge = graph.edge_between(n0, n1).expect("ring link exists");
    for _ in 0..9 {
        net.set_link_impairment(edge, blackhole());
        net.run_for(ms(250));
        net.clear_link_fault(edge);
        net.run_for(ms(400));
    }
    net.run_for(ms(300));

    let snap = net.snapshot(n1);
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
    // window — on this clock, to the microsecond.
    for pair in ups.windows(2) {
        assert!(
            pair[1].saturating_sub(pair[0]) >= Micros::from_micros(hold_down.as_micros() as u64),
            "recoveries {pair:?} violate the hold-down spacing"
        );
    }
}
