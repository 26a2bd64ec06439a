//! Chaos soak: seeded fault storms against real nodes on the virtual
//! clock (`simnet::Net`: real cores, carriers and fault plans; no
//! socket, thread or sleep).
//!
//! The tentpole robustness claims under test:
//! - the fault model is deterministic for a fixed seed, so a chaos run
//!   is reproducible — byte for byte, on the wire;
//! - a storm of bursty loss, reordering, duplication, corruption,
//!   blackholes, and a node crash/restart never delivers a corrupted
//!   payload (corrupt datagrams only ever surface as `malformed`), and
//!   keeps the conservation identity;
//! - once the storm heals and a settle window has passed, every packet
//!   is delivered on time again (≥99% through real UDP; all of them on
//!   this clock);
//! - a crashed-then-restarted node's link-state reports are accepted
//!   again via its fresh epoch (nothing ages out to bail the database
//!   out);
//! - hello-timeout link-down declarations let adaptive schemes reroute
//!   around a killed node while the static baseline loses its flow.
//!
//! `DG_CHAOS_SEED` picks the fault streams (CI sweeps it); a failing
//! run prints the seed that replays it.

use dissemination_graphs::overlay::chaos::{ChaosAction, ChaosEvent, ChaosProfile, ChaosSchedule};
use dissemination_graphs::overlay::fault::{BurstLoss, FaultPlan, LinkFault};
use dissemination_graphs::overlay::metrics::EventKind;
use dissemination_graphs::overlay::simnet::{env_seed, Net};
use dissemination_graphs::prelude::*;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

fn by_name(graph: &Graph, name: &str) -> NodeId {
    graph.node_by_name(name).unwrap()
}

fn ms(n: u64) -> Micros {
    Micros::from_millis(n)
}

/// The 12-site US overlay at the storm cadences, on `seed`.
fn launch(graph: &Graph, seed: u64) -> Net {
    let config = ClusterConfig {
        hello_interval: Duration::from_millis(25),
        fault_seed: seed,
        ..Default::default()
    };
    let mut net = Net::launch(graph, config).unwrap();
    net.run_for(ms(1_000));
    assert!(net.link_state_converged(), "no link-state convergence");
    net
}

/// Every fault decision a storm makes, folded into comparable totals.
#[derive(Debug, PartialEq, Eq)]
struct VerdictTotals {
    drops: u64,
    duplicates: u64,
    corruptions: u64,
    delay_sum_us: u64,
    corrupt_seed_hash: u64,
}

/// Replays a fixed decision sequence — including a mid-run heal and
/// re-inject — against a seeded plan and tallies the verdicts.
fn run_verdict_stream(seed: u64) -> VerdictTotals {
    let plan = FaultPlan::with_seed(seed);
    let storm = LinkFault {
        loss: 0.1,
        burst: Some(BurstLoss { p_enter: 0.08, p_exit: 0.3, good_loss: 0.01, bad_loss: 0.8 }),
        jitter: Micros::from_millis(2),
        reorder: 0.2,
        duplicate: 0.15,
        corrupt: 0.1,
        ..LinkFault::default()
    };
    plan.set(NodeId::new(1), LinkFault::lossy(0.3, Micros::from_millis(1)));
    plan.set(NodeId::new(2), storm);
    let mut totals = VerdictTotals {
        drops: 0,
        duplicates: 0,
        corruptions: 0,
        delay_sum_us: 0,
        corrupt_seed_hash: 0,
    };
    for step in 0..10_000u64 {
        if step == 5_000 {
            // Heal and re-inject: the per-link RNG stream must carry on
            // where it left off, not restart.
            plan.clear(NodeId::new(2));
            plan.set(NodeId::new(2), storm);
        }
        for neighbor in [NodeId::new(1), NodeId::new(2)] {
            let v = plan.decide(neighbor);
            totals.drops += u64::from(v.drop);
            totals.duplicates += u64::from(v.duplicate);
            totals.corruptions += u64::from(v.corrupt);
            totals.delay_sum_us += v.delay.as_micros();
            totals.corrupt_seed_hash ^= v.corrupt_seed.rotate_left((step % 63) as u32);
        }
    }
    totals
}

/// Acceptance criterion: the chaos fault model is bit-deterministic for
/// a fixed seed — two runs produce identical drop/duplicate/corruption
/// totals — and a different seed produces a different storm.
#[test]
fn seeded_chaos_is_deterministic() {
    let first = run_verdict_stream(0xDEAD_BEEF);
    let second = run_verdict_stream(0xDEAD_BEEF);
    assert_eq!(first, second, "same seed must replay the same storm");
    let other = run_verdict_stream(0xFEED_FACE);
    assert_ne!(first, other, "different seeds must differ");

    let graph = topology::presets::north_america_12();
    let profile = ChaosProfile::default();
    let a = ChaosSchedule::generate(7, graph.edge_count(), graph.node_count(), &[], &profile);
    let b = ChaosSchedule::generate(7, graph.edge_count(), graph.node_count(), &[], &profile);
    assert_eq!(a, b, "schedule generation must be deterministic");
}

/// The storm: every failure mode in the model, all healed by 1300 ms,
/// with DEN crashed and restarted (DEN is on neither coast, so the
/// flow's endpoints stay up).
fn storm(graph: &Graph, flow: Flow) -> ChaosSchedule {
    let nyc_out = graph.out_edges(flow.source);
    let (chi, den) = (by_name(graph, "CHI"), by_name(graph, "DEN"));
    let inject = |edge, fault| ChaosAction::InjectEdge { edge, fault };
    let bursty = BurstLoss { p_enter: 0.1, p_exit: 0.25, good_loss: 0.02, bad_loss: 0.9 };
    let shaken = LinkFault { jitter: ms(4), reorder: 0.3, loss: 0.1, ..LinkFault::default() };
    // Listed out of order where it would show: a replay that did not
    // sort by fire time would restart DEN (a no-op) before crashing it.
    let events = [
        (1300, ChaosAction::RestartNode { node: den }),
        (100, inject(nyc_out[0], LinkFault { corrupt: 0.3, ..LinkFault::default() })),
        (
            150,
            inject(
                nyc_out[1],
                LinkFault { burst: Some(bursty), duplicate: 0.2, ..LinkFault::default() },
            ),
        ),
        (200, ChaosAction::ImpairNode { node: chi, fault: shaken }),
        (300, inject(nyc_out[2], LinkFault { blackhole: true, ..LinkFault::default() })),
        (400, ChaosAction::CrashNode { node: den }),
        (1000, ChaosAction::HealEdge { edge: nyc_out[0] }),
        (1050, ChaosAction::HealEdge { edge: nyc_out[1] }),
        (1100, ChaosAction::HealNode { node: chi }),
        (1150, ChaosAction::HealEdge { edge: nyc_out[2] }),
    ];
    let events = events.map(|(at_ms, action)| ChaosEvent { at_ms, action });
    ChaosSchedule { seed: 42, events: events.into() }
}

/// The storm replayed against the overlay while a targeted-redundancy
/// flow sends every 3 ms, then a settle and a fresh batch of 300.
/// Returns the run, every payload by sequence, and the fresh batch's
/// sequences.
fn storm_run(seed: u64) -> (Net, Flow, HashMap<u64, Vec<u8>>, HashSet<u64>) {
    let graph = topology::presets::north_america_12();
    let flow = Flow::new(by_name(&graph, "NYC"), by_name(&graph, "SJC"));
    let mut net = launch(&graph, seed);
    net.open_receiver(flow);
    let tx = net
        .open_sender(flow, SchemeKind::TargetedRedundancy, ServiceRequirement::default())
        .unwrap();
    net.play(&storm(&graph, flow)).expect("the storm names this topology's edges and sites");

    let mut sent: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..500 {
        let payload = format!("storm-{i}").into_bytes();
        sent.insert(net.send(tx, &payload), payload);
        net.run_for(ms(3));
    }
    assert!(net.chaos_finished(), "schedule did not complete");
    assert!(net.is_alive(by_name(&graph, "DEN")), "DEN was not restarted");

    // Settle, then measure post-heal recovery on a fresh batch.
    net.run_for(ms(1_200));
    let mut recovery = HashSet::new();
    for i in 0..300 {
        let payload = format!("recovery-{i}").into_bytes();
        let seq = net.send(tx, &payload);
        sent.insert(seq, payload);
        recovery.insert(seq);
        net.run_for(ms(3));
    }
    net.run_for(ms(700));
    (net, flow, sent, recovery)
}

/// The tentpole soak. Invariants: conservation, corrupt datagrams never
/// reach a receiver intact-looking, and post-heal delivery recovers
/// completely.
#[test]
fn chaos_storm_soak_holds_invariants_and_recovers() {
    let (net, flow, sent, recovery) = storm_run(env_seed());
    // Corrupted datagrams must never surface as deliveries: every
    // delivered payload is byte-identical to what was sent.
    let mut seen = HashSet::new();
    for (_, d) in net.deliveries() {
        let expected = sent.get(&d.flow_seq).expect("delivered an unknown sequence");
        assert_eq!(&d.payload[..], &expected[..], "corrupted payload for seq {}", d.flow_seq);
        assert!(seen.insert(d.flow_seq), "seq {} delivered twice", d.flow_seq);
    }
    let on_time_recovered =
        net.deliveries().iter().filter(|(_, d)| recovery.contains(&d.flow_seq) && d.on_time);
    let on_time_recovered = on_time_recovered.count();
    assert!(
        on_time_recovered == recovery.len(),
        "post-heal recovery too weak: {on_time_recovered}/{} on time",
        recovery.len()
    );

    let report = net.metrics_report();
    // The storm actually exercised the new fault modes...
    let totals = report.totals;
    assert!(totals.fault_corruptions > 0, "corruption fault never fired");
    assert!(totals.fault_duplicates > 0, "duplication fault never fired");
    // ...and every corruption that reached a live receiver was caught
    // by the checksum, not parsed: corrupt datagrams only ever increment
    // `malformed`. (DEN's counters went with its first life, and a
    // corrupted datagram addressed to it while down vanished, so
    // malformed ≤ corruptions.)
    assert!(totals.malformed > 0, "no corrupted datagram was counted malformed");
    assert!(totals.malformed <= totals.fault_corruptions, "malformed exceeds corruptions");

    // Conservation: everything sent is delivered or counted lost.
    let fr = *report.flow(flow).expect("flow was active");
    assert_eq!(fr.packets_sent, fr.packets_delivered + fr.packets_lost);
    assert_eq!(fr.packets_sent, sent.len() as u64);
}

/// The same seed twice is the same run: every frame on the wire, byte
/// for byte at the same instant, through loss, jitter, reordering,
/// duplication, corruption, a crash and a restart. Another seed is
/// another run.
#[test]
fn a_storm_replays_byte_for_byte_from_its_seed() {
    let seed = env_seed();
    let (one, two, other) = (storm_run(seed).0, storm_run(seed).0, storm_run(seed ^ 1).0);
    assert!(one.wire().len() > 10_000, "a storm's worth of frames: {}", one.wire().len());
    assert!(one.wire() == two.wire(), "same seed, different wire");
    assert_eq!(one.deliveries(), two.deliveries());
    assert!(one.wire() != other.wire(), "different seeds must differ");
}

/// FNV-1a over every frame of a wire log: its instant, both ends, its
/// length and its bytes.
fn wire_hash(net: &Net) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for frame in net.wire() {
        eat(&frame.at.as_micros().to_le_bytes());
        eat(&(frame.from.index() as u32).to_le_bytes());
        eat(&(frame.to.index() as u32).to_le_bytes());
        eat(&(frame.bytes.len() as u64).to_le_bytes());
        eat(&frame.bytes);
    }
    hash
}

/// The storm on seed 42 puts on the wire, byte for byte and instant for
/// instant, what it put there when pinned: how a node holds a frame is
/// not the protocol's business. A change that means to move the wire
/// re-pins this and says why. Last moved when a node began reporting
/// its links on first contact instead of at its first refresh, and a
/// restarted node stopped reading its neighbours' earlier hellos as
/// loss: the control frames shifted in time and sequence (96 039 frames
/// → 97 117), the data frame encoding did not change, and the storm
/// still delivers all 800 packets on time. Moved again when a link's
/// estimate gained its short span (half the floor's ticks, half the
/// samples): the same detectors trigger at the same instants, but the
/// healed links clear up to 225 ms sooner, so the source's problem
/// graph stands down 20–130 ms sooner: still four route changes, the
/// first two identical, the stand-down 16 → 10 → 6 edges where it was
/// 16 → 12 → 6. The link-state reports carry the new estimates
/// (control frames 90 340 → 90 523); the data frames are the
/// same frames until the first release, and 300 fewer in all (6 777 →
/// 6 477: 97 117 frames → 97 000); every one of the 800 packets is
/// still delivered on time. Moved again when link state began to flood
/// on change, with no refresh, and a link's one-way delay became the
/// least a window of hellos measured (it was a running mean): the
/// link-state floods and their acks fell from 65 277 to 15 735 frames
/// (control 90 523 → 41 063, and 97 000 frames → 47 541 in all). Still
/// four route changes to the same graphs (16 → 10 → 6 edges on the
/// stand-down); the first now 24 ms sooner (T0 + 1 284 ms, was 1 308:
/// the source's schemes see every report as it lands, not only a
/// threshold crossing) and the stand-down's first step 50 ms sooner
/// (2 282 ms, was 2 332); one more data frame (6 478); every one of the
/// 800 packets is still delivered on time.
#[test]
fn a_storm_on_a_fixed_seed_puts_the_pinned_bytes_on_the_wire() {
    const PINNED: u64 = 0xd80d_d46f_f7d5_d1ad;
    let net = storm_run(42).0;
    assert_eq!(wire_hash(&net), PINNED, "{} frames", net.wire().len());
}

/// A crashed-then-restarted node's reports must be re-accepted through
/// its fresh epoch: nothing ages out, so a stale high-sequence record
/// would otherwise stand for good. The new incarnation reports once it
/// has heard every in-link, and reads none of what its neighbours sent
/// before it existed as loss: no detector trigger, and the healed link
/// seen far away within 150 ms.
#[test]
fn restarted_node_link_state_is_reaccepted_via_epoch() {
    let graph = topology::presets::north_america_12();
    let mut net = launch(&graph, env_seed());

    // DEN reports the condition of its in-links. Impair one and wait
    // until a far-away observer (NYC) sees DEN's report of it.
    let (den, nyc) = (by_name(&graph, "DEN"), by_name(&graph, "NYC"));
    let watched = graph.in_edges(den)[0];
    let seen_loss = |net: &mut Net| net.network_state(nyc).condition(watched).loss_rate;
    net.set_link_fault(watched, 0.9, Micros::ZERO);
    net.wait_until(ms(4_000), |net| seen_loss(net) > 0.5)
        .expect("observer never saw the impairment");

    // Crash DEN, heal the link while it is down, and restart it. The
    // old incarnation's report (high sequence) says the link is lossy;
    // only the new incarnation — reset sequence, fresh epoch — knows it
    // healed.
    net.kill_node(den);
    net.run_for(ms(400));
    net.clear_link_fault(watched);
    net.restart_node(den);

    // The observer sees the healed condition only if the restarted
    // node's fresh epoch outranked the stale high-sequence record.
    net.wait_until(ms(150), |net| seen_loss(net) < 0.5)
        .expect("restarted node's link-state reports were not re-accepted via epoch");
    net.run_for(ms(500));
    let events = net.snapshot(den).events;
    let triggers = events.iter().filter(|e| matches!(e.kind, EventKind::DetectorTriggered { .. }));
    assert_eq!(triggers.count(), 0, "the new incarnation read its neighbours' past as loss");
}

/// Kill a node mid-flow: hello silence declares its links down within
/// the detector window, the declarations flood, and adaptive schemes
/// reroute — while the static single path, pinned through the corpse,
/// loses its flow.
#[test]
fn link_down_declarations_let_adaptive_schemes_survive_a_node_kill() {
    let graph = topology::presets::north_america_12();
    let nyc = by_name(&graph, "NYC");
    let sjc = by_name(&graph, "SJC");
    let static_flow = Flow::new(nyc, sjc);
    let dynamic_flow = Flow::new(sjc, nyc);

    let mut net = launch(&graph, env_seed());
    net.open_receiver(static_flow);
    net.open_receiver(dynamic_flow);
    let requirement = ServiceRequirement::default();
    let static_tx =
        net.open_sender(static_flow, SchemeKind::StaticSinglePath, requirement).unwrap();
    let dynamic_tx =
        net.open_sender(dynamic_flow, SchemeKind::TargetedRedundancy, requirement).unwrap();

    // The static path's first intermediate node is the victim.
    let first_hop = net.current_graph(static_tx).forwarding_edges(&graph, nyc).next().unwrap();
    let victim = graph.edge(first_hop).dst;
    assert_ne!(victim, sjc, "static path must be multi-hop for this test");

    // Warm both flows, then kill the victim.
    for _ in 0..50 {
        net.send(static_tx, b"warm");
        net.send(dynamic_tx, b"warm");
        net.run_for(ms(3));
    }
    net.kill_node(victim);
    // Detector window: 5 hello intervals of silence (125 ms) declares
    // the links down, plus flood and route recomputation time.
    net.run_for(ms(800));
    net.take_deliveries(static_flow);
    net.take_deliveries(dynamic_flow);

    let total = 200usize;
    for i in 0..total {
        net.send(static_tx, format!("s{i}").as_bytes());
        net.send(dynamic_tx, format!("d{i}").as_bytes());
        net.run_for(ms(3));
    }
    net.run_for(ms(600));
    let static_after = net.take_deliveries(static_flow).len();
    let dynamic_after = net.take_deliveries(dynamic_flow).iter().filter(|d| d.on_time).count();

    // The declarations must be visible in the metrics...
    let report = net.metrics_report();
    assert!(report.totals.links_declared_down > 0, "no link was declared down after the kill");
    assert!(
        report
            .nodes
            .iter()
            .flat_map(|n| &n.events)
            .any(|e| matches!(e.kind, EventKind::LinkDown { neighbor } if neighbor == victim)),
        "no LinkDown event named the killed node"
    );
    // ...and the service outcome must split: the adaptive flow survives
    // whole, the static flow through the corpse starves.
    assert!(
        dynamic_after == total,
        "adaptive flow did not survive the kill: {dynamic_after}/{total} on time"
    );
    assert!(
        static_after == 0,
        "static single path somehow delivered {static_after}/{total} through a dead node"
    );
}
