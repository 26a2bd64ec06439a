//! What the control plane costs an overlay at rest, on the virtual
//! clock: a node originates a link-state report only when what it
//! advertises changes, so once the overlay has converged an idle node
//! sends hellos, their echoes and digests, and nothing else.

use dg_overlay::cluster::ClusterConfig;
use dg_overlay::fault::{BurstLoss, LinkFault};
use dg_overlay::simnet::{env_seed, Net, T0};
use dg_overlay::wire::{Envelope, Message};
use dg_topology::generate::GeneratorConfig;
use dg_topology::{presets, Graph, Micros};

/// Control datagrams on the wire in the measured window, by kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Control {
    hellos: u64,
    echoes: u64,
    floods: u64,
    acks: u64,
    digests: u64,
}

impl Control {
    fn total(&self) -> u64 {
        self.hellos + self.echoes + self.floods + self.acks + self.digests
    }
}

/// The measured window: after two seconds to converge, five seconds.
const SETTLE: Micros = Micros::from_secs(2);
const WINDOW_SECS: u64 = 5;

/// `graph` at the default cadences with no traffic, every link under
/// `fault`: the control datagrams of the window.
fn idle(graph: &Graph, fault: Option<LinkFault>) -> Control {
    let config = ClusterConfig { fault_seed: env_seed(), ..ClusterConfig::default() };
    let mut net = Net::launch(graph, config).expect("launches");
    for e in graph.edges().filter(|_| fault.is_some()) {
        net.set_link_impairment(e, fault.expect("filtered"));
    }
    let from = T0.saturating_add(SETTLE);
    let to = from.saturating_add(Micros::from_secs(WINDOW_SECS));
    net.run_until(to);
    assert!(net.link_state_converged(), "never converged");
    let mut count = Control::default();
    for frame in net.wire().iter().filter(|f| f.at >= from && f.at < to) {
        match Envelope::decode(&frame.bytes).expect("control frames decode").message {
            Message::Hello { .. } => count.hellos += 1,
            Message::HelloAck { .. } => count.echoes += 1,
            Message::LinkState(_) => count.floods += 1,
            Message::LsaAck { .. } => count.acks += 1,
            Message::Digest { .. } => count.digests += 1,
            other => panic!("an idle overlay sent {other:?}"),
        }
    }
    count
}

fn per_node_per_second(count: Control, graph: &Graph) -> f64 {
    count.total() as f64 / (graph.node_count() as u64 * WINDOW_SECS) as f64
}

/// At rest, US-12 at the default cadences (50 ms hellos, 1 s digests)
/// costs each node 205 control datagrams a second — every one a hello,
/// its echo or a digest (with a 200 ms refresh it was 729, two thirds
/// of them floods and their acks) — and ring-of-cliques-100 costs about
/// the same, because nothing at rest grows with the node count (it was
/// 4 036).
#[test]
fn an_idle_overlay_sends_hellos_echoes_and_digests_only() {
    let us = presets::north_america_12();
    let count = idle(&us, None);
    let hellos = 5 * 20 * 60;
    let quiet = Control { hellos, echoes: hellos, floods: 0, acks: 0, digests: 5 * 60 };
    assert_eq!(count, quiet, "US-12's 60 directed links");
    let us_rate = per_node_per_second(count, &us);
    assert_eq!(us_rate, 205.0);

    let ring = GeneratorConfig::ring_of_cliques(100, 2017).generate();
    let count = idle(&ring, None);
    let links = ring.edge_count() as u64;
    let hellos = 5 * 20 * links;
    let quiet = Control { hellos, echoes: hellos, floods: 0, acks: 0, digests: 5 * links };
    assert_eq!(count, quiet, "the ring's {links} directed links");
    let ring_rate = per_node_per_second(count, &ring);
    assert_eq!(ring_rate, 196.8);
    assert!(ring_rate <= 1.5 * us_rate);
}

/// Under the benchmarks' Gilbert–Elliott background on every link (a
/// burst every thousand datagrams or so, losing half of the five it
/// lasts) a hello-only link's detector still trips on a lost hello now
/// and then, and each trip and clear is a report flooded and acked:
/// 262 datagrams a node a second on seed 42, 215–305 on seeds 1–60
/// (750 with a 200 ms refresh). Half the refresh's cost is the bound.
#[test]
fn background_loss_costs_an_idle_overlay_only_its_detector_trips() {
    let us = presets::north_america_12();
    let burst = BurstLoss { p_enter: 0.001, p_exit: 0.2, good_loss: 0.0, bad_loss: 0.5 };
    let count = idle(&us, Some(LinkFault { burst: Some(burst), ..LinkFault::default() }));
    let rate = per_node_per_second(count, &us);
    println!("US-12 under background loss: {count:?}, {rate:.1} a node a second");
    assert!(rate <= 375.0, "{count:?}: {rate:.1} a node a second");
}
