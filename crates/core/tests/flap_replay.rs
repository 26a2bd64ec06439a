//! `ctrl_churn`'s flap phase, replayed as a regression test: the
//! benchmark's topology, flows, groups and flap schedule, with the
//! cache checked against its from-scratch oracle after every flip and
//! the evictions the heals cause pinned. Eight more flap orders are
//! checked against the oracle too, unpinned.
//!
//! Under the dependency rule a live or multicast graph depends on the
//! edges it selects and on the unusable edges some step of its
//! construction would have used — not on every link that was down when
//! it was computed. So a link coming back evicts the graphs it can
//! change, not everything computed while it was down. Each evicted
//! graph is recomputed; a graph that stays resident must still be the
//! one the oracle computes, which is what this checks on every flip.

use dg_core::scheme::SchemeParams;
use dg_core::{splitmix, CachedGraphKind, Flow, GraphCache, MulticastKind, ServiceRequirement};
use dg_topology::generate::TopoSpec;
use dg_topology::{EdgeId, NodeId};
use std::collections::HashSet;
use std::sync::Arc;

/// As `benchmark/src/wl_ctrl.rs` has them.
const INPUT_SEED: u64 = 2017;
const TOPOLOGY: TopoSpec = TopoSpec::Waxman { nodes: 100, seed: INPUT_SEED };
const FLOWS: usize = 64;
const GROUPS: usize = 12;
const GROUP_RECEIVERS: usize = 6;
const FLAP_LINKS: usize = 75;
const MAX_DOWN: usize = 6;
/// The flap order: `dg-perf --seed 11`'s first trial.
const ORDER_SEED: u64 = 11;

/// Entries the 75 heals of the schedule evict, live and multicast
/// together: 5.3 a heal of the 76 resident. Of them, 315 come back as
/// another graph, so no sound rule evicts fewer. The trees' bound tests
/// this rule's improvement test replaced evicted 643 (8.6 a heal), and
/// the rule before them, on which every graph depended on every link
/// down when it was computed, 4 981 (66.4 a heal). A change to the
/// dependency rule moves this; a change that moves it without meaning
/// to is what this pins.
const HEAL_EVICTIONS: u64 = 396;
/// Of [`HEAL_EVICTIONS`], those rebuilt as the very graph evicted: the
/// work the rule still wastes (328 under the bound tests).
const HEAL_EVICTIONS_UNCHANGED: u64 = 81;
/// Entries the 75 downs evict: the same under either rule, since a
/// link going down evicts the graphs that select it.
const DOWN_EVICTIONS: u64 = 335;

/// The harness's random source (`benchmark/src/stats.rs`).
struct SplitMix64(u64);

impl SplitMix64 {
    fn below(&mut self, n: usize) -> usize {
        (splitmix::next(&mut self.0) % n as u64) as usize
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Every flap link taken down and, once [`MAX_DOWN`] later ones are
/// down too, brought back: `(link, loss rate)`.
fn flap_sequence(links: &[EdgeId], rng: &mut SplitMix64) -> Vec<(EdgeId, f64)> {
    let mut order = links.to_vec();
    shuffle(&mut order, rng);
    let mut sequence = Vec::with_capacity(2 * order.len());
    for (i, &link) in order.iter().enumerate() {
        sequence.push((link, 0.9));
        if i >= MAX_DOWN {
            sequence.push((order[i - MAX_DOWN], 0.0));
        }
    }
    let tail = order.len().saturating_sub(MAX_DOWN);
    sequence.extend(order[tail..].iter().map(|&link| (link, 0.0)));
    sequence
}

/// The benchmark's inputs: its topology, and on it a cache holding
/// nothing yet, the flows, the groups, the links that flap, and the
/// flows' requirement.
struct Inputs {
    cache: GraphCache,
    flows: Vec<Flow>,
    groups: Vec<(NodeId, Vec<NodeId>)>,
    links: Vec<EdgeId>,
    requirement: ServiceRequirement,
}

fn inputs() -> Inputs {
    let graph = TOPOLOGY.build();
    let pairs = TOPOLOGY.default_flows(&graph, FLOWS);
    let requirement = ServiceRequirement::new(TOPOLOGY.default_deadline(&graph, &pairs));
    let flows: Vec<Flow> = pairs.into_iter().map(|(s, t)| Flow::new(s, t)).collect();
    let mut rng = SplitMix64(INPUT_SEED);
    let n = graph.node_count();
    let groups: Vec<(NodeId, Vec<NodeId>)> = (0..GROUPS)
        .map(|_| {
            let source = NodeId::new(rng.below(n) as u32);
            let receivers =
                (0..GROUP_RECEIVERS).map(|_| NodeId::new(rng.below(n) as u32)).collect();
            (source, receivers)
        })
        .collect();
    let mut links: Vec<EdgeId> = graph.edges().collect();
    shuffle(&mut links, &mut rng);
    links.truncate(FLAP_LINKS);
    let cache = GraphCache::new(graph, SchemeParams::default());
    Inputs { cache, flows, groups, links, requirement }
}

/// What one flap order's heals and downs evicted.
#[derive(Debug, PartialEq)]
struct Evictions {
    heals: u64,
    downs: u64,
    /// Heal evictions whose rebuilt graph is the one evicted.
    heals_unchanged: u64,
}

/// Serves every flow's Robust graph and every group's Targeted graph
/// through the flap order drawn from `order_seed`, each against the
/// oracle after every flip, and counts the evictions.
fn replay(order_seed: u64) -> Evictions {
    let Inputs { cache, flows, groups, links, requirement } = inputs();
    // The graphs served, in flows-then-groups order, each against the
    // oracle.
    let serve_and_check = |when: &str| {
        let mut served = Vec::with_capacity(flows.len() + groups.len());
        for &flow in &flows {
            let graph = cache.live(flow, CachedGraphKind::Robust, requirement).unwrap();
            let oracle = cache.compute_uncached(flow, CachedGraphKind::Robust, requirement);
            assert_eq!(*graph, oracle.unwrap(), "live graph of {flow:?} {when}");
            served.push(graph);
        }
        for (source, receivers) in &groups {
            let kind = MulticastKind::Targeted;
            let graph = cache.multicast(*source, receivers, kind, requirement).unwrap();
            let oracle = cache.compute_multicast_uncached(*source, receivers, kind, requirement);
            assert_eq!(*graph, oracle.unwrap(), "group from {source:?} {when}");
            served.push(graph);
        }
        served
    };
    let mut served = serve_and_check("before any flap");
    let resident = cache.stats().live_entries + cache.stats().multicast_entries;
    assert_eq!(resident, FLOWS + GROUPS);

    let evicted = || {
        let stats = cache.stats();
        stats.live.invalidated + stats.multicast.invalidated
    };
    let mut counts = Evictions { heals: 0, downs: 0, heals_unchanged: 0 };
    let mut down = HashSet::new();
    for (i, (link, loss)) in
        flap_sequence(&links, &mut SplitMix64(order_seed)).into_iter().enumerate()
    {
        let before = evicted();
        assert!(cache.note_loss(link, loss), "flip {i} of {link:?} crossed no threshold");
        let heal = loss < GraphCache::DEFAULT_UNUSABLE_LOSS;
        let now = evicted() - before;
        if heal {
            assert!(down.remove(&link));
            counts.heals += now;
        } else {
            assert!(down.insert(link));
            counts.downs += now;
        }
        assert!(down.len() <= MAX_DOWN + 1);
        let when = format!("after flip {i} ({link:?} {})", if heal { "up" } else { "down" });
        let again = serve_and_check(&when);
        // A hit hands out the resident graph itself.
        let rebuilt = served.iter().zip(&again).filter(|(was, is)| !Arc::ptr_eq(was, is));
        let rebuilt: Vec<bool> = rebuilt.map(|(was, is)| was == is).collect();
        assert_eq!(rebuilt.len() as u64, now, "{when}: evictions are the graphs rebuilt");
        if heal {
            counts.heals_unchanged += rebuilt.iter().filter(|&&same| same).count() as u64;
        }
        served = again;
    }
    assert!(down.is_empty());
    counts
}

#[test]
fn ctrl_churn_flaps_keep_every_graph_equal_to_the_oracle() {
    assert_eq!(
        replay(ORDER_SEED),
        Evictions {
            heals: HEAL_EVICTIONS,
            downs: DOWN_EVICTIONS,
            heals_unchanged: HEAL_EVICTIONS_UNCHANGED
        },
        "entries the schedule's 75 heals and 75 downs evicted"
    );
}

/// Eight other orders of the same flaps: other sets of links are down
/// together, and every graph must still equal the oracle's.
#[test]
fn other_flap_orders_keep_every_graph_equal_to_the_oracle() {
    for order_seed in 1..=8 {
        let counts = replay(order_seed);
        assert!(counts.heals > 0 && counts.downs > 0, "order {order_seed}: {counts:?}");
    }
}
