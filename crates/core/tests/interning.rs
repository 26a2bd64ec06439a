//! Cross-flow interning in the multicast tier of [`GraphCache`], counted
//! exactly.
//!
//! Many unicast flows out of one source share one group, and every flow
//! of a group must be served the group's one graph: a lookup a flow
//! (as a sender opening) plus a lookup a group (as the group's replay)
//! computes a graph once per distinct group and serves every other
//! lookup from the cache. The flows are the 12-site US overlay's: sources
//! round-robin over the sites, each cycling through the other eleven as
//! destinations, so at 1 000 flows and more every site's group holds all
//! eleven others. A flow names its group starting from its own
//! destination and the group's replay names it in the order its flows
//! were first seen, so the tier must key on the receiver set, not on the
//! order a caller lists it in.

use dg_core::scheme::SchemeParams;
use dg_core::{GraphCache, MulticastKind, ServiceRequirement};
use dg_topology::generate::TopoSpec;
use dg_topology::NodeId;
use std::sync::Arc;

/// Opens `flows` flows and replays their groups once each, checking that
/// every flow was served its group's graph; returns `(lookups, groups)`.
fn intern(cache: &GraphCache, flows: usize) -> (u64, u64) {
    let n = cache.graph().node_count();
    let flows: Vec<(NodeId, NodeId)> = (0..flows)
        .map(|i| {
            let src = i % n;
            let dst = (src + 1 + (i / n) % (n - 1)) % n;
            (NodeId::new(src as u32), NodeId::new(dst as u32))
        })
        .collect();
    // The groups, each source's receivers in first-seen order.
    let mut groups: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for &(src, dst) in &flows {
        match groups.iter_mut().find(|(s, _)| *s == src) {
            Some((_, receivers)) if receivers.contains(&dst) => {}
            Some((_, receivers)) => receivers.push(dst),
            None => groups.push((src, vec![dst])),
        }
    }
    let requirement =
        ServiceRequirement::new(TopoSpec::NorthAmerica.default_deadline(cache.graph(), &flows));
    let lookup = |src, receivers: &[NodeId]| {
        cache.multicast(src, receivers, MulticastKind::Targeted, requirement).expect("routable")
    };
    let served: Vec<_> = flows
        .iter()
        .map(|&(src, dst)| {
            let (_, receivers) = groups.iter().find(|(s, _)| *s == src).expect("grouped");
            let mut own_first = receivers.clone();
            let at = own_first.iter().position(|&r| r == dst).expect("a member");
            own_first.rotate_left(at);
            (src, lookup(src, &own_first))
        })
        .collect();
    for (src, receivers) in &groups {
        let replayed = lookup(*src, receivers);
        for (_, graph) in served.iter().filter(|(s, _)| s == src) {
            assert!(
                Arc::ptr_eq(graph, &replayed),
                "a flow from {src} was served a graph of its own"
            );
        }
    }
    ((flows.len() + groups.len()) as u64, groups.len() as u64)
}

#[test]
fn every_flow_of_a_group_is_served_the_groups_one_graph() {
    let topology = Arc::new(TopoSpec::NorthAmerica.build());
    for flows in [1_000, 10_000] {
        let cache = GraphCache::new(Arc::clone(&topology), SchemeParams::default());
        let (lookups, groups) = intern(&cache, flows);
        assert_eq!(groups, 12, "{flows} flows: one group a site");
        let stats = cache.stats();
        assert_eq!(stats.multicast.misses, groups, "{flows} flows: one computation a group");
        assert_eq!(stats.multicast.hits, lookups - groups, "{flows} flows: {stats:?}");
        assert_eq!((stats.baseline.hits, stats.baseline.misses), (0, 0));
        assert_eq!((stats.live.hits, stats.live.misses), (0, 0));
    }
}
