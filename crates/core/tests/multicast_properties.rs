//! Property battery for the multicast tier of [`dg_core::GraphCache`]:
//! single-source dissemination graphs over arbitrary generated
//! overlays must (a) span every receiver, (b) graft redundancy
//! branches only where the problem classification fires, (c) intern —
//! one construction per canonical `(source, receiver set, kind,
//! deadline)` key regardless of receiver ordering — and (d) stay equal
//! to the from-scratch oracle under any interleaving of link flaps,
//! lookups, and epoch flushes, exactly like the unicast live tier.

use dg_core::scheme::SchemeParams;
use dg_core::{DisseminationGraph, GraphCache, MulticastKind, ServiceRequirement};
use dg_topology::generate::{feasible_deadline, representative_flows, GeneratorConfig};
use dg_topology::{EdgeId, Graph, NodeId};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// One step of a flap/lookup interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Set a link's loss (index modulo edge count); values straddle
    /// the 0.5 usability threshold so flips happen both ways.
    SetLoss(usize, f64),
    /// Serve a (receiver set, kind) from the cache and check it
    /// against the oracle (indices modulo the respective counts).
    Lookup(usize, usize),
    /// Flush everything (routing-epoch advance).
    AdvanceEpoch,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..10_000, 0.0f64..1.0).prop_map(|(e, l)| Op::SetLoss(e, l)),
        (0usize..10_000, 0usize..10_000).prop_map(|(s, k)| Op::Lookup(s, k)),
        (0usize..50).prop_map(|_| Op::AdvanceEpoch),
    ]
}

/// A generated overlay, a source, nested receiver sets of growing
/// size, and a deadline feasible for every (source, receiver) pair.
fn scenario() -> impl Strategy<Value = (Arc<Graph>, NodeId, Vec<Vec<NodeId>>, ServiceRequirement)> {
    (0usize..2, 20usize..=40, 0u64..1_000_000).prop_map(|(family, nodes, seed)| {
        let config = if family == 0 {
            GeneratorConfig::waxman(nodes, seed)
        } else {
            GeneratorConfig::ring_of_cliques(nodes, seed)
        };
        let graph = config.generate();
        let endpoints = representative_flows(&graph, 4, seed);
        assert!(!endpoints.is_empty(), "generated overlays have disjoint-routable flows");
        let source = endpoints[0].0;
        let mut candidates: Vec<NodeId> =
            endpoints.iter().flat_map(|&(s, t)| [s, t]).filter(|&n| n != source).collect();
        candidates.sort();
        candidates.dedup();
        let receiver_sets: Vec<Vec<NodeId>> =
            (1..=candidates.len()).map(|k| candidates[..k].to_vec()).collect();
        let pairs: Vec<_> = candidates.iter().map(|&r| (source, r)).collect();
        let deadline = feasible_deadline(&graph, &pairs, 2.0);
        (Arc::new(graph), source, receiver_sets, ServiceRequirement::new(deadline))
    })
}

/// Serves `(source, receivers, kind)` from the cache and cross-checks
/// the from-scratch oracle. Both sides must agree on feasibility, and
/// on success the graphs must be identical.
fn check_lookup(
    cache: &GraphCache,
    source: NodeId,
    receivers: &[NodeId],
    kind: MulticastKind,
    req: ServiceRequirement,
) -> Result<(), TestCaseError> {
    let cached = cache.multicast(source, receivers, kind, req);
    let oracle = cache.compute_multicast_uncached(source, receivers, kind, req);
    match (cached, oracle) {
        (Ok(c), Ok(o)) => {
            prop_assert_eq!(c.as_ref(), &o, "{:?} -> {:?} {:?} diverged", source, receivers, kind);
        }
        (Err(_), Err(_)) => {}
        (c, o) => {
            return Err(TestCaseError::fail(format!(
                "cache/oracle disagree on feasibility for {source:?} -> {receivers:?} {kind:?}: \
                 cached={c:?} oracle={o:?}"
            )))
        }
    }
    Ok(())
}

/// Nodes reachable from the graph's source over its own edge set —
/// an independent re-proof of the spanning invariant.
fn reachable(graph: &Graph, mg: &DisseminationGraph) -> HashSet<NodeId> {
    let mut seen: HashSet<NodeId> = [mg.source()].into();
    let mut frontier = vec![mg.source()];
    while let Some(node) = frontier.pop() {
        for &e in mg.edges() {
            let info = graph.edge(e);
            if info.src == node && seen.insert(info.dst) {
                frontier.push(info.dst);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// THE multicast soundness property: under an arbitrary
    /// interleaving of loss updates, lookups, and epoch flushes, every
    /// served multicast graph equals the from-scratch oracle for the
    /// instantaneous usable set.
    #[test]
    fn cached_multicast_graphs_always_match_the_oracle(
        (graph, source, sets, req) in scenario(),
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let cache = GraphCache::new(Arc::clone(&graph), SchemeParams::default());
        let edge_count = graph.edge_count();
        for op in ops {
            match op {
                Op::SetLoss(e, loss) => {
                    cache.note_loss(EdgeId::new((e % edge_count) as u32), loss);
                }
                Op::Lookup(s, k) => {
                    let set = &sets[s % sets.len()];
                    let kind = MulticastKind::ALL[k % MulticastKind::ALL.len()];
                    check_lookup(&cache, source, set, kind, req)?;
                }
                Op::AdvanceEpoch => cache.advance_epoch(),
            }
        }
        // Final sweep: every (set, kind) agrees with the oracle in the
        // end state, hitting entries the random walk never read.
        for set in &sets {
            for kind in MulticastKind::ALL {
                check_lookup(&cache, source, set, kind, req)?;
            }
        }
    }

    /// Every constructed graph spans its full receiver set: re-proved
    /// by an independent traversal over the selected edges, for every
    /// kind, on the clean graph and after a batch of flaps.
    #[test]
    fn every_kind_spans_every_receiver(
        (graph, source, sets, req) in scenario(),
        flaps in proptest::collection::vec((0usize..10_000, 0.0f64..1.0), 0..10)
    ) {
        let cache = GraphCache::new(Arc::clone(&graph), SchemeParams::default());
        let edge_count = graph.edge_count();
        for (e, loss) in flaps {
            cache.note_loss(EdgeId::new((e % edge_count) as u32), loss);
        }
        for set in &sets {
            for kind in MulticastKind::ALL {
                let Ok(mg) = cache.multicast(source, set, kind, req) else { continue };
                prop_assert_eq!(mg.source(), source);
                let seen = reachable(&graph, &mg);
                for &r in set {
                    prop_assert!(
                        seen.contains(&r),
                        "{:?} graph does not span receiver {:?}", kind, r
                    );
                    prop_assert!(mg.contains_receiver(r));
                }
            }
        }
    }

    /// Targeted redundancy grafts branches only where the problem
    /// classification fires: on a fully healthy graph — and after
    /// flapping edges that touch neither the tree nor any receiver —
    /// the targeted graph IS the plain tree.
    #[test]
    fn targeted_branches_require_a_problem_receiver(
        (graph, source, sets, req) in scenario(),
        picks in proptest::collection::vec(0usize..10_000, 1..6)
    ) {
        let cache = GraphCache::new(Arc::clone(&graph), SchemeParams::default());
        let set = sets.last().expect("scenario yields at least one set");
        let tree = cache.multicast(source, set, MulticastKind::Tree, req)
            .expect("clean graph routes the tree");
        let targeted = cache.multicast(source, set, MulticastKind::Targeted, req)
            .expect("clean graph routes targeted");
        prop_assert_eq!(
            tree.edges(), targeted.edges(),
            "healthy graph must not carry redundancy branches"
        );
        // Flap only edges that are off-tree and not incident to any
        // receiver: no receiver becomes problem-classified and no
        // selected edge dies, so the targeted result must not change.
        let on_tree: HashSet<EdgeId> = tree.edges().iter().copied().collect();
        let touches_receiver = |e: EdgeId| {
            let info = graph.edge(e);
            set.contains(&info.src) || set.contains(&info.dst)
        };
        let mut flapped = false;
        for pick in picks {
            let e = EdgeId::new((pick % graph.edge_count()) as u32);
            if !on_tree.contains(&e) && !touches_receiver(e) {
                cache.note_loss(e, 0.9);
                flapped = true;
            }
        }
        if flapped {
            let after = cache.multicast(source, set, MulticastKind::Targeted, req)
                .expect("targeted remains routable");
            prop_assert_eq!(
                after.edges(), tree.edges(),
                "flaps away from the tree and receivers must not graft branches"
            );
        }
    }

    /// Interning is canonical: any ordering of the receiver set — with
    /// duplicates, and with the source mixed in — resolves to the same
    /// `Arc`, and that interned graph is identical to a from-scratch
    /// per-call construction.
    #[test]
    fn interning_is_order_independent_and_matches_fresh_construction(
        (graph, source, sets, req) in scenario(),
        rotate in 0usize..10_000,
        kind_idx in 0usize..10_000
    ) {
        let cache = GraphCache::new(Arc::clone(&graph), SchemeParams::default());
        let set = sets.last().expect("scenario yields at least one set");
        let kind = MulticastKind::ALL[kind_idx % MulticastKind::ALL.len()];
        let first = cache.multicast(source, set, kind, req)
            .expect("clean graph routes the set");
        let mut shuffled = set.clone();
        let pivot = rotate % shuffled.len();
        shuffled.rotate_left(pivot);
        shuffled.push(shuffled[0]);
        shuffled.push(source);
        let again = cache.multicast(source, &shuffled, kind, req)
            .expect("canonicalization ignores ordering");
        prop_assert!(Arc::ptr_eq(&first, &again), "reordered receivers broke interning");
        let fresh = cache.compute_multicast_uncached(source, &shuffled, kind, req)
            .expect("oracle routes the set");
        prop_assert_eq!(first.as_ref(), &fresh, "interned graph diverged from fresh construction");
        let stats = cache.stats();
        prop_assert_eq!(stats.multicast.misses, 1, "exactly one construction");
        prop_assert_eq!(stats.multicast.hits, 1, "the reordered lookup must intern");
    }

    /// Healing: flap a set of links unusable, then restore them all;
    /// the multicast tier must converge back to exactly the
    /// clean-graph result for every (set, kind).
    #[test]
    fn healing_restores_the_clean_graph_result(
        (graph, source, sets, req) in scenario(),
        edges in proptest::collection::vec(0usize..10_000, 1..8)
    ) {
        let cache = GraphCache::new(Arc::clone(&graph), SchemeParams::default());
        let edge_count = graph.edge_count();
        let mut clean: Vec<_> = Vec::new();
        for set in &sets {
            for kind in MulticastKind::ALL {
                clean.push(cache.multicast(source, set, kind, req).ok()
                    .map(|g| g.as_ref().clone()));
            }
        }
        for &e in &edges {
            cache.note_loss(EdgeId::new((e % edge_count) as u32), 0.9);
        }
        // Touch the degraded state so healing has stale entries to kill.
        for set in &sets {
            let _ = cache.multicast(source, set, MulticastKind::Targeted, req);
        }
        for &e in &edges {
            cache.note_loss(EdgeId::new((e % edge_count) as u32), 0.0);
        }
        let mut healed = clean.iter();
        for set in &sets {
            for kind in MulticastKind::ALL {
                let now = cache.multicast(source, set, kind, req).ok()
                    .map(|g| g.as_ref().clone());
                prop_assert_eq!(&now, healed.next().unwrap(), "{:?} {:?}", set, kind);
            }
        }
    }
}
