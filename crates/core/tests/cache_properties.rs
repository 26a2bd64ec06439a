//! Property battery for [`dg_core::GraphCache`]: after *any* sequence
//! of link flaps interleaved with lookups, every graph served from the
//! cache equals the from-scratch oracle ([`GraphCache::compute_uncached`])
//! for the current usable-link set.
//!
//! This is the proof obligation behind incremental invalidation: the
//! cache tracks, per entry, the edges whose usability the entry
//! depends on, and only recomputes entries a flap actually touches. If
//! the dependency sets were ever too small, some stale entry would
//! diverge from the oracle and these tests would catch it.

use dg_core::scheme::SchemeParams;
use dg_core::{CachedGraphKind, Flow, GraphCache, ServiceRequirement};
use dg_topology::generate::{feasible_deadline, representative_flows, GeneratorConfig};
use dg_topology::{EdgeId, Graph};
use proptest::prelude::*;
use std::sync::Arc;

/// One step of a flap/lookup interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Set a link's loss (index modulo edge count). Values straddle
    /// the 0.5 usability threshold so flips happen both ways.
    SetLoss(usize, f64),
    /// Serve a (flow, kind) from the cache and check it against the
    /// oracle (indices modulo the flow/kind counts).
    Lookup(usize, usize),
    /// Take down an edge the (flow, kind) graph served now selects
    /// (indices modulo the counts): a link whose heal may matter.
    Cut(usize, usize, usize),
    /// Bring back one of the links now down (index modulo their count).
    Heal(usize),
    /// Flush everything (routing-epoch advance).
    AdvanceEpoch,
}

/// Heal-heavy: a link brought back is what tests the dependency rule's
/// unusable side, and one cut from a served graph is one whose heal can
/// matter; lookups between them keep stale entries resident. Arms are
/// drawn uniformly, so a repeated arm is drawn twice as often.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..10_000, 0.0f64..1.0).prop_map(|(e, l)| Op::SetLoss(e, l)),
        (0usize..10_000, 0usize..10_000).prop_map(|(f, k)| Op::Lookup(f, k)),
        (0usize..10_000, 0usize..10_000).prop_map(|(f, k)| Op::Lookup(f, k)),
        (0usize..10_000, 0usize..10_000, 0usize..10_000).prop_map(|(f, k, i)| Op::Cut(f, k, i)),
        (0usize..10_000).prop_map(Op::Heal),
        (0usize..10_000).prop_map(Op::Heal),
        (0usize..50).prop_map(|_| Op::AdvanceEpoch),
    ]
}

/// A generated overlay, its sampled flows, and a feasible deadline.
fn scenario() -> impl Strategy<Value = (Arc<Graph>, Vec<Flow>, ServiceRequirement)> {
    (0usize..2, 20usize..=40, 0u64..1_000_000).prop_map(|(family, nodes, seed)| {
        let config = if family == 0 {
            GeneratorConfig::waxman(nodes, seed)
        } else {
            GeneratorConfig::ring_of_cliques(nodes, seed)
        };
        let graph = config.generate();
        let endpoints = representative_flows(&graph, 4, seed);
        assert!(!endpoints.is_empty(), "generated overlays have disjoint-routable flows");
        let deadline = feasible_deadline(&graph, &endpoints, 2.0);
        let flows = endpoints.into_iter().map(|(s, t)| Flow::new(s, t)).collect();
        (Arc::new(graph), flows, ServiceRequirement::new(deadline))
    })
}

/// Serves `(flow, kind)` from the cache and cross-checks the oracle.
/// Both sides must agree on success, and on success the graphs must be
/// identical.
fn check_lookup(
    cache: &GraphCache,
    flow: Flow,
    kind: CachedGraphKind,
    req: ServiceRequirement,
) -> Result<(), TestCaseError> {
    let cached = cache.live(flow, kind, req);
    let oracle = cache.compute_uncached(flow, kind, req);
    match (cached, oracle) {
        (Ok(c), Ok(o)) => prop_assert_eq!(c.as_ref(), &o, "{:?} {:?} diverged", flow, kind),
        (Err(_), Err(_)) => {}
        (c, o) => {
            return Err(TestCaseError::fail(format!(
                "cache/oracle disagree on feasibility for {flow:?} {kind:?}: \
                 cached={c:?} oracle={o:?}"
            )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// THE cache soundness property: under an arbitrary interleaving
    /// of loss updates, lookups, and epoch flushes, every served graph
    /// equals the from-scratch oracle for the instantaneous usable set.
    #[test]
    fn cached_graphs_always_match_the_oracle(
        (graph, flows, req) in scenario(),
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let cache = GraphCache::new(Arc::clone(&graph), SchemeParams::default());
        let edge_count = graph.edge_count();
        for op in ops {
            match op {
                Op::SetLoss(e, loss) => {
                    cache.note_loss(EdgeId::new((e % edge_count) as u32), loss);
                }
                Op::Lookup(f, k) => {
                    let flow = flows[f % flows.len()];
                    let kind = CachedGraphKind::ALL[k % CachedGraphKind::ALL.len()];
                    check_lookup(&cache, flow, kind, req)?;
                }
                Op::Cut(f, k, i) => {
                    let flow = flows[f % flows.len()];
                    let kind = CachedGraphKind::ALL[k % CachedGraphKind::ALL.len()];
                    if let Ok(served) = cache.live(flow, kind, req) {
                        cache.note_loss(served.edges()[i % served.len()], 0.9);
                    }
                }
                Op::Heal(i) => {
                    let down: Vec<EdgeId> = graph.edges().filter(|&e| !cache.is_usable(e)).collect();
                    if !down.is_empty() {
                        cache.note_loss(down[i % down.len()], 0.0);
                    }
                }
                Op::AdvanceEpoch => cache.advance_epoch(),
            }
        }
        // Final sweep: every (flow, kind) agrees with the oracle in
        // the end state, hitting entries the random walk never read.
        for &flow in &flows {
            for kind in CachedGraphKind::ALL {
                check_lookup(&cache, flow, kind, req)?;
            }
        }
    }

    /// Interning: repeated lookups with no intervening flip of a
    /// depended-on edge return the *same* `Arc` (no recomputation), and
    /// a sub-threshold loss change never invalidates anything.
    #[test]
    fn unflipped_lookups_are_interned(
        (graph, flows, req) in scenario(),
        losses in proptest::collection::vec((0usize..10_000, 0.0f64..0.49), 1..20)
    ) {
        let cache = GraphCache::new(Arc::clone(&graph), SchemeParams::default());
        let edge_count = graph.edge_count();
        let flow = flows[0];
        let first = cache.live(flow, CachedGraphKind::Robust, req)
            .expect("clean-graph robust graph is computable");
        // Sub-threshold losses: no usability flip, so no invalidation.
        for (e, loss) in losses {
            prop_assert!(!cache.note_loss(EdgeId::new((e % edge_count) as u32), loss));
        }
        let again = cache.live(flow, CachedGraphKind::Robust, req)
            .expect("still computable");
        prop_assert!(Arc::ptr_eq(&first, &again), "sub-threshold losses caused a recompute");
        prop_assert_eq!(cache.stats().live.invalidated, 0);
    }

    /// Healing: flap a set of links unusable, then restore them all;
    /// the cache must converge back to exactly the clean-graph result.
    #[test]
    fn healing_restores_the_clean_graph_result(
        (graph, flows, req) in scenario(),
        edges in proptest::collection::vec(0usize..10_000, 1..8)
    ) {
        let cache = GraphCache::new(Arc::clone(&graph), SchemeParams::default());
        let edge_count = graph.edge_count();
        let mut clean: Vec<_> = Vec::new();
        for &flow in &flows {
            for kind in CachedGraphKind::ALL {
                clean.push(cache.live(flow, kind, req).ok().map(|g| g.as_ref().clone()));
            }
        }
        for &e in &edges {
            cache.note_loss(EdgeId::new((e % edge_count) as u32), 0.9);
        }
        // Touch the degraded state so healing has stale entries to kill.
        for &flow in &flows {
            let _ = cache.live(flow, CachedGraphKind::TwoDisjoint, req);
        }
        for &e in &edges {
            cache.note_loss(EdgeId::new((e % edge_count) as u32), 0.0);
        }
        let mut healed = clean.iter();
        for &flow in &flows {
            for kind in CachedGraphKind::ALL {
                let now = cache.live(flow, kind, req).ok().map(|g| g.as_ref().clone());
                prop_assert_eq!(&now, healed.next().unwrap(), "{:?} {:?}", flow, kind);
            }
        }
    }

    /// The baseline tier is pure interning: equal (flow, deadline)
    /// keys share one `Arc`, and link flaps never touch it.
    #[test]
    fn baseline_tier_ignores_flaps(
        (graph, flows, req) in scenario(),
        flaps in proptest::collection::vec((0usize..10_000, 0.0f64..1.0), 1..20)
    ) {
        let cache = GraphCache::new(Arc::clone(&graph), SchemeParams::default());
        let edge_count = graph.edge_count();
        let flow = flows[0];
        let first = cache.baseline(flow, req).expect("flow is disjoint-routable");
        for (e, loss) in flaps {
            cache.note_loss(EdgeId::new((e % edge_count) as u32), loss);
        }
        let again = cache.baseline(flow, req).expect("baseline unaffected by flaps");
        prop_assert!(Arc::ptr_eq(&first, &again), "a flap invalidated the baseline tier");
    }
}
