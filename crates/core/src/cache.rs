//! Interned, incrementally-invalidated dissemination-graph cache.
//!
//! Precomputing dissemination graphs dominates route-setup cost once
//! overlays grow past the paper's 12 sites. [`GraphCache`] keeps three
//! tiers of precomputed results on top of the generic
//! [`dg_topology::cache::PrecomputeCache`]:
//!
//! - **Baseline bundles** ([`GraphCache::baseline`]): the four
//!   targeted-redundancy graphs of a flow, computed exactly as the
//!   schemes themselves compute them (topology-only, no link state)
//!   and interned behind an [`Arc`]. Every scheme instance for the
//!   same `(flow, deadline)` shares one computation; these entries
//!   only flush when the topology epoch advances.
//! - **Live graphs** ([`GraphCache::live`]): usability-aware variants
//!   computed over the subgraph of links whose reported loss is below
//!   the unusable threshold. Each entry records the edges it depends on
//!   (the dependency rule below); a usability flip on any of those
//!   edges — and only those — evicts it ([`GraphCache::note_loss`]).
//! - **Multicast graphs** ([`GraphCache::multicast`]): several-receiver
//!   graphs ([`MulticastKind`]) over the same usable subgraph, interned
//!   across flows by `(source, receiver set, kind, deadline)` and
//!   invalidated by the same dependency rule.
//!
//! The live and multicast tiers store the same value type but different
//! graphs — a disjoint pair against a shortest-path tree — so a
//! one-receiver multicast lookup does not alias a live one.
//!
//! # The dependency rule
//!
//! A live or multicast graph depends on the edges it **selects**, plus
//! the **unusable edges some step of its construction would have
//! used** — not on every edge that was unusable when it was computed.
//! After each usability-filtered search the construction asks the
//! workspace about each unusable edge ([`SearchWorkspace::relaxes`]):
//!
//! - the disjoint pair: could the edge's arc, priced by reduced cost
//!   against the last Bhandari round's distances, close a cheaper flow —
//!   and is a pair through it, `d(s,u) + lat + d(v,t)` beside `d(s,t)`
//!   over the full graph, no heavier than the pair's latency;
//! - a source-side continuation (aimed at the destination and stopped
//!   there): could the edge improve a distance, and reach the
//!   destination within its distance given the reach pass's distance on
//!   from the edge's head;
//! - the destination-side tree: the same, against the heaviest branch
//!   read off it (its farthest read in-neighbour of the destination,
//!   plus the link in);
//! - the multicast tree: the same, against its farthest receiver.
//!
//! An unusable link at a problem endpoint that could meet the deadline
//! is a branch its heal adds, and always a dependency; so is every receiver in-edge of a
//! [`MulticastKind::Targeted`] graph, whose problem classification reads
//! them. Two fallbacks depend on the whole unusable set: a pair taken
//! from the full topology because the usable subgraph has none, and a
//! multicast tree with a receiver the usable subgraph cuts off — any
//! heal may bring the usable route back.
//!
//! **Why it is sound.** Every search runs on tie-broken weights
//! (`latency × 2⁴² + hash(edge)`, [`tie_broken_weight`]), so each
//! optimum is unique and the cached value is a pure function of the
//! usable-edge partition. Each test above is a sufficient condition for
//! "healing this edge leaves the step's output unchanged", and healing
//! any set of such edges together moves none of the step's distances
//! (the first healed edge on any new route fails its test, so the route
//! is no better than one without it). Taking down a usable edge that no
//! step selected never changes an optimum either. So a resident entry
//! equals a fresh computation for every usable set reached without a
//! flip of one of its dependencies. The bounds are formed from latency
//! clamped as the weights clamp it ([`LATENCY_CLAMP_US`]).
//!
//! A continuation aimed at the destination stops having popped only the
//! nodes whose key — distance plus the floor on the way still to go —
//! is at most the destination's distance `d(T)`, so it leaves unreached
//! tails a plain search would have settled. An unreached tail still
//! proves its edge irrelevant: every route through the edge passes a
//! node that was reached but never popped, whose key was at least
//! `d(T)`, and since the floor bounds the rest of the route over the
//! full graph, the edge included, the route weighs at least `d(T)`. For
//! a tail that was popped the tests read final distances, and with the
//! same floor as `lb` they select exactly the edges they select after a
//! plain search ([`SearchWorkspace::relaxes`]). The pair's goal-directed
//! first round changes no dependency either: its path is the one
//! Bellman–Ford finds, and the reduced costs are priced against the
//! second round, which is Bellman–Ford as before. The
//! `cache::differential` battery checks the rule directly — healing an
//! unusable edge outside an entry's dependencies rebuilds the same
//! graph — and `cache_properties`, `multicast_properties` and
//! `flap_replay` drive flap sequences against
//! [`GraphCache::compute_uncached`] and
//! [`GraphCache::compute_multicast_uncached`] as from-scratch oracles.
//!
//! # What a construction costs
//!
//! Every construction starts from its flow's reach pass ([`Reach`]):
//! plain-latency distances over the full topology from the source and
//! to the destination. They depend on the topology alone, so the cache
//! computes each endpoint's side once and keeps it until the epoch
//! advances ([`ReachMemo`]). Deadline feasibility reads them, the
//! dependency rule's bounds read them, and they aim the searches that end
//! at the destination — the source-side continuations and the pair's
//! first round run as A* under a consistent lower bound on the way still
//! to go. In the live tier that is the distance on to the destination
//! scaled ([`weight_floor`]), since a tie-broken weight is at least its
//! clamped latency scaled. In the baseline tier, whose weights are plain
//! latency, it is the distance itself. Those weights tie, and the
//! committed results pin how the ties fall; an aimed search settles them
//! as plain Dijkstra and Bellman–Ford do
//! ([`SearchWorkspace::search_toward`],
//! [`SearchWorkspace::k_disjoint_paths_toward`]), so the bundles are the
//! ones the unaimed searches built.

use crate::dgraph::canonical_receivers;
use crate::scheme::targeted::{problem_branches, AfterSearch, Scratch, Side};
use crate::scheme::{
    build_scheme, RoutingScheme, SchemeKind, SchemeParams, StaticTwoDisjoint, TargetedGraphs,
    TargetedRedundancy,
};
use crate::{CoreError, DisseminationGraph, Flow, ServiceRequirement};
use dg_topology::algo::dijkstra::Direction;
use dg_topology::algo::reach::Reach;
use dg_topology::algo::SearchWorkspace;
use dg_topology::cache::{CacheStats, EdgeSet, PrecomputeCache};
use dg_topology::{EdgeId, Graph, Micros, NodeId, TopologyError};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Which cached dissemination graph of a flow to fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CachedGraphKind {
    /// The two-disjoint-path graph.
    TwoDisjoint,
    /// The source-problem graph.
    SourceProblem,
    /// The destination-problem graph.
    DestinationProblem,
    /// The robust (union) graph.
    Robust,
}

impl CachedGraphKind {
    /// All four kinds, in escalation order.
    pub const ALL: [CachedGraphKind; 4] = [
        CachedGraphKind::TwoDisjoint,
        CachedGraphKind::SourceProblem,
        CachedGraphKind::DestinationProblem,
        CachedGraphKind::Robust,
    ];
}

/// Which multicast construction to use (escalation order mirrors the
/// unicast targeted-redundancy modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MulticastKind {
    /// Union of the per-receiver tie-broken shortest usable paths —
    /// with unique tie-broken optima this union is a proper out-tree.
    Tree,
    /// The tree plus destination-problem-style redundancy branches
    /// grafted only at receivers with an unusable incident link.
    Targeted,
    /// The tree plus redundancy branches at *every* receiver — the
    /// multicast analogue of the unicast robust graph.
    Robust,
}

impl MulticastKind {
    /// All kinds, in escalation order.
    pub const ALL: [MulticastKind; 3] =
        [MulticastKind::Tree, MulticastKind::Targeted, MulticastKind::Robust];

    /// Short lowercase label, e.g. `"targeted"`.
    pub fn label(self) -> &'static str {
        match self {
            MulticastKind::Tree => "tree",
            MulticastKind::Targeted => "targeted",
            MulticastKind::Robust => "robust",
        }
    }
}

impl std::fmt::Display for MulticastKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Order-independent digest of a receiver set, used (together with the
/// source, kind, and deadline) as the cross-flow interning key: any
/// permutation or duplication of the same receivers digests
/// identically, so 10k flows sharing a source and receiver set hit one
/// cache entry. Collisions are guarded by comparing the stored
/// receiver set on every hit, so a (astronomically unlikely) digest
/// collision costs a recomputation, never a wrong graph.
pub fn receiver_digest(receivers: &[NodeId]) -> u64 {
    // Commutative mix: sum and xor of per-receiver hashes, finalized.
    let mut sum = 0u64;
    let mut xor = 0u64;
    let mut n = 0u64;
    for &r in receivers {
        let h = splitmix64(r.index() as u64 + 1);
        sum = sum.wrapping_add(h);
        xor ^= h.rotate_left(17);
        n += 1;
    }
    splitmix64(sum ^ xor.rotate_left(32) ^ n)
}

/// Counter snapshot across all cache tiers (see [`GraphCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct GraphCacheStats {
    /// Baseline-bundle tier counters.
    pub baseline: CacheStats,
    /// Live-graph tier counters.
    pub live: CacheStats,
    /// Multicast (cross-flow interning) tier counters.
    pub multicast: CacheStats,
    /// Live entries currently cached.
    pub live_entries: usize,
    /// Baseline bundles currently cached.
    pub baseline_entries: usize,
    /// Multicast graphs currently cached.
    pub multicast_entries: usize,
    /// Links currently past the unusable-loss threshold.
    pub unusable_edges: usize,
}

impl GraphCacheStats {
    /// Fraction of lookups served from cache across all three tiers —
    /// at many-flow scale this is the *interned share*: how much graph
    /// construction was amortised away.
    pub fn interned_share(&self) -> f64 {
        let hits = self.baseline.hits + self.live.hits + self.multicast.hits;
        let total = hits + self.baseline.misses + self.live.misses + self.multicast.misses;
        if total == 0 {
            return 0.0;
        }
        hits as f64 / total as f64
    }
}

struct Inner {
    baseline: PrecomputeCache<(Flow, Micros), TargetedGraphs>,
    live: PrecomputeCache<(Flow, CachedGraphKind, Micros), DisseminationGraph>,
    multicast: PrecomputeCache<(NodeId, u64, MulticastKind, Micros), DisseminationGraph>,
    unusable: EdgeSet,
    work: Work,
}

/// What every miss computes on, reused from one to the next under the
/// lock that serialises them anyway: search storage, and the reach
/// passes of the endpoints asked about so far.
#[derive(Default)]
struct Work {
    scratch: Scratch,
    reach: ReachMemo,
}

/// The reach passes ([`Reach`]) of the endpoints constructions have
/// asked about: each endpoint's plain-latency distances over the full
/// topology, from it as a source and to it as a destination. They
/// depend on the topology alone, so each side is computed on first need
/// and kept until the epoch advances: 8 B a node, a side, an endpoint.
#[derive(Default)]
struct ReachMemo {
    /// By node index: the distances from the node, once computed.
    from: Vec<Option<Box<[u64]>>>,
    /// By node index: the distances to the node, once computed.
    to: Vec<Option<Box<[u64]>>>,
}

impl ReachMemo {
    /// The reach pass of `src` → `dst` over `g`, either side computed on
    /// `ws` if this is its first need.
    fn reach(
        &mut self,
        ws: &mut SearchWorkspace,
        g: &Graph,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Reach<'_>, TopologyError> {
        for (sides, node, direction) in
            [(&mut self.from, src, Direction::Forward), (&mut self.to, dst, Direction::Backward)]
        {
            g.check_node(node)?;
            sides.resize_with(g.node_count(), || None);
            let side = &mut sides[node.index()];
            if side.is_none() {
                *side = Some(ws.reach_pass(g, node, direction)?.into());
            }
        }
        fn side(sides: &[Option<Box<[u64]>>], node: NodeId) -> &[u64] {
            sides[node.index()].as_deref().expect("computed above")
        }
        Ok(Reach { from_src: side(&self.from, src), to_dst: side(&self.to, dst) })
    }
}

/// Shared, thread-safe cache of precomputed dissemination graphs for
/// one topology (see the module docs for the tiers).
pub struct GraphCache {
    graph: Arc<Graph>,
    params: SchemeParams,
    unusable_loss: f64,
    /// [`tie_broken_weight`] of every edge, by edge index.
    weights: Vec<u64>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for GraphCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("GraphCache")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .field("stats", &stats)
            .finish()
    }
}

impl GraphCache {
    /// Loss rate at which a link stops being considered for live
    /// graphs: the same "a problem link is avoided, not weighted"
    /// stance the paper's dynamic schemes take, at a threshold high
    /// enough that ordinary congestion noise never flips it.
    pub const DEFAULT_UNUSABLE_LOSS: f64 = 0.5;

    /// Creates a cache for `graph` with the given scheme tunables.
    pub fn new(graph: impl Into<Arc<Graph>>, params: SchemeParams) -> Self {
        let graph = graph.into();
        GraphCache {
            weights: graph.edges().map(|e| tie_broken_weight(&graph, e)).collect(),
            graph,
            params,
            unusable_loss: Self::DEFAULT_UNUSABLE_LOSS,
            inner: Mutex::new(Inner {
                baseline: PrecomputeCache::new(),
                live: PrecomputeCache::new(),
                multicast: PrecomputeCache::new(),
                unusable: EdgeSet::new(),
                work: Work::default(),
            }),
        }
    }

    /// Overrides the unusable-loss threshold (see
    /// [`GraphCache::DEFAULT_UNUSABLE_LOSS`]).
    pub fn with_unusable_loss(mut self, threshold: f64) -> Self {
        self.unusable_loss = threshold;
        self
    }

    /// The topology this cache serves.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The scheme tunables bundles are computed with.
    pub fn params(&self) -> &SchemeParams {
        &self.params
    }

    /// The loss rate past which a link is excluded from live graphs.
    pub fn unusable_loss(&self) -> f64 {
        self.unusable_loss
    }

    /// The current topology epoch (see
    /// [`dg_topology::cache::PrecomputeCache::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().expect("cache lock").live.epoch()
    }

    /// Advances the topology epoch, flushing every tier (call when the
    /// graph itself — membership or links — changes).
    pub fn advance_epoch(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.baseline.advance_epoch();
        inner.live.advance_epoch();
        inner.multicast.advance_epoch();
        inner.work.reach = ReachMemo::default();
    }

    /// The interned baseline bundle for `flow` under `requirement`,
    /// computing it on first use. Identical to what
    /// [`TargetedRedundancy::new`] would compute.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TargetedGraphs::compute`].
    pub fn baseline(
        &self,
        flow: Flow,
        requirement: ServiceRequirement,
    ) -> Result<Arc<TargetedGraphs>, CoreError> {
        let mut inner = self.inner.lock().expect("cache lock");
        let key = (flow, requirement.deadline);
        if let Some(bundle) = inner.baseline.get(&key) {
            return Ok(bundle);
        }
        let Work { scratch, reach } = &mut inner.work;
        let reach = reach.reach(&mut scratch.ws, &self.graph, flow.source, flow.destination)?;
        let bundle = TargetedGraphs::compute_on(
            scratch,
            &self.graph,
            flow,
            requirement,
            &self.params,
            reach,
        )?;
        Ok(inner.baseline.insert(key, bundle, EdgeSet::new()))
    }

    /// Records a reported loss rate for `edge`, invalidating exactly
    /// the live and multicast entries that depend on it when (and only
    /// when) the report flips the edge across the unusable threshold.
    /// Returns whether a flip (and therefore any invalidation)
    /// happened.
    pub fn note_loss(&self, edge: EdgeId, loss_rate: f64) -> bool {
        let unusable = loss_rate >= self.unusable_loss;
        let mut inner = self.inner.lock().expect("cache lock");
        let flipped =
            if unusable { inner.unusable.insert(edge) } else { inner.unusable.remove(edge) };
        if flipped {
            inner.live.invalidate_edge(edge);
            inner.multicast.invalidate_edge(edge);
        }
        flipped
    }

    /// Whether `edge` is currently below the unusable threshold.
    pub fn is_usable(&self, edge: EdgeId) -> bool {
        !self.inner.lock().expect("cache lock").unusable.contains(edge)
    }

    /// The cached live graph of `kind` for `flow`, computing it over
    /// the currently-usable subgraph on a miss.
    ///
    /// # Errors
    ///
    /// Fails only when the *full* topology cannot provide the graph
    /// (no disjoint pair, infeasible deadline): when merely the usable
    /// subgraph is insufficient, the computation falls back to the
    /// full graph, mirroring a scheme that has no good route left and
    /// keeps its last one.
    pub fn live(
        &self,
        flow: Flow,
        kind: CachedGraphKind,
        requirement: ServiceRequirement,
    ) -> Result<Arc<DisseminationGraph>, CoreError> {
        let mut inner = self.inner.lock().expect("cache lock");
        let key = (flow, kind, requirement.deadline);
        if let Some(graph) = inner.live.get(&key) {
            return Ok(graph);
        }
        let Inner { work, unusable, .. } = &mut *inner;
        let (graph, deps) = self.compute_live(work, flow, kind, requirement, unusable)?;
        Ok(inner.live.insert(key, graph, deps))
    }

    /// From-scratch computation of the live graph of `kind` under the
    /// current usability partition, bypassing the cache — the oracle
    /// the correctness proptests compare [`GraphCache::live`] against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphCache::live`].
    pub fn compute_uncached(
        &self,
        flow: Flow,
        kind: CachedGraphKind,
        requirement: ServiceRequirement,
    ) -> Result<DisseminationGraph, CoreError> {
        let mut inner = self.inner.lock().expect("cache lock");
        let Inner { work, unusable, .. } = &mut *inner;
        self.compute_live(work, flow, kind, requirement, unusable).map(|(g, _)| g)
    }

    /// The interned multicast graph for `source` → `receivers` under
    /// `kind` and `requirement`, computing it over the currently-usable
    /// subgraph on a miss.
    ///
    /// This is the **cross-flow interning** tier: the key is
    /// `(source, receiver-set digest, kind, deadline)`, so any number
    /// of flows sharing a source and receiver set — 10k subscribers of
    /// one feed — share one precomputed graph behind one `Arc`.
    /// Receiver order and duplicates do not matter (the set is
    /// canonicalized first), and every hit re-checks the stored
    /// receiver set so a digest collision can never serve a wrong
    /// graph. Entries are dependency-tracked and invalidated by
    /// [`GraphCache::note_loss`] exactly like the unicast live tier.
    ///
    /// # Errors
    ///
    /// [`CoreError::MismatchedEndpoints`] when `receivers` is empty
    /// after dropping the source from it; otherwise fails only when
    /// the *full* topology cannot reach some receiver (the computation
    /// falls back to the full graph when merely the usable subgraph is
    /// insufficient, mirroring the live tier).
    pub fn multicast(
        &self,
        source: NodeId,
        receivers: &[NodeId],
        kind: MulticastKind,
        requirement: ServiceRequirement,
    ) -> Result<Arc<DisseminationGraph>, CoreError> {
        let canonical = canonical_receivers(source, receivers.to_vec())?;
        let key = (source, receiver_digest(&canonical), kind, requirement.deadline);
        let mut inner = self.inner.lock().expect("cache lock");
        let resident = inner.multicast.get(&key);
        if let Some(graph) = resident.as_ref().filter(|g| g.receivers() == canonical) {
            return Ok(Arc::clone(graph));
        }
        let Inner { work, unusable, .. } = &mut *inner;
        let (graph, deps) =
            self.compute_multicast(work, source, &canonical, kind, requirement, unusable)?;
        Ok(match resident {
            // Digest collision: serve the fresh computation without
            // evicting the resident entry.
            Some(_) => Arc::new(graph),
            None => inner.multicast.insert(key, graph, deps),
        })
    }

    /// From-scratch computation of the multicast graph under the
    /// current usability partition, bypassing the cache — the oracle
    /// the multicast proptests compare [`GraphCache::multicast`]
    /// against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphCache::multicast`].
    pub fn compute_multicast_uncached(
        &self,
        source: NodeId,
        receivers: &[NodeId],
        kind: MulticastKind,
        requirement: ServiceRequirement,
    ) -> Result<DisseminationGraph, CoreError> {
        let canonical = canonical_receivers(source, receivers.to_vec())?;
        let mut inner = self.inner.lock().expect("cache lock");
        let Inner { work, unusable, .. } = &mut *inner;
        self.compute_multicast(work, source, &canonical, kind, requirement, unusable)
            .map(|(g, _)| g)
    }

    /// Counter snapshot across all tiers.
    pub fn stats(&self) -> GraphCacheStats {
        let inner = self.inner.lock().expect("cache lock");
        GraphCacheStats {
            baseline: inner.baseline.stats(),
            live: inner.live.stats(),
            multicast: inner.multicast.stats(),
            live_entries: inner.live.len(),
            baseline_entries: inner.baseline.len(),
            multicast_entries: inner.multicast.len(),
            unusable_edges: inner.unusable.len(),
        }
    }

    /// Computes the live graph and its dependency set against an
    /// explicit usability partition: the edges it selects, and the
    /// unusable edges some step of it would have used (see the module
    /// docs for the rule and why it is sound).
    fn compute_live(
        &self,
        work: &mut Work,
        flow: Flow,
        kind: CachedGraphKind,
        requirement: ServiceRequirement,
        unusable: &EdgeSet,
    ) -> Result<(DisseminationGraph, EdgeSet), CoreError> {
        let g = &*self.graph;
        let (s, t) = (flow.source, flow.destination);
        let Work { scratch, reach } = work;
        let reach = reach.reach(&mut scratch.ws, g, s, t)?;
        let mut deps = EdgeSet::new();
        let mode = self.params.disjointness;
        let mut pair = |usable_only: bool| {
            let weight = |e: EdgeId| {
                (!usable_only || !unusable.contains(e)).then(|| self.weights[e.index()] as i64)
            };
            scratch.ws.k_disjoint_paths_toward(g, s, t, 2, mode, weight, to_go(reach))
        };
        let paths = match pair(true) {
            Ok(paths) => {
                // The unusable edges whose arc, admitted, could join a
                // cheaper pair: reduced cost against the last round's
                // distances, and a latency floor — a pair through
                // `(u, v)` is no lighter than the full graph's
                // `d(s,u) + lat + d(v,t)` beside `d(s,t)`.
                let pair_us: u64 =
                    paths.iter().flat_map(|p| p.edges()).map(|&e| clamped_latency(g, e)).sum();
                let ws = &scratch.ws;
                for e in unusable.iter() {
                    let info = g.edge(e);
                    let floor = clamped(reach.from_src[info.src.index()])
                        + clamped_latency(g, e)
                        + clamped(reach.to_dst[info.dst.index()])
                        + clamped(reach.to_dst[s.index()]);
                    if floor <= pair_us && ws.relaxes(g, e, self.weights[e.index()], 0) {
                        deps.insert(e);
                    }
                }
                paths
            }
            // Not enough usable disjoint routes: fall back to the full
            // topology rather than failing the flow. Any heal may bring
            // a usable pair back.
            Err(_) => {
                deps.clone_from(unusable);
                pair(false)?
            }
        };
        let mut edges: Vec<EdgeId> = paths.iter().flat_map(|p| p.edges().iter().copied()).collect();
        let sides: &[Side] = match kind {
            CachedGraphKind::TwoDisjoint => &[],
            CachedGraphKind::SourceProblem => &[Side::Source],
            CachedGraphKind::DestinationProblem => &[Side::Destination],
            CachedGraphKind::Robust => &[Side::Source, Side::Destination],
        };
        if !sides.is_empty() {
            let deadline = requirement.deadline;
            let branches = self.live_branches(
                scratch, reach, flow, sides, &edges, deadline, unusable, &mut deps,
            )?;
            edges.extend(branches);
        }
        for &e in &edges {
            deps.insert(e);
        }
        let graph = DisseminationGraph::new(g, s, t, edges)?;
        Ok((graph, deps))
    }

    /// The usability-filtered problem branches of `flow` on each of
    /// `sides` (see [`problem_branches`]), every side branching off
    /// `base`: only deadline-feasible, currently-usable edges,
    /// continuations chosen canonically (tie-broken weights). Adds to
    /// `deps` the unusable links at each side's endpoint and the
    /// unusable edges a continuation search could have taken.
    ///
    /// `reach` is the flow's reach pass: feasibility reads it, and it
    /// aims the source-side continuations at the destination.
    ///
    /// # Errors
    ///
    /// [`CoreError::DeadlineInfeasible`] when no edge can meet the
    /// deadline.
    #[allow(clippy::too_many_arguments)]
    fn live_branches(
        &self,
        scratch: &mut Scratch,
        reach: Reach<'_>,
        flow: Flow,
        sides: &[Side],
        base: &[EdgeId],
        deadline: Micros,
        unusable: &EdgeSet,
        deps: &mut EdgeSet,
    ) -> Result<Vec<EdgeId>, CoreError> {
        let g = &*self.graph;
        let Scratch { ws, feasible } = scratch;
        reach.in_time_edges(g, deadline, feasible);
        if feasible.is_empty() {
            return Err(CoreError::DeadlineInfeasible {
                source: flow.source,
                destination: flow.destination,
            });
        }
        let feasible = &*feasible;
        let weight = |e: EdgeId| {
            (feasible.contains(e) && !unusable.contains(e)).then(|| self.weights[e.index()])
        };
        let limit = self.params.problem_branch_limit;
        let floor = to_go(reach);
        let mut branches = Vec::new();
        for &side in sides {
            let (endpoint, links) = side.endpoint_links(g, flow);
            // An unusable link at the endpoint is a branch its heal adds.
            for &link in links {
                if unusable.contains(link) && feasible.contains(link) {
                    deps.insert(link);
                }
            }
            // Of the other unusable edges, those a continuation could
            // take: feasible, clear of the endpoint, and able to shorten
            // a route the search was read for. A route on from an
            // edge's head weighs at least the floor there.
            let mut heals = |ws: &SearchWorkspace, bound: u64| {
                for e in unusable.iter() {
                    let info = g.edge(e);
                    if !feasible.contains(e) || info.src == endpoint || info.dst == endpoint {
                        continue;
                    }
                    if self.could_shorten(ws, e, floor(info.dst), bound) {
                        deps.insert(e);
                    }
                }
            };
            let after_search = (!unusable.is_empty()).then_some(&mut heals as AfterSearch<'_>);
            branches.extend(problem_branches(
                ws,
                g,
                flow,
                side,
                base,
                deadline,
                limit,
                weight,
                floor,
                after_search,
            ));
        }
        Ok(branches)
    }

    /// Whether admitting the unusable edge `e` could shorten a route the
    /// workspace's last search was read for: it relaxes (see
    /// [`SearchWorkspace::relaxes`]; `lb` bounds a route on from `e`'s
    /// head) and a route through it, at `lb` beyond, is within `bound`.
    fn could_shorten(&self, ws: &SearchWorkspace, e: EdgeId, lb: u64, bound: u64) -> bool {
        let info = self.graph.edge(e);
        let w = self.weights[e.index()];
        ws.relaxes(&self.graph, e, w, lb)
            && ws
                .distance_to(info.src)
                .is_some_and(|d| d.saturating_add(w).saturating_add(lb) <= bound)
    }

    /// Computes the multicast graph and its dependency set against an
    /// explicit usability partition, by the live tier's rule: the edges
    /// it selects, and the unusable edges the tree search or a graft's
    /// searches would have used — plus, for [`MulticastKind::Targeted`],
    /// every receiver's in-edges, because the problem *classification*
    /// of a receiver reads their usability too. A receiver the usable
    /// subgraph cuts off makes it depend on every unusable edge.
    fn compute_multicast(
        &self,
        work: &mut Work,
        source: NodeId,
        receivers: &[NodeId],
        kind: MulticastKind,
        requirement: ServiceRequirement,
        unusable: &EdgeSet,
    ) -> Result<(DisseminationGraph, EdgeSet), CoreError> {
        let g = &*self.graph;
        let Work { scratch, reach } = work;
        let mut deps = EdgeSet::new();
        let usable = |e: EdgeId| !unusable.contains(e);

        // The shared tree: the tie-broken shortest usable path to every
        // receiver, all read off one search from the source. Unique
        // optima make their union a proper out-tree. Receivers the
        // usable subgraph cuts off take their path from a second tree
        // over the full graph — the live tier's "keep a route rather
        // than fail the flow" stance.
        let mut edges: Vec<EdgeId> = Vec::new();
        scratch.ws.search_from(g, source, None, |e| usable(e).then(|| self.weights[e.index()]))?;
        let cut_off: Vec<NodeId> = receivers
            .iter()
            .copied()
            .filter(|&r| !scratch.ws.append_path_to(g, r, &mut edges))
            .collect();
        if cut_off.is_empty() {
            // Only the paths to the receivers were read off the tree.
            let ws = &scratch.ws;
            let farthest = receivers.iter().filter_map(|&r| ws.distance_to(r)).max();
            let bound = farthest.unwrap_or(0);
            for e in unusable.iter().filter(|&e| self.could_shorten(ws, e, 0, bound)) {
                deps.insert(e);
            }
        } else {
            deps.clone_from(unusable);
            scratch.ws.search_from(g, source, None, |e| Some(self.weights[e.index()]))?;
            for r in cut_off {
                g.check_node(r)?;
                if !scratch.ws.append_path_to(g, r, &mut edges) {
                    return Err(TopologyError::NoRoute(source, r).into());
                }
            }
        }

        if kind != MulticastKind::Tree {
            // Branch decisions read the tree as it stood, not earlier
            // receivers' grafts, so construction order cannot leak into
            // the result.
            let tree_len = edges.len();
            for &r in receivers {
                if kind == MulticastKind::Targeted {
                    // The classification itself reads every in-edge's
                    // usability: a flip on any of them must recompute.
                    for &e in g.in_edges(r) {
                        deps.insert(e);
                    }
                    if g.in_edges(r).iter().all(|&e| usable(e)) {
                        continue;
                    }
                }
                // Destination-problem branches into this receiver. One
                // whose deadline admits no feasible edges keeps its
                // plain tree path instead of failing the whole group.
                let reach = reach.reach(&mut scratch.ws, g, source, r)?;
                let (flow, tree) = (Flow::new(source, r), &edges[..tree_len]);
                let deadline = requirement.deadline;
                if let Ok(branches) = self.live_branches(
                    scratch,
                    reach,
                    flow,
                    &[Side::Destination],
                    tree,
                    deadline,
                    unusable,
                    &mut deps,
                ) {
                    edges.extend(branches);
                }
            }
        }
        for &e in &edges {
            deps.insert(e);
        }
        let graph = DisseminationGraph::with_receivers(g, source, receivers.to_vec(), edges)?;
        Ok((graph, deps))
    }
}

/// The latency, in µs, at which [`tie_broken_weight`] clamps a link's:
/// 2²¹ − 1 µs, about 2.1 s. A longer link weighs as one this long.
const LATENCY_CLAMP_US: u64 = (1 << 21) - 1;

/// Where the latency sits in a tie-broken weight.
const LATENCY_SHIFT: u32 = 42;

/// Latency with an edge-unique tie-break:
/// `min(latency, LATENCY_CLAMP_US) × 2⁴² + hash₃₂(edge)`. Latency
/// dominates (a 1 µs difference outweighs any hash sum over paths up to
/// 1024 hops), and latency ties resolve by hash sums that virtually
/// never collide — so every internal search has a unique optimum and
/// cached results are reproducible functions of the usable-edge
/// partition.
///
/// The clamp is silent: the weight of a link longer than
/// [`LATENCY_CLAMP_US`] does not grow with its latency. So every lower
/// bound the dependency rule prices a route against is formed from
/// clamped latency ([`clamped`], [`weight_floor`]), never from a plain
/// sum of latencies.
fn tie_broken_weight(graph: &Graph, e: EdgeId) -> u64 {
    (clamped_latency(graph, e) << LATENCY_SHIFT) + (splitmix64(e.index() as u64 + 1) >> 32)
}

/// `us` clamped as a link latency is in [`tie_broken_weight`]. For a
/// plain-latency distance `D`, `clamped(D)` bounds the clamped latency
/// summed along any route of plain latency at least `D` from below: a
/// route with a link past the clamp sums to at least the clamp, one
/// without sums to its plain latency.
fn clamped(us: u64) -> u64 {
    us.min(LATENCY_CLAMP_US)
}

/// The clamped latency of `e`, in µs.
fn clamped_latency(graph: &Graph, e: EdgeId) -> u64 {
    clamped(graph.edge(e).latency.as_micros())
}

/// A lower bound on the tie-broken weight of any route whose plain
/// latency is at least `us` (see [`clamped`]).
fn weight_floor(us: u64) -> u64 {
    clamped(us) << LATENCY_SHIFT
}

/// The floor the live tier aims a search at a flow's destination by: a
/// lower bound on the tie-broken weight of any route from a node on to
/// the destination, read off the flow's reach pass. It is consistent —
/// along an edge it falls by no more than the edge weighs — because
/// plain-latency distances obey the triangle inequality and clamping a
/// sum never exceeds the sum of the clamped parts.
fn to_go(reach: Reach<'_>) -> impl Fn(NodeId) -> u64 + Copy + '_ {
    move |v| weight_floor(reach.to_dst[v.index()])
}

/// SplitMix64 finalizer — a cheap, well-mixed 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Like [`build_scheme`], but serving the shareable precomputations
/// (targeted-redundancy bundles, disjoint pairs) from `cache` instead
/// of recomputing them per scheme instance. Scheme behaviour is
/// identical; only the construction cost changes.
///
/// # Errors
///
/// Same conditions as [`build_scheme`].
pub fn build_scheme_cached(
    kind: SchemeKind,
    cache: &GraphCache,
    flow: Flow,
    requirement: ServiceRequirement,
) -> Result<Box<dyn RoutingScheme>, CoreError> {
    match kind {
        SchemeKind::TargetedRedundancy => {
            let graphs = cache.baseline(flow, requirement)?;
            Ok(Box::new(TargetedRedundancy::from_graphs(graphs, flow, cache.params())))
        }
        SchemeKind::StaticTwoDisjoint => match cache.baseline(flow, requirement) {
            Ok(graphs) => Ok(Box::new(StaticTwoDisjoint::from_graph(flow, graphs.normal.clone()))),
            // The bundle needs a feasible deadline; the plain pair
            // does not. Fall back rather than fail the flow.
            Err(_) => build_scheme(kind, cache.graph(), flow, requirement, cache.params()),
        },
        other => build_scheme(other, cache.graph(), flow, requirement, cache.params()),
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::presets;

    fn setup() -> (Graph, Flow) {
        let g = presets::north_america_12();
        let flow = Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap());
        (g, flow)
    }

    #[test]
    fn baseline_interns_and_matches_direct_construction() {
        let (g, flow) = setup();
        let req = ServiceRequirement::default();
        let params = SchemeParams::default();
        let cache = GraphCache::new(g.clone(), params);
        let a = cache.baseline(flow, req).unwrap();
        let b = cache.baseline(flow, req).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must return the interned bundle");
        assert_eq!(cache.stats().baseline.hits, 1);
        assert_eq!(cache.stats().baseline.misses, 1);

        let direct = TargetedRedundancy::new(&g, flow, req, &params).unwrap();
        for mode in [
            TargetedMode::Normal,
            TargetedMode::SourceProblem,
            TargetedMode::DestinationProblem,
            TargetedMode::Robust,
        ] {
            assert_eq!(a.for_mode(mode), direct.graph_for_mode(mode), "{mode:?} differs");
        }
    }

    use crate::scheme::TargetedMode;

    #[test]
    fn cached_schemes_behave_like_direct_ones() {
        let (g, flow) = setup();
        let req = ServiceRequirement::default();
        let params = SchemeParams::default();
        let cache = GraphCache::new(g.clone(), params);
        for kind in SchemeKind::ALL {
            let cached = build_scheme_cached(kind, &cache, flow, req).unwrap();
            let direct = build_scheme(kind, &g, flow, req, &params).unwrap();
            assert_eq!(cached.kind(), direct.kind());
            assert_eq!(cached.current(), direct.current(), "{kind} differs when cached");
        }
    }

    #[test]
    fn live_graphs_avoid_unusable_links_and_rehit() {
        let (g, flow) = setup();
        let req = ServiceRequirement::default();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let normal = cache.live(flow, CachedGraphKind::TwoDisjoint, req).unwrap();
        let again = cache.live(flow, CachedGraphKind::TwoDisjoint, req).unwrap();
        assert!(Arc::ptr_eq(&normal, &again));
        assert_eq!(cache.stats().live.hits, 1);

        // Kill one edge of the pair: the entry must be invalidated and
        // the recomputed graph must avoid the dead link.
        let dead = normal.edges()[0];
        assert!(cache.note_loss(dead, 0.9));
        assert_eq!(cache.stats().live.invalidated, 1);
        let rerouted = cache.live(flow, CachedGraphKind::TwoDisjoint, req).unwrap();
        assert!(!rerouted.contains(dead), "live graph still uses the unusable link");
        assert_eq!(
            *rerouted,
            cache.compute_uncached(flow, CachedGraphKind::TwoDisjoint, req).unwrap()
        );

        // Healing it flips back and invalidates again: the pair it left
        // was the cheaper one, so the detour depends on its return.
        assert!(cache.note_loss(dead, 0.0));
        assert_eq!(cache.stats().live.invalidated, 2);
        let healed = cache.live(flow, CachedGraphKind::TwoDisjoint, req).unwrap();
        assert_eq!(*healed, *normal);
    }

    #[test]
    fn unrelated_flap_does_not_invalidate() {
        let (g, flow) = setup();
        let req = ServiceRequirement::default();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let robust = cache.live(flow, CachedGraphKind::Robust, req).unwrap();
        // A link far from the flow (MIA's first out-edge) that the
        // robust graph does not select.
        let mia = g.node_by_name("MIA").unwrap();
        let far = g.out_edges(mia).iter().copied().find(|e| !robust.contains(*e)).unwrap();
        assert!(cache.note_loss(far, 0.9), "crossing the threshold is a flip");
        assert_eq!(cache.stats().live.invalidated, 0, "unrelated flap must not evict");
        let again = cache.live(flow, CachedGraphKind::Robust, req).unwrap();
        assert!(Arc::ptr_eq(&robust, &again));
        // And the cached value still equals the oracle under the new
        // partition.
        assert_eq!(*again, cache.compute_uncached(flow, CachedGraphKind::Robust, req).unwrap());

        // Graphs computed while it is down do not depend on it either:
        // its heal evicts nothing.
        let later = ServiceRequirement::new(Micros::from_millis(70));
        let during: Vec<_> = CachedGraphKind::ALL
            .into_iter()
            .map(|kind| cache.live(flow, kind, later).unwrap())
            .collect();
        assert!(cache.note_loss(far, 0.0));
        assert_eq!(cache.stats().live.invalidated, 0, "unrelated heal must not evict");
        for (kind, graph) in CachedGraphKind::ALL.into_iter().zip(&during) {
            assert!(Arc::ptr_eq(graph, &cache.live(flow, kind, later).unwrap()));
            assert_eq!(**graph, cache.compute_uncached(flow, kind, later).unwrap());
        }
    }

    #[test]
    fn sub_threshold_loss_never_flips() {
        let (g, flow) = setup();
        let req = ServiceRequirement::default();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let normal = cache.live(flow, CachedGraphKind::TwoDisjoint, req).unwrap();
        for e in g.edges() {
            assert!(!cache.note_loss(e, 0.3), "0.3 loss is below the default threshold");
        }
        let again = cache.live(flow, CachedGraphKind::TwoDisjoint, req).unwrap();
        assert!(Arc::ptr_eq(&normal, &again));
    }

    #[test]
    fn epoch_advance_flushes_both_tiers() {
        let (g, flow) = setup();
        let req = ServiceRequirement::default();
        let cache = GraphCache::new(g, SchemeParams::default());
        cache.baseline(flow, req).unwrap();
        cache.live(flow, CachedGraphKind::TwoDisjoint, req).unwrap();
        assert_eq!(cache.stats().baseline_entries, 1);
        assert_eq!(cache.stats().live_entries, 1);
        cache.advance_epoch();
        assert_eq!(cache.epoch(), 1);
        assert_eq!(cache.stats().baseline_entries, 0);
        assert_eq!(cache.stats().live_entries, 0);
    }

    #[test]
    fn live_two_disjoint_matches_scheme_latency_optimum() {
        // The tie-broken pair must still be latency-optimal: same
        // total latency as the untied disjoint_pair computation.
        let (g, flow) = setup();
        let req = ServiceRequirement::default();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let live = cache.live(flow, CachedGraphKind::TwoDisjoint, req).unwrap();
        let direct =
            StaticTwoDisjoint::new(&g, flow, SchemeParams::default().disjointness).unwrap();
        let lat = |dg: &DisseminationGraph| -> u64 {
            dg.edges().iter().map(|&e| g.edge(e).latency.as_micros()).sum()
        };
        assert_eq!(lat(&live), lat(direct.current()));
    }

    #[test]
    fn multicast_interns_across_receiver_orderings() {
        let (g, _) = setup();
        let req = ServiceRequirement::default();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let src = g.node_by_name("NYC").unwrap();
        let rs: Vec<NodeId> =
            ["SJC", "LAX", "MIA"].iter().map(|n| g.node_by_name(n).unwrap()).collect();
        let a = cache.multicast(src, &rs, MulticastKind::Targeted, req).unwrap();
        let shuffled = vec![rs[2], rs[0], rs[1], rs[0], src];
        let b = cache.multicast(src, &shuffled, MulticastKind::Targeted, req).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "order/dup/source differences must hit the same entry");
        assert_eq!(cache.stats().multicast.hits, 1);
        assert_eq!(cache.stats().multicast.misses, 1);
        assert_eq!(cache.stats().multicast_entries, 1);
        for &r in &rs {
            assert!(a.contains_receiver(r));
        }
        // The key's digest sees the set, not the spelling.
        assert_eq!(receiver_digest(&rs), receiver_digest(&[rs[2], rs[0], rs[1]]));
        assert_ne!(receiver_digest(&rs), receiver_digest(&rs[..1]));
    }

    #[test]
    fn multicast_invalidates_on_selected_flap_and_matches_oracle() {
        let (g, _) = setup();
        let req = ServiceRequirement::default();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let src = g.node_by_name("NYC").unwrap();
        let rs: Vec<NodeId> = ["SJC", "DEN"].iter().map(|n| g.node_by_name(n).unwrap()).collect();
        let tree = cache.multicast(src, &rs, MulticastKind::Tree, req).unwrap();
        let dead = tree.edges()[0];
        assert!(cache.note_loss(dead, 0.9));
        assert_eq!(cache.stats().multicast.invalidated, 1);
        let rerouted = cache.multicast(src, &rs, MulticastKind::Tree, req).unwrap();
        assert!(!rerouted.contains(dead), "tree still uses the unusable link");
        assert_eq!(
            *rerouted,
            cache.compute_multicast_uncached(src, &rs, MulticastKind::Tree, req).unwrap()
        );
        // Healing flips back: the edge shortens the tree's route again,
        // so the rerouted tree depends on it.
        assert!(cache.note_loss(dead, 0.0));
        assert_eq!(cache.stats().multicast.invalidated, 2);
        let healed = cache.multicast(src, &rs, MulticastKind::Tree, req).unwrap();
        assert_eq!(*healed, *tree);
    }

    #[test]
    fn targeted_multicast_grafts_branches_only_on_problem_receivers() {
        let (g, _) = setup();
        let req = ServiceRequirement::default();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let src = g.node_by_name("NYC").unwrap();
        let rs: Vec<NodeId> = ["SJC", "ATL"].iter().map(|n| g.node_by_name(n).unwrap()).collect();
        let healthy = cache.multicast(src, &rs, MulticastKind::Targeted, req).unwrap();
        let plain = cache.multicast(src, &rs, MulticastKind::Tree, req).unwrap();
        assert_eq!(healthy.edges(), plain.edges(), "no problems -> targeted is the plain tree");

        // Impair one of SJC's in-edges: SJC becomes a problem receiver
        // and gains redundancy branches; the robust variant has them
        // regardless.
        let sjc = rs[0];
        let dead = *g.in_edges(sjc).first().unwrap();
        cache.note_loss(dead, 0.9);
        let targeted = cache.multicast(src, &rs, MulticastKind::Targeted, req).unwrap();
        assert!(!targeted.contains(dead));
        let inbound =
            |mg: &DisseminationGraph| mg.edges().iter().filter(|&&e| g.edge(e).dst == sjc).count();
        assert!(
            inbound(&targeted) > 1,
            "problem receiver must gain redundant inbound edges, got {}",
            inbound(&targeted)
        );
        let robust = cache.multicast(src, &rs, MulticastKind::Robust, req).unwrap();
        assert!(inbound(&robust) > 1);
    }

    #[test]
    fn epoch_advance_flushes_multicast_tier() {
        let (g, _) = setup();
        let req = ServiceRequirement::default();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let src = g.node_by_name("NYC").unwrap();
        let rs = [g.node_by_name("SJC").unwrap()];
        cache.multicast(src, &rs, MulticastKind::Tree, req).unwrap();
        assert_eq!(cache.stats().multicast_entries, 1);
        cache.advance_epoch();
        assert_eq!(cache.stats().multicast_entries, 0);
    }

    #[test]
    fn single_receiver_tree_matches_unicast_single_path() {
        // A one-receiver tree is exactly the tie-broken shortest path
        // the live unicast tier computes for DynamicSinglePath-style
        // lookups, so `--flows 1` group runs reduce to unicast.
        let (g, flow) = setup();
        let req = ServiceRequirement::default();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let mg =
            cache.multicast(flow.source, &[flow.destination], MulticastKind::Tree, req).unwrap();
        let uni = mg.unicast_view(&g, flow.destination).unwrap();
        assert_eq!(uni.edges(), mg.edges());
        assert_eq!(mg.receivers(), &[flow.destination]);
    }

    #[test]
    fn a_link_past_the_latency_clamp_flaps_without_a_stale_graph() {
        // One-way links. The pair is S→A→T and S→B→T; the source's third
        // neighbour X reaches T only over a link past the clamp, from Y
        // or from Z, and X→Y is down. Healing X→Y moves the source-side
        // branch from X→Z→T to X→Y→T, which the search from X prices as
        // "X→Y, then at least the reach pass's distance from Y to T" —
        // 3 s plain, but a route over a 3 s link weighs as the clamp. A
        // bound formed from plain latency would call X→Y irrelevant and
        // keep the stale branch.
        let ms = Micros::from_millis;
        let mut b = dg_topology::GraphBuilder::new();
        let [s, a, bb, x, y, z, t] = ["S", "A", "B", "X", "Y", "Z", "T"].map(|n| b.add_node(n));
        let mut link = |u, v, latency| b.add_edge(u, v, latency, 1).unwrap();
        for (u, v) in [(s, a), (a, t), (s, bb), (bb, t), (s, x), (x, z)] {
            link(u, v, ms(10));
        }
        let heals = link(x, y, ms(5));
        let long = [link(y, t, ms(3_000)), link(z, t, ms(3_000))];
        let g = b.build();
        assert!(long.iter().all(|&e| g.edge(e).latency.as_micros() > LATENCY_CLAMP_US));

        let req = ServiceRequirement::new(Micros::from_secs(10));
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let flow = Flow::new(s, t);
        let groups = [vec![t], vec![y, z], vec![t, y]];
        let check = |when: &str| {
            for kind in CachedGraphKind::ALL {
                let served = cache.live(flow, kind, req).map(|g| (*g).clone());
                assert_eq!(served, cache.compute_uncached(flow, kind, req), "{kind:?} {when}");
            }
            for receivers in &groups {
                for kind in MulticastKind::ALL {
                    let served = cache.multicast(s, receivers, kind, req).map(|g| (*g).clone());
                    let oracle = cache.compute_multicast_uncached(s, receivers, kind, req);
                    assert_eq!(served, oracle, "{kind} to {receivers:?} {when}");
                }
            }
        };
        let branch_via =
            |e: EdgeId| cache.live(flow, CachedGraphKind::SourceProblem, req).unwrap().contains(e);
        assert!(cache.note_loss(heals, 0.9));
        check("with X→Y down");
        assert!(!branch_via(heals));
        assert!(cache.note_loss(heals, 0.0));
        check("after X→Y healed");
        assert!(branch_via(heals), "the healed branch is the shorter one");
        for (edge, loss) in [(long[0], 0.9), (heals, 0.9), (long[0], 0.0), (heals, 0.0)]
            .into_iter()
            .chain(long.iter().flat_map(|&e| [(e, 0.9), (e, 0.0)]))
        {
            assert!(cache.note_loss(edge, loss));
            check(&format!("after {edge:?} at loss {loss}"));
        }
    }

    #[test]
    fn interned_share_reflects_all_tiers() {
        let (g, flow) = setup();
        let req = ServiceRequirement::default();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        assert_eq!(cache.stats().interned_share(), 0.0);
        cache.multicast(flow.source, &[flow.destination], MulticastKind::Tree, req).unwrap();
        cache.multicast(flow.source, &[flow.destination], MulticastKind::Tree, req).unwrap();
        cache.multicast(flow.source, &[flow.destination], MulticastKind::Tree, req).unwrap();
        let share = cache.stats().interned_share();
        assert!((share - 2.0 / 3.0).abs() < 1e-9, "2 hits of 3 lookups, got {share}");
    }
}
