//! Parameterised overlay topology generation.
//!
//! The paper evaluates dissemination graphs on a fixed 12-site overlay;
//! scaling the algorithms to 50–500 nodes needs families of synthetic
//! topologies whose shape is controlled and reproducible. This module
//! generates two such families, both placed on a kilometre plane and
//! mapped onto [`GeoPoint`]s so every distance-derived quantity can be
//! recomputed from the finished graph:
//!
//! - **ring of cliques** ([`TopologyModel::RingOfCliques`]): dense
//!   metro-style sites (full meshes) strung around a backbone ring,
//!   with two node-disjoint links between adjacent cliques so the
//!   backbone survives any single link cut;
//! - **Waxman geo-random** ([`TopologyModel::Waxman`]): the classic
//!   random-graph model where the probability of a link decays
//!   exponentially with distance, plus deterministic repair passes
//!   that join stray components and raise every node to degree ≥ 2.
//!
//! Every generated graph is **seed-deterministic** (the same
//! [`GeneratorConfig`] always yields the same graph, bit for bit) and
//! the config itself is serde round-trippable so experiments can log
//! exactly what they ran on.
//!
//! Link latencies follow the fibre model of [`crate::GeoPoint`]: 5 µs
//! per great-circle kilometre, inflated by a per-link route factor
//! drawn uniformly from `[1, fiber_factor]`, plus a fixed per-hop
//! overhead. [`LatencyModel::bounds_for_km`] exposes the exact bounds,
//! which the generator property tests assert edge by edge.

use crate::algo::disjoint::{max_disjoint, Disjointness};
use crate::algo::SearchWorkspace;
use crate::{GeoPoint, Graph, GraphBuilder, Micros, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Fibre propagation delay per kilometre, in microseconds (~0.66 c).
pub const US_PER_KM: f64 = 5.0;

/// Kilometres per degree of latitude (and of longitude at the equator).
const KM_PER_DEGREE: f64 = 111.19;

/// How link latency is derived from inter-site distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Maximum route-inflation (fibre) factor: each link's fibre route
    /// is `distance × f` for an `f` drawn uniformly from
    /// `[1, fiber_factor]`. Must be ≥ 1.
    pub fiber_factor: f64,
    /// Fixed per-hop forwarding overhead, in microseconds.
    pub hop_overhead_us: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // Matches the preset topologies' route inflation and overhead.
        LatencyModel { fiber_factor: 1.3, hop_overhead_us: 200 }
    }
}

impl LatencyModel {
    /// Latency of a link spanning `km` with route-inflation `factor`.
    fn latency(&self, km: f64, factor: f64) -> Micros {
        Micros::from_micros((km * US_PER_KM * factor).round() as u64 + self.hop_overhead_us)
    }

    /// Inclusive `[min, max]` latency bounds for a link spanning `km`:
    /// the fibre-factor envelope the generator guarantees (±1 µs of
    /// rounding slack on each side).
    pub fn bounds_for_km(&self, km: f64) -> (Micros, Micros) {
        let lo = (km * US_PER_KM).floor() as u64 + self.hop_overhead_us;
        let hi = (km * US_PER_KM * self.fiber_factor).ceil() as u64 + self.hop_overhead_us;
        (Micros::from_micros(lo), Micros::from_micros(hi))
    }
}

/// How link cost is derived from inter-site distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CostModel {
    /// Every link costs the same (the paper's unit-cost accounting,
    /// where cost counts transmissions).
    Uniform(u32),
    /// Cost grows with distance: `base + per_1000_km × ⌈km / 1000⌉` —
    /// a crude stand-in for leased-capacity pricing.
    DistanceBanded {
        /// Cost of even the shortest link.
        base: u32,
        /// Extra cost per started 1000 km band.
        per_1000_km: u32,
    },
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::Uniform(1)
    }
}

impl CostModel {
    fn cost(&self, km: f64) -> u32 {
        match *self {
            CostModel::Uniform(c) => c,
            CostModel::DistanceBanded { base, per_1000_km } => {
                base + per_1000_km * (km / 1000.0).ceil().max(0.0) as u32
            }
        }
    }
}

/// The random-graph family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologyModel {
    /// Dense metro cliques around a backbone ring. Adjacent cliques are
    /// joined by two node-disjoint links (one when cliques have a
    /// single member), so the backbone is 2-edge-connected and every
    /// pair of sites has two disjoint routes.
    RingOfCliques {
        /// Number of cliques on the ring (≥ 3).
        cliques: usize,
        /// Total node count, spread as evenly as possible over the
        /// cliques (≥ `cliques`).
        nodes: usize,
        /// Ring-circumference distance between adjacent clique
        /// centres, in kilometres (> 0).
        spacing_km: f64,
        /// Members are scattered within this radius of their clique
        /// centre, in kilometres (≥ 0).
        clique_radius_km: f64,
    },
    /// Waxman's random geometric model: sites uniform on a square,
    /// each pair linked with probability `alpha × exp(−d / beta_km)`.
    /// Two deterministic repair passes then join any disconnected
    /// components (closest pair first) and link any degree-< 2 node to
    /// its nearest non-neighbours, so the result is always connected
    /// with minimum degree 2.
    Waxman {
        /// Node count (≥ 3).
        nodes: usize,
        /// Side of the placement square, in kilometres (> 0).
        width_km: f64,
        /// Link probability at distance zero (0 < alpha ≤ 1).
        alpha: f64,
        /// Characteristic decay length of the link probability, in
        /// kilometres (> 0).
        beta_km: f64,
    },
}

/// Everything needed to regenerate a topology, serde round-trippable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Seed for every random choice the generator makes.
    pub seed: u64,
    /// The graph family and its shape parameters.
    pub model: TopologyModel,
    /// Distance → latency mapping.
    pub latency: LatencyModel,
    /// Distance → cost mapping.
    pub cost: CostModel,
}

impl GeneratorConfig {
    /// A ring-of-cliques config for roughly `nodes` sites with default
    /// metro shape: cliques of ~5 on a 500 km-spaced ring.
    pub fn ring_of_cliques(nodes: usize, seed: u64) -> Self {
        let cliques = (nodes / 5).max(3);
        GeneratorConfig {
            seed,
            model: TopologyModel::RingOfCliques {
                cliques,
                nodes: nodes.max(cliques),
                spacing_km: 500.0,
                clique_radius_km: 40.0,
            },
            latency: LatencyModel::default(),
            cost: CostModel::default(),
        }
    }

    /// A Waxman config for `nodes` sites at constant site density (the
    /// square grows with √nodes), parameterised so mean degree stays
    /// near 8 across 50–500 nodes.
    pub fn waxman(nodes: usize, seed: u64) -> Self {
        GeneratorConfig {
            seed,
            model: TopologyModel::Waxman {
                nodes: nodes.max(3),
                width_km: 85.0 * (nodes.max(3) as f64).sqrt(),
                alpha: 0.9,
                beta_km: 100.0,
            },
            latency: LatencyModel::default(),
            cost: CostModel::default(),
        }
    }

    /// Generates the topology this config describes.
    ///
    /// Deterministic: equal configs yield bit-identical graphs.
    ///
    /// # Panics
    ///
    /// Panics when a shape parameter is out of range (see
    /// [`TopologyModel`]).
    pub fn generate(&self) -> Graph {
        assert!(self.latency.fiber_factor >= 1.0, "fiber_factor must be >= 1");
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.model {
            TopologyModel::RingOfCliques { cliques, nodes, spacing_km, clique_radius_km } => {
                assert!(cliques >= 3, "a ring needs at least 3 cliques");
                assert!(nodes >= cliques, "need at least one node per clique");
                assert!(spacing_km > 0.0, "spacing_km must be positive");
                assert!(clique_radius_km >= 0.0, "clique_radius_km must be non-negative");
                generate_ring_of_cliques(
                    self,
                    &mut rng,
                    cliques,
                    nodes,
                    spacing_km,
                    clique_radius_km,
                )
            }
            TopologyModel::Waxman { nodes, width_km, alpha, beta_km } => {
                assert!(nodes >= 3, "waxman needs at least 3 nodes");
                assert!(width_km > 0.0, "width_km must be positive");
                assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
                assert!(beta_km > 0.0, "beta_km must be positive");
                generate_waxman(self, &mut rng, nodes, width_km, alpha, beta_km)
            }
        }
    }
}

/// Maps a kilometre-plane point (centred on the origin) to a pseudo
/// geo position near (0°, 0°), where one degree ≈ 111.19 km in both
/// axes, so [`GeoPoint::distance_km`] recovers plane distances to well
/// under the fibre model's rounding error.
fn plane_to_geo(x_km: f64, y_km: f64) -> GeoPoint {
    GeoPoint::new(y_km / KM_PER_DEGREE, x_km / KM_PER_DEGREE)
}

/// Shared link-insertion path: distance from the *stored* geo
/// positions (so every derived quantity is recomputable from the
/// graph), latency from the fibre model with a per-link inflation
/// draw, cost from the cost model.
fn add_generated_link(
    b: &mut GraphBuilder,
    config: &GeneratorConfig,
    rng: &mut StdRng,
    positions: &[GeoPoint],
    i: usize,
    j: usize,
) {
    let km = positions[i].distance_km(&positions[j]);
    let factor = rng.gen_range(1.0..=config.latency.fiber_factor);
    let latency = config.latency.latency(km, factor);
    let cost = config.cost.cost(km);
    b.add_link(NodeId::new(i as u32), NodeId::new(j as u32), latency, cost)
        .expect("generated links are valid");
}

fn generate_ring_of_cliques(
    config: &GeneratorConfig,
    rng: &mut StdRng,
    cliques: usize,
    nodes: usize,
    spacing_km: f64,
    clique_radius_km: f64,
) -> Graph {
    // Clique centres sit on a circle whose circumference spaces them
    // `spacing_km` apart.
    let ring_radius = spacing_km * cliques as f64 / (2.0 * std::f64::consts::PI);
    // Spread `nodes` members as evenly as possible: the first
    // `nodes % cliques` cliques get one extra.
    let base = nodes / cliques;
    let extra = nodes % cliques;
    let mut members: Vec<Vec<usize>> = Vec::with_capacity(cliques);
    let mut b = GraphBuilder::new();
    let mut positions: Vec<GeoPoint> = Vec::with_capacity(nodes);
    let mut next = 0usize;
    for c in 0..cliques {
        let size = base + usize::from(c < extra);
        let angle = 2.0 * std::f64::consts::PI * c as f64 / cliques as f64;
        let (cx, cy) = (ring_radius * angle.cos(), ring_radius * angle.sin());
        let mut ids = Vec::with_capacity(size);
        for _ in 0..size {
            // Uniform draw in the clique disc (polar with √u radius).
            let r = clique_radius_km * rng.gen_range(0.0f64..1.0).sqrt();
            let theta = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
            let p = plane_to_geo(cx + r * theta.cos(), cy + r * theta.sin());
            b.add_node_at(&format!("C{c}N{next}"), p);
            positions.push(p);
            ids.push(next);
            next += 1;
        }
        members.push(ids);
    }
    // Intra-clique full mesh.
    for ids in &members {
        for (a, &i) in ids.iter().enumerate() {
            for &j in &ids[a + 1..] {
                add_generated_link(&mut b, config, rng, &positions, i, j);
            }
        }
    }
    // Two node-disjoint links between adjacent cliques (one when a
    // clique has a single member), so the backbone ring survives any
    // single link or member failure.
    for c in 0..cliques {
        let left = &members[c];
        let right = &members[(c + 1) % cliques];
        let a1 = left[rng.gen_range(0..left.len())];
        let b1 = right[rng.gen_range(0..right.len())];
        add_generated_link(&mut b, config, rng, &positions, a1, b1);
        if left.len() > 1 && right.len() > 1 {
            let a2 = pick_other(rng, left, a1);
            let b2 = pick_other(rng, right, b1);
            add_generated_link(&mut b, config, rng, &positions, a2, b2);
        }
    }
    b.build()
}

/// Uniform member of `ids` other than `not` (caller guarantees one
/// exists).
fn pick_other(rng: &mut StdRng, ids: &[usize], not: usize) -> usize {
    loop {
        let x = ids[rng.gen_range(0..ids.len())];
        if x != not {
            return x;
        }
    }
}

fn generate_waxman(
    config: &GeneratorConfig,
    rng: &mut StdRng,
    nodes: usize,
    width_km: f64,
    alpha: f64,
    beta_km: f64,
) -> Graph {
    let mut b = GraphBuilder::new();
    let half = width_km / 2.0;
    let positions: Vec<GeoPoint> = (0..nodes)
        .map(|i| {
            let p = plane_to_geo(rng.gen_range(-half..half), rng.gen_range(-half..half));
            b.add_node_at(&format!("W{i}"), p);
            p
        })
        .collect();
    let mut linked = vec![false; nodes * nodes];
    let mut degree = vec![0usize; nodes];
    let link = |b: &mut GraphBuilder,
                rng: &mut StdRng,
                linked: &mut Vec<bool>,
                degree: &mut Vec<usize>,
                i: usize,
                j: usize| {
        add_generated_link(b, config, rng, &positions, i, j);
        linked[i * nodes + j] = true;
        linked[j * nodes + i] = true;
        degree[i] += 1;
        degree[j] += 1;
    };
    // Waxman draw per unordered pair.
    for i in 0..nodes {
        for j in (i + 1)..nodes {
            let d = positions[i].distance_km(&positions[j]);
            let p = alpha * (-d / beta_km).exp();
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                link(&mut b, rng, &mut linked, &mut degree, i, j);
            }
        }
    }
    // Repair pass 1: join components, globally closest pair first, so
    // the graph is always connected regardless of seed.
    let mut comp = UnionFind::new(nodes);
    for i in 0..nodes {
        for j in (i + 1)..nodes {
            if linked[i * nodes + j] {
                comp.union(i, j);
            }
        }
    }
    while comp.components() > 1 {
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..nodes {
            for j in (i + 1)..nodes {
                if comp.find(i) != comp.find(j) {
                    let d = positions[i].distance_km(&positions[j]);
                    if best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, i, j));
                    }
                }
            }
        }
        let (_, i, j) = best.expect("multiple components imply a cross pair");
        link(&mut b, rng, &mut linked, &mut degree, i, j);
        comp.union(i, j);
    }
    // Repair pass 2: raise every node to degree ≥ 2 (nearest
    // non-neighbour first), so disjoint-pair routing has a chance
    // everywhere.
    for i in 0..nodes {
        while degree[i] < 2 {
            let mut best: Option<(f64, usize)> = None;
            for j in 0..nodes {
                if j != i && !linked[i * nodes + j] {
                    let d = positions[i].distance_km(&positions[j]);
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, j));
                    }
                }
            }
            let Some((_, j)) = best else { break };
            link(&mut b, rng, &mut linked, &mut degree, i, j);
        }
    }
    b.build()
}

struct UnionFind {
    parent: Vec<usize>,
    components: usize,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), components: n }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
            self.components -= 1;
        }
    }

    fn components(&self) -> usize {
        self.components
    }
}

/// Picks `count` long-haul flows with two node-disjoint routes — the
/// generated-topology analogue of the presets' transcontinental flows.
///
/// Samples candidate ordered pairs deterministically from `seed`, ranks
/// the routable ones by shortest-path latency (highest first, ties
/// broken by node ids), and returns the first `count` in that ranking
/// with `max_disjoint ≥ 2`: the check runs only on the pairs the walk
/// down the ranking reaches. Returns fewer than `count` flows only when
/// the topology genuinely lacks enough disjoint-routable pairs among
/// the sampled candidates.
pub fn representative_flows(graph: &Graph, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = graph.node_count();
    if n < 2 || count == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut candidates = Vec::new();
    let attempts = (count * 20).max(64);
    for _ in 0..attempts {
        let s = NodeId::new(rng.gen_range(0..n) as u32);
        let t = NodeId::new(rng.gen_range(0..n) as u32);
        if s != t && seen.insert((s, t)) {
            candidates.push((s, t));
        }
    }
    let mut ranked = routed_pairs(graph, &candidates);
    ranked.sort_by(|a, b| (b.0, a.1, a.2).cmp(&(a.0, b.1, b.2)));
    ranked
        .into_iter()
        .filter(|&(_, s, t)| max_disjoint(graph, s, t, Disjointness::Node) >= 2)
        .take(count)
        .map(|(_, s, t)| (s, t))
        .collect()
}

/// A one-way deadline that makes every listed flow feasible with
/// `slack` headroom over its shortest path (the presets' 65 ms is
/// roughly 2× their worst shortest path), rounded up to a millisecond.
///
/// # Panics
///
/// Panics when `flows` is empty or a flow is unroutable.
pub fn feasible_deadline(graph: &Graph, flows: &[(NodeId, NodeId)], slack: f64) -> Micros {
    assert!(!flows.is_empty(), "need at least one flow to size a deadline");
    let routed = routed_pairs(graph, flows);
    assert_eq!(routed.len(), flows.len(), "deadline flows are routable");
    let worst = routed.iter().map(|&(latency, _, _)| latency).max().expect("non-empty flows");
    let us = (worst.as_micros() as f64 * slack).ceil() as u64;
    Micros::from_millis(us.div_ceil(1000))
}

/// The pairs that have a route, each with its shortest-path latency, in
/// source order: one forward search per distinct source, all on one
/// workspace. A node paired with itself has no route.
fn routed_pairs(graph: &Graph, pairs: &[(NodeId, NodeId)]) -> Vec<(Micros, NodeId, NodeId)> {
    let mut by_source = pairs.to_vec();
    by_source.sort_by_key(|&(s, _)| s);
    let mut ws = SearchWorkspace::new();
    let mut searched = None;
    let latency = |e| Some(graph.edge(e).latency.as_micros());
    by_source
        .into_iter()
        .filter_map(|(s, t)| {
            if searched != Some(s) {
                ws.search_from(graph, s, None, latency).ok()?;
                searched = Some(s);
            }
            let d = ws.distance_to(t).filter(|_| s != t)?;
            Some((Micros::from_micros(d), s, t))
        })
        .collect()
}

/// A topology selector shared by the experiment binaries: the two
/// paper presets plus the generated families, so every benchmark can
/// run `--topo {preset|ring|waxman} --nodes N` against one code path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopoSpec {
    /// The paper's 12-site North-America preset.
    NorthAmerica,
    /// The 16-site global preset.
    Global,
    /// Generated ring of cliques (see [`GeneratorConfig::ring_of_cliques`]).
    RingOfCliques {
        /// Total node count.
        nodes: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Generated Waxman graph (see [`GeneratorConfig::waxman`]).
    Waxman {
        /// Total node count.
        nodes: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl TopoSpec {
    /// Parses a CLI topology name. Accepts the preset names `us` /
    /// `preset` / `na` and `global`, and the generated families
    /// `ring` / `ring-of-cliques` and `waxman` / `geo` (which use
    /// `nodes` and `seed`).
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted names otherwise.
    pub fn parse(name: &str, nodes: usize, seed: u64) -> Result<TopoSpec, String> {
        match name {
            "us" | "preset" | "na" | "north-america" => Ok(TopoSpec::NorthAmerica),
            "global" => Ok(TopoSpec::Global),
            "ring" | "ring-of-cliques" => Ok(TopoSpec::RingOfCliques { nodes, seed }),
            "waxman" | "geo" => Ok(TopoSpec::Waxman { nodes, seed }),
            other => {
                Err(format!("unknown topology '{other}' (expected us, global, ring, or waxman)"))
            }
        }
    }

    /// True for the two fixed paper presets.
    pub fn is_preset(&self) -> bool {
        matches!(self, TopoSpec::NorthAmerica | TopoSpec::Global)
    }

    /// A short label for result files and tables.
    pub fn label(&self) -> String {
        match self {
            TopoSpec::NorthAmerica => "us".into(),
            TopoSpec::Global => "global".into(),
            TopoSpec::RingOfCliques { nodes, .. } => format!("ring-{nodes}"),
            TopoSpec::Waxman { nodes, .. } => format!("waxman-{nodes}"),
        }
    }

    /// Builds the topology.
    pub fn build(&self) -> Graph {
        match *self {
            TopoSpec::NorthAmerica => crate::presets::north_america_12(),
            TopoSpec::Global => crate::presets::global_16(),
            TopoSpec::RingOfCliques { nodes, seed } => {
                GeneratorConfig::ring_of_cliques(nodes, seed).generate()
            }
            TopoSpec::Waxman { nodes, seed } => GeneratorConfig::waxman(nodes, seed).generate(),
        }
    }

    /// The flows an experiment on this topology should measure: the
    /// presets' published flow sets, or [`representative_flows`] for
    /// generated families.
    pub fn default_flows(&self, graph: &Graph, count: usize) -> Vec<(NodeId, NodeId)> {
        match *self {
            TopoSpec::NorthAmerica => {
                let mut f = crate::presets::transcontinental_flows(graph);
                f.truncate(count);
                f
            }
            TopoSpec::Global => {
                let mut f = crate::presets::intercontinental_flows(graph);
                f.truncate(count);
                f
            }
            TopoSpec::RingOfCliques { seed, .. } | TopoSpec::Waxman { seed, .. } => {
                representative_flows(graph, count, seed ^ 0x5f5f_5f5f)
            }
        }
    }

    /// The one-way deadline matching [`TopoSpec::default_flows`]: the
    /// presets' published deadlines (65 ms US, 110 ms global), or a
    /// 2× slack [`feasible_deadline`] for generated families.
    pub fn default_deadline(&self, graph: &Graph, flows: &[(NodeId, NodeId)]) -> Micros {
        match self {
            TopoSpec::NorthAmerica => Micros::from_millis(65),
            TopoSpec::Global => Micros::from_millis(110),
            _ => feasible_deadline(graph, flows, 2.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra;

    #[test]
    fn ring_of_cliques_shape() {
        let cfg = GeneratorConfig::ring_of_cliques(50, 7);
        let g = cfg.generate();
        assert_eq!(g.node_count(), 50);
        // 10 cliques of 5: intra 10 × C(5,2) = 100 links, inter 10 × 2
        // = 20 links, each link two directed edges.
        assert_eq!(g.edge_count(), 2 * (100 + 20));
        for n in g.nodes() {
            assert!(g.out_edges(n).len() >= 2);
        }
    }

    #[test]
    fn waxman_connected_and_deterministic() {
        let cfg = GeneratorConfig::waxman(60, 11);
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        for n in a.nodes() {
            assert!(a.out_edges(n).len() >= 2, "degree repair failed at {n:?}");
            let reached = dijkstra::distances_from(&a, n, |_| true)
                .iter()
                .filter(|d| !d.is_unreachable())
                .count();
            assert_eq!(reached, a.node_count(), "waxman graph disconnected from {n:?}");
        }
    }

    #[test]
    fn latencies_respect_fiber_factor_bounds() {
        let cfg = GeneratorConfig::waxman(50, 3);
        let g = cfg.generate();
        for e in g.edges() {
            let info = g.edge(e);
            let a = g.node(info.src).position.expect("generated nodes are placed");
            let b = g.node(info.dst).position.expect("generated nodes are placed");
            let (lo, hi) = cfg.latency.bounds_for_km(a.distance_km(&b));
            assert!(
                info.latency >= lo && info.latency <= hi,
                "edge {e:?}: {} outside [{lo}, {hi}]",
                info.latency
            );
        }
    }

    #[test]
    fn cost_models_apply() {
        let mut cfg = GeneratorConfig::ring_of_cliques(30, 1);
        cfg.cost = CostModel::DistanceBanded { base: 2, per_1000_km: 3 };
        let g = cfg.generate();
        // Intra-clique links (< 1000 km) cost base + one band.
        assert!(g.edges().any(|e| g.edge(e).cost == 5));
        let uniform = GeneratorConfig::ring_of_cliques(30, 1).generate();
        assert!(uniform.edges().all(|e| uniform.edge(e).cost == 1));
    }

    #[test]
    fn config_serde_round_trip() {
        for cfg in [GeneratorConfig::ring_of_cliques(80, 5), GeneratorConfig::waxman(120, 9)] {
            let json = serde_json::to_string(&cfg).unwrap();
            let back: GeneratorConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(cfg, back);
            assert_eq!(cfg.generate(), back.generate());
        }
    }

    #[test]
    fn representative_flows_are_long_haul_and_disjoint_routable() {
        let g = GeneratorConfig::ring_of_cliques(50, 2).generate();
        let flows = representative_flows(&g, 8, 42);
        assert_eq!(flows.len(), 8);
        for &(s, t) in &flows {
            assert_ne!(s, t);
            assert!(max_disjoint(&g, s, t, Disjointness::Node) >= 2);
        }
        let deadline = feasible_deadline(&g, &flows, 2.0);
        for &(s, t) in &flows {
            let sp = dijkstra::shortest_path(&g, s, t).unwrap().latency(&g);
            assert!(sp <= deadline);
        }
    }

    #[test]
    fn topo_spec_parses_and_builds() {
        let spec = TopoSpec::parse("waxman", 50, 1).unwrap();
        assert_eq!(spec, TopoSpec::Waxman { nodes: 50, seed: 1 });
        assert!(!spec.is_preset());
        assert_eq!(spec.build().node_count(), 50);
        assert!(TopoSpec::parse("us", 0, 0).unwrap().is_preset());
        assert!(TopoSpec::parse("nope", 0, 0).is_err());
    }
}
