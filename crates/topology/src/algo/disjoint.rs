//! Bhandari's algorithm for minimum-total-latency disjoint path pairs.
//!
//! The dissemination-graph schemes in `dg-core` build on pairs (and in
//! the k-paths extension, larger sets) of edge- or node-disjoint paths.
//! Bhandari's algorithm finds the set of k disjoint paths whose *total*
//! latency is minimal, which can differ from greedily taking the
//! shortest path first and then routing around it.
//!
//! # Which optimum
//!
//! Several path sets can share the minimal total. Which one is returned
//! is fixed by the order in which each round's Bellman–Ford scans arcs:
//! passes over the arc list in index order (node-internal arcs first in
//! [`Disjointness::Node`] mode, then edges by id), relaxing in place,
//! an arc's predecessor replaced only by a strictly shorter route.
//! Results downstream — the committed tables, figures and golden
//! playbacks — are pinned to that choice, so the scan order is part of
//! this module's contract: a search that scans in another order (say
//! Dijkstra over reduced costs, as the tests' Suurballe reference does)
//! returns a pair of the same total latency but, on ties, not the same
//! pair. What the rounds do skip is work that cannot change anything:
//! an arc is scanned in a pass only if its tail's distance fell since
//! the arc was last scanned, which is exactly when the scan can relax.
//! The union of the paths is then split back into paths taking, at
//! every node, the lowest-numbered arc first, so the result is a
//! function of the graph, the endpoints and the weights alone. Sums are
//! checked: a route whose weight would leave `i64`'s range is out of
//! reach, never wrapped.
//!
//! A caller with a lower bound on the distance still to go may aim the
//! first round at the destination
//! ([`SearchWorkspace::k_disjoint_paths_toward`]): nothing is in the
//! solution yet, so it is a goal-directed Dijkstra search, which touches
//! a corridor of the graph rather than all of it. It still returns the
//! path the scan order picks, ties included, because that choice can be
//! read off the distances alone. Round one's arcs are scanned in this
//! order: a node is settled by the scan of its tree arc, at some (pass,
//! arc index); arc `j` out of a node settled at `(pass, i)` is due
//! again from that moment, so it is next scanned at `(pass, j)` if
//! `j > i` and at `(pass + 1, j)` otherwise; the source is settled at
//! `(0, −1)`. A node keeps the first arc that reaches it at its final
//! distance: of its tight arcs (tail distance plus weight equal to the
//! head's), the one whose scan after its tail settled comes first, and
//! that scan settles it. A Dijkstra round that saw two arcs reach a
//! node equally short replays exactly that over the tight arcs into the
//! destination, which are the arcs of its shortest routes: a
//! label-setting search over those times, which stays exact where tight
//! arcs close a cycle (zero weights, or a negative arc in a later round).
//!
//! The aimed form runs the rounds after the first as Dijkstra searches
//! too, over reduced costs, each stopped at the destination once the
//! keys equal to its distance are drained. Each takes its potential
//! from the round before: `π'(x) = π(x) + min(δ(x), δ(t))`, `δ` the
//! reduced label of that round (the aimed round's is `d + floor`, below
//! a potential of `−floor`), an untouched node's taken as `∞`. Every
//! node keyed below `δ(t)` was settled, so `π'` prices every residual
//! arc at 0 or more and the reversed path arcs at exactly 0; no round
//! needs a Bellman–Ford pass, and each replays the scan order where it
//! tied. The potentials stay within `i64`, and no sum can leave it,
//! while the heaviest arc out of each node sums to no more than
//! `i64::MAX` (every label is a simple route's weight). Latencies in µs
//! pass that test by far, and so do the cache's tie-broken weights on
//! the generated families up to 500 nodes (Waxman-500 sums to 0.57 of
//! the range, Waxman-1000 to 1.16). Where it fails, the
//! rounds after the first run as whole passes, so that an overflow is
//! met exactly where they would meet it. The free functions keep whole
//! Bellman–Ford rounds.

use crate::algo::bellman_ford::Arc;
use crate::algo::workspace::LastSearch;
use crate::algo::SearchWorkspace;
use crate::{EdgeId, Graph, NodeId, Path, TopologyError};
use std::cmp::Reverse;

/// Which resources the paths must not share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Disjointness {
    /// Paths share no directed edges.
    Edge,
    /// Paths share no nodes except source and destination (implies edge
    /// disjointness). This is the mode the paper's two-disjoint-path
    /// schemes use: node-disjoint paths survive a full site failure.
    Node,
}

/// Finds two disjoint paths of minimum total latency.
///
/// The returned pair is ordered by latency (shortest first).
///
/// # Errors
///
/// Returns [`TopologyError::InsufficientDisjointPaths`] when the graph
/// does not contain two disjoint routes, and the usual endpoint errors.
///
/// # Example
///
/// ```
/// use dg_topology::{presets, algo::disjoint::{disjoint_pair, Disjointness}};
///
/// let g = presets::north_america_12();
/// let s = g.node_by_name("JHU").unwrap();
/// let t = g.node_by_name("SEA").unwrap();
/// let (p1, p2) = disjoint_pair(&g, s, t, Disjointness::Node)?;
/// assert!(p1.is_node_disjoint(&g, &p2));
/// # Ok::<(), dg_topology::TopologyError>(())
/// ```
pub fn disjoint_pair(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    mode: Disjointness,
) -> Result<(Path, Path), TopologyError> {
    let mut paths = k_disjoint_paths(graph, src, dst, 2, mode)?;
    let second = paths.pop().expect("k_disjoint_paths returned 2 paths");
    let first = paths.pop().expect("k_disjoint_paths returned 2 paths");
    Ok((first, second))
}

/// Finds `k` mutually disjoint paths of minimum total latency.
///
/// Paths are returned sorted by latency, shortest first.
///
/// # Errors
///
/// Returns [`TopologyError::InsufficientDisjointPaths`] (with the number
/// that do exist) when fewer than `k` disjoint routes are available, and
/// [`TopologyError::NoRoute`] when `src == dst` or `k == 0`.
pub fn k_disjoint_paths(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    mode: Disjointness,
) -> Result<Vec<Path>, TopologyError> {
    k_disjoint_paths_weighted(graph, src, dst, k, mode, |e| {
        Some(graph.edge(e).latency.as_micros() as i64)
    })
}

/// Like [`k_disjoint_paths`], under a caller-supplied edge weight (in
/// microseconds); returning `None` from `weight` excludes the edge.
///
/// Dynamic disjoint-path schemes use this to pick the pair minimizing
/// total loss-penalized expected latency under current link state.
///
/// # Errors
///
/// Same conditions as [`k_disjoint_paths`].
pub fn k_disjoint_paths_weighted<W>(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    mode: Disjointness,
    weight: W,
) -> Result<Vec<Path>, TopologyError>
where
    W: Fn(EdgeId) -> Option<i64>,
{
    SearchWorkspace::new().k_disjoint_paths_weighted(graph, src, dst, k, mode, weight)
}

/// Maximum number of disjoint paths between `src` and `dst`.
///
/// Thin wrapper over [`crate::algo::maxflow::max_disjoint_paths`],
/// exposed here so callers probing feasibility before requesting paths
/// need only this module.
pub fn max_disjoint(graph: &Graph, src: NodeId, dst: NodeId, mode: Disjointness) -> usize {
    crate::algo::maxflow::max_disjoint_paths(graph, src, dst, mode)
}

/// Endpoint indices of a flow in the (possibly node-split) arc graph:
/// leave from the source's out-copy, arrive at the destination's
/// in-copy, so intermediate-node capacity 1 is enforced while the
/// endpoints stay shared.
pub(crate) fn split_endpoints(src: NodeId, dst: NodeId, mode: Disjointness) -> (usize, usize) {
    match mode {
        Disjointness::Edge => (src.index(), dst.index()),
        Disjointness::Node => (src.index() * 2 + 1, dst.index() * 2),
    }
}

/// Weight of an arc whose edge the caller excluded: it keeps its place
/// in the arc list, so arc indices map straight to edge ids, and is
/// never relaxed.
const EXCLUDED: i64 = i64::MAX;

/// The arc graph Bhandari searches, laid out so that adjacency can be
/// read off the overlay graph instead of being built: in
/// [`Disjointness::Edge`] mode arc `e` is edge `e`; in
/// [`Disjointness::Node`] mode node `v` splits into `v_in = 2v` and
/// `v_out = 2v + 1`, arc `v` is the internal `v_in → v_out` and arc
/// `n + e` is edge `e` from its tail's out-copy to its head's in-copy.
#[derive(Clone, Copy)]
struct Layout<'g> {
    graph: &'g Graph,
    mode: Disjointness,
}

impl Layout<'_> {
    fn node_count(self) -> usize {
        match self.mode {
            Disjointness::Edge => self.graph.node_count(),
            Disjointness::Node => self.graph.node_count() * 2,
        }
    }

    /// Number of node-internal arcs ahead of the edge arcs.
    fn internal_arcs(self) -> usize {
        match self.mode {
            Disjointness::Edge => 0,
            Disjointness::Node => self.graph.node_count(),
        }
    }

    /// Calls `f` with every arc of the residual graph that leaves node
    /// `x` (`outward`) or enters it (`!outward`): of the arcs laid out
    /// at `x`, those that run that way and are not in `used`, and those
    /// that run the other way and are (they run backwards).
    fn for_each_residual_arc(
        self,
        used: &[bool],
        x: usize,
        outward: bool,
        mut f: impl FnMut(usize),
    ) {
        let g = self.graph;
        // `into_x`: the arc as laid out ends at `x`.
        let mut offer = |arc: usize, into_x: bool| {
            if used[arc] == (into_x == outward) {
                f(arc);
            }
        };
        match self.mode {
            Disjointness::Edge => {
                let v = NodeId::new(x as u32);
                g.out_edges(v).iter().for_each(|e| offer(e.index(), false));
                g.in_edges(v).iter().for_each(|e| offer(e.index(), true));
            }
            Disjointness::Node => {
                let n = g.node_count();
                let v = NodeId::new((x / 2) as u32);
                if x.is_multiple_of(2) {
                    offer(x / 2, false);
                    g.in_edges(v).iter().for_each(|e| offer(n + e.index(), true));
                } else {
                    g.out_edges(v).iter().for_each(|e| offer(n + e.index(), false));
                    offer(x / 2, true);
                }
            }
        }
    }

    /// Arc `i` as laid out, before any path is flipped into it: its
    /// tail, its head and its overlay edge (`None` for a node-internal
    /// arc).
    fn arc_ends(self, i: usize) -> (usize, usize, Option<EdgeId>) {
        match i.checked_sub(self.internal_arcs()) {
            None => (i * 2, i * 2 + 1, None),
            Some(e) => {
                let edge = EdgeId::new(e as u32);
                let info = self.graph.edge(edge);
                let (from, to) = split_endpoints(info.src, info.dst, self.mode);
                (from, to, Some(edge))
            }
        }
    }
}

/// The replay's settling time (`SearchWorkspace::settled_at`) of a node
/// with no tight route on to the destination.
const UNSETTLED: u64 = u64::MAX;

/// The replay's settling time of a node with a tight route on to the
/// destination, until the replay finds it.
const SETTLING: u64 = u64::MAX - 1;

/// When a round's plain scan reaches arc `i` out of a tail settled at
/// `tail`: in the same pass if `i` comes after the arc that settled the
/// tail, else in the next (module docs). A time packs `(pass, arc index + 1)` into one
/// word, so times order as the scans do and the source, settled before
/// pass 0's first arc, is 0.
fn scan_time(tail: u64, i: usize) -> u64 {
    let (pass, after) = (tail >> 32, tail & u64::from(u32::MAX));
    let at = i as u64 + 1;
    let pass = if at > after { pass } else { pass + 1 };
    (pass << 32) | at
}

impl SearchWorkspace {
    /// [`k_disjoint_paths_weighted`] on this workspace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`k_disjoint_paths`].
    pub fn k_disjoint_paths_weighted<W>(
        &mut self,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        k: usize,
        mode: Disjointness,
        weight: W,
    ) -> Result<Vec<Path>, TopologyError>
    where
        W: Fn(EdgeId) -> Option<i64>,
    {
        self.bhandari(graph, src, dst, k, mode, weight, None::<fn(NodeId) -> u64>)
    }

    /// [`SearchWorkspace::k_disjoint_paths_weighted`] with its rounds
    /// aimed at `dst`: nothing is in the solution yet, so the residual
    /// graph has no negative arc and round one is a goal-directed
    /// Dijkstra search (A*, keyed `d + floor(v)` at both copies of a
    /// split node `v`) instead of Bellman–Ford. Each round after it is a
    /// Dijkstra search over reduced costs, its potential read off the
    /// round before, stopped at `dst` in the same way (module docs).
    ///
    /// Every weight must be non-negative and `floor` a consistent lower
    /// bound on the weight of every route on to `dst` (see
    /// [`SearchWorkspace::search_toward`]). Round one then finds a
    /// shortest path. The search goes on popping after `dst` while keys
    /// equal its distance, so every arc of a shortest route has its final
    /// distances at both ends, and then replays Bellman–Ford's scan order
    /// over those arcs (module docs) to pick the path Bellman–Ford picks.
    /// The later rounds replay it as well. The result is therefore
    /// [`SearchWorkspace::k_disjoint_paths_weighted`]'s, ties included,
    /// and so is what [`SearchWorkspace::relaxes`] answers after it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`k_disjoint_paths`].
    #[allow(clippy::too_many_arguments)]
    pub fn k_disjoint_paths_toward<W, H>(
        &mut self,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        k: usize,
        mode: Disjointness,
        weight: W,
        floor: H,
    ) -> Result<Vec<Path>, TopologyError>
    where
        W: Fn(EdgeId) -> Option<i64>,
        H: Fn(NodeId) -> u64,
    {
        self.bhandari(graph, src, dst, k, mode, weight, Some(floor))
    }

    /// Bhandari's rounds, all of them goal-directed when `floor` is
    /// given and every sum is sure to stay in range, else the first
    /// alone.
    #[allow(clippy::too_many_arguments)]
    fn bhandari<W, H>(
        &mut self,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        k: usize,
        mode: Disjointness,
        weight: W,
        floor: Option<H>,
    ) -> Result<Vec<Path>, TopologyError>
    where
        W: Fn(EdgeId) -> Option<i64>,
        H: Fn(NodeId) -> u64,
    {
        graph.check_node(src)?;
        graph.check_node(dst)?;
        if src == dst || k == 0 {
            return Err(TopologyError::NoRoute(src, dst));
        }
        let layout = Layout { graph, mode };
        let (s, t) = split_endpoints(src, dst, mode);
        self.load_arcs(layout, weight);
        self.last = LastSearch::Other;
        self.arc_overflow = false;
        // Whether the round under way, if not the first, is a Dijkstra
        // search over reduced costs.
        let mut reduced = floor.is_some() && k > 1 && self.sums_in_range(layout);
        for round in 0..k {
            let found = match &floor {
                Some(floor) if round == 0 => self.augment_toward(layout, s, t, floor),
                _ if reduced => self.augment_reduced(layout, s, t),
                _ => self.augment(layout, s, t),
            };
            if !found {
                return Err(TopologyError::InsufficientDisjointPaths {
                    requested: k,
                    available: round,
                });
            }
            if round + 1 < k {
                if reduced {
                    reduced = match &floor {
                        Some(floor) if round == 0 => self.potential_after_aimed(layout, t, floor),
                        _ => self.potential_after_reduced(t),
                    };
                }
                self.flip_path(s, t);
            }
        }
        // `arc_dist` holds the last round's distances: what `relaxes`
        // prices an excluded arc against — unless a route ran out of
        // range, which leaves them no potential to price by, or the last
        // round was the aimed first one, which stopped short of a
        // potential. The last path stays out of `arcs`, so that a
        // stopped round can be resumed on the graph it searched.
        if !self.arc_overflow && (floor.is_none() || k > 1) {
            self.last = LastSearch::Disjoint { mode, stopped: reduced };
        }

        // The solution: the arcs used, the last path's toggled.
        self.toggle_path(s, t);
        self.selected.clear();
        // Room for any union, so that a longer one later allocates nothing.
        self.selected.reserve(self.arcs.len());
        self.selected.extend((0..self.arcs.len()).filter(|&i| self.used[i]));
        self.toggle_path(s, t);
        let mut paths = decompose(graph, &mut self.selected, s, t, k, |i| layout.arc_ends(i));
        paths.sort_by_key(|p| p.latency(graph));
        Ok(paths)
    }

    /// Lays the arc list out (see [`Layout`]) under `weight`, nothing
    /// used yet.
    fn load_arcs<W>(&mut self, layout: Layout<'_>, weight: W)
    where
        W: Fn(EdgeId) -> Option<i64>,
    {
        let graph = layout.graph;
        self.arcs.clear();
        self.arcs.extend((0..layout.internal_arcs()).map(|v| Arc {
            from: v * 2,
            to: v * 2 + 1,
            weight: 0,
        }));
        self.arcs.extend(graph.edges().map(|e| {
            let info = graph.edge(e);
            let (from, to) = split_endpoints(info.src, info.dst, layout.mode);
            Arc { from, to, weight: weight(e).unwrap_or(EXCLUDED) }
        }));
        self.used.clear();
        self.used.resize(self.arcs.len(), false);
    }

    /// Whether no sum a round forms can leave `i64`'s range: the
    /// heaviest admitted edge out of each node, summed, is within it. A
    /// label is the weight of a simple route, and each node on one adds
    /// at most its heaviest arc out (a reversed path arc adds nothing),
    /// so no relaxation of any round — Bellman–Ford's included — can
    /// overflow, and a Dijkstra round over reduced costs sees the same
    /// sums whole passes would.
    fn sums_in_range(&self, layout: Layout<'_>) -> bool {
        let graph = layout.graph;
        let internal = layout.internal_arcs();
        let heaviest_out = |v: NodeId| {
            let weights = graph.out_edges(v).iter().map(|e| self.arcs[internal + e.index()].weight);
            weights.filter(|&w| w != EXCLUDED).max().unwrap_or(0).max(0)
        };
        graph.nodes().try_fold(0i64, |sum, v| sum.checked_add(heaviest_out(v))).is_some()
    }

    /// One round: Bellman–Ford from `s` over the residual graph; `false`
    /// when `t` is out of reach. `arc_prev` then holds the shortest
    /// `s → t` path, for [`SearchWorkspace::flip_path`].
    ///
    /// The scan is the plain algorithm's (whole passes over the arcs in
    /// index order, relaxing in place) minus the scans that cannot
    /// relax: an arc is due in the pass under way, or failing that the
    /// next, whenever its tail's distance falls.
    fn augment(&mut self, layout: Layout<'_>, s: usize, t: usize) -> bool {
        let nodes = layout.node_count();
        self.arc_dist.clear();
        self.arc_dist.resize(nodes, i64::MAX);
        self.arc_prev.resize(nodes, 0);
        let words = self.arcs.len().div_ceil(64);
        for due in [&mut self.scan_now, &mut self.scan_next] {
            due.clear();
            due.resize(words, 0);
        }
        let set = |due: &mut [u64], arc: usize| due[arc / 64] |= 1 << (arc % 64);

        self.arc_dist[s] = 0;
        layout.for_each_residual_arc(&self.used, s, true, |arc| set(&mut self.scan_now, arc));
        for _pass in 0..nodes.saturating_sub(1) {
            for word in 0..words {
                // Re-read after every scan: a relaxation may make a
                // later arc of this very word due.
                while self.scan_now[word] != 0 {
                    let bits = self.scan_now[word];
                    self.scan_now[word] = bits & (bits - 1);
                    let i = word * 64 + bits.trailing_zeros() as usize;
                    let arc = self.arcs[i];
                    self.pair_work.arcs_scanned += 1;
                    if arc.weight == EXCLUDED {
                        continue;
                    }
                    // A route past i64's range (a path of links past
                    // the clamp of tie-broken weights) is out of reach.
                    let Some(nd) = self.arc_dist[arc.from].checked_add(arc.weight) else {
                        self.arc_overflow = true;
                        continue;
                    };
                    if nd < self.arc_dist[arc.to] {
                        self.arc_dist[arc.to] = nd;
                        self.arc_prev[arc.to] = i;
                        layout.for_each_residual_arc(&self.used, arc.to, true, |next| {
                            let due =
                                if next > i { &mut self.scan_now } else { &mut self.scan_next };
                            set(due, next);
                        });
                    }
                }
            }
            std::mem::swap(&mut self.scan_now, &mut self.scan_next);
            if self.scan_now.iter().all(|&w| w == 0) {
                break;
            }
        }
        self.arc_dist[t] != i64::MAX
    }

    /// Round one as a goal-directed Dijkstra search over the arcs (see
    /// [`SearchWorkspace::k_disjoint_paths_toward`]): `floor` of a split
    /// node's overlay node keys the frontier (`aimed_key`), and the
    /// search stops once `t` is settled and the nodes keyed as low are
    /// popped too. Where two arcs reached a node at one distance,
    /// [`SearchWorkspace::replay_scan_order`] then picks the tree arcs
    /// Bellman–Ford would, into `arc_prev` as [`SearchWorkspace::augment`]
    /// leaves its own. Sums are checked as there: a route past i64's
    /// range is out of reach and marks the rounds as having had one.
    fn augment_toward(
        &mut self,
        layout: Layout<'_>,
        s: usize,
        t: usize,
        floor: impl Fn(NodeId) -> u64,
    ) -> bool {
        let nodes = layout.node_count();
        self.arc_dist.clear();
        self.arc_dist.resize(nodes, i64::MAX);
        self.arc_prev.resize(nodes, 0);
        // A Dijkstra round pushes at most once an arc, and once more for
        // `s`. The later rounds' and the replays' storage is sized here
        // too, whether or not a later round or a tie calls for it, so
        // that no later call allocates (the replays' stacks hold a node
        // once at most).
        for frontier in [&mut self.heap, &mut self.times] {
            frontier.clear();
            frontier.reserve(self.arcs.len() + 1);
        }
        self.settled_at.clear();
        self.settled_at.reserve(nodes);
        self.ancestors.clear();
        self.ancestors.reserve(nodes);
        self.potential.clear();
        self.potential.reserve(nodes);
        self.popped.clear();
        self.popped.reserve(nodes);
        let key = |x: usize, d: i64| aimed_key(layout, &floor, x, d);

        self.arc_dist[s] = 0;
        self.heap.push(Reverse((key(s, 0), s as u32)));
        self.pair_work.frontier_pushes += 1;
        // As in the Dijkstra loop: once `t` is settled, the nodes keyed no
        // higher are popped too, so that every node on a shortest route to
        // `t` has its final distance for the replay.
        let mut last_key = u64::MAX;
        // Whether some relaxation reached a node as short as it already
        // was. Without one, every node has a single tight in-arc, the one
        // the search took, and there is no tie for the replay to settle.
        let mut tied = false;
        while let Some(Reverse((popped, x))) = self.heap.pop() {
            if popped > last_key {
                break;
            }
            let x = x as usize;
            let d = self.arc_dist[x];
            if popped > key(x, d) {
                continue;
            }
            if x == t {
                if self.heap.peek().is_none_or(|&Reverse((next, _))| next > popped) {
                    break;
                }
                last_key = popped;
                continue;
            }
            layout.for_each_residual_arc(&self.used, x, true, |i| {
                let arc = self.arcs[i];
                self.pair_work.arcs_scanned += 1;
                if arc.weight == EXCLUDED {
                    return;
                }
                debug_assert!(arc.weight >= 0, "a goal-directed round needs weights of at least 0");
                let Some(nd) = d.checked_add(arc.weight) else {
                    self.arc_overflow = true;
                    return;
                };
                let was = self.arc_dist[arc.to];
                if nd < was {
                    self.arc_dist[arc.to] = nd;
                    self.arc_prev[arc.to] = i;
                    self.heap.push(Reverse((key(arc.to, nd), arc.to as u32)));
                    self.pair_work.frontier_pushes += 1;
                } else if nd == was {
                    tied = true;
                }
            });
        }
        if tied {
            self.replay_scan_order(layout, s, t);
        }
        self.arc_dist[t] != i64::MAX
    }

    /// The potential of round two, read off the aimed round's labels
    /// (module docs): the aimed round is a reduced one below a potential
    /// of `−h`, `h` the floor clamped at `D`, the key of `t`, so the
    /// step is [`SearchWorkspace::potential_after_reduced`]'s. Clamping
    /// keeps the floor consistent and changes no key below `D`. `false`,
    /// and the rounds left to whole passes, when `D` is past `i64`'s
    /// range (a floor above 0 at `t` itself).
    fn potential_after_aimed(
        &mut self,
        layout: Layout<'_>,
        t: usize,
        floor: impl Fn(NodeId) -> u64,
    ) -> bool {
        let to_t = aimed_key(layout, &floor, t, self.arc_dist[t]);
        let Ok(to_t) = i64::try_from(to_t) else { return false };
        self.potential.clear();
        // Within `[−D, 0]`.
        let h = |x: usize| aimed_key(layout, &floor, x, 0).min(to_t as u64) as i64;
        self.potential.extend((0..layout.node_count()).map(|x| -h(x)));
        self.potential_after_reduced(t)
    }

    /// The next round's potential, read off a reduced round's labels:
    /// `π + min(δ, δ(t))` (module docs). It is at most the distance to
    /// `t` found and at least the potential it grows from, so it stays
    /// within `i64`'s range; `false`, and whole passes, were it not to.
    fn potential_after_reduced(&mut self, t: usize) -> bool {
        let to_t = i128::from(reduced_key(&self.potential, t, self.arc_dist[t]));
        for (x, &d) in self.arc_dist.iter().enumerate() {
            let below = d != i64::MAX && i128::from(reduced_key(&self.potential, x, d)) < to_t;
            let next = if below { i128::from(d) } else { i128::from(self.potential[x]) + to_t };
            let Ok(next) = i64::try_from(next) else { return false };
            self.potential[x] = next;
        }
        true
    }

    /// A round after the first as a Dijkstra search over reduced costs
    /// against `potential`, stopped at `t` as
    /// [`SearchWorkspace::augment_toward`] stops: once `t` is settled and
    /// the keys equal to its are drained. Its frontier is left as it
    /// stopped, for [`SearchWorkspace::relaxes`] to resume. `arc_prev`
    /// then holds the path Bellman–Ford would have taken: the search's
    /// own tree arcs, or, where two arcs reached a node at one distance,
    /// those [`SearchWorkspace::replay_scan_order`] picks. Needs every sum
    /// in range ([`SearchWorkspace::sums_in_range`]).
    fn augment_reduced(&mut self, layout: Layout<'_>, s: usize, t: usize) -> bool {
        let nodes = layout.node_count();
        self.arc_dist.clear();
        self.arc_dist.resize(nodes, i64::MAX);
        self.arc_prev.resize(nodes, 0);
        self.popped.clear();
        self.popped.resize(nodes, false);
        self.heap.clear();
        self.arc_dist[s] = 0;
        self.heap.push(Reverse((reduced_key(&self.potential, s, 0), s as u32)));
        self.pair_work.frontier_pushes += 1;
        let mut last_key = u64::MAX;
        let mut tied = false;
        while let Some(&Reverse((key, x))) = self.heap.peek() {
            if key > last_key {
                break;
            }
            self.heap.pop();
            let x = x as usize;
            // A node's entries are pushed at falling keys, so its first
            // one out is its current one.
            if self.popped[x] {
                continue;
            }
            if x == t {
                last_key = key;
            }
            tied |= self.settle(layout, x);
        }
        if self.arc_dist[t] == i64::MAX {
            return false;
        }
        if tied {
            self.replay_scan_order(layout, s, t);
        }
        true
    }

    /// Settles `x` in a reduced round: relaxes every residual arc out
    /// of it. `true` when one reached a node exactly as short as it
    /// already was.
    fn settle(&mut self, layout: Layout<'_>, x: usize) -> bool {
        self.popped[x] = true;
        let d = self.arc_dist[x];
        let mut tied = false;
        layout.for_each_residual_arc(&self.used, x, true, |i| {
            let arc = self.arcs[i];
            self.pair_work.arcs_scanned += 1;
            if arc.weight == EXCLUDED {
                return;
            }
            // In range: `sums_in_range`.
            let nd = d + arc.weight;
            let was = self.arc_dist[arc.to];
            if nd < was {
                self.arc_dist[arc.to] = nd;
                self.arc_prev[arc.to] = i;
                let key = reduced_key(&self.potential, arc.to, nd);
                self.heap.push(Reverse((key, arc.to as u32)));
                self.pair_work.frontier_pushes += 1;
            } else if nd == was {
                tied = true;
            }
        });
        tied
    }

    /// [`SearchWorkspace::relaxes`] after a stopped reduced round, for
    /// the arc `from → to` at weight `w`: what whole passes answer (an
    /// end out of reach, or `d(from) + w ≤ d(to)`), resuming the search
    /// one settled node at a time until the bounds decide it. An
    /// unsettled node's distance is at least its potential plus the
    /// frontier's least key (reduced costs are never negative), and at
    /// most its tentative label; a settled one's is its label.
    pub(super) fn resumed_relaxes(
        &mut self,
        graph: &Graph,
        mode: Disjointness,
        from: usize,
        to: usize,
        w: u64,
    ) -> bool {
        let layout = Layout { graph, mode };
        let w = i128::from(w);
        loop {
            let (tail, head) = (self.arc_dist[from], self.arc_dist[to]);
            let Some(&Reverse((least, _))) = self.heap.peek() else {
                // Exhausted: every label is final, and `i64::MAX` out of
                // reach.
                return tail == i64::MAX
                    || head == i64::MAX
                    || i128::from(tail) + w <= i128::from(head);
            };
            let below = |x: usize| match self.popped[x] {
                true => i128::from(self.arc_dist[x]),
                false => i128::from(least) + i128::from(self.potential[x]),
            };
            if tail != i64::MAX && i128::from(tail) + w <= below(to) {
                return true;
            }
            if tail != i64::MAX && head != i64::MAX && i128::from(head) < below(from) + w {
                return false;
            }
            while let Some(Reverse((_, x))) = self.heap.pop() {
                if !self.popped[x as usize] {
                    self.settle(layout, x as usize);
                    break;
                }
            }
        }
    }

    /// Bellman–Ford's tree arcs on the shortest routes from `s` to `t`,
    /// replayed from a Dijkstra round's final distances (module docs,
    /// "Which optimum") as a label-setting search over the times the
    /// plain round would settle each node at: first the nodes with a
    /// tight route on to `t`, walked back from it, and then, from `s`,
    /// each of them settled by the tight arc from one of them that would
    /// be scanned first. A node's time is above its tail's, so the search
    /// settles them in time order however their tight arcs cycle (a
    /// negative arc, or zero weights, can close a cycle). Every tail of a
    /// tight arc into a node of final distance has its final distance
    /// too, so only final labels are read. The arcs land in `arc_prev`.
    fn replay_scan_order(&mut self, layout: Layout<'_>, s: usize, t: usize) {
        if self.arc_dist[t] == i64::MAX {
            return;
        }
        let tight =
            |tail: i64, w: i64, head: i64| w != EXCLUDED && tail.checked_add(w) == Some(head);
        self.settled_at.clear();
        self.settled_at.resize(layout.node_count(), UNSETTLED);
        self.settled_at[t] = SETTLING;
        self.ancestors.push(t as u32);
        while let Some(x) = self.ancestors.pop() {
            let x = x as usize;
            let d = self.arc_dist[x];
            layout.for_each_residual_arc(&self.used, x, false, |i| {
                let arc = self.arcs[i];
                let from = arc.from;
                if self.settled_at[from] == UNSETTLED && tight(self.arc_dist[from], arc.weight, d) {
                    self.settled_at[from] = SETTLING;
                    self.ancestors.push(from as u32);
                }
            });
        }

        self.settled_at[s] = 0;
        self.times.clear();
        self.times.push(Reverse((0, s as u32)));
        while let Some(Reverse((time, x))) = self.times.pop() {
            let x = x as usize;
            if time > self.settled_at[x] {
                continue;
            }
            if x == t {
                break;
            }
            let d = self.arc_dist[x];
            layout.for_each_residual_arc(&self.used, x, true, |i| {
                let arc = self.arcs[i];
                let (at, was) = (scan_time(time, i), self.settled_at[arc.to]);
                if was != UNSETTLED && at < was && tight(d, arc.weight, self.arc_dist[arc.to]) {
                    self.settled_at[arc.to] = at;
                    self.arc_prev[arc.to] = i;
                    self.times.push(Reverse((at, arc.to as u32)));
                }
            });
        }
    }

    /// Flips the path the round just found from `s` to `t` (read back
    /// along `arc_prev`) into the arc list: an unused arc joins the
    /// solution and now runs backwards at negated weight, a used one
    /// leaves it.
    fn flip_path(&mut self, s: usize, t: usize) {
        let mut at = t;
        while at != s {
            let i = self.arc_prev[at];
            let arc = &mut self.arcs[i];
            at = arc.from;
            *arc = Arc { from: arc.to, to: arc.from, weight: -arc.weight };
            self.used[i] = !self.used[i];
        }
    }

    /// Toggles, in `used` alone, whether the arcs of the path the round
    /// just found are in the solution: the last round's path, which is
    /// never flipped into the arc list.
    fn toggle_path(&mut self, s: usize, t: usize) {
        let mut at = t;
        while at != s {
            let i = self.arc_prev[at];
            at = self.arcs[i].from;
            self.used[i] = !self.used[i];
        }
    }
}

/// Round one's key of node `x` of the arc graph at distance `d`: `d`
/// plus `floor` of its overlay node. Round one's distances are sums of
/// non-negative weights.
fn aimed_key(layout: Layout<'_>, floor: impl Fn(NodeId) -> u64, x: usize, d: i64) -> u64 {
    let v = match layout.mode {
        Disjointness::Edge => x,
        Disjointness::Node => x / 2,
    };
    (d as u64).saturating_add(floor(NodeId::new(v as u32)))
}

/// A reduced round's key of node `x` at distance `d`: its reduced
/// distance `d − π(x)`. A potential is at most the distance and at
/// least `−i64::MAX`, so the key is within `u64`.
fn reduced_key(potential: &[i64], x: usize, d: i64) -> u64 {
    (i128::from(d) - i128::from(potential[x])) as u64
}

/// Splits the union of `k` arc-disjoint `s → t` paths back into paths.
///
/// `selected` holds the union's arc indices in ascending order and
/// `arc` gives an arc's tail, head and overlay edge (`None` for a
/// node-internal arc). At every node the lowest-numbered arc still
/// unclaimed is taken, so the split is a function of the union alone.
pub(crate) fn decompose(
    graph: &Graph,
    selected: &mut Vec<usize>,
    s: usize,
    t: usize,
    k: usize,
    arc: impl Fn(usize) -> (usize, usize, Option<EdgeId>),
) -> Vec<Path> {
    let mut paths = Vec::with_capacity(k);
    for _ in 0..k {
        let mut edges = Vec::new();
        let mut at = s;
        while at != t {
            let next = selected
                .iter()
                .position(|&i| arc(i).0 == at)
                .expect("balanced degrees guarantee an out-arc");
            let (_, head, edge) = arc(selected.remove(next));
            edges.extend(edge);
            at = head;
        }
        paths.push(Path::new(graph, edges).expect("decomposed arcs form a path"));
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Micros};
    use proptest::prelude::{prop_assert_eq, TestCaseError};

    /// Two vertex-disjoint routes A->Z: via M1 and via M2, plus a tempting
    /// shortcut M1->M2 that a greedy shortest-path-first approach would
    /// take and thereby block the second path.
    fn trap() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let m1 = b.add_node("M1");
        let m2 = b.add_node("M2");
        let z = b.add_node("Z");
        b.add_link(a, m1, Micros::from_millis(1), 1).unwrap();
        b.add_link(m1, m2, Micros::from_millis(1), 1).unwrap();
        b.add_link(m2, z, Micros::from_millis(1), 1).unwrap();
        b.add_link(a, m2, Micros::from_millis(10), 1).unwrap();
        b.add_link(m1, z, Micros::from_millis(10), 1).unwrap();
        b.build()
    }

    #[test]
    fn survives_greedy_trap() {
        let g = trap();
        let a = g.node_by_name("A").unwrap();
        let z = g.node_by_name("Z").unwrap();
        // Greedy would take A-M1-M2-Z (3ms) and then fail to find a
        // node-disjoint second path; Bhandari must find the optimal pair
        // A-M1-Z + A-M2-Z (total 22ms).
        let (p1, p2) = disjoint_pair(&g, a, z, Disjointness::Node).unwrap();
        assert!(p1.is_node_disjoint(&g, &p2));
        let total = p1.latency(&g) + p2.latency(&g);
        assert_eq!(total, Micros::from_millis(22));
    }

    #[test]
    fn pair_is_ordered_by_latency() {
        let g = trap();
        let a = g.node_by_name("A").unwrap();
        let z = g.node_by_name("Z").unwrap();
        let (p1, p2) = disjoint_pair(&g, a, z, Disjointness::Edge).unwrap();
        assert!(p1.latency(&g) <= p2.latency(&g));
    }

    #[test]
    fn edge_mode_allows_shared_nodes() {
        // A -> B -> Z twice over parallel-ish routes that share node B is
        // impossible with simple graphs; instead verify edge mode finds a
        // pair where node mode cannot.
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let hub = b.add_node("H");
        let x = b.add_node("X");
        let y = b.add_node("Y");
        let z = b.add_node("Z");
        // Routes: A-X-H-Z and A-Y-H-Z share only node H.
        b.add_link(a, x, Micros::from_millis(1), 1).unwrap();
        b.add_link(x, hub, Micros::from_millis(1), 1).unwrap();
        b.add_link(a, y, Micros::from_millis(1), 1).unwrap();
        b.add_link(y, hub, Micros::from_millis(1), 1).unwrap();
        b.add_link(hub, z, Micros::from_millis(1), 1).unwrap();
        let g = b.build();
        assert!(disjoint_pair(&g, a, z, Disjointness::Edge).is_err());
        assert_eq!(
            disjoint_pair(&g, a, z, Disjointness::Node),
            Err(TopologyError::InsufficientDisjointPaths { requested: 2, available: 1 })
        );
    }

    #[test]
    fn reports_available_count() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let m = b.add_node("M");
        let z = b.add_node("Z");
        b.add_link(a, m, Micros::from_millis(1), 1).unwrap();
        b.add_link(m, z, Micros::from_millis(1), 1).unwrap();
        let g = b.build();
        assert_eq!(
            k_disjoint_paths(&g, a, z, 3, Disjointness::Edge),
            Err(TopologyError::InsufficientDisjointPaths { requested: 3, available: 1 })
        );
    }

    #[test]
    fn preset_supports_pairs_for_all_transcontinental_flows() {
        let g = crate::presets::north_america_12();
        for (s, t) in crate::presets::transcontinental_flows(&g) {
            let (p1, p2) = disjoint_pair(&g, s, t, Disjointness::Node)
                .unwrap_or_else(|e| panic!("{} -> {}: {e}", g.node(s).name, g.node(t).name));
            assert!(p1.is_node_disjoint(&g, &p2));
            assert!(p1.is_edge_disjoint(&p2));
            assert_eq!(p1.source(), s);
            assert_eq!(p2.destination(), t);
        }
    }

    #[test]
    fn filtered_avoids_banned_edges() {
        let g = trap();
        let a = g.node_by_name("A").unwrap();
        let m1 = g.node_by_name("M1").unwrap();
        let z = g.node_by_name("Z").unwrap();
        let banned = g.edge_between(a, m1).unwrap();
        let latency = |e| (e != banned).then(|| g.edge(e).latency.as_micros() as i64);
        let result = k_disjoint_paths_weighted(&g, a, z, 2, Disjointness::Node, latency);
        // Without A->M1 only one node-disjoint route remains.
        assert_eq!(
            result,
            Err(TopologyError::InsufficientDisjointPaths { requested: 2, available: 1 })
        );
    }

    #[test]
    fn rejects_degenerate_requests() {
        let g = trap();
        let a = g.node_by_name("A").unwrap();
        assert!(k_disjoint_paths(&g, a, a, 2, Disjointness::Edge).is_err());
        let z = g.node_by_name("Z").unwrap();
        assert!(k_disjoint_paths(&g, a, z, 0, Disjointness::Edge).is_err());
    }

    #[test]
    fn three_paths_when_available() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let z = b.add_node("Z");
        let mids: Vec<_> = (0..3).map(|i| b.add_node(&format!("M{i}"))).collect();
        for (i, &m) in mids.iter().enumerate() {
            let w = Micros::from_millis(1 + i as u64);
            b.add_link(a, m, w, 1).unwrap();
            b.add_link(m, z, w, 1).unwrap();
        }
        let g = b.build();
        let paths = k_disjoint_paths(&g, a, z, 3, Disjointness::Node).unwrap();
        assert_eq!(paths.len(), 3);
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(paths[i].is_node_disjoint(&g, &paths[j]));
            }
        }
        // Sorted by latency.
        assert!(paths[0].latency(&g) <= paths[1].latency(&g));
        assert!(paths[1].latency(&g) <= paths[2].latency(&g));
    }

    /// S -> {A, B} -> M -> {C, D} -> T, every link 1 ms: one pair of
    /// edge-disjoint routes as a union, four ways to split it at M.
    fn crossing() -> Graph {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = ["S", "A", "B", "M", "C", "D", "T"].map(|n| b.add_node(n)).to_vec();
        let [s, a, bb, m, c, d, t] = ids[..] else { unreachable!() };
        for (u, v) in [(s, a), (s, bb), (a, m), (bb, m), (m, c), (m, d), (c, t), (d, t)] {
            b.add_link(u, v, Micros::from_millis(1), 1).unwrap();
        }
        b.build()
    }

    #[test]
    fn two_hundred_calls_one_answer() {
        let g = crossing();
        let (s, t) = (g.node_by_name("S").unwrap(), g.node_by_name("T").unwrap());
        let first = disjoint_pair(&g, s, t, Disjointness::Edge).unwrap();
        for _ in 0..200 {
            assert_eq!(disjoint_pair(&g, s, t, Disjointness::Edge).unwrap(), first);
        }
        // Node mode: the trap's two routes tie at 11 ms, and a stable
        // sort keeps whichever the split produced first in front.
        let g = trap();
        let (a, z) = (g.node_by_name("A").unwrap(), g.node_by_name("Z").unwrap());
        let first = disjoint_pair(&g, a, z, Disjointness::Node).unwrap();
        assert_eq!(first.0.latency(&g), first.1.latency(&g));
        for _ in 0..200 {
            assert_eq!(disjoint_pair(&g, a, z, Disjointness::Node).unwrap(), first);
        }
    }

    /// Flows whose optimum is tied and which a search in another scan
    /// order resolves differently (see the module docs): their pairs as
    /// the committed results have them.
    #[test]
    fn tied_preset_pairs_stay_as_pinned() {
        let g = crate::presets::north_america_12();
        let bos = g.node_by_name("BOS").unwrap();
        for (src, first, second) in [
            ("DEN", "DEN -> CHI -> BOS", "DEN -> DFW -> ATL -> NYC -> BOS"),
            ("LAX", "LAX -> DEN -> CHI -> BOS", "LAX -> ATL -> NYC -> BOS"),
            ("SJC", "SJC -> DEN -> CHI -> BOS", "SJC -> DFW -> ATL -> NYC -> BOS"),
            ("SEA", "SEA -> CHI -> BOS", "SEA -> DEN -> DFW -> ATL -> NYC -> BOS"),
        ] {
            let s = g.node_by_name(src).unwrap();
            let (p1, p2) = disjoint_pair(&g, s, bos, Disjointness::Node).unwrap();
            assert_eq!((p1.display(&g).as_str(), p2.display(&g).as_str()), (first, second));
        }
    }

    #[test]
    fn a_route_past_the_range_of_the_sums_is_out_of_reach() {
        // A→B→Z weighs more than i64 holds; A→C→Z does not.
        let mut b = GraphBuilder::new();
        let [a, bb, c, z] = ["A", "B", "C", "Z"].map(|n| b.add_node(n));
        for (u, v) in [(a, bb), (bb, z), (a, c), (c, z)] {
            b.add_edge(u, v, Micros::from_millis(1), 1).unwrap();
        }
        let g = b.build();
        let heavy = |e: EdgeId| match g.edge(e).src == bb || g.edge(e).dst == bb {
            true => Some(i64::MAX / 2 + 1),
            false => Some(1),
        };
        let mut ws = SearchWorkspace::new();
        let one = ws.k_disjoint_paths_weighted(&g, a, z, 1, Disjointness::Edge, heavy).unwrap();
        assert_eq!(one[0].display(&g), "A -> C -> Z");
        assert_eq!(
            ws.k_disjoint_paths_weighted(&g, a, z, 2, Disjointness::Node, heavy),
            Err(TopologyError::InsufficientDisjointPaths { requested: 2, available: 1 })
        );
        // Nor can the rounds price an excluded edge against a potential
        // that some route ran out of.
        ws.k_disjoint_paths_weighted(&g, a, z, 1, Disjointness::Edge, heavy).unwrap();
        assert!(g.edges().all(|e| ws.relaxes(&g, e, 1, 0)));
    }

    /// The algorithm as it stood before the workspace: a fresh residual
    /// arc list per round, whole Bellman–Ford passes over it. Returns
    /// the union of the paths as sorted edge ids.
    fn reference_union<W>(
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        k: usize,
        mode: Disjointness,
        weight: W,
    ) -> Result<Vec<EdgeId>, usize>
    where
        W: Fn(EdgeId) -> Option<i64>,
    {
        use crate::algo::bellman_ford::ArcList;
        use crate::algo::suurballe::build_base;
        let base = build_base(graph, mode, &weight);
        let (s, t) = split_endpoints(src, dst, mode);
        let mut used = std::collections::BTreeSet::new();
        for round in 0..k {
            let arcs = base
                .arcs
                .iter()
                .enumerate()
                .map(|(i, a)| match used.contains(&i) {
                    true => Arc { from: a.to, to: a.from, weight: -a.weight },
                    false => Arc { from: a.from, to: a.to, weight: a.weight },
                })
                .collect();
            let residual = ArcList { node_count: base.node_count, arcs };
            let path = residual.shortest_path(s, t).ok_or(round)?;
            for i in path {
                if !used.remove(&i) {
                    used.insert(i);
                }
            }
        }
        let mut edges: Vec<EdgeId> = used.iter().filter_map(|&i| base.arcs[i].edge).collect();
        edges.sort();
        Ok(edges)
    }

    /// A random graph whose latencies are small integers, so equal
    /// totals — and with them the scan-order rule — decide most cases.
    fn tied_graph(rng: &mut u64) -> Graph {
        let mut next = |bound: u64| {
            *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (*rng >> 33) % bound
        };
        let n = 4 + next(9) as usize;
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(&format!("N{i}"))).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                if next(100) < 45 {
                    let ms = Micros::from_millis(1 + next(3));
                    b.add_link(nodes[i], nodes[j], ms, 1).unwrap();
                }
            }
        }
        b.build()
    }

    /// The sorted union of `paths`' edges.
    fn union_of(paths: &[Path]) -> Vec<EdgeId> {
        let mut edges: Vec<EdgeId> = paths.iter().flat_map(|p| p.edges().iter().copied()).collect();
        edges.sort();
        edges
    }

    /// Holds `ours` to [`reference_union`]'s answer for the same request
    /// of `k` paths: unions that are `same`, or a failure in the same
    /// round. Returns the paths, if there are any.
    fn against_reference(
        ours: Result<Vec<Path>, TopologyError>,
        theirs: Result<Vec<EdgeId>, usize>,
        k: usize,
        at: &str,
        same: impl Fn(&[EdgeId], &[EdgeId]) -> bool,
    ) -> Option<Vec<Path>> {
        match (ours, theirs) {
            (Ok(paths), Ok(union)) => {
                let ours = union_of(&paths);
                assert!(same(&ours, &union), "{at}: {ours:?} / {union:?}");
                Some(paths)
            }
            (
                Err(TopologyError::InsufficientDisjointPaths { requested, available }),
                Err(round),
            ) => {
                assert_eq!((requested, available), (k, round), "{at}");
                None
            }
            (ours, theirs) => panic!("{at}: {ours:?} / {theirs:?}"),
        }
    }

    #[test]
    fn rounds_on_the_workspace_match_whole_passes() {
        let mut rng = 0x2017u64;
        let mut ws = SearchWorkspace::new();
        let mut found = 0;
        for case in 0..400u64 {
            let g = tied_graph(&mut rng);
            let excluded = case % 7;
            let weight = |e: EdgeId| {
                (excluded == 0 || e.index() as u64 % 7 != excluded)
                    .then(|| g.edge(e).latency.as_micros() as i64)
            };
            let (s, t) = (NodeId::new(0), NodeId::new(g.node_count() as u32 - 1));
            for mode in [Disjointness::Edge, Disjointness::Node] {
                for k in 1..=3 {
                    let ours = ws.k_disjoint_paths_weighted(&g, s, t, k, mode, weight);
                    let theirs = reference_union(&g, s, t, k, mode, weight);
                    let at = format!("case {case} {mode:?} k={k}");
                    found += usize::from(
                        against_reference(ours, theirs, k, &at, <[EdgeId]>::eq).is_some(),
                    );
                }
            }
        }
        assert!(found > 400, "too few routable cases to mean anything: {found}");
    }

    #[test]
    fn an_aimed_first_round_matches_whole_passes_under_unique_weights() {
        use crate::algo::dijkstra::Direction;
        let mut rng = 0x2026u64;
        let mut ws = SearchWorkspace::new();
        let (mut found, mut priced) = (0, 0);
        for case in 0..400u64 {
            let g = tied_graph(&mut rng);
            let excluded = case % 7;
            let admitted = |e: EdgeId| excluded == 0 || e.index() as u64 % 7 != excluded;
            // Latency first, a distinct 32-bit hash of the edge after it:
            // every optimum unique.
            let hash = |e: EdgeId| (e.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            let weight_of = |e: EdgeId| ((g.edge(e).latency.as_micros() << 32) + hash(e)) as i64;
            let weight = |e: EdgeId| admitted(e).then(|| weight_of(e));
            let (s, t) = (NodeId::new(0), NodeId::new(g.node_count() as u32 - 1));
            // The floor: plain latency on to `t` over the whole graph,
            // scaled as the weights scale it.
            let floor: Vec<u64> = ws
                .reach_pass(&g, t, Direction::Backward)
                .unwrap()
                .iter()
                .map(|&us| us.saturating_mul(1 << 32))
                .collect();
            let prices = |ws: &mut SearchWorkspace| -> Vec<bool> {
                let outside = g.edges().filter(|&e| !admitted(e));
                outside.map(|e| ws.relaxes(&g, e, weight_of(e) as u64, 0)).collect()
            };
            for mode in [Disjointness::Edge, Disjointness::Node] {
                for k in 1..=3 {
                    let plain = ws.k_disjoint_paths_weighted(&g, s, t, k, mode, weight);
                    let plain_prices = prices(&mut ws);
                    let aimed =
                        ws.k_disjoint_paths_toward(&g, s, t, k, mode, weight, |v| floor[v.index()]);
                    let aimed_prices = prices(&mut ws);
                    let theirs = reference_union(&g, s, t, k, mode, weight);
                    let at = format!("case {case} {mode:?} k={k}");
                    assert_eq!(aimed, plain, "{at}");
                    if against_reference(aimed, theirs, k, &at, <[EdgeId]>::eq).is_none() {
                        continue;
                    }
                    found += 1;
                    // The last round is Bellman–Ford either way; with one
                    // round it is the aimed one, which leaves no potential
                    // and prices nothing.
                    if k > 1 {
                        priced += aimed_prices.len();
                        assert_eq!(aimed_prices, plain_prices, "{at}");
                    } else {
                        assert!(aimed_prices.iter().all(|&r| r), "{at}");
                    }
                }
            }
        }
        assert!(found > 400 && priced > 400, "too few cases to mean anything: {found}, {priced}");
    }

    #[test]
    fn an_aimed_first_round_matches_whole_passes_under_tied_weights() {
        use crate::algo::dijkstra::Direction;
        let mut rng = 0x2028u64;
        let mut ws = SearchWorkspace::new();
        let mut found = 0;
        for case in 0..3_000u32 {
            let g = tied_graph(&mut rng);
            let excluded = case % 7;
            let weight = |e: EdgeId| {
                (excluded == 0 || e.index() as u32 % 7 != excluded)
                    .then(|| g.edge(e).latency.as_micros() as i64)
            };
            // Four endpoint pairs a graph: first to last, back, and two
            // that move with the case.
            let n = g.node_count() as u32;
            let pairs =
                [(0, n - 1), (n - 1, 0), (case * 5 + 1, case * 3 + 2), (case + 3, case * 7 + 1)]
                    .map(|(s, t)| (NodeId::new(s % n), NodeId::new(t % n)));
            for (s, t) in pairs.into_iter().filter(|(s, t)| s != t) {
                // The floor: plain latency on to `t` over the whole graph.
                let to_t = ws.reach_pass(&g, t, Direction::Backward).unwrap().to_vec();
                let floor = |v: NodeId| to_t[v.index()];
                for mode in [Disjointness::Edge, Disjointness::Node] {
                    for k in 1..=3 {
                        let at = format!("case {case} {s}->{t} {mode:?} k={k}");
                        let aimed = ws.k_disjoint_paths_toward(&g, s, t, k, mode, weight, floor);
                        let plain = k_disjoint_paths_weighted(&g, s, t, k, mode, weight);
                        assert_eq!(aimed, plain, "{at}");
                        let theirs = reference_union(&g, s, t, k, mode, weight);
                        found += usize::from(
                            against_reference(aimed, theirs, k, &at, <[EdgeId]>::eq).is_some(),
                        );
                    }
                }
            }
        }
        assert!(found > 35_000, "too few routable cases to mean anything: {found}");
    }

    /// `relaxes` after the last search, for every edge of `g` at its
    /// weight before any exclusion.
    fn every_price(
        ws: &mut SearchWorkspace,
        g: &Graph,
        weight_of: impl Fn(EdgeId) -> u64,
    ) -> Vec<bool> {
        g.edges().map(|e| ws.relaxes(g, e, weight_of(e), 0)).collect()
    }

    /// The aimed rounds on `aimed` against whole Bellman–Ford passes on
    /// `plain`, for one request: the same paths (or the same failure),
    /// and then the same `relaxes` answer for every edge. Whether there
    /// were paths.
    #[allow(clippy::too_many_arguments)]
    fn aimed_against_whole_passes(
        (aimed, plain): (&mut SearchWorkspace, &mut SearchWorkspace),
        g: &Graph,
        (s, t): (NodeId, NodeId),
        k: usize,
        mode: Disjointness,
        weight_of: impl Fn(EdgeId) -> u64 + Copy,
        admitted: impl Fn(EdgeId) -> bool + Copy,
        floor: impl Fn(NodeId) -> u64,
        at: &str,
    ) -> Result<bool, TestCaseError> {
        let weight = |e: EdgeId| admitted(e).then(|| weight_of(e) as i64);
        let theirs = plain.k_disjoint_paths_weighted(g, s, t, k, mode, weight);
        let ours = aimed.k_disjoint_paths_toward(g, s, t, k, mode, weight, floor);
        prop_assert_eq!(&ours, &theirs, "{}", at);
        prop_assert_eq!(
            every_price(aimed, g, weight_of),
            every_price(plain, g, weight_of),
            "{}",
            at
        );
        Ok(ours.is_ok())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// On the generated overlays, under plain and tie-broken weights,
        /// with some edges excluded: the reduced rounds after an aimed
        /// first return what whole passes return, and price every edge as
        /// after them.
        #[test]
        fn reduced_rounds_match_whole_passes_on_generated_overlays(
            ring in proptest::prelude::any::<bool>(),
            nodes in 20usize..=200,
            seed in 0u64..1_000,
            tie_broken in proptest::prelude::any::<bool>(),
            pick in proptest::prelude::any::<u64>(),
        ) {
            use crate::algo::dijkstra::Direction;
            use crate::generate::GeneratorConfig;
            let config = match ring {
                true => GeneratorConfig::ring_of_cliques(nodes, seed),
                false => GeneratorConfig::waxman(nodes, seed),
            };
            let g = config.generate();
            let n = g.node_count() as u64;
            // Latency, or latency first and a distinct hash of the edge
            // after it, as the live tier weighs edges.
            let shift = if tie_broken { 32 } else { 0 };
            let hash = |e: EdgeId| match tie_broken {
                true => (e.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32,
                false => 0,
            };
            let weight_of = |e: EdgeId| (g.edge(e).latency.as_micros() << shift) + hash(e);
            let admitted = |e: EdgeId| !(e.index() as u64 ^ pick).is_multiple_of(9);
            let (mut aimed, mut plain) = (SearchWorkspace::new(), SearchWorkspace::new());
            for (s, hop) in [(pick % n, (pick >> 16) % (n - 1)), ((pick >> 32) % n, (pick >> 48) % (n - 1))] {
                let (s, t) = (NodeId::new(s as u32), NodeId::new(((s + 1 + hop) % n) as u32));
                // Plain latency on to `t` over the whole graph, scaled as
                // the weights scale it: a consistent floor.
                let to_t: Vec<u64> = aimed
                    .reach_pass(&g, t, Direction::Backward)
                    .unwrap()
                    .iter()
                    .map(|&us| us.saturating_mul(1 << shift))
                    .collect();
                for mode in [Disjointness::Edge, Disjointness::Node] {
                    for k in [2, 3] {
                        let at = format!("{s}->{t} {mode:?} k={k}");
                        let floor = |v: NodeId| to_t[v.index()];
                        aimed_against_whole_passes(
                            (&mut aimed, &mut plain), &g, (s, t), k, mode, weight_of, admitted,
                            floor, &at,
                        )?;
                    }
                }
            }
        }
    }

    /// Whether the last round's tight arcs — both ends settled, the
    /// tail's label plus the weight equal to the head's — close a cycle.
    fn tight_cycle(ws: &SearchWorkspace) -> bool {
        let settled = |x: usize| ws.popped[x];
        let tight: Vec<Arc> = (ws.arcs.iter().copied())
            .filter(|a| a.weight != EXCLUDED && settled(a.from) && settled(a.to))
            .filter(|a| ws.arc_dist[a.from] + a.weight == ws.arc_dist[a.to])
            .collect();
        // Peel off the nodes no tight arc enters; a cycle is what is left.
        let mut entering = vec![0; ws.arc_dist.len()];
        tight.iter().for_each(|a| entering[a.to] += 1);
        let mut peel: Vec<usize> = (0..entering.len()).filter(|&x| entering[x] == 0).collect();
        let mut peeled = 0;
        while let Some(x) = peel.pop() {
            peeled += 1;
            for a in tight.iter().filter(|a| a.from == x) {
                entering[a.to] -= 1;
                if entering[a.to] == 0 {
                    peel.push(a.to);
                }
            }
        }
        peeled < entering.len()
    }

    /// Holds the aimed rounds to whole passes for a pair on `g` (see
    /// [`aimed_against_whole_passes`]), floored by plain latency on to
    /// `t`; returns the aimed pair, displayed.
    fn hand_built_pair(g: &Graph, s: NodeId, t: NodeId, mode: Disjointness) -> Vec<String> {
        use crate::algo::dijkstra::Direction;
        let weight_of = |e: EdgeId| g.edge(e).latency.as_micros();
        let (mut aimed, mut plain) = (SearchWorkspace::new(), SearchWorkspace::new());
        let to_t = aimed.reach_pass(g, t, Direction::Backward).unwrap().to_vec();
        let floor = |v: NodeId| to_t[v.index()];
        let at = format!("{mode:?}");
        let found = aimed_against_whole_passes(
            (&mut aimed, &mut plain),
            g,
            (s, t),
            2,
            mode,
            weight_of,
            |_| true,
            floor,
            &at,
        );
        assert!(matches!(found, Ok(true)), "{at}: {found:?}");
        let pair = plain.k_disjoint_paths_weighted(g, s, t, 2, mode, |e| Some(weight_of(e) as i64));
        pair.unwrap().iter().map(|p| p.display(g)).collect()
    }

    #[test]
    fn two_equal_second_routes_fall_as_the_scan_order_has_them() {
        // S→A→T is round one's path; S→B→T and S→C→T tie for round two.
        // C is the lower node, so a Dijkstra round settles it first; B's
        // links come first in the arc list, so Bellman–Ford's scan
        // reaches T from B first, and the replay must take B.
        let mut b = GraphBuilder::new();
        let [s, a, c, bb, t] = ["S", "A", "C", "B", "T"].map(|n| b.add_node(n));
        for (u, v, ms) in [(s, a, 1), (a, t, 1), (s, bb, 2), (bb, t, 2), (s, c, 2), (c, t, 2)] {
            b.add_link(u, v, Micros::from_millis(ms), 1).unwrap();
        }
        let g = b.build();
        for mode in [Disjointness::Edge, Disjointness::Node] {
            assert_eq!(hand_built_pair(&g, s, t, mode), ["S -> A -> T", "S -> B -> T"], "{mode:?}");
        }
    }

    #[test]
    fn a_tie_for_path_one_closes_a_tight_cycle_in_round_two() {
        // Round one's path from S to T runs through A and then B or X,
        // at one cost either way; the second route S→Y→B meets it at B.
        // Whichever way round one went from A, round two's residual graph
        // has a cycle through A, B, T and X of weight 0 (two of its arcs
        // reversed and negated), and every arc of it is tight.
        let mut b = GraphBuilder::new();
        let [s, a, bb, t, x, y] = ["S", "A", "B", "T", "X", "Y"].map(|n| b.add_node(n));
        let links =
            [(s, a, 1), (a, bb, 1), (bb, t, 1), (a, x, 1), (x, t, 1), (s, y, 2), (y, bb, 2)];
        for (u, v, ms) in links {
            b.add_link(u, v, Micros::from_millis(ms), 1).unwrap();
        }
        let g = b.build();
        let weight = |e: EdgeId| Some(g.edge(e).latency.as_micros() as i64);
        let mut ws = SearchWorkspace::new();
        for mode in [Disjointness::Edge, Disjointness::Node] {
            let shown = hand_built_pair(&g, s, t, mode);
            let to_t = ws.reach_pass(&g, t, crate::algo::dijkstra::Direction::Backward).unwrap();
            let to_t = to_t.to_vec();
            let aimed = ws.k_disjoint_paths_toward(&g, s, t, 2, mode, weight, |v| to_t[v.index()]);
            assert!(tight_cycle(&ws), "{mode:?}: round two's tight arcs close no cycle");
            let aimed: Vec<String> = aimed.unwrap().iter().map(|p| p.display(&g)).collect();
            assert_eq!(aimed, shown, "{mode:?}");
        }
    }

    #[test]
    fn zero_weights_find_the_pair_whole_passes_find() {
        // Zero-weight edges close cycles of tight arcs, which the replay
        // settles in the order of the plain scan's times rather than
        // follows. All weights zero, then a mix of 0, 1 and 2, against
        // whole Bellman–Ford passes.
        let mut rng = 0x0000u64;
        let mut ws = SearchWorkspace::new();
        let mut found = 0;
        for case in 0..300u64 {
            let g = tied_graph(&mut rng);
            let weight = |e: EdgeId| {
                let w = (e.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62;
                Some(if case % 2 == 0 { 0 } else { w.min(2) as i64 })
            };
            let (s, t) = (NodeId::new(0), NodeId::new(g.node_count() as u32 - 1));
            for mode in [Disjointness::Edge, Disjointness::Node] {
                for k in 1..=3 {
                    let at = format!("case {case} {mode:?} k={k}");
                    let aimed = ws.k_disjoint_paths_toward(&g, s, t, k, mode, weight, |_| 0);
                    let theirs = reference_union(&g, s, t, k, mode, weight);
                    let Some(paths) = against_reference(aimed, theirs, k, &at, <[EdgeId]>::eq)
                    else {
                        continue;
                    };
                    found += 1;
                    assert_eq!(paths.len(), k, "{at}");
                    for (i, p) in paths.iter().enumerate() {
                        assert_eq!((p.source(), p.destination()), (s, t), "{at}");
                        for q in &paths[i + 1..] {
                            let apart = match mode {
                                Disjointness::Edge => p.is_edge_disjoint(q),
                                Disjointness::Node => p.is_node_disjoint(&g, q),
                            };
                            assert!(apart, "{at}");
                        }
                    }
                }
            }
        }
        assert!(found > 300, "too few routable cases to mean anything: {found}");
    }

    #[test]
    fn an_aimed_first_round_past_the_range_of_the_sums_is_out_of_reach() {
        // A→B→Z is the only route, and it weighs more than i64 holds.
        let mut b = GraphBuilder::new();
        let [a, bb, c, z] = ["A", "B", "C", "Z"].map(|n| b.add_node(n));
        for (u, v) in [(a, bb), (bb, z)] {
            b.add_edge(u, v, Micros::from_millis(1), 1).unwrap();
        }
        let g = b.build();
        let heavy = |_: EdgeId| Some(i64::MAX / 2 + 1);
        let mut ws = SearchWorkspace::new();
        for k in [1, 2] {
            let mode = Disjointness::Edge;
            assert_eq!(
                ws.k_disjoint_paths_toward(&g, a, z, k, mode, heavy, |_| 0),
                Err(TopologyError::InsufficientDisjointPaths { requested: k, available: 0 })
            );
            assert!(ws.arc_overflow, "k={k}: the aimed round saw the sum leave the range");
            assert!(g.edges().all(|e| ws.relaxes(&g, e, 1, 0)));
        }

        // Beside a route in range (A→C→Z), round one takes that one and
        // the second round runs out of range on A→B→Z: one path, and
        // nothing priced.
        let mut b = GraphBuilder::new();
        for name in ["A", "B", "C", "Z"] {
            b.add_node(name);
        }
        for (u, v) in [(a, bb), (bb, z), (a, c), (c, z)] {
            b.add_edge(u, v, Micros::from_millis(1), 1).unwrap();
        }
        let g = b.build();
        let weight = |e: EdgeId| match g.edge(e).src == bb || g.edge(e).dst == bb {
            true => Some(i64::MAX / 2 + 1),
            false => Some(1),
        };
        let one =
            ws.k_disjoint_paths_toward(&g, a, z, 1, Disjointness::Edge, weight, |_| 0).unwrap();
        assert_eq!(one[0].display(&g), "A -> C -> Z");
        assert!(g.edges().all(|e| ws.relaxes(&g, e, 1, 0)));
        assert_eq!(
            ws.k_disjoint_paths_toward(&g, a, z, 2, Disjointness::Node, weight, |_| 0),
            Err(TopologyError::InsufficientDisjointPaths { requested: 2, available: 1 })
        );
        assert!(ws.arc_overflow);
        assert!(g.edges().all(|e| ws.relaxes(&g, e, 1, 0)));
    }
}
