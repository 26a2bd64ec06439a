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
//! Dijkstra over reduced costs, as [`crate::algo::suurballe`] does)
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
//! that scan settles it. The aimed round replays exactly that over
//! the tight arcs into the destination, which are the arcs of its
//! shortest routes. The free functions keep whole Bellman–Ford rounds;
//! the rounds after the first are Bellman–Ford for every caller.

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
    k_disjoint_paths_filtered(graph, src, dst, k, mode, |_| true)
}

/// Like [`k_disjoint_paths`], restricted to edges passing `usable`.
///
/// # Errors
///
/// Same conditions as [`k_disjoint_paths`].
pub fn k_disjoint_paths_filtered<F>(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    mode: Disjointness,
    usable: F,
) -> Result<Vec<Path>, TopologyError>
where
    F: Fn(EdgeId) -> bool,
{
    k_disjoint_paths_weighted(graph, src, dst, k, mode, |e| {
        if usable(e) {
            Some(graph.edge(e).latency.as_micros() as i64)
        } else {
            None
        }
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

    /// Calls `f` with every arc that leaves node `x` of the residual
    /// graph: its own arcs not in `used`, and the arcs into it that are
    /// (those run backwards).
    fn for_each_residual_out_arc(self, used: &[bool], x: usize, mut f: impl FnMut(usize)) {
        let g = self.graph;
        let mut offer = |arc: usize, reversed: bool| {
            if used[arc] == reversed {
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

    /// The `k`th arc into node `x` of the arc graph as laid out, before
    /// any path is flipped into it; `None` past the last.
    fn in_arc(self, x: usize, k: usize) -> Option<usize> {
        let g = self.graph;
        let edge_arcs = |v: usize, offset: usize| {
            g.in_edges(NodeId::new(v as u32)).get(k).map(|e| offset + e.index())
        };
        match self.mode {
            Disjointness::Edge => edge_arcs(x, 0),
            Disjointness::Node if x.is_multiple_of(2) => edge_arcs(x / 2, g.node_count()),
            // A node's out-copy is entered by its internal arc alone.
            Disjointness::Node => (k == 0).then_some(x / 2),
        }
    }
}

/// The replay's settling time (`SearchWorkspace::settled_at`) of a node
/// it has not settled, or found no settled tail for.
const UNSETTLED: u64 = u64::MAX;

/// The replay's settling time of a node on its stack.
const SETTLING: u64 = u64::MAX - 1;

/// When round one scans arc `i` out of a tail settled at `tail`: in the
/// same pass if `i` comes after the arc that settled the tail, else in
/// the next (module docs). A time packs `(pass, arc index + 1)` into one
/// word, so times order as the scans do and the source, settled before
/// pass 0's first arc, is 0.
fn scan_time(tail: u64, i: usize) -> u64 {
    let (pass, after) = (tail >> 32, tail & u64::from(u32::MAX));
    let at = i as u64 + 1;
    let pass = if at > after { pass } else { pass + 1 };
    (pass << 32) | at
}

/// A node on the replay's stack (see
/// [`SearchWorkspace::replay_scan_order`]): which of its in-arcs to look
/// at next, the earliest scan of a tight one found so far, and the arc
/// out of it that the node below on the stack waits on.
#[derive(Debug, Clone, Copy)]
pub(super) struct Settling {
    node: usize,
    next: usize,
    first: u64,
    first_arc: usize,
    waited_on_by: usize,
}

impl Settling {
    fn new(node: usize, waited_on_by: usize) -> Self {
        Settling { node, next: 0, first: UNSETTLED, first_arc: 0, waited_on_by }
    }

    /// A tight in-arc `i`, scanned at `time`.
    fn offer(&mut self, i: usize, time: u64) {
        if time < self.first {
            (self.first, self.first_arc) = (time, i);
        }
    }
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

    /// [`SearchWorkspace::k_disjoint_paths_weighted`] with its first
    /// round aimed at `dst`: nothing is in the solution yet, so the
    /// residual graph has no negative arc and round one is a
    /// goal-directed Dijkstra search (A*, keyed `d + floor(v)` at both
    /// copies of a split node `v`) instead of Bellman–Ford. The rounds
    /// after it are Bellman–Ford as always, so with two rounds or more
    /// [`SearchWorkspace::relaxes`] prices against the same distances.
    ///
    /// Every weight must be non-negative and `floor` a consistent lower
    /// bound on the weight of every route on to `dst` (see
    /// [`SearchWorkspace::search_toward`]). Round one then finds a
    /// shortest path. The search goes on popping after `dst` while keys
    /// equal its distance, so every arc of a shortest route has its final
    /// distances at both ends, and then replays Bellman–Ford's scan order
    /// over those arcs (module docs) to pick the path Bellman–Ford picks.
    /// Where every edge's weight is positive the result is therefore
    /// [`SearchWorkspace::k_disjoint_paths_weighted`]'s, ties included.
    /// Zero weights can close a cycle of tight arcs, which the replay
    /// steps around: the pair is then of minimum total but not
    /// necessarily the one the scan order picks.
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

    /// Bhandari's rounds, the first goal-directed when `floor` is given.
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
        for round in 0..k {
            let found = match &floor {
                Some(floor) if round == 0 => self.augment_toward(layout, s, t, floor),
                _ => self.augment(layout, s, t),
            };
            if !found {
                return Err(TopologyError::InsufficientDisjointPaths {
                    requested: k,
                    available: round,
                });
            }
        }
        // `arc_dist` holds the last round's distances: what `relaxes`
        // prices an excluded arc against — unless a route ran out of
        // range, which leaves them no potential to price by, or the last
        // round was the goal-directed one, which stopped short of a
        // potential.
        if !self.arc_overflow && (floor.is_none() || k > 1) {
            self.last = LastSearch::Disjoint(mode);
        }

        // A used arc sits reversed in `arcs`.
        let internal = layout.internal_arcs();
        let arcs = &self.arcs;
        self.selected.clear();
        // Room for any union, so that a longer one later allocates nothing.
        self.selected.reserve(arcs.len());
        self.selected.extend((0..arcs.len()).filter(|&i| self.used[i]));
        let mut paths = decompose(graph, &mut self.selected, s, t, k, |i| {
            let edge = i.checked_sub(internal).map(|e| EdgeId::new(e as u32));
            (arcs[i].to, arcs[i].from, edge)
        });
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

    /// One round: Bellman–Ford from `s` over the residual graph, then
    /// the shortest `s → t` path's arcs flipped in place — an unused arc
    /// joins the solution and now runs backwards at negated weight, a
    /// used one leaves it. `false` when `t` is out of reach.
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
        layout.for_each_residual_out_arc(&self.used, s, |arc| set(&mut self.scan_now, arc));
        for _pass in 0..nodes.saturating_sub(1) {
            for word in 0..words {
                // Re-read after every scan: a relaxation may make a
                // later arc of this very word due.
                while self.scan_now[word] != 0 {
                    let bits = self.scan_now[word];
                    self.scan_now[word] = bits & (bits - 1);
                    let i = word * 64 + bits.trailing_zeros() as usize;
                    let arc = self.arcs[i];
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
                        layout.for_each_residual_out_arc(&self.used, arc.to, |next| {
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
        self.flip_path(s, t)
    }

    /// Round one as a goal-directed Dijkstra search over the arcs (see
    /// [`SearchWorkspace::k_disjoint_paths_toward`]): `floor` of a split
    /// node's overlay node keys the frontier, and the search stops once
    /// `t` is settled and the nodes keyed as low are popped too. Where two
    /// arcs reached a node at one distance,
    /// [`SearchWorkspace::replay_scan_order`] then picks the tree arcs
    /// Bellman–Ford would; the path is flipped as
    /// [`SearchWorkspace::augment`] flips its own. Sums are checked as
    /// there: a route past i64's range is out of reach and marks the
    /// rounds as having had one.
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
        self.heap.clear();
        self.heap.reserve(self.arcs.len() + 1);
        // The replay's memo and stack (its stack holds a node once at
        // most), sized whether or not a tie calls for it, so that no later
        // round allocates.
        self.settled_at.clear();
        self.settled_at.reserve(nodes);
        self.settling.clear();
        self.settling.reserve(nodes);
        let key = |x: usize, d: i64| {
            let v = match layout.mode {
                Disjointness::Edge => x,
                Disjointness::Node => x / 2,
            };
            // Round one's distances are sums of non-negative weights.
            (d as u64).saturating_add(floor(NodeId::new(v as u32)))
        };

        self.arc_dist[s] = 0;
        self.heap.push(Reverse((key(s, 0), s as u32)));
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
            layout.for_each_residual_out_arc(&self.used, x, |i| {
                let arc = self.arcs[i];
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
                } else if nd == was {
                    tied = true;
                }
            });
        }
        if tied {
            self.replay_scan_order(layout, s, t);
        }
        self.flip_path(s, t)
    }

    /// Bellman–Ford's tree arcs on the shortest routes from `s` to `t`,
    /// replayed from round one's final distances (module docs, "Which
    /// optimum"): walking back from `t` over tight arcs, each node is
    /// settled by its tight in-arc scanned first, which needs its tails'
    /// settling times first — memoised in `settled_at`, with `settling`
    /// as the stack, so each node is settled once. The arcs land in
    /// `arc_prev` for [`SearchWorkspace::flip_path`] to read.
    ///
    /// A node on the stack is never entered again. Only a cycle of tight
    /// arcs leads back to one, and that needs zero-weight edges; a node
    /// whose tight tails were all on the stack is left unsettled, to be
    /// tried again from another.
    fn replay_scan_order(&mut self, layout: Layout<'_>, s: usize, t: usize) {
        self.settled_at.resize(layout.node_count(), UNSETTLED);
        if self.arc_dist[t] == i64::MAX {
            return;
        }
        self.settled_at[s] = 0;
        self.settled_at[t] = SETTLING;
        self.settling.push(Settling::new(t, 0));
        while let Some(top) = self.settling.last_mut() {
            let x = top.node;
            let Some(i) = layout.in_arc(x, top.next) else {
                // Every in-arc looked at: `x` is settled by its first.
                let done = *top;
                self.settling.pop();
                self.settled_at[x] = done.first;
                if done.first != UNSETTLED {
                    self.arc_prev[x] = done.first_arc;
                    if let Some(below) = self.settling.last_mut() {
                        below.offer(done.waited_on_by, scan_time(done.first, done.waited_on_by));
                    }
                }
                continue;
            };
            top.next += 1;
            let arc = self.arcs[i];
            if self.arc_dist[arc.from].checked_add(arc.weight) != Some(self.arc_dist[x]) {
                continue;
            }
            match self.settled_at[arc.from] {
                SETTLING => {}
                UNSETTLED => {
                    self.settled_at[arc.from] = SETTLING;
                    self.settling.push(Settling::new(arc.from, i));
                }
                tail => top.offer(i, scan_time(tail, i)),
            }
        }
    }

    /// Flips the path the round just found from `s` to `t` (read back
    /// along `arc_prev`) into the arc list: an unused arc joins the
    /// solution and now runs backwards at negated weight, a used one
    /// leaves it. `false`, and nothing flipped, when `t` is out of reach.
    fn flip_path(&mut self, s: usize, t: usize) -> bool {
        if self.arc_dist[t] == i64::MAX {
            return false;
        }
        let mut at = t;
        while at != s {
            let i = self.arc_prev[at];
            let arc = &mut self.arcs[i];
            at = arc.from;
            *arc = Arc { from: arc.to, to: arc.from, weight: -arc.weight };
            self.used[i] = !self.used[i];
        }
        true
    }
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
        let result = k_disjoint_paths_filtered(&g, a, z, 2, Disjointness::Node, |e| e != banned);
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
            let prices = |ws: &SearchWorkspace| -> Vec<bool> {
                let outside = g.edges().filter(|&e| !admitted(e));
                outside.map(|e| ws.relaxes(&g, e, weight_of(e) as u64, 0)).collect()
            };
            for mode in [Disjointness::Edge, Disjointness::Node] {
                for k in 1..=3 {
                    let plain = ws.k_disjoint_paths_weighted(&g, s, t, k, mode, weight);
                    let plain_prices = prices(&ws);
                    let aimed =
                        ws.k_disjoint_paths_toward(&g, s, t, k, mode, weight, |v| floor[v.index()]);
                    let aimed_prices = prices(&ws);
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

    #[test]
    fn zero_weights_end_and_find_a_pair_of_minimum_total() {
        // Zero-weight edges close cycles of tight arcs, which the replay
        // must step around rather than follow. All weights zero, then a
        // mix of 0, 1 and 2, against whole Bellman–Ford passes.
        let mut rng = 0x0000u64;
        let mut ws = SearchWorkspace::new();
        let mut found = 0;
        for case in 0..300u64 {
            let g = tied_graph(&mut rng);
            let weight = |e: EdgeId| {
                let w = (e.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62;
                Some(if case % 2 == 0 { 0 } else { w.min(2) as i64 })
            };
            let total = |edges: &[EdgeId]| edges.iter().map(|&e| weight(e).unwrap()).sum::<i64>();
            let (s, t) = (NodeId::new(0), NodeId::new(g.node_count() as u32 - 1));
            for mode in [Disjointness::Edge, Disjointness::Node] {
                for k in 1..=3 {
                    let at = format!("case {case} {mode:?} k={k}");
                    let aimed = ws.k_disjoint_paths_toward(&g, s, t, k, mode, weight, |_| 0);
                    let theirs = reference_union(&g, s, t, k, mode, weight);
                    let same_total =
                        |ours: &[EdgeId], theirs: &[EdgeId]| total(ours) == total(theirs);
                    let Some(paths) = against_reference(aimed, theirs, k, &at, same_total) else {
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
