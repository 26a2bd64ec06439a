//! One reusable scratch area for every search in this module tree.
//!
//! Building a dissemination graph runs a dozen shortest-path searches
//! over the same topology. A [`SearchWorkspace`] holds their distance,
//! predecessor and frontier storage once, sized to the graph on first
//! use, so a search after the first allocates nothing. The algorithms
//! themselves live
//! beside their free-function forms — Dijkstra in
//! [`dijkstra`](super::dijkstra), deadline reachability in
//! [`reach`](super::reach), Bhandari's rounds in
//! [`disjoint`](super::disjoint) — as `impl SearchWorkspace` blocks;
//! the free functions are wrappers that run on a workspace of their
//! own.
//!
//! A workspace also answers one question about the search it ran last
//! ([`SearchWorkspace::relaxes`]): could an edge the search's weight
//! excluded have changed what it found? That is what lets a cache of
//! constructions depend on the excluded edges that matter to them
//! rather than on all of them.

use crate::algo::disjoint::{split_endpoints, Disjointness};
use crate::{EdgeId, Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The search [`SearchWorkspace::relaxes`] answers about.
#[derive(Debug, Default, Clone, Copy)]
pub(super) enum LastSearch {
    /// None yet, or one that leaves nothing to ask about (a backward
    /// pass, Bhandari's rounds when one failed or some route's sum left
    /// i64's range).
    #[default]
    Other,
    /// A forward Dijkstra search, stopped once `target` was settled.
    Forward { target: Option<NodeId> },
    /// Bhandari's rounds, on the arc layout of `mode`. `stopped` when
    /// the last was a Dijkstra round over reduced costs, stopped at the
    /// destination: its frontier is kept, to be resumed on demand.
    Disjoint { mode: Disjointness, stopped: bool },
}

/// Work Bhandari's rounds on a workspace have done, summed over every
/// call: a count that repeats exactly on any host, unlike a timing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PairWork {
    /// Arcs looked at: by a Bellman–Ford pass, or out of a node a
    /// Dijkstra round (or [`SearchWorkspace::relaxes`] resuming one)
    /// settled.
    pub arcs_scanned: u64,
    /// Entries the Dijkstra rounds pushed onto their frontier.
    pub frontier_pushes: u64,
}

/// Dense scratch storage shared by the searches of
/// [`crate::algo`]: hold one per thread of construction work and pass
/// it to every search.
///
/// Every search resets what it reads, so nothing carries over from one
/// to the next except what a method says it leaves for a later call
/// (the tree of `search_from`). A workspace keeps no result across
/// searches: what depends on the topology alone, such as a reach pass,
/// is the caller's to keep. A workspace may be used on graphs of
/// different sizes in turn; it grows to the largest.
#[derive(Debug, Default)]
pub struct SearchWorkspace {
    // Dijkstra (`dijkstra.rs`): tentative distance and tree edge per
    // node, the frontier as (key, node index), and the origin the tree
    // edges lead back to (`None` after a backward search, which leaves
    // no tree). Bhandari's Dijkstra rounds key their frontier of split
    // nodes here too, and the last one's stays for `relaxes` to resume.
    pub(super) dist: Vec<u64>,
    pub(super) prev: Vec<Option<EdgeId>>,
    pub(super) heap: BinaryHeap<Reverse<(u64, u32)>>,
    pub(super) origin: Option<NodeId>,
    // What the last search was, for `relaxes`.
    pub(super) last: LastSearch,
    // Bhandari (`disjoint.rs`): the residual arcs, flipped in place as
    // paths are found (every path but the last), which arcs the
    // solution uses, a round's distance and predecessor arc per (split)
    // node, the Bellman–Ford arcs to scan
    // in this pass and the next, the solution's arcs in index order, and
    // whether some route's sum left i64's range.
    pub(super) arcs: Vec<super::bellman_ford::Arc>,
    pub(super) used: Vec<bool>,
    pub(super) arc_dist: Vec<i64>,
    pub(super) arc_prev: Vec<usize>,
    pub(super) scan_now: Vec<u64>,
    pub(super) scan_next: Vec<u64>,
    pub(super) selected: Vec<usize>,
    pub(super) arc_overflow: bool,
    // The replay of Bellman–Ford's scan order: when the plain round
    // would have settled each (split) node, the stack of the nodes with
    // a tight route on to the destination, and the frontier of settling
    // times.
    pub(super) settled_at: Vec<u64>,
    pub(super) ancestors: Vec<u32>,
    pub(super) times: BinaryHeap<Reverse<(u64, u32)>>,
    // The rounds after the first, as Dijkstra searches over reduced
    // costs: the potential per (split) node, and which nodes the
    // search has settled. Their frontier is `heap`.
    pub(super) potential: Vec<i64>,
    pub(super) popped: Vec<bool>,
    pub(super) pair_work: PairWork,
}

impl SearchWorkspace {
    /// An empty workspace; storage is allocated by the first search.
    pub fn new() -> Self {
        SearchWorkspace::default()
    }

    /// What Bhandari's rounds on this workspace have done so far.
    pub fn pair_work(&self) -> PairWork {
        self.pair_work
    }

    /// Whether the last search could have found something else had it
    /// also admitted `e` — an edge its weight excluded — at weight `w`.
    /// `lb` is a lower bound on every route from `e`'s head to the
    /// target of a search stopped early (0 when none is known).
    ///
    /// - After a forward search ([`SearchWorkspace::search_from`],
    ///   [`SearchWorkspace::search_toward`],
    ///   [`SearchWorkspace::shortest_path_weighted`]): `e`'s tail was
    ///   reached, `d(tail) + w ≤ d(head)`, and, when the search stopped
    ///   at a target `T`, `d(tail) + w + lb ≤ d(T)`.
    /// - After [`SearchWorkspace::k_disjoint_paths_weighted`] or
    ///   [`SearchWorkspace::k_disjoint_paths_toward`] with two rounds or
    ///   more: `e`'s arc has a reduced cost of at most 0 against the last
    ///   round's distances, or either end was out of that round's reach.
    ///   Those distances are a potential for the final residual graph,
    ///   so an arc of positive reduced cost closes no negative cycle.
    ///   The answer is the one whole Bellman–Ford passes give. After the
    ///   aimed form the last round is a Dijkstra search stopped at the
    ///   destination, so an end it did not settle has no final distance:
    ///   the search is resumed, node by node, until both ends are settled
    ///   or their bounds decide the answer (its frontier's least key
    ///   bounds an unsettled distance from below, a tentative one from
    ///   above). That moves no path; it is why this takes `&mut self`.
    /// - After any other search, or rounds in which a route's sum left
    ///   i64's range: `true`.
    ///
    /// `false` means the search's result stands with `e` admitted —
    /// also with any set of such edges admitted together, since none of
    /// them moves a distance the search found — provided every weight
    /// is positive and its optimum unique, as under tie-broken weights.
    /// (Where a search stopped early, a route whose first admitted edge
    /// fails the bound already outweighs `d(T)`; one whose first admitted
    /// edge fails the relaxation test is no shorter than one with that
    /// edge replaced by the route the search found.)
    ///
    /// A search stopped at `T` pops the nodes keyed `d(v) + floor(v)` up
    /// to `d(T)` — those keyed `d(T)` too, after `T` itself — and no
    /// others. A goal-directed one ([`SearchWorkspace::search_toward`])
    /// so leaves tails unreached, and tails reached but never popped,
    /// that a plain search would have settled. Either still proves `e`
    /// irrelevant. Follow any route from the origin through `e` to the
    /// first node `x` on it that was never popped: `x`'s predecessor on
    /// the route was, so `x` was reached at no more than the route's
    /// weight up to it, and `x` still waiting means its key was at least
    /// `d(T)` (above it, since the keys equal to it were drained). The
    /// rest of the route, `e` included, weighs at least `floor(x)`,
    /// because the floor bounds routes over the full graph. So the route
    /// weighs at least `d(T)`, and under unique optima is not the one
    /// found: it cannot displace it. For a tail that was popped, its
    /// distance is final and the tests above apply as after a plain
    /// search; with `lb` the same floor at `e`'s head they pass and fail
    /// for exactly the edges they do after one.
    pub fn relaxes(&mut self, graph: &Graph, e: EdgeId, w: u64, lb: u64) -> bool {
        let info = graph.edge(e);
        match self.last {
            LastSearch::Forward { target } => {
                let tail = self.dist[info.src.index()];
                if tail == u64::MAX {
                    return false;
                }
                let via = tail.saturating_add(w);
                via <= self.dist[info.dst.index()]
                    && target.is_none_or(|t| via.saturating_add(lb) <= self.dist[t.index()])
            }
            LastSearch::Disjoint { mode, stopped } => {
                let (from, to) = split_endpoints(info.src, info.dst, mode);
                if stopped {
                    return self.resumed_relaxes(graph, mode, from, to, w);
                }
                let (tail, head) = (self.arc_dist[from], self.arc_dist[to]);
                tail == i64::MAX
                    || head == i64::MAX
                    || i128::from(tail) + i128::from(w) <= i128::from(head)
            }
            LastSearch::Other => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra::Direction;
    use crate::algo::disjoint::k_disjoint_paths_weighted;
    use crate::algo::{dijkstra, reach};
    use crate::cache::EdgeSet;
    use crate::generate::GeneratorConfig;
    use crate::{presets, Graph, Micros, Path};

    /// Elements of storage held, over every buffer: a search that
    /// allocated nothing leaves this unchanged.
    fn capacity(ws: &SearchWorkspace) -> usize {
        ws.dist.capacity()
            + ws.prev.capacity()
            + ws.heap.capacity()
            + ws.arcs.capacity()
            + ws.used.capacity()
            + ws.arc_dist.capacity()
            + ws.arc_prev.capacity()
            + ws.scan_now.capacity()
            + ws.scan_next.capacity()
            + ws.selected.capacity()
            + ws.settled_at.capacity()
            + ws.ancestors.capacity()
            + ws.times.capacity()
            + ws.potential.capacity()
            + ws.popped.capacity()
    }

    /// What the searches of one flow found.
    #[derive(Debug, PartialEq)]
    struct Found {
        path: Option<Path>,
        tree: Vec<Option<u64>>,
        tree_path: Vec<EdgeId>,
        in_time: Vec<EdgeId>,
        pair: Option<Vec<Path>>,
        aimed_path: Vec<EdgeId>,
        aimed_pair: Option<Vec<Path>>,
        aimed_prices: Vec<bool>,
    }

    /// Every kind of search a workspace runs, for one flow, on `ws`.
    fn searches(ws: &mut SearchWorkspace, g: &Graph, s: NodeId, t: NodeId) -> Found {
        let latency = |e: EdgeId| Some(g.edge(e).latency.as_micros());
        let path = ws.shortest_path_weighted(g, s, t, latency).ok();
        ws.search_from(g, s, None, latency).unwrap();
        let tree = g.nodes().map(|v| ws.distance_to(v)).collect();
        let mut tree_path = Vec::new();
        ws.append_path_to(g, t, &mut tree_path);
        let from_src = ws.reach_pass(g, s, Direction::Forward).unwrap().to_vec();
        let to_dst = ws.reach_pass(g, t, Direction::Backward).unwrap().to_vec();
        let mut feasible = EdgeSet::new();
        let reach = reach::Reach { from_src: &from_src, to_dst: &to_dst };
        reach.in_time_edges(g, Micros::from_millis(40), &mut feasible);
        let pair_weight = |e: EdgeId| Some(g.edge(e).latency.as_micros() as i64);
        let pair = ws.k_disjoint_paths_weighted(g, s, t, 2, Disjointness::Node, pair_weight).ok();
        // Aimed by the plain-latency distance on to `t`.
        let floor = |v: NodeId| to_dst[v.index()];
        ws.search_toward(g, s, t, latency, floor).unwrap();
        let mut aimed_path = Vec::new();
        ws.append_path_to(g, t, &mut aimed_path);
        let aimed_pair =
            ws.k_disjoint_paths_toward(g, s, t, 2, Disjointness::Node, pair_weight, floor).ok();
        // Every edge priced: the stopped last round resumed to the end.
        let aimed_prices = g.edges().map(|e| ws.relaxes(g, e, latency(e).unwrap(), 0)).collect();
        let in_time = feasible.iter().collect();
        Found { path, tree, tree_path, in_time, pair, aimed_path, aimed_pair, aimed_prices }
    }

    #[test]
    fn a_reused_workspace_leaks_nothing_from_the_previous_search() {
        let graphs = [
            GeneratorConfig::waxman(60, 7).generate(),
            presets::north_america_12(),
            GeneratorConfig::waxman(30, 11).generate(),
            presets::ring(5, Micros::from_millis(3)),
            GeneratorConfig::waxman(60, 7).generate(),
        ];
        let mut reused = SearchWorkspace::new();
        for g in &graphs {
            let last = NodeId::new(g.node_count() as u32 - 1);
            for (s, t) in [(NodeId::new(0), last), (last, NodeId::new(1)), (NodeId::new(2), last)] {
                let fresh = searches(&mut SearchWorkspace::new(), g, s, t);
                assert_eq!(
                    searches(&mut reused, g, s, t),
                    fresh,
                    "{s}->{t} of {} nodes",
                    g.node_count()
                );
                // And the free functions are the same searches.
                assert_eq!(fresh.path, dijkstra::shortest_path(g, s, t).ok());
                assert_eq!(
                    fresh.in_time,
                    reach::time_constrained_edges(g, s, t, Micros::from_millis(40)).unwrap()
                );
                let pair = k_disjoint_paths_weighted(g, s, t, 2, Disjointness::Node, |e| {
                    Some(g.edge(e).latency.as_micros() as i64)
                });
                assert_eq!(fresh.pair, pair.ok());
            }
        }
    }

    /// The searches `relaxes` answers about.
    #[derive(Debug, Clone, Copy)]
    enum Run {
        Tree,
        Stopped,
        /// Stopped at `t`, aimed at it by the floor `run` is given.
        Aimed,
        Pair(Disjointness),
    }

    /// What `run` found from `s`: the path to every node (`Tree`), to
    /// `t` (`Stopped`, `Aimed`), or the pair to `t`; `None` where there
    /// is none.
    fn run(
        ws: &mut SearchWorkspace,
        g: &Graph,
        run: Run,
        (s, t): (NodeId, NodeId),
        weight: impl Fn(EdgeId) -> Option<u64>,
        floor: &[u64],
    ) -> Vec<Option<Vec<EdgeId>>> {
        match run {
            Run::Tree => {
                ws.search_from(g, s, None, weight).unwrap();
                g.nodes().map(|v| path_to(ws, g, v)).collect()
            }
            Run::Stopped => {
                ws.search_from(g, s, Some(t), weight).unwrap();
                vec![path_to(ws, g, t)]
            }
            Run::Aimed => {
                ws.search_toward(g, s, t, weight, |v| floor[v.index()]).unwrap();
                vec![path_to(ws, g, t)]
            }
            Run::Pair(mode) => {
                let pair =
                    ws.k_disjoint_paths_weighted(g, s, t, 2, mode, |e| weight(e).map(|w| w as i64));
                match pair {
                    Ok(paths) => paths.iter().map(|p| Some(p.edges().to_vec())).collect(),
                    Err(_) => vec![None],
                }
            }
        }
    }

    #[test]
    fn admitting_excluded_edges_that_do_not_relax_changes_no_search() {
        let mut state = 0x2025u64;
        let mut below = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut ws = SearchWorkspace::new();
        let (mut quiet, mut relaxing) = (0, 0);
        for case in 0..300 {
            let g = dense_graph(&mut below, 35);
            // Latency first, an edge hash to break ties: unique optima.
            let weights: Vec<u64> =
                g.edges().map(|e| (g.edge(e).latency.as_micros() << 32) + below(1 << 32)).collect();
            let excluded: EdgeSet = g.edges().filter(|_| below(100) < 25).collect();
            let (s, t) = (NodeId::new(0), NodeId::new(g.node_count() as u32 - 1));
            // A lower bound for the searches stopped at `t`: the whole
            // graph's distance on to it.
            ws.search(&g, t, Direction::Backward, None, |e| Some(weights[e.index()]), |_| 0);
            let to_t = ws.dist.clone();
            // The aimed search's floor, from a backward pass over the
            // whole graph: its plain latency on to `t`, scaled as the
            // weights scale latency — consistent, since a weight is at
            // least its latency so scaled.
            let floor: Vec<u64> = ws
                .reach_pass(&g, t, Direction::Backward)
                .unwrap()
                .iter()
                .map(|&us| us.saturating_mul(1 << 32))
                .collect();
            for search in [
                Run::Tree,
                Run::Stopped,
                Run::Aimed,
                Run::Pair(Disjointness::Edge),
                Run::Pair(Disjointness::Node),
            ] {
                let admitted = |healed: &[EdgeId]| {
                    let excluded = &excluded;
                    let weights = &weights;
                    let healed = healed.to_vec();
                    move |e: EdgeId| {
                        (!excluded.contains(e) || healed.contains(&e)).then(|| weights[e.index()])
                    }
                };
                let found = run(&mut ws, &g, search, (s, t), admitted(&[]), &floor);
                let lb = |e: EdgeId| match search {
                    Run::Stopped | Run::Aimed => to_t[g.edge(e).dst.index()],
                    _ => 0,
                };
                let free: Vec<EdgeId> = excluded
                    .iter()
                    .filter(|&e| !ws.relaxes(&g, e, weights[e.index()], lb(e)))
                    .collect();
                quiet += free.len();
                relaxing += excluded.len() - free.len();
                let all = (free.len() > 1).then_some(&free[..]);
                for healed in free.chunks(1).chain(all) {
                    let again = run(&mut ws, &g, search, (s, t), admitted(healed), &floor);
                    assert_eq!(again, found, "case {case} {search:?}: admitting {healed:?}");
                }
            }
        }
        assert!(quiet > 1_000 && relaxing > 1_000, "{quiet} quiet, {relaxing} relaxing");
    }

    #[test]
    fn no_search_allocates_after_the_first_on_a_graph_of_that_size() {
        let g = GeneratorConfig::waxman(80, 3).generate();
        let mut ws = SearchWorkspace::new();
        let n = g.node_count() as u32;
        // First use: the smallest search of each kind, to a neighbour —
        // an early stop after a pop or two, a one-edge path. What the
        // searches below need beyond that must already be held.
        let s = NodeId::new(0);
        let t = g.edge(g.out_edges(s)[0]).dst;
        let latency = |e: EdgeId| g.edge(e).latency.as_micros();
        ws.shortest_path_weighted(&g, s, t, |e| Some(latency(e))).unwrap();
        let pair_weight = |e: EdgeId| Some(latency(e) as i64);
        ws.k_disjoint_paths_weighted(&g, s, t, 1, Disjointness::Node, pair_weight).unwrap();
        // An aimed first round's frontier holds split nodes: it sizes the
        // frontier for every search after it, and the storage of the
        // rounds after it, of their replays and of their resumption.
        ws.k_disjoint_paths_toward(&g, s, t, 1, Disjointness::Node, pair_weight, |_| 0).unwrap();
        let frontier = ws.heap.capacity();
        let held = capacity(&ws);
        assert!(held > 0);
        for s in 0..n {
            let t = NodeId::new((s * 7 + 3) % n);
            if NodeId::new(s) != t {
                searches(&mut ws, &g, NodeId::new(s), t);
                assert_eq!(capacity(&ws), held, "a search from N{s} grew the workspace");
            }
        }
        assert_eq!(ws.heap.capacity(), frontier, "the frontier grew after those first early stops");
    }

    /// The loop as it stood before it took a floor, stopped at `target`:
    /// the distance of every node it settled, and the path it found to
    /// `target`.
    fn unaimed_reference(
        g: &Graph,
        origin: NodeId,
        target: NodeId,
        weight: impl Fn(EdgeId) -> Option<u64>,
    ) -> (Vec<Option<u64>>, Option<Vec<EdgeId>>) {
        let mut dist = vec![u64::MAX; g.node_count()];
        let mut prev = vec![None; g.node_count()];
        let mut settled = vec![None; g.node_count()];
        let mut heap = BinaryHeap::new();
        dist[origin.index()] = 0;
        heap.push(Reverse((0, origin)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u.index()] {
                continue;
            }
            settled[u.index()] = Some(d);
            if u == target {
                break;
            }
            for &e in g.out_edges(u) {
                let Some(w) = weight(e) else { continue };
                let v = g.edge(e).dst;
                let nd = d.saturating_add(w);
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    prev[v.index()] = Some(e);
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        let path = settled[target.index()].map(|_| {
            let mut edges = Vec::new();
            let mut at = target;
            while at != origin {
                let e = prev[at.index()].expect("a settled node has a tree edge");
                edges.push(e);
                at = g.edge(e).src;
            }
            edges.reverse();
            edges
        });
        (settled, path)
    }

    /// A random graph of `6..20` nodes, each pair linked with chance
    /// `percent` % at 1–3 ms: dense, and most pairs tie on latency.
    fn dense_graph(below: &mut impl FnMut(u64) -> u64, percent: u64) -> Graph {
        let n = 6 + below(14) as usize;
        let mut b = crate::GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(&format!("N{i}"))).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                if below(100) < percent {
                    b.add_link(nodes[i], nodes[j], Micros::from_millis(1 + below(3)), 1).unwrap();
                }
            }
        }
        b.build()
    }

    /// The path the last forward search found to `t`, if it reached it.
    fn path_to(ws: &SearchWorkspace, g: &Graph, t: NodeId) -> Option<Vec<EdgeId>> {
        let mut edges = Vec::new();
        ws.append_path_to(g, t, &mut edges).then_some(edges)
    }

    #[test]
    fn a_zero_floor_is_the_plain_search_and_an_aimed_one_finds_its_path() {
        let mut state = 0x2026u64;
        let mut below = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut ws = SearchWorkspace::new();
        let mut aimed_pairs = 0;
        for _ in 0..40 {
            let g = dense_graph(&mut below, 40);
            let latency = |e: EdgeId| Some(g.edge(e).latency.as_micros());
            // Latency first, an edge hash after it: unique optima.
            let hashes: Vec<u64> = g.edges().map(|_| below(1 << 32)).collect();
            let unique =
                |e: EdgeId| Some((g.edge(e).latency.as_micros() << 32) + hashes[e.index()]);
            for t in g.nodes() {
                // Plain latency on to `t` over the whole graph, scaled as
                // `unique` scales it: a consistent floor.
                let floor: Vec<u64> = ws
                    .reach_pass(&g, t, Direction::Backward)
                    .unwrap()
                    .iter()
                    .map(|&us| us.saturating_mul(1 << 32))
                    .collect();
                for s in g.nodes().filter(|&s| s != t) {
                    // A zero floor finds the path the loop found before it
                    // took one, and the same distance at every node that
                    // loop settled. (It also pops the nodes keyed `d(t)`
                    // after `t`, so their distances may be final where the
                    // old loop's were not.)
                    ws.search_toward(&g, s, t, latency, |_| 0).unwrap();
                    let (settled, path) = unaimed_reference(&g, s, t, latency);
                    assert_eq!(path_to(&ws, &g, t), path, "{s}->{t}");
                    for v in g.nodes() {
                        if let Some(d) = settled[v.index()] {
                            assert_eq!(ws.distance_to(v), Some(d), "{s}->{t} at {v}");
                        }
                    }

                    ws.search_from(&g, s, Some(t), unique).unwrap();
                    let plain = path_to(&ws, &g, t);
                    ws.search_toward(&g, s, t, unique, |v| floor[v.index()]).unwrap();
                    assert_eq!(path_to(&ws, &g, t), plain, "{s}->{t}");
                    aimed_pairs += usize::from(plain.is_some());
                }
            }
        }
        assert!(aimed_pairs > 1_000, "too few routable pairs to mean anything: {aimed_pairs}");
    }

    #[test]
    fn an_aimed_search_settles_ties_as_the_plain_one_does() {
        // Plain latency, where routes tie: the aimed path is the plain
        // search's, with the reach pass as floor and with a zero one.
        let mut state = 0x2028u64;
        let mut below = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut ws = SearchWorkspace::new();
        let (mut pairs, mut tied) = (0, 0);
        for _ in 0..300 {
            let g = dense_graph(&mut below, 40);
            let latency = |e: EdgeId| Some(g.edge(e).latency.as_micros());
            let floors: Vec<Vec<u64>> = g
                .nodes()
                .map(|t| ws.reach_pass(&g, t, Direction::Backward).unwrap().to_vec())
                .collect();
            let zero = vec![0; g.node_count()];
            for s in g.nodes() {
                let from_s = ws.reach_pass(&g, s, Direction::Forward).unwrap().to_vec();
                // Whether more than one edge enters `v` at its distance.
                let ties_into = |v: NodeId| {
                    let at = |e: &&EdgeId| {
                        let u = g.edge(**e).src;
                        from_s[u.index()].saturating_add(latency(**e).unwrap()) == from_s[v.index()]
                    };
                    g.in_edges(v).iter().filter(at).count() > 1
                };
                for t in g.nodes().filter(|&t| t != s) {
                    ws.search_from(&g, s, Some(t), latency).unwrap();
                    let Some(plain) = path_to(&ws, &g, t) else { continue };
                    for floor in [&floors[t.index()], &zero] {
                        ws.search_toward(&g, s, t, latency, |v| floor[v.index()]).unwrap();
                        assert_eq!(path_to(&ws, &g, t).as_ref(), Some(&plain), "{s}->{t}");
                    }
                    pairs += 1;
                    tied += usize::from(plain.iter().any(|&e| ties_into(g.edge(e).dst)));
                }
            }
        }
        assert!(pairs > 40_000 && tied > pairs / 5, "{pairs} pairs, {tied} of them tied");
    }
}
