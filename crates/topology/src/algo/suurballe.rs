//! Suurballe's algorithm for a minimum-total-latency disjoint pair.
//!
//! Functionally equivalent to [`crate::algo::disjoint::disjoint_pair`]
//! (Bhandari), but built on Dijkstra with reduced costs instead of
//! Bellman–Ford over negative arcs: after the first shortest-path pass,
//! every arc is re-weighted by the potentials `w'(u,v) = w + d(u) -
//! d(v) >= 0`, so the residual search needs no negative-weight support.
//! Two independent implementations of the same optimization problem
//! make an excellent cross-check — the property suite asserts they
//! agree on every random graph.
//!
//! It is a test reference, not a faster path. Its searches run whole,
//! over every arc the first one reached, and it settles ties in its own
//! order. The search workspace's aimed rounds
//! ([`crate::algo::SearchWorkspace::k_disjoint_paths_toward`]) are
//! Dijkstra over reduced costs too, but stopped at the destination and
//! replaying Bellman–Ford's scan order where arcs tie. Nothing outside
//! the tests calls it.

use crate::algo::disjoint::{decompose, split_endpoints, Disjointness};
use crate::{EdgeId, Graph, NodeId, Path, TopologyError};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Finds two disjoint paths of minimum total latency via Suurballe's
/// algorithm; the pair is ordered by latency.
///
/// # Errors
///
/// Same conditions as [`crate::algo::disjoint::disjoint_pair`].
pub fn suurballe_pair(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    mode: Disjointness,
) -> Result<(Path, Path), TopologyError> {
    graph.check_node(src)?;
    graph.check_node(dst)?;
    if src == dst {
        return Err(TopologyError::NoRoute(src, dst));
    }
    let base = build_base(graph, mode, &|e| Some(graph.edge(e).latency.as_micros() as i64));
    let (s, t) = split_endpoints(src, dst, mode);

    // Pass 1: plain Dijkstra for potentials and the first path.
    let out = out_adjacency(&base);
    let (dist, prev) = dijkstra_arcs(&base, &out, s, |_, w| w);
    if dist[t] == i64::MAX {
        return Err(TopologyError::InsufficientDisjointPaths { requested: 2, available: 0 });
    }
    let p1: Vec<usize> = walk_back(&base, &prev, s, t);
    let p1_set: HashSet<usize> = p1.iter().copied().collect();

    // Pass 2: Dijkstra over reduced costs with P1 reversed at cost 0.
    // Arc representation: forward arcs (not on P1) keep reduced cost;
    // P1 arcs appear only reversed.
    let mut arcs2: Vec<(usize, usize, i64, ArcRef)> = Vec::with_capacity(base.arcs.len());
    for (i, a) in base.arcs.iter().enumerate() {
        if dist[a.from] == i64::MAX {
            continue; // unreachable tail: irrelevant in pass 2 too
        }
        if p1_set.contains(&i) {
            arcs2.push((a.to, a.from, 0, ArcRef::ReverseOf(i)));
        } else if dist[a.to] != i64::MAX {
            let reduced = a.weight + dist[a.from] - dist[a.to];
            debug_assert!(reduced >= 0, "potentials must make costs non-negative");
            arcs2.push((a.from, a.to, reduced, ArcRef::Forward(i)));
        }
    }
    let mut out2 = vec![Vec::new(); base.node_count];
    for (j, &(from, ..)) in arcs2.iter().enumerate() {
        out2[from].push(j);
    }
    let (dist2, prev2) = dijkstra_indexed(base.node_count, &arcs2, &out2, s);
    if dist2[t] == i64::MAX {
        return Err(TopologyError::InsufficientDisjointPaths { requested: 2, available: 1 });
    }

    // Combine: P1 plus P2, cancelling anti-parallel usage.
    let mut used = p1_set;
    let mut at = t;
    while at != s {
        let j = prev2[at].expect("reachable node has predecessor");
        match arcs2[j].3 {
            ArcRef::Forward(i) => {
                used.insert(i);
            }
            ArcRef::ReverseOf(i) => {
                used.remove(&i);
            }
        }
        at = arcs2[j].0;
    }

    let mut selected: Vec<usize> = used.into_iter().collect();
    selected.sort_unstable();
    let mut paths = decompose(graph, &mut selected, s, t, 2, |i| {
        let a = &base.arcs[i];
        (a.from, a.to, a.edge)
    });
    paths.sort_by_key(|p| p.latency(graph));
    let second = paths.pop().expect("two disjoint paths");
    let first = paths.pop().expect("two disjoint paths");
    Ok((first, second))
}

pub(crate) struct BaseArc {
    pub(crate) from: usize,
    pub(crate) to: usize,
    pub(crate) weight: i64,
    /// The overlay edge this arc represents; `None` for node-internal
    /// arcs introduced by node splitting.
    pub(crate) edge: Option<EdgeId>,
}

pub(crate) struct Base {
    pub(crate) node_count: usize,
    pub(crate) arcs: Vec<BaseArc>,
}

pub(crate) fn build_base<W>(graph: &Graph, mode: Disjointness, weight: &W) -> Base
where
    W: Fn(EdgeId) -> Option<i64>,
{
    match mode {
        Disjointness::Edge => Base {
            node_count: graph.node_count(),
            arcs: graph
                .edges()
                .filter_map(|e| {
                    let w = weight(e)?;
                    let info = graph.edge(e);
                    Some(BaseArc {
                        from: info.src.index(),
                        to: info.dst.index(),
                        weight: w,
                        edge: Some(e),
                    })
                })
                .collect(),
        },
        Disjointness::Node => {
            // Node v splits into v_in = 2v and v_out = 2v + 1.
            let mut arcs: Vec<BaseArc> = (0..graph.node_count())
                .map(|v| BaseArc { from: v * 2, to: v * 2 + 1, weight: 0, edge: None })
                .collect();
            arcs.extend(graph.edges().filter_map(|e| {
                let w = weight(e)?;
                let info = graph.edge(e);
                Some(BaseArc {
                    from: info.src.index() * 2 + 1,
                    to: info.dst.index() * 2,
                    weight: w,
                    edge: Some(e),
                })
            }));
            Base { node_count: graph.node_count() * 2, arcs }
        }
    }
}

#[derive(Clone, Copy)]
enum ArcRef {
    Forward(usize),
    ReverseOf(usize),
}

fn out_adjacency(base: &Base) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); base.node_count];
    for (i, a) in base.arcs.iter().enumerate() {
        out[a.from].push(i);
    }
    out
}

fn dijkstra_arcs(
    base: &Base,
    out: &[Vec<usize>],
    s: usize,
    weight: impl Fn(usize, i64) -> i64,
) -> (Vec<i64>, Vec<Option<usize>>) {
    let mut dist = vec![i64::MAX; base.node_count];
    let mut prev = vec![None; base.node_count];
    let mut heap = BinaryHeap::new();
    dist[s] = 0;
    heap.push(Reverse((0i64, s)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &i in &out[u] {
            let a = &base.arcs[i];
            let nd = d + weight(i, a.weight);
            if nd < dist[a.to] {
                dist[a.to] = nd;
                prev[a.to] = Some(i);
                heap.push(Reverse((nd, a.to)));
            }
        }
    }
    (dist, prev)
}

fn dijkstra_indexed(
    n: usize,
    arcs: &[(usize, usize, i64, ArcRef)],
    out: &[Vec<usize>],
    s: usize,
) -> (Vec<i64>, Vec<Option<usize>>) {
    let mut dist = vec![i64::MAX; n];
    let mut prev = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[s] = 0;
    heap.push(Reverse((0i64, s)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &j in &out[u] {
            let (_, to, w, _) = arcs[j];
            let nd = d + w;
            if nd < dist[to] {
                dist[to] = nd;
                prev[to] = Some(j);
                heap.push(Reverse((nd, to)));
            }
        }
    }
    (dist, prev)
}

fn walk_back(base: &Base, prev: &[Option<usize>], s: usize, t: usize) -> Vec<usize> {
    let mut arcs = Vec::new();
    let mut at = t;
    while at != s {
        let i = prev[at].expect("reachable node has predecessor");
        arcs.push(i);
        at = base.arcs[i].from;
    }
    arcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::disjoint::disjoint_pair;
    use crate::{presets, GraphBuilder, Micros};

    #[test]
    fn matches_bhandari_on_the_trap_graph() {
        // Same trap as disjoint.rs: greedy fails, optimal total is 22ms.
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
        let g = b.build();
        let (p1, p2) = suurballe_pair(&g, a, z, Disjointness::Node).unwrap();
        assert!(p1.is_node_disjoint(&g, &p2));
        assert_eq!(p1.latency(&g) + p2.latency(&g), Micros::from_millis(22));
    }

    #[test]
    fn agrees_with_bhandari_on_every_preset_flow() {
        for g in [presets::north_america_12(), presets::global_16()] {
            for s in g.nodes() {
                for t in g.nodes() {
                    if s == t {
                        continue;
                    }
                    for mode in [Disjointness::Edge, Disjointness::Node] {
                        let ours = suurballe_pair(&g, s, t, mode);
                        let theirs = disjoint_pair(&g, s, t, mode);
                        match (ours, theirs) {
                            (Ok((a1, a2)), Ok((b1, b2))) => {
                                assert_eq!(
                                    a1.latency(&g) + a2.latency(&g),
                                    b1.latency(&g) + b2.latency(&g),
                                    "{}->{} {mode:?}",
                                    g.node(s).name,
                                    g.node(t).name
                                );
                            }
                            (Err(ea), Err(eb)) => assert_eq!(ea, eb),
                            (a, b) => {
                                panic!("algorithms disagree for {s}->{t} {mode:?}: {a:?} vs {b:?}")
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let g = presets::ring(4, Micros::from_millis(1));
        let a = g.node_by_name("R0").unwrap();
        assert!(suurballe_pair(&g, a, a, Disjointness::Node).is_err());
    }

    #[test]
    fn single_route_reports_one_available() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let m = b.add_node("M");
        let z = b.add_node("Z");
        b.add_link(a, m, Micros::from_millis(1), 1).unwrap();
        b.add_link(m, z, Micros::from_millis(1), 1).unwrap();
        let g = b.build();
        assert_eq!(
            suurballe_pair(&g, a, z, Disjointness::Edge),
            Err(TopologyError::InsufficientDisjointPaths { requested: 2, available: 1 })
        );
    }
}
