//! Keyed precomputation cache with per-entry edge-dependency tracking.
//!
//! Routing at 50–500 nodes cannot afford to recompute every
//! dissemination graph from scratch on each link-state change. This
//! module provides the generic machinery for *incremental
//! invalidation*: each cached value records the set of edges its
//! computation depended on ([`EdgeSet`]), and a link-state change on
//! edge `e` evicts exactly the entries whose dependency set contains
//! `e` — everything else stays served from cache.
//!
//! Entries are additionally scoped to a **topology epoch**: advancing
//! the epoch (a membership or link change to the graph itself, as
//! opposed to a condition change on an existing link) flushes every
//! entry at once. Together the two give the keying the scale-out
//! design calls for: `(topology epoch, key) → value` with per-edge
//! incremental invalidation inside an epoch.
//!
//! The dissemination-graph-specific layer on top lives in
//! `dg-core::cache`; this module is deliberately value-agnostic.

use crate::EdgeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// A compact set of [`EdgeId`]s (bitset over the dense edge index).
///
/// Two sets are equal when they hold the same edges: a set that once
/// held a high edge keeps the storage for it, and that storage does not
/// count.
#[derive(Debug, Clone, Default)]
pub struct EdgeSet {
    bits: Vec<u64>,
}

impl PartialEq for EdgeSet {
    fn eq(&self, other: &EdgeSet) -> bool {
        let (short, long) = if self.bits.len() <= other.bits.len() {
            (&self.bits, &other.bits)
        } else {
            (&other.bits, &self.bits)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for EdgeSet {}

impl EdgeSet {
    /// An empty set.
    pub fn new() -> Self {
        EdgeSet::default()
    }

    /// Inserts `edge`; returns whether it was newly added.
    pub fn insert(&mut self, edge: EdgeId) -> bool {
        let (word, bit) = (edge.index() / 64, edge.index() % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let had = self.bits[word] & (1 << bit) != 0;
        self.bits[word] |= 1 << bit;
        !had
    }

    /// Empties the set, keeping its storage.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Removes `edge`; returns whether it was present.
    pub fn remove(&mut self, edge: EdgeId) -> bool {
        let (word, bit) = (edge.index() / 64, edge.index() % 64);
        if word >= self.bits.len() {
            return false;
        }
        let had = self.bits[word] & (1 << bit) != 0;
        self.bits[word] &= !(1 << bit);
        had
    }

    /// Whether `edge` is in the set.
    pub fn contains(&self, edge: EdgeId) -> bool {
        let (word, bit) = (edge.index() / 64, edge.index() % 64);
        self.bits.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Whether any edge is in both sets.
    pub fn intersects(&self, other: &EdgeSet) -> bool {
        self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
    }

    /// Number of edges in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterates the member edges in index order, a step per member
    /// rather than per bit.
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.bits.iter().enumerate().flat_map(|(word, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    EdgeId::new((word * 64 + bit) as u32)
                })
            })
        })
    }
}

impl FromIterator<EdgeId> for EdgeSet {
    fn from_iter<I: IntoIterator<Item = EdgeId>>(iter: I) -> Self {
        let mut set = EdgeSet::new();
        for e in iter {
            set.insert(e);
        }
        set
    }
}

/// Hit/miss/invalidation counters for one [`PrecomputeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct CacheStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that required a fresh computation.
    pub misses: u64,
    /// Entries evicted by per-edge invalidation.
    pub invalidated: u64,
    /// Entries flushed by an epoch advance.
    pub epoch_flushed: u64,
}

struct Entry<V> {
    value: Arc<V>,
    deps: EdgeSet,
}

/// A keyed cache whose entries are evicted by the edges they depend
/// on (see the module docs). Values are interned behind [`Arc`], so a
/// hit shares the existing computation instead of cloning it.
pub struct PrecomputeCache<K, V> {
    epoch: u64,
    entries: HashMap<K, Entry<V>>,
    stats: CacheStats,
}

impl<K: Eq + Hash, V> Default for PrecomputeCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V> PrecomputeCache<K, V> {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        PrecomputeCache { epoch: 0, entries: HashMap::new(), stats: CacheStats::default() }
    }

    /// The current topology epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the topology epoch, flushing every entry (the graph
    /// itself changed, so nothing computed against it survives).
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
        self.stats.epoch_flushed += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Looks `key` up, counting a hit or miss.
    pub fn get(&mut self, key: &K) -> Option<Arc<V>> {
        match self.entries.get(key) {
            Some(entry) => {
                self.stats.hits += 1;
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks `key` up without touching the counters.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.entries.get(key).map(|e| Arc::clone(&e.value))
    }

    /// Stores a freshly computed `value` whose computation depended on
    /// `deps`, returning the interned handle.
    pub fn insert(&mut self, key: K, value: V, deps: EdgeSet) -> Arc<V> {
        let value = Arc::new(value);
        self.entries.insert(key, Entry { value: Arc::clone(&value), deps });
        value
    }

    /// Evicts every entry whose dependency set contains `edge`;
    /// returns how many were evicted.
    pub fn invalidate_edge(&mut self, edge: EdgeId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| !e.deps.contains(edge));
        let evicted = before - self.entries.len();
        self.stats.invalidated += evicted as u64;
        evicted
    }

    /// Evicts every entry whose dependency set intersects `edges`;
    /// returns how many were evicted.
    pub fn invalidate_edges(&mut self, edges: &EdgeSet) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| !e.deps.intersects(edges));
        let evicted = before - self.entries.len();
        self.stats.invalidated += evicted as u64;
        evicted
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the counters (entries are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EdgeId {
        EdgeId::new(i)
    }

    #[test]
    fn edge_set_basics() {
        let mut s = EdgeSet::new();
        assert!(s.is_empty());
        assert!(s.insert(e(3)));
        assert!(!s.insert(e(3)));
        assert!(s.insert(e(130)));
        assert!(s.contains(e(3)) && s.contains(e(130)) && !s.contains(e(4)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![e(3), e(130)]);
        assert!(s.remove(e(3)));
        assert!(!s.remove(e(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn edge_sets_compare_by_members() {
        let mut grown: EdgeSet = [e(3), e(200)].into_iter().collect();
        grown.remove(e(200));
        let fresh: EdgeSet = [e(3)].into_iter().collect();
        assert_eq!(grown, fresh, "storage for a removed high edge is not a member");
        assert_eq!(fresh, grown);
        let mut emptied = grown.clone();
        emptied.clear();
        assert_eq!(emptied, EdgeSet::new());
        assert_ne!(fresh, EdgeSet::new());
        assert_ne!(grown, [e(3), e(4)].into_iter().collect::<EdgeSet>());
        assert_ne!([e(130)].into_iter().collect::<EdgeSet>(), fresh);
    }

    #[test]
    fn edge_set_iter_yields_exactly_the_members_in_order() {
        let members = [0, 1, 63, 64, 65, 127, 128, 191, 400];
        let mut set: EdgeSet = members.iter().map(|&i| e(i)).collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), members.map(e).to_vec());
        // A full word and an emptied one.
        for i in 192..256 {
            set.insert(e(i));
        }
        set.remove(e(400));
        let expected: Vec<EdgeId> = members[..8].iter().copied().chain(192..256).map(e).collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), expected);
        assert_eq!(set.iter().count(), set.len());
        assert_eq!(EdgeSet::new().iter().next(), None);
    }

    #[test]
    fn edge_set_intersection() {
        let a: EdgeSet = [e(1), e(70)].into_iter().collect();
        let b: EdgeSet = [e(70)].into_iter().collect();
        let c: EdgeSet = [e(2)].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!EdgeSet::new().intersects(&a));
    }

    #[test]
    fn cache_hit_miss_and_interning() {
        let mut c: PrecomputeCache<&str, u64> = PrecomputeCache::new();
        assert!(c.get(&"k").is_none());
        let v = c.insert("k", 7, EdgeSet::new());
        let again = c.get(&"k").unwrap();
        assert!(Arc::ptr_eq(&v, &again));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn invalidation_is_dependency_scoped() {
        let mut c: PrecomputeCache<u32, u32> = PrecomputeCache::new();
        c.insert(1, 10, [e(5)].into_iter().collect());
        c.insert(2, 20, [e(6)].into_iter().collect());
        c.insert(3, 30, EdgeSet::new());
        assert_eq!(c.invalidate_edge(e(5)), 1);
        assert!(c.peek(&1).is_none());
        assert!(c.peek(&2).is_some());
        assert!(c.peek(&3).is_some());
        assert_eq!(c.stats().invalidated, 1);
        let set: EdgeSet = [e(6), e(7)].into_iter().collect();
        assert_eq!(c.invalidate_edges(&set), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn epoch_advance_flushes_everything() {
        let mut c: PrecomputeCache<u32, u32> = PrecomputeCache::new();
        c.insert(1, 10, EdgeSet::new());
        c.insert(2, 20, [e(0)].into_iter().collect());
        assert_eq!(c.epoch(), 0);
        c.advance_epoch();
        assert_eq!(c.epoch(), 1);
        assert!(c.is_empty());
        assert_eq!(c.stats().epoch_flushed, 2);
    }
}
