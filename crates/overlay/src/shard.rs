//! A sharded hash map for hot-path shared state.
//!
//! The overlay's delivery path touches per-flow and per-link tables on
//! every packet. A single `Mutex<HashMap>` serializes all of that
//! traffic; [`ShardedMap`] spreads keys across a fixed set of
//! independently locked shards so unrelated flows stop contending.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Number of independently locked shards. A small power of two keeps
/// the modulo cheap while comfortably exceeding the thread counts the
/// overlay runs with (rx + ship + tick + application senders).
const SHARDS: usize = 16;

/// A concurrent map split into independently locked shards.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        ShardedMap { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Inserts a value, returning the previous one if present.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard(&key).lock().insert(key, value)
    }

    /// Applies `f` to the value for `key` under the shard lock, or
    /// returns `None` when the key is absent; never clones the value.
    pub fn with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.shard(key).lock().get(key).map(f)
    }

    /// Returns the value for `key`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&self, key: &K, make: impl FnOnce() -> V) -> V {
        let mut shard = self.shard(key).lock();
        shard.entry(key.clone()).or_insert_with(make).clone()
    }

    /// Snapshots every entry. Locks shards one at a time, so the result
    /// is not a point-in-time atomic view across shards.
    pub fn entries(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock();
            out.extend(guard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_replaces_and_with_reads() {
        let map: ShardedMap<u64, String> = ShardedMap::new();
        assert!(map.entries().is_empty());
        assert_eq!(map.insert(7, "seven".into()), None);
        assert_eq!(map.insert(7, "VII".into()), Some("seven".into()));
        assert_eq!(map.with(&7, String::len), Some(3));
        assert_eq!(map.with(&8, String::len), None);
    }

    #[test]
    fn entries_cover_all_shards() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        for k in 0..100 {
            map.insert(k, k * 2);
        }
        let mut entries = map.entries();
        entries.sort_unstable();
        assert_eq!(entries.len(), 100);
        for (k, v) in entries {
            assert_eq!(v, k * 2);
        }
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let map: ShardedMap<&'static str, u32> = ShardedMap::new();
        assert_eq!(map.get_or_insert_with(&"a", || 1), 1);
        assert_eq!(map.get_or_insert_with(&"a", || 99), 1);
    }

    #[test]
    fn contended_threads_see_consistent_state() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        // 8 writer threads hammer disjoint key ranges while 2 readers
        // continuously snapshot; no entry may be lost, duplicated, or
        // torn, and get_or_insert_with must initialize each key exactly
        // once even when several threads race on the same key.
        const WRITERS: u64 = 8;
        const KEYS_PER_WRITER: u64 = 500;
        let map: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new());
        let initializations = Arc::new(AtomicU64::new(0));

        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let map = Arc::clone(&map);
                let initializations = Arc::clone(&initializations);
                scope.spawn(move || {
                    for i in 0..KEYS_PER_WRITER {
                        let key = w * KEYS_PER_WRITER + i;
                        map.insert(key, key * 3);
                        assert_eq!(map.with(&key, |v| *v), Some(key * 3));
                    }
                    // All writers race on one shared key; only the
                    // first may run the initializer.
                    map.get_or_insert_with(&u64::MAX, || {
                        initializations.fetch_add(1, Ordering::SeqCst);
                        42
                    });
                });
            }
            for _ in 0..2 {
                let map = Arc::clone(&map);
                scope.spawn(move || {
                    for _ in 0..50 {
                        for (k, v) in map.entries() {
                            // Values are a pure function of the key, so
                            // a torn or corrupted entry is detectable.
                            assert!((k == u64::MAX && v == 42) || v == k.wrapping_mul(3));
                        }
                    }
                });
            }
        });

        assert_eq!(map.entries().len() as u64, WRITERS * KEYS_PER_WRITER + 1);
        assert_eq!(initializations.load(Ordering::SeqCst), 1, "initializer ran more than once");
        assert_eq!(map.with(&u64::MAX, |v| *v), Some(42));
    }
}
