//! A sharded hash map: keys spread across a fixed set of independently
//! locked shards.
//!
//! Nothing in this crate uses it any more — a node's tables are plain
//! fields of its core, behind the node's one lock. It survives only as
//! the hidden export `benchmark/src/layers.rs` times
//! (`overlay.shard.with_ns`), to be deleted with the `Runtime` /
//! `launch_on` shim by the next benchmark PR.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

    /// The locked shard holding `key`. A poisoned shard is taken as
    /// it stands: a map operation leaves no half-written entry.
    fn shard(&self, key: &K) -> MutexGuard<'_, HashMap<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let shard = &self.shards[(hasher.finish() as usize) % SHARDS];
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Inserts a value, returning the previous one if present.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard(&key).insert(key, value)
    }

    /// Applies `f` to the value for `key` under the shard lock, or
    /// returns `None` when the key is absent; never clones the value.
    pub fn with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.shard(key).get(key).map(f)
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
        assert_eq!(map.insert(7, "seven".into()), None);
        assert_eq!(map.insert(7, "VII".into()), Some("seven".into()));
        assert_eq!(map.with(&7, String::len), Some(3));
        assert_eq!(map.with(&8, String::len), None);
    }

    #[test]
    fn contended_threads_see_consistent_state() {
        // 8 writer threads hammer disjoint key ranges, every key of
        // which lands on some shard; no entry may be lost or torn.
        const WRITERS: u64 = 8;
        const KEYS_PER_WRITER: u64 = 500;
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let map = &map;
                scope.spawn(move || {
                    for key in w * KEYS_PER_WRITER..(w + 1) * KEYS_PER_WRITER {
                        map.insert(key, key * 3);
                        assert_eq!(map.with(&key, |v| *v), Some(key * 3));
                    }
                });
            }
        });
        for key in 0..WRITERS * KEYS_PER_WRITER {
            assert_eq!(map.with(&key, |v| *v), Some(key * 3));
        }
    }
}
