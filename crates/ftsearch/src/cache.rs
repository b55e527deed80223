//! Sharded, lock-striped concurrent cache for memoized evaluations.
//!
//! The FleXPath engine memoizes full-text evaluations so that the same
//! `contains` expression — appearing at several query nodes, across
//! relaxation rounds, or across *queries* sharing one session — is
//! evaluated once (the "optimize repeated computation" goal of the paper's
//! Section 1). A server runs many queries against one session at once,
//! each on its own worker thread, and they all hit that cache: a single
//! map behind one lock would serialize them on every probe.
//!
//! [`ShardedCache`] stripes the key space over 16 independently locked
//! shards (key → shard by hash). Readers on different shards never contend;
//! writers contend only within a shard. Values are handed out as
//! [`Arc`]s, so a hit never copies the (potentially large) evaluation.
//!
//! ## Sizing and eviction
//!
//! Memoized results are pure functions of `(document, expression)` and a
//! session's document is immutable, so entries never need *invalidation* —
//! but a long-lived session serving many distinct queries would otherwise
//! grow the cache without bound (every distinct `contains` expression ever
//! seen stays resident). Each of the 16 shards therefore holds at most
//! 4,096 entries and evicts its oldest-inserted entry (FIFO order) to make
//! room; total residency is bounded by `16 × 4,096` *values* (an [`Arc`]
//! still held by a running query keeps its value alive until that query
//! finishes), which is generous for one document's plausible expression
//! space. A computation raced by two threads may run twice, but exactly
//! one result wins the insert and both callers observe the same [`Arc`]
//! thereafter.
//!
//! Hit/miss/insert/eviction totals are kept as relaxed atomics and read
//! via [`ShardedCache::stats`]. Note that hit/miss splits are inherently
//! scheduling-dependent under concurrency (two racing threads may both
//! miss the same key), so observability layers should treat them as
//! nondeterministic quantities.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Shard count — enough stripes that 8–16 concurrent queries rarely
/// collide, small enough that an empty cache stays cheap.
const SHARDS: usize = 16;

/// Per-shard entry cap (so the cache holds at most `16 × 4096` entries
/// before FIFO eviction kicks in).
const SHARD_CAP: usize = 4096;

/// Point-in-time counters for a [`ShardedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Probes that found an entry.
    pub hits: u64,
    /// Probes that found nothing (each typically followed by a compute +
    /// insert; racing threads may both miss the same key).
    pub misses: u64,
    /// Entries actually inserted (lost insert races are not counted).
    pub inserts: u64,
    /// Entries evicted to respect the per-shard cap.
    pub evictions: u64,
    /// Entries currently resident (approximate while writers are active).
    pub entries: usize,
}

/// A concurrent memoization cache striped over 16 shards, each bounded to
/// 4,096 entries with FIFO eviction.
///
/// ```
/// use flexpath_ftsearch::ShardedCache;
///
/// let cache: ShardedCache<String, usize> = ShardedCache::default();
/// let v = cache.get_or_insert_with(&"answer".to_string(), || 42);
/// assert_eq!(*v, 42);
/// assert_eq!(cache.len(), 1);
/// // Second probe hits the same shared value.
/// assert!(std::sync::Arc::ptr_eq(
///     &v,
///     &cache.get_or_insert_with(&"answer".to_string(), || 0)
/// ));
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
/// ```
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Box<[Shard<K, V>]>,
    hasher: RandomState,
    shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

/// One lock stripe: an independently locked slice of the key space, with
/// its keys in insertion order for FIFO eviction.
#[derive(Debug)]
struct ShardState<K, V> {
    map: HashMap<K, Arc<V>>,
    order: VecDeque<K>,
}

type Shard<K, V> = RwLock<ShardState<K, V>>;

impl<K: Hash + Eq + Clone, V> Default for ShardedCache<K, V> {
    fn default() -> Self {
        Self::sized(SHARDS, SHARD_CAP)
    }
}

impl<K: Hash + Eq + Clone, V> ShardedCache<K, V> {
    /// A cache striped over `shards` locks, each holding at most
    /// `shard_cap` entries (the eviction tests shrink both).
    fn sized(shards: usize, shard_cap: usize) -> Self {
        ShardedCache {
            shards: (0..shards)
                .map(|_| {
                    RwLock::new(ShardState {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            hasher: RandomState::new(),
            shard_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) as usize) % self.shards.len()
    }

    // Poison-tolerant lock access: shards hold only memoized pure
    // computations, so a panic mid-insert cannot leave them inconsistent.
    fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, ShardState<K, V>> {
        self.shards[i].read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, ShardState<K, V>> {
        self.shards[i].write().unwrap_or_else(|e| e.into_inner())
    }

    /// Inserts `value` under the shard's write lock, evicting FIFO as
    /// needed. Returns the resident entry (the existing one if another
    /// thread won an insert race).
    fn insert_evicting(&self, shard: usize, key: &K, value: Arc<V>) -> Arc<V> {
        let mut state = self.write_shard(shard);
        if let Some(existing) = state.map.get(key) {
            return existing.clone();
        }
        while state.map.len() >= self.shard_cap {
            match state.order.pop_front() {
                Some(oldest) => {
                    state.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        state.order.push_back(key.clone());
        state.map.insert(key.clone(), value.clone());
        self.inserts.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Returns the cached value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let hit = self.read_shard(self.shard_of(key)).map.get(key).cloned();
        match hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Returns the cached value for `key`, computing and inserting it with
    /// `compute` on a miss.
    ///
    /// `compute` runs *outside* any lock, so a slow computation never
    /// blocks other shards (or even other keys of the same shard beyond
    /// the final insert). If two threads race on the same missing key, both
    /// compute but only the first insert wins; both return the winner.
    pub fn get_or_insert_with(&self, key: &K, compute: impl FnOnce() -> V) -> Arc<V> {
        let shard = self.shard_of(key);
        if let Some(hit) = self.read_shard(shard).map.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(compute());
        self.insert_evicting(shard, key, value)
    }

    /// Inserts `value` for `key` unless an entry already exists; returns
    /// the entry that ended up in the cache. Does not count as a probe in
    /// [`CacheStats`] (callers already probed with [`get`](Self::get)).
    pub fn insert_if_absent(&self, key: &K, value: Arc<V>) -> Arc<V> {
        self.insert_evicting(self.shard_of(key), key, value)
    }

    /// Total number of cached entries (sums the shards; approximate while
    /// writers are active).
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.read_shard(i).map.len())
            .sum()
    }

    /// `true` when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time hit/miss/insert/eviction counters plus residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn miss_computes_and_hit_shares() {
        let cache: ShardedCache<u32, String> = ShardedCache::default();
        let first = cache.get_or_insert_with(&7, || "seven".to_string());
        let second = cache.get_or_insert_with(&7, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&8).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2); // first get_or_insert + the get(&8)
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: ShardedCache<u64, u64> = ShardedCache::default();
        for k in 0..256u64 {
            cache.get_or_insert_with(&k, || k * 2);
        }
        assert_eq!(cache.len(), 256);
        assert_eq!(cache.shards.len(), SHARDS);
        // With 256 keys over 16 shards, more than one shard must be in use —
        // a same-shard pileup would mean the hash routing is broken.
        let used = (0..SHARDS)
            .filter(|&i| !cache.read_shard(i).map.is_empty())
            .count();
        assert!(used > 1, "all keys landed in one shard");
    }

    #[test]
    fn shard_cap_evicts_fifo() {
        let cache: ShardedCache<u32, u32> = ShardedCache::sized(1, 3);
        for k in 0..5u32 {
            cache.get_or_insert_with(&k, || k);
        }
        // Cap 3 on one shard: keys 0 and 1 (oldest) were evicted.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.get(&0).is_none());
        assert!(cache.get(&1).is_none());
        assert!(cache.get(&4).is_some());
        // An evicted key recomputes on next probe.
        let v = cache.get_or_insert_with(&0, || 100);
        assert_eq!(*v, 100);
    }

    #[test]
    fn concurrent_hammering_inserts_each_key_once() {
        let cache: ShardedCache<u32, u32> = ShardedCache::default();
        let computations = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for k in 0..64u32 {
                        let v = cache.get_or_insert_with(&k, || {
                            computations.fetch_add(1, Ordering::Relaxed);
                            k + 1
                        });
                        assert_eq!(*v, k + 1);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 64);
        // Racing threads may compute a key twice, but every reader of a key
        // sees one canonical Arc afterwards.
        for k in 0..64u32 {
            assert_eq!(*cache.get(&k).unwrap(), k + 1);
        }
        let stats = cache.stats();
        assert_eq!(stats.inserts, 64, "lost insert races must not count");
        assert_eq!(stats.hits + stats.misses, 8 * 64 + 64);
    }

    #[test]
    fn insert_if_absent_keeps_first_entry() {
        let cache: ShardedCache<u8, u8> = ShardedCache::default();
        let a = cache.insert_if_absent(&1, Arc::new(10));
        let b = cache.insert_if_absent(&1, Arc::new(20));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*b, 10);
        let stats = cache.stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }
}
