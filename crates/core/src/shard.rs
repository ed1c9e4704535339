//! [`ShardedCache`]: an N-way sharded [`CompilationCache`] for serving
//! concurrent traffic.
//!
//! A single [`CompilationCache`] serializes every lookup behind one
//! mutex; under many concurrent clients (the `trios-server` daemon) that
//! lock becomes the hot spot. A [`ShardedCache`] splits the key space
//! across independent shards — each its own `CompilationCache` with its
//! own lock — so lookups for different shards never contend. Shard
//! routing is a **pure function of the key** (and the shard count), so a
//! key always lands in the same shard, and with one shard the structure
//! behaves exactly like a plain `CompilationCache`.

use crate::cache::{CacheEntry, CacheStats, CachedCompilation, CompilationCache, CompileJob};
use crate::report::PassRecord;
use crate::{CompileOptions, CompiledProgram};
use std::fmt;
use std::sync::Arc;
use trios_ir::Circuit;
use trios_topology::Topology;

/// An N-way sharded LRU compilation cache.
///
/// Keys (from [`CompilationCache::key`]) are routed to shards by a fixed
/// bit-mixing hash; capacity and LRU eviction are per shard. Aggregate
/// counters come from [`ShardedCache::stats`]; per-shard breakdowns from
/// [`ShardedCache::shard_stats`].
///
/// # Examples
///
/// ```
/// use trios_core::ShardedCache;
///
/// let cache = ShardedCache::new(4, 64); // 4 shards x 64 entries
/// assert_eq!(cache.num_shards(), 4);
/// assert_eq!(cache.stats().capacity, 256);
/// // Routing is deterministic: the same key always picks the same shard.
/// assert_eq!(cache.shard_of(42), cache.shard_of(42));
/// ```
pub struct ShardedCache {
    shards: Vec<CompilationCache>,
}

/// Mixes a key before shard selection so shard choice does not correlate
/// with the low bits the per-shard `HashMap`s bucket on (SplitMix64
/// finalizer).
fn mix(key: u64) -> u64 {
    let mut k = key;
    k ^= k >> 30;
    k = k.wrapping_mul(0xbf58476d1ce4e5b9);
    k ^= k >> 27;
    k = k.wrapping_mul(0x94d049bb133111eb);
    k ^ (k >> 31)
}

impl ShardedCache {
    /// A cache of `shards` independent shards (clamped to at least 1),
    /// each holding at most `capacity_per_shard` compilations
    /// (`0` disables storage, exactly as for [`CompilationCache`]).
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| CompilationCache::new(capacity_per_shard))
                .collect(),
        }
    }

    /// A cache of `shards` shards whose **total** capacity is
    /// `total_capacity`, distributing `ceil(total / shards)` entries to
    /// each shard (`total_capacity` 0 disables caching).
    pub fn with_total_capacity(shards: usize, total_capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = if total_capacity == 0 {
            0
        } else {
            total_capacity.div_ceil(shards)
        };
        ShardedCache::new(shards, per_shard)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to — a pure function of `(key,
    /// num_shards)`: no interior state participates, so the same key
    /// always lands in the same shard of any equally-sharded cache.
    pub fn shard_of(&self, key: u64) -> usize {
        (mix(key) % self.shards.len() as u64) as usize
    }

    /// Direct access to one shard (for inspection; indices are
    /// `0..num_shards`).
    pub fn shard(&self, index: usize) -> &CompilationCache {
        &self.shards[index]
    }

    /// [`CompilationCache::lookup`] in `key`'s shard: the shared entry
    /// if it answers the job, counted as a hit, miss or collision there.
    pub fn lookup(
        &self,
        key: u64,
        circuit: &Circuit,
        device: &Topology,
        options: &CompileOptions,
    ) -> Option<Arc<CacheEntry>> {
        self.shards[self.shard_of(key)].lookup(key, circuit, device, options)
    }

    /// [`CompilationCache::store`] in `key`'s shard, evicting that shard's
    /// LRU entry when full; returns the shared entry.
    pub fn store(
        &self,
        key: u64,
        job: CompileJob,
        program: &CompiledProgram,
        passes: &[PassRecord],
    ) -> Arc<CacheEntry> {
        self.shards[self.shard_of(key)].store(key, job, program, passes)
    }

    /// The unchecked [`CompilationCache::get`] in `key`'s shard, kept for
    /// perfbench's traced serve replay alone.
    pub fn get(&self, key: u64) -> Option<CachedCompilation> {
        self.shards[self.shard_of(key)].get(key)
    }

    /// The unchecked [`CompilationCache::insert`] in `key`'s shard, kept
    /// for perfbench's traced serve replay alone.
    pub fn insert(&self, key: u64, value: CachedCompilation) {
        self.shards[self.shard_of(key)].insert(key, value)
    }

    /// Aggregate counters summed over every shard. Each shard's snapshot
    /// is internally consistent; the sum is taken shard by shard, so
    /// under concurrent traffic the aggregate is a slightly smeared (but
    /// never negative or double-counted) view.
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .map(CompilationCache::stats)
            .fold(CacheStats::default(), CacheStats::merge)
    }

    /// Per-shard snapshots, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(CompilationCache::stats).collect()
    }

    /// Total entries cached across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(CompilationCache::len).sum()
    }

    /// `true` when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and resets every shard's counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.clear();
        }
    }
}

impl fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("capacity", &stats.capacity)
            .field("len", &stats.len)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("collisions", &stats.collisions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CompileReport, CompileStats};
    use crate::CompiledProgram;
    use trios_ir::Circuit;
    use trios_route::Layout;

    fn dummy(tag: usize) -> CachedCompilation {
        let mut circuit = Circuit::new(2);
        for _ in 0..tag {
            circuit.h(0);
        }
        let program = CompiledProgram {
            circuit,
            initial_layout: Layout::trivial(2, 2),
            final_layout: Layout::trivial(2, 2),
            stats: CompileStats::default(),
        };
        (
            program,
            CompileReport::new(Vec::new(), CompileStats::default()),
        )
    }

    #[test]
    fn routing_is_pure_and_in_range() {
        let a = ShardedCache::new(8, 4);
        let b = ShardedCache::new(8, 4);
        for key in (0..1000u64).chain([u64::MAX, u64::MAX - 1]) {
            let shard = a.shard_of(key);
            assert!(shard < 8);
            assert_eq!(shard, a.shard_of(key), "routing must be deterministic");
            assert_eq!(
                shard,
                b.shard_of(key),
                "routing must not depend on instance state"
            );
        }
    }

    #[test]
    fn routing_spreads_keys_across_shards() {
        let cache = ShardedCache::new(8, 4);
        let mut seen = vec![false; 8];
        for key in 0..64u64 {
            seen[cache.shard_of(key)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "64 sequential keys should touch all 8 shards: {seen:?}"
        );
    }

    #[test]
    fn get_and_insert_route_to_the_same_shard() {
        let cache = ShardedCache::new(4, 4);
        for key in 0..32u64 {
            cache.insert(key, dummy(key as usize));
            assert!(cache.get(key).is_some(), "key {key} must be found again");
        }
        // Every hit and miss landed in exactly one shard's counters.
        let stats = cache.stats();
        assert_eq!(stats.hits, 32);
        assert_eq!(stats.misses, 0);
        assert_eq!(
            stats.len, 16,
            "4 shards x 4 capacity cap total occupancy at 16"
        );
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), 32);
        for (i, s) in per_shard.iter().enumerate() {
            assert!(s.len <= 4, "shard {i} over capacity: {s:?}");
        }
    }

    #[test]
    fn checked_lookups_and_stores_route_to_the_same_shard() {
        let cache = ShardedCache::new(4, 4);
        let device = trios_topology::line(2);
        let options = CompileOptions::default();
        let circuit = |tag: usize| dummy(tag).0.circuit;
        for key in 0..8u64 {
            let job = CompileJob::new(&circuit(key as usize), &device, options.clone());
            let (program, report) = dummy(key as usize);
            let stored = cache.store(key, job, &program, &report.passes);
            let found = cache.lookup(key, &circuit(key as usize), &device, &options);
            assert!(found.is_some_and(|found| Arc::ptr_eq(&found, &stored)));
            // Another circuit under the key is a collision in that shard.
            assert!(cache
                .lookup(key, &circuit(key as usize + 1), &device, &options)
                .is_none());
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.collisions), (8, 8, 8));
        for shard in cache.shard_stats() {
            assert_eq!(
                (shard.hits, shard.misses),
                (shard.collisions, shard.collisions)
            );
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let cache = ShardedCache::new(0, 2);
        assert_eq!(cache.num_shards(), 1);
        cache.insert(7, dummy(1));
        assert!(cache.get(7).is_some());
        assert_eq!(cache.shard_of(u64::MAX), 0);
    }

    #[test]
    fn total_capacity_distributes_with_ceiling() {
        assert_eq!(
            ShardedCache::with_total_capacity(4, 256).stats().capacity,
            256
        );
        // 10 entries over 4 shards: ceil = 3 each, 12 total.
        assert_eq!(
            ShardedCache::with_total_capacity(4, 10).stats().capacity,
            12
        );
        let off = ShardedCache::with_total_capacity(4, 0);
        assert_eq!(off.stats().capacity, 0);
        off.insert(1, dummy(1));
        assert_eq!(off.len(), 0, "capacity 0 disables storage");
    }

    #[test]
    fn clear_resets_every_shard() {
        let cache = ShardedCache::new(4, 4);
        for key in 0..16u64 {
            cache.insert(key, dummy(1));
        }
        let _ = cache.get(0);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(
            cache.stats(),
            CacheStats {
                capacity: 16,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn debug_shows_aggregate_occupancy() {
        let cache = ShardedCache::new(2, 4);
        cache.insert(1, dummy(1));
        let text = format!("{cache:?}");
        assert!(text.contains("shards: 2"), "{text}");
        assert!(text.contains("len: 1"), "{text}");
    }
}
