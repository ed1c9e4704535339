//! [`CompilationCache`]: a thread-safe LRU over finished compilations,
//! keyed by the structural hash of `(circuit, device, options)`.
//!
//! Compilation here is deterministic — every stochastic choice is seeded
//! from [`CompileOptions::seed`] and routing tie-breaks are by lowest
//! qubit index — so two jobs with equal structural keys produce
//! byte-identical output, and returning a cached result is
//! indistinguishable from recompiling (timings in the cached
//! [`CompileReport`] aside, which record the original compile).

use crate::report::CompileReport;
use crate::{CompileOptions, CompiledProgram};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;
use trios_ir::{hash, Circuit};
use trios_passes::OptimizeOptions;
use trios_route::{DirectionPolicy, InitialMapping, LookaheadConfig, PathMetric};
use trios_topology::Topology;

/// What the cache stores per key: the compiled program plus the report of
/// the compile that produced it.
pub type CachedCompilation = (CompiledProgram, CompileReport);

/// A bounded, least-recently-used cache of finished compilations.
///
/// Interior-mutable and `Sync`: one cache can be shared by the worker
/// threads of [`Compiler::compile_batch`](crate::Compiler::compile_batch), and
/// kept across batches so repeated workload sweeps (the paper's ablation
/// studies recompile the same benchmarks under many configurations) pay
/// for each distinct job once.
///
/// A capacity of `0` disables storage entirely: every lookup misses and
/// every insert is dropped, so `CompilationCache::new(0)` is a convenient
/// "caching off" switch that still keeps exact miss counters.
///
/// # Examples
///
/// ```
/// use trios_core::{CompilationCache, Compiler};
/// use trios_ir::Circuit;
/// use trios_topology::line;
///
/// let mut program = Circuit::new(3);
/// program.ccx(0, 1, 2);
/// let device = line(4);
/// let compiler = Compiler::builder().seed(1).build();
/// let cache = CompilationCache::new(64);
///
/// let cold = compiler.compile_batch(&[program.clone()], &device, 2, Some(&cache))?;
/// let warm = compiler.compile_batch(&[program], &device, 2, Some(&cache))?;
/// assert_eq!(cold.results[0].0, warm.results[0].0);
/// assert_eq!(warm.report.cache_hits, 1);
/// # Ok::<(), trios_core::BatchDiagnostic>(())
/// ```
pub struct CompilationCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    /// Monotone recency clock; larger = more recently used.
    tick: u64,
    hits: u64,
    misses: u64,
}

struct Entry {
    value: CachedCompilation,
    last_used: u64,
}

impl CompilationCache {
    /// A cache holding at most `capacity` compilations (`0` disables
    /// caching).
    pub fn new(capacity: usize) -> Self {
        CompilationCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The structural key of one compilation job.
    ///
    /// Combines [`Circuit::structural_hash`], [`Topology::structural_hash`]
    /// and a stable hash of every [`CompileOptions`] knob, so a key
    /// collision requires a 64-bit hash collision, not merely "similar"
    /// jobs. Circuit and device *names* do not participate.
    pub fn key(circuit: &Circuit, topology: &Topology, options: &CompileOptions) -> u64 {
        let mut h = hash::OFFSET;
        h = hash::write_u64(h, circuit.structural_hash());
        h = hash::write_u64(h, topology.structural_hash());
        h = hash::write_u64(h, options_hash(options));
        h
    }

    /// The cached compilation for `key`, if present; refreshes its recency
    /// and counts a hit (or a miss).
    pub fn get(&self, key: u64) -> Option<CachedCompilation> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let value = entry.value.clone();
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores `value` under `key`, evicting the least-recently-used entry
    /// when the cache is full. A no-op at capacity 0.
    pub fn insert(&self, key: u64, value: CachedCompilation) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.value = value;
            entry.last_used = tick;
            return;
        }
        if inner.entries.len() >= self.capacity {
            // O(n) scan: capacities are small (hundreds) next to the cost
            // of a single compilation, and this keeps the structure a plain
            // HashMap instead of an intrusive list.
            if let Some(&lru) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.entries.remove(&lru);
            }
        }
        inner.entries.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Maximum number of entries (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached compilations.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("cache lock poisoned")
            .entries
            .len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups that found an entry, since construction (or the last
    /// [`clear`](CompilationCache::clear)).
    pub fn hits(&self) -> u64 {
        self.inner.lock().expect("cache lock poisoned").hits
    }

    /// Total lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.inner.lock().expect("cache lock poisoned").misses
    }

    /// Fraction of lookups that hit, or `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let inner = self.inner.lock().expect("cache lock poisoned");
        let total = inner.hits + inner.misses;
        (total > 0).then(|| inner.hits as f64 / total as f64)
    }

    /// One consistent snapshot of every counter, read under a single lock
    /// acquisition. Prefer this over calling [`hits`](Self::hits),
    /// [`misses`](Self::misses), and [`len`](Self::len) separately: those
    /// take the lock once each, so concurrent traffic can slip between
    /// the reads and produce counters that never coexisted.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            len: inner.entries.len(),
            capacity: self.capacity,
        }
    }

    /// Drops every entry and resets the hit/miss counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.entries.clear();
        inner.hits = 0;
        inner.misses = 0;
    }
}

/// One atomic snapshot of a cache's counters: hits, misses, occupancy,
/// and capacity read together under a single lock, so the numbers are
/// mutually consistent even while other threads keep hitting the cache.
///
/// Produced by [`CompilationCache::stats`] and
/// [`ShardedCache::stats`](crate::ShardedCache::stats); rendered by the
/// `trios serve` stats method and `compile-batch --report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum entries (0 = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Total lookups in the snapshot.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit, or `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        (self.lookups() > 0).then(|| self.hits as f64 / self.lookups() as f64)
    }

    /// The elementwise sum of two snapshots (aggregating shards).
    pub(crate) fn merge(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            len: self.len + other.len,
            capacity: self.capacity + other.capacity,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses, {}/{} entries, hit rate {}",
            self.hits,
            self.misses,
            self.len,
            self.capacity,
            match self.hit_rate() {
                Some(rate) => format!("{:.1}%", rate * 100.0),
                None => "n/a".into(),
            }
        )
    }
}

#[cfg(feature = "serde")]
mod cache_stats_serde {
    use super::CacheStats;
    use serde::{Serialize, SerializeStruct, Serializer};

    impl Serialize for CacheStats {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut s = serializer.serialize_struct("CacheStats", 5)?;
            s.serialize_field("hits", &self.hits)?;
            s.serialize_field("misses", &self.misses)?;
            s.serialize_field("len", &self.len)?;
            s.serialize_field("capacity", &self.capacity)?;
            s.serialize_field("hit_rate", &self.hit_rate())?;
            s.end()
        }
    }
}

impl fmt::Debug for CompilationCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().expect("cache lock poisoned");
        f.debug_struct("CompilationCache")
            .field("capacity", &self.capacity)
            .field("len", &inner.entries.len())
            .field("hits", &inner.hits)
            .field("misses", &inner.misses)
            .finish()
    }
}

fn write_f64(h: u64, value: f64) -> u64 {
    hash::write_u64(h, value.to_bits())
}

fn write_bool(h: u64, value: bool) -> u64 {
    hash::write_u64(h, value as u64)
}

fn write_str(h: u64, value: &str) -> u64 {
    let h = hash::write_u64(h, value.len() as u64);
    hash::write_bytes(h, value.as_bytes())
}

/// Stable hash of every compilation knob. The exhaustive destructuring is
/// deliberate: adding a field to [`CompileOptions`] (or the nested option
/// structs) fails compilation here, forcing the new knob into the key
/// instead of silently aliasing cache entries across configurations.
fn options_hash(options: &CompileOptions) -> u64 {
    let CompileOptions {
        router,
        decomposer,
        mapping,
        direction,
        metric,
        seed,
        optimize,
        lookahead,
        bridge,
        validate,
    } = options;
    let mut h = hash::OFFSET;
    // The *resolved* strategy name is what routing actually runs, so it —
    // not just the raw Option — must separate cache entries: a warm cache
    // may never serve one strategy's result for another, and an unset
    // router shares the `trios` entry it compiles identically to.
    h = write_str(h, options.router_name());
    let _ = router;
    // Same resolution rule for the decomposition strategy: the resolved
    // name separates entries, so warm hits never cross decomposers.
    h = write_str(h, options.decomposer_name());
    let _ = decomposer;
    match mapping {
        InitialMapping::Trivial => h = hash::write_u64(h, 0),
        InitialMapping::Fixed(assignment) => {
            h = hash::write_u64(h, 1);
            h = hash::write_u64(h, assignment.len() as u64);
            for &p in assignment {
                h = hash::write_u64(h, p as u64);
            }
        }
        InitialMapping::Random { seed } => {
            h = hash::write_u64(h, 2);
            h = hash::write_u64(h, *seed);
        }
        InitialMapping::GreedyInteraction => h = hash::write_u64(h, 3),
        InitialMapping::NoiseAware { edge_errors } => {
            h = hash::write_u64(h, 4);
            h = hash::write_u64(h, edge_errors.len() as u64);
            for &e in edge_errors {
                h = write_f64(h, e);
            }
        }
    }
    h = hash::write_u64(
        h,
        match direction {
            DirectionPolicy::MoveFirst => 0,
            DirectionPolicy::MoveSecond => 1,
            DirectionPolicy::Stochastic => 2,
            DirectionPolicy::MeetInMiddle => 3,
        },
    );
    match metric {
        PathMetric::Hops => h = hash::write_u64(h, 0),
        PathMetric::EdgeWeights(weights) => {
            h = hash::write_u64(h, 1);
            h = hash::write_u64(h, weights.len() as u64);
            for &w in weights {
                h = write_f64(h, w);
            }
        }
    }
    h = hash::write_u64(h, *seed);
    let OptimizeOptions {
        cancel_inverses,
        merge_single_qubit,
        remove_trivial,
        cancel_commuting,
        merge_rotations,
    } = optimize;
    h = write_bool(h, *cancel_inverses);
    h = write_bool(h, *merge_single_qubit);
    h = write_bool(h, *remove_trivial);
    h = write_bool(h, *cancel_commuting);
    h = write_bool(h, *merge_rotations);
    match lookahead {
        None => h = hash::write_u64(h, 0),
        Some(LookaheadConfig {
            window,
            weight,
            decay,
        }) => {
            h = hash::write_u64(h, 1);
            h = hash::write_u64(h, *window as u64);
            h = write_f64(h, *weight);
            h = write_f64(h, *decay);
        }
    }
    h = write_bool(h, *bridge);
    h = write_bool(h, *validate);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CompileStats;
    use crate::PaperConfig;
    use trios_route::Layout;
    use trios_topology::{line, ring};

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
    fn keys_separate_circuits_devices_and_options() {
        let mut a = Circuit::new(3);
        a.ccx(0, 1, 2);
        let mut b = Circuit::new(3);
        b.ccx(0, 2, 1);
        let dev = line(4);
        let opts = CompileOptions::default();
        let base = CompilationCache::key(&a, &dev, &opts);
        assert_ne!(base, CompilationCache::key(&b, &dev, &opts));
        assert_ne!(base, CompilationCache::key(&a, &ring(4), &opts));
        assert_ne!(
            base,
            CompilationCache::key(&a, &dev, &CompileOptions::with_seed(9))
        );
        assert_ne!(
            base,
            CompilationCache::key(&a, &dev, &PaperConfig::QiskitEight.to_options(0))
        );
        // Same structure again: identical key.
        let mut a2 = Circuit::with_name(3, "renamed");
        a2.ccx(0, 1, 2);
        assert_eq!(base, CompilationCache::key(&a2, &dev, &opts));
    }

    #[test]
    fn keys_separate_routing_strategies() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let dev = line(4);
        let keys: Vec<u64> = ["baseline", "trios", "trios-lookahead", "trios-noise"]
            .into_iter()
            .map(|name| {
                let options = CompileOptions {
                    router: Some(name.to_string()),
                    ..CompileOptions::default()
                };
                CompilationCache::key(&c, &dev, &options)
            })
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "strategies must never share a cache key");
            }
        }
        // `router: None` resolves to "trios" and may share that entry —
        // they compile identically.
        assert_eq!(
            keys[1],
            CompilationCache::key(&c, &dev, &CompileOptions::default())
        );
    }

    #[test]
    fn keys_separate_decomposers() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let dev = line(4);
        let keys: Vec<u64> = ["standard", "six", "eight", "tdepth", "relative-phase"]
            .into_iter()
            .map(|name| {
                let options = CompileOptions {
                    decomposer: Some(name.to_string()),
                    ..CompileOptions::default()
                };
                CompilationCache::key(&c, &dev, &options)
            })
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "decomposers must never share a cache key");
            }
        }
        // `decomposer: None` resolves to "standard" and may share that
        // entry — they compile identically.
        assert_eq!(
            keys[0],
            CompilationCache::key(&c, &dev, &CompileOptions::default())
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = CompilationCache::new(2);
        cache.insert(1, dummy(1));
        cache.insert(2, dummy(2));
        // Touch key 1 so key 2 becomes the LRU entry.
        assert!(cache.get(1).is_some());
        cache.insert(3, dummy(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "LRU entry must be the one evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn eviction_follows_insertion_order_without_touches() {
        let cache = CompilationCache::new(3);
        for k in 1..=3 {
            cache.insert(k, dummy(k as usize));
        }
        cache.insert(4, dummy(4));
        cache.insert(5, dummy(5));
        // 1 then 2 were the oldest; 3, 4, 5 remain.
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_none());
        for k in 3..=5 {
            assert!(cache.get(k).is_some(), "key {k} should survive");
        }
    }

    #[test]
    fn reinserting_refreshes_instead_of_duplicating() {
        let cache = CompilationCache::new(2);
        cache.insert(1, dummy(1));
        cache.insert(2, dummy(2));
        cache.insert(1, dummy(7)); // refresh: 2 is now LRU
        cache.insert(3, dummy(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none());
        let (program, _) = cache.get(1).unwrap();
        assert_eq!(program.circuit.len(), 7, "refresh must replace the value");
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let cache = CompilationCache::new(0);
        cache.insert(1, dummy(1));
        assert_eq!(cache.len(), 0);
        assert!(cache.get(1).is_none());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn counters_are_exact() {
        let cache = CompilationCache::new(4);
        assert_eq!(cache.hit_rate(), None);
        cache.insert(1, dummy(1));
        assert!(cache.get(1).is_some()); // hit
        assert!(cache.get(1).is_some()); // hit
        assert!(cache.get(2).is_none()); // miss
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        cache.clear();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 0));
        assert_eq!(cache.hit_rate(), None);
    }

    #[test]
    fn stats_snapshot_is_consistent_and_formats_the_empty_case() {
        let cache = CompilationCache::new(4);
        let stats = cache.stats();
        assert_eq!(stats, CacheStats::default().merge(stats));
        assert_eq!(stats.hit_rate(), None);
        assert!(stats.to_string().contains("n/a"), "{stats}");
        cache.insert(1, dummy(1));
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
        assert_eq!(stats.capacity, 4);
        assert_eq!(stats.lookups(), 2);
        assert_eq!(stats.hit_rate(), Some(0.5));
        let text = stats.to_string();
        assert!(text.contains("1 hits / 1 misses"), "{text}");
        assert!(text.contains("50.0%"), "{text}");
    }

    #[test]
    fn debug_shows_occupancy() {
        let cache = CompilationCache::new(2);
        cache.insert(1, dummy(1));
        let text = format!("{cache:?}");
        assert!(text.contains("capacity: 2"));
        assert!(text.contains("len: 1"));
    }
}
