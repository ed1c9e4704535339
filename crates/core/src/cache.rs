//! [`CompilationCache`]: a thread-safe LRU over finished compilations,
//! keyed by the structural hash of `(circuit, device, options)`.
//!
//! Compilation here is deterministic — every stochastic choice is seeded
//! from [`CompileOptions::seed`] and routing tie-breaks are by lowest
//! qubit index — so two jobs with equal structural keys produce
//! byte-identical output, and returning a cached result is
//! indistinguishable from recompiling (timings in the cached
//! [`CompileReport`] aside, which record the original compile).
//!
//! Each entry is stored once, behind an [`Arc`], beside the
//! [`CompileJob`] it answers. A hit copies the pointer, not the program,
//! and only after comparing that job with its own: equal keys are not
//! trusted to mean equal jobs. Entries keep circuits packed
//! ([`PackedCircuit`]): a compiled program's few distinct gates once, and
//! a `u16` stream of gate indices and operands.

use crate::report::{CompileReport, CompileStats, PassRecord};
use crate::{CompileOptions, CompiledProgram, SchedulePass};
use std::collections::HashMap;
use std::fmt;
use std::mem::{size_of, size_of_val};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use trios_ir::{hash, Circuit, GateCounts, PackedCircuit, MAX_QUBITS};
use trios_noise::{estimate_from_counts, Calibration, SuccessEstimate};
use trios_passes::OptimizeOptions;
use trios_route::{DirectionPolicy, InitialMapping, Layout, LookaheadConfig, PathMetric};
use trios_topology::Topology;

/// The compiled program plus the report of the compile that produced it,
/// as owned values.
pub type CachedCompilation = (CompiledProgram, CompileReport);

/// The job a cached compilation answers: the circuit compiled, the
/// structural hash of the device it was compiled for, and the options.
#[derive(Debug)]
pub struct CompileJob {
    circuit: PackedCircuit,
    /// [`Topology::structural_hash`] of the device.
    device: u64,
    options: CompileOptions,
}

impl CompileJob {
    /// The job of compiling `circuit` for `device` under `options`; the
    /// job keeps the circuit packed.
    pub fn new(circuit: &Circuit, device: &Topology, options: CompileOptions) -> Self {
        CompileJob {
            circuit: PackedCircuit::new(circuit),
            device: device.structural_hash(),
            options,
        }
    }

    /// `true` when compiling `circuit` for `device` under `options` is
    /// this job, compared field by field as [`CompilationCache::key`]
    /// hashes them: circuits by [`PackedCircuit::same_structure`] (names
    /// ignored), devices by structural hash, options by resolved router
    /// and decomposer names and every other knob, floats by their bits.
    fn answers(&self, circuit: &Circuit, device: &Topology, options: &CompileOptions) -> bool {
        self.device == device.structural_hash()
            && options_eq(&self.options, options)
            && self.circuit.same_structure(circuit)
    }

    /// The heap bytes held: the packed circuit, and the names and lists
    /// of the options.
    fn heap_bytes(&self) -> usize {
        let options = &self.options;
        let names: usize = [&options.router, &options.decomposer]
            .into_iter()
            .flatten()
            .map(String::len)
            .sum();
        let mapping = match &options.mapping {
            InitialMapping::Fixed(assignment) => size_of_val(&assignment[..]),
            InitialMapping::NoiseAware { edge_errors } => size_of_val(&edge_errors[..]),
            _ => 0,
        };
        let metric = match &options.metric {
            PathMetric::EdgeWeights(weights) => size_of_val(&weights[..]),
            PathMetric::Hops => 0,
        };
        self.circuit.heap_bytes() + names + mapping + metric
    }
}

/// A [`Layout`] as an entry keeps it: the logical→physical map, one `u16`
/// a slot (two, low half first, on a device wider than
/// [`MAX_QUBITS`]), and the device width.
#[derive(Debug)]
struct PackedLayout {
    width: usize,
    map: Box<[u16]>,
}

impl PackedLayout {
    fn new(layout: &Layout) -> Self {
        let width = layout.num_physical();
        let words = if width > MAX_QUBITS { 2 } else { 1 };
        let mut map = Vec::with_capacity(layout.num_logical() * words);
        for logical in 0..layout.num_logical() {
            let physical = layout.physical(logical);
            map.push(physical as u16);
            if words == 2 {
                map.push((physical >> 16) as u16);
            }
        }
        PackedLayout {
            width,
            map: map.into_boxed_slice(),
        }
    }

    fn unpack(&self) -> Layout {
        let words = if self.width > MAX_QUBITS { 2 } else { 1 };
        let mapping: Vec<usize> = self
            .map
            .chunks(words)
            .map(|slot| {
                slot.iter()
                    .rev()
                    .fold(0, |p, &word| p << 16 | word as usize)
            })
            .collect();
        Layout::from_mapping(&mapping, self.width).expect("a stored layout maps injectively")
    }
}

/// One cached compilation, shared by every hit on it: the compiled
/// circuit packed, both layouts, the program's stats and gate counts,
/// and the pass records the compile was stored with.
///
/// [`stats`](Self::stats), [`counts`](Self::counts) and
/// [`estimate_success`](Self::estimate_success) read the entry as it is;
/// [`program`](Self::program) and [`report`](Self::report) rebuild owned
/// values.
#[derive(Debug)]
pub struct CacheEntry {
    /// `None` for an entry stored by the unchecked
    /// [`CompilationCache::insert`]: it answers no checked lookup.
    job: Option<CompileJob>,
    circuit: PackedCircuit,
    initial_layout: PackedLayout,
    final_layout: PackedLayout,
    stats: CompileStats,
    passes: Box<[PassRecord]>,
}

impl CacheEntry {
    fn new(job: Option<CompileJob>, program: &CompiledProgram, passes: &[PassRecord]) -> Self {
        CacheEntry {
            job,
            circuit: PackedCircuit::new(&program.circuit),
            initial_layout: PackedLayout::new(&program.initial_layout),
            final_layout: PackedLayout::new(&program.final_layout),
            stats: program.stats,
            passes: passes.into(),
        }
    }

    /// The stored program's stats.
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// The gate counts of the stored program's circuit.
    pub fn counts(&self) -> GateCounts {
        self.circuit.counts()
    }

    /// The stored program, decoded.
    pub fn program(&self) -> CompiledProgram {
        CompiledProgram {
            circuit: self.circuit.unpack(),
            initial_layout: self.initial_layout.unpack(),
            final_layout: self.final_layout.unpack(),
            stats: self.stats,
        }
    }

    /// The report of the compile that produced the program: the pass
    /// records it was stored with (none for a server's entry) and the
    /// program's stats.
    pub fn report(&self) -> CompileReport {
        CompileReport::new(self.passes.to_vec(), self.stats)
    }

    /// [`CompiledProgram::estimate_success`] of the stored program. Every
    /// compile is scheduled under [`SchedulePass::DURATIONS`], so under a
    /// calibration with those durations the entry's counts and
    /// `duration_us` are all the estimate reads: nothing is decoded and
    /// nothing allocated. Under other durations the program is decoded.
    pub fn estimate_success(&self, calibration: &Calibration) -> SuccessEstimate {
        if calibration.durations == SchedulePass::DURATIONS {
            estimate_from_counts(&self.counts(), self.stats.duration_us, calibration)
        } else {
            self.program().estimate_success(calibration)
        }
    }

    /// The bytes this entry holds: its own allocation, the packed
    /// circuits, the layouts, the job's options and the pass records.
    pub fn bytes(&self) -> usize {
        size_of::<CacheEntry>()
            + self.circuit.heap_bytes()
            + size_of_val(&*self.initial_layout.map)
            + size_of_val(&*self.final_layout.map)
            + self.job.as_ref().map_or(0, CompileJob::heap_bytes)
            + size_of_val(&*self.passes)
    }
}

/// A bounded, least-recently-used cache of finished compilations.
///
/// Interior-mutable and `Sync`: one cache can be shared by the worker
/// threads of [`Compiler::compile_batch`](crate::Compiler::compile_batch), and
/// kept across batches so repeated workload sweeps (the paper's ablation
/// studies recompile the same benchmarks under many configurations) pay
/// for each distinct job once.
///
/// [`lookup`](Self::lookup) and [`store`](Self::store) are the checked
/// pair: a hit shares the stored [`CacheEntry`] and answers only the job
/// it was stored for. A lookup that finds another job under its key is a
/// miss, counted in [`CacheStats::collisions`] as well.
/// [`CacheStats::bytes`] counts what the entries hold.
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
    collisions: u64,
    /// [`CacheEntry::bytes`] summed over `entries`.
    bytes: usize,
}

struct Entry {
    value: Arc<CacheEntry>,
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
        combine_key(
            circuit.structural_hash(),
            topology.structural_hash(),
            options_hash(options),
        )
    }

    /// The state behind the lock, recovered if a thread panicked while
    /// holding it. That is sound because every critical section leaves a
    /// valid cache at any point it could unwind: the code under the lock
    /// is map operations on `u64` keys, counter updates and job
    /// comparisons, none of which panics, and each section changes the
    /// map before the counters that record the change, so an unwind could
    /// at worst leave one lookup uncounted or one entry's bytes unsummed,
    /// never an entry half-stored.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared entry for `key` if it answers the job of compiling
    /// `circuit` for `device` under `options`: the same circuit structure
    /// (names ignored), device structure and options as the key hashes.
    /// A hit copies a pointer and refreshes the entry's recency; an entry
    /// of another job, or one stored without a job, is a miss and a
    /// collision.
    pub fn lookup(
        &self,
        key: u64,
        circuit: &Circuit,
        device: &Topology,
        options: &CompileOptions,
    ) -> Option<Arc<CacheEntry>> {
        self.find(key, |entry| {
            entry
                .job
                .as_ref()
                .is_some_and(|job| job.answers(circuit, device, options))
        })
    }

    /// Stores the compilation of `job` under `key`, packed, with the pass
    /// records `passes` (a caller that reads no report stores none),
    /// evicting the least-recently-used entry when the cache is full, and
    /// returns the shared entry (also at capacity 0, which stores nothing).
    pub fn store(
        &self,
        key: u64,
        job: CompileJob,
        program: &CompiledProgram,
        passes: &[PassRecord],
    ) -> Arc<CacheEntry> {
        let entry = Arc::new(CacheEntry::new(Some(job), program, passes));
        self.put(key, Arc::clone(&entry));
        entry
    }

    /// The compilation stored under `key`, decoded, with no check of the
    /// job it answers; counts a hit or a miss.
    ///
    /// Kept, with [`insert`](Self::insert), for perfbench's traced serve
    /// replay alone; both go once that replay moves to
    /// [`lookup`](Self::lookup) and [`store`](Self::store).
    pub fn get(&self, key: u64) -> Option<CachedCompilation> {
        self.find(key, |_| true)
            .map(|entry| (entry.program(), entry.report()))
    }

    /// Stores `value` under `key` without a job, so no checked
    /// [`lookup`](Self::lookup) answers from it. The entry keeps the
    /// report's pass records; its stats are the program's. Kept for
    /// perfbench's traced serve replay alone, like [`get`](Self::get).
    pub fn insert(&self, key: u64, value: CachedCompilation) {
        let (program, report) = value;
        self.put(
            key,
            Arc::new(CacheEntry::new(None, &program, &report.passes)),
        );
    }

    /// The entry under `key` if `accept` takes it; counts a hit, or a
    /// miss, and a collision when an entry was there but refused.
    fn find(&self, key: u64, accept: impl FnOnce(&CacheEntry) -> bool) -> Option<Arc<CacheEntry>> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let found = match inner.entries.get_mut(&key) {
            Some(entry) if accept(&entry.value) => {
                entry.last_used = inner.tick;
                Some(Arc::clone(&entry.value))
            }
            Some(_) => {
                inner.collisions += 1;
                None
            }
            None => None,
        };
        match found {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        found
    }

    /// Stores `value` under `key`, evicting the least-recently-used entry
    /// when the cache is full. A no-op at capacity 0.
    fn put(&self, key: u64, value: Arc<CacheEntry>) {
        if self.capacity == 0 {
            return;
        }
        let bytes = value.bytes();
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&key) {
            let replaced = std::mem::replace(&mut entry.value, value).bytes();
            entry.last_used = tick;
            inner.bytes = inner.bytes + bytes - replaced;
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
                if let Some(evicted) = inner.entries.remove(&lru) {
                    inner.bytes -= evicted.value.bytes();
                }
            }
        }
        inner.entries.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
        inner.bytes += bytes;
    }

    /// Maximum number of entries (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached compilations.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups that found an entry, since construction (or the last
    /// [`clear`](CompilationCache::clear)).
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Total lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Fraction of lookups that hit, or `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        self.stats().hit_rate()
    }

    /// One consistent snapshot of every counter, read under a single lock
    /// acquisition. Prefer this over calling [`hits`](Self::hits),
    /// [`misses`](Self::misses), and [`len`](Self::len) separately: those
    /// take the lock once each, so concurrent traffic can slip between
    /// the reads and produce counters that never coexisted.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            collisions: inner.collisions,
            len: inner.entries.len(),
            capacity: self.capacity,
            bytes: inner.bytes,
        }
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.bytes = 0;
        inner.hits = 0;
        inner.misses = 0;
        inner.collisions = 0;
    }
}

/// One atomic snapshot of a cache's counters: hits, misses, collisions,
/// occupancy, capacity and bytes read together under a single lock, so
/// the numbers are mutually consistent even while other threads keep
/// hitting the cache.
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
    /// Misses that found an entry of another job under their key.
    pub collisions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum entries (0 = caching disabled).
    pub capacity: usize,
    /// Bytes the cached entries hold ([`CacheEntry::bytes`] summed):
    /// packed circuits, layouts, jobs and pass records.
    pub bytes: usize,
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
            collisions: self.collisions + other.collisions,
            len: self.len + other.len,
            capacity: self.capacity + other.capacity,
            bytes: self.bytes + other.bytes,
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
            let mut s = serializer.serialize_struct("CacheStats", 7)?;
            s.serialize_field("hits", &self.hits)?;
            s.serialize_field("misses", &self.misses)?;
            s.serialize_field("collisions", &self.collisions)?;
            s.serialize_field("len", &self.len)?;
            s.serialize_field("capacity", &self.capacity)?;
            s.serialize_field("hit_rate", &self.hit_rate())?;
            s.serialize_field("bytes", &self.bytes)?;
            s.end()
        }
    }
}

impl fmt::Debug for CompilationCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("CompilationCache")
            .field("capacity", &stats.capacity)
            .field("len", &stats.len)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("collisions", &stats.collisions)
            .finish()
    }
}
/// The cache key of a job from [`Circuit::structural_hash`],
/// [`Topology::structural_hash`] and [`options_hash`]. Both
/// [`CompilationCache::key`] and a sweep's check for recurring jobs, which
/// hashes each circuit and each batch's options once, combine through
/// here, so their keys cannot drift apart.
pub(crate) fn combine_key(circuit: u64, topology: u64, options: u64) -> u64 {
    let mut h = hash::OFFSET;
    h = hash::write_u64(h, circuit);
    h = hash::write_u64(h, topology);
    hash::write_u64(h, options)
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
pub(crate) fn options_hash(options: &CompileOptions) -> u64 {
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

/// `true` when `a` and `b` are the same options as [`options_hash`] reads
/// them: resolved router and decomposer names, every other knob, and
/// floats by their bits. The exhaustive destructuring is there for the
/// reason it is in [`options_hash`]: a new knob must be compared too.
fn options_eq(a: &CompileOptions, b: &CompileOptions) -> bool {
    let CompileOptions {
        router: _,
        decomposer: _,
        mapping,
        direction,
        metric,
        seed,
        optimize,
        lookahead,
        bridge,
        validate,
    } = a;
    let same_bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    let same_mapping = match (mapping, &b.mapping) {
        (InitialMapping::Trivial, InitialMapping::Trivial)
        | (InitialMapping::GreedyInteraction, InitialMapping::GreedyInteraction) => true,
        (InitialMapping::Fixed(x), InitialMapping::Fixed(y)) => x == y,
        (InitialMapping::Random { seed: x }, InitialMapping::Random { seed: y }) => x == y,
        (
            InitialMapping::NoiseAware { edge_errors: x },
            InitialMapping::NoiseAware { edge_errors: y },
        ) => same_bits(x, y),
        _ => false,
    };
    let same_metric = match (metric, &b.metric) {
        (PathMetric::Hops, PathMetric::Hops) => true,
        (PathMetric::EdgeWeights(x), PathMetric::EdgeWeights(y)) => same_bits(x, y),
        _ => false,
    };
    let same_lookahead = match (lookahead, &b.lookahead) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.window == y.window
                && x.weight.to_bits() == y.weight.to_bits()
                && x.decay.to_bits() == y.decay.to_bits()
        }
        _ => false,
    };
    a.router_name() == b.router_name()
        && a.decomposer_name() == b.decomposer_name()
        && same_mapping
        && direction == &b.direction
        && same_metric
        && *seed == b.seed
        && optimize == &b.optimize
        && same_lookahead
        && *bridge == b.bridge
        && *validate == b.validate
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::PaperConfig;
    use trios_ir::{Gate, Instruction};
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

    /// The job and program of circuit `a` stored under key 1 of a fresh
    /// cache: `a` is every kind of instruction the check reads.
    fn cache_with_a() -> (CompilationCache, Circuit, Arc<CacheEntry>) {
        let mut a = Circuit::with_name(3, "a");
        a.h(0).rz(0.25, 1).cx(0, 1).ccx(0, 1, 2);
        let cache = CompilationCache::new(4);
        let (program, report) = dummy(5);
        let job = CompileJob::new(&a, &line(4), CompileOptions::default());
        let entry = cache.store(1, job, &program, &report.passes);
        (cache, a, entry)
    }

    #[test]
    fn a_lookup_answers_only_the_job_it_was_stored_for() {
        let (dev, opts) = (line(4), CompileOptions::default());
        let (_, a, _) = cache_with_a();
        let edit = |f: fn(&Instruction) -> Instruction| {
            Circuit::from_instructions(3, a.iter().map(f)).unwrap()
        };
        let others = [
            (
                "gate",
                edit(|i| match i.gate() {
                    Gate::H => Instruction::new(Gate::X, i.qubits()),
                    _ => *i,
                }),
                dev.clone(),
                opts.clone(),
            ),
            (
                "parameter bit",
                edit(|i| match i.gate() {
                    Gate::Rz(t) => {
                        Instruction::new(Gate::Rz(f64::from_bits(t.to_bits() ^ 1)), i.qubits())
                    }
                    _ => *i,
                }),
                dev.clone(),
                opts.clone(),
            ),
            (
                "operand",
                edit(|i| match i.gate() {
                    Gate::Cx => Instruction::new(Gate::Cx, &[i.qubits()[1], i.qubits()[0]]),
                    _ => *i,
                }),
                dev.clone(),
                opts.clone(),
            ),
            (
                "width",
                Circuit::from_instructions(4, a.iter().copied()).unwrap(),
                dev.clone(),
                opts.clone(),
            ),
            ("device", a.clone(), ring(4), opts.clone()),
            (
                "options",
                a.clone(),
                dev.clone(),
                CompileOptions::with_seed(9),
            ),
        ];
        for (what, circuit, device, options) in &others {
            let (cache, _, _) = cache_with_a();
            assert!(
                cache.lookup(1, circuit, device, options).is_none(),
                "another {what} must not hit"
            );
            let stats = cache.stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.collisions),
                (0, 1, 1),
                "another {what}"
            );
        }

        // The same job hits however its circuit is named, and two hits
        // share the stored entry instead of copying it.
        let (cache, a, stored) = cache_with_a();
        let mut renamed = a.clone();
        renamed.set_name("another name");
        let first = cache.lookup(1, &renamed, &dev, &opts).expect("renamed hit");
        let second = cache.lookup(1, &a, &dev, &opts).expect("hit");
        assert!(Arc::ptr_eq(&first, &stored) && Arc::ptr_eq(&first, &second));
        assert_eq!(first.program().circuit.len(), 5);
        assert!(first.job.as_ref().unwrap().circuit.same_structure(&a));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.collisions), (2, 0, 0));
        // Unset router and decomposer names resolve to the ones they run.
        let named = CompileOptions {
            router: Some("trios".into()),
            decomposer: Some("standard".into()),
            ..CompileOptions::default()
        };
        assert!(cache.lookup(1, &a, &dev, &named).is_some());
    }

    #[test]
    fn floats_compare_by_their_bits() {
        let mut nan = Circuit::new(1);
        nan.rz(f64::NAN, 0);
        let weights = |w: f64| CompileOptions {
            metric: PathMetric::EdgeWeights(vec![w; 3]),
            lookahead: Some(LookaheadConfig {
                window: 4,
                weight: f64::NAN,
                decay: 0.5,
            }),
            ..CompileOptions::default()
        };
        let cache = CompilationCache::new(2);
        let job = CompileJob::new(&nan, &line(4), weights(0.0));
        let (program, report) = dummy(1);
        cache.store(7, job, &program, &report.passes);
        assert!(cache.lookup(7, &nan, &line(4), &weights(0.0)).is_some());
        assert!(cache.lookup(7, &nan, &line(4), &weights(-0.0)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.collisions), (1, 1, 1));
    }

    #[test]
    fn entries_without_a_job_answer_no_checked_lookup() {
        let (cache, a, _) = cache_with_a();
        // The unchecked lookup copies a stored entry out.
        let (program, _) = cache.get(1).expect("unchecked hit");
        assert_eq!(program.circuit.len(), 5);
        cache.insert(2, dummy(3));
        assert_eq!(cache.get(2).map(|(p, _)| p.circuit.len()), Some(3));
        let opts = CompileOptions::default();
        assert!(cache.lookup(2, &a, &line(4), &opts).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.collisions), (2, 1, 1));
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let (cache, a, _) = cache_with_a();
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = cache.inner.lock().unwrap();
                    panic!("a panic while the cache lock is held");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(cache.inner.is_poisoned());
        let (dev, opts) = (line(4), CompileOptions::default());
        assert!(cache.lookup(1, &a, &dev, &opts).is_some());
        assert!(cache.lookup(2, &a, &dev, &opts).is_none());
        let job = CompileJob::new(&a, &dev, opts.clone());
        let (program, report) = dummy(2);
        cache.store(2, job, &program, &report.passes);
        assert!(cache.lookup(2, &a, &dev, &opts).is_some());
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.collisions, stats.len),
            (2, 1, 0, 2)
        );
        assert!(format!("{cache:?}").contains("len: 2"));
    }

    #[test]
    fn a_hit_decodes_the_stored_program_and_report() {
        let mut circuit = Circuit::with_name(4, "ripple");
        circuit
            .h(0)
            .ccx(0, 1, 3)
            .rz(0.25, 2)
            .ccx(3, 2, 0)
            .measure_all();
        let device = line(5);
        let compiler = crate::Compiler::builder().seed(3).build();
        let (program, report) = compiler.compile_with_report(&circuit, &device).unwrap();
        assert!(
            program.initial_layout != program.final_layout,
            "routing moved qubits"
        );
        let cache = CompilationCache::new(2);
        let job = CompileJob::new(&circuit, &device, compiler.options().clone());
        cache.store(9, job, &program, &report.passes);
        let entry = cache
            .lookup(9, &circuit, &device, compiler.options())
            .expect("hit");
        assert_eq!(entry.program(), program);
        assert_eq!(entry.report(), report);
        assert_eq!(entry.stats(), &program.stats);
        assert_eq!(entry.counts(), program.circuit.counts());
        let mut slower = Calibration::near_future();
        slower.durations.two_qubit_us *= 2.0;
        for calibration in [Calibration::default(), Calibration::near_future(), slower] {
            let want = program.estimate_success(&calibration);
            let got = entry.estimate_success(&calibration);
            assert_eq!(got.probability().to_bits(), want.probability().to_bits());
            assert_eq!(got.duration_us.to_bits(), want.duration_us.to_bits());
        }
        // The unchecked pair round-trips the same values.
        cache.insert(10, (program.clone(), report.clone()));
        assert_eq!(cache.get(10), Some((program, report)));
    }

    #[test]
    fn layouts_round_trip_on_every_device_width() {
        for width in [2, MAX_QUBITS, MAX_QUBITS + 7] {
            let mut layout = Layout::trivial(2, width);
            layout.swap_physical(0, width - 1);
            let packed = PackedLayout::new(&layout);
            assert_eq!(packed.unpack(), layout, "width {width}");
        }
    }

    #[test]
    fn bytes_sum_what_the_live_entries_hold() {
        let cache = CompilationCache::new(3);
        let live = |cache: &CompilationCache| -> usize {
            let inner = cache.lock();
            inner.entries.values().map(|e| e.value.bytes()).sum()
        };
        let (a, job_circuit) = (dummy(4), dummy(6).0.circuit);
        let job = CompileJob::new(&job_circuit, &line(2), CompileOptions::default());
        let stored = cache.store(1, job, &a.0, &a.1.passes);
        assert!(stored.bytes() > size_of::<CacheEntry>() + stored.circuit.heap_bytes());
        assert_eq!(cache.stats().bytes, stored.bytes());
        for key in 2..=3 {
            cache.insert(key, dummy(key as usize));
        }
        assert_eq!(cache.stats().bytes, live(&cache));
        // A replace under a live key, then evictions of the oldest.
        cache.insert(2, dummy(40));
        assert_eq!(cache.stats().bytes, live(&cache));
        for key in 4..=6 {
            cache.insert(key, dummy(key as usize * 10));
            assert_eq!(cache.stats().len, 3);
            assert_eq!(cache.stats().bytes, live(&cache));
        }
        assert!(cache.get(1).is_none(), "the first entry was evicted");
        cache.clear();
        assert_eq!(cache.stats().bytes, 0);
        // Capacity 0 keeps nothing, so it holds no bytes either.
        let off = CompilationCache::new(0);
        off.insert(1, dummy(3));
        assert_eq!(off.stats().bytes, 0);
    }
}
