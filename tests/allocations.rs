//! Allocation budget of one compile. For each of the four routers, every
//! Table-1 benchmark is compiled on Johannesburg, and the allocations plus
//! reallocations of one compile, averaged over the benchmarks, must stay
//! under a ceiling a little above what the compiler needs. A change that
//! brings back an allocation per gate or per path fails here. A checked
//! compilation-cache hit, and an estimate from its entry, must allocate
//! nothing at all.
//!
//! This file is a test binary of its own because it installs a counting
//! `#[global_allocator]`. The counters are thread-local: the harness runs
//! the tests of one binary on several threads, and each test counts only
//! its own thread's allocations. A compile runs on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trios_benchmarks::Benchmark;
use trios_core::{Calibration, CompilationCache, CompileJob, Compiler, ShardedCache};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations plus reallocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The mean allocations plus reallocations of one compile of a Table-1
/// benchmark on Johannesburg under `router`. Each benchmark is compiled
/// once beforehand, so the device's distance rows and the process-wide
/// tables are filled before counting starts.
fn mean_per_compile(router: &str) -> u64 {
    let device = trios_topology::johannesburg();
    let compiler = Compiler::builder().router(router).build();
    let circuits: Vec<_> = Benchmark::ALL.iter().map(|b| b.build()).collect();
    for circuit in &circuits {
        compiler.compile(circuit, &device).expect("warm-up compile");
    }
    let before = allocations();
    for circuit in &circuits {
        compiler.compile(circuit, &device).expect("counted compile");
    }
    (allocations() - before) / circuits.len() as u64
}

/// Asserts `router`'s mean under `ceiling`. Each ceiling sits about 10%
/// above the debug-build mean measured when it was set (release builds
/// read three less): 71 for `baseline`, 72 for `trios`, 74 for
/// `trios-lookahead` and 97 for `trios-noise`. Before the noise-aware
/// router kept its weighted paths in one buffer per run, `trios-noise`
/// read 116. Before path searches reused per-run buffers and compiles
/// shared the standard registries, the means were 187–190, 143–146,
/// 124–127 and 316–319; before the compiler stopped allocating per gate
/// and per path, 407–410, 315–318, 266–269 and 513–516.
fn assert_under(router: &str, ceiling: u64) {
    let mean = mean_per_compile(router);
    eprintln!("{router}: {mean} allocations and reallocations per compile");
    assert!(
        mean <= ceiling,
        "{router}: {mean} allocations and reallocations per compile, ceiling {ceiling}"
    );
}

#[test]
fn baseline_compiles_within_the_allocation_budget() {
    assert_under("baseline", 78);
}

#[test]
fn trios_compiles_within_the_allocation_budget() {
    assert_under("trios", 79);
}

#[test]
fn trios_lookahead_compiles_within_the_allocation_budget() {
    assert_under("trios-lookahead", 81);
}

#[test]
fn trios_noise_compiles_within_the_allocation_budget() {
    assert_under("trios-noise", 107);
}

/// A checked hit shares the cached entry: the lookup compares the packed
/// job and copies a pointer, so it and dropping that pointer allocate
/// nothing, however large the compiled program. Nor does an estimate,
/// which reads the entry's gate counts and duration.
#[test]
fn a_shared_cache_hit_allocates_nothing() {
    let device = trios_topology::johannesburg();
    let compiler = Compiler::default();
    let options = compiler.options();
    let cache = ShardedCache::new(4, 64);
    let circuits: Vec<_> = Benchmark::ALL.iter().map(|b| b.build()).collect();
    for circuit in &circuits {
        let key = CompilationCache::key(circuit, &device, options);
        let program = compiler.compile(circuit, &device).unwrap();
        let job = CompileJob::new(circuit, &device, options.clone());
        cache.store(key, job, &program, &[]);
    }
    let keys: Vec<_> = circuits
        .iter()
        .map(|circuit| CompilationCache::key(circuit, &device, options))
        .collect();
    let calibration = Calibration::near_future();
    let mut probabilities = Vec::with_capacity(keys.len());
    let before = allocations();
    for (circuit, &key) in circuits.iter().zip(&keys) {
        let entry = cache.lookup(key, circuit, &device, options);
        let entry = entry.unwrap_or_else(|| panic!("{}: a stored job must hit", circuit.name()));
        probabilities.push(entry.estimate_success(&calibration).probability());
    }
    assert_eq!(
        allocations() - before,
        0,
        "allocations in {} hits",
        keys.len()
    );
    assert_eq!(cache.stats().hits, keys.len() as u64);
    for (circuit, probability) in circuits.iter().zip(probabilities) {
        let program = compiler.compile(circuit, &device).unwrap();
        let want = program.estimate_success(&calibration).probability();
        assert_eq!(probability.to_bits(), want.to_bits(), "{}", circuit.name());
    }
}
