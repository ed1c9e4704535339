//! What every workload reports, and how it becomes the end-to-end
//! metrics: percentiles, geometric means, the heap peak, and times scaled
//! to one reference speed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A stretch of time on a workload's clock: its start and its length.
pub type Interval = (Duration, Duration);

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Each set-up (the median, scaled to reference speed, is reported).
    pub setups: Vec<Interval>,
    /// Each op of the timed phase.
    pub latencies: Vec<Interval>,
    /// Cells completed in the timed phase.
    pub cells: u64,
    /// The stretches the timed phase covers, which throughput divides by.
    pub timed: Vec<Interval>,
    /// Reference-kernel samples along the same clock.
    pub reference: Reference,
    /// Peak bytes live on the heap by the end of the timed phase, in MB.
    pub peak_heap_mb: f64,
    /// Ops attempted in the timed phase and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Sums over one pass of the op set's compiled outputs.
    pub two_qubit_gates: u64,
    pub swap_count: u64,
    pub duration_us: f64,
    /// Success probabilities the geometric mean is taken over.
    pub success: Vec<f64>,
    /// Outputs produced, and how many the independent check proved.
    pub outputs: u64,
    pub verified: u64,
    /// Per-layer metrics of a traced run.
    pub layers: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The system allocator, counting the bytes live on the heap and their
/// peak. Unlike the resident set, which glibc's per-thread arenas move by
/// a quarter between runs of identical code, the live-byte peak repeats.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread runs the reference kernel, which frees all it
    /// allocates: its allocations stay out of the counts.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    !UNCOUNTED.with(Cell::get)
}

fn grew(by: usize) {
    if !counted() {
        return;
    }
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    if counted() {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // guarantees `new_size` is valid for it.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Milliseconds the reference kernel takes at the reference speed: about
/// its time on a 2-vCPU Intel Xeon VM at that host's fastest.
const REFERENCE_MS: f64 = 2.5;
/// Clock time between two reference samples of a single-threaded
/// workload.
const REFERENCE_EVERY: Duration = Duration::from_millis(30);
/// Samples the scale at one instant is the median of.
const REFERENCE_WINDOW: usize = 15;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fixed work in this package's own code: hash-map inserts and lookups,
/// then a sort. No change to the repository's crates changes its cost, so
/// its time measures the host's speed of the moment. Of the kernels tried
/// (integer mixing, hash maps, sorts, pointer chasing), sorts followed
/// the host's swings in compile and `parse_spec` time best: their ratio
/// to this mix spread 3–4% while either time alone spread 24–27%.
fn reference_kernel() -> u64 {
    let mut state = 0x5EED;
    let mut acc = 0u64;
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..10_000 {
        map.insert(splitmix(&mut state) % 50_000, i);
    }
    for _ in 0..20_000 {
        if let Some(v) = map.get(&(splitmix(&mut state) % 50_000)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut values: Vec<u64> = (0..80_000).map(|_| splitmix(&mut state)).collect();
    values.sort_unstable();
    acc ^ values[values.len() / 2]
}

/// Times of the reference kernel along a workload's clock.
///
/// The host this benchmark runs on changes speed by up to a factor of two
/// within minutes, and the CPU clock slows with it. Every time a workload
/// reports is therefore scaled to the reference speed: multiplied by
/// [`REFERENCE_MS`] over the median of the kernel samples nearest to it.
#[derive(Debug, Default)]
pub struct Reference {
    /// When each sample started, and how many milliseconds it took.
    samples: Vec<(Duration, f64)>,
}

impl Reference {
    /// Times the kernel once; its allocations are not counted.
    pub fn sample(&mut self, clock: Clock) {
        UNCOUNTED.with(|u| u.set(true));
        if self.samples.is_empty() {
            // The first call pays for cold caches and fresh pages.
            std::hint::black_box(reference_kernel());
        }
        let start = clock.now();
        std::hint::black_box(reference_kernel());
        let took = clock.now() - start;
        UNCOUNTED.with(|u| u.set(false));
        self.samples.push((start, ms(took)));
    }

    /// Times the kernel if [`REFERENCE_EVERY`] has passed since the last
    /// sample.
    pub fn sample_if_due(&mut self, clock: Clock) {
        let due = self
            .samples
            .last()
            .is_none_or(|&(at, _)| clock.now().saturating_sub(at) >= REFERENCE_EVERY);
        if due {
            self.sample(clock);
        }
    }

    /// The references of threads that sampled together, one thread per
    /// core, as one: each sample is the mean of the threads' samples.
    pub fn mean<'a>(threads: impl Iterator<Item = &'a Reference>) -> Reference {
        let threads: Vec<&Reference> = threads.collect();
        let n = threads.iter().map(|t| t.samples.len()).min().unwrap_or(0);
        let samples = (0..n)
            .map(|i| {
                let took = threads.iter().map(|t| t.samples[i].1).sum::<f64>();
                (threads[0].samples[i].0, took / threads.len() as f64)
            })
            .collect();
        Reference { samples }
    }

    /// Folds in later samples on the same clock.
    pub fn merge(&mut self, other: Reference) {
        self.samples.extend(other.samples);
        self.samples.sort_by_key(|&(at, _)| at);
    }

    /// The factor that scales a time measured around `at` to the
    /// reference speed.
    fn scale(&self, at: Duration) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 1.0;
        }
        let next = self.samples.partition_point(|&(start, _)| start < at);
        let lo = next
            .saturating_sub(REFERENCE_WINDOW / 2)
            .min(n.saturating_sub(REFERENCE_WINDOW));
        let window: Vec<f64> = self.samples[lo..(lo + REFERENCE_WINDOW).min(n)]
            .iter()
            .map(|&(_, took)| took)
            .collect();
        REFERENCE_MS / median(&window)
    }

    /// `interval`'s length in milliseconds, scaled to the reference speed.
    fn scaled_ms(&self, &(at, took): &Interval) -> f64 {
        ms(took) * self.scale(at + took / 2)
    }

    fn summary(&self) -> String {
        let took: Vec<f64> = self.samples.iter().map(|&(_, took)| took).collect();
        let (lo, hi) = took.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        });
        format!(
            "reference: {} kernel samples, median {} ms (range {lo}..{hi}), times scaled to {REFERENCE_MS} ms",
            took.len(),
            median(&took)
        )
    }
}

/// Peak bytes live on the heap since the process started, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// The clock a workload times its ops, set-ups and spans on.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// Wall time since the given instant.
    Wall(Instant),
    /// CPU time of this process, all threads together. Host steal on a
    /// shared VM does not advance it.
    Cpu,
}

impl Clock {
    pub fn now(self) -> Duration {
        match self {
            Clock::Wall(epoch) => epoch.elapsed(),
            Clock::Cpu => cpu_time(),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall(_) => "wall",
            Clock::Cpu => "process CPU",
        }
    }
}

/// CPU time this process has consumed, all threads together.
fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration,
    // and the layout matches the C struct on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the value at 1-based rank `ceil(q * n)`,
/// returned with that rank.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], rank)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a report, in `BENCHMARK.json` order, with
/// notes on the scaling, the unscaled times, and the latency percentiles
/// (sample counts, and the latencies five ranks either side of each
/// percentile against its bound).
pub fn end_to_end(
    report: &mut Report,
    bound: impl Fn(&str) -> Option<f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    let reference = &report.reference;
    let setup_s = median(
        &report
            .setups
            .iter()
            .map(|i| reference.scaled_ms(i) / 1e3)
            .collect::<Vec<_>>(),
    );
    let timed_s: f64 = report
        .timed
        .iter()
        .map(|i| reference.scaled_ms(i) / 1e3)
        .sum();
    let mut sorted: Vec<f64> = report
        .latencies
        .iter()
        .map(|i| reference.scaled_ms(i))
        .collect();
    sorted.sort_by(f64::total_cmp);
    let raw: Vec<f64> = report.latencies.iter().map(|&(_, took)| ms(took)).collect();
    let raw_timed: f64 = report
        .timed
        .iter()
        .map(|&(_, took)| took.as_secs_f64())
        .sum();
    let note = format!(
        "{}; unscaled: setup {} s, throughput {} cells/s, p50 {} ms",
        reference.summary(),
        median(
            &report
                .setups
                .iter()
                .map(|&(_, took)| took.as_secs_f64())
                .collect::<Vec<_>>()
        ),
        report.cells as f64 / raw_timed,
        median(&raw)
    );
    report.note(note);
    let n = sorted.len();
    let (p50, r50) = percentile(&sorted, 0.5);
    let (p90, r90) = percentile(&sorted, 0.9);
    report.note(format!(
        "latency: {n} ops, p50 rank {r50}, p90 rank {r90} with {} samples beyond it{}",
        n - r90,
        if n - r90 < 10 {
            " (fewer than ten)"
        } else {
            ""
        }
    ));
    for (name, value, rank) in [("p50_ms", p50, r50), ("p90_ms", p90, r90)] {
        let lo = sorted[rank.saturating_sub(6)];
        let hi = sorted[(rank + 4).min(n - 1)];
        let spread = (value - lo).max(hi - value) / value;
        let verdict = match bound(name) {
            Some(b) if spread <= b => format!("within its bound {b}"),
            Some(b) => format!("OUTSIDE its bound {b}: the percentile sits on a gap"),
            None => "no bound".to_string(),
        };
        report.note(format!(
            "gap check {name}: ranks ±5 read {lo:.4}..{hi:.4} around {value:.4} ms, {:.2}% away, {verdict}",
            spread * 100.0
        ));
    }
    let verified_share = report.verified as f64 / report.outputs.max(1) as f64;
    report.note(format!(
        "peak resident set {} MB (not a metric: allocator arenas move it between runs)",
        peak_rss_mb()
    ));
    vec![
        ("setup_s", "s", setup_s),
        ("throughput_per_s", "cells/s", report.cells as f64 / timed_s),
        ("p50_ms", "ms", p50),
        ("p90_ms", "ms", p90),
        ("peak_heap_mb", "MB", report.peak_heap_mb),
        ("two_qubit_gates", "count", report.two_qubit_gates as f64),
        ("swap_count", "count", report.swap_count as f64),
        ("duration_us", "us", report.duration_us),
        ("success_geomean", "probability", geomean(&report.success)),
        ("verified_share", "ratio", verified_share),
    ]
}
