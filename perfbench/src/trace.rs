//! The span recorder of the traced run.
//!
//! Spans are taken from outside the program: each replayed call into a
//! layer's public function is wrapped in one span. Spans stay in memory
//! and are written out once, as Chrome trace-event JSON, when the run
//! ends. Per-layer metrics are totals over the replayed ops divided by
//! the op count, so the time metrics add up to the mean op latency.

use crate::measure::Clock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How a per-layer metric is derived from the recorder's totals.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Mean self time per op, in milliseconds.
    TimeMs,
    /// Mean count per op.
    PerOp,
    /// A value the workload sets directly.
    Absolute,
}

/// Every per-layer metric, in `BENCHMARK.json` order: name, unit, kind.
pub const LAYER_METRICS: &[(&str, &str, Kind)] = &[
    ("topology.parse_spec_ms", "ms", Kind::TimeMs),
    ("server.self_ms", "ms", Kind::TimeMs),
    ("server.queue_high_water", "jobs", Kind::Absolute),
    ("server.rejected", "count", Kind::Absolute),
    ("gen.generate_ms", "ms", Kind::TimeMs),
    ("qasm.parse_ms", "ms", Kind::TimeMs),
    ("cache.key_ms", "ms", Kind::TimeMs),
    ("cache.lookup_ms", "ms", Kind::TimeMs),
    ("cache.hit_share", "ratio", Kind::Absolute),
    ("pass.initial_mapping_ms", "ms", Kind::TimeMs),
    ("pass.decompose_ms", "ms", Kind::TimeMs),
    ("pass.route_ms", "ms", Kind::TimeMs),
    ("pass.lower_ms", "ms", Kind::TimeMs),
    ("pass.optimize_ms", "ms", Kind::TimeMs),
    ("pass.validate_ms", "ms", Kind::TimeMs),
    ("pass.schedule_ms", "ms", Kind::TimeMs),
    ("pass.route_gates_after", "gates", Kind::PerOp),
    ("pass.optimize_gates_removed", "gates", Kind::PerOp),
    ("route.trio_gathers", "count", Kind::PerOp),
    ("route.mean_gather_distance", "hops", Kind::Absolute),
    ("route.legality_ms", "ms", Kind::TimeMs),
    ("noise.estimate_ms", "ms", Kind::TimeMs),
    ("sweep.self_ms", "ms", Kind::TimeMs),
    ("sim.select_ms", "ms", Kind::TimeMs),
    ("sim.dense_ms", "ms", Kind::TimeMs),
    ("sim.stabilizer_ms", "ms", Kind::TimeMs),
    ("sim.sparse_ms", "ms", Kind::TimeMs),
    ("sim.dense_checks", "count", Kind::PerOp),
    ("sim.stabilizer_checks", "count", Kind::PerOp),
    ("sim.sparse_checks", "count", Kind::PerOp),
    ("sim.skipped", "count", Kind::PerOp),
    ("fuzz.self_ms", "ms", Kind::TimeMs),
    ("trace.op_ms", "ms", Kind::Absolute),
    ("trace.overhead_share", "ratio", Kind::Absolute),
];

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    tid: u32,
    op: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Records spans and counters for one thread of replay.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    tid: u32,
    op: u64,
    spans: Vec<Span>,
    /// Nanoseconds per layer (self time: nested children are subtracted).
    time_ns: BTreeMap<&'static str, i128>,
    counts: BTreeMap<&'static str, f64>,
    /// Ops replayed, and the sum of their latencies as measured untraced.
    ops: u64,
    op_time_ns: u128,
}

impl Tracer {
    pub fn new(clock: Clock, tid: u32) -> Tracer {
        Tracer {
            clock,
            tid,
            op: 0,
            spans: Vec::new(),
            time_ns: BTreeMap::new(),
            counts: BTreeMap::new(),
            ops: 0,
            op_time_ns: 0,
        }
    }

    /// Starts replaying one op whose untraced latency was `latency`.
    pub fn begin_op(&mut self, op: u64, latency: Duration) {
        self.op = op;
        self.ops += 1;
        self.op_time_ns += latency.as_nanos();
    }

    /// Runs `f` inside a span of `layer` and returns its result.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.clock.now();
        let out = std::hint::black_box(f());
        let dur = self.clock.now() - start;
        self.record(layer, start, dur);
        out
    }

    /// Like [`Tracer::time`] for a call nested inside a span of `parent`
    /// that was already recorded: the child's time moves out of the
    /// parent's self time.
    pub fn time_nested<T>(
        &mut self,
        layer: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let out = self.time(layer, f);
        let dur = self.spans.last().map_or(0, |span| span.dur_ns);
        *self.time_ns.entry(parent).or_default() -= i128::from(dur);
        out
    }

    fn record(&mut self, layer: &'static str, start: Duration, dur: Duration) {
        *self.time_ns.entry(layer).or_default() += dur.as_nanos() as i128;
        self.spans.push(Span {
            layer,
            tid: self.tid,
            op: self.op,
            start_ns: start.as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (layer, ns) in other.time_ns {
            *self.time_ns.entry(layer).or_default() += ns;
        }
        for (name, n) in other.counts {
            *self.counts.entry(name).or_default() += n;
        }
        self.ops += other.ops;
        self.op_time_ns += other.op_time_ns;
        self.spans.extend(other.spans);
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The per-layer metrics: every entry of [`LAYER_METRICS`], with
    /// `outer` (the workload's own layer) set to op time minus every
    /// replayed child, and `absolute` supplying the directly-set values.
    pub fn metrics(
        &self,
        outer: &'static str,
        absolute: &BTreeMap<&'static str, f64>,
    ) -> Vec<(&'static str, &'static str, f64)> {
        let ops = self.ops.max(1) as f64;
        let children_ns: i128 = self.time_ns.values().sum();
        let outer_ns = self.op_time_ns as i128 - children_ns;
        let replay_ns = children_ns.max(1) as f64;
        let overhead = self.spans.len() as f64 * span_cost_ns(self.clock) / replay_ns;
        LAYER_METRICS
            .iter()
            .map(|&(name, unit, kind)| {
                let value = match kind {
                    Kind::TimeMs if name == outer => outer_ns as f64 / ops / 1e6,
                    Kind::TimeMs => self.time_ns.get(name).copied().unwrap_or(0) as f64 / ops / 1e6,
                    Kind::PerOp => self.counter(name) / ops,
                    Kind::Absolute => match name {
                        "trace.op_ms" => self.op_time_ns as f64 / ops / 1e6,
                        "trace.overhead_share" => overhead,
                        "route.mean_gather_distance" => {
                            let gathers = self.counter("route.trio_gathers");
                            if gathers > 0.0 {
                                self.counter("route.gather_distance") / gathers
                            } else {
                                0.0
                            }
                        }
                        _ => absolute.get(name).copied().unwrap_or(0.0),
                    },
                };
                (name, unit, value)
            })
            .collect()
    }

    /// Writes every span as Chrome trace-event JSON and returns the path.
    pub fn write(&self, dir: &Path, file: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file);
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                s.layer,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op
            );
        }
        out.push_str("]}\n");
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

/// Measured cost of recording one span on `clock`, in nanoseconds.
fn span_cost_ns(clock: Clock) -> f64 {
    const N: u32 = 20_000;
    let mut probe = Tracer::new(clock, 0);
    let start = clock.now();
    for _ in 0..N {
        probe.time("probe", || ());
    }
    (clock.now() - start).as_nanos() as f64 / f64::from(N)
}
