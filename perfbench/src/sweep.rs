//! `paper-sweep`: `run_sweep` over the grid of the paper's Figures 9–11.
//!
//! One op is one whole sweep: the 11 Table-1 benchmarks × four 20-qubit
//! devices × every registered router × decomposer `standard`, estimated
//! under calibrations `now` and `future` — 176 compiled cells. The grid
//! is the paper's, so the workload seed permutes the order of its
//! benchmarks and seeds the equivalence check; the routing seed stays 0,
//! the seed the paper's figures use. Devices and routers keep one order:
//! the sweep's cache holds every compiled program, so which device and
//! router come last moved the heap peak by up to 13% between seeds.
//!
//! The op runs one compute thread and no I/O, so ops and set-ups are
//! timed on the process CPU clock, which host steal does not advance.

use crate::check::{self, Edges, Verdict};
use crate::measure::{median, ms, peak_heap_mb, Clock, Report};
use crate::trace::Tracer;
use crate::{replay, Config};
use std::collections::BTreeMap;
use std::time::Instant;
use trios_benchmarks::Benchmark;
use trios_core::{
    parse_spec, run_sweep, Calibration, CompileOptions, Compiler, CrosstalkPolicy,
    StrategyRegistry, SweepBenchmark, SweepReport, SweepSpec,
};
use trios_noise::estimate_success_with_crosstalk;

const DEVICES: [&str; 4] = ["johannesburg", "grid", "line", "clusters"];
const SETUPS: usize = 15;
/// Fewest timed sweeps, so that `p90_ms` has ten samples beyond it even
/// when the host is slow.
const MIN_OPS: u64 = 100;

/// Fisher–Yates shuffle driven by SplitMix64.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

fn spec(seed: u64) -> Result<SweepSpec, String> {
    let mut state = seed;
    let mut benchmarks = Benchmark::ALL.to_vec();
    let routers: Vec<String> = StrategyRegistry::standard()
        .names()
        .map(str::to_string)
        .collect();
    shuffle(&mut benchmarks, &mut state);
    let devices = DEVICES
        .into_iter()
        .map(|name| {
            Ok((
                name.to_string(),
                parse_spec(name).map_err(|e| e.to_string())?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SweepSpec {
        benchmarks: benchmarks
            .iter()
            .map(|b| SweepBenchmark::measured(b.name(), b.build()))
            .collect(),
        devices,
        routers,
        decomposers: vec!["standard".into()],
        calibrations: vec![
            ("now".into(), Calibration::johannesburg_2020_08_19()),
            ("future".into(), Calibration::near_future()),
        ],
        crosstalk: CrosstalkPolicy::Ignore,
        seed: 0,
        jobs: 1,
        ..SweepSpec::new()
    })
}

fn options(spec: &SweepSpec, router: &str) -> CompileOptions {
    Compiler::builder()
        .router(router)
        .decomposer("standard")
        .seed(spec.seed)
        .build()
        .options()
        .clone()
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let clock = Clock::Cpu;
    let mut report = Report::default();
    let mut prepared = None;
    report.reference.sample(clock);
    for _ in 0..SETUPS {
        let started = clock.now();
        let spec = spec(cfg.seed)?;
        let warm = run_sweep(&spec).map_err(|e| e.to_string())?;
        report.setups.push((started, clock.now() - started));
        report.reference.sample(clock);
        prepared = Some((spec, warm));
    }
    let (spec, expected) = prepared.expect("at least one set-up");
    let expected = expected.normalized();
    let compiled_cells = (spec.benchmarks.len() * spec.devices.len() * spec.routers.len()) as u64;

    let mut tracer = Tracer::new(clock, 0);
    let phase = Instant::now();
    let mut op = 0u64;
    let mut wall = Vec::new();
    while op < MIN_OPS || phase.elapsed().as_secs_f64() < cfg.seconds {
        report.reference.sample_if_due(clock);
        let started = (clock.now(), Instant::now());
        let outcome = run_sweep(&spec);
        let latency = clock.now() - started.0;
        wall.push(ms(started.1.elapsed()));
        report.attempted += 1;
        report.latencies.push((started.0, latency));
        match outcome {
            Ok(got) if got.normalized() == expected => report.cells += compiled_cells,
            _ => report.failed += 1,
        }
        if cfg.trace {
            tracer.begin_op(op, latency);
            if let Err(e) = replay_sweep(&mut tracer, &spec, &expected) {
                return Err(format!("replay of sweep {op}: {e}"));
            }
        }
        op += 1;
    }
    report.reference.sample(clock);
    report.timed = report.latencies.clone();
    report.note(format!(
        "clock: ops timed on the {} clock; their wall-clock median was {} ms",
        clock.name(),
        median(&wall)
    ));

    report.peak_heap_mb = peak_heap_mb();
    check_outputs(&spec, &expected, cfg.seed, &mut report);
    if cfg.trace {
        report.layers = tracer.metrics("sweep.self_ms", &BTreeMap::new());
        cfg.write_trace(&tracer, &mut report);
    }
    Ok(report)
}

/// Replays one sweep's layer calls: every cell's passes, then every
/// cell × calibration estimate. Fails unless each replayed output equals
/// the sweep's own.
fn replay_sweep(
    tracer: &mut Tracer,
    spec: &SweepSpec,
    expected: &SweepReport,
) -> Result<(), String> {
    for (device, topology) in &spec.devices {
        for router in &spec.routers {
            let options = options(spec, router);
            let mut pipeline = replay::passes(&options);
            for bench in &spec.benchmarks {
                let program =
                    replay::compile(tracer, &mut pipeline, &bench.circuit, topology, &options)?;
                for (calibration, cal) in &spec.calibrations {
                    let estimate = tracer.time("noise.estimate_ms", || {
                        estimate_success_with_crosstalk(
                            &program.circuit,
                            cal,
                            topology,
                            spec.crosstalk,
                        )
                    });
                    let cell = expected
                        .cell(&bench.name, device, router, "standard", calibration)
                        .ok_or("missing sweep cell")?;
                    if cell.two_qubit_gates != program.stats.two_qubit_gates
                        || cell.swap_count != program.stats.swap_count
                        || cell.depth != program.stats.depth
                        || cell.mean_gather_distance != program.stats.mean_gather_distance
                        || cell.probability.to_bits() != estimate.probability().to_bits()
                    {
                        return Err(format!(
                            "{} on {device} with {router}: replay differs from the sweep",
                            bench.name
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Compiles every cell directly, checks it against the sweep's cell, and
/// runs the independent check on it.
fn check_outputs(spec: &SweepSpec, expected: &SweepReport, seed: u64, report: &mut Report) {
    let mut wrong = Vec::new();
    for (device, topology) in &spec.devices {
        let edges = Edges::of(topology);
        for router in &spec.routers {
            let compiler = Compiler::new(options(spec, router));
            for bench in &spec.benchmarks {
                report.outputs += 1;
                let cell = expected.cell(&bench.name, device, router, "standard", "now");
                let verdict = match (compiler.compile(&bench.circuit, topology), cell) {
                    (Ok(program), Some(cell)) => {
                        report.two_qubit_gates += program.stats.two_qubit_gates as u64;
                        report.swap_count += program.stats.swap_count as u64;
                        report.duration_us += program.stats.duration_us;
                        let consistent = cell.two_qubit_gates == program.stats.two_qubit_gates
                            && cell.one_qubit_gates == program.stats.one_qubit_gates
                            && cell.swap_count == program.stats.swap_count
                            && cell.depth == program.stats.depth
                            && cell.mean_gather_distance == program.stats.mean_gather_distance;
                        if consistent {
                            check::verify(&bench.circuit, &program, &edges, seed)
                        } else {
                            Verdict::Wrong("sweep cell differs from a direct compile".into())
                        }
                    }
                    (Err(e), _) => Verdict::Wrong(format!("a direct compile failed: {e}")),
                    (_, None) => Verdict::Wrong("the sweep has no such cell".into()),
                };
                match verdict {
                    Verdict::Verified => report.verified += 1,
                    Verdict::Unverified => {}
                    Verdict::Wrong(reason) => wrong.push(format!(
                        "{} on {device} with {router}: {reason}",
                        bench.name
                    )),
                }
            }
        }
    }
    report.success = expected.cells.iter().map(|c| c.probability).collect();
    report.note(format!(
        "check: {} compiled cells, {} verified, {} unverified past the check's budget, {} wrong",
        report.outputs,
        report.verified,
        report.outputs - report.verified - wrong.len() as u64,
        wrong.len()
    ));
    if !wrong.is_empty() {
        // Every sweep returned the same outputs, so every op was wrong.
        report.failed = report.attempted;
        for line in wrong {
            report.note(format!("WRONG {line}"));
        }
    }
}
