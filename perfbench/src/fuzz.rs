//! `fuzz-verify`: `run_fuzz` over all six `trios-gen` families.
//!
//! One op is one `run_fuzz` call for one generated case on `line:8`,
//! `johannesburg` and `heavy-hex:127` × routers `baseline` and `trios`.
//! Families take turns. Op `i` of family `f` takes grid entry `i / 6` of
//! `f`'s parameter grid, under the first seed `workload seed + i + k·OPS`
//! that generates it, so every seed sees the same mix of sizes. The op
//! set is the first `OPS` ops; the timed phase runs whole passes over it
//! (one, then more while they fit in the time), so every op weighs the
//! same in the latency percentiles.
//!
//! The op runs one compute thread and no I/O, so ops and set-ups are
//! timed on the process CPU clock, which host steal does not advance.

use crate::check::{self, Edges, Verdict};
use crate::measure::{median, ms, peak_heap_mb, Clock, Report};
use crate::trace::Tracer;
use crate::{cases, replay, Config};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;
use trios_core::{parse_spec, run_fuzz, Calibration, Compiler, FuzzReport, FuzzSpec};
use trios_gen::Family;
use trios_route::verify_legal;
use trios_sim::{auto_backend, SimError};

const DEVICES: [&str; 3] = ["line:8", "johannesburg", "heavy-hex:127"];
const ROUTERS: [&str; 2] = ["baseline", "trios"];
/// Ops in the op set: eighty cases of each family.
const OPS: u64 = 480;
const SETUPS: usize = 15;

fn base_spec() -> Result<FuzzSpec, String> {
    let devices = DEVICES
        .iter()
        .map(|&name| {
            Ok((
                name.to_string(),
                parse_spec(name).map_err(|e| e.to_string())?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FuzzSpec {
        cases: 1,
        routers: ROUTERS.iter().map(|r| r.to_string()).collect(),
        devices,
        jobs: 1,
        ..FuzzSpec::new()
    })
}

/// What the check needs of one op's report, kept small so the harness
/// adds little to the heap it measures. The report's text carries no
/// timings, so its hash tells a rerun that differs.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    passed: bool,
    cells: usize,
    text_hash: u64,
}

impl Outcome {
    fn of(report: &FuzzReport) -> Outcome {
        let mut hasher = DefaultHasher::new();
        report.to_string().hash(&mut hasher);
        Outcome {
            passed: report.passed(),
            cells: report.cells,
            text_hash: hasher.finish(),
        }
    }
}

fn family(op: u64) -> Family {
    Family::ALL[(op % Family::ALL.len() as u64) as usize]
}

/// The case seed of every op in the op set.
fn op_seeds(seed: u64) -> Vec<u64> {
    (0..OPS)
        .map(|op| {
            let entry = (op / Family::ALL.len() as u64) as usize;
            cases::stratified(family(op), entry, seed.wrapping_add(op), OPS).seed
        })
        .collect()
}

/// Points `spec` at op `op`, whose case seed is `seed`.
fn aim(spec: &mut FuzzSpec, op: u64, seed: u64) {
    spec.families = vec![family(op)];
    spec.seed = seed;
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let clock = Clock::Cpu;
    let mut report = Report::default();
    let mut prepared = None;
    report.reference.sample(clock);
    for _ in 0..SETUPS {
        let started = clock.now();
        let mut spec = base_spec()?;
        let seeds = op_seeds(cfg.seed);
        // Warm-up: the smallest case of every family, under seeds below
        // the op set's.
        for op in 0..Family::ALL.len() as u64 {
            let warm = cases::stratified(family(op), 0, cfg.seed.wrapping_sub(1), u64::MAX);
            aim(&mut spec, op, warm.seed);
            run_fuzz(&spec).map_err(|e| e.to_string())?;
        }
        report.setups.push((started, clock.now() - started));
        report.reference.sample(clock);
        prepared = Some((spec, seeds));
    }
    let (mut spec, seeds) = prepared.expect("at least one set-up");

    let mut first: Vec<Option<Outcome>> = vec![None; OPS as usize];
    let mut failed_runs = vec![0u64; OPS as usize];
    let mut tracer = Tracer::new(clock, 0);
    let phase = Instant::now();
    let mut op = 0u64;
    let mut wall = Vec::new();
    // Whole passes over the op set: one, then another while it is
    // expected to end within the time.
    let mut pass_started = 0.0;
    loop {
        if op > 0 && op.is_multiple_of(OPS) {
            let elapsed = phase.elapsed().as_secs_f64();
            if 2.0 * elapsed - pass_started > cfg.seconds {
                break;
            }
            pass_started = elapsed;
        }
        let index = op % OPS;
        aim(&mut spec, index, seeds[index as usize]);
        report.reference.sample_if_due(clock);
        let started = (clock.now(), Instant::now());
        let outcome = run_fuzz(&spec);
        let latency = clock.now() - started.0;
        wall.push(ms(started.1.elapsed()));
        report.attempted += 1;
        report.latencies.push((started.0, latency));
        match outcome {
            Ok(got) => {
                let outcome = Outcome::of(&got);
                let slot = &mut first[index as usize];
                if outcome.passed && slot.as_ref().is_none_or(|f| *f == outcome) {
                    report.cells += outcome.cells as u64;
                } else {
                    failed_runs[index as usize] += 1;
                }
                if cfg.trace {
                    tracer.begin_op(op, latency);
                    replay_op(&mut tracer, &spec, &got)
                        .map_err(|e| format!("replay of op {op}: {e}"))?;
                }
                slot.get_or_insert(outcome);
            }
            Err(_) => failed_runs[index as usize] += 1,
        }
        op += 1;
    }
    report.reference.sample(clock);
    report.timed = report.latencies.clone();
    report.peak_heap_mb = peak_heap_mb();
    report.note(format!(
        "clock: ops timed on the {} clock; their wall-clock median was {} ms",
        clock.name(),
        median(&wall)
    ));

    check_outputs(&seeds, &spec, &first, &failed_runs, &mut report);
    if cfg.trace {
        report.layers = tracer.metrics("fuzz.self_ms", &BTreeMap::new());
        cfg.write_trace(&tracer, &mut report);
    }
    Ok(report)
}

/// Replays one fuzz op: generation, every cell's passes, the harness's
/// legality check, backend choice and equivalence check. Fails unless the
/// replayed verdicts equal the report's.
fn replay_op(tracer: &mut Tracer, spec: &FuzzSpec, got: &FuzzReport) -> Result<(), String> {
    let family = spec.families[0];
    let case = tracer.time("gen.generate_ms", || family.generate_case(spec.seed));
    let (mut cells, mut dense, mut stabilizer, mut sparse, mut skipped) = (0, 0, 0, 0, 0);
    for (_, topology) in &spec.devices {
        if case.circuit.num_qubits() > topology.num_qubits() {
            continue;
        }
        for router in &spec.routers {
            let options = Compiler::builder()
                .router(router.clone())
                .decomposer(spec.decomposer.clone())
                .seed(spec.seed)
                .build()
                .options()
                .clone();
            let mut pipeline = replay::passes(&options);
            let program =
                replay::compile(tracer, &mut pipeline, &case.circuit, topology, &options)?;
            cells += 1;
            tracer
                .time("route.legality_ms", || {
                    verify_legal(&program.circuit, topology)
                })
                .map_err(|e| e.to_string())?;
            let sim = tracer.time("sim.select_ms", || {
                auto_backend(
                    topology.num_qubits(),
                    &[&case.circuit, &program.circuit],
                    spec.max_sim_qubits,
                    spec.max_terms,
                )
            });
            let Some(sim) = sim else {
                skipped += 1;
                continue;
            };
            let name = sim.capability().name;
            let (span, counter) = match name {
                "dense" => ("sim.dense_ms", "sim.dense_checks"),
                "stabilizer" => ("sim.stabilizer_ms", "sim.stabilizer_checks"),
                _ => ("sim.sparse_ms", "sim.sparse_checks"),
            };
            let verdict = tracer.time(span, || {
                sim.compiled_equivalent(
                    &case.circuit,
                    &program.circuit,
                    &program.initial_layout.to_mapping(),
                    &program.final_layout.to_mapping(),
                    spec.trials,
                    spec.seed,
                )
            });
            match verdict {
                Ok(true) => {
                    tracer.count(counter, 1.0);
                    match name {
                        "dense" => dense += 1,
                        "stabilizer" => stabilizer += 1,
                        _ => sparse += 1,
                    }
                }
                Err(SimError::StateTooDense { .. }) => skipped += 1,
                other => return Err(format!("replayed equivalence check gave {other:?}")),
            }
        }
    }
    tracer.count("sim.skipped", skipped as f64);
    let expected = (
        got.cells,
        got.equivalence_dense,
        got.equivalence_stabilizer,
        got.equivalence_sparse,
        got.skips.len(),
    );
    if (cells, dense, stabilizer, sparse, skipped) != expected {
        return Err(format!(
            "replay found (cells, dense, stabilizer, sparse, skipped) = {:?}, the report {expected:?}",
            (cells, dense, stabilizer, sparse, skipped)
        ));
    }
    Ok(())
}

/// Compiles every cell of the op set directly and runs the independent
/// check on it; the fuzz report must cover the same cells and pass.
fn check_outputs(
    seeds: &[u64],
    spec: &FuzzSpec,
    first: &[Option<Outcome>],
    failed_runs: &[u64],
    report: &mut Report,
) {
    // The timed phase ran whole passes, so every op ran this often.
    let runs = report.attempted / OPS;
    let future = Calibration::near_future();
    let edges: Vec<Edges> = spec.devices.iter().map(|(_, t)| Edges::of(t)).collect();
    let mut wrong = Vec::new();
    let mut unverified = 0;
    for (index, got) in first.iter().enumerate() {
        let case_seed = seeds[index];
        let case = family(index as u64).generate_case(case_seed);
        let wrong_before = wrong.len();
        let mut cells = 0;
        for ((device, topology), edges) in spec.devices.iter().zip(&edges) {
            if case.circuit.num_qubits() > topology.num_qubits() {
                continue;
            }
            for router in ROUTERS {
                cells += 1;
                report.outputs += 1;
                let compiled = Compiler::builder()
                    .router(router)
                    .decomposer("standard")
                    .seed(case_seed)
                    .build()
                    .compile(&case.circuit, topology);
                let verdict = match compiled {
                    Ok(program) => {
                        report.two_qubit_gates += program.stats.two_qubit_gates as u64;
                        report.swap_count += program.stats.swap_count as u64;
                        report.duration_us += program.stats.duration_us;
                        report
                            .success
                            .push(program.estimate_success(&future).probability());
                        check::verify(&case.circuit, &program, edges, case_seed)
                    }
                    Err(e) => Verdict::Wrong(format!("a direct compile failed: {e}")),
                };
                match verdict {
                    Verdict::Verified => report.verified += 1,
                    Verdict::Unverified => unverified += 1,
                    Verdict::Wrong(reason) => {
                        wrong.push(format!("{} on {device} with {router}: {reason}", case.name))
                    }
                }
            }
        }
        match got {
            Some(got) if got.passed && got.cells == cells => {}
            Some(_) => wrong.push(format!(
                "{}: the fuzz report failed or covered other cells",
                case.name
            )),
            None => wrong.push(format!("{}: run_fuzz returned an error", case.name)),
        }
        // A wrong output was returned by every run of its op.
        report.failed += if wrong.len() > wrong_before {
            runs
        } else {
            failed_runs[index]
        };
    }
    report.note(format!(
        "check: {} ops, {} compiled cells, {} verified, {unverified} unverified past the check's budget, {} wrong",
        first.len(),
        report.outputs,
        report.verified,
        wrong.len()
    ));
    for line in wrong {
        report.note(format!("WRONG {line}"));
    }
}
