//! Property tests for the evaluation sweep subsystem:
//!
//! * `SweepReport` round-trips through its JSON serialization — arbitrary
//!   names (quotes, backslashes, multibyte), floats, and optional fields;
//! * sweep results are byte-identical regardless of the worker count
//!   (piggybacking on the parallel == sequential batch property);
//! * the Monte Carlo cross-check upper-bounds the analytic §2.6 product
//!   on every simulable cell;
//! * a cell's estimate, made from its compile's counts and Δ, equals the
//!   estimate of the compiled circuit bit for bit;
//! * a recurring job hits the sweep's cache.

use proptest::collection;
use proptest::prelude::*;
use trios_benchmarks::Benchmark;
use trios_core::{
    parse_spec, run_sweep, Calibration, Compiler, CrosstalkPolicy, RatioRow, RouterGeomean,
    SchedulePass, StrategyRegistry, SweepBenchmark, SweepCell, SweepMonteCarlo, SweepReport,
    SweepSpec,
};
use trios_noise::estimate_success_with_crosstalk;
use trios_schedule::GateDurations;
use trios_topology::{line, ring};

/// Deterministically fills a report from pools of random primitives, so
/// the round-trip property exercises every field shape (including `None`
/// vs `Some` and present vs absent Monte Carlo blocks) without a
/// 21-field tuple strategy.
fn build_report(names: &[String], floats: &[f64], ints: &[usize], flags: &[bool]) -> SweepReport {
    let name = |i: usize| names[i % names.len()].clone();
    let f = |i: usize| floats[i % floats.len()];
    let n = |i: usize| ints[i % ints.len()];
    let b = |i: usize| flags[i % flags.len()];

    let cells: Vec<SweepCell> = (0..names.len().min(3))
        .map(|i| SweepCell {
            benchmark: name(i),
            device: name(i + 1),
            router: name(i + 2),
            decomposer: name(i + 4),
            calibration: name(i + 3),
            probability: f(i),
            p_gates: f(i + 1),
            p_readout: f(i + 2),
            p_coherence: f(i + 3),
            duration_us: f(i + 4),
            two_qubit_gates: n(i),
            one_qubit_gates: n(i + 1),
            measurements: n(i + 2),
            swap_count: n(i + 3),
            depth: n(i + 4),
            gates_in: n(i + 5),
            two_qubit_in: n(i + 6),
            two_qubit_delta: n(i + 7) as isize - n(i + 8) as isize,
            depth_delta: n(i + 9) as isize - n(i + 10) as isize,
            mean_gather_distance: b(i).then(|| f(i + 5)),
            compile_time_s: f(i + 6),
            monte_carlo: b(i + 1).then(|| SweepMonteCarlo {
                shots: n(i + 11),
                mean_fidelity: f(i + 7),
                std_error: f(i + 8),
                error_free_fraction: f(i + 9),
                analytic_error_free: f(i + 10),
                bound_ok: b(i + 2),
            }),
        })
        .collect();
    let ratios: Vec<RatioRow> = (0..names.len().min(2))
        .map(|i| RatioRow {
            benchmark: name(i),
            device: name(i + 1),
            calibration: name(i + 2),
            router: name(i + 3),
            decomposer: name(i + 4),
            baseline_probability: f(i),
            probability: f(i + 1),
            ratio: f(i + 2),
        })
        .collect();
    let geomeans: Vec<RouterGeomean> = (0..names.len().min(2))
        .map(|i| RouterGeomean {
            router: name(i),
            decomposer: name(i + 1),
            geomean: f(i),
            cells: n(i),
        })
        .collect();
    SweepReport {
        benchmarks: names.to_vec(),
        devices: names.iter().rev().cloned().collect(),
        routers: vec![name(0)],
        decomposers: vec![name(1)],
        calibrations: vec![name(1)],
        crosstalk: name(2),
        seed: n(0) as u64,
        shots: b(0).then(|| n(1)),
        cells,
        ratios,
        geomeans,
        cache_hits: n(2) as u64,
        cache_misses: n(3) as u64,
        wall_time_s: f(0).abs(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sweep_report_round_trips_through_serde_json(
        names in collection::vec("\\PC{1,12}", 1..5),
        floats in collection::vec(-1.0e9f64..1.0e9, 12..24),
        ints in collection::vec(0usize..1_000_000_000, 12..24),
        flags in collection::vec(any::<bool>(), 8..16),
    ) {
        let report = build_report(&names, &floats, &ints, &flags);
        let compact = SweepReport::from_json(&report.to_json());
        prop_assert_eq!(compact.as_ref(), Ok(&report));
        let pretty = SweepReport::from_json(&report.to_json_pretty());
        prop_assert_eq!(pretty.as_ref(), Ok(&report));
    }
}

fn jobs_spec(seed: u64, jobs: usize, shots: Option<usize>) -> SweepSpec {
    SweepSpec {
        benchmarks: vec![
            SweepBenchmark::measured("cnx_inplace-4", Benchmark::CnxInplace4.build()),
            SweepBenchmark::measured(
                "incrementer_borrowedbit-5",
                Benchmark::IncrementerBorrowedbit5.build(),
            ),
        ],
        devices: vec![("line-6".into(), line(6))],
        routers: vec!["baseline".into(), "trios".into()],
        calibrations: vec![("now".into(), Calibration::johannesburg_2020_08_19())],
        seed,
        jobs,
        monte_carlo_shots: shots,
        ..SweepSpec::new()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The sweep inherits the batch compiler's parallel == sequential
    /// guarantee: modulo timings, two runs of one spec produce
    /// byte-identical JSON no matter the worker counts.
    #[test]
    fn sweep_results_are_byte_identical_regardless_of_jobs(
        jobs_a in 1usize..5,
        jobs_b in 1usize..5,
        seed in 0u64..3,
    ) {
        let a = run_sweep(&jobs_spec(seed, jobs_a, Some(25))).unwrap().normalized();
        let b = run_sweep(&jobs_spec(seed, jobs_b, Some(25))).unwrap().normalized();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json(), b.to_json());
    }
}

/// The acceptance cross-check: on every ≤8-qubit cell, Monte Carlo mean
/// fidelity upper-bounds the analytic error-free product of the §2.6
/// noise channels within statistical error — the "success = nothing went
/// wrong" model is a lower bound on what the trajectory simulation
/// measures.
#[test]
fn monte_carlo_mean_fidelity_upper_bounds_analytic_product() {
    let report = run_sweep(&jobs_spec(0, 2, Some(300))).unwrap();
    assert_eq!(report.cells.len(), 4);
    for cell in &report.cells {
        let mc = cell
            .monte_carlo
            .expect("every cell compiles onto 6 qubits and must be cross-checked");
        assert_eq!(mc.shots, 300);
        assert!(mc.analytic_error_free > 0.0 && mc.analytic_error_free < 1.0);
        let sigma =
            (mc.analytic_error_free * (1.0 - mc.analytic_error_free) / mc.shots as f64).sqrt();
        assert!(
            mc.mean_fidelity + 4.0 * sigma + 1e-9 >= mc.analytic_error_free,
            "cell {}/{}: fidelity {} below analytic error-free product {} (4σ = {})",
            cell.benchmark,
            cell.router,
            mc.mean_fidelity,
            mc.analytic_error_free,
            4.0 * sigma
        );
        assert!(mc.bound_ok);
        // Error-free trajectories have fidelity 1, so the fraction can
        // never exceed the mean — and it estimates the analytic product
        // without bias.
        assert!(mc.error_free_fraction <= mc.mean_fidelity + 1e-12);
        assert!(
            (mc.error_free_fraction - mc.analytic_error_free).abs() <= 4.0 * sigma,
            "cell {}/{}: fraction {} vs analytic {} (4σ = {})",
            cell.benchmark,
            cell.router,
            mc.error_free_fraction,
            mc.analytic_error_free,
            4.0 * sigma
        );
    }
    // Trios must not lose to baseline on this Toffoli-bearing grid.
    assert!(report.geomean_for("trios").unwrap() >= 1.0);
}

/// Asserts every cell of `report` carries, bit for bit, the estimate of
/// its directly compiled circuit under the spec's crosstalk policy.
fn assert_cells_match_their_compiled_circuits(spec: &SweepSpec, report: &SweepReport) {
    assert_eq!(
        report.cells.len(),
        spec.benchmarks.len() * spec.devices.len() * spec.routers.len() * spec.calibrations.len()
    );
    for (device, topology) in &spec.devices {
        for router in &spec.routers {
            let compiler = Compiler::builder()
                .router(router.clone())
                .decomposer("standard")
                .seed(spec.seed)
                .build();
            for bench in &spec.benchmarks {
                let program = compiler.compile(&bench.circuit, topology).unwrap();
                for (name, calibration) in &spec.calibrations {
                    let expected = estimate_success_with_crosstalk(
                        &program.circuit,
                        calibration,
                        topology,
                        spec.crosstalk,
                    );
                    let cell = report
                        .cell(&bench.name, device, router, "standard", name)
                        .unwrap();
                    let at = format!("{} on {device} with {router} under {name}", bench.name);
                    for (got, want) in [
                        (cell.probability, expected.probability()),
                        (cell.p_gates, expected.p_gates),
                        (cell.p_readout, expected.p_readout),
                        (cell.p_coherence, expected.p_coherence),
                        (cell.duration_us, expected.duration_us),
                    ] {
                        assert_eq!(got.to_bits(), want.to_bits(), "{at}: {got} vs {want}");
                    }
                }
            }
        }
    }
}

/// The paper's Figures 9–11 grid: the 11 Table-1 benchmarks on four
/// 20-qubit devices under every registered router.
fn paper_grid(calibrations: Vec<(String, Calibration)>) -> SweepSpec {
    SweepSpec {
        benchmarks: Benchmark::ALL
            .iter()
            .map(|b| SweepBenchmark::measured(b.name(), b.build()))
            .collect(),
        devices: ["johannesburg", "grid", "line", "clusters"]
            .into_iter()
            .map(|name| (name.to_string(), parse_spec(name).unwrap()))
            .collect(),
        routers: StrategyRegistry::standard()
            .names()
            .map(str::to_string)
            .collect(),
        calibrations,
        jobs: 2,
        ..SweepSpec::new()
    }
}

/// Estimates reuse the compile's counts and Δ under the Johannesburg
/// gate durations (`now`, `future`, `improve:5`), and rescan the program
/// under any other duration table (`slow`): every cell matches its
/// compiled circuit's own estimate bit for bit either way.
#[test]
fn paper_grid_estimates_equal_the_compiled_circuits_estimates_bit_for_bit() {
    let now = Calibration::johannesburg_2020_08_19();
    let slow = Calibration {
        durations: GateDurations {
            one_qubit_us: 0.1,
            two_qubit_us: 0.8,
            measure_us: 5.0,
        },
        ..now
    };
    assert_ne!(slow.durations, SchedulePass::DURATIONS);
    let spec = paper_grid(vec![
        ("now".into(), now),
        ("future".into(), Calibration::near_future()),
        ("improve:5".into(), now.improved(5.0)),
        ("slow".into(), slow),
    ]);
    assert_cells_match_their_compiled_circuits(&spec, &run_sweep(&spec).unwrap());
}

/// Under a crosstalk policy each cell estimates its compiled circuit, and
/// matches the per-circuit estimate bit for bit.
#[test]
fn crosstalk_estimates_equal_the_compiled_circuits_estimates_bit_for_bit() {
    let now = Calibration::johannesburg_2020_08_19();
    let mut spec = paper_grid(vec![
        ("now".into(), now),
        ("improve:5".into(), now.improved(5.0)),
    ]);
    spec.benchmarks.truncate(3);
    spec.devices.truncate(2);
    for crosstalk in [
        CrosstalkPolicy::Charge {
            error_per_conflict: 0.01,
        },
        CrosstalkPolicy::Avoid,
    ] {
        spec.crosstalk = crosstalk;
        assert_cells_match_their_compiled_circuits(&spec, &run_sweep(&spec).unwrap());
    }
}

/// A recurring job hits the sweep's cache, whose keys collide only
/// within one topology × router group: a qutrit cell (compiled with the
/// standard lowering), one circuit under two benchmark names, and one
/// topology under two device names, with another device between them.
/// Turning the cache off changes the counters and nothing else.
#[test]
fn recurring_jobs_hit_inside_their_topology_router_group() {
    let mut toffoli = trios_ir::Circuit::new(4);
    toffoli.h(0).ccx(0, 1, 2).cx(3, 0);
    let mut other = trios_ir::Circuit::new(4);
    other.ccx(1, 2, 3).cx(0, 3);
    let spec = SweepSpec {
        benchmarks: vec![
            SweepBenchmark::measured("toffoli", toffoli.clone()),
            SweepBenchmark::measured("toffoli-again", toffoli),
            SweepBenchmark::measured("other", other),
        ],
        devices: vec![
            ("line-6".into(), line(6)),
            ("ring-6".into(), ring(6)),
            ("line-6-again".into(), line(6)),
        ],
        routers: vec!["baseline".into(), "trios".into()],
        decomposers: vec!["standard".into(), "qutrit".into()],
        calibrations: vec![("now".into(), Calibration::johannesburg_2020_08_19())],
        jobs: 1,
        ..SweepSpec::new()
    };
    let report = run_sweep(&spec).unwrap();
    // Per router: two distinct jobs on the line and two on the ring
    // compile; the other 14 of the 18 hit.
    assert_eq!((report.cache_hits, report.cache_misses), (28, 8));
    for cell in &report.cells {
        let twin = |benchmark: &str, device: &str| {
            let mut twin = report
                .cell(
                    benchmark,
                    device,
                    &cell.router,
                    &cell.decomposer,
                    &cell.calibration,
                )
                .unwrap()
                .clone();
            twin.benchmark = cell.benchmark.clone();
            twin.device = cell.device.clone();
            twin.compile_time_s = cell.compile_time_s;
            twin
        };
        if cell.benchmark == "toffoli-again" {
            assert_eq!(&twin("toffoli", &cell.device), cell);
        }
        if cell.device == "line-6-again" {
            assert_eq!(&twin(&cell.benchmark, "line-6"), cell);
        }
    }
    let uncached = run_sweep(&SweepSpec {
        cache_size: 0,
        ..spec.clone()
    })
    .unwrap();
    assert_eq!((uncached.cache_hits, uncached.cache_misses), (0, 36));
    let mut cached = report.normalized();
    (cached.cache_hits, cached.cache_misses) = (0, 36);
    assert_eq!(cached, uncached.normalized());
}
