//! # trios-bench — shared harness code for regenerating the paper's
//! tables and figures
//!
//! Each `benches/*.rs` target (run via `cargo bench -p trios-bench`)
//! regenerates one table or figure of the paper; this library holds the
//! pieces they share: the published qubit triplets, experiment runners,
//! the sweep specs behind the committed `BENCH_sweep.json` and
//! `BENCH_decomp.json`, and text-table helpers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use trios_benchmarks::Benchmark;
use trios_core::{
    with_measurements, Calibration, Circuit, CompileReport, CompiledProgram, Compiler,
    DecomposerRegistry, InitialMapping, PaperConfig, SweepBenchmark, SweepSpec,
};
use trios_topology::{johannesburg, Topology};

/// The 35 qubit triplets of the paper's Figures 6 and 7, exactly as
/// printed on the x-axes (`(c1-c2-t) distance`), hardest first.
pub const FIG67_TRIPLETS: [(usize, usize, usize); 35] = [
    (6, 17, 3),
    (16, 1, 8),
    (7, 18, 3),
    (17, 4, 11),
    (19, 2, 6),
    (1, 19, 8),
    (3, 15, 14),
    (7, 3, 19),
    (15, 0, 9),
    (19, 1, 7),
    (1, 2, 18),
    (6, 13, 2),
    (14, 5, 15),
    (16, 1, 18),
    (19, 10, 6),
    (0, 12, 15),
    (5, 3, 9),
    (9, 3, 5),
    (13, 10, 1),
    (19, 15, 13),
    (0, 6, 11),
    (8, 6, 19),
    (11, 15, 8),
    (14, 13, 16),
    (18, 7, 8),
    (2, 5, 3),
    (5, 1, 3),
    (8, 10, 6),
    (11, 7, 9),
    (17, 10, 5),
    (1, 3, 4),
    (9, 12, 14),
    (10, 11, 0),
    (3, 1, 2),
    (17, 16, 18),
];

/// The Figure 6/8 grid as a sweep spec over the first `count` published
/// triplets (paper §5.1): one Toffoli pinned to each triplet's
/// Johannesburg qubits "to force routing to occur", all three qubits
/// measured, baseline and Trios routers, today's calibration. Over all
/// [`FIG67_TRIPLETS`] it is the grid `figure_repro` writes to
/// `BENCH_sweep.json`.
pub fn fig6_fig8_spec(count: usize) -> SweepSpec {
    let benchmarks = FIG67_TRIPLETS[..count]
        .iter()
        .map(|&(c1, c2, t)| {
            let mut circuit = Circuit::with_name(3, format!("toffoli-{c1}-{c2}-{t}"));
            circuit.ccx(0, 1, 2);
            let name = circuit.name().to_string();
            let mut bench = SweepBenchmark::measured(name, circuit);
            bench.mapping = Some(InitialMapping::Fixed(vec![c1, c2, t]));
            bench
        })
        .collect();
    SweepSpec {
        benchmarks,
        devices: vec![("johannesburg".into(), device())],
        routers: vec!["baseline".into(), "trios".into()],
        // The published figures use the connectivity-aware default; the
        // decomposer axis lives in `decomposer_grid_spec`.
        decomposers: vec!["standard".into()],
        calibrations: vec![("now".into(), Calibration::johannesburg_2020_08_19())],
        ..SweepSpec::new()
    }
}

/// The router × decomposer ablation grid over the given benchmarks and
/// decomposer names on Johannesburg, estimated under the 20×-improved
/// near-future calibration. Over [`Benchmark::toffoli_suite`] and
/// [`all_decomposers`] it is the grid `decomposer_ablation` writes to
/// `BENCH_decomp.json`.
pub fn decomposer_grid_spec(benchmarks: &[Benchmark], decomposers: Vec<String>) -> SweepSpec {
    SweepSpec {
        benchmarks: benchmarks
            .iter()
            .map(|b| SweepBenchmark::measured(b.name(), b.build()))
            .collect(),
        devices: vec![("johannesburg".into(), device())],
        routers: vec!["baseline".into(), "trios".into()],
        decomposers,
        calibrations: vec![(
            "near-future".into(),
            Calibration::johannesburg_2020_08_19().improved(20.0),
        )],
        ..SweepSpec::new()
    }
}

/// Every registered decomposition, in registry order, so the ablation
/// grid stays in sync with `DecomposerRegistry::standard()`.
pub fn all_decomposers() -> Vec<String> {
    DecomposerRegistry::standard()
        .names()
        .map(String::from)
        .collect()
}

/// Geometric mean (inputs must be positive).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Compiles the single-Toffoli experiment of Figures 6–8: a Toffoli whose
/// three logical qubits are pinned at the given Johannesburg triple, with
/// the three qubits measured (paper §5.1: prepare |110⟩, apply the
/// compiled Toffoli, measure).
pub fn compile_single_toffoli(
    device: &Topology,
    triplet: (usize, usize, usize),
    config: PaperConfig,
    seed: u64,
) -> CompiledProgram {
    let mut program = Circuit::with_name(3, "single-toffoli");
    program.ccx(0, 1, 2);
    let program = with_measurements(&program, &[0, 1, 2]);
    let compiler = Compiler::builder()
        .seed(seed)
        .config(config)
        .mapping(InitialMapping::Fixed(vec![triplet.0, triplet.1, triplet.2]))
        .build();
    compiler
        .compile(&program, device)
        .expect("single-Toffoli experiment compiles")
}

/// Compiles one of the paper's NISQ benchmarks on a device under a paper
/// configuration (`QiskitBaseline` or `Trios` in Figures 9–11), with every
/// logical qubit measured.
pub fn compile_benchmark(
    circuit: &Circuit,
    device: &Topology,
    config: PaperConfig,
    seed: u64,
) -> CompiledProgram {
    compile_benchmark_with_report(circuit, device, config, seed).0
}

/// Like [`compile_benchmark`], also returning the per-pass
/// [`CompileReport`] (wall times, gate-count deltas) for instrumentation
/// studies.
pub fn compile_benchmark_with_report(
    circuit: &Circuit,
    device: &Topology,
    config: PaperConfig,
    seed: u64,
) -> (CompiledProgram, CompileReport) {
    let measured = with_measurements(circuit, &(0..circuit.num_qubits()).collect::<Vec<_>>());
    let compiler = Compiler::builder().seed(seed).config(config).build();
    compiler
        .compile_with_report(&measured, device)
        .expect("benchmark compiles")
}

/// Serializes a compile report as one JSON line (the report types
/// implement `serde::Serialize` behind `trios-core`'s `serde` feature, so
/// nothing here formats fields by hand).
pub fn report_json(report: &CompileReport) -> String {
    serde_json::to_string(report).expect("reports contain only finite numbers")
}

/// The Johannesburg device (all Toffoli experiments run there).
pub fn device() -> Topology {
    johannesburg()
}

/// The paper's real-hardware calibration (Fig. 6/8) and its 20×-improved
/// near-future version (Fig. 9/11/12).
pub fn calibrations() -> (Calibration, Calibration) {
    let now = Calibration::johannesburg_2020_08_19();
    let future = now.improved(20.0);
    (now, future)
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a probability as a percentage with two decimals.
pub fn pct(p: f64) -> String {
    format!("{:6.2}%", 100.0 * p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplet_distances_match_figure_labels() {
        // The x-labels pair each triplet with its gather distance; verify
        // the whole published list.
        let expected = [
            10, 10, 9, 9, 9, 8, 8, 8, 8, 8, 7, 7, 7, 7, 7, 6, 6, 6, 6, 6, 5, 5, 5, 5, 5, 4, 4, 4,
            4, 4, 3, 3, 3, 2, 2,
        ];
        let dev = device();
        for (&(a, b, t), &d) in FIG67_TRIPLETS.iter().zip(&expected) {
            assert_eq!(
                dev.triple_distance(a, b, t),
                Some(d),
                "triplet ({a}-{b}-{t})"
            );
        }
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn single_toffoli_experiment_compiles_all_configs() {
        let dev = device();
        for config in PaperConfig::FIG6 {
            let compiled = compile_single_toffoli(&dev, (6, 17, 3), config, 0);
            assert!(compiled.stats.two_qubit_gates >= 6, "{config:?}");
            assert_eq!(compiled.stats.measurements, 3);
        }
    }

    #[test]
    fn report_json_covers_every_pass() {
        let dev = device();
        let circuit = {
            let mut c = Circuit::new(3);
            c.ccx(0, 1, 2);
            c
        };
        let (compiled, report) =
            compile_benchmark_with_report(&circuit, &dev, PaperConfig::Trios, 0);
        assert_eq!(compiled.stats, report.stats);
        let json = report_json(&report);
        for pass in [
            "initial-mapping",
            "route-trios",
            "lower",
            "optimize",
            "validate",
            "schedule",
        ] {
            assert!(json.contains(pass), "missing {pass} in {json}");
        }
        assert!(json.contains("\"two_qubit_gates\""));
    }
}
