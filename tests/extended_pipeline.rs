//! Integration tests for the extension features: the extended benchmark
//! suite (QFT, Toffoli chains, random circuits, CCZ/Fredkin workloads)
//! through both routers on every paper device plus heavy-hex, the
//! lookahead router, and the commutation-aware optimizer.

use orchestrated_trios::benchmarks::ExtendedBenchmark;
use orchestrated_trios::core::{CompileOptions, Compiler, PaperConfig};
use orchestrated_trios::passes::OptimizeOptions;
use orchestrated_trios::route::{check_legal, LookaheadConfig, ToffoliPolicy};
use orchestrated_trios::sim::{DenseSimulator, Simulator};
use orchestrated_trios::topology::{heavy_hex_falcon27, PaperDevice, Topology};

fn all_devices() -> Vec<Topology> {
    PaperDevice::ALL
        .into_iter()
        .map(PaperDevice::build)
        .chain(std::iter::once(heavy_hex_falcon27()))
        .collect()
}

#[test]
fn extended_suite_compiles_legally_everywhere() {
    for b in ExtendedBenchmark::ALL {
        let circuit = b.build();
        for topo in all_devices() {
            for router in ["baseline", "trios"] {
                let compiled = Compiler::builder()
                    .router(router)
                    .seed(11)
                    .build()
                    .compile(&circuit, &topo)
                    .unwrap_or_else(|e| panic!("{b} on {}: {e}", topo.name()));
                assert!(compiled.circuit.is_hardware_lowered(), "{b}");
                check_legal(&compiled.circuit, &topo, ToffoliPolicy::Forbid)
                    .unwrap_or_else(|v| panic!("{b} on {}: {v}", topo.name()));
            }
        }
    }
}

#[test]
fn small_extended_benchmarks_are_semantically_preserved() {
    // The CCZ and Fredkin workloads are the new code paths; verify them
    // end to end on right-sized devices (simulation cost scales with the
    // physical register).
    use orchestrated_trios::topology::{grid, line};
    for b in [
        ExtendedBenchmark::HypergraphState12,
        ExtendedBenchmark::FredkinNetwork11,
    ] {
        let circuit = b.build();
        for topo in [line(circuit.num_qubits()), grid(4, 3)] {
            for config in [PaperConfig::QiskitBaseline, PaperConfig::Trios] {
                let compiled = Compiler::builder()
                    .seed(5)
                    .config(config)
                    .build()
                    .compile(&circuit, &topo)
                    .unwrap();
                let ok = DenseSimulator::new(1e-7)
                    .compiled_equivalent(
                        &circuit,
                        &compiled.circuit,
                        &compiled.initial_layout.to_mapping(),
                        &compiled.final_layout.to_mapping(),
                        1,
                        42,
                    )
                    .unwrap();
                assert!(ok, "{b} on {} ({config:?}): semantics broken", topo.name());
            }
        }
    }
}

#[test]
fn trios_wins_on_three_qubit_extended_benchmarks() {
    // The §4 extension carries the paper's headline property over to CCZ
    // and Fredkin workloads: geomean two-qubit counts improve on every
    // device.
    let geo = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
    for topo in all_devices() {
        let mut ratios = Vec::new();
        for b in ExtendedBenchmark::ALL {
            if !b.uses_three_qubit() {
                continue;
            }
            let circuit = b.build();
            let base = Compiler::builder()
                .config(PaperConfig::QiskitBaseline)
                .build()
                .compile(&circuit, &topo)
                .unwrap();
            let trios = Compiler::builder()
                .config(PaperConfig::Trios)
                .build()
                .compile(&circuit, &topo)
                .unwrap();
            ratios.push(base.stats.two_qubit_gates as f64 / trios.stats.two_qubit_gates as f64);
        }
        assert!(
            geo(&ratios) > 1.0,
            "{}: no suite-level reduction ({:.3})",
            topo.name(),
            geo(&ratios)
        );
    }
}

#[test]
fn qft_sees_no_change_from_trios() {
    // No three-qubit gates → identical pipelines (the extension keeps the
    // paper's no-overhead property).
    let circuit = ExtendedBenchmark::Qft16.build();
    for topo in all_devices() {
        let base = Compiler::builder()
            .seed(3)
            .config(PaperConfig::QiskitBaseline)
            .build()
            .compile(&circuit, &topo)
            .unwrap();
        let trios = Compiler::builder()
            .seed(3)
            .config(PaperConfig::Trios)
            .build()
            .compile(&circuit, &topo)
            .unwrap();
        assert_eq!(
            base.stats.two_qubit_gates,
            trios.stats.two_qubit_gates,
            "{}",
            topo.name()
        );
    }
}

#[test]
fn lookahead_and_full_optimization_compose_with_trios() {
    // Every extension can be stacked; the result stays legal and correct.
    let circuit = ExtendedBenchmark::FredkinNetwork11.build();
    let topo = PaperDevice::Grid.build();
    let compiled = Compiler::builder()
        .seed(2)
        .lookahead(Some(LookaheadConfig::default()))
        .optimize(OptimizeOptions::full())
        .build()
        .compile(&circuit, &topo)
        .unwrap();
    check_legal(&compiled.circuit, &topo, ToffoliPolicy::Forbid).unwrap();
    let ok = DenseSimulator::new(1e-7)
        .compiled_equivalent(
            &circuit,
            &compiled.circuit,
            &compiled.initial_layout.to_mapping(),
            &compiled.final_layout.to_mapping(),
            1,
            9,
        )
        .unwrap();
    assert!(ok);
}

#[test]
fn full_optimization_never_increases_gate_counts() {
    for b in ExtendedBenchmark::ALL {
        let circuit = b.build();
        let topo = PaperDevice::Johannesburg.build();
        let light = Compiler::new(CompileOptions::with_seed(0))
            .compile(&circuit, &topo)
            .unwrap();
        let full = Compiler::builder()
            .optimize(OptimizeOptions::full())
            .build()
            .compile(&circuit, &topo)
            .unwrap();
        let total =
            |s: &orchestrated_trios::core::CompileStats| s.one_qubit_gates + s.two_qubit_gates;
        assert!(
            total(&full.stats) <= total(&light.stats),
            "{b}: full {} > light {}",
            total(&full.stats),
            total(&light.stats)
        );
    }
}
