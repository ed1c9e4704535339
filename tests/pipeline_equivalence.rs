//! Cross-crate integration tests: every benchmark, through both
//! pipelines, on every paper device, must produce a hardware-legal
//! circuit; the smaller ones are additionally verified semantically
//! against the original program with the statevector simulator.

use orchestrated_trios::benchmarks::Benchmark;
use orchestrated_trios::core::{Compiler, PaperConfig};
use orchestrated_trios::route::{check_legal, ToffoliPolicy};
use orchestrated_trios::sim::{DenseSimulator, Simulator};
use orchestrated_trios::topology::PaperDevice;

/// The baseline and full-Trios paper configurations: one per pipeline of
/// the paper's Figure 2.
fn configs() -> [PaperConfig; 2] {
    [PaperConfig::QiskitBaseline, PaperConfig::Trios]
}

/// One configured compiler per paper config — built once, reused across
/// every circuit and device in these tests.
fn compiler(config: PaperConfig, seed: u64) -> Compiler {
    Compiler::builder().seed(seed).config(config).build()
}

#[test]
fn every_benchmark_compiles_legally_on_every_device() {
    for b in Benchmark::ALL {
        let circuit = b.build();
        for device in PaperDevice::ALL {
            let topo = device.build();
            for config in configs() {
                let compiled = compiler(config, 7)
                    .compile(&circuit, &topo)
                    .unwrap_or_else(|e| panic!("{b} on {device:?} ({config:?}): {e}"));
                assert!(
                    compiled.circuit.is_hardware_lowered(),
                    "{b} on {device:?} ({config:?}): not lowered"
                );
                check_legal(&compiled.circuit, &topo, ToffoliPolicy::Forbid).unwrap_or_else(|v| {
                    panic!("{b} on {device:?} ({config:?}): illegal output: {v}")
                });
            }
        }
    }
}

#[test]
fn small_benchmarks_are_semantically_preserved() {
    // Benchmarks small enough for full statevector verification on the
    // 20-qubit devices would need 2^20 amplitudes per trial; keep the
    // simulated set to programs of ≤ 11 logical qubits and verify each on
    // every device (the physical register is what is simulated).
    let small = [
        Benchmark::CnxInplace4,
        Benchmark::IncrementerBorrowedbit5,
        Benchmark::Grovers9,
        Benchmark::QaoaComplete10,
        Benchmark::CnxDirty11,
    ];
    for b in small {
        let circuit = b.build();
        // Keep runtime in check: verify on the two extreme devices.
        for device in [PaperDevice::Line, PaperDevice::Johannesburg] {
            let topo = device.build();
            for config in configs() {
                let compiled = compiler(config, 13).compile(&circuit, &topo).unwrap();
                let ok = DenseSimulator::new(1e-7)
                    .compiled_equivalent(
                        &circuit,
                        &compiled.circuit,
                        &compiled.initial_layout.to_mapping(),
                        &compiled.final_layout.to_mapping(),
                        1,
                        999,
                    )
                    .unwrap();
                assert!(ok, "{b} on {device:?} ({config:?}): semantics broken");
            }
        }
    }
}

#[test]
fn trios_never_loses_on_toffoli_benchmarks() {
    // The paper's core claim. Both routers are stochastic, so a single
    // seed can flip an individual pair (the paper itself reports "a small
    // number of cases where Trios performs worse"); compare geomeans over
    // several seeds, allowing 5% per benchmark×device and requiring a
    // strict win per device at the suite level.
    let seeds = [0u64, 1, 2];
    let geo = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
    for device in PaperDevice::ALL {
        let topo = device.build();
        let mut suite_ratios = Vec::new();
        for b in Benchmark::toffoli_suite() {
            let circuit = b.build();
            let mut base_counts = Vec::new();
            let mut trios_counts = Vec::new();
            for &seed in &seeds {
                let base = compiler(PaperConfig::QiskitBaseline, seed)
                    .compile(&circuit, &topo)
                    .unwrap();
                let trios = compiler(PaperConfig::Trios, seed)
                    .compile(&circuit, &topo)
                    .unwrap();
                base_counts.push(base.stats.two_qubit_gates as f64);
                trios_counts.push(trios.stats.two_qubit_gates as f64);
            }
            let (gb, gt) = (geo(&base_counts), geo(&trios_counts));
            assert!(
                gt <= gb * 1.05,
                "{b} on {device:?}: trios {gt:.1} > baseline {gb:.1}"
            );
            suite_ratios.push(gb / gt);
        }
        assert!(
            geo(&suite_ratios) > 1.0,
            "{device:?}: no suite-level gate reduction"
        );
    }
}

#[test]
fn toffoli_free_benchmarks_see_no_change() {
    // "On programs containing no Toffoli gates, Trios has no effect"
    // (paper §6.2) — with identical options the pipelines coincide.
    for b in [
        Benchmark::QftAdder16,
        Benchmark::Bv20,
        Benchmark::QaoaComplete10,
    ] {
        let circuit = b.build();
        for device in PaperDevice::ALL {
            let topo = device.build();
            let base = compiler(PaperConfig::QiskitBaseline, 7)
                .compile(&circuit, &topo)
                .unwrap();
            let trios = compiler(PaperConfig::Trios, 7)
                .compile(&circuit, &topo)
                .unwrap();
            assert_eq!(
                base.stats.two_qubit_gates, trios.stats.two_qubit_gates,
                "{b} on {device:?}"
            );
        }
    }
}

#[test]
fn line_topology_shows_largest_reduction() {
    // Paper §6.1: "the maximum gain obtained for linear devices".
    let mut reductions = std::collections::HashMap::new();
    for device in PaperDevice::ALL {
        let topo = device.build();
        let mut ratios = Vec::new();
        for b in Benchmark::toffoli_suite() {
            let circuit = b.build();
            let base = compiler(PaperConfig::QiskitBaseline, 7)
                .compile(&circuit, &topo)
                .unwrap();
            let trios = compiler(PaperConfig::Trios, 7)
                .compile(&circuit, &topo)
                .unwrap();
            ratios.push(base.stats.two_qubit_gates as f64 / trios.stats.two_qubit_gates as f64);
        }
        let geo: f64 = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        reductions.insert(device, geo);
    }
    let line = reductions[&PaperDevice::Line];
    for (device, r) in &reductions {
        assert!(
            line >= *r,
            "line ({line:.3}) should dominate {device:?} ({r:.3})"
        );
    }
    // Clusters should show the smallest benefit (richest connectivity).
    let clusters = reductions[&PaperDevice::Clusters];
    for (device, r) in &reductions {
        if *device != PaperDevice::Clusters {
            assert!(
                clusters <= *r,
                "clusters ({clusters:.3}) should trail {device:?} ({r:.3})"
            );
        }
    }
}

#[test]
fn compilation_is_deterministic_per_seed() {
    let circuit = Benchmark::CuccaroAdder20.build();
    let topo = PaperDevice::Johannesburg.build();
    let trios = compiler(PaperConfig::Trios, 42);
    let a = trios.compile(&circuit, &topo).unwrap();
    let b = trios.compile(&circuit, &topo).unwrap();
    assert_eq!(a.circuit, b.circuit);
    assert_eq!(a.final_layout, b.final_layout);
}
