//! Simulator-backed correctness: compiled output must implement the
//! original program, verified by statevector replay through the
//! initial/final layouts (`DenseSimulator`'s `Simulator::compiled_equivalent`).
//! The last two tests hold the stabilizer's exact check to the
//! statevector backends' verdicts on inequivalent pairs.
//!
//! Most tests keep the physical register small (device width = circuit
//! width); two widen to the paper's 20-qubit Johannesburg device and the
//! full Table 1 suite. All of them run in debug builds too, because the
//! workspace compiles `trios-sim` at `opt-level = 3` in every profile.

use orchestrated_trios::benchmarks::{self, Benchmark, ExtendedBenchmark};
use orchestrated_trios::core::{Compiler, PaperConfig};
use orchestrated_trios::gen::{Family, Params};
use orchestrated_trios::ir::Circuit;
use orchestrated_trios::sim::{DenseSimulator, Simulator, SparseSimulator, StabilizerSimulator};
use orchestrated_trios::topology::{grid, heavy_hex, johannesburg, line, ring, Topology};

const EPS: f64 = 1e-7;

/// Compiles `circuit` for `device` under `config` and asserts the output
/// implements the original program.
fn assert_equivalent(circuit: &Circuit, device: &Topology, config: PaperConfig, trials: usize) {
    let compiler = Compiler::builder().seed(7).config(config).build();
    let compiled = compiler
        .compile(circuit, device)
        .unwrap_or_else(|e| panic!("{} failed to compile on {device}: {e}", circuit.name()));
    let ok = DenseSimulator::new(EPS)
        .compiled_equivalent(
            circuit,
            &compiled.circuit,
            &compiled.initial_layout.to_mapping(),
            &compiled.final_layout.to_mapping(),
            trials,
            13,
        )
        .unwrap_or_else(|e| panic!("simulating {} on {device}: {e}", circuit.name()));
    assert!(
        ok,
        "{} compiled on {device} ({config:?}) does not implement the program",
        circuit.name()
    );
}

/// The suite circuits that fit a dense simulation comfortably in debug
/// builds (≤ 8 qubits).
fn small_suite() -> Vec<Circuit> {
    Benchmark::ALL
        .into_iter()
        .map(|b| b.build())
        .chain(ExtendedBenchmark::ALL.into_iter().map(|b| b.build()))
        .filter(|c| c.num_qubits() <= 8)
        .collect()
}

#[test]
fn small_suite_circuits_compile_equivalently() {
    let circuits = small_suite();
    assert!(
        !circuits.is_empty(),
        "suite should contain sub-8-qubit circuits"
    );
    for circuit in &circuits {
        let n = circuit.num_qubits().max(2);
        for config in [PaperConfig::Trios, PaperConfig::QiskitBaseline] {
            // Tightest possible register: device width = circuit width.
            assert_equivalent(circuit, &line(n), config, 2);
        }
        // And one roomier device, so ancilla physical qubits are exercised.
        assert_equivalent(
            circuit,
            &grid(3, 3.max(n.div_ceil(3))),
            PaperConfig::Trios,
            2,
        );
    }
}

#[test]
fn small_parametric_instances_compile_equivalently() {
    // Sub-8-qubit instances from every generator family, so coverage does
    // not hinge on which named sizes happen to be in the suite.
    let circuits = vec![
        benchmarks::cuccaro_adder(2),
        benchmarks::takahashi_adder(3),
        benchmarks::qft_adder(3),
        benchmarks::qft(5),
        benchmarks::grovers(3, 5),
        benchmarks::incrementer_borrowedbit(4, 2),
        benchmarks::bernstein_vazirani(6, 0b10110),
        benchmarks::qaoa_complete(5, 0.4, 1.1),
        benchmarks::toffoli_chain(6, 2),
        benchmarks::fredkin_network(7),
        benchmarks::hypergraph_state(6, 8, 11),
        benchmarks::random_nisq(7, 40, 3),
    ];
    for circuit in &circuits {
        let n = circuit.num_qubits().max(2);
        assert!(n <= 8, "{} too wide for the fast suite", circuit.name());
        assert_equivalent(circuit, &line(n), PaperConfig::Trios, 2);
        assert_equivalent(circuit, &ring(n.max(3)), PaperConfig::TriosEight, 1);
    }
}

#[test]
fn full_suite_compiles_equivalently_on_compact_devices() {
    // Every suite circuit up to 16 qubits, on a device of its own width.
    let circuits: Vec<Circuit> = Benchmark::ALL
        .into_iter()
        .map(|b| b.build())
        .chain(ExtendedBenchmark::ALL.into_iter().map(|b| b.build()))
        .filter(|c| c.num_qubits() <= 16)
        .collect();
    for circuit in &circuits {
        assert_equivalent(circuit, &line(circuit.num_qubits()), PaperConfig::Trios, 1);
    }
    // One full-width (20-qubit, 2^20 amplitudes) circuit: Bernstein-
    // Vazirani is shallow enough to finish quickly.
    let bv = Benchmark::Bv20.build();
    assert_equivalent(&bv, &line(bv.num_qubits()), PaperConfig::Trios, 1);
}

#[test]
fn johannesburg_compilations_are_equivalent() {
    // The paper's actual device: every circuit verifies inside the full
    // 20-qubit physical register, ancillas and all.
    let jo = johannesburg();
    for circuit in [
        Benchmark::CnxInplace4.build(),
        Benchmark::IncrementerBorrowedbit5.build(),
        ExtendedBenchmark::HypergraphState12.build(),
    ] {
        for config in [PaperConfig::Trios, PaperConfig::QiskitEight] {
            assert_equivalent(&circuit, &jo, config, 1);
        }
    }
}

#[test]
fn stabilizer_rejects_cx_against_x_at_every_seed() {
    // CX(0,1) acts as X(1) on every input whose qubit 0 is |1⟩, so a check
    // that samples stabilizer inputs can pass the pair; an exact one never.
    let mut cx = Circuit::new(2);
    cx.cx(0, 1);
    let mut x = Circuit::new(2);
    x.x(1);
    let sim = StabilizerSimulator::new();
    for seed in 0..1000 {
        assert_eq!(
            sim.circuits_equivalent(&cx, &x, 1, seed),
            Ok(false),
            "seed {seed}"
        );
    }
}

#[test]
fn stabilizer_passes_no_dropped_instruction_a_statevector_check_rejects() {
    // Routed Clifford programs with one compiled instruction dropped at 13
    // evenly spaced points. On line:8 the one-trial stabilizer verdict
    // must equal dense's 20-trial one; on the wider devices every mutant
    // it passes must also pass 20 sparse trials.
    let compiler = Compiler::builder().router("trios").build();
    for (device, width) in [(line(8), 8), (johannesburg(), 20), (heavy_hex(7), 20)] {
        for seed in 0..6 {
            let circuit = Family::Clifford.generate(&Params::new(width, 60), seed);
            let compiled = compiler.compile(&circuit, &device).unwrap();
            let initial = compiled.initial_layout.to_mapping();
            let fin = compiled.final_layout.to_mapping();
            let instrs = compiled.circuit.instructions();
            for k in 0..13 {
                let drop = k * instrs.len() / 13;
                let kept = instrs.iter().enumerate().filter(|&(i, _)| i != drop);
                let mutant =
                    Circuit::from_instructions(device.num_qubits(), kept.map(|(_, g)| *g)).unwrap();
                let check = |sim: &dyn Simulator, trials| {
                    sim.compiled_equivalent(&circuit, &mutant, &initial, &fin, trials, 29)
                        .unwrap()
                };
                let exact = check(&StabilizerSimulator::new(), 1);
                let case = format!("{} on {device} without instruction {drop}", circuit.name());
                if device.num_qubits() <= 8 {
                    assert_eq!(exact, check(&DenseSimulator::new(EPS), 20), "{case}");
                } else if exact {
                    assert!(check(&SparseSimulator::default(), 20), "{case}");
                }
            }
        }
    }
}
