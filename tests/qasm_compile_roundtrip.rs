//! QASM round-trip through the compiler: parse an OpenQASM 2.0 program,
//! compile it with both pipelines via the builder API, emit the compiled
//! circuit as QASM, re-parse it, and check the re-parsed circuit is still
//! semantically equivalent to the original program.

use orchestrated_trios::core::{Compiler, DecomposerRegistry, PaperConfig};
use orchestrated_trios::qasm::{emit, parse};
use orchestrated_trios::route::verify_legal;
use orchestrated_trios::sim::{DenseSimulator, Simulator};
use orchestrated_trios::topology::{grid, johannesburg};

const PROGRAM: &str = "OPENQASM 2.0;
include \"qelib1.inc\";
qreg q[5];
h q[0];
cx q[0], q[1];
ccx q[0], q[1], q[2];
rz(0.25) q[3];
cswap q[2], q[3], q[4];
ccz q[0], q[2], q[4];
";

#[test]
fn parsed_programs_compile_and_round_trip_on_both_pipelines() {
    let program = parse(PROGRAM).unwrap();
    for config in [PaperConfig::QiskitBaseline, PaperConfig::Trios] {
        for topo in [johannesburg(), grid(3, 2)] {
            let compiled = Compiler::builder()
                .seed(6)
                .config(config)
                .build()
                .compile(&program, &topo)
                .unwrap_or_else(|e| panic!("{config:?} on {}: {e}", topo.name()));

            // Emit the compiled circuit and re-parse it: the round trip
            // must preserve the instruction stream exactly.
            let text = emit(&compiled.circuit);
            let reparsed = parse(&text).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{text}"));
            assert_eq!(reparsed.num_qubits(), compiled.circuit.num_qubits());
            assert_eq!(
                reparsed.instructions(),
                compiled.circuit.instructions(),
                "{config:?} on {}",
                topo.name()
            );

            // And the re-parsed circuit still implements the original
            // program through the compiler's layouts.
            let ok = DenseSimulator::new(1e-7)
                .compiled_equivalent(
                    &program,
                    &reparsed,
                    &compiled.initial_layout.to_mapping(),
                    &compiled.final_layout.to_mapping(),
                    2,
                    17,
                )
                .unwrap();
            assert!(ok, "{config:?} on {}: semantics broken", topo.name());
        }
    }
}

/// Satellite of the DecompositionStrategy refactor: every executable
/// lowering's output is hardware-legal (`verify_legal`: native gate set,
/// coupling-map edges only — no unlowered ccx/ccz/cswap escapes) and
/// survives a QASM emit → parse round trip byte-exactly, still
/// implementing the source program.
#[test]
fn every_executable_lowering_emits_legal_round_trippable_qasm() {
    let program = parse(PROGRAM).unwrap();
    let registry = DecomposerRegistry::standard();
    let topo = johannesburg();
    for name in registry.names() {
        if !registry.get(name).unwrap().executable() {
            continue;
        }
        let compiled = Compiler::builder()
            .seed(9)
            .decomposer(name)
            .build()
            .compile(&program, &topo)
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        verify_legal(&compiled.circuit, &topo)
            .unwrap_or_else(|e| panic!("{name} emitted an illegal circuit: {e}"));

        let text = emit(&compiled.circuit);
        let reparsed =
            parse(&text).unwrap_or_else(|e| panic!("{name} re-parse failed: {e}\n{text}"));
        assert_eq!(
            reparsed.instructions(),
            compiled.circuit.instructions(),
            "{name}: QASM round trip changed the instruction stream"
        );

        let ok = DenseSimulator::new(1e-7)
            .compiled_equivalent(
                &program,
                &reparsed,
                &compiled.initial_layout.to_mapping(),
                &compiled.final_layout.to_mapping(),
                2,
                23,
            )
            .unwrap();
        assert!(ok, "{name}: semantics broken after round trip");
    }
}

#[test]
fn qasm_files_survive_two_compile_emit_cycles() {
    // Emit → parse → compile again: the compiled artifact is itself a
    // valid compiler input (idempotent tooling pipelines).
    let program = parse(PROGRAM).unwrap();
    let topo = johannesburg();
    let compiler = Compiler::builder().seed(1).build();
    let first = compiler.compile(&program, &topo).unwrap();
    let reparsed = parse(&emit(&first.circuit)).unwrap();
    let second = compiler.compile(&reparsed, &topo).unwrap();
    assert!(second.circuit.is_hardware_lowered());
    assert_eq!(second.stats.measurements, first.stats.measurements);
}
