//! End-to-end Grover search: generate the circuit, compile it with Trios
//! for Johannesburg, simulate the **compiled physical circuit**, and
//! confirm the marked state still dominates the output distribution.
//!
//! Run with `cargo run --release --example grover_end_to_end`.

use orchestrated_trios::benchmarks::grovers;
use orchestrated_trios::core::{Calibration, Compiler, PaperConfig};
use orchestrated_trios::sim::State;
use orchestrated_trios::topology::johannesburg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let marked = 0b1011usize;
    let program = grovers(4, marked); // 4 data qubits + 1 clean ancilla
    let device = johannesburg();

    println!(
        "Grover search for |{marked:04b}⟩: {} qubits, {} Toffolis",
        program.num_qubits(),
        program.counts().ccx
    );

    for config in [PaperConfig::QiskitBaseline, PaperConfig::Trios] {
        let compiler = Compiler::builder().config(config).build();
        let compiled = compiler.compile(&program, &device)?;

        // Simulate the physical circuit and read the data qubits through
        // the final layout.
        let state = State::run(&compiled.circuit)?;
        let final_map = compiled.final_layout.to_mapping();
        let data_homes: Vec<usize> = (0..4).map(|l| final_map[l]).collect();
        let p_marked = state.marginal_probability(&data_homes, marked);

        // Mirror the paper's methodology (§5.1: "8192 trials"): sample
        // shots from the compiled circuit's output distribution and count
        // how often the marked element is read out on the data qubits.
        let counts = state.sample_counts(8192, 1);
        let hits: usize = counts
            .iter()
            .filter(|(outcome, _)| {
                data_homes
                    .iter()
                    .enumerate()
                    .all(|(k, &q)| (*outcome >> q) & 1 == (marked >> k) & 1)
            })
            .map(|(_, n)| n)
            .sum();

        let cal = Calibration::near_future();
        println!("\n{}:", config.label());
        println!(
            "  two-qubit gates:       {}",
            compiled.stats.two_qubit_gates
        );
        println!("  ideal P(marked):       {:.1}%", 100.0 * p_marked);
        println!(
            "  sampled (8192 shots):  {:.1}%",
            100.0 * hits as f64 / 8192.0
        );
        println!(
            "  est. success (noisy):  {:.2}%",
            100.0 * compiled.estimate_success(&cal).probability() * p_marked
        );
        assert!(
            p_marked > 0.9,
            "compiled Grover must still amplify the marked state"
        );
    }
    println!("\nboth pipelines preserve semantics; Trios does it with fewer gates");
    Ok(())
}
