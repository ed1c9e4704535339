//! Domain study: compile ripple-carry adders across the paper's four
//! device types, compare the routers, and verify a compiled adder still
//! adds by simulating it end-to-end.
//!
//! Run with `cargo run --release --example adder_study`.

use orchestrated_trios::benchmarks::cuccaro_adder;
use orchestrated_trios::core::{Calibration, Compiler, PaperConfig};
use orchestrated_trios::sim::State;
use orchestrated_trios::topology::PaperDevice;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: the paper's 9-bit adder across all four devices.
    let adder = cuccaro_adder(9); // 20 qubits
    let cal = Calibration::near_future();
    println!("cuccaro_adder-20 across device types (baseline vs Trios):");
    println!(
        "{:<20} {:>10} {:>10} {:>12} {:>12}",
        "device", "2q base", "2q trios", "succ base", "succ trios"
    );
    let base_compiler = Compiler::builder()
        .config(PaperConfig::QiskitBaseline)
        .build();
    let trios_compiler = Compiler::builder().config(PaperConfig::Trios).build();
    for device in PaperDevice::ALL {
        let topo = device.build();
        let base = base_compiler.compile(&adder, &topo)?;
        let trios = trios_compiler.compile(&adder, &topo)?;
        println!(
            "{:<20} {:>10} {:>10} {:>11.2}% {:>11.2}%",
            device.label(),
            base.stats.two_qubit_gates,
            trios.stats.two_qubit_gates,
            100.0 * base.estimate_success(&cal).probability(),
            100.0 * trios.estimate_success(&cal).probability(),
        );
    }

    // --- Part 2: end-to-end correctness of a compiled adder.
    // Compile a 3-bit adder (8 qubits) for Johannesburg and simulate the
    // *compiled physical circuit*: 5 + 2 must still be 7.
    let small = cuccaro_adder(3);
    let topo = PaperDevice::Johannesburg.build();
    let compiled = Compiler::builder()
        .seed(1)
        .config(PaperConfig::Trios)
        .build()
        .compile(&small, &topo)?;
    let (a_val, b_val) = (5usize, 2usize);

    // Prepare |a, b⟩ through the initial layout.
    let n_phys = compiled.circuit.num_qubits();
    let mapping = compiled.initial_layout.to_mapping();
    let mut input = 0usize;
    for bit in 0..3 {
        if (a_val >> bit) & 1 == 1 {
            input |= 1 << mapping[1 + bit]; // register a = logical 1..=3
        }
        if (b_val >> bit) & 1 == 1 {
            input |= 1 << mapping[4 + bit]; // register b = logical 4..=6
        }
    }
    let mut state = State::basis(n_phys, input)?;
    state.apply_circuit(&compiled.circuit)?;

    // Read the sum back through the final layout.
    let final_map = compiled.final_layout.to_mapping();
    let sum_qubits: Vec<usize> = (0..3).map(|bit| final_map[4 + bit]).collect();
    let mut sum = 0usize;
    for (bit, &pq) in sum_qubits.iter().enumerate() {
        if state.marginal_probability(&[pq], 1) > 0.5 {
            sum |= 1 << bit;
        }
    }
    println!("\ncompiled 3-bit adder on Johannesburg: {a_val} + {b_val} = {sum}");
    assert_eq!(sum, a_val + b_val, "compiled adder must still add");
    println!("verified: the physical circuit computes the same sum as the logical program");
    Ok(())
}
