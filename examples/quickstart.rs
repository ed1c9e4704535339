//! Quickstart: compile a Toffoli-containing program for IBM Johannesburg
//! with the conventional baseline router and with Orchestrated Trios, and
//! compare.
//!
//! Run with `cargo run --release --example quickstart`.

use orchestrated_trios::core::{Calibration, Compiler, PaperConfig};
use orchestrated_trios::ir::Circuit;
use orchestrated_trios::topology::johannesburg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small program: prepare |110⟩ on three qubits, apply a Toffoli, and
    // measure — the paper's single-Toffoli experiment (§5.1).
    let mut program = Circuit::with_name(3, "quickstart");
    program.x(0).x(1).ccx(0, 1, 2);
    program.measure(0).measure(1).measure(2);

    let device = johannesburg();
    let calibration = Calibration::johannesburg_2020_08_19();

    println!("program:\n{program}");
    println!("device: {device}\n");

    for config in [PaperConfig::QiskitBaseline, PaperConfig::Trios] {
        let compiler = Compiler::builder().config(config).build();
        let compiled = compiler.compile(&program, &device)?;
        let estimate = compiled.estimate_success(&calibration);
        println!("{}:", config.label());
        println!("  two-qubit gates: {}", compiled.stats.two_qubit_gates);
        println!("  SWAPs inserted:  {}", compiled.stats.swap_count);
        println!("  depth:           {}", compiled.stats.depth);
        println!("  duration:        {:.2} µs", compiled.stats.duration_us);
        println!("  est. success:    {}", estimate);
        println!("  final layout:    {}", compiled.final_layout);
        println!();
    }
    Ok(())
}
