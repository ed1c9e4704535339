//! The §4 extension in action: Trios routing for **all** three-qubit
//! gates, not just the Toffoli.
//!
//! The paper routes `ccx` as a unit and picks its decomposition after
//! placement. The same machinery extends to:
//!
//! * **CCZ** — fully symmetric (diagonal), so the placement constraint is
//!   the *only* constraint: 6-CNOT form on a triangle, 8-CNOT form on a
//!   line with any operand in the middle, and no Hadamards at all;
//! * **Fredkin (controlled-SWAP)** — a CX-conjugated Toffoli; the router
//!   gathers around one of the *swapped* operands so the conjugating CNOT
//!   pair lands on a coupling edge.
//!
//! Run with `cargo run --release --example three_qubit_gates`.

use orchestrated_trios::core::Compiler;
use orchestrated_trios::ir::Circuit;
use orchestrated_trios::topology::johannesburg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = johannesburg();

    // One instance of each three-qubit gate, operands scattered across
    // the device by the same fixed mapping the paper uses to "force
    // routing to occur".
    type Case = (&'static str, fn(&mut Circuit));
    let cases: [Case; 3] = [
        ("toffoli (ccx)", |c| {
            c.ccx(0, 1, 2);
        }),
        ("ccz", |c| {
            c.ccz(0, 1, 2);
        }),
        ("fredkin (cswap)", |c| {
            c.cswap(0, 1, 2);
        }),
    ];

    println!("device: {device} — triangle-free, so lines are the best trios\n");
    println!(
        "{:<18} {:>10} {:>8} {:>10} {:>8} {:>8}",
        "gate", "base 2q", "swaps", "trios 2q", "swaps", "saved"
    );
    println!("{}", "-".repeat(68));
    for (name, build) in cases {
        let mut program = Circuit::new(3);
        build(&mut program);
        let place = orchestrated_trios::route::InitialMapping::Fixed(vec![6, 17, 3]);
        let mut results = Vec::new();
        for router in ["baseline", "trios"] {
            let compiled = Compiler::builder()
                .router(router)
                .mapping(place.clone())
                .direction(orchestrated_trios::route::DirectionPolicy::MoveFirst)
                .build()
                .compile(&program, &device)?;
            results.push((compiled.stats.two_qubit_gates, compiled.stats.swap_count));
        }
        let saved = 100.0 * (1.0 - results[1].0 as f64 / results[0].0 as f64);
        println!(
            "{:<18} {:>10} {:>8} {:>10} {:>8} {:>7.1}%",
            name, results[0].0, results[0].1, results[1].0, results[1].1, saved
        );
    }
    println!();
    println!("all three gates ride the same gather machinery: the paper's Toffoli");
    println!("benefit is not Toffoli-specific, it is three-qubit-structure-specific.");
    Ok(())
}
