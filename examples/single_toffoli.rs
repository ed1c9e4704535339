//! The paper's Figure 1 walkthrough: route one Toffoli between three
//! distant Johannesburg qubits with the baseline pair router and with the
//! Trios trio router, showing the inserted SWAPs and the gathered trio.
//!
//! Run with `cargo run --release --example single_toffoli`.

use orchestrated_trios::ir::{Circuit, Gate};
use orchestrated_trios::passes::{decompose_toffolis, SixCnotDecomposition};
use orchestrated_trios::route::{
    DecomposeFirst, Layout, OrchestratedTrios, RouterOptions, RoutingStrategy,
};
use orchestrated_trios::topology::{johannesburg, GridEmbedding};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = johannesburg();
    // The hardest triple of the paper's Figure 6/7: qubits 6, 17, 3.
    let triple = [6usize, 17, 3];
    let layout = Layout::from_mapping(&triple, 20)?;

    let mut program = Circuit::with_name(3, "fig1-toffoli");
    program.ccx(0, 1, 2);

    println!(
        "Toffoli on Johannesburg qubits {triple:?} (gather distance {})",
        device
            .triple_distance(triple[0], triple[1], triple[2])
            .unwrap()
    );
    println!();
    println!("{}", GridEmbedding::johannesburg().render(&device, &triple));

    // --- Baseline: decompose first, then route each CNOT individually.
    let decomposed = decompose_toffolis(&program, &SixCnotDecomposition);
    let base = DecomposeFirst.route(
        &decomposed,
        &device,
        layout.clone(),
        &RouterOptions::with_seed(0),
    )?;
    println!(
        "baseline (decompose-first): {} SWAPs = {} extra CNOTs, {} CNOTs total",
        base.trace.swaps,
        3 * base.trace.swaps,
        base.cx_cost()
    );
    print_swaps(&base.circuit);

    // --- Trios: gather the trio first, decompose second.
    let opts = RouterOptions {
        lower_toffoli: false, // keep the ccx visible for the demo
        ..RouterOptions::with_seed(0)
    };
    let trios = OrchestratedTrios.route(&program, &device, layout, &opts)?;
    println!(
        "\ntrios (route-then-decompose): {} SWAPs, gathered trio shown below",
        trios.trace.swaps
    );
    print_swaps(&trios.circuit);
    for instr in trios.circuit.iter() {
        if instr.gate() == Gate::Ccx {
            let (a, b, t) = (
                instr.qubit(0).index(),
                instr.qubit(1).index(),
                instr.qubit(2).index(),
            );
            println!(
                "  toffoli lands on physical ({a}, {b}, {t}) — shape: {:?}",
                device.triple_shape(a, b, t)
            );
            println!();
            println!(
                "{}",
                GridEmbedding::johannesburg().render(&device, &[a, b, t])
            );
        }
    }
    println!(
        "\nwith the 8-CNOT decomposition, Trios totals {} CNOTs (vs {} baseline)",
        3 * trios.trace.swaps + 8,
        base.cx_cost()
    );
    println!(
        "paper's Figure 1 reports 16 SWAPs (48 CNOTs) for Qiskit vs 7 SWAPs (21 CNOTs) for Trios"
    );
    Ok(())
}

fn print_swaps(circuit: &Circuit) {
    let swaps: Vec<String> = circuit
        .iter()
        .filter(|i| i.gate() == Gate::Swap)
        .map(|i| format!("{}-{}", i.qubit(0).index(), i.qubit(1).index()))
        .collect();
    println!("  swap sequence: {}", swaps.join(", "));
}
