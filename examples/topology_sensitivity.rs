//! Sensitivity study beyond the paper's four devices: how the Trios
//! advantage changes with connectivity (line → ring → grid → clusters →
//! fully connected) and with the noise-aware routing extension.
//!
//! Run with `cargo run --release --example topology_sensitivity`.

use orchestrated_trios::benchmarks::Benchmark;
use orchestrated_trios::core::{Compiler, InitialMapping, PaperConfig, PathMetric};
use orchestrated_trios::topology::{clusters, full, grid, johannesburg, line, ring, Topology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = Benchmark::CnxDirty11.build();
    let devices: Vec<Topology> = vec![
        line(20),
        ring(20),
        grid(5, 4),
        johannesburg(),
        clusters(4, 5),
        full(20),
    ];

    println!("cnx_dirty-11 two-qubit gate counts by device connectivity:");
    println!(
        "{:<22} {:>7} {:>10} {:>8} {:>10}",
        "device", "edges", "baseline", "trios", "reduction"
    );
    let base_compiler = Compiler::builder()
        .config(PaperConfig::QiskitBaseline)
        .build();
    let trios_compiler = Compiler::builder().config(PaperConfig::Trios).build();
    for topo in &devices {
        let base = base_compiler.compile(&program, topo)?;
        let trios = trios_compiler.compile(&program, topo)?;
        let reduction =
            100.0 * (1.0 - trios.stats.two_qubit_gates as f64 / base.stats.two_qubit_gates as f64);
        println!(
            "{:<22} {:>7} {:>10} {:>8} {:>9.1}%",
            topo.name(),
            topo.edges().len(),
            base.stats.two_qubit_gates,
            trios.stats.two_qubit_gates,
            reduction
        );
    }
    println!("\nexpected: sparser connectivity → larger Trios advantage;");
    println!("on the fully connected device routing is trivial and the 6-CNOT Toffoli wins.");

    // --- Noise-aware routing extension (paper §4): avoid a noisy edge.
    let topo = johannesburg();
    // Pretend edge (5,6) is 10x noisier than the rest.
    let errors: Vec<f64> = topo
        .edges()
        .iter()
        .map(|&e| if e == (5, 6) { 0.15 } else { 0.015 })
        .collect();
    let pinned = |metric| {
        Compiler::builder()
            .config(PaperConfig::Trios)
            .metric(metric)
            .mapping(InitialMapping::Fixed(vec![0, 6, 11]))
            .build()
    };

    let mut toffoli = orchestrated_trios::ir::Circuit::new(3);
    toffoli.ccx(0, 1, 2);

    let plain = pinned(PathMetric::Hops).compile(&toffoli, &topo)?;
    let aware = pinned(PathMetric::from_edge_errors(&errors)).compile(&toffoli, &topo)?;
    let uses_bad_edge = |c: &orchestrated_trios::ir::Circuit| {
        c.iter().any(|i| {
            i.qubits().len() == 2 && {
                let (a, b) = (i.qubit(0).index(), i.qubit(1).index());
                (a.min(b), a.max(b)) == (5, 6)
            }
        })
    };
    println!(
        "\nnoise-aware routing: hop-metric route touches the bad edge: {}, noise-aware: {}",
        uses_bad_edge(&plain.circuit),
        uses_bad_edge(&aware.circuit)
    );
    Ok(())
}
