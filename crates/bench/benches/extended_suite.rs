//! Extension study (beyond the paper): the [`ExtendedBenchmark`] suite —
//! standalone QFT, Toffoli-density extremes, seeded random circuits, and
//! the CCZ/Fredkin workloads — through both pipelines on the paper's four
//! devices plus IBM's 27-qubit heavy-hex lattice.
//!
//! Shape expectations:
//!
//! * `qft-16` (no 3-qubit gates): zero change — the extension keeps the
//!   paper's no-overhead property.
//! * `toffoli_chain-18` (local trios): small but nonzero gains — trios are
//!   nearly gathered already.
//! * `random_nisq-16`, `hypergraph_state-12`, `fredkin_network-11`:
//!   baseline-style decompose-first loses exactly as it does for Toffolis
//!   in Figures 9–11, because CCZ/Fredkin scatter into six-plus CNOTs.
//!
//! Run with `cargo bench -p trios-bench --bench extended_suite`.

use trios_bench::{calibrations, compile_benchmark, geomean, pct, rule};
use trios_benchmarks::ExtendedBenchmark;
use trios_core::PaperConfig;
use trios_topology::{heavy_hex_falcon27, PaperDevice, Topology};

fn main() {
    let (_, cal_future) = calibrations();
    let devices: Vec<(String, Topology)> = PaperDevice::ALL
        .into_iter()
        .map(|d| (d.label().to_string(), d.build()))
        .chain(std::iter::once((
            "heavy-hex-27".to_string(),
            heavy_hex_falcon27(),
        )))
        .collect();

    println!("Extension study: extended suite, 2q gate counts and success (20x errors)");
    println!(
        "{:<22} {:<20} {:>8} {:>8} {:>7} {:>9} {:>9}",
        "benchmark", "device", "base2q", "trios2q", "saved", "p(base)", "p(trios)"
    );
    rule(90);

    let mut ratios_per_device: Vec<Vec<f64>> = vec![Vec::new(); devices.len()];
    for b in ExtendedBenchmark::ALL {
        let circuit = b.build();
        for (di, (label, topo)) in devices.iter().enumerate() {
            let base = compile_benchmark(&circuit, topo, PaperConfig::QiskitBaseline, 0);
            let trios = compile_benchmark(&circuit, topo, PaperConfig::Trios, 0);
            let (cb, ct) = (base.stats.two_qubit_gates, trios.stats.two_qubit_gates);
            let saved = 100.0 * (1.0 - ct as f64 / cb as f64);
            let (pb, pt) = (
                base.estimate_success(&cal_future).probability(),
                trios.estimate_success(&cal_future).probability(),
            );
            if b.uses_three_qubit() {
                ratios_per_device[di].push(cb as f64 / ct as f64);
            }
            println!(
                "{:<22} {:<20} {:>8} {:>8} {:>6.1}% {:>9} {:>9}",
                b.name(),
                label,
                cb,
                ct,
                saved,
                pct(pb),
                pct(pt)
            );
        }
        rule(90);
    }

    println!("\ngeomean 2q-gate ratio (baseline / trios) over 3q-gate benchmarks:");
    for (di, (label, _)) in devices.iter().enumerate() {
        println!("  {:<20} {:.2}x", label, geomean(&ratios_per_device[di]));
    }
    println!("\nqft-16 rows must show 0.0% saved (no 3-qubit gates — no-overhead property)");
}
