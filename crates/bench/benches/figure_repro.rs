//! Reproduces the **Figure 6/8 success-probability grid** end-to-end
//! through the `trios_core::sweep` engine and emits it as
//! `BENCH_sweep.json` — the machine-readable perf/fidelity trajectory
//! later PRs regress against.
//!
//! Protocol (paper §5.1): one Toffoli per published Figure 6/7 triplet,
//! pinned to its Johannesburg qubits "to force routing to occur", all
//! three qubits measured, compiled under the baseline and Trios routers,
//! estimated under the real 2020-08-19 calibration. The trios/baseline
//! ratio rows are the Figure 8 view; the paper reports a +23% geomean
//! with a few bars below 100%.
//!
//! Run with `cargo bench -p trios-bench --bench figure_repro`.
//! Pass `-- --test` (as CI does) for a fast smoke cell: a reduced grid,
//! no file output, with the report's invariants asserted.

use trios_bench::{fig6_fig8_spec, FIG67_TRIPLETS};
use trios_core::sweep::MONTE_CARLO_MAX_QUBITS;
use trios_core::{run_sweep, SweepReport};

/// CI smoke cell: a 6-triplet grid, invariants asserted, nothing written.
fn run_test_mode() {
    let spec = fig6_fig8_spec(6);
    let report = run_sweep(&spec).unwrap();
    assert_eq!(report.cells.len(), 6 * 2, "6 triplets x 2 routers");
    assert_eq!(report.ratios.len(), 6, "one ratio row per triplet");
    for cell in &report.cells {
        assert!(cell.probability > 0.0 && cell.probability <= 1.0);
        assert_eq!(cell.measurements, 3, "all three qubits measured");
        assert_eq!(
            cell.decomposer, "standard",
            "figures use the default lowering"
        );
    }
    for row in &report.ratios {
        assert!(row.ratio > 0.0);
    }
    let geomean = report.geomean_for("trios").expect("trios ratios exist");
    assert!(geomean > 0.0);
    // The emitted JSON must satisfy the documented schema (parse back to
    // an equal report).
    let parsed = SweepReport::from_json(&report.to_json_pretty()).unwrap();
    assert_eq!(parsed, report);
    println!("figure_repro --test: 6-triplet grid ok, geomean {geomean:.3}x");
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        run_test_mode();
        return;
    }

    let spec = fig6_fig8_spec(FIG67_TRIPLETS.len());
    let report = run_sweep(&spec).unwrap();
    print!("{report}");

    // Anchor at the workspace root regardless of the bench's cwd.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    std::fs::write(path, report.to_json_pretty()).expect("write BENCH_sweep.json");
    println!();
    println!(
        "wrote BENCH_sweep.json ({} cells, {} ratio rows; paper Figure 8: +23% geomean)",
        report.cells.len(),
        report.ratios.len()
    );
    // The 3-qubit experiments compile onto the full 20-qubit device, so
    // the dense Monte Carlo cross-check does not run here; point at the
    // CLI for it.
    println!(
        "monte carlo cross-check: run `trios sweep -b cnx_inplace-4 -d line:6 --shots 400` \
         (cells must have <= {MONTE_CARLO_MAX_QUBITS} compiled qubits)"
    );
}
