//! The **router × decomposer ablation grid**: every registered Toffoli
//! decomposition crossed with the baseline and Trios routers on the
//! paper's Toffoli-bearing suite, estimated under the 20×-improved
//! near-future calibration (the paper's Figure 9–11 setting — the real
//! 2020 rates drive multi-Toffoli benchmarks to ~0 probability, where
//! ratios stop meaning anything), and emitted as `BENCH_decomp.json` —
//! the per-cell success-probability geomeans later PRs regress against.
//!
//! This is the experiment ROADMAP asked for once lowering became
//! pluggable: does the +21% trios/baseline headline grow when the
//! decomposition cooperates with routing (connectivity-aware `standard`
//! vs the forced variants), and what would a qutrit-style lowering per
//! Gokhale et al. buy (cost-model-only: those cells are repriced, never
//! executed)?
//!
//! Run with `cargo bench -p trios-bench --bench decomposer_ablation`.
//! Pass `-- --test` (as CI does) for a fast smoke grid: two benchmarks,
//! four decomposers, no file output, with the report's invariants
//! asserted.

use trios_bench::{all_decomposers, decomposer_grid_spec};
use trios_benchmarks::Benchmark;
use trios_core::{run_sweep, SweepReport};

/// CI smoke grid: 2 benchmarks × 2 routers × 4 decomposers, invariants
/// asserted, nothing written.
fn run_test_mode() {
    let benchmarks = [Benchmark::CnxInplace4, Benchmark::IncrementerBorrowedbit5];
    let decomposers: Vec<String> = ["standard", "six", "eight", "qutrit"]
        .into_iter()
        .map(String::from)
        .collect();
    let spec = decomposer_grid_spec(&benchmarks, decomposers.clone());
    let report = run_sweep(&spec).unwrap();

    assert_eq!(
        report.cells.len(),
        2 * 2 * 4,
        "2 benchmarks x 2 routers x 4 decomposers"
    );
    for cell in &report.cells {
        assert!(
            cell.probability > 0.0 && cell.probability <= 1.0,
            "{}/{}/{}: probability {}",
            cell.benchmark,
            cell.router,
            cell.decomposer,
            cell.probability
        );
    }
    // One geomean per (non-baseline router × decomposer) grid cell.
    for decomposer in &decomposers {
        assert!(
            report.geomean_for_grid("trios", decomposer).is_some(),
            "missing trios x {decomposer} geomean"
        );
    }
    // The forced variants genuinely differ: a grid that collapsed six and
    // eight into one lowering would be lying about its axis.
    let total_2q = |decomposer: &str| -> usize {
        report
            .cells
            .iter()
            .filter(|c| c.router == "trios" && c.decomposer == decomposer)
            .map(|c| c.two_qubit_gates)
            .sum()
    };
    assert_ne!(
        total_2q("six"),
        total_2q("eight"),
        "forced-6 and forced-8 must produce different gate totals"
    );
    // The emitted JSON must satisfy the documented schema (parse back to
    // an equal report).
    let parsed = SweepReport::from_json(&report.to_json_pretty()).unwrap();
    assert_eq!(parsed, report);
    let geomean = report.geomean_for_grid("trios", "standard").unwrap();
    println!("decomposer_ablation --test: 16-cell grid ok, trios x standard geomean {geomean:.3}x");
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        run_test_mode();
        return;
    }

    let suite: Vec<Benchmark> = Benchmark::toffoli_suite().collect();
    let spec = decomposer_grid_spec(&suite, all_decomposers());
    let report = run_sweep(&spec).unwrap();
    print!("{report}");

    // Anchor at the workspace root regardless of the bench's cwd.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decomp.json");
    std::fs::write(path, report.to_json_pretty()).expect("write BENCH_decomp.json");
    println!();
    println!(
        "wrote BENCH_decomp.json ({} cells, {} ratio rows, {} grid geomeans)",
        report.cells.len(),
        report.ratios.len(),
        report.geomeans.len()
    );
    println!(
        "qutrit cells are repriced from the standard compile (cost model only; Gokhale et al.)"
    );
}
