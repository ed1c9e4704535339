//! Regenerates **Figure 12**: sensitivity of the Trios success-rate
//! advantage to device error rates. The x-axis scales the Johannesburg
//! error rates by an improvement factor (1× = today, 20× = the Fig. 9
//! simulation point); the y-axis is `p_trios / p_baseline` per benchmark.
//! Expected shape: enormous ratios at current error rates, exponential
//! fall-off toward 1 as errors improve, Trios never below baseline.
//!
//! Run with `cargo bench -p trios-bench --bench fig12`.

use trios_bench::{compile_benchmark, rule};
use trios_benchmarks::Benchmark;
use trios_core::{Calibration, PaperConfig};
use trios_topology::johannesburg;

fn main() {
    let topo = johannesburg();
    let factors = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0];

    println!("Figure 12: p_trios/p_baseline vs error-rate improvement factor (Johannesburg)");
    print!("{:<28}", "benchmark");
    for f in factors {
        print!(" {:>11}", format!("{f}x"));
    }
    println!();
    rule(28 + factors.len() * 12);

    for b in Benchmark::toffoli_suite() {
        let circuit = b.build();
        let base = compile_benchmark(&circuit, &topo, PaperConfig::QiskitBaseline, 0);
        let trios = compile_benchmark(&circuit, &topo, PaperConfig::Trios, 0);
        print!("{:<28}", b.name());
        for f in factors {
            let cal = Calibration::johannesburg_2020_08_19().improved(f);
            let ratio = trios.estimate_success(&cal).probability()
                / base.estimate_success(&cal).probability();
            print!(" {:>11.3e}", ratio);
        }
        println!();
    }
    rule(28 + factors.len() * 12);
    println!(
        "dotted line: 1x = current Johannesburg errors; dashed line: 20x = Fig. 9 simulation point"
    );
    println!("expected shape: exponential fall-off toward 1.0 as errors improve; never below 1.0");
}
