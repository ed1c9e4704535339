//! Per-pass instrumentation dump: compiles every Table 1 benchmark with
//! the baseline and trios routers and prints one JSON line per
//! compilation (router, pass wall times, gate-count deltas, final stats)
//! — machine-readable input for profiling where compile time and gate
//! count are spent.
//!
//! Run with `cargo bench -p trios-bench --bench pass_report`.

use trios_bench::{compile_benchmark_with_report, device, report_json};
use trios_benchmarks::Benchmark;
use trios_core::PaperConfig;

fn main() {
    let dev = device();
    for bench in Benchmark::ALL {
        let circuit = bench.build();
        if circuit.num_qubits() > dev.num_qubits() {
            continue;
        }
        for config in [PaperConfig::QiskitBaseline, PaperConfig::Trios] {
            let (_, report) = compile_benchmark_with_report(&circuit, &dev, config, 0);
            println!(
                "{{\"benchmark\":\"{}\",\"router\":\"{}\",\"report\":{}}}",
                bench.name(),
                config.to_options(0).router_name(),
                report_json(&report)
            );
        }
    }
}
