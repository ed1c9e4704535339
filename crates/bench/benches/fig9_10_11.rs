//! Regenerates **Figures 9, 10, and 11**: the NISQ benchmark study across
//! the four 20-qubit device types.
//!
//! * Fig. 9 — simulated success probability, baseline vs Trios, 20×
//!   improved errors. Paper geomeans (Toffoli benchmarks):
//!   johannesburg 2.2%→9.8%, grid 3.2%→12%, line 0.19%→6.0%,
//!   clusters 7.3%→17%.
//! * Fig. 10 — percent fewer two-qubit gates. Paper geomean reductions:
//!   37%, 36%, 48%, 26%.
//! * Fig. 11 — success ratio Trios/baseline. Paper geomeans: 4.4×, 3.7×,
//!   31×, 2.3×.
//!
//! Run with `cargo bench -p trios-bench --bench fig9_10_11`.

// Device columns are printed positionally; indexed loops keep the four
// figures' row/column logic identical to the paper's layout.
#![allow(clippy::needless_range_loop)]

use trios_bench::{calibrations, compile_benchmark, geomean, pct, rule};
use trios_benchmarks::Benchmark;
use trios_core::PaperConfig;
use trios_topology::PaperDevice;

fn main() {
    let (_, cal_future) = calibrations();
    let devices = PaperDevice::ALL;

    // results[device][benchmark] = (cx_base, cx_trios, p_base, p_trios)
    let mut results: Vec<Vec<(usize, usize, f64, f64)>> = Vec::new();
    for device in devices {
        let topo = device.build();
        let mut per_bench = Vec::new();
        for b in Benchmark::ALL {
            let circuit = b.build();
            let base = compile_benchmark(&circuit, &topo, PaperConfig::QiskitBaseline, 0);
            let trios = compile_benchmark(&circuit, &topo, PaperConfig::Trios, 0);
            per_bench.push((
                base.stats.two_qubit_gates,
                trios.stats.two_qubit_gates,
                base.estimate_success(&cal_future).probability(),
                trios.estimate_success(&cal_future).probability(),
            ));
        }
        results.push(per_bench);
    }

    println!("Figure 9: simulated benchmark success probability (20x improved errors)");
    println!(
        "{:<28} {:>18} {:>18} {:>18} {:>18}",
        "benchmark", "johannesburg", "grid", "line", "clusters"
    );
    println!(
        "{:<28} {:>8} {:>9} {:>8} {:>9} {:>8} {:>9} {:>8} {:>9}",
        "", "base", "trios", "base", "trios", "base", "trios", "base", "trios"
    );
    rule(106);
    for (bi, b) in Benchmark::ALL.into_iter().enumerate() {
        print!("{:<28}", b.name());
        for di in 0..4 {
            let (_, _, pb, pt) = results[di][bi];
            print!(" {:>8} {:>9}", pct(pb), pct(pt));
        }
        println!();
    }
    rule(106);
    print!("{:<28}", "geomean (Toffoli benchmarks)");
    for di in 0..4 {
        let pb: Vec<f64> = Benchmark::ALL
            .iter()
            .enumerate()
            .filter(|(_, b)| b.uses_toffoli())
            .map(|(bi, _)| results[di][bi].2)
            .collect();
        let pt: Vec<f64> = Benchmark::ALL
            .iter()
            .enumerate()
            .filter(|(_, b)| b.uses_toffoli())
            .map(|(bi, _)| results[di][bi].3)
            .collect();
        print!(" {:>8} {:>9}", pct(geomean(&pb)), pct(geomean(&pt)));
    }
    println!();
    println!("paper: 2.2%->9.8% (johannesburg), 3.2%->12% (grid), 0.19%->6.0% (line), 7.3%->17% (clusters)");
    println!();

    println!("Figure 10: two-qubit gate reduction over baseline (higher is better)");
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>14}",
        "benchmark", "johannesburg", "grid", "line", "clusters"
    );
    rule(88);
    for (bi, b) in Benchmark::ALL.into_iter().enumerate() {
        print!("{:<28}", b.name());
        for di in 0..4 {
            let (cb, ct, _, _) = results[di][bi];
            print!(" {:>13.1}%", 100.0 * (1.0 - ct as f64 / cb as f64));
        }
        println!();
    }
    rule(88);
    print!("{:<28}", "geomean reduction*");
    for di in 0..4 {
        let keep: Vec<f64> = Benchmark::ALL
            .iter()
            .enumerate()
            .filter(|(_, b)| b.uses_toffoli())
            .map(|(bi, _)| results[di][bi].0 as f64 / results[di][bi].1 as f64)
            .collect();
        print!(" {:>13.1}%", 100.0 * (1.0 - 1.0 / geomean(&keep)));
    }
    println!();
    println!("paper: 37% (johannesburg), 36% (grid), 48% (line), 26% (clusters)");
    println!(
        "* geomean of base/trios gate ratios over Toffoli benchmarks, expressed as a reduction"
    );
    println!();

    println!("Figure 11: success normalized to baseline (p_trios/p_baseline)");
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>14}",
        "benchmark", "johannesburg", "grid", "line", "clusters"
    );
    rule(88);
    for (bi, b) in Benchmark::ALL.into_iter().enumerate() {
        print!("{:<28}", b.name());
        for di in 0..4 {
            let (_, _, pb, pt) = results[di][bi];
            print!(" {:>13.2}x", pt / pb);
        }
        println!();
    }
    rule(88);
    print!("{:<28}", "geomean (Toffoli benchmarks)");
    for di in 0..4 {
        let ratios: Vec<f64> = Benchmark::ALL
            .iter()
            .enumerate()
            .filter(|(_, b)| b.uses_toffoli())
            .map(|(bi, _)| results[di][bi].3 / results[di][bi].2)
            .collect();
        print!(" {:>13.2}x", geomean(&ratios));
    }
    println!();
    println!("paper: 4.4x (johannesburg), 3.7x (grid), 31x (line), 2.3x (clusters)");
}
