//! Batch compilation: `Compiler::compile_batch` must be a pure
//! throughput optimization — byte-identical outputs to sequential
//! `Compiler::compile` calls with the same seeds, across devices.

use orchestrated_trios::benchmarks::Benchmark;
use orchestrated_trios::core::{Compiler, Diagnostic, PaperConfig};
use orchestrated_trios::ir::Circuit;
use orchestrated_trios::topology::PaperDevice;

fn workload() -> Vec<Circuit> {
    let mut circuits = vec![
        Benchmark::CnxInplace4.build(),
        Benchmark::IncrementerBorrowedbit5.build(),
        Benchmark::Grovers9.build(),
    ];
    let mut toffoli = Circuit::new(3);
    toffoli.ccx(0, 1, 2);
    circuits.push(toffoli);
    circuits
}

#[test]
fn batch_matches_sequential_compiles_across_devices() {
    let circuits = workload();
    // At least two paper topologies, per the acceptance criteria; run all
    // five — batching must be device-agnostic.
    for device in PaperDevice::ALL {
        let topo = device.build();
        for config in [PaperConfig::QiskitBaseline, PaperConfig::Trios] {
            let compiler = Compiler::builder().seed(3).config(config).build();
            let batched = compiler.compile_batch(&circuits, &topo, 1, None).unwrap();
            assert_eq!(batched.results.len(), circuits.len());
            for (i, circuit) in circuits.iter().enumerate() {
                let sequential = compiler.compile(circuit, &topo).unwrap();
                assert_eq!(
                    batched.results[i].0, sequential,
                    "circuit {i} diverged on {device:?} ({config:?})"
                );
            }
        }
    }
}

#[test]
fn batch_reports_match_single_reports() {
    let circuits = workload();
    let topo = PaperDevice::Johannesburg.build();
    let compiler = Compiler::builder().seed(8).build();
    let batched = compiler
        .compile_batch(&circuits, &topo, 1, None)
        .unwrap()
        .results;
    for (i, circuit) in circuits.iter().enumerate() {
        let (program, report) = compiler.compile_with_report(circuit, &topo).unwrap();
        assert_eq!(batched[i].0, program);
        // Wall times differ run to run; pass structure and deltas do not.
        assert_eq!(
            batched[i].1.pass_names().collect::<Vec<_>>(),
            report.pass_names().collect::<Vec<_>>()
        );
        for (a, b) in batched[i].1.passes.iter().zip(&report.passes) {
            assert_eq!(
                a.gates_before, b.gates_before,
                "circuit {i}, pass {}",
                a.pass
            );
            assert_eq!(a.gates_after, b.gates_after, "circuit {i}, pass {}", a.pass);
        }
        assert_eq!(batched[i].1.stats, report.stats);
    }
}

#[test]
fn batch_is_empty_safe_and_order_preserving() {
    let topo = PaperDevice::Grid.build();
    let compiler = Compiler::default();
    let mut small = Circuit::new(2);
    small.cx(0, 1);
    let mut large = Circuit::new(6);
    large.ccx(0, 2, 4);
    for jobs in [1, 4] {
        let empty = compiler.compile_batch(&[], &topo, jobs, None).unwrap();
        assert!(empty.results.is_empty(), "jobs = {jobs}");
        assert_eq!(empty.report.circuits, 0, "jobs = {jobs}");

        // Mixed widths keep their order.
        let out = compiler
            .compile_batch(&[small.clone(), large.clone()], &topo, jobs, None)
            .unwrap();
        assert_eq!(out.results.len(), 2, "jobs = {jobs}");
        assert_eq!(out.results[0].0, compiler.compile(&small, &topo).unwrap());
        assert_eq!(out.results[1].0, compiler.compile(&large, &topo).unwrap());
    }
}

#[test]
fn batch_surfaces_failing_circuit_index() {
    let topo = PaperDevice::Line.build();
    let compiler = Compiler::default();
    let ok = Circuit::new(3);
    let too_wide = Circuit::new(64);
    // Two failing circuits: every worker count reports the lower index.
    let batch = [ok.clone(), ok.clone(), too_wide.clone(), ok, too_wide];
    for jobs in [1, 2, 4] {
        let err = compiler
            .compile_batch(&batch, &topo, jobs, None)
            .unwrap_err();
        assert_eq!(err.index, 2, "jobs = {jobs}");
        assert!(
            matches!(err.diagnostic, Diagnostic::Routing { .. }),
            "jobs = {jobs}"
        );
    }
}
