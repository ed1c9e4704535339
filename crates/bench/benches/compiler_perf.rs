//! Criterion benchmarks of compiler performance (not in the paper, but
//! part of evaluating this reproduction as a usable library): wall-clock
//! cost of the baseline vs Trios pipelines on representative inputs.
//!
//! Run with `cargo bench -p trios-bench --bench compiler_perf`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use trios_benchmarks::Benchmark;
use trios_core::{Compiler, PaperConfig};
use trios_topology::{johannesburg, PaperDevice};

fn pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile");
    group.sample_size(20);
    let topo = johannesburg();
    for bench in [
        Benchmark::CuccaroAdder20,
        Benchmark::Grovers9,
        Benchmark::CnxDirty11,
    ] {
        let circuit = bench.build();
        for config in [PaperConfig::QiskitBaseline, PaperConfig::Trios] {
            let compiler = Compiler::new(config.to_options(0));
            group.bench_with_input(
                BenchmarkId::new(config.label(), bench.name()),
                &circuit,
                |b, circuit| {
                    b.iter(|| compiler.compile(circuit, &topo).unwrap());
                },
            );
        }
    }
    group.finish();
}

fn devices(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile-by-device");
    group.sample_size(20);
    let circuit = Benchmark::TakahashiAdder20.build();
    let compiler = Compiler::new(PaperConfig::Trios.to_options(0));
    for device in PaperDevice::ALL {
        let topo = device.build();
        group.bench_with_input(
            BenchmarkId::from_parameter(device.label()),
            &topo,
            |b, topo| {
                b.iter(|| compiler.compile(&circuit, topo).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, pipelines, devices);
criterion_main!(benches);
