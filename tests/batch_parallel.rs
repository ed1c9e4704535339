//! Property tests for the parallel batch-compilation subsystem:
//!
//! * `Compiler::compile_batch` is byte-identical to compiling each circuit
//!   on its own with `Compiler::compile` — any worker count, any device,
//!   any seed, and the same first failure;
//! * cache hits replay results byte-identical to cold compiles, and a
//!   repeated batch over a warm cache is answered entirely from it.

use proptest::prelude::*;
use trios_core::{
    BatchOutcome, CompilationCache, CompileReport, CompiledProgram, Compiler, Diagnostic,
    PaperConfig,
};
use trios_ir::Circuit;
use trios_topology::{clusters, grid, line, ring, Topology};

/// Reports are deterministic *modulo timing*: pass structure, gate counts,
/// depths, and final stats must match; wall times never reproduce.
fn reports_match(a: &CompileReport, b: &CompileReport) -> bool {
    a.stats == b.stats
        && a.passes.len() == b.passes.len()
        && a.passes.iter().zip(&b.passes).all(|(x, y)| {
            x.pass == y.pass
                && x.gates_before == y.gates_before
                && x.gates_after == y.gates_after
                && x.depth_before == y.depth_before
                && x.depth_after == y.depth_after
        })
}

/// A batch's compiled programs in input order, reports dropped.
fn programs(outcome: BatchOutcome) -> Vec<CompiledProgram> {
    outcome.results.into_iter().map(|(p, _)| p).collect()
}

fn results_match(
    a: &[(CompiledProgram, CompileReport)],
    b: &[(CompiledProgram, CompileReport)],
) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((pa, ra), (pb, rb))| pa == pb && reports_match(ra, rb))
}

/// A random gate on up to `n` qubits (same shape as `tests/properties.rs`);
/// kinds 5–7 are the three-qubit set (`ccx`, `ccz`, `cswap`).
fn arb_gate(n: usize) -> impl Strategy<Value = (u8, usize, usize, usize)> {
    (0u8..8, 0..n, 0..n, 0..n).prop_filter("distinct operands", |(kind, a, b, c)| match kind {
        0 | 1 => true,
        2..=4 => a != b,
        _ => a != b && b != c && a != c,
    })
}

fn build_circuit(n: usize, gates: &[(u8, usize, usize, usize)]) -> Circuit {
    let mut circuit = Circuit::new(n);
    for &(kind, a, b, c) in gates {
        match kind {
            0 => {
                circuit.h(a);
            }
            1 => {
                circuit.t(a);
            }
            2 => {
                circuit.cx(a, b);
            }
            3 => {
                circuit.cz(a, b);
            }
            4 => {
                circuit.cp(0.37, a, b);
            }
            5 => {
                circuit.ccx(a, b, c);
            }
            6 => {
                circuit.ccz(a, b, c);
            }
            _ => {
                circuit.cswap(a, b, c);
            }
        }
    }
    circuit
}

/// Small devices only: these properties compile whole batches per case.
fn device(choice: u8) -> Topology {
    match choice % 4 {
        0 => line(8),
        1 => ring(8),
        2 => grid(4, 2),
        _ => clusters(2, 4),
    }
}

fn arb_batch() -> impl Strategy<Value = Vec<Circuit>> {
    proptest::collection::vec(proptest::collection::vec(arb_gate(5), 1..10), 1..6).prop_map(
        |gate_lists| {
            gate_lists
                .into_iter()
                .map(|gates| build_circuit(5, &gates))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_batches_are_byte_identical_to_sequential(
        circuits in arb_batch(),
        device_choice in 0u8..4,
        jobs in 1usize..6,
        seed in 0u64..1000,
        trios in any::<bool>(),
    ) {
        let topo = device(device_choice);
        let config = if trios { PaperConfig::Trios } else { PaperConfig::QiskitBaseline };
        let compiler = Compiler::builder().seed(seed).config(config).build();
        // The reference: each circuit compiled on its own, stopping at the
        // first failure as the batch does.
        let sequential: Result<Vec<CompiledProgram>, (usize, Diagnostic)> = circuits
            .iter()
            .enumerate()
            .map(|(index, c)| compiler.compile(c, &topo).map_err(|d| (index, d)))
            .collect();
        let parallel = compiler.compile_batch(&circuits, &topo, jobs, None);
        match (sequential, parallel) {
            (Ok(s), Ok(p)) => prop_assert_eq!(s, programs(p)),
            (Err((index, diagnostic)), Err(p)) => {
                prop_assert_eq!(index, p.index);
                prop_assert_eq!(diagnostic, p.diagnostic);
            }
            (s, p) => prop_assert!(
                false,
                "sequential and parallel disagree on success: {:?} vs {:?}",
                s.is_ok(),
                p.is_ok()
            ),
        }
    }

    #[test]
    fn cache_hits_replay_cold_compiles_exactly(
        circuits in arb_batch(),
        device_choice in 0u8..4,
        jobs in 1usize..4,
        seed in 0u64..1000,
    ) {
        let topo = device(device_choice);
        let compiler = Compiler::builder().seed(seed).build();
        // Cold reference: no cache at all.
        let cold = compiler
            .compile_batch(&circuits, &topo, jobs, None)
            .unwrap();
        prop_assert_eq!(cold.report.cache_hits, 0);
        prop_assert_eq!(cold.report.cache_misses, circuits.len() as u64);

        // First cached run compiles (some jobs may hit if the batch holds
        // duplicate structures); second run must be answered from cache.
        let cache = CompilationCache::new(64);
        let first = compiler
            .compile_batch(&circuits, &topo, jobs, Some(&cache))
            .unwrap();
        let warm = compiler
            .compile_batch(&circuits, &topo, jobs, Some(&cache))
            .unwrap();
        prop_assert_eq!(warm.report.cache_hits, circuits.len() as u64);
        prop_assert_eq!(warm.report.cache_misses, 0);

        // Programs are byte-identical across cold, cached-cold, and warm
        // runs; reports match modulo wall times (two workers racing on
        // duplicate circuits may store either racer's timings).
        prop_assert!(results_match(&first.results, &cold.results));
        prop_assert!(results_match(&warm.results, &cold.results));
        for ((warm_program, _), (cold_program, _)) in warm.results.iter().zip(&cold.results) {
            prop_assert_eq!(warm_program, cold_program);
        }
    }
}

/// The acceptance workload: the full paper suite, parallel vs. sequential,
/// plus a warm-cache repeat. Not a proptest (the inputs are fixed), but it
/// lives here with the properties it completes.
#[test]
fn paper_suite_parallel_and_cached_matches_sequential() {
    use orchestrated_trios::benchmarks::{Benchmark, ExtendedBenchmark};
    use orchestrated_trios::topology::johannesburg;

    let circuits: Vec<Circuit> = Benchmark::ALL
        .into_iter()
        .map(|b| b.build())
        .chain(ExtendedBenchmark::ALL.into_iter().map(|b| b.build()))
        .collect();
    let topo = johannesburg();
    let compiler = Compiler::builder().seed(0).build();
    let sequential: Vec<CompiledProgram> = circuits
        .iter()
        .map(|c| compiler.compile(c, &topo).unwrap())
        .collect();
    for jobs in [2, 4] {
        let parallel = compiler
            .compile_batch(&circuits, &topo, jobs, None)
            .unwrap();
        assert_eq!(programs(parallel), sequential, "jobs = {jobs}");
    }
    // Repeated batch over one cache: the second run must exceed a 90% hit
    // rate (it is in fact 100%: every job was inserted by the first run).
    let cache = CompilationCache::new(64);
    compiler
        .compile_batch(&circuits, &topo, 2, Some(&cache))
        .unwrap();
    let warm = compiler
        .compile_batch(&circuits, &topo, 2, Some(&cache))
        .unwrap();
    let rate = warm.report.cache_hit_rate().unwrap();
    assert!(rate > 0.9, "warm hit rate {rate} not > 0.9");
    assert_eq!(
        programs(warm),
        sequential,
        "cached results must equal sequential compilation"
    );
}

/// The calling thread is one of the batch's `jobs` workers, so a
/// one-worker batch compiles everything on the caller and spawns nothing.
/// A custom strategy registered through `CompilerBuilder::strategies`
/// records the thread each circuit is routed on.
#[test]
fn one_job_batch_compiles_every_circuit_on_the_calling_thread() {
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;
    use trios_core::{CompileOptions, Layout, RoutingStrategy, StrategyRegistry};
    use trios_route::{OrchestratedTrios, RouteError, RoutedCircuit, RouterOptions};

    struct Recording(Arc<Mutex<Vec<ThreadId>>>);
    impl RoutingStrategy for Recording {
        fn name(&self) -> &str {
            "recording"
        }
        fn route(
            &self,
            circuit: &Circuit,
            topology: &Topology,
            layout: Layout,
            options: &RouterOptions,
        ) -> Result<RoutedCircuit, RouteError> {
            self.0.lock().unwrap().push(std::thread::current().id());
            OrchestratedTrios.route(circuit, topology, layout, options)
        }
    }

    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut registry = StrategyRegistry::standard();
    let shared = Arc::clone(&seen);
    registry.register("recording", move || {
        Box::new(Recording(Arc::clone(&shared)))
    });
    let options = CompileOptions {
        router: Some("recording".into()),
        ..CompileOptions::default()
    };
    let compiler = Compiler::builder()
        .options(options)
        .strategies(registry)
        .build();
    let circuits: Vec<Circuit> = (3..7)
        .map(|width| {
            let mut c = Circuit::new(width);
            c.h(0).ccx(0, 1, 2).cx(width - 1, 0);
            c
        })
        .collect();
    let topo = line(8);
    let caller = std::thread::current().id();

    compiler.compile_batch(&circuits, &topo, 1, None).unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), circuits.len(), "one route per circuit");
    assert!(
        seen.iter().all(|id| *id == caller),
        "a one-job batch left the calling thread: {seen:?}"
    );
}
