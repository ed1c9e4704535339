//! Golden tests for the pluggable routing engine:
//!
//! 1. The registry's `"baseline"` and `"trios"` strategies are
//!    **byte-identical** to the pre-refactor free functions
//!    (`route_baseline` / `route_trios`) on the full paper suite.
//! 2. Batch-compilation cache keys incorporate the strategy: a warm cache
//!    never serves one strategy's result for another.

use trios_benchmarks::Benchmark;
use trios_core::{CompilationCache, CompileOptions, Compiler, StrategyRegistry};
use trios_passes::{decompose_toffolis, SixCnotDecomposition};
use trios_route::{route_baseline, route_trios, Layout, RouterOptions, RoutingTrace};
use trios_topology::johannesburg;

#[test]
fn registry_baseline_and_trios_match_free_functions_on_paper_suite() {
    let topo = johannesburg();
    let registry = StrategyRegistry::standard();
    for b in Benchmark::ALL {
        let toffoli_level = b.build();
        let decomposed = decompose_toffolis(&toffoli_level, &SixCnotDecomposition);
        for seed in [0u64, 7] {
            // Stochastic direction (the default) so the shared RNG stream
            // is part of the byte-for-byte comparison.
            let opts = RouterOptions::with_seed(seed);
            let layout = Layout::trivial(toffoli_level.num_qubits(), topo.num_qubits());

            let golden = route_trios(&toffoli_level, &topo, layout.clone(), &opts).unwrap();
            let via_registry = registry
                .get("trios")
                .unwrap()
                .route(
                    &toffoli_level,
                    &topo,
                    layout.clone(),
                    &opts,
                    &mut RoutingTrace::new(),
                )
                .unwrap();
            assert_eq!(via_registry, golden, "trios diverged on {b} seed {seed}");

            let golden = route_baseline(&decomposed, &topo, layout.clone(), &opts).unwrap();
            let via_registry = registry
                .get("baseline")
                .unwrap()
                .route(&decomposed, &topo, layout, &opts, &mut RoutingTrace::new())
                .unwrap();
            assert_eq!(via_registry, golden, "baseline diverged on {b} seed {seed}");
        }
    }
}

#[test]
fn every_registered_strategy_compiles_the_paper_suite() {
    let topo = johannesburg();
    for router in StrategyRegistry::standard().names() {
        for b in Benchmark::ALL {
            let compiled = Compiler::builder()
                .seed(0)
                .router(router)
                .build()
                .compile(&b.build(), &topo)
                .unwrap_or_else(|e| panic!("{router} failed on {b}: {e}"));
            assert!(compiled.circuit.is_hardware_lowered(), "{router} on {b}");
        }
    }
}

#[test]
fn warm_cache_never_serves_one_strategy_for_another() {
    let topo = johannesburg();
    let mut circuit = trios_core::Circuit::new(4);
    circuit.h(0).ccx(0, 1, 2).cx(2, 3);
    let routers = ["baseline", "trios", "trios-lookahead", "trios-noise"];

    // Key-level separation across all pairs.
    let keys: Vec<u64> = routers
        .iter()
        .map(|name| {
            let options = CompileOptions {
                router: Some(name.to_string()),
                ..CompileOptions::default()
            };
            CompilationCache::key(&circuit, &topo, &options)
        })
        .collect();
    for (i, a) in keys.iter().enumerate() {
        for (j, b) in keys.iter().enumerate() {
            assert_eq!(i == j, a == b, "{} vs {}", routers[i], routers[j]);
        }
    }

    // Behavior-level: one shared cache across strategy sweeps. Cold pass
    // fills one entry per strategy; warm pass replays each strategy's own
    // result exactly.
    let cache = CompilationCache::new(16);
    let batch = vec![circuit.clone()];
    let mut cold = Vec::new();
    for router in routers {
        let compiler = Compiler::builder().seed(0).router(router).build();
        let outcome = compiler
            .compile_batch(&batch, &topo, 2, Some(&cache))
            .unwrap();
        assert_eq!(
            outcome.report.cache_hits, 0,
            "{router} must not hit another strategy's entry"
        );
        cold.push(outcome.results[0].clone());
    }
    assert_eq!(cache.len(), routers.len(), "one entry per strategy");
    for (router, cold_result) in routers.iter().zip(&cold) {
        let compiler = Compiler::builder().seed(0).router(*router).build();
        let outcome = compiler
            .compile_batch(&batch, &topo, 2, Some(&cache))
            .unwrap();
        assert_eq!(outcome.report.cache_hits, 1, "{router} warm hit");
        assert_eq!(&outcome.results[0], cold_result, "{router} replay");
    }
    // The strategies genuinely differ on this input: baseline pays more
    // 2q gates than trios, so a cross-served entry would be observable.
    let gates = |i: usize| -> usize { cold[i].0.stats.two_qubit_gates };
    assert!(
        gates(0) > gates(1),
        "baseline {} vs trios {}",
        gates(0),
        gates(1)
    );
}
