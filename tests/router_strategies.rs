//! Golden tests for the pluggable routing engine:
//!
//! 1. The one record a routing run returns is right: for every registered
//!    strategy on the paper suite, its SWAP count and trio events agree
//!    with counts of the circuits themselves.
//! 2. Batch-compilation cache keys incorporate the strategy: a warm cache
//!    never serves one strategy's result for another.

use trios_benchmarks::Benchmark;
use trios_core::{
    CompilationCache, CompileContext, CompileOptions, Compiler, DecomposeToffolisPass,
    InitialMappingPass, Pass, RoutePass, RouterTrace, StrategyRegistry, SwapTrace,
};
use trios_topology::johannesburg;

#[test]
fn routing_record_agrees_with_the_routed_circuit_on_paper_suite() {
    let topo = johannesburg();
    let registry = StrategyRegistry::standard();
    for router in registry.names() {
        let routes_trios = registry.get(router).unwrap().handles_three_qubit_gates();
        // Bridges on and off: a bridge moves no data, so it is no SWAP.
        for bridge in [false, true] {
            let options = CompileOptions {
                router: Some(router.to_string()),
                bridge,
                seed: 7,
                ..CompileOptions::default()
            };
            for b in Benchmark::ALL {
                let at = format!("{router} (bridge {bridge}) on {b}");
                let mut cx = CompileContext::new(b.build(), &topo, &options);
                InitialMappingPass.run(&mut cx).unwrap();
                if !routes_trios {
                    DecomposeToffolisPass::default().run(&mut cx).unwrap();
                }
                let input = cx.circuit.counts();
                RoutePass::named(router).run(&mut cx).unwrap();
                let RouterTrace(trace) = cx.artifacts.get::<RouterTrace>().unwrap();
                assert_eq!(trace.strategy.as_deref(), Some(router), "{at}");

                // SWAPs: the context's count and the swap gates routing
                // added to the circuit.
                assert_eq!(trace.swaps, cx.swap_count, "{at}");
                assert_eq!(trace.swaps, cx.circuit.counts().swap - input.swap, "{at}");

                // Trio events: one per three-qubit gate routed, plus the
                // inner Toffoli of each cswap.
                let SwapTrace(events) = cx.artifacts.get::<SwapTrace>().unwrap();
                assert_eq!(events, &trace.trio_events, "{at}");
                assert_eq!(
                    trace.trio_events.len(),
                    input.three_qubit + input.cswap,
                    "{at}"
                );
            }
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
