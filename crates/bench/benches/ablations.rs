//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Direction policy** — which endpoint of a distant pair moves
//!    (always-first / always-second / stochastic / meet-in-the-middle).
//! 2. **Initial mapping** — trivial vs greedy interaction-aware.
//! 3. **Toffoli strategy** — forced 6-CNOT / forced 8-CNOT /
//!    connectivity-aware, isolating the value of the mapping-aware second
//!    decomposition pass from the value of trio routing itself.
//! 4. **Lookahead vs Trios** — the paper's §3 claim that lookahead routing
//!    "treats the symptoms" of pre-decomposition: a windowed-lookahead
//!    baseline recovers part of the gap, Trios the rest.
//!
//! Run with `cargo bench -p trios-bench --bench ablations`.

use trios_bench::{geomean, rule};
use trios_benchmarks::Benchmark;
use trios_core::{CompileOptions, Compiler, DirectionPolicy, InitialMapping};
use trios_route::LookaheadConfig;
use trios_topology::johannesburg;

fn main() {
    let topo = johannesburg();
    let suite: Vec<Benchmark> = Benchmark::toffoli_suite().collect();

    // --- Ablation 1: direction policy (Trios pipeline).
    println!("Ablation 1: pair-routing direction policy (Trios, Johannesburg, geomean 2q gates)");
    let policies = [
        ("move-first", DirectionPolicy::MoveFirst),
        ("move-second", DirectionPolicy::MoveSecond),
        ("stochastic", DirectionPolicy::Stochastic),
        ("meet-in-middle", DirectionPolicy::MeetInMiddle),
    ];
    for (name, policy) in policies {
        let counts: Vec<f64> = suite
            .iter()
            .map(|b| {
                let options = CompileOptions {
                    direction: policy,
                    ..CompileOptions::with_seed(0)
                };
                Compiler::new(options)
                    .compile(&b.build(), &topo)
                    .unwrap()
                    .stats
                    .two_qubit_gates as f64
            })
            .collect();
        println!("  {:<16} {:>8.1}", name, geomean(&counts));
    }
    println!();

    // --- Ablation 2: initial mapping.
    println!("Ablation 2: initial mapping (Trios, Johannesburg, geomean 2q gates)");
    for (name, mapping) in [
        ("trivial", InitialMapping::Trivial),
        ("greedy-interaction", InitialMapping::GreedyInteraction),
        ("random(seed 5)", InitialMapping::Random { seed: 5 }),
    ] {
        let counts: Vec<f64> = suite
            .iter()
            .map(|b| {
                let options = CompileOptions {
                    mapping: mapping.clone(),
                    direction: DirectionPolicy::MoveFirst,
                    ..CompileOptions::with_seed(0)
                };
                Compiler::new(options)
                    .compile(&b.build(), &topo)
                    .unwrap()
                    .stats
                    .two_qubit_gates as f64
            })
            .collect();
        println!("  {:<18} {:>8.1}", name, geomean(&counts));
    }
    println!();

    // --- Ablation 3: second-pass Toffoli strategy, per benchmark.
    println!("Ablation 3: Toffoli strategy within Trios routing (Johannesburg, 2q gates)");
    println!(
        "{:<28} {:>10} {:>10} {:>12}",
        "benchmark", "forced-6", "forced-8", "conn-aware"
    );
    rule(64);
    let strategies = ["six", "eight", "standard"];
    let mut per_strategy = vec![Vec::new(); 3];
    for b in &suite {
        let circuit = b.build();
        let mut row = Vec::new();
        for (i, strategy) in strategies.into_iter().enumerate() {
            let options = CompileOptions {
                decomposer: Some(strategy.into()),
                direction: DirectionPolicy::MoveFirst,
                ..CompileOptions::with_seed(0)
            };
            let gates = Compiler::new(options)
                .compile(&circuit, &topo)
                .unwrap()
                .stats
                .two_qubit_gates;
            per_strategy[i].push(gates as f64);
            row.push(gates);
        }
        println!(
            "{:<28} {:>10} {:>10} {:>12}",
            b.name(),
            row[0],
            row[1],
            row[2]
        );
    }
    rule(64);
    println!(
        "{:<28} {:>10.1} {:>10.1} {:>12.1}",
        "geomean",
        geomean(&per_strategy[0]),
        geomean(&per_strategy[1]),
        geomean(&per_strategy[2])
    );
    println!();
    println!("expected: on triangle-free Johannesburg, connectivity-aware ≈ forced-8 < forced-6");
    println!("(the mapping-aware second pass always picks the 8-CNOT form there — paper §4)");
    println!();

    // --- Ablation 4: lookahead baseline vs Trios (paper §3).
    println!("Ablation 4: does lookahead routing fix the baseline? (Johannesburg, 2q gates)");
    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "benchmark", "baseline", "lookahead", "trios"
    );
    rule(62);
    let mut cols = vec![Vec::new(); 3];
    for b in &suite {
        let circuit = b.build();
        let configs = [
            CompileOptions {
                router: Some("baseline".into()),
                decomposer: Some("six".into()),
                direction: DirectionPolicy::MoveFirst,
                ..CompileOptions::with_seed(0)
            },
            CompileOptions {
                router: Some("baseline".into()),
                decomposer: Some("six".into()),
                direction: DirectionPolicy::MoveFirst,
                lookahead: Some(LookaheadConfig::default()),
                ..CompileOptions::with_seed(0)
            },
            CompileOptions {
                router: Some("trios".into()),
                direction: DirectionPolicy::MoveFirst,
                ..CompileOptions::with_seed(0)
            },
        ];
        let mut row = Vec::new();
        for (i, options) in configs.into_iter().enumerate() {
            let gates = Compiler::new(options)
                .compile(&circuit, &topo)
                .unwrap()
                .stats
                .two_qubit_gates;
            cols[i].push(gates as f64);
            row.push(gates);
        }
        println!(
            "{:<28} {:>10} {:>10} {:>10}",
            b.name(),
            row[0],
            row[1],
            row[2]
        );
    }
    rule(62);
    println!(
        "{:<28} {:>10.1} {:>10.1} {:>10.1}",
        "geomean",
        geomean(&cols[0]),
        geomean(&cols[1]),
        geomean(&cols[2])
    );
    println!();
    println!("expected: baseline ≥ lookahead ≥ trios — lookahead narrows but does not close");
    println!("the gap, because it still routes six scattered CNOTs per Toffoli (paper §3)");
    println!();

    // --- Ablation 5: optimization level (Trios pipeline).
    println!("Ablation 5: gate-level optimization depth (Trios, Johannesburg, 2q gates)");
    println!(
        "{:<28} {:>8} {:>8} {:>8}",
        "benchmark", "none", "light", "full"
    );
    rule(56);
    use trios_core::OptimizeOptions;
    let levels = [
        OptimizeOptions::none(),
        OptimizeOptions::default(),
        OptimizeOptions::full(),
    ];
    let mut per_level = vec![Vec::new(); 3];
    for b in &suite {
        let circuit = b.build();
        let mut row = Vec::new();
        for (i, &optimize) in levels.iter().enumerate() {
            let options = CompileOptions {
                optimize,
                direction: DirectionPolicy::MoveFirst,
                ..CompileOptions::with_seed(0)
            };
            let gates = Compiler::new(options)
                .compile(&circuit, &topo)
                .unwrap()
                .stats
                .two_qubit_gates;
            per_level[i].push(gates as f64);
            row.push(gates);
        }
        println!("{:<28} {:>8} {:>8} {:>8}", b.name(), row[0], row[1], row[2]);
    }
    rule(56);
    println!(
        "{:<28} {:>8.1} {:>8.1} {:>8.1}",
        "geomean",
        geomean(&per_level[0]),
        geomean(&per_level[1]),
        geomean(&per_level[2])
    );
    println!();
    println!("light = the paper's Qiskit-style setting; full adds commutation-aware");
    println!("CX cancellation and rotation merging (Nam et al.-style)");
    println!();

    // --- Ablation 6: crosstalk policy (paper §2.3 / Murali et al.).
    println!(
        "Ablation 6: crosstalk policy on Trios-compiled benchmarks (Johannesburg, 20x errors)"
    );
    println!(
        "{:<28} {:>9} {:>11} {:>11} {:>11}",
        "benchmark", "conflicts", "p(ignore)", "p(charge)", "p(avoid)"
    );
    rule(74);
    use trios_core::Calibration;
    use trios_noise::{estimate_success_with_crosstalk, CrosstalkPolicy};
    use trios_schedule::{crosstalk_conflicts, schedule_asap, GateDurations};
    let cal = Calibration::near_future();
    // Crosstalk roughly doubles a gate's error rate when a coupled
    // neighbor runs simultaneously (Murali et al.'s measurements).
    let gamma = cal.two_qubit_error;
    for b in &suite {
        let options = CompileOptions {
            direction: DirectionPolicy::MoveFirst,
            ..CompileOptions::with_seed(0)
        };
        let compiled = Compiler::new(options).compile(&b.build(), &topo).unwrap();
        let conflicts = crosstalk_conflicts(
            &schedule_asap(&compiled.circuit, &GateDurations::johannesburg()),
            &topo,
        );
        let p = |policy| {
            estimate_success_with_crosstalk(&compiled.circuit, &cal, &topo, policy).probability()
        };
        println!(
            "{:<28} {:>9} {:>11.4} {:>11.4} {:>11.4}",
            b.name(),
            conflicts,
            p(CrosstalkPolicy::Ignore),
            p(CrosstalkPolicy::Charge {
                error_per_conflict: gamma
            }),
            p(CrosstalkPolicy::Avoid),
        );
    }
    rule(74);
    println!("charge = ASAP schedule eats each conflict; avoid = serialize coupled pairs");
    println!("(longer duration, zero conflicts) — which wins depends on conflict density");
    println!();

    // --- Ablation 7: bridge vs SWAP for distance-2 CNOTs.
    println!("Ablation 7: distance-2 CNOTs as bridges vs SWAPs (Trios, Johannesburg, 2q gates)");
    println!("{:<28} {:>10} {:>10}", "benchmark", "swap-only", "bridge");
    rule(50);
    let mut cols = vec![Vec::new(); 2];
    for b in &suite {
        let circuit = b.build();
        let mut row = Vec::new();
        for (i, bridge) in [false, true].into_iter().enumerate() {
            let options = CompileOptions {
                bridge,
                direction: DirectionPolicy::MoveFirst,
                ..CompileOptions::with_seed(0)
            };
            let gates = Compiler::new(options)
                .compile(&circuit, &topo)
                .unwrap()
                .stats
                .two_qubit_gates;
            cols[i].push(gates as f64);
            row.push(gates);
        }
        println!("{:<28} {:>10} {:>10}", b.name(), row[0], row[1]);
    }
    rule(50);
    println!(
        "{:<28} {:>10.1} {:>10.1}",
        "geomean",
        geomean(&cols[0]),
        geomean(&cols[1])
    );
    println!();
    println!("bridges tie SWAPs on gate count per use (4 vs 3+1) but never move data;");
    println!("they win on one-shot pairs and lose when the router would have reused");
    println!("the proximity — the geomeans show which effect dominates per suite");
}
