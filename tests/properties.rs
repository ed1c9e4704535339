//! Property-based tests: random Toffoli-level programs on random devices
//! must compile to legal, semantics-preserving circuits under both
//! routers, for every decomposition strategy, with and without the
//! lookahead router and the commutation-aware optimizer — and their
//! compiled outputs must survive an OpenQASM round trip. The one-scan
//! shortcuts behind the pass manager and the sweep's estimates must
//! equal the scans they replace.

use proptest::prelude::*;
use trios_core::{
    CachedCompilation, CompilationCache, CompileOptions, CompileReport, CompileStats,
    CompiledProgram, Compiler, DirectionPolicy, ShardedCache,
};
use trios_ir::{Circuit, Gate, GateCounts, Instruction, Qubit};
use trios_route::{check_legal, Layout, LookaheadConfig, ToffoliPolicy};
use trios_schedule::{asap_total_us, schedule_asap, GateDurations};
use trios_sim::{DenseSimulator, Simulator};
use trios_topology::{clusters, grid, johannesburg, line, ring, Topology};

/// A random gate on up to `n` qubits, biased toward the gates the paper's
/// programs use; kinds 5–7 are the three-qubit set (`ccx`, `ccz`, `cswap`).
fn arb_gate(n: usize) -> impl Strategy<Value = (u8, usize, usize, usize)> {
    (0u8..8, 0..n, 0..n, 0..n).prop_filter("distinct operands", |(kind, a, b, c)| match kind {
        0 | 1 => true,                   // 1q gates
        2..=4 => a != b,                 // 2q gates
        _ => a != b && b != c && a != c, // 3q gates
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

fn device(choice: u8) -> Topology {
    match choice % 5 {
        0 => line(8),
        1 => ring(8),
        2 => grid(4, 2),
        3 => clusters(2, 4),
        _ => johannesburg(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_programs_are_legal_and_equivalent(
        gates in proptest::collection::vec(arb_gate(6), 1..14),
        device_choice in 0u8..5,
        seed in 0u64..1000,
        trio_routing in any::<bool>(),
        lookahead in any::<bool>(),
        optimize_full in any::<bool>(),
        bridge in any::<bool>(),
    ) {
        let circuit = build_circuit(6, &gates);
        let topo = device(device_choice);
        let options = CompileOptions {
            router: Some(if trio_routing { "trios" } else { "baseline" }.into()),
            seed,
            lookahead: lookahead.then(LookaheadConfig::default),
            bridge,
            optimize: if optimize_full {
                trios_passes::OptimizeOptions::full()
            } else {
                trios_passes::OptimizeOptions::default()
            },
            ..CompileOptions::default()
        };
        let compiled = Compiler::new(options).compile(&circuit, &topo).unwrap();

        // Legality: hardware gate set, every 2q gate on a coupling edge.
        prop_assert!(compiled.circuit.is_hardware_lowered());
        prop_assert!(check_legal(&compiled.circuit, &topo, ToffoliPolicy::Forbid).is_ok());

        // Layout sanity: bijective mappings of the right shape.
        let init = compiled.initial_layout.to_mapping();
        let fin = compiled.final_layout.to_mapping();
        prop_assert_eq!(init.len(), 6);
        prop_assert_eq!(fin.len(), 6);

        // Semantics: the physical circuit implements the logical program.
        let ok = DenseSimulator::new(1e-7).compiled_equivalent(
            &circuit,
            &compiled.circuit,
            &init,
            &fin,
            1,
            seed,
        ).unwrap();
        prop_assert!(ok, "semantics broken");
    }

    #[test]
    fn all_toffoli_strategies_preserve_semantics(
        placements in proptest::collection::vec(0usize..8, 3..6),
        strategy_choice in 0u8..5,
    ) {
        // A chain of Toffolis over shifting operand windows.
        let mut circuit = Circuit::new(8);
        for w in placements.windows(3) {
            if w[0] != w[1] && w[1] != w[2] && w[0] != w[2] {
                circuit.ccx(w[0], w[1], w[2]);
            }
        }
        if circuit.is_empty() {
            circuit.ccx(0, 1, 2);
        }
        let strategy = ["six", "eight", "standard", "tdepth", "relative-phase"]
            [strategy_choice as usize];
        let topo = johannesburg();
        let options = CompileOptions {
            decomposer: Some(strategy.into()),
            direction: DirectionPolicy::MoveFirst,
            ..CompileOptions::default()
        };
        let compiled = Compiler::new(options).compile(&circuit, &topo).unwrap();
        prop_assert!(check_legal(&compiled.circuit, &topo, ToffoliPolicy::Forbid).is_ok());
        let ok = DenseSimulator::new(1e-7).compiled_equivalent(
            &circuit,
            &compiled.circuit,
            &compiled.initial_layout.to_mapping(),
            &compiled.final_layout.to_mapping(),
            1,
            5,
        ).unwrap();
        prop_assert!(ok, "strategy {:?} broke semantics", strategy);
    }

    #[test]
    fn compiled_output_round_trips_through_qasm(
        gates in proptest::collection::vec(arb_gate(5), 1..10),
        seed in 0u64..100,
    ) {
        let circuit = build_circuit(5, &gates);
        let topo = grid(3, 2);
        let compiled = Compiler::builder().seed(seed).build().compile(&circuit, &topo).unwrap();
        let text = trios_qasm::emit(&compiled.circuit);
        let back = trios_qasm::parse(&text).unwrap();
        prop_assert_eq!(back.num_qubits(), compiled.circuit.num_qubits());
        prop_assert_eq!(back.instructions(), compiled.circuit.instructions());
    }

    #[test]
    fn layout_round_trips_through_mapping(
        slots in proptest::collection::vec(0usize..16, 1..12),
    ) {
        // Dedup to an injective assignment of however many qubits survive.
        let mut mapping = Vec::new();
        for p in slots {
            if !mapping.contains(&p) {
                mapping.push(p);
            }
        }
        let layout = Layout::from_mapping(&mapping, 16).unwrap();
        // to_mapping is the exact inverse of from_mapping …
        prop_assert_eq!(layout.to_mapping(), mapping.clone());
        // … and re-importing the exported mapping reproduces the layout.
        let again = Layout::from_mapping(&layout.to_mapping(), 16).unwrap();
        prop_assert_eq!(again, layout.clone());
        // Accessors agree with the mapping in both directions.
        for (l, &p) in mapping.iter().enumerate() {
            prop_assert_eq!(layout.physical(l), p);
            prop_assert_eq!(layout.logical(p), Some(l));
        }
    }

    #[test]
    fn layout_stays_bijective_under_random_swaps(
        slots in proptest::collection::vec(0usize..10, 1..8),
        swaps in proptest::collection::vec((0usize..10, 0usize..10), 0..40),
    ) {
        let mut mapping = Vec::new();
        for p in slots {
            if !mapping.contains(&p) {
                mapping.push(p);
            }
        }
        let n_logical = mapping.len();
        let mut layout = Layout::from_mapping(&mapping, 10).unwrap();
        for (a, b) in swaps {
            layout.swap_physical(a, b);
            // Bijectivity survives every swap (this also exercises the
            // debug_assert invariants inside swap_physical): each logical
            // qubit has a unique home and the inverse map agrees.
            let mut seen = [false; 10];
            for l in 0..n_logical {
                let p = layout.physical(l);
                prop_assert!(!seen[p], "physical {} assigned twice", p);
                seen[p] = true;
                prop_assert_eq!(layout.logical(p), Some(l));
            }
            // And the export/import round trip still holds mid-walk.
            let again = Layout::from_mapping(&layout.to_mapping(), 10).unwrap();
            prop_assert_eq!(again, layout.clone());
        }
    }

    #[test]
    fn structural_hash_is_stable_on_clones_and_rebuilds(
        gates in proptest::collection::vec(arb_gate(6), 1..20),
    ) {
        let circuit = build_circuit(6, &gates);
        // Clone: trivially equal structure.
        prop_assert_eq!(circuit.structural_hash(), circuit.clone().structural_hash());
        // Semantically identical rebuild: same instruction stream pushed
        // through a fresh builder, under a different name.
        let mut rebuilt = Circuit::with_name(6, "rebuilt-under-another-name");
        for &(kind, a, b, c) in &gates {
            let one = build_circuit(6, &[(kind, a, b, c)]);
            rebuilt.append(&one);
        }
        prop_assert_eq!(circuit.structural_hash(), rebuilt.structural_hash());
        // And via from_instructions (the deserialization path).
        let again = Circuit::from_instructions(6, circuit.instructions().to_vec()).unwrap();
        prop_assert_eq!(circuit.structural_hash(), again.structural_hash());
    }

    #[test]
    fn structural_hash_changes_when_gate_order_or_operands_change(
        gates in proptest::collection::vec(arb_gate(6), 2..16),
        swap_at in any::<proptest::sample::Index>(),
    ) {
        let circuit = build_circuit(6, &gates);
        let original = circuit.structural_hash();

        // Swapping two adjacent distinct instructions changes the hash.
        let i = swap_at.index(gates.len() - 1);
        let mut instructions: Vec<Instruction> = circuit.instructions().to_vec();
        instructions.swap(i, i + 1);
        if instructions != circuit.instructions() {
            let reordered = Circuit::from_instructions(6, instructions).unwrap();
            prop_assert_ne!(original, reordered.structural_hash(), "order must be hashed");
        }

        // Rotating every operand label (same width, no fixed points)
        // changes the hash: operands are part of the structure, and no
        // instruction can equal its relabeled self.
        let rotated = circuit.remapped(6, &[1, 2, 3, 4, 5, 0]).unwrap();
        prop_assert_ne!(original, rotated.structural_hash(), "operands must be hashed");
    }

    #[test]
    fn direction_policies_insert_minimal_swaps_for_single_pair(
        a in 0usize..20,
        b in 0usize..20,
        policy_choice in 0u8..4,
    ) {
        prop_assume!(a != b);
        let mut circuit = Circuit::new(20);
        circuit.cx(a, b);
        let topo = johannesburg();
        let policy = match policy_choice {
            0 => DirectionPolicy::MoveFirst,
            1 => DirectionPolicy::MoveSecond,
            2 => DirectionPolicy::Stochastic,
            _ => DirectionPolicy::MeetInMiddle,
        };
        let options = CompileOptions {
            router: Some("baseline".into()),
            direction: policy,
            optimize: trios_passes::OptimizeOptions::none(),
            ..CompileOptions::default()
        };
        let compiled = Compiler::new(options).compile(&circuit, &topo).unwrap();
        // A single CX at distance d needs exactly d−1 SWAPs under every policy.
        let d = topo.distance(a, b).unwrap();
        prop_assert_eq!(compiled.stats.swap_count, d - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sparse backend is a drop-in for the dense one wherever both
    /// apply: on random clifford-t/layered-style programs up to 16
    /// qubits, the full statevectors agree amplitude-for-amplitude and
    /// the two backends return identical equivalence verdicts — for
    /// pairs that are equivalent and pairs that provably are not.
    #[test]
    fn sparse_and_dense_backends_agree_up_to_16_qubits(
        n in 4usize..17,
        raw_gates in proptest::collection::vec(arb_gate(16), 1..20),
        tamper in 0u8..2,
        seed in 0u64..100,
    ) {
        use trios_sim::{DenseSimulator, Simulator, SparseSimulator, SparseState, State};

        // Fold the 16-qubit operand stream onto `n` qubits, dropping
        // gates whose operands collide after the fold.
        let gates: Vec<_> = raw_gates
            .into_iter()
            .map(|(kind, a, b, c)| (kind, a % n, b % n, c % n))
            .filter(|&(kind, a, b, c)| match kind {
                0 | 1 => true,
                2..=4 => a != b,
                _ => a != b && b != c && a != c,
            })
            .collect();
        let circuit = build_circuit(n, &gates);

        // Statevector agreement on |0…0⟩.
        let mut sparse = SparseState::zero(n).unwrap();
        sparse.apply_circuit(&circuit).unwrap();
        let mut dense = State::zero(n).unwrap();
        dense.apply_circuit(&circuit).unwrap();
        for (i, (s, d)) in sparse
            .dense_amplitudes()
            .unwrap()
            .iter()
            .zip(dense.amplitudes())
            .enumerate()
        {
            prop_assert!(
                (*s - *d).norm_sqr() <= 1e-18,
                "amplitude {i}: sparse {s:?} vs dense {d:?}"
            );
        }

        // Verdict agreement, on an equivalent pair (CZ = H·CX·H rewrite
        // of itself) and on a tampered pair (an extra X is never a
        // global phase).
        let mut other = build_circuit(n, &gates);
        other.h(0).cz(0, 1).h(1).cx(0, 1).h(1).h(0);
        if tamper == 1 {
            other.x(n - 1);
        }
        let d = DenseSimulator::default();
        let s = SparseSimulator::default();
        let dense_verdict = d.circuits_equivalent(&circuit, &other, 2, seed).unwrap();
        let sparse_verdict = s.circuits_equivalent(&circuit, &other, 2, seed).unwrap();
        // Verdicts must match, and the CZ rewrite is equivalent iff untampered.
        prop_assert_eq!(dense_verdict, sparse_verdict);
        prop_assert_eq!(dense_verdict, tamper == 0);
    }

    /// Blowing the nonzero-amplitude budget is a structured
    /// [`SimError::StateTooDense`], never a wrong verdict: a Hadamard
    /// ladder on `n` qubits needs 2ⁿ terms, so any budget below that
    /// must surface the error from both the raw state and the
    /// equivalence entry points.
    #[test]
    fn sparse_budget_blowup_is_an_error_not_a_verdict(
        n in 8usize..15,
        budget in 2usize..64,
    ) {
        use trios_sim::{SimError, Simulator, SparseSimulator, SparseState};

        let mut ladder = Circuit::new(n);
        for q in 0..n {
            ladder.h(q);
        }
        let mut state = SparseState::zero(n).unwrap().with_max_terms(budget);
        match state.apply_circuit(&ladder) {
            Err(SimError::StateTooDense { terms, max_terms }) => {
                prop_assert_eq!(max_terms, budget);
                prop_assert!(terms > budget);
            }
            other => prop_assert!(false, "expected StateTooDense, got {:?}", other),
        }

        let sim = SparseSimulator::with_max_terms(budget);
        let verdict = sim.circuits_equivalent(&ladder, &ladder, 1, 7);
        prop_assert!(
            matches!(verdict, Err(SimError::StateTooDense { .. })),
            "equivalence must refuse, not guess: {:?}",
            verdict
        );
    }
}

/// A distinguishable cached value: `tag` H gates, so two entries with
/// different tags compare unequal through the cache.
fn tagged_entry(tag: usize) -> CachedCompilation {
    let mut circuit = Circuit::new(2);
    for _ in 0..tag {
        circuit.h(0);
    }
    let program = CompiledProgram {
        circuit,
        initial_layout: Layout::trivial(2, 2),
        final_layout: Layout::trivial(2, 2),
        stats: CompileStats::default(),
    };
    (
        program,
        CompileReport::new(Vec::new(), CompileStats::default()),
    )
}

fn tag_of(entry: &CachedCompilation) -> usize {
    entry.0.circuit.instructions().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With a single shard, [`ShardedCache`] is observationally identical
    /// to a flat [`CompilationCache`] of the same capacity: every
    /// interleaving of inserts and lookups returns the same values and
    /// leaves the same counters, so sharding is purely a contention
    /// optimization, never a semantic change (LRU order included — the
    /// key range deliberately exceeds the capacity range to force
    /// evictions).
    #[test]
    fn single_shard_cache_matches_the_flat_cache(
        capacity in 0usize..6,
        ops in proptest::collection::vec((any::<bool>(), 0u64..16, 1usize..8), 0..60),
    ) {
        let sharded = ShardedCache::new(1, capacity);
        let flat = CompilationCache::new(capacity);
        for &(is_insert, key, tag) in &ops {
            if is_insert {
                sharded.insert(key, tagged_entry(tag));
                flat.insert(key, tagged_entry(tag));
            } else {
                let a = sharded.get(key).as_ref().map(tag_of);
                let b = flat.get(key).as_ref().map(tag_of);
                prop_assert_eq!(a, b);
            }
            prop_assert_eq!(sharded.stats(), flat.stats());
            prop_assert_eq!(sharded.len(), flat.len());
        }
    }

    /// Shard routing is a pure function of the key: stable across calls,
    /// across instances, and under arbitrary cache mutation — only the
    /// shard count matters. (Inserts landing where later lookups route is
    /// what makes the per-shard counters in `serve` stats trustworthy.)
    #[test]
    fn shard_routing_is_a_pure_function_of_the_key(
        shards in 1usize..16,
        keys in proptest::collection::vec(any::<u64>(), 1..40),
        tag in 1usize..4,
    ) {
        let a = ShardedCache::new(shards, 2);
        let b = ShardedCache::new(shards, 2);
        let routed: Vec<usize> = keys.iter().map(|&k| a.shard_of(k)).collect();
        for (&key, &shard) in keys.iter().zip(&routed) {
            prop_assert!(shard < a.num_shards());
            prop_assert_eq!(shard, b.shard_of(key));
            // Mutate both caches between observations …
            a.insert(key, tagged_entry(tag));
            let _ = b.get(key);
        }
        // … and every key still routes exactly where it did before.
        for (&key, &shard) in keys.iter().zip(&routed) {
            prop_assert_eq!(a.shard_of(key), shard);
            prop_assert_eq!(b.shard_of(key), shard);
        }
    }
}

/// Generated circuits with distinct seeds must never false-hit the
/// compilation cache: every random-family case gets its own key, and a
/// warm batch over the full set replays each case's own result.
#[test]
fn generated_circuits_with_distinct_seeds_never_false_hit_the_cache() {
    use orchestrated_trios::gen::Family;

    let topo = line(8);
    let options = CompileOptions::default();
    let mut keys = std::collections::HashSet::new();
    let mut circuits = Vec::new();
    for family in [Family::Layered, Family::CliffordT, Family::Qaoa] {
        for seed in 0..24 {
            let case = family.generate_case(seed);
            assert!(
                keys.insert(CompilationCache::key(&case.circuit, &topo, &options)),
                "{} seed {seed} collided with an earlier case",
                family.name()
            );
            if case.circuit.num_qubits() <= topo.num_qubits() {
                circuits.push(case.circuit);
            }
        }
    }

    // Cold batch fills the cache; a warm rerun must hit every job and
    // return exactly the cold results (a false hit would splice another
    // case's program in).
    let compiler = Compiler::new(options);
    let cache = CompilationCache::new(circuits.len());
    let cold = compiler
        .compile_batch(&circuits, &topo, 4, Some(&cache))
        .unwrap();
    assert_eq!(cold.report.cache_hits, 0, "distinct cases must all miss");
    let warm = compiler
        .compile_batch(&circuits, &topo, 4, Some(&cache))
        .unwrap();
    assert_eq!(warm.report.cache_hits as usize, circuits.len());
    assert_eq!(warm.results, cold.results);
}

/// The reference: an eager all-pairs BFS, one nested `Vec` row per
/// source, that shares no code with `Topology`'s lazy rows.
fn nested_bfs_distances(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut dist = vec![vec![u32::MAX; n]; n];
    for (s, row) in dist.iter_mut().enumerate() {
        row[s] = 0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if row[v] == u32::MAX {
                    row[v] = row[u] + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every member of the heavy-hex family — not just the published
    // 127/433/1121 sizes — is connected, triangle-free, degree ≤ 3, and
    // has exactly 10c² + 12c + 1 qubits.
    #[test]
    fn heavy_hex_family_invariants(c in 1usize..11) {
        let d = 2 * c + 1;
        let topo = trios_topology::heavy_hex(d);
        prop_assert_eq!(topo.num_qubits(), 10 * c * c + 12 * c + 1);
        prop_assert_eq!(topo.num_qubits(), trios_topology::heavy_hex_qubits(d));
        prop_assert!(topo.is_connected());
        prop_assert!(!topo.has_triangle());
        for q in 0..topo.num_qubits() {
            prop_assert!(topo.degree(q) <= 3, "qubit {} has degree {}", q, topo.degree(q));
        }
        // And the spec grammar round-trips the family.
        let respecced = trios_topology::parse_spec(
            &format!("heavy-hex:{}", topo.num_qubits()),
        ).unwrap();
        prop_assert_eq!(respecced.num_qubits(), topo.num_qubits());
    }

    // Lazily filled distance rows answer exactly what an eager all-pairs
    // BFS would, on arbitrary graphs — disconnected ones and isolated
    // qubits included — whatever order the queries fill the rows in.
    #[test]
    fn lazy_distance_rows_match_reference_bfs(
        n in 1usize..24,
        raw_edges in proptest::collection::vec((0usize..24, 0usize..24), 0..60),
        queries in proptest::collection::vec((0usize..24, 0usize..24), 0..40),
    ) {
        let edges: Vec<(usize, usize)> = raw_edges
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a != b)
            .collect();
        let topo = Topology::from_edges("random", n, &edges).unwrap();
        let reference = nested_bfs_distances(n, &edges);
        // Scattered queries first, while most rows are still cold.
        for (a, b) in queries {
            let (a, b) = (a % n, b % n);
            prop_assert_eq!(topo.shortest_path(a, b), reference_path(&topo, &reference, a, b));
            prop_assert_eq!(topo.distance(a, b), reference_distance(&reference, a, b));
        }
        prop_assert_eq!(matches_reference(&topo, &reference), Ok(()));
    }
}

fn reference_distance(reference: &[Vec<u32>], a: usize, b: usize) -> Option<usize> {
    (reference[a][b] != u32::MAX).then_some(reference[a][b] as usize)
}

/// The greedy walk toward `b`, lowest index first among equally close
/// neighbors, over the reference distances.
fn reference_path(
    topo: &Topology,
    reference: &[Vec<u32>],
    a: usize,
    b: usize,
) -> Option<Vec<usize>> {
    reference_distance(reference, a, b)?;
    let mut path = vec![a];
    let mut here = a;
    while here != b {
        here = topo
            .neighbors(here)
            .min_by_key(|&v| (reference[v][b], v))
            .unwrap();
        path.push(here);
    }
    Some(path)
}

/// Every query a lazy row serves, checked against the reference matrix.
fn matches_reference(topo: &Topology, reference: &[Vec<u32>]) -> Result<(), String> {
    let n = topo.num_qubits();
    let check = |what: &str, ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(format!("{topo}: {what}"))
        }
    };
    for a in 0..n {
        for b in 0..n {
            let expected = reference_distance(reference, a, b);
            check(
                &format!("distance({a}, {b})"),
                topo.distance(a, b) == expected,
            )?;
            let path = reference_path(topo, reference, a, b);
            check(
                &format!("shortest_path({a}, {b})"),
                topo.shortest_path(a, b) == path,
            )?;
        }
    }
    let pairs: Vec<u32> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| reference[a][b]))
        .collect();
    let connected = reference[0].iter().all(|&d| d != u32::MAX);
    check("is_connected", topo.is_connected() == connected)?;
    let diameter = connected.then(|| pairs.iter().copied().max().unwrap_or(0) as usize);
    check("diameter", topo.diameter() == diameter)?;
    let mean = (connected && n > 1)
        .then(|| pairs.iter().map(|&d| d as usize).sum::<usize>() as f64 / pairs.len() as f64);
    check("mean_distance", topo.mean_distance() == mean)
}

#[test]
fn lazy_distance_rows_match_reference_bfs_on_the_named_zoo() {
    for topo in [
        johannesburg(),
        grid(5, 4),
        line(20),
        ring(20),
        clusters(4, 5),
        trios_topology::heavy_hex_falcon27(),
        trios_topology::heavy_hex(3),
        trios_topology::heavy_hex(7),
        trios_topology::parse_spec("grid:12x11").unwrap(),
        trios_topology::full(6),
        trios_topology::alltoall(9),
    ] {
        let reference = nested_bfs_distances(topo.num_qubits(), topo.edges());
        matches_reference(&topo, &reference).unwrap();
    }
}

/// `(counts(), depth())` as an iterate-and-fold scan: each gate classed
/// by arity and then by kind, each instruction one layer after the
/// latest of its operands. The reference for the per-arity walks.
fn reference_counts_and_depth(circuit: &Circuit) -> (GateCounts, usize) {
    let mut counts = GateCounts::default();
    let mut level = vec![0usize; circuit.num_qubits()];
    let mut depth = 0;
    for instr in circuit.iter() {
        let gate = instr.gate();
        counts.total += 1;
        match gate.arity() {
            1 if gate.is_measurement() => counts.measure += 1,
            1 => counts.one_qubit += 1,
            2 => counts.two_qubit += 1,
            3 => counts.three_qubit += 1,
            other => panic!("arity {other}"),
        }
        match gate {
            Gate::Cx => counts.cx += 1,
            Gate::Swap => counts.swap += 1,
            Gate::Ccx => counts.ccx += 1,
            Gate::Ccz => counts.ccz += 1,
            Gate::Cswap => counts.cswap += 1,
            _ => {}
        }
        let start = instr
            .qubits()
            .iter()
            .map(|q| level[q.index()])
            .max()
            .unwrap_or(0);
        for q in instr.qubits() {
            level[q.index()] = start + 1;
        }
        depth = depth.max(start + 1);
    }
    (counts, depth)
}

/// The ASAP total Δ as an iterate-and-fold scan: each instruction starts
/// at the fold from 0.0 of its operands' free times. The reference for
/// the per-arity walk behind `asap_total_us`.
fn reference_asap_total_us(circuit: &Circuit, durations: &GateDurations) -> f64 {
    let mut qubit_free = vec![0.0f64; circuit.num_qubits()];
    let mut total = 0.0f64;
    for instr in circuit.iter() {
        let start = instr
            .qubits()
            .iter()
            .map(|q| qubit_free[q.index()])
            .fold(0.0, f64::max);
        let end = start + durations.of(instr.gate());
        for q in instr.qubits() {
            qubit_free[q.index()] = end;
        }
        total = total.max(end);
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pass manager's fused scan, `counts()` and `depth()` equal the
    /// iterate-and-fold reference, and the schedule-free Δ equals both its
    /// reference and the ASAP schedule's total bit for bit, on circuits
    /// mixing one-, two- and three-qubit gates with SWAPs and
    /// measurements, under the Johannesburg table and another one.
    #[test]
    fn fused_scan_and_schedule_free_delta_match_the_full_scans(
        gates in proptest::collection::vec(arb_gate(7), 0..40),
        extras in proptest::collection::vec((0usize..41, 0usize..7, 0usize..7, any::<bool>()), 0..10),
    ) {
        let mut instructions = build_circuit(7, &gates).instructions().to_vec();
        for &(at, a, b, measure) in &extras {
            let at = at.min(instructions.len());
            if measure {
                instructions.insert(at, Instruction::new(Gate::Measure, &[Qubit::new(a)]));
            } else if a != b {
                instructions.insert(at, Instruction::new(Gate::Swap, &[Qubit::new(a), Qubit::new(b)]));
            }
        }
        let circuit = Circuit::from_instructions(7, instructions).unwrap();
        let (counts, depth) = reference_counts_and_depth(&circuit);
        prop_assert_eq!(circuit.counts_and_depth(), (counts, depth));
        prop_assert_eq!(circuit.counts(), counts);
        prop_assert_eq!(circuit.depth(), depth);
        let other = GateDurations {
            one_qubit_us: 0.035,
            two_qubit_us: 0.3,
            measure_us: 1.2,
        };
        for durations in [GateDurations::johannesburg(), other] {
            let total = asap_total_us(&circuit, &durations).to_bits();
            prop_assert_eq!(total, reference_asap_total_us(&circuit, &durations).to_bits());
            prop_assert_eq!(
                total,
                schedule_asap(&circuit, &durations).total_duration_us().to_bits()
            );
        }
    }
}
