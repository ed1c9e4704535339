//! Compile-time scaling curves across the large-device zoo, emitted as
//! `BENCH_scale.json` — the perf budgets later PRs regress against.
//!
//! The grid is device family × device size × circuit size × router:
//!
//! * **heavy-hex** — IBM's Eagle/Osprey/Condor lattices (127/433/1121
//!   qubits), sparse degree-≤3 graphs where routing does real work.
//! * **grid** — square-ish 2D grids at matching sizes, the denser
//!   superconducting alternative.
//! * **alltoall** — ion-trap complete graphs (stored implicitly: ~628k
//!   edges at 1121 qubits never materialize), where routing inserts no
//!   SWAPs but placement and validation still walk the full circuit.
//!
//! Workload: seeded `ToffoliRipple` chains (the paper's adder-shaped
//! programs) at 52 and 102 qubits — the 102-qubit instance carries 200
//! Toffolis, double the ≥100 the scaling acceptance budget is defined
//! over.
//!
//! Every cell is compiled [`REPEATS`] times, each time on a freshly
//! parsed device (so the distance rows the compile reads are filled
//! inside the timing), and reports the median.
//!
//! **Asserted budgets** (release): `trios` compiles the 200-Toffoli
//! workload within the limits in [`BUDGETS`] on `heavy-hex:1121` and
//! `alltoall:1121`. Each limit is 10× the median measured when it was
//! set, so a regression of that size fails the bench. The `--test` mode,
//! which CI runs on every push, checks the same two budgets.
//!
//! Run with `cargo bench -p trios-bench --bench scale`; pass `-- --test`
//! for the CI smoke (127-qubit devices plus the budgeted cells, no file
//! output).

use std::time::Instant;
use trios_core::Compiler;
use trios_gen::{Family, Params};
use trios_ir::Circuit;
use trios_topology::parse_spec;

/// The two routers the curves compare: the paper's trios router and its
/// lookahead variant (the hot path the in-place swap scoring rewrote).
const ROUTERS: [&str; 2] = ["trios", "trios-lookahead"];

/// Timed compiles per cell; the cell reports their median.
const REPEATS: usize = 11;

/// The budgeted cells — `trios` on the 200-Toffoli workload — as (JSON
/// key, device, limit in seconds). Each limit is 10× the release median
/// measured on a 2-vCPU Xeon when it was set: 4.0 ms on heavy-hex:1121
/// and 0.5 ms on alltoall:1121.
const BUDGETS: [(&str, &str, f64); 2] = [
    ("heavy_hex_1121_trios_200_toffolis", "heavy-hex:1121", 0.04),
    ("alltoall_1121_trios_200_toffolis", "alltoall:1121", 0.005),
];

fn workload(qubits: usize) -> Circuit {
    // depth 2 → 2 · (qubits − 2) Toffolis plus a carry CX per sweep.
    Family::ToffoliRipple.generate(&Params::new(qubits, 2), 7)
}

fn toffoli_count(circuit: &Circuit) -> usize {
    circuit
        .iter()
        .filter(|i| matches!(i.gate(), trios_ir::Gate::Ccx | trios_ir::Gate::Ccz))
        .count()
}

struct Point {
    device: String,
    device_qubits: usize,
    router: &'static str,
    circuit_qubits: usize,
    toffolis: usize,
    swaps: usize,
    wall_s: f64,
}

fn measure(spec: &str, router: &'static str, circuit: &Circuit) -> Point {
    let compiler = Compiler::builder().router(router).seed(7).build();
    let mut walls = Vec::with_capacity(REPEATS);
    let mut device_qubits = 0;
    let mut swaps = 0;
    for _ in 0..REPEATS {
        let device = parse_spec(spec).expect("bench device spec is valid");
        let started = Instant::now();
        let program = compiler
            .compile(circuit, &device)
            .unwrap_or_else(|e| panic!("{router} on {spec} failed: {e}"));
        walls.push(started.elapsed().as_secs_f64());
        device_qubits = device.num_qubits();
        swaps = program.stats.swap_count;
    }
    walls.sort_by(f64::total_cmp);
    Point {
        device: spec.to_string(),
        device_qubits,
        router,
        circuit_qubits: circuit.num_qubits(),
        toffolis: toffoli_count(circuit),
        swaps,
        wall_s: walls[REPEATS / 2],
    }
}

/// Asserts that `point`'s median is within `limit_s`.
fn check_budget(point: &Point, limit_s: f64) {
    assert!(
        point.wall_s < limit_s,
        "budget blown: {} on {} took {:.4}s (limit {limit_s}s)",
        point.router,
        point.device,
        point.wall_s
    );
}

fn run_test_mode() {
    // CI smoke: the smallest size of each family, both routers, with a
    // generous ceiling that still catches an accidental return to any of
    // the O(n²)/O(n³) paths this bench was built to guard.
    let circuit = workload(52);
    for spec in ["heavy-hex:127", "grid:12x11", "alltoall:127"] {
        for router in ROUTERS {
            let p = measure(spec, router, &circuit);
            assert!(
                p.wall_s < 30.0,
                "{router} on {spec} took {:.2}s in the smoke budget",
                p.wall_s
            );
            println!(
                "scale --test: {spec} {router}: {:.3}s, {} swaps",
                p.wall_s, p.swaps
            );
        }
    }
    let budgeted = workload(102);
    for (_, spec, limit_s) in BUDGETS {
        let p = measure(spec, "trios", &budgeted);
        check_budget(&p, limit_s);
        println!(
            "scale --test: budget {spec} trios 200 toffolis: {:.4}s (limit {limit_s}s)",
            p.wall_s
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        run_test_mode();
        return;
    }

    let devices = [
        "heavy-hex:127",
        "heavy-hex:433",
        "heavy-hex:1121",
        "grid:12x11",
        "grid:21x21",
        "grid:34x33",
        "alltoall:127",
        "alltoall:433",
        "alltoall:1121",
    ];
    let circuits = [workload(52), workload(102)];
    assert!(
        toffoli_count(&circuits[1]) >= 100,
        "the budget workload must carry at least 100 Toffolis"
    );

    let mut points = Vec::new();
    for spec in devices {
        for circuit in &circuits {
            for router in ROUTERS {
                let p = measure(spec, router, circuit);
                println!(
                    "scale: {:>14} ({:>4}q) {:<15} circuit {:>3}q/{} toffolis: {:>7.3}s, {} swaps",
                    p.device,
                    p.device_qubits,
                    p.router,
                    p.circuit_qubits,
                    p.toffolis,
                    p.wall_s,
                    p.swaps
                );
                points.push(p);
            }
        }
    }

    // The acceptance budgets: the 200-Toffoli workload on the
    // 1121-qubit devices, trios router.
    let budgets: Vec<String> = BUDGETS
        .iter()
        .map(|&(key, device, limit_s)| {
            let p = points
                .iter()
                .find(|p| p.device == device && p.router == "trios" && p.circuit_qubits == 102)
                .expect("budgeted cell was measured");
            check_budget(p, limit_s);
            format!(
                r#"    "{key}": {{"limit_s": {limit_s}, "wall_s": {:.4}}}"#,
                p.wall_s
            )
        })
        .collect();

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                r#"    {{"device": "{}", "device_qubits": {}, "router": "{}", "circuit_qubits": {}, "toffolis": {}, "swaps": {}, "wall_s": {:.4}}}"#,
                p.device, p.device_qubits, p.router, p.circuit_qubits, p.toffolis, p.swaps, p.wall_s
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "bench": "scale",
  "workload": "toffoli-ripple depth 2, seed 7 (52q/100 toffolis and 102q/200 toffolis)",
  "budgets": {{
{budgets}
  }},
  "points": [
{rows}
  ]
}}
"#,
        budgets = budgets.join(",\n"),
        rows = rows.join(",\n"),
    );

    // Anchor at the workspace root regardless of the bench's cwd.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    println!("scale: {} cells, budgets met", points.len());
    println!("wrote BENCH_scale.json");
}
