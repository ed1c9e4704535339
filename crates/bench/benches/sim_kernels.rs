//! Dense-kernel and stabilizer-backend throughput, emitted as
//! `BENCH_sim.json` — the simulator's perf trajectory later PRs regress
//! against.
//!
//! Three measurements:
//!
//! * **dense baseline** — the seed-era scan kernels (iterate all `2^n`
//!   indices, branch on the target bit), reimplemented here verbatim as
//!   the fixed reference.
//! * **dense stride / fused** — [`trios_sim::State`] with the bit-stride
//!   kernels, unfused and with single-qubit run fusion. The fused/baseline
//!   speedup on a 20-qubit circuit is the headline number (must be ≥ 2×).
//! * **stabilizer scaling** — tableau construction plus a canonical-form
//!   equality check at widths far beyond dense reach (25–400 qubits),
//!   demonstrating the broken 8-qubit verification wall.
//! * **sparse crossover** — [`trios_sim::SparseState`] on the
//!   toffoli-ripple shape at 8–200 qubits, against the dense backend
//!   where dense can still fit: dense wins only at the smallest widths,
//!   and sparse is the only statevector option past the dense cap.
//!
//! Run with `cargo bench -p trios-bench --bench sim_kernels`.
//! Pass `-- --test` (as CI does) for a fast smoke run: a reduced width,
//! no file output, with the same invariants asserted.

use std::time::Instant;
use trios_ir::Circuit;
use trios_sim::{single_qubit_matrix, SparseState, State, Tableau, C64};

/// The seed-era single-qubit kernel: visit every amplitude index and
/// branch away the upper half of each pair.
fn naive_apply_1q(amps: &mut [C64], q: usize, m: &[[C64; 2]; 2]) {
    let mask = 1usize << q;
    for k in 0..amps.len() {
        if k & mask == 0 {
            let a = amps[k];
            let b = amps[k | mask];
            amps[k] = m[0][0] * a + m[0][1] * b;
            amps[k | mask] = m[1][0] * a + m[1][1] * b;
        }
    }
}

/// The seed-era CX kernel: scan and swap where the control bit is set.
fn naive_apply_cx(amps: &mut [C64], c: usize, t: usize) {
    let (cm, tm) = (1usize << c, 1usize << t);
    for k in 0..amps.len() {
        if k & cm != 0 && k & tm == 0 {
            amps.swap(k, k | tm);
        }
    }
}

fn naive_run(circuit: &Circuit) -> Vec<C64> {
    let mut amps = vec![C64::ZERO; 1 << circuit.num_qubits()];
    amps[0] = C64::ONE;
    for instr in circuit.iter() {
        let qs: Vec<usize> = instr.qubits().iter().map(|q| q.index()).collect();
        match instr.gate() {
            trios_ir::Gate::Cx => naive_apply_cx(&mut amps, qs[0], qs[1]),
            gate => {
                let m = single_qubit_matrix(gate).expect("bench circuit is 1q+cx only");
                naive_apply_1q(&mut amps, qs[0], &m);
            }
        }
    }
    amps
}

/// A deterministic `n`-qubit workload shaped like optimizer input: each
/// layer gives every qubit a run of three single-qubit gates (so fusion
/// has real runs to merge) followed by a brick-wall CX layer.
fn workload(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            c.h(q).t(q).s(q);
        }
        let offset = layer % 2;
        let mut q = offset;
        while q + 1 < n {
            c.cx(q, q + 1);
            q += 2;
        }
    }
    c
}

struct DenseResult {
    gates: usize,
    baseline_s: f64,
    stride_s: f64,
    fused_s: f64,
}

fn run_dense(n: usize, layers: usize) -> DenseResult {
    let circuit = workload(n, layers);

    let started = Instant::now();
    let reference = naive_run(&circuit);
    let baseline_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut stride = State::basis(n, 0).unwrap();
    stride.set_threads(1);
    stride.apply_circuit(&circuit).unwrap();
    let stride_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut fused = State::basis(n, 0).unwrap();
    fused.apply_circuit_fused(&circuit).unwrap();
    let fused_s = started.elapsed().as_secs_f64();

    // The stride kernels are bitwise-identical to the scan kernels; the
    // fused path regroups floating-point products, so it gets a tolerance.
    assert_eq!(stride.amplitudes(), &reference[..], "stride != baseline");
    let max_err = fused
        .amplitudes()
        .iter()
        .zip(&reference)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 1e-9, "fused deviates by {max_err}");

    DenseResult {
        gates: circuit.len(),
        baseline_s,
        stride_s,
        fused_s,
    }
}

struct StabPoint {
    qubits: usize,
    gates: usize,
    wall_ms: f64,
}

/// GHZ build plus a canonical-form equality check — the operations the
/// stabilizer backend's equivalence check performs, once per side.
fn run_stabilizer(n: usize) -> StabPoint {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    let started = Instant::now();
    let mut a = Tableau::new(n);
    a.apply_circuit(&c).unwrap();
    let mut b = Tableau::new(n);
    b.apply_circuit(&c).unwrap();
    assert!(a.state_eq(&b), "GHZ must equal itself at n = {n}");
    StabPoint {
        qubits: n,
        gates: c.len(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// The fuzz harness's toffoli-ripple shape at bench scale: a Hadamard
/// front on the first eight qubits (so the state actually carries
/// amplitude — on |0…0⟩ a CCX chain is a no-op) followed by a full-width
/// Toffoli ripple.
fn ripple(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n.min(8) {
        c.h(q);
    }
    for q in 0..n.saturating_sub(2) {
        c.ccx(q, q + 1, q + 2);
    }
    c
}

struct SparsePoint {
    qubits: usize,
    gates: usize,
    terms: usize,
    sparse_ms: f64,
    /// `None` past the dense cap — the widths only sparse can verify.
    dense_ms: Option<f64>,
}

fn run_sparse(n: usize) -> SparsePoint {
    let circuit = ripple(n);
    // One untimed run of each backend first, so that no width's timing
    // pays the process's cold start alone.
    SparseState::zero(n)
        .unwrap()
        .apply_circuit(&circuit)
        .unwrap();
    if n <= 20 {
        State::basis(n, 0).unwrap().apply_circuit(&circuit).unwrap();
    }

    let started = Instant::now();
    let mut sparse = SparseState::zero(n).unwrap();
    sparse.apply_circuit(&circuit).unwrap();
    let sparse_ms = started.elapsed().as_secs_f64() * 1e3;

    let dense_ms = (n <= 20).then(|| {
        let started = Instant::now();
        let mut dense = State::basis(n, 0).unwrap();
        dense.apply_circuit(&circuit).unwrap();
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        let max_err = sparse
            .dense_amplitudes()
            .unwrap()
            .iter()
            .zip(dense.amplitudes())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-9, "sparse deviates from dense by {max_err}");
        elapsed
    });

    SparsePoint {
        qubits: n,
        gates: circuit.len(),
        terms: sparse.num_terms(),
        sparse_ms,
        dense_ms,
    }
}

fn run_test_mode() {
    let dense = run_dense(14, 4);
    assert!(
        dense.fused_s < dense.baseline_s,
        "fused must beat the scan baseline ({:.3}s vs {:.3}s)",
        dense.fused_s,
        dense.baseline_s
    );
    for point in [25, 50].map(run_stabilizer) {
        assert!(
            point.wall_ms < 10_000.0,
            "stabilizer too slow at {}",
            point.qubits
        );
    }
    // The sparse curve's two regimes: dense-verified at 12 qubits,
    // past-the-dense-wall at 100 (run_sparse cross-checks amplitudes
    // against the dense backend wherever dense_ms is Some).
    let narrow = run_sparse(12);
    assert!(narrow.dense_ms.is_some(), "12q must be dense-verified");
    let wide = run_sparse(100);
    assert!(wide.dense_ms.is_none());
    assert!(
        wide.sparse_ms < 10_000.0,
        "sparse too slow at 100q: {:.0}ms",
        wide.sparse_ms
    );
    assert!(wide.terms > 1, "the H front must populate the state");
    println!(
        "sim_kernels --test: 14q x {} gates, baseline {:.3}s, stride {:.3}s, fused {:.3}s; \
         sparse 100q ripple {} terms in {:.0}ms",
        dense.gates, dense.baseline_s, dense.stride_s, dense.fused_s, wide.terms, wide.sparse_ms
    );
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        run_test_mode();
        return;
    }

    let (qubits, layers) = (20, 8);
    let dense = run_dense(qubits, layers);
    let speedup_fused = dense.baseline_s / dense.fused_s;
    let speedup_stride = dense.baseline_s / dense.stride_s;
    assert!(
        speedup_fused >= 2.0,
        "fused dense throughput must be at least 2x the scan baseline, got {speedup_fused:.2}x"
    );

    let stab: Vec<StabPoint> = [25, 50, 100, 200, 400]
        .into_iter()
        .map(run_stabilizer)
        .collect();

    let sparse: Vec<SparsePoint> = [8, 12, 16, 20, 50, 100, 200]
        .into_iter()
        .map(run_sparse)
        .collect();

    let rate = |s: f64| dense.gates as f64 / s;
    let stab_json: Vec<String> = stab
        .iter()
        .map(|p| {
            format!(
                r#"    {{"qubits": {}, "gates": {}, "wall_ms": {:.2}}}"#,
                p.qubits, p.gates, p.wall_ms
            )
        })
        .collect();
    let sparse_json: Vec<String> = sparse
        .iter()
        .map(|p| {
            let dense_ms = p
                .dense_ms
                .map_or("null".to_string(), |ms| format!("{ms:.2}"));
            format!(
                r#"    {{"qubits": {}, "gates": {}, "terms": {}, "sparse_ms": {:.2}, "dense_ms": {}}}"#,
                p.qubits, p.gates, p.terms, p.sparse_ms, dense_ms
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "bench": "sim_kernels",
  "dense": {{
    "qubits": {qubits},
    "layers": {layers},
    "gates": {gates},
    "baseline_scan": {{"wall_s": {b:.4}, "gates_per_s": {br:.1}}},
    "stride": {{"wall_s": {s:.4}, "gates_per_s": {sr:.1}}},
    "stride_fused": {{"wall_s": {f:.4}, "gates_per_s": {fr:.1}}},
    "stride_over_baseline": {speedup_stride:.2},
    "fused_over_baseline": {speedup_fused:.2}
  }},
  "stabilizer_ghz_plus_canonical_eq": [
{stab_lines}
  ],
  "sparse_toffoli_ripple": [
{sparse_lines}
  ]
}}
"#,
        gates = dense.gates,
        b = dense.baseline_s,
        br = rate(dense.baseline_s),
        s = dense.stride_s,
        sr = rate(dense.stride_s),
        f = dense.fused_s,
        fr = rate(dense.fused_s),
        stab_lines = stab_json.join(",\n"),
        sparse_lines = sparse_json.join(",\n"),
    );

    // Anchor at the workspace root regardless of the bench's cwd.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, &json).expect("write BENCH_sim.json");
    println!(
        "sim_kernels: {qubits}q x {} gates — baseline {:.2}s, stride {:.2}s ({speedup_stride:.1}x), \
         fused {:.2}s ({speedup_fused:.1}x); stabilizer 400q GHZ+eq {:.0}ms; \
         sparse 200q ripple {} terms in {:.0}ms",
        dense.gates,
        dense.baseline_s,
        dense.stride_s,
        dense.fused_s,
        stab.last().unwrap().wall_ms,
        sparse.last().unwrap().terms,
        sparse.last().unwrap().sparse_ms
    );
    println!("wrote BENCH_sim.json");
}
